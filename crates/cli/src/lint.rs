//! `fearlessc lint`.

use fearless_core::{CheckerMode, CheckerOptions};
use fearless_trace::{MemorySink, TraceSink};

use crate::args::{Args, DENY_WARNINGS, FORMAT};
use crate::telemetry::Telemetry;
use crate::Command;

/// Output format for `fearlessc lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintFormat {
    /// Rendered diagnostics with source excerpts.
    Human,
    /// Machine-readable JSON (deterministic; golden-file friendly).
    Json,
}

/// `fearlessc lint`: run the static-analysis lint passes
/// (`fearless-analyze`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Source path.
    pub path: String,
    /// Discipline to check under before analyzing.
    pub mode: CheckerMode,
    /// Output format.
    pub format: LintFormat,
    /// Exit nonzero when any finding is reported.
    pub deny_warnings: bool,
    /// Trace and metrics outputs.
    pub telemetry: Telemetry,
}

impl Lint {
    pub(crate) fn parse(a: &Args) -> Result<Command, String> {
        let format = match a.last::<String>(FORMAT)?.as_deref() {
            None | Some("human") => LintFormat::Human,
            Some("json") => LintFormat::Json,
            Some(other) => {
                return Err(format!(
                    "unknown format `{other}` (expected `human` or `json`)"
                ))
            }
        };
        Ok(Command::Lint(Lint {
            mode: a.mode()?,
            format,
            deny_warnings: a.on(DENY_WARNINGS),
            telemetry: Telemetry::parse(a)?,
            path: a.file()?,
        }))
    }

    /// The report and the exit status: `--deny-warnings` with findings
    /// exits 1 while the report still goes to stdout.
    pub(crate) fn execute(&self, src: &str) -> (Result<String, String>, i32) {
        let want = self.telemetry.wanted();
        let mut sink = MemorySink::new();
        let opts = CheckerOptions::with_mode(self.mode);
        let mut tracer = self.telemetry.tracer(&mut sink);
        let checked = match fearless_core::check_source_traced(src, &opts, &mut tracer) {
            Ok(c) => c,
            Err(e) => return (Err(e.render(src)), 1),
        };
        if want {
            sink.span_enter("lint", "analyze");
        }
        let report = match fearless_analyze::analyze_program(&checked) {
            Ok(r) => r,
            Err(msg) => return (Err(msg), 1),
        };
        if want {
            sink.add("lint.findings", report.lints.len() as u64);
            sink.add(
                "lint.recheck_experiments",
                report.stats.recheck_experiments as u64,
            );
            sink.add(
                "lint.recheck_fingerprints",
                report.stats.recheck_fingerprints,
            );
            sink.add("lint.recheck_env_builds", report.stats.recheck_env_builds);
            sink.add("lint.recheck_cache_hits", report.stats.recheck_cache_hits);
            sink.add(
                "lint.recheck_cache_misses",
                report.stats.recheck_cache_misses,
            );
            sink.span_exit();
        }
        let out = match self.format {
            LintFormat::Human => report.render_human(src),
            LintFormat::Json => report.to_json(src),
        };
        match self.telemetry.finish(&sink, None, out) {
            Ok(out) => (Ok(out), i32::from(self.deny_warnings && !report.is_clean())),
            Err(e) => (Err(e), 1),
        }
    }
}
