//! `fearlessc check`, `verify` and `explain`.

use std::fmt::Write as _;

use fearless_core::{CheckerMode, CheckerOptions};
use fearless_incr::{CacheStats, DiskCache};
use fearless_trace::MemorySink;

use crate::args::{Args, Input, CACHE, JOBS, NO_ORACLE};
use crate::telemetry::Telemetry;
use crate::Command;

/// `fearlessc check`: type-check a file (or the whole corpus) through
/// the `fearless-incr` driver, which every check uses, so serial,
/// parallel, cold and warm runs share one code path and one output
/// format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What to check.
    pub input: Input,
    /// Discipline.
    pub mode: CheckerMode,
    /// Disable the liveness oracle (pure backtracking search).
    pub no_oracle: bool,
    /// Worker threads for per-function checking (1 = serial).
    pub jobs: usize,
    /// Directory holding the persistent per-function check cache.
    pub cache: Option<String>,
    /// Trace, metrics, journal and Perfetto outputs.
    pub telemetry: Telemetry,
}

impl Check {
    pub(crate) fn parse(a: &Args) -> Result<Command, String> {
        let jobs = a.last(JOBS)?.unwrap_or(1);
        if jobs == 0 {
            return Err(format!("{} must be at least 1", JOBS.name));
        }
        Ok(Command::Check(Check {
            mode: a.mode()?,
            no_oracle: a.on(NO_ORACLE),
            jobs,
            cache: a.last(CACHE)?,
            telemetry: Telemetry::parse(a)?,
            input: a.input("check")?,
        }))
    }

    pub(crate) fn execute(&self, src: &str) -> Result<String, String> {
        let mut opts = CheckerOptions::with_mode(self.mode);
        opts.liveness_oracle = !self.no_oracle;
        let mut sink = MemorySink::new();
        let mut disk = self.cache.as_deref().map(DiskCache::load);
        let corpus = self.input == Input::Corpus;

        let entries = if corpus {
            fearless_corpus::all_entries()
        } else {
            Vec::new()
        };
        let units: Vec<(String, fearless_syntax::Program)> = if corpus {
            let mut units = Vec::with_capacity(entries.len());
            for entry in &entries {
                let program = fearless_syntax::parse_program(&entry.source)
                    .map_err(|e| format!("corpus `{}`: {}", entry.name, e.message()))?;
                units.push((entry.name.to_string(), program));
            }
            units
        } else {
            let program = fearless_syntax::parse_program(src).map_err(|e| {
                fearless_core::TypeError::new(e.message().to_string(), e.span()).render(src)
            })?;
            vec![(String::new(), program)]
        };

        let mut tracer = self.telemetry.tracer(&mut sink);
        let run = fearless_incr::check_units(&units, &opts, self.jobs, disk.as_mut(), &mut tracer);
        // Persist even when the check fails: error outcomes replay too.
        save_cache(&disk)?;

        let mut out = String::new();
        if corpus {
            for (report, entry) in run.units.iter().zip(&entries) {
                match (entry.accepted, report.first_error()) {
                    (true, None) => {
                        let _ = writeln!(
                            out,
                            "{}: ok ({} function(s), {} nodes, {} vir)",
                            entry.name,
                            report.functions.len(),
                            report.total_nodes(),
                            report.total_vir_steps()
                        );
                    }
                    (false, Some(_)) => {
                        let _ = writeln!(out, "{}: rejected (expected)", entry.name);
                    }
                    (true, Some(e)) => {
                        return Err(format!(
                            "corpus `{}`: unexpected type error: {e}",
                            entry.name
                        ))
                    }
                    (false, None) => {
                        return Err(format!(
                            "corpus `{}`: checked but should have been rejected",
                            entry.name
                        ))
                    }
                }
            }
            let _ = writeln!(out, "corpus: {} entries checked", run.units.len());
        } else {
            if let Some(e) = run.units[0].first_error() {
                return Err(e.render(src));
            }
            let _ = writeln!(
                out,
                "ok: {} function(s), {} derivation nodes, {} virtual transformations",
                run.units[0].functions.len(),
                run.units[0].total_nodes(),
                run.units[0].total_vir_steps()
            );
        }
        // Cache warmth is allowed to show here (and only here): CI's
        // cold/warm byte-diff strips `cache:`-prefixed lines.
        if self.cache.is_some() {
            let _ = writeln!(out, "{}", render_cache_line(&run.stats));
        }
        self.telemetry.finish(&sink, None, out)
    }
}

/// `fearlessc verify`: check, then replay every derivation through the
/// independent verifier.
pub(crate) fn verify(src: &str) -> Result<String, String> {
    let checked =
        fearless_core::check_source(src, &CheckerOptions::default()).map_err(|e| e.render(src))?;
    let report = fearless_verify::verify_program(&checked).map_err(|e| e.to_string())?;
    Ok(format!(
        "verified: {} function(s), {} rule nodes, {} TS1 steps replayed\n",
        report.functions, report.rule_nodes, report.vir_steps
    ))
}

/// `fearlessc explain`: print one function's typing derivation.
pub(crate) fn explain(src: &str, func: &str) -> Result<String, String> {
    let checked =
        fearless_core::check_source(src, &CheckerOptions::default()).map_err(|e| e.render(src))?;
    let derivation = checked
        .derivations
        .iter()
        .find(|d| d.func.as_str() == func)
        .ok_or_else(|| format!("no function `{func}`"))?;
    Ok(derivation.render())
}

pub(crate) fn save_cache(disk: &Option<DiskCache>) -> Result<(), String> {
    match disk {
        Some(d) => d.save(),
        None => Ok(()),
    }
}

pub(crate) fn render_cache_line(stats: &CacheStats) -> String {
    let mut line = format!(
        "cache: {} hit(s), {} miss(es), {} invalidation(s)",
        stats.hits, stats.misses, stats.invalidations
    );
    // Recoveries are rare (a corrupt on-disk document degraded to a cold
    // start); keep the common-path line unchanged.
    if stats.recoveries > 0 {
        let _ = write!(line, ", {} recovery(ies)", stats.recoveries);
    }
    line
}
