//! `fearlessc profile`.

use std::fmt::Write as _;

use fearless_core::CheckerOptions;
use fearless_incr::{CacheStats, DiskCache};
use fearless_trace::{Json, MemorySink, TraceSink, Tracer};

use crate::args::{Args, Input, CACHE, WALL_TIME};
use crate::check::{render_cache_line, save_cache};
use crate::telemetry::Telemetry;
use crate::Command;

/// `fearlessc profile`: print a per-function/per-phase counter table
/// (checker instrumentation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// What to profile (`--corpus`: every accepted corpus entry).
    pub input: Input,
    /// Add a wall-clock time column (makes output nondeterministic).
    pub wall_time: bool,
    /// Directory holding the persistent per-function check cache; adds
    /// a trailing hit/miss/invalidation line to the table.
    pub cache: Option<String>,
    /// `--metrics json` prints the raw trace JSON instead of the table.
    pub telemetry: Telemetry,
}

impl Profile {
    pub(crate) fn parse(a: &Args) -> Result<Command, String> {
        Ok(Command::Profile(Profile {
            wall_time: a.on(WALL_TIME),
            cache: a.last(CACHE)?,
            telemetry: Telemetry::parse(a)?,
            input: a.input("profile")?,
        }))
    }

    pub(crate) fn execute(&self, src: &str) -> Result<String, String> {
        let mut disk = self.cache.as_deref().map(DiskCache::load);
        let mut stats = CacheStats::default();
        let sections = match &self.input {
            Input::File(path) => vec![(
                path.as_str(),
                profile_source(src, "", &mut disk, &mut stats)?,
            )],
            Input::Corpus => {
                let mut sections = Vec::new();
                for entry in fearless_corpus::accepted_entries() {
                    let sink = profile_source(&entry.source, entry.name, &mut disk, &mut stats)
                        .map_err(|e| format!("corpus `{}`: {e}", entry.name))?;
                    sections.push((entry.name, sink));
                }
                sections
            }
        };
        save_cache(&disk)?;
        let corpus = self.input == Input::Corpus;
        // Wall time serializes only under `_nondet`-tagged keys, which
        // `strip-nondet` removes for CI diffs.
        let trace_json = |sink: &MemorySink| sink.to_json_value_opts(self.wall_time);
        if self.telemetry.metrics_json {
            return Ok(if corpus {
                let entries = sections
                    .iter()
                    .map(|(name, sink)| {
                        Json::obj([("name", Json::str(*name)), ("trace", trace_json(sink))])
                    })
                    .collect();
                Json::obj([
                    ("schema", Json::str("fearless-trace/corpus/1")),
                    ("entries", Json::Arr(entries)),
                ])
            } else {
                trace_json(&sections[0].1)
            }
            .render());
        }
        let mut out = String::new();
        for (name, sink) in &sections {
            out.push_str(&render_profile(sink, name, self.wall_time));
            if corpus {
                out.push('\n');
            }
        }
        if self.cache.is_some() {
            let _ = writeln!(out, "{}", render_cache_line(&stats));
        }
        Ok(out)
    }
}

/// Parses and checks `src` with a fresh [`MemorySink`] attached,
/// producing one `parse` span and one `check` span per function. The
/// check runs through the incremental driver, so cache traffic (when a
/// cache is attached) accumulates into `stats`.
fn profile_source(
    src: &str,
    label: &str,
    disk: &mut Option<DiskCache>,
    stats: &mut CacheStats,
) -> Result<MemorySink, String> {
    let mut sink = MemorySink::new();
    sink.span_enter("parse", "program");
    let parsed = fearless_syntax::parse_program(src).map_err(|e| e.render(src));
    sink.span_exit();
    let units = vec![(label.to_string(), parsed?)];
    let run = fearless_incr::check_units(
        &units,
        &CheckerOptions::default(),
        1,
        disk.as_mut(),
        &mut Tracer::new(&mut sink),
    );
    if let Some(e) = run.units[0].first_error() {
        return Err(e.render(src));
    }
    stats.absorb(&run.stats);
    Ok(sink)
}

/// Renders the per-span counter table for `fearlessc profile`. Without
/// `--wall-time` the output is fully deterministic.
fn render_profile(sink: &MemorySink, label: &str, wall_time: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "profile: {label}");
    let mut header = format!(
        "{:<7} {:<24} {:>7} {:>7} {:>9} {:>8} {:>8} {:>7}",
        "phase", "name", "nodes", "vir", "oracle", "search", "backtrk", "live"
    );
    if wall_time {
        let _ = write!(header, " {:>10}", "time");
    }
    let _ = writeln!(out, "{header}");
    let row = |phase: &str, name: &str, get: &dyn Fn(&str) -> u64, nanos: Option<u128>| -> String {
        let oracle = format!(
            "{}/{}",
            get("check.oracle_hits"),
            get("check.oracle_queries")
        );
        let mut line = format!(
            "{:<7} {:<24} {:>7} {:>7} {:>9} {:>8} {:>8} {:>7}",
            phase,
            name,
            get("check.deriv_nodes"),
            get("check.vir_steps"),
            oracle,
            get("search.nodes"),
            get("search.backtracks"),
            get("check.liveness_queries"),
        );
        if wall_time {
            match nanos {
                Some(n) => {
                    let _ = write!(line, " {:>8.3}ms", n as f64 / 1.0e6);
                }
                None => {
                    let _ = write!(line, " {:>10}", "");
                }
            }
        }
        line
    };
    for m in sink.spans() {
        // The cache summary span has its own trailing line; its counters
        // would render as an all-zero table row here.
        if m.phase == "cache" {
            continue;
        }
        let get = |k: &str| m.counters.get(k).copied().unwrap_or(0);
        let _ = writeln!(out, "{}", row(&m.phase, &m.name, &get, Some(m.nanos)));
    }
    let totals = sink.totals();
    let get = |k: &str| totals.get(k).copied().unwrap_or(0);
    let _ = writeln!(out, "{}", row("total", "", &get, None));
    out
}
