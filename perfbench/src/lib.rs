//! The repository's benchmark: four workloads driven through the crates'
//! public functions, timed end to end, with a traced run that splits the
//! time by layer. See `perfbench/README.md` for the metrics and why each
//! workload exists.

pub mod batch;
pub mod edit;
pub mod plan;
pub mod sanitized;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use fearless_core::{CheckedProgram, CheckerOptions, Globals};
use fearless_trace::{MemorySink, Tracer};

use crate::stats::{geomean, median};
use crate::trace::Recorder;

/// Worker threads for the parallel checker (the machine has 2 cores).
pub const JOBS: usize = 2;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold one-shot check/verify/flow/lint of the 1061-function program.
    BatchCold,
    /// Editor save steps over a warm cache directory.
    EditLoop,
    /// Two closed-loop clients against an in-process daemon.
    ServeMixed,
    /// Chaos scenarios under seeded schedules, sanitizer on and off.
    RunSanitized,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::BatchCold,
        Workload::EditLoop,
        Workload::ServeMixed,
        Workload::RunSanitized,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchCold => "batch-cold",
            Workload::EditLoop => "edit-loop",
            Workload::ServeMixed => "serve-mixed",
            Workload::RunSanitized => "run-sanitized",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Record spans (the per-layer run).
    pub trace: bool,
    /// Scratch directory for caches, sockets and the trace file.
    pub work_dir: PathBuf,
}

/// Everything a workload run gathers.
#[derive(Default, Debug)]
pub struct Collector {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong or that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Untraced operation times in ms, per operation kind.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Traced operation times in ms, per operation kind.
    pub traced: BTreeMap<&'static str, Vec<f64>>,
    /// Metrics the workload sets directly.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable notes printed with the report.
    pub notes: Vec<String>,
    /// Untraced operation times scaled to the reference machine speed
    /// (see [`normalise`]), per operation kind.
    pub normalised: BTreeMap<&'static str, Vec<f64>>,
    /// Every calibration kernel time in ms.
    pub kernels: Vec<f64>,
    /// Peak resident set in MB at the end of the measured phase, for a
    /// workload that checks its answers after it.
    pub peak_rss_mb: Option<f64>,
}

impl Collector {
    /// Counts one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Records one operation time, traced or not.
    pub fn sample(&mut self, kind: &'static str, ms: f64, traced: bool) {
        let map = if traced {
            &mut self.traced
        } else {
            &mut self.samples
        };
        map.entry(kind).or_default().push(ms);
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// Untraced operation time between two runs of the calibration kernel.
const CALIBRATE_EVERY_MS: f64 = 100.0;

/// The calibration kernel's time, in ms, at the reference machine speed:
/// about its time on an idle 2-core machine.
pub const REF_KERNEL_MS: f64 = 3.0;

/// `ms`, measured while the calibration kernel took `kernel_ms`, scaled
/// to the reference machine speed: what the operation would take on a
/// machine where the kernel takes [`REF_KERNEL_MS`].
pub fn normalise(ms: f64, kernel_ms: f64) -> f64 {
    ms * REF_KERNEL_MS / kernel_ms
}

/// The calibration kernel: fixed, allocation-heavy work that runs none
/// of the code under test, so its time tracks only how fast the machine
/// is at the moment. Returns the median of three back-to-back runs in ms,
/// so that one hiccup does not skew the operations it calibrates.
pub fn kernel_ms() -> f64 {
    let once = || {
        let t = Instant::now();
        let mut map = BTreeMap::new();
        let mut x = 1u64;
        for i in 0..8_000u64 {
            x = plan::splitmix(x);
            map.insert(format!("k{x:016x}"), i);
        }
        let sum = map
            .iter()
            .fold(0u64, |a, (k, v)| a.wrapping_add(k.len() as u64 + v));
        std::hint::black_box(sum);
        drop(map);
        ms_since(t)
    };
    median(&[once(), once(), once()])
}

/// Bytes the byte-scan kernel validates from: about the size of the
/// `edit-loop` cache document.
const SCAN_BYTES: usize = 112 * 1024;

/// Distance between the byte-scan kernel's successive start offsets,
/// chosen so that it takes about as long as [`kernel_ms`].
const SCAN_STEP: usize = 128;

/// The byte-scan calibration kernel: validates a fixed ASCII buffer as
/// UTF-8 from successive offsets to its end, as a JSON reader that
/// re-validates the rest of its input per character does. Some
/// slowdowns of the shared machine hit such scans and spare
/// allocation-heavy work, or the other way round, so [`kernel_ms`] alone
/// does not track them. Like it, this runs none of the code under test
/// and returns the median of three runs in ms.
pub fn scan_kernel_ms() -> f64 {
    let buf: Vec<u8> = (0..SCAN_BYTES).map(|i| b'a' + (i % 26) as u8).collect();
    let once = || {
        let t = Instant::now();
        let mut valid = 0usize;
        for lo in (0..SCAN_BYTES).step_by(SCAN_STEP) {
            valid += std::str::from_utf8(std::hint::black_box(&buf[lo..])).map_or(0, str::len);
        }
        std::hint::black_box(valid);
        ms_since(t)
    };
    median(&[once(), once(), once()])
}

/// The calibration kernel of work that spends `scan_share` of its time
/// scanning bytes: `1 - scan_share` parts [`kernel_ms`] and `scan_share`
/// parts [`scan_kernel_ms`], in ms.
pub fn workload_kernel_ms(scan_share: f64) -> f64 {
    let alloc = kernel_ms();
    if scan_share > 0.0 {
        (1.0 - scan_share) * alloc + scan_share * scan_kernel_ms()
    } else {
        alloc
    }
}

/// Pairs untraced operation times with the calibration kernel. The
/// kernel runs before the first operation and again after every
/// [`CALIBRATE_EVERY_MS`] of operations; each operation is normalised by
/// the mean of the kernel runs just before and just after it. The
/// machine's speed drifts by tens of percent over seconds and by up to
/// half over minutes (other tenants share the host), and the drift hits
/// an operation and the kernel next to it alike, so the normalised time
/// stays steady where the raw time does not.
pub struct Calibration {
    scan_share: f64,
    last: f64,
    pending: Vec<(&'static str, f64)>,
    pending_ms: f64,
}

impl Calibration {
    /// Runs the kernel once, as the "before" of the first operations.
    /// The operations spend `scan_share` of their time scanning bytes
    /// (see [`workload_kernel_ms`]).
    pub fn start(col: &mut Collector, scan_share: f64) -> Calibration {
        let last = workload_kernel_ms(scan_share);
        col.kernels.push(last);
        Calibration {
            scan_share,
            last,
            pending: Vec::new(),
            pending_ms: 0.0,
        }
    }

    /// Records an untraced operation time.
    pub fn record(&mut self, col: &mut Collector, kind: &'static str, ms: f64) {
        col.sample(kind, ms, false);
        self.pending.push((kind, ms));
        self.pending_ms += ms;
        if self.pending_ms >= CALIBRATE_EVERY_MS {
            self.flush(col);
        }
    }

    /// Runs the kernel and calibrates the operations recorded since the
    /// last run.
    pub fn flush(&mut self, col: &mut Collector) {
        if self.pending.is_empty() {
            return;
        }
        let k = workload_kernel_ms(self.scan_share);
        col.kernels.push(k);
        let cal = (self.last + k) / 2.0;
        for (kind, ms) in self.pending.drain(..) {
            col.normalised
                .entry(kind)
                .or_default()
                .push(normalise(ms, cal));
        }
        self.last = k;
        self.pending_ms = 0.0;
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `make` [`SETUPS`] times, handing all but the last result to
/// `discard`, and returns the last result with the median set-up time in
/// seconds, each set-up normalised by the calibration kernel runs just
/// before and after it. A set-up spends `scan_share` of its time scanning
/// bytes (see [`workload_kernel_ms`]).
pub fn timed_setups<T>(
    scan_share: f64,
    mut make: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    let mut before = workload_kernel_ms(scan_share);
    for i in 0..SETUPS {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t = Instant::now();
        last = Some(make(i)?);
        let s = t.elapsed().as_secs_f64();
        let after = workload_kernel_ms(scan_share);
        times.push(normalise(s, (before + after) / 2.0));
        before = after;
    }
    Ok((last.expect("SETUPS >= 1"), median(&times)))
}

/// `check_source`. With the recorder on, it runs `check_source_traced`
/// with a `MemorySink` inside one `core.check_source` span. The sink's
/// per-function `check` spans make its `core.prove` child, so the
/// parent's self time is the rest of the checker's driver: parsing,
/// environment validation and building the checked program.
/// [`source_probes`] times parsing and environment validation on their
/// own.
pub fn check_source_rec(
    src: &str,
    opts: &CheckerOptions,
    rec: &mut Recorder,
) -> Result<CheckedProgram, String> {
    if !rec.is_on() {
        return fearless_core::check_source(src, opts).map_err(|e| e.render(src));
    }
    rec.enter("core.check_source");
    let mut sink = MemorySink::new();
    let checked = fearless_core::check_source_traced(src, opts, &mut Tracer::new(&mut sink));
    let prove_ns: u128 = sink
        .spans()
        .filter(|s| s.phase == "check")
        .map(|s| s.nanos)
        .sum();
    rec.nested("core.prove", u64::try_from(prove_ns).unwrap_or(u64::MAX));
    add_check_counters(rec, &sink);
    rec.exit();
    checked.map_err(|e| e.render(src))
}

/// Copies the checker's own counters from `sink` onto the open span.
pub fn add_check_counters(rec: &mut Recorder, sink: &MemorySink) {
    let totals = sink.totals();
    for (from, to) in [
        ("check.deriv_nodes", "core.deriv_nodes"),
        ("check.vir_steps", "core.vir_steps"),
        ("search.nodes", "core.search_nodes"),
        ("check.oracle_queries", "core.oracle_queries"),
        ("check.oracle_hits", "core.oracle_hits"),
    ] {
        rec.add(to, totals.get(from).copied().unwrap_or(0) as f64);
    }
}

/// Traced-run probes beside an operation whose crate calls parse,
/// validate the environment and fingerprint inside one call: each of
/// `parse_program`, `Globals::build` and `program_fingerprints` on its
/// own, in `probe.parse`, `probe.env` and `probe.fingerprint` root spans.
/// Returns whether all three succeeded.
pub fn source_probes(src: &str, rec: &mut Recorder) -> bool {
    rec.enter("probe.parse");
    let parsed = parse_rec(src, rec);
    rec.exit();
    let Ok(program) = parsed else {
        return false;
    };
    let opts = CheckerOptions::default();
    rec.enter("probe.env");
    rec.enter("core.env");
    let env = Globals::build(&program, opts.mode);
    rec.exit();
    rec.exit();
    rec.enter("probe.fingerprint");
    rec.enter("core.fingerprint");
    let fps = fearless_core::program_fingerprints(&program, &opts);
    rec.add(
        "core.fingerprinted_fns",
        fps.as_ref().map_or(0, Vec::len) as f64,
    );
    rec.exit();
    rec.exit();
    env.is_ok() && fps.is_ok()
}

/// `parse_program` inside a `syntax.parse` span with its byte and
/// function counts.
pub fn parse_rec(
    src: &str,
    rec: &mut Recorder,
) -> Result<fearless_syntax::Program, fearless_syntax::ParseError> {
    rec.enter("syntax.parse");
    let parsed = fearless_syntax::parse_program(src);
    rec.add("syntax.bytes", src.len() as f64);
    if let Ok(p) = &parsed {
        rec.add("syntax.fns", p.funcs.len() as f64);
    }
    rec.exit();
    parsed
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric as printed.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// End-to-end metrics, printed by the untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_norm_ms", "ms"),
    ("tail_norm_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run of every workload (0
/// where the workload does not run the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("check_ms", "ms"),
    ("verify_ms", "ms"),
    ("flow_ms", "ms"),
    ("lint_ms", "ms"),
    ("edit_p50_ms", "ms"),
    ("edit_p90_ms", "ms"),
    ("serve_rps", "1/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p95_ms", "ms"),
    ("run_sanitized_ms", "ms"),
    ("run_plain_ms", "ms"),
    ("failed_ratio", "ratio"),
    ("samples", "count"),
    ("latency_ms", "ms"),
    ("tail_ms", "ms"),
    ("calibration_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("syntax.parse_ms", "ms"),
    ("syntax.bytes", "count"),
    ("syntax.fns", "count"),
    ("core.env_ms", "ms"),
    ("core.fingerprint_ms", "ms"),
    ("core.fingerprinted_fns", "count"),
    ("core.prove_ms", "ms"),
    ("core.check_source_ms", "ms"),
    ("core.deriv_nodes", "count"),
    ("core.vir_steps", "count"),
    ("core.search_nodes", "count"),
    ("core.oracle_queries", "count"),
    ("core.oracle_hits", "count"),
    ("incr.check_units_ms", "ms"),
    ("incr.check_units_serial_ms", "ms"),
    ("incr.speedup_measured", "x"),
    ("incr.speedup_model", "x"),
    ("incr.available_parallelism", "count"),
    ("incr.plan_ms", "ms"),
    ("incr.cache_load_ms", "ms"),
    ("incr.cache_save_ms", "ms"),
    ("incr.cache_bytes", "count"),
    ("incr.cache_hits", "count"),
    ("incr.cache_misses", "count"),
    ("incr.cache_hit_ratio", "ratio"),
    ("verify.ms", "ms"),
    ("verify.rule_nodes", "count"),
    ("flow.compile_ms", "ms"),
    ("flow.analyze_ms", "ms"),
    ("flow.cached_ms", "ms"),
    ("flow.cache_load_ms", "ms"),
    ("flow.cache_save_ms", "ms"),
    ("flow.cache_hits", "count"),
    ("flow.cache_misses", "count"),
    ("flow.cache_hit_ratio", "ratio"),
    ("flow.safe_steps", "count"),
    ("flow.region_local_steps", "count"),
    ("flow.unknown_steps", "count"),
    ("analysis.ms", "ms"),
    ("analysis.recheck_experiments", "count"),
    ("analysis.recheck_queries", "count"),
    ("analysis.recheck_miss_ratio", "ratio"),
    ("analysis.findings", "count"),
    ("runtime.run_ms", "ms"),
    ("runtime.steps", "count"),
    ("runtime.sanitize_checks", "count"),
    ("runtime.sanitize_walks", "count"),
    ("runtime.sanitize_partial_walks", "count"),
    ("runtime.sanitize_skipped", "count"),
    ("runtime.sanitize_skip_ratio", "ratio"),
    ("runtime.disconnect_visited", "count"),
    ("serve.check_p50_ms", "ms"),
    ("serve.flow_p50_ms", "ms"),
    ("serve.lint_p50_ms", "ms"),
    ("serve.repeat_p50_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.codec_ms", "ms"),
    ("serve.ping_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.dedupe_hits", "count"),
    ("serve.dedupe_ratio", "ratio"),
    ("serve.computed", "count"),
    ("serve.cache_entries", "count"),
    ("serve.wal_appends", "count"),
    ("serve.queue_depth_max", "count"),
    ("synth.ms", "ms"),
];

/// The result of one run.
pub struct Outcome {
    /// Whether every checked output was right.
    pub correct: bool,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics for the JSON line.
    pub metrics: Vec<Metric>,
    /// The human-readable report.
    pub report: String,
}

/// Maps a span name to its per-layer metric name.
fn layer_metric(span: &str) -> String {
    if span.contains('.') {
        format!("{span}_ms")
    } else {
        format!("{span}.ms")
    }
}

/// Runs one workload and gathers its metrics.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("cannot create `{}`: {e}", cfg.work_dir.display()))?;
    let mut col = Collector::default();
    let mut rec = Recorder::new(cfg.trace);
    let setup_s = match cfg.workload {
        Workload::BatchCold => batch::run(cfg, &mut col, &mut rec)?,
        Workload::EditLoop => edit::run(cfg, &mut col, &mut rec)?,
        Workload::ServeMixed => serve::run(cfg, &mut col, &mut rec)?,
        Workload::RunSanitized => sanitized::run(cfg, &mut col, &mut rec)?,
    };
    let peak = col.peak_rss_mb.unwrap_or_else(peak_rss_mb);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "perfbench {} seed={} seconds={} trace={} available_parallelism={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        available_parallelism()
    );

    // End to end: per operation kind, the median and the tail of the
    // untraced samples; the workload's figure is their geometric mean
    // over kinds, so every kind weighs the same however long it takes.
    // The end-to-end figures use the normalised samples, the per-layer
    // `latency_ms` and `tail_ms` the raw ones.
    let kinds: Vec<&'static str> = col.samples.keys().copied().collect();
    let over_kinds = |map: &BTreeMap<&'static str, Vec<f64>>, f: fn(&[f64]) -> f64| {
        let v: Vec<f64> = kinds
            .iter()
            .map(|k| map.get(k).map_or(0.0, |s| f(s)))
            .collect();
        geomean(&v)
    };
    for k in &kinds {
        let (raw, norm) = (&col.samples[k], &col.normalised[k]);
        let _ = writeln!(
            report,
            "  op {k:<10} n={:<5} p50={:.3} ms  tail={:.3} ms  normalised p50={:.3} ms  tail={:.3} ms",
            raw.len(),
            median(raw),
            stats::tail(raw),
            median(norm),
            stats::tail(norm),
        );
    }
    let samples: usize = col.samples.values().map(Vec::len).sum();
    col.set("samples", samples as f64);
    col.set(
        "failed_ratio",
        stats::ratio(col.failed as f64, col.attempted as f64),
    );
    col.set("incr.available_parallelism", available_parallelism() as f64);
    let e2e = [
        ("latency_norm_ms", over_kinds(&col.normalised, median)),
        ("tail_norm_ms", over_kinds(&col.normalised, stats::tail)),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak),
    ];
    col.set("latency_ms", over_kinds(&col.samples, median));
    col.set("tail_ms", over_kinds(&col.samples, stats::tail));
    col.set("calibration_ms", median(&col.kernels));

    // Per layer: self time (or counter sum) per operation that uses the
    // layer, as the median over the operations of the kind that spends
    // the most in it.
    if cfg.trace {
        let ops = rec.breakdown();
        let mut per_metric: BTreeMap<String, BTreeMap<&'static str, Vec<f64>>> = BTreeMap::new();
        for op in &ops {
            let layers = op
                .layers
                .iter()
                .filter(|(layer, _)| **layer != op.op)
                .map(|(layer, ms)| (layer_metric(layer), *ms));
            let counters = op.counters.iter().map(|(k, v)| (k.to_string(), *v));
            for (metric, v) in layers.chain(counters) {
                per_metric
                    .entry(metric)
                    .or_default()
                    .entry(op.op)
                    .or_default()
                    .push(v);
            }
        }
        for (name, _) in PER_LAYER {
            let Some(by_kind) = per_metric.get(*name) else {
                continue;
            };
            let main = by_kind
                .values()
                .max_by(|a, b| a.iter().sum::<f64>().total_cmp(&b.iter().sum::<f64>()));
            if let Some(v) = main {
                col.values.entry(name).or_insert(median(v));
            }
        }
        let ratio = |col: &Collector, num: &str, den: &[&str]| {
            let d: f64 = den
                .iter()
                .map(|k| col.values.get(k).copied().unwrap_or(0.0))
                .sum();
            stats::ratio(col.values.get(num).copied().unwrap_or(0.0), d)
        };
        let hit = ratio(
            &col,
            "incr.cache_hits",
            &["incr.cache_hits", "incr.cache_misses"],
        );
        col.values.entry("incr.cache_hit_ratio").or_insert(hit);
        let hit = ratio(
            &col,
            "flow.cache_hits",
            &["flow.cache_hits", "flow.cache_misses"],
        );
        col.values.entry("flow.cache_hit_ratio").or_insert(hit);

        // Tracing overhead: traced over untraced median, per kind.
        let overheads: Vec<f64> = kinds
            .iter()
            .filter_map(|k| {
                let t = col.traced.get(k)?;
                Some(median(t) / median(&col.samples[k]))
            })
            .collect();
        let overhead = if overheads.is_empty() {
            0.0
        } else {
            (geomean(&overheads) - 1.0) * 100.0
        };
        col.set("trace.overhead_pct", overhead);
        report.push_str(&accounting(&ops, &col));
        let path = cfg
            .work_dir
            .join(format!("trace-{}-{}.json", cfg.workload.name(), cfg.seed));
        std::fs::write(&path, rec.to_json(cfg.workload.name(), cfg.seed))
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        let _ = writeln!(report, "  trace written to {}", path.display());
    }

    for note in &col.notes {
        let _ = writeln!(report, "  {note}");
    }
    for f in &col.failures {
        let _ = writeln!(report, "  FAILED: {f}");
    }
    let _ = write!(report, "  end to end:");
    for (name, value) in e2e {
        let _ = write!(report, " {name}={value:.4}");
    }
    let _ = writeln!(
        report,
        "; {} of {} operation(s) failed",
        col.failed, col.attempted
    );
    for (name, unit) in PER_LAYER {
        if let Some(v) = col.values.get(name) {
            let _ = writeln!(report, "  {name:<32} {v:>14.4} {unit}");
        }
    }

    let metrics = if cfg.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| Metric {
                name,
                value: col.values.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|((name, unit), (_, value))| Metric { name, value, unit })
            .collect()
    };
    Ok(Outcome {
        correct: col.failed == 0 && col.attempted > 0,
        attempted: col.attempted.max(1),
        failed: col.failed,
        metrics,
        report,
    })
}

/// Per operation kind: the untraced and traced medians, and the median
/// self time of each layer inside the traced operations. The layer rows
/// of a kind add up to (about) its traced median.
fn accounting(ops: &[trace::OpBreakdown], col: &Collector) -> String {
    let mut out = String::new();
    let mut kinds: BTreeMap<&'static str, Vec<&trace::OpBreakdown>> = BTreeMap::new();
    for op in ops {
        kinds.entry(op.op).or_default().push(op);
    }
    for (kind, ops) in kinds {
        let totals: Vec<f64> = ops.iter().map(|o| o.total_ms).collect();
        let short = kind.trim_start_matches("op.");
        let untraced = match col.samples.get(short) {
            Some(s) if kind.starts_with("op.") => format!(", untraced median {:.3} ms", median(s)),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "  layers of {kind} (n={}): traced median {:.3} ms{untraced}",
            ops.len(),
            median(&totals),
        );
        let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for op in &ops {
            for (l, ms) in &op.layers {
                layers.entry(l).or_default().push(*ms);
            }
        }
        let mut sum = 0.0;
        for (l, v) in &layers {
            // Medians over the operations that ran the layer, scaled by
            // the share of operations that did.
            let m = median(v) * v.len() as f64 / ops.len() as f64;
            sum += m;
            let _ = writeln!(out, "    {l:<28} {m:>12.3} ms self");
        }
        let _ = writeln!(out, "    {:<28} {sum:>12.3} ms", "sum of layer self times");
    }
    out
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The JSON result line.
pub fn result_json(o: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
