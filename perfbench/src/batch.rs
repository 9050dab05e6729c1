//! `batch-cold`: the four one-shot command paths, cold and in process,
//! on the 1061-function synth program. No cache is touched, so the
//! prover, verifier, flow analysis and lints do almost all the work.

use std::time::Instant;

use fearless_core::CheckerOptions;
use fearless_incr::{check_units, checksum_hex, sched, CachedOutcome};
use fearless_trace::{MemorySink, Tracer};

use crate::trace::Recorder;
use crate::{check_source_rec, ms_since, parse_rec, plan, stats, Collector, Config, JOBS};

/// Generated functions in the program (1061 with the prelude).
pub const GENERATED: usize = 1000;

/// Digests of the program's flow and lint outputs, committed beside the
/// benchmark.
const DIGESTS: &str = include_str!("../digests.txt");

/// The operation kinds, one per one-shot command.
pub const KINDS: [&str; 4] = ["check", "verify", "flow", "lint"];

/// The program and the answers its outputs must match.
pub struct BatchSetup {
    /// Source text.
    pub src: String,
    /// Number of functions in it.
    pub fns: usize,
    /// Expected digest of the flow JSON.
    pub flow_digest: String,
    /// Expected digest of the lint JSON.
    pub lint_digest: String,
}

/// Reads a committed digest by key.
fn digest(key: &str) -> Result<String, String> {
    DIGESTS
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
        .map(|d| d.trim().to_string())
        .ok_or_else(|| format!("digests.txt has no `{key}` line"))
}

/// Synthesizes the program and loads the committed digests.
pub fn setup(generated: usize) -> Result<(BatchSetup, f64), String> {
    let t = Instant::now();
    let src = fearless_synth::synthesize(&plan::synth_options(generated));
    let synth_ms = ms_since(t);
    let fns = fearless_syntax::parse_program(&src)
        .map_err(|e| e.render(&src))?
        .funcs
        .len();
    Ok((
        BatchSetup {
            src,
            fns,
            flow_digest: digest("flow")?,
            lint_digest: digest("lint")?,
        },
        synth_ms,
    ))
}

/// Runs one command path and checks its output; returns its time in ms.
/// With the recorder on, each crate call is its own span.
pub fn op(kind: &'static str, s: &BatchSetup, rec: &mut Recorder, col: &mut Collector) -> f64 {
    let opts = CheckerOptions::default();
    let traced = rec.is_on();
    let name = match kind {
        "check" => "op.check",
        "verify" => "op.verify",
        "flow" => "op.flow",
        _ => "op.lint",
    };
    rec.enter(name);
    let t = Instant::now();
    // What `fearlessc check` runs: parse, then the parallel checker.
    let result: Result<Output, String> = match kind {
        "check" => parse_rec(&s.src, rec)
            .map_err(|e| e.render(&s.src))
            .map(|program| {
                let units = vec![(String::new(), program)];
                rec.enter("incr.check_units");
                let mut sink = MemorySink::new();
                let run = {
                    let mut tracer = if traced {
                        Tracer::new(&mut sink)
                    } else {
                        Tracer::off()
                    };
                    check_units(&units, &opts, JOBS, None, &mut tracer)
                };
                crate::add_check_counters(rec, &sink);
                rec.exit();
                Output::Check(units, run)
            }),
        _ => check_source_rec(&s.src, &opts, rec).and_then(|checked| match kind {
            "verify" => {
                rec.enter("verify");
                let r = fearless_verify::verify_program(&checked);
                if let Ok(r) = &r {
                    rec.add("verify.rule_nodes", r.rule_nodes as f64);
                }
                rec.exit();
                drop_rec(checked, rec);
                r.map(Output::Verify).map_err(|e| e.to_string())
            }
            "flow" => {
                rec.enter("flow.analyze");
                let flow = fearless_flow::analyze_checked(&checked);
                rec.exit();
                drop_rec(checked, rec);
                flow.map(Output::Flow).map_err(|e| e.to_string())
            }
            _ => {
                rec.enter("analysis");
                let r = fearless_analyze::analyze_program(&checked);
                if let Ok(r) = &r {
                    let st = &r.stats;
                    rec.add(
                        "analysis.recheck_experiments",
                        st.recheck_experiments as f64,
                    );
                    rec.add(
                        "analysis.recheck_queries",
                        (st.recheck_cache_hits + st.recheck_cache_misses) as f64,
                    );
                    rec.add("analysis.findings", r.lints.len() as f64);
                }
                rec.exit();
                drop_rec(checked, rec);
                r.map(Output::Lint)
            }
        }),
    };
    let ms = ms_since(t);
    rec.exit();

    // Outside the timed part: check the answer.
    match result {
        Err(e) => col.check(false, || format!("{kind}: {e}")),
        Ok(Output::Check(units, run)) => {
            let unit = &run.units[0];
            let ok = unit.first_error().is_none() && unit.functions.len() == s.fns;
            col.check(ok, || format!("check: {:?}", unit.first_error()));
            if traced {
                probes(&s.src, &units, &run, rec, col);
            }
        }
        Ok(Output::Verify(r)) => {
            col.check(r.functions == s.fns, || {
                format!("verify: {} of {} functions", r.functions, s.fns)
            });
        }
        Ok(Output::Flow(flow)) => {
            let got = checksum_hex(&flow.to_json());
            col.check(got == s.flow_digest, || {
                format!("flow digest {got}, expected {}", s.flow_digest)
            });
            let (safe, local, unknown) = flow.counts();
            col.set("flow.safe_steps", safe as f64);
            col.set("flow.region_local_steps", local as f64);
            col.set("flow.unknown_steps", unknown as f64);
            if traced {
                compile_probe(s, rec, col);
            }
        }
        Ok(Output::Lint(report)) => {
            let got = checksum_hex(&report.to_json(&s.src));
            col.check(got == s.lint_digest, || {
                format!("lint digest {got}, expected {}", s.lint_digest)
            });
            let st = &report.stats;
            let queries = st.recheck_cache_hits + st.recheck_cache_misses;
            col.set(
                "analysis.recheck_miss_ratio",
                stats::ratio(st.recheck_cache_misses as f64, queries as f64),
            );
        }
    }
    ms
}

/// Frees the checked program inside a span of its own: with a thousand
/// derivations the deallocation is a visible share of a command.
fn drop_rec(checked: fearless_core::CheckedProgram, rec: &mut Recorder) {
    rec.enter("core.drop");
    drop(checked);
    rec.exit();
}

enum Output {
    Check(
        Vec<(String, fearless_syntax::Program)>,
        fearless_incr::CheckRun,
    ),
    Verify(fearless_verify::VerifyReport),
    Flow(fearless_flow::ProgramFlow),
    Lint(fearless_analyze::AnalysisReport),
}

/// Traced-run probe beside a flow command: `runtime::compile`, which
/// `analyze_checked` runs before the analysis, on its own.
fn compile_probe(s: &BatchSetup, rec: &mut Recorder, col: &mut Collector) {
    let Ok(program) = fearless_syntax::parse_program(&s.src) else {
        col.check(false, || "compile probe: parse failed".into());
        return;
    };
    rec.enter("probe.compile");
    rec.enter("flow.compile");
    let compiled = fearless_runtime::compile(&program);
    rec.exit();
    rec.exit();
    col.check(compiled.is_ok(), || "compile probe failed".into());
}

/// Traced-run probes beside a check: `check_units` on one worker (measured
/// speedup), the scheduler's plan, [`crate::source_probes`], and the
/// scheduler's modelled speedup.
fn probes(
    src: &str,
    units: &[(String, fearless_syntax::Program)],
    run: &fearless_incr::CheckRun,
    rec: &mut Recorder,
    col: &mut Collector,
) {
    let opts = CheckerOptions::default();
    rec.enter("probe.serial");
    rec.enter("incr.check_units_serial");
    let serial = check_units(units, &opts, 1, None, &mut Tracer::off());
    rec.exit();
    rec.exit();
    let (a, b) = (&serial.units[0], &run.units[0]);
    col.check(
        a.first_error().is_none()
            && a.total_nodes() == b.total_nodes()
            && a.total_vir_steps() == b.total_vir_steps(),
        || "serial and parallel check reports differ".into(),
    );

    let misses: Vec<(usize, usize)> = (0..units[0].1.funcs.len()).map(|f| (0, f)).collect();
    rec.enter("probe.plan");
    rec.enter("incr.plan");
    let schedule = sched::plan(units, &misses, JOBS);
    rec.exit();
    rec.exit();
    col.check(schedule == run.schedule, || {
        "replanning changed the schedule".into()
    });

    col.check(crate::source_probes(src, rec), || {
        "parse, environment or fingerprint probe failed".into()
    });

    let model = sched::cost_model(
        &run.schedule,
        JOBS,
        &mut |ui, fi| match &run.units[ui].functions[fi].outcome {
            CachedOutcome::Ok { nodes, .. } => *nodes,
            CachedOutcome::Err { .. } => 1,
        },
    );
    col.set("incr.speedup_model", model.speedup_x100 as f64 / 100.0);
}

/// Runs the workload: each command gets a quarter of the budget of
/// operation time (at least one run), in seeded round order.
pub fn run(cfg: &Config, col: &mut Collector, rec: &mut Recorder) -> Result<f64, String> {
    let mut synth = Vec::new();
    let (s, setup_s) = crate::timed_setups(
        0.0,
        |_| {
            let (s, ms) = setup(GENERATED)?;
            synth.push(ms);
            Ok(s)
        },
        drop,
    )?;
    col.set("synth.ms", stats::median(&synth));
    run_ops(cfg, &s, col, rec);
    Ok(setup_s)
}

/// The measured loop over a prepared setup.
pub fn run_ops(cfg: &Config, s: &BatchSetup, col: &mut Collector, rec: &mut Recorder) {
    let budget_ms = cfg.seconds * 1e3 / KINDS.len() as f64;
    let mut spent = [0.0f64; 4];
    let mut runs = [0usize; 4];
    let mut off = Recorder::new(false);
    let mut cal = crate::Calibration::start(col, 0.0);
    for round in 0.. {
        let mut any = false;
        for k in plan::order(cfg.seed, round, KINDS.len()) {
            if runs[k] > 0 && spent[k] >= budget_ms {
                continue;
            }
            any = true;
            // The traced run alternates which of the pair goes first.
            let traced_first = rec.is_on() && round % 2 == 1;
            if traced_first {
                let ms = op(KINDS[k], s, rec, col);
                col.sample(KINDS[k], ms, true);
                spent[k] += ms;
            }
            let ms = op(KINDS[k], s, &mut off, col);
            cal.record(col, KINDS[k], ms);
            spent[k] += ms;
            if rec.is_on() && !traced_first {
                let ms = op(KINDS[k], s, rec, col);
                col.sample(KINDS[k], ms, true);
                spent[k] += ms;
            }
            runs[k] += 1;
        }
        if !any {
            break;
        }
    }
    cal.flush(col);
    for (kind, name) in KINDS
        .iter()
        .zip(["check_ms", "verify_ms", "flow_ms", "lint_ms"])
    {
        col.set(name, stats::median(&col.samples[kind]));
    }
    if rec.is_on() {
        let ops = rec.breakdown();
        let layer = |name: &str| {
            let v: Vec<f64> = ops
                .iter()
                .filter_map(|o| o.layers.get(name).copied())
                .collect();
            stats::median(&v)
        };
        let measured = stats::ratio(layer("incr.check_units_serial"), layer("incr.check_units"));
        let model = col.values.get("incr.speedup_model").copied().unwrap_or(0.0);
        col.set("incr.speedup_measured", measured);
        let diverges = model > 0.0 && (measured - model).abs() / model > 0.25;
        col.notes.push(format!(
            "parallel check on {JOBS} workers, {} core(s): measured speedup {measured:.2}x, modelled {model:.2}x{}",
            crate::available_parallelism(),
            if diverges { " -- DIVERGES (>25%)" } else { "" }
        ));
    }
}
