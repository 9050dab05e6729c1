//! `run-sanitized`: the chaos scenarios under seeded random schedules,
//! once with the domination sanitizer amortized by the flow index and
//! once with the sanitizer off. The checker does no work here, so this
//! workload is the control for every checker change.

use std::time::Instant;

use fearless_runtime::{
    CompiledProgram, FlowIndex, Machine, MachineConfig, SeededRandom, ThreadStatus, Value,
};

use crate::plan;
use crate::trace::Recorder;
use crate::{ms_since, stats, Collector, Config};

/// Factor the scenarios' spawn arguments are scaled by, so a sweep is
/// long enough to time.
pub const SCALE: i64 = 3;

/// Step budget per machine run (a runaway schedule becomes an error).
const FUEL: u64 = 50_000_000;

/// One scenario prepared for timing.
pub struct Prepared {
    /// Scenario name.
    pub name: &'static str,
    /// Compiled program.
    pub program: CompiledProgram,
    /// Threads to spawn: function and scaled arguments.
    pub spawns: Vec<(String, Vec<i64>)>,
    /// Whether the per-step sanitizer applies to this scenario.
    pub sanitize: bool,
    /// The flow analysis' step-safety index.
    pub index: FlowIndex,
    /// Per-thread results of the round-robin unsanitized run.
    pub reference: String,
}

/// Compiles and flow-analyses the scenarios and computes the reference
/// results.
pub fn setup() -> Result<Vec<Prepared>, String> {
    let mut out = Vec::new();
    for s in fearless_chaos::all_scenarios() {
        let flow = fearless_flow::analyze_compiled(&s.program);
        let mut p = Prepared {
            name: s.name,
            spawns: s
                .spawns
                .iter()
                .map(|sp| (sp.func.clone(), sp.args.iter().map(|a| a * SCALE).collect()))
                .collect(),
            sanitize: s.sanitize,
            index: flow.index(),
            program: s.program,
            reference: String::new(),
        };
        let (results, _) = run_one(&p, false, None)?;
        p.reference = results;
        out.push(p);
    }
    Ok(out)
}

/// Runs one scenario; returns the per-thread results and the stats.
fn run_one(
    p: &Prepared,
    sanitized: bool,
    schedule: Option<u64>,
) -> Result<(String, fearless_runtime::Stats), String> {
    run_one_rec(p, sanitized, schedule, &mut Recorder::new(false))
}

fn run_one_rec(
    p: &Prepared,
    sanitized: bool,
    schedule: Option<u64>,
    rec: &mut Recorder,
) -> Result<(String, fearless_runtime::Stats), String> {
    rec.enter("runtime.machine");
    let config = MachineConfig {
        sanitize_domination: sanitized && p.sanitize,
        fuel: Some(FUEL),
        ..MachineConfig::default()
    };
    let mut m = Machine::from_compiled(p.program.clone(), config);
    if sanitized {
        m.set_flow_index(p.index.clone());
    }
    if let Some(seed) = schedule {
        m.set_schedule(Box::new(SeededRandom::new(seed)));
    }
    let mut spawned = Ok(());
    for (func, args) in &p.spawns {
        let values = args.iter().map(|n| Value::Int(*n)).collect();
        if let Err(e) = m.spawn(func, values) {
            spawned = Err(format!("{}: spawn {func}: {e}", p.name));
            break;
        }
    }
    rec.exit();
    spawned?;
    rec.enter("runtime.run");
    let ran = m.run();
    rec.exit();
    ran.map_err(|e| format!("{}: {e}", p.name))?;
    let mut results = String::new();
    for tid in 0..m.thread_count() {
        match m.thread(tid).status() {
            ThreadStatus::Done(v) => results.push_str(&format!("t{tid}={v};")),
            other => results.push_str(&format!("t{tid}={other:?};")),
        }
    }
    Ok((results, *m.stats()))
}

/// One sweep over every scenario; returns its time in ms.
pub fn sweep(
    ps: &[Prepared],
    sanitized: bool,
    seed: u64,
    index: u64,
    rec: &mut Recorder,
    col: &mut Collector,
) -> f64 {
    rec.enter(if sanitized {
        "op.sanitized"
    } else {
        "op.plain"
    });
    let t = Instant::now();
    let results: Vec<_> = ps
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let seed = plan::schedule_seed(seed, index, i as u64);
            run_one_rec(p, sanitized, Some(seed), rec)
        })
        .collect();
    let ms = ms_since(t);
    rec.exit();
    let mut total = fearless_runtime::Stats::default();
    for (p, r) in ps.iter().zip(results) {
        match r {
            Ok((results, st)) => {
                let ok = st.reservation_failures == 0 && results == p.reference;
                col.check(ok, || {
                    format!(
                        "{} sweep {index}: {} reservation failure(s), results {results} vs reference {}",
                        p.name, st.reservation_failures, p.reference
                    )
                });
                total.steps += st.steps;
                total.sanitize_checks += st.sanitize_checks;
                total.sanitize_walks += st.sanitize_walks;
                total.sanitize_partial_walks += st.sanitize_partial_walks;
                total.sanitize_skipped += st.sanitize_skipped;
                total.disconnect_visited += st.disconnect_visited;
            }
            Err(e) => col.check(false, || format!("sweep {index}: {e}")),
        }
    }
    if sanitized {
        rec.add("runtime.steps", total.steps as f64);
        rec.add("runtime.sanitize_checks", total.sanitize_checks as f64);
        rec.add("runtime.sanitize_walks", total.sanitize_walks as f64);
        rec.add(
            "runtime.sanitize_partial_walks",
            total.sanitize_partial_walks as f64,
        );
        rec.add("runtime.sanitize_skipped", total.sanitize_skipped as f64);
        rec.add(
            "runtime.disconnect_visited",
            total.disconnect_visited as f64,
        );
        let considered =
            total.sanitize_walks + total.sanitize_partial_walks + total.sanitize_skipped;
        rec.add(
            "runtime.sanitize_skip_ratio",
            stats::ratio(total.sanitize_skipped as f64, considered as f64),
        );
    }
    ms
}

/// Runs the workload: sanitized and plain sweeps alternate until the
/// budget is spent.
pub fn run(cfg: &Config, col: &mut Collector, rec: &mut Recorder) -> Result<f64, String> {
    let (ps, setup_s) = crate::timed_setups(0.0, |_| setup(), drop)?;
    let (mut safe, mut local, mut unknown) = (0, 0, 0);
    for p in &ps {
        let flow = fearless_flow::analyze_compiled(&p.program);
        let c = flow.counts();
        safe += c.0;
        local += c.1;
        unknown += c.2;
    }
    col.set("flow.safe_steps", safe as f64);
    col.set("flow.region_local_steps", local as f64);
    col.set("flow.unknown_steps", unknown as f64);
    let mut off = Recorder::new(false);
    let mut cal = crate::Calibration::start(col, 0.0);
    let budget = cfg.seconds * 1e3;
    let mut spent = 0.0;
    let mut i = 0u64;
    while i == 0 || spent < budget {
        for sanitized in [i.is_multiple_of(2), !i.is_multiple_of(2)] {
            let kind = if sanitized { "sanitized" } else { "plain" };
            let ms = sweep(&ps, sanitized, cfg.seed, i, &mut off, col);
            cal.record(col, kind, ms);
            spent += ms;
            if rec.is_on() {
                let ms = sweep(&ps, sanitized, cfg.seed, i, rec, col);
                col.sample(kind, ms, true);
                spent += ms;
            }
        }
        i += 1;
    }
    cal.flush(col);
    col.set("run_sanitized_ms", stats::median(&col.samples["sanitized"]));
    col.set("run_plain_ms", stats::median(&col.samples["plain"]));
    Ok(setup_s)
}
