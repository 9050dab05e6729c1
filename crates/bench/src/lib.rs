//! # fearless-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md's per-experiment index E1–E8). Each
//! experiment has a pure data function here and an entry in the
//! `experiments` binary that prints the table the paper reports.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use fearless_core::CheckerOptions;
use fearless_runtime::{DisconnectStrategy, Machine, MachineConfig, RuntimeError, Value};

pub use fearless_baselines::{remove_tail_writes, render_table1, table1};

/// E2: wall-clock time to check (and optionally verify) one corpus entry.
#[derive(Clone, Debug)]
pub struct CheckTiming {
    /// Corpus entry name.
    pub name: &'static str,
    /// Lines of surface code.
    pub loc: usize,
    /// Functions checked.
    pub functions: usize,
    /// Derivation nodes produced.
    pub nodes: usize,
    /// Checking time.
    pub check: Duration,
    /// Independent verification time.
    pub verify: Duration,
}

/// Runs E2 over the accepted corpus.
pub fn checker_speed() -> Vec<CheckTiming> {
    let opts = CheckerOptions::default();
    let mut out = Vec::new();
    for entry in fearless_corpus::accepted_entries() {
        let program = entry.parse();
        let start = Instant::now();
        let checked = fearless_core::check_program(&program, &opts)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let check = start.elapsed();
        let start = Instant::now();
        fearless_verify::verify_program(&checked).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let verify = start.elapsed();
        out.push(CheckTiming {
            name: entry.name,
            loc: entry
                .source
                .lines()
                .filter(|l| !l.trim().is_empty())
                .count(),
            functions: checked.derivations.len(),
            nodes: checked.total_nodes(),
            check,
            verify,
        });
    }
    out
}

/// Renders the E2 table.
pub fn render_checker_speed() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>5} {:>6} {:>7} {:>12} {:>12}",
        "program", "loc", "funcs", "nodes", "check", "verify"
    );
    for t in checker_speed() {
        let _ = writeln!(
            out,
            "{:<18} {:>5} {:>6} {:>7} {:>10.2?} {:>10.2?}",
            t.name, t.loc, t.functions, t.nodes, t.check, t.verify
        );
    }
    out
}

/// E3: cost of one `if disconnected` tail-detach at list length `n`.
#[derive(Clone, Copy, Debug)]
pub struct DisconnectCost {
    /// Circular list length.
    pub n: u64,
    /// Objects visited by the efficient §5.2 check.
    pub efficient_visited: u64,
    /// Objects visited by the naive full-traversal semantics.
    pub naive_visited: u64,
}

/// Measures E3 for one list length.
///
/// # Panics
///
/// Panics on corpus/runtime bugs.
pub fn disconnect_cost(n: u64) -> DisconnectCost {
    let program = fearless_corpus::dll::entry().parse();
    let run = |strategy: DisconnectStrategy| -> u64 {
        let mut m = Machine::with_config(
            &program,
            MachineConfig {
                strategy,
                ..MachineConfig::default()
            },
        )
        .expect("compiles");
        let l = m
            .call("dll_make", vec![Value::Int(n as i64)])
            .expect("runs");
        let before = m.stats().disconnect_visited;
        m.call("dll_remove_tail", vec![l]).expect("runs");
        m.stats().disconnect_visited - before
    };
    DisconnectCost {
        n,
        efficient_visited: run(DisconnectStrategy::Efficient),
        naive_visited: run(DisconnectStrategy::Naive),
    }
}

/// Renders the E3 sweep.
pub fn render_disconnect(lengths: &[u64]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>18} {:>14}",
        "length", "efficient visits", "naive visits"
    );
    for &n in lengths {
        let c = disconnect_cost(n);
        let _ = writeln!(
            out,
            "{:>8} {:>18} {:>14}",
            c.n, c.efficient_visited, c.naive_visited
        );
    }
    out
}

/// Renders the E4 sweep (remove-tail write counts).
pub fn render_remove_tail_writes(lengths: &[u64]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>16} {:>18}",
        "length", "tempered writes", "destructive writes"
    );
    for &n in lengths {
        let w = remove_tail_writes(n);
        let _ = writeln!(out, "{:>8} {:>16} {:>18}", w.n, w.tempered, w.destructive);
    }
    out
}

/// E5: checking time for a divergent join of width `m`, with and without
/// the liveness oracle.
#[derive(Clone, Debug)]
pub struct SearchTiming {
    /// Join divergence width.
    pub m: usize,
    /// Time with the §5.1 liveness oracle.
    pub with_oracle: Duration,
    /// Time (or failure) with pure backtracking search (§4.6).
    pub without_oracle: Result<Duration, String>,
    /// Search states visited without the oracle.
    pub search_nodes: usize,
}

/// Measures E5 for one width. `budget` bounds the search.
pub fn search_timing(m: usize, budget: usize) -> SearchTiming {
    let src = fearless_corpus::pathological::divergent_join(m);
    let program = fearless_corpus::pathological::parse(&src);

    let start = Instant::now();
    fearless_core::check_program(&program, &CheckerOptions::default())
        .unwrap_or_else(|e| panic!("oracle m={m}: {e}"));
    let with_oracle = start.elapsed();

    let mut opts = CheckerOptions::default().without_oracle();
    opts.search_node_budget = budget;
    let start = Instant::now();
    let (without_oracle, search_nodes) = match fearless_core::check_program(&program, &opts) {
        Ok(checked) => (Ok(start.elapsed()), checked.total_search_nodes()),
        Err(e) => (Err(format!("{e}")), budget),
    };
    SearchTiming {
        m,
        with_oracle,
        without_oracle,
        search_nodes,
    }
}

/// Renders the E5 sweep.
pub fn render_search(ms: &[usize], budget: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>3} {:>14} {:>20} {:>16}",
        "m", "with oracle", "without oracle", "states visited"
    );
    for &m in ms {
        let t = search_timing(m, budget);
        let without = match t.without_oracle {
            Ok(d) => format!("{d:.2?}"),
            Err(_) => format!("budget ({budget}) exhausted"),
        };
        let _ = writeln!(
            out,
            "{:>3} {:>12.2?} {:>20} {:>16}",
            t.m, t.with_oracle, without, t.search_nodes
        );
    }
    out
}

/// E6: interpreter steps/second with and without dynamic reservation
/// checks.
#[derive(Clone, Copy, Debug)]
pub struct ReservationOverhead {
    /// Instructions executed per run.
    pub steps: u64,
    /// Time with reservation checks on.
    pub checked: Duration,
    /// Time with checks erased.
    pub unchecked: Duration,
}

/// Measures E6 on the sll demo workload.
///
/// # Panics
///
/// Panics on corpus/runtime bugs.
pub fn reservation_overhead(n: i64) -> ReservationOverhead {
    let program = fearless_corpus::sll::entry().parse();
    let run = |check: bool| -> (u64, Duration) {
        let mut m = Machine::with_config(
            &program,
            MachineConfig {
                check_reservations: check,
                ..MachineConfig::default()
            },
        )
        .expect("compiles");
        let start = Instant::now();
        m.call("sll_demo", vec![Value::Int(n)]).expect("runs");
        (m.stats().steps, start.elapsed())
    };
    let (steps, checked) = run(true);
    let (_, unchecked) = run(false);
    ReservationOverhead {
        steps,
        checked,
        unchecked,
    }
}

/// E7: message-passing throughput for one pipeline configuration.
#[derive(Clone, Copy, Debug)]
pub struct ConcurrencyRun {
    /// Messages exchanged.
    pub messages: u64,
    /// Worker threads (producer/consumer pairs).
    pub pairs: usize,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Reservation faults observed (must be zero).
    pub faults: u64,
}

/// Runs E7: `pairs` producer/consumer pairs exchanging `per` messages
/// each under a seeded random schedule.
///
/// # Errors
///
/// Propagates machine errors (other than the asserted absence of
/// reservation faults).
pub fn concurrency_run(pairs: usize, per: i64, seed: u64) -> Result<ConcurrencyRun, RuntimeError> {
    let program = fearless_corpus::msg::pipeline_entry().parse();
    let mut m = Machine::with_config(
        &program,
        MachineConfig {
            random_schedule: true,
            seed,
            ..MachineConfig::default()
        },
    )
    .expect("compiles");
    for _ in 0..pairs {
        m.spawn("producer", vec![Value::Int(per)])?;
        m.spawn("consumer", vec![Value::Int(per)])?;
    }
    let start = Instant::now();
    m.run()?;
    Ok(ConcurrencyRun {
        messages: m.stats().sends,
        pairs,
        elapsed: start.elapsed(),
        faults: 0, // a fault would have surfaced as RuntimeError above
    })
}

/// Renders the E7 sweep.
pub fn render_concurrency(pair_counts: &[usize], per: i64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>12} {:>14} {:>7}",
        "pairs", "messages", "elapsed", "msgs/sec", "faults"
    );
    for &pairs in pair_counts {
        match concurrency_run(pairs, per, 42) {
            Ok(r) => {
                let rate = r.messages as f64 / r.elapsed.as_secs_f64();
                let _ = writeln!(
                    out,
                    "{:>6} {:>10} {:>10.2?} {:>14.0} {:>7}",
                    r.pairs, r.messages, r.elapsed, rate, r.faults
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{pairs:>6} ERROR: {e}");
            }
        }
    }
    out
}

/// E8: the Fig. 4 bug manifests dynamically; Fig. 5 does not.
#[derive(Clone, Copy, Debug)]
pub struct Figure4Outcome {
    /// Fig. 4 statically rejected by the tempered checker.
    pub fig4_rejected: bool,
    /// Fig. 4, run unchecked on a size-1 list, faults the reservations.
    pub fig4_faults: bool,
    /// Fig. 5 accepted and dynamically clean.
    pub fig5_clean: bool,
}

/// Runs E8.
///
/// # Panics
///
/// Panics on corpus bugs.
pub fn figure4_outcome() -> Figure4Outcome {
    let fig4_rejected = fearless_corpus::dll::figure_4_broken_entry()
        .check(&CheckerOptions::default())
        .is_err();

    let src = format!(
        "{}{}
         def broken_remove_tail(l : dll) : data? {{
           let some(hd) = l.hd in {{
             let tail = hd.prev;
             tail.prev.next = hd;
             hd.prev = tail.prev;
             some(tail.payload)
           }} else {{ none }}
         }}
         def victim() : int {{
           let l = dll_make(1);
           let m = broken_remove_tail(l);
           let some(d) = m in {{ send(d); }} else {{ unit }};
           dll_sum(l, 1)
         }}
         def accomplice() : int {{ recv(data).value }}",
        fearless_corpus::STRUCTS,
        fearless_corpus::dll::DLL_FUNCS
    );
    let program = fearless_syntax::parse_program(&src).expect("parses");
    let mut m = Machine::new(&program).expect("compiles");
    m.spawn("victim", vec![]).expect("spawns");
    m.spawn("accomplice", vec![]).expect("spawns");
    let fig4_faults = matches!(m.run(), Err(RuntimeError::ReservationFault { .. }));

    let src5 = format!(
        "{}{}
         def victim() : int {{
           let l = dll_make(1);
           let m = dll_remove_tail(l);
           let some(d) = m in {{ send(d); }} else {{ unit }};
           dll_sum(l, 0)
         }}
         def accomplice() : int {{ recv(data).value }}",
        fearless_corpus::STRUCTS,
        fearless_corpus::dll::DLL_FUNCS
    );
    let program5 = fearless_syntax::parse_program(&src5).expect("parses");
    let mut m5 = Machine::new(&program5).expect("compiles");
    m5.spawn("victim", vec![]).expect("spawns");
    m5.spawn("accomplice", vec![]).expect("spawns");
    let fig5_clean = m5.run().is_ok();

    Figure4Outcome {
        fig4_rejected,
        fig4_faults,
        fig5_clean,
    }
}

/// E13 measurements: the synthesized-corpus scaling experiment — the
/// `fearless-incr` driver over a ≥1000-function `fearless-synth`
/// program, serial vs. parallel vs. cold/warm cached, with the batch
/// plan's deterministic cost model and the journal-identity check.
#[derive(Debug, Clone)]
pub struct SynthSnapshot {
    /// Synthesizer seed.
    pub seed: u64,
    /// Generated definitions requested.
    pub generated: u64,
    /// Total functions in the program (prelude + generated).
    pub total_functions: u64,
    /// Worker threads used for the parallel run.
    pub jobs: usize,
    /// Batches issued to the pool.
    pub sched_batches: u64,
    /// Cost model: summed derivation nodes over all jobs.
    pub model_total_work: u64,
    /// Cost model: simulated makespan of the batched schedule on
    /// `jobs` workers (derivation nodes, no barriers).
    pub model_makespan: u64,
    /// Cost model: `100 · total_work / makespan` (200 ⇔ 2.00x). This is
    /// the machine-independent parallel-speedup figure the bench gate
    /// enforces (≥ 200); wall clock stays `_nondet`-tagged because CI
    /// runners may be single-core, where wall parallel speedup is
    /// unmeasurable by construction.
    pub model_speedup_x100: u64,
    /// Cores this machine offers (`std::thread::available_parallelism`).
    pub available_parallelism: usize,
    /// The cost model re-run on `min(jobs, available_parallelism)`
    /// workers (x100): the speedup the measured wall times can show
    /// here at best. Printed only, never written to the BENCH document.
    pub core_model_speedup_x100: u64,
    /// Whether the cold, warm, serial, and parallel
    /// journals were byte-identical (must stay true).
    pub journal_identical: bool,
    /// Journal entries (identical across the four runs when
    /// `journal_identical`).
    pub journal_entries: u64,
    /// Serial uncached wall time, micros.
    pub serial_micros: u128,
    /// Parallel uncached wall time, micros.
    pub parallel_micros: u128,
    /// Cold cache-filling wall time, micros.
    pub cold_micros: u128,
    /// Warm all-hits wall time, micros.
    pub warm_micros: u128,
}

/// E13: synthesizes a `generated`-function program (seed 42), runs the
/// incremental driver four ways (serial, parallel, cold-cached,
/// warm-cached) with journaling, and extracts the deterministic
/// schedule shape + cost model from the parallel run.
pub fn synth_snapshot(jobs: usize, generated: usize) -> SynthSnapshot {
    use fearless_incr::{check_units, sched, DiskCache};
    use fearless_trace::{Journal, MemorySink, Tracer};
    use std::time::Instant;

    let opts_synth = fearless_synth::SynthOptions {
        seed: 42,
        functions: generated,
        ..fearless_synth::SynthOptions::default()
    };
    let program = fearless_synth::synthesize_program(&opts_synth);
    let total_functions = program.funcs.len() as u64;
    let units = vec![("synth".to_string(), program)];
    let opts = CheckerOptions::default();

    let journaled = |jobs: usize, cache: Option<&mut DiskCache>| {
        let mut sink = MemorySink::new();
        let t = Instant::now();
        let run = check_units(&units, &opts, jobs, cache, &mut Tracer::new(&mut sink));
        let micros = t.elapsed().as_micros();
        let journal = Journal::from_check_sink(&sink);
        (run, journal.entries.len() as u64, journal.render(), micros)
    };

    let (_serial_run, journal_entries, serial_journal, serial_micros) = journaled(1, None);
    let (parallel_run, _, parallel_journal, parallel_micros) = journaled(jobs, None);
    let mut cache = DiskCache::ephemeral();
    let (_, _, cold_journal, cold_micros) = journaled(1, Some(&mut cache));
    let (_, _, warm_journal, warm_micros) = journaled(1, Some(&mut cache));

    let journal_identical = serial_journal == parallel_journal
        && serial_journal == cold_journal
        && serial_journal == warm_journal;

    // Cost each job with its measured derivation nodes and simulate the
    // parallel plan. Deterministic: schedule and node counts are both
    // pure functions of the program.
    let model_on = |workers: usize| {
        sched::cost_model(
            &parallel_run.schedule,
            workers,
            &mut |ui, fi| match &parallel_run.units[ui].functions[fi].outcome {
                fearless_incr::CachedOutcome::Ok { nodes, .. } => *nodes,
                fearless_incr::CachedOutcome::Err { .. } => 1,
            },
        )
    };
    let model = model_on(jobs);
    let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let core_model = model_on(jobs.min(available_parallelism));

    SynthSnapshot {
        seed: opts_synth.seed,
        generated: generated as u64,
        total_functions,
        jobs,
        sched_batches: parallel_run.schedule.stats.batches as u64,
        model_total_work: model.total_work,
        model_makespan: model.makespan,
        model_speedup_x100: model.speedup_x100,
        available_parallelism,
        core_model_speedup_x100: core_model.speedup_x100,
        journal_identical,
        journal_entries,
        serial_micros,
        parallel_micros,
        cold_micros,
        warm_micros,
    }
}

/// Renders a [`SynthSnapshot`] as the `fearless-synth-bench/1` JSON
/// document the `experiments` binary writes to `BENCH_synth.json`.
pub fn render_synth_snapshot(s: &SynthSnapshot) -> String {
    use fearless_trace::Json;
    Json::obj([
        ("schema", Json::str("fearless-synth-bench/1")),
        ("seed", Json::U64(s.seed)),
        ("generated_functions", Json::U64(s.generated)),
        ("total_functions", Json::U64(s.total_functions)),
        ("jobs", Json::U64(s.jobs as u64)),
        ("sched_batches", Json::U64(s.sched_batches)),
        ("model_total_work", Json::U64(s.model_total_work)),
        ("model_makespan", Json::U64(s.model_makespan)),
        ("model_speedup_x100", Json::U64(s.model_speedup_x100)),
        ("journal_identical", Json::Bool(s.journal_identical)),
        ("journal_entries", Json::U64(s.journal_entries)),
        // Wall-clock fields carry the `_nondet` suffix: bench-diff
        // reports them without gating and strip-nondet removes them.
        ("serial_micros_nondet", Json::U64(s.serial_micros as u64)),
        (
            "parallel_micros_nondet",
            Json::U64(s.parallel_micros as u64),
        ),
        ("cold_micros_nondet", Json::U64(s.cold_micros as u64)),
        ("warm_micros_nondet", Json::U64(s.warm_micros as u64)),
    ])
    .render()
}

/// E11 measurements: the chaos layer's throughput and the per-step
/// domination-sanitizer's overhead, both under full fault injection.
/// Oracle counters are exact and deterministic; the timings (and hence
/// `schedules/sec`) are wall-clock.
#[derive(Debug, Clone)]
pub struct ChaosSnapshot {
    /// Scenarios swept.
    pub scenarios: u64,
    /// Schedule seeds per scenario.
    pub seeds: u64,
    /// Total machine runs (baseline + seeds, sanitized + unsanitized).
    pub runs: u64,
    /// Oracle violations across both sweeps (must be 0).
    pub violations: u64,
    /// Rendezvous deliveries the adversarial schedules deferred.
    pub deferrals: u64,
    /// Deferred deliveries the machine force-redelivered.
    pub forced_deliveries: u64,
    /// Full sweep with the per-step sanitizer walking the heap, micros.
    pub sanitized_micros: u128,
    /// The sanitized sweep with the static flow index installed —
    /// `Safe` steps skip the walk, `RegionLocal` steps re-check only
    /// the touched neighborhood — micros.
    pub sanitized_flow_micros: u128,
    /// The identical sweep without the sanitizer, micros.
    pub unsanitized_micros: u128,
    /// Walks skipped outright during the flow-amortized sweep.
    pub sanitize_skipped: u64,
    /// Full walks downgraded to partial walks during that sweep.
    pub sanitize_partial_walks: u64,
}

/// E11: runs the full chaos scenario sweep three times — sanitizer on,
/// sanitizer amortized by the static flow index, and sanitizer off —
/// under all faults, recording oracle counters and wall time.
pub fn chaos_snapshot(seeds: u64) -> ChaosSnapshot {
    use fearless_chaos::{run_chaos, ChaosOptions};
    use std::time::Instant;

    let base = ChaosOptions {
        seeds,
        ..ChaosOptions::default()
    };
    let t = Instant::now();
    let sanitized = run_chaos(&base);
    let sanitized_micros = t.elapsed().as_micros();
    let t = Instant::now();
    let flow = run_chaos(&ChaosOptions {
        flow_facts: true,
        ..base
    });
    let sanitized_flow_micros = t.elapsed().as_micros();
    let t = Instant::now();
    let plain = run_chaos(&ChaosOptions {
        sanitize: false,
        ..base
    });
    let unsanitized_micros = t.elapsed().as_micros();

    let scenarios = sanitized.scenarios.len() as u64;
    ChaosSnapshot {
        scenarios,
        seeds,
        runs: 3 * scenarios * (seeds + 1),
        violations: (sanitized.violation_count() + flow.violation_count() + plain.violation_count())
            as u64,
        deferrals: sanitized.scenarios.iter().map(|s| s.deferrals).sum(),
        forced_deliveries: sanitized
            .scenarios
            .iter()
            .map(|s| s.forced_deliveries)
            .sum(),
        sanitized_micros,
        sanitized_flow_micros,
        unsanitized_micros,
        sanitize_skipped: flow.scenarios.iter().map(|s| s.sanitize_skipped).sum(),
        sanitize_partial_walks: flow
            .scenarios
            .iter()
            .map(|s| s.sanitize_partial_walks)
            .sum(),
    }
}

/// Renders a [`ChaosSnapshot`] as the `fearless-chaos-bench/1` JSON
/// document the `experiments` binary writes to `BENCH_chaos.json`.
pub fn render_chaos_snapshot(s: &ChaosSnapshot) -> String {
    use fearless_trace::Json;
    let per_sweep = s.runs / 3;
    let schedules_per_sec = |micros: u128| {
        (per_sweep as u128 * 1_000_000)
            .checked_div(micros)
            .unwrap_or(0) as u64
    };
    Json::obj([
        ("schema", Json::str("fearless-chaos-bench/1")),
        ("scenarios", Json::U64(s.scenarios)),
        ("seeds", Json::U64(s.seeds)),
        ("runs", Json::U64(s.runs)),
        ("violations", Json::U64(s.violations)),
        ("deferrals", Json::U64(s.deferrals)),
        ("forced_deliveries", Json::U64(s.forced_deliveries)),
        // Timings and throughputs are wall-clock — tagged `_nondet` so
        // the bench-diff gate reports them without failing on them.
        (
            "sanitized_micros_nondet",
            Json::U64(s.sanitized_micros as u64),
        ),
        (
            "sanitized_flow_micros_nondet",
            Json::U64(s.sanitized_flow_micros as u64),
        ),
        (
            "unsanitized_micros_nondet",
            Json::U64(s.unsanitized_micros as u64),
        ),
        ("sanitize_skipped", Json::U64(s.sanitize_skipped)),
        (
            "sanitize_partial_walks",
            Json::U64(s.sanitize_partial_walks),
        ),
        (
            "schedules_per_sec_sanitized_nondet",
            Json::U64(schedules_per_sec(s.sanitized_micros)),
        ),
        (
            "schedules_per_sec_sanitized_flow_nondet",
            Json::U64(schedules_per_sec(s.sanitized_flow_micros)),
        ),
        (
            "schedules_per_sec_nondet",
            Json::U64(schedules_per_sec(s.unsanitized_micros)),
        ),
    ])
    .render()
}

/// E12: exercises the `fearless-trace` telemetry end to end — a full
/// corpus check journaled through the replayed trace, plus the chaos scenario
/// corpus run deterministically with per-machine lanes — and renders
/// the journal sizes, lane totals, and merged histogram shapes as the
/// `fearless-obs-bench/1` document (`BENCH_obs.json`). Every counter
/// is deterministic except the single `_nondet`-tagged wall time, so
/// the document doubles as the `bench-diff` CI baseline.
pub fn obs_snapshot() -> String {
    use fearless_incr::check_units;
    use fearless_runtime::{DisconnectStrategy, Machine, MachineConfig};
    use fearless_trace::{HistogramSet, Journal, Json, MemorySink, Tracer};
    use std::time::Instant;

    let t = Instant::now();

    // Checking side: one serial corpus pass, journaled.
    let units: Vec<(String, fearless_syntax::Program)> = fearless_corpus::all_entries()
        .iter()
        .map(|e| {
            (
                e.name.to_string(),
                fearless_syntax::parse_program(&e.source)
                    .unwrap_or_else(|err| panic!("{}: {err:?}", e.name)),
            )
        })
        .collect();
    let mut sink = MemorySink::new();
    check_units(
        &units,
        &CheckerOptions::default(),
        1,
        None,
        &mut Tracer::new(&mut sink),
    );
    let check_journal = Journal::from_check_sink(&sink);

    // Runtime side: the chaos scenario corpus under the default
    // deterministic schedule, flow-amortized sanitizing where legal.
    let mut scenarios = Vec::new();
    let mut run_hists = HistogramSet::new();
    let mut run_entries = 0u64;
    for scenario in fearless_chaos::all_scenarios() {
        let config = MachineConfig {
            check_reservations: true,
            strategy: DisconnectStrategy::Differential,
            sanitize_domination: scenario.sanitize,
            ..MachineConfig::default()
        };
        let mut machine = Machine::from_compiled(scenario.program.clone(), config);
        machine.set_flow_index(fearless_flow::analyze_compiled(&scenario.program).index());
        machine.set_trace_sink(Box::new(MemorySink::new()));
        for sp in &scenario.spawns {
            machine
                .spawn(&sp.func, sp.values())
                .unwrap_or_else(|e| panic!("{}: spawn {}: {e}", scenario.name, sp.func));
        }
        machine
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        let run_sink = *machine
            .take_trace_sink()
            .expect("sink installed above")
            .into_any()
            .downcast::<MemorySink>()
            .expect("sink is a MemorySink");
        let journal = fearless_runtime::run_journal(&run_sink, machine.lanes(), machine.stats());
        run_entries += journal.entries.len() as u64;
        run_hists.merge(&journal.histograms);
        let stats = machine.stats();
        scenarios.push(Json::obj([
            ("name", Json::str(scenario.name)),
            ("journal_entries", Json::U64(journal.entries.len() as u64)),
            ("machines", Json::U64(stats.machines)),
            ("steps", Json::U64(stats.steps)),
            ("sends", Json::U64(stats.sends)),
            ("peak_mailbox_depth", Json::U64(stats.peak_mailbox_depth)),
            ("sanitize_skipped", Json::U64(stats.sanitize_skipped)),
        ]));
    }

    let micros = t.elapsed().as_micros();
    Json::obj([
        ("schema", Json::str("fearless-obs-bench/1")),
        (
            "check",
            Json::obj([
                ("units", Json::U64(units.len() as u64)),
                (
                    "journal_entries",
                    Json::U64(check_journal.entries.len() as u64),
                ),
                ("histograms", check_journal.histograms.to_json_value()),
            ]),
        ),
        (
            "run",
            Json::obj([
                ("journal_entries", Json::U64(run_entries)),
                ("scenarios", Json::Arr(scenarios)),
                ("histograms", run_hists.to_json_value()),
            ]),
        ),
        (
            "snapshot_micros_nondet",
            Json::U64(micros.min(u128::from(u64::MAX)) as u64),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_efficient_is_constant_naive_is_linear() {
        let small = disconnect_cost(8);
        let large = disconnect_cost(256);
        assert!(large.efficient_visited <= small.efficient_visited + 2);
        assert!(large.naive_visited >= 32 * small.naive_visited / 2);
    }

    #[test]
    fn e5_oracle_beats_search() {
        let t = search_timing(2, 500_000);
        let without = t.without_oracle.expect("m=2 should be solvable");
        assert!(
            without >= t.with_oracle,
            "search should not be faster than the oracle: {without:?} vs {:?}",
            t.with_oracle
        );
    }

    #[test]
    fn e6_unchecked_is_not_slower() {
        // Smoke test only — timings are noisy in CI; just check both run.
        let o = reservation_overhead(64);
        assert!(o.steps > 0);
    }

    #[test]
    fn e7_runs_clean_across_seeds() {
        for seed in 0..3 {
            let r = concurrency_run(2, 16, seed).expect("no faults");
            assert_eq!(r.messages, 32);
        }
    }

    #[test]
    fn e8_fig4_rejected_and_faults() {
        let o = figure4_outcome();
        assert!(o.fig4_rejected);
        assert!(o.fig4_faults);
        assert!(o.fig5_clean);
    }

    #[test]
    fn e11_chaos_sweep_is_clean_and_exercises_faults() {
        let s = chaos_snapshot(3);
        assert_eq!(s.violations, 0);
        assert!(s.deferrals > 0, "fault injection never fired");
        assert!(s.forced_deliveries > 0, "redelivery never exercised");
        assert_eq!(s.runs, 3 * s.scenarios * 4);
        assert!(
            s.sanitize_skipped > 0,
            "the flow sweep never skipped a walk"
        );
        let json = render_chaos_snapshot(&s);
        assert!(json.contains("\"fearless-chaos-bench/1\""), "{json}");
        assert!(json.contains("\"schedules_per_sec_nondet\""), "{json}");
        assert!(json.contains("\"sanitized_flow_micros_nondet\""), "{json}");
    }

    #[test]
    fn e12_obs_snapshot_is_deterministic_modulo_nondet() {
        let strip = |doc: &str| {
            let parsed = fearless_trace::parse_json(doc).expect("snapshot parses");
            fearless_trace::strip_nondet(&parsed).render()
        };
        let a = obs_snapshot();
        let b = obs_snapshot();
        assert_eq!(strip(&a), strip(&b), "obs counters must be deterministic");
        assert!(a.contains("\"fearless-obs-bench/1\""), "{a}");
        assert!(a.contains("\"snapshot_micros_nondet\""), "{a}");
        // The merged run histograms must not be empty — the scenario
        // sweep sends messages, so mailbox-depth samples exist.
        assert!(a.contains("\"run.mailbox_depth\""), "{a}");
    }

    #[test]
    fn wall_clock_bench_keys_all_carry_the_nondet_tag() {
        for doc in [
            render_synth_snapshot(&synth_snapshot(2, 20)),
            render_chaos_snapshot(&chaos_snapshot(1)),
            obs_snapshot(),
        ] {
            for line in doc.lines() {
                let timing = line.contains("micros") || line.contains("per_sec");
                assert_eq!(
                    timing,
                    line.contains("_nondet"),
                    "wall-clock keys and only wall-clock keys are tagged: {line}"
                );
            }
        }
    }
}
