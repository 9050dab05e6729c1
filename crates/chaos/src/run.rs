//! The chaos driver: N seeded adversarial runs per scenario, checked
//! against three oracles —
//!
//! 1. **No fault may fire**: reservation faults (Theorems 6.1/6.2),
//!    domination-sanitizer violations, and deadlocks are all bugs in a
//!    well-typed scenario, no matter the schedule.
//! 2. **Differential disconnection**: every `if disconnected` runs both
//!    the efficient §5.2 check and the naive reference semantics
//!    ([`DisconnectStrategy::Differential`]); an unsound disagreement
//!    aborts the run.
//! 3. **Confluence**: per-thread results must equal the round-robin
//!    baseline's — message delays, reorders, and preemption may change
//!    the interleaving but never the outcome.
//!
//! Each seed's run is a deterministic function of (program, config,
//! seed, faults), so any violation reproduces from its seed alone, and
//! re-running a seed yields byte-identical stats digests.

use fearless_incr::checksum_hex;
use fearless_runtime::{DisconnectStrategy, FlowIndex, Machine, MachineConfig, ThreadStatus};
use fearless_trace::Json;

use crate::faults::FaultSpec;
use crate::scenario::{all_scenarios, Scenario, Spawn};
use crate::schedule::ChaosSchedule;

/// Chaos-run configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosOptions {
    /// Seeds to explore per scenario (seed values `0..seeds`).
    pub seeds: u64,
    /// Fault vocabulary the schedules may exhibit.
    pub faults: FaultSpec,
    /// Step-fuel budget per run (turns runaway schedules into clean
    /// [`fearless_runtime::RuntimeError::FuelExhausted`] violations).
    pub fuel: u64,
    /// Walk the heap after every step asserting tempered domination.
    pub sanitize: bool,
    /// Install the `fearless-flow` static step-safety index so the
    /// sanitizer skips `Safe` steps and partial-walks `RegionLocal`
    /// ones (the amortized sanitizer).
    pub flow_facts: bool,
    /// Shadow every skipped or partial check with a full walk and abort
    /// on disagreement (the differential soundness oracle for the flow
    /// classification; implies the cost of the full sanitizer).
    pub crosscheck: bool,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seeds: 20,
            faults: FaultSpec::all(),
            fuel: 2_000_000,
            sanitize: true,
            flow_facts: false,
            crosscheck: false,
        }
    }
}

/// One scenario's chaos outcome.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Digest of the round-robin baseline run.
    pub baseline_digest: String,
    /// Digest per seed, in seed order (`seed_digests[s]` is seed `s`).
    pub seed_digests: Vec<String>,
    /// Total rendezvous deliveries the schedules deferred.
    pub deferrals: u64,
    /// Deferred deliveries the machine force-redelivered.
    pub forced_deliveries: u64,
    /// Sanitizer walks skipped outright on statically `Safe` steps
    /// (always 0 without [`ChaosOptions::flow_facts`]).
    pub sanitize_skipped: u64,
    /// Full walks downgraded to touched-neighborhood re-checks on
    /// `RegionLocal` steps (always 0 without flow facts).
    pub sanitize_partial_walks: u64,
    /// Oracle violations, each tagged with its seed (empty = clean).
    pub violations: Vec<String>,
}

/// The whole run's outcome.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Fault spec explored.
    pub faults: String,
    /// Seeds per scenario.
    pub seeds: u64,
    /// Fuel budget per run.
    pub fuel: u64,
    /// Whether the domination sanitizer walked the heap each step.
    pub sanitize: bool,
    /// Whether the static flow index amortized the sanitizer.
    pub flow_facts: bool,
    /// Whether the differential soundness oracle shadowed every
    /// classified check with a full walk.
    pub crosscheck: bool,
    /// Per-scenario results.
    pub scenarios: Vec<ScenarioReport>,
}

impl ChaosReport {
    /// Whether every oracle held on every seed.
    pub fn ok(&self) -> bool {
        self.scenarios.iter().all(|s| s.violations.is_empty())
    }

    /// Total violations across scenarios.
    pub fn violation_count(&self) -> usize {
        self.scenarios.iter().map(|s| s.violations.len()).sum()
    }

    /// Deterministic JSON rendering (byte-identical for identical
    /// inputs — the CI determinism diff runs the harness twice and
    /// compares these bytes).
    pub fn to_json(&self) -> String {
        Json::obj([
            ("faults", Json::str(self.faults.clone())),
            ("seeds", Json::U64(self.seeds)),
            ("fuel", Json::U64(self.fuel)),
            ("sanitize", Json::Bool(self.sanitize)),
            ("flow_facts", Json::Bool(self.flow_facts)),
            ("crosscheck", Json::Bool(self.crosscheck)),
            (
                "scenarios",
                Json::Arr(
                    self.scenarios
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(s.name.clone())),
                                ("baseline", Json::str(s.baseline_digest.clone())),
                                (
                                    "seed_digests",
                                    Json::Arr(
                                        s.seed_digests
                                            .iter()
                                            .map(|d| Json::str(d.clone()))
                                            .collect(),
                                    ),
                                ),
                                ("deferrals", Json::U64(s.deferrals)),
                                ("forced_deliveries", Json::U64(s.forced_deliveries)),
                                ("sanitize_skipped", Json::U64(s.sanitize_skipped)),
                                (
                                    "sanitize_partial_walks",
                                    Json::U64(s.sanitize_partial_walks),
                                ),
                                (
                                    "violations",
                                    Json::Arr(
                                        s.violations.iter().map(|v| Json::str(v.clone())).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Human-readable summary table.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "chaos: {} seed(s)/scenario, faults [{}], fuel {}, sanitizer {}{}{}",
            self.seeds,
            self.faults,
            self.fuel,
            if self.sanitize { "on" } else { "off" },
            if self.flow_facts { " (flow facts)" } else { "" },
            if self.crosscheck { " (crosscheck)" } else { "" }
        );
        for s in &self.scenarios {
            let verdict = if s.violations.is_empty() {
                "ok".to_string()
            } else {
                format!("{} VIOLATION(S)", s.violations.len())
            };
            let mut line = format!(
                "  {:<16} {:>4} runs  {:>6} deferral(s)  {:>4} forced",
                s.name,
                s.seed_digests.len(),
                s.deferrals,
                s.forced_deliveries,
            );
            if self.flow_facts {
                let _ = write!(
                    line,
                    "  {:>8} skipped  {:>6} partial",
                    s.sanitize_skipped, s.sanitize_partial_walks
                );
            }
            let _ = writeln!(out, "{line}  {verdict}");
            for v in &s.violations {
                let _ = writeln!(out, "    - {v}");
            }
        }
        let _ = writeln!(
            out,
            "chaos: {}",
            if self.ok() {
                "all oracles held".to_string()
            } else {
                format!("{} violation(s)", self.violation_count())
            }
        );
        out
    }
}

fn machine_config(opts: &ChaosOptions, scenario: &Scenario) -> MachineConfig {
    MachineConfig {
        check_reservations: true,
        strategy: DisconnectStrategy::Differential,
        // The per-step sanitizer only applies where the scenario says it
        // is a valid oracle (see [`Scenario::sanitize`]): programs whose
        // tracked/invalidated windows legally suspend heap-edge
        // domination opt out.
        sanitize_domination: opts.sanitize && scenario.sanitize,
        fuel: Some(opts.fuel),
        ..MachineConfig::default()
    }
}

/// Runs `scenario` once under `schedule` (or the default round-robin
/// when `None`), returning the per-thread results rendering, the stats
/// digest, and the sanitizer's `(skipped, partial_walks)` counters, or
/// the error that aborted the run.
fn run_once(
    scenario: &Scenario,
    opts: &ChaosOptions,
    flow: Option<&FlowIndex>,
    schedule: Option<ChaosSchedule>,
) -> Result<(String, String, (u64, u64)), String> {
    let mut m = Machine::from_compiled(scenario.program.clone(), machine_config(opts, scenario));
    if let Some(index) = flow {
        m.set_flow_index(index.clone());
        m.set_flow_crosscheck(opts.crosscheck);
    }
    if let Some(s) = schedule {
        m.set_schedule(Box::new(s));
    }
    for sp in &scenario.spawns {
        m.spawn(&sp.func, sp.values())
            .map_err(|e| format!("spawn {}: {e}", sp.func))?;
    }
    m.run().map_err(|e| e.to_string())?;
    let mut results = String::new();
    for tid in 0..m.thread_count() {
        let r = match m.thread(tid).status() {
            ThreadStatus::Done(v) => format!("{v}"),
            other => format!("{other:?}"),
        };
        results.push_str(&format!("t{tid}={r};"));
    }
    let stats = m.stats();
    let digest = checksum_hex(&format!("{results}|{}", stats.to_json()));
    Ok((
        results,
        digest,
        (stats.sanitize_skipped, stats.sanitize_partial_walks),
    ))
}

/// Runs the full seed sweep for one scenario.
pub fn run_scenario(scenario: &Scenario, opts: &ChaosOptions) -> ScenarioReport {
    let mut report = ScenarioReport {
        name: scenario.name.to_string(),
        baseline_digest: String::new(),
        seed_digests: Vec::with_capacity(opts.seeds as usize),
        deferrals: 0,
        forced_deliveries: 0,
        sanitize_skipped: 0,
        sanitize_partial_walks: 0,
        violations: Vec::new(),
    };
    // The flow analysis is a pure function of the compiled program, so
    // one index serves the baseline and every seed.
    let flow = opts
        .flow_facts
        .then(|| fearless_flow::analyze_compiled(&scenario.program).index());
    let baseline = match run_once(scenario, opts, flow.as_ref(), None) {
        Ok(ok) => ok,
        Err(e) => {
            report.violations.push(format!("baseline: {e}"));
            return report;
        }
    };
    report.baseline_digest = baseline.1.clone();
    report.sanitize_skipped += baseline.2 .0;
    report.sanitize_partial_walks += baseline.2 .1;
    for seed in 0..opts.seeds {
        let schedule = ChaosSchedule::new(seed, opts.faults);
        let counters = schedule.counters();
        match run_once(scenario, opts, flow.as_ref(), Some(schedule)) {
            Ok((results, digest, (skipped, partial))) => {
                if results != baseline.0 {
                    report.violations.push(format!(
                        "seed {seed}: results diverged from baseline: {results} != {}",
                        baseline.0
                    ));
                }
                report.seed_digests.push(digest);
                report.sanitize_skipped += skipped;
                report.sanitize_partial_walks += partial;
            }
            Err(e) => {
                report.violations.push(format!("seed {seed}: {e}"));
                report.seed_digests.push("error".to_string());
            }
        }
        report.deferrals += counters.deferrals();
        report.forced_deliveries += counters.forced();
    }
    report
}

/// Runs the chaos sweep over the built-in scenario corpus.
pub fn run_chaos(opts: &ChaosOptions) -> ChaosReport {
    let mut report = ChaosReport {
        faults: opts.faults.to_string(),
        seeds: opts.seeds,
        fuel: opts.fuel,
        sanitize: opts.sanitize,
        flow_facts: opts.flow_facts,
        crosscheck: opts.crosscheck,
        scenarios: Vec::new(),
    };
    for scenario in all_scenarios() {
        report.scenarios.push(run_scenario(&scenario, opts));
    }
    report
}

/// Runs the chaos sweep over a single source file: the program must
/// parse and type-check, and every zero-parameter function becomes one
/// spawned thread.
///
/// # Errors
///
/// Parse/check failures, or a program with no zero-parameter functions
/// (nothing to spawn).
pub fn run_source_chaos(source: &str, opts: &ChaosOptions) -> Result<ChaosReport, String> {
    let program = fearless_syntax::parse_program(source).map_err(|e| e.to_string())?;
    fearless_core::check_program(&program, &fearless_core::CheckerOptions::default()).map_err(
        |e| {
            format!(
                "chaos requires a well-typed program (the oracles assume the \
                              theorems apply): {e}"
            )
        },
    )?;
    let spawns: Vec<Spawn> = program
        .funcs
        .iter()
        .filter(|f| f.params.is_empty())
        .map(|f| Spawn {
            func: f.name.as_str().to_string(),
            args: Vec::new(),
        })
        .collect();
    if spawns.is_empty() {
        return Err("no zero-parameter functions to spawn; chaos needs at least one".to_string());
    }
    let compiled = fearless_runtime::compile(&program).map_err(|e| e.to_string())?;
    let scenario = Scenario {
        name: "file",
        description: "user-supplied source",
        program: compiled,
        spawns,
        sanitize: true,
    };
    Ok(ChaosReport {
        faults: opts.faults.to_string(),
        seeds: opts.seeds,
        fuel: opts.fuel,
        sanitize: opts.sanitize,
        flow_facts: opts.flow_facts,
        crosscheck: opts.crosscheck,
        scenarios: vec![run_scenario(&scenario, opts)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ChaosOptions {
        ChaosOptions {
            seeds: 6,
            ..ChaosOptions::default()
        }
    }

    #[test]
    fn corpus_sweep_is_clean_and_deterministic() {
        let a = run_chaos(&quick_opts());
        assert!(a.ok(), "{}", a.render_text());
        let b = run_chaos(&quick_opts());
        assert_eq!(a.to_json(), b.to_json(), "same seeds ⇒ same bytes");
    }

    #[test]
    fn faults_actually_fire() {
        let report = run_chaos(&quick_opts());
        let deferrals: u64 = report.scenarios.iter().map(|s| s.deferrals).sum();
        assert!(deferrals > 0, "drop/delay faults never deferred a message");
        let forced: u64 = report.scenarios.iter().map(|s| s.forced_deliveries).sum();
        assert!(forced > 0, "redelivery guarantee never exercised");
    }

    #[test]
    fn chaos_results_match_roundrobin_baseline() {
        let report = run_chaos(&ChaosOptions {
            seeds: 10,
            faults: FaultSpec::all(),
            ..ChaosOptions::default()
        });
        for s in &report.scenarios {
            assert!(s.violations.is_empty(), "{}: {:?}", s.name, s.violations);
            assert_eq!(s.seed_digests.len(), 10);
        }
    }

    #[test]
    fn flow_facts_amortize_the_sanitizer_without_violations() {
        let opts = ChaosOptions {
            seeds: 4,
            flow_facts: true,
            ..ChaosOptions::default()
        };
        let report = run_chaos(&opts);
        assert!(report.ok(), "{}", report.render_text());
        let skipped: u64 = report.scenarios.iter().map(|s| s.sanitize_skipped).sum();
        assert!(
            skipped > 0,
            "no walk was ever skipped:\n{}",
            report.render_text()
        );
        // Determinism survives the new machinery.
        assert_eq!(report.to_json(), run_chaos(&opts).to_json());
    }

    #[test]
    fn crosscheck_oracle_finds_no_unsound_classification() {
        // The differential soundness oracle: every skipped or partial
        // check is shadowed by a full walk; a disagreement is a
        // `FlowUnsound` runtime error, which surfaces as a violation.
        let opts = ChaosOptions {
            seeds: 4,
            flow_facts: true,
            crosscheck: true,
            ..ChaosOptions::default()
        };
        let report = run_chaos(&opts);
        assert!(report.ok(), "{}", report.render_text());
        assert!(!report.render_text().contains("flow classification unsound"));
    }

    #[test]
    fn source_chaos_accepts_well_typed_rejects_untypable() {
        let good = "struct data { value: int }
             def ping() : unit { send(new data(1)); unit }
             def pong() : int { recv(data).value }";
        let report = run_source_chaos(good, &quick_opts()).unwrap();
        assert!(report.ok(), "{}", report.render_text());

        let bad = "def f(x: int) : bool { x }";
        assert!(run_source_chaos(bad, &quick_opts()).is_err());
    }

    #[test]
    fn fuel_violation_is_reported_not_hung() {
        // A cyclic relay that never terminates: fuel must turn it into a
        // clean violation.
        let loopy = "struct data { value: int }
             def a() : unit { while (true) { send(new data(1)); let d = recv(data); unit }; unit }
             def b() : unit { while (true) { let d = recv(data); send(new data(2)); unit }; unit }";
        let opts = ChaosOptions {
            seeds: 2,
            fuel: 20_000,
            sanitize: false,
            ..ChaosOptions::default()
        };
        let report = run_source_chaos(loopy, &opts).unwrap();
        assert!(!report.ok());
        assert!(
            report.scenarios[0]
                .violations
                .iter()
                .all(|v| v.contains("fuel budget")),
            "{:?}",
            report.scenarios[0].violations
        );
    }
}
