//! `fearlessc chaos`: the deterministic fault-injection layer
//! (`fearless-chaos`).

use std::fmt::Write as _;
use std::path::PathBuf;

use fearless_chaos::{ChaosOptions, FaultSpec};

use crate::args::{
    Args, Input, CASES, CROSSCHECK, DIR, FAULTS, FLOW_FACTS, FUEL, JSON, NO_SANITIZE, OUT, SEED,
    SEEDS, WATCHDOG,
};
use crate::telemetry::write_file;
use crate::Command;

/// Default fuzz case count when neither `--cases` nor
/// `FEARLESS_FUZZ_CASES` is given.
const DEFAULT_FUZZ_CASES: u64 = 2_000;

/// One `fearlessc chaos` sub-mode. Any oracle violation, escaped panic,
/// or report divergence is an error (exit status 1) carrying the full
/// report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Chaos {
    /// Seeded adversarial-schedule sweep against the soundness oracles.
    Schedules {
        /// A source file or the built-in scenario corpus.
        input: Input,
        /// Seeds, fault vocabulary, fuel, and the sanitizer, flow-facts
        /// and crosscheck switches (`crosscheck` implies `flow_facts`).
        options: ChaosOptions,
        /// Print the deterministic report JSON instead of the summary.
        json: bool,
    },
    /// Grammar-aware + raw-bytes fuzzing of the whole pipeline.
    Fuzz {
        /// Fuzz cases (`None`: `FEARLESS_FUZZ_CASES`, then the default).
        cases: Option<u64>,
        /// Base seed for the fuzz inputs.
        seed: u64,
    },
    /// Cache-corruption matrix against the crash-safe loader.
    Drills {
        /// Scratch directory (default: under the system temp dir).
        dir: Option<String>,
        /// Seed for the corruption choices.
        seed: u64,
    },
    /// Wire-level socket faults + guard drills against the serve daemon.
    Serve {
        /// How many drill seeds to run.
        seeds: u64,
        /// First drill seed; the sweep runs `seed, seed + 1, …`.
        seed: u64,
        /// Scratch directory (default: under the system temp dir).
        dir: Option<String>,
        /// Write the BENCH_guard.json document here.
        out: Option<String>,
        /// Per-seed watchdog budget in seconds: a drill that exceeds it
        /// fails as a hang.
        watchdog: u64,
        /// Print the report JSON instead of the table.
        json: bool,
    },
}

impl Chaos {
    pub(crate) fn parse_schedules(a: &Args) -> Result<Command, String> {
        let d = ChaosOptions::default();
        let crosscheck = d.crosscheck || a.on(CROSSCHECK);
        let options = ChaosOptions {
            seeds: a.last(SEEDS)?.unwrap_or(d.seeds),
            faults: match a.last::<String>(FAULTS)? {
                Some(spec) => FaultSpec::parse(&spec)?,
                None => d.faults,
            },
            fuel: a.last(FUEL)?.unwrap_or(d.fuel),
            sanitize: d.sanitize && !a.on(NO_SANITIZE),
            flow_facts: d.flow_facts || crosscheck || a.on(FLOW_FACTS),
            crosscheck,
        };
        Ok(Command::Chaos(Chaos::Schedules {
            input: a.input("chaos")?,
            options,
            json: a.on(JSON),
        }))
    }

    pub(crate) fn parse_fuzz(a: &Args) -> Result<Command, String> {
        a.operands(0)?;
        Ok(Command::Chaos(Chaos::Fuzz {
            cases: a.last(CASES)?,
            seed: a.last(SEED)?.unwrap_or(0),
        }))
    }

    pub(crate) fn parse_drills(a: &Args) -> Result<Command, String> {
        a.operands(0)?;
        Ok(Command::Chaos(Chaos::Drills {
            dir: a.last(DIR)?,
            seed: a.last(SEED)?.unwrap_or(0),
        }))
    }

    pub(crate) fn parse_serve(a: &Args) -> Result<Command, String> {
        a.operands(0)?;
        Ok(Command::Chaos(Chaos::Serve {
            // The wire drill is a heavier per-seed exercise (two
            // daemons, a crash recovery) — its default sweep is smaller
            // than the schedule sweep's.
            seeds: a.last(SEEDS)?.unwrap_or(5),
            seed: a.last(SEED)?.unwrap_or(0),
            dir: a.last(DIR)?,
            out: a.last(OUT)?,
            watchdog: a.last(WATCHDOG)?.unwrap_or(120),
            json: a.on(JSON),
        }))
    }

    pub(crate) fn execute(&self, src: &str) -> Result<String, String> {
        match self {
            Chaos::Schedules {
                input,
                options,
                json,
            } => {
                let report = match input {
                    Input::Corpus => fearless_chaos::run_chaos(options),
                    Input::File(_) => fearless_chaos::run_source_chaos(src, options)?,
                };
                let out = if *json {
                    let mut j = report.to_json();
                    j.push('\n');
                    j
                } else {
                    report.render_text()
                };
                if report.ok() {
                    Ok(out)
                } else {
                    Err(out)
                }
            }
            Chaos::Fuzz { cases, seed } => {
                let cases = cases
                    .or_else(|| {
                        std::env::var("FEARLESS_FUZZ_CASES")
                            .ok()
                            .and_then(|v| v.parse().ok())
                    })
                    .unwrap_or(DEFAULT_FUZZ_CASES);
                let report = fearless_chaos::run_fuzz(cases, *seed);
                let mut out = format!(
                    "fuzz: {} case(s) from seed {seed}: {} parse reject(s), {} check reject(s), \
                     {} ran\n",
                    report.cases, report.parse_rejects, report.check_rejects, report.ran
                );
                if report.ok() {
                    out.push_str("fuzz: no panic escaped the pipeline\n");
                    Ok(out)
                } else {
                    for (s, stage) in &report.panics {
                        let _ = writeln!(out, "internal error: seed {s}: {stage}");
                    }
                    Err(out)
                }
            }
            Chaos::Drills { dir, seed } => drills(&scratch_dir(dir, "chaos-drills"), *seed),
            Chaos::Serve {
                seeds,
                seed,
                dir,
                out,
                watchdog,
                json,
            } => {
                let dir = scratch_dir(dir, "wire-chaos");
                // `seeds` is the *count*; the actual drill seeds are
                // seed, seed+1, … so `--seed` shifts the whole sweep.
                let seed_list: Vec<u64> =
                    (0..(*seeds).max(1)).map(|i| seed.wrapping_add(i)).collect();
                let report = fearless_chaos::run_wire_drills(&dir, &seed_list, *watchdog)?;
                if let Some(path) = out {
                    write_file(path, "bench document", &report.to_json())?;
                }
                Ok(if *json {
                    report.to_json()
                } else {
                    report.render()
                })
            }
        }
    }
}

/// `dir`, or a per-process directory under the system temp dir.
fn scratch_dir(dir: &Option<String>, tag: &str) -> PathBuf {
    dir.as_ref().map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("fearless-{tag}-{}", std::process::id()))
    })
}

/// The cache-corruption drills: every corruption class against both
/// documents, then racing writers.
fn drills(dir: &std::path::Path, seed: u64) -> Result<String, String> {
    let units = fearless_chaos::cache_chaos::corpus_units();
    let outcomes = fearless_chaos::run_cache_drills(dir, &units, seed)?;
    let mut out = String::new();
    let mut failed = 0usize;
    let mut recovered = 0usize;
    for o in &outcomes {
        recovered += usize::from(o.recovered);
        failed += usize::from(!o.ok());
        let _ = writeln!(
            out,
            "drill {:<16} {:<12} {:<32} {}",
            o.document,
            o.class,
            match o.reason {
                Some(r) => format!("recovered ({r})"),
                None => "loaded clean".to_string(),
            },
            if !o.reports_match {
                "REPORTS DIVERGED FROM COLD RUN"
            } else if o.ok() {
                "reports byte-identical to cold"
            } else {
                "CORRUPTION WENT UNDETECTED"
            }
        );
    }
    // The two-process drill: racing save/load cycles must never surface
    // a recovery (the advisory lock + atomic rename + checksum contract).
    let concurrency = fearless_chaos::run_concurrency_drill(&dir.join("concurrent"), &units, 4, 3)?;
    let concurrency_ok = concurrency.recoveries == 0 && concurrency.final_warm;
    failed += usize::from(!concurrency_ok);
    let _ = writeln!(
        out,
        "drill {:<16} {:<12} {:<32} {}",
        fearless_incr::disk::CACHE_FILE,
        "concurrent",
        format!(
            "{} writer(s) × {} round(s)",
            concurrency.writers, concurrency.rounds
        ),
        if concurrency_ok {
            "no torn loads, final document warm"
        } else {
            "A RACING LOADER SAW A TORN DOCUMENT"
        }
    );
    let _ = writeln!(
        out,
        "drills: {} class(es) × 2 documents + concurrency, {recovered} recover(ies), seed {seed}",
        outcomes.len() / 2
    );
    if failed == 0 {
        Ok(out)
    } else {
        Err(out)
    }
}
