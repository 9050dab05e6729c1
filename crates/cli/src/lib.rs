//! # fearless-cli
//!
//! The `fearlessc` command-line driver: parse, check, verify, and run
//! programs written in the tempered-domination surface language.
//!
//! ```text
//! fearlessc check   (program.fc | --corpus) [--mode tempered|gd|tree] [--no-oracle]
//!                   [--jobs N] [--cache dir] [--trace t.json] [--metrics json]
//!                   [--obs journal.json] [--trace-out trace.json]
//! fearlessc verify  program.fc
//! fearlessc lint    program.fc [--mode tempered|gd|tree] [--format human|json] [--deny-warnings]
//! fearlessc run     program.fc --entry main [--arg 42]... [--unchecked] [--sanitize-domination]
//!                   [--obs journal.json] [--trace-out trace.json]
//! fearlessc report  (program.fc --entry main [--arg 42]... | --corpus) [--json]
//!                   [--sanitize-domination] [--flow-facts] [--obs f] [--trace-out f]
//! fearlessc flow    (program.fc | --corpus) [--cache dir]
//! fearlessc profile (program.fc | --corpus) [--cache dir] [--wall-time] [--metrics json]
//! fearlessc chaos   (program.fc | --corpus) [--seeds N] [--faults spec] [--fuel N] [--json]
//! fearlessc chaos fuzz   [--cases N] [--seed N]
//! fearlessc chaos drills [--dir dir] [--seed N]
//! fearlessc bench-diff   old.json new.json [--threshold pct] [--json]
//! fearlessc strip-nondet file.json
//! fearlessc table1
//! ```
//!
//! The observability surface (`fearless-obs`) hangs off most commands:
//! `--obs <file>` writes the deterministic event journal (schema
//! `fearless-obs/1`, byte-identical across cold/warm/serial/parallel
//! runs), `--trace-out <file>` writes a Chrome trace-event / Perfetto
//! document, `report` renders per-machine runtime lanes, `bench-diff`
//! gates BENCH_*.json counters against a baseline, and `strip-nondet`
//! removes `_nondet`-tagged (wall-clock) fields so CI can byte-diff
//! otherwise nondeterministic output. See docs/OBSERVABILITY.md.
//!
//! `--trace <file>` writes the full `fearless-trace/1` instrumentation
//! JSON; `--metrics json` prints it on stdout instead of the normal
//! report. Both are deterministic byte-for-byte (wall-clock time is
//! recorded in memory but never serialized).
//!
//! `check` is driven by the `fearless-incr` incremental driver: `--jobs
//! N` fans independent per-function checks over a work-stealing pool,
//! and `--cache <dir>` keeps a fingerprint-keyed result cache on disk.
//! Reports, diagnostics, and metrics stay byte-identical regardless of
//! job count or cache warmth (warmth is visible only in the dedicated
//! `cache` summary span and in `profile --cache`'s trailing line).

#![warn(missing_docs)]

use std::fmt::Write as _;

use fearless_chaos::{ChaosOptions, FaultSpec};
use fearless_core::{CheckerMode, CheckerOptions};
use fearless_flow::{FlowCache, ProgramFlow};
use fearless_incr::{CacheStats, DiskCache};
use fearless_runtime::{Machine, MachineConfig, Value};
use fearless_trace::{Json, MemorySink, TraceSink, Tracer};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Type-check a file (or the whole corpus).
    Check {
        /// Source path (`None` with `--corpus`).
        path: Option<String>,
        /// Check every corpus entry instead of a file.
        corpus: bool,
        /// Discipline.
        mode: CheckerMode,
        /// Disable the liveness oracle (pure backtracking search).
        no_oracle: bool,
        /// Worker threads for per-function checking (1 = serial).
        jobs: usize,
        /// Directory holding the persistent per-function check cache.
        cache: Option<String>,
        /// Write the instrumentation trace (JSON) to this file.
        trace: Option<String>,
        /// Print metrics JSON instead of the human report.
        metrics_json: bool,
        /// Write the deterministic event journal (fearless-obs/1) here.
        obs: Option<String>,
        /// Write a Chrome trace-event / Perfetto document here.
        trace_out: Option<String>,
    },
    /// Type-check and independently verify the derivations.
    Verify {
        /// Source path.
        path: String,
    },
    /// Run the static-analysis lint passes (`fearless-analyze`).
    Lint {
        /// Source path.
        path: String,
        /// Discipline to check under before analyzing.
        mode: CheckerMode,
        /// Output format.
        format: LintFormat,
        /// Exit nonzero when any finding is reported.
        deny_warnings: bool,
        /// Write the instrumentation trace (JSON) to this file.
        trace: Option<String>,
        /// Print metrics JSON instead of the findings report.
        metrics_json: bool,
    },
    /// Check, then run an entry function on the abstract machine.
    Run {
        /// Source path.
        path: String,
        /// Entry function name.
        entry: String,
        /// Integer arguments for the entry function.
        args: Vec<i64>,
        /// Skip the static check and run with reservation checks anyway
        /// (for demonstrating dynamic faults, experiment E8).
        unchecked: bool,
        /// Assert tempered domination over the whole heap after every
        /// machine step (the dynamic sanitizer).
        sanitize: bool,
        /// Install the static flow index so the sanitizer skips
        /// statically `Safe` steps and partial-walks `RegionLocal` ones.
        flow_facts: bool,
        /// Write the instrumentation trace (JSON) to this file.
        trace: Option<String>,
        /// Print metrics JSON instead of the human report.
        metrics_json: bool,
        /// Write the deterministic event journal (fearless-obs/1) here.
        obs: Option<String>,
        /// Write a Chrome trace-event / Perfetto document here.
        trace_out: Option<String>,
    },
    /// Per-machine runtime telemetry: run a program (or the chaos
    /// scenario corpus) and render a top-style lane table or machine
    /// JSON (`fearless-obs`).
    Report {
        /// Render a serve-bench journal as a per-client lane table
        /// instead of running anything (`fearless-serve`).
        serve: Option<String>,
        /// Source path (`None` with `--corpus`).
        path: Option<String>,
        /// Run the built-in scenario corpus instead of a file.
        corpus: bool,
        /// Entry function (file mode).
        entry: Option<String>,
        /// Integer arguments for the entry function.
        args: Vec<i64>,
        /// Walk the heap each step asserting tempered domination, so
        /// the lanes attribute sanitizer cost per machine.
        sanitize: bool,
        /// Amortize the sanitizer with the static flow index.
        flow_facts: bool,
        /// Print the machine-readable report JSON instead of the table.
        json: bool,
        /// Write the deterministic event journal (fearless-obs/1) here.
        obs: Option<String>,
        /// Write a Chrome trace-event / Perfetto document here.
        trace_out: Option<String>,
    },
    /// Compare two BENCH_*.json counter documents against thresholds;
    /// exits nonzero on regression (`fearless-obs`).
    BenchDiff {
        /// Baseline document path.
        old: String,
        /// Candidate document path.
        new: String,
        /// Relative threshold in percent before a bad move regresses.
        threshold_pct: u64,
        /// Print the comparison as JSON instead of the table.
        json: bool,
    },
    /// Print a JSON document with every `_nondet`-tagged field removed.
    StripNondet {
        /// Document path.
        path: String,
    },
    /// Dump the `fearless-flow` per-function step-safety summaries as
    /// deterministic JSON.
    Flow {
        /// Source path (`None` with `--corpus`).
        path: Option<String>,
        /// Analyze every accepted corpus entry instead of a file.
        corpus: bool,
        /// Directory holding the persistent per-function flow cache.
        cache: Option<String>,
    },
    /// Print a per-function/per-phase counter table (checker
    /// instrumentation).
    Profile {
        /// Source path (`None` with `--corpus`).
        path: Option<String>,
        /// Profile every accepted corpus entry instead of a file.
        corpus: bool,
        /// Add a wall-clock time column (makes output nondeterministic).
        wall_time: bool,
        /// Print the raw trace JSON instead of the table.
        metrics_json: bool,
        /// Directory holding the persistent per-function check cache;
        /// adds a trailing hit/miss/invalidation line to the table.
        cache: Option<String>,
    },
    /// Deterministic fault injection (`fearless-chaos`).
    Chaos {
        /// Sub-mode: adversarial schedules, pipeline fuzzing, or
        /// cache-corruption drills.
        mode: ChaosMode,
        /// Source path (`None` with `--corpus`; schedules mode only).
        path: Option<String>,
        /// Sweep the built-in scenario corpus instead of a file.
        corpus: bool,
        /// Schedule seeds per scenario.
        seeds: u64,
        /// Fault vocabulary the adversarial schedules may exhibit.
        faults: FaultSpec,
        /// Step-fuel budget per run.
        fuel: u64,
        /// Walk the heap each step asserting tempered domination.
        sanitize: bool,
        /// Amortize the sanitizer with the static flow index.
        flow_facts: bool,
        /// Shadow every classified check with a full walk (the
        /// differential soundness oracle; implies `--flow-facts`).
        crosscheck: bool,
        /// Print the deterministic report JSON instead of the summary.
        json: bool,
        /// Fuzz cases (`None`: `FEARLESS_FUZZ_CASES`, then the default).
        cases: Option<u64>,
        /// Base seed for fuzz inputs / drill corruption / wire faults.
        seed: u64,
        /// Scratch directory for cache/wire drills.
        dir: Option<String>,
        /// Write the BENCH_guard.json document here (serve mode).
        out: Option<String>,
        /// Per-seed watchdog budget in seconds (serve mode): a drill
        /// that exceeds it fails as a hang.
        watchdog: u64,
    },
    /// Generate a seeded, deterministic well-typed program
    /// (`fearless-synth`; see docs/CORPUS.md).
    Synth {
        /// RNG seed (same seed ⇒ byte-identical output).
        seed: u64,
        /// Generated definitions on top of the motif prelude.
        functions: usize,
        /// Maximum generated `syn_box*` struct families.
        boxes: usize,
        /// Maximum statements per generated body.
        max_ops: usize,
        /// Callee-sampling locality window.
        window: usize,
        /// Write the program here instead of stdout.
        out: Option<String>,
    },
    /// Run the compiler-as-a-service daemon (`fearless-serve`).
    Serve {
        /// Unix socket path to listen on.
        socket: String,
        /// Worker threads computing responses.
        workers: usize,
        /// Bounded queue capacity; arrivals past it are shed.
        queue: usize,
        /// Directory holding the persistent fingerprint cache (kept hot
        /// in memory, written back on shutdown).
        cache: Option<String>,
        /// Retry-after hint (milliseconds) on `overloaded` responses.
        retry_after: u64,
        /// Run the in-process end-to-end self-test instead of serving.
        once: bool,
    },
    /// Drive a running daemon with the seeded load generator
    /// (`fearless-serve`).
    ServeBench {
        /// Daemon socket to connect to.
        socket: String,
        /// Concurrent clients.
        clients: usize,
        /// Requests per client.
        requests: usize,
        /// Distinct synthesized request bodies.
        bodies: usize,
        /// Workload seed (same seed ⇒ same requests ⇒ same
        /// deterministic counters).
        seed: u64,
        /// Shed-drill requests beyond the queue capacity.
        shed_extra: usize,
        /// Write the fearless-obs/1 journal here.
        obs: Option<String>,
        /// Write the BENCH_serve.json document here.
        out: Option<String>,
    },
    /// Send one request to a running daemon and print the response
    /// body.
    Client {
        /// Daemon socket to connect to.
        socket: String,
        /// Request kind (`check`/`lint`/`flow`/`profile` or a control
        /// kind like `ping`, `stats`, `shutdown`).
        kind: String,
        /// File holding the request body (`-` for stdin; omitted for
        /// control kinds).
        path: Option<String>,
        /// Deterministic logical deadline (`deadline_millis`) to attach
        /// to the request.
        deadline: Option<u64>,
        /// Retry `overloaded` responses up to this many times with
        /// bounded seeded backoff.
        retries: Option<u32>,
        /// Tolerate a stale answer under load (`allow_stale`).
        stale_ok: bool,
    },
    /// Print a function's typing derivation.
    Explain {
        /// Source path.
        path: String,
        /// Function name.
        func: String,
    },
    /// Print the reproduced Table 1.
    Table1,
    /// Print usage.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
fearlessc — tempered-domination checker, verifier, and runtime

USAGE:
  fearlessc check  (<file> | --corpus) [--mode tempered|gd|tree] [--no-oracle]
                   [--jobs <n>] [--cache <dir>] [--trace <file>] [--metrics json]
                   [--obs <file>] [--trace-out <file>]
  fearlessc verify <file>
  fearlessc lint   <file> [--mode tempered|gd|tree] [--format human|json] [--deny-warnings]
                   [--trace <file>] [--metrics json]
  fearlessc run    <file> --entry <fn> [--arg <int>]... [--unchecked] [--sanitize-domination]
                   [--flow-facts] [--trace <file>] [--metrics json]
                   [--obs <file>] [--trace-out <file>]
  fearlessc report (<file> --entry <fn> [--arg <int>]... | --corpus | --serve <journal>)
                   [--json] [--sanitize-domination] [--flow-facts] [--obs <file>]
                   [--trace-out <file>]
  fearlessc serve  --socket <path> [--workers <n>] [--queue <n>] [--cache <dir>]
                   [--retry-after <ms>] [--once]
  fearlessc serve-bench --socket <path> [--clients <n>] [--requests <n>] [--bodies <n>]
                   [--seed <n>] [--shed-extra <n>] [--obs <file>] [--out <file>]
  fearlessc client <kind> [<file>] --socket <path> [--deadline <ms>] [--retries <n>]
                   [--stale-ok]
  fearlessc flow   (<file> | --corpus) [--cache <dir>]
  fearlessc profile (<file> | --corpus) [--cache <dir>] [--wall-time] [--metrics json]
  fearlessc chaos  (<file> | --corpus) [--seeds <n>] [--faults <spec>] [--fuel <n>]
                   [--no-sanitize] [--flow-facts] [--crosscheck] [--json]
  fearlessc chaos fuzz   [--cases <n>] [--seed <n>]
  fearlessc chaos drills [--dir <dir>] [--seed <n>]
  fearlessc chaos serve  [--seeds <n>] [--seed <n>] [--dir <dir>] [--out <file>]
                   [--watchdog <s>] [--json]
  fearlessc bench-diff <old.json> <new.json> [--threshold <pct>] [--json]
  fearlessc strip-nondet <file>
  fearlessc synth  [--seed <n>] [--functions <n>] [--boxes <n>] [--max-ops <n>]
                   [--window <n>] [--out <file>]
  fearlessc explain <file> --fn <name>
  fearlessc table1

  --jobs <n>      check independent functions on <n> worker threads
                  (output is identical to the serial run, just faster)
  --cache <dir>   keep a fingerprint-keyed per-function check cache in
                  <dir>/check-cache.json; unchanged functions replay
                  their cached outcome instead of re-checking
  --trace <file>  write the full instrumentation trace (fearless-trace/1
                  JSON) to <file>
  --metrics json  print the trace JSON on stdout instead of the normal
                  report (deterministic byte-for-byte)

  flow classifies every step of every function as safe / region-local /
  unknown for the domination sanitizer (schema fearless-flow/1; with
  --corpus, fearless-flow-corpus/1) and prints the summaries as
  deterministic JSON. --cache <dir> keeps <dir>/flow.json keyed by the
  checker's function fingerprints; warm and cold runs are
  byte-identical. --flow-facts (run, chaos) installs the same
  classification so the sanitizer skips statically safe steps;
  --crosscheck (chaos) shadows every skipped or partial check with a
  full walk and reports any disagreement — the differential soundness
  oracle for the flow analysis.

  the observability layer (fearless-obs, docs/OBSERVABILITY.md):
  --obs <file> writes the structured event journal, schema
  fearless-obs/1, stamped with a monotonic logical clock
  (definition-order sequence when checking, scheduler step at runtime)
  and byte-identical across cold/warm/serial/parallel runs;
  --trace-out <file> writes a Chrome trace-event document loadable in
  ui.perfetto.dev (one lane per pipeline phase, one lane per runtime
  machine, logical time as microseconds). report runs a program (or
  the scenario corpus) and renders per-machine lanes: messages
  processed, peak mailbox depth, mailbox residence, sanitizer cost
  attribution. bench-diff compares two BENCH_*.json documents
  (default threshold 10%; keys tagged `_nondet` are informational)
  and exits 1 on any regression. strip-nondet prints a JSON document
  with every `_nondet`-tagged (wall-clock) field removed, which is
  how CI byte-diffs wall-timed output.

  synth generates a large, seeded, deterministic well-typed program:
  the corpus motif libraries (SLL/DLL/red-black tree/message queues)
  plus --functions <n> generated definitions over a random call graph
  (grammar and knobs: docs/CORPUS.md). Identical options produce
  byte-identical source. Every file-taking command accepts `-` for
  stdin, so the synthesized corpus pipes straight into the checker:

      fearlessc synth --functions 1000 | fearlessc check - --jobs 4

  serve runs the long-lived compiler-as-a-service daemon
  (fearless-serve, docs/SERVE.md): a unix socket speaking
  length-prefixed JSON (schema fearless-serve/1) over the incremental
  driver, with the fingerprint cache held hot in memory (--cache seeds
  it from disk and writes it back on shutdown). Identical request
  bodies are deduped by content fingerprint and always yield
  byte-identical responses; arrivals past --queue get a structured
  `overloaded` response with a retry-after hint, never a hang; SIGTERM
  or a `shutdown` request finishes in-flight work, answers queued jobs
  with a structured code 8, and persists the cache before exiting.
  --once runs the in-process protocol self-test and exits. The guard
  layer (docs/GUARD.md) supervises workers (a panicking request is
  retried once, then quarantined to code 70), journals every cache
  mutation to a checksummed WAL so a kill -9 recovers byte-identically
  on restart, and honors per-request deterministic deadlines and
  staleness tolerance. client sends one request (`fearlessc client
  check file.fl --socket S`; control kinds: ping, stats, pause,
  resume, reset, shutdown) and exits 0 on an ok response, 1 otherwise;
  --deadline attaches a logical deadline_millis budget (code 9 when
  the work's derivation-node cost exceeds it), --retries N retries
  `overloaded` responses with bounded seeded backoff, --stale-ok
  accepts a previous-epoch answer marked `stale: true` instead of
  shedding. serve-bench replays a seeded N-clients × M-requests
  workload, writes the fearless-obs/1 journal (--obs) and the
  bench-diff-gated BENCH_serve.json (--out); report --serve <journal>
  renders the per-client lane table plus the guard counters.

  chaos runs the deterministic fault-injection layer: adversarial
  schedules against the soundness oracles (default), whole-pipeline
  fuzzing (`chaos fuzz`, case count also settable via the
  FEARLESS_FUZZ_CASES environment variable), cache-corruption
  drills (`chaos drills`), and wire-level socket chaos against the
  serve daemon (`chaos serve`: torn headers, split writes, garbage
  frames, connection slams, injected worker panics, and a simulated
  kill -9 recovered through the cache WAL — every fault must land on
  its documented protocol code, every seed runs under a --watchdog,
  and --out writes the bench-diff-gated BENCH_guard.json). --faults
  takes `all`, `none`, or a comma list of delay, reorder, drop,
  preempt, contend. Identical seeds produce byte-identical reports.

exit status: 0 ok; 1 diagnostics/violations; 2 missing input file;
3 unreadable input file; 4 input not valid UTF-8; 70 internal error
";

/// Output format for `fearlessc lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintFormat {
    /// Rendered diagnostics with source excerpts.
    Human,
    /// Machine-readable JSON (deterministic; golden-file friendly).
    Json,
}

/// Sub-mode of `fearlessc chaos`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Seeded adversarial-schedule sweep against the soundness oracles.
    Schedules,
    /// Grammar-aware + raw-bytes fuzzing of the whole pipeline.
    Fuzz,
    /// Cache-corruption matrix against the crash-safe loader.
    Drills,
    /// Wire-level socket faults + guard drills against the serve
    /// daemon (seeded; every seed under a watchdog).
    Serve,
}

/// Exit status: the input file does not exist.
pub const EXIT_MISSING_FILE: i32 = 2;
/// Exit status: the input file exists but cannot be read.
pub const EXIT_UNREADABLE: i32 = 3;
/// Exit status: the input file is not valid UTF-8.
pub const EXIT_INVALID_UTF8: i32 = 4;
/// Exit status: an internal error (a panic) escaped the driver — a bug
/// in `fearlessc` itself, never in the user's program.
pub const EXIT_ICE: i32 = 70;

/// Parses command-line arguments (excluding the program name).
///
/// # Errors
///
/// Returns a usage message on malformed input.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "table1" => Ok(Command::Table1),
        "check" => {
            let mut path = None;
            let mut corpus = false;
            let mut mode = CheckerMode::Tempered;
            let mut no_oracle = false;
            let mut jobs = 1usize;
            let mut cache = None;
            let mut trace = None;
            let mut metrics_json = false;
            let mut obs = None;
            let mut trace_out = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--mode" => {
                        mode = match it.next().map(String::as_str) {
                            Some("tempered") => CheckerMode::Tempered,
                            Some("gd") => CheckerMode::GlobalDomination,
                            Some("tree") => CheckerMode::TreeOfObjects,
                            Some(other) => {
                                return Err(format!(
                                    "unknown mode `{other}` (expected `tempered`, `gd`, or `tree`)"
                                ))
                            }
                            None => return Err("--mode requires a value".to_string()),
                        };
                    }
                    "--no-oracle" => no_oracle = true,
                    "--corpus" => corpus = true,
                    "--jobs" => jobs = parse_jobs(it.next())?,
                    "--cache" => {
                        cache = Some(it.next().ok_or("--cache requires a directory")?.clone());
                    }
                    "--trace" => trace = Some(it.next().ok_or("--trace requires a file")?.clone()),
                    "--metrics" => metrics_json = parse_metrics(it.next())?,
                    "--obs" => obs = Some(it.next().ok_or("--obs requires a file")?.clone()),
                    "--trace-out" => {
                        trace_out = Some(it.next().ok_or("--trace-out requires a file")?.clone());
                    }
                    p if path.is_none() => path = Some(p.to_string()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            if corpus == path.is_some() {
                return Err("check needs a file or --corpus (not both)".to_string());
            }
            Ok(Command::Check {
                path,
                corpus,
                mode,
                no_oracle,
                jobs,
                cache,
                trace,
                metrics_json,
                obs,
                trace_out,
            })
        }
        "verify" => {
            let path = it.next().ok_or("missing file")?.to_string();
            Ok(Command::Verify { path })
        }
        "synth" => {
            let defaults = fearless_synth::SynthOptions::default();
            let mut seed = defaults.seed;
            let mut functions = defaults.functions;
            let mut boxes = defaults.boxes;
            let mut max_ops = defaults.max_ops;
            let mut window = defaults.window;
            let mut out = None;
            fn num<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
                v.ok_or(format!("{flag} requires a value"))?
                    .parse()
                    .map_err(|_| format!("{flag} requires a non-negative integer"))
            }
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--seed" => seed = num("--seed", it.next())?,
                    "--functions" => functions = num("--functions", it.next())?,
                    "--boxes" => boxes = num("--boxes", it.next())?,
                    "--max-ops" => max_ops = num("--max-ops", it.next())?,
                    "--window" => window = num("--window", it.next())?,
                    "--out" => out = Some(it.next().ok_or("--out requires a file")?.clone()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            Ok(Command::Synth {
                seed,
                functions,
                boxes,
                max_ops,
                window,
                out,
            })
        }
        "lint" => {
            let mut path = None;
            let mut mode = CheckerMode::Tempered;
            let mut format = LintFormat::Human;
            let mut deny_warnings = false;
            let mut trace = None;
            let mut metrics_json = false;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--mode" => {
                        mode = match it.next().map(String::as_str) {
                            Some("tempered") => CheckerMode::Tempered,
                            Some("gd") => CheckerMode::GlobalDomination,
                            Some("tree") => CheckerMode::TreeOfObjects,
                            Some(other) => {
                                return Err(format!(
                                    "unknown mode `{other}` (expected `tempered`, `gd`, or `tree`)"
                                ))
                            }
                            None => return Err("--mode requires a value".to_string()),
                        };
                    }
                    "--format" => {
                        format = match it.next().map(String::as_str) {
                            Some("human") => LintFormat::Human,
                            Some("json") => LintFormat::Json,
                            Some(other) => {
                                return Err(format!(
                                    "unknown format `{other}` (expected `human` or `json`)"
                                ))
                            }
                            None => return Err("--format requires a value".to_string()),
                        };
                    }
                    "--deny-warnings" => deny_warnings = true,
                    "--trace" => trace = Some(it.next().ok_or("--trace requires a file")?.clone()),
                    "--metrics" => metrics_json = parse_metrics(it.next())?,
                    p if path.is_none() => path = Some(p.to_string()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            Ok(Command::Lint {
                path: path.ok_or("missing file")?,
                mode,
                format,
                deny_warnings,
                trace,
                metrics_json,
            })
        }
        "explain" => {
            let mut path = None;
            let mut func = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--fn" => func = it.next().cloned(),
                    p if path.is_none() => path = Some(p.to_string()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            Ok(Command::Explain {
                path: path.ok_or("missing file")?,
                func: func.ok_or("missing --fn")?,
            })
        }
        "run" => {
            let mut path = None;
            let mut entry = None;
            let mut run_args = Vec::new();
            let mut unchecked = false;
            let mut sanitize = false;
            let mut flow_facts = false;
            let mut trace = None;
            let mut metrics_json = false;
            let mut obs = None;
            let mut trace_out = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--entry" => entry = it.next().cloned(),
                    "--arg" => {
                        let v = it.next().ok_or("missing value after --arg")?;
                        run_args.push(v.parse::<i64>().map_err(|e| e.to_string())?);
                    }
                    "--unchecked" => unchecked = true,
                    "--sanitize-domination" => sanitize = true,
                    "--flow-facts" => flow_facts = true,
                    "--trace" => trace = Some(it.next().ok_or("--trace requires a file")?.clone()),
                    "--metrics" => metrics_json = parse_metrics(it.next())?,
                    "--obs" => obs = Some(it.next().ok_or("--obs requires a file")?.clone()),
                    "--trace-out" => {
                        trace_out = Some(it.next().ok_or("--trace-out requires a file")?.clone());
                    }
                    p if path.is_none() => path = Some(p.to_string()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            Ok(Command::Run {
                path: path.ok_or("missing file")?,
                entry: entry.ok_or("missing --entry")?,
                args: run_args,
                unchecked,
                sanitize,
                flow_facts,
                trace,
                metrics_json,
                obs,
                trace_out,
            })
        }
        "report" => {
            let mut serve = None;
            let mut path = None;
            let mut corpus = false;
            let mut entry = None;
            let mut run_args = Vec::new();
            let mut sanitize = false;
            let mut flow_facts = false;
            let mut json = false;
            let mut obs = None;
            let mut trace_out = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--serve" => {
                        serve = Some(it.next().ok_or("--serve requires a journal file")?.clone());
                    }
                    "--corpus" => corpus = true,
                    "--entry" => entry = it.next().cloned(),
                    "--arg" => {
                        let v = it.next().ok_or("missing value after --arg")?;
                        run_args.push(v.parse::<i64>().map_err(|e| e.to_string())?);
                    }
                    "--sanitize-domination" => sanitize = true,
                    "--flow-facts" => flow_facts = true,
                    "--json" => json = true,
                    "--obs" => obs = Some(it.next().ok_or("--obs requires a file")?.clone()),
                    "--trace-out" => {
                        trace_out = Some(it.next().ok_or("--trace-out requires a file")?.clone());
                    }
                    p if path.is_none() && !p.starts_with('-') => path = Some(p.to_string()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            if serve.is_some() {
                if corpus || path.is_some() || entry.is_some() {
                    return Err(
                        "report --serve takes only a journal file (no source, --corpus, or \
                         --entry)"
                            .to_string(),
                    );
                }
            } else {
                if corpus == path.is_some() {
                    return Err("report needs a file or --corpus (not both)".to_string());
                }
                if !corpus && entry.is_none() {
                    return Err("report <file> requires --entry <fn>".to_string());
                }
            }
            Ok(Command::Report {
                serve,
                path,
                corpus,
                entry,
                args: run_args,
                sanitize,
                flow_facts,
                json,
                obs,
                trace_out,
            })
        }
        "bench-diff" => {
            let mut files = Vec::new();
            let mut threshold_pct = 10u64;
            let mut json = false;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--threshold" => threshold_pct = parse_u64(it.next(), "--threshold")?,
                    "--json" => json = true,
                    p if !p.starts_with('-') => files.push(p.to_string()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            if files.len() != 2 {
                return Err("bench-diff needs exactly two files: <old.json> <new.json>".to_string());
            }
            let new = files.pop().expect("two files");
            let old = files.pop().expect("two files");
            Ok(Command::BenchDiff {
                old,
                new,
                threshold_pct,
                json,
            })
        }
        "strip-nondet" => {
            let path = it.next().ok_or("strip-nondet needs a file")?.to_string();
            if let Some(extra) = it.next() {
                return Err(format!("unexpected argument `{extra}`"));
            }
            Ok(Command::StripNondet { path })
        }
        "flow" => {
            let mut path = None;
            let mut corpus = false;
            let mut cache = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--corpus" => corpus = true,
                    "--cache" => {
                        cache = Some(it.next().ok_or("--cache requires a directory")?.clone());
                    }
                    p if path.is_none() => path = Some(p.to_string()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            if corpus == path.is_some() {
                return Err("flow needs a file or --corpus (not both)".to_string());
            }
            Ok(Command::Flow {
                path,
                corpus,
                cache,
            })
        }
        "profile" => {
            let mut path = None;
            let mut corpus = false;
            let mut wall_time = false;
            let mut metrics_json = false;
            let mut cache = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--corpus" => corpus = true,
                    "--wall-time" => wall_time = true,
                    "--metrics" => metrics_json = parse_metrics(it.next())?,
                    "--cache" => {
                        cache = Some(it.next().ok_or("--cache requires a directory")?.clone());
                    }
                    p if path.is_none() => path = Some(p.to_string()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            if corpus == path.is_some() {
                return Err("profile needs a file or --corpus (not both)".to_string());
            }
            Ok(Command::Profile {
                path,
                corpus,
                wall_time,
                metrics_json,
                cache,
            })
        }
        "chaos" => {
            let mut mode = ChaosMode::Schedules;
            let mut path = None;
            let mut corpus = false;
            let defaults = ChaosOptions::default();
            let mut seeds = None;
            let mut faults = defaults.faults;
            let mut fuel = defaults.fuel;
            let mut sanitize = defaults.sanitize;
            let mut flow_facts = defaults.flow_facts;
            let mut crosscheck = defaults.crosscheck;
            let mut json = false;
            let mut cases = None;
            let mut seed = 0u64;
            let mut dir = None;
            let mut out = None;
            let mut watchdog = 120u64;
            let mut first = true;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "fuzz" if first => mode = ChaosMode::Fuzz,
                    "drills" if first => mode = ChaosMode::Drills,
                    "serve" if first => mode = ChaosMode::Serve,
                    "--corpus" => corpus = true,
                    "--seeds" => seeds = Some(parse_u64(it.next(), "--seeds")?),
                    "--out" => out = Some(it.next().ok_or("--out requires a file")?.clone()),
                    "--watchdog" => watchdog = parse_u64(it.next(), "--watchdog")?,
                    "--faults" => {
                        faults = FaultSpec::parse(it.next().ok_or("--faults requires a spec")?)?;
                    }
                    "--fuel" => fuel = parse_u64(it.next(), "--fuel")?,
                    "--no-sanitize" => sanitize = false,
                    "--flow-facts" => flow_facts = true,
                    "--crosscheck" => {
                        flow_facts = true;
                        crosscheck = true;
                    }
                    "--json" => json = true,
                    "--cases" => cases = Some(parse_u64(it.next(), "--cases")?),
                    "--seed" => seed = parse_u64(it.next(), "--seed")?,
                    "--dir" => dir = Some(it.next().ok_or("--dir requires a directory")?.clone()),
                    p if path.is_none() && !p.starts_with('-') => path = Some(p.to_string()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
                first = false;
            }
            match mode {
                ChaosMode::Schedules => {
                    if corpus == path.is_some() {
                        return Err("chaos needs a file or --corpus (not both)".to_string());
                    }
                }
                ChaosMode::Fuzz | ChaosMode::Drills | ChaosMode::Serve => {
                    if corpus || path.is_some() {
                        return Err(
                            "chaos fuzz/drills/serve generate their own inputs (no file or \
                             --corpus)"
                                .to_string(),
                        );
                    }
                }
            }
            // The wire drill is a heavier per-seed exercise (two
            // daemons, a crash recovery) — its default sweep is smaller
            // than the schedule sweep's.
            let seeds = seeds.unwrap_or(match mode {
                ChaosMode::Serve => 5,
                _ => defaults.seeds,
            });
            Ok(Command::Chaos {
                mode,
                path,
                corpus,
                seeds,
                faults,
                fuel,
                sanitize,
                flow_facts,
                crosscheck,
                json,
                cases,
                seed,
                dir,
                out,
                watchdog,
            })
        }
        "serve" => {
            let mut socket = None;
            let mut workers = 2usize;
            let mut queue = 16usize;
            let mut cache = None;
            let mut retry_after = 25u64;
            let mut once = false;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--socket" => {
                        socket = Some(it.next().ok_or("--socket requires a path")?.clone());
                    }
                    "--workers" => {
                        workers = parse_u64(it.next(), "--workers")?.max(1) as usize;
                    }
                    "--queue" => {
                        queue = parse_u64(it.next(), "--queue")?.max(1) as usize;
                    }
                    "--cache" => {
                        cache = Some(it.next().ok_or("--cache requires a directory")?.clone());
                    }
                    "--retry-after" => retry_after = parse_u64(it.next(), "--retry-after")?,
                    "--once" => once = true,
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            Ok(Command::Serve {
                socket: socket.ok_or("serve requires --socket <path>")?,
                workers,
                queue,
                cache,
                retry_after,
                once,
            })
        }
        "serve-bench" => {
            let mut socket = None;
            let mut clients = 4usize;
            let mut requests = 6usize;
            let mut bodies = 6usize;
            let mut seed = 42u64;
            let mut shed_extra = 4usize;
            let mut obs = None;
            let mut out = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--socket" => {
                        socket = Some(it.next().ok_or("--socket requires a path")?.clone());
                    }
                    "--clients" => clients = parse_u64(it.next(), "--clients")?.max(1) as usize,
                    "--requests" => requests = parse_u64(it.next(), "--requests")?.max(1) as usize,
                    "--bodies" => bodies = parse_u64(it.next(), "--bodies")?.max(1) as usize,
                    "--seed" => seed = parse_u64(it.next(), "--seed")?,
                    "--shed-extra" => {
                        shed_extra = parse_u64(it.next(), "--shed-extra")? as usize;
                    }
                    "--obs" => obs = Some(it.next().ok_or("--obs requires a file")?.clone()),
                    "--out" => out = Some(it.next().ok_or("--out requires a file")?.clone()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            Ok(Command::ServeBench {
                socket: socket.ok_or("serve-bench requires --socket <path>")?,
                clients,
                requests,
                bodies,
                seed,
                shed_extra,
                obs,
                out,
            })
        }
        "client" => {
            let mut socket = None;
            let mut kind = None;
            let mut path = None;
            let mut deadline = None;
            let mut retries = None;
            let mut stale_ok = false;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--socket" => {
                        socket = Some(it.next().ok_or("--socket requires a path")?.clone());
                    }
                    "--deadline" => deadline = Some(parse_u64(it.next(), "--deadline")?),
                    "--retries" => {
                        retries =
                            Some(parse_u64(it.next(), "--retries")?.min(u32::MAX as u64) as u32);
                    }
                    "--stale-ok" => stale_ok = true,
                    p if kind.is_none() => kind = Some(p.to_string()),
                    p if path.is_none() => path = Some(p.to_string()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            Ok(Command::Client {
                socket: socket.ok_or("client requires --socket <path>")?,
                kind: kind.ok_or("client requires a request kind")?,
                path,
                deadline,
                retries,
                stale_ok,
            })
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn parse_u64(value: Option<&String>, flag: &str) -> Result<u64, String> {
    value
        .ok_or(format!("{flag} requires a number"))?
        .parse::<u64>()
        .map_err(|_| format!("{flag} requires a number"))
}

fn parse_jobs(value: Option<&String>) -> Result<usize, String> {
    let n = value
        .ok_or("--jobs requires a number")?
        .parse::<usize>()
        .map_err(|_| "--jobs requires a number".to_string())?;
    if n == 0 {
        return Err("--jobs must be at least 1".to_string());
    }
    Ok(n)
}

fn parse_metrics(value: Option<&String>) -> Result<bool, String> {
    match value.map(String::as_str) {
        Some("json") => Ok(true),
        Some(other) => Err(format!(
            "unknown metrics format `{other}` (expected `json`)"
        )),
        None => Err("--metrics requires a value (`json`)".to_string()),
    }
}

/// Executes a command against source text, returning the report to print.
///
/// # Errors
///
/// Returns a rendered diagnostic on any failure.
pub fn execute_on_source(cmd: &Command, src: &str) -> Result<String, String> {
    execute_on_source_with_code(cmd, src).0
}

/// Like [`execute_on_source`], but also returns the process exit status:
/// `1` for any error, `1` for `lint --deny-warnings` with findings (the
/// report still goes to stdout), `0` otherwise.
pub fn execute_on_source_with_code(cmd: &Command, src: &str) -> (Result<String, String>, i32) {
    if let Command::Lint {
        mode,
        format,
        deny_warnings,
        trace,
        metrics_json,
        ..
    } = cmd
    {
        return lint_source(src, *mode, *format, *deny_warnings, trace, *metrics_json);
    }
    let result = execute_plain(cmd, src);
    let code = i32::from(result.is_err());
    (result, code)
}

fn lint_source(
    src: &str,
    mode: CheckerMode,
    format: LintFormat,
    deny_warnings: bool,
    trace: &Option<String>,
    metrics_json: bool,
) -> (Result<String, String>, i32) {
    let want = trace.is_some() || metrics_json;
    let mut sink = MemorySink::new();
    let opts = CheckerOptions::with_mode(mode);
    let checked = {
        let mut tracer = if want {
            Tracer::new(&mut sink)
        } else {
            Tracer::off()
        };
        match fearless_core::check_source_traced(src, &opts, &mut tracer) {
            Ok(c) => c,
            Err(e) => return (Err(e.render(src)), 1),
        }
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
        sink.add("lint.recheck_cache_hits", report.stats.recheck_cache_hits);
        sink.add(
            "lint.recheck_cache_misses",
            report.stats.recheck_cache_misses,
        );
        sink.span_exit();
    }
    let out = match format {
        LintFormat::Human => report.render_human(src),
        LintFormat::Json => report.to_json(src),
    };
    let out = match finish_trace(&sink, trace.as_deref(), metrics_json, out) {
        Ok(o) => o,
        Err(e) => return (Err(e), 1),
    };
    let code = i32::from(deny_warnings && !report.is_clean());
    (Ok(out), code)
}

/// Writes the trace file (when requested) and picks the final stdout
/// payload: the trace JSON under `--metrics json`, the normal report
/// otherwise.
fn finish_trace(
    sink: &MemorySink,
    trace: Option<&str>,
    metrics_json: bool,
    normal: String,
) -> Result<String, String> {
    if let Some(path) = trace {
        std::fs::write(path, sink.to_json())
            .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
    }
    if metrics_json {
        Ok(sink.to_json())
    } else {
        Ok(normal)
    }
}

fn execute_plain(cmd: &Command, src: &str) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Table1 => Ok(fearless_baselines::render_table1()),
        Command::Synth {
            seed,
            functions,
            boxes,
            max_ops,
            window,
            out,
        } => {
            let opts = fearless_synth::SynthOptions {
                seed: *seed,
                functions: *functions,
                boxes: *boxes,
                max_ops: *max_ops,
                window: *window,
            };
            let source = fearless_synth::synthesize(&opts);
            match out {
                Some(path) => {
                    std::fs::write(path, &source)
                        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                    Ok(format!(
                        "synthesized {} bytes (seed {seed}, {functions} generated functions) to {path}\n",
                        source.len()
                    ))
                }
                None => Ok(source),
            }
        }
        Command::Check {
            corpus,
            mode,
            no_oracle,
            jobs,
            cache,
            trace,
            metrics_json,
            obs,
            trace_out,
            ..
        } => {
            let mut opts = CheckerOptions::with_mode(*mode);
            opts.liveness_oracle = !no_oracle;
            check_command(
                src,
                *corpus,
                &opts,
                *jobs,
                cache.as_deref(),
                trace,
                *metrics_json,
                obs.as_deref(),
                trace_out.as_deref(),
            )
        }
        Command::Chaos {
            mode,
            corpus,
            seeds,
            faults,
            fuel,
            sanitize,
            flow_facts,
            crosscheck,
            json,
            cases,
            seed,
            dir,
            out,
            watchdog,
            ..
        } => {
            let opts = ChaosOptions {
                seeds: *seeds,
                faults: *faults,
                fuel: *fuel,
                sanitize: *sanitize,
                flow_facts: *flow_facts,
                crosscheck: *crosscheck,
            };
            chaos_command(
                src,
                *mode,
                *corpus,
                &opts,
                *json,
                *cases,
                *seed,
                dir.as_deref(),
                out.as_deref(),
                *watchdog,
            )
        }
        Command::Explain { func, .. } => {
            let checked = fearless_core::check_source(src, &CheckerOptions::default())
                .map_err(|e| e.render(src))?;
            let derivation = checked
                .derivations
                .iter()
                .find(|d| d.func.as_str() == func)
                .ok_or_else(|| format!("no function `{func}`"))?;
            Ok(derivation.render())
        }
        Command::Verify { .. } => {
            let checked = fearless_core::check_source(src, &CheckerOptions::default())
                .map_err(|e| e.render(src))?;
            let report = fearless_verify::verify_program(&checked).map_err(|e| e.to_string())?;
            Ok(format!(
                "verified: {} function(s), {} rule nodes, {} TS1 steps replayed\n",
                report.functions, report.rule_nodes, report.vir_steps
            ))
        }
        Command::Lint {
            mode,
            format,
            deny_warnings,
            trace,
            metrics_json,
            ..
        } => lint_source(src, *mode, *format, *deny_warnings, trace, *metrics_json).0,
        Command::Run {
            entry,
            args,
            unchecked,
            sanitize,
            flow_facts,
            trace,
            metrics_json,
            obs,
            trace_out,
            ..
        } => {
            let want = trace.is_some() || *metrics_json || obs.is_some() || trace_out.is_some();
            let mut sink = MemorySink::new();
            if !unchecked {
                let mut tracer = if want {
                    Tracer::new(&mut sink)
                } else {
                    Tracer::off()
                };
                fearless_core::check_source_traced(src, &CheckerOptions::default(), &mut tracer)
                    .map_err(|e| e.render(src))?;
            }
            let program = fearless_syntax::parse_program(src).map_err(|e| e.render(src))?;
            let config = MachineConfig {
                sanitize_domination: *sanitize,
                ..MachineConfig::default()
            };
            let mut machine = Machine::with_config(&program, config).map_err(|e| e.to_string())?;
            if *flow_facts {
                let compiled = fearless_runtime::compile(&program).map_err(|e| e.to_string())?;
                machine.set_flow_index(fearless_flow::analyze_compiled(&compiled).index());
            }
            let values = args.iter().map(|&n| Value::Int(n)).collect();
            let (result, sink) = if want {
                sink.span_enter("run", entry);
                machine.set_trace_sink(Box::new(sink));
                let result = machine.call(entry, values).map_err(|e| e.to_string())?;
                machine.emit_stats();
                let mut sink = *machine
                    .take_trace_sink()
                    .expect("sink installed above")
                    .into_any()
                    .downcast::<MemorySink>()
                    .expect("sink is a MemorySink");
                sink.span_exit();
                (result, sink)
            } else {
                let result = machine.call(entry, values).map_err(|e| e.to_string())?;
                (result, sink)
            };
            let stats = machine.stats();
            let mut out = format!(
                "{entry}(…) = {result}\n{} steps, {} allocations, {} field reads, {} field \
                 writes, {} reservation checks\n",
                stats.steps,
                stats.allocs,
                stats.field_reads,
                stats.field_writes,
                stats.reservation_checks
            );
            if *sanitize {
                let _ = writeln!(
                    out,
                    "domination sanitizer: {} iso edge(s) checked, all dominating",
                    stats.sanitize_checks
                );
                if *flow_facts {
                    let _ = writeln!(
                        out,
                        "flow facts: {} walk(s) skipped, {} partial walk(s)",
                        stats.sanitize_skipped, stats.sanitize_partial_walks
                    );
                }
            }
            write_run_obs(
                &sink,
                machine.lanes(),
                stats,
                obs.as_deref(),
                trace_out.as_deref(),
            )?;
            finish_trace(&sink, trace.as_deref(), *metrics_json, out)
        }
        Command::Report {
            serve,
            corpus,
            entry,
            args,
            sanitize,
            flow_facts,
            json,
            obs,
            trace_out,
            ..
        } => {
            if let Some(journal_path) = serve {
                let text = load_source(journal_path).map_err(|(m, _)| m)?;
                return fearless_serve::render_serve_report(&text);
            }
            report_command(
                src,
                *corpus,
                entry.as_deref(),
                args,
                *sanitize,
                *flow_facts,
                *json,
                obs.as_deref(),
                trace_out.as_deref(),
            )
        }
        Command::Serve {
            socket,
            workers,
            queue,
            cache,
            retry_after,
            once,
        } => {
            let socket = std::path::PathBuf::from(socket);
            if *once {
                return fearless_serve::self_test(&socket);
            }
            let mut opts = fearless_serve::ServeOptions::new(&socket);
            opts.workers = *workers;
            opts.queue_capacity = *queue;
            opts.cache_dir = cache.as_ref().map(std::path::PathBuf::from);
            opts.retry_after_millis = *retry_after;
            let server = fearless_serve::Server::bind(opts)?;
            server.run()
        }
        Command::ServeBench {
            socket,
            clients,
            requests,
            bodies,
            seed,
            shed_extra,
            obs,
            out,
        } => {
            let opts = fearless_serve::BenchOptions {
                socket: std::path::PathBuf::from(socket),
                clients: *clients,
                requests: *requests,
                bodies: *bodies,
                seed: *seed,
                shed_extra: *shed_extra,
            };
            let outcome = fearless_serve::run_bench(&opts)?;
            if let Some(path) = obs {
                std::fs::write(path, &outcome.journal_text)
                    .map_err(|e| format!("cannot write journal `{path}`: {e}"))?;
            }
            if let Some(path) = out {
                std::fs::write(path, &outcome.bench_text)
                    .map_err(|e| format!("cannot write bench document `{path}`: {e}"))?;
            }
            Ok(outcome.summary)
        }
        Command::Client {
            socket,
            kind,
            deadline,
            retries,
            stale_ok,
            ..
        } => {
            let mut client = fearless_serve::Client::connect(std::path::Path::new(socket))?;
            let mut req = fearless_serve::Request::new(kind.clone(), src);
            req.deadline_millis = *deadline;
            req.allow_stale = *stale_ok;
            let response = match retries {
                Some(n) => {
                    let policy = fearless_serve::RetryPolicy {
                        max_retries: *n,
                        ..fearless_serve::RetryPolicy::new()
                    };
                    client.send_with_retry(&req, policy)?.0
                }
                None => client.send(&req)?,
            };
            if response.code == 0 {
                Ok(response.output)
            } else {
                Err(response.output)
            }
        }
        Command::BenchDiff {
            old,
            new,
            threshold_pct,
            json,
        } => {
            let old_text = load_source(old).map_err(|(m, _)| m)?;
            let new_text = load_source(new).map_err(|(m, _)| m)?;
            bench_diff_command(&old_text, &new_text, *threshold_pct, *json)
        }
        Command::StripNondet { path } => {
            let text = load_source(path).map_err(|(m, _)| m)?;
            strip_nondet_command(&text)
        }
        Command::Flow { corpus, cache, .. } => flow_command(src, *corpus, cache.as_deref()),
        Command::Profile {
            path,
            corpus,
            wall_time,
            metrics_json,
            cache,
        } => {
            if *corpus {
                profile_corpus(*wall_time, *metrics_json, cache.as_deref())
            } else {
                let label = path.as_deref().unwrap_or("<source>");
                let mut disk = cache.as_deref().map(DiskCache::load);
                let mut stats = CacheStats::default();
                let sink = profile_source(src, "", disk.as_mut(), &mut stats)?;
                save_cache(&disk)?;
                if *metrics_json {
                    // Wall time serializes only under `_nondet`-tagged
                    // keys, which `strip-nondet` removes for CI diffs.
                    Ok(sink.to_json_value_opts(*wall_time).render())
                } else {
                    let mut out = render_profile(&sink, label, *wall_time);
                    if cache.is_some() {
                        let _ = writeln!(out, "{}", render_cache_line(&stats));
                    }
                    Ok(out)
                }
            }
        }
    }
}

/// Runs `fearlessc check` through the `fearless-incr` driver (which all
/// check invocations use, so serial, parallel, cold, and warm runs share
/// one code path and one output format).
#[allow(clippy::too_many_arguments)]
fn check_command(
    src: &str,
    corpus: bool,
    opts: &CheckerOptions,
    jobs: usize,
    cache: Option<&str>,
    trace: &Option<String>,
    metrics_json: bool,
    obs: Option<&str>,
    trace_out: Option<&str>,
) -> Result<String, String> {
    let want = trace.is_some() || metrics_json || obs.is_some() || trace_out.is_some();
    let mut sink = MemorySink::new();
    let mut disk = cache.map(DiskCache::load);

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

    let run = {
        let mut tracer = if want {
            Tracer::new(&mut sink)
        } else {
            Tracer::off()
        };
        fearless_incr::check_units(&units, opts, jobs, disk.as_mut(), &mut tracer)
    };
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
    if cache.is_some() {
        let _ = writeln!(out, "{}", render_cache_line(&run.stats));
    }
    if let Some(path) = obs {
        let journal = fearless_obs::Journal::from_check_sink(&sink);
        std::fs::write(path, journal.render())
            .map_err(|e| format!("cannot write journal `{path}`: {e}"))?;
    }
    if let Some(path) = trace_out {
        let doc = fearless_obs::perfetto::document(fearless_obs::perfetto::check_events(&sink));
        std::fs::write(path, doc.render())
            .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
    }
    finish_trace(&sink, trace.as_deref(), metrics_json, out)
}

/// Default fuzz case count when neither `--cases` nor
/// `FEARLESS_FUZZ_CASES` is given.
const DEFAULT_FUZZ_CASES: u64 = 2_000;

/// Runs `fearlessc chaos`: the fault-injection layer's three drills.
/// Any oracle violation, escaped panic, or report divergence is an
/// `Err` (exit status 1) carrying the full report.
#[allow(clippy::too_many_arguments)]
fn chaos_command(
    src: &str,
    mode: ChaosMode,
    corpus: bool,
    opts: &ChaosOptions,
    json: bool,
    cases: Option<u64>,
    seed: u64,
    dir: Option<&str>,
    out: Option<&str>,
    watchdog: u64,
) -> Result<String, String> {
    match mode {
        ChaosMode::Schedules => {
            let report = if corpus {
                fearless_chaos::run_chaos(opts)
            } else {
                fearless_chaos::run_source_chaos(src, opts)?
            };
            let out = if json {
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
        ChaosMode::Fuzz => {
            let cases = cases
                .or_else(|| {
                    std::env::var("FEARLESS_FUZZ_CASES")
                        .ok()
                        .and_then(|v| v.parse().ok())
                })
                .unwrap_or(DEFAULT_FUZZ_CASES);
            let report = fearless_chaos::run_fuzz(cases, seed);
            let mut out = format!(
                "fuzz: {} case(s) from seed {seed}: {} parse reject(s), {} check reject(s), {} \
                 ran\n",
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
        ChaosMode::Drills => {
            let dir = dir.map(std::path::PathBuf::from).unwrap_or_else(|| {
                std::env::temp_dir().join(format!("fearless-chaos-drills-{}", std::process::id()))
            });
            let units = fearless_chaos::cache_chaos::corpus_units();
            let outcomes = fearless_chaos::run_cache_drills(&dir, &units, seed)?;
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
            // The two-process drill: racing save/load cycles must never
            // surface a recovery (the advisory lock + atomic rename +
            // checksum contract).
            let concurrency =
                fearless_chaos::run_concurrency_drill(&dir.join("concurrent"), &units, 4, 3)?;
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
                "drills: {} class(es) × 2 documents + concurrency, {recovered} recover(ies), seed \
                 {seed}",
                outcomes.len() / 2
            );
            if failed == 0 {
                Ok(out)
            } else {
                Err(out)
            }
        }
        ChaosMode::Serve => {
            let dir = dir.map(std::path::PathBuf::from).unwrap_or_else(|| {
                std::env::temp_dir().join(format!("fearless-wire-chaos-{}", std::process::id()))
            });
            // opts.seeds is the *count*; the actual drill seeds are
            // seed, seed+1, … so `--seed` shifts the whole sweep.
            let seed_list: Vec<u64> = (0..opts.seeds.max(1))
                .map(|i| seed.wrapping_add(i))
                .collect();
            let report = fearless_chaos::run_wire_drills(&dir, &seed_list, watchdog)?;
            if let Some(path) = out {
                std::fs::write(path, report.to_json())
                    .map_err(|e| format!("cannot write bench document `{path}`: {e}"))?;
            }
            if json {
                Ok(report.to_json())
            } else {
                Ok(report.render())
            }
        }
    }
}

/// Writes the runtime event journal and/or Perfetto trace for one
/// completed machine execution (no-op when neither path is requested).
fn write_run_obs(
    sink: &MemorySink,
    lanes: &[fearless_runtime::LaneStats],
    stats: &fearless_runtime::Stats,
    obs: Option<&str>,
    trace_out: Option<&str>,
) -> Result<(), String> {
    if let Some(path) = obs {
        let journal = fearless_obs::Journal::from_run(sink, lanes, stats);
        std::fs::write(path, journal.render())
            .map_err(|e| format!("cannot write journal `{path}`: {e}"))?;
    }
    if let Some(path) = trace_out {
        let mut events = fearless_obs::perfetto::check_events(sink);
        events.extend(fearless_obs::perfetto::run_events(sink, lanes));
        let doc = fearless_obs::perfetto::document(events);
        std::fs::write(path, doc.render())
            .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
    }
    Ok(())
}

/// Runs `fearlessc report`: execute a program (file mode) or the chaos
/// scenario corpus, then render the per-machine telemetry lanes as a
/// top-style table or machine JSON (`fearless-obs-report/1`).
#[allow(clippy::too_many_arguments)]
fn report_command(
    src: &str,
    corpus: bool,
    entry: Option<&str>,
    args: &[i64],
    sanitize: bool,
    flow_facts: bool,
    json: bool,
    obs: Option<&str>,
    trace_out: Option<&str>,
) -> Result<String, String> {
    if corpus {
        return report_corpus(json, obs, trace_out);
    }
    let entry = entry.ok_or("report <file> requires --entry <fn>")?;
    fearless_core::check_source(src, &CheckerOptions::default()).map_err(|e| e.render(src))?;
    let program = fearless_syntax::parse_program(src).map_err(|e| e.render(src))?;
    let config = MachineConfig {
        sanitize_domination: sanitize,
        ..MachineConfig::default()
    };
    let mut machine = Machine::with_config(&program, config).map_err(|e| e.to_string())?;
    if flow_facts {
        let compiled = fearless_runtime::compile(&program).map_err(|e| e.to_string())?;
        machine.set_flow_index(fearless_flow::analyze_compiled(&compiled).index());
    }
    machine.set_trace_sink(Box::new(MemorySink::new()));
    let values = args.iter().map(|&n| Value::Int(n)).collect();
    machine.call(entry, values).map_err(|e| e.to_string())?;
    let sink = *machine
        .take_trace_sink()
        .expect("sink installed above")
        .into_any()
        .downcast::<MemorySink>()
        .expect("sink is a MemorySink");
    write_run_obs(&sink, machine.lanes(), machine.stats(), obs, trace_out)?;
    if json {
        Ok(fearless_obs::report_json(entry, machine.stats(), machine.lanes()).render())
    } else {
        Ok(fearless_obs::render_report(
            entry,
            machine.stats(),
            machine.lanes(),
        ))
    }
}

/// `fearlessc report --corpus`: every chaos scenario under the default
/// deterministic round-robin schedule, with flow-amortized sanitizing
/// wherever the scenario admits the sanitizer oracle — so the lanes
/// show real mailbox depth, residence, and sanitizer cost attribution.
fn report_corpus(json: bool, obs: Option<&str>, trace_out: Option<&str>) -> Result<String, String> {
    let mut out = String::new();
    let mut json_entries = Vec::new();
    let mut journal_entries = Vec::new();
    let mut trace_events = Vec::new();
    for (i, scenario) in fearless_chaos::all_scenarios().iter().enumerate() {
        let config = MachineConfig {
            check_reservations: true,
            strategy: fearless_runtime::DisconnectStrategy::Differential,
            sanitize_domination: scenario.sanitize,
            ..MachineConfig::default()
        };
        let mut machine = Machine::from_compiled(scenario.program.clone(), config);
        machine.set_flow_index(fearless_flow::analyze_compiled(&scenario.program).index());
        machine.set_trace_sink(Box::new(MemorySink::new()));
        for sp in &scenario.spawns {
            machine
                .spawn(&sp.func, sp.values())
                .map_err(|e| format!("scenario `{}`: spawn {}: {e}", scenario.name, sp.func))?;
        }
        machine
            .run()
            .map_err(|e| format!("scenario `{}`: {e}", scenario.name))?;
        let sink = *machine
            .take_trace_sink()
            .expect("sink installed above")
            .into_any()
            .downcast::<MemorySink>()
            .expect("sink is a MemorySink");
        let stats = machine.stats();
        let lanes = machine.lanes();
        if json {
            json_entries.push(Json::obj([
                ("name", Json::str(scenario.name)),
                (
                    "report",
                    fearless_obs::report_json(scenario.name, stats, lanes),
                ),
            ]));
        } else {
            out.push_str(&fearless_obs::render_report(scenario.name, stats, lanes));
            out.push('\n');
        }
        if obs.is_some() {
            let journal = fearless_obs::Journal::from_run(&sink, lanes, stats);
            journal_entries.push(Json::obj([
                ("name", Json::str(scenario.name)),
                ("journal", journal.to_json_value()),
            ]));
        }
        if trace_out.is_some() {
            trace_events.extend(fearless_obs::perfetto::run_events_pid(
                &sink,
                lanes,
                2 + i as u64,
                scenario.name,
            ));
        }
    }
    if let Some(path) = obs {
        let doc = Json::obj([
            ("schema", Json::str("fearless-obs-corpus/1")),
            ("entries", Json::Arr(journal_entries)),
        ]);
        std::fs::write(path, doc.render())
            .map_err(|e| format!("cannot write journal `{path}`: {e}"))?;
    }
    if let Some(path) = trace_out {
        let doc = fearless_obs::perfetto::document(trace_events);
        std::fs::write(path, doc.render())
            .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
    }
    if json {
        Ok(Json::obj([
            ("schema", Json::str("fearless-obs-report-corpus/1")),
            ("entries", Json::Arr(json_entries)),
        ])
        .render())
    } else {
        Ok(out)
    }
}

/// Runs `fearlessc bench-diff`: compare two BENCH_*.json counter
/// documents. A regression beyond the threshold renders the report as
/// the error (exit status 1) — the CI gate.
fn bench_diff_command(
    old_text: &str,
    new_text: &str,
    threshold_pct: u64,
    json: bool,
) -> Result<String, String> {
    let old = fearless_incr::parse_json(old_text).ok_or("old document is not valid JSON")?;
    let new = fearless_incr::parse_json(new_text).ok_or("new document is not valid JSON")?;
    let report = fearless_obs::bench_diff(&old, &new, threshold_pct);
    let out = if json {
        report.to_json_value().render()
    } else {
        report.render()
    };
    if report.has_regressions() {
        Err(out)
    } else {
        Ok(out)
    }
}

/// Runs `fearlessc strip-nondet`: print the document with every
/// `_nondet`-tagged field removed.
fn strip_nondet_command(text: &str) -> Result<String, String> {
    let doc = fearless_incr::parse_json(text).ok_or("input is not valid JSON")?;
    Ok(fearless_obs::strip_nondet(&doc).render())
}

/// Runs `fearlessc flow`: check, compile, classify, and print the
/// per-function step-safety summaries as deterministic JSON. With
/// `--cache <dir>`, per-function summaries replay from `<dir>/flow.json`
/// keyed by the checker's function fingerprints — warm and cold runs
/// print byte-identical documents.
fn flow_command(src: &str, corpus: bool, cache: Option<&str>) -> Result<String, String> {
    let mut disk = cache.map(FlowCache::load);
    let opts = CheckerOptions::default();
    let flow_of = |src: &str, disk: &mut Option<FlowCache>| -> Result<ProgramFlow, String> {
        let checked = fearless_core::check_source(src, &opts).map_err(|e| e.render(src))?;
        match disk {
            Some(c) => {
                fearless_flow::analyze_checked_cached(&checked, c).map_err(|e| e.to_string())
            }
            None => fearless_flow::analyze_checked(&checked).map_err(|e| e.to_string()),
        }
    };
    let mut out = if corpus {
        let mut entries = Vec::new();
        for entry in fearless_corpus::accepted_entries() {
            let flow = flow_of(&entry.source, &mut disk)
                .map_err(|e| format!("corpus `{}`: {e}", entry.name))?;
            entries.push(Json::obj([
                ("name", Json::str(entry.name)),
                ("flow", flow.to_json_value()),
            ]));
        }
        Json::obj([
            ("schema", Json::str(fearless_flow::CORPUS_SCHEMA)),
            ("entries", Json::Arr(entries)),
        ])
        .render()
    } else {
        flow_of(src, &mut disk)?.to_json()
    };
    out.push('\n');
    if let Some(c) = &disk {
        c.save()?;
    }
    Ok(out)
}

fn save_cache(disk: &Option<DiskCache>) -> Result<(), String> {
    match disk {
        Some(d) => d.save(),
        None => Ok(()),
    }
}

fn render_cache_line(stats: &CacheStats) -> String {
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

/// Parses and checks `src` with a fresh [`MemorySink`] attached, producing
/// one `parse` span and one `check` span per function. With a cache the
/// check runs through the incremental driver (cache traffic accumulates
/// into `stats`); without one it runs the plain traced checker.
fn profile_source(
    src: &str,
    label: &str,
    disk: Option<&mut DiskCache>,
    stats: &mut CacheStats,
) -> Result<MemorySink, String> {
    let mut sink = MemorySink::new();
    sink.span_enter("parse", "program");
    let parsed = fearless_syntax::parse_program(src).map_err(|e| e.render(src));
    sink.span_exit();
    let program = parsed?;
    match disk {
        None => {
            fearless_core::check_program_traced(
                &program,
                &CheckerOptions::default(),
                &mut Tracer::new(&mut sink),
            )
            .map_err(|e| e.render(src))?;
        }
        Some(d) => {
            let units = vec![(label.to_string(), program)];
            let run = fearless_incr::check_units(
                &units,
                &CheckerOptions::default(),
                1,
                Some(d),
                &mut Tracer::new(&mut sink),
            );
            if let Some(e) = run.units[0].first_error() {
                return Err(e.render(src));
            }
            stats.absorb(&run.stats);
        }
    }
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

/// Profiles every accepted corpus entry (`fearlessc profile --corpus`).
fn profile_corpus(
    wall_time: bool,
    metrics_json: bool,
    cache: Option<&str>,
) -> Result<String, String> {
    let mut disk = cache.map(DiskCache::load);
    let mut stats = CacheStats::default();
    let mut sections = Vec::new();
    for entry in fearless_corpus::accepted_entries() {
        let sink = profile_source(&entry.source, entry.name, disk.as_mut(), &mut stats)
            .map_err(|e| format!("corpus `{}`: {e}", entry.name))?;
        sections.push((entry.name, sink));
    }
    save_cache(&disk)?;
    if metrics_json {
        let entries = sections
            .iter()
            .map(|(name, sink)| {
                Json::obj([
                    ("name", Json::str(*name)),
                    ("trace", sink.to_json_value_opts(wall_time)),
                ])
            })
            .collect();
        Ok(Json::obj([
            ("schema", Json::str("fearless-trace/corpus/1")),
            ("entries", Json::Arr(entries)),
        ])
        .render())
    } else {
        let mut out = String::new();
        for (name, sink) in &sections {
            out.push_str(&render_profile(sink, name, wall_time));
            out.push('\n');
        }
        if cache.is_some() {
            let _ = writeln!(out, "{}", render_cache_line(&stats));
        }
        Ok(out)
    }
}

/// Full driver: parse args, load the file, execute.
///
/// # Errors
///
/// Returns the message to print to stderr (exit status 1).
pub fn main_with(args: &[String]) -> Result<String, String> {
    main_with_code(args).0
}

/// Like [`main_with`], but also returns the process exit status (see
/// [`execute_on_source_with_code`]). File-loading failures get their
/// own statuses so scripts can tell them apart from diagnostics:
/// [`EXIT_MISSING_FILE`], [`EXIT_UNREADABLE`], [`EXIT_INVALID_UTF8`].
pub fn main_with_code(args: &[String]) -> (Result<String, String>, i32) {
    let cmd = match parse_args(args) {
        Ok(c) => c,
        Err(e) => return (Err(e), 1),
    };
    match &cmd {
        Command::Help
        | Command::Table1
        | Command::Profile { path: None, .. }
        | Command::Chaos { path: None, .. }
        | Command::Flow { path: None, .. }
        | Command::Check { path: None, .. }
        | Command::Report { path: None, .. }
        | Command::BenchDiff { .. }
        | Command::StripNondet { .. }
        | Command::Serve { .. }
        | Command::ServeBench { .. }
        | Command::Client { path: None, .. }
        | Command::Synth { .. } => execute_on_source_with_code(&cmd, ""),
        Command::Verify { path }
        | Command::Lint { path, .. }
        | Command::Explain { path, .. }
        | Command::Run { path, .. }
        | Command::Check {
            path: Some(path), ..
        }
        | Command::Profile {
            path: Some(path), ..
        }
        | Command::Flow {
            path: Some(path), ..
        }
        | Command::Chaos {
            path: Some(path), ..
        }
        | Command::Report {
            path: Some(path), ..
        }
        | Command::Client {
            path: Some(path), ..
        } => match load_source(path) {
            Ok(src) => execute_on_source_with_code(&cmd, &src),
            Err((msg, code)) => (Err(msg), code),
        },
    }
}

/// Reads an input file (`-` reads stdin, so `fearlessc synth | fearlessc
/// check - --jobs 4` pipes a synthesized corpus straight into the
/// checker), classifying failures into rendered diagnostics with
/// distinct exit statuses.
fn load_source(path: &str) -> Result<String, (String, i32)> {
    if path == "-" {
        let mut src = String::new();
        use std::io::Read as _;
        return std::io::stdin()
            .read_to_string(&mut src)
            .map(|_| src)
            .map_err(|e| (format!("error: cannot read stdin: {e}"), EXIT_UNREADABLE));
    }
    let bytes = std::fs::read(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            (
                format!("error: no such file `{path}`\n  = help: check the path (or use --corpus where supported)"),
                EXIT_MISSING_FILE,
            )
        } else {
            (format!("error: cannot read `{path}`: {e}"), EXIT_UNREADABLE)
        }
    })?;
    String::from_utf8(bytes).map_err(|e| {
        (
            format!(
                "error: `{path}` is not valid UTF-8 (invalid byte at offset {})\n  = help: \
                 fearless source files must be UTF-8 encoded",
                e.utf8_error().valid_up_to()
            ),
            EXIT_INVALID_UTF8,
        )
    })
}

/// Runs `f`, converting any escaping panic into a structured
/// internal-compiler-error diagnostic with status [`EXIT_ICE`]. This is
/// the last line of the panic-free-pipeline contract: user input must
/// never produce a raw backtrace.
pub fn catch_ice<F>(f: F) -> (Result<String, String>, i32)
where
    F: FnOnce() -> (Result<String, String>, i32) + std::panic::UnwindSafe,
{
    match std::panic::catch_unwind(f) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic payload".to_string());
            (
                Err(format!(
                    "internal error: the driver panicked: {msg}\n  = note: this is a bug in \
                     fearlessc, not in your program\n  = help: re-run with the same command line \
                     and attach the input file when reporting"
                )),
                EXIT_ICE,
            )
        }
    }
}

/// [`main_with_code`] behind the [`catch_ice`] boundary — what the
/// `fearlessc` binary actually calls.
pub fn main_guarded(args: &[String]) -> (Result<String, String>, i32) {
    catch_ice(|| main_with_code(args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(items: &[&str]) -> Vec<String> {
        items.iter().map(|x| x.to_string()).collect()
    }

    const PROGRAM: &str = "
        struct data { value: int }
        def double(n : int) : int { n * 2 }
        def make(v : int) : data { new data(v) }
    ";

    #[test]
    fn parses_check_flags() {
        let cmd = parse_args(&s(&[
            "check",
            "f.fc",
            "--mode",
            "gd",
            "--no-oracle",
            "--trace",
            "t.json",
            "--metrics",
            "json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Check {
                path: Some("f.fc".into()),
                corpus: false,
                mode: CheckerMode::GlobalDomination,
                no_oracle: true,
                jobs: 1,
                cache: None,
                trace: Some("t.json".into()),
                metrics_json: true,
                obs: None,
                trace_out: None,
            }
        );
    }

    #[test]
    fn parses_check_incremental_flags() {
        let cmd = parse_args(&s(&[
            "check", "--corpus", "--jobs", "4", "--cache", "/tmp/c",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Check {
                path: None,
                corpus: true,
                mode: CheckerMode::Tempered,
                no_oracle: false,
                jobs: 4,
                cache: Some("/tmp/c".into()),
                trace: None,
                metrics_json: false,
                obs: None,
                trace_out: None,
            }
        );
    }

    #[test]
    fn check_requires_file_xor_corpus_and_sane_jobs() {
        assert!(parse_args(&s(&["check"])).is_err());
        assert!(parse_args(&s(&["check", "f.fc", "--corpus"])).is_err());
        assert!(parse_args(&s(&["check", "f.fc", "--jobs", "0"])).is_err());
        assert!(parse_args(&s(&["check", "f.fc", "--jobs", "many"])).is_err());
        assert!(parse_args(&s(&["check", "f.fc", "--jobs"])).is_err());
    }

    #[test]
    fn parses_run() {
        let cmd = parse_args(&s(&[
            "run",
            "f.fc",
            "--entry",
            "main",
            "--arg",
            "3",
            "--sanitize-domination",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                path: "f.fc".into(),
                entry: "main".into(),
                args: vec![3],
                unchecked: false,
                sanitize: true,
                flow_facts: false,
                trace: None,
                metrics_json: false,
                obs: None,
                trace_out: None,
            }
        );
    }

    #[test]
    fn parses_flow() {
        let cmd = parse_args(&s(&["flow", "f.fc", "--cache", "/tmp/c"])).unwrap();
        assert_eq!(
            cmd,
            Command::Flow {
                path: Some("f.fc".into()),
                corpus: false,
                cache: Some("/tmp/c".into())
            }
        );
        assert!(parse_args(&s(&["flow"])).is_err());
        assert!(parse_args(&s(&["flow", "f.fc", "--corpus"])).is_err());
    }

    #[test]
    fn parses_chaos_flow_flags() {
        let cmd = parse_args(&s(&["chaos", "--corpus", "--crosscheck"])).unwrap();
        match cmd {
            Command::Chaos {
                flow_facts,
                crosscheck,
                ..
            } => {
                assert!(flow_facts, "--crosscheck implies --flow-facts");
                assert!(crosscheck);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_lint_flags() {
        let cmd = parse_args(&s(&["lint", "f.fc", "--format", "json", "--deny-warnings"])).unwrap();
        assert_eq!(
            cmd,
            Command::Lint {
                path: "f.fc".into(),
                mode: CheckerMode::Tempered,
                format: LintFormat::Json,
                deny_warnings: true,
                trace: None,
                metrics_json: false,
            }
        );
    }

    #[test]
    fn parses_profile() {
        let cmd = parse_args(&s(&["profile", "--corpus", "--wall-time"])).unwrap();
        assert_eq!(
            cmd,
            Command::Profile {
                path: None,
                corpus: true,
                wall_time: true,
                metrics_json: false,
                cache: None
            }
        );
        let cmd = parse_args(&s(&[
            "profile",
            "f.fc",
            "--metrics",
            "json",
            "--cache",
            "/tmp/c",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Profile {
                path: Some("f.fc".into()),
                corpus: false,
                wall_time: false,
                metrics_json: true,
                cache: Some("/tmp/c".into())
            }
        );
    }

    #[test]
    fn profile_requires_file_xor_corpus() {
        assert!(parse_args(&s(&["profile"])).is_err());
        assert!(parse_args(&s(&["profile", "f.fc", "--corpus"])).is_err());
    }

    #[test]
    fn rejects_bad_metrics_format() {
        assert!(parse_args(&s(&["check", "f.fc", "--metrics", "xml"])).is_err());
        assert!(parse_args(&s(&["check", "f.fc", "--metrics"])).is_err());
    }

    #[test]
    fn rejects_unknown_command() {
        assert!(parse_args(&s(&["frobnicate"])).is_err());
    }

    fn check_cmd() -> Command {
        Command::Check {
            path: Some(String::new()),
            corpus: false,
            mode: CheckerMode::Tempered,
            no_oracle: false,
            jobs: 1,
            cache: None,
            trace: None,
            metrics_json: false,
            obs: None,
            trace_out: None,
        }
    }

    #[test]
    fn check_and_run_roundtrip() {
        let out = execute_on_source(&check_cmd(), PROGRAM).unwrap();
        assert!(out.contains("ok:"), "{out}");
        let run = Command::Run {
            path: String::new(),
            entry: "double".into(),
            args: vec![21],
            unchecked: false,
            sanitize: false,
            flow_facts: false,
            trace: None,
            metrics_json: false,
            obs: None,
            trace_out: None,
        };
        let out = execute_on_source(&run, PROGRAM).unwrap();
        assert!(out.contains("= 42"), "{out}");
    }

    #[test]
    fn check_failure_renders_source() {
        let err = execute_on_source(&check_cmd(), "def f(x: int) : bool { x }").unwrap_err();
        assert!(err.contains("type error"), "{err}");
        assert!(err.contains('^'), "{err}");
    }

    #[test]
    fn explain_renders_derivation() {
        let cmd = Command::Explain {
            path: String::new(),
            func: "make".into(),
        };
        let out = execute_on_source(&cmd, PROGRAM).unwrap();
        assert!(out.contains("derivation for `make`"), "{out}");
        assert!(out.contains("New"), "{out}");
        assert!(out.contains("result: r"), "{out}");
    }

    #[test]
    fn table1_renders() {
        let out = execute_on_source(&Command::Table1, "").unwrap();
        assert!(out.contains("dll-repr"));
    }

    fn lint_cmd(format: LintFormat, deny_warnings: bool) -> Command {
        Command::Lint {
            path: String::new(),
            mode: CheckerMode::Tempered,
            format,
            deny_warnings,
            trace: None,
            metrics_json: false,
        }
    }

    const LINTY: &str = "
        struct data { value: int }
        def peek(d : data) : int pinned d { d.value }
    ";

    #[test]
    fn lint_reports_findings_without_deny_exits_zero() {
        let (result, code) =
            execute_on_source_with_code(&lint_cmd(LintFormat::Human, false), LINTY);
        let out = result.unwrap();
        assert!(out.contains("FA002"), "{out}");
        assert_eq!(code, 0);
    }

    #[test]
    fn lint_deny_warnings_exits_nonzero_on_findings() {
        let (result, code) = execute_on_source_with_code(&lint_cmd(LintFormat::Json, true), LINTY);
        let out = result.unwrap();
        assert!(out.contains("\"code\": \"FA002\""), "{out}");
        assert_eq!(code, 1);
    }

    #[test]
    fn lint_deny_warnings_exits_zero_when_clean() {
        let (result, code) = execute_on_source_with_code(
            &lint_cmd(LintFormat::Json, true),
            "def add(a : int, b : int) : int { a + b }",
        );
        assert!(result.unwrap().contains("\"lints\": []"));
        assert_eq!(code, 0);
    }

    #[test]
    fn lint_on_ill_typed_program_is_an_error() {
        let (result, code) = execute_on_source_with_code(
            &lint_cmd(LintFormat::Human, false),
            "def f() : int { true }",
        );
        assert!(result.is_err());
        assert_eq!(code, 1);
    }

    #[test]
    fn run_with_sanitizer_reports_checked_edges() {
        let run = Command::Run {
            path: String::new(),
            entry: "make".into(),
            args: vec![5],
            unchecked: false,
            sanitize: true,
            flow_facts: false,
            trace: None,
            metrics_json: false,
            obs: None,
            trace_out: None,
        };
        let out = execute_on_source(&run, PROGRAM).unwrap();
        assert!(out.contains("domination sanitizer"), "{out}");
    }

    #[test]
    fn check_metrics_json_is_deterministic() {
        let cmd = Command::Check {
            path: Some(String::new()),
            corpus: false,
            mode: CheckerMode::Tempered,
            no_oracle: false,
            jobs: 1,
            cache: None,
            trace: None,
            metrics_json: true,
            obs: None,
            trace_out: None,
        };
        let a = execute_on_source(&cmd, PROGRAM).unwrap();
        let b = execute_on_source(&cmd, PROGRAM).unwrap();
        assert_eq!(a, b, "metrics JSON must be byte-identical across runs");
        assert!(a.contains("\"fearless-trace/1\""), "{a}");
        assert!(a.contains("\"check.deriv_nodes\""), "{a}");
        assert!(!a.contains("nanos"), "wall-clock must never leak: {a}");
    }

    #[test]
    fn run_metrics_json_has_check_and_run_spans() {
        let cmd = Command::Run {
            path: String::new(),
            entry: "double".into(),
            args: vec![21],
            unchecked: false,
            sanitize: false,
            flow_facts: false,
            trace: None,
            metrics_json: true,
            obs: None,
            trace_out: None,
        };
        let a = execute_on_source(&cmd, PROGRAM).unwrap();
        let b = execute_on_source(&cmd, PROGRAM).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"phase\": \"check\""), "{a}");
        assert!(a.contains("\"phase\": \"run\""), "{a}");
        assert!(a.contains("\"steps\""), "{a}");
        assert!(a.contains("\"reservation_failures\""), "{a}");
    }

    #[test]
    fn lint_metrics_json_replaces_report() {
        let cmd = Command::Lint {
            path: String::new(),
            mode: CheckerMode::Tempered,
            format: LintFormat::Human,
            deny_warnings: false,
            trace: None,
            metrics_json: true,
        };
        let (result, code) = execute_on_source_with_code(&cmd, LINTY);
        let out = result.unwrap();
        assert!(out.contains("\"lint.findings\": 1"), "{out}");
        assert!(!out.contains("FA002"), "{out}");
        assert_eq!(code, 0);
    }

    #[test]
    fn trace_flag_writes_file() {
        let path = std::env::temp_dir().join(format!(
            "fearless-cli-trace-test-{}.json",
            std::process::id()
        ));
        let cmd = Command::Check {
            path: Some(String::new()),
            corpus: false,
            mode: CheckerMode::Tempered,
            no_oracle: false,
            jobs: 1,
            cache: None,
            trace: Some(path.to_string_lossy().into_owned()),
            metrics_json: false,
            obs: None,
            trace_out: None,
        };
        let out = execute_on_source(&cmd, PROGRAM).unwrap();
        assert!(out.contains("ok:"), "{out}");
        let written = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(written.contains("\"fearless-trace/1\""), "{written}");
    }

    #[test]
    fn profile_renders_table() {
        let cmd = Command::Profile {
            path: Some("demo.fc".into()),
            corpus: false,
            wall_time: false,
            metrics_json: false,
            cache: None,
        };
        let a = execute_on_source(&cmd, PROGRAM).unwrap();
        let b = execute_on_source(&cmd, PROGRAM).unwrap();
        assert_eq!(a, b, "profile table must be deterministic");
        assert!(a.contains("profile: demo.fc"), "{a}");
        assert!(a.contains("double"), "{a}");
        assert!(a.contains("make"), "{a}");
        assert!(a.contains("backtrk"), "{a}");
        assert!(a.lines().last().unwrap().starts_with("total"), "{a}");
    }

    #[test]
    fn profile_corpus_metrics_json_is_deterministic() {
        let cmd = Command::Profile {
            path: None,
            corpus: true,
            wall_time: false,
            metrics_json: true,
            cache: None,
        };
        let a = execute_on_source(&cmd, "").unwrap();
        let b = execute_on_source(&cmd, "").unwrap();
        assert_eq!(a, b, "corpus metrics must be byte-identical across runs");
        assert!(a.contains("\"fearless-trace/corpus/1\""), "{a}");
        for entry in fearless_corpus::accepted_entries() {
            assert!(
                a.contains(entry.name),
                "missing corpus entry {}",
                entry.name
            );
        }
    }

    fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fearless-cli-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn parallel_check_matches_serial_byte_for_byte() {
        let check_with_jobs = |jobs: usize| Command::Check {
            path: None,
            corpus: true,
            mode: CheckerMode::Tempered,
            no_oracle: false,
            jobs,
            cache: None,
            trace: None,
            metrics_json: true,
            obs: None,
            trace_out: None,
        };
        let serial = check_with_jobs(1);
        let parallel = check_with_jobs(4);
        let a = execute_on_source(&serial, "").unwrap();
        let b = execute_on_source(&parallel, "").unwrap();
        assert_eq!(a, b, "metrics must not depend on the job count");
    }

    #[test]
    fn warm_check_output_is_byte_identical_to_cold() {
        let dir = temp_cache_dir("warm");
        let cmd = Command::Check {
            path: Some(String::new()),
            corpus: false,
            mode: CheckerMode::Tempered,
            no_oracle: false,
            jobs: 1,
            cache: Some(dir.to_string_lossy().into_owned()),
            trace: None,
            metrics_json: false,
            obs: None,
            trace_out: None,
        };
        let cold = execute_on_source(&cmd, PROGRAM).unwrap();
        assert!(dir.join("check-cache.json").is_file(), "cache persisted");
        let warm = execute_on_source(&cmd, PROGRAM).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        // The `cache:` summary line intentionally reflects warmth (hits
        // change between the runs); everything else must be identical.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("cache:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip(&cold),
            strip(&warm),
            "cache warmth must not change the report"
        );
        assert!(cold.contains("ok: 2 function(s)"), "{cold}");
        assert!(cold.contains("cache: "), "{cold}");
        assert!(warm.contains("hit(s)"), "{warm}");
    }

    #[test]
    fn check_corpus_reports_expected_rejections() {
        let cmd = Command::Check {
            path: None,
            corpus: true,
            mode: CheckerMode::Tempered,
            no_oracle: false,
            jobs: 2,
            cache: None,
            trace: None,
            metrics_json: false,
            obs: None,
            trace_out: None,
        };
        let out = execute_on_source(&cmd, "").unwrap();
        for entry in fearless_corpus::all_entries() {
            assert!(out.contains(entry.name), "missing {}: {out}", entry.name);
            if !entry.accepted {
                assert!(
                    out.contains(&format!("{}: rejected (expected)", entry.name)),
                    "{out}"
                );
            }
        }
        assert!(out.contains("corpus:"), "{out}");
    }

    #[test]
    fn check_type_errors_replay_identically_from_cache() {
        let dir = temp_cache_dir("err");
        let cmd = Command::Check {
            path: Some(String::new()),
            corpus: false,
            mode: CheckerMode::Tempered,
            no_oracle: false,
            jobs: 1,
            cache: Some(dir.to_string_lossy().into_owned()),
            trace: None,
            metrics_json: false,
            obs: None,
            trace_out: None,
        };
        let bad = "def f(x: int) : bool { x }";
        let cold = execute_on_source(&cmd, bad).unwrap_err();
        let warm = execute_on_source(&cmd, bad).unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(cold, warm);
        assert!(cold.contains("type error"), "{cold}");
    }

    #[test]
    fn flow_dumps_deterministic_summaries() {
        let cmd = Command::Flow {
            path: Some(String::new()),
            corpus: false,
            cache: None,
        };
        let a = execute_on_source(&cmd, PROGRAM).unwrap();
        let b = execute_on_source(&cmd, PROGRAM).unwrap();
        assert_eq!(a, b, "flow JSON must be byte-identical across runs");
        assert!(a.contains("\"schema\": \"fearless-flow/1\""), "{a}");
        assert!(a.contains("\"name\": \"double\""), "{a}");
        assert!(a.contains("\"totals\""), "{a}");
    }

    #[test]
    fn flow_corpus_covers_every_accepted_entry() {
        let cmd = Command::Flow {
            path: None,
            corpus: true,
            cache: None,
        };
        let a = execute_on_source(&cmd, "").unwrap();
        let b = execute_on_source(&cmd, "").unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"fearless-flow-corpus/1\""), "{a}");
        for entry in fearless_corpus::accepted_entries() {
            assert!(a.contains(entry.name), "missing {}", entry.name);
        }
    }

    #[test]
    fn flow_cache_warm_run_is_byte_identical_to_cold() {
        let dir = temp_cache_dir("flow");
        let cached = Command::Flow {
            path: Some(String::new()),
            corpus: false,
            cache: Some(dir.to_string_lossy().into_owned()),
        };
        let uncached = Command::Flow {
            path: Some(String::new()),
            corpus: false,
            cache: None,
        };
        let cold = execute_on_source(&cached, PROGRAM).unwrap();
        assert!(dir.join("flow.json").is_file(), "cache persisted");
        let warm = execute_on_source(&cached, PROGRAM).unwrap();
        let plain = execute_on_source(&uncached, PROGRAM).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(cold, warm, "cache warmth must not change the document");
        assert_eq!(cold, plain, "the cache must not change the document");
    }

    #[test]
    fn run_with_flow_facts_reports_skips() {
        let src = "
            struct data { value: int }
            def bump(d : data) : unit { d.value = d.value + 1; }
            def main(n : int) : int {
              let d = new data(n);
              bump(d); bump(d);
              d.value
            }
        ";
        let run = Command::Run {
            path: String::new(),
            entry: "main".into(),
            args: vec![5],
            unchecked: false,
            sanitize: true,
            flow_facts: true,
            trace: None,
            metrics_json: false,
            obs: None,
            trace_out: None,
        };
        let out = execute_on_source(&run, src).unwrap();
        assert!(out.contains("= 7"), "{out}");
        assert!(out.contains("flow facts:"), "{out}");
        // The scalar field writes are statically safe: at least one walk
        // must have been skipped.
        let skips: u64 = out
            .lines()
            .find(|l| l.starts_with("flow facts:"))
            .and_then(|l| l.split_whitespace().nth(2))
            .and_then(|n| n.parse().ok())
            .unwrap();
        assert!(skips > 0, "{out}");
    }

    #[test]
    fn profile_cache_reports_hits_on_the_second_run() {
        let dir = temp_cache_dir("profile");
        let cmd = Command::Profile {
            path: Some("demo.fc".into()),
            corpus: false,
            wall_time: false,
            metrics_json: false,
            cache: Some(dir.to_string_lossy().into_owned()),
        };
        let cold = execute_on_source(&cmd, PROGRAM).unwrap();
        let warm = execute_on_source(&cmd, PROGRAM).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            cold.contains("cache: 0 hit(s), 2 miss(es), 0 invalidation(s)"),
            "{cold}"
        );
        assert!(
            warm.contains("cache: 2 hit(s), 0 miss(es), 0 invalidation(s)"),
            "{warm}"
        );
        // Apart from the cache line, the table itself is identical.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("cache:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&cold), strip(&warm));
    }

    #[test]
    fn check_cache_prints_cache_summary_line() {
        let dir = temp_cache_dir("summary");
        let cmd = Command::Check {
            path: Some(String::new()),
            corpus: false,
            mode: CheckerMode::Tempered,
            no_oracle: false,
            jobs: 1,
            cache: Some(dir.to_string_lossy().into_owned()),
            trace: None,
            metrics_json: false,
            obs: None,
            trace_out: None,
        };
        let cold = execute_on_source(&cmd, PROGRAM).unwrap();
        let warm = execute_on_source(&cmd, PROGRAM).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            cold.contains("cache: 0 hit(s), 2 miss(es), 0 invalidation(s)"),
            "{cold}"
        );
        assert!(
            warm.contains("cache: 2 hit(s), 0 miss(es), 0 invalidation(s)"),
            "{warm}"
        );
    }

    fn temp_file(tag: &str, contents: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("fearless-cli-obs-{tag}-{}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    /// The journal satellite's core acceptance criterion: the `--obs`
    /// journal is byte-identical across cold/warm (cache) and
    /// serial/parallel (jobs) corpus checks.
    #[test]
    fn obs_journal_is_byte_identical_across_warmth_and_jobs() {
        let dir = temp_cache_dir("obs-journal");
        let journal = |jobs: usize, cache: Option<&std::path::Path>| {
            let path = std::env::temp_dir().join(format!(
                "fearless-cli-obs-journal-{jobs}-{}-{}.json",
                cache.is_some(),
                std::process::id()
            ));
            let cmd = Command::Check {
                path: None,
                corpus: true,
                mode: CheckerMode::Tempered,
                no_oracle: false,
                jobs,
                cache: cache.map(|c| c.to_string_lossy().into_owned()),
                trace: None,
                metrics_json: false,
                obs: Some(path.to_string_lossy().into_owned()),
                trace_out: None,
            };
            execute_on_source(&cmd, "").unwrap();
            let out = std::fs::read_to_string(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            out
        };
        let serial = journal(1, None);
        let parallel = journal(4, None);
        let cold = journal(1, Some(&dir));
        let warm = journal(1, Some(&dir));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(serial.contains("\"fearless-obs/1\""), "{serial}");
        assert_eq!(serial, parallel, "journal must not depend on job count");
        assert_eq!(cold, warm, "journal must not depend on cache warmth");
        assert_eq!(serial, cold, "journal must not depend on caching at all");
    }

    #[test]
    fn run_trace_out_writes_perfetto_document() {
        let path = std::env::temp_dir().join(format!(
            "fearless-cli-obs-perfetto-{}.json",
            std::process::id()
        ));
        let cmd = Command::Run {
            path: String::new(),
            entry: "double".into(),
            args: vec![21],
            unchecked: false,
            sanitize: false,
            flow_facts: false,
            trace: None,
            metrics_json: false,
            obs: None,
            trace_out: Some(path.to_string_lossy().into_owned()),
        };
        let out = execute_on_source(&cmd, PROGRAM).unwrap();
        assert!(out.contains("= 42"), "{out}");
        let written = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(written.contains("\"traceEvents\""), "{written}");
        assert!(written.contains("thread_name"), "{written}");
    }

    #[test]
    fn report_corpus_covers_every_scenario_and_is_deterministic() {
        let cmd = Command::Report {
            serve: None,
            path: None,
            corpus: true,
            entry: None,
            args: Vec::new(),
            sanitize: false,
            flow_facts: false,
            json: false,
            obs: None,
            trace_out: None,
        };
        let a = execute_on_source(&cmd, "").unwrap();
        let b = execute_on_source(&cmd, "").unwrap();
        assert_eq!(a, b, "report must be deterministic");
        for scenario in fearless_chaos::all_scenarios() {
            assert!(
                a.contains(&format!("report: {}", scenario.name)),
                "missing {}: {a}",
                scenario.name
            );
        }
        assert!(a.contains("peak_mb"), "{a}");
        assert!(
            a.lines().any(|l| l.trim_start().starts_with("total")),
            "{a}"
        );
    }

    #[test]
    fn bench_diff_gates_on_injected_regression() {
        let old = temp_file(
            "diff-old.json",
            "{\n  \"walks\": 100,\n  \"t_nondet\": 5\n}\n",
        );
        let new = temp_file(
            "diff-new.json",
            "{\n  \"walks\": 150,\n  \"t_nondet\": 900\n}\n",
        );
        let args: Vec<String> = ["bench-diff", old.to_str().unwrap(), new.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (result, code) = main_with_code(&args);
        assert_eq!(code, 1, "injected regression must exit nonzero");
        let rendered = result.unwrap_err();
        assert!(rendered.contains("REGRESSED"), "{rendered}");
        assert!(rendered.contains("walks"), "{rendered}");
        // The nondet counter is informational, never a regression.
        assert!(rendered.contains("info"), "{rendered}");

        // Identical documents pass with exit 0.
        let args: Vec<String> = ["bench-diff", old.to_str().unwrap(), old.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (result, code) = main_with_code(&args);
        let _ = std::fs::remove_file(&old);
        let _ = std::fs::remove_file(&new);
        assert_eq!(code, 0);
        assert!(result.unwrap().contains(": ok"), "diff must pass");
    }

    #[test]
    fn strip_nondet_removes_only_tagged_keys() {
        let input = temp_file(
            "strip.json",
            "{\n  \"steps\": 3,\n  \"wall_micros_nondet\": 99,\n  \"nested\": {\n    \"rate_nondet\": 1,\n    \"kept\": 2\n  }\n}\n",
        );
        let args: Vec<String> = ["strip-nondet", input.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (result, code) = main_with_code(&args);
        let _ = std::fs::remove_file(&input);
        assert_eq!(code, 0);
        let out = result.unwrap();
        assert!(!out.contains("nondet"), "{out}");
        assert!(out.contains("\"steps\": 3"), "{out}");
        assert!(out.contains("\"kept\": 2"), "{out}");
    }
}
