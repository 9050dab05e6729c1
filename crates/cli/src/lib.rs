//! # fearless-cli
//!
//! The `fearlessc` command-line driver: parse, check, verify, and run
//! programs written in the tempered-domination surface language.
//!
//! The synopsis of every command is [`USAGE`] (`fearlessc help`).
//! [`parse_args`] reads a command line through one flag table (the
//! `args` module): each flag is spelled and value-checked once, each
//! command lists the flags it accepts, and any other `--` token is an
//! error. Each command lives in its own module and executes from its
//! parsed struct; the four telemetry flags travel as one [`Telemetry`].
//!
//! The observability surface (`fearless-trace`) hangs off most commands:
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
//! N` fans independent per-function checks over a self-scheduling pool,
//! and `--cache <dir>` keeps a fingerprint-keyed result cache on disk.
//! Reports, diagnostics, and metrics stay byte-identical regardless of
//! job count or cache warmth (warmth is visible only in the dedicated
//! `cache` summary span and in `profile --cache`'s trailing line).

#![warn(missing_docs)]

mod args;
mod bench;
mod chaos;
mod check;
mod flow;
mod lint;
mod profile;
mod report;
mod run;
mod serve;
mod synth;
mod telemetry;

use fearless_synth::SynthOptions;

pub use args::{parse_args, Input};
pub use chaos::Chaos;
pub use check::Check;
pub use flow::Flow;
pub use lint::{Lint, LintFormat};
pub use profile::Profile;
pub use report::{Report, ReportSource};
pub use run::Run;
pub use serve::{Client, Serve, ServeBench};
pub use telemetry::Telemetry;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Type-check a file (or the whole corpus).
    Check(Check),
    /// Type-check and independently verify the derivations.
    Verify {
        /// Source path.
        path: String,
    },
    /// Run the static-analysis lint passes (`fearless-analyze`).
    Lint(Lint),
    /// Check, then run an entry function on the abstract machine.
    Run(Run),
    /// Per-machine runtime telemetry.
    Report(Report),
    /// Compare two BENCH_*.json counter documents against thresholds;
    /// exits nonzero on regression (`fearless-trace`).
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
    Flow(Flow),
    /// Print a per-function/per-phase counter table (checker
    /// instrumentation).
    Profile(Profile),
    /// Deterministic fault injection (`fearless-chaos`).
    Chaos(Chaos),
    /// Generate a seeded, deterministic well-typed program
    /// (`fearless-synth`; see docs/CORPUS.md).
    Synth {
        /// Generator knobs (same options ⇒ byte-identical output).
        options: SynthOptions,
        /// Write the program here instead of stdout.
        out: Option<String>,
    },
    /// Run the compiler-as-a-service daemon (`fearless-serve`).
    Serve(Serve),
    /// Drive a running daemon with the seeded load generator.
    ServeBench(ServeBench),
    /// Send one request to a running daemon and print the response body.
    Client(Client),
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

impl Command {
    /// The program file this command reads its source from (`-` is
    /// stdin), if any.
    pub fn source_path(&self) -> Option<&str> {
        match self {
            Command::Check(Check { input, .. })
            | Command::Flow(Flow { input, .. })
            | Command::Profile(Profile { input, .. })
            | Command::Chaos(Chaos::Schedules { input, .. }) => input.path(),
            Command::Verify { path }
            | Command::Explain { path, .. }
            | Command::Lint(Lint { path, .. })
            | Command::Run(Run { path, .. })
            | Command::Report(Report {
                source: ReportSource::Program { path, .. },
                ..
            }) => Some(path),
            Command::Client(client) => client.path.as_deref(),
            _ => None,
        }
    }
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

  the observability layer (fearless-trace, docs/OBSERVABILITY.md):
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
  retried once, then quarantined to code 70), appends every cache
  change to the cache's checksummed log before answering so a kill -9
  recovers byte-identically on restart, and honors per-request deterministic deadlines and
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
  kill -9 recovered through the cache log's journal — every fault must land on
  its documented protocol code, every seed runs under a --watchdog,
  and --out writes the bench-diff-gated BENCH_guard.json). --faults
  takes `all`, `none`, or a comma list of delay, reorder, drop,
  preempt, contend. Identical seeds produce byte-identical reports.

exit status: 0 ok; 1 diagnostics/violations; 2 missing input file;
3 unreadable input file; 4 input not valid UTF-8; 70 internal error
";

/// Exit status: the input file does not exist.
pub const EXIT_MISSING_FILE: i32 = 2;
/// Exit status: the input file exists but cannot be read.
pub const EXIT_UNREADABLE: i32 = 3;
/// Exit status: the input file is not valid UTF-8.
pub const EXIT_INVALID_UTF8: i32 = 4;
/// Exit status: an internal error (a panic) escaped the driver — a bug
/// in `fearlessc` itself, never in the user's program.
pub const EXIT_ICE: i32 = 70;

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
    let result = match cmd {
        Command::Lint(lint) => return lint.execute(src),
        Command::Help => Ok(USAGE.to_string()),
        Command::Table1 => Ok(fearless_baselines::render_table1()),
        Command::Check(check) => check.execute(src),
        Command::Verify { .. } => check::verify(src),
        Command::Explain { func, .. } => check::explain(src, func),
        Command::Run(run) => run.execute(src),
        Command::Report(report) => report.execute(src),
        Command::BenchDiff {
            old,
            new,
            threshold_pct,
            json,
        } => bench::bench_diff(old, new, *threshold_pct, *json),
        Command::StripNondet { path } => bench::strip_nondet(path),
        Command::Flow(flow) => flow.execute(src),
        Command::Profile(profile) => profile.execute(src),
        Command::Chaos(chaos) => chaos.execute(src),
        Command::Synth { options, out } => synth::synth(options, out.as_deref()),
        Command::Serve(serve) => serve.execute(),
        Command::ServeBench(bench) => bench.execute(),
        Command::Client(client) => client.execute(src),
    };
    let code = i32::from(result.is_err());
    (result, code)
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
    let src = match cmd.source_path().map(load_source) {
        None => String::new(),
        Some(Ok(src)) => src,
        Some(Err((msg, code))) => return (Err(msg), code),
    };
    execute_on_source_with_code(&cmd, &src)
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
    use args::{Args, COMMANDS};
    use fearless_core::CheckerMode;

    fn s(items: &[&str]) -> Vec<String> {
        items.iter().map(|x| x.to_string()).collect()
    }

    const PROGRAM: &str = "
        struct data { value: int }
        def double(n : int) : int { n * 2 }
        def make(v : int) : data { new data(v) }
    ";

    fn check_of(input: Input, jobs: usize, cache: Option<String>, telemetry: Telemetry) -> Command {
        Command::Check(Check {
            input,
            mode: CheckerMode::Tempered,
            no_oracle: false,
            jobs,
            cache,
            telemetry,
        })
    }

    fn metrics() -> Telemetry {
        Telemetry {
            metrics_json: true,
            ..Telemetry::default()
        }
    }

    fn run_of(entry: &str, args: Vec<i64>, sanitize: bool, flow_facts: bool) -> Run {
        Run {
            path: String::new(),
            entry: entry.into(),
            args,
            unchecked: false,
            sanitize,
            flow_facts,
            telemetry: Telemetry::default(),
        }
    }

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
            Command::Check(Check {
                input: Input::File("f.fc".into()),
                mode: CheckerMode::GlobalDomination,
                no_oracle: true,
                jobs: 1,
                cache: None,
                telemetry: Telemetry {
                    trace: Some("t.json".into()),
                    metrics_json: true,
                    obs: None,
                    trace_out: None,
                },
            })
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
            Command::Check(Check {
                input: Input::Corpus,
                mode: CheckerMode::Tempered,
                no_oracle: false,
                jobs: 4,
                cache: Some("/tmp/c".into()),
                telemetry: Telemetry::default(),
            })
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
            Command::Run(Run {
                path: "f.fc".into(),
                entry: "main".into(),
                args: vec![3],
                unchecked: false,
                sanitize: true,
                flow_facts: false,
                telemetry: Telemetry::default(),
            })
        );
    }

    #[test]
    fn parses_flow() {
        let cmd = parse_args(&s(&["flow", "f.fc", "--cache", "/tmp/c"])).unwrap();
        assert_eq!(
            cmd,
            Command::Flow(Flow {
                input: Input::File("f.fc".into()),
                cache: Some("/tmp/c".into())
            })
        );
        assert!(parse_args(&s(&["flow"])).is_err());
        assert!(parse_args(&s(&["flow", "f.fc", "--corpus"])).is_err());
    }

    #[test]
    fn parses_chaos_flow_flags() {
        let cmd = parse_args(&s(&["chaos", "--corpus", "--crosscheck"])).unwrap();
        match cmd {
            Command::Chaos(Chaos::Schedules { options, .. }) => {
                assert!(options.flow_facts, "--crosscheck implies --flow-facts");
                assert!(options.crosscheck);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_lint_flags() {
        let cmd = parse_args(&s(&["lint", "f.fc", "--format", "json", "--deny-warnings"])).unwrap();
        assert_eq!(
            cmd,
            Command::Lint(Lint {
                path: "f.fc".into(),
                mode: CheckerMode::Tempered,
                format: LintFormat::Json,
                deny_warnings: true,
                telemetry: Telemetry::default(),
            })
        );
    }

    #[test]
    fn parses_profile() {
        let cmd = parse_args(&s(&["profile", "--corpus", "--wall-time"])).unwrap();
        assert_eq!(
            cmd,
            Command::Profile(Profile {
                input: Input::Corpus,
                wall_time: true,
                cache: None,
                telemetry: Telemetry::default(),
            })
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
            Command::Profile(Profile {
                input: Input::File("f.fc".into()),
                wall_time: false,
                cache: Some("/tmp/c".into()),
                telemetry: metrics(),
            })
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

    /// A `--` token a command does not accept is an error naming it,
    /// never a file name (nor a silently ignored flag).
    #[test]
    fn rejects_flags_a_command_does_not_accept() {
        for (line, bad) in [
            (&["check", "--corpsu"][..], "--corpsu"),
            (&["check", "f.fc", "--corpsu"], "--corpsu"),
            (&["lint", "f.fc", "--jobs", "2"], "--jobs"),
            (
                &["run", "f.fc", "--entry", "main", "--entyr", "x"],
                "--entyr",
            ),
            (&["explain", "f.fc", "--fn", "f", "--func"], "--func"),
            (&["flow", "--cahce", "d"], "--cahce"),
            (&["profile", "f.fc", "--trace", "t.json"], "--trace"),
            (
                &["client", "ping", "--socket", "s", "--sockt", "t"],
                "--sockt",
            ),
            (&["chaos", "fuzz", "--crosscheck"], "--crosscheck"),
            (&["chaos", "--corpus", "--watchdog", "5"], "--watchdog"),
            (&["chaos", "drills", "--cases", "3"], "--cases"),
            (&["chaos", "serve", "--faults", "all"], "--faults"),
        ] {
            let err = parse_args(&s(line)).unwrap_err();
            assert_eq!(err, format!("unexpected argument `{bad}`"), "{line:?}");
        }
    }

    /// `-` is an operand (stdin) for every file-taking command.
    #[test]
    fn dash_is_stdin_everywhere() {
        let cmd = parse_args(&s(&["report", "-", "--entry", "main"])).unwrap();
        assert_eq!(
            cmd,
            Command::Report(Report {
                source: ReportSource::Program {
                    path: "-".into(),
                    entry: "main".into(),
                    args: Vec::new(),
                },
                sanitize: false,
                flow_facts: false,
                json: false,
                telemetry: Telemetry::default(),
            })
        );
        assert_eq!(cmd.source_path(), Some("-"));
        let cmd = parse_args(&s(&["chaos", "-", "--seeds", "2"])).unwrap();
        assert_eq!(cmd.source_path(), Some("-"));
        for line in [
            &["check", "-"][..],
            &["verify", "-"],
            &["lint", "-"],
            &["run", "-", "--entry", "main"],
            &["flow", "-"],
            &["profile", "-"],
            &["explain", "-", "--fn", "f"],
            &["client", "check", "-", "--socket", "s"],
        ] {
            let cmd = parse_args(&s(line)).unwrap();
            assert_eq!(cmd.source_path(), Some("-"), "{line:?}");
        }
    }

    /// Each synopsis line of `USAGE` (the `chaos` sub-modes included)
    /// lists exactly the flags the table accepts for that command, and
    /// each listed flag parses for it.
    #[test]
    fn usage_synopsis_matches_the_flag_table() {
        let synopsis = USAGE
            .split("USAGE:\n")
            .nth(1)
            .and_then(|rest| rest.split("\n\n").next())
            .unwrap();
        let mut listed: Vec<(String, std::collections::BTreeSet<String>)> = Vec::new();
        for line in synopsis.lines() {
            if let Some(rest) = line.trim_start().strip_prefix("fearlessc ") {
                let mut words = rest.split_whitespace();
                let name = words.next().unwrap();
                let name = match words.next() {
                    Some(sub) if COMMANDS.iter().any(|c| c.0 == format!("{name} {sub}")) => {
                        format!("{name} {sub}")
                    }
                    _ => name.to_string(),
                };
                listed.push((name, Default::default()));
            }
            let flags = line
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|w| w.starts_with("--"));
            listed.last_mut().unwrap().1.extend(flags.map(String::from));
        }
        let names: Vec<&str> = listed.iter().map(|(n, _)| n.as_str()).collect();
        for (name, _, _) in COMMANDS {
            assert!(names.contains(name), "`{name}` has no USAGE line");
        }
        for (name, usage_flags) in &listed {
            let Some((_, flags, _)) = COMMANDS.iter().find(|c| c.0 == name) else {
                assert_eq!(name, "table1", "USAGE lists an unknown command");
                continue;
            };
            let table: std::collections::BTreeSet<String> =
                flags.iter().map(|f| f.name.to_string()).collect();
            assert_eq!(&table, usage_flags, "`{name}`: table vs USAGE");
            for flag in *flags {
                let mut line = vec![flag.name.to_string()];
                if flag.value.is_some() {
                    line.push("1".to_string());
                }
                let parsed = Args::parse(&line, flags).unwrap();
                assert!(parsed.on(*flag), "`{name} {}` does not parse", flag.name);
            }
        }
    }

    #[test]
    fn parses_serve_and_serve_bench() {
        let cmd = parse_args(&s(&[
            "serve",
            "--socket",
            "s.sock",
            "--workers",
            "0",
            "--queue",
            "4",
            "--cache",
            "d",
            "--retry-after",
            "7",
            "--once",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(Serve {
                options: fearless_serve::ServeOptions {
                    workers: 1,
                    queue_capacity: 4,
                    cache_dir: Some("d".into()),
                    retry_after_millis: 7,
                    ..fearless_serve::ServeOptions::new("s.sock")
                },
                once: true,
            })
        );
        let defaults = fearless_serve::ServeOptions::new("s");
        assert_eq!(
            (
                defaults.workers,
                defaults.queue_capacity,
                defaults.retry_after_millis
            ),
            (2, 16, 25)
        );
        assert_eq!(
            parse_args(&s(&["serve", "--socket", "s"])).unwrap(),
            Command::Serve(Serve {
                options: defaults,
                once: false,
            })
        );
        assert!(parse_args(&s(&["serve"])).is_err());
        let cmd = parse_args(&s(&[
            "serve-bench",
            "--socket",
            "s",
            "--clients",
            "2",
            "--requests",
            "0",
            "--bodies",
            "3",
            "--seed",
            "9",
            "--shed-extra",
            "0",
            "--obs",
            "j.json",
            "--out",
            "b.json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::ServeBench(ServeBench {
                options: fearless_serve::BenchOptions {
                    clients: 2,
                    requests: 1,
                    bodies: 3,
                    seed: 9,
                    shed_extra: 0,
                    ..fearless_serve::BenchOptions::new("s")
                },
                obs: Some("j.json".into()),
                out: Some("b.json".into()),
            })
        );
        let defaults = fearless_serve::BenchOptions::new("s");
        assert_eq!(
            (
                defaults.clients,
                defaults.requests,
                defaults.bodies,
                defaults.seed,
                defaults.shed_extra
            ),
            (4, 6, 6, 42, 4)
        );
        assert!(parse_args(&s(&["serve-bench", "--clients", "2"])).is_err());
    }

    #[test]
    fn parses_client_synth_and_bench_diff() {
        let cmd = parse_args(&s(&[
            "client",
            "check",
            "f.fc",
            "--socket",
            "s",
            "--deadline",
            "50",
            "--retries",
            "3",
            "--stale-ok",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Client(Client {
                socket: "s".into(),
                kind: "check".into(),
                path: Some("f.fc".into()),
                deadline: Some(50),
                retries: Some(3),
                stale_ok: true,
            })
        );
        assert_eq!(cmd.source_path(), Some("f.fc"));
        let ping = parse_args(&s(&["client", "ping", "--socket", "s"])).unwrap();
        assert_eq!(ping.source_path(), None);
        assert!(parse_args(&s(&["client", "a", "b", "c", "--socket", "s"])).is_err());

        let cmd = parse_args(&s(&[
            "synth",
            "--seed",
            "42",
            "--functions",
            "1000",
            "--boxes",
            "3",
            "--max-ops",
            "5",
            "--window",
            "6",
            "--out",
            "p.fc",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Synth {
                options: SynthOptions {
                    seed: 42,
                    functions: 1000,
                    boxes: 3,
                    max_ops: 5,
                    window: 6,
                },
                out: Some("p.fc".into()),
            }
        );
        assert_eq!(
            parse_args(&s(&["synth"])).unwrap(),
            Command::Synth {
                options: SynthOptions::default(),
                out: None,
            }
        );

        let cmd = parse_args(&s(&[
            "bench-diff",
            "a.json",
            "-",
            "--threshold",
            "5",
            "--json",
        ]));
        assert_eq!(
            cmd.unwrap(),
            Command::BenchDiff {
                old: "a.json".into(),
                new: "-".into(),
                threshold_pct: 5,
                json: true,
            }
        );
        assert!(parse_args(&s(&["bench-diff", "a.json"])).is_err());
    }

    #[test]
    fn parses_report_explain_and_chaos_modes() {
        let cmd = parse_args(&s(&[
            "report",
            "f.fc",
            "--entry",
            "main",
            "--arg",
            "-2",
            "--json",
            "--sanitize-domination",
            "--flow-facts",
            "--obs",
            "j.json",
            "--trace-out",
            "p.json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Report(Report {
                source: ReportSource::Program {
                    path: "f.fc".into(),
                    entry: "main".into(),
                    args: vec![-2],
                },
                sanitize: true,
                flow_facts: true,
                json: true,
                telemetry: Telemetry {
                    obs: Some("j.json".into()),
                    trace_out: Some("p.json".into()),
                    ..Telemetry::default()
                },
            })
        );
        let cmd = parse_args(&s(&["report", "--corpus", "--json"])).unwrap();
        assert!(
            matches!(&cmd, Command::Report(r) if r.source == ReportSource::Corpus && r.json),
            "{cmd:?}"
        );
        let cmd = parse_args(&s(&["report", "--serve", "j.json"])).unwrap();
        assert!(
            matches!(&cmd, Command::Report(r) if r.source == ReportSource::Serve("j.json".into())),
            "{cmd:?}"
        );
        assert_eq!(cmd.source_path(), None);
        assert!(parse_args(&s(&["report", "f.fc"])).is_err());
        assert!(parse_args(&s(&["report", "--serve", "j", "--corpus"])).is_err());

        assert_eq!(
            parse_args(&s(&["explain", "f.fc", "--fn", "make"])).unwrap(),
            Command::Explain {
                path: "f.fc".into(),
                func: "make".into(),
            }
        );
        assert!(parse_args(&s(&["explain", "f.fc"])).is_err());

        let cmd = parse_args(&s(&[
            "chaos",
            "f.fc",
            "--seeds",
            "3",
            "--faults",
            "delay,reorder",
            "--fuel",
            "99",
            "--no-sanitize",
            "--json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Chaos(Chaos::Schedules {
                input: Input::File("f.fc".into()),
                options: fearless_chaos::ChaosOptions {
                    seeds: 3,
                    faults: fearless_chaos::FaultSpec::parse("delay,reorder").unwrap(),
                    fuel: 99,
                    sanitize: false,
                    flow_facts: false,
                    crosscheck: false,
                },
                json: true,
            })
        );
        assert_eq!(
            parse_args(&s(&["chaos", "fuzz", "--cases", "60", "--seed", "11"])).unwrap(),
            Command::Chaos(Chaos::Fuzz {
                cases: Some(60),
                seed: 11,
            })
        );
        assert_eq!(
            parse_args(&s(&["chaos", "drills", "--dir", "d", "--seed", "5"])).unwrap(),
            Command::Chaos(Chaos::Drills {
                dir: Some("d".into()),
                seed: 5,
            })
        );
        assert_eq!(
            parse_args(&s(&["chaos", "serve", "--seed", "7", "--watchdog", "30"])).unwrap(),
            Command::Chaos(Chaos::Serve {
                seeds: 5,
                seed: 7,
                dir: None,
                out: None,
                watchdog: 30,
                json: false,
            })
        );
    }

    fn check_cmd() -> Command {
        check_of(Input::File(String::new()), 1, None, Telemetry::default())
    }

    #[test]
    fn check_and_run_roundtrip() {
        let out = execute_on_source(&check_cmd(), PROGRAM).unwrap();
        assert!(out.contains("ok:"), "{out}");
        let run = Command::Run(run_of("double", vec![21], false, false));
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
        Command::Lint(Lint {
            path: String::new(),
            mode: CheckerMode::Tempered,
            format,
            deny_warnings,
            telemetry: Telemetry::default(),
        })
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
        let run = Command::Run(run_of("make", vec![5], true, false));
        let out = execute_on_source(&run, PROGRAM).unwrap();
        assert!(out.contains("domination sanitizer"), "{out}");
    }

    #[test]
    fn check_metrics_json_is_deterministic() {
        let profile_corpus = Command::Profile(Profile {
            input: Input::Corpus,
            wall_time: false,
            cache: None,
            telemetry: metrics(),
        });
        for (cmd, src) in [
            (
                check_of(Input::File(String::new()), 1, None, metrics()),
                PROGRAM,
            ),
            (profile_corpus, ""),
        ] {
            let a = execute_on_source(&cmd, src).unwrap();
            let b = execute_on_source(&cmd, src).unwrap();
            assert_eq!(a, b, "metrics JSON must be byte-identical across runs");
            assert!(a.contains("\"fearless-trace/1\""), "{a}");
            assert!(a.contains("\"check.deriv_nodes\""), "{a}");
            assert!(!a.contains("nanos"), "wall-clock must never leak: {a}");
        }
    }

    #[test]
    fn run_metrics_json_has_check_and_run_spans() {
        let cmd = Command::Run(Run {
            telemetry: metrics(),
            ..run_of("double", vec![21], false, false)
        });
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
        let cmd = Command::Lint(Lint {
            path: String::new(),
            mode: CheckerMode::Tempered,
            format: LintFormat::Human,
            deny_warnings: false,
            telemetry: metrics(),
        });
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
        let cmd = check_of(
            Input::File(String::new()),
            1,
            None,
            Telemetry {
                trace: Some(path.to_string_lossy().into_owned()),
                ..Telemetry::default()
            },
        );
        let out = execute_on_source(&cmd, PROGRAM).unwrap();
        assert!(out.contains("ok:"), "{out}");
        let written = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(written.contains("\"fearless-trace/1\""), "{written}");
    }

    #[test]
    fn profile_renders_table() {
        let cmd = Command::Profile(Profile {
            input: Input::File("demo.fc".into()),
            wall_time: false,
            cache: None,
            telemetry: Telemetry::default(),
        });
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
        let cmd = Command::Profile(Profile {
            input: Input::Corpus,
            wall_time: false,
            cache: None,
            telemetry: metrics(),
        });
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
        let check_with_jobs = |jobs: usize| check_of(Input::Corpus, jobs, None, metrics());
        let serial = check_with_jobs(1);
        let parallel = check_with_jobs(4);
        let a = execute_on_source(&serial, "").unwrap();
        let b = execute_on_source(&parallel, "").unwrap();
        assert_eq!(a, b, "metrics must not depend on the job count");
    }

    #[test]
    fn warm_check_output_is_byte_identical_to_cold() {
        let dir = temp_cache_dir("warm");
        let cmd = check_of(
            Input::File(String::new()),
            1,
            Some(dir.to_string_lossy().into_owned()),
            Telemetry::default(),
        );
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
        let cmd = check_of(Input::Corpus, 2, None, Telemetry::default());
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
        let cmd = check_of(
            Input::File(String::new()),
            1,
            Some(dir.to_string_lossy().into_owned()),
            Telemetry::default(),
        );
        let bad = "def f(x: int) : bool { x }";
        let cold = execute_on_source(&cmd, bad).unwrap_err();
        let warm = execute_on_source(&cmd, bad).unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(cold, warm);
        assert!(cold.contains("type error"), "{cold}");
    }

    #[test]
    fn flow_dumps_deterministic_summaries() {
        let cmd = Command::Flow(Flow {
            input: Input::File(String::new()),
            cache: None,
        });
        let a = execute_on_source(&cmd, PROGRAM).unwrap();
        let b = execute_on_source(&cmd, PROGRAM).unwrap();
        assert_eq!(a, b, "flow JSON must be byte-identical across runs");
        assert!(a.contains("\"schema\": \"fearless-flow/1\""), "{a}");
        assert!(a.contains("\"name\": \"double\""), "{a}");
        assert!(a.contains("\"totals\""), "{a}");
    }

    #[test]
    fn flow_corpus_covers_every_accepted_entry() {
        let cmd = Command::Flow(Flow {
            input: Input::Corpus,
            cache: None,
        });
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
        let cached = Command::Flow(Flow {
            input: Input::File(String::new()),
            cache: Some(dir.to_string_lossy().into_owned()),
        });
        let uncached = Command::Flow(Flow {
            input: Input::File(String::new()),
            cache: None,
        });
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
        let run = Command::Run(run_of("main", vec![5], true, true));
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
        let cmd = Command::Profile(Profile {
            input: Input::File("demo.fc".into()),
            wall_time: false,
            cache: Some(dir.to_string_lossy().into_owned()),
            telemetry: Telemetry::default(),
        });
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
        let cmd = check_of(
            Input::File(String::new()),
            1,
            Some(dir.to_string_lossy().into_owned()),
            Telemetry::default(),
        );
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
            let cmd = check_of(
                Input::Corpus,
                jobs,
                cache.map(|c| c.to_string_lossy().into_owned()),
                Telemetry {
                    obs: Some(path.to_string_lossy().into_owned()),
                    ..Telemetry::default()
                },
            );
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
        let cmd = Command::Run(Run {
            telemetry: Telemetry {
                trace_out: Some(path.to_string_lossy().into_owned()),
                ..Telemetry::default()
            },
            ..run_of("double", vec![21], false, false)
        });
        let out = execute_on_source(&cmd, PROGRAM).unwrap();
        assert!(out.contains("= 42"), "{out}");
        let written = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(written.contains("\"traceEvents\""), "{written}");
        assert!(written.contains("thread_name"), "{written}");
    }

    #[test]
    fn report_corpus_covers_every_scenario_and_is_deterministic() {
        let cmd = Command::Report(Report {
            source: ReportSource::Corpus,
            sanitize: false,
            flow_facts: false,
            json: false,
            telemetry: Telemetry::default(),
        });
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
