//! The one flag table. Every flag `fearlessc` understands is spelled and
//! described here once, every command lists the flags it accepts in
//! [`COMMANDS`], and [`Args::parse`] rejects any other `--` token instead
//! of reading it as a file name.

use std::str::FromStr;

use fearless_core::CheckerMode;
use fearless_synth::SynthOptions;

use crate::{Chaos, Check, Client, Command, Flow, Lint, Profile, Report, Run, Serve, ServeBench};

/// A command-line flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Flag {
    /// The spelling, `--name`.
    pub(crate) name: &'static str,
    /// What the value is, for the "`--flag` requires …" error; `None`
    /// marks a switch.
    pub(crate) value: Option<&'static str>,
}

const fn flag(name: &'static str, value: Option<&'static str>) -> Flag {
    Flag { name, value }
}

const A_NUMBER: Option<&str> = Some("a number");
const A_FILE: Option<&str> = Some("a file");
const A_DIR: Option<&str> = Some("a directory");
const A_VALUE: Option<&str> = Some("a value");

pub(crate) const ARG: Flag = flag("--arg", Some("an integer"));
pub(crate) const BODIES: Flag = flag("--bodies", A_NUMBER);
pub(crate) const BOXES: Flag = flag("--boxes", A_NUMBER);
pub(crate) const CACHE: Flag = flag("--cache", A_DIR);
pub(crate) const CASES: Flag = flag("--cases", A_NUMBER);
pub(crate) const CLIENTS: Flag = flag("--clients", A_NUMBER);
pub(crate) const CORPUS: Flag = flag("--corpus", None);
pub(crate) const CROSSCHECK: Flag = flag("--crosscheck", None);
pub(crate) const DEADLINE: Flag = flag("--deadline", A_NUMBER);
pub(crate) const DENY_WARNINGS: Flag = flag("--deny-warnings", None);
pub(crate) const DIR: Flag = flag("--dir", A_DIR);
pub(crate) const ENTRY: Flag = flag("--entry", Some("a function name"));
pub(crate) const FAULTS: Flag = flag("--faults", Some("a spec"));
pub(crate) const FLOW_FACTS: Flag = flag("--flow-facts", None);
pub(crate) const FORMAT: Flag = flag("--format", A_VALUE);
pub(crate) const FUEL: Flag = flag("--fuel", A_NUMBER);
pub(crate) const FUNC: Flag = flag("--fn", Some("a function name"));
pub(crate) const FUNCTIONS: Flag = flag("--functions", A_NUMBER);
pub(crate) const JOBS: Flag = flag("--jobs", A_NUMBER);
pub(crate) const JSON: Flag = flag("--json", None);
pub(crate) const MAX_OPS: Flag = flag("--max-ops", A_NUMBER);
pub(crate) const METRICS: Flag = flag("--metrics", Some("a value (`json`)"));
pub(crate) const MODE: Flag = flag("--mode", A_VALUE);
pub(crate) const NO_ORACLE: Flag = flag("--no-oracle", None);
pub(crate) const NO_SANITIZE: Flag = flag("--no-sanitize", None);
pub(crate) const OBS: Flag = flag("--obs", A_FILE);
pub(crate) const ONCE: Flag = flag("--once", None);
pub(crate) const OUT: Flag = flag("--out", A_FILE);
pub(crate) const QUEUE: Flag = flag("--queue", A_NUMBER);
pub(crate) const REQUESTS: Flag = flag("--requests", A_NUMBER);
pub(crate) const RETRIES: Flag = flag("--retries", A_NUMBER);
pub(crate) const RETRY_AFTER: Flag = flag("--retry-after", A_NUMBER);
pub(crate) const SANITIZE_DOMINATION: Flag = flag("--sanitize-domination", None);
pub(crate) const SEED: Flag = flag("--seed", A_NUMBER);
pub(crate) const SEEDS: Flag = flag("--seeds", A_NUMBER);
pub(crate) const SERVE: Flag = flag("--serve", Some("a journal file"));
pub(crate) const SHED_EXTRA: Flag = flag("--shed-extra", A_NUMBER);
pub(crate) const SOCKET: Flag = flag("--socket", Some("a path"));
pub(crate) const STALE_OK: Flag = flag("--stale-ok", None);
pub(crate) const THRESHOLD: Flag = flag("--threshold", A_NUMBER);
pub(crate) const TRACE: Flag = flag("--trace", A_FILE);
pub(crate) const TRACE_OUT: Flag = flag("--trace-out", A_FILE);
pub(crate) const UNCHECKED: Flag = flag("--unchecked", None);
pub(crate) const WALL_TIME: Flag = flag("--wall-time", None);
pub(crate) const WATCHDOG: Flag = flag("--watchdog", A_NUMBER);
pub(crate) const WINDOW: Flag = flag("--window", A_NUMBER);
pub(crate) const WORKERS: Flag = flag("--workers", A_NUMBER);

type Parser = fn(&Args) -> Result<Command, String>;

/// Every command `parse_args` knows: its name (two words for a `chaos`
/// sub-mode), the flags it accepts, and how its arguments become a
/// [`Command`]. `USAGE` lists the same flags per command (a test keeps
/// the two in step).
#[rustfmt::skip]
pub(crate) const COMMANDS: &[(&str, &[Flag], Parser)] = &[
    ("check", &[CORPUS, MODE, NO_ORACLE, JOBS, CACHE, TRACE, METRICS, OBS, TRACE_OUT], Check::parse),
    ("verify", &[], |a| Ok(Command::Verify { path: a.file()? })),
    ("lint", &[MODE, FORMAT, DENY_WARNINGS, TRACE, METRICS], Lint::parse),
    ("run", &[ENTRY, ARG, UNCHECKED, SANITIZE_DOMINATION, FLOW_FACTS, TRACE, METRICS, OBS, TRACE_OUT], Run::parse),
    ("report", &[ENTRY, ARG, CORPUS, SERVE, JSON, SANITIZE_DOMINATION, FLOW_FACTS, OBS, TRACE_OUT], Report::parse),
    ("serve", &[SOCKET, WORKERS, QUEUE, CACHE, RETRY_AFTER, ONCE], Serve::parse),
    ("serve-bench", &[SOCKET, CLIENTS, REQUESTS, BODIES, SEED, SHED_EXTRA, OBS, OUT], ServeBench::parse),
    ("client", &[SOCKET, DEADLINE, RETRIES, STALE_OK], Client::parse),
    ("flow", &[CORPUS, CACHE], Flow::parse),
    ("profile", &[CORPUS, CACHE, WALL_TIME, METRICS], Profile::parse),
    ("chaos", &[CORPUS, SEEDS, FAULTS, FUEL, NO_SANITIZE, FLOW_FACTS, CROSSCHECK, JSON], Chaos::parse_schedules),
    ("chaos fuzz", &[CASES, SEED], Chaos::parse_fuzz),
    ("chaos drills", &[DIR, SEED], Chaos::parse_drills),
    ("chaos serve", &[SEEDS, SEED, DIR, OUT, WATCHDOG, JSON], Chaos::parse_serve),
    ("bench-diff", &[THRESHOLD, JSON], |a| {
        let [old, new] = a.operands(2)? else {
            return Err("bench-diff needs exactly two files: <old.json> <new.json>".to_string());
        };
        let (old, new) = (old.clone(), new.clone());
        Ok(Command::BenchDiff { old, new, threshold_pct: a.last(THRESHOLD)?.unwrap_or(10), json: a.on(JSON) })
    }),
    ("strip-nondet", &[], |a| {
        let path = a.operands(1)?.first().ok_or("strip-nondet needs a file")?;
        Ok(Command::StripNondet { path: path.clone() })
    }),
    ("synth", &[SEED, FUNCTIONS, BOXES, MAX_OPS, WINDOW, OUT], |a| {
        a.operands(0)?;
        let d = SynthOptions::default();
        let options = SynthOptions {
            seed: a.last(SEED)?.unwrap_or(d.seed),
            functions: a.last(FUNCTIONS)?.unwrap_or(d.functions),
            boxes: a.last(BOXES)?.unwrap_or(d.boxes),
            max_ops: a.last(MAX_OPS)?.unwrap_or(d.max_ops),
            window: a.last(WINDOW)?.unwrap_or(d.window),
        };
        Ok(Command::Synth { options, out: a.last(OUT)? })
    }),
    ("explain", &[FUNC], |a| {
        Ok(Command::Explain { path: a.file()?, func: a.last(FUNC)?.ok_or("missing --fn")? })
    }),
];

/// Parses command-line arguments (excluding the program name).
///
/// # Errors
///
/// Returns a usage message on malformed input.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "table1" => return Ok(Command::Table1),
        _ => {}
    }
    let find = |name: &str| COMMANDS.iter().find(|c| c.0 == name);
    // A sub-mode (`chaos fuzz`) takes precedence over its command.
    let sub = args.get(1).and_then(|sub| find(&format!("{cmd} {sub}")));
    let (&(_, flags, parse), rest) = match sub {
        Some(sub) => (sub, &args[2..]),
        None => (
            find(cmd).ok_or_else(|| format!("unknown command `{cmd}`\n{}", crate::USAGE))?,
            &args[1..],
        ),
    };
    parse(&Args::parse(rest, flags)?)
}

/// Where a command's program comes from: `<file>` or `--corpus`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// A source file (`-` reads stdin).
    File(String),
    /// The built-in corpus.
    Corpus,
}

impl Input {
    /// The source file, if any.
    pub fn path(&self) -> Option<&str> {
        match self {
            Input::File(path) => Some(path),
            Input::Corpus => None,
        }
    }
}

/// One command line split into operands and accepted flags; values stay
/// text until the command asks for them by type.
#[derive(Default)]
pub(crate) struct Args {
    operands: Vec<String>,
    flags: Vec<(Flag, String)>,
}

impl Args {
    /// Splits `tokens`, accepting only the flags in `accepted`. Any other
    /// token that starts with `--` is an error; every remaining token
    /// (including `-`, which means stdin) is an operand.
    pub(crate) fn parse(tokens: &[String], accepted: &[Flag]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = tokens.iter();
        while let Some(token) = it.next() {
            if !token.starts_with("--") {
                args.operands.push(token.clone());
                continue;
            }
            let Some(&flag) = accepted.iter().find(|f| f.name == token) else {
                return Err(format!("unexpected argument `{token}`"));
            };
            let value = match flag.value {
                Some(what) => it
                    .next()
                    .ok_or_else(|| format!("{token} requires {what}"))?
                    .clone(),
                None => String::new(),
            };
            args.flags.push((flag, value));
        }
        Ok(args)
    }

    /// Whether `flag` was given.
    pub(crate) fn on(&self, flag: Flag) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// Every value given for `flag`, parsed, in command-line order.
    pub(crate) fn all<T: FromStr>(&self, flag: Flag) -> Result<Vec<T>, String> {
        let Flag { name, value: what } = flag;
        self.flags
            .iter()
            .filter(|(f, _)| *f == flag)
            .map(|(_, v)| {
                v.parse()
                    .map_err(|_| format!("{name} requires {}", what.unwrap_or_default()))
            })
            .collect()
    }

    /// The last value given for `flag`, parsed.
    pub(crate) fn last<T: FromStr>(&self, flag: Flag) -> Result<Option<T>, String> {
        Ok(self.all(flag)?.pop())
    }

    /// The operands, rejecting any past the first `max`.
    pub(crate) fn operands(&self, max: usize) -> Result<&[String], String> {
        match self.operands.get(max) {
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
            None => Ok(&self.operands),
        }
    }

    /// The one `<file>` operand.
    pub(crate) fn file(&self) -> Result<String, String> {
        let file = self.operands(1)?.first();
        file.cloned().ok_or_else(|| "missing file".to_string())
    }

    /// `<file>` or `--corpus`, exactly one of them.
    pub(crate) fn input(&self, command: &str) -> Result<Input, String> {
        match (self.operands(1)?.first(), self.on(CORPUS)) {
            (Some(path), false) => Ok(Input::File(path.clone())),
            (None, true) => Ok(Input::Corpus),
            _ => Err(format!("{command} needs a file or --corpus (not both)")),
        }
    }

    /// The `--mode` discipline (default: tempered).
    pub(crate) fn mode(&self) -> Result<CheckerMode, String> {
        match self.last::<String>(MODE)?.as_deref() {
            None | Some("tempered") => Ok(CheckerMode::Tempered),
            Some("gd") => Ok(CheckerMode::GlobalDomination),
            Some("tree") => Ok(CheckerMode::TreeOfObjects),
            Some(other) => Err(format!(
                "unknown mode `{other}` (expected `tempered`, `gd`, or `tree`)"
            )),
        }
    }
}
