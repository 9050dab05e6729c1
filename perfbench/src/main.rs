//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON result line.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{Config, Workload};

const USAGE: &str = "usage: perfbench --workload <batch-cold|edit-loop|serve-mixed|run-sanitized> \
     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        work_dir: work_dir(),
    })
}

/// Scratch space under the build directory (`CARGO_TARGET_DIR` when
/// set), private to this process.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    // Unix socket paths are short; keep the directory relative to the
    // working directory when it lies inside it.
    let target = std::env::current_dir()
        .ok()
        .and_then(|cwd| target.strip_prefix(&cwd).ok().map(PathBuf::from))
        .unwrap_or(target);
    target.join(format!("perfbench-{}", std::process::id()))
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = perfbench::run(&cfg);
    // Keep the trace file; everything else in the work directory goes.
    if let Ok(entries) = std::fs::read_dir(&cfg.work_dir) {
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                let _ = std::fs::remove_dir_all(&path);
            } else if !e.file_name().to_string_lossy().starts_with("trace-") {
                let _ = std::fs::remove_file(&path);
            }
        }
    }
    if !cfg.trace {
        let _ = std::fs::remove_dir(&cfg.work_dir);
    }
    match outcome {
        Ok(o) => {
            print!("{}", o.report);
            println!("{}", perfbench::result_json(&o));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
