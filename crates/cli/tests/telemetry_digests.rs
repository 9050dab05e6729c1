//! Pins the telemetry documents' bytes across commits.
//!
//! CI diffs each telemetry document against a second run of the same
//! build, which catches nondeterminism but not drift: a change that
//! alters the journal, Perfetto or report bytes would still agree with
//! itself. This test runs the driver in-process and compares a checksum
//! of each document with the digests committed in
//! `tests/goldens/telemetry_digests.txt`.
//!
//! An intentional format change is re-blessed with
//!
//! ```text
//! BLESS=1 cargo test -p fearless-cli --test telemetry_digests
//! ```

use fearless_cli::main_with;
use fearless_incr::checksum_hex;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/goldens/telemetry_digests.txt"
);

fn run(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    main_with(&args).unwrap_or_else(|e| panic!("{args:?} failed: {e}"))
}

/// Every pinned document as `(name, bytes)`, in a fixed order.
fn documents() -> Vec<(&'static str, String)> {
    let dir = std::env::temp_dir().join(format!("fearless-cli-digests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (check_obs, report_obs, report_trace) = (
        path("check-obs.json"),
        path("report-obs.json"),
        path("report-trace.json"),
    );
    let check = run(&[
        "check",
        "--corpus",
        "--metrics",
        "json",
        "--obs",
        &check_obs,
    ]);
    let report = run(&["report", "--corpus"]);
    let report_json = run(&["report", "--corpus", "--json"]);
    run(&[
        "report",
        "--corpus",
        "--obs",
        &report_obs,
        "--trace-out",
        &report_trace,
    ]);
    let profile = run(&["profile", "--corpus", "--metrics", "json"]);
    let read = |p: &str| std::fs::read_to_string(p).unwrap();
    let docs = vec![
        ("check --corpus --metrics json", check),
        ("check --corpus --obs", read(&check_obs)),
        ("report --corpus", report),
        ("report --corpus --json", report_json),
        ("report --corpus --obs", read(&report_obs)),
        ("report --corpus --trace-out", read(&report_trace)),
        ("profile --corpus --metrics json", profile),
    ];
    let _ = std::fs::remove_dir_all(&dir);
    docs
}

#[test]
fn telemetry_bytes_match_the_committed_digests() {
    let actual: String = documents()
        .iter()
        .map(|(name, bytes)| format!("{} {name}\n", checksum_hex(bytes)))
        .collect();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("missing {GOLDEN} ({e}); run with BLESS=1"));
    assert_eq!(
        actual, expected,
        "telemetry bytes drifted (re-bless with BLESS=1 if intentional)"
    );
}
