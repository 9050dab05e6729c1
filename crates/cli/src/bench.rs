//! `fearlessc bench-diff` and `strip-nondet`: the BENCH_*.json document
//! tools (`fearless-trace`).

use crate::load_source;

/// `fearlessc bench-diff`: compare two BENCH_*.json counter documents. A
/// regression beyond the threshold renders the report as the error (exit
/// status 1) — the CI gate.
pub(crate) fn bench_diff(
    old: &str,
    new: &str,
    threshold_pct: u64,
    json: bool,
) -> Result<String, String> {
    let old_text = load_source(old).map_err(|(m, _)| m)?;
    let new_text = load_source(new).map_err(|(m, _)| m)?;
    let old = fearless_trace::parse_json(&old_text).ok_or("old document is not valid JSON")?;
    let new = fearless_trace::parse_json(&new_text).ok_or("new document is not valid JSON")?;
    let report = fearless_trace::bench_diff(&old, &new, threshold_pct);
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

/// `fearlessc strip-nondet`: print the document with every
/// `_nondet`-tagged field removed.
pub(crate) fn strip_nondet(path: &str) -> Result<String, String> {
    let text = load_source(path).map_err(|(m, _)| m)?;
    let doc = fearless_trace::parse_json(&text).ok_or("input is not valid JSON")?;
    Ok(fearless_trace::strip_nondet(&doc).render())
}
