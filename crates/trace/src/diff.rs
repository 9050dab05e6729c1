//! The bench regression differ and the `_nondet` stripper.
//!
//! BENCH_*.json documents are trees of `u64` counters. Keys whose name
//! ends in **`_nondet`** are non-deterministic by convention (wall-clock
//! times, throughput rates): the differ reports them for information
//! but never fails on them, and [`strip_nondet`] removes them so CI can
//! byte-diff the remainder across runs.
//!
//! For every deterministic counter present in both documents the differ
//! classifies the change against a relative threshold (percent). Most
//! counters are **lower-is-better** (walks, backtracks, visited
//! objects); a small substring table marks the **higher-is-better**
//! exceptions (cache hits, skipped sanitizer walks). A deterministic
//! counter the new document dropped regresses too, unless its path runs
//! through an array index (histogram bucket lists change length). The
//! CLI maps "any regression" to a nonzero exit, which is what the CI
//! gate checks.

use crate::Json;

/// Suffix marking a counter as non-deterministic (informational only).
pub const NONDET_SUFFIX: &str = "_nondet";

/// Substrings marking a counter as higher-is-better. Checked against
/// the final path segment, so `cache.hits_warm` and `sanitize_skipped`
/// match but `sanitize_walks` does not. `recover` and `survived` cover
/// the guard drills' oracles (`recoveries_byte_identical`,
/// `survived_ok`): fewer successful recoveries is a regression, not a
/// win.
const HIGHER_IS_BETTER: &[&str] = &[
    "hit", "skipped", "per_sec", "speedup", "recover", "survived",
];

/// How a counter moved between the two documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Identical values.
    Same,
    /// Moved in the good direction.
    Improved,
    /// Moved in the bad direction but within the threshold.
    Tolerated,
    /// Moved in the bad direction beyond the threshold.
    Regressed,
    /// Non-deterministic counter; reported, never gated on.
    Info,
    /// Present in only one document, and not gated: new in the new
    /// document, non-deterministic, or under an array index.
    Missing,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Improved => "improved",
            Verdict::Tolerated => "tolerated",
            Verdict::Regressed => "REGRESSED",
            Verdict::Info => "info",
            Verdict::Missing => "missing",
        }
    }
}

/// One compared counter.
#[derive(Debug, Clone)]
pub struct DiffLine {
    /// Dotted path of the counter in the document.
    pub key: String,
    /// Old value (`None` if the key is new).
    pub old: Option<u64>,
    /// New value (`None` if the key was removed).
    pub new: Option<u64>,
    /// True if larger values are better for this counter.
    pub higher_is_better: bool,
    /// Classification.
    pub verdict: Verdict,
}

/// The full comparison.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Relative threshold in percent that was applied.
    pub threshold_pct: u64,
    /// Every compared counter, in document-path order.
    pub lines: Vec<DiffLine>,
}

impl DiffReport {
    /// True if any deterministic counter regressed beyond the threshold.
    pub fn has_regressions(&self) -> bool {
        self.lines.iter().any(|l| l.verdict == Verdict::Regressed)
    }

    /// Human-readable rendering: regressions first, then everything
    /// that changed; unchanged counters are summarized in one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let (same, rest): (Vec<&DiffLine>, Vec<&DiffLine>) = self
            .lines
            .iter()
            .partition(|l| matches!(l.verdict, Verdict::Same));
        let mut shown: Vec<&DiffLine> = rest;
        shown.sort_by_key(|l| match l.verdict {
            Verdict::Regressed => 0,
            Verdict::Tolerated => 1,
            Verdict::Improved => 2,
            Verdict::Missing => 3,
            _ => 4,
        });
        for line in shown {
            let old = line.old.map_or("-".to_string(), |v| v.to_string());
            let new = line.new.map_or("-".to_string(), |v| v.to_string());
            let dir = if line.higher_is_better { "↑" } else { "↓" };
            out.push_str(&format!(
                "{:>10}  {} {}  {} -> {}\n",
                line.verdict.as_str(),
                dir,
                line.key,
                old,
                new
            ));
        }
        out.push_str(&format!(
            "bench-diff: {} counters compared, {} unchanged, threshold {}%: {}\n",
            self.lines.len(),
            same.len(),
            self.threshold_pct,
            if self.has_regressions() {
                "REGRESSION"
            } else {
                "ok"
            }
        ));
        out
    }

    /// The comparison as a JSON document.
    pub fn to_json_value(&self) -> Json {
        let lines = self
            .lines
            .iter()
            .map(|l| {
                Json::obj([
                    ("key", Json::str(&l.key)),
                    ("old", l.old.map_or(Json::Null, Json::U64)),
                    ("new", l.new.map_or(Json::Null, Json::U64)),
                    ("higher_is_better", Json::Bool(l.higher_is_better)),
                    ("verdict", Json::str(l.verdict.as_str())),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::str("fearless-obs-diff/1")),
            ("threshold_pct", Json::U64(self.threshold_pct)),
            ("regression", Json::Bool(self.has_regressions())),
            ("lines", Json::Arr(lines)),
        ])
    }
}

/// True if the counter named by `key`'s final segment is
/// higher-is-better.
fn higher_is_better(key: &str) -> bool {
    let leaf = key.rsplit('.').next().unwrap_or(key);
    HIGHER_IS_BETTER.iter().any(|m| leaf.contains(m))
}

/// Flattens every `u64` leaf of `json` to a `(dotted.path, value,
/// indexed)` list, in document order. Array elements use their index
/// as a path segment, and `indexed` says the path passes through one.
fn flatten(json: &Json) -> Vec<(String, u64, bool)> {
    let mut out = Vec::new();
    walk(json, String::new(), false, &mut out);
    out
}

fn walk(json: &Json, path: String, indexed: bool, out: &mut Vec<(String, u64, bool)>) {
    match json {
        Json::U64(v) => out.push((path, *v, indexed)),
        Json::Obj(fields) => {
            for (k, v) in fields {
                let next = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                walk(v, next, indexed, out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                walk(v, format!("{path}.{i}"), true, out);
            }
        }
        _ => {}
    }
}

/// Compares two BENCH_*.json documents with a relative threshold in
/// percent. A deterministic counter reached only through object keys
/// that the new document dropped is [`Verdict::Regressed`]: deleting a
/// gated counter must not pass the gate. Every other counter present on
/// one side only is [`Verdict::Missing`] (informational — schema growth
/// is expected as experiments are added, and histogram bucket lists
/// change length).
pub fn bench_diff(old: &Json, new: &Json, threshold_pct: u64) -> DiffReport {
    let old_flat = flatten(old);
    let new_flat = flatten(new);
    let mut lines = Vec::new();
    for (key, old_value, indexed) in &old_flat {
        let hib = higher_is_better(key);
        let nondet = key
            .rsplit('.')
            .next()
            .unwrap_or(key)
            .ends_with(NONDET_SUFFIX);
        match new_flat.iter().find(|(k, _, _)| k == key) {
            None => lines.push(DiffLine {
                key: key.clone(),
                old: Some(*old_value),
                new: None,
                higher_is_better: hib,
                verdict: if nondet || *indexed {
                    Verdict::Missing
                } else {
                    Verdict::Regressed
                },
            }),
            Some((_, new_value, _)) => {
                let verdict = if nondet {
                    Verdict::Info
                } else {
                    classify(*old_value, *new_value, hib, threshold_pct)
                };
                lines.push(DiffLine {
                    key: key.clone(),
                    old: Some(*old_value),
                    new: Some(*new_value),
                    higher_is_better: hib,
                    verdict,
                });
            }
        }
    }
    for (key, new_value, _) in &new_flat {
        if !old_flat.iter().any(|(k, _, _)| k == key) {
            lines.push(DiffLine {
                key: key.clone(),
                old: None,
                new: Some(*new_value),
                higher_is_better: higher_is_better(key),
                verdict: Verdict::Missing,
            });
        }
    }
    DiffReport {
        threshold_pct,
        lines,
    }
}

fn classify(old: u64, new: u64, higher_is_better: bool, threshold_pct: u64) -> Verdict {
    if old == new {
        return Verdict::Same;
    }
    let worse = if higher_is_better {
        new < old
    } else {
        new > old
    };
    if !worse {
        return Verdict::Improved;
    }
    // Relative check in u128 to dodge overflow: is the bad move larger
    // than threshold_pct percent of the old value? A counter growing
    // from zero has no baseline to be relative to, so any growth
    // regresses (and any drop to zero of a higher-is-better counter
    // does too).
    let old_w = u128::from(old);
    let new_w = u128::from(new);
    let t = u128::from(threshold_pct);
    let beyond = if higher_is_better {
        u128::from(old - new) * 100 > old_w * t
    } else if old == 0 {
        true
    } else {
        u128::from(new - old) * 100 > old_w * t && new_w > 0
    };
    if beyond {
        Verdict::Regressed
    } else {
        Verdict::Tolerated
    }
}

/// Returns `json` with every object field whose key ends in
/// [`NONDET_SUFFIX`] removed, recursively. CI byte-diffs the result
/// across runs: what survives the strip must be deterministic.
pub fn strip_nondet(json: &Json) -> Json {
    match json {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| !k.ends_with(NONDET_SUFFIX))
                .map(|(k, v)| (k.clone(), strip_nondet(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_nondet).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(pairs: &[(&str, u64)]) -> Json {
        Json::obj(pairs.iter().map(|(k, v)| (*k, Json::U64(*v))))
    }

    #[test]
    fn regression_on_lower_better_growth() {
        let old = doc(&[("walks", 100)]);
        let new = doc(&[("walks", 120)]);
        let report = bench_diff(&old, &new, 10);
        assert!(report.has_regressions());
        assert!(report.render().contains("REGRESSED"), "{}", report.render());
        // Within threshold: tolerated.
        let new = doc(&[("walks", 105)]);
        assert!(!bench_diff(&old, &new, 10).has_regressions());
    }

    #[test]
    fn higher_better_counters_regress_on_drops() {
        let old = doc(&[("hits_warm", 50), ("sanitize_skipped", 40)]);
        let new = doc(&[("hits_warm", 10), ("sanitize_skipped", 44)]);
        let report = bench_diff(&old, &new, 10);
        let hits = report.lines.iter().find(|l| l.key == "hits_warm").unwrap();
        assert_eq!(hits.verdict, Verdict::Regressed);
        assert!(hits.higher_is_better);
        let skipped = report
            .lines
            .iter()
            .find(|l| l.key == "sanitize_skipped")
            .unwrap();
        assert_eq!(skipped.verdict, Verdict::Improved);
    }

    #[test]
    fn recovery_counters_regress_on_drops() {
        // The guard drills' oracles: a lost byte-identical recovery or
        // a response that stopped surviving byte-level abuse must gate.
        let old = doc(&[("recoveries_byte_identical", 5), ("survived_ok", 20)]);
        let new = doc(&[("recoveries_byte_identical", 0), ("survived_ok", 20)]);
        let report = bench_diff(&old, &new, 10);
        assert!(report.has_regressions());
        let rec = report
            .lines
            .iter()
            .find(|l| l.key == "recoveries_byte_identical")
            .unwrap();
        assert_eq!(rec.verdict, Verdict::Regressed);
        assert!(rec.higher_is_better);
    }

    #[test]
    fn nondet_keys_never_gate() {
        let old = doc(&[("wall_nanos_nondet", 10)]);
        let new = doc(&[("wall_nanos_nondet", 99999)]);
        let report = bench_diff(&old, &new, 10);
        assert!(!report.has_regressions());
        assert_eq!(report.lines[0].verdict, Verdict::Info);
    }

    #[test]
    fn missing_keys_are_informational() {
        // New keys, dropped `_nondet` keys and dropped array elements
        // (a histogram bucket list that got shorter) never gate.
        let bucket = |n| Json::obj([("count", Json::U64(n))]);
        let old = Json::obj([
            ("a_nondet", Json::U64(1)),
            ("buckets", Json::Arr(vec![bucket(1), bucket(2)])),
        ]);
        let new = Json::obj([("b", Json::U64(2)), ("buckets", Json::Arr(vec![bucket(1)]))]);
        let report = bench_diff(&old, &new, 10);
        assert!(!report.has_regressions(), "{}", report.render());
        let missing: Vec<&str> = report
            .lines
            .iter()
            .filter(|l| l.verdict == Verdict::Missing)
            .map(|l| l.key.as_str())
            .collect();
        assert_eq!(missing, ["a_nondet", "buckets.1.count", "b"]);
    }

    #[test]
    fn deleted_counter_regresses() {
        let old = Json::obj([("a", doc(&[("walks", 5), ("hits", 3)]))]);
        let new = Json::obj([("a", doc(&[("hits", 3)]))]);
        let report = bench_diff(&old, &new, 10);
        assert!(report.has_regressions(), "{}", report.render());
        let walks = report.lines.iter().find(|l| l.key == "a.walks").unwrap();
        assert_eq!(walks.verdict, Verdict::Regressed);
        assert_eq!(walks.new, None);
        assert!(report.render().contains("REGRESSED  ↓ a.walks  5 -> -"));
    }

    #[test]
    fn strip_removes_exactly_tagged_keys() {
        let json = Json::obj([
            ("steps", Json::U64(3)),
            ("wall_nanos_nondet", Json::U64(123)),
            (
                "nested",
                Json::obj([("rate_nondet", Json::U64(4)), ("kept", Json::U64(5))]),
            ),
        ]);
        let stripped = strip_nondet(&json).render();
        assert!(!stripped.contains("nondet"), "{stripped}");
        assert!(stripped.contains("\"steps\": 3"), "{stripped}");
        assert!(stripped.contains("\"kept\": 5"), "{stripped}");
    }

    #[test]
    fn zero_baseline_growth_regresses() {
        let old = doc(&[("reservation_failures", 0)]);
        let new = doc(&[("reservation_failures", 1)]);
        assert!(bench_diff(&old, &new, 10).has_regressions());
    }
}
