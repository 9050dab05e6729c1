//! Property tests for fingerprint soundness — the load-bearing invariant
//! of the whole incremental layer. A fingerprint must change whenever an
//! edit can change a function's check outcome (body, own signature,
//! callee signature, reachable struct), must NOT change under
//! formatting, and an incremental run through a stale store must agree
//! verdict-for-verdict with a cold `check_program`.

use proptest::prelude::*;

use fearless_core::{check_program, program_fingerprints, CheckerOptions};
use fearless_incr::{check_units, CachedOutcome, DiskCache};
use fearless_syntax::parse_program;
use fearless_trace::Tracer;
use std::collections::BTreeMap;

/// A small call-graph template: `caller` depends on `get` and `make`,
/// `add` stands alone, and `get`/`make` both reach `data`.
fn src(body_k: i64, get_pinned: bool, field: &str) -> String {
    let pinned = if get_pinned { "pinned d " } else { "" };
    format!(
        "struct data {{ {field}: int }}
         def make(v: int) : data {{ new data(v) }}
         def get(d: data) : int {pinned}{{ d.{field} }}
         def add(a: int, b: int) : int {{ a + b + {body_k} }}
         def caller(v: int) : int {{ get(make(v)) }}"
    )
}

fn fingerprints(source: &str) -> BTreeMap<String, String> {
    let program = parse_program(source).unwrap();
    program_fingerprints(&program, &CheckerOptions::default())
        .unwrap()
        .into_iter()
        .map(|(name, fp)| (name.to_string(), fp.to_hex()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Editing one function's body re-fingerprints that function and
    /// nothing else.
    #[test]
    fn body_edit_is_isolated(k in 0i64..1000, delta in 1i64..1000) {
        let a = fingerprints(&src(k, false, "value"));
        let b = fingerprints(&src(k + delta, false, "value"));
        prop_assert_ne!(&a["add"], &b["add"]);
        prop_assert_eq!(&a["make"], &b["make"]);
        prop_assert_eq!(&a["get"], &b["get"]);
        prop_assert_eq!(&a["caller"], &b["caller"]);
    }

    /// Editing a signature re-fingerprints the function AND its callers,
    /// but not unrelated functions.
    #[test]
    fn signature_edit_invalidates_callers(k in 0i64..1000) {
        let plain = fingerprints(&src(k, false, "value"));
        let pinned = fingerprints(&src(k, true, "value"));
        prop_assert_ne!(&plain["get"], &pinned["get"]);
        prop_assert_ne!(&plain["caller"], &pinned["caller"], "caller sees get's sig");
        prop_assert_eq!(&plain["make"], &pinned["make"]);
        prop_assert_eq!(&plain["add"], &pinned["add"]);
    }

    /// Editing a struct re-fingerprints every function that can reach it
    /// through its types or callees; a function touching no structs keeps
    /// its fingerprint.
    #[test]
    fn struct_edit_invalidates_reachers(k in 0i64..1000) {
        let a = fingerprints(&src(k, false, "value"));
        let b = fingerprints(&src(k, false, "payload"));
        prop_assert_ne!(&a["make"], &b["make"]);
        prop_assert_ne!(&a["get"], &b["get"]);
        prop_assert_ne!(&a["caller"], &b["caller"]);
        prop_assert_eq!(&a["add"], &b["add"], "add never touches data");
    }

    /// Formatting is invisible: extra whitespace moves every span but no
    /// fingerprint.
    #[test]
    fn formatting_is_invisible(k in 0i64..1000, pad in 1usize..40) {
        let source = src(k, false, "value");
        let reformatted = source.replace('\n', &format!("\n{}", " ".repeat(pad)));
        prop_assert_eq!(fingerprints(&source), fingerprints(&reformatted));
    }

    /// The end-to-end soundness property: re-checking a random sequence
    /// of program variants through ONE long-lived store gives exactly the
    /// verdict a cold `check_program` gives on each variant — including
    /// the variants that fail to check (`get` loses its body's field).
    /// The store keeps replayable summaries, not derivations, so accepted
    /// variants compare each function's derivation shape.
    #[test]
    fn incremental_agrees_with_cold_check_everywhere(
        edits in prop::collection::vec((0i64..1000, prop::bool::ANY, 0usize..4), 1..12),
    ) {
        let opts = CheckerOptions::default();
        let mut cache = DiskCache::ephemeral();
        let mut last = None;
        for (k, pinned, field_pick) in edits {
            // field_pick 3 renames the struct field but NOT the body use,
            // producing a variant that must fail identically both ways.
            let field = ["value", "payload", "item"][field_pick.min(2)];
            let source = if field_pick == 3 {
                src(k, pinned, "value").replacen("value: int", "moved: int", 1)
            } else {
                src(k, pinned, field).to_string()
            };
            let program = parse_program(&source).unwrap();
            let cold = check_program(&program, &opts);
            let units = vec![(String::new(), program)];
            let run = check_units(&units, &opts, 1, Some(&mut cache), &mut Tracer::off());
            let unit = &run.units[0];
            match (cold, unit.first_error()) {
                (Ok(c), None) => {
                    prop_assert_eq!(c.derivations.len(), unit.functions.len());
                    for (d, f) in c.derivations.iter().zip(&unit.functions) {
                        match &f.outcome {
                            CachedOutcome::Ok { nodes, counts } => {
                                prop_assert_eq!(*nodes, d.len() as u64);
                                prop_assert_eq!(counts.vir_steps(), d.vir_steps as u64);
                                prop_assert_eq!(counts.search_nodes(), d.search_nodes as u64);
                            }
                            CachedOutcome::Err { message, .. } => {
                                prop_assert!(false, "{} failed: {message}", f.name)
                            }
                        }
                    }
                }
                (Err(c), Some(i)) => prop_assert_eq!(c, i),
                (c, i) => prop_assert!(
                    false,
                    "verdicts diverged: cold ok={} incr ok={}",
                    c.is_ok(),
                    i.is_none()
                ),
            }
            last = Some(units);
        }
        // Re-checking the final variant warm must answer every function
        // from the store, erroring variants included.
        let units = last.unwrap();
        let warm = check_units(&units, &opts, 1, Some(&mut cache), &mut Tracer::off());
        prop_assert_eq!(warm.stats.hits, units[0].1.funcs.len() as u64);
        prop_assert_eq!(warm.stats.misses, 0, "warm run must not re-derive");
    }
}
