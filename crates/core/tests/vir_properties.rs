//! Property tests for the virtual-transformation layer: random sequences
//! of *applicable* transformations must preserve context well-formedness,
//! canonicalization must be invariant under alpha-renaming, the
//! capability interpretation must be monotone under the weakening steps,
//! and a step applied to a clone must leave the original as it was.

use proptest::prelude::*;

use fearless_core::ctx::Binding;
use fearless_core::search::canonical_key;
use fearless_core::{vir, CheckerMode, Globals, RegionId, TrackCtx, TypeState, VirStep};
use fearless_syntax::{parse_program, Symbol, Type};

fn globals() -> Globals {
    let p = parse_program(
        "struct data { value: int }
         struct node { iso a : node?; iso b : node?; iso payload : data }",
    )
    .unwrap();
    Globals::build(&p, CheckerMode::Tempered).unwrap()
}

/// Builds an initial state with `vars` variables spread over `regions`
/// regions.
fn initial(vars: usize, regions: usize) -> TypeState {
    let mut st = TypeState::new();
    let rids: Vec<RegionId> = (0..regions.max(1)).map(|_| st.fresh_region()).collect();
    for &r in &rids {
        st.heap.insert(r, TrackCtx::empty());
    }
    for i in 0..vars {
        st.gamma.bind(
            Symbol::new(format!("v{i}")),
            Binding {
                region: Some(rids[i % rids.len()]),
                ty: Type::named("node"),
            },
        );
    }
    st
}

/// Enumerates every applicable transformation in `st` (mirrors the search
/// move generator, but built from public APIs only).
fn applicable(globals: &Globals, st: &TypeState) -> Vec<VirStep> {
    let mut out = Vec::new();
    for (x, b) in st.gamma.iter() {
        let Some(r) = b.region else { continue };
        if let Some(ctx) = st.heap.tracking(r) {
            if ctx.is_empty() && !ctx.pinned {
                out.push(VirStep::Focus { r, x: x.clone() });
            }
            if st.heap.tracked_in(x).is_none() {
                out.push(VirStep::Invalidate {
                    x: x.clone(),
                    fresh: RegionId(st.next_region),
                });
            }
        }
    }
    let node = globals.struct_def(&Symbol::new("node")).unwrap();
    for (r, ctx) in st.heap.iter() {
        for (x, vt) in &ctx.vars {
            if vt.fields.is_empty() {
                out.push(VirStep::Unfocus { r, x: x.clone() });
            }
            for fd in &node.fields {
                if fd.iso && !vt.fields.contains_key(&fd.name) {
                    out.push(VirStep::Explore {
                        r,
                        x: x.clone(),
                        f: fd.name.clone(),
                        fresh: RegionId(st.next_region),
                    });
                }
            }
            for (f, target) in &vt.fields {
                if st
                    .heap
                    .tracking(*target)
                    .map(|t| t.is_empty() && !t.pinned)
                    .unwrap_or(false)
                {
                    out.push(VirStep::Retract {
                        r,
                        x: x.clone(),
                        f: f.clone(),
                        target: *target,
                    });
                }
            }
        }
    }
    let regions: Vec<RegionId> = st.heap.iter().map(|(r, _)| r).collect();
    for &from in &regions {
        for &to in &regions {
            if from != to {
                out.push(VirStep::Attach { from, to });
            }
        }
        out.push(VirStep::Weaken { r: from });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any sequence of applicable transformations preserves
    /// well-formedness (tracked variables stay bound to their regions).
    #[test]
    fn applicable_steps_preserve_well_formedness(
        vars in 1usize..5,
        regions in 1usize..4,
        choices in prop::collection::vec(0usize..1000, 0..30),
    ) {
        let globals = globals();
        let mut st = initial(vars, regions);
        st.well_formed().unwrap();
        for c in choices {
            let moves = applicable(&globals, &st);
            if moves.is_empty() {
                break;
            }
            let step = moves[c % moves.len()].clone();
            vir::apply(&mut st, &step)
                .unwrap_or_else(|m| panic!("applicable step failed: {step}: {m}"));
            st.well_formed()
                .unwrap_or_else(|m| panic!("ill-formed after {step}: {m}"));
        }
    }

    /// States are copy-on-write: applying steps to a clone never changes
    /// the state it was cloned from, however many clones share its maps.
    #[test]
    fn steps_on_a_clone_leave_the_original_unchanged(
        vars in 1usize..5,
        regions in 1usize..4,
        choices in prop::collection::vec(0usize..1000, 0..30),
    ) {
        let globals = globals();
        let mut st = initial(vars, regions);
        // Every state of the run, next to a rendering taken before any
        // later step ran.
        let mut earlier: Vec<(TypeState, String)> = Vec::new();
        for c in choices {
            let moves = applicable(&globals, &st);
            if moves.is_empty() {
                break;
            }
            earlier.push((st.clone(), format!("{st:?}")));
            let step = moves[c % moves.len()].clone();
            vir::apply(&mut st, &step).unwrap();
        }
        for (state, rendered) in &earlier {
            prop_assert_eq!(&format!("{state:?}"), rendered);
        }
    }

    /// Canonical keys are invariant under alpha-renaming of regions.
    #[test]
    fn canonical_key_alpha_invariant(
        vars in 1usize..5,
        regions in 1usize..4,
        choices in prop::collection::vec(0usize..1000, 0..16),
        offset in 100u32..10_000,
    ) {
        let globals = globals();
        let mut st = initial(vars, regions);
        for c in choices {
            let moves = applicable(&globals, &st);
            if moves.is_empty() {
                break;
            }
            let step = moves[c % moves.len()].clone();
            vir::apply(&mut st, &step).unwrap();
        }
        let key = canonical_key(&st);
        // Rename every held region by a constant offset (bijective).
        let pairs: Vec<(RegionId, RegionId)> = st
            .heap
            .iter()
            .map(|(r, _)| (r, RegionId(r.0 + offset)))
            .collect();
        let mut renamed = st.clone();
        vir::rename(&mut renamed, &pairs).unwrap();
        prop_assert_eq!(canonical_key(&renamed), key);
    }

    /// Focus → explore → retract → unfocus is the identity on contexts
    /// (the paper's motivating example for TS1, §4.5).
    #[test]
    fn focus_roundtrip_is_identity(vars in 1usize..4) {
        let mut st = initial(vars, 1);
        let x = Symbol::new("v0");
        let r = st.gamma.get(&x).unwrap().region.unwrap();
        let before = st.clone();
        vir::focus(&mut st, r, &x).unwrap();
        let fresh = st.fresh_region();
        vir::explore(&mut st, r, &x, &Symbol::new("a"), fresh).unwrap();
        vir::retract(&mut st, r, &x, &Symbol::new("a"), fresh).unwrap();
        vir::unfocus(&mut st, r, &x).unwrap();
        prop_assert_eq!(st.heap, before.heap);
        prop_assert_eq!(st.gamma, before.gamma);
    }

    /// Weakening only shrinks the set of held capabilities and never
    /// invalidates other regions' tracking.
    #[test]
    fn weaken_is_monotone(
        vars in 1usize..5,
        regions in 2usize..4,
        pick in 0usize..10,
    ) {
        let mut st = initial(vars, regions);
        let held: Vec<RegionId> = st.heap.iter().map(|(r, _)| r).collect();
        let victim = held[pick % held.len()];
        let before: Vec<RegionId> = held.clone();
        vir::weaken(&mut st, victim).unwrap();
        let after: Vec<RegionId> = st.heap.iter().map(|(r, _)| r).collect();
        prop_assert_eq!(after.len(), before.len() - 1);
        prop_assert!(!after.contains(&victim));
        prop_assert!(after.iter().all(|r| before.contains(r)));
        st.well_formed().unwrap();
    }
}

#[test]
fn attach_is_associative_up_to_canonical_key() {
    // attach(a→b); attach(b→c) ≡ attach(b→c); attach(a→c) on the canonical
    // form.
    let mut st1 = initial(3, 3);
    let rs: Vec<RegionId> = st1.heap.iter().map(|(r, _)| r).collect();
    let mut st2 = st1.clone();
    vir::attach(&mut st1, rs[0], rs[1]).unwrap();
    vir::attach(&mut st1, rs[1], rs[2]).unwrap();
    vir::attach(&mut st2, rs[1], rs[2]).unwrap();
    vir::attach(&mut st2, rs[0], rs[2]).unwrap();
    assert_eq!(canonical_key(&st1), canonical_key(&st2));
}
