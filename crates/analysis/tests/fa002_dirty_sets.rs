//! FA002 probes re-derive only their dirty sets. This holds those sets
//! against whole-program fingerprints: for every probe, every function
//! whose fingerprint differs between the original and the mutated program
//! must be in the probe's dirty set, and the annotated function comes
//! first. A probe whose environment no longer validates fails before
//! deriving anything, so it has no fingerprints to compare; such probes
//! are counted, and seed 42 must have one (its `l.hd` flip).

use fearless_analyze::fa002_dirty_sets;
use fearless_core::{program_fingerprints, CheckedProgram, CheckerOptions};

/// Checks every probe of `checked` and returns how many of them fail
/// environment validation.
fn assert_dirty_sets_cover_changes(label: &str, checked: &CheckedProgram) -> usize {
    let base = program_fingerprints(&checked.program, &checked.options).unwrap();
    let mut env_errors = 0;
    for (probe, (mutated, dirty)) in fa002_dirty_sets(checked).unwrap().iter().enumerate() {
        let Ok(after) = program_fingerprints(mutated, &checked.options) else {
            env_errors += 1;
            continue;
        };
        assert_eq!(base.len(), after.len());
        for (i, (old, new)) in base.iter().zip(&after).enumerate() {
            assert!(
                old == new || dirty.contains(&i),
                "`{label}` probe {probe}: `{}` changed its fingerprint outside the dirty set {dirty:?}",
                old.0
            );
        }
        if let Some(edited) =
            (0..base.len()).find(|&i| mutated.funcs[i] != checked.program.funcs[i])
        {
            assert_eq!(
                dirty.first(),
                Some(&edited),
                "`{label}` probe {probe}: order"
            );
        }
        let mut sorted = dirty.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            dirty.len(),
            "`{label}` probe {probe}: duplicates"
        );
    }
    env_errors
}

fn synth(seed: u64, functions: usize) -> CheckedProgram {
    let src = fearless_synth::synthesize(&fearless_synth::SynthOptions {
        seed,
        functions,
        ..fearless_synth::SynthOptions::default()
    });
    fearless_core::check_source(&src, &CheckerOptions::default())
        .unwrap_or_else(|e| panic!("{}", e.render(&src)))
}

#[test]
fn dirty_sets_cover_every_changed_fingerprint_on_the_corpus() {
    let opts = CheckerOptions::default();
    let mut probed = 0;
    for entry in fearless_corpus::accepted_entries() {
        let checked = entry.check(&opts).unwrap_or_else(|e| panic!("{e}"));
        if !fa002_dirty_sets(&checked).unwrap().is_empty() {
            assert_dirty_sets_cover_changes(entry.name, &checked);
            probed += 1;
        }
    }
    assert!(probed > 0, "no annotated corpus entry was probed");
}

#[test]
fn dirty_sets_cover_every_changed_fingerprint_on_synth_seed_7() {
    let checked = synth(7, 40);
    assert_dirty_sets_cover_changes("synth seed 7", &checked);
}

#[test]
fn dirty_sets_cover_every_changed_fingerprint_on_synth_seed_42() {
    let checked = synth(42, 200);
    assert!(checked.program.funcs.len() >= 200);
    let env_errors = assert_dirty_sets_cover_changes("synth seed 42", &checked);
    assert!(env_errors > 0, "no probe broke the environment");
}
