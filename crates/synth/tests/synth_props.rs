//! Property tests for the synthesizer's three contracts (docs/CORPUS.md):
//! every seed yields a program that (1) checks cleanly under the
//! tempered checker, (2) round-trips through the pretty-printer and
//! parser, and (3) fingerprints identically across two independent
//! same-seed generations and across a pretty-printer round trip, one
//! distinct fingerprint per function.
//!
//! Sizes are kept small (the checker runs on every case); the scale
//! story lives in `validate_seeds.rs` and bench E13.

use fearless_core::{check_program, fn_fingerprint, program_fingerprints, CheckerOptions, Globals};
use fearless_synth::{synthesize, SynthOptions};
use proptest::prelude::*;

fn opts(seed: u64, functions: usize, boxes: usize) -> SynthOptions {
    SynthOptions {
        seed,
        functions,
        boxes,
        max_ops: 3,
        window: 12,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn any_seed_checks_cleanly(
        seed in 0u64..u64::MAX,
        functions in 4usize..40,
        boxes in 0usize..5,
    ) {
        let src = synthesize(&opts(seed, functions, boxes));
        let program = fearless_syntax::parse_program(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: parse error: {e}"));
        check_program(&program, &CheckerOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed}: type error: {e}"));
    }

    #[test]
    fn any_seed_round_trips_through_the_pretty_printer(
        seed in 0u64..u64::MAX,
        functions in 4usize..40,
    ) {
        let src = synthesize(&opts(seed, functions, 3));
        let p1 = fearless_syntax::parse_program(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: parse error: {e}"));
        let printed1 = fearless_syntax::pretty::program_to_string(&p1);
        let p2 = fearless_syntax::parse_program(&printed1)
            .unwrap_or_else(|e| panic!("seed {seed}: reparse error: {e}"));
        // Fixpoint: printing the reparsed program changes nothing, and
        // the reprinted program still checks.
        let printed2 = fearless_syntax::pretty::program_to_string(&p2);
        prop_assert_eq!(&printed1, &printed2, "pretty fixpoint broken at seed {}", seed);
        check_program(&p2, &CheckerOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed}: reprinted program fails: {e}"));
    }

    #[test]
    fn same_seed_generations_fingerprint_identically(
        seed in 0u64..u64::MAX,
        functions in 4usize..40,
    ) {
        let o = opts(seed, functions, 3);
        let options = CheckerOptions::default();
        let fps: Vec<Vec<(String, fearless_core::Fingerprint)>> = (0..2)
            .map(|_| {
                let program = fearless_syntax::parse_program(&synthesize(&o))
                    .unwrap_or_else(|e| panic!("seed {seed}: parse error: {e}"));
                let globals = Globals::build(&program, options.mode)
                    .unwrap_or_else(|e| panic!("seed {seed}: env error: {e}"));
                program
                    .funcs
                    .iter()
                    .map(|f| {
                        (
                            f.name.as_str().to_string(),
                            fn_fingerprint(&globals, &options, f),
                        )
                    })
                    .collect()
            })
            .collect();
        prop_assert_eq!(&fps[0], &fps[1], "fingerprints drifted at seed {}", seed);
    }

    #[test]
    fn fingerprints_are_distinct_and_survive_the_pretty_printer(
        seed in 0u64..u64::MAX,
        functions in 4usize..40,
    ) {
        let options = CheckerOptions::default();
        let parsed = fearless_syntax::parse_program(&synthesize(&opts(seed, functions, 3)))
            .unwrap_or_else(|e| panic!("seed {seed}: parse error: {e}"));
        let reparsed =
            fearless_syntax::parse_program(&fearless_syntax::pretty::program_to_string(&parsed))
                .unwrap_or_else(|e| panic!("seed {seed}: reparse error: {e}"));
        let fps = program_fingerprints(&parsed, &options)
            .unwrap_or_else(|e| panic!("seed {seed}: env error: {e}"));
        let refps = program_fingerprints(&reparsed, &options)
            .unwrap_or_else(|e| panic!("seed {seed}: env error: {e}"));
        prop_assert_eq!(&fps, &refps, "round trip moved a fingerprint at seed {}", seed);
        let distinct: std::collections::BTreeSet<_> = fps.iter().map(|(_, fp)| *fp).collect();
        prop_assert_eq!(distinct.len(), fps.len(), "two functions share a fingerprint at seed {}", seed);
    }
}
