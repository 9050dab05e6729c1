//! FA002 against a cold reference: for every program with a probeable
//! annotation, the lint's findings must equal those of a naive oracle
//! that deletes each annotation in a fresh clone and re-checks the whole
//! program cold with `check_program`. The lint answers its probes from a
//! fingerprint store; this pins that the store never changes a verdict.
//! It also pins the patched environments probes check under: after an
//! annotation probe's `patch_sig` or an `iso` flip's `patch_struct`, the
//! environment equals a cold `Globals::build` of the probed program.

use fearless_analyze::{analyze_program, LintCode};
use fearless_core::{
    check_program, fn_fingerprint, CheckedProgram, CheckerMode, CheckerOptions, Fingerprint,
    Globals,
};
use fearless_syntax::{Program, Span, Symbol};

/// A finding's identity: the function it names (none for struct fields)
/// and the span it points at.
type Finding = (Option<String>, u32, u32);

fn finding(func: Option<&str>, span: Span) -> Finding {
    (func.map(str::to_string), span.lo, span.hi)
}

/// The oracle: every FA002 candidate, probed by a cold whole-program
/// re-check of a mutated clone.
fn reference(checked: &CheckedProgram) -> Vec<Finding> {
    let original = &checked.program;
    let checks = |p: &Program| check_program(p, &checked.options).is_ok();
    let mut found = Vec::new();
    for (fi, f) in original.funcs.iter().enumerate() {
        let param_span = |name: &Symbol| {
            f.params
                .iter()
                .find(|p| p.name == *name)
                .map_or(f.span, |p| p.span)
        };
        let func = Some(f.name.as_str());
        for (i, name) in f.annotations.pinned.iter().enumerate() {
            let mut p = original.clone();
            p.funcs[fi].annotations.pinned.remove(i);
            if checks(&p) {
                found.push(finding(func, param_span(name)));
            }
        }
        for (i, rel) in f.annotations.before.iter().enumerate() {
            let mut p = original.clone();
            p.funcs[fi].annotations.before.remove(i);
            if checks(&p) {
                found.push(finding(func, rel.span));
            }
        }
        for (i, name) in f.annotations.consumes.iter().enumerate() {
            let mut p = original.clone();
            p.funcs[fi].annotations.consumes.remove(i);
            if checks(&p) {
                found.push(finding(func, param_span(name)));
            }
        }
    }
    for (si, s) in original.structs.iter().enumerate() {
        for (fi, field) in s.fields.iter().enumerate() {
            if field.iso {
                let mut p = original.clone();
                p.structs[si].fields[fi].iso = false;
                if checks(&p) {
                    found.push(finding(None, field.span));
                }
            }
        }
    }
    found.sort();
    found
}

fn has_probeable_annotation(p: &Program) -> bool {
    p.funcs.iter().any(|f| {
        let a = &f.annotations;
        !a.pinned.is_empty() || !a.before.is_empty() || !a.consumes.is_empty()
    }) || p.structs.iter().any(|s| s.fields.iter().any(|f| f.iso))
}

fn assert_matches_reference(label: &str, checked: &CheckedProgram) {
    let report = analyze_program(checked).unwrap_or_else(|e| panic!("`{label}`: {e}"));
    let mut lint: Vec<Finding> = report
        .lints
        .iter()
        .filter(|l| l.code == LintCode::OverStrongAnnotation)
        .map(|l| finding(l.func.as_deref(), l.span))
        .collect();
    lint.sort();
    assert_eq!(lint, reference(checked), "FA002 diverged on `{label}`");
}

#[test]
fn fa002_matches_cold_reference_on_annotated_corpus() {
    let opts = CheckerOptions::default();
    let mut covered = 0;
    for entry in fearless_corpus::accepted_entries() {
        let checked = entry.check(&opts).unwrap_or_else(|e| panic!("{e}"));
        if has_probeable_annotation(&checked.program) {
            assert_matches_reference(entry.name, &checked);
            covered += 1;
        }
    }
    assert!(covered > 0, "no annotated corpus entry was probed");
}

#[test]
fn fa002_matches_cold_reference_on_a_synth_program() {
    let src = fearless_synth::synthesize(&fearless_synth::SynthOptions {
        seed: 7,
        functions: 40,
        ..fearless_synth::SynthOptions::default()
    });
    let checked = fearless_core::check_source(&src, &CheckerOptions::default())
        .unwrap_or_else(|e| panic!("{}", e.render(&src)));
    assert!(has_probeable_annotation(&checked.program));
    assert_matches_reference("synth seed 7", &checked);
}

fn check(src: &str) -> CheckedProgram {
    fearless_core::check_source(src, &CheckerOptions::default())
        .unwrap_or_else(|e| panic!("{}", e.render(src)))
}

#[test]
fn fa002_matches_cold_reference_when_a_probe_breaks_the_environment() {
    // Un-`iso`ing `dll.hd` invalidates `first`'s `after: l.hd ~ result`,
    // so that probe fails in environment validation, before any function
    // is checked; un-`iso`ing `dll_node.payload` still checks.
    let checked = check(
        "struct data { value: int }
         struct dll_node { iso payload : data; next : dll_node; prev : dll_node }
         struct dll { iso hd : dll_node? }
         def first(l : dll) : dll_node? after: l.hd ~ result {
           let some(node) = l.hd in { some(node) } else { none }
         }
         def head_value(l : dll) : int {
           let some(n) = first(l) in { n.payload.value } else { 0 }
         }",
    );
    let env_errors = fearless_analyze::fa002_dirty_sets(&checked)
        .unwrap()
        .iter()
        .filter(|(p, _)| fearless_core::Globals::build(p, checked.options.mode).is_err())
        .count();
    assert_eq!(env_errors, 1);
    assert_matches_reference("env-error probe", &checked);
}

#[test]
fn fa002_matches_cold_reference_when_a_probe_fails_early() {
    // Deleting `consumes d` from `ship` dirties `ship` and its caller
    // `relay`; `ship` fails first, so the probe stops before `relay`.
    let checked = check(
        "struct data { value: int }
         def ship(d : data) : unit consumes d { send(d); unit }
         def relay(d : data) : unit consumes d { ship(d) }
         def forward(d : data) : unit consumes d { relay(d) }
         def peek(d : data) : int pinned d { d.value }
         def twice(d : data) : int { peek(d) + peek(d) }",
    );
    let dirty: usize = fearless_analyze::fa002_dirty_sets(&checked)
        .unwrap()
        .iter()
        .map(|(_, dirty)| dirty.len())
        .sum();
    let stats = analyze_program(&checked).unwrap().stats;
    assert!(
        stats.recheck_fingerprints < dirty as u64,
        "no probe stopped early: {} of {dirty} dirty functions fingerprinted",
        stats.recheck_fingerprints
    );
    assert_matches_reference("early-failing probe", &checked);
}

/// Deletes every `pinned`, `before` and `consumes` entry of `checked` in
/// turn and compares the probe's patched environment (`patch_sig` on the
/// original one) with a cold `Globals::build` of the probed program: equal
/// signatures, and an error from one exactly when the other errs. Returns
/// the number of probes.
fn assert_patches_match_builds(label: &str, checked: &CheckedProgram) -> usize {
    let mode = checked.options.mode;
    let original = Globals::build(&checked.program, mode).unwrap();
    let mut env = original.clone();
    let mut program = checked.program.clone();
    let mut probes = 0;
    for fi in 0..program.funcs.len() {
        let saved = program.funcs[fi].annotations.clone();
        let (pinned, before) = (saved.pinned.len(), saved.before.len());
        for k in 0..pinned + before + saved.consumes.len() {
            let a = &mut program.funcs[fi].annotations;
            if k < pinned {
                a.pinned.remove(k);
            } else if k < pinned + before {
                a.before.remove(k - pinned);
            } else {
                a.consumes.remove(k - pinned - before);
            }
            let f = &program.funcs[fi];
            match (env.patch_sig(f), Globals::build(&program, mode)) {
                (Ok(old), Ok(cold)) => {
                    assert!(
                        env.sigs().eq(cold.sigs()),
                        "`{label}`: patched signatures differ from a build after probe {k} of `{}`",
                        f.name
                    );
                    env.restore_sig(old);
                }
                (Err(_), Err(_)) => {}
                (patched, cold) => panic!(
                    "`{label}`: probe {k} of `{}`: patch ok {}, build ok {}",
                    f.name,
                    patched.is_ok(),
                    cold.is_ok()
                ),
            }
            assert!(
                env.sigs().eq(original.sigs()),
                "`{label}`: probe {k} of `{}` was not undone",
                f.name
            );
            program.funcs[fi].annotations = saved.clone();
            probes += 1;
        }
    }
    probes
}

#[test]
fn annotation_probe_environments_match_cold_builds_on_the_corpus() {
    let opts = CheckerOptions::default();
    let mut probes = 0;
    for entry in fearless_corpus::accepted_entries() {
        let checked = entry.check(&opts).unwrap_or_else(|e| panic!("{e}"));
        probes += assert_patches_match_builds(entry.name, &checked);
    }
    assert!(probes > 0, "no corpus annotation was probed");
}

#[test]
fn annotation_probe_environments_match_cold_builds_on_seed_42() {
    // The program `fearlessc synth --seed 42 --functions 1000` writes.
    let src = fearless_synth::synthesize(&fearless_synth::SynthOptions {
        seed: 42,
        functions: 1000,
        ..fearless_synth::SynthOptions::default()
    });
    let checked = check(&src);
    assert_eq!(assert_patches_match_builds("synth seed 42", &checked), 66);
}

#[test]
fn a_patch_error_leaves_the_environment_unchanged() {
    // `before: a ~ b` names two parameters; renaming one of them makes the
    // edited signature fail to elaborate.
    let checked = check(
        "struct data { value: int }
         def pair(a : data, b : data) : int before: a ~ b { a.value + b.value }",
    );
    let original = Globals::build(&checked.program, checked.options.mode).unwrap();
    let mut env = original.clone();
    let mut edited = checked.program.funcs[0].clone();
    edited.params[1].name = fearless_syntax::Symbol::new("c");
    assert!(env.patch_sig(&edited).is_err());
    assert!(env.sigs().eq(original.sigs()));
}

/// Every function's fingerprint under `globals`.
fn fingerprints(globals: &Globals, checked: &CheckedProgram) -> Vec<Fingerprint> {
    let funcs = &checked.program.funcs;
    funcs
        .iter()
        .map(|f| fn_fingerprint(globals, &checked.options, f))
        .collect()
}

/// Un-`iso`s every `iso` field of `checked` in turn through `patch_struct`
/// on one environment whose fingerprint memos are already filled, and
/// compares it with a cold `Globals::build` of the flipped program: the
/// same error, or the same signatures, struct declaration and fingerprint
/// for every function. After `restore_struct` every signature and
/// fingerprint must equal the original. Returns the number of flips that
/// patched, and the number that failed.
fn assert_struct_patches_match_builds(label: &str, checked: &CheckedProgram) -> (usize, usize) {
    let mode = checked.options.mode;
    let mut env = Globals::build(&checked.program, mode).unwrap();
    let original = fingerprints(&env, checked);
    let (mut patched, mut failed) = (0, 0);
    for (si, s) in checked.program.structs.iter().enumerate() {
        for (fi, field) in s.fields.iter().enumerate().filter(|(_, f)| f.iso) {
            let what = format!("`{label}`: un-iso `{}.{}`", s.name, field.name);
            let mut flipped = checked.clone();
            flipped.program.structs[si].fields[fi].iso = false;
            let edited = &flipped.program.structs[si];
            match (
                env.patch_struct(edited, &checked.program.funcs, mode),
                Globals::build(&flipped.program, mode),
            ) {
                (Ok(patch), Ok(cold)) => {
                    assert!(env.sigs().eq(cold.sigs()), "{what}: signatures differ");
                    assert_eq!(env.struct_def(&s.name), cold.struct_def(&s.name), "{what}");
                    assert_eq!(
                        fingerprints(&env, &flipped),
                        fingerprints(&cold, &flipped),
                        "{what}: fingerprints differ"
                    );
                    env.restore_struct(patch);
                    patched += 1;
                }
                (Err(patch), Err(cold)) => {
                    assert_eq!(patch, cold, "{what}: errors differ");
                    failed += 1;
                }
                (patch, cold) => panic!(
                    "{what}: patch ok {}, build ok {}",
                    patch.is_ok(),
                    cold.is_ok()
                ),
            }
            assert_eq!(env.struct_def(&s.name), Some(s), "{what}: not undone");
            assert_eq!(fingerprints(&env, checked), original, "{what}: not undone");
        }
    }
    (patched, failed)
}

#[test]
fn iso_flip_environments_match_cold_builds_on_the_corpus() {
    let opts = CheckerOptions::default();
    let (mut patched, mut failed) = (0, 0);
    for entry in fearless_corpus::accepted_entries() {
        let checked = entry.check(&opts).unwrap_or_else(|e| panic!("{e}"));
        let (p, f) = assert_struct_patches_match_builds(entry.name, &checked);
        patched += p;
        failed += f;
    }
    assert!(patched > 0, "no corpus iso flip patched");
    assert!(failed > 0, "no corpus iso flip broke its environment");
}

#[test]
fn iso_flip_environments_match_cold_builds_on_seed_42() {
    let src = fearless_synth::synthesize(&fearless_synth::SynthOptions {
        seed: 42,
        functions: 1000,
        ..fearless_synth::SynthOptions::default()
    });
    let (patched, failed) = assert_struct_patches_match_builds("synth seed 42", &check(&src));
    assert_eq!(patched + failed, 22);
}

#[test]
fn an_iso_flip_that_breaks_tree_of_objects_validation_changes_nothing() {
    // Under the tree-of-objects discipline every reference field must be
    // `iso`, so each flip fails in struct validation, the same way a cold
    // build of the flipped program fails.
    let src = "struct data { value: int }
         struct sll_node { iso payload : data; iso next : sll_node? }
         struct sll { iso hd : sll_node? }
         def peek(l : sll) : int {
           let some(n) = l.hd in { n.payload.value } else { 0 }
         }";
    let opts = CheckerOptions::with_mode(CheckerMode::TreeOfObjects);
    let checked = fearless_core::check_source(src, &opts).unwrap_or_else(|e| panic!("{e}"));
    let sigs: Vec<_> = Globals::build(&checked.program, opts.mode)
        .unwrap()
        .sigs()
        .cloned()
        .collect();
    assert_eq!(
        assert_struct_patches_match_builds("tree of objects", &checked),
        (0, 3)
    );
    let mut env = Globals::build(&checked.program, opts.mode).unwrap();
    let mut edited = checked.program.structs[1].clone();
    edited.fields[1].iso = false;
    let err = env
        .patch_struct(&edited, &checked.program.funcs, opts.mode)
        .unwrap_err();
    assert!(err.to_string().contains("tree-of-objects"), "{err}");
    assert!(env.sigs().eq(sigs.iter()));
    assert_eq!(
        env.struct_def(&edited.name),
        Some(&checked.program.structs[1])
    );
    assert_matches_reference("tree of objects", &checked);
}
