//! FA002 `over-strong-annotation`: annotations the program checks without.
//!
//! Each candidate annotation — a `pinned` parameter, a `before` region
//! relation, a `consumes` clause, or an `iso` field declaration — is
//! deleted in one owned copy of the program, the probe asks whether that
//! program still checks under the original options, and the annotation is
//! put back. `after` relations are skipped — they are promises to callers
//! outside this program, so weakening them is not locally justifiable.
//!
//! A probe's verdict is that of a whole-program re-check, callers
//! included, so a reported annotation can really be deleted. It re-derives
//! only the probe's *dirty set*, the functions whose fingerprint the
//! deletion can change. The checker is signature-modular (§4.4) and a
//! deletion leaves every function's [`fn_deps`] set as it was, so:
//!
//! * deleting an annotation of `f` changes `f`'s text and signature, and
//!   with it exactly the functions whose callees include `f`;
//! * flipping an `iso` field of `S` changes no signature, only the
//!   functions whose reachable structs include `S`.
//!
//! Both sets are read off one reverse index over the original program's
//! [`fn_deps`] sets, the same sets the fingerprints hash. Every other
//! function keeps its fingerprint, so it keeps the outcome the
//! [`CheckedProgram`] already proves. A probe whose environment no longer
//! validates fails outright. Otherwise it checks the dirty functions, the
//! annotated one first, and stops at the first failure. Verdicts are
//! memoized by fingerprint across probes.
//!
//! The probe's environment is patched, not rebuilt, and no probe copies
//! the program. No other signature and no struct reads a function's
//! annotations, so an annotation probe edits one copy of `f`, re-elaborates
//! only `f`'s signature ([`Globals::patch_sig`]) and puts the old one back
//! afterwards. An `iso` flip edits one copy of the struct and patches it
//! in ([`Globals::patch_struct`]): struct validation re-reads that struct
//! alone, and only the signatures whose `after` relations name one of its
//! fields are re-elaborated.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use fearless_core::check::check_fn;
use fearless_core::{fn_deps, fn_fingerprint, CheckedProgram, Fingerprint, Globals};
use fearless_syntax::{FnAnnotations, FnDef, Program, Severity, Span, Symbol};

use crate::{AnalysisReport, Lint, LintCode};

/// A function annotation kind a probe can delete.
#[derive(Clone, Copy)]
enum Ann {
    Pinned,
    Before,
    Consumes,
}

/// The one annotation a probe deletes.
#[derive(Clone, Copy)]
enum Deletion {
    /// Entry `at` of one annotation list of function `func`.
    Annotation { func: usize, ann: Ann, at: usize },
    /// The `iso` of field `field` of struct `strukt`.
    Iso { strukt: usize, field: usize },
}

impl Ann {
    /// Deletes entry `at` of this annotation list of `a`.
    fn delete(self, a: &mut FnAnnotations, at: usize) {
        match self {
            Ann::Pinned => drop(a.pinned.remove(at)),
            Ann::Before => drop(a.before.remove(at)),
            Ann::Consumes => drop(a.consumes.remove(at)),
        }
    }
}

impl Deletion {
    /// Deletes the annotation from `program`.
    fn apply(self, program: &mut Program) {
        match self {
            Deletion::Annotation { func, ann, at } => {
                ann.delete(&mut program.funcs[func].annotations, at);
            }
            Deletion::Iso { strukt, field } => program.structs[strukt].fields[field].iso = false,
        }
    }
}

/// One FA002 candidate: the deletion its probe tries and the finding it
/// reports when the program still checks.
struct Candidate {
    deletion: Deletion,
    span: Span,
    message: String,
}

/// Every candidate of `program`, function annotations in definition
/// order first, then `iso` fields.
fn candidates(program: &Program) -> Vec<Candidate> {
    let mut out = Vec::new();
    for (func, f) in program.funcs.iter().enumerate() {
        let param_span = |name: &Symbol| -> Span {
            f.params
                .iter()
                .find(|p| p.name == *name)
                .map_or(f.span, |p| p.span)
        };
        let a = &f.annotations;
        for (at, name) in a.pinned.iter().enumerate() {
            out.push(Candidate {
                deletion: Deletion::Annotation {
                    func,
                    ann: Ann::Pinned,
                    at,
                },
                span: param_span(name),
                message: format!("`pinned {name}` is unnecessary: the program checks without it"),
            });
        }
        for (at, rel) in a.before.iter().enumerate() {
            out.push(Candidate {
                deletion: Deletion::Annotation {
                    func,
                    ann: Ann::Before,
                    at,
                },
                span: rel.span,
                message: "this `before` relation is unnecessary: the program checks without it"
                    .to_string(),
            });
        }
        for (at, name) in a.consumes.iter().enumerate() {
            out.push(Candidate {
                deletion: Deletion::Annotation {
                    func,
                    ann: Ann::Consumes,
                    at,
                },
                span: param_span(name),
                message: format!(
                    "`consumes {name}` is over-strong: the program checks without consuming it"
                ),
            });
        }
    }
    for (strukt, s) in program.structs.iter().enumerate() {
        for (field, fd) in s.fields.iter().enumerate().filter(|(_, f)| f.iso) {
            out.push(Candidate {
                deletion: Deletion::Iso { strukt, field },
                span: fd.span,
                message: format!(
                    "field `{}.{}` is declared `iso` but the program checks with a plain field",
                    s.name, fd.name
                ),
            });
        }
    }
    out
}

/// The reverse of every function's [`fn_deps`] set over the original
/// program: which functions (by definition index, ascending) name a given
/// callee, and which reach a given struct.
struct Dependents {
    callers: HashMap<Symbol, Vec<usize>>,
    reaching: HashMap<Symbol, Vec<usize>>,
}

impl Dependents {
    fn build(program: &Program, globals: &Globals) -> Self {
        let mut callers: HashMap<Symbol, Vec<usize>> = HashMap::new();
        let mut reaching: HashMap<Symbol, Vec<usize>> = HashMap::new();
        for (i, f) in program.funcs.iter().enumerate() {
            let deps = fn_deps(globals, f);
            for name in deps.callees {
                callers.entry(name).or_default().push(i);
            }
            for name in deps.structs {
                reaching.entry(name).or_default().push(i);
            }
        }
        Dependents { callers, reaching }
    }

    /// The functions whose fingerprint `deletion` can change: the
    /// annotated function first, then the rest in definition order.
    fn dirty(&self, program: &Program, deletion: Deletion) -> Vec<usize> {
        let (index, name, first) = match deletion {
            Deletion::Annotation { func, .. } => {
                (&self.callers, &program.funcs[func].name, Some(func))
            }
            Deletion::Iso { strukt, .. } => (&self.reaching, &program.structs[strukt].name, None),
        };
        let rest = index.get(name).into_iter().flatten().copied();
        first
            .into_iter()
            .chain(rest.filter(|&i| Some(i) != first))
            .collect()
    }
}

pub(crate) fn run(checked: &CheckedProgram, globals: &Globals, report: &mut AnalysisReport) {
    let program = &checked.program;
    let options = &checked.options;
    let dependents = Dependents::build(program, globals);
    let mut env = globals.clone();
    // Whether the function with a given fingerprint checks, as derived by
    // an earlier probe.
    let mut verdicts: HashMap<Fingerprint, bool> = HashMap::new();
    let stats = &mut report.stats;
    for c in candidates(program) {
        stats.recheck_experiments += 1;
        let dirty = dependents.dirty(program, c.deletion);
        // Whether every dirty function checks under `globals`, the edited
        // copy standing in for the definition it replaces.
        let mut derive = |globals: &Globals, edited: Option<(usize, &FnDef)>| {
            dirty.iter().all(|&i| {
                let def = match edited {
                    Some((at, def)) if at == i => def,
                    _ => &program.funcs[i],
                };
                stats.recheck_fingerprints += 1;
                match verdicts.entry(fn_fingerprint(globals, options, def)) {
                    Entry::Occupied(v) => {
                        stats.recheck_cache_hits += 1;
                        *v.get()
                    }
                    Entry::Vacant(v) => {
                        stats.recheck_cache_misses += 1;
                        *v.insert(check_fn(globals, options, def).is_ok())
                    }
                }
            })
        };
        let checks = match c.deletion {
            Deletion::Annotation { func, ann, at } => {
                let mut edited = program.funcs[func].clone();
                ann.delete(&mut edited.annotations, at);
                env.patch_sig(&edited).is_ok_and(|old| {
                    let checks = derive(&env, Some((func, &edited)));
                    env.restore_sig(old);
                    checks
                })
            }
            Deletion::Iso { strukt, field } => {
                let mut edited = program.structs[strukt].clone();
                edited.fields[field].iso = false;
                env.patch_struct(&edited, &program.funcs, options.mode)
                    .is_ok_and(|patch| {
                        let checks = derive(&env, None);
                        env.restore_struct(patch);
                        checks
                    })
            }
        };
        if checks {
            let func = match c.deletion {
                Deletion::Annotation { func, .. } => Some(program.funcs[func].name.to_string()),
                Deletion::Iso { .. } => None,
            };
            report.lints.push(Lint {
                code: LintCode::OverStrongAnnotation,
                severity: Severity::Warning,
                func,
                span: c.span,
                message: c.message,
            });
        }
    }
}

/// Every probe of `checked` in order: the program with its annotation
/// deleted, and the functions (definition indices) it re-derives.
pub(crate) fn dirty_sets(
    checked: &CheckedProgram,
    globals: &Globals,
) -> Vec<(Program, Vec<usize>)> {
    let dependents = Dependents::build(&checked.program, globals);
    candidates(&checked.program)
        .into_iter()
        .map(|c| {
            let mut program = checked.program.clone();
            c.deletion.apply(&mut program);
            (program, dependents.dirty(&checked.program, c.deletion))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fearless_core::{check_source, globals_of, CheckerOptions};

    fn analyze(src: &str) -> AnalysisReport {
        let checked = check_source(src, &CheckerOptions::default()).unwrap();
        let globals = globals_of(&checked).unwrap();
        let mut report = AnalysisReport::default();
        run(&checked, &globals, &mut report);
        report
    }

    #[test]
    fn unnecessary_pinned_is_reported() {
        let report = analyze(
            "struct data { value: int }
             def peek(d: data) : int pinned d { d.value }",
        );
        assert_eq!(report.lints.len(), 1);
        assert!(
            report.lints[0].message.contains("pinned d"),
            "{:?}",
            report.lints
        );
        assert!(report.stats.recheck_experiments >= 1);
    }

    #[test]
    fn probes_derive_only_their_dirty_set() {
        // Three functions, one probed annotation. Nothing calls `peek`, so
        // deleting `pinned d` dirties `peek` alone: `make` and `get` are
        // neither fingerprinted nor derived.
        let report = analyze(
            "struct data { value: int }
             def make(v: int) : data { new data(v) }
             def get(d: data) : int { d.value }
             def peek(d: data) : int pinned d { d.value }",
        );
        assert_eq!(report.stats.recheck_experiments, 1);
        assert_eq!(report.stats.recheck_fingerprints, 1);
        assert_eq!(report.stats.recheck_cache_hits, 0);
        assert_eq!(report.stats.recheck_cache_misses, 1);
    }

    #[test]
    fn load_bearing_consumes_is_kept() {
        // `send` requires the sent region to be consumed from the caller,
        // so `consumes d` cannot be dropped.
        let report = analyze(
            "struct data { value: int }
             def ship(d: data) : unit consumes d { send(d); unit }",
        );
        assert!(
            !report
                .lints
                .iter()
                .any(|l| l.message.contains("consumes d")),
            "{:?}",
            report.lints
        );
    }

    #[test]
    fn unused_iso_field_is_reported() {
        // The iso-ness of `payload` is never exploited: no take, no
        // explore, no send of the payload alone.
        let report = analyze(
            "struct data { value: int }
             struct holder { iso payload : data }
             def peek(h: holder) : int { h.payload.value }",
        );
        assert!(
            report
                .lints
                .iter()
                .any(|l| l.func.is_none() && l.message.contains("holder.payload")),
            "{:?}",
            report.lints
        );
    }
}
