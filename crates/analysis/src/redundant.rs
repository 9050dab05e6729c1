//! FA001 `redundant-vir`: virtual steps the derivation does not need.
//!
//! The checker's backtracking search can emit more virtual transformations
//! than strictly necessary (e.g. a focus/unfocus detour, or a weakening a
//! later unification re-derives). This pass finds, for every maximal run of
//! consecutive `Vir` nodes, a maximal subset whose *elision* still replays:
//! the complement is applied locally from the run's recorded input and must
//! land exactly on the run's recorded output. Candidates are then confirmed
//! through full verification ([`fearless_verify::verify_with_elision`]), so
//! a reported step is redundant by the trusted replayer's own judgment —
//! not by this pass's opinion.

use std::collections::BTreeSet;

use fearless_core::{CheckedProgram, Derivation, Globals, TypeState};
use fearless_syntax::Severity;
use fearless_verify::{states_agree, verify_with_elision};

use crate::{AnalysisReport, Lint, LintCode};

/// Runs below this length are searched exhaustively (2^12 subsets at most);
/// longer runs fall back to a greedy one-at-a-time scan.
const EXHAUSTIVE_LIMIT: usize = 12;

pub(crate) fn run(checked: &CheckedProgram, globals: &Globals, report: &mut AnalysisReport) {
    // Both are in definition order.
    for (derivation, def) in checked.derivations.iter().zip(&checked.program.funcs) {
        debug_assert_eq!(derivation.func, def.name);
        for node in &derivation.nodes {
            if let Some(step) = &node.vir {
                *report.stats.vir_totals.entry(step.kind()).or_insert(0) += 1;
            }
        }

        let mut candidate: BTreeSet<usize> = BTreeSet::new();
        for vir_run in derivation.vir_runs() {
            candidate.extend(elidable_subset(derivation, &vir_run));
        }
        if candidate.is_empty() {
            continue;
        }

        // Confirm through the trusted verifier. The union of per-run
        // subsets can interact (a later rule node may anchor on a state an
        // elision changed), so fall back to confirming run by run.
        let mode = checked.options.mode;
        let confirmed: BTreeSet<usize> =
            if verify_with_elision(globals, def, derivation, mode, &candidate).is_ok() {
                candidate
            } else {
                let mut ok = BTreeSet::new();
                for vir_run in derivation.vir_runs() {
                    let sub: BTreeSet<usize> = vir_run
                        .iter()
                        .copied()
                        .filter(|i| candidate.contains(i))
                        .collect();
                    if !sub.is_empty()
                        && verify_with_elision(globals, def, derivation, mode, &sub).is_ok()
                    {
                        ok.extend(sub);
                    }
                }
                ok
            };

        for idx in confirmed {
            let step = derivation.nodes[idx].vir.clone().expect("vir node");
            *report.stats.vir_redundant.entry(step.kind()).or_insert(0) += 1;
            report.lints.push(Lint {
                code: LintCode::RedundantVir,
                severity: Severity::Warning,
                func: Some(derivation.func.as_str().to_string()),
                span: def.span,
                message: format!(
                    "virtual step `{step}` (node {idx}) is redundant: \
                     the derivation verifies without it"
                ),
            });
        }
    }
}

/// True when dropping `elide` from `vir_run` still replays from the run's
/// recorded input to its recorded output.
fn replays_without(derivation: &Derivation, vir_run: &[usize], elide: &BTreeSet<usize>) -> bool {
    let first = vir_run[0];
    let last = *vir_run.last().expect("non-empty run");
    let mut st: TypeState = derivation.nodes[first].input.clone();
    for &idx in vir_run {
        if elide.contains(&idx) {
            continue;
        }
        let step = derivation.nodes[idx].vir.as_ref().expect("vir node");
        if fearless_core::vir::apply(&mut st, step).is_err() {
            return false;
        }
    }
    states_agree(&st, &derivation.nodes[last].output)
}

/// Finds a maximal elidable subset of one run: exhaustive (largest subset
/// first) for short runs, greedy otherwise. Purely local — the caller still
/// confirms the result through full verification.
fn elidable_subset(derivation: &Derivation, vir_run: &[usize]) -> BTreeSet<usize> {
    let n = vir_run.len();
    if n == 0 {
        return BTreeSet::new();
    }
    if n <= EXHAUSTIVE_LIMIT {
        let mut masks: Vec<u32> = (1..(1u32 << n)).collect();
        // Largest subsets first; ties broken by mask value for determinism.
        masks.sort_by_key(|m| (std::cmp::Reverse(m.count_ones()), *m));
        for mask in masks {
            let elide: BTreeSet<usize> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| vir_run[i])
                .collect();
            if replays_without(derivation, vir_run, &elide) {
                return elide;
            }
        }
        BTreeSet::new()
    } else {
        let mut elide = BTreeSet::new();
        loop {
            let mut grew = false;
            for &idx in vir_run {
                if elide.contains(&idx) {
                    continue;
                }
                elide.insert(idx);
                if replays_without(derivation, vir_run, &elide) {
                    grew = true;
                } else {
                    elide.remove(&idx);
                }
            }
            if !grew {
                return elide;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fearless_core::{check_source, CheckerOptions};

    #[test]
    fn clean_arithmetic_has_no_redundant_steps() {
        let checked = check_source(
            "def inc(a: int) : int { a + 1 }",
            &CheckerOptions::default(),
        )
        .unwrap();
        let globals = fearless_core::globals_of(&checked).unwrap();
        let mut report = AnalysisReport::default();
        run(&checked, &globals, &mut report);
        assert!(report.lints.is_empty());
    }

    #[test]
    fn totals_count_every_vir_step() {
        let src = "struct data { value: int }
             struct sll { iso hd : sll_node? }
             struct sll_node { iso payload : data; iso next : sll_node? }
             def push(l : sll, d : data) : unit consumes d {
               let node = new sll_node(d, take(l.hd));
               l.hd = some(node);
             }";
        let checked = check_source(src, &CheckerOptions::default()).unwrap();
        let globals = fearless_core::globals_of(&checked).unwrap();
        let mut report = AnalysisReport::default();
        run(&checked, &globals, &mut report);
        let total: usize = report.stats.vir_totals.values().sum();
        let arena: usize = checked.derivations.iter().map(|d| d.vir_steps).sum();
        assert_eq!(total, arena);
    }
}
