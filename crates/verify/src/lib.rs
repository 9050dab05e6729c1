//! # fearless-verify
//!
//! The independent verifier half of the paper's prover–verifier
//! architecture (§5): "its output typing derivations are checked by a
//! verifier … making it easy to check by inspection that the type system
//! is implemented faithfully."
//!
//! The prover (`fearless-core`) performs search and heuristics; this crate
//! *replays* its derivations with no search at all:
//!
//! * every virtual-transformation node is re-applied through the trusted
//!   `vir::apply` core, which validates all preconditions;
//! * every rule node's recorded input must match the replayed state, its
//!   premises must chain correctly, and its rule-specific side conditions
//!   are re-checked against the expression syntax;
//! * every intermediate state must be well-formed.
//!
//! A buggy prover (or a hand-forged derivation) is rejected here.

#![warn(missing_docs)]

mod rules;

use std::error::Error;
use std::fmt;

use fearless_core::{CheckedProgram, Derivation, Globals, TypeState};
use fearless_syntax::FnDef;

/// An error found while verifying a derivation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// The function whose derivation failed.
    pub func: String,
    /// The failing node index, if known.
    pub node: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl VerifyError {
    pub(crate) fn new(func: &str, node: Option<usize>, message: impl Into<String>) -> Self {
        VerifyError {
            func: func.to_string(),
            node,
            message: message.into(),
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(n) => write!(
                f,
                "verification failed in `{}` at node {n}: {}",
                self.func, self.message
            ),
            None => write!(
                f,
                "verification failed in `{}`: {}",
                self.func, self.message
            ),
        }
    }
}

impl Error for VerifyError {}

/// Statistics from a successful verification.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Functions verified.
    pub functions: usize,
    /// Rule nodes verified.
    pub rule_nodes: usize,
    /// Virtual-transformation steps replayed.
    pub vir_steps: usize,
}

/// Verifies every derivation of a checked program.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found; a checked program whose
/// derivations do not replay indicates a prover bug.
pub fn verify_program(checked: &CheckedProgram) -> Result<VerifyReport, VerifyError> {
    let globals = fearless_core::globals_of(checked)
        .map_err(|e| VerifyError::new("<globals>", None, e.to_string()))?;
    let mut report = VerifyReport::default();
    for (i, derivation) in checked.derivations.iter().enumerate() {
        // Derivations come in definition order, so the definition at the
        // same index is the one; a mismatch falls back to the lookup.
        let def = checked
            .program
            .funcs
            .get(i)
            .filter(|f| f.name == derivation.func)
            .or_else(|| checked.program.func(&derivation.func))
            .ok_or_else(|| {
                VerifyError::new(
                    derivation.func.as_str(),
                    None,
                    "derivation for unknown function",
                )
            })?;
        let sub = verify_derivation_in_mode(&globals, def, derivation, checked.options.mode)?;
        report.functions += 1;
        report.rule_nodes += sub.rule_nodes;
        report.vir_steps += sub.vir_steps;
    }
    Ok(report)
}

/// Verifies one function's derivation against its definition (under the
/// default tempered discipline).
///
/// # Errors
///
/// Returns the first mismatch found.
pub fn verify_derivation(
    globals: &Globals,
    def: &FnDef,
    derivation: &Derivation,
) -> Result<VerifyReport, VerifyError> {
    verify_derivation_in_mode(
        globals,
        def,
        derivation,
        fearless_core::CheckerMode::Tempered,
    )
}

/// Verifies one function's derivation under an explicit discipline (the
/// Take/iso-assignment rules differ between tempered domination and the
/// global-domination baseline).
///
/// # Errors
///
/// Returns the first mismatch found.
pub fn verify_derivation_in_mode(
    globals: &Globals,
    def: &FnDef,
    derivation: &Derivation,
    mode: fearless_core::CheckerMode,
) -> Result<VerifyReport, VerifyError> {
    let mut cx = rules::Cx {
        globals,
        def,
        derivation,
        exprs: rules::ExprTable::new(&def.body),
        mode,
        report: VerifyReport::default(),
    };
    cx.verify_root()?;
    cx.report.functions = 1;
    Ok(cx.report)
}

/// Convenience: state equality used across the verifier (re-exported from
/// the prover's congruence so both sides agree on what "the same context"
/// means — dangling ids are compared by danglingness, not value).
pub fn states_agree(a: &TypeState, b: &TypeState) -> bool {
    fearless_core::unify::congruent(a, b)
}

/// Rebuilds `derivation` with the given `Vir` nodes elided: the elided
/// indices are removed from every premise chain and the surviving `Vir`
/// nodes of each affected run have their recorded input/output states
/// recomputed by replaying the remaining steps through the trusted
/// `vir::apply` core. Rule nodes are untouched, so the pruned derivation
/// verifies iff every affected run still reaches its original endpoint.
///
/// This is the confirmation half of the `redundant-vir` analysis (FA001):
/// a candidate elision is real only if the pruned derivation passes full
/// verification.
///
/// # Errors
///
/// Returns a message when an elided index is not a `Vir` node or a
/// surviving step no longer applies after the elision.
pub fn elide_vir_nodes(
    derivation: &Derivation,
    elide: &std::collections::BTreeSet<usize>,
) -> Result<Derivation, String> {
    use fearless_core::Rule;
    for &idx in elide {
        match derivation.nodes.get(idx) {
            Some(n) if n.rule == Rule::Vir => {}
            Some(_) => return Err(format!("node {idx} is not a Vir node")),
            None => return Err(format!("node {idx} is out of bounds")),
        }
    }
    let mut pruned = derivation.clone();
    // Recompute the surviving steps of every run that loses a node. Runs
    // are maximal consecutive Vir segments, so each run's first recorded
    // input is a trustworthy anchor.
    for run in derivation.vir_runs() {
        if !run.iter().any(|i| elide.contains(i)) {
            continue;
        }
        let mut st = derivation.nodes[run[0]].input.clone();
        for &idx in &run {
            if elide.contains(&idx) {
                continue;
            }
            let step = pruned.nodes[idx].vir.clone().expect("vir node");
            pruned.nodes[idx].input = st.clone();
            fearless_core::vir::apply(&mut st, &step)
                .map_err(|m| format!("step `{step}` no longer applies after elision: {m}"))?;
            pruned.nodes[idx].output = st.clone();
        }
    }
    // Drop the elided indices from every chain (elided nodes stay in the
    // arena, unreferenced — the verifier only walks chains).
    pruned.root_chain.retain(|i| !elide.contains(i));
    for node in &mut pruned.nodes {
        for chain in &mut node.chains {
            chain.retain(|i| !elide.contains(i));
        }
    }
    pruned.vir_steps = pruned.vir_steps.saturating_sub(elide.len());
    Ok(pruned)
}

/// Verifies `derivation` with the given `Vir` nodes elided (see
/// [`elide_vir_nodes`]): the pruned derivation is replayed through the
/// normal full verification path, so success proves the elided steps were
/// genuinely redundant.
///
/// # Errors
///
/// Returns a [`VerifyError`] when the elision breaks the replay.
pub fn verify_with_elision(
    globals: &Globals,
    def: &FnDef,
    derivation: &Derivation,
    mode: fearless_core::CheckerMode,
    elide: &std::collections::BTreeSet<usize>,
) -> Result<VerifyReport, VerifyError> {
    let pruned = elide_vir_nodes(derivation, elide)
        .map_err(|m| VerifyError::new(derivation.func.as_str(), None, m))?;
    verify_derivation_in_mode(globals, def, &pruned, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fearless_core::{check_source, CheckerOptions};

    const LISTS: &str = "
        struct data { value: int }
        struct sll_node { iso payload : data; iso next : sll_node? }
        struct sll { iso hd : sll_node? }
    ";

    #[test]
    fn verifies_figure_2() {
        let checked = check_source(
            &format!(
                "{LISTS}
                 def remove_tail(n : sll_node) : data? {{
                   let some(next) = n.next in {{
                     if (is_none(next.next)) {{
                       n.next = none;
                       some(next.payload)
                     }} else {{ remove_tail(next) }}
                   }} else {{ none }}
                 }}"
            ),
            &CheckerOptions::default(),
        )
        .unwrap();
        let report = verify_program(&checked).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(report.functions, 1);
        assert!(report.rule_nodes > 5);
        assert!(report.vir_steps > 0);
    }

    #[test]
    fn rejects_tampered_derivation() {
        let mut checked = check_source(
            &format!(
                "{LISTS}
                 def pass(n : sll_node) : unit {{ is_none(n.next); unit }}"
            ),
            &CheckerOptions::default(),
        )
        .unwrap();
        // Forge: flip a Focus step's variable to a name that is not bound.
        let d = &mut checked.derivations[0];
        let mut tampered = false;
        for node in &mut d.nodes {
            if let Some(fearless_core::VirStep::Focus { x, .. }) = &mut node.vir {
                *x = fearless_syntax::Symbol::new("ghost");
                tampered = true;
                break;
            }
        }
        assert!(tampered, "expected a focus step in the derivation");
        let err = verify_program(&checked).unwrap_err();
        assert!(
            err.message.contains("focus") || err.message.contains("scope"),
            "{err}"
        );
    }

    #[test]
    fn empty_elision_is_identity() {
        let checked = check_source(
            &format!(
                "{LISTS}
                 def pass(n : sll_node) : unit {{ is_none(n.next); unit }}"
            ),
            &CheckerOptions::default(),
        )
        .unwrap();
        let globals = fearless_core::globals_of(&checked).unwrap();
        let d = &checked.derivations[0];
        let def = checked.program.func(&d.func).unwrap();
        let full = verify_derivation(&globals, def, d).unwrap();
        let elided = verify_with_elision(
            &globals,
            def,
            d,
            fearless_core::CheckerMode::Tempered,
            &std::collections::BTreeSet::new(),
        )
        .unwrap();
        assert_eq!(full, elided);
    }

    #[test]
    fn eliding_a_rule_node_is_rejected() {
        let checked = check_source(
            &format!("{LISTS}\n def mk() : sll {{ new sll(none) }}"),
            &CheckerOptions::default(),
        )
        .unwrap();
        let d = &checked.derivations[0];
        let rule_idx = d
            .nodes
            .iter()
            .position(|n| n.vir.is_none())
            .expect("has a rule node");
        let err = elide_vir_nodes(d, &[rule_idx].into_iter().collect()).unwrap_err();
        assert!(err.contains("not a Vir node"), "{err}");
        let err = elide_vir_nodes(d, &[d.nodes.len()].into_iter().collect()).unwrap_err();
        assert!(err.contains("out of bounds"), "{err}");
    }

    #[test]
    fn eliding_a_load_bearing_step_fails_verification() {
        // Figure 2 needs its explore steps; dropping one must not verify.
        let checked = check_source(
            &format!(
                "{LISTS}
                 def remove_tail(n : sll_node) : data? {{
                   let some(next) = n.next in {{
                     if (is_none(next.next)) {{ n.next = none; some(next.payload) }}
                     else {{ remove_tail(next) }}
                   }} else {{ none }}
                 }}"
            ),
            &CheckerOptions::default(),
        )
        .unwrap();
        let globals = fearless_core::globals_of(&checked).unwrap();
        let d = &checked.derivations[0];
        let def = checked.program.func(&d.func).unwrap();
        let explore_idx = d
            .nodes
            .iter()
            .position(|n| matches!(n.vir, Some(fearless_core::VirStep::Explore { .. })))
            .expect("has an explore step");
        let result = verify_with_elision(
            &globals,
            def,
            d,
            fearless_core::CheckerMode::Tempered,
            &[explore_idx].into_iter().collect(),
        );
        assert!(result.is_err(), "load-bearing step elided but verified");
    }

    #[test]
    fn rejects_forged_result_region() {
        let mut checked = check_source(
            &format!("{LISTS}\n def mk() : sll {{ new sll(none) }}"),
            &CheckerOptions::default(),
        )
        .unwrap();
        // Forge the final result region to a bogus id.
        checked.derivations[0].result.region = Some(fearless_core::RegionId(999));
        let err = verify_program(&checked).unwrap_err();
        assert!(!err.message.is_empty());
    }
}
