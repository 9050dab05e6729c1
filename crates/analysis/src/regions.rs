//! FA003 `dead-region` and FA004 `unused-tracking`: region- and
//! tracking-lifecycle lints read directly off the derivation.
//!
//! * **FA003** looks at every affine weakening `Weaken r` and asks whether
//!   `r` ever did anything: carried tracking, was pinned, was an endpoint
//!   of an attach/retract/rename, appeared in a rule's region payload or a
//!   call summary, or held a parameter or result. A region that did none of
//!   those was dead weight — the program (or the checker's search) created
//!   a capability nothing used.
//! * **FA004** looks inside each maximal run of virtual steps for a
//!   `Focus x` later undone by `Unfocus x` with no tracked-field operation
//!   on `x` in between — tracking that tracked nothing.

use fearless_core::{CheckedProgram, Derivation, RegionId, VirStep};
use fearless_syntax::Severity;

use crate::{AnalysisReport, Lint, LintCode};

pub(crate) fn run(checked: &CheckedProgram, report: &mut AnalysisReport) {
    // Both are in definition order.
    for (derivation, def) in checked.derivations.iter().zip(&checked.program.funcs) {
        debug_assert_eq!(derivation.func, def.name);
        dead_regions(derivation, def.span, report);
        unused_tracking(derivation, def.span, report);
    }
}

/// True when region `r` is ever *used* in the derivation, beyond merely
/// existing and being weakened away at `weaken_idx`.
fn region_used(derivation: &Derivation, r: RegionId, weaken_idx: usize) -> bool {
    if derivation.param_regions.contains(&Some(r)) {
        return true;
    }
    if derivation.result.region == Some(r) {
        return true;
    }
    for (idx, node) in derivation.nodes.iter().enumerate() {
        for st in [&node.input, &node.output] {
            if let Some(tc) = st.heap.tracking(r) {
                if tc.pinned || !tc.vars.is_empty() {
                    return true;
                }
            }
        }
        if node.data.contains(&r) {
            return true;
        }
        if let Some(call) = &node.call {
            if call.consumed.contains(&r) || call.created.iter().any(|(_, cr)| *cr == r) {
                return true;
            }
        }
        if let Some(res) = &node.result {
            if res.region == Some(r) {
                return true;
            }
        }
        if idx == weaken_idx {
            continue;
        }
        if let Some(step) = &node.vir {
            let touches = match step {
                VirStep::Focus { r: sr, .. } | VirStep::Unfocus { r: sr, .. } => *sr == r,
                VirStep::Explore { r: sr, fresh, .. } => *sr == r || *fresh == r,
                VirStep::Retract { r: sr, target, .. } => *sr == r || *target == r,
                VirStep::Attach { from, to } => *from == r || *to == r,
                VirStep::Weaken { .. } => false,
                VirStep::Rename { pairs } => pairs.iter().any(|(a, b)| *a == r || *b == r),
                VirStep::Invalidate { fresh, .. } => *fresh == r,
                VirStep::ScrubField { r: sr, fresh, .. } => *sr == r || *fresh == r,
            };
            if touches {
                return true;
            }
        }
    }
    false
}

fn dead_regions(derivation: &Derivation, span: fearless_syntax::Span, report: &mut AnalysisReport) {
    for (idx, node) in derivation.nodes.iter().enumerate() {
        let Some(VirStep::Weaken { r }) = &node.vir else {
            continue;
        };
        if region_used(derivation, *r, idx) {
            continue;
        }
        let vars = node.input.gamma.vars_in_region(*r);
        let binds = if vars.is_empty() {
            String::new()
        } else {
            let names: Vec<&str> = vars.iter().map(|s| s.as_str()).collect();
            format!(" (still bound by `{}`)", names.join("`, `"))
        };
        report.lints.push(Lint {
            code: LintCode::DeadRegion,
            severity: Severity::Warning,
            func: Some(derivation.func.as_str().to_string()),
            span,
            message: format!(
                "region {r} is discharged without ever being pinned, focused, \
                 or related to another region{binds}"
            ),
        });
    }
}

fn unused_tracking(
    derivation: &Derivation,
    span: fearless_syntax::Span,
    report: &mut AnalysisReport,
) {
    for vir_run in derivation.vir_runs() {
        let steps: Vec<&VirStep> = vir_run
            .iter()
            .map(|&i| derivation.nodes[i].vir.as_ref().expect("vir node"))
            .collect();
        for (pos, step) in steps.iter().enumerate() {
            let VirStep::Focus { r, x } = step else {
                continue;
            };
            for later in &steps[pos + 1..] {
                match later {
                    VirStep::Unfocus { r: r2, x: x2 } if r2 == r && x2 == x => {
                        report.lints.push(Lint {
                            code: LintCode::UnusedTracking,
                            severity: Severity::Warning,
                            func: Some(derivation.func.as_str().to_string()),
                            span,
                            message: format!(
                                "`{x}` is focused in {r} and unfocused again with \
                                 no tracked-field operation in between"
                            ),
                        });
                        break;
                    }
                    // A tracked-field operation on `x`, or anything that can
                    // move tracking between regions, ends the window.
                    VirStep::Explore { x: x2, .. }
                    | VirStep::Retract { x: x2, .. }
                    | VirStep::ScrubField { x: x2, .. }
                    | VirStep::Invalidate { x: x2, .. }
                        if x2 == x =>
                    {
                        break;
                    }
                    VirStep::Attach { .. } | VirStep::Rename { .. } => break,
                    VirStep::Weaken { r: rw } if rw == r => break,
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fearless_core::{check_source, CheckerOptions, DerivNode, Rule, TypeState, ValInfo};
    use fearless_syntax::{Span, Symbol, Type};

    fn analyze(src: &str) -> AnalysisReport {
        let checked = check_source(src, &CheckerOptions::default()).unwrap();
        let mut report = AnalysisReport::default();
        run(&checked, &mut report);
        report
    }

    #[test]
    fn straight_line_reference_code_is_clean() {
        let report = analyze(
            "struct data { value: int }
             def get(d: data) : int { d.value }",
        );
        assert!(report.lints.is_empty(), "{:?}", report.lints);
    }

    fn vir_node(step: VirStep, input: TypeState, output: TypeState) -> DerivNode {
        DerivNode {
            rule: Rule::Vir,
            expr: None,
            vir: Some(step),
            input,
            output,
            result: None,
            chains: Vec::new(),
            data: Vec::new(),
            call: None,
        }
    }

    /// Hand-built derivation: a region is created by nothing we model and
    /// immediately weakened — FA003 must fire; and a focus/unfocus pair on
    /// a parameter region — FA004 must fire.
    #[test]
    fn synthetic_dead_region_and_unused_focus_are_reported() {
        use fearless_core::ctx::TrackCtx;

        let rp = RegionId(0); // parameter region, used
        let rd = RegionId(7); // dead region
        let x: Symbol = "x".into();

        let mut st0 = TypeState::new();
        st0.next_region = 8;
        st0.heap.insert(rp, TrackCtx::empty());
        st0.heap.insert(rd, TrackCtx::empty());
        st0.gamma.bind(
            x.clone(),
            fearless_core::Binding {
                region: Some(rp),
                ty: Type::named("data"),
            },
        );

        let mut st1 = st0.clone();
        fearless_core::vir::apply(
            &mut st1,
            &VirStep::Focus {
                r: rp,
                x: x.clone(),
            },
        )
        .unwrap();
        let mut st2 = st1.clone();
        fearless_core::vir::apply(
            &mut st2,
            &VirStep::Unfocus {
                r: rp,
                x: x.clone(),
            },
        )
        .unwrap();
        let mut st3 = st2.clone();
        fearless_core::vir::apply(&mut st3, &VirStep::Weaken { r: rd }).unwrap();

        let derivation = Derivation {
            func: "synthetic".into(),
            input: st0.clone(),
            output: st3.clone(),
            result: ValInfo::unit(),
            root_chain: vec![0, 1, 2],
            nodes: vec![
                vir_node(
                    VirStep::Focus {
                        r: rp,
                        x: x.clone(),
                    },
                    st0,
                    st1.clone(),
                ),
                vir_node(VirStep::Unfocus { r: rp, x }, st1, st2.clone()),
                vir_node(VirStep::Weaken { r: rd }, st2, st3),
            ],
            param_regions: vec![Some(rp)],
            vir_steps: 3,
            search_nodes: 0,
        };

        let mut report = AnalysisReport::default();
        dead_regions(&derivation, Span::dummy(), &mut report);
        unused_tracking(&derivation, Span::dummy(), &mut report);

        assert!(
            report
                .lints
                .iter()
                .any(|l| l.code == LintCode::DeadRegion && l.message.contains("r7")),
            "{:?}",
            report.lints
        );
        assert!(
            report
                .lints
                .iter()
                .any(|l| l.code == LintCode::UnusedTracking && l.message.contains("`x`")),
            "{:?}",
            report.lints
        );
    }
}
