//! Replay and local re-checking of derivation nodes.

use fearless_core::ctx::Binding;
use fearless_core::derivation::{DerivNode, Rule, ValInfo};
use fearless_core::unify::congruent;
use fearless_core::{vir, Derivation, Globals, RegionId, TrackCtx, TypeState};
use fearless_syntax::{Expr, ExprId, ExprKind, FieldDef, FnDef, RegionPath, Symbol, Type};

use crate::{VerifyError, VerifyReport};

/// Verification context for one function.
pub(crate) struct Cx<'a> {
    pub globals: &'a Globals,
    pub def: &'a FnDef,
    pub derivation: &'a Derivation,
    pub exprs: ExprTable<'a>,
    pub mode: fearless_core::CheckerMode,
    pub report: VerifyReport,
}

/// A function body's expressions by id: slot `k` holds the node with id
/// `base + k`. A repeated id resolves to the last node with that id in
/// walk order.
pub(crate) struct ExprTable<'a> {
    base: u32,
    slots: Vec<Option<&'a Expr>>,
}

impl<'a> ExprTable<'a> {
    pub(crate) fn new(body: &'a Expr) -> Self {
        let (mut lo, mut hi) = (body.id.0, body.id.0);
        body.walk(&mut |e| {
            lo = lo.min(e.id.0);
            hi = hi.max(e.id.0);
        });
        let mut slots = vec![None; (hi - lo) as usize + 1];
        body.walk(&mut |e| slots[(e.id.0 - lo) as usize] = Some(e));
        ExprTable { base: lo, slots }
    }

    fn get(&self, id: ExprId) -> Option<&'a Expr> {
        let k = id.0.checked_sub(self.base)? as usize;
        self.slots.get(k).copied().flatten()
    }
}

/// Allowed implicit (rule-level) context changes while walking a chain.
#[derive(Default, Clone)]
struct Tolerance {
    /// A let-bound variable whose Γ entry may silently disappear (scope
    /// exit is part of the enclosing rule, and dropping a binding is pure
    /// weakening).
    unbind: Option<Symbol>,
    /// Regions `new` may consume between initializer evaluations (their
    /// tracking context must be empty at removal).
    consume: Vec<RegionId>,
}

/// State equality ignoring the fresh-id counter.
fn eq_states(a: &TypeState, b: &TypeState) -> bool {
    a.heap == b.heap && a.gamma == b.gamma
}

/// Whether a region id is mentioned nowhere in the state (safe to use as a
/// fresh id).
fn unmentioned(st: &TypeState, r: RegionId) -> bool {
    if st.heap.contains(r) || st.heap.mentioned_regions().contains(&r) {
        return false;
    }
    !st.gamma.iter().any(|(_, b)| b.region == Some(r))
}

impl<'a> Cx<'a> {
    fn err(&self, node: Option<usize>, msg: impl Into<String>) -> VerifyError {
        VerifyError::new(self.def.name.as_str(), node, msg)
    }

    fn expr(&self, node_idx: usize, id: Option<ExprId>) -> Result<&'a Expr, VerifyError> {
        let id = id.ok_or_else(|| self.err(Some(node_idx), "rule node without expression"))?;
        self.exprs
            .get(id)
            .ok_or_else(|| self.err(Some(node_idx), format!("unknown expression {id}")))
    }

    fn node(&self, idx: usize) -> Result<&'a DerivNode, VerifyError> {
        self.derivation
            .nodes
            .get(idx)
            .ok_or_else(|| self.err(Some(idx), "node index out of bounds"))
    }

    /// Finds the (unique) rule node for expression `id` within a chain.
    fn rule_result(&self, chain: &[usize], id: ExprId) -> Result<&'a ValInfo, VerifyError> {
        for &idx in chain {
            let n = self.node(idx)?;
            if n.expr == Some(id) {
                return n
                    .result
                    .as_ref()
                    .ok_or_else(|| self.err(Some(idx), "rule node without result"));
            }
        }
        Err(self.err(None, format!("no node for expression {id} in chain")))
    }

    /// Rebuilds the function's input state from its signature, exactly as
    /// the prover does, and verifies the recorded input matches.
    fn rebuild_input(&self) -> Result<TypeState, VerifyError> {
        let sig = self
            .globals
            .sig(&self.def.name)
            .ok_or_else(|| self.err(None, "missing signature"))?;
        let mut st = TypeState::new();
        let mut param_regions: Vec<Option<RegionId>> = vec![None; sig.params.len()];
        for class in &sig.input_classes {
            let r = st.fresh_region();
            let mut ctx = TrackCtx::empty();
            ctx.pinned = class.iter().any(|p| sig.pinned.contains(p));
            st.heap.insert(r, ctx);
            for p in class {
                let idx = sig
                    .param_index(p)
                    .ok_or_else(|| self.err(None, "bad input class"))?;
                param_regions[idx] = Some(r);
            }
        }
        for (i, p) in sig.params.iter().enumerate() {
            st.gamma.bind(
                p.clone(),
                Binding {
                    region: param_regions[i],
                    ty: sig.param_tys[i].clone(),
                },
            );
        }
        if param_regions != self.derivation.param_regions {
            return Err(self.err(None, "recorded parameter regions do not match signature"));
        }
        if !eq_states(&st, &self.derivation.input) {
            return Err(self.err(None, "recorded input context does not match signature"));
        }
        Ok(self.derivation.input.clone())
    }

    /// Entry point: replay the whole derivation.
    pub(crate) fn verify_root(&mut self) -> Result<(), VerifyError> {
        let input = self.rebuild_input()?;
        let end = self.walk_chain(input, &self.derivation.root_chain, &Tolerance::default())?;
        if !eq_states(&end, &self.derivation.output) {
            return Err(self.err(None, "root chain does not reach the recorded output"));
        }
        self.verify_exit_shape(&end)?;
        Ok(())
    }

    /// The function's final context must honor its signature: parameters
    /// alive in held regions with exactly the annotated tracking, `after:`
    /// classes merged, result placed correctly.
    fn verify_exit_shape(&self, end: &TypeState) -> Result<(), VerifyError> {
        let sig = self
            .globals
            .sig(&self.def.name)
            .ok_or_else(|| self.err(None, "missing signature"))?;
        let result = &self.derivation.result;
        if result.ty != sig.ret {
            return Err(self.err(None, "result type does not match signature"));
        }
        if sig.ret.is_reference() {
            let Some(r) = result.region else {
                return Err(self.err(None, "reference result without region"));
            };
            if !end.heap.contains(r) {
                return Err(self.err(None, "result region is not held at exit"));
            }
        } else if result.region.is_some() {
            return Err(self.err(None, "value result carries a region"));
        }
        // Class regions must exist, be distinct, and agree across members.
        let mut class_regions: Vec<RegionId> = Vec::new();
        for class in &sig.output_classes {
            let mut region: Option<RegionId> = None;
            for path in class {
                let r = match path {
                    RegionPath::Param(p) => end.gamma.get(p).and_then(|b| b.region),
                    RegionPath::Result => result.region,
                    RegionPath::Field(p, f) => end.heap.tracked_field(p, f),
                };
                let Some(r) = r else {
                    return Err(self.err(None, format!("output path {path:?} has no region")));
                };
                if !end.heap.contains(r) {
                    return Err(self.err(None, format!("output path {path:?} region not held")));
                }
                match region {
                    None => region = Some(r),
                    Some(prev) if prev == r => {}
                    Some(_) => {
                        return Err(self.err(
                            None,
                            format!("output class of {path:?} spans multiple regions"),
                        ))
                    }
                }
            }
            if let Some(r) = region {
                if class_regions.contains(&r) {
                    return Err(self.err(None, "distinct output classes share a region"));
                }
                class_regions.push(r);
            }
        }
        // Nothing else may be held.
        for (r, ctx) in end.heap.iter() {
            if !class_regions.contains(&r) {
                return Err(self.err(
                    None,
                    format!("undeclared region {r} survives to the function exit"),
                ));
            }
            // Only signature-declared fields may remain tracked.
            for (x, vt) in &ctx.vars {
                for f in vt.fields.keys() {
                    let declared = sig
                        .output_classes
                        .iter()
                        .flatten()
                        .any(|p| matches!(p, RegionPath::Field(q, g) if q == x && g == f));
                    if !declared {
                        return Err(self.err(
                            None,
                            format!("{x}.{f} is tracked at exit without an annotation"),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Replays one chain, validating threading and every node.
    fn walk_chain(
        &mut self,
        start: TypeState,
        chain: &[usize],
        tol: &Tolerance,
    ) -> Result<TypeState, VerifyError> {
        let mut cur = start;
        for &idx in chain {
            let node = self.node(idx)?;
            if !eq_states(&cur, &node.input) {
                cur = self.apply_tolerance(cur, &node.input, tol, idx)?;
            }
            if let Some(step) = &node.vir {
                // Trusted-core replay with full precondition checking.
                let mut st = cur.clone();
                // Freshness must be global, not just "not held".
                if let vir::VirStep::Explore { fresh, .. }
                | vir::VirStep::Invalidate { fresh, .. }
                | vir::VirStep::ScrubField { fresh, .. } = step
                {
                    if !unmentioned(&st, *fresh) {
                        return Err(self.err(Some(idx), format!("{fresh} is not globally fresh")));
                    }
                }
                vir::apply(&mut st, step)
                    .map_err(|m| self.err(Some(idx), format!("invalid step `{step}`: {m}")))?;
                if !eq_states(&st, &node.output) {
                    return Err(self.err(
                        Some(idx),
                        format!("step `{step}` does not produce the recorded output"),
                    ));
                }
                st.well_formed()
                    .map_err(|m| self.err(Some(idx), format!("ill-formed state: {m}")))?;
                self.report.vir_steps += 1;
                cur = node.output.clone();
            } else {
                self.verify_rule(idx)?;
                self.report.rule_nodes += 1;
                cur = node.output.clone();
            }
        }
        Ok(cur)
    }

    /// Applies allowed implicit weakenings to make `cur` match `target`.
    fn apply_tolerance(
        &self,
        mut cur: TypeState,
        target: &TypeState,
        tol: &Tolerance,
        idx: usize,
    ) -> Result<TypeState, VerifyError> {
        if let Some(var) = &tol.unbind {
            if cur.gamma.contains(var) && !target.gamma.contains(var) {
                cur.gamma.unbind(var);
            }
        }
        // `new`-style consumption: remove empty allowed regions that the
        // target no longer holds.
        let extra: Vec<RegionId> = cur
            .heap
            .iter()
            .map(|(r, _)| r)
            .filter(|r| !target.heap.contains(*r) && tol.consume.contains(r))
            .collect();
        for r in extra {
            let empty = cur.heap.tracking(r).map(|c| c.is_empty()).unwrap_or(false);
            if !empty {
                return Err(self.err(
                    Some(idx),
                    format!("region {r} consumed while its tracking context is non-empty"),
                ));
            }
            cur.heap.remove(r);
        }
        if !eq_states(&cur, target) {
            return Err(self.err(
                Some(idx),
                format!(
                    "premise does not follow from the previous state:\n  have: {cur}\n  need: {target}"
                ),
            ));
        }
        Ok(cur)
    }

    // --------------------------------------------------------------- rules

    #[allow(clippy::too_many_lines)]
    fn verify_rule(&mut self, idx: usize) -> Result<(), VerifyError> {
        let node = self.node(idx)?;
        let e = self.expr(idx, node.expr)?;
        let result = node
            .result
            .as_ref()
            .ok_or_else(|| self.err(Some(idx), "rule node without result"))?;
        let (input, output) = (&node.input, &node.output);
        output
            .well_formed()
            .map_err(|m| self.err(Some(idx), format!("ill-formed output: {m}")))?;

        match node.rule {
            Rule::UnitLit => {
                self.same(
                    idx,
                    matches!(e.kind, ExprKind::Unit),
                    "expected unit literal",
                )?;
                self.same(idx, eq_states(input, output), "literal changes context")?;
                self.same(
                    idx,
                    result.ty == Type::Unit && result.region.is_none(),
                    "bad result",
                )
            }
            Rule::IntLit => {
                self.same(
                    idx,
                    matches!(e.kind, ExprKind::Int(_)),
                    "expected int literal",
                )?;
                self.same(idx, eq_states(input, output), "literal changes context")?;
                self.same(
                    idx,
                    result.ty == Type::Int && result.region.is_none(),
                    "bad result",
                )
            }
            Rule::BoolLit => {
                self.same(
                    idx,
                    matches!(e.kind, ExprKind::Bool(_)),
                    "expected bool literal",
                )?;
                self.same(idx, eq_states(input, output), "literal changes context")?;
                self.same(
                    idx,
                    result.ty == Type::Bool && result.region.is_none(),
                    "bad result",
                )
            }
            Rule::Var => {
                self.same(
                    idx,
                    eq_states(input, output),
                    "variable read changes context",
                )?;
                match &e.kind {
                    ExprKind::Var(x) => {
                        let b = input
                            .gamma
                            .get(x)
                            .ok_or_else(|| self.err(Some(idx), format!("{x} not in scope")))?;
                        self.same(
                            idx,
                            b.ty == result.ty && b.region == result.region,
                            "T2 mismatch",
                        )?;
                        if let Some(r) = b.region {
                            self.same(idx, input.heap.contains(r), "T2: region not held")?;
                        }
                        Ok(())
                    }
                    ExprKind::SelfRef => {
                        let Some(r) = result.region else {
                            return Err(self.err(Some(idx), "self without region"));
                        };
                        self.same(idx, input.heap.contains(r), "self region not held")
                    }
                    _ => Err(self.err(Some(idx), "expected a variable")),
                }
            }
            Rule::Field => {
                let ExprKind::Field(recv, f) = &e.kind else {
                    return Err(self.err(Some(idx), "expected field read"));
                };
                let end = self.walk_chain(input.clone(), &node.chains[0], &Tolerance::default())?;
                self.same(idx, eq_states(&end, output), "field read premise mismatch")?;
                let rv = self.rule_result(&node.chains[0], recv.id)?;
                let fd = self.field_def(&rv.ty, f, idx)?;
                self.same(idx, !fd.iso, "T4 on an iso field")?;
                self.same(idx, result.ty == fd.ty, "field type mismatch")?;
                let expect_region = if fd.ty.is_reference() {
                    rv.region
                } else {
                    None
                };
                self.same(
                    idx,
                    result.region == expect_region,
                    "intra-region read must stay in region",
                )
            }
            Rule::IsoField => {
                if self.mode == fearless_core::CheckerMode::GlobalDomination {
                    return Err(self.err(
                        Some(idx),
                        "iso field reads are not available under global domination",
                    ));
                }
                let ExprKind::Field(recv, f) = &e.kind else {
                    return Err(self.err(Some(idx), "expected field read"));
                };
                let ExprKind::Var(x) = &recv.kind else {
                    return Err(self.err(Some(idx), "T5 requires a variable receiver"));
                };
                self.same(idx, eq_states(input, output), "iso read changes context")?;
                let b = input
                    .gamma
                    .get(x)
                    .ok_or_else(|| self.err(Some(idx), format!("{x} not in scope")))?;
                let fd = self.field_def(&b.ty, f, idx)?;
                self.same(idx, fd.iso, "T5 on a non-iso field")?;
                let target = input
                    .heap
                    .tracked_field(x, f)
                    .ok_or_else(|| self.err(Some(idx), format!("{x}.{f} untracked (T5)")))?;
                self.same(
                    idx,
                    input.heap.contains(target),
                    "T5: target region not held",
                )?;
                self.same(
                    idx,
                    node.data.first() == Some(&target),
                    "recorded target mismatch",
                )?;
                self.same(
                    idx,
                    result.region == Some(target) && result.ty == fd.ty,
                    "T5 result mismatch",
                )
            }
            Rule::AssignVar => {
                let ExprKind::AssignVar(x, rhs) = &e.kind else {
                    return Err(self.err(Some(idx), "expected variable assignment"));
                };
                let end = self.walk_chain(input.clone(), &node.chains[0], &Tolerance::default())?;
                let v = self.rule_result(&node.chains[0], rhs.id)?;
                let mut expected = end;
                self.same(
                    idx,
                    expected.gamma.get(x).map(|b| &b.ty) == Some(&v.ty),
                    "assignment changes variable type",
                )?;
                self.same(
                    idx,
                    expected.heap.tracked_in(x).is_none(),
                    "rebinding a tracked variable",
                )?;
                expected.gamma.set_region(x, v.region);
                self.same(idx, eq_states(&expected, output), "T8 output mismatch")?;
                self.same(idx, result.ty == Type::Unit, "assignment yields unit")
            }
            Rule::AssignField => {
                let ExprKind::AssignField(recv, f, rhs) = &e.kind else {
                    return Err(self.err(Some(idx), "expected field assignment"));
                };
                let mid = self.walk_chain(input.clone(), &node.chains[0], &Tolerance::default())?;
                let end = self.walk_chain(mid, &node.chains[1], &Tolerance::default())?;
                self.same(idx, eq_states(&end, output), "T6 output mismatch")?;
                let rv = self.rule_result(&node.chains[0], recv.id)?;
                let fd = self.field_def(&rv.ty, f, idx)?;
                self.same(idx, !fd.iso, "T6 on an iso field")?;
                if fd.ty.is_reference() {
                    let v = self.rule_result(&node.chains[1], rhs.id)?;
                    let rx = rv.region.ok_or_else(|| self.err(Some(idx), "no region"))?;
                    // Post-attach, the value's region must be the
                    // receiver's (or consumed into it).
                    let ok = v.region == Some(rx)
                        || v.region.map(|r| !output.heap.contains(r)).unwrap_or(false);
                    self.same(idx, ok, "T6: value escapes the receiver's region")?;
                    self.same(idx, output.heap.contains(rx), "receiver region lost")?;
                }
                self.same(idx, result.ty == Type::Unit, "assignment yields unit")
            }
            Rule::IsoAssignField => self.verify_iso_assign(idx, e, input, output, result),
            Rule::Take => self.verify_take(idx, e, input, output, result),
            Rule::Let => {
                let ExprKind::Let { var, init, body } = &e.kind else {
                    return Err(self.err(Some(idx), "expected let"));
                };
                self.same(idx, !input.gamma.contains(var), "shadowing")?;
                let s1 = self.walk_chain(input.clone(), &node.chains[0], &Tolerance::default())?;
                let v = self.rule_result(&node.chains[0], init.id)?;
                let mut bound = s1;
                bound.gamma.bind(
                    var.clone(),
                    Binding {
                        region: v.region,
                        ty: v.ty.clone(),
                    },
                );
                let tol = Tolerance {
                    unbind: Some(var.clone()),
                    consume: vec![],
                };
                let mut end = self.walk_chain(bound, &node.chains[1], &tol)?;
                if end.gamma.contains(var) {
                    end.gamma.unbind(var);
                }
                self.same(idx, eq_states(&end, output), "let output mismatch")?;
                let bv = self.rule_result(&node.chains[1], body.id)?;
                self.same(idx, bv.ty == result.ty, "let result type mismatch")
            }
            Rule::LetSome => {
                let ExprKind::LetSome {
                    var,
                    init,
                    then_branch,
                    else_branch,
                } = &e.kind
                else {
                    return Err(self.err(Some(idx), "expected let some"));
                };
                self.same(idx, !input.gamma.contains(var), "shadowing")?;
                let s0 = self.walk_chain(input.clone(), &node.chains[0], &Tolerance::default())?;
                let v = self.rule_result(&node.chains[0], init.id)?;
                let Type::Maybe(inner) = &v.ty else {
                    return Err(self.err(Some(idx), "let some on non-maybe"));
                };
                let mut bound = s0.clone();
                bound.gamma.bind(
                    var.clone(),
                    Binding {
                        region: v.region,
                        ty: (**inner).clone(),
                    },
                );
                let tol = Tolerance {
                    unbind: Some(var.clone()),
                    consume: vec![],
                };
                let mut e1 = self.walk_chain(bound, &node.chains[1], &tol)?;
                if e1.gamma.contains(var) {
                    e1.gamma.unbind(var);
                }
                let e2 = self.walk_chain(s0, &node.chains[2], &Tolerance::default())?;
                // Each branch chain must actually type its own branch.
                self.rule_result(&node.chains[1], then_branch.id)
                    .map_err(|_| self.err(Some(idx), "then chain does not type the then branch"))?;
                self.rule_result(&node.chains[2], else_branch.id)
                    .map_err(|_| self.err(Some(idx), "else chain does not type the else branch"))?;
                self.same(idx, congruent(&e1, &e2), "branches do not unify")?;
                self.same(idx, congruent(&e1, output), "join output mismatch")?;
                self.check_result_region(output, result, idx)
            }
            Rule::Seq => {
                let end = self.walk_chain(input.clone(), &node.chains[0], &Tolerance::default())?;
                self.same(idx, eq_states(&end, output), "sequence output mismatch")?;
                self.check_result_region(output, result, idx)
            }
            Rule::If => {
                let ExprKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } = &e.kind
                else {
                    return Err(self.err(Some(idx), "expected if"));
                };
                let c = self.walk_chain(input.clone(), &node.chains[0], &Tolerance::default())?;
                let cv = self.rule_result(&node.chains[0], cond.id)?;
                self.same(idx, cv.ty == Type::Bool, "condition must be boolean")?;
                let e1 = self.walk_chain(c.clone(), &node.chains[1], &Tolerance::default())?;
                let e2 = self.walk_chain(c, &node.chains[2], &Tolerance::default())?;
                self.rule_result(&node.chains[1], then_branch.id)
                    .map_err(|_| self.err(Some(idx), "then chain does not type the then branch"))?;
                self.rule_result(&node.chains[2], else_branch.id)
                    .map_err(|_| self.err(Some(idx), "else chain does not type the else branch"))?;
                self.same(idx, congruent(&e1, &e2), "branches do not unify")?;
                self.same(idx, congruent(&e1, output), "join output mismatch")?;
                self.check_result_region(output, result, idx)
            }
            Rule::IfDisconnected => {
                let ExprKind::IfDisconnected {
                    a,
                    b,
                    then_branch,
                    else_branch,
                } = &e.kind
                else {
                    return Err(self.err(Some(idx), "expected if disconnected"));
                };
                let [r, ra, rb] = node.data[..] else {
                    return Err(self.err(Some(idx), "bad data payload"));
                };
                self.same(
                    idx,
                    input.gamma.get(a).and_then(|bd| bd.region) == Some(r)
                        && input.gamma.get(b).and_then(|bd| bd.region) == Some(r),
                    "T15: roots must share one region",
                )?;
                self.same(
                    idx,
                    input
                        .heap
                        .tracking(r)
                        .map(|c| c.is_empty())
                        .unwrap_or(false),
                    "T15: region tracking context must be empty",
                )?;
                let mut then_start = input.clone();
                then_start.heap.remove(r);
                self.same(
                    idx,
                    unmentioned(&then_start, ra) && unmentioned(&then_start, rb) && ra != rb,
                    "split regions must be fresh",
                )?;
                then_start.heap.insert(ra, TrackCtx::empty());
                then_start.heap.insert(rb, TrackCtx::empty());
                then_start.gamma.set_region(a, Some(ra));
                then_start.gamma.set_region(b, Some(rb));
                let e1 = self.walk_chain(then_start, &node.chains[0], &Tolerance::default())?;
                let e2 = self.walk_chain(input.clone(), &node.chains[1], &Tolerance::default())?;
                self.rule_result(&node.chains[0], then_branch.id)
                    .map_err(|_| self.err(Some(idx), "then chain does not type the then branch"))?;
                self.rule_result(&node.chains[1], else_branch.id)
                    .map_err(|_| self.err(Some(idx), "else chain does not type the else branch"))?;
                self.same(idx, congruent(&e1, &e2), "branches do not unify")?;
                self.same(idx, congruent(&e1, output), "join output mismatch")?;
                self.check_result_region(output, result, idx)
            }
            Rule::While => {
                let ExprKind::While { cond, .. } = &e.kind else {
                    return Err(self.err(Some(idx), "expected while"));
                };
                let l = self.walk_chain(input.clone(), &node.chains[0], &Tolerance::default())?;
                let c = self.walk_chain(l.clone(), &node.chains[1], &Tolerance::default())?;
                let cv = self.rule_result(&node.chains[1], cond.id)?;
                self.same(idx, cv.ty == Type::Bool, "condition must be boolean")?;
                let ExprKind::While { body, .. } = &e.kind else {
                    return Err(self.err(Some(idx), "expected while"));
                };
                let b = self.walk_chain(c.clone(), &node.chains[2], &Tolerance::default())?;
                self.rule_result(&node.chains[2], body.id)
                    .map_err(|_| self.err(Some(idx), "body chain does not type the loop body"))?;
                self.same(
                    idx,
                    congruent(&b, &l),
                    "loop body does not restore the invariant",
                )?;
                self.same(idx, eq_states(&c, output), "loop exit state mismatch")?;
                self.same(idx, result.ty == Type::Unit, "while yields unit")
            }
            Rule::New => self.verify_new(idx, e, input, output, result),
            Rule::SomeOf => {
                let ExprKind::SomeOf(inner) = &e.kind else {
                    return Err(self.err(Some(idx), "expected some"));
                };
                let end = self.walk_chain(input.clone(), &node.chains[0], &Tolerance::default())?;
                self.same(idx, eq_states(&end, output), "some output mismatch")?;
                let v = self.rule_result(&node.chains[0], inner.id)?;
                self.same(
                    idx,
                    result.ty == Type::maybe(v.ty.clone()),
                    "some type mismatch",
                )?;
                self.same(idx, result.region == v.region, "some region mismatch")
            }
            Rule::NoneOf | Rule::Recv => {
                let mut expected = input.clone();
                if let Some(&fresh) = node.data.first() {
                    self.same(idx, unmentioned(input, fresh), "fresh region is mentioned")?;
                    expected.heap.insert(fresh, TrackCtx::empty());
                    self.same(
                        idx,
                        result.region == Some(fresh),
                        "fresh result region mismatch",
                    )?;
                    self.same(idx, result.ty.is_reference(), "fresh region for value type")?;
                } else {
                    self.same(idx, result.region.is_none(), "value result with region")?;
                }
                self.same(idx, eq_states(&expected, output), "output mismatch")
            }
            Rule::IsNone | Rule::IsSome => {
                let end = self.walk_chain(input.clone(), &node.chains[0], &Tolerance::default())?;
                self.same(idx, eq_states(&end, output), "output mismatch")?;
                self.same(
                    idx,
                    result.ty == Type::Bool && result.region.is_none(),
                    "is_none yields bool",
                )
            }
            Rule::Binary | Rule::Unary => {
                let end = self.walk_chain(input.clone(), &node.chains[0], &Tolerance::default())?;
                self.same(idx, eq_states(&end, output), "output mismatch")?;
                self.same(idx, result.region.is_none(), "operators yield value types")
            }
            Rule::Call => self.verify_call(idx, e, input, output, result),
            Rule::Send => {
                let ExprKind::Send(inner) = &e.kind else {
                    return Err(self.err(Some(idx), "expected send"));
                };
                let end = self.walk_chain(input.clone(), &node.chains[0], &Tolerance::default())?;
                let mut expected = end.clone();
                if let Some(&r) = node.data.first() {
                    let v = self.rule_result(&node.chains[0], inner.id)?;
                    self.same(idx, v.region == Some(r), "sent region mismatch")?;
                    // T16: the region's tracking context must be empty —
                    // the proof that every iso field within dominates.
                    self.same(
                        idx,
                        end.heap.tracking(r).map(|c| c.is_empty()).unwrap_or(false),
                        "T16: tracking context not empty at send",
                    )?;
                    expected.heap.remove(r);
                }
                self.same(idx, eq_states(&expected, output), "send output mismatch")?;
                self.same(idx, result.ty == Type::Unit, "send yields unit")
            }
            Rule::Vir => Err(self.err(Some(idx), "vir node dispatched as rule")),
        }
    }

    fn same(&self, idx: usize, ok: bool, what: &str) -> Result<(), VerifyError> {
        if ok {
            Ok(())
        } else {
            Err(self.err(Some(idx), what.to_string()))
        }
    }

    fn check_result_region(
        &self,
        output: &TypeState,
        result: &ValInfo,
        idx: usize,
    ) -> Result<(), VerifyError> {
        if let Some(r) = result.region {
            if !result.ty.is_reference() {
                return Err(self.err(Some(idx), "value result with region"));
            }
            if !output.heap.contains(r) {
                return Err(self.err(Some(idx), format!("result region {r} not held")));
            }
        }
        Ok(())
    }

    fn field_def(&self, ty: &Type, f: &Symbol, idx: usize) -> Result<&'a FieldDef, VerifyError> {
        let name = ty
            .struct_name()
            .ok_or_else(|| self.err(Some(idx), format!("{ty} has no fields")))?;
        if matches!(ty, Type::Maybe(_)) {
            return Err(self.err(Some(idx), "field access on maybe type"));
        }
        let sdef = self
            .globals
            .struct_def(name)
            .ok_or_else(|| self.err(Some(idx), format!("unknown struct {name}")))?;
        sdef.field(f)
            .ok_or_else(|| self.err(Some(idx), format!("no field {f} on {name}")))
    }

    fn verify_iso_assign(
        &mut self,
        idx: usize,
        e: &Expr,
        input: &TypeState,
        output: &TypeState,
        result: &ValInfo,
    ) -> Result<(), VerifyError> {
        let ExprKind::AssignField(recv, f, rhs) = &e.kind else {
            return Err(self.err(Some(idx), "expected field assignment"));
        };
        let ExprKind::Var(x) = &recv.kind else {
            return Err(self.err(Some(idx), "T7 requires a variable receiver"));
        };
        let node = self.node(idx)?;
        let b = input
            .gamma
            .get(x)
            .ok_or_else(|| self.err(Some(idx), format!("{x} not in scope")))?;
        let fd = self.field_def(&b.ty, f, idx)?;
        if !fd.iso {
            return Err(self.err(Some(idx), "T7 on a non-iso field"));
        }
        let chain = &node.chains[0];
        let end = self.walk_chain(input.clone(), chain, &Tolerance::default())?;
        if result.ty != Type::Unit {
            return Err(self.err(Some(idx), "assignment yields unit"));
        }
        if self.mode == fearless_core::CheckerMode::GlobalDomination {
            // Global-domination mode: the RHS region is consumed outright.
            let mut expected = end.clone();
            let consumed = node.data[0];
            let empty = expected
                .heap
                .tracking(consumed)
                .map(|c| c.is_empty())
                .unwrap_or(false);
            if !empty {
                return Err(self.err(Some(idx), "consumed region not discharged"));
            }
            expected.heap.remove(consumed);
            if !eq_states(&expected, output) {
                return Err(self.err(Some(idx), "GD iso-assign output mismatch"));
            }
            return Ok(());
        }
        // Tempered mode: the tracked mapping is retargeted to the RHS region.
        let v = self.rule_result(chain, rhs.id)?;
        let rv = v
            .region
            .ok_or_else(|| self.err(Some(idx), "iso field needs a reference value"))?;
        if node.data.first() != Some(&rv) {
            return Err(self.err(Some(idx), "recorded target mismatch"));
        }
        let r = end
            .heap
            .tracked_in(x)
            .ok_or_else(|| self.err(Some(idx), "T7: x must remain tracked"))?;
        let mut expected = end;
        let vt = expected
            .heap
            .tracking_mut(r)
            .and_then(|c| c.vars.get_mut(x))
            .ok_or_else(|| self.err(Some(idx), "T7: x untracked"))?;
        if !vt.fields.contains_key(f) {
            return Err(self.err(Some(idx), "T7: field must already be tracked"));
        }
        vt.fields.insert(f.clone(), rv);
        if !eq_states(&expected, output) {
            return Err(self.err(Some(idx), "T7 output mismatch"));
        }
        Ok(())
    }

    fn verify_take(
        &mut self,
        idx: usize,
        e: &Expr,
        input: &TypeState,
        output: &TypeState,
        result: &ValInfo,
    ) -> Result<(), VerifyError> {
        let ExprKind::Take(recv, f) = &e.kind else {
            return Err(self.err(Some(idx), "expected take"));
        };
        let ExprKind::Var(x) = &recv.kind else {
            return Err(self.err(Some(idx), "take requires a variable receiver"));
        };
        let node = self.node(idx)?;
        let b = input
            .gamma
            .get(x)
            .ok_or_else(|| self.err(Some(idx), format!("{x} not in scope")))?;
        let fd = self.field_def(&b.ty, f, idx)?;
        if !fd.iso || !matches!(fd.ty, Type::Maybe(_)) {
            return Err(self.err(Some(idx), "take requires an iso maybe field"));
        }
        if result.ty != fd.ty {
            return Err(self.err(Some(idx), "take result type mismatch"));
        }
        match node.data[..] {
            [fresh] => {
                // Global domination: destructive read into a fresh region.
                // This form is only sound when untracked iso fields are
                // globally dominating — i.e. under the GD discipline.
                if self.mode != fearless_core::CheckerMode::GlobalDomination {
                    return Err(self.err(
                        Some(idx),
                        "destructive-read take form is only valid under global domination",
                    ));
                }
                if !unmentioned(input, fresh) {
                    return Err(self.err(Some(idx), "fresh region mentioned"));
                }
                let mut expected = input.clone();
                expected.heap.insert(fresh, TrackCtx::empty());
                if !eq_states(&expected, output) || result.region != Some(fresh) {
                    return Err(self.err(Some(idx), "GD take output mismatch"));
                }
                Ok(())
            }
            [target, fresh] => {
                if self.mode == fearless_core::CheckerMode::GlobalDomination {
                    return Err(self.err(
                        Some(idx),
                        "tracked take form is not available under global domination",
                    ));
                }
                let r = input
                    .heap
                    .tracked_in(x)
                    .ok_or_else(|| self.err(Some(idx), "take: x untracked"))?;
                if input.heap.tracked_field(x, f) != Some(target) || !input.heap.contains(target) {
                    return Err(self.err(Some(idx), "take: target mismatch"));
                }
                if !unmentioned(input, fresh) {
                    return Err(self.err(Some(idx), "fresh region mentioned"));
                }
                let mut expected = input.clone();
                expected.heap.insert(fresh, TrackCtx::empty());
                expected
                    .heap
                    .tracking_mut(r)
                    .and_then(|c| c.vars.get_mut(x))
                    .ok_or_else(|| self.err(Some(idx), "take: x untracked"))?
                    .fields
                    .insert(f.clone(), fresh);
                if !eq_states(&expected, output) || result.region != Some(target) {
                    return Err(self.err(Some(idx), "take output mismatch"));
                }
                Ok(())
            }
            _ => Err(self.err(Some(idx), "bad take payload")),
        }
    }

    fn verify_new(
        &mut self,
        idx: usize,
        e: &Expr,
        input: &TypeState,
        output: &TypeState,
        result: &ValInfo,
    ) -> Result<(), VerifyError> {
        let ExprKind::New(name, args) = &e.kind else {
            return Err(self.err(Some(idx), "expected new"));
        };
        let node = self.node(idx)?;
        let sdef = self
            .globals
            .struct_def(name)
            .ok_or_else(|| self.err(Some(idx), format!("unknown struct {name}")))?;
        if args.len() != sdef.fields.len() {
            return Err(self.err(Some(idx), "initializer arity mismatch"));
        }
        let Some((&r_new, consumed)) = node.data.split_first() else {
            return Err(self.err(Some(idx), "missing region payload"));
        };
        if !unmentioned(input, r_new) {
            return Err(self.err(Some(idx), "new region is mentioned"));
        }
        let mut cur = input.clone();
        cur.heap.insert(r_new, TrackCtx::empty());
        let tol = Tolerance {
            unbind: None,
            consume: consumed.to_vec(),
        };
        let end = self.walk_chain(cur, &node.chains[0], &tol)?;
        // Consume any remaining iso-initializer regions.
        let mut expected = end;
        for &r in consumed {
            if expected.heap.contains(r) {
                let empty = expected
                    .heap
                    .tracking(r)
                    .map(|c| c.is_empty())
                    .unwrap_or(false);
                if !empty {
                    return Err(self.err(Some(idx), "iso initializer region not discharged"));
                }
                expected.heap.remove(r);
            }
        }
        if !eq_states(&expected, output) {
            return Err(self.err(Some(idx), "new output mismatch"));
        }
        // Each iso reference field's initializer region must be consumed.
        let mut iso_count = 0;
        for (arg, fd) in args.iter().zip(&sdef.fields) {
            if fd.iso {
                iso_count += 1;
                let v = self.rule_result(&node.chains[0], arg.id)?;
                let rv = v
                    .region
                    .ok_or_else(|| self.err(Some(idx), "iso initializer without region"))?;
                if output.heap.contains(rv) {
                    return Err(self.err(
                        Some(idx),
                        format!("iso initializer region {rv} not consumed"),
                    ));
                }
            }
        }
        if iso_count != consumed.len() {
            return Err(self.err(Some(idx), "consumed-region count mismatch"));
        }
        if result.region != Some(r_new) || result.ty != Type::Named(name.clone()) {
            return Err(self.err(Some(idx), "new result mismatch"));
        }
        Ok(())
    }

    fn verify_call(
        &mut self,
        idx: usize,
        e: &Expr,
        input: &TypeState,
        output: &TypeState,
        result: &ValInfo,
    ) -> Result<(), VerifyError> {
        let ExprKind::Call(name, args) = &e.kind else {
            return Err(self.err(Some(idx), "expected call"));
        };
        let node = self.node(idx)?;
        let sig = self
            .globals
            .sig(name)
            .ok_or_else(|| self.err(Some(idx), format!("unknown function {name}")))?;
        if args.len() != sig.params.len() {
            return Err(self.err(Some(idx), "call arity mismatch"));
        }
        let info = node
            .call
            .as_ref()
            .ok_or_else(|| self.err(Some(idx), "call without summary"))?;
        let end = self.walk_chain(input.clone(), &node.chains[0], &Tolerance::default())?;

        let arg_region = |p: &Symbol| -> Option<RegionId> {
            sig.param_index(p)
                .and_then(|i| self.rule_result(&node.chains[0], args[i].id).ok())
                .and_then(|v| v.region)
        };

        let mut expected = end.clone();
        // Consumed classes: regions removed; each must be discharged and
        // match an input class containing a consumed parameter.
        for &r in &info.consumed {
            let empty = expected
                .heap
                .tracking(r)
                .map(|c| c.is_empty())
                .unwrap_or(false);
            if !empty {
                return Err(self.err(Some(idx), "consumed argument region not discharged"));
            }
            expected.heap.remove(r);
        }
        let consumed_classes = sig
            .input_classes
            .iter()
            .filter(|c| c.iter().any(|p| sig.consumes.contains(p)))
            .count();
        if consumed_classes != info.consumed.len() {
            return Err(self.err(Some(idx), "consumed class count mismatch"));
        }
        // Unpinned, surviving argument regions must be discharged at the
        // boundary (T9's premise: input tracking contexts match the
        // declared — empty — ones).
        for class in &sig.input_classes {
            if class.iter().any(|p| sig.pinned.contains(p)) {
                continue;
            }
            for p in class {
                if let Some(r) = arg_region(p) {
                    if end.heap.contains(r) {
                        let ok = end.heap.tracking(r).map(|c| c.is_empty()).unwrap_or(false);
                        if !ok {
                            return Err(self.err(
                                Some(idx),
                                format!("argument region {r} not discharged at call"),
                            ));
                        }
                    }
                }
            }
        }
        // Created output-class regions.
        for &(ci, r) in &info.created {
            if ci >= sig.output_classes.len() {
                return Err(self.err(Some(idx), "bad output class index"));
            }
            if !unmentioned(&end, r) {
                return Err(self.err(Some(idx), "created region is mentioned"));
            }
            expected.heap.insert(r, TrackCtx::empty());
        }
        // Tracked-field installs per output classes, plus `after: p ~ q`
        // merges of surviving argument regions.
        let mut result_region: Option<RegionId> = None;
        for (ci, class) in sig.output_classes.iter().enumerate() {
            let param_regions: Vec<RegionId> = class
                .iter()
                .filter_map(|p| match p {
                    RegionPath::Param(q) => arg_region(q),
                    _ => None,
                })
                .collect();
            if let Some(&rep) = param_regions.first() {
                for &from in &param_regions[1..] {
                    if from != rep {
                        expected.heap.rename_region(from, rep);
                        expected.gamma.rename_region(from, rep);
                    }
                }
            }
            let class_region = param_regions
                .first()
                .copied()
                .or_else(|| info.created.iter().find(|(i, _)| *i == ci).map(|(_, r)| *r));
            let Some(class_region) = class_region else {
                return Err(self.err(Some(idx), "output class without region"));
            };
            if class.contains(&RegionPath::Result) {
                result_region = Some(class_region);
            }
            for path in class {
                if let RegionPath::Field(p, f) = path {
                    let i = sig
                        .param_index(p)
                        .ok_or_else(|| self.err(Some(idx), "bad field path"))?;
                    let ExprKind::Var(var) = &args[i].kind else {
                        return Err(self.err(Some(idx), "field-path argument must be a variable"));
                    };
                    let r = arg_region(p)
                        .ok_or_else(|| self.err(Some(idx), "field-path arg without region"))?;
                    let ctx = expected
                        .heap
                        .tracking_mut(r)
                        .ok_or_else(|| self.err(Some(idx), "field-path region missing"))?;
                    let vt = ctx.vars.entry(var.clone()).or_default();
                    vt.fields.insert(f.clone(), class_region);
                }
            }
        }
        if !eq_states(&expected, output) {
            return Err(self.err(Some(idx), "call output mismatch"));
        }
        if result.ty != sig.ret {
            return Err(self.err(Some(idx), "call result type mismatch"));
        }
        if sig.ret.is_reference() {
            if result.region != result_region {
                return Err(self.err(Some(idx), "call result region mismatch"));
            }
        } else if result.region.is_some() {
            return Err(self.err(Some(idx), "value result with region"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fearless_syntax::Span;

    fn node(kind: ExprKind, id: u32) -> Expr {
        Expr {
            kind,
            span: Span::dummy(),
            id: ExprId(id),
        }
    }

    #[test]
    fn expr_table_resolves_ids_and_keeps_the_last_duplicate() {
        // Pre-order walk: 5, 7, 7 (the `Int(2)` comes last), 9.
        let body = node(
            ExprKind::Seq(vec![
                node(ExprKind::Int(1), 7),
                node(ExprKind::Int(2), 7),
                node(ExprKind::Bool(true), 9),
            ]),
            5,
        );
        let table = ExprTable::new(&body);
        assert!(matches!(
            table.get(ExprId(5)).unwrap().kind,
            ExprKind::Seq(_)
        ));
        assert!(matches!(
            table.get(ExprId(7)).unwrap().kind,
            ExprKind::Int(2)
        ));
        assert!(matches!(
            table.get(ExprId(9)).unwrap().kind,
            ExprKind::Bool(true)
        ));
        for missing in [0, 4, 6, 8, 10, u32::MAX] {
            assert!(table.get(ExprId(missing)).is_none(), "e{missing}");
        }
    }
}
