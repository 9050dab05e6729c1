//! The syntax-directed typing rules (Fig. 10, Fig. 13) with greedy virtual
//! transformation insertion (§4.6) and liveness-oracle unification (§5.1).

use std::cell::Cell;
use std::collections::BTreeSet;

use fearless_syntax::{
    BinOp, Expr, ExprKind, FieldDef, FnDef, RegionPath, Span, Symbol, Type, UnOp,
};
use fearless_trace::Tracer;

use crate::ctx::{Binding, RegionId, TrackCtx, TypeState};
use crate::derivation::{CallInfo, DerivBuilder, Derivation, Rule, ValInfo};
use crate::env::{FnSig, Globals};
use crate::error::TypeError;
use crate::liveness::Liveness;
use crate::mode::{CheckerMode, CheckerOptions};
use crate::search;
use crate::state::{self, LiveSet, Protect};
use crate::unify::{self, Side};
use crate::vir::{self, VirStep};

/// Instrumentation counters accumulated while checking one function.
/// Observation-only: nothing in the checker branches on them.
#[derive(Debug, Default)]
pub struct CheckCounters {
    /// Liveness-oracle lookups (`live_after` queries). `Cell` because the
    /// lookup path takes `&self`.
    pub liveness_queries: Cell<u64>,
    /// Join attempts routed through the greedy oracle unifier.
    pub oracle_queries: u64,
    /// Oracle attempts that unified without search.
    pub oracle_hits: u64,
    /// Joins that fell back to bounded backtracking search.
    pub joins_fallback: u64,
    /// Search invocations (== `joins_fallback` unless the oracle is off).
    pub search_runs: u64,
    /// Aggregated counters across all search runs in this function.
    pub search: search::SearchStats,
}

/// Per-function checker (the prover half of the prover–verifier pair).
pub struct FnChecker<'a> {
    globals: &'a Globals,
    opts: &'a CheckerOptions,
    sig: &'a FnSig,
    liveness: Liveness,
    /// Derivation being built.
    pub deriv: DerivBuilder,
    /// Instrumentation counters (see [`CheckCounters`]).
    pub counters: CheckCounters,
    /// Set during `new S(…)` argument checking: the nascent object's region
    /// and struct name (for the `self` keyword).
    self_ctx: Option<(RegionId, Symbol)>,
}

/// The `check` span's counters for one checked function, in the fixed
/// order of [`CheckCounts::NAMES`]. This is the one place that names and
/// orders them: a live check and a replay of a stored outcome both emit
/// them through [`CheckCounts::emit`], so the two spans cannot differ.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CheckCounts(pub [u64; CheckCounts::LEN]);

impl CheckCounts {
    /// Number of counters.
    pub const LEN: usize = 24;

    /// Counter names, in value order. The full set is always emitted
    /// (zeros included) so every function's scope has the same shape —
    /// `fearlessc profile` relies on that for its table.
    pub const NAMES: [&'static str; CheckCounts::LEN] = [
        "check.deriv_nodes",
        "check.vir_steps",
        "check.liveness_queries",
        "check.oracle_queries",
        "check.oracle_hits",
        "check.oracle_misses",
        "check.joins_greedy",
        "check.joins_fallback",
        "search.runs",
        "search.nodes",
        "search.backtracks",
        "search.enqueued",
        "search.unify_attempts",
        "search.unify_failures",
        "search.exhausted",
        "vir.focus",
        "vir.unfocus",
        "vir.explore",
        "vir.retract",
        "vir.attach",
        "vir.weaken",
        "vir.rename",
        "vir.invalidate",
        "vir.scrub-field",
    ];

    /// Index of the first `vir.*` counter; one per [`vir::VirKind`].
    const VIR: usize = 15;

    fn of(counters: &CheckCounters, deriv: &Derivation) -> CheckCounts {
        let c = counters;
        let mut v = [0; CheckCounts::LEN];
        v[..CheckCounts::VIR].copy_from_slice(&[
            deriv.len() as u64,
            deriv.vir_steps as u64,
            c.liveness_queries.get(),
            c.oracle_queries,
            c.oracle_hits,
            c.oracle_queries - c.oracle_hits,
            c.oracle_hits,
            c.joins_fallback,
            c.search_runs,
            c.search.nodes,
            c.search.backtracks,
            c.search.enqueued,
            c.search.unify_attempts,
            c.search.unify_failures,
            u64::from(c.search.exhausted),
        ]);
        for step in deriv.vir_iter() {
            v[CheckCounts::VIR + vir_slot(step.kind())] += 1;
        }
        CheckCounts(v)
    }

    /// Adds every counter to the open span of `tracer`.
    pub fn emit(&self, tracer: &mut Tracer<'_>) {
        for (name, value) in CheckCounts::NAMES.into_iter().zip(self.0) {
            tracer.add(name, value);
        }
    }

    /// Derivation nodes (`check.deriv_nodes`).
    pub fn deriv_nodes(&self) -> u64 {
        self.0[0]
    }

    /// Virtual-transformation steps (`check.vir_steps`).
    pub fn vir_steps(&self) -> u64 {
        self.0[1]
    }

    /// Backtracking-search states visited (`search.nodes`).
    pub fn search_nodes(&self) -> u64 {
        self.0[9]
    }
}

/// Position of a virtual-transformation kind among the `vir.*` counters.
fn vir_slot(kind: vir::VirKind) -> usize {
    use vir::VirKind;
    match kind {
        VirKind::Focus => 0,
        VirKind::Unfocus => 1,
        VirKind::Explore => 2,
        VirKind::Retract => 3,
        VirKind::Attach => 4,
        VirKind::Weaken => 5,
        VirKind::Rename => 6,
        VirKind::Invalidate => 7,
        VirKind::ScrubField => 8,
    }
}

/// Checks one function definition, producing its derivation.
pub fn check_fn(
    globals: &Globals,
    opts: &CheckerOptions,
    def: &FnDef,
) -> Result<Derivation, TypeError> {
    check_fn_impl(globals, opts, def).map(|(deriv, _)| deriv)
}

/// Like [`check_fn`], also returning the function's `check` span
/// counters, for a driver that emits or stores them itself.
pub fn check_fn_counted(
    globals: &Globals,
    opts: &CheckerOptions,
    def: &FnDef,
) -> Result<(Derivation, CheckCounts), TypeError> {
    check_fn_impl(globals, opts, def).map(|(deriv, counters)| {
        let counts = CheckCounts::of(&counters, &deriv);
        (deriv, counts)
    })
}

/// Like [`check_fn`], emitting a `check` span with the function's search,
/// oracle, and virtual-transformation counters to `tracer`. With a
/// disabled tracer this is exactly [`check_fn`].
pub fn check_fn_traced(
    globals: &Globals,
    opts: &CheckerOptions,
    def: &FnDef,
    tracer: &mut Tracer<'_>,
) -> Result<Derivation, TypeError> {
    if !tracer.is_enabled() {
        return check_fn(globals, opts, def);
    }
    tracer.span_enter("check", def.name.as_str());
    let result = check_fn_counted(globals, opts, def);
    if let Ok((_, counts)) = &result {
        counts.emit(tracer);
    }
    tracer.span_exit();
    result.map(|(deriv, _)| deriv)
}

fn check_fn_impl(
    globals: &Globals,
    opts: &CheckerOptions,
    def: &FnDef,
) -> Result<(Derivation, CheckCounters), TypeError> {
    let sig = globals
        .sig(&def.name)
        .ok_or_else(|| TypeError::new(format!("unknown function `{}`", def.name), def.span))?;

    // Input-class consistency: a consumed parameter may not share an input
    // region with a surviving one.
    for class in &sig.input_classes {
        let consumed = class.iter().filter(|p| sig.consumes.contains(*p)).count();
        if consumed != 0 && consumed != class.len() {
            return Err(TypeError::new(
                "a consumed parameter cannot share an input region (`before:`) with a \
                 surviving one"
                    .to_string(),
                def.span,
            ));
        }
    }

    let always_live: BTreeSet<Symbol> = sig
        .params
        .iter()
        .filter(|p| !sig.consumes.contains(*p))
        .cloned()
        .collect();
    let liveness = Liveness::analyze(&def.body, &always_live);

    let mut ck = FnChecker {
        globals,
        opts,
        sig,
        liveness,
        deriv: DerivBuilder::new(),
        counters: CheckCounters::default(),
        self_ctx: None,
    };

    // Build the input state per the signature defaults (§4.9).
    let mut st = TypeState::new();
    let mut param_regions: Vec<Option<RegionId>> = vec![None; sig.params.len()];
    for class in &sig.input_classes {
        let r = st.fresh_region();
        let mut ctx = TrackCtx::empty();
        ctx.pinned = class.iter().any(|p| sig.pinned.contains(p));
        st.heap.insert(r, ctx);
        for p in class {
            let idx = sig.param_index(p).expect("validated");
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
    let input = st.clone();

    let mut chain = Vec::new();
    let mut val = ck.check_expr(&mut st, &def.body, Some(&sig.ret), &mut chain)?;
    ck.check_exit(&mut st, &mut val, &param_regions, &mut chain, def.span)?;

    let output = st.clone();
    let deriv = ck
        .deriv
        .finish(def.name.clone(), input, output, val, chain, param_regions);
    Ok((deriv, ck.counters))
}

impl<'a> FnChecker<'a> {
    fn mode(&self) -> CheckerMode {
        self.opts.mode
    }

    fn err(&self, msg: impl Into<String>, span: Span) -> TypeError {
        TypeError::new(msg, span)
    }

    fn struct_def(
        &self,
        ty: &Type,
        span: Span,
    ) -> Result<&'a fearless_syntax::StructDef, TypeError> {
        let name = ty
            .struct_name()
            .ok_or_else(|| self.err(format!("type {ty} is not a struct"), span))?;
        self.globals
            .struct_def(name)
            .ok_or_else(|| self.err(format!("unknown struct `{name}`"), span))
    }

    fn vir(
        &mut self,
        st: &mut TypeState,
        step: VirStep,
        chain: &mut Vec<usize>,
        span: Span,
    ) -> Result<(), TypeError> {
        state::record_vir(&mut self.deriv, st, step, chain, span)
    }

    /// Looks up a variable, requiring its region (if any) to still be held.
    fn use_var(&self, st: &TypeState, x: &Symbol, span: Span) -> Result<ValInfo, TypeError> {
        let b = st
            .gamma
            .get(x)
            .ok_or_else(|| self.err(format!("variable `{x}` is not in scope"), span))?;
        if let Some(r) = b.region {
            if !st.heap.contains(r) {
                return Err(self.err(
                    format!("variable `{x}` is unusable: its region was consumed or invalidated"),
                    span,
                ));
            }
        }
        Ok(ValInfo {
            region: b.region,
            ty: b.ty.clone(),
        })
    }

    /// Ensures `x` is focused (V1), discharging other tracked variables in
    /// its region if their tracking can be dropped.
    fn ensure_focused(
        &mut self,
        st: &mut TypeState,
        x: &Symbol,
        live: &LiveSet,
        chain: &mut Vec<usize>,
        span: Span,
    ) -> Result<RegionId, TypeError> {
        if self.mode() == CheckerMode::GlobalDomination {
            return Err(self.err(
                "global-domination discipline: iso fields cannot be focused; use `take` \
                 for destructive reads"
                    .to_string(),
                span,
            ));
        }
        let val = self.use_var(st, x, span)?;
        let Some(r) = val.region else {
            return Err(self.err(format!("`{x}` has value type {}", val.ty), span));
        };
        if matches!(val.ty, Type::Maybe(_)) {
            return Err(self.err(
                format!(
                    "`{x}` has maybe type {}; unwrap it with `let some(..)` first",
                    val.ty
                ),
                span,
            ));
        }
        if st.heap.tracked_in(x) == Some(r) {
            return Ok(r);
        }
        let ctx = st.heap.tracking(r).expect("held");
        if ctx.pinned {
            return Err(self.err(
                format!("cannot focus `{x}`: its region is pinned (partial information)"),
                span,
            ));
        }
        // Make room: discharge other tracked variables.
        let others: Vec<Symbol> = ctx.vars.keys().cloned().collect();
        for y in others {
            let fields: Vec<(Symbol, RegionId)> = st.heap.tracking(r).unwrap().vars[&y]
                .fields
                .iter()
                .map(|(f, t)| (f.clone(), *t))
                .collect();
            for (f, target) in fields {
                let droppable = st
                    .heap
                    .tracking(target)
                    .map(|t| t.is_empty() && !t.pinned)
                    .unwrap_or(false)
                    && state::can_drop_region(st, target, live, &Protect::new());
                if !droppable {
                    return Err(self.err(
                        format!(
                            "cannot focus `{x}`: potential alias `{y}` has iso field \
                             `{y}.{f}` tracked and its contents are still needed"
                        ),
                        span,
                    ));
                }
                self.vir(
                    st,
                    VirStep::Retract {
                        r,
                        x: y.clone(),
                        f,
                        target,
                    },
                    chain,
                    span,
                )?;
            }
            self.vir(st, VirStep::Unfocus { r, x: y.clone() }, chain, span)?;
        }
        self.vir(st, VirStep::Focus { r, x: x.clone() }, chain, span)?;
        Ok(r)
    }

    /// Ensures `x.f` is tracked (focus + explore as needed); returns the
    /// tracked target region, which may be dangling.
    fn ensure_tracked_field(
        &mut self,
        st: &mut TypeState,
        x: &Symbol,
        f: &Symbol,
        live: &LiveSet,
        chain: &mut Vec<usize>,
        span: Span,
    ) -> Result<RegionId, TypeError> {
        let r = self.ensure_focused(st, x, live, chain, span)?;
        if let Some(target) = st.heap.tracked_field(x, f) {
            return Ok(target);
        }
        let fresh = st.fresh_region();
        self.vir(
            st,
            VirStep::Explore {
                r,
                x: x.clone(),
                f: f.clone(),
                fresh,
            },
            chain,
            span,
        )?;
        Ok(fresh)
    }

    fn field_def(&self, recv_ty: &Type, f: &Symbol, span: Span) -> Result<FieldDef, TypeError> {
        if matches!(recv_ty, Type::Maybe(_)) {
            return Err(self.err(
                format!("cannot access field of maybe type {recv_ty}; unwrap with `let some(..)`"),
                span,
            ));
        }
        let sdef = self.struct_def(recv_ty, span)?;
        sdef.field(f)
            .cloned()
            .ok_or_else(|| self.err(format!("struct `{}` has no field `{f}`", sdef.name), span))
    }

    fn live_at(&self, e: &Expr) -> LiveSet {
        self.counters
            .liveness_queries
            .set(self.counters.liveness_queries.get() + 1);
        self.liveness.live_after(e.id)
    }

    /// Conformance of a computed type against an expectation.
    fn expect_ty(
        &self,
        actual: &Type,
        expected: Option<&Type>,
        span: Span,
    ) -> Result<(), TypeError> {
        if let Some(exp) = expected {
            if actual != exp {
                return Err(self.err(
                    format!("type mismatch: expected {exp}, found {actual}"),
                    span,
                ));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------- dispatch

    /// Checks an expression, returning its judgment and appending its
    /// derivation node (plus any TS1 nodes) to `chain`.
    pub fn check_expr(
        &mut self,
        st: &mut TypeState,
        e: &Expr,
        expected: Option<&Type>,
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let val = self.check_expr_inner(st, e, expected, chain)?;
        self.expect_ty(&val.ty, expected, e.span)?;
        Ok(val)
    }

    fn check_expr_inner(
        &mut self,
        st: &mut TypeState,
        e: &Expr,
        expected: Option<&Type>,
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let span = e.span;
        match &e.kind {
            ExprKind::Unit => self.leaf(st, e, Rule::UnitLit, ValInfo::unit(), chain),
            ExprKind::Int(_) => self.leaf(
                st,
                e,
                Rule::IntLit,
                ValInfo {
                    region: None,
                    ty: Type::Int,
                },
                chain,
            ),
            ExprKind::Bool(_) => self.leaf(
                st,
                e,
                Rule::BoolLit,
                ValInfo {
                    region: None,
                    ty: Type::Bool,
                },
                chain,
            ),
            ExprKind::Var(x) => {
                let val = self.use_var(st, x, span)?;
                self.leaf(st, e, Rule::Var, val, chain)
            }
            ExprKind::SelfRef => {
                let Some((r, sname)) = self.self_ctx.clone() else {
                    return Err(self.err(
                        "`self` is only valid as a direct initializer in `new`",
                        span,
                    ));
                };
                self.leaf(
                    st,
                    e,
                    Rule::Var,
                    ValInfo {
                        region: Some(r),
                        ty: Type::Named(sname),
                    },
                    chain,
                )
            }
            ExprKind::Field(recv, f) => self.check_field_read(st, e, recv, f, chain),
            ExprKind::Take(recv, f) => self.check_take(st, e, recv, f, chain),
            ExprKind::AssignVar(x, rhs) => self.check_assign_var(st, e, x, rhs, chain),
            ExprKind::AssignField(recv, f, rhs) => {
                self.check_assign_field(st, e, recv, f, rhs, chain)
            }
            ExprKind::Let { var, init, body } => {
                self.check_let(st, e, var, init, body, expected, chain)
            }
            ExprKind::LetSome {
                var,
                init,
                then_branch,
                else_branch,
            } => self.check_let_some(st, e, var, init, then_branch, else_branch, expected, chain),
            ExprKind::Seq(items) => self.check_seq(st, e, items, expected, chain),
            ExprKind::If {
                cond,
                then_branch,
                else_branch,
            } => self.check_if(st, e, cond, then_branch, else_branch, expected, chain),
            ExprKind::IfDisconnected {
                a,
                b,
                then_branch,
                else_branch,
            } => self.check_if_disconnected(st, e, a, b, then_branch, else_branch, expected, chain),
            ExprKind::While { cond, body } => self.check_while(st, e, cond, body, chain),
            ExprKind::New(name, args) => self.check_new(st, e, name, args, chain),
            ExprKind::SomeOf(inner) => {
                let input = st.clone();
                let inner_expected = match expected {
                    Some(Type::Maybe(t)) => Some((**t).clone()),
                    _ => None,
                };
                let mut inner_chain = Vec::new();
                let val = self.check_expr(st, inner, inner_expected.as_ref(), &mut inner_chain)?;
                let out = ValInfo {
                    region: val.region,
                    ty: Type::maybe(val.ty.clone()),
                };
                self.node(
                    input,
                    st,
                    e,
                    Rule::SomeOf,
                    out,
                    vec![inner_chain],
                    vec![],
                    chain,
                )
            }
            ExprKind::NoneOf => {
                let input = st.clone();
                let Some(Type::Maybe(_)) = expected else {
                    return Err(self.err(
                        "cannot infer the type of `none` here; add context or use a typed \
                         binding"
                            .to_string(),
                        span,
                    ));
                };
                let ty = expected.expect("checked").clone();
                let (region, data) = if ty.is_reference() {
                    let fresh = st.fresh_region();
                    st.heap.insert(fresh, TrackCtx::empty());
                    (Some(fresh), vec![fresh])
                } else {
                    (None, vec![])
                };
                self.node(
                    input,
                    st,
                    e,
                    Rule::NoneOf,
                    ValInfo { region, ty },
                    vec![],
                    data,
                    chain,
                )
            }
            ExprKind::IsNone(inner) | ExprKind::IsSome(inner) => {
                let input = st.clone();
                let rule = if matches!(e.kind, ExprKind::IsNone(_)) {
                    Rule::IsNone
                } else {
                    Rule::IsSome
                };
                let mut inner_chain = Vec::new();
                let val = self.check_expr(st, inner, None, &mut inner_chain)?;
                if !matches!(val.ty, Type::Maybe(_)) {
                    return Err(self.err(
                        format!("is_none/is_some requires a maybe type, found {}", val.ty),
                        span,
                    ));
                }
                self.node(
                    input,
                    st,
                    e,
                    rule,
                    ValInfo {
                        region: None,
                        ty: Type::Bool,
                    },
                    vec![inner_chain],
                    vec![],
                    chain,
                )
            }
            ExprKind::Call(name, args) => self.check_call(st, e, name, args, chain),
            ExprKind::Send(inner) => self.check_send(st, e, inner, chain),
            ExprKind::Recv(ty) => {
                let input = st.clone();
                if let Some(n) = ty.struct_name() {
                    if self.globals.struct_def(n).is_none() {
                        return Err(self.err(format!("unknown struct `{n}`"), span));
                    }
                }
                let (region, data) = if ty.is_reference() {
                    let fresh = st.fresh_region();
                    st.heap.insert(fresh, TrackCtx::empty());
                    (Some(fresh), vec![fresh])
                } else {
                    (None, vec![])
                };
                self.node(
                    input,
                    st,
                    e,
                    Rule::Recv,
                    ValInfo {
                        region,
                        ty: ty.clone(),
                    },
                    vec![],
                    data,
                    chain,
                )
            }
            ExprKind::Binary(op, lhs, rhs) => self.check_binary(st, e, *op, lhs, rhs, chain),
            ExprKind::Unary(op, inner) => {
                let input = st.clone();
                let (want, out) = match op {
                    UnOp::Not => (Type::Bool, Type::Bool),
                    UnOp::Neg => (Type::Int, Type::Int),
                };
                let mut inner_chain = Vec::new();
                self.check_expr(st, inner, Some(&want), &mut inner_chain)?;
                self.node(
                    input,
                    st,
                    e,
                    Rule::Unary,
                    ValInfo {
                        region: None,
                        ty: out,
                    },
                    vec![inner_chain],
                    vec![],
                    chain,
                )
            }
        }
    }

    // ------------------------------------------------------ node recording

    fn leaf(
        &mut self,
        st: &TypeState,
        e: &Expr,
        rule: Rule,
        val: ValInfo,
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let idx = self.deriv.push_rule(
            rule,
            e.id,
            st.clone(),
            st.clone(),
            val.clone(),
            vec![],
            vec![],
            None,
        );
        chain.push(idx);
        Ok(val)
    }

    #[allow(clippy::too_many_arguments)]
    fn node(
        &mut self,
        input: TypeState,
        st: &TypeState,
        e: &Expr,
        rule: Rule,
        val: ValInfo,
        chains: Vec<Vec<usize>>,
        data: Vec<RegionId>,
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let idx = self.deriv.push_rule(
            rule,
            e.id,
            input,
            st.clone(),
            val.clone(),
            chains,
            data,
            None,
        );
        chain.push(idx);
        Ok(val)
    }

    // ------------------------------------------------------------ rules

    fn check_field_read(
        &mut self,
        st: &mut TypeState,
        e: &Expr,
        recv: &Expr,
        f: &Symbol,
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let input = st.clone();
        let span = e.span;
        // Resolve the receiver's type without consuming anything: iso reads
        // need a variable receiver.
        if let ExprKind::Var(x) = &recv.kind {
            let val = self.use_var(st, x, span)?;
            let fd = self.field_def(&val.ty, f, span)?;
            if fd.iso {
                if self.mode() == CheckerMode::GlobalDomination {
                    return Err(self.err(
                        format!(
                            "global-domination discipline: iso field `{x}.{f}` can only be \
                             read destructively with `take({x}.{f})`"
                        ),
                        span,
                    ));
                }
                let live = self.live_at(e);
                let mut pre = Vec::new();
                let target = self.ensure_tracked_field(st, x, f, &live, &mut pre, span)?;
                chain.extend(pre);
                if !st.heap.contains(target) {
                    return Err(self.err(
                        format!(
                            "iso field `{x}.{f}` is no longer valid (its region was \
                             consumed); reassign it first"
                        ),
                        span,
                    ));
                }
                let input = st.clone();
                return self.node(
                    input,
                    st,
                    e,
                    Rule::IsoField,
                    ValInfo {
                        region: Some(target),
                        ty: fd.ty.clone(),
                    },
                    vec![],
                    vec![target],
                    chain,
                );
            }
        }
        // Non-iso (intra-region) read; receiver may be any expression.
        let mut recv_chain = Vec::new();
        let rval = self.check_expr(st, recv, None, &mut recv_chain)?;
        let fd = self.field_def(&rval.ty, f, span)?;
        if fd.iso {
            return Err(self.err(
                format!(
                    "iso field `{f}` may only be accessed through a named variable; bind \
                     the receiver with `let` first"
                ),
                span,
            ));
        }
        let region = if fd.ty.is_reference() {
            rval.region
        } else {
            None
        };
        self.node(
            input,
            st,
            e,
            Rule::Field,
            ValInfo {
                region,
                ty: fd.ty.clone(),
            },
            vec![recv_chain],
            vec![],
            chain,
        )
    }

    fn check_take(
        &mut self,
        st: &mut TypeState,
        e: &Expr,
        recv: &Expr,
        f: &Symbol,
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let input = st.clone();
        let span = e.span;
        let ExprKind::Var(x) = &recv.kind else {
            return Err(self.err("`take` requires a variable receiver", span));
        };
        let val = self.use_var(st, x, span)?;
        let fd = self.field_def(&val.ty, f, span)?;
        if !fd.iso {
            return Err(self.err(
                format!("`take` applies only to iso fields; `{f}` is not iso"),
                span,
            ));
        }
        if !matches!(fd.ty, Type::Maybe(_)) {
            return Err(self.err(
                format!("`take` requires a maybe-typed field (to leave `none` behind); `{f}` has type {}", fd.ty),
                span,
            ));
        }
        match self.mode() {
            CheckerMode::GlobalDomination => {
                // Destructive read: the dominated subgraph moves to a fresh
                // region; the field is now none. No tracking involved.
                let fresh = st.fresh_region();
                st.heap.insert(fresh, TrackCtx::empty());
                self.node(
                    input,
                    st,
                    e,
                    Rule::Take,
                    ValInfo {
                        region: Some(fresh),
                        ty: fd.ty.clone(),
                    },
                    vec![],
                    vec![fresh],
                    chain,
                )
            }
            _ => {
                let live = self.live_at(e);
                let mut pre = Vec::new();
                let target = self.ensure_tracked_field(st, x, f, &live, &mut pre, span)?;
                chain.extend(pre);
                if !st.heap.contains(target) {
                    return Err(self.err(
                        format!("iso field `{x}.{f}` is no longer valid; reassign it first"),
                        span,
                    ));
                }
                let input = st.clone();
                // Field becomes `none`: retarget tracking at a fresh empty
                // region; the old target is the result.
                let fresh = st.fresh_region();
                st.heap.insert(fresh, TrackCtx::empty());
                let r = st.heap.tracked_in(x).expect("focused");
                st.heap
                    .tracking_mut(r)
                    .expect("held")
                    .vars
                    .get_mut(x)
                    .expect("tracked")
                    .fields
                    .insert(f.clone(), fresh);
                self.node(
                    input,
                    st,
                    e,
                    Rule::Take,
                    ValInfo {
                        region: Some(target),
                        ty: fd.ty.clone(),
                    },
                    vec![],
                    vec![target, fresh],
                    chain,
                )
            }
        }
    }

    fn check_assign_var(
        &mut self,
        st: &mut TypeState,
        e: &Expr,
        x: &Symbol,
        rhs: &Expr,
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let input = st.clone();
        let span = e.span;
        let ty = st
            .gamma
            .get(x)
            .map(|b| b.ty.clone())
            .ok_or_else(|| self.err(format!("variable `{x}` is not in scope"), span))?;
        let mut rhs_chain = Vec::new();
        let val = self.check_expr(st, rhs, Some(&ty), &mut rhs_chain)?;
        // The old binding's tracking must be discharged: a tracked variable
        // cannot be silently rebound.
        let live = self.live_at(e);
        state::discharge_var(
            &mut self.deriv,
            st,
            x,
            &live,
            &val.region.into_iter().collect(),
            &mut rhs_chain,
            span,
        )?;
        st.gamma.set_region(x, val.region);
        self.node(
            input,
            st,
            e,
            Rule::AssignVar,
            ValInfo::unit(),
            vec![rhs_chain],
            vec![],
            chain,
        )
    }

    fn check_assign_field(
        &mut self,
        st: &mut TypeState,
        e: &Expr,
        recv: &Expr,
        f: &Symbol,
        rhs: &Expr,
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let input = st.clone();
        let span = e.span;
        // Iso assignment requires a variable receiver (tracking is keyed by
        // variables).
        if let ExprKind::Var(x) = &recv.kind {
            let xval = self.use_var(st, x, span)?;
            let fd = self.field_def(&xval.ty, f, span)?;
            if fd.iso {
                return self.check_iso_assign(st, e, x, &fd, rhs, chain);
            }
        }
        let mut recv_chain = Vec::new();
        let rval = self.check_expr(st, recv, None, &mut recv_chain)?;
        let fd = self.field_def(&rval.ty, f, span)?;
        if fd.iso {
            return Err(self.err(
                format!("iso field `{f}` may only be assigned through a named variable"),
                span,
            ));
        }
        let mut rhs_chain = Vec::new();
        let val = self.check_expr(st, rhs, Some(&fd.ty), &mut rhs_chain)?;
        if fd.ty.is_reference() {
            // Intra-region reference: the value must live in the receiver's
            // region; attach to merge (V5).
            let rx = rval
                .region
                .ok_or_else(|| self.err("receiver has no region".to_string(), span))?;
            if let Some(rv) = val.region {
                if rv != rx {
                    self.vir(
                        st,
                        VirStep::Attach { from: rv, to: rx },
                        &mut rhs_chain,
                        span,
                    )?;
                }
            }
        }
        self.node(
            input,
            st,
            e,
            Rule::AssignField,
            ValInfo::unit(),
            vec![recv_chain, rhs_chain],
            vec![],
            chain,
        )
    }

    fn check_iso_assign(
        &mut self,
        st: &mut TypeState,
        e: &Expr,
        x: &Symbol,
        fd: &FieldDef,
        rhs: &Expr,
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let input = st.clone();
        let span = e.span;
        let f = &fd.name;
        if self.mode() == CheckerMode::GlobalDomination {
            // Global domination: writing an iso field consumes the RHS
            // region outright (it becomes dominated by the field).
            let mut rhs_chain = Vec::new();
            let val = self.check_expr(st, rhs, Some(&fd.ty), &mut rhs_chain)?;
            let rv = val
                .region
                .ok_or_else(|| self.err("iso field requires a reference value", span))?;
            let live = self.live_at(e);
            state::discharge_region(
                &mut self.deriv,
                st,
                rv,
                &live,
                &Protect::new(),
                &mut rhs_chain,
                span,
            )?;
            // Consuming the region invalidates all other references to it.
            st.heap.remove(rv);
            return self.node(
                input,
                st,
                e,
                Rule::IsoAssignField,
                ValInfo::unit(),
                vec![rhs_chain],
                vec![rv],
                chain,
            );
        }
        let live = self.live_at(e);
        let mut pre = Vec::new();
        // T7: x.f must be tracked (explore first if needed — the old
        // contents get a phantom region that is dropped by normalization).
        self.ensure_tracked_field(st, x, f, &live, &mut pre, span)?;
        chain.extend(pre);
        let input = st.clone();
        let mut rhs_chain = Vec::new();
        let val = self.check_expr(st, rhs, Some(&fd.ty), &mut rhs_chain)?;
        // x must remain tracked after evaluating the RHS (T7's premise).
        let Some(r) = st.heap.tracked_in(x) else {
            return Err(self.err(
                format!("evaluating the right-hand side invalidated `{x}`"),
                span,
            ));
        };
        let rv = val
            .region
            .ok_or_else(|| self.err("iso field requires a reference value", span))?;
        st.heap
            .tracking_mut(r)
            .expect("held")
            .vars
            .get_mut(x)
            .expect("tracked")
            .fields
            .insert(f.clone(), rv);
        self.node(
            input,
            st,
            e,
            Rule::IsoAssignField,
            ValInfo::unit(),
            vec![rhs_chain],
            vec![rv],
            chain,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn check_let(
        &mut self,
        st: &mut TypeState,
        e: &Expr,
        var: &Symbol,
        init: &Expr,
        body: &Expr,
        expected: Option<&Type>,
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let input = st.clone();
        let span = e.span;
        if st.gamma.contains(var) {
            return Err(self.err(
                format!("`{var}` is already bound; shadowing is not allowed"),
                span,
            ));
        }
        let mut init_chain = Vec::new();
        let ival = self.check_expr(st, init, None, &mut init_chain)?;
        st.gamma.bind(
            var.clone(),
            Binding {
                region: ival.region,
                ty: ival.ty.clone(),
            },
        );
        let mut body_chain = Vec::new();
        let bval = self.check_expr(st, body, expected, &mut body_chain)?;
        // Scope exit: the variable leaves Γ; its tracking must be
        // discharged first (weakening its region if necessary — Fig. 2's
        // pattern for returning a removed payload). Normalize first so
        // nested tracking (e.g. rotations that rebuilt a subtree) is
        // retracted in dependency order.
        let mut live = self.live_at(e);
        live.remove(var);
        let protect: Protect = bval.region.into_iter().collect();
        state::normalize(&mut self.deriv, st, &live, &protect, &mut body_chain, span)?;
        state::discharge_var(
            &mut self.deriv,
            st,
            var,
            &live,
            &protect,
            &mut body_chain,
            span,
        )?;
        st.gamma.unbind(var);
        self.node(
            input,
            st,
            e,
            Rule::Let,
            bval,
            vec![init_chain, body_chain],
            vec![],
            chain,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn check_let_some(
        &mut self,
        st: &mut TypeState,
        e: &Expr,
        var: &Symbol,
        init: &Expr,
        then_branch: &Expr,
        else_branch: &Expr,
        expected: Option<&Type>,
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let input = st.clone();
        let span = e.span;
        if st.gamma.contains(var) {
            return Err(self.err(
                format!("`{var}` is already bound; shadowing is not allowed"),
                span,
            ));
        }
        let mut init_chain = Vec::new();
        let ival = self.check_expr(st, init, None, &mut init_chain)?;
        let Type::Maybe(inner_ty) = &ival.ty else {
            return Err(self.err(
                format!("`let some` requires a maybe type, found {}", ival.ty),
                span,
            ));
        };

        // Then branch: bind the unwrapped value.
        let mut st_then = st.clone();
        st_then.gamma.bind(
            var.clone(),
            Binding {
                region: ival.region,
                ty: (**inner_ty).clone(),
            },
        );
        let mut then_chain = Vec::new();
        let mut then_val = self.check_expr(&mut st_then, then_branch, expected, &mut then_chain)?;
        let mut live = self.live_at(e);
        live.remove(var);
        let protect: Protect = then_val.region.into_iter().collect();
        state::normalize(
            &mut self.deriv,
            &mut st_then,
            &live,
            &protect,
            &mut then_chain,
            span,
        )?;
        state::discharge_var(
            &mut self.deriv,
            &mut st_then,
            var,
            &live,
            &protect,
            &mut then_chain,
            span,
        )?;
        st_then.gamma.unbind(var);

        // Else branch.
        let mut st_else = st.clone();
        st_else.next_region = st_then.next_region;
        let mut else_chain = Vec::new();
        let mut else_val = self.check_expr(&mut st_else, else_branch, expected, &mut else_chain)?;

        let (out, val) = self.join(
            e,
            st_then,
            &mut then_val,
            &mut then_chain,
            st_else,
            &mut else_val,
            &mut else_chain,
            span,
        )?;
        *st = out;
        self.node(
            input,
            st,
            e,
            Rule::LetSome,
            val,
            vec![init_chain, then_chain, else_chain],
            vec![],
            chain,
        )
    }

    fn check_seq(
        &mut self,
        st: &mut TypeState,
        e: &Expr,
        items: &[Expr],
        expected: Option<&Type>,
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let input = st.clone();
        let mut seq_chain = Vec::new();
        let mut val = ValInfo::unit();
        for (i, item) in items.iter().enumerate() {
            let exp = if i + 1 == items.len() { expected } else { None };
            val = self.check_expr(st, item, exp, &mut seq_chain)?;
        }
        self.node(input, st, e, Rule::Seq, val, vec![seq_chain], vec![], chain)
    }

    #[allow(clippy::too_many_arguments)]
    fn check_if(
        &mut self,
        st: &mut TypeState,
        e: &Expr,
        cond: &Expr,
        then_branch: &Expr,
        else_branch: &Expr,
        expected: Option<&Type>,
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let input = st.clone();
        let span = e.span;
        let mut cond_chain = Vec::new();
        self.check_expr(st, cond, Some(&Type::Bool), &mut cond_chain)?;
        let mut st_then = st.clone();
        let mut then_chain = Vec::new();
        let mut then_val = self.check_expr(&mut st_then, then_branch, expected, &mut then_chain)?;
        let mut st_else = st.clone();
        st_else.next_region = st_then.next_region;
        let mut else_chain = Vec::new();
        let mut else_val = self.check_expr(&mut st_else, else_branch, expected, &mut else_chain)?;
        let (out, val) = self.join(
            e,
            st_then,
            &mut then_val,
            &mut then_chain,
            st_else,
            &mut else_val,
            &mut else_chain,
            span,
        )?;
        *st = out;
        self.node(
            input,
            st,
            e,
            Rule::If,
            val,
            vec![cond_chain, then_chain, else_chain],
            vec![],
            chain,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn check_if_disconnected(
        &mut self,
        st: &mut TypeState,
        e: &Expr,
        a: &Symbol,
        b: &Symbol,
        then_branch: &Expr,
        else_branch: &Expr,
        expected: Option<&Type>,
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let span = e.span;
        let aval = self.use_var(st, a, span)?;
        let bval = self.use_var(st, b, span)?;
        let (Some(ra), Some(rb)) = (aval.region, bval.region) else {
            return Err(self.err("if disconnected requires reference variables", span));
        };
        if matches!(aval.ty, Type::Maybe(_)) || matches!(bval.ty, Type::Maybe(_)) {
            return Err(self.err("if disconnected requires unwrapped struct references", span));
        }
        if ra != rb {
            return Err(self.err(
                format!(
                    "if disconnected requires both roots in the same region; `{a}` is in \
                     {ra} but `{b}` is in {rb} (they are already known disjoint)"
                ),
                span,
            ));
        }
        // T15's premise: nothing tracked within the region.
        let live = self.live_at(e);
        let mut pre = Vec::new();
        state::discharge_region(
            &mut self.deriv,
            st,
            ra,
            &live,
            &Protect::new(),
            &mut pre,
            span,
        )?;
        chain.extend(pre);
        let input = st.clone();

        // Then branch: the region splits; a and b get fresh regions, all
        // other references into the old region are invalidated.
        let mut st_then = st.clone();
        st_then.heap.remove(ra);
        let fresh_a = st_then.fresh_region();
        let fresh_b = st_then.fresh_region();
        st_then.heap.insert(fresh_a, TrackCtx::empty());
        st_then.heap.insert(fresh_b, TrackCtx::empty());
        st_then.gamma.set_region(a, Some(fresh_a));
        st_then.gamma.set_region(b, Some(fresh_b));
        let mut then_chain = Vec::new();
        let mut then_val = self.check_expr(&mut st_then, then_branch, expected, &mut then_chain)?;

        // Else branch: contexts unchanged (the graphs intersect).
        let mut st_else = st.clone();
        st_else.next_region = st_then.next_region;
        let mut else_chain = Vec::new();
        let mut else_val = self.check_expr(&mut st_else, else_branch, expected, &mut else_chain)?;

        let (out, val) = self.join(
            e,
            st_then,
            &mut then_val,
            &mut then_chain,
            st_else,
            &mut else_val,
            &mut else_chain,
            span,
        )?;
        *st = out;
        self.node(
            input,
            st,
            e,
            Rule::IfDisconnected,
            val,
            vec![then_chain, else_chain],
            vec![ra, fresh_a, fresh_b],
            chain,
        )
    }

    fn check_while(
        &mut self,
        st: &mut TypeState,
        e: &Expr,
        cond: &Expr,
        body: &Expr,
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let input = st.clone();
        let span = e.span;
        // Live set for the loop: everything used inside plus everything
        // live after.
        let mut live = self.live_at(e);
        let mut collect = |ex: &Expr| {
            ex.walk(&mut |n| {
                match &n.kind {
                    ExprKind::Var(x) | ExprKind::AssignVar(x, _) => {
                        live.insert(x.clone());
                    }
                    ExprKind::IfDisconnected { a, b, .. } => {
                        live.insert(a.clone());
                        live.insert(b.clone());
                    }
                    _ => {}
                };
            })
        };
        collect(cond);
        collect(body);

        // Normalize to the loop invariant.
        let mut entry_chain = Vec::new();
        state::normalize(
            &mut self.deriv,
            st,
            &live,
            &Protect::new(),
            &mut entry_chain,
            span,
        )?;
        let invariant = st.clone();

        let mut cond_chain = Vec::new();
        self.check_expr(st, cond, Some(&Type::Bool), &mut cond_chain)?;
        let exit_state = st.clone();

        let mut body_chain = Vec::new();
        self.check_expr(st, body, None, &mut body_chain)?;
        // The body must restore the invariant.
        let mut side = Side {
            st,
            chain: &mut body_chain,
            result: None,
        };
        unify::conform_to_target(&mut self.deriv, &invariant, &mut side, &live, span)?;

        *st = exit_state;
        self.node(
            input,
            st,
            e,
            Rule::While,
            ValInfo::unit(),
            vec![entry_chain, cond_chain, body_chain],
            vec![],
            chain,
        )
    }

    fn check_new(
        &mut self,
        st: &mut TypeState,
        e: &Expr,
        name: &Symbol,
        args: &[Expr],
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let input = st.clone();
        let span = e.span;
        let sdef = self
            .globals
            .struct_def(name)
            .ok_or_else(|| self.err(format!("unknown struct `{name}`"), span))?
            .clone();
        if args.len() != sdef.fields.len() {
            return Err(self.err(
                format!(
                    "`new {name}` expects {} initializers (one per field), found {}",
                    sdef.fields.len(),
                    args.len()
                ),
                span,
            ));
        }
        let r_new = st.fresh_region();
        st.heap.insert(r_new, TrackCtx::empty());
        let saved_self = self.self_ctx.replace((r_new, name.clone()));

        let mut args_chain = Vec::new();
        let mut consumed = Vec::new();
        let result = (|| -> Result<(), TypeError> {
            for (arg, fd) in args.iter().zip(&sdef.fields) {
                let uses_self = matches!(arg.kind, ExprKind::SelfRef)
                    || matches!(&arg.kind, ExprKind::SomeOf(inner) if matches!(inner.kind, ExprKind::SelfRef));
                if uses_self && fd.iso {
                    return Err(self.err(
                        format!("`self` cannot initialize iso field `{}`", fd.name),
                        arg.span,
                    ));
                }
                // `self` is only permitted as a direct initializer.
                if !uses_self {
                    let mut forbidden = false;
                    arg.walk(&mut |n| {
                        if matches!(n.kind, ExprKind::SelfRef) {
                            forbidden = true;
                        }
                    });
                    if forbidden {
                        return Err(self.err(
                            "`self` may only appear directly (or under `some`) in a `new` \
                             initializer"
                                .to_string(),
                            arg.span,
                        ));
                    }
                }
                let val = self.check_expr(st, arg, Some(&fd.ty), &mut args_chain)?;
                if fd.iso {
                    // The initializer's region is consumed: the new object's
                    // iso field dominates it.
                    let rv = val.region.ok_or_else(|| {
                        self.err("iso field initializer must be a reference", arg.span)
                    })?;
                    if rv == r_new {
                        return Err(self.err(
                            "iso field initializer cannot already be in the new object's \
                             region"
                                .to_string(),
                            arg.span,
                        ));
                    }
                    let live = self.live_at(arg);
                    state::discharge_region(
                        &mut self.deriv,
                        st,
                        rv,
                        &live,
                        &Protect::new(),
                        &mut args_chain,
                        arg.span,
                    )?;
                    st.heap.remove(rv);
                    consumed.push(rv);
                } else if fd.ty.is_reference() {
                    if let Some(rv) = val.region {
                        if rv != r_new {
                            self.vir(
                                st,
                                VirStep::Attach {
                                    from: rv,
                                    to: r_new,
                                },
                                &mut args_chain,
                                arg.span,
                            )?;
                        }
                    }
                }
            }
            Ok(())
        })();
        self.self_ctx = saved_self;
        result?;

        let mut data = vec![r_new];
        data.extend(consumed);
        self.node(
            input,
            st,
            e,
            Rule::New,
            ValInfo {
                region: Some(r_new),
                ty: Type::Named(name.clone()),
            },
            vec![args_chain],
            data,
            chain,
        )
    }

    fn check_call(
        &mut self,
        st: &mut TypeState,
        e: &Expr,
        name: &Symbol,
        args: &[Expr],
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let input = st.clone();
        let span = e.span;
        let sig = self
            .globals
            .sig(name)
            .ok_or_else(|| self.err(format!("unknown function `{name}`"), span))?
            .clone();
        if args.len() != sig.params.len() {
            return Err(self.err(
                format!(
                    "`{name}` expects {} arguments, found {}",
                    sig.params.len(),
                    args.len()
                ),
                span,
            ));
        }
        let mut args_chain = Vec::new();
        let mut arg_vals = Vec::new();
        for (arg, ty) in args.iter().zip(&sig.param_tys) {
            let val = self.check_expr(st, arg, Some(ty), &mut args_chain)?;
            arg_vals.push(val);
        }

        // Map each parameter to its argument region.
        let arg_region = |p: &Symbol| -> Option<RegionId> {
            sig.param_index(p).and_then(|i| arg_vals[i].region)
        };

        // Input classes: arguments in a class must share a region; classes
        // must be pairwise distinct.
        let live = self.live_at(e);
        let mut class_regions: Vec<RegionId> = Vec::new();
        for class in &sig.input_classes {
            let mut regions: Vec<RegionId> = Vec::new();
            for p in class {
                let r = arg_region(p)
                    .ok_or_else(|| self.err(format!("argument for `{p}` has no region"), span))?;
                if !st.heap.contains(r) {
                    return Err(
                        self.err(format!("argument for `{p}` is in a consumed region"), span)
                    );
                }
                if !regions.contains(&r) {
                    regions.push(r);
                }
            }
            // Merge within the class (declared aliasable via `before:`).
            let rep = regions[0];
            for from in regions.into_iter().skip(1) {
                self.vir(st, VirStep::Attach { from, to: rep }, &mut args_chain, span)?;
            }
            if class_regions.contains(&rep) {
                return Err(self.err(
                    format!(
                        "arguments to `{name}` may alias: two parameters received the \
                         same region; declare `before:` if intended"
                    ),
                    span,
                ));
            }
            class_regions.push(rep);
        }

        // Discharge tracking in each unpinned argument region (framing away
        // is only possible for pinned parameters, §4.7).
        for (class, &rep) in sig.input_classes.iter().zip(&class_regions) {
            let pinned = class.iter().any(|p| sig.pinned.contains(p));
            if pinned {
                continue;
            }
            state::discharge_region(
                &mut self.deriv,
                st,
                rep,
                &live,
                &Protect::new(),
                &mut args_chain,
                span,
            )?;
        }

        // Consume regions of consumed parameters.
        let mut info = CallInfo {
            callee: Some(name.clone()),
            ..CallInfo::default()
        };
        for (class, &rep) in sig.input_classes.iter().zip(&class_regions) {
            if class.iter().any(|p| sig.consumes.contains(p)) {
                st.heap.remove(rep);
                info.consumed.push(rep);
            }
        }

        // Output classes: merge surviving parameter regions per `after:`,
        // create fresh regions for result/field-only classes, and install
        // tracked fields on argument variables.
        // Everything from here on is the T9 rule's own effect on the
        // context (not TS1 steps): the verifier replays it from the
        // signature and the call summary.
        let mut result_region: Option<RegionId> = None;
        for (ci, class) in sig.output_classes.iter().enumerate() {
            let param_regions: Vec<RegionId> = class
                .iter()
                .filter_map(|p| match p {
                    RegionPath::Param(x) => arg_region(x),
                    _ => None,
                })
                .collect();
            let class_region = if let Some(&rep) = param_regions.first() {
                // `after: p ~ q` merges the surviving argument regions.
                for &from in &param_regions[1..] {
                    if from != rep {
                        st.heap.rename_region(from, rep);
                        st.gamma.rename_region(from, rep);
                    }
                }
                rep
            } else {
                let fresh = st.fresh_region();
                st.heap.insert(fresh, TrackCtx::empty());
                info.created.push((ci, fresh));
                fresh
            };
            if class.contains(&RegionPath::Result) {
                result_region = Some(class_region);
            }
            // Tracked fields at output: the corresponding argument must be
            // a plain variable so tracking has something to hang on.
            for path in class {
                if let RegionPath::Field(p, f) = path {
                    let idx = sig.param_index(p).expect("validated");
                    let ExprKind::Var(var) = &args[idx].kind else {
                        return Err(self.err(
                            format!(
                                "`{name}` tracks `{p}.{f}` at output; pass a plain \
                                 variable for `{p}` (bind it with `let` first)"
                            ),
                            args[idx].span,
                        ));
                    };
                    let r = arg_region(p).expect("reference param");
                    st.heap
                        .tracking_mut(r)
                        .expect("held")
                        .vars
                        .entry(var.clone())
                        .or_default()
                        .fields
                        .insert(f.clone(), class_region);
                }
            }
        }

        let region = if sig.ret.is_reference() {
            Some(
                result_region
                    .ok_or_else(|| self.err("internal: missing result class".to_string(), span))?,
            )
        } else {
            None
        };
        let val = ValInfo {
            region,
            ty: sig.ret.clone(),
        };
        let idx = self.deriv.push_rule(
            Rule::Call,
            e.id,
            input,
            st.clone(),
            val.clone(),
            vec![args_chain],
            vec![],
            Some(info),
        );
        chain.push(idx);
        Ok(val)
    }

    fn check_send(
        &mut self,
        st: &mut TypeState,
        e: &Expr,
        inner: &Expr,
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let input = st.clone();
        let span = e.span;
        let mut inner_chain = Vec::new();
        let val = self.check_expr(st, inner, None, &mut inner_chain)?;
        let mut data = Vec::new();
        if let Some(r) = val.region {
            let live = self.live_at(e);
            // T16: the region's tracking context must be empty, proving
            // every iso field within dominates (§4.4).
            state::discharge_region(
                &mut self.deriv,
                st,
                r,
                &live,
                &Protect::new(),
                &mut inner_chain,
                span,
            )?;
            st.heap.remove(r);
            data.push(r);
        }
        self.node(
            input,
            st,
            e,
            Rule::Send,
            ValInfo::unit(),
            vec![inner_chain],
            data,
            chain,
        )
    }

    fn check_binary(
        &mut self,
        st: &mut TypeState,
        e: &Expr,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        chain: &mut Vec<usize>,
    ) -> Result<ValInfo, TypeError> {
        let input = st.clone();
        let mut inner_chain = Vec::new();
        let (operand, out) = if op.is_logical() {
            (Some(Type::Bool), Type::Bool)
        } else if op.is_comparison() {
            (None, Type::Bool)
        } else {
            (Some(Type::Int), Type::Int)
        };
        let lval = self.check_expr(st, lhs, operand.as_ref(), &mut inner_chain)?;
        let rval = self.check_expr(st, rhs, operand.as_ref(), &mut inner_chain)?;
        if op.is_comparison() {
            let ok = matches!(
                (&lval.ty, &rval.ty),
                (Type::Int, Type::Int) | (Type::Bool, Type::Bool)
            );
            let eq_only = matches!(op, BinOp::Eq | BinOp::Ne);
            if !ok || (matches!(lval.ty, Type::Bool) && !eq_only) {
                return Err(self.err(
                    format!(
                        "operator `{}` cannot compare {} and {}",
                        op.as_str(),
                        lval.ty,
                        rval.ty
                    ),
                    e.span,
                ));
            }
        }
        self.node(
            input,
            st,
            e,
            Rule::Binary,
            ValInfo {
                region: None,
                ty: out,
            },
            vec![inner_chain],
            vec![],
            chain,
        )
    }

    // ------------------------------------------------------------- joins

    /// Unifies two branch outcomes (liveness oracle first, bounded search
    /// as fallback per §4.6).
    #[allow(clippy::too_many_arguments)]
    fn join(
        &mut self,
        e: &Expr,
        mut st_a: TypeState,
        val_a: &mut ValInfo,
        chain_a: &mut Vec<usize>,
        mut st_b: TypeState,
        val_b: &mut ValInfo,
        chain_b: &mut Vec<usize>,
        span: Span,
    ) -> Result<(TypeState, ValInfo), TypeError> {
        if val_a.ty != val_b.ty {
            return Err(self.err(
                format!(
                    "branches have different types: {} vs {}",
                    val_a.ty, val_b.ty
                ),
                span,
            ));
        }
        let live = self.live_at(e);
        let orig_a = st_a.clone();
        let orig_b = st_b.clone();

        if self.opts.liveness_oracle {
            self.counters.oracle_queries += 1;
            let attempt = {
                let mut a = Side {
                    st: &mut st_a,
                    chain: chain_a,
                    result: val_a.region,
                };
                let mut b = Side {
                    st: &mut st_b,
                    chain: chain_b,
                    result: val_b.region,
                };
                let res = unify::unify_sides(&mut self.deriv, &mut a, &mut b, &live, span);
                res.map(|r| (r, a.result, b.result))
            };
            match attempt {
                Ok((region, res_a, _res_b)) => {
                    self.counters.oracle_hits += 1;
                    val_a.region = res_a.or(region);
                    let out_val = ValInfo {
                        region: region.or(res_a),
                        ty: val_a.ty.clone(),
                    };
                    return Ok((st_a, out_val));
                }
                Err(oracle_err) => {
                    // Fall through to search with the original states.
                    st_a = orig_a.clone();
                    st_b = orig_b.clone();
                    if self.opts.search_node_budget == 0 {
                        return Err(oracle_err);
                    }
                }
            }
        }
        self.join_by_search(e, st_a, val_a, chain_a, st_b, val_b, chain_b, span)
    }

    #[allow(clippy::too_many_arguments)]
    fn join_by_search(
        &mut self,
        e: &Expr,
        mut st_a: TypeState,
        val_a: &mut ValInfo,
        chain_a: &mut Vec<usize>,
        mut st_b: TypeState,
        val_b: &mut ValInfo,
        chain_b: &mut Vec<usize>,
        span: Span,
    ) -> Result<(TypeState, ValInfo), TypeError> {
        let result_sym = Symbol::new("#result");
        let orig_a = st_a.clone();
        let orig_b = st_b.clone();
        // Encode the result as a pseudo-variable so the search preserves it.
        if let Some(r) = val_a.region {
            st_a.gamma.bind(
                result_sym.clone(),
                Binding {
                    region: Some(r),
                    ty: val_a.ty.clone(),
                },
            );
        }
        if let Some(r) = val_b.region {
            st_b.gamma.bind(
                result_sym.clone(),
                Binding {
                    region: Some(r),
                    ty: val_b.ty.clone(),
                },
            );
        }
        self.counters.joins_fallback += 1;
        self.counters.search_runs += 1;
        let (found, stats) = search::find_common_stats(
            self.globals,
            &st_a,
            &st_b,
            self.opts.search_node_budget,
            &search::SearchHints::default(),
        );
        self.counters.search.absorb(&stats);
        self.deriv.search_nodes += stats.nodes as usize;
        let found = found.ok_or_else(|| {
            self.err(
                format!(
                    "cannot unify branch contexts (search budget exhausted after {} \
                     states):\n  then: {}\n  else: {}",
                    self.opts.search_node_budget, st_a, st_b
                ),
                span,
            )
        })?;
        let _ = e;
        // The search ran over states extended with the #result
        // pseudo-binding (so it preserves the result region), but the
        // *recorded* derivation applies the found steps to the real states:
        // none of the generated moves mention the pseudo-variable.
        for step in &found.steps_a {
            vir::apply(&mut st_a, step).map_err(|m| self.err(m, span))?;
        }
        for step in &found.steps_b {
            vir::apply(&mut st_b, step).map_err(|m| self.err(m, span))?;
        }
        let region_a = st_a
            .gamma
            .get(&result_sym)
            .and_then(|b| b.region)
            .filter(|r| st_a.heap.contains(*r));
        st_a.gamma.unbind(&result_sym);
        st_b.gamma.unbind(&result_sym);
        // Re-apply to the stripped clones, recording the derivation.
        st_a = orig_a;
        st_b = orig_b;
        for step in found.steps_a {
            state::record_vir(&mut self.deriv, &mut st_a, step, chain_a, span)?;
        }
        for step in found.steps_b {
            state::record_vir(&mut self.deriv, &mut st_b, step, chain_b, span)?;
        }
        if !found.rename_b.is_empty() {
            state::scrub_dangling(&mut self.deriv, &mut st_b, chain_b, span)?;
            state::record_vir(
                &mut self.deriv,
                &mut st_b,
                VirStep::Rename {
                    pairs: found.rename_b,
                },
                chain_b,
                span,
            )?;
        }
        st_a.next_region = st_a.next_region.max(st_b.next_region);
        st_b.next_region = st_a.next_region;
        if !unify::congruent(&st_a, &st_b) {
            return Err(self.err(
                format!(
                    "branch contexts do not unify after search:\n  then: {st_a}\n  else: {st_b}"
                ),
                span,
            ));
        }
        val_a.region = region_a;
        val_b.region = region_a;
        let val = ValInfo {
            region: region_a,
            ty: val_a.ty.clone(),
        };
        Ok((st_a, val))
    }

    // --------------------------------------------------------- exit check

    /// Verifies the function's final context against its declared output
    /// (T0's conclusion): parameters back in their regions with the
    /// annotated tracking, result in its own (or related) region,
    /// everything else discharged.
    fn check_exit(
        &mut self,
        st: &mut TypeState,
        val: &mut ValInfo,
        param_regions: &[Option<RegionId>],
        chain: &mut Vec<usize>,
        span: Span,
    ) -> Result<(), TypeError> {
        let sig = self.sig;
        let live: LiveSet = sig
            .params
            .iter()
            .filter(|p| !sig.consumes.contains(*p))
            .cloned()
            .collect();
        let protect: Protect = val.region.into_iter().collect();
        state::normalize(&mut self.deriv, st, &live, &protect, chain, span)?;

        // 1. Ensure all annotated tracked fields exist.
        for class in &sig.output_classes {
            for path in class {
                if let RegionPath::Field(p, f) = path {
                    let target = self.ensure_tracked_field(st, p, f, &live, chain, span)?;
                    if !st.heap.contains(target) {
                        return Err(self.err(
                            format!(
                                "`{p}.{f}` was invalidated and must be reassigned before \
                                 returning (the signature says it survives)"
                            ),
                            span,
                        ));
                    }
                }
            }
        }

        // 2. Retract any tracked fields not in the signature.
        let required: BTreeSet<(Symbol, Symbol)> = sig
            .output_classes
            .iter()
            .flatten()
            .filter_map(|p| match p {
                RegionPath::Field(q, f) => Some((q.clone(), f.clone())),
                _ => None,
            })
            .collect();
        let extra: Vec<(RegionId, Symbol, Symbol, RegionId)> = st
            .heap
            .iter()
            .flat_map(|(r, ctx)| {
                ctx.vars.iter().flat_map(move |(x, vt)| {
                    vt.fields
                        .iter()
                        .map(move |(f, t)| (r, x.clone(), f.clone(), *t))
                })
            })
            .filter(|(_, x, f, _)| !required.contains(&(x.clone(), f.clone())))
            .collect();
        for (r, x, f, target) in extra {
            let retractable = st
                .heap
                .tracking(target)
                .map(|t| t.is_empty() && !t.pinned)
                .unwrap_or(false)
                && Some(target) != val.region;
            if !retractable {
                return Err(self.err(
                    format!(
                        "`{x}.{f}` is still tracked at function exit; either restore \
                         domination or annotate the signature (e.g. `after: {x}.{f} ~ …`)"
                    ),
                    span,
                ));
            }
            self.vir(st, VirStep::Retract { r, x, f, target }, chain, span)?;
        }
        state::normalize(&mut self.deriv, st, &live, &protect, chain, span)?;

        // 3. Merge output classes and check parameter regions.
        let mut class_regions: Vec<RegionId> = Vec::new();
        for class in &sig.output_classes {
            let mut regions: Vec<RegionId> = Vec::new();
            for path in class {
                let r = match path {
                    RegionPath::Param(p) => {
                        let r = st.gamma.get(p).and_then(|b| b.region).ok_or_else(|| {
                            self.err(format!("parameter `{p}` lost its region"), span)
                        })?;
                        if !st.heap.contains(r) {
                            return Err(self.err(
                                format!(
                                    "parameter `{p}`'s region was consumed but `{p}` is \
                                     not declared `consumes`"
                                ),
                                span,
                            ));
                        }
                        r
                    }
                    RegionPath::Result => val
                        .region
                        .ok_or_else(|| self.err("missing result region".to_string(), span))?,
                    RegionPath::Field(p, f) => st
                        .heap
                        .tracked_field(p, f)
                        .ok_or_else(|| self.err(format!("`{p}.{f}` untracked"), span))?,
                };
                if !regions.contains(&r) {
                    regions.push(r);
                }
            }
            let rep = regions[0];
            for from in regions.into_iter().skip(1) {
                self.vir(st, VirStep::Attach { from, to: rep }, chain, span)?;
                if val.region == Some(from) {
                    val.region = Some(rep);
                }
            }
            if class_regions.contains(&rep) {
                return Err(self.err(
                    "two declared-distinct output regions ended up merged; add an \
                     `after:` relation if intended"
                        .to_string(),
                    span,
                ));
            }
            class_regions.push(rep);
        }

        // 4. Consumed parameters must not retain a private region.
        for p in &sig.consumes {
            if let Some(r) = st.gamma.get(p).and_then(|b| b.region) {
                if st.heap.contains(r) && !class_regions.contains(&r) {
                    self.vir(st, VirStep::Weaken { r }, chain, span)?;
                }
            }
        }

        // 5. Anything else held must be discharged.
        let leftovers: Vec<RegionId> = st
            .heap
            .iter()
            .map(|(r, _)| r)
            .filter(|r| !class_regions.contains(r))
            .collect();
        for r in leftovers {
            // A live parameter in a leftover region means the body moved it
            // without an annotation.
            if let Some((p, _)) = st
                .gamma
                .iter()
                .find(|(p, b)| b.region == Some(r) && live.contains(*p))
            {
                return Err(self.err(
                    format!(
                        "parameter `{p}` ended in an undeclared region; it must return \
                         to its own region (or be annotated)"
                    ),
                    span,
                ));
            }
            self.vir(st, VirStep::Weaken { r }, chain, span)?;
        }

        // 6. Final shape verification.
        for (ci, _class) in sig.output_classes.iter().enumerate() {
            let rep = class_regions[ci];
            let ctx = st
                .heap
                .tracking(rep)
                .ok_or_else(|| self.err("internal: class region missing".to_string(), span))?;
            for (x, vt) in &ctx.vars {
                for f in vt.fields.keys() {
                    if !required.contains(&(x.clone(), f.clone())) {
                        return Err(
                            self.err(format!("`{x}.{f}` unexpectedly tracked at exit"), span)
                        );
                    }
                }
            }
        }
        // Parameters must sit in their declared classes; unrelated
        // parameters must not share regions.
        for (i, p) in sig.params.iter().enumerate() {
            if sig.consumes.contains(p) || param_regions[i].is_none() {
                continue;
            }
            let r = st.gamma.get(p).and_then(|b| b.region);
            let class = sig
                .output_class_of(&RegionPath::Param(p.clone()))
                .map(|ci| class_regions[ci]);
            if r != class {
                return Err(self.err(
                    format!("parameter `{p}` is not in its declared output region"),
                    span,
                ));
            }
        }
        Ok(())
    }
}
