//! Liveness analysis of variables, used as the unification oracle (§5.1).
//!
//! Unification of branch contexts is "the problem of inferring which linear
//! resources must be preserved to typecheck a given program suffix"; the
//! paper's checker employs liveness analysis of variables (and thereby of
//! the regions and tracked fields they inhabit) as the oracle that avoids
//! backtracking search in the common case.
//!
//! Sets are bitsets over one sorted table of the body's variables, so a
//! bit's order is the variables' string order. The live-after set of every
//! expression is one row of a flat vector, at the offset of the
//! expression's id from the body's lowest id; a [`LiveSet`] is built only
//! when [`Liveness::live_after`] is asked for one.

use std::collections::BTreeSet;

use fearless_syntax::{Expr, ExprId, ExprKind, Symbol};

use crate::state::LiveSet;

/// Per-expression liveness facts for one function body.
#[derive(Debug, Clone, Default)]
pub struct Liveness {
    /// The body's variables and the always-live ones, sorted and distinct:
    /// bit `i` of a set stands for `vars[i]`.
    vars: Vec<Symbol>,
    /// The lowest expression id in the body.
    base: u32,
    /// 64-bit words per set.
    words: usize,
    /// The live-after set of the expression with id `base + k` at
    /// `rows[k * words..(k + 1) * words]`; ids the body lacks keep an
    /// empty row.
    rows: Vec<u64>,
}

impl Liveness {
    /// Computes liveness for `body`. `always_live` (typically the
    /// function's non-consumed parameters, which must be intact at exit)
    /// are treated as live at every point.
    pub fn analyze(body: &Expr, always_live: &BTreeSet<Symbol>) -> Liveness {
        let mut names: Vec<&Symbol> = always_live.iter().collect();
        let (mut lo, mut hi) = (body.id.0, body.id.0);
        body.walk(&mut |e| {
            lo = lo.min(e.id.0);
            hi = hi.max(e.id.0);
            match &e.kind {
                ExprKind::Var(x) | ExprKind::AssignVar(x, _) => names.push(x),
                ExprKind::Let { var, .. } | ExprKind::LetSome { var, .. } => names.push(var),
                ExprKind::IfDisconnected { a, b, .. } => names.extend([a, b]),
                _ => {}
            }
        });
        names.sort_unstable();
        names.dedup();
        let words = names.len().div_ceil(64);
        let mut lv = Liveness {
            vars: names.into_iter().cloned().collect(),
            base: lo,
            words,
            rows: vec![0; (hi - lo) as usize * words + words],
        };
        let mut cur = vec![0; words];
        for x in always_live {
            lv.insert(&mut cur, x);
        }
        lv.visit(body, &mut cur);
        lv
    }

    /// The set of variables live immediately after expression `id`
    /// (empty if unknown).
    pub fn live_after(&self, id: ExprId) -> LiveSet {
        let Some(row) = self.row(id) else {
            return LiveSet::new();
        };
        let mut live = Vec::new();
        for (w, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                live.push(self.vars[w * 64 + bits.trailing_zeros() as usize].clone());
                bits &= bits - 1;
            }
        }
        // The table is sorted, so this is already in set order.
        live.into_iter().collect()
    }

    /// Whether `x` is live after expression `id`.
    pub fn is_live_after(&self, id: ExprId, x: &Symbol) -> bool {
        match (self.row(id), self.vars.binary_search(x)) {
            (Some(row), Ok(i)) => row[i / 64] >> (i % 64) & 1 == 1,
            _ => false,
        }
    }

    /// The live-after row of `id`, if `id` is in the body's id range.
    fn row(&self, id: ExprId) -> Option<&[u64]> {
        let k = id.0.checked_sub(self.base)? as usize;
        self.rows.get(k * self.words..(k + 1) * self.words)
    }

    fn bit(&self, x: &Symbol) -> usize {
        self.vars
            .binary_search(x)
            .expect("every variable of the body is in the table")
    }

    fn insert(&self, set: &mut [u64], x: &Symbol) {
        let i = self.bit(x);
        set[i / 64] |= 1 << (i % 64);
    }

    fn remove(&self, set: &mut [u64], x: &Symbol) {
        let i = self.bit(x);
        set[i / 64] &= !(1 << (i % 64));
    }

    fn record(&mut self, id: ExprId, set: &[u64]) {
        let k = (id.0 - self.base) as usize;
        self.rows[k * self.words..(k + 1) * self.words].copy_from_slice(set);
    }

    /// Turns `live`, the live-after set of `e`, into its live-before set,
    /// recording the live-after set for `e.id` (and for every node below).
    fn visit(&mut self, e: &Expr, live: &mut [u64]) {
        self.record(e.id, live);
        match &e.kind {
            ExprKind::Unit
            | ExprKind::Int(_)
            | ExprKind::Bool(_)
            | ExprKind::SelfRef
            | ExprKind::NoneOf
            | ExprKind::Recv(_) => {}
            ExprKind::Var(x) => self.insert(live, x),
            ExprKind::Field(recv, _) | ExprKind::Take(recv, _) => self.visit(recv, live),
            ExprKind::AssignVar(x, rhs) => {
                self.remove(live, x);
                self.visit(rhs, live);
            }
            ExprKind::AssignField(recv, _, rhs) => {
                self.visit(rhs, live);
                self.visit(recv, live);
            }
            ExprKind::Let { var, init, body } => {
                self.visit(body, live);
                self.remove(live, var);
                self.visit(init, live);
            }
            ExprKind::LetSome {
                var,
                init,
                then_branch,
                else_branch,
            } => {
                let mut else_live = live.to_vec();
                self.visit(then_branch, live);
                self.remove(live, var);
                self.visit(else_branch, &mut else_live);
                union(live, &else_live);
                self.visit(init, live);
            }
            ExprKind::Seq(items) => {
                for item in items.iter().rev() {
                    self.visit(item, live);
                }
            }
            ExprKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let mut else_live = live.to_vec();
                self.visit(then_branch, live);
                self.visit(else_branch, &mut else_live);
                union(live, &else_live);
                self.visit(cond, live);
            }
            ExprKind::IfDisconnected {
                a,
                b,
                then_branch,
                else_branch,
            } => {
                let mut else_live = live.to_vec();
                self.visit(then_branch, live);
                self.visit(else_branch, &mut else_live);
                union(live, &else_live);
                self.insert(live, a);
                self.insert(live, b);
            }
            ExprKind::While { cond, body } => {
                // Fixpoint: live-before(loop) = live(cond, after ∪ live(body, X)).
                let after = live.to_vec();
                let mut x = vec![0; self.words];
                let mut body_live = vec![0; self.words];
                loop {
                    body_live.copy_from_slice(&x);
                    self.visit(body, &mut body_live);
                    live.copy_from_slice(&after);
                    union(live, &body_live);
                    self.visit(cond, live);
                    if *live == *x {
                        // Re-record the loop node's own after set (the
                        // visits above overwrote children only).
                        self.record(e.id, &after);
                        return;
                    }
                    x.copy_from_slice(live);
                }
            }
            ExprKind::New(_, args) | ExprKind::Call(_, args) => {
                for a in args.iter().rev() {
                    self.visit(a, live);
                }
            }
            ExprKind::SomeOf(inner)
            | ExprKind::IsNone(inner)
            | ExprKind::IsSome(inner)
            | ExprKind::Send(inner)
            | ExprKind::Unary(_, inner) => self.visit(inner, live),
            ExprKind::Binary(_, lhs, rhs) => {
                self.visit(rhs, live);
                self.visit(lhs, live);
            }
        }
    }
}

/// `into ∪= other`.
fn union(into: &mut [u64], other: &[u64]) {
    for (a, b) in into.iter_mut().zip(other) {
        *a |= b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fearless_syntax::parse_expr;

    fn set(names: &[&str]) -> BTreeSet<Symbol> {
        names.iter().map(Symbol::new).collect()
    }

    fn find(e: &Expr, pred: &dyn Fn(&Expr) -> bool) -> Expr {
        let mut result: Option<Expr> = None;
        e.walk(&mut |n| {
            if result.is_none() && pred(n) {
                result = Some(n.clone());
            }
        });
        result.expect("no matching node")
    }

    #[test]
    fn variable_dead_after_last_use() {
        let e = parse_expr("{ let x = 1; let y = x + 1; y }").unwrap();
        let lv = Liveness::analyze(&e, &BTreeSet::new());
        // After the `x + 1` initializer, x is dead, y is not yet defined.
        let init = find(&e, &|n| {
            matches!(&n.kind, ExprKind::Binary(fearless_syntax::BinOp::Add, _, _))
        });
        assert!(!lv.is_live_after(init.id, &Symbol::new("x")));
    }

    #[test]
    fn loop_keeps_variables_live() {
        let e = parse_expr(
            "{ let n = 10; let acc = 0; while (n > 0) { acc = acc + n; n = n - 1 }; acc }",
        )
        .unwrap();
        let lv = Liveness::analyze(&e, &BTreeSet::new());
        // Inside the loop body, after `acc = acc + n`, both acc (used by
        // next iteration / result) and n (decrement + cond) are live.
        let assign = find(
            &e,
            &|n| matches!(&n.kind, ExprKind::AssignVar(x, _) if x.as_str() == "acc"),
        );
        let live = lv.live_after(assign.id);
        assert!(live.contains("acc"), "{live:?}");
        assert!(live.contains("n"), "{live:?}");
    }

    #[test]
    fn always_live_parameters_stay_live() {
        let e = parse_expr("{ 1 }").unwrap();
        let lv = Liveness::analyze(&e, &set(&["p"]));
        assert!(lv.is_live_after(e.id, &Symbol::new("p")));
    }

    #[test]
    fn branches_merge() {
        let e = parse_expr("{ let a = 1; let b = 2; if (true) { a } else { b } }").unwrap();
        let lv = Liveness::analyze(&e, &BTreeSet::new());
        let cond = find(&e, &|n| matches!(&n.kind, ExprKind::Bool(true)));
        let live = lv.live_after(cond.id);
        assert!(live.contains("a"));
        assert!(live.contains("b"));
    }

    #[test]
    fn if_disconnected_roots_live_before() {
        let e = parse_expr("{ let t = x; if disconnected(t, h) { 1 } else { 2 } }").unwrap();
        let lv = Liveness::analyze(&e, &BTreeSet::new());
        // After the whole if-disconnected nothing is live.
        let disc = find(&e, &|n| matches!(&n.kind, ExprKind::IfDisconnected { .. }));
        assert!(lv.live_after(disc.id).is_empty());
    }

    #[test]
    fn assignment_kills() {
        let e = parse_expr("{ let x = 1; x = 2; x }").unwrap();
        let lv = Liveness::analyze(&e, &BTreeSet::new());
        // After `let x = 1`'s initializer (the literal 1), x is NOT live
        // because it is reassigned before use.
        let one = find(&e, &|n| matches!(&n.kind, ExprKind::Int(1)));
        assert!(!lv.is_live_after(one.id, &Symbol::new("x")));
    }
}
