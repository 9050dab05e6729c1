//! The bitset liveness analysis against a reference: the straightforward
//! `BTreeSet` formulation it replaced, which stores one set per expression
//! id. For every expression of every checked body, both must give the same
//! live-after set and the same `is_live_after` answer for every variable.

use std::collections::{BTreeSet, HashMap};

use fearless_core::liveness::Liveness;
use fearless_syntax::{parse_expr, parse_program, Expr, ExprId, ExprKind, FnDef, Symbol};

/// The reference analysis: one `BTreeSet` per expression id, the last
/// recorded one winning for a repeated id.
#[derive(Default)]
struct Reference {
    live_after: HashMap<ExprId, BTreeSet<Symbol>>,
}

impl Reference {
    fn analyze(body: &Expr, always_live: &BTreeSet<Symbol>) -> Self {
        let mut r = Reference::default();
        r.visit(body, always_live);
        r
    }

    fn live_after(&self, id: ExprId) -> BTreeSet<Symbol> {
        self.live_after.get(&id).cloned().unwrap_or_default()
    }

    fn visit(&mut self, e: &Expr, after: &BTreeSet<Symbol>) -> BTreeSet<Symbol> {
        self.live_after.insert(e.id, after.clone());
        match &e.kind {
            ExprKind::Unit
            | ExprKind::Int(_)
            | ExprKind::Bool(_)
            | ExprKind::SelfRef
            | ExprKind::NoneOf
            | ExprKind::Recv(_) => after.clone(),
            ExprKind::Var(x) => {
                let mut s = after.clone();
                s.insert(x.clone());
                s
            }
            ExprKind::Field(recv, _) | ExprKind::Take(recv, _) => self.visit(recv, after),
            ExprKind::AssignVar(x, rhs) => {
                let mut killed = after.clone();
                killed.remove(x);
                self.visit(rhs, &killed)
            }
            ExprKind::AssignField(recv, _, rhs) => {
                let mid = self.visit(rhs, after);
                self.visit(recv, &mid)
            }
            ExprKind::Let { var, init, body } => {
                let mut body_before = self.visit(body, after);
                body_before.remove(var);
                self.visit(init, &body_before)
            }
            ExprKind::LetSome {
                var,
                init,
                then_branch,
                else_branch,
            } => {
                let mut then_before = self.visit(then_branch, after);
                then_before.remove(var);
                let else_before = self.visit(else_branch, after);
                then_before.extend(else_before);
                self.visit(init, &then_before)
            }
            ExprKind::Seq(items) => {
                let mut cur = after.clone();
                for item in items.iter().rev() {
                    cur = self.visit(item, &cur);
                }
                cur
            }
            ExprKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let mut merged = self.visit(then_branch, after);
                merged.extend(self.visit(else_branch, after));
                self.visit(cond, &merged)
            }
            ExprKind::IfDisconnected {
                a,
                b,
                then_branch,
                else_branch,
            } => {
                let mut merged = self.visit(then_branch, after);
                merged.extend(self.visit(else_branch, after));
                merged.insert(a.clone());
                merged.insert(b.clone());
                merged
            }
            ExprKind::While { cond, body } => {
                let mut x = BTreeSet::new();
                loop {
                    let body_before = self.visit(body, &x);
                    let mut cond_after = after.clone();
                    cond_after.extend(body_before);
                    let next = self.visit(cond, &cond_after);
                    if next == x {
                        self.live_after.insert(e.id, after.clone());
                        return next;
                    }
                    x = next;
                }
            }
            ExprKind::New(_, args) | ExprKind::Call(_, args) => {
                let mut cur = after.clone();
                for a in args.iter().rev() {
                    cur = self.visit(a, &cur);
                }
                cur
            }
            ExprKind::SomeOf(inner)
            | ExprKind::IsNone(inner)
            | ExprKind::IsSome(inner)
            | ExprKind::Send(inner)
            | ExprKind::Unary(_, inner) => self.visit(inner, after),
            ExprKind::Binary(_, lhs, rhs) => {
                let mid = self.visit(rhs, after);
                self.visit(lhs, &mid)
            }
        }
    }
}

/// Compares both analyses on `body` at every expression id, at the ids
/// just outside the body's range, and for every variable either names.
/// Returns the number of ids compared.
fn assert_agree(label: &str, body: &Expr, always_live: &BTreeSet<Symbol>) -> usize {
    let reference = Reference::analyze(body, always_live);
    let bits = Liveness::analyze(body, always_live);
    let mut ids = BTreeSet::new();
    body.walk(&mut |e| {
        ids.insert(e.id.0);
    });
    let (lo, hi) = (*ids.first().unwrap(), *ids.last().unwrap());
    let mut probe: Vec<u32> = ids.iter().copied().collect();
    probe.extend([lo.wrapping_sub(1), hi + 1, hi + 1000]);
    let vars: BTreeSet<Symbol> = reference.live_after.values().flatten().cloned().collect();
    let absent = Symbol::new("__absent__");
    for id in probe.into_iter().map(ExprId) {
        let want = reference.live_after(id);
        assert_eq!(
            bits.live_after(id),
            want,
            "`{label}`: live-after sets differ at {id}"
        );
        for x in vars.iter().chain([&absent]) {
            assert_eq!(
                bits.is_live_after(id, x),
                want.contains(x),
                "`{label}`: is_live_after({id}, {x}) differs"
            );
        }
    }
    ids.len()
}

/// The checker's always-live set: the parameters the function does not
/// consume.
fn always_live(f: &FnDef) -> BTreeSet<Symbol> {
    f.params
        .iter()
        .map(|p| p.name.clone())
        .filter(|p| !f.annotations.consumes.contains(p))
        .collect()
}

fn assert_program_agrees(label: &str, src: &str) -> usize {
    let program = parse_program(src).unwrap_or_else(|e| panic!("`{label}`: {e}"));
    program
        .funcs
        .iter()
        .map(|f| assert_agree(&format!("{label}::{}", f.name), &f.body, &always_live(f)))
        .sum()
}

#[test]
fn bitsets_match_the_reference_on_every_corpus_entry() {
    let mut ids = 0;
    for entry in fearless_corpus::all_entries() {
        ids += assert_program_agrees(entry.name, &entry.source);
    }
    assert!(ids > 1000, "only {ids} expressions compared");
}

#[test]
fn bitsets_match_the_reference_on_synth_seeds_7_and_42() {
    for (seed, functions) in [(7, 100), (42, 1000)] {
        let src = fearless_synth::synthesize(&fearless_synth::SynthOptions {
            seed,
            functions,
            ..fearless_synth::SynthOptions::default()
        });
        assert_program_agrees(&format!("synth seed {seed}"), &src);
    }
}

/// A body over `vars` variables (`v0`…, so bit order is not numeric
/// order) with nested `while` loops, branches and reassignments picked by
/// a fixed linear congruential sequence.
fn generated_body(vars: usize, statements: usize) -> String {
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = |n: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % n
    };
    let mut src = String::from("{ ");
    for i in 0..vars {
        src.push_str(&format!("let v{i} = {i}; "));
    }
    for _ in 0..statements {
        let (a, b, c) = (next(vars), next(vars), next(vars));
        let stmt = match next(4) {
            0 => format!("v{a} = v{b} + v{c}; "),
            1 => format!("if (v{a} > v{b}) {{ v{c} = v{a} }} else {{ v{b} = v{c} }}; "),
            2 => format!(
                "while (v{a} > 0) {{ v{a} = v{b} - 1; while (v{c} > v{b}) {{ v{c} = v{a} }}; v{b} = v{c} }}; "
            ),
            _ => format!("while (v{a} > v{b}) {{ v{b} = v{c}; v{c} = v{a} - 1 }}; "),
        };
        src.push_str(&stmt);
    }
    let tail: Vec<String> = (0..vars).step_by(7).map(|i| format!("v{i}")).collect();
    src.push_str(&tail.join(" + "));
    src.push_str(" }");
    src
}

#[test]
fn bitsets_match_the_reference_beyond_one_word() {
    for vars in [63, 64, 65, 130] {
        let body = parse_expr(&generated_body(vars, 60)).unwrap();
        let params: BTreeSet<Symbol> = [Symbol::new("p"), Symbol::new("v5")].into();
        assert_agree(&format!("{vars} variables"), &body, &params);
        assert_agree(
            &format!("{vars} variables, none always live"),
            &body,
            &BTreeSet::new(),
        );
    }
}
