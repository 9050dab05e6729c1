//! Stable content fingerprints for per-function check caching.
//!
//! The checker is signature-modular (§4.4): a function body is checked
//! against its own elaborated signature, the signatures of the functions
//! it calls, and the struct declarations reachable from the types in
//! scope — nothing else. A [`Fingerprint`] is a 128-bit FNV-1a hash over
//! exactly that dependency set, so two programs assign a function the
//! same fingerprint **iff** every input `check_fn` consults is
//! identical:
//!
//! * the checker options (mode, oracle, search budget),
//! * the function definition itself (annotations and body), hashed by
//!   an allocation-free walk of the AST that skips spans and `ExprId`s,
//!   so formatting and source position do not perturb the hash,
//! * the elaborated signature of every callee, in sorted order, and
//! * every reachable struct declaration — those named in the function's
//!   parameter/result types, in its body (`new`, `recv`), or in a callee
//!   signature, closed transitively over field types.
//!
//! Callee signatures enter as 128-bit digests, and structs as the digest
//! of each directly named struct's field closure. [`Globals`] memoizes
//! both per entry, so fingerprinting a whole program digests each
//! signature and each struct at most once.
//!
//! The byte stream is fixed by this module, not by `derive(Hash)`: every
//! variant writes its own tag, every string and sequence is
//! length-prefixed, and integers are little-endian, so fingerprints are
//! stable across platforms, runs and compiler versions — the on-disk
//! stores depend on it.
//!
//! This is the key of the one check-outcome store, `fearless-incr`'s
//! check table, which serves `fearlessc check --cache` and the daemon,
//! and of the FA002 lint's verdict memo: equal fingerprints →
//! byte-identical check outcomes, different fingerprints → conservative
//! re-check. The FA002 lint also inverts [`fn_deps`], the dependency set
//! the hash covers, to find the functions an annotation deletion can
//! reach.

use std::collections::BTreeSet;
use std::fmt;

use fearless_syntax::{
    Expr, ExprKind, FnDef, RegionPath, RegionRel, StructDef, Symbol, Type, UnOp,
};

use crate::env::{FnSig, Globals};
use crate::mode::CheckerOptions;

/// A 128-bit content hash identifying one function's full check input.
///
/// Displayed (and persisted) as 32 lowercase hex digits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// The raw 128-bit value.
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// The 32-hex-digit rendering used as the on-disk cache key.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the [`Fingerprint::to_hex`] rendering back.
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental 128-bit FNV-1a hasher (dependency-free, stable across
/// platforms and runs — the on-disk cache format depends on it).
struct Fnv(u128);

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Writes a variant tag.
    fn tag(&mut self, tag: u8) {
        self.write(&[tag]);
    }

    /// Writes an integer (little-endian, so the stream is the same on
    /// every platform).
    fn u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    /// Writes a sequence length (prefixing prevents ambiguity between
    /// adjacent components) as an unsigned LEB128 varint, least
    /// significant group first: one byte for any length below 128.
    fn len(&mut self, n: usize) {
        let mut n = n as u64;
        while n >= 0x80 {
            self.tag((n as u8) | 0x80);
            n >>= 7;
        }
        self.tag(n as u8);
    }

    /// Writes a length-prefixed string.
    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.write(s.as_bytes());
    }

    /// Writes a length-prefixed list of names.
    fn syms<'a>(&mut self, syms: impl ExactSizeIterator<Item = &'a Symbol>) {
        self.len(syms.len());
        for s in syms {
            self.str(s.as_str());
        }
    }

    /// Writes a dependency: its memoized digest (which covers the name),
    /// or, for a name the environment does not define, the name behind an
    /// absence marker (so that *adding* it also invalidates).
    fn entry(&mut self, name: &Symbol, digest: Option<u128>) {
        match digest {
            Some(d) => {
                self.tag(1);
                self.write(&d.to_le_bytes());
            }
            None => {
                self.tag(0);
                self.str(name.as_str());
            }
        }
    }

    fn ty(&mut self, ty: &Type) {
        match ty {
            Type::Unit => self.tag(0),
            Type::Int => self.tag(1),
            Type::Bool => self.tag(2),
            Type::Named(name) => {
                self.tag(3);
                self.str(name.as_str());
            }
            Type::Maybe(inner) => {
                self.tag(4);
                self.ty(inner);
            }
        }
    }

    fn path(&mut self, path: &RegionPath) {
        match path {
            RegionPath::Result => self.tag(0),
            RegionPath::Param(p) => {
                self.tag(1);
                self.str(p.as_str());
            }
            RegionPath::Field(p, f) => {
                self.tag(2);
                self.str(p.as_str());
                self.str(f.as_str());
            }
        }
    }

    fn rels(&mut self, rels: &[RegionRel]) {
        self.len(rels.len());
        for r in rels {
            self.path(&r.lhs);
            self.path(&r.rhs);
        }
    }

    fn exprs(&mut self, es: &[Expr]) {
        self.len(es.len());
        for e in es {
            self.expr(e);
        }
    }

    /// Writes an expression tree: one tag per variant, then its fields in
    /// declaration order. Spans and `ExprId`s are skipped.
    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Unit => self.tag(0),
            ExprKind::Int(n) => {
                self.tag(1);
                self.write(&n.to_le_bytes());
            }
            ExprKind::Bool(b) => {
                self.tag(2);
                self.tag(u8::from(*b));
            }
            ExprKind::Var(x) => {
                self.tag(3);
                self.str(x.as_str());
            }
            ExprKind::SelfRef => self.tag(4),
            ExprKind::Field(r, f) => {
                self.tag(5);
                self.expr(r);
                self.str(f.as_str());
            }
            ExprKind::AssignVar(x, v) => {
                self.tag(6);
                self.str(x.as_str());
                self.expr(v);
            }
            ExprKind::AssignField(r, f, v) => {
                self.tag(7);
                self.expr(r);
                self.str(f.as_str());
                self.expr(v);
            }
            ExprKind::Take(r, f) => {
                self.tag(8);
                self.expr(r);
                self.str(f.as_str());
            }
            ExprKind::Let { var, init, body } => {
                self.tag(9);
                self.str(var.as_str());
                self.expr(init);
                self.expr(body);
            }
            ExprKind::LetSome {
                var,
                init,
                then_branch,
                else_branch,
            } => {
                self.tag(10);
                self.str(var.as_str());
                self.expr(init);
                self.expr(then_branch);
                self.expr(else_branch);
            }
            ExprKind::Seq(es) => {
                self.tag(11);
                self.exprs(es);
            }
            ExprKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.tag(12);
                self.expr(cond);
                self.expr(then_branch);
                self.expr(else_branch);
            }
            ExprKind::IfDisconnected {
                a,
                b,
                then_branch,
                else_branch,
            } => {
                self.tag(13);
                self.str(a.as_str());
                self.str(b.as_str());
                self.expr(then_branch);
                self.expr(else_branch);
            }
            ExprKind::While { cond, body } => {
                self.tag(14);
                self.expr(cond);
                self.expr(body);
            }
            ExprKind::New(s, args) => {
                self.tag(15);
                self.str(s.as_str());
                self.exprs(args);
            }
            ExprKind::SomeOf(v) => {
                self.tag(16);
                self.expr(v);
            }
            ExprKind::NoneOf => self.tag(17),
            ExprKind::IsNone(v) => {
                self.tag(18);
                self.expr(v);
            }
            ExprKind::IsSome(v) => {
                self.tag(19);
                self.expr(v);
            }
            ExprKind::Call(f, args) => {
                self.tag(20);
                self.str(f.as_str());
                self.exprs(args);
            }
            ExprKind::Send(v) => {
                self.tag(21);
                self.expr(v);
            }
            ExprKind::Recv(ty) => {
                self.tag(22);
                self.ty(ty);
            }
            ExprKind::Binary(op, a, b) => {
                self.tag(23);
                self.str(op.as_str());
                self.expr(a);
                self.expr(b);
            }
            ExprKind::Unary(op, v) => {
                self.tag(24);
                self.tag(match op {
                    UnOp::Not => 0,
                    UnOp::Neg => 1,
                });
                self.expr(v);
            }
        }
    }

    /// Writes a function definition: name, parameters, result type,
    /// annotations in surface order, and body.
    fn fn_def(&mut self, f: &FnDef) {
        self.str(f.name.as_str());
        self.len(f.params.len());
        for p in &f.params {
            self.str(p.name.as_str());
            self.ty(&p.ty);
        }
        self.ty(&f.ret);
        let ann = &f.annotations;
        self.syms(ann.consumes.iter());
        self.syms(ann.pinned.iter());
        self.rels(&ann.after);
        self.rels(&ann.before);
        self.expr(&f.body);
    }

    fn finish(self) -> u128 {
        self.0
    }
}

#[cfg(test)]
thread_local! {
    /// Signature and struct digests computed on this thread, for the
    /// digest-once test.
    static DIGESTS_COMPUTED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The digest of an elaborated signature: everything `check_fn` reads
/// off a callee's [`FnSig`]. [`Globals`] memoizes it per entry.
pub(crate) fn sig_digest(sig: &FnSig) -> u128 {
    #[cfg(test)]
    DIGESTS_COMPUTED.with(|n| n.set(n.get() + 1));
    let mut h = Fnv::new();
    h.str(sig.name.as_str());
    h.syms(sig.params.iter());
    h.len(sig.param_tys.len());
    for ty in &sig.param_tys {
        h.ty(ty);
    }
    h.ty(&sig.ret);
    h.syms(sig.consumes.iter());
    h.syms(sig.pinned.iter());
    h.len(sig.input_classes.len());
    for class in &sig.input_classes {
        h.syms(class.iter());
    }
    h.len(sig.output_classes.len());
    for class in &sig.output_classes {
        h.len(class.len());
        for path in class {
            h.path(path);
        }
    }
    h.u64(sig.annotation_count as u64);
    h.finish()
}

/// The digest of a struct declaration: its name and every field's name,
/// `iso` flag and type. [`Globals`] memoizes it per entry.
pub(crate) fn struct_digest(def: &StructDef) -> u128 {
    #[cfg(test)]
    DIGESTS_COMPUTED.with(|n| n.set(n.get() + 1));
    let mut h = Fnv::new();
    h.str(def.name.as_str());
    h.len(def.fields.len());
    for f in &def.fields {
        h.str(f.name.as_str());
        h.tag(u8::from(f.iso));
        h.ty(&f.ty);
    }
    h.finish()
}

/// The digest of a struct's field closure: each reachable declaration's
/// name and digest, in sorted order. [`Globals`] memoizes it per entry.
pub(crate) fn closure_digest<'a>(
    closure: impl ExactSizeIterator<Item = (&'a Symbol, Option<u128>)>,
) -> u128 {
    let mut h = Fnv::new();
    h.len(closure.len());
    for (name, digest) in closure {
        h.entry(name, digest);
    }
    h.finish()
}

/// The names a function's check consults beyond its own definition: the
/// dependency set [`fn_fingerprint`] hashes. Reverse indexes built from
/// it (which functions a signature or struct edit can reach) therefore
/// cannot drift from the fingerprints themselves.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FnDeps {
    /// Every callee, the function itself included, in sorted order.
    pub callees: BTreeSet<Symbol>,
    /// Every reachable struct name, in sorted order: those named in the
    /// function's parameter/result types, in its body (`new`, `recv`),
    /// or in a callee signature, closed transitively over field types.
    /// Names `globals` does not know are kept (they hash as absent).
    pub structs: BTreeSet<Symbol>,
}

/// Collects the dependency set of `def` in the environment `globals`.
pub fn fn_deps(globals: &Globals, def: &FnDef) -> FnDeps {
    let (callees, direct) = direct_deps(globals, def);
    // Close over field types, through each struct's memoized closure.
    let mut structs = BTreeSet::new();
    for name in direct {
        match globals.struct_closure(name) {
            Some(closure) => structs.extend(closure.iter().cloned()),
            None => {
                structs.insert(name.clone());
            }
        }
    }
    FnDeps {
        callees: callees.into_iter().map(|(name, _)| name.clone()).collect(),
        structs,
    }
}

/// The sorted, deduplicated callees of `def` (the function itself
/// included), each with its signature digest when `globals` defines it,
/// and the struct names its check reads directly: those named in its
/// parameter/result types, in its body (`new`, `recv`), or in a callee
/// signature. [`fn_deps`] closes the latter over field types.
fn direct_deps<'a>(
    globals: &'a Globals,
    def: &'a FnDef,
) -> (Vec<(&'a Symbol, Option<u128>)>, Vec<&'a Symbol>) {
    // The function's own elaborated signature counts as a callee's. (It
    // is derivable from the definition text, but hashing the elaborated
    // form guards against elaboration changes.)
    let mut callees = vec![&def.name];
    let mut direct = Vec::new();
    def.body.walk(&mut |e| match &e.kind {
        ExprKind::Call(name, _) => callees.push(name),
        ExprKind::New(name, _) => direct.push(name),
        ExprKind::Recv(ty) => direct.extend(ty.struct_name()),
        _ => {}
    });
    sort_dedup(&mut callees);
    let own_tys = def.params.iter().map(|p| &p.ty).chain([&def.ret]);
    direct.extend(own_tys.filter_map(Type::struct_name));
    let callees = callees
        .into_iter()
        .map(|name| {
            let sig = globals.digested_sig(name);
            if let Some((sig, _)) = sig {
                let tys = sig.param_tys.iter().chain([&sig.ret]);
                direct.extend(tys.filter_map(Type::struct_name));
            }
            (name, sig.map(|(_, digest)| digest))
        })
        .collect();
    sort_dedup(&mut direct);
    (callees, direct)
}

fn sort_dedup(names: &mut Vec<&Symbol>) {
    names.sort_unstable();
    names.dedup();
}

/// Computes the content fingerprint of `def` in the environment
/// `globals` under `options`.
///
/// The fingerprint changes whenever any input of `check_fn` changes: the
/// function's own definition (body, parameter/result types, or surface
/// annotations), the elaborated signature of any callee, any reachable
/// struct declaration, or the checker options. It does **not** change
/// under reformatting, re-ordering of *other* definitions, or edits to
/// functions this one neither calls nor shares reachable structs with.
pub fn fn_fingerprint(globals: &Globals, options: &CheckerOptions, def: &FnDef) -> Fingerprint {
    let mut h = Fnv::new();

    // 1. Checker options.
    h.str("options");
    h.str(options.mode.name());
    h.tag(u8::from(options.liveness_oracle));
    h.u64(options.search_node_budget as u64);

    // 2. The function definition itself, without spans or ids.
    h.str("def");
    h.fn_def(def);

    let (callees, direct) = direct_deps(globals, def);

    // 3. The function's own elaborated signature plus every callee's, in
    // sorted order. A digest covers its name.
    h.str("sigs");
    h.len(callees.len());
    for (name, digest) in callees {
        h.entry(name, digest);
    }

    // 4. Every reachable struct declaration: the closure digest of each
    // directly named struct, in sorted order. The closures' union is
    // `fn_deps(..).structs`.
    h.str("structs");
    h.len(direct.len());
    for name in direct {
        h.entry(name, globals.closure_digest(name));
    }

    Fingerprint(h.finish())
}

/// Fingerprints every function of a program in definition order.
///
/// # Errors
///
/// Propagates environment-validation errors from [`Globals::build`].
pub fn program_fingerprints(
    program: &fearless_syntax::Program,
    options: &CheckerOptions,
) -> Result<Vec<(Symbol, Fingerprint)>, crate::TypeError> {
    let globals = Globals::build(program, options.mode)?;
    Ok(program
        .funcs
        .iter()
        .map(|f| (f.name.clone(), fn_fingerprint(&globals, options, f)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fearless_syntax::parse_program;

    const SRC: &str = "
        struct data { value: int }
        struct holder { iso payload : data }
        def get(h: holder) : int { h.payload.value }
        def twice(h: holder) : int { get(h) + get(h) }
        def lone(a: int, b: int) : int { a + b }
    ";

    fn fps(src: &str) -> Vec<(Symbol, Fingerprint)> {
        let program = parse_program(src).unwrap();
        program_fingerprints(&program, &CheckerOptions::default()).unwrap()
    }

    #[test]
    fn deterministic_across_runs() {
        assert_eq!(fps(SRC), fps(SRC));
    }

    #[test]
    fn independent_of_formatting_and_spans() {
        let reformatted = SRC.replace("\n        ", "\n  ");
        let with_prefix = format!("\n\n{SRC}");
        assert_eq!(fps(SRC), fps(&reformatted));
        assert_eq!(fps(SRC), fps(&with_prefix));
    }

    #[test]
    fn body_edit_changes_only_that_function() {
        let edited = SRC.replace("a + b", "a * b");
        let before = fps(SRC);
        let after = fps(&edited);
        assert_eq!(before[0], after[0], "get untouched");
        assert_eq!(before[1], after[1], "twice untouched");
        assert_ne!(before[2].1, after[2].1, "lone changed");
    }

    #[test]
    fn callee_signature_edit_invalidates_callers() {
        let edited = SRC.replace(
            "def get(h: holder) : int {",
            "def get(h: holder) : int pinned h {",
        );
        let before = fps(SRC);
        let after = fps(&edited);
        assert_ne!(before[0].1, after[0].1, "get itself changed");
        assert_ne!(before[1].1, after[1].1, "caller twice invalidated");
        assert_eq!(before[2], after[2], "unrelated lone untouched");
    }

    #[test]
    fn struct_edit_invalidates_reaching_functions() {
        let edited = SRC.replace("iso payload", "payload");
        let before = fps(SRC);
        let after = fps(&edited);
        assert_ne!(before[0].1, after[0].1);
        assert_ne!(before[1].1, after[1].1);
        assert_eq!(before[2], after[2], "lone reaches no structs");
    }

    #[test]
    fn deps_name_callees_and_the_struct_closure() {
        let program = parse_program(SRC).unwrap();
        let globals = Globals::build(&program, CheckerOptions::default().mode).unwrap();
        let names = |set: &BTreeSet<Symbol>| -> Vec<String> {
            set.iter().map(|s| s.as_str().to_string()).collect()
        };
        let twice = fn_deps(&globals, &program.funcs[1]);
        assert_eq!(names(&twice.callees), ["get", "twice"]);
        assert_eq!(names(&twice.structs), ["data", "holder"]);
        let lone = fn_deps(&globals, &program.funcs[2]);
        assert_eq!(names(&lone.callees), ["lone"]);
        assert!(lone.structs.is_empty());
    }

    #[test]
    fn options_participate() {
        let program = parse_program(SRC).unwrap();
        let a = program_fingerprints(&program, &CheckerOptions::default()).unwrap();
        let b =
            program_fingerprints(&program, &CheckerOptions::default().without_oracle()).unwrap();
        assert_ne!(a[0].1, b[0].1);
    }

    /// Every expression form, parameter, result type and annotation kind,
    /// for the one-token edits below. Only `Globals::build` must accept
    /// it: fingerprints do not need the bodies to check.
    const FORMS: &str = "
        struct data { value : int; other : int }
        struct sll { iso hd : data?; iso tl : data? }
        struct cell { iso next : cell?; d : data }
        def callee(a : int) : int { a }
        def forms(a : int, c : bool, d : data, l : sll, s : sll) : int {
          let x = 1;
          x = a + 2;
          d.value = 3;
          let t = take(l.hd);
          let some(n) = t in { n.value } else { 4 };
          if (c) { unit } else { 5 };
          if disconnected(d, s) { 6 } else { 7 };
          while (!c) { 8; };
          let q = new data(9, 10);
          let r = some(q);
          let z = none;
          is_none(r);
          is_some(z);
          callee(a);
          send(q);
          let w = recv(data);
          let k = new cell(self, d);
          true;
          x
        }
        def annotated(x : data, y : data, z : data, w : data, l : sll, n : int) : data?
            consumes z pinned x before: x ~ y after: l.hd ~ result { none }
    ";

    /// `(what, function, from, to)`: replacing the unique text `from` by
    /// `to` is a one-token edit of `what` inside `function`.
    const EDITS: &[(&str, &str, &str, &str)] = &[
        ("Unit", "forms", "{ unit }", "{ none }"),
        ("Int", "forms", "let x = 1;", "let x = 11;"),
        ("Bool", "forms", "true;", "false;"),
        ("Var", "forms", "  x\n", "  a\n"),
        ("SelfRef", "forms", "cell(self", "cell(none"),
        ("Field", "forms", "{ n.value }", "{ n.other }"),
        ("AssignVar", "forms", "x = a + 2", "a = a + 2"),
        ("AssignField", "forms", "d.value = 3", "d.other = 3"),
        ("Take", "forms", "take(l.hd)", "take(l.tl)"),
        ("Let", "forms", "let t =", "let u ="),
        ("LetSome", "forms", "some(n)", "some(m)"),
        ("Seq", "forms", "{ 8; }", "{ 8 }"),
        ("If", "forms", "if (c)", "if (true)"),
        (
            "IfDisconnected",
            "forms",
            "disconnected(d, s)",
            "disconnected(d, l)",
        ),
        ("While", "forms", "while (!c)", "while (!a)"),
        ("New", "forms", "new data(9", "new sll(9"),
        ("SomeOf", "forms", "some(q)", "some(d)"),
        ("NoneOf", "forms", "z = none", "z = unit"),
        ("IsNone", "forms", "is_none(r)", "is_some(r)"),
        ("IsSome", "forms", "is_some(z)", "is_some(r)"),
        ("Call", "forms", "callee(a);", "forms(a);"),
        ("Send", "forms", "send(q)", "send(d)"),
        ("Recv", "forms", "recv(data)", "recv(sll)"),
        ("Binary", "forms", "a + 2", "a - 2"),
        ("Unary", "forms", "(!c)", "(-c)"),
        ("function name", "callee", "def callee(", "def callee2("),
        ("parameter name", "annotated", "n : int", "m : int"),
        ("parameter type", "annotated", "n : int", "n : bool"),
        ("result type", "annotated", ") : data?", ") : sll?"),
        ("consumes", "annotated", "consumes z", "consumes w"),
        ("pinned", "annotated", "pinned x", "pinned w"),
        ("before", "annotated", "x ~ y", "x ~ w"),
        ("after", "annotated", "l.hd ~", "l.tl ~"),
    ];

    fn kind_name(kind: &ExprKind) -> &'static str {
        match kind {
            ExprKind::Unit => "Unit",
            ExprKind::Int(_) => "Int",
            ExprKind::Bool(_) => "Bool",
            ExprKind::Var(_) => "Var",
            ExprKind::SelfRef => "SelfRef",
            ExprKind::Field(..) => "Field",
            ExprKind::AssignVar(..) => "AssignVar",
            ExprKind::AssignField(..) => "AssignField",
            ExprKind::Take(..) => "Take",
            ExprKind::Let { .. } => "Let",
            ExprKind::LetSome { .. } => "LetSome",
            ExprKind::Seq(_) => "Seq",
            ExprKind::If { .. } => "If",
            ExprKind::IfDisconnected { .. } => "IfDisconnected",
            ExprKind::While { .. } => "While",
            ExprKind::New(..) => "New",
            ExprKind::SomeOf(_) => "SomeOf",
            ExprKind::NoneOf => "NoneOf",
            ExprKind::IsNone(_) => "IsNone",
            ExprKind::IsSome(_) => "IsSome",
            ExprKind::Call(..) => "Call",
            ExprKind::Send(_) => "Send",
            ExprKind::Recv(_) => "Recv",
            ExprKind::Binary(..) => "Binary",
            ExprKind::Unary(..) => "Unary",
        }
    }

    fn fp_of(src: &str, func: &str) -> Fingerprint {
        fps(src)
            .into_iter()
            .find(|(name, _)| name.as_str() == func)
            .unwrap_or_else(|| panic!("no function `{func}`"))
            .1
    }

    #[test]
    fn every_one_token_edit_moves_the_fingerprint() {
        for &(what, func, from, to) in EDITS {
            assert_eq!(
                FORMS.matches(from).count(),
                1,
                "{what}: `{from}` is not unique"
            );
            let edited = FORMS.replacen(from, to, 1);
            let func_after = if what == "function name" {
                "callee2"
            } else {
                func
            };
            assert_ne!(
                fp_of(FORMS, func),
                fp_of(&edited, func_after),
                "{what}: `{from}` -> `{to}` kept the fingerprint"
            );
        }
        // The table edits every expression form, and `forms` holds each.
        let program = parse_program(FORMS).unwrap();
        let mut kinds = BTreeSet::new();
        program.funcs[1].body.walk(&mut |e| {
            kinds.insert(kind_name(&e.kind));
        });
        let edited: BTreeSet<&str> = EDITS.iter().map(|e| e.0).collect();
        for kind in &kinds {
            assert!(edited.contains(kind), "no edit of `{kind}`");
        }
        assert_eq!(kinds.len(), 25, "`forms` lacks a form: {kinds:?}");
    }

    #[test]
    fn spans_ids_and_formatting_do_not_move_fingerprints() {
        // An earlier definition and extra blank lines shift every later
        // span and renumber every later `ExprId`.
        let shifted = format!("def zz() : int {{ 1 + 2 }}\n\n\n{SRC}");
        let before = parse_program(SRC).unwrap();
        let after = parse_program(&shifted).unwrap();
        assert_ne!(before.funcs[0].body.id, after.funcs[1].body.id);
        assert_ne!(before.funcs[0].body.span, after.funcs[1].body.span);
        assert_eq!(fps(SRC)[..], fps(&shifted)[1..]);
        let squeezed = SRC.split_whitespace().collect::<Vec<_>>().join(" ");
        assert_eq!(fps(SRC), fps(&squeezed));
    }

    #[test]
    fn seed_42_digests_each_signature_and_struct_once() {
        let src = fearless_synth::synthesize(&fearless_synth::SynthOptions {
            seed: 42,
            functions: 1000,
            ..fearless_synth::SynthOptions::default()
        });
        let program = parse_program(&src).unwrap();
        let options = CheckerOptions::default();
        let computed = || DIGESTS_COMPUTED.with(std::cell::Cell::get);
        let mut globals = Globals::build(&program, options.mode).unwrap();
        assert_eq!(computed(), 0, "building the environment digests nothing");
        let all = |globals: &Globals| -> Vec<Fingerprint> {
            program
                .funcs
                .iter()
                .map(|f| fn_fingerprint(globals, &options, f))
                .collect()
        };

        // Each function's own signature is a dependency, so every
        // signature is digested, and every struct some function reaches.
        let first = all(&globals);
        let distinct: BTreeSet<&Fingerprint> = first.iter().collect();
        assert_eq!(
            distinct.len(),
            first.len(),
            "two functions share a fingerprint"
        );
        let mut reached = BTreeSet::new();
        for f in &program.funcs {
            reached.extend(fn_deps(&globals, f).structs);
        }
        let digests = program.funcs.len() + reached.len();
        assert_eq!(computed(), digests);
        assert_eq!(all(&globals), first);
        assert_eq!(computed(), digests, "a second pass digests nothing");

        // Patching one signature digests only that one again.
        let annotated = program
            .funcs
            .iter()
            .find(|f| f.annotations.count() > 0)
            .unwrap();
        let old = globals.patch_sig(annotated).unwrap();
        assert_eq!(
            all(&globals),
            first,
            "an unchanged patch keeps every fingerprint"
        );
        assert_eq!(computed(), digests + 1);
        globals.restore_sig(old);
        assert_eq!(all(&globals), first);
        assert_eq!(computed(), digests + 2);
    }

    #[test]
    fn hex_roundtrip() {
        let fp = fps(SRC)[0].1;
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::from_hex(&hex), Some(fp));
        assert_eq!(Fingerprint::from_hex("xyz"), None);
    }
}
