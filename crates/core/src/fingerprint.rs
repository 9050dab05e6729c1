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
//! * the function definition itself (annotations and body, via the
//!   span-free pretty-printer, so formatting and source position do not
//!   perturb the hash),
//! * the elaborated signature of every callee, in sorted order, and
//! * every reachable struct declaration — those named in the function's
//!   parameter/result types, in its body (`new`, `recv`), or in a callee
//!   signature, closed transitively over field types.
//!
//! This is the key of the one check-outcome store, `fearless-incr`'s
//! check table, which serves `fearlessc check --cache` and the daemon,
//! and of the FA002 lint's verdict memo: equal fingerprints →
//! byte-identical check outcomes, different fingerprints → conservative
//! re-check. The FA002 lint also inverts [`fn_deps`], the dependency set
//! the hash covers, to find the functions an annotation deletion can
//! reach.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use fearless_syntax::{pretty, Expr, ExprKind, FnDef, Symbol, Type};

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

    /// Writes a length-prefixed string (prefixing prevents ambiguity
    /// between adjacent components).
    fn write_str(&mut self, s: &str) {
        self.write(&(s.len() as u64).to_le_bytes());
        self.write(s.as_bytes());
    }

    fn finish(self) -> Fingerprint {
        Fingerprint(self.0)
    }
}

/// Stable textual digest of an elaborated signature. Everything
/// `check_fn` reads off a callee's [`FnSig`] is included.
fn sig_digest(sig: &FnSig) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "fn {}(", sig.name);
    for (p, ty) in sig.params.iter().zip(&sig.param_tys) {
        let _ = write!(out, "{p}:{ty},");
    }
    let _ = write!(out, "):{}", sig.ret);
    let _ = write!(out, " consumes[");
    for p in &sig.consumes {
        let _ = write!(out, "{p},");
    }
    let _ = write!(out, "] pinned[");
    for p in &sig.pinned {
        let _ = write!(out, "{p},");
    }
    let _ = write!(out, "] in[");
    for class in &sig.input_classes {
        let _ = write!(out, "(");
        for p in class {
            let _ = write!(out, "{p},");
        }
        let _ = write!(out, ")");
    }
    let _ = write!(out, "] out[");
    for class in &sig.output_classes {
        let _ = write!(out, "(");
        for p in class {
            let _ = write!(out, "{p},");
        }
        let _ = write!(out, ")");
    }
    let _ = write!(out, "] ann:{}", sig.annotation_count);
    out
}

/// Collects the struct names mentioned by a type.
fn type_structs(ty: &Type, out: &mut BTreeSet<Symbol>) {
    if let Some(name) = ty.struct_name() {
        out.insert(name.clone());
    }
}

/// Collects callee names and directly mentioned struct names from a body.
fn body_refs(body: &Expr, callees: &mut BTreeSet<Symbol>, structs: &mut BTreeSet<Symbol>) {
    body.walk(&mut |e| match &e.kind {
        ExprKind::Call(name, _) => {
            callees.insert(name.clone());
        }
        ExprKind::New(name, _) => {
            structs.insert(name.clone());
        }
        ExprKind::Recv(ty) => type_structs(ty, structs),
        _ => {}
    });
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
    let mut callees = BTreeSet::new();
    let mut structs = BTreeSet::new();
    body_refs(&def.body, &mut callees, &mut structs);
    for p in &def.params {
        type_structs(&p.ty, &mut structs);
    }
    type_structs(&def.ret, &mut structs);

    // The function's own elaborated signature counts as a callee's. (It
    // is derivable from the definition text, but hashing the elaborated
    // form guards against elaboration changes.)
    callees.insert(def.name.clone());
    for sig in callees.iter().filter_map(|name| globals.sig(name)) {
        for ty in sig.param_tys.iter().chain(std::iter::once(&sig.ret)) {
            type_structs(ty, &mut structs);
        }
    }

    // Close over field types.
    let mut reachable: BTreeSet<Symbol> = BTreeSet::new();
    let mut queue: VecDeque<Symbol> = structs.into_iter().collect();
    while let Some(name) = queue.pop_front() {
        if !reachable.insert(name.clone()) {
            continue;
        }
        if let Some(sdef) = globals.struct_def(&name) {
            for field in &sdef.fields {
                if let Some(inner) = field.ty.struct_name() {
                    if !reachable.contains(inner) {
                        queue.push_back(inner.clone());
                    }
                }
            }
        }
    }
    FnDeps {
        callees,
        structs: reachable,
    }
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
    h.write_str("options");
    h.write_str(options.mode.name());
    h.write(&[options.liveness_oracle as u8]);
    h.write(&(options.search_node_budget as u64).to_le_bytes());

    // 2. The function definition itself (span-free canonical form).
    h.write_str("def");
    h.write_str(&pretty::fn_to_string(def));

    let deps = fn_deps(globals, def);

    // 3. The function's own elaborated signature plus every callee's.
    h.write_str("sigs");
    for name in &deps.callees {
        h.write_str(name.as_str());
        match globals.sig(name) {
            Some(sig) => h.write_str(&sig_digest(sig)),
            None => h.write_str("(absent)"),
        }
    }

    // 4. Every reachable struct declaration, in sorted order. Unknown
    // names hash as absent so that *adding* a previously missing struct
    // also invalidates.
    h.write_str("structs");
    for name in &deps.structs {
        h.write_str(name.as_str());
        match globals.struct_def(name) {
            Some(sdef) => h.write_str(&pretty::struct_to_string(sdef)),
            None => h.write_str("(absent)"),
        }
    }

    h.finish()
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

    #[test]
    fn hex_roundtrip() {
        let fp = fps(SRC)[0].1;
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::from_hex(&hex), Some(fp));
        assert_eq!(Fingerprint::from_hex("xyz"), None);
    }
}
