//! Program environment: validated struct table and elaborated function
//! signatures (the semantic form of §4.9's surface annotations).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::OnceLock;

use fearless_syntax::{FnDef, Program, RegionPath, StructDef, Symbol, Type};

use crate::error::TypeError;
use crate::fingerprint;
use crate::mode::CheckerMode;

/// An elaborated function signature.
///
/// The input contexts are implicit in the paper's defaults (§4.9): each
/// reference parameter arrives in its own unpinned region with an empty
/// tracking context, except that `before:` relations merge input regions
/// and `pinned` marks them pinned. The output is described by a partition
/// of region paths induced by the `after:` relations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FnSig {
    /// Function name.
    pub name: Symbol,
    /// Parameter names in order.
    pub params: Vec<Symbol>,
    /// Parameter types in order.
    pub param_tys: Vec<Type>,
    /// Result type.
    pub ret: Type,
    /// Parameters consumed by the call (their region is removed from the
    /// caller's context).
    pub consumes: BTreeSet<Symbol>,
    /// Parameters whose input region is pinned (partial information).
    pub pinned: BTreeSet<Symbol>,
    /// Input region classes: each inner vec is a set of reference
    /// parameters sharing one input region (singletons by default).
    pub input_classes: Vec<Vec<Symbol>>,
    /// Output region classes over [`RegionPath`]s. Every non-consumed
    /// reference parameter appears in exactly one class; `Result` appears
    /// iff the result is a reference type; `Field(p, f)` entries denote
    /// fields tracked at output.
    pub output_classes: Vec<Vec<RegionPath>>,
    /// Number of surface annotations (for Table 1's "Simple" column).
    pub annotation_count: usize,
}

impl FnSig {
    /// Index of a parameter.
    pub fn param_index(&self, name: &Symbol) -> Option<usize> {
        self.params.iter().position(|p| p == name)
    }

    /// Whether the parameter is reference-typed.
    pub fn is_reference_param(&self, name: &Symbol) -> bool {
        self.param_index(name)
            .map(|i| self.param_tys[i].is_reference())
            .unwrap_or(false)
    }

    /// The output class containing `path`, if any.
    pub fn output_class_of(&self, path: &RegionPath) -> Option<usize> {
        self.output_classes.iter().position(|c| c.contains(path))
    }
}

/// Validated global environment for a program.
///
/// Each entry also memoizes what fingerprinting reads off it: a 128-bit
/// digest per signature and per struct, and each struct's field closure
/// with the digest of the declarations in it. They are computed on first
/// use, at most once per entry, so checking and verifying never pay for
/// them. The memos take no part in `Debug`.
#[derive(Clone, Debug, Default)]
pub struct Globals {
    structs: BTreeMap<Symbol, StructEntry>,
    sigs: BTreeMap<Symbol, SigEntry>,
}

/// A validated struct declaration and its fingerprint memos.
#[derive(Clone)]
struct StructEntry {
    def: StructDef,
    digest: OnceLock<u128>,
    /// The struct names reachable through field types, this one
    /// included, in sorted order.
    closure: OnceLock<Box<[Symbol]>>,
    /// The digest of every declaration in `closure`.
    closure_digest: OnceLock<u128>,
}

/// What [`Globals::patch_struct`] replaced: the struct declaration and the
/// signatures it re-elaborated.
#[derive(Debug)]
pub struct StructPatch {
    def: StructDef,
    sigs: Vec<FnSig>,
}

/// An elaborated signature and its memoized digest.
#[derive(Clone)]
struct SigEntry {
    sig: FnSig,
    digest: OnceLock<u128>,
}

impl StructEntry {
    fn new(def: StructDef) -> Self {
        StructEntry {
            def,
            digest: OnceLock::new(),
            closure: OnceLock::new(),
            closure_digest: OnceLock::new(),
        }
    }
}

impl SigEntry {
    fn new(sig: FnSig) -> Self {
        SigEntry {
            sig,
            digest: OnceLock::new(),
        }
    }
}

impl fmt::Debug for StructEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.def.fmt(f)
    }
}

impl fmt::Debug for SigEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.sig.fmt(f)
    }
}

impl Globals {
    /// Builds and validates the environment for `program` under `mode`.
    ///
    /// # Errors
    ///
    /// Reports unresolved types, invalid `iso` placements, duplicate
    /// definitions, malformed annotations, and (in
    /// [`CheckerMode::TreeOfObjects`]) non-`iso` reference fields.
    pub fn build(program: &Program, mode: CheckerMode) -> Result<Self, TypeError> {
        let mut globals = Globals::default();
        for s in &program.structs {
            if globals.structs.contains_key(&s.name) {
                return Err(TypeError::new(
                    format!("duplicate struct `{}`", s.name),
                    s.span,
                ));
            }
            globals
                .structs
                .insert(s.name.clone(), StructEntry::new(s.clone()));
        }
        for s in &program.structs {
            globals.validate_struct(s, mode)?;
        }
        for f in &program.funcs {
            if globals.sigs.contains_key(&f.name) {
                return Err(TypeError::new(
                    format!("duplicate function `{}`", f.name),
                    f.span,
                ));
            }
            let sig = globals.elaborate_sig(f)?;
            globals.sigs.insert(f.name.clone(), SigEntry::new(sig));
        }
        Ok(globals)
    }

    /// Re-elaborates the signature of `f`, an edited copy of a function
    /// this environment defines, and returns the signature it replaces
    /// (for [`Globals::restore_sig`]). Struct validation and every other
    /// signature stay as they were, so the result equals a
    /// [`Globals::build`] of the edited program when the edit changes only
    /// `f`'s annotations: no other signature reads them. Only the patched
    /// entry's digest memo starts over.
    ///
    /// # Errors
    ///
    /// Reports the edited signature's elaboration error, or a function
    /// this environment does not define, and then changes nothing.
    pub fn patch_sig(&mut self, f: &FnDef) -> Result<FnSig, TypeError> {
        let sig = self.elaborate_sig(f)?;
        match self.sigs.get_mut(&f.name) {
            Some(slot) => Ok(std::mem::replace(slot, SigEntry::new(sig)).sig),
            None => Err(TypeError::new(
                format!("unknown function `{}`", f.name),
                f.span,
            )),
        }
    }

    /// Puts back a signature that [`Globals::patch_sig`] replaced.
    pub fn restore_sig(&mut self, sig: FnSig) {
        self.sigs.insert(sig.name.clone(), SigEntry::new(sig));
    }

    /// Replaces the declaration of struct `s.name` with `s`, an edited copy
    /// that keeps the name, and returns what it replaced (for
    /// [`Globals::restore_struct`]). `funcs` are the definitions this
    /// environment was built from. The edited struct is re-validated, and
    /// the signatures whose `after:` paths name a field of it are
    /// re-elaborated in definition order; no other struct validation or
    /// signature reads the struct's fields, so the result equals a
    /// [`Globals::build`] of the edited program. The struct's digest memo
    /// starts over, and so do the closure memos of every struct whose
    /// closure contains it.
    ///
    /// # Errors
    ///
    /// Reports the error a build of the edited program would report first,
    /// or a struct this environment does not define, and then changes
    /// nothing.
    pub fn patch_struct(
        &mut self,
        s: &StructDef,
        funcs: &[FnDef],
        mode: CheckerMode,
    ) -> Result<StructPatch, TypeError> {
        if !self.structs.contains_key(&s.name) {
            return Err(TypeError::new(
                format!("unknown struct `{}`", s.name),
                s.span,
            ));
        }
        self.validate_struct(s, mode)?;
        let old = self.swap_struct(s.clone());
        let mut elaborated = Vec::new();
        for f in funcs {
            let names_field = self.sig(&f.name).is_some_and(|sig| {
                sig.output_classes.iter().flatten().any(|path| match path {
                    RegionPath::Field(p, _) => {
                        sig.param_index(p)
                            .and_then(|i| sig.param_tys[i].struct_name())
                            == Some(&s.name)
                    }
                    _ => false,
                })
            });
            if !names_field {
                continue;
            }
            match self.elaborate_sig(f) {
                Ok(sig) => elaborated.push(sig),
                Err(e) => {
                    self.swap_struct(old);
                    return Err(e);
                }
            }
        }
        let sigs = elaborated
            .into_iter()
            .map(|sig| {
                let slot = self.sigs.get_mut(&sig.name).expect("signature exists");
                std::mem::replace(slot, SigEntry::new(sig)).sig
            })
            .collect();
        Ok(StructPatch { def: old, sigs })
    }

    /// Puts back what [`Globals::patch_struct`] replaced.
    pub fn restore_struct(&mut self, patch: StructPatch) {
        self.swap_struct(patch.def);
        for sig in patch.sigs {
            self.restore_sig(sig);
        }
    }

    /// Installs `def` in place of the declaration of the same name and
    /// returns the old one, resetting every memo that read it: the
    /// struct's digest, and the closure and closure digest of every struct
    /// whose closure contains it (only those closures pass through its
    /// fields).
    fn swap_struct(&mut self, def: StructDef) -> StructDef {
        let readers: Vec<Symbol> = self
            .structs
            .keys()
            .filter(|t| {
                self.struct_closure(t)
                    .is_some_and(|c| c.binary_search(&def.name).is_ok())
            })
            .cloned()
            .collect();
        for t in &readers {
            let e = self.structs.get_mut(t).expect("struct exists");
            e.closure.take();
            e.closure_digest.take();
        }
        let e = self.structs.get_mut(&def.name).expect("struct exists");
        e.digest.take();
        std::mem::replace(&mut e.def, def)
    }

    /// Looks up a struct definition.
    pub fn struct_def(&self, name: &Symbol) -> Option<&StructDef> {
        self.structs.get(name).map(|e| &e.def)
    }

    /// Looks up an elaborated signature.
    pub fn sig(&self, name: &Symbol) -> Option<&FnSig> {
        self.sigs.get(name).map(|e| &e.sig)
    }

    /// Iterates over all signatures.
    pub fn sigs(&self) -> impl Iterator<Item = &FnSig> {
        self.sigs.values().map(|e| &e.sig)
    }

    /// An elaborated signature with its digest, computed on first use.
    pub(crate) fn digested_sig(&self, name: &Symbol) -> Option<(&FnSig, u128)> {
        let e = self.sigs.get(name)?;
        Some((
            &e.sig,
            *e.digest.get_or_init(|| fingerprint::sig_digest(&e.sig)),
        ))
    }

    /// The digest of a struct declaration, computed on first use.
    pub(crate) fn struct_digest(&self, name: &Symbol) -> Option<u128> {
        let e = self.structs.get(name)?;
        Some(*e.digest.get_or_init(|| fingerprint::struct_digest(&e.def)))
    }

    /// The digest of every struct declaration reachable from `name` (its
    /// [`Globals::struct_closure`]), computed on first use.
    pub(crate) fn closure_digest(&self, name: &Symbol) -> Option<u128> {
        let e = self.structs.get(name)?;
        Some(*e.closure_digest.get_or_init(|| {
            let closure = self.struct_closure(name).unwrap_or_default();
            fingerprint::closure_digest(closure.iter().map(|s| (s, self.struct_digest(s))))
        }))
    }

    /// The struct names reachable from `name` through field types, `name`
    /// included, in sorted order; computed on first use.
    pub(crate) fn struct_closure(&self, name: &Symbol) -> Option<&[Symbol]> {
        let e = self.structs.get(name)?;
        Some(e.closure.get_or_init(|| {
            let mut reachable = BTreeSet::new();
            let mut stack = vec![name.clone()];
            while let Some(next) = stack.pop() {
                if !reachable.insert(next.clone()) {
                    continue;
                }
                let fields = self.struct_def(&next).into_iter().flat_map(|d| &d.fields);
                for inner in fields.filter_map(|f| f.ty.struct_name()) {
                    if !reachable.contains(inner) {
                        stack.push(inner.clone());
                    }
                }
            }
            reachable.into_iter().collect()
        }))
    }

    fn resolve_type(&self, ty: &Type, span: fearless_syntax::Span) -> Result<(), TypeError> {
        if let Some(name) = ty.struct_name() {
            if !self.structs.contains_key(name) {
                return Err(TypeError::new(format!("unknown struct `{name}`"), span));
            }
        }
        Ok(())
    }

    fn validate_struct(&self, s: &StructDef, mode: CheckerMode) -> Result<(), TypeError> {
        for f in &s.fields {
            self.resolve_type(&f.ty, f.span)?;
            if f.iso && !f.ty.is_reference() {
                return Err(TypeError::new(
                    format!(
                        "field `{}` of `{}` is `iso` but has value type {}",
                        f.name, s.name, f.ty
                    ),
                    f.span,
                ));
            }
            if mode == CheckerMode::TreeOfObjects && !f.iso && f.ty.is_reference() {
                return Err(TypeError::new(
                    format!(
                        "tree-of-objects discipline: non-iso reference field `{}` of `{}` is \
                         not representable (every object reference must be unique)",
                        f.name, s.name
                    ),
                    f.span,
                ));
            }
        }
        Ok(())
    }

    fn elaborate_sig(&self, f: &FnDef) -> Result<FnSig, TypeError> {
        let params: Vec<Symbol> = f.params.iter().map(|p| p.name.clone()).collect();
        let param_tys: Vec<Type> = f.params.iter().map(|p| p.ty.clone()).collect();
        for p in &f.params {
            self.resolve_type(&p.ty, p.span)?;
        }
        self.resolve_type(&f.ret, f.span)?;

        let find_param = |name: &Symbol| -> Result<usize, TypeError> {
            params
                .iter()
                .position(|p| p == name)
                .ok_or_else(|| TypeError::new(format!("unknown parameter `{name}`"), f.span))
        };
        let require_reference = |idx: usize, what: &str| -> Result<(), TypeError> {
            if param_tys[idx].is_reference() {
                Ok(())
            } else {
                Err(TypeError::new(
                    format!(
                        "{what} `{}` has value type {}, which has no region",
                        params[idx], param_tys[idx]
                    ),
                    f.span,
                ))
            }
        };

        let mut consumes = BTreeSet::new();
        for c in &f.annotations.consumes {
            let idx = find_param(c)?;
            require_reference(idx, "consumed parameter")?;
            if !consumes.insert(c.clone()) {
                return Err(TypeError::new(
                    format!("parameter `{c}` consumed twice"),
                    f.span,
                ));
            }
        }
        let mut pinned = BTreeSet::new();
        for p in &f.annotations.pinned {
            let idx = find_param(p)?;
            require_reference(idx, "pinned parameter")?;
            pinned.insert(p.clone());
        }

        // Validate a region path appearing in annotations.
        let validate_path = |path: &RegionPath| -> Result<(), TypeError> {
            match path {
                RegionPath::Result => {
                    if !f.ret.is_reference() {
                        return Err(TypeError::new(
                            format!("`result` has value type {}, which has no region", f.ret),
                            f.span,
                        ));
                    }
                }
                RegionPath::Param(p) => {
                    let idx = find_param(p)?;
                    require_reference(idx, "parameter")?;
                    if consumes.contains(p) {
                        return Err(TypeError::new(
                            format!("consumed parameter `{p}` cannot appear in a region relation"),
                            f.span,
                        ));
                    }
                }
                RegionPath::Field(p, fld) => {
                    let idx = find_param(p)?;
                    require_reference(idx, "parameter")?;
                    if consumes.contains(p) {
                        return Err(TypeError::new(
                            format!("consumed parameter `{p}` cannot appear in a region relation"),
                            f.span,
                        ));
                    }
                    let sname = param_tys[idx].struct_name().cloned().ok_or_else(|| {
                        TypeError::new(format!("parameter `{p}` is not a struct"), f.span)
                    })?;
                    let sdef = self.struct_def(&sname).ok_or_else(|| {
                        TypeError::new(format!("unknown struct `{sname}`"), f.span)
                    })?;
                    match sdef.field(fld) {
                        Some(fd) if fd.iso => {}
                        Some(_) => {
                            return Err(TypeError::new(
                                format!(
                                    "`{p}.{fld}` is not an `iso` field; only iso fields have \
                                     distinct target regions"
                                ),
                                f.span,
                            ))
                        }
                        None => {
                            return Err(TypeError::new(
                                format!("struct `{sname}` has no field `{fld}`"),
                                f.span,
                            ))
                        }
                    }
                    if matches!(param_tys[idx], Type::Maybe(_)) {
                        return Err(TypeError::new(
                            format!("cannot name fields of maybe-typed parameter `{p}`"),
                            f.span,
                        ));
                    }
                }
            }
            Ok(())
        };

        // Input classes from `before:` relations (params only).
        let mut input_uf = UnionFind::new();
        for (i, ty) in param_tys.iter().enumerate() {
            if ty.is_reference() {
                input_uf.add(RegionPath::Param(params[i].clone()));
            }
        }
        for rel in &f.annotations.before {
            validate_path(&rel.lhs)?;
            validate_path(&rel.rhs)?;
            for p in [&rel.lhs, &rel.rhs] {
                if !matches!(p, RegionPath::Param(_)) {
                    return Err(TypeError::new(
                        "`before:` relations may only relate parameters".to_string(),
                        rel.span,
                    ));
                }
            }
            input_uf.union(&rel.lhs, &rel.rhs);
        }
        let input_classes: Vec<Vec<Symbol>> = input_uf
            .classes()
            .into_iter()
            .map(|class| {
                class
                    .into_iter()
                    .filter_map(|p| match p {
                        RegionPath::Param(x) => Some(x),
                        _ => None,
                    })
                    .collect()
            })
            .collect();

        // Output classes from `after:` relations.
        let mut output_uf = UnionFind::new();
        for (i, ty) in param_tys.iter().enumerate() {
            if ty.is_reference() && !consumes.contains(&params[i]) {
                output_uf.add(RegionPath::Param(params[i].clone()));
            }
        }
        if f.ret.is_reference() {
            output_uf.add(RegionPath::Result);
        }
        for rel in &f.annotations.after {
            validate_path(&rel.lhs)?;
            validate_path(&rel.rhs)?;
            output_uf.add(rel.lhs.clone());
            output_uf.add(rel.rhs.clone());
            output_uf.union(&rel.lhs, &rel.rhs);
        }
        // `before:`-merged inputs share one region for the whole call, so
        // they necessarily share an output class too.
        for rel in &f.annotations.before {
            let both_survive = [&rel.lhs, &rel.rhs].iter().all(|p| match p {
                RegionPath::Param(x) => !consumes.contains(x),
                _ => false,
            });
            if both_survive {
                output_uf.union(&rel.lhs, &rel.rhs);
            }
        }
        let output_classes = output_uf.classes();

        // A parameter may not share an output region with another parameter
        // *and* remain distinct at input unless the body can merge them;
        // that is legal (attach), so no extra validation here.

        Ok(FnSig {
            name: f.name.clone(),
            params,
            param_tys,
            ret: f.ret.clone(),
            consumes,
            pinned,
            input_classes,
            output_classes,
            annotation_count: f.annotations.count(),
        })
    }
}

/// A tiny union-find over [`RegionPath`] keys.
struct UnionFind {
    keys: Vec<RegionPath>,
    parent: Vec<usize>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind {
            keys: Vec::new(),
            parent: Vec::new(),
        }
    }

    fn add(&mut self, key: RegionPath) -> usize {
        if let Some(i) = self.keys.iter().position(|k| *k == key) {
            return i;
        }
        self.keys.push(key);
        self.parent.push(self.parent.len());
        self.parent.len() - 1
    }

    fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let root = self.find(self.parent[i]);
            self.parent[i] = root;
        }
        self.parent[i]
    }

    fn union(&mut self, a: &RegionPath, b: &RegionPath) {
        let (ia, ib) = (self.add(a.clone()), self.add(b.clone()));
        let (ra, rb) = (self.find(ia), self.find(ib));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    fn classes(&mut self) -> Vec<Vec<RegionPath>> {
        let mut by_root: BTreeMap<usize, Vec<RegionPath>> = BTreeMap::new();
        for i in 0..self.keys.len() {
            let root = self.find(i);
            by_root.entry(root).or_default().push(self.keys[i].clone());
        }
        by_root.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fearless_syntax::parse_program;

    const LISTS: &str = "
        struct data { value: int }
        struct sll_node { iso payload : data; iso next : sll_node? }
        struct dll_node { iso payload : data; next : dll_node; prev : dll_node }
        struct dll { iso hd : dll_node? }
    ";

    #[test]
    fn builds_list_structs() {
        let p = parse_program(LISTS).unwrap();
        let g = Globals::build(&p, CheckerMode::Tempered).unwrap();
        assert!(g.struct_def(&"dll_node".into()).is_some());
    }

    #[test]
    fn tree_of_objects_rejects_dll() {
        let p = parse_program(LISTS).unwrap();
        let err = Globals::build(&p, CheckerMode::TreeOfObjects).unwrap_err();
        assert!(err.message().contains("non-iso reference field"), "{err}");
    }

    #[test]
    fn rejects_iso_on_value_type() {
        let p = parse_program("struct s { iso n : int }").unwrap();
        assert!(Globals::build(&p, CheckerMode::Tempered).is_err());
    }

    #[test]
    fn rejects_unknown_struct() {
        let p = parse_program("struct s { f : nosuch }").unwrap();
        assert!(Globals::build(&p, CheckerMode::Tempered).is_err());
    }

    #[test]
    fn elaborates_consumes_and_after() {
        let src = format!(
            "{LISTS}
             def get_nth(l : dll, pos : int) : dll_node? after: l.hd ~ result {{ none }}
             def consume(x : dll) : unit consumes x {{ unit }}"
        );
        let p = parse_program(&src).unwrap();
        let g = Globals::build(&p, CheckerMode::Tempered).unwrap();
        let sig = g.sig(&"get_nth".into()).unwrap();
        // Output classes: one for l, one for {l.hd, result}.
        assert_eq!(sig.output_classes.len(), 2);
        let class = sig.output_class_of(&RegionPath::Result).unwrap();
        assert!(sig.output_classes[class].contains(&RegionPath::Field("l".into(), "hd".into())));
        let sig2 = g.sig(&"consume".into()).unwrap();
        assert!(sig2.consumes.contains("x"));
        assert!(sig2.output_classes.is_empty());
    }

    #[test]
    fn rejects_after_on_consumed_param() {
        let src = format!(
            "{LISTS}
             def bad(x : dll) : dll? consumes x after: x ~ result {{ none }}"
        );
        let p = parse_program(&src).unwrap();
        assert!(Globals::build(&p, CheckerMode::Tempered).is_err());
    }

    #[test]
    fn rejects_after_on_non_iso_field() {
        let src = format!(
            "{LISTS}
             def bad(x : dll_node) : dll_node? after: x.next ~ result {{ none }}"
        );
        let p = parse_program(&src).unwrap();
        let err = Globals::build(&p, CheckerMode::Tempered).unwrap_err();
        assert!(err.message().contains("not an `iso` field"), "{err}");
    }

    #[test]
    fn before_merges_input_classes() {
        let src = format!(
            "{LISTS}
             def two(a : dll_node, b : dll_node) : unit before: a ~ b {{ unit }}"
        );
        let p = parse_program(&src).unwrap();
        let g = Globals::build(&p, CheckerMode::Tempered).unwrap();
        let sig = g.sig(&"two".into()).unwrap();
        assert_eq!(sig.input_classes.len(), 1);
        assert_eq!(sig.input_classes[0].len(), 2);
    }

    #[test]
    fn rejects_result_relation_for_value_return() {
        let src = format!(
            "{LISTS}
             def bad(x : dll) : int after: x ~ result {{ 0 }}"
        );
        let p = parse_program(&src).unwrap();
        assert!(Globals::build(&p, CheckerMode::Tempered).is_err());
    }
}
