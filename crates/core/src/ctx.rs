//! Static typing contexts: the heap context `H` of tracking contexts and the
//! variable context `Γ` (paper Fig. 9).
//!
//! A heap context is a set of *tracking contexts* `r°⟨x°[f ↦ r', …] …⟩`:
//! each region capability `r` carries an optional *pinning* mark `°` and a
//! set of *tracked* (focused) variables, each mapping some of its `iso`
//! fields to their statically-known target regions. Regions are treated as
//! affine resources (§4.1): reservation-shrinking operations consume them.
//!
//! Both contexts are copy-on-write: cloning one bumps a reference count, and
//! the map is copied only when a mutator really changes it. Every derivation
//! node records its whole judgment, so neighbouring nodes share their maps
//! until a rule changes them. A mutator that would change nothing leaves the
//! map shared.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use fearless_syntax::{Symbol, Type};

/// A compile-time region identifier.
///
/// Regions are purely static: they group objects that enter or leave a
/// thread's reservation as a unit (§1). Fresh ids are drawn from a
/// per-function counter.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct RegionId(pub u32);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Tracking information for one focused variable: which of its `iso` fields
/// are explicitly tracked, and to which regions they point.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct VarTrack {
    /// Pinned variables carry partial information: untracked `iso` fields of
    /// a pinned variable may not be assumed to dominate (§4.7).
    pub pinned: bool,
    /// Tracked fields and their target regions. A target that is no longer
    /// present in the heap context is *dangling*: the field may be
    /// reassigned but not read.
    pub fields: BTreeMap<Symbol, RegionId>,
}

/// The tracking context of a single region: `r°⟨X⟩`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TrackCtx {
    /// Pinned regions may not gain new tracked variables (§4.7).
    pub pinned: bool,
    /// The tracked (focused) variables in this region.
    pub vars: BTreeMap<Symbol, VarTrack>,
}

impl TrackCtx {
    /// An empty unpinned tracking context `r·⟨⟩`.
    pub fn empty() -> Self {
        TrackCtx::default()
    }

    /// Whether no variables are tracked.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }
}

/// The heap context `H`: a set of tracking contexts, one per region
/// capability held by the current expression.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct HeapCtx {
    regions: Arc<BTreeMap<RegionId, TrackCtx>>,
}

impl HeapCtx {
    /// Creates an empty heap context.
    pub fn new() -> Self {
        HeapCtx::default()
    }

    /// Whether `r` is a currently-held capability.
    pub fn contains(&self, r: RegionId) -> bool {
        self.regions.contains_key(&r)
    }

    /// Returns the tracking context of `r`, if held.
    pub fn tracking(&self, r: RegionId) -> Option<&TrackCtx> {
        self.regions.get(&r)
    }

    /// Mutable access to the tracking context of `r`.
    pub fn tracking_mut(&mut self, r: RegionId) -> Option<&mut TrackCtx> {
        if !self.contains(r) {
            return None;
        }
        Arc::make_mut(&mut self.regions).get_mut(&r)
    }

    /// Adds a fresh region with the given tracking context.
    ///
    /// # Panics
    ///
    /// Panics if `r` is already present (well-formed contexts never
    /// duplicate bindings; callers draw `r` from a fresh counter).
    pub fn insert(&mut self, r: RegionId, ctx: TrackCtx) {
        let prev = Arc::make_mut(&mut self.regions).insert(r, ctx);
        assert!(prev.is_none(), "duplicate region binding {r}");
    }

    /// Removes (consumes) a region, returning its tracking context.
    pub fn remove(&mut self, r: RegionId) -> Option<TrackCtx> {
        if !self.contains(r) {
            return None;
        }
        Arc::make_mut(&mut self.regions).remove(&r)
    }

    /// Iterates over `(region, tracking)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (RegionId, &TrackCtx)> {
        self.regions.iter().map(|(r, c)| (*r, c))
    }

    /// The number of held region capabilities.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no capabilities are held.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Finds the region in which variable `x` is tracked, if any.
    pub fn tracked_in(&self, x: &Symbol) -> Option<RegionId> {
        self.regions
            .iter()
            .find(|(_, c)| c.vars.contains_key(x))
            .map(|(r, _)| *r)
    }

    /// Looks up the tracked target of `x.f`, if `x` is focused and `f`
    /// tracked.
    pub fn tracked_field(&self, x: &Symbol, f: &Symbol) -> Option<RegionId> {
        let r = self.tracked_in(x)?;
        self.regions[&r].vars[x].fields.get(f).copied()
    }

    /// Renames every occurrence of region `from` to `to` (used by
    /// V5-Attach and alpha-renaming). Tracked-field targets are renamed
    /// even when dangling.
    pub fn rename_region(&mut self, from: RegionId, to: RegionId) {
        if from == to || !self.mentions(|r| r == from) {
            return;
        }
        let regions = Arc::make_mut(&mut self.regions);
        if let Some(ctx) = regions.remove(&from) {
            // Merge tracking contexts when `to` already exists.
            match regions.get_mut(&to) {
                Some(dst) => {
                    dst.pinned = dst.pinned || ctx.pinned;
                    for (x, vt) in ctx.vars {
                        dst.vars.insert(x, vt);
                    }
                }
                None => {
                    regions.insert(to, ctx);
                }
            }
        }
        for ctx in regions.values_mut() {
            for vt in ctx.vars.values_mut() {
                for target in vt.fields.values_mut() {
                    if *target == from {
                        *target = to;
                    }
                }
            }
        }
    }

    /// Applies a simultaneous renaming to all regions and field targets.
    pub fn rename_all(&mut self, map: &BTreeMap<RegionId, RegionId>) {
        if !self.mentions(|r| map.contains_key(&r)) {
            return;
        }
        let old = Arc::unwrap_or_clone(std::mem::take(&mut self.regions));
        let regions = Arc::make_mut(&mut self.regions);
        for (r, mut ctx) in old {
            for vt in ctx.vars.values_mut() {
                for target in vt.fields.values_mut() {
                    if let Some(new) = map.get(target) {
                        *target = *new;
                    }
                }
            }
            let new_r = map.get(&r).copied().unwrap_or(r);
            let prev = regions.insert(new_r, ctx);
            assert!(prev.is_none(), "renaming collided on {new_r}");
        }
    }

    /// All region ids mentioned anywhere (capabilities and field targets).
    pub fn mentioned_regions(&self) -> Vec<RegionId> {
        let mut out: Vec<RegionId> = self.regions.keys().copied().collect();
        out.extend(self.field_targets());
        out.sort();
        out.dedup();
        out
    }

    /// Whether some capability or tracked-field target satisfies `pred`.
    fn mentions(&self, pred: impl FnMut(RegionId) -> bool) -> bool {
        self.regions
            .keys()
            .copied()
            .chain(self.field_targets())
            .any(pred)
    }

    /// Every tracked-field target, dangling ones included.
    fn field_targets(&self) -> impl Iterator<Item = RegionId> + '_ {
        self.regions
            .values()
            .flat_map(|ctx| ctx.vars.values())
            .flat_map(|vt| vt.fields.values().copied())
    }
}

impl fmt::Display for HeapCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (r, ctx) in self.regions.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{r}{}⟨", if ctx.pinned { "°" } else { "" })?;
            let mut vfirst = true;
            for (x, vt) in &ctx.vars {
                if !vfirst {
                    write!(f, ", ")?;
                }
                vfirst = false;
                write!(f, "{x}{}[", if vt.pinned { "°" } else { "" })?;
                let mut ffirst = true;
                for (fld, target) in &vt.fields {
                    if !ffirst {
                        write!(f, ", ")?;
                    }
                    ffirst = false;
                    write!(f, "{fld} ↦ {target}")?;
                }
                write!(f, "]")?;
            }
            write!(f, "⟩")?;
        }
        if first {
            write!(f, "·")?;
        }
        Ok(())
    }
}

/// A variable binding in `Γ`: its region (for reference types) and type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Binding {
    /// Region of the bound value; `None` for value types (`int`, `bool`,
    /// `unit`, and maybes thereof), which are copied freely.
    pub region: Option<RegionId>,
    /// The declared/inferred type.
    pub ty: Type,
}

/// The variable typing context `Γ`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct VarCtx {
    vars: Arc<BTreeMap<Symbol, Binding>>,
}

impl VarCtx {
    /// Creates an empty variable context.
    pub fn new() -> Self {
        VarCtx::default()
    }

    /// Looks up a binding.
    pub fn get(&self, x: &Symbol) -> Option<&Binding> {
        self.vars.get(x)
    }

    /// Whether `x` is bound.
    pub fn contains(&self, x: &Symbol) -> bool {
        self.vars.contains_key(x)
    }

    /// Binds `x` (shadowing is rejected by the checker before calling
    /// this, since well-formed contexts have no duplicate bindings).
    pub fn bind(&mut self, x: Symbol, binding: Binding) {
        Arc::make_mut(&mut self.vars).insert(x, binding);
    }

    /// Removes a binding (scope exit), returning it.
    pub fn unbind(&mut self, x: &Symbol) -> Option<Binding> {
        if !self.contains(x) {
            return None;
        }
        Arc::make_mut(&mut self.vars).remove(x)
    }

    /// Re-binds an existing variable to a new region.
    pub fn set_region(&mut self, x: &Symbol, region: Option<RegionId>) {
        if self.get(x).is_some_and(|b| b.region != region) {
            if let Some(b) = Arc::make_mut(&mut self.vars).get_mut(x) {
                b.region = region;
            }
        }
    }

    /// Iterates over bindings in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&Symbol, &Binding)> {
        self.vars.iter()
    }

    /// The variables bound to region `r`.
    pub fn vars_in_region(&self, r: RegionId) -> Vec<Symbol> {
        self.vars
            .iter()
            .filter(|(_, b)| b.region == Some(r))
            .map(|(x, _)| x.clone())
            .collect()
    }

    /// Renames regions per `map` in all bindings.
    pub fn rename_all(&mut self, map: &BTreeMap<RegionId, RegionId>) {
        self.rename_where(|r| map.get(&r).copied());
    }

    /// Renames one region in all bindings.
    pub fn rename_region(&mut self, from: RegionId, to: RegionId) {
        self.rename_where(|r| (r == from).then_some(to));
    }

    /// Replaces each binding region `r` by `rename(r)` where that is
    /// `Some`. The map is copied only when some binding really changes.
    fn rename_where(&mut self, rename: impl Fn(RegionId) -> Option<RegionId>) {
        let changes = |b: &Binding| {
            b.region
                .and_then(&rename)
                .filter(|new| b.region != Some(*new))
        };
        if !self.vars.values().any(|b| changes(b).is_some()) {
            return;
        }
        for b in Arc::make_mut(&mut self.vars).values_mut() {
            if let Some(new) = changes(b) {
                b.region = Some(new);
            }
        }
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the context is empty.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }
}

impl fmt::Display for VarCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (x, b) in self.vars.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            match b.region {
                Some(r) => write!(f, "{x} : {r} {}", b.ty)?,
                None => write!(f, "{x} : {}", b.ty)?,
            }
        }
        if first {
            write!(f, "·")?;
        }
        Ok(())
    }
}

/// A full static state: the pair `(H; Γ)` plus the fresh-region counter.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TypeState {
    /// The heap context `H`.
    pub heap: HeapCtx,
    /// The variable context `Γ`.
    pub gamma: VarCtx,
    /// Next fresh region id.
    pub next_region: u32,
}

impl TypeState {
    /// Creates an empty state.
    pub fn new() -> Self {
        TypeState::default()
    }

    /// Draws a fresh region id.
    pub fn fresh_region(&mut self) -> RegionId {
        let r = RegionId(self.next_region);
        self.next_region += 1;
        r
    }

    /// Renders the static context as a Graphviz DOT graph: region nodes
    /// (boxes listing their tracked variables), tracked-field edges between
    /// regions, and variable-binding edges from an implicit stack node.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(
            "digraph contexts {
  rankdir=LR;
",
        );
        for (r, ctx) in self.heap.iter() {
            let vars: Vec<String> = ctx
                .vars
                .iter()
                .map(|(x, vt)| {
                    let fields: Vec<String> =
                        vt.fields.iter().map(|(f, t)| format!("{f}↦{t}")).collect();
                    format!("{x}[{}]", fields.join(","))
                })
                .collect();
            let pin = if ctx.pinned { "°" } else { "" };
            let _ = writeln!(
                out,
                "  {r} [shape=box, label=\"{r}{pin} <{}>\"];",
                vars.join(" ")
            );
            for (x, vt) in &ctx.vars {
                for (f, t) in &vt.fields {
                    if self.heap.contains(*t) {
                        let _ = writeln!(out, "  {r} -> {t} [label=\"{x}.{f}\"];");
                    } else {
                        let _ = writeln!(
                            out,
                            "  {r} -> dangling_{t} [label=\"{x}.{f}\", style=dashed];"
                        );
                        let _ = writeln!(out, "  dangling_{t} [label=\"X\", shape=plaintext];");
                    }
                }
            }
        }
        let _ = writeln!(out, "  stack [shape=plaintext, label=\"Gamma\"];");
        for (x, b) in self.gamma.iter() {
            if let Some(r) = b.region {
                if self.heap.contains(r) {
                    let _ = writeln!(out, "  stack -> {r} [label=\"{x}\", color=gray];");
                }
            }
        }
        out.push_str(
            "}
",
        );
        out
    }

    /// Checks structural well-formedness: tracked variables must be bound in
    /// `Γ` to the region tracking them.
    pub fn well_formed(&self) -> Result<(), String> {
        for (r, ctx) in self.heap.iter() {
            for x in ctx.vars.keys() {
                match self.gamma.get(x) {
                    Some(b) if b.region == Some(r) => {}
                    Some(b) => {
                        return Err(format!(
                            "tracked variable {x} is bound to {:?}, not {r}",
                            b.region
                        ))
                    }
                    None => return Err(format!("tracked variable {x} is not bound in Γ")),
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for TypeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}; {}", self.heap, self.gamma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s)
    }

    /// Whether two states share both maps' allocations.
    fn shares(a: &TypeState, b: &TypeState) -> bool {
        Arc::ptr_eq(&a.heap.regions, &b.heap.regions) && Arc::ptr_eq(&a.gamma.vars, &b.gamma.vars)
    }

    /// `r0⟨l[hd ↦ r1]⟩, r1⟨⟩, r2°⟨⟩; l : r0 sll, d : r2 data, n : int`.
    fn sample() -> TypeState {
        let mut st = TypeState::new();
        let [r0, r1, r2] = [st.fresh_region(), st.fresh_region(), st.fresh_region()];
        let mut vt = VarTrack::default();
        vt.fields.insert(sym("hd"), r1);
        let mut ctx = TrackCtx::empty();
        ctx.vars.insert(sym("l"), vt);
        st.heap.insert(r0, ctx);
        st.heap.insert(r1, TrackCtx::empty());
        st.heap.insert(
            r2,
            TrackCtx {
                pinned: true,
                ..TrackCtx::default()
            },
        );
        for (x, region, ty) in [
            ("l", Some(r0), Type::named("sll")),
            ("d", Some(r2), Type::named("data")),
            ("n", None, Type::Int),
        ] {
            st.gamma.bind(sym(x), Binding { region, ty });
        }
        st
    }

    type Mutator = (&'static str, fn(&mut TypeState));
    const R0: RegionId = RegionId(0);
    const R1: RegionId = RegionId(1);
    const R2: RegionId = RegionId(2);
    const R9: RegionId = RegionId(9);
    const R42: RegionId = RegionId(42);

    #[test]
    fn mutators_leave_earlier_clones_unchanged() {
        let mutators: [Mutator; 10] = [
            ("heap.insert", |st| st.heap.insert(R9, TrackCtx::empty())),
            ("heap.remove", |st| drop(st.heap.remove(R1))),
            ("heap.tracking_mut", |st| {
                st.heap.tracking_mut(R0).unwrap().pinned = true;
            }),
            ("heap.rename_region", |st| st.heap.rename_region(R1, R9)),
            ("heap.rename_all", |st| {
                st.heap.rename_all(&BTreeMap::from([(R0, R9)]));
            }),
            ("gamma.bind", |st| {
                let b = Binding {
                    region: None,
                    ty: Type::Bool,
                };
                st.gamma.bind(sym("b"), b);
            }),
            ("gamma.unbind", |st| drop(st.gamma.unbind(&sym("n")))),
            ("gamma.set_region", |st| {
                st.gamma.set_region(&sym("d"), Some(R1));
            }),
            ("gamma.rename_region", |st| st.gamma.rename_region(R2, R9)),
            ("gamma.rename_all", |st| {
                st.gamma.rename_all(&BTreeMap::from([(R2, R9)]));
            }),
        ];
        for (name, mutate) in mutators {
            let mut st = sample();
            let before = st.clone();
            let snapshot = format!("{before:?}");
            mutate(&mut st);
            assert_ne!(st, before, "{name} changed nothing");
            assert!(!shares(&st, &before), "{name} wrote through a shared map");
            assert_eq!(format!("{before:?}"), snapshot, "{name} changed a clone");
            assert_eq!(before, sample(), "{name} changed a clone");
        }
    }

    #[test]
    fn mutators_that_change_nothing_keep_sharing() {
        let noops: [Mutator; 7] = [
            ("heap.remove of an absent region", |st| {
                assert!(st.heap.remove(R42).is_none());
            }),
            ("heap.rename_region of an unmentioned id", |st| {
                st.heap.rename_region(R42, R1);
            }),
            ("heap.rename_region onto itself", |st| {
                st.heap.rename_region(R0, R0);
            }),
            ("heap.rename_all with no match", |st| {
                st.heap.rename_all(&BTreeMap::from([(R42, R1)]));
            }),
            ("gamma.set_region to the same region", |st| {
                st.gamma.set_region(&sym("l"), Some(R0));
            }),
            ("gamma.rename_region with no match", |st| {
                st.gamma.rename_region(R42, R1);
            }),
            ("gamma.rename_all with no match", |st| {
                st.gamma.rename_all(&BTreeMap::from([(R42, R1)]));
            }),
        ];
        for (name, mutate) in noops {
            let mut st = sample();
            let before = st.clone();
            mutate(&mut st);
            assert!(shares(&st, &before), "{name} copied a map");
            assert_eq!(st, before, "{name} changed the state");
        }
    }

    #[test]
    fn heap_ctx_insert_remove() {
        let mut h = HeapCtx::new();
        h.insert(RegionId(0), TrackCtx::empty());
        assert!(h.contains(RegionId(0)));
        assert!(!h.contains(RegionId(1)));
        assert!(h.remove(RegionId(0)).is_some());
        assert!(h.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate region")]
    fn heap_ctx_rejects_duplicates() {
        let mut h = HeapCtx::new();
        h.insert(RegionId(0), TrackCtx::empty());
        h.insert(RegionId(0), TrackCtx::empty());
    }

    #[test]
    fn tracked_field_lookup() {
        let mut h = HeapCtx::new();
        let mut ctx = TrackCtx::empty();
        let mut vt = VarTrack::default();
        vt.fields.insert(sym("next"), RegionId(7));
        ctx.vars.insert(sym("n"), vt);
        h.insert(RegionId(1), ctx);
        h.insert(RegionId(7), TrackCtx::empty());
        assert_eq!(h.tracked_in(&sym("n")), Some(RegionId(1)));
        assert_eq!(h.tracked_field(&sym("n"), &sym("next")), Some(RegionId(7)));
        assert_eq!(h.tracked_field(&sym("n"), &sym("prev")), None);
    }

    #[test]
    fn rename_region_rewrites_targets() {
        let mut h = HeapCtx::new();
        let mut ctx = TrackCtx::empty();
        let mut vt = VarTrack::default();
        vt.fields.insert(sym("f"), RegionId(2));
        ctx.vars.insert(sym("x"), vt);
        h.insert(RegionId(1), ctx);
        h.insert(RegionId(2), TrackCtx::empty());
        h.rename_region(RegionId(2), RegionId(9));
        assert!(h.contains(RegionId(9)));
        assert!(!h.contains(RegionId(2)));
        assert_eq!(h.tracked_field(&sym("x"), &sym("f")), Some(RegionId(9)));
    }

    #[test]
    fn rename_merges_tracking_contexts() {
        let mut h = HeapCtx::new();
        let mut c1 = TrackCtx::empty();
        c1.vars.insert(sym("x"), VarTrack::default());
        let mut c2 = TrackCtx::empty();
        c2.vars.insert(sym("y"), VarTrack::default());
        h.insert(RegionId(1), c1);
        h.insert(RegionId(2), c2);
        h.rename_region(RegionId(1), RegionId(2));
        let merged = h.tracking(RegionId(2)).unwrap();
        assert_eq!(merged.vars.len(), 2);
    }

    #[test]
    fn well_formedness_catches_unbound_tracked_var() {
        let mut st = TypeState::new();
        let r = st.fresh_region();
        let mut ctx = TrackCtx::empty();
        ctx.vars.insert(sym("ghost"), VarTrack::default());
        st.heap.insert(r, ctx);
        assert!(st.well_formed().is_err());
        st.gamma.bind(
            sym("ghost"),
            Binding {
                region: Some(r),
                ty: Type::named("s"),
            },
        );
        assert!(st.well_formed().is_ok());
    }

    #[test]
    fn display_renders_tracking_contexts() {
        let mut st = TypeState::new();
        let r = st.fresh_region();
        let rf = st.fresh_region();
        let mut vt = VarTrack::default();
        vt.fields.insert(sym("hd"), rf);
        let mut ctx = TrackCtx::empty();
        ctx.vars.insert(sym("l"), vt);
        st.heap.insert(r, ctx);
        st.heap.insert(rf, TrackCtx::empty());
        let shown = st.heap.to_string();
        assert!(shown.contains("hd ↦ r1"), "got {shown}");
    }

    #[test]
    fn to_dot_renders_regions_and_edges() {
        let mut st = TypeState::new();
        let r = st.fresh_region();
        let rf = st.fresh_region();
        let mut vt = VarTrack::default();
        vt.fields.insert(sym("hd"), rf);
        let mut ctx = TrackCtx::empty();
        ctx.vars.insert(sym("l"), vt);
        st.heap.insert(r, ctx);
        st.heap.insert(rf, TrackCtx::empty());
        st.gamma.bind(
            sym("l"),
            Binding {
                region: Some(r),
                ty: Type::named("dll"),
            },
        );
        let dot = st.to_dot();
        assert!(dot.contains("digraph contexts"));
        assert!(dot.contains("r0 -> r1"), "{dot}");
        assert!(dot.contains("l.hd"), "{dot}");
        assert!(dot.contains("stack -> r0"), "{dot}");
    }

    #[test]
    fn vars_in_region() {
        let mut g = VarCtx::new();
        g.bind(
            sym("a"),
            Binding {
                region: Some(RegionId(1)),
                ty: Type::named("s"),
            },
        );
        g.bind(
            sym("b"),
            Binding {
                region: Some(RegionId(1)),
                ty: Type::named("s"),
            },
        );
        g.bind(
            sym("c"),
            Binding {
                region: None,
                ty: Type::Int,
            },
        );
        assert_eq!(g.vars_in_region(RegionId(1)).len(), 2);
    }
}
