//! `fearless-flow`: static domination/escape dataflow analysis.
//!
//! The dynamic domination sanitizer (ROADMAP item 4, experiment E11)
//! re-walks reachable heaps after *every* machine step, costing ~19x.
//! This crate proves, ahead of time, that most steps cannot move a
//! domination frontier at all: it classifies every `(function, pc)` of a
//! compiled program as [`StepSafety::Safe`], [`StepSafety::RegionLocal`],
//! or [`StepSafety::Unknown`] (see `classify.rs` for the abstract
//! interpretation and its conservatism) and packages the result as a
//! [`ProgramFlow`] of per-function [`FnSummary`]s.
//!
//! Three consumers sit downstream:
//!
//! * the runtime's [`fearless_runtime::FlowIndex`] (built by
//!   [`ProgramFlow::index`]) lets the sanitizer skip walks on `Safe`
//!   steps and re-check only dirtied neighborhoods on `RegionLocal` ones;
//! * the FA005–FA007 lints in `fearless-analyze` combine these summaries
//!   (notably the [`FnSummary::heap_quiet`] closure) with the checker's
//!   `FlowFacts`;
//! * `fearlessc flow` dumps the summaries as deterministic JSON
//!   ([`ProgramFlow::to_json`], schema `fearless-flow/1`), warm-cached
//!   through [`FlowCache`] keyed by the checker's function fingerprints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod classify;

use std::collections::{BTreeMap, BTreeSet};

use fearless_core::{program_fingerprints, CheckedProgram, CheckerOptions, TypeError};
use fearless_runtime::{compile, CompiledProgram, FlowIndex, Inst, StepSafety};
use fearless_trace::Json;

pub use cache::{FlowCache, FlowTable, CACHE_FILE, CACHE_SCHEMA};

/// Schema tag of the flow-facts JSON document.
pub const SCHEMA: &str = "fearless-flow/1";

/// Schema tag of the multi-entry corpus document (`fearlessc flow
/// --corpus`).
pub const CORPUS_SCHEMA: &str = "fearless-flow-corpus/1";

/// The flow analysis result for one function.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FnSummary {
    /// Function name.
    pub name: String,
    /// One verdict per pc of the compiled function.
    pub safety: Vec<StepSafety>,
    /// Whether the function's *own* code never mutates the heap or
    /// moves values across threads (no `WriteField`, `TakeField`,
    /// `New`, `Send`, `Recv`).
    pub local_heap_quiet: bool,
    /// [`FnSummary::local_heap_quiet`] closed over the call graph: the
    /// function *and everything it can call* is heap-quiet.
    pub heap_quiet: bool,
    /// Names of directly called functions, sorted and deduplicated.
    pub callees: Vec<String>,
}

impl FnSummary {
    /// `(safe, region_local, unknown)` verdict counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for s in &self.safety {
            match s {
                StepSafety::Safe => c.0 += 1,
                StepSafety::RegionLocal => c.1 += 1,
                StepSafety::Unknown => c.2 += 1,
            }
        }
        c
    }

    /// The compact per-pc encoding (`S`/`R`/`U`, one char per pc).
    pub fn safety_string(&self) -> String {
        self.safety.iter().map(|s| s.code()).collect()
    }
}

/// The flow analysis result for a whole program: one [`FnSummary`] per
/// compiled function, in definition order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ProgramFlow {
    /// Per-function summaries, parallel to `CompiledProgram::funcs`.
    pub funcs: Vec<FnSummary>,
}

impl ProgramFlow {
    /// Builds the runtime-facing index the sanitizer consults.
    pub fn index(&self) -> FlowIndex {
        FlowIndex::new(self.funcs.iter().map(|f| f.safety.clone()).collect())
    }

    /// Looks up a function's summary by name.
    pub fn summary(&self, name: &str) -> Option<&FnSummary> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Whether `name` is heap-quiet under the call-graph closure.
    /// Unknown functions answer `false` (conservative).
    pub fn heap_quiet(&self, name: &str) -> bool {
        self.summary(name).is_some_and(|f| f.heap_quiet)
    }

    /// Total `(safe, region_local, unknown)` counts across functions.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for f in &self.funcs {
            let c = f.counts();
            t.0 += c.0;
            t.1 += c.1;
            t.2 += c.2;
        }
        t
    }

    /// The deterministic JSON document (schema [`SCHEMA`]).
    pub fn to_json_value(&self) -> Json {
        let funcs = self
            .funcs
            .iter()
            .map(|f| {
                let (safe, region_local, unknown) = f.counts();
                Json::obj([
                    ("name", Json::str(f.name.clone())),
                    ("safety", Json::str(f.safety_string())),
                    ("safe", Json::U64(safe as u64)),
                    ("region_local", Json::U64(region_local as u64)),
                    ("unknown", Json::U64(unknown as u64)),
                    ("local_heap_quiet", Json::Bool(f.local_heap_quiet)),
                    ("heap_quiet", Json::Bool(f.heap_quiet)),
                    (
                        "callees",
                        Json::Arr(f.callees.iter().map(|c| Json::str(c.clone())).collect()),
                    ),
                ])
            })
            .collect();
        let (safe, region_local, unknown) = self.counts();
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("funcs", Json::Arr(funcs)),
            (
                "totals",
                Json::obj([
                    ("functions", Json::U64(self.funcs.len() as u64)),
                    ("safe", Json::U64(safe as u64)),
                    ("region_local", Json::U64(region_local as u64)),
                    ("unknown", Json::U64(unknown as u64)),
                ]),
            ),
        ])
    }

    /// [`ProgramFlow::to_json_value`], rendered (byte-deterministic).
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}

/// Sorted, deduplicated names of functions `func` calls directly.
fn direct_callees(program: &CompiledProgram, func: usize) -> Vec<String> {
    let mut out: BTreeSet<String> = BTreeSet::new();
    for inst in &program.funcs[func].code {
        if let Inst::Call(f) = inst {
            if let Some(callee) = program.funcs.get(*f as usize) {
                out.insert(callee.name.to_string());
            }
        }
    }
    out.into_iter().collect()
}

/// Whether `func`'s own code is heap-quiet (ignoring callees).
fn local_heap_quiet(program: &CompiledProgram, func: usize) -> bool {
    !program.funcs[func].code.iter().any(|i| {
        matches!(
            i,
            Inst::WriteField(_)
                | Inst::TakeField(_)
                | Inst::New { .. }
                | Inst::Send(_)
                | Inst::Recv(_)
        )
    })
}

/// Closes `local_heap_quiet` over the call graph: a function is quiet
/// iff its own code is quiet and every callee is quiet. Decreasing
/// fixpoint, so recursion and cycles resolve conservatively.
fn close_heap_quiet(funcs: &mut [FnSummary]) {
    loop {
        let quiet: BTreeMap<String, bool> = funcs
            .iter()
            .map(|f| (f.name.clone(), f.heap_quiet))
            .collect();
        let mut changed = false;
        for f in funcs.iter_mut() {
            if !f.heap_quiet {
                continue;
            }
            let callees_quiet = f
                .callees
                .iter()
                .all(|c| quiet.get(c).copied().unwrap_or(false));
            if !callees_quiet {
                f.heap_quiet = false;
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

/// Analyzes an already-compiled program.
pub fn analyze_compiled(program: &CompiledProgram) -> ProgramFlow {
    let mut funcs: Vec<FnSummary> = (0..program.funcs.len())
        .map(|i| {
            let local = local_heap_quiet(program, i);
            FnSummary {
                name: program.funcs[i].name.to_string(),
                safety: classify::classify_fn(program, i),
                local_heap_quiet: local,
                heap_quiet: local,
                callees: direct_callees(program, i),
            }
        })
        .collect();
    close_heap_quiet(&mut funcs);
    ProgramFlow { funcs }
}

/// Compiles and analyzes a checked program.
///
/// # Errors
///
/// Propagates compilation failures (which cannot happen for programs the
/// checker accepted, but the compiler's signature is honest about it).
pub fn analyze_checked(checked: &CheckedProgram) -> Result<ProgramFlow, TypeError> {
    Ok(analyze_compiled(&compile(&checked.program)?))
}

/// Checks, compiles, and analyzes source text.
///
/// # Errors
///
/// Returns the checker's (or compiler's) rendered error.
pub fn analyze_source(src: &str, options: &CheckerOptions) -> Result<ProgramFlow, String> {
    let checked = fearless_core::check_source(src, options).map_err(|e| e.to_string())?;
    analyze_checked(&checked).map_err(|e| e.to_string())
}

/// Like [`analyze_checked`], but consults (and fills) `cache`: functions
/// whose checker fingerprint is present are decoded from the cache
/// instead of re-running the per-function fixpoint. Warm and cold runs
/// produce byte-identical [`ProgramFlow::to_json`] output.
///
/// The fingerprint covers everything a summary reads: the function's
/// code, its callees' signatures and the struct layouts it can reach
/// (the `cache` module says why). An edit to a callee's body leaves a
/// caller's key alone; an edit to its signature re-keys every caller.
///
/// # Errors
///
/// Propagates compilation or fingerprinting failures.
pub fn analyze_checked_cached(
    checked: &CheckedProgram,
    cache: &mut FlowCache,
) -> Result<ProgramFlow, TypeError> {
    let compiled = compile(&checked.program)?;
    // Compiled functions are in definition order, as are fingerprints.
    let fps = program_fingerprints(&checked.program, &checked.options)?;
    let mut funcs: Vec<FnSummary> = Vec::with_capacity(compiled.funcs.len());
    for (i, (_, fp)) in fps.into_iter().enumerate() {
        let name = compiled.funcs[i].name.to_string();
        if let Some(summary) = cache.lookup(fp, &name) {
            funcs.push(summary);
            continue;
        }
        let local = local_heap_quiet(&compiled, i);
        let summary = FnSummary {
            name,
            safety: classify::classify_fn(&compiled, i),
            local_heap_quiet: local,
            heap_quiet: local,
            callees: direct_callees(&compiled, i),
        };
        cache.put((fp, cache::CachedSummary::of(&summary)));
        funcs.push(summary);
    }
    // The closure is cross-function state, so it is recomputed from the
    // (cached or fresh) local flags rather than stored.
    for f in funcs.iter_mut() {
        f.heap_quiet = f.local_heap_quiet;
    }
    close_heap_quiet(&mut funcs);
    Ok(ProgramFlow { funcs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow_of(src: &str) -> ProgramFlow {
        analyze_source(src, &CheckerOptions::default()).unwrap_or_else(|e| panic!("{e}"))
    }

    const LIST: &str = "struct data { value: int }
        struct sll_node { iso payload : data; iso next : sll_node? }
        struct sll { iso hd : sll_node? }
        struct pair { first : data; second : data }
        def set_value(d : data) : unit { d.value = 7; }
        def relink(p : pair, d : data) : unit consumes d { p.first = d; }
        def sever(l : sll) : unit {
          let some(n) = take(l.hd) in { l.hd = some(n); } else { unit; };
          unit
        }
        def fresh(d : data) : pair consumes d { new pair(d, d) }
        def scalar_only() : int { 1 + 2 }
        def quiet_reader(p : pair) : data after: p ~ result { p.first }
        def quiet_caller(p : pair) : data after: p ~ result { quiet_reader(p) }
        def noisy_caller(d : data) : unit { set_value(d); }";

    #[test]
    fn scalar_write_is_safe_ref_write_is_region_local_iso_write_is_unknown() {
        let flow = flow_of(LIST);
        let set = flow.summary("set_value").expect("summary");
        assert!(
            set.safety.contains(&StepSafety::Safe) && !set.safety.contains(&StepSafety::Unknown),
            "scalar write: {:?}",
            set.safety
        );
        let relink = flow.summary("relink").expect("summary");
        assert!(
            relink.safety.contains(&StepSafety::RegionLocal),
            "non-iso ref write: {:?}",
            relink.safety
        );
        let sever = flow.summary("sever").expect("summary");
        assert!(
            sever.safety.contains(&StepSafety::Unknown),
            "iso write keeps the full walk: {:?}",
            sever.safety
        );
        assert!(
            sever.safety.contains(&StepSafety::RegionLocal),
            "take is region-local: {:?}",
            sever.safety
        );
    }

    #[test]
    fn allocation_with_ref_fields_is_region_local() {
        let flow = flow_of(LIST);
        let fresh = flow.summary("fresh").expect("summary");
        assert!(fresh.safety.contains(&StepSafety::RegionLocal));
        assert!(!fresh.safety.contains(&StepSafety::Unknown));
    }

    #[test]
    fn heap_quiet_closes_over_the_call_graph() {
        let flow = flow_of(LIST);
        assert!(flow.heap_quiet("scalar_only"));
        assert!(flow.heap_quiet("quiet_reader"));
        assert!(flow.heap_quiet("quiet_caller"), "quiet callee stays quiet");
        assert!(!flow.heap_quiet("set_value"));
        let noisy = flow.summary("noisy_caller").expect("summary");
        assert!(noisy.local_heap_quiet, "noisy_caller's own code only calls");
        assert!(!noisy.heap_quiet, "noise propagates up the call graph");
        assert!(!flow.heap_quiet("absent_function"), "unknown is not quiet");
    }

    #[test]
    fn json_is_deterministic_and_tagged() {
        let a = flow_of(LIST).to_json();
        let b = flow_of(LIST).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"fearless-flow/1\""));
        assert!(fearless_trace::parse_json(&a).is_some(), "round-trips");
    }

    #[test]
    fn index_matches_summaries() {
        let flow = flow_of(LIST);
        let index = flow.index();
        assert_eq!(index.fn_count(), flow.funcs.len());
        let (s, r, u) = flow.counts();
        assert_eq!(index.counts(), (s, r, u));
    }
}
