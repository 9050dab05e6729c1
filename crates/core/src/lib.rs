//! # fearless-core
//!
//! The region-based type system of *"A Flexible Type System for Fearless
//! Concurrency"* (PLDI 2022): tempered domination, the focus mechanism,
//! virtual transformations, liveness-oracle unification, and expressive
//! function types — implemented as the *prover* half of the paper's
//! prover–verifier architecture (§5). The prover emits full typing
//! derivations that the `fearless-verify` crate replays independently.
//!
//! ## Example
//!
//! ```
//! use fearless_core::{check_source, CheckerOptions};
//!
//! let checked = check_source(
//!     "struct data { value: int }
//!      struct sll_node { iso payload : data; iso next : sll_node? }
//!      def remove_tail(n: sll_node) : data? {
//!        let some(next) = n.next in {
//!          if (is_none(next.next)) {
//!            n.next = none;
//!            some(next.payload)
//!          } else { remove_tail(next) }
//!        } else { none }
//!      }",
//!     &CheckerOptions::default(),
//! ).expect("figure 2 type-checks");
//! assert_eq!(checked.derivations.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod ctx;
pub mod derivation;
pub mod env;
pub mod error;
pub mod fingerprint;
pub mod flowfacts;
pub mod liveness;
pub mod mode;
pub mod search;
pub mod state;
pub mod unify;
pub mod vir;

pub use check::{CheckCounters, CheckCounts};
pub use ctx::{Binding, HeapCtx, RegionId, TrackCtx, TypeState, VarCtx, VarTrack};
pub use derivation::{CallInfo, DerivBuilder, DerivNode, Derivation, Rule, ValInfo};
pub use env::{FnSig, Globals, StructPatch};
pub use error::TypeError;
pub use fingerprint::{fn_deps, fn_fingerprint, program_fingerprints, Fingerprint, FnDeps};
pub use flowfacts::{flow_facts, DisconnectFact, FieldAssignFact, FnFlowFacts, SendFact, TakeFact};
pub use mode::{CheckerMode, CheckerOptions};
pub use search::SearchHints;
pub use vir::{VirKind, VirStep};

use fearless_syntax::{parse_program, Program};

/// A successfully checked program: the validated environment plus one
/// derivation per function.
#[derive(Debug, Clone)]
pub struct CheckedProgram {
    /// The parsed program.
    pub program: Program,
    /// One derivation per function, in definition order.
    pub derivations: Vec<Derivation>,
    /// The options the program was checked under.
    pub options: CheckerOptions,
}

impl CheckedProgram {
    /// Total derivation nodes across all functions.
    pub fn total_nodes(&self) -> usize {
        self.derivations.iter().map(|d| d.len()).sum()
    }

    /// Total virtual-transformation steps across all functions.
    pub fn total_vir_steps(&self) -> usize {
        self.derivations.iter().map(|d| d.vir_steps).sum()
    }

    /// Total backtracking-search states visited across all functions
    /// (zero when the liveness oracle handled every unification).
    pub fn total_search_nodes(&self) -> usize {
        self.derivations.iter().map(|d| d.search_nodes).sum()
    }
}

/// Type-checks a parsed program under `options`.
///
/// # Errors
///
/// Returns the first [`TypeError`] found (environment validation errors
/// first, then per-function body errors in definition order).
pub fn check_program(
    program: &Program,
    options: &CheckerOptions,
) -> Result<CheckedProgram, TypeError> {
    let derivations = derive_all(program, options, &mut fearless_trace::Tracer::off())?;
    Ok(CheckedProgram {
        program: program.clone(),
        derivations,
        options: *options,
    })
}

/// Validates the environment of `program` and derives every function in
/// definition order.
fn derive_all(
    program: &Program,
    options: &CheckerOptions,
    tracer: &mut fearless_trace::Tracer<'_>,
) -> Result<Vec<Derivation>, TypeError> {
    let globals = Globals::build(program, options.mode)?;
    program
        .funcs
        .iter()
        .map(|f| {
            check::check_fn_traced(&globals, options, f, tracer)
                .map_err(|e| e.in_func(f.name.as_str()))
        })
        .collect()
}

/// Parses and type-checks source text.
///
/// # Errors
///
/// Parse errors are converted into [`TypeError`]s carrying the same span.
pub fn check_source(src: &str, options: &CheckerOptions) -> Result<CheckedProgram, TypeError> {
    check_source_traced(src, options, &mut fearless_trace::Tracer::off())
}

/// Like [`check_source`], emitting per-function `check` spans (search,
/// oracle, and virtual-transformation counters) to `tracer`. Tracing is
/// observation-only: the result is identical to [`check_source`]'s.
pub fn check_source_traced(
    src: &str,
    options: &CheckerOptions,
    tracer: &mut fearless_trace::Tracer<'_>,
) -> Result<CheckedProgram, TypeError> {
    let program =
        parse_program(src).map_err(|e| TypeError::new(e.message().to_string(), e.span()))?;
    let derivations = derive_all(&program, options, tracer)?;
    Ok(CheckedProgram {
        program,
        derivations,
        options: *options,
    })
}

/// Rebuilds the validated global environment for a checked program (used
/// by the verifier and runtime, which need struct/signature tables).
pub fn globals_of(checked: &CheckedProgram) -> Result<Globals, TypeError> {
    Globals::build(&checked.program, checked.options.mode)
}
