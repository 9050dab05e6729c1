//! # fearless-analyze
//!
//! Derivation-driven static analysis over checked programs. The prover
//! (`fearless-core`) emits full typing derivations; this crate mines them —
//! together with re-checking experiments — for facts the checker itself
//! never reports:
//!
//! * **FA001 `redundant-vir`** — virtual-transformation steps whose elision
//!   still replays cleanly through the trusted verifier. The per-kind
//!   redundancy profile feeds back into search as [`SearchHints`].
//! * **FA002 `over-strong-annotation`** — signature annotations (`pinned`,
//!   `before` relations, `consumes`) and `iso` field declarations the
//!   program still checks without.
//! * **FA003 `dead-region`** — regions discharged by affine weakening that
//!   were never pinned, focused, attached, or otherwise used.
//! * **FA004 `unused-tracking`** — focus/unfocus pairs with no tracked-field
//!   operation in between.
//! * **FA005 `iso-escape`** — a taken `iso` subgraph is sent away while the
//!   severed field is never re-established in the same function.
//! * **FA006 `provably-redundant-dynamic-check`** — an `if disconnected`
//!   repeated in the else branch of an identical check with no heap
//!   mutation in between (resolved through the `fearless-flow` summaries).
//! * **FA007 `unreachable-disconnect-branch`** — `if disconnected(x, x)`,
//!   whose then-branch can never execute.
//!
//! Every lint carries a stable code, a severity, a source span, and renders
//! both as a human-readable diagnostic (via [`fearless_syntax::diag`]) and
//! as machine-readable JSON (see [`AnalysisReport::to_json`]).
//!
//! ## Example
//!
//! ```
//! use fearless_analyze::analyze_source;
//! use fearless_core::CheckerOptions;
//!
//! let report = analyze_source(
//!     "struct data { value: int }
//!      def peek(d: data) : int pinned d { d.value }",
//!     &CheckerOptions::default(),
//! )?;
//! // `pinned d` is unnecessary: the function checks without it.
//! assert!(report.lints.iter().any(|l| l.code.code() == "FA002"));
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]

mod annotations;
mod flow_lints;
mod json;
mod redundant;
mod regions;

use std::collections::BTreeMap;

use fearless_core::{CheckedProgram, CheckerOptions, SearchHints, VirKind};
use fearless_syntax::diag::render_lint;
use fearless_syntax::{Program, Severity, Span};

/// Stable identifiers for the analysis passes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LintCode {
    /// FA001: a virtual step the derivation does not need.
    RedundantVir,
    /// FA002: an annotation the program checks without.
    OverStrongAnnotation,
    /// FA003: a region weakened away without ever being used.
    DeadRegion,
    /// FA004: a focus/unfocus pair with no tracked-field operation between.
    UnusedTracking,
    /// FA005: a taken `iso` subgraph escapes by `send` with the severed
    /// field never re-established.
    IsoEscape,
    /// FA006: a dynamic `disconnected` walk the flow facts prove redundant.
    RedundantDynamicCheck,
    /// FA007: an `if disconnected` arm the graph proves dead.
    UnreachableDisconnectBranch,
}

impl LintCode {
    /// The stable code, e.g. `"FA001"`.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::RedundantVir => "FA001",
            LintCode::OverStrongAnnotation => "FA002",
            LintCode::DeadRegion => "FA003",
            LintCode::UnusedTracking => "FA004",
            LintCode::IsoEscape => "FA005",
            LintCode::RedundantDynamicCheck => "FA006",
            LintCode::UnreachableDisconnectBranch => "FA007",
        }
    }

    /// The human-readable pass name, e.g. `"redundant-vir"`.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::RedundantVir => "redundant-vir",
            LintCode::OverStrongAnnotation => "over-strong-annotation",
            LintCode::DeadRegion => "dead-region",
            LintCode::UnusedTracking => "unused-tracking",
            LintCode::IsoEscape => "iso-escape",
            LintCode::RedundantDynamicCheck => "provably-redundant-dynamic-check",
            LintCode::UnreachableDisconnectBranch => "unreachable-disconnect-branch",
        }
    }
}

impl std::fmt::Display for LintCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// One finding: a stable code, a severity, the function it concerns, a
/// source span, and a message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Lint {
    /// Which pass produced the finding.
    pub code: LintCode,
    /// Diagnostic severity.
    pub severity: Severity,
    /// The function the finding concerns (absent for struct-level lints).
    pub func: Option<String>,
    /// Source location the finding points at.
    pub span: Span,
    /// What was found.
    pub message: String,
}

/// Aggregate statistics collected while analyzing.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AnalysisStats {
    /// Functions analyzed.
    pub functions: usize,
    /// Total virtual steps across all derivations.
    pub vir_steps: usize,
    /// Virtual steps per kind.
    pub vir_totals: BTreeMap<VirKind, usize>,
    /// Redundant (elidable) virtual steps per kind, as confirmed by the
    /// verifier.
    pub vir_redundant: BTreeMap<VirKind, usize>,
    /// FA002 annotation-removal probes run (each probes one deletion).
    pub recheck_experiments: usize,
    /// Functions FA002 probes fingerprinted: the dirty functions they
    /// reached before a verdict (not part of the JSON report, nor are the
    /// counters below).
    pub recheck_fingerprints: u64,
    /// Dirty functions answered from a verdict an earlier probe already
    /// derived for the same fingerprint.
    pub recheck_cache_hits: u64,
    /// Dirty functions the probes re-derived.
    pub recheck_cache_misses: u64,
    /// Whole-program environment rebuilds the probes ran. None do: an
    /// annotation probe patches one signature and an `iso` flip one
    /// struct, so this stays 0, and CI fails if it ever moves.
    pub recheck_env_builds: u64,
}

/// The result of analyzing one checked program.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AnalysisReport {
    /// All findings, ordered by (function definition order, span, code).
    pub lints: Vec<Lint>,
    /// Aggregate statistics.
    pub stats: AnalysisStats,
}

impl AnalysisReport {
    /// True when no pass found anything.
    pub fn is_clean(&self) -> bool {
        self.lints.is_empty()
    }

    /// Search hints derived from the redundancy profile: virtual-step kinds
    /// where at least half of the observed steps were elidable are demoted,
    /// so future searches try them last (completeness is unaffected — see
    /// `fearless_core::search`).
    pub fn search_hints(&self) -> SearchHints {
        let demote = self
            .stats
            .vir_redundant
            .iter()
            .filter(|(kind, &redundant)| {
                let total = self.stats.vir_totals.get(kind).copied().unwrap_or(0);
                redundant > 0 && redundant * 2 >= total
            })
            .map(|(&kind, _)| kind);
        SearchHints::demoting(demote)
    }

    /// Renders every finding as a human-readable diagnostic with source
    /// excerpts, followed by a one-line summary.
    pub fn render_human(&self, src: &str) -> String {
        let mut out = String::new();
        for lint in &self.lints {
            let message = match &lint.func {
                Some(f) => format!("in `{f}`: {}", lint.message),
                None => lint.message.clone(),
            };
            out.push_str(&render_lint(
                lint.code.code(),
                lint.severity,
                &message,
                lint.span,
                src,
            ));
            out.push('\n');
        }
        out.push_str(&format!(
            "{} finding(s) across {} function(s), {} vir step(s)\n",
            self.lints.len(),
            self.stats.functions,
            self.stats.vir_steps,
        ));
        out
    }

    /// Renders the report as machine-readable JSON. The output is fully
    /// deterministic (lints are sorted, maps are B-tree ordered) so it can
    /// be compared byte-for-byte against golden files.
    pub fn to_json(&self, src: &str) -> String {
        json::report_to_json(self, src)
    }
}

/// Runs every analysis pass over a checked program.
///
/// # Errors
///
/// Returns a message when the global environment cannot be rebuilt (which
/// would indicate a corrupted [`CheckedProgram`]).
pub fn analyze_program(checked: &CheckedProgram) -> Result<AnalysisReport, String> {
    let globals = fearless_core::globals_of(checked).map_err(|e| e.to_string())?;
    let mut report = AnalysisReport::default();
    report.stats.functions = checked.program.funcs.len();
    report.stats.vir_steps = checked.derivations.iter().map(|d| d.vir_steps).sum();

    redundant::run(checked, &globals, &mut report);
    annotations::run(checked, &globals, &mut report);
    regions::run(checked, &mut report);
    flow_lints::run(checked, &mut report);

    // Deterministic order: definition order of the function, then span,
    // then code. Struct-level lints (no function) sort first.
    let func_order: BTreeMap<&str, usize> = checked
        .program
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    report.lints.sort_by_key(|l| {
        let fo = l
            .func
            .as_deref()
            .and_then(|f| func_order.get(f).copied())
            .map_or(0, |i| i + 1);
        (fo, l.span.lo, l.span.hi, l.code)
    });
    Ok(report)
}

/// Each FA002 probe of `checked`, in probe order: the program with that
/// probe's annotation deleted, and the functions (definition indices) the
/// probe re-derives. Not part of the lint; it lets differential tests hold
/// the dirty sets against whole-program fingerprints.
///
/// # Errors
///
/// As [`analyze_program`].
#[doc(hidden)]
pub fn fa002_dirty_sets(checked: &CheckedProgram) -> Result<Vec<(Program, Vec<usize>)>, String> {
    let globals = fearless_core::globals_of(checked).map_err(|e| e.to_string())?;
    Ok(annotations::dirty_sets(checked, &globals))
}

/// Parses, checks, and analyzes source text.
///
/// # Errors
///
/// Returns the rendered type/parse error when the program does not check,
/// or an analysis error message.
pub fn analyze_source(src: &str, options: &CheckerOptions) -> Result<AnalysisReport, String> {
    let checked = fearless_core::check_source(src, options).map_err(|e| e.to_string())?;
    analyze_program(&checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> AnalysisReport {
        analyze_source(src, &CheckerOptions::default()).unwrap()
    }

    #[test]
    fn clean_value_program_has_no_lints() {
        let report = analyze("def add(a: int, b: int) : int { a + b }");
        assert!(report.is_clean(), "{:?}", report.lints);
        assert_eq!(report.stats.functions, 1);
    }

    #[test]
    fn lints_are_sorted_and_json_is_stable() {
        let src = "struct data { value: int }
             def peek(d: data) : int pinned d { d.value }";
        let report = analyze(src);
        let a = report.to_json(src);
        let b = analyze(src).to_json(src);
        assert_eq!(a, b);
        let mut sorted = report.lints.clone();
        sorted.sort_by_key(|l| (l.span.lo, l.span.hi, l.code));
        // Single function: definition order cannot disagree with span order.
        assert_eq!(report.lints, sorted);
    }

    #[test]
    fn search_hints_demote_majority_redundant_kinds() {
        let mut report = AnalysisReport::default();
        report.stats.vir_totals.insert(VirKind::Focus, 4);
        report.stats.vir_redundant.insert(VirKind::Focus, 2);
        report.stats.vir_totals.insert(VirKind::Explore, 4);
        report.stats.vir_redundant.insert(VirKind::Explore, 1);
        let hints = report.search_hints();
        assert!(hints.demote.contains(&VirKind::Focus));
        assert!(!hints.demote.contains(&VirKind::Explore));
    }
}
