//! FA002 `over-strong-annotation`: annotations the program checks without.
//!
//! Each candidate annotation — a `pinned` parameter, a `before` region
//! relation, a `consumes` clause, or an `iso` field declaration — is
//! removed (or weakened) in a clone of the program, and the *whole* program
//! is re-checked under the original options. Re-checking everything, not
//! just the annotated function, means callers are validated too: a reported
//! annotation can really be deleted. `after` relations are skipped — they
//! are promises to callers outside this program, so weakening them is not
//! locally justifiable.
//!
//! The probes ask "does the mutated program still check?" through
//! `fearless-incr`'s [`check_units`] over one ephemeral check store. A
//! single pass over the original program seeds it, so each probe only
//! re-derives the functions its deletion actually invalidates (the mutated
//! function plus, for signature/field edits, its transitive dependents);
//! every untouched function replays its stored summary. A probe checks
//! every function, not just up to the first error, and its verdict is
//! identical to a full re-check — store correctness rests on fingerprint
//! soundness.

use fearless_core::CheckedProgram;
use fearless_incr::{check_units, CacheStats, DiskCache};
use fearless_syntax::{Program, Severity, Span};
use fearless_trace::Tracer;

use crate::{AnalysisReport, Lint, LintCode};

pub(crate) fn run(checked: &CheckedProgram, report: &mut AnalysisReport) {
    let options = checked.options;
    let mut cache = DiskCache::ephemeral();
    let seed = [(String::new(), checked.program.clone())];
    check_units(&seed, &options, 1, Some(&mut cache), &mut Tracer::off());
    // Probe traffic only: the seeding pass is not a probe.
    let mut traffic = CacheStats::default();
    // Re-checks `p`, the program minus one annotation, and reports that
    // annotation at `span` when `p` still checks.
    let mut probe = |report: &mut AnalysisReport,
                     p: Program,
                     func: Option<&str>,
                     span: Span,
                     message: String| {
        report.stats.recheck_experiments += 1;
        let unit = [(String::new(), p)];
        let run = check_units(&unit, &options, 1, Some(&mut cache), &mut Tracer::off());
        traffic.absorb(&run.stats);
        if run.units[0].first_error().is_none() {
            report.lints.push(Lint {
                code: LintCode::OverStrongAnnotation,
                severity: Severity::Warning,
                func: func.map(str::to_string),
                span,
                message,
            });
        }
    };

    for (fi, f) in checked.program.funcs.iter().enumerate() {
        let func = Some(f.name.as_str());
        let param_span = |name: &fearless_syntax::Symbol| -> Span {
            f.params
                .iter()
                .find(|p| p.name == *name)
                .map_or(f.span, |p| p.span)
        };

        for (i, name) in f.annotations.pinned.iter().enumerate() {
            let mut p = checked.program.clone();
            p.funcs[fi].annotations.pinned.remove(i);
            let message = format!("`pinned {name}` is unnecessary: the program checks without it");
            probe(report, p, func, param_span(name), message);
        }

        for (i, rel) in f.annotations.before.iter().enumerate() {
            let mut p = checked.program.clone();
            p.funcs[fi].annotations.before.remove(i);
            let message = "this `before` relation is unnecessary: the program checks without it";
            probe(report, p, func, rel.span, message.to_string());
        }

        for (i, name) in f.annotations.consumes.iter().enumerate() {
            let mut p = checked.program.clone();
            p.funcs[fi].annotations.consumes.remove(i);
            let message = format!(
                "`consumes {name}` is over-strong: the program checks without consuming it"
            );
            probe(report, p, func, param_span(name), message);
        }
    }

    for (si, s) in checked.program.structs.iter().enumerate() {
        for (fi, field) in s.fields.iter().enumerate().filter(|(_, f)| f.iso) {
            let mut p = checked.program.clone();
            p.structs[si].fields[fi].iso = false;
            let message = format!(
                "field `{}.{}` is declared `iso` but the program checks with a plain field",
                s.name, field.name
            );
            probe(report, p, None, field.span, message);
        }
    }

    report.stats.recheck_cache_hits = traffic.hits;
    report.stats.recheck_cache_misses = traffic.misses;
}

#[cfg(test)]
mod tests {
    use super::*;
    use fearless_core::{check_source, CheckerOptions};

    fn analyze(src: &str) -> AnalysisReport {
        let checked = check_source(src, &CheckerOptions::default()).unwrap();
        let mut report = AnalysisReport::default();
        run(&checked, &mut report);
        report
    }

    #[test]
    fn unnecessary_pinned_is_reported() {
        let report = analyze(
            "struct data { value: int }
             def peek(d: data) : int pinned d { d.value }",
        );
        assert_eq!(report.lints.len(), 1);
        assert!(
            report.lints[0].message.contains("pinned d"),
            "{:?}",
            report.lints
        );
        assert!(report.stats.recheck_experiments >= 1);
    }

    #[test]
    fn probes_hit_the_seeded_cache() {
        // Three functions, one probed annotation: each probe re-checks the
        // mutated function (and nothing else), so the untouched functions
        // are all answered from the seed.
        let report = analyze(
            "struct data { value: int }
             def make(v: int) : data { new data(v) }
             def get(d: data) : int { d.value }
             def peek(d: data) : int pinned d { d.value }",
        );
        assert_eq!(report.stats.recheck_experiments, 1);
        // The probe deletes `pinned d` from `peek`: `make` and `get` keep
        // their fingerprints (hits); only `peek` re-derives.
        assert_eq!(report.stats.recheck_cache_hits, 2);
        assert_eq!(report.stats.recheck_cache_misses, 1);
    }

    #[test]
    fn load_bearing_consumes_is_kept() {
        // `send` requires the sent region to be consumed from the caller,
        // so `consumes d` cannot be dropped.
        let report = analyze(
            "struct data { value: int }
             def ship(d: data) : unit consumes d { send(d); unit }",
        );
        assert!(
            !report
                .lints
                .iter()
                .any(|l| l.message.contains("consumes d")),
            "{:?}",
            report.lints
        );
    }

    #[test]
    fn unused_iso_field_is_reported() {
        // The iso-ness of `payload` is never exploited: no take, no
        // explore, no send of the payload alone.
        let report = analyze(
            "struct data { value: int }
             struct holder { iso payload : data }
             def peek(h: holder) : int { h.payload.value }",
        );
        assert!(
            report
                .lints
                .iter()
                .any(|l| l.func.is_none() && l.message.contains("holder.payload")),
            "{:?}",
            report.lints
        );
    }
}
