//! Integration tests for the incremental + parallel driver: cache
//! warmth and job count must never change reports, diagnostics, or
//! metrics bytes (the dedicated `cache` summary span excepted).

use fearless_core::CheckerOptions;
use fearless_incr::{check_units, DiskCache};
use fearless_syntax::{parse_program, Program};
use fearless_trace::{MemorySink, Tracer};

fn corpus_units() -> Vec<(String, Program)> {
    fearless_corpus::all_entries()
        .iter()
        .map(|e| {
            (
                e.name.to_string(),
                parse_program(&e.source).expect("corpus entries parse"),
            )
        })
        .collect()
}

/// `(phase, name, counters)` of one span, with counters flattened.
type SpanRow = (String, String, Vec<(&'static str, u64)>);

/// Every non-`cache` span, for comparing trace content across runs that
/// legitimately differ in cache traffic.
fn check_spans(sink: &MemorySink) -> Vec<SpanRow> {
    sink.spans()
        .filter(|m| m.phase != "cache")
        .map(|m| {
            (
                m.phase.clone(),
                m.name.clone(),
                m.counters.iter().map(|(k, v)| (*k, *v)).collect(),
            )
        })
        .collect()
}

#[test]
fn warm_corpus_run_replays_cold_reports_exactly() {
    let units = corpus_units();
    let opts = CheckerOptions::default();
    let mut cache = DiskCache::ephemeral();
    let cold = check_units(&units, &opts, 1, Some(&mut cache), &mut Tracer::off());
    let warm = check_units(&units, &opts, 4, Some(&mut cache), &mut Tracer::off());

    assert_eq!(cold.stats.hits, 0);
    assert!(cold.stats.misses > 0);
    assert_eq!(warm.stats.misses, 0, "every function replays warm");
    assert_eq!(warm.stats.hits, cold.stats.misses);
    assert_eq!(warm.stats.invalidations, 0);

    assert_eq!(cold.units.len(), warm.units.len());
    for (c, w) in cold.units.iter().zip(&warm.units) {
        assert_eq!(c.label, w.label);
        assert_eq!(c.env_error, w.env_error);
        assert_eq!(c.functions.len(), w.functions.len());
        for (cf, wf) in c.functions.iter().zip(&w.functions) {
            assert_eq!(cf.name, wf.name);
            assert_eq!(cf.fingerprint, wf.fingerprint);
            assert_eq!(cf.outcome, wf.outcome, "outcome of `{}`", cf.name);
            assert!(!cf.cache_hit);
            assert!(wf.cache_hit);
        }
        assert_eq!(c.first_error(), w.first_error());
    }
}

#[test]
fn parallel_corpus_metrics_are_byte_identical_to_serial() {
    let units = corpus_units();
    let opts = CheckerOptions::default();
    let run = |jobs: usize| {
        let mut sink = MemorySink::new();
        check_units(&units, &opts, jobs, None, &mut Tracer::new(&mut sink));
        sink.to_json()
    };
    let serial = run(1);
    for jobs in [2, 4, 8] {
        assert_eq!(serial, run(jobs), "jobs={jobs} diverged from serial");
    }
}

#[test]
fn warm_check_spans_match_a_cacheless_cold_run() {
    let units = corpus_units();
    let opts = CheckerOptions::default();

    let mut bare_sink = MemorySink::new();
    check_units(&units, &opts, 1, None, &mut Tracer::new(&mut bare_sink));

    let mut cache = DiskCache::ephemeral();
    check_units(&units, &opts, 1, Some(&mut cache), &mut Tracer::off());
    let mut warm_sink = MemorySink::new();
    let warm = check_units(
        &units,
        &opts,
        1,
        Some(&mut cache),
        &mut Tracer::new(&mut warm_sink),
    );
    assert_eq!(warm.stats.misses, 0);

    // Replayed-from-cache spans carry exactly the counters a live check
    // emits; only the `cache` summary span distinguishes the traces.
    assert_eq!(check_spans(&bare_sink), check_spans(&warm_sink));
    assert!(warm_sink.spans().any(|m| m.phase == "cache"));
    assert!(!bare_sink.spans().any(|m| m.phase == "cache"));
}

/// The `check` spans of `sink`, rendered without wall time.
fn rendered_check_spans(sink: &MemorySink) -> Vec<String> {
    sink.spans()
        .filter(|m| m.phase == "check")
        .map(|m| m.to_json_value_opts(false).render_compact())
        .collect()
}

#[test]
fn live_cold_and_warm_check_spans_are_identical() {
    // A direct traced check, a cold driver run and a warm replay all
    // emit through `fearless_core::CheckCounts::emit`; every corpus
    // entry and a synthesized program must produce the same spans on
    // all three paths.
    let synth = fearless_synth::synthesize(&fearless_synth::SynthOptions {
        seed: 7,
        ..fearless_synth::SynthOptions::default()
    });
    let mut sources: Vec<(String, String)> = fearless_corpus::all_entries()
        .iter()
        .map(|e| (e.name.to_string(), e.source.to_string()))
        .collect();
    sources.push(("synth-7".to_string(), synth));
    let opts = CheckerOptions::default();
    let mut checked_fns = 0;
    for (name, src) in &sources {
        let mut live = MemorySink::new();
        let direct = fearless_core::check_source_traced(src, &opts, &mut Tracer::new(&mut live));
        let units = vec![(String::new(), parse_program(src).expect("parses"))];
        let mut cache = DiskCache::ephemeral();
        let mut cold = MemorySink::new();
        check_units(
            &units,
            &opts,
            2,
            Some(&mut cache),
            &mut Tracer::new(&mut cold),
        );
        let mut warm = MemorySink::new();
        let run = check_units(
            &units,
            &opts,
            2,
            Some(&mut cache),
            &mut Tracer::new(&mut warm),
        );
        assert_eq!(run.stats.misses, 0, "{name}: the second run replays");

        let (live, cold, warm) = (
            rendered_check_spans(&live),
            rendered_check_spans(&cold),
            rendered_check_spans(&warm),
        );
        assert_eq!(cold, warm, "{name}: cold and warm spans");
        // A direct check stops at the first failing function; up to
        // there its spans are the driver's.
        match direct {
            Ok(checked) => {
                assert_eq!(live, cold, "{name}: live and cold spans");
                checked_fns += checked.derivations.len();
            }
            Err(_) => assert_eq!(live, cold[..live.len()], "{name}: live prefix"),
        }
    }
    assert!(checked_fns > 200, "only {checked_fns} functions checked");
}

#[test]
fn disk_cache_persists_across_driver_instances() {
    let dir =
        std::env::temp_dir().join(format!("fearless-incr-driver-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let units = corpus_units();
    let opts = CheckerOptions::default();

    let mut cold_cache = DiskCache::load(&dir);
    let cold = check_units(&units, &opts, 2, Some(&mut cold_cache), &mut Tracer::off());
    cold_cache.save().expect("cache saves");
    drop(cold_cache);

    let mut warm_cache = DiskCache::load(&dir);
    assert!(!warm_cache.is_empty(), "entries round-trip through disk");
    let warm = check_units(&units, &opts, 2, Some(&mut warm_cache), &mut Tracer::off());
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(warm.stats.misses, 0);
    assert_eq!(warm.stats.hits, cold.stats.misses);
    for (c, w) in cold.units.iter().zip(&warm.units) {
        for (cf, wf) in c.functions.iter().zip(&w.functions) {
            assert_eq!(cf.outcome, wf.outcome, "`{}:{}`", c.label, cf.name);
        }
    }
}
