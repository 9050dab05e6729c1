//! # fearless-incr
//!
//! The incremental + parallel checking driver behind `fearlessc check
//! --jobs N --cache <dir>`.
//!
//! The checker is signature-modular (§4.4): every function is checked
//! against its signature environment independently, so per-function
//! results are cacheable by content [`Fingerprint`] and the check
//! workload — a file's functions, or the whole corpus — is
//! embarrassingly parallel. This crate exploits both:
//!
//! * [`disk::Store`] — the one on-disk fingerprint store: an
//!   append-only log of checksummed JSON records per typed
//!   [`disk::Table`], compacted by an atomic snapshot. Its check table,
//!   [`DiskCache`], holds per-function check summaries keyed by
//!   fingerprint, carrying enough (verdict and the `check` span's
//!   [`CheckCounts`](fearless_core::CheckCounts)) to replay reports,
//!   diagnostics, and `--metrics json` spans byte-for-byte; FA002's
//!   probes, `fearlessc check --cache`, and the daemon all answer from
//!   it. `fearless-flow` keeps its flow summaries in a second table.
//! * [`sched`] — chunks the misses, in definition order, into batches
//!   for the pool, and models the plan's parallel speedup.
//! * [`pool`] — a small hand-rolled self-scheduling thread pool (no
//!   external deps) that drives independent `check_fn` queries.
//! * [`check_units`] — the driver: fingerprint serially (only when a
//!   cache will read the fingerprints), answer hits from the cache, fan
//!   misses out over the pool, then re-assemble results and trace spans
//!   in definition order so output bytes never depend on the schedule or
//!   on cache warmth (only the dedicated `cache` summary span reflects
//!   warmth).

#![warn(missing_docs)]

pub mod disk;
pub mod pool;
pub mod sched;

use fearless_core::env::Globals;
use fearless_core::{check, CheckerOptions, Fingerprint, TypeError};
use fearless_syntax::{Program, Span};
use fearless_trace::Tracer;

pub use disk::{checksum_hex, CachedOutcome, CheckTable, DiskCache, LoadOutcome, Store, Table};
/// The reader the cache logs are loaded with; `perfbench` calls it
/// through this path.
pub use fearless_trace::parse_json;

/// Hit/miss/invalidation counters for one store's traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a real `check_fn` run.
    pub misses: u64,
    /// Times a function name re-appeared with a *different* fingerprint
    /// than its previous appearance (a content change forcing re-check).
    pub invalidations: u64,
    /// Times a persistent cache was found corrupt (truncated, torn,
    /// bit-flipped, checksum or schema mismatch) and silently degraded
    /// to a cold start. Diagnostics stay byte-identical to a cold run;
    /// only this counter (and the `cache.recoveries` trace counter)
    /// records that recovery happened.
    pub recoveries: u64,
}

impl CacheStats {
    /// Accumulates another stats block into this one.
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
        self.recoveries += other.recoveries;
    }
}

/// One function's check result as seen by the driver.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FnSummary {
    /// Function name.
    pub name: String,
    /// Content fingerprint the outcome is keyed under; `None` when the
    /// run had no cache, which is the only reader of fingerprints.
    pub fingerprint: Option<Fingerprint>,
    /// Whether the outcome came from the cache.
    pub cache_hit: bool,
    /// The (replayable) outcome.
    pub outcome: CachedOutcome,
}

/// The checked summary of one unit (a source file, or one corpus
/// entry).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnitReport {
    /// Unit label (a corpus entry name; empty for a plain file).
    pub label: String,
    /// Environment-validation error, if the unit never reached
    /// per-function checking.
    pub env_error: Option<TypeError>,
    /// Per-function summaries in definition order.
    pub functions: Vec<FnSummary>,
}

impl UnitReport {
    /// The first error in definition order (environment errors first),
    /// with the function context attached — identical to what
    /// `check_program` would have reported.
    pub fn first_error(&self) -> Option<TypeError> {
        if let Some(e) = &self.env_error {
            return Some(e.clone());
        }
        self.functions.iter().find_map(|f| match &f.outcome {
            CachedOutcome::Err {
                message,
                span_lo,
                span_hi,
            } => Some(
                TypeError::new(message.clone(), Span::new(*span_lo, *span_hi))
                    .in_func(f.name.clone()),
            ),
            CachedOutcome::Ok { .. } => None,
        })
    }

    /// Total derivation nodes across successfully checked functions.
    pub fn total_nodes(&self) -> u64 {
        self.functions
            .iter()
            .filter_map(|f| match &f.outcome {
                CachedOutcome::Ok { nodes, .. } => Some(*nodes),
                _ => None,
            })
            .sum()
    }

    /// Total virtual-transformation steps across checked functions.
    pub fn total_vir_steps(&self) -> u64 {
        self.functions
            .iter()
            .filter_map(|f| match &f.outcome {
                CachedOutcome::Ok { counts, .. } => Some(counts.vir_steps()),
                _ => None,
            })
            .sum()
    }
}

/// The result of one driver run over a set of units.
#[derive(Debug)]
pub struct CheckRun {
    /// Per-unit reports, in input order.
    pub units: Vec<UnitReport>,
    /// Cache traffic for this run (all zeros when no cache was given).
    pub stats: CacheStats,
    /// The batched issue plan the misses ran under (empty when
    /// everything hit the cache). Deterministic: replanning the same
    /// misses yields the same schedule.
    pub schedule: sched::Schedule,
}

/// Checks a set of `(label, program)` units, answering per-function
/// queries from `cache` (when given) and running misses on `jobs`
/// worker threads.
///
/// Results — reports, diagnostics, and the `check` spans replayed into
/// `tracer` — are byte-deterministic and independent of both the number
/// of jobs and cache warmth. Cache warmth is observable only in
/// [`CheckRun::stats`] and the trailing `cache` summary span (emitted
/// iff a cache is in use). The cache is updated in memory; call
/// [`DiskCache::save`] afterwards to persist it.
pub fn check_units(
    units: &[(String, Program)],
    options: &CheckerOptions,
    jobs: usize,
    mut cache: Option<&mut DiskCache>,
    tracer: &mut Tracer<'_>,
) -> CheckRun {
    let mut stats = CacheStats::default();
    if let Some(c) = cache.as_deref_mut() {
        if let Some(reason) = c.take_recovered_reason() {
            // A corrupt persistent cache degraded to a cold start.
            // Diagnostics stay byte-identical to a true cold run; only
            // the stat (and this trace event) record the recovery.
            stats.recoveries += 1;
            if tracer.is_enabled() {
                tracer.span_enter("cache_recovery", reason);
                tracer.add("cache.recoveries", 1);
                tracer.span_exit();
            }
        }
    }
    // Phase 1 (serial): validate environments and, when a cache is
    // given, fingerprint every function and split into hits and misses.
    // Without a cache nothing reads a fingerprint, so none is computed
    // and every function is a miss.
    struct PendingUnit<'p> {
        label: &'p str,
        globals: Option<Globals>,
        env_error: Option<TypeError>,
        // (name, fingerprint, cached outcome or miss marker)
        fns: Vec<(String, Option<Fingerprint>, Option<CachedOutcome>)>,
    }
    let mut pending: Vec<PendingUnit<'_>> = Vec::with_capacity(units.len());
    for (label, program) in units {
        match Globals::build(program, options.mode) {
            Err(e) => pending.push(PendingUnit {
                label,
                globals: None,
                env_error: Some(e),
                fns: Vec::new(),
            }),
            Ok(globals) => {
                let mut fns = Vec::with_capacity(program.funcs.len());
                for f in &program.funcs {
                    let (fp, cached) = match cache.as_deref_mut() {
                        Some(c) => {
                            let fp = fearless_core::fn_fingerprint(&globals, options, f);
                            if c.note_name(&format!("{label}:{}", f.name), fp) {
                                stats.invalidations += 1;
                            }
                            let cached = c.lookup(fp).cloned();
                            match &cached {
                                Some(_) => stats.hits += 1,
                                None => stats.misses += 1,
                            }
                            (Some(fp), cached)
                        }
                        None => (None, None),
                    };
                    fns.push((f.name.to_string(), fp, cached));
                }
                pending.push(PendingUnit {
                    label,
                    globals: Some(globals),
                    env_error: None,
                    fns,
                });
            }
        }
    }

    // Phase 2 (parallel): chunk the misses, in definition order, into
    // batches (small jobs share a batch so pool overhead amortizes) and
    // run the batches through the pool. Each batch checks its functions
    // with private sinks and returns their replayable outcomes; because
    // the checker is signature-modular the plan only shapes
    // performance, never results.
    let mut miss_list = Vec::new();
    for (ui, unit) in pending.iter().enumerate() {
        for (fi, (_, _, cached)) in unit.fns.iter().enumerate() {
            if cached.is_none() {
                miss_list.push((ui, fi));
            }
        }
    }
    let schedule = sched::plan(units, &miss_list, jobs);
    let batches = pool::run_jobs(jobs, &schedule.batches, |batch| {
        batch
            .iter()
            .map(|&(ui, fi)| {
                let globals = pending[ui].globals.as_ref().expect("misses imply globals");
                check_one(globals, options, &units[ui].1.funcs[fi])
            })
            .collect::<Vec<_>>()
    });

    // Phase 3 (serial): merge outcomes back, replay spans in definition
    // order, and feed fresh results into the cache. Batches are
    // contiguous runs of the miss list and come back in issue order, so
    // the flattened outcomes arrive in definition order too.
    let mut fresh = batches.into_iter().flatten();
    let mut run = CheckRun {
        units: Vec::with_capacity(pending.len()),
        stats,
        schedule,
    };
    for unit in pending {
        let mut report = UnitReport {
            label: unit.label.to_string(),
            env_error: unit.env_error,
            functions: Vec::with_capacity(unit.fns.len()),
        };
        for (name, fp, cached) in unit.fns {
            let (outcome, cache_hit) = match cached {
                Some(outcome) => (outcome, true),
                None => {
                    let outcome = fresh.next().expect("pool returned every job");
                    if let (Some(c), Some(fp)) = (cache.as_deref_mut(), fp) {
                        c.insert(fp, outcome.clone());
                    }
                    (outcome, false)
                }
            };
            replay_span(tracer, &name, &outcome);
            report.functions.push(FnSummary {
                name,
                fingerprint: fp,
                cache_hit,
                outcome,
            });
        }
        run.units.push(report);
    }

    // The warmth-dependent summary span: the one deliberate difference
    // between a cold and a warm trace.
    if let Some(c) = cache {
        tracer.span_enter("cache", "summary");
        tracer.add("cache.hits", run.stats.hits);
        tracer.add("cache.misses", run.stats.misses);
        tracer.add("cache.invalidations", run.stats.invalidations);
        if run.stats.recoveries > 0 {
            tracer.add("cache.recoveries", run.stats.recoveries);
        }
        tracer.add("cache.entries", c.len() as u64);
        tracer.span_exit();
    }
    run
}

/// Checks one function and summarizes the outcome.
fn check_one(
    globals: &Globals,
    options: &CheckerOptions,
    def: &fearless_syntax::FnDef,
) -> CachedOutcome {
    match check::check_fn_counted(globals, options, def) {
        Ok((_, counts)) => CachedOutcome::checked(counts),
        Err(e) => CachedOutcome::Err {
            message: e.message().to_string(),
            span_lo: e.span().lo,
            span_hi: e.span().hi,
        },
    }
}

/// Replays one function's `check` span into `tracer`. Fresh and cached
/// outcomes replay identically, and through the same
/// [`CheckCounts::emit`](fearless_core::CheckCounts::emit) a live check
/// uses, which is what makes warm metrics match cold metrics
/// byte-for-byte.
fn replay_span(tracer: &mut Tracer<'_>, name: &str, outcome: &CachedOutcome) {
    if !tracer.is_enabled() {
        return;
    }
    tracer.span_enter("check", name);
    if let CachedOutcome::Ok { counts, .. } = outcome {
        counts.emit(tracer);
    }
    tracer.span_exit();
}

#[cfg(test)]
mod tests {
    use super::*;
    use fearless_syntax::parse_program;

    const SRC: &str = "
        struct data { value: int }
        def make(v: int) : data { new data(v) }
        def get(d: data) : int { d.value }
    ";

    fn units() -> Vec<(String, Program)> {
        vec![(String::new(), parse_program(SRC).unwrap())]
    }

    #[test]
    fn matches_check_program() {
        let opts = CheckerOptions::default();
        let run = check_units(&units(), &opts, 1, None, &mut Tracer::off());
        let checked = fearless_core::check_program(&units()[0].1, &opts).expect("program checks");
        assert_eq!(run.units[0].total_nodes(), checked.total_nodes() as u64);
        assert_eq!(
            run.units[0].total_vir_steps(),
            checked.total_vir_steps() as u64
        );
        assert!(run.units[0].first_error().is_none());
        assert_eq!(run.stats, CacheStats::default());
    }

    #[test]
    fn first_error_matches_serial_checker() {
        let bad = "def f(x: int) : bool { x }\ndef g(y: int) : int { y }";
        let program = parse_program(bad).unwrap();
        let opts = CheckerOptions::default();
        let unit = vec![(String::new(), program.clone())];
        for jobs in [1, 4] {
            let run = check_units(&unit, &opts, jobs, None, &mut Tracer::off());
            let incr_err = run.units[0].first_error().expect("f fails");
            let serial_err = fearless_core::check_program(&program, &opts).unwrap_err();
            assert_eq!(incr_err, serial_err, "jobs={jobs}");
        }
    }

    #[test]
    fn errors_are_cached_and_replayed() {
        let program = parse_program("def f(x: int) : bool { x }").unwrap();
        let opts = CheckerOptions::default();
        let unit = vec![(String::new(), program.clone())];
        let mut cache = DiskCache::ephemeral();
        let first = check_units(&unit, &opts, 1, Some(&mut cache), &mut Tracer::off());
        let second = check_units(&unit, &opts, 1, Some(&mut cache), &mut Tracer::off());
        assert_eq!((first.stats.hits, first.stats.misses), (0, 1));
        assert_eq!((second.stats.hits, second.stats.misses), (1, 0));
        let replayed = second.units[0].first_error().expect("f fails");
        assert_eq!(first.units[0].first_error(), Some(replayed.clone()));
        let plain = fearless_core::check_program(&program, &opts).unwrap_err();
        assert_eq!(replayed, plain);
    }

    #[test]
    fn corrupt_cache_run_matches_cold_run_and_counts_recovery() {
        let opts = CheckerOptions::default();
        let dir = std::env::temp_dir().join(format!(
            "fearless-incr-recover-units-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let torn = format!("{}\n0123456789abcdef {{\"entry\": \"00", CheckTable::SCHEMA);
        std::fs::write(dir.join(disk::CACHE_FILE), torn).unwrap();

        let mut corrupt = DiskCache::load(&dir);
        assert_eq!(corrupt.recovered_reason(), Some("truncated"));
        let recovered = check_units(&units(), &opts, 1, Some(&mut corrupt), &mut Tracer::off());

        let mut cold = DiskCache::ephemeral();
        let cold_run = check_units(&units(), &opts, 1, Some(&mut cold), &mut Tracer::off());

        // Same reports, same hit/miss traffic; only the recovery stat
        // differs.
        assert_eq!(recovered.units, cold_run.units);
        assert_eq!(recovered.stats.hits, cold_run.stats.hits);
        assert_eq!(recovered.stats.misses, cold_run.stats.misses);
        assert_eq!(recovered.stats.recoveries, 1);
        assert_eq!(cold_run.stats.recoveries, 0);

        // Saving the recovered cache heals the document on disk.
        corrupt.save().unwrap();
        let healed = DiskCache::load(&dir);
        assert_eq!(healed.load_outcome(), LoadOutcome::Warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_schema_1_document_is_one_counted_cold_recovery() {
        // Fingerprints of the `/1` schema hashed the pretty-printed
        // definition; a document of that schema must never be trusted.
        let opts = CheckerOptions::default();
        let dir =
            std::env::temp_dir().join(format!("fearless-incr-schema-1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = DiskCache::load(&dir);
        let cold = check_units(&units(), &opts, 1, Some(&mut cache), &mut Tracer::off());
        cache.save().unwrap();
        let path = dir.join(disk::CACHE_FILE);
        let old = std::fs::read_to_string(&path)
            .unwrap()
            .replace(CheckTable::SCHEMA, "fearless-incr-cache/1");
        std::fs::write(&path, old).unwrap();

        let mut loaded = DiskCache::load(&dir);
        assert_eq!(loaded.recovered_reason(), Some("schema mismatch"));
        let run = check_units(&units(), &opts, 1, Some(&mut loaded), &mut Tracer::off());
        assert_eq!(run.stats.recoveries, 1);
        assert_eq!((run.stats.hits, run.stats.misses), (0, 2));
        assert_eq!(run.units, cold.units);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_schema_2_document_is_one_counted_cold_recovery() {
        // The one-document format before the record log: a checksummed,
        // pretty-printed object. It must load as exactly one recovery.
        let opts = CheckerOptions::default();
        let dir =
            std::env::temp_dir().join(format!("fearless-incr-schema-2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let old =
            "{\n  \"schema\": \"fearless-incr-cache/2\",\n  \"checksum\": \"5d0c1e8a9b7f3e21\",\
                   \n  \"entries\": {\n    \"0000000000000000000000000000abcd\": {\n      \
                   \"ok\": true,\n      \"nodes\": 3,\n      \"vir_steps\": 0,\n      \
                   \"search_nodes\": 0,\n      \"counters\": {}\n    }\n  },\n  \"names\": {\n    \
                   \":make\": \"0000000000000000000000000000abcd\"\n  }\n}\n";
        std::fs::write(dir.join(disk::CACHE_FILE), old).unwrap();
        let mut loaded = DiskCache::load(&dir);
        assert_eq!(loaded.recovered_reason(), Some("schema mismatch"));
        let run = check_units(&units(), &opts, 1, Some(&mut loaded), &mut Tracer::off());
        assert_eq!(run.stats.recoveries, 1);
        assert_eq!((run.stats.hits, run.stats.misses), (0, 2));
        let mut ephemeral = DiskCache::ephemeral();
        let cold = check_units(&units(), &opts, 1, Some(&mut ephemeral), &mut Tracer::off());
        assert_eq!(run.units, cold.units);
        // The save replaces the old document with a record log.
        loaded.save().unwrap();
        assert_eq!(DiskCache::load(&dir).load_outcome(), LoadOutcome::Warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_journal_keeps_its_prefix_and_matches_a_cold_run() {
        let opts = CheckerOptions::default();
        let edited = || {
            let src = SRC.replace("{ d.value }", "{ d.value + 1 }");
            vec![(String::new(), parse_program(&src).unwrap())]
        };
        let mut ephemeral = DiskCache::ephemeral();
        let cold = check_units(
            &edited(),
            &opts,
            1,
            Some(&mut ephemeral),
            &mut Tracer::off(),
        );
        let tag = |d: &str| {
            std::env::temp_dir().join(format!("fearless-incr-journal-{d}-{}", std::process::id()))
        };
        // Each damage keeps the snapshot and this many journal records.
        type Damage = fn(&str) -> String;
        let damages: [(&str, Damage, usize); 2] = [
            ("torn", |t| t[..t.len() - 9].to_string(), 1),
            ("flip", |t| t.replacen(":get", ":gex", 1), 0),
        ];
        for (name, damage, kept) in damages {
            let dir = tag(name);
            let _ = std::fs::remove_dir_all(&dir);
            let mut cache = DiskCache::load(&dir);
            check_units(&units(), &opts, 1, Some(&mut cache), &mut Tracer::off());
            cache.save().unwrap();
            let snapshot_len = std::fs::read(dir.join(disk::CACHE_FILE)).unwrap().len();
            let mut cache = DiskCache::load(&dir);
            let run = check_units(&edited(), &opts, 1, Some(&mut cache), &mut Tracer::off());
            assert_eq!((run.stats.misses, run.stats.invalidations), (1, 1));
            cache.save().unwrap();
            let path = dir.join(disk::CACHE_FILE);
            let text = std::fs::read_to_string(&path).unwrap();
            let (snapshot, journal) = text.split_at(snapshot_len);
            assert_eq!(
                journal.lines().count(),
                2,
                "{name}: an entry and a name move"
            );
            std::fs::write(&path, format!("{snapshot}{}", damage(journal))).unwrap();

            let mut loaded = DiskCache::load(&dir);
            assert_eq!(loaded.load_outcome(), LoadOutcome::Warm, "{name}");
            assert_eq!(loaded.replayed(), kept, "{name}");
            let run = check_units(&edited(), &opts, 1, Some(&mut loaded), &mut Tracer::off());
            assert_eq!(
                run.stats.recoveries, 0,
                "{name}: a torn journal is no recovery"
            );
            let mut units = run.units;
            for f in units.iter_mut().flat_map(|u| &mut u.functions) {
                f.cache_hit = false;
            }
            assert_eq!(units, cold.units, "{name}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn no_cache_no_fingerprints() {
        let run = check_units(
            &units(),
            &CheckerOptions::default(),
            1,
            None,
            &mut Tracer::off(),
        );
        assert!(run.units[0]
            .functions
            .iter()
            .all(|f| f.fingerprint.is_none()));
    }

    #[test]
    fn warm_run_is_all_hits_with_equal_reports() {
        let opts = CheckerOptions::default();
        let mut cache = DiskCache::ephemeral();
        let cold = check_units(&units(), &opts, 1, Some(&mut cache), &mut Tracer::off());
        assert_eq!(cold.stats.misses, 2);
        let warm = check_units(&units(), &opts, 2, Some(&mut cache), &mut Tracer::off());
        assert_eq!(warm.stats.hits, 2);
        assert_eq!(warm.stats.misses, 0);
        assert_eq!(warm.stats.invalidations, 0);
        // Reports are identical apart from the hit flags.
        let strip = |units: &[UnitReport]| {
            let mut units = units.to_vec();
            for u in &mut units {
                for f in &mut u.functions {
                    f.cache_hit = false;
                }
            }
            units
        };
        assert_eq!(strip(&cold.units), strip(&warm.units));
        assert!(warm.units[0].functions.iter().all(|f| f.cache_hit));
    }
}
