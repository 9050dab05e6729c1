//! Cache-corruption drills: save a real store log — the check table
//! (`check-cache.json`) and the flow table (`flow.json`) — damage it
//! the way crashes damage files (truncation, bit flips, torn writes,
//! stale schema), reload, and verify the crash-safety contract end to
//! end: the corrupted run's output must be **byte-identical** to a cold
//! run's, with the recovery visible only in the load outcome and the
//! `recoveries` stat.

use std::path::Path;

use fearless_core::{check_program, CheckerOptions};
use fearless_flow::FlowCache;
use fearless_incr::{check_units, DiskCache, Store, Table, UnitReport};
use fearless_syntax::Program;
use fearless_trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The corruption classes injected into a saved cache document.
pub const CORRUPTIONS: &[&str] = &[
    "truncate",
    "bit_flip",
    "torn_write",
    "version_bump",
    "garbage",
];

/// Damages table `T`'s document in `dir` according to `class` (one of
/// [`CORRUPTIONS`]), deterministically from `seed`.
///
/// # Errors
///
/// I/O failures or an unknown class.
pub fn inject_corruption<T: Table>(dir: &Path, class: &str, seed: u64) -> Result<(), String> {
    let path = dir.join(T::FILE);
    let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let damaged: Vec<u8> = match class {
        // Crash mid-write without the atomic rename: only a strict
        // prefix of the content landed.
        "truncate" => {
            let content = bytes.trim_ascii_end().len();
            let keep = rng.gen_range(0..content.max(1));
            bytes[..keep].to_vec()
        }
        // Storage decay: one flipped bit somewhere in the document.
        "bit_flip" => {
            let mut b = bytes.clone();
            if !b.is_empty() {
                let at = rng.gen_range(0..b.len());
                b[at] ^= 1 << rng.gen_range(0..8u32);
            }
            b
        }
        // Torn write: new prefix, old/garbage tail.
        "torn_write" => {
            let cut = rng.gen_range(0..bytes.len().max(1));
            let mut b = bytes[..cut].to_vec();
            b.extend_from_slice(b"\"entries\": {}}trailing-torn-tail");
            b
        }
        // A future (or ancient) schema wrote the file.
        "version_bump" => {
            let family = T::SCHEMA.rsplit_once('/').map_or(T::SCHEMA, |(f, _)| f);
            String::from_utf8_lossy(&bytes)
                .replace(T::SCHEMA, &format!("{family}/99"))
                .into_bytes()
        }
        // Not even UTF-8.
        "garbage" => vec![0xff, 0x00, 0xfe, b'{', 0x80, b'}'],
        other => return Err(format!("unknown corruption class `{other}`")),
    };
    std::fs::write(&path, damaged).map_err(|e| format!("write {}: {e}", path.display()))
}

/// One corruption class's drill outcome on one document.
#[derive(Clone, Debug)]
pub struct DrillOutcome {
    /// The damaged document's file name.
    pub document: &'static str,
    /// Corruption class.
    pub class: String,
    /// Load outcome: `true` when the loader flagged a recovery. The
    /// store checksums every byte of the document as read, so every
    /// class recovers on both tables.
    pub recovered: bool,
    /// The loader's reason, when recovered.
    pub reason: Option<&'static str>,
    /// Whether the corrupted-cache run's output was byte-identical to
    /// the cold run's. **Must be true for every class.**
    pub reports_match: bool,
    /// `recoveries` stat of the corrupted check run (the flow driver
    /// keeps no stats block, so 0 for the flow table).
    pub recoveries: u64,
}

impl DrillOutcome {
    /// The drill's invariant: output byte-identical to the cold run and a
    /// surfaced recovery.
    pub fn ok(&self) -> bool {
        self.reports_match && self.recovered
    }
}

/// Runs the full corruption matrix over `units` inside `dir` (created
/// if needed), on the check table and then on the flow table: save a
/// warm document, damage it per class, and compare the recovered run
/// against a cold run.
///
/// # Errors
///
/// Propagates I/O failures from saving or corrupting the document, and
/// units that fail to check or analyze.
pub fn run_cache_drills(
    dir: &Path,
    units: &[(String, Program)],
    seed: u64,
) -> Result<Vec<DrillOutcome>, String> {
    let opts = CheckerOptions::default();
    let check_run = |cache: &mut DiskCache| {
        let run = check_units(units, &opts, 1, Some(cache), &mut Tracer::off());
        // Cache-hit flags legitimately differ when the document survived
        // corruption, so reports are compared with hits stripped exactly
        // as a warm-vs-cold comparison would.
        let mut reports: Vec<UnitReport> = run.units;
        for f in reports.iter_mut().flat_map(|u| &mut u.functions) {
            f.cache_hit = false;
        }
        Ok((reports, run.stats.recoveries))
    };
    let flow_run = |cache: &mut FlowCache| {
        let mut docs = Vec::new();
        for (label, program) in units {
            let checked = check_program(program, &opts).map_err(|e| format!("{label}: {e}"))?;
            let flow = fearless_flow::analyze_checked_cached(&checked, cache)
                .map_err(|e| format!("{label}: {e}"))?;
            docs.push(flow.to_json());
        }
        Ok((docs, 0))
    };
    // Reference cold runs (no persistent document at all).
    let cold_check = check_run(&mut DiskCache::ephemeral())?.0;
    let cold_flow = flow_run(&mut FlowCache::ephemeral())?.0;
    let mut outcomes = drill_table(dir, seed, &cold_check, check_run)?;
    outcomes.extend(drill_table(dir, seed, &cold_flow, flow_run)?);
    let _ = std::fs::remove_dir_all(dir);
    Ok(outcomes)
}

/// Runs every corruption class on table `T`. `run` drives the table
/// and returns its output (compared against `cold`) and the recoveries
/// it counted.
fn drill_table<T: Table, R: PartialEq>(
    dir: &Path,
    seed: u64,
    cold: &R,
    mut run: impl FnMut(&mut Store<T>) -> Result<(R, u64), String>,
) -> Result<Vec<DrillOutcome>, String> {
    let mut outcomes = Vec::new();
    for (i, class) in CORRUPTIONS.iter().enumerate() {
        // Fresh warm document for every class: corruption is applied to
        // a pristine save, not to the previous class's leftovers.
        let _ = std::fs::remove_dir_all(dir);
        let mut warm = Store::<T>::load(dir);
        run(&mut warm)?;
        warm.save()?;
        inject_corruption::<T>(dir, class, seed.wrapping_add(i as u64))?;
        let mut damaged = Store::<T>::load(dir);
        let reason = damaged.recovered_reason();
        let (output, recoveries) = run(&mut damaged)?;
        outcomes.push(DrillOutcome {
            document: T::FILE,
            class: class.to_string(),
            recovered: reason.is_some(),
            reason,
            reports_match: output == *cold,
            recoveries,
        });
    }
    Ok(outcomes)
}

/// Outcome of the concurrent-access drill.
#[derive(Clone, Debug)]
pub struct ConcurrencyOutcome {
    /// Writer threads raced.
    pub writers: usize,
    /// Load→check→save rounds each writer ran.
    pub rounds: usize,
    /// Total load+save cycles completed.
    pub cycles: u64,
    /// Cycles whose save had records to write. Every round edits one
    /// function, so this equals `cycles`: each save appends or compacts
    /// while other writers load.
    pub writes: u64,
    /// Recoveries observed by any racing loader. **Must be 0**: with
    /// atomic renames, checksums, and the advisory save lock, no
    /// interleaving of savers and loaders may ever surface a torn or
    /// corrupt document.
    pub recoveries: u64,
    /// Whether the document left behind loads warm.
    pub final_warm: bool,
}

/// The two-process drill: `writers` threads race `rounds` rounds of
/// load → check → save over one cache directory, each round verifying
/// the loaded log was complete. Besides `units`, each round checks one
/// function whose literal is new to that writer and round, so every
/// save has a record to append (or a journal to compact) while the
/// other writers load. Extends the corruption matrix with the
/// *concurrent-access-never-corrupts* contract the advisory save lock
/// (`fearless_incr::disk`) exists to keep cheap.
///
/// # Errors
///
/// Propagates panicked writers and save failures.
pub fn run_concurrency_drill(
    dir: &Path,
    units: &[(String, Program)],
    writers: usize,
    rounds: usize,
) -> Result<ConcurrencyOutcome, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let units = std::sync::Arc::new(units.to_vec());
    let mut handles = Vec::new();
    for writer in 0..writers.max(1) {
        let dir = dir.to_path_buf();
        let units = std::sync::Arc::clone(&units);
        handles.push(std::thread::spawn(move || -> Result<[u64; 3], String> {
            let opts = CheckerOptions::default();
            let [mut cycles, mut writes, mut recoveries] = [0u64; 3];
            for round in 0..rounds.max(1) {
                let edit = format!(
                    "def edit(x : int) : int {{ x + {} }}",
                    writer * 1000 + round
                );
                let edit = fearless_syntax::parse_program(&edit).map_err(|e| e.render(&edit))?;
                let mut cache = DiskCache::load(&dir);
                recoveries += u64::from(cache.recovered_reason().is_some());
                let _ = check_units(&units, &opts, 1, Some(&mut cache), &mut Tracer::off());
                let edit = [(format!("writer-{writer}"), edit)];
                let _ = check_units(&edit, &opts, 1, Some(&mut cache), &mut Tracer::off());
                writes += u64::from(cache.dirty() > 0);
                cache.save()?;
                cycles += 1;
            }
            Ok([cycles, writes, recoveries])
        }));
    }
    let [mut cycles, mut writes, mut recoveries] = [0u64; 3];
    for h in handles {
        let [c, w, r] = h
            .join()
            .map_err(|_| "concurrency drill writer panicked".to_string())??;
        cycles += c;
        writes += w;
        recoveries += r;
    }
    let final_warm = DiskCache::load(dir).load_outcome() == fearless_incr::disk::LoadOutcome::Warm;
    let _ = std::fs::remove_dir_all(dir);
    Ok(ConcurrencyOutcome {
        writers: writers.max(1),
        rounds: rounds.max(1),
        cycles,
        writes,
        recoveries,
        final_warm,
    })
}

/// Convenience: the corpus' accepted entries as check units.
pub fn corpus_units() -> Vec<(String, Program)> {
    fearless_corpus::accepted_entries()
        .into_iter()
        .map(|e| (e.name.to_string(), e.parse()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fearless_incr::CheckTable;

    fn drill_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fearless-chaos-drill-{tag}-{}", std::process::id()))
    }

    #[test]
    fn every_corruption_class_degrades_to_cold_byte_identical() {
        let units = corpus_units();
        let dir = drill_dir("matrix");
        let outcomes = run_cache_drills(&dir, &units, 0xc0ffee).unwrap();
        assert_eq!(outcomes.len(), 2 * CORRUPTIONS.len());
        for o in &outcomes {
            assert!(o.ok(), "{o:?}");
            if o.document == CheckTable::FILE {
                assert_eq!(
                    o.recovered,
                    o.recoveries > 0,
                    "{}: recovery stat must mirror the load outcome",
                    o.class
                );
            }
        }
        // The matrix as a whole must actually exercise recovery.
        assert!(
            outcomes.iter().filter(|o| o.recovered).count() >= 3,
            "{outcomes:?}"
        );
    }

    #[test]
    fn concurrent_access_never_corrupts() {
        // A few fast units keep the drill quick while still racing
        // real save/load cycles.
        let units: Vec<(String, Program)> = corpus_units().into_iter().take(3).collect();
        let dir = drill_dir("concurrent");
        let outcome = run_concurrency_drill(&dir, &units, 4, 5).unwrap();
        assert_eq!(outcome.cycles, 20);
        assert_eq!(outcome.writes, 20, "every round must race a write");
        assert_eq!(
            outcome.recoveries, 0,
            "a racing loader observed a torn document: {outcome:?}"
        );
        assert!(outcome.final_warm, "{outcome:?}");
    }

    #[test]
    fn garbage_and_version_bump_always_recover() {
        // No class can load clean, whatever the seed (`ok` checks it);
        // these two also count exactly one recovery in the check run.
        let units = corpus_units();
        let dir = drill_dir("certain");
        for seed in [1u64, 99, 12345] {
            let outcomes = run_cache_drills(&dir, &units, seed).unwrap();
            for o in outcomes {
                assert!(o.ok(), "seed {seed}: {o:?}");
                if o.document == CheckTable::FILE
                    && (o.class == "garbage" || o.class == "version_bump")
                {
                    assert!(o.recovered, "{}: seed {seed}", o.class);
                    assert_eq!(o.recoveries, 1, "{}: seed {seed}", o.class);
                }
            }
        }
    }
}
