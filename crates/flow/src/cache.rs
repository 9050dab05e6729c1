//! The flow-summary table (`fearlessc flow --cache <dir>`).
//!
//! A second typed table in `fearless-incr`'s one fingerprint store: the
//! log (`flow.json`, schema `fearless-flow-cache/4`, one checksummed
//! record per key) gets the store's append-or-compact save, advisory
//! save lock (`flow.lock`), and
//! [`LoadOutcome`](fearless_incr::LoadOutcome) recovery signal,
//! degrading to a cold start on any corruption of its snapshot.
//!
//! Entries are keyed by the function's own checker
//! [`Fingerprint`](fearless_core::Fingerprint). That key is sound because
//! a summary reads nothing the fingerprint leaves out. `classify_fn`,
//! `local_heap_quiet` and `direct_callees` read only three things: the
//! function's own code, its callees' signatures (a call pops `n_params`
//! values and pushes `ret`), and the layouts of the structs whose values
//! its code can hold. The fingerprint hashes the function's definition,
//! the elaborated signature of every callee (its own included, which
//! covers its name), and every struct reachable from those signatures
//! and its body, closed over field types. A callee's *body* is in none
//! of them, so a body-only edit re-keys just the edited function. The
//! stored value is the per-function summary minus the `heap_quiet`
//! closure, the one cross-function fact, which is recomputed on every
//! load; warm and cold runs render byte-identical flow-facts documents.

use std::cell::Cell;
use std::collections::BTreeMap;

use fearless_core::Fingerprint;
use fearless_incr::disk::{fingerprint_json, fingerprint_of, insert_changed};
use fearless_incr::{Store, Table};
use fearless_runtime::StepSafety;
use fearless_trace::Json;

use crate::FnSummary;

/// File name inside the cache directory.
pub const CACHE_FILE: &str = FlowTable::FILE;

/// Schema tag of the cache log.
pub const CACHE_SCHEMA: &str = FlowTable::SCHEMA;

/// One cached per-function summary (everything but the cross-function
/// `heap_quiet` closure).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CachedSummary {
    name: String,
    safety: String,
    local_heap_quiet: bool,
    callees: Vec<String>,
}

impl CachedSummary {
    /// The cacheable part of `summary`.
    pub(crate) fn of(summary: &FnSummary) -> CachedSummary {
        CachedSummary {
            name: summary.name.clone(),
            safety: summary.safety_string(),
            local_heap_quiet: summary.local_heap_quiet,
            callees: summary.callees.clone(),
        }
    }

    fn to_json(&self, fp: Fingerprint) -> Json {
        Json::obj([
            ("fp", fingerprint_json(fp)),
            ("name", Json::str(self.name.clone())),
            ("safety", Json::str(self.safety.clone())),
            ("local_heap_quiet", Json::Bool(self.local_heap_quiet)),
            (
                "callees",
                Json::Arr(self.callees.iter().map(|c| Json::str(c.clone())).collect()),
            ),
        ])
    }

    fn decode(&self) -> Option<FnSummary> {
        let mut safety = Vec::with_capacity(self.safety.len());
        for c in self.safety.chars() {
            safety.push(StepSafety::from_code(c)?);
        }
        Some(FnSummary {
            name: self.name.clone(),
            safety,
            local_heap_quiet: self.local_heap_quiet,
            heap_quiet: self.local_heap_quiet,
            callees: self.callees.clone(),
        })
    }
}

/// The persistent flow-summary cache.
pub type FlowCache = Store<FlowTable>;

/// The flow table: cached per-function summaries keyed by the
/// function's checker fingerprint, plus this session's hit/miss counters
/// (not persisted).
#[derive(Debug, Default)]
pub struct FlowTable {
    entries: BTreeMap<Fingerprint, CachedSummary>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl Table for FlowTable {
    const FILE: &'static str = "flow.json";
    const SCHEMA: &'static str = "fearless-flow-cache/4";
    /// A fingerprint and the summary stored under it.
    type Record = (Fingerprint, CachedSummary);

    fn encode((fp, summary): &Self::Record) -> Json {
        summary.to_json(*fp)
    }

    fn decode(mut v: Json) -> Option<Self::Record> {
        let fp = fingerprint_of(&v.take("fp")?)?;
        let mut text = |k: &str| match v.take(k)? {
            Json::Str(s) => Some(s),
            _ => None,
        };
        let (name, safety) = (text("name")?, text("safety")?);
        let Some(Json::Bool(local_heap_quiet)) = v.take("local_heap_quiet") else {
            return None;
        };
        let Json::Arr(items) = v.take("callees")? else {
            return None;
        };
        let callees = items
            .into_iter()
            .map(|item| match item {
                Json::Str(s) => Some(s),
                _ => None,
            })
            .collect::<Option<_>>()?;
        let summary = CachedSummary {
            name,
            safety,
            local_heap_quiet,
            callees,
        };
        Some((fp, summary))
    }

    fn apply(&mut self, (fp, summary): Self::Record) -> bool {
        insert_changed(&mut self.entries, fp, summary)
    }

    fn records(&self) -> Vec<Json> {
        self.entries.iter().map(|(fp, v)| v.to_json(*fp)).collect()
    }

    fn live(&self) -> usize {
        self.entries.len()
    }
}

impl FlowTable {
    /// Number of stored summaries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no summaries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` counted across lookups so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Looks up (and decodes) a cached summary, counting a hit or miss.
    /// The stored name must match `name` — a fingerprint collision across
    /// functions must not smuggle one function's verdicts into another.
    pub(crate) fn lookup(&self, fp: Fingerprint, name: &str) -> Option<FnSummary> {
        let found = self
            .entries
            .get(&fp)
            .filter(|s| s.name == name)
            .and_then(|s| s.decode());
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.set(counter.get() + 1);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_checked_cached, analyze_source};
    use fearless_core::{check_source, CheckerOptions};
    use fearless_incr::LoadOutcome;
    use std::path::PathBuf;

    const SRC: &str = "struct data { value: int }
        struct pair { first : data; second : data }
        def set_value(d : data) : unit { d.value = 7; }
        def relink(p : pair, d : data) : unit consumes d { p.first = d; set_value(d); }";

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fearless-flow-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_and_cold_runs_are_byte_identical() {
        let dir = temp_dir("warmcold");
        let checked = check_source(SRC, &CheckerOptions::default()).expect("checks");

        let mut cold = FlowCache::load(&dir);
        let cold_flow = analyze_checked_cached(&checked, &mut cold).expect("analyzes");
        assert_eq!(cold.stats(), (0, 2), "cold run misses every function");
        cold.save().expect("saves");

        let mut warm = FlowCache::load(&dir);
        assert_eq!(warm.len(), 2);
        let warm_flow = analyze_checked_cached(&checked, &mut warm).expect("analyzes");
        assert_eq!(warm.stats(), (2, 0), "warm run hits every function");
        assert_eq!(cold_flow.to_json(), warm_flow.to_json());

        // And both match the cache-free analysis.
        let direct = analyze_source(SRC, &CheckerOptions::default()).expect("analyzes");
        assert_eq!(direct.to_json(), cold_flow.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_schema_1_document_is_one_cold_recovery() {
        let dir = temp_dir("schema-1");
        let checked = check_source(SRC, &CheckerOptions::default()).expect("checks");
        let mut cold = FlowCache::load(&dir);
        let cold_flow = analyze_checked_cached(&checked, &mut cold).expect("analyzes");
        cold.save().expect("saves");
        let path = dir.join(CACHE_FILE);
        let old = std::fs::read_to_string(&path)
            .unwrap()
            .replace(CACHE_SCHEMA, "fearless-flow-cache/1");
        std::fs::write(&path, old).unwrap();

        let mut loaded = FlowCache::load(&dir);
        assert_eq!(
            loaded.load_outcome(),
            LoadOutcome::Recovered("schema mismatch")
        );
        let flow = analyze_checked_cached(&checked, &mut loaded).expect("analyzes");
        assert_eq!(
            loaded.stats(),
            (0, 2),
            "nothing replays from the old document"
        );
        assert_eq!(flow.to_json(), cold_flow.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Analyzes `SRC` into a fresh ephemeral cache, then `edited` over
    /// it: the second run's `(hits, misses)`, its dirty records, and
    /// whether its output equals a cacheless run.
    fn edit_run(edited: &str) -> ((u64, u64), usize, bool) {
        let opts = CheckerOptions::default();
        let mut cache = FlowCache::ephemeral();
        let checked = check_source(SRC, &opts).expect("checks");
        analyze_checked_cached(&checked, &mut cache).expect("analyzes");
        let (hits, misses) = cache.stats();
        let checked = check_source(edited, &opts).expect("checks");
        let flow = analyze_checked_cached(&checked, &mut cache).expect("analyzes");
        let (all_hits, all_misses) = cache.stats();
        let cold = analyze_source(edited, &opts).expect("analyzes");
        (
            (all_hits - hits, all_misses - misses),
            cache.dirty(),
            flow.to_json() == cold.to_json(),
        )
    }

    #[test]
    fn a_callee_body_edit_rekeys_only_the_callee() {
        // `relink` calls `set_value`; a body edit leaves its key alone.
        let edited = SRC.replace("d.value = 7", "d.value = 8");
        assert_eq!(edit_run(&edited), ((1, 1), 3, true));
    }

    #[test]
    fn a_callee_signature_edit_rekeys_its_callers() {
        // Renaming the parameter changes `set_value`'s elaborated
        // signature, which is part of the caller's fingerprint.
        let edited = SRC.replace(
            "set_value(d : data) : unit { d.value = 7; }",
            "set_value(e : data) : unit { e.value = 7; }",
        );
        assert_eq!(edit_run(&edited), ((0, 2), 4, true));
    }

    #[test]
    fn corrupt_documents_degrade_to_cold() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let recovers = |text: &str, reason: &'static str| {
            std::fs::write(dir.join(CACHE_FILE), text).unwrap();
            let cache = FlowCache::load(&dir);
            assert!(cache.is_empty(), "{reason}");
            assert_eq!(cache.load_outcome(), LoadOutcome::Recovered(reason));
        };
        recovers("{ not json", "schema mismatch");
        recovers(
            &format!("{CACHE_SCHEMA}\n{{\"commit\": 0}}\n"),
            "checksum mismatch",
        );
        recovers(&format!("{CACHE_SCHEMA}\n"), "truncated");
        recovers("fearless-flow-cache/1\n", "schema mismatch");

        // A record edit that still parses is caught by its checksum.
        let checked = check_source(SRC, &CheckerOptions::default()).expect("checks");
        let mut cache = FlowCache::ephemeral();
        analyze_checked_cached(&checked, &mut cache).expect("analyzes");
        recovers(
            &cache.snapshot().replace("set_value", "set_valuf"),
            "checksum mismatch",
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_schema_2_document_is_one_cold_recovery() {
        // The one-document format before the record log.
        let dir = temp_dir("schema-2");
        std::fs::create_dir_all(&dir).unwrap();
        let old =
            "{\n  \"schema\": \"fearless-flow-cache/2\",\n  \"checksum\": \"0f3a9c2e7d1b5a40\",\
                   \n  \"entries\": {\n    \"3c9d0e4f1a2b7c85\": {\n      \"name\": \"set_value\",\
                   \n      \"safety\": \"SS\",\n      \"local_heap_quiet\": false,\
                   \n      \"callees\": []\n    }\n  }\n}\n";
        std::fs::write(dir.join(CACHE_FILE), old).unwrap();
        let checked = check_source(SRC, &CheckerOptions::default()).expect("checks");
        let mut loaded = FlowCache::load(&dir);
        assert_eq!(
            loaded.load_outcome(),
            LoadOutcome::Recovered("schema mismatch")
        );
        let flow = analyze_checked_cached(&checked, &mut loaded).expect("analyzes");
        assert_eq!(loaded.stats(), (0, 2), "nothing replays from it");
        let direct = analyze_source(SRC, &CheckerOptions::default()).expect("analyzes");
        assert_eq!(flow.to_json(), direct.to_json());
        // One recovery, not one per load: the save replaces it.
        loaded.save().expect("saves");
        assert_eq!(FlowCache::load(&dir).load_outcome(), LoadOutcome::Warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_all_hit_run_writes_nothing_and_an_edit_appends() {
        let dir = temp_dir("append");
        let checked = check_source(SRC, &CheckerOptions::default()).expect("checks");
        let mut cache = FlowCache::load(&dir);
        analyze_checked_cached(&checked, &mut cache).expect("analyzes");
        cache.save().expect("saves");
        let path = dir.join(CACHE_FILE);
        let snapshot = std::fs::read_to_string(&path).unwrap();

        let mut warm = FlowCache::load(&dir);
        analyze_checked_cached(&checked, &mut warm).expect("analyzes");
        assert_eq!(warm.dirty(), 0);
        warm.save().expect("saves");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), snapshot);

        // `set_value`'s body changes: one fresh record; its caller
        // `relink` keeps its key.
        let edited = SRC.replace("d.value = 7", "d.value = 8");
        let checked2 = check_source(&edited, &CheckerOptions::default()).expect("checks");
        analyze_checked_cached(&checked2, &mut warm).expect("analyzes");
        warm.save().expect("saves");
        let text = std::fs::read_to_string(&path).unwrap();
        let journal = text.strip_prefix(&snapshot).expect("appended");
        assert_eq!(journal.lines().count(), 1);
        let loaded = FlowCache::load(&dir);
        assert_eq!(loaded.replayed(), 1);
        assert_eq!(loaded.snapshot(), warm.snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_leaves_only_the_document_behind() {
        let dir = temp_dir("clean-save");
        let checked = check_source(SRC, &CheckerOptions::default()).expect("checks");
        let mut cache = FlowCache::load(&dir);
        assert_eq!(cache.load_outcome(), LoadOutcome::Cold);
        analyze_checked_cached(&checked, &mut cache).expect("analyzes");
        cache.save().expect("saves");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, [CACHE_FILE], "no temp or lock file may remain");
        assert_eq!(FlowCache::load(&dir).load_outcome(), LoadOutcome::Warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_load_roundtrip_preserves_document_bytes() {
        let dir = temp_dir("roundtrip");
        let checked = check_source(SRC, &CheckerOptions::default()).expect("checks");
        let mut cache = FlowCache::load(&dir);
        analyze_checked_cached(&checked, &mut cache).expect("analyzes");
        cache.save().expect("saves");
        let loaded = FlowCache::load(&dir);
        assert_eq!(loaded.snapshot(), cache.snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
