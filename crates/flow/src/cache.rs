//! The flow-summary table (`fearlessc flow --cache <dir>`).
//!
//! A second typed table in `fearless-incr`'s one fingerprint store: the
//! log (`flow.json`, schema `fearless-flow-cache/3`, one checksummed
//! record per key) gets the store's append-or-compact save, advisory
//! save lock (`flow.lock`), and
//! [`LoadOutcome`](fearless_incr::LoadOutcome) recovery signal,
//! degrading to a cold start on any corruption of its snapshot.
//!
//! Entries are keyed by [`fn_key`]: a checksum over the function's own
//! checker [`Fingerprint`](fearless_core::Fingerprint) and the
//! fingerprints of every transitively reachable callee. The stored value
//! is the per-function summary minus the `heap_quiet` closure (which is
//! cross-function state, recomputed cheaply on every load), so warm and
//! cold runs render byte-identical flow-facts documents.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

use fearless_incr::disk::insert_changed;
use fearless_incr::{checksum_hex, Store, Table};
use fearless_runtime::{CompiledProgram, Inst, StepSafety};
use fearless_trace::Json;

use crate::FnSummary;

/// File name inside the cache directory.
pub const CACHE_FILE: &str = FlowTable::FILE;

/// Schema tag of the cache log.
pub const CACHE_SCHEMA: &str = FlowTable::SCHEMA;

/// The cache key for function `func`: own fingerprint plus the sorted
/// fingerprints of every transitively callable function (absent
/// fingerprints contribute a fixed marker, which keeps the key stable
/// but distinct).
pub(crate) fn fn_key(
    program: &CompiledProgram,
    func: usize,
    fps: &BTreeMap<String, String>,
) -> String {
    let mut reachable: BTreeSet<usize> = BTreeSet::new();
    let mut work = vec![func];
    while let Some(i) = work.pop() {
        if !reachable.insert(i) {
            continue;
        }
        for inst in &program.funcs[i].code {
            if let Inst::Call(f) = inst {
                let f = *f as usize;
                if f < program.funcs.len() && !reachable.contains(&f) {
                    work.push(f);
                }
            }
        }
    }
    let own = program.funcs[func].name.to_string();
    let mut parts: Vec<String> = vec![own.clone()];
    parts.push(fps.get(&own).cloned().unwrap_or_else(|| "?".to_string()));
    let mut callee_fps: Vec<String> = reachable
        .iter()
        .filter(|i| **i != func)
        .map(|i| {
            let name = program.funcs[*i].name.to_string();
            fps.get(&name).cloned().unwrap_or_else(|| "?".to_string())
        })
        .collect();
    callee_fps.sort();
    parts.extend(callee_fps);
    checksum_hex(&parts.join("|"))
}

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

    fn to_json(&self, key: &str) -> Json {
        Json::obj([
            ("key", Json::str(key)),
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

/// The flow table: cached per-function summaries keyed by a checksum of
/// the function's and its reachable callees' fingerprints, plus this
/// session's hit/miss counters (not persisted).
#[derive(Debug, Default)]
pub struct FlowTable {
    entries: BTreeMap<String, CachedSummary>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl Table for FlowTable {
    const FILE: &'static str = "flow.json";
    const SCHEMA: &'static str = "fearless-flow-cache/3";
    /// A key and the summary stored under it.
    type Record = (String, CachedSummary);

    fn encode((key, summary): &Self::Record) -> Json {
        summary.to_json(key)
    }

    fn decode(mut v: Json) -> Option<Self::Record> {
        let mut text = |k: &str| match v.take(k)? {
            Json::Str(s) => Some(s),
            _ => None,
        };
        let (key, name, safety) = (text("key")?, text("name")?, text("safety")?);
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
        Some((key, summary))
    }

    fn apply(&mut self, (key, summary): Self::Record) -> bool {
        insert_changed(&mut self.entries, key, summary)
    }

    fn records(&self) -> Vec<Json> {
        self.entries.iter().map(|(k, v)| v.to_json(k)).collect()
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
    /// The stored name must match `name` — a checksum collision across
    /// functions must not smuggle one function's verdicts into another.
    pub(crate) fn lookup(&self, key: &str, name: &str) -> Option<FnSummary> {
        let found = self
            .entries
            .get(key)
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

    #[test]
    fn editing_a_function_invalidates_its_key_and_its_callers() {
        let checked = check_source(SRC, &CheckerOptions::default()).expect("checks");
        let mut cache = FlowCache::ephemeral();
        analyze_checked_cached(&checked, &mut cache).expect("analyzes");

        // `set_value` changes; `relink` calls it, so both keys move.
        let edited = SRC.replace("d.value = 7", "d.value = 8");
        let checked2 = check_source(&edited, &CheckerOptions::default()).expect("checks");
        let flow2 = analyze_checked_cached(&checked2, &mut cache).expect("analyzes");
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (0, 4), "edit invalidates callee and caller");
        assert_eq!(
            flow2.to_json(),
            analyze_source(&edited, &CheckerOptions::default())
                .expect("analyzes")
                .to_json()
        );
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

        // `set_value` changes; `relink` calls it: two fresh records.
        let edited = SRC.replace("d.value = 7", "d.value = 8");
        let checked2 = check_source(&edited, &CheckerOptions::default()).expect("checks");
        analyze_checked_cached(&checked2, &mut warm).expect("analyzes");
        warm.save().expect("saves");
        let text = std::fs::read_to_string(&path).unwrap();
        let journal = text.strip_prefix(&snapshot).expect("appended");
        assert_eq!(journal.lines().count(), 2);
        let loaded = FlowCache::load(&dir);
        assert_eq!(loaded.replayed(), 2);
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
