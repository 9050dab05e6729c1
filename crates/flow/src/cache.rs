//! The flow-summary table (`fearlessc flow --cache <dir>`).
//!
//! A second typed table in `fearless-incr`'s one fingerprint store: the
//! document (`flow.json`, schema `fearless-flow-cache/2`) gets the
//! store's embedded content checksum, atomic save, advisory save lock
//! (`flow.lock`), and [`LoadOutcome`](fearless_incr::LoadOutcome)
//! recovery signal, degrading to a cold start on *any* corruption.
//!
//! Entries are keyed by [`fn_key`]: a checksum over the function's own
//! checker [`Fingerprint`](fearless_core::Fingerprint) and the
//! fingerprints of every transitively reachable callee. The stored value
//! is the per-function summary minus the `heap_quiet` closure (which is
//! cross-function state, recomputed cheaply on every load), so warm and
//! cold runs render byte-identical flow-facts documents.

use std::collections::{BTreeMap, BTreeSet};

use fearless_incr::{checksum_hex, Store, Table};
use fearless_runtime::{CompiledProgram, Inst, StepSafety};
use fearless_trace::Json;

use crate::FnSummary;

/// File name inside the cache directory.
pub const CACHE_FILE: &str = FlowTable::FILE;

/// Schema tag of the cache document.
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
struct CachedSummary {
    name: String,
    safety: String,
    local_heap_quiet: bool,
    callees: Vec<String>,
}

impl CachedSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name.clone())),
            ("safety", Json::str(self.safety.clone())),
            ("local_heap_quiet", Json::Bool(self.local_heap_quiet)),
            (
                "callees",
                Json::Arr(self.callees.iter().map(|c| Json::str(c.clone())).collect()),
            ),
        ])
    }

    fn from_json(mut v: Json) -> Option<CachedSummary> {
        let Some(Json::Str(name)) = v.take("name") else {
            return None;
        };
        let Some(Json::Str(safety)) = v.take("safety") else {
            return None;
        };
        let Some(Json::Bool(local_heap_quiet)) = v.take("local_heap_quiet") else {
            return None;
        };
        let mut callees = Vec::new();
        if let Json::Arr(items) = v.take("callees")? {
            for item in items {
                match item {
                    Json::Str(s) => callees.push(s),
                    _ => return None,
                }
            }
        }
        Some(CachedSummary {
            name,
            safety,
            local_heap_quiet,
            callees,
        })
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
    hits: u64,
    misses: u64,
}

impl Table for FlowTable {
    const FILE: &'static str = "flow.json";
    const SCHEMA: &'static str = "fearless-flow-cache/2";
    const FIELDS: &'static [&'static str] = &["entries"];

    fn to_fields(&self) -> Vec<Json> {
        vec![Json::Obj(
            self.entries
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        )]
    }

    fn from_fields(fields: Vec<Json>) -> Self {
        let mut table = FlowTable::default();
        if let Some(Json::Obj(entries)) = fields.into_iter().next() {
            for (key, v) in entries {
                if let Some(summary) = CachedSummary::from_json(v) {
                    table.entries.insert(key, summary);
                }
            }
        }
        table
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
        (self.hits, self.misses)
    }

    /// Looks up (and decodes) a cached summary, counting a hit or miss.
    /// The stored name must match `name` — a checksum collision across
    /// functions must not smuggle one function's verdicts into another.
    pub(crate) fn lookup(&mut self, key: &str, name: &str) -> Option<FnSummary> {
        let found = self
            .entries
            .get(key)
            .filter(|s| s.name == name)
            .and_then(|s| s.decode());
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Stores `summary` under `key`.
    pub(crate) fn insert(&mut self, key: &str, summary: &FnSummary) {
        self.entries.insert(
            key.to_string(),
            CachedSummary {
                name: summary.name.clone(),
                safety: summary.safety_string(),
                local_heap_quiet: summary.local_heap_quiet,
                callees: summary.callees.clone(),
            },
        );
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
        recovers("{ not json", "malformed json");
        recovers(
            &format!("{{\n  \"schema\": \"{CACHE_SCHEMA}\",\n  \"entries\": {{}}\n}}"),
            "missing checksum",
        );
        recovers(
            "{\n  \"schema\": \"fearless-flow-cache/1\",\n  \"entries\": {}\n}",
            "schema mismatch",
        );

        // A payload edit that still parses is caught by the checksum.
        let checked = check_source(SRC, &CheckerOptions::default()).expect("checks");
        let mut cache = FlowCache::ephemeral();
        analyze_checked_cached(&checked, &mut cache).expect("analyzes");
        recovers(
            &cache.to_json().replace("set_value", "set_valuf"),
            "checksum mismatch",
        );
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
        assert_eq!(loaded.to_json(), cache.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
