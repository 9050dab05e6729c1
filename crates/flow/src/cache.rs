//! The on-disk flow-summary cache (`fearlessc flow --cache <dir>`).
//!
//! Same discipline as `fearless-incr`'s check cache: one deterministic
//! JSON document (`flow.json`, schema `fearless-flow-cache/1`) with an
//! embedded FNV-1a 64 content checksum, written atomically via a temp
//! file + rename, degrading to a cold start on *any* corruption.
//!
//! Entries are keyed by [`fn_key`]: a checksum over the function's own
//! checker [`Fingerprint`](fearless_core::Fingerprint) and the
//! fingerprints of every transitively reachable callee. The stored value
//! is the per-function summary minus the `heap_quiet` closure (which is
//! cross-function state, recomputed cheaply on every load), so warm and
//! cold runs render byte-identical flow-facts documents.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use fearless_incr::{checksum_hex, parse_json};
use fearless_runtime::{CompiledProgram, Inst, StepSafety};
use fearless_trace::Json;

use crate::FnSummary;

/// File name inside the cache directory.
pub const CACHE_FILE: &str = "flow.json";

/// Schema tag of the cache document.
pub const CACHE_SCHEMA: &str = "fearless-flow-cache/1";

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
#[derive(Debug, Default)]
pub struct FlowCache {
    dir: Option<PathBuf>,
    entries: BTreeMap<String, CachedSummary>,
    hits: u64,
    misses: u64,
}

impl FlowCache {
    /// An in-memory cache [`FlowCache::save`] will not persist.
    pub fn ephemeral() -> Self {
        FlowCache::default()
    }

    /// Loads the cache from `dir`, degrading to an empty cold-start
    /// cache on any read, parse, schema, or checksum failure.
    pub fn load(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let mut cache = FlowCache {
            dir: Some(dir.clone()),
            ..FlowCache::default()
        };
        let Ok(bytes) = std::fs::read(dir.join(CACHE_FILE)) else {
            return cache;
        };
        let Ok(text) = String::from_utf8(bytes) else {
            return cache;
        };
        let Some(mut root) = parse_json(&text) else {
            return cache;
        };
        if !matches!(root.take("schema"), Some(Json::Str(s)) if s == CACHE_SCHEMA) {
            return cache;
        }
        let Some(Json::Str(stored_checksum)) = root.take("checksum") else {
            return cache;
        };
        let entries = root.take("entries").unwrap_or(Json::Obj(Vec::new()));
        let payload = Json::render_fields(&[("entries", &entries)]);
        if checksum_hex(&payload) != stored_checksum {
            return cache;
        }
        if let Json::Obj(entries) = entries {
            for (key, v) in entries {
                if let Some(summary) = CachedSummary::from_json(v) {
                    cache.entries.insert(key, summary);
                }
            }
        }
        cache
    }

    /// Number of stored summaries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no summaries.
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

    /// Renders the cache document (deterministic bytes, embedded
    /// content checksum).
    pub fn to_json(&self) -> String {
        let entries = Json::Obj(
            self.entries
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );
        let payload = Json::render_fields(&[("entries", &entries)]);
        Json::render_fields(&[
            ("schema", &Json::str(CACHE_SCHEMA)),
            ("checksum", &Json::str(checksum_hex(&payload))),
            ("entries", &entries),
        ])
    }

    /// Writes the cache back atomically (temp file + rename). Ephemeral
    /// caches are a no-op.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory or file cannot be written.
    pub fn save(&self) -> Result<(), String> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache dir `{}`: {e}", dir.display()))?;
        let path = dir.join(CACHE_FILE);
        let tmp = dir.join(format!("{CACHE_FILE}.tmp.{}", std::process::id()));
        std::fs::write(&tmp, self.to_json())
            .map_err(|e| format!("cannot write cache temp `{}`: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("cannot commit cache `{}`: {e}", path.display())
        })
    }

    /// The backing directory, if persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_checked_cached, analyze_source};
    use fearless_core::{check_source, CheckerOptions};

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
        std::fs::write(dir.join(CACHE_FILE), "{ not json").unwrap();
        assert!(FlowCache::load(&dir).is_empty());
        std::fs::write(
            dir.join(CACHE_FILE),
            format!("{{\n  \"schema\": \"{CACHE_SCHEMA}\",\n  \"entries\": {{}}\n}}"),
        )
        .unwrap();
        assert!(FlowCache::load(&dir).is_empty(), "missing checksum");
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
