//! The on-disk fingerprint store: one document path, typed tables.
//!
//! Every persistent cache in the workspace is a [`Store`] over a
//! [`Table`]. The store owns the document handling — schema tag, content
//! checksum, load with a [`LoadOutcome`], atomic save, advisory lock —
//! and the table owns only its typed payload. Two tables exist:
//!
//! * [`CheckTable`] (`check-cache.json`, schema `fearless-incr-cache/2`,
//!   the [`DiskCache`] behind `fearlessc check --cache <dir>`). Entries
//!   are content-addressed by [`Fingerprint`] hex and store the
//!   per-function check *summary* — verdict, derivation shape, and the
//!   span counter map — not the derivation itself: enough to replay
//!   `fearlessc check`'s report, diagnostics, and `--metrics json` spans
//!   byte-for-byte without re-deriving anything. A `names` table maps the
//!   last fingerprint seen per qualified function name, which is what
//!   turns a content change into a counted *invalidation*.
//! * `fearless_flow::FlowTable` (`flow.json`), the flow-summary cache.
//!
//! The workspace is offline by design, so documents are rendered through
//! `fearless-trace`'s [`Json`] tree and read back by the minimal parser
//! in this module (exactly the subset that renderer emits). A missing or
//! unreadable file degrades to an empty table, never an error.
//!
//! ## Crash safety
//!
//! A cache must survive any on-disk corruption — truncation, bit flips,
//! torn writes, schema drift — by silently degrading to a cold start
//! with byte-identical output. Three mechanisms enforce that, once, for
//! every table:
//!
//! * **Atomic save**: [`Store::save`] writes a temp file in the cache
//!   directory and `rename`s it over the document, so a crash mid-save
//!   leaves either the old document or the new one, never a torn hybrid
//!   (a stray temp file is inert).
//! * **Content checksum**: the document embeds an FNV-1a 64 checksum of
//!   the table's payload fields as rendered. A save renders the payload
//!   once, checksums those bytes and writes them after the schema and
//!   checksum members. A [`Store::load`] is one linear [`parse_json`]
//!   pass plus this checksum over the payload bytes as read, so every
//!   byte of the document is covered; the parsed fields are then moved,
//!   not cloned, into the table. Any mismatch (or malformed JSON, or a
//!   schema-tag mismatch) discards the file and records a
//!   [`LoadOutcome::Recovered`] that drivers surface as the
//!   `cache_recoveries` stat and a `cache_recovery` trace event.
//! * **Advisory save lock**: long-lived processes (the `fearlessc
//!   serve` daemon) and batch invocations may share one cache
//!   directory. [`Store::save`] takes a best-effort advisory lock named
//!   after the document (`check-cache.lock`, `flow.lock`; created with
//!   `O_EXCL`) so concurrent savers serialize instead of stampeding; a
//!   lock older than [`LOCK_STALE_SECS`] is presumed abandoned by a
//!   crashed holder and stolen. If the lock never frees, the save
//!   proceeds anyway — last-writer-wins is safe here because the atomic
//!   rename and the content checksum already guarantee every reader sees
//!   some complete, verified document; the lock only reduces wasted
//!   writes, it is not needed for correctness. The two-process drill in
//!   `fearless-chaos` (`run_concurrency_drill`) pins the contract:
//!   concurrent save/load cycles never observe a recovery.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};

use fearless_core::Fingerprint;
use fearless_trace::{parse_json, Json};

/// File name of the check table inside the cache directory.
pub const CACHE_FILE: &str = CheckTable::FILE;

/// Age (seconds) past which a lock file is presumed abandoned by a
/// crashed holder and stolen.
pub const LOCK_STALE_SECS: u64 = 30;

/// A held (or deliberately skipped) advisory save lock. Dropping a held
/// lock removes the lock file.
struct SaveLock {
    path: PathBuf,
    held: bool,
}

/// What the staleness check sampled about a lock file, used to
/// re-verify the steal: the holder's pid (the file content) and the
/// modification timestamp. A lock whose identity changed between the
/// staleness check and the steal belongs to a *new*, live holder and
/// must not be stolen.
#[derive(Clone, PartialEq, Eq, Debug)]
struct LockSample {
    pid: String,
    modified: Option<std::time::SystemTime>,
}

impl LockSample {
    fn read(path: &Path) -> Option<LockSample> {
        let pid = std::fs::read_to_string(path).ok()?;
        let modified = std::fs::metadata(path).and_then(|m| m.modified()).ok();
        Some(LockSample { pid, modified })
    }
}

impl SaveLock {
    /// Tries to create the lock file for document `file` (its name with
    /// `.json` replaced by `.lock`) exclusively, retrying `retries`
    /// times with `wait_millis` sleeps and stealing locks older than
    /// `stale_secs`. Never fails: on timeout the returned guard is
    /// simply not held and the caller proceeds last-writer-wins.
    fn acquire(
        dir: &Path,
        file: &str,
        retries: u32,
        wait_millis: u64,
        stale_secs: u64,
    ) -> SaveLock {
        let path = dir.join(format!("{}.lock", file.trim_end_matches(".json")));
        let mut attempts = 0u32;
        // Stealing a stale lock retries the create immediately and has
        // its own small budget, so it never eats the wait schedule.
        let mut steals = 3u32;
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    use std::io::Write as _;
                    let _ = write!(f, "{}", std::process::id());
                    return SaveLock { path, held: true };
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let sample = LockSample::read(&path);
                    let stale = sample
                        .as_ref()
                        .and_then(|s| s.modified)
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age.as_secs() >= stale_secs);
                    if stale && steals > 0 {
                        steals -= 1;
                        if let Some(sample) = sample {
                            let _ = try_steal(&path, &sample);
                        }
                        continue;
                    }
                    if attempts >= retries {
                        return SaveLock { path, held: false };
                    }
                    attempts += 1;
                    std::thread::sleep(std::time::Duration::from_millis(wait_millis));
                }
                // The directory vanished or permissions broke: the save
                // itself will surface that; don't hold anything.
                Err(_) => return SaveLock { path, held: false },
            }
        }
    }
}

/// Steals a lock previously sampled as stale, closing the TOCTOU window
/// between the staleness check and the `create_new` retry: the lock is
/// first *renamed* to a private claim name (atomic — only one stealer
/// can win the rename), then its pid/timestamp are re-verified against
/// the sample. If they no longer match, a fresh holder re-created the
/// lock in the window; the claim is moved back (best effort) and the
/// steal is abandoned. Returns whether the stale lock was removed.
fn try_steal(path: &Path, sampled: &LockSample) -> bool {
    let claim = path.with_extension(format!("steal.{}", std::process::id()));
    if std::fs::rename(path, &claim).is_err() {
        // Someone else stole (or released) it first.
        return false;
    }
    let current = LockSample::read(&claim);
    if current.as_ref() == Some(sampled) {
        // Same pid, same timestamp: this is the abandoned lock we
        // sampled. Delete the claim; `create_new` now has a clear path.
        let _ = std::fs::remove_file(&claim);
        return true;
    }
    // The lock changed hands between the staleness check and the
    // rename — it belongs to a live holder. Put it back unless an even
    // newer lock already took the name (then the claim is just dropped;
    // the displaced holder's release will be a harmless no-op).
    if !path.exists() {
        let _ = std::fs::rename(&claim, path);
    } else {
        let _ = std::fs::remove_file(&claim);
    }
    false
}

impl Drop for SaveLock {
    fn drop(&mut self) {
        if self.held {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// A cached per-function check outcome — the replayable summary of one
/// `check_fn` run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CachedOutcome {
    /// The function checked. Stores the derivation shape (for the check
    /// report) and the full span counter map (for metrics replay).
    Ok {
        /// Derivation nodes.
        nodes: u64,
        /// Virtual-transformation steps.
        vir_steps: u64,
        /// Backtracking-search states visited.
        search_nodes: u64,
        /// The `check` span's counters, keyed by counter name.
        counters: BTreeMap<String, u64>,
    },
    /// The function failed to check.
    Err {
        /// The checker's message (no function prefix; the driver
        /// re-attaches it).
        message: String,
        /// Span start byte.
        span_lo: u32,
        /// Span end byte.
        span_hi: u32,
    },
}

impl CachedOutcome {
    pub(crate) fn to_json(&self) -> Json {
        match self {
            CachedOutcome::Ok {
                nodes,
                vir_steps,
                search_nodes,
                counters,
            } => Json::obj([
                ("ok", Json::Bool(true)),
                ("nodes", Json::U64(*nodes)),
                ("vir_steps", Json::U64(*vir_steps)),
                ("search_nodes", Json::U64(*search_nodes)),
                (
                    "counters",
                    Json::Obj(
                        counters
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::U64(*v)))
                            .collect(),
                    ),
                ),
            ]),
            CachedOutcome::Err {
                message,
                span_lo,
                span_hi,
            } => Json::obj([
                ("ok", Json::Bool(false)),
                ("message", Json::str(message.clone())),
                ("span_lo", Json::U64(*span_lo as u64)),
                ("span_hi", Json::U64(*span_hi as u64)),
            ]),
        }
    }

    pub(crate) fn from_json(mut v: Json) -> Option<CachedOutcome> {
        match v.take("ok")? {
            Json::Bool(true) => {
                let mut counters = BTreeMap::new();
                if let Some(Json::Obj(cs)) = v.take("counters") {
                    for (k, v) in cs {
                        if let Json::U64(n) = v {
                            counters.insert(k, n);
                        }
                    }
                }
                Some(CachedOutcome::Ok {
                    nodes: v.get("nodes")?.as_u64()?,
                    vir_steps: v.get("vir_steps")?.as_u64()?,
                    search_nodes: v.get("search_nodes")?.as_u64()?,
                    counters,
                })
            }
            Json::Bool(false) => Some(CachedOutcome::Err {
                message: match v.take("message")? {
                    Json::Str(s) => s,
                    _ => return None,
                },
                span_lo: v.get("span_lo")?.as_u64()? as u32,
                span_hi: v.get("span_hi")?.as_u64()? as u32,
            }),
            _ => None,
        }
    }
}

/// How a [`Store::load`] went.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LoadOutcome {
    /// No persistent document existed (first run, or an ephemeral
    /// store) — an ordinary cold start.
    #[default]
    Cold,
    /// The document parsed and its checksum verified; entries are live.
    Warm,
    /// A document existed but was unusable; the store degraded to a
    /// cold start. The payload says why (for the trace event) — it
    /// never changes diagnostics.
    Recovered(&'static str),
}

/// FNV-1a 64 over `text`, in fixed-width lowercase hex — the content
/// checksum embedded in (and verified against) every cache document.
pub fn checksum_hex(text: &str) -> String {
    format!("{:016x}", fnv1a64(FNV64_OFFSET, text.as_bytes()))
}

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64 hash from state `h` over `bytes`.
fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A document up to its payload: the opening brace, the schema and
/// checksum members, and the comma before the first payload field. The
/// payload rendering minus its own opening brace follows, so a document
/// is byte-for-byte the rendering of all four fields as one object.
fn document_head(schema: &str, checksum: &str) -> String {
    format!("{{\n  \"schema\": \"{schema}\",\n  \"checksum\": \"{checksum}\",")
}

/// A typed table persisted as one checksummed document by [`Store`].
///
/// The document is `{schema, checksum, <FIELDS...>}`; the checksum
/// covers the rendering of exactly the payload fields.
pub trait Table: Default {
    /// File name inside the cache directory.
    const FILE: &'static str;
    /// Schema tag of the document.
    const SCHEMA: &'static str;
    /// Payload field names, in document order (at least one).
    const FIELDS: &'static [&'static str];

    /// Renders the payload: one value per name in [`Table::FIELDS`].
    fn to_fields(&self) -> Vec<Json>;

    /// Rebuilds the table from checksum-verified payload values, one per
    /// name in [`Table::FIELDS`] (an absent field arrives as an empty
    /// object). Malformed items are skipped: a load degrades, it never
    /// errors.
    fn from_fields(fields: Vec<Json>) -> Self;
}

/// A [`Table`] plus where it persists and how its last load went.
/// Dereferences to the table, so table methods are called on the store
/// directly.
#[derive(Debug, Default)]
pub struct Store<T> {
    dir: Option<PathBuf>,
    load_outcome: LoadOutcome,
    table: T,
}

/// The persistent check cache: replayable check outcomes keyed by
/// fingerprint.
pub type DiskCache = Store<CheckTable>;

impl<T: Table> Store<T> {
    /// An in-memory store that [`Store::save`] will not persist (used by
    /// FA002 probes, benchmarks, and warm/cold comparisons inside one
    /// process).
    pub fn ephemeral() -> Self {
        Store::default()
    }

    /// Loads the table from `dir`, degrading to an empty cold-start
    /// table on *any* read, parse, schema, or checksum failure (a cache
    /// must never turn into an error — the failure is recorded in
    /// [`Store::load_outcome`] only).
    pub fn load(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let (load_outcome, table) = match read_table::<T>(&dir) {
            Ok(Some(table)) => (LoadOutcome::Warm, table),
            Ok(None) => (LoadOutcome::Cold, T::default()),
            Err(reason) => (LoadOutcome::Recovered(reason), T::default()),
        };
        Store {
            dir: Some(dir),
            load_outcome,
            table,
        }
    }

    /// How the load went (checksum-verified, cold, or recovered from a
    /// corrupt document).
    pub fn load_outcome(&self) -> LoadOutcome {
        self.load_outcome
    }

    /// The recovery reason, when the persistent document existed but
    /// was discarded as corrupt.
    pub fn recovered_reason(&self) -> Option<&'static str> {
        match self.load_outcome {
            LoadOutcome::Recovered(reason) => Some(reason),
            _ => None,
        }
    }

    /// Like [`Store::recovered_reason`], but one-shot: the marker is
    /// cleared so a driver running several batches over one store counts
    /// the recovery exactly once.
    pub fn take_recovered_reason(&mut self) -> Option<&'static str> {
        let reason = self.recovered_reason();
        if reason.is_some() {
            self.load_outcome = LoadOutcome::Cold;
        }
        reason
    }

    /// Renders the document (deterministic bytes, embedded content
    /// checksum over the payload rendering). The payload is rendered
    /// once: its bytes are checksummed and then written after the head.
    pub fn to_json(&self) -> String {
        let values = self.table.to_fields();
        let fields: Vec<(&str, &Json)> = T::FIELDS.iter().copied().zip(&values).collect();
        let payload = Json::render_fields(&fields);
        let mut doc = document_head(T::SCHEMA, &checksum_hex(&payload));
        doc.push_str(&payload[1..]);
        doc
    }

    /// Writes the document back to its directory (creating it if
    /// needed). Ephemeral stores are a no-op.
    ///
    /// The write is atomic: the document lands in a temp file first and
    /// is `rename`d over [`Table::FILE`], so a crash mid-save leaves
    /// either the previous document or the new one, never a torn
    /// hybrid.
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
        // Serialize concurrent savers (daemon + batch invocations over
        // one directory); on timeout proceed last-writer-wins — the
        // atomic rename plus checksum keep every reader safe.
        let _lock = SaveLock::acquire(dir, T::FILE, 100, 5, LOCK_STALE_SECS);
        let path = dir.join(T::FILE);
        let tmp = dir.join(format!(
            "{}.tmp.{}.{:x}",
            T::FILE,
            std::process::id(),
            std::ptr::from_ref(self) as usize
        ));
        std::fs::write(&tmp, self.to_json())
            .map_err(|e| format!("cannot write cache temp `{}`: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("cannot commit cache `{}`: {e}", path.display())
        })
    }
}

impl<T> Deref for Store<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.table
    }
}

impl<T> DerefMut for Store<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.table
    }
}

/// Reads and verifies `dir`'s document for table `T`: `Ok(None)` when
/// there is none, `Err(reason)` when it exists but is unusable.
fn read_table<T: Table>(dir: &Path) -> Result<Option<T>, &'static str> {
    let bytes = match std::fs::read(dir.join(T::FILE)) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(_) => return Err("unreadable"),
    };
    decode_document(bytes).map(Some)
}

/// Verifies and decodes a document's bytes; `Err(reason)` when they are
/// unusable.
fn decode_document<T: Table>(bytes: Vec<u8>) -> Result<T, &'static str> {
    let text = String::from_utf8(bytes).map_err(|_| "invalid utf-8")?;
    let Some(mut root @ Json::Obj(_)) = parse_json(&text) else {
        return Err("malformed json");
    };
    if !matches!(root.take("schema"), Some(Json::Str(s)) if s == T::SCHEMA) {
        return Err("schema mismatch");
    }
    let Some(Json::Str(stored_checksum)) = root.take("checksum") else {
        return Err("missing checksum");
    };
    // Checksum the payload bytes as read: everything after the head,
    // behind the opening brace the payload was rendered with. Any
    // corrupted byte (a bit flip, a truncation that still parses, a torn
    // write, even in whitespace or in the head) fails the comparison.
    let payload = text
        .strip_prefix(&document_head(T::SCHEMA, &stored_checksum))
        .ok_or("checksum mismatch")?;
    let checksum = fnv1a64(fnv1a64(FNV64_OFFSET, b"{"), payload.as_bytes());
    if format!("{checksum:016x}") != stored_checksum {
        return Err("checksum mismatch");
    }
    let values: Vec<Json> = T::FIELDS
        .iter()
        .map(|k| root.take(k).unwrap_or(Json::Obj(Vec::new())))
        .collect();
    Ok(T::from_fields(values))
}

/// The check table: content-addressed outcomes plus the name →
/// fingerprint table used for invalidation accounting.
#[derive(Debug, Default)]
pub struct CheckTable {
    entries: BTreeMap<String, CachedOutcome>,
    names: BTreeMap<String, String>,
    /// When true, every mutation is mirrored into `dirty` as a WAL
    /// record (see [`crate::wal`]); drained by [`CheckTable::take_dirty`].
    log_dirty: bool,
    dirty: Vec<crate::wal::WalRecord>,
}

impl Table for CheckTable {
    const FILE: &'static str = "check-cache.json";
    const SCHEMA: &'static str = "fearless-incr-cache/2";
    const FIELDS: &'static [&'static str] = &["entries", "names"];

    fn to_fields(&self) -> Vec<Json> {
        let entries = self
            .entries
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json()))
            .collect();
        let names = self
            .names
            .iter()
            .map(|(k, v)| (k.clone(), Json::str(v.clone())))
            .collect();
        vec![Json::Obj(entries), Json::Obj(names)]
    }

    fn from_fields(fields: Vec<Json>) -> Self {
        let mut table = CheckTable::default();
        let mut fields = fields.into_iter();
        if let Some(Json::Obj(entries)) = fields.next() {
            for (fp, v) in entries {
                if Fingerprint::from_hex(&fp).is_some() {
                    if let Some(outcome) = CachedOutcome::from_json(v) {
                        table.entries.insert(fp, outcome);
                    }
                }
            }
        }
        if let Some(Json::Obj(names)) = fields.next() {
            for (name, v) in names {
                if let Json::Str(fp) = v {
                    table.names.insert(name, fp);
                }
            }
        }
        table
    }
}

impl CheckTable {
    /// Number of stored outcomes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no outcomes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a cached outcome by fingerprint.
    pub fn lookup(&self, fp: Fingerprint) -> Option<&CachedOutcome> {
        self.entries.get(&fp.to_hex())
    }

    /// Stores an outcome under `fp`.
    pub fn insert(&mut self, fp: Fingerprint, outcome: CachedOutcome) {
        let hex = fp.to_hex();
        if self.log_dirty {
            self.dirty.push(crate::wal::WalRecord::Entry {
                fp: hex.clone(),
                outcome: outcome.clone(),
            });
        }
        self.entries.insert(hex, outcome);
    }

    /// Records the fingerprint now current for a qualified function
    /// name, returning `true` when this *changed* an existing record (an
    /// invalidation).
    pub fn note_name(&mut self, qualified: &str, fp: Fingerprint) -> bool {
        let hex = fp.to_hex();
        let prev = self.names.get(qualified);
        let invalidated = prev.is_some_and(|prev| prev != &hex);
        // Only *moves* (new name, or a fingerprint change) are logged:
        // re-noting a stable name on every warm hit would grow the WAL
        // without changing the recoverable state.
        if self.log_dirty && prev != Some(&hex) {
            self.dirty.push(crate::wal::WalRecord::Name {
                name: qualified.to_string(),
                fp: hex.clone(),
            });
        }
        self.names.insert(qualified.to_string(), hex);
        invalidated
    }

    /// Turns on the dirty log: from now on every [`CheckTable::insert`]
    /// and name move is mirrored as a [`crate::wal::WalRecord`] for a
    /// write-ahead journal, retrievable via [`CheckTable::take_dirty`].
    pub fn enable_dirty_log(&mut self) {
        self.log_dirty = true;
    }

    /// Drains the WAL records accumulated since the last call.
    pub fn take_dirty(&mut self) -> Vec<crate::wal::WalRecord> {
        std::mem::take(&mut self.dirty)
    }

    /// Applies replayed WAL records directly (bypassing the dirty log),
    /// returning how many actually changed the table. Records with
    /// malformed fingerprints are skipped — replay must degrade, never
    /// error.
    pub fn apply_wal(&mut self, records: &[crate::wal::WalRecord]) -> usize {
        let mut applied = 0usize;
        for rec in records {
            match rec {
                crate::wal::WalRecord::Entry { fp, outcome } => {
                    if Fingerprint::from_hex(fp).is_none() {
                        continue;
                    }
                    if self.entries.get(fp) != Some(outcome) {
                        self.entries.insert(fp.clone(), outcome.clone());
                        applied += 1;
                    }
                }
                crate::wal::WalRecord::Name { name, fp } => {
                    if Fingerprint::from_hex(fp).is_none() {
                        continue;
                    }
                    if self.names.get(name) != Some(fp) {
                        self.names.insert(name.clone(), fp.clone());
                        applied += 1;
                    }
                }
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fearless_trace::MAX_DEPTH;

    /// The check table's advisory lock file.
    const LOCK: &str = "check-cache.lock";

    fn sample() -> DiskCache {
        let mut c = DiskCache::ephemeral();
        let fp = Fingerprint::from_hex("00000000000000000000000000000abc").unwrap();
        let mut counters = BTreeMap::new();
        counters.insert("check.deriv_nodes".to_string(), 7);
        counters.insert("vir.focus".to_string(), 2);
        c.insert(
            fp,
            CachedOutcome::Ok {
                nodes: 7,
                vir_steps: 2,
                search_nodes: 0,
                counters,
            },
        );
        let fp2 = Fingerprint::from_hex("00000000000000000000000000000def").unwrap();
        c.insert(
            fp2,
            CachedOutcome::Err {
                message: "cannot \"unify\"\nbranches".to_string(),
                span_lo: 3,
                span_hi: 9,
            },
        );
        c.note_name("prog/f", fp);
        c.note_name("prog/g", fp2);
        c
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let c = sample();
        let text = c.to_json();
        let parsed = parse_json(&text).expect("parses");
        // Re-render: byte identity proves the parser inverted the
        // renderer exactly.
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn every_flipped_bit_is_a_recovery() {
        let doc = sample().to_json().into_bytes();
        assert!(decode_document::<CheckTable>(doc.clone()).is_ok());
        for at in 0..doc.len() {
            for bit in 0..8 {
                let mut damaged = doc.clone();
                damaged[at] ^= 1 << bit;
                assert!(
                    decode_document::<CheckTable>(damaged).is_err(),
                    "flipping bit {bit} of byte {at} still loads"
                );
            }
        }
    }

    // Every cache document loads through `parse_json`: the tests below
    // pin the grammar the loader relies on to reject torn documents.
    #[test]
    fn renderer_grammar_parses() {
        let v = parse_json("{\"a\": [1, {\"b\": []}], \"c\": {}, \"d\": \"x\\u0001y\"}").unwrap();
        assert_eq!(
            v.render_compact(),
            "{\"a\": [1, {\"b\": []}], \"c\": {}, \"d\": \"x\\u0001y\"}"
        );
        assert_eq!(parse_json(" [ ] "), Some(Json::Arr(Vec::new())));
    }

    #[test]
    fn missing_comma_between_members_is_rejected() {
        assert_eq!(parse_json("[1 2]"), None);
        assert_eq!(parse_json("{\"a\": 1 \"b\": 2}"), None);
    }

    #[test]
    fn leading_or_doubled_commas_are_rejected() {
        assert_eq!(parse_json("[,1,,]"), None);
        assert_eq!(parse_json("[,1]"), None);
        assert_eq!(parse_json("[1,,2]"), None);
        assert_eq!(parse_json("{,\"a\": 1}"), None);
        assert_eq!(parse_json("[,]"), None);
    }

    #[test]
    fn trailing_commas_are_rejected() {
        assert_eq!(parse_json("[1,]"), None);
        assert_eq!(parse_json("{\"a\": 1,}"), None);
        assert_eq!(parse_json("{\"a\": 1},"), None);
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&nested(MAX_DEPTH)).is_some());
        assert_eq!(parse_json(&nested(MAX_DEPTH + 1)), None);
        let objects = format!(
            "{}1{}",
            "{\"k\": ".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(parse_json(&objects), None);
        // Far deeper than any stack could recurse: rejected, not an abort.
        assert_eq!(parse_json(&"[".repeat(1_000_000)), None);
    }

    #[test]
    fn bad_escapes_are_rejected() {
        assert_eq!(parse_json("\"\\x\""), None);
        assert_eq!(parse_json("\"\\u+041\""), None);
        assert_eq!(parse_json("\"\\ud800\""), None);
        assert_eq!(parse_json("\"\\u00e9\""), Some(Json::str("é")));
        assert_eq!(parse_json("\"unterminated"), None);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("fearless-incr-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = sample();
        c.dir = Some(dir.clone());
        c.save().unwrap();
        let loaded = DiskCache::load(&dir);
        assert_eq!(loaded.to_json(), c.to_json());
        let fp = Fingerprint::from_hex("00000000000000000000000000000abc").unwrap();
        assert!(matches!(
            loaded.lookup(fp),
            Some(CachedOutcome::Ok { nodes: 7, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_or_corrupt_degrades_to_empty() {
        let dir =
            std::env::temp_dir().join(format!("fearless-incr-missing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(DiskCache::load(&dir).is_empty());
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(CACHE_FILE), "{ not json").unwrap();
        assert!(DiskCache::load(&dir).is_empty());
        std::fs::write(
            dir.join(CACHE_FILE),
            "{\n  \"schema\": \"some-other/9\",\n  \"entries\": {}\n}\n",
        )
        .unwrap();
        assert!(DiskCache::load(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes `c` into a fresh temp dir and returns the dir.
    fn saved_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fearless-incr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = sample();
        c.dir = Some(dir.clone());
        c.save().unwrap();
        dir
    }

    /// Asserts a corrupted document degrades to a cold start with the
    /// given recovery reason, then cleans up.
    fn assert_recovers(dir: &Path, reason: &str) {
        let loaded = DiskCache::load(dir);
        assert!(loaded.is_empty(), "corrupt cache must be empty");
        assert_eq!(
            loaded.recovered_reason(),
            Some(reason),
            "load outcome was {:?}",
            loaded.load_outcome()
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn save_releases_the_advisory_lock() {
        let dir = saved_dir("lock-release");
        assert!(
            !dir.join(LOCK).exists(),
            "the lock file must be removed after a save"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_locks_are_stolen() {
        let dir = saved_dir("lock-stale");
        std::fs::write(dir.join(LOCK), "99999").unwrap();
        // A stale threshold of zero makes the fresh lock immediately
        // stealable; acquisition must succeed without waiting out the
        // retry budget.
        let lock = SaveLock::acquire(&dir, CACHE_FILE, 0, 1, 0);
        assert!(lock.held, "a stale lock must be stolen");
        drop(lock);
        assert!(!dir.join(LOCK).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn contended_save_proceeds_last_writer_wins() {
        let dir = saved_dir("lock-contended");
        // A fresh lock held by "another process" that never releases:
        // acquire times out unheld, and save still writes the document.
        std::fs::write(dir.join(LOCK), "99999").unwrap();
        let lock = SaveLock::acquire(&dir, CACHE_FILE, 2, 1, LOCK_STALE_SECS);
        assert!(!lock.held, "a live lock must not be stolen");
        drop(lock);
        assert!(
            dir.join(LOCK).exists(),
            "dropping an unheld guard must not remove someone else's lock"
        );
        let mut c = sample();
        c.dir = Some(dir.clone());
        c.save().unwrap();
        assert_eq!(DiskCache::load(&dir).load_outcome(), LoadOutcome::Warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn intact_document_loads_warm() {
        let dir = saved_dir("warm");
        let loaded = DiskCache::load(&dir);
        assert_eq!(loaded.load_outcome(), LoadOutcome::Warm);
        assert_eq!(loaded.recovered_reason(), None);
        assert_eq!(loaded.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_cold_not_recovered() {
        let dir = std::env::temp_dir().join(format!("fearless-incr-cold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let loaded = DiskCache::load(&dir);
        assert!(loaded.is_empty());
        assert_eq!(loaded.load_outcome(), LoadOutcome::Cold);
    }

    #[test]
    fn truncated_document_recovers() {
        let dir = saved_dir("trunc");
        let path = dir.join(CACHE_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert_recovers(&dir, "malformed json");
    }

    #[test]
    fn bit_flip_in_payload_fails_checksum() {
        let dir = saved_dir("flip");
        let path = dir.join(CACHE_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip a digit inside a stored value: the document still
        // parses, so only the checksum catches it.
        let flipped = text.replace("\"nodes\": 7", "\"nodes\": 8");
        assert_ne!(flipped, text, "payload digit present");
        std::fs::write(&path, flipped).unwrap();
        assert_recovers(&dir, "checksum mismatch");
    }

    #[test]
    fn torn_write_tail_recovers() {
        // Simulate a torn write: the first half of the new document
        // followed by the tail of a different (older) one — parseable
        // prefixes of torn files are exactly what the checksum exists
        // to reject.
        let dir = saved_dir("torn");
        let path = dir.join(CACHE_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut torn = text[..text.len() / 2].to_string();
        torn.push_str("garbage-tail\u{0}\u{0}\u{0}");
        std::fs::write(&path, torn).unwrap();
        assert_recovers(&dir, "malformed json");
    }

    #[test]
    fn schema_version_bump_recovers() {
        let dir = saved_dir("schema");
        let path = dir.join(CACHE_FILE);
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace(CheckTable::SCHEMA, "fearless-incr-cache/1");
        std::fs::write(&path, text).unwrap();
        assert_recovers(&dir, "schema mismatch");
    }

    #[test]
    fn invalid_utf8_recovers() {
        let dir = saved_dir("utf8");
        std::fs::write(dir.join(CACHE_FILE), [0xff, 0xfe, b'{', b'}']).unwrap();
        assert_recovers(&dir, "invalid utf-8");
    }

    #[test]
    fn missing_checksum_field_recovers() {
        let dir = saved_dir("nochk");
        let path = dir.join(CACHE_FILE);
        // Strip the checksum line but keep valid JSON + schema.
        std::fs::write(
            &path,
            format!(
                "{{\n  \"schema\": \"{}\",\n  \"entries\": {{}},\n  \"names\": {{}}\n}}",
                CheckTable::SCHEMA
            ),
        )
        .unwrap();
        assert_recovers(&dir, "missing checksum");
    }

    #[test]
    fn save_leaves_no_temp_file_behind() {
        let dir = saved_dir("tmpclean");
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "temp files must be renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn steal_reverifies_the_lock_identity() {
        // Regression test for the stale-steal TOCTOU window: a lock that
        // changed hands between the staleness check and the steal must
        // NOT be removed, and must survive in place.
        let dir = saved_dir("lock-toctou");
        let path = dir.join(LOCK);
        std::fs::write(&path, "11111").unwrap();
        let stale_sample = LockSample::read(&path).unwrap();
        // A fresh holder re-creates the lock in the window (different
        // pid — the sampled identity no longer matches).
        std::fs::write(&path, "22222").unwrap();
        assert!(
            !try_steal(&path, &stale_sample),
            "a lock that changed identity must not be stolen"
        );
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "22222",
            "the fresh holder's lock must survive the aborted steal"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn steal_succeeds_when_the_sample_still_matches() {
        let dir = saved_dir("lock-steal-ok");
        let path = dir.join(LOCK);
        std::fs::write(&path, "99999").unwrap();
        let sample = LockSample::read(&path).unwrap();
        assert!(
            try_steal(&path, &sample),
            "an unchanged stale lock must be stolen"
        );
        assert!(!path.exists(), "the stolen lock must be removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dirty_log_mirrors_inserts_and_name_moves() {
        use crate::wal::WalRecord;
        let mut c = DiskCache::ephemeral();
        let a = Fingerprint::from_hex("00000000000000000000000000000001").unwrap();
        let b = Fingerprint::from_hex("00000000000000000000000000000002").unwrap();
        // Mutations before the log is enabled are not recorded.
        c.insert(
            a,
            CachedOutcome::Err {
                message: "pre".to_string(),
                span_lo: 0,
                span_hi: 1,
            },
        );
        c.enable_dirty_log();
        assert!(c.take_dirty().is_empty());
        c.insert(
            b,
            CachedOutcome::Ok {
                nodes: 3,
                vir_steps: 1,
                search_nodes: 0,
                counters: BTreeMap::new(),
            },
        );
        c.note_name("p/f", b);
        c.note_name("p/f", b); // stable re-note: not logged
        let dirty = c.take_dirty();
        assert_eq!(dirty.len(), 2, "{dirty:?}");
        assert!(matches!(&dirty[0], WalRecord::Entry { fp, .. } if fp == &b.to_hex()));
        assert!(
            matches!(&dirty[1], WalRecord::Name { name, fp } if name == "p/f" && fp == &b.to_hex())
        );
        assert!(c.take_dirty().is_empty(), "take_dirty drains");

        // Replaying the records into a fresh cache reproduces the state.
        let mut fresh = DiskCache::ephemeral();
        assert_eq!(fresh.apply_wal(&dirty), 2);
        assert_eq!(fresh.apply_wal(&dirty), 0, "replay is idempotent");
        assert!(matches!(
            fresh.lookup(b),
            Some(CachedOutcome::Ok { nodes: 3, .. })
        ));
    }

    #[test]
    fn note_name_counts_moves_only() {
        let mut c = DiskCache::ephemeral();
        let a = Fingerprint::from_hex("00000000000000000000000000000001").unwrap();
        let b = Fingerprint::from_hex("00000000000000000000000000000002").unwrap();
        assert!(
            !c.note_name("p/f", a),
            "first sighting is not an invalidation"
        );
        assert!(!c.note_name("p/f", a), "same fingerprint is stable");
        assert!(c.note_name("p/f", b), "moved fingerprint invalidates");
    }
}
