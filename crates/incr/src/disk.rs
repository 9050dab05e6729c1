//! The on-disk fingerprint store: one record-log format, typed tables.
//!
//! Every persistent cache in the workspace is a [`Store`] over a
//! [`Table`]. The store owns the file handling — schema header, per-line
//! checksums, load with a [`LoadOutcome`], append or compacting save,
//! advisory lock — and the table owns only its typed records. Two
//! tables exist:
//!
//! * [`CheckTable`] (`check-cache.json`, schema `fearless-incr-cache/4`,
//!   the [`DiskCache`] behind `fearlessc check --cache <dir>` and the
//!   `fearlessc serve` daemon). Entries are content-addressed by
//!   [`Fingerprint`] and store the per-function check *summary* — the
//!   verdict and, for a function that checked, its `check` span's
//!   [`CheckCounts`] — not the derivation itself: enough to replay
//!   `fearlessc check`'s report, diagnostics, and `--metrics json` spans
//!   byte-for-byte without re-deriving anything. Name records map the
//!   last fingerprint seen per qualified function name, which is what
//!   turns a content change into a counted *invalidation*.
//! * `fearless_flow::FlowTable` (`flow.json`), the flow-summary cache.
//!
//! Tables key their maps by [`Fingerprint`] in memory; the hex form
//! exists only in the records on disk.
//!
//! ## Format
//!
//! A table's file is an append-only log of records:
//!
//! ```text
//! fearless-incr-cache/4
//! <fnv64 hex> {"entry": "<fingerprint>", "counts": [<24 numbers>]}
//! <fnv64 hex> {"entry": "<fingerprint>", "error": "<message>", "span": [lo, hi]}
//! <fnv64 hex> {"name": "<qualified name>", "fp": "<fingerprint>"}
//! <fnv64 hex> {"commit": 2}
//! <fnv64 hex> {"name": …}          ← journal: appended after the commit
//! ```
//!
//! The first line is the schema tag. An entry's `counts` array holds the
//! values of [`CheckCounts::NAMES`], in that order; an array of any other
//! length is a malformed record. Every later line is the FNV-1a 64
//! checksum of its record's compact JSON, a space, and those bytes, so
//! [`Store::load`] checks each line over the bytes as read and parses it
//! once with [`parse_json`]. A *snapshot* is every live record followed
//! by a commit line carrying the record count. Records after the commit
//! are the *journal*: later changes, applied in order on load. A missing
//! or unreadable file degrades to an empty table, never an error.
//!
//! ## Save
//!
//! The store tracks which records changed since its last load or
//! write. [`Store::save`] then does the least that keeps the file equal
//! to the table:
//!
//! * nothing changed: no write, no temp file, no lock;
//! * the file is this store's log (loaded warm with an intact journal,
//!   or written by this store) and the journal stays within
//!   [`JOURNAL_FACTOR`] times the live records: the changed records are
//!   appended with one write;
//! * otherwise ([`Store::compact`]): a fresh snapshot is written to a
//!   temp file in the cache directory and `rename`d over the log, so a
//!   crash mid-save leaves the old log or the new one, never a hybrid.
//!
//! ## Crash safety
//!
//! A cache must survive any on-disk corruption — truncation, bit flips,
//! torn writes, schema drift — by silently degrading to a cold start
//! with byte-identical output. The one reader enforces it for every
//! table and for the daemon's crash recovery alike:
//!
//! * **Snapshot**: a wrong schema tag, or any torn, checksum-failing or
//!   malformed line before the commit, or a commit whose count is wrong,
//!   discards the whole file and records a [`LoadOutcome::Recovered`]
//!   that drivers surface as the `cache_recoveries` stat and a
//!   `cache_recovery` trace event. A file cut at any line boundary
//!   lacks its commit line, so it recovers too.
//! * **Journal**: replay stops at the first torn, checksum-failing or
//!   malformed line and keeps every record before it. That is the
//!   signature of a crash mid-append, not of corruption, so it counts no
//!   recovery; the next save compacts. [`Store::replayed`] reports how
//!   many journal records the load applied.
//! * **Advisory save lock**: long-lived processes (the daemon) and
//!   batch invocations may share one cache directory. Appends and
//!   compactions take a best-effort advisory lock named after the file
//!   (`check-cache.lock`, `flow.lock`; created with `O_EXCL`) so
//!   concurrent savers serialize instead of interleaving; a lock older
//!   than [`LOCK_STALE_SECS`] is presumed abandoned by a crashed holder
//!   and stolen. If the lock never frees, the save proceeds anyway:
//!   records are keyed, so any interleaving of whole lines replays to a
//!   valid table, and the checksums stop a reader at a partial one. The
//!   two-process drill in `fearless-chaos` (`run_concurrency_drill`)
//!   pins the contract: concurrent save/load cycles never observe a
//!   recovery.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::path::{Path, PathBuf};

use fearless_core::{CheckCounts, Fingerprint};
use fearless_trace::{parse_json, Json};

/// File name of the check table inside the cache directory.
pub const CACHE_FILE: &str = CheckTable::FILE;

/// Age (seconds) past which a lock file is presumed abandoned by a
/// crashed holder and stolen.
pub const LOCK_STALE_SECS: u64 = 30;

/// A save appends while the journal holds at most this many records per
/// live record of the table; past that it compacts.
pub const JOURNAL_FACTOR: usize = 2;

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
    /// The function checked.
    Ok {
        /// Derivation nodes: `counts.deriv_nodes()`, kept beside the
        /// counts for the check report and the scheduler's cost model.
        nodes: u64,
        /// The `check` span's counters (for metrics replay).
        counts: CheckCounts,
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
    /// The outcome of a function that checked with `counts`.
    pub fn checked(counts: CheckCounts) -> CachedOutcome {
        CachedOutcome::Ok {
            nodes: counts.deriv_nodes(),
            counts,
        }
    }
}

/// How a [`Store::load`] went.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LoadOutcome {
    /// No persistent file existed (first run, or an ephemeral store) —
    /// an ordinary cold start.
    #[default]
    Cold,
    /// The snapshot verified; its records and the intact journal prefix
    /// are live.
    Warm,
    /// A file existed but its snapshot was unusable; the store degraded
    /// to a cold start. The payload says why (for the trace event) — it
    /// never changes diagnostics.
    Recovered(&'static str),
}

/// FNV-1a 64 over `text`, in fixed-width lowercase hex — the checksum
/// that starts every record line of a cache log.
pub fn checksum_hex(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// FNV-1a 64 over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A typed table persisted by [`Store`] as a log of records, one record
/// per key.
pub trait Table: Default {
    /// File name inside the cache directory.
    const FILE: &'static str;
    /// Schema tag, the log's first line.
    const SCHEMA: &'static str;
    /// One record: the value stored under one key.
    type Record;

    /// Renders a record as the JSON its log line holds.
    fn encode(record: &Self::Record) -> Json;

    /// Reads a record back; `None` when `value` is not one.
    fn decode(value: Json) -> Option<Self::Record>;

    /// Stores a record, returning whether the table changed.
    fn apply(&mut self, record: Self::Record) -> bool;

    /// Every live record, encoded, in snapshot order.
    fn records(&self) -> Vec<Json>;

    /// How many records [`Table::records`] returns.
    fn live(&self) -> usize;
}

/// A [`Table`] plus where it persists, how its last load went, and what
/// changed since. Dereferences to the table for reads; every change
/// goes through [`Store::put`], so the store knows what to write.
#[derive(Debug, Default)]
pub struct Store<T> {
    dir: Option<PathBuf>,
    load_outcome: LoadOutcome,
    replayed: usize,
    log: RefCell<Log>,
    table: T,
}

/// What the store's file holds relative to its table. Behind a
/// `RefCell` so a save through `&self` can record that it wrote.
#[derive(Debug, Default)]
struct Log {
    /// Journal records behind the file's commit line, while the file is
    /// known to hold this store's log; `None` when the next write must
    /// compact.
    journal: Option<usize>,
    /// Records changed since the last load or write.
    dirty: usize,
    /// Those records' log lines, rendered only while `journal` is known.
    lines: String,
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
    /// table when the file is unreadable or its snapshot fails to verify
    /// (a cache must never turn into an error — the failure is recorded
    /// in [`Store::load_outcome`] only).
    pub fn load(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let mut store = Store::default();
        match std::fs::read(dir.join(T::FILE)) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(_) => store.load_outcome = LoadOutcome::Recovered("unreadable"),
            Ok(bytes) => match read_log::<T>(&bytes) {
                Ok((table, replayed, intact)) => {
                    store.load_outcome = LoadOutcome::Warm;
                    store.replayed = replayed;
                    store.log.get_mut().journal = intact.then_some(replayed);
                    store.table = table;
                }
                Err(reason) => store.load_outcome = LoadOutcome::Recovered(reason),
            },
        }
        store.dir = Some(dir);
        store
    }

    /// How the load went (verified, cold, or recovered from a corrupt
    /// file).
    pub fn load_outcome(&self) -> LoadOutcome {
        self.load_outcome
    }

    /// The recovery reason, when the persistent file existed but was
    /// discarded as corrupt.
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

    /// Journal records the load applied on top of the snapshot (after a
    /// crash, the changes no compaction had folded in yet).
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// Records changed since the last load or write.
    pub fn dirty(&self) -> usize {
        self.log.borrow().dirty
    }

    /// Stores `record`, marking it for the next save when it changed the
    /// table.
    pub fn put(&mut self, record: T::Record) {
        let log = self.log.get_mut();
        let body = log
            .journal
            .is_some()
            .then(|| T::encode(&record).render_compact());
        if self.table.apply(record) {
            log.dirty += 1;
            if let Some(body) = body {
                push_line(&mut log.lines, &body);
            }
        }
    }

    /// The table as one compacted snapshot: schema line, every live
    /// record, commit line (deterministic bytes).
    pub fn snapshot(&self) -> String {
        let records = self.table.records();
        let mut out = format!("{}\n", T::SCHEMA);
        for record in &records {
            push_line(&mut out, &record.render_compact());
        }
        let commit = Json::obj([("commit", Json::U64(records.len() as u64))]);
        push_line(&mut out, &commit.render_compact());
        out
    }

    /// Persists what changed since the last load or write (creating the
    /// directory if needed): nothing when nothing changed, an append of
    /// the changed records while the file is this store's log and the
    /// journal stays within [`JOURNAL_FACTOR`] times the live records,
    /// and a [`Store::compact`] otherwise. Ephemeral stores are a no-op.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory or file cannot be written.
    pub fn save(&self) -> Result<(), String> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let mut log = self.log.borrow_mut();
        if log.dirty == 0 {
            return Ok(());
        }
        if let Some(journal) = log.journal {
            let journal = journal + log.dirty;
            if journal <= JOURNAL_FACTOR * self.table.live() {
                let _lock = SaveLock::acquire(dir, T::FILE, 100, 5, LOCK_STALE_SECS);
                if append(&dir.join(T::FILE), &log.lines).is_ok() {
                    *log = Log {
                        journal: Some(journal),
                        ..Log::default()
                    };
                    return Ok(());
                }
            }
        }
        drop(log);
        self.compact()
    }

    /// Writes the whole table as a fresh snapshot with an empty journal
    /// (creating the directory if needed). Ephemeral stores are a no-op.
    ///
    /// The write is atomic: the snapshot lands in a temp file first and
    /// is `rename`d over [`Table::FILE`], so a crash mid-write leaves
    /// either the previous log or the new one, never a torn hybrid.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory or file cannot be written.
    pub fn compact(&self) -> Result<(), String> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache dir `{}`: {e}", dir.display()))?;
        let _lock = SaveLock::acquire(dir, T::FILE, 100, 5, LOCK_STALE_SECS);
        let path = dir.join(T::FILE);
        let tmp = dir.join(format!(
            "{}.tmp.{}.{:x}",
            T::FILE,
            std::process::id(),
            std::ptr::from_ref(self) as usize
        ));
        let written = std::fs::write(&tmp, self.snapshot())
            .map_err(|e| format!("cannot write cache temp `{}`: {e}", tmp.display()))
            .and_then(|()| {
                std::fs::rename(&tmp, &path).map_err(|e| {
                    let _ = std::fs::remove_file(&tmp);
                    format!("cannot commit cache `{}`: {e}", path.display())
                })
            });
        let mut log = self.log.borrow_mut();
        match &written {
            Ok(()) => {
                *log = Log {
                    journal: Some(0),
                    ..Log::default()
                }
            }
            Err(_) => log.journal = None,
        }
        written
    }
}

impl<T> Deref for Store<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.table
    }
}

/// Appends `body`'s log line — checksum, space, body, newline — to `out`.
fn push_line(out: &mut String, body: &str) {
    out.push_str(&checksum_hex(body));
    out.push(' ');
    out.push_str(body);
    out.push('\n');
}

/// Appends `lines` to the existing log at `path` with one write.
fn append(path: &Path, lines: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .append(true)
        .open(path)?
        .write_all(lines.as_bytes())
}

/// Reads one log line (with its newline): the record JSON, or why the
/// line is unusable.
fn read_line(line: &[u8]) -> Result<Json, &'static str> {
    let line = line.strip_suffix(b"\n").ok_or("truncated")?;
    let (sum, body) = line.split_at_checked(16).ok_or("checksum mismatch")?;
    let body = body.strip_prefix(b" ").ok_or("checksum mismatch")?;
    if sum != format!("{:016x}", fnv1a64(body)).as_bytes() {
        return Err("checksum mismatch");
    }
    std::str::from_utf8(body)
        .ok()
        .and_then(parse_json)
        .ok_or("malformed record")
}

/// Reads table `T`'s log: the table, the journal records applied, and
/// whether the journal was intact to the end. `Err(reason)` when the
/// snapshot is unusable.
fn read_log<T: Table>(bytes: &[u8]) -> Result<(T, usize, bool), &'static str> {
    let mut lines = bytes.split_inclusive(|b| *b == b'\n');
    let header = lines.next().and_then(|l| l.strip_suffix(b"\n"));
    if header != Some(T::SCHEMA.as_bytes()) {
        return Err("schema mismatch");
    }
    let mut table = T::default();
    let mut count = 0u64;
    loop {
        let mut value = read_line(lines.next().ok_or("truncated")?)?;
        if let Some(commit) = value.take("commit") {
            if commit.as_u64() != Some(count) {
                return Err("count mismatch");
            }
            break;
        }
        table.apply(T::decode(value).ok_or("malformed record")?);
        count += 1;
    }
    let mut replayed = 0;
    for line in lines {
        match read_line(line).ok().and_then(T::decode) {
            Some(record) => {
                table.apply(record);
                replayed += 1;
            }
            None => return Ok((table, replayed, false)),
        }
    }
    Ok((table, replayed, true))
}

/// The check table: content-addressed outcomes plus the name →
/// fingerprint table used for invalidation accounting.
#[derive(Debug, Default)]
pub struct CheckTable {
    entries: BTreeMap<Fingerprint, CachedOutcome>,
    names: BTreeMap<String, Fingerprint>,
}

/// One check-table record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckRecord {
    /// An outcome stored under a fingerprint.
    Entry {
        /// The fingerprint key.
        fp: Fingerprint,
        /// The cached outcome.
        outcome: CachedOutcome,
    },
    /// A qualified function name moved to (or first appeared at) a
    /// fingerprint.
    Name {
        /// Qualified function name.
        name: String,
        /// The fingerprint the name now maps to.
        fp: Fingerprint,
    },
}

/// Stores `value` under `key`, returning whether the map changed — the
/// [`Table::apply`] of a table kept in one map.
pub fn insert_changed<K: Ord, V: PartialEq>(map: &mut BTreeMap<K, V>, key: K, value: V) -> bool {
    if map.get(&key) == Some(&value) {
        return false;
    }
    map.insert(key, value);
    true
}

/// A fingerprint as its records write it: 32 hex digits.
pub fn fingerprint_json(fp: Fingerprint) -> Json {
    Json::Str(fp.to_hex())
}

/// Reads back what [`fingerprint_json`] wrote.
pub fn fingerprint_of(value: &Json) -> Option<Fingerprint> {
    Fingerprint::from_hex(value.as_str()?)
}

/// A JSON array of exactly `N` numbers.
fn numbers<const N: usize>(value: &Json) -> Option<[u64; N]> {
    let Json::Arr(items) = value else {
        return None;
    };
    let items: Vec<u64> = items.iter().map(Json::as_u64).collect::<Option<_>>()?;
    items.try_into().ok()
}

fn entry_json(fp: Fingerprint, outcome: &CachedOutcome) -> Json {
    let entry = ("entry", fingerprint_json(fp));
    match outcome {
        CachedOutcome::Ok { counts, .. } => Json::obj([
            entry,
            ("counts", Json::Arr(counts.0.map(Json::U64).to_vec())),
        ]),
        CachedOutcome::Err {
            message,
            span_lo,
            span_hi,
        } => Json::obj([
            entry,
            ("error", Json::str(message.clone())),
            (
                "span",
                Json::Arr(vec![
                    Json::U64((*span_lo).into()),
                    Json::U64((*span_hi).into()),
                ]),
            ),
        ]),
    }
}

/// Reads an entry's outcome: `counts`, or `error` and `span`.
fn outcome_of(mut value: Json) -> Option<CachedOutcome> {
    match (value.take("counts"), value.take("error")) {
        (Some(counts), None) => Some(CachedOutcome::checked(CheckCounts(numbers(&counts)?))),
        (None, Some(Json::Str(message))) => {
            let [lo, hi] = numbers(&value.take("span")?)?;
            Some(CachedOutcome::Err {
                message,
                span_lo: lo.try_into().ok()?,
                span_hi: hi.try_into().ok()?,
            })
        }
        _ => None,
    }
}

fn name_json(name: &str, fp: Fingerprint) -> Json {
    Json::obj([("name", Json::str(name)), ("fp", fingerprint_json(fp))])
}

impl Table for CheckTable {
    const FILE: &'static str = "check-cache.json";
    const SCHEMA: &'static str = "fearless-incr-cache/4";
    type Record = CheckRecord;

    fn encode(record: &CheckRecord) -> Json {
        match record {
            CheckRecord::Entry { fp, outcome } => entry_json(*fp, outcome),
            CheckRecord::Name { name, fp } => name_json(name, *fp),
        }
    }

    fn decode(mut value: Json) -> Option<CheckRecord> {
        match (value.take("entry"), value.take("name")) {
            (Some(fp), None) => Some(CheckRecord::Entry {
                fp: fingerprint_of(&fp)?,
                outcome: outcome_of(value)?,
            }),
            (None, Some(Json::Str(name))) => Some(CheckRecord::Name {
                name,
                fp: fingerprint_of(&value.take("fp")?)?,
            }),
            _ => None,
        }
    }

    fn apply(&mut self, record: CheckRecord) -> bool {
        match record {
            CheckRecord::Entry { fp, outcome } => insert_changed(&mut self.entries, fp, outcome),
            CheckRecord::Name { name, fp } => insert_changed(&mut self.names, name, fp),
        }
    }

    fn records(&self) -> Vec<Json> {
        let entries = self.entries.iter().map(|(fp, o)| entry_json(*fp, o));
        let names = self.names.iter().map(|(name, fp)| name_json(name, *fp));
        entries.chain(names).collect()
    }

    fn live(&self) -> usize {
        self.entries.len() + self.names.len()
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
        self.entries.get(&fp)
    }
}

impl Store<CheckTable> {
    /// Stores an outcome under `fp`.
    pub fn insert(&mut self, fp: Fingerprint, outcome: CachedOutcome) {
        self.put(CheckRecord::Entry { fp, outcome });
    }

    /// Records the fingerprint now current for a qualified function
    /// name, returning `true` when this *changed* an existing record (an
    /// invalidation). Re-noting a stable name changes nothing, so a warm
    /// run leaves nothing to save.
    pub fn note_name(&mut self, qualified: &str, fp: Fingerprint) -> bool {
        let prev = self.names.get(qualified).copied();
        if prev != Some(fp) {
            self.put(CheckRecord::Name {
                name: qualified.to_string(),
                fp,
            });
        }
        prev.is_some_and(|prev| prev != fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fearless_trace::MAX_DEPTH;

    /// The check table's advisory lock file.
    const LOCK: &str = "check-cache.lock";

    fn fp(n: u32) -> Fingerprint {
        Fingerprint::from_hex(&format!("{n:032x}")).unwrap()
    }

    /// Counts with `nodes` derivation nodes and `rest` everywhere else.
    fn counts(nodes: u64, rest: u64) -> CheckCounts {
        let mut values = [rest; CheckCounts::LEN];
        values[0] = nodes;
        CheckCounts(values)
    }

    fn ok_outcome(nodes: u64) -> CachedOutcome {
        CachedOutcome::checked(counts(nodes, 1))
    }

    fn sample() -> DiskCache {
        let mut c = DiskCache::ephemeral();
        c.insert(fp(0xabc), CachedOutcome::checked(counts(7, 2)));
        c.insert(
            fp(0xdef),
            CachedOutcome::Err {
                message: "cannot \"unify\"\nbranches".to_string(),
                span_lo: 3,
                span_hi: 9,
            },
        );
        c.note_name("prog/f", fp(0xabc));
        c.note_name("prog/g", fp(0xdef));
        c
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fearless-incr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Writes the sample into a fresh temp dir and returns the dir.
    fn saved_dir(tag: &str) -> PathBuf {
        let dir = scratch(tag);
        let mut c = sample();
        c.dir = Some(dir.clone());
        c.save().unwrap();
        dir
    }

    fn log_text(dir: &Path) -> String {
        std::fs::read_to_string(dir.join(CACHE_FILE)).unwrap()
    }

    /// Asserts a corrupted log degrades to a cold start with the given
    /// recovery reason, then cleans up.
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
    fn json_roundtrip_preserves_everything() {
        let text = sample().snapshot();
        for line in text.lines().skip(1) {
            let (_, body) = line.split_once(' ').unwrap();
            // Re-render: byte identity proves the parser inverted the
            // renderer exactly.
            assert_eq!(parse_json(body).expect("parses").render_compact(), body);
        }
        let table: CheckTable = read_log(text.as_bytes()).unwrap().0;
        assert_eq!(table.entries, sample().entries);
        assert_eq!(table.names, sample().names);
    }

    #[test]
    fn every_flipped_bit_is_a_recovery() {
        let doc = sample().snapshot().into_bytes();
        assert!(read_log::<CheckTable>(&doc).is_ok());
        for at in 0..doc.len() {
            for bit in 0..8 {
                let mut damaged = doc.clone();
                damaged[at] ^= 1 << bit;
                assert!(
                    read_log::<CheckTable>(&damaged).is_err(),
                    "flipping bit {bit} of byte {at} still loads"
                );
            }
        }
    }

    #[test]
    fn truncation_at_every_line_boundary_recovers() {
        // The commit line is what tells a complete snapshot from a
        // prefix of one: a log cut after any line but the last lacks it.
        let doc = sample().snapshot();
        let mut cut = 0;
        for line in doc.split_inclusive('\n') {
            assert!(
                read_log::<CheckTable>(&doc.as_bytes()[..cut]).is_err(),
                "a log cut at byte {cut} still loads"
            );
            cut += line.len();
        }
        assert_eq!(cut, doc.len());
        assert!(read_log::<CheckTable>(doc.as_bytes()).is_ok());
    }

    // Every cache log loads through `parse_json`: the tests below pin
    // the grammar the loader relies on to reject damaged records.
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
        let dir = saved_dir("roundtrip");
        let loaded = DiskCache::load(&dir);
        assert_eq!(loaded.snapshot(), sample().snapshot());
        assert_eq!(log_text(&dir), sample().snapshot());
        assert!(matches!(
            loaded.lookup(fp(0xabc)),
            Some(CachedOutcome::Ok { nodes: 7, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_or_corrupt_degrades_to_empty() {
        let dir = scratch("missing");
        assert!(DiskCache::load(&dir).is_empty());
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(CACHE_FILE), "{ not json").unwrap();
        assert!(DiskCache::load(&dir).is_empty());
        std::fs::write(dir.join(CACHE_FILE), "some-other/9\n").unwrap();
        assert!(DiskCache::load(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
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
        // acquire times out unheld, and save still writes the log.
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
        assert_eq!(loaded.replayed(), 0, "a compacted log has no journal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_cold_not_recovered() {
        let dir = scratch("cold");
        let loaded = DiskCache::load(&dir);
        assert!(loaded.is_empty());
        assert_eq!(loaded.load_outcome(), LoadOutcome::Cold);
        assert_eq!(loaded.replayed(), 0);
    }

    #[test]
    fn truncated_document_recovers() {
        let dir = saved_dir("trunc");
        let text = log_text(&dir);
        std::fs::write(dir.join(CACHE_FILE), &text[..text.len() / 2]).unwrap();
        assert_recovers(&dir, "truncated");
    }

    #[test]
    fn bit_flip_in_payload_fails_checksum() {
        let dir = saved_dir("flip");
        let text = log_text(&dir);
        // Flip a digit inside a stored value: the record still parses,
        // so only the checksum catches it.
        let flipped = text.replace("\"counts\": [7,", "\"counts\": [8,");
        assert_ne!(flipped, text, "payload digit present");
        std::fs::write(dir.join(CACHE_FILE), flipped).unwrap();
        assert_recovers(&dir, "checksum mismatch");
    }

    #[test]
    fn torn_write_tail_recovers() {
        // A torn write: the first half of the new log followed by the
        // tail of something else. The half-line fails its checksum.
        let dir = saved_dir("torn");
        let text = log_text(&dir);
        let mut torn = text[..text.len() / 2].to_string();
        torn.push_str("garbage-tail\u{0}\u{0}\u{0}\n");
        std::fs::write(dir.join(CACHE_FILE), torn).unwrap();
        assert_recovers(&dir, "checksum mismatch");
    }

    #[test]
    fn schema_version_bump_recovers() {
        let dir = saved_dir("schema");
        let text = log_text(&dir).replace(CheckTable::SCHEMA, "fearless-incr-cache/1");
        std::fs::write(dir.join(CACHE_FILE), text).unwrap();
        assert_recovers(&dir, "schema mismatch");
    }

    #[test]
    fn invalid_utf8_recovers() {
        let dir = saved_dir("utf8");
        std::fs::write(dir.join(CACHE_FILE), [0xff, 0xfe, b'{', b'}']).unwrap();
        assert_recovers(&dir, "schema mismatch");
        // A record line whose checksum matches bytes that are not UTF-8.
        let dir = saved_dir("utf8-record");
        let body = [0xffu8, 0xfe];
        let mut bytes = format!("{}\n{:016x} ", CheckTable::SCHEMA, fnv1a64(&body)).into_bytes();
        bytes.extend_from_slice(&body);
        bytes.push(b'\n');
        std::fs::write(dir.join(CACHE_FILE), bytes).unwrap();
        assert_recovers(&dir, "malformed record");
    }

    #[test]
    fn missing_checksum_field_recovers() {
        let dir = saved_dir("nochk");
        // A record line without its checksum, but valid JSON.
        let body = name_json("prog/f", fp(1)).render_compact();
        std::fs::write(
            dir.join(CACHE_FILE),
            format!("{}\n{body}\n", CheckTable::SCHEMA),
        )
        .unwrap();
        assert_recovers(&dir, "checksum mismatch");
    }

    #[test]
    fn wrong_commit_count_recovers() {
        let dir = saved_dir("count");
        let text = log_text(&dir);
        let commit = |n: u64| {
            let mut line = String::new();
            push_line(
                &mut line,
                &Json::obj([("commit", Json::U64(n))]).render_compact(),
            );
            line
        };
        std::fs::write(dir.join(CACHE_FILE), text.replace(&commit(4), &commit(3))).unwrap();
        assert_recovers(&dir, "count mismatch");
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
        let dir = saved_dir("dirty");
        let before = log_text(&dir);
        let mut c = DiskCache::load(&dir);
        assert_eq!(c.dirty(), 0);
        // Re-storing what the table holds changes nothing.
        c.note_name("prog/f", fp(0xabc));
        c.insert(fp(0xabc), sample().lookup(fp(0xabc)).unwrap().clone());
        assert_eq!(c.dirty(), 0);
        c.save().unwrap();
        assert_eq!(log_text(&dir), before, "a clean save writes nothing");
        c.insert(fp(2), ok_outcome(3));
        c.note_name("prog/f", fp(2));
        c.note_name("prog/f", fp(2)); // stable re-note: not dirty
        assert_eq!(c.dirty(), 2);
        c.save().unwrap();
        assert_eq!(c.dirty(), 0, "a save clears the dirty records");
        // The save appended exactly the two changed records.
        let after = log_text(&dir);
        let journal: Vec<&str> = after.strip_prefix(&before).unwrap().lines().collect();
        assert_eq!(journal.len(), 2, "{journal:?}");
        assert!(journal[0].ends_with(&entry_json(fp(2), &ok_outcome(3)).render_compact()));
        assert!(journal[1].ends_with(&name_json("prog/f", fp(2)).render_compact()));
        let loaded = DiskCache::load(&dir);
        assert_eq!(loaded.replayed(), 2);
        assert_eq!(loaded.snapshot(), c.snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_replay_roundtrip() {
        // Journal appends from several saves (and several stores) replay
        // in order on top of the snapshot.
        let dir = saved_dir("append");
        let mut c = DiskCache::load(&dir);
        c.insert(fp(1), ok_outcome(1));
        c.save().unwrap();
        c.note_name("prog/f", fp(1));
        c.save().unwrap();
        let mut other = DiskCache::load(&dir);
        assert_eq!(other.replayed(), 2);
        other.note_name("prog/f", fp(0xabc));
        other.save().unwrap();
        let loaded = DiskCache::load(&dir);
        assert_eq!(loaded.load_outcome(), LoadOutcome::Warm);
        assert_eq!(loaded.replayed(), 3);
        assert_eq!(loaded.snapshot(), other.snapshot());
        assert_eq!(loaded.names["prog/f"], fp(0xabc), "last write wins");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_empty_journal() {
        // A cold store's first save is a snapshot, never a journal.
        let dir = scratch("first-save");
        let mut c = DiskCache::load(&dir);
        c.insert(fp(1), ok_outcome(1));
        c.save().unwrap();
        assert_eq!(log_text(&dir), c.snapshot());
        assert_eq!(DiskCache::load(&dir).replayed(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sample's log plus a two-record journal, in `dir`.
    fn journaled_dir(tag: &str) -> (PathBuf, DiskCache) {
        let dir = saved_dir(tag);
        let mut c = DiskCache::load(&dir);
        c.insert(fp(1), ok_outcome(1));
        c.insert(fp(2), ok_outcome(2));
        c.save().unwrap();
        (dir, c)
    }

    #[test]
    fn torn_tail_keeps_the_prefix() {
        let (dir, full) = journaled_dir("torn-tail");
        let text = log_text(&dir);
        // Crash mid-append: the last line cut off partway through.
        let last = text.trim_end().rsplit_once('\n').unwrap().0.len() + 1;
        let cut = &text[..last + (text.len() - last) / 2];
        std::fs::write(dir.join(CACHE_FILE), cut).unwrap();
        let mut loaded = DiskCache::load(&dir);
        assert_eq!(loaded.load_outcome(), LoadOutcome::Warm, "no recovery");
        assert_eq!(loaded.replayed(), 1, "the intact prefix survives");
        assert!(loaded.lookup(fp(1)).is_some() && loaded.lookup(fp(2)).is_none());
        // The next save compacts rather than append behind the tear.
        loaded.insert(fp(2), ok_outcome(2));
        loaded.save().unwrap();
        assert_eq!(log_text(&dir), full.snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_fails_the_line_checksum() {
        let (dir, _) = journaled_dir("journal-flip");
        let text = log_text(&dir);
        // Flip a digit inside the *first* journal record: the line still
        // parses, so only its checksum catches it, and replay stops there.
        let flipped = text.replacen("\"counts\": [1,", "\"counts\": [3,", 1);
        assert_ne!(flipped, text, "journal digit present");
        std::fs::write(dir.join(CACHE_FILE), flipped).unwrap();
        let loaded = DiskCache::load(&dir);
        assert_eq!(loaded.load_outcome(), LoadOutcome::Warm);
        assert_eq!(loaded.replayed(), 0, "replay stops at the flip");
        assert_eq!(loaded.snapshot(), sample().snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_header_discards_everything() {
        let (dir, _) = journaled_dir("journal-header");
        let text = log_text(&dir).replace(CheckTable::SCHEMA, "fearless-incr-cache/9");
        std::fs::write(dir.join(CACHE_FILE), text).unwrap();
        assert_recovers(&dir, "schema mismatch");
    }

    #[test]
    fn compact_leaves_an_empty_journal() {
        let (dir, c) = journaled_dir("compact");
        c.compact().unwrap();
        assert_eq!(log_text(&dir), c.snapshot());
        let loaded = DiskCache::load(&dir);
        assert_eq!(loaded.replayed(), 0);
        assert_eq!(loaded.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_replay_fills_the_table() {
        // Journal records decode and apply through the same reader as
        // the snapshot's.
        let (dir, _) = journaled_dir("journal-apply");
        let loaded = DiskCache::load(&dir);
        assert_eq!(loaded.replayed(), 2);
        assert_eq!(loaded.len(), 4);
        assert!(matches!(
            loaded.lookup(fp(2)),
            Some(CachedOutcome::Ok { nodes: 2, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_past_the_journal_bound_compact() {
        let dir = saved_dir("bound");
        let mut c = DiskCache::load(&dir);
        let live = c.live();
        // Move one name back and forth: the table stays the same size
        // while the journal grows.
        let mut appended = 0;
        for round in 0..JOURNAL_FACTOR * live + 3 {
            let target = if round % 2 == 0 { 0xdef } else { 0xabc };
            c.note_name("prog/f", fp(target));
            c.save().unwrap();
            appended += 1;
            let journal = DiskCache::load(&dir).replayed();
            if appended <= JOURNAL_FACTOR * live {
                assert_eq!(journal, appended, "round {round} appends");
            } else {
                assert_eq!(journal, 0, "round {round} compacts");
                appended = 0;
            }
        }
        let loaded = DiskCache::load(&dir);
        assert_eq!(loaded.load_outcome(), LoadOutcome::Warm);
        assert_eq!(loaded.snapshot(), c.snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A log of `T`'s schema holding `records` and their commit line.
    fn log_of(schema: &str, records: &[Json]) -> String {
        let mut text = format!("{schema}\n");
        for record in records {
            push_line(&mut text, &record.render_compact());
        }
        let commit = Json::obj([("commit", Json::U64(records.len() as u64))]);
        push_line(&mut text, &commit.render_compact());
        text
    }

    const PROGRAM: &str = "struct data { value: int }
        def make(v: int) : data { new data(v) }
        def get(d: data) : int { d.value }";

    /// Runs the driver over [`PROGRAM`] with `cache`, returning the run
    /// and its `check` spans.
    fn traced_run(cache: &mut DiskCache) -> (crate::CheckRun, String) {
        let units = vec![(
            String::new(),
            fearless_syntax::parse_program(PROGRAM).unwrap(),
        )];
        let mut sink = fearless_trace::MemorySink::new();
        let opts = fearless_core::CheckerOptions::default();
        let run = crate::check_units(
            &units,
            &opts,
            1,
            Some(cache),
            &mut fearless_trace::Tracer::new(&mut sink),
        );
        let spans = sink
            .spans()
            .filter(|m| m.phase == "check")
            .map(|m| m.to_json_value_opts(false).render_compact())
            .collect();
        (run, spans)
    }

    /// Loads `text` as the check log of a fresh directory, asserts it is
    /// one counted `reason` recovery, and that the run over it equals a
    /// cold run.
    fn assert_counted_recovery(tag: &str, text: &str, reason: &str) {
        let dir = scratch(tag);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(CACHE_FILE), text).unwrap();
        let mut loaded = DiskCache::load(&dir);
        assert_eq!(loaded.recovered_reason(), Some(reason), "{tag}");
        let (run, spans) = traced_run(&mut loaded);
        assert_eq!(run.stats.recoveries, 1, "{tag}");
        assert_eq!((run.stats.hits, run.stats.misses), (0, 2), "{tag}");
        let (cold, cold_spans) = traced_run(&mut DiskCache::ephemeral());
        assert_eq!(run.units, cold.units, "{tag}");
        assert_eq!(spans, cold_spans, "{tag}");
        // The save replaces the document: the next load is warm.
        loaded.save().unwrap();
        assert_eq!(DiskCache::load(&dir).load_outcome(), LoadOutcome::Warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_schema_3_document_is_one_counted_cold_recovery() {
        // The record log before the counts array: each entry held its
        // outcome as an object with a name → value counter map.
        let opts = fearless_core::CheckerOptions::default();
        let program = fearless_syntax::parse_program(PROGRAM).unwrap();
        let fps = fearless_core::program_fingerprints(&program, &opts).unwrap();
        let mut records = Vec::new();
        for (_, fp) in &fps {
            let counters = CheckCounts::NAMES.map(|name| (name, Json::U64(0)));
            let outcome = Json::obj([
                ("ok", Json::Bool(true)),
                ("nodes", Json::U64(0)),
                ("vir_steps", Json::U64(0)),
                ("search_nodes", Json::U64(0)),
                ("counters", Json::obj(counters)),
            ]);
            records.push(Json::obj([
                ("entry", fingerprint_json(*fp)),
                ("outcome", outcome),
            ]));
        }
        for (name, fp) in &fps {
            records.push(name_json(&format!(":{name}"), *fp));
        }
        let old = log_of("fearless-incr-cache/3", &records);
        assert_counted_recovery("schema-3", &old, "schema mismatch");
    }

    #[test]
    fn a_counts_array_of_the_wrong_length_is_a_counted_recovery() {
        for len in [0, CheckCounts::LEN - 1, CheckCounts::LEN + 1] {
            let entry = Json::obj([
                ("entry", fingerprint_json(fp(1))),
                ("counts", Json::Arr(vec![Json::U64(1); len])),
            ]);
            let text = log_of(CheckTable::SCHEMA, &[entry]);
            assert_counted_recovery(&format!("counts-{len}"), &text, "malformed record");
        }
    }

    #[test]
    fn counts_round_trip_unchanged() {
        let mut values = [0; CheckCounts::LEN];
        for (i, v) in values.iter_mut().enumerate() {
            *v = (i as u64) << 40;
        }
        values[3] = u64::MAX;
        let mut c = DiskCache::ephemeral();
        c.insert(fp(1), CachedOutcome::checked(CheckCounts(values)));
        c.insert(
            fp(2),
            CachedOutcome::checked(CheckCounts([u64::MAX; CheckCounts::LEN])),
        );
        c.insert(
            fp(3),
            CachedOutcome::Err {
                message: "m".to_string(),
                span_lo: u32::MAX,
                span_hi: 0,
            },
        );
        let table: CheckTable = read_log(c.snapshot().as_bytes()).unwrap().0;
        assert_eq!(table.entries, c.entries);
        assert!(matches!(
            table.lookup(fp(1)),
            Some(CachedOutcome::Ok { nodes: 0, counts }) if counts.0 == values
        ));
    }

    #[test]
    fn note_name_counts_moves_only() {
        let mut c = DiskCache::ephemeral();
        assert!(
            !c.note_name("p/f", fp(1)),
            "first sighting is not an invalidation"
        );
        assert!(!c.note_name("p/f", fp(1)), "same fingerprint is stable");
        assert!(c.note_name("p/f", fp(2)), "moved fingerprint invalidates");
    }
}
