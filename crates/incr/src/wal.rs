//! Crash-recoverable write-ahead journal for the fingerprint cache.
//!
//! The `fearlessc serve` daemon keeps the [`crate::disk::DiskCache`]
//! hot in memory and persists it once, on drain. A SIGKILL mid-run
//! would therefore lose every outcome computed since startup — warm
//! state the next daemon must recompute. The WAL closes that gap:
//! every cache mutation (a fresh outcome, a name move) is appended to
//! `check-cache.wal` *before* the response leaves the daemon, so a
//! crash loses at most the entries still in flight.
//!
//! ## Format
//!
//! Line-oriented, append-only, one JSON document per line:
//!
//! ```text
//! {"schema": "fearless-incr-wal/1"}
//! {"crc": "<fnv1a64 hex of rec>", "rec": {"kind": "entry", "fp": "…", "outcome": {…}}}
//! {"crc": "…", "rec": {"kind": "name", "name": "…", "fp": "…"}}
//! ```
//!
//! The first line is the schema header. Every record line carries an
//! FNV-1a 64 checksum of the canonical `rec` rendering; [`replay`]
//! stops at the first line that is torn, fails its checksum, or does
//! not parse — everything before the tear is recovered, everything
//! after is discarded. A missing file is an ordinary empty journal.
//! Replay can never fail: like the cache document itself, the WAL
//! degrades, it does not error.
//!
//! ## Lifecycle
//!
//! On startup the daemon replays the WAL into the freshly loaded
//! cache ([`crate::disk::DiskCache::apply_wal`]) and *compacts*:
//! saves the merged cache document and resets the WAL. On clean
//! shutdown the cache is saved and the WAL reset, so a WAL with
//! records in it is always the signature of a crash.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use fearless_trace::Json;

use crate::disk::{checksum_hex, parse_json, CachedOutcome};

/// WAL file name inside the cache directory (next to
/// [`crate::disk::CACHE_FILE`]).
pub const WAL_FILE: &str = "check-cache.wal";

/// Schema tag on the WAL header line.
pub const SCHEMA: &str = "fearless-incr-wal/1";

/// One logged cache mutation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalRecord {
    /// A fresh outcome stored under a fingerprint.
    Entry {
        /// Fingerprint hex key.
        fp: String,
        /// The cached outcome.
        outcome: CachedOutcome,
    },
    /// A qualified function name moved to (or first appeared at) a
    /// fingerprint.
    Name {
        /// Qualified function name.
        name: String,
        /// Fingerprint hex the name now maps to.
        fp: String,
    },
}

impl WalRecord {
    /// Canonical JSON form — the bytes the per-line checksum covers.
    pub fn to_json(&self) -> Json {
        match self {
            WalRecord::Entry { fp, outcome } => Json::obj([
                ("kind", Json::str("entry")),
                ("fp", Json::str(fp.clone())),
                ("outcome", outcome.to_json()),
            ]),
            WalRecord::Name { name, fp } => Json::obj([
                ("kind", Json::str("name")),
                ("name", Json::str(name.clone())),
                ("fp", Json::str(fp.clone())),
            ]),
        }
    }

    /// Parses a record, consuming the parsed tree; `None` on any shape
    /// mismatch.
    pub fn from_json(mut v: Json) -> Option<WalRecord> {
        let mut take = |k: &str| match v.take(k)? {
            Json::Str(s) => Some(s),
            _ => None,
        };
        match take("kind")?.as_str() {
            "entry" => Some(WalRecord::Entry {
                fp: take("fp")?,
                outcome: CachedOutcome::from_json(v.take("outcome")?)?,
            }),
            "name" => Some(WalRecord::Name {
                name: take("name")?,
                fp: take("fp")?,
            }),
            _ => None,
        }
    }
}

/// Renders one checksummed WAL line (no trailing newline). Records use
/// the *compact* rendering — one value per line is what makes torn
/// tails detectable line-by-line.
fn record_line(rec: &WalRecord) -> String {
    let body = rec.to_json().render_compact();
    Json::obj([
        ("crc", Json::str(checksum_hex(&body))),
        ("rec", rec.to_json()),
    ])
    .render_compact()
}

fn header_line() -> String {
    Json::obj([("schema", Json::str(SCHEMA))]).render_compact()
}

/// An open, append-mode WAL.
#[derive(Debug)]
pub struct CacheWal {
    path: PathBuf,
    file: std::fs::File,
}

impl CacheWal {
    /// Opens (creating if needed) the WAL inside `dir`, writing the
    /// schema header when the file is empty.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory or file cannot be opened
    /// or the header cannot be written — callers degrade to running
    /// without a WAL.
    pub fn open(dir: &Path) -> Result<CacheWal, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache dir `{}`: {e}", dir.display()))?;
        let path = dir.join(WAL_FILE);
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| format!("cannot open wal `{}`: {e}", path.display()))?;
        let mut wal = CacheWal { path, file };
        let len = wal
            .file
            .metadata()
            .map_err(|e| format!("cannot stat wal `{}`: {e}", wal.path.display()))?
            .len();
        if len == 0 {
            wal.write_header()?;
        }
        Ok(wal)
    }

    fn write_header(&mut self) -> Result<(), String> {
        writeln!(self.file, "{}", header_line())
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("cannot write wal header `{}`: {e}", self.path.display()))
    }

    /// Appends records (one flushed write per call), returning how many
    /// were written.
    ///
    /// # Errors
    ///
    /// Returns a message on any write failure; the records are then in
    /// an unknown partially-written state, which replay's per-line
    /// checksums make safe.
    pub fn append(&mut self, records: &[WalRecord]) -> Result<usize, String> {
        if records.is_empty() {
            return Ok(0);
        }
        let mut buf = String::new();
        for rec in records {
            buf.push_str(&record_line(rec));
            buf.push('\n');
        }
        self.file
            .write_all(buf.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("cannot append wal `{}`: {e}", self.path.display()))?;
        Ok(records.len())
    }

    /// Truncates the journal back to just the schema header — called
    /// after the cache document itself has been saved (compaction) so
    /// the WAL only ever holds the delta since the last save.
    ///
    /// # Errors
    ///
    /// Returns a message when the truncate or header rewrite fails.
    pub fn reset(&mut self) -> Result<(), String> {
        self.file
            .set_len(0)
            .map_err(|e| format!("cannot truncate wal `{}`: {e}", self.path.display()))?;
        self.write_header()
    }

    /// The WAL file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// What [`replay`] recovered.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Every record up to the first tear, in append order.
    pub records: Vec<WalRecord>,
    /// Whether the journal ended in a torn/corrupt line (the records
    /// before it are still good).
    pub torn: bool,
}

/// Replays the WAL inside `dir`. A missing file is an empty journal; a
/// bad header discards everything; a torn or checksum-failing line
/// stops the replay there, keeping the prefix. Never an error.
pub fn replay(dir: &Path) -> WalReplay {
    let path = dir.join(WAL_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(_) => return WalReplay::default(),
    };
    let mut out = WalReplay::default();
    let mut lines = text.split('\n');
    // Header line: schema tag must match exactly.
    let header_ok = lines.next().is_some_and(|l| l == header_line());
    if !header_ok {
        out.torn = !text.is_empty();
        return out;
    }
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let rec = parse_json(line).and_then(|mut v| {
            let Some(Json::Str(crc)) = v.take("crc") else {
                return None;
            };
            let body = v.take("rec")?;
            if checksum_hex(&body.render_compact()) != crc {
                return None;
            }
            WalRecord::from_json(body)
        });
        match rec {
            Some(rec) => out.records.push(rec),
            None => {
                out.torn = true;
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fearless-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        let mut counters = BTreeMap::new();
        counters.insert("check.deriv_nodes".to_string(), 5);
        vec![
            WalRecord::Entry {
                fp: "00000000000000000000000000000abc".to_string(),
                outcome: CachedOutcome::Ok {
                    nodes: 5,
                    vir_steps: 2,
                    search_nodes: 1,
                    counters,
                },
            },
            WalRecord::Name {
                name: "prog/f".to_string(),
                fp: "00000000000000000000000000000abc".to_string(),
            },
            WalRecord::Entry {
                fp: "00000000000000000000000000000def".to_string(),
                outcome: CachedOutcome::Err {
                    message: "cannot \"unify\"\nbranches".to_string(),
                    span_lo: 3,
                    span_hi: 9,
                },
            },
        ]
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = scratch("roundtrip");
        let recs = sample_records();
        let mut wal = CacheWal::open(&dir).unwrap();
        assert_eq!(wal.append(&recs[..2]).unwrap(), 2);
        assert_eq!(wal.append(&recs[2..]).unwrap(), 1);
        drop(wal);
        // Reopening must not rewrite or disturb existing records.
        let _again = CacheWal::open(&dir).unwrap();
        let replayed = replay(&dir);
        assert!(!replayed.torn);
        assert_eq!(replayed.records, recs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_empty_journal() {
        let dir = scratch("missing");
        let replayed = replay(&dir);
        assert!(replayed.records.is_empty());
        assert!(!replayed.torn);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_keeps_the_prefix() {
        let dir = scratch("torn");
        let recs = sample_records();
        let mut wal = CacheWal::open(&dir).unwrap();
        wal.append(&recs).unwrap();
        // SIGKILL mid-append: a final line cut off partway through.
        let mut text = std::fs::read_to_string(dir.join(WAL_FILE)).unwrap();
        let extra = record_line(&recs[0]);
        text.push_str(&extra[..extra.len() / 2]);
        std::fs::write(dir.join(WAL_FILE), text).unwrap();
        let replayed = replay(&dir);
        assert!(replayed.torn, "a half-written line must read as torn");
        assert_eq!(replayed.records, recs, "the intact prefix survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_fails_the_line_checksum() {
        let dir = scratch("flip");
        let recs = sample_records();
        let mut wal = CacheWal::open(&dir).unwrap();
        wal.append(&recs).unwrap();
        let text = std::fs::read_to_string(dir.join(WAL_FILE)).unwrap();
        // Flip a digit inside the *last* record's payload: the line
        // still parses, so only the crc catches it.
        let flipped = text.replace("\"span_lo\": 3", "\"span_lo\": 4");
        assert_ne!(flipped, text);
        std::fs::write(dir.join(WAL_FILE), flipped).unwrap();
        let replayed = replay(&dir);
        assert!(replayed.torn);
        assert_eq!(replayed.records, recs[..2], "replay stops at the flip");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_header_discards_everything() {
        let dir = scratch("header");
        let mut wal = CacheWal::open(&dir).unwrap();
        wal.append(&sample_records()).unwrap();
        let text = std::fs::read_to_string(dir.join(WAL_FILE)).unwrap();
        std::fs::write(
            dir.join(WAL_FILE),
            text.replace(SCHEMA, "fearless-incr-wal/9"),
        )
        .unwrap();
        let replayed = replay(&dir);
        assert!(replayed.torn);
        assert!(replayed.records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_compacts_to_just_the_header() {
        let dir = scratch("reset");
        let mut wal = CacheWal::open(&dir).unwrap();
        wal.append(&sample_records()).unwrap();
        wal.reset().unwrap();
        let replayed = replay(&dir);
        assert!(replayed.records.is_empty());
        assert!(!replayed.torn);
        // And the file is usable for further appends.
        wal.append(&sample_records()[..1]).unwrap();
        assert_eq!(replay(&dir).records.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_feeds_apply_wal() {
        use crate::disk::DiskCache;
        let dir = scratch("apply");
        let mut wal = CacheWal::open(&dir).unwrap();
        wal.append(&sample_records()).unwrap();
        let mut cache = DiskCache::ephemeral();
        let replayed = replay(&dir);
        assert_eq!(cache.apply_wal(&replayed.records), 3);
        assert_eq!(cache.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
