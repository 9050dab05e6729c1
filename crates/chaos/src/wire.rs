//! Wire-level chaos against the serve daemon: seeded socket faults
//! (torn headers, split writes, garbage frames, connection slams)
//! plus the guard-layer drills (worker-panic quarantine, deterministic
//! deadlines, stale-while-revalidate, bounded retries, and a simulated
//! `kill -9` recovered through the cache log's journal).
//!
//! Every fault is a function of the seed; every response must carry a
//! documented protocol code or show up in a recovery counter, and the
//! aggregated [`WireDrillReport::to_json`] is byte-identical across
//! runs with the same seeds (wall clock lives under `_nondet`).

use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc::channel;
use std::time::Duration;

use fearless_serve::client::RetryPolicy;
use fearless_serve::protocol::{self, codes, Frame, Request, Response, MAX_FRAME};
use fearless_serve::server::{ServeOptions, Server, PANIC_MARKER};
use fearless_serve::Client;
use fearless_trace::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The socket-fault classes injected per seed, in drill order.
pub const WIRE_FAULTS: &[&str] = &[
    "truncate_header",
    "truncate_body",
    "oversized",
    "garbage_bytes",
    "malformed_json",
    "unknown_kind",
    "split_writes",
    "delay",
    "slam",
];

/// One seed's deterministic drill outcome (every field must be
/// identical across runs with the same seed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSeedOutcome {
    /// The drill seed.
    pub seed: u64,
    /// Truncated frames answered code 3 (torn header + torn body).
    pub truncated: u64,
    /// Oversized frames answered code 2.
    pub oversized: u64,
    /// Non-UTF-8 frames answered code 4.
    pub invalid_utf8: u64,
    /// Unparseable request objects answered code 6.
    pub malformed: u64,
    /// Unknown kinds answered code 5.
    pub unknown_kind: u64,
    /// Well-formed requests served code 0 despite byte-level abuse
    /// (split writes, delays) plus the post-slam reconnect.
    pub survived_ok: u64,
    /// Shed responses (code 7) observed by drill clients.
    pub overloaded: u64,
    /// Retries spent by the bounded-backoff client.
    pub retries: u64,
    /// Logical-deadline rejections (code 9).
    pub deadline_exceeded: u64,
    /// Stale-while-revalidate answers (`stale: true`).
    pub stale_served: u64,
    /// Worker restarts after injected panics (daemon counter).
    pub worker_restarts: u64,
    /// Requests quarantined to a memoized code 70 (daemon counter).
    pub quarantined: u64,
    /// Cache-log journal records replayed by the post-"crash" daemon.
    pub wal_replayed: u64,
    /// The simulated kill -9 was recovered byte-identically.
    pub recovery_byte_identical: bool,
}

/// Aggregated drill report over all seeds.
#[derive(Clone, Debug)]
pub struct WireDrillReport {
    /// Per-seed outcomes, in seed order.
    pub outcomes: Vec<WireSeedOutcome>,
    /// Wall-clock duration of the whole drill, microseconds
    /// (nondeterministic; excluded from the diff gate).
    pub wall_micros: u64,
}

impl WireDrillReport {
    fn total(&self, f: impl Fn(&WireSeedOutcome) -> u64) -> u64 {
        self.outcomes.iter().map(f).sum()
    }

    /// Renders the `BENCH_guard.json` document: schema
    /// `fearless-guard-bench/1`, deterministic counters as plain keys,
    /// wall clock under `_nondet`.
    pub fn to_json(&self) -> String {
        let doc = Json::Obj(vec![
            ("schema".to_string(), Json::str("fearless-guard-bench/1")),
            ("seeds".to_string(), Json::U64(self.outcomes.len() as u64)),
            (
                "fault_classes_per_seed".to_string(),
                Json::U64(WIRE_FAULTS.len() as u64),
            ),
            (
                "truncated".to_string(),
                Json::U64(self.total(|o| o.truncated)),
            ),
            (
                "oversized".to_string(),
                Json::U64(self.total(|o| o.oversized)),
            ),
            (
                "invalid_utf8".to_string(),
                Json::U64(self.total(|o| o.invalid_utf8)),
            ),
            (
                "malformed".to_string(),
                Json::U64(self.total(|o| o.malformed)),
            ),
            (
                "unknown_kind".to_string(),
                Json::U64(self.total(|o| o.unknown_kind)),
            ),
            (
                "survived_ok".to_string(),
                Json::U64(self.total(|o| o.survived_ok)),
            ),
            (
                "overloaded".to_string(),
                Json::U64(self.total(|o| o.overloaded)),
            ),
            ("retries".to_string(), Json::U64(self.total(|o| o.retries))),
            (
                "deadline_exceeded".to_string(),
                Json::U64(self.total(|o| o.deadline_exceeded)),
            ),
            (
                "stale_served".to_string(),
                Json::U64(self.total(|o| o.stale_served)),
            ),
            (
                "worker_restarts".to_string(),
                Json::U64(self.total(|o| o.worker_restarts)),
            ),
            (
                "quarantined".to_string(),
                Json::U64(self.total(|o| o.quarantined)),
            ),
            (
                "wal_replayed".to_string(),
                Json::U64(self.total(|o| o.wal_replayed)),
            ),
            (
                "recoveries_byte_identical".to_string(),
                Json::U64(
                    self.outcomes
                        .iter()
                        .filter(|o| o.recovery_byte_identical)
                        .count() as u64,
                ),
            ),
            (
                "wall_micros_nondet".to_string(),
                Json::U64(self.wall_micros),
            ),
        ]);
        let mut text = doc.render();
        text.push('\n');
        text
    }

    /// Human-readable drill summary.
    pub fn render(&self) -> String {
        let n = self.outcomes.len();
        let recovered = self
            .outcomes
            .iter()
            .filter(|o| o.recovery_byte_identical)
            .count();
        format!(
            "wire chaos: {n} seed(s) × {} socket fault class(es), zero hangs\n\
             codes: {} truncated, {} oversized, {} invalid-utf8, {} malformed, {} unknown-kind, \
             {} overloaded, {} deadline-exceeded\n\
             survived: {} ok response(s) under byte-level abuse\n\
             guard: {} worker restart(s), {} quarantine(s), {} stale serve(s), {} retr(ies)\n\
             crash recovery: {recovered}/{n} seed(s) replayed {} journal record(s) byte-identically\n",
            WIRE_FAULTS.len(),
            self.total(|o| o.truncated),
            self.total(|o| o.oversized),
            self.total(|o| o.invalid_utf8),
            self.total(|o| o.malformed),
            self.total(|o| o.unknown_kind),
            self.total(|o| o.overloaded),
            self.total(|o| o.deadline_exceeded),
            self.total(|o| o.survived_ok),
            self.total(|o| o.worker_restarts),
            self.total(|o| o.quarantined),
            self.total(|o| o.stale_served),
            self.total(|o| o.retries),
            self.total(|o| o.wal_replayed),
        )
    }
}

fn expect_code(what: &str, r: &Response, code: u64) -> Result<(), String> {
    if r.code == code {
        Ok(())
    } else {
        Err(format!(
            "{what}: expected code {code}, got {} ({})",
            r.code, r.output
        ))
    }
}

/// Reads the one response frame a raw fault elicits.
fn raw_response(stream: &mut UnixStream, what: &str) -> Result<Response, String> {
    match protocol::read_frame(stream, MAX_FRAME)? {
        Frame::Body(bytes) => {
            let text = String::from_utf8_lossy(&bytes).into_owned();
            Response::from_json(&text).ok_or_else(|| format!("{what}: unparseable response"))
        }
        other => Err(format!("{what}: expected a response frame, got {other:?}")),
    }
}

fn connect_raw(socket: &Path) -> Result<UnixStream, String> {
    UnixStream::connect(socket).map_err(|e| format!("connect {}: {e}", socket.display()))
}

/// Pulls a `"name": value` counter out of a stats document.
fn stat(output: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\": ");
    output
        .find(&needle)
        .and_then(|at| {
            output[at + needle.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

fn wait_for(control: &mut Client, what: &str, pred: impl Fn(&str) -> bool) -> Result<(), String> {
    for _ in 0..2000 {
        let stats = control.request("stats", "")?;
        if pred(&stats.output) {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err(format!("timed out waiting for {what}"))
}

/// Drives one seed's full fault schedule against a fresh in-process
/// daemon in `dir` and a second daemon recovered from a simulated
/// `kill -9` snapshot of its cache directory.
///
/// # Errors
///
/// Any undocumented response code, lost connection, or non-identical
/// recovery is an error (the drill is an oracle, not a logger).
pub fn run_wire_drill(dir: &Path, seed: u64) -> Result<WireSeedOutcome, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let socket = dir.join("serve.sock");
    let cache_dir = dir.join("cache");
    let mut opts = ServeOptions::new(&socket);
    opts.workers = 2;
    opts.queue_capacity = 2;
    opts.cache_dir = Some(cache_dir.clone());
    opts.retry_after_millis = 1;
    opts.inject_faults = true;
    let spawned = Server::spawn(opts)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = WireSeedOutcome {
        seed,
        truncated: 0,
        oversized: 0,
        invalid_utf8: 0,
        malformed: 0,
        unknown_kind: 0,
        survived_ok: 0,
        overloaded: 0,
        retries: 0,
        deadline_exceeded: 0,
        stale_served: 0,
        worker_restarts: 0,
        quarantined: 0,
        wal_replayed: 0,
        recovery_byte_identical: false,
    };

    // --- Socket faults -------------------------------------------------
    // truncate_header: a torn 2-byte header, then EOF.
    {
        let mut s = connect_raw(&socket)?;
        s.write_all(&[0, 1]).map_err(|e| format!("write: {e}"))?;
        s.shutdown(std::net::Shutdown::Write)
            .map_err(|e| format!("shutdown: {e}"))?;
        let r = raw_response(&mut s, "truncate_header")?;
        expect_code("truncate_header", &r, codes::TRUNCATED)?;
        out.truncated += 1;
    }
    // truncate_body: a header declaring more bytes than ever arrive.
    {
        let mut s = connect_raw(&socket)?;
        let declared = rng.gen_range(64u32..256);
        let sent = rng.gen_range(0..declared / 2) as usize;
        s.write_all(&declared.to_be_bytes())
            .and_then(|()| s.write_all(&vec![b'x'; sent]))
            .map_err(|e| format!("write: {e}"))?;
        s.shutdown(std::net::Shutdown::Write)
            .map_err(|e| format!("shutdown: {e}"))?;
        let r = raw_response(&mut s, "truncate_body")?;
        expect_code("truncate_body", &r, codes::TRUNCATED)?;
        out.truncated += 1;
    }
    // oversized: a frame length over MAX_FRAME (never allocated).
    {
        let mut s = connect_raw(&socket)?;
        let len: u32 = MAX_FRAME + 1 + rng.gen_range(0..1024u32);
        s.write_all(&len.to_be_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let r = raw_response(&mut s, "oversized")?;
        expect_code("oversized", &r, codes::OVERSIZED)?;
        out.oversized += 1;
    }
    // garbage_bytes: a frame that is not UTF-8; connection stays usable.
    {
        let mut s = connect_raw(&socket)?;
        let mut body = vec![0xff, 0xfe];
        for _ in 0..rng.gen_range(4..32) {
            body.push(rng.gen_range(0x80..=0xffu8));
        }
        protocol::write_frame(&mut s, &body)?;
        let r = raw_response(&mut s, "garbage_bytes")?;
        expect_code("garbage_bytes", &r, codes::INVALID_UTF8)?;
        out.invalid_utf8 += 1;
        protocol::write_frame(&mut s, Request::new("ping", "").to_json().as_bytes())?;
        let r = raw_response(&mut s, "ping after garbage")?;
        expect_code("ping after garbage", &r, codes::OK)?;
        out.survived_ok += 1;
    }
    // malformed_json: valid UTF-8, not a request object.
    {
        let mut s = connect_raw(&socket)?;
        let body = format!("{{ not json at all #{}", rng.gen_range(0..u32::MAX));
        protocol::write_frame(&mut s, body.as_bytes())?;
        let r = raw_response(&mut s, "malformed_json")?;
        expect_code("malformed_json", &r, codes::MALFORMED)?;
        out.malformed += 1;
    }
    // unknown_kind: a well-formed request for a kind that does not exist.
    {
        let mut c = Client::connect(&socket)?;
        let r = c.request_raw(Request::new("dance", "").to_json().as_bytes())?;
        expect_code("unknown_kind", &r, codes::UNKNOWN_KIND)?;
        out.unknown_kind += 1;
    }
    // split_writes: a valid ping delivered one byte at a time.
    {
        let mut s = connect_raw(&socket)?;
        let body = Request::new("ping", "").to_json();
        let mut frame = (body.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(body.as_bytes());
        for byte in frame {
            s.write_all(&[byte]).map_err(|e| format!("write: {e}"))?;
            s.flush().map_err(|e| format!("flush: {e}"))?;
        }
        let r = raw_response(&mut s, "split_writes")?;
        expect_code("split_writes", &r, codes::OK)?;
        out.survived_ok += 1;
    }
    // delay: a seeded pause between header and body.
    {
        let mut s = connect_raw(&socket)?;
        let body = Request::new("ping", "").to_json();
        s.write_all(&(body.len() as u32).to_be_bytes())
            .map_err(|e| format!("write: {e}"))?;
        std::thread::sleep(Duration::from_millis(rng.gen_range(1..20u64)));
        s.write_all(body.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let r = raw_response(&mut s, "delay")?;
        expect_code("delay", &r, codes::OK)?;
        out.survived_ok += 1;
    }
    // slam: several connections drop mid-frame with no goodbye; the
    // daemon must shrug and keep serving fresh connections.
    {
        for _ in 0..4 {
            let mut s = connect_raw(&socket)?;
            let n = rng.gen_range(1..4usize);
            let _ = s.write_all(&[0u8, 0, 0][..n]);
            drop(s);
        }
        let mut c = Client::connect(&socket)?;
        let r = c.request("ping", "")?;
        expect_code("reconnect after slam", &r, codes::OK)?;
        out.survived_ok += 1;
    }

    // --- Guard drills --------------------------------------------------
    let mut control = Client::connect(&socket)?;
    // Deterministic logical deadline: zero budget loses to any work.
    {
        let mut c = Client::connect(&socket)?;
        let r = c.request_with("check", "def dl(x: int): int { x }\n", Some(0))?;
        expect_code("deadline 0", &r, codes::DEADLINE_EXCEEDED)?;
        out.deadline_exceeded += 1;
    }
    // Worker-panic supervision: one crash retries, two quarantine.
    {
        let mut c = Client::connect(&socket)?;
        let r = c.request("check", &format!("{PANIC_MARKER}\n"))?;
        expect_code("panic marker", &r, codes::ICE)?;
        let stats = control.request("stats", "")?;
        out.worker_restarts = stat(&stats.output, "worker_restarts");
        out.quarantined = stat(&stats.output, "quarantined");
        if out.worker_restarts != 2 || out.quarantined != 1 {
            return Err(format!(
                "supervision: expected 2 restarts / 1 quarantine, got {} / {}",
                out.worker_restarts, out.quarantined
            ));
        }
        let r = c.request("check", "def alive(x: int): int { x }\n")?;
        expect_code("daemon serves after quarantine", &r, codes::OK)?;
    }
    // Seed the recovery and stale bodies while workers are healthy.
    let recovery_body = "def rec(x: int): int { x + 1 }\n";
    let stale_body = "def stale(a: int): int { a + 2 }\n";
    let mut c = Client::connect(&socket)?;
    let recovered_reference = c.request("check", recovery_body)?;
    expect_code("recovery seed", &recovered_reference, codes::OK)?;
    let r = c.request("check", stale_body)?;
    expect_code("stale seed", &r, codes::OK)?;
    // reset moves the memo generation into the stale pool.
    let r = control.request("reset", "")?;
    expect_code("reset", &r, codes::OK)?;
    let r = control.request("pause", "")?;
    expect_code("pause", &r, codes::OK)?;
    let fillers: Vec<_> = (0..2)
        .map(|i| {
            let socket = socket.clone();
            std::thread::spawn(move || -> Result<Response, String> {
                let mut c = Client::connect(&socket)?;
                c.request(
                    "check",
                    &format!("def fill{i}(x: int): int {{ x + {i} }}\n"),
                )
            })
        })
        .collect();
    wait_for(&mut control, "a full queue", |s| {
        stat(s, "queue_len_nondet") >= 2
    })?;
    {
        let mut c = Client::connect(&socket)?;
        // No opt-in: the stale pool is ignored and the full queue sheds.
        let r = c.request("check", stale_body)?;
        expect_code("shed without allow_stale", &r, codes::OVERLOADED)?;
        out.overloaded += 1;
        // Opt-in: the previous generation's answer, marked stale.
        let r = c.request_stale_ok("check", stale_body)?;
        expect_code("stale-while-revalidate", &r, codes::OK)?;
        if !r.stale {
            return Err("stale-while-revalidate: response not marked stale".to_string());
        }
        // Bounded seeded retries against the still-full queue.
        let policy = RetryPolicy {
            max_retries: 2,
            base_millis: 1,
            seed,
        };
        let (r, retries) =
            c.request_with_retry("check", "def fresh(x: int): int { x + 9 }\n", None, policy)?;
        expect_code("retries exhausted", &r, codes::OVERLOADED)?;
        if retries != 2 {
            return Err(format!("retry drill: expected 2 retries, spent {retries}"));
        }
        out.overloaded += 1;
        out.retries += u64::from(retries);
        let stats = control.request("stats", "")?;
        out.stale_served = stat(&stats.output, "stale_served");
        if out.stale_served != 1 {
            return Err(format!(
                "stale_served: expected 1, got {}",
                out.stale_served
            ));
        }
    }
    let r = control.request("resume", "")?;
    expect_code("resume", &r, codes::OK)?;
    for f in fillers {
        let r = f.join().map_err(|_| "filler panicked".to_string())??;
        expect_code("filler completes", &r, codes::OK)?;
    }

    // --- Simulated kill -9 + journal recovery --------------------------
    // Snapshot the cache directory while the daemon is live: the bytes
    // a SIGKILL would leave behind (journal populated, not compacted).
    let crash_dir = dir.join("cache-at-crash");
    std::fs::create_dir_all(&crash_dir).map_err(|e| format!("create crash dir: {e}"))?;
    for entry in
        std::fs::read_dir(&cache_dir).map_err(|e| format!("read {}: {e}", cache_dir.display()))?
    {
        let entry = entry.map_err(|e| format!("read dir entry: {e}"))?;
        if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            std::fs::copy(entry.path(), crash_dir.join(entry.file_name()))
                .map_err(|e| format!("copy snapshot: {e}"))?;
        }
    }
    let r = control.request("shutdown", "")?;
    expect_code("shutdown", &r, codes::OK)?;
    spawned.shutdown_and_join()?;

    let socket_b = dir.join("serve-b.sock");
    let mut opts = ServeOptions::new(&socket_b);
    opts.cache_dir = Some(crash_dir);
    let spawned = Server::spawn(opts)?;
    let mut c = Client::connect(&socket_b)?;
    let stats = c.request("stats", "")?;
    out.wal_replayed = stat(&stats.output, "wal_replayed");
    if out.wal_replayed == 0 {
        return Err("recovery: the journal replayed nothing".to_string());
    }
    let recovered = c.request("check", recovery_body)?;
    out.recovery_byte_identical = recovered.to_json() == recovered_reference.to_json();
    if !out.recovery_byte_identical {
        return Err(format!(
            "recovery: post-crash response diverged:\n{}\nvs\n{}",
            recovered.to_json(),
            recovered_reference.to_json()
        ));
    }
    let r = c.request("shutdown", "")?;
    expect_code("shutdown B", &r, codes::OK)?;
    spawned.shutdown_and_join()?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(out)
}

/// Runs [`run_wire_drill`] for every seed, each under a watchdog: a
/// seed that does not finish within `watchdog_secs` fails the drill
/// (a hang is the one failure a chaos harness must never swallow).
///
/// # Errors
///
/// Propagates per-seed failures and watchdog timeouts.
pub fn run_wire_drills(
    dir: &Path,
    seeds: &[u64],
    watchdog_secs: u64,
) -> Result<WireDrillReport, String> {
    let started = std::time::Instant::now();
    let mut outcomes = Vec::new();
    for &seed in seeds {
        let (tx, rx) = channel();
        let seed_dir: PathBuf = dir.join(format!("seed-{seed}"));
        let handle = std::thread::spawn(move || {
            let _ = tx.send(run_wire_drill(&seed_dir, seed));
        });
        match rx.recv_timeout(Duration::from_secs(watchdog_secs.max(1))) {
            Ok(result) => {
                let _ = handle.join();
                outcomes.push(result?);
            }
            Err(_) => {
                return Err(format!(
                    "watchdog: wire drill for seed {seed} exceeded {watchdog_secs}s (hang)"
                ))
            }
        }
    }
    Ok(WireDrillReport {
        outcomes,
        wall_micros: started.elapsed().as_micros() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drill_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fearless-wire-{tag}-{}", std::process::id()))
    }

    #[test]
    fn wire_drill_is_deterministic_per_seed() {
        let dir = drill_dir("det");
        let one = run_wire_drills(&dir, &[7, 8], 60).unwrap();
        let two = run_wire_drills(&dir, &[7, 8], 60).unwrap();
        assert_eq!(one.outcomes, two.outcomes);
        // The BENCH documents agree modulo `_nondet` — a 0-regression
        // bench-diff, which is exactly what CI gates on.
        let parse = |t: &str| fearless_trace::parse_json(t).unwrap();
        let diff = fearless_trace::bench_diff(&parse(&one.to_json()), &parse(&two.to_json()), 0);
        assert!(!diff.has_regressions(), "{}", diff.render());
        assert_eq!(
            fearless_trace::strip_nondet(&parse(&one.to_json())).render(),
            fearless_trace::strip_nondet(&parse(&two.to_json())).render(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_fault_lands_on_its_documented_code() {
        let dir = drill_dir("codes");
        let o = run_wire_drill(&dir.join("seed-3"), 3).unwrap();
        assert_eq!(o.truncated, 2, "{o:?}");
        assert_eq!(o.oversized, 1, "{o:?}");
        assert_eq!(o.invalid_utf8, 1, "{o:?}");
        assert_eq!(o.malformed, 1, "{o:?}");
        assert_eq!(o.unknown_kind, 1, "{o:?}");
        assert_eq!(o.survived_ok, 4, "{o:?}");
        assert_eq!(o.worker_restarts, 2, "{o:?}");
        assert_eq!(o.quarantined, 1, "{o:?}");
        assert_eq!(o.deadline_exceeded, 1, "{o:?}");
        assert_eq!(o.stale_served, 1, "{o:?}");
        assert_eq!(o.retries, 2, "{o:?}");
        assert!(o.wal_replayed > 0, "{o:?}");
        assert!(o.recovery_byte_identical, "{o:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
