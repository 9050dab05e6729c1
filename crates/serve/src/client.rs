//! The protocol client plus the `serve --once` end-to-end self-test.

use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use crate::protocol::{self, codes, Frame, Request, Response};
use crate::server::{ServeOptions, Server, PANIC_MARKER};

/// Client-side retry policy for `overloaded` (code 7) responses:
/// bounded, seeded exponential backoff honoring the server's
/// `retry_after_millis` hint.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub max_retries: u32,
    /// Base backoff when the response carries no hint.
    pub base_millis: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl RetryPolicy {
    /// Defaults: 3 retries, 5 ms base, seed 42.
    pub fn new() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_millis: 5,
            seed: 42,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new()
    }
}

/// SplitMix64, the crate's one seeded generator: the bench uses it for
/// the deterministic per-request body assignment, the client only to
/// jitter backoff sleeps (never response bytes).
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A connected protocol client. One request/response at a time; open
/// several clients for concurrency.
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connects to a daemon socket.
    ///
    /// # Errors
    ///
    /// Reports a missing or refusing socket.
    pub fn connect(socket: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("cannot connect to `{}`: {e}", socket.display()))?;
        Ok(Client { stream })
    }

    /// Sends one request and reads the response.
    ///
    /// # Errors
    ///
    /// Reports I/O failures or an unparseable response document.
    pub fn request(&mut self, kind: &str, body: &str) -> Result<Response, String> {
        self.request_with(kind, body, None)
    }

    /// Like [`Client::request`] with an optional logical deadline (see
    /// `codes::DEADLINE_EXCEEDED`).
    ///
    /// # Errors
    ///
    /// Reports I/O failures or an unparseable response document.
    pub fn request_with(
        &mut self,
        kind: &str,
        body: &str,
        deadline_millis: Option<u64>,
    ) -> Result<Response, String> {
        let mut req = Request::new(kind, body);
        req.deadline_millis = deadline_millis;
        self.request_raw(req.to_json().as_bytes())
    }

    /// Like [`Client::request`] but tolerating a previous-epoch answer:
    /// sets `allow_stale`, so under load the daemon may reply
    /// `stale: true` from the pre-`reset` memo instead of shedding.
    ///
    /// # Errors
    ///
    /// Reports I/O failures or an unparseable response document.
    pub fn request_stale_ok(&mut self, kind: &str, body: &str) -> Result<Response, String> {
        let mut req = Request::new(kind, body);
        req.allow_stale = true;
        self.request_raw(req.to_json().as_bytes())
    }

    /// Sends a fully-specified [`Request`] (deadline, staleness
    /// tolerance, anything future) and reads the response.
    ///
    /// # Errors
    ///
    /// Reports I/O failures or an unparseable response document.
    pub fn send(&mut self, req: &Request) -> Result<Response, String> {
        self.request_raw(req.to_json().as_bytes())
    }

    /// [`Client::send`] under a [`RetryPolicy`]: `overloaded` (code 7)
    /// responses are retried with bounded seeded backoff honoring the
    /// server's `retry_after_millis` hint. Returns the final response
    /// plus the retries spent; every non-7 response is final.
    ///
    /// # Errors
    ///
    /// Reports I/O failures or an unparseable response document.
    pub fn send_with_retry(
        &mut self,
        req: &Request,
        policy: RetryPolicy,
    ) -> Result<(Response, u32), String> {
        let mut retries = 0u32;
        loop {
            let r = self.send(req)?;
            if r.code != codes::OVERLOADED || retries >= policy.max_retries {
                return Ok((r, retries));
            }
            let hint = r.retry_after_millis.unwrap_or(policy.base_millis).max(1);
            // hint × 2^attempt plus seeded jitter in [0, hint), capped
            // so a hostile hint can never park the client for long.
            let backoff = hint.saturating_mul(1 << retries.min(6));
            let jitter = splitmix(policy.seed ^ u64::from(retries)) % hint;
            std::thread::sleep(Duration::from_millis((backoff + jitter).min(1000)));
            retries += 1;
        }
    }

    /// Sends a request, retrying `overloaded` (code 7) responses with
    /// bounded seeded exponential backoff that honors the server's
    /// `retry_after_millis` hint. Returns the final response plus how
    /// many retries were spent. Only code 7 retries — every other
    /// response (including errors) is final.
    ///
    /// # Errors
    ///
    /// Reports I/O failures or an unparseable response document.
    pub fn request_with_retry(
        &mut self,
        kind: &str,
        body: &str,
        deadline_millis: Option<u64>,
        policy: RetryPolicy,
    ) -> Result<(Response, u32), String> {
        let mut req = Request::new(kind, body);
        req.deadline_millis = deadline_millis;
        self.send_with_retry(&req, policy)
    }

    /// Sends raw frame bytes (the edge-case tests use this to send
    /// deliberately broken frames) and reads the response.
    ///
    /// # Errors
    ///
    /// Reports I/O failures or an unparseable response document.
    pub fn request_raw(&mut self, frame_body: &[u8]) -> Result<Response, String> {
        protocol::write_frame(&mut self.stream, frame_body)?;
        self.read_response()
    }

    /// Reads one response frame.
    ///
    /// # Errors
    ///
    /// Reports EOF, I/O failures, or an unparseable document.
    pub fn read_response(&mut self) -> Result<Response, String> {
        match protocol::read_frame(&mut self.stream, protocol::MAX_FRAME)? {
            Frame::Body(bytes) => {
                let text = String::from_utf8(bytes)
                    .map_err(|_| "response is not valid UTF-8".to_string())?;
                Response::from_json(&text).ok_or_else(|| format!("unparseable response: {text}"))
            }
            Frame::Eof => Err("daemon closed the connection".to_string()),
            Frame::Truncated => Err("daemon response was truncated".to_string()),
            Frame::Oversized(n) => Err(format!("daemon response oversized: {n} bytes")),
        }
    }

    /// Writes a deliberately broken frame: a header declaring
    /// `declared` bytes followed by only `sent` bytes, then shuts down
    /// the write half so the daemon sees a truncated frame but can
    /// still answer on the read half.
    ///
    /// # Errors
    ///
    /// Reports I/O failures.
    pub fn send_truncated(&mut self, declared: u32, sent: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(&declared.to_be_bytes())
            .and_then(|()| self.stream.write_all(sent))
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("write: {e}"))?;
        self.stream
            .shutdown(std::net::Shutdown::Write)
            .map_err(|e| format!("shutdown: {e}"))
    }

    /// Writes only a frame header (no body will follow).
    ///
    /// # Errors
    ///
    /// Reports I/O failures.
    pub fn send_header_only(&mut self, declared: u32) -> Result<(), String> {
        self.stream
            .write_all(&declared.to_be_bytes())
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("write: {e}"))
    }
}

/// A tiny always-valid program for smoke requests.
pub const SMOKE_PROGRAM: &str = "def smoke(x: int): int { x + 1 }\n";

/// A program with a type error (an undefined callee).
pub const SMOKE_BROKEN: &str = "def broke(x: int): int { missing(x) }\n";

/// Runs the daemon in-process on `socket` and drives the whole protocol
/// end to end — every work kind, dedupe, pause/shed/resume, each
/// protocol edge case, the guard layer (deadlines, stale serves,
/// retries, worker supervision), and a draining shutdown. Returns the
/// transcript (one line per probe).
///
/// # Errors
///
/// Any probe that does not see its expected response fails the
/// self-test with a message naming the probe.
pub fn self_test(socket: &Path) -> Result<String, String> {
    let mut opts = ServeOptions::new(socket);
    opts.workers = 2;
    opts.queue_capacity = 2;
    opts.inject_faults = true;
    let spawned = Server::spawn(opts)?;
    let result = run_probes(socket);
    // Always shut the daemon down, even when a probe failed.
    let mut shutdown = Client::connect(socket).and_then(|mut c| c.request("shutdown", ""));
    if shutdown.is_err() {
        // The daemon may already be draining; ask the spawner instead.
        shutdown = Ok(Response::ok(""));
    }
    let joined = spawned.shutdown_and_join();
    let mut out = result?;
    let shutdown = shutdown?;
    expect(
        "shutdown drains and persists",
        shutdown.code == codes::OK,
        &shutdown,
    )?;
    out.push_str("self-test: shutdown drained cleanly\n");
    joined?;
    out.push_str("self-test: all probes passed\n");
    Ok(out)
}

fn expect(probe: &str, ok: bool, got: &Response) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!(
            "self-test probe `{probe}` failed: status {} code {} output {:?}",
            got.status, got.code, got.output
        ))
    }
}

fn run_probes(socket: &Path) -> Result<String, String> {
    let mut out = String::new();
    let mut c = Client::connect(socket)?;

    let r = c.request("ping", "")?;
    expect("ping", r.code == codes::OK && r.output == "pong", &r)?;
    out.push_str("self-test: ping → pong\n");

    // Every work kind round-trips on a valid program.
    for kind in protocol::WORK_KINDS {
        let r = c.request(kind, SMOKE_PROGRAM)?;
        expect(kind, r.code == codes::OK, &r)?;
        out.push_str(&format!(
            "self-test: {kind} → ok ({} bytes)\n",
            r.output.len()
        ));
    }

    // Diagnostics are structured responses, not hangs or closes.
    let r = c.request("check", SMOKE_BROKEN)?;
    expect("check diagnostic", r.code == codes::DIAGNOSTIC, &r)?;
    out.push_str("self-test: check (broken) → diagnostic\n");

    // A second client sending the same body must be deduped and get
    // byte-identical output.
    let first = c.request("check", SMOKE_PROGRAM)?;
    let mut c2 = Client::connect(socket)?;
    let second = c2.request("check", SMOKE_PROGRAM)?;
    expect(
        "dedupe byte-identity",
        first.to_json() == second.to_json(),
        &second,
    )?;
    let stats = c.request("stats", "")?;
    expect(
        "dedupe counted",
        stat_counter(&stats.output, "dedupe_hits") >= 1,
        &stats,
    )?;
    out.push_str("self-test: dedupe → byte-identical response, counted\n");

    // Load shedding: reset the counters, pause the workers, fill the
    // queue (capacity 2) with distinct bodies, and watch the third get
    // an explicit `overloaded` with a retry hint — deterministically,
    // never a hang.
    let r = c.request("reset", "")?;
    expect("reset", r.code == codes::OK, &r)?;
    let r = c.request("pause", "")?;
    expect("pause", r.code == codes::OK, &r)?;
    let parked: Vec<_> = (0..2)
        .map(|i| {
            let socket = socket.to_path_buf();
            std::thread::spawn(move || {
                let mut pc = Client::connect(&socket)?;
                pc.request(
                    "check",
                    &format!("def fill{i}(x: int): int {{ x + {i} }}\n"),
                )
            })
        })
        .collect();
    wait_for_queue_depth(&mut c, 2)?;
    let mut c3 = Client::connect(socket)?;
    let shed = c3.request("check", "def shed0(x: int): int { x + 99 }\n")?;
    expect(
        "shed",
        shed.status == "overloaded"
            && shed.code == codes::OVERLOADED
            && shed.retry_after_millis.is_some(),
        &shed,
    )?;
    let r = c.request("resume", "")?;
    expect("resume", r.code == codes::OK, &r)?;
    for p in parked {
        let r = p
            .join()
            .map_err(|_| "parked client panicked".to_string())??;
        expect(
            "parked client completes after resume",
            r.code == codes::OK,
            &r,
        )?;
    }
    out.push_str("self-test: shed → overloaded with retry hint; queue drained on resume\n");

    // Protocol edge cases: each a structured error with its own code.
    let mut e = Client::connect(socket)?;
    let r = e.request_raw(&[0xff, 0xfe, 0x80])?;
    expect("invalid utf-8", r.code == codes::INVALID_UTF8, &r)?;
    let r = e.request_raw(b"{ not json")?;
    expect("malformed json", r.code == codes::MALFORMED, &r)?;
    let r = e.request_raw(Request::new("dance", "").to_json().as_bytes())?;
    expect("unknown kind", r.code == codes::UNKNOWN_KIND, &r)?;

    let mut e = Client::connect(socket)?;
    e.send_header_only(protocol::MAX_FRAME + 1)?;
    let r = e.read_response()?;
    expect("oversized frame", r.code == codes::OVERSIZED, &r)?;

    let mut e = Client::connect(socket)?;
    e.send_truncated(100, b"only forty bytes of the declared hundred")?;
    let r = e.read_response()?;
    expect("truncated frame", r.code == codes::TRUNCATED, &r)?;
    out.push_str(
        "self-test: oversized/truncated/invalid-utf8/unknown-kind/malformed → codes 2/3/4/5/6\n",
    );

    // Deterministic logical deadline: a zero budget always loses to any
    // real work; a generous budget always wins — no wall clock anywhere.
    let mut d = Client::connect(socket)?;
    let r = d.request_with("check", SMOKE_PROGRAM, Some(0))?;
    expect(
        "deadline 0 → code 9",
        r.code == codes::DEADLINE_EXCEEDED,
        &r,
    )?;
    let r = d.request_with("check", SMOKE_PROGRAM, Some(10_000))?;
    expect(
        "generous deadline met with cost attached",
        r.code == codes::OK && r.cost.is_some(),
        &r,
    )?;
    out.push_str("self-test: deadline 0 → deadline-exceeded (code 9); generous deadline → ok\n");

    // Stale-while-revalidate + bounded retries: reset makes the memo
    // generation the stale pool; with the queue paused and full, a key
    // served since the last reset comes back `stale: true` while a
    // fresh key retries and finally sheds.
    let r = c.request("lint", SMOKE_PROGRAM)?;
    expect("stale seed", r.code == codes::OK, &r)?;
    let r = c.request("reset", "")?;
    expect("reset 2", r.code == codes::OK, &r)?;
    let r = c.request("pause", "")?;
    expect("pause 2", r.code == codes::OK, &r)?;
    let parked: Vec<_> = (2..4)
        .map(|i| {
            let socket = socket.to_path_buf();
            std::thread::spawn(move || {
                let mut pc = Client::connect(&socket)?;
                pc.request(
                    "check",
                    &format!("def fill{i}(x: int): int {{ x + {i} }}\n"),
                )
            })
        })
        .collect();
    wait_for_queue_depth(&mut c, 2)?;
    let mut s = Client::connect(socket)?;
    // Without the opt-in the stale pool is ignored and the full queue
    // sheds; with it the previous generation's answer comes back.
    let shed = s.request("lint", SMOKE_PROGRAM)?;
    expect(
        "no allow_stale → shed",
        shed.code == codes::OVERLOADED,
        &shed,
    )?;
    let stale = s.request_stale_ok("lint", SMOKE_PROGRAM)?;
    expect(
        "stale-while-revalidate",
        stale.code == codes::OK && stale.stale,
        &stale,
    )?;
    let policy = RetryPolicy {
        max_retries: 2,
        base_millis: 1,
        seed: 42,
    };
    let (r, retries) = s.request_with_retry(
        "check",
        "def fresh0(x: int): int { x + 99 }\n",
        None,
        policy,
    )?;
    expect(
        "bounded retries end in overloaded",
        r.code == codes::OVERLOADED && retries == policy.max_retries,
        &r,
    )?;
    let stats = c.request("stats", "")?;
    expect(
        "stale serve counted",
        stat_counter(&stats.output, "stale_served") == 1,
        &stats,
    )?;
    let r = c.request("resume", "")?;
    expect("resume 2", r.code == codes::OK, &r)?;
    for p in parked {
        let r = p
            .join()
            .map_err(|_| "parked client panicked".to_string())??;
        expect("parked client completes", r.code == codes::OK, &r)?;
    }
    out.push_str("self-test: stale → served stale: true under load; retries → bounded backoff\n");

    // Supervision: a body carrying the panic marker kills a worker, is
    // retried once on a fresh one, kills that too, and is quarantined
    // to a structured code 70 — and the daemon keeps serving.
    let mut q = Client::connect(socket)?;
    let r = q.request("check", &format!("{PANIC_MARKER}\n"))?;
    expect("quarantine → code 70", r.code == codes::ICE, &r)?;
    let stats = c.request("stats", "")?;
    expect(
        "two worker restarts counted",
        stat_counter(&stats.output, "worker_restarts") == 2,
        &stats,
    )?;
    expect(
        "one quarantine counted",
        stat_counter(&stats.output, "quarantined") == 1,
        &stats,
    )?;
    let r = q.request("check", SMOKE_PROGRAM)?;
    expect("daemon serves after crashes", r.code == codes::OK, &r)?;
    out.push_str(
        "self-test: worker panic ×2 → quarantined (code 70); supervisor restarted workers\n",
    );

    Ok(out)
}

/// Polls `stats` until `want` work requests have been enqueued since
/// the last reset (the paused queue is full).
fn wait_for_queue_depth(c: &mut Client, want: u64) -> Result<(), String> {
    for _ in 0..2000 {
        let r = c.request("stats", "")?;
        if stat_counter(&r.output, "work_requests") >= want {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    Err(format!("queue never reached depth {want}"))
}

/// Reads one counter out of a rendered stats document (0 when absent
/// or unparseable).
pub fn stat_counter(stats_output: &str, name: &str) -> u64 {
    let Some(doc) = fearless_trace::parse_json(stats_output) else {
        return 0;
    };
    doc.get("counters")
        .and_then(|c| c.get(name))
        .or_else(|| doc.get(name))
        .and_then(fearless_trace::Json::as_u64)
        .unwrap_or(0)
}
