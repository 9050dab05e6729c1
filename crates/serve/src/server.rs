//! The daemon: a unix-socket accept loop over a bounded work queue, a
//! fixed worker pool, a response memo keyed by content fingerprint, and
//! the in-memory fingerprint cache seeded from (and written back to)
//! the on-disk [`DiskCache`].
//!
//! ## Dedupe
//!
//! Work requests are keyed by `kind:fnv64(body)`. A key that already
//! has a completed response replays it from the memo; a key that is
//! in flight parks the new client on the first derivation's waiter
//! list. Both count as `dedupe_hits` — for a fixed request multiset the
//! total is deterministic (`requests − distinct keys`) even though the
//! memo/coalesce split depends on scheduling.
//!
//! ## Load shedding
//!
//! The queue is bounded. A work request that finds the queue full is
//! answered immediately with an `overloaded` response carrying a
//! retry-after hint — counted, never enqueued, never a hang.
//!
//! ## Shutdown
//!
//! A `shutdown` request (or SIGTERM) stops admission, rejects every
//! *queued* job with a structured code 8, finishes all in-flight work,
//! writes the fingerprint cache back to disk, and only then replies /
//! returns.
//!
//! ## Supervision (`fearless-guard`)
//!
//! Each worker runs requests under `catch_unwind`. A panic kills the
//! worker *incarnation*: the supervisor restarts it (counted as
//! `worker_restarts`) and the offending job is retried once on a fresh
//! worker. A job that kills two workers is *quarantined*: its key is
//! memoized to a structured code-70 response so it can never take the
//! daemon down again (`quarantined` counter). Because panics are
//! deterministic in the request body, so are both counters.
//!
//! ## Crash recovery
//!
//! With a persistent cache directory, the fingerprint-cache records a
//! job changed are appended to the cache's own record log
//! ([`fearless_incr::disk`]) *before* the response leaves the daemon.
//! A SIGKILL therefore loses at most in-flight entries; on restart the
//! ordinary load replays the log's journal (counted as `wal_replayed`),
//! and the drain compacts it. A directory without a usable log gets an
//! empty snapshot at startup, so every later write is an append. Cache
//! warmth never changes response bytes, so post-crash responses are
//! byte-identical to an uninterrupted run — the chaos drill pins this.

use std::collections::{BTreeMap, VecDeque};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use fearless_core::CheckerOptions;
use fearless_incr::disk::checksum_hex;
use fearless_incr::{DiskCache, LoadOutcome};
use fearless_trace::{HistogramSet, Json, MemorySink, TraceSink, Tracer};

use crate::protocol::{self, codes, Frame, Request, Response};

/// Schema tag of the `stats` response payload.
pub const STATS_SCHEMA: &str = "fearless-serve-stats/1";

/// Conversion rate for the deterministic logical deadline: a
/// `deadline_millis` budget of `d` admits work costing at most
/// `d × DEADLINE_NODES_PER_MILLI` derivation nodes. Logical cost, not
/// wall clock, so the same request always hits (or always misses) its
/// deadline on every machine.
pub const DEADLINE_NODES_PER_MILLI: u64 = 1000;

/// Request bodies containing this marker panic inside the worker when
/// [`ServeOptions::inject_faults`] is on — the chaos drills' driver for
/// deterministic worker-crash injection.
pub const PANIC_MARKER: &str = "fearless-guard: inject-panic";

/// Request bodies containing this marker stall the worker ~250ms before
/// computing when [`ServeOptions::inject_faults`] is on — the drills'
/// way of pinning a job in-flight while a signal races the accept loop.
pub const STALL_MARKER: &str = "fearless-guard: inject-stall";

/// Daemon configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Unix socket path to listen on.
    pub socket: PathBuf,
    /// Worker threads executing queued work.
    pub workers: usize,
    /// Bound on the work queue; a full queue sheds.
    pub queue_capacity: usize,
    /// Persistent fingerprint-cache directory (`None`: in-memory only).
    pub cache_dir: Option<PathBuf>,
    /// Backoff hint stamped on `overloaded` responses.
    pub retry_after_millis: u64,
    /// When true, request bodies containing [`PANIC_MARKER`] panic in
    /// the worker — the deterministic fault injection the chaos drills
    /// and the self-test use to exercise supervision. Off by default.
    pub inject_faults: bool,
}

impl ServeOptions {
    /// Defaults for a given socket path: 2 workers, queue of 16,
    /// ephemeral cache, 25 ms retry hint, no fault injection.
    pub fn new(socket: impl Into<PathBuf>) -> ServeOptions {
        ServeOptions {
            socket: socket.into(),
            workers: 2,
            queue_capacity: 16,
            cache_dir: None,
            retry_after_millis: 25,
            inject_faults: false,
        }
    }
}

/// Service counters, all monotonic within a `reset` window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Work requests admitted to dispatch (check/lint/flow/profile).
    pub work_requests: u64,
    /// Control requests (ping/stats/pause/resume/reset/shutdown).
    pub control_requests: u64,
    /// Work requests answered from the memo or coalesced onto an
    /// in-flight derivation (`memo_hits + coalesced`).
    pub dedupe_hits: u64,
    /// Dedupe hits replayed from the completed-response memo.
    pub memo_hits: u64,
    /// Dedupe hits parked on an in-flight derivation.
    pub coalesced: u64,
    /// Work requests answered `overloaded` (queue full).
    pub shed: u64,
    /// Work requests answered after the drain began.
    pub rejected_draining: u64,
    /// Derivations actually executed (distinct keys computed).
    pub computed: u64,
    /// Work responses with code 0.
    pub responses_ok: u64,
    /// Work responses with code 1 (diagnostics).
    pub responses_diag: u64,
    /// Responses with code 70 (a panic caught at the ICE boundary).
    pub ice_responses: u64,
    /// Structured protocol-error responses (codes 2–6).
    pub protocol_errors: u64,
    /// Worker incarnations restarted by the supervisor after a panic.
    pub worker_restarts: u64,
    /// Requests quarantined after killing two workers (memoized to a
    /// code-70 response).
    pub quarantined: u64,
    /// Work responses answered `stale: true` from the previous memo
    /// generation instead of shedding.
    pub stale_served: u64,
    /// Work requests whose logical cost exceeded their
    /// `deadline_millis` budget (code 9).
    pub deadline_exceeded: u64,
}

struct Job {
    key: String,
    kind: String,
    body: Arc<String>,
}

struct State {
    queue: VecDeque<Job>,
    /// The response channels parked on each queued or in-flight key; its
    /// key set is the set of keys being computed.
    waiters: BTreeMap<String, Vec<Sender<Arc<Response>>>>,
    memo: BTreeMap<String, Arc<Response>>,
    /// The previous memo generation, kept across `reset` — the
    /// stale-while-revalidate degrade pool: a shed-bound request whose
    /// key is here and that set `allow_stale` is answered `stale: true`
    /// instead of `overloaded`.
    stale_memo: BTreeMap<String, Arc<Response>>,
    /// Per-key worker-crash counts driving retry-then-quarantine.
    crashes: BTreeMap<String, u32>,
    paused: bool,
    draining: bool,
    counters: Counters,
    hists: HistogramSet,
}

struct Shared {
    opts: ServeOptions,
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    cache: Mutex<DiskCache>,
    /// Cache records written at the durability point this run
    /// (warmth-dependent: a warm cache writes nothing).
    wal_appends: AtomicU64,
    /// Journal records the cache load replayed at startup (the
    /// signature of recovering from a crash).
    wal_replayed: u64,
    stop_accept: AtomicBool,
    saved: AtomicBool,
}

/// Set by the SIGTERM handler; the accept loop treats it exactly like a
/// `shutdown` request.
static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

type SigHandler = extern "C" fn(i32);

extern "C" {
    fn signal(signum: i32, handler: SigHandler) -> usize;
}

extern "C" fn on_sigterm(_signum: i32) {
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

const SIGTERM: i32 = 15;

/// Installs the SIGTERM → graceful-drain handler (async-signal-safe:
/// the handler only stores to an atomic the accept loop polls).
pub fn install_sigterm() {
    // SAFETY: `signal(2)` with a handler that performs a single atomic
    // store, which is async-signal-safe.
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

/// A running daemon bound to its socket.
pub struct Server {
    shared: Arc<Shared>,
    listener: UnixListener,
}

/// An in-process daemon running on a background thread (tests,
/// `serve --once`, and `serve-bench --spawn`).
pub struct SpawnedServer {
    /// The daemon's shared state (for [`Server::run`]'s return value).
    handle: std::thread::JoinHandle<Result<String, String>>,
    shared: Arc<Shared>,
}

impl SpawnedServer {
    /// Requests a drain (as SIGTERM would) and joins the daemon,
    /// returning its summary.
    ///
    /// # Errors
    ///
    /// Propagates the daemon's error, or reports a panicked thread.
    pub fn shutdown_and_join(self) -> Result<String, String> {
        self.shared.stop_accept.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .map_err(|_| "serve thread panicked".to_string())?
    }
}

impl Server {
    /// Binds the socket (replacing a stale socket file) and loads the
    /// fingerprint cache.
    ///
    /// # Errors
    ///
    /// Reports a socket that cannot be bound.
    pub fn bind(opts: ServeOptions) -> Result<Server, String> {
        let _ = std::fs::remove_file(&opts.socket);
        let listener = UnixListener::bind(&opts.socket)
            .map_err(|e| format!("cannot bind `{}`: {e}", opts.socket.display()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set nonblocking: {e}"))?;
        let cache = match &opts.cache_dir {
            Some(dir) => DiskCache::load(dir),
            None => DiskCache::ephemeral(),
        };
        // Crash recovery is the load itself: it replays the log's
        // journal. Without a usable log, write an empty snapshot now so
        // each job's records reach the file as appends. A write that
        // fails degrades to compacting at the durability point.
        if cache.load_outcome() != LoadOutcome::Warm {
            let _ = cache.compact();
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                waiters: BTreeMap::new(),
                memo: BTreeMap::new(),
                stale_memo: BTreeMap::new(),
                crashes: BTreeMap::new(),
                paused: false,
                draining: false,
                counters: Counters::default(),
                hists: HistogramSet::new(),
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            wal_replayed: cache.replayed() as u64,
            cache: Mutex::new(cache),
            wal_appends: AtomicU64::new(0),
            stop_accept: AtomicBool::new(false),
            saved: AtomicBool::new(false),
            opts,
        });
        Ok(Server { shared, listener })
    }

    /// Binds and runs the daemon on a background thread, returning once
    /// the socket accepts connections.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(opts: ServeOptions) -> Result<SpawnedServer, String> {
        let server = Server::bind(opts)?;
        let shared = Arc::clone(&server.shared);
        let handle = std::thread::spawn(move || server.run());
        // The listener exists before the thread starts; a connect can
        // only race the accept loop, which is fine (it queues).
        Ok(SpawnedServer { handle, shared })
    }

    /// Runs the accept loop until a `shutdown` request or SIGTERM, then
    /// drains in-flight work, writes the cache back, and returns a
    /// summary line.
    ///
    /// # Errors
    ///
    /// Propagates cache write-back failures.
    pub fn run(self) -> Result<String, String> {
        let workers: Vec<_> = (0..self.shared.opts.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || supervised_worker(&shared))
            })
            .collect();
        loop {
            // `swap` *consumes* the signal: a supervisor restarting a
            // daemon in the same process gets a fresh flag.
            if TERM_REQUESTED.swap(false, Ordering::SeqCst)
                || self.shared.stop_accept.load(Ordering::SeqCst)
            {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || handle_connection(&shared, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("accept: {e}")),
            }
        }
        // Drain: stop admitting, finish the queue and in-flight work.
        drain(&self.shared);
        for w in workers {
            let _ = w.join();
        }
        save_cache_once(&self.shared)?;
        let st = lock_state(&self.shared);
        let c = st.counters;
        let cache_entries = self.shared.cache.lock().map(|c| c.len()).unwrap_or(0);
        drop(st);
        let _ = std::fs::remove_file(&self.shared.opts.socket);
        Ok(format!(
            "serve: drained and stopped; {} work request(s), {} dedupe hit(s), {} shed, {} \
             derivation(s) computed, {} cache entr(ies) persisted\n",
            c.work_requests, c.dedupe_hits, c.shed, c.computed, cache_entries
        ))
    }
}

fn lock_state(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Marks the drain, rejects every *queued* job with a structured code
/// 8, wakes everyone, and blocks until in-flight work is empty.
fn drain(shared: &Shared) {
    let mut st = lock_state(shared);
    st.draining = true;
    st.paused = false;
    reject_queued(shared, &mut st);
    shared.work_cv.notify_all();
    while !st.waiters.is_empty() {
        st = shared.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
}

/// Empties the work queue, answering every parked waiter with code 8
/// (`rejected_draining` counts them). In-flight jobs — already popped
/// by a worker — are untouched and will complete.
fn reject_queued(shared: &Shared, st: &mut State) {
    if st.queue.is_empty() {
        return;
    }
    let r = Arc::new(Response::error(
        codes::SHUTTING_DOWN,
        "daemon is draining for shutdown; queued request rejected",
    ));
    while let Some(job) = st.queue.pop_front() {
        st.counters.rejected_draining += 1;
        for tx in st.waiters.remove(&job.key).unwrap_or_default() {
            let _ = tx.send(Arc::clone(&r));
        }
    }
    shared.done_cv.notify_all();
}

/// Writes the fingerprint cache back exactly once (the `shutdown`
/// request and the accept loop's exit path both call this) as a
/// compacted snapshot, so the next daemon replays no journal.
fn save_cache_once(shared: &Shared) -> Result<(), String> {
    if shared.saved.swap(true, Ordering::SeqCst) {
        return Ok(());
    }
    shared
        .cache
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .compact()
}

/// How one worker incarnation ended.
enum WorkerExit {
    /// The drain completed; the worker retires for good.
    Drained,
    /// A panic escaped a job — the incarnation is dead and the
    /// supervisor must start a fresh one.
    Died,
}

/// The supervisor: restarts a worker incarnation every time a panic
/// kills one (`worker_restarts` is counted in [`handle_worker_crash`],
/// under the lock, so stats observed after a quarantine response never
/// race the restart); retires only on drain.
fn supervised_worker(shared: &Shared) {
    loop {
        match worker_loop(shared) {
            WorkerExit::Drained => return,
            WorkerExit::Died => {}
        }
    }
}

fn worker_loop(shared: &Shared) -> WorkerExit {
    loop {
        let job = {
            let mut st = lock_state(shared);
            loop {
                if st.draining && st.queue.is_empty() {
                    return WorkerExit::Drained;
                }
                if !st.paused || st.draining {
                    if let Some(job) = st.queue.pop_front() {
                        break job;
                    }
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let kind = job.kind.clone();
        let body = Arc::clone(&job.body);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            compute(&kind, &body, shared)
        }));
        let response = match outcome {
            Ok(r) => Arc::new(r),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic".to_string());
                handle_worker_crash(shared, job, &msg);
                return WorkerExit::Died;
            }
        };
        // Durability point: the cache log append happens before any
        // waiter sees the response, so a response a client observed is
        // never lost to a crash (at most re-derived identically).
        save_dirty(shared);
        let waiters = {
            let mut st = lock_state(shared);
            st.memo.insert(job.key.clone(), Arc::clone(&response));
            st.counters.computed += 1;
            let waiters = st.waiters.remove(&job.key).unwrap_or_default();
            shared.done_cv.notify_all();
            waiters
        };
        for tx in waiters {
            let _ = tx.send(Arc::clone(&response));
        }
    }
}

/// The supervision policy for a job whose compute panicked: the first
/// crash re-queues it at the front (one retry on a fresh worker); the
/// second quarantines it — the key is memoized to a structured code-70
/// response so every future identical request answers instantly and no
/// worker ever touches the body again.
fn handle_worker_crash(shared: &Shared, job: Job, msg: &str) {
    let mut st = lock_state(shared);
    // The incarnation is dead; the supervisor will start a fresh one.
    st.counters.worker_restarts += 1;
    let count = {
        let c = st.crashes.entry(job.key.clone()).or_insert(0);
        *c += 1;
        *c
    };
    if count < 2 {
        st.queue.push_front(job);
        shared.work_cv.notify_one();
        return;
    }
    let response = Arc::new(Response::error(
        codes::ICE,
        format!("internal error: request quarantined after {count} worker crash(es): {msg}"),
    ));
    st.memo.insert(job.key.clone(), Arc::clone(&response));
    st.counters.quarantined += 1;
    let waiters = st.waiters.remove(&job.key).unwrap_or_default();
    shared.done_cv.notify_all();
    drop(st);
    for tx in waiters {
        let _ = tx.send(Arc::clone(&response));
    }
}

/// Saves the cache records the job changed to the cache's log (no-op
/// for ephemeral caches and for jobs that changed nothing).
fn save_dirty(shared: &Shared) {
    if shared.opts.cache_dir.is_none() {
        return;
    }
    let cache = shared.cache.lock().unwrap_or_else(|e| e.into_inner());
    let dirty = cache.dirty() as u64;
    if dirty > 0 && cache.save().is_ok() {
        shared.wal_appends.fetch_add(dirty, Ordering::SeqCst);
    }
}

/// The actual pipelines. Every output here is deterministic in the
/// request body alone — the determinism contract `docs/SERVE.md` pins —
/// because the underlying drivers are (cache warmth never shows in
/// `check` output, and `profile` runs without wall clock). Successful
/// responses carry their logical cost in derivation nodes (the basis
/// of the deterministic deadline); diagnostics carry none and are
/// therefore never deadline-rejected.
fn compute(kind: &str, src: &str, shared: &Shared) -> Response {
    if shared.opts.inject_faults && src.contains(PANIC_MARKER) {
        panic!("injected worker fault ({PANIC_MARKER})");
    }
    if shared.opts.inject_faults && src.contains(STALL_MARKER) {
        std::thread::sleep(Duration::from_millis(250));
    }
    let opts = CheckerOptions::default();
    match kind {
        "check" => {
            let program = match fearless_syntax::parse_program(src) {
                Ok(p) => p,
                Err(e) => return Response::error(codes::DIAGNOSTIC, e.render(src)),
            };
            let units = vec![(String::new(), program)];
            let mut cache = shared.cache.lock().unwrap_or_else(|e| e.into_inner());
            let run =
                fearless_incr::check_units(&units, &opts, 1, Some(&mut cache), &mut Tracer::off());
            drop(cache);
            match run.units[0].first_error() {
                Some(e) => Response::error(codes::DIAGNOSTIC, e.render(src)),
                None => {
                    let mut r = Response::ok(format!(
                        "ok: {} function(s), {} derivation nodes, {} virtual transformations\n",
                        run.units[0].functions.len(),
                        run.units[0].total_nodes(),
                        run.units[0].total_vir_steps()
                    ));
                    r.cost = Some(run.units[0].total_nodes());
                    r
                }
            }
        }
        "lint" => {
            let checked = match fearless_core::check_source(src, &opts) {
                Ok(c) => c,
                Err(e) => return Response::error(codes::DIAGNOSTIC, e.render(src)),
            };
            match fearless_analyze::analyze_program(&checked) {
                Ok(report) => {
                    let mut r = Response::ok(report.to_json(src));
                    r.cost = Some(checked.total_nodes() as u64);
                    r
                }
                Err(msg) => Response::error(codes::DIAGNOSTIC, msg),
            }
        }
        "flow" => {
            let checked = match fearless_core::check_source(src, &opts) {
                Ok(c) => c,
                Err(e) => return Response::error(codes::DIAGNOSTIC, e.render(src)),
            };
            match fearless_flow::analyze_checked(&checked) {
                Ok(flow) => {
                    let mut out = flow.to_json();
                    out.push('\n');
                    let mut r = Response::ok(out);
                    r.cost = Some(checked.total_nodes() as u64);
                    r
                }
                Err(e) => Response::error(codes::DIAGNOSTIC, e.to_string()),
            }
        }
        "profile" => {
            let mut sink = MemorySink::new();
            sink.span_enter("parse", "program");
            let parsed = fearless_syntax::parse_program(src);
            sink.span_exit();
            let program = match parsed {
                Ok(p) => p,
                Err(e) => return Response::error(codes::DIAGNOSTIC, e.render(src)),
            };
            let units = vec![(String::new(), program)];
            let run =
                fearless_incr::check_units(&units, &opts, 1, None, &mut Tracer::new(&mut sink));
            if let Some(e) = run.units[0].first_error() {
                return Response::error(codes::DIAGNOSTIC, e.render(src));
            }
            // Logical counters only: no wall clock, so identical bodies
            // yield byte-identical profiles.
            let mut r = Response::ok(sink.to_json_value_opts(false).render());
            r.cost = Some(run.units[0].total_nodes());
            r
        }
        other => Response::error(codes::UNKNOWN_KIND, format!("unknown work kind `{other}`")),
    }
}

fn handle_connection(shared: &Shared, mut stream: UnixStream) {
    loop {
        match protocol::read_frame(&mut stream, protocol::MAX_FRAME) {
            Ok(Frame::Eof) => return,
            Ok(Frame::Oversized(len)) => {
                // The stream is desynchronized: answer and hang up.
                note_protocol_error(shared);
                let r = Response::error(
                    codes::OVERSIZED,
                    format!(
                        "frame of {len} bytes exceeds the {}-byte limit",
                        protocol::MAX_FRAME
                    ),
                );
                let _ = protocol::write_frame(&mut stream, r.to_json().as_bytes());
                return;
            }
            Ok(Frame::Truncated) => {
                // The peer may have shut down only its write half; the
                // structured response still goes out before we close.
                note_protocol_error(shared);
                let r = Response::error(codes::TRUNCATED, "stream ended mid-frame");
                let _ = protocol::write_frame(&mut stream, r.to_json().as_bytes());
                return;
            }
            Ok(Frame::Body(bytes)) => {
                let response = match protocol::parse_request(&bytes) {
                    Ok(req) => respond(shared, &req),
                    Err((code, msg)) => {
                        note_protocol_error(shared);
                        Response::error(code, msg)
                    }
                };
                if protocol::write_frame(&mut stream, response.to_json().as_bytes()).is_err() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn note_protocol_error(shared: &Shared) {
    lock_state(shared).counters.protocol_errors += 1;
}

fn respond(shared: &Shared, req: &Request) -> Response {
    if protocol::WORK_KINDS.contains(&req.kind.as_str()) {
        return dispatch_work(shared, req);
    }
    let mut st = lock_state(shared);
    st.counters.control_requests += 1;
    match req.kind.as_str() {
        "ping" => Response::ok("pong"),
        "pause" => {
            st.paused = true;
            Response::ok("paused")
        }
        "resume" => {
            st.paused = false;
            shared.work_cv.notify_all();
            Response::ok("resumed")
        }
        "reset" => {
            // Bench hygiene: clear the response memo, counters, and
            // histograms so two identically-seeded load runs observe
            // identical deterministic counters. The fingerprint cache
            // deliberately stays hot — it never changes response bytes.
            // The outgoing memo generation replaces the stale pool: a
            // later shed-bound request for one of these keys is served
            // `stale: true` instead of `overloaded`.
            st.stale_memo = std::mem::take(&mut st.memo);
            st.crashes.clear();
            st.counters = Counters::default();
            st.hists = HistogramSet::new();
            Response::ok("reset")
        }
        "stats" => {
            let doc = stats_doc(shared, &st);
            Response::ok(doc.render())
        }
        "shutdown" => {
            drop(st);
            drain(shared);
            let computed = lock_state(shared).counters.computed;
            let save = save_cache_once(shared);
            shared.stop_accept.store(true, Ordering::SeqCst);
            match save {
                Ok(()) => Response::ok(format!(
                    "shutdown: drained ({computed} derivation(s) computed); cache persisted\n"
                )),
                Err(e) => Response::error(codes::ICE, format!("cache write-back failed: {e}")),
            }
        }
        other => Response::error(
            codes::UNKNOWN_KIND,
            format!("unknown control kind `{other}`"),
        ),
    }
}

/// The `stats` payload: deterministic counters under plain keys,
/// scheduling-dependent ones under `_nondet` keys (the same convention
/// the BENCH documents use), plus the service histograms.
fn stats_doc(shared: &Shared, st: &State) -> Json {
    let c = &st.counters;
    let cache_entries = shared.cache.lock().map(|c| c.len() as u64).unwrap_or(0);
    Json::obj([
        ("schema", Json::str(STATS_SCHEMA)),
        ("workers", Json::U64(shared.opts.workers as u64)),
        (
            "queue_capacity",
            Json::U64(shared.opts.queue_capacity as u64),
        ),
        ("cache_entries", Json::U64(cache_entries)),
        (
            "counters",
            Json::obj([
                ("work_requests", Json::U64(c.work_requests)),
                ("dedupe_hits", Json::U64(c.dedupe_hits)),
                ("memo_hits_nondet", Json::U64(c.memo_hits)),
                ("coalesced_nondet", Json::U64(c.coalesced)),
                ("shed", Json::U64(c.shed)),
                ("rejected_draining", Json::U64(c.rejected_draining)),
                ("computed", Json::U64(c.computed)),
                ("responses_ok", Json::U64(c.responses_ok)),
                ("responses_diag", Json::U64(c.responses_diag)),
                ("ice_responses", Json::U64(c.ice_responses)),
                ("protocol_errors", Json::U64(c.protocol_errors)),
                ("control_requests_nondet", Json::U64(c.control_requests)),
                ("worker_restarts", Json::U64(c.worker_restarts)),
                ("quarantined", Json::U64(c.quarantined)),
                ("stale_served", Json::U64(c.stale_served)),
                ("deadline_exceeded", Json::U64(c.deadline_exceeded)),
                ("wal_replayed", Json::U64(shared.wal_replayed)),
                (
                    "wal_appends_nondet",
                    Json::U64(shared.wal_appends.load(Ordering::SeqCst)),
                ),
            ]),
        ),
        ("queue_len_nondet", Json::U64(st.queue.len() as u64)),
        ("inflight_nondet", Json::U64(st.waiters.len() as u64)),
        ("histograms", st.hists.to_json_value()),
    ])
}

/// The deterministic deadline check: a work response whose logical
/// cost exceeds the request's budget is replaced by a code-9 error.
/// Responses without a cost (diagnostics, protocol errors) never
/// deadline-exceed.
fn deadline_verdict(req: &Request, r: &Response) -> Option<Response> {
    let (Some(deadline), Some(cost)) = (req.deadline_millis, r.cost) else {
        return None;
    };
    let budget = deadline.saturating_mul(DEADLINE_NODES_PER_MILLI);
    if cost <= budget {
        return None;
    }
    Some(Response::error(
        codes::DEADLINE_EXCEEDED,
        format!(
            "deadline-exceeded: cost {cost} derivation node(s) over a budget of {deadline} ms \
             × {DEADLINE_NODES_PER_MILLI} node(s)/ms"
        ),
    ))
}

fn dispatch_work(shared: &Shared, req: &Request) -> Response {
    let key = format!("{}:{}", req.kind, checksum_hex(&req.body));
    let (tx, rx) = channel();
    let parked = {
        let mut st = lock_state(shared);
        st.counters.work_requests += 1;
        if let Some(r) = st.memo.get(&key) {
            let r = Arc::clone(r);
            st.counters.dedupe_hits += 1;
            st.counters.memo_hits += 1;
            if let Some(exceeded) = deadline_verdict(req, &r) {
                st.counters.deadline_exceeded += 1;
                return exceeded;
            }
            finish_work(&mut st, &r);
            return (*r).clone();
        }
        if let Some(waiters) = st.waiters.get_mut(&key) {
            waiters.push(tx);
            st.counters.dedupe_hits += 1;
            st.counters.coalesced += 1;
            true
        } else if st.draining {
            st.counters.rejected_draining += 1;
            return Response::error(codes::SHUTTING_DOWN, "daemon is draining for shutdown");
        } else if st.queue.len() >= shared.opts.queue_capacity {
            // Stale-while-revalidate: when the client opted in with
            // `allow_stale`, a result from the previous memo generation
            // beats shedding — serve it marked `stale: true` instead of
            // turning the client away.
            if let Some(r) = st.stale_memo.get(&key).filter(|_| req.allow_stale) {
                let mut stale = (**r).clone();
                stale.stale = true;
                st.counters.stale_served += 1;
                if let Some(exceeded) = deadline_verdict(req, &stale) {
                    st.counters.deadline_exceeded += 1;
                    return exceeded;
                }
                finish_work(&mut st, &stale);
                return stale;
            }
            st.counters.shed += 1;
            return Response::overloaded(shared.opts.retry_after_millis);
        } else {
            st.waiters.insert(key.clone(), vec![tx]);
            st.queue.push_back(Job {
                key: key.clone(),
                kind: req.kind.clone(),
                body: Arc::new(req.body.clone()),
            });
            let depth = st.queue.len() as u64;
            st.hists.record("serve.queue_depth_nondet", depth);
            shared.work_cv.notify_one();
            true
        }
    };
    debug_assert!(parked);
    match rx.recv() {
        Ok(r) => {
            let mut st = lock_state(shared);
            if let Some(exceeded) = deadline_verdict(req, &r) {
                st.counters.deadline_exceeded += 1;
                return exceeded;
            }
            finish_work(&mut st, &r);
            (*r).clone()
        }
        Err(_) => Response::error(codes::ICE, "internal error: worker disappeared"),
    }
}

/// Books a completed work response into the counters and the
/// (deterministic) response-size histogram.
fn finish_work(st: &mut State, r: &Response) {
    match r.code {
        codes::OK => st.counters.responses_ok += 1,
        codes::DIAGNOSTIC => st.counters.responses_diag += 1,
        codes::ICE => st.counters.ice_responses += 1,
        _ => {}
    }
    st.hists
        .record("serve.response_bytes", r.output.len() as u64);
}
