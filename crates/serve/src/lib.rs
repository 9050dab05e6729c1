//! # fearless-serve
//!
//! The long-lived compiler-as-a-service daemon behind `fearlessc
//! serve` — the first half of the ROADMAP's "scale" item. A daemon
//! listens on a unix socket, speaks the length-prefixed JSON protocol
//! `fearless-serve/1` ([`protocol`]), keeps the incremental checker's
//! fingerprint cache hot in memory across requests (seeded from the
//! on-disk [`fearless_incr::disk::DiskCache`], appended to as it
//! changes and compacted on shutdown), and dispatches `check` / `lint` / `flow` / `profile`
//! requests through the existing batched driver.
//!
//! Three service-level behaviours distinguish a daemon from a CLI in a
//! loop, and each is deterministic by construction:
//!
//! * **Dedupe** ([`server`]): requests are keyed by
//!   `kind:fingerprint(body)`. A key seen before returns the memoized
//!   response; a key currently in flight parks the caller on the one
//!   computation. Identical request bodies therefore always yield
//!   byte-identical response bodies, and the *total* dedupe count for a
//!   workload of `R` requests with `D` distinct keys is exactly
//!   `R − D`, independent of scheduling. Only the memo-vs-coalesce
//!   split is timing-dependent, and it is reported under `_nondet`
//!   stats keys.
//! * **Load shedding**: the work queue is bounded. An arrival that
//!   finds it full gets an immediate structured `overloaded` response
//!   with a retry-after hint — counted, never a hang and never a
//!   dropped connection.
//! * **Drain on shutdown**: a `shutdown` request or `SIGTERM` stops
//!   admission, finishes every *in-flight* job, answers every still-
//!   queued job with a structured code 8 (`SHUTTING_DOWN`), persists
//!   the fingerprint cache once, and only then closes the socket.
//!
//! The *fearless-guard* layer adds supervision and recovery on top
//! (see `docs/GUARD.md`): workers run each request under
//! `catch_unwind` and are restarted by a supervisor when a request
//! panics (the request is retried once, then quarantined to a
//! memoized code 70); every fingerprint-cache change is appended to
//! the cache's checksummed record log before its response leaves, so a
//! `kill -9` loses at most in-flight entries and a restart replays the
//! log's journal into byte-identical responses; requests may carry a deterministic *logical* deadline
//! (`deadline_millis`, enforced against derivation-node cost, code 9)
//! and opt into stale-while-revalidate degradation (`allow_stale` →
//! `stale: true` answers from the previous memo generation instead of
//! shedding); and [`client::RetryPolicy`] gives clients bounded seeded
//! backoff honoring the server's `retry_after_millis` hint.
//!
//! [`client`] is the matching protocol client plus the `serve --once`
//! end-to-end self-test; [`mod@bench`] is the seeded `serve-bench` load
//! generator emitting a `fearless-obs/1` journal and a
//! bench-diff-gated `BENCH_serve.json`; [`report`] renders the
//! `report --serve` per-client table. See `docs/SERVE.md` for the
//! protocol grammar and the determinism contract.

#![warn(missing_docs)]

pub mod bench;
pub mod client;
pub mod protocol;
pub mod report;
pub mod server;

pub use bench::{run_bench, BenchOptions, BenchOutcome};
pub use client::{self_test, Client, RetryPolicy};
pub use protocol::{Request, Response};
pub use report::render_serve_report;
pub use server::{ServeOptions, Server};
