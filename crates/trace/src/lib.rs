//! `fearless-trace` — zero-cost-when-disabled instrumentation and the
//! deterministic telemetry rendered from it.
//!
//! The checker's virtual-transformation search and the runtime machine
//! both have performance stories the paper argues for (§5.1 greedy
//! search with a liveness oracle; §6 cheap `if disconnected`). This
//! crate makes them observable without taxing the common case:
//!
//! * [`TraceSink`] — the receiver trait: spans, counters, point events.
//! * [`Tracer`] — the handle instrumented code carries; when no sink is
//!   attached every call is an inlined untaken branch.
//! * [`MemorySink`] — the standard collector, serializing to
//!   deterministic JSON (schema `fearless-trace/1`).
//! * [`NoopSink`] — discards everything; used by parity tests to prove
//!   attaching a sink is observation-only.
//! * [`Json`] and [`parse_json`] — the hand-rolled JSON tree every
//!   document renders through (no external deps, byte-stable), and the
//!   reader that inverts it.
//!
//! On top of the collected spans it renders the documents that make the
//! numbers operable:
//!
//! * [`Journal`] — a structured event journal (schema `fearless-obs/1`)
//!   stamped with a monotonic logical clock: definition-order sequence
//!   for checking, scheduler step for the runtime. Byte-identical
//!   across cold/warm/serial/parallel runs, so CI diffs it verbatim.
//! * [`Histogram`] / [`HistogramSet`] — log-bucketed (powers-of-two)
//!   distributions over deterministic work units, with an associative
//!   merge so per-worker shards fold into one byte-stable aggregate.
//! * [`perfetto`] — a Chrome trace-event exporter (`--trace-out`):
//!   one lane per pipeline phase, one lane per runtime machine, logical
//!   time mapped to microseconds. Loadable in `ui.perfetto.dev`.
//! * [`diff`] — the `fearlessc bench-diff` regression differ over
//!   BENCH_*.json counter documents, plus the `_nondet` stripper the
//!   CI determinism gate uses.
//!
//! Everything rendered here is wall-clock-free by construction: wall
//! times only ever appear under keys tagged with the
//! [`diff::NONDET_SUFFIX`] convention, and the differ and stripper
//! treat those as informational.

#![warn(missing_docs)]

pub mod diff;
pub mod hist;
pub mod journal;
mod json;
mod metrics;
pub mod perfetto;
mod sink;

pub use diff::{bench_diff, strip_nondet, DiffReport, Verdict};
pub use hist::{bucket_hi, bucket_index, bucket_lo, Histogram, HistogramSet};
pub use journal::{Journal, JournalEntry};
pub use json::{escape, parse_json, Json, MAX_DEPTH};
pub use metrics::{EventRecord, MemorySink, ScopeMetrics};
pub use sink::{NoopSink, TraceSink, Tracer};
