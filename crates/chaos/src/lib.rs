//! # fearless-chaos
//!
//! The deterministic fault-injection layer of the reproduction: if the
//! paper's claims are theorems, this crate is the adversary that tries
//! to falsify them cheaply, every CI run.
//!
//! Three attack surfaces, one determinism rule:
//!
//! * [`run::run_chaos`] — **adversarial schedules**. Every scheduling
//!   decision of the abstract machine (thread choice, preemption
//!   quantum, rendezvous delivery, sender/receiver pairing) is answered
//!   by a seeded [`schedule::ChaosSchedule`] filtered through a
//!   [`faults::FaultSpec`] (delay, reorder, drop-with-redelivery,
//!   preempt, contend). Oracles: zero reservation faults, zero
//!   domination-sanitizer violations, `efficient_disconnected` never
//!   disagreeing unsoundly with `naive_disconnected`
//!   ([`fearless_runtime::DisconnectStrategy::Differential`]), and
//!   per-thread results equal to the round-robin baseline (confluence).
//! * [`fuzz::run_fuzz`] — the **panic-free pipeline**. Grammar-aware
//!   token mutation of corpus programs plus raw byte soup, through
//!   lexer → parser → checker → runtime under `catch_unwind`; any
//!   escaping panic is an internal compiler error.
//! * [`cache_chaos::run_cache_drills`] — **crash-safe caching**.
//!   Truncation, bit flips, torn writes, schema drift injected into a
//!   saved `fearless-incr` cache; the recovered run must be
//!   byte-identical to a cold run, with the incident visible only in
//!   the `recoveries` stat.
//! * [`wire::run_wire_drills`] — **wire-level chaos** against the
//!   serve daemon: seeded socket faults (torn headers, split writes,
//!   garbage frames, connection slams) plus the guard drills (worker
//!   panics → quarantine, deterministic deadlines, stale-while-
//!   revalidate, bounded retries, and a simulated `kill -9` recovered
//!   through the cache log's journal), every seed under a watchdog.
//!
//! The determinism rule: every decision anywhere in this crate is a
//! function of an explicit seed. Identical seeds produce byte-identical
//! reports ([`run::ChaosReport::to_json`]), so every violation ships
//! with its own reproducer.

#![warn(missing_docs)]

pub mod cache_chaos;
pub mod faults;
pub mod fuzz;
pub mod run;
pub mod scenario;
pub mod schedule;
pub mod wire;

pub use cache_chaos::{
    inject_corruption, run_cache_drills, run_concurrency_drill, ConcurrencyOutcome, DrillOutcome,
    CORRUPTIONS,
};
pub use faults::FaultSpec;
pub use fuzz::{mutate_source, run_fuzz, FuzzReport};
pub use run::{run_chaos, run_source_chaos, ChaosOptions, ChaosReport, ScenarioReport};
pub use scenario::{all_scenarios, Scenario, Spawn};
pub use schedule::ChaosSchedule;
pub use wire::{run_wire_drill, run_wire_drills, WireDrillReport, WireSeedOutcome, WIRE_FAULTS};
