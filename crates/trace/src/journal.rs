//! The structured event journal (schema `fearless-obs/1`).
//!
//! A journal is a flat sequence of entries, each stamped with a
//! **monotonic logical clock**:
//!
//! * **Checking**: the clock is the definition-order sequence number of
//!   the unit's span. `fearless_incr::check_units` replays spans in
//!   definition order no matter how the work was scheduled, so the
//!   journal is byte-identical across cold/warm/serial/parallel runs.
//!   Cache bookkeeping spans (`cache`, `cache_recovery`) are the only
//!   warmth-dependent scopes and are excluded by construction, as are
//!   `cache.*` counters.
//! * **Runtime**: the clock is the scheduler step at which the event
//!   fired, read from the `step` field the machine stamps on every
//!   emitted event. The same program under the same schedule takes the
//!   same steps, so runtime journals are equally reproducible. The
//!   runtime journal is built by `fearless_runtime::run_journal`,
//!   beside the per-machine lanes it closes with.
//!
//! Alongside the entries, the journal accumulates the log-bucketed
//! [`HistogramSet`] distributions over the same deterministic work
//! units, so one document answers both "what happened, in order" and
//! "how was the work distributed".

use std::collections::BTreeMap;

use crate::hist::HistogramSet;
use crate::{EventRecord, Json, MemorySink};

/// Schema identifier written into every journal document.
pub const SCHEMA: &str = "fearless-obs/1";

/// Span phases that depend on cache warmth and are excluded from the
/// byte-diffed journal.
const WARMTH_PHASES: &[&str] = &["cache", "cache_recovery"];

/// One journal entry: an event at a logical instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Logical clock: definition-order sequence (checking) or scheduler
    /// step (runtime).
    pub clock: u64,
    /// Coarse stage (`"parse"`, `"check"`, `"run"`, `"lane"`, …).
    pub phase: String,
    /// Unit of work (function name, entry point, machine id).
    pub name: String,
    /// Event kind (`"span"`, `"message"`, `"disconnect"`, `"lane"`, …).
    pub event: String,
    /// Integer payload, sorted by field name.
    pub fields: Vec<(String, u64)>,
}

impl JournalEntry {
    /// The entry for one recorded point event, its payload sorted by
    /// field name.
    pub fn event(clock: u64, phase: &str, name: &str, event: &EventRecord) -> JournalEntry {
        let fields: BTreeMap<&str, u64> = event.fields.iter().map(|(k, v)| (*k, *v)).collect();
        JournalEntry {
            clock,
            phase: phase.to_string(),
            name: name.to_string(),
            event: event.name.to_string(),
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    fn to_json_value(&self) -> Json {
        Json::obj([
            ("clock", Json::U64(self.clock)),
            ("phase", Json::str(&self.phase)),
            ("name", Json::str(&self.name)),
            ("event", Json::str(&self.event)),
            (
                "fields",
                Json::Obj(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::U64(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A deterministic event journal plus its histogram aggregate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Journal {
    /// Which pipeline produced this journal (`"check"` or `"run"`).
    pub source: String,
    /// Entries in logical-clock order.
    pub entries: Vec<JournalEntry>,
    /// Distributions over the same work units.
    pub histograms: HistogramSet,
}

impl Journal {
    /// Builds the checking journal from a collected [`MemorySink`].
    ///
    /// One `"span"` entry per unit span, clocked by definition-order
    /// sequence; the span's point events follow at the same clock.
    /// Warmth-dependent scopes and counters are skipped so cold and
    /// warm runs emit identical bytes.
    pub fn from_check_sink(sink: &MemorySink) -> Journal {
        let mut journal = Journal {
            source: "check".to_string(),
            ..Journal::default()
        };
        let mut clock = 0u64;
        for span in sink.spans() {
            if WARMTH_PHASES.contains(&span.phase.as_str()) {
                continue;
            }
            let mut fields: Vec<(String, u64)> = Vec::new();
            for (counter, value) in &span.counters {
                if counter.starts_with("cache") {
                    continue;
                }
                fields.push((counter.to_string(), *value));
                journal.histograms.record(counter, *value);
            }
            journal.entries.push(JournalEntry {
                clock,
                phase: span.phase.clone(),
                name: span.name.clone(),
                event: "span".to_string(),
                fields,
            });
            for event in &span.events {
                journal
                    .entries
                    .push(JournalEntry::event(clock, &span.phase, &span.name, event));
            }
            clock += 1;
        }
        journal
    }

    /// The journal as a JSON document (schema `fearless-obs/1`).
    pub fn to_json_value(&self) -> Json {
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("source", Json::str(&self.source)),
            (
                "entries",
                Json::Arr(self.entries.iter().map(|e| e.to_json_value()).collect()),
            ),
            ("histograms", self.histograms.to_json_value()),
        ])
    }

    /// Rendered document bytes (deterministic).
    pub fn render(&self) -> String {
        self.to_json_value().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSink;

    fn check_sink() -> MemorySink {
        let mut sink = MemorySink::new();
        sink.span_enter("parse", "program");
        sink.add("parse.defs", 2);
        sink.span_exit();
        sink.span_enter("cache", "summary");
        sink.add("cache.hits_warm", 1);
        sink.span_exit();
        sink.span_enter("check", "f");
        sink.add("check.deriv_nodes", 9);
        sink.add("cache.lookups", 1);
        sink.span_exit();
        sink
    }

    #[test]
    fn check_journal_skips_warmth_dependent_scopes() {
        let journal = Journal::from_check_sink(&check_sink());
        assert_eq!(journal.entries.len(), 2);
        assert_eq!(journal.entries[0].phase, "parse");
        assert_eq!(journal.entries[0].clock, 0);
        assert_eq!(journal.entries[1].phase, "check");
        assert_eq!(journal.entries[1].clock, 1);
        let rendered = journal.render();
        assert!(!rendered.contains("cache"), "{rendered}");
        assert_eq!(rendered, Journal::from_check_sink(&check_sink()).render());
    }
}
