//! Per-machine telemetry lanes.
//!
//! The scheduler steps many "machines" (threads in the paper's §7
//! terminology); aggregate [`crate::Stats`] answers *how much* work the
//! run did, while a [`LaneStats`] per machine answers *who* did it —
//! which machine processed the messages, whose mailbox backed up, and
//! which machine paid for the domination-sanitizer walks. `fearlessc
//! report` renders these lanes as a top-style table, [`run_journal`]
//! closes the runtime event journal with one entry per lane, and the
//! Perfetto exporter in `fearless-trace` draws one timeline lane per
//! machine.
//!
//! Every counter is a deterministic work unit (no wall clock): two runs
//! of the same program under the same schedule produce byte-identical
//! lanes.

use fearless_trace::{Journal, JournalEntry, Json, MemorySink};

use crate::Stats;

/// Telemetry counters for one machine (thread), all in deterministic
/// work units.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Instructions this machine executed.
    pub steps: u64,
    /// Messages this machine sent.
    pub sends: u64,
    /// Messages this machine received (processed).
    pub recvs: u64,
    /// Largest number of senders found blocked on a channel at the
    /// moment this machine completed a receive — its peak mailbox depth.
    pub peak_mailbox_depth: u64,
    /// Total scheduler steps messages spent blocked between the send
    /// and this machine's matching receive (mailbox residence).
    pub mailbox_wait_steps: u64,
    /// `if disconnected` checks this machine executed.
    pub disconnect_checks: u64,
    /// Objects visited by this machine's disconnection checks.
    pub disconnect_visited: u64,
    /// Full sanitizer heap walks attributed to this machine's steps.
    pub sanitize_walks: u64,
    /// Partial (touched-set) sanitizer walks attributed to this machine.
    pub sanitize_partial_walks: u64,
    /// Sanitizer walks skipped on this machine's statically `Safe` steps.
    pub sanitize_skipped: u64,
    /// `iso` edges checked by sanitizer walks on this machine's steps.
    pub sanitize_edges: u64,
}

impl LaneStats {
    /// Every counter as a `(name, value)` pair, in declaration order —
    /// the single source of truth for serialization and for the
    /// `report` table. A field added to the struct without extending
    /// this table fails the exhaustiveness test in `machine.rs` at
    /// compile time.
    pub fn fields(&self) -> [(&'static str, u64); 11] {
        [
            ("steps", self.steps),
            ("sends", self.sends),
            ("recvs", self.recvs),
            ("peak_mailbox_depth", self.peak_mailbox_depth),
            ("mailbox_wait_steps", self.mailbox_wait_steps),
            ("disconnect_checks", self.disconnect_checks),
            ("disconnect_visited", self.disconnect_visited),
            ("sanitize_walks", self.sanitize_walks),
            ("sanitize_partial_walks", self.sanitize_partial_walks),
            ("sanitize_skipped", self.sanitize_skipped),
            ("sanitize_edges", self.sanitize_edges),
        ]
    }

    /// The lane as a JSON object (declaration order, deterministic).
    pub fn to_json_value(&self) -> Json {
        Json::obj(self.fields().map(|(k, v)| (k, Json::U64(v))))
    }
}

/// Builds the runtime journal (schema `fearless-obs/1`) from the
/// machine's sink, lanes, and final stats. Events are clocked by the
/// scheduler step stamped on them; per-machine lane summaries and the
/// aggregate stats close the journal at the final step.
pub fn run_journal(sink: &MemorySink, lanes: &[LaneStats], stats: &Stats) -> Journal {
    let mut journal = Journal {
        source: "run".to_string(),
        ..Journal::default()
    };
    for scope in sink.scopes() {
        for event in &scope.events {
            let clock = event.field("step").unwrap_or(0);
            match event.name {
                "message" => {
                    if let Some(depth) = event.field("depth") {
                        journal.histograms.record("run.mailbox_depth", depth);
                    }
                    if let Some(waited) = event.field("waited") {
                        journal.histograms.record("run.mailbox_wait_steps", waited);
                    }
                }
                "disconnect" => {
                    if let Some(visited) = event.field("visited") {
                        journal.histograms.record("run.disconnect_visited", visited);
                    }
                }
                _ => {}
            }
            journal
                .entries
                .push(JournalEntry::event(clock, "run", &journal.source, event));
        }
    }
    journal.entries.sort_by_key(|e| e.clock);
    for (id, lane) in lanes.iter().enumerate() {
        journal.histograms.record("run.machine_steps", lane.steps);
        journal
            .histograms
            .record("run.machine_sanitize_edges", lane.sanitize_edges);
        journal.entries.push(JournalEntry {
            clock: stats.steps,
            phase: "lane".to_string(),
            name: format!("machine{id}"),
            event: "lane".to_string(),
            fields: lane
                .fields()
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        });
    }
    journal.entries.push(JournalEntry {
        clock: stats.steps,
        phase: "stats".to_string(),
        name: "total".to_string(),
        event: "stats".to_string(),
        fields: stats
            .fields()
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
    });
    journal
}

#[cfg(test)]
mod tests {
    use super::*;
    use fearless_trace::TraceSink;

    #[test]
    fn run_journal_clocks_by_step_and_closes_with_lanes() {
        let mut sink = MemorySink::new();
        sink.event("message", &[("step", 4), ("depth", 2), ("waited", 3)]);
        sink.event("disconnect", &[("step", 7), ("visited", 5)]);
        let lanes = [LaneStats::default(), LaneStats::default()];
        let stats = Stats {
            steps: 9,
            ..Stats::default()
        };
        let journal = run_journal(&sink, &lanes, &stats);
        let clocks: Vec<u64> = journal.entries.iter().map(|e| e.clock).collect();
        let mut sorted = clocks.clone();
        sorted.sort_unstable();
        assert_eq!(clocks, sorted, "clock must be monotonic");
        assert_eq!(journal.entries.last().unwrap().event, "stats");
        assert!(journal
            .entries
            .iter()
            .any(|e| e.phase == "lane" && e.name == "machine1"));
        let rendered = journal.render();
        assert!(rendered.contains("run.mailbox_depth"), "{rendered}");
        assert!(rendered.contains("run.mailbox_wait_steps"), "{rendered}");
    }

    #[test]
    fn lane_json_is_deterministic_and_exhaustive() {
        let lane = LaneStats {
            steps: 1,
            sends: 2,
            recvs: 3,
            peak_mailbox_depth: 4,
            mailbox_wait_steps: 5,
            disconnect_checks: 6,
            disconnect_visited: 7,
            sanitize_walks: 8,
            sanitize_partial_walks: 9,
            sanitize_skipped: 10,
            sanitize_edges: 11,
        };
        let json = lane.to_json_value().render();
        assert_eq!(json, lane.to_json_value().render());
        for (name, value) in lane.fields() {
            assert!(json.contains(&format!("\"{name}\": {value}")), "{json}");
        }
    }

    #[test]
    fn lane_fields_are_exhaustive() {
        // Full destructuring (no `..`): adding a LaneStats field without
        // deciding how it serializes fails to compile here.
        let LaneStats {
            steps,
            sends,
            recvs,
            peak_mailbox_depth,
            mailbox_wait_steps,
            disconnect_checks,
            disconnect_visited,
            sanitize_walks,
            sanitize_partial_walks,
            sanitize_skipped,
            sanitize_edges,
        } = LaneStats::default();
        let bound = [
            steps,
            sends,
            recvs,
            peak_mailbox_depth,
            mailbox_wait_steps,
            disconnect_checks,
            disconnect_visited,
            sanitize_walks,
            sanitize_partial_walks,
            sanitize_skipped,
            sanitize_edges,
        ];
        assert_eq!(bound.len(), LaneStats::default().fields().len());
    }
}
