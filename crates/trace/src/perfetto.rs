//! Chrome trace-event / Perfetto export.
//!
//! Emits the JSON array flavour of the [trace-event format] that both
//! `chrome://tracing` and [ui.perfetto.dev] load directly. Time is
//! wall-clock-free: the journal's logical clock (definition-order
//! sequence for checking, scheduler step for the runtime) maps 1:1 to
//! microseconds, so the exported trace is as deterministic as the
//! journal it is derived from.
//!
//! Lane layout:
//!
//! * `pid 1` — the checking pipeline, one thread lane per phase
//!   (`parse`, `check`, `lint`, …) in first-seen order, one complete
//!   (`ph:"X"`) slice per unit span.
//! * `pid 2` — the runtime, one thread lane per machine. Sends,
//!   receives and disconnect walks are slices (a disconnect slice's
//!   duration is its visited-object count); mailbox depth at each
//!   delivery is a per-machine counter (`ph:"C"`) track.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use std::collections::BTreeMap;

use crate::{Json, MemorySink};

/// Process id used for checking-pipeline lanes.
const PID_PIPELINE: u64 = 1;
/// Process id used for runtime machine lanes.
const PID_RUNTIME: u64 = 2;

fn meta_thread_name(pid: u64, tid: u64, name: &str) -> Json {
    Json::obj([
        ("name", Json::str("thread_name")),
        ("ph", Json::str("M")),
        ("pid", Json::U64(pid)),
        ("tid", Json::U64(tid)),
        ("args", Json::obj([("name", Json::str(name))])),
    ])
}

fn slice(pid: u64, tid: u64, ts: u64, dur: u64, name: &str, cat: &str) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("cat", Json::str(cat)),
        ("ph", Json::str("X")),
        ("ts", Json::U64(ts)),
        ("dur", Json::U64(dur.max(1))),
        ("pid", Json::U64(pid)),
        ("tid", Json::U64(tid)),
    ])
}

fn counter(pid: u64, tid: u64, ts: u64, name: &str, track: &str, value: u64) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("ph", Json::str("C")),
        ("ts", Json::U64(ts)),
        ("pid", Json::U64(pid)),
        ("tid", Json::U64(tid)),
        ("args", Json::obj([(track, Json::U64(value))])),
    ])
}

/// Trace events for the checking pipeline: one lane per phase, one
/// slice per span, clocked by definition-order sequence.
pub fn check_events(sink: &MemorySink) -> Vec<Json> {
    let mut events = Vec::new();
    let mut lane_of_phase: BTreeMap<String, u64> = BTreeMap::new();
    for (seq, span) in sink.spans().enumerate() {
        let next = lane_of_phase.len() as u64 + 1;
        let tid = *lane_of_phase.entry(span.phase.clone()).or_insert(next);
        if tid == next {
            events.push(meta_thread_name(PID_PIPELINE, tid, &span.phase));
        }
        events.push(slice(
            PID_PIPELINE,
            tid,
            seq as u64,
            1,
            &span.name,
            &span.phase,
        ));
    }
    events
}

/// Trace events for a runtime execution over `machines` machines: one
/// lane per machine, slices for sends/receives/disconnect walks, and a
/// per-machine mailbox-depth counter track, all clocked by scheduler
/// step.
pub fn run_events(sink: &MemorySink, machines: usize) -> Vec<Json> {
    run_events_pid(sink, machines, PID_RUNTIME, "runtime")
}

/// Like [`run_events`] but under an explicit process id and name, so a
/// corpus export can give each scenario its own process group.
pub fn run_events_pid(sink: &MemorySink, machines: usize, pid: u64, process: &str) -> Vec<Json> {
    let mut events = Vec::new();
    events.push(Json::obj([
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::U64(pid)),
        ("args", Json::obj([("name", Json::str(process))])),
    ]));
    for id in 0..machines as u64 {
        events.push(meta_thread_name(pid, id + 1, &format!("machine {id}")));
    }
    for scope in sink.scopes() {
        for event in &scope.events {
            let Some(step) = event.field("step") else {
                continue;
            };
            match event.name {
                "message" => {
                    let (Some(from), Some(to)) = (event.field("from"), event.field("to")) else {
                        continue;
                    };
                    events.push(slice(pid, from + 1, step, 1, "send", "message"));
                    events.push(slice(pid, to + 1, step, 1, "recv", "message"));
                    if let Some(depth) = event.field("depth") {
                        events.push(counter(
                            pid,
                            to + 1,
                            step,
                            &format!("mailbox_depth_m{to}"),
                            "depth",
                            depth,
                        ));
                    }
                }
                "disconnect" => {
                    let Some(machine) = event.field("machine") else {
                        continue;
                    };
                    let visited = event.field("visited").unwrap_or(0);
                    events.push(slice(
                        pid,
                        machine + 1,
                        step,
                        visited,
                        "disconnect_walk",
                        "disconnect",
                    ));
                }
                _ => {}
            }
        }
    }
    events
}

/// Wraps trace events into the top-level document Perfetto loads.
pub fn document(events: Vec<Json>) -> Json {
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSink;

    #[test]
    fn check_lanes_group_by_phase() {
        let mut sink = MemorySink::new();
        sink.span_enter("parse", "program");
        sink.span_exit();
        sink.span_enter("check", "f");
        sink.span_exit();
        sink.span_enter("check", "g");
        sink.span_exit();
        let events = check_events(&sink);
        // Two metadata events (parse, check) + three slices.
        assert_eq!(events.len(), 5);
        let rendered = document(events).render();
        assert!(rendered.contains("\"traceEvents\""), "{rendered}");
        assert!(rendered.contains("thread_name"), "{rendered}");
        // g's slice is at ts 2 on the same lane as f's.
        assert!(rendered.contains("\"ts\": 2"), "{rendered}");
    }

    #[test]
    fn run_events_map_steps_to_timestamps() {
        let mut sink = MemorySink::new();
        sink.event(
            "message",
            &[
                ("step", 6),
                ("channel", 0),
                ("from", 0),
                ("to", 1),
                ("depth", 2),
                ("waited", 3),
            ],
        );
        sink.event(
            "disconnect",
            &[
                ("step", 8),
                ("machine", 1),
                ("visited", 4),
                ("disconnected", 1),
            ],
        );
        let events = run_events(&sink, 2);
        let rendered = document(events).render();
        assert!(rendered.contains("mailbox_depth_m1"), "{rendered}");
        assert!(rendered.contains("disconnect_walk"), "{rendered}");
        assert!(rendered.contains("\"dur\": 4"), "{rendered}");
        assert!(rendered.contains("machine 1"), "{rendered}");
    }
}
