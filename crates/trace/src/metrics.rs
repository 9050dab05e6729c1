//! The in-memory collector: scopes of counters and events, plus
//! deterministic JSON serialization.

use std::any::Any;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::sink::TraceSink;

/// A recorded point event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Event name.
    pub name: &'static str,
    /// Integer payload fields, in emission order.
    pub fields: Vec<(&'static str, u64)>,
}

impl EventRecord {
    /// The value of the first payload field named `name`.
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }
}

/// Counters and events attributed to one span (or to the implicit root
/// scope for emissions outside any span).
#[derive(Debug, Clone)]
pub struct ScopeMetrics {
    /// Coarse stage name (`"parse"`, `"check"`, `"run"`, …); empty for the
    /// root scope.
    pub phase: String,
    /// Unit of work (function name, entry point); `"total"` for the root.
    pub name: String,
    /// Counter totals, sorted by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Point events in emission order.
    pub events: Vec<EventRecord>,
    /// Wall-clock nanoseconds spent inside the span. Deliberately
    /// *excluded* from JSON output (it would break byte-determinism);
    /// `fearlessc profile --wall-time` reads it directly.
    pub nanos: u128,
}

impl ScopeMetrics {
    fn new(phase: impl Into<String>, name: impl Into<String>) -> Self {
        ScopeMetrics {
            phase: phase.into(),
            name: name.into(),
            counters: BTreeMap::new(),
            events: Vec::new(),
            nanos: 0,
        }
    }

    /// JSON object for this scope (counters sorted, events in order; no
    /// wall-clock times).
    pub fn to_json_value(&self) -> Json {
        self.to_json_value_opts(false)
    }

    /// Like [`ScopeMetrics::to_json_value`], but with `wall_time` the
    /// span's wall-clock nanoseconds are included under the key
    /// `wall_nanos_nondet`. The `_nondet` suffix is the workspace-wide
    /// convention for non-deterministic fields: `fearlessc
    /// strip-nondet` removes exactly these keys, which is how the CI
    /// determinism diff compares wall-timed output.
    pub fn to_json_value_opts(&self, wall_time: bool) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.to_string(), Json::U64(*v)))
                .collect(),
        );
        let events = Json::Arr(
            self.events
                .iter()
                .map(|e| {
                    Json::obj([
                        ("name", Json::str(e.name)),
                        (
                            "fields",
                            Json::Obj(
                                e.fields
                                    .iter()
                                    .map(|(k, v)| (k.to_string(), Json::U64(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let mut fields = vec![
            ("phase".to_string(), Json::str(&self.phase)),
            ("name".to_string(), Json::str(&self.name)),
            ("counters".to_string(), counters),
            ("events".to_string(), events),
        ];
        if wall_time {
            let nanos = u64::try_from(self.nanos).unwrap_or(u64::MAX);
            fields.push(("wall_nanos_nondet".to_string(), Json::U64(nanos)));
        }
        Json::Obj(fields)
    }
}

/// A [`TraceSink`] that accumulates everything in memory.
///
/// Scope 0 is the implicit root; spans append scopes in enter order, so
/// the collected layout is reproducible whenever the instrumented
/// computation is.
#[derive(Debug)]
pub struct MemorySink {
    scopes: Vec<ScopeMetrics>,
    stack: Vec<(usize, Instant)>,
}

impl Default for MemorySink {
    fn default() -> Self {
        MemorySink::new()
    }
}

impl MemorySink {
    /// An empty collector.
    pub fn new() -> Self {
        MemorySink {
            scopes: vec![ScopeMetrics::new("", "total")],
            stack: Vec::new(),
        }
    }

    /// All scopes: the root first, then spans in enter order.
    pub fn scopes(&self) -> &[ScopeMetrics] {
        &self.scopes
    }

    /// Non-root scopes in enter order.
    pub fn spans(&self) -> impl Iterator<Item = &ScopeMetrics> {
        self.scopes.iter().skip(1)
    }

    /// Counter totals summed across every scope.
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for scope in &self.scopes {
            for (k, v) in &scope.counters {
                *out.entry(k).or_insert(0) += v;
            }
        }
        out
    }

    fn current(&mut self) -> &mut ScopeMetrics {
        let idx = self.stack.last().map(|(i, _)| *i).unwrap_or(0);
        &mut self.scopes[idx]
    }

    /// The full trace as a JSON value (schema `fearless-trace/1`).
    pub fn to_json_value(&self) -> Json {
        self.to_json_value_opts(false)
    }

    /// Like [`MemorySink::to_json_value`], but with `wall_time` each
    /// scope carries its wall-clock nanoseconds under
    /// `wall_nanos_nondet` (see [`ScopeMetrics::to_json_value_opts`]).
    pub fn to_json_value_opts(&self, wall_time: bool) -> Json {
        Json::obj([
            ("schema", Json::str("fearless-trace/1")),
            (
                "scopes",
                Json::Arr(
                    self.scopes
                        .iter()
                        .map(|s| s.to_json_value_opts(wall_time))
                        .collect(),
                ),
            ),
            (
                "totals",
                Json::Obj(
                    self.totals()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Json::U64(v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Rendered JSON (deterministic bytes).
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}

impl TraceSink for MemorySink {
    fn span_enter(&mut self, phase: &'static str, name: &str) {
        self.scopes.push(ScopeMetrics::new(phase, name));
        let idx = self.scopes.len() - 1;
        self.stack.push((idx, Instant::now()));
    }

    fn span_exit(&mut self) {
        if let Some((idx, start)) = self.stack.pop() {
            self.scopes[idx].nanos += start.elapsed().as_nanos();
        }
    }

    fn add(&mut self, counter: &'static str, delta: u64) {
        *self.current().counters.entry(counter).or_insert(0) += delta;
    }

    fn event(&mut self, name: &'static str, fields: &[(&'static str, u64)]) {
        self.current().events.push(EventRecord {
            name,
            fields: fields.to_vec(),
        });
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_attribute_to_open_span() {
        let mut m = MemorySink::new();
        m.add("root.c", 1);
        m.span_enter("check", "f");
        m.add("inner.c", 2);
        m.add("inner.c", 3);
        m.event("e", &[("x", 7)]);
        m.span_exit();
        m.add("root.c", 4);

        assert_eq!(m.scopes().len(), 2);
        assert_eq!(m.scopes()[0].counters["root.c"], 5);
        assert_eq!(m.scopes()[1].counters["inner.c"], 5);
        assert_eq!(m.scopes()[1].events.len(), 1);
        assert_eq!(m.totals()["inner.c"], 5);
    }

    #[test]
    fn nested_spans_track_stack() {
        let mut m = MemorySink::new();
        m.span_enter("a", "outer");
        m.span_enter("b", "inner");
        m.add("c", 1);
        m.span_exit();
        m.add("c", 1);
        m.span_exit();
        assert_eq!(m.scopes()[2].counters["c"], 1);
        assert_eq!(m.scopes()[1].counters["c"], 1);
    }

    #[test]
    fn json_is_deterministic_and_excludes_time() {
        let mut m = MemorySink::new();
        m.span_enter("check", "f");
        m.add("z", 1);
        m.add("a", 2);
        m.span_exit();
        let one = m.to_json();
        let two = m.to_json();
        assert_eq!(one, two);
        assert!(!one.contains("nanos"), "{one}");
        // Counters sorted by name regardless of emission order.
        assert!(one.find("\"a\": 2").unwrap() < one.find("\"z\": 1").unwrap());
    }

    #[test]
    fn wall_time_only_appears_under_nondet_tag() {
        let mut m = MemorySink::new();
        m.span_enter("check", "f");
        m.add("c", 1);
        m.span_exit();
        let plain = m.to_json();
        assert!(!plain.contains("nondet"), "{plain}");
        let timed = m.to_json_value_opts(true).render();
        assert!(timed.contains("\"wall_nanos_nondet\""), "{timed}");
        // Everything except the tagged keys is identical bytes.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("_nondet"))
                .map(|l| l.trim_end_matches(','))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&plain), strip(&timed));
    }

    #[test]
    fn downcast_roundtrip() {
        let b: Box<dyn TraceSink> = Box::new(MemorySink::new());
        let m = b.into_any().downcast::<MemorySink>().unwrap();
        assert_eq!(m.scopes().len(), 1);
    }
}
