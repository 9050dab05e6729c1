//! The benchmark's own span recorder. Spans are recorded around the
//! calls the benchmark makes into each crate, kept in memory, and written
//! out once at the end. A disabled recorder does nothing, so the
//! untraced run measures the plain call sequence.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or operation name.
    pub name: &'static str,
    /// The enclosing span, if any. Spans without a parent are operations.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Work counters recorded at this span.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// The recorder.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// One operation's time split by layer.
#[derive(Clone, Debug)]
pub struct OpBreakdown {
    /// Operation name (the root span's name).
    pub op: &'static str,
    /// The operation's duration in ms.
    pub total_ms: f64,
    /// Self time in ms per layer inside the operation, the root's own
    /// self time included under the operation's name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Counter sums inside the operation.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Recorder {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            counters: Vec::new(),
        });
        self.stack.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.stack.pop().expect("exit matches an enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a closed child of the innermost open span that lasted
    /// `ns`, as timed by the callee itself (the checker's own per-function
    /// spans). It is placed at the parent's start; only its length counts.
    pub fn nested(&mut self, name: &'static str, ns: u64) {
        if !self.on {
            return;
        }
        let Some(&parent) = self.stack.last() else {
            return;
        };
        let start_ns = self.spans[parent].start_ns;
        let end_ns = start_ns.saturating_add(ns).min(self.now_ns());
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns,
            end_ns,
            counters: Vec::new(),
        });
    }

    /// Adds `value` to `counter` on the innermost open span, or on the
    /// most recent operation when none is open.
    pub fn add(&mut self, counter: &'static str, value: f64) {
        if !self.on {
            return;
        }
        let target = match self.stack.last() {
            Some(&id) => id,
            None => match self.spans.iter().rposition(|s| s.parent.is_none()) {
                Some(id) => id,
                None => return,
            },
        };
        let counters = &mut self.spans[target].counters;
        match counters.iter_mut().find(|(k, _)| *k == counter) {
            Some((_, v)) => *v += value,
            None => counters.push((counter, value)),
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Splits every recorded operation into per-layer self times. A
    /// span's self time is its duration minus its children's durations
    /// (children run sequentially inside their parent).
    pub fn breakdown(&self) -> Vec<OpBreakdown> {
        let mut child_ms = vec![0.0; self.spans.len()];
        let mut root = vec![0usize; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
                root[i] = root[p];
            } else {
                root[i] = i;
            }
        }
        let mut ops: BTreeMap<usize, OpBreakdown> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let r = root[i];
            let op = ops.entry(r).or_insert_with(|| OpBreakdown {
                op: self.spans[r].name,
                total_ms: self.spans[r].ms(),
                layers: BTreeMap::new(),
                counters: BTreeMap::new(),
            });
            *op.layers.entry(s.name).or_insert(0.0) += s.ms() - child_ms[i];
            for (k, v) in &s.counters {
                *op.counters.entry(k).or_insert(0.0) += v;
            }
        }
        ops.into_values().collect()
    }

    /// The spans as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"perfbench-trace/1\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"counters\":{{",
                s.name, s.start_ns, s.end_ns
            );
            for (j, (k, v)) in s.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.enter("op.x");
        rec.enter("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.enter("b");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.add("b.count", 3.0);
        rec.exit();
        rec.exit();
        rec.exit();
        let ops = rec.breakdown();
        assert_eq!(ops.len(), 1);
        let op = &ops[0];
        let sum: f64 = op.layers.values().sum();
        assert!((sum - op.total_ms).abs() < 1e-6, "{sum} vs {}", op.total_ms);
        assert!(op.layers["b"] >= 2.0 && op.layers["a"] >= 2.0);
        assert_eq!(op.counters["b.count"], 3.0);
    }

    #[test]
    fn a_nested_span_is_carved_out_of_its_parent() {
        let mut rec = Recorder::new(true);
        rec.enter("op.x");
        std::thread::sleep(std::time::Duration::from_millis(3));
        rec.nested("inner", 1_000_000);
        rec.exit();
        let op = &rec.breakdown()[0];
        assert!((op.layers["inner"] - 1.0).abs() < 1e-9);
        assert!((op.layers["op.x"] + 1.0 - op.total_ms).abs() < 1e-6);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        rec.enter("op.x");
        rec.add("c", 1.0);
        rec.exit();
        assert!(rec.spans().is_empty());
    }
}
