//! The four telemetry flags (`--trace`, `--metrics json`, `--obs`,
//! `--trace-out`) as one value, with the one tracer set-up and the one
//! finish step every tracing command shares.

use fearless_runtime::Machine;
use fearless_trace::{perfetto, Journal, MemorySink, Tracer};

use crate::args::{Args, METRICS, OBS, TRACE, TRACE_OUT};

/// Where a command's instrumentation goes. Each command accepts only
/// the flags its usage line lists; the others stay unset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Write the instrumentation trace (fearless-trace/1 JSON) here.
    pub trace: Option<String>,
    /// Print the trace JSON instead of the normal report.
    pub metrics_json: bool,
    /// Write the deterministic event journal (fearless-obs/1) here.
    pub obs: Option<String>,
    /// Write a Chrome trace-event / Perfetto document here.
    pub trace_out: Option<String>,
}

impl Telemetry {
    pub(crate) fn parse(a: &Args) -> Result<Telemetry, String> {
        let metrics_json = match a.last::<String>(METRICS)?.as_deref() {
            None => false,
            Some("json") => true,
            Some(other) => {
                return Err(format!(
                    "unknown metrics format `{other}` (expected `json`)"
                ))
            }
        };
        Ok(Telemetry {
            trace: a.last(TRACE)?,
            metrics_json,
            obs: a.last(OBS)?,
            trace_out: a.last(TRACE_OUT)?,
        })
    }

    /// Whether any output needs the sink to record.
    pub(crate) fn wanted(&self) -> bool {
        self.trace.is_some() || self.metrics_json || self.obs.is_some() || self.trace_out.is_some()
    }

    /// A tracer recording into `sink` when any output needs it, else a
    /// disabled (free) one.
    pub(crate) fn tracer<'s>(&self, sink: &'s mut MemorySink) -> Tracer<'s> {
        if self.wanted() {
            Tracer::new(sink)
        } else {
            Tracer::off()
        }
    }

    /// Writes the journal, the Perfetto document and the trace file that
    /// were asked for, then picks stdout: the trace JSON under
    /// `--metrics json`, `report` otherwise. A `machine` adds its
    /// runtime lanes to the journal and the Perfetto document.
    pub(crate) fn finish(
        &self,
        sink: &MemorySink,
        machine: Option<&Machine>,
        report: String,
    ) -> Result<String, String> {
        if let Some(path) = &self.obs {
            let journal = match machine {
                Some(m) => fearless_runtime::run_journal(sink, m.lanes(), m.stats()),
                None => Journal::from_check_sink(sink),
            };
            write_file(path, "journal", &journal.render())?;
        }
        if let Some(path) = &self.trace_out {
            let mut events = perfetto::check_events(sink);
            if let Some(m) = machine {
                events.extend(perfetto::run_events(sink, m.lanes().len()));
            }
            write_file(path, "trace", &perfetto::document(events).render())?;
        }
        if let Some(path) = &self.trace {
            write_file(path, "trace", &sink.to_json())?;
        }
        Ok(if self.metrics_json {
            sink.to_json()
        } else {
            report
        })
    }
}

/// Writes one output document, naming it in the error.
pub(crate) fn write_file(path: &str, what: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {what} `{path}`: {e}"))
}
