//! `fearlessc run`, and the machine set-up it shares with `report`.

use std::fmt::Write as _;

use fearless_core::CheckerOptions;
use fearless_runtime::{Machine, MachineConfig, Value};
use fearless_syntax::Program;
use fearless_trace::{MemorySink, TraceSink};

use crate::args::{Args, ARG, ENTRY, FLOW_FACTS, SANITIZE_DOMINATION, UNCHECKED};
use crate::telemetry::Telemetry;
use crate::Command;

/// `fearlessc run`: check, then run an entry function on the abstract
/// machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// Source path.
    pub path: String,
    /// Entry function name.
    pub entry: String,
    /// Integer arguments for the entry function.
    pub args: Vec<i64>,
    /// Skip the static check and run with reservation checks anyway
    /// (for demonstrating dynamic faults, experiment E8).
    pub unchecked: bool,
    /// Assert tempered domination over the whole heap after every
    /// machine step (the dynamic sanitizer).
    pub sanitize: bool,
    /// Install the static flow index so the sanitizer skips statically
    /// `Safe` steps and partial-walks `RegionLocal` ones.
    pub flow_facts: bool,
    /// Trace, metrics, journal and Perfetto outputs.
    pub telemetry: Telemetry,
}

impl Run {
    pub(crate) fn parse(a: &Args) -> Result<Command, String> {
        Ok(Command::Run(Run {
            args: a.all(ARG)?,
            unchecked: a.on(UNCHECKED),
            sanitize: a.on(SANITIZE_DOMINATION),
            flow_facts: a.on(FLOW_FACTS),
            telemetry: Telemetry::parse(a)?,
            path: a.file()?,
            entry: a.last(ENTRY)?.ok_or("missing --entry")?,
        }))
    }

    pub(crate) fn execute(&self, src: &str) -> Result<String, String> {
        let want = self.telemetry.wanted();
        let mut sink = MemorySink::new();
        if !self.unchecked {
            let mut tracer = self.telemetry.tracer(&mut sink);
            fearless_core::check_source_traced(src, &CheckerOptions::default(), &mut tracer)
                .map_err(|e| e.render(src))?;
        }
        let program = fearless_syntax::parse_program(src).map_err(|e| e.render(src))?;
        let mut machine = machine(&program, self.sanitize, self.flow_facts)?;
        let values = self.args.iter().map(|&n| Value::Int(n)).collect();
        let entry = &self.entry;
        let call = |m: &mut Machine| m.call(entry, values).map_err(|e| e.to_string());
        let (result, sink) = if want {
            sink.span_enter("run", entry);
            let (result, mut sink) = with_sink(&mut machine, sink, |m| {
                let result = call(m)?;
                m.emit_stats();
                Ok(result)
            })?;
            sink.span_exit();
            (result, sink)
        } else {
            (call(&mut machine)?, sink)
        };
        let stats = machine.stats();
        let mut out = format!(
            "{entry}(…) = {result}\n{} steps, {} allocations, {} field reads, {} field writes, \
             {} reservation checks\n",
            stats.steps,
            stats.allocs,
            stats.field_reads,
            stats.field_writes,
            stats.reservation_checks
        );
        if self.sanitize {
            let _ = writeln!(
                out,
                "domination sanitizer: {} iso edge(s) checked, all dominating",
                stats.sanitize_checks
            );
            if self.flow_facts {
                let _ = writeln!(
                    out,
                    "flow facts: {} walk(s) skipped, {} partial walk(s)",
                    stats.sanitize_skipped, stats.sanitize_partial_walks
                );
            }
        }
        self.telemetry.finish(&sink, Some(&machine), out)
    }
}

/// A machine for `program`, with the domination sanitizer and the static
/// flow index installed as asked.
pub(crate) fn machine(
    program: &Program,
    sanitize: bool,
    flow_facts: bool,
) -> Result<Machine, String> {
    let config = MachineConfig {
        sanitize_domination: sanitize,
        ..MachineConfig::default()
    };
    let mut machine = Machine::with_config(program, config).map_err(|e| e.to_string())?;
    if flow_facts {
        let compiled = fearless_runtime::compile(program).map_err(|e| e.to_string())?;
        machine.set_flow_index(fearless_flow::analyze_compiled(&compiled).index());
    }
    Ok(machine)
}

/// Runs `f` with `sink` installed as the machine's trace sink, then
/// takes the sink back.
pub(crate) fn with_sink<T>(
    machine: &mut Machine,
    sink: MemorySink,
    f: impl FnOnce(&mut Machine) -> Result<T, String>,
) -> Result<(T, MemorySink), String> {
    machine.set_trace_sink(Box::new(sink));
    let value = f(machine)?;
    let sink = machine
        .take_trace_sink()
        .expect("sink installed above")
        .into_any()
        .downcast::<MemorySink>()
        .expect("sink is a MemorySink");
    Ok((value, *sink))
}
