//! `fearlessc report`: per-machine runtime telemetry (`fearless-obs`).

use fearless_core::CheckerOptions;
use fearless_runtime::{Machine, MachineConfig, Value};
use fearless_trace::{Json, MemorySink};

use crate::args::{Args, Input, ARG, CORPUS, ENTRY, FLOW_FACTS, JSON, SANITIZE_DOMINATION, SERVE};
use crate::run::{machine, with_sink};
use crate::telemetry::{write_file, Telemetry};
use crate::Command;

/// `fearlessc report`: run a program (or the chaos scenario corpus) and
/// render a top-style lane table or machine JSON, or render a
/// serve-bench journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// What to report on.
    pub source: ReportSource,
    /// Walk the heap each step asserting tempered domination, so the
    /// lanes attribute sanitizer cost per machine.
    pub sanitize: bool,
    /// Amortize the sanitizer with the static flow index.
    pub flow_facts: bool,
    /// Print the machine-readable report JSON instead of the table.
    pub json: bool,
    /// Journal and Perfetto outputs.
    pub telemetry: Telemetry,
}

/// What `fearlessc report` reports on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportSource {
    /// Run `entry(args)` from a source file.
    Program {
        /// Source path.
        path: String,
        /// Entry function.
        entry: String,
        /// Integer arguments for the entry function.
        args: Vec<i64>,
    },
    /// Run the built-in scenario corpus.
    Corpus,
    /// Render this serve-bench journal as a per-client lane table
    /// instead of running anything (`fearless-serve`).
    Serve(String),
}

impl Report {
    pub(crate) fn parse(a: &Args) -> Result<Command, String> {
        let entry = a.last(ENTRY)?;
        let args = a.all(ARG)?;
        let source = if let Some(journal) = a.last(SERVE)? {
            if a.on(CORPUS) || !a.operands(1)?.is_empty() || entry.is_some() {
                return Err(
                    "report --serve takes only a journal file (no source, --corpus, or --entry)"
                        .to_string(),
                );
            }
            ReportSource::Serve(journal)
        } else {
            match a.input("report")? {
                Input::Corpus => ReportSource::Corpus,
                Input::File(path) => ReportSource::Program {
                    path,
                    entry: entry.ok_or("report <file> requires --entry <fn>")?,
                    args,
                },
            }
        };
        Ok(Command::Report(Report {
            source,
            sanitize: a.on(SANITIZE_DOMINATION),
            flow_facts: a.on(FLOW_FACTS),
            json: a.on(JSON),
            telemetry: Telemetry::parse(a)?,
        }))
    }

    pub(crate) fn execute(&self, src: &str) -> Result<String, String> {
        let (entry, args) = match &self.source {
            ReportSource::Serve(journal) => {
                let text = crate::load_source(journal).map_err(|(m, _)| m)?;
                return fearless_serve::render_serve_report(&text);
            }
            ReportSource::Corpus => return self.corpus(),
            ReportSource::Program { entry, args, .. } => (entry, args),
        };
        fearless_core::check_source(src, &CheckerOptions::default()).map_err(|e| e.render(src))?;
        let program = fearless_syntax::parse_program(src).map_err(|e| e.render(src))?;
        let mut machine = machine(&program, self.sanitize, self.flow_facts)?;
        let values = args.iter().map(|&n| Value::Int(n)).collect();
        let (_, sink) = with_sink(&mut machine, MemorySink::new(), |m| {
            m.call(entry, values).map_err(|e| e.to_string())
        })?;
        let (stats, lanes) = (machine.stats(), machine.lanes());
        let out = if self.json {
            fearless_obs::report_json(entry, stats, lanes).render()
        } else {
            fearless_obs::render_report(entry, stats, lanes)
        };
        self.telemetry.finish(&sink, Some(&machine), out)
    }

    /// `fearlessc report --corpus`: every chaos scenario under the
    /// default deterministic round-robin schedule, with flow-amortized
    /// sanitizing wherever the scenario admits the sanitizer oracle — so
    /// the lanes show real mailbox depth, residence, and sanitizer cost
    /// attribution.
    fn corpus(&self) -> Result<String, String> {
        let Telemetry { obs, trace_out, .. } = &self.telemetry;
        let mut out = String::new();
        let mut json_entries = Vec::new();
        let mut journal_entries = Vec::new();
        let mut trace_events = Vec::new();
        for (i, scenario) in fearless_chaos::all_scenarios().iter().enumerate() {
            let config = MachineConfig {
                check_reservations: true,
                strategy: fearless_runtime::DisconnectStrategy::Differential,
                sanitize_domination: scenario.sanitize,
                ..MachineConfig::default()
            };
            let mut machine = Machine::from_compiled(scenario.program.clone(), config);
            machine.set_flow_index(fearless_flow::analyze_compiled(&scenario.program).index());
            let ((), sink) = with_sink(&mut machine, MemorySink::new(), |m| {
                for sp in &scenario.spawns {
                    m.spawn(&sp.func, sp.values()).map_err(|e| {
                        format!("scenario `{}`: spawn {}: {e}", scenario.name, sp.func)
                    })?;
                }
                m.run()
                    .map_err(|e| format!("scenario `{}`: {e}", scenario.name))
            })?;
            let (stats, lanes) = (machine.stats(), machine.lanes());
            if self.json {
                json_entries.push(Json::obj([
                    ("name", Json::str(scenario.name)),
                    (
                        "report",
                        fearless_obs::report_json(scenario.name, stats, lanes),
                    ),
                ]));
            } else {
                out.push_str(&fearless_obs::render_report(scenario.name, stats, lanes));
                out.push('\n');
            }
            if obs.is_some() {
                let journal = fearless_obs::Journal::from_run(&sink, lanes, stats);
                journal_entries.push(Json::obj([
                    ("name", Json::str(scenario.name)),
                    ("journal", journal.to_json_value()),
                ]));
            }
            if trace_out.is_some() {
                trace_events.extend(fearless_obs::perfetto::run_events_pid(
                    &sink,
                    lanes,
                    2 + i as u64,
                    scenario.name,
                ));
            }
        }
        if let Some(path) = obs {
            let doc = Json::obj([
                ("schema", Json::str("fearless-obs-corpus/1")),
                ("entries", Json::Arr(journal_entries)),
            ]);
            write_file(path, "journal", &doc.render())?;
        }
        if let Some(path) = trace_out {
            let doc = fearless_obs::perfetto::document(trace_events);
            write_file(path, "trace", &doc.render())?;
        }
        if self.json {
            Ok(Json::obj([
                ("schema", Json::str("fearless-obs-report-corpus/1")),
                ("entries", Json::Arr(json_entries)),
            ])
            .render())
        } else {
            Ok(out)
        }
    }
}
