//! `fearlessc report`: per-machine runtime telemetry — a top-style
//! per-machine table and the equivalent machine-readable JSON.
//!
//! Input is the aggregate [`Stats`] plus one [`LaneStats`] per machine.
//! Rows are sorted by steps descending (busiest machine first, ties by
//! machine id), so the table reads like `top`: who did the work, whose
//! mailbox backed up, who paid for the sanitizer.

use fearless_core::CheckerOptions;
use fearless_runtime::{LaneStats, Machine, MachineConfig, Stats, Value};
use fearless_trace::{Json, MemorySink};

use crate::args::{Args, Input, ARG, CORPUS, ENTRY, FLOW_FACTS, JSON, SANITIZE_DOMINATION, SERVE};
use crate::run::{machine, with_sink};
use crate::telemetry::{write_file, Telemetry};
use crate::Command;

/// Schema identifier for the JSON report document.
const SCHEMA: &str = "fearless-obs-report/1";

/// Projection from a lane to one table cell.
type Column = (&'static str, fn(&LaneStats) -> u64);

/// Column layout shared by the header and the rows: short label plus
/// the `LaneStats` field it projects.
const COLUMNS: &[Column] = &[
    ("steps", |l| l.steps),
    ("sends", |l| l.sends),
    ("recvs", |l| l.recvs),
    ("peak_mb", |l| l.peak_mailbox_depth),
    ("wait", |l| l.mailbox_wait_steps),
    ("disc", |l| l.disconnect_checks),
    ("visited", |l| l.disconnect_visited),
    ("walks", |l| l.sanitize_walks),
    ("partial", |l| l.sanitize_partial_walks),
    ("skipped", |l| l.sanitize_skipped),
    ("edges", |l| l.sanitize_edges),
];

fn busiest_first(lanes: &[LaneStats]) -> Vec<(usize, &LaneStats)> {
    let mut rows: Vec<(usize, &LaneStats)> = lanes.iter().enumerate().collect();
    rows.sort_by(|(ia, a), (ib, b)| b.steps.cmp(&a.steps).then(ia.cmp(ib)));
    rows
}

/// Renders the top-style table. `entry` names what was run (entry
/// function or scenario) and heads the report.
fn render_report(entry: &str, stats: &Stats, lanes: &[LaneStats]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "report: {} ({} machines, {} steps)\n",
        entry, stats.machines, stats.steps
    ));
    out.push_str(&format!("{:>8}", "machine"));
    for (label, _) in COLUMNS {
        out.push_str(&format!(" {label:>8}"));
    }
    out.push('\n');
    for (id, lane) in busiest_first(lanes) {
        out.push_str(&format!("{id:>8}"));
        for (_, project) in COLUMNS {
            out.push_str(&format!(" {:>8}", project(lane)));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "   total {:>8} {:>8} {:>8} {:>8}\n",
        stats.steps, stats.sends, stats.recvs, stats.peak_mailbox_depth
    ));
    out
}

/// The same report as a JSON document (schema `fearless-obs-report/1`):
/// aggregate stats plus one lane object per machine, in machine-id
/// order.
fn report_json(entry: &str, stats: &Stats, lanes: &[LaneStats]) -> Json {
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("entry", Json::str(entry)),
        ("stats", stats.to_json_value()),
        (
            "machines",
            Json::Arr(lanes.iter().map(|l| l.to_json_value()).collect()),
        ),
    ])
}

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
            report_json(entry, stats, lanes).render()
        } else {
            render_report(entry, stats, lanes)
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
                    ("report", report_json(scenario.name, stats, lanes)),
                ]));
            } else {
                out.push_str(&render_report(scenario.name, stats, lanes));
                out.push('\n');
            }
            if obs.is_some() {
                let journal = fearless_runtime::run_journal(&sink, lanes, stats);
                journal_entries.push(Json::obj([
                    ("name", Json::str(scenario.name)),
                    ("journal", journal.to_json_value()),
                ]));
            }
            if trace_out.is_some() {
                trace_events.extend(fearless_trace::perfetto::run_events_pid(
                    &sink,
                    lanes.len(),
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
            let doc = fearless_trace::perfetto::document(trace_events);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_sorts_busiest_first_and_is_deterministic() {
        let a = LaneStats {
            steps: 3,
            ..LaneStats::default()
        };
        let b = LaneStats {
            steps: 9,
            sends: 2,
            ..LaneStats::default()
        };
        let stats = Stats {
            steps: 12,
            machines: 2,
            ..Stats::default()
        };
        let table = render_report("main", &stats, &[a, b]);
        assert_eq!(table, render_report("main", &stats, &[a, b]));
        let row_b = table
            .lines()
            .position(|l| l.trim_start().starts_with("1 "))
            .unwrap();
        let row_a = table
            .lines()
            .position(|l| l.trim_start().starts_with("0 "))
            .unwrap();
        assert!(row_b < row_a, "busiest machine must come first:\n{table}");
        assert!(
            table.contains("report: main (2 machines, 12 steps)"),
            "{table}"
        );
    }

    #[test]
    fn table_columns_cover_every_lane_field() {
        // The report must never silently drop a lane counter: the column
        // table projects each `LaneStats` field exactly once.
        assert_eq!(COLUMNS.len(), LaneStats::default().fields().len());
        let mut lane = LaneStats {
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
        let mut seen: Vec<u64> = COLUMNS.iter().map(|(_, p)| p(&lane)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (1..=11).collect::<Vec<u64>>());
        lane.steps = 100;
        assert_eq!(COLUMNS[0].1(&lane), 100);
    }

    #[test]
    fn json_report_carries_schema_and_lanes() {
        let stats = Stats::default();
        let lanes = [LaneStats::default()];
        let json = report_json("main", &stats, &lanes).render();
        assert!(json.contains("fearless-obs-report/1"), "{json}");
        assert!(json.contains("\"machines\""), "{json}");
    }
}
