//! `fearlessc flow`.

use fearless_core::CheckerOptions;
use fearless_flow::{FlowCache, ProgramFlow};
use fearless_trace::Json;

use crate::args::{Args, Input, CACHE};
use crate::Command;

/// `fearlessc flow`: check, compile, classify, and print the
/// per-function step-safety summaries as deterministic JSON. With
/// `--cache <dir>`, per-function summaries replay from `<dir>/flow.json`
/// keyed by the checker's function fingerprints — warm and cold runs
/// print byte-identical documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flow {
    /// What to analyze (`--corpus`: every accepted corpus entry).
    pub input: Input,
    /// Directory holding the persistent per-function flow cache.
    pub cache: Option<String>,
}

impl Flow {
    pub(crate) fn parse(a: &Args) -> Result<Command, String> {
        Ok(Command::Flow(Flow {
            cache: a.last(CACHE)?,
            input: a.input("flow")?,
        }))
    }

    pub(crate) fn execute(&self, src: &str) -> Result<String, String> {
        let mut disk = self.cache.as_deref().map(FlowCache::load);
        let opts = CheckerOptions::default();
        let flow_of = |src: &str, disk: &mut Option<FlowCache>| -> Result<ProgramFlow, String> {
            let checked = fearless_core::check_source(src, &opts).map_err(|e| e.render(src))?;
            match disk {
                Some(c) => {
                    fearless_flow::analyze_checked_cached(&checked, c).map_err(|e| e.to_string())
                }
                None => fearless_flow::analyze_checked(&checked).map_err(|e| e.to_string()),
            }
        };
        let mut out = match self.input {
            Input::Corpus => {
                let mut entries = Vec::new();
                for entry in fearless_corpus::accepted_entries() {
                    let flow = flow_of(&entry.source, &mut disk)
                        .map_err(|e| format!("corpus `{}`: {e}", entry.name))?;
                    entries.push(Json::obj([
                        ("name", Json::str(entry.name)),
                        ("flow", flow.to_json_value()),
                    ]));
                }
                Json::obj([
                    ("schema", Json::str(fearless_flow::CORPUS_SCHEMA)),
                    ("entries", Json::Arr(entries)),
                ])
                .render()
            }
            Input::File(_) => flow_of(src, &mut disk)?.to_json(),
        };
        out.push('\n');
        if let Some(c) = &disk {
            c.save()?;
        }
        Ok(out)
    }
}
