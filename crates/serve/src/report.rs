//! The `fearlessc report --serve` view: a top-style per-client table
//! over a serve-bench journal, mirroring the runtime lane report's
//! layout (busiest lane first, fixed columns, a totals row).

use std::collections::BTreeMap;

use fearless_trace::journal::SCHEMA;
use fearless_trace::{parse_json, HistogramSet, Json};

use crate::protocol::codes;

/// One client's aggregated lane.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ClientLane {
    requests: u64,
    ok: u64,
    diag: u64,
    bytes: u64,
    checks: u64,
    lints: u64,
    flows: u64,
    profiles: u64,
}

/// Projection from a lane to one table cell.
type Column = (&'static str, fn(&ClientLane) -> u64);

/// Column layout shared by the header, the rows, and the totals row.
const COLUMNS: &[Column] = &[
    ("reqs", |l| l.requests),
    ("ok", |l| l.ok),
    ("diag", |l| l.diag),
    ("bytes", |l| l.bytes),
    ("check", |l| l.checks),
    ("lint", |l| l.lints),
    ("flow", |l| l.flows),
    ("profile", |l| l.profiles),
];

fn entry_field(entry: &Json, name: &str) -> u64 {
    entry
        .get("fields")
        .and_then(|f| f.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Renders the per-client serve table from a rendered serve-bench
/// journal document (schema `fearless-obs/1`, source `serve-bench`).
///
/// # Errors
///
/// Rejects text that is not a journal document or whose source is not
/// `serve-bench`.
pub fn render_serve_report(journal_text: &str) -> Result<String, String> {
    let doc = parse_json(journal_text).ok_or_else(|| "not a JSON document".to_string())?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != SCHEMA {
        return Err(format!(
            "expected a `{SCHEMA}` journal, got schema `{schema}`"
        ));
    }
    let source = doc.get("source").and_then(Json::as_str).unwrap_or("");
    if source != "serve-bench" {
        return Err(format!(
            "`report --serve` wants a serve-bench journal, got source `{source}`"
        ));
    }
    let Some(Json::Arr(entries)) = doc.get("entries") else {
        return Err("journal has no entries array".to_string());
    };

    let mut lanes: BTreeMap<String, ClientLane> = BTreeMap::new();
    let mut drill: Option<(u64, u64)> = None;
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut guard: Vec<(String, u64)> = Vec::new();
    for entry in entries {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("");
        let event = entry.get("event").and_then(Json::as_str).unwrap_or("");
        if name == "drill" && event == "shed" {
            drill = Some((
                entry_field(entry, "requests"),
                entry_field(entry, "overloaded"),
            ));
            continue;
        }
        if name == "guard" && event == "counters" {
            if let Some(Json::Obj(fields)) = entry.get("fields") {
                for (k, v) in fields {
                    if let Json::U64(n) = v {
                        guard.push((k.clone(), *n));
                    }
                }
            }
            continue;
        }
        if name == "stats" && event == "counters" {
            if let Some(Json::Obj(fields)) = entry.get("fields") {
                for (k, v) in fields {
                    if let Json::U64(n) = v {
                        counters.push((k.clone(), *n));
                    }
                }
            }
            continue;
        }
        if !name.starts_with("client") {
            continue;
        }
        let lane = lanes.entry(name.to_string()).or_default();
        lane.requests += 1;
        // Byte counts come from a journal file: saturate, never wrap.
        lane.bytes = lane.bytes.saturating_add(entry_field(entry, "bytes"));
        match entry_field(entry, "code") {
            codes::OK => lane.ok += 1,
            codes::DIAGNOSTIC => lane.diag += 1,
            _ => {}
        }
        match event {
            "check" => lane.checks += 1,
            "lint" => lane.lints += 1,
            "flow" => lane.flows += 1,
            "profile" => lane.profiles += 1,
            _ => {}
        }
    }

    // Busiest client first (by bytes served, ties by name) — the same
    // `top` reading order as the runtime lane report.
    let mut rows: Vec<(&String, &ClientLane)> = lanes.iter().collect();
    rows.sort_by(|(na, a), (nb, b)| b.bytes.cmp(&a.bytes).then(na.cmp(nb)));

    let total = lanes.values().fold(ClientLane::default(), |mut t, l| {
        t.requests += l.requests;
        t.ok += l.ok;
        t.diag += l.diag;
        t.bytes = t.bytes.saturating_add(l.bytes);
        t.checks += l.checks;
        t.lints += l.lints;
        t.flows += l.flows;
        t.profiles += l.profiles;
        t
    });

    let mut out = String::new();
    out.push_str(&format!(
        "serve report: {} client(s), {} request(s)\n",
        lanes.len(),
        total.requests
    ));
    out.push_str(&format!("{:>8}", "client"));
    for (label, _) in COLUMNS {
        out.push_str(&format!(" {label:>8}"));
    }
    out.push('\n');
    for (name, lane) in rows {
        let id = name.strip_prefix("client").unwrap_or(name);
        out.push_str(&format!("{id:>8}"));
        for (_, project) in COLUMNS {
            out.push_str(&format!(" {:>8}", project(lane)));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:>8}", "total"));
    for (_, project) in COLUMNS {
        out.push_str(&format!(" {:>8}", project(&total)));
    }
    out.push('\n');

    if let Some((requests, overloaded)) = drill {
        out.push_str(&format!(
            "shed drill: {requests} request(s) against the paused queue, {overloaded} overloaded\n"
        ));
    }
    if !counters.is_empty() {
        out.push_str("daemon counters:");
        for (name, value) in &counters {
            out.push_str(&format!(" {name}={value}"));
        }
        out.push('\n');
    }
    if !guard.is_empty() {
        out.push_str("guard counters:");
        for (name, value) in &guard {
            out.push_str(&format!(" {name}={value}"));
        }
        out.push('\n');
    }

    // Queue-depth and response-size distributions, when present.
    if let Some(hists) = doc.get("histograms") {
        if let Some(set) = HistogramSet::from_json_value(hists) {
            for (name, hist) in set.iter() {
                if hist.count() == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "{name}: count {} max {} p50>={} p99>={}\n",
                    hist.count(),
                    hist.max(),
                    hist.quantile_lo(50),
                    hist.quantile_lo(99),
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fearless_trace::{Journal, JournalEntry};

    fn sample_journal() -> Journal {
        let mut journal = Journal {
            source: "serve-bench".to_string(),
            ..Journal::default()
        };
        for (clock, client, event, bytes, code) in [
            (0u64, 0usize, "check", 40u64, codes::OK),
            (1, 0, "lint", 120, codes::OK),
            (2, 1, "flow", 80, codes::OK),
            (3, 1, "check", 30, codes::DIAGNOSTIC),
        ] {
            journal.entries.push(JournalEntry {
                clock,
                phase: "serve".to_string(),
                name: format!("client{client}"),
                event: event.to_string(),
                fields: vec![
                    ("body".to_string(), 0),
                    ("bytes".to_string(), bytes),
                    ("code".to_string(), code),
                    ("fp".to_string(), 7),
                ],
            });
        }
        journal.entries.push(JournalEntry {
            clock: 4,
            phase: "serve".to_string(),
            name: "drill".to_string(),
            event: "shed".to_string(),
            fields: vec![
                ("completed".to_string(), 4),
                ("overloaded".to_string(), 2),
                ("requests".to_string(), 6),
            ],
        });
        journal.entries.push(JournalEntry {
            clock: 5,
            phase: "serve".to_string(),
            name: "guard".to_string(),
            event: "counters".to_string(),
            fields: vec![
                ("quarantined".to_string(), 1),
                ("worker_restarts".to_string(), 2),
            ],
        });
        journal.histograms.record("serve.queue_depth_nondet", 2);
        journal
    }

    #[test]
    fn table_aggregates_per_client_and_sorts_by_bytes() {
        let table = render_serve_report(&sample_journal().render()).unwrap();
        assert!(
            table.contains("serve report: 2 client(s), 4 request(s)"),
            "{table}"
        );
        // Client 0 served 160 bytes vs client 1's 110 — it leads.
        let r0 = table
            .lines()
            .position(|l| l.starts_with("       0"))
            .unwrap();
        let r1 = table
            .lines()
            .position(|l| l.starts_with("       1"))
            .unwrap();
        assert!(r0 < r1, "busiest client first:\n{table}");
        assert!(table.contains("shed drill: 6 request(s)"), "{table}");
        assert!(
            table.contains("guard counters: quarantined=1 worker_restarts=2"),
            "{table}"
        );
        assert!(
            table.contains("serve.queue_depth_nondet: count 1 max 2"),
            "{table}"
        );
        // Determinism: same journal, same bytes.
        assert_eq!(
            table,
            render_serve_report(&sample_journal().render()).unwrap()
        );
    }

    #[test]
    fn byte_totals_saturate() {
        let mut journal = Journal {
            source: "serve-bench".to_string(),
            ..Journal::default()
        };
        for (clock, bytes) in [(0u64, u64::MAX), (1, 2)] {
            journal.entries.push(JournalEntry {
                clock,
                phase: "serve".to_string(),
                name: "client0".to_string(),
                event: "check".to_string(),
                fields: vec![
                    ("bytes".to_string(), bytes),
                    ("code".to_string(), codes::OK),
                ],
            });
        }
        let table = render_serve_report(&journal.render()).unwrap();
        let max = u64::MAX.to_string();
        let rows: Vec<&str> = table.lines().filter(|l| l.contains(&max)).collect();
        assert_eq!(
            rows.len(),
            2,
            "client row and totals row saturate:\n{table}"
        );
        assert!(rows[1].trim_start().starts_with("total"), "{table}");
    }

    #[test]
    fn rejects_non_serve_documents() {
        assert!(render_serve_report("{}").is_err());
        let wrong = Journal {
            source: "check".to_string(),
            ..Journal::default()
        };
        let err = render_serve_report(&wrong.render()).unwrap_err();
        assert!(err.contains("serve-bench"), "{err}");
    }
}
