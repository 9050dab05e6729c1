//! `fearlessc serve-bench`: a seeded load generator over the synth
//! corpus, emitting a `fearless-obs/1` journal (deterministic modulo
//! `_nondet` keys) and a bench-diff-gated `BENCH_serve.json`.
//!
//! The workload is a pure function of the options: N clients × M
//! requests, each assigned a kind (cycling over the work kinds) and a
//! seeded synthesized body. Because the daemon's responses are
//! deterministic in the request body, the per-request journal entries
//! — response sizes, codes, and content fingerprints — are
//! byte-identical across runs; only latency and queue-depth
//! distributions are wall-clock and carry `_nondet` keys.
//!
//! After the main phase, the *shed drill* pauses the workers, sends
//! `queue_capacity + shed_extra` fresh distinct bodies, and resumes:
//! exactly `shed_extra` must be answered `overloaded`, which makes the
//! shed counter deterministic too.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use fearless_incr::disk::checksum_hex;
use fearless_trace::{parse_json, Histogram, HistogramSet, Journal, JournalEntry, Json};

use crate::client::{splitmix, stat_counter, Client};
use crate::protocol::{codes, WORK_KINDS};

/// Load-generator configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchOptions {
    /// Daemon socket to drive.
    pub socket: PathBuf,
    /// Concurrent clients.
    pub clients: usize,
    /// Requests per client.
    pub requests: usize,
    /// Distinct synthesized bodies the workload cycles over.
    pub bodies: usize,
    /// Workload seed (bodies and the request mix derive from it).
    pub seed: u64,
    /// Drill requests beyond the queue capacity; each must shed.
    pub shed_extra: usize,
}

impl BenchOptions {
    /// The CI workload: 4 clients × 6 requests over 6 bodies, seed 42,
    /// 4 drill requests past capacity.
    pub fn new(socket: impl Into<PathBuf>) -> BenchOptions {
        BenchOptions {
            socket: socket.into(),
            clients: 4,
            requests: 6,
            bodies: 6,
            seed: 42,
            shed_extra: 4,
        }
    }
}

/// What a bench run produced.
pub struct BenchOutcome {
    /// The rendered `fearless-obs/1` journal.
    pub journal_text: String,
    /// The rendered `BENCH_serve.json` document.
    pub bench_text: String,
    /// Human summary for stdout.
    pub summary: String,
}

fn synth_body(seed: u64, functions: usize) -> String {
    fearless_synth::synthesize(&fearless_synth::SynthOptions {
        seed,
        functions,
        boxes: 1,
        max_ops: 4,
        window: 8,
    })
}

/// Low 64 bits of the FNV content checksum, as the journal's response
/// fingerprint field.
fn fp64(text: &str) -> u64 {
    u64::from_str_radix(&checksum_hex(text), 16).unwrap_or(0)
}

struct RequestRecord {
    client: usize,
    index: usize,
    kind: &'static str,
    body_idx: usize,
    code: u64,
    bytes: u64,
    fp: u64,
    latency_micros: u64,
}

/// Runs the load generator against a live daemon.
///
/// # Errors
///
/// Propagates connection failures, protocol errors, and drill
/// invariants that did not hold (e.g. a shed count that is not exactly
/// `shed_extra`).
pub fn run_bench(opts: &BenchOptions) -> Result<BenchOutcome, String> {
    let n = opts.clients.max(1);
    let m = opts.requests.max(1);
    let b = opts.bodies.max(1);

    let mut control = Client::connect(&opts.socket)?;
    let r = control.request("reset", "")?;
    if r.code != codes::OK {
        return Err(format!("reset failed: {}", r.output));
    }

    // Seeded distinct bodies (full synth prelude + a few generated
    // functions each; the daemon's hot fingerprint cache makes the
    // shared prelude nearly free after the first derivation).
    let bodies: Arc<Vec<String>> = Arc::new(
        (0..b)
            .map(|i| synth_body(opts.seed.wrapping_mul(1009).wrapping_add(i as u64), 3))
            .collect(),
    );

    // The deterministic request plan: global index g = client*m + i.
    let distinct: std::collections::BTreeSet<(&str, usize)> =
        (0..n * m).map(|g| plan(opts.seed, b, g)).collect();
    let distinct_requests = distinct.len() as u64;

    // Main phase: N concurrent clients, M requests each.
    let started = Instant::now();
    let mut handles = Vec::new();
    for c in 0..n {
        let socket = opts.socket.clone();
        let bodies = Arc::clone(&bodies);
        let seed = opts.seed;
        handles.push(std::thread::spawn(
            move || -> Result<Vec<RequestRecord>, String> {
                let mut client = Client::connect(&socket)?;
                let mut records = Vec::with_capacity(m);
                for i in 0..m {
                    let g = c * m + i;
                    let (kind, body_idx) = plan(seed, b, g);
                    let t0 = Instant::now();
                    let resp = client.request(kind, &bodies[body_idx])?;
                    if resp.code != codes::OK && resp.code != codes::DIAGNOSTIC {
                        return Err(format!(
                            "client {c} request {i} ({kind}): unexpected code {} — {}",
                            resp.code, resp.output
                        ));
                    }
                    records.push(RequestRecord {
                        client: c,
                        index: i,
                        kind,
                        body_idx,
                        code: resp.code,
                        bytes: resp.output.len() as u64,
                        fp: fp64(&resp.output),
                        latency_micros: t0.elapsed().as_micros() as u64,
                    });
                }
                Ok(records)
            },
        ));
    }
    let mut records: Vec<RequestRecord> = Vec::with_capacity(n * m);
    for h in handles {
        records.extend(
            h.join()
                .map_err(|_| "bench client panicked".to_string())??,
        );
    }
    let wall_micros = started.elapsed().as_micros() as u64;
    records.sort_by_key(|r| (r.client, r.index));

    // Shed drill: paused workers, distinct fresh bodies, bounded queue.
    let stats = control.request("stats", "")?;
    let capacity = stat_counter(&stats.output, "queue_capacity") as usize;
    if capacity == 0 {
        return Err("stats did not report queue_capacity".to_string());
    }
    let drill_requests = capacity + opts.shed_extra;
    let r = control.request("pause", "")?;
    if r.code != codes::OK {
        return Err(format!("pause failed: {}", r.output));
    }
    let mut drill = Vec::new();
    for i in 0..drill_requests {
        let socket = opts.socket.clone();
        let body = synth_body(
            opts.seed.wrapping_mul(1009).wrapping_add(10_000 + i as u64),
            5,
        );
        drill.push(std::thread::spawn(move || -> Result<u64, String> {
            let mut client = Client::connect(&socket)?;
            Ok(client.request("check", &body)?.code)
        }));
    }
    wait_for_work_requests(&mut control, (n * m + drill_requests) as u64)?;
    let r = control.request("resume", "")?;
    if r.code != codes::OK {
        return Err(format!("resume failed: {}", r.output));
    }
    let mut shed_observed = 0u64;
    for h in drill {
        let code = h
            .join()
            .map_err(|_| "drill client panicked".to_string())??;
        match code {
            codes::OVERLOADED => shed_observed += 1,
            codes::OK => {}
            other => return Err(format!("drill request got unexpected code {other}")),
        }
    }
    if shed_observed != opts.shed_extra as u64 {
        return Err(format!(
            "shed drill: expected exactly {} overloaded response(s), saw {shed_observed}",
            opts.shed_extra
        ));
    }

    // Final deterministic counters from the daemon.
    let stats = control.request("stats", "")?;
    let server_counter = |name: &str| stat_counter(&stats.output, name);
    let dedupe_hits = server_counter("dedupe_hits");
    let shed = server_counter("shed");
    let computed = server_counter("computed");
    let work_requests = server_counter("work_requests");
    let expected_dedupe = (n * m) as u64 - distinct_requests;
    if dedupe_hits != expected_dedupe {
        return Err(format!(
            "dedupe invariant: expected {expected_dedupe} hit(s) \
             ({} requests − {distinct_requests} distinct), daemon counted {dedupe_hits}",
            n * m
        ));
    }

    // The journal: per-request entries clocked by global index, then
    // the drill and counter summaries.
    let mut journal = Journal {
        source: "serve-bench".to_string(),
        ..Journal::default()
    };
    let mut latency = Histogram::new();
    let mut response_bytes_total = 0u64;
    let mut responses_ok = 0u64;
    for r in &records {
        journal.entries.push(JournalEntry {
            clock: (r.client * m + r.index) as u64,
            phase: "serve".to_string(),
            name: format!("client{}", r.client),
            event: r.kind.to_string(),
            fields: vec![
                ("body".to_string(), r.body_idx as u64),
                ("bytes".to_string(), r.bytes),
                ("code".to_string(), r.code),
                ("fp".to_string(), r.fp),
            ],
        });
        journal.histograms.record("serve.response_bytes", r.bytes);
        latency.record(r.latency_micros);
        response_bytes_total += r.bytes;
        responses_ok += u64::from(r.code == codes::OK);
    }
    journal.entries.push(JournalEntry {
        clock: (n * m) as u64,
        phase: "serve".to_string(),
        name: "drill".to_string(),
        event: "shed".to_string(),
        fields: vec![
            (
                "completed".to_string(),
                drill_requests as u64 - shed_observed,
            ),
            ("overloaded".to_string(), shed_observed),
            ("requests".to_string(), drill_requests as u64),
        ],
    });
    journal.entries.push(JournalEntry {
        clock: (n * m) as u64 + 1,
        phase: "serve".to_string(),
        name: "stats".to_string(),
        event: "counters".to_string(),
        fields: vec![
            ("computed".to_string(), computed),
            ("dedupe_hits".to_string(), dedupe_hits),
            ("distinct".to_string(), distinct_requests),
            ("shed".to_string(), shed),
            ("work_requests".to_string(), work_requests),
        ],
    });
    // Guard counters (supervision / recovery / degradation): all
    // deterministic — the bench injects no faults, so zeros here are
    // themselves an asserted-by-diff invariant.
    let worker_restarts = server_counter("worker_restarts");
    let quarantined = server_counter("quarantined");
    let stale_served = server_counter("stale_served");
    let deadline_exceeded = server_counter("deadline_exceeded");
    let wal_replayed = server_counter("wal_replayed");
    journal.entries.push(JournalEntry {
        clock: (n * m) as u64 + 2,
        phase: "serve".to_string(),
        name: "guard".to_string(),
        event: "counters".to_string(),
        fields: vec![
            ("deadline_exceeded".to_string(), deadline_exceeded),
            ("quarantined".to_string(), quarantined),
            ("retries".to_string(), 0),
            ("stale_served".to_string(), stale_served),
            ("wal_replayed".to_string(), wal_replayed),
            ("worker_restarts".to_string(), worker_restarts),
        ],
    });
    // Wall-clock distributions ride along under `_nondet` names, which
    // `strip-nondet` removes before CI's byte-diff.
    journal
        .histograms
        .merge_histogram("serve.latency_micros_nondet", &latency);
    if let Some(server_hists) = stats_histograms(&stats.output) {
        journal.histograms.merge(&server_hists);
    }

    // BENCH_serve.json: deterministic counters under plain keys,
    // wall-clock under `_nondet` leaves (flat, so the bench-diff gate
    // sees every nondet leaf as informational).
    let rps_x100 = if wall_micros == 0 {
        0
    } else {
        ((n * m) as u128 * 1_000_000 * 100 / wall_micros as u128) as u64
    };
    let mut fields = vec![
        ("schema".to_string(), Json::str("fearless-serve-bench/1")),
        ("clients".to_string(), Json::U64(n as u64)),
        ("requests_per_client".to_string(), Json::U64(m as u64)),
        ("bodies".to_string(), Json::U64(b as u64)),
        (
            "distinct_requests".to_string(),
            Json::U64(distinct_requests),
        ),
        ("work_requests".to_string(), Json::U64(work_requests)),
        ("dedupe_hits".to_string(), Json::U64(dedupe_hits)),
        ("shed_responses".to_string(), Json::U64(shed)),
        (
            "shed_drill_requests".to_string(),
            Json::U64(drill_requests as u64),
        ),
        ("queue_capacity".to_string(), Json::U64(capacity as u64)),
        ("computed".to_string(), Json::U64(computed)),
        ("responses_ok".to_string(), Json::U64(responses_ok)),
        ("worker_restarts".to_string(), Json::U64(worker_restarts)),
        ("quarantined".to_string(), Json::U64(quarantined)),
        ("stale_served".to_string(), Json::U64(stale_served)),
        (
            "deadline_exceeded".to_string(),
            Json::U64(deadline_exceeded),
        ),
        ("wal_replayed".to_string(), Json::U64(wal_replayed)),
        (
            "response_bytes_total".to_string(),
            Json::U64(response_bytes_total),
        ),
        (
            "journal_entries".to_string(),
            Json::U64(journal.entries.len() as u64),
        ),
        ("wall_micros_nondet".to_string(), Json::U64(wall_micros)),
        (
            "requests_per_sec_x100_nondet".to_string(),
            Json::U64(rps_x100),
        ),
        (
            "latency_p50_micros_nondet".to_string(),
            Json::U64(latency.quantile_lo(50)),
        ),
        (
            "latency_p99_micros_nondet".to_string(),
            Json::U64(latency.quantile_lo(99)),
        ),
    ];
    for (bucket, count) in latency.buckets() {
        fields.push((
            format!(
                "latency_lt_{}_micros_nondet",
                fearless_trace::bucket_hi(bucket)
            ),
            Json::U64(count),
        ));
    }
    let bench = Json::Obj(fields);

    let rps = rps_x100 / 100;
    let summary = format!(
        "serve-bench: {n} client(s) × {m} request(s) over {b} bodies (seed {}): {} ok, \
         {dedupe_hits} dedupe hit(s) ({distinct_requests} distinct), {shed} shed \
         ({drill_requests} drill requests vs queue {capacity}), p50 {}us p99 {}us, \
         {rps} req/s\n",
        opts.seed,
        responses_ok,
        latency.quantile_lo(50),
        latency.quantile_lo(99),
    );
    Ok(BenchOutcome {
        journal_text: journal.render(),
        bench_text: bench.render(),
        summary,
    })
}

/// The deterministic request assignment: kind cycles over the work
/// kinds by global index; the body index is a seeded SplitMix64 draw.
fn plan(seed: u64, bodies: usize, g: usize) -> (&'static str, usize) {
    let kind = WORK_KINDS[g % WORK_KINDS.len()];
    let body_idx = (splitmix(seed ^ (g as u64)) % bodies as u64) as usize;
    (kind, body_idx)
}

/// Polls `stats` until the daemon has admitted `want` work requests
/// since the last reset.
fn wait_for_work_requests(c: &mut Client, want: u64) -> Result<(), String> {
    for _ in 0..5000 {
        let r = c.request("stats", "")?;
        if stat_counter(&r.output, "work_requests") >= want {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    Err(format!("daemon never saw {want} work request(s)"))
}

/// Parses the histograms object out of a stats payload.
fn stats_histograms(stats_output: &str) -> Option<HistogramSet> {
    let doc = parse_json(stats_output)?;
    HistogramSet::from_json_value(doc.get("histograms")?)
}
