//! `serve-mixed`: an in-process daemon with 2 workers and a persistent
//! cache directory, driven by two closed-loop clients (each waits for its
//! reply before sending the next request). Bodies are single-literal
//! edits of the serve-bench-sized base; one request in four repeats an
//! earlier one exactly. Every answer is checked against the library's
//! answer for the same body, computed after the timed phase.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use fearless_core::CheckerOptions;
use fearless_incr::{check_units, checksum_hex, DiskCache};
use fearless_serve::protocol::{self, codes, Request, Response};
use fearless_serve::{Client, ServeOptions, Server};
use fearless_trace::{Json, Tracer};

use crate::plan::{self, Editable, SERVE_KINDS};
use crate::trace::Recorder;
use crate::{check_source_rec, ms_since, parse_rec, stats, Collector, Config};

/// Load connections (one thread each).
pub const CLIENTS: usize = 2;

/// Daemon worker threads.
pub const WORKERS: usize = 2;

/// Share of a request's round trip spent scanning bytes, for the
/// calibration kernel. The protocol decodes each request and response
/// with `parse_json`, whose string reader re-validates the rest of the
/// document as UTF-8 per character. The codec probe measured it at 0.54
/// of a fresh check's round trip, 0.42 of a flow's and 0.09 of a lint's:
/// 0.35 on average over the kinds, which weigh the same in the geometric
/// mean. The set-up, which serves one check, is calibrated the same way.
pub const SCAN_SHARE: f64 = 0.35;

/// Requests after which the load's peak resident set is read. The daemon
/// keeps every distinct answer, so its memory grows with the requests
/// served; read at a fixed count, the figure does not follow throughput.
pub const RSS_AFTER: u64 = 800;

/// A running daemon and its clients.
pub struct ServeSetup {
    /// The editable base body.
    pub ed: Editable,
    /// The daemon.
    pub server: fearless_serve::server::SpawnedServer,
    /// One connection per load thread.
    pub clients: Vec<Client>,
    /// A connection for control requests.
    pub control: Client,
    /// The daemon's directory (socket and cache).
    pub dir: PathBuf,
}

/// Binds a daemon over a fresh cache directory, warms the cache with the
/// base body, and connects the clients.
pub fn setup(dir: PathBuf) -> Result<(ServeSetup, f64), String> {
    let t = Instant::now();
    let base = plan::serve_base();
    let synth_ms = ms_since(t);
    let ed = Editable::new(base)?;
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create serve dir: {e}"))?;
    let socket = dir.join("d.sock");
    let mut opts = ServeOptions::new(&socket);
    opts.workers = WORKERS;
    // Closed-loop clients keep at most CLIENTS jobs queued: never shed.
    opts.queue_capacity = 64;
    opts.cache_dir = Some(dir.join("cache"));
    let server = Server::spawn(opts)?;
    let mut control = Client::connect(&socket)?;
    let warm = control.request("check", &ed.base)?;
    if warm.code != codes::OK {
        return Err(format!("warm-up check failed: {}", warm.output));
    }
    control.request("reset", "")?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(&socket))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((
        ServeSetup {
            ed,
            server,
            clients,
            control,
            dir,
        },
        synth_ms,
    ))
}

/// Drains and stops the daemon and removes its directory.
pub fn teardown(s: ServeSetup) -> Result<(), String> {
    drop(s.clients);
    drop(s.control);
    let stopped = s.server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&s.dir);
    stopped.map(drop)
}

/// One completed request.
#[derive(Clone, Debug)]
pub struct Record {
    /// Plan index.
    pub g: u64,
    /// The load round it ran in.
    pub round: usize,
    /// The planned request.
    pub req: plan::ServeRequest,
    /// Client round trip in ms.
    pub ms: f64,
    /// Response code.
    pub code: u64,
    /// Digest of the response output (outputs are not kept, so memory
    /// does not grow with throughput).
    pub digest: String,
}

/// The body a planned request sends.
pub fn body(ed: &Editable, seed: u64, req: plan::ServeRequest) -> String {
    ed.apply(&plan::serve_edit(ed, seed, req.origin))
}

/// Length of one load round. The calibration kernel runs between rounds,
/// while both clients wait, so it measures the machine and not the load.
pub const ROUND_SECONDS: f64 = 0.25;

/// What the load phase produced.
pub struct Driven {
    /// Every completed request, in plan order.
    pub records: Vec<Record>,
    /// Seconds the clients were sending (pauses between rounds excluded).
    pub elapsed: f64,
    /// Calibration kernel times in ms: before round 0, then after each
    /// round.
    pub kernels: Vec<f64>,
    /// Peak resident set in MB once [`RSS_AFTER`] requests were sent, if
    /// they were.
    pub peak_rss_mb: Option<f64>,
}

/// Drives the daemon from the clients, in rounds, until `seconds` of load
/// have passed. Each client runs a closed loop over its share of the plan
/// (client `c` sends requests `c`, `c + CLIENTS`, ...).
pub fn drive(s: &mut ServeSetup, seed: u64, seconds: f64) -> Driven {
    let ed = &s.ed;
    let mut next: Vec<u64> = (0..CLIENTS as u64).collect();
    let mut out = Driven {
        records: Vec::new(),
        elapsed: 0.0,
        kernels: vec![crate::workload_kernel_ms(SCAN_SHARE)],
        peak_rss_mb: None,
    };
    let rss = &std::sync::OnceLock::new();
    let mut round = 0;
    while out.elapsed < seconds {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(ROUND_SECONDS.min(seconds));
        let mut end = start;
        std::thread::scope(|scope| {
            let handles: Vec<_> = s
                .clients
                .iter_mut()
                .zip(next.iter_mut())
                .map(|(client, g)| {
                    scope.spawn(move || {
                        let mut records = Vec::new();
                        while Instant::now() < deadline {
                            let req = plan::serve_request(seed, *g);
                            let text = body(ed, seed, req);
                            let t = Instant::now();
                            let r = client.request(SERVE_KINDS[req.kind], &text);
                            let ms = ms_since(t);
                            let (code, digest) = match r {
                                Ok(r) => (r.code, checksum_hex(&r.output)),
                                Err(e) => (u64::MAX, e),
                            };
                            records.push(Record {
                                g: *g,
                                round,
                                req,
                                ms,
                                code,
                                digest,
                            });
                            *g += CLIENTS as u64;
                            if *g >= RSS_AFTER {
                                rss.get_or_init(crate::peak_rss_mb);
                            }
                        }
                        (records, Instant::now())
                    })
                })
                .collect();
            for h in handles {
                let (records, done) = h.join().expect("load thread panicked");
                out.records.extend(records);
                end = end.max(done);
            }
        });
        out.elapsed += (end - start).as_secs_f64();
        out.kernels.push(crate::workload_kernel_ms(SCAN_SHARE));
        round += 1;
    }
    out.records.sort_by_key(|r| r.g);
    out.peak_rss_mb = rss.get().copied();
    out
}

/// The library's answer for `kind` on `text`, as the daemon renders it.
/// `cache` is a warm in-memory fingerprint cache, as the daemon keeps.
pub fn library_answer(
    kind: &str,
    text: &str,
    cache: &mut DiskCache,
    rec: &mut Recorder,
) -> Result<String, String> {
    let opts = CheckerOptions::default();
    match kind {
        "check" => {
            let program = parse_rec(text, rec).map_err(|e| e.render(text))?;
            let units = vec![(String::new(), program)];
            rec.enter("incr.check_units");
            let run = check_units(&units, &opts, 1, Some(cache), &mut Tracer::off());
            rec.add("incr.cache_hits", run.stats.hits as f64);
            rec.add("incr.cache_misses", run.stats.misses as f64);
            rec.exit();
            let unit = &run.units[0];
            match unit.first_error() {
                Some(e) => Err(e.render(text)),
                None => Ok(format!(
                    "ok: {} function(s), {} derivation nodes, {} virtual transformations\n",
                    unit.functions.len(),
                    unit.total_nodes(),
                    unit.total_vir_steps()
                )),
            }
        }
        "flow" => {
            let checked = check_source_rec(text, &opts, rec)?;
            rec.enter("flow.analyze");
            let flow = fearless_flow::analyze_checked(&checked);
            rec.exit();
            rec.enter("flow.render");
            let out = flow.map(|f| f.to_json() + "\n");
            rec.exit();
            out.map_err(|e| e.to_string())
        }
        _ => {
            let checked = check_source_rec(text, &opts, rec)?;
            rec.enter("analysis");
            let report = fearless_analyze::analyze_program(&checked);
            if let Ok(r) = &report {
                let st = &r.stats;
                rec.add(
                    "analysis.recheck_experiments",
                    st.recheck_experiments as f64,
                );
                rec.add(
                    "analysis.recheck_queries",
                    (st.recheck_cache_hits + st.recheck_cache_misses) as f64,
                );
                rec.add("analysis.findings", r.lints.len() as f64);
            }
            rec.exit();
            rec.enter("analysis.render");
            let out = report.map(|r| r.to_json(text));
            rec.exit();
            out
        }
    }
}

/// Root span names of the codec probes, per kind.
const CODEC_SPANS: [&str; 3] = ["codec.check", "codec.flow", "codec.lint"];

/// Traced-run probe beside a reference answer: the protocol's encoding
/// and decoding of the request and of its response, as the client and
/// the daemon do them, in a `serve.codec` span. Returns whether both
/// documents decoded.
fn codec_probe(kind: usize, text: &str, output: &str, rec: &mut Recorder) -> bool {
    rec.enter(CODEC_SPANS[kind]);
    rec.enter("serve.codec");
    let request = Request::new(SERVE_KINDS[kind], text).to_json();
    let decoded = protocol::parse_request(request.as_bytes()).is_ok();
    let response = Response::ok(output).to_json();
    let ok = decoded && Response::from_json(&response).is_some();
    rec.exit();
    rec.exit();
    ok
}

/// A fingerprint cache warmed with the base, as the daemon's is.
fn warm_cache(base: &str) -> DiskCache {
    let mut cache = DiskCache::ephemeral();
    if let Ok(program) = fearless_syntax::parse_program(base) {
        let units = vec![(String::new(), program)];
        check_units(
            &units,
            &CheckerOptions::default(),
            1,
            Some(&mut cache),
            &mut Tracer::off(),
        );
    }
    cache
}

/// Per origin request: the digest of the library's answer (or its
/// error) and the time it took in ms.
pub type References = BTreeMap<u64, (Result<String, String>, f64)>;

/// Digests of the library's answers for every distinct request in
/// `records`, with the time each took. The traced run computes them on one thread, each
/// inside spans; the untraced run splits them over [`CLIENTS`] threads.
pub fn references(ed: &Editable, seed: u64, records: &[Record], rec: &mut Recorder) -> References {
    let origins: Vec<plan::ServeRequest> = {
        let mut seen = BTreeMap::new();
        for r in records {
            seen.entry(r.req.origin).or_insert(r.req);
        }
        seen.into_values().collect()
    };
    let compute = |reqs: &[plan::ServeRequest], rec: &mut Recorder| {
        let mut cache = warm_cache(&ed.base);
        let mut out = Vec::new();
        for req in reqs {
            let text = body(ed, seed, *req);
            let name = match req.kind {
                0 => "ref.check",
                1 => "ref.flow",
                _ => "ref.lint",
            };
            rec.enter(name);
            let t = Instant::now();
            let answer = library_answer(SERVE_KINDS[req.kind], &text, &mut cache, rec);
            let ms = ms_since(t);
            rec.exit();
            // A failed probe fails the request's check.
            let probed = !rec.is_on()
                || (crate::source_probes(&text, rec)
                    && codec_probe(req.kind, &text, answer.as_deref().unwrap_or(""), rec));
            let answer = answer.and_then(|a| {
                if probed {
                    Ok(checksum_hex(&a))
                } else {
                    Err("a traced probe failed".into())
                }
            });
            out.push((req.origin, (answer, ms)));
        }
        out
    };
    if rec.is_on() {
        return compute(&origins, rec).into_iter().collect();
    }
    let chunk = origins.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = origins
            .chunks(chunk)
            .map(|part| scope.spawn(move || compute(part, &mut Recorder::new(false))))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Checks every response against the library's answer for its body;
/// returns, for each request that first sent its body, the client time
/// minus the library time.
pub fn check_records(records: &[Record], refs: &References, col: &mut Collector) -> Vec<f64> {
    let mut overhead = Vec::new();
    for r in records {
        let kind = SERVE_KINDS[r.req.kind];
        let Some((want, lib_ms)) = refs.get(&r.req.origin) else {
            col.check(false, || format!("serve request {}: no reference", r.g));
            continue;
        };
        let ok = r.code == codes::OK && want.as_ref().is_ok_and(|w| *w == r.digest);
        col.check(ok, || {
            format!(
                "serve request {} ({kind}): code {}, {}",
                r.g,
                r.code,
                match want {
                    Ok(_) => "output differs from the library's answer".to_string(),
                    Err(e) => format!("library error: {e}"),
                }
            )
        });
        if r.g == r.req.origin {
            overhead.push(r.ms - lib_ms);
        }
    }
    overhead
}

/// A counter from the daemon's `stats` document.
fn stat(doc: &Json, path: &[&str]) -> f64 {
    let mut v = doc;
    for key in path {
        let Json::Obj(fields) = v else {
            return 0.0;
        };
        match fields.iter().find(|(k, _)| k == key) {
            Some((_, next)) => v = next,
            None => return 0.0,
        }
    }
    match v {
        Json::U64(n) => *n as f64,
        _ => 0.0,
    }
}

/// Runs the workload.
pub fn run(cfg: &Config, col: &mut Collector, rec: &mut Recorder) -> Result<f64, String> {
    let dir = cfg.work_dir.join("serve");
    let mut synth = Vec::new();
    let (mut s, setup_s) = crate::timed_setups(
        SCAN_SHARE,
        |_| {
            let (s, ms) = setup(dir.clone())?;
            synth.push(ms);
            Ok(s)
        },
        |s| {
            let _ = teardown(s);
        },
    )?;
    col.set("synth.ms", stats::median(&synth));

    let Driven {
        records,
        elapsed,
        kernels,
        peak_rss_mb,
    } = drive(&mut s, cfg.seed, cfg.seconds);
    // The reference answers below are the benchmark's own check, not the
    // workload; on two threads they would raise the peak by a sixth.
    col.peak_rss_mb = Some(peak_rss_mb.unwrap_or_else(crate::peak_rss_mb));

    let mut pings = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        let ok = s
            .control
            .request("ping", "")
            .is_ok_and(|r| r.code == codes::OK);
        pings.push(ms_since(t));
        col.check(ok, || "ping failed".into());
    }
    let doc = s
        .control
        .request("stats", "")
        .ok()
        .and_then(|r| fearless_incr::parse_json(&r.output))
        .unwrap_or(Json::Null);
    let ed = s.ed.clone();
    teardown(s)?;

    let refs = references(&ed, cfg.seed, &records, rec);
    let overhead = check_records(&records, &refs, col);
    // The end-to-end kinds are fresh bodies only. A repeat is answered
    // from the memo or waits on the in-flight request for its body, so
    // its time follows what the other client is doing; mixed into a fresh
    // kind, the repeats' share (which varies with the seed) would shift
    // its median, and as a kind of their own they swing by a sixth
    // between seeds.
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    let mut repeats = Vec::new();
    for r in &records {
        if r.g != r.req.origin {
            repeats.push(r.ms);
            continue;
        }
        let kind = SERVE_KINDS[r.req.kind];
        by_kind[r.req.kind].push(r.ms);
        col.sample(kind, r.ms, false);
        let cal = (kernels[r.round] + kernels[r.round + 1]) / 2.0;
        col.normalised
            .entry(kind)
            .or_default()
            .push(crate::normalise(r.ms, cal));
    }
    col.set("serve.repeat_p50_ms", stats::median(&repeats));
    col.kernels.extend(kernels);
    let all: Vec<f64> = records.iter().map(|r| r.ms).collect();
    col.set("serve_rps", stats::ratio(records.len() as f64, elapsed));
    col.set("serve_p50_ms", stats::median(&all));
    col.set("serve_p95_ms", stats::quantile(&all, 0.95));
    col.set("serve.check_p50_ms", stats::median(&by_kind[0]));
    col.set("serve.flow_p50_ms", stats::median(&by_kind[1]));
    col.set("serve.lint_p50_ms", stats::median(&by_kind[2]));
    col.set("serve.ping_ms", stats::median(&pings));
    col.set("serve.requests", stat(&doc, &["counters", "work_requests"]));
    col.set(
        "serve.dedupe_hits",
        stat(&doc, &["counters", "dedupe_hits"]),
    );
    col.set(
        "serve.dedupe_ratio",
        stats::ratio(
            stat(&doc, &["counters", "dedupe_hits"]),
            stat(&doc, &["counters", "work_requests"]),
        ),
    );
    col.set("serve.computed", stat(&doc, &["counters", "computed"]));
    col.set("serve.cache_entries", stat(&doc, &["cache_entries"]));
    col.set(
        "serve.wal_appends",
        stat(&doc, &["counters", "wal_appends_nondet"]),
    );
    col.set(
        "serve.queue_depth_max",
        stat(&doc, &["histograms", "serve.queue_depth_nondet", "max"]),
    );
    col.check(stat(&doc, &["counters", "shed"]) == 0.0, || {
        "the daemon shed load".into()
    });
    if rec.is_on() {
        col.set("serve.overhead_p50_ms", stats::median(&overhead));
        let fresh: Vec<f64> = by_kind.concat();
        col.notes.push(format!(
            "serve: over {} fresh request(s), client p50 {:.3} ms, library p50 {:.3} ms, client minus library p50 {:.3} ms",
            overhead.len(),
            stats::median(&fresh),
            stats::median(&refs.values().map(|v| v.1).collect::<Vec<_>>()),
            stats::median(&overhead),
        ));
        let ops = rec.breakdown();
        let codec: Vec<f64> = CODEC_SPANS
            .iter()
            .map(|span| {
                let v: Vec<f64> = ops
                    .iter()
                    .filter(|o| o.op == *span)
                    .map(|o| o.total_ms)
                    .collect();
                stats::median(&v)
            })
            .collect();
        // One kind, so that the figure does not switch between kinds as
        // their request counts vary.
        col.set("serve.codec_ms", codec[0]);
        let shares: Vec<String> = (0..SERVE_KINDS.len())
            .map(|k| {
                let (codec, client) = (codec[k], stats::median(&by_kind[k]));
                format!(
                    "{} {codec:.3} of {client:.3} ms ({:.2})",
                    SERVE_KINDS[k],
                    stats::ratio(codec, client)
                )
            })
            .collect();
        col.notes.push(format!(
            "serve: codec p50 (both documents encoded and decoded) of client p50, fresh bodies: {}",
            shares.join(", ")
        ));
    }
    Ok(setup_s)
}
