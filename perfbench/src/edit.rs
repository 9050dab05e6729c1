//! `edit-loop`: an editor's save hook. Each step changes one integer
//! literal of the 121-function base and runs the `check --cache` path and
//! then the `flow --cache` path against a warm cache directory. Every
//! step starts from the cache as warm-up left it, so steps do the same
//! amount of work however many came before.

use std::path::PathBuf;
use std::time::Instant;

use fearless_core::CheckerOptions;
use fearless_flow::FlowCache;
use fearless_incr::{check_units, DiskCache};
use fearless_trace::{MemorySink, Tracer};

use crate::plan::{self, Editable};
use crate::trace::Recorder;
use crate::{check_source_rec, ms_since, parse_rec, stats, Collector, Config, JOBS};

/// Generated functions in the base (121 with the prelude).
pub const GENERATED: usize = 60;

/// Share of a save step spent scanning bytes, for the calibration
/// kernel: `DiskCache::load`'s JSON reader re-validates the rest of the
/// document as UTF-8 for every string character, and takes about four
/// fifths of the step. Measure it again if that reader changes.
pub const SCAN_SHARE: f64 = 0.8;

/// The base, its cache directory, and the directory's warm contents.
pub struct EditSetup {
    /// The editable base program.
    pub ed: Editable,
    /// The cache directory both halves of a step use.
    pub dir: PathBuf,
    /// The cache files as warm-up left them.
    pub warm: Vec<(PathBuf, Vec<u8>)>,
}

/// What one step produced, for the correctness check.
pub struct StepOutput {
    /// The incremental check's verdict and totals.
    pub check: Result<(u64, u64), String>,
    /// The cached flow analysis' JSON.
    pub flow: Result<String, String>,
}

/// Synthesizes the base and warms a fresh cache directory with one run
/// of each half on the unedited text.
/// Also returns the synthesizer's time in ms.
pub fn setup(dir: PathBuf) -> Result<(EditSetup, f64), String> {
    let t = Instant::now();
    let base = fearless_synth::synthesize(&plan::synth_options(GENERATED));
    let synth_ms = ms_since(t);
    let ed = Editable::new(base)?;
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create cache dir: {e}"))?;
    let mut s = EditSetup {
        ed,
        dir,
        warm: Vec::new(),
    };
    let base = s.ed.base.clone();
    let out = step(&s, &base, &mut Recorder::new(false)).1;
    out.check?;
    out.flow?;
    for name in [fearless_incr::disk::CACHE_FILE, fearless_flow::CACHE_FILE] {
        let path = s.dir.join(name);
        let bytes = std::fs::read(&path).map_err(|e| format!("warm cache missing: {e}"))?;
        s.warm.push((path, bytes));
    }
    Ok((s, synth_ms))
}

/// Puts the warm cache files back.
pub fn restore(s: &EditSetup) -> Result<(), String> {
    for (path, bytes) in &s.warm {
        std::fs::write(path, bytes).map_err(|e| format!("cannot restore cache: {e}"))?;
    }
    Ok(())
}

/// One save step on `text`; returns its time in ms and its outputs.
pub fn step(s: &EditSetup, text: &str, rec: &mut Recorder) -> (f64, StepOutput) {
    let opts = CheckerOptions::default();
    rec.enter("op.edit");
    let t = Instant::now();

    // `fearlessc check --cache <dir>`.
    rec.enter("incr.cache_load");
    let mut cache = DiskCache::load(&s.dir);
    rec.exit();
    let check = parse_rec(text, rec)
        .map_err(|e| e.render(text))
        .and_then(|program| {
            let units = vec![(String::new(), program)];
            rec.enter("incr.check_units");
            let mut sink = MemorySink::new();
            let run = {
                let mut tracer = if rec.is_on() {
                    Tracer::new(&mut sink)
                } else {
                    Tracer::off()
                };
                check_units(&units, &opts, JOBS, Some(&mut cache), &mut tracer)
            };
            rec.add("incr.cache_hits", run.stats.hits as f64);
            rec.add("incr.cache_misses", run.stats.misses as f64);
            crate::add_check_counters(rec, &sink);
            rec.exit();
            rec.enter("incr.cache_save");
            let saved = cache.save();
            rec.exit();
            saved?;
            let unit = &run.units[0];
            match unit.first_error() {
                Some(e) => Err(e.render(text)),
                None => Ok((unit.total_nodes(), unit.total_vir_steps())),
            }
        });

    // `fearlessc flow --cache <dir>`.
    rec.enter("flow.cache_load");
    let mut fc = FlowCache::load(&s.dir);
    rec.exit();
    let flow = check_source_rec(text, &opts, rec).and_then(|checked| {
        rec.enter("flow.cached");
        let flow = fearless_flow::analyze_checked_cached(&checked, &mut fc);
        let (hits, misses) = fc.stats();
        rec.add("flow.cache_hits", hits as f64);
        rec.add("flow.cache_misses", misses as f64);
        rec.exit();
        let flow = flow.map_err(|e| e.to_string())?;
        rec.enter("flow.cache_save");
        let saved = fc.save();
        rec.exit();
        saved?;
        Ok(flow)
    });
    let ms = ms_since(t);
    rec.exit();
    (
        ms,
        StepOutput {
            check,
            flow: flow.map(|f| f.to_json()),
        },
    )
}

/// Checks a step against a cold, cacheless run of the same text.
pub fn verify_step(text: &str, out: &StepOutput) -> Result<(), String> {
    let opts = CheckerOptions::default();
    let cold = fearless_core::check_source(text, &opts).map_err(|e| e.render(text))?;
    let want = (cold.total_nodes() as u64, cold.total_vir_steps() as u64);
    match &out.check {
        Ok(got) if *got == want => {}
        Ok(got) => return Err(format!("incremental totals {got:?}, cold {want:?}")),
        Err(e) => return Err(format!("incremental check rejected: {e}")),
    }
    let flow = fearless_flow::analyze_checked(&cold)
        .map_err(|e| e.to_string())?
        .to_json();
    match &out.flow {
        Ok(got) if *got == flow => Ok(()),
        Ok(_) => Err("cached flow JSON differs from the uncached analysis".into()),
        Err(e) => Err(format!("cached flow failed: {e}")),
    }
}

/// Runs the workload.
pub fn run(cfg: &Config, col: &mut Collector, rec: &mut Recorder) -> Result<f64, String> {
    let dir = cfg.work_dir.join("edit-cache");
    let mut synth = Vec::new();
    // Set-up checks a cold cache and scans no cache document.
    let (s, setup_s) = crate::timed_setups(
        0.0,
        |_| {
            let (s, ms) = setup(dir.clone())?;
            synth.push(ms);
            Ok(s)
        },
        drop,
    )?;
    col.set("synth.ms", stats::median(&synth));
    let result = run_steps(cfg, &s, col, rec);
    let _ = std::fs::remove_dir_all(&s.dir);
    result?;
    Ok(setup_s)
}

/// The measured loop over a prepared setup.
pub fn run_steps(
    cfg: &Config,
    s: &EditSetup,
    col: &mut Collector,
    rec: &mut Recorder,
) -> Result<(), String> {
    let mut off = Recorder::new(false);
    let mut cal = crate::Calibration::start(col, SCAN_SHARE);
    let deadline = cfg.seconds * 1e3;
    let mut spent = 0.0;
    let mut i = 0u64;
    while i == 0 || spent < deadline {
        let text = s.ed.apply(&plan::edit_step(&s.ed, cfg.seed, i));
        // The traced run does each step twice, alternating which goes
        // first, so both see the same edits.
        let order: &[bool] = match (rec.is_on(), i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in order {
            restore(s)?;
            let (ms, out) = if traced {
                step(s, &text, rec)
            } else {
                step(s, &text, &mut off)
            };
            spent += ms;
            if traced {
                col.sample("edit", ms, true);
                let bytes = s.warm.iter().map(|(_, b)| b.len()).next().unwrap_or(0);
                rec.add("incr.cache_bytes", bytes as f64);
                let probed = crate::source_probes(&text, rec);
                col.check(probed, || format!("edit step {i}: a probe failed"));
            } else {
                cal.record(col, "edit", ms);
            }
            let verdict = verify_step(&text, &out);
            col.check(verdict.is_ok(), || {
                format!("edit step {i}: {}", verdict.unwrap_err())
            });
        }
        i += 1;
    }
    cal.flush(col);
    let samples = col.samples["edit"].clone();
    col.set("edit_p50_ms", stats::median(&samples));
    col.set("edit_p90_ms", stats::quantile(&samples, 0.9));
    Ok(())
}
