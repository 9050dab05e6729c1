//! The benchmark's own tests: plans are pure functions of the seed, a
//! held-out seed passes every correctness check, and a wrong expected
//! answer is counted as a failure.

use std::path::PathBuf;

use perfbench::plan::{self, Editable};
use perfbench::trace::Recorder;
use perfbench::{batch, edit, sanitized, serve, Collector, Config, Workload};

const HELD_OUT: u64 = 7;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(workload: Workload, seed: u64, seconds: f64, work_dir: PathBuf) -> Config {
    Config {
        workload,
        seed,
        seconds,
        trace: false,
        work_dir,
    }
}

fn edit_base() -> Editable {
    Editable::new(fearless_synth::synthesize(&plan::synth_options(
        edit::GENERATED,
    )))
    .unwrap()
}

#[test]
fn the_same_seed_gives_the_same_plan() {
    let ed = edit_base();
    let edits = |seed| {
        (0..50)
            .map(|i| plan::edit_step(&ed, seed, i))
            .collect::<Vec<_>>()
    };
    assert_eq!(edits(42), edits(42));
    assert_ne!(edits(42), edits(HELD_OUT));
    let mix = |seed| {
        (0..200)
            .map(|g| plan::serve_request(seed, g))
            .collect::<Vec<_>>()
    };
    assert_eq!(mix(42), mix(42));
    assert_ne!(mix(42), mix(HELD_OUT));
    let schedules = |seed| {
        (0..20)
            .map(|s| plan::schedule_seed(seed, s, s % 5))
            .collect::<Vec<_>>()
    };
    assert_eq!(schedules(42), schedules(42));
    assert_eq!(plan::order(42, 3, 4), plan::order(42, 3, 4));
}

#[test]
fn the_serve_mix_has_the_designed_shape() {
    let plan: Vec<_> = (0..4000).map(|g| plan::serve_request(42, g)).collect();
    let repeats = plan
        .iter()
        .enumerate()
        .filter(|(g, r)| r.origin != *g as u64);
    let share = repeats.count() as f64 / plan.len() as f64;
    assert!((0.2..0.3).contains(&share), "repeat share {share}");
    let fresh: Vec<_> = plan
        .iter()
        .enumerate()
        .filter(|(g, r)| r.origin == *g as u64)
        .collect();
    let checks = fresh.iter().filter(|(_, r)| r.kind == 0).count() as f64;
    assert!((0.55..0.65).contains(&(checks / fresh.len() as f64)));
    for (g, r) in plan.iter().enumerate() {
        assert!(r.origin <= g as u64);
        assert_eq!(plan[r.origin as usize], *r);
    }
}

#[test]
fn held_out_edits_are_well_typed_and_move_one_fingerprint() {
    let opts = fearless_core::CheckerOptions::default();
    let ed = edit_base();
    let base = fearless_syntax::parse_program(&ed.base).unwrap();
    let base_fps = fearless_core::program_fingerprints(&base, &opts).unwrap();
    for i in 0..12 {
        let text = ed.apply(&plan::edit_step(&ed, HELD_OUT, i));
        assert_ne!(text, ed.base);
        let program = fearless_syntax::parse_program(&text).unwrap();
        fearless_core::check_program(&program, &opts).unwrap();
        let fps = fearless_core::program_fingerprints(&program, &opts).unwrap();
        let moved = fps.iter().zip(&base_fps).filter(|(a, b)| a != b).count();
        assert_eq!(moved, 1, "edit {i} moved {moved} fingerprints");
    }
    let serve_ed = Editable::new(plan::serve_base()).unwrap();
    for g in 0..12 {
        let req = plan::serve_request(HELD_OUT, g);
        let text = serve::body(&serve_ed, HELD_OUT, req);
        fearless_core::check_source(&text, &opts).unwrap();
    }
}

#[test]
fn held_out_seed_passes_the_edit_loop_checks() {
    let dir = scratch("edit");
    let cfg = config(Workload::EditLoop, HELD_OUT, 0.001, dir.clone());
    let (s, _) = edit::setup(dir.join("cache")).unwrap();
    let mut col = Collector::default();
    edit::run_steps(&cfg, &s, &mut col, &mut Recorder::new(false)).unwrap();
    assert!(col.attempted >= 1);
    assert_eq!(col.failed, 0, "{:?}", col.failures);

    // A deliberately wrong expected answer is a failure.
    let text = s.ed.apply(&plan::edit_step(&s.ed, HELD_OUT, 0));
    edit::restore(&s).unwrap();
    let (_, mut out) = edit::step(&s, &text, &mut Recorder::new(false));
    assert!(edit::verify_step(&text, &out).is_ok());
    out.check = out.check.map(|(nodes, vir)| (nodes + 1, vir));
    assert!(edit::verify_step(&text, &out).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn held_out_seed_passes_the_sanitized_checks_and_a_wrong_reference_fails() {
    let ps = sanitized::setup().unwrap();
    let mut col = Collector::default();
    for i in 0..2 {
        for on in [true, false] {
            sanitized::sweep(&ps, on, HELD_OUT, i, &mut Recorder::new(false), &mut col);
        }
    }
    assert_eq!(col.failed, 0, "{:?}", col.failures);

    let mut wrong = sanitized::setup().unwrap();
    wrong[0].reference.push_str("t9=0;");
    let mut col = Collector::default();
    sanitized::sweep(
        &wrong,
        true,
        HELD_OUT,
        0,
        &mut Recorder::new(false),
        &mut col,
    );
    assert_eq!(col.failed, 1);
}

#[test]
fn held_out_seed_passes_the_serve_checks_and_a_wrong_answer_fails() {
    let dir = scratch("serve");
    let (mut s, _) = serve::setup(dir.join("d")).unwrap();
    let records = serve::drive(&mut s, HELD_OUT, 0.3).records;
    let ed = s.ed.clone();
    serve::teardown(s).unwrap();
    assert!(!records.is_empty());
    let mut refs = serve::references(&ed, HELD_OUT, &records, &mut Recorder::new(false));
    let mut col = Collector::default();
    serve::check_records(&records, &refs, &mut col);
    assert_eq!(col.failed, 0, "{:?}", col.failures);

    let first = records[0].req.origin;
    refs.get_mut(&first).unwrap().0 = Ok("0000000000000000".into());
    let mut col = Collector::default();
    serve::check_records(&records, &refs, &mut col);
    assert!(col.failed >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The batch set-up on an 8-function program, with the digests of that
/// program's answers in place of the committed ones; also returns the
/// committed digests.
fn small_batch() -> (batch::BatchSetup, (String, String)) {
    let opts = fearless_core::CheckerOptions::default();
    let (mut s, _) = batch::setup(8).unwrap();
    let flow = fearless_flow::analyze_source(&s.src, &opts).unwrap();
    let lint = fearless_analyze::analyze_source(&s.src, &opts).unwrap();
    let committed = (s.flow_digest.clone(), s.lint_digest.clone());
    s.flow_digest = fearless_incr::checksum_hex(&flow.to_json());
    s.lint_digest = fearless_incr::checksum_hex(&lint.to_json(&s.src));
    (s, committed)
}

#[test]
fn batch_checks_pass_on_right_digests_and_fail_on_wrong_ones() {
    let (mut s, committed) = small_batch();
    let cfg = config(Workload::BatchCold, HELD_OUT, 0.001, scratch("batch"));
    let mut col = Collector::default();
    batch::run_ops(&cfg, &s, &mut col, &mut Recorder::new(false));
    assert_eq!(col.failed, 0, "{:?}", col.failures);

    // The committed digests belong to the 1061-function program, so on
    // this one they are wrong answers.
    (s.flow_digest, s.lint_digest) = committed;
    let mut col = Collector::default();
    batch::run_ops(&cfg, &s, &mut col, &mut Recorder::new(false));
    assert_eq!(col.failed, 2, "{:?}", col.failures);
}

#[test]
fn a_traced_batch_run_passes_its_probes_and_accounts_for_every_operation() {
    let (s, _) = small_batch();
    let mut cfg = config(Workload::BatchCold, HELD_OUT, 0.001, scratch("traced"));
    cfg.trace = true;
    let mut col = Collector::default();
    let mut rec = Recorder::new(true);
    batch::run_ops(&cfg, &s, &mut col, &mut rec);
    assert_eq!(col.failed, 0, "{:?}", col.failures);

    let ops = rec.breakdown();
    for kind in [
        "op.check",
        "op.verify",
        "op.flow",
        "op.lint",
        "probe.serial",
        "probe.plan",
        "probe.parse",
        "probe.env",
        "probe.fingerprint",
        "probe.compile",
    ] {
        assert!(ops.iter().any(|o| o.op == kind), "no {kind} span");
    }
    for op in &ops {
        let sum: f64 = op.layers.values().sum();
        assert!(
            (sum - op.total_ms).abs() <= 1e-6 * op.total_ms.max(1.0),
            "{}: layers add up to {sum} of {} ms",
            op.op,
            op.total_ms
        );
    }
    // The prover's time and counters come from the checker's own spans.
    for op in ops.iter().filter(|o| o.op == "op.verify") {
        assert!(op.layers["core.prove"] > 0.0);
        assert!(op.layers["core.check_source"] >= 0.0);
        assert!(op.counters["core.deriv_nodes"] > 0.0);
    }
    assert!(col.values["incr.speedup_model"] > 0.0);
    assert!(col.values["incr.speedup_measured"] > 0.0);
}

#[test]
fn benchmark_json_lists_the_metrics_the_program_prints() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).unwrap();
    let names = |section: &str| -> Vec<String> {
        let body = doc.split(&format!("\"{section}\"")).nth(1).unwrap();
        let body = &body[..body.find(']').unwrap()];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    };
    let want = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names("end_to_end"), want(perfbench::END_TO_END));
    assert_eq!(names("per_layer"), want(perfbench::PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names("workloads"), workloads);
}
