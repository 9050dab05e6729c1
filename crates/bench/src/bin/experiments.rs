//! Regenerates every table and figure of the paper's evaluation and prints
//! them in one pass (the data recorded in EXPERIMENTS.md).
//!
//! ```text
//! cargo run --release -p fearless-bench --bin experiments
//! ```

fn main() {
    println!("== E1: Table 1 — comparison with related language designs (§9.5) ==");
    println!("{}", fearless_bench::render_table1());

    println!("== E2: checker + verifier speed on the corpus (§5 claim) ==");
    println!("{}", fearless_bench::render_checker_speed());

    println!("== E3: if-disconnected cost, tail detach (§5.2) ==");
    println!(
        "{}",
        fearless_bench::render_disconnect(&[2, 8, 32, 128, 512, 2048, 4096])
    );

    println!("== E4: remove_tail field writes, tempered vs destructive-read (§9.1) ==");
    println!(
        "{}",
        fearless_bench::render_remove_tail_writes(&[2, 8, 32, 128, 512, 2048])
    );

    println!("== E5: branch unification, liveness oracle vs backtracking search (§4.6, §5.1) ==");
    println!("{}", fearless_bench::render_search(&[1, 2, 3], 2_000_000));

    println!("== E6: dynamic reservation-check overhead (§3.2 erasability) ==");
    let o = fearless_bench::reservation_overhead(512);
    println!(
        "steps: {}  checked: {:.2?}  unchecked: {:.2?}  overhead: {:.1}%\n",
        o.steps,
        o.checked,
        o.unchecked,
        100.0 * (o.checked.as_secs_f64() / o.unchecked.as_secs_f64() - 1.0)
    );

    println!("== E7: fearless message passing, seeded random schedules (§7) ==");
    println!("{}", fearless_bench::render_concurrency(&[1, 2, 4, 8], 200));

    println!("== E8: Fig. 4 vs Fig. 5 behavior ==");
    let f = fearless_bench::figure4_outcome();
    println!("fig. 4 statically rejected:        {}", f.fig4_rejected);
    println!("fig. 4 faults dynamically (size 1): {}", f.fig4_faults);
    println!("fig. 5 accepted + dynamically clean: {}", f.fig5_clean);

    println!(
        "\n== E11: chaos throughput + sanitizer overhead under fault injection (fearless-chaos) =="
    );
    let chaos = fearless_bench::chaos_snapshot(25);
    println!(
        "{} scenario(s) x {} seed(s): {} run(s), {} violation(s), {} deferral(s), {} forced \
         redeliver(ies)",
        chaos.scenarios,
        chaos.seeds,
        chaos.runs,
        chaos.violations,
        chaos.deferrals,
        chaos.forced_deliveries
    );
    println!(
        "sanitizer on: {}us  with flow facts: {}us  off: {}us  per-step-walk overhead: {:.1}%",
        chaos.sanitized_micros,
        chaos.sanitized_flow_micros,
        chaos.unsanitized_micros,
        100.0 * (chaos.sanitized_micros as f64 / chaos.unsanitized_micros.max(1) as f64 - 1.0)
    );
    println!(
        "flow facts: {} walk(s) skipped, {} partial walk(s); amortized sweep is {:.1}x faster \
         than the full sanitizer",
        chaos.sanitize_skipped,
        chaos.sanitize_partial_walks,
        chaos.sanitized_micros as f64 / chaos.sanitized_flow_micros.max(1) as f64
    );
    let chaos_json = fearless_bench::render_chaos_snapshot(&chaos);
    std::fs::write("BENCH_chaos.json", &chaos_json).expect("write BENCH_chaos.json");
    println!("wrote BENCH_chaos.json ({} bytes)", chaos_json.len());

    println!("\n== E12: observability layer snapshot (fearless-trace) ==");
    let obs_json = fearless_bench::obs_snapshot();
    std::fs::write("BENCH_obs.json", &obs_json).expect("write BENCH_obs.json");
    println!(
        "wrote BENCH_obs.json ({} bytes; deterministic modulo _nondet keys — \
         compare with `fearlessc bench-diff`)",
        obs_json.len()
    );

    println!("\n== E13: synthesized-corpus scaling, flat batched plan (fearless-synth) ==");
    let synth = fearless_bench::synth_snapshot(4, 1000);
    println!(
        "seed {}: {} functions ({} generated), {} batch(es)",
        synth.seed, synth.total_functions, synth.generated, synth.sched_batches
    );
    println!(
        "cost model (x{} workers): work {} / makespan {} = {:.2}x speedup (gate: >= 2.00x)",
        synth.jobs,
        synth.model_total_work,
        synth.model_makespan,
        synth.model_speedup_x100 as f64 / 100.0
    );
    println!(
        "wall: serial {}us  parallel {}us  cold {}us  warm {}us  journals identical: {}",
        synth.serial_micros,
        synth.parallel_micros,
        synth.cold_micros,
        synth.warm_micros,
        synth.journal_identical
    );
    // Print-only: wall clock is no gate (CI runners may be single-core).
    let measured = synth.serial_micros as f64 / synth.parallel_micros.max(1) as f64;
    let modelled = synth.core_model_speedup_x100 as f64 / 100.0;
    println!(
        "measured speedup {measured:.2}x on {} core(s), modelled {modelled:.2}x on {} worker(s){}",
        synth.available_parallelism,
        synth.jobs.min(synth.available_parallelism),
        if (measured - modelled).abs() / modelled > 0.25 {
            " -- DIVERGES"
        } else {
            ""
        }
    );
    // These two are the experiment's hard claims; fail the whole run
    // rather than write a BENCH document that quietly violates them.
    assert!(
        synth.journal_identical,
        "E13: serial/parallel/cold/warm journals diverged"
    );
    assert!(
        synth.model_speedup_x100 >= 200,
        "E13: modeled parallel speedup {:.2}x below the 2x gate",
        synth.model_speedup_x100 as f64 / 100.0
    );
    let synth_json = fearless_bench::render_synth_snapshot(&synth);
    std::fs::write("BENCH_synth.json", &synth_json).expect("write BENCH_synth.json");
    println!("wrote BENCH_synth.json ({} bytes)", synth_json.len());
}
