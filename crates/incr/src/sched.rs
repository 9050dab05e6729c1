//! Flat, batched planning of per-function check jobs.
//!
//! The checker is signature-modular (§4.4): each function checks against
//! its callees' signatures, never their derivations, so per-function
//! jobs have no ordering constraint at all. What does matter at
//! thousands of functions is per-task pool overhead, which rivals the
//! cost of checking a small accessor. So the plan chunks the miss list,
//! as given in `(unit, function)` definition order, into contiguous
//! batches: the pool sees a few multi-function tasks instead of
//! thousands of single-function ones. The batch size targets
//! [`BATCHES_PER_WORKER`] batches per worker (capped at [`MAX_BATCH`])
//! so the self-scheduling pool can still rebalance skewed costs.
//!
//! Output bytes cannot depend on the plan: the driver reassembles
//! outcomes and replays trace spans in definition order afterwards. The
//! plan also feeds the deterministic [`cost_model`]: a
//! machine-independent parallel-speedup estimate that benches gate on
//! (see `docs/OBSERVABILITY.md`, BENCH_synth.json).

use fearless_syntax::Program;

/// Target number of batches per worker; more gives the pool room to
/// rebalance, fewer amortizes pool overhead.
pub const BATCHES_PER_WORKER: usize = 4;

/// Hard cap on jobs per batch, so one batch never serializes a large
/// share of the work on a single worker.
pub const MAX_BATCH: usize = 32;

/// Shape summary of a [`Schedule`], carried on
/// [`crate::CheckRun::schedule`] for benches and diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Total jobs scheduled (= cache misses).
    pub jobs: usize,
    /// Number of batches issued to the pool.
    pub batches: usize,
}

/// A batched issue plan for a set of misses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Batches in issue order: contiguous runs of the miss list, each a
    /// list of `(unit index, function index)` jobs.
    pub batches: Vec<Vec<(usize, usize)>>,
    /// Shape summary.
    pub stats: ScheduleStats,
}

/// Plans the issue order for `misses` (pairs of unit index and function
/// index, in definition order) on `workers` workers. Deterministic: the
/// plan is a pure function of its arguments.
///
/// `_units` is unused; it is kept only because `perfbench` calls this
/// signature, and the next benchmark-only change can drop it.
pub fn plan(_units: &[(String, Program)], misses: &[(usize, usize)], workers: usize) -> Schedule {
    let target = misses.len().div_ceil(workers.max(1) * BATCHES_PER_WORKER);
    let batches: Vec<Vec<(usize, usize)>> = misses
        .chunks(target.clamp(1, MAX_BATCH))
        .map(<[_]>::to_vec)
        .collect();
    Schedule {
        stats: ScheduleStats {
            jobs: misses.len(),
            batches: batches.len(),
        },
        batches,
    }
}

/// Deterministic parallel cost model of a schedule.
///
/// `total_work` is the summed per-job cost; `makespan` is the simulated
/// completion time of greedy list scheduling: each batch, in issue
/// order, goes to the least-loaded worker (ties to the lowest index),
/// with no barriers — exactly what the self-scheduling pool does.
/// `speedup_x100` is `100 · total_work / makespan`.
///
/// With cost = measured derivation nodes per function, this yields a
/// machine-independent speedup figure that BENCH_synth.json gates on:
/// it captures exactly the two things the plan controls (balance and
/// batch granularity) while staying byte-reproducible on any host —
/// including single-core CI runners where wall-clock parallel speedup
/// is unmeasurable by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostModel {
    /// Summed cost over all jobs.
    pub total_work: u64,
    /// Simulated makespan on the given worker count.
    pub makespan: u64,
    /// `100 · total_work / makespan`, i.e. 200 ⇔ 2.00x.
    pub speedup_x100: u64,
}

/// Simulates `schedule` on `workers` workers, costing each job with
/// `cost` (use measured derivation nodes; anything ≥ 1 works).
pub fn cost_model(
    schedule: &Schedule,
    workers: usize,
    cost: &mut dyn FnMut(usize, usize) -> u64,
) -> CostModel {
    let mut loads = vec![0u64; workers.max(1)];
    let mut total_work = 0u64;
    for batch in &schedule.batches {
        let c: u64 = batch.iter().map(|&(ui, fi)| cost(ui, fi).max(1)).sum();
        total_work += c;
        let w = (0..loads.len()).min_by_key(|&w| loads[w]).unwrap_or(0);
        loads[w] += c;
    }
    let makespan = loads.into_iter().max().unwrap_or(0);
    let speedup_x100 = (total_work * 100).checked_div(makespan).unwrap_or(100);
    CostModel {
        total_work,
        makespan,
        speedup_x100,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_unit(functions: usize) -> Vec<(usize, usize)> {
        (0..functions).map(|fi| (0, fi)).collect()
    }

    #[test]
    fn batches_chunk_the_miss_list() {
        // 100 functions on 2 workers: chunked into
        // ceil(100 / (2*4)) = 13-job batches → 8 batches.
        let misses = one_unit(100);
        let s = plan(&[], &misses, 2);
        assert_eq!(s.stats.jobs, 100);
        assert_eq!(s.stats.batches, 8);
        assert!(s.batches.iter().all(|b| b.len() <= 13));
        // Definition order, end to end.
        assert_eq!(s.batches.concat(), misses);
    }

    #[test]
    fn partial_miss_set_plans_exactly_those_misses_in_order() {
        let misses = [(0, 1), (0, 4), (1, 0), (1, 2), (3, 7)];
        let s = plan(&[], &misses, 1);
        // ceil(5 / 4) = 2-job contiguous chunks.
        assert_eq!(
            s.batches,
            vec![vec![(0, 1), (0, 4)], vec![(1, 0), (1, 2)], vec![(3, 7)]]
        );
        assert_eq!(s.stats.jobs, 5);
        assert_eq!(s.stats.batches, 3);
    }

    #[test]
    fn empty_plan_is_empty() {
        let s = plan(&[], &[], 4);
        assert_eq!(s, Schedule::default());
    }

    #[test]
    fn cost_model_balances_independent_work() {
        let s = plan(&[], &one_unit(64), 4);
        let m = cost_model(&s, 4, &mut |_, _| 10);
        assert_eq!(m.total_work, 640);
        // 64 equal jobs on 4 workers: near-perfect balance.
        assert!(m.speedup_x100 >= 350, "got {}", m.speedup_x100);
    }

    #[test]
    fn cost_model_serial_is_1x() {
        let s = plan(&[], &one_unit(3), 1);
        let m = cost_model(&s, 1, &mut |_, _| 7);
        assert_eq!(m.speedup_x100, 100);
        assert_eq!(m.total_work, m.makespan);
    }
}
