//! A small hand-rolled self-scheduling thread pool.
//!
//! The workspace is dependency-free by design (no `rayon`). The
//! workload — batches of independent `check_fn` queries — varies wildly
//! in cost (a three-line accessor vs. a search-heavy red-black-tree
//! rebalance), so static partitioning would leave workers idle while
//! one grinds. Instead every worker claims the next unclaimed item from
//! one shared atomic counter until none are left: a worker that drew
//! cheap items simply claims more. Each worker keeps `(index, result)`
//! pairs and the caller sorts them by index, so the output order is the
//! input order no matter which worker ran what. Determinism of results
//! therefore never depends on the schedule; only wall-clock does.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f` over `items` on `jobs` worker threads, returning results in
/// input order. `jobs <= 1` (or a single item) runs inline on the
/// calling thread with no pool at all. A panicking job propagates its
/// panic to the caller once the other workers have drained the items.
pub fn run_jobs<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = jobs.min(items.len()).max(1);
    if workers == 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = run_jobs(8, &items, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_job_runs_inline() {
        let out = run_jobs(1, &[1, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<i32> = run_jobs(4, &[], |x: &i32| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn skewed_costs_are_rebalanced() {
        // One pathological task plus many cheap ones: the workers that
        // drew cheap items keep claiming, so every cheap task completes
        // while one worker grinds the expensive one.
        let items: Vec<u64> = (0..64).collect();
        let out = run_jobs(4, &items, |&x| {
            if x == 0 {
                // Simulate an expensive check.
                let mut acc = 0u64;
                for i in 0..2_000_000u64 {
                    acc = acc.wrapping_add(i ^ acc);
                }
                acc.wrapping_mul(0) + 1000
            } else {
                x
            }
        });
        assert_eq!(out[0], 1000);
        assert_eq!(out[63], 63);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn more_jobs_than_items() {
        let out = run_jobs(32, &[5, 6], |&x| x);
        assert_eq!(out, vec![5, 6]);
    }

    #[test]
    fn panicking_job_reaches_the_caller() {
        // Under a watchdog: a pool that hangs on a panicking job fails
        // the test instead of stalling the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let items: Vec<u32> = (0..8).collect();
            let caught = std::panic::catch_unwind(|| {
                run_jobs(2, &items, |&x| if x == 0 { panic!("job 0") } else { x })
            });
            let message = caught
                .err()
                .and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the pool hung on a panicking job");
        assert_eq!(message.as_deref(), Some("job 0"));
    }
}
