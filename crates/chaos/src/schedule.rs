//! The adversarial [`Schedule`]: every decision the machine delegates —
//! which thread steps, how long it runs, whether a ready rendezvous
//! delivers, which sender/receiver pair meets — is answered from a
//! seeded PRNG filtered through a [`FaultSpec`].
//!
//! Determinism is the load-bearing property: the schedule's decisions
//! depend on no state but the seed's generator stream and the
//! last-picked thread, so identical (program, config, seed, faults) runs
//! make identical decisions and the machine's `Stats` and trace come out
//! byte-identical.

use std::cell::Cell;
use std::rc::Rc;

use fearless_runtime::Schedule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::faults::FaultSpec;

/// A schedule's fault counters, shared through [`ChaosSchedule::counters`]
/// so they stay readable after the machine consumes the boxed schedule.
#[derive(Debug, Default)]
pub struct FaultCounters {
    deferrals: Cell<u64>,
    forced: Cell<u64>,
}

impl FaultCounters {
    /// Rendezvous deliveries the schedule deferred.
    pub fn deferrals(&self) -> u64 {
        self.deferrals.get()
    }

    /// Deferred deliveries the machine had to force (redelivery
    /// guarantee kicking in).
    pub fn forced(&self) -> u64 {
        self.forced.get()
    }
}

/// Seeded adversarial scheduler.
#[derive(Debug)]
pub struct ChaosSchedule {
    rng: StdRng,
    faults: FaultSpec,
    last: Option<usize>,
    counters: Rc<FaultCounters>,
}

impl ChaosSchedule {
    /// A schedule drawing every decision from `seed` under `faults`.
    pub fn new(seed: u64, faults: FaultSpec) -> Self {
        ChaosSchedule {
            rng: StdRng::seed_from_u64(seed),
            faults,
            last: None,
            counters: Rc::default(),
        }
    }

    /// A handle on this schedule's fault counters.
    pub fn counters(&self) -> Rc<FaultCounters> {
        Rc::clone(&self.counters)
    }
}

impl Schedule for ChaosSchedule {
    fn pick(&mut self, runnable: &[usize]) -> usize {
        if self.faults.contend {
            // Run-to-block bias: keep stepping the previous thread so
            // senders/receivers pile up on channels. One rng draw either
            // way keeps the decision stream seed-deterministic.
            let stick = self.rng.gen_range(0..4u8) != 0;
            if let Some(last) = self.last {
                if stick && runnable.contains(&last) {
                    return last;
                }
            }
        }
        let t = runnable[self.rng.gen_range(0..runnable.len())];
        self.last = Some(t);
        t
    }

    fn quantum(&mut self) -> u32 {
        if self.faults.preempt {
            1 // a fresh scheduling decision at every small-step boundary
        } else {
            1 + self.rng.gen_range(0..16u32)
        }
    }

    fn defer_delivery(&mut self, _ch: u16) -> bool {
        // `drop` defers aggressively (the message looks lost until the
        // machine forces redelivery); `delay` defers occasionally.
        let chance_in_8: u64 = if self.faults.drop {
            6
        } else if self.faults.delay {
            2
        } else {
            0
        };
        if chance_in_8 == 0 {
            return false;
        }
        let defer = self.rng.gen_range(0..8u64) < chance_in_8;
        if defer {
            let deferrals = &self.counters.deferrals;
            deferrals.set(deferrals.get() + 1);
        }
        defer
    }

    fn pick_pair(&mut self, senders: &[usize], receivers: &[usize]) -> (usize, usize) {
        if self.faults.reorder {
            (
                senders[self.rng.gen_range(0..senders.len())],
                receivers[self.rng.gen_range(0..receivers.len())],
            )
        } else {
            (senders[0], receivers[0])
        }
    }

    fn on_forced_delivery(&mut self, _ch: u16) {
        let forced = &self.counters.forced;
        forced.set(forced.get() + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decision_stream() {
        let mut a = ChaosSchedule::new(42, FaultSpec::all());
        let mut b = ChaosSchedule::new(42, FaultSpec::all());
        let runnable = [0usize, 1, 2, 5];
        for _ in 0..500 {
            assert_eq!(a.pick(&runnable), b.pick(&runnable));
            assert_eq!(a.quantum(), b.quantum());
            assert_eq!(a.defer_delivery(3), b.defer_delivery(3));
            assert_eq!(a.pick_pair(&[1, 2], &[0, 3]), b.pick_pair(&[1, 2], &[0, 3]));
        }
        assert_eq!(a.counters().deferrals(), b.counters().deferrals());
    }

    #[test]
    fn faultless_spec_is_eager_and_ordered() {
        let mut s = ChaosSchedule::new(7, FaultSpec::none());
        for _ in 0..100 {
            assert!(!s.defer_delivery(0), "no delay/drop faults ⇒ eager");
        }
        assert_eq!(s.pick_pair(&[4, 9], &[2, 8]), (4, 2), "no reorder ⇒ fifo");
        assert_eq!(s.counters().deferrals(), 0);
    }

    #[test]
    fn preempt_forces_quantum_one() {
        let mut s = ChaosSchedule::new(
            1,
            FaultSpec {
                preempt: true,
                ..FaultSpec::none()
            },
        );
        for _ in 0..50 {
            assert_eq!(s.quantum(), 1);
        }
    }
}
