//! Synchronisation primitives for the threaded partitioned driver.
//!
//! [`SpinBarrier`] is the barrier the driver's workers and coordinator
//! cross three times per superstep; DESIGN.md "Barrier tiers" has the
//! measurements that motivated the tiered wait.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Spins before yielding in [`SpinBarrier::wait`]. A balanced superstep's
/// stragglers usually arrive within this many spins; the yield path only
/// triggers when a peer is descheduled.
const SPIN_LIMIT: u32 = 1 << 10;

/// Yield rounds after the spin budget before parking on the condvar.
/// Yielding is enough when peers are merely timesliced out; parking only
/// happens when the system is genuinely oversubscribed for a while.
const YIELD_LIMIT: u32 = 64;

/// Sense-reversing barrier with a tiered wait: spin on the generation
/// counter (with [`std::hint::spin_loop`]) for [`SPIN_LIMIT`] rounds, then
/// [`std::thread::yield_now`] for [`YIELD_LIMIT`] rounds, then park on a
/// condvar. The common microsecond-scale step resolves in the spin tier
/// without entering the kernel; the park tier keeps the barrier from
/// burning scheduler quanta when there are fewer cores than parties (a
/// waiter's spin cycles are then stolen from the very peer it waits for —
/// spinning is skipped outright in that case).
pub(crate) struct SpinBarrier {
    parties: usize,
    /// Per-instance spin budget: [`SPIN_LIMIT`], or 0 when the machine
    /// cannot run all parties concurrently anyway.
    spin: u32,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    lock: Mutex<()>,
    parked: Condvar,
}

impl SpinBarrier {
    pub(crate) fn new(parties: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self {
            parties,
            spin: if cores >= parties { SPIN_LIMIT } else { 0 },
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            lock: Mutex::new(()),
            parked: Condvar::new(),
        }
    }

    pub(crate) fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arriver: reset the count, then open the next generation.
            // The release store on `generation` publishes the reset (and
            // all pre-barrier writes) to every waiter's acquire load.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            // Taking (and dropping) the lock between the generation bump
            // and the notify closes the park race: a waiter that saw the
            // old generation either re-checks it under this lock before
            // parking, or is already parked and receives the notify.
            drop(self.lock.lock().expect("barrier lock poisoned"));
            self.parked.notify_all();
        } else {
            let mut rounds = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if rounds < self.spin {
                    std::hint::spin_loop();
                } else if rounds < self.spin + YIELD_LIMIT {
                    std::thread::yield_now();
                } else {
                    let mut guard = self.lock.lock().expect("barrier lock poisoned");
                    while self.generation.load(Ordering::Acquire) == gen {
                        guard = self.parked.wait(guard).expect("barrier lock poisoned");
                    }
                    break;
                }
                rounds += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn barrier_synchronises_generations() {
        let barrier = SpinBarrier::new(3);
        let counter = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for round in 0..50u64 {
                        counter.fetch_add(1, Ordering::AcqRel);
                        barrier.wait();
                        // Between two waits, every party has bumped.
                        assert!(counter.load(Ordering::Acquire) >= (round + 1) * 3);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Acquire), 150);
    }
}
