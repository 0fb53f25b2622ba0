//! The threaded BSP driver: a persistent worker pool over a
//! [`PartitionPlan`].
//!
//! Each worker owns a fixed set of partitions (round-robin by partition
//! index, so range-partitioned load spreads evenly) and the coordinator
//! — the calling thread — owns the [`Recorder`] and every observer hook.
//! One superstep crosses a single reusable [`SpinBarrier`] three times:
//!
//! 1. **open** — the coordinator publishes the superstep time; workers
//!    run the compute phase for their partitions and push cut spikes
//!    onto the SPSC channel rings. Each channel has exactly one producer
//!    (the owner of its source partition) and pushes happen strictly
//!    before the next crossing, so the ring contract holds untouched.
//! 2. **publish** — every push is now visible; workers run the merge
//!    phase (drain inbound channels, k-way merge into their wheels) and
//!    write their per-superstep outputs into their [`WorkerOut`] cell.
//! 3. **close** — outputs are visible; the coordinator replays the exact
//!    sequential bookkeeping sequence (spike-batch hook, update counter,
//!    globally sorted fired list, step record, delivery counter, step /
//!    scheduler / cut-traffic hooks, stop check) from the cell contents.
//!
//! Why the numbers cannot change: partitions are computed and merged by
//! exactly the code the sequential driver uses (the event engine's
//! `EventState::step`, [`merge_schedule`]), only grouped by owner instead
//! of by index; every
//! cross-partition value the coordinator folds (batch, update, delivery
//! counts, scheduler occupancy) is a sum of `u64`s, which is
//! order-insensitive; the fired list is re-sorted globally, erasing
//! concatenation order; and per-target f64 accumulation order lives
//! entirely inside the per-partition merge, which is untouched. The
//! barriers provide the happens-before edges (release on `generation`,
//! acquire in `wait`), so no data race can reorder any of it.
//!
//! The cells are `Mutex`-wrapped only to satisfy `Sync` under this
//! crate's `#![forbid(unsafe_code)]`: a cell is written by its worker
//! between crossings 2 and 3 and read by the coordinator after crossing
//! 3, so the locks are never contended.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sgl_observe::{RunObserver, SchedulerStats, StepRecord};

use crate::engine::sync::SpinBarrier;
use crate::engine::{Recorder, RunConfig, RunResult, StopCondition, StopReason};
use crate::error::SnnError;
use crate::types::{NeuronId, Time};

use super::channel::SpikeChannel;
use super::engine::{
    aggregate_scheduler, emit_cut_traffic, merge_schedule, publish_cut, PartState,
    PartitionRunStats, WorkerStats,
};
use super::plan::PartitionPlan;

/// Per-superstep outputs of one worker, read by the coordinator after
/// the close crossing.
struct WorkerOut {
    /// Global ids fired by this worker's partitions (concatenated in
    /// owned-partition order; the coordinator re-sorts globally).
    fired: Vec<NeuronId>,
    /// Sum of wheel-drain batch lengths across owned partitions.
    batch: u64,
    /// Sum of neuron updates across owned partitions.
    updates: u64,
    /// Deliveries scheduled by the merge phase across owned partitions.
    deliveries: u64,
    /// Earliest pending delivery across owned wheels after the merge.
    next_time: Option<Time>,
    /// Whether every owned wheel is empty after the merge.
    wheels_empty: bool,
    /// Scheduler occupancy summed over owned wheels (observed runs only).
    sched: SchedulerStats,
    /// Inbound message counts, `tick_traffic[from * parts + to]` for the
    /// destinations this worker owns (disjoint across workers).
    tick_traffic: Vec<u64>,
    /// Nanoseconds in compute + merge this superstep.
    busy_ns: u64,
    /// Nanoseconds blocked at barriers since the previous report.
    wait_ns: u64,
}

/// The coordinator half of the threaded driver. Entered from
/// [`PartitionPlan::run_observed_threaded`] after the `t = 0` superstep ran
/// sequentially (injection is cheap and touches every partition's wheel,
/// so threading it buys nothing) with `workers >= 2` already decided.
#[allow(clippy::too_many_arguments)]
pub(super) fn run_threaded<O: RunObserver>(
    plan: &PartitionPlan,
    config: &RunConfig,
    obs: &mut O,
    mut rec: Recorder,
    mut states: Vec<PartState>,
    channels: Vec<Option<SpikeChannel>>,
    mut fired_global: Vec<NeuronId>,
    mut tick_traffic: Vec<u64>,
    mut supersteps: u64,
    workers: usize,
) -> Result<(RunResult, PartitionRunStats), SnnError> {
    let p = plan.parts();

    // Resolve the first superstep before the states move to the workers;
    // a run that is already quiescent (or out of budget) never spawns.
    let first = super::engine::next_superstep(&mut states);
    let needs_pool = match first {
        Some(t) => t <= config.max_steps,
        None => false,
    };
    if !needs_pool {
        let result = if states.iter().all(|st| st.ev.wheel.is_empty()) {
            rec.finish(0, StopReason::Quiescent, config, obs)?
        } else {
            rec.finish(config.max_steps, StopReason::MaxStepsReached, config, obs)?
        };
        let mut stats = plan.traffic_stats(&channels, supersteps);
        stats.threads = workers;
        return Ok((result, stats));
    }

    // Round-robin ownership: partition q belongs to worker q % workers.
    let mut owned: Vec<Vec<(usize, PartState)>> = (0..workers).map(|_| Vec::new()).collect();
    for (q, st) in states.into_iter().enumerate() {
        owned[q % workers].push((q, st));
    }

    let cells: Vec<Mutex<WorkerOut>> = owned
        .iter()
        .map(|_| {
            Mutex::new(WorkerOut {
                fired: Vec::new(),
                batch: 0,
                updates: 0,
                deliveries: 0,
                next_time: None,
                wheels_empty: true,
                sched: SchedulerStats::default(),
                tick_traffic: vec![0u64; p * p],
                busy_ns: 0,
                wait_ns: 0,
            })
        })
        .collect();
    let mut wstats: Vec<WorkerStats> = owned
        .iter()
        .enumerate()
        .map(|(w, o)| WorkerStats {
            worker: w as u32,
            partitions: o.len() as u32,
            busy_ns: 0,
            barrier_wait_ns: 0,
        })
        .collect();

    let barrier = SpinBarrier::new(workers + 1);
    let cur_t = AtomicU64::new(0);
    let running = AtomicBool::new(true);
    let mut imbalance_max = 0.0f64;
    let mut imbalance_sum = 0.0f64;
    let mut imbalance_n = 0u64;

    let outcome = std::thread::scope(|scope| {
        for (mine, cell) in owned.into_iter().zip(&cells) {
            let (barrier, cur_t, running) = (&barrier, &cur_t, &running);
            let channels = channels.as_slice();
            scope.spawn(move || {
                worker_loop::<O>(plan, channels, mine, cell, barrier, cur_t, running)
            });
        }

        let mut pending = first;
        let mut all_empty = false;
        let mut last_active: Time = 0;
        let run = 'run: {
            loop {
                let Some(t) = pending else {
                    break 'run None;
                };
                if t > config.max_steps {
                    all_empty = false;
                    break 'run None;
                }
                supersteps += 1;
                cur_t.store(t, Ordering::Release);
                let block0 = Instant::now();
                barrier.wait(); // open: workers compute + publish
                barrier.wait(); // publish: all cut pushes visible
                barrier.wait(); // close: worker outputs visible
                let coord_block_ns = block0.elapsed().as_nanos() as u64;

                // Fold the cells, then replay the sequential driver's
                // exact bookkeeping and hook order.
                fired_global.clear();
                let mut batch_total = 0u64;
                let mut updates_total = 0u64;
                let mut deliveries = 0u64;
                let mut sched = SchedulerStats::default();
                let mut busy_max = 0u64;
                let mut busy_sum = 0u64;
                pending = None;
                all_empty = true;
                for (w, cell) in cells.iter().enumerate() {
                    let out = cell.lock().expect("worker cell poisoned");
                    fired_global.extend_from_slice(&out.fired);
                    batch_total += out.batch;
                    updates_total += out.updates;
                    deliveries += out.deliveries;
                    if let Some(nt) = out.next_time {
                        pending = Some(pending.map_or(nt, |b: Time| b.min(nt)));
                    }
                    all_empty &= out.wheels_empty;
                    wstats[w].busy_ns += out.busy_ns;
                    wstats[w].barrier_wait_ns += out.wait_ns;
                    busy_max = busy_max.max(out.busy_ns);
                    busy_sum += out.busy_ns;
                    if O::ENABLED {
                        sched.in_flight += out.sched.in_flight;
                        sched.occupied_slots += out.sched.occupied_slots;
                        sched.overflow_entries += out.sched.overflow_entries;
                        sched.overflow_hits += out.sched.overflow_hits;
                        for (acc, &v) in tick_traffic.iter_mut().zip(&out.tick_traffic) {
                            *acc += v;
                        }
                        obs.on_worker_superstep(t, w as u32, out.busy_ns, out.wait_ns);
                    }
                }
                fired_global.sort_unstable();
                let mean_busy = busy_sum / workers as u64;
                if busy_sum > 0 {
                    let ratio = busy_max as f64 * workers as f64 / busy_sum as f64;
                    imbalance_max = imbalance_max.max(ratio);
                    imbalance_sum += ratio;
                    imbalance_n += 1;
                }

                obs.on_spike_batch(t, batch_total);
                rec.add_updates(updates_total);
                last_active = t;
                let stop_hit = rec.record_step(t, &fired_global, &config.stop);
                rec.add_deliveries(deliveries);
                obs.on_step(
                    t,
                    StepRecord {
                        spikes: fired_global.len() as u64,
                        deliveries,
                        updates: updates_total,
                    },
                );
                if O::ENABLED {
                    obs.on_scheduler(t, sched);
                    obs.on_barrier_wait(t, coord_block_ns);
                    if busy_sum > 0 {
                        obs.on_superstep_imbalance(t, busy_max, mean_busy);
                    }
                }
                emit_cut_traffic(obs, t, p, &mut tick_traffic);

                if stop_hit
                    && !matches!(
                        config.stop,
                        StopCondition::MaxSteps | StopCondition::Quiescent
                    )
                {
                    break 'run Some(t);
                }
            }
        };

        // Release the pool: workers exit at the next open crossing.
        running.store(false, Ordering::Release);
        barrier.wait();
        (run, all_empty, last_active)
    });

    let (condition_met_at, all_empty, last_active) = outcome;
    let result = match condition_met_at {
        Some(t) => rec.finish(t, StopReason::ConditionMet, config, obs)?,
        None if all_empty => rec.finish(last_active, StopReason::Quiescent, config, obs)?,
        None => rec.finish(config.max_steps, StopReason::MaxStepsReached, config, obs)?,
    };
    let mut stats = plan.traffic_stats(&channels, supersteps);
    stats.threads = workers;
    stats.workers = wstats;
    stats.imbalance_max = imbalance_max;
    stats.imbalance_mean = if imbalance_n > 0 {
        imbalance_sum / imbalance_n as f64
    } else {
        0.0
    };
    Ok((result, stats))
}

/// One persistent worker: compute + publish for its partitions, meet at
/// the publish crossing, merge + report, meet at the close crossing.
fn worker_loop<O: RunObserver>(
    plan: &PartitionPlan,
    channels: &[Option<SpikeChannel>],
    mut mine: Vec<(usize, PartState)>,
    cell: &Mutex<WorkerOut>,
    barrier: &SpinBarrier,
    cur_t: &AtomicU64,
    running: &AtomicBool,
) {
    // Barrier time spent after the cell report (the close crossing) is
    // carried into the next superstep's figure so nothing is dropped.
    let mut carry = Duration::ZERO;
    loop {
        let w0 = Instant::now();
        barrier.wait(); // open
        let mut waited = carry + w0.elapsed();
        if !running.load(Ordering::Acquire) {
            return;
        }
        let t = cur_t.load(Ordering::Acquire);

        let b0 = Instant::now();
        let mut batch = 0u64;
        let mut updates = 0u64;
        for (q, st) in mine.iter_mut() {
            let (b, u) = st.ev.step(t, plan.subnet(*q).params_slice());
            batch += b;
            updates += u;
            publish_cut(plan, *q, &st.ev.fired, channels, t);
        }
        let busy_compute = b0.elapsed();

        let w1 = Instant::now();
        barrier.wait(); // publish
        waited += w1.elapsed();

        let b1 = Instant::now();
        let mut out = cell.lock().expect("worker cell poisoned");
        out.fired.clear();
        out.tick_traffic.fill(0);
        out.batch = batch;
        out.updates = updates;
        let mut deliveries = 0u64;
        let mut next_time: Option<Time> = None;
        let mut wheels_empty = true;
        for (q, st) in mine.iter_mut() {
            deliveries += merge_schedule(plan, *q, st, channels, t, &mut out.tick_traffic);
            let globals = plan.globals(*q);
            out.fired
                .extend(st.ev.fired.iter().map(|l| globals[l.index()]));
            if let Some(nt) = st.ev.wheel.next_time() {
                next_time = Some(next_time.map_or(nt, |b| b.min(nt)));
            }
            wheels_empty &= st.ev.wheel.is_empty();
        }
        out.deliveries = deliveries;
        out.next_time = next_time;
        out.wheels_empty = wheels_empty;
        if O::ENABLED {
            out.sched = aggregate_scheduler(mine.iter().map(|(_, st)| st));
        }
        out.busy_ns = (busy_compute + b1.elapsed()).as_nanos() as u64;
        out.wait_ns = waited.as_nanos() as u64;
        drop(out);

        let w2 = Instant::now();
        barrier.wait(); // close
        carry = w2.elapsed();
    }
}
