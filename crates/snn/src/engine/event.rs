//! Event-driven engine: work proportional to spike traffic.

use sgl_observe::{NullObserver, RunObserver, StepRecord};

use super::batch::RunScratch;
use super::dense::route_spikes;
use super::wheel::TimeWheel;
use super::{check_initial, Engine, Recorder, RunConfig, RunResult, StopCondition, StopReason};
use crate::error::SnnError;
use crate::network::Network;
use crate::params::LifParams;
use crate::types::{NeuronId, Time};

/// Event-driven engine with lazy voltage decay.
///
/// Only neurons that receive synaptic input in a given step are touched;
/// decay over the intervening quiet interval `Δ` is applied in closed form,
/// `v ← v_reset + (v - v_reset)(1 - τ)^Δ`. This is exact because between
/// inputs an input-driven neuron's voltage moves monotonically toward
/// `v_reset ≤ v_threshold` and therefore cannot cross the threshold, so
/// firing can only happen at input-arrival steps.
///
/// Requires every neuron to satisfy `v_reset <= v_threshold`
/// ([`crate::LifParams::is_input_driven`]); the run fails with
/// [`SnnError::SpontaneousNeuron`] otherwise.
///
/// This engine embodies the event-driven-communication argument of §2.1:
/// its work counters grow with spike events and synaptic deliveries, not
/// with `neurons × steps`, which is why delay-encoded algorithms run in
/// time `O(L + m)` rather than `O(n · L)` in practice.
#[derive(Clone, Copy, Debug, Default)]
pub struct EventEngine;

impl Engine for EventEngine {
    fn run(
        &self,
        net: &Network,
        initial_spikes: &[NeuronId],
        config: &RunConfig,
    ) -> Result<RunResult, SnnError> {
        self.run_observed(net, initial_spikes, config, &mut NullObserver)
    }
}

impl EventEngine {
    /// [`Engine::run`] with telemetry hooks; see
    /// [`DenseEngine::run_observed`](super::DenseEngine::run_observed).
    /// `on_step` fires only at event times (the engine skips quiet
    /// intervals), so the observer's series is sparse in `t` — exactly as
    /// the stats are.
    ///
    /// # Errors
    /// Same failure modes as [`Engine::run`].
    pub fn run_observed<O: RunObserver>(
        &self,
        net: &Network,
        initial_spikes: &[NeuronId],
        config: &RunConfig,
        obs: &mut O,
    ) -> Result<RunResult, SnnError> {
        let mut scratch = RunScratch::new();
        self.run_with_scratch_observed(net, initial_spikes, config, &mut scratch, obs)
    }

    /// [`Engine::run`] over recycled buffers; see
    /// [`DenseEngine::run_with_scratch`](super::DenseEngine::run_with_scratch).
    ///
    /// # Errors
    /// Same failure modes as [`Engine::run`].
    pub fn run_with_scratch(
        &self,
        net: &Network,
        initial_spikes: &[NeuronId],
        config: &RunConfig,
        scratch: &mut RunScratch,
    ) -> Result<RunResult, SnnError> {
        self.run_with_scratch_observed(net, initial_spikes, config, scratch, &mut NullObserver)
    }

    /// [`Self::run_with_scratch`] with telemetry hooks.
    ///
    /// # Errors
    /// Same failure modes as [`Engine::run`].
    pub fn run_with_scratch_observed<O: RunObserver>(
        &self,
        net: &Network,
        initial_spikes: &[NeuronId],
        config: &RunConfig,
        scratch: &mut RunScratch,
        obs: &mut O,
    ) -> Result<RunResult, SnnError> {
        net.validate(true)?;
        check_initial(net, initial_spikes)?;
        let mut rec = Recorder::new(net, config)?;
        let csr = net.csr();
        let params = net.params_slice();

        scratch.reset(net);
        let ev = &mut scratch.ev;

        ev.fired.extend_from_slice(initial_spikes);
        ev.fired.sort_unstable();
        ev.fired.dedup();

        let mut stop_hit = rec.record_step(0, &ev.fired, &config.stop);
        let deliveries = route_spikes(csr, &ev.fired, 0, &mut ev.wheel, &mut rec);
        obs.on_step(
            0,
            StepRecord {
                spikes: ev.fired.len() as u64,
                deliveries,
                updates: 0,
            },
        );
        if O::ENABLED {
            obs.on_scheduler(0, ev.wheel.observe());
        }
        if stop_hit
            && !matches!(
                config.stop,
                StopCondition::MaxSteps | StopCondition::Quiescent
            )
        {
            return rec.finish(0, StopReason::ConditionMet, config, obs);
        }

        let mut last_active: Time = 0;
        while let Some(t) = ev.wheel.next_time() {
            if t > config.max_steps {
                break;
            }
            let (drained, updates) = ev.step(t, params);
            obs.on_spike_batch(t, drained);
            rec.add_updates(updates);
            last_active = t;

            stop_hit = rec.record_step(t, &ev.fired, &config.stop);
            let deliveries = route_spikes(csr, &ev.fired, t, &mut ev.wheel, &mut rec);
            obs.on_step(
                t,
                StepRecord {
                    spikes: ev.fired.len() as u64,
                    deliveries,
                    updates,
                },
            );
            if O::ENABLED {
                obs.on_scheduler(t, ev.wheel.observe());
            }

            if stop_hit
                && !matches!(
                    config.stop,
                    StopCondition::MaxSteps | StopCondition::Quiescent
                )
            {
                return rec.finish(t, StopReason::ConditionMet, config, obs);
            }
        }

        if ev.wheel.is_empty() {
            rec.finish(last_active, StopReason::Quiescent, config, obs)
        } else {
            rec.finish(config.max_steps, StopReason::MaxStepsReached, config, obs)
        }
    }
}

/// The event engine's run state: the delivery scheduler, the step's
/// spike lists and the lazy-decay bookkeeping, indexed by neuron id.
///
/// [`EventEngine`] keeps one in its [`RunScratch`], and every partition
/// of the partitioned engine keeps one over its local ids, so both run
/// the same [`Self::step`]. The dense engines borrow the wheel, spike
/// lists, voltages and accumulator from the scratch's copy.
///
/// Between steps `accum` is all zeros, `dirty` all false and `touched`
/// empty.
#[derive(Debug, Default)]
pub(crate) struct EventState {
    /// Pending synaptic deliveries (calendar queue over delays).
    pub(crate) wheel: TimeWheel,
    /// Per-step drained delivery batch.
    pub(crate) batch: Vec<(NeuronId, f64)>,
    /// Neurons that fired in the current step, ascending.
    pub(crate) fired: Vec<NeuronId>,
    /// Membrane potentials, reset to each neuron's `v_reset`.
    pub(crate) voltages: Vec<f64>,
    /// Last step each neuron's lazy decay was applied.
    last_update: Vec<Time>,
    /// Synaptic input accumulated in the current step.
    pub(crate) accum: Vec<f64>,
    /// Membership bitmap for `touched`.
    dirty: Vec<bool>,
    /// Neurons receiving input in the current step, in arrival order.
    touched: Vec<NeuronId>,
}

impl EventState {
    /// Restores fresh-run state for a network with `params` whose wheel
    /// must classify delays against `max_delay`: voltages at `v_reset`,
    /// everything else zeroed or empty. Capacity is retained.
    pub(crate) fn reset(&mut self, params: &[LifParams], max_delay: u32) {
        let n = params.len();
        self.wheel.reset(max_delay);
        self.batch.clear();
        self.fired.clear();
        self.voltages.clear();
        self.voltages.extend(params.iter().map(|p| p.v_reset));
        self.last_update.clear();
        self.last_update.resize(n, 0);
        self.accum.clear();
        self.accum.resize(n, 0.0);
        self.dirty.clear();
        self.dirty.resize(n, false);
        self.touched.clear();
    }

    /// One event time step: drains every delivery due at `t`, applies
    /// lazy decay, input and the threshold to each neuron that received
    /// input, and leaves the neurons that fired in `fired`, ascending.
    /// Returns `(deliveries drained, neurons updated)`.
    pub(crate) fn step(&mut self, t: Time, params: &[LifParams]) -> (u64, u64) {
        // The wheel yields deliveries in scheduling order — the same
        // order the dense engines accumulate in — so per-target sums are
        // bit-identical across engines.
        self.batch.clear();
        self.wheel.drain_at(t, &mut self.batch);
        for &(id, w) in &self.batch {
            let i = id.index();
            if !self.dirty[i] {
                self.dirty[i] = true;
                self.touched.push(id);
            }
            self.accum[i] += w;
        }
        let updates = self.touched.len() as u64;

        self.fired.clear();
        for &id in &self.touched {
            let i = id.index();
            let p = &params[i];
            let dt = t - self.last_update[i];
            let v0 = self.voltages[i];
            // dt == 0 cannot happen (events batch per step), and decay 0
            // keeps the voltage; both leave v0 untouched.
            let decayed = if dt == 0 || p.decay == 0.0 {
                v0
            } else if p.decay == 1.0 {
                p.v_reset
            } else {
                p.v_reset + (v0 - p.v_reset) * (1.0 - p.decay).powi(dt as i32)
            };
            let v_hat = decayed + self.accum[i];
            if v_hat > p.v_threshold {
                self.fired.push(id);
                self.voltages[i] = p.v_reset;
            } else {
                self.voltages[i] = v_hat;
            }
            self.last_update[i] = t;
            self.accum[i] = 0.0;
            self.dirty[i] = false;
        }
        self.touched.clear();
        // Routing schedules fan-out in ascending firing id (the delivery
        // order every engine shares). Each update above reads and writes
        // only its own neuron, so the touched order is free and only the
        // fired list — usually far shorter — needs sorting.
        self.fired.sort_unstable();
        (self.batch.len() as u64, updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LifParams;

    #[test]
    fn parallel_edges_count_one_touched_pair() {
        // Two same-delay edges into the same target must accumulate into
        // one neuron update, not two (the dirty bitmap dedups per step) —
        // including when the weights cancel to exactly zero.
        let mut net = Network::new();
        let src = net.add_neuron(LifParams::gate_at_least(1));
        let tgt = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(src, tgt, 2.0, 3).unwrap();
        net.connect(src, tgt, -2.0, 3).unwrap();
        let r = EventEngine
            .run(&net, &[src], &RunConfig::until_quiescent(10))
            .unwrap();
        assert_eq!(r.stats.neuron_updates, 1);
        assert_eq!(r.stats.synaptic_deliveries, 2);
        assert!(!r.fired(tgt));
    }

    #[test]
    fn matches_dense_on_delay_chain() {
        let mut net = Network::new();
        let ids = net.add_neurons(LifParams::gate_at_least(1), 3);
        net.connect(ids[0], ids[1], 1.0, 4).unwrap();
        net.connect(ids[1], ids[2], 1.0, 6).unwrap();
        let r = EventEngine
            .run(&net, &[ids[0]], &RunConfig::until_quiescent(100))
            .unwrap();
        assert_eq!(r.first_spike(ids[2]), Some(10));
        assert_eq!(r.steps, 10);
        assert_eq!(r.reason, StopReason::Quiescent);
    }

    #[test]
    fn rejects_spontaneous_neurons() {
        let mut net = Network::new();
        net.add_neuron(LifParams {
            v_reset: 2.0,
            v_threshold: 1.0,
            decay: 0.0,
        });
        assert!(matches!(
            EventEngine.run(&net, &[], &RunConfig::until_quiescent(10)),
            Err(SnnError::SpontaneousNeuron(_))
        ));
    }

    #[test]
    fn lazy_partial_decay_is_exact() {
        // tau = 0.5: 0.6 arrives at t=1, then 0.6 at t=4.
        // v(1)=0.6, decayed to t=4: 0.6 * 0.5^3 = 0.075; +0.6 = 0.675 < 0.9.
        // Then 0.6 at t=5: 0.675*0.5 + 0.6 = 0.9375 > 0.9 -> fires at 5.
        let mut net = Network::new();
        let src = net.add_neuron(LifParams::gate_at_least(1));
        let leaky = net.add_neuron(LifParams {
            v_reset: 0.0,
            v_threshold: 0.9,
            decay: 0.5,
        });
        net.connect(src, leaky, 0.6, 1).unwrap();
        net.connect(src, leaky, 0.6, 4).unwrap();
        net.connect(src, leaky, 0.6, 5).unwrap();
        let r = EventEngine
            .run(&net, &[src], &RunConfig::until_quiescent(10))
            .unwrap();
        assert_eq!(r.first_spike(leaky), Some(5));
    }

    #[test]
    fn latch_until_budget() {
        let mut net = Network::new();
        let m = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(m, m, 1.0, 1).unwrap();
        let r = EventEngine.run(&net, &[m], &RunConfig::fixed(15)).unwrap();
        assert_eq!(r.spike_counts[m.index()], 16);
        assert_eq!(r.reason, StopReason::MaxStepsReached);
        assert_eq!(r.steps, 15);
    }

    #[test]
    fn updates_only_touched_neurons() {
        // 1000 idle neurons, activity only along a 2-neuron path: event
        // engine must not pay for the idle ones.
        let mut net = Network::new();
        let a = net.add_neuron(LifParams::gate_at_least(1));
        let b = net.add_neuron(LifParams::gate_at_least(1));
        net.connect(a, b, 1.0, 50).unwrap();
        net.add_neurons(LifParams::gate_at_least(1), 1000);
        let r = EventEngine
            .run(&net, &[a], &RunConfig::until_quiescent(1000))
            .unwrap();
        assert_eq!(r.stats.neuron_updates, 1); // only b, once
        assert_eq!(r.first_spike(b), Some(50));
    }
}
