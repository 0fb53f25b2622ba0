//! Reconciliation tests for the observer protocol: the per-step series a
//! [`TimeSeriesObserver`] collects must sum *exactly* to the `SimStats`
//! totals of the same run, on every single-address-space engine, and the
//! scheduler / barrier side channels must reflect what the engines
//! actually did.

use sgl_snn::engine::{
    BitplaneEngine, DenseEngine, EventEngine, RunConfig, RunObserver, TimeSeriesObserver,
};
use sgl_snn::{LifParams, Network, NeuronId, PartitionedEngine};

/// A weighted chain with gaps: 0 -> 1 -> 2 -> 3 with delays 3, 1, 5, plus
/// a shortcut 0 -> 2 (delay 7) that arrives after the chain already fired
/// neuron 2, so it only adds current.
fn chain_net() -> (Network, Vec<NeuronId>) {
    let mut net = Network::new();
    let ids = net.add_neurons(LifParams::gate_at_least(1), 4);
    net.connect(ids[0], ids[1], 1.0, 3).unwrap();
    net.connect(ids[1], ids[2], 1.0, 1).unwrap();
    net.connect(ids[2], ids[3], 1.0, 5).unwrap();
    net.connect(ids[0], ids[2], 1.0, 7).unwrap();
    (net, ids)
}

#[test]
fn series_reconcile_with_sim_stats_on_all_engines() {
    let (net, ids) = chain_net();
    let cfg = RunConfig::until_quiescent(64);
    let initial = [ids[0]];

    let runs: [(&str, _); 3] = [
        ("dense", {
            let mut obs = TimeSeriesObserver::new();
            let r = DenseEngine
                .run_observed(&net, &initial, &cfg, &mut obs)
                .unwrap();
            (r, obs)
        }),
        ("event", {
            let mut obs = TimeSeriesObserver::new();
            let r = EventEngine
                .run_observed(&net, &initial, &cfg, &mut obs)
                .unwrap();
            (r, obs)
        }),
        ("bitplane", {
            let mut obs = TimeSeriesObserver::new();
            let r = BitplaneEngine
                .run_observed(&net, &initial, &cfg, &mut obs)
                .unwrap();
            (r, obs)
        }),
    ];

    for (name, (result, obs)) in &runs {
        assert_eq!(
            obs.total_spikes(),
            result.stats.spike_events,
            "{name}: spikes"
        );
        assert_eq!(
            obs.total_deliveries(),
            result.stats.synaptic_deliveries,
            "{name}: deliveries"
        );
        assert_eq!(
            obs.total_updates(),
            result.stats.neuron_updates,
            "{name}: updates"
        );
        assert_eq!(obs.final_step, result.steps, "{name}: final step");
        let finished = obs.finished.expect("on_finish not called");
        assert_eq!(
            finished.spikes, result.stats.spike_events,
            "{name}: on_finish spikes"
        );
        assert_eq!(
            finished.deliveries, result.stats.synaptic_deliveries,
            "{name}: on_finish deliveries"
        );
        assert_eq!(
            finished.updates, result.stats.neuron_updates,
            "{name}: on_finish updates"
        );
        // Times start at the induced-spike step and are strictly increasing.
        assert_eq!(obs.times.first(), Some(&0), "{name}: first recorded step");
        assert!(
            obs.times.windows(2).all(|w| w[0] < w[1]),
            "{name}: times not strictly increasing: {:?}",
            obs.times
        );
        // One scheduler snapshot per recorded step, on every engine.
        assert_eq!(
            obs.wheel_in_flight.len(),
            obs.len(),
            "{name}: scheduler series"
        );
        // The run ends quiescent: nothing left in flight.
        assert_eq!(
            obs.wheel_in_flight.last(),
            Some(&0),
            "{name}: residual in-flight work"
        );
    }

    // The event engine records only event times; the dense engines record
    // every step up to termination.
    let (dense_result, dense_obs) = &runs[0].1;
    let (_, event_obs) = &runs[1].1;
    let expected: Vec<u64> = (0..=dense_result.steps).collect();
    assert_eq!(dense_obs.times, expected);
    assert!(
        event_obs.len() < dense_obs.len(),
        "event series should be sparse"
    );
}

#[test]
fn overflow_scheduling_is_counted() {
    // A delay beyond the wheel horizon forces the overflow (ordered-map)
    // path, which the scheduler snapshot reports as cumulative hits.
    let mut net = Network::new();
    let ids = net.add_neurons(LifParams::gate_at_least(1), 2);
    net.connect(ids[0], ids[1], 1.0, 5000).unwrap();
    let cfg = RunConfig::until_quiescent(6000);
    let mut obs = TimeSeriesObserver::new();
    let r = EventEngine
        .run_observed(&net, &[ids[0]], &cfg, &mut obs)
        .unwrap();
    assert_eq!(r.first_spikes[1], Some(5000));
    assert_eq!(obs.scheduler.overflow_hits, 1);
    // The in-flight gauge saw the parked delivery before it drained.
    assert!(obs.wheel_in_flight.iter().any(|&x| x > 0));
}

/// Counts the two hooks whose multiplicity the barrier test pins down.
#[derive(Default)]
struct HookCount {
    barrier_waits: u64,
    finishes: u64,
}

impl RunObserver for HookCount {
    fn on_barrier_wait(&mut self, _t: u64, _nanos: u64) {
        self.barrier_waits += 1;
    }
    fn on_finish(&mut self, _steps: u64, _spikes: u64, _deliveries: u64, _updates: u64) {
        self.finishes += 1;
    }
}

#[test]
fn barrier_waits_only_from_the_threaded_partition_coordinator() {
    let (net, ids) = chain_net();
    let cfg = RunConfig::until_quiescent(64);

    let mut threaded = TimeSeriesObserver::new();
    PartitionedEngine::new(3)
        .with_threads(2)
        .run_observed(&net, &[ids[0]], &cfg, &mut threaded)
        .unwrap();
    assert!(
        threaded.barrier_wait.count() > 0,
        "coordinator never timed a barrier"
    );
    assert!(threaded.barrier_wait_total_ns > 0);

    // threads == 1 runs the sequential driver: no barriers exist.
    let mut single = TimeSeriesObserver::new();
    let one = PartitionedEngine::new(3)
        .with_threads(1)
        .run_observed(&net, &[ids[0]], &cfg, &mut single)
        .unwrap();
    assert_eq!(single.barrier_wait.count(), 0);
    assert_eq!(single.total_spikes(), one.stats.spike_events);
    let mut hooks = HookCount::default();
    PartitionedEngine::new(3)
        .with_threads(1)
        .run_observed(&net, &[ids[0]], &cfg, &mut hooks)
        .unwrap();
    assert_eq!(hooks.barrier_waits, 0);
    assert_eq!(hooks.finishes, 1, "on_finish must fire exactly once");

    let mut dense = TimeSeriesObserver::new();
    DenseEngine
        .run_observed(&net, &[ids[0]], &cfg, &mut dense)
        .unwrap();
    assert_eq!(dense.barrier_wait.count(), 0);
}

#[test]
fn spike_batches_cover_all_deliveries() {
    // `on_spike_batch` reports scheduler drains; across a full quiescent
    // run every routed delivery is eventually drained, so batch sums must
    // equal the delivery total. A bespoke observer checks the hook
    // directly rather than through TimeSeriesObserver.
    use sgl_snn::engine::{RunObserver, StepRecord};

    #[derive(Default)]
    struct BatchSum {
        drained: u64,
        routed: u64,
    }
    impl RunObserver for BatchSum {
        fn on_spike_batch(&mut self, _t: u64, deliveries: u64) {
            self.drained += deliveries;
        }
        fn on_step(&mut self, _t: u64, step: StepRecord) {
            self.routed += step.deliveries;
        }
    }

    let (net, ids) = chain_net();
    let cfg = RunConfig::until_quiescent(64);
    for engine_run in [
        |net: &Network, initial: &[NeuronId], cfg: &RunConfig, obs: &mut BatchSum| {
            DenseEngine.run_observed(net, initial, cfg, obs).map(|_| ())
        },
        |net: &Network, initial: &[NeuronId], cfg: &RunConfig, obs: &mut BatchSum| {
            EventEngine.run_observed(net, initial, cfg, obs).map(|_| ())
        },
    ] {
        let mut obs = BatchSum::default();
        engine_run(&net, &[ids[0]], &cfg, &mut obs).unwrap();
        assert!(obs.routed > 0, "chain produced no deliveries");
        assert_eq!(obs.drained, obs.routed);
    }
}
