//! Differential harness for the batch runtime: a batch of runs executed
//! over recycled per-worker scratch must be bit-identical to the same
//! runs executed sequentially, each on a fresh engine — for every engine
//! the batch runner can dispatch to, at every thread count, and for the
//! reference dense engine's own scratch path.
//!
//! This is the guarantee that makes [`BatchRunner`] a pure optimisation:
//! [`RunScratch::reset`] restores observationally-fresh state, so no run
//! can see residue (voltages, pending deliveries, wheel overflow entries)
//! from whatever its worker simulated before it. Weights are continuous
//! and delays occasionally exceed the time-wheel horizon, so both the
//! FP-accumulation order and the overflow path are exercised.

use proptest::prelude::*;
use sgl_snn::{
    engine::{
        BatchRunner, BitplaneEngine, DenseEngine, Engine, EngineChoice, EventEngine, RunConfig,
        RunScratch, RunSpec,
    },
    LifParams, Network, NeuronId, PartitionedEngine,
};

/// A compact, shrinkable description of a random network plus a batch of
/// stimulus sets (one per run in the batch).
#[derive(Debug, Clone)]
struct BatchSpec {
    neurons: Vec<(f64, u8)>, // (threshold, decay kind: 0 = integrator, 1 = gate, 2 = tau 0.5)
    // (src, dst, weight, small delay, large delay, delay kind)
    synapses: Vec<(usize, usize, f64, u32, u32, u8)>,
    stimuli: Vec<Vec<usize>>,
}

fn batch_spec() -> impl Strategy<Value = BatchSpec> {
    let n_range = 2usize..10;
    n_range.prop_flat_map(|n| {
        let neurons = proptest::collection::vec((0.5f64..4.0, 0u8..3), n);
        // Delay kind 7 picks a beyond-horizon delay (wheel overflow path),
        // so recycled wheels carry overflow state into their reset.
        let synapse = (0..n, 0..n, -2.5f64..3.5, 1u32..6, 4097u32..6000, 0u8..8);
        let synapses = proptest::collection::vec(synapse, 1..25);
        let stimuli = proptest::collection::vec(proptest::collection::vec(0..n, 1..4), 1..7);
        (neurons, synapses, stimuli).prop_map(|(neurons, synapses, stimuli)| BatchSpec {
            neurons,
            synapses,
            stimuli,
        })
    })
}

fn build(spec: &BatchSpec) -> (Network, Vec<RunSpec>) {
    let mut net = Network::new();
    let ids: Vec<NeuronId> = spec
        .neurons
        .iter()
        .map(|&(threshold, kind)| {
            let params = match kind {
                0 => LifParams::integrator(threshold),
                1 => LifParams::gate(threshold),
                _ => LifParams {
                    v_reset: 0.0,
                    v_threshold: threshold,
                    decay: 0.5,
                },
            };
            net.add_neuron(params)
        })
        .collect();
    for &(s, d, w, small, large, kind) in &spec.synapses {
        let delay = if kind == 7 { large } else { small };
        net.connect(ids[s], ids[d], w, delay).unwrap();
    }
    // Alternate stop conditions across the batch so recycled scratch sees
    // runs of different lengths back to back.
    let specs = spec
        .stimuli
        .iter()
        .enumerate()
        .map(|(i, stim)| {
            let initial: Vec<NeuronId> = stim.iter().map(|&s| ids[s]).collect();
            let config = if i % 2 == 0 {
                RunConfig::fixed(60).with_raster()
            } else {
                RunConfig::until_quiescent(300).with_raster()
            };
            RunSpec::new(initial, config)
        })
        .collect();
    (net, specs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The core property: for each engine, batched == sequential, exactly.
    /// Same engine on both sides, so even `neuron_updates` must agree.
    #[test]
    fn batch_matches_sequential_on_all_engines(spec in batch_spec()) {
        let (net, specs) = build(&spec);
        let choices = [
            EngineChoice::Event,
            EngineChoice::Bitplane,
            EngineChoice::Partitioned { parts: 3, threads: 2 },
        ];
        for choice in choices {
            for threads in [1, 4] {
                let batched = BatchRunner::new(&net)
                    .with_threads(threads)
                    .with_engine(choice)
                    .run(&specs)
                    .unwrap();
                prop_assert_eq!(batched.len(), specs.len());
                for (r, s) in batched.iter().zip(&specs) {
                    let fresh = match choice {
                        EngineChoice::Event => EventEngine.run(&net, &s.initial_spikes, &s.config),
                        EngineChoice::Bitplane => {
                            BitplaneEngine.run(&net, &s.initial_spikes, &s.config)
                        }
                        EngineChoice::Partitioned { parts, threads } => {
                            PartitionedEngine::new(parts)
                                .with_threads(threads)
                                .run(&net, &s.initial_spikes, &s.config)
                        }
                        EngineChoice::Auto => unreachable!(),
                    }
                    .unwrap();
                    prop_assert_eq!(r, &fresh);
                }
            }
        }
        // The reference dense engine is no batch choice, but it keeps a
        // scratch path: one recycled scratch across the whole batch.
        let mut scratch = RunScratch::new();
        for s in &specs {
            let recycled = DenseEngine
                .run_with_scratch(&net, &s.initial_spikes, &s.config, &mut scratch)
                .unwrap();
            let fresh = DenseEngine.run(&net, &s.initial_spikes, &s.config).unwrap();
            prop_assert_eq!(recycled, fresh);
        }
    }

    /// Auto selection is an optimisation, not a semantic switch: whatever
    /// engine it resolves to must agree with the dense literal up to the
    /// documented `neuron_updates` difference.
    #[test]
    fn auto_choice_matches_dense_modulo_updates(spec in batch_spec()) {
        let (net, specs) = build(&spec);
        let batched = BatchRunner::new(&net).with_threads(2).run(&specs).unwrap();
        for (r, s) in batched.iter().zip(&specs) {
            let mut dense = DenseEngine.run(&net, &s.initial_spikes, &s.config).unwrap();
            dense.stats.neuron_updates = r.stats.neuron_updates;
            prop_assert_eq!(r, &dense);
        }
    }
}
