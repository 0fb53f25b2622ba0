//! Differential harness for bulk compilation: a network built by
//! [`NetworkBuilder`] from a random edge list must be indistinguishable
//! from one grown edge-by-edge through [`Network::connect`] — identical
//! CSR layout (same synapse order per source, byte for byte) and
//! bit-identical [`RunResult`]s on every engine.
//!
//! This is the guarantee that lets every mass construction site (the §3
//! SSSP net, the layered k-hop net, the circuit library, the serve cold
//! path) switch to the bulk path as a pure optimisation: the counting
//! sort is stable per source, so no observable ordering (and hence no
//! FP-accumulation order) changes.

use proptest::prelude::*;
use sgl_snn::{
    engine::{BitplaneEngine, DenseEngine, Engine, EventEngine, RunConfig},
    LifParams, Network, NetworkBuilder, NeuronId,
};

/// A compact, shrinkable description of a random network and stimulus.
#[derive(Debug, Clone)]
struct NetSpec {
    neurons: Vec<(f64, u8)>, // (threshold, kind: 0 integrator, 1 gate, 2 tau 0.5)
    synapses: Vec<(usize, usize, f64, u32)>,
    stimulus: Vec<usize>,
}

fn net_spec() -> impl Strategy<Value = NetSpec> {
    let n_range = 2usize..12;
    n_range.prop_flat_map(|n| {
        let neurons = proptest::collection::vec((0.5f64..4.0, 0u8..3), n);
        let synapse = (0..n, 0..n, -2.5f64..3.5, 1u32..9);
        let synapses = proptest::collection::vec(synapse, 1..40);
        let stimulus = proptest::collection::vec(0..n, 1..4);
        (neurons, synapses, stimulus).prop_map(|(neurons, synapses, stimulus)| NetSpec {
            neurons,
            synapses,
            stimulus,
        })
    })
}

fn params_of(threshold: f64, kind: u8) -> LifParams {
    match kind {
        0 => LifParams::integrator(threshold),
        1 => LifParams::gate(threshold),
        _ => LifParams {
            v_reset: 0.0,
            v_threshold: threshold,
            decay: 0.5,
        },
    }
}

/// Grows the network edge-by-edge (the incremental reference).
fn build_incremental(spec: &NetSpec) -> Network {
    let mut net = Network::new();
    let ids: Vec<NeuronId> = spec
        .neurons
        .iter()
        .map(|&(t, k)| net.add_neuron(params_of(t, k)))
        .collect();
    for &(s, d, w, delay) in &spec.synapses {
        net.connect(ids[s], ids[d], w, delay).unwrap();
    }
    net.mark_input(ids[0]);
    net.mark_output(ids[spec.neurons.len() - 1]);
    net.set_terminal(ids[spec.neurons.len() - 1]);
    net
}

/// Stages the same neurons and edges, in the same order, through the bulk
/// compiler.
fn build_bulk(spec: &NetSpec) -> Network {
    let mut b = NetworkBuilder::with_capacity(spec.neurons.len(), spec.synapses.len());
    let ids: Vec<NeuronId> = spec
        .neurons
        .iter()
        .map(|&(t, k)| b.add_neuron(params_of(t, k)))
        .collect();
    for &(s, d, w, delay) in &spec.synapses {
        b.connect(ids[s], ids[d], w, delay);
    }
    b.mark_input(ids[0]);
    b.mark_output(ids[spec.neurons.len() - 1]);
    b.set_terminal(ids[spec.neurons.len() - 1]);
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Structural identity: the bulk CSR is byte-for-byte the incremental
    /// CSR (same per-source synapse order), and every metadata accessor
    /// agrees.
    #[test]
    fn bulk_csr_is_bit_identical_to_incremental(spec in net_spec()) {
        let inc = build_incremental(&spec);
        let bulk = build_bulk(&spec);
        prop_assert_eq!(bulk.csr(), inc.csr());
        prop_assert_eq!(bulk.params_slice(), inc.params_slice());
        prop_assert_eq!(bulk.neuron_count(), inc.neuron_count());
        prop_assert_eq!(bulk.synapse_count(), inc.synapse_count());
        prop_assert_eq!(bulk.max_delay(), inc.max_delay());
        prop_assert_eq!(bulk.inputs(), inc.inputs());
        prop_assert_eq!(bulk.outputs(), inc.outputs());
        prop_assert_eq!(bulk.terminal(), inc.terminal());
        prop_assert_eq!(bulk.in_degrees(), inc.in_degrees());
        prop_assert_eq!(bulk.max_abs_weight(), inc.max_abs_weight());
        prop_assert!(bulk.is_frozen());
        prop_assert!(!inc.is_frozen());
        // The frozen side must hold strictly less memory than the thawed
        // side once the incremental CSR is materialised (no double store).
        let _ = inc.csr();
        prop_assert!(bulk.memory_bytes() < inc.memory_bytes());
    }

    /// Behavioral identity: the same stimulus produces bit-identical
    /// results on both constructions, for every engine. Continuous
    /// weights make this sensitive to any FP-accumulation-order change.
    #[test]
    fn bulk_runs_bit_identical_on_all_engines(spec in net_spec()) {
        let inc = build_incremental(&spec);
        let bulk = build_bulk(&spec);
        let initial: Vec<NeuronId> = spec.stimulus.iter().map(|&s| NeuronId(s as u32)).collect();
        for config in [RunConfig::fixed(60).with_raster(), RunConfig::until_quiescent(300).with_raster()] {
            let d_inc = DenseEngine.run(&inc, &initial, &config).unwrap();
            let d_bulk = DenseEngine.run(&bulk, &initial, &config).unwrap();
            prop_assert_eq!(d_inc, d_bulk);
            let e_inc = EventEngine.run(&inc, &initial, &config).unwrap();
            let e_bulk = EventEngine.run(&bulk, &initial, &config).unwrap();
            prop_assert_eq!(e_inc, e_bulk);
            let b_inc = BitplaneEngine.run(&inc, &initial, &config).unwrap();
            let b_bulk = BitplaneEngine.run(&bulk, &initial, &config).unwrap();
            prop_assert_eq!(b_inc, b_bulk);
        }
    }

    /// Freezing an incrementally-built network is also invisible to the
    /// engines: frozen and thawed forms answer identically.
    #[test]
    fn freeze_is_observationally_invisible(spec in net_spec()) {
        let mut frozen = build_incremental(&spec);
        frozen.freeze();
        let reference = build_incremental(&spec);
        let initial: Vec<NeuronId> = spec.stimulus.iter().map(|&s| NeuronId(s as u32)).collect();
        let config = RunConfig::fixed(60).with_raster();
        let a = EventEngine.run(&frozen, &initial, &config).unwrap();
        let b = EventEngine.run(&reference, &initial, &config).unwrap();
        prop_assert_eq!(a, b);
        prop_assert_eq!(frozen.csr(), reference.csr());
    }
}
