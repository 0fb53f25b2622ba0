//! `Network::validate` caches its verdict on the network; every mutator
//! must drop it. Each case takes a network that has already run (and so
//! holds a cached "valid" verdict) on the event engine, the bit-plane
//! engine and the batch runner, applies one mutation, and checks that
//! every run then returns exactly what the same mutation gives on a
//! network that never ran — and the same again on a second run.
//!
//! `connect` and `thaw` cannot make a network invalid on their own
//! (`connect` rejects the only synapse defects validation looks for, and
//! `thaw` changes no value), so their cases check that the verdict after
//! them still matches a fresh build's.

use sgl_snn::engine::{
    BatchRunner, BitplaneEngine, Engine, EngineChoice, EventEngine, RunConfig, RunResult, RunSpec,
};
use sgl_snn::{LifParams, Network, NeuronId, SnnError};

/// `v_reset > v_threshold`: valid for the dense engines, rejected by the
/// event-style ones.
const SPONTANEOUS: LifParams = LifParams {
    v_reset: 2.0,
    v_threshold: 1.0,
    decay: 0.0,
};

fn chain(frozen: bool) -> Network {
    let mut net = Network::new();
    let ids = net.add_neurons(LifParams::gate_at_least(1), 4);
    for (k, w) in ids.windows(2).enumerate() {
        net.connect(w[0], w[1], 1.0, 1 + k as u32).unwrap();
    }
    if frozen {
        net.freeze();
    }
    net
}

type Outcome = Result<Vec<RunResult>, SnnError>;

/// One outcome per run path: event, bit-plane, batch (`Auto`), batch
/// (`Event`).
fn outcomes(net: &Network) -> Vec<Outcome> {
    let cfg = RunConfig::until_quiescent(50);
    let init = [NeuronId(0)];
    let specs = vec![RunSpec::new(init.to_vec(), cfg.clone()); 3];
    vec![
        EventEngine.run(net, &init, &cfg).map(|r| vec![r]),
        BitplaneEngine.run(net, &init, &cfg).map(|r| vec![r]),
        BatchRunner::new(net).with_threads(2).run(&specs),
        BatchRunner::new(net)
            .with_threads(2)
            .with_engine(EngineChoice::Event)
            .run(&specs),
    ]
}

fn check(name: &str, mutate: fn(&mut Network), expect_error: bool) {
    for frozen in [false, true] {
        let mut ran = chain(frozen);
        assert!(
            outcomes(&ran).iter().all(Result::is_ok),
            "{name}: the base network is valid"
        );
        mutate(&mut ran);
        let after = outcomes(&ran);

        let mut fresh = chain(frozen);
        mutate(&mut fresh);
        assert_eq!(after, outcomes(&fresh), "{name} (frozen: {frozen})");
        assert_eq!(
            after,
            outcomes(&ran),
            "{name}: second run (frozen: {frozen})"
        );
        assert_eq!(
            after.iter().any(Result::is_err),
            expect_error,
            "{name}: {after:?}"
        );
    }
}

#[test]
fn connect_keeps_the_verdict_of_a_fresh_build() {
    check(
        "connect",
        |net| net.connect(NeuronId(3), NeuronId(0), 1.0, 7).unwrap(),
        false,
    );
}

#[test]
fn add_neuron_clears_the_verdict() {
    check(
        "add_neuron",
        |net| {
            net.add_neuron(SPONTANEOUS);
        },
        true,
    );
}

#[test]
fn add_neurons_clears_the_verdict() {
    check(
        "add_neurons",
        |net| {
            net.add_neurons(SPONTANEOUS, 2);
        },
        true,
    );
}

#[test]
fn synapses_from_mut_clears_the_verdict() {
    check(
        "zero delay",
        |net| net.synapses_from_mut(NeuronId(1))[0].delay = 0,
        true,
    );
    check(
        "NaN weight",
        |net| net.synapses_from_mut(NeuronId(2))[0].weight = f64::NAN,
        true,
    );
}

#[test]
fn params_mut_clears_the_verdict() {
    check(
        "spontaneous",
        |net| *net.params_mut(NeuronId(2)) = SPONTANEOUS,
        true,
    );
    check(
        "NaN threshold",
        |net| net.params_mut(NeuronId(1)).v_threshold = f64::NAN,
        true,
    );
}

#[test]
fn thaw_keeps_the_verdict_of_a_fresh_build() {
    check("thaw", Network::thaw, false);
}

#[test]
fn a_repaired_network_runs_again() {
    // The reverse direction: a cached failure must not outlive the fix.
    let mut net = chain(false);
    net.synapses_from_mut(NeuronId(0))[0].delay = 0;
    assert_eq!(
        EventEngine.run(&net, &[NeuronId(0)], &RunConfig::until_quiescent(50)),
        Err(SnnError::ZeroDelay {
            src: NeuronId(0),
            dst: NeuronId(1)
        })
    );
    net.synapses_from_mut(NeuronId(0))[0].delay = 1;
    assert!(outcomes(&net).iter().all(Result::is_ok));
}
