//! Table-driven stop-semantics contract: every engine must agree on the
//! `(StopReason, steps)` pair for each stop condition, including the t = 0
//! edge cases (terminal / listed neurons among the induced spikes, empty
//! networks, vacuous `AllOf`).
//!
//! The fixture is a 4-neuron relay chain with delay 2 plus one isolated
//! neuron:
//!
//! ```text
//! 0 --2--> 1 --2--> 2 --2--> 3        4 (isolated)
//! ```
//!
//! so with spike induction at neuron 0, neuron k fires at t = 2k and the
//! network quiesces at t = 6.

use sgl_snn::engine::{
    BitplaneEngine, DenseEngine, Engine, EventEngine, RunConfig, StopCondition, StopReason,
};
use sgl_snn::{LifParams, Network, NeuronId, Time};

fn fixture() -> (Network, Vec<NeuronId>) {
    let mut net = Network::new();
    let ids = net.add_neurons(LifParams::gate_at_least(1), 5);
    for w in ids[..4].windows(2) {
        net.connect(w[0], w[1], 1.0, 2).unwrap();
    }
    net.set_terminal(ids[3]);
    (net, ids)
}

fn engines() -> Vec<(&'static str, Box<dyn Engine>)> {
    vec![
        ("dense", Box::new(DenseEngine)),
        ("event", Box::new(EventEngine)),
        ("bitplane", Box::new(BitplaneEngine)),
    ]
}

/// One row of the semantics table: (name, stop, max_steps, initial spikes,
/// expected reason, expected T).
type Case = (
    &'static str,
    StopCondition,
    Time,
    Vec<NeuronId>,
    StopReason,
    Time,
);

#[test]
fn all_engines_agree_on_stop_reason_and_steps() {
    let n = |i: u32| NeuronId(i);
    let cases: Vec<Case> = vec![
        (
            "quiescent after the chain drains",
            StopCondition::Quiescent,
            50,
            vec![n(0)],
            StopReason::Quiescent,
            6,
        ),
        (
            "quiescent budget cut short",
            StopCondition::Quiescent,
            4,
            vec![n(0)],
            StopReason::MaxStepsReached,
            4,
        ),
        (
            "quiescent at exactly the budget",
            StopCondition::Quiescent,
            6,
            vec![n(0)],
            StopReason::Quiescent,
            6,
        ),
        (
            "quiescent at t = 0 with no initial spikes",
            StopCondition::Quiescent,
            10,
            vec![],
            StopReason::Quiescent,
            0,
        ),
        (
            "quiescent at t = 0 when the spike has no fan-out",
            StopCondition::Quiescent,
            10,
            vec![n(3)],
            StopReason::Quiescent,
            0,
        ),
        (
            "max-steps quiesces early anyway",
            StopCondition::MaxSteps,
            10,
            vec![n(0)],
            StopReason::Quiescent,
            6,
        ),
        (
            "max-steps runs out mid-chain",
            StopCondition::MaxSteps,
            3,
            vec![n(0)],
            StopReason::MaxStepsReached,
            3,
        ),
        (
            "terminal fires at the chain's end",
            StopCondition::Terminal,
            50,
            vec![n(0)],
            StopReason::ConditionMet,
            6,
        ),
        (
            "terminal among the induced spikes stops at t = 0",
            StopCondition::Terminal,
            50,
            vec![n(0), n(3)],
            StopReason::ConditionMet,
            0,
        ),
        (
            "all-of met mid-chain",
            StopCondition::AllOf(vec![n(1), n(2)]),
            50,
            vec![n(0)],
            StopReason::ConditionMet,
            4,
        ),
        (
            "all-of with duplicate ids still satisfiable",
            StopCondition::AllOf(vec![n(1), n(1), n(3), n(1)]),
            50,
            vec![n(0)],
            StopReason::ConditionMet,
            6,
        ),
        (
            "all-of met at t = 0",
            StopCondition::AllOf(vec![n(0)]),
            50,
            vec![n(0)],
            StopReason::ConditionMet,
            0,
        ),
        (
            "empty all-of is vacuously met at t = 0",
            StopCondition::AllOf(vec![]),
            50,
            vec![n(0)],
            StopReason::ConditionMet,
            0,
        ),
        (
            "all-of never completed quiesces with the chain",
            StopCondition::AllOf(vec![n(1), n(4)]),
            12,
            vec![n(0)],
            StopReason::Quiescent,
            6,
        ),
        (
            "all-of never completed burns a mid-flight budget",
            StopCondition::AllOf(vec![n(1), n(4)]),
            5,
            vec![n(0)],
            StopReason::MaxStepsReached,
            5,
        ),
        (
            "any-of met mid-chain",
            StopCondition::AnyOf(vec![n(2), n(3)]),
            50,
            vec![n(0)],
            StopReason::ConditionMet,
            4,
        ),
        (
            "any-of met at t = 0",
            StopCondition::AnyOf(vec![n(0), n(3)]),
            50,
            vec![n(0)],
            StopReason::ConditionMet,
            0,
        ),
        (
            "any-of of an unreachable neuron quiesces",
            StopCondition::AnyOf(vec![n(4)]),
            50,
            vec![n(0)],
            StopReason::Quiescent,
            6,
        ),
        (
            "empty any-of is unsatisfiable and quiesces",
            StopCondition::AnyOf(vec![]),
            50,
            vec![n(0)],
            StopReason::Quiescent,
            6,
        ),
    ];

    let (net, _) = fixture();
    for (name, stop, max_steps, initial, reason, steps) in cases {
        for (engine_name, engine) in engines() {
            let cfg = RunConfig {
                max_steps,
                stop: stop.clone(),
                record_raster: false,
                strict: false,
            };
            let r = engine.run(&net, &initial, &cfg).unwrap();
            assert_eq!(r.reason, reason, "case '{name}' on {engine_name}");
            assert_eq!(r.steps, steps, "case '{name}' on {engine_name}");
        }
    }
}

/// End-to-end regression for the `AllOf` duplicate-id bug: with strict
/// mode on, the inflated pending count didn't just waste the budget — it
/// turned a satisfiable run into a hard error.
#[test]
fn strict_all_of_with_duplicates_succeeds() {
    let (net, ids) = fixture();
    let cfg = RunConfig::until_all(vec![ids[1], ids[1], ids[2]], 50).strict();
    for (engine_name, engine) in engines() {
        let r = engine
            .run(&net, &[ids[0]], &cfg)
            .unwrap_or_else(|e| panic!("{engine_name} errored: {e}"));
        assert_eq!(r.reason, StopReason::ConditionMet, "{engine_name}");
        assert_eq!(r.steps, 4, "{engine_name}");
    }
}

/// Strict mode still errors when the budget ends with the condition unmet
/// and spikes in flight.
#[test]
fn strict_unmet_condition_still_errors() {
    let (net, ids) = fixture();
    let cfg = RunConfig::until_all(vec![ids[1], ids[4]], 5).strict();
    for (engine_name, engine) in engines() {
        assert!(
            engine.run(&net, &[ids[0]], &cfg).is_err(),
            "{engine_name} should error"
        );
    }
}
