//! Ablation: dense (literal) vs event-driven vs bit-plane SNN engines.
//!
//! Two workload families:
//!
//! * the delay-encoded SSSP network on a sparse random digraph — the
//!   event-driven-communication argument of §2.1 as wall-clock; and
//! * a near-complete gate network (`m = n²/4`, delays ≤ 9) — the regime
//!   the bit-plane engine exists for, in both its delivery modes: the
//!   CSR-gather fallback (`*_gnp`, forced by a sub-threshold synapse) and
//!   the OR-mask fast path (`*_gnp_mask`, unit gate fan-out).
//!
//! Row ids are paired: every `bitplane*` id has a `dense*` sibling under
//! the same parameter, and `perf_check` enforces the intra-run ordering
//! `bitplane <= dense` on each pair.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sgl_core::sssp_pseudo::SpikingSssp;
use sgl_graph::{generators, Graph};
use sgl_snn::engine::{BitplaneEngine, DenseEngine, Engine, EventEngine, RunConfig};
use sgl_snn::{LifParams, Network, NeuronId};

/// Gate network over `g`'s edge set: threshold-0.5 memoryless neurons,
/// every synapse weight 1.0 (above threshold), delays = edge lengths.
/// With `mask_eligible` the network satisfies the bit-plane engine's
/// OR-mask conditions; otherwise one sub-threshold self-synapse forces
/// the CSR-gather path without perturbing which neurons can fire.
fn gate_net_from(g: &Graph, mask_eligible: bool) -> Network {
    let mut net = Network::new();
    let ids: Vec<NeuronId> = (0..g.n())
        .map(|_| net.add_neuron(LifParams::gate(0.5)))
        .collect();
    for (u, v, len) in g.edges() {
        net.connect(ids[u], ids[v], 1.0, (len as u32).max(1))
            .unwrap();
    }
    if !mask_eligible {
        net.connect(ids[0], ids[0], 0.25, 1).unwrap();
    }
    net.freeze();
    net
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("snn_engines");
    group.sample_size(20);

    // Sparse SSSP family: m = 4n, the event engine's home turf. The
    // bit-plane engine runs gather-mode here (SSSP networks carry
    // inhibitory self-synapses, so OR-masks are ineligible).
    for &n in &[64usize, 256, 1024] {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::gnm_connected(&mut rng, n, 4 * n, 1..=9);
        let net = SpikingSssp::new(&g, 0).build_network();
        let cfg = RunConfig::until_quiescent(10 * n as u64);
        group.bench_with_input(BenchmarkId::new("event", n), &n, |b, _| {
            b.iter(|| EventEngine.run(&net, &[NeuronId(0)], &cfg).unwrap());
        });
        if n <= 256 {
            group.bench_with_input(BenchmarkId::new("dense", n), &n, |b, _| {
                b.iter(|| DenseEngine.run(&net, &[NeuronId(0)], &cfg).unwrap());
            });
            group.bench_with_input(BenchmarkId::new("bitplane", n), &n, |b, _| {
                b.iter(|| BitplaneEngine.run(&net, &[NeuronId(0)], &cfg).unwrap());
            });
        }
    }

    // Near-complete family: m = n²/4, short delays — Auto routes these
    // to the bit-plane engine. Fixed horizon so every engine does the
    // same number of steps; the network saturates within a few steps,
    // so per-step delivery cost dominates.
    for &n in &[256usize, 1024] {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::gnm_connected(&mut rng, n, n * n / 4, 1..=9);
        let cfg = RunConfig::fixed(32);
        for (suffix, mask_eligible) in [("gnp", false), ("gnp_mask", true)] {
            let net = gate_net_from(&g, mask_eligible);
            let id = |engine: &str| BenchmarkId::new(&format!("{engine}_{suffix}"), n);
            group.bench_with_input(id("dense"), &n, |b, _| {
                b.iter(|| DenseEngine.run(&net, &[NeuronId(0)], &cfg).unwrap());
            });
            group.bench_with_input(id("bitplane"), &n, |b, _| {
                b.iter(|| BitplaneEngine.run(&net, &[NeuronId(0)], &cfg).unwrap());
            });
            group.bench_with_input(id("event"), &n, |b, _| {
                b.iter(|| EventEngine.run(&net, &[NeuronId(0)], &cfg).unwrap());
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
