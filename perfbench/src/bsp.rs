//! `bsp_1m`: SSSP at n = 10^6 through the partitioned engine.
//!
//! The graph is the partition bench's layered DAG
//! ([`sgl_bench::synth::layered`], 200 layers of 5000 nodes, fan-out 3,
//! lengths 1..=4), seeded from the workload seed. Set-up builds the §3
//! SSSP network and compiles it once into a [`PartitionPlan`]; the
//! measured loop then solves from a seeded sequence of distinct layer-0
//! sources with [`PartitionPlan::run_with_stats_threaded`]. After every
//! timed solve, outside the timed region, the monolithic [`EventEngine`]
//! runs the same network and source: its first-spike times are the oracle
//! the partitioned distances must equal, and its wall time is the
//! alternative the plan competes with.
//!
//! The end-to-end run drives the plan with one worker fewer than the
//! machine has cores (see [`solve_threads`]); the traced run drives it
//! with one worker per partition, so the threaded driver's busy, barrier
//! and imbalance figures are measured there.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sgl_bench::synth;
use sgl_core::sssp_pseudo::SpikingSssp;
use sgl_graph::{dijkstra, Graph};
use sgl_snn::engine::{Engine, EventEngine, RunConfig, SimStats, StopCondition};
use sgl_snn::partition::{PartitionPlan, PartitionRunStats, PartitionedEngine};
use sgl_snn::{Network, NeuronId};

use crate::spans::{coverage, Recorder};
use crate::stats::{median, Summary};
use crate::workload::{per_layer_metrics, shuffled, sub_seed, Args, Outcome};

/// Set-ups per run (network build + plan compile); `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
const LAYERS: usize = 200;
const WIDTH: usize = 5_000;
const FANOUT: usize = 3;
const MAX_LEN: u64 = 4;
/// Fewest solves a run makes, however long each takes.
const MIN_SOLVES: usize = 5;

/// The run configuration `SpikingSssp::solve` uses.
fn sssp_config(n: usize, max_len: u64) -> RunConfig {
    RunConfig {
        max_steps: (n as u64).saturating_mul(max_len.max(1)) + 1,
        stop: StopCondition::Quiescent,
        record_raster: false,
        strict: false,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Partitions of the plan: the core count, at most 2.
fn parts() -> usize {
    cores().clamp(1, 2)
}

/// Workers for the end-to-end solves: one fewer than the cores (at least
/// one). With every core a worker, each superstep's barrier waits for
/// whichever core the host last took away: on a 2-vCPU VM under 5–25 %
/// steal the 2-worker solve median swung 0.29–0.73 s across seeds (IQR
/// 0.86 of the median) while single-worker solves stayed within 0.13.
fn solve_threads() -> usize {
    cores().saturating_sub(1).clamp(1, parts())
}

struct Compiled {
    net: Network,
    plan: PartitionPlan,
    build: Duration,
    plan_compile: Duration,
}

fn compile(g: &Graph, parts: usize) -> Result<Compiled, String> {
    let t0 = Instant::now();
    let net = SpikingSssp::new(g, 0).build_network();
    let build = t0.elapsed();
    let t1 = Instant::now();
    let plan = PartitionedEngine::new(parts)
        .compile(&net)
        .map_err(|e| format!("plan compile: {e}"))?;
    let plan_compile = t1.elapsed();
    Ok(Compiled {
        net,
        plan,
        build,
        plan_compile,
    })
}

/// One measured solve and its oracle run (only the oracle's counters are
/// kept: a million-neuron result is tens of MB).
struct Solve {
    wall: Duration,
    stats: PartitionRunStats,
    event_wall: Duration,
    event_steps: u64,
    event_work: SimStats,
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let g = synth::layered(
        sub_seed(args.seed, "bsp.graph"),
        LAYERS,
        WIDTH,
        FANOUT,
        MAX_LEN,
    );
    let n = g.n();
    let threads = if args.trace { parts() } else { solve_threads() };
    let config = sssp_config(n, MAX_LEN);
    let mut rng = StdRng::seed_from_u64(sub_seed(args.seed, "bsp.sources"));
    let sources = shuffled(&mut rng, (0..WIDTH).collect());

    let mut outcome = Outcome::default();
    let mut rec = Recorder::new();

    // Set-up: build the network and compile the plan, several times; the
    // last compile is the one the solves run on.
    let mut setups = Vec::new();
    let mut compiled = None;
    for _ in 0..SETUP_REPEATS {
        drop(compiled.take());
        let t0 = Instant::now();
        let c = compile(&g, parts())?;
        setups.push(t0.elapsed().as_secs_f64());
        compiled = Some(c);
    }
    let c = compiled.expect("at least one set-up");

    let mut solves: Vec<Solve> = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    // Each attempt takes the next source; the loop ends at the first
    // failure, so a solve that keeps failing cannot hold the run open.
    let mut attempts = 0usize;
    while failed == 0
        && attempts < sources.len()
        && (attempts < MIN_SOLVES || start.elapsed().as_secs_f64() < args.seconds)
    {
        let req = attempts as u64;
        let source = sources[attempts];
        attempts += 1;
        let spikes = [NeuronId(source as u32)];
        let t0 = Instant::now();
        let run = if args.trace {
            rec.span("bsp.run", req, |_| {
                c.plan.run_with_stats_threaded(&spikes, &config, threads)
            })
        } else {
            c.plan.run_with_stats_threaded(&spikes, &config, threads)
        };
        let wall = t0.elapsed();
        // Oracle, outside the timed region.
        let t1 = Instant::now();
        let event = if args.trace {
            rec.span("event.run", req, |_| {
                EventEngine.run(&c.net, &spikes, &config)
            })
        } else {
            EventEngine.run(&c.net, &spikes, &config)
        };
        let event_wall = t1.elapsed();
        let (result, stats, event) = match (run, event) {
            (Ok((r, s)), Ok(e)) => (r, s, e),
            (Err(e), _) | (_, Err(e)) => {
                failed += 1;
                outcome.problem(format!("solve from {source}: {e}"));
                break;
            }
        };
        let mut wrong = result.first_spikes[..n] != event.first_spikes[..n];
        if solves.is_empty() {
            // One independent check that the oracle itself is right.
            wrong |= dijkstra(&g, source).distances != event.first_spikes[..n];
        }
        if wrong {
            failed += 1;
            outcome.problem(format!("distances from {source} differ from the oracle"));
        }
        solves.push(Solve {
            wall,
            stats,
            event_wall,
            event_steps: event.steps,
            event_work: event.stats,
        });
    }
    outcome.tier("solve", attempts as u64, failed);

    let solve = Summary::of(&solves.iter().map(|s| ms(s.wall)).collect::<Vec<_>>());
    let event = Summary::of(&solves.iter().map(|s| ms(s.event_wall)).collect::<Vec<_>>());
    outcome.named("solve_s", solve.p50 / 1e3, "s");
    outcome.named_latency("solve", &solve, "ms");
    outcome.named_latency("event_solve", &event, "ms");

    if args.trace {
        let mut layer: HashMap<&'static str, f64> = HashMap::new();
        let per = |f: &dyn Fn(&Solve) -> f64| median(&solves.iter().map(f).collect::<Vec<_>>());
        let worker_mean = |s: &Solve, f: &dyn Fn(&sgl_snn::partition::WorkerStats) -> u64| {
            let w = &s.stats.workers;
            if w.is_empty() {
                0.0
            } else {
                w.iter().map(f).sum::<u64>() as f64 / w.len() as f64 / 1e6
            }
        };
        layer.insert("plan.compile_ms", ms(c.plan_compile));
        layer.insert("compile.build_ms", ms(c.build));
        layer.insert("plan.cut_edges", c.plan.cut_edge_count() as f64);
        layer.insert(
            "plan.memory_mb",
            c.plan.memory_bytes() as f64 / (1 << 20) as f64,
        );
        layer.insert("bsp.run_ms", solve.p50);
        layer.insert("bsp.supersteps", per(&|s| s.stats.supersteps as f64));
        layer.insert("bsp.cut_messages", per(&|s| s.stats.cut_messages as f64));
        layer.insert("bsp.spilled", per(&|s| s.stats.spilled_messages as f64));
        layer.insert(
            "bsp.worker_busy_ms",
            per(&|s| worker_mean(s, &|w| w.busy_ns)),
        );
        layer.insert(
            "bsp.barrier_wait_ms",
            per(&|s| worker_mean(s, &|w| w.barrier_wait_ns)),
        );
        layer.insert("bsp.imbalance_max", per(&|s| s.stats.imbalance_max));
        layer.insert("bsp.imbalance_mean", per(&|s| s.stats.imbalance_mean));
        // Worker busy + barrier wait tile each worker's superstep loop, so
        // their per-worker mean is the attributed share of the solve.
        let cover = per(&|s| {
            let attributed = worker_mean(s, &|w| w.busy_ns + w.barrier_wait_ns);
            coverage(attributed, ms(s.wall))
        });
        layer.insert("bsp.coverage", cover);
        layer.insert("event.run_ms", event.p50);
        layer.insert("sim.event_us", event.p50 * 1e3);
        layer.insert("sim.steps", per(&|s| s.event_steps as f64));
        layer.insert(
            "sim.spike_events",
            per(&|s| s.event_work.spike_events as f64),
        );
        layer.insert(
            "sim.synaptic_deliveries",
            per(&|s| s.event_work.synaptic_deliveries as f64),
        );
        layer.insert(
            "sim.neuron_updates",
            per(&|s| s.event_work.neuron_updates as f64),
        );
        layer.insert(
            "trace.overhead_ratio",
            overhead_ratio(&c, &sources, &config, threads),
        );
        outcome.metrics = per_layer_metrics(&layer);
        outcome
            .extra
            .push(("spans", crate::workload::write_spans(args, &rec)));
    } else {
        outcome.end_to_end(median(&setups), solve.p50, event.p50);
    }
    outcome.named("setup_s", median(&setups), "s");
    Ok(outcome)
}

/// Wall time of solves wrapped in spans over the same solves unwrapped,
/// alternating so drift affects both sides alike.
fn overhead_ratio(c: &Compiled, sources: &[usize], config: &RunConfig, threads: usize) -> f64 {
    let mut rec = Recorder::new();
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for (i, &s) in sources.iter().take(4).enumerate() {
        let spikes = [NeuronId(s as u32)];
        let t0 = Instant::now();
        let _ = rec.span("bsp.run", i as u64, |_| {
            c.plan.run_with_stats_threaded(&spikes, config, threads)
        });
        traced.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let _ = c.plan.run_with_stats_threaded(&spikes, config, threads);
        plain.push(t1.elapsed().as_secs_f64());
    }
    median(&traced) / median(&plain).max(f64::MIN_POSITIVE)
}
