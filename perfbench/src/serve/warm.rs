//! `serve_warm`: every measured query answered by a resident network.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sgl_graph::{generators, Graph};

use super::replay::{self, Replayed};
use super::{lag, parallelism, pick, poisson_due, settle, Keys, Kind, Sent, Server};
use crate::client::{self, Completion, Scheduled};
use crate::stats::{median, Mixed};
use crate::tier::{expect_all_warm, StatsSnapshot, TierMix};
use crate::workload::{per_layer_metrics, sub_seed, Args, Outcome};

/// Set-ups per run (server start, loads and warm-up); `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// The two preloaded graphs: `(name, nodes, edges, max length, hop bound)`.
const GRAPHS: [(&str, usize, usize, u64, u32); 2] = [
    // Sparse: m = 4n, so `Auto` picks the event engine.
    ("sparse", 10_000, 40_000, 16, 4),
    // Near-complete with lengths ≤ 64: `Auto` picks the bit-plane engine
    // for its SSSP network.
    ("dense", 512, 200_000, 64, 2),
];

/// Query mix (per graph), taken from the service's stress default mix
/// (`sgl_serve::stress::Mix::default`: full-row `sssp` 6, `khop` 2,
/// `apsp_row` 1, `graph_stats` 1). `graph_stats` runs no network and is
/// left out; the `sssp` share is split evenly between targeted and
/// full-row queries, which the stress mix does not tell apart.
const MIX: [(Kind, u32); 4] = [
    (Kind::Targeted, 3),
    (Kind::Row, 3),
    (Kind::Khop, 2),
    (Kind::Apsp, 1),
];

/// Offered loads of the two open-loop phases, requests per second: about
/// a quarter and a half of the closed-loop capacity this mix reaches on a
/// 2-vCPU x86-64 VM with one shard (`warm_capacity_qps` 310–405/s, median
/// 338/s over ten seeds), so both stay below saturation and the higher
/// one queues measurably.
pub const RATE_LO: f64 = 75.0;
/// See [`RATE_LO`].
pub const RATE_HI: f64 = 150.0;
/// Share of `--seconds` each open-loop phase runs in total. With the
/// capacity phase this keeps a 25 s run within the dense graph's 512
/// distinct full-row keys per family.
const OPEN_SHARE: f64 = 0.25;
/// The run is this many rounds of a `warm_lo` segment, a `warm_hi`
/// segment and a capacity chunk, so a slow stretch of the machine lands on
/// all three.
const ROUNDS: usize = 3;
/// Requests of the capacity phase per measured second; the phase runs as
/// one chunk per round.
const CAPACITY_PER_SECOND: f64 = 50.0;
/// Requests each connection keeps in flight in the capacity phase.
const CAPACITY_DEPTH: usize = 4;

/// A stretch of one open-loop phase: requests and their due times.
pub struct Segment {
    /// Phase name (`warm_lo`, `warm_hi`).
    pub name: &'static str,
    /// Due time of each request after the segment start.
    pub due: Vec<Duration>,
    /// The requests.
    pub sent: Vec<Sent>,
}

/// A run's inputs: the graphs and every request, all from the seed.
pub struct Schedule {
    /// The preloaded graphs, in [`GRAPHS`] order.
    pub graphs: Vec<Graph>,
    /// Warm-up queries (one per construction per graph).
    pub warmup: Vec<Sent>,
    /// Open-loop segments, in run order.
    pub open: Vec<Segment>,
    /// Closed-loop capacity phase requests.
    pub capacity: Vec<Sent>,
    /// Full-row draws that found their family's keys used up and became
    /// targeted queries (see [`Keys::next`]).
    pub fallbacks: usize,
}

impl Schedule {
    /// Builds the inputs for `seed` and a run of `seconds`.
    pub fn new(seed: u64, seconds: f64) -> Self {
        let graphs: Vec<Graph> = GRAPHS
            .iter()
            .enumerate()
            .map(|(i, &(_, n, m, max_len, _))| {
                let mut rng = StdRng::seed_from_u64(sub_seed(seed, &format!("warm.graph{i}")));
                generators::gnm(&mut rng, n, m, 1..=max_len)
            })
            .collect();
        let mut keys: Vec<Keys> = GRAPHS
            .iter()
            .enumerate()
            .map(|(i, &(_, n, _, _, k))| Keys::new(sub_seed(seed, &format!("warm.keys{i}")), n, k))
            .collect();
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, "warm.mix"));
        let mut arrivals = StdRng::seed_from_u64(sub_seed(seed, "warm.arrivals"));
        let mut id = 0u64;
        let mut sent = |graph: usize, kind: Kind, keys: &mut Vec<Keys>| {
            id += 1;
            Sent {
                graph: GRAPHS[graph].0.to_string(),
                version: graph,
                query: keys[graph].next(kind),
                id,
            }
        };
        let warmup = (0..GRAPHS.len())
            .flat_map(|g| [(g, Kind::Row), (g, Kind::Khop)])
            .map(|(g, kind)| sent(g, kind, &mut keys))
            .collect();
        let mut draw = |count: usize| -> Vec<Sent> {
            (0..count)
                .map(|i| {
                    let kind = pick(&mut rng, &MIX);
                    sent(i % GRAPHS.len(), kind, &mut keys)
                })
                .collect()
        };
        let per_segment =
            |rate: f64| ((seconds * OPEN_SHARE * rate / ROUNDS as f64).round() as usize).max(10);
        let mut open = Vec::new();
        for _ in 0..ROUNDS {
            for (name, rate) in [("warm_lo", RATE_LO), ("warm_hi", RATE_HI)] {
                let sent = draw(per_segment(rate));
                let due = poisson_due(&mut arrivals, sent.len(), rate);
                open.push(Segment { name, due, sent });
            }
        }
        let capacity = draw(((seconds * CAPACITY_PER_SECOND).round() as usize).max(20));
        Self {
            graphs,
            warmup,
            open,
            capacity,
            fallbacks: keys.iter().map(|k| k.fallbacks).sum(),
        }
    }
}

/// One measured phase: requests, completions, and the tier counters.
struct Phase {
    name: &'static str,
    sent: Vec<Sent>,
    /// Timings only: each response line is dropped once checked.
    completions: Vec<Completion>,
    wall: Duration,
    failed: u64,
}

fn set_up(schedule: &Schedule) -> Result<Server, String> {
    let mut server = Server::start()?;
    for (g, &(name, ..)) in schedule.graphs.iter().zip(&GRAPHS) {
        server.load(name, g)?;
    }
    for s in &schedule.warmup {
        server.query(&s.graph, &schedule.graphs[s.version], s.query)?;
    }
    Ok(server)
}

/// Runs an open-loop segment, checks its tier mix and its answers.
fn open_phase(
    server: &mut Server,
    schedule: &Schedule,
    segment: &Segment,
    outcome: &mut Outcome,
) -> Result<(Phase, TierMix), String> {
    let (name, sent) = (segment.name, &segment.sent);
    let conns = parallelism();
    let lines: Vec<Scheduled> = segment
        .due
        .iter()
        .zip(sent)
        .enumerate()
        .map(|(i, (&due, s))| Scheduled {
            due,
            conn: i % conns,
            line: s.query.line(&s.graph, s.id),
            after: None,
        })
        .collect();
    let before = server.stats()?;
    let t0 = Instant::now();
    let mut completions = client::open_loop(server.addr(), conns, &lines)?;
    let wall = t0.elapsed();
    let mix = check_tier(server, &before, name, sent.len(), outcome)?;
    let (failed, _) = settle(
        sent,
        &mut completions,
        &|v| schedule.graphs[v].clone(),
        outcome,
    );
    let phase = Phase {
        name,
        sent: sent.to_vec(),
        completions,
        wall,
        failed,
    };
    Ok((phase, mix))
}

/// Classifies a phase's queries from the counters and records a problem
/// unless every one of them was warm.
fn check_tier(
    server: &mut Server,
    before: &StatsSnapshot,
    name: &str,
    queries: usize,
    outcome: &mut Outcome,
) -> Result<TierMix, String> {
    let after = server.stats()?;
    let queries = queries as u64;
    let mix = TierMix::classify(before, &after, queries);
    if let Err(e) = mix.clone().and_then(|m| expect_all_warm(m, queries)) {
        outcome.problem(format!("{name}: {e}"));
    }
    Ok(mix.unwrap_or_default())
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let schedule = Schedule::new(args.seed, args.seconds);
    let mut outcome = Outcome::default();

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        drop(server.take()); // stop the previous set-up's server first
        let t0 = Instant::now();
        server = Some(set_up(&schedule)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut server = server.expect("at least one set-up");
    let start_stats = server.stats()?;

    // Every segment and chunk is checked and its response lines dropped
    // before the next, so the benchmark's own memory stays small next to
    // the server's.
    let mut phases: Vec<Phase> = Vec::new();
    let mut mixes = Vec::new();
    let chunk = schedule.capacity.len().div_ceil(ROUNDS);
    let (mut cap_replies, mut cap_wall, mut cap_failed) = (Vec::new(), Duration::ZERO, 0);
    for (round, sent) in schedule
        .open
        .chunks(schedule.open.len() / ROUNDS)
        .zip(schedule.capacity.chunks(chunk))
    {
        for seg in round {
            let (segment, mix) = open_phase(&mut server, &schedule, seg, &mut outcome)?;
            mixes.push(mix);
            match phases.iter_mut().find(|p| p.name == seg.name) {
                Some(p) => {
                    p.sent.extend(segment.sent);
                    p.completions.extend(segment.completions);
                    p.wall += segment.wall;
                    p.failed += segment.failed;
                }
                None => phases.push(segment),
            }
        }
        let lines: Vec<String> = sent.iter().map(|s| s.query.line(&s.graph, s.id)).collect();
        let before = server.stats()?;
        let (mut replies, wall) =
            client::closed_loop(server.addr(), parallelism(), CAPACITY_DEPTH, &lines)?;
        cap_wall += wall;
        mixes.push(check_tier(
            &mut server,
            &before,
            "capacity",
            lines.len(),
            &mut outcome,
        )?);
        cap_failed += settle(
            sent,
            &mut replies,
            &|v| schedule.graphs[v].clone(),
            &mut outcome,
        )
        .0;
        cap_replies.extend(replies);
    }
    for p in &phases {
        outcome.tier(p.name, p.sent.len() as u64, p.failed);
    }
    let cap_count = schedule.capacity.len();
    outcome.tier("capacity", cap_count as u64, cap_failed);
    let end_stats = server.stats()?;

    let lat: Vec<Mixed> = phases
        .iter()
        .map(|p| family_latency(&p.sent, &p.completions))
        .collect();
    let gen_lag = lag(phases.iter().flat_map(|p| &p.completions));
    for (p, m) in phases.iter().zip(&lat) {
        outcome.named_mixed(p.name, m, "ms");
        outcome.named(
            &format!("{}_offered_qps", p.name),
            p.sent.len() as f64 / p.wall.as_secs_f64(),
            "1/s",
        );
    }
    // The capacity phase never waits on an arrival schedule: the shard is
    // never idle, so a slowed machine moves its figures in proportion,
    // where the open-loop phases also pay an idle core's wake-up each
    // request (on a contended VM, a host-dependent delay).
    let capacity_ms = cap_wall.as_secs_f64() * 1e3 / cap_count as f64;
    outcome.named("warm_capacity_qps", 1e3 / capacity_ms, "1/s");
    let loaded = family_latency(&schedule.capacity, &cap_replies);
    outcome.named_mixed("warm_capacity", &loaded, "ms");
    let (lo, hi) = (&lat[0].pooled, &lat[1].pooled);
    outcome.named("hi_over_lo_p50", hi.p50 / lo.p50, "ratio");
    outcome.named("hi_over_lo_tail", hi.tail / lo.tail, "ratio");
    let total = |f: fn(&TierMix) -> u64| mixes.iter().map(f).sum::<u64>() as f64;
    outcome.named("key_fallbacks", schedule.fallbacks as f64, "count");
    outcome.named("measured_memo_hits", total(|m| m.memo), "count");
    outcome.named("measured_warm", total(|m| m.warm), "count");
    outcome.named("measured_compiles", total(|m| m.cold), "count");
    outcome.named("gen_lag_p50_us", gen_lag.p50, "us");
    outcome.named(
        &format!("gen_lag_{}_us", gen_lag.tail_label()),
        gen_lag.tail,
        "us",
    );

    if args.trace {
        let mut layer: HashMap<&'static str, f64> = HashMap::new();
        let requests: Vec<&Sent> = phases.iter().flat_map(|p| p.sent.iter()).collect();
        let graphs: Vec<(&str, &Graph)> = GRAPHS
            .iter()
            .map(|g| g.0)
            .zip(schedule.graphs.iter())
            .collect();
        let replayed: Replayed = replay::warm(&graphs, &schedule.warmup, &requests)?;
        replayed.layers(&mut layer);
        let mut unattributed = Vec::new();
        for p in &phases {
            let pairs: Vec<(u64, f64)> = p
                .sent
                .iter()
                .zip(&p.completions)
                .map(|(s, c)| (s.id, c.latency_ms()))
                .collect();
            unattributed.push(replayed.reconcile(&mut outcome, p.name, &pairs));
        }
        layer.insert("unattributed_us", unattributed[0]);
        layer.insert("gen.lag_p99_us", gen_lag.tail);
        insert_cache_layers(&mut layer, &start_stats, &end_stats);
        layer.insert("trace.overhead_ratio", replayed.overhead_ratio);
        outcome.extra.push((
            "spans",
            crate::workload::write_spans(args, &replayed.recorder),
        ));
        outcome.metrics = per_layer_metrics(&layer);
    } else {
        outcome.end_to_end(median(&setups), loaded.mix_mean, capacity_ms);
    }
    outcome.named("setup_s", median(&setups), "s");
    Ok(outcome)
}

/// Latency by graph × query family, weighted by [`MIX`] (the graphs take
/// equal shares).
fn family_latency(sent: &[Sent], completions: &[Completion]) -> Mixed {
    Mixed::of(
        &sent
            .iter()
            .zip(completions)
            .map(|(s, c)| (format!("{}_{}", s.graph, s.query.family()), c.latency_ms()))
            .collect::<Vec<_>>(),
        |family| {
            MIX.iter()
                .find(|(kind, _)| family.ends_with(kind.family()))
                .map_or(0.0, |&(_, w)| f64::from(w))
        },
    )
}

/// Cache and queue layer figures from the `server_stats` snapshots
/// bracketing the measured phases.
pub fn insert_cache_layers(
    layer: &mut HashMap<&'static str, f64>,
    start: &StatsSnapshot,
    end: &StatsSnapshot,
) {
    let hits = end.hits.saturating_sub(start.hits) as f64;
    let misses = end.misses.saturating_sub(start.misses) as f64;
    layer.insert(
        "cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    layer.insert("cache.misses", misses);
    layer.insert("cache.memo_entries", end.result_entries as f64);
    layer.insert("cache.memo_bytes", end.result_bytes as f64);
    layer.insert("cache.net_bytes", end.net_bytes as f64);
    layer.insert("queue.wait_p50_us", end.queue_wait_p50_us as f64);
    layer.insert("queue.wait_p99_us", end.queue_wait_p99_us as f64);
    layer.insert("queue.depth_max", end.queue_depth_max as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn schedule_is_deterministic_per_seed_and_never_repeats_a_key() {
        let a = Schedule::new(11, 2.0);
        let b = Schedule::new(11, 2.0);
        let c = Schedule::new(12, 2.0);
        let keys = |s: &Schedule| {
            s.warmup
                .iter()
                .chain(s.open.iter().flat_map(|seg| &seg.sent))
                .chain(&s.capacity)
                .map(|s| (s.version, s.query))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&a), keys(&b));
        assert_ne!(keys(&a), keys(&c));
        assert!(a
            .graphs
            .iter()
            .zip(&b.graphs)
            .all(|(x, y)| x.edges().eq(y.edges())));
        let all = keys(&a);
        let distinct: HashSet<_> = all.iter().collect();
        assert_eq!(
            distinct.len(),
            all.len(),
            "a key repeats, so a memo hit would be measured"
        );
        let lo: usize = a
            .open
            .iter()
            .filter(|o| o.name == "warm_lo")
            .map(|o| o.sent.len())
            .sum();
        let due = |s: &Schedule| s.open.iter().map(|o| o.due.clone()).collect::<Vec<_>>();
        assert_eq!(due(&a), due(&b));
        assert_ne!(due(&a), due(&c));
        assert_eq!(
            lo,
            ROUNDS * (2.0 * OPEN_SHARE * RATE_LO / ROUNDS as f64).round() as usize
        );
    }

    #[test]
    fn a_full_length_run_keeps_the_declared_mix() {
        let bench: sgl_observe::Json = sgl_observe::parse_json(
            &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap(),
        )
        .unwrap();
        let seconds = bench
            .get("run_seconds")
            .and_then(sgl_observe::Json::as_f64)
            .unwrap();
        for seed in 1..=10 {
            assert_eq!(Schedule::new(seed, seconds).fallbacks, 0, "seed {seed}");
        }
    }
}
