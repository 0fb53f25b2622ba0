//! `serve_churn`: graph reloads, cold compiles and memo hits side by side.
//!
//! The phase alternates open-loop segments (reloads, their cold reads and
//! memo reads at fixed rates) with closed-loop batches on one connection:
//! reload cycles (a `load_graph` of a fresh graph and one cold read per
//! construction, sent together) and memo bursts (hot-key reads sent
//! together). Each batch goes out when the previous one is answered. The
//! gated figures come from the batches: they keep the shard busy for
//! milliseconds per wake-up, so they move with the cost of parsing,
//! compiling and the memo path, and much less with how fast an idle
//! virtual CPU wakes, which dominates the open-loop reads' run-to-run
//! spread.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgl_graph::{generators, Graph};
use sgl_serve::Request;

use super::replay;
use super::warm::insert_cache_layers;
use super::{lag, parallelism, poisson_due, settle, Keys, Kind, Sent, Server};
use crate::client::{self, Completion, Scheduled};
use crate::oracle::{self, Query};
use crate::stats::{median, Mixed, Summary};
use crate::tier::expect_churn;
use crate::workload::{per_layer_metrics, sub_seed, Args, Outcome};

/// Set-ups per run (server start, hot load and hot keys); `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Registry names the reloads rotate through.
const NAMES: usize = 8;
/// Least time from a reload's last cold read being due to the next reload
/// of the same name being due. The server runs a `load_graph` as soon as
/// it parses it but queues reads, so a reload parsed while a read of the
/// same name still waits in the queue would answer that read from the new
/// graph. The generator therefore also holds a reload until the previous
/// reload's reads of its name are answered ([`Event::after`]); the gap
/// makes that hold bind only when the server stalls.
const RELOAD_GAP: Duration = Duration::from_millis(250);
/// Reloads per second. The workload's intent is that reload work (DIMACS
/// parse, registry insert, two cold compiles) is most of the shard's time
/// while the shard stays below saturation: at 25/s that work holds one
/// shard about 15 % busy on a 2-vCPU x86-64 VM (`load_p50_ms` ≈ 3,
/// `cold_p50_ms` ≈ 1.3).
pub const WRITE_RATE: f64 = 25.0;
/// Memo-hit reads per second: eight per reload, so most requests are
/// reads, and about one read arrives during each reload's ≈ 6 ms of shard
/// work and waits behind it (the head-of-line effect the workload exists
/// to show).
pub const MEMO_RATE: f64 = 200.0;
/// The phase runs as back-to-back segments of this length. A segment's
/// load lines are rendered just before it runs, and its answers are
/// checked and dropped right after, so the benchmark's own memory stays
/// small next to the server's in `peak_rss_mb`.
const SEGMENT: Duration = Duration::from_secs(5);
/// Reload cycles per second of `--seconds`, run in equal shares after the
/// open-loop segments. A cycle is one reload followed by one cold read per
/// construction, sent together.
const CYCLE_RATE: f64 = 20.0;
/// Events per cycle.
const CYCLE_EVENTS: usize = 1 + COLD_DELAYS.len();
/// Cycles rendered, run, checked and dropped at a time (each `load_graph`
/// line holds a 50–100 KB DIMACS text).
const CYCLE_CHUNK: usize = 20;
/// Memo bursts per second of `--seconds`, run after the cycles. A burst is
/// [`BURST`] hot-key reads sent together.
const BURST_RATE: f64 = 4.0;
/// Reads per memo burst: enough that a burst keeps the shard busy for a
/// few ms per wake-up, so its time moves with the memo path's cost and
/// little with how fast an idle virtual CPU wakes.
const BURST: usize = 128;
/// Delays from a reload to its two cold reads (SSSP, then k-hop). They
/// share the reload's connection, so they are answered after it in any
/// case; the spacing keeps each read from queueing behind the previous.
const COLD_DELAYS: [Duration; 2] = [Duration::from_millis(10), Duration::from_millis(25)];
/// Hop bound of the k-hop construction.
const K: u32 = 3;
/// Node range of reloaded graphs; each has `4n` edges.
const CHURN_N: (usize, usize) = (1_000, 2_000);
/// The stable graph behind the memo reads, and its hot key count.
const HOT_N: usize = 1_500;
const HOT_KEYS: usize = 16;
const HOT_NAME: &str = "hot";
/// Edge lengths of every graph.
const MAX_LEN: u64 = 16;

/// The request classes of the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `load_graph` of a fresh graph.
    Load,
    /// First query of a construction on a fresh handle.
    Cold,
    /// Repeat of a hot key on the stable graph.
    Memo,
}

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Event {
    /// Due time after the phase start.
    pub due: Duration,
    /// Connection index.
    pub conn: usize,
    /// Class.
    pub class: Class,
    /// Graph version the request concerns (0 = the hot graph, `j + 1` =
    /// the `j`-th reload; the cycles' reloads follow the open-loop ones).
    pub version: usize,
    /// The query, for reads.
    pub sent: Option<Sent>,
    /// Correlation id.
    pub id: u64,
    /// The request (by id) that must be answered before this one is sent:
    /// for a reload, the last read of the previous reload of its name.
    pub after: Option<u64>,
}

/// A run's inputs, all from the seed.
pub struct Schedule {
    seed: u64,
    /// The stable graph.
    pub hot: Graph,
    /// The hot keys (queried once at set-up, then memo hits).
    pub hot_keys: Vec<Query>,
    /// The open-loop phase, in due order.
    pub events: Vec<Event>,
    /// Open-loop reloads (versions `1..=writes`).
    writes: usize,
    /// The reload cycles, [`CYCLE_EVENTS`] each (reload, SSSP read, k-hop
    /// read), due when their cycle is sent.
    pub cycles: Vec<Event>,
    /// The memo bursts, [`BURST`] hot-key reads each, due when their burst
    /// is sent.
    pub bursts: Vec<Event>,
}

/// The registry name reload `version` goes to: open-loop reloads rotate
/// through `churn0..`, and every cycle replaces `cycle`: a cycle's reads
/// are answered before the next cycle is sent, so one name is enough, and
/// the two kinds never replace each other's graphs.
fn name_of(writes: usize, version: usize) -> String {
    if version <= writes {
        format!("churn{}", (version - 1) % NAMES)
    } else {
        "cycle".into()
    }
}

/// The graph of reload `j`.
fn churn_graph(seed: u64, j: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, &format!("churn.graph{j}")));
    let n = rng.gen_range(CHURN_N.0..=CHURN_N.1);
    generators::gnm_connected(&mut rng, n, 4 * n, 1..=MAX_LEN)
}

impl Schedule {
    /// Builds the inputs for `seed` and a run of `seconds`.
    pub fn new(seed: u64, seconds: f64) -> Self {
        let conns = parallelism();
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, "churn.hot"));
        let hot = generators::gnm_connected(&mut rng, HOT_N, 4 * HOT_N, 1..=MAX_LEN);
        let mut keys = Keys::new(sub_seed(seed, "churn.hotkeys"), HOT_N, K);
        let hot_keys: Vec<Query> = [Kind::Row, Kind::Khop, Kind::Targeted, Kind::Apsp]
            .into_iter()
            .cycle()
            .take(HOT_KEYS)
            .map(|kind| keys.next(kind))
            .collect();
        let mut events = Vec::new();
        let mut id = 0u64;
        let mut arrivals = StdRng::seed_from_u64(sub_seed(seed, "churn.arrivals"));
        let writes = ((seconds * WRITE_RATE).round() as usize).max(4);
        let write_due = poisson_due(&mut arrivals, writes, WRITE_RATE);
        // A name is reloaded well after the previous reload's cold reads
        // are due, and never before they are answered, so every cold read
        // is answered from the graph it was asked of.
        let mut name_free = [Duration::ZERO; NAMES];
        let mut last_read: [Option<u64>; NAMES] = [None; NAMES];
        for (j, &arrival) in write_due.iter().enumerate() {
            let due = arrival.max(name_free[j % NAMES]);
            name_free[j % NAMES] = due + COLD_DELAYS[1] + RELOAD_GAP;
            let after = last_read[j % NAMES].replace(id + 1 + COLD_DELAYS.len() as u64);
            let conn = j % conns;
            let name = name_of(writes, j + 1);
            id += 1;
            events.push(Event {
                due,
                conn,
                class: Class::Load,
                version: j + 1,
                sent: None,
                id,
                after,
            });
            let n = churn_graph(seed, j).n();
            let source = rng.gen_range(0..n);
            let reads = [
                Query::Sssp {
                    source,
                    target: None,
                },
                Query::Khop { source, k: K },
            ];
            for (query, delay) in reads.into_iter().zip(COLD_DELAYS) {
                id += 1;
                events.push(Event {
                    due: due + delay,
                    conn,
                    class: Class::Cold,
                    version: j + 1,
                    sent: Some(Sent {
                        graph: name.clone(),
                        version: j + 1,
                        query,
                        id,
                    }),
                    id,
                    after: None,
                });
            }
        }
        let mut draws = StdRng::seed_from_u64(sub_seed(seed, "churn.cycles"));
        let mut cycles = Vec::new();
        for i in 0..((seconds * CYCLE_RATE).round() as usize).max(CYCLE_CHUNK) {
            let version = writes + 1 + i;
            let source = draws.gen_range(0..CHURN_N.0);
            id += 1;
            cycles.push(Event {
                due: Duration::ZERO,
                conn: 0,
                class: Class::Load,
                version,
                sent: None,
                id,
                after: None,
            });
            for query in [
                Query::Sssp {
                    source,
                    target: None,
                },
                Query::Khop { source, k: K },
            ] {
                id += 1;
                cycles.push(Event {
                    due: Duration::ZERO,
                    conn: 0,
                    class: Class::Cold,
                    version,
                    sent: Some(Sent {
                        graph: name_of(writes, version),
                        version,
                        query,
                        id,
                    }),
                    id,
                    after: None,
                });
            }
        }
        let memos = ((seconds * MEMO_RATE).round() as usize).max(20);
        for (i, due) in poisson_due(&mut arrivals, memos, MEMO_RATE)
            .into_iter()
            .enumerate()
        {
            id += 1;
            events.push(Event {
                due,
                conn: i % conns,
                class: Class::Memo,
                version: 0,
                sent: Some(Sent {
                    graph: HOT_NAME.into(),
                    version: 0,
                    query: hot_keys[rng.gen_range(0..HOT_KEYS)],
                    id,
                }),
                id,
                after: None,
            });
        }
        let mut bursts = Vec::new();
        for _ in 0..BURST * ((seconds * BURST_RATE).round() as usize).max(4) {
            id += 1;
            bursts.push(Event {
                due: Duration::ZERO,
                conn: 0,
                class: Class::Memo,
                version: 0,
                sent: Some(Sent {
                    graph: HOT_NAME.into(),
                    version: 0,
                    query: hot_keys[draws.gen_range(0..HOT_KEYS)],
                    id,
                }),
                id,
                after: None,
            });
        }
        events.sort_by_key(|e| e.due);
        Self {
            seed,
            hot,
            hot_keys,
            events,
            writes,
            cycles,
            bursts,
        }
    }

    /// The graph of `version`.
    pub fn graph(&self, version: usize) -> Graph {
        match version {
            0 => self.hot.clone(),
            v => churn_graph(self.seed, v - 1),
        }
    }

    /// The request line of `event`.
    pub fn line(&self, event: &Event) -> String {
        match &event.sent {
            Some(s) => s.query.line(&s.graph, s.id),
            None => oracle::request_line(
                Request::LoadGraph {
                    name: name_of(self.writes, event.version),
                    dimacs: sgl_graph::io::to_dimacs(&self.graph(event.version), "churn"),
                },
                event.id,
            ),
        }
    }

    /// The events of each [`SEGMENT`], as index ranges in due order.
    pub fn segments(&self) -> Vec<std::ops::Range<usize>> {
        let mut out: Vec<std::ops::Range<usize>> = Vec::new();
        let mut segment_of_last = None;
        for (i, e) in self.events.iter().enumerate() {
            let k = e.due.as_nanos() / SEGMENT.as_nanos();
            match out.last_mut() {
                Some(r) if segment_of_last == Some(k) => r.end = i + 1,
                _ => out.push(i..i + 1),
            }
            segment_of_last = Some(k);
        }
        out
    }

    fn count(events: &[Event], class: Class) -> usize {
        events.iter().filter(|e| e.class == class).count()
    }
}

fn set_up(schedule: &Schedule) -> Result<Server, String> {
    let mut server = Server::start()?;
    server.load(HOT_NAME, &schedule.hot)?;
    for &q in &schedule.hot_keys {
        server.query(HOT_NAME, &schedule.hot, q)?;
    }
    Ok(server)
}

/// Checks a finished segment's answers, then drops its response lines.
/// `tally` accumulates attempted and failed reads per class (load, cold,
/// memo).
fn check_segment(
    schedule: &Schedule,
    events: &[Event],
    completions: &mut [Completion],
    tally: &mut [(u64, u64); 3],
    outcome: &mut Outcome,
) {
    for (e, c) in events.iter().zip(completions.iter()) {
        if e.class == Class::Load {
            tally[0].0 += 1;
            if let Err(err) = oracle::ok_data(&c.line, e.id) {
                tally[0].1 += 1;
                outcome.problem(format!("load {}: {err}", e.id));
            }
        }
    }
    for (class, slot, name, tag) in [
        (Class::Cold, 1, "cold", "miss"),
        (Class::Memo, 2, "memo", "hit"),
    ] {
        let (sent, mut done): (Vec<Sent>, Vec<Completion>) = events
            .iter()
            .zip(completions.iter_mut())
            .filter(|(e, _)| e.class == class)
            .map(|(e, c)| {
                let sent = e.sent.clone().expect("reads carry a query");
                (sent, std::mem::take(c))
            })
            .unzip();
        let (mut failed, tags) = settle(&sent, &mut done, &|v| schedule.graph(v), outcome);
        let wrong_tier = tags
            .iter()
            .filter(|t| !t.is_empty() && t.as_str() != tag)
            .count();
        if wrong_tier > 0 {
            failed += wrong_tier as u64;
            outcome.problem(format!(
                "{wrong_tier} {name} reads were not answered as cache {tag}"
            ));
        }
        // Put the (now line-less) timings back in schedule order.
        let mut done = done.into_iter();
        for (e, c) in events.iter().zip(completions.iter_mut()) {
            if e.class == class {
                *c = done.next().expect("one completion per read");
            }
        }
        tally[slot].0 += sent.len() as u64;
        tally[slot].1 += failed;
    }
    for c in completions {
        c.line = String::new();
    }
}

/// Runs `events` closed-loop on one connection in batches of `per_batch`
/// sent together, one batch in flight, so a batch is a serial chain with
/// nothing else competing for the shard. Then checks the answers and that
/// the cache counters moved by one compile per cold read and one hit per
/// memo read. Returns each batch's time in ms: from its send to the answer
/// of its last request.
fn run_batches(
    server: &mut Server,
    schedule: &Schedule,
    events: &[Event],
    per_batch: usize,
    tally: &mut [(u64, u64); 3],
    outcome: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let batches: Vec<Vec<String>> = events
        .chunks(per_batch)
        .map(|batch| batch.iter().map(|e| schedule.line(e)).collect())
        .collect();
    let before = server.stats()?;
    let done = client::closed_batches(server.addr(), &batches)?;
    let after = server.stats()?;
    drop(batches);
    let (colds, memos) = (
        Schedule::count(events, Class::Cold),
        Schedule::count(events, Class::Memo),
    );
    if let Err(e) = expect_churn(&before, &after, colds as u64, memos as u64) {
        outcome.problem(format!("serve_churn batches: {e}"));
    }
    let batch_ms = done
        .iter()
        .map(|b| {
            let last = b.last().expect("a batch has requests");
            last.done.saturating_sub(last.due).as_secs_f64() * 1e3
        })
        .collect();
    let mut done: Vec<Completion> = done.into_iter().flatten().collect();
    check_segment(schedule, events, &mut done, tally, outcome);
    Ok(batch_ms)
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
    let mut completions: Vec<Completion> = Vec::with_capacity(schedule.events.len());
    let mut tally = [(0, 0); 3];
    let mut closed_tally = [(0, 0); 3];
    let (mut cycle_ms, mut burst_ms) = (Vec::new(), Vec::new());
    let segments = schedule.segments();
    for (k, range) in segments.iter().cloned().enumerate() {
        let events = &schedule.events[range];
        let base = SEGMENT * (events[0].due.as_nanos() / SEGMENT.as_nanos()) as u32;
        // A hold on a request of an earlier segment is met: that segment
        // ran to its last answer.
        let index: HashMap<u64, usize> =
            events.iter().enumerate().map(|(i, e)| (e.id, i)).collect();
        let lines: Vec<Scheduled> = events
            .iter()
            .map(|e| Scheduled {
                due: e.due - base,
                conn: e.conn,
                line: schedule.line(e),
                after: e.after.and_then(|id| index.get(&id).copied()),
            })
            .collect();
        let before = server.stats()?;
        let mut done = client::open_loop(server.addr(), parallelism(), &lines)?;
        let after = server.stats()?;
        drop(lines);
        // Each reload installs a fresh handle; its first query per
        // construction (SSSP and k-hop) must compile.
        let (colds, memos) = (
            Schedule::count(events, Class::Cold),
            Schedule::count(events, Class::Memo),
        );
        if let Err(e) = expect_churn(&before, &after, colds as u64, memos as u64) {
            outcome.problem(format!("serve_churn: {e}"));
        }
        check_segment(&schedule, events, &mut done, &mut tally, &mut outcome);
        completions.extend(done);
        // This segment's share of the cycles, then of the bursts.
        let share = |events: &[Event], per_batch: usize| {
            let batches = events.len() / per_batch;
            let (first, end) = (
                batches * k / segments.len(),
                batches * (k + 1) / segments.len(),
            );
            per_batch * first..per_batch * end
        };
        let cycles = &schedule.cycles[share(&schedule.cycles, CYCLE_EVENTS)];
        for chunk in cycles.chunks(CYCLE_EVENTS * CYCLE_CHUNK) {
            cycle_ms.extend(run_batches(
                &mut server,
                &schedule,
                chunk,
                CYCLE_EVENTS,
                &mut closed_tally,
                &mut outcome,
            )?);
        }
        for burst in schedule.bursts[share(&schedule.bursts, BURST)].chunks(BURST) {
            burst_ms.extend(run_batches(
                &mut server,
                &schedule,
                burst,
                BURST,
                &mut closed_tally,
                &mut outcome,
            )?);
        }
    }
    let end_stats = server.stats()?;
    for ((attempted, failed), name) in tally.into_iter().zip(["load", "cold", "memo"]) {
        outcome.tier(name, attempted, failed);
    }
    for ((attempted, failed), name) in
        closed_tally
            .into_iter()
            .zip(["cycle_load", "cycle_cold", "burst_memo"])
    {
        outcome.tier(name, attempted, failed);
    }

    let mixed = |class: Class| {
        // Equal family weights are the declared mix: each reload is
        // followed by one cold read per construction, and the memo reads
        // draw uniformly from hot keys spread evenly over the families.
        Mixed::of(
            &schedule
                .events
                .iter()
                .zip(&completions)
                .filter(|(e, _)| e.class == class)
                .map(|(e, c)| {
                    let family = e.sent.as_ref().map_or("load", |s| s.query.family());
                    (family.to_string(), c.latency_ms())
                })
                .collect::<Vec<_>>(),
            |_| 1.0,
        )
    };
    let (load, cold, memo) = (mixed(Class::Load), mixed(Class::Cold), mixed(Class::Memo));
    let (cycle, burst) = (Summary::of(&cycle_ms), Summary::of(&burst_ms));
    // A burst's median time per read: what one memo read costs when a
    // client pipelines many.
    let per_read_ms = burst.p50 / BURST as f64;
    outcome.named_latency("cycle", &cycle, "ms");
    outcome.named_latency("burst", &burst, "ms");
    outcome.named("burst_per_read_us", per_read_ms * 1e3, "us");
    let gen_lag = lag(&completions);
    outcome.named_mixed("load", &load, "ms");
    outcome.named_mixed("cold", &cold, "ms");
    outcome.named_mixed("memo", &memo, "us");
    outcome.named("gen_lag_p50_us", gen_lag.p50, "us");
    outcome.named(
        &format!("gen_lag_{}_us", gen_lag.tail_label()),
        gen_lag.tail,
        "us",
    );

    if args.trace {
        let mut layer: HashMap<&'static str, f64> = HashMap::new();
        let mut setup = vec![(
            u64::MAX,
            oracle::request_line(
                Request::LoadGraph {
                    name: HOT_NAME.into(),
                    dimacs: sgl_graph::io::to_dimacs(&schedule.hot, HOT_NAME),
                },
                0,
            ),
        )];
        setup.extend(
            schedule
                .hot_keys
                .iter()
                .enumerate()
                .map(|(i, q)| (u64::MAX - 1 - i as u64, q.line(HOT_NAME, 0))),
        );
        // Cycles and bursts touch only their own name and the hot graph,
        // so they replay after the open-loop phase.
        let replay_lines: Vec<(u64, String)> = schedule
            .events
            .iter()
            .chain(&schedule.cycles)
            .chain(&schedule.bursts)
            .map(|e| (e.id, schedule.line(e)))
            .collect();
        let replayed = replay::churn(&setup, &replay_lines)?;
        replayed.layers(&mut layer);
        for (class, name) in [
            (Class::Load, "load"),
            (Class::Cold, "cold"),
            (Class::Memo, "memo"),
        ] {
            let pairs: Vec<(u64, f64)> = schedule
                .events
                .iter()
                .zip(&completions)
                .filter(|(e, _)| e.class == class)
                .map(|(e, c)| (e.id, c.latency_ms()))
                .collect();
            replayed.reconcile(&mut outcome, name, &pairs);
        }
        let groups = |events: &[Event], per_batch: usize, ms: &[f64]| {
            events
                .chunks(per_batch)
                .map(|b| b.iter().map(|e| e.id).collect())
                .zip(ms.iter().copied())
                .collect::<Vec<(Vec<u64>, f64)>>()
        };
        replayed.reconcile_groups(
            &mut outcome,
            "burst",
            &groups(&schedule.bursts, BURST, &burst_ms),
        );
        // The gated figure is the cycle time, so its remainder is the
        // workload's unattributed time.
        let cycle_unattributed = replayed.reconcile_groups(
            &mut outcome,
            "cycle",
            &groups(&schedule.cycles, CYCLE_EVENTS, &cycle_ms),
        );
        layer.insert("unattributed_us", cycle_unattributed);
        layer.insert("gen.lag_p99_us", gen_lag.tail);
        insert_cache_layers(&mut layer, &start_stats, &end_stats);
        layer.insert("trace.overhead_ratio", replayed.overhead_ratio);
        outcome.extra.push((
            "spans",
            crate::workload::write_spans(args, &replayed.recorder),
        ));
        outcome.metrics = per_layer_metrics(&layer);
    } else {
        outcome.end_to_end(median(&setups), cycle.p50, per_read_ms);
    }
    outcome.named("setup_s", median(&setups), "s");
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = Schedule::new(3, 1.0);
        let b = Schedule::new(3, 1.0);
        let c = Schedule::new(4, 1.0);
        let lines = |s: &Schedule| s.events.iter().map(|e| s.line(e)).collect::<Vec<_>>();
        assert_eq!(lines(&a), lines(&b));
        assert_ne!(lines(&a), lines(&c));
        assert!(a.events.windows(2).all(|w| w[0].due <= w[1].due));
        assert_eq!(
            Schedule::count(&a.events, Class::Cold),
            2 * Schedule::count(&a.events, Class::Load)
        );
        // Segments tile the events in order, each within one SEGMENT.
        let long = Schedule::new(3, 12.0);
        let segments = long.segments();
        assert_eq!(segments.len(), 3);
        assert_eq!(segments.first().map(|r| r.start), Some(0));
        assert_eq!(segments.last().map(|r| r.end), Some(long.events.len()));
        assert!(segments.windows(2).all(|w| w[0].end == w[1].start));
        let k = |e: &Event| e.due.as_nanos() / SEGMENT.as_nanos();
        for r in &segments {
            let first = k(&long.events[r.start]);
            assert!(long.events[r.clone()].iter().all(|e| k(e) == first));
        }
    }

    #[test]
    fn cold_reads_follow_their_reload_on_the_same_connection() {
        let s = Schedule::new(5, 1.0);
        for e in s.events.iter().filter(|e| e.class == Class::Cold) {
            let load = s
                .events
                .iter()
                .find(|l| l.class == Class::Load && l.version == e.version)
                .expect("every cold read has its reload");
            assert_eq!(load.conn, e.conn);
            assert!(load.due < e.due);
            // The next reload of the same name comes after this read, and
            // is held until the reload's last read is answered.
            let next = s
                .events
                .iter()
                .find(|l| l.class == Class::Load && l.version == e.version + NAMES);
            assert!(next.is_none_or(|l| l.due >= e.due + RELOAD_GAP));
            let last_read = s
                .events
                .iter()
                .filter(|r| r.class == Class::Cold && r.version == e.version)
                .map(|r| r.id)
                .max();
            assert!(next.is_none_or(|l| l.after == last_read));
            let g = s.graph(e.version);
            assert!((CHURN_N.0..=CHURN_N.1).contains(&g.n()));
        }
    }

    #[test]
    fn cycles_reload_their_own_name_then_read_each_construction() {
        let s = Schedule::new(7, 2.0);
        assert_eq!(s.cycles.len(), 40 * CYCLE_EVENTS);
        let open_names: std::collections::HashSet<String> =
            (1..=s.writes).map(|v| name_of(s.writes, v)).collect();
        for cycle in s.cycles.chunks(CYCLE_EVENTS) {
            let (load, reads) = (&cycle[0], &cycle[1..]);
            assert_eq!(load.class, Class::Load);
            assert!(load.version > s.writes);
            let name = name_of(s.writes, load.version);
            assert!(!open_names.contains(&name));
            let families: Vec<&str> = reads
                .iter()
                .map(|r| {
                    assert_eq!(
                        (r.class, r.version, r.conn),
                        (Class::Cold, load.version, load.conn)
                    );
                    let sent = r.sent.as_ref().expect("reads carry a query");
                    assert_eq!(sent.graph, name);
                    sent.query.family()
                })
                .collect();
            assert_eq!(families, ["row", "khop"]);
            let g = s.graph(load.version);
            assert!((CHURN_N.0..=CHURN_N.1).contains(&g.n()));
        }
    }

    #[test]
    fn bursts_read_only_hot_keys() {
        let s = Schedule::new(7, 2.0);
        assert_eq!(s.bursts.len(), 8 * BURST);
        for e in &s.bursts {
            assert_eq!((e.class, e.version, e.conn), (Class::Memo, 0, 0));
            let sent = e.sent.as_ref().expect("reads carry a query");
            assert_eq!(sent.graph, HOT_NAME);
            assert!(s.hot_keys.contains(&sent.query));
        }
        // Ids stay unique across the open loop, the cycles and the bursts.
        let ids: std::collections::HashSet<u64> = s
            .events
            .iter()
            .chain(&s.cycles)
            .chain(&s.bursts)
            .map(|e| e.id)
            .collect();
        assert_eq!(ids.len(), s.events.len() + s.cycles.len() + s.bursts.len());
    }
}
