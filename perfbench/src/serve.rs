//! The two serve workloads, run against an in-process
//! [`LoopbackServer`] over TCP.
//!
//! * `serve_warm` preloads a sparse ~10^4-node graph (which `Auto` sends to
//!   the event engine) and a near-complete 512-node graph with lengths
//!   ≤ 64 (which `Auto` sends to the bit-plane engine), warms every
//!   construction on both, then measures open-loop phases at two fixed
//!   rates and a closed-loop capacity phase. Keys never repeat, so every
//!   measured query runs the SNN on a resident network.
//! * `serve_churn` reloads freshly seeded 1–2k-node graphs under a few
//!   rotating names at a fixed rate. Each reload is followed by one
//!   cold-compile read per construction; beside them, reads from a small
//!   hot key set on a stable graph are memo hits. Closed-loop reload
//!   cycles and memo bursts between the open-loop segments give the gated
//!   figures.
//!
//! The traced variants run the same phases, then replay the requests
//! through the layers' public functions (see [`crate::serve::replay`]).

mod churn;
mod replay;
mod warm;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgl_graph::Graph;
use sgl_observe::Json;
use sgl_serve::{LoopbackServer, Request, ServerConfig};

use crate::client::Completion;
use crate::oracle::{self, Query};
use crate::stats::Summary;
use crate::tier::StatsSnapshot;
use crate::workload::{shuffled, Outcome};

pub use churn::run as churn;
pub use warm::run as warm;

/// Load-generator connections: the core count, at most 2.
pub fn parallelism() -> usize {
    cores().clamp(1, 2)
}

/// Server shards: one core fewer than the machine has (at least one, at
/// most 2), so the load generator never competes with a shard for a core.
pub fn shards() -> usize {
    cores().saturating_sub(1).clamp(1, 2)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A running server plus a blocking control connection for set-up and
/// `server_stats`. Dropping it drains the server and joins its threads.
pub struct Server {
    server: Option<LoopbackServer>,
    ctl: BufReader<TcpStream>,
    next_id: u64,
}

impl Server {
    /// Starts a server with [`shards`] shards and a queue deep enough
    /// that the benchmark's rates never shed.
    pub fn start() -> Result<Self, String> {
        let server = LoopbackServer::start(ServerConfig {
            shards: shards(),
            queue_capacity: 4096,
            ..ServerConfig::default()
        });
        let stream = TcpStream::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Self {
            server: Some(server),
            ctl: BufReader::new(stream),
            next_id: 1 << 40,
        })
    }

    /// The server's address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("running until dropped").addr
    }

    /// One request on the control connection; returns its `data`.
    pub fn call(&mut self, request: Request) -> Result<Json, String> {
        let id = self.next_id;
        self.next_id += 1;
        let line = oracle::request_line(request, id);
        let stream = self.ctl.get_mut();
        stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .map_err(|e| format!("control write: {e}"))?;
        let mut reply = String::new();
        self.ctl
            .read_line(&mut reply)
            .map_err(|e| format!("control read: {e}"))?;
        oracle::ok_data(reply.trim_end(), id)
    }

    /// Loads `g` under `name`.
    pub fn load(&mut self, name: &str, g: &Graph) -> Result<(), String> {
        self.call(Request::LoadGraph {
            name: name.into(),
            dimacs: sgl_graph::io::to_dimacs(g, name),
        })
        .map(drop)
    }

    /// Sends `query` on the control connection and checks the answer.
    pub fn query(&mut self, graph: &str, g: &Graph, query: Query) -> Result<(), String> {
        let data = self.call(query.request(graph))?;
        let (answer, _) = oracle::served(query, &data)?;
        if answer == query.expected(g) {
            Ok(())
        } else {
            Err(format!("warm-up {query:?} on {graph}: wrong answer"))
        }
    }

    /// The cache and queue counters right now.
    pub fn stats(&mut self) -> Result<StatsSnapshot, String> {
        StatsSnapshot::from_stats(&self.call(Request::ServerStats)?)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

/// Query families a workload draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `sssp` with a target.
    Targeted,
    /// Full-row `sssp`.
    Row,
    /// `apsp_row`.
    Apsp,
    /// `khop` at the graph's hop bound.
    Khop,
}

impl Kind {
    /// The family name its queries report (see [`Query::family`]).
    pub fn family(self) -> &'static str {
        match self {
            Self::Targeted => "targeted",
            Self::Row => "row",
            Self::Apsp => "apsp",
            Self::Khop => "khop",
        }
    }
}

/// Never-repeating keys on one graph: each full-row family walks its own
/// seeded permutation of the sources; targeted pairs are drawn fresh and
/// deduplicated. A full-row family that runs out falls back to targeted
/// queries.
pub struct Keys {
    rng: StdRng,
    n: usize,
    k: u32,
    rows: [(Vec<usize>, usize); 3],
    pairs: std::collections::HashSet<(usize, usize)>,
    /// Full-row draws that fell back to a targeted query.
    pub fallbacks: usize,
}

impl Keys {
    /// Keys over `n` nodes with hop bound `k`, from `seed`.
    pub fn new(seed: u64, n: usize, k: u32) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm = || (shuffled(&mut rng, (0..n).collect()), 0usize);
        let rows = [perm(), perm(), perm()];
        Self {
            rng,
            n,
            k,
            rows,
            pairs: std::collections::HashSet::new(),
            fallbacks: 0,
        }
    }

    /// The next unused key of `kind`.
    pub fn next(&mut self, kind: Kind) -> Query {
        let slot = match kind {
            Kind::Row => 0,
            Kind::Apsp => 1,
            Kind::Khop => 2,
            Kind::Targeted => 3,
        };
        if let Some((perm, pos)) = self.rows.get_mut(slot) {
            if let Some(&source) = perm.get(*pos) {
                *pos += 1;
                return match kind {
                    Kind::Row => Query::Sssp {
                        source,
                        target: None,
                    },
                    Kind::Apsp => Query::ApspRow { source },
                    _ => Query::Khop { source, k: self.k },
                };
            }
            self.fallbacks += 1;
        }
        loop {
            let s = self.rng.gen_range(0..self.n);
            let t = self.rng.gen_range(0..self.n);
            if s != t && self.pairs.insert((s, t)) {
                return Query::Sssp {
                    source: s,
                    target: Some(t),
                };
            }
        }
    }
}

/// Draws a kind from `(kind, weight)` pairs.
pub fn pick(rng: &mut StdRng, mix: &[(Kind, u32)]) -> Kind {
    let total: u32 = mix.iter().map(|(_, w)| w).sum();
    let mut x = rng.gen_range(0..total);
    for &(kind, w) in mix {
        if x < w {
            return kind;
        }
        x -= w;
    }
    mix[mix.len() - 1].0
}

/// A query in flight: which graph, which key, which request id.
#[derive(Clone, Debug)]
pub struct Sent {
    /// Registry name.
    pub graph: String,
    /// Index of the graph version the answer must match.
    pub version: usize,
    /// The key.
    pub query: Query,
    /// Correlation id.
    pub id: u64,
}

/// Checks completed queries against the oracle; returns the number that
/// failed and the cache tag of each answer (empty for failures).
/// `graph_of(version)` rebuilds the graph a query was asked of; queries
/// are checked grouped by version so each graph is built once.
pub fn verify(
    sent: &[Sent],
    lines: &[&str],
    graph_of: &dyn Fn(usize) -> Graph,
    problems: &mut Vec<String>,
) -> (u64, Vec<String>) {
    let mut order: Vec<usize> = (0..sent.len()).collect();
    order.sort_by_key(|&i| sent[i].version);
    let mut failed = 0;
    let mut tags = vec![String::new(); sent.len()];
    let mut current: Option<(usize, Graph)> = None;
    for i in order {
        let s = &sent[i];
        if current.as_ref().map(|(v, _)| *v) != Some(s.version) {
            current = Some((s.version, graph_of(s.version)));
        }
        let g = &current.as_ref().expect("just set").1;
        match oracle::check(lines[i], s.id, s.query, g) {
            Ok(tag) => tags[i] = tag,
            Err(e) => {
                failed += 1;
                if problems.len() < 8 {
                    problems.push(format!("{} request {}: {e}", s.graph, s.id));
                }
            }
        }
    }
    (failed, tags)
}

/// [`verify`] for a finished stretch of requests, which then drops the
/// response lines: only the timings stay in memory, so the benchmark's
/// own footprint stays small next to the server's in `peak_rss_mb`.
pub fn settle(
    sent: &[Sent],
    completions: &mut [Completion],
    graph_of: &dyn Fn(usize) -> Graph,
    outcome: &mut Outcome,
) -> (u64, Vec<String>) {
    let lines: Vec<&str> = completions.iter().map(|c| c.line.as_str()).collect();
    let checked = verify(sent, &lines, graph_of, &mut outcome.problems);
    for c in completions {
        c.line = String::new();
    }
    checked
}

/// The generator's lateness: p99-by-rule of send lag, µs.
pub fn lag<'a>(completions: impl IntoIterator<Item = &'a Completion>) -> Summary {
    Summary::of(
        &completions
            .into_iter()
            .map(Completion::lag_us)
            .collect::<Vec<_>>(),
    )
}

/// `count` Poisson arrival instants at `rate` per second: independent
/// clients, each gap exponentially distributed, drawn from `rng`.
pub fn poisson_due(rng: &mut StdRng, count: usize, rate: f64) -> Vec<Duration> {
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_never_repeat_and_fall_back_to_targeted() {
        let mut keys = Keys::new(5, 20, 3);
        let mut seen = std::collections::HashSet::new();
        for kind in [Kind::Row, Kind::Apsp, Kind::Khop, Kind::Targeted] {
            for _ in 0..40 {
                assert!(seen.insert(keys.next(kind)), "repeated key");
            }
        }
        // Each full-row family had 20 sources; the other 20 draws of each
        // fell back to targeted pairs.
        let rows = seen
            .iter()
            .filter(|q| {
                !matches!(
                    q,
                    Query::Sssp {
                        target: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(rows, 60);
        assert_eq!(keys.fallbacks, 60);
    }

    #[test]
    fn the_schedule_is_a_function_of_the_seed() {
        let draw = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut keys = Keys::new(seed, 100, 2);
            let mix = [(Kind::Targeted, 2), (Kind::Row, 1), (Kind::Khop, 1)];
            (0..50)
                .map(|_| keys.next(pick(&mut rng, &mix)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
        let due = |seed| poisson_due(&mut StdRng::seed_from_u64(seed), 20_000, 200.0);
        assert_eq!(due(1), due(1));
        assert_ne!(due(1), due(2));
        let d = due(1);
        assert!(d.windows(2).all(|w| w[0] <= w[1]));
        // 20 000 arrivals at 200/s take about 100 s.
        assert!((d[d.len() - 1].as_secs_f64() - 100.0).abs() < 3.0);
    }
}
