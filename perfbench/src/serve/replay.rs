//! The traced replay of the serve workloads.
//!
//! The measured requests are replayed in-process, in order, through the
//! same public functions the server composes — `protocol::parse_request`,
//! `io::parse_dimacs`, the `cache` registry / compiled-network cache /
//! memo, `CompiledNet::run` and `decode`, and the `Json` writer — with one
//! span around each call. The result is per-layer time for the exact
//! requests whose end-to-end latency the TCP phases measured; what the
//! spans do not cover (queueing, the reactor, sockets) is the
//! unattributed remainder.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use sgl_core::{khop_layered, sssp_pseudo::SpikingSssp};
use sgl_graph::io::parse_dimacs;
use sgl_graph::{Graph, Len};
use sgl_observe::{parse_json, Json};
use sgl_serve::cache::{
    Algo, CacheOutcome, CachedResult, GraphHandle, GraphRegistry, NetCache, ResultKey,
};
use sgl_serve::protocol::{distances_json, parse_request};
use sgl_serve::{OpKind, Request, Response};
use sgl_snn::engine::{EngineChoice, RunScratch};

use super::Sent;
use crate::oracle::request_line;
use crate::spans::{attributed_ns, self_time_by_layer, unattributed, Recorder};
use crate::stats::median;
use crate::workload::Outcome;

/// The span name of a simulation on the engine `Auto` picks for `algo`
/// on `g` (decided by building the network with the same construction).
fn sim_layer(g: &Graph, algo: Algo) -> &'static str {
    let net = match algo {
        Algo::Sssp => SpikingSssp::new(g, 0).build_network(),
        Algo::Khop(k) => khop_layered::build_network(g, k),
    };
    match EngineChoice::Auto.resolve(&net) {
        EngineChoice::Bitplane => "sim.bitplane",
        EngineChoice::Event => "sim.event",
        _ => "sim.other",
    }
}

/// Per-request work counts gathered beside the spans.
#[derive(Clone, Copy, Debug, Default)]
struct Work {
    steps: u64,
    spikes: u64,
    deliveries: u64,
    updates: u64,
}

/// Replays requests; spans go to `rec` when it is set.
struct Replayer {
    registry: GraphRegistry,
    cache: NetCache,
    scratch: RunScratch,
    layers: HashMap<(usize, Algo), &'static str>,
    work: Vec<Work>,
    resp_bytes: Vec<f64>,
    dimacs_bytes: Vec<f64>,
    compiles: Vec<(f64, f64, f64)>,
}

impl Replayer {
    fn new() -> Self {
        Self {
            registry: GraphRegistry::default(),
            cache: NetCache::new(),
            scratch: RunScratch::new(),
            layers: HashMap::new(),
            work: Vec::new(),
            resp_bytes: Vec::new(),
            dimacs_bytes: Vec::new(),
            compiles: Vec::new(),
        }
    }

    /// Replays one request line and returns the response line; `req`
    /// tags its spans.
    fn request(
        &mut self,
        rec: &mut Option<&mut Recorder>,
        line: &str,
        req: u64,
    ) -> Result<String, String> {
        let env = span(rec, "protocol.parse", req, || {
            parse_json(line)
                .map_err(|e| e.to_string())
                .and_then(|v| parse_request(&v))
        })?;
        let (name, source, target, k, op) = match env.request {
            Request::LoadGraph { name, dimacs } => {
                self.dimacs_bytes.push(dimacs.len() as f64);
                let g = span(rec, "dimacs.parse", req, || parse_dimacs(&dimacs))
                    .map_err(|e| format!("DIMACS: {e}"))?;
                let handle = span(rec, "cache.registry_insert", req, || {
                    self.registry.insert(&name, g)
                });
                let data = Json::obj(vec![
                    ("name", Json::Str(handle.name.clone())),
                    ("n", Json::UInt(handle.graph.n() as u64)),
                    ("m", Json::UInt(handle.graph.m() as u64)),
                    ("fingerprint", Json::UInt(handle.fingerprint)),
                ]);
                return Ok(self.respond(rec, req, env.id, OpKind::LoadGraph, data));
            }
            Request::Sssp {
                graph,
                source,
                target,
                ..
            } => (graph, source, target, None, OpKind::Sssp),
            Request::ApspRow { graph, source, .. } => (graph, source, None, None, OpKind::ApspRow),
            Request::Khop {
                graph, source, k, ..
            } => (graph, source, None, Some(k), OpKind::Khop),
            other => return Err(format!("{} is not replayed", other.kind().name())),
        };
        let handle = self
            .registry
            .get(&name)
            .ok_or_else(|| format!("graph {name} not loaded"))?;
        let (algo, key) = match (op, k) {
            (OpKind::ApspRow, _) => (
                Algo::Sssp,
                ResultKey::ApspRow {
                    source: source as u32,
                },
            ),
            (_, Some(k)) => (
                Algo::Khop(k),
                ResultKey::Khop {
                    source: source as u32,
                    k,
                },
            ),
            _ => (
                Algo::Sssp,
                ResultKey::Sssp {
                    source: source as u32,
                    target: target.map(|t| t as u32),
                },
            ),
        };
        if let Some(rendered) = span(rec, "cache.memo_lookup", req, || {
            handle.cached_rendered(&key)
        }) {
            return Ok(self.respond(rec, req, env.id, op, Json::Raw(rendered)));
        }
        let net = self.net(rec, &handle, algo, req);
        let layer = *self
            .layers
            .entry((Arc::as_ptr(&handle) as usize, algo))
            .or_insert_with(|| sim_layer(&handle.graph, algo));
        let run = span(rec, layer, req, || {
            net.run(source, target, &mut self.scratch)
        })
        .map_err(|e| format!("simulation failed: {e}"))?;
        self.work.push(Work {
            steps: run.steps,
            spikes: run.stats.spike_events,
            deliveries: run.stats.synaptic_deliveries,
            updates: run.stats.neuron_updates,
        });
        let distances = span(rec, "readout.decode", req, || net.decode(&run));
        let mut fields = answer_fields(source, target, k, &distances);
        // The memo store is what later repeats of this key are answered
        // from (the churn workload's memo reads), so it is replayed too.
        span(rec, "cache.memo_store", req, || {
            let mut memo = fields.clone();
            memo.push(("cache", Json::Str("hit".into())));
            let data = Json::obj(memo);
            let rendered: Arc<str> = data.to_string().into();
            handle.store_result(key, CachedResult { data, rendered });
        });
        fields.push(("cache", Json::Str(net.1.as_str().into())));
        Ok(self.respond(rec, req, env.id, op, Json::obj(fields)))
    }

    /// The handle's network for `algo`, compiling on a miss. The span is
    /// named after the outcome, which is only known once the call returns.
    fn net(
        &mut self,
        rec: &mut Option<&mut Recorder>,
        handle: &GraphHandle,
        algo: Algo,
        req: u64,
    ) -> NetRef {
        let start = rec.as_ref().map(|r| r.clock_ns());
        let (net, outcome) = self.cache.get_or_compile(handle, algo);
        let miss = outcome != CacheOutcome::Hit;
        if miss {
            let (build, load) = net.phase_times();
            self.compiles.push((
                build.as_secs_f64() * 1e3,
                load.as_secs_f64() * 1e3,
                net.memory_bytes() as f64,
            ));
        }
        if let (Some(r), Some(start)) = (rec.as_deref_mut(), start) {
            let end = r.clock_ns();
            if miss {
                // Lay the program's own build/load phase split at the end
                // of the window, as the server's own trace does.
                let (build, load) = net.phase_times();
                let build = build.as_nanos() as u64;
                let load = load.as_nanos() as u64;
                let compile = r.record("compile", req, start, end, None);
                let build_start = end.saturating_sub(build + load).max(start);
                r.record(
                    "compile.build",
                    req,
                    build_start,
                    (build_start + build).min(end),
                    Some(compile),
                );
                r.record(
                    "compile.load",
                    req,
                    (build_start + build).min(end),
                    end,
                    Some(compile),
                );
            } else {
                r.record("cache.net_lookup", req, start, end, None);
            }
        }
        NetRef(net, outcome)
    }

    fn respond(
        &mut self,
        rec: &mut Option<&mut Recorder>,
        req: u64,
        id: Option<u64>,
        op: OpKind,
        data: Json,
    ) -> String {
        let line = span(rec, "protocol.serialize", req, || {
            Response::Ok { op, data }.to_json(id).to_string()
        });
        self.resp_bytes.push(line.len() as f64);
        line
    }
}

/// A compiled network and how the cache produced it.
struct NetRef(Arc<sgl_serve::CompiledNet>, CacheOutcome);

impl std::ops::Deref for NetRef {
    type Target = sgl_serve::CompiledNet;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

/// The response payload fields the server builds for an answer.
fn answer_fields(
    source: usize,
    target: Option<usize>,
    k: Option<u32>,
    distances: &[Option<Len>],
) -> Vec<(&'static str, Json)> {
    let mut fields = vec![("source", Json::UInt(source as u64))];
    if let Some(k) = k {
        fields.push(("k", Json::UInt(u64::from(k))));
    }
    if let Some(t) = target {
        fields.push(("target", Json::UInt(t as u64)));
        fields.push(("distance", distances[t].map_or(Json::Null, Json::UInt)));
    } else {
        fields.push((
            "reachable",
            Json::UInt(distances.iter().flatten().count() as u64),
        ));
        fields.push(("distances", distances_json(distances)));
    }
    fields
}

/// Runs `f` in a span when recording.
fn span<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    req: u64,
    f: impl FnOnce() -> T,
) -> T {
    match rec.as_deref_mut() {
        Some(r) => r.span(name, req, |_| f()),
        None => f(),
    }
}

/// A finished replay: spans plus the figures derived from them.
pub struct Replayed {
    /// Every span of the traced pass.
    pub recorder: Recorder,
    /// Wall time of the traced pass over the untraced one.
    pub overhead_ratio: f64,
    work: Vec<Work>,
    resp_bytes: Vec<f64>,
    dimacs_bytes: Vec<f64>,
    compiles: Vec<(f64, f64, f64)>,
}

impl Replayed {
    /// Reconciles one request class with its end-to-end latencies
    /// (`(request id, ms)` pairs): names the median attributed and
    /// unattributed time of the class, and returns the latter in µs.
    pub fn reconcile(&self, outcome: &mut Outcome, class: &str, e2e: &[(u64, f64)]) -> f64 {
        let groups: Vec<(Vec<u64>, f64)> = e2e.iter().map(|&(id, ms)| (vec![id], ms)).collect();
        self.reconcile_groups(outcome, class, &groups)
    }

    /// [`Self::reconcile`] for requests sent together and timed as one
    /// (`(request ids, ms)` pairs): a group's attributed time is the sum
    /// over its requests.
    pub fn reconcile_groups(
        &self,
        outcome: &mut Outcome,
        class: &str,
        e2e: &[(Vec<u64>, f64)],
    ) -> f64 {
        let attributed = attributed_ns(self.recorder.spans());
        let (spanned, rest): (Vec<f64>, Vec<f64>) = e2e
            .iter()
            .filter_map(|(ids, ms)| {
                let a = ids
                    .iter()
                    .map(|id| attributed.get(id).copied())
                    .sum::<Option<u64>>()? as f64
                    / 1e6;
                Some((a, unattributed(*ms, a)))
            })
            .unzip();
        let (spanned, rest) = (median(&spanned) * 1e3, median(&rest) * 1e3);
        outcome.named(&format!("attributed_{class}_us"), spanned, "us");
        outcome.named(&format!("unattributed_{class}_us"), rest, "us");
        rest
    }

    /// Inserts the per-layer figures: per-call medians of self time and of
    /// the work counts.
    pub fn layers(&self, layer: &mut HashMap<&'static str, f64>) {
        let by_layer = self_time_by_layer(self.recorder.spans());
        let med = |name: &str, scale: f64| {
            by_layer.get(name).map_or(0.0, |m| {
                median(&m.values().map(|&ns| ns as f64 / scale).collect::<Vec<_>>())
            })
        };
        layer.insert("protocol.parse_us", med("protocol.parse", 1e3));
        layer.insert("protocol.serialize_us", med("protocol.serialize", 1e3));
        layer.insert("sim.event_us", med("sim.event", 1e3));
        layer.insert("sim.bitplane_us", med("sim.bitplane", 1e3));
        layer.insert("readout.decode_us", med("readout.decode", 1e3));
        layer.insert("dimacs.parse_ms", med("dimacs.parse", 1e6));
        let work = |f: fn(&Work) -> u64| {
            median(&self.work.iter().map(|w| f(w) as f64).collect::<Vec<_>>())
        };
        layer.insert("sim.steps", work(|w| w.steps));
        layer.insert("sim.spike_events", work(|w| w.spikes));
        layer.insert("sim.synaptic_deliveries", work(|w| w.deliveries));
        layer.insert("sim.neuron_updates", work(|w| w.updates));
        layer.insert("protocol.resp_bytes", median(&self.resp_bytes));
        layer.insert("dimacs.bytes", median(&self.dimacs_bytes));
        let compile = |f: fn(&(f64, f64, f64)) -> f64| {
            median(&self.compiles.iter().map(f).collect::<Vec<_>>())
        };
        layer.insert("compile.build_ms", compile(|c| c.0));
        layer.insert("compile.load_ms", compile(|c| c.1));
        layer.insert("compile.net_bytes", compile(|c| c.2));
    }
}

/// Replays `lines` (tagged with their request ids) twice on fresh state —
/// untraced, then traced — after priming each pass with `setup` lines.
fn replay(setup: &[(u64, String)], lines: &[(u64, String)]) -> Result<Replayed, String> {
    let pass = |rec: &mut Option<&mut Recorder>| -> Result<(Replayer, f64), String> {
        let mut r = Replayer::new();
        for (id, line) in setup {
            r.request(rec, line, *id)?;
        }
        let t0 = Instant::now();
        for (id, line) in lines {
            r.request(rec, line, *id)?;
        }
        Ok((r, t0.elapsed().as_secs_f64()))
    };
    let (_, plain) = pass(&mut None)?;
    let mut recorder = Recorder::new();
    let (r, traced) = pass(&mut Some(&mut recorder))?;
    Ok(Replayed {
        recorder,
        overhead_ratio: traced / plain.max(f64::MIN_POSITIVE),
        work: r.work,
        resp_bytes: r.resp_bytes,
        dimacs_bytes: r.dimacs_bytes,
        compiles: r.compiles,
    })
}

/// Replays `serve_warm`: loads and warm-up, then the measured queries.
pub fn warm(
    graphs: &[(&str, &Graph)],
    warmup: &[Sent],
    requests: &[&Sent],
) -> Result<Replayed, String> {
    let mut setup: Vec<(u64, String)> = graphs
        .iter()
        .enumerate()
        .map(|(i, (name, g))| {
            let load = Request::LoadGraph {
                name: (*name).to_string(),
                dimacs: sgl_graph::io::to_dimacs(g, name),
            };
            (u64::MAX - i as u64, request_line(load, 0))
        })
        .collect();
    setup.extend(warmup.iter().map(|s| (s.id, s.query.line(&s.graph, s.id))));
    let lines: Vec<(u64, String)> = requests
        .iter()
        .map(|s| (s.id, s.query.line(&s.graph, s.id)))
        .collect();
    replay(&setup, &lines)
}

/// Replays `serve_churn` from its request lines (in send order per
/// registry name).
pub fn churn(setup: &[(u64, String)], lines: &[(u64, String)]) -> Result<Replayed, String> {
    replay(setup, lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Query;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sgl_graph::generators;
    use sgl_serve::{ServerConfig, Session};

    /// The replay composes the server's query path from its public
    /// functions; if that path changes, this pins the drift.
    #[test]
    fn replayed_lines_match_the_server_byte_for_byte() {
        let mut rng = StdRng::seed_from_u64(7);
        let first = generators::gnm_connected(&mut rng, 60, 240, 1..=9);
        let second = generators::gnm_connected(&mut rng, 50, 200, 1..=9);
        let load = |g: &Graph, id| {
            request_line(
                Request::LoadGraph {
                    name: "g".into(),
                    dimacs: sgl_graph::io::to_dimacs(g, "g"),
                },
                id,
            )
        };
        let row = Query::Sssp {
            source: 3,
            target: None,
        };
        let khop = Query::Khop { source: 5, k: 3 };
        let lines = [
            load(&first, 1),
            row.line("g", 2), // cold
            Query::Sssp {
                source: 3,
                target: Some(7),
            }
            .line("g", 3), // warm
            Query::ApspRow { source: 5 }.line("g", 4), // warm
            khop.line("g", 5), // cold
            row.line("g", 6), // memo
            khop.line("g", 7), // memo
            load(&second, 8), // fresh handle
            row.line("g", 9), // cold again
        ];
        let session = Session::open(ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        });
        let mut replayer = Replayer::new();
        for (i, line) in lines.iter().enumerate() {
            let ours = replayer.request(&mut None, line, i as u64).unwrap();
            assert_eq!(ours, session.call_line(line), "request {i}: {line}");
        }
    }
}
