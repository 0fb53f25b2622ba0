//! End-to-end acceptance tests for `sgl-serve`:
//!
//! * SNN-path answers served over the full protocol are identical to the
//!   conventional baselines (`dijkstra`, `bellman_ford_khop`) on random
//!   graphs — through the in-process session AND over real TCP.
//! * Under overload the server sheds with typed `overloaded` responses,
//!   stays responsive to control ops, never exceeds its queue bound, and
//!   drains cleanly with every admitted request answered.
//! * Deadlines reject stale queued work as `deadline_exceeded`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sgl_graph::io::to_dimacs;
use sgl_graph::{bellman_ford_khop, dijkstra, generators, Graph};
use sgl_observe::Json;
use sgl_serve::protocol::{parse_distances, CacheMode, Envelope, ErrorKind, Request, Response};
use sgl_serve::session::{ServerConfig, Session};
use sgl_serve::stress::{Client, SessionClient, TcpClient};
use sgl_serve::tcp::LoopbackServer;
use sgl_serve::Lifecycle;

fn load(client: &mut dyn Client, name: &str, g: &Graph) {
    let resp = client.call(Envelope::of(Request::LoadGraph {
        name: name.into(),
        dimacs: to_dimacs(g, "e2e"),
    }));
    assert!(resp.is_ok(), "{resp:?}");
}

fn distances_of(resp: &Response) -> Vec<Option<u64>> {
    let Response::Ok { data, .. } = resp else {
        panic!("expected ok, got {resp:?}");
    };
    parse_distances(data.get("distances").expect("distances field")).expect("decodable")
}

/// The acceptance-criteria test: served SNN answers equal the
/// conventional baselines over random graphs, for every op and both
/// cache paths.
#[test]
fn served_answers_match_conventional_baselines() {
    let session = Session::open_default();
    let mut client = SessionClient(&session);
    let mut rng = StdRng::seed_from_u64(2024);
    for (gi, (n, m)) in [(16usize, 48usize), (32, 120), (48, 200)]
        .into_iter()
        .enumerate()
    {
        let g = generators::gnm_connected(&mut rng, n, m, 1..=9);
        let name = format!("g{gi}");
        load(&mut client, &name, &g);
        for source in [0, n / 3, n - 1] {
            let want = dijkstra(&g, source).distances;
            for cache in [CacheMode::Default, CacheMode::Bypass, CacheMode::Default] {
                let resp = client.call(Envelope::of(Request::Sssp {
                    graph: name.clone(),
                    source,
                    target: None,
                    cache,
                }));
                assert_eq!(distances_of(&resp), want, "sssp n={n} s={source} {cache:?}");
            }
            let resp = client.call(Envelope::of(Request::ApspRow {
                graph: name.clone(),
                source,
                cache: CacheMode::Default,
            }));
            assert_eq!(distances_of(&resp), want, "apsp_row n={n} s={source}");
            for k in [1u32, 2, 4] {
                let resp = client.call(Envelope::of(Request::Khop {
                    graph: name.clone(),
                    source,
                    k,
                    cache: CacheMode::Default,
                }));
                assert_eq!(
                    distances_of(&resp),
                    bellman_ford_khop(&g, source, k).distances,
                    "khop n={n} s={source} k={k}"
                );
            }
        }
    }
    session.shutdown();
}

/// Same correctness statement over real TCP framing.
#[test]
fn served_answers_match_baselines_over_tcp() {
    let server = LoopbackServer::start(ServerConfig::default());
    let mut client = TcpClient::connect(server.addr).unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    let g = generators::gnm_connected(&mut rng, 24, 90, 1..=6);
    load(&mut client, "g", &g);
    for source in [0usize, 11, 23] {
        let resp = client.call(Envelope::of(Request::Sssp {
            graph: "g".into(),
            source,
            target: None,
            cache: CacheMode::Default,
        }));
        assert_eq!(distances_of(&resp), dijkstra(&g, source).distances);
        let resp = client.call(Envelope::of(Request::Khop {
            graph: "g".into(),
            source,
            k: 3,
            cache: CacheMode::Default,
        }));
        assert_eq!(
            distances_of(&resp),
            bellman_ford_khop(&g, source, 3).distances
        );
    }
    server.stop();
}

/// The dedicated overload test from the acceptance criteria: a
/// 1-shard/capacity-2 server flooded by 8 closed-loop threads must shed
/// with typed `overloaded` (no panics, no hangs, no unbounded queue),
/// keep answering control ops throughout, and drain cleanly with every
/// admitted request answered. The flood bypasses the caches so every
/// query does real compile work (memoized hits would answer too fast to
/// ever back up the queue).
#[test]
fn overload_sheds_typed_stays_responsive_and_drains_cleanly() {
    let session = Session::open(ServerConfig {
        shards: 1,
        queue_capacity: 2,
        ..ServerConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(9);
    // Big enough that each query takes measurable work, so the flood
    // actually backs up the single worker.
    let g = generators::gnm_connected(&mut rng, 300, 1200, 1..=9);
    load(&mut SessionClient(&session), "g", &g);

    let ok = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let other = AtomicU64::new(0);
    let max_depth_seen = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let (session, ok, shed, other) = (&session, &ok, &shed, &other);
            scope.spawn(move || {
                for i in 0..30usize {
                    let resp = session.call_request(Request::Sssp {
                        graph: "g".into(),
                        source: (i * 7) % 300,
                        target: None,
                        cache: CacheMode::Bypass,
                    });
                    match resp.error_kind() {
                        None => ok.fetch_add(1, Ordering::Relaxed),
                        Some(ErrorKind::Overloaded) => shed.fetch_add(1, Ordering::Relaxed),
                        Some(k) => {
                            other.fetch_add(1, Ordering::Relaxed);
                            panic!("thread {t}: unexpected error kind {k:?}")
                        }
                    };
                }
            });
        }
        // While the flood runs: the queue stays bounded and control ops
        // keep answering.
        for _ in 0..20 {
            let depth = session.queue_depth() as u64;
            max_depth_seen.fetch_max(depth, Ordering::Relaxed);
            assert!(depth <= 2, "queue depth {depth} exceeds capacity");
            let resp = session.call_request(Request::ServerStats);
            assert!(resp.is_ok(), "server_stats must work under overload");
            std::thread::sleep(Duration::from_millis(2));
        }
    });
    let (ok, shed) = (ok.load(Ordering::Relaxed), shed.load(Ordering::Relaxed));
    assert_eq!(ok + shed, 8 * 30, "every request got exactly one answer");
    assert!(ok > 0, "some requests must succeed");
    assert!(
        shed > 0,
        "8 closed-loop threads against 1 worker + 2 slots must shed"
    );

    // Shed counter is visible in server_stats.
    let resp = session.call_request(Request::ServerStats);
    let Response::Ok { data, .. } = &resp else {
        panic!("{resp:?}")
    };
    assert_eq!(data.get("shed").and_then(Json::as_u64), Some(shed));

    // Clean drain: shutdown flips to draining, late queries get typed
    // rejections, and join completes (no stuck worker, no lost slot).
    assert!(session.call_request(Request::Shutdown).is_ok());
    let resp = session.call_request(Request::Sssp {
        graph: "g".into(),
        source: 0,
        target: None,
        cache: CacheMode::Default,
    });
    assert_eq!(resp.error_kind(), Some(ErrorKind::Draining));
    session.shutdown();
    assert_eq!(session.lifecycle(), Lifecycle::Stopped);
    assert_eq!(session.queue_depth(), 0, "nothing left behind in the queue");
}

/// A zero-millisecond deadline on work queued behind a slow request is
/// answered `deadline_exceeded` without being executed.
#[test]
fn queued_work_past_its_deadline_is_rejected_typed() {
    let session = Session::open(ServerConfig {
        shards: 1,
        queue_capacity: 8,
        ..ServerConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(10);
    let g = generators::gnm_connected(&mut rng, 300, 1200, 1..=9);
    load(&mut SessionClient(&session), "g", &g);

    let deadline_hits = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..6 {
            scope.spawn(|| {
                for i in 0..20usize {
                    let resp = session.call(Envelope {
                        id: None,
                        deadline_ms: Some(0),
                        trace_id: None,
                        request: Request::Sssp {
                            graph: "g".into(),
                            source: i % 300,
                            target: None,
                            cache: CacheMode::Default,
                        },
                    });
                    if resp.error_kind() == Some(ErrorKind::DeadlineExceeded) {
                        deadline_hits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert!(
        deadline_hits.load(Ordering::Relaxed) > 0,
        "queued zero-deadline work must be rejected as deadline_exceeded"
    );
    let resp = session.call_request(Request::ServerStats);
    let Response::Ok { data, .. } = &resp else {
        panic!("{resp:?}")
    };
    assert_eq!(
        data.get("deadline_exceeded").and_then(Json::as_u64),
        Some(deadline_hits.load(Ordering::Relaxed))
    );
    session.shutdown();
}

/// Pipelined requests over one TCP connection come back in order with
/// their ids echoed.
#[test]
fn tcp_pipelining_echoes_ids_in_order() {
    use std::io::{BufRead, BufReader, Write};
    let server = LoopbackServer::start(ServerConfig::default());
    let mut client = TcpClient::connect(server.addr).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let g = generators::gnm_connected(&mut rng, 12, 40, 1..=5);
    load(&mut client, "g", &g);

    let stream = std::net::TcpStream::connect(server.addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut batch = String::new();
    for id in 0..10 {
        batch.push_str(&format!(
            "{{\"op\":\"sssp\",\"graph\":\"g\",\"source\":{},\"id\":{id}}}\n",
            id % 12
        ));
    }
    writer.write_all(batch.as_bytes()).unwrap();
    writer.flush().unwrap();
    for id in 0..10 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = sgl_observe::parse_json(line.trim()).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(id));
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    }
    server.stop();
}

/// Sends one request line on a fresh TCP connection and returns the
/// response line without its newline.
fn tcp_line(addr: std::net::SocketAddr, line: &str) -> String {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    let mut got = String::new();
    reader.read_line(&mut got).unwrap();
    got.trim_end().to_string()
}

/// One request line sent over TCP connections landing on every shard,
/// and through the in-process session, yields byte-identical response
/// lines — neither the memoized raw splice on a hit nor the single
/// render a miss shares between its reply and the memo may be
/// observable.
#[test]
fn responses_are_byte_identical_across_shards_and_session() {
    let server = LoopbackServer::start(ServerConfig {
        shards: 3,
        ..ServerConfig::default()
    });
    let fresh = Session::open_default();
    let mut setup = TcpClient::connect(server.addr).unwrap();
    let mut in_process = SessionClient(&fresh);
    let mut rng = StdRng::seed_from_u64(41);
    // Several graph names so the routing hash spreads them over shards.
    for name in ["alpha", "beta", "gamma", "delta"] {
        let g = generators::gnm_connected(&mut rng, 20, 70, 1..=9);
        load(&mut setup, name, &g);
        load(&mut in_process, name, &g);
    }
    // Misses: each line's first answer over TCP (rendered once, spliced
    // raw) equals the same first answer on a fresh server in-process
    // (a structured tree rendered at serialization). Per graph the order
    // covers a compile miss, a memo miss on a resident network and a
    // bypass, for every construction.
    for name in ["alpha", "beta", "gamma", "delta"] {
        for query in [
            r#""op":"sssp","source":3"#,
            r#""op":"sssp","source":5,"target":11"#,
            r#""op":"khop","source":2,"k":3"#,
            r#""op":"apsp_row","source":4"#,
            r#""op":"sssp","source":6,"cache":"bypass""#,
        ] {
            let line = format!("{{{query},\"graph\":\"{name}\",\"id\":9}}");
            let got = tcp_line(server.addr, &line);
            assert_eq!(got, fresh.call_line(&line), "first answer to {line}");
        }
    }
    for name in ["alpha", "beta", "gamma", "delta"] {
        let line = format!("{{\"op\":\"sssp\",\"graph\":\"{name}\",\"source\":3,\"id\":9}}");
        // Prime the result memo, then take the canonical warm rendering.
        let _ = server.session().call_line(&line);
        let want = server.session().call_line(&line);
        // New connections round-robin over the 3 shards; each must splice
        // the exact same bytes.
        for conn in 0..3 {
            assert_eq!(
                tcp_line(server.addr, &line),
                want,
                "graph {name}, connection {conn}"
            );
        }
    }
    fresh.shutdown();
    server.stop();
}

/// A graph loaded on one connection is immediately queryable from fresh
/// connections that land on other shards: the registry partition is
/// owned by the graph's home shard, not by whichever connection loaded
/// it.
#[test]
fn graph_loaded_on_one_connection_visible_from_all_shards() {
    let server = LoopbackServer::start(ServerConfig {
        shards: 4,
        ..ServerConfig::default()
    });
    let mut loader = TcpClient::connect(server.addr).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let g = generators::gnm_connected(&mut rng, 24, 90, 1..=9);
    load(&mut loader, "shared", &g);
    let want = dijkstra(&g, 5).distances;
    // More fresh connections than shards, so every shard serves at least
    // one of them.
    for conn in 0..8 {
        let mut client = TcpClient::connect(server.addr).unwrap();
        let resp = client.call(Envelope::of(Request::Sssp {
            graph: "shared".into(),
            source: 5,
            target: None,
            cache: CacheMode::Default,
        }));
        assert_eq!(distances_of(&resp), want, "connection {conn}");
    }
    server.stop();
}

/// Drain with 1000 idle connections parked on the shards completes
/// promptly, and queries admitted before the drain are all answered.
#[test]
fn drain_with_a_thousand_idle_connections_is_prompt() {
    let server = LoopbackServer::start(ServerConfig {
        shards: 2,
        max_connections: 2048,
        ..ServerConfig::default()
    });
    let mut client = TcpClient::connect(server.addr).unwrap();
    let mut rng = StdRng::seed_from_u64(43);
    let g = generators::gnm_connected(&mut rng, 24, 90, 1..=9);
    load(&mut client, "g", &g);

    let idle: Vec<std::net::TcpStream> = (0..1000)
        .map(|i| {
            std::net::TcpStream::connect(server.addr)
                .unwrap_or_else(|e| panic!("idle connection {i}: {e}"))
        })
        .collect();
    // Work admitted before the drain must still be answered.
    for i in 0..20 {
        let resp = client.call(Envelope::of(Request::Sssp {
            graph: "g".into(),
            source: i % 24,
            target: None,
            cache: CacheMode::Default,
        }));
        assert!(resp.is_ok(), "{resp:?}");
    }
    let t0 = std::time::Instant::now();
    assert!(client.call(Envelope::of(Request::Shutdown)).is_ok());
    server.stop();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "drain took {:?} with idle connections parked",
        t0.elapsed()
    );
    drop(idle);
}
