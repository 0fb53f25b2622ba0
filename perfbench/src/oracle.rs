//! The queries the serve workloads send, their request lines, and the
//! oracles their answers are checked against: `sgl_graph` Dijkstra for
//! `sssp` / `apsp_row` / targeted queries, hop-bounded Bellman–Ford for
//! `khop`. Oracles run after the measured phase, never inside it.

use sgl_graph::dijkstra::dijkstra_to;
use sgl_graph::{bellman_ford_khop, dijkstra, Graph, Len};
use sgl_observe::{parse_json, Json};
use sgl_serve::protocol::{parse_distances, parse_response, request_json};
use sgl_serve::{CacheMode, Envelope, Request, Response};

/// A distance query against a loaded graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Query {
    /// `sssp`, full row or (with `target`) one entry.
    Sssp {
        /// Source node.
        source: usize,
        /// Early-stop target.
        target: Option<usize>,
    },
    /// `apsp_row`.
    ApspRow {
        /// Row.
        source: usize,
    },
    /// `khop`.
    Khop {
        /// Source node.
        source: usize,
        /// Hop bound.
        k: u32,
    },
}

impl Query {
    /// The wire request for this query on `graph`.
    #[must_use]
    pub fn request(self, graph: &str) -> Request {
        let graph = graph.to_string();
        let cache = CacheMode::Default;
        match self {
            Self::Sssp { source, target } => Request::Sssp {
                graph,
                source,
                target,
                cache,
            },
            Self::ApspRow { source } => Request::ApspRow {
                graph,
                source,
                cache,
            },
            Self::Khop { source, k } => Request::Khop {
                graph,
                source,
                k,
                cache,
            },
        }
    }

    /// Short name of the query's family (`targeted`, `row`, `apsp`, `khop`).
    #[must_use]
    pub fn family(self) -> &'static str {
        match self {
            Self::Sssp {
                target: Some(_), ..
            } => "targeted",
            Self::Sssp { .. } => "row",
            Self::ApspRow { .. } => "apsp",
            Self::Khop { .. } => "khop",
        }
    }

    /// The request line (JSON, no newline) with correlation id `id`.
    #[must_use]
    pub fn line(self, graph: &str, id: u64) -> String {
        request_line(self.request(graph), id)
    }

    /// The answer an exact shortest-path oracle gives: the full row, or a
    /// one-element row for a targeted query.
    #[must_use]
    pub fn expected(self, g: &Graph) -> Vec<Option<Len>> {
        match self {
            Self::Sssp {
                source,
                target: Some(t),
            } => vec![dijkstra_to(g, source, Some(t)).distances[t]],
            Self::Sssp { source, .. } | Self::ApspRow { source } => dijkstra(g, source).distances,
            Self::Khop { source, k } => bellman_ford_khop(g, source, k).distances,
        }
    }
}

/// A request line with correlation id `id`.
#[must_use]
pub fn request_line(request: Request, id: u64) -> String {
    let mut env = Envelope::of(request);
    env.id = Some(id);
    request_json(&env).to_string()
}

/// Parses a response line into its `data` payload, or the error it reports.
///
/// # Errors
/// On malformed lines, error responses, or a mismatched id.
pub fn ok_data(line: &str, id: u64) -> Result<Json, String> {
    let v = parse_json(line).map_err(|e| format!("unparseable response: {e}"))?;
    let (got_id, response) = parse_response(&v)?;
    if got_id != Some(id) {
        return Err(format!("response id {got_id:?} for request {id}"));
    }
    match response {
        Response::Ok { data, .. } => Ok(data),
        Response::Error { kind, message } => Err(format!("{}: {message}", kind.as_str())),
    }
}

/// The served answer in oracle shape (see [`Query::expected`]) and the
/// `cache` tag the server put on it.
///
/// # Errors
/// When the payload lacks the answer fields.
pub fn served(query: Query, data: &Json) -> Result<(Vec<Option<Len>>, String), String> {
    let cache = data
        .get("cache")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let answer = match query {
        Query::Sssp {
            target: Some(_), ..
        } => match data.get("distance") {
            Some(Json::Null) => vec![None],
            Some(d) => vec![Some(d.as_u64().ok_or("non-integer distance")?)],
            None => return Err("targeted answer without distance".into()),
        },
        _ => parse_distances(data.get("distances").ok_or("answer without distances")?)?,
    };
    Ok((answer, cache))
}

/// Checks one response line against the oracle; returns its cache tag.
///
/// # Errors
/// On any error response or wrong answer.
pub fn check(line: &str, id: u64, query: Query, g: &Graph) -> Result<String, String> {
    let data = ok_data(line, id)?;
    let (answer, cache) = served(query, &data)?;
    if answer == query.expected(g) {
        Ok(cache)
    } else {
        Err(format!("{query:?}: answer differs from the oracle"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sgl_graph::generators;
    use sgl_serve::Session;

    #[test]
    fn served_answers_pass_and_corrupted_ones_fail() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnm_connected(&mut rng, 40, 160, 1..=9);
        let session = Session::open_default();
        let load = Request::LoadGraph {
            name: "g".into(),
            dimacs: sgl_graph::io::to_dimacs(&g, "test"),
        };
        assert!(session.call_request(load).is_ok());
        // The SSSP network compiles once and serves the next two queries;
        // k-hop compiles its own.
        let queries = [
            (
                Query::Sssp {
                    source: 3,
                    target: None,
                },
                "miss",
            ),
            (
                Query::Sssp {
                    source: 3,
                    target: Some(17),
                },
                "hit",
            ),
            (Query::ApspRow { source: 5 }, "hit"),
            (Query::Khop { source: 1, k: 2 }, "miss"),
        ];
        for (id, (q, tag)) in queries.into_iter().enumerate() {
            let id = id as u64;
            let reply = session.call_line(&q.line("g", id));
            assert_eq!(check(&reply, id, q, &g).unwrap(), tag);
            assert!(check(&reply, id + 1, q, &g).is_err(), "id mismatch");
            let other = generators::gnm_connected(&mut rng, 40, 160, 1..=9);
            assert!(
                check(&reply, id, q, &other).is_err(),
                "answer from another graph"
            );
        }
        let err = session.call_line(&Query::ApspRow { source: 99 }.line("g", 9));
        assert!(check(&err, 9, Query::ApspRow { source: 99 }, &g).is_err());
    }
}
