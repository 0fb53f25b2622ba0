//! Cache-tier checks from outside the server.
//!
//! Around each measured phase the benchmark reads `server_stats` and
//! classifies the phase's queries from the cache counter deltas. Every
//! query moves exactly one counter pair:
//!
//! | tier | `hits` | `misses` | `result_entries` |
//! |---|---|---|---|
//! | memo hit (answer replayed) | +1 | | |
//! | warm (resident network, answer computed and memoized) | +1 | | +1 |
//! | cold (network compiled, answer computed and memoized) | | +1 | +1 |
//!
//! so `cold = Δmisses`, `memo = queries − Δresult_entries` and
//! `warm = Δhits − memo`. (Replacing a graph drops its memoized answers
//! from `result_entries`, so the entry delta is only read on phases that
//! load nothing.) A run whose deltas disagree with its schedule is
//! rejected: a memo-only run must not pass as serve speed.

use sgl_observe::Json;

/// The `server_stats` figures the benchmark reads.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Cache hits (resident network or memoized answer).
    pub hits: u64,
    /// Cache misses (compiles).
    pub misses: u64,
    /// Memoized answers resident.
    pub result_entries: u64,
    /// Bytes of memoized answers resident.
    pub result_bytes: u64,
    /// Bytes of compiled networks resident.
    pub net_bytes: u64,
    /// Queue wait p50, µs (server lifetime).
    pub queue_wait_p50_us: u64,
    /// Queue wait p99, µs (server lifetime).
    pub queue_wait_p99_us: u64,
    /// Deepest queue seen at pop (server lifetime).
    pub queue_depth_max: u64,
}

impl StatsSnapshot {
    /// Reads the snapshot from a `server_stats` response's `data`.
    ///
    /// # Errors
    /// When a cache counter is missing.
    pub fn from_stats(data: &Json) -> Result<Self, String> {
        let cache = data.get("cache").ok_or("server_stats without cache")?;
        let counter = |key: &str| {
            cache
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("server_stats cache.{key} missing"))
        };
        let queue = data.get("queue");
        let wait = |key: &str| {
            queue
                .and_then(|q| q.get("wait"))
                .and_then(|w| w.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        Ok(Self {
            hits: counter("hits")?,
            misses: counter("misses")?,
            result_entries: counter("result_entries")?,
            result_bytes: counter("result_bytes")?,
            net_bytes: counter("net_bytes")?,
            queue_wait_p50_us: wait("p50_us"),
            queue_wait_p99_us: wait("p99_us"),
            queue_depth_max: queue
                .and_then(|q| q.get("depth_at_pop"))
                .and_then(|d| d.get("max"))
                .and_then(Json::as_u64)
                .unwrap_or(0),
        })
    }
}

/// Queries of one phase by tier, as the counters classify them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierMix {
    /// Answers replayed from the memo.
    pub memo: u64,
    /// Answers computed on a resident network.
    pub warm: u64,
    /// Answers that compiled a network.
    pub cold: u64,
}

impl TierMix {
    /// Classifies `queries` queries from the counter movement between two
    /// snapshots of a phase that loaded no graph.
    ///
    /// # Errors
    /// When the deltas cannot come from `queries` queries.
    pub fn classify(
        before: &StatsSnapshot,
        after: &StatsSnapshot,
        queries: u64,
    ) -> Result<Self, String> {
        let d = |a: u64, b: u64, what: &str| {
            a.checked_sub(b)
                .ok_or_else(|| format!("{what} went backwards ({b} -> {a})"))
        };
        let hits = d(after.hits, before.hits, "hits")?;
        let cold = d(after.misses, before.misses, "misses")?;
        let entries = d(
            after.result_entries,
            before.result_entries,
            "result_entries",
        )?;
        if hits + cold != queries {
            return Err(format!(
                "{queries} queries moved hits by {hits} and misses by {cold}"
            ));
        }
        let memo = queries
            .checked_sub(entries)
            .ok_or_else(|| format!("{entries} new memo entries from {queries} queries"))?;
        let warm = hits
            .checked_sub(memo)
            .ok_or_else(|| format!("{memo} memo hits exceed {hits} hits"))?;
        Ok(Self { memo, warm, cold })
    }
}

/// The `serve_warm` rule: every measured query ran on a resident network —
/// no memo hit, no compile.
///
/// # Errors
/// Describes the mismatch.
pub fn expect_all_warm(mix: TierMix, queries: u64) -> Result<(), String> {
    if mix
        == (TierMix {
            memo: 0,
            warm: queries,
            cold: 0,
        })
    {
        Ok(())
    } else {
        Err(format!(
            "expected {queries} warm queries, counters show {mix:?}"
        ))
    }
}

/// The `serve_churn` rule: compiles equal fresh handles × constructions
/// queried, and every other read was a cache hit. The counters cannot
/// tell a memo hit from a computation on an already-compiled network
/// (both move `hits` by one, and the reloads move `result_entries`), so
/// this rule does not show that the memo reads were answered from the
/// memo.
///
/// # Errors
/// Describes the mismatch.
pub fn expect_churn(
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    cold_expected: u64,
    memo_expected: u64,
) -> Result<(), String> {
    let cold = after.misses.saturating_sub(before.misses);
    let hits = after.hits.saturating_sub(before.hits);
    if cold == cold_expected && hits == memo_expected {
        Ok(())
    } else {
        Err(format!(
            "expected {cold_expected} compiles and {memo_expected} memo hits, \
             counters show {cold} misses and {hits} hits"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(hits: u64, misses: u64, result_entries: u64) -> StatsSnapshot {
        StatsSnapshot {
            hits,
            misses,
            result_entries,
            ..StatsSnapshot::default()
        }
    }

    #[test]
    fn classifies_each_tier_from_counter_deltas() {
        let before = snap(10, 4, 14);
        // 100 warm queries: +100 hits, +100 memo entries.
        let mix = TierMix::classify(&before, &snap(110, 4, 114), 100).unwrap();
        assert_eq!(
            mix,
            TierMix {
                memo: 0,
                warm: 100,
                cold: 0
            }
        );
        assert!(expect_all_warm(mix, 100).is_ok());
        // 60 memo hits, 30 warm, 10 cold.
        let mix = TierMix::classify(&before, &snap(100, 14, 54), 100).unwrap();
        assert_eq!(
            mix,
            TierMix {
                memo: 60,
                warm: 30,
                cold: 10
            }
        );
        assert!(
            expect_all_warm(mix, 100).is_err(),
            "memo hits must not pass as warm"
        );
        // A single repeated key among warm queries is caught.
        let mix = TierMix::classify(&before, &snap(110, 4, 113), 100).unwrap();
        assert_eq!(mix.memo, 1);
        assert!(expect_all_warm(mix, 100).is_err());
        // A compile is caught.
        let mix = TierMix::classify(&before, &snap(109, 5, 114), 100).unwrap();
        assert_eq!(mix.cold, 1);
        assert!(expect_all_warm(mix, 100).is_err());
    }

    #[test]
    fn impossible_deltas_are_errors() {
        let before = snap(10, 4, 14);
        assert!(
            TierMix::classify(&before, &snap(105, 4, 114), 100).is_err(),
            "lost queries"
        );
        assert!(
            TierMix::classify(&before, &snap(110, 4, 9), 100).is_err(),
            "entries shrank"
        );
        assert!(
            TierMix::classify(&before, &snap(110, 4, 120), 100).is_err(),
            "too many entries"
        );
    }

    #[test]
    fn churn_rule_counts_compiles_and_memo_hits() {
        let before = snap(50, 6, 0);
        assert!(expect_churn(&before, &snap(250, 46, 0), 40, 200).is_ok());
        assert!(expect_churn(&before, &snap(251, 45, 0), 40, 200).is_err());
    }

    #[test]
    fn reads_a_server_stats_payload() {
        let data = sgl_observe::parse_json(
            r#"{"queue":{"wait":{"p50_us":3,"p99_us":40},"depth_at_pop":{"max":7}},
                "cache":{"hits":5,"misses":2,"result_entries":6,"result_bytes":900,"net_bytes":4096}}"#,
        )
        .unwrap();
        let s = StatsSnapshot::from_stats(&data).unwrap();
        assert_eq!((s.hits, s.misses, s.result_entries), (5, 2, 6));
        assert_eq!(
            (s.queue_wait_p50_us, s.queue_wait_p99_us, s.queue_depth_max),
            (3, 40, 7)
        );
        assert_eq!((s.result_bytes, s.net_bytes), (900, 4096));
        assert!(StatsSnapshot::from_stats(&sgl_observe::parse_json("{}").unwrap()).is_err());
    }
}
