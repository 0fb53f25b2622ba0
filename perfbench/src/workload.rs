//! What every workload shares: its arguments, the result it reports, the
//! per-tier attempted/failed accounting, and seeded input helpers.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::Rng;
use sgl_observe::Json;

use crate::spans::Recorder;
use crate::stats::{Mixed, Summary};

/// Every per-layer metric and its unit, in report order. A traced run
/// reports all of them; a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("sim.event_us", "us"),
    ("sim.bitplane_us", "us"),
    ("sim.steps", "count"),
    ("sim.spike_events", "count"),
    ("sim.synaptic_deliveries", "count"),
    ("sim.neuron_updates", "count"),
    ("readout.decode_us", "us"),
    ("protocol.parse_us", "us"),
    ("protocol.serialize_us", "us"),
    ("protocol.resp_bytes", "bytes"),
    ("dimacs.parse_ms", "ms"),
    ("dimacs.bytes", "bytes"),
    ("compile.build_ms", "ms"),
    ("compile.load_ms", "ms"),
    ("compile.net_bytes", "bytes"),
    ("cache.hit_ratio", "ratio"),
    ("cache.misses", "count"),
    ("cache.memo_entries", "count"),
    ("cache.memo_bytes", "bytes"),
    ("cache.net_bytes", "bytes"),
    ("queue.wait_p50_us", "us"),
    ("queue.wait_p99_us", "us"),
    ("queue.depth_max", "count"),
    ("plan.compile_ms", "ms"),
    ("plan.cut_edges", "count"),
    ("plan.memory_mb", "MB"),
    ("bsp.run_ms", "ms"),
    ("bsp.supersteps", "count"),
    ("bsp.cut_messages", "count"),
    ("bsp.spilled", "count"),
    ("bsp.worker_busy_ms", "ms"),
    ("bsp.barrier_wait_ms", "ms"),
    ("bsp.imbalance_max", "ratio"),
    ("bsp.imbalance_mean", "ratio"),
    ("bsp.coverage", "ratio"),
    ("event.run_ms", "ms"),
    ("gen.lag_p99_us", "us"),
    ("unattributed_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

/// The full per-layer metric list, filled from `values` (0 where absent).
pub fn per_layer_metrics(values: &HashMap<&'static str, f64>) -> Vec<Metric> {
    debug_assert!(
        values.keys().all(|k| PER_LAYER.iter().any(|(n, _)| n == k)),
        "unlisted per-layer metric in {:?}",
        values.keys().collect::<Vec<_>>()
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// Writes a traced run's spans under `perfbench/out/` and describes the
/// file for the detail line.
pub fn write_spans(args: &Args, rec: &Recorder) -> Json {
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans-{}-{}.json",
        args.workload, args.seed
    ));
    let written = rec.write_to(&path);
    Json::obj(vec![
        ("count", Json::UInt(rec.spans().len() as u64)),
        (
            "file",
            match written {
                Ok(()) => Json::Str(path.display().to_string()),
                Err(e) => Json::Str(format!("not written: {e}")),
            },
        ),
    ])
}

/// A named, independent seed derived from the workload seed, so each
/// input stream stays fixed when another one changes.
pub fn sub_seed(seed: u64, stream: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for b in stream.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fisher–Yates shuffle.
pub fn shuffled<T>(rng: &mut StdRng, mut items: Vec<T>) -> Vec<T> {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
    items
}

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// One-line usage.
    pub const USAGE: &'static str = "usage: perfbench --workload <serve_warm|serve_churn|bsp_1m> \
                                     --seed <n> --seconds <s> --trace <0|1>";

    /// Parses `--key value` pairs; every key is required.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(key) = it.next() {
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            let bad = |what: &str| format!("{key}: {what} expected, got {value:?}");
            match key.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("integer"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("number"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("positive number"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    });
                }
                _ => return Err(format!("unknown argument {key}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Attempted and failed operations of one tier.
#[derive(Clone, Debug, Default)]
pub struct TierCount {
    /// Tier name (`warm_lo`, `cold`, `solve`, ...).
    pub name: &'static str,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or answered wrongly.
    pub failed: u64,
}

/// A reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a workload run reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Per-tier operation counts.
    pub tiers: Vec<TierCount>,
    /// The metrics of the final result line (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Workload-specific named figures, printed in the detail line.
    pub named: Vec<Metric>,
    /// Extra structured detail (span summaries, reconciliation, ...).
    pub extra: Vec<(&'static str, Json)>,
    /// Reasons the run is not correct (wrong answers, tier mismatches).
    pub problems: Vec<String>,
}

impl Outcome {
    /// Adds a final-line metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a named figure for the detail line.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a named latency population (values in ms): `<name>_p50`,
    /// `<name>_<tail label>` by the percentile rule, and `<name>_count`,
    /// in `unit` (`ms` or `us`).
    pub fn named_latency(&mut self, name: &str, s: &Summary, unit: &'static str) {
        let scale = if unit == "us" { 1000.0 } else { 1.0 };
        self.named(&format!("{name}_p50_{unit}"), s.p50 * scale, unit);
        if s.tail_q > 0.5 {
            self.named(
                &format!("{name}_{}_{unit}", s.tail_label()),
                s.tail * scale,
                unit,
            );
        }
        self.named(&format!("{name}_count"), s.count as f64, "count");
    }

    /// [`Self::named_latency`] for a mixed population, plus its p90, its
    /// mix-weighted mean of family medians and each family's median.
    pub fn named_mixed(&mut self, name: &str, m: &Mixed, unit: &'static str) {
        let scale = if unit == "us" { 1000.0 } else { 1.0 };
        self.named_latency(name, &m.pooled, unit);
        self.named(&format!("{name}_p90_{unit}"), m.p90 * scale, unit);
        self.named(&format!("{name}_mix_mean_{unit}"), m.mix_mean * scale, unit);
        for (family, s) in &m.families {
            self.named(&format!("{name}_{family}_p50_{unit}"), s.p50 * scale, unit);
        }
    }

    /// The end-to-end metrics every workload reports: set-up time, peak
    /// memory, the median time (ms) of its headline request class, and the
    /// time (ms) of its alternative class. Tails stay in the detail line:
    /// on a two-core VM their run-to-run spread is wider than any
    /// regression bound.
    pub fn end_to_end(&mut self, setup_s: f64, median_ms: f64, alt_ms: f64) {
        self.metric("setup_s", setup_s, "s");
        self.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
        self.metric("median_ms", median_ms, "ms");
        self.metric("alt_ms", alt_ms, "ms");
    }

    /// Records a tier's counts.
    pub fn tier(&mut self, name: &'static str, attempted: u64, failed: u64) {
        self.tiers.push(TierCount {
            name,
            attempted,
            failed,
        });
    }

    /// Records a correctness problem (fails the run).
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Total attempted operations.
    pub fn attempted(&self) -> u64 {
        self.tiers.iter().map(|t| t.attempted).sum()
    }

    /// Total failed operations.
    pub fn failed(&self) -> u64 {
        self.tiers.iter().map(|t| t.failed).sum()
    }

    /// Whether every answer was right and every tier check held.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.problems.is_empty() && self.attempted() > 0
    }

    /// The contract's final stdout line.
    pub fn result_line(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.as_str(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted().max(1))),
            ("failed", Json::UInt(self.failed())),
            ("metrics", Json::obj(metrics)),
        ])
    }

    pub(crate) fn tiers_json(&self) -> Json {
        Json::Arr(
            self.tiers
                .iter()
                .map(|t| {
                    Json::obj(vec![
                        ("tier", Json::Str(t.name.into())),
                        ("attempted", Json::UInt(t.attempted)),
                        ("failed", Json::UInt(t.failed)),
                    ])
                })
                .collect(),
        )
    }

    pub(crate) fn named_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = self
            .named
            .iter()
            .map(|m| {
                (
                    m.name.as_str(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        fields.extend(self.extra.iter().map(|(k, v)| (*k, v.clone())));
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "bsp_1m",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("bsp_1m", 7, 20.0, true)
        );
        assert!(args(&["--workload", "x", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "-1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    /// `BENCHMARK.json` lists exactly the metrics the program reports.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let bench = sgl_observe::parse_json(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Json::as_str).expect("field").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let per_layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(listed("per_layer"), per_layer);
        let mut o = Outcome::default();
        o.end_to_end(1.0, 1.0, 1.0);
        let e2e: Vec<(String, String)> = o
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
    }

    #[test]
    fn failures_count_against_attempts_and_break_correctness() {
        let mut o = Outcome::default();
        o.tier("warm_lo", 100, 0);
        o.tier("warm_hi", 50, 0);
        assert!(o.correct());
        assert_eq!(o.attempted(), 150);
        o.tier("capacity", 10, 1);
        assert!(!o.correct());
        let mut p = Outcome::default();
        p.tier("x", 1, 0);
        p.problem("tier mismatch");
        assert!(!p.correct());
        assert!(
            !Outcome::default().correct(),
            "nothing attempted is not a pass"
        );
    }
}
