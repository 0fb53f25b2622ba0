//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_warm --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Three workloads (see `README.md` in this directory for the rationale):
//!
//! * `serve_warm` — open-loop TCP queries at two fixed rates plus a
//!   closed-loop capacity phase, every answer from a resident network;
//! * `serve_churn` — open-loop graph reloads beside cold-compile and
//!   memo-hit reads, plus closed-loop reload cycles and memo bursts;
//! * `bsp_1m` — SSSP on a 10^6-node layered graph through the threaded
//!   partitioned engine, no server.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced replay.
//! Every answer is checked against an oracle; a wrong answer, an error,
//! or a cache-tier mismatch fails the run with a non-zero exit.

mod bsp;
mod client;
mod oracle;
mod serve;
mod spans;
mod stats;
mod tier;
mod workload;

use std::process::ExitCode;

use sgl_observe::Json;

use crate::workload::{Args, Outcome};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("{}", Args::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "serve_warm" => serve::warm(&args),
        "serve_churn" => serve::churn(&args),
        "bsp_1m" => bsp::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.detail(&args));
            println!("{}", outcome.result_line());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {}", outcome.problems.join("; "));
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The provenance block every result carries.
fn provenance(seed: u64) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj(vec![
        ("available_parallelism", Json::UInt(cores as u64)),
        ("rustc", Json::Str(env!("PERFBENCH_RUSTC").into())),
        ("profile", Json::Str(env!("PERFBENCH_PROFILE").into())),
        ("git_commit", Json::Str(env!("PERFBENCH_COMMIT").into())),
        ("mem_total_mb", mem_total_mb().map_or(Json::Null, Json::Num)),
        ("seed", Json::UInt(seed)),
    ])
}

/// A `kB` field of a `/proc` status-style file, in MiB.
fn proc_kb_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn mem_total_mb() -> Option<f64> {
    proc_kb_field("/proc/meminfo", "MemTotal:")
}

/// Peak resident set size of this process so far, in MiB.
fn peak_rss_mb() -> f64 {
    proc_kb_field("/proc/self/status", "VmHWM:").unwrap_or(0.0)
}

impl Outcome {
    fn detail(&self, args: &Args) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(args.workload.clone())),
            ("trace", Json::Bool(args.trace)),
            ("provenance", provenance(args.seed)),
            ("tiers", self.tiers_json()),
            ("named", self.named_json()),
            ("problems", Json::strings(&self.problems)),
        ])
    }
}
