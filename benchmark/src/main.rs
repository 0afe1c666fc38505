//! The repo benchmark. `--workload <name>` runs one workload in this
//! process and prints its result line; without it the program re-executes
//! itself once per workload (so RSS and thread state do not leak between
//! them) and prints every end-to-end metric by name and unit.
//!
//! See `benchmark/README.md` for the workloads, the metrics and how to
//! read the trace.

mod adapter;
mod host;
mod json;
mod layers;
mod regime;
mod stats;
mod suite;
mod trace;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{metrics_json, Outcome, RunConfig};

/// `benchmark/` as compiled; the checkout the binary was built in.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    /// Suite mode: run every workload at this many consecutive seeds.
    pub seeds: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub aa: bool,
    pub quick: bool,
}

const USAGE: &str = "usage: swkm-benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] \
[--trace <0|1>] [--traced] [--aa] [--seeds <n>] [--quick]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seeds: 1,
        seconds: None,
        trace: false,
        aa: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seeds" => {
                args.seeds = value("a count")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
                if args.seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--traced" => args.trace = true,
            "--aa" => args.aa = true,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The line the acceptance driver reads: exactly these four keys.
fn result_line(outcome: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.ledger.failed == 0)),
        ("attempted", Json::Num(outcome.ledger.attempted as f64)),
        ("failed", Json::Num(outcome.ledger.failed as f64)),
        ("metrics", metrics_json(&outcome.metrics)),
    ])
    .compact()
}

/// One workload in this process: provenance, a readable table, the detail
/// behind the medians, then the result line last.
fn run_one(name: &str, args: &Args) -> Result<(), String> {
    let w = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (valid: {})", names.join(", "))
    })?;
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or_else(|| suite::default_seconds(args.quick)),
    };
    let repo_root = bench_dir().join("..");
    let provenance = host::provenance(&repo_root, cfg.seed, cfg.seconds);
    println!("provenance {}", provenance.compact());
    let outcome = if args.trace {
        layers::run_traced(w, &cfg, &out_dir(), &provenance)?
    } else {
        workloads::run_end_to_end(w, &cfg, &out_dir())?
    };
    println!(
        "workload {name} ({}): {}",
        if args.trace { "traced" } else { "untraced" },
        w.why
    );
    for m in &outcome.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("detail {}", outcome.detail.compact());
    for note in &outcome.ledger.notes {
        println!("FAILED CHECK {note}");
    }
    println!("{}", result_line(&outcome));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swkm-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        // Driver mode: a failed check is reported in the result line
        // (`correct: false`), which is the contract's failure channel.
        Some(name) => run_one(name, &args).map(|()| true),
        None => suite::run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("swkm-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
