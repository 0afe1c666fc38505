//! Experiment harness: regenerates every table and figure of the SC'18
//! evaluation.
//!
//! ```text
//! cargo run -p experiments --release -- all
//! cargo run -p experiments --release -- fig7 fig8
//! cargo run -p experiments --release -- --out /tmp/exp fig10
//! ```
//!
//! Each experiment prints an aligned table (with the paper's reference
//! values or axis magnitudes alongside) and writes a CSV under the output
//! directory (default `target/experiments`).

mod ablations;
mod fig10;
mod figs;
mod obs_trace;
mod report;
mod tables;

use report::Report;
use std::path::{Path, PathBuf};

const EXPERIMENTS: [&str; 19] = [
    "table1",
    "table2",
    "table3",
    "fig3",
    "fig4",
    "fig5",
    "fig6a",
    "fig6b",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "abl_regcomm",
    "abl_placement",
    "abl_batch",
    "abl_spill",
    "weak_scaling",
    "phase_trace",
    "event_trace",
];

fn usage() -> ! {
    eprintln!("usage: experiments [--out DIR] [--kernel scalar|gemm] <experiment>...");
    eprintln!("experiments: {} | all", EXPERIMENTS.join(" | "));
    std::process::exit(2);
}

fn run_one(name: &str, out_dir: &Path, kernel: kmeans_core::AssignKernel) -> Report {
    match name {
        "table1" => tables::table1(),
        "table2" => tables::table2(),
        "table3" => tables::table3(),
        "fig3" => figs::fig3(),
        "fig4" => figs::fig4(),
        "fig5" => figs::fig5(),
        "fig6a" => figs::fig6a(),
        "fig6b" => figs::fig6b(),
        "fig7" => figs::fig7(),
        "fig8" => figs::fig8(),
        "fig9" => figs::fig9(),
        "fig10" => fig10::fig10(out_dir),
        "abl_regcomm" => ablations::abl_regcomm(),
        "abl_placement" => ablations::abl_placement(),
        "abl_batch" => ablations::abl_batch(),
        "abl_spill" => ablations::abl_spill(),
        "weak_scaling" => ablations::weak_scaling(),
        "phase_trace" => obs_trace::phase_trace_with(kernel),
        "event_trace" => obs_trace::event_trace(),
        other => {
            eprintln!("unknown experiment `{other}`");
            usage()
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = PathBuf::from("target/experiments");
    if let Some(pos) = args.iter().position(|a| a == "--out") {
        if pos + 1 >= args.len() {
            usage();
        }
        out_dir = PathBuf::from(args.remove(pos + 1));
        args.remove(pos);
    }
    // `--kernel` selects the assign kernel for the experiments that run
    // real training loops (currently `phase_trace`).
    let mut kernel = kmeans_core::AssignKernel::Scalar;
    if let Some(pos) = args.iter().position(|a| a == "--kernel") {
        if pos + 1 >= args.len() {
            usage();
        }
        match kmeans_core::AssignKernel::parse(&args.remove(pos + 1)) {
            Ok(k) => kernel = k,
            Err(e) => {
                eprintln!("{e}");
                usage();
            }
        }
        args.remove(pos);
    }
    if args.is_empty() {
        usage();
    }
    let selected: Vec<&str> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    println!(
        "Regenerating {} experiment(s); CSV output in {}",
        selected.len(),
        out_dir.display()
    );
    for name in selected {
        let report = run_one(name, &out_dir, kernel);
        report.emit(&out_dir);
    }
}
