//! `swkm` — command-line interface to the sunway-kmeans library.
//!
//! ```text
//! swkm plan  --n 1265723 --k 2000 --d 196608 --nodes 4096
//! swkm model --n 1265723 --k 2000 --d 4096 --nodes 128 [--level 2]
//! swkm sweep --n 1265723 --k 2000 --d-lo 512 --d-hi 8192 --step 512 --nodes 128
//! swkm fit   --dataset kegg --n 4096 --k 64 [--level 3] [--units 8] [--group 2]
//!            [--kernel scalar|gemm] [--update twopass|fused|delta]
//!            [--merge auto|tree|ring] [--bounds none|hamerly|yinyang|auto]
//!            [--algo hier|lloyd] [--faults seed=7,rate=0.25,...]
//!            [--metrics-json out.json] [--metrics-prom out.prom]
//!            [--trace-out trace.json]
//! swkm landcover --size 128 --out target/landcover-cli
//! swkm train --dataset mixture --n 4096 --k 64 --save-model model.swkm [--standardize]
//! swkm predict --model model.swkm --n 1024 [--shards 4] [--kernel scalar|gemm]
//! swkm predict --store models/ --model-name census --n 1024
//! swkm serve-bench --k 64 --clients 8 --requests 2000 [--queue 1024] [--workers 2]
//!                  [--metrics-interval 1] [--metrics-json out.json]
//!                  [--faults kill-shards=0,kill-after-ms=50]
//!                  [--store models/ --model-name census]
//!                  [--model-churn 5 --churn-every-ms 20]
//!                  [--trace-out trace.json --trace-sample 8]
//!                  [--ramp --ramp-peak 20 --ramp-steps 4 --ramp-json ramp.json]
//!                  [--elastic --min-shards 1 --max-shards 4]
//!                  [--slo-p99-us 500] [--shard-queue 4] [--tick-us 2000]
//! swkm store put  --dir models/ --model-name census --k 64 [--from model.swkm]
//! swkm store list --dir models/
//! swkm store gc   --dir models/
//! ```

mod args;
mod serve_cmd;
mod store_cmd;

use args::Args;
use hier_kmeans::{choose_level, gemm_group_units, HierKMeans};
use kmeans_core::{init_centroids, InitMethod};
use perf_model::{feasibility, CostModel, Level, ProblemShape};
use sw_arch::Machine;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&argv) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("swkm: {msg}");
            eprintln!();
            eprintln!(
                "usage: swkm <plan|model|sweep|fit|landcover|train|predict|serve-bench|store> [--flags]"
            );
            2
        }
    };
    std::process::exit(code);
}

/// Write `--metrics-json` / `--metrics-prom` exports if requested. Shared
/// by `fit` and `serve-bench` so every instrumented path speaks the same
/// flag vocabulary.
pub(crate) fn write_metrics_outputs(
    args: &Args,
    registry: &swkm_obs::MetricsRegistry,
) -> Result<(), String> {
    if let Some(path) = args.get_str("metrics-json") {
        let mut doc = swkm_obs::export::to_json(registry);
        doc.push('\n');
        std::fs::write(path, doc).map_err(|e| format!("--metrics-json {path}: {e}"))?;
        println!("wrote metrics JSON to {path}");
    }
    if let Some(path) = args.get_str("metrics-prom") {
        std::fs::write(path, swkm_obs::export::to_prometheus(registry))
            .map_err(|e| format!("--metrics-prom {path}: {e}"))?;
        println!("wrote Prometheus metrics to {path}");
    }
    Ok(())
}

/// Write a Chrome-trace JSON export of `buf` to `--trace-out` if requested.
/// Shared by `fit` and `serve-bench`: both speak the same flag and emit the
/// same `chrome://tracing` / Perfetto document shape.
pub(crate) fn write_trace_output(
    args: &Args,
    buf: Option<&std::sync::Arc<swkm_obs::TraceBuffer>>,
) -> Result<(), String> {
    let (Some(path), Some(buf)) = (args.get_str("trace-out"), buf) else {
        return Ok(());
    };
    let stats = buf.stats();
    let doc = swkm_obs::chrome::to_chrome_json(&buf.snapshot(), stats.dropped);
    std::fs::write(path, doc).map_err(|e| format!("--trace-out {path}: {e}"))?;
    println!(
        "wrote Chrome trace to {path} ({} event(s), {} dropped)",
        stats.retained, stats.dropped
    );
    Ok(())
}

/// Build the `--trace-out` trace buffer: `--trace-cap` events of ring
/// (default 65536), sampling every `--trace-sample`-th request (default 1 =
/// every request; training traces ignore sampling — phases are always on).
pub(crate) fn parse_trace_buffer(
    args: &Args,
) -> Result<Option<std::sync::Arc<swkm_obs::TraceBuffer>>, String> {
    if args.get_str("trace-out").is_none() {
        return Ok(None);
    }
    let cap: usize = args.get_or("trace-cap", 65_536usize)?;
    let sample: u64 = args.get_or("trace-sample", 1u64)?;
    if cap == 0 {
        return Err("--trace-cap must be positive".into());
    }
    Ok(Some(std::sync::Arc::new(
        swkm_obs::TraceBuffer::with_sampling(cap, sample),
    )))
}

fn parse_assign_kernel(args: &Args) -> Result<kmeans_core::AssignKernel, String> {
    match args.get_str("kernel") {
        None => Ok(kmeans_core::AssignKernel::Scalar),
        Some(spec) => kmeans_core::AssignKernel::parse(spec).map_err(|e| format!("--kernel: {e}")),
    }
}

fn parse_update_mode(args: &Args) -> Result<kmeans_core::UpdateMode, String> {
    match args.get_str("update") {
        None => Ok(kmeans_core::UpdateMode::TwoPass),
        Some(spec) => kmeans_core::UpdateMode::parse(spec).map_err(|e| format!("--update: {e}")),
    }
}

fn parse_merge_strategy(args: &Args) -> Result<hier_kmeans::MergeStrategy, String> {
    match args.get_str("merge") {
        None => Ok(hier_kmeans::MergeStrategy::Auto),
        Some(spec) => hier_kmeans::MergeStrategy::parse(spec).map_err(|e| format!("--merge: {e}")),
    }
}

fn parse_bounds_mode(args: &Args) -> Result<kmeans_core::BoundsMode, String> {
    match args.get_str("bounds") {
        None => Ok(kmeans_core::BoundsMode::None),
        Some(spec) => spec
            .parse::<kmeans_core::BoundsMode>()
            .map_err(|e| format!("--bounds: {e}")),
    }
}

/// `--faults <spec>` — a [`hier_kmeans::FaultPlan`] spec like
/// `seed=7,rate=0.25,kinds=drop+corrupt` (see `FaultPlan::parse`).
pub(crate) fn parse_fault_plan(args: &Args) -> Result<Option<hier_kmeans::FaultPlan>, String> {
    match args.get_str("faults") {
        None => Ok(None),
        Some(spec) => hier_kmeans::FaultPlan::parse(spec)
            .map(Some)
            .map_err(|e| format!("--faults: {e}")),
    }
}

fn parse_level(args: &Args) -> Result<Option<Level>, String> {
    match args.get_str("level") {
        None | Some("auto") => Ok(None),
        Some("1") => Ok(Some(Level::L1)),
        Some("2") => Ok(Some(Level::L2)),
        Some("3") => Ok(Some(Level::L3)),
        Some(other) => Err(format!("--level must be 1|2|3|auto, got `{other}`")),
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    // `swkm store <verb> --flags` nests one level: peel the `store` token
    // and let the verb be the parsed command.
    if argv.first().map(String::as_str) == Some("store") {
        let args = Args::parse(&argv[1..]).map_err(|e| format!("store: {e}"))?;
        return store_cmd::cmd_store(&args);
    }
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "plan" => cmd_plan(&args),
        "model" => cmd_model(&args),
        "sweep" => cmd_sweep(&args),
        "fit" => cmd_fit(&args),
        "landcover" => cmd_landcover(&args),
        "train" => serve_cmd::cmd_train(&args),
        "predict" => serve_cmd::cmd_predict(&args),
        "serve-bench" => serve_cmd::cmd_serve_bench(&args),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// Feasibility of every level for a shape, with the chosen plan's layout.
fn cmd_plan(args: &Args) -> Result<(), String> {
    let n: u64 = args.require("n")?;
    let k: u64 = args.require("k")?;
    let d: u64 = args.require("d")?;
    let nodes: usize = args.get_or("nodes", 128)?;
    let shape = ProblemShape::f32(n, k, d);
    let machine = Machine::taihulight(nodes);
    println!(
        "shape: n={n} k={k} d={d} on {nodes} nodes ({} CPEs)",
        machine.total_cpes()
    );
    for level in [Level::L1, Level::L2, Level::L3] {
        match feasibility::plan(level, &shape, &machine, true) {
            Ok(plan) => {
                println!(
                    "  {level}: group of {} unit(s), {} centroid(s)/unit, {} groups, \
                     slice {}, resident {} B/CPE{}",
                    plan.group_units,
                    plan.centroids_per_unit,
                    plan.n_groups,
                    plan.slice,
                    plan.resident_bytes,
                    if plan.spilled {
                        " [SPILLED to DDR]"
                    } else {
                        ""
                    }
                );
            }
            Err(e) => println!("  {level}: INFEASIBLE — {e}"),
        }
    }
    Ok(())
}

/// Cost breakdown for a shape at one level (or the model's choice).
fn cmd_model(args: &Args) -> Result<(), String> {
    let n: u64 = args.require("n")?;
    let k: u64 = args.require("k")?;
    let d: u64 = args.require("d")?;
    let nodes: usize = args.get_or("nodes", 128)?;
    let shape = ProblemShape::f32(n, k, d);
    let model = CostModel::taihulight(nodes);
    let (level, cost) = match parse_level(args)? {
        Some(level) => (
            level,
            model
                .iteration_time(&shape, level)
                .map_err(|e| e.to_string())?,
        ),
        None => perf_model::best_level(&model, &shape).map_err(|errs| {
            errs.iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        })?,
    };
    println!("{level} on {nodes} nodes:");
    println!("  compute      {:>12.6} s", cost.compute);
    println!("  read (DMA)   {:>12.6} s", cost.read);
    println!("  assign comm  {:>12.6} s", cost.assign_comm);
    println!("  update comm  {:>12.6} s", cost.update_comm);
    println!(
        "  total        {:>12.6} s per iteration ({})",
        cost.total(),
        cost.dominant_phase()
    );
    Ok(())
}

/// d-sweep comparing Level 2 and Level 3 (the Fig. 7 study, custom params).
fn cmd_sweep(args: &Args) -> Result<(), String> {
    let n: u64 = args.require("n")?;
    let k: u64 = args.require("k")?;
    let lo: u64 = args.require("d-lo")?;
    let hi: u64 = args.require("d-hi")?;
    let step: u64 = args.get_or("step", 512)?;
    let nodes: usize = args.get_or("nodes", 128)?;
    if step == 0 || lo > hi {
        return Err("need d-lo ≤ d-hi and step > 0".into());
    }
    let model = CostModel::taihulight(nodes);
    println!("{:>8} {:>12} {:>12}  winner", "d", "L2 (s)", "L3 (s)");
    let mut d = lo;
    while d <= hi {
        let shape = ProblemShape::f32(n, k, d);
        let l2 = model.iteration_time_strict(&shape, Level::L2);
        let l3 = model.iteration_time(&shape, Level::L3);
        let fmt = |r: &Result<perf_model::CostBreakdown, _>| match r {
            Ok(c) => format!("{:.4}", c.total()),
            Err(_) => "—".to_string(),
        };
        let winner = match (&l2, &l3) {
            (Ok(a), Ok(b)) => {
                if a.total() < b.total() {
                    "L2"
                } else {
                    "L3"
                }
            }
            (Err(_), Ok(_)) => "L3",
            (Ok(_), Err(_)) => "L2",
            _ => "—",
        };
        println!("{d:>8} {:>12} {:>12}  {winner}", fmt(&l2), fmt(&l3));
        d += step;
    }
    Ok(())
}

/// Functional clustering on a generated dataset.
fn cmd_fit(args: &Args) -> Result<(), String> {
    let dataset = args.get_str("dataset").unwrap_or("mixture");
    let n: usize = args.get_or("n", 4_096)?;
    let k: usize = args.require("k")?;
    let units: usize = args.get_or("units", 8)?;
    let group: usize = args.get_or("group", 2)?;
    let data = match dataset {
        "kegg" => datasets::uci::kegg_network().generate(n),
        "road" => datasets::uci::road_network().generate(n),
        "census" => datasets::uci::us_census_1990().generate(n),
        "mixture" => {
            let d: usize = args.get_or("d", 16)?;
            datasets::GaussianMixture::new(n, d, k.max(2))
                .with_seed(args.get_or("seed", 0u64)?)
                .generate()
                .data
        }
        other => {
            return Err(format!(
                "unknown dataset `{other}` (kegg|road|census|mixture)"
            ))
        }
    };
    let kernel = parse_assign_kernel(args)?;
    let update = parse_update_mode(args)?;
    let merge = parse_merge_strategy(args)?;
    let bounds = parse_bounds_mode(args)?;
    // `--algo lloyd` runs the serial exact algorithm on the same data/init
    // instead of the hierarchical executor — the single-core baseline for
    // filter-effectiveness comparisons against `--bounds`.
    match args.get_str("algo") {
        None | Some("hier") => {}
        Some("lloyd") => return fit_serial(args, &data, k, kernel, update, bounds),
        Some(algo) => return Err(format!("--algo must be hier|lloyd, got `{algo}`")),
    }
    let level = match parse_level(args)? {
        Some(level) => level,
        None => choose_level(n, k, data.cols(), 1),
    };
    println!(
        "fitting {dataset}: n={} d={} k={k} with {level} ({units} units, groups of {group}, \
         {kernel} kernel, {update} update, {merge} merge, {bounds} bounds)",
        data.rows(),
        data.cols()
    );
    if kernel == kmeans_core::AssignKernel::Gemm && level != Level::L1 {
        // Advisory only: layout changes wall time, never results, so the
        // requested geometry is honoured as-is.
        let recommended = gemm_group_units(k, data.cols(), group, std::mem::size_of::<f64>());
        if recommended != group {
            println!(
                "gemm layout: cost model recommends {recommended} unit(s) per centroid group \
                 for k={k} d={} (requested {group})",
                data.cols()
            );
        }
    }
    let init = init_centroids(
        &data,
        k,
        InitMethod::KMeansPlusPlus,
        args.get_or("seed", 0u64)?,
    );
    let mut fitter = HierKMeans::new(level)
        .with_units(units)
        .with_group_units(if level == Level::L1 { 1 } else { group })
        .with_cpes_per_cg(8)
        .with_max_iters(args.get_or("max-iters", 100usize)?)
        .with_kernel(kernel)
        .with_update(update)
        .with_merge(merge)
        .with_bounds(bounds);
    if let Some(plan) = parse_fault_plan(args)? {
        fitter = fitter.with_faults(plan);
    }
    let trace_buf = parse_trace_buffer(args)?;
    if let Some(buf) = &trace_buf {
        fitter = fitter.with_trace(std::sync::Arc::clone(buf));
    }
    let result = fitter.fit(&data, init).map_err(|e| e.to_string())?;
    println!(
        "done: {} iterations (converged = {}), objective {:.5}",
        result.iterations, result.converged, result.objective
    );
    if let Some(rate) = result.assign_samples_per_s() {
        println!("assign kernel {}: {rate:.0} samples/s", result.kernel);
    }
    let sizes = kmeans_core::objective::cluster_sizes(&result.labels, k);
    println!("cluster sizes: {sizes:?}");
    println!(
        "communication: {} messages, {:.2} MB",
        result.comm_messages,
        result.comm_bytes as f64 / 1e6
    );
    println!(
        "phases: assign {:.4}s, merge {:.4}s, update {:.4}s, exchange {:.4}s \
         over {} iterations (assign imbalance {:.2}×)",
        result.timings.assign,
        result.timings.merge,
        result.timings.update,
        result.timings.exchange,
        result.trace.iterations(),
        result.trace.assign_imbalance()
    );
    if result.fault_stats.injected_total() > 0 || result.degraded_iterations > 0 {
        println!(
            "faults: {} injected, {} comm retries, {} degraded iteration(s) — recovered",
            result.fault_stats.injected_total(),
            result.fault_stats.retries(),
            result.degraded_iterations
        );
    }
    if result.bounds_mode != kmeans_core::BoundsMode::None {
        println!(
            "bounds {}: {:.1}% of distance work pruned ({} evals vs {} Lloyd-equivalent, \
             {} seed scan(s), {} reset(s))",
            result.bounds_mode,
            result.bounds.savings() * 100.0,
            result.bounds.distance_evals,
            result.bounds.lloyd_equivalent,
            result.bounds.seed_scans,
            result.bounds.resets
        );
    }
    let registry = swkm_obs::MetricsRegistry::shared();
    result.export_metrics(&registry);
    // `--store <dir>` publishes the fitted centroids as the next live
    // generation of `--model-name` (default: the dataset name), so a
    // serving process can hot-swap to it.
    if let Some(dir) = args.get_str("store") {
        let name = args.get_str("model-name").unwrap_or(dataset);
        let vfs = swkm_store::StdVfs::open(dir).map_err(|e| format!("--store {dir}: {e}"))?;
        let mut store =
            swkm_store::ModelStore::open_with_registry(vfs, Some(std::sync::Arc::clone(&registry)))
                .map_err(|e| format!("--store {dir}: {e}"))?;
        let artifact = swkm_serve::ModelArtifact::new(
            data.rows() as u64,
            result.centroids.clone(),
            result.iterations as u64,
            result.objective,
            result.converged,
            None,
        );
        let generation = store.publish(name, &artifact).map_err(|e| e.to_string())?;
        println!("published {name}@g{generation} to store {dir}");
    }
    write_metrics_outputs(args, &registry)?;
    write_trace_output(args, trace_buf.as_ref())?;
    Ok(())
}

/// `fit --algo lloyd`: the serial exact algorithm on the same
/// dataset/seed/init as the hierarchical path. With `--bounds
/// hamerly|yinyang` it is the serial triangle-inequality baseline the
/// distributed pruning is measured against; the filter counters land in
/// the metrics registry (`accel_*` gauges) next to `train_objective` and
/// `train_label_checksum`, so runs can be compared from metrics dumps
/// alone.
fn fit_serial(
    args: &Args,
    data: &kmeans_core::Matrix<f32>,
    k: usize,
    kernel: kmeans_core::AssignKernel,
    update: kmeans_core::UpdateMode,
    bounds: kmeans_core::BoundsMode,
) -> Result<(), String> {
    let config = kmeans_core::KMeansConfig::new(k)
        .with_seed(args.get_or("seed", 0u64)?)
        .with_max_iters(args.get_or("max-iters", 100usize)?)
        .with_init(InitMethod::KMeansPlusPlus)
        .with_kernel(kernel)
        .with_update(update)
        .with_bounds(bounds);
    let init = init_centroids(data, k, config.init, config.seed);
    println!(
        "fitting serial lloyd: n={} d={} k={k} ({kernel} kernel, {update} update, \
         {bounds} bounds)",
        data.rows(),
        data.cols()
    );
    let registry = swkm_obs::MetricsRegistry::shared();
    let fit = kmeans_core::Lloyd::run_from(data, init, &config).map_err(|e| e.to_string())?;
    let s = fit.bounds;
    let (evals, lloyd_equivalent, savings) = (s.distance_evals, s.lloyd_equivalent, s.savings());
    println!(
        "done: {} iterations (converged = {}), objective {:.5}",
        fit.iterations, fit.converged, fit.objective
    );
    if lloyd_equivalent > 0 {
        println!(
            "distance work: {evals} evals vs {lloyd_equivalent} Lloyd-equivalent \
             ({:.1}% saved)",
            savings * 100.0
        );
    }
    let sizes = kmeans_core::objective::cluster_sizes(&fit.labels, k);
    println!("cluster sizes: {sizes:?}");
    registry.gauge_set("train_algo", 1.0);
    registry.gauge_set("train_objective", fit.objective);
    registry.gauge_set("train_converged", if fit.converged { 1.0 } else { 0.0 });
    registry.gauge_set("train_iterations", fit.iterations as f64);
    registry.gauge_set("accel_distance_evals", evals as f64);
    registry.gauge_set("accel_lloyd_equivalent", lloyd_equivalent as f64);
    registry.gauge_set("accel_savings", savings);
    registry.gauge_set(
        "train_label_checksum",
        hier_kmeans::label_checksum(&fit.labels) as f64,
    );
    write_metrics_outputs(args, &registry)
}

/// The Fig. 10 pipeline at a chosen scene size.
fn cmd_landcover(args: &Args) -> Result<(), String> {
    let size: usize = args.get_or("size", 192)?;
    let out = args
        .get_str("out")
        .unwrap_or("target/landcover-cli")
        .to_string();
    let scene = datasets::SyntheticScene::generate(datasets::SceneConfig {
        width: size,
        height: size,
        sites_per_class: (size / 64).max(2),
        seed: args.get_or("seed", 2018u64)?,
    });
    let features = scene.block_features(3);
    let init = init_centroids(&features, 7, InitMethod::KMeansPlusPlus, 42);
    let result = HierKMeans::new(Level::L3)
        .with_units(8)
        .with_group_units(2)
        .with_cpes_per_cg(4)
        .with_max_iters(30)
        .with_tol(1e-6)
        .fit(&features, init)
        .map_err(|e| e.to_string())?;
    let accuracy = scene.clustering_accuracy(&result.labels, 7);
    println!(
        "{size}×{size} scene: {} iterations, {:.1}% class recovery",
        result.iterations,
        accuracy * 100.0
    );
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    for (name, img) in [
        ("satellite.ppm", scene.satellite()),
        ("truth.ppm", scene.truth_mask()),
        ("clusters.ppm", scene.label_mask(&result.labels)),
    ] {
        let path = format!("{out}/{name}");
        img.save_ppm(&path).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn plan_and_model_commands_run() {
        run(&argv("plan --n 1265723 --k 2000 --d 4096 --nodes 128")).unwrap();
        run(&argv("model --n 1265723 --k 2000 --d 4096 --nodes 128")).unwrap();
        run(&argv(
            "model --n 1265723 --k 2000 --d 4096 --nodes 128 --level 3",
        ))
        .unwrap();
    }

    #[test]
    fn sweep_command_runs() {
        run(&argv(
            "sweep --n 1265723 --k 2000 --d-lo 512 --d-hi 1536 --step 512",
        ))
        .unwrap();
        assert!(run(&argv("sweep --n 1 --k 1 --d-lo 10 --d-hi 5")).is_err());
    }

    #[test]
    fn fit_command_runs_each_dataset() {
        run(&argv(
            "fit --dataset mixture --n 256 --k 4 --d 8 --max-iters 5",
        ))
        .unwrap();
        run(&argv(
            "fit --dataset kegg --n 256 --k 4 --max-iters 3 --level 2",
        ))
        .unwrap();
        assert!(run(&argv("fit --dataset nope --k 3")).is_err());
    }

    #[test]
    fn fit_accepts_every_kernel_and_rejects_unknown_ones() {
        for kernel in ["scalar", "gemm", "exact", "tiled"] {
            run(&argv(&format!(
                "fit --dataset mixture --n 128 --k 3 --d 8 --max-iters 3 --kernel {kernel}"
            )))
            .unwrap();
        }
        for kernel in ["warp-drive", "expanded", "norm-trick"] {
            let err = run(&argv(&format!(
                "fit --dataset mixture --n 128 --k 3 --d 8 --kernel {kernel}"
            )))
            .unwrap_err();
            assert!(err.contains("scalar|gemm"), "{kernel}: {err}");
        }
    }

    #[test]
    fn fit_accepts_every_update_mode_and_merge_strategy() {
        for update in ["twopass", "fused", "delta"] {
            run(&argv(&format!(
                "fit --dataset mixture --n 128 --k 3 --d 8 --max-iters 3 --update {update}"
            )))
            .unwrap();
        }
        for merge in ["auto", "tree", "ring"] {
            run(&argv(&format!(
                "fit --dataset mixture --n 128 --k 3 --d 8 --max-iters 3 --merge {merge}"
            )))
            .unwrap();
        }
        let err = run(&argv(
            "fit --dataset mixture --n 128 --k 3 --d 8 --update sideways",
        ))
        .unwrap_err();
        assert!(err.contains("sideways"), "{err}");
        let err = run(&argv(
            "fit --dataset mixture --n 128 --k 3 --d 8 --merge mesh",
        ))
        .unwrap_err();
        assert!(err.contains("mesh"), "{err}");
        // The incompatible combination surfaces the executor's rejection.
        let err = run(&argv(
            "fit --dataset mixture --n 128 --k 3 --d 8 --update delta --merge ring",
        ))
        .unwrap_err();
        assert!(err.contains("incompatible"), "{err}");
    }

    #[test]
    fn fit_accepts_every_bounds_mode_and_rejects_unknown_ones() {
        for bounds in ["none", "hamerly", "yinyang", "auto"] {
            run(&argv(&format!(
                "fit --dataset mixture --n 192 --k 4 --d 8 --max-iters 5 --bounds {bounds}"
            )))
            .unwrap();
        }
        let err = run(&argv(
            "fit --dataset mixture --n 128 --k 3 --d 8 --bounds elastic",
        ))
        .unwrap_err();
        assert!(err.contains("elastic"), "{err}");
    }

    #[test]
    fn fit_bounds_runs_are_bit_identical_and_export_bounds_gauges() {
        let gauges = |bounds: &str, tag: &str| -> (f64, f64) {
            let json = std::env::temp_dir().join(format!("swkm_fit_bounds_{tag}.json"));
            run(&argv(&format!(
                "fit --dataset mixture --n 400 --k 8 --d 6 --max-iters 40 --level 2 \
                 --units 4 --group 2 --kernel gemm --bounds {bounds} --metrics-json {}",
                json.display()
            )))
            .unwrap();
            let doc = std::fs::read_to_string(&json).unwrap();
            std::fs::remove_file(&json).ok();
            let pick = |key: &str| -> f64 {
                let at = doc.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
                doc[at..][..doc[at..].find([',', '}']).unwrap()]
                    .parse()
                    .unwrap()
            };
            (pick("train_label_checksum"), pick("train_objective"))
        };
        let (base_sum, base_obj) = gauges("none", "none");
        for bounds in ["hamerly", "yinyang", "auto"] {
            let (sum, obj) = gauges(bounds, bounds);
            assert_eq!(sum, base_sum, "{bounds}: labels diverged from unbounded");
            assert_eq!(obj.to_bits(), base_obj.to_bits(), "{bounds}: objective");
        }
    }

    #[test]
    fn fit_algo_serial_baselines_run_and_export_filter_gauges() {
        let json = std::env::temp_dir().join("swkm_fit_algo_test.json");
        let mut checksums = Vec::new();
        for bounds in ["none", "yinyang"] {
            run(&argv(&format!(
                "fit --dataset mixture --n 256 --k 12 --d 8 --max-iters 30 --algo lloyd \
                 --bounds {bounds} --metrics-json {}",
                json.display()
            )))
            .unwrap();
            let doc = std::fs::read_to_string(&json).unwrap();
            for key in [
                "train_algo",
                "train_objective",
                "train_label_checksum",
                "accel_distance_evals",
                "accel_lloyd_equivalent",
                "accel_savings",
            ] {
                assert!(doc.contains(key), "{bounds}: metrics JSON missing `{key}`");
            }
            let at = doc.find("\"train_label_checksum\":").unwrap() + 23;
            checksums.push(doc[at..][..doc[at..].find([',', '}']).unwrap()].to_string());
        }
        std::fs::remove_file(&json).ok();
        // The bounded serial run is exact: same init, same labels.
        assert_eq!(
            checksums[0], checksums[1],
            "yinyang bounds diverged from lloyd"
        );
        for algo in ["warp", "elkan", "yinyang"] {
            let err = run(&argv(&format!(
                "fit --dataset mixture --n 64 --k 2 --d 4 --algo {algo}"
            )))
            .unwrap_err();
            assert!(err.contains(algo) && err.contains("hier|lloyd"), "{err}");
        }
    }

    #[test]
    fn fit_exports_update_mode_and_moved_fraction_gauges() {
        let json = std::env::temp_dir().join("swkm_fit_update_gauges_test.json");
        run(&argv(&format!(
            "fit --dataset mixture --n 192 --k 3 --d 6 --max-iters 50 --level 2 \
             --units 4 --group 2 --update delta --metrics-json {}",
            json.display()
        )))
        .unwrap();
        let doc = std::fs::read_to_string(&json).unwrap();
        assert!(doc.contains("\"train_update_mode\":2.0"), "{doc}");
        assert!(doc.contains("\"train_moved_fraction\":0.0"), "{doc}");
        assert!(doc.contains("\"train_merge_ring\":0.0"), "{doc}");
        std::fs::remove_file(&json).ok();
    }

    #[test]
    fn fit_exports_kernel_and_throughput_gauges() {
        let json = std::env::temp_dir().join("swkm_fit_kernel_gauges_test.json");
        run(&argv(&format!(
            "fit --dataset mixture --n 192 --k 3 --d 6 --max-iters 4 --level 2 \
             --units 4 --group 2 --kernel gemm --metrics-json {}",
            json.display()
        )))
        .unwrap();
        let doc = std::fs::read_to_string(&json).unwrap();
        assert!(
            doc.contains("\"train_assign_kernel\":3.0"),
            "gemm gauge missing: {doc}"
        );
        assert!(
            doc.contains("train_assign_samples_per_s"),
            "throughput gauge missing: {doc}"
        );
        std::fs::remove_file(&json).ok();
    }

    #[test]
    fn fit_writes_metrics_exports() {
        let json = std::env::temp_dir().join("swkm_fit_metrics_test.json");
        let prom = std::env::temp_dir().join("swkm_fit_metrics_test.prom");
        run(&argv(&format!(
            "fit --dataset mixture --n 192 --k 3 --d 6 --max-iters 4 --level 3 \
             --units 4 --group 2 --metrics-json {} --metrics-prom {}",
            json.display(),
            prom.display()
        )))
        .unwrap();
        let doc = std::fs::read_to_string(&json).unwrap();
        for key in [
            "train_assign_ns",
            "train_merge_ns",
            "train_update_ns",
            "train_exchange_ns",
            "train_iter_wall_ns",
            "comm_total_bytes",
            "train_objective",
        ] {
            assert!(doc.contains(key), "metrics JSON missing `{key}`: {doc}");
        }
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("# TYPE train_assign_ns histogram"));
        std::fs::remove_file(&json).ok();
        std::fs::remove_file(&prom).ok();
    }

    #[test]
    fn fit_with_faults_recovers_and_exports_fault_counters() {
        let json = std::env::temp_dir().join("swkm_fit_faults_test.json");
        run(&argv(&format!(
            "fit --dataset mixture --n 192 --k 3 --d 6 --max-iters 5 --level 2 \
             --units 4 --group 2 --faults seed=7,rate=0.25 --metrics-json {}",
            json.display()
        )))
        .unwrap();
        let doc = std::fs::read_to_string(&json).unwrap();
        for key in [
            "fault_injected_total",
            "comm_retries_total",
            "degraded_iterations",
        ] {
            assert!(doc.contains(key), "metrics JSON missing `{key}`: {doc}");
        }
        std::fs::remove_file(&json).ok();
        // A malformed spec is a CLI error, not a panic.
        let err = run(&argv(
            "fit --dataset mixture --n 64 --k 2 --d 4 --faults warp=1",
        ))
        .unwrap_err();
        assert!(err.contains("--faults"), "{err}");
    }

    #[test]
    fn serve_bench_with_shard_kill_degrades_not_drops() {
        let json = std::env::temp_dir().join("swkm_serve_bench_faults_test.json");
        run(&argv(&format!(
            "serve-bench --k 4 --n 256 --d 8 --clients 2 --requests 300 --max-iters 3 \
             --shards 4 --faults kill-shards=0,kill-after-ms=5 --metrics-json {}",
            json.display()
        )))
        .unwrap();
        let doc = std::fs::read_to_string(&json).unwrap();
        assert!(doc.contains("shard_failovers"), "{doc}");
        std::fs::remove_file(&json).ok();
    }

    #[test]
    fn fit_trace_out_writes_chrome_json_with_train_and_comm_tracks() {
        let out = std::env::temp_dir().join("swkm_fit_trace_test.json");
        run(&argv(&format!(
            "fit --dataset mixture --n 192 --k 3 --d 6 --max-iters 4 --level 3 \
             --units 4 --group 2 --trace-out {}",
            out.display()
        )))
        .unwrap();
        let doc = std::fs::read_to_string(&out).unwrap();
        assert!(doc.contains("\"traceEvents\":["), "not a Chrome trace");
        for name in [
            "\"assign\"",
            "\"iteration\"",
            "\"exchange\"",
            "\"train\"",
            "\"comm\"",
        ] {
            assert!(doc.contains(name), "trace missing {name}");
        }
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn serve_bench_trace_records_requests_and_flight_dumps_on_shard_kill() {
        let dir = std::env::temp_dir().join("swkm_serve_trace_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let prom = dir.join("bench.prom");
        run(&argv(&format!(
            "serve-bench --k 4 --n 256 --d 8 --clients 2 --requests 300 --max-iters 3 \
             --shards 4 --faults kill-shards=0,kill-after-ms=5 \
             --trace-out {} --trace-sample 2 --metrics-prom {}",
            trace.display(),
            prom.display()
        )))
        .unwrap();
        let doc = std::fs::read_to_string(&trace).unwrap();
        assert!(doc.contains("\"traceEvents\":["), "not a Chrome trace");
        for name in [
            "\"request\"",
            "\"queue_wait\"",
            "\"execute\"",
            "\"assign_shard\"",
        ] {
            assert!(doc.contains(name), "trace missing {name}");
        }
        // The shard kill trips the flight recorder; dumps land beside the
        // trace file through the store's atomic-write VFS.
        let dumps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("flight-") && n.contains("shard_failover"))
            .collect();
        assert!(!dumps.is_empty(), "no flight dumps in {}", dir.display());
        // Sampled requests leave Prometheus exemplars appended after the
        // registry document.
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("serve_latency_exemplar{trace_id="), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_flag_errors_are_cli_errors() {
        assert!(run(&argv(
            "fit --dataset mixture --n 64 --k 2 --d 4 --max-iters 2 --trace-out t.json --trace-cap 0"
        ))
        .is_err());
        assert!(run(&argv(
            "fit --dataset mixture --n 64 --k 2 --d 4 --max-iters 2 \
             --trace-out /nonexistent-dir/trace.json"
        ))
        .is_err());
    }

    #[test]
    fn metrics_json_to_unwritable_path_is_a_cli_error() {
        assert!(run(&argv(
            "fit --dataset mixture --n 64 --k 2 --d 4 --max-iters 2 \
             --metrics-json /nonexistent-dir/metrics.json"
        ))
        .is_err());
    }

    #[test]
    fn landcover_command_runs() {
        let out = std::env::temp_dir().join("swkm_landcover_test");
        run(&argv(&format!(
            "landcover --size 64 --out {}",
            out.display()
        )))
        .unwrap();
        assert!(out.join("clusters.ppm").exists());
    }

    #[test]
    fn train_predict_serve_bench_round_trip() {
        let model = std::env::temp_dir().join("swkm_cli_model_test.swkm");
        let model = model.display().to_string();
        run(&argv(&format!(
            "train --dataset mixture --n 256 --k 4 --d 8 --max-iters 5 --standardize \
             --save-model {model}"
        )))
        .unwrap();
        run(&argv(&format!(
            "predict --model {model} --n 128 --d 8 --shards 3"
        )))
        .unwrap();
        run(&argv(&format!(
            "predict --model {model} --n 128 --d 8 --kernel gemm"
        )))
        .unwrap();
        let err = run(&argv(&format!(
            "predict --model {model} --n 128 --d 8 --kernel norm-trick"
        )))
        .unwrap_err();
        assert!(err.contains("scalar|gemm"), "{err}");
        run(&argv(&format!(
            "serve-bench --model {model} --n 128 --d 8 --clients 2 --requests 50"
        )))
        .unwrap();
        std::fs::remove_file(&model).ok();
    }

    #[test]
    fn serve_bench_trains_in_process_without_model() {
        run(&argv(
            "serve-bench --k 4 --n 128 --d 8 --clients 2 --requests 25 --max-iters 3",
        ))
        .unwrap();
    }

    #[test]
    fn serve_bench_ramp_elastic_writes_conserving_phase_report() {
        let dir = std::env::temp_dir().join("swkm_serve_ramp_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ramp_json = dir.join("ramp.json");
        let metrics_json = dir.join("metrics.json");
        run(&argv(&format!(
            "serve-bench --k 32 --n 512 --d 32 --clients 1 --requests 40 --max-iters 3 \
             --batch 8 --linger-us 50 --ramp --ramp-peak 8 --ramp-steps 3 \
             --elastic --min-shards 1 --max-shards 4 --shard-queue 1 --tick-us 1000 \
             --ramp-json {} --metrics-json {}",
            ramp_json.display(),
            metrics_json.display()
        )))
        .unwrap();
        let doc = std::fs::read_to_string(&ramp_json).unwrap();
        assert!(doc.contains("\"conserved\": true"), "{doc}");
        // 3 steps up, 2 mirrored down.
        assert_eq!(doc.matches("\"p99_ns\"").count(), 5, "{doc}");
        let metrics = std::fs::read_to_string(&metrics_json).unwrap();
        for key in [
            "serve_shards_active_peak",
            "serve_shards_active_low",
            "serve_steal_total",
            "serve_stranded_requests",
        ] {
            assert!(metrics.contains(key), "metrics JSON missing `{key}`");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_bench_slo_flag_arms_admission_metrics() {
        let json = std::env::temp_dir().join("swkm_serve_slo_test.json");
        run(&argv(&format!(
            "serve-bench --k 4 --n 128 --d 8 --clients 2 --requests 50 --max-iters 3 \
             --slo-p99-us 500000 --metrics-json {}",
            json.display()
        )))
        .unwrap();
        let doc = std::fs::read_to_string(&json).unwrap();
        // A half-second objective is never violated by this tiny model, but
        // the gate and its gauges must be armed and exported.
        for key in ["serve_admission_shed", "serve_predicted_p99_ns"] {
            assert!(doc.contains(key), "metrics JSON missing `{key}`: {doc}");
        }
        std::fs::remove_file(&json).ok();
    }

    #[test]
    fn serve_bench_ramp_and_elastic_flag_errors() {
        assert!(run(&argv(
            "serve-bench --k 2 --n 32 --d 4 --ramp --ramp-steps 0"
        ))
        .is_err());
        assert!(run(&argv(
            "serve-bench --k 2 --n 32 --d 4 --clients 8 --ramp --ramp-peak 2"
        ))
        .is_err());
        assert!(run(&argv(
            "serve-bench --k 2 --n 32 --d 4 --elastic --min-shards 4 --max-shards 2"
        ))
        .is_err());
        assert!(run(&argv("serve-bench --k 2 --n 32 --d 4 --shard-queue 0")).is_err());
        assert!(run(&argv("serve-bench --k 2 --n 32 --d 4 --tick-us 0")).is_err());
    }

    #[test]
    fn serve_bench_periodic_reporting_and_metrics_export() {
        let json = std::env::temp_dir().join("swkm_serve_bench_metrics_test.json");
        run(&argv(&format!(
            "serve-bench --k 4 --n 256 --d 8 --clients 2 --requests 400 --max-iters 3 \
             --metrics-interval 0.05 --metrics-json {}",
            json.display()
        )))
        .unwrap();
        let doc = std::fs::read_to_string(&json).unwrap();
        for key in ["serve_accepted", "serve_completed", "serve_total_ns"] {
            assert!(doc.contains(key), "metrics JSON missing `{key}`: {doc}");
        }
        std::fs::remove_file(&json).ok();
    }

    #[test]
    fn serve_command_arg_errors() {
        assert!(run(&argv("train --k 4")).is_err()); // no --save-model
        assert!(run(&argv("predict --n 16")).is_err()); // no --model

        // Degenerate pipeline knobs are CLI errors, not worker panics:
        assert!(run(&argv("serve-bench --k 2 --n 32 --d 4 --queue 0")).is_err());
        assert!(run(&argv("serve-bench --k 2 --n 32 --d 4 --clients 0")).is_err());
        assert!(run(&argv("predict --model /nonexistent/model.swkm")).is_err());
        let model = std::env::temp_dir().join("swkm_cli_kernel_err.swkm");
        let model = model.display().to_string();
        run(&argv(&format!(
            "train --dataset mixture --n 64 --k 2 --d 4 --max-iters 2 --save-model {model}"
        )))
        .unwrap();
        assert!(run(&argv(&format!(
            "predict --model {model} --d 4 --kernel warp-drive"
        )))
        .is_err());
        // Query d mismatching the model's d is a typed CLI error.
        assert!(run(&argv(&format!("predict --model {model} --d 9"))).is_err());
        std::fs::remove_file(&model).ok();
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&argv("frobnicate")).is_err());
        assert!(run(&argv("model --n 10")).is_err());
        assert!(run(&argv("model --n 10 --k 2 --d 4 --level 9")).is_err());
    }

    fn store_dir(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("swkm_cli_store_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.display().to_string()
    }

    #[test]
    fn store_put_list_promote_gc_round_trip() {
        let dir = store_dir("roundtrip");
        run(&argv(&format!(
            "store put --dir {dir} --model-name demo --k 3 --n 96 --d 6 --max-iters 2"
        )))
        .unwrap();
        run(&argv(&format!(
            "store put --dir {dir} --model-name demo --k 3 --n 96 --d 6 --max-iters 2 --seed 5"
        )))
        .unwrap();
        run(&argv(&format!("store list --dir {dir}"))).unwrap();
        // Roll back to g1, gc keeps only the live generation's file.
        run(&argv(&format!(
            "store promote --dir {dir} --model-name demo --generation 1"
        )))
        .unwrap();
        run(&argv(&format!("store gc --dir {dir}"))).unwrap();
        run(&argv(&format!(
            "predict --store {dir} --model-name demo --n 32 --d 6"
        )))
        .unwrap();
        run(&argv(&format!(
            "store delete --dir {dir} --model-name demo"
        )))
        .unwrap();
        std::fs::remove_dir_all(std::path::Path::new(&dir)).ok();
    }

    #[test]
    fn store_verb_errors_are_cli_errors() {
        let dir = store_dir("errors");
        assert!(run(&argv("store list")).is_err()); // no --dir
        assert!(run(&argv(&format!("store warp --dir {dir}"))).is_err());
        assert!(run(&argv(&format!("store put --dir {dir} --model-name x"))).is_err()); // no --k
        assert!(run(&argv(&format!(
            "store promote --dir {dir} --model-name ghost --generation 1"
        )))
        .is_err());
        assert!(run(&argv(&format!(
            "predict --store {dir} --model-name ghost --d 4"
        )))
        .is_err());
        std::fs::remove_dir_all(std::path::Path::new(&dir)).ok();
    }

    #[test]
    fn fit_store_publish_feeds_predict_and_serve_bench() {
        let dir = store_dir("fit");
        run(&argv(&format!(
            "fit --dataset mixture --n 128 --k 3 --d 8 --max-iters 3 --store {dir} --model-name mix"
        )))
        .unwrap();
        run(&argv(&format!(
            "predict --store {dir} --model-name mix --n 64 --d 8"
        )))
        .unwrap();
        run(&argv(&format!(
            "serve-bench --store {dir} --model-name mix --n 64 --d 8 --clients 2 --requests 25"
        )))
        .unwrap();
        std::fs::remove_dir_all(std::path::Path::new(&dir)).ok();
    }

    #[test]
    fn serve_bench_model_churn_swaps_without_losing_requests() {
        let dir = store_dir("churn");
        let json = std::env::temp_dir().join("swkm_serve_bench_churn_test.json");
        run(&argv(&format!(
            "serve-bench --k 4 --n 256 --d 8 --clients 2 --requests 300 --max-iters 3 \
             --store {dir} --model-churn 3 --churn-every-ms 5 --metrics-json {}",
            json.display()
        )))
        .unwrap();
        let doc = std::fs::read_to_string(&json).unwrap();
        assert!(doc.contains("\"serve_model_swaps\":3"), "{doc}");
        assert!(doc.contains("\"serve_failed\":0"), "{doc}");
        assert!(doc.contains("\"store_put_total\":4"), "{doc}"); // seed + 3 churn
                                                                 // Cold restart: the churned generations survive on disk.
        run(&argv(&format!(
            "predict --store {dir} --model-name bench --n 64 --d 8"
        )))
        .unwrap();
        std::fs::remove_file(&json).ok();
        std::fs::remove_dir_all(std::path::Path::new(&dir)).ok();
    }
}
