//! The serving-side subcommands: `train` (fit + freeze an artifact),
//! `predict` (load an artifact, label a batch) and `serve-bench` (closed-
//! loop load test of the request pipeline).

use crate::args::Args;
use crate::parse_assign_kernel;
use kmeans_core::{ColumnStats, InitMethod, KMeansConfig, Lloyd, Matrix};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use swkm_serve::prelude::*;

/// The CLI works in `f32` end to end (the paper's serving precision).
type Elem = f32;

/// What a `serve-bench` run produced: one closed-loop report, or the
/// per-phase reports of a `--ramp` run.
enum BenchOutcome {
    Single(LoadReport),
    Ramp(RampReport),
}

/// Generate the query/training matrix for a named dataset — the same
/// catalogue `fit` uses.
fn dataset_matrix(args: &Args, k: usize) -> Result<Matrix<Elem>, String> {
    let dataset = args.get_str("dataset").unwrap_or("mixture");
    let n: usize = args.get_or("n", 4_096)?;
    Ok(match dataset {
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
    })
}

/// Train with the serial Lloyd reference and freeze the model to disk.
pub fn cmd_train(args: &Args) -> Result<(), String> {
    let k: usize = args.require("k")?;
    let path = args
        .get_str("save-model")
        .ok_or("train needs --save-model <path>")?
        .to_string();
    let mut data = dataset_matrix(args, k)?;
    let standardize = args.get_str("standardize").is_some();
    let stats = if standardize {
        let stats = ColumnStats::compute(&data);
        stats.standardize(&mut data);
        Some(stats)
    } else {
        None
    };
    let config = KMeansConfig::new(k)
        .with_seed(args.get_or("seed", 0u64)?)
        .with_max_iters(args.get_or("max-iters", 100usize)?)
        .with_init(InitMethod::KMeansPlusPlus);
    let fit = Lloyd::run(&data, &config).map_err(|e| e.to_string())?;
    println!(
        "trained k={k} on n={} d={}: {} iterations (converged = {}), objective {:.5}",
        data.rows(),
        data.cols(),
        fit.iterations,
        fit.converged,
        fit.objective
    );
    let artifact = ModelArtifact::new(
        data.rows() as u64,
        fit.centroids,
        fit.iterations as u64,
        fit.objective,
        fit.converged,
        stats,
    );
    artifact.save(&path).map_err(|e| e.to_string())?;
    println!(
        "wrote {path} ({} bytes, format v{})",
        artifact.to_bytes().len(),
        swkm_serve::FORMAT_VERSION
    );
    Ok(())
}

/// Load a model artifact — from a flat file (`--model <path>`) or from a
/// model store's live generation (`--store <dir> --model-name <name>`) —
/// and label a batch of samples with the sharded index, printing the label
/// distribution.
pub fn cmd_predict(args: &Args) -> Result<(), String> {
    let artifact = match (args.get_str("model"), args.get_str("store")) {
        (Some(path), _) => ModelArtifact::<Elem>::load(path).map_err(|e| e.to_string())?,
        (None, Some(dir)) => {
            let name = args
                .get_str("model-name")
                .ok_or("predict --store needs --model-name <name>")?;
            let vfs = swkm_store::StdVfs::open(dir).map_err(|e| format!("--store {dir}: {e}"))?;
            let store =
                swkm_store::ModelStore::open(vfs).map_err(|e| format!("--store {dir}: {e}"))?;
            let (generation, artifact) =
                store.load_live::<Elem>(name).map_err(|e| e.to_string())?;
            println!("loaded {name}@g{generation} from store {dir}");
            artifact
        }
        (None, None) => return Err("predict needs --model <path> or --store <dir>".into()),
    };
    let shards: usize = args.get_or("shards", 4)?;
    let mut queries = dataset_matrix(args, artifact.meta.k)?;
    if queries.cols() != artifact.meta.d {
        return Err(format!(
            "query dimensionality {} does not match the model's d = {}",
            queries.cols(),
            artifact.meta.d
        ));
    }
    artifact.preprocess(&mut queries);
    let index =
        ShardedIndex::from_artifact(&artifact, shards).with_kernel(parse_assign_kernel(args)?);
    println!(
        "model: k={} d={} (trained on {} samples, objective {:.5}); {} shard(s), {:?} kernel",
        artifact.meta.k,
        artifact.meta.d,
        artifact.meta.trained_samples,
        artifact.meta.objective,
        index.num_shards(),
        index.kernel()
    );
    let labels = index.assign_batch(&queries);
    let sizes = kmeans_core::objective::cluster_sizes(&labels, artifact.meta.k);
    println!(
        "labelled {} queries; cluster sizes: {sizes:?}",
        labels.len()
    );
    Ok(())
}

/// Closed-loop load test: train (or load) a model, serve it through the
/// full pipeline and report QPS / latency / shed fraction.
///
/// With `--model-churn N` a publisher thread runs alongside the load:
/// every `--churn-every-ms` it trains a perturbed model generation,
/// publishes it through a model store (`--store <dir>`, or an in-memory
/// store), loads it back and hot-swaps it into the server — all N swaps
/// complete even if the load finishes first, so `serve_model_swaps` is
/// deterministic for CI.
pub fn cmd_serve_bench(args: &Args) -> Result<(), String> {
    let k: usize = args.get_or("k", 64)?;
    let model_name = args.get_str("model-name").unwrap_or("bench").to_string();
    // The store backend behind churn/--store: a real directory when
    // `--store` is given, a shared in-memory one otherwise.
    let vfs: Box<dyn swkm_store::Vfs + Send> = match args.get_str("store") {
        Some(dir) => {
            Box::new(swkm_store::StdVfs::open(dir).map_err(|e| format!("--store {dir}: {e}"))?)
        }
        None => Box::new(swkm_store::SharedMemVfs::new()),
    };
    let registry = swkm_obs::MetricsRegistry::shared();
    let mut store = swkm_store::ModelStore::open_with_registry(vfs, Some(Arc::clone(&registry)))
        .map_err(|e| e.to_string())?;
    let artifact = match args.get_str("model") {
        Some(path) => ModelArtifact::<Elem>::load(path).map_err(|e| e.to_string())?,
        None if args.get_str("store").is_some() && store.live_generation(&model_name).is_some() => {
            // Serve the store's live generation of --model-name.
            let (generation, artifact) = store
                .load_live::<Elem>(&model_name)
                .map_err(|e| e.to_string())?;
            println!("serving {model_name}@g{generation} from the store");
            artifact
        }
        None => {
            // No artifact given: fit a quick in-process model.
            let data = dataset_matrix(args, k)?;
            let config = KMeansConfig::new(k)
                .with_seed(args.get_or("seed", 0u64)?)
                .with_max_iters(args.get_or("max-iters", 10usize)?)
                .with_init(InitMethod::KMeansPlusPlus);
            let fit = Lloyd::run(&data, &config).map_err(|e| e.to_string())?;
            ModelArtifact::new(
                data.rows() as u64,
                fit.centroids,
                fit.iterations as u64,
                fit.objective,
                fit.converged,
                None,
            )
        }
    };
    let mut queries = dataset_matrix(args, artifact.meta.k)?;
    if queries.cols() != artifact.meta.d {
        return Err(format!(
            "query dimensionality {} does not match the model's d = {}",
            queries.cols(),
            artifact.meta.d
        ));
    }
    artifact.preprocess(&mut queries);

    let shards: usize = args.get_or("shards", 4)?;
    let pipeline = PipelineConfig {
        queue_capacity: args.get_or("queue", 1024usize)?,
        workers: args.get_or("workers", 2usize)?,
        max_batch: args.get_or("batch", 64usize)?,
        linger: Duration::from_micros(args.get_or("linger-us", 200u64)?),
    };
    if pipeline.queue_capacity == 0 || pipeline.workers == 0 || pipeline.max_batch == 0 {
        return Err("--queue, --workers and --batch must all be positive".into());
    }
    let load = LoadGenConfig {
        clients: args.get_or("clients", 4usize)?,
        requests_per_client: args.get_or("requests", 2_500usize)?,
    };
    if load.clients == 0 {
        return Err("--clients must be positive".into());
    }
    // Event-core knobs: `--elastic` scales the worker pool between
    // `--min-shards` and `--max-shards`; `--slo-p99-us` arms SLO-aware
    // admission control; `--ramp` drives a base→peak→base client ramp.
    let elastic = args.get_str("elastic").is_some();
    let min_shards: usize = args.get_or("min-shards", 1usize)?;
    let max_shards: usize = args.get_or("max-shards", pipeline.workers.max(min_shards))?;
    if elastic && (min_shards == 0 || min_shards > max_shards) {
        return Err("--elastic needs 0 < --min-shards <= --max-shards".into());
    }
    let slo_p99_us: u64 = args.get_or("slo-p99-us", 0u64)?;
    let dispatch = DispatchConfig {
        queue_capacity: pipeline.queue_capacity,
        max_batch: pipeline.max_batch,
        linger: pipeline.linger,
        shards: if elastic {
            ElasticConfig::elastic(min_shards, max_shards)
        } else {
            ElasticConfig::fixed(pipeline.workers)
        },
        shard_queue: args.get_or("shard-queue", 4usize)?,
        tick: Duration::from_micros(args.get_or("tick-us", 2_000u64)?),
        admission: if slo_p99_us > 0 {
            Some(AdmissionConfig::with_slo_p99_ns(slo_p99_us * 1_000))
        } else {
            None
        },
    };
    if dispatch.shard_queue == 0 || dispatch.tick.is_zero() {
        return Err("--shard-queue and --tick-us must be positive".into());
    }
    let ramp = args
        .get_str("ramp")
        .is_some()
        .then(|| -> Result<_, String> {
            Ok(RampConfig {
                base_clients: load.clients,
                peak_clients: args.get_or("ramp-peak", load.clients * 10)?,
                steps_up: args.get_or("ramp-steps", 4usize)?,
                requests_per_client: load.requests_per_client,
            })
        });
    let ramp = ramp.transpose()?;
    if let Some(r) = &ramp {
        if r.steps_up == 0 || r.peak_clients < r.base_clients {
            return Err("--ramp needs --ramp-steps > 0 and --ramp-peak >= --clients".into());
        }
    }
    let worker_note = if elastic {
        format!("{min_shards}..={max_shards} elastic worker(s)")
    } else {
        format!("{} worker(s)", pipeline.workers)
    };
    println!(
        "serve-bench: k={} d={} over {} shard(s); queue {}, {}, batch ≤ {}, \
         linger {:?}; {} closed-loop client(s) × {} request(s)",
        artifact.meta.k,
        artifact.meta.d,
        shards.clamp(1, artifact.meta.k),
        pipeline.queue_capacity,
        worker_note,
        pipeline.max_batch,
        pipeline.linger,
        load.clients,
        load.requests_per_client
    );
    if let Some(r) = &ramp {
        println!(
            "ramp: {} → {} client(s) over {} step(s) (profile {:?})",
            r.base_clients,
            r.peak_clients,
            r.steps_up,
            r.profile()
        );
    }
    if slo_p99_us > 0 {
        println!("admission control: p99 objective {slo_p99_us} µs");
    }
    // `--faults kill-shards=0+2,kill-after-ms=50`: crash the listed shards
    // that long into the load run; the pipeline re-dispatches to the
    // survivors and marks replies degraded.
    let kill_plan = crate::parse_fault_plan(args)?;
    let kernel = parse_assign_kernel(args)?;
    let index = ShardedIndex::from_artifact(&artifact, shards).with_kernel(kernel);
    // `--trace-out trace.json [--trace-sample N]`: record per-request
    // pipeline spans into a bounded ring and arm a flight recorder whose
    // dumps (`flight-*.json`) land beside the trace file.
    let trace_buf = crate::parse_trace_buffer(args)?;
    let tracing = match &trace_buf {
        Some(buf) => {
            let out = args.get_str("trace-out").unwrap();
            let dir = std::path::Path::new(out)
                .parent()
                .filter(|p| !p.as_os_str().is_empty())
                .map_or_else(|| ".".to_string(), |p| p.display().to_string());
            let vfs =
                swkm_store::StdVfs::open(&dir).map_err(|e| format!("--trace-out {out}: {e}"))?;
            let recorder = swkm_obs::FlightRecorder::new(
                Arc::clone(buf),
                Box::new(swkm_store::VfsSink::new(vfs)),
                args.get_or("flight-max-dumps", 8u64)?,
                args.get_or("flight-last", 4_096usize)?,
            );
            ServeTracing::new(Arc::clone(buf), Some(Arc::new(recorder)))
        }
        None => ServeTracing::default(),
    };
    let server = Server::start_dispatch(index, dispatch, Arc::clone(&registry), tracing);

    // `--model-churn N`: publish + hot-swap N perturbed generations while
    // the load runs.
    let churn: u64 = args.get_or("model-churn", 0u64)?;
    let churn_every = Duration::from_millis(args.get_or("churn-every-ms", 20u64)?);
    if churn > 0 && store.live_generation(&model_name).is_none() {
        // Seed the store so generation numbers under churn start above the
        // generation already serving.
        store
            .publish(&model_name, &artifact)
            .map_err(|e| e.to_string())?;
    }

    // Periodic steady-state reporting: every --metrics-interval seconds
    // print the *windowed* throughput (`Snapshot::qps_since`), which is
    // not diluted by warm-up the way the since-start rate is.
    let interval_s: f64 = args.get_or("metrics-interval", 0.0f64)?;
    let stop = AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        if churn > 0 {
            let server = &server;
            let base = &artifact;
            let name = model_name.clone();
            let mut store = store;
            scope.spawn(move || {
                for round in 1..=churn {
                    // Deterministic per-round perturbation of the base
                    // centroids — swaps visibly change the model without
                    // changing its shape.
                    let mut centroids = base.centroids.clone();
                    for (i, v) in centroids.as_mut_slice().iter_mut().enumerate() {
                        *v += (round as Elem) * 1e-4 * (((i % 13) as Elem) - 6.0);
                    }
                    let next = ModelArtifact::new(
                        base.meta.trained_samples,
                        centroids,
                        base.meta.iterations,
                        base.meta.objective,
                        base.meta.converged,
                        base.stats.clone(),
                    );
                    // Durable first, then serve: publish to the store, load
                    // the live generation back, swap it in.
                    let swapped = store
                        .publish(&name, &next)
                        .and_then(|_| store.load_live::<Elem>(&name))
                        .map_err(|e| e.to_string())
                        .and_then(|(generation, loaded)| {
                            let index =
                                ShardedIndex::from_artifact(&loaded, shards).with_kernel(kernel);
                            server
                                .swap_model(index, generation)
                                .map(|_| generation)
                                .map_err(|e| e.to_string())
                        });
                    match swapped {
                        Ok(generation) => {
                            println!("[churn] swapped in {name}@g{generation} ({round}/{churn})")
                        }
                        Err(e) => eprintln!("[churn] round {round} failed: {e}"),
                    }
                    std::thread::sleep(churn_every);
                }
            });
        }
        if let Some(plan) = &kill_plan {
            let (victims, after) = plan.kill_schedule();
            if !victims.is_empty() {
                let stop = &stop;
                let server = &server;
                scope.spawn(move || {
                    let deadline = std::time::Instant::now() + after;
                    while std::time::Instant::now() < deadline {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    for &shard in victims {
                        if server.kill_shard(shard) {
                            println!("[faults] killed shard {shard} after {after:?}");
                        }
                    }
                });
            }
        }
        if interval_s > 0.0 {
            let stop = &stop;
            let server = &server;
            scope.spawn(move || {
                let mut prev = server.snapshot();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_secs_f64(interval_s));
                    let snap = server.snapshot();
                    println!(
                        "[{interval_s:.1}s window] {:.0} req/s \
                         ({} completed, queue depth {})",
                        snap.qps_since(&prev),
                        snap.completed,
                        snap.queue_depth
                    );
                    prev = snap;
                }
            });
        }
        let outcome = match &ramp {
            Some(r) => BenchOutcome::Ramp(run_ramp(&server, &queries, *r)),
            None => BenchOutcome::Single(run_closed_loop(&server, &queries, load)),
        };
        stop.store(true, Ordering::Relaxed);
        outcome
    });
    match &report {
        BenchOutcome::Single(single) => println!("{single}"),
        BenchOutcome::Ramp(ramp_report) => {
            println!("{ramp_report}");
            if let Some(path) = args.get_str("ramp-json") {
                std::fs::write(path, ramp_report.to_json())
                    .map_err(|e| format!("--ramp-json {path}: {e}"))?;
                println!("wrote per-phase ramp report to {path}");
            }
            if !ramp_report.conserved() {
                return Err("ramp lost requests: issued != completed + shed + failed".into());
            }
        }
    }
    // Interpolated log₂-bucket quantiles — tighter than the Snapshot's
    // bucket upper bounds, so this is the line to read for real latency.
    let q = |name: &str, q: f64| {
        registry
            .histogram(name)
            .map_or(0.0, |h| h.quantile(q) / 1e3)
    };
    println!(
        "latency (interpolated): p50 {:.1} µs, p95 {:.1} µs, p99 {:.1} µs \
         (queue-wait p95 {:.1} µs, execute p95 {:.1} µs)",
        q("serve_total_ns", 0.50),
        q("serve_total_ns", 0.95),
        q("serve_total_ns", 0.99),
        q("serve_queue_wait_ns", 0.95),
        q("serve_execute_ns", 0.95),
    );
    let exemplars = server.exemplars();
    if !exemplars.is_empty() {
        let list = exemplars
            .iter()
            .map(|&(ns, id)| format!("trace_id={id} {:.1} µs", ns as f64 / 1e3))
            .collect::<Vec<_>>()
            .join(", ");
        println!("slow-request exemplars: {list}");
    }
    let snapshot = server.shutdown();
    println!("{snapshot}");
    crate::write_metrics_outputs(args, &registry)?;
    // Exemplars ride along in the Prometheus export as a separate block so
    // the registry document itself stays byte-identical with tracing off.
    if let (Some(path), false) = (args.get_str("metrics-prom"), exemplars.is_empty()) {
        let block = swkm_obs::export::prom_exemplars("serve_latency_exemplar", &exemplars);
        let mut doc =
            std::fs::read_to_string(path).map_err(|e| format!("--metrics-prom {path}: {e}"))?;
        doc.push_str(&block);
        std::fs::write(path, doc).map_err(|e| format!("--metrics-prom {path}: {e}"))?;
        println!("appended {} exemplar(s) to {path}", exemplars.len());
    }
    crate::write_trace_output(args, trace_buf.as_ref())?;
    Ok(())
}
