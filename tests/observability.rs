//! The observability layer, checked end to end against ground truth:
//! traced phase times must account for the measured iteration wall time,
//! the communication counters must match the analytically known collective
//! volume of a fixed configuration, and training + serving must publish
//! through one registry with stable exports.

use sunway_kmeans::hier_kmeans::{fit, HierConfig, Level};
use sunway_kmeans::kmeans_core::AssignKernel;
use sunway_kmeans::msg::OpKind;
use sunway_kmeans::prelude::*;
use sunway_kmeans::swkm_obs::export::to_json;

/// The traced phases cover the whole iteration body except bookkeeping, so
/// per rank the phase sum must land within 20% of the measured wall time
/// (the ISSUE's acceptance bound) — and can never exceed it by more than
/// timer granularity.
#[test]
fn l3_phase_sums_account_for_iteration_wall_time() {
    let blobs = GaussianMixture::new(4_096, 32, 8)
        .with_seed(11)
        .generate::<f64>();
    let init = init_centroids(&blobs.data, 16, InitMethod::Forgy, 5);
    let cfg = HierConfig {
        level: Level::L3,
        units: 8,
        group_units: 2,
        cpes_per_cg: 4,
        max_iters: 4,
        tol: 0.0,
        kernel: AssignKernel::Scalar,
        ..HierConfig::new(Level::L3)
    };
    let result = fit(&blobs.data, init, &cfg).unwrap();
    assert_eq!(result.trace.ranks(), 8);
    assert_eq!(result.trace.iterations(), result.iterations);
    for r in 0..result.trace.ranks() {
        let total = result.trace.rank_total(r);
        let (sum, wall) = (total.phase_sum(), total.wall);
        assert!(wall > 0.0, "rank {r}: wall time not measured");
        assert!(
            sum >= 0.8 * wall,
            "rank {r}: phases {sum} s cover < 80% of wall {wall} s"
        );
        assert!(
            sum <= wall * 1.05,
            "rank {r}: phases {sum} s exceed wall {wall} s"
        );
    }
    // L3 traces the dimension exchange as its own phase.
    let crit: f64 = (0..result.trace.iterations())
        .map(|i| result.trace.iter_critical(i).exchange)
        .sum();
    assert!(crit > 0.0, "L3 must report a dimension-exchange phase");
}

/// Level 1 at units=4, k=3, d=4 in `f64` does exactly two binomial-tree
/// AllReduces per iteration (centroid sums, then counts). A 4-rank
/// binomial tree is 3 reduce + 3 broadcast messages, each carrying the
/// full payload:
///
/// ```text
/// sums:   6 msgs × (3·4·8 B) = 576 B   counts: 6 msgs × (3·8 B) = 144 B
/// 3 iterations × 720 B = 2160 B over 36 messages, all AllReduce.
/// ```
#[test]
fn comm_accounting_matches_analytic_collective_volume() {
    let blobs = GaussianMixture::new(64, 4, 3)
        .with_seed(3)
        .generate::<f64>();
    let init = init_centroids(&blobs.data, 3, InitMethod::Forgy, 2);
    let cfg = HierConfig {
        level: Level::L1,
        units: 4,
        group_units: 1,
        cpes_per_cg: 8,
        max_iters: 3,
        tol: 0.0,
        kernel: AssignKernel::Scalar,
        ..HierConfig::new(Level::L1)
    };
    let result = fit(&blobs.data, init, &cfg).unwrap();
    assert_eq!(result.iterations, 3, "tol=0 must run all 3 iterations");
    assert_eq!(result.comm.total_bytes(), 2_160);
    assert_eq!(result.comm.total_messages(), 36);
    assert_eq!(result.comm.bytes_of(OpKind::AllReduce), 2_160);
    assert_eq!(result.comm.messages_of(OpKind::AllReduce), 36);
    for kind in OpKind::ALL {
        if kind != OpKind::AllReduce {
            assert_eq!(result.comm.bytes_of(kind), 0, "{kind:?} traffic");
        }
    }
    // The legacy aggregate fields agree with the full log.
    assert_eq!(result.comm_bytes, result.comm.total_bytes());
    assert_eq!(result.comm_messages, result.comm.total_messages());

    // And the registry sees the same numbers through the exporter path.
    let registry = MetricsRegistry::new();
    result.export_metrics(&registry);
    assert_eq!(registry.counter("comm_total_bytes"), 2_160);
    assert_eq!(registry.counter("comm_total_messages"), 36);
    assert_eq!(registry.counter("comm_allreduce_bytes"), 2_160);
    let json = to_json(&registry);
    assert!(json.contains("\"comm_allreduce_bytes\":2160"), "{json}");
}

/// Training and serving publish into one registry: a single JSON document
/// carries `train_*`, `comm_*` and `serve_*` metrics, and exporting twice
/// yields byte-identical output (stable key order).
#[test]
fn training_and_serving_share_one_registry() {
    let blobs = GaussianMixture::new(256, 8, 4)
        .with_seed(7)
        .generate::<f32>();
    let init = init_centroids(&blobs.data, 4, InitMethod::Forgy, 1);
    let cfg = HierConfig {
        level: Level::L2,
        units: 4,
        group_units: 2,
        cpes_per_cg: 4,
        max_iters: 3,
        tol: 0.0,
        kernel: AssignKernel::Scalar,
        ..HierConfig::new(Level::L2)
    };
    let trained = fit(&blobs.data, init, &cfg).unwrap();

    let registry = MetricsRegistry::shared();
    trained.export_metrics(&registry);

    let index = ShardedIndex::new(trained.centroids.clone(), 2);
    let server = Server::start_with_registry(index, PipelineConfig::default(), registry.clone());
    let client = server.client();
    for i in 0..32 {
        client.predict(blobs.data.row(i % 256).to_vec()).unwrap();
    }
    drop(client);
    let snapshot = server.shutdown();
    assert_eq!(snapshot.completed, 32);

    let json = to_json(&registry);
    for key in [
        "train_assign_ns",
        "train_merge_ns",
        "train_update_ns",
        "train_iter_wall_ns",
        "train_objective",
        "train_final_assign_s",
        "comm_total_bytes",
        "serve_accepted",
        "serve_completed",
        "serve_total_ns",
        "serve_batch_size",
    ] {
        assert!(
            json.contains(&format!("\"{key}\"")),
            "missing {key}: {json}"
        );
    }
    assert!(json.contains("\"serve_completed\":32"), "{json}");
    assert_eq!(json, to_json(&registry), "export must be deterministic");
}

/// The kernel selection and assign throughput reach the registry: training
/// exports `train_assign_kernel` (the kernel's stable code) plus a
/// positive `train_assign_samples_per_s`, and serving exports the mirror
/// `serve_assign_kernel` gauge.
#[test]
fn kernel_choice_and_assign_throughput_are_exported() {
    let blobs = GaussianMixture::new(512, 16, 4)
        .with_seed(21)
        .generate::<f64>();
    let init = init_centroids(&blobs.data, 8, InitMethod::Forgy, 3);
    for kernel in [
        AssignKernel::Scalar,
        AssignKernel::Expanded,
        AssignKernel::Tiled,
    ] {
        let cfg = HierConfig {
            level: Level::L2,
            units: 4,
            group_units: 2,
            cpes_per_cg: 4,
            max_iters: 3,
            tol: 0.0,
            kernel,
            ..HierConfig::new(Level::L2)
        };
        let result = fit(&blobs.data, init.clone(), &cfg).unwrap();
        assert_eq!(result.kernel, kernel);
        let registry = MetricsRegistry::new();
        result.export_metrics(&registry);
        assert_eq!(
            registry.gauge("train_assign_kernel"),
            Some(kernel.code() as f64),
            "{kernel}"
        );
        let rate = registry
            .gauge("train_assign_samples_per_s")
            .expect("throughput gauge");
        assert!(rate > 0.0, "{kernel}: assign throughput {rate}");
        // The fixed part of the fit — the final label/objective pass —
        // is timed in-program and exported beside the phase times.
        assert!(result.final_assign_s > 0.0, "{kernel}");
        assert_eq!(
            registry.gauge("train_final_assign_s"),
            Some(result.final_assign_s),
            "{kernel}"
        );
        let json = to_json(&registry);
        assert!(json.contains("\"train_assign_kernel\""), "{json}");
    }

    // Serving mirrors the choice under its own prefix.
    let trained = fit(
        &blobs.data,
        init,
        &HierConfig {
            level: Level::L1,
            units: 2,
            group_units: 1,
            cpes_per_cg: 4,
            max_iters: 2,
            tol: 0.0,
            kernel: AssignKernel::Tiled,
            ..HierConfig::new(Level::L1)
        },
    )
    .unwrap();
    let registry = MetricsRegistry::shared();
    let index = ShardedIndex::new(trained.centroids.clone(), 2).with_kernel(AssignKernel::Tiled);
    let server = Server::start_with_registry(index, PipelineConfig::default(), registry.clone());
    let client = server.client();
    client.predict(blobs.data.row(0).to_vec()).unwrap();
    drop(client);
    server.shutdown();
    assert_eq!(
        registry.gauge("serve_assign_kernel"),
        Some(AssignKernel::Tiled.code() as f64)
    );
}
