//! The load-ramp invariant harness: drive a deterministic client ramp
//! (base → peak → base) against the event-driven serve core and assert
//! the invariants that make elastic serving trustworthy:
//!
//! * **Conservation** — every issued request is completed, shed or failed;
//!   none vanish, per phase and in total.
//! * **Elasticity** — the active shard count rises under the peak and
//!   falls back to the minimum once load recedes.
//! * **Bounded tail** — p99 stays finite and sane during steady phases.
//! * **Drain on close** — shutdown strands zero requests in any channel.

use std::time::Duration;
use sunway_kmeans::kmeans_core::Matrix;
use sunway_kmeans::prelude::*;
use sunway_kmeans::swkm_obs::MetricsRegistry;
use sunway_kmeans::swkm_serve::{ServeError, ServeTracing};

/// A deliberately slow index (large k·d) so queues actually form.
fn heavy_index(shards: usize) -> ShardedIndex<f64> {
    let (k, d) = (256usize, 256usize);
    let centroids = Matrix::from_vec(k, d, (0..k * d).map(|i| (i as f64 * 0.37).sin()).collect());
    ShardedIndex::new(centroids, shards)
}

fn heavy_queries(rows: usize) -> Matrix<f64> {
    Matrix::from_vec(
        rows,
        256,
        (0..rows * 256).map(|i| (i as f64 * 0.11).cos()).collect(),
    )
}

/// An elastic server: 1..=4 shards, tight tick so scaling decisions and
/// admission windows happen many times within the test.
fn elastic_server(
    registry: std::sync::Arc<MetricsRegistry>,
    admission: Option<AdmissionConfig>,
) -> Server<f64> {
    Server::start_dispatch(
        heavy_index(4),
        DispatchConfig {
            queue_capacity: 4_096,
            max_batch: 8,
            linger: Duration::from_micros(50),
            shards: ElasticConfig::elastic(1, 4),
            shard_queue: 1,
            tick: Duration::from_millis(1),
            admission,
        },
        registry,
        ServeTracing::default(),
    )
}

#[test]
fn ramp_scales_up_and_back_down_conserving_every_request() {
    let registry = MetricsRegistry::shared();
    let server = elastic_server(registry.clone(), None);
    let queries = heavy_queries(8);

    let ramp = run_ramp(
        &server,
        &queries,
        RampConfig {
            base_clients: 1,
            peak_clients: 10,
            steps_up: 4,
            requests_per_client: 60,
        },
    );

    // Conservation, per phase and in total.
    assert!(ramp.conserved(), "a request vanished:\n{ramp}");
    assert_eq!(ramp.phases.len(), 7, "profile is base→peak→base mirrored");
    assert_eq!(
        ramp.issued(),
        ramp.completed() + ramp.shed() + ramp.failed(),
        "ramp totals must balance:\n{ramp}"
    );
    assert!(ramp.completed() > 0);
    assert_eq!(ramp.failed(), 0, "no faults injected, nothing may fail");

    // Bounded tail: p99 is real (something completed) and sane. The
    // generous ceiling keeps the assertion deterministic on slow CI.
    let worst = ramp.worst_p99_ns();
    assert!(worst > 0, "completed requests must produce a p99");
    assert!(
        worst < 5_000_000_000,
        "p99 {worst}ns blew past five seconds — the ramp stalled"
    );

    // Elasticity: the peak phase forced extra shards up, and after the
    // ramp the lazy scale-down returns the pool to the minimum.
    std::thread::sleep(Duration::from_millis(120)); // >> scale_down_idle_ticks × tick
    let peak = registry
        .gauge("serve_shards_active_peak")
        .expect("peak gauge registered");
    let low = registry
        .gauge("serve_shards_active_low")
        .expect("low gauge registered");
    assert!(
        peak > low,
        "shard count never moved: peak {peak} vs low {low}"
    );
    assert!(peak > 1.0, "the 10-client peak must activate extra shards");
    let settled = registry
        .gauge("serve_shards_active")
        .expect("active gauge registered");
    assert_eq!(settled, 1.0, "idle pool must settle back to min_shards");

    // Drain on close: the shutdown audit finds nothing stranded.
    let snap = server.shutdown();
    assert_eq!(snap.stranded, 0, "shutdown stranded requests in a channel");
    assert_eq!(snap.completed, ramp.completed());
    assert_eq!(snap.rejected, ramp.shed());
    assert_eq!(snap.failed, 0);
}

/// A 1µs p99 objective — impossible for a 256×256 scan — with
/// `min_window: 1` so even the sparse windows a 1ms tick collects at
/// ~8ms/request update the estimate immediately.
fn impossible_slo() -> AdmissionConfig {
    AdmissionConfig {
        min_window: 1,
        ..AdmissionConfig::with_slo_p99_ns(1_000)
    }
}

#[test]
fn slo_gate_sheds_under_load_and_reopens_when_idle() {
    let registry = MetricsRegistry::shared();
    // The gate must close as soon as the first latency window lands.
    let server = elastic_server(registry.clone(), Some(impossible_slo()));
    let queries = heavy_queries(8);

    let report = run_closed_loop(
        &server,
        &queries,
        LoadGenConfig {
            clients: 8,
            requests_per_client: 120,
        },
    );

    assert_eq!(
        report.issued,
        report.completed + report.shed + report.failed,
        "conservation must hold under SLO shedding: {report}"
    );
    assert!(
        report.completed > 0,
        "requests before the first window must complete"
    );
    assert!(
        report.shed > 0,
        "an impossible SLO must shed once the window closes: {report}"
    );

    let snap = server.snapshot();
    assert!(snap.admission_shed > 0, "SLO sheds must be counted");
    assert_eq!(
        snap.rejected, report.shed,
        "server-side rejects must match the clients' shed count"
    );

    // Idle windows decay the p99 estimate geometrically, so the gate must
    // re-open: shedding cannot be a one-way door.
    let client = server.client();
    let reopened = (0..200).find(|_| {
        std::thread::sleep(Duration::from_millis(5));
        registry.gauge("serve_admission_shedding") == Some(0.0)
    });
    assert!(
        reopened.is_some(),
        "gate never re-opened after load stopped"
    );
    assert!(
        client.predict(queries.row(0).to_vec()).is_ok(),
        "a request after recovery must be admitted again"
    );
    drop(client);
    let snap = server.shutdown();
    assert_eq!(snap.stranded, 0);
}

/// Shed requests carry the typed `SloShed` error with both the estimate
/// and the objective, so callers can distinguish tail-latency shedding
/// from queue-full shedding and apply different backoff.
#[test]
fn slo_sheds_are_typed_with_estimate_and_objective() {
    let registry = MetricsRegistry::shared();
    let server = elastic_server(registry.clone(), Some(impossible_slo()));
    let queries = heavy_queries(4);
    let client = server.client();

    // Hammer until the gate closes, then inspect the typed error.
    let mut shed_error = None;
    for i in 0..4_000 {
        if let Err(e @ ServeError::SloShed { .. }) = client.predict(queries.row(i % 4).to_vec()) {
            shed_error = Some(e);
            break;
        }
    }
    match shed_error {
        Some(ServeError::SloShed {
            predicted_p99_us,
            slo_p99_us,
        }) => {
            assert_eq!(slo_p99_us, 1, "objective is echoed back in µs");
            assert!(
                predicted_p99_us >= slo_p99_us,
                "shed with an estimate below the objective"
            );
        }
        other => panic!("gate never closed; last outcome {other:?}"),
    }
    drop(client);
    server.shutdown();
}

/// Elastic scale-down and shutdown race on the same channels; repeated
/// cycles must exit cleanly (no panicked worker unwraps on disconnected
/// channels, nothing stranded) every time.
#[test]
fn repeated_elastic_cycles_shut_down_cleanly() {
    let queries = heavy_queries(4);
    for round in 0..3 {
        let registry = MetricsRegistry::shared();
        let server = elastic_server(registry, None);
        let report = run_closed_loop(
            &server,
            &queries,
            LoadGenConfig {
                clients: 6,
                requests_per_client: 40,
            },
        );
        assert_eq!(
            report.issued,
            report.completed + report.shed + report.failed,
            "round {round} lost a request: {report}"
        );
        let snap = server.shutdown();
        assert_eq!(snap.stranded, 0, "round {round} stranded requests");
    }
}
