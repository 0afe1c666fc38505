//! Zero-downtime hot swap under load: generations published through the
//! model store are swapped into a live server while closed-loop clients
//! hammer it, and the request accounting must balance exactly — every
//! issued request is completed, shed or failed; none vanish in a swap.

use kmeans_core::Matrix;
use std::time::Duration;
use swkm_serve::prelude::*;
use swkm_store::{ModelStore, SharedMemVfs};

fn two_centroid_artifact(offset: f32) -> ModelArtifact<f32> {
    ModelArtifact::from_centroids(Matrix::from_rows(&[
        &[offset, offset],
        &[offset + 10.0, offset + 10.0],
    ]))
}

#[test]
fn store_backed_swaps_under_load_lose_no_requests() {
    let vfs = SharedMemVfs::new();
    let mut store = ModelStore::open(vfs.clone()).unwrap();
    let g1 = store.publish("live", &two_centroid_artifact(0.0)).unwrap();
    let (generation, base) = store.load_live::<f32>("live").unwrap();
    assert_eq!(generation, g1);

    let server = Server::start(
        ShardedIndex::from_artifact(&base, 2),
        PipelineConfig {
            queue_capacity: 4096,
            workers: 2,
            max_batch: 32,
            linger: Duration::from_micros(50),
        },
    );

    let swaps = 8u64;
    let issued = 600usize;
    let per_client_ok: Vec<u64> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..3)
            .map(|t| {
                let client = server.client();
                scope.spawn(move || {
                    let mut ok = 0u64;
                    for i in 0..issued / 3 {
                        let v = ((t * 100 + i) % 17) as f32;
                        if client.predict(vec![v, v]).is_ok() {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        // Publisher: durably publish each generation, load it back from
        // the store, swap it in.
        for round in 1..=swaps {
            store
                .publish("live", &two_centroid_artifact(round as f32 * 0.1))
                .unwrap();
            let (generation, artifact) = store.load_live::<f32>("live").unwrap();
            let previous = server
                .swap_model(ShardedIndex::from_artifact(&artifact, 2), generation)
                .unwrap();
            assert!(previous < generation, "swap went backwards");
            std::thread::sleep(Duration::from_millis(1));
        }
        clients.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(server.generation(), g1 + swaps);
    let snap = server.shutdown();
    let served: u64 = per_client_ok.iter().sum();
    assert_eq!(served, issued as u64, "a swap dropped a request");
    assert_eq!(snap.accepted + snap.rejected, issued as u64);
    assert_eq!(snap.completed + snap.failed, snap.accepted);
    assert_eq!(snap.failed, 0);
    assert_eq!(snap.model_swaps, swaps);

    // The store still has every generation; a cold reopen serves the last.
    let reopened = ModelStore::open(vfs).unwrap();
    assert_eq!(reopened.live_generation("live"), Some(g1 + swaps));
}

/// Hot swap while a load *ramp* is climbing on the elastic event core:
/// generations install mid-scale-up and mid-steal, yet every request is
/// answered from exactly one coherent generation and the accounting
/// balances with nothing stranded.
#[test]
fn swaps_during_an_elastic_ramp_lose_no_requests() {
    use swkm_obs::MetricsRegistry;
    use swkm_serve::{run_ramp, DispatchConfig, ElasticConfig, RampConfig};

    // A heavy model so the ramp actually queues and scales.
    let (k, d) = (128usize, 128usize);
    let heavy = ModelArtifact::from_centroids(Matrix::from_vec(
        k,
        d,
        (0..k * d).map(|i| (i as f32 * 0.19).sin()).collect(),
    ));
    let server = Server::start_dispatch(
        ShardedIndex::from_artifact(&heavy, 4),
        DispatchConfig {
            queue_capacity: 4_096,
            max_batch: 8,
            linger: Duration::from_micros(50),
            shards: ElasticConfig::elastic(1, 4),
            shard_queue: 1,
            tick: Duration::from_millis(1),
            admission: None,
        },
        MetricsRegistry::shared(),
        Default::default(),
    );
    let queries = Matrix::from_vec(8, d, (0..8 * d).map(|i| (i as f32 * 0.07).cos()).collect());

    let swaps = 6u64;
    let ramp = std::thread::scope(|scope| {
        let server = &server;
        let heavy = &heavy;
        scope.spawn(move || {
            for round in 1..=swaps {
                std::thread::sleep(Duration::from_millis(4));
                server
                    .swap_model(ShardedIndex::from_artifact(heavy, 4), round)
                    .unwrap();
            }
        });
        run_ramp(
            server,
            &queries,
            RampConfig {
                base_clients: 1,
                peak_clients: 8,
                steps_up: 3,
                requests_per_client: 60,
            },
        )
    });

    assert!(ramp.conserved(), "a swap dropped a request:\n{ramp}");
    assert_eq!(ramp.failed(), 0, "swaps must never fail requests");
    assert_eq!(server.generation(), swaps);
    let snap = server.shutdown();
    assert_eq!(snap.model_swaps, swaps);
    assert_eq!(snap.stranded, 0, "a swap stranded queued work");
    assert_eq!(snap.completed, ramp.completed());
}

#[test]
fn swap_changes_answers_deterministically() {
    let hot = ModelArtifact::from_centroids(Matrix::from_rows(&[&[0.0f32, 0.0], &[100.0, 100.0]]));
    let cold = ModelArtifact::from_centroids(Matrix::from_rows(&[&[100.0f32, 100.0], &[0.0, 0.0]]));
    let server = Server::start(
        ShardedIndex::from_artifact(&hot, 2),
        PipelineConfig::default(),
    );
    let client = server.client();
    assert_eq!(client.predict(vec![1.0, 1.0]).unwrap().label, 0);
    server
        .swap_model(ShardedIndex::from_artifact(&cold, 2), 1)
        .unwrap();
    assert_eq!(client.predict(vec![1.0, 1.0]).unwrap().label, 1);
    // Rollback: swap the original back in (generation numbers are the
    // caller's; the server just installs what it is given).
    server
        .swap_model(ShardedIndex::from_artifact(&hot, 2), 2)
        .unwrap();
    assert_eq!(client.predict(vec![1.0, 1.0]).unwrap().label, 0);
    drop(client);
    assert_eq!(server.shutdown().model_swaps, 2);
}

#[test]
fn swap_rejects_wrong_dimension_with_a_typed_error() {
    let server = Server::start(
        ShardedIndex::from_artifact(&two_centroid_artifact(0.0), 2),
        PipelineConfig::default(),
    );
    let wide =
        ModelArtifact::from_centroids(Matrix::from_rows(&[&[0.0f32, 0.0, 0.0], &[1.0, 1.0, 1.0]]));
    let err = server
        .swap_model(ShardedIndex::from_artifact(&wide, 2), 9)
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::DimensionMismatch {
            expected: 2,
            got: 3
        }
    );
    // The failed swap did not bump the generation or break serving.
    assert_eq!(server.generation(), 0);
    let client = server.client();
    assert!(client.predict(vec![1.0, 1.0]).is_ok());
    drop(client);
    assert_eq!(server.shutdown().model_swaps, 0);
}

#[test]
fn swap_heals_a_killed_shard() {
    let artifact = two_centroid_artifact(0.0);
    let server = Server::start(
        ShardedIndex::from_artifact(&artifact, 2),
        PipelineConfig::default(),
    );
    let client = server.client();
    assert!(server.kill_shard(1));
    assert!(client.predict(vec![1.0, 1.0]).unwrap().degraded);
    // A freshly installed generation has all shards alive again.
    server
        .swap_model(ShardedIndex::from_artifact(&artifact, 2), 1)
        .unwrap();
    assert!(!client.predict(vec![1.0, 1.0]).unwrap().degraded);
    drop(client);
    server.shutdown();
}
