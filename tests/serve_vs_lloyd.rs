//! Property: the sharded serving index labels exactly like the serial
//! Lloyd assignment step — same nearest centroid, same lowest-index
//! tie-breaking — for every shard count, and also through the full
//! multi-threaded request pipeline.

use proptest::prelude::*;
use sunway_kmeans::kmeans_core::{assign_step, init_centroids, InitMethod, Matrix};
use sunway_kmeans::prelude::*;

fn serial_labels(data: &Matrix<f64>, centroids: &Matrix<f64>) -> Vec<u32> {
    let mut labels = vec![0u32; data.rows()];
    assign_step(data, centroids, &mut labels);
    labels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sharded batch assignment is bit-identical to the serial scan for
    /// arbitrary problems and shard counts.
    #[test]
    fn sharded_index_matches_serial_assign(
        seed in 0u64..1_000,
        n in 1usize..80,
        d in 1usize..20,
        k in 1usize..24,
        shards in 1usize..30,
    ) {
        let blobs = GaussianMixture::new(n.max(k), d, k.clamp(2, 8))
            .with_seed(seed)
            .generate::<f64>();
        let centroids = init_centroids(&blobs.data, k.min(blobs.data.rows()), InitMethod::Forgy, seed);
        let expected = serial_labels(&blobs.data, &centroids);
        let index = ShardedIndex::new(centroids, shards);
        prop_assert_eq!(index.assign_batch(&blobs.data), expected);
    }

    /// Duplicate centroids force cross-shard ties; the merged winner must
    /// still be the lowest global index, exactly like the serial scan.
    #[test]
    fn duplicate_centroids_tie_to_lowest_index(
        seed in 0u64..500,
        n in 1usize..40,
        d in 1usize..10,
        k in 2usize..12,
        shards in 1usize..12,
    ) {
        let blobs = GaussianMixture::new(n.max(k), d, 2).with_seed(seed).generate::<f64>();
        // Build centroids where every row is duplicated: ties everywhere.
        let base = init_centroids(&blobs.data, k / 2 + 1, InitMethod::Forgy, seed);
        let mut rows: Vec<&[f64]> = Vec::new();
        for i in 0..base.rows() {
            rows.push(base.row(i));
            rows.push(base.row(i));
        }
        let centroids = Matrix::from_rows(&rows);
        let expected = serial_labels(&blobs.data, &centroids);
        let index = ShardedIndex::new(centroids.clone(), shards);
        prop_assert_eq!(index.assign_batch(&blobs.data), expected);
    }

    /// The full pipeline path — artifact freeze/thaw, admission queue,
    /// micro-batching worker, shard fan-out — returns the same labels.
    #[test]
    fn pipeline_predictions_match_serial_assign(
        seed in 0u64..200,
        n in 1usize..40,
        d in 1usize..12,
        k in 1usize..10,
        shards in 1usize..8,
        workers in 1usize..4,
    ) {
        let blobs = GaussianMixture::new(n.max(k).max(2), d, k.max(2))
            .with_seed(seed)
            .generate::<f64>();
        let fit = Lloyd::run(&blobs.data, &KMeansConfig::new(k).with_seed(seed).with_max_iters(4)).unwrap();
        let expected = serial_labels(&blobs.data, &fit.centroids);
        let artifact = ModelArtifact::from_centroids(fit.centroids);
        let thawed = ModelArtifact::<f64>::from_bytes(&artifact.to_bytes()).unwrap();
        let server = Server::start(
            ShardedIndex::from_artifact(&thawed, shards),
            PipelineConfig {
                queue_capacity: 2 * blobs.data.rows(),
                workers,
                max_batch: 8,
                linger: std::time::Duration::from_micros(50),
            },
        );
        let client = server.client();
        let mut got = Vec::with_capacity(blobs.data.rows());
        for i in 0..blobs.data.rows() {
            got.push(client.predict(blobs.data.row(i).to_vec()).unwrap().label);
        }
        drop(client);
        server.shutdown();
        prop_assert_eq!(got, expected);
    }
}

/// The GEMM kernel's norm expansion is a numerically different fast path,
/// so it is not bit-identity-guaranteed against the serial scan; on
/// well-separated data it must still agree with it.
#[test]
fn gemm_agrees_on_separated_clusters() {
    let centroids = Matrix::from_rows(&[
        &[0.0f64, 0.0, 0.0],
        &[100.0, 0.0, 0.0],
        &[0.0, 100.0, 0.0],
        &[0.0, 0.0, 100.0],
    ]);
    let queries = Matrix::from_rows(&[
        &[1.0f64, 2.0, -1.0],
        &[98.0, 1.0, 0.5],
        &[-2.0, 101.0, 3.0],
        &[0.1, -0.3, 99.0],
    ]);
    let expected = serial_labels(&queries, &centroids);
    for shards in [1usize, 2, 4] {
        let index = ShardedIndex::new(centroids.clone(), shards).with_kernel(AssignKernel::Gemm);
        assert_eq!(index.assign_batch(&queries), expected, "{shards} shard(s)");
    }
}
