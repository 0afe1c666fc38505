//! Algorithm-family cross-checks: serial Lloyd with and without
//! triangle-inequality bounds (Hamerly, Yinyang), the streaming executor
//! and the hierarchical executors, scored with the external clustering
//! metrics.

use sunway_kmeans::kmeans_core::BoundsMode;
use sunway_kmeans::prelude::*;

fn blobs(n: usize, d: usize, k: usize, seed: u64) -> (Matrix<f64>, Vec<u32>) {
    let gm = GaussianMixture::new(n, d, k)
        .with_seed(seed)
        .with_spread(40.0)
        .with_noise(0.8)
        .generate::<f64>();
    (gm.data, gm.truth)
}

#[test]
fn yinyang_and_level3_agree_with_lloyd() {
    let (data, _) = blobs(600, 12, 9, 1);
    let init = init_centroids(&data, 9, InitMethod::Forgy, 11);
    let cfg = KMeansConfig::new(9).with_max_iters(10).with_tol(0.0);
    let lloyd = Lloyd::run_from(&data, init.clone(), &cfg).unwrap();
    let yy = Lloyd::run_from(&data, init.clone(), &cfg.with_bounds(BoundsMode::Yinyang)).unwrap();
    let hier = HierKMeans::new(Level::L3)
        .with_units(6)
        .with_group_units(3)
        .with_cpes_per_cg(4)
        .with_max_iters(10)
        .with_tol(0.0)
        .fit(&data, init)
        .unwrap();
    assert_eq!(yy.labels, lloyd.labels);
    assert_eq!(hier.labels, lloyd.labels);
    assert!(yy.centroids.max_abs_diff(&lloyd.centroids) < 1e-9);
    assert!(hier.centroids.max_abs_diff(&lloyd.centroids) < 1e-9);
    // Yinyang did strictly less distance work than Lloyd on separated data.
    assert!(yy.bounds.distance_evals < yy.bounds.lloyd_equivalent);
}

#[test]
fn all_exact_algorithms_recover_ground_truth() {
    let (data, truth) = blobs(900, 10, 6, 2);
    let init = init_centroids(&data, 6, InitMethod::KMeansPlusPlus, 5);
    let cfg = KMeansConfig::new(6).with_max_iters(60);

    let lloyd = Lloyd::run_from(&data, init.clone(), &cfg).unwrap();
    let yy = Lloyd::run_from(&data, init.clone(), &cfg.with_bounds(BoundsMode::Yinyang)).unwrap();
    let hier = HierKMeans::new(Level::L2)
        .with_units(6)
        .with_group_units(3)
        .with_max_iters(60)
        .fit(&data, init)
        .unwrap();

    for (name, labels) in [
        ("lloyd", &lloyd.labels),
        ("yinyang", &yy.labels),
        ("hier-L2", &hier.labels),
    ] {
        let ari = adjusted_rand_index(labels, &truth);
        let n = nmi(labels, &truth);
        assert!(ari > 0.95, "{name}: ARI {ari}");
        assert!(n > 0.9, "{name}: NMI {n}");
    }
}

#[test]
fn bounded_lloyd_and_hier_form_one_equivalence_class() {
    let (data, _) = blobs(500, 8, 12, 6);
    let init = init_centroids(&data, 12, InitMethod::Forgy, 17);
    let cfg = KMeansConfig::new(12).with_max_iters(12).with_tol(0.0);
    let lloyd = Lloyd::run_from(&data, init.clone(), &cfg).unwrap();
    let hier = HierKMeans::new(Level::L3)
        .with_units(4)
        .with_group_units(2)
        .with_cpes_per_cg(4)
        .with_max_iters(12)
        .with_tol(0.0)
        .fit(&data, init.clone())
        .unwrap();
    assert_eq!(hier.labels, lloyd.labels);
    // Both bound modes are exact and saved work on separated data.
    for mode in [BoundsMode::Hamerly, BoundsMode::Yinyang] {
        let bounded = Lloyd::run_from(&data, init.clone(), &cfg.with_bounds(mode)).unwrap();
        assert_eq!(bounded.labels, lloyd.labels, "{mode}");
        assert_eq!(
            bounded.objective.to_bits(),
            lloyd.objective.to_bits(),
            "{mode}"
        );
        let stats = bounded.bounds;
        assert!(
            stats.distance_evals < stats.lloyd_equivalent,
            "{mode}: {} evals vs {} Lloyd-equivalent",
            stats.distance_evals,
            stats.lloyd_equivalent
        );
    }
}

#[test]
fn streaming_and_in_memory_agree_on_f32() {
    let gm = GaussianMixture::new(800, 16, 4)
        .with_seed(9)
        .with_spread(30.0)
        .generate::<f32>();
    let init = init_centroids(&gm.data, 4, InitMethod::KMeansPlusPlus, 3);
    let src = MatrixSource::new(&gm.data);
    let streamed = fit_source(
        &src,
        init.clone(),
        &StreamConfig {
            units: 6,
            group_units: 2,
            window: 100,
            max_iters: 20,
            tol: 1e-6,
        },
    )
    .unwrap();
    let in_memory = HierKMeans::new(Level::L2)
        .with_units(6)
        .with_group_units(2)
        .with_max_iters(20)
        .with_tol(1e-6)
        .fit(&gm.data, init)
        .unwrap();
    // Same fixed point from the same init on well-separated data.
    assert_eq!(streamed.labels, in_memory.labels);
    let ari = adjusted_rand_index(&streamed.labels, &gm.truth);
    assert!(ari > 0.95, "ARI {ari}");
}

#[test]
fn preprocessing_changes_cluster_structure_meaningfully() {
    // Road Network's mixed-unit columns: without standardisation the
    // altitude column (0–150) swamps lon/lat (≈ 8–58); standardise and the
    // clustering keys on geography instead.
    let road = datasets::uci::road_network();
    let data = road.generate(4_000);
    let z = standardized(&data);
    let init_raw = init_centroids(&data, 8, InitMethod::KMeansPlusPlus, 1);
    let init_z = init_centroids(&z, 8, InitMethod::KMeansPlusPlus, 1);
    let raw = Lloyd::run_from(&data, init_raw, &KMeansConfig::new(8)).unwrap();
    let zs = Lloyd::run_from(&z, init_z, &KMeansConfig::new(8)).unwrap();
    let agreement = adjusted_rand_index(&raw.labels, &zs.labels);
    assert!(
        agreement < 0.9,
        "standardisation should change the clustering (ARI {agreement})"
    );
    // Both objectives are finite and the standardised one is O(d).
    assert!(zs.objective.is_finite() && raw.objective.is_finite());
}
