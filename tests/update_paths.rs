//! Update-path equivalence: the fused and delta paths are *bitwise*
//! re-expressions of the two-pass baseline, not approximations. Every
//! kernel, level, partition geometry and degenerate shape must produce
//! identical labels, bit-identical centroids and the same iteration
//! count under all three `--update` modes.

use proptest::prelude::*;
use sunway_kmeans::hier_kmeans::{FaultPlan, MergeStrategy, UpdateMode};
use sunway_kmeans::kmeans_core::BoundsMode;
use sunway_kmeans::prelude::*;
use sunway_kmeans::swkm_obs;

#[allow(clippy::too_many_arguments)]
fn fit_with(
    data: &Matrix<f64>,
    init: &Matrix<f64>,
    level: Level,
    units: usize,
    group: usize,
    cpes: usize,
    kernel: AssignKernel,
    update: UpdateMode,
    max_iters: usize,
) -> HierResult<f64> {
    HierKMeans::new(level)
        .with_units(units)
        .with_group_units(group)
        .with_cpes_per_cg(cpes)
        .with_kernel(kernel)
        .with_update(update)
        .with_merge(MergeStrategy::Tree)
        .with_max_iters(max_iters)
        .with_tol(0.0)
        .fit(data, init.clone())
        .unwrap()
}

fn centroid_bits(m: &Matrix<f64>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary problems, geometries, kernels and levels: fused and
    /// delta reproduce two-pass bit for bit.
    #[test]
    fn fused_and_delta_are_bitwise_twopass(
        seed in 0u64..1_000,
        n in 20usize..100,
        d in 1usize..20,
        k in 1usize..9,
        units in 1usize..5,
        group in 1usize..4,
        cpes in 1usize..7,
        kernel_pick in 0usize..2,
        level_pick in 0usize..3,
    ) {
        let k = k.min(n);
        let units = units * group; // divisibility requirement
        let level = [Level::L1, Level::L2, Level::L3][level_pick];
        let kernel = AssignKernel::ALL[kernel_pick];
        let blobs = GaussianMixture::new(n, d, k).with_seed(seed).generate::<f64>();
        let init = init_centroids(&blobs.data, k, InitMethod::Forgy, seed);

        let two = fit_with(&blobs.data, &init, level, units, group, cpes, kernel,
                           UpdateMode::TwoPass, 4);
        for mode in [UpdateMode::Fused, UpdateMode::Delta] {
            let r = fit_with(&blobs.data, &init, level, units, group, cpes, kernel, mode, 4);
            prop_assert_eq!(&r.labels, &two.labels, "{} labels diverged at {}", mode, level);
            prop_assert_eq!(centroid_bits(&r.centroids), centroid_bits(&two.centroids),
                "{} centroid bits diverged at {}", mode, level);
            prop_assert_eq!(r.objective.to_bits(), two.objective.to_bits(),
                "{} objective bits diverged at {}", mode, level);
            prop_assert_eq!(r.iterations, two.iterations);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn fit_bounded(
    data: &Matrix<f64>,
    init: &Matrix<f64>,
    level: Level,
    units: usize,
    group: usize,
    kernel: AssignKernel,
    update: UpdateMode,
    merge: MergeStrategy,
    bounds: BoundsMode,
    max_iters: usize,
) -> HierResult<f64> {
    HierKMeans::new(level)
        .with_units(units)
        .with_group_units(group)
        .with_cpes_per_cg(3)
        .with_kernel(kernel)
        .with_update(update)
        .with_merge(merge)
        .with_bounds(bounds)
        .with_max_iters(max_iters)
        .with_tol(0.0)
        .fit(data, init.clone())
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Bounded assignment is a *winner-preserving filter*, not an
    /// approximation: across bounds{hamerly,yinyang} × every kernel ×
    /// every level × every update path × both merge strategies, the
    /// bounded run reproduces the unbounded one bit for bit — labels,
    /// centroid bits, objective bits and iteration count.
    #[test]
    fn bounded_runs_are_bitwise_unbounded(
        seed in 0u64..1_000,
        n in 40usize..140,
        d in 2usize..16,
        k in 2usize..10,
        units in 1usize..4,
        group in 1usize..4,
        kernel_pick in 0usize..2,
        level_pick in 0usize..3,
        update_pick in 0usize..3,
        merge_pick in 0usize..2,
        bounds_pick in 0usize..2,
    ) {
        let k = k.min(n);
        let units = units * group;
        let level = [Level::L1, Level::L2, Level::L3][level_pick];
        let kernel = AssignKernel::ALL[kernel_pick];
        let mut update = [UpdateMode::TwoPass, UpdateMode::Fused, UpdateMode::Delta][update_pick];
        let merge = [MergeStrategy::Tree, MergeStrategy::Ring][merge_pick];
        if merge == MergeStrategy::Ring && update == UpdateMode::Delta {
            update = UpdateMode::TwoPass; // delta+ring is rejected by construction
        }
        let bounds = [BoundsMode::Hamerly, BoundsMode::Yinyang][bounds_pick];
        let blobs = GaussianMixture::new(n, d, k)
            .with_seed(seed)
            .with_spread(25.0)
            .generate::<f64>();
        let init = init_centroids(&blobs.data, k, InitMethod::Forgy, seed);

        let plain = fit_bounded(&blobs.data, &init, level, units, group, kernel, update,
                                merge, BoundsMode::None, 8);
        let r = fit_bounded(&blobs.data, &init, level, units, group, kernel, update,
                            merge, bounds, 8);
        let tag = format!("{bounds}/{kernel}/{update}/{merge} at {level}");
        prop_assert_eq!(&r.labels, &plain.labels, "{} labels diverged", &tag);
        prop_assert_eq!(centroid_bits(&r.centroids), centroid_bits(&plain.centroids),
            "{} centroid bits diverged", &tag);
        prop_assert_eq!(r.objective.to_bits(), plain.objective.to_bits(),
            "{} objective bits diverged", &tag);
        prop_assert_eq!(r.iterations, plain.iterations, "{} iterations diverged", &tag);
        prop_assert!(r.bounds.lloyd_equivalent > 0, "{} recorded no bounds work", &tag);
    }
}

/// Fault storm over a bounded run: degraded iterations conservatively
/// reset the bound state (counted in `bounds_resets`), and the recovered
/// run still reproduces the fault-free *unbounded* baseline bit for bit
/// on every level.
#[test]
fn fault_storm_resets_bounds_without_breaking_bit_identity() {
    let blobs = GaussianMixture::new(240, 8, 5)
        .with_seed(13)
        .with_spread(25.0)
        .generate::<f64>();
    let init = init_centroids(&blobs.data, 5, InitMethod::KMeansPlusPlus, 4);
    for level in [Level::L1, Level::L2, Level::L3] {
        let fitter = HierKMeans::new(level)
            .with_units(4)
            .with_group_units(if level == Level::L1 { 1 } else { 2 })
            .with_cpes_per_cg(3)
            .with_bounds(BoundsMode::Yinyang)
            .with_max_iters(8)
            .with_tol(0.0);
        let baseline = fitter
            .clone()
            .with_bounds(BoundsMode::None)
            .fit(&blobs.data, init.clone())
            .unwrap();
        let storm = FaultPlan::seeded(5, 0.25)
            .with_delay_ms(6)
            .with_restart_ms(2)
            .with_degrade_every(2);
        let r = fitter
            .with_faults(storm)
            .fit(&blobs.data, init.clone())
            .unwrap();
        assert_eq!(r.labels, baseline.labels, "{level}: labels diverged");
        assert_eq!(
            centroid_bits(&r.centroids),
            centroid_bits(&baseline.centroids),
            "{level}: centroid bits diverged"
        );
        assert_eq!(
            r.objective.to_bits(),
            baseline.objective.to_bits(),
            "{level}: objective bits diverged"
        );
        assert!(r.degraded_iterations > 0, "{level}: storm never degraded");
        assert!(
            r.bounds.resets > 0,
            "{level}: degradation never reset bounds"
        );
        let reg = swkm_obs::MetricsRegistry::new();
        r.export_metrics(&reg);
        assert_eq!(reg.gauge("bounds_resets"), Some(r.bounds.resets as f64));
    }
}

/// Duplicated initial centroids force empty clusters from iteration 0 on:
/// the zero-count skip must behave identically in all three paths.
#[test]
fn empty_clusters_are_handled_identically() {
    let blobs = GaussianMixture::new(60, 6, 3)
        .with_seed(11)
        .generate::<f64>();
    // Every centroid is the same row: all but the lowest-index one are
    // empty every iteration (ties break to the lowest index).
    let row: Vec<f64> = blobs.data.row(0).to_vec();
    let refs: Vec<&[f64]> = (0..5).map(|_| row.as_slice()).collect();
    let init = Matrix::from_rows(&refs);

    for level in [Level::L1, Level::L2, Level::L3] {
        let two = fit_with(
            &blobs.data,
            &init,
            level,
            4,
            2,
            3,
            AssignKernel::Scalar,
            UpdateMode::TwoPass,
            3,
        );
        for mode in [UpdateMode::Fused, UpdateMode::Delta] {
            let r = fit_with(
                &blobs.data,
                &init,
                level,
                4,
                2,
                3,
                AssignKernel::Scalar,
                mode,
                3,
            );
            assert_eq!(r.labels, two.labels, "{mode} labels at {level}");
            assert_eq!(
                centroid_bits(&r.centroids),
                centroid_bits(&two.centroids),
                "{mode} centroid bits at {level}"
            );
        }
    }
}

/// On a run that converges, the `train_moved_fraction` gauge must decay
/// to exactly 0: the final iteration reassigns nothing, which is also the
/// delta path's certificate that its sparse merge did no work.
#[test]
fn moved_fraction_gauge_decays_to_zero_on_convergence() {
    let blobs = GaussianMixture::new(400, 8, 4)
        .with_seed(5)
        .with_spread(30.0)
        .generate::<f64>();
    let init = init_centroids(&blobs.data, 4, InitMethod::KMeansPlusPlus, 9);
    for mode in [UpdateMode::TwoPass, UpdateMode::Fused, UpdateMode::Delta] {
        let r = HierKMeans::new(Level::L1)
            .with_units(8)
            .with_update(mode)
            .with_max_iters(60)
            .with_tol(1e-12)
            .fit(&blobs.data, init.clone())
            .unwrap();
        assert!(r.converged, "{mode} did not converge");
        // First iteration moves everything (no previous labels)…
        assert_eq!(r.trace.iter_critical(0).moved_fraction, 1.0, "{mode}");
        // …the converged tail moves nothing, and the gauge reports it.
        let registry = swkm_obs::MetricsRegistry::new();
        r.export_metrics(&registry);
        assert_eq!(registry.gauge("train_moved_fraction"), Some(0.0), "{mode}");
        assert_eq!(
            registry.gauge("train_update_mode"),
            Some(mode.code() as f64),
            "{mode}"
        );
    }
}

/// The packed min-loc merge (f32 ‖ u32 in one u64) must halve the
/// min-loc traffic relative to the unpacked (f64, u64) pair path while
/// reproducing the same labels — checked end to end through a Level-2 fit.
#[test]
fn packed_min_loc_halves_traffic_with_identical_labels() {
    let blobs64 = GaussianMixture::new(240, 10, 6)
        .with_seed(3)
        .with_spread(40.0)
        .generate::<f64>();
    let blobs32 = GaussianMixture::new(240, 10, 6)
        .with_seed(3)
        .with_spread(40.0)
        .generate::<f32>();
    let init64 = init_centroids(&blobs64.data, 6, InitMethod::Forgy, 4);
    let init32 = init_centroids(&blobs32.data, 6, InitMethod::Forgy, 4);

    let fitter = HierKMeans::new(Level::L2)
        .with_units(8)
        .with_group_units(4)
        .with_max_iters(5)
        .with_tol(0.0);
    let r64 = fitter.fit(&blobs64.data, init64).unwrap();
    let r32 = fitter.fit(&blobs32.data, init32).unwrap();

    assert_eq!(r32.labels, r64.labels);
    let b64 = r64.comm.bytes_of(sunway_kmeans::msg::OpKind::MinLoc);
    let b32 = r32.comm.bytes_of(sunway_kmeans::msg::OpKind::MinLoc);
    assert!(b64 > 0 && b32 > 0);
    assert_eq!(
        b32 * 2,
        b64,
        "packed u64 min-loc must be half the (f64,u64) pairs"
    );
}
