//! Property tests for the assign-kernel layer: `Gemm` must reproduce the
//! exact `Scalar` reference's argmin — including the workspace-wide
//! lowest-index tie-break — across arbitrary shapes, LDM budgets and
//! dimension slicings. `Gemm` is additionally held to a stronger bar:
//! bitwise-identical labels and keys to the per-pair scan its plan exposes
//! (`score_pair` + `key_to_dist`), which shares its canonical
//! accumulation order but none of its blocking, packing or micro kernel.

use proptest::prelude::*;
use std::ops::Range;
use sunway_kmeans::kmeans_core::distance::{argmin_direct, argmin_direct_portable, CentroidPanels};
use sunway_kmeans::kmeans_core::{
    argmin_centroid, BoundsMode, GemmBlocking, KMeansConfig, Lloyd, LDM_BYTES_DEFAULT,
};
use sunway_kmeans::prelude::*;

fn assign_all(
    plan: &AssignPlan<f64>,
    data: &Matrix<f64>,
    centroids: &Matrix<f64>,
) -> Vec<(u32, f64)> {
    let mut out = Vec::new();
    plan.assign_batch_into(
        data,
        0..data.rows(),
        centroids,
        0..centroids.rows(),
        0,
        &mut out,
    );
    out
}

/// Assert that the plan's batch kernel over centroid rows `crows`
/// (reported from `offset`) returns, per sample, exactly the label and key
/// bits of the strict-`<` ascending per-pair scan — and that `assign_one`
/// agrees with both.
fn assert_batch_is_the_per_pair_scan<S: Scalar>(
    plan: &AssignPlan<S>,
    data: &Matrix<S>,
    centroids: &Matrix<S>,
    crows: Range<usize>,
    offset: usize,
) {
    let mut out = Vec::new();
    plan.assign_batch_into(
        data,
        0..data.rows(),
        centroids,
        crows.clone(),
        offset,
        &mut out,
    );
    for (i, &(label, key)) in out.iter().enumerate() {
        let sample = data.row(i);
        let mut best = (crows.start, plan.score_pair(sample, centroids, crows.start));
        for j in crows.start + 1..crows.end {
            let s = plan.score_pair(sample, centroids, j);
            if s < best.1 {
                best = (j, s);
            }
        }
        let want = (
            (offset + best.0 - crows.start) as u32,
            plan.key_to_dist(sample, best.1).bits(),
        );
        assert_eq!((label, key.bits()), want, "crows {crows:?} sample {i}");
        let (one_label, one_key) = plan.assign_one(sample, centroids, crows.clone(), offset);
        assert_eq!(
            (one_label, one_key.bits()),
            want,
            "assign_one, crows {crows:?} sample {i}"
        );
    }
}

/// `rows` Forgy centroids of `data` with row 0 copied over the last row
/// (when there are two or more), so exact ties exist.
fn centroids_with_a_duplicate<S: Scalar>(data: &Matrix<S>, rows: usize, seed: u64) -> Matrix<S> {
    let mut c = init_centroids(data, rows, InitMethod::Forgy, seed);
    if rows > 1 {
        let dup = c.row(0).to_vec();
        c.row_mut(rows - 1).copy_from_slice(&dup);
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On random f64 problems every kernel picks the same centroid as the
    /// serial scan, at every LDM budget (tiny budgets force edge blocks).
    #[test]
    fn kernels_match_scalar_argmin_on_random_shapes(
        seed in 0u64..10_000,
        n in 1usize..60,
        d in 1usize..40,
        k in 1usize..20,
        ldm_pick in 0usize..4,
    ) {
        let ldm = [64usize, 700, 4_096, LDM_BYTES_DEFAULT][ldm_pick];
        let blobs = GaussianMixture::new(n.max(k), d, k).with_seed(seed).generate::<f64>();
        let data = blobs.data;
        let centroids = init_centroids(&data, k, InitMethod::Forgy, seed + 1);
        for kernel in AssignKernel::ALL {
            let plan = AssignPlan::with_ldm_budget(kernel, &centroids, ldm);
            for (i, &(j, _)) in assign_all(&plan, &data, &centroids).iter().enumerate() {
                let (serial, _) = argmin_centroid(data.row(i), &centroids);
                prop_assert_eq!(j as usize, serial, "{} ldm={} sample {}", kernel, ldm, i);
            }
        }
    }

    /// Duplicated centroid rows create exact ties at arbitrary positions
    /// of the panel grid; the lowest global index must always win.
    #[test]
    fn duplicated_rows_tie_to_the_lowest_index(
        seed in 0u64..10_000,
        n in 1usize..40,
        d in 1usize..16,
        k in 1usize..8,
        ldm_pick in 0usize..3,
    ) {
        let ldm = [64usize, 512, LDM_BYTES_DEFAULT][ldm_pick];
        let blobs = GaussianMixture::new(n.max(k), d, k).with_seed(seed).generate::<f64>();
        let data = blobs.data;
        let base = init_centroids(&data, k, InitMethod::Forgy, seed + 2);
        let mut rows: Vec<&[f64]> = Vec::new();
        for j in 0..base.rows() {
            rows.push(base.row(j));
            rows.push(base.row(j));
        }
        let centroids = Matrix::from_rows(&rows);
        for kernel in AssignKernel::ALL {
            let plan = AssignPlan::with_ldm_budget(kernel, &centroids, ldm);
            for (i, &(j, _)) in assign_all(&plan, &data, &centroids).iter().enumerate() {
                prop_assert_eq!(j % 2, 0, "{} sample {}: duplicate's higher index won", kernel, i);
                let (serial, _) = argmin_centroid(data.row(i), &centroids);
                prop_assert_eq!(j as usize, serial);
            }
        }
    }

    /// Arbitrary contiguous dimension slicings (the Level-3 CPE partition)
    /// leave every kernel's argmin unchanged — dots are additive over
    /// disjoint slices.
    #[test]
    fn dimension_slices_preserve_the_argmin(
        seed in 0u64..10_000,
        n in 1usize..30,
        d in 1usize..40,
        k in 1usize..10,
        cpes in 1usize..9,
    ) {
        let blobs = GaussianMixture::new(n.max(k), d, k).with_seed(seed).generate::<f64>();
        let data = blobs.data;
        let centroids = init_centroids(&data, k, InitMethod::Forgy, seed + 3);
        let slices: Vec<std::ops::Range<usize>> = (0..cpes)
            .map(|c| {
                let lo = c * d / cpes;
                let hi = (c + 1) * d / cpes;
                lo..hi
            })
            .collect();
        for kernel in AssignKernel::ALL {
            let whole = AssignPlan::new(kernel, &centroids);
            let sliced = AssignPlan::with_options(
                kernel,
                &centroids,
                LDM_BYTES_DEFAULT,
                Some(slices.clone()),
            );
            let a = assign_all(&whole, &data, &centroids);
            let b = assign_all(&sliced, &data, &centroids);
            for i in 0..data.rows() {
                prop_assert_eq!(a[i].0, b[i].0, "{} cpes={} sample {}", kernel, cpes, i);
            }
        }
    }

    /// `Gemm` reproduces the per-pair scan *bitwise* — labels and
    /// comparison keys — at every LDM budget, in f64 and in f32 (the AVX
    /// micro kernel on x86-64), with and without Level-3 dimension slices,
    /// and on centroid sub-ranges that start or end mid-panel: every dot
    /// accumulates in the same canonical ascending-dimension order, so
    /// packing and register blocking must be invisible to the last bit.
    /// A duplicated centroid row pins the lowest-index tie-break.
    #[test]
    fn gemm_matches_per_pair_scan_bitwise(
        seed in 0u64..10_000,
        n in 1usize..60,
        d in 1usize..40,
        k in 1usize..20,
        ldm_pick in 0usize..4,
        cpes in 0usize..5,
        lo_pick in 0usize..20,
        len_pick in 0usize..20,
    ) {
        let ldm = [64usize, 700, 4_096, LDM_BYTES_DEFAULT][ldm_pick];
        let slices = (cpes > 0).then(|| {
            (0..cpes).map(|c| c * d / cpes..(c + 1) * d / cpes).collect::<Vec<_>>()
        });
        let lo = lo_pick % k;
        let crows = lo..lo + 1 + len_pick % (k - lo);
        let offset = seed as usize % 7;
        let data = GaussianMixture::new(n.max(k), d, k).with_seed(seed).generate::<f64>().data;
        let centroids = centroids_with_a_duplicate(&data, k, seed + 5);
        let plan = AssignPlan::with_options(AssignKernel::Gemm, &centroids, ldm, slices.clone());
        assert_batch_is_the_per_pair_scan(&plan, &data, &centroids, 0..k, 0);
        assert_batch_is_the_per_pair_scan(&plan, &data, &centroids, crows.clone(), offset);
        let data = GaussianMixture::new(n.max(k), d, k).with_seed(seed).generate::<f32>().data;
        let centroids = centroids_with_a_duplicate(&data, k, seed + 6);
        let plan = AssignPlan::with_options(AssignKernel::Gemm, &centroids, ldm, slices);
        assert_batch_is_the_per_pair_scan(&plan, &data, &centroids, 0..k, 0);
        assert_batch_is_the_per_pair_scan(&plan, &data, &centroids, crows, offset);
    }

    /// The exact batch kernel behind `assign_step`: its AVX body (what
    /// `argmin_direct` dispatches to for f32 on an AVX machine) against the
    /// portable body and against the serial `argmin_centroid` scan, labels
    /// and distance bits, on arbitrary row sub-ranges. Near-ties are
    /// forced by duplicating a centroid row and by planting samples on
    /// centroids; a NaN coordinate checks the unordered compares.
    #[test]
    fn direct_argmin_avx_matches_portable_and_serial_bitwise(
        seed in 0u64..10_000,
        n in 1usize..150,
        d in 1usize..70,
        k in 1usize..40,
        lo_pick in 0usize..150,
        len_pick in 0usize..150,
        nan_pick in 0usize..6,
    ) {
        let blobs = GaussianMixture::new(n.max(k), d, k).with_seed(seed).generate::<f32>();
        let mut data = blobs.data;
        let n = data.rows();
        let mut centroids = init_centroids(&data, k, InitMethod::Forgy, seed + 7);
        if k > 1 {
            let dup = centroids.row(0).to_vec();
            centroids.row_mut(k - 1).copy_from_slice(&dup);
        }
        let planted = centroids.row(k / 2).to_vec();
        data.row_mut(seed as usize % n).copy_from_slice(&planted);
        if nan_pick == 0 {
            data.set((seed as usize / 3) % n, seed as usize % d, f32::NAN);
        }
        let lo = lo_pick % n;
        let rows = lo..lo + len_pick % (n - lo + 1);
        let panels = CentroidPanels::pack(&centroids);
        let (mut labels, mut dists) = (vec![u32::MAX; rows.len()], vec![-1.0f32; rows.len()]);
        argmin_direct(&data, rows.clone(), &panels, &mut labels, &mut dists);
        let (mut p_labels, mut p_dists) = (vec![u32::MAX; rows.len()], vec![-1.0f32; rows.len()]);
        argmin_direct_portable(&data, rows.clone(), &panels, &mut p_labels, &mut p_dists);
        for (o, i) in rows.clone().enumerate() {
            let (j, dist) = argmin_centroid(data.row(i), &centroids);
            prop_assert_eq!(labels[o], p_labels[o], "rows {:?} sample {}", rows, i);
            prop_assert_eq!(dists[o].to_bits(), p_dists[o].to_bits(), "rows {:?} sample {}", rows, i);
            prop_assert_eq!(labels[o] as usize, j, "rows {:?} sample {}", rows, i);
            prop_assert_eq!(dists[o].to_bits(), dist.to_bits(), "rows {:?} sample {}", rows, i);
        }
    }

    /// Triangle-inequality pruning composes with every kernel: a bounded
    /// Lloyd run (Hamerly or Yinyang) filtered in front of any assign
    /// kernel reproduces the unbounded run of the *same* kernel bit for
    /// bit — labels, centroid bits, objective bits, iteration count.
    #[test]
    fn bounded_lloyd_is_bitwise_unbounded_per_kernel(
        seed in 0u64..10_000,
        n in 30usize..120,
        d in 2usize..24,
        k in 2usize..12,
        kernel_pick in 0usize..2,
        bounds_pick in 0usize..2,
    ) {
        let kernel = AssignKernel::ALL[kernel_pick];
        let bounds = [BoundsMode::Hamerly, BoundsMode::Yinyang][bounds_pick];
        let blobs = GaussianMixture::new(n.max(k), d, k)
            .with_seed(seed)
            .with_spread(25.0)
            .generate::<f64>();
        let data = blobs.data;
        let init = init_centroids(&data, k, InitMethod::Forgy, seed + 4);
        let base = KMeansConfig::new(k).with_max_iters(10).with_kernel(kernel);
        let plain = Lloyd::run_from(&data, init.clone(), &base).unwrap();
        let r = Lloyd::run_from(&data, init, &base.with_bounds(bounds)).unwrap();
        prop_assert_eq!(&r.labels, &plain.labels, "{}/{}: labels diverged", bounds, kernel);
        prop_assert_eq!(r.iterations, plain.iterations, "{}/{}: iterations", bounds, kernel);
        prop_assert_eq!(
            r.objective.to_bits(), plain.objective.to_bits(),
            "{}/{}: objective bits diverged", bounds, kernel
        );
        let rb: Vec<u64> = r.centroids.as_slice().iter().map(|v| v.to_bits()).collect();
        let pb: Vec<u64> = plain.centroids.as_slice().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(rb, pb, "{}/{}: centroid bits diverged", bounds, kernel);
        prop_assert!(r.bounds.lloyd_equivalent > 0, "{}/{}: no bounds work", bounds, kernel);
    }

    /// The GEMM block planner never exceeds its budget (when it can help
    /// it) and always yields whole 4×8 micro tiles.
    #[test]
    fn tile_budgets_are_respected(
        d in 1usize..10_000,
        elem_pick in 0usize..2,
        ldm in 64usize..(1 << 21),
    ) {
        let elem = [4usize, 8][elem_pick];
        let b = GemmBlocking::for_budget(ldm, d, elem);
        prop_assert!(b.mc >= 4 && b.nc >= 8);
        prop_assert!(b.mc.is_multiple_of(4) && b.nc.is_multiple_of(8));
        prop_assert!(b.mc <= 4096 && b.nc <= 4096);
        if b.mc > 4 || b.nc > 8 {
            prop_assert!(
                b.footprint_bytes(d, elem) <= ldm,
                "{:?} uses {} B of {}",
                b, b.footprint_bytes(d, elem), ldm
            );
        }
    }
}

/// f32 near-tie tolerance, documented: on *well-separated* data both
/// kernels agree with the serial scan's labels. Near-exact ties are the one
/// place `Gemm` may legitimately differ from `Scalar` — the expansion
/// `‖x‖²+‖c‖²−2·x·c` is a different rounding of the same value — so
/// equivalence there is asserted only up to a key tolerance, not label
/// equality.
#[test]
fn f32_keys_stay_within_documented_tolerance() {
    let blobs = GaussianMixture::new(400, 24, 8)
        .with_seed(7)
        .with_spread(30.0)
        .generate::<f32>();
    let data = blobs.data;
    let centroids = init_centroids(&data, 8, InitMethod::KMeansPlusPlus, 9);
    let scalar_plan = AssignPlan::new(AssignKernel::Scalar, &centroids);
    let mut scalar = Vec::new();
    scalar_plan.assign_batch_into(&data, 0..data.rows(), &centroids, 0..8, 0, &mut scalar);
    let plan = AssignPlan::new(AssignKernel::Gemm, &centroids);
    let mut got = Vec::new();
    plan.assign_batch_into(&data, 0..data.rows(), &centroids, 0..8, 0, &mut got);
    for i in 0..data.rows() {
        // Separated blobs: labels agree exactly.
        assert_eq!(got[i].0, scalar[i].0, "sample {i}");
        // Keys agree to f32 cancellation tolerance: the expansion subtracts
        // two large norm terms, so its relative error scales with
        // ε·(‖x‖²+‖c‖²)/‖x−c‖² — a relative 1e-3 window here, and the
        // documented near-tie band within which labels could legitimately
        // differ on adversarial data.
        let rel = (got[i].1 - scalar[i].1).abs() / (1.0 + scalar[i].1.abs());
        assert!(rel < 1e-3, "sample {i}: key drift {rel}");
    }
}
