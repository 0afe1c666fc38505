//! The serial Lloyd algorithm: the reference implementation every parallel
//! level is validated against, decomposed into the Assign and Update steps
//! the hierarchy distributes.

use crate::assign::{AssignKernel, AssignPlanner, LDM_BYTES_DEFAULT};
use crate::bounds::{centroid_drifts, BoundState, BoundsMode, BoundsScratch, BoundsStats};
use crate::distance::{argmin_direct, par_workers, CentroidPanels};
use crate::init::{init_centroids, InitMethod};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::update::{TouchedSet, UpdateMode, DELTA_FALLBACK_FRACTION};

/// Configuration of a k-means run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Convergence threshold on the maximum centroid movement (Euclidean,
    /// not squared) between iterations. `0.0` reproduces the paper's
    /// "repeat until every centroid is fixed".
    pub tol: f64,
    /// Centroid seeding strategy.
    pub init: InitMethod,
    /// RNG seed for the seeding strategy.
    pub seed: u64,
    /// Which Assign kernel the iteration loop runs (the final
    /// labels-vs-centroids Assign is always [`assign_step`], the exact
    /// direct-distance pass, whatever this is set to).
    pub kernel: AssignKernel,
    /// Which Update path the iteration loop runs; all modes produce
    /// bitwise-identical centroids, labels and objective.
    pub update: UpdateMode,
    /// Bounded-assign strategy ([`BoundsMode::None`] scans every pair;
    /// the bounded modes filter via triangle-inequality bounds and stay
    /// bitwise-identical to the unbounded run).
    pub bounds: BoundsMode,
}

impl KMeansConfig {
    pub fn new(k: usize) -> Self {
        KMeansConfig {
            k,
            max_iters: 100,
            tol: 1e-9,
            init: InitMethod::Forgy,
            seed: 0,
            kernel: AssignKernel::Scalar,
            update: UpdateMode::TwoPass,
            bounds: BoundsMode::None,
        }
    }

    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    pub fn with_init(mut self, init: InitMethod) -> Self {
        self.init = init;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_kernel(mut self, kernel: AssignKernel) -> Self {
        self.kernel = kernel;
        self
    }

    pub fn with_update(mut self, update: UpdateMode) -> Self {
        self.update = update;
        self
    }

    pub fn with_bounds(mut self, bounds: BoundsMode) -> Self {
        self.bounds = bounds;
        self
    }
}

/// Input validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KMeansError {
    /// The dataset has no rows.
    EmptyDataset,
    /// `k` is zero.
    ZeroK,
    /// `k` exceeds the number of samples.
    KExceedsN { k: usize, n: usize },
    /// Provided centroids have the wrong shape.
    CentroidShape {
        expected_k: usize,
        expected_d: usize,
        got_rows: usize,
        got_cols: usize,
    },
}

impl std::fmt::Display for KMeansError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KMeansError::EmptyDataset => write!(f, "dataset has no samples"),
            KMeansError::ZeroK => write!(f, "k must be positive"),
            KMeansError::KExceedsN { k, n } => write!(f, "k = {k} exceeds n = {n}"),
            KMeansError::CentroidShape {
                expected_k,
                expected_d,
                got_rows,
                got_cols,
            } => write!(
                f,
                "centroid matrix is {got_rows}×{got_cols}, expected {expected_k}×{expected_d}"
            ),
        }
    }
}

impl std::error::Error for KMeansError {}

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult<S: Scalar> {
    /// Final centroids, `k × d`.
    pub centroids: Matrix<S>,
    /// Nearest-centroid index per sample.
    pub labels: Vec<u32>,
    /// Iterations executed.
    pub iterations: usize,
    /// Final mean objective `O(C)` (mean squared distance to the assigned
    /// centroid).
    pub objective: f64,
    /// Whether the tolerance was reached before the iteration cap.
    pub converged: bool,
    /// Pruning counters of the bounded assign layer (all zero when the
    /// run used [`BoundsMode::None`]).
    pub bounds: BoundsStats,
}

/// Assign each sample to its nearest centroid, filling `labels` and
/// returning the summed squared distance (so the mean objective is
/// `returned / n`). Ties break toward the lower centroid index.
///
/// Labels and the returned bits are those of a serial
/// [`argmin_centroid`](crate::distance::argmin_centroid) scan with an f64
/// sum in sample order: the centroids are packed once, row chunks go
/// through the exact batch kernel [`argmin_direct`] (on scoped worker
/// threads once the pass is large enough to pay for them), and the
/// per-sample winning distances are folded here, in sample order.
pub fn assign_step<S: Scalar>(data: &Matrix<S>, centroids: &Matrix<S>, labels: &mut [u32]) -> f64 {
    let work = data.rows() * centroids.rows() * data.cols();
    assign_step_parts(data, centroids, labels, par_workers(work))
}

/// [`assign_step`] over `parts` row chunks (fewer when `n < parts`); the
/// first runs on the caller, the others on one scoped thread each.
fn assign_step_parts<S: Scalar>(
    data: &Matrix<S>,
    centroids: &Matrix<S>,
    labels: &mut [u32],
    parts: usize,
) -> f64 {
    let n = data.rows();
    assert_eq!(labels.len(), n);
    if n == 0 {
        return 0.0;
    }
    // Checked here, before any worker exists to trip over it.
    assert_eq!(data.cols(), centroids.cols(), "dimension mismatch");
    let panels = CentroidPanels::pack(centroids);
    let mut dists = vec![S::ZERO; n];
    let chunk = n.div_ceil(parts.clamp(1, n));
    std::thread::scope(|scope| {
        let panels = &panels;
        let mut chunks = labels.chunks_mut(chunk).zip(dists.chunks_mut(chunk));
        let head = chunks.next().expect("n > 0");
        for (c, (l, dd)) in chunks.enumerate() {
            let start = (c + 1) * chunk;
            scope.spawn(move || argmin_direct(data, start..start + l.len(), panels, l, dd));
        }
        argmin_direct(data, 0..head.0.len(), panels, head.0, head.1);
    });
    let mut total = 0.0f64;
    for d in &dists {
        total += d.to_f64();
    }
    total
}

/// Recompute centroids as the mean of their assigned samples. A cluster with
/// no members keeps its previous centroid (`prev` row), which is the
/// standard guard and matches what an AllReduce of zero counts must do.
/// Returns the per-cluster member counts.
pub fn update_step<S: Scalar>(
    data: &Matrix<S>,
    labels: &[u32],
    prev: &Matrix<S>,
    next: &mut Matrix<S>,
) -> Vec<u64> {
    let k = prev.rows();
    assert_eq!(next.rows(), k);
    assert_eq!(next.cols(), prev.cols());
    next.fill_zero();
    let mut counts = vec![0u64; k];
    for (i, &label) in labels.iter().enumerate().take(data.rows()) {
        let j = label as usize;
        counts[j] += 1;
        let acc = next.row_mut(j);
        let row = data.row(i);
        for (a, x) in acc.iter_mut().zip(row) {
            *a += *x;
        }
    }
    for (j, &count) in counts.iter().enumerate().take(k) {
        if count == 0 {
            next.row_mut(j).copy_from_slice(prev.row(j));
        } else {
            let inv = S::ONE / S::from_usize(count as usize);
            for a in next.row_mut(j) {
                *a = *a * inv;
            }
        }
    }
    counts
}

/// Maximum Euclidean movement between two centroid sets of the same shape.
pub fn max_centroid_shift<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> f64 {
    let mut worst = 0.0f64;
    for j in 0..a.rows() {
        let d = crate::distance::sq_euclidean(a.row(j), b.row(j)).to_f64();
        worst = worst.max(d);
    }
    worst.sqrt()
}

/// [`max_centroid_shift`] restricted to the touched rows. Exact — not an
/// approximation — whenever every untouched row of `b` is bitwise equal to
/// its row in `a` (the delta-update invariant): identical rows contribute a
/// squared distance of exactly `0.0`, which can never be the maximum, so
/// rescanning all `k·d` values is pure waste.
pub fn max_centroid_shift_touched<S: Scalar>(
    a: &Matrix<S>,
    b: &Matrix<S>,
    touched: &TouchedSet,
) -> f64 {
    let mut worst = 0.0f64;
    for j in touched.iter() {
        let d = crate::distance::sq_euclidean(a.row(j), b.row(j)).to_f64();
        worst = worst.max(d);
    }
    worst.sqrt()
}

/// Divide accumulated `sums`/`counts` into `next` for the given rows,
/// with the standard empty-cluster guard (a zero-count row keeps its
/// `current` centroid). The division `sum · (1/count)` is the exact
/// expression [`update_step`] applies, so results are bitwise identical.
fn divide_rows_into<S: Scalar>(
    sums: &[S],
    counts: &[u64],
    current: &Matrix<S>,
    next: &mut Matrix<S>,
    rows: impl Iterator<Item = usize>,
) {
    let d = current.cols();
    for j in rows {
        let dst = next.row_mut(j);
        if counts[j] == 0 {
            dst.copy_from_slice(current.row(j));
        } else {
            let inv = S::ONE / S::from_usize(counts[j] as usize);
            for (a, &s) in dst.iter_mut().zip(&sums[j * d..(j + 1) * d]) {
                *a = s * inv;
            }
        }
    }
}

/// The serial Lloyd driver.
pub struct Lloyd;

impl Lloyd {
    /// Run k-means from automatic initialization.
    pub fn run<S: Scalar>(
        data: &Matrix<S>,
        config: &KMeansConfig,
    ) -> Result<KMeansResult<S>, KMeansError> {
        Self::validate(data, config.k)?;
        let centroids = init_centroids(data, config.k, config.init, config.seed);
        Self::run_from(data, centroids, config)
    }

    /// Run k-means from explicit initial centroids (the mode the paper's
    /// experiments use — identical starting points across levels).
    pub fn run_from<S: Scalar>(
        data: &Matrix<S>,
        centroids: Matrix<S>,
        config: &KMeansConfig,
    ) -> Result<KMeansResult<S>, KMeansError> {
        Self::validate(data, config.k)?;
        if centroids.rows() != config.k || centroids.cols() != data.cols() {
            return Err(KMeansError::CentroidShape {
                expected_k: config.k,
                expected_d: data.cols(),
                got_rows: centroids.rows(),
                got_cols: centroids.cols(),
            });
        }
        let n = data.rows();
        let (k, d) = (config.k, data.cols());
        let mut current = centroids;
        let mut next = Matrix::<S>::zeros(k, d);
        let mut labels = vec![0u32; n];
        let mut converged = false;
        let mut iterations = 0;
        let mut assigned: Vec<(u32, S)> = Vec::with_capacity(n);
        // Fused/delta state: per-cluster accumulators (delta keeps them
        // across iterations — global sums of the last full/partial
        // recompute), the previous labels and the touched-row set.
        let mut sums: Vec<S> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        if config.update != UpdateMode::TwoPass {
            sums = vec![S::ZERO; k * d];
            counts = vec![0u64; k];
        }
        let mut prev_labels: Vec<u32> = Vec::new();
        let mut touched = TouchedSet::new(if config.update == UpdateMode::Delta {
            k
        } else {
            0
        });
        // One planner for the whole run: norms (and the GEMM kernel's
        // packed panels) carry over between iterations, refreshed only for
        // rows whose bits moved — which on a delta run's convergence tail
        // is a small minority. The Scalar kernel's plan path stays
        // bit-identical to the historical per-sample `argmin_centroid`
        // scan.
        let mut planner = AssignPlanner::new(config.kernel, LDM_BYTES_DEFAULT);
        // Bounded assign: a per-sample bound state filters rows whose
        // argmin provably didn't change, and the survivors go through the
        // same plan. Results are bitwise-identical to the unbounded run;
        // under bounds the Fused mode accumulates with the two-pass sweep
        // (the filtered rows break the fused fold's ascending sample
        // order, and the two sweeps are bitwise-equivalent anyway).
        let bounds_mode = config.bounds.resolve_local(k);
        let mut bound_state: Option<BoundState<S>> = match bounds_mode {
            BoundsMode::None => None,
            mode => Some(BoundState::new(mode, n, k, d)),
        };
        let mut bscratch = BoundsScratch::default();
        let mut drifts: Vec<f64> = Vec::new();
        let mut bprev_labels: Vec<u32> = Vec::new();
        for _ in 0..config.max_iters {
            let plan = planner.plan(&current);
            assigned.clear();
            let fuse_inline = config.update == UpdateMode::Fused && bound_state.is_none();
            if fuse_inline {
                sums.fill(S::ZERO);
                counts.fill(0);
                plan.assign_accumulate_into(
                    data,
                    0..n,
                    &current,
                    0..k,
                    0,
                    &mut assigned,
                    &mut sums,
                    &mut counts,
                );
            } else if let Some(st) = &mut bound_state {
                st.assign_serial(&plan, data, 0..n, &current, &mut assigned, &mut bscratch);
            } else {
                plan.assign_batch_into(data, 0..n, &current, 0..k, 0, &mut assigned);
            }
            for (label, &(j, _)) in labels.iter_mut().zip(&assigned) {
                *label = j;
            }
            let shift;
            match config.update {
                UpdateMode::TwoPass => {
                    update_step(data, &labels, &current, &mut next);
                    shift = max_centroid_shift(&current, &next);
                }
                UpdateMode::Fused => {
                    if fuse_inline {
                        divide_rows_into(&sums, &counts, &current, &mut next, 0..k);
                    } else {
                        update_step(data, &labels, &current, &mut next);
                    }
                    shift = max_centroid_shift(&current, &next);
                }
                UpdateMode::Delta => {
                    let first = iterations == 0;
                    let mut moved = n as u64;
                    if !first {
                        touched.clear();
                        moved = 0;
                        for (&new, &old) in labels.iter().zip(&prev_labels) {
                            if new != old {
                                moved += 1;
                                touched.mark(old as usize);
                                touched.mark(new as usize);
                            }
                        }
                    }
                    if first || moved as f64 / n as f64 >= DELTA_FALLBACK_FRACTION {
                        // Fall back to a full recompute: the sparse path
                        // would touch most rows anyway.
                        sums.fill(S::ZERO);
                        counts.fill(0);
                        for (i, &label) in labels.iter().enumerate() {
                            let j = label as usize;
                            counts[j] += 1;
                            for (a, &x) in sums[j * d..(j + 1) * d].iter_mut().zip(data.row(i)) {
                                *a += x;
                            }
                        }
                        divide_rows_into(&sums, &counts, &current, &mut next, 0..k);
                        shift = max_centroid_shift(&current, &next);
                    } else {
                        // Recompute exactly the touched rows, from scratch,
                        // in ascending sample order — the same fold sequence
                        // the two-pass sweep produces for those rows — and
                        // keep every untouched row bitwise as-is.
                        for j in touched.iter() {
                            counts[j] = 0;
                            sums[j * d..(j + 1) * d].fill(S::ZERO);
                        }
                        for (i, &label) in labels.iter().enumerate() {
                            let j = label as usize;
                            if touched.contains(j) {
                                counts[j] += 1;
                                for (a, &x) in sums[j * d..(j + 1) * d].iter_mut().zip(data.row(i))
                                {
                                    *a += x;
                                }
                            }
                        }
                        for j in 0..k {
                            if !touched.contains(j) {
                                next.row_mut(j).copy_from_slice(current.row(j));
                            }
                        }
                        divide_rows_into(&sums, &counts, &current, &mut next, touched.iter());
                        shift = max_centroid_shift_touched(&current, &next, &touched);
                    }
                    prev_labels.clear();
                    prev_labels.extend_from_slice(&labels);
                }
            }
            if let Some(st) = &mut bound_state {
                // Moved fraction drives engagement; drifts (current → next)
                // loosen the bounds before the next Assign consumes them.
                let moved = if bprev_labels.is_empty() {
                    1.0
                } else {
                    let m = labels
                        .iter()
                        .zip(&bprev_labels)
                        .filter(|(a, b)| a != b)
                        .count();
                    m as f64 / n as f64
                };
                bprev_labels.clear();
                bprev_labels.extend_from_slice(&labels);
                if st.seeded() {
                    centroid_drifts(&current, &next, &mut drifts);
                    st.loosen(&drifts);
                }
                st.note_moved_fraction(moved);
            }
            iterations += 1;
            std::mem::swap(&mut current, &mut next);
            if shift <= config.tol {
                converged = true;
                break;
            }
        }
        // Labels correspond to the centroids used in the last Assign; do a
        // final Assign so labels and returned centroids agree.
        let objective = assign_step(data, &current, &mut labels) / n as f64;
        Ok(KMeansResult {
            centroids: current,
            labels,
            iterations,
            objective,
            converged,
            bounds: bound_state.map(|s| s.stats).unwrap_or_default(),
        })
    }

    fn validate<S: Scalar>(data: &Matrix<S>, k: usize) -> Result<(), KMeansError> {
        if data.rows() == 0 {
            return Err(KMeansError::EmptyDataset);
        }
        if k == 0 {
            return Err(KMeansError::ZeroK);
        }
        if k > data.rows() {
            return Err(KMeansError::KExceedsN { k, n: data.rows() });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Matrix<f64> {
        let mut data = Vec::new();
        for i in 0..60 {
            let j = (i % 10) as f64 * 0.02;
            match i % 3 {
                0 => data.extend([j, j]),
                1 => data.extend([8.0 + j, j]),
                _ => data.extend([j, 8.0 + j]),
            }
        }
        Matrix::from_vec(60, 2, data)
    }

    /// The loop `assign_step` replaced: a serial `argmin_centroid` scan
    /// with the f64 sum taken in sample order.
    fn serial_assign<S: Scalar>(data: &Matrix<S>, centroids: &Matrix<S>) -> (Vec<u32>, f64) {
        let mut total = 0.0f64;
        let labels = (0..data.rows())
            .map(|i| {
                let (j, d) = crate::distance::argmin_centroid(data.row(i), centroids);
                total += d.to_f64();
                j as u32
            })
            .collect();
        (labels, total)
    }

    fn ramp<S: Scalar>(rows: usize, cols: usize, salt: usize) -> Matrix<S> {
        let flat = (0..rows * cols)
            .map(|i| S::from_f64((((i * 7919 + salt * 104729) % 2003) as f64 - 1001.0) / 97.0))
            .collect();
        Matrix::from_vec(rows, cols, flat)
    }

    #[test]
    fn assign_step_is_the_serial_scan_for_any_chunk_count() {
        // 1 003 rows: no chunk count below divides it, so every split has
        // a ragged last chunk.
        let data = ramp::<f32>(1003, 19, 1);
        let centroids = ramp::<f32>(21, 19, 2);
        let (want_labels, want_total) = serial_assign(&data, &centroids);
        for parts in [1, 2, 3, 7] {
            let mut labels = vec![u32::MAX; 1003];
            let total = assign_step_parts(&data, &centroids, &mut labels, parts);
            assert_eq!(labels, want_labels, "parts {parts}");
            assert_eq!(total.to_bits(), want_total.to_bits(), "parts {parts}");
        }
        let mut labels = vec![u32::MAX; 1003];
        let total = assign_step(&data, &centroids, &mut labels);
        assert_eq!(
            (labels, total.to_bits()),
            (want_labels, want_total.to_bits())
        );
    }

    #[test]
    fn assign_step_keeps_its_answers_on_degenerate_shapes() {
        // d == 0: every distance is the empty sum, centroid 0 wins.
        let mut labels = vec![9u32; 5];
        let zero_wide = Matrix::<f32>::zeros(5, 0);
        assert_eq!(
            assign_step(&zero_wide, &Matrix::zeros(3, 0), &mut labels),
            0.0
        );
        assert_eq!(labels, [0; 5]);
        // k == 1.
        let data = ramp::<f64>(11, 3, 3);
        let one = ramp::<f64>(1, 3, 4);
        let mut labels = vec![9u32; 11];
        let total = assign_step(&data, &one, &mut labels);
        assert_eq!((labels, total.to_bits()), {
            let (l, t) = serial_assign(&data, &one);
            (l, t.to_bits())
        });
        // Fewer rows than chunks: no empty chunk is spawned or indexed.
        let centroids = ramp::<f64>(4, 3, 5);
        for n in [1, 2, 5] {
            let few = ramp::<f64>(n, 3, 6);
            let mut labels = vec![9u32; n];
            let total = assign_step_parts(&few, &centroids, &mut labels, 7);
            let (want_labels, want_total) = serial_assign(&few, &centroids);
            assert_eq!(
                (labels, total.to_bits()),
                (want_labels, want_total.to_bits()),
                "n {n}"
            );
        }
        // No rows at all: nothing to scan, whatever the centroids are.
        assert_eq!(
            assign_step(&Matrix::<f32>::zeros(0, 4), &Matrix::zeros(0, 4), &mut []),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "no centroids")]
    fn assign_step_rejects_an_empty_centroid_set() {
        let _ = assign_step(
            &Matrix::<f32>::zeros(2, 4),
            &Matrix::zeros(0, 4),
            &mut [0; 2],
        );
    }

    #[test]
    fn converges_on_blobs() {
        let data = blobs();
        let cfg = KMeansConfig::new(3).with_seed(1);
        let res = Lloyd::run(&data, &cfg).unwrap();
        assert!(res.converged);
        assert!(res.iterations < 20);
        assert!(res.objective < 0.1, "objective {}", res.objective);
        // Each blob ends as one pure cluster.
        for i in 0..60 {
            assert_eq!(res.labels[i], res.labels[i % 3], "sample {i}");
        }
    }

    #[test]
    fn objective_is_non_increasing() {
        let data = blobs();
        let centroids = init_centroids(&data, 3, InitMethod::Forgy, 42);
        let mut current = centroids;
        let mut next = Matrix::<f64>::zeros(3, 2);
        let mut labels = vec![0u32; data.rows()];
        let mut prev_obj = f64::INFINITY;
        for _ in 0..10 {
            let obj = assign_step(&data, &current, &mut labels) / data.rows() as f64;
            assert!(
                obj <= prev_obj + 1e-12,
                "objective increased: {prev_obj} -> {obj}"
            );
            prev_obj = obj;
            update_step(&data, &labels, &current, &mut next);
            std::mem::swap(&mut current, &mut next);
        }
    }

    #[test]
    fn empty_cluster_keeps_previous_centroid() {
        let data = Matrix::from_rows(&[&[0.0f64], &[1.0]]);
        let prev = Matrix::from_rows(&[&[0.5f64], &[100.0]]);
        let mut next = Matrix::<f64>::zeros(2, 1);
        // Both samples are nearest to centroid 0.
        let mut labels = vec![0u32; 2];
        assign_step(&data, &prev, &mut labels);
        assert_eq!(labels, vec![0, 0]);
        let counts = update_step(&data, &labels, &prev, &mut next);
        assert_eq!(counts, vec![2, 0]);
        assert_eq!(next.get(0, 0), 0.5);
        assert_eq!(next.get(1, 0), 100.0); // kept
    }

    #[test]
    fn run_from_requires_matching_shape() {
        let data = blobs();
        let bad = Matrix::<f64>::zeros(3, 5);
        let err = Lloyd::run_from(&data, bad, &KMeansConfig::new(3)).unwrap_err();
        assert!(matches!(err, KMeansError::CentroidShape { .. }));
    }

    #[test]
    fn validation_errors() {
        let empty = Matrix::<f64>::zeros(0, 2);
        assert_eq!(
            Lloyd::run(&empty, &KMeansConfig::new(1)).unwrap_err(),
            KMeansError::EmptyDataset
        );
        let data = blobs();
        assert_eq!(
            Lloyd::run(&data, &KMeansConfig::new(0)).unwrap_err(),
            KMeansError::ZeroK
        );
        assert!(matches!(
            Lloyd::run(&data, &KMeansConfig::new(61)).unwrap_err(),
            KMeansError::KExceedsN { .. }
        ));
    }

    #[test]
    fn max_iters_caps_work() {
        let data = blobs();
        let cfg = KMeansConfig::new(3).with_max_iters(1).with_seed(9);
        let res = Lloyd::run(&data, &cfg).unwrap();
        assert_eq!(res.iterations, 1);
    }

    #[test]
    fn single_cluster_centers_on_mean() {
        let data = Matrix::from_rows(&[&[1.0f64, 0.0], &[3.0, 0.0], &[5.0, 6.0]]);
        let res = Lloyd::run(&data, &KMeansConfig::new(1)).unwrap();
        assert!((res.centroids.get(0, 0) - 3.0).abs() < 1e-12);
        assert!((res.centroids.get(0, 1) - 2.0).abs() < 1e-12);
        assert_eq!(res.labels, vec![0, 0, 0]);
    }

    #[test]
    fn k_equals_n_pins_each_sample() {
        let data = Matrix::from_rows(&[&[0.0f64], &[10.0], &[20.0]]);
        let cfg = KMeansConfig::new(3).with_seed(4);
        let res = Lloyd::run(&data, &cfg).unwrap();
        assert!(res.objective < 1e-12);
        let mut sorted: Vec<u32> = res.labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "each sample its own cluster");
    }

    #[test]
    fn labels_match_final_centroids() {
        let data = blobs();
        let cfg = KMeansConfig::new(3).with_seed(2).with_max_iters(3);
        let res = Lloyd::run(&data, &cfg).unwrap();
        let mut labels = vec![0u32; data.rows()];
        assign_step(&data, &res.centroids, &mut labels);
        assert_eq!(labels, res.labels);
    }

    #[test]
    fn expanded_and_tiled_kernels_reach_the_same_fit() {
        let data = blobs();
        let reference = Lloyd::run(&data, &KMeansConfig::new(3).with_seed(1)).unwrap();
        for kernel in [
            AssignKernel::Expanded,
            AssignKernel::Tiled,
            AssignKernel::Gemm,
        ] {
            let cfg = KMeansConfig::new(3).with_seed(1).with_kernel(kernel);
            let res = Lloyd::run(&data, &cfg).unwrap();
            // A near-tie early on may permute cluster identities, so compare
            // the induced partition and the objective, not raw label ids.
            for i in 0..res.labels.len() {
                for j in 0..i {
                    assert_eq!(
                        res.labels[i] == res.labels[j],
                        reference.labels[i] == reference.labels[j],
                        "{kernel}: samples {i},{j} split differently"
                    );
                }
            }
            assert!((res.objective - reference.objective).abs() < 1e-9);
        }
    }

    #[test]
    fn fused_and_delta_match_twopass_bitwise() {
        let data = blobs();
        for kernel in AssignKernel::ALL {
            let base = KMeansConfig::new(3).with_seed(1).with_kernel(kernel);
            let reference = Lloyd::run(&data, &base).unwrap();
            for update in [UpdateMode::Fused, UpdateMode::Delta] {
                let res = Lloyd::run(&data, &base.with_update(update)).unwrap();
                assert_eq!(res.labels, reference.labels, "{kernel}/{update}");
                assert_eq!(res.iterations, reference.iterations, "{kernel}/{update}");
                assert_eq!(res.converged, reference.converged, "{kernel}/{update}");
                assert_eq!(
                    res.objective.to_bits(),
                    reference.objective.to_bits(),
                    "{kernel}/{update}: objective differs"
                );
                for j in 0..3 {
                    assert!(
                        res.centroids
                            .row(j)
                            .iter()
                            .zip(reference.centroids.row(j))
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{kernel}/{update}: centroid {j} not bitwise equal"
                    );
                }
            }
        }
    }

    #[test]
    fn delta_handles_empty_clusters_like_twopass() {
        // k = n with a degenerate duplicate sample forces an empty cluster
        // during iteration; the delta path must keep its centroid bitwise.
        let data = Matrix::from_rows(&[&[0.0f64], &[0.0], &[10.0], &[20.0]]);
        let base = KMeansConfig::new(4).with_seed(2).with_max_iters(6);
        let reference = Lloyd::run(&data, &base).unwrap();
        let delta = Lloyd::run(&data, &base.with_update(UpdateMode::Delta)).unwrap();
        assert_eq!(delta.labels, reference.labels);
        assert_eq!(delta.objective.to_bits(), reference.objective.to_bits());
        for j in 0..4 {
            assert_eq!(
                delta.centroids.get(j, 0).to_bits(),
                reference.centroids.get(j, 0).to_bits()
            );
        }
    }

    #[test]
    fn touched_shift_equals_full_shift_under_the_delta_invariant() {
        let a = Matrix::from_rows(&[&[0.0f64, 1.0], &[2.0, 3.0], &[4.0, 5.0]]);
        let mut b = a.clone();
        b.row_mut(1)[0] = 2.5; // only row 1 moves
        let mut touched = TouchedSet::new(3);
        touched.mark(1);
        assert_eq!(
            max_centroid_shift_touched(&a, &b, &touched).to_bits(),
            max_centroid_shift(&a, &b).to_bits()
        );
        // An empty touched set means nothing moved.
        assert_eq!(max_centroid_shift_touched(&a, &a, &TouchedSet::new(3)), 0.0);
    }

    #[test]
    fn bounded_runs_match_unbounded_bitwise() {
        use crate::bounds::BoundsMode;
        // Pseudo-random blobs, big enough that the moved fraction decays
        // over several iterations and the bound state actually engages.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next_f = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 4.0
        };
        let (n, d, k) = (400usize, 6usize, 24usize);
        let mut raw = Vec::with_capacity(n * d);
        for i in 0..n {
            let off = (i % 8) as f64 * 3.0;
            for _ in 0..d {
                raw.push(off + next_f());
            }
        }
        let data = Matrix::from_vec(n, d, raw);
        for kernel in AssignKernel::ALL {
            for update in [UpdateMode::TwoPass, UpdateMode::Fused, UpdateMode::Delta] {
                let base = KMeansConfig::new(k)
                    .with_seed(7)
                    .with_kernel(kernel)
                    .with_update(update)
                    .with_max_iters(16)
                    .with_tol(0.0);
                let reference = Lloyd::run(&data, &base).unwrap();
                for bounds in [BoundsMode::Hamerly, BoundsMode::Yinyang, BoundsMode::Auto] {
                    let res = Lloyd::run(&data, &base.with_bounds(bounds)).unwrap();
                    let tag = format!("{kernel}/{update}/{bounds}");
                    assert_eq!(res.labels, reference.labels, "{tag}");
                    assert_eq!(res.iterations, reference.iterations, "{tag}");
                    assert_eq!(res.converged, reference.converged, "{tag}");
                    assert_eq!(
                        res.objective.to_bits(),
                        reference.objective.to_bits(),
                        "{tag}: objective differs"
                    );
                    for j in 0..k {
                        assert!(
                            res.centroids
                                .row(j)
                                .iter()
                                .zip(reference.centroids.row(j))
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                            "{tag}: centroid {j} not bitwise equal"
                        );
                    }
                    assert!(res.bounds.lloyd_equivalent > 0, "{tag}: no stats");
                }
            }
        }
    }

    #[test]
    fn f32_pipeline_runs() {
        let data: Matrix<f32> = blobs().cast();
        let cfg = KMeansConfig::new(3)
            .with_seed(3)
            .with_init(InitMethod::KMeansPlusPlus);
        let res = Lloyd::run(&data, &cfg).unwrap();
        assert!(res.objective < 0.1);
    }
}
