//! Sharded nearest-centroid index — the serving analogue of the paper's
//! k-partition. The centroid set is split into contiguous shards (the same
//! `split_range` arithmetic Level 2 uses to spread centroids over CPE
//! groups); a query fans out across shards in parallel, each shard returns
//! its local argmin, and the partial results merge with the same
//! lowest-index tie-breaking the training assign step uses — so sharded
//! serving with the default kernel is *bit-identical* to a serial full
//! scan.
//!
//! Per-shard scoring routes through the shared [`AssignPlan`] from
//! `kmeans-core`, so serving uses exactly the kernels training uses:
//! [`AssignKernel::Scalar`] (exact subtract-square, the default) and
//! [`AssignKernel::Gemm`] (the norm expansion as a cache-blocked
//! `−2·X·Cᵀ` over packed centroid panels).

use crate::artifact::ModelArtifact;
use crate::error::ServeError;
use hier_kmeans::partition::split_range;
use kmeans_core::{AssignKernel, AssignPlan, Matrix, Scalar};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A single shard's claim on the global argmin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardVote<S> {
    /// Global centroid index of the shard-local winner.
    pub index: usize,
    /// The winner's comparison key (squared distance for
    /// [`AssignKernel::Scalar`]; the expansion `‖x‖² + ‖c‖² − 2·x·c` for
    /// [`AssignKernel::Gemm`] — keys are comparable across shards either
    /// way because `‖x‖²` is computed identically for every shard's vote).
    pub key: S,
}

/// Labels for a batch scanned over the surviving shards, plus how much of
/// the index had to be routed around.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Nearest surviving centroid per row.
    pub labels: Vec<u32>,
    /// Dead shards the scan skipped; nonzero means the labels are a
    /// best-effort answer over a subset of the centroids (degraded).
    pub skipped_shards: usize,
}

/// Immutable, thread-safe nearest-centroid index over sharded centroids.
///
/// Shards carry a liveness flag: [`ShardedIndex::kill_shard`] simulates a
/// shard crash, after which scans re-dispatch to the survivors and report
/// the answer as degraded (see [`BatchOutcome::skipped_shards`]).
#[derive(Debug, Clone)]
pub struct ShardedIndex<S: Scalar> {
    centroids: Matrix<S>,
    shards: Vec<Range<usize>>,
    /// The prepared assign pass (kernel + centroid norms + packed panels),
    /// built once at index construction and amortised over every query.
    plan: AssignPlan<S>,
    /// Per-shard liveness, shared across clones so a kill is observed by
    /// every handle onto the same index.
    alive: Arc<Vec<AtomicBool>>,
}

impl<S: Scalar> ShardedIndex<S> {
    /// Build an index over `num_shards` contiguous centroid shards using
    /// the default [`AssignKernel::Scalar`]. Shard count is clamped to `k`, so
    /// over-sharding a small model is harmless.
    pub fn new(centroids: Matrix<S>, num_shards: usize) -> Self {
        assert!(centroids.rows() > 0, "index needs at least one centroid");
        let parts = num_shards.clamp(1, centroids.rows());
        let shards: Vec<Range<usize>> = (0..parts)
            .map(|i| split_range(centroids.rows(), parts, i))
            .filter(|r| !r.is_empty())
            .collect();
        let plan = AssignPlan::new(AssignKernel::Scalar, &centroids);
        let alive = Arc::new(shards.iter().map(|_| AtomicBool::new(true)).collect());
        ShardedIndex {
            centroids,
            shards,
            plan,
            alive,
        }
    }

    /// Build from a validated artifact.
    pub fn from_artifact(artifact: &ModelArtifact<S>, num_shards: usize) -> Self {
        Self::new(artifact.centroids.clone(), num_shards)
    }

    /// Switch the per-shard kernel; `Gemm` precomputes centroid norms and
    /// packed centroid panels once here, amortised over every subsequent
    /// query.
    pub fn with_kernel(mut self, kernel: AssignKernel) -> Self {
        self.plan = AssignPlan::new(kernel, &self.centroids);
        self
    }

    pub fn k(&self) -> usize {
        self.centroids.rows()
    }

    pub fn dim(&self) -> usize {
        self.centroids.cols()
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn kernel(&self) -> AssignKernel {
        self.plan.kernel()
    }

    pub fn centroids(&self) -> &Matrix<S> {
        &self.centroids
    }

    /// Simulate a shard crash: scans stop consulting the shard and report
    /// degraded answers over the survivors. Returns whether the shard was
    /// alive (idempotent; out-of-range indices are ignored).
    pub fn kill_shard(&self, shard: usize) -> bool {
        self.alive
            .get(shard)
            .is_some_and(|a| a.swap(false, Ordering::SeqCst))
    }

    /// Shards still answering queries.
    pub fn alive_shards(&self) -> usize {
        self.alive
            .iter()
            .filter(|a| a.load(Ordering::SeqCst))
            .count()
    }

    /// Snapshot the surviving shard ranges (one liveness read per shard, so
    /// a whole batch sees one consistent crash picture).
    fn survivors(&self) -> Vec<Range<usize>> {
        self.shards
            .iter()
            .zip(self.alive.iter())
            .filter(|(_, a)| a.load(Ordering::SeqCst))
            .map(|(s, _)| s.clone())
            .collect()
    }

    /// Shard-local argmin with globally comparable key.
    fn shard_vote(&self, sample: &[S], shard: &Range<usize>) -> ShardVote<S> {
        let (index, key) =
            self.plan
                .assign_one(sample, &self.centroids, shard.clone(), shard.start);
        ShardVote {
            index: index as usize,
            key,
        }
    }

    /// Merge shard votes in shard order: strictly smaller key wins, ties
    /// keep the earlier (lower-index) vote — the `assign_step` convention.
    /// `None` means no shard voted (every shard is down) — surfaced as a
    /// typed [`ServeError::AllShardsDown`] by the callers, never a panic.
    fn merge_votes(votes: impl IntoIterator<Item = ShardVote<S>>) -> Option<u32> {
        let mut it = votes.into_iter();
        let mut best = it.next()?;
        for vote in it {
            if vote.key < best.key {
                best = vote;
            }
        }
        Some(best.index as u32)
    }

    /// Nearest-centroid label for a single sample (serial over the
    /// surviving shards), with a degraded marker when dead shards were
    /// skipped.
    pub fn try_assign_one(&self, sample: &[S]) -> Result<(u32, bool), ServeError> {
        assert_eq!(sample.len(), self.dim(), "dimension mismatch");
        let survivors = self.survivors();
        let label = Self::merge_votes(survivors.iter().map(|s| self.shard_vote(sample, s))).ok_or(
            ServeError::AllShardsDown {
                shards: self.shards.len(),
            },
        )?;
        Ok((label, survivors.len() < self.shards.len()))
    }

    /// Nearest-centroid label for a single sample. Panics if every shard
    /// is down; failure-aware callers use [`ShardedIndex::try_assign_one`].
    pub fn assign_one(&self, sample: &[S]) -> u32 {
        self.try_assign_one(sample)
            .unwrap_or_else(|e| panic!("index scan failed: {e}"))
            .0
    }

    /// Labels for a whole batch over the surviving shards, fanning the
    /// shard scans out over the rayon pool: each shard runs the batched
    /// kernel over every row independently, then the per-row votes merge
    /// in shard order. Work per shard is `rows × shard_k × d`, the same
    /// total as a serial scan. Dead shards are skipped (re-dispatch to
    /// survivors) and reported via [`BatchOutcome::skipped_shards`].
    pub fn try_assign_batch(&self, batch: &Matrix<S>) -> Result<BatchOutcome, ServeError> {
        self.try_assign_batch_traced(batch, None)
    }

    /// [`ShardedIndex::try_assign_batch`] with an optional event tracer:
    /// each surviving shard's scan is recorded as an `assign_shard` span
    /// (arg = shard index) tagged with `trace_id`, so a traced request's
    /// pipeline shows the per-shard fan-out inside its `execute` window.
    pub fn try_assign_batch_traced(
        &self,
        batch: &Matrix<S>,
        tracer: Option<(&swkm_obs::Tracer, u64)>,
    ) -> Result<BatchOutcome, ServeError> {
        assert_eq!(batch.cols(), self.dim(), "dimension mismatch");
        let survivors = self.survivors();
        let skipped_shards = self.shards.len() - survivors.len();
        if survivors.is_empty() {
            return Err(ServeError::AllShardsDown {
                shards: self.shards.len(),
            });
        }
        if batch.rows() == 0 {
            return Ok(BatchOutcome {
                labels: Vec::new(),
                skipped_shards,
            });
        }
        let indexed: Vec<(usize, &std::ops::Range<usize>)> = survivors.iter().enumerate().collect();
        let per_shard: Vec<Vec<(u32, S)>> = indexed
            .par_iter()
            .map(|&(shard_idx, shard)| {
                let start = tracer.map(|(t, _)| t.begin());
                let mut votes = Vec::with_capacity(batch.rows());
                self.plan.assign_batch_into(
                    batch,
                    0..batch.rows(),
                    &self.centroids,
                    shard.clone(),
                    shard.start,
                    &mut votes,
                );
                if let (Some((t, trace_id)), Some(start)) = (tracer, start) {
                    t.complete_full("assign_shard", start, trace_id, "shard", shard_idx as u64);
                }
                votes
            })
            .collect();
        let labels = (0..batch.rows())
            .map(|i| {
                Self::merge_votes(per_shard.iter().map(|votes| ShardVote {
                    index: votes[i].0 as usize,
                    key: votes[i].1,
                }))
                .expect("survivors is non-empty")
            })
            .collect();
        Ok(BatchOutcome {
            labels,
            skipped_shards,
        })
    }

    /// Labels for a whole batch. Panics if every shard is down;
    /// failure-aware callers use [`ShardedIndex::try_assign_batch`].
    pub fn assign_batch(&self, batch: &Matrix<S>) -> Vec<u32> {
        self.try_assign_batch(batch)
            .unwrap_or_else(|e| panic!("index scan failed: {e}"))
            .labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmeans_core::argmin_centroid;

    fn grid_centroids(k: usize, d: usize) -> Matrix<f64> {
        let data = (0..k * d).map(|i| (i % 17) as f64 * 0.25 - 2.0).collect();
        Matrix::from_vec(k, d, data)
    }

    #[test]
    fn sharded_matches_serial_scan_exactly() {
        let centroids = grid_centroids(23, 7);
        let samples = grid_centroids(50, 7);
        for shards in [1, 2, 3, 8, 23, 64] {
            let index = ShardedIndex::new(centroids.clone(), shards);
            let labels = index.assign_batch(&samples);
            for (i, row) in samples.iter_rows().enumerate() {
                let (serial, _) = argmin_centroid(row, &centroids);
                assert_eq!(labels[i], serial as u32, "shards={shards} row={i}");
            }
        }
    }

    #[test]
    fn ties_break_to_lowest_index_across_shard_boundaries() {
        // Duplicate centroids in different shards: the lower global index
        // must win, exactly as in a serial scan — under every kernel.
        let centroids = Matrix::from_rows(&[&[5.0f64, 5.0], &[1.0, 1.0], &[1.0, 1.0], &[9.0, 9.0]]);
        for kernel in AssignKernel::ALL {
            for shards in [1, 2, 4] {
                let index = ShardedIndex::new(centroids.clone(), shards).with_kernel(kernel);
                assert_eq!(index.assign_one(&[1.0, 1.0]), 1, "{kernel} shards={shards}");
            }
        }
    }

    #[test]
    fn gemm_kernel_agrees_on_well_separated_data() {
        let centroids = Matrix::from_rows(&[&[0.0f64, 0.0], &[10.0, 0.0], &[0.0, 10.0]]);
        let exact = ShardedIndex::new(centroids.clone(), 2);
        let fast = ShardedIndex::new(centroids.clone(), 2).with_kernel(AssignKernel::Gemm);
        assert_eq!(fast.kernel(), AssignKernel::Gemm);
        for sample in [[1.0, 1.0], [9.0, 1.0], [1.0, 9.0], [-3.0, -3.0]] {
            assert_eq!(exact.assign_one(&sample), fast.assign_one(&sample));
        }
    }

    #[test]
    fn batch_matches_per_sample_path_under_every_kernel() {
        let centroids = grid_centroids(13, 5);
        let samples = grid_centroids(40, 5);
        for kernel in AssignKernel::ALL {
            let index = ShardedIndex::new(centroids.clone(), 3).with_kernel(kernel);
            let batched = index.assign_batch(&samples);
            for (i, row) in samples.iter_rows().enumerate() {
                assert_eq!(batched[i], index.assign_one(row), "{kernel} row={i}");
            }
        }
    }

    #[test]
    fn over_sharding_clamps_to_k() {
        let index = ShardedIndex::new(grid_centroids(3, 2), 100);
        assert_eq!(index.num_shards(), 3);
        assert_eq!(index.k(), 3);
    }

    #[test]
    fn single_centroid_always_wins() {
        let index = ShardedIndex::new(Matrix::from_rows(&[&[1.0f64, 2.0]]), 4);
        assert_eq!(index.assign_one(&[100.0, -50.0]), 0);
        assert_eq!(index.num_shards(), 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        let index = ShardedIndex::new(grid_centroids(4, 3), 2);
        assert!(index.assign_batch(&Matrix::<f64>::zeros(0, 3)).is_empty());
    }

    #[test]
    fn killed_shard_fails_over_to_survivors() {
        // Two well-separated centroids in separate shards: killing the
        // shard that owns the true winner re-dispatches to the survivor,
        // which answers with its own (farther) centroid, marked degraded.
        let centroids = Matrix::from_rows(&[&[0.0f64, 0.0], &[10.0, 10.0]]);
        let index = ShardedIndex::new(centroids, 2);
        assert_eq!(index.num_shards(), 2);
        assert_eq!(index.try_assign_one(&[0.1, 0.1]).unwrap(), (0, false));
        assert!(index.kill_shard(0), "first kill reports the live shard");
        assert!(!index.kill_shard(0), "kill is idempotent");
        assert_eq!(index.alive_shards(), 1);
        assert_eq!(index.try_assign_one(&[0.1, 0.1]).unwrap(), (1, true));
        let out = index
            .try_assign_batch(&Matrix::from_rows(&[&[0.1f64, 0.1], &[9.0, 9.0]]))
            .unwrap();
        assert_eq!(out.labels, vec![1, 1]);
        assert_eq!(out.skipped_shards, 1);
    }

    #[test]
    fn all_shards_down_is_a_typed_error_not_a_panic() {
        // Regression for the unwrap()/expect() audit: merge_votes used to
        // `expect("at least one shard")`; with every shard dead it must
        // now surface ServeError::AllShardsDown.
        let index = ShardedIndex::new(grid_centroids(4, 3), 2);
        index.kill_shard(0);
        index.kill_shard(1);
        assert_eq!(index.alive_shards(), 0);
        let err = index.try_assign_one(&[0.0, 0.0, 0.0]).unwrap_err();
        assert_eq!(err, crate::error::ServeError::AllShardsDown { shards: 2 });
        let err = index
            .try_assign_batch(&Matrix::from_rows(&[&[0.0f64, 0.0, 0.0]]))
            .unwrap_err();
        assert_eq!(err, crate::error::ServeError::AllShardsDown { shards: 2 });
    }

    #[test]
    fn kills_propagate_through_clones() {
        let index = ShardedIndex::new(grid_centroids(4, 2), 2);
        let clone = index.clone();
        index.kill_shard(1);
        assert_eq!(clone.alive_shards(), 1);
    }
}
