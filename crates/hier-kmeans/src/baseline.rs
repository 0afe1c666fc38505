//! Shared-memory rayon baseline: the "general parallel k-means" of the
//! paper's Table I, for benchmark comparison against the hierarchical
//! executors and as the fastest way to cluster on a single host.
//!
//! The Assign step fans out over sample chunks with `rayon`; each chunk
//! produces a private `(sums, counts)` accumulator pair that a reduction
//! tree folds — the same map/reduce shape as the distributed levels, minus
//! the message passing.

use crate::executor::{HierError, HierResult};
use kmeans_core::{argmin_centroid, assign_step, Matrix, Scalar};
use rayon::prelude::*;

/// Configuration of the rayon baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineConfig {
    pub max_iters: usize,
    pub tol: f64,
    /// Samples per rayon work item.
    pub chunk: usize,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            max_iters: 100,
            tol: 1e-9,
            chunk: 1024,
        }
    }
}

/// Per-chunk accumulator.
struct Partial<S> {
    sums: Vec<S>,
    counts: Vec<u64>,
}

impl<S: Scalar> Partial<S> {
    fn new(k: usize, d: usize) -> Self {
        Partial {
            sums: vec![S::ZERO; k * d],
            counts: vec![0u64; k],
        }
    }

    fn merge(mut self, other: Partial<S>) -> Partial<S> {
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += *b;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self
    }
}

/// Run Lloyd iterations with rayon-parallel Assign/Update.
pub fn run<S: Scalar>(
    data: &Matrix<S>,
    init: Matrix<S>,
    cfg: &BaselineConfig,
) -> Result<HierResult<S>, HierError> {
    crate::executor::validate(
        data,
        &init,
        &crate::executor::HierConfig::new(perf_model::Level::L1),
    )?;
    let n = data.rows();
    let d = data.cols();
    let k = init.rows();
    let mut centroids = init;
    let mut iterations = 0usize;
    let mut converged = false;

    for _ in 0..cfg.max_iters {
        let chunk = cfg.chunk.max(1);
        let partial = (0..n)
            .into_par_iter()
            .chunks(chunk)
            .map(|indices| {
                let mut p = Partial::<S>::new(k, d);
                for i in indices {
                    let (j, _) = argmin_centroid(data.row(i), &centroids);
                    p.counts[j] += 1;
                    let acc = &mut p.sums[j * d..(j + 1) * d];
                    for (a, x) in acc.iter_mut().zip(data.row(i)) {
                        *a += *x;
                    }
                }
                p
            })
            .reduce(|| Partial::new(k, d), Partial::merge);

        let mut worst_shift_sq = 0.0f64;
        for j in 0..k {
            if partial.counts[j] == 0 {
                continue;
            }
            let inv = S::ONE / S::from_usize(partial.counts[j] as usize);
            let mut shift_sq = 0.0f64;
            for u in 0..d {
                let next = partial.sums[j * d + u] * inv;
                let diff = next.to_f64() - centroids.get(j, u).to_f64();
                shift_sq += diff * diff;
                centroids.set(j, u, next);
            }
            worst_shift_sq = worst_shift_sq.max(shift_sq);
        }
        iterations += 1;
        if worst_shift_sq.sqrt() <= cfg.tol {
            converged = true;
            break;
        }
    }

    let mut labels = vec![0u32; n];
    let final_assign = std::time::Instant::now();
    let objective = assign_step(data, &centroids, &mut labels) / n as f64;
    let final_assign_s = final_assign.elapsed().as_secs_f64();
    Ok(HierResult {
        centroids,
        labels,
        iterations,
        converged,
        objective,
        comm_bytes: 0,
        comm_messages: 0,
        timings: crate::executor::PhaseTimings::default(),
        trace: crate::executor::TrainTrace::default(),
        comm: msg::CostLog::new(),
        kernel: kmeans_core::AssignKernel::Scalar,
        update: kmeans_core::UpdateMode::TwoPass,
        merge_ring: false,
        fault_stats: msg::FaultStats::new(),
        degraded_iterations: 0,
        bounds_mode: kmeans_core::BoundsMode::None,
        bounds: kmeans_core::BoundsStats::default(),
        final_assign_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmeans_core::{init_centroids, InitMethod, KMeansConfig, Lloyd};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_data(n: usize, d: usize, seed: u64) -> Matrix<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let flat: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-5.0..5.0)).collect();
        Matrix::from_vec(n, d, flat)
    }

    #[test]
    fn matches_serial_lloyd() {
        let data = random_data(500, 8, 77);
        let init = init_centroids(&data, 9, InitMethod::Forgy, 31);
        let cfg = BaselineConfig {
            max_iters: 6,
            tol: 0.0,
            chunk: 64,
        };
        let par = run(&data, init.clone(), &cfg).unwrap();
        let serial = Lloyd::run_from(
            &data,
            init,
            &KMeansConfig::new(9).with_max_iters(6).with_tol(0.0),
        )
        .unwrap();
        assert!(
            par.centroids.max_abs_diff(&serial.centroids) < 1e-9,
            "diff {}",
            par.centroids.max_abs_diff(&serial.centroids)
        );
        assert_eq!(par.labels, serial.labels);
        assert_eq!(par.iterations, serial.iterations);
    }

    #[test]
    fn chunk_size_does_not_change_result() {
        let data = random_data(300, 5, 13);
        let init = init_centroids(&data, 4, InitMethod::Forgy, 5);
        let reference = run(
            &data,
            init.clone(),
            &BaselineConfig {
                max_iters: 5,
                tol: 0.0,
                chunk: 1,
            },
        )
        .unwrap();
        for chunk in [7usize, 100, 1000, 100_000] {
            let r = run(
                &data,
                init.clone(),
                &BaselineConfig {
                    max_iters: 5,
                    tol: 0.0,
                    chunk,
                },
            )
            .unwrap();
            assert!(r.centroids.max_abs_diff(&reference.centroids) < 1e-9);
            assert_eq!(r.labels, reference.labels, "chunk={chunk}");
        }
    }

    #[test]
    fn validates_inputs() {
        let data = Matrix::<f64>::zeros(0, 3);
        assert!(run(&data, Matrix::zeros(1, 3), &BaselineConfig::default()).is_err());
    }

    #[test]
    fn converges() {
        let data = random_data(400, 3, 1);
        let init = init_centroids(&data, 3, InitMethod::KMeansPlusPlus, 2);
        let r = run(&data, init, &BaselineConfig::default()).unwrap();
        assert!(r.converged);
        assert!(r.comm_bytes == 0);
    }
}
