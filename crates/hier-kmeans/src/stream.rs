//! Out-of-core execution: exact Lloyd over a [`SampleSource`] that is never
//! materialised.
//!
//! This is the software analogue of what the real machine does physically:
//! samples stream through each CPE's double-buffered LDM via DMA, one
//! window at a time, while centroid shards stay resident. Each SPMD rank
//! owns a contiguous stripe of the source and pulls it in windows of
//! `window` samples; the per-window partial argmins merge across the
//! centroid-sharing group with one min-loc AllReduce (the Level-2/3
//! pattern), and the Update step reduces shards across groups. Results are
//! identical to the in-memory executors — only the residency differs.

use crate::executor::{HierError, HierResult};
use crate::level1::sum_slices;
use crate::level2::{merge_min_loc, MINLOC_NEUTRAL};
use crate::partition::split_range;
use kmeans_core::{argmin_centroid, assign_step, Matrix, SampleSource};
use msg::World;

/// Configuration of a streaming run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// SPMD ranks (virtual CPEs / CGs).
    pub units: usize,
    /// Units per centroid-sharing group (1 = pure dataflow partition).
    pub group_units: usize,
    /// Samples materialised per window per rank — the LDM double-buffer
    /// size of the real machine.
    pub window: usize,
    pub max_iters: usize,
    pub tol: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            units: 8,
            group_units: 2,
            window: 1_024,
            max_iters: 100,
            tol: 1e-9,
        }
    }
}

/// Cluster a streaming source from explicit initial centroids.
pub fn fit_source<Src: SampleSource + Sync>(
    source: &Src,
    init: Matrix<f32>,
    cfg: &StreamConfig,
) -> Result<HierResult<f32>, HierError> {
    let n = source.len() as usize;
    let d = source.dims();
    let k = init.rows();
    if n == 0 {
        return Err(kmeans_core::KMeansError::EmptyDataset.into());
    }
    if k == 0 {
        return Err(kmeans_core::KMeansError::ZeroK.into());
    }
    if init.cols() != d {
        return Err(kmeans_core::KMeansError::CentroidShape {
            expected_k: k,
            expected_d: d,
            got_rows: init.rows(),
            got_cols: init.cols(),
        }
        .into());
    }
    if cfg.units == 0 || cfg.group_units == 0 || !cfg.units.is_multiple_of(cfg.group_units) {
        return Err(HierError::InvalidConfig(format!(
            "units {} must be a positive multiple of group_units {}",
            cfg.units, cfg.group_units
        )));
    }
    if cfg.window == 0 {
        return Err(HierError::InvalidConfig("window must be positive".into()));
    }
    let g = cfg.group_units;
    let n_groups = cfg.units / g;

    let (outs, costs) = World::run_with_cost(cfg.units, |comm| {
        let rank = comm.rank();
        let group = rank / g;
        let member = rank % g;
        let mut group_comm = comm.split(group as u64, member as u64);
        let mut shard_comm = comm.split(member as u64, group as u64);

        let my_centroids = split_range(k, g, member);
        let my_samples = split_range(n, n_groups, group);
        let shard_k = my_centroids.len();
        let mut shard = init.slice_rows(my_centroids.clone());

        let mut iterations = 0usize;
        let mut converged = false;
        let mut sums = vec![0.0f32; shard_k * d];
        let mut counts = vec![0u64; shard_k];
        let mut window_buf = Matrix::<f32>::zeros(cfg.window, d);

        for _ in 0..cfg.max_iters {
            sums.iter_mut().for_each(|v| *v = 0.0);
            counts.iter_mut().for_each(|v| *v = 0);

            // ---- Stream the stripe window by window. ----
            let mut start = my_samples.start;
            while start < my_samples.end {
                let len = cfg.window.min(my_samples.end - start);
                // "DMA" the window in: fill the resident double buffer.
                for w in 0..len {
                    source.fill((start + w) as u64, window_buf.row_mut(w));
                }
                // Partial argmin over my shard for the whole window.
                let mut pairs: Vec<(f64, u64)> = (0..len)
                    .map(|w| {
                        if shard_k == 0 {
                            MINLOC_NEUTRAL
                        } else {
                            let (j_local, dist) = argmin_centroid(window_buf.row(w), &shard);
                            (dist as f64, (my_centroids.start + j_local) as u64)
                        }
                    })
                    .collect();
                merge_min_loc::<f32>(&mut group_comm, &mut pairs)
                    .unwrap_or_else(|e| panic!("stream min-loc merge failed: {e}"));
                // Accumulate winners in my shard.
                for (w, &(_, j)) in pairs.iter().enumerate() {
                    let j = j as usize;
                    if my_centroids.contains(&j) {
                        let j_local = j - my_centroids.start;
                        counts[j_local] += 1;
                        let acc = &mut sums[j_local * d..(j_local + 1) * d];
                        for (a, x) in acc.iter_mut().zip(window_buf.row(w)) {
                            *a += *x;
                        }
                    }
                }
                start += len;
            }

            // ---- Update across groups. ----
            shard_comm.allreduce_with(&mut sums, sum_slices::<f32>);
            shard_comm.allreduce_sum_u64(&mut counts);
            let mut worst_shift_sq = 0.0f64;
            for j_local in 0..shard_k {
                if counts[j_local] == 0 {
                    continue;
                }
                let inv = 1.0f32 / counts[j_local] as f32;
                let mut shift_sq = 0.0f64;
                for u in 0..d {
                    let next = sums[j_local * d + u] * inv;
                    let diff = (next - shard.get(j_local, u)) as f64;
                    shift_sq += diff * diff;
                    shard.set(j_local, u, next);
                }
                worst_shift_sq = worst_shift_sq.max(shift_sq);
            }
            let mut shift = vec![worst_shift_sq];
            comm.allreduce_with(&mut shift, |acc, x| {
                acc[0] = acc[0].max(x[0]);
            });
            iterations += 1;
            if shift[0].sqrt() <= cfg.tol {
                converged = true;
                break;
            }
        }

        let contribution = (group == 0).then(|| (my_centroids.start, shard.clone().into_vec()));
        let gathered = comm.gather(0, contribution);
        let full = gathered.map(|parts| {
            let mut flat = vec![0.0f32; k * d];
            for (start, rows) in parts.into_iter().flatten() {
                flat[start * d..start * d + rows.len()].copy_from_slice(&rows);
            }
            Matrix::from_vec(k, d, flat)
        });
        (full, iterations, converged)
    });

    // Assemble, then stream one final labelling pass.
    let mut iterations = 0;
    let mut converged = false;
    let mut centroids = None;
    for (c, iters, conv) in outs {
        if let Some(c) = c {
            centroids = Some(c);
            iterations = iters;
            converged = conv;
        }
    }
    let centroids = centroids.expect("no rank returned centroids");
    let mut labels = vec![0u32; n];
    let mut objective_sum = 0.0f64;
    let window = cfg.window;
    let mut buf = Matrix::<f32>::zeros(window, d);
    let mut start = 0usize;
    let final_assign = std::time::Instant::now();
    while start < n {
        let len = window.min(n - start);
        for w in 0..len {
            source.fill((start + w) as u64, buf.row_mut(w));
        }
        let chunk = buf.slice_rows(0..len);
        objective_sum += assign_step(&chunk, &centroids, &mut labels[start..start + len]);
        start += len;
    }
    let final_assign_s = final_assign.elapsed().as_secs_f64();
    Ok(HierResult {
        centroids,
        labels,
        iterations,
        converged,
        objective: objective_sum / n as f64,
        comm_bytes: costs.iter().map(|c| c.total_bytes()).sum(),
        comm_messages: costs.iter().map(|c| c.total_messages()).sum(),
        timings: crate::executor::PhaseTimings::default(),
        trace: crate::executor::TrainTrace::default(),
        comm: {
            let mut merged = msg::CostLog::new();
            for c in &costs {
                merged.merge(c);
            }
            merged
        },
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
    use kmeans_core::{init_centroids, InitMethod, KMeansConfig, Lloyd, MatrixSource};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_data(n: usize, d: usize, seed: u64) -> Matrix<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let flat: Vec<f32> = (0..n * d).map(|_| rng.gen_range(-5.0..5.0)).collect();
        Matrix::from_vec(n, d, flat)
    }

    #[test]
    fn streaming_matches_in_memory_lloyd() {
        let data = random_data(500, 12, 3);
        let init = init_centroids(&data, 7, InitMethod::Forgy, 5);
        let src = MatrixSource::new(&data);
        let cfg = StreamConfig {
            units: 8,
            group_units: 4,
            window: 64,
            max_iters: 5,
            tol: 0.0,
        };
        let streamed = fit_source(&src, init.clone(), &cfg).unwrap();
        let serial = Lloyd::run_from(
            &data,
            init,
            &KMeansConfig::new(7).with_max_iters(5).with_tol(0.0),
        )
        .unwrap();
        let diff = streamed.centroids.max_abs_diff(&serial.centroids);
        assert!(diff < 1e-3, "diff {diff}"); // f32 accumulation-order tolerance
        assert_eq!(streamed.labels, serial.labels);
        assert_eq!(streamed.iterations, serial.iterations);
    }

    #[test]
    fn window_size_does_not_change_result() {
        let data = random_data(300, 8, 9);
        let init = init_centroids(&data, 5, InitMethod::Forgy, 2);
        let src = MatrixSource::new(&data);
        let reference = fit_source(
            &src,
            init.clone(),
            &StreamConfig {
                units: 4,
                group_units: 2,
                window: 1,
                max_iters: 4,
                tol: 0.0,
            },
        )
        .unwrap();
        for window in [7usize, 50, 1_000] {
            let r = fit_source(
                &src,
                init.clone(),
                &StreamConfig {
                    units: 4,
                    group_units: 2,
                    window,
                    max_iters: 4,
                    tol: 0.0,
                },
            )
            .unwrap();
            assert!(
                r.centroids.max_abs_diff(&reference.centroids) < 1e-4,
                "window={window}"
            );
            assert_eq!(r.labels, reference.labels, "window={window}");
        }
    }

    #[test]
    fn clusters_a_virtual_imagenet_window() {
        // The whole point: cluster a source that is never materialised.
        let src = datasets::ImageNetSource::new(400, 3_072, 13);
        let sample = src.materialize(0, 32);
        let init = init_centroids(&sample, 6, InitMethod::KMeansPlusPlus, 3);
        let cfg = StreamConfig {
            units: 4,
            group_units: 2,
            window: 50,
            max_iters: 8,
            tol: 1e-6,
        };
        let r = fit_source(&src, init, &cfg).unwrap();
        assert_eq!(r.centroids.rows(), 6);
        assert_eq!(r.labels.len(), 400);
        assert!(r.objective.is_finite());
    }

    #[test]
    fn validation_errors() {
        let data = random_data(10, 3, 1);
        let src = MatrixSource::new(&data);
        let init = init_centroids(&data, 2, InitMethod::Forgy, 1);
        let bad = StreamConfig {
            window: 0,
            ..StreamConfig::default()
        };
        assert!(fit_source(&src, init.clone(), &bad).is_err());
        let bad_units = StreamConfig {
            units: 5,
            group_units: 2,
            ..StreamConfig::default()
        };
        assert!(fit_source(&src, init.clone(), &bad_units).is_err());
        assert!(fit_source(&src, Matrix::zeros(2, 9), &StreamConfig::default()).is_err());
    }

    #[test]
    fn converges_and_flags() {
        let blobs = datasets::GaussianMixture::new(200, 6, 3)
            .with_seed(8)
            .with_spread(25.0)
            .generate::<f32>();
        let src = MatrixSource::new(&blobs.data);
        let init = init_centroids(&blobs.data, 3, InitMethod::KMeansPlusPlus, 2);
        let r = fit_source(&src, init, &StreamConfig::default()).unwrap();
        assert!(r.converged);
        assert!(r.comm_bytes > 0);
    }
}
