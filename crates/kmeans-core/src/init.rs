//! Centroid initialization strategies.
//!
//! The paper initialises centroids externally (its experiments measure
//! per-iteration time, not convergence), so any seeding works for the
//! reproduction; the library still ships the standard options a downstream
//! user expects.

use crate::distance::{par_workers, sq_dists_to_row};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::{mpsc, Mutex};

/// How initial centroids are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitMethod {
    /// k distinct samples chosen uniformly at random (Forgy).
    Forgy,
    /// Assign every sample a random cluster, then average each cluster.
    RandomPartition,
    /// k-means++: D²-weighted sequential seeding (Arthur & Vassilvitskii).
    KMeansPlusPlus,
}

/// Choose `k` initial centroids from `data` with the given method and seed.
///
/// Panics if `k == 0` or `k > n` (Forgy and k-means++ need distinct rows).
pub fn init_centroids<S: Scalar>(
    data: &Matrix<S>,
    k: usize,
    method: InitMethod,
    seed: u64,
) -> Matrix<S> {
    assert!(k > 0, "k must be positive");
    assert!(
        k <= data.rows(),
        "k = {k} exceeds sample count n = {}",
        data.rows()
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match method {
        InitMethod::Forgy => {
            let mut indices: Vec<usize> = (0..data.rows()).collect();
            indices.shuffle(&mut rng);
            indices.truncate(k);
            indices.sort_unstable(); // deterministic, cache-friendly gather
            data.select_rows(&indices)
        }
        InitMethod::RandomPartition => {
            let mut sums = Matrix::<S>::zeros(k, data.cols());
            let mut counts = vec![0usize; k];
            for i in 0..data.rows() {
                let j = rng.gen_range(0..k);
                counts[j] += 1;
                let row = data.row(i);
                let acc = sums.row_mut(j);
                for (a, x) in acc.iter_mut().zip(row) {
                    *a += *x;
                }
            }
            for (j, &count) in counts.iter().enumerate().take(k) {
                if count > 0 {
                    let inv = S::ONE / S::from_usize(count);
                    for a in sums.row_mut(j) {
                        *a = *a * inv;
                    }
                } else {
                    // An empty random partition bucket falls back to a
                    // random sample so no centroid is stuck at the origin.
                    let pick = rng.gen_range(0..data.rows());
                    sums.row_mut(j).copy_from_slice(data.row(pick));
                }
            }
            sums
        }
        InitMethod::KMeansPlusPlus => {
            // One D² relax streams the data set once; below this many
            // elements per step handing half of it to a worker costs more
            // than the worker saves.
            const PAR_MIN_STEP: usize = 1 << 20;
            let step = data.rows() * data.cols();
            let parts = if step < PAR_MIN_STEP {
                1
            } else {
                par_workers(step * k)
            };
            kmeanspp(data, k, &mut rng, parts)
        }
    }
}

const POISONED: &str = "a D² relax panicked";
const WORKER_GONE: &str = "seeding worker exited early";

/// k-means++ with the D² table split into `parts` row chunks (fewer when
/// `n < parts`). The seeds are those of the one-thread loop whatever
/// `parts` is: each step's distances are bitwise `sq_euclidean_unrolled`
/// (through [`sq_dists_to_row`]), and the f64 mass sum and the selection
/// scan stay on the caller, in index order. Chunk 0 is relaxed on the
/// caller; the other chunks get one worker each, spawned once per call and
/// woken once per step over a channel — so a panic on the caller (a NaN
/// mass makes `gen_range` refuse its range) drops the senders and releases
/// the workers instead of deadlocking the scope.
fn kmeanspp<S: Scalar>(
    data: &Matrix<S>,
    k: usize,
    rng: &mut ChaCha8Rng,
    parts: usize,
) -> Matrix<S> {
    let n = data.rows();
    let chunk = n.div_ceil(parts.clamp(1, n));
    // d2[i] = squared distance to the nearest chosen centroid. One lock
    // per chunk: held by its worker during a relax, by the caller between.
    let mut d2 = vec![0.0f64; n];
    let cells: Vec<Mutex<&mut [f64]>> = d2.chunks_mut(chunk).map(Mutex::new).collect();
    let relax = |c: usize, (center, first): (usize, bool)| {
        let mut cell = cells[c].lock().expect(POISONED);
        relax_rows(data, c * chunk, data.row(center), first, &mut cell);
    };
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    chosen.push(rng.gen_range(0..n));
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let wake: Vec<mpsc::Sender<(usize, bool)>> = (1..cells.len())
            .map(|c| {
                let (tx, rx) = mpsc::channel();
                let (done, relax) = (done_tx.clone(), &relax);
                scope.spawn(move || {
                    while let Ok(step) = rx.recv() {
                        relax(c, step);
                        if done.send(()).is_err() {
                            break;
                        }
                    }
                });
                tx
            })
            .collect();
        drop(done_tx);
        while chosen.len() < k {
            // Relax against the newest seed. The first step stores the
            // distances themselves — not a min against +∞ — so a NaN
            // distance stays in the table.
            let step = (chosen[chosen.len() - 1], chosen.len() == 1);
            for tx in &wake {
                tx.send(step).expect(WORKER_GONE);
            }
            relax(0, step);
            for _ in &wake {
                done_rx.recv().expect(WORKER_GONE);
            }
            let mut total = 0.0f64;
            for cell in &cells {
                for &w in cell.lock().expect(POISONED).iter() {
                    total += w;
                }
            }
            let next = if total <= 0.0 {
                // All remaining mass is zero (duplicate points); fall
                // back to uniform choice among unchosen rows.
                let mut pick = rng.gen_range(0..n);
                while chosen.contains(&pick) && chosen.len() < n {
                    pick = (pick + 1) % n;
                }
                pick
            } else {
                let mut target = rng.gen_range(0.0..total);
                let mut pick = n - 1;
                'scan: for (c, cell) in cells.iter().enumerate() {
                    for (i, &w) in cell.lock().expect(POISONED).iter().enumerate() {
                        if target < w {
                            pick = c * chunk + i;
                            break 'scan;
                        }
                        target -= w;
                    }
                }
                pick
            };
            chosen.push(next);
        }
    });
    data.select_rows(&chosen)
}

/// Relax `d2` — the D² entries of rows `start..start + d2.len()` — against
/// `center`, a block of distances at a time.
fn relax_rows<S: Scalar>(
    data: &Matrix<S>,
    start: usize,
    center: &[S],
    first: bool,
    d2: &mut [f64],
) {
    let mut block = [S::ZERO; 256];
    for (b, slots) in d2.chunks_mut(block.len()).enumerate() {
        let lo = start + b * block.len();
        let dists = &mut block[..slots.len()];
        sq_dists_to_row(data, lo..lo + slots.len(), center, dists);
        for (slot, d) in slots.iter_mut().zip(dists.iter()) {
            let d = d.to_f64();
            if first || d < *slot {
                *slot = d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_data() -> Matrix<f64> {
        // Three tight blobs at (0,0), (10,0), (0,10).
        let mut rows = Vec::new();
        for i in 0..30 {
            let jitter = (i % 5) as f64 * 0.01;
            match i % 3 {
                0 => rows.push([jitter, jitter]),
                1 => rows.push([10.0 + jitter, jitter]),
                _ => rows.push([jitter, 10.0 + jitter]),
            }
        }
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        Matrix::from_vec(30, 2, flat)
    }

    #[test]
    fn forgy_picks_k_actual_samples() {
        let data = toy_data();
        let c = init_centroids(&data, 4, InitMethod::Forgy, 1);
        assert_eq!(c.rows(), 4);
        assert_eq!(c.cols(), 2);
        for i in 0..4 {
            let row = c.row(i);
            assert!(
                data.iter_rows().any(|r| r == row),
                "centroid {row:?} is not a sample"
            );
        }
    }

    #[test]
    fn forgy_is_deterministic_per_seed() {
        let data = toy_data();
        let a = init_centroids(&data, 3, InitMethod::Forgy, 7);
        let b = init_centroids(&data, 3, InitMethod::Forgy, 7);
        let c = init_centroids(&data, 3, InitMethod::Forgy, 8);
        assert_eq!(a, b);
        assert_ne!(a, c); // overwhelmingly likely with 30 choose 3 options
    }

    #[test]
    fn random_partition_produces_interior_means() {
        let data = toy_data();
        let c = init_centroids(&data, 3, InitMethod::RandomPartition, 3);
        assert_eq!(c.rows(), 3);
        // Means of random subsets of the three blobs lie inside the bounding
        // box of the data.
        for i in 0..3 {
            for &v in c.row(i) {
                assert!((0.0..=10.05).contains(&v), "out of hull: {v}");
            }
        }
    }

    #[test]
    fn kmeanspp_spreads_over_blobs() {
        let data = toy_data();
        let c = init_centroids(&data, 3, InitMethod::KMeansPlusPlus, 5);
        // With three far-apart blobs, k-means++ must take one from each.
        let mut blob_hit = [false; 3];
        for i in 0..3 {
            let r = c.row(i);
            if r[0] < 5.0 && r[1] < 5.0 {
                blob_hit[0] = true;
            } else if r[0] > 5.0 {
                blob_hit[1] = true;
            } else {
                blob_hit[2] = true;
            }
        }
        assert!(blob_hit.iter().all(|&h| h), "blobs covered: {blob_hit:?}");
    }

    #[test]
    fn kmeanspp_handles_duplicate_points() {
        let data = Matrix::from_vec(4, 1, vec![2.0f64; 4]);
        let c = init_centroids(&data, 3, InitMethod::KMeansPlusPlus, 0);
        assert_eq!(c.rows(), 3);
        for i in 0..3 {
            assert_eq!(c.get(i, 0), 2.0);
        }
    }

    /// The k-means++ loop as it was before the D² update moved onto
    /// [`sq_dists_to_row`] and worker chunks — the oracle for the seeds.
    fn serial_kmeanspp<S: Scalar>(data: &Matrix<S>, k: usize, seed: u64) -> Vec<usize> {
        use crate::distance::sq_euclidean_unrolled;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = data.rows();
        let mut chosen = vec![rng.gen_range(0..n)];
        let mut d2: Vec<f64> = (0..n)
            .map(|i| sq_euclidean_unrolled(data.row(i), data.row(chosen[0])).to_f64())
            .collect();
        while chosen.len() < k {
            let total: f64 = d2.iter().sum();
            let next = if total <= 0.0 {
                let mut pick = rng.gen_range(0..n);
                while chosen.contains(&pick) && chosen.len() < n {
                    pick = (pick + 1) % n;
                }
                pick
            } else {
                let mut target = rng.gen_range(0.0..total);
                let mut pick = n - 1;
                for (i, &w) in d2.iter().enumerate() {
                    if target < w {
                        pick = i;
                        break;
                    }
                    target -= w;
                }
                pick
            };
            chosen.push(next);
            for (i, slot) in d2.iter_mut().enumerate() {
                let d = sq_euclidean_unrolled(data.row(i), data.row(next)).to_f64();
                if d < *slot {
                    *slot = d;
                }
            }
        }
        chosen
    }

    fn scattered(n: usize, d: usize) -> Matrix<f32> {
        let flat = (0..n * d)
            .map(|i| (((i * 2654435761) % 100_003) as f32 - 50_001.0) / 3_001.0)
            .collect();
        Matrix::from_vec(n, d, flat)
    }

    #[test]
    fn kmeanspp_picks_the_serial_loops_seeds() {
        let data = scattered(20_001, 19);
        for seed in [1, 2018, 77_777] {
            let want = data.select_rows(&serial_kmeanspp(&data, 12, seed));
            assert_eq!(
                init_centroids(&data, 12, InitMethod::KMeansPlusPlus, seed),
                want
            );
            // ...and for every way of chunking the D² table, ragged or not.
            for parts in [1, 2, 3, 7] {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                assert_eq!(
                    kmeanspp(&data, 12, &mut rng, parts),
                    want,
                    "seed {seed} parts {parts}"
                );
            }
        }
    }

    #[test]
    fn kmeanspp_duplicate_fallback_is_unchanged() {
        // All mass zero from the first step on: the uniform fallback (and
        // its probing past already-chosen rows) decides every seed.
        let data = Matrix::from_vec(9, 2, vec![2.5f32; 18]);
        for parts in [1, 4] {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let got = kmeanspp(&data, 9, &mut rng, parts);
            assert_eq!(got, data.select_rows(&serial_kmeanspp(&data, 9, 3)));
        }
    }

    #[test]
    fn kmeanspp_keeps_its_answers_on_degenerate_shapes() {
        // d == 0: zero mass everywhere, so the fallback runs.
        let zero_wide = Matrix::<f32>::zeros(6, 0);
        let c = init_centroids(&zero_wide, 4, InitMethod::KMeansPlusPlus, 5);
        assert_eq!((c.rows(), c.cols()), (4, 0));
        // k == 1: the first draw, no relax.
        let data = scattered(50, 3);
        let one = init_centroids(&data, 1, InitMethod::KMeansPlusPlus, 5);
        assert_eq!(one, data.select_rows(&serial_kmeanspp(&data, 1, 5)));
        // Fewer rows than chunks: no empty chunk gets a worker.
        for n in [1, 2, 5] {
            let few = scattered(n, 3);
            let mut rng = ChaCha8Rng::seed_from_u64(8);
            let got = kmeanspp(&few, n, &mut rng, 7);
            assert_eq!(got, few.select_rows(&serial_kmeanspp(&few, n, 8)), "n {n}");
        }
    }

    #[test]
    fn kmeanspp_nan_mass_panics_instead_of_hanging_its_workers() {
        // A NaN row poisons the mass total; `gen_range` refuses the range
        // on the caller while three workers wait for their next step.
        let mut data = scattered(40, 3);
        data.set(7, 1, f32::NAN);
        let hung = std::panic::catch_unwind(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            kmeanspp(&data, 5, &mut rng, 4)
        });
        assert!(hung.is_err(), "NaN mass used to panic in gen_range");
    }

    #[test]
    fn k_equals_n_is_allowed() {
        let data = toy_data();
        let c = init_centroids(&data, 30, InitMethod::Forgy, 0);
        assert_eq!(c.rows(), 30);
    }

    #[test]
    #[should_panic(expected = "exceeds sample count")]
    fn k_above_n_rejected() {
        let data = toy_data();
        let _ = init_centroids(&data, 31, InitMethod::Forgy, 0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let data = toy_data();
        let _ = init_centroids(&data, 0, InitMethod::Forgy, 0);
    }
}
