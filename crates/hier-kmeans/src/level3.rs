//! Level 3 — dataflow + centroid + dimension (nkd) partition: Algorithm 3,
//! the paper's contribution.
//!
//! SPMD units are virtual *core groups*. Groups of `G = group_units` CGs
//! share the centroid set (member `m` owns `split_range(k, G, m)`); inside
//! every CG, each sample and each centroid is sliced over `cpes_per_cg`
//! virtual CPEs by dimension (`split_range(d, cpes, c)`). A distance is
//! computed as the sum of per-CPE partial distances over disjoint dimension
//! slices — exact, because squared Euclidean distance is additive over
//! dimensions (the identity `kmeans-core` property-tests). The partial sums
//! are folded in fixed CPE order, standing in for the register-bus mesh
//! reduction of the real machine.
//!
//! The decisive property (C1''): no unit ever materialises more than
//! `⌈k/G⌉ · d` centroid elements, and no CPE slice exceeds `⌈k/G⌉ · ⌈d/64⌉`
//! — so `k·d` scales with the machine, not with any single memory.

use crate::bounded::RankBounds;
use crate::executor::{
    assemble, collect_ranks, fault_setup, finalize_faults, HierConfig, HierError, HierResult,
    IterTiming, PhaseTracer, RankOutput,
};
use crate::level1::{divide_rows, or_words_sum_last, sum_slices};
use crate::level2::{merge_min_loc, MINLOC_NEUTRAL};
use crate::partition::split_range;
use kmeans_core::{
    AssignKernel, AssignPlanner, BoundsIterKind, BoundsMode, GemmBlocking, Matrix, Scalar,
    TouchedSet, UpdateMode, DELTA_FALLBACK_FRACTION,
};
use msg::{CommError, World};
use std::ops::Range;
use sw_arch::MachineParams;

/// The per-CPE dimension slices of one CG, computed once per run — the
/// inner loops used to re-derive `split_range` per sample × centroid.
pub(crate) fn cpe_slices(d: usize, cpes: usize) -> Vec<Range<usize>> {
    (0..cpes).map(|cpe| split_range(d, cpes, cpe)).collect()
}

/// Distance of `sample` to `centroid` computed the Level-3 way: per-CPE
/// partials over precomputed dimension slices, folded in CPE order. The
/// production Assign path now lives in [`kmeans_core::assign`] (the
/// `Scalar` kernel with slices reproduces exactly this scan); this is kept
/// as the test oracle for the slicing identity.
#[cfg(test)]
fn sliced_distance<S: Scalar>(sample: &[S], centroid: &[S], slices: &[Range<usize>]) -> S {
    let mut acc = S::ZERO;
    for slice in slices {
        acc += kmeans_core::distance::sq_euclidean_unrolled(
            &sample[slice.clone()],
            &centroid[slice.clone()],
        );
    }
    acc
}

pub(crate) fn run<S: Scalar>(
    data: &Matrix<S>,
    init: Matrix<S>,
    cfg: &HierConfig,
) -> Result<HierResult<S>, HierError> {
    let g = cfg.group_units;
    if !cfg.units.is_multiple_of(g) {
        return Err(HierError::InvalidConfig(format!(
            "units {} must be a multiple of group_units {g}",
            cfg.units
        )));
    }
    let n = data.rows();
    let d = data.cols();
    let k = init.rows();
    let n_groups = cfg.units / g;
    let cpes = cfg.cpes_per_cg;
    let ldm_bytes = MachineParams::taihulight().ldm_bytes;
    // The CPE slice boundaries depend only on (d, cpes): compute them once
    // per run instead of per sample × centroid inside the inner loops.
    let slices = cpe_slices(d, cpes);
    // Bounds resolve once, identically for every rank (pure function of
    // the geometry), so the per-group collective schedules stay aligned.
    let bounds_mode = cfg.resolved_bounds(n, k, d);
    // Fuse only when the CG owns every centroid (g == 1): the winner is
    // known at score time and each virtual CPE folds its dimension slice of
    // the sample into the shard sums while it is resident. Bounded runs
    // filter rows out of the sweep, so they always accumulate post-merge
    // (bitwise-identical by the update-path invariant).
    let fuse = cfg.update == UpdateMode::Fused && g == 1 && bounds_mode == BoundsMode::None;
    let ring_report = cfg.merge.use_ring(
        split_range(k, g, 0).len() * d * S::BYTES,
        n_groups,
        cfg.update,
    );
    let (plan, timeout) = fault_setup(cfg);
    let degrade = plan.clone();

    let (outs, costs, fstats) = World::run_with_faults(cfg.units, timeout, plan, |comm| {
        // Attach tracers before splitting so the group/shard communicators
        // inherit the comm timeline of this world rank.
        let pt = PhaseTracer::attach(cfg, comm);
        let rank = comm.rank();
        let group = rank / g;
        let member = rank % g;
        let mut group_comm = comm.split(group as u64, member as u64);
        let mut shard_comm = comm.split(member as u64, group as u64);

        let my_centroids = split_range(k, g, member);
        let my_samples = split_range(n, n_groups, group);
        let shard_k = my_centroids.len();
        // Line 2 of Algorithm 3: this CG loads its centroid shard, sliced
        // over its CPEs (the slicing is index arithmetic over the same
        // storage).
        let mut shard = init.slice_rows(my_centroids.clone());

        let mut iterations = 0usize;
        let mut converged = false;
        let mut sums = vec![S::ZERO; shard_k * d];
        let mut counts = vec![0u64; shard_k];
        let mut pairs: Vec<(f64, u64)> = Vec::with_capacity(my_samples.len());
        let mut assigned: Vec<(u32, S)> = Vec::with_capacity(my_samples.len());
        let mut prev_labels: Vec<u32> = Vec::with_capacity(my_samples.len());
        let mut touched = TouchedSet::new(shard_k);
        let mut slot_of: Vec<u32> = vec![u32::MAX; shard_k];
        let mut compact_sums: Vec<S> = Vec::new();
        let mut compact_counts: Vec<u64> = Vec::new();
        let ring = shard_comm.size() > 1
            && cfg
                .merge
                .use_ring(shard_k * d * S::BYTES, shard_comm.size(), cfg.update);
        // One slice-aware planner per CG for the whole run: per-slice shard
        // norms (and gemm panels) persist across iterations, refreshed via
        // snapshot diff for just the rows the Update moved.
        let mut planner =
            AssignPlanner::new(cfg.kernel, ldm_bytes).with_slices(Some(slices.clone()));
        if cfg.kernel == AssignKernel::Gemm && shard_k > 0 {
            // Cost-model block shape for this CG's shard; the dimension
            // slicing changes accumulation order, not the blocking math.
            let (mc, nc) = perf_model::gemm::choose_blocking(
                &MachineParams::taihulight(),
                &perf_model::Calibration::default(),
                shard_k,
                d,
                S::BYTES,
            );
            planner = planner.with_blocking(GemmBlocking::new(mc, nc));
        }
        let mut trace: Vec<IterTiming> = Vec::new();
        // Bounded assign: per-CG bound state over the group's shared
        // stripe, fed exclusively from merged quantities so every CG of
        // the group filters identically (see [`crate::bounded`]). The
        // plan's dimension slices apply to the bounded sub-scans exactly
        // as they do to the full sweep.
        let mut rb: Option<RankBounds<S>> = match bounds_mode {
            BoundsMode::None => None,
            mode => Some(RankBounds::new(
                mode,
                my_samples.len(),
                k,
                d,
                my_centroids.clone(),
            )),
        };

        for iter in 0..cfg.max_iters {
            let iter_start = std::time::Instant::now();
            let mut it = IterTiming::default();
            // Shared-seed degradation consensus (see level1): degraded
            // iterations run tree merges and the delta dense fallback.
            let degraded = degrade.as_ref().is_some_and(|p| p.degrade_iteration(iter));
            if degraded {
                pt.mark("degraded_iteration", iter);
                // Conservative: fallback merge paths ran, so invalidate
                // the bounds and reseed at the next engagement.
                if let Some(rb) = &mut rb {
                    rb.reset();
                }
            }
            // ---- Assign: per-CPE partial dot products / distances over
            // the precomputed dimension slices (lines 8–10), via the
            // configured kernel — exact under slicing because dots are
            // additive over disjoint slices. ----
            let t0 = std::time::Instant::now();
            pairs.clear();
            let bkind = rb.as_ref().map_or(BoundsIterKind::Dormant, |r| r.kind());
            if bkind == BoundsIterKind::Dormant {
                if shard_k == 0 {
                    pairs.resize(my_samples.len(), MINLOC_NEUTRAL);
                } else {
                    let plan = planner.plan(&shard);
                    if cfg.kernel == AssignKernel::Gemm {
                        pt.phase("gemm_plan", t0, iter);
                    }
                    assigned.clear();
                    if fuse {
                        // The fold respects the plan's dimension slices, so the
                        // accumulation models (and bitwise matches) the per-CPE
                        // sliced sweep below.
                        sums.iter_mut().for_each(|v| *v = S::ZERO);
                        counts.iter_mut().for_each(|v| *v = 0);
                        plan.assign_accumulate_into(
                            data,
                            my_samples.clone(),
                            &shard,
                            0..shard_k,
                            my_centroids.start,
                            &mut assigned,
                            &mut sums,
                            &mut counts,
                        );
                    } else {
                        plan.assign_batch_into(
                            data,
                            my_samples.clone(),
                            &shard,
                            0..shard_k,
                            my_centroids.start,
                            &mut assigned,
                        );
                    }
                    pairs.extend(assigned.iter().map(|&(j, key)| (key.to_f64(), j as u64)));
                }
                if let Some(rb) = &mut rb {
                    rb.note_dormant(my_samples.len(), shard_k);
                }
                it.assign += pt.phase("assign", t0, iter);
                // Line 11: min-loc merge across the G CGs of the group.
                let t1 = std::time::Instant::now();
                merge_min_loc::<S>(&mut group_comm, &mut pairs)?;
                it.merge += pt.phase("merge", t1, iter);
            } else {
                // Bounded seed/filter pass: the group merges run inside the
                // helper, so the whole pass lands in the assign phase (with
                // a nested bounds_filter span on filtered iterations).
                let rbm = rb.as_mut().expect("bounded kind without state");
                let plan = (shard_k > 0).then(|| planner.plan(&shard));
                if cfg.kernel == AssignKernel::Gemm && shard_k > 0 {
                    pt.phase("gemm_plan", t0, iter);
                }
                if bkind == BoundsIterKind::Seed {
                    rbm.seed_assign(
                        plan.as_ref(),
                        data,
                        my_samples.clone(),
                        &shard,
                        &mut group_comm,
                        &mut pairs,
                    )?;
                } else {
                    let tb = std::time::Instant::now();
                    rbm.filter_assign(
                        plan.as_ref(),
                        data,
                        my_samples.clone(),
                        &shard,
                        &mut group_comm,
                        &mut pairs,
                    )?;
                    pt.phase("bounds_filter", tb, iter);
                }
                it.assign += pt.phase("assign", t0, iter);
            }

            // Local reassignment bookkeeping — no collectives.
            let local_moved = if iter == 0 {
                pairs.len() as u64
            } else {
                pairs
                    .iter()
                    .zip(&prev_labels)
                    .filter(|((_, j), prev)| *j != **prev as u64)
                    .count() as u64
            };
            it.moved_fraction = if pairs.is_empty() {
                0.0
            } else {
                local_moved as f64 / pairs.len() as f64
            };
            // Pre-Update shard snapshot for the bound drift (no-op until
            // seeded).
            if let Some(rb) = &mut rb {
                rb.pre_update(&shard);
            }

            let mut worst_shift_sq = 0.0f64;
            match cfg.update {
                UpdateMode::TwoPass | UpdateMode::Fused => {
                    // ---- Accumulate winners in my shard (lines 12–13),
                    // with the accumulator itself dimension-sliced across
                    // virtual CPEs (disjoint writes, identical values); the
                    // fused g == 1 path already folded them in-kernel. ----
                    if !fuse {
                        let t2 = std::time::Instant::now();
                        sums.iter_mut().for_each(|v| *v = S::ZERO);
                        counts.iter_mut().for_each(|v| *v = 0);
                        for (offset, i) in my_samples.clone().enumerate() {
                            let j = pairs[offset].1 as usize;
                            if my_centroids.contains(&j) {
                                let j_local = j - my_centroids.start;
                                counts[j_local] += 1;
                                let row = data.row(i);
                                for slice in &slices {
                                    let acc = &mut sums
                                        [j_local * d + slice.start..j_local * d + slice.end];
                                    for (a, x) in acc.iter_mut().zip(&row[slice.clone()]) {
                                        *a += *x;
                                    }
                                }
                            }
                        }
                        // The dimension-sliced accumulation stands in for
                        // the register-bus dimension exchange, so it is
                        // traced as its own phase rather than folded into
                        // Assign.
                        it.exchange += pt.phase("exchange", t2, iter);
                    }
                    // ---- Update: AllReduce shards across groups (14–16). ----
                    let t3 = std::time::Instant::now();
                    if ring && !degraded {
                        shard_comm.try_allreduce_ring(&mut sums, sum_slices::<S>)?;
                    } else {
                        shard_comm.try_allreduce_with(&mut sums, sum_slices::<S>)?;
                    }
                    shard_comm.try_allreduce_sum_u64(&mut counts)?;
                    worst_shift_sq = divide_rows(&mut shard, &sums, &counts, d, 0..shard_k);
                    it.update += pt.phase("update", t3, iter);
                }
                UpdateMode::Delta => {
                    // ---- Touched consensus across groups (see level2). ----
                    let global_moved;
                    if iter == 0 {
                        global_moved = n as u64;
                    } else {
                        let t1 = std::time::Instant::now();
                        touched.clear();
                        for (offset, &(_, j)) in pairs.iter().enumerate() {
                            let old = prev_labels[offset] as usize;
                            let new = j as usize;
                            if old != new {
                                if my_centroids.contains(&old) {
                                    touched.mark(old - my_centroids.start);
                                }
                                if my_centroids.contains(&new) {
                                    touched.mark(new - my_centroids.start);
                                }
                            }
                        }
                        let mut consensus: Vec<u64> = touched.words().to_vec();
                        consensus.push(local_moved);
                        shard_comm.try_allreduce_with(&mut consensus, or_words_sum_last)?;
                        global_moved = *consensus.last().unwrap();
                        touched.set_words(&consensus[..consensus.len() - 1]);
                        it.merge += pt.phase("merge", t1, iter);
                    }

                    if iter == 0
                        || degraded
                        || global_moved as f64 / n as f64 >= DELTA_FALLBACK_FRACTION
                    {
                        // Dense fallback: the sliced two-pass accumulate.
                        let t2 = std::time::Instant::now();
                        sums.iter_mut().for_each(|v| *v = S::ZERO);
                        counts.iter_mut().for_each(|v| *v = 0);
                        for (offset, i) in my_samples.clone().enumerate() {
                            let j = pairs[offset].1 as usize;
                            if my_centroids.contains(&j) {
                                let j_local = j - my_centroids.start;
                                counts[j_local] += 1;
                                let row = data.row(i);
                                for slice in &slices {
                                    let acc = &mut sums
                                        [j_local * d + slice.start..j_local * d + slice.end];
                                    for (a, x) in acc.iter_mut().zip(&row[slice.clone()]) {
                                        *a += *x;
                                    }
                                }
                            }
                        }
                        it.exchange += pt.phase("exchange", t2, iter);
                        let t3 = std::time::Instant::now();
                        shard_comm.try_allreduce_with(&mut sums, sum_slices::<S>)?;
                        shard_comm.try_allreduce_sum_u64(&mut counts)?;
                        worst_shift_sq = divide_rows(&mut shard, &sums, &counts, d, 0..shard_k);
                        it.update += pt.phase("update", t3, iter);
                    } else if touched.count() > 0 {
                        // Sparse: recompute only the touched shard rows,
                        // still dimension-sliced (the exchange phase), then
                        // merge the compact buffer (the update phase).
                        let t2 = std::time::Instant::now();
                        let touched_rows: Vec<usize> = touched.iter().collect();
                        for (slot, &j_local) in touched_rows.iter().enumerate() {
                            slot_of[j_local] = slot as u32;
                        }
                        compact_sums.clear();
                        compact_sums.resize(touched_rows.len() * d, S::ZERO);
                        compact_counts.clear();
                        compact_counts.resize(touched_rows.len(), 0);
                        for (offset, i) in my_samples.clone().enumerate() {
                            let j = pairs[offset].1 as usize;
                            if my_centroids.contains(&j) {
                                let slot = slot_of[j - my_centroids.start];
                                if slot != u32::MAX {
                                    let slot = slot as usize;
                                    compact_counts[slot] += 1;
                                    let row = data.row(i);
                                    for slice in &slices {
                                        let acc = &mut compact_sums
                                            [slot * d + slice.start..slot * d + slice.end];
                                        for (a, x) in acc.iter_mut().zip(&row[slice.clone()]) {
                                            *a += *x;
                                        }
                                    }
                                }
                            }
                        }
                        it.exchange += pt.phase("exchange", t2, iter);
                        let t3 = std::time::Instant::now();
                        shard_comm.try_allreduce_with(&mut compact_sums, sum_slices::<S>)?;
                        shard_comm.try_allreduce_sum_u64(&mut compact_counts)?;
                        for (slot, &j_local) in touched_rows.iter().enumerate() {
                            if compact_counts[slot] == 0 {
                                continue;
                            }
                            let inv = S::ONE / S::from_usize(compact_counts[slot] as usize);
                            let mut shift_sq = 0.0f64;
                            for u in 0..d {
                                let next = compact_sums[slot * d + u] * inv;
                                let diff = next.to_f64() - shard.get(j_local, u).to_f64();
                                shift_sq += diff * diff;
                                shard.set(j_local, u, next);
                            }
                            worst_shift_sq = worst_shift_sq.max(shift_sq);
                        }
                        for &j_local in &touched_rows {
                            slot_of[j_local] = u32::MAX;
                        }
                        it.update += pt.phase("update", t3, iter);
                    }
                }
            }

            // ---- Bounds bookkeeping: group-summed per-centroid drifts
            // loosen every CG identically; the merged moved fraction feeds
            // the engagement lifecycle.
            if let Some(rb) = &mut rb {
                rb.post_update(&shard, &mut group_comm, it.moved_fraction)?;
            }

            let t4 = std::time::Instant::now();
            let mut shift = vec![worst_shift_sq];
            comm.try_allreduce_with(&mut shift, |acc, x| {
                acc[0] = acc[0].max(x[0]);
            })?;
            it.update += pt.phase("update", t4, iter);
            prev_labels.clear();
            prev_labels.extend(pairs.iter().map(|&(_, j)| j as u32));
            it.wall = pt.phase("iteration", iter_start, iter);
            trace.push(it);
            iterations += 1;
            if shift[0].sqrt() <= cfg.tol {
                converged = true;
                break;
            }
        }

        let contribution = (group == 0).then(|| (my_centroids.start, shard.clone().into_vec()));
        let gathered = comm.try_gather(0, contribution)?;
        let full = gathered.map(|parts| {
            let mut flat = vec![S::ZERO; k * d];
            for (start, rows) in parts.into_iter().flatten() {
                flat[start * d..start * d + rows.len()].copy_from_slice(&rows);
            }
            Matrix::from_vec(k, d, flat)
        });
        let bstats = rb.map(|r| r.into_stats()).unwrap_or_default();
        Ok::<RankOutput<S>, CommError>((full, iterations, converged, trace, bstats))
    });

    let outs = collect_ranks(outs)?;
    let mut result = assemble(data, outs, costs, cfg, ring_report);
    finalize_faults(&mut result, cfg, &fstats);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmeans_core::{
        init_centroids, sq_euclidean, AssignKernel, InitMethod, KMeansConfig, Lloyd,
    };
    use perf_model::Level;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_data(n: usize, d: usize, seed: u64) -> Matrix<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let flat: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-5.0..5.0)).collect();
        Matrix::from_vec(n, d, flat)
    }

    fn cfg(units: usize, g: usize, cpes: usize, max_iters: usize) -> HierConfig {
        HierConfig {
            level: Level::L3,
            units,
            group_units: g,
            cpes_per_cg: cpes,
            max_iters,
            tol: 0.0,
            kernel: AssignKernel::Scalar,
            ..HierConfig::new(Level::L3)
        }
    }

    #[test]
    fn sliced_distance_is_exact() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for d in [1usize, 7, 63, 64, 65, 200] {
            let a: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let full = sq_euclidean(&a, &b);
            for cpes in [1usize, 2, 8, 64, 100] {
                let sliced = sliced_distance(&a, &b, &cpe_slices(d, cpes));
                assert!(
                    (full - sliced).abs() < 1e-12 * (1.0 + full),
                    "d={d} cpes={cpes}: {full} vs {sliced}"
                );
            }
        }
    }

    #[test]
    fn matches_serial_lloyd() {
        let data = random_data(120, 17, 61);
        let init = init_centroids(&data, 6, InitMethod::Forgy, 19);
        let hier = run(&data, init.clone(), &cfg(8, 4, 8, 5)).unwrap();
        let serial = Lloyd::run_from(
            &data,
            init,
            &KMeansConfig::new(6).with_max_iters(5).with_tol(0.0),
        )
        .unwrap();
        assert_eq!(hier.iterations, serial.iterations);
        assert!(
            hier.centroids.max_abs_diff(&serial.centroids) < 1e-9,
            "diff {}",
            hier.centroids.max_abs_diff(&serial.centroids)
        );
        assert_eq!(hier.labels, serial.labels);
    }

    #[test]
    fn all_three_partitions_active_at_once() {
        // n=90 over 3 groups, k=10 over 2 CGs per group, d=23 over 5 CPEs:
        // none of the partition sizes divide evenly.
        let data = random_data(90, 23, 71);
        let init = init_centroids(&data, 10, InitMethod::Forgy, 23);
        let hier = run(&data, init.clone(), &cfg(6, 2, 5, 4)).unwrap();
        let serial = Lloyd::run_from(
            &data,
            init,
            &KMeansConfig::new(10).with_max_iters(4).with_tol(0.0),
        )
        .unwrap();
        assert!(hier.centroids.max_abs_diff(&serial.centroids) < 1e-9);
        assert_eq!(hier.labels, serial.labels);
    }

    #[test]
    fn group_and_cpe_counts_do_not_change_result() {
        let data = random_data(60, 16, 31);
        let init = init_centroids(&data, 5, InitMethod::Forgy, 7);
        let reference = run(&data, init.clone(), &cfg(2, 1, 1, 4)).unwrap();
        for (units, g, cpes) in [(4, 2, 4), (6, 3, 16), (8, 4, 64), (4, 4, 2)] {
            let r = run(&data, init.clone(), &cfg(units, g, cpes, 4)).unwrap();
            assert!(
                r.centroids.max_abs_diff(&reference.centroids) < 1e-9,
                "units={units} g={g} cpes={cpes}: {}",
                r.centroids.max_abs_diff(&reference.centroids)
            );
        }
    }

    #[test]
    fn more_cpes_than_dimensions() {
        // d=3 sliced over 64 virtual CPEs: 61 slices are empty.
        let data = random_data(40, 3, 13);
        let init = init_centroids(&data, 4, InitMethod::Forgy, 3);
        let hier = run(&data, init.clone(), &cfg(4, 2, 64, 3)).unwrap();
        let serial = Lloyd::run_from(
            &data,
            init,
            &KMeansConfig::new(4).with_max_iters(3).with_tol(0.0),
        )
        .unwrap();
        assert!(hier.centroids.max_abs_diff(&serial.centroids) < 1e-9);
        assert_eq!(hier.labels, serial.labels);
    }

    #[test]
    fn gemm_kernel_matches_scalar() {
        // Every partition axis active (ragged n/k/d splits) — the
        // slice-aware expansion must agree with the sliced scalar scan.
        let data = random_data(90, 23, 71);
        let init = init_centroids(&data, 10, InitMethod::Forgy, 23);
        let reference = run(&data, init.clone(), &cfg(6, 2, 5, 4)).unwrap();
        let mut c = cfg(6, 2, 5, 4);
        c.kernel = AssignKernel::Gemm;
        let r = run(&data, init.clone(), &c).unwrap();
        assert_eq!(r.labels, reference.labels);
        assert!(r.centroids.max_abs_diff(&reference.centroids) < 1e-9);
    }

    #[test]
    fn update_modes_agree_bitwise_with_twopass() {
        // Ragged n/k/d splits with all three partition axes active.
        let data = random_data(90, 23, 71);
        let init = init_centroids(&data, 10, InitMethod::Forgy, 23);
        for (units, g, cpes) in [(4, 1, 5), (6, 2, 5), (8, 4, 3)] {
            let mut base_cfg = cfg(units, g, cpes, 10);
            base_cfg.update = UpdateMode::TwoPass;
            let base = run(&data, init.clone(), &base_cfg).unwrap();
            for update in [UpdateMode::Fused, UpdateMode::Delta] {
                let mut c = cfg(units, g, cpes, 10);
                c.update = update;
                let r = run(&data, init.clone(), &c).unwrap();
                assert_eq!(r.iterations, base.iterations, "{units}/{g}/{cpes} {update}");
                assert_eq!(r.labels, base.labels, "{units}/{g}/{cpes} {update}");
                let bits = |m: &Matrix<f64>| -> Vec<u64> {
                    m.as_slice().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(
                    bits(&r.centroids),
                    bits(&base.centroids),
                    "{units}/{g}/{cpes} {update} centroids diverged bitwise"
                );
            }
        }
    }

    #[test]
    fn bounded_runs_match_unbounded_bitwise() {
        use kmeans_core::BoundsMode;
        // Ragged n/k/d splits with all three partition axes active.
        let data = random_data(90, 23, 71);
        let init = init_centroids(&data, 10, InitMethod::Forgy, 23);
        for (units, g, cpes) in [(4, 1, 5), (6, 2, 5), (8, 4, 3)] {
            for kernel in [AssignKernel::Scalar, AssignKernel::Gemm] {
                for update in [UpdateMode::TwoPass, UpdateMode::Fused, UpdateMode::Delta] {
                    let mk = |bounds| {
                        let mut c = cfg(units, g, cpes, 25);
                        c.kernel = kernel;
                        c.update = update;
                        c.bounds = bounds;
                        c
                    };
                    let base = run(&data, init.clone(), &mk(BoundsMode::None)).unwrap();
                    for bounds in [BoundsMode::Hamerly, BoundsMode::Yinyang] {
                        let tag = format!("{units}/{g}/{cpes} {kernel} {update} {bounds}");
                        let r = run(&data, init.clone(), &mk(bounds)).unwrap();
                        assert_eq!(r.iterations, base.iterations, "{tag}");
                        assert_eq!(r.labels, base.labels, "{tag}");
                        let bits = |m: &Matrix<f64>| -> Vec<u64> {
                            m.as_slice().iter().map(|v| v.to_bits()).collect()
                        };
                        assert_eq!(
                            bits(&r.centroids),
                            bits(&base.centroids),
                            "{tag}: centroids diverged bitwise"
                        );
                        assert_eq!(r.objective.to_bits(), base.objective.to_bits(), "{tag}");
                        assert!(r.bounds.seed_scans >= 1, "{tag}: bounds never engaged");
                    }
                }
            }
        }
    }

    #[test]
    fn converges_on_separated_blobs() {
        let mut rows = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for i in 0..90 {
            let centre = (i % 3) as f64 * 50.0;
            rows.extend((0..12).map(|_| centre + rng.gen_range(-1.0..1.0)));
        }
        let data = Matrix::from_vec(90, 12, rows);
        let init = init_centroids(&data, 3, InitMethod::KMeansPlusPlus, 1);
        let mut c = cfg(6, 3, 4, 50);
        c.tol = 1e-9;
        let r = run(&data, init, &c).unwrap();
        assert!(r.converged);
        assert!(r.objective < 8.0, "objective {}", r.objective);
        // Pure clusters: samples of the same blob share a label.
        for i in 0..90 {
            assert_eq!(r.labels[i], r.labels[i % 3]);
        }
    }

    #[test]
    fn level3_communicates_less_per_unit_than_replicating_everything() {
        // The point of the design: with k=8 over 4 CGs, each CG's update
        // traffic covers 2 centroids, not 8.
        let data = random_data(64, 32, 3);
        let init = init_centroids(&data, 8, InitMethod::Forgy, 11);
        let l3 = run(&data, init.clone(), &cfg(8, 4, 8, 3)).unwrap();
        let l1_cfg = HierConfig {
            level: Level::L1,
            units: 8,
            group_units: 1,
            cpes_per_cg: 64,
            max_iters: 3,
            tol: 0.0,
            kernel: AssignKernel::Scalar,
            ..HierConfig::new(Level::L1)
        };
        let l1 = crate::level1::run(&data, init, &l1_cfg).unwrap();
        assert!(
            l3.comm_bytes < l1.comm_bytes,
            "L3 {} bytes vs L1 {} bytes",
            l3.comm_bytes,
            l1.comm_bytes
        );
    }
}
