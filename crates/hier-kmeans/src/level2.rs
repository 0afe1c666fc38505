//! Level 2 — dataflow + centroid (nk) partition: Algorithm 2 of the paper.
//!
//! Virtual CPEs form groups of `g = group_units`. Within a group, member
//! `m` owns a contiguous shard of the centroid set (`split_range(k, g, m)`);
//! the group jointly assigns a contiguous stripe of samples. The Assign
//! step becomes: every member computes a *partial* argmin over its shard
//! for every sample of the stripe, then the group merges the partials with
//! one min-loc AllReduce (ties to the lower centroid index, exactly the
//! serial tie-break). Each member accumulates winners that fall in its own
//! shard; the Update step reduces each shard across the *other* groups (the
//! same-member communicator) — never materialising all of `k·d` on one
//! unit.

use crate::bounded::RankBounds;
use crate::executor::{
    assemble, collect_ranks, fault_setup, finalize_faults, HierConfig, HierError, HierResult,
    IterTiming, PhaseTracer, RankOutput,
};
use crate::level1::{divide_rows, or_words_sum_last, sum_slices};
use crate::partition::split_range;
use kmeans_core::{
    AssignKernel, AssignPlanner, BoundsIterKind, BoundsMode, GemmBlocking, Matrix, Scalar,
    TouchedSet, UpdateMode, DELTA_FALLBACK_FRACTION,
};
use msg::{CommError, World};
use sw_arch::MachineParams;

/// Neutral element of the min-loc merge: never wins against a real
/// distance.
pub(crate) const MINLOC_NEUTRAL: (f64, u64) = (f64::INFINITY, u64::MAX);

/// The per-sample argmin merge. For `f32` problems the `(distance, index)`
/// pair packs losslessly into one `u64` (order-preserving key bits ‖ index),
/// halving the min-loc AllReduce payload; `f64` keeps the unpacked pairs.
/// Both preserve the lowest-index tie-break. The neutral pair maps to the
/// packed neutral (`u64::MAX as u32 == u32::MAX`), so empty shards need no
/// special casing.
pub(crate) fn merge_min_loc<S: Scalar>(
    comm: &mut msg::Comm,
    pairs: &mut Vec<(f64, u64)>,
) -> Result<(), CommError> {
    if S::BYTES == 4 {
        let mut packed: Vec<u64> = pairs
            .iter()
            .map(|&(key, idx)| msg::pack_min_loc(key as f32, idx as u32))
            .collect();
        comm.try_allreduce_min_loc_packed(&mut packed)?;
        for (pair, &p) in pairs.iter_mut().zip(&packed) {
            let (key, idx) = msg::unpack_min_loc(p);
            *pair = (key as f64, idx as u64);
        }
    } else {
        comm.try_allreduce_min_loc(pairs)?;
    }
    Ok(())
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
    let ldm_bytes = MachineParams::taihulight().ldm_bytes;
    // Bounds resolve once, identically for every rank (pure function of
    // the geometry), so the per-group collective schedules stay aligned.
    let bounds_mode = cfg.resolved_bounds(n, k, d);
    // The fused path folds winners during scoring, which needs the winner
    // known at score time — true exactly when the member owns every
    // centroid (g == 1; otherwise the winner emerges from the min-loc
    // merge and fused keeps the post-merge sweep). Bounded runs filter
    // rows out of the sweep, so they always accumulate post-merge
    // (bitwise-identical by the update-path invariant).
    let fuse = cfg.update == UpdateMode::Fused && g == 1 && bounds_mode == BoundsMode::None;
    // Report the ring decision of the widest shard (member 0); each
    // shard communicator resolves its own shard size identically on all
    // of its members, so resolution is deadlock-safe.
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
        // Line 2 of Algorithm 2: load only this member's centroid shard.
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
        // One planner per member for the whole run: shard norms and gemm
        // panels persist across iterations, refreshed via snapshot diff
        // for just the shard rows the Update actually moved.
        let mut planner = AssignPlanner::new(cfg.kernel, ldm_bytes);
        if cfg.kernel == AssignKernel::Gemm && shard_k > 0 {
            // Block shape from the cost model, sized for the shard this
            // member actually scores (the partitioned layout).
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
        // Bounded assign: per-member bound state over the group's shared
        // stripe, fed exclusively from merged quantities so every member
        // of the group filters identically (see [`crate::bounded`]).
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
            // ---- Assign: partial argmin over my shard (lines 9–10), via
            // the configured kernel. One plan per iteration = shard norms
            // recomputed once per Update. Under Gemm the merge
            // key is `‖x‖² + ‖c‖² − 2·x·c`; `‖x‖²` is computed identically
            // on every member, so keys stay comparable across the group.
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
                        // g == 1: my partial argmin IS the winner, so fold each
                        // scored sample into the shard sums while it is hot.
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
                // The min-loc merge produces the global a(i) for every sample
                // of the stripe, on every member.
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

            // Local reassignment bookkeeping against the previous
            // iteration's winners — no collectives.
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
                    // ---- Accumulate winners that land in my shard (11–12);
                    // the fused g == 1 path already has them. ----
                    if !fuse {
                        let t2 = std::time::Instant::now();
                        sums.iter_mut().for_each(|v| *v = S::ZERO);
                        counts.iter_mut().for_each(|v| *v = 0);
                        for (offset, i) in my_samples.clone().enumerate() {
                            let j = pairs[offset].1 as usize;
                            if my_centroids.contains(&j) {
                                let j_local = j - my_centroids.start;
                                counts[j_local] += 1;
                                let acc = &mut sums[j_local * d..(j_local + 1) * d];
                                for (a, x) in acc.iter_mut().zip(data.row(i)) {
                                    *a += *x;
                                }
                            }
                        }
                        it.assign += pt.phase("assign", t2, iter);
                    }
                    // ---- Update: reduce my shard across groups (13–15). ----
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
                    // ---- Touched consensus over my shard communicator:
                    // OR the shard-row masks, sum the per-stripe moved
                    // counts. Each group contributes its stripe through its
                    // member of this communicator, so the sum is the global
                    // moved count and identical on every rank.
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

                    let t2 = std::time::Instant::now();
                    if iter == 0
                        || degraded
                        || global_moved as f64 / n as f64 >= DELTA_FALLBACK_FRACTION
                    {
                        // Dense fallback: the two-pass accumulate + merge.
                        sums.iter_mut().for_each(|v| *v = S::ZERO);
                        counts.iter_mut().for_each(|v| *v = 0);
                        for (offset, i) in my_samples.clone().enumerate() {
                            let j = pairs[offset].1 as usize;
                            if my_centroids.contains(&j) {
                                let j_local = j - my_centroids.start;
                                counts[j_local] += 1;
                                let acc = &mut sums[j_local * d..(j_local + 1) * d];
                                for (a, x) in acc.iter_mut().zip(data.row(i)) {
                                    *a += *x;
                                }
                            }
                        }
                        shard_comm.try_allreduce_with(&mut sums, sum_slices::<S>)?;
                        shard_comm.try_allreduce_sum_u64(&mut counts)?;
                        worst_shift_sq = divide_rows(&mut shard, &sums, &counts, d, 0..shard_k);
                    } else if touched.count() > 0 {
                        // Sparse: recompute only the touched shard rows and
                        // merge a compact buffer across groups.
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
                                    let acc = &mut compact_sums[slot * d..(slot + 1) * d];
                                    for (a, x) in acc.iter_mut().zip(data.row(i)) {
                                        *a += *x;
                                    }
                                }
                            }
                        }
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
                    }
                    it.update += pt.phase("update", t2, iter);
                }
            }

            // ---- Bounds bookkeeping: group-summed per-centroid drifts
            // loosen every member identically; the merged moved fraction
            // feeds the engagement lifecycle.
            if let Some(rb) = &mut rb {
                rb.post_update(&shard, &mut group_comm, it.moved_fraction)?;
            }

            // ---- Convergence: global max shift over all shards. ----
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

        // ---- Assemble the full centroid matrix on world rank 0. ----
        // Group 0's members hold one copy of every shard (identical to all
        // other groups after the shard AllReduce).
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
    use kmeans_core::{init_centroids, AssignKernel, InitMethod, KMeansConfig, Lloyd};
    use perf_model::Level;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_data(n: usize, d: usize, seed: u64) -> Matrix<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let flat: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-5.0..5.0)).collect();
        Matrix::from_vec(n, d, flat)
    }

    fn cfg(units: usize, g: usize, max_iters: usize) -> HierConfig {
        HierConfig {
            level: Level::L2,
            units,
            group_units: g,
            cpes_per_cg: 64,
            max_iters,
            tol: 0.0,
            kernel: AssignKernel::Scalar,
            ..HierConfig::new(Level::L2)
        }
    }

    #[test]
    fn matches_serial_lloyd() {
        let data = random_data(150, 5, 21);
        let init = init_centroids(&data, 8, InitMethod::Forgy, 13);
        let hier = run(&data, init.clone(), &cfg(8, 4, 5)).unwrap();
        let serial = Lloyd::run_from(
            &data,
            init,
            &KMeansConfig::new(8).with_max_iters(5).with_tol(0.0),
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
    fn group_size_does_not_change_result() {
        let data = random_data(96, 4, 33);
        let init = init_centroids(&data, 6, InitMethod::Forgy, 5);
        let reference = run(&data, init.clone(), &cfg(4, 1, 6)).unwrap();
        for (units, g) in [(4, 2), (6, 3), (12, 6), (8, 8)] {
            let r = run(&data, init.clone(), &cfg(units, g, 6)).unwrap();
            assert!(
                r.centroids.max_abs_diff(&reference.centroids) < 1e-9,
                "units={units} g={g}"
            );
            assert_eq!(r.labels, reference.labels, "units={units} g={g}");
        }
    }

    #[test]
    fn more_members_than_centroids_is_fine() {
        // g=8 members share k=3 centroids: five members own empty shards.
        let data = random_data(64, 3, 7);
        let init = init_centroids(&data, 3, InitMethod::Forgy, 2);
        let hier = run(&data, init.clone(), &cfg(8, 8, 4)).unwrap();
        let serial = Lloyd::run_from(
            &data,
            init,
            &KMeansConfig::new(3).with_max_iters(4).with_tol(0.0),
        )
        .unwrap();
        assert!(hier.centroids.max_abs_diff(&serial.centroids) < 1e-9);
        assert_eq!(hier.labels, serial.labels);
    }

    #[test]
    fn one_group_spanning_all_units() {
        let data = random_data(80, 4, 17);
        let init = init_centroids(&data, 12, InitMethod::Forgy, 8);
        let hier = run(&data, init.clone(), &cfg(6, 6, 4)).unwrap();
        let serial = Lloyd::run_from(
            &data,
            init,
            &KMeansConfig::new(12).with_max_iters(4).with_tol(0.0),
        )
        .unwrap();
        assert!(hier.centroids.max_abs_diff(&serial.centroids) < 1e-9);
    }

    #[test]
    fn indivisible_units_rejected() {
        let data = random_data(16, 2, 1);
        let init = init_centroids(&data, 2, InitMethod::Forgy, 1);
        let err = run(&data, init, &cfg(7, 2, 1)).unwrap_err();
        assert!(err.to_string().contains("multiple of group_units"));
    }

    #[test]
    fn f32_matches_serial_f32() {
        let data: Matrix<f32> = random_data(100, 6, 41).cast();
        let init = init_centroids(&data, 5, InitMethod::Forgy, 3);
        let hier = run(&data, init.clone(), &cfg(8, 4, 3)).unwrap();
        let serial = Lloyd::run_from(
            &data,
            init,
            &KMeansConfig::new(5).with_max_iters(3).with_tol(0.0),
        )
        .unwrap();
        // f32 accumulation order differs between serial (single pass) and
        // hierarchical (per-stripe then tree) — tolerance reflects that.
        assert!(hier.centroids.max_abs_diff(&serial.centroids) < 1e-3);
    }

    #[test]
    fn gemm_kernel_matches_scalar() {
        let data = random_data(150, 5, 21);
        let init = init_centroids(&data, 8, InitMethod::Forgy, 13);
        let reference = run(&data, init.clone(), &cfg(8, 4, 5)).unwrap();
        let mut c = cfg(8, 4, 5);
        c.kernel = AssignKernel::Gemm;
        let r = run(&data, init.clone(), &c).unwrap();
        assert_eq!(r.labels, reference.labels);
        assert!(r.centroids.max_abs_diff(&reference.centroids) < 1e-9);
        assert_eq!(r.kernel, AssignKernel::Gemm);
    }

    #[test]
    fn update_modes_agree_bitwise_with_twopass() {
        let data = random_data(240, 5, 77);
        let init = init_centroids(&data, 8, InitMethod::Forgy, 19);
        for (units, g) in [(4, 1), (8, 2), (8, 4)] {
            let mut base_cfg = cfg(units, g, 12);
            base_cfg.update = UpdateMode::TwoPass;
            let base = run(&data, init.clone(), &base_cfg).unwrap();
            for update in [UpdateMode::Fused, UpdateMode::Delta] {
                let mut c = cfg(units, g, 12);
                c.update = update;
                let r = run(&data, init.clone(), &c).unwrap();
                assert_eq!(r.iterations, base.iterations, "{units}/{g} {update}");
                assert_eq!(r.labels, base.labels, "{units}/{g} {update}");
                let bits = |m: &Matrix<f64>| -> Vec<u64> {
                    m.as_slice().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(
                    bits(&r.centroids),
                    bits(&base.centroids),
                    "{units}/{g} {update} centroids diverged bitwise"
                );
            }
        }
    }

    #[test]
    fn bounded_runs_match_unbounded_bitwise() {
        use kmeans_core::BoundsMode;
        let data = random_data(300, 6, 77);
        let init = init_centroids(&data, 12, InitMethod::Forgy, 19);
        for (units, g) in [(4, 2), (8, 4)] {
            for kernel in [AssignKernel::Scalar, AssignKernel::Gemm] {
                for update in [UpdateMode::TwoPass, UpdateMode::Fused, UpdateMode::Delta] {
                    let mk = |bounds| {
                        let mut c = cfg(units, g, 30);
                        c.kernel = kernel;
                        c.update = update;
                        c.bounds = bounds;
                        c
                    };
                    let base = run(&data, init.clone(), &mk(BoundsMode::None)).unwrap();
                    for bounds in [BoundsMode::Hamerly, BoundsMode::Yinyang] {
                        let tag = format!("{units}/{g} {kernel} {update} {bounds}");
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
                        assert!(r.bounds.lloyd_equivalent > 0, "{tag}: no stats");
                    }
                }
            }
        }
    }

    #[test]
    fn f32_packed_min_loc_merge_matches_f64_labels() {
        // f32 runs take the packed single-u64 min-loc merge; the labels must
        // agree with the f64 run's unpacked merge on well-separated data.
        let data = random_data(120, 4, 91);
        let data32: Matrix<f32> = data.cast();
        let init = init_centroids(&data, 6, InitMethod::Forgy, 23);
        let init32: Matrix<f32> = init.cast();
        let r64 = run(&data, init, &cfg(8, 4, 3)).unwrap();
        let r32 = run(&data32, init32, &cfg(8, 4, 3)).unwrap();
        assert_eq!(r32.labels, r64.labels);
        // Packed pairs are one u64 where unpacked pairs are (f64, u64):
        // the f32 run's min-loc traffic must be half the f64 run's.
        let minloc32 = r32.comm.bytes_of(msg::OpKind::MinLoc);
        let minloc64 = r64.comm.bytes_of(msg::OpKind::MinLoc);
        assert!(minloc32 * 2 == minloc64, "{minloc32} vs {minloc64}");
    }

    #[test]
    fn min_loc_tie_break_matches_serial() {
        // Duplicate centroids force exact distance ties; the lower index
        // must win in both implementations.
        let data = random_data(40, 3, 55);
        let mut init = init_centroids(&data, 4, InitMethod::Forgy, 9);
        let dup = init.row(1).to_vec();
        init.row_mut(3).copy_from_slice(&dup);
        let hier = run(&data, init.clone(), &cfg(8, 4, 1)).unwrap();
        let serial = Lloyd::run_from(
            &data,
            init,
            &KMeansConfig::new(4).with_max_iters(1).with_tol(0.0),
        )
        .unwrap();
        assert_eq!(hier.labels, serial.labels);
    }
}
