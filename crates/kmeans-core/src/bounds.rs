//! Triangle-inequality bound maintenance fused with the batch assign
//! kernels: the workspace's one pruning implementation, run by the serial
//! [`crate::Lloyd`] and by every distributed executor alike.
//!
//! A [`BoundState`] tracks, per sample, an upper bound on the distance to
//! its cached winning centroid and Yinyang-style lower bounds on the
//! distance to every *group* of centroids (`t ≈ k/10` contiguous index
//! ranges; `t = 1` is Hamerly's single-bound algorithm). Bounds are
//! seeded from real kernel scans, then loosened each iteration by the
//! per-centroid drift of the merged update. A sample whose upper bound
//! sits strictly below every group lower bound cannot have changed its
//! argmin, so its cached `(label, key)` pair is emitted without touching
//! the centroids; the surviving rows are gather-compacted into a dense
//! panel and pushed through the *same* [`AssignPlan`] batch kernels, so
//! pruning multiplies with the GEMM kernel's speedup instead of replacing
//! it.
//!
//! # Bitwise discipline
//!
//! The filter is *winner-preserving*: it only ever suppresses scans whose
//! argmin provably equals the cached label, so labels, keys, centroids,
//! objective and iteration count are bitwise-identical to the unbounded
//! run of the same kernel — the induction argument of the delta update
//! path, applied to the assign phase. Two design points make the proof go
//! through at every level:
//!
//! * **Contiguous groups.** Bound groups are contiguous centroid index
//!   ranges, so a per-group scan is an ordinary `crows` sub-range of the
//!   same plan (bit-identical keys to the full scan), the cross-group
//!   winner is the lexicographic min over `(key, index)` — exactly the
//!   full scan's ascending-index tie-break — and a group intersected with
//!   a Level-2/3 centroid shard is again a plain range.
//! * **Merged-quantity state.** Every bound update is computed from
//!   globally-merged values (min-loc winners, allreduced drifts and
//!   runner-up minima), so the centroid-sharing members of a group make
//!   identical IEEE-754 filter decisions without any extra agreement
//!   protocol.
//!
//! Floating-point safety margins (`slack`) widen every bound by a
//! kernel-rounding allowance scaled to the sample norm, covering the
//! cancellation error of the GEMM kernel's `‖x‖²+‖c‖²−2·x·c` form; exact ties
//! produce `ub ≥ lb` and therefore always rescan, which is how the
//! lowest-index tie-break survives filtering.

use crate::assign::AssignPlan;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use std::fmt;
use std::ops::Range;
use std::str::FromStr;

/// Moved-fraction threshold below which a dormant bound state engages:
/// while most labels still churn, bounds cannot filter anything, so the
/// state stays dormant (plain scans, zero bookkeeping) until the
/// convergence tail begins.
pub const ENGAGE_MOVED_FRACTION: f64 = 0.25;

/// Survivor fraction above which the next iteration reseeds: lower bounds
/// only ever loosen between seeds, so once most rows rescan anyway, one
/// seed scan (≈ the cost of an unbounded iteration) re-tightens them.
pub const RESEED_SURVIVOR_FRACTION: f64 = 0.5;

/// Bounded-assign strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundsMode {
    /// Unbounded: every sample scans every centroid each iteration.
    None,
    /// Hamerly: one global lower bound per sample (`t = 1`). Cheapest
    /// bookkeeping; the right choice for small `k`.
    Hamerly,
    /// Yinyang: `t ≈ k/10` group lower bounds per sample (Ding et al.,
    /// ICML 2015). The default for paper-sized `k`.
    Yinyang,
    /// Consult the perf model (or a local heuristic) per run.
    Auto,
}

impl BoundsMode {
    pub const ALL: [BoundsMode; 4] = [
        BoundsMode::None,
        BoundsMode::Hamerly,
        BoundsMode::Yinyang,
        BoundsMode::Auto,
    ];

    pub fn name(self) -> &'static str {
        match self {
            BoundsMode::None => "none",
            BoundsMode::Hamerly => "hamerly",
            BoundsMode::Yinyang => "yinyang",
            BoundsMode::Auto => "auto",
        }
    }

    /// Stable numeric code for metrics gauges.
    pub fn code(self) -> u8 {
        match self {
            BoundsMode::None => 0,
            BoundsMode::Hamerly => 1,
            BoundsMode::Yinyang => 2,
            BoundsMode::Auto => 3,
        }
    }

    pub fn parse(s: &str) -> Option<BoundsMode> {
        BoundsMode::ALL.into_iter().find(|m| m.name() == s)
    }

    /// Resolve `Auto` without a perf model: Hamerly's single bound for
    /// small `k` (group bookkeeping would cost more than it saves),
    /// Yinyang groups otherwise. `None` stays `None`.
    pub fn resolve_local(self, k: usize) -> BoundsMode {
        match self {
            BoundsMode::Auto => {
                if k <= 32 {
                    BoundsMode::Hamerly
                } else {
                    BoundsMode::Yinyang
                }
            }
            other => other,
        }
    }

    /// Number of lower-bound groups for this mode at a given `k`.
    pub fn group_count(self, k: usize) -> usize {
        match self {
            BoundsMode::None => 0,
            BoundsMode::Hamerly => 1.min(k),
            BoundsMode::Yinyang | BoundsMode::Auto => (k / 10).clamp(1, k.max(1)),
        }
    }
}

impl fmt::Display for BoundsMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BoundsMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BoundsMode::parse(s).ok_or_else(|| {
            format!("unknown bounds mode '{s}' (expected none, hamerly, yinyang or auto)")
        })
    }
}

/// Pruning effectiveness counters, summed across ranks by the executors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundsStats {
    /// Centroid distance evaluations actually performed (batch kernel
    /// pairs plus scalar runner-up probes).
    pub distance_evals: u64,
    /// Evaluations an unbounded Lloyd assign would have performed over
    /// the same iterations (`n·k` per iteration).
    pub lloyd_equivalent: u64,
    /// Samples whose every group was pruned (cached pair emitted without
    /// any scan).
    pub global_filter_hits: u64,
    /// Per-group prunes observed on samples that still rescanned — the
    /// headroom a group-granular scan would additionally exploit.
    pub group_filter_hits: u64,
    /// Full seeding scans (initial, reseed and post-fault).
    pub seed_scans: u64,
    /// Conservative resets (fault-degraded iterations).
    pub resets: u64,
}

impl BoundsStats {
    /// Fraction of Lloyd-equivalent distance work avoided.
    pub fn savings(&self) -> f64 {
        if self.lloyd_equivalent == 0 {
            0.0
        } else {
            1.0 - self.distance_evals as f64 / self.lloyd_equivalent as f64
        }
    }

    pub fn merge(&mut self, other: &BoundsStats) {
        self.distance_evals += other.distance_evals;
        self.lloyd_equivalent += other.lloyd_equivalent;
        self.global_filter_hits += other.global_filter_hits;
        self.group_filter_hits += other.group_filter_hits;
        self.seed_scans += other.seed_scans;
        self.resets += other.resets;
    }
}

/// What the bound state wants the next assign pass to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundsIterKind {
    /// Not engaged: run the plain unbounded scan.
    Dormant,
    /// Engaged but unseeded (first engagement, reseed, or post-fault
    /// reset): run per-group scans that double as the full assign.
    Seed,
    /// Seeded: filter, then rescan only the survivors.
    Filter,
}

/// Reusable buffers for the serial bounded-assign driver.
#[derive(Debug, Default)]
pub struct BoundsScratch<S: Scalar> {
    group_out: Vec<Vec<(u32, S)>>,
    survivors: Vec<u32>,
    panel: Vec<S>,
    panel_out: Vec<(u32, S)>,
}

/// Per-sample bound bookkeeping for one rank's stripe of the dataset.
///
/// State indices are stripe-local: index `i` is sample `rows.start + i`
/// of whatever row range the owning executor passes to the drivers.
#[derive(Debug)]
pub struct BoundState<S: Scalar> {
    mode: BoundsMode,
    n: usize,
    k: usize,
    d: usize,
    t: usize,
    groups: Vec<Range<usize>>,
    group_of: Vec<u32>,
    /// Upper bound on the distance to the cached winner (f64, sqrt
    /// space), pre-widened by the kernel-rounding slack.
    ub: Vec<f64>,
    /// `n·t` group lower bounds, row-major per sample.
    lb: Vec<f64>,
    /// Cached winning `(global label, comparison key)` per sample.
    cached: Vec<(u32, S)>,
    /// Per-sample `‖x‖` (f64), the scale of the kernel rounding slack.
    xnorm: Vec<f64>,
    xnorm_ready: bool,
    /// Per-row bound validity: set by [`BoundState::seed_row`], cleared
    /// by [`BoundState::reset`]; unseeded rows always rescan.
    row_ok: Vec<bool>,
    active: bool,
    seeded: bool,
    pending_reseed: bool,
    slack: f64,
    pub stats: BoundsStats,
}

/// Relative drift inflation covering the f64 rounding of the shift
/// computation itself.
const DRIFT_INFLATE: f64 = 1.0 + 1e-12;

fn slack_for<S: Scalar>() -> f64 {
    // Covers the cancellation error of the GEMM kernel's
    // `‖x‖²+‖c‖²−2·x·c` bracketing relative to the scalar distance,
    // scaled by `2‖x‖ + dist` at use sites. Exact ties always rescan
    // regardless (ub ≥ lb there), so generosity costs only a sliver of
    // filter rate, never correctness.
    if S::BYTES == 4 {
        3e-4
    } else {
        1e-9
    }
}

/// Distance from a batch-assign pair value: [`AssignPlan::assign_batch_into`]
/// reports squared distances (`‖x‖²` already added back).
pub fn dist_from_batch<S: Scalar>(v: S) -> f64 {
    v.to_f64().max(0.0).sqrt()
}

/// Distance from a raw [`AssignPlan::score_pair`] key (`‖x‖²` still
/// missing for the GEMM kernel).
pub fn dist_from_score_key<S: Scalar>(plan: &AssignPlan<S>, sample: &[S], key: S) -> f64 {
    plan.key_to_dist(sample, key).to_f64().max(0.0).sqrt()
}

/// Per-centroid Euclidean drift between two same-shape centroid sets
/// (f64, exact zero for bitwise-unchanged rows).
pub fn centroid_drifts<S: Scalar>(old: &Matrix<S>, new: &Matrix<S>, out: &mut Vec<f64>) {
    assert_eq!(old.rows(), new.rows());
    assert_eq!(old.cols(), new.cols());
    out.clear();
    out.resize(old.rows(), 0.0);
    for (j, drift) in out.iter_mut().enumerate() {
        let (o, n) = (old.row(j), new.row(j));
        let mut acc = 0.0f64;
        for (a, b) in o.iter().zip(n) {
            let df = b.to_f64() - a.to_f64();
            acc += df * df;
        }
        *drift = acc.sqrt();
    }
}

impl<S: Scalar> BoundState<S> {
    /// A dormant bound state for `n` stripe-local samples and `k`
    /// centroids of dimension `d`. `mode` must be `Hamerly` or `Yinyang`
    /// (resolve `Auto` first; `None` means "don't construct one").
    pub fn new(mode: BoundsMode, n: usize, k: usize, d: usize) -> BoundState<S> {
        let mode = mode.resolve_local(k);
        assert!(
            matches!(mode, BoundsMode::Hamerly | BoundsMode::Yinyang),
            "BoundState requires a concrete bounded mode, got {mode}"
        );
        let t = mode.group_count(k).max(1).min(k.max(1));
        let groups: Vec<Range<usize>> = (0..t).map(|g| g * k / t..(g + 1) * k / t).collect();
        let mut group_of = vec![0u32; k];
        for (g, r) in groups.iter().enumerate() {
            for j in r.clone() {
                group_of[j] = g as u32;
            }
        }
        BoundState {
            mode,
            n,
            k,
            d,
            t,
            groups,
            group_of,
            ub: vec![0.0; n],
            lb: vec![f64::INFINITY; n * t],
            cached: vec![(0, S::ZERO); n],
            xnorm: vec![0.0; n],
            xnorm_ready: false,
            row_ok: vec![false; n],
            active: false,
            seeded: false,
            pending_reseed: false,
            slack: slack_for::<S>(),
            stats: BoundsStats::default(),
        }
    }

    pub fn mode(&self) -> BoundsMode {
        self.mode
    }

    pub fn group_ranges(&self) -> &[Range<usize>] {
        &self.groups
    }

    pub fn group_of(&self, j: usize) -> usize {
        self.group_of[j] as usize
    }

    pub fn groups_len(&self) -> usize {
        self.t
    }

    pub fn cached(&self, i: usize) -> (u32, S) {
        self.cached[i]
    }

    /// Whether bounds are currently valid (drift loosening applies).
    pub fn seeded(&self) -> bool {
        self.seeded
    }

    /// What the next assign pass should be, decided deterministically
    /// from state that is identical on every member of a centroid group.
    pub fn iteration_kind(&self) -> BoundsIterKind {
        if !self.active {
            BoundsIterKind::Dormant
        } else if !self.seeded || self.pending_reseed {
            BoundsIterKind::Seed
        } else {
            BoundsIterKind::Filter
        }
    }

    /// Engage once the convergence tail begins. Call at the end of every
    /// iteration with that iteration's moved fraction.
    pub fn note_moved_fraction(&mut self, moved: f64) {
        if !self.active && moved <= ENGAGE_MOVED_FRACTION {
            self.active = true;
        }
    }

    /// Conservative invalidation: a fault-degraded iteration ran on a
    /// degraded communicator, so drop back to dormant and reseed when
    /// the tail re-engages.
    pub fn reset(&mut self) {
        self.active = false;
        self.seeded = false;
        self.pending_reseed = false;
        self.row_ok.fill(false);
        self.stats.resets += 1;
    }

    /// Loosen every bound by the per-centroid drift of the last merged
    /// update (`drifts[j]` = Euclidean shift of centroid `j`, computed
    /// from globally-merged centroids). No-op until seeded.
    pub fn loosen(&mut self, drifts: &[f64]) {
        if !self.seeded {
            return;
        }
        assert_eq!(drifts.len(), self.k);
        let mut gd = vec![0.0f64; self.t];
        for (j, &dj) in drifts.iter().enumerate() {
            let g = self.group_of[j] as usize;
            if dj > gd[g] {
                gd[g] = dj;
            }
        }
        for (i, ok) in self.row_ok.iter().enumerate() {
            if !ok {
                continue;
            }
            let b = self.cached[i].0 as usize;
            let db = drifts[b];
            if db > 0.0 {
                self.ub[i] += db * DRIFT_INFLATE;
            }
            let row = &mut self.lb[i * self.t..(i + 1) * self.t];
            for (g, l) in row.iter_mut().enumerate() {
                if gd[g] > 0.0 {
                    *l -= gd[g] * DRIFT_INFLATE;
                }
            }
        }
    }

    fn pad(&self, i: usize, dist: f64) -> f64 {
        self.slack * (2.0 * self.xnorm[i] + dist)
    }

    /// Fill `‖x‖` for stripe rows `rows` of `data` (state index
    /// `row − rows.start`). Idempotent; called by the seed paths.
    pub fn ensure_xnorms(&mut self, data: &Matrix<S>, rows: Range<usize>) {
        if self.xnorm_ready {
            return;
        }
        assert_eq!(rows.len(), self.n);
        for (i, xn) in self.xnorm.iter_mut().enumerate() {
            let mut acc = 0.0f64;
            for v in data.row(rows.start + i) {
                let f = v.to_f64();
                acc += f * f;
            }
            *xn = acc.sqrt();
        }
        self.xnorm_ready = true;
    }

    /// Seed one row from merged per-group winner distances.
    /// `group_dists[g]` is the (merged) min distance within group `g`
    /// (`INFINITY` where a shard saw no member), `runner_up` the merged
    /// min within the winner's group excluding the winner itself.
    pub fn seed_row(&mut self, i: usize, pair: (u32, S), group_dists: &[f64], runner_up: f64) {
        debug_assert_eq!(group_dists.len(), self.t);
        let gb = self.group_of[pair.0 as usize] as usize;
        let dist = group_dists[gb];
        self.ub[i] = dist + self.pad(i, dist);
        let row = &mut self.lb[i * self.t..(i + 1) * self.t];
        for (g, l) in row.iter_mut().enumerate() {
            let dg = group_dists[g];
            *l = if dg.is_finite() {
                dg - self.slack * (2.0 * self.xnorm[i] + dg)
            } else {
                dg
            };
        }
        row[gb] = if runner_up.is_finite() {
            runner_up - self.slack * (2.0 * self.xnorm[i] + runner_up)
        } else {
            runner_up
        };
        self.cached[i] = pair;
        self.row_ok[i] = true;
    }

    /// Mark a completed seeding pass over every stripe row.
    pub fn mark_seeded(&mut self) {
        self.active = true;
        self.seeded = true;
        self.pending_reseed = false;
        self.stats.seed_scans += 1;
    }

    /// Filter decision for one row: `Some(cached pair)` if every group is
    /// pruned (emit without scanning), `None` if the row must rescan.
    pub fn filter_row(&mut self, i: usize) -> Option<(u32, S)> {
        if !self.row_ok[i] {
            return None;
        }
        let ub = self.ub[i];
        let row = &self.lb[i * self.t..(i + 1) * self.t];
        let mut glb = f64::INFINITY;
        for &l in row {
            if l < glb {
                glb = l;
            }
        }
        if ub < glb {
            self.stats.global_filter_hits += 1;
            Some(self.cached[i])
        } else {
            // Count the groups a group-granular scan could still skip.
            self.stats.group_filter_hits += row.iter().filter(|&&l| ub < l).count() as u64;
            None
        }
    }

    /// Absorb a survivor's merged rescan result.
    pub fn absorb_row(&mut self, i: usize, pair: (u32, S), dist: f64) {
        let prev = self.cached[i].0;
        self.ub[i] = dist + self.pad(i, dist);
        if pair.0 != prev && self.row_ok[i] {
            // The new winner's distance lower-bounds the old group's new
            // minimum (the old winner is still in there).
            let g_old = self.group_of[prev as usize] as usize;
            let l = dist - self.pad(i, dist);
            let slot = &mut self.lb[i * self.t + g_old];
            if l < *slot {
                *slot = l;
            }
        }
        self.cached[i] = pair;
    }

    /// Close a filtered pass: decide whether lower bounds have gone stale
    /// enough that the next iteration should reseed.
    pub fn finish_filter(&mut self, survivors: usize) {
        self.pending_reseed =
            (survivors as f64) > RESEED_SURVIVOR_FRACTION * (self.n.max(1) as f64);
    }

    /// Serial bounded assign over a fully-owned centroid set: drop-in for
    /// `plan.assign_batch_into(data, rows, centroids, 0..k, 0, out)`.
    /// Handles all three [`BoundsIterKind`]s; `out` receives one
    /// `(label, key)` pair per row, bitwise-identical to the unbounded
    /// call. Returns the kind that ran.
    pub fn assign_serial(
        &mut self,
        plan: &AssignPlan<S>,
        data: &Matrix<S>,
        rows: Range<usize>,
        centroids: &Matrix<S>,
        out: &mut Vec<(u32, S)>,
        scratch: &mut BoundsScratch<S>,
    ) -> BoundsIterKind {
        assert_eq!(rows.len(), self.n);
        assert_eq!(centroids.rows(), self.k);
        let kind = self.iteration_kind();
        let nk = (self.n as u64) * (self.k as u64);
        self.stats.lloyd_equivalent += nk;
        match kind {
            BoundsIterKind::Dormant => {
                plan.assign_batch_into(data, rows, centroids, 0..self.k, 0, out);
                self.stats.distance_evals += nk;
            }
            BoundsIterKind::Seed => {
                self.seed_scan(plan, data, rows, centroids, out, scratch);
            }
            BoundsIterKind::Filter => {
                self.filter_scan(plan, data, rows, centroids, out, scratch);
            }
        }
        kind
    }

    fn seed_scan(
        &mut self,
        plan: &AssignPlan<S>,
        data: &Matrix<S>,
        rows: Range<usize>,
        centroids: &Matrix<S>,
        out: &mut Vec<(u32, S)>,
        scratch: &mut BoundsScratch<S>,
    ) {
        self.ensure_xnorms(data, rows.clone());
        scratch.group_out.resize(self.t, Vec::new());
        for (g, range) in self.groups.iter().enumerate() {
            let go = &mut scratch.group_out[g];
            go.clear();
            if range.is_empty() {
                continue;
            }
            plan.assign_batch_into(
                data,
                rows.clone(),
                centroids,
                range.clone(),
                range.start,
                go,
            );
        }
        self.stats.distance_evals += (self.n as u64) * (self.k as u64);
        let mut group_dists = vec![f64::INFINITY; self.t];
        for i in 0..self.n {
            // Cross-group lexmin over (key, global index): groups are
            // ascending index ranges, so strict `<` on the key keeps the
            // earliest (lowest-index) group on exact cross-group ties —
            // the full scan's tie-break.
            let mut best: Option<(u32, S)> = None;
            for go in scratch.group_out.iter() {
                if go.is_empty() {
                    continue;
                }
                let cand = go[i];
                best = match best {
                    None => Some(cand),
                    Some(b) if cand.1 < b.1 => Some(cand),
                    Some(b) => Some(b),
                };
            }
            let pair = best.expect("at least one non-empty group");
            let sample = data.row(rows.start + i);
            for (g, go) in scratch.group_out.iter().enumerate() {
                group_dists[g] = if go.is_empty() {
                    f64::INFINITY
                } else {
                    dist_from_batch(go[i].1)
                };
            }
            let gb = self.group_of[pair.0 as usize] as usize;
            let mut ru_key: Option<S> = None;
            for j in self.groups[gb].clone() {
                if j as u32 == pair.0 {
                    continue;
                }
                let key = plan.score_pair(sample, centroids, j);
                ru_key = match ru_key {
                    None => Some(key),
                    Some(b) if key < b => Some(key),
                    Some(b) => Some(b),
                };
            }
            self.stats.distance_evals += (self.groups[gb].len() as u64).saturating_sub(1);
            let runner_up = match ru_key {
                Some(key) => dist_from_score_key(plan, sample, key),
                None => f64::INFINITY,
            };
            self.seed_row(i, pair, &group_dists, runner_up);
            out.push(pair);
        }
        self.mark_seeded();
    }

    fn filter_scan(
        &mut self,
        plan: &AssignPlan<S>,
        data: &Matrix<S>,
        rows: Range<usize>,
        centroids: &Matrix<S>,
        out: &mut Vec<(u32, S)>,
        scratch: &mut BoundsScratch<S>,
    ) {
        scratch.survivors.clear();
        scratch.panel.clear();
        let base = out.len();
        for i in 0..self.n {
            match self.filter_row(i) {
                Some(pair) => out.push(pair),
                None => {
                    scratch.survivors.push(i as u32);
                    scratch.panel.extend_from_slice(data.row(rows.start + i));
                    out.push((u32::MAX, S::ZERO));
                }
            }
        }
        let m = scratch.survivors.len();
        if m > 0 {
            let panel = Matrix::from_vec(m, self.d, std::mem::take(&mut scratch.panel));
            scratch.panel_out.clear();
            plan.assign_batch_into(
                &panel,
                0..m,
                centroids,
                0..self.k,
                0,
                &mut scratch.panel_out,
            );
            for (s, &iu) in scratch.survivors.iter().enumerate() {
                let i = iu as usize;
                let pair = scratch.panel_out[s];
                let dist = dist_from_batch(pair.1);
                self.absorb_row(i, pair, dist);
                out[base + i] = pair;
            }
            scratch.panel = panel.into_vec();
            self.stats.distance_evals += (m as u64) * (self.k as u64);
        }
        self.finish_filter(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::AssignKernel;
    use crate::init::{init_centroids, InitMethod};

    fn toy(n: usize, d: usize, seed: u64) -> Matrix<f64> {
        let mut v = Vec::with_capacity(n * d);
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for _ in 0..n * d {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            v.push(((s >> 33) as f64) / (1u64 << 31) as f64 - 1.0);
        }
        Matrix::from_vec(n, d, v)
    }

    #[test]
    fn modes_parse_and_roundtrip() {
        for m in BoundsMode::ALL {
            assert_eq!(BoundsMode::parse(m.name()), Some(m));
            assert_eq!(m.name().parse::<BoundsMode>().unwrap(), m);
        }
        assert!(BoundsMode::parse("elkan").is_none());
        assert_eq!(BoundsMode::Auto.resolve_local(8), BoundsMode::Hamerly);
        assert_eq!(BoundsMode::Auto.resolve_local(256), BoundsMode::Yinyang);
        assert_eq!(BoundsMode::None.resolve_local(256), BoundsMode::None);
    }

    #[test]
    fn groups_partition_the_centroid_range() {
        for (k, mode) in [
            (1, BoundsMode::Yinyang),
            (7, BoundsMode::Hamerly),
            (97, BoundsMode::Yinyang),
            (256, BoundsMode::Yinyang),
        ] {
            let st = BoundState::<f64>::new(mode, 3, k, 2);
            let mut covered = 0;
            let mut prev_end = 0;
            for r in st.group_ranges() {
                assert_eq!(r.start, prev_end, "groups must be contiguous");
                prev_end = r.end;
                covered += r.len();
                for j in r.clone() {
                    assert_eq!(
                        st.group_of(j),
                        st.group_ranges()
                            .iter()
                            .position(|g| g.contains(&j))
                            .unwrap()
                    );
                }
            }
            assert_eq!(covered, k);
            assert_eq!(prev_end, k);
        }
    }

    /// The serial driver must reproduce the unbounded scan bit for bit
    /// through dormancy, seeding, filtering and reseeding, while
    /// centroids drift.
    #[test]
    fn serial_driver_matches_unbounded_bitwise_across_drift() {
        let n = 300;
        let (d, k) = (6, 24);
        let data = toy(n, d, 3);
        let centroids = init_centroids(&data, k, InitMethod::Forgy, 7);
        for kernel in AssignKernel::ALL {
            for mode in [BoundsMode::Hamerly, BoundsMode::Yinyang] {
                let mut st = BoundState::<f64>::new(mode, n, k, d);
                let mut scratch = BoundsScratch::default();
                let mut drifts = vec![0.0f64; k];
                let mut cur = centroids.clone();
                st.note_moved_fraction(0.0); // engage immediately
                for iter in 0..8 {
                    let plan = AssignPlan::new(kernel, &cur);
                    let mut expect = Vec::new();
                    plan.assign_batch_into(&data, 0..n, &cur, 0..k, 0, &mut expect);
                    let mut got = Vec::new();
                    let kind = st.assign_serial(&plan, &data, 0..n, &cur, &mut got, &mut scratch);
                    for i in 0..n {
                        assert_eq!(got[i].0, expect[i].0, "{kernel} {mode} iter {iter} row {i}");
                        // Filtered rows keep their cached (stale) key —
                        // keys are only fresh on scanned rows, and
                        // nothing downstream consumes them.
                        if kind != BoundsIterKind::Filter {
                            assert_eq!(
                                got[i].1.bits(),
                                expect[i].1.bits(),
                                "{kernel} {mode} iter {iter} row {i} key"
                            );
                        }
                    }
                    // Drift a few centroids a little, as a converging
                    // update would, and loosen.
                    let old = cur.clone();
                    for j in (iter % 3..k).step_by(5) {
                        for v in cur.row_mut(j) {
                            *v += 0.003 * ((j + 1) as f64) / k as f64;
                        }
                    }
                    centroid_drifts(&old, &cur, &mut drifts);
                    st.loosen(&drifts);
                }
                assert!(st.stats.seed_scans >= 1, "{kernel} {mode} never seeded");
                assert!(
                    st.stats.global_filter_hits > 0,
                    "{kernel} {mode} never filtered anything"
                );
                assert!(st.stats.savings() > 0.0, "{kernel} {mode} saved nothing");
            }
        }
    }

    /// Exact duplicate centroids create cross-group ties: the filter
    /// must keep the lowest-index winner (ties always rescan).
    #[test]
    fn duplicate_centroids_keep_lowest_index() {
        let n = 80;
        let d = 4;
        let data = toy(n, d, 9);
        let base = init_centroids(&data, 5, InitMethod::Forgy, 1);
        let mut rows: Vec<&[f64]> = Vec::new();
        for j in 0..base.rows() {
            rows.push(base.row(j));
            rows.push(base.row(j));
        }
        let cent = Matrix::from_rows(&rows);
        let k = cent.rows();
        let mut st = BoundState::<f64>::new(BoundsMode::Yinyang, n, k, d);
        let mut scratch = BoundsScratch::default();
        st.note_moved_fraction(0.0);
        let plan = AssignPlan::new(AssignKernel::Gemm, &cent);
        for _ in 0..3 {
            let mut got = Vec::new();
            st.assign_serial(&plan, &data, 0..n, &cent, &mut got, &mut scratch);
            for (i, &(j, _)) in got.iter().enumerate() {
                assert_eq!(j % 2, 0, "row {i}: duplicate's higher index won");
            }
            st.loosen(&vec![0.0; k]);
        }
    }

    #[test]
    fn reset_forces_reseed_and_counts() {
        let n = 50;
        let (d, k) = (3, 8);
        let data = toy(n, d, 5);
        let cent = init_centroids(&data, k, InitMethod::Forgy, 2);
        let mut st = BoundState::<f64>::new(BoundsMode::Yinyang, n, k, d);
        let mut scratch = BoundsScratch::default();
        st.note_moved_fraction(0.0);
        let plan = AssignPlan::new(AssignKernel::Gemm, &cent);
        let mut out = Vec::new();
        assert_eq!(
            st.assign_serial(&plan, &data, 0..n, &cent, &mut out, &mut scratch),
            BoundsIterKind::Seed
        );
        out.clear();
        assert_eq!(
            st.assign_serial(&plan, &data, 0..n, &cent, &mut out, &mut scratch),
            BoundsIterKind::Filter
        );
        st.reset();
        assert_eq!(st.stats.resets, 1);
        assert_eq!(st.iteration_kind(), BoundsIterKind::Dormant);
        st.note_moved_fraction(0.1);
        assert_eq!(st.iteration_kind(), BoundsIterKind::Seed);
        out.clear();
        assert_eq!(
            st.assign_serial(&plan, &data, 0..n, &cent, &mut out, &mut scratch),
            BoundsIterKind::Seed
        );
        assert_eq!(st.stats.seed_scans, 2);
    }

    #[test]
    fn savings_fraction_is_well_defined() {
        let mut s = BoundsStats::default();
        assert_eq!(s.savings(), 0.0);
        s.lloyd_equivalent = 100;
        s.distance_evals = 25;
        assert!((s.savings() - 0.75).abs() < 1e-12);
        let mut t = BoundsStats::default();
        t.merge(&s);
        assert_eq!(t.lloyd_equivalent, 100);
        assert_eq!(t.distance_evals, 25);
    }
}
