//! Squared-Euclidean distance kernels.
//!
//! Two layers:
//! * Per pair: [`sq_euclidean`] is the obvious loop, the reference
//!   everything else is tested against; [`sq_euclidean_unrolled`] keeps
//!   four independent stride-4 accumulators (the CPE-style inner loop) and
//!   *defines* the workspace's exact distance — [`argmin_centroid`] over it
//!   is the label/objective contract of every executor. Partial-dimension
//!   distances are just these kernels applied to column-range slices:
//!   Level 3 computes `Σ_{u∈slice}(x_u - c_u)²` per CPE and sum-reduces the
//!   partials, which is exact because squared Euclidean distance is
//!   additive over disjoint dimension slices.
//! * Per batch, bit-exact: [`argmin_direct`] (many centroids, argmin) and
//!   [`sq_dists_to_row`] (one centroid) perform, per pair, exactly the
//!   operations of [`sq_euclidean_unrolled`] in exactly its order, only
//!   several pairs at a time in the lanes of vector registers. They are
//!   what `assign_step` (every fit's final label/objective pass) and
//!   k-means++ seeding run on; being re-schedulings rather than
//!   re-bracketings, they cannot change a label, a seed or an objective
//!   bit.

use crate::assign::{pack_centroid_panels, GEMM_NR};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use std::ops::Range;

/// Squared Euclidean distance between two equal-length slices.
#[inline]
pub fn sq_euclidean<S: Scalar>(a: &[S], b: &[S]) -> S {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = S::ZERO;
    for (x, y) in a.iter().zip(b) {
        let d = *x - *y;
        acc += d * d;
    }
    acc
}

/// Squared Euclidean distance with 4-way unrolling — same result as
/// [`sq_euclidean`] up to floating-point reassociation.
#[inline]
pub fn sq_euclidean_unrolled<S: Scalar>(a: &[S], b: &[S]) -> S {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (S::ZERO, S::ZERO, S::ZERO, S::ZERO);
    for i in 0..chunks {
        let base = i * 4;
        let d0 = a[base] - b[base];
        let d1 = a[base + 1] - b[base + 1];
        let d2 = a[base + 2] - b[base + 2];
        let d3 = a[base + 3] - b[base + 3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    let mut acc = (s0 + s1) + (s2 + s3);
    for i in chunks * 4..a.len() {
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc
}

/// Index and squared distance of the centroid nearest to `sample`,
/// breaking ties toward the lowest index (the convention every level of the
/// hierarchy shares, so distributed argmin merges agree with serial).
#[inline]
pub fn argmin_centroid<S: Scalar>(sample: &[S], centroids: &Matrix<S>) -> (usize, S) {
    assert!(centroids.rows() > 0, "no centroids");
    assert_eq!(sample.len(), centroids.cols(), "dimension mismatch");
    let mut best_j = 0usize;
    let mut best_d = sq_euclidean_unrolled(sample, centroids.row(0));
    for j in 1..centroids.rows() {
        let d = sq_euclidean_unrolled(sample, centroids.row(j));
        if d < best_d {
            best_d = d;
            best_j = j;
        }
    }
    (best_j, best_d)
}

/// Like [`argmin_centroid`] but over a *subset* of centroid rows, returning
/// the winning row's global index from `global_offset`. This is the partial
/// argmin a CPE group member computes in Level 2 before the min-loc merge.
#[inline]
pub fn argmin_centroid_range<S: Scalar>(
    sample: &[S],
    centroids: &Matrix<S>,
    rows: Range<usize>,
    global_offset: usize,
) -> (usize, S) {
    assert!(!rows.is_empty(), "empty centroid range");
    let mut best_j = global_offset;
    let mut best_d = sq_euclidean_unrolled(sample, centroids.row(rows.start));
    for j in rows.start + 1..rows.end {
        let d = sq_euclidean_unrolled(sample, centroids.row(j));
        if d < best_d {
            best_d = d;
            best_j = global_offset + (j - rows.start);
        }
    }
    (best_j, best_d)
}

/// Lanes of one packed centroid panel (the GEMM kernel's layout, reused).
const LANES: usize = GEMM_NR;

/// Most sample rows whose per-lane argmin state the batch kernel keeps on
/// its stack while it sweeps the panels.
const ROW_BLOCK_MAX: usize = 64;

/// Bytes of sample rows kept hot while every panel streams past them: at
/// d = 3072 that is 20 rows beside a 96 KB panel (both stay in L2), at
/// d = 64 the full 64-row block sits in L1.
const ROW_BLOCK_BYTES: usize = 256 * 1024;

/// Multiply-adds (`n·k·d`) below which a whole pass runs on the calling
/// thread: a spawn costs about what this much work does, and the
/// bounds/streaming callers that score a few thousand pairs per call must
/// never pay it.
const PAR_MIN_WORK: usize = 1 << 25;

/// Worker count for a pass of `work` multiply-adds: 1 below
/// [`PAR_MIN_WORK`], otherwise the cores this process may run on.
pub(crate) fn par_workers(work: usize) -> usize {
    if work < PAR_MIN_WORK {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Rows per block of the batch kernel: even (rows go through in pairs),
/// within `2..=ROW_BLOCK_MAX`, sized so a block stays cache-resident.
fn row_block<S: Scalar>(d: usize) -> usize {
    let rows = ROW_BLOCK_BYTES / (d * S::BYTES).max(1);
    (rows & !1).clamp(2, ROW_BLOCK_MAX)
}

/// Centroid rows packed for [`argmin_direct`]: the `8`-lane
/// column-interleaved panels of the GEMM kernel (panel `p` holds dimension
/// `u` of centroid `p·8 + jj` at `u·8 + jj`, lanes past `k` zeroed). The
/// fields are private so the kernel's `unsafe` body can rely on
/// `packed.len() == ⌈k/8⌉·d·8`.
#[derive(Debug, Clone)]
pub struct CentroidPanels<S: Scalar> {
    packed: Vec<S>,
    k: usize,
    d: usize,
}

impl<S: Scalar> CentroidPanels<S> {
    /// Pack `centroids` (at least one row).
    pub fn pack(centroids: &Matrix<S>) -> Self {
        let (k, d) = (centroids.rows(), centroids.cols());
        assert!(k > 0, "no centroids");
        // The AVX body carries panel indices in f32 lanes.
        assert!(k.div_ceil(LANES) <= 1 << 24, "k = {k} is out of range");
        let packed = if d == 0 {
            Vec::new()
        } else {
            pack_centroid_panels(centroids)
        };
        CentroidPanels { packed, k, d }
    }
}

/// Exact batch argmin: for every row `i` of `rows`, `labels[i − rows.start]`
/// and `dists[i − rows.start]` are bitwise what
/// `argmin_centroid(data.row(i), centroids)` returns.
///
/// Per (sample, centroid) pair the arithmetic *is* [`sq_euclidean_unrolled`]
/// — four stride-4 accumulators, `(s0+s1)+(s2+s3)`, ascending tail — only
/// with eight centroids of a panel advancing in the lanes of one register
/// and two samples in flight, so every operation is the same IEEE
/// subtract, multiply and add in the same order (nothing is fused or
/// reassociated). The argmin keeps, per lane, the first panel reaching
/// the lane's strict minimum and then takes the lowest centroid index
/// among the lanes sharing the overall minimum — the first index of the
/// minimum, which is what the serial strict-`<` scan returns. NaN
/// distances never win a comparison in either form; the one case where the
/// serial scan *returns* a NaN (centroid 0's distance is NaN, so nothing
/// ever beats it) is reproduced from the saved first distance.
///
/// `f32` on an AVX machine runs the explicit-lane body; everything else the
/// portable one ([`argmin_direct_portable`]), which is bitwise identical.
pub fn argmin_direct<S: Scalar>(
    data: &Matrix<S>,
    rows: Range<usize>,
    panels: &CentroidPanels<S>,
    labels: &mut [u32],
    dists: &mut [S],
) {
    argmin_checked(data, rows, panels, labels, dists, true)
}

/// [`argmin_direct`] pinned to the portable body — the reference the AVX
/// body is differentially tested against.
pub fn argmin_direct_portable<S: Scalar>(
    data: &Matrix<S>,
    rows: Range<usize>,
    panels: &CentroidPanels<S>,
    labels: &mut [u32],
    dists: &mut [S],
) {
    argmin_checked(data, rows, panels, labels, dists, false)
}

/// The one safe door to the batch bodies: asserts their preconditions,
/// then dispatches (`avx` permits the explicit-lane body). Never inlined,
/// so the callers' code generation does not depend on what sits behind it.
#[inline(never)]
fn argmin_checked<S: Scalar>(
    data: &Matrix<S>,
    rows: Range<usize>,
    panels: &CentroidPanels<S>,
    labels: &mut [u32],
    dists: &mut [S],
    avx: bool,
) {
    let x = check_direct(data, &rows, panels, labels, dists);
    if panels.d == 0 {
        // Every distance is the empty sum and centroid 0 wins.
        labels.fill(0);
        dists.fill(S::ZERO);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx
        && std::any::TypeId::of::<S>() == std::any::TypeId::of::<f32>()
        && std::arch::is_x86_feature_detected!("avx")
    {
        // SAFETY: the TypeId check proves `S` is exactly `f32`, so these
        // reinterpretations are between identical types; AVX was just
        // detected; `d > 0` was checked above; and `check_direct` asserted
        // the remaining preconditions the callee documents (`k > 0`; `x`,
        // `labels` and `dists` agree on the row count; `packed` holds
        // ⌈k/8⌉ ≤ 2²⁴ whole panels of width `d`).
        unsafe {
            let xf = std::slice::from_raw_parts(x.as_ptr() as *const f32, x.len());
            let pf = std::slice::from_raw_parts(
                panels.packed.as_ptr() as *const f32,
                panels.packed.len(),
            );
            let df = std::slice::from_raw_parts_mut(dists.as_mut_ptr() as *mut f32, dists.len());
            argmin_rows_f32_avx(xf, panels.d, pf, panels.k, labels, df);
        }
        return;
    }
    let _ = avx; // only read on x86-64
    argmin_rows_portable(x, panels.d, &panels.packed, panels.k, labels, dists)
}

/// Assert every precondition of the batch bodies and return the flat
/// `rows.len()·d` sample slice.
fn check_direct<'a, S: Scalar>(
    data: &'a Matrix<S>,
    rows: &Range<usize>,
    panels: &CentroidPanels<S>,
    labels: &[u32],
    dists: &[S],
) -> &'a [S] {
    assert!(
        rows.start <= rows.end && rows.end <= data.rows(),
        "row range {rows:?} outside 0..{}",
        data.rows()
    );
    assert_eq!(data.cols(), panels.d, "dimension mismatch");
    assert_eq!(labels.len(), rows.len(), "labels length");
    assert_eq!(dists.len(), rows.len(), "dists length");
    let n_panels = panels.k.div_ceil(LANES);
    assert!(
        (1..=1 << 24).contains(&n_panels),
        "centroid count out of range"
    );
    assert_eq!(
        panels.packed.len(),
        n_panels * panels.d * LANES,
        "packed panels length"
    );
    let x = &data.as_slice()[rows.start * panels.d..rows.end * panels.d];
    assert_eq!(x.len(), labels.len() * panels.d);
    x
}

/// Fold one sample's per-lane minima (`vals[jj]`, first reached at panel
/// `panel_of[jj]`) into the serial scan's answer; `first` is centroid 0's
/// distance. Lanes nothing ever lowered still hold `(+∞, panel 0)`, so an
/// all-infinite row resolves to `(0, +∞)` like the serial scan.
#[inline]
fn fold_lanes<S: Scalar>(first: S, vals: &[S; LANES], panel_of: &[u32; LANES]) -> (u32, S) {
    if first.partial_cmp(&first).is_none() {
        return (0, first);
    }
    let mut best = vals[0];
    let mut best_j = panel_of[0] * LANES as u32;
    for jj in 1..LANES {
        let j = panel_of[jj] * LANES as u32 + jj as u32;
        if vals[jj] < best || (vals[jj] == best && j < best_j) {
            best = vals[jj];
            best_j = j;
        }
    }
    (best_j, best)
}

/// Portable body of [`argmin_direct`]: same blocking and the same per-lane
/// state as the AVX body, with `[S; 4]` half-panels the compiler keeps in
/// 128-bit registers.
fn argmin_rows_portable<S: Scalar>(
    x: &[S],
    d: usize,
    packed: &[S],
    k: usize,
    labels: &mut [u32],
    dists: &mut [S],
) {
    let inf = S::from_f64(f64::INFINITY);
    let block = row_block::<S>(d);
    let mut best_v = [[inf; LANES]; ROW_BLOCK_MAX];
    let mut best_p = [[0u32; LANES]; ROW_BLOCK_MAX];
    let mut first = [S::ZERO; ROW_BLOCK_MAX];
    for ((xb, lb), db) in x
        .chunks(block * d)
        .zip(labels.chunks_mut(block))
        .zip(dists.chunks_mut(block))
    {
        let bm = lb.len();
        best_v[..bm].fill([inf; LANES]);
        best_p[..bm].fill([0; LANES]);
        for (p, panel) in packed.chunks_exact(d * LANES).enumerate() {
            // Lanes past `k` hold zero rows; they are never looked at.
            let live = (k - p * LANES).min(LANES);
            let mut s = 0;
            while s < bm {
                let pair = s + 1 < bm;
                let xa = &xb[s * d..(s + 1) * d];
                let xc = if pair {
                    &xb[(s + 1) * d..(s + 2) * d]
                } else {
                    xa
                };
                let (da, dc) = panel_dists_pair(xa, xc, panel);
                for (t, dv) in [(s, da), (s + 1, dc)].into_iter().take(1 + pair as usize) {
                    if p == 0 {
                        first[t] = dv[0];
                    }
                    for jj in 0..live {
                        if dv[jj] < best_v[t][jj] {
                            best_v[t][jj] = dv[jj];
                            best_p[t][jj] = p as u32;
                        }
                    }
                }
                s += 2;
            }
        }
        for t in 0..bm {
            (lb[t], db[t]) = fold_lanes(first[t], &best_v[t], &best_p[t]);
        }
    }
}

/// Distances from two samples to the eight centroids of one panel, each
/// bitwise [`sq_euclidean_unrolled`] of its pair.
#[inline(always)]
fn panel_dists_pair<S: Scalar>(xa: &[S], xc: &[S], panel: &[S]) -> ([S; LANES], [S; LANES]) {
    const H: usize = LANES / 2;
    let d = xa.len();
    let tail = d - d % 4;
    let mut out_a = [S::ZERO; LANES];
    let mut out_c = [S::ZERO; LANES];
    // Two half-panels of four lanes: 2 samples × 4 accumulators × 4 lanes
    // is what fits the sixteen 128-bit registers.
    for h in 0..2 {
        let mut sa = [[S::ZERO; H]; 4];
        let mut sc = [[S::ZERO; H]; 4];
        for ((quad, qa), qc) in panel
            .chunks_exact(4 * LANES)
            .zip(xa.chunks_exact(4))
            .zip(xc.chunks_exact(4))
        {
            for l in 0..4 {
                let c = half_lanes(quad, l * LANES + h * H);
                add_sq_diff(&mut sa[l], qa[l], &c);
                add_sq_diff(&mut sc[l], qc[l], &c);
            }
        }
        let mut acc_a = sum_accumulators(&sa);
        let mut acc_c = sum_accumulators(&sc);
        for u in tail..d {
            let c = half_lanes(panel, u * LANES + h * H);
            add_sq_diff(&mut acc_a, xa[u], &c);
            add_sq_diff(&mut acc_c, xc[u], &c);
        }
        out_a[h * H..(h + 1) * H].copy_from_slice(&acc_a);
        out_c[h * H..(h + 1) * H].copy_from_slice(&acc_c);
    }
    (out_a, out_c)
}

/// Four contiguous centroid lanes of a panel, by value.
#[inline(always)]
fn half_lanes<S: Scalar>(panel: &[S], at: usize) -> [S; 4] {
    let c = &panel[at..at + 4];
    [c[0], c[1], c[2], c[3]]
}

/// `acc[jj] += (x − c[jj])²`, lane by lane.
#[inline(always)]
fn add_sq_diff<S: Scalar>(acc: &mut [S; 4], x: S, c: &[S; 4]) {
    for jj in 0..4 {
        let e = x - c[jj];
        acc[jj] += e * e;
    }
}

/// `(s0 + s1) + (s2 + s3)` per lane.
#[inline(always)]
fn sum_accumulators<S: Scalar>(s: &[[S; 4]; 4]) -> [S; 4] {
    let mut out = [S::ZERO; 4];
    for jj in 0..4 {
        out[jj] = (s[0][jj] + s[1][jj]) + (s[2][jj] + s[3][jj]);
    }
    out
}

/// Explicit-lane AVX body of [`argmin_direct`] (see there for the
/// bitwise-equivalence argument): `vsubps`/`vmulps`/`vaddps` are the exact
/// IEEE single-precision operations of the scalar chain applied per lane,
/// and the compare-and-blend argmin is the per-lane strict `<` update.
///
/// # Safety
/// Requires AVX, `d > 0`, `k > 0`, `labels.len() == dists.len()`,
/// `x.len() == labels.len()·d`, `packed.len() == ⌈k/8⌉·d·8` and
/// `⌈k/8⌉ ≤ 2²⁴` (panel indices are exact in an f32 lane).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn argmin_rows_f32_avx(
    x: &[f32],
    d: usize,
    packed: &[f32],
    k: usize,
    labels: &mut [u32],
    dists: &mut [f32],
) {
    use std::arch::x86_64::*;
    let m = labels.len();
    let block = row_block::<f32>(d);
    let inf = _mm256_set1_ps(f32::INFINITY);
    let lane_ids = _mm256_setr_ps(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0);
    let mut best_v = [[f32::INFINITY; LANES]; ROW_BLOCK_MAX];
    let mut best_p = [[0f32; LANES]; ROW_BLOCK_MAX];
    let mut first = [0f32; ROW_BLOCK_MAX];
    let mut b0 = 0;
    while b0 < m {
        let bm = block.min(m - b0);
        best_v[..bm].fill([f32::INFINITY; LANES]);
        best_p[..bm].fill([0.0; LANES]);
        for p in 0..k.div_ceil(LANES) {
            let panel = packed.as_ptr().add(p * d * LANES);
            // Lanes past `k` hold zero rows: force them to +∞ so the
            // strict `<` never lets them in.
            let live = (k - p * LANES).min(LANES);
            let pad = _mm256_cmp_ps::<_CMP_GE_OQ>(lane_ids, _mm256_set1_ps(live as f32));
            let pv = _mm256_set1_ps(p as f32);
            let mut s = 0;
            while s < bm {
                let pair = s + 1 < bm;
                let xa = x.as_ptr().add((b0 + s) * d);
                let xc = if pair { xa.add(d) } else { xa };
                let (da, dc) = panel_dists_pair_avx(xa, xc, panel, d);
                for (t, dv) in [(s, da), (s + 1, dc)].into_iter().take(1 + pair as usize) {
                    let dv = _mm256_blendv_ps(dv, inf, pad);
                    if p == 0 {
                        first[t] = _mm256_cvtss_f32(dv);
                    }
                    let bv = _mm256_loadu_ps(best_v[t].as_ptr());
                    let bp = _mm256_loadu_ps(best_p[t].as_ptr());
                    let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(dv, bv);
                    _mm256_storeu_ps(best_v[t].as_mut_ptr(), _mm256_blendv_ps(bv, dv, lt));
                    _mm256_storeu_ps(best_p[t].as_mut_ptr(), _mm256_blendv_ps(bp, pv, lt));
                }
                s += 2;
            }
        }
        for t in 0..bm {
            let panel_of = best_p[t].map(|p| p as u32);
            (labels[b0 + t], dists[b0 + t]) = fold_lanes(first[t], &best_v[t], &panel_of);
        }
        b0 += bm;
    }
}

/// AVX form of [`panel_dists_pair`]: one panel load per dimension shared
/// by both samples, eight accumulator registers.
///
/// # Safety
/// Requires AVX, `xa`/`xc` readable for `d` elements and `panel` for `d·8`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
unsafe fn panel_dists_pair_avx(
    xa: *const f32,
    xc: *const f32,
    panel: *const f32,
    d: usize,
) -> (std::arch::x86_64::__m256, std::arch::x86_64::__m256) {
    use std::arch::x86_64::*;
    let zero = _mm256_setzero_ps();
    let mut sa = [zero; 4];
    let mut sc = [zero; 4];
    let tail = d - d % 4;
    let mut u = 0;
    while u < tail {
        for l in 0..4 {
            let c = _mm256_loadu_ps(panel.add((u + l) * LANES));
            let ea = _mm256_sub_ps(_mm256_broadcast_ss(&*xa.add(u + l)), c);
            sa[l] = _mm256_add_ps(sa[l], _mm256_mul_ps(ea, ea));
            let ec = _mm256_sub_ps(_mm256_broadcast_ss(&*xc.add(u + l)), c);
            sc[l] = _mm256_add_ps(sc[l], _mm256_mul_ps(ec, ec));
        }
        u += 4;
    }
    let mut acc_a = _mm256_add_ps(_mm256_add_ps(sa[0], sa[1]), _mm256_add_ps(sa[2], sa[3]));
    let mut acc_c = _mm256_add_ps(_mm256_add_ps(sc[0], sc[1]), _mm256_add_ps(sc[2], sc[3]));
    while u < d {
        let c = _mm256_loadu_ps(panel.add(u * LANES));
        let ea = _mm256_sub_ps(_mm256_broadcast_ss(&*xa.add(u)), c);
        acc_a = _mm256_add_ps(acc_a, _mm256_mul_ps(ea, ea));
        let ec = _mm256_sub_ps(_mm256_broadcast_ss(&*xc.add(u)), c);
        acc_c = _mm256_add_ps(acc_c, _mm256_mul_ps(ec, ec));
        u += 1;
    }
    (acc_a, acc_c)
}

/// One-centroid distances: `out[i − rows.start]` is bitwise
/// `sq_euclidean_unrolled(data.row(i), c)` for every row of `rows`, four
/// rows in flight so the four-lane accumulators of independent rows hide
/// each other's add latency (the k-means++ D² update; memory-bound once
/// vectorised, so there is no AVX form).
#[inline(never)]
pub fn sq_dists_to_row<S: Scalar>(data: &Matrix<S>, rows: Range<usize>, c: &[S], out: &mut [S]) {
    assert!(
        rows.start <= rows.end && rows.end <= data.rows(),
        "row range {rows:?} outside 0..{}",
        data.rows()
    );
    assert_eq!(c.len(), data.cols(), "dimension mismatch");
    assert_eq!(out.len(), rows.len(), "out length");
    let d = c.len();
    if d == 0 {
        return out.fill(S::ZERO);
    }
    let x = &data.as_slice()[rows.start * d..rows.end * d];
    let mut quads = out.chunks_exact_mut(4);
    for (o, xs) in (&mut quads).zip(x.chunks_exact(4 * d)) {
        let (r0, rest) = xs.split_at(d);
        let (r1, rest) = rest.split_at(d);
        let (r2, r3) = rest.split_at(d);
        o.copy_from_slice(&four_row_dists([r0, r1, r2, r3], c));
    }
    let done = rows.len() - rows.len() % 4;
    for (o, row) in quads
        .into_remainder()
        .iter_mut()
        .zip(x[done * d..].chunks_exact(d))
    {
        *o = sq_euclidean_unrolled(row, c);
    }
}

/// [`sq_euclidean_unrolled`] of four rows against `c`, advanced together.
#[inline(always)]
fn four_row_dists<S: Scalar>(rows: [&[S]; 4], c: &[S]) -> [S; 4] {
    let d = c.len();
    let tail = d - d % 4;
    let mut s = [[S::ZERO; 4]; 4];
    for (i, cq) in c.chunks_exact(4).enumerate() {
        let cq = [cq[0], cq[1], cq[2], cq[3]];
        for (acc, row) in s.iter_mut().zip(rows) {
            let xq = &row[i * 4..i * 4 + 4];
            for l in 0..4 {
                let e = xq[l] - cq[l];
                acc[l] += e * e;
            }
        }
    }
    let mut out = [S::ZERO; 4];
    for ((o, acc), row) in out.iter_mut().zip(s).zip(rows) {
        let mut a = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for u in tail..d {
            let e = row[u] - c[u];
            a += e * e;
        }
        *o = a;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_distance() {
        assert_eq!(sq_euclidean(&[0.0f64, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_euclidean(&[1.0f32], &[1.0]), 0.0);
        assert_eq!(sq_euclidean::<f64>(&[], &[]), 0.0);
    }

    #[test]
    fn unrolled_matches_simple() {
        // Lengths around the unroll boundary.
        for len in [0usize, 1, 3, 4, 5, 7, 8, 9, 31, 64, 100] {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 * 0.71).cos()).collect();
            let simple = sq_euclidean(&a, &b);
            let unrolled = sq_euclidean_unrolled(&a, &b);
            assert!(
                (simple - unrolled).abs() < 1e-12 * (1.0 + simple),
                "len {len}: {simple} vs {unrolled}"
            );
        }
    }

    #[test]
    fn partial_distances_sum_to_full() {
        // Additivity over dimension slices — the property Level 3 relies on.
        let a: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let b: Vec<f64> = (0..100).map(|i| (i as f64 * 0.1).powi(2) % 3.0).collect();
        let full = sq_euclidean(&a, &b);
        let split: f64 = [(0, 13), (13, 64), (64, 100)]
            .iter()
            .map(|&(s, e)| sq_euclidean(&a[s..e], &b[s..e]))
            .sum();
        assert!((full - split).abs() < 1e-10);
    }

    #[test]
    fn argmin_picks_nearest() {
        let centroids = Matrix::from_rows(&[&[0.0f64, 0.0], &[10.0, 0.0], &[0.0, 10.0]]);
        assert_eq!(argmin_centroid(&[1.0, 1.0], &centroids).0, 0);
        assert_eq!(argmin_centroid(&[9.0, 1.0], &centroids).0, 1);
        assert_eq!(argmin_centroid(&[1.0, 9.0], &centroids).0, 2);
    }

    #[test]
    fn argmin_breaks_ties_low() {
        let centroids = Matrix::from_rows(&[&[1.0f64], &[3.0], &[3.0], &[1.0]]);
        // Sample 2.0 is equidistant from all four; index 0 must win.
        let (j, d) = argmin_centroid(&[2.0], &centroids);
        assert_eq!(j, 0);
        assert_eq!(d, 1.0);
    }

    #[test]
    fn argmin_range_offsets_globally() {
        let centroids = Matrix::from_rows(&[&[0.0f64], &[10.0], &[2.9], &[100.0]]);
        // Search only rows 2..4 but report indices as if offset by 10.
        let (j, d) = argmin_centroid_range(&[3.0], &centroids, 2..4, 10);
        assert_eq!(j, 10);
        assert!((d - 0.01).abs() < 1e-12);
        let (j2, _) = argmin_centroid_range(&[99.0], &centroids, 2..4, 10);
        assert_eq!(j2, 11);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn argmin_rejects_dimension_mismatch() {
        let centroids = Matrix::from_rows(&[&[0.0f64, 0.0]]);
        let _ = argmin_centroid(&[1.0], &centroids);
    }

    #[test]
    fn f32_kernels_work() {
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0f32, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(sq_euclidean(&a, &b), 40.0);
        assert_eq!(sq_euclidean_unrolled(&a, &b), 40.0);
    }
    /// Deterministic pseudo-random test matrix (values in about ±4).
    fn wobble<S: Scalar>(rows: usize, cols: usize, salt: usize) -> Matrix<S> {
        let flat = (0..rows * cols)
            .map(|i| {
                S::from_f64((((i * 2654435761 + salt * 40503) % 10007) as f64 - 5003.0) / 1251.0)
            })
            .collect();
        Matrix::from_vec(rows, cols, flat)
    }

    /// Both public forms of the batch kernel over `rows`.
    fn direct_both<S: Scalar>(
        data: &Matrix<S>,
        rows: Range<usize>,
        centroids: &Matrix<S>,
    ) -> [(Vec<u32>, Vec<S>); 2] {
        let panels = CentroidPanels::pack(centroids);
        let run = |portable: bool| {
            let mut labels = vec![u32::MAX; rows.len()];
            let mut dists = vec![S::ONE; rows.len()];
            if portable {
                argmin_direct_portable(data, rows.clone(), &panels, &mut labels, &mut dists);
            } else {
                argmin_direct(data, rows.clone(), &panels, &mut labels, &mut dists);
            }
            (labels, dists)
        };
        [run(false), run(true)]
    }

    fn assert_direct_is_serial<S: Scalar>(
        data: &Matrix<S>,
        rows: Range<usize>,
        centroids: &Matrix<S>,
        what: &str,
    ) {
        for (form, (labels, dists)) in direct_both(data, rows.clone(), centroids)
            .iter()
            .enumerate()
        {
            for (o, i) in rows.clone().enumerate() {
                let (j, dist) = argmin_centroid(data.row(i), centroids);
                assert_eq!(labels[o] as usize, j, "{what}: form {form} row {i} label");
                assert_eq!(
                    dists[o].bits(),
                    dist.bits(),
                    "{what}: form {form} row {i} bits"
                );
            }
        }
    }

    /// Every edge of the batch kernel's shape space: widths around the
    /// stride-4 unroll, centroid counts around the 8-lane panels, odd row
    /// counts, sub-ranges not starting at 0, blocks longer than
    /// `ROW_BLOCK_MAX`.
    fn direct_shape_sweep<S: Scalar>() {
        for d in [1usize, 3, 5, 8, 64, 67] {
            for k in [1usize, 3, 7, 8, 9, 258] {
                let data = wobble::<S>(141, d, d + k);
                let centroids = wobble::<S>(k, d, 7 * d + k);
                for rows in [0..141, 0..1, 5..6, 3..140, 64..129, 140..141, 9..9] {
                    assert_direct_is_serial(
                        &data,
                        rows.clone(),
                        &centroids,
                        &format!("d{d} k{k} {rows:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn direct_argmin_is_bitwise_the_serial_scan_f32() {
        direct_shape_sweep::<f32>();
    }

    #[test]
    fn direct_argmin_is_bitwise_the_serial_scan_f64() {
        direct_shape_sweep::<f64>();
    }

    #[test]
    fn direct_argmin_sends_duplicated_centroids_to_the_lowest_index() {
        // Rows 0..9 repeated three times: every minimum is reached in
        // three panels/lanes at once, and samples sitting on a centroid
        // tie at exactly zero.
        let base = wobble::<f32>(9, 5, 1);
        let rows: Vec<&[f32]> = (0..27).map(|j| base.row(j % 9)).collect();
        let centroids = Matrix::from_rows(&rows);
        let mut data = wobble::<f32>(40, 5, 2);
        data.row_mut(17).copy_from_slice(base.row(4));
        assert_direct_is_serial(&data, 0..40, &centroids, "duplicates");
        for (labels, dists) in direct_both(&data, 0..40, &centroids) {
            assert!(
                labels.iter().all(|&l| l < 9),
                "a duplicate's higher index won"
            );
            assert_eq!((labels[17], dists[17]), (4, 0.0));
        }
    }

    #[test]
    fn direct_argmin_reproduces_nan_and_infinite_rows() {
        let mut data = wobble::<f32>(7, 6, 3);
        data.set(2, 1, f32::NAN); // every distance of row 2 is NaN
        data.set(4, 0, f32::INFINITY); // every distance of row 4 is +∞
        let mut centroids = wobble::<f32>(19, 6, 4);
        assert_direct_is_serial(&data, 0..7, &centroids, "nan sample");
        // A NaN centroid in a later lane/panel is skipped by the scan...
        centroids.set(11, 2, f32::NAN);
        assert_direct_is_serial(&data, 0..7, &centroids, "nan centroid 11");
        // ...a NaN lane-mate of the winner must not shadow it...
        centroids.set(1, 0, f32::NAN);
        assert_direct_is_serial(&data, 0..7, &centroids, "nan centroid 1");
        // ...and a NaN centroid 0 wins every row, as it does serially.
        centroids.set(0, 5, f32::NAN);
        assert_direct_is_serial(&data, 0..7, &centroids, "nan centroid 0");
        for (labels, dists) in direct_both(&data, 0..7, &centroids) {
            assert!(labels.iter().all(|&l| l == 0));
            assert!(dists.iter().all(|d| d.is_nan()));
        }
    }

    #[test]
    fn direct_argmin_on_zero_width_rows_is_label_zero_distance_zero() {
        let data = Matrix::<f32>::zeros(5, 0);
        let centroids = Matrix::<f32>::zeros(3, 0);
        assert_direct_is_serial(&data, 1..4, &centroids, "d = 0");
    }

    #[test]
    #[should_panic(expected = "labels length")]
    fn direct_argmin_rejects_a_short_label_slice() {
        let data = wobble::<f32>(4, 3, 0);
        let panels = CentroidPanels::pack(&wobble::<f32>(2, 3, 1));
        argmin_direct(&data, 0..4, &panels, &mut [0; 3], &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "outside 0..4")]
    fn direct_argmin_rejects_rows_past_the_matrix() {
        let data = wobble::<f32>(4, 3, 0);
        let panels = CentroidPanels::pack(&wobble::<f32>(2, 3, 1));
        argmin_direct(&data, 2..5, &panels, &mut [0; 3], &mut [0.0; 3]);
    }

    fn one_centroid_sweep<S: Scalar>() {
        for d in [0usize, 1, 3, 5, 8, 64, 67] {
            let mut data = wobble::<S>(23, d, d);
            if d > 0 {
                data.set(6, d / 2, S::from_f64(f64::NAN));
            }
            let c = wobble::<S>(1, d, 99);
            for rows in [0..23, 0..1, 5..6, 3..22, 4..8, 22..23, 9..9] {
                let mut out = vec![S::ONE; rows.len()];
                sq_dists_to_row(&data, rows.clone(), c.row(0), &mut out);
                for (o, i) in rows.clone().enumerate() {
                    let want = sq_euclidean_unrolled(data.row(i), c.row(0));
                    assert_eq!(out[o].bits(), want.bits(), "d{d} {rows:?} row {i}");
                }
            }
        }
    }

    #[test]
    fn one_centroid_distances_are_bitwise_the_unrolled_kernel() {
        one_centroid_sweep::<f32>();
        one_centroid_sweep::<f64>();
    }
}
