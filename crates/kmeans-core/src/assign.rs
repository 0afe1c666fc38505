//! The batch-assign kernel layer: one entry point for the Assign phase,
//! with two interchangeable kernels behind it.
//!
//! * [`AssignKernel::Scalar`] — the exact reference: per-sample
//!   subtract-square scans (`sq_euclidean_unrolled`), bit-identical to
//!   [`crate::distance::argmin_centroid`] and to the seed executors.
//! * [`AssignKernel::Gemm`] — the norm expansion
//!   `‖x−c‖² = ‖x‖² + ‖c‖² − 2·x·c` computed as a cache-blocked GEMM:
//!   score blocks are `−2·X·Cᵀ` plus broadcast centroid norms, evaluated by
//!   a 4×8 register-tiled micro kernel over *packed* operands
//!   (column-interleaved sample blocks and centroid panels), reduced to an
//!   argmin per row block. Packing turns the inner loop into contiguous
//!   broadcast-×-panel multiplies, the vectorisable form strided row walks
//!   deny the compiler. Block shape comes from [`GemmBlocking::for_budget`]
//!   — host cache blocking mirroring the paper's 64 KB scratchpad tiling
//!   (constraint C1) — or a `perf-model` cost-model override, and
//!   [`AssignPlanner`] caches norms and packed panels across delta-update
//!   iterations, invalidating only rows that moved.
//!
//! Both kernels preserve the workspace-wide lowest-index tie-break:
//! candidates are scanned in ascending centroid index with a strict `<`
//! comparison, and — decisively for distributed min-loc merges — the GEMM
//! kernel accumulates every dot product in plain ascending-dimension order
//! ([`dot_sliced_linear`]), so two bitwise-equal centroid rows produce
//! bitwise-equal scores no matter where they land in the panel grid, and
//! the per-pair scan ([`AssignPlan::score_pair`]) reproduces the blocked
//! kernel bit for bit.
//!
//! For Level 3 the plan carries the per-CPE dimension slices: dots and
//! norms are computed per slice and summed, which is exact because dot
//! products are additive over disjoint dimension slices (the same identity
//! the sliced squared distance relies on).

use crate::distance::{argmin_centroid_range, sq_euclidean_unrolled};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use std::ops::Range;

/// LDM capacity of one SW26010 CPE — the default blocking budget when the
/// caller does not thread `sw-arch`'s machine parameters through.
pub const LDM_BYTES_DEFAULT: usize = 64 * 1024;

/// GEMM micro-kernel block edges: 4 packed sample lanes × 8 packed
/// centroid lanes = 32 independent accumulators, and the 8 contiguous
/// centroid lanes per dimension step are exactly one f32 vector register —
/// the shape that lets the compiler lower the inner loop to
/// broadcast-×-vector multiplies.
const GEMM_MR: usize = 4;
pub(crate) const GEMM_NR: usize = 8;

/// Which kernel the Assign phase runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignKernel {
    /// Exact subtract-square scan — bit-identical to the serial reference.
    #[default]
    Scalar,
    /// The norm expansion as a cache-blocked GEMM over packed operands
    /// with a 4×8 register-tiled micro kernel. Numerically different from
    /// `Scalar` (labels can differ on near-exact ties), but its keys are
    /// bitwise those of the per-pair scan [`AssignPlan::score_pair`] — every
    /// dot accumulates in the canonical ascending-dimension order
    /// ([`dot_sliced_linear`]).
    Gemm,
}

impl AssignKernel {
    pub const ALL: [AssignKernel; 2] = [AssignKernel::Scalar, AssignKernel::Gemm];

    /// Stable lowercase name (CLI vocabulary and metrics labels).
    pub fn name(self) -> &'static str {
        match self {
            AssignKernel::Scalar => "scalar",
            AssignKernel::Gemm => "gemm",
        }
    }

    /// Stable numeric code for gauge export (`0 = scalar`, `3 = gemm`; the
    /// retired expanded and tiled kernels held 1 and 2).
    pub fn code(self) -> u32 {
        match self {
            AssignKernel::Scalar => 0,
            AssignKernel::Gemm => 3,
        }
    }

    /// Parse a CLI spelling. Accepts the legacy names `exact` (scalar) and
    /// `tiled` (gemm, which scores bitwise-identically to the retired tiled
    /// kernel) so existing invocations keep working. The error enumerates
    /// the valid names from [`AssignKernel::ALL`], so the message cannot
    /// drift as variants change.
    pub fn parse(s: &str) -> Result<AssignKernel, String> {
        match s {
            "exact" => return Ok(AssignKernel::Scalar),
            "tiled" => return Ok(AssignKernel::Gemm),
            _ => {}
        }
        AssignKernel::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = AssignKernel::ALL.iter().map(|k| k.name()).collect();
                format!("unknown kernel `{s}` (valid: {})", names.join("|"))
            })
    }
}

impl std::fmt::Display for AssignKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for AssignKernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AssignKernel::parse(s)
    }
}

/// Cache-block shape of the GEMM kernel: `mc` packed sample rows stay
/// resident while packed centroid panels stream through in chunks of `nc`
/// rows.
///
/// Traffic model (shared with `perf-model`'s cost-driven refinement): with
/// the sample block resident, the centroid panels are re-streamed once per
/// sample block — panel traffic is `(n/mc)·k·d·e` bytes against sample
/// traffic of `n·d·e` — while the resident working set `(mc + nc)·d·e`
/// must fit the budget. Splitting the budget evenly between the resident
/// block and the streamed chunk balances the two streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmBlocking {
    /// Sample rows per resident block.
    pub mc: usize,
    /// Centroid rows per streamed panel chunk.
    pub nc: usize,
}

impl GemmBlocking {
    /// Normalise an arbitrary `(mc, nc)` request — e.g. `perf-model`'s
    /// cost-driven choice — to micro-kernel multiples, clamped to at least
    /// one 4×8 micro tile.
    pub fn new(mc: usize, nc: usize) -> GemmBlocking {
        GemmBlocking {
            mc: (mc.min(4096) / GEMM_MR).max(1) * GEMM_MR,
            nc: (nc.min(4096) / GEMM_NR).max(1) * GEMM_NR,
        }
    }

    /// Derive the block shape from an LDM budget: half to the resident
    /// sample block, half to the streamed centroid panel chunk.
    pub fn for_budget(ldm_bytes: usize, d: usize, elem_bytes: usize) -> GemmBlocking {
        let row = d.max(1) * elem_bytes.max(1);
        let half = (ldm_bytes / 2).max(1);
        GemmBlocking::new(half / row, half / row)
    }

    /// Bytes the resident sample block plus one streamed panel chunk
    /// occupy under this shape.
    pub fn footprint_bytes(&self, d: usize, elem_bytes: usize) -> usize {
        (self.mc + self.nc) * d.max(1) * elem_bytes
    }
}

/// A prepared Assign pass over one centroid set: the selected kernel plus
/// everything derived from the centroids (norms, packed panels, dimension
/// slices). Build it once per Update — the executors rebuild after every
/// centroid movement, so the `O(k·d)` norm and packing work is amortised
/// over all n samples.
///
/// The plan does not borrow the centroid matrix; every call takes it
/// explicitly and asserts the shape still matches, so a stale plan fails
/// loudly instead of scoring against moved centroids.
#[derive(Debug, Clone)]
pub struct AssignPlan<S: Scalar> {
    /// Centroid row/column counts the plan was built against.
    k: usize,
    d: usize,
    /// Per-CPE dimension slices (Level 3); `None` means whole rows.
    slices: Option<Vec<Range<usize>>>,
    /// The GEMM kernel's norms, panels and block shape; `None` is the
    /// [`AssignKernel::Scalar`] kernel, which derives nothing.
    gemm: Option<GemmState<S>>,
}

/// The GEMM kernel's prepared centroid side: the block shape, `‖c_j‖²` per
/// centroid row (linear-order dots, so identical rows get identical
/// scores), and the centroid rows packed into `GEMM_NR`-wide
/// column-interleaved panels. Panel `p` stores dimension `u` of absolute
/// centroid row `p·8 + jj` at element `u·8 + jj`; lanes past `k` are zero
/// — padded lanes feed accumulators the argmin fold never reads, so they
/// cannot perturb real scores. Panels sit behind an `Arc` so cloned plans
/// (serve's sharded index) and the caching [`AssignPlanner`] share one
/// packing.
#[derive(Debug, Clone)]
struct GemmState<S: Scalar> {
    blocking: GemmBlocking,
    norms: Vec<S>,
    panels: std::sync::Arc<Vec<S>>,
}

impl<S: Scalar> GemmState<S> {
    /// Ascending-index strict-`<` scan of `‖c‖² − 2·x·c` with per-pair
    /// linear dots — the blocked kernel's arithmetic one pair at a time.
    /// Returns the winning absolute row and score.
    fn score_scan(
        &self,
        sample: &[S],
        centroids: &Matrix<S>,
        crows: &Range<usize>,
        sl: &[Range<usize>],
    ) -> (usize, S) {
        let two = S::from_f64(2.0);
        let dot = |j: usize| dot_sliced_linear(sample, centroids.row(j), sl);
        let mut best_j = crows.start;
        let mut best = self.norms[crows.start] - two * dot(crows.start);
        for j in crows.start + 1..crows.end {
            let score = self.norms[j] - two * dot(j);
            if score < best {
                best = score;
                best_j = j;
            }
        }
        (best_j, best)
    }
}

/// Accumulation target of the fused assign–accumulate path: per-cluster
/// sums (`crows.len()·d`, row-major) and member counts, indexed by
/// `winner − crows.start`.
struct Acc<'a, S: Scalar> {
    sums: &'a mut [S],
    counts: &'a mut [u64],
}

impl<S: Scalar> AssignPlan<S> {
    /// Plan with the default LDM budget and whole-row dots.
    pub fn new(kernel: AssignKernel, centroids: &Matrix<S>) -> Self {
        Self::with_options(kernel, centroids, LDM_BYTES_DEFAULT, None)
    }

    /// Plan with an explicit LDM budget (callers with `sw-arch` in scope
    /// pass `MachineParams::taihulight().ldm_bytes`).
    pub fn with_ldm_budget(kernel: AssignKernel, centroids: &Matrix<S>, ldm_bytes: usize) -> Self {
        Self::with_options(kernel, centroids, ldm_bytes, None)
    }

    /// Full constructor. `slices`, when given, must be the contiguous
    /// ascending partition of `0..d` the Level-3 executor derives from
    /// `split_range` (empty member slices are fine); dots and norms are
    /// then computed per slice and summed — exact, because dot products
    /// are additive over disjoint dimension slices.
    pub fn with_options(
        kernel: AssignKernel,
        centroids: &Matrix<S>,
        ldm_bytes: usize,
        slices: Option<Vec<Range<usize>>>,
    ) -> Self {
        let k = centroids.rows();
        let d = centroids.cols();
        if let Some(sl) = &slices {
            let mut at = 0usize;
            for r in sl {
                assert_eq!(r.start, at, "dimension slices must be contiguous");
                assert!(r.end >= r.start && r.end <= d, "slice out of bounds");
                at = r.end;
            }
            assert_eq!(at, d, "dimension slices must cover 0..d");
        }
        let full = 0..d;
        let sl: &[Range<usize>] = slices.as_deref().unwrap_or(std::slice::from_ref(&full));
        let gemm = (kernel == AssignKernel::Gemm).then(|| GemmState {
            blocking: GemmBlocking::for_budget(ldm_bytes, d, S::BYTES),
            norms: (0..k)
                .map(|j| {
                    let row = centroids.row(j);
                    dot_sliced_linear(row, row, sl)
                })
                .collect(),
            panels: std::sync::Arc::new(pack_centroid_panels(centroids)),
        });
        AssignPlan { k, d, slices, gemm }
    }

    /// Override the GEMM block shape with `perf-model`'s cost-driven
    /// choice (threaded through by the executors). No-op for the scalar
    /// kernel, and never repacks: panels are blocking-independent.
    pub fn with_blocking(mut self, blocking: GemmBlocking) -> Self {
        if let Some(g) = self.gemm.as_mut() {
            g.blocking = GemmBlocking::new(blocking.mc, blocking.nc);
        }
        self
    }

    /// The GEMM block shape in effect (`None` for the scalar kernel).
    pub fn blocking(&self) -> Option<GemmBlocking> {
        self.gemm.as_ref().map(|g| g.blocking)
    }

    pub fn kernel(&self) -> AssignKernel {
        match self.gemm {
            None => AssignKernel::Scalar,
            Some(_) => AssignKernel::Gemm,
        }
    }

    fn check(&self, centroids: &Matrix<S>, crows: &Range<usize>) {
        assert_eq!(
            centroids.rows(),
            self.k,
            "stale plan: centroid count changed"
        );
        assert_eq!(centroids.cols(), self.d, "stale plan: dimension changed");
        assert!(!crows.is_empty(), "empty centroid range");
        assert!(crows.end <= self.k, "centroid range out of bounds");
    }

    /// Assign every sample row in `srows` to its nearest centroid among
    /// rows `crows` of `centroids`, appending one `(index, key)` pair per
    /// sample (in `srows` order) to `out`. The index is reported from
    /// `global_offset` (i.e. `global_offset + (winner − crows.start)`),
    /// matching [`argmin_centroid_range`]. The key is the exact squared
    /// distance for `Scalar`; for `Gemm` it is
    /// `‖x‖² + ‖c‖² − 2·x·c` — the same quantity up to floating-point
    /// reassociation, and computed identically on every rank, so keys stay
    /// comparable across distributed min-loc merges.
    pub fn assign_batch_into(
        &self,
        data: &Matrix<S>,
        srows: Range<usize>,
        centroids: &Matrix<S>,
        crows: Range<usize>,
        global_offset: usize,
        out: &mut Vec<(u32, S)>,
    ) {
        self.dispatch(data, srows, centroids, crows, global_offset, out, None);
    }

    /// Fused assign–accumulate: like [`AssignPlan::assign_batch_into`],
    /// but additionally folds each scored sample into per-cluster
    /// accumulators while it is still cache-resident, eliminating the
    /// separate full-data Update sweep. `sums` holds `crows.len()·d`
    /// elements (row `j − crows.start` of the winner) and `counts` one
    /// slot per `crows` row; both are accumulated into, not zeroed.
    ///
    /// Bitwise discipline: samples fold in ascending `srows` order — the
    /// scalar kernel accumulates immediately after scoring each sample,
    /// and the GEMM kernel flushes each sample block in ascending order
    /// after its panel sweep (blocks are visited in ascending order, so the
    /// global fold sequence per cluster is the ascending sample order the
    /// two-pass sweep uses). A plan carrying Level-3 dimension slices folds
    /// per slice, modelling each CPE accumulating its own dimension slice;
    /// per-element addition makes this bitwise-identical to a whole-row
    /// fold.
    #[allow(clippy::too_many_arguments)]
    pub fn assign_accumulate_into(
        &self,
        data: &Matrix<S>,
        srows: Range<usize>,
        centroids: &Matrix<S>,
        crows: Range<usize>,
        global_offset: usize,
        out: &mut Vec<(u32, S)>,
        sums: &mut [S],
        counts: &mut [u64],
    ) {
        assert_eq!(sums.len(), crows.len() * self.d, "sums shape mismatch");
        assert_eq!(counts.len(), crows.len(), "counts shape mismatch");
        self.dispatch(
            data,
            srows,
            centroids,
            crows,
            global_offset,
            out,
            Some(Acc { sums, counts }),
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        data: &Matrix<S>,
        srows: Range<usize>,
        centroids: &Matrix<S>,
        crows: Range<usize>,
        global_offset: usize,
        out: &mut Vec<(u32, S)>,
        acc: Option<Acc<'_, S>>,
    ) {
        self.check(centroids, &crows);
        assert_eq!(data.cols(), self.d, "sample dimension mismatch");
        out.reserve(srows.len());
        match &self.gemm {
            None => self.scalar_batch(data, srows, centroids, crows, global_offset, out, acc),
            Some(st) => self.gemm_batch(st, data, srows, crows, global_offset, out, acc),
        }
    }

    /// Fold one scored sample into the accumulators at `local_row`
    /// (winner − `crows.start`). Iterates the plan's dimension slices when
    /// present — each virtual CPE adds its own slice, exactly as Level 3
    /// partitions the Update — which is bitwise-identical to a whole-row
    /// add because the fold is per-element.
    fn fold_sample(&self, acc: &mut Acc<'_, S>, local_row: usize, sample: &[S]) {
        acc.counts[local_row] += 1;
        let dst = &mut acc.sums[local_row * self.d..(local_row + 1) * self.d];
        match &self.slices {
            None => {
                for (a, &x) in dst.iter_mut().zip(sample) {
                    *a += x;
                }
            }
            Some(sl) => {
                for r in sl {
                    for (a, &x) in dst[r.clone()].iter_mut().zip(&sample[r.clone()]) {
                        *a += x;
                    }
                }
            }
        }
    }

    /// Single-sample variant of [`AssignPlan::assign_batch_into`] with the
    /// same index and key semantics (serving's per-query path).
    pub fn assign_one(
        &self,
        sample: &[S],
        centroids: &Matrix<S>,
        crows: Range<usize>,
        global_offset: usize,
    ) -> (u32, S) {
        self.check(centroids, &crows);
        assert_eq!(sample.len(), self.d, "sample dimension mismatch");
        let full = 0..self.d;
        let sl: &[Range<usize>] = self
            .slices
            .as_deref()
            .unwrap_or(std::slice::from_ref(&full));
        match (&self.gemm, &self.slices) {
            (None, None) => {
                let (j, dist) = argmin_centroid_range(sample, centroids, crows, global_offset);
                (j as u32, dist)
            }
            (None, Some(sl)) => {
                let (j, dist) = scalar_sliced_argmin(sample, centroids, &crows, sl);
                ((global_offset + (j - crows.start)) as u32, dist)
            }
            (Some(st), _) => {
                // One sample degenerates the block grid to a column of
                // per-pair dots — identical values to the blocked path by
                // the shared accumulation order of [`dot_sliced_linear`].
                let x2 = dot_sliced_linear(sample, sample, sl);
                let (j, score) = st.score_scan(sample, centroids, &crows, sl);
                ((global_offset + (j - crows.start)) as u32, x2 + score)
            }
        }
    }

    /// The exact comparison key the full scan evaluates for the single
    /// pair (`sample`, centroid row `j`): the squared distance for
    /// `Scalar`, the `‖c‖² − 2·x·c` score for `Gemm`.
    ///
    /// Per-pair keys are batch-independent — the GEMM micro kernel
    /// accumulates each dot in the same ascending order as
    /// [`dot_sliced_linear`] — so a scan that lexicographically
    /// minimises `(score_pair, j)` over *any* candidate subset reproduces
    /// the batch scan's winner over that subset bit for bit. This is what
    /// lets the delta update path rescore only the centroids that moved.
    pub fn score_pair(&self, sample: &[S], centroids: &Matrix<S>, j: usize) -> S {
        self.check(centroids, &(j..j + 1));
        let full = 0..self.d;
        let sl: &[Range<usize>] = self
            .slices
            .as_deref()
            .unwrap_or(std::slice::from_ref(&full));
        let row = centroids.row(j);
        match (&self.gemm, &self.slices) {
            (None, None) => sq_euclidean_unrolled(sample, row),
            (None, Some(sl)) => {
                let mut acc = S::ZERO;
                for r in sl {
                    acc += sq_euclidean_unrolled(&sample[r.clone()], &row[r.clone()]);
                }
                acc
            }
            (Some(st), _) => st.norms[j] - S::from_f64(2.0) * dot_sliced_linear(sample, row, sl),
        }
    }

    /// Convert a winning [`AssignPlan::score_pair`] key into the distance
    /// value [`AssignPlan::assign_batch_into`] reports for that sample
    /// (`‖x‖²` is added back for `Gemm`, in the same order the batch
    /// kernel uses).
    pub fn key_to_dist(&self, sample: &[S], key: S) -> S {
        let full = 0..self.d;
        let sl: &[Range<usize>] = self
            .slices
            .as_deref()
            .unwrap_or(std::slice::from_ref(&full));
        match self.gemm {
            None => key,
            Some(_) => dot_sliced_linear(sample, sample, sl) + key,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn scalar_batch(
        &self,
        data: &Matrix<S>,
        srows: Range<usize>,
        centroids: &Matrix<S>,
        crows: Range<usize>,
        global_offset: usize,
        out: &mut Vec<(u32, S)>,
        mut acc: Option<Acc<'_, S>>,
    ) {
        match &self.slices {
            None => {
                for i in srows {
                    let (j, dist) =
                        argmin_centroid_range(data.row(i), centroids, crows.clone(), global_offset);
                    out.push((j as u32, dist));
                    if let Some(acc) = acc.as_mut() {
                        self.fold_sample(acc, j - global_offset, data.row(i));
                    }
                }
            }
            Some(sl) => {
                for i in srows {
                    let (j, dist) = scalar_sliced_argmin(data.row(i), centroids, &crows, sl);
                    out.push(((global_offset + (j - crows.start)) as u32, dist));
                    if let Some(acc) = acc.as_mut() {
                        self.fold_sample(acc, j - crows.start, data.row(i));
                    }
                }
            }
        }
    }

    /// The cache-blocked GEMM path: a resident block of `mc` packed sample
    /// rows is scored against the streamed packed centroid panels, `nc`
    /// rows per chunk, with the 4×8 register-tiled micro kernel computing
    /// the `X·Cᵀ` dot block and the fold adding broadcast norms
    /// (`‖c‖² − 2·x·c`) under the ascending-index strict-`<` argmin.
    ///
    /// Bitwise discipline: the micro kernel advances each of its 32
    /// accumulators in canonical ascending-dimension order, so every
    /// (sample, centroid) dot is bitwise-equal to [`dot_sliced_linear`]
    /// and the whole path scores bitwise-identically to the per-pair scan
    /// ([`AssignPlan::score_pair`]). Panels are folded in ascending order
    /// per sample, edge panels/blocks are zero-padded (their padded lanes
    /// feed accumulators the fold clamps away via `crows`), and the block
    /// flushes in ascending sample order. `crows` may start or end
    /// mid-panel (serve's shard subranges); the fold clamp handles that
    /// too, since panels always cover absolute rows `0..k`.
    #[allow(clippy::too_many_arguments)]
    fn gemm_batch(
        &self,
        // Scores come from the packed panels; `dispatch` already verified
        // the centroid matrix still matches the plan's shape.
        st: &GemmState<S>,
        data: &Matrix<S>,
        srows: Range<usize>,
        crows: Range<usize>,
        global_offset: usize,
        out: &mut Vec<(u32, S)>,
        mut acc: Option<Acc<'_, S>>,
    ) {
        let full = 0..self.d;
        let sl: &[Range<usize>] = self
            .slices
            .as_deref()
            .unwrap_or(std::slice::from_ref(&full));
        let d = self.d;
        let two = S::from_f64(2.0);
        let inf = S::from_f64(f64::INFINITY);
        let mc = st.blocking.mc;
        let panels_per_chunk = (st.blocking.nc / GEMM_NR).max(1);
        let p_lo = crows.start / GEMM_NR;
        let p_hi = crows.end.div_ceil(GEMM_NR);
        let mut xpack = vec![S::ZERO; mc * d.max(1)];
        let mut x2 = vec![S::ZERO; mc];
        // (absolute centroid row, running best score) per sample of the block.
        let mut best = vec![(u32::MAX, inf); mc];
        let mut s0 = srows.start;
        while s0 < srows.end {
            let m = (srows.end - s0).min(mc);
            let groups = m.div_ceil(GEMM_MR);
            if !m.is_multiple_of(GEMM_MR) {
                // Zero the edge group so its padded sample lanes hold
                // zeros (their accumulators are computed but never read).
                for v in xpack[(groups - 1) * GEMM_MR * d..groups * GEMM_MR * d].iter_mut() {
                    *v = S::ZERO;
                }
            }
            for ii in 0..m {
                let row = data.row(s0 + ii);
                x2[ii] = dot_sliced_linear(row, row, sl);
                best[ii] = (u32::MAX, inf);
                let dst = &mut xpack[(ii / GEMM_MR) * GEMM_MR * d..];
                let lane = ii % GEMM_MR;
                for (u, &x) in row.iter().enumerate() {
                    dst[u * GEMM_MR + lane] = x;
                }
            }
            let mut pc = p_lo;
            while pc < p_hi {
                let pend = (pc + panels_per_chunk).min(p_hi);
                for g in 0..groups {
                    let xg = &xpack[g * GEMM_MR * d..(g + 1) * GEMM_MR * d];
                    let rows = (m - g * GEMM_MR).min(GEMM_MR);
                    for p in pc..pend {
                        let panel = &st.panels[p * GEMM_NR * d..(p + 1) * GEMM_NR * d];
                        let mut dots = [[S::ZERO; GEMM_NR]; GEMM_MR];
                        gemm_micro(xg, panel, d, &mut dots);
                        let jbase = p * GEMM_NR;
                        let lo = crows.start.max(jbase);
                        let hi = crows.end.min(jbase + GEMM_NR);
                        for (ii, drow) in dots.iter().enumerate().take(rows) {
                            let slot = &mut best[g * GEMM_MR + ii];
                            for j in lo..hi {
                                let score = st.norms[j] - two * drow[j - jbase];
                                if score < slot.1 {
                                    *slot = (j as u32, score);
                                }
                            }
                        }
                    }
                }
                pc = pend;
            }
            // Flush the block in ascending sample order while it is still
            // cache-resident: with blocks visited in ascending order this
            // reproduces the two-pass sweep's global ascending-sample fold
            // per cluster, bit for bit.
            for ii in 0..m {
                let (j, score) = best[ii];
                debug_assert_ne!(j, u32::MAX);
                out.push((
                    (global_offset + (j as usize - crows.start)) as u32,
                    x2[ii] + score,
                ));
                if let Some(acc) = acc.as_mut() {
                    self.fold_sample(acc, j as usize - crows.start, data.row(s0 + ii));
                }
            }
            s0 += m;
        }
    }
}

/// The Level-3 Scalar path: per-slice partial squared distances folded in
/// slice order, scanned in ascending centroid index with strict `<` — the
/// executor's historical inner loop, verbatim.
fn scalar_sliced_argmin<S: Scalar>(
    sample: &[S],
    centroids: &Matrix<S>,
    crows: &Range<usize>,
    sl: &[Range<usize>],
) -> (usize, S) {
    let sliced = |j: usize| {
        let row = centroids.row(j);
        let mut acc = S::ZERO;
        for r in sl {
            acc += sq_euclidean_unrolled(&sample[r.clone()], &row[r.clone()]);
        }
        acc
    };
    let mut best_j = crows.start;
    let mut best = sliced(crows.start);
    for j in crows.start + 1..crows.end {
        let d = sliced(j);
        if d < best {
            best = d;
            best_j = j;
        }
    }
    (best_j, best)
}

/// Plain ascending-order dot product summed over dimension slices. This is
/// the *canonical accumulation order* of the GEMM kernel: each accumulator
/// of the 4×8 micro kernel reproduces exactly this sequence of
/// multiply-adds for its (sample, centroid) pair.
pub fn dot_sliced_linear<S: Scalar>(a: &[S], b: &[S], slices: &[Range<usize>]) -> S {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = S::ZERO;
    for r in slices {
        let (xa, xb) = (&a[r.clone()], &b[r.clone()]);
        for (x, y) in xa.iter().zip(xb) {
            acc += *x * *y;
        }
    }
    acc
}

/// The GEMM micro kernel: a 4×8 register tile of dot products advanced
/// together over the packed operands — `xg` holds 4 sample lanes
/// interleaved per dimension, `panel` 8 centroid lanes. Each of the 32
/// accumulators is its own sequential ascending-dimension chain, bitwise
/// equal to [`dot_sliced_linear`] for its (sample, centroid) pair.
///
/// For `f32` on x86-64 the body is the explicit lane-unrolled AVX form:
/// per dimension, one 8-wide panel load, four sample broadcasts, and four
/// unfused multiply-then-add pairs. `vmulps`/`vaddps` are exact IEEE
/// single-precision operations applied per lane in the same mul-then-add
/// sequence as the scalar chain, so the specialisation is bitwise-
/// identical to the generic body — it only widens the lanes the hardware
/// retires per cycle (fused `vfmadd` would round once instead of twice
/// and is deliberately not used).
#[inline]
fn gemm_micro<S: Scalar>(xg: &[S], panel: &[S], d: usize, acc: &mut [[S; GEMM_NR]; GEMM_MR]) {
    debug_assert!(xg.len() >= d * GEMM_MR);
    debug_assert!(panel.len() >= d * GEMM_NR);
    #[cfg(target_arch = "x86_64")]
    if std::any::TypeId::of::<S>() == std::any::TypeId::of::<f32>()
        && std::arch::is_x86_feature_detected!("avx")
    {
        // SAFETY: the TypeId check proves `S` is exactly `f32`, so these
        // reinterpretations are between identical types, and the length
        // preconditions are the debug-asserted ones above.
        unsafe {
            let xf = std::slice::from_raw_parts(xg.as_ptr() as *const f32, xg.len());
            let pf = std::slice::from_raw_parts(panel.as_ptr() as *const f32, panel.len());
            let af = &mut *(acc as *mut [[S; GEMM_NR]; GEMM_MR] as *mut [[f32; GEMM_NR]; GEMM_MR]);
            gemm_micro_f32_avx(xf, pf, d, af);
        }
        return;
    }
    gemm_micro_generic(xg, panel, d, acc)
}

/// Portable body of [`gemm_micro`] (f64, and f32 without AVX):
/// bounds-check-free iteration with local accumulator registers.
#[inline]
fn gemm_micro_generic<S: Scalar>(
    xg: &[S],
    panel: &[S],
    d: usize,
    acc: &mut [[S; GEMM_NR]; GEMM_MR],
) {
    let [mut a0, mut a1, mut a2, mut a3] = *acc;
    for (av, bv) in xg
        .chunks_exact(GEMM_MR)
        .zip(panel.chunks_exact(GEMM_NR))
        .take(d)
    {
        let (x0, x1, x2, x3) = (av[0], av[1], av[2], av[3]);
        for jj in 0..GEMM_NR {
            let y = bv[jj];
            a0[jj] += x0 * y;
            a1[jj] += x1 * y;
            a2[jj] += x2 * y;
            a3[jj] += x3 * y;
        }
    }
    *acc = [a0, a1, a2, a3];
}

/// Explicit-lane AVX form of the micro kernel (see [`gemm_micro`] for the
/// bitwise-equivalence argument).
///
/// # Safety
/// Requires AVX, `xg.len() >= d·4` and `panel.len() >= d·8`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn gemm_micro_f32_avx(
    xg: &[f32],
    panel: &[f32],
    d: usize,
    acc: &mut [[f32; GEMM_NR]; GEMM_MR],
) {
    use std::arch::x86_64::*;
    let mut a0 = _mm256_loadu_ps(acc[0].as_ptr());
    let mut a1 = _mm256_loadu_ps(acc[1].as_ptr());
    let mut a2 = _mm256_loadu_ps(acc[2].as_ptr());
    let mut a3 = _mm256_loadu_ps(acc[3].as_ptr());
    let mut xp = xg.as_ptr();
    let mut pp = panel.as_ptr();
    for _ in 0..d {
        let b = _mm256_loadu_ps(pp);
        a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_broadcast_ss(&*xp), b));
        a1 = _mm256_add_ps(a1, _mm256_mul_ps(_mm256_broadcast_ss(&*xp.add(1)), b));
        a2 = _mm256_add_ps(a2, _mm256_mul_ps(_mm256_broadcast_ss(&*xp.add(2)), b));
        a3 = _mm256_add_ps(a3, _mm256_mul_ps(_mm256_broadcast_ss(&*xp.add(3)), b));
        xp = xp.add(GEMM_MR);
        pp = pp.add(GEMM_NR);
    }
    _mm256_storeu_ps(acc[0].as_mut_ptr(), a0);
    _mm256_storeu_ps(acc[1].as_mut_ptr(), a1);
    _mm256_storeu_ps(acc[2].as_mut_ptr(), a2);
    _mm256_storeu_ps(acc[3].as_mut_ptr(), a3);
}

/// Pack every centroid row into `GEMM_NR`-wide column-interleaved panels
/// (see [`GemmState`] for the layout). Lanes past `k` are zeroed.
pub(crate) fn pack_centroid_panels<S: Scalar>(centroids: &Matrix<S>) -> Vec<S> {
    let (k, d) = (centroids.rows(), centroids.cols());
    let panels = k.div_ceil(GEMM_NR).max(1);
    let mut out = vec![S::ZERO; panels * d * GEMM_NR];
    for (p, dst) in out.chunks_exact_mut(d * GEMM_NR).enumerate() {
        pack_one_panel(centroids, p, dst);
    }
    out
}

/// (Re)pack panel `p` — absolute centroid rows `p·8 .. p·8+8` — into
/// `dst`, zeroing lanes past `k` so stale values never survive a refresh.
fn pack_one_panel<S: Scalar>(centroids: &Matrix<S>, p: usize, dst: &mut [S]) {
    let (k, d) = (centroids.rows(), centroids.cols());
    debug_assert_eq!(dst.len(), d * GEMM_NR);
    for jj in 0..GEMM_NR {
        let j = p * GEMM_NR + jj;
        if j < k {
            for (u, &x) in centroids.row(j).iter().enumerate() {
                dst[u * GEMM_NR + jj] = x;
            }
        } else {
            for u in 0..d {
                dst[u * GEMM_NR + jj] = S::ZERO;
            }
        }
    }
}

/// Cumulative cache counters of an [`AssignPlanner`], exported as gauges
/// by the executors to quantify the delta-path plan-prep win.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Plans produced.
    pub plans: u64,
    /// Centroid rows whose norms (and packed panel lanes) were recomputed.
    pub rows_refreshed: u64,
    /// Rows carried over unchanged from the previous plan.
    pub rows_reused: u64,
    /// Packed GEMM panels rebuilt (a panel is touched iff any of its 8
    /// rows moved).
    pub panels_rebuilt: u64,
    /// Packed GEMM panels carried over untouched.
    pub panels_reused: u64,
}

/// Builds [`AssignPlan`]s across training iterations, caching what
/// centroid movement does not invalidate: per-row norms and, for the GEMM
/// kernel, the packed centroid panels. Rows are diffed bitwise
/// ([`Scalar::bits`]) against a snapshot of the previous centroids —
/// recomputing an unchanged row would produce bitwise-identical values, so
/// reuse cannot change any result; it only removes the per-iteration
/// `O(k·d)` norm/pack work that the delta update path's low-churn tail
/// otherwise re-pays every iteration. Executors that already know exactly
/// which rows moved (the delta paths' changed-row detection) skip the diff
/// via [`AssignPlanner::plan_with_changed`].
#[derive(Debug, Clone)]
pub struct AssignPlanner<S: Scalar> {
    kernel: AssignKernel,
    ldm_bytes: usize,
    slices: Option<Vec<Range<usize>>>,
    blocking: Option<GemmBlocking>,
    /// Flat snapshot (`k·d`) of the centroids the cache was built against.
    snap: Vec<S>,
    k: usize,
    d: usize,
    norms: Vec<S>,
    panels: std::sync::Arc<Vec<S>>,
    stats: PlannerStats,
}

impl<S: Scalar> AssignPlanner<S> {
    pub fn new(kernel: AssignKernel, ldm_bytes: usize) -> Self {
        AssignPlanner {
            kernel,
            ldm_bytes,
            slices: None,
            blocking: None,
            snap: Vec::new(),
            k: 0,
            d: 0,
            norms: Vec::new(),
            panels: std::sync::Arc::new(Vec::new()),
            stats: PlannerStats::default(),
        }
    }

    /// Thread the Level-3 per-CPE dimension slices through every plan.
    pub fn with_slices(mut self, slices: Option<Vec<Range<usize>>>) -> Self {
        self.slices = slices;
        self
    }

    /// Pin the GEMM block shape (the cost-model-driven choice from
    /// `perf-model`) instead of the LDM-budget default.
    pub fn with_blocking(mut self, blocking: GemmBlocking) -> Self {
        self.blocking = Some(GemmBlocking::new(blocking.mc, blocking.nc));
        self
    }

    pub fn kernel(&self) -> AssignKernel {
        self.kernel
    }

    pub fn stats(&self) -> PlannerStats {
        self.stats
    }

    /// Produce the plan for this iteration's centroids, reusing every
    /// cached row whose bits did not change since the previous call.
    pub fn plan(&mut self, centroids: &Matrix<S>) -> AssignPlan<S> {
        match self.changed_rows(centroids) {
            Some(changed) => self.refresh(centroids, &changed),
            None => self.full_build(centroids),
        }
    }

    /// Like [`AssignPlanner::plan`], but with the caller's exact changed-row
    /// set (`changed[j]` ⇔ row `j`'s bits differ from the previous
    /// iteration) instead of a snapshot diff — the delta executors already
    /// compute this to drive their skip-scan. Falls back to a full build
    /// when the cache is cold or shapes changed.
    pub fn plan_with_changed(&mut self, centroids: &Matrix<S>, changed: &[bool]) -> AssignPlan<S> {
        if self.cache_warm(centroids) && changed.len() == centroids.rows() {
            let changed = changed.to_vec();
            self.refresh(centroids, &changed)
        } else {
            self.full_build(centroids)
        }
    }

    fn cache_warm(&self, centroids: &Matrix<S>) -> bool {
        self.kernel == AssignKernel::Gemm
            && self.k == centroids.rows()
            && self.d == centroids.cols()
            && self.snap.len() == self.k * self.d
            && self.norms.len() == self.k
    }

    fn changed_rows(&self, centroids: &Matrix<S>) -> Option<Vec<bool>> {
        if !self.cache_warm(centroids) {
            return None;
        }
        let d = self.d;
        Some(
            (0..self.k)
                .map(|j| {
                    centroids
                        .row(j)
                        .iter()
                        .zip(&self.snap[j * d..(j + 1) * d])
                        .any(|(a, b)| a.bits() != b.bits())
                })
                .collect(),
        )
    }

    fn full_build(&mut self, centroids: &Matrix<S>) -> AssignPlan<S> {
        let mut plan =
            AssignPlan::with_options(self.kernel, centroids, self.ldm_bytes, self.slices.clone());
        if let Some(b) = self.blocking {
            plan = plan.with_blocking(b);
        }
        self.stats.plans += 1;
        if let Some(g) = &plan.gemm {
            self.stats.rows_refreshed += centroids.rows() as u64;
            self.k = centroids.rows();
            self.d = centroids.cols();
            self.snap.clear();
            self.snap.extend_from_slice(centroids.as_slice());
            self.norms.clone_from(&g.norms);
            self.stats.panels_rebuilt += self.k.div_ceil(GEMM_NR).max(1) as u64;
            self.panels = g.panels.clone();
        }
        plan
    }

    /// Reached only through a warm cache, i.e. for the GEMM kernel.
    fn refresh(&mut self, centroids: &Matrix<S>, changed: &[bool]) -> AssignPlan<S> {
        let (k, d) = (self.k, self.d);
        let full = 0..d;
        let slv = self.slices.clone();
        let sl: &[Range<usize>] = slv.as_deref().unwrap_or(std::slice::from_ref(&full));
        let mut refreshed = 0u64;
        for (j, &moved) in changed.iter().enumerate() {
            if moved {
                let row = centroids.row(j);
                self.norms[j] = dot_sliced_linear(row, row, sl);
                self.snap[j * d..(j + 1) * d].copy_from_slice(row);
                refreshed += 1;
            }
        }
        self.stats.plans += 1;
        self.stats.rows_refreshed += refreshed;
        self.stats.rows_reused += k as u64 - refreshed;
        let n_panels = k.div_ceil(GEMM_NR).max(1);
        let touched: Vec<usize> = (0..n_panels)
            .filter(|&p| (p * GEMM_NR..((p + 1) * GEMM_NR).min(k)).any(|j| changed[j]))
            .collect();
        if !touched.is_empty() {
            // Clone-on-write: plans returned earlier may still hold the
            // Arc; executors drop them before re-planning, so this stays
            // an in-place repack of just the touched panels.
            let buf = std::sync::Arc::make_mut(&mut self.panels);
            for &p in &touched {
                pack_one_panel(
                    centroids,
                    p,
                    &mut buf[p * GEMM_NR * d..(p + 1) * GEMM_NR * d],
                );
            }
        }
        self.stats.panels_rebuilt += touched.len() as u64;
        self.stats.panels_reused += (n_panels - touched.len()) as u64;
        let gemm = GemmState {
            blocking: self
                .blocking
                .unwrap_or_else(|| GemmBlocking::for_budget(self.ldm_bytes, d, S::BYTES)),
            norms: self.norms.clone(),
            panels: self.panels.clone(),
        };
        AssignPlan {
            k,
            d,
            slices: self.slices.clone(),
            gemm: Some(gemm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::argmin_centroid;
    use crate::init::{init_centroids, InitMethod};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-3.0..3.0)).collect(),
        )
    }

    fn batch(
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

    #[test]
    fn score_pair_reconstructs_the_batch_scan_bitwise() {
        // Ragged shapes exercise the edge panels and edge sample groups of
        // the GEMM path; the sliced variant exercises the Level-3 per-CPE
        // arithmetic.
        let data = random_matrix(37, 23, 1);
        let centroids = random_matrix(11, 23, 2);
        let slice_sets: [Option<Vec<Range<usize>>>; 2] =
            [None, Some(vec![0..9, 9..10, 10..10, 10..23])];
        for kernel in AssignKernel::ALL {
            for slices in &slice_sets {
                let plan =
                    AssignPlan::with_options(kernel, &centroids, LDM_BYTES_DEFAULT, slices.clone());
                let out = batch(&plan, &data, &centroids);
                for (i, batch_out) in out.iter().enumerate() {
                    let sample = data.row(i);
                    // Lexicographic min over per-pair keys == the batch
                    // scan's strict-`<` ascending-index winner.
                    let (best_j, best_key) = (0..centroids.rows())
                        .map(|j| (j, plan.score_pair(sample, &centroids, j)))
                        .fold(None::<(usize, f64)>, |acc, (j, key)| match acc {
                            Some((_, bk)) if bk <= key => acc,
                            _ => Some((j, key)),
                        })
                        .unwrap();
                    assert_eq!(batch_out.0 as usize, best_j, "{kernel} sample {i}");
                    assert_eq!(
                        batch_out.1.to_bits(),
                        plan.key_to_dist(sample, best_key).to_bits(),
                        "{kernel} sample {i}: key→dist mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_names_codes_and_parsing() {
        // Round trip every variant through name → parse and Display →
        // FromStr, so a new variant cannot ship without its spelling.
        for k in AssignKernel::ALL {
            assert_eq!(AssignKernel::parse(k.name()), Ok(k));
            assert_eq!(format!("{k}").parse::<AssignKernel>(), Ok(k));
        }
        // Legacy spellings: `exact` is the scalar scan, and `tiled` runs
        // the GEMM kernel, which scores bitwise like the retired tiled one.
        assert_eq!(AssignKernel::parse("exact"), Ok(AssignKernel::Scalar));
        assert_eq!(AssignKernel::parse("tiled"), Ok(AssignKernel::Gemm));
        assert_eq!(AssignKernel::default(), AssignKernel::Scalar);
        // Codes stay stable across the retirement of 1 and 2, so exported
        // kernel gauges keep their meaning.
        let codes: Vec<u32> = AssignKernel::ALL.iter().map(|k| k.code()).collect();
        assert_eq!(codes, vec![0, 3]);
        // Unknown and retired names fail with an error that enumerates
        // every valid name.
        for bad in ["warp-drive", "expanded", "norm-trick"] {
            let err = AssignKernel::parse(bad).unwrap_err();
            assert!(err.contains("scalar|gemm"), "{bad}: {err}");
            assert_eq!(bad.parse::<AssignKernel>(), Err(err));
        }
    }

    #[test]
    fn scalar_plan_is_bitwise_identical_to_argmin_centroid() {
        let data = random_matrix(60, 13, 1);
        let centroids = init_centroids(&data, 9, InitMethod::Forgy, 2);
        let plan = AssignPlan::new(AssignKernel::Scalar, &centroids);
        for (i, &(j, dist)) in batch(&plan, &data, &centroids).iter().enumerate() {
            let (sj, sd) = argmin_centroid(data.row(i), &centroids);
            assert_eq!(j as usize, sj);
            assert_eq!(dist, sd, "sample {i}: keys must be bitwise equal");
        }
    }

    #[test]
    fn gemm_matches_scalar_argmin() {
        for (n, k, d, seed) in [
            (100usize, 7usize, 16usize, 3u64),
            (37, 13, 5, 4),
            (64, 24, 64, 5),
            (200, 3, 1, 6),
            (9, 9, 33, 7),
        ] {
            let data = random_matrix(n, d, seed);
            let centroids = init_centroids(&data, k, InitMethod::Forgy, seed + 100);
            let scalar = batch(
                &AssignPlan::new(AssignKernel::Scalar, &centroids),
                &data,
                &centroids,
            );
            let got = batch(
                &AssignPlan::new(AssignKernel::Gemm, &centroids),
                &data,
                &centroids,
            );
            for i in 0..n {
                assert_eq!(got[i].0, scalar[i].0, "n={n} k={k} d={d} sample {i}");
                // Keys agree up to reassociation of the expansion.
                let rel = (got[i].1 - scalar[i].1).abs() / (1.0 + scalar[i].1);
                assert!(rel < 1e-9, "key drift {rel}");
            }
        }
    }

    #[test]
    fn duplicate_centroids_tie_to_lowest_index_under_every_kernel() {
        let data = random_matrix(50, 6, 11);
        let base = init_centroids(&data, 5, InitMethod::Forgy, 12);
        // Duplicate every row so ties occur at every lane position of the
        // panel grid (tiny budgets force duplicates into different blocks).
        let mut rows: Vec<&[f64]> = Vec::new();
        for j in 0..base.rows() {
            rows.push(base.row(j));
            rows.push(base.row(j));
        }
        let centroids = Matrix::from_rows(&rows);
        for kernel in AssignKernel::ALL {
            for ldm in [64usize, 512, LDM_BYTES_DEFAULT] {
                let plan = AssignPlan::with_ldm_budget(kernel, &centroids, ldm);
                for (i, &(j, _)) in batch(&plan, &data, &centroids).iter().enumerate() {
                    let (sj, _) = argmin_centroid(data.row(i), &centroids);
                    assert_eq!(j as usize, sj, "{kernel} ldm={ldm} sample {i}");
                    assert_eq!(j % 2, 0, "a duplicate's higher index won");
                }
            }
        }
    }

    #[test]
    fn dimension_slices_are_exact_for_every_kernel() {
        let data = random_matrix(40, 23, 21);
        let centroids = init_centroids(&data, 6, InitMethod::Forgy, 22);
        // Slice 23 dims over 5 "CPEs" like split_range does: 5,5,5,4,4.
        let slices = vec![0..5, 5..10, 10..15, 15..19, 19..23];
        for kernel in AssignKernel::ALL {
            let whole = AssignPlan::new(kernel, &centroids);
            let sliced = AssignPlan::with_options(
                kernel,
                &centroids,
                LDM_BYTES_DEFAULT,
                Some(slices.clone()),
            );
            let a = batch(&whole, &data, &centroids);
            let b = batch(&sliced, &data, &centroids);
            for i in 0..data.rows() {
                assert_eq!(a[i].0, b[i].0, "{kernel} sample {i}");
                let rel = (a[i].1 - b[i].1).abs() / (1.0 + a[i].1);
                assert!(rel < 1e-9, "{kernel} sliced key drift {rel}");
            }
        }
    }

    #[test]
    fn range_assignment_offsets_globally() {
        let data = random_matrix(20, 8, 31);
        let centroids = init_centroids(&data, 10, InitMethod::Forgy, 32);
        for kernel in AssignKernel::ALL {
            let plan = AssignPlan::new(kernel, &centroids);
            let mut out = Vec::new();
            plan.assign_batch_into(&data, 0..data.rows(), &centroids, 4..10, 100, &mut out);
            for (i, &(j, key)) in out.iter().enumerate() {
                assert!((100..106).contains(&(j as usize)), "sample {i}: index {j}");
                let (oj, okey) = plan.assign_one(data.row(i), &centroids, 4..10, 100);
                assert_eq!((j, key), (oj, okey), "{kernel} one-vs-batch sample {i}");
            }
        }
    }

    /// The oracle of the GEMM kernel: the strict-`<` ascending scan of
    /// per-pair keys ([`AssignPlan::score_pair`]) — no blocking, packing or
    /// micro kernel involved. Returns `(label, key bits)` per sample.
    fn per_pair_scan<S: Scalar>(
        plan: &AssignPlan<S>,
        data: &Matrix<S>,
        centroids: &Matrix<S>,
        crows: Range<usize>,
        global_offset: usize,
    ) -> Vec<(u32, u64)> {
        (0..data.rows())
            .map(|i| {
                let sample = data.row(i);
                let key = |j| plan.score_pair(sample, centroids, j);
                let mut best = (crows.start, key(crows.start));
                for j in crows.start + 1..crows.end {
                    if key(j) < best.1 {
                        best = (j, key(j));
                    }
                }
                let label = global_offset + (best.0 - crows.start);
                (label as u32, plan.key_to_dist(sample, best.1).bits())
            })
            .collect()
    }

    fn gemm_bits<S: Scalar>(
        plan: &AssignPlan<S>,
        data: &Matrix<S>,
        centroids: &Matrix<S>,
        crows: Range<usize>,
        global_offset: usize,
    ) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        plan.assign_batch_into(
            data,
            0..data.rows(),
            centroids,
            crows,
            global_offset,
            &mut out,
        );
        out.iter().map(|&(j, s)| (j, s.bits())).collect()
    }

    /// `rows` random rows followed by copies of the first `dups`, so exact
    /// ties exist and the lowest-index tie-break is exercised.
    fn with_duplicates<S: Scalar>(rows: usize, dups: usize, d: usize, seed: u64) -> Matrix<S> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut v: Vec<S> = (0..rows * d)
            .map(|_| S::from_f64(rng.gen_range(-3.0..3.0)))
            .collect();
        v.extend_from_within(..dups * d);
        Matrix::from_vec(rows + dups, d, v)
    }

    #[test]
    fn gemm_is_bitwise_identical_to_the_per_pair_scan() {
        // Labels *and keys* must match the per-pair scan bit for bit — on
        // ragged shapes (edge panels and edge sample groups), at every
        // LDM budget (tiny budgets force minimal blocks), under Level-3
        // dimension slices, and on mid-panel centroid subranges like
        // serve's shards. Duplicated centroid rows pin the tie-break.
        for (n, k, d, seed) in [
            (130usize, 37usize, 40usize, 1u64),
            (37, 13, 5, 2),
            (64, 24, 64, 3),
            (200, 3, 1, 4),
            (9, 130, 33, 5),
        ] {
            let data = random_matrix(n, d, seed);
            let centroids = with_duplicates::<f64>(k, k.min(5), d, seed + 50);
            let kk = centroids.rows();
            for ldm in [1usize, 300, 2_000, LDM_BYTES_DEFAULT, 1 << 24] {
                let plan = AssignPlan::with_ldm_budget(AssignKernel::Gemm, &centroids, ldm);
                assert_eq!(
                    gemm_bits(&plan, &data, &centroids, 0..kk, 0),
                    per_pair_scan(&plan, &data, &centroids, 0..kk, 0),
                    "n={n} k={k} d={d} ldm={ldm}"
                );
            }
        }
        // Sliced + mid-panel subrange: crows cuts through packed panels.
        let data = random_matrix(41, 29, 6);
        let centroids = with_duplicates::<f64>(24, 3, 29, 7);
        let slices = Some(vec![0..11, 11..12, 12..12, 12..29]);
        let plan =
            AssignPlan::with_options(AssignKernel::Gemm, &centroids, LDM_BYTES_DEFAULT, slices);
        for crows in [0..27usize, 3..22, 5..6, 8..16, 20..27] {
            assert_eq!(
                gemm_bits(&plan, &data, &centroids, crows.clone(), 9),
                per_pair_scan(&plan, &data, &centroids, crows.clone(), 9),
                "crows={crows:?}"
            );
        }
        // f32 pins the explicit-lane (AVX on x86-64) micro kernel against
        // the scalar chains: unfused per-lane mul-then-add must keep the
        // keys bitwise equal too.
        let mut rng = ChaCha8Rng::seed_from_u64(97);
        let data32 = Matrix::from_vec(
            61,
            37,
            (0..61 * 37).map(|_| rng.gen_range(-3.0f32..3.0)).collect(),
        );
        let cents32 = with_duplicates::<f32>(27, 3, 37, 98);
        for ldm in [1usize, 2_000, LDM_BYTES_DEFAULT] {
            let plan = AssignPlan::with_ldm_budget(AssignKernel::Gemm, &cents32, ldm);
            assert_eq!(
                gemm_bits(&plan, &data32, &cents32, 0..30, 0),
                per_pair_scan(&plan, &data32, &cents32, 0..30, 0),
                "f32 ldm={ldm}"
            );
        }
    }

    #[test]
    fn tiny_gemm_blocks_agree_with_huge_blocks() {
        // Forcing minimal 4×8 blocks exercises every edge path of the
        // packed kernel; results must be bitwise identical to one big
        // resident block — whether the small blocks come from a tiny LDM
        // budget or from a cost-model override.
        let data = random_matrix(53, 17, 43);
        let centroids = init_centroids(&data, 21, InitMethod::Forgy, 44);
        let big = batch(
            &AssignPlan::with_ldm_budget(AssignKernel::Gemm, &centroids, 1 << 24),
            &data,
            &centroids,
        );
        for (mc, nc) in [(4usize, 8usize), (4, 16), (8, 8), (12, 24), (100, 8)] {
            let plan = AssignPlan::new(AssignKernel::Gemm, &centroids)
                .with_blocking(GemmBlocking::new(mc, nc));
            assert_eq!(
                plan.blocking(),
                Some(GemmBlocking::new(mc, nc)),
                "override lost"
            );
            assert_eq!(batch(&plan, &data, &centroids), big, "mc={mc} nc={nc}");
        }
        for ldm in [1usize, 100, 300, 700, 2_000] {
            let plan = AssignPlan::with_ldm_budget(AssignKernel::Gemm, &centroids, ldm);
            assert_eq!(batch(&plan, &data, &centroids), big, "ldm={ldm}");
        }
    }

    #[test]
    fn gemm_blocking_respects_budget_and_micro_multiples() {
        for d in [1usize, 4, 16, 64, 100, 256, 1_000, 4_096] {
            for e in [4usize, 8] {
                for ldm in [1usize << 12, LDM_BYTES_DEFAULT, 1 << 20] {
                    let b = GemmBlocking::for_budget(ldm, d, e);
                    assert_eq!(b.mc % GEMM_MR, 0, "d={d} e={e}");
                    assert_eq!(b.nc % GEMM_NR, 0, "d={d} e={e}");
                    assert!(b.mc >= GEMM_MR && b.nc >= GEMM_NR);
                    if b.mc > GEMM_MR || b.nc > GEMM_NR {
                        assert!(
                            b.footprint_bytes(d, e) <= ldm + (GEMM_MR + GEMM_NR) * d * e,
                            "d={d} e={e} ldm={ldm}: {b:?} uses {} B",
                            b.footprint_bytes(d, e)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn planner_reuses_unchanged_rows_bitwise() {
        let data = random_matrix(60, 19, 91);
        let c1 = init_centroids(&data, 13, InitMethod::Forgy, 92);
        // Move rows 2 and 9 only; everything else keeps its bits.
        let mut moved = c1.as_slice().to_vec();
        for j in [2usize, 9] {
            for v in &mut moved[j * 19..(j + 1) * 19] {
                *v += 0.25;
            }
        }
        let c2 = Matrix::from_vec(13, 19, moved);
        for kernel in AssignKernel::ALL {
            let mut planner = AssignPlanner::new(kernel, LDM_BYTES_DEFAULT);
            let p1 = planner.plan(&c1);
            assert_eq!(batch(&p1, &data, &c1), {
                let fresh = AssignPlan::new(kernel, &c1);
                batch(&fresh, &data, &c1)
            });
            // Second plan: snapshot diff finds exactly the two moved rows,
            // and the cached plan is bitwise-identical to a fresh build.
            let p2 = planner.plan(&c2);
            let fresh = AssignPlan::new(kernel, &c2);
            let got = batch(&p2, &data, &c2);
            let want = batch(&fresh, &data, &c2);
            assert_eq!(
                got.iter()
                    .map(|&(j, s)| (j, s.to_bits()))
                    .collect::<Vec<_>>(),
                want.iter()
                    .map(|&(j, s)| (j, s.to_bits()))
                    .collect::<Vec<_>>(),
                "{kernel}: cached plan diverged from fresh build"
            );
            let stats = planner.stats();
            assert_eq!(stats.plans, 2, "{kernel}");
            if kernel == AssignKernel::Scalar {
                // Nothing derived to cache.
                assert_eq!(stats.rows_refreshed, 0);
            } else {
                assert_eq!(stats.rows_refreshed, 13 + 2, "{kernel}");
                assert_eq!(stats.rows_reused, 11, "{kernel}");
            }
            if kernel == AssignKernel::Gemm {
                // 13 rows → 2 panels; rows 2 and 9 land in different
                // panels, so both were rebuilt on the refresh.
                assert_eq!(stats.panels_rebuilt, 2 + 2);
                assert_eq!(stats.panels_reused, 0);
            }
            // The explicit changed-row hint takes the same path.
            let mut hinted = AssignPlanner::new(kernel, LDM_BYTES_DEFAULT);
            hinted.plan(&c1);
            let mut changed = vec![false; 13];
            changed[2] = true;
            changed[9] = true;
            let p3 = hinted.plan_with_changed(&c2, &changed);
            let got3 = batch(&p3, &data, &c2);
            assert_eq!(
                got3.iter()
                    .map(|&(j, s)| (j, s.to_bits()))
                    .collect::<Vec<_>>(),
                want.iter()
                    .map(|&(j, s)| (j, s.to_bits()))
                    .collect::<Vec<_>>(),
                "{kernel}: hinted plan diverged"
            );
        }
    }

    #[test]
    fn planner_panel_reuse_skips_untouched_panels() {
        // 40 rows → 5 panels of 8. Moving one row must rebuild exactly one
        // panel and leave the other four shared.
        let data = random_matrix(30, 12, 95);
        let c1 = random_matrix(40, 12, 96);
        let mut moved = c1.as_slice().to_vec();
        for v in &mut moved[17 * 12..18 * 12] {
            *v -= 1.5;
        }
        let c2 = Matrix::from_vec(40, 12, moved);
        let mut planner = AssignPlanner::new(AssignKernel::Gemm, LDM_BYTES_DEFAULT);
        planner.plan(&c1);
        let p2 = planner.plan(&c2);
        let stats = planner.stats();
        assert_eq!(stats.panels_rebuilt, 5 + 1);
        assert_eq!(stats.panels_reused, 4);
        let fresh = AssignPlan::new(AssignKernel::Gemm, &c2);
        assert_eq!(batch(&p2, &data, &c2), batch(&fresh, &data, &c2));
    }

    #[test]
    fn f32_kernels_agree_on_separated_data() {
        // f32 near-tie tolerance story: on well-separated data both kernels
        // agree exactly; near-exact ties may legitimately differ between
        // Scalar and the expansion (documented, not asserted).
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        let centroids = Matrix::from_vec(
            4,
            8,
            (0..32)
                .map(|i| (i / 8) as f32 * 50.0 + (i % 8) as f32)
                .collect(),
        );
        let data = Matrix::from_vec(
            24,
            8,
            (0..24 * 8)
                .map(|i| (i / 8 % 4) as f32 * 50.0 + rng.gen_range(-1.0f32..1.0))
                .collect(),
        );
        let reference: Vec<u32> = (0..24)
            .map(|i| argmin_centroid(data.row(i), &centroids).0 as u32)
            .collect();
        for kernel in AssignKernel::ALL {
            let plan = AssignPlan::new(kernel, &centroids);
            let mut out = Vec::new();
            plan.assign_batch_into(&data, 0..24, &centroids, 0..4, 0, &mut out);
            let got: Vec<u32> = out.iter().map(|&(j, _)| j).collect();
            assert_eq!(got, reference, "{kernel}");
        }
    }

    #[test]
    fn fused_accumulate_is_bitwise_identical_to_a_separate_sweep() {
        let data = random_matrix(73, 17, 71);
        let centroids = init_centroids(&data, 9, InitMethod::Forgy, 72);
        let (k, d) = (centroids.rows(), centroids.cols());
        let slices = vec![0..5, 5..11, 11..17];
        for kernel in AssignKernel::ALL {
            for (ldm, sl) in [
                (LDM_BYTES_DEFAULT, None),
                (300, None),
                (LDM_BYTES_DEFAULT, Some(slices.clone())),
            ] {
                let plan = AssignPlan::with_options(kernel, &centroids, ldm, sl);
                let mut plain = Vec::new();
                plan.assign_batch_into(&data, 0..73, &centroids, 0..k, 0, &mut plain);
                // The reference two-pass sweep: ascending-sample whole-row
                // adds into zeroed accumulators.
                let mut want_sums = vec![0.0f64; k * d];
                let mut want_counts = vec![0u64; k];
                for (i, &(j, _)) in plain.iter().enumerate() {
                    let j = j as usize;
                    want_counts[j] += 1;
                    for (a, &x) in want_sums[j * d..(j + 1) * d].iter_mut().zip(data.row(i)) {
                        *a += x;
                    }
                }
                let mut fused = Vec::new();
                let mut sums = vec![0.0f64; k * d];
                let mut counts = vec![0u64; k];
                plan.assign_accumulate_into(
                    &data,
                    0..73,
                    &centroids,
                    0..k,
                    0,
                    &mut fused,
                    &mut sums,
                    &mut counts,
                );
                assert_eq!(fused, plain, "{kernel} ldm={ldm}: labels/keys differ");
                assert_eq!(counts, want_counts, "{kernel} ldm={ldm}");
                assert!(
                    sums.iter()
                        .zip(&want_sums)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kernel} ldm={ldm}: fused sums not bitwise equal"
                );
            }
        }
    }

    #[test]
    fn fused_accumulate_respects_centroid_subranges() {
        let data = random_matrix(20, 8, 81);
        let centroids = init_centroids(&data, 10, InitMethod::Forgy, 82);
        let d = centroids.cols();
        let crows = 4..10;
        for kernel in AssignKernel::ALL {
            let plan = AssignPlan::new(kernel, &centroids);
            let mut out = Vec::new();
            let mut sums = vec![0.0f64; crows.len() * d];
            let mut counts = vec![0u64; crows.len()];
            plan.assign_accumulate_into(
                &data,
                0..20,
                &centroids,
                crows.clone(),
                100,
                &mut out,
                &mut sums,
                &mut counts,
            );
            assert_eq!(counts.iter().sum::<u64>(), 20, "{kernel}");
            for (i, &(j, _)) in out.iter().enumerate() {
                let local = j as usize - 100;
                assert!(local < crows.len(), "sample {i}");
            }
        }
    }

    #[test]
    fn stale_plan_panics() {
        let c1 = random_matrix(4, 3, 61);
        let c2 = random_matrix(5, 3, 62);
        let plan = AssignPlan::new(AssignKernel::Gemm, &c1);
        let data = random_matrix(2, 3, 63);
        let result = std::panic::catch_unwind(|| {
            let mut out = Vec::new();
            plan.assign_batch_into(&data, 0..2, &c2, 0..5, 0, &mut out);
        });
        assert!(result.is_err(), "stale plan must fail loudly");
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // a one-slice covering is a case under test
    fn linear_sliced_dot_matches_reference() {
        let a: Vec<f64> = (0..97).map(|i| (i as f64 * 0.31).sin()).collect();
        let b: Vec<f64> = (0..97).map(|i| (i as f64 * 0.73).cos()).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        for slices in [vec![0..97], vec![0..13, 13..64, 64..97], vec![0..0, 0..97]] {
            let lin = dot_sliced_linear(&a, &b, &slices);
            assert!((lin - naive).abs() < 1e-12 * (1.0 + naive.abs()));
        }
    }
}
