//! Core k-means building blocks: dense matrices, distance kernels,
//! initialization and the serial Lloyd baseline.
//!
//! The algorithms in this crate are sequential and allocation-disciplined
//! (two exact whole-data passes — `assign_step` and k-means++ seeding —
//! split their rows over scoped threads once they are large enough, with
//! bitwise the serial result); it is the foundation the hierarchical
//! executors in `hier-kmeans` are built on *and* the reference
//! implementation they are tested against. The problem
//! definition follows the paper exactly: given `n` samples in `R^d`, find `k`
//! centroids minimising the mean squared Euclidean distance from each sample
//! to its nearest centroid, iterating Lloyd's Assign/Update steps.
//!
//! Modules:
//! * [`scalar`] — an `f32`/`f64` abstraction so the whole stack is generic
//!   over precision (the paper's GPU baselines are f32; reductions at scale
//!   often want f64).
//! * [`matrix`] — row-major sample/centroid storage with per-row
//!   column-range views (the unit Level 3 partitions by dimension).
//! * [`assign`] — the batch-assign kernel layer: the exact scalar scan and
//!   the LDM-blocked GEMM kernel behind one [`AssignKernel`] entry point.
//! * [`distance`] — squared-Euclidean kernels: simple, unrolled and
//!   partial-dimension variants per pair, and the bit-exact batch forms
//!   the final label pass and k-means++ run on.
//! * [`init`] — Forgy, random-partition and k-means++ seeding.
//! * [`lloyd`] — the serial reference algorithm with pluggable convergence,
//!   exposed both as a whole and as separate Assign/Update steps (the pieces
//!   the parallel levels distribute).
//! * [`bounds`] — the exact Hamerly/Yinyang triangle-inequality filter that
//!   `Lloyd` and every executor run to skip provably unchanged samples.
//! * [`update`] — Update-path selection ([`UpdateMode`]: two-pass, fused
//!   assign–accumulate, incremental delta) and the touched-row bookkeeping
//!   behind sparse merges; every mode is bitwise-equivalent.
//! * [`objective`] — within-cluster sum of squares and mean objective.

pub mod assign;
pub mod bounds;
pub mod distance;
pub mod init;
pub mod lloyd;
pub mod matrix;
pub mod metrics;
pub mod objective;
pub mod preprocess;
pub mod scalar;
#[cfg(feature = "serde")]
pub mod serde_impls;
pub mod source;
pub mod update;

pub use assign::{
    AssignKernel, AssignPlan, AssignPlanner, GemmBlocking, PlannerStats, LDM_BYTES_DEFAULT,
};
pub use bounds::{
    centroid_drifts, dist_from_batch, dist_from_score_key, BoundState, BoundsIterKind, BoundsMode,
    BoundsScratch, BoundsStats, ENGAGE_MOVED_FRACTION, RESEED_SURVIVOR_FRACTION,
};
pub use distance::{argmin_centroid, sq_euclidean, sq_euclidean_unrolled};
pub use init::{init_centroids, InitMethod};
pub use lloyd::{
    assign_step, max_centroid_shift, max_centroid_shift_touched, update_step, KMeansConfig,
    KMeansError, KMeansResult, Lloyd,
};
pub use matrix::Matrix;
pub use metrics::{adjusted_rand_index, nmi, purity, Contingency};
pub use objective::mean_objective;
pub use preprocess::{standardized, ColumnStats};
pub use scalar::Scalar;
pub use source::{MatrixSource, SampleSource};
pub use update::{TouchedSet, UpdateMode, DELTA_FALLBACK_FRACTION};
