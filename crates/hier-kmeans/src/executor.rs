//! Shared executor configuration, result type and dispatch.

use kmeans_core::{AssignKernel, BoundsMode, BoundsStats, KMeansError, Matrix, Scalar, UpdateMode};
use perf_model::Level;

/// Configuration of a functional hierarchical run.
#[derive(Debug, Clone, PartialEq)]
pub struct HierConfig {
    /// Partition level to execute.
    pub level: Level,
    /// SPMD units: virtual CPEs for Levels 1–2, virtual CGs for Level 3.
    /// Each unit is one `msg` rank (a host thread), so keep this within an
    /// order of magnitude of the host's cores; the partition arithmetic is
    /// exact at any unit count.
    pub units: usize,
    /// Units per centroid-sharing group (the paper's `m_group` /
    /// `m'_group`). Ignored by Level 1. Must divide into `units` at least
    /// once; `units % group_units` trailing units idle if not divisible.
    pub group_units: usize,
    /// Width of the per-CG dimension partition for Level 3 (64 on SW26010;
    /// smaller values exercise the same arithmetic cheaply in tests).
    pub cpes_per_cg: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence threshold on maximum centroid movement (Euclidean).
    pub tol: f64,
    /// Assign kernel every rank's inner loop runs (see
    /// [`kmeans_core::AssignKernel`]). `Scalar` is bit-identical to the
    /// serial reference; `Gemm` uses the norm expansion and may resolve
    /// near-exact ties differently.
    pub kernel: AssignKernel,
    /// Update path (see [`kmeans_core::UpdateMode`]). All modes produce
    /// bitwise-identical centroids, labels and objective for a given
    /// kernel and merge strategy; only wall time changes.
    pub update: UpdateMode,
    /// Bounded-assign strategy (see [`kmeans_core::BoundsMode`]). The
    /// bounded modes keep per-sample triangle-inequality bounds that
    /// filter rows whose argmin provably didn't change; the survivors go
    /// through the same kernels, so labels, objective and iteration
    /// counts stay bitwise-identical to the unbounded run. `Auto`
    /// consults the perf model per level.
    pub bounds: BoundsMode,
    /// How dense Update merges run their sums AllReduce (see
    /// [`MergeStrategy`]). Delta's sparse merges always use the tree:
    /// the binomial fold order is per-element and independent of payload
    /// length, which is what makes merging only the touched rows bitwise
    /// equal to the dense merge.
    pub merge: MergeStrategy,
    /// Deterministic fault-injection schedule for the run (see
    /// [`msg::FaultPlan`]). `None` (or an inactive plan) is the fault-free
    /// fast path. An active plan routes every collective through the
    /// transport's injection/retry machinery, applies the plan's receive
    /// deadline, and — on iterations the plan marks degraded — falls back
    /// delta→dense and ring→tree so the sparse/ring merge invariants can
    /// never be violated by a faulted exchange.
    pub faults: Option<msg::FaultPlan>,
    /// Event-level trace sink. When set, every rank attaches a tracer to
    /// its communicator (per-rank comms timeline: one span per collective,
    /// instants for injected faults and retries) and emits per-phase
    /// `Complete` events (`assign`/`merge`/`update`/`exchange`/`iteration`)
    /// whose durations are the *same* measurements that feed
    /// [`IterTiming`], so the trace and the timing report always agree.
    /// `None` is the zero-overhead fast path. Training is always-on when
    /// traced — sampling only applies to serving.
    pub trace: Option<std::sync::Arc<swkm_obs::TraceBuffer>>,
}

impl HierConfig {
    pub fn new(level: Level) -> Self {
        HierConfig {
            level,
            units: 8,
            group_units: 2,
            cpes_per_cg: 64,
            max_iters: 100,
            tol: 1e-9,
            kernel: AssignKernel::Scalar,
            update: UpdateMode::TwoPass,
            bounds: BoundsMode::None,
            merge: MergeStrategy::Auto,
            faults: None,
            trace: None,
        }
    }

    /// Resolve the configured bounds mode for this run's geometry.
    /// `Auto` asks the perf model whether the bookkeeping is expected to
    /// pay for itself at this (level, n, k, d); the concrete modes pass
    /// through `kmeans_core`'s local resolution (tiny `k` → Hamerly).
    pub(crate) fn resolved_bounds(&self, n: usize, k: usize, d: usize) -> BoundsMode {
        match self.bounds {
            BoundsMode::Auto => match perf_model::bounds::recommend(self.level, n, k, d) {
                perf_model::BoundsRecommendation::None => BoundsMode::None,
                perf_model::BoundsRecommendation::Hamerly => BoundsMode::Hamerly,
                perf_model::BoundsRecommendation::Yinyang => BoundsMode::Yinyang,
            },
            mode => mode.resolve_local(k),
        }
    }
}

/// Dense-merge buffer size (bytes) at which [`MergeStrategy::Auto`] picks
/// the ring over the binomial tree: below it the tree's log₂(p) latency
/// wins, above it the ring's 2·(p−1)/p per-rank byte volume wins.
pub const RING_CROSSOVER_BYTES: usize = 64 * 1024;

/// Which AllReduce the executors use for the dense centroid-sums merge.
///
/// Tree and ring fold partial sums in different orders, so their results
/// differ in floating-point low-order bits (each is still deterministic and
/// rank-identical). Bitwise guarantees therefore hold *per strategy*:
/// twopass/fused/delta agree bitwise under the tree, and twopass/fused
/// agree bitwise under the ring. Delta is pinned to the tree — its sparse
/// merges rely on the tree's per-element, length-independent fold order —
/// so `--merge ring --update delta` is rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeStrategy {
    /// Pick by buffer size: ring when the dense payload reaches
    /// [`RING_CROSSOVER_BYTES`] on ≥ 4 merging ranks (and the update path
    /// is not delta), tree otherwise.
    #[default]
    Auto,
    /// Always the binomial tree ([`msg::Comm::allreduce_with`]).
    Tree,
    /// Always the bandwidth-optimal ring ([`msg::Comm::allreduce_ring`]).
    Ring,
}

impl MergeStrategy {
    pub const ALL: [MergeStrategy; 3] = [
        MergeStrategy::Auto,
        MergeStrategy::Tree,
        MergeStrategy::Ring,
    ];

    /// Stable lowercase name (CLI vocabulary and metrics labels).
    pub fn name(self) -> &'static str {
        match self {
            MergeStrategy::Auto => "auto",
            MergeStrategy::Tree => "tree",
            MergeStrategy::Ring => "ring",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Result<MergeStrategy, String> {
        match s {
            "auto" => Ok(MergeStrategy::Auto),
            "tree" => Ok(MergeStrategy::Tree),
            "ring" => Ok(MergeStrategy::Ring),
            other => Err(format!("unknown merge strategy `{other}` (auto|tree|ring)")),
        }
    }

    /// Resolve the strategy for one merging communicator: `true` means the
    /// ring runs the dense sums AllReduce. The decision depends only on
    /// configuration and partition arithmetic, so every rank of the
    /// communicator resolves identically.
    pub fn use_ring(self, dense_bytes: usize, ranks: usize, update: UpdateMode) -> bool {
        match self {
            MergeStrategy::Tree => false,
            MergeStrategy::Ring => update != UpdateMode::Delta,
            MergeStrategy::Auto => {
                update != UpdateMode::Delta && ranks >= 4 && dense_bytes >= RING_CROSSOVER_BYTES
            }
        }
    }
}

impl std::fmt::Display for MergeStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for MergeStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        MergeStrategy::parse(s)
    }
}

/// Errors from the hierarchical executors.
#[derive(Debug, Clone, PartialEq)]
pub enum HierError {
    /// Problem/centroid validation failed (delegated to `kmeans-core`).
    KMeans(KMeansError),
    /// The execution configuration is inconsistent.
    InvalidConfig(String),
    /// A collective failed past the transport's retry budget — a persistent
    /// fault the bounded retransmission could not recover from.
    Comm(msg::CommError),
}

impl std::fmt::Display for HierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierError::KMeans(e) => write!(f, "{e}"),
            HierError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            HierError::Comm(e) => write!(f, "communication failed: {e}"),
        }
    }
}

impl std::error::Error for HierError {}

impl From<KMeansError> for HierError {
    fn from(e: KMeansError) -> Self {
        HierError::KMeans(e)
    }
}

impl From<msg::CommError> for HierError {
    fn from(e: msg::CommError) -> Self {
        HierError::Comm(e)
    }
}

/// Wall-time spent in each phase of the iteration loop, per rank (the
/// assemble step keeps the per-phase maximum across ranks — the critical
/// path). All values in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Local Assign work: distance kernels and accumulation.
    pub assign: f64,
    /// Per-sample merge collectives (min-loc AllReduce).
    pub merge: f64,
    /// Update collectives, centroid division and convergence check.
    pub update: f64,
    /// Dimension-sliced accumulation — the functional stand-in for the
    /// register-bus dimension exchange. Nonzero only for Level 3.
    pub exchange: f64,
}

impl PhaseTimings {
    /// Total accounted time.
    pub fn total(&self) -> f64 {
        self.assign + self.merge + self.update + self.exchange
    }

    /// Per-phase maximum across ranks (the slowest rank bounds each phase).
    pub fn critical_path(all: &[PhaseTimings]) -> PhaseTimings {
        let mut out = PhaseTimings::default();
        for t in all {
            out.assign = out.assign.max(t.assign);
            out.merge = out.merge.max(t.merge);
            out.update = out.update.max(t.update);
            out.exchange = out.exchange.max(t.exchange);
        }
        out
    }
}

/// One iteration's phase wall times on one rank, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IterTiming {
    /// Local distance kernels and (Levels 1–2) accumulation.
    pub assign: f64,
    /// Min-loc merge collective within the centroid-sharing group.
    pub merge: f64,
    /// Update collectives, centroid division and convergence check.
    pub update: f64,
    /// Dimension-sliced accumulation (Level 3 only).
    pub exchange: f64,
    /// Wall time of the whole iteration, loop top to convergence check —
    /// the reference the per-phase times are validated against.
    pub wall: f64,
    /// Fraction of this rank's samples whose label changed this iteration
    /// (in `[0, 1]`). Computed locally from the previous iteration's labels,
    /// so recording it adds no collectives. Not a time: excluded from
    /// [`IterTiming::phase_sum`] and never summed, only max'd across ranks.
    pub moved_fraction: f64,
}

impl IterTiming {
    /// Sum of the accounted phases (excludes `wall`).
    pub fn phase_sum(&self) -> f64 {
        self.assign + self.merge + self.update + self.exchange
    }

    fn add(&mut self, other: &IterTiming) {
        self.assign += other.assign;
        self.merge += other.merge;
        self.update += other.update;
        self.exchange += other.exchange;
        self.wall += other.wall;
    }
}

/// Per-rank, per-iteration phase trace of a training run:
/// `per_rank[r][i]` is rank `r`'s timing of iteration `i`. Convergence is
/// globally synchronised, so every rank records the same iteration count.
#[derive(Debug, Clone, Default)]
pub struct TrainTrace {
    pub per_rank: Vec<Vec<IterTiming>>,
}

impl TrainTrace {
    pub fn ranks(&self) -> usize {
        self.per_rank.len()
    }

    pub fn iterations(&self) -> usize {
        self.per_rank.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Rank `r`'s phase times summed over all iterations.
    pub fn rank_total(&self, r: usize) -> IterTiming {
        let mut out = IterTiming::default();
        for it in &self.per_rank[r] {
            out.add(it);
        }
        out
    }

    /// Critical path of iteration `i`: per-phase maximum across ranks.
    pub fn iter_critical(&self, i: usize) -> IterTiming {
        let mut out = IterTiming::default();
        for rank in &self.per_rank {
            if let Some(it) = rank.get(i) {
                out.assign = out.assign.max(it.assign);
                out.merge = out.merge.max(it.merge);
                out.update = out.update.max(it.update);
                out.exchange = out.exchange.max(it.exchange);
                out.wall = out.wall.max(it.wall);
                out.moved_fraction = out.moved_fraction.max(it.moved_fraction);
            }
        }
        out
    }

    /// Assign-phase imbalance: max over ranks of total assign time divided
    /// by the mean (1.0 = perfectly balanced). Returns 1.0 for degenerate
    /// traces.
    pub fn assign_imbalance(&self) -> f64 {
        let totals: Vec<f64> = (0..self.ranks())
            .map(|r| self.rank_total(r).assign)
            .collect();
        if totals.is_empty() {
            return 1.0;
        }
        let mean = totals.iter().sum::<f64>() / totals.len() as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        totals.iter().cloned().fold(0.0f64, f64::max) / mean
    }

    /// Publish the trace under `prefix`: one histogram of per-rank,
    /// per-iteration phase times in nanoseconds per phase
    /// (`<prefix>_assign_ns`, `<prefix>_merge_ns`, `<prefix>_update_ns`,
    /// `<prefix>_exchange_ns`, `<prefix>_iter_wall_ns`), plus gauges for
    /// the critical-path per-phase totals in seconds
    /// (`<prefix>_assign_s`, …), the run wall time, rank/iteration counts
    /// and the assign imbalance factor.
    pub fn export_into(&self, registry: &swkm_obs::MetricsRegistry, prefix: &str) {
        let to_ns = |s: f64| (s * 1e9).round().max(0.0) as u64;
        for rank in &self.per_rank {
            for it in rank {
                registry.record(&format!("{prefix}_assign_ns"), to_ns(it.assign));
                registry.record(&format!("{prefix}_merge_ns"), to_ns(it.merge));
                registry.record(&format!("{prefix}_update_ns"), to_ns(it.update));
                registry.record(&format!("{prefix}_exchange_ns"), to_ns(it.exchange));
                registry.record(&format!("{prefix}_iter_wall_ns"), to_ns(it.wall));
            }
        }
        let mut critical = IterTiming::default();
        for i in 0..self.iterations() {
            critical.add(&self.iter_critical(i));
        }
        registry.gauge_set(&format!("{prefix}_assign_s"), critical.assign);
        registry.gauge_set(&format!("{prefix}_merge_s"), critical.merge);
        registry.gauge_set(&format!("{prefix}_update_s"), critical.update);
        registry.gauge_set(&format!("{prefix}_exchange_s"), critical.exchange);
        let wall = (0..self.ranks())
            .map(|r| self.rank_total(r).wall)
            .fold(0.0f64, f64::max);
        registry.gauge_set(&format!("{prefix}_wall_s"), wall);
        registry.gauge_set(&format!("{prefix}_ranks"), self.ranks() as f64);
        registry.gauge_set(&format!("{prefix}_iterations"), self.iterations() as f64);
        registry.gauge_set(
            &format!("{prefix}_assign_imbalance"),
            self.assign_imbalance(),
        );
        // The last iteration's worst-rank moved fraction: 0.0 on a converged
        // run, and the quantity the delta path's sparse/dense decision keys on.
        let last_moved = if self.iterations() > 0 {
            self.iter_critical(self.iterations() - 1).moved_fraction
        } else {
            0.0
        };
        registry.gauge_set(&format!("{prefix}_moved_fraction"), last_moved);
    }
}

/// Result of a hierarchical run.
#[derive(Debug, Clone)]
pub struct HierResult<S: Scalar> {
    /// Final centroids, `k × d`.
    pub centroids: Matrix<S>,
    /// Nearest-centroid index per sample (under the final centroids).
    pub labels: Vec<u32>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the tolerance was reached before the cap.
    pub converged: bool,
    /// Final mean objective.
    pub objective: f64,
    /// Total bytes sent by all ranks over the run (from the `msg` cost
    /// logs) — the traffic the performance model prices.
    pub comm_bytes: u64,
    /// Total messages sent by all ranks.
    pub comm_messages: u64,
    /// Critical-path phase breakdown (per-phase max across ranks).
    pub timings: PhaseTimings,
    /// Per-rank, per-iteration phase trace.
    pub trace: TrainTrace,
    /// All ranks' communication records merged — per-collective bytes and
    /// message counts for the run.
    pub comm: msg::CostLog,
    /// Assign kernel the run executed with.
    pub kernel: AssignKernel,
    /// Update path the run executed with.
    pub update: UpdateMode,
    /// Whether the dense centroid-sums merge resolved to the ring
    /// AllReduce (from [`MergeStrategy::use_ring`] at the configured
    /// geometry).
    pub merge_ring: bool,
    /// All ranks' injected-fault and retry tallies merged (all zero when no
    /// fault plan was active).
    pub fault_stats: msg::FaultStats,
    /// Iterations the fault plan forced into degraded mode (delta→dense,
    /// ring→tree).
    pub degraded_iterations: u64,
    /// Bounded-assign mode the run resolved to (`None` when pruning was
    /// off or `auto` declined).
    pub bounds_mode: BoundsMode,
    /// Pruning counters merged across ranks (all zero when bounds were
    /// off).
    pub bounds: BoundsStats,
    /// Wall seconds of the final label/objective pass over all samples,
    /// run after the iterations: the part of a fit that does not scale
    /// with the iteration count.
    pub final_assign_s: f64,
}

impl<S: Scalar> HierResult<S> {
    /// Assign-phase throughput: samples scored per critical-path assign
    /// second, over every iteration. `None` when the assign phase was too
    /// fast to measure.
    pub fn assign_samples_per_s(&self) -> Option<f64> {
        if self.timings.assign > 0.0 {
            Some(self.labels.len() as f64 * self.iterations as f64 / self.timings.assign)
        } else {
            None
        }
    }

    /// Publish this run into a metrics registry: the phase trace under
    /// `train_*`, the communication tallies under `comm_*`, and run-level
    /// gauges (`train_objective`, `train_converged`, the selected kernel's
    /// code as `train_assign_kernel` and the assign throughput — both as
    /// the kernel-agnostic `train_assign_samples_per_s` and as a per-kernel
    /// `train_assign_samples_per_s_<name>` gauge, so a registry that
    /// accumulates runs keeps one comparable throughput per kernel).
    pub fn export_metrics(&self, registry: &swkm_obs::MetricsRegistry) {
        self.trace.export_into(registry, "train");
        self.comm.export_into(registry, "comm");
        registry.gauge_set("train_objective", self.objective);
        registry.gauge_set("train_converged", if self.converged { 1.0 } else { 0.0 });
        registry.gauge_set("train_assign_kernel", self.kernel.code() as f64);
        registry.gauge_set("train_update_mode", self.update.code() as f64);
        registry.gauge_set("train_merge_ring", if self.merge_ring { 1.0 } else { 0.0 });
        registry.gauge_set(
            "train_assign_samples_per_s",
            self.assign_samples_per_s().unwrap_or(0.0),
        );
        registry.gauge_set(
            &format!("train_assign_samples_per_s_{}", self.kernel.name()),
            self.assign_samples_per_s().unwrap_or(0.0),
        );
        self.fault_stats.export_into(registry);
        registry.counter_add("degraded_iterations", self.degraded_iterations);
        registry.gauge_set("train_bounds_mode", self.bounds_mode.code() as f64);
        registry.gauge_set("bounds_savings", self.bounds.savings());
        registry.gauge_set("bounds_distance_evals", self.bounds.distance_evals as f64);
        registry.gauge_set(
            "bounds_lloyd_equivalent",
            self.bounds.lloyd_equivalent as f64,
        );
        registry.gauge_set("bounds_filter_hits", self.bounds.global_filter_hits as f64);
        registry.gauge_set("bounds_group_hits", self.bounds.group_filter_hits as f64);
        registry.gauge_set("bounds_seed_scans", self.bounds.seed_scans as f64);
        registry.gauge_set("bounds_resets", self.bounds.resets as f64);
        registry.gauge_set("train_label_checksum", label_checksum(&self.labels) as f64);
        registry.gauge_set("train_final_assign_s", self.final_assign_s);
    }
}

/// Order-sensitive 32-bit label checksum (FNV-1a over the label stream).
/// Exported as a gauge so two fits can be asserted bit-identical from
/// their metrics dumps alone; exactly representable in an f64 gauge.
pub fn label_checksum(labels: &[u32]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &l in labels {
        for b in l.to_le_bytes() {
            h ^= b as u32;
            h = h.wrapping_mul(16777619);
        }
    }
    h
}

/// Validate inputs shared by all levels.
pub(crate) fn validate<S: Scalar>(
    data: &Matrix<S>,
    init: &Matrix<S>,
    cfg: &HierConfig,
) -> Result<(), HierError> {
    if data.rows() == 0 {
        return Err(KMeansError::EmptyDataset.into());
    }
    let k = init.rows();
    if k == 0 {
        return Err(KMeansError::ZeroK.into());
    }
    if k > data.rows() {
        return Err(KMeansError::KExceedsN { k, n: data.rows() }.into());
    }
    if init.cols() != data.cols() {
        return Err(KMeansError::CentroidShape {
            expected_k: k,
            expected_d: data.cols(),
            got_rows: init.rows(),
            got_cols: init.cols(),
        }
        .into());
    }
    if cfg.units == 0 {
        return Err(HierError::InvalidConfig("units must be positive".into()));
    }
    if cfg.level != Level::L1 {
        if cfg.group_units == 0 {
            return Err(HierError::InvalidConfig(
                "group_units must be positive".into(),
            ));
        }
        if cfg.group_units > cfg.units {
            return Err(HierError::InvalidConfig(format!(
                "group_units {} exceeds units {}",
                cfg.group_units, cfg.units
            )));
        }
    }
    if cfg.level == Level::L3 && cfg.cpes_per_cg == 0 {
        return Err(HierError::InvalidConfig(
            "cpes_per_cg must be positive".into(),
        ));
    }
    if cfg.merge == MergeStrategy::Ring && cfg.update == UpdateMode::Delta {
        return Err(HierError::InvalidConfig(
            "merge strategy `ring` is incompatible with `--update delta`: delta's \
             sparse merges depend on the tree's length-independent fold order"
                .into(),
        ));
    }
    Ok(())
}

/// What each SPMD rank hands back: the final centroids (exactly one rank),
/// iterations run, the convergence flag, its per-iteration phase trace,
/// and its bounded-assign counters (zeroed when bounds were off).
pub(crate) type RankOutput<S> = (Option<Matrix<S>>, usize, bool, Vec<IterTiming>, BoundsStats);

/// Resolve a config's fault plan into what [`msg::World::run_with_faults`]
/// wants: the active plan (if any) and the world receive deadline (the
/// plan's override, or the historical 60 s default).
pub(crate) fn fault_setup(
    cfg: &HierConfig,
) -> (Option<std::sync::Arc<msg::FaultPlan>>, std::time::Duration) {
    let plan = cfg
        .faults
        .clone()
        .filter(|p| p.is_active())
        .map(std::sync::Arc::new);
    let timeout = plan
        .as_deref()
        .and_then(|p| p.timeout())
        .unwrap_or(std::time::Duration::from_secs(60));
    (plan, timeout)
}

/// Per-rank training-phase tracer: emits the `assign`/`merge`/`update`/
/// `exchange`/`iteration` spans on the `train` process track (one track
/// per world rank) when [`HierConfig::trace`] is set, and is a no-op
/// otherwise. [`PhaseTracer::attach`] also wires the *comms* tracer into
/// the world communicator (track = world rank), so splits inherit it and
/// every collective lands on the same rank's comm timeline.
///
/// The span durations are the exact values the executors fold into
/// [`IterTiming`] — one measurement feeds both the timing report and the
/// trace, so the two can never disagree by more than event-emission
/// overhead.
pub(crate) struct PhaseTracer {
    tracer: Option<swkm_obs::Tracer>,
}

impl PhaseTracer {
    pub(crate) fn attach(cfg: &HierConfig, comm: &mut msg::Comm) -> PhaseTracer {
        let tracer = cfg.trace.as_ref().map(|buf| {
            let rank = comm.rank() as u32;
            comm.set_tracer(swkm_obs::Tracer::new(
                std::sync::Arc::clone(buf),
                "comm",
                rank,
            ));
            swkm_obs::Tracer::new(std::sync::Arc::clone(buf), "train", rank)
        });
        PhaseTracer { tracer }
    }

    /// Seconds since `since`, recorded as a `Complete` span ending now.
    /// Returns the measured duration so call sites can do
    /// `it.assign += pt.phase("assign", t0, iter)`.
    pub(crate) fn phase(&self, name: &'static str, since: std::time::Instant, iter: usize) -> f64 {
        let secs = since.elapsed().as_secs_f64();
        if let Some(t) = &self.tracer {
            let dur_ns = (secs * 1e9) as u64;
            let end_ns = t.buffer().now_ns();
            t.complete_at(
                name,
                end_ns.saturating_sub(dur_ns),
                dur_ns,
                0,
                "iter",
                iter as u64,
            );
        }
        secs
    }

    /// Instant marker (e.g. a degraded iteration) tagged with the
    /// iteration number.
    pub(crate) fn mark(&self, name: &'static str, iter: usize) {
        if let Some(t) = &self.tracer {
            t.instant_full(name, 0, "iter", iter as u64);
        }
    }
}

/// Unwrap per-rank closure results, surfacing the first rank's typed
/// communication failure. Ranks fail together (a starved peer times out
/// when its partner exhausts retries), so reporting the lowest rank's error
/// is deterministic enough for tests.
pub(crate) fn collect_ranks<S: Scalar>(
    outs: Vec<Result<RankOutput<S>, msg::CommError>>,
) -> Result<Vec<RankOutput<S>>, HierError> {
    outs.into_iter()
        .map(|r| r.map_err(HierError::Comm))
        .collect()
}

/// Attach the merged per-rank fault tallies and the degraded-iteration
/// count to an assembled result.
pub(crate) fn finalize_faults<S: Scalar>(
    result: &mut HierResult<S>,
    cfg: &HierConfig,
    stats: &[msg::FaultStats],
) {
    let mut merged = msg::FaultStats::new();
    for s in stats {
        merged.merge(s);
    }
    result.fault_stats = merged;
    if let Some(plan) = &cfg.faults {
        result.degraded_iterations = (0..result.iterations)
            .filter(|&i| plan.degrade_iteration(i))
            .count() as u64;
    }
}

/// Assemble a [`HierResult`] from per-rank outputs: exactly one rank
/// returns the final centroids; labels and objective are recomputed against
/// them by `kmeans_core::assign_step` — the exact direct-distance pass
/// `Lloyd::run_from` ends with, so the hierarchy and the serial oracle
/// share one label contract whatever kernel the iterations ran. Its wall
/// time is carried as `final_assign_s`. Each rank hands back its per-iteration
/// phase trace; the legacy [`PhaseTimings`] critical path is derived from
/// the per-rank totals.
pub(crate) fn assemble<S: Scalar>(
    data: &Matrix<S>,
    outs: Vec<RankOutput<S>>,
    costs: Vec<msg::CostLog>,
    cfg: &HierConfig,
    merge_ring: bool,
) -> HierResult<S> {
    let mut iterations = 0;
    let mut converged = false;
    let mut centroids = None;
    let mut per_rank = Vec::with_capacity(outs.len());
    let mut bounds = BoundsStats::default();
    for (c, iters, conv, trace, bstats) in outs {
        per_rank.push(trace);
        bounds.merge(&bstats);
        if let Some(c) = c {
            assert!(centroids.is_none(), "two ranks returned centroids");
            centroids = Some(c);
            iterations = iters;
            converged = conv;
        }
    }
    let trace = TrainTrace { per_rank };
    let rank_totals: Vec<PhaseTimings> = (0..trace.ranks())
        .map(|r| {
            let t = trace.rank_total(r);
            PhaseTimings {
                assign: t.assign,
                merge: t.merge,
                update: t.update,
                exchange: t.exchange,
            }
        })
        .collect();
    let timings = PhaseTimings::critical_path(&rank_totals);
    let centroids = centroids.expect("no rank returned centroids");
    let bounds_mode = cfg.resolved_bounds(data.rows(), centroids.rows(), centroids.cols());
    let mut labels = vec![0u32; data.rows()];
    let final_assign = std::time::Instant::now();
    let objective = kmeans_core::assign_step(data, &centroids, &mut labels) / data.rows() as f64;
    let final_assign_s = final_assign.elapsed().as_secs_f64();
    let mut comm = msg::CostLog::new();
    for c in &costs {
        comm.merge(c);
    }
    HierResult {
        centroids,
        labels,
        iterations,
        converged,
        objective,
        comm_bytes: comm.total_bytes(),
        comm_messages: comm.total_messages(),
        timings,
        trace,
        comm,
        kernel: cfg.kernel,
        update: cfg.update,
        merge_ring,
        fault_stats: msg::FaultStats::new(),
        degraded_iterations: 0,
        bounds_mode,
        bounds,
        final_assign_s,
    }
}

/// Run the configured level on `data` from `init` centroids.
pub fn fit<S: Scalar>(
    data: &Matrix<S>,
    init: Matrix<S>,
    cfg: &HierConfig,
) -> Result<HierResult<S>, HierError> {
    validate(data, &init, cfg)?;
    match cfg.level {
        Level::L1 => crate::level1::run(data, init, cfg),
        Level::L2 => crate::level2::run(data, init, cfg),
        Level::L3 => crate::level3::run(data, init, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_data() -> Matrix<f64> {
        Matrix::from_rows(&[&[0.0f64, 0.0], &[1.0, 0.0], &[10.0, 10.0], &[11.0, 10.0]])
    }

    #[test]
    fn validation_catches_bad_inputs() {
        let data = small_data();
        let cfg = HierConfig::new(Level::L2);
        let empty = Matrix::<f64>::zeros(0, 2);
        assert!(matches!(
            fit(&empty, Matrix::zeros(1, 2), &cfg).unwrap_err(),
            HierError::KMeans(KMeansError::EmptyDataset)
        ));
        assert!(matches!(
            fit(&data, Matrix::zeros(0, 2), &cfg).unwrap_err(),
            HierError::KMeans(KMeansError::ZeroK)
        ));
        assert!(matches!(
            fit(&data, Matrix::zeros(5, 2), &cfg).unwrap_err(),
            HierError::KMeans(KMeansError::KExceedsN { .. })
        ));
        assert!(matches!(
            fit(&data, Matrix::zeros(2, 3), &cfg).unwrap_err(),
            HierError::KMeans(KMeansError::CentroidShape { .. })
        ));
    }

    #[test]
    fn config_validation() {
        let data = small_data();
        let init = Matrix::from_rows(&[&[0.0f64, 0.0], &[10.0, 10.0]]);
        let mut cfg = HierConfig::new(Level::L2);
        cfg.units = 0;
        assert!(matches!(
            fit(&data, init.clone(), &cfg).unwrap_err(),
            HierError::InvalidConfig(_)
        ));
        let mut cfg = HierConfig::new(Level::L2);
        cfg.group_units = 16;
        cfg.units = 4;
        let err = fit(&data, init.clone(), &cfg).unwrap_err();
        assert!(err.to_string().contains("exceeds units"));
        let mut cfg = HierConfig::new(Level::L3);
        cfg.cpes_per_cg = 0;
        assert!(fit(&data, init, &cfg).is_err());
    }

    #[test]
    fn train_trace_critical_path_and_imbalance() {
        let fast = IterTiming {
            assign: 0.1,
            merge: 0.05,
            update: 0.02,
            exchange: 0.0,
            wall: 0.18,
            moved_fraction: 0.5,
        };
        let slow = IterTiming {
            assign: 0.3,
            merge: 0.01,
            update: 0.04,
            exchange: 0.0,
            wall: 0.36,
            moved_fraction: 0.125,
        };
        let trace = TrainTrace {
            per_rank: vec![vec![fast, fast], vec![slow, slow]],
        };
        assert_eq!(trace.ranks(), 2);
        assert_eq!(trace.iterations(), 2);
        let crit = trace.iter_critical(0);
        assert_eq!(crit.assign, 0.3);
        assert_eq!(crit.merge, 0.05);
        assert_eq!(crit.update, 0.04);
        assert_eq!(crit.wall, 0.36);
        assert_eq!(crit.moved_fraction, 0.5);
        // max assign total 0.6 vs mean 0.4 → 1.5× imbalance.
        assert!((trace.assign_imbalance() - 1.5).abs() < 1e-12);
        assert!((fast.phase_sum() - 0.17).abs() < 1e-12);

        let reg = swkm_obs::MetricsRegistry::new();
        trace.export_into(&reg, "train");
        assert_eq!(reg.histogram("train_assign_ns").unwrap().count(), 4);
        assert_eq!(reg.gauge("train_ranks"), Some(2.0));
        assert_eq!(reg.gauge("train_iterations"), Some(2.0));
        assert!((reg.gauge("train_assign_s").unwrap() - 0.6).abs() < 1e-12);
        assert!((reg.gauge("train_wall_s").unwrap() - 0.72).abs() < 1e-12);
        assert_eq!(reg.gauge("train_moved_fraction"), Some(0.5));
    }

    #[test]
    fn merge_strategy_names_parse_and_resolve() {
        for m in MergeStrategy::ALL {
            assert_eq!(MergeStrategy::parse(m.name()), Ok(m));
            assert_eq!(m.name().parse::<MergeStrategy>(), Ok(m));
        }
        assert!(MergeStrategy::parse("mesh").unwrap_err().contains("mesh"));
        assert_eq!(MergeStrategy::default(), MergeStrategy::Auto);

        let big = RING_CROSSOVER_BYTES;
        // Tree never rings; Ring always does (except under delta).
        assert!(!MergeStrategy::Tree.use_ring(big, 8, UpdateMode::TwoPass));
        assert!(MergeStrategy::Ring.use_ring(16, 2, UpdateMode::TwoPass));
        assert!(!MergeStrategy::Ring.use_ring(big, 8, UpdateMode::Delta));
        // Auto needs size, rank count, and a non-delta update path.
        assert!(MergeStrategy::Auto.use_ring(big, 4, UpdateMode::Fused));
        assert!(!MergeStrategy::Auto.use_ring(big - 1, 4, UpdateMode::Fused));
        assert!(!MergeStrategy::Auto.use_ring(big, 3, UpdateMode::Fused));
        assert!(!MergeStrategy::Auto.use_ring(big, 8, UpdateMode::Delta));
    }

    #[test]
    fn ring_plus_delta_is_rejected() {
        let data = small_data();
        let init = Matrix::from_rows(&[&[0.0f64, 0.0], &[10.0, 10.0]]);
        let mut cfg = HierConfig::new(Level::L1);
        cfg.update = UpdateMode::Delta;
        cfg.merge = MergeStrategy::Ring;
        let err = fit(&data, init, &cfg).unwrap_err();
        assert!(err.to_string().contains("incompatible"));
    }

    #[test]
    fn empty_trace_is_degenerate_but_safe() {
        let trace = TrainTrace::default();
        assert_eq!(trace.iterations(), 0);
        assert_eq!(trace.assign_imbalance(), 1.0);
        let reg = swkm_obs::MetricsRegistry::new();
        trace.export_into(&reg, "train");
        assert_eq!(reg.gauge("train_ranks"), Some(0.0));
    }

    #[test]
    fn error_display() {
        let e: HierError = KMeansError::ZeroK.into();
        assert!(e.to_string().contains("positive"));
        let e = HierError::InvalidConfig("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
