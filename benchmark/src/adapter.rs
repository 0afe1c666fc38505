//! Every call into the workspace lives in this file; the rest of the
//! benchmark sees only the plain types declared here. Calls go through
//! builder entry points and `Default` configurations — no `HierConfig` or
//! `DispatchConfig` struct literal, and none of the surfaces ROADMAP marks
//! for deletion (`AssignKernel::Expanded`, the `serve::Kernel` alias,
//! `PipelineConfig`, `kmeans_core::{elkan, yinyang}`, two-pass update as a
//! user mode) — so collapsing the variant matrix does not break the
//! benchmark that judges it.

use crate::stats::{median, per_call_s};
use crossbeam_channel::{bounded, unbounded, Select, TrySendError};
use hier_kmeans::{label_checksum, HierKMeans, Level, MergeStrategy};
use kmeans_core::{
    assign_step, centroid_drifts, init_centroids, update_step, AssignKernel, AssignPlan,
    AssignPlanner, BoundState, BoundsIterKind, BoundsMode, BoundsScratch, InitMethod, KMeansConfig,
    Lloyd, Matrix, SampleSource, UpdateMode, LDM_BYTES_DEFAULT,
};
use msg::{pack_min_loc, OpKind, World};
use rayon::prelude::*;
use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;
use swkm_serve::{
    Client, DispatchConfig, ModelArtifact, ServeError, ServeTracing, Server, ShardedIndex,
};
use swkm_store::{ModelStore, StdVfs};

/// All benchmark data is `f32`, what `swkm fit` uses.
pub type Mat = Matrix<f32>;

// ---------------------------------------------------------------- datasets

/// `n` samples of a `components`-blob Gaussian mixture in `d` dimensions
/// (generator defaults for spread and noise).
pub fn mixture(n: usize, d: usize, components: usize, seed: u64) -> Mat {
    datasets::GaussianMixture::new(n, d, components)
        .with_seed(seed)
        .generate()
        .data
}

/// `count` images starting at `start` of the virtual million-image
/// ILSVRC-like source at dimensionality `d`.
pub fn imagenet_window(d: usize, seed: u64, start: u64, count: usize) -> Mat {
    datasets::ImageNetSource::new(1_000_000, d, seed).materialize(start, count)
}

pub fn kmeanspp(data: &Mat, k: usize, seed: u64) -> Mat {
    init_centroids(data, k, InitMethod::KMeansPlusPlus, seed)
}

pub fn rows_of(data: &Mat, rows: Range<usize>) -> Mat {
    data.slice_rows(rows)
}

pub fn row_vec(data: &Mat, row: usize) -> Vec<f32> {
    data.row(row).to_vec()
}

/// Add `delta` to the first element of `row`: the smallest change that
/// makes a centroid row differ bitwise.
pub fn nudge_row(m: &mut Mat, row: usize, delta: f32) {
    m.row_mut(row)[0] += delta;
}

pub fn mat_from_vec(rows: usize, cols: usize, values: Vec<f32>) -> Mat {
    Matrix::from_vec(rows, cols, values)
}

// --------------------------------------------------------------------- fit

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    L1,
    L2,
    L3,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Scalar,
    Gemm,
}

impl Kernel {
    fn lib(self) -> AssignKernel {
        match self {
            Kernel::Scalar => AssignKernel::Scalar,
            Kernel::Gemm => AssignKernel::Gemm,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    Fused,
    Delta,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bounds {
    Off,
    Yinyang,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    Auto,
    Tree,
}

/// One `HierKMeans` configuration. Every fit runs with `tol 0` under an
/// iteration cap, so the iteration count is the cap and does not depend on
/// how quickly a seed's data happens to settle.
#[derive(Debug, Clone, Copy)]
pub struct FitSpec {
    pub partition: Partition,
    pub units: usize,
    pub group_units: usize,
    pub cpes_per_cg: usize,
    pub kernel: Kernel,
    pub update: Update,
    pub bounds: Bounds,
    pub merge: Merge,
}

/// Per-fit totals of the critical path (per-phase maximum across ranks,
/// summed over iterations), from `HierResult.trace`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTotals {
    pub assign_s: f64,
    pub merge_s: f64,
    pub update_s: f64,
    pub exchange_s: f64,
    pub iter_wall_s: f64,
}

#[derive(Debug, Clone)]
pub struct FitOut {
    pub centroids: Mat,
    pub iterations: usize,
    pub converged: bool,
    pub objective: f64,
    pub label_checksum: u32,
    pub phases: PhaseTotals,
    pub assign_imbalance: f64,
    /// Worst-rank share of samples that changed label in the last
    /// iteration.
    pub tail_moved_fraction: f64,
    pub comm_bytes: u64,
    pub comm_msgs: u64,
    pub allreduce_bytes: u64,
    pub minloc_bytes: u64,
    pub bounds_distance_evals: u64,
    pub bounds_lloyd_equivalent: u64,
    pub bounds_savings: f64,
}

pub fn fit(spec: &FitSpec, data: &Mat, init: Mat, max_iters: usize) -> Result<FitOut, String> {
    let level = match spec.partition {
        Partition::L1 => Level::L1,
        Partition::L2 => Level::L2,
        Partition::L3 => Level::L3,
    };
    let fitter = HierKMeans::new(level)
        .with_units(spec.units)
        .with_group_units(spec.group_units)
        .with_cpes_per_cg(spec.cpes_per_cg)
        .with_kernel(spec.kernel.lib())
        .with_update(match spec.update {
            Update::Fused => UpdateMode::Fused,
            Update::Delta => UpdateMode::Delta,
        })
        .with_bounds(match spec.bounds {
            Bounds::Off => BoundsMode::None,
            Bounds::Yinyang => BoundsMode::Yinyang,
        })
        .with_merge(match spec.merge {
            Merge::Auto => MergeStrategy::Auto,
            Merge::Tree => MergeStrategy::Tree,
        })
        .with_tol(0.0)
        .with_max_iters(max_iters);
    let r = fitter.fit(data, init).map_err(|e| e.to_string())?;
    let mut phases = PhaseTotals::default();
    for i in 0..r.trace.iterations() {
        let it = r.trace.iter_critical(i);
        phases.assign_s += it.assign;
        phases.merge_s += it.merge;
        phases.update_s += it.update;
        phases.exchange_s += it.exchange;
        phases.iter_wall_s += it.wall;
    }
    let tail_moved_fraction = match r.trace.iterations() {
        0 => 0.0,
        n => r.trace.iter_critical(n - 1).moved_fraction,
    };
    Ok(FitOut {
        label_checksum: label_checksum(&r.labels),
        assign_imbalance: r.trace.assign_imbalance(),
        tail_moved_fraction,
        comm_bytes: r.comm.total_bytes(),
        comm_msgs: r.comm.total_messages(),
        allreduce_bytes: r.comm.bytes_of(OpKind::AllReduce),
        minloc_bytes: r.comm.bytes_of(OpKind::MinLoc),
        bounds_distance_evals: r.bounds.distance_evals,
        bounds_lloyd_equivalent: r.bounds.lloyd_equivalent,
        bounds_savings: r.bounds.savings(),
        centroids: r.centroids,
        iterations: r.iterations,
        converged: r.converged,
        objective: r.objective,
        phases,
    })
}

pub struct SerialOut {
    pub iterations: usize,
    pub objective: f64,
}

/// The plain single-thread baseline: serial Lloyd from the same start,
/// same kernel, same cap, `tol 0`.
pub fn lloyd_serial(
    data: &Mat,
    init: Mat,
    kernel: Kernel,
    max_iters: usize,
) -> Result<SerialOut, String> {
    let cfg = KMeansConfig::new(init.rows())
        .with_max_iters(max_iters)
        .with_tol(0.0)
        .with_kernel(kernel.lib())
        .with_update(UpdateMode::Fused);
    let r = Lloyd::run_from(data, init, &cfg).map_err(|e| e.to_string())?;
    Ok(SerialOut {
        iterations: r.iterations,
        objective: r.objective,
    })
}

/// The label/objective pass `hier_kmeans::executor::assemble` ends every
/// fit with (`kmeans_core::assign_step`, serial and scalar).
pub fn final_assign(data: &Mat, centroids: &Mat) -> f64 {
    let mut labels = vec![0u32; data.rows()];
    assign_step(data, centroids, &mut labels) / data.rows() as f64
}

// ------------------------------------------------------------ assign layer

pub struct Plan(AssignPlan<f32>);

impl Plan {
    pub fn fresh(kernel: Kernel, centroids: &Mat) -> Plan {
        Plan(AssignPlan::new(kernel.lib(), centroids))
    }

    pub fn assign_batch(
        &self,
        data: &Mat,
        rows: Range<usize>,
        centroids: &Mat,
        out: &mut Vec<(u32, f32)>,
    ) {
        out.clear();
        self.0
            .assign_batch_into(data, rows, centroids, 0..centroids.rows(), 0, out);
    }

    pub fn assign_accumulate(
        &self,
        data: &Mat,
        rows: Range<usize>,
        centroids: &Mat,
        out: &mut Vec<(u32, f32)>,
        sums: &mut [f32],
        counts: &mut [u64],
    ) {
        out.clear();
        self.0.assign_accumulate_into(
            data,
            rows,
            centroids,
            0..centroids.rows(),
            0,
            out,
            sums,
            counts,
        );
    }

    /// Serial single-sample label, the reference served labels are
    /// checked against.
    pub fn assign_one(&self, sample: &[f32], centroids: &Mat) -> u32 {
        self.0
            .assign_one(sample, centroids, 0..centroids.rows(), 0)
            .0
    }
}

pub struct Planner(AssignPlanner<f32>);

impl Planner {
    pub fn new(kernel: Kernel) -> Planner {
        Planner(AssignPlanner::new(kernel.lib(), LDM_BYTES_DEFAULT))
    }

    pub fn plan(&mut self, centroids: &Mat) -> Plan {
        Plan(self.0.plan(centroids))
    }

    pub fn plan_with_changed(&mut self, centroids: &Mat, changed: &[bool]) -> Plan {
        Plan(self.0.plan_with_changed(centroids, changed))
    }
}

/// Seconds of one `BoundState::assign_serial` filter pass in the
/// convergence tail (first filter iteration with under 10 % of labels
/// moved), driving serial Lloyd iterations by hand from `init` to get
/// there. Returns `(pass seconds, moved fraction, iterations driven)`.
pub fn bounds_tail_pass(data: &Mat, init: &Mat) -> Result<(f64, f64, usize), String> {
    let (n, k, d) = (data.rows(), init.rows(), init.cols());
    let mut planner = AssignPlanner::new(AssignKernel::Gemm, LDM_BYTES_DEFAULT);
    let mut state = BoundState::<f32>::new(BoundsMode::Yinyang, n, k, d);
    let mut scratch = BoundsScratch::default();
    let mut centroids = init.clone();
    let mut next = Matrix::zeros(k, d);
    let mut pairs: Vec<(u32, f32)> = Vec::with_capacity(n);
    let mut labels = vec![0u32; n];
    let mut prev = vec![0u32; n];
    let mut drifts = Vec::new();
    for iter in 0..40 {
        let plan = planner.plan(&centroids);
        pairs.clear();
        let start = Instant::now();
        let kind = state.assign_serial(&plan, data, 0..n, &centroids, &mut pairs, &mut scratch);
        let pass_s = start.elapsed().as_secs_f64();
        for (label, &(j, _)) in labels.iter_mut().zip(&pairs) {
            *label = j;
        }
        let moved = if iter == 0 {
            1.0
        } else {
            labels.iter().zip(&prev).filter(|(a, b)| a != b).count() as f64 / n as f64
        };
        if kind == BoundsIterKind::Filter && moved < 0.10 {
            return Ok((pass_s, moved, iter + 1));
        }
        update_step(data, &labels, &centroids, &mut next);
        centroid_drifts(&centroids, &next, &mut drifts);
        std::mem::swap(&mut centroids, &mut next);
        state.loosen(&drifts);
        state.note_moved_fraction(moved);
        prev.copy_from_slice(&labels);
    }
    Err("bounded assign never reached a filter pass under 10 % moved".into())
}

// ------------------------------------------------------------------- serve

pub struct Artifact(ModelArtifact<f32>);

impl Artifact {
    pub fn new(
        trained_samples: u64,
        centroids: Mat,
        iterations: u64,
        objective: f64,
        converged: bool,
    ) -> Artifact {
        Artifact(ModelArtifact::new(
            trained_samples,
            centroids,
            iterations,
            objective,
            converged,
            None,
        ))
    }

    pub fn encode(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    pub fn decode(bytes: &[u8]) -> Result<Artifact, String> {
        ModelArtifact::from_bytes(bytes)
            .map(Artifact)
            .map_err(|e| e.to_string())
    }

    pub fn centroids(&self) -> &Mat {
        &self.0.centroids
    }
}

/// A `swkm_store::ModelStore` over a real directory.
pub struct Store(ModelStore<StdVfs>);

impl Store {
    pub fn open(dir: &Path) -> Result<Store, String> {
        let vfs = StdVfs::open(dir).map_err(|e| e.to_string())?;
        ModelStore::open(vfs).map(Store).map_err(|e| e.to_string())
    }

    pub fn publish(&mut self, name: &str, artifact: &Artifact) -> Result<u64, String> {
        self.0.publish(name, &artifact.0).map_err(|e| e.to_string())
    }

    pub fn load_live(&self, name: &str) -> Result<(u64, Artifact), String> {
        self.0
            .load_live::<f32>(name)
            .map(|(generation, a)| (generation, Artifact(a)))
            .map_err(|e| e.to_string())
    }

    pub fn total_bytes(&self) -> u64 {
        self.0.total_bytes()
    }
}

#[derive(Clone)]
pub struct Index(ShardedIndex<f32>);

impl Index {
    pub fn build(artifact: &Artifact, shards: usize, kernel: Kernel) -> Index {
        Index(ShardedIndex::from_artifact(&artifact.0, shards).with_kernel(kernel.lib()))
    }

    pub fn assign_batch(&self, batch: &Mat) -> Result<Vec<u32>, String> {
        self.0
            .try_assign_batch(batch)
            .map(|o| o.labels)
            .map_err(|e| e.to_string())
    }
}

/// The counters and log₂-bucket quantiles `Server::snapshot()` returns.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeSnapshot {
    pub rejected: u64,
    pub completed: u64,
    pub steals: u64,
    pub stranded: u64,
    pub batches: u64,
    pub queue_wait_p50_ns: u64,
    pub execute_p50_ns: u64,
}

impl From<swkm_serve::Snapshot> for ServeSnapshot {
    fn from(s: swkm_serve::Snapshot) -> Self {
        ServeSnapshot {
            rejected: s.rejected,
            completed: s.completed,
            steals: s.steals,
            stranded: s.stranded,
            batches: s.batches,
            queue_wait_p50_ns: s.queue_wait_p50_ns,
            execute_p50_ns: s.execute_p50_ns,
        }
    }
}

pub struct ServerHandle(Server<f32>);

impl ServerHandle {
    /// `Server::start_dispatch` with the default dispatch configuration, a
    /// private metrics registry and no tracing.
    pub fn start(index: Index) -> ServerHandle {
        ServerHandle(Server::start_dispatch(
            index.0,
            DispatchConfig::default(),
            swkm_obs::MetricsRegistry::shared(),
            ServeTracing::default(),
        ))
    }

    pub fn client(&self) -> ClientHandle {
        ClientHandle(self.0.client())
    }

    pub fn snapshot(&self) -> ServeSnapshot {
        self.0.snapshot().into()
    }

    pub fn swap(&self, index: Index, generation: u64) -> Result<u64, String> {
        self.0
            .swap_model(index.0, generation)
            .map_err(|e| e.to_string())
    }

    /// Drain and join; every client handle must already be dropped.
    pub fn shutdown(self) -> ServeSnapshot {
        self.0.shutdown().into()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predicted {
    Label(u32),
    /// Refused by admission (queue full or SLO shed).
    Shed,
    /// Admitted but not answered, or rejected as malformed.
    Failed,
}

#[derive(Clone)]
pub struct ClientHandle(Client<f32>);

impl ClientHandle {
    #[inline]
    pub fn predict(&self, sample: Vec<f32>) -> Predicted {
        match self.0.predict(sample) {
            Ok(p) if !p.degraded => Predicted::Label(p.label),
            Ok(_) => Predicted::Failed,
            Err(ServeError::Overloaded { .. } | ServeError::SloShed { .. }) => Predicted::Shed,
            Err(_) => Predicted::Failed,
        }
    }
}

// --------------------------------------------------------------------- msg

/// Direct timings of the `msg` runtime at one rank count, microseconds
/// per operation as seen by rank 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct MsgProbe {
    pub world_spawn_us: f64,
    pub barrier_us: f64,
    pub allreduce_64k_us: f64,
    pub allreduce_ring_64k_us: f64,
    pub minloc_packed_4k_us: f64,
    pub p2p_rtt_us: f64,
    pub split_us: f64,
}

fn sum_into(acc: &mut [f32], x: &[f32]) {
    for (a, b) in acc.iter_mut().zip(x) {
        *a += *b;
    }
}

pub fn msg_probe(ranks: usize) -> MsgProbe {
    // Spawning and joining an empty world is the per-fit rank start-up.
    let world_spawn_us = per_call_s(5, 4, || {
        World::run(ranks, |comm| black_box(comm.rank()));
    }) * 1e6;
    let per_rank = World::run(ranks, |comm| {
        let time = |comm: &mut msg::Comm, reps: usize, f: &mut dyn FnMut(&mut msg::Comm)| {
            f(comm);
            comm.barrier();
            let start = Instant::now();
            for _ in 0..reps {
                f(comm);
            }
            start.elapsed().as_secs_f64() / reps as f64 * 1e6
        };
        let barrier_us = time(comm, 200, &mut |c| c.barrier());
        // 16 384 f32 = 64 KiB, the size of a k=256 × d=64 centroid-sums merge.
        let mut buf = vec![1.0f32; 16_384];
        let allreduce_64k_us = time(comm, 30, &mut |c| c.allreduce_with(&mut buf, sum_into));
        let allreduce_ring_64k_us = time(comm, 30, &mut |c| c.allreduce_ring(&mut buf, sum_into));
        let mut keys: Vec<u64> = (0..4096u32)
            .map(|i| pack_min_loc((i ^ comm.rank() as u32) as f32, i))
            .collect();
        let minloc_packed_4k_us = time(comm, 50, &mut |c| c.allreduce_min_loc_packed(&mut keys));
        let peer = comm.size() - 1;
        let p2p_rtt_us = time(comm, 200, &mut |c| {
            if c.rank() == 0 {
                c.send(peer, 1, 7u64);
                black_box(c.recv::<u64>(peer, 2).expect("pong"));
            } else if c.rank() == peer {
                let v = c.recv::<u64>(0, 1).expect("ping");
                c.send(0, 2, v);
            }
        });
        let split_us = time(comm, 10, &mut |c| {
            black_box(c.split((c.rank() % 2) as u64, c.rank() as u64).size());
        });
        MsgProbe {
            world_spawn_us: 0.0,
            barrier_us,
            allreduce_64k_us,
            allreduce_ring_64k_us,
            minloc_packed_4k_us,
            p2p_rtt_us,
            split_us,
        }
    });
    MsgProbe {
        world_spawn_us,
        ..per_rank[0]
    }
}

// --------------------------------------------------- vendor/crossbeam-channel

/// Nanoseconds per message (or per operation) of the vendored channel,
/// shaped on the seq/spsc/mpsc/select matrix of the upstream crossbeam
/// benchmarks.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChanProbe {
    pub spsc_ns: f64,
    pub mpsc_ns: f64,
    pub pingpong_ns: f64,
    pub bounded1_roundtrip_ns: f64,
    pub select2_ns: f64,
    pub select4_ns: f64,
    pub try_send_full_ns: f64,
}

const CHAN_MESSAGES: usize = 20_000;

fn select_ns(receivers: usize) -> f64 {
    // One producer feeds `receivers` channels round-robin; the consumer
    // multiplexes them with `Select`, as the serve dispatcher does.
    let chans: Vec<_> = (0..receivers).map(|_| unbounded::<usize>()).collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..CHAN_MESSAGES {
                chans[i % receivers].0.send(i).expect("receiver alive");
            }
        });
        let mut sel = Select::new();
        for (_, rx) in &chans {
            sel.recv(rx);
        }
        for _ in 0..CHAN_MESSAGES {
            let op = sel.select();
            let idx = op.index();
            black_box(op.recv(&chans[idx].1).expect("sender alive"));
        }
    });
    start.elapsed().as_secs_f64() / CHAN_MESSAGES as f64 * 1e9
}

pub fn chan_probe() -> ChanProbe {
    let producers_to_one = |producers: usize| {
        let (tx, rx) = bounded::<usize>(1024);
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..producers {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..CHAN_MESSAGES / producers {
                        tx.send(i).expect("receiver alive");
                    }
                });
            }
            for _ in 0..CHAN_MESSAGES / producers * producers {
                black_box(rx.recv().expect("sender alive"));
            }
        });
        start.elapsed().as_secs_f64() / CHAN_MESSAGES as f64 * 1e9
    };
    let pingpong_ns = {
        let (ping_tx, ping_rx) = bounded::<usize>(1);
        let (pong_tx, pong_rx) = bounded::<usize>(1);
        let rounds = CHAN_MESSAGES / 4;
        let start = Instant::now();
        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..rounds {
                    let v = ping_rx.recv().expect("ping");
                    pong_tx.send(v).expect("pong");
                }
            });
            for i in 0..rounds {
                ping_tx.send(i).expect("ping");
                black_box(pong_rx.recv().expect("pong"));
            }
        });
        start.elapsed().as_secs_f64() / rounds as f64 * 1e9
    };
    // What `Client::predict` pays per request for its reply path.
    let bounded1_roundtrip_ns = per_call_s(5, 2_000, || {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).expect("receiver alive");
        black_box(rx.recv().expect("sender alive"));
    }) * 1e9;
    let try_send_full_ns = {
        let (tx, _rx) = bounded::<u32>(1);
        tx.send(0).expect("receiver alive");
        per_call_s(5, 5_000, || {
            assert!(matches!(tx.try_send(1), Err(TrySendError::Full(_))));
        }) * 1e9
    };
    ChanProbe {
        spsc_ns: median(&[
            producers_to_one(1),
            producers_to_one(1),
            producers_to_one(1),
        ]),
        mpsc_ns: median(&[
            producers_to_one(4),
            producers_to_one(4),
            producers_to_one(4),
        ]),
        pingpong_ns,
        bounded1_roundtrip_ns,
        select2_ns: median(&[select_ns(2), select_ns(2), select_ns(2)]),
        select4_ns: median(&[select_ns(4), select_ns(4), select_ns(4)]),
        try_send_full_ns,
    }
}

// ------------------------------------------------------------ vendor/rayon

/// Microseconds per call of the rayon stand-in's scoped-thread spawn with
/// empty work: what every serve micro-batch pays before any arithmetic.
#[derive(Debug, Clone, Copy, Default)]
pub struct RayonProbe {
    pub par_iter2_us: f64,
    pub par_iter4_us: f64,
    pub join_us: f64,
}

pub fn rayon_probe() -> RayonProbe {
    let par_iter_us = |items: usize| {
        let v: Vec<usize> = (0..items).collect();
        per_call_s(5, 200, || {
            let out: Vec<usize> = v.par_iter().map(|&x| x + 1).collect();
            black_box(out);
        }) * 1e6
    };
    RayonProbe {
        par_iter2_us: par_iter_us(2),
        par_iter4_us: par_iter_us(4),
        join_us: per_call_s(5, 200, || {
            black_box(rayon::join(|| 1u32, || 2u32));
        }) * 1e6,
    }
}

// ---------------------------------------------------------------- swkm-obs

/// `(span enter+drop ns, counter_inc ns)` against a private registry.
pub fn obs_probe() -> (f64, f64) {
    let reg = swkm_obs::MetricsRegistry::new();
    let span_ns = per_call_s(5, 20_000, || {
        let _guard = swkm_obs::Span::enter(&reg, "bench_probe");
    }) * 1e9;
    let counter_ns = per_call_s(5, 20_000, || reg.counter_inc("bench_probe_total")) * 1e9;
    black_box(reg.counter("bench_probe_total"));
    (span_ns, counter_ns)
}
