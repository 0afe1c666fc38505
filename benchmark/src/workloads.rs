//! The five workloads and the run of one of them: generate inputs from
//! the seed, time the fit phase and the closed-loop serve phase, verify
//! every output, and report the end-to-end metrics.
//!
//! Every workload is the whole user path — generate, seed, fit, freeze,
//! publish, load, serve — with shapes chosen so that a different layer
//! dominates in each; that is what lets every end-to-end metric be read
//! on every workload.

use crate::adapter::{
    self, Artifact, Bounds, ClientHandle, FitOut, FitSpec, Index, Kernel, Mat, Merge, Partition,
    Plan, Predicted, ServeSnapshot, ServerHandle, Store, Update,
};
use crate::host;
use crate::json::Json;
use crate::regime::Regime;
use crate::stats::{median, timed, LatencyRecorder, Summary};
use crate::trace::{Recorder, PREDICT_SAMPLE};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Queries in the serve pool.
pub const POOL: usize = 256;
/// Closed-loop callers: `Client::predict` blocks its caller, so the load
/// is stated as two callers (`nproc` on the reference box), not as a rate.
pub const CLIENTS: usize = 2;
/// Whole set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const WARMUP_S: f64 = 0.4;
/// Longest wait for the host to place the two vCPUs on two cores.
pub const SETTLE_TIMEOUT_S: f64 = 6.0;
/// Fits per untraced run, whatever the budget.
const MIN_FITS: usize = 3;
/// The serve phase is cut into back-to-back windows of about this length;
/// the reported figures are medians over windows, so one disturbed window
/// does not move them.
const WINDOW_TARGET_S: f64 = 0.75;
/// Relative objective distance from serial Lloyd that fails a fit.
const SERIAL_TOL: f64 = 1e-3;

#[derive(Debug, Clone, Copy)]
pub enum DataSpec {
    /// `GaussianMixture(n, d, components)`; queries are the first
    /// [`POOL`] rows jittered by ±0.5.
    Mixture {
        n: usize,
        d: usize,
        components: usize,
    },
    /// The first `n` images of the ILSVRC-like source at dimensionality
    /// `d`; queries are the next [`POOL`] images.
    ImageNet { n: usize, d: usize },
}

impl DataSpec {
    pub fn shape(&self) -> (usize, usize) {
        match *self {
            DataSpec::Mixture { n, d, .. } | DataSpec::ImageNet { n, d } => (n, d),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// The timed fit's centroids.
    FitCentroids,
    /// The generated rows themselves as a nearest-row table (a model too
    /// large to fit within a run).
    DataRows,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub data: DataSpec,
    pub k: usize,
    pub fit: FitSpec,
    /// Iteration cap of the timed fits. Every fit runs at `tol 0`, and the
    /// cap sits below the iteration at which any explored seed's data
    /// stops moving, so every seed does the same number of iterations.
    pub cap: usize,
    /// The shorter cap at which one extra fit is checked against serial
    /// Lloyd (equal to `cap` where serial Lloyd at `cap` is affordable).
    pub verify_cap: usize,
    /// A second configuration that must produce the bitwise-identical
    /// result (labels, objective bits, iterations).
    pub bitwise_reference: Option<FitSpec>,
    pub served: Served,
    pub shards: usize,
    pub serve_kernel: Kernel,
    /// Share of `--seconds` given to the fit phase; the serve phase gets
    /// the rest.
    pub fit_share: f64,
}

const L1_DENSE: FitSpec = FitSpec {
    partition: Partition::L1,
    units: 2,
    group_units: 2,
    cpes_per_cg: 8,
    kernel: Kernel::Gemm,
    update: Update::Fused,
    bounds: Bounds::Off,
    merge: Merge::Auto,
};

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "l1_dense",
        why: "Paper shape n100k/k256/d64, every iteration a full n*k*d pass: assign kernel and per-fit fixed costs show, comms must not",
        // 64 blobs under 256 centroids: Lloyd keeps subdividing for 49+
        // iterations on every explored seed, so the cap of 25 is always hit.
        data: DataSpec::Mixture { n: 100_000, d: 64, components: 64 },
        k: 256,
        fit: L1_DENSE,
        cap: 25,
        verify_cap: 5,
        bitwise_reference: None,
        served: Served::FitCentroids,
        shards: 2,
        serve_kernel: Kernel::Gemm,
        fit_share: 0.75,
    },
    Workload {
        name: "l1_converge",
        why: "Same layer in the convergence tail: yinyang bounds, delta update, tree merge on 8 oversubscribed ranks; bookkeeping, sparse merges and barrier waits show",
        // One blob per centroid, the regime bounds are built for. Capped
        // at 12 iterations (every seed needs more to settle) so the work
        // does not depend on when a seed's data happens to converge.
        data: DataSpec::Mixture { n: 100_000, d: 64, components: 256 },
        k: 256,
        fit: FitSpec {
            units: 8,
            update: Update::Delta,
            bounds: Bounds::Yinyang,
            merge: Merge::Tree,
            ..L1_DENSE
        },
        cap: 12,
        verify_cap: 12,
        bitwise_reference: Some(FitSpec {
            units: 8,
            merge: Merge::Tree,
            ..L1_DENSE
        }),
        served: Served::FitCentroids,
        shards: 2,
        serve_kernel: Kernel::Gemm,
        fit_share: 0.75,
    },
    Workload {
        name: "l3_wide",
        why: "The paper's nkd partition at d=3072: column slices, per-sample min-loc merge and the dimension exchange path on continuous image data",
        data: DataSpec::ImageNet { n: 4096, d: 3072 },
        k: 256,
        fit: FitSpec {
            partition: Partition::L3,
            ..L1_DENSE
        },
        cap: 8,
        verify_cap: 3,
        bitwise_reference: None,
        served: Served::FitCentroids,
        shards: 2,
        serve_kernel: Kernel::Gemm,
        fit_share: 0.75,
    },
    Workload {
        name: "serve_light",
        why: "serve-bench default model k64/d16: under 1 us of arithmetic per request, so dispatcher, channel, per-batch thread spawn and allocation are the latency",
        data: DataSpec::Mixture { n: 20_000, d: 16, components: 16 },
        k: 64,
        fit: FitSpec {
            partition: Partition::L2,
            kernel: Kernel::Scalar,
            ..L1_DENSE
        },
        cap: 25,
        verify_cap: 5,
        bitwise_reference: None,
        served: Served::FitCentroids,
        shards: 4,
        serve_kernel: Kernel::Scalar,
        fit_share: 0.2,
    },
    Workload {
        name: "serve_heavy",
        why: "16384 rows x d128 (8 MB, beyond one core's L2) scanned per request: the gemm kernel as matrix-vector and memory traffic are about half of latency",
        data: DataSpec::Mixture { n: 16_384, d: 128, components: 4 },
        k: 256,
        fit: L1_DENSE,
        cap: 10,
        verify_cap: 3,
        bitwise_reference: None,
        served: Served::DataRows,
        shards: 2,
        serve_kernel: Kernel::Gemm,
        fit_share: 0.2,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// SplitMix64: the benchmark's own generator for query jitter and query
/// order, so the program under test receives only finished inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

pub struct Inputs {
    pub data: Mat,
    pub init: Mat,
    pub pool: Vec<Vec<f32>>,
}

/// Generate the workload's inputs from the seed. Returns the inputs and
/// the seconds a user pays for them (generation + k-means++).
pub fn make_inputs(w: &Workload, seed: u64, rec: &Recorder, parent: Option<u32>) -> (Inputs, f64) {
    let ((data, pool), gen_s) = rec.time("datasets/generate", parent, |_| match w.data {
        DataSpec::Mixture { n, d, components } => {
            let data = adapter::mixture(n, d, components, seed);
            let mut rng = SplitMix(seed ^ 0x5eed);
            let pool = (0..POOL)
                .map(|i| {
                    let row = adapter::row_vec(&data, i);
                    row.into_iter().map(|x| x + 0.5 * rng.unit()).collect()
                })
                .collect();
            (data, pool)
        }
        DataSpec::ImageNet { n, d } => {
            let data = adapter::imagenet_window(d, seed, 0, n);
            let held_out = adapter::imagenet_window(d, seed, n as u64, POOL);
            let pool = (0..POOL).map(|i| adapter::row_vec(&held_out, i)).collect();
            (data, pool)
        }
    });
    let (init, init_s) = rec.time("kmeans-core/kmeanspp", parent, |_| {
        adapter::kmeanspp(&data, w.k, seed)
    });
    (Inputs { data, init, pool }, gen_s + init_s)
}

/// Attempt/failure ledger with the guards that make a wrong measurement
/// fail loudly instead of producing a number.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// First `(iterations, label checksum, objective bits)` seen per cap.
    first: BTreeMap<usize, (usize, u32, u64)>,
}

impl Ledger {
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    /// One finished fit: it must have run exactly `cap` iterations and be
    /// bitwise equal to every earlier fit at that cap.
    fn fit_done(&mut self, what: &str, cap: usize, out: &FitOut) {
        self.attempted += 1;
        let sig = (out.iterations, out.label_checksum, out.objective.to_bits());
        if out.iterations != cap {
            self.fail(format!(
                "{what}: stopped after {} iterations, cap is {cap}",
                out.iterations
            ));
        } else if *self.first.entry(cap).or_insert(sig) != sig {
            self.fail(format!(
                "{what}: repetition differs from the first fit at cap {cap} \
                 (iterations, label checksum or objective bits)"
            ));
        }
    }
}

pub fn run_fit(
    w: &Workload,
    spec: &FitSpec,
    inputs: &Inputs,
    cap: usize,
    rec: &Recorder,
    parent: Option<u32>,
    ledger: &mut Ledger,
) -> Result<(FitOut, f64), String> {
    let init = inputs.init.clone();
    let (out, wall) = rec.time("hier-kmeans/fit", parent, |_| {
        adapter::fit(spec, &inputs.data, init, cap)
    });
    let out = out.map_err(|e| format!("{}: fit failed: {e}", w.name))?;
    ledger.fit_done(w.name, cap, &out);
    Ok((out, wall))
}

pub struct FitPhase {
    /// Wall seconds of each whole `fit` call, in order.
    pub walls: Vec<f64>,
    /// Per fit: summed critical-path iteration wall of `HierResult.trace`
    /// divided by the iteration count.
    pub iter_s: Vec<f64>,
    /// The last fit (every repetition is checked bitwise equal to the
    /// first).
    pub last: FitOut,
}

impl FitPhase {
    /// The first timed fit at the workload's cap.
    pub fn start(
        w: &Workload,
        inputs: &Inputs,
        rec: &Recorder,
        parent: Option<u32>,
        ledger: &mut Ledger,
    ) -> Result<FitPhase, String> {
        let (out, wall) = run_fit(w, &w.fit, inputs, w.cap, rec, parent, ledger)?;
        Ok(FitPhase {
            walls: vec![wall],
            iter_s: vec![out.phases.iter_wall_s / w.cap as f64],
            last: out,
        })
    }

    /// One more timed fit, appended.
    fn repeat(
        &mut self,
        w: &Workload,
        inputs: &Inputs,
        rec: &Recorder,
        ledger: &mut Ledger,
    ) -> Result<(), String> {
        let next = FitPhase::start(w, inputs, rec, None, ledger)?;
        self.walls.extend(next.walls);
        self.iter_s.extend(next.iter_s);
        self.last = next.last;
        Ok(())
    }

    fn elapsed_s(&self) -> f64 {
        self.walls.iter().sum()
    }

    /// Whether another fit belongs in `budget_s`: a repetition is started
    /// while half of the previous one still fits, so overshoot and
    /// undershoot balance.
    fn wants_more(&self, budget_s: f64) -> bool {
        self.walls.len() < MIN_FITS
            || self.elapsed_s() + 0.5 * self.walls[self.walls.len() - 1] <= budget_s
    }
}

/// What one serve set-up cost, step by step (seconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeSetup {
    pub encode_s: f64,
    pub publish_s: f64,
    pub load_live_s: f64,
    pub index_build_s: f64,
    pub start_s: f64,
    pub warmup_s: f64,
    pub artifact_bytes: usize,
    pub store_bytes: u64,
}

impl ServeSetup {
    pub fn total_s(&self) -> f64 {
        self.encode_s
            + self.publish_s
            + self.load_live_s
            + self.index_build_s
            + self.start_s
            + self.warmup_s
    }
}

/// Totals of a group of closed-loop clients.
#[derive(Debug, Default)]
pub struct ClientTotals {
    pub issued: u64,
    pub verified: u64,
    pub mislabelled: u64,
    pub shed: u64,
    pub failed: u64,
    pub lat: LatencyRecorder,
}

impl ClientTotals {
    /// Add `other`'s counters (not its latency samples).
    pub fn absorb(&mut self, other: &ClientTotals) {
        self.issued += other.issued;
        self.verified += other.verified;
        self.mislabelled += other.mislabelled;
        self.shed += other.shed;
        self.failed += other.failed;
    }
}

/// `clients` closed-loop callers issue `predict` back to back for
/// `duration_s`; each checks every label against the precomputed serial
/// one. Returns the totals and the wall seconds of the group.
#[allow(clippy::too_many_arguments)]
pub fn run_clients(
    server: &ServerHandle,
    pool: &[Vec<f32>],
    expected: &[u32],
    clients: usize,
    seed: u64,
    duration_s: f64,
    rec: &Recorder,
    parent: Option<u32>,
) -> (ClientTotals, f64) {
    let handles: Vec<ClientHandle> = (0..clients).map(|_| server.client()).collect();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(duration_s);
    let per_client: Vec<ClientTotals> = std::thread::scope(|s| {
        let joins: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut rng = SplitMix(seed.wrapping_mul(1_000_003) ^ c as u64);
                    let mut t = ClientTotals {
                        lat: LatencyRecorder::with_capacity(1 << 16),
                        ..ClientTotals::default()
                    };
                    while Instant::now() < deadline {
                        let q = (rng.next_u64() % pool.len() as u64) as usize;
                        let sample = pool[q].clone();
                        let span = if rec.enabled() && t.issued.is_multiple_of(PREDICT_SAMPLE) {
                            rec.begin("swkm-serve/predict", parent)
                        } else {
                            None
                        };
                        let sent = Instant::now();
                        let reply = client.predict(sample);
                        let ns = sent.elapsed().as_nanos() as u64;
                        rec.end(span);
                        t.issued += 1;
                        match reply {
                            Predicted::Label(l) if l == expected[q] => {
                                t.verified += 1;
                                t.lat.record(ns);
                            }
                            Predicted::Label(_) => t.mislabelled += 1,
                            Predicted::Shed => t.shed += 1,
                            Predicted::Failed => t.failed += 1,
                        }
                    }
                    t
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut total = ClientTotals::default();
    for t in &per_client {
        total.absorb(t);
        total.lat.merge(&t.lat);
    }
    (total, wall)
}

/// A started server with everything needed to drive and check it.
pub struct ServeRig {
    pub server: ServerHandle,
    pub index: Index,
    pub setup: ServeSetup,
    /// Everything issued to this server so far, warm-up included.
    pub totals: ClientTotals,
}

/// The table a workload serves and the training facts frozen beside it.
pub fn served_artifact(w: &Workload, inputs: &Inputs, fit: &FitOut) -> Artifact {
    let (n, _) = w.data.shape();
    match w.served {
        Served::FitCentroids => Artifact::new(
            n as u64,
            fit.centroids.clone(),
            fit.iterations as u64,
            fit.objective,
            fit.converged,
        ),
        Served::DataRows => Artifact::new(0, inputs.data.clone(), 0, 0.0, false),
    }
}

/// Freeze → publish to a store in `dir` → load the live generation →
/// build the index → start the server → warm up.
#[allow(clippy::too_many_arguments)]
pub fn serve_setup(
    w: &Workload,
    artifact: &Artifact,
    inputs: &Inputs,
    expected: &[u32],
    dir: &Path,
    seed: u64,
    rec: &Recorder,
    parent: Option<u32>,
) -> Result<ServeRig, String> {
    let mut setup = ServeSetup::default();
    let (bytes, encode_s) = rec.time("swkm-serve/artifact_encode", parent, |_| artifact.encode());
    setup.encode_s = encode_s;
    setup.artifact_bytes = bytes.len();
    drop(bytes);
    let (store, publish_s) = rec.time("swkm-store/publish", parent, |_| {
        let mut store = Store::open(dir)?;
        store.publish(w.name, artifact)?;
        Ok::<_, String>(store)
    });
    let store = store?;
    setup.publish_s = publish_s;
    setup.store_bytes = store.total_bytes();
    let (loaded, load_live_s) =
        rec.time("swkm-store/load_live", parent, |_| store.load_live(w.name));
    let (_, loaded) = loaded?;
    setup.load_live_s = load_live_s;
    let (index, index_build_s) = rec.time("swkm-serve/index_build", parent, |_| {
        Index::build(&loaded, w.shards, w.serve_kernel)
    });
    setup.index_build_s = index_build_s;
    let (server, start_s) = rec.time("swkm-serve/server_start", parent, |_| {
        ServerHandle::start(index.clone())
    });
    setup.start_s = start_s;
    let ((totals, _), warmup_s) = rec.time("swkm-serve/warmup", parent, |s| {
        run_clients(
            &server,
            &inputs.pool,
            expected,
            CLIENTS,
            seed ^ 0xaaaa,
            WARMUP_S,
            rec,
            s,
        )
    });
    setup.warmup_s = warmup_s;
    Ok(ServeRig {
        server,
        index,
        setup,
        totals,
    })
}

/// Shut the server down and check conservation: every issued request is
/// accounted for by the clients, the server agrees, nothing is stranded.
pub fn serve_shutdown(
    server: ServerHandle,
    t: &ClientTotals,
    ledger: &mut Ledger,
) -> (ServeSnapshot, f64) {
    if t.issued != t.verified + t.mislabelled + t.shed + t.failed {
        ledger.fail(format!(
            "serve: issued {} != completed {} + shed {} + failed {}",
            t.issued,
            t.verified + t.mislabelled,
            t.shed,
            t.failed
        ));
    }
    let (completed, shed) = (t.verified + t.mislabelled, t.shed);
    let (snap, shutdown_s) = timed(|| server.shutdown());
    if snap.stranded != 0 {
        ledger.fail(format!(
            "serve: {} requests stranded at shutdown",
            snap.stranded
        ));
    }
    if snap.completed != completed || snap.rejected != shed {
        ledger.fail(format!(
            "serve: server counted {} completed / {} rejected, clients saw {completed} completed / {shed} shed",
            snap.completed, snap.rejected
        ));
    }
    (snap, shutdown_s)
}

/// One serve window's numbers.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: usize,
}

/// Two closed-loop callers against a running server for `window_s`.
pub fn serve_window(
    rig: &mut ServeRig,
    inputs: &Inputs,
    expected: &[u32],
    seed: u64,
    window_s: f64,
    rec: &Recorder,
    ledger: &mut Ledger,
) -> Result<WindowStats, String> {
    let (mut measured, wall) = run_clients(
        &rig.server,
        &inputs.pool,
        expected,
        CLIENTS,
        seed,
        window_s,
        rec,
        None,
    );
    let stats = WindowStats {
        qps: measured.verified as f64 / wall,
        p50_us: measured.lat.percentile(50.0)? as f64 / 1e3,
        p99_us: measured.lat.percentile(99.0)? as f64 / 1e3,
        samples: measured.lat.len(),
    };
    account_requests(ledger, &measured, "serve window");
    rig.totals.absorb(&measured);
    Ok(stats)
}

/// Serial labels of the pool against the served table, same kernel.
pub fn expected_labels(w: &Workload, artifact: &Artifact, pool: &[Vec<f32>]) -> Vec<u32> {
    let plan = Plan::fresh(w.serve_kernel, artifact.centroids());
    pool.iter()
        .map(|q| plan.assign_one(q, artifact.centroids()))
        .collect()
}

/// Fold a client group's outcome into the ledger.
pub fn account_requests(ledger: &mut Ledger, t: &ClientTotals, what: &str) {
    ledger.attempted += t.issued;
    let bad = t.mislabelled + t.shed + t.failed;
    if bad > 0 {
        ledger.failed += bad;
        ledger.notes.push(format!(
            "{what}: {} mislabelled, {} shed, {} failed of {} requests",
            t.mislabelled, t.shed, t.failed, t.issued
        ));
    }
}

/// Post-run verification of the fits against independent references.
/// `short` is an already-made fit at `verify_cap` (the traced run times
/// one); without it the fit is made here.
pub fn verify_fits(
    w: &Workload,
    inputs: &Inputs,
    fits: &FitPhase,
    short: Option<&FitOut>,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let cap = w.verify_cap;
    let made;
    let ours = match short {
        Some(out) => out,
        None if cap == w.cap => &fits.last,
        None => {
            let rec = Recorder::new(false, w.name);
            made = run_fit(w, &w.fit, inputs, cap, &rec, None, ledger)?.0;
            &made
        }
    };
    let serial = adapter::lloyd_serial(&inputs.data, inputs.init.clone(), w.fit.kernel, cap)?;
    let rel =
        (ours.objective - serial.objective).abs() / serial.objective.abs().max(f64::MIN_POSITIVE);
    if serial.iterations != cap || rel > SERIAL_TOL {
        ledger.fail(format!(
            "{}: objective {} vs serial Lloyd {} at cap {cap} (relative {rel:.2e}, serial ran {} iterations)",
            w.name, ours.objective, serial.objective, serial.iterations
        ));
    }
    // Lloyd never increases the objective, so the timed fits (checked only
    // against each other) must not sit above the serially-verified one.
    if fits.last.objective > ours.objective * (1.0 + 1e-6) {
        ledger.fail(format!(
            "{}: objective rose from {} (cap {cap}) to {} (cap {})",
            w.name, ours.objective, fits.last.objective, w.cap
        ));
    }
    if let Some(reference) = &w.bitwise_reference {
        let r = adapter::fit(reference, &inputs.data, inputs.init.clone(), w.cap)?;
        let same = r.iterations == fits.last.iterations
            && r.label_checksum == fits.last.label_checksum
            && r.objective.to_bits() == fits.last.objective.to_bits();
        if !same {
            ledger.fail(format!(
                "{}: not bitwise equal to the bounds-off/fused/tree fit \
                 (iterations {} vs {}, checksum {:#x} vs {:#x}, objective {} vs {})",
                w.name,
                fits.last.iterations,
                r.iterations,
                fits.last.label_checksum,
                r.label_checksum,
                fits.last.objective,
                r.objective
            ));
        }
    }
    Ok(())
}

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
}

pub struct Outcome {
    pub ledger: Ledger,
    pub metrics: Vec<Metric>,
    /// Summaries (min/quartiles/max, sample counts) behind the medians.
    pub detail: Json,
}

/// A per-process scratch directory under the benchmark's `out/`.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(out_dir: &Path) -> Result<Scratch, String> {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is listed in .gitignore.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn summary_json(s: &Summary) -> Json {
    Json::obj([
        ("n", Json::Num(s.n as f64)),
        ("min", Json::Num(s.min)),
        ("q1", Json::Num(s.q1)),
        ("median", Json::Num(s.median)),
        ("q3", Json::Num(s.q3)),
        ("max", Json::Num(s.max)),
    ])
}

fn nums(values: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(values.into_iter().map(Json::Num).collect())
}

/// The untraced run: every end-to-end metric of one workload.
pub fn run_end_to_end(w: &Workload, cfg: &RunConfig, out_dir: &Path) -> Result<Outcome, String> {
    let rec = Recorder::new(false, w.name);
    let scratch = Scratch::new(out_dir)?;
    let mut ledger = Ledger::default();
    let regime = Regime::settle(SETTLE_TIMEOUT_S);
    println!("host: {}", regime.settle);

    // Set-up, first half: what a user pays before the first fit.
    let mut pre_s = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let (made, secs) = make_inputs(w, cfg.seed, &rec, None);
        pre_s.push(secs);
        inputs = Some(made);
    }
    let inputs = inputs.expect("SETUP_REPS is positive");

    let fit_budget = w.fit_share * cfg.seconds;
    let mut fits = FitPhase::start(w, &inputs, &rec, None, &mut ledger)?;
    while fits.wants_more(fit_budget) {
        fits.repeat(w, &inputs, &rec, &mut ledger)?;
    }
    regime.serve();

    // Set-up, second half: freeze the model and bring a server up on it.
    let artifact = served_artifact(w, &inputs, &fits.last);
    let (expected, mut verify_s) = timed(|| expected_labels(w, &artifact, &inputs.pool));
    let mut post_s = Vec::with_capacity(SETUP_REPS);
    let mut rig: Option<ServeRig> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = rig.take() {
            serve_shutdown(old.server, &old.totals, &mut ledger);
        }
        let dir = scratch.sub(&format!("store-{rep}"));
        let made = serve_setup(w, &artifact, &inputs, &expected, &dir, cfg.seed, &rec, None)?;
        post_s.push(made.setup.total_s());
        account_requests(&mut ledger, &made.totals, "warm-up");
        rig = Some(made);
    }
    let mut rig = rig.expect("SETUP_REPS is positive");
    drop(artifact);

    let serve_budget = cfg.seconds - fit_budget;
    let n_windows = ((serve_budget / WINDOW_TARGET_S).round() as usize).max(3);
    let window_s = serve_budget / n_windows as f64;
    let mut windows: Vec<WindowStats> = Vec::with_capacity(n_windows);
    for i in 0..n_windows {
        let seed = cfg.seed.wrapping_add(i as u64 * 7919);
        windows.push(serve_window(
            &mut rig,
            &inputs,
            &expected,
            seed,
            window_s,
            &rec,
            &mut ledger,
        )?);
    }
    serve_shutdown(rig.server, &rig.totals, &mut ledger);
    regime.fit();
    // Before verification allocates: the peak is the program's, not the
    // checker's.
    let peak_rss_mb = host::peak_rss_mb();

    let (verified, fit_verify_s) = timed(|| verify_fits(w, &inputs, &fits, None, &mut ledger));
    verified?;
    verify_s += fit_verify_s;

    let setups: Vec<f64> = pre_s.iter().zip(&post_s).map(|(a, b)| a + b).collect();
    let qps: Vec<f64> = windows.iter().map(|x| x.qps).collect();
    let p50: Vec<f64> = windows.iter().map(|x| x.p50_us).collect();
    let p99: Vec<f64> = windows.iter().map(|x| x.p99_us).collect();
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("fit_s", median(&fits.walls), "s"),
        Metric::new("iter_s", median(&fits.iter_s), "s"),
        Metric::new("qps", median(&qps), "1/s"),
        Metric::new("lat_p50_us", median(&p50), "us"),
        Metric::new("lat_p99_us", median(&p99), "us"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    let detail = Json::obj([
        ("setup_s", summary_json(&Summary::of(&setups))),
        ("fit_s", summary_json(&Summary::of(&fits.walls))),
        ("iter_s", summary_json(&Summary::of(&fits.iter_s))),
        ("qps", summary_json(&Summary::of(&qps))),
        ("lat_p50_us", summary_json(&Summary::of(&p50))),
        ("lat_p99_us", summary_json(&Summary::of(&p99))),
        ("fit_walls_s", nums(fits.walls.iter().copied())),
        ("fit_iter_s", nums(fits.iter_s.iter().copied())),
        ("window_qps", nums(qps.iter().copied())),
        ("window_p50_us", nums(p50.iter().copied())),
        ("window_p99_us", nums(p99.iter().copied())),
        ("window_s", Json::Num(window_s)),
        (
            "latency_samples",
            Json::Num(windows.iter().map(|x| x.samples).sum::<usize>() as f64),
        ),
        ("fit_iterations", Json::Num(fits.last.iterations as f64)),
        ("bench.verify_s", Json::Num(verify_s)),
    ]);
    Ok(Outcome {
        ledger,
        metrics,
        detail,
    })
}
