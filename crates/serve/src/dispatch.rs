//! The event-driven serve core: one dispatcher thread multiplexes every
//! event source the pipeline has — client ingress, per-shard completions,
//! model-swap / shard-kill notifications and the periodic policy tick —
//! through a single [`crossbeam_channel::Select`] loop:
//!
//! ```text
//!             ┌────────────── Select ──────────────┐
//! ingress ───▶│                                    │──▶ shard 0 queue ─▶ worker 0 ─┐
//! completions▶│  dispatcher: batch, route, scale,  │──▶ shard 1 queue ─▶ worker 1  │ steal
//! control ───▶│  admission-control, drain-on-close │──▶   …(elastic)…  ─▶ …      ◀─┘
//! ticker ────▶│                                    │◀────── Completion ────────────┘
//!             └────────────────────────────────────┘
//! ```
//!
//! * **Micro-batching** happens in the dispatcher: the first job of a batch
//!   arrives through select, the rest are drained/lingered exactly like the
//!   old per-worker batching, then the batch is routed to the least-loaded
//!   *active* shard queue.
//! * **Elastic shards**: worker channels are provisioned for `max_shards`
//!   up front but threads spawn lazily. Saturation (every active queue
//!   full) activates a shard immediately; the tick-driven
//!   [`ElasticScaler`] handles the slow path up and the lazy path down.
//!   Deactivation only stops routing — the worker parks on its empty
//!   queue, costing nothing, and is joined at shutdown.
//! * **Work stealing**: every worker holds clones of its peers' receivers
//!   (the vendored channel is MPMC); before parking it sweeps them, so a
//!   skewed burst parked behind one shard is drained by idle peers
//!   (`serve_steal_total`).
//! * **Admission control**: workers fold completed-request latencies into
//!   a shared window histogram; each tick the dispatcher swaps the window
//!   out, feeds it to the [`AdmissionController`], and publishes the
//!   shed/admit decision through the lock-free [`AdmissionGate`] that
//!   clients consult before enqueueing ([`ServeError::SloShed`]).
//! * **Drain on close**: shutdown disconnects ingress + control; the
//!   dispatcher keeps serving until every client handle is gone, flushes
//!   parked batches, then closes the shard queues so workers drain and
//!   exit. The server audits every channel afterwards and reports
//!   leftovers in the `serve_stranded_requests` gauge (always 0 unless the
//!   drain contract is broken — the load-ramp harness asserts it).

use crate::admission::{
    AdmissionConfig, AdmissionController, ElasticConfig, ElasticScaler, ScaleDecision,
};
use crate::error::ServeError;
use crate::metrics::{ServeMetrics, StageHists};
use crate::pipeline::{Job, ModelSlot, PipelineConfig, Prediction, ServeTracing};
use crossbeam_channel::{
    bounded, tick, unbounded, Receiver, RecvTimeoutError, Select, Sender, TryRecvError,
    TrySendError,
};
use kmeans_core::{Matrix, Scalar};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sw_des::stats::Histogram;

/// Tuning knobs for the event-driven serve core. The legacy
/// [`PipelineConfig`] converts into a fixed-pool, no-SLO `DispatchConfig`,
/// so every pre-existing entry point runs on this core unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchConfig {
    /// Bounded admission-queue capacity; the backpressure limit.
    pub queue_capacity: usize,
    /// Largest micro-batch the dispatcher will form.
    pub max_batch: usize,
    /// How long the dispatcher waits for stragglers after the first
    /// request of a batch. Zero disables lingering.
    pub linger: Duration,
    /// Elastic shard policy (min/max active workers and scaling knobs).
    pub shards: ElasticConfig,
    /// Per-shard batch-queue capacity (batches, not requests).
    pub shard_queue: usize,
    /// Policy-tick period: admission windows, QPS gauge, scale decisions.
    pub tick: Duration,
    /// SLO-aware admission control; `None` keeps the legacy behaviour of
    /// shedding purely by queue occupancy.
    pub admission: Option<AdmissionConfig>,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig {
            queue_capacity: 1024,
            max_batch: 64,
            linger: Duration::from_micros(200),
            shards: ElasticConfig::fixed(2),
            shard_queue: 4,
            tick: Duration::from_millis(2),
            admission: None,
        }
    }
}

impl From<PipelineConfig> for DispatchConfig {
    fn from(c: PipelineConfig) -> Self {
        DispatchConfig {
            queue_capacity: c.queue_capacity,
            max_batch: c.max_batch,
            linger: c.linger,
            shards: ElasticConfig::fixed(c.workers),
            ..DispatchConfig::default()
        }
    }
}

/// Out-of-band notifications the server hands the select loop.
pub(crate) enum Control {
    /// A model generation was installed ([`crate::pipeline::Server::swap_model`]).
    SwapObserved { generation: u64 },
    /// A shard-liveness kill was injected.
    ShardKilled { shard: usize },
}

/// One executed batch, reported by the executing worker. `shard` is the
/// queue the batch was *routed* to (not necessarily the executor — a steal
/// still completes the victim's queue slot).
struct Completion {
    shard: usize,
    requests: u64,
}

/// A routed micro-batch.
pub(crate) struct ShardBatch<S> {
    jobs: Vec<Job<S>>,
    shard: usize,
}

/// Lock-free admission decision shared between the dispatcher (writer) and
/// every client (readers). `slo_p99_ns == 0` disables SLO admission.
pub(crate) struct AdmissionGate {
    slo_p99_ns: u64,
    shedding: AtomicBool,
    predicted_p99_ns: AtomicU64,
}

impl AdmissionGate {
    fn new(admission: Option<AdmissionConfig>) -> Self {
        AdmissionGate {
            slo_p99_ns: admission.map_or(0, |a| a.slo_p99_ns),
            shedding: AtomicBool::new(false),
            predicted_p99_ns: AtomicU64::new(0),
        }
    }

    fn publish(&self, shedding: bool, predicted_p99_ns: f64) {
        self.predicted_p99_ns
            .store(predicted_p99_ns as u64, Ordering::Relaxed);
        self.shedding.store(shedding, Ordering::Relaxed);
    }

    /// The client-side check: `Err(SloShed)` while the controller sheds.
    pub(crate) fn check(&self) -> Result<(), ServeError> {
        if self.slo_p99_ns != 0 && self.shedding.load(Ordering::Relaxed) {
            Err(ServeError::SloShed {
                predicted_p99_us: self.predicted_p99_ns.load(Ordering::Relaxed) / 1_000,
                slo_p99_us: self.slo_p99_ns / 1_000,
            })
        } else {
            Ok(())
        }
    }
}

/// Handles the server keeps to a running dispatch core.
pub(crate) struct DispatchCore<S> {
    pub(crate) ingress: Sender<Job<S>>,
    pub(crate) control: Sender<Control>,
    pub(crate) gate: Arc<AdmissionGate>,
    pub(crate) dispatcher: JoinHandle<()>,
    /// Worker threads, pushed by the dispatcher as shards activate. Joined
    /// by the server after the dispatcher (no more spawns can happen).
    pub(crate) worker_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Receiver clones of every queue in the select loop, kept solely for
    /// the drain-on-close audit.
    pub(crate) audit_ingress: Receiver<Job<S>>,
    pub(crate) audit_shards: Vec<Receiver<ShardBatch<S>>>,
}

impl<S> DispatchCore<S> {
    /// Disconnect the select loop's inbound channels, wait for the drain,
    /// join everything, then run the drain-on-close audit: count (and
    /// release) any request still parked in a queue after the dispatcher
    /// and workers have exited. Always 0 under the drain contract;
    /// dropping a stranded job disconnects its reply channel, so a waiting
    /// client still gets `ShuttingDown` rather than a hang. Returns the
    /// stranded-request count.
    pub(crate) fn shutdown(self) -> u64 {
        let DispatchCore {
            ingress,
            control,
            gate: _,
            dispatcher,
            worker_handles,
            audit_ingress,
            audit_shards,
        } = self;
        drop(control);
        drop(ingress);
        dispatcher.join().expect("serve dispatcher panicked");
        // The dispatcher has exited, so no further spawns: this joins
        // every worker that ever existed.
        for handle in worker_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            handle.join().expect("serve worker panicked");
        }
        let mut stranded = 0u64;
        while audit_ingress.try_recv().is_ok() {
            stranded += 1;
        }
        for rx in &audit_shards {
            while let Ok(batch) = rx.try_recv() {
                stranded += batch.jobs.len() as u64;
            }
        }
        stranded
    }
}

/// Spawn the dispatcher (and its lazily-activated workers).
pub(crate) fn start<S: Scalar>(
    slot: Arc<ModelSlot<S>>,
    metrics: Arc<ServeMetrics>,
    config: DispatchConfig,
    tracing: ServeTracing,
) -> DispatchCore<S> {
    assert!(config.queue_capacity > 0, "queue capacity must be positive");
    assert!(config.max_batch > 0, "max batch must be positive");
    assert!(config.shard_queue > 0, "shard queue must be positive");
    assert!(!config.tick.is_zero(), "tick period must be non-zero");
    let max_shards = config.shards.max_shards;
    let (ingress_tx, ingress_rx) = bounded::<Job<S>>(config.queue_capacity);
    let (ctl_tx, ctl_rx) = unbounded::<Control>();
    let (done_tx, done_rx) = unbounded::<Completion>();
    let (shard_txs, shard_rxs): (Vec<_>, Vec<_>) = (0..max_shards)
        .map(|_| bounded::<ShardBatch<S>>(config.shard_queue))
        .unzip();
    let gate = Arc::new(AdmissionGate::new(config.admission));
    let window = Arc::new(Mutex::new(Histogram::new()));
    let worker_handles = Arc::new(Mutex::new(Vec::new()));
    let audit_ingress = ingress_rx.clone();
    let audit_shards = shard_rxs.to_vec();
    let dispatcher = {
        let spawner = ShardSpawner {
            slot: Arc::clone(&slot),
            metrics: Arc::clone(&metrics),
            tracing: tracing.clone(),
            window: Arc::clone(&window),
            done_tx,
            rxs: shard_rxs,
            handles: Arc::clone(&worker_handles),
            spawned: vec![false; max_shards],
        };
        let state = Dispatcher {
            // The dispatcher's own spans land one track above the last
            // possible worker track.
            tracer: tracing
                .buffer
                .as_ref()
                .map(|buf| swkm_obs::Tracer::new(Arc::clone(buf), "serve", max_shards as u32)),
            config,
            slot,
            metrics,
            gate: Arc::clone(&gate),
            window,
            shard_txs,
            spawner,
            controller: config.admission.map(AdmissionController::new),
            scaler: ElasticScaler::new(config.shards),
            active: 0,
            inflight: vec![0; max_shards],
            pending: VecDeque::new(),
            completed_window: 0,
        };
        std::thread::Builder::new()
            .name("serve-dispatch".into())
            .spawn(move || dispatcher_loop(state, ingress_rx, done_rx, ctl_rx))
            .expect("spawn serve dispatcher")
    };
    DispatchCore {
        ingress: ingress_tx,
        control: ctl_tx,
        gate,
        dispatcher,
        worker_handles,
        audit_ingress,
        audit_shards,
    }
}

/// Everything the dispatcher owns besides the receivers it selects over
/// (those stay outside so `Select` can borrow them while these mutate).
struct Dispatcher<S: Scalar> {
    config: DispatchConfig,
    slot: Arc<ModelSlot<S>>,
    metrics: Arc<ServeMetrics>,
    gate: Arc<AdmissionGate>,
    window: Arc<Mutex<Histogram>>,
    shard_txs: Vec<Sender<ShardBatch<S>>>,
    spawner: ShardSpawner<S>,
    tracer: Option<swkm_obs::Tracer>,
    controller: Option<AdmissionController>,
    scaler: ElasticScaler,
    active: usize,
    /// Batches routed to each shard queue and not yet completed.
    inflight: Vec<u64>,
    /// Batches that could not be routed because every active queue was
    /// full at `max_shards`. Routing is gated on this being empty, so it
    /// holds at most one batch — backpressure stays structural (the
    /// ingress queue fills and clients shed).
    pending: VecDeque<ShardBatch<S>>,
    /// Requests completed since the last tick (drives `serve_qps_window`).
    completed_window: u64,
}

impl<S: Scalar> Dispatcher<S> {
    fn activate(&mut self) {
        if self.active >= self.config.shards.max_shards {
            return;
        }
        self.spawner.spawn(self.active);
        self.active += 1;
        self.scaler.note_pressure();
        self.metrics.record_scale_up(self.active as u64);
        if let Some(t) = &self.tracer {
            t.instant_full("scale_up", 0, "active", self.active as u64);
        }
    }

    fn deactivate(&mut self) {
        if self.active <= self.config.shards.min_shards {
            return;
        }
        self.active -= 1;
        self.metrics.record_scale_down(self.active as u64);
        if let Some(t) = &self.tracer {
            t.instant_full("scale_down", 0, "active", self.active as u64);
        }
    }

    /// Route to the least-loaded active shard. Returns the batch when
    /// every active queue is full.
    fn try_dispatch(&mut self, mut batch: ShardBatch<S>) -> Option<ShardBatch<S>> {
        let mut order: Vec<usize> = (0..self.active).collect();
        order.sort_by_key(|&i| self.shard_txs[i].len() as u64 + self.inflight[i]);
        for i in order {
            batch.shard = i;
            match self.shard_txs[i].try_send(batch) {
                Ok(()) => {
                    self.inflight[i] += 1;
                    return None;
                }
                Err(TrySendError::Full(b)) => batch = b,
                // A worker's receivers only close at shutdown; treat a
                // torn-down queue like a full one and try the next shard.
                Err(TrySendError::Disconnected(b)) => batch = b,
            }
        }
        Some(batch)
    }

    fn route(&mut self, batch: ShardBatch<S>) {
        let mut batch = batch;
        loop {
            match self.try_dispatch(batch) {
                None => return,
                Some(b) => {
                    if self.active < self.config.shards.max_shards {
                        // Saturation is the eager scale-up signal:
                        // activate a shard and retry (its queue is empty,
                        // so the retry cannot fail).
                        self.activate();
                        batch = b;
                    } else {
                        self.pending.push_back(b);
                        return;
                    }
                }
            }
        }
    }

    fn flush_pending(&mut self) {
        while let Some(b) = self.pending.pop_front() {
            if let Some(b) = self.try_dispatch(b) {
                self.pending.push_front(b);
                break;
            }
        }
    }

    fn complete(&mut self, c: Completion) {
        if let Some(n) = self.inflight.get_mut(c.shard) {
            *n = n.saturating_sub(1);
        }
        self.completed_window += c.requests;
    }

    /// Batches routed or queued anywhere downstream of the dispatcher.
    fn busy_batches(&self) -> usize {
        let queued: usize = self.shard_txs.iter().map(Sender::len).sum();
        let inflight: u64 = self.inflight.iter().sum();
        queued + inflight as usize + self.pending.len()
    }

    fn on_tick(&mut self, ingress_depth: usize) {
        if let Some(controller) = self.controller.as_mut() {
            let w = {
                let mut guard = self.window.lock().unwrap_or_else(|e| e.into_inner());
                std::mem::take(&mut *guard)
            };
            let shedding = controller.observe_window(&w);
            self.gate.publish(shedding, controller.predicted_p99_ns());
            self.metrics
                .record_admission_state(controller.predicted_p99_ns(), shedding);
        }
        let qps = self.completed_window as f64 / self.config.tick.as_secs_f64().max(1e-9);
        self.completed_window = 0;
        self.metrics.record_window_qps(qps);
        match self.scaler.tick(
            self.active,
            ingress_depth,
            self.config.queue_capacity,
            self.busy_batches(),
        ) {
            ScaleDecision::Up => self.activate(),
            ScaleDecision::Down => self.deactivate(),
            ScaleDecision::Hold => {}
        }
    }

    /// Answer a batch that cannot reach any worker with a typed error
    /// instead of dropping it (conservation: these count as `failed`).
    fn fail_batch(&self, batch: ShardBatch<S>) {
        self.metrics.record_failed(batch.jobs.len() as u64);
        for job in &batch.jobs {
            let _ = job.reply.send(Err(ServeError::ShuttingDown));
        }
    }
}

/// First job in hand, drain whatever is queued, then linger for
/// stragglers — the same adaptive micro-batching the workers used to do,
/// now centralised in the dispatcher.
fn form_batch<S>(
    first: Job<S>,
    ingress: &Receiver<Job<S>>,
    config: &DispatchConfig,
) -> Vec<Job<S>> {
    let mut jobs = vec![first];
    while jobs.len() < config.max_batch {
        match ingress.try_recv() {
            Ok(job) => jobs.push(job),
            Err(_) => break,
        }
    }
    if !config.linger.is_zero() {
        let deadline = Instant::now() + config.linger;
        while jobs.len() < config.max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match ingress.recv_timeout(deadline - now) {
                Ok(job) => jobs.push(job),
                Err(_) => break,
            }
        }
    }
    jobs
}

fn dispatcher_loop<S: Scalar>(
    mut d: Dispatcher<S>,
    ingress: Receiver<Job<S>>,
    done: Receiver<Completion>,
    ctl: Receiver<Control>,
) {
    // Spawn the baseline pool directly — it is not a scale-up event.
    for shard in 0..d.config.shards.min_shards {
        d.spawner.spawn(shard);
    }
    d.active = d.config.shards.min_shards;
    d.metrics.record_shards_active(d.active as u64);
    let ticker = tick(d.config.tick);
    let mut sel = Select::new();
    let op_ingress = sel.recv(&ingress);
    let op_done = sel.recv(&done);
    let op_ctl = sel.recv(&ctl);
    let op_tick = sel.recv(&ticker);
    loop {
        if !d.pending.is_empty() {
            // Backpressured: every active queue is full at max_shards. The
            // only event that can unblock routing is a completion; park on
            // it (bounded by the tick so policy work still happens) and do
            // NOT pull new ingress work — the admission queue must fill so
            // clients shed.
            match done.recv_timeout(d.config.tick) {
                Ok(c) => {
                    d.complete(c);
                    d.flush_pending();
                }
                Err(RecvTimeoutError::Timeout) => {
                    let _ = ticker.try_recv();
                    d.on_tick(ingress.len());
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // No worker can ever answer again: fail what's parked.
                    while let Some(b) = d.pending.pop_front() {
                        d.fail_batch(b);
                    }
                }
            }
            continue;
        }
        let op = sel.ready();
        if op == op_ingress {
            match ingress.try_recv() {
                Ok(first) => {
                    let dispatch_start = d.tracer.as_ref().map_or(0, swkm_obs::Tracer::begin);
                    let jobs = form_batch(first, &ingress, &d.config);
                    let trace_id = jobs.iter().map(|j| j.trace_id).find(|&id| id != 0);
                    let len = jobs.len() as u64;
                    d.route(ShardBatch { jobs, shard: 0 });
                    if let (Some(t), Some(id)) = (&d.tracer, trace_id) {
                        t.complete_full("dispatch", dispatch_start, id, "batch", len);
                    }
                }
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => break,
            }
        } else if op == op_done {
            if let Ok(c) = done.try_recv() {
                d.complete(c);
                d.flush_pending();
            }
        } else if op == op_ctl {
            match ctl.try_recv() {
                Ok(Control::SwapObserved { generation }) => {
                    if let Some(t) = &d.tracer {
                        t.instant_full("model_swap_observed", 0, "generation", generation);
                    }
                }
                Ok(Control::ShardKilled { shard }) => {
                    d.metrics
                        .record_alive_index_shards(d.slot.current().alive_shards() as u64);
                    if let Some(t) = &d.tracer {
                        t.instant_full("shard_kill_observed", 0, "shard", shard as u64);
                    }
                }
                Err(TryRecvError::Empty) => {}
                // The control sender lives in the server handle; its
                // disconnect means shutdown has begun.
                Err(TryRecvError::Disconnected) => break,
            }
        } else if op == op_tick {
            let _ = ticker.try_recv();
            d.on_tick(ingress.len());
        }
    }
    drain(&mut d, &ingress, &done);
    // Closing the shard queues releases the workers: each drains its own
    // queue (and any steals), then exits on the disconnect.
    drop(d.shard_txs);
}

/// Shutdown drain: keep serving stragglers until every client handle is
/// gone (the ingress disconnects), then flush anything parked.
fn drain<S: Scalar>(
    d: &mut Dispatcher<S>,
    ingress: &Receiver<Job<S>>,
    done: &Receiver<Completion>,
) {
    loop {
        while let Ok(c) = done.try_recv() {
            d.complete(c);
        }
        d.flush_pending();
        if d.pending.is_empty() {
            match ingress.recv_timeout(Duration::from_millis(1)) {
                Ok(first) => {
                    let jobs = form_batch(first, ingress, &d.config);
                    d.route(ShardBatch { jobs, shard: 0 });
                }
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {}
            }
        } else {
            match done.recv_timeout(Duration::from_millis(10)) {
                Ok(c) => d.complete(c),
                Err(RecvTimeoutError::Timeout) => {
                    // A wedged pool at max_shards just waits; below max we
                    // can add capacity to keep the drain moving.
                    d.activate();
                }
                Err(RecvTimeoutError::Disconnected) => {
                    while let Some(b) = d.pending.pop_front() {
                        d.fail_batch(b);
                    }
                }
            }
        }
    }
    // Ingress fully drained; flush the last parked batches.
    while !d.pending.is_empty() {
        d.flush_pending();
        if d.pending.is_empty() {
            break;
        }
        match done.recv_timeout(Duration::from_millis(50)) {
            Ok(c) => d.complete(c),
            Err(RecvTimeoutError::Timeout) => d.activate(),
            Err(RecvTimeoutError::Disconnected) => {
                while let Some(b) = d.pending.pop_front() {
                    d.fail_batch(b);
                }
            }
        }
    }
}

/// Lazily spawns one worker thread per activated shard.
struct ShardSpawner<S: Scalar> {
    slot: Arc<ModelSlot<S>>,
    metrics: Arc<ServeMetrics>,
    tracing: ServeTracing,
    window: Arc<Mutex<Histogram>>,
    done_tx: Sender<Completion>,
    rxs: Vec<Receiver<ShardBatch<S>>>,
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    spawned: Vec<bool>,
}

impl<S: Scalar> ShardSpawner<S> {
    fn spawn(&mut self, shard: usize) {
        if self.spawned[shard] {
            return; // re-activation after a scale-down: thread still parked
        }
        self.spawned[shard] = true;
        let own = self.rxs[shard].clone();
        let steals: Vec<(usize, Receiver<ShardBatch<S>>)> = self
            .rxs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != shard)
            .map(|(i, rx)| (i, rx.clone()))
            .collect();
        let slot = Arc::clone(&self.slot);
        let metrics = Arc::clone(&self.metrics);
        let tracing = self.tracing.clone();
        let window = Arc::clone(&self.window);
        let done = self.done_tx.clone();
        let handle = std::thread::Builder::new()
            .name(format!("serve-shard-{shard}"))
            .spawn(move || worker_loop(shard, own, steals, slot, metrics, tracing, window, done))
            .expect("spawn serve worker");
        self.handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
    }
}

/// How long an idle worker parks before re-sweeping its peers' queues for
/// stealable batches.
const STEAL_SWEEP: Duration = Duration::from_micros(500);

#[allow(clippy::too_many_arguments)]
fn worker_loop<S: Scalar>(
    shard: usize,
    own: Receiver<ShardBatch<S>>,
    steals: Vec<(usize, Receiver<ShardBatch<S>>)>,
    slot: Arc<ModelSlot<S>>,
    metrics: Arc<ServeMetrics>,
    tracing: ServeTracing,
    window: Arc<Mutex<Histogram>>,
    done: Sender<Completion>,
) {
    // One tracer per worker: this shard's spans land on track `shard`.
    let tracer = tracing
        .buffer
        .as_ref()
        .map(|buf| swkm_obs::Tracer::new(Arc::clone(buf), "serve", shard as u32));
    // Stagger the steal sweep start per worker so idle workers don't all
    // hammer the same victim.
    let mut rotation = shard;
    'serve: loop {
        match own.try_recv() {
            Ok(batch) => {
                execute_batch(
                    batch,
                    &slot,
                    &metrics,
                    &tracing,
                    tracer.as_ref(),
                    &window,
                    &done,
                );
                continue 'serve;
            }
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {}
        }
        if !steals.is_empty() {
            rotation = rotation.wrapping_add(1);
            for off in 0..steals.len() {
                let (victim, rx) = &steals[(rotation + off) % steals.len()];
                // Errors here are fine: an empty or shutting-down victim
                // queue simply isn't stealable.
                if let Ok(batch) = rx.try_recv() {
                    metrics.record_steal();
                    if let Some(t) = &tracer {
                        t.instant_full("steal", 0, "victim", *victim as u64);
                    }
                    execute_batch(
                        batch,
                        &slot,
                        &metrics,
                        &tracing,
                        tracer.as_ref(),
                        &window,
                        &done,
                    );
                    continue 'serve;
                }
            }
        }
        // Nothing anywhere: park briefly on the own queue, then re-sweep.
        // Disconnect is the clean exit — scale-down never closes the
        // channel, only shutdown does, and only after the drain.
        match own.recv_timeout(STEAL_SWEEP) {
            Ok(batch) => execute_batch(
                batch,
                &slot,
                &metrics,
                &tracing,
                tracer.as_ref(),
                &window,
                &done,
            ),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Execute one micro-batch: pin the model generation, scan, reply, record.
/// This is the old per-worker pipeline body, unchanged in observable
/// behaviour (same spans, same failover/flight triggers, same counters).
fn execute_batch<S: Scalar>(
    batch: ShardBatch<S>,
    slot: &ModelSlot<S>,
    metrics: &ServeMetrics,
    tracing: &ServeTracing,
    tracer: Option<&swkm_obs::Tracer>,
    window: &Mutex<Histogram>,
    done: &Sender<Completion>,
) {
    let ShardBatch { jobs: batch, shard } = batch;
    // Pin one generation for the whole batch: a concurrent swap_model
    // must never hand half a batch to a different centroid set.
    let index = slot.current();
    let d = index.dim();
    let started = Instant::now();
    let started_ns = tracer.map_or(0, swkm_obs::Tracer::begin);
    let mut local = StageHists::default();
    local.batch_size.record(batch.len() as u64);
    for job in &batch {
        local
            .queue_wait_ns
            .record(started.duration_since(job.enqueued).as_nanos() as u64);
    }
    if let Some(t) = tracer {
        // Each sampled request's wait from admission to execution start,
        // on the executing worker's track.
        for job in batch.iter().filter(|j| j.trace_id != 0) {
            t.complete_at(
                "queue_wait",
                job.enqueued_ns,
                started_ns.saturating_sub(job.enqueued_ns),
                job.trace_id,
                "batch",
                batch.len() as u64,
            );
        }
    }
    let mut data = Vec::with_capacity(batch.len() * d);
    for job in &batch {
        data.extend_from_slice(&job.sample);
    }
    let samples = Matrix::from_vec(batch.len(), d, data);
    let exec_start = Instant::now();
    let exec_start_ns = tracer.map_or(0, swkm_obs::Tracer::begin);
    // Per-shard assign spans carry the batch's first sampled id, so a
    // traced request's pipeline shows its shard fan-out.
    let shard_trace_id = batch.iter().map(|j| j.trace_id).find(|&id| id != 0);
    let outcome = index.try_assign_batch_traced(
        &samples,
        match (tracer, shard_trace_id) {
            (Some(t), Some(id)) => Some((t, id)),
            _ => None,
        },
    );
    local
        .execute_ns
        .record(exec_start.elapsed().as_nanos() as u64);
    if let (Some(t), Some(id)) = (tracer, shard_trace_id) {
        t.complete_full("execute", exec_start_ns, id, "batch", batch.len() as u64);
    }
    let finished = Instant::now();
    let finished_ns = tracer.map_or(0, swkm_obs::Tracer::begin);
    match outcome {
        Ok(outcome) => {
            let degraded = outcome.skipped_shards > 0;
            if degraded {
                // One failover event per dead shard the batch was routed
                // around.
                metrics.record_failovers(outcome.skipped_shards as u64);
                if let Some(t) = tracer {
                    t.instant_full(
                        "shard_failover",
                        shard_trace_id.unwrap_or(0),
                        "skipped",
                        outcome.skipped_shards as u64,
                    );
                }
                if let Some(flight) = &tracing.flight {
                    flight.trigger("shard_failover");
                }
            }
            for (job, &label) in batch.iter().zip(&outcome.labels) {
                let total_ns = finished.duration_since(job.enqueued).as_nanos() as u64;
                local.total_ns.record(total_ns);
                if job.trace_id != 0 {
                    if let Some(t) = tracer {
                        t.complete_at(
                            "request",
                            job.enqueued_ns,
                            finished_ns.saturating_sub(job.enqueued_ns),
                            job.trace_id,
                            "label",
                            label as u64,
                        );
                    }
                    metrics.record_exemplar(total_ns, job.trace_id);
                }
                // A client that gave up is not an error; drop its reply.
                let _ = job.reply.send(Ok(Prediction {
                    label,
                    degraded,
                    trace_id: job.trace_id,
                }));
            }
            metrics.record_completed(batch.len() as u64);
        }
        Err(e) => {
            // Nothing survived to answer — fail every request in the
            // batch with the typed error instead of dropping it.
            metrics.record_failed(batch.len() as u64);
            if let Some(t) = tracer {
                t.instant_full(
                    "batch_failed",
                    shard_trace_id.unwrap_or(0),
                    "requests",
                    batch.len() as u64,
                );
            }
            if matches!(e, ServeError::AllShardsDown { .. }) {
                if let Some(flight) = &tracing.flight {
                    flight.trigger("all_shards_down");
                }
            }
            for job in &batch {
                let _ = job.reply.send(Err(e.clone()));
            }
        }
    }
    // Completed-request latencies feed the admission controller's window.
    if local.total_ns.count() > 0 {
        window
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .merge(&local.total_ns);
    }
    metrics.merge_hists(&local);
    // The dispatcher exiting first (its receiver gone) is a clean
    // shutdown race, not an error — the reply above already went out.
    let _ = done.send(Completion {
        shard,
        requests: batch.len() as u64,
    });
}
