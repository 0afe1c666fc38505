//! Serving metrics on the workspace-wide observability registry: throughput
//! counters plus per-stage log₂ latency histograms, stored as
//! `serve_*`-prefixed metrics in a [`swkm_obs::MetricsRegistry`] so serving
//! and training share one vocabulary and one set of exporters. Workers
//! record into thread-local histograms per batch and fold them in with
//! `Histogram::merge` under a single short lock, so the hot path never
//! contends per-request.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use sw_des::stats::Histogram;
use swkm_obs::MetricsRegistry;

/// How many slow-request exemplars [`ServeMetrics`] retains.
pub const EXEMPLAR_K: usize = 4;

/// One histogram per pipeline stage plus the batch-size distribution.
#[derive(Debug, Clone, Default)]
pub struct StageHists {
    /// Nanoseconds from admission to batch formation.
    pub queue_wait_ns: Histogram,
    /// Nanoseconds spent in the sharded index scan, per batch.
    pub execute_ns: Histogram,
    /// Nanoseconds from admission to reply, per request.
    pub total_ns: Histogram,
    /// Requests per formed micro-batch.
    pub batch_size: Histogram,
}

impl StageHists {
    pub fn merge(&mut self, other: &StageHists) {
        self.queue_wait_ns.merge(&other.queue_wait_ns);
        self.execute_ns.merge(&other.execute_ns);
        self.total_ns.merge(&other.total_ns);
        self.batch_size.merge(&other.batch_size);
    }
}

/// Shared, thread-safe serving metrics, backed by a
/// [`MetricsRegistry`]. The registry names are `serve_accepted`,
/// `serve_rejected`, `serve_completed` (counters), `serve_queue_depth`
/// (gauge, refreshed at snapshot time) and `serve_queue_wait_ns`,
/// `serve_execute_ns`, `serve_total_ns`, `serve_batch_size` (histograms).
#[derive(Debug)]
pub struct ServeMetrics {
    registry: Arc<MetricsRegistry>,
    started: Instant,
    /// Top-[`EXEMPLAR_K`] slowest *traced* requests as `(total_ns,
    /// trace_id)`, descending. Kept beside the registry — never inside it —
    /// so attaching exemplars cannot perturb the byte-stable JSON export;
    /// they render as extra Prometheus lines via
    /// [`swkm_obs::export::prom_exemplars`].
    exemplars: Mutex<Vec<(u64, u64)>>,
}

impl ServeMetrics {
    pub fn new() -> Self {
        Self::with_registry(MetricsRegistry::shared())
    }

    /// Record into an existing registry — this is how a process that both
    /// trains and serves keeps one metrics namespace and one export.
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        // Pre-register the fault and swap counters at zero so exports
        // always carry them — tests and dashboards can assert "no
        // failovers" / "no swaps" explicitly rather than inferring it from
        // an absent key.
        registry.counter_add("serve_failed", 0);
        registry.counter_add("shard_failovers", 0);
        registry.counter_add("serve_model_swaps", 0);
        // Event-core counters/gauges, pre-registered for the same reason:
        // "no sheds / no steals / no scaling / nothing stranded" must be
        // assertable from the export, not inferred from absent keys.
        registry.counter_add("serve_rejected", 0);
        registry.counter_add("serve_admission_shed", 0);
        registry.counter_add("serve_steal_total", 0);
        registry.counter_add("serve_scale_up_total", 0);
        registry.counter_add("serve_scale_down_total", 0);
        registry.gauge_set("serve_stranded_requests", 0.0);
        ServeMetrics {
            registry,
            started: Instant::now(),
            exemplars: Mutex::new(Vec::new()),
        }
    }

    /// The backing registry, for exporting alongside training metrics.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    pub fn record_accepted(&self) {
        self.registry.counter_inc("serve_accepted");
    }

    pub fn record_rejected(&self) {
        self.registry.counter_inc("serve_rejected");
    }

    pub fn record_completed(&self, n: u64) {
        self.registry.counter_add("serve_completed", n);
    }

    /// Requests that failed with a typed error after admission (e.g. every
    /// shard down) — replied to, never silently dropped.
    pub fn record_failed(&self, n: u64) {
        self.registry.counter_add("serve_failed", n);
    }

    /// Batches re-dispatched around dead shards, counted per dead shard
    /// per batch.
    pub fn record_failovers(&self, n: u64) {
        self.registry.counter_add("shard_failovers", n);
    }

    /// A model hot-swap: bump the swap counter, mirror the new generation
    /// into the `serve_model_generation` gauge and record how long the
    /// installation (the write-locked window) took.
    pub fn record_swap(&self, generation: u64, install_ns: u64) {
        self.registry.counter_inc("serve_model_swaps");
        self.registry
            .gauge_set("serve_model_generation", generation as f64);
        self.registry.record("serve_swap_ns", install_ns);
    }

    /// A request shed by SLO-aware admission control
    /// ([`crate::error::ServeError::SloShed`]). Counted under both
    /// `serve_admission_shed` (the policy's own meter) and
    /// `serve_rejected` (the total-shed meter), so the conservation
    /// invariant `issued == accepted + rejected` holds with or without an
    /// SLO configured.
    pub fn record_admission_shed(&self) {
        self.registry.counter_inc("serve_admission_shed");
        self.registry.counter_inc("serve_rejected");
    }

    /// A batch executed by a worker other than the one it was routed to.
    pub fn record_steal(&self) {
        self.registry.counter_inc("serve_steal_total");
    }

    /// Mirror the active shard count and maintain its peak/low watermark
    /// gauges — the export is final-value-only, so "did it scale up *and*
    /// back down" must be separate gauges, not a time series.
    pub fn record_shards_active(&self, active: u64) {
        let active = active as f64;
        self.registry.gauge_set("serve_shards_active", active);
        let peak = self.registry.gauge("serve_shards_active_peak");
        if peak.is_none_or(|p| active > p) {
            self.registry.gauge_set("serve_shards_active_peak", active);
        }
        let low = self.registry.gauge("serve_shards_active_low");
        if low.is_none_or(|l| active < l) {
            self.registry.gauge_set("serve_shards_active_low", active);
        }
    }

    /// An elastic scale-up to `active` shards.
    pub fn record_scale_up(&self, active: u64) {
        self.registry.counter_inc("serve_scale_up_total");
        self.record_shards_active(active);
    }

    /// An elastic scale-down to `active` shards.
    pub fn record_scale_down(&self, active: u64) {
        self.registry.counter_inc("serve_scale_down_total");
        self.record_shards_active(active);
    }

    /// The admission controller's published state, refreshed every tick.
    pub fn record_admission_state(&self, predicted_p99_ns: f64, shedding: bool) {
        self.registry
            .gauge_set("serve_predicted_p99_ns", predicted_p99_ns);
        self.registry
            .gauge_set("serve_admission_shedding", if shedding { 1.0 } else { 0.0 });
    }

    /// Windowed throughput (completed requests per second over one tick).
    pub fn record_window_qps(&self, qps: f64) {
        self.registry.gauge_set("serve_qps_window", qps);
    }

    /// Index shards still alive after an injected kill.
    pub fn record_alive_index_shards(&self, alive: u64) {
        self.registry
            .gauge_set("serve_index_alive_shards", alive as f64);
    }

    /// Requests found parked in a queue by the drain-on-close audit.
    /// Anything other than 0 is a drained-shutdown contract violation.
    pub fn record_stranded(&self, stranded: u64) {
        self.registry
            .gauge_set("serve_stranded_requests", stranded as f64);
    }

    /// Offer a traced request as a slow-request exemplar: kept iff it is
    /// among the [`EXEMPLAR_K`] slowest seen so far. Untraced requests
    /// (`trace_id == 0`) are ignored — an exemplar nobody can look up in
    /// the trace is noise.
    pub fn record_exemplar(&self, total_ns: u64, trace_id: u64) {
        if trace_id == 0 {
            return;
        }
        let mut ex = self.exemplars.lock().unwrap_or_else(|e| e.into_inner());
        ex.push((total_ns, trace_id));
        ex.sort_unstable_by(|a, b| b.cmp(a));
        ex.truncate(EXEMPLAR_K);
    }

    /// The retained `(total_ns, trace_id)` exemplars, slowest first. Feed
    /// them to [`swkm_obs::export::prom_exemplars`] to attach
    /// `serve_latency_exemplar{trace_id="..."}` lines to a Prometheus
    /// export.
    pub fn exemplars(&self) -> Vec<(u64, u64)> {
        self.exemplars
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Fold a worker's per-batch histograms into the shared set.
    pub fn merge_hists(&self, local: &StageHists) {
        self.registry
            .merge_histogram("serve_queue_wait_ns", &local.queue_wait_ns);
        self.registry
            .merge_histogram("serve_execute_ns", &local.execute_ns);
        self.registry
            .merge_histogram("serve_total_ns", &local.total_ns);
        self.registry
            .merge_histogram("serve_batch_size", &local.batch_size);
    }

    /// Point-in-time view. `queue_depth` is sampled by the caller (it
    /// lives in the channel, not here) and mirrored into the
    /// `serve_queue_depth` gauge.
    pub fn snapshot(&self, queue_depth: usize) -> Snapshot {
        self.registry
            .gauge_set("serve_queue_depth", queue_depth as f64);
        let quantile = |name: &str, q: f64| {
            self.registry
                .histogram(name)
                .map_or(0, |h| h.quantile_upper_bound(q))
        };
        let completed = self.registry.counter("serve_completed");
        let elapsed = self.started.elapsed();
        Snapshot {
            accepted: self.registry.counter("serve_accepted"),
            rejected: self.registry.counter("serve_rejected"),
            completed,
            failed: self.registry.counter("serve_failed"),
            shard_failovers: self.registry.counter("shard_failovers"),
            model_swaps: self.registry.counter("serve_model_swaps"),
            admission_shed: self.registry.counter("serve_admission_shed"),
            steals: self.registry.counter("serve_steal_total"),
            shards_active: self.registry.gauge("serve_shards_active").unwrap_or(0.0) as u64,
            stranded: self
                .registry
                .gauge("serve_stranded_requests")
                .unwrap_or(0.0) as u64,
            queue_depth,
            elapsed,
            qps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
            queue_wait_p50_ns: quantile("serve_queue_wait_ns", 0.5),
            queue_wait_p99_ns: quantile("serve_queue_wait_ns", 0.99),
            execute_p50_ns: quantile("serve_execute_ns", 0.5),
            execute_p99_ns: quantile("serve_execute_ns", 0.99),
            total_p50_ns: quantile("serve_total_ns", 0.5),
            total_p99_ns: quantile("serve_total_ns", 0.99),
            batch_p50: quantile("serve_batch_size", 0.5),
            batches: self
                .registry
                .histogram("serve_batch_size")
                .map_or(0, |h| h.count()),
        }
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// A consistent view of the serving counters and latency quantiles.
/// Latency quantiles are upper bounds of the winning log₂ bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub accepted: u64,
    pub rejected: u64,
    pub completed: u64,
    /// Admitted requests that failed with a typed error (all shards down).
    pub failed: u64,
    /// Batches re-dispatched around dead shards (per dead shard per batch).
    pub shard_failovers: u64,
    /// Model generations hot-swapped in while serving.
    pub model_swaps: u64,
    /// Requests shed by SLO-aware admission control (a subset of
    /// `rejected`).
    pub admission_shed: u64,
    /// Micro-batches executed by a worker other than the one they were
    /// routed to.
    pub steals: u64,
    /// Active shard count at snapshot time (0 until the dispatcher's
    /// baseline pool reports in).
    pub shards_active: u64,
    /// Requests found stranded by the drain-on-close audit (0 unless the
    /// graceful-shutdown contract was violated).
    pub stranded: u64,
    pub queue_depth: usize,
    pub elapsed: Duration,
    /// Completed requests per second since the server started. Warm-up
    /// dilutes this; prefer [`Snapshot::qps_since`] for steady-state rates.
    pub qps: f64,
    pub queue_wait_p50_ns: u64,
    pub queue_wait_p99_ns: u64,
    pub execute_p50_ns: u64,
    pub execute_p99_ns: u64,
    pub total_p50_ns: u64,
    pub total_p99_ns: u64,
    /// Median micro-batch size.
    pub batch_p50: u64,
    /// Micro-batches formed.
    pub batches: u64,
}

impl Snapshot {
    /// Windowed throughput: completed requests per second between `prev`
    /// and this snapshot (taken later from the same server). Unlike
    /// [`Snapshot::qps`], this is not diluted by anything that happened
    /// before `prev` — it is what periodic reporting should print.
    pub fn qps_since(&self, prev: &Snapshot) -> f64 {
        let dn = self.completed.saturating_sub(prev.completed);
        let dt = self.elapsed.saturating_sub(prev.elapsed).as_secs_f64();
        dn as f64 / dt.max(1e-9)
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl std::fmt::Display for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests: {} accepted, {} shed, {} completed, {} failed ({:.0} req/s, queue depth {})",
            self.accepted, self.rejected, self.completed, self.failed, self.qps, self.queue_depth
        )?;
        if self.shard_failovers > 0 {
            writeln!(
                f,
                "failover: {} batch×shard re-dispatches",
                self.shard_failovers
            )?;
        }
        if self.model_swaps > 0 {
            writeln!(
                f,
                "hot-swap: {} model generation(s) installed",
                self.model_swaps
            )?;
        }
        if self.shards_active > 0 || self.steals > 0 || self.admission_shed > 0 {
            writeln!(
                f,
                "dispatch: {} shard(s) active, {} batch(es) stolen, {} SLO-shed, {} stranded",
                self.shards_active, self.steals, self.admission_shed, self.stranded
            )?;
        }
        writeln!(
            f,
            "latency:  queue-wait p50 {} p99 {} | execute p50 {} p99 {} | total p50 {} p99 {}",
            fmt_ns(self.queue_wait_p50_ns),
            fmt_ns(self.queue_wait_p99_ns),
            fmt_ns(self.execute_p50_ns),
            fmt_ns(self.execute_p99_ns),
            fmt_ns(self.total_p50_ns),
            fmt_ns(self.total_p99_ns)
        )?;
        write!(
            f,
            "batching: {} micro-batches, median size {}",
            self.batches, self.batch_p50
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ServeMetrics::new();
        m.record_accepted();
        m.record_accepted();
        m.record_rejected();
        m.record_completed(2);
        let snap = m.snapshot(3);
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.queue_depth, 3);
    }

    #[test]
    fn merged_hists_feed_quantiles() {
        let m = ServeMetrics::new();
        let mut local = StageHists::default();
        for _ in 0..100 {
            local.total_ns.record(1000);
        }
        local.total_ns.record(1 << 30);
        local.batch_size.record(8);
        m.merge_hists(&local);
        let snap = m.snapshot(0);
        assert!(snap.total_p50_ns >= 1000 && snap.total_p50_ns < 2048);
        assert!(snap.total_p99_ns >= 1000);
        assert_eq!(snap.batches, 1);
    }

    #[test]
    fn metrics_land_in_the_shared_registry() {
        let reg = MetricsRegistry::shared();
        let m = ServeMetrics::with_registry(Arc::clone(&reg));
        m.record_accepted();
        m.record_completed(1);
        let mut local = StageHists::default();
        local.execute_ns.record(500);
        m.merge_hists(&local);
        m.snapshot(4);
        // The same vocabulary is visible through the registry's exporters.
        assert_eq!(reg.counter("serve_accepted"), 1);
        assert_eq!(reg.counter("serve_completed"), 1);
        assert_eq!(reg.gauge("serve_queue_depth"), Some(4.0));
        assert_eq!(reg.histogram("serve_execute_ns").unwrap().count(), 1);
        let json = swkm_obs::export::to_json(&reg);
        assert!(json.contains("\"serve_accepted\":1"));
    }

    #[test]
    fn exemplars_never_perturb_the_json_export() {
        // The byte-stable JSON re-export contract must survive exemplars:
        // they live beside the registry and only ever render as extra
        // Prometheus lines.
        let reg = MetricsRegistry::shared();
        let m = ServeMetrics::with_registry(Arc::clone(&reg));
        let mut local = StageHists::default();
        local.total_ns.record(1_000_000);
        m.merge_hists(&local);
        m.snapshot(0);
        let before = swkm_obs::export::to_json(&reg);
        for i in 0..10u64 {
            m.record_exemplar(1_000_000 + i * 7, 100 + i);
        }
        m.record_exemplar(5, 0); // untraced: ignored
        assert_eq!(before, swkm_obs::export::to_json(&reg));
        let ex = m.exemplars();
        assert_eq!(ex.len(), EXEMPLAR_K);
        assert_eq!(ex[0], (1_000_063, 109), "slowest first");
        let text = swkm_obs::export::prom_exemplars("serve_latency_exemplar", &ex);
        assert!(text.contains("serve_latency_exemplar{trace_id=\"109\"} 1000063"));
    }

    #[test]
    fn windowed_qps_ignores_warmup() {
        let mut first = ServeMetrics::new().snapshot(0);
        first.completed = 100;
        first.elapsed = Duration::from_secs(10); // slow warm-up: 10 qps
        let mut second = first.clone();
        second.completed = 1100;
        second.elapsed = Duration::from_secs(11); // then 1000 qps steady
        assert!((second.qps_since(&first) - 1000.0).abs() < 1e-9);
        // Since-start rate is diluted to 100 qps; the window is not.
        let since_start = second.completed as f64 / second.elapsed.as_secs_f64();
        assert!(since_start < 101.0);
        // Degenerate window (no time elapsed) does not divide by zero.
        assert!(second.qps_since(&second.clone()).is_finite());
    }

    #[test]
    fn display_mentions_all_sections() {
        let s = ServeMetrics::new().snapshot(0).to_string();
        assert!(s.contains("requests:"));
        assert!(s.contains("latency:"));
        assert!(s.contains("batching:"));
    }
}
