//! Closed-loop load generator for `serve-bench`: `clients` threads each
//! issue requests back-to-back (the next request waits for the previous
//! reply), cycling through a pool of query samples. Shed requests
//! ([`ServeError::Overloaded`] and [`ServeError::SloShed`]) are counted,
//! not retried — the report shows exactly how much load the configured
//! queue and SLO gate admitted.
//!
//! [`run_ramp`] layers a deterministic load *ramp* on top: client count
//! climbs linearly from `base_clients` to `peak_clients` and back down,
//! one closed-loop phase per step, so elastic scaling and admission
//! control can be exercised (and asserted on) reproducibly.

use crate::error::ServeError;
use crate::pipeline::Server;
use kmeans_core::{Matrix, Scalar};
use std::time::{Duration, Instant};
use sw_des::stats::Histogram;

/// Load-generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadGenConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            clients: 4,
            requests_per_client: 2_500,
        }
    }
}

/// Aggregate result of a load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    pub issued: u64,
    pub completed: u64,
    /// Requests shed with [`ServeError::Overloaded`] or
    /// [`ServeError::SloShed`].
    pub shed: u64,
    /// Completed requests answered over a subset of the shards
    /// ([`Prediction::degraded`](crate::pipeline::Prediction::degraded)).
    pub degraded: u64,
    /// Requests that failed with a typed error after admission (e.g.
    /// [`ServeError::AllShardsDown`]) — counted, never silently lost.
    pub failed: u64,
    pub elapsed: Duration,
    /// Completed requests per wall-clock second.
    pub qps: f64,
    /// End-to-end latency quantiles over completed requests
    /// (log₂-bucket upper bounds).
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

impl LoadReport {
    pub fn shed_fraction(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.shed as f64 / self.issued as f64
        }
    }
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} issued, {} completed ({} degraded), {} shed ({:.1}%), {} failed in {:.2?} — {:.0} QPS, p50 {:.1}µs, p95 {:.1}µs, p99 {:.1}µs",
            self.issued,
            self.completed,
            self.degraded,
            self.shed,
            self.shed_fraction() * 100.0,
            self.failed,
            self.elapsed,
            self.qps,
            self.p50_ns as f64 / 1e3,
            self.p95_ns as f64 / 1e3,
            self.p99_ns as f64 / 1e3
        )
    }
}

/// Drive a closed-loop load test against a running server. Each client
/// starts at a different offset into `queries` so concurrent clients do
/// not issue identical request streams.
pub fn run_closed_loop<S: Scalar>(
    server: &Server<S>,
    queries: &Matrix<S>,
    config: LoadGenConfig,
) -> LoadReport {
    assert!(queries.rows() > 0, "need at least one query sample");
    assert!(config.clients > 0, "need at least one client");
    let start = Instant::now();
    let per_client: Vec<(u64, u64, u64, u64, Histogram)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|c| {
                let client = server.client();
                scope.spawn(move || {
                    let mut completed = 0u64;
                    let mut shed = 0u64;
                    let mut degraded = 0u64;
                    let mut failed = 0u64;
                    let mut latency = Histogram::new();
                    for i in 0..config.requests_per_client {
                        let row = (c * 7919 + i) % queries.rows();
                        let sample = queries.row(row).to_vec();
                        let issued_at = Instant::now();
                        match client.predict(sample) {
                            Ok(p) => {
                                latency.record(issued_at.elapsed().as_nanos() as u64);
                                completed += 1;
                                if p.degraded {
                                    degraded += 1;
                                }
                            }
                            Err(ServeError::Overloaded { .. })
                            | Err(ServeError::SloShed { .. }) => shed += 1,
                            // Shard crashes mid-run are an expected fault-
                            // injection outcome: count them, don't panic.
                            Err(_) => failed += 1,
                        }
                    }
                    (completed, shed, degraded, failed, latency)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = start.elapsed();
    let mut latency = Histogram::new();
    let (mut completed, mut shed, mut degraded, mut failed) = (0u64, 0u64, 0u64, 0u64);
    for (c, s, dg, fl, hist) in &per_client {
        completed += c;
        shed += s;
        degraded += dg;
        failed += fl;
        latency.merge(hist);
    }
    let issued = (config.clients * config.requests_per_client) as u64;
    LoadReport {
        issued,
        completed,
        shed,
        degraded,
        failed,
        elapsed,
        qps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_ns: latency.quantile_upper_bound(0.5),
        p95_ns: latency.quantile_upper_bound(0.95),
        p99_ns: latency.quantile_upper_bound(0.99),
    }
}

/// Parameters for a deterministic load ramp: client count climbs
/// linearly from `base_clients` to `peak_clients` over `steps_up`
/// phases, then mirrors back down (the peak phase is not repeated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RampConfig {
    /// Clients in the first (and last) phase.
    pub base_clients: usize,
    /// Clients at the top of the ramp.
    pub peak_clients: usize,
    /// Phases from base to peak, inclusive of both endpoints.
    pub steps_up: usize,
    /// Requests each client issues per phase.
    pub requests_per_client: usize,
}

impl Default for RampConfig {
    fn default() -> Self {
        RampConfig {
            base_clients: 1,
            peak_clients: 10,
            steps_up: 4,
            requests_per_client: 500,
        }
    }
}

impl RampConfig {
    /// The per-phase client counts: `steps_up` points interpolated from
    /// base to peak, then the same points mirrored back down without
    /// repeating the peak. `base 1, peak 10, steps 4` → `[1, 4, 7, 10,
    /// 7, 4, 1]`.
    pub fn profile(&self) -> Vec<usize> {
        assert!(self.base_clients > 0, "need at least one base client");
        assert!(
            self.peak_clients >= self.base_clients,
            "peak must be at least the base client count"
        );
        assert!(self.steps_up >= 1, "need at least one ramp step");
        let mut up: Vec<usize> = if self.steps_up == 1 {
            vec![self.peak_clients]
        } else {
            let span = (self.peak_clients - self.base_clients) as f64;
            let denom = (self.steps_up - 1) as f64;
            (0..self.steps_up)
                .map(|i| self.base_clients + (span * i as f64 / denom).round() as usize)
                .collect()
        };
        let down: Vec<usize> = up.iter().rev().skip(1).copied().collect();
        up.extend(down);
        up
    }
}

/// One phase of a ramp: the client count driven and what came back.
#[derive(Debug, Clone, PartialEq)]
pub struct RampPhase {
    pub clients: usize,
    pub report: LoadReport,
}

/// Full result of a ramp run, one entry per phase in profile order.
#[derive(Debug, Clone, PartialEq)]
pub struct RampReport {
    pub phases: Vec<RampPhase>,
}

impl RampReport {
    pub fn issued(&self) -> u64 {
        self.phases.iter().map(|p| p.report.issued).sum()
    }

    pub fn completed(&self) -> u64 {
        self.phases.iter().map(|p| p.report.completed).sum()
    }

    pub fn shed(&self) -> u64 {
        self.phases.iter().map(|p| p.report.shed).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.report.failed).sum()
    }

    /// The load-generator side of the conservation invariant: every
    /// issued request came back as a completion, a shed, or a typed
    /// failure. Holds per phase, so it holds for the whole ramp.
    pub fn conserved(&self) -> bool {
        self.phases
            .iter()
            .all(|p| p.report.issued == p.report.completed + p.report.shed + p.report.failed)
    }

    /// Largest per-phase p99 across the ramp, nanoseconds.
    pub fn worst_p99_ns(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.report.p99_ns)
            .max()
            .unwrap_or(0)
    }

    /// The ramp as a JSON document (no serde in the workspace): one
    /// object per phase with latency quantiles and shed fraction, plus
    /// the totals — the schema behind `BENCH_serve_ramp.json` and
    /// `serve-bench --ramp-json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"phases\": [\n");
        for (i, phase) in self.phases.iter().enumerate() {
            let r = &phase.report;
            out.push_str(&format!(
                "    {{\"clients\": {}, \"issued\": {}, \"completed\": {}, \"shed\": {}, \
                 \"failed\": {}, \"shed_fraction\": {:.6}, \"qps\": {:.1}, \
                 \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}{}\n",
                phase.clients,
                r.issued,
                r.completed,
                r.shed,
                r.failed,
                r.shed_fraction(),
                r.qps,
                r.p50_ns,
                r.p95_ns,
                r.p99_ns,
                if i + 1 < self.phases.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"total\": {{\"issued\": {}, \"completed\": {}, \"shed\": {}, \
             \"failed\": {}, \"conserved\": {}, \"worst_p99_ns\": {}}}\n}}\n",
            self.issued(),
            self.completed(),
            self.shed(),
            self.failed(),
            self.conserved(),
            self.worst_p99_ns()
        ));
        out
    }
}

impl std::fmt::Display for RampReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, phase) in self.phases.iter().enumerate() {
            writeln!(
                f,
                "phase {i} ({} client(s)): {}",
                phase.clients, phase.report
            )?;
        }
        write!(
            f,
            "ramp total: {} issued, {} completed, {} shed, {} failed, conserved={}",
            self.issued(),
            self.completed(),
            self.shed(),
            self.failed(),
            self.conserved()
        )
    }
}

/// Drive the ramp profile against a running server, one closed-loop
/// phase per step. Phases run back-to-back; between phases all clients
/// from the previous phase have drained (closed-loop clients join
/// before the phase returns), so the server sees a clean step change.
pub fn run_ramp<S: Scalar>(
    server: &Server<S>,
    queries: &Matrix<S>,
    config: RampConfig,
) -> RampReport {
    let phases = config
        .profile()
        .into_iter()
        .map(|clients| {
            let report = run_closed_loop(
                server,
                queries,
                LoadGenConfig {
                    clients,
                    requests_per_client: config.requests_per_client,
                },
            );
            RampPhase { clients, report }
        })
        .collect();
    RampReport { phases }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ShardedIndex;
    use crate::pipeline::PipelineConfig;

    #[test]
    fn closed_loop_completes_everything_with_ample_queue() {
        let centroids = Matrix::from_rows(&[&[0.0f64, 0.0], &[5.0, 5.0]]);
        let server = Server::start(ShardedIndex::new(centroids, 2), PipelineConfig::default());
        let queries = Matrix::from_rows(&[&[0.1f64, 0.1], &[4.9, 5.1], &[1.0, 1.0]]);
        let report = run_closed_loop(
            &server,
            &queries,
            LoadGenConfig {
                clients: 3,
                requests_per_client: 40,
            },
        );
        assert_eq!(report.issued, 120);
        assert_eq!(report.completed, 120);
        assert_eq!(report.shed, 0);
        assert!(report.qps > 0.0);
        let line = report.to_string();
        assert!(line.contains("QPS"));
        server.shutdown();
    }

    #[test]
    fn ramp_profile_mirrors_up_and_down() {
        let config = RampConfig {
            base_clients: 1,
            peak_clients: 10,
            steps_up: 4,
            requests_per_client: 1,
        };
        assert_eq!(config.profile(), vec![1, 4, 7, 10, 7, 4, 1]);
        let flat = RampConfig {
            base_clients: 3,
            peak_clients: 3,
            steps_up: 2,
            requests_per_client: 1,
        };
        assert_eq!(flat.profile(), vec![3, 3, 3]);
        let single = RampConfig {
            base_clients: 2,
            peak_clients: 8,
            steps_up: 1,
            requests_per_client: 1,
        };
        assert_eq!(single.profile(), vec![8]);
    }

    #[test]
    fn ramp_run_conserves_requests() {
        let centroids = Matrix::from_rows(&[&[0.0f64, 0.0], &[5.0, 5.0]]);
        let server = Server::start(ShardedIndex::new(centroids, 2), PipelineConfig::default());
        let queries = Matrix::from_rows(&[&[0.1f64, 0.1], &[4.9, 5.1]]);
        let ramp = run_ramp(
            &server,
            &queries,
            RampConfig {
                base_clients: 1,
                peak_clients: 3,
                steps_up: 2,
                requests_per_client: 20,
            },
        );
        assert_eq!(ramp.phases.len(), 3);
        assert!(ramp.conserved());
        assert_eq!(ramp.issued(), 20 + 60 + 20);
        assert_eq!(ramp.completed(), 100);
        assert!(ramp.to_string().contains("conserved=true"));
        let json = ramp.to_json();
        assert!(json.contains("\"conserved\": true"));
        assert!(json.contains("\"clients\": 3"));
        assert_eq!(json.matches("\"p99_ns\"").count(), 3, "one per phase");
        server.shutdown();
    }
}
