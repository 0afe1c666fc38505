//! `phase_trace`: the observability layer read back through its own
//! registry. Runs an instrumented scaled-down fit at every hierarchy
//! level and reports the measured per-phase critical path, communication
//! volume and assign imbalance — the measured counterpart to the modelled
//! phase columns of Fig. 5 and Table III.

use crate::report::Report;
use hier_kmeans::{fit, HierConfig};
use kmeans_core::{init_centroids, AssignKernel, InitMethod};
use perf_model::Level;
use swkm_obs::MetricsRegistry;

/// One instrumented run, reported exclusively through the registry —
/// exactly what a `--metrics-json` consumer sees.
fn traced_row(level: Level, k: usize, group_units: usize, kernel: AssignKernel) -> Vec<String> {
    let data = datasets::uci::kegg_network().generate(1_024);
    let init = init_centroids(&data, k, InitMethod::Forgy, 1);
    let cfg = HierConfig {
        level,
        units: 8,
        group_units: if level == Level::L1 { 1 } else { group_units },
        cpes_per_cg: 8,
        max_iters: 3,
        tol: 0.0,
        kernel,
        ..HierConfig::new(level)
    };
    let result = fit(&data, init, &cfg).expect("phase_trace run");
    let registry = MetricsRegistry::new();
    result.export_metrics(&registry);

    let ms = |name: &str| format!("{:.2}", registry.gauge(name).expect("exported gauge") * 1e3);
    let wall = registry.gauge("train_wall_s").expect("exported gauge");
    let phase_sum = ["assign", "merge", "update", "exchange"]
        .iter()
        .map(|p| registry.gauge(&format!("train_{p}_s")).unwrap())
        .sum::<f64>();
    let short = match level {
        Level::L1 => "L1",
        Level::L2 => "L2",
        Level::L3 => "L3",
    };
    vec![
        short.to_string(),
        ms("train_assign_s"),
        ms("train_merge_s"),
        ms("train_update_s"),
        ms("train_exchange_s"),
        format!("{:.2}", wall * 1e3),
        format!("{:.2}", phase_sum / wall.max(1e-12)),
        registry.counter("comm_total_bytes").to_string(),
        registry.counter("comm_total_messages").to_string(),
        format!(
            "{:.2}x",
            registry.gauge("train_assign_imbalance").expect("gauge")
        ),
    ]
}

/// The `phase_trace` experiment: measured per-phase breakdown per level,
/// with every level's Assign routed through `kernel`.
pub fn phase_trace_with(kernel: AssignKernel) -> Report {
    let mut r = Report::new(
        "phase_trace",
        "Measured per-phase critical path via the metrics registry (Kegg 1024×28, k=16, 3 iters)",
        &[
            "level",
            "assign (ms)",
            "merge (ms)",
            "update (ms)",
            "exchange (ms)",
            "wall (ms)",
            "sum/wall",
            "comm bytes",
            "comm msgs",
            "imbalance",
        ],
    );
    for (level, group_units) in [(Level::L1, 1), (Level::L2, 4), (Level::L3, 2)] {
        r.row(traced_row(level, 16, group_units, kernel));
    }
    r.note(format!("assign kernel: {kernel}"));
    r.note("values read back through swkm_obs::MetricsRegistry — same source as `swkm fit --metrics-json`");
    r.note(
        "sum/wall is critical-path phase total over max-rank wall; it can exceed 1 \
         when the per-phase maxima land on different ranks",
    );
    r.note("exchange is nonzero only at Level 3 (the dimension-sliced accumulation)");
    r
}

/// The `event_trace` experiment: the same scaled-down fit, observed at
/// event level. Each hierarchy level runs with a `TraceBuffer` attached
/// and the report counts the per-rank phase and collective spans the run
/// emitted — the raw material `swkm fit --trace-out` exports for
/// Perfetto — and checks the traced durations against the registry
/// aggregates (same measurements, so the ratio is ~1).
pub fn event_trace() -> Report {
    let mut r = Report::new(
        "event_trace",
        "Event-level trace census per level (Kegg 1024×28, k=16, 3 iters)",
        &[
            "level",
            "events",
            "phase spans",
            "comm spans",
            "ranks",
            "traced/registry assign",
            "dropped",
        ],
    );
    for (level, group_units) in [(Level::L1, 1), (Level::L2, 4), (Level::L3, 2)] {
        let data = datasets::uci::kegg_network().generate(1_024);
        let init = init_centroids(&data, 16, InitMethod::Forgy, 1);
        let buf = swkm_obs::TraceBuffer::shared(1 << 15);
        let cfg = HierConfig {
            level,
            units: 8,
            group_units: if level == Level::L1 { 1 } else { group_units },
            cpes_per_cg: 8,
            max_iters: 3,
            tol: 0.0,
            trace: Some(std::sync::Arc::clone(&buf)),
            ..HierConfig::new(level)
        };
        let result = fit(&data, init, &cfg).expect("event_trace run");
        let registry = MetricsRegistry::new();
        result.export_metrics(&registry);
        let events = buf.snapshot();
        let phase_spans = events.iter().filter(|e| e.proc == "train").count();
        let comm_spans = events.iter().filter(|e| e.proc == "comm").count();
        let ranks = events.iter().map(|e| e.track).max().map_or(0, |t| t + 1);
        let traced_assign: f64 = events
            .iter()
            .filter(|e| e.proc == "train" && e.name == "assign")
            .map(|e| e.dur_ns as f64 / 1e9)
            .sum();
        let registry_assign: f64 = (0..ranks)
            .map(|rank| result.trace.rank_total(rank as usize).assign)
            .sum();
        let short = match level {
            Level::L1 => "L1",
            Level::L2 => "L2",
            Level::L3 => "L3",
        };
        r.row(vec![
            short.to_string(),
            events.len().to_string(),
            phase_spans.to_string(),
            comm_spans.to_string(),
            ranks.to_string(),
            format!("{:.3}", traced_assign / registry_assign.max(1e-12)),
            buf.stats().dropped.to_string(),
        ]);
    }
    r.note("phase spans: assign/merge/update/exchange/iteration per rank per iteration");
    r.note("comm spans: one per collective per participating rank");
    r.note("export the same events with `swkm fit --trace-out trace.json` and open in Perfetto");
    r
}

/// The `phase_trace` experiment with the default (exact scalar) kernel.
#[cfg(test)]
fn phase_trace() -> Report {
    phase_trace_with(AssignKernel::Scalar)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_trace_covers_all_levels() {
        let r = phase_trace();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][0], "L1");
        assert_eq!(r.rows[2][0], "L3");
        // L1/L2 have no exchange phase; L3 must report one.
        assert_eq!(r.rows[0][4], "0.00");
        let l3_exchange: f64 = r.rows[2][4].parse().unwrap();
        assert!(l3_exchange > 0.0, "L3 exchange phase missing: {r:?}");
        // Communication happened and was accounted at every level.
        for row in &r.rows {
            let bytes: u64 = row[7].parse().unwrap();
            let msgs: u64 = row[8].parse().unwrap();
            assert!(bytes > 0 && msgs > 0, "{row:?}");
        }
    }

    #[test]
    fn phase_trace_runs_with_the_gemm_kernel() {
        let r = phase_trace_with(AssignKernel::Gemm);
        assert_eq!(r.rows.len(), 3);
        assert!(r.notes.iter().any(|n| n.contains("gemm")), "{:?}", r.notes);
    }

    #[test]
    fn event_trace_counts_are_balanced_and_agree_with_the_registry() {
        let r = event_trace();
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            let events: usize = row[1].parse().unwrap();
            let phase: usize = row[2].parse().unwrap();
            let comm: usize = row[3].parse().unwrap();
            let dropped: u64 = row[6].parse().unwrap();
            assert_eq!(events, phase + comm, "{row:?}");
            assert!(phase > 0 && comm > 0, "{row:?}");
            assert_eq!(dropped, 0, "{row:?}");
            // Traced and registry assign totals are the same measurement.
            let ratio: f64 = row[5].parse().unwrap();
            assert!((ratio - 1.0).abs() < 0.05, "{}: ratio {ratio}", row[0]);
        }
    }

    #[test]
    fn phase_sum_tracks_wall() {
        let r = phase_trace();
        for row in &r.rows {
            let ratio: f64 = row[6].parse().unwrap();
            // The traced phases must account for most of the wall time
            // (they exclude only convergence checks and loop overhead) and
            // cannot exceed it by more than the cross-rank maxima slack.
            assert!(
                ratio > 0.5 && ratio < 2.5,
                "{}: phase sum / wall = {ratio}",
                row[0]
            );
        }
    }
}
