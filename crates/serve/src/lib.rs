//! `swkm-serve` — the model-serving subsystem.
//!
//! Training (the rest of this workspace) answers "where are the
//! centroids?"; this crate answers "which centroid is nearest?" at request
//! time, production-style:
//!
//! * [`artifact`] — versioned, checksummed model artifacts: centroids,
//!   `(n, k, d)` provenance and preprocessing statistics frozen to disk,
//!   with typed errors for corruption, version skew and dtype skew.
//! * [`index`] — the sharded nearest-centroid index: the serving analogue
//!   of the paper's k-partition. Per-shard argmin with the training
//!   kernels, merged with the same lowest-index tie-breaking as
//!   `assign_step`, so a sharded scan is bit-identical to a serial one.
//!   Shards carry liveness flags: a killed shard is detected and scans
//!   re-dispatch to the survivors, marking replies degraded and counting
//!   `shard_failovers`; with every shard down requests fail with a typed
//!   [`error::ServeError::AllShardsDown`] instead of being lost.
//! * [`pipeline`] — the public handles (server, client, hot-swappable
//!   [`pipeline::ModelSlot`]) around the event-driven serve core:
//!   `try_send` admission (typed [`error::ServeError::Overloaded`] load
//!   shedding), adaptive micro-batching, rayon shard fan-out, graceful
//!   drain on shutdown. Each batch pins one model generation for its
//!   whole scan, and [`pipeline::Server::swap_model`] installs a new
//!   generation with zero downtime — the durable end of that hand-off is
//!   the `swkm-store` crate's versioned model store.
//! * [`dispatch`] — the select-based dispatcher behind the pipeline: one
//!   thread multiplexes client ingress, shard completions, control
//!   notifications and policy ticks via `crossbeam_channel::Select`,
//!   routes micro-batches to elastic shard workers (lazy spawn, eager
//!   scale-up, lazy scale-down, work stealing between peers) and audits
//!   every channel for stranded requests at shutdown.
//! * [`admission`] — SLO-aware admission control as pure, property-tested
//!   policy: predicted p99 from windowed log₂ histograms, EWMA smoothing
//!   and hysteresis watermarks ([`error::ServeError::SloShed`]), plus the
//!   elastic scale-up/down state machine.
//! * [`metrics`] — throughput counters and per-stage log₂ latency
//!   histograms (shared with the simulator's `sw_des::stats`), exposed as
//!   a printable [`metrics::Snapshot`].
//! * [`loadgen`] — a closed-loop load generator reporting QPS and
//!   p50/p95/p99 latency, used by `swkm serve-bench`, plus the
//!   deterministic load-ramp driver behind `serve-bench --ramp`.
//!
//! End to end:
//!
//! ```
//! use kmeans_core::{KMeansConfig, Lloyd, Matrix};
//! use swkm_serve::prelude::*;
//!
//! // Train, freeze, reload.
//! let data = Matrix::from_rows(&[
//!     &[0.0f64, 0.0], &[0.5, 0.1], &[9.0, 9.0], &[9.5, 8.9],
//! ]);
//! let fit = Lloyd::run(&data, &KMeansConfig::new(2).with_seed(7)).unwrap();
//! let artifact = ModelArtifact::new(
//!     data.rows() as u64, fit.centroids, fit.iterations as u64,
//!     fit.objective, fit.converged, None,
//! );
//! let bytes = artifact.to_bytes();
//! let reloaded = ModelArtifact::<f64>::from_bytes(&bytes).unwrap();
//!
//! // Serve it.
//! let server = Server::start(
//!     ShardedIndex::from_artifact(&reloaded, 2),
//!     PipelineConfig::default(),
//! );
//! let client = server.client();
//! let hot = client.predict(vec![9.1, 9.1]).unwrap();
//! let cold = client.predict(vec![0.2, 0.0]).unwrap();
//! assert_ne!(hot.label, cold.label);
//! drop(client);
//! let snapshot = server.shutdown();
//! assert_eq!(snapshot.completed, 2);
//! ```

pub mod admission;
pub mod artifact;
pub mod dispatch;
pub mod error;
pub mod index;
pub mod loadgen;
pub mod metrics;
pub mod pipeline;

pub use admission::{
    predicted_p99_ns, AdmissionConfig, AdmissionController, ElasticConfig, ElasticScaler,
    ScaleDecision,
};
pub use artifact::{ArtifactError, ModelArtifact, ModelMeta, FORMAT_VERSION, MAGIC};
pub use dispatch::DispatchConfig;
pub use error::ServeError;
pub use index::{BatchOutcome, ShardedIndex};
pub use loadgen::{
    run_closed_loop, run_ramp, LoadGenConfig, LoadReport, RampConfig, RampPhase, RampReport,
};
pub use metrics::{ServeMetrics, Snapshot, EXEMPLAR_K};
pub use pipeline::{Client, ModelSlot, PipelineConfig, Prediction, ServeTracing, Server};

/// One-stop imports for serving call sites.
pub mod prelude {
    pub use crate::admission::{
        AdmissionConfig, AdmissionController, ElasticConfig, ElasticScaler, ScaleDecision,
    };
    pub use crate::artifact::{ArtifactError, ModelArtifact, ModelMeta};
    pub use crate::dispatch::DispatchConfig;
    pub use crate::error::ServeError;
    pub use crate::index::{BatchOutcome, ShardedIndex};
    pub use crate::loadgen::{
        run_closed_loop, run_ramp, LoadGenConfig, LoadReport, RampConfig, RampPhase, RampReport,
    };
    pub use crate::metrics::Snapshot;
    pub use crate::pipeline::{
        Client, ModelSlot, PipelineConfig, Prediction, ServeTracing, Server,
    };
}
