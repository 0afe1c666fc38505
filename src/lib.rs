//! **sunway-kmeans** — a reproduction of *Large-Scale Hierarchical k-means
//! for Heterogeneous Many-Core Supercomputers* (SC 2018) as a Rust library.
//!
//! The paper maps Lloyd's k-means onto the Sunway TaihuLight hardware
//! hierarchy with a three-level data partition: dataflow (`n`) over
//! compute units, centroids (`k`) over unit groups, and — the contribution
//! — dimensions (`d`) over the 64 CPEs of a core group, making `k·d`
//! scale with the whole machine instead of any single memory (constraint
//! C1''). This workspace implements the algorithms, a full machine model
//! standing in for the (unavailable) hardware, and the evaluation harness
//! regenerating every table and figure. See `DESIGN.md` for the inventory
//! and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`kmeans_core`] | matrices, distance kernels, init, serial Lloyd |
//! | [`hier_kmeans`] | Levels 1/2/3 executors, auto level selection, rayon baseline |
//! | [`msg`] | threaded SPMD message-passing runtime (MPI stand-in) |
//! | [`sw_arch`] | SW26010 / TaihuLight machine & topology model |
//! | [`sw_des`] | discrete-event simulator for contention studies |
//! | [`perf_model`] | per-iteration cost model, feasibility, crossover |
//! | [`datasets`] | shape-matched synthetic workloads (UCI, ImgNet, DeepGlobe) |
//! | [`swkm_serve`] | model artifacts, sharded serving index, request pipeline |
//! | [`swkm_obs`] | metrics registry, RAII spans, JSON/Prometheus exporters |
//!
//! ## Quickstart
//!
//! ```
//! use sunway_kmeans::prelude::*;
//!
//! // Generate a mixture, cluster it with the Level-3 (nkd) executor.
//! let blobs = GaussianMixture::new(600, 16, 4).with_seed(1).generate::<f64>();
//! let init = init_centroids(&blobs.data, 4, InitMethod::KMeansPlusPlus, 7);
//! let result = HierKMeans::new(Level::L3)
//!     .with_units(8)
//!     .with_group_units(2)
//!     .fit(&blobs.data, init)
//!     .unwrap();
//! assert!(result.converged);
//!
//! // Ask the cost model what this would cost at paper scale.
//! let model = CostModel::taihulight(4096);
//! let cost = model
//!     .iteration_time(&ProblemShape::imgnet_headline(), Level::L3)
//!     .unwrap();
//! assert!(cost.total() < 18.0); // the paper's headline claim
//! ```

pub use datasets;
pub use hier_kmeans;
pub use kmeans_core;
pub use msg;
pub use perf_model;
pub use sw_arch;
pub use sw_des;
pub use swkm_obs;
pub use swkm_serve;

/// One-stop imports for applications.
pub mod prelude {
    pub use datasets::{
        GaussianMixture, ImageNetSource, SampleSource, SceneConfig, SyntheticScene,
    };
    pub use hier_kmeans::{
        choose_level, fit, fit_source, HierConfig, HierKMeans, HierResult, Level, StreamConfig,
    };
    pub use kmeans_core::{
        adjusted_rand_index, init_centroids, nmi, purity, standardized, AssignKernel, AssignPlan,
        InitMethod, KMeansConfig, Lloyd, Matrix, MatrixSource, Scalar,
    };
    pub use perf_model::{best_level, CostModel, ProblemShape};
    pub use sw_arch::{Machine, MachineParams};
    pub use swkm_obs::MetricsRegistry;
    pub use swkm_serve::{
        run_closed_loop, run_ramp, AdmissionConfig, DispatchConfig, ElasticConfig, LoadGenConfig,
        ModelArtifact, PipelineConfig, RampConfig, Server, ShardedIndex,
    };
}
