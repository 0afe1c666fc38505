//! Table III bench — architecture comparison at host scale: serial Lloyd,
//! with and without Yinyang bounds, vs rayon shared-memory baseline vs the
//! three hierarchical executors on one workload (the Ding et al. Yinyang
//! row's shape, scaled down).

use bench::{bench_config, bench_init, BENCH_ITERS};
use criterion::{criterion_group, criterion_main, Criterion};
use hier_kmeans::baseline::{self, BaselineConfig};
use hier_kmeans::fit;
use kmeans_core::{BoundsMode, KMeansConfig, Lloyd};
use perf_model::Level;

fn table3(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_architectures");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));

    // Ding et al.: n=2.5e6, k=10,000, d=68 — scaled 256× to n=10,000, k=40.
    let data = bench::bench_data(10_000, 68, 9);
    let k = 40;
    let init = bench_init(&data, k);

    group.bench_function("serial_lloyd", |b| {
        let cfg = KMeansConfig::new(k)
            .with_max_iters(BENCH_ITERS)
            .with_tol(0.0);
        b.iter(|| {
            Lloyd::run_from(&data, init.clone(), &cfg)
                .unwrap()
                .objective
        })
    });
    group.bench_function("yinyang", |b| {
        let cfg = KMeansConfig::new(k)
            .with_max_iters(BENCH_ITERS)
            .with_tol(0.0)
            .with_bounds(BoundsMode::Yinyang);
        b.iter(|| {
            Lloyd::run_from(&data, init.clone(), &cfg)
                .unwrap()
                .objective
        })
    });
    group.bench_function("rayon_baseline", |b| {
        let cfg = BaselineConfig {
            max_iters: BENCH_ITERS,
            tol: 0.0,
            chunk: 512,
        };
        b.iter(|| baseline::run(&data, init.clone(), &cfg).unwrap().objective)
    });
    for (label, level, g) in [
        ("hier_L1", Level::L1, 1),
        ("hier_L2", Level::L2, 4),
        ("hier_L3", Level::L3, 4),
    ] {
        let cfg = bench_config(level, 8, g);
        group.bench_function(label, |b| {
            b.iter(|| fit(&data, init.clone(), &cfg).unwrap().objective)
        });
    }
    group.finish();
}

criterion_group!(benches, table3);
criterion_main!(benches);
