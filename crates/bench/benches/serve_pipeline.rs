//! Serving-path benchmarks: the sharded index scan (varying shard counts)
//! and the end-to-end request pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kmeans_core::Matrix;
use std::sync::Arc;
use swkm_obs::TraceBuffer;
use swkm_serve::{PipelineConfig, ServeTracing, Server, ShardedIndex};

fn synthetic_centroids(k: usize, d: usize) -> Matrix<f32> {
    Matrix::from_vec(k, d, (0..k * d).map(|i| (i as f32 * 0.13).sin()).collect())
}

fn synthetic_queries(n: usize, d: usize) -> Matrix<f32> {
    Matrix::from_vec(n, d, (0..n * d).map(|i| (i as f32 * 0.71).cos()).collect())
}

fn sharded_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_sharded_scan");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    let (k, d, n) = (512usize, 128usize, 64usize);
    let centroids = synthetic_centroids(k, d);
    let queries = synthetic_queries(n, d);
    group.throughput(Throughput::Elements((n * k * d) as u64));
    for &shards in &[1usize, 2, 4, 8] {
        let exact = ShardedIndex::new(centroids.clone(), shards);
        group.bench_with_input(BenchmarkId::new("exact", shards), &shards, |b, _| {
            b.iter(|| exact.assign_batch(&queries))
        });
    }
    group.finish();
}

fn pipeline_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_pipeline_round_trip");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    let (k, d) = (256usize, 64usize);
    let index = ShardedIndex::new(synthetic_centroids(k, d), 4);
    let server = Server::start(index, PipelineConfig::default());
    let client = server.client();
    let sample: Vec<f32> = (0..d).map(|i| (i as f32 * 0.7).cos()).collect();
    group.throughput(Throughput::Elements(1));
    group.bench_function("predict", |b| {
        b.iter(|| client.predict(sample.clone()).unwrap())
    });
    drop(client);
    server.shutdown();

    // Tracing compiled in but switched off must be indistinguishable from
    // no tracing at all (<2%): the push path is one relaxed atomic load.
    let disabled = TraceBuffer::shared(1 << 14);
    disabled.set_enabled(false);
    let index = ShardedIndex::new(synthetic_centroids(k, d), 4);
    let server = Server::start_traced(
        index,
        PipelineConfig::default(),
        swkm_obs::MetricsRegistry::shared(),
        ServeTracing::new(Arc::clone(&disabled), None),
    );
    let client = server.client();
    group.bench_function("predict_trace_disabled", |b| {
        b.iter(|| client.predict(sample.clone()).unwrap())
    });
    drop(client);
    server.shutdown();

    // Sampled tracing (1-in-64) bounds the enabled-path cost.
    let sampled = Arc::new(TraceBuffer::with_sampling(1 << 14, 64));
    let index = ShardedIndex::new(synthetic_centroids(k, d), 4);
    let server = Server::start_traced(
        index,
        PipelineConfig::default(),
        swkm_obs::MetricsRegistry::shared(),
        ServeTracing::new(Arc::clone(&sampled), None),
    );
    let client = server.client();
    group.bench_function("predict_trace_1_in_64", |b| {
        b.iter(|| client.predict(sample.clone()).unwrap())
    });
    group.finish();
    drop(client);
    server.shutdown();
}

criterion_group!(benches, sharded_scan, pipeline_round_trip);
criterion_main!(benches);
