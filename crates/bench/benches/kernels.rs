//! Micro-benchmarks of the distance kernels: straightforward vs unrolled
//! vs Level-3 sliced, the argmin scan, and the two batch-assign kernels
//! (scalar / gemm) at paper-like shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kmeans_core::distance::{argmin_centroid, sq_euclidean, sq_euclidean_unrolled};
use kmeans_core::{AssignKernel, AssignPlan, Matrix};

fn distance_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels_distance");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for &d in &[64usize, 1_024, 16_384, 196_608] {
        let a: Vec<f32> = (0..d).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..d).map(|i| (i as f32 * 0.71).cos()).collect();
        group.throughput(Throughput::Elements(d as u64));
        group.bench_with_input(BenchmarkId::new("simple", d), &d, |bch, _| {
            bch.iter(|| sq_euclidean(&a, &b))
        });
        group.bench_with_input(BenchmarkId::new("unrolled", d), &d, |bch, _| {
            bch.iter(|| sq_euclidean_unrolled(&a, &b))
        });
        group.bench_with_input(BenchmarkId::new("sliced_64cpe", d), &d, |bch, _| {
            bch.iter(|| {
                // The Level-3 per-CPE partial pattern.
                let mut acc = 0.0f32;
                for cpe in 0..64 {
                    let r = hier_kmeans::split_range(d, 64, cpe);
                    acc += sq_euclidean_unrolled(&a[r.clone()], &b[r]);
                }
                acc
            })
        });
    }
    group.finish();
}

fn argmin_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels_argmin");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for &k in &[16usize, 256, 2_048] {
        let d = 128;
        let centroids =
            Matrix::from_vec(k, d, (0..k * d).map(|i| (i as f32 * 0.13).sin()).collect());
        let sample: Vec<f32> = (0..d).map(|i| (i as f32 * 0.7).cos()).collect();
        group.throughput(Throughput::Elements((k * d) as u64));
        group.bench_with_input(BenchmarkId::new("direct", k), &k, |b, _| {
            b.iter(|| argmin_centroid(&sample, &centroids))
        });
    }
    group.finish();
}

/// The batch-assign kernels across the C1 boundary: `k·d·4 B` below,
/// near, and far above the 64 KB LDM budget — the regimes where blocking
/// is pointless, ideal, and forced to spill respectively.
fn assign_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels_assign");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    // (n, k, d): k·d·4 = 16 KB (fits), 64 KB (the boundary), 1 MB (spills).
    for &(n, k, d) in &[
        (2_048usize, 64usize, 64usize),
        (2_048, 256, 64),
        (512, 256, 1_024),
    ] {
        let data = bench::bench_data(n, d, 3);
        let centroids = bench::bench_init(&data, k);
        group.throughput(Throughput::Elements((n * k * d) as u64));
        for kernel in AssignKernel::ALL {
            let plan = AssignPlan::new(kernel, &centroids);
            let label = format!("n{n}_k{k}_d{d}");
            group.bench_with_input(BenchmarkId::new(kernel.name(), &label), &label, |b, _| {
                let mut out: Vec<(u32, f32)> = Vec::with_capacity(n);
                b.iter(|| {
                    out.clear();
                    plan.assign_batch_into(&data, 0..n, &centroids, 0..k, 0, &mut out);
                    out.len()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, distance_kernels, argmin_scan, assign_kernels);
criterion_main!(benches);
