//! The traced run: one repetition of a workload under the span recorder,
//! the per-workload layer numbers read from returned result structs, and
//! the direct probes of every layer below it. Nothing here gates; each
//! metric names, in the README, the end-to-end metric it should move.

use crate::adapter::{self, FitOut, FitSpec, Kernel, Mat, Partition, Plan, Planner};
use crate::host;
use crate::json::Json;
use crate::regime::Regime;
use crate::stats::{median, per_call_s, timed};
use crate::trace::Recorder;
use crate::workloads::{
    account_requests, expected_labels, make_inputs, run_clients, run_fit, serve_setup,
    serve_shutdown, served_artifact, verify_fits, DataSpec, FitPhase, Inputs, Ledger, Metric,
    Outcome, RunConfig, Scratch, SplitMix, Workload, CLIENTS, SETTLE_TIMEOUT_S,
};
use std::hint::black_box;
use std::path::Path;

/// Probe shapes: P64 is the paper's n100k/k256/d64, P3072 the wide one.
const P64: (usize, usize, usize) = (100_000, 256, 64);
const P3072: (usize, usize, usize) = (4096, 256, 3072);
/// The served table of `serve_heavy`.
const HEAVY: (usize, usize) = (16_384, 128);

struct Sink(Vec<Metric>);

impl Sink {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric::new(name, value, unit));
    }
}

/// Cap of the auxiliary one-unit and L2 fits: enough iterations for a
/// per-iteration figure, few enough to keep the traced run short.
fn aux_cap(w: &Workload) -> usize {
    w.verify_cap.min(3)
}

fn is_shape(w: &Workload, shape: (usize, usize, usize)) -> bool {
    let (n, d) = w.data.shape();
    (n, w.k, d) == shape
}

/// `hier-kmeans` and `msg` numbers of this workload's long fit, all from
/// the returned `HierResult`.
fn hier_metrics(out: &mut Sink, long: &FitOut, fit_s: f64) {
    let iters = long.iterations.max(1) as f64;
    let p = long.phases;
    out.put("hier.iters", long.iterations as f64, "count");
    out.put("hier.label_checksum", long.label_checksum as f64, "count");
    // A JSON number holds 53 bits: report a 32-bit xor-fold of the 64-bit
    // pattern (the full pattern is in the detail line).
    let bits = long.objective.to_bits();
    out.put(
        "hier.objective_bits",
        ((bits >> 32) ^ (bits & 0xffff_ffff)) as f64,
        "count",
    );
    out.put("hier.assign_s", p.assign_s, "s");
    out.put("hier.merge_s", p.merge_s, "s");
    out.put("hier.update_s", p.update_s, "s");
    out.put("hier.exchange_s", p.exchange_s, "s");
    out.put("hier.iter_wall_s", p.iter_wall_s, "s");
    out.put(
        "hier.phase_sum_over_wall",
        (p.assign_s + p.merge_s + p.update_s + p.exchange_s) / p.iter_wall_s,
        "ratio",
    );
    out.put("hier.assign_imbalance", long.assign_imbalance, "ratio");
    out.put(
        "hier.tail_moved_fraction",
        long.tail_moved_fraction,
        "ratio",
    );
    out.put("hier.fixed_s", fit_s - p.iter_wall_s, "s");
    out.put("hier.fixed_share", (fit_s - p.iter_wall_s) / fit_s, "ratio");
    out.put("msg.bytes_per_iter", long.comm_bytes as f64 / iters, "B");
    out.put("msg.msgs_per_iter", long.comm_msgs as f64 / iters, "count");
    out.put("msg.allreduce_bytes", long.allreduce_bytes as f64, "B");
    out.put("msg.minloc_bytes", long.minloc_bytes as f64, "B");
    out.put(
        "core.bounds.distance_evals",
        long.bounds_distance_evals as f64,
        "count",
    );
    out.put(
        "core.bounds.lloyd_equivalent",
        long.bounds_lloyd_equivalent as f64,
        "count",
    );
    out.put("core.bounds.savings", long.bounds_savings, "ratio");
}

/// One auxiliary fit of the workload's data under `spec`; returns its
/// per-iteration critical-path wall from `HierResult.trace`.
fn aux_iter_s(
    w: &Workload,
    spec: &FitSpec,
    inputs: &Inputs,
    rec: &Recorder,
    parent: Option<u32>,
) -> Result<f64, String> {
    let cap = aux_cap(w);
    let (out, _) = rec.time("hier-kmeans/fit_aux", parent, |_| {
        adapter::fit(spec, &inputs.data, inputs.init.clone(), cap)
    });
    let out = out?;
    Ok(out.phases.iter_wall_s / out.iterations.max(1) as f64)
}

/// A `rows × cols` matrix of cheap seeded values in `[-1, 1)`, for probes
/// whose cost does not depend on content.
fn filler(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut rng = SplitMix(seed);
    adapter::mat_from_vec(rows, cols, (0..rows * cols).map(|_| rng.unit()).collect())
}

/// What the direct probes need from the run they ride on.
struct ProbeCtx<'a> {
    seed: u64,
    rec: &'a Recorder,
    parent: Option<u32>,
    /// Final-assign seconds already measured on data of a probe shape.
    final_assign_p64: Option<f64>,
    final_assign_p3072: Option<f64>,
}

/// `kmeans-core`, `datasets` and host probes.
fn core_probes(out: &mut Sink, ctx: &ProbeCtx) -> Result<(), String> {
    let (rec, parent) = (ctx.rec, ctx.parent);

    let (triad, _) = rec.time("host/triad", parent, |_| host::triad());
    let ((fma, fma_label), _) = rec.time("host/peak_fma", parent, |_| host::peak_fma_gflops());
    out.put("host.nproc", host::nproc() as f64, "count");
    out.put("host.triad_gb_s", triad.gb_s, "GB/s");
    out.put("host.peak_fma_gflops", fma, "GFLOP/s");
    println!(
        "host: triad over 3 x {} B arrays (summed L2 {} B; the VM's shared LLC is not exceeded); \
         FMA peak is {fma_label}",
        triad.array_bytes, triad.l2_total_bytes
    );

    // --- P64: the paper shape.
    let (n, k, d) = P64;
    let (data, gen_s) = rec.time("datasets/mixture", parent, |_| {
        adapter::mixture(n, d, k, ctx.seed)
    });
    out.put("data.mixture_gen_s", gen_s, "s");
    let (init, kpp_s) = rec.time("kmeans-core/kmeanspp", parent, |_| {
        adapter::kmeanspp(&data, k, ctx.seed)
    });
    out.put("core.init.kmeanspp_s", kpp_s, "s");

    let plan = Plan::fresh(Kernel::Gemm, &init);
    let mut pairs: Vec<(u32, f32)> = Vec::with_capacity(n);
    let assign_s = median(
        &(0..3)
            .map(|_| {
                rec.time("kmeans-core/assign_batch", parent, |_| {
                    plan.assign_batch(&data, 0..n, &init, &mut pairs)
                })
                .1
            })
            .collect::<Vec<_>>(),
    );
    let flops = 2.0 * (n * k * d) as f64;
    let gflops = flops / assign_s / 1e9;
    // Computed from array sizes, not measured: samples and centroids read
    // once, one (label, key) pair written per sample.
    let bytes = (4 * (n * d + k * d) + 8 * n) as f64;
    let ops_per_byte = flops / bytes;
    out.put("core.assign.p64_samples_per_s", n as f64 / assign_s, "1/s");
    out.put("core.assign.p64_gflops", gflops, "GFLOP/s");
    out.put("core.assign.p64_ops_per_byte", ops_per_byte, "FLOP/B");
    out.put(
        "core.assign.p64_roofline_share",
        gflops / fma.min(ops_per_byte * triad.gb_s),
        "ratio",
    );
    let mut sums = vec![0.0f32; k * d];
    let mut counts = vec![0u64; k];
    let accumulate_s = median(
        &(0..3)
            .map(|_| {
                rec.time("kmeans-core/assign_accumulate", parent, |_| {
                    plan.assign_accumulate(&data, 0..n, &init, &mut pairs, &mut sums, &mut counts)
                })
                .1
            })
            .collect::<Vec<_>>(),
    );
    out.put("core.assign_accumulate.p64_s", accumulate_s, "s");

    let final_p64 = match ctx.final_assign_p64 {
        Some(s) => s,
        None => {
            rec.time("kmeans-core/assign_step", parent, |_| {
                adapter::final_assign(&data, &init)
            })
            .1
        }
    };
    out.put("core.final_assign.p64_s", final_p64, "s");

    // Serial Lloyd is iterations plus the same final pass: three capped
    // iterations, final pass subtracted.
    let (serial, lloyd_s) = rec.time("kmeans-core/lloyd", parent, |_| {
        adapter::lloyd_serial(&data, init.clone(), Kernel::Gemm, 3)
    });
    let serial = serial?;
    out.put(
        "core.lloyd.p64_iter_s",
        (lloyd_s - final_p64).max(0.0) / serial.iterations.max(1) as f64,
        "s",
    );

    let fresh_s = per_call_s(5, 50, || {
        black_box(Plan::fresh(Kernel::Gemm, &init));
    });
    let mut planner = Planner::new(Kernel::Gemm);
    black_box(planner.plan(&init));
    // 2 % of the centroid rows move between plans.
    let changed: Vec<bool> = (0..k).map(|j| j % 50 == 0).collect();
    let mut moved = init.clone();
    let cached_s = per_call_s(5, 50, || {
        for (j, _) in changed.iter().enumerate().filter(|(_, &c)| c) {
            adapter::nudge_row(&mut moved, j, 1e-3);
        }
        black_box(planner.plan_with_changed(&moved, &changed));
    });
    out.put("core.plan.fresh_us", fresh_s * 1e6, "us");
    out.put("core.plan.cached_us", cached_s * 1e6, "us");

    let (tail, _) = rec.time("kmeans-core/bounds_tail", parent, |_| {
        adapter::bounds_tail_pass(&data, &init)
    });
    let (tail_pass_s, tail_moved, tail_iters) = tail?;
    out.put("core.bounds.tail_pass_s", tail_pass_s, "s");
    println!(
        "core.bounds.tail_pass_s: filter pass at iteration {tail_iters}, {:.2} % of labels moved",
        tail_moved * 100.0
    );
    drop((data, init));

    // --- P3072: the wide shape.
    let (n, k, d) = P3072;
    let (wide, gen_s) = rec.time("datasets/imagenet", parent, |_| {
        adapter::imagenet_window(d, ctx.seed, 0, n)
    });
    out.put("data.imagenet_gen_s", gen_s, "s");
    let cent = adapter::rows_of(&wide, 0..k);
    let plan = Plan::fresh(Kernel::Gemm, &cent);
    let wide_s = median(
        &(0..2)
            .map(|_| {
                rec.time("kmeans-core/assign_batch", parent, |_| {
                    plan.assign_batch(&wide, 0..n, &cent, &mut pairs)
                })
                .1
            })
            .collect::<Vec<_>>(),
    );
    out.put("core.assign.p3072_samples_per_s", n as f64 / wide_s, "1/s");
    let final_p3072 = match ctx.final_assign_p3072 {
        Some(s) => s,
        None => {
            rec.time("kmeans-core/assign_step", parent, |_| {
                adapter::final_assign(&wide, &cent)
            })
            .1
        }
    };
    out.put("core.final_assign.p3072_s", final_p3072, "s");
    drop((wide, cent));

    // --- One row and sixteen rows against the 8 MB table: the gemm kernel
    // as matrix-vector, the serve_heavy regime.
    let (k, d) = HEAVY;
    let table = filler(k, d, ctx.seed);
    let queries = filler(16, d, ctx.seed ^ 1);
    let plan = Plan::fresh(Kernel::Gemm, &table);
    let ((row1_s, row16_s), _) = rec.time("kmeans-core/assign_rows", parent, |_| {
        (
            per_call_s(5, 10, || {
                plan.assign_batch(&queries, 0..1, &table, &mut pairs)
            }),
            per_call_s(5, 4, || {
                plan.assign_batch(&queries, 0..16, &table, &mut pairs)
            }),
        )
    });
    out.put("core.assign.row1_us", row1_s * 1e6, "us");
    out.put("core.assign.row16_us", row16_s * 1e6, "us");
    Ok(())
}

/// `msg` collectives at 2 and 8 ranks (fit regime: what the executors see).
fn msg_probes(out: &mut Sink, rec: &Recorder, parent: Option<u32>) {
    for (ranks, suffix) in [(2usize, "r2"), (8, "r8")] {
        let (p, _) = rec.time("msg/probe", parent, |_| adapter::msg_probe(ranks));
        for (name, value) in [
            ("msg.world_spawn_us", p.world_spawn_us),
            ("msg.barrier_us", p.barrier_us),
            ("msg.allreduce_64k_us", p.allreduce_64k_us),
            ("msg.allreduce_ring_64k_us", p.allreduce_ring_64k_us),
            ("msg.minloc_packed_4k_us", p.minloc_packed_4k_us),
            ("msg.p2p_rtt_us", p.p2p_rtt_us),
            ("msg.split_us", p.split_us),
        ] {
            out.put(&format!("{name}.{suffix}"), value, "us");
        }
    }
}

/// Channel, rayon stand-in and `swkm-obs` probes (serve regime: what the
/// request path sees).
fn request_path_probes(out: &mut Sink, rec: &Recorder, parent: Option<u32>) {
    let (c, _) = rec.time("crossbeam-channel/probe", parent, |_| adapter::chan_probe());
    for (name, value) in [
        ("chan.spsc_ns", c.spsc_ns),
        ("chan.mpsc_ns", c.mpsc_ns),
        ("chan.pingpong_ns", c.pingpong_ns),
        ("chan.bounded1_roundtrip_ns", c.bounded1_roundtrip_ns),
        ("chan.select2_ns", c.select2_ns),
        ("chan.select4_ns", c.select4_ns),
        ("chan.try_send_full_ns", c.try_send_full_ns),
    ] {
        out.put(name, value, "ns");
    }
    let (r, _) = rec.time("rayon/probe", parent, |_| adapter::rayon_probe());
    out.put("rayon.par_iter2_us", r.par_iter2_us, "us");
    out.put("rayon.par_iter4_us", r.par_iter4_us, "us");
    out.put("rayon.join_us", r.join_us, "us");
    let ((span_ns, counter_ns), _) = rec.time("swkm-obs/probe", parent, |_| adapter::obs_probe());
    out.put("obs.span_ns", span_ns, "ns");
    out.put("obs.counter_inc_ns", counter_ns, "ns");
}

/// The traced run of one workload: every per-layer metric.
pub fn run_traced(
    w: &Workload,
    cfg: &RunConfig,
    out_dir: &Path,
    provenance: &Json,
) -> Result<Outcome, String> {
    let rec = Recorder::new(true, w.name);
    let untraced = Recorder::new(false, w.name);
    let scratch = Scratch::new(out_dir)?;
    let mut ledger = Ledger::default();
    let mut out = Sink(Vec::new());
    let regime = Regime::settle(SETTLE_TIMEOUT_S);
    println!("host: {}", regime.settle);
    let root = rec.begin("bench/run", None);
    let fit_primary = w.fit_share > 0.5;

    // ------------------------------------------------------ fit regime
    let setup_span = rec.begin("bench/setup", root);
    let (inputs, _) = make_inputs(w, cfg.seed, &rec, setup_span);
    rec.end(setup_span);

    let fit_span = rec.begin("bench/fit_phase", root);
    let fits = FitPhase::start(w, &inputs, &rec, fit_span, &mut ledger)?;
    let fit_s = fits.walls[0];
    // The paper's per-iteration time measured wholly from outside: wall
    // difference of a short and a long fit per iteration of difference.
    let short = if w.verify_cap < w.cap {
        let (short, short_wall) = run_fit(
            w,
            &w.fit,
            &inputs,
            w.verify_cap,
            &rec,
            fit_span,
            &mut ledger,
        )?;
        out.put(
            "hier.iter_s_pair",
            (fit_s - short_wall) / (w.cap - w.verify_cap) as f64,
            "s",
        );
        Some(short)
    } else {
        out.put("hier.iter_s_pair", fit_s / w.cap as f64, "s");
        None
    };
    rec.end(fit_span);
    // The headline again with tracing off, for the overhead share.
    let mut overhead = None;
    if fit_primary {
        let (_, plain_wall) = run_fit(w, &w.fit, &inputs, w.cap, &untraced, None, &mut ledger)?;
        overhead = Some(fit_s / plain_wall - 1.0);
    }
    hier_metrics(&mut out, &fits.last, fit_s);

    // Scaling and L2 cover on this workload's data.
    let one_unit = FitSpec {
        units: 1,
        group_units: 1,
        ..w.fit
    };
    let iter_s_1u = aux_iter_s(w, &one_unit, &inputs, &rec, root)?;
    out.put("hier.iter_s_1u", iter_s_1u, "s");
    out.put(
        "hier.par_eff",
        iter_s_1u / (w.fit.units.min(host::nproc()) as f64 * fits.iter_s[0]),
        "ratio",
    );
    let l2 = FitSpec {
        partition: Partition::L2,
        units: 2,
        group_units: 2,
        ..w.fit
    };
    out.put(
        "hier.l2.iter_s",
        aux_iter_s(w, &l2, &inputs, &rec, root)?,
        "s",
    );

    // The pass `assemble` ends every fit with, on this workload's data.
    let (_, final_assign_s) = rec.time("kmeans-core/assign_step", root, |_| {
        adapter::final_assign(&inputs.data, &fits.last.centroids)
    });

    let probe_span = rec.begin("bench/probes", root);
    let ctx = ProbeCtx {
        seed: cfg.seed,
        rec: &rec,
        parent: probe_span,
        final_assign_p64: is_shape(w, P64).then_some(final_assign_s),
        final_assign_p3072: is_shape(w, P3072).then_some(final_assign_s),
    };
    core_probes(&mut out, &ctx)?;
    msg_probes(&mut out, &rec, probe_span);
    rec.end(probe_span);

    // Reconciliation: do the probes account for the fit's wall?
    let spawn_name = if w.fit.units <= 2 {
        "msg.world_spawn_us.r2"
    } else {
        "msg.world_spawn_us.r8"
    };
    let spawn_s = out
        .0
        .iter()
        .find(|m| m.name == spawn_name)
        .map_or(0.0, |m| m.value * 1e-6);
    let iter_wall_s = fits.last.phases.iter_wall_s;
    let recon = (final_assign_s + spawn_s + iter_wall_s) / fit_s;
    out.put("hier.recon_ratio", recon, "ratio");
    if !(0.9..=1.1).contains(&recon) {
        println!(
            "WARN hier.recon_ratio {recon:.3} outside 0.9-1.1: final assign {final_assign_s:.4} s + \
             rank spawn {spawn_s:.6} s + iterations {iter_wall_s:.4} s vs fit {fit_s:.4} s"
        );
    }

    // ---------------------------------------------------- serve regime
    regime.serve();
    let artifact = served_artifact(w, &inputs, &fits.last);
    let (expected, mut verify_s) = timed(|| expected_labels(w, &artifact, &inputs.pool));
    let serve_span = rec.begin("bench/serve_setup", root);
    let mut rig = serve_setup(
        w,
        &artifact,
        &inputs,
        &expected,
        &scratch.sub("store"),
        cfg.seed,
        &rec,
        serve_span,
    )?;
    rec.end(serve_span);
    account_requests(&mut ledger, &rig.totals, "warm-up");
    let setup = rig.setup;

    // Serve windows scale with --seconds; the traced one carries a span on
    // every 64th request of each caller.
    let window_s = (cfg.seconds / 6.0).clamp(0.5, 4.0);
    let before = rig.server.snapshot();
    let phase_span = rec.begin("bench/serve_phase", root);
    let (mut traced_totals, traced_wall) = run_clients(
        &rig.server,
        &inputs.pool,
        &expected,
        CLIENTS,
        cfg.seed,
        window_s,
        &rec,
        phase_span,
    );
    rec.end(phase_span);
    let after = rig.server.snapshot();
    account_requests(&mut ledger, &traced_totals, "serve (traced)");
    let traced_qps = traced_totals.verified as f64 / traced_wall;
    if !fit_primary {
        let (plain, plain_wall) = run_clients(
            &rig.server,
            &inputs.pool,
            &expected,
            CLIENTS,
            cfg.seed ^ 0xbbbb,
            window_s,
            &untraced,
            None,
        );
        account_requests(&mut ledger, &plain, "serve (untraced)");
        overhead = Some((plain.verified as f64 / plain_wall) / traced_qps - 1.0);
        rig.totals.absorb(&plain);
    }
    let p50_us = traced_totals.lat.percentile(50.0)? as f64 / 1e3;
    // Non-gating: when too few samples lie beyond p99.9 the highest
    // percentile with ten beyond it stands in, and the line below says so.
    let p999_us = match traced_totals.lat.percentile(99.9) {
        Ok(ns) => ns as f64 / 1e3,
        Err(why) => {
            println!("serve.lat_p999_us: {why}; reporting the highest admissible percentile");
            let p = 100.0 * (1.0 - 10.5 / traced_totals.lat.len() as f64);
            traced_totals.lat.percentile(p.max(50.0))? as f64 / 1e3
        }
    };
    let batches = (after.batches - before.batches).max(1);
    out.put("serve.batches", batches as f64, "count");
    out.put(
        "serve.batch_mean",
        (after.completed - before.completed) as f64 / batches as f64,
        "count",
    );
    out.put(
        "serve.steals",
        (after.steals - before.steals) as f64,
        "count",
    );
    out.put("serve.rejected", after.rejected as f64, "count");
    // log2-bucket upper bounds, as the server reports them.
    out.put(
        "serve.queue_wait_p50_ns",
        after.queue_wait_p50_ns as f64,
        "ns",
    );
    out.put("serve.execute_p50_ns", after.execute_p50_ns as f64, "ns");
    out.put("serve.lat_p999_us", p999_us, "us");
    rig.totals.absorb(&traced_totals);

    // Eight callers: the only place queueing and micro-batching appear.
    let before = rig.server.snapshot();
    let c8_span = rec.begin("bench/serve_c8", root);
    let (mut c8, c8_wall) = run_clients(
        &rig.server,
        &inputs.pool,
        &expected,
        8,
        cfg.seed ^ 0xc8,
        (window_s * 0.75).max(0.5),
        &rec,
        c8_span,
    );
    rec.end(c8_span);
    let after = rig.server.snapshot();
    account_requests(&mut ledger, &c8, "serve (8 callers)");
    out.put("serve.c8.qps", c8.verified as f64 / c8_wall, "1/s");
    out.put(
        "serve.c8.lat_p99_us",
        c8.lat.percentile(99.0)? as f64 / 1e3,
        "us",
    );
    out.put(
        "serve.c8.batch_mean",
        (after.completed - before.completed) as f64
            / (after.batches - before.batches).max(1) as f64,
        "count",
    );
    rig.totals.absorb(&c8);

    // Index alone, outside the server: one row and sixteen.
    let (d, pool_rows) = (inputs.pool[0].len(), &inputs.pool);
    let batch = |rows: usize| {
        adapter::mat_from_vec(
            rows,
            d,
            pool_rows[..rows].iter().flatten().copied().collect(),
        )
    };
    let (one, sixteen) = (batch(1), batch(16));
    let index = rig.index.clone();
    index.assign_batch(&one)?;
    let ((row1_s, row16_s), _) = rec.time("swkm-serve/index_rows", root, |_| {
        (
            per_call_s(5, 40, || {
                black_box(index.assign_batch(&one).expect("index scan"));
            }),
            per_call_s(5, 10, || {
                black_box(index.assign_batch(&sixteen).expect("index scan"));
            }),
        )
    });
    out.put("serve.index.row1_us", row1_s * 1e6, "us");
    out.put("serve.index.row16_us", row16_s * 1e6, "us");
    out.put("serve.dispatch_overhead_us", p50_us - row1_s * 1e6, "us");
    // What one CPU could reach if a request cost only its scan.
    let ceiling = 1.0 / row1_s;
    out.put("serve.ceiling_qps", ceiling, "1/s");
    out.put("serve.qps_over_ceiling", traced_qps / ceiling, "ratio");

    let (swap, swap_s) = rec.time("swkm-serve/swap_model", root, |_| {
        rig.server.swap(index.clone(), 1)
    });
    swap?;
    let bytes = artifact.encode();
    let (decoded, decode_s) = rec.time("swkm-serve/artifact_decode", root, |_| {
        adapter::Artifact::decode(&bytes)
    });
    decoded?;
    drop(bytes);
    let (_, shutdown_s) = serve_shutdown(rig.server, &rig.totals, &mut ledger);
    out.put("serve.start_ms", setup.start_s * 1e3, "ms");
    out.put("serve.shutdown_ms", shutdown_s * 1e3, "ms");
    out.put("serve.swap_install_us", swap_s * 1e6, "us");
    out.put("serve.artifact.encode_ms", setup.encode_s * 1e3, "ms");
    out.put("serve.artifact.decode_ms", decode_s * 1e3, "ms");
    out.put("serve.artifact.bytes", setup.artifact_bytes as f64, "B");
    out.put("store.publish_ms", setup.publish_s * 1e3, "ms");
    out.put("store.load_live_ms", setup.load_live_s * 1e3, "ms");
    out.put("store.bytes", setup.store_bytes as f64, "B");

    let path_span = rec.begin("bench/probes", root);
    request_path_probes(&mut out, &rec, path_span);
    rec.end(path_span);

    // ------------------------------------------ back to all CPUs: verify
    regime.fit();
    let verify_span = rec.begin("bench/verify", root);
    let (verified, fit_verify_s) =
        timed(|| verify_fits(w, &inputs, &fits, short.as_ref(), &mut ledger));
    rec.end(verify_span);
    verified?;
    verify_s += fit_verify_s;

    out.put(
        "trace.overhead_share",
        overhead.expect("set on both branches"),
        "ratio",
    );
    out.put("bench.verify_s", verify_s, "s");
    out.put(
        "fail_share",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        "ratio",
    );
    rec.end(root);
    drop(regime);

    // --- Write the spans and the per-layer table.
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let trace_path = out_dir.join(format!("trace-{}.json", w.name));
    std::fs::write(&trace_path, rec.to_json().pretty())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let self_s = Json::Obj(
        rec.layer_self_s()
            .into_iter()
            .map(|(layer, (secs, spans))| {
                (
                    layer,
                    Json::obj([
                        ("self_s", Json::Num(secs)),
                        ("spans", Json::Num(spans as f64)),
                    ]),
                )
            })
            .collect(),
    );
    let layers = Json::obj([
        ("workload", Json::str(w.name)),
        ("provenance", provenance.clone()),
        ("layer_self_time", self_s.clone()),
        ("metrics", crate::workloads::metrics_json(&out.0)),
    ]);
    let layers_path = out_dir.join(format!("layers-{}.json", w.name));
    std::fs::write(&layers_path, layers.pretty())
        .map_err(|e| format!("{}: {e}", layers_path.display()))?;

    let detail = Json::obj([
        ("trace_file", Json::str(trace_path.display().to_string())),
        ("layers_file", Json::str(layers_path.display().to_string())),
        (
            "objective_bits_hex",
            Json::str(format!("{:#018x}", fits.last.objective.to_bits())),
        ),
        ("fit_s", Json::Num(fit_s)),
        ("final_assign_s", Json::Num(final_assign_s)),
        ("layer_self_time", self_s),
        (
            "data",
            Json::str(match w.data {
                DataSpec::Mixture { .. } => "mixture",
                DataSpec::ImageNet { .. } => "imagenet",
            }),
        ),
        ("cap", Json::Num(w.cap as f64)),
    ]);
    Ok(Outcome {
        ledger,
        metrics: out.0,
        detail,
    })
}
