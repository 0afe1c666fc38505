//! What the run ran on: provenance for every output, the process's peak
//! RSS, and the two roofline denominators (memory bandwidth, FMA peak)
//! measured in the same run as the kernels they bound.

use crate::json::Json;
use crate::stats::median;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    read_trimmed("/proc/cpuinfo")
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size in bytes of one cache of `cpu0` at `level` (unified or data).
fn cache_bytes(level: u32) -> Option<u64> {
    (0..8).find_map(|idx| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        if read_trimmed(format!("{dir}/level"))? != level.to_string()
            || read_trimmed(format!("{dir}/type"))? == "Instruction"
        {
            return None;
        }
        let size = read_trimmed(format!("{dir}/size"))?;
        let (digits, mult) = match size.as_bytes().last()? {
            b'K' => (&size[..size.len() - 1], 1024),
            b'M' => (&size[..size.len() - 1], 1024 * 1024),
            _ => (&size[..], 1),
        };
        digits.parse::<u64>().ok().map(|n| n * mult)
    })
}

fn command_line(program: &str, args: &[&str], dir: Option<&Path>) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(dir) = dir {
        cmd.current_dir(dir);
    }
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `(commit, dirty)` of the checkout holding the benchmark, when it is a
/// git work tree (the acceptance checkout is not).
fn git_state(repo_root: &Path) -> (String, Option<bool>) {
    if !repo_root.join(".git").exists() {
        return ("not-a-git-checkout".into(), None);
    }
    let commit = command_line("git", &["rev-parse", "HEAD"], Some(repo_root))
        .unwrap_or_else(|| "unknown".into());
    let dirty =
        command_line("git", &["status", "--porcelain"], Some(repo_root)).map(|s| !s.is_empty());
    (commit, dirty)
}

/// The provenance block carried by every output file and printed before
/// every result line.
pub fn provenance(repo_root: &Path, seed: u64, seconds: f64) -> Json {
    let (commit, dirty) = git_state(repo_root);
    let l2 = cache_bytes(2);
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model())),
        (
            "l2_bytes_per_core",
            l2.map_or(Json::Null, |b| Json::Num(b as f64)),
        ),
        (
            "llc_bytes",
            cache_bytes(3).map_or(Json::Null, |b| Json::Num(b as f64)),
        ),
        (
            "rustc",
            Json::str(
                command_line("rustc", &["--version"], None).unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("git_commit", Json::str(commit)),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
    ])
}

/// Peak resident set of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    read_trimmed("/proc/self/status")
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub struct Triad {
    pub gb_s: f64,
    pub array_bytes: usize,
    pub l2_total_bytes: usize,
}

/// STREAM triad `a[i] = b[i] + s·c[i]` on one thread. Each array is at
/// least four times the summed L2 so the loop streams from beyond L2; the
/// 260 MiB LLC this VM reports is shared with the host's other guests and
/// is not exceeded — the figure is "bandwidth past L2", stated as such.
pub fn triad() -> Triad {
    let l2_total = cache_bytes(2).unwrap_or(2 << 20) as usize * nproc();
    let elems = (4 * l2_total).div_ceil(8).max(1 << 20);
    let b = vec![1.0f64; elems];
    let c = vec![2.0f64; elems];
    let mut a = vec![0.0f64; elems];
    let mut pass = |s: f64| {
        let start = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        black_box(&mut a);
        start.elapsed().as_secs_f64()
    };
    pass(0.5);
    let times: Vec<f64> = (0..5).map(|i| pass(1.0 + i as f64)).collect();
    Triad {
        gb_s: (3 * elems * 8) as f64 / median(&times) / 1e9,
        array_bytes: elems * 8,
        l2_total_bytes: l2_total,
    }
}

const FMA_ITERS: usize = 2_000_000;

/// Single-thread f32 multiply-add peak in GFLOP/s: eight independent
/// 8-lane accumulators of fused multiply-adds where the CPU has AVX2+FMA,
/// a scalar multiply-add chain otherwise (the label says which).
pub fn peak_fma_gflops() -> (f64, &'static str) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                // SAFETY: `fma_avx2` requires the avx2 and fma target
                // features, both detected on this CPU just above.
                black_box(unsafe { fma_avx2(black_box(1.000_001), FMA_ITERS) });
                start.elapsed().as_secs_f64()
            })
            .collect();
        let flops = (FMA_ITERS * 8 * 8 * 2) as f64;
        return (flops / median(&times) / 1e9, "avx2+fma f32, 1 thread");
    }
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let m = black_box(1.000_001f32);
            let mut acc = [0.5f32; 8];
            for _ in 0..FMA_ITERS {
                for a in &mut acc {
                    *a = *a * m + 0.25;
                }
            }
            black_box(acc);
            start.elapsed().as_secs_f64()
        })
        .collect();
    (
        (FMA_ITERS * 8 * 2) as f64 / median(&times) / 1e9,
        "scalar mul+add f32, 1 thread",
    )
}

/// # Safety
/// The caller must have verified that the CPU supports `avx2` and `fma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_avx2(m: f32, iters: usize) -> f32 {
    use std::arch::x86_64::*;
    let mul = _mm256_set1_ps(m);
    let add = _mm256_set1_ps(0.25);
    let mut acc = [_mm256_set1_ps(0.5); 8];
    for _ in 0..iters {
        for a in &mut acc {
            *a = _mm256_fmadd_ps(*a, mul, add);
        }
    }
    let mut sum = acc[0];
    for a in &acc[1..] {
        sum = _mm256_add_ps(sum, *a);
    }
    let mut lanes = [0.0f32; 8];
    // SAFETY: `lanes` is 8 f32 = 32 bytes; `storeu` has no alignment need.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), sum) };
    lanes.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_numbers_are_positive() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.0);
        let (gflops, label) = peak_fma_gflops();
        assert!(gflops > 0.0, "{label}");
    }
}
