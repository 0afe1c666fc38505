//! Control of where the reference box runs the benchmark's threads.
//!
//! The box is a 2-vCPU VM whose host moves the two vCPU threads around:
//! after a quiet spell they share one physical core (two compute threads
//! each run at half speed, a cross-vCPU wake-up costs ~3 µs), after a
//! second or two of load on both they sit on two cores (full speed each,
//! ~35 µs per wake-up). A fit is twice as slow in the first placement and
//! serving a third slower in the second, and the placement changes under a
//! run. Two regimes make the numbers repeat:
//!
//! * **fit regime** — a low-priority (`SCHED_IDLE`) busy thread pinned to
//!   each CPU keeps both vCPUs runnable, so the host keeps them on two
//!   cores; the run first waits until two compute threads run as fast as
//!   one. Fits, compute probes and `msg` probes run here, on all CPUs.
//! * **serve regime** — the busy threads sleep and the process is confined
//!   to one CPU, so every wake-up of the request path is a local context
//!   switch whatever the placement. Serving, and the channel and rayon
//!   stand-in probes under it, run here.

use crate::host::nproc;
use std::hint::black_box;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

#[cfg(target_os = "linux")]
mod sched {
    #[repr(C)]
    pub struct SchedParam {
        pub sched_priority: i32,
    }
    pub const SCHED_IDLE: i32 = 5;
    extern "C" {
        pub fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// Restrict the calling thread, and every thread it spawns from now on,
/// to the CPUs in `mask`. Best effort: a refusal leaves the thread where
/// it was.
fn set_affinity(mask: u64) {
    #[cfg(target_os = "linux")]
    // SAFETY: pid 0 names the calling thread; the pointer is to a live
    // u64 and the size passed is its size.
    unsafe {
        sched::sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
    }
    #[cfg(not(target_os = "linux"))]
    let _ = mask;
}

fn all_cpus() -> u64 {
    match nproc() {
        n if n >= 64 => u64::MAX,
        n => (1u64 << n) - 1,
    }
}

const SPIN: u8 = 0;
const SLEEP: u8 = 1;
const EXIT: u8 = 2;

/// One `SCHED_IDLE` busy thread per CPU: they run only when a CPU has
/// nothing else to do, so they take no time from the program, but the
/// host sees both vCPUs busy.
struct IdlePollers {
    state: Arc<AtomicU8>,
    threads: Vec<JoinHandle<()>>,
}

impl IdlePollers {
    fn start() -> IdlePollers {
        let state = Arc::new(AtomicU8::new(SPIN));
        let threads = (0..nproc().min(64))
            .map(|cpu| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    set_affinity(1 << cpu);
                    #[cfg(target_os = "linux")]
                    {
                        let param = sched::SchedParam { sched_priority: 0 };
                        // SAFETY: pid 0 names the calling thread; `param`
                        // is a live, correctly laid out `sched_param`.
                        unsafe {
                            sched::sched_setscheduler(0, sched::SCHED_IDLE, &param);
                        }
                    }
                    let mut n = 0u64;
                    loop {
                        match state.load(Ordering::Relaxed) {
                            SPIN => n = black_box(n.wrapping_add(1)),
                            SLEEP => std::thread::park(),
                            _ => break,
                        }
                    }
                })
            })
            .collect();
        IdlePollers { state, threads }
    }

    fn set(&self, state: u8) {
        self.state.store(state, Ordering::Relaxed);
        for t in &self.threads {
            t.thread().unpark();
        }
    }
}

impl Drop for IdlePollers {
    fn drop(&mut self) {
        self.set(EXIT);
        for t in self.threads.drain(..) {
            // A poller cannot panic; nothing to report.
            let _ = t.join();
        }
    }
}

/// Seconds of a fixed single-thread arithmetic loop (~5 ms).
fn compute_burst() -> f64 {
    let start = Instant::now();
    let m = black_box(1.000_001f32);
    let mut acc = [0.5f32; 16];
    for _ in 0..2_000_000 {
        for a in &mut acc {
            *a = *a * m + 0.25;
        }
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

pub struct Regime {
    pollers: IdlePollers,
    /// How the wait for two-core placement went, for the log.
    pub settle: String,
}

impl Regime {
    /// Load both CPUs until two compute threads run as fast as one (the
    /// host has put the vCPUs on two cores) or `timeout_s` passes, then
    /// enter the fit regime.
    pub fn settle(timeout_s: f64) -> Regime {
        let start = Instant::now();
        let mut ratio = 1.0;
        let mut good = 0;
        let mut rounds = 0;
        while nproc() >= 2 && good < 3 && start.elapsed().as_secs_f64() < timeout_s {
            let alone = compute_burst();
            let paired = std::thread::scope(|s| {
                let other = s.spawn(|| (0..4).map(|_| compute_burst()).sum::<f64>());
                let mine: f64 = (0..4).map(|_| compute_burst()).sum();
                mine.max(other.join().expect("burst thread panicked")) / 4.0
            });
            ratio = paired / alone;
            good = if ratio < 1.3 { good + 1 } else { 0 };
            rounds += 1;
        }
        let settle = format!(
            "two-core placement {} after {:.2} s ({rounds} probes, last paired/alone ratio {ratio:.2})",
            if good >= 3 || nproc() < 2 { "seen" } else { "NOT seen" },
            start.elapsed().as_secs_f64()
        );
        Regime {
            pollers: IdlePollers::start(),
            settle,
        }
    }

    /// Busy pollers on, all CPUs allowed.
    pub fn fit(&self) {
        set_affinity(all_cpus());
        self.pollers.set(SPIN);
    }

    /// Pollers asleep, the calling thread and its future children on CPU 0.
    pub fn serve(&self) {
        self.pollers.set(SLEEP);
        set_affinity(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regimes_switch_and_pollers_stop() {
        let regime = Regime::settle(0.05);
        assert!(regime.settle.contains("placement"));
        regime.serve();
        regime.fit();
        regime.serve();
        drop(regime);
        set_affinity(all_cpus());
        assert!(compute_burst() > 0.0);
    }
}
