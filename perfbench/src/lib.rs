//! End-to-end, per-layer benchmark of the ThyNVM simulator.
//!
//! Four closed-loop workloads run through the public `CoreModel`,
//! `MemorySystem` and `PersistentMemory` entry points (see `RATIONALE.md`
//! beside this package for why each was chosen and which layer metric
//! should move which end-to-end metric). One run repeats a fixed-size
//! iteration of one workload for a given number of host seconds and
//! reports medians; every iteration must reproduce the same simulated
//! statistics, and, for seeds listed in `fingerprints.txt`, the recorded
//! fingerprint.
//!
//! The simulated machine is an unvalidated model: the repository holds no
//! gem5 or hardware measurements to compare against, so no error figure is
//! given for any simulated metric.

#![warn(missing_docs)]

pub mod probe;
pub mod replay;
pub mod report;
pub mod workloads;

use std::time::{Duration, Instant};

use thynvm::types::SystemConfig;

use crate::probe::Probe;
use crate::report::Metric;
use crate::workloads::{run_iteration, Inputs, Iteration, Scale, Workload};

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed reserved for confirming later performance claims: no tuning is
/// done on it.
pub const HELD_OUT_SEED: u64 = 20_151_205;

/// Fingerprints of the simulated statistics at [`Scale::FULL`], one
/// `<workload> <seed> <hex>` line each.
const RECORDED: &str = include_str!("../fingerprints.txt");

/// The recorded fingerprint of `workload` at `seed`, if there is one.
pub fn recorded_fingerprint(workload: Workload, seed: u64) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        match (f.next(), f.next().map(str::parse::<u64>), f.next()) {
            (Some(w), Some(Ok(s)), Some(hex)) if w == workload.name() && s == seed => {
                u64::from_str_radix(hex, 16).ok()
            }
            _ => None,
        }
    })
}

/// What one run found.
#[derive(Debug)]
pub struct Outcome {
    /// No failed operation, every iteration reproduced the first one's
    /// simulated statistics, and they match the recorded fingerprint.
    pub correct: bool,
    /// Operations attempted over all iterations.
    pub attempted: u64,
    /// Operations failed over all iterations.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Fingerprint of the simulated statistics of the first iteration.
    pub fingerprint: u64,
    /// Whether every iteration had the same fingerprint.
    pub repeatable: bool,
    /// Iterations run.
    pub iterations: usize,
    /// `(raw events per host second, raw set-up seconds, calibration
    /// seconds)` of each untraced iteration, in run order.
    pub per_iteration: Vec<(f64, f64, f64)>,
    /// Host-time records and spans of the traced iterations.
    pub trace: Probe,
}

/// Runs `workload` for about `seconds` host seconds (at least a few whole
/// iterations). With `trace`, iterations alternate between untraced and
/// traced, and the per-layer metrics are reported.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
    recorded: Option<u64>,
) -> Outcome {
    let epoch = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let min_iters = if trace { 4 } else { 3 };
    let mut merged = Probe::new(epoch, 0);
    let mut untraced: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let mut replay = None;
    let mut inputs = Inputs::default();
    let mut calib_before = calibrate();
    loop {
        let traced_now = trace && (untraced.len() + traced.len()) % 2 == 1;
        let mut probe = Probe::new(epoch, merged.next_span());
        if traced_now && traced.is_empty() && workload == Workload::RandomHardened {
            probe.capture = Some(Vec::new());
        }
        let mut it = run_iteration(workload, seed, scale, traced_now, probe, &mut inputs);
        let calib_after = calibrate();
        it.calib_s = (calib_before + calib_after) / 2.0;
        calib_before = calib_after;
        if let Some(reqs) = it.probe.capture.take() {
            replay = Some(replay::replay(&reqs, &SystemConfig::paper()));
        }
        if traced_now {
            merged.merge_trace(&it.probe);
            traced.push(it);
        } else {
            untraced.push(it);
        }
        if epoch.elapsed() >= budget && untraced.len() + traced.len() >= min_iters {
            break;
        }
    }

    let all = || untraced.iter().chain(&traced);
    let fingerprint = report::fingerprint(workload, &untraced[0]);
    let repeatable = all().all(|it| report::fingerprint(workload, it) == fingerprint);
    let attempted = all().map(|it| it.attempted).sum();
    let failed = all().map(|it| it.failed).sum();
    let metrics = if trace {
        report::per_layer(workload, &untraced, &traced, replay)
    } else {
        report::end_to_end(&untraced, peak_rss_mib())
    };
    Outcome {
        correct: failed == 0 && repeatable && recorded.is_none_or(|r| r == fingerprint),
        attempted,
        failed,
        metrics,
        fingerprint,
        repeatable,
        iterations: untraced.len() + traced.len(),
        per_iteration: untraced
            .iter()
            .map(|it| (report::raw_events_per_s(it), it.setup_s, it.calib_s))
            .collect(),
        trace: merged,
    }
}

/// Host seconds the calibration kernel takes on an uncontended host (a
/// quiet phase of the 2-vCPU Xeon VM the benchmark was tuned on).
pub const CALIB_REFERENCE_S: f64 = 0.0125;

/// Host seconds a fixed calibration kernel takes right now: a
/// xorshift-driven read-modify-write walk over a 1 MiB table with a
/// data-dependent branch. It is the benchmark's own code, so no change to
/// the simulator moves it; what moves it is the host (contention from
/// other tenants, frequency), which slows the simulator too. Run between
/// iterations, it lets host times be scaled to the reference host speed.
pub fn calibrate() -> f64 {
    const SLOTS: usize = 1 << 18;
    const STEPS: usize = 4_000_000;
    let mut table: Vec<u32> = (0..SLOTS as u32)
        .map(|i| i.wrapping_mul(0x9E37_79B1))
        .collect();
    let mut x = 0x2545_F491_u32;
    let mut acc = 0u64;
    let t0 = Instant::now();
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let i = x as usize & (SLOTS - 1);
        let v = table[i];
        if v & 1 == 0 {
            acc = acc.wrapping_add(u64::from(v));
        } else {
            acc ^= u64::from(v).wrapping_mul(3);
        }
        table[i] = v.rotate_left(3) ^ x;
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// The process's peak resident set size in MiB, from `getrusage`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mib() -> f64 {
    /// Linux's 64-bit `struct rusage`: two `timeval`s, then 14 `long`s of
    /// which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, exclusively borrowed value laid out as the
    // C `struct rusage` of 64-bit Linux, which `getrusage` fills and does
    // not retain.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    usage.maxrss_kib as f64 / 1024.0
}

/// The process's peak resident set size in MiB (not measured on this
/// platform).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_mib() -> f64 {
    0.0
}
