//! The four workloads. Each iteration generates its inputs from the seed,
//! builds fresh systems (the modelled caches start empty) and runs them
//! closed loop: one simulated in-order core, or one KV client, waits on
//! every blocking call, driven by one host thread.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use thynvm::baselines::{IdealDram, IdealNvm, Journaling, ShadowPaging};
use thynvm::cache::CoreModel;
use thynvm::core::ThyNvm;
use thynvm::types::{
    Cycle, MemStats, MemorySystem, PersistBufferConfig, PersistentMemory, PhysAddr, SystemConfig,
    TraceEvent,
};
use thynvm::workloads::spec::SPEC_2006;
use thynvm::workloads::{MicroConfig, MicroPattern, SpecWorkload, Zipf};

use crate::probe::{Inspect, Probe, Shim};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ThyNVM (paper config) under the eight SPEC CPU2006 profiles.
    SpecMix,
    /// Hardened ThyNVM with the persist buffer armed, uniform random.
    RandomHardened,
    /// The paper's five systems on one sliding-window trace.
    Fig7Sliding,
    /// A key-value loop over the functional store with crashes.
    KvCrash,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SpecMix,
        Workload::RandomHardened,
        Workload::Fig7Sliding,
        Workload::KvCrash,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpecMix => "spec-mix",
            Workload::RandomHardened => "random-hardened",
            Workload::Fig7Sliding => "fig7-sliding",
            Workload::KvCrash => "kv-crash",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Trace events per SPEC profile (`spec-mix`).
    pub spec_events: u64,
    /// Trace events (`random-hardened`).
    pub random_events: u64,
    /// Trace events, run once on each of the five systems (`fig7-sliding`).
    pub sliding_events: u64,
    /// Reads plus updates (`kv-crash`).
    pub kv_ops: u64,
    /// Distinct keys (`kv-crash`).
    pub kv_keys: u32,
    /// KV operations between two durability points.
    pub kv_persist_every: u64,
    /// Durability points between two power failures.
    pub kv_crash_every: u64,
}

impl Scale {
    /// The measured sizes: one to two seconds of host time per iteration.
    pub const FULL: Scale = Scale {
        spec_events: 1_000_000,
        random_events: 1_000_000,
        sliding_events: 500_000,
        kv_ops: 2_000_000,
        kv_keys: 64 * 1024,
        kv_persist_every: 500,
        kv_crash_every: 100,
    };

    /// Miniature sizes for the self-tests.
    pub const MINI: Scale = Scale {
        spec_events: 4_000,
        random_events: 4_000,
        sliding_events: 4_000,
        kv_ops: 20_000,
        kv_keys: 1024,
        kv_persist_every: 200,
        kv_crash_every: 10,
    };
}

/// KV value size in bytes.
pub const VALUE_BYTES: usize = 256;

/// Simulated counters of one iteration, by name (raw sums over sub-runs).
pub type Tally = BTreeMap<String, f64>;

fn add(tally: &mut Tally, name: &str, v: f64) {
    *tally.entry(name.to_owned()).or_insert(0.0) += v;
}

/// The outcome of one iteration.
#[derive(Debug)]
pub struct Iteration {
    /// Trace events, or KV reads plus updates, completed.
    pub events: u64,
    /// Operations attempted: `events` plus KV durability points and power
    /// failures.
    pub attempted: u64,
    /// Failed operations: wrong loads, drained errors, broken ledgers.
    pub failed: u64,
    /// Host seconds generating inputs.
    pub gen_s: f64,
    /// Host seconds generating inputs and building systems and cores.
    pub setup_s: f64,
    /// Host seconds running.
    pub run_s: f64,
    /// Simulated counters (deterministic for a seed and scale).
    pub tally: Tally,
    /// Simulated cycles from each power failure until the system was
    /// usable again.
    pub recoveries: Vec<u64>,
    /// Content fingerprint of the KV image at the end (0 elsewhere).
    pub image: u64,
    /// Host seconds of the calibration kernel: the mean of its runs just
    /// before and just after this iteration.
    pub calib_s: f64,
    /// Per-boundary records of this iteration.
    pub probe: Probe,
}

/// Mixes `salt` into `seed` (SplitMix64 finaliser).
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counts the conservation ledgers in `s` that do not balance.
fn broken_ledgers(s: &MemStats) -> u64 {
    let holds = [
        s.wpq.drained + s.wpq.dropped_at_crash <= s.wpq.enqueued,
        s.security.classified_total() == s.security.tampers_detected,
        s.security.detections_accounted() == s.security.tampers_detected,
        s.dram.poison_accounted() <= s.dram.poisoned_blocks,
        s.crashes_injected
            == s.recoveries_to_clast + s.recoveries_to_cpenult + s.recoveries_unrecoverable,
    ];
    holds.iter().filter(|ok| !**ok).count() as u64
}

/// State shared by the sub-runs of one iteration.
struct Ctx {
    probe: Probe,
    tally: Tally,
    recoveries: Vec<u64>,
    image: u64,
    failed: u64,
    gen_s: f64,
    build_s: f64,
    run_s: f64,
}

impl Ctx {
    fn timed<R>(secs: &mut f64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        *secs += t0.elapsed().as_secs_f64();
        out
    }

    fn gen<R>(&mut self, f: impl FnOnce() -> R) -> R {
        Self::timed(&mut self.gen_s, f)
    }

    fn build<R>(&mut self, f: impl FnOnce() -> R) -> R {
        Self::timed(&mut self.build_s, f)
    }

    /// Runs `events` through a fresh core over `sys`, then tallies the core
    /// and the memory-side totals. Returns the final cycle.
    fn drive<M: MemorySystem + Inspect, const T: bool>(
        &mut self,
        core: &mut CoreModel,
        shim: &mut Shim<M, T>,
        events: &[TraceEvent],
    ) -> Cycle {
        let end = Self::timed(&mut self.run_s, || {
            core.run_trace(events.iter().copied(), shim)
        });
        let t = &mut self.tally;
        let [(h1, m1), (h2, m2), (h3, m3)] = core.hierarchy().hit_miss_counts();
        for (name, v) in [
            ("cache.l1_hits", h1),
            ("cache.l1_misses", m1),
            ("cache.l2_hits", h2),
            ("cache.l2_misses", m2),
            ("cache.l3_hits", h3),
            ("cache.l3_misses", m3),
            (
                "cache.mem_stall_cycles",
                core.stats().mem_stall_cycles.raw(),
            ),
            (
                "cache.flush_stall_cycles",
                core.stats().flush_stall_cycles.raw(),
            ),
            ("cache.flushes", core.stats().flushes),
            ("cache.instructions", core.stats().instructions),
        ] {
            add(t, name, v as f64);
        }
        let s = shim.inner().stats();
        add(t, "sim.cycles", end.raw() as f64);
        add(t, "sim.nvm_write_bytes", s.nvm_write_bytes_total() as f64);
        add(t, "sim.ckpt_stall_cycles", s.ckpt_stall_cycles.raw() as f64);
        self.failed += broken_ledgers(s);
        end
    }

    /// A ThyNVM core run followed by a power failure at its end.
    fn thynvm_core_run<const T: bool>(
        &mut self,
        run: &str,
        cfg: SystemConfig,
        events: &[TraceEvent],
    ) {
        let (sys, mut core) = self.build(|| (ThyNvm::new(cfg), CoreModel::new(cfg.cache)));
        let mut shim = self.probe.shim::<_, T>("core", run, sys);
        let end = self.drive(&mut core, &mut shim, events);
        let usable = Self::timed(&mut self.run_s, || shim.power_fail(end));
        self.recoveries.push(usable.saturating_sub(end).raw());
        let sys = self.probe.absorb(shim);
        self.tally_thynvm(&sys);
    }

    /// A baseline core run for `fig7-sliding`.
    fn baseline_run<M: MemorySystem + Inspect, const T: bool>(
        &mut self,
        label: &'static str,
        cfg: SystemConfig,
        make: impl FnOnce(SystemConfig) -> M,
        events: &[TraceEvent],
    ) {
        let (sys, mut core) = self.build(|| (make(cfg), CoreModel::new(cfg.cache)));
        let mut shim = self.probe.shim::<_, T>(label, label, sys);
        let end = self.drive(&mut core, &mut shim, events);
        let sys = self.probe.absorb(shim);
        add(
            &mut self.tally,
            &format!("{label}.sim_cycles"),
            end.raw() as f64,
        );
        add(
            &mut self.tally,
            &format!("{label}.nvm_write_bytes"),
            sys.stats().nvm_write_bytes_total() as f64,
        );
    }

    /// The ThyNVM controller's own counters, after its sub-run.
    fn tally_thynvm(&mut self, sys: &ThyNvm) {
        let s = MemorySystem::stats(sys);
        self.failed += broken_ledgers(s);
        let t = &mut self.tally;
        let nvm = sys.nvm_device().stats();
        let dram = sys.dram_device().stats();
        let (steps, restored) = sys
            .last_recovery()
            .map_or((0, 0), |r| (r.steps.len() as u64, r.restored_pages as u64));
        for (name, v) in [
            ("core.epochs", s.epochs_completed),
            ("core.pages_promoted", s.pages_promoted),
            ("core.pages_demoted", s.pages_demoted),
            ("core.btt_spills", sys.btt_spills()),
            ("core.ckpt_busy_cycles", s.ckpt_busy_cycles.raw()),
            ("core.service_cycles", s.service_cycles.raw()),
            ("core.nvm_write_bytes_cpu", s.nvm_write_bytes_cpu),
            ("core.nvm_write_bytes_ckpt", s.nvm_write_bytes_ckpt),
            (
                "core.nvm_write_bytes_migration",
                s.nvm_write_bytes_migration,
            ),
            ("core.recovery_cycles", s.recovery_cycles.raw()),
            ("core.recovery_steps", steps),
            ("core.restored_pages", restored),
            (
                "core.functional_pages",
                sys.functional_footprint_pages() as u64,
            ),
            ("core.reads", s.reads),
            ("core.writes", s.writes),
            ("mem.nvm_row_hits", nvm.row_hits),
            ("mem.nvm_row_misses", nvm.row_misses),
            ("mem.dram_row_hits", dram.row_hits),
            ("mem.dram_row_misses", dram.row_misses),
            ("mem.nvm_busy_cycles", nvm.busy_cycles.raw()),
            ("mem.dram_busy_cycles", dram.busy_cycles.raw()),
            ("mem.nvm_reads", s.nvm_reads),
            ("mem.nvm_quiet_reads", s.perf.nvm_quiet_reads),
            ("mem.security.blocks_encrypted", s.security.blocks_encrypted),
            ("mem.security.counter_persists", s.security.counter_persists),
            (
                "mem.security.tree_node_persists",
                s.security.tree_node_persists,
            ),
            ("mem.security.crypto_cycles", s.security.crypto_cycles.raw()),
            ("mem.media.crc_checked_blocks", s.media.crc_checked_blocks),
            ("mem.wpq.enqueued", s.wpq.enqueued),
            ("mem.wpq.fences", s.wpq.fences),
            ("mem.wpq.fence_stall_cycles", s.wpq.fence_stall_cycles.raw()),
        ] {
            add(t, name, v as f64);
        }
    }

    fn finish(self, events: u64, attempted: u64) -> Iteration {
        Iteration {
            events,
            attempted,
            failed: self.failed + self.probe.errors,
            gen_s: self.gen_s,
            setup_s: self.gen_s + self.build_s,
            run_s: self.run_s,
            tally: self.tally,
            recoveries: self.recoveries,
            image: self.image,
            calib_s: 0.0,
            probe: self.probe,
        }
    }
}

/// Input buffers reused from one iteration to the next, so that set-up
/// time measures generating the inputs rather than first-touching freshly
/// mapped pages (which made it bimodal).
#[derive(Debug, Default)]
pub struct Inputs {
    trace: Vec<TraceEvent>,
    steps: Vec<KvStep>,
}

/// Runs one iteration of `workload`. `traced` turns on host timing at every
/// boundary; a `probe` with a capture buffer also keeps the request stream
/// at the ThyNVM `access` boundary (the mem-layer replay input).
pub fn run_iteration(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    traced: bool,
    probe: Probe,
    inputs: &mut Inputs,
) -> Iteration {
    let steps = &mut inputs.steps;
    match (workload, traced) {
        (Workload::KvCrash, false) => kv_crash::<_, false>(seed, scale, probe, steps, ThyNvm::new),
        (Workload::KvCrash, true) => kv_crash::<_, true>(seed, scale, probe, steps, ThyNvm::new),
        (_, false) => timing::<false>(workload, seed, scale, probe, &mut inputs.trace),
        (_, true) => timing::<true>(workload, seed, scale, probe, &mut inputs.trace),
    }
}

fn ctx(probe: Probe) -> Ctx {
    Ctx {
        probe,
        tally: Tally::new(),
        recoveries: Vec::new(),
        image: 0,
        failed: 0,
        gen_s: 0.0,
        build_s: 0.0,
        run_s: 0.0,
    }
}

/// The three trace-driven workloads: trace → core → caches → memory system.
fn timing<const T: bool>(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    probe: Probe,
    trace: &mut Vec<TraceEvent>,
) -> Iteration {
    let mut cx = ctx(probe);
    let mut events = 0;
    match workload {
        Workload::SpecMix => {
            let cfg = SystemConfig::paper();
            for (i, p) in SPEC_2006.iter().enumerate() {
                // Each trace is generated just before its run, so that
                // pre-generated traces do not set the memory high-water mark.
                cx.gen(|| {
                    trace.clear();
                    trace.extend(
                        SpecWorkload::new(*p)
                            .with_seed(mix(seed, i as u64))
                            .events(scale.spec_events),
                    );
                });
                cx.thynvm_core_run::<T>(p.name, cfg, trace);
                events += trace.len() as u64;
            }
        }
        Workload::RandomHardened => {
            let mut cfg = SystemConfig::hardened();
            cfg.wpq = PersistBufferConfig::armed();
            let micro = MicroConfig {
                seed: mix(seed, 0x5EC),
                ..MicroConfig::new(MicroPattern::Random)
            };
            cx.gen(|| {
                trace.clear();
                trace.extend(micro.events(scale.random_events));
            });
            cx.thynvm_core_run::<T>("random-hardened", cfg, trace);
            events += trace.len() as u64;
        }
        Workload::Fig7Sliding => {
            let cfg = SystemConfig::paper();
            let micro = MicroConfig {
                seed: mix(seed, 0xF17),
                ..MicroConfig::new(MicroPattern::Sliding)
            };
            cx.gen(|| {
                trace.clear();
                trace.extend(micro.events(scale.sliding_events));
            });
            cx.baseline_run::<_, T>("baselines.ideal_dram", cfg, IdealDram::new, trace);
            cx.baseline_run::<_, T>("baselines.ideal_nvm", cfg, IdealNvm::new, trace);
            cx.baseline_run::<_, T>("baselines.journal", cfg, Journaling::new, trace);
            cx.baseline_run::<_, T>("baselines.shadow", cfg, ShadowPaging::new, trace);
            cx.thynvm_core_run::<T>("thynvm", cfg, trace);
            events += 5 * trace.len() as u64;
        }
        Workload::KvCrash => unreachable!("kv-crash is not trace driven"),
    }
    cx.finish(events, events)
}

/// One step of the KV client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvStep {
    /// Load a key's value and check it against the model.
    Read(u32),
    /// Store a fresh value under a key.
    Update(u32),
    /// Force a durability point.
    Persist,
    /// Power failure, then recovery.
    Crash,
}

/// The KV client's operations: a Zipfian 50/50 read/update mix, a
/// durability point every `kv_persist_every` operations, and every
/// `kv_crash_every` durability points a power failure at a random point
/// before the next one. Replaces the contents of `steps`.
fn kv_steps(seed: u64, scale: &Scale, steps: &mut Vec<KvStep>) {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x4B5));
    let zipf = Zipf::new(u64::from(scale.kv_keys));
    steps.clear();
    let mut crash_in: Option<u64> = None;
    let mut persists = 0;
    for i in 1..=scale.kv_ops {
        let key = zipf.sample(&mut rng) as u32;
        steps.push(if rng.gen_bool(0.5) {
            KvStep::Read(key)
        } else {
            KvStep::Update(key)
        });
        if let Some(n) = crash_in.as_mut() {
            *n -= 1;
            if *n == 0 {
                steps.push(KvStep::Crash);
                crash_in = None;
            }
        }
        if i % scale.kv_persist_every == 0 {
            steps.push(KvStep::Persist);
            persists += 1;
            if persists % scale.kv_crash_every == 0 {
                crash_in = Some(rng.gen_range(1..scale.kv_persist_every));
            }
        }
    }
}

/// Fills `buf` with the value written under `key` by the update stamped
/// `stamp`; stamp 0 is the never-written, all-zero value.
fn value(key: u32, stamp: u64, buf: &mut [u8; VALUE_BYTES]) {
    if stamp == 0 {
        buf.fill(0);
        return;
    }
    let mut x = mix(u64::from(key), stamp);
    for chunk in buf.chunks_exact_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        chunk.copy_from_slice(&x.to_le_bytes());
    }
}

fn key_addr(key: u32) -> PhysAddr {
    PhysAddr::new(u64::from(key) * VALUE_BYTES as u64)
}

/// `kv-crash` over the system `make` builds. Every load is checked against
/// the benchmark's own model: the value last written, or after a power
/// failure the value last made durable.
pub fn kv_crash<M, const T: bool>(
    seed: u64,
    scale: &Scale,
    probe: Probe,
    steps: &mut Vec<KvStep>,
    make: impl FnOnce(SystemConfig) -> M,
) -> Iteration
where
    M: PersistentMemory + Inspect,
{
    let mut cx = ctx(probe);
    let cfg = SystemConfig::paper();
    cx.gen(|| kv_steps(seed, scale, steps));
    let sys = cx.build(|| make(cfg));
    let keys = scale.kv_keys as usize;
    let mut shim = cx.probe.shim::<_, T>("core", "kv-crash", sys);
    let mut current = vec![0u64; keys];
    let mut durable = vec![0u64; keys];
    let mut dirty: Vec<u32> = Vec::new();
    let mut is_dirty = vec![false; keys];
    let (mut want, mut got) = ([0u8; VALUE_BYTES], [0u8; VALUE_BYTES]);
    let mut now = Cycle::ZERO;
    let mut events = 0;
    let mut wrong = 0;
    let t0 = Instant::now();
    for (i, step) in steps.iter().enumerate() {
        match *step {
            KvStep::Read(k) => {
                now = shim.load_bytes(key_addr(k), &mut got, now);
                value(k, current[k as usize], &mut want);
                wrong += u64::from(got != want);
                events += 1;
            }
            KvStep::Update(k) => {
                let stamp = i as u64 + 1;
                value(k, stamp, &mut want);
                now = shim.store_bytes(key_addr(k), &want, now);
                current[k as usize] = stamp;
                if !is_dirty[k as usize] {
                    is_dirty[k as usize] = true;
                    dirty.push(k);
                }
                events += 1;
            }
            KvStep::Persist => {
                now = shim.persist(now);
                for k in dirty.drain(..) {
                    durable[k as usize] = current[k as usize];
                    is_dirty[k as usize] = false;
                }
            }
            KvStep::Crash => {
                let usable = shim.power_fail(now);
                cx.recoveries.push(usable.saturating_sub(now).raw());
                now = usable;
                for k in dirty.drain(..) {
                    current[k as usize] = durable[k as usize];
                    is_dirty[k as usize] = false;
                }
            }
        }
    }
    cx.run_s += t0.elapsed().as_secs_f64();
    cx.failed += wrong;
    let sys = cx.probe.absorb(shim);
    let s = sys.stats();
    add(&mut cx.tally, "sim.cycles", now.raw() as f64);
    add(
        &mut cx.tally,
        "sim.nvm_write_bytes",
        s.nvm_write_bytes_total() as f64,
    );
    add(
        &mut cx.tally,
        "sim.ckpt_stall_cycles",
        s.ckpt_stall_cycles.raw() as f64,
    );
    add(&mut cx.tally, "kv.wrong_loads", wrong as f64);
    match sys.thynvm() {
        Some(t) => {
            cx.image = t.visible_fingerprint();
            cx.tally_thynvm(t);
        }
        None => cx.failed += broken_ledgers(s),
    }
    cx.finish(events, steps.len() as u64)
}
