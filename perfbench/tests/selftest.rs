//! Self-tests of the benchmark at miniature scale: every workload runs
//! clean and repeats, every metric `BENCHMARK.json` declares is emitted
//! with its unit, and a planted defect is counted as a failed operation.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::Instant;

use perfbench::probe::{Inspect, Probe};
use perfbench::workloads::{kv_crash, Scale, Workload};
use perfbench::{recorded_fingerprint, run, Outcome, DEFAULT_SEED, HELD_OUT_SEED};
use thynvm::core::ThyNvm;
use thynvm::types::{Cycle, MemRequest, MemStats, MemorySystem, PersistentMemory, PhysAddr};

const SPEC: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = SPEC
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &SPEC[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |entry: &str, key: &str| {
        let tag = format!("\"{key}\": \"");
        let from = entry.find(&tag).expect("field present") + tag.len();
        entry[from..from + entry[from..].find('"').expect("closing quote")].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_owned()))
        .collect()
}

fn mini(w: Workload, trace: bool) -> Outcome {
    run(w, DEFAULT_SEED, 0.01, trace, &Scale::MINI, None)
}

#[test]
fn every_workload_runs_clean_and_repeats_across_runs() {
    let end_to_end = declared("end_to_end");
    for w in Workload::ALL {
        let a = mini(w, false);
        let b = mini(w, false);
        assert!(a.correct && a.repeatable, "{}: {a:?}", w.name());
        assert_eq!(a.failed, 0, "{}", w.name());
        assert!(a.attempted > 0, "{}", w.name());
        assert_eq!(
            a.fingerprint,
            b.fingerprint,
            "{}: fingerprint must repeat",
            w.name()
        );
        assert_eq!(emitted(&a), end_to_end, "{}: end-to-end metrics", w.name());
        for m in &a.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        let out = mini(w, true);
        assert!(out.correct, "{}: {out:?}", w.name());
        assert_eq!(emitted(&out), per_layer, "{}: per-layer metrics", w.name());
        assert!(!out.trace.spans.is_empty(), "{}: spans kept", w.name());
        let value = |name: &str| out.metrics.iter().find(|m| m.name == name).map(|m| m.value);
        assert!(
            value("trace.events_per_s_traced") > Some(0.0),
            "{}",
            w.name()
        );
        let replayed = value("mem.device_ns_per_access") > Some(0.0);
        assert_eq!(
            replayed,
            w == Workload::RandomHardened,
            "{}: mem-layer replay",
            w.name()
        );
    }
}

#[test]
fn default_and_held_out_seeds_have_recorded_fingerprints() {
    for w in Workload::ALL {
        assert!(
            recorded_fingerprint(w, DEFAULT_SEED).is_some(),
            "{}",
            w.name()
        );
        assert!(
            recorded_fingerprint(w, HELD_OUT_SEED).is_some(),
            "{}",
            w.name()
        );
    }
}

/// ThyNVM with a planted defect: one load in the middle of the run comes
/// back with a flipped byte.
#[derive(Debug)]
struct FlipOneLoad {
    inner: ThyNvm,
    loads: u64,
    flip_at: u64,
}

impl MemorySystem for FlipOneLoad {
    fn access(&mut self, req: &MemRequest, now: Cycle) -> Cycle {
        self.inner.access(req, now)
    }
    fn checkpoint_due(&self, now: Cycle) -> bool {
        self.inner.checkpoint_due(now)
    }
    fn begin_checkpoint(&mut self, now: Cycle, flushed: &[PhysAddr]) -> Cycle {
        self.inner.begin_checkpoint(now, flushed)
    }
    fn drain(&mut self, now: Cycle) -> Cycle {
        MemorySystem::drain(&mut self.inner, now)
    }
    fn stats(&self) -> &MemStats {
        MemorySystem::stats(&self.inner)
    }
    fn name(&self) -> &'static str {
        "FlipOneLoad"
    }
}

impl PersistentMemory for FlipOneLoad {
    fn store_bytes(&mut self, addr: PhysAddr, data: &[u8], now: Cycle) -> Cycle {
        PersistentMemory::store_bytes(&mut self.inner, addr, data, now)
    }
    fn load_bytes(&mut self, addr: PhysAddr, buf: &mut [u8], now: Cycle) -> Cycle {
        let done = PersistentMemory::load_bytes(&mut self.inner, addr, buf, now);
        self.loads += 1;
        if self.loads == self.flip_at {
            buf[17] ^= 0x40;
        }
        done
    }
    fn persist(&mut self, now: Cycle) -> Cycle {
        self.inner.persist(now)
    }
    fn power_fail(&mut self, now: Cycle) -> Cycle {
        self.inner.power_fail(now)
    }
}

impl Inspect for FlipOneLoad {
    fn take_errors(&mut self) -> u64 {
        self.inner.take_errors()
    }
    fn thynvm(&self) -> Option<&ThyNvm> {
        Some(&self.inner)
    }
}

#[test]
fn a_flipped_load_byte_is_a_failed_op() {
    let probe = || Probe::new(Instant::now(), 0);
    let mut steps = Vec::new();
    let clean = kv_crash::<_, false>(DEFAULT_SEED, &Scale::MINI, probe(), &mut steps, ThyNvm::new);
    assert_eq!(clean.failed, 0);
    let planted = kv_crash::<_, false>(DEFAULT_SEED, &Scale::MINI, probe(), &mut steps, |cfg| {
        FlipOneLoad {
            inner: ThyNvm::new(cfg),
            loads: 0,
            flip_at: 1234,
        }
    });
    assert_eq!(planted.failed, 1, "exactly the flipped load fails");
    assert_eq!(planted.attempted, clean.attempted);
}
