//! Bit-exact simulated-time pins: seven raw-controller runs of ThyNVM on
//! the paper configuration, each asserted against its exact `sim_cycles`.
//!
//! Two traces (micro-random, YCSB-A) cross five configurations:
//!
//! * `fault-off` — the paper configuration;
//! * `fault-on` — media and DRAM fault models armed at rates that fire
//!   constantly but keep every retry bounded;
//! * `secure-on` — counter-mode encryption and the integrity tree;
//! * `health-on` — the health ladder, observing a clean run;
//! * `wpq-on` — the volatile persist buffer with its §4.4 fences.
//!
//! A second table pins two of the paper's baselines (§5.1) on the same
//! micro-random trace under `SystemConfig::small_test()`: shadow paging,
//! whose 64-page buffer evicts clean pages constantly and checkpoints
//! hundreds of times, so its victim order shows in the total; and redo
//! journaling.
//!
//! A performance-only change must leave every pin untouched. A change that
//! moves simulated time on purpose updates the constant here and says why
//! in its description. Host cost is measured separately, by `perfbench`.

use std::collections::BTreeMap;

use thynvm::bench::runner::{run_raw, SystemKind};
use thynvm::types::{
    DramFaultConfig, HealthConfig, MediaFaultConfig, PersistBufferConfig, SecurityConfig,
    SystemConfig, TraceEvent,
};
use thynvm::workloads::{HashKv, MicroConfig, MicroPattern, YcsbConfig, YcsbMix};

/// `(trace, config, trace events, exact sim_cycles)`.
const PINS: [(&str, &str, usize, u64); 7] = [
    ("micro-random", "fault-off", 60_000, 32_473_694),
    ("micro-random", "fault-on", 60_000, 32_482_168),
    ("micro-random", "secure-on", 60_000, 32_862_014),
    ("micro-random", "health-on", 60_000, 32_501_070),
    ("micro-random", "wpq-on", 60_000, 32_473_694),
    ("ycsb-a", "fault-off", 27_952, 4_872_377),
    ("ycsb-a", "fault-on", 27_952, 4_892_090),
];

/// `(baseline, exact sim_cycles, epochs)` on micro-random, small-test
/// configuration.
const BASELINE_PINS: [(SystemKind, u64, u64); 2] = [
    (SystemKind::Shadow, 105_644_238, 517),
    (SystemKind::Journal, 26_677_602, 259),
];

fn trace(name: &str) -> Vec<TraceEvent> {
    match name {
        "micro-random" => MicroConfig::new(MicroPattern::Random).events(60_000).collect(),
        "ycsb-a" => {
            let mut kv = HashKv::new(16 * 1024);
            let ycsb = YcsbConfig { records: 4 * 1024, ..YcsbConfig::new(YcsbMix::A) };
            ycsb.run(&mut kv, 8_000).0
        }
        other => panic!("unknown trace {other}"),
    }
}

fn config(name: &str) -> SystemConfig {
    let mut cfg = SystemConfig::paper();
    match name {
        "fault-off" => {}
        "fault-on" => {
            cfg.media = MediaFaultConfig {
                bit_flip_rate: 1e-3,
                stuck_at_threshold: 10_000,
                ..MediaFaultConfig::hardened()
            };
            cfg.dram_fault = DramFaultConfig {
                flip_rate: 1e-3,
                poison_rate: 1e-4,
                ..DramFaultConfig::hardened()
            };
        }
        "secure-on" => cfg.security = SecurityConfig::hardened(),
        "health-on" => cfg.health = HealthConfig::hardened(),
        "wpq-on" => cfg.wpq = PersistBufferConfig::armed(),
        other => panic!("unknown config {other}"),
    }
    cfg
}

#[test]
fn every_config_validates_and_arms_its_model() {
    for (_, name, _, _) in PINS {
        let cfg = config(name);
        cfg.validate().unwrap_or_else(|e| panic!("{name} does not validate: {e:?}"));
        let faults = cfg.media.enabled && cfg.dram_fault.enabled;
        assert_eq!(faults, name == "fault-on", "{name}: media and DRAM faults");
        assert_eq!(cfg.security.enabled, name == "secure-on", "{name}: secure mode");
        assert_eq!(cfg.health.enabled, name == "health-on", "{name}: health ladder");
        assert_eq!(cfg.wpq.enabled, name == "wpq-on", "{name}: persist buffer");
    }
}

#[test]
fn sim_cycles_match_the_pins() {
    let mut traces = BTreeMap::new();
    let mut measured = BTreeMap::new();
    let mut drift = Vec::new();
    for (t, c, ops, pinned) in PINS {
        let events = traces.entry(t).or_insert_with(|| trace(t));
        assert_eq!(events.len(), ops, "{t}: trace length moved");
        let cycles = run_raw(SystemKind::ThyNvm, config(c), events.iter().copied()).cycles.raw();
        if cycles != pinned {
            drift.push(format!("{t}/{c}: pinned {pinned}, measured {cycles}"));
        }
        measured.insert((t, c), cycles);
    }
    assert!(drift.is_empty(), "simulated time moved:\n  {}", drift.join("\n  "));

    // On a clean run the armed health monitor pays only the per-checkpoint
    // rung persist, and the persist buffer retires every entry before each
    // fence fires: both twins cost a sliver over fault-off, never less.
    let off = measured[&("micro-random", "fault-off")];
    for twin in ["health-on", "wpq-on"] {
        let on = measured[&("micro-random", twin)];
        assert!(on >= off, "arming {twin} cannot make a clean run faster ({on} vs {off})");
        assert!((on - off) * 100 < off, "{twin} overhead must stay under 1% ({on} vs {off})");
    }
}

#[test]
fn baseline_sim_cycles_match_the_pins() {
    let events = trace("micro-random");
    let mut drift = Vec::new();
    for (kind, pinned, epochs) in BASELINE_PINS {
        let r = run_raw(kind, SystemConfig::small_test(), events.iter().copied());
        let measured = (r.cycles.raw(), r.mem.epochs_completed);
        if measured != (pinned, epochs) {
            drift.push(format!(
                "{}: pinned {pinned} cycles / {epochs} epochs, measured {} / {}",
                kind.as_str(),
                measured.0,
                measured.1
            ));
        }
    }
    assert!(drift.is_empty(), "simulated time moved:\n  {}", drift.join("\n  "));
}
