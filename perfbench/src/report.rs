//! Metrics: what one run reports, how each value is derived from the
//! iterations, the simulated-statistics fingerprint, and the result line.

use std::collections::BTreeMap;

use crate::probe::{
    Probe, ACCESS, CHECKPOINT, CHECKPOINT_DUE, DRAIN, LOAD, PERSIST, RECOVER, STORE,
};
use crate::replay::Replay;
use crate::workloads::{Iteration, Workload};
use crate::CALIB_REFERENCE_S;

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_cycles", "cycles"),
    ("sim_read_p50_cycles", "cycles"),
    ("sim_read_p99_cycles", "cycles"),
    ("nvm_write_mib", "MiB"),
    ("ckpt_stall_pct", "%"),
    ("sim_recovery_cycles", "cycles"),
];

/// The four baseline systems of `fig7-sliding`, as metric prefixes.
pub const BASELINES: [&str; 4] = [
    "baselines.ideal_dram",
    "baselines.ideal_nvm",
    "baselines.journal",
    "baselines.shadow",
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`, apart from
/// the five per baseline system (see `per_layer_names`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_s", "s"),
    ("cache.self_s", "s"),
    ("cache.l1_miss_ratio", "ratio"),
    ("cache.l2_miss_ratio", "ratio"),
    ("cache.l3_miss_ratio", "ratio"),
    ("cache.mem_stall_cycles", "cycles"),
    ("cache.flush_stall_cycles", "cycles"),
    ("cache.flushes", "count"),
    ("core.access_s", "s"),
    ("core.access_calls", "count"),
    ("core.checkpoint_s", "s"),
    ("core.checkpoint_calls", "count"),
    ("core.checkpoint_due_s", "s"),
    ("core.drain_s", "s"),
    ("core.store_s", "s"),
    ("core.load_s", "s"),
    ("core.persist_s", "s"),
    ("core.recover_s", "s"),
    ("core.epochs", "count"),
    ("core.pages_promoted", "count"),
    ("core.pages_demoted", "count"),
    ("core.btt_spills", "count"),
    ("core.ckpt_busy_cycles", "cycles"),
    ("core.service_cycles", "cycles"),
    ("core.nvm_write_bytes_cpu", "bytes"),
    ("core.nvm_write_bytes_ckpt", "bytes"),
    ("core.nvm_write_bytes_migration", "bytes"),
    ("core.recovery_cycles", "cycles"),
    ("core.recovery_steps", "count"),
    ("core.restored_pages", "count"),
    ("core.functional_pages", "count"),
    ("mem.nvm_row_hit_ratio", "ratio"),
    ("mem.dram_row_hit_ratio", "ratio"),
    ("mem.nvm_busy_cycles", "cycles"),
    ("mem.dram_busy_cycles", "cycles"),
    ("mem.quiet_read_ratio", "ratio"),
    ("mem.security.blocks_encrypted", "count"),
    ("mem.security.counter_persists", "count"),
    ("mem.security.tree_node_persists", "count"),
    ("mem.security.crypto_cycles", "cycles"),
    ("mem.media.crc_checked_blocks", "count"),
    ("mem.wpq.enqueued", "count"),
    ("mem.wpq.fences", "count"),
    ("mem.wpq.fence_stall_cycles", "cycles"),
    ("mem.device_ns_per_access", "ns"),
    ("mem.store_write_ns", "ns"),
    ("mem.store_read_page_ns", "ns"),
    ("mem.store_fingerprint_ms", "ms"),
    ("sim.read_samples", "count"),
    ("sim.recoveries", "count"),
    ("trace.events_per_s_untraced", "1/s"),
    ("trace.events_per_s_traced", "1/s"),
    ("trace.overhead_pct", "%"),
    ("bench.events_per_s_raw", "1/s"),
    ("bench.setup_s_raw", "s"),
    ("bench.calibration_ms", "ms"),
];

/// The per-baseline metrics, suffixes of a [`BASELINES`] prefix.
pub const PER_BASELINE: &[(&str, &str)] = &[
    ("access_s", "s"),
    ("checkpoint_due_s", "s"),
    ("checkpoint_s", "s"),
    ("sim_cycles", "cycles"),
    ("nvm_write_mib", "MiB"),
];

/// Every per-layer metric `(name, unit)`, in output order.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|(n, u)| ((*n).to_owned(), *u))
        .collect();
    for b in BASELINES {
        out.extend(PER_BASELINE.iter().map(|(n, u)| (format!("{b}.{n}"), *u)));
    }
    out
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// Median of `xs` (the mean of the middle two for an even count; 0 if
/// empty).
fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of a `value → count` distribution.
fn quantile(counts: &BTreeMap<u64, u64>, q: f64) -> u64 {
    let total: u64 = counts.values().sum();
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (&v, &n) in counts {
        seen += n;
        if seen >= rank {
            return v;
        }
    }
    0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Simulated demand-read latencies of an iteration, sorted.
fn read_distribution(it: &Iteration) -> BTreeMap<u64, u64> {
    it.probe.read_cycles.iter().map(|(&c, &n)| (c, n)).collect()
}

/// FNV-1a over everything simulated in `it`: the counters, the read-latency
/// distribution, the recovery times and the KV image. Host times are left
/// out, so the value repeats exactly for a seed and scale.
pub fn fingerprint(workload: Workload, it: &Iteration) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(workload.name().as_bytes());
    for (name, v) in &it.tally {
        eat(name.as_bytes());
        eat(&v.to_bits().to_le_bytes());
    }
    for (c, n) in read_distribution(it) {
        eat(&c.to_le_bytes());
        eat(&n.to_le_bytes());
    }
    for r in &it.recoveries {
        eat(&r.to_le_bytes());
    }
    eat(&it.image.to_le_bytes());
    eat(&it.failed.to_le_bytes());
    h
}

/// Events per host second of one iteration, as measured.
pub fn raw_events_per_s(it: &Iteration) -> f64 {
    ratio(it.events as f64, it.run_s)
}

/// How much slower than on the reference host the calibration kernel ran
/// around this iteration.
fn slowdown(it: &Iteration) -> f64 {
    if it.calib_s > 0.0 {
        it.calib_s / CALIB_REFERENCE_S
    } else {
        1.0
    }
}

/// Events per host second of one iteration, scaled to the reference host
/// speed (see [`crate::calibrate`]).
fn events_per_s(it: &Iteration) -> f64 {
    raw_events_per_s(it) * slowdown(it)
}

/// Set-up seconds of one iteration, scaled to the reference host speed.
pub fn setup_s(it: &Iteration) -> f64 {
    it.setup_s / slowdown(it)
}

/// The end-to-end metrics of a run. `iters` are the untraced iterations;
/// simulated values come from the first (all repeat exactly).
pub fn end_to_end(iters: &[Iteration], peak_rss_mib: f64) -> Vec<Metric> {
    let first = &iters[0];
    let t = |name: &str| first.tally.get(name).copied().unwrap_or(0.0);
    let reads = read_distribution(first);
    let recoveries = median(first.recoveries.iter().map(|&c| c as f64).collect());
    let values = [
        median(iters.iter().map(events_per_s).collect()),
        median(iters.iter().map(setup_s).collect()),
        peak_rss_mib,
        t("sim.cycles"),
        quantile(&reads, 0.5) as f64,
        quantile(&reads, 0.99) as f64,
        t("sim.nvm_write_bytes") / MIB,
        100.0 * ratio(t("sim.ckpt_stall_cycles"), t("sim.cycles")),
        recoveries,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_owned(),
            unit,
            value,
        })
        .collect()
}

/// The per-layer metrics of a traced run. `untraced` and `traced` are the
/// two alternating halves of its iterations (host times are medians over
/// the traced half); `replay` is the mem-layer case, where it ran.
pub fn per_layer(
    workload: Workload,
    untraced: &[Iteration],
    traced: &[Iteration],
    replay: Option<Replay>,
) -> Vec<Metric> {
    let first = &traced[0];
    let t = |name: &str| first.tally.get(name).copied().unwrap_or(0.0);
    let host = |label: &str, method: usize| {
        median(
            traced
                .iter()
                .map(|it| it.probe.boundary(label, method).1)
                .collect(),
        )
    };
    let calls = |label: &str, method: usize| first.probe.boundary(label, method).0 as f64;
    let miss = |l: &str| {
        ratio(
            t(&format!("cache.{l}_misses")),
            t(&format!("cache.{l}_hits")) + t(&format!("cache.{l}_misses")),
        )
    };
    let row = |d: &str| {
        ratio(
            t(&format!("mem.{d}_row_hits")),
            t(&format!("mem.{d}_row_hits")) + t(&format!("mem.{d}_row_misses")),
        )
    };
    let cache_self = if workload == Workload::KvCrash {
        0.0
    } else {
        median(
            traced
                .iter()
                .map(|it| it.run_s - it.probe.inside_secs())
                .collect(),
        )
    };
    let eps_untraced = median(untraced.iter().map(events_per_s).collect());
    let eps_traced = median(traced.iter().map(events_per_s).collect());
    let r = replay.unwrap_or_default();

    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_owned(), value);
    };
    put(
        "workloads.gen_s",
        median(untraced.iter().chain(traced).map(|it| it.gen_s).collect()),
    );
    put("cache.self_s", cache_self);
    put("cache.l1_miss_ratio", miss("l1"));
    put("cache.l2_miss_ratio", miss("l2"));
    put("cache.l3_miss_ratio", miss("l3"));
    for name in [
        "cache.mem_stall_cycles",
        "cache.flush_stall_cycles",
        "cache.flushes",
    ] {
        put(name, t(name));
    }
    put("core.access_s", host("core", ACCESS));
    put("core.access_calls", calls("core", ACCESS));
    put("core.checkpoint_s", host("core", CHECKPOINT));
    put("core.checkpoint_calls", calls("core", CHECKPOINT));
    put("core.checkpoint_due_s", host("core", CHECKPOINT_DUE));
    put("core.drain_s", host("core", DRAIN));
    put("core.store_s", host("core", STORE));
    put("core.load_s", host("core", LOAD));
    put("core.persist_s", host("core", PERSIST));
    put("core.recover_s", host("core", RECOVER));
    for name in [
        "core.epochs",
        "core.pages_promoted",
        "core.pages_demoted",
        "core.btt_spills",
        "core.ckpt_busy_cycles",
        "core.service_cycles",
        "core.nvm_write_bytes_cpu",
        "core.nvm_write_bytes_ckpt",
        "core.nvm_write_bytes_migration",
        "core.recovery_cycles",
        "core.recovery_steps",
        "core.restored_pages",
        "core.functional_pages",
        "mem.nvm_busy_cycles",
        "mem.dram_busy_cycles",
        "mem.security.blocks_encrypted",
        "mem.security.counter_persists",
        "mem.security.tree_node_persists",
        "mem.security.crypto_cycles",
        "mem.media.crc_checked_blocks",
        "mem.wpq.enqueued",
        "mem.wpq.fences",
        "mem.wpq.fence_stall_cycles",
    ] {
        put(name, t(name));
    }
    put("mem.nvm_row_hit_ratio", row("nvm"));
    put("mem.dram_row_hit_ratio", row("dram"));
    put(
        "mem.quiet_read_ratio",
        ratio(t("mem.nvm_quiet_reads"), t("mem.nvm_reads")),
    );
    put("mem.device_ns_per_access", r.device_ns_per_access);
    put("mem.store_write_ns", r.store_write_ns);
    put("mem.store_read_page_ns", r.store_read_page_ns);
    put("mem.store_fingerprint_ms", r.store_fingerprint_ms);
    put(
        "sim.read_samples",
        first.probe.read_cycles.values().sum::<u64>() as f64,
    );
    put("sim.recoveries", first.recoveries.len() as f64);
    put("trace.events_per_s_untraced", eps_untraced);
    put("trace.events_per_s_traced", eps_traced);
    put(
        "trace.overhead_pct",
        100.0 * ratio(eps_untraced - eps_traced, eps_untraced),
    );
    put(
        "bench.events_per_s_raw",
        median(untraced.iter().map(raw_events_per_s).collect()),
    );
    put(
        "bench.setup_s_raw",
        median(untraced.iter().map(|it| it.setup_s).collect()),
    );
    put(
        "bench.calibration_ms",
        1e3 * median(untraced.iter().map(|it| it.calib_s).collect()),
    );
    for b in BASELINES {
        put(&format!("{b}.access_s"), host(b, ACCESS));
        put(&format!("{b}.checkpoint_due_s"), host(b, CHECKPOINT_DUE));
        put(&format!("{b}.checkpoint_s"), host(b, CHECKPOINT));
        put(&format!("{b}.sim_cycles"), t(&format!("{b}.sim_cycles")));
        put(
            &format!("{b}.nvm_write_mib"),
            t(&format!("{b}.nvm_write_bytes")) / MIB,
        );
    }
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = v
                .get(&name)
                .copied()
                .expect("every per-layer metric is computed");
            Metric { name, unit, value }
        })
        .collect()
}

/// Renders a finite number for JSON (non-finite values become 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The kept spans and per-boundary records of a traced run, as JSON.
pub fn trace_json(workload: Workload, seed: u64, probe: &Probe) -> String {
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"boundaries\": [",
        workload.name()
    );
    let bounds: Vec<String> = probe
        .boundaries
        .iter()
        .map(|((label, method), b)| {
            format!(
                "\n  {{\"layer\": \"{label}\", \"method\": \"{}\", \"calls\": {}, \"total_s\": {}, \"hist_log2_ns\": [{}]}}",
                crate::probe::METHODS[*method],
                b.calls(),
                num(b.secs()),
                b.histogram().iter().map(u64::to_string).collect::<Vec<_>>().join(", ")
            )
        })
        .collect();
    out.push_str(&bounds.join(","));
    out.push_str("\n], \"spans\": [");
    let spans: Vec<String> = probe
        .spans
        .iter()
        .map(|s| {
            format!(
                "\n  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    out.push_str(&spans.join(","));
    out.push_str("\n]}\n");
    out
}
