//! Forwarding shims around the memory-system layers.
//!
//! Every workload reaches a layer only through a [`Shim`]. Untraced
//! (`TRACE = false`) the shim records what the end-to-end metrics need —
//! the simulated latency of each demand read and the errors the system
//! reports — and nothing else. Traced, it also times every call per
//! boundary (count, total and a log2 histogram of host nanoseconds) and
//! keeps a span, with its parent, for each checkpoint, persist and
//! recovery call. The layers are measured from outside; nothing inside
//! the simulator is instrumented.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

use thynvm::baselines::{IdealDram, IdealNvm, Journaling, ShadowPaging};
use thynvm::core::ThyNvm;
use thynvm::types::{
    AccessKind, Cycle, FxHashMap, MemRequest, MemStats, MemorySystem, PersistentMemory, PhysAddr,
};

/// The boundaries a shim times, in the order of [`METHODS`].
pub const ACCESS: usize = 0;
/// `MemorySystem::checkpoint_due`.
pub const CHECKPOINT_DUE: usize = 1;
/// `MemorySystem::begin_checkpoint`.
pub const CHECKPOINT: usize = 2;
/// `MemorySystem::drain`.
pub const DRAIN: usize = 3;
/// `MemorySystem::stats`.
pub const STATS: usize = 4;
/// `PersistentMemory::store_bytes`.
pub const STORE: usize = 5;
/// `PersistentMemory::load_bytes`.
pub const LOAD: usize = 6;
/// `PersistentMemory::persist`.
pub const PERSIST: usize = 7;
/// `PersistentMemory::power_fail`.
pub const RECOVER: usize = 8;

/// Boundary names as they appear in metric names and the trace file.
pub const METHODS: [&str; 9] = [
    "access",
    "checkpoint_due",
    "checkpoint",
    "drain",
    "stats",
    "store",
    "load",
    "persist",
    "recover",
];

const HIST_BUCKETS: usize = 40;

/// What the benchmark may ask of a system beyond the memory-system traits.
pub trait Inspect {
    /// Drains the errors the system reports through its `take_*_error`
    /// accessors; each one counts as a failed operation.
    fn take_errors(&mut self) -> u64 {
        0
    }

    /// The ThyNVM controller, for its public counters.
    fn thynvm(&self) -> Option<&ThyNvm> {
        None
    }
}

impl Inspect for ThyNvm {
    fn take_errors(&mut self) -> u64 {
        let taken = [
            self.take_media_error(),
            self.take_overflow_error(),
            self.take_security_error(),
            self.take_ordering_error(),
            self.take_health_error(),
            self.take_poison_error(),
        ];
        taken.iter().filter(|e| e.is_some()).count() as u64
    }

    fn thynvm(&self) -> Option<&ThyNvm> {
        Some(self)
    }
}

impl Inspect for IdealDram {}
impl Inspect for IdealNvm {}
impl Inspect for Journaling {}
impl Inspect for ShadowPaging {}

/// Host-time record of one boundary.
#[derive(Debug, Clone)]
pub struct Boundary {
    calls: Cell<u64>,
    nanos: Cell<u64>,
    hist: [Cell<u64>; HIST_BUCKETS],
}

impl Default for Boundary {
    fn default() -> Self {
        Self {
            calls: Cell::new(0),
            nanos: Cell::new(0),
            hist: std::array::from_fn(|_| Cell::new(0)),
        }
    }
}

impl Boundary {
    fn record(&self, nanos: u64) {
        self.calls.set(self.calls.get() + 1);
        self.nanos.set(self.nanos.get() + nanos);
        let bucket = (64 - nanos.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.hist[bucket].set(self.hist[bucket].get() + 1);
    }

    fn merge(&self, other: &Boundary) {
        self.calls.set(self.calls.get() + other.calls.get());
        self.nanos.set(self.nanos.get() + other.nanos.get());
        for (a, b) in self.hist.iter().zip(&other.hist) {
            a.set(a.get() + b.get());
        }
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Calls per log2 bucket of host nanoseconds (bucket `b` holds
    /// `[2^(b-1), 2^b)`).
    pub fn histogram(&self) -> Vec<u64> {
        self.hist.iter().map(Cell::get).collect()
    }

    /// Host time inside the boundary, in seconds.
    pub fn secs(&self) -> f64 {
        self.nanos.get() as f64 * 1e-9
    }
}

/// One timed call kept in full: checkpoint, persist and recovery calls,
/// and the sub-run that caused them.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one (`None` for a sub-run).
    pub parent: Option<u64>,
    /// `<layer>.<method>`, or `run:<sub-run>` for a sub-run.
    pub name: String,
    /// Host nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Host nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// Everything recorded across the shims of one iteration (or, merged, of a
/// whole run).
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    next_span: u64,
    /// Per-`(layer, method)` host time, traced iterations only.
    pub boundaries: BTreeMap<(&'static str, usize), Boundary>,
    /// Kept spans, traced iterations only.
    pub spans: Vec<Span>,
    /// Simulated demand-read latency in cycles → number of reads.
    pub read_cycles: FxHashMap<u64, u64>,
    /// Errors drained from the systems.
    pub errors: u64,
    /// Requests seen at the `MemorySystem::access` boundary, when asked
    /// for (the mem-layer replay input).
    pub capture: Option<Vec<(MemRequest, Cycle)>>,
}

impl Probe {
    /// A probe whose span clock starts at `epoch`.
    pub fn new(epoch: Instant, first_span: u64) -> Self {
        Self {
            epoch,
            next_span: first_span,
            boundaries: BTreeMap::new(),
            spans: Vec::new(),
            read_cycles: FxHashMap::default(),
            errors: 0,
            capture: None,
        }
    }

    /// Span ids handed out so far (the next run continues from here).
    pub fn next_span(&self) -> u64 {
        self.next_span
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Wraps `inner` as layer `label`; its kept spans are children of a
    /// new sub-run span named `run`.
    pub fn shim<M, const TRACE: bool>(
        &mut self,
        label: &'static str,
        run: &str,
        inner: M,
    ) -> Shim<M, TRACE> {
        let id = self.next_span;
        self.next_span += 1;
        let capture = self.capture.take();
        Shim {
            inner,
            label,
            epoch: self.epoch,
            run: Span {
                id,
                parent: None,
                name: format!("run:{run}"),
                start_ns: self.now_ns(),
                end_ns: 0,
            },
            boundaries: std::array::from_fn(|_| Boundary::default()),
            spans: Vec::new(),
            read_cycles: FxHashMap::default(),
            errors: 0,
            capture,
        }
    }

    /// Ends a shim's sub-run, folds its records in and hands back the
    /// system.
    pub fn absorb<M, const TRACE: bool>(&mut self, mut shim: Shim<M, TRACE>) -> M {
        if TRACE {
            shim.run.end_ns = self.now_ns();
            let mut kept = Vec::with_capacity(shim.spans.len() + 1);
            kept.push(shim.run.clone());
            for mut span in shim.spans {
                span.id = self.next_span;
                self.next_span += 1;
                kept.push(span);
            }
            self.spans.extend(kept);
            for (method, b) in shim.boundaries.iter().enumerate() {
                if b.calls() > 0 {
                    self.boundaries
                        .entry((shim.label, method))
                        .or_default()
                        .merge(b);
                }
            }
        }
        for (cycles, n) in shim.read_cycles {
            *self.read_cycles.entry(cycles).or_insert(0) += n;
        }
        self.errors += shim.errors;
        self.capture = shim.capture;
        shim.inner
    }

    /// Folds another probe's host-time records and spans into this one.
    pub fn merge_trace(&mut self, other: &Probe) {
        for (key, b) in &other.boundaries {
            self.boundaries.entry(*key).or_default().merge(b);
        }
        self.spans.extend(other.spans.iter().cloned());
        self.next_span = self.next_span.max(other.next_span);
    }

    /// Host seconds spent inside every boundary of every layer.
    pub fn inside_secs(&self) -> f64 {
        self.boundaries.values().map(Boundary::secs).sum()
    }

    /// `(calls, seconds)` recorded at one boundary.
    pub fn boundary(&self, label: &str, method: usize) -> (u64, f64) {
        self.boundaries
            .iter()
            .find(|((l, m), _)| *l == label && *m == method)
            .map_or((0, 0.0), |(_, b)| (b.calls(), b.secs()))
    }
}

/// A forwarding wrapper that records each call into `inner` (see the module
/// docs). `TRACE` selects host timing at compile time, so the untraced
/// build carries no timer calls.
#[derive(Debug)]
pub struct Shim<M, const TRACE: bool> {
    inner: M,
    label: &'static str,
    epoch: Instant,
    run: Span,
    boundaries: [Boundary; METHODS.len()],
    spans: Vec<Span>,
    read_cycles: FxHashMap<u64, u64>,
    errors: u64,
    capture: Option<Vec<(MemRequest, Cycle)>>,
}

impl<M: Inspect, const TRACE: bool> Shim<M, TRACE> {
    /// The wrapped system.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    fn start(&self) -> Option<Instant> {
        TRACE.then(Instant::now)
    }

    fn stop(&self, method: usize, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.boundaries[method].record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Times one call that may mutate the system, keeping it as a span
    /// when `keep` and draining the errors it left behind.
    fn call<R>(&mut self, method: usize, keep: bool, f: impl FnOnce(&mut M) -> R) -> R {
        let t0 = self.start();
        let out = f(&mut self.inner);
        if let Some(t0) = t0 {
            let end = Instant::now();
            self.boundaries[method].record((end - t0).as_nanos() as u64);
            if keep {
                self.spans.push(Span {
                    id: 0,
                    parent: Some(self.run.id),
                    name: format!("{}.{}", self.label, METHODS[method]),
                    start_ns: (t0 - self.epoch).as_nanos() as u64,
                    end_ns: (end - self.epoch).as_nanos() as u64,
                });
            }
        }
        self.errors += self.inner.take_errors();
        out
    }

    fn record_read(&mut self, now: Cycle, done: Cycle) {
        *self
            .read_cycles
            .entry(done.saturating_sub(now).raw())
            .or_insert(0) += 1;
    }
}

impl<M: MemorySystem + Inspect, const TRACE: bool> MemorySystem for Shim<M, TRACE> {
    fn access(&mut self, req: &MemRequest, now: Cycle) -> Cycle {
        if let Some(c) = self.capture.as_mut() {
            c.push((*req, now));
        }
        let done = self.call(ACCESS, false, |m| m.access(req, now));
        if req.kind == AccessKind::Read {
            self.record_read(now, done);
        }
        done
    }

    fn checkpoint_due(&self, now: Cycle) -> bool {
        let t0 = self.start();
        let due = self.inner.checkpoint_due(now);
        self.stop(CHECKPOINT_DUE, t0);
        due
    }

    fn begin_checkpoint(&mut self, now: Cycle, flushed: &[PhysAddr]) -> Cycle {
        self.call(CHECKPOINT, true, |m| m.begin_checkpoint(now, flushed))
    }

    fn drain(&mut self, now: Cycle) -> Cycle {
        self.call(DRAIN, false, |m| m.drain(now))
    }

    fn stats(&self) -> &MemStats {
        let t0 = self.start();
        let s = self.inner.stats();
        self.stop(STATS, t0);
        s
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<M: PersistentMemory + Inspect, const TRACE: bool> PersistentMemory for Shim<M, TRACE> {
    fn store_bytes(&mut self, addr: PhysAddr, data: &[u8], now: Cycle) -> Cycle {
        self.call(STORE, false, |m| m.store_bytes(addr, data, now))
    }

    fn load_bytes(&mut self, addr: PhysAddr, buf: &mut [u8], now: Cycle) -> Cycle {
        let done = self.call(LOAD, false, |m| m.load_bytes(addr, buf, now));
        self.record_read(now, done);
        done
    }

    fn persist(&mut self, now: Cycle) -> Cycle {
        self.call(PERSIST, true, |m| m.persist(now))
    }

    fn power_fail(&mut self, now: Cycle) -> Cycle {
        self.call(RECOVER, true, |m| m.power_fail(now))
    }
}
