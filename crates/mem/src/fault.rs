//! Deterministic NVM media-fault model.
//!
//! Real NVM is not a perfect store: cells suffer transient bit flips, wear
//! out into stuck-at faults, and a power loss can tear a multi-word write so
//! that only a prefix of the words persists. [`FaultModel`] models all three
//! so the controller's integrity protection (per-64 B CRCs, checksummed
//! metadata, retry/remap/scrub healing) can be exercised and validated.
//!
//! Every decision the model makes is a pure function of the configured seed
//! and the sequence of device operations it has observed — there is no
//! global RNG state, no clock, and no OS entropy. Two models built from the
//! same [`MediaFaultConfig`] and fed the same operation sequence produce
//! byte-identical fault schedules, which is what lets the crash-replay
//! sweeps reproduce a faulty run exactly (the vendored proptest shim cannot
//! replay upstream seed hashes, so determinism must come from the model
//! itself).

use std::collections::{BTreeMap, BTreeSet};

use thynvm_types::rng::{mix, unit};
use thynvm_types::{
    DramFaultConfig, FaultKind, FxHashMap, HwAddr, MediaFaultConfig, SecurityConfig, BLOCK_BYTES,
};

use crate::device::WearStats;

/// One corrupted read as decided by the fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Device address of the corrupted byte.
    pub addr: u64,
    /// XOR mask of the flipped bit(s) within that byte.
    pub mask: u8,
    /// Classification of the fault.
    pub kind: FaultKind,
}

/// Deterministic, seedable model of NVM media faults: transient bit flips,
/// wear-induced stuck-at cells, and torn multi-word writes.
///
/// The model keys every decision on a counter of observed operations mixed
/// with the seed (splitmix64), so schedules replay exactly. Wear is tracked
/// per device row with the same row granularity as [`crate::Device`], and
/// can be summarized through the existing [`WearStats`] shape.
#[derive(Debug, Clone)]
pub struct FaultModel {
    seed: u64,
    bit_flip_rate: f64,
    stuck_at_threshold: u64,
    torn_writes: bool,
    row_bytes: u64,
    reads_seen: u64,
    writes_seen: u64,
    torn_seen: u64,
    forced_flips: u32,
    row_writes: BTreeMap<u64, u64>,
    stuck: BTreeMap<u64, u8>,
}

/// Domain-separation tags mixed into the seed so the read, wear, and torn
/// schedules are independent streams.
const TAG_READ: u64 = 0x5245_4144; // "READ"
const TAG_WEAR: u64 = 0x5745_4152; // "WEAR"
const TAG_TORN: u64 = 0x544f_524e; // "TORN"

impl FaultModel {
    /// Builds a model from the configuration, using the device's row size
    /// for wear granularity.
    pub fn new(cfg: &MediaFaultConfig, row_bytes: u64) -> Self {
        Self {
            seed: cfg.seed,
            bit_flip_rate: cfg.bit_flip_rate,
            stuck_at_threshold: cfg.stuck_at_threshold,
            torn_writes: cfg.torn_writes,
            row_bytes: row_bytes.max(1),
            reads_seen: 0,
            writes_seen: 0,
            torn_seen: 0,
            forced_flips: 0,
            row_writes: BTreeMap::new(),
            stuck: BTreeMap::new(),
        }
    }

    /// Observes one device write of `bytes` at `addr`, feeding the wear
    /// model. When the write pushes its row across the stuck-at threshold,
    /// one cell inside the just-written range becomes permanently stuck and
    /// its address is returned (exactly once per row).
    pub fn record_write(&mut self, addr: HwAddr, bytes: u32) -> Option<u64> {
        self.writes_seen += 1;
        if self.stuck_at_threshold == 0 {
            return None;
        }
        let row = addr.raw() / self.row_bytes;
        let count = self.row_writes.entry(row).or_insert(0);
        *count += 1;
        if *count != self.stuck_at_threshold {
            return None;
        }
        // The row just wore out: pick a deterministic cell within the write
        // that triggered it and a bit inside that cell.
        let h = mix(self.seed ^ TAG_WEAR, row);
        let span = u64::from(bytes).max(1);
        let cell = addr.raw() + h % span;
        let mask = 1u8 << ((h >> 8) % 8);
        self.stuck.insert(cell, mask);
        Some(cell)
    }

    /// Decides whether a read of `bytes` at `addr` is corrupted.
    ///
    /// Stuck cells corrupt every read that covers them; otherwise a
    /// transient flip fires with the configured per-read probability. The
    /// transient stream always advances, so the schedule downstream of this
    /// read does not depend on which branch was taken.
    pub fn read_fault(&mut self, addr: HwAddr, bytes: u32) -> Option<FaultEvent> {
        self.reads_seen += 1;
        let base = addr.raw();
        let span = u64::from(bytes).max(1);
        if self.forced_flips > 0 {
            self.forced_flips -= 1;
            return Some(FaultEvent { addr: base, mask: 0x01, kind: FaultKind::BitFlip });
        }
        if let Some((&cell, &mask)) = self.stuck.range(base..base + span).next() {
            return Some(FaultEvent { addr: cell, mask, kind: FaultKind::StuckAt });
        }
        if self.bit_flip_rate > 0.0 {
            let h = mix(self.seed ^ TAG_READ, self.reads_seen);
            if unit(h) < self.bit_flip_rate {
                let addr = base + (h >> 17) % span;
                let mask = 1u8 << ((h >> 3) % 8);
                return Some(FaultEvent { addr, mask, kind: FaultKind::BitFlip });
            }
        }
        None
    }

    /// Whether this model can currently corrupt any read: the transient
    /// rate is zero (immutable after construction), no flip is armed, and
    /// no cell is stuck. Callers may skip [`FaultModel::read_fault`] for a
    /// quiet model — the transient stream is only consulted when the rate
    /// is nonzero, so the skipped `reads_seen` increments are unobservable
    /// and the fault schedule stays bit-identical. Wear and torn-write
    /// state do not affect read decisions and are tracked separately.
    pub fn is_quiet(&self) -> bool {
        self.bit_flip_rate == 0.0 && self.forced_flips == 0 && self.stuck.is_empty()
    }

    /// Applies a fault (if any) to a buffer just read from `addr`, XOR-ing
    /// the corrupted byte in place. Returns the fault kind when the buffer
    /// was corrupted.
    ///
    /// This is the integration point for byte-accurate stores such as
    /// [`crate::SparseStore`]: the caller reads the true bytes, then lets
    /// the model corrupt them as the device would have.
    pub fn corrupt_read(&mut self, addr: HwAddr, buf: &mut [u8]) -> Option<FaultKind> {
        let len = u32::try_from(buf.len()).unwrap_or(u32::MAX);
        let ev = self.read_fault(addr, len)?;
        let idx = (ev.addr - addr.raw()) as usize;
        if let Some(byte) = buf.get_mut(idx) {
            *byte ^= ev.mask;
        }
        Some(ev.kind)
    }

    /// How many leading words of a `words`-long device commit persist when
    /// power is lost mid-write. Returns a value in `0..words` when torn
    /// writes are modeled, or `words` (everything persisted) otherwise.
    pub fn torn_words(&mut self, words: usize) -> usize {
        if !self.torn_writes || words == 0 {
            return words;
        }
        self.torn_seen += 1;
        let h = mix(self.seed ^ TAG_TORN, self.torn_seen);
        (h % words as u64) as usize
    }

    /// Arms `n` guaranteed transient bit flips: each of the next `n` reads
    /// is corrupted once and reads back clean on retry. A test and demo
    /// hook for exercising the heal-by-retry path deterministically.
    pub fn arm_transient_flips(&mut self, n: u32) {
        self.forced_flips += n;
    }

    /// Repairs a stuck cell (models the block being remapped away from the
    /// bad location). Returns whether a cell was actually stuck there.
    pub fn repair(&mut self, addr: u64) -> bool {
        self.stuck.remove(&addr).is_some()
    }

    /// All currently stuck cells as `(address, stuck bit mask)`, in address
    /// order.
    pub fn stuck_cells(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        self.stuck.iter().map(|(&a, &m)| (a, m))
    }

    /// Whether any cell in `[addr, addr + bytes)` is stuck.
    pub fn is_stuck_range(&self, addr: HwAddr, bytes: u32) -> bool {
        let base = addr.raw();
        self.stuck.range(base..base + u64::from(bytes).max(1)).next().is_some()
    }

    /// Wear summary of the writes this model has observed, in the same
    /// shape the device reports.
    pub fn wear(&self) -> WearStats {
        let rows_written = self.row_writes.len() as u64;
        let total_writes: u64 = self.row_writes.values().sum();
        let max_row_writes = self.row_writes.values().copied().max().unwrap_or(0);
        let imbalance = if rows_written == 0 {
            0.0
        } else {
            max_row_writes as f64 / (total_writes as f64 / rows_written as f64)
        };
        WearStats { rows_written, total_writes, max_row_writes, imbalance }
    }
}

/// Outcome of one SEC-DED-checked DRAM read, as decided by
/// [`DramEccModel::observe_read`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccReadFault {
    /// A single-bit transient the SEC-DED code corrected: the delivered
    /// data is good, the event only needs counting.
    Corrected,
    /// A multi-bit error the code can detect but not correct: the 64 B
    /// block at device offset `block` is poisoned. `fresh` is `true` the
    /// first time the block is reported and `false` on every re-read of an
    /// already-poisoned block.
    Poisoned {
        /// Block-aligned device offset of the poisoned 64 B block.
        block: u64,
        /// Whether this read created the poison (count it once).
        fresh: bool,
    },
}

/// Deterministic, seedable SEC-DED ECC model for the DRAM working region.
///
/// Mirrors [`FaultModel`]'s determinism contract: every decision is a pure
/// function of the configured seed and the read counter, so fault
/// schedules replay exactly across runs. Single-bit transients are
/// corrected in place by the code; multi-bit errors poison whole 64 B
/// blocks, which stay poisoned (the stored data itself is corrupt, so
/// re-reads keep failing) until the block is rewritten whole, re-fetched
/// from NVM, or power is lost — DRAM poison is volatile.
#[derive(Debug, Clone)]
pub struct DramEccModel {
    seed: u64,
    flip_rate: f64,
    poison_rate: f64,
    reads_seen: u64,
    forced_flips: u32,
    forced_poisons: u32,
    poisoned: BTreeSet<u64>,
}

/// Domain-separation tags for the DRAM ECC streams (distinct from the NVM
/// model's `TAG_READ`/`TAG_WEAR`/`TAG_TORN` so equal seeds would still
/// decorrelate — though the config layer additionally rejects equal seeds).
const TAG_ECC_FLIP: u64 = 0x4543_4346; // "ECCF"
const TAG_ECC_POISON: u64 = 0x4543_4350; // "ECCP"

impl DramEccModel {
    /// Builds a model from the configuration.
    pub fn new(cfg: &DramFaultConfig) -> Self {
        Self {
            seed: cfg.seed,
            flip_rate: cfg.flip_rate,
            poison_rate: cfg.poison_rate,
            reads_seen: 0,
            forced_flips: 0,
            forced_poisons: 0,
            poisoned: BTreeSet::new(),
        }
    }

    /// Observes one ECC-checked DRAM read of `bytes` at device offset
    /// `off` and decides its outcome.
    ///
    /// A read covering an already-poisoned block always reports that block
    /// (`fresh: false`): its stored data is corrupt, so the check keeps
    /// failing. Otherwise the seeded streams decide — a multi-bit error
    /// poisons one block inside the span, a single-bit transient is
    /// corrected. Both streams advance on every read, so the downstream
    /// schedule does not depend on which branch was taken.
    pub fn observe_read(&mut self, off: u64, bytes: u32) -> Option<EccReadFault> {
        self.reads_seen += 1;
        let span = u64::from(bytes).max(1);
        if self.forced_poisons > 0 {
            self.forced_poisons -= 1;
            let block = off & !(BLOCK_BYTES - 1);
            let fresh = self.poisoned.insert(block);
            return Some(EccReadFault::Poisoned { block, fresh });
        }
        if let Some(block) = self.first_poisoned_in(off, span) {
            return Some(EccReadFault::Poisoned { block, fresh: false });
        }
        if self.forced_flips > 0 {
            self.forced_flips -= 1;
            return Some(EccReadFault::Corrected);
        }
        // The hashes are only *consulted* when the corresponding rate is
        // armed; computing them lazily keeps the zero-rate path to a
        // counter increment without changing any armed schedule (each
        // stream is a pure function of seed and `reads_seen`).
        if self.poison_rate > 0.0 {
            let hp = mix(self.seed ^ TAG_ECC_POISON, self.reads_seen);
            if unit(hp) < self.poison_rate {
                let block = (off + (hp >> 17) % span) & !(BLOCK_BYTES - 1);
                self.poisoned.insert(block);
                return Some(EccReadFault::Poisoned { block, fresh: true });
            }
        }
        if self.flip_rate > 0.0 {
            let hf = mix(self.seed ^ TAG_ECC_FLIP, self.reads_seen);
            if unit(hf) < self.flip_rate {
                return Some(EccReadFault::Corrected);
            }
        }
        None
    }

    /// Whether this model can currently produce any fault at all: both
    /// rates are zero (immutable after construction), no test hook is
    /// armed, and no block is poisoned. Callers may skip [`observe_read`]
    /// entirely for a quiet model — the seeded streams are only consulted
    /// when a rate is nonzero, so the skipped counter increments are
    /// unobservable and the fault schedule stays bit-identical.
    ///
    /// [`observe_read`]: DramEccModel::observe_read
    pub fn is_quiet(&self) -> bool {
        self.flip_rate == 0.0
            && self.poison_rate == 0.0
            && self.forced_flips == 0
            && self.forced_poisons == 0
            && self.poisoned.is_empty()
    }

    /// Observes one DRAM write: blocks *fully* covered by
    /// `[off, off + bytes)` are rewritten with a freshly encoded ECC word,
    /// clearing their poison. Partial overwrites leave the poison in place
    /// (the ECC word still covers stale corrupt bytes). Returns how many
    /// poisoned blocks the write cleared.
    pub fn note_write(&mut self, off: u64, bytes: u32) -> usize {
        if self.poisoned.is_empty() {
            return 0;
        }
        let end = off + u64::from(bytes);
        let first = off.next_multiple_of(BLOCK_BYTES);
        let last = end & !(BLOCK_BYTES - 1);
        if first >= last {
            return 0;
        }
        let cleared: Vec<u64> = self.poisoned.range(first..last).copied().collect();
        for b in &cleared {
            self.poisoned.remove(b);
        }
        cleared.len()
    }

    /// Poisoned blocks intersecting `[off, off + len)`, in address order.
    pub fn poisoned_in(&self, off: u64, len: u64) -> Vec<u64> {
        let start = off.saturating_sub(BLOCK_BYTES - 1) & !(BLOCK_BYTES - 1);
        self.poisoned
            .range(start..off.saturating_add(len.max(1)))
            .copied()
            .filter(|&b| b + BLOCK_BYTES > off)
            .collect()
    }

    /// The lowest poisoned block intersecting `[off, off + len)`, without
    /// allocating — the hot-path form of [`DramEccModel::poisoned_in`].
    pub fn first_poisoned_in(&self, off: u64, len: u64) -> Option<u64> {
        if self.poisoned.is_empty() {
            return None;
        }
        let start = off.saturating_sub(BLOCK_BYTES - 1) & !(BLOCK_BYTES - 1);
        self.poisoned
            .range(start..off.saturating_add(len.max(1)))
            .copied()
            .find(|&b| b + BLOCK_BYTES > off)
    }

    /// Whether any block in `[off, off + bytes)` is poisoned.
    pub fn is_poisoned(&self, off: u64, bytes: u32) -> bool {
        self.first_poisoned_in(off, u64::from(bytes)).is_some()
    }

    /// Clears the poison on the block at block-aligned offset `block`
    /// (models a re-fetch from the NVM checkpoint copy rewriting it).
    /// Returns whether the block was actually poisoned.
    pub fn clear_block(&mut self, block: u64) -> bool {
        self.poisoned.remove(&block)
    }

    /// Power loss: DRAM contents — and with them all poison — vanish.
    /// Returns how many poisoned blocks were outstanding.
    pub fn clear_all(&mut self) -> usize {
        let n = self.poisoned.len();
        self.poisoned.clear();
        n
    }

    /// Number of currently poisoned blocks.
    pub fn outstanding(&self) -> usize {
        self.poisoned.len()
    }

    /// All currently poisoned block offsets, in address order.
    pub fn poisoned_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.poisoned.iter().copied()
    }

    /// Arms `n` guaranteed corrected single-bit transients on the next `n`
    /// reads (test/demo hook).
    pub fn arm_corrected_flips(&mut self, n: u32) {
        self.forced_flips += n;
    }

    /// Arms `n` guaranteed multi-bit errors: each of the next `n` reads
    /// poisons the first block of its span (test/demo hook).
    pub fn arm_poison(&mut self, n: u32) {
        self.forced_poisons += n;
    }

    /// Directly poisons the block containing device offset `off`
    /// (test/demo hook). Returns `true` if the block was not already
    /// poisoned.
    pub fn poison_block(&mut self, off: u64) -> bool {
        self.poisoned.insert(off & !(BLOCK_BYTES - 1))
    }
}

/// Receipt of one security-metadata persist: how much counter-table and
/// integrity-tree state had to be written to NVM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecurityPersist {
    /// Dirty counter-table entries persisted (8 B each, logically).
    pub counter_entries: usize,
    /// Distinct integrity-tree nodes rewritten on the dirty leaves' paths
    /// to the root (root included).
    pub tree_nodes: u64,
}

/// Deterministic model of the secure persistent memory mode: per-block
/// counter-mode encryption counters and an integrity tree over the
/// counter table, both treated as crash-consistency state.
///
/// The model mirrors the determinism contract of [`FaultModel`] and
/// [`DramEccModel`]: every decision — including the adversarial tamper
/// schedule drawn from `tamper_rate` — is a pure function of the
/// configured seed and explicit counters, so runs replay exactly.
///
/// Counter lifecycle (Zuo et al., arXiv:1901.00620): the controller bumps
/// a block's write counter on every encrypted NVM write
/// ([`SecurityModel::note_block_write`], one Fx-map probe); at each epoch
/// boundary the dirty list's counters and their integrity-tree path are
/// persisted ([`SecurityModel::persist`]) under the checkpoint's
/// commit-record discipline; a crash rewinds only the dirty rows
/// ([`SecurityModel::crash`]) and reports exactly how many counters were
/// lost — recovery *replays* that bounded set, never guesses.
#[derive(Debug, Clone)]
pub struct SecurityModel {
    seed: u64,
    arity: u64,
    tamper_rate: f64,
    /// Block number (aligned byte addresses would zero Fx's low hash bits)
    /// → (volatile counter, last persisted counter); `0` means no entry.
    counters: FxHashMap<u64, (u64, u64)>,
    /// Blocks whose volatile counter left its persisted value this epoch.
    dirty: Vec<u64>,
    /// Blocks with a nonzero persisted counter.
    persisted_entries: usize,
    /// Generation of the persisted table (bumped once per persist); the
    /// integrity-tree root authenticates table + generation, which is what
    /// makes a rolled-back table (replay attack) detectable.
    generation: u64,
    /// Injected fault: the root record was torn by power loss mid-persist.
    root_torn: bool,
    /// Injected attack: the persisted table was rolled back to an earlier
    /// generation (counter-replay attack).
    stale_table: bool,
    tamper_rolls: u64,
}

/// Domain-separation tag for the adversarial tamper schedule.
const TAG_TAMPER: u64 = 0x544d_5052; // "TMPR"

impl SecurityModel {
    /// Builds a model from the configuration.
    pub fn new(cfg: &SecurityConfig) -> Self {
        Self {
            seed: cfg.seed,
            arity: u64::from(cfg.tree_arity.max(2)),
            tamper_rate: cfg.tamper_rate,
            counters: FxHashMap::default(),
            dirty: Vec::new(),
            persisted_entries: 0,
            generation: 0,
            root_torn: false,
            stale_table: false,
            tamper_rolls: 0,
        }
    }

    /// Observes one encrypted write of the 64 B block at (block-aligned)
    /// device address `block`: bumps its write counter and marks it dirty.
    /// Returns the new counter value.
    pub fn note_block_write(&mut self, block: u64) -> u64 {
        let b = block / BLOCK_BYTES;
        let row = self.counters.entry(b).or_default();
        self.dirty.extend((row.0 == row.1).then_some(b));
        row.0 += 1;
        row.0
    }

    /// Number of counters bumped since the last persist — the exact
    /// exposure a crash right now would have to replay.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Number of entries in the persisted counter table.
    pub fn table_entries(&self) -> usize {
        self.persisted_entries
    }

    /// Generation of the persisted counter table.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Persists the dirty counters and the integrity-tree path above them,
    /// advancing the table generation. Returns what had to be written.
    ///
    /// Tree accounting: each dirty leaf (counter entry, indexed by block
    /// number) dirties its ancestor chain; distinct ancestors per level
    /// are counted once, up to and including the root.
    pub fn persist(&mut self) -> SecurityPersist {
        let counter_entries = self.dirty.len();
        let mut tree_nodes = 0u64;
        for &b in &self.dirty {
            let row = self.counters.entry(b).or_default();
            self.persisted_entries += usize::from(row.1 == 0);
            row.1 = row.0;
        }
        // Walk the tree levels in place: division keeps the list sorted.
        self.dirty.sort_unstable();
        while !self.dirty.is_empty() {
            self.dirty.iter_mut().for_each(|i| *i /= self.arity);
            self.dirty.dedup();
            tree_nodes += self.dirty.len() as u64;
            if self.dirty[..] == [0] {
                self.dirty.clear();
            }
        }
        self.generation += 1;
        SecurityPersist { counter_entries, tree_nodes }
    }

    /// Power loss: the volatile counter cache reverts to the persisted
    /// table. Returns how many counters were lost mid-epoch — the bounded
    /// set recovery must replay.
    pub fn crash(&mut self) -> usize {
        let lost = self.dirty.len();
        for b in self.dirty.drain(..) {
            self.counters.entry(b).and_modify(|row| row.0 = row.1);
        }
        lost
    }

    /// Whether the persisted security metadata authenticates: no torn root
    /// and no rolled-back table. A pure function of persisted state, so
    /// restarted recovery attempts reach the same verdict.
    pub fn table_authentic(&self) -> bool {
        !self.root_torn && !self.stale_table
    }

    /// Whether the injected metadata fault is a torn root (power loss
    /// mid-persist) as opposed to a rolled-back table.
    pub fn root_is_torn(&self) -> bool {
        self.root_torn
    }

    /// Injects a torn security-metadata root: power was lost while the
    /// root record was being persisted.
    pub fn tamper_torn_root(&mut self) {
        self.root_torn = true;
    }

    /// Injects a counter-replay attack: the persisted table was rolled
    /// back to a stale generation out-of-band.
    pub fn tamper_stale_table(&mut self) {
        self.stale_table = true;
    }

    /// Heals the persisted metadata after a WAL-sealed fallback re-derived
    /// and re-sealed it from the authenticated image.
    pub fn heal_table(&mut self) {
        self.root_torn = false;
        self.stale_table = false;
    }

    /// Full reset to the empty (provably uncorrupted) state — the
    /// unrecoverable path: no counter or tree state survives.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.dirty.clear();
        self.persisted_entries = 0;
        self.generation = 0;
        self.root_torn = false;
        self.stale_table = false;
    }

    /// Draws the next decision from the adversarial tamper schedule:
    /// `Some(hash)` when the seeded stream decides this crash is
    /// accompanied by tampering (the hash picks the tamper kind), `None`
    /// otherwise. The stream always advances, so downstream decisions do
    /// not depend on which branch was taken.
    pub fn tamper_roll(&mut self) -> Option<u64> {
        self.tamper_rolls += 1;
        if self.tamper_rate <= 0.0 {
            return None;
        }
        let h = mix(self.seed ^ TAG_TAMPER, self.tamper_rolls);
        (unit(h) < self.tamper_rate).then_some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> MediaFaultConfig {
        MediaFaultConfig {
            enabled: true,
            seed,
            bit_flip_rate: 0.25,
            stuck_at_threshold: 4,
            torn_writes: true,
            ..MediaFaultConfig::default()
        }
    }

    /// Drives a model through a fixed interleaving of reads, writes, and
    /// torn commits and records every observable decision it makes.
    fn schedule(model: &mut FaultModel) -> Vec<(u64, u8, FaultKind, usize)> {
        let mut out = Vec::new();
        for i in 0..64u64 {
            let addr = HwAddr::new((i % 7) * 64);
            model.record_write(addr, 64);
            if let Some(ev) = model.read_fault(addr, 64) {
                out.push((ev.addr, ev.mask, ev.kind, 0));
            }
            if i % 5 == 0 {
                out.push((0, 0, FaultKind::TornWrite, model.torn_words(8)));
            }
        }
        out
    }

    #[test]
    fn same_seed_replays_byte_identical_schedule() {
        // Satellite requirement: the proptest shim cannot replay upstream
        // seed hashes, so determinism must be proven at the model level.
        let mut a = FaultModel::new(&cfg(0xDEAD_BEEF), 8192);
        let mut b = FaultModel::new(&cfg(0xDEAD_BEEF), 8192);
        let sa = schedule(&mut a);
        let sb = schedule(&mut b);
        assert!(!sa.is_empty(), "schedule produced no faults; rates too low");
        assert_eq!(sa, sb, "same seed must replay an identical fault schedule");
        // And the accumulated state matches too.
        assert_eq!(a.stuck_cells().collect::<Vec<_>>(), b.stuck_cells().collect::<Vec<_>>());
        assert_eq!(a.wear(), b.wear());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultModel::new(&cfg(1), 8192);
        let mut b = FaultModel::new(&cfg(2), 8192);
        assert_ne!(schedule(&mut a), schedule(&mut b));
    }

    #[test]
    fn stuck_cell_appears_exactly_at_threshold_and_persists() {
        let mut m = FaultModel::new(
            &MediaFaultConfig { enabled: true, stuck_at_threshold: 3, ..Default::default() },
            8192,
        );
        let addr = HwAddr::new(128);
        assert_eq!(m.record_write(addr, 64), None);
        assert_eq!(m.record_write(addr, 64), None);
        let cell = m.record_write(addr, 64).expect("third write crosses threshold");
        assert!((128..192).contains(&cell), "stuck cell inside the written range");
        // Only once per row.
        assert_eq!(m.record_write(addr, 64), None);
        // Every covering read is corrupted, at the same cell.
        let e1 = m.read_fault(addr, 64).expect("stuck read corrupts");
        let e2 = m.read_fault(addr, 64).expect("still corrupts");
        assert_eq!((e1.addr, e1.mask, e1.kind), (e2.addr, e2.mask, FaultKind::StuckAt));
        assert!(m.is_stuck_range(addr, 64));
        // Repair clears it.
        assert!(m.repair(cell));
        assert_eq!(m.read_fault(addr, 64), None);
        assert!(!m.is_stuck_range(addr, 64));
    }

    #[test]
    fn transient_flip_rate_zero_never_fires() {
        let mut m = FaultModel::new(&MediaFaultConfig { enabled: true, ..Default::default() }, 8192);
        for i in 0..1000 {
            assert_eq!(m.read_fault(HwAddr::new(i * 64), 64), None);
        }
    }

    #[test]
    fn transient_flip_rate_one_always_fires_within_range() {
        let mut m = FaultModel::new(
            &MediaFaultConfig { enabled: true, bit_flip_rate: 1.0, ..Default::default() },
            8192,
        );
        for i in 0..100u64 {
            let base = i * 64;
            let ev = m.read_fault(HwAddr::new(base), 64).expect("rate 1.0 always flips");
            assert_eq!(ev.kind, FaultKind::BitFlip);
            assert!((base..base + 64).contains(&ev.addr));
            assert_eq!(ev.mask.count_ones(), 1, "exactly one flipped bit");
        }
    }

    #[test]
    fn armed_flips_fire_once_each_then_clear() {
        let mut m = FaultModel::new(&MediaFaultConfig { enabled: true, ..Default::default() }, 8192);
        m.arm_transient_flips(2);
        assert!(m.read_fault(HwAddr::new(0), 64).is_some());
        assert!(m.read_fault(HwAddr::new(0), 64).is_some());
        assert_eq!(m.read_fault(HwAddr::new(0), 64), None, "armed flips are consumed");
    }

    #[test]
    fn torn_words_truncates_and_is_deterministic() {
        let c = MediaFaultConfig { enabled: true, torn_writes: true, ..Default::default() };
        let mut a = FaultModel::new(&c, 8192);
        let mut b = FaultModel::new(&c, 8192);
        for _ in 0..32 {
            let wa = a.torn_words(8);
            assert!(wa < 8, "torn commit persists fewer than all words");
            assert_eq!(wa, b.torn_words(8));
        }
        // Disabled: everything persists.
        let mut off = FaultModel::new(&MediaFaultConfig::default(), 8192);
        assert_eq!(off.torn_words(8), 8);
    }

    #[test]
    fn corrupt_read_xors_buffer_in_place() {
        let mut m = FaultModel::new(
            &MediaFaultConfig { enabled: true, bit_flip_rate: 1.0, ..Default::default() },
            8192,
        );
        let mut buf = [0u8; 64];
        let kind = m.corrupt_read(HwAddr::new(0), &mut buf).expect("flips");
        assert_eq!(kind, FaultKind::BitFlip);
        let flipped: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped in the buffer");
    }

    #[test]
    fn wear_summary_matches_device_shape() {
        let mut m = FaultModel::new(
            &MediaFaultConfig { enabled: true, stuck_at_threshold: 100, ..Default::default() },
            8192,
        );
        m.record_write(HwAddr::new(0), 64);
        m.record_write(HwAddr::new(0), 64);
        m.record_write(HwAddr::new(8192), 64);
        let w = m.wear();
        assert_eq!(w.rows_written, 2);
        assert_eq!(w.total_writes, 3);
        assert_eq!(w.max_row_writes, 2);
        assert!(w.imbalance > 1.0);
    }

    fn ecc(seed: u64, flip: f64, poison: f64) -> DramEccModel {
        DramEccModel::new(&DramFaultConfig {
            enabled: true,
            seed,
            flip_rate: flip,
            poison_rate: poison,
            ..Default::default()
        })
    }

    #[test]
    fn ecc_same_seed_replays_identically() {
        let mut a = ecc(7, 0.05, 0.02);
        let mut b = ecc(7, 0.05, 0.02);
        for i in 0..2000u64 {
            let off = (i * 24) % 8192;
            assert_eq!(a.observe_read(off, 64), b.observe_read(off, 64));
        }
        assert_eq!(
            a.poisoned_blocks().collect::<Vec<_>>(),
            b.poisoned_blocks().collect::<Vec<_>>()
        );
    }

    #[test]
    fn ecc_different_seeds_diverge() {
        let mut a = ecc(7, 0.05, 0.02);
        let mut b = ecc(8, 0.05, 0.02);
        let fa: Vec<_> = (0..500u64).map(|i| a.observe_read(i * 64 % 4096, 64)).collect();
        let fb: Vec<_> = (0..500u64).map(|i| b.observe_read(i * 64 % 4096, 64)).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn ecc_rate_zero_never_faults_rate_one_always() {
        let mut quiet = ecc(1, 0.0, 0.0);
        for i in 0..1000u64 {
            assert_eq!(quiet.observe_read(i * 64, 64), None);
        }
        let mut noisy = ecc(1, 1.0, 0.0);
        for i in 0..100u64 {
            assert_eq!(noisy.observe_read(i * 64, 64), Some(EccReadFault::Corrected));
        }
        let mut toxic = ecc(1, 0.0, 1.0);
        match toxic.observe_read(0, 64) {
            Some(EccReadFault::Poisoned { block: 0, fresh: true }) => {}
            other => panic!("expected fresh poison at block 0, got {other:?}"),
        }
        // The block stays poisoned on re-read, now stale.
        assert_eq!(
            toxic.observe_read(0, 64),
            Some(EccReadFault::Poisoned { block: 0, fresh: false })
        );
        assert_eq!(toxic.outstanding(), 1);
    }

    #[test]
    fn ecc_armed_hooks_fire_once_each() {
        let mut m = ecc(3, 0.0, 0.0);
        m.arm_corrected_flips(1);
        m.arm_poison(1);
        // Poison hook takes precedence, then the corrected flip, then quiet.
        assert_eq!(m.observe_read(128, 64), Some(EccReadFault::Poisoned { block: 128, fresh: true }));
        // The poisoned block keeps reporting; read elsewhere for the flip.
        assert_eq!(m.observe_read(1024, 64), Some(EccReadFault::Corrected));
        assert_eq!(m.observe_read(1024, 64), None);
        assert!(m.is_poisoned(128, 64));
        assert!(!m.is_poisoned(192, 64));
    }

    #[test]
    fn ecc_full_overwrite_clears_partial_does_not() {
        let mut m = ecc(4, 0.0, 0.0);
        m.poison_block(256);
        m.poison_block(320);
        // Partial overwrite of block 256 leaves poison in place.
        assert_eq!(m.note_write(256, 32), 0);
        assert!(m.is_poisoned(256, 64));
        // Whole-block overwrite clears exactly the covered blocks.
        assert_eq!(m.note_write(256, 64), 1);
        assert!(!m.is_poisoned(256, 64));
        assert!(m.is_poisoned(320, 64));
        // Unaligned span that happens to cover block 320 entirely clears it.
        assert_eq!(m.note_write(300, 120), 1);
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn ecc_clear_all_reports_outstanding_count() {
        let mut m = ecc(5, 0.0, 0.0);
        m.poison_block(0);
        m.poison_block(4096);
        m.poison_block(4096); // duplicate is idempotent
        assert_eq!(m.outstanding(), 2);
        assert_eq!(m.clear_all(), 2);
        assert_eq!(m.outstanding(), 0);
        assert_eq!(m.clear_all(), 0);
    }

    #[test]
    fn quiet_models_report_quiet_and_skipping_is_unobservable() {
        // NVM model: zero rate, nothing armed, nothing stuck => quiet.
        let mut m = FaultModel::new(&MediaFaultConfig { enabled: true, ..Default::default() }, 8192);
        assert!(m.is_quiet());
        m.arm_transient_flips(1);
        assert!(!m.is_quiet());
        m.read_fault(HwAddr::new(0), 64);
        assert!(m.is_quiet(), "armed flip consumed");
        // A stuck cell silences the fast path.
        let mut worn = FaultModel::new(
            &MediaFaultConfig { enabled: true, stuck_at_threshold: 1, ..Default::default() },
            8192,
        );
        worn.record_write(HwAddr::new(0), 64);
        assert!(!worn.is_quiet());
        // A nonzero transient rate is never quiet.
        let hot = FaultModel::new(
            &MediaFaultConfig { enabled: true, bit_flip_rate: 0.1, ..Default::default() },
            8192,
        );
        assert!(!hot.is_quiet());

        // ECC model: skipping observe_read while quiet must not change any
        // later decision. `a` makes 100 quiet reads, `b` skips them; both
        // then arm the same hook and must agree.
        let mut a = ecc(11, 0.0, 0.0);
        let mut b = ecc(11, 0.0, 0.0);
        assert!(a.is_quiet());
        for i in 0..100u64 {
            assert_eq!(a.observe_read(i * 64, 64), None);
        }
        a.arm_poison(1);
        b.arm_poison(1);
        assert!(!a.is_quiet() && !b.is_quiet());
        assert_eq!(a.observe_read(640, 64), b.observe_read(640, 64));
        let noisy = ecc(11, 0.5, 0.0);
        assert!(!noisy.is_quiet());
    }

    fn sec(seed: u64, rate: f64) -> SecurityModel {
        SecurityModel::new(&SecurityConfig {
            enabled: true,
            seed,
            tamper_rate: rate,
            ..Default::default()
        })
    }

    #[test]
    fn security_counters_bump_persist_and_revert_on_crash() {
        let mut m = sec(1, 0.0);
        assert_eq!(m.note_block_write(0), 1);
        assert_eq!(m.note_block_write(70), 1); // same block as 64
        assert_eq!(m.note_block_write(64), 2);
        assert_eq!(m.note_block_write(4096), 1);
        assert_eq!(m.dirty_count(), 3);

        let receipt = m.persist();
        assert_eq!(receipt.counter_entries, 3);
        assert!(receipt.tree_nodes >= 1, "at least the root is rewritten");
        assert_eq!(m.dirty_count(), 0);
        assert_eq!(m.table_entries(), 3);
        assert_eq!(m.generation(), 1);

        // Mid-epoch bumps are exactly the crash exposure.
        m.note_block_write(0);
        m.note_block_write(8192);
        assert_eq!(m.dirty_count(), 2);
        assert_eq!(m.crash(), 2, "two counters lost, bounded and replayable");
        assert_eq!(m.dirty_count(), 0);
        // The volatile cache reverted to the persisted table: a re-bump of
        // block 0 continues from the persisted value (1), not the lost 2.
        assert_eq!(m.note_block_write(0), 2);
    }

    #[test]
    fn security_persist_with_no_dirty_counters_writes_no_tree() {
        let mut m = sec(2, 0.0);
        let receipt = m.persist();
        assert_eq!(receipt, SecurityPersist { counter_entries: 0, tree_nodes: 0 });
        assert_eq!(m.generation(), 1, "generation still advances with the checkpoint");
    }

    #[test]
    fn security_tree_nodes_shared_ancestors_counted_once() {
        let mut m = sec(3, 0.0);
        // Two adjacent blocks share every ancestor under arity 8.
        m.note_block_write(0);
        m.note_block_write(64);
        let adjacent = m.persist().tree_nodes;
        // Two far-apart blocks share only the root.
        let mut m2 = sec(3, 0.0);
        m2.note_block_write(0);
        m2.note_block_write(64 * 8 * 8 * 8 * 64);
        let distant = m2.persist().tree_nodes;
        assert!(distant > adjacent, "distant leaves dirty more tree nodes");
    }

    #[test]
    fn security_tamper_flags_and_heal() {
        let mut m = sec(4, 0.0);
        assert!(m.table_authentic());
        m.tamper_torn_root();
        assert!(!m.table_authentic() && m.root_is_torn());
        m.heal_table();
        assert!(m.table_authentic());
        m.tamper_stale_table();
        assert!(!m.table_authentic() && !m.root_is_torn());
        m.note_block_write(0);
        m.persist();
        m.reset();
        assert!(m.table_authentic());
        assert_eq!((m.table_entries(), m.dirty_count(), m.generation()), (0, 0, 0));
    }

    #[test]
    fn security_tamper_schedule_is_deterministic_and_rate_gated() {
        let mut a = sec(9, 0.5);
        let mut b = sec(9, 0.5);
        let ra: Vec<_> = (0..64).map(|_| a.tamper_roll()).collect();
        let rb: Vec<_> = (0..64).map(|_| b.tamper_roll()).collect();
        assert_eq!(ra, rb, "same seed, same tamper schedule");
        assert!(ra.iter().any(Option::is_some) && ra.iter().any(Option::is_none));
        let mut quiet = sec(9, 0.0);
        assert!((0..64).all(|_| quiet.tamper_roll().is_none()));
        let mut c = sec(10, 0.5);
        let rc: Vec<_> = (0..64).map(|_| c.tamper_roll()).collect();
        assert_ne!(ra, rc, "different seeds diverge");
    }

    #[test]
    fn first_poisoned_in_matches_poisoned_in() {
        let mut m = ecc(6, 0.0, 0.0);
        assert_eq!(m.first_poisoned_in(0, 4096), None);
        m.poison_block(64);
        m.poison_block(256);
        for (off, len) in [(0u64, 4096u64), (100, 1), (0, 64), (128, 64), (200, 100)] {
            assert_eq!(
                m.first_poisoned_in(off, len),
                m.poisoned_in(off, len).first().copied(),
                "divergence at off={off} len={len}"
            );
        }
    }

    #[test]
    fn ecc_poisoned_in_finds_straddling_blocks() {
        let mut m = ecc(6, 0.0, 0.0);
        m.poison_block(64);
        // A 1-byte read at offset 100 sits inside block 64..128.
        assert_eq!(m.poisoned_in(100, 1), vec![64]);
        // A span ending exactly at the block start does not touch it.
        assert!(m.poisoned_in(0, 64).is_empty());
        assert!(m.clear_block(64));
        assert!(!m.clear_block(64));
    }

    /// The counter table as it was first modeled — a `BTreeMap` counter
    /// cache, a `BTreeMap` persisted table and a `BTreeSet` dirty set —
    /// kept as the reference the production layout must match bit for bit.
    struct BTreeCounterTable {
        arity: u64,
        counters: BTreeMap<u64, u64>,
        persisted: BTreeMap<u64, u64>,
        dirty: BTreeSet<u64>,
        generation: u64,
    }

    impl BTreeCounterTable {
        fn new(arity: u32) -> Self {
            Self {
                arity: u64::from(arity.max(2)),
                counters: BTreeMap::new(),
                persisted: BTreeMap::new(),
                dirty: BTreeSet::new(),
                generation: 0,
            }
        }

        fn note_block_write(&mut self, block: u64) -> u64 {
            let b = block & !(BLOCK_BYTES - 1);
            let c = self.counters.entry(b).or_insert(0);
            *c += 1;
            self.dirty.insert(b);
            *c
        }

        fn persist(&mut self) -> SecurityPersist {
            let counter_entries = self.dirty.len();
            let mut tree_nodes = 0u64;
            if counter_entries > 0 {
                let mut level: BTreeSet<u64> =
                    self.dirty.iter().map(|b| b / BLOCK_BYTES).collect();
                loop {
                    let parents: BTreeSet<u64> = level.iter().map(|i| i / self.arity).collect();
                    tree_nodes += parents.len() as u64;
                    if parents.len() == 1 && parents.contains(&0) {
                        break;
                    }
                    level = parents;
                }
                for &b in &self.dirty {
                    let c = self.counters.get(&b).copied().unwrap_or(0);
                    self.persisted.insert(b, c);
                }
                self.dirty.clear();
            }
            self.generation += 1;
            SecurityPersist { counter_entries, tree_nodes }
        }

        fn crash(&mut self) -> usize {
            let lost = self.dirty.len();
            self.counters = self.persisted.clone();
            self.dirty.clear();
            lost
        }

        fn reset(&mut self) {
            self.counters.clear();
            self.persisted.clear();
            self.dirty.clear();
            self.generation = 0;
        }
    }

    /// Draws one block address: mostly from a small hot set (so counters
    /// repeat and crashes revert persisted rows), unaligned inside its
    /// block, sometimes above 4 GiB, and occasionally near the top of the
    /// address space where the integrity tree is deepest.
    fn diff_addr(h: u64) -> u64 {
        let offset = (h >> 40) % BLOCK_BYTES;
        match h % 8 {
            0..=4 => (h >> 8) % 256 * BLOCK_BYTES + offset,
            5 => (4 << 30) + (h >> 8) % 4096 * BLOCK_BYTES + offset,
            6 => (h >> 8) % (1 << 24) * BLOCK_BYTES + offset,
            _ => u64::MAX - (h >> 8) % 64 * BLOCK_BYTES,
        }
    }

    #[test]
    fn security_counter_table_matches_btree_reference() {
        for arity in [2u32, 3, 7, 8, 16, 64] {
            for seed in 0..8u64 {
                let cfg =
                    SecurityConfig { enabled: true, seed, tree_arity: arity, ..Default::default() };
                let mut fast = SecurityModel::new(&cfg);
                let mut reference = BTreeCounterTable::new(arity);
                let (mut persists, mut crashes, mut resets) = (0, 0, 0);
                for step in 0..4000u64 {
                    let h = mix(seed ^ (u64::from(arity) << 32), step);
                    let at = format!("arity {arity}, seed {seed}, step {step}");
                    match (h >> 56) % 64 {
                        0..=3 => {
                            persists += 1;
                            assert_eq!(fast.persist(), reference.persist(), "persist at {at}");
                        }
                        4..=5 => {
                            crashes += 1;
                            assert_eq!(fast.crash(), reference.crash(), "crash at {at}");
                        }
                        6 if step % 3 == 0 => {
                            resets += 1;
                            fast.reset();
                            reference.reset();
                        }
                        _ => {
                            let a = diff_addr(h);
                            assert_eq!(
                                fast.note_block_write(a),
                                reference.note_block_write(a),
                                "bump of {a:#x} at {at}"
                            );
                        }
                    }
                    assert_eq!(fast.dirty_count(), reference.dirty.len(), "dirty_count at {at}");
                    assert_eq!(
                        fast.table_entries(),
                        reference.persisted.len(),
                        "table_entries at {at}"
                    );
                    assert_eq!(fast.generation(), reference.generation, "generation at {at}");
                }
                assert!(persists > 0 && crashes > 0 && resets > 0, "every operation exercised");
            }
        }
    }
}
