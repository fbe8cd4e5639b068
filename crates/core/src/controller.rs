//! The ThyNVM memory controller.
//!
//! [`ThyNvm`] combines:
//!
//! * the **timing layer** — DRAM/NVM devices, write queues, translation
//!   table costs, checkpoint-job scheduling, cooperation stalls — which
//!   produces the performance numbers of §5; and
//! * the **functional layer** — real bytes in sparse stores plus per-epoch
//!   write logs — which makes the three-version consistency protocol
//!   *testable*: crash at any cycle, recover, and compare contents.
//!
//! # Store path (Figure 6a)
//!
//! A store first probes the PTT. A PTT hit writes the DRAM working page —
//! unless the page is frozen by an in-flight checkpoint, in which case the
//! write is absorbed by block remapping into the DRAM block buffer (§3.4
//! cooperation). A PTT miss uses block remapping: while no checkpoint is in
//! flight the working copy is written directly to NVM, overwriting
//! `C_penult` (§3.2); while one is in flight `C_penult` must be preserved,
//! so the write is buffered in the DRAM Working Data Region (§4.1).
//!
//! # Checkpoint order (Figure 6b)
//!
//! 1. drain DRAM-buffered block working copies to NVM,
//! 2. persist the BTT (and CPU state),
//! 3. write dirty DRAM pages back to the alternate NVM checkpoint region,
//! 4. persist the PTT, flush the NVM write queue, and atomically set the
//!    checkpoint-complete flag.
//!
//! # Modeling notes (deviations documented in DESIGN.md)
//!
//! * Functional stores are keyed by *physical* address; the region-A/B
//!   alternation affects only the timing layer (NVM row-buffer behaviour
//!   and traffic), not content correctness, which is governed by the
//!   per-epoch write logs.
//! * Scheme switching (§3.4) is decided from the ending epoch's store
//!   counters at checkpoint start and applied when the system is next
//!   quiescent (job retirement), half an epoch later than the paper — the
//!   paper likewise hides migration in the execution phase.
//! * Cooperation blocks buffered for a frozen PTT page are merged into the
//!   DRAM page when the job retires (one DRAM write each) instead of being
//!   persisted twice.


use thynvm_mem::{Device, DeviceKind, SparseStore, WriteQueue};
use thynvm_types::{
    AccessKind, BlockIndex, CkptMode, CkptPhase, Cycle, Error, FxHashMap, FxHashSet, HealthRung,
    HwAddr, MemRequest, MemStats, MemorySystem, NvmWriteClass, PageIndex, PhysAddr,
    RecoveryOutcome, RecoveryStep, SystemConfig, TraceEvent, BLOCK_BYTES, PAGE_BYTES,
};

// A child of this module, so the seam's hooks reach the controller's
// private state while the domains' own fields stay private to the seam.
#[path = "domains.rs"]
mod domains;

pub use domains::{MediaFault, TamperFault};
use domains::{Commit, Domains, Poison, Read, Step, Write};

use crate::epoch::{CkptJob, EpochState};
use crate::health::HealthMonitor;
use crate::layout::{AddressSpace, Region};
use crate::table::{bump_counter, Btt, Ptt, WactiveLoc};

/// Bytes persisted per BTT/PTT entry when checkpointing metadata (Figure 5
/// entries round up to 8 bytes).
const META_ENTRY_BYTES: u64 = 8;

/// CRC word appended to each serialized metadata image (BTT, PTT) and to
/// the commit record when integrity protection is enabled.
const META_CRC_BYTES: u64 = 8;

/// Domain-separation tag for deriving the modeled MAC key from the
/// security seed (distinct from the tamper-schedule stream).
const TAG_MAC_KEY: u64 = 0x4d41_434b; // "MACK"

/// The modeled MAC key: the basis fed to
/// [`SparseStore::fingerprint_with_basis`], derived from the security seed.
/// An attacker without it cannot produce a forgery that verifies.
fn mac_key(cfg: &SystemConfig) -> u64 {
    thynvm_types::rng::mix(cfg.security.seed, TAG_MAC_KEY)
}

/// Result of a crash recovery (§4.5).
#[must_use = "the report says which checkpoint survived — dropping it hides rollbacks"]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Number of epochs whose checkpoints had completed — the state the
    /// system rolled back to.
    pub recovered_checkpoints: u64,
    /// Whether an in-flight (incomplete) checkpoint was discarded, i.e. the
    /// system recovered to `C_penult` rather than `C_last`.
    pub rolled_back_incomplete: bool,
    /// Pages restored from NVM into the DRAM working region.
    pub restored_pages: usize,
    /// Whether `C_last` had *completed* but failed media-integrity
    /// verification, so recovery discarded it and restored the retained
    /// penultimate image instead.
    pub integrity_fallback: bool,
    /// Whether *both* checkpoint images failed secure-mode authentication:
    /// recovery refused to replay unauthenticated data and reset to the
    /// provably-empty image ([`Error::IntegrityUnrecoverable`]).
    pub unrecoverable: bool,
    /// Simulated duration of the recovery procedure, including every
    /// attempt aborted by a nested crash.
    pub recovery_cycles: Cycle,
    /// The steps of the final (successful) recovery attempt, with the
    /// cycle each completed at. Step boundaries are exactly where a
    /// queued crash point can interrupt recovery.
    pub steps: Vec<(RecoveryStep, Cycle)>,
    /// Crash points that fired *during* this recovery (each aborted an
    /// attempt, which then restarted from the persisted commit record).
    pub nested_crashes: u64,
    /// Recovery attempts run: `nested_crashes` aborted ones plus the
    /// final successful pass.
    pub attempts: u64,
}

/// What a recovery found, accumulated across its steps and attempts: the
/// in-flight checkpoint was discarded, `C_last` failed verification, or
/// both images failed authentication. The flags are independent; the
/// crash-event outcome reports the most severe.
#[derive(Debug, Clone, Copy, Default)]
struct Verdict {
    rolled_back_incomplete: bool,
    integrity_fallback: bool,
    unrecoverable: bool,
}

impl Verdict {
    /// The verdict a finished recovery reported.
    fn of(report: &RecoveryReport) -> Self {
        Self {
            rolled_back_incomplete: report.rolled_back_incomplete,
            integrity_fallback: report.integrity_fallback,
            unrecoverable: report.unrecoverable,
        }
    }

    /// Which checkpoint the recovery restored, most severe finding first.
    fn outcome(self) -> RecoveryOutcome {
        if self.unrecoverable {
            RecoveryOutcome::Unrecoverable
        } else if self.integrity_fallback {
            RecoveryOutcome::CPenultIntegrityFallback
        } else if self.rolled_back_incomplete {
            RecoveryOutcome::CPenult
        } else {
            RecoveryOutcome::CLast
        }
    }
}

/// One recovery attempt's result: the completed steps with the cycle each
/// completed at, the pages restored and the end cycle — or the cycle of the
/// queued crash point that aborted it.
type RecoveryPass = Result<(Vec<(RecoveryStep, Cycle)>, usize, Cycle), Cycle>;

/// Result of one crash injected through [`ThyNvm::arm_crash_point`]:
/// the observability record, the §4.5 recovery report, and the cycle at
/// which the rebooted system resumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedCrash {
    /// Where the crash landed and what recovery did (also appended to
    /// [`MemStats::crash_events`](thynvm_types::MemStats)).
    pub event: thynvm_types::CrashEvent,
    /// The recovery report, as returned by [`ThyNvm::crash_and_recover`].
    pub report: RecoveryReport,
    /// Cycle at which the recovered system accepts requests again.
    pub resume_at: Cycle,
}

/// Data captured while checkpointing a page (target region chosen when the
/// job was scheduled).
#[derive(Debug, Clone, Copy)]
struct PendingPage {
    target: Region,
}

/// One durable checkpoint version (§4.5): the committed image together
/// with the MAC and health rung persisted alongside it. The controller
/// keeps two — `C_last` and `C_penult` — and recovery restores one of them
/// whole, so everything durable with an image lives in this one record.
#[derive(Debug, Clone)]
struct Checkpoint {
    /// Committed contents, physical address space.
    image: SparseStore,
    /// MAC over `image` under the modeled key — the authenticated
    /// checkpoint root stored in NVM (recomputed only in secure mode).
    mac: u64,
    /// Rung persisted with the commit record (health ladder).
    rung: HealthRung,
}

impl Checkpoint {
    /// The empty image authenticated under `key`, at `Healthy`.
    fn empty(key: u64) -> Self {
        let image = SparseStore::new();
        Self { mac: image.fingerprint_with_basis(key), image, rung: HealthRung::Healthy }
    }

    /// Re-authenticates the image under `key`.
    fn seal(&mut self, key: u64) {
        self.mac = self.image.fingerprint_with_basis(key);
    }

    /// Whether the recomputed MAC matches the persisted one.
    fn verifies(&self, key: u64) -> bool {
        self.image.fingerprint_with_basis(key) == self.mac
    }
}

/// Which `take_*_error` drain surfaces a reported [`Error`]: one slot per
/// fault domain, each holding the most recent error until taken.
#[derive(Debug, Clone, Copy)]
enum ErrorSlot {
    /// Unrecoverable reads: retries exhausted, spare pool drained, or a
    /// corruption delivered silently (no integrity checking).
    Media,
    /// A BTT spill the overflow handshake could not absorb.
    Overflow,
    /// DRAM poison under dirty data, quarantined and rolled back.
    Poison,
    /// Both checkpoint images failed authentication.
    Security,
    /// A commit record persisted over unfenced data entries (§4.4).
    Ordering,
    /// A store refused by the health ladder. Keep last: it sizes the
    /// slot table.
    Health,
}

/// The ThyNVM hybrid persistent-memory controller.
///
/// See the [crate documentation](crate) for an overview and example.
#[derive(Debug)]
pub struct ThyNvm {
    cfg: SystemConfig,
    space: AddressSpace,
    dram: Device,
    nvm: Device,
    nvm_wq: WriteQueue,
    dram_wq: WriteQueue,
    btt: Btt,
    ptt: Ptt,
    epoch: EpochState,
    stats: MemStats,

    /// Per-epoch page-granularity store counts driving scheme switching.
    page_store_counts: FxHashMap<PageIndex, u32>,
    /// Counts snapshotted at checkpoint start, applied at job retirement.
    pending_switch_counts: FxHashMap<PageIndex, u32>,
    /// Pages captured by the in-flight job, with their target regions.
    pending_pages: FxHashMap<PageIndex, PendingPage>,
    /// Next DRAM block-buffer slot (round-robin).
    next_block_slot: u32,
    /// BTT spills: inserts forced past capacity while an overflow-triggered
    /// epoch end was pending (bounded by one platform event).
    btt_spills: u64,
    /// Blocks that gained a working copy this epoch (BTT pressure gauge:
    /// the epoch ends early when this approaches the BTT budget).
    epoch_dirty_blocks: usize,
    /// Head-of-line blocking of the controller's request queue: requests
    /// arriving earlier than this start at this cycle (set when a store
    /// must wait for an in-flight checkpoint, e.g. PageOnly frozen pages).
    input_blocked_until: Cycle,

    // ---- functional layer ----
    /// `C_last`: the latest recoverable version (state at the last
    /// *completed* checkpoint).
    last: Checkpoint,
    /// `C_penult`: the version `C_last` superseded — the fallback target
    /// when `C_last` fails integrity verification at recovery. Rotated only
    /// while media faults, integrity checking or secure mode is active.
    penult: Checkpoint,
    /// Current software-visible contents.
    visible: SparseStore,
    /// Writes of the active epoch (applied to `visible`, not yet captured).
    working_log: Vec<(u64, Vec<u8>)>,
    /// Writes captured by the in-flight checkpoint job.
    ckpting_log: Vec<(u64, Vec<u8>)>,
    /// Report of the last recovery, if any.
    last_recovery: Option<RecoveryReport>,
    /// The most recent error of each [`ErrorSlot`], until taken.
    errors: [Option<Error>; ErrorSlot::Health as usize + 1],
    /// Archive of past committed images for §6-style bug tolerance
    /// (checkpoint number → image). Empty unless enabled.
    archive: std::collections::VecDeque<(u64, SparseStore)>,
    /// How many past checkpoints to retain (0 disables archiving).
    archive_depth: usize,
    /// Distribution of epoch execution-phase lengths (cycles).
    epoch_length_hist: thynvm_types::Histogram,
    /// Distribution of checkpointing-phase durations (cycles).
    job_duration_hist: thynvm_types::Histogram,

    // ---- fault injection ----
    /// Queued crash points, sorted ascending: power fails at the end of
    /// each listed cycle. The earliest fires at the first request whose
    /// timeline passes it, and recovery runs *as of that cycle* — effects
    /// scheduled to complete later (an in-flight checkpoint's commit,
    /// queued writes) are lost. Points still queued when a crash fires
    /// survive into the recovery phase and interrupt it at recovery-step
    /// boundaries (nested crashes); points beyond the end of recovery
    /// stay armed for later requests.
    crash_points: Vec<Cycle>,
    /// Record of the most recent injected crash, until taken.
    injected_crash: Option<InjectedCrash>,

    /// Retired scheme-switch snapshot, recycled into the next epoch's
    /// `pending_switch_counts` so the per-epoch snapshot reuses one
    /// allocation instead of growing a fresh map from empty every time.
    switch_scratch: FxHashMap<PageIndex, u32>,
    /// Reused victim buffer for [`Self::reclaim_quiescent`], so the
    /// overflow path does not allocate on every table-pressure event.
    reclaim_scratch: Vec<BlockIndex>,

    /// The five fault domains (media, DRAM ECC, secure memory, persist
    /// buffer, health ladder), reached only through the hooks in
    /// `domains.rs`.
    domains: Domains,
}

impl ThyNvm {
    /// Creates a controller with the given configuration.
    pub fn new(cfg: SystemConfig) -> Self {
        let empty = Checkpoint::empty(mac_key(&cfg));
        Self {
            space: AddressSpace::new(),
            dram: Device::new(DeviceKind::Dram, cfg.timing, cfg.dram_geometry),
            nvm: Device::new(DeviceKind::Nvm, cfg.timing, cfg.nvm_geometry),
            nvm_wq: WriteQueue::new(cfg.thynvm.nvm_write_queue),
            dram_wq: WriteQueue::new(cfg.thynvm.dram_write_queue),
            btt: Btt::new(cfg.thynvm.btt_entries),
            ptt: Ptt::new(cfg.thynvm.ptt_entries.min(cfg.thynvm.dram_pages() as usize)),
            epoch: EpochState::new(),
            stats: MemStats::new(),
            page_store_counts: FxHashMap::with_capacity_and_hasher(1024, Default::default()),
            pending_switch_counts: FxHashMap::default(),
            pending_pages: FxHashMap::default(),
            next_block_slot: 0,
            btt_spills: 0,
            epoch_dirty_blocks: 0,
            input_blocked_until: Cycle::ZERO,
            last: empty.clone(),
            penult: empty,
            visible: SparseStore::new(),
            working_log: Vec::new(),
            ckpting_log: Vec::new(),
            last_recovery: None,
            errors: Default::default(),
            archive: std::collections::VecDeque::new(),
            archive_depth: 0,
            epoch_length_hist: thynvm_types::Histogram::new(),
            job_duration_hist: thynvm_types::Histogram::new(),
            crash_points: Vec::new(),
            injected_crash: None,
            switch_scratch: FxHashMap::default(),
            reclaim_scratch: Vec::new(),
            domains: Domains::new(&cfg),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The Block Translation Table (inspection).
    pub fn btt(&self) -> &Btt {
        &self.btt
    }

    /// The Page Translation Table (inspection).
    pub fn ptt(&self) -> &Ptt {
        &self.ptt
    }

    /// Epoch bookkeeping (inspection).
    pub fn epoch_state(&self) -> &EpochState {
        &self.epoch
    }

    /// The NVM device (inspection of row-buffer statistics).
    pub fn nvm_device(&self) -> &Device {
        &self.nvm
    }

    /// The DRAM device (inspection).
    pub fn dram_device(&self) -> &Device {
        &self.dram
    }

    /// Number of BTT inserts forced past capacity (should stay tiny; the
    /// overflow handshake ends the epoch within one platform event).
    pub fn btt_spills(&self) -> u64 {
        self.btt_spills
    }

    /// Report of the last [`ThyNvm::crash_and_recover`], if any.
    pub fn last_recovery(&self) -> Option<&RecoveryReport> {
        self.last_recovery.as_ref()
    }

    /// Content fingerprint of the software-visible byte image (see
    /// [`SparseStore::fingerprint`]): equal fingerprints mean byte-identical
    /// contents. Crash-storm harnesses use this to assert that every
    /// nested-crash recovery converges to the exact image an uninterrupted
    /// recovery produces.
    pub fn visible_fingerprint(&self) -> u64 {
        self.visible.fingerprint()
    }

    // ------------------------------------------------------------------
    // Fault injection (crash points)
    // ------------------------------------------------------------------

    /// Arms a crash point: power fails at the *end* of cycle `at`.
    ///
    /// The boundary convention matches [`ThyNvm::crash_and_recover`]
    /// everywhere: an effect whose device commit lands at or before `at`
    /// (a write retiring, a checkpoint's completion flag at `done_at`)
    /// survives; anything scheduled later is lost. Accordingly the crash
    /// fires at the first subsequent request whose timeline is *strictly
    /// past* `at` — including while the controller is *waiting* on an
    /// in-flight checkpoint — and recovery runs as of cycle `at`. The
    /// triggering request itself is dropped if it mutates state (power was
    /// already gone); loads proceed against the recovered image.
    ///
    /// Re-arming replaces *all* previously queued points (use
    /// [`ThyNvm::queue_crash_point`] to stack additional ones). Use
    /// [`ThyNvm::take_crash_report`] after each request to learn whether
    /// the crash fired.
    pub fn arm_crash_point(&mut self, at: Cycle) {
        self.crash_points.clear();
        self.crash_points.push(at);
    }

    /// Queues an additional crash point without disturbing those already
    /// armed. Points fire earliest-first; a point still queued when an
    /// earlier one fires *survives into the recovery phase* and interrupts
    /// it at the next recovery-step boundary (a nested crash), forcing
    /// recovery to restart from the persisted commit record. Points beyond
    /// the end of recovery stay armed for later requests.
    pub fn queue_crash_point(&mut self, at: Cycle) {
        let idx = self.crash_points.partition_point(|&p| p <= at);
        self.crash_points.insert(idx, at);
    }

    /// The earliest queued crash point, if any.
    pub fn armed_crash_point(&self) -> Option<Cycle> {
        self.crash_points.first().copied()
    }

    /// All queued crash points, earliest first.
    pub fn armed_crash_points(&self) -> &[Cycle] {
        &self.crash_points
    }

    /// Disarms the *earliest* queued crash point without firing it,
    /// returning its cycle if one was queued. Later points stay armed.
    ///
    /// Disarming is the only way to stop a queued point from reaching the
    /// recovery phase: once a crash fires, every still-queued point that
    /// recovery's timeline overruns fires as a nested crash.
    pub fn disarm_crash_point(&mut self) -> Option<Cycle> {
        if self.crash_points.is_empty() {
            None
        } else {
            Some(self.crash_points.remove(0))
        }
    }

    /// Takes the record of the most recent injected crash, if one fired
    /// since the last call.
    pub fn take_crash_report(&mut self) -> Option<InjectedCrash> {
        self.injected_crash.take()
    }

    /// Fires the armed crash point if the timeline has passed it: checks
    /// `now` against the armed cycle and performs the crash + recovery.
    /// Returns the resume cycle if the crash fired. Harnesses may call this
    /// between requests; the controller calls it on every request entry.
    ///
    /// Power fails at the *end* of the armed cycle, so a request entering
    /// exactly at it is still serviced; the crash fires strictly after.
    pub fn poll_crash(&mut self, now: Cycle) -> Option<Cycle> {
        let at = *self.crash_points.first()?;
        if now <= at {
            return None;
        }
        Some(self.trigger_crash())
    }

    /// Whether the earliest queued crash point fires strictly before cycle
    /// `t` — used where the controller is about to block until `t` (a
    /// checkpoint stall, a drain): power fails mid-wait.
    fn crash_before(&self, t: Cycle) -> bool {
        self.crash_points.first().is_some_and(|&at| at < t)
    }

    /// Performs the earliest queued crash: classifies where it landed, runs
    /// §4.5 recovery as of that cycle, records the observability event, and
    /// returns the cycle at which the rebooted system resumes.
    fn trigger_crash(&mut self) -> Cycle {
        let at = self.crash_points.remove(0);

        // Classify the crash site before recovery tears the state down.
        let epoch_id = self.epoch.active_epoch;
        let (phase, mut inflight) = match &self.epoch.job {
            Some(job) if !job.is_done(at) => {
                (job.phase_at(at), job.inflight_writebacks_at(at))
            }
            _ => (thynvm_types::CkptPhase::Execution, 0),
        };
        inflight += self.nvm_wq.len_at(at) + self.dram_wq.len_at(at);

        let report = self.crash_and_recover(at);
        let event = thynvm_types::CrashEvent {
            cycle: at,
            epoch: epoch_id,
            phase,
            inflight_writebacks: inflight,
            outcome: Verdict::of(&report).outcome(),
            recovery_step: None,
        };
        self.stats.record_crash(event.clone());
        let resume_at = at + report.recovery_cycles;
        self.injected_crash = Some(InjectedCrash { event, report, resume_at });
        resume_at
    }

    // ------------------------------------------------------------------
    // Fault-domain errors (the models live in `domains`)
    // ------------------------------------------------------------------

    /// Takes the most recent unrecoverable-read error (a location whose
    /// bounded retries all failed before the block was remapped), if any.
    pub fn take_media_error(&mut self) -> Option<Error> {
        self.errors[ErrorSlot::Media as usize].take()
    }

    /// Takes the most recent table-overflow error: a BTT spill demanded
    /// while the previous spill's early epoch end was still pending, i.e.
    /// write pressure the overflow handshake could not absorb. The write is
    /// still force-inserted (correctness is preserved); the error reports
    /// that the table was undersized for the workload.
    pub fn take_overflow_error(&mut self) -> Option<Error> {
        self.errors[ErrorSlot::Overflow as usize].take()
    }

    /// Takes the most recent both-images authentication failure
    /// ([`Error::IntegrityUnrecoverable`]): recovery found no checkpoint
    /// image that verifies and reset to the empty image rather than replay
    /// forged data.
    pub fn take_security_error(&mut self) -> Option<Error> {
        self.errors[ErrorSlot::Security as usize].take()
    }

    /// Takes the most recent §4.4 ordering violation: a commit record was
    /// persisted while the persist buffer still held data entries, so a
    /// crash could have made the commit durable before the data it commits.
    pub fn take_ordering_error(&mut self) -> Option<Error> {
        self.errors[ErrorSlot::Ordering as usize].take()
    }

    /// Takes the most recent DRAM poison-loss error — an uncorrectable
    /// error under *dirty* data, whose range was quarantined and rolled
    /// back to the last checkpoint — if one occurred since the last call.
    pub fn take_poison_error(&mut self) -> Option<Error> {
        self.errors[ErrorSlot::Poison as usize].take()
    }

    /// Takes the most recent degraded-store rejection
    /// ([`Error::Degraded`]) — a store refused because the ladder sits at
    /// `ReadOnly` or worse — if one occurred since the last call.
    pub fn take_health_error(&mut self) -> Option<Error> {
        self.errors[ErrorSlot::Health as usize].take()
    }

    /// Keeps `err` as its domain's most recent error, replacing an untaken
    /// one.
    fn report(&mut self, err: Error) {
        let slot = match err {
            Error::MediaCorruption { .. }
            | Error::RetriesExhausted { .. }
            | Error::SpareExhausted { .. } => ErrorSlot::Media,
            Error::TableFull { .. } => ErrorSlot::Overflow,
            Error::DramPoisonLost { .. } => ErrorSlot::Poison,
            Error::IntegrityUnrecoverable { .. } => ErrorSlot::Security,
            Error::UnfencedCommit { .. } => ErrorSlot::Ordering,
            Error::Degraded { .. } => ErrorSlot::Health,
            // Address, config and rollback errors go straight to the caller.
            _ => return,
        };
        self.errors[slot as usize] = Some(err);
    }

    /// MAC over the committed `C_last` image under the modeled key — what
    /// the next recovery's verification recomputes and compares.
    pub fn clast_mac(&self) -> u64 {
        self.last.mac
    }

    /// The rung persisted with `C_last`'s commit record — what recovery
    /// would rehydrate if a crash struck right now and `C_last` verified.
    /// Reference runs feed this to [`PersistenceOracle::record_health`]
    /// after each drained checkpoint.
    ///
    /// [`PersistenceOracle::record_health`]: crate::PersistenceOracle::record_health
    pub fn clast_health_rung(&self) -> HealthRung {
        self.last.rung
    }

    /// The rung captured for the checkpoint currently in flight, if any —
    /// the value its 64 B health record carries. Rotates into
    /// [`Self::clast_health_rung`] when the job retires.
    pub fn pending_health_rung(&self) -> Option<HealthRung> {
        self.epoch.job.as_ref().and_then(|j| j.health_rung)
    }

    /// Pages allocated across the functional stores (visible + committed +
    /// previous + archived images). Soak harnesses bound this to show the
    /// simulator's footprint stays proportional to the touched working
    /// set, not to simulated time.
    pub fn functional_footprint_pages(&self) -> usize {
        self.visible.allocated_pages()
            + self.last.image.allocated_pages()
            + self.penult.image.allocated_pages()
            + self.archive.iter().map(|(_, s)| s.allocated_pages()).sum::<usize>()
    }

    /// Whether the Wounded posture's emergency-early epoch timer has
    /// expired: at `Wounded` or worse the epoch length divides by
    /// `cfg.health.emergency_divisor` so less work is at risk per crash.
    fn emergency_epoch_due(&self, now: Cycle) -> bool {
        let shortened = || Cycle::new(self.cfg.thynvm.epoch_max().raw() / u64::from(self.cfg.health.emergency_divisor));
        self.health_rung() >= HealthRung::Wounded && self.epoch.due(now, shortened())
    }

    // ------------------------------------------------------------------
    // NVM reads and the Working Data Region (placement per §4.1 fn. 3)
    // ------------------------------------------------------------------

    /// The plain NVM read primitive: one device read of `bytes` at `hw`,
    /// counted in the read ledger, with no fault-domain hook.
    fn nvm_read(&mut self, hw: HwAddr, bytes: u32, now: Cycle) -> Cycle {
        self.stats.nvm_reads += 1;
        self.stats.nvm_read_bytes += u64::from(bytes);
        self.nvm.access(hw, AccessKind::Read, bytes, now)
    }

    /// The one NVM data read, on the load and recovery paths alike: the
    /// fault domains resolve the bad-block remap, decrypt, check CRCs,
    /// retry and heal ([`Self::on_read`]; `read` names the path).
    fn data_read(&mut self, hw: HwAddr, bytes: u32, now: Cycle, read: Read<'_>) -> Cycle {
        let (Ok(done) | Err(done)) = self.on_read(hw, bytes, now, read);
        done
    }

    /// Hardware-address offset that keeps an NVM-placed working region
    /// disjoint from the Home Region and Checkpoint Region A on the NVM
    /// device's bank/row mapping.
    const NVM_WORKING_BASE: u64 = 1 << 41;

    /// Writes `bytes` at working-region offset `off`, honoring the
    /// configured placement.
    fn working_write(&mut self, off: u64, bytes: u32, now: Cycle) -> Cycle {
        match self.cfg.thynvm.working_region {
            thynvm_types::WorkingRegion::Dram => {
                let hw = HwAddr::new(off);
                let done = self.dram.access(hw, AccessKind::Write, bytes, now);
                self.stats.record_dram_write(u64::from(bytes));
                self.on_write(hw, Write::Dram { bytes }, done).0
            }
            thynvm_types::WorkingRegion::Nvm => {
                let hw = HwAddr::new(Self::NVM_WORKING_BASE + off);
                self.on_write(hw, Write::Working { bytes: u64::from(bytes) }, now).0
            }
        }
    }

    /// Reads `bytes` at working-region offset `off`, honoring the
    /// configured placement. A DRAM read passes the SEC-DED check; `Err`
    /// carries the cycle the containment of uncorrectable poison landed,
    /// done as `poison` says.
    fn working_read(&mut self, off: u64, bytes: u32, now: Cycle, poison: Poison) -> Result<Cycle, Cycle> {
        match self.cfg.thynvm.working_region {
            thynvm_types::WorkingRegion::Dram => {
                let hw = HwAddr::new(off);
                let done = self.dram.access(hw, AccessKind::Read, bytes, now);
                self.stats.dram_reads += 1;
                self.stats.dram_read_bytes += u64::from(bytes);
                self.on_read(hw, bytes, done, Read::Working(poison))
            }
            thynvm_types::WorkingRegion::Nvm => Ok(self.nvm_read(HwAddr::new(Self::NVM_WORKING_BASE + off), bytes, now)),
        }
    }

    // ------------------------------------------------------------------
    // Job retirement and version rotation
    // ------------------------------------------------------------------

    /// If the in-flight checkpoint completed by `now`, commit it: apply the
    /// captured write log to the committed image, rotate versions
    /// (`pending` → `C_last`), thaw pages, merge cooperation blocks, and
    /// apply deferred scheme switches.
    fn retire_job_if_done(&mut self, now: Cycle) {
        // A job whose completion lies at or beyond an armed crash point can
        // never commit: power fails first. Leaving it in place lets the
        // crash trigger find it and roll it back (`C_penult`).
        if let (Some(&at), Some(job)) = (self.crash_points.first(), self.epoch.job.as_ref()) {
            if job.done_at > at {
                return;
            }
        }
        let Some(job) = self.epoch.take_finished_job(now) else {
            return;
        };
        self.commit_job(job);
    }

    /// Commits a *taken* checkpoint job: rotates the checkpoint versions,
    /// block/page versions, and applies deferred scheme switches. Shared by
    /// normal retirement and by the crash-time early-commit path, where the
    /// persist buffer's partial flush salvaged the commit marker of a
    /// still-in-flight job.
    fn commit_job(&mut self, job: CkptJob) {
        let retire_at = job.done_at;

        // The version about to be superseded becomes `C_penult` — the
        // integrity-fallback target should `C_last` later fail verification
        // (media CRCs or secure-mode MAC authentication).
        if self.fault_model().is_some() || self.cfg.media.integrity || self.security_model().is_some() {
            self.penult = self.last.clone();
        }

        // Functional commit: the checkpointed epoch's writes become durable,
        // authenticated under the modeled key, with the rung the round's
        // health record carried.
        for (addr, data) in self.ckpting_log.drain(..) {
            self.last.image.write(thynvm_types::HwAddr::new(addr), &data);
        }
        if self.security_model().is_some() {
            self.last.seal(mac_key(&self.cfg));
        }
        if let Some(rung) = job.health_rung {
            self.last.rung = rung;
        }

        // §6 bug-tolerance extension: archive the committed image.
        if self.archive_depth > 0 {
            self.archive.push_back((self.epoch.completed, self.last.image.clone()));
            while self.archive.len() > self.archive_depth {
                self.archive.pop_front();
            }
        }

        // Rotate block versions (iteration order does not affect timing
        // here; the merge lists are sorted before their DRAM writes below).
        let mut merge_blocks: Vec<(BlockIndex, u32)> = Vec::new();
        let mut drop_blocks: Vec<BlockIndex> = Vec::new();
        let mut newly_quiescent: Vec<BlockIndex> = Vec::new();
        for (block, entry) in self.btt.iter_mut() {
            if let Some(loc) = entry.pending.take() {
                let region = match loc {
                    WactiveLoc::Nvm(r) => r,
                    // Buffered copies were drained to NVM at capture time;
                    // `pending` only ever holds NVM locations.
                    WactiveLoc::DramBuffered { slot } => {
                        debug_assert!(false, "buffered slot {slot} captured un-drained");
                        Region::A
                    }
                };
                entry.clast_region = Some(region);
                if entry.wactive.is_none() {
                    newly_quiescent.push(block);
                }
            }
            if entry.is_quiescent() && self.pending_pages.contains_key(&block.page()) {
                // Cooperation block for a page under page writeback: the
                // page's DRAM copy absorbs it (one DRAM write), entry freed.
                if let Some(pe) = self.ptt.get(block.page()) {
                    merge_blocks.push((block, pe.slot));
                    drop_blocks.push(block);
                }
            }
        }
        // Hint the freshly-quiescent entries for victim selection (ones the
        // merge below drops become stale hints, discarded lazily).
        for block in newly_quiescent {
            self.btt.note_quiescent(block);
        }
        merge_blocks.sort_unstable_by_key(|(b, _)| *b);
        for (block, slot) in merge_blocks {
            let hw = self
                .space
                .working_page(slot)
                .offset(block.slot_in_page() * BLOCK_BYTES);
            let off = self.space.working_offset(hw);
            self.working_write(off, BLOCK_BYTES as u32, retire_at);
        }
        for block in drop_blocks {
            self.btt.remove(block);
        }

        // Rotate page versions and thaw.
        for (page, pending) in std::mem::take(&mut self.pending_pages) {
            if let Some(entry) = self.ptt.get_mut(page) {
                entry.clast_region = Some(pending.target);
                entry.frozen = false;
            }
        }

        // Deferred scheme switching (§3.4), now that the system is quiescent.
        self.apply_scheme_switches(retire_at);

        // The fault domains' retirement work: the background scrubber.
        self.on_commit(Commit::Scrub(retire_at));

        // Free table pressure: entries belonging only to committed
        // checkpoints are reclaimed once occupancy is high (§4.3 frees
        // penultimate-checkpoint entries at epoch boundaries). The `C_last`
        // copies stranded in Region A migrate home, charged as migration
        // traffic off the critical path.
        if self.btt.len() * 10 >= self.btt.capacity() * 6 {
            let excess = self.btt.len().saturating_sub(self.btt.capacity() * 6 / 10);
            self.reclaim_quiescent(retire_at, excess);
        }

        // Epoch boundary: one health-ladder evaluation.
        self.on_commit(Commit::Evaluate);
    }

    /// Applies promotions/demotions decided from the previous epoch's store
    /// counters.
    fn apply_scheme_switches(&mut self, now: Cycle) {
        let counts = std::mem::take(&mut self.pending_switch_counts);
        self.apply_scheme_switches_with(&counts, now);
        // Recycle the snapshot's allocation for the next epoch.
        self.switch_scratch = counts;
        self.switch_scratch.clear();
    }

    /// The body of [`Self::apply_scheme_switches`], with the store-counter
    /// snapshot borrowed so its allocation can be recycled by the caller.
    fn apply_scheme_switches_with(&mut self, counts: &FxHashMap<PageIndex, u32>, now: Cycle) {
        if self.cfg.thynvm.mode == CkptMode::BlockOnly {
            return;
        }
        let promote = u32::from(self.cfg.thynvm.promote_threshold);
        let demote = u32::from(self.cfg.thynvm.demote_threshold);
        let force_pages = self.cfg.thynvm.mode == CkptMode::PageOnly;

        // Promotions: hot pages move under page writeback (most promotions
        // already happened intra-epoch; this sweeps stragglers).
        let mut hot_pages: Vec<PageIndex> = counts
            .iter()
            .filter(|(_, &count)| count >= promote || (force_pages && count > 0))
            .map(|(&page, _)| page)
            .collect();
        hot_pages.sort_unstable();
        for page in hot_pages {
            if self.ptt.get(page).is_none() {
                self.promote_page(page, now);
            }
        }

        if force_pages {
            return; // PageOnly never demotes
        }

        // Demotions: cold pages leave DRAM (migration NVM write).
        let mut cold: Vec<PageIndex> = self
            .ptt
            .iter()
            .filter(|(page, e)| {
                !e.dirty
                    && !e.frozen
                    && counts.get(page).copied().unwrap_or(0) <= demote
            })
            .map(|(page, _)| page)
            .collect();
        cold.sort_unstable();
        for page in cold {
            self.demote_page(page, now);
        }
    }

    /// Moves `page` under the page-writeback scheme: allocates a PTT entry
    /// and DRAM slot, assembles the page's current contents into DRAM (bulk
    /// NVM read + DRAM fill), and retires the page's block-remapping state.
    /// Returns the DRAM slot, or `None` if the PTT/DRAM is full (in
    /// `PageOnly` mode a clean resident page is demoted to make room).
    fn promote_page(&mut self, page: PageIndex, now: Cycle) -> Option<u32> {
        if self.ptt.get(page).is_some() {
            return self.ptt.get(page).map(|e| e.slot);
        }
        if self.ptt.is_full() && self.cfg.thynvm.mode == CkptMode::PageOnly {
            // Page-only ablation: evict a clean, idle page (CoW-style).
            let victim = self
                .ptt
                .iter()
                .filter(|(_, e)| !e.dirty && !e.frozen)
                .map(|(p, _)| p)
                .min();
            if let Some(victim) = victim {
                self.demote_page(victim, now);
            }
        }
        let slot = self.ptt.insert(page)?;
        // Assemble the page: bulk NVM read + DRAM fill.
        self.nvm_read(self.space.home(page.base_addr()), PAGE_BYTES as u32, now);
        let off = self.space.working_offset(self.space.working_page(slot));
        self.working_write(off, PAGE_BYTES as u32, now);
        self.stats.pages_promoted += 1;
        // The DRAM copy is now authoritative: block entries without an
        // in-flight checkpoint are dropped; ones still being checkpointed
        // keep their pending state and are swept after retirement.
        for block in page.blocks() {
            let drop_it = match self.btt.get_mut(block) {
                Some(e) => {
                    e.wactive = None;
                    e.pending.is_none()
                }
                None => false,
            };
            if drop_it {
                self.btt.remove(block);
            }
        }
        Some(slot)
    }

    /// Demotes `page` out of DRAM: one 4 KiB migration write to the Home
    /// Region, PTT entry freed.
    fn demote_page(&mut self, page: PageIndex, now: Cycle) {
        let Some(entry) = self.ptt.remove(page) else { return };
        let off = self.space.working_offset(self.space.working_page(entry.slot));
        let home = self.space.home(page.base_addr());
        if self.working_read(off, PAGE_BYTES as u32, now, Poison::Clean).is_ok() {
            self.on_write(home, Write::Migration { bytes: PAGE_BYTES }, now);
        } else if let Some(region) = entry.clast_region {
            // The page is clean (demotion skips dirty pages), so its exact
            // bytes exist intact in NVM: source the migration copy from
            // `C_last` instead of the poisoned DRAM — NVM-to-NVM. With no
            // checkpointed copy the Home Region already holds the page's
            // bytes, so the demotion is pure bookkeeping.
            self.nvm_read(self.space.checkpoint_page(region, page), PAGE_BYTES as u32, now);
            self.on_write(home, Write::Migration { bytes: PAGE_BYTES }, now);
        }
        self.stats.pages_demoted += 1;
    }

    /// The page-writeback store: write the block into the page's DRAM slot.
    fn write_to_page(&mut self, block: BlockIndex, bytes: u32, now: Cycle) -> Cycle {
        let entry = self.ptt.get_mut(block.page()).expect("page resident");
        entry.dirty = true;
        bump_counter(&mut entry.store_count);
        let hw = self
            .space
            .working_page(entry.slot)
            .offset(block.slot_in_page() * BLOCK_BYTES);
        let off = self.space.working_offset(hw);
        let done = self.working_write(off, bytes, now);
        self.dram_wq.push(done, now)
    }

    // ------------------------------------------------------------------
    // Store / load paths
    // ------------------------------------------------------------------

    /// Allocates (or reuses) a DRAM buffer slot for a cooperation /
    /// unsafe-`C_penult` block write and performs the DRAM write.
    fn buffered_block_write(&mut self, block: BlockIndex, bytes: u32, now: Cycle) -> Cycle {
        if self.btt.entry_or_insert(block).is_none() {
            // Overflow during cooperation: reclaim committed entries first;
            // if nothing is reclaimable, flag an early epoch end and spill
            // (bounded by one platform event).
            if self.reclaim_quiescent(now, 64) == 0 {
                if self.epoch.overflow_pending {
                    self.report(Error::TableFull { table: "BTT" });
                }
                self.epoch.overflow_pending = true;
                self.btt_spills += 1;
            }
        }
        let entry = self.btt.force_insert(block);
        bump_counter(&mut entry.store_count);
        let slot = match entry.wactive {
            Some(WactiveLoc::DramBuffered { slot }) => slot,
            _ => {
                let slot = self.next_block_slot;
                self.next_block_slot = self.next_block_slot.wrapping_add(1);
                entry.wactive = Some(WactiveLoc::DramBuffered { slot });
                self.epoch_dirty_blocks += 1;
                slot
            }
        };
        let hw = self.space.working_block(slot, self.ptt.capacity());
        let off = self.space.working_offset(hw);
        let done = self.working_write(off, bytes, now);
        self.dram_wq.push(done, now)
    }

    /// The Figure 6(a) store path for one ≤64 B block-granule write.
    fn write_block(&mut self, block: BlockIndex, bytes: u32, now: Cycle, class: NvmWriteClass) -> Cycle {
        let page = block.page();
        let count = {
            let c = self.page_store_counts.entry(page).or_insert(0);
            *c += 1;
            *c
        };

        // PTT hit: page writeback scheme.
        if self.ptt.get(page).is_some() {
            if self.epoch.page_frozen(page, now) {
                if self.cfg.thynvm.mode == CkptMode::PageOnly {
                    // No block scheme to absorb the write: the store blocks
                    // the controller until the page's writeback completes —
                    // the Table 1 quadrant-❹ pain the dual scheme removes.
                    let done = self.epoch.job.as_ref().expect("frozen implies job").done_at;
                    self.stats.ckpt_stall_cycles += done.saturating_sub(now);
                    self.input_blocked_until = self.input_blocked_until.max(done);
                    self.retire_job_if_done(done);
                    return self.write_to_page(block, bytes, done);
                }
                // §3.4 cooperation: absorb via block remapping in DRAM.
                return self.buffered_block_write(block, bytes, now);
            }
            return self.write_to_page(block, bytes, now);
        }

        // Intra-epoch promotion: once a page's store counter crosses the
        // threshold (§4.2; every write in the PageOnly ablation), it moves
        // under page writeback immediately, relieving BTT pressure.
        let promotable = match self.cfg.thynvm.mode {
            CkptMode::Dual => count >= u32::from(self.cfg.thynvm.promote_threshold),
            CkptMode::PageOnly => true,
            CkptMode::BlockOnly => false,
        };
        if promotable && self.promote_page(page, now).is_some() {
            return self.write_to_page(block, bytes, now);
        }

        // Block remapping.
        if self.epoch.job_running(now) {
            // `C_penult` unsafe to overwrite: buffer in DRAM (§4.1).
            return self.buffered_block_write(block, bytes, now);
        }
        let entry = match self.btt.entry_or_insert(block) {
            Some(e) => e,
            None => {
                // §4.3: replace a committed entry if possible; only when no
                // entry can be replaced does the epoch end early.
                if self.reclaim_quiescent(now, 64) == 0 {
                    if self.epoch.overflow_pending {
                        self.report(Error::TableFull { table: "BTT" });
                    }
                    self.epoch.overflow_pending = true;
                    self.btt_spills += 1;
                    self.btt.force_insert(block)
                } else {
                    self.btt.entry_or_insert(block).expect("space reclaimed")
                }
            }
        };
        bump_counter(&mut entry.store_count);
        let mut newly_dirty = false;
        let region = match entry.wactive {
            Some(WactiveLoc::Nvm(r)) => r, // coalesce in place
            Some(WactiveLoc::DramBuffered { .. }) => {
                // Rare: buffered earlier this epoch while a job ran; keep
                // coalescing in the buffer for simplicity.
                return self.buffered_block_write(block, bytes, now);
            }
            None => {
                newly_dirty = true;
                entry.clast_region.map_or(Region::A, Region::other)
            }
        };
        entry.wactive = Some(WactiveLoc::Nvm(region));
        if newly_dirty {
            self.epoch_dirty_blocks += 1;
        }
        let hw = self.space.checkpoint_block(region, block);
        let (done, resume) = self.on_write(hw, Write::Store { bytes: u64::from(bytes), class }, now);
        self.nvm_wq.push(done, now).max(resume)
    }

    /// Reclaims quiescent BTT entries, migrating `C_last` home when needed
    /// (§4.3 overflow handling). Returns the number reclaimed.
    fn reclaim_quiescent(&mut self, now: Cycle, max: usize) -> usize {
        let mut victims = std::mem::take(&mut self.reclaim_scratch);
        self.btt.reclaimable_victims_into(max, &mut victims);
        let mut reclaimed = 0;
        for &block in &victims {
            let entry = self.btt.remove(block).expect("listed as reclaimable");
            if entry.clast_region == Some(Region::A) {
                // C_last lives in Region A: copy it to the Home Region so
                // the entry can be dropped.
                self.nvm_read(self.space.checkpoint_block(Region::A, block), BLOCK_BYTES as u32, now);
                self.on_write(self.space.home(block.base_addr()), Write::Migration { bytes: BLOCK_BYTES }, now);
            }
            reclaimed += 1;
        }
        self.reclaim_scratch = victims;
        reclaimed
    }

    /// The load path: locate the software-visible copy (§4.1) and read it.
    fn read_block(&mut self, block: BlockIndex, bytes: u32, now: Cycle) -> Cycle {
        let page = block.page();
        if let Some(entry) = self.ptt.get(page) {
            let hw = self.space.working_page(entry.slot).offset(block.slot_in_page() * BLOCK_BYTES);
            let off = self.space.working_offset(hw);
            let (Ok(done) | Err(done)) = self.working_read(off, bytes, now, Poison::PageBlock(block));
            return done;
        }
        if let Some(entry) = self.btt.get(block) {
            let loc = entry.wactive.or(entry.pending);
            match loc {
                Some(WactiveLoc::DramBuffered { slot }) => {
                    let hw = self.space.working_block(slot, self.ptt.capacity());
                    let off = self.space.working_offset(hw);
                    // A buffered working copy is dirty by construction: under
                    // poison the block is quarantined, and the rolled-back
                    // bytes are served from its surviving checkpointed copy.
                    let done = match self.working_read(off, bytes, now, Poison::Buffered(block)) {
                        Ok(done) => return done,
                        Err(done) => done,
                    };
                    let entry = self.btt.get(block);
                    let src = match entry.and_then(|e| e.pending) {
                        Some(WactiveLoc::Nvm(r)) => self.space.checkpoint_block(r, block),
                        _ => match entry.and_then(|e| e.clast_region) {
                            Some(r) => self.space.checkpoint_block(r, block),
                            None => self.space.home(block.base_addr()),
                        },
                    };
                    return self.data_read(src, bytes, done, Read::Load(block));
                }
                Some(WactiveLoc::Nvm(region)) => {
                    let hw = self.space.checkpoint_block(region, block);
                    return self.data_read(hw, bytes, now, Read::Load(block));
                }
                None => {
                    let region = entry.clast_region.unwrap_or(Region::B);
                    let hw = self.space.checkpoint_block(region, block);
                    return self.data_read(hw, bytes, now, Read::Load(block));
                }
            }
        }
        // Home Region.
        let hw = self.space.home(block.base_addr());
        self.data_read(hw, bytes, now, Read::Load(block))
    }

    // ------------------------------------------------------------------
    // Checkpointing (Figure 6b)
    // ------------------------------------------------------------------

    // ------------------------------------------------------------------
    // §6 extensions: explicit persistence and bug tolerance
    // ------------------------------------------------------------------

    /// Explicit persistence trigger (§6: "persistence of data can also be
    /// explicitly triggered by the program via a new instruction added to
    /// the ISA that forces ThyNVM to end an epoch"). Equivalent to an
    /// epoch boundary: everything stored before the barrier is captured by
    /// the checkpoint this starts and becomes durable when it completes.
    ///
    /// Returns the cycle at which execution resumes; use
    /// [`MemorySystem::drain`] to wait for full durability.
    pub fn persist_barrier(&mut self, now: Cycle) -> Cycle {
        self.begin_checkpoint(now, &[])
    }

    /// Configures the periodic persistence guarantee (§6: "such a system
    /// is only allowed to lose data updates that happened in the last
    /// *n* ms, where *n* is configurable").
    pub fn set_persistence_interval_ms(&mut self, ms: u64) {
        self.cfg.thynvm.epoch_max_ms = ms;
    }

    /// Enables the §6 bug-tolerance extension: retain up to `depth` past
    /// committed checkpoint images that [`ThyNvm::rollback_to_checkpoint`]
    /// can restore ("devising mechanisms to find and recover to past
    /// bug-free checkpoints"). `0` disables archiving (the default; the
    /// archive costs memory proportional to the footprint).
    pub fn set_archive_depth(&mut self, depth: usize) {
        self.archive_depth = depth;
        while self.archive.len() > depth {
            self.archive.pop_front();
        }
    }

    /// Checkpoint numbers currently held in the archive, oldest first.
    pub fn archived_checkpoints(&self) -> Vec<u64> {
        self.archive.iter().map(|(n, _)| *n).collect()
    }

    /// Distribution of epoch execution-phase lengths, in cycles.
    pub fn epoch_length_histogram(&self) -> &thynvm_types::Histogram {
        &self.epoch_length_hist
    }

    /// Distribution of checkpointing-phase durations, in cycles.
    pub fn job_duration_histogram(&self) -> &thynvm_types::Histogram {
        &self.job_duration_hist
    }

    /// Rolls the system back to archived checkpoint `number` (as if a
    /// crash had occurred immediately after it completed), discarding all
    /// later state — including later archived checkpoints, which are now
    /// "the future".
    ///
    /// # Errors
    ///
    /// Returns [`thynvm_types::Error::NoCheckpoint`] if `number` is not in
    /// the archive.
    pub fn rollback_to_checkpoint(
        &mut self,
        number: u64,
        now: Cycle,
    ) -> Result<RecoveryReport, thynvm_types::Error> {
        let image = self
            .archive
            .iter()
            .find(|(n, _)| *n == number)
            .map(|(_, img)| img.clone())
            .ok_or(thynvm_types::Error::NoCheckpoint)?;
        // Invalidate the in-flight job and everything after `number`.
        self.epoch.job = None;
        self.last.image = image;
        // The archived image becomes `C_last` by deliberate operator
        // action: re-authenticate it so recovery's MAC verification does
        // not mistake the sanctioned rollback for tampering. The durable
        // rung stays: the archive holds images only.
        if self.security_model().is_some() {
            self.last.seal(mac_key(&self.cfg));
        }
        self.archive.retain(|(n, _)| *n <= number);
        let report = self.crash_and_recover(now);
        Ok(report)
    }

    /// Ends the active epoch immediately (test/benchmark helper; the
    /// platform normally calls [`MemorySystem::begin_checkpoint`] after the
    /// processor flush). Returns the cycle at which execution may resume.
    pub fn force_checkpoint(&mut self, now: Cycle) -> Cycle {
        self.begin_checkpoint(now, &[])
    }

    /// Whether any state from the active epoch would be lost on a crash.
    pub fn has_uncheckpointed_writes(&self) -> bool {
        !self.working_log.is_empty()
            || self.btt.dirty_entries() > 0
            || self.ptt.iter().any(|(_, e)| e.dirty)
    }

    // ------------------------------------------------------------------
    // Functional API (used by crash-consistency tests and examples)
    // ------------------------------------------------------------------

    /// Writes `data` at physical address `addr`, updating both the
    /// software-visible contents and the timing model. Returns the cycle at
    /// which the store is acknowledged.
    pub fn store_bytes(&mut self, addr: PhysAddr, data: &[u8], now: Cycle) -> Cycle {
        // Power already failed: the store never reaches the controller.
        if let Some(resume) = self.poll_crash(now) {
            return resume.max(now);
        }
        // ReadOnly/FailSafe posture: durability of fresh data can no longer
        // be promised, so the store is refused — no mutation, no traffic.
        // (Retire first: a completed checkpoint may have promoted the rung.)
        self.retire_job_if_done(now);
        let rung = self.health_rung();
        if rung >= HealthRung::ReadOnly {
            self.stats.health.stores_rejected += 1;
            self.report(Error::Degraded { rung });
            return now;
        }
        self.visible.write(thynvm_types::HwAddr::new(addr.raw()), data);
        self.working_log.push((addr.raw(), data.to_vec()));
        let req = MemRequest::write(addr, u32::try_from(data.len()).expect("write too large"));
        self.access(&req, now)
    }

    /// Bounds-checked variant of [`ThyNvm::store_bytes`]: rejects spans
    /// that leave the identity-mapped Home Region (they would alias
    /// checkpoint storage) instead of wrapping into it, and surfaces
    /// health-ladder store rejections as errors.
    ///
    /// # Errors
    ///
    /// Returns [`thynvm_types::Error::AddressOutOfRange`] when
    /// `[addr, addr + data.len())` crosses [`crate::PHYS_LIMIT`], and
    /// [`thynvm_types::Error::Degraded`] when the health ladder sits at
    /// `ReadOnly` or `FailSafe` (the store is refused, nothing mutates).
    pub fn try_store_bytes(
        &mut self,
        addr: PhysAddr,
        data: &[u8],
        now: Cycle,
    ) -> Result<Cycle, Error> {
        self.space.check_phys(addr, data.len() as u64)?;
        // A stale rejection from an earlier call must not masquerade as
        // this store's outcome.
        self.errors[ErrorSlot::Health as usize] = None;
        let done = self.store_bytes(addr, data, now);
        match self.take_health_error() {
            Some(e) => Err(e),
            None => Ok(done),
        }
    }

    /// Bounds-checked variant of [`ThyNvm::load_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`thynvm_types::Error::AddressOutOfRange`] when
    /// `[addr, addr + buf.len())` crosses [`crate::PHYS_LIMIT`].
    pub fn try_load_bytes(
        &mut self,
        addr: PhysAddr,
        buf: &mut [u8],
        now: Cycle,
    ) -> Result<Cycle, Error> {
        self.space.check_phys(addr, buf.len() as u64)?;
        Ok(self.load_bytes(addr, buf, now))
    }

    /// Reads `buf.len()` bytes at physical address `addr` from the
    /// software-visible image, paying the timing cost. Returns the cycle at
    /// which the load completes.
    pub fn load_bytes(&mut self, addr: PhysAddr, buf: &mut [u8], now: Cycle) -> Cycle {
        // Power already failed: the load observes the *recovered* image.
        let now = match self.poll_crash(now) {
            Some(resume) => resume.max(now),
            None => now,
        };
        let hw = HwAddr::new(addr.raw());
        self.visible.read(hw, buf);
        // An undelivered corruption from an earlier access is stale.
        let _ = self.on_read(hw, 0, now, Read::Deliver(&mut []));
        let q0 = self.stats.dram.quarantine_dropped_bytes;
        let req = MemRequest::read(addr, u32::try_from(buf.len()).expect("read too large"));
        let done = self.access(&req, now);
        // A poisoned range was quarantined while servicing this load: the
        // visible image just rolled back, so the bytes captured above are
        // stale — deliver the rolled-back contents instead.
        if self.stats.dram.quarantine_dropped_bytes != q0 {
            self.visible.read(hw, buf);
        }
        // Without integrity protection an undetected media fault reaches
        // software: deliver the corrupted byte, not the stored one.
        let _ = self.on_read(hw, 0, done, Read::Deliver(buf));
        done
    }

    /// Simulates a power failure at `now` followed by the §4.5 recovery
    /// procedure, and returns the recovery report.
    ///
    /// All volatile state (DRAM contents, CPU-side data, queued NVM writes,
    /// the active epoch's working copies and any *incomplete* checkpoint)
    /// is lost; the software-visible image rolls back to the most recent
    /// completed checkpoint.
    ///
    /// Recovery itself is a cycle-accounted, interruptible step machine:
    /// crash points still queued via [`ThyNvm::queue_crash_point`] fire at
    /// recovery-step boundaries as *nested* crashes, aborting the attempt.
    /// Every step is idempotent — the restarted attempt begins again from
    /// the persisted commit record and converges to the same byte-identical
    /// image an uninterrupted recovery produces.
    pub fn crash_and_recover(&mut self, now: Cycle) -> RecoveryReport {
        // A checkpoint that finished before the crash counts.
        self.retire_job_if_done(now);
        // The fault domains' share of the power failure: the persist
        // buffer's partial flush (which may commit the in-flight checkpoint
        // early), a torn commit record, DRAM poison, the counter cache and
        // the tamper schedule.
        self.on_crash(now);

        // Anything in flight is lost — including the rung the incomplete
        // checkpoint's health record carried (its commit flag never set).
        let mut verdict =
            Verdict { rolled_back_incomplete: self.epoch.job.take().is_some(), ..Verdict::default() };
        self.ckpting_log.clear();
        self.working_log.clear();
        self.pending_pages.clear();
        self.pending_switch_counts.clear();
        self.page_store_counts.clear();
        let lost = self.nvm_wq.discard_lost(now) + self.dram_wq.discard_lost(now);
        self.stats.wq_writes_lost += lost as u64;
        self.epoch_dirty_blocks = 0;
        self.input_blocked_until = Cycle::ZERO;

        // Restartable recovery: run attempts until one completes. A queued
        // crash point overrun by an attempt's timeline aborts it (a nested
        // crash), undoing its unsealed remaps; the next attempt restarts at
        // the interrupting cycle.
        let tampers_before = self.stats.security.tampers_detected;
        let wal_redos_before = self.stats.media.wal_redos;
        let nested_before = self.stats.nested_crashes;
        let mut attempts = 0u64;
        let mut start = now;
        let (steps, restored, end) = loop {
            attempts += 1;
            let mut remaps = Vec::new();
            match self.recovery_attempt_run(start, &mut verdict, &mut remaps) {
                Ok(done) => break done,
                Err(at) => {
                    let _ = self.on_recovery_step(Step::Abort(remaps), at, &mut verdict);
                    start = start.max(at);
                }
            }
        };

        // Roll the visible image back to the recovered checkpoint.
        self.visible = self.last.image.clone();

        // Rehydrate the health ladder with the rung durable alongside the
        // restored image, or the override this recovery's findings demand.
        let rehydrate = Step::Rehydrate { tampers_before, wal_redos_before };
        let (Ok(end) | Err(end)) = self.on_recovery_step(rehydrate, end, &mut verdict);

        // Fresh epoch begins after recovery.
        self.epoch = EpochState {
            active_epoch: self.epoch.active_epoch,
            epoch_start: end,
            job: None,
            overflow_pending: false,
            completed: self.epoch.completed,
        };

        let report = RecoveryReport {
            recovered_checkpoints: self.epoch.completed,
            rolled_back_incomplete: verdict.rolled_back_incomplete,
            restored_pages: restored,
            integrity_fallback: verdict.integrity_fallback,
            unrecoverable: verdict.unrecoverable,
            recovery_cycles: end.saturating_sub(now),
            steps,
            nested_crashes: self.stats.nested_crashes - nested_before,
            attempts,
        };
        self.stats.recovery_cycles += report.recovery_cycles;
        self.last_recovery = Some(report.clone());
        report
    }

    /// Checks whether completing a recovery step at `t_end` overruns the
    /// earliest queued crash point: if so, power failed mid-recovery. The
    /// point is consumed, a nested crash is recorded against `step` with
    /// the verdict reached so far, and the attempt aborts.
    fn recovery_interrupt(&mut self, step: RecoveryStep, t_end: Cycle, verdict: Verdict) -> Result<(), Cycle> {
        let Some(&at) = self.crash_points.first() else {
            return Ok(());
        };
        if t_end <= at {
            return Ok(());
        }
        self.crash_points.remove(0);
        let event = thynvm_types::CrashEvent {
            cycle: at,
            epoch: self.epoch.active_epoch,
            phase: CkptPhase::Execution,
            inflight_writebacks: 0,
            outcome: verdict.outcome(),
            recovery_step: Some(step),
        };
        self.stats.record_nested_crash(event);
        Err(at)
    }

    /// Restores the retained `C_penult` version — image, MAC and rung — as
    /// `C_last` after `C_last` failed verification, and steps the
    /// completed-checkpoint count back.
    // lint: recovery-path
    fn fall_back_to_penult(&mut self) {
        self.last = self.penult.clone();
        // Saturating: a CRC fallback may already have landed on zero
        // completed checkpoints before a second (MAC) fallback.
        self.epoch.completed = self.epoch.completed.saturating_sub(1);
    }

    /// The body of one recovery attempt. Each step pays its modeled NVM
    /// latency, then checks the queued crash points before its effects are
    /// considered complete.
    fn recovery_attempt_run(&mut self, start: Cycle, verdict: &mut Verdict, remaps: &mut Vec<(u64, Cycle)>) -> RecoveryPass {
        // Power restore: volatile device state (row buffers, bank busy
        // times) starts fresh on every attempt.
        self.dram.power_cycle();
        self.nvm.power_cycle();
        let mut steps = Vec::with_capacity(5);

        // Step 1: read the checkpoint commit record.
        let t = self.data_read(self.space.backup(0), 64, start, Read::Recovery(remaps));
        self.recovery_interrupt(RecoveryStep::ReadCommitRecord, t, *verdict)?;
        steps.push((RecoveryStep::ReadCommitRecord, t));

        // Steps 2–3b: the fault domains verify `C_last` and fall back to
        // `C_penult` (or reset) when it fails.
        let mut t = self.on_recovery_step(Step::Verify((remaps, &mut steps)), t, verdict)?;


        // Step 4 (§4.5 step 1): replay BTT/PTT metadata from the backup
        // region, dropping uncommitted working copies. Re-running this on
        // already-normalized tables changes nothing.
        let stale: Vec<BlockIndex> = self
            .btt
            .iter_mut()
            .filter_map(|(b, e)| {
                e.wactive = None;
                if verdict.rolled_back_incomplete {
                    e.pending = None;
                }
                if e.clast_region.is_none() && e.pending.is_none() {
                    Some(b)
                } else {
                    None
                }
            })
            .collect();
        for b in stale {
            self.btt.remove(b);
        }
        // The surgery above can quiesce any number of entries at once:
        // re-derive the victim-selection hints from the live table.
        self.btt.rebuild_quiescent_hints();
        let meta_bytes = (self.btt.len() + self.ptt.len()) as u64 * META_ENTRY_BYTES
            + self.cfg.thynvm.cpu_state_bytes;
        let meta_len = u32::try_from(meta_bytes.max(64)).unwrap_or(u32::MAX);
        t = self.data_read(self.space.backup(0), meta_len, t, Read::Recovery(remaps));
        self.recovery_interrupt(RecoveryStep::ReplayMetadata, t, *verdict)?;
        steps.push((RecoveryStep::ReplayMetadata, t));

        // Step 5 (§4.5 step 2): re-arm the DRAM working set — restore
        // page-writeback pages from their checkpoint copies.
        let mut restored = 0usize;
        let mut pages: Vec<(PageIndex, u32, Option<Region>)> = self
            .ptt
            .iter_mut()
            .map(|(p, e)| {
                e.dirty = false;
                e.frozen = false;
                e.store_count = 0;
                (p, e.slot, e.clast_region)
            })
            .collect();
        pages.sort_unstable_by_key(|(p, _, _)| *p);
        for (page, slot, clast) in pages {
            let region = clast.unwrap_or(Region::B);
            let src = self.space.checkpoint_page(region, page);
            t = self.data_read(src, PAGE_BYTES as u32, t, Read::Recovery(remaps));
            let off = self.space.working_offset(self.space.working_page(slot));
            t = self.working_write(off, PAGE_BYTES as u32, t);
            restored += 1;
        }
        self.recovery_interrupt(RecoveryStep::RearmWorkingSet, t, *verdict)?;
        steps.push((RecoveryStep::RearmWorkingSet, t));

        Ok((steps, restored, t))
    }
}

impl MemorySystem for ThyNvm {
    fn access(&mut self, req: &MemRequest, now: Cycle) -> Cycle {
        let now = now.max(self.input_blocked_until);
        // The request begins processing at `now`; if the armed crash point
        // has been reached by then, power fails before it is serviced.
        if let Some(resume) = self.poll_crash(now) {
            return resume.max(now);
        }
        self.retire_job_if_done(now);
        let t = now + self.cfg.timing.table_lookup();
        match req.kind {
            AccessKind::Read => {
                self.stats.reads += 1;
                let mut done = t;
                let mut remaining = u64::from(req.bytes);
                let mut addr = req.addr;
                while remaining > 0 {
                    let in_block = BLOCK_BYTES - addr.block_offset();
                    let chunk = in_block.min(remaining) as u32;
                    done = done.max(self.read_block(addr.block(), chunk, t));
                    addr = addr.offset(u64::from(chunk));
                    remaining -= u64::from(chunk);
                }
                self.stats.service_cycles += done.saturating_sub(now);
                done
            }
            AccessKind::Write => {
                self.stats.writes += 1;
                let mut done = t;
                let mut remaining = u64::from(req.bytes);
                let mut addr = req.addr;
                while remaining > 0 {
                    let in_block = BLOCK_BYTES - addr.block_offset();
                    let chunk = in_block.min(remaining) as u32;
                    done = done.max(self.write_block(addr.block(), chunk, t, NvmWriteClass::Cpu));
                    addr = addr.offset(u64::from(chunk));
                    remaining -= u64::from(chunk);
                }
                self.stats.service_cycles += done.saturating_sub(now);
                done
            }
        }
    }

    fn checkpoint_due(&self, now: Cycle) -> bool {
        // Epoch timer / overflow flag, or BTT pressure: end the epoch once
        // ~90 % of the block budget carries working copies, leaving
        // headroom for the checkpoint-time cache flush. A Wounded (or
        // worse) health rung adds the emergency-early timer.
        self.epoch.due(now, self.cfg.thynvm.epoch_max())
            || self.epoch_dirty_blocks * 10 >= self.btt.capacity() * 9
            || self.emergency_epoch_due(now)
    }

    fn begin_checkpoint(&mut self, now: Cycle, flushed: &[PhysAddr]) -> Cycle {
        // Power already failed: the checkpoint request never happens.
        if let Some(resume) = self.poll_crash(now) {
            return resume.max(now);
        }
        // The Wounded emergency timer — and nothing else — demanded this
        // checkpoint: count it so the posture's cost is observable.
        if self.emergency_epoch_due(now)
            && !self.epoch.due(now, self.cfg.thynvm.epoch_max())
            && self.epoch_dirty_blocks * 10 < self.btt.capacity() * 9
        {
            self.stats.health.emergency_checkpoints += 1;
        }
        self.retire_job_if_done(now);

        // If the previous checkpoint is still running, the new epoch cannot
        // start its own checkpointing phase yet: stall (Figure 3b).
        let mut t = now;
        if self.epoch.job_running(t) {
            let done = self.epoch.job.as_ref().expect("running").done_at;
            // Power fails while stalled waiting for the in-flight job.
            if self.crash_before(done) {
                return self.trigger_crash().max(now);
            }
            self.stats.ckpt_stall_cycles += done - t;
            t = done;
            self.retire_job_if_done(t);
        }

        // Snapshot store counters for deferred scheme switching, then age
        // them by halving. The paper zeroes counters each 10 ms epoch;
        // overflow-shortened epochs would starve promotion under a plain
        // reset, so aging preserves hotness across short epochs while cold
        // pages still decay below the demotion threshold within a couple of
        // boundaries.
        let mut snap = std::mem::take(&mut self.switch_scratch);
        snap.clone_from(&self.page_store_counts);
        self.pending_switch_counts = snap;
        self.page_store_counts.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
        self.btt.reset_store_counters();
        self.ptt.reset_store_counters();

        // CPU data flush: the processor's dirty cache blocks are writes of
        // the epoch that is ending. The processor only *initiates* these
        // writebacks (§4.4) — it resumes once they are issued, while the
        // checkpoint's metadata persist waits for them in the background
        // (`flush_done`). A flush larger than the remaining BTT budget is
        // split across multiple checkpoint rounds — the §4.3 overflow rule
        // applied during the flush itself; intermediate rounds block the
        // processor.
        let mut flush_done = t;
        let mut i = 0usize;
        while i < flushed.len() {
            let block = flushed[i].block();
            let absorbable = self.ptt.get(block.page()).is_some()
                || self.btt.get(block).is_some()
                || !self.btt.is_full()
                || self.reclaim_quiescent(t, 64) > 0;
            if absorbable {
                let done = self.write_block(block, BLOCK_BYTES as u32, t, NvmWriteClass::Checkpoint);
                flush_done = flush_done.max(done);
                i += 1;
            } else {
                t = self.checkpoint_round(t, flush_done, false);
                // An intermediate round that outlives the armed crash point
                // never completes: power fails mid-round.
                if self.crash_before(t) {
                    return self.trigger_crash().max(now);
                }
                flush_done = flush_done.max(t);
            }
        }

        let resume = self.checkpoint_round(t, flush_done, true);
        self.stats.ckpt_stall_cycles += resume.saturating_sub(now);
        resume
    }

    fn drain(&mut self, now: Cycle) -> Cycle {
        // Power already failed: nothing left to drain.
        if let Some(resume) = self.poll_crash(now) {
            return resume.max(now);
        }
        let mut t = now;
        if self.epoch.job_running(t) {
            let done = self.epoch.job.as_ref().expect("running").done_at;
            // Power fails while waiting for the in-flight job.
            if self.crash_before(done) {
                return self.trigger_crash().max(now);
            }
            t = done;
        }
        self.retire_job_if_done(t);
        if self.has_uncheckpointed_writes() {
            let crashes_before = self.stats.crashes_injected;
            t = self.begin_checkpoint(t, &[]);
            if self.stats.crashes_injected > crashes_before {
                // The crash fired inside the checkpoint; `t` is the resume.
                return t.max(now);
            }
            if self.epoch.job_running(t) {
                let done = self.epoch.job.as_ref().expect("running").done_at;
                if self.crash_before(done) {
                    return self.trigger_crash().max(now);
                }
                t = done;
            }
            self.retire_job_if_done(t);
        }
        t.max(self.nvm.idle_at()).max(self.dram.idle_at())
    }

    fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        match (self.cfg.thynvm.mode, self.cfg.thynvm.overlap) {
            (CkptMode::Dual, true) => "ThyNVM",
            (CkptMode::Dual, false) => "ThyNVM-nooverlap",
            (CkptMode::BlockOnly, _) => "ThyNVM-blockonly",
            (CkptMode::PageOnly, _) => "ThyNVM-pageonly",
        }
    }
}

impl ThyNvm {
    /// One checkpoint round: the Figure 6(b) sequence. `data_ready` is when
    /// the epoch's initiated cache writebacks complete — the metadata
    /// persist must not start earlier. `final_round` captures the
    /// functional write log and honors the overlap setting; intermediate
    /// rounds (metadata/timing only) always block until the round completes
    /// and is retired. Returns the processor-resume cycle.
    fn checkpoint_round(&mut self, t: Cycle, data_ready: Cycle, final_round: bool) -> Cycle {
        let ckpt_start = t;

        // Checkpoint operations are issued as fast as the devices accept
        // them; bank busy-times arbitrate, so independent blocks/pages
        // proceed in parallel while same-bank operations serialize. The
        // Figure 6(b) order is preserved *between* phases.

        // (1) Drain DRAM-buffered block working copies to NVM: read the
        // DRAM buffer, then write NVM once the data is available.
        let mut buffered: Vec<(BlockIndex, u32)> = self
            .btt
            .iter()
            .filter_map(|(b, e)| match e.wactive {
                Some(WactiveLoc::DramBuffered { slot }) => Some((b, slot)),
                _ => None,
            })
            .collect();
        buffered.sort_unstable_by_key(|(b, _)| *b);
        let mut writeback_done: Vec<Cycle> = Vec::new();
        let mut phase1_done = ckpt_start.max(data_ready);
        for (block, slot) in buffered {
            let src = self.space.working_block(slot, self.ptt.capacity());
            let off = self.space.working_offset(src);
            let read_done = match self.working_read(off, BLOCK_BYTES as u32, ckpt_start, Poison::Buffered(block)) {
                Ok(t) => t,
                // Poison must never reach NVM: the block's dirty data was
                // dropped instead of drained.
                Err(q_done) => {
                    phase1_done = phase1_done.max(q_done);
                    continue;
                }
            };
            let entry = self.btt.get(block).expect("iterated above");
            let region = entry.clast_region.map_or(Region::A, Region::other);
            let dst = self.space.checkpoint_block(region, block);
            let (write_done, resume) = self.on_write(dst, Write::Writeback { bytes: BLOCK_BYTES }, read_done);
            writeback_done.push(write_done);
            phase1_done = phase1_done.max(write_done).max(resume);
            let entry = self.btt.get_mut(block).expect("present");
            entry.wactive = Some(WactiveLoc::Nvm(region));
        }

        // CPU state persists synchronously; the processor resumes after.
        // The write is prioritized ahead of the background flush drains
        // (modeled as an uncontended write: row miss + burst transfer).
        let cpu_state = self.cfg.thynvm.cpu_state_bytes;
        let bursts = cpu_state.max(64).div_ceil(64);
        let resume_after_flush = t
            + self.cfg.timing.nvm_clean_miss()
            + Cycle::from_ns(thynvm_mem::device::BURST_NS * bursts.saturating_sub(1));
        self.stats.record_nvm_write(cpu_state, NvmWriteClass::Checkpoint);

        // (2) Checkpoint the BTT once the buffered drains are durable. With
        // integrity protection the serialized table carries a trailing CRC.
        let meta_crc = if self.cfg.media.integrity { META_CRC_BYTES } else { 0 };
        let btt_bytes = (self.btt.dirty_entries().max(1) as u64) * META_ENTRY_BYTES + meta_crc;
        // §4.4: checkpoint data must be durable before the metadata that
        // references it.
        let meta_start = self.on_ordering_point(phase1_done.max(resume_after_flush));
        let (btt_done, _) =
            self.on_write(self.space.backup(8192), Write::Metadata { bytes: btt_bytes }, meta_start);

        // Capture block versions: working copies in NVM become pending
        // checkpoints (no data movement, §3.2).
        for (_, entry) in self.btt.iter_mut() {
            if let Some(loc) = entry.wactive.take() {
                debug_assert!(matches!(loc, WactiveLoc::Nvm(_)), "buffers drained above");
                entry.pending = Some(loc);
            }
        }
        self.epoch_dirty_blocks = 0;

        // (3) Write dirty pages back to the alternate checkpoint region.
        let dirty_pages = self.ptt.dirty_pages();
        let mut frozen = FxHashSet::with_capacity_and_hasher(dirty_pages.len(), Default::default());
        let mut phase3_done = btt_done;
        for page in dirty_pages {
            let slot = self.ptt.get(page).expect("dirty page listed").slot;
            let off = self.space.working_offset(self.space.working_page(slot));
            let read_done = match self.working_read(off, PAGE_BYTES as u32, btt_done, Poison::DirtyPage(page)) {
                Ok(t) => t,
                // An uncorrectable DRAM error sat under this page's dirty
                // data: writing it back would have made the corruption
                // durable. It was quarantined instead — the dirty epoch is
                // dropped, the page rolls back to `C_last` and leaves the
                // page scheme.
                Err(q_done) => {
                    phase3_done = phase3_done.max(q_done);
                    continue;
                }
            };
            let entry = self.ptt.get_mut(page).expect("dirty page listed");
            let target = entry.clast_region.map_or(Region::A, Region::other);
            entry.dirty = false;
            entry.frozen = true;
            let dst = self.space.checkpoint_page(target, page);
            let (write_done, resume) = self.on_write(dst, Write::Writeback { bytes: PAGE_BYTES }, read_done);
            writeback_done.push(write_done);
            phase3_done = phase3_done.max(write_done).max(resume);
            self.pending_pages.insert(page, PendingPage { target });
            frozen.insert(page);
        }

        // (4) Checkpoint the PTT, flush the NVM write queue, set the
        // completion flag.
        let ptt_bytes = (self.ptt.len().max(1) as u64) * META_ENTRY_BYTES + meta_crc;
        let (mut bg, _) =
            self.on_write(self.space.backup(16384), Write::Metadata { bytes: ptt_bytes }, phase3_done);
        bg = bg.max(self.nvm_wq.drain_time(bg));

        // (4b) Secure mode: persist the dirty encryption counters, the
        // distinct integrity-tree nodes on their paths to the root, and
        // finally the root record itself — all *before* the commit record,
        // so the state the commit flag covers is already authenticated.
        // This rides the same discipline as the BTT/PTT images: a crash
        // anywhere in here leaves the commit flag unset and the previous
        // epoch's sealed metadata intact.
        if let Some(receipt) = self.on_commit(Commit::Persist) {
            if receipt.counter_entries > 0 {
                let ctr_bytes = receipt.counter_entries as u64 * META_ENTRY_BYTES;
                (bg, _) = self.on_write(self.space.security_counters(0), Write::SecurityTable { bytes: ctr_bytes }, bg);
                let tree_bytes = receipt.tree_nodes * META_ENTRY_BYTES;
                (bg, _) = self.on_write(self.space.security_tree(0), Write::SecurityTable { bytes: tree_bytes }, bg);
            }
            // §4.4: counter table and tree nodes must be durable before
            // the root that authenticates them.
            bg = self.on_ordering_point(bg);
            // The 64 B root + MAC record persists every round: it binds
            // the table generation, which is what makes a rolled-back
            // table (counter-replay attack) detectable.
            (bg, _) = self.on_write(self.space.security_root(), Write::SecurityRoot, bg);
        }

        // (4c) Health ladder: persist the current rung as a 64 B record
        // just before the commit record, riding the same discipline — a
        // crash before the commit flag leaves the previous epoch's sealed
        // rung in effect, exactly like every other piece of metadata.
        let health_rung = self.health_monitor().map(HealthMonitor::rung);
        if health_rung.is_some() {
            (bg, _) = self.on_write(self.space.health_record(), Write::Metadata { bytes: 64 }, bg);
            self.stats.health.rung_persists += 1;
        }

        // §4.4: everything the commit record covers — data, metadata,
        // security and health records — must be durable before it.
        bg = self.on_ordering_point(bg);
        let commit_start = bg;
        (bg, _) = self.on_write(self.space.backup(0), Write::CommitRecord, bg);

        // Functional capture: the ending epoch's writes are now "being
        // checkpointed"; they commit when the job retires. Intermediate
        // rounds persist metadata only — a crash among them rolls back to
        // the previous full epoch boundary (conservative, see DESIGN.md).
        debug_assert!(self.ckpting_log.is_empty(), "previous job retired above");
        if final_round {
            self.ckpting_log = std::mem::take(&mut self.working_log);
        }

        self.stats.ckpt_busy_cycles += bg - ckpt_start;
        self.stats.epochs_completed += 1; // checkpoints taken
        self.epoch_length_hist
            .record(ckpt_start.saturating_sub(self.epoch.epoch_start).raw());
        self.job_duration_hist.record((bg - ckpt_start).raw());

        let job = CkptJob {
            epoch: self.epoch.active_epoch,
            started: ckpt_start,
            commit_at: commit_start,
            done_at: bg,
            drained_at: phase1_done,
            btt_at: btt_done,
            pages_at: phase3_done,
            writeback_done,
            frozen_pages: frozen,
            health_rung,
        };
        self.epoch.start_job(job, t);

        if final_round && self.cfg.thynvm.overlap {
            resume_after_flush.max(t)
        } else {
            // Stop-the-world: wait for the round to complete and retire it.
            self.retire_job_if_done(bg);
            bg
        }
    }
}

impl thynvm_types::PersistentMemory for ThyNvm {
    fn store_bytes(&mut self, addr: PhysAddr, data: &[u8], now: Cycle) -> Cycle {
        ThyNvm::store_bytes(self, addr, data, now)
    }

    fn load_bytes(&mut self, addr: PhysAddr, buf: &mut [u8], now: Cycle) -> Cycle {
        ThyNvm::load_bytes(self, addr, buf, now)
    }

    fn persist(&mut self, now: Cycle) -> Cycle {
        let t = self.force_checkpoint(now);
        MemorySystem::drain(self, t)
    }

    fn power_fail(&mut self, now: Cycle) -> Cycle {
        let report = self.crash_and_recover(now);
        now + report.recovery_cycles
    }
}

impl ThyNvm {
    /// Convenience driver used by tests: runs trace events directly against
    /// the controller (no caches), honoring the checkpoint handshake.
    pub fn run_raw_trace<I>(&mut self, events: I, mut now: Cycle) -> Cycle
    where
        I: IntoIterator<Item = TraceEvent>,
    {
        for e in events {
            now += Cycle::new(u64::from(e.gap));
            now = self.access(&e.req, now);
            if self.checkpoint_due(now) {
                now = self.begin_checkpoint(now, &[]);
            }
        }
        self.drain(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thynvm_types::FaultKind;

    fn small() -> ThyNvm {
        ThyNvm::new(SystemConfig::small_test())
    }

    fn write64(sys: &mut ThyNvm, addr: u64, now: u64) -> Cycle {
        sys.access(&MemRequest::write(PhysAddr::new(addr), 64), Cycle::new(now))
    }

    #[test]
    fn first_write_goes_to_nvm_region_a() {
        let mut sys = small();
        write64(&mut sys, 0, 0);
        let entry = sys.btt().get(BlockIndex::new(0)).expect("BTT entry created");
        assert_eq!(entry.wactive, Some(WactiveLoc::Nvm(Region::A)));
        assert_eq!(sys.stats().nvm_write_bytes_cpu, 64);
        assert_eq!(sys.stats().dram_write_bytes, 0);
    }

    #[test]
    fn writes_coalesce_in_same_working_copy() {
        let mut sys = small();
        write64(&mut sys, 0, 0);
        write64(&mut sys, 0, 10_000);
        assert_eq!(sys.btt().len(), 1);
        assert_eq!(sys.stats().nvm_write_bytes_cpu, 128);
        let entry = sys.btt().get(BlockIndex::new(0)).unwrap();
        assert_eq!(entry.wactive, Some(WactiveLoc::Nvm(Region::A)));
    }

    #[test]
    fn checkpoint_rotates_block_version_to_clast() {
        let mut sys = small();
        write64(&mut sys, 0, 0);
        let t = sys.force_checkpoint(Cycle::new(1_000));
        let t = sys.drain(t);
        let entry = sys.btt().get(BlockIndex::new(0)).expect("entry kept");
        assert_eq!(entry.clast_region, Some(Region::A));
        assert_eq!(entry.wactive, None);
        assert_eq!(entry.pending, None);
        assert!(t > Cycle::new(1_000));
    }

    #[test]
    fn next_epoch_write_targets_other_region() {
        let mut sys = small();
        write64(&mut sys, 0, 0);
        let t = sys.force_checkpoint(Cycle::new(1_000));
        let t = sys.drain(t);
        sys.access(&MemRequest::write(PhysAddr::new(0), 64), t);
        let entry = sys.btt().get(BlockIndex::new(0)).unwrap();
        assert_eq!(entry.wactive, Some(WactiveLoc::Nvm(Region::B)));
    }

    #[test]
    fn write_during_inflight_checkpoint_is_buffered_in_dram() {
        let mut sys = small();
        write64(&mut sys, 0, 0);
        let resume = sys.force_checkpoint(Cycle::new(1_000));
        // Job still in flight right at resume: new write must not touch NVM.
        assert!(sys.epoch_state().job_running(resume));
        let nvm_before = sys.stats().nvm_write_bytes_total();
        sys.access(&MemRequest::write(PhysAddr::new(4096), 64), resume);
        assert_eq!(sys.stats().nvm_write_bytes_total(), nvm_before);
        let entry = sys.btt().get(BlockIndex::new(64)).expect("buffered entry");
        assert!(matches!(entry.wactive, Some(WactiveLoc::DramBuffered { .. })));
        assert!(sys.stats().dram_write_bytes >= 64);
    }

    #[test]
    fn buffered_blocks_drain_at_next_checkpoint() {
        let mut sys = small();
        write64(&mut sys, 0, 0);
        let resume = sys.force_checkpoint(Cycle::new(1_000));
        sys.access(&MemRequest::write(PhysAddr::new(4096), 64), resume);
        // Wait for job 0, then checkpoint epoch 1.
        let done = sys.epoch_state().job.as_ref().unwrap().done_at;
        let resume2 = sys.force_checkpoint(done);
        let _ = sys.drain(resume2);
        let entry = sys.btt().get(BlockIndex::new(64)).expect("entry");
        assert!(entry.clast_region.is_some());
        // The drain wrote the block to NVM as checkpoint traffic.
        assert!(sys.stats().nvm_write_bytes_ckpt >= 64);
    }

    #[test]
    fn hot_page_promoted_to_page_writeback() {
        let mut sys = small();
        // 30 stores to the same page in epoch 0 (threshold is 22).
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let t = sys.force_checkpoint(now);
        let t = sys.drain(t);
        assert!(sys.ptt().get(PageIndex::new(0)).is_some(), "page should be promoted");
        assert_eq!(sys.stats().pages_promoted, 1);
        // Next write to the page goes to DRAM.
        let dram_before = sys.stats().dram_write_bytes;
        sys.access(&MemRequest::write(PhysAddr::new(0), 64), t);
        assert_eq!(sys.stats().dram_write_bytes, dram_before + 64);
        assert!(sys.ptt().get(PageIndex::new(0)).unwrap().dirty);
    }

    #[test]
    fn cold_page_demoted_back_to_block_remapping() {
        let mut sys = small();
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let t = sys.force_checkpoint(now);
        let t = sys.drain(t);
        assert!(sys.ptt().get(PageIndex::new(0)).is_some());
        // Epoch with zero writes to the page → demote at next retirement.
        let t2 = sys.force_checkpoint(t + Cycle::new(10));
        let t2 = sys.drain(t2);
        let t3 = sys.force_checkpoint(t2 + Cycle::new(10));
        let _ = sys.drain(t3);
        assert!(sys.ptt().get(PageIndex::new(0)).is_none(), "cold page demoted");
        assert!(sys.stats().pages_demoted >= 1);
        assert!(sys.stats().nvm_write_bytes_migration >= PAGE_BYTES);
    }

    #[test]
    fn dirty_page_checkpoint_writes_whole_page() {
        let mut sys = small();
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let t = sys.drain(now); // promote
        sys.access(&MemRequest::write(PhysAddr::new(0), 64), t);
        let ckpt_before = sys.stats().nvm_write_bytes_ckpt;
        let t2 = sys.force_checkpoint(t + Cycle::new(100));
        let _ = sys.drain(t2);
        assert!(
            sys.stats().nvm_write_bytes_ckpt >= ckpt_before + PAGE_BYTES,
            "page writeback persists 4 KiB"
        );
    }

    #[test]
    fn store_to_frozen_page_is_absorbed_by_block_remapping() {
        let mut sys = small();
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let t = sys.drain(now); // page promoted
        sys.access(&MemRequest::write(PhysAddr::new(0), 64), t); // dirty it
        let resume = sys.force_checkpoint(t + Cycle::new(100));
        // Page is frozen while the job writes it back.
        assert!(sys.epoch_state().page_frozen(PageIndex::new(0), resume));
        let nvm_before = sys.stats().nvm_write_bytes_total();
        sys.access(&MemRequest::write(PhysAddr::new(64), 64), resume);
        // Cooperation: absorbed in DRAM, no NVM write, no stall on the page.
        assert_eq!(sys.stats().nvm_write_bytes_total(), nvm_before);
        let entry = sys.btt().get(BlockIndex::new(1)).expect("cooperation entry");
        assert!(matches!(entry.wactive, Some(WactiveLoc::DramBuffered { .. })));
    }

    #[test]
    fn btt_overflow_forces_early_epoch_end() {
        let mut sys = small(); // 64 BTT entries
        let mut now = Cycle::ZERO;
        // Touch 65 distinct pages (each write = one block, distinct pages so
        // no promotion).
        for i in 0..65u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new(i * PAGE_BYTES), 64), now);
        }
        assert!(sys.checkpoint_due(now), "overflow must request an epoch end");
    }

    #[test]
    fn overlap_resumes_before_job_completes() {
        let mut sys = small();
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let t = sys.drain(now);
        sys.access(&MemRequest::write(PhysAddr::new(0), 64), t);
        let resume = sys.force_checkpoint(t + Cycle::new(100));
        let job_done = sys.epoch_state().job.as_ref().expect("job").done_at;
        assert!(resume < job_done, "overlapped checkpoint must not block execution");
    }

    #[test]
    fn no_overlap_mode_blocks_until_done() {
        let mut cfg = SystemConfig::small_test();
        cfg.thynvm.overlap = false;
        let mut sys = ThyNvm::new(cfg);
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let resume = sys.force_checkpoint(now);
        assert!(!sys.epoch_state().job_running(resume), "stop-the-world returns at completion");
    }

    #[test]
    fn back_to_back_checkpoints_stall_for_first_job() {
        let mut sys = small();
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let t = sys.drain(now);
        sys.access(&MemRequest::write(PhysAddr::new(0), 64), t);
        let r1 = sys.force_checkpoint(t + Cycle::new(10));
        let stall_before = sys.stats().ckpt_stall_cycles;
        // Immediately demand another checkpoint: must wait for job 1.
        sys.access(&MemRequest::write(PhysAddr::new(8 * PAGE_BYTES), 64), r1);
        let _r2 = sys.force_checkpoint(r1 + Cycle::new(1));
        assert!(sys.stats().ckpt_stall_cycles > stall_before, "second checkpoint stalls");
    }

    // ---------------- functional / crash-consistency ----------------

    #[test]
    fn recover_to_last_completed_checkpoint() {
        let mut sys = small();
        sys.store_bytes(PhysAddr::new(100), b"AAAA", Cycle::ZERO);
        let t = sys.force_checkpoint(Cycle::new(1_000));
        let t = sys.drain(t);
        sys.store_bytes(PhysAddr::new(100), b"BBBB", t);
        // Crash before the second value is checkpointed.
        let report = sys.crash_and_recover(t + Cycle::new(1));
        assert!(!report.rolled_back_incomplete);
        assert_eq!(report.recovered_checkpoints, 1);
        let mut buf = [0u8; 4];
        sys.load_bytes(PhysAddr::new(100), &mut buf, t);
        assert_eq!(&buf, b"AAAA");
    }

    #[test]
    fn crash_during_checkpoint_rolls_back_to_penultimate() {
        let mut sys = small();
        sys.store_bytes(PhysAddr::new(0), b"epoch0", Cycle::ZERO);
        let t = sys.drain(Cycle::new(100)); // checkpoint 0 complete
        sys.store_bytes(PhysAddr::new(0), b"epoch1", t);
        let resume = sys.force_checkpoint(t + Cycle::new(10));
        // Crash while checkpoint 1 is in flight.
        assert!(sys.epoch_state().job_running(resume));
        let report = sys.crash_and_recover(resume);
        assert!(report.rolled_back_incomplete);
        let mut buf = [0u8; 6];
        sys.load_bytes(PhysAddr::new(0), &mut buf, resume);
        assert_eq!(&buf, b"epoch0", "incomplete checkpoint discarded");
    }

    #[test]
    fn crash_after_checkpoint_done_keeps_it() {
        let mut sys = small();
        sys.store_bytes(PhysAddr::new(0), b"epoch0", Cycle::ZERO);
        let t = sys.drain(Cycle::new(100));
        sys.store_bytes(PhysAddr::new(0), b"epoch1", t);
        let resume = sys.force_checkpoint(t + Cycle::new(10));
        let done = sys.epoch_state().job.as_ref().unwrap().done_at;
        let _ = resume;
        // Crash *after* the job completed.
        let report = sys.crash_and_recover(done + Cycle::new(1));
        assert!(!report.rolled_back_incomplete);
        let mut buf = [0u8; 6];
        sys.load_bytes(PhysAddr::new(0), &mut buf, done);
        assert_eq!(&buf, b"epoch1");
    }

    #[test]
    fn crash_with_no_checkpoint_recovers_to_zeroes() {
        let mut sys = small();
        sys.store_bytes(PhysAddr::new(0), b"lost", Cycle::ZERO);
        let report = sys.crash_and_recover(Cycle::new(10));
        assert_eq!(report.recovered_checkpoints, 0);
        assert_eq!(sys.stats().wq_writes_lost, 1, "the store's queued NVM write died with power");
        let mut buf = [9u8; 4];
        sys.load_bytes(PhysAddr::new(0), &mut buf, Cycle::new(20));
        assert_eq!(buf, [0u8; 4], "nothing was ever made durable");
    }

    #[test]
    fn recovery_restores_promoted_pages_to_dram() {
        let mut sys = small();
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.store_bytes(PhysAddr::new((i % 64) * 64), &[i as u8; 64], now);
        }
        let t = sys.drain(now); // page promoted + checkpointed
        let report = sys.crash_and_recover(t);
        assert!(report.restored_pages >= 1, "PTT pages reload into DRAM (§4.5)");
        assert!(report.recovery_cycles > Cycle::ZERO);
    }

    #[test]
    fn visible_reads_see_working_copy_before_checkpoint() {
        let mut sys = small();
        sys.store_bytes(PhysAddr::new(64), b"fresh", Cycle::ZERO);
        let mut buf = [0u8; 5];
        sys.load_bytes(PhysAddr::new(64), &mut buf, Cycle::new(10));
        assert_eq!(&buf, b"fresh", "W_active is software-visible (§4.1)");
    }

    #[test]
    fn run_raw_trace_completes_and_checkpoints() {
        let mut sys = small();
        let events: Vec<TraceEvent> = (0..200u64)
            .map(|i| TraceEvent::new(10, MemRequest::write(PhysAddr::new((i * 64) % 8192), 64)))
            .collect();
        let end = sys.run_raw_trace(events, Cycle::ZERO);
        assert!(end > Cycle::ZERO);
        assert!(sys.stats().epochs_completed >= 1);
        assert!(!sys.has_uncheckpointed_writes());
    }

    #[test]
    fn reads_from_home_region_for_untracked_data() {
        let mut sys = small();
        let before = sys.stats().nvm_reads;
        sys.access(&MemRequest::read(PhysAddr::new(1 << 20), 64), Cycle::ZERO);
        assert_eq!(sys.stats().nvm_reads, before + 1);
        assert_eq!(sys.stats().reads, 1);
    }

    #[test]
    fn reads_of_page_mode_data_hit_dram() {
        let mut sys = small();
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let t = sys.drain(now);
        let dram_reads_before = sys.stats().dram_reads;
        sys.access(&MemRequest::read(PhysAddr::new(0), 64), t);
        assert_eq!(sys.stats().dram_reads, dram_reads_before + 1);
    }

    #[test]
    fn drain_leaves_system_quiescent() {
        let mut sys = small();
        write64(&mut sys, 0, 0);
        let t = sys.drain(Cycle::new(100));
        assert!(!sys.has_uncheckpointed_writes());
        assert!(!sys.epoch_state().job_running(t));
        // Idempotent.
        assert_eq!(sys.drain(t), t);
    }

    #[test]
    fn name_reflects_mode() {
        assert_eq!(small().name(), "ThyNVM");
        let mut cfg = SystemConfig::small_test();
        cfg.thynvm.mode = CkptMode::BlockOnly;
        assert_eq!(ThyNvm::new(cfg).name(), "ThyNVM-blockonly");
        cfg.thynvm.mode = CkptMode::PageOnly;
        assert_eq!(ThyNvm::new(cfg).name(), "ThyNVM-pageonly");
        cfg.thynvm.mode = CkptMode::Dual;
        cfg.thynvm.overlap = false;
        assert_eq!(ThyNvm::new(cfg).name(), "ThyNVM-nooverlap");
    }

    #[test]
    fn ckpt_busy_cycles_accumulate() {
        let mut sys = small();
        write64(&mut sys, 0, 0);
        let t = sys.force_checkpoint(Cycle::new(1_000));
        let _ = sys.drain(t);
        assert!(sys.stats().ckpt_busy_cycles > Cycle::ZERO);
    }

    // ---------------- §6 extensions ----------------

    #[test]
    fn persist_barrier_makes_preceding_stores_durable() {
        let mut sys = small();
        let t = sys.store_bytes(PhysAddr::new(0), b"before", Cycle::ZERO);
        let t = sys.persist_barrier(t);
        let t = sys.drain(t);
        let t2 = sys.store_bytes(PhysAddr::new(64), b"after!", t);
        let _ = sys.crash_and_recover(t2);
        let mut a = [0u8; 6];
        let mut b = [0u8; 6];
        sys.load_bytes(PhysAddr::new(0), &mut a, t2);
        sys.load_bytes(PhysAddr::new(64), &mut b, t2);
        assert_eq!(&a, b"before", "pre-barrier data survives");
        assert_eq!(&b, &[0u8; 6], "post-barrier data was never persisted");
    }

    #[test]
    fn persistence_interval_is_configurable() {
        let mut sys = small();
        sys.set_persistence_interval_ms(2);
        assert!(!sys.checkpoint_due(Cycle::from_ms(1)));
        assert!(sys.checkpoint_due(Cycle::from_ms(2)));
    }

    #[test]
    fn archive_retains_past_checkpoints() {
        let mut sys = small();
        sys.set_archive_depth(2);
        let mut t = Cycle::ZERO;
        for i in 1u8..=3 {
            t = sys.store_bytes(PhysAddr::new(0), &[i], t);
            t = sys.force_checkpoint(t);
            t = sys.drain(t);
        }
        // Depth 2: only the two most recent checkpoints retained.
        assert_eq!(sys.archived_checkpoints().len(), 2);
    }

    #[test]
    fn rollback_to_archived_checkpoint_restores_old_image() {
        let mut sys = small();
        sys.set_archive_depth(4);
        let mut t = Cycle::ZERO;
        for i in 1u8..=3 {
            t = sys.store_bytes(PhysAddr::new(0), &[i], t);
            t = sys.force_checkpoint(t);
            t = sys.drain(t);
        }
        let archived = sys.archived_checkpoints();
        assert_eq!(archived.len(), 3);
        // Roll back to the first checkpoint (value 1).
        let _ = sys.rollback_to_checkpoint(archived[0], t).expect("in archive");
        let mut buf = [0u8; 1];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf[0], 1, "the 'bug-free' past image is restored");
        // Later checkpoints are gone from the archive.
        assert_eq!(sys.archived_checkpoints(), vec![archived[0]]);
    }

    #[test]
    fn rollback_to_unknown_checkpoint_errors() {
        let mut sys = small();
        sys.set_archive_depth(2);
        let err = sys.rollback_to_checkpoint(99, Cycle::ZERO).unwrap_err();
        assert_eq!(err, thynvm_types::Error::NoCheckpoint);
    }

    #[test]
    fn nvm_working_region_functions_identically() {
        // §4.1 footnote 3 exploration: correctness must be placement-
        // independent; only timing and traffic accounting change.
        let mut cfg = SystemConfig::small_test();
        cfg.thynvm.working_region = thynvm_types::WorkingRegion::Nvm;
        let mut sys = ThyNvm::new(cfg);
        let t = sys.store_bytes(PhysAddr::new(0x40), b"nvm-working", Cycle::ZERO);
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        let _ = sys.crash_and_recover(t);
        let mut buf = [0u8; 11];
        sys.load_bytes(PhysAddr::new(0x40), &mut buf, t);
        assert_eq!(&buf, b"nvm-working");
        // No DRAM traffic at all in this placement.
        assert_eq!(sys.stats().dram_write_bytes, 0);
        assert_eq!(sys.stats().dram_reads, 0);
    }

    #[test]
    fn nvm_working_region_page_writes_hit_nvm() {
        let mut cfg = SystemConfig::small_test();
        cfg.thynvm.working_region = thynvm_types::WorkingRegion::Nvm;
        let mut sys = ThyNvm::new(cfg);
        let mut now = Cycle::ZERO;
        for i in 0..30u64 {
            now = sys.access(&MemRequest::write(PhysAddr::new((i % 64) * 64), 64), now);
        }
        let t = sys.drain(now); // page promoted into the NVM working region
        assert!(sys.ptt().get(PageIndex::new(0)).is_some());
        let nvm_before = sys.stats().nvm_write_bytes_cpu;
        sys.access(&MemRequest::write(PhysAddr::new(0), 64), t);
        assert!(sys.stats().nvm_write_bytes_cpu > nvm_before, "page write went to NVM");
        assert_eq!(sys.stats().dram_write_bytes, 0);
    }

    #[test]
    fn archive_disabled_by_default() {
        let mut sys = small();
        let t = sys.store_bytes(PhysAddr::new(0), &[1], Cycle::ZERO);
        let t = sys.force_checkpoint(t);
        let _ = sys.drain(t);
        assert!(sys.archived_checkpoints().is_empty());
    }

    // ---------------- fault injection ----------------

    #[test]
    fn armed_crash_fires_on_next_request_past_the_point() {
        let mut sys = small();
        let t = sys.store_bytes(PhysAddr::new(0), &[1], Cycle::ZERO);
        sys.arm_crash_point(t + Cycle::new(10));
        assert_eq!(sys.armed_crash_point(), Some(t + Cycle::new(10)));
        // A store before the point proceeds normally.
        let t2 = sys.store_bytes(PhysAddr::new(64), &[2], t);
        assert!(sys.take_crash_report().is_none());
        // The first request strictly past the point triggers the crash.
        let resume = sys.store_bytes(PhysAddr::new(128), &[3], t2 + Cycle::new(1_000));
        let crash = sys.take_crash_report().expect("crash fired");
        assert_eq!(crash.event.cycle, t + Cycle::new(10));
        assert_eq!(crash.resume_at, resume);
        assert_eq!(sys.armed_crash_point(), None);
        assert_eq!(sys.stats().crashes_injected, 1);
        // No checkpoint had completed: everything reads zero, including the
        // dropped store.
        let mut buf = [0u8; 1];
        sys.load_bytes(PhysAddr::new(128), &mut buf, resume);
        assert_eq!(buf[0], 0, "the crashed store must be dropped");
    }

    #[test]
    fn crash_during_checkpoint_classifies_phase_and_rolls_back() {
        let mut sys = small();
        let t = sys.store_bytes(PhysAddr::new(0), &[7], Cycle::ZERO);
        // First checkpoint completes: C_last = {7}.
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        let t = sys.store_bytes(PhysAddr::new(0), &[8], t);
        // Second checkpoint starts; crash one cycle before its commit.
        let resume = sys.force_checkpoint(t);
        let job_done = sys.epoch_state().job.as_ref().expect("job in flight").done_at;
        sys.arm_crash_point(job_done - Cycle::new(1));
        let after = sys.load_bytes(PhysAddr::new(0), &mut [0u8; 1], job_done + Cycle::new(1));
        let _ = (resume, after);
        let crash = sys.take_crash_report().expect("crash fired");
        assert!(crash.report.rolled_back_incomplete, "checkpoint was in flight");
        assert_eq!(crash.event.outcome, thynvm_types::RecoveryOutcome::CPenult);
        assert_ne!(crash.event.phase, thynvm_types::CkptPhase::Execution);
        // Recovery restored the first checkpoint's value.
        let mut buf = [0u8; 1];
        sys.load_bytes(PhysAddr::new(0), &mut buf, crash.resume_at);
        assert_eq!(buf[0], 7);
        assert_eq!(sys.stats().recoveries_to_cpenult, 1);
    }

    #[test]
    fn crash_after_checkpoint_commit_keeps_clast() {
        let mut sys = small();
        let t = sys.store_bytes(PhysAddr::new(0), &[9], Cycle::ZERO);
        let t = sys.force_checkpoint(t);
        let job_done = sys.epoch_state().job.as_ref().map(|j| j.done_at).unwrap_or(t);
        // Crash exactly at the commit cycle: the checkpoint counts.
        sys.arm_crash_point(job_done);
        sys.load_bytes(PhysAddr::new(0), &mut [0u8; 1], job_done + Cycle::new(1));
        let crash = sys.take_crash_report().expect("crash fired");
        assert!(!crash.report.rolled_back_incomplete);
        assert_eq!(crash.event.outcome, thynvm_types::RecoveryOutcome::CLast);
        let mut buf = [0u8; 1];
        sys.load_bytes(PhysAddr::new(0), &mut buf, crash.resume_at);
        assert_eq!(buf[0], 9);
    }

    #[test]
    fn crash_fires_while_stalled_on_inflight_job() {
        let mut sys = small();
        let t = sys.store_bytes(PhysAddr::new(0), &[1], Cycle::ZERO);
        let resume = sys.force_checkpoint(t);
        let job_done = sys.epoch_state().job.as_ref().expect("overlap job").done_at;
        assert!(resume < job_done, "needs an overlapped in-flight job");
        // Arm inside the job's window, then request a second checkpoint:
        // the controller would stall until `job_done`, but power fails
        // mid-wait.
        sys.arm_crash_point(job_done - Cycle::new(1));
        sys.force_checkpoint(resume);
        let crash = sys.take_crash_report().expect("crash fired during stall");
        assert!(crash.report.rolled_back_incomplete);
    }

    #[test]
    fn disarm_prevents_the_crash() {
        let mut sys = small();
        sys.arm_crash_point(Cycle::new(5));
        assert_eq!(sys.disarm_crash_point(), Some(Cycle::new(5)));
        let t = sys.store_bytes(PhysAddr::new(0), &[1], Cycle::new(100));
        assert!(sys.take_crash_report().is_none());
        assert!(t > Cycle::new(100));
        assert_eq!(sys.stats().crashes_injected, 0);
    }

    #[test]
    fn poll_crash_fires_between_requests() {
        let mut sys = small();
        sys.arm_crash_point(Cycle::new(50));
        // Power fails at the *end* of cycle 50: not due at 50 itself.
        assert!(sys.poll_crash(Cycle::new(49)).is_none());
        assert!(sys.poll_crash(Cycle::new(50)).is_none());
        let resume = sys.poll_crash(Cycle::new(51)).expect("due");
        assert!(resume >= Cycle::new(50));
        assert!(sys.take_crash_report().is_some());
    }

    #[test]
    fn crash_events_record_epoch_and_inflight_counts() {
        let mut sys = small();
        let mut t = Cycle::ZERO;
        for round in 0u8..3 {
            t = sys.store_bytes(PhysAddr::new(0), &[round + 1], t);
            t = sys.force_checkpoint(t);
            t = sys.drain(t);
        }
        let epoch_before = sys.epoch_state().active_epoch;
        sys.arm_crash_point(t + Cycle::new(1));
        sys.store_bytes(PhysAddr::new(0), &[9], t + Cycle::new(2));
        let crash = sys.take_crash_report().expect("fired");
        assert_eq!(crash.event.epoch, epoch_before);
        assert_eq!(crash.event.phase, thynvm_types::CkptPhase::Execution);
        // The same record landed in the stats layer.
        assert_eq!(sys.stats().crash_events.len(), 1);
        assert_eq!(sys.stats().crash_events[0], crash.event);
    }

    // ------------------------------------------------------------------
    // Media faults & self-healing
    // ------------------------------------------------------------------

    fn media_cfg(f: impl FnOnce(&mut thynvm_types::MediaFaultConfig)) -> SystemConfig {
        let mut cfg = SystemConfig::small_test();
        cfg.media = thynvm_types::MediaFaultConfig::hardened();
        f(&mut cfg.media);
        cfg.validate().expect("valid media config");
        cfg
    }

    /// Stores `val` over block 0 and completes a full checkpoint.
    fn store_and_checkpoint(sys: &mut ThyNvm, val: u8, t: Cycle) -> Cycle {
        let t = sys.store_bytes(PhysAddr::new(0), &[val; 64], t);
        let t = sys.force_checkpoint(t);
        sys.drain(t)
    }

    #[test]
    fn torn_commit_record_falls_back_to_cpenult() {
        let mut sys = ThyNvm::new(media_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_media_fault(MediaFault::TornCommitRecord);
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback);
        assert!(!report.rolled_back_incomplete);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64], "recovered to C_penult's contents");
        assert_eq!(sys.stats().media.torn_writes, 1);
        assert_eq!(sys.stats().media.integrity_fallbacks, 1);
    }

    #[test]
    fn clast_bit_flip_falls_back_to_cpenult() {
        let mut sys = ThyNvm::new(media_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_media_fault(MediaFault::ClastBitFlip { addr: 0 });
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64]);
        assert_eq!(sys.stats().media.bit_flips, 1);
    }

    #[test]
    fn corrupt_ptt_metadata_falls_back_to_cpenult() {
        let mut sys = ThyNvm::new(media_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_media_fault(MediaFault::CorruptPttMetadata);
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64]);
        assert_eq!(sys.stats().media.meta_corruptions, 1);
    }

    #[test]
    fn injected_fault_stays_armed_until_a_checkpoint_exists() {
        let mut sys = ThyNvm::new(media_cfg(|_| {}));
        sys.inject_media_fault(MediaFault::TornCommitRecord);
        // No completed checkpoint: nothing persisted to corrupt yet.
        let report = sys.crash_and_recover(Cycle::new(100));
        assert!(!report.integrity_fallback);
        assert_eq!(sys.stats().media.integrity_fallbacks, 0);
        // After the first checkpoint the armed fault fires and recovery
        // falls back to the pre-checkpoint (empty) image.
        let t = store_and_checkpoint(&mut sys, 3, Cycle::new(200));
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [0u8; 64], "fell back to the initial zero image");
    }

    #[test]
    fn transient_flip_is_healed_by_retry() {
        let mut sys = ThyNvm::new(media_cfg(|_| {}));
        let t = sys.store_bytes(PhysAddr::new(0), &[0xAA; 64], Cycle::ZERO);
        sys.fault_model_mut().expect("media on").arm_transient_flips(1);
        let mut buf = [0u8; 64];
        let t = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [0xAA; 64], "CRC+retry delivered the true bytes");
        let m = sys.stats().media;
        assert_eq!(m.bit_flips, 1);
        assert_eq!(m.retries, 1, "one retry healed the transient flip");
        assert_eq!(m.remaps, 0);
        assert_eq!(m.integrity_fallbacks, 0);
        assert!(sys.take_media_error().is_none());
        // And the system keeps working afterwards.
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [0xAA; 64]);
    }

    #[test]
    fn silent_corruption_reaches_software_without_integrity() {
        let mut sys = ThyNvm::new(media_cfg(|m| {
            m.integrity = false;
            m.scrub = false;
        }));
        let t = sys.store_bytes(PhysAddr::new(0), &[0xAA; 64], Cycle::ZERO);
        sys.fault_model_mut().expect("media on").arm_transient_flips(1);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_ne!(buf, [0xAA; 64], "no CRC, so the flip is delivered");
        assert_eq!(sys.stats().media.silent_corruptions, 1);
        assert_eq!(sys.stats().media.retries, 0);
        // The fault model still records what software never saw.
        let err = sys.take_media_error().expect("invariant: a corruption was just delivered");
        assert!(
            matches!(err, Error::MediaCorruption { kind: FaultKind::BitFlip, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn stuck_cell_is_remapped_exactly_once() {
        let mut sys = ThyNvm::new(media_cfg(|m| {
            m.stuck_at_threshold = 2;
            m.scrub = false; // exercise the read path, not the scrubber
        }));
        // Two writes to the same row cross the wear threshold.
        let t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], Cycle::ZERO);
        let t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], t);
        assert_eq!(sys.stats().media.stuck_faults, 1, "wear created a stuck cell");
        let mut buf = [0u8; 64];
        let t = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [7u8; 64], "functional contents survive the remap");
        let m = sys.stats().media;
        assert_eq!(m.remaps, 1, "retries exhausted, block remapped to spare");
        assert_eq!(m.retries, 3, "all bounded retries failed on a stuck cell");
        assert_eq!(sys.bad_block_remaps(), 1);
        let err = sys.take_media_error().expect("retries-exhausted error");
        assert!(matches!(err, Error::RetriesExhausted { attempts: 3, .. }));
        // A second read resolves through the bad-block table: no new
        // retries, no second remap.
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [7u8; 64]);
        let m = sys.stats().media;
        assert_eq!(m.remaps, 1, "a block is remapped at most once");
        assert_eq!(m.retries, 3, "remapped reads are clean");
    }

    #[test]
    fn scrubber_remaps_stuck_blocks_between_epochs() {
        let mut sys = ThyNvm::new(media_cfg(|m| m.stuck_at_threshold = 2));
        let t = sys.store_bytes(PhysAddr::new(0), &[5u8; 64], Cycle::ZERO);
        let t = sys.store_bytes(PhysAddr::new(0), &[5u8; 64], t);
        assert_eq!(sys.stats().media.stuck_faults, 1);
        // Retiring the checkpoint runs the scrubber.
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        let m = sys.stats().media;
        assert_eq!(m.scrub_repairs, 1, "scrubber proactively remapped the block");
        assert_eq!(m.remaps, 1);
        // Reads after scrubbing never hit the stuck cell.
        let retries_before = m.retries;
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [5u8; 64]);
        assert_eq!(sys.stats().media.retries, retries_before);
    }

    #[test]
    fn zero_rate_media_model_matches_default_timing_and_stats() {
        // With the model enabled but all fault sources at zero and
        // integrity off, timing and stats are identical to media-off.
        let mut cfg = SystemConfig::small_test();
        cfg.media.enabled = true;
        cfg.media.bit_flip_rate = 0.0;
        let mut faulty = ThyNvm::new(cfg);
        let mut plain = small();
        let mut t_f = Cycle::ZERO;
        let mut t_p = Cycle::ZERO;
        for round in 0u8..4 {
            for blk in 0u64..8 {
                t_f = faulty.store_bytes(PhysAddr::new(blk * 64), &[round; 64], t_f);
                t_p = plain.store_bytes(PhysAddr::new(blk * 64), &[round; 64], t_p);
            }
            t_f = faulty.force_checkpoint(t_f);
            t_f = faulty.drain(t_f);
            t_p = plain.force_checkpoint(t_p);
            t_p = plain.drain(t_p);
            let mut buf = [0u8; 64];
            t_f = faulty.load_bytes(PhysAddr::new(64), &mut buf, t_f);
            t_p = plain.load_bytes(PhysAddr::new(64), &mut buf, t_p);
        }
        assert_eq!(t_f, t_p, "zero-rate media model must not perturb timing");
        assert_eq!(faulty.stats().nvm_reads, plain.stats().nvm_reads);
        assert_eq!(faulty.stats().nvm_write_bytes_ckpt, plain.stats().nvm_write_bytes_ckpt);
        assert!(!faulty.stats().media.any());
        assert_eq!(faulty.stats().media.crc_check_cycles, Cycle::ZERO);
    }

    #[test]
    fn integrity_crc_costs_are_stats_only() {
        // CRC work is attributed to dedicated counters, never to the
        // service-time accounting of the store/load paths.
        let mut sys = ThyNvm::new(media_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 9, Cycle::ZERO);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        let m = sys.stats().media;
        assert!(m.crc_checked_blocks > 0, "checkpoint + load verified CRCs");
        assert!(m.crc_check_cycles > Cycle::ZERO);
    }

    // ------------------------------------------------------------------
    // Restartable recovery & crash-point queue
    // ------------------------------------------------------------------

    #[test]
    fn recovery_is_cycle_accounted_and_reports_steps() {
        let mut sys = small();
        let t = store_and_checkpoint(&mut sys, 3, Cycle::ZERO);
        let report = sys.crash_and_recover(t);
        assert!(report.recovery_cycles > Cycle::ZERO, "recovery pays modeled latency");
        assert_eq!(report.attempts, 1);
        assert_eq!(report.nested_crashes, 0);
        assert_eq!(report.steps.first().map(|&(s, _)| s), Some(RecoveryStep::ReadCommitRecord));
        assert_eq!(report.steps.last().map(|&(s, _)| s), Some(RecoveryStep::RearmWorkingSet));
        // Step-end cycles are strictly ordered along the recovery timeline.
        for pair in report.steps.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "steps out of order: {:?}", report.steps);
        }
        assert_eq!(sys.stats().recovery_cycles, report.recovery_cycles);
        assert_eq!(sys.stats().nested_crashes, 0);
    }

    #[test]
    fn queue_crash_point_orders_and_disarm_pops_earliest() {
        let mut sys = small();
        sys.queue_crash_point(Cycle::new(300));
        sys.queue_crash_point(Cycle::new(100));
        sys.queue_crash_point(Cycle::new(200));
        assert_eq!(
            sys.armed_crash_points(),
            &[Cycle::new(100), Cycle::new(200), Cycle::new(300)]
        );
        assert_eq!(sys.armed_crash_point(), Some(Cycle::new(100)));
        // Disarm removes only the earliest; the rest stay queued.
        assert_eq!(sys.disarm_crash_point(), Some(Cycle::new(100)));
        assert_eq!(sys.armed_crash_point(), Some(Cycle::new(200)));
        // Arming replaces the whole queue.
        sys.arm_crash_point(Cycle::new(50));
        assert_eq!(sys.armed_crash_points(), &[Cycle::new(50)]);
        assert_eq!(sys.disarm_crash_point(), Some(Cycle::new(50)));
        assert_eq!(sys.disarm_crash_point(), None);
    }

    #[test]
    fn queued_point_survives_into_recovery_as_nested_crash() {
        let mut sys = small();
        let t = store_and_checkpoint(&mut sys, 5, Cycle::ZERO);
        sys.arm_crash_point(t);
        // One cycle after the crash: recovery's first step overruns it.
        sys.queue_crash_point(t + Cycle::new(1));
        let resume = sys.poll_crash(t + Cycle::new(2)).expect("crash fires");
        let crash = sys.take_crash_report().expect("reported");
        assert_eq!(crash.report.nested_crashes, 1, "queued point fired mid-recovery");
        assert_eq!(crash.report.attempts, 2);
        assert_eq!(sys.stats().crashes_injected, 1, "nested crashes are not top-level");
        assert_eq!(sys.stats().nested_crashes, 1);
        // The nested event names the interrupted recovery step.
        let nested = sys
            .stats()
            .crash_events
            .iter()
            .find(|e| e.recovery_step.is_some())
            .expect("nested event recorded");
        assert_eq!(nested.recovery_step, Some(RecoveryStep::ReadCommitRecord));
        assert_eq!(nested.cycle, t + Cycle::new(1));
        // Both queued points are consumed; recovery still lands on C_last.
        assert_eq!(sys.armed_crash_points(), &[] as &[Cycle]);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, resume);
        assert_eq!(buf, [5u8; 64]);
    }

    #[test]
    fn nested_crash_recovery_converges_to_the_uninterrupted_image() {
        // Probe twin: identical workload, single crash — learns the step
        // boundaries and the reference image.
        let mut probe = small();
        let mut trial = small();
        let mut tp = Cycle::ZERO;
        let mut tt = Cycle::ZERO;
        for (i, val) in [(0u64, 1u8), (64, 2), (4096, 3), (8192, 4)] {
            tp = probe.store_bytes(PhysAddr::new(i), &[val; 64], tp);
            tt = trial.store_bytes(PhysAddr::new(i), &[val; 64], tt);
        }
        tp = probe.force_checkpoint(tp);
        tp = probe.drain(tp);
        tt = trial.force_checkpoint(tt);
        tt = trial.drain(tt);
        assert_eq!(tp, tt, "twins share a timeline");
        probe.arm_crash_point(tp);
        probe.poll_crash(tp + Cycle::new(1)).expect("probe crash");
        let probe_report = probe.take_crash_report().expect("probe report").report;
        assert_eq!(probe_report.nested_crashes, 0);

        // Trial: nested crash points at every step boundary of the probe's
        // recovery (one cycle before each completion).
        trial.arm_crash_point(tt);
        for &(_, end) in &probe_report.steps {
            trial.queue_crash_point(end.saturating_sub(Cycle::new(1)));
        }
        trial.poll_crash(tt + Cycle::new(1)).expect("trial crash");
        let trial_report = trial.take_crash_report().expect("trial report").report;
        assert!(trial_report.nested_crashes > 0, "boundary points interrupted recovery");
        assert_eq!(trial_report.attempts, trial_report.nested_crashes + 1);
        // Idempotence: byte-identical to the uninterrupted recovery.
        assert_eq!(trial.visible_fingerprint(), probe.visible_fingerprint());
        assert_eq!(trial_report.recovered_checkpoints, probe_report.recovered_checkpoints);
        assert_eq!(trial_report.restored_pages, probe_report.restored_pages);
        // Interrupted recovery takes at least as long as the clean one.
        assert!(trial_report.recovery_cycles >= probe_report.recovery_cycles);
    }

    #[test]
    fn leftover_queued_points_stay_armed_after_recovery() {
        let mut sys = small();
        let t = store_and_checkpoint(&mut sys, 9, Cycle::ZERO);
        sys.arm_crash_point(t);
        // Far beyond the end of recovery: must NOT fire as a nested crash.
        let far = t + Cycle::new(1_000_000_000);
        sys.queue_crash_point(far);
        let resume = sys.poll_crash(t + Cycle::new(1)).expect("first crash");
        let first = sys.take_crash_report().expect("first report");
        assert_eq!(first.report.nested_crashes, 0);
        assert_eq!(sys.armed_crash_points(), &[far], "distant point survives recovery");
        // It fires later as an ordinary top-level crash.
        let resume2 = sys.poll_crash(far + Cycle::new(1)).expect("second crash");
        assert!(resume2 > resume);
        assert_eq!(sys.stats().crashes_injected, 2);
        assert_eq!(sys.stats().nested_crashes, 0);
    }

    #[test]
    fn disarm_prevents_a_queued_point_from_reaching_recovery() {
        let mut sys = small();
        let t = store_and_checkpoint(&mut sys, 7, Cycle::ZERO);
        sys.arm_crash_point(t);
        sys.queue_crash_point(t + Cycle::new(1));
        // Disarming pops the earliest point: the nested-crash candidate at
        // t+1 becomes the (only) top-level crash point.
        assert_eq!(sys.disarm_crash_point(), Some(t));
        sys.poll_crash(t + Cycle::new(2)).expect("remaining point fires");
        let crash = sys.take_crash_report().expect("reported");
        assert_eq!(crash.event.cycle, t + Cycle::new(1));
        assert_eq!(crash.report.nested_crashes, 0, "no queued point left to nest");
    }

    #[test]
    fn crash_during_integrity_fallback_still_lands_on_cpenult() {
        // Probe twin learns where the IntegrityFallback step completes.
        let mut probe = ThyNvm::new(media_cfg(|_| {}));
        let mut trial = ThyNvm::new(media_cfg(|_| {}));
        let tp = store_and_checkpoint(&mut probe, 1, Cycle::ZERO);
        let tp = store_and_checkpoint(&mut probe, 2, tp);
        let tt = store_and_checkpoint(&mut trial, 1, Cycle::ZERO);
        let tt = store_and_checkpoint(&mut trial, 2, tt);
        assert_eq!(tp, tt);
        probe.inject_media_fault(MediaFault::TornCommitRecord);
        probe.arm_crash_point(tp);
        probe.poll_crash(tp + Cycle::new(1)).expect("probe crash");
        let probe_report = probe.take_crash_report().expect("probe").report;
        let fallback_end = probe_report
            .steps
            .iter()
            .find(|&&(s, _)| s == RecoveryStep::IntegrityFallback)
            .map(|&(_, end)| end)
            .expect("probe recovery ran the fallback step");

        // Trial: power fails again one cycle before the fallback's WAL
        // seal lands — the fallback must be redone, never compounded.
        trial.inject_media_fault(MediaFault::TornCommitRecord);
        trial.arm_crash_point(tt);
        trial.queue_crash_point(fallback_end.saturating_sub(Cycle::new(1)));
        trial.poll_crash(tt + Cycle::new(1)).expect("trial crash");
        let crash = trial.take_crash_report().expect("trial");
        assert!(crash.report.integrity_fallback, "second recovery still picks C_penult");
        assert_eq!(crash.event.outcome, thynvm_types::RecoveryOutcome::CPenultIntegrityFallback);
        assert_eq!(crash.report.nested_crashes, 1);
        let m = trial.stats().media;
        assert_eq!(m.integrity_fallbacks, 1, "the fallback applied exactly once");
        assert!(m.wal_redos >= 1, "the torn WAL record was detected and redone");
        assert!(m.wal_seals >= 1);
        // Byte-identical to the uninterrupted fallback recovery.
        assert_eq!(trial.visible_fingerprint(), probe.visible_fingerprint());
        let mut buf = [0u8; 64];
        trial.load_bytes(PhysAddr::new(0), &mut buf, crash.resume_at);
        assert_eq!(buf, [1u8; 64], "C_penult's contents");
    }

    #[test]
    fn spare_pool_exhaustion_degrades_gracefully() {
        // One spare, two worn-out blocks: the second remap must be refused
        // without losing data or the first block's healing.
        let mut sys = ThyNvm::new(media_cfg(|m| {
            m.stuck_at_threshold = 2;
            m.scrub = false;
            m.spare_blocks = 1;
        }));
        let mut t = Cycle::ZERO;
        for addr in [0u64, 16 * PAGE_BYTES] {
            t = sys.store_bytes(PhysAddr::new(addr), &[0xAB; 64], t);
            t = sys.store_bytes(PhysAddr::new(addr), &[0xAB; 64], t);
        }
        assert_eq!(sys.stats().media.stuck_faults, 2, "wear stuck both rows");
        let mut buf = [0u8; 64];
        // First bad block consumes the only spare.
        t = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [0xAB; 64]);
        assert_eq!(sys.bad_block_remaps(), 1);
        assert!(!sys.spares_exhausted() || sys.config().media.spare_blocks == 1);
        // Second bad block: no spare left. Served anyway, via CRC retries.
        t = sys.load_bytes(PhysAddr::new(16 * PAGE_BYTES), &mut buf, t);
        assert_eq!(buf, [0xAB; 64], "graceful degradation keeps serving data");
        let m = sys.stats().media;
        assert_eq!(m.remaps, 1, "the refused remap was not half-applied");
        assert!(m.spare_exhausted >= 1);
        assert_eq!(sys.bad_block_remaps(), 1);
        assert!(sys.spares_exhausted());
        let err = sys.take_media_error().expect("spare-exhausted error surfaced");
        assert!(matches!(err, Error::SpareExhausted { .. }), "got {err:?}");
        // Every later read of the unhealed block keeps paying retries —
        // degraded, but correct.
        let retries_before = sys.stats().media.retries;
        sys.load_bytes(PhysAddr::new(16 * PAGE_BYTES), &mut buf, t);
        assert_eq!(buf, [0xAB; 64]);
        assert!(sys.stats().media.retries > retries_before);
    }

    #[test]
    fn out_of_range_accesses_are_rejected_not_wrapped() {
        let mut sys = ThyNvm::new(SystemConfig::small_test());
        let mut t = Cycle::ZERO;
        // In range: behaves exactly like the unchecked API.
        t = sys
            .try_store_bytes(PhysAddr::new(0), &[5u8; 64], t)
            .expect("invariant: address 0 is in range");
        let mut buf = [0u8; 64];
        sys.try_load_bytes(PhysAddr::new(0), &mut buf, t)
            .expect("invariant: address 0 is in range");
        assert_eq!(buf, [5u8; 64]);
        // Out of range: rejected with the offending address and the limit.
        let bad = PhysAddr::new(crate::PHYS_LIMIT);
        let err = sys.try_store_bytes(bad, &[1u8; 64], t).expect_err("must reject");
        assert_eq!(err, Error::AddressOutOfRange { addr: bad, limit: crate::PHYS_LIMIT });
        let err = sys.try_load_bytes(bad, &mut buf, t).expect_err("must reject");
        assert!(matches!(err, Error::AddressOutOfRange { .. }));
        // A span that *ends* out of range is rejected too.
        let edge = PhysAddr::new(crate::PHYS_LIMIT - 32);
        assert!(matches!(
            sys.try_store_bytes(edge, &[1u8; 64], t),
            Err(Error::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn btt_emergency_spill_forces_an_early_checkpoint_and_drains() {
        // Tiny BTT; fill it while a checkpoint is in flight so inserts must
        // spill, then verify the overflow handshake ends the epoch and the
        // spilled entry is drained into the checkpoint.
        let mut cfg = SystemConfig::small_test();
        cfg.thynvm.btt_entries = 4;
        cfg.thynvm.promote_threshold = 255; // keep everything under block remapping
        let mut sys = ThyNvm::new(cfg);
        let mut t = Cycle::ZERO;
        for i in 0..4u64 {
            t = sys.store_bytes(PhysAddr::new(i * 64), &[i as u8; 64], t);
        }
        // Start a checkpoint but do NOT wait for it: the job is in flight.
        t = sys.force_checkpoint(t);
        assert!(sys.epoch_state().job_running(t), "checkpoint must be in flight");
        // New blocks while the BTT is full and nothing is reclaimable.
        for i in 4..9u64 {
            t = sys.store_bytes(PhysAddr::new(i * 64), &[i as u8; 64], t);
        }
        assert!(sys.btt_spills() >= 1, "inserts past capacity spilled");
        assert!(sys.epoch_state().overflow_pending, "spill demanded an early epoch end");
        // Spills kept arriving while the first spill's early epoch end was
        // still pending: the table was genuinely full.
        let err = sys.take_overflow_error().expect("invariant: repeated spills recorded");
        assert!(matches!(err, Error::TableFull { table: "BTT" }), "got {err:?}");
        assert!(sys.take_overflow_error().is_none(), "error is taken once");
        // The platform's next event fires the forced early checkpoint.
        assert!(sys.checkpoint_due(t), "overflow makes the checkpoint due immediately");
        let epochs_before = sys.stats().epochs_completed;
        t = sys.force_checkpoint(t);
        t = sys.drain(t);
        assert!(sys.stats().epochs_completed > epochs_before, "early checkpoint fired");
        assert!(!sys.epoch_state().overflow_pending, "spill drained");
        // The spilled blocks' contents are durable: crash and verify.
        let report = sys.crash_and_recover(t);
        let mut buf = [0u8; 64];
        for i in 0..9u64 {
            sys.load_bytes(PhysAddr::new(i * 64), &mut buf, t + report.recovery_cycles);
            assert_eq!(buf, [i as u8; 64], "block {i} survived the spill");
        }
    }

    // ------------------------------------------------------------------
    // DRAM fault domain (ECC, poison containment, quarantine)
    // ------------------------------------------------------------------

    fn dram_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::small_test();
        cfg.dram_fault = thynvm_types::DramFaultConfig::hardened();
        cfg.validate().expect("valid dram-fault config");
        cfg
    }

    /// Promotes page 0 (22 stores of `val` across its first 22 blocks) and
    /// completes a checkpoint, so the page sits clean under page writeback
    /// with `val` durable. Returns the resume cycle.
    fn promote_and_checkpoint(sys: &mut ThyNvm, val: u8, mut t: Cycle) -> Cycle {
        for i in 0..22u64 {
            t = sys.store_bytes(PhysAddr::new(i * 64), &[val; 64], t);
        }
        assert!(sys.ptt().get(PageIndex::new(0)).is_some(), "page promoted");
        t = sys.force_checkpoint(t);
        sys.drain(t)
    }

    /// Working-region offset of block `i` of page 0's DRAM slot.
    fn page0_block_off(sys: &ThyNvm, i: u64) -> u64 {
        let slot = sys.ptt().get(PageIndex::new(0)).expect("resident").slot;
        u64::from(slot) * PAGE_BYTES + i * BLOCK_BYTES
    }

    #[test]
    fn ecc_model_disabled_keeps_timing_and_contents_identical() {
        // An enabled model with zero fault rates must behave exactly like
        // the disabled one: no extra device traffic, identical bytes.
        let mut plain = small();
        let mut armed = ThyNvm::new(dram_cfg());
        let mut tp = Cycle::ZERO;
        let mut ta = Cycle::ZERO;
        for round in 0u8..3 {
            tp = promote_and_checkpoint(&mut plain, round + 1, tp);
            ta = promote_and_checkpoint(&mut armed, round + 1, ta);
        }
        assert_eq!(tp, ta, "cycle-identical timelines");
        assert_eq!(plain.visible_fingerprint(), armed.visible_fingerprint());
        assert!(!armed.stats().dram.any(), "quiet model left no counters");
    }

    #[test]
    fn quiet_fault_models_are_skipped_and_the_skips_are_counted() {
        // Hardened models with every rate at zero are "quiet": the
        // controller skips their per-read consultation entirely. The perf
        // counters witness the skip so the fast path cannot silently rot.
        let mut cfg = SystemConfig::small_test();
        cfg.media = thynvm_types::MediaFaultConfig::hardened();
        cfg.dram_fault = thynvm_types::DramFaultConfig::hardened();
        cfg.validate().expect("valid config");
        let mut sys = ThyNvm::new(cfg);
        let t = promote_and_checkpoint(&mut sys, 7, Cycle::ZERO);

        // Page-scheme read: lands in the DRAM working region, where the
        // quiet SEC-DED model is skipped.
        let dram_skips = sys.stats().perf.dram_quiet_reads;
        let t = sys.access(&MemRequest::read(PhysAddr::new(0), 64), t);
        assert!(
            sys.stats().perf.dram_quiet_reads > dram_skips,
            "DRAM read must take the quiet fast path"
        );

        // Block-scheme read of an untouched block: served from the NVM home
        // region, where the quiet media model is skipped.
        let nvm_skips = sys.stats().perf.nvm_quiet_reads;
        let _ = sys.access(&MemRequest::read(PhysAddr::new(PAGE_BYTES * 4), 64), t);
        assert!(
            sys.stats().perf.nvm_quiet_reads > nvm_skips,
            "NVM read must take the quiet fast path"
        );
        assert!(!sys.stats().dram.any(), "no DRAM fault counters moved");
    }

    #[test]
    fn corrected_flips_are_counted_and_harmless() {
        let mut sys = ThyNvm::new(dram_cfg());
        let t = promote_and_checkpoint(&mut sys, 5, Cycle::ZERO);
        sys.dram_ecc_mut().expect("model on").arm_corrected_flips(1);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [5u8; 64], "corrected data is good data");
        assert_eq!(sys.stats().dram.corrected_flips, 1);
        assert_eq!(sys.stats().dram.poisoned_blocks, 0);
        assert!(sys.take_poison_error().is_none());
    }

    #[test]
    fn poisoned_clean_block_refetches_from_nvm() {
        let mut sys = ThyNvm::new(dram_cfg());
        let t = promote_and_checkpoint(&mut sys, 5, Cycle::ZERO);
        sys.dram_ecc_mut().expect("model on").arm_poison(1);
        let mut buf = [0u8; 64];
        let done = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [5u8; 64], "clean data healed transparently");
        let d = &sys.stats().dram;
        assert_eq!(d.poisoned_blocks, 1);
        assert_eq!(d.poison_refetched, 1);
        assert_eq!(d.refetch_retries, 2, "paid the configured retry budget");
        assert_eq!(d.quarantined_pages, 0, "no data was lost");
        assert_eq!(sys.dram_ecc().expect("model on").outstanding(), 0);
        assert!(sys.ptt().get(PageIndex::new(0)).is_some(), "page stays resident");
        assert!(done > t, "healing costs cycles");
        assert!(sys.take_poison_error().is_none(), "nothing was lost");
    }

    #[test]
    fn poisoned_dirty_page_is_quarantined_at_checkpoint() {
        let mut sys = ThyNvm::new(dram_cfg());
        let mut t = promote_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        // Dirty the page, then poison a block under the dirty data.
        t = sys.store_bytes(PhysAddr::new(0), &[9u8; 64], t);
        let off = page0_block_off(&sys, 0);
        sys.dram_ecc_mut().expect("model on").poison_block(off);
        // The checkpoint must refuse to persist the poisoned page.
        t = sys.force_checkpoint(t);
        t = sys.drain(t);
        assert!(sys.ptt().get(PageIndex::new(0)).is_none(), "page left the page scheme");
        let d = &sys.stats().dram;
        assert_eq!(d.quarantined_pages, 1);
        assert_eq!(d.poison_dropped, 1);
        assert_eq!(d.quarantine_dropped_bytes, PAGE_BYTES);
        let err = sys.take_poison_error().expect("loss surfaced");
        assert!(
            matches!(err, Error::DramPoisonLost { bytes: PAGE_BYTES, .. }),
            "got {err:?}"
        );
        assert_eq!(sys.take_quarantine_events(), vec![(0, PAGE_BYTES)]);
        assert!(sys.take_quarantine_events().is_empty(), "events drain once");
        // The dirty write is gone; the checkpointed bytes survive.
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [1u8; 64], "rolled back to C_last");
        // And the rollback is durable: crash and re-verify.
        let report = sys.crash_and_recover(t);
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64], "recovered image is poison-free");
    }

    #[test]
    fn poison_under_dirty_read_quarantines_immediately() {
        let mut sys = ThyNvm::new(dram_cfg());
        let mut t = promote_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        t = sys.store_bytes(PhysAddr::new(0), &[9u8; 64], t);
        sys.dram_ecc_mut().expect("model on").arm_poison(1);
        // The load itself discovers the poison; the delivered bytes must be
        // the rolled-back ones, not the stale pre-quarantine snapshot.
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [1u8; 64], "load observes the rollback");
        assert_eq!(sys.stats().dram.quarantined_pages, 1);
        assert!(sys.ptt().get(PageIndex::new(0)).is_none());
        assert!(matches!(
            sys.take_poison_error(),
            Some(Error::DramPoisonLost { .. })
        ));
    }

    #[test]
    fn full_block_overwrite_clears_poison_in_place() {
        let mut sys = ThyNvm::new(dram_cfg());
        let mut t = promote_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let off = page0_block_off(&sys, 0);
        sys.dram_ecc_mut().expect("model on").poison_block(off);
        // A whole-block store re-encodes the ECC word: nothing is lost.
        t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], t);
        assert_eq!(sys.stats().dram.poison_overwritten, 1);
        assert_eq!(sys.dram_ecc().expect("model on").outstanding(), 0);
        t = sys.force_checkpoint(t);
        t = sys.drain(t);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [7u8; 64], "overwrite persisted normally");
        assert_eq!(sys.stats().dram.quarantined_pages, 0);
    }

    #[test]
    fn crash_clears_outstanding_poison() {
        let mut sys = ThyNvm::new(dram_cfg());
        let t = promote_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let off = page0_block_off(&sys, 0);
        sys.dram_ecc_mut().expect("model on").poison_block(off);
        let report = sys.crash_and_recover(t);
        assert_eq!(sys.stats().dram.poison_cleared_by_crash, 1);
        assert_eq!(sys.dram_ecc().expect("model on").outstanding(), 0);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64], "DRAM poison never taints recovery");
    }

    #[test]
    fn poisoned_buffered_block_is_quarantined_not_drained() {
        // Block under block remapping, buffered in DRAM during an in-flight
        // checkpoint (§4.1), with poison landing on the buffer slot.
        let mut cfg = dram_cfg();
        cfg.thynvm.promote_threshold = 255; // stay under block remapping
        let mut sys = ThyNvm::new(cfg);
        let mut t = sys.store_bytes(PhysAddr::new(0), &[1u8; 64], Cycle::ZERO);
        t = sys.force_checkpoint(t);
        t = sys.drain(t);
        // Start a checkpoint and write the block mid-flight: DRAM-buffered.
        t = sys.store_bytes(PhysAddr::new(64), &[2u8; 64], t);
        t = sys.force_checkpoint(t);
        let during = sys.epoch_state().job.as_ref().map(|j| j.started).unwrap_or(t);
        let mut t2 = sys.store_bytes(PhysAddr::new(0), &[9u8; 64], during);
        // Reading it back now poisons the buffer slot: the dirty block is
        // dropped and rolls back to its checkpointed value.
        sys.dram_ecc_mut().expect("model on").arm_poison(1);
        let mut buf = [0u8; 64];
        t2 = sys.load_bytes(PhysAddr::new(0), &mut buf, t2);
        assert_eq!(buf, [1u8; 64], "buffered dirty block rolled back");
        let d = &sys.stats().dram;
        assert_eq!(d.poison_dropped, 1);
        assert_eq!(d.quarantine_dropped_bytes, BLOCK_BYTES);
        assert!(matches!(
            sys.take_poison_error(),
            Some(Error::DramPoisonLost { bytes: BLOCK_BYTES, .. })
        ));
        assert_eq!(sys.take_quarantine_events(), vec![(0, BLOCK_BYTES)]);
        // The rollback is durable across the checkpoint and a crash.
        t2 = sys.drain(t2);
        let report = sys.crash_and_recover(t2);
        sys.load_bytes(PhysAddr::new(0), &mut buf, t2 + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64]);
    }

    #[test]
    fn quarantined_page_repromotes_when_hot_again() {
        // Satellite: a quarantine-demoted page that turns write-dense again
        // re-enters page writeback via the §3.3 counters, and the visible
        // fingerprint is stable across the demote/re-promote round trip.
        let mut sys = ThyNvm::new(dram_cfg());
        let mut t = promote_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        t = sys.store_bytes(PhysAddr::new(0), &[9u8; 64], t);
        let off = page0_block_off(&sys, 0);
        sys.dram_ecc_mut().expect("model on").poison_block(off);
        t = sys.force_checkpoint(t);
        t = sys.drain(t);
        assert!(sys.ptt().get(PageIndex::new(0)).is_none(), "quarantine demoted");
        let fp = sys.visible_fingerprint();
        // Write-dense again, storing the bytes the page already holds so the
        // visible image is untouched by the re-promotion mechanics.
        for i in 0..22u64 {
            t = sys.store_bytes(PhysAddr::new(i * 64), &[1u8; 64], t);
        }
        assert!(
            sys.ptt().get(PageIndex::new(0)).is_some(),
            "hot page re-promoted after quarantine"
        );
        assert_eq!(sys.visible_fingerprint(), fp, "round trip preserved contents");
        // And the re-promoted page checkpoints normally.
        t = sys.force_checkpoint(t);
        t = sys.drain(t);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(buf, [1u8; 64]);
        assert_eq!(sys.stats().dram.quarantined_pages, 1, "no second quarantine");
    }

    // ---- secure persistent memory mode ----

    /// `small_test` with the security model enabled (and optional tweaks).
    fn secure_cfg(f: impl FnOnce(&mut thynvm_types::SecurityConfig)) -> SystemConfig {
        let mut cfg = SystemConfig::small_test();
        cfg.security = thynvm_types::SecurityConfig::hardened();
        f(&mut cfg.security);
        cfg.validate().expect("valid secure config");
        cfg
    }

    /// Asserts the SecurityStats conservation invariants (§ DESIGN 10).
    fn assert_security_conservation(sys: &ThyNvm) {
        let s = sys.stats().security;
        assert_eq!(s.classified_total(), s.tampers_detected, "classification conservation");
        assert_eq!(s.detections_accounted(), s.tampers_detected, "resolution conservation");
        // Media-caught detections come from media faults, not tampers, so
        // they sit on the "injected" side of the inequality.
        assert!(
            s.tampers_injected + s.classified_media >= s.tampers_detected,
            "cannot detect more than was injected"
        );
    }

    #[test]
    fn security_off_charges_nothing_and_exposes_no_model() {
        let mut sys = small();
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let report = sys.crash_and_recover(t);
        assert!(!report.unrecoverable);
        assert!(sys.security_model().is_none());
        assert!(!sys.stats().security.any(), "disabled mode records nothing");
        assert_eq!(sys.stats().security.crypto_cycles, Cycle::ZERO);
        assert!(sys.take_security_error().is_none());
    }

    #[test]
    fn secure_mode_preserves_contents_and_adds_crypto_cost() {
        // The same workload on the secure and baseline configs must agree
        // on *contents*; the secure run pays extra modeled cycles.
        let mut base = small();
        let mut sec = ThyNvm::new(secure_cfg(|_| {}));
        let tb = store_and_checkpoint(&mut base, 7, Cycle::ZERO);
        let ts = store_and_checkpoint(&mut sec, 7, Cycle::ZERO);
        assert_eq!(base.visible_fingerprint(), sec.visible_fingerprint());
        assert!(ts >= tb, "crypto + metadata persists never make a checkpoint faster");
        let s = sec.stats().security;
        assert!(s.blocks_encrypted > 0, "write path encrypted blocks");
        assert!(s.crypto_cycles > Cycle::ZERO);
        assert!(!base.stats().security.any());
    }

    #[test]
    fn checkpoint_persists_counters_tree_and_root() {
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let s = sys.stats().security;
        assert_eq!(s.counter_persists, 1, "dirty counters persisted once");
        assert!(s.counter_bytes > 0);
        assert!(s.tree_node_persists > 0, "ancestor tree nodes rewritten");
        assert!(s.tree_bytes > 0);
        assert_eq!(s.root_persists, 1, "root sealed with the commit record");
        let model = sys.security_model().expect("enabled");
        assert_eq!(model.dirty_count(), 0, "persist cleared the dirty set");
        assert_eq!(model.generation(), 1);
        // A quiet checkpoint still seals the root but persists no counters.
        let t2 = sys.force_checkpoint(t);
        sys.drain(t2);
        let s = sys.stats().security;
        assert_eq!(s.counter_persists, 1, "nothing dirty: no counter persist");
        assert_eq!(s.root_persists, 2, "root still sealed every round");
    }

    #[test]
    fn mid_epoch_crash_replays_lost_counters() {
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        // Dirty counters that never reached an epoch boundary…
        let t = sys.store_bytes(PhysAddr::new(128), &[2u8; 64], t);
        assert!(sys.security_model().expect("enabled").dirty_count() > 0);
        let report = sys.crash_and_recover(t);
        // …are re-derived by bounded replay, never guessed.
        assert!(sys.stats().security.counters_replayed > 0);
        assert_eq!(sys.security_model().expect("enabled").dirty_count(), 0);
        assert!(!report.integrity_fallback, "counter replay is not a fallback");
        assert_security_conservation(&sys);
    }

    #[test]
    fn tampered_clast_is_detected_and_falls_back_to_cpenult() {
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_tamper(TamperFault::ClastData { addr: 0 });
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback, "MAC mismatch degrades to C_penult");
        assert!(!report.unrecoverable);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64], "recovered to the authenticated image");
        let s = sys.stats().security;
        assert_eq!(s.tampers_injected, 1);
        assert_eq!(s.tampers_detected, 1);
        assert_eq!(s.classified_tamper, 1, "forged data is adversarial");
        assert_eq!(s.verify_fallbacks, 1);
        assert_eq!(s.unrecoverable, 0);
        assert!(report.steps.iter().any(|(st, _)| *st == RecoveryStep::VerifyMacs));
        assert_security_conservation(&sys);
    }

    #[test]
    fn stale_counter_table_is_classified_as_replay_attack() {
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_tamper(TamperFault::StaleCounterTable);
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback);
        let s = sys.stats().security;
        assert_eq!(s.classified_tamper, 1, "rolled-back counters = replay attack");
        assert_eq!(s.classified_torn, 0);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64]);
        assert_security_conservation(&sys);
    }

    #[test]
    fn torn_root_metadata_is_classified_as_torn_not_tamper() {
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_tamper(TamperFault::TornRootMeta);
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback);
        let s = sys.stats().security;
        assert_eq!(s.classified_torn, 1, "power loss mid-persist, not an attack");
        assert_eq!(s.classified_tamper, 0);
        assert_security_conservation(&sys);
    }

    #[test]
    fn both_images_tampered_is_unrecoverable_never_replayed() {
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_tamper(TamperFault::BothImages { addr: 0 });
        let report = sys.crash_and_recover(t);
        assert!(report.unrecoverable, "no authenticated image exists");
        assert!(matches!(
            sys.take_security_error(),
            Some(Error::IntegrityUnrecoverable { .. })
        ));
        let s = sys.stats().security;
        assert_eq!(s.unrecoverable, 1);
        assert_eq!(s.verify_fallbacks, 0);
        // Unauthenticated data is never replayed: the image is provably empty.
        let mut buf = [0xFFu8; 64];
        let t = sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [0u8; 64], "reset to the empty image");
        assert_security_conservation(&sys);
        // The system keeps working after the reset.
        let t = store_and_checkpoint(&mut sys, 9, t);
        let report = sys.crash_and_recover(t);
        assert!(!report.unrecoverable);
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [9u8; 64]);
    }

    #[test]
    fn crc_fallback_to_zero_checkpoints_still_authenticates_the_image() {
        // A torn commit record with exactly one completed checkpoint makes
        // the CRC step fall back to `C_penult` and land on zero completed
        // checkpoints. The fallback image is still cloned from persisted
        // bytes an attacker can forge, so MAC verification must run anyway
        // — skipping it would replay the forged penult unauthenticated.
        let mut cfg = SystemConfig::small_test();
        cfg.media = thynvm_types::MediaFaultConfig::hardened();
        cfg.security = thynvm_types::SecurityConfig::hardened();
        cfg.validate().expect("valid secure+media config");
        let mut sys = ThyNvm::new(cfg);
        let t = store_and_checkpoint(&mut sys, 7, Cycle::ZERO);
        sys.inject_media_fault(MediaFault::TornCommitRecord);
        sys.inject_tamper(TamperFault::BothImages { addr: 0 });
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback, "CRC step rejects the torn record");
        assert!(report.unrecoverable, "the forged fallback image fails its MAC");
        assert_eq!(sys.stats().media.integrity_fallbacks, 1);
        assert_eq!(sys.stats().security.unrecoverable, 1);
        let mut buf = [0xFFu8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [0u8; 64], "forged bytes never reach software");
        assert_security_conservation(&sys);
    }

    #[test]
    fn tamper_stays_armed_until_a_checkpoint_exists() {
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        sys.inject_tamper(TamperFault::ClastData { addr: 0 });
        // Nothing persisted yet: there is no image to forge.
        let report = sys.crash_and_recover(Cycle::new(100));
        assert!(!report.integrity_fallback);
        assert_eq!(sys.armed_tamper(), Some(TamperFault::ClastData { addr: 0 }));
        assert_eq!(sys.stats().security.tampers_injected, 0);
        // The first checkpoint gives the adversary a target.
        let t = store_and_checkpoint(&mut sys, 3, Cycle::new(200));
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback);
        assert_eq!(sys.armed_tamper(), None);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [0u8; 64], "fell back to the initial zero image");
        assert_security_conservation(&sys);
    }

    #[test]
    fn tamper_on_disabled_model_is_ignored() {
        let mut sys = small();
        sys.inject_tamper(TamperFault::ClastData { addr: 0 });
        assert_eq!(sys.armed_tamper(), None, "no model, nothing to arm");
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let report = sys.crash_and_recover(t);
        assert!(!report.integrity_fallback);
        assert!(!sys.stats().security.any());
    }

    #[test]
    fn mac_catches_media_corruption_when_crc_is_off() {
        // CRC layer disabled: the armed media fault would be silent, but
        // secure mode's MAC catches it and classifies it as media.
        let mut cfg = secure_cfg(|_| {});
        cfg.media = thynvm_types::MediaFaultConfig::hardened();
        cfg.media.integrity = false;
        cfg.media.scrub = false; // the scrubber needs CRCs
        cfg.validate().expect("valid");
        let mut sys = ThyNvm::new(cfg);
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_media_fault(MediaFault::TornCommitRecord);
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback, "MAC stood in for the missing CRC");
        let s = sys.stats().security;
        assert_eq!(s.classified_media, 1);
        assert_eq!(s.classified_tamper, 0);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64]);
        assert_security_conservation(&sys);
    }

    #[test]
    fn nested_crash_during_tamper_recovery_converges() {
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_tamper(TamperFault::ClastData { addr: 0 });
        sys.arm_crash_point(t);
        // Interrupt the first recovery attempt one cycle in: the attempt
        // restarts and must converge on the same verdict without double
        // counting the detection.
        sys.queue_crash_point(t + Cycle::new(1));
        let resume = sys.poll_crash(t + Cycle::new(2)).expect("crash fires");
        let crash = sys.take_crash_report().expect("reported");
        assert!(crash.report.nested_crashes >= 1);
        assert!(crash.report.integrity_fallback);
        let s = sys.stats().security;
        assert_eq!(s.tampers_detected, 1, "detection counted exactly once");
        assert_eq!(s.verify_fallbacks, 1);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, resume);
        assert_eq!(buf, [1u8; 64]);
        assert_security_conservation(&sys);
    }

    #[test]
    fn random_tamper_schedule_is_deterministic_and_recoverable() {
        let run = |seed: u64| {
            let mut sys = ThyNvm::new(secure_cfg(|s| {
                s.tamper_rate = 1.0;
                s.seed = seed;
            }));
            let mut t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
            for v in 2..6u8 {
                t = store_and_checkpoint(&mut sys, v, t);
                let report = sys.crash_and_recover(t);
                assert!(!report.unrecoverable, "random schedule never draws BothImages");
                t += report.recovery_cycles;
            }
            assert_security_conservation(&sys);
            (sys.stats().security, sys.visible_fingerprint())
        };
        let (s, fp) = run(0xDEAD_BEEF);
        assert!(s.tampers_injected >= 4, "rate 1.0 tampers every eligible crash");
        assert_eq!(s.tampers_detected, s.tampers_injected, "zero silent tampers");
        let (s2, fp2) = run(0xDEAD_BEEF);
        assert_eq!(s, s2, "same seed, same schedule, same stats");
        assert_eq!(fp, fp2);
    }

    #[test]
    fn sanctioned_rollback_does_not_trip_the_mac() {
        // rollback_to_checkpoint re-authenticates the archived image so a
        // later crash does not misread the rollback as tampering.
        let mut sys = ThyNvm::new(secure_cfg(|_| {}));
        sys.set_archive_depth(4);
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        let archived = sys.archived_checkpoints();
        let _ = sys.rollback_to_checkpoint(archived[0], t).expect("archived epoch");
        let report = sys.crash_and_recover(t);
        assert!(!report.integrity_fallback, "rollback is not a MAC mismatch");
        assert_eq!(sys.stats().security.tampers_detected, 0);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [1u8; 64]);
    }

    // ------------------------------------------------------------------
    // Graceful-degradation health ladder
    // ------------------------------------------------------------------

    /// `small_test` with the health ladder enabled (and optional tweaks to
    /// the whole config, so tests can co-enable fault domains).
    fn health_cfg(f: impl FnOnce(&mut SystemConfig)) -> SystemConfig {
        let mut cfg = SystemConfig::small_test();
        cfg.health = thynvm_types::HealthConfig::hardened();
        f(&mut cfg);
        cfg.validate().expect("valid health config");
        cfg
    }

    /// Asserts the HealthStats / RetryStats conservation invariants.
    fn assert_health_conservation(sys: &ThyNvm) {
        let s = sys.stats();
        assert!(s.health.promotions <= s.health.demotions, "ladder ledger");
        assert_eq!(
            s.retry.media_attempts + s.retry.recovery_attempts,
            s.media.retries,
            "every media retry is a policy-issued attempt"
        );
        assert_eq!(s.retry.dram_attempts, s.dram.refetch_retries, "DRAM retry conservation");
    }

    #[test]
    fn health_off_exposes_no_monitor_and_records_nothing() {
        let mut sys = small();
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let report = sys.crash_and_recover(t);
        assert!(!report.unrecoverable);
        assert!(sys.health_monitor().is_none());
        assert_eq!(sys.health_rung(), HealthRung::Healthy);
        assert_eq!(sys.stats().health, thynvm_types::HealthStats::default());
        assert!(sys.take_health_error().is_none());
    }

    #[test]
    fn quiet_health_run_is_content_identical_and_persists_healthy() {
        let mut base = small();
        let mut sys = ThyNvm::new(health_cfg(|_| {}));
        let tb = store_and_checkpoint(&mut base, 7, Cycle::ZERO);
        let th = store_and_checkpoint(&mut sys, 7, Cycle::ZERO);
        assert_eq!(base.visible_fingerprint(), sys.visible_fingerprint());
        assert!(th >= tb, "the 64 B rung persist never speeds a checkpoint up");
        let h = sys.stats().health;
        assert_eq!(h.rung_persists, 1, "rung persisted with the commit record");
        assert_eq!(h.evaluations, 1, "one evaluation per retired epoch");
        assert_eq!(h.demotions, 0);
        assert_eq!(sys.clast_health_rung(), HealthRung::Healthy);
        assert_health_conservation(&sys);
    }

    #[test]
    fn retry_storm_wounds_the_ladder_and_arms_emergency_checkpoints() {
        let mut sys = ThyNvm::new(health_cfg(|c| {
            c.media = thynvm_types::MediaFaultConfig::hardened();
            c.media.stuck_at_threshold = 2;
            c.media.scrub = false;
            c.health.wounded_retry_rate = 1;
        }));
        // Wear out a row, then read through it: three bounded CRC retries.
        let t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], Cycle::ZERO);
        let t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], t);
        let mut buf = [0u8; 64];
        let t = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        assert_eq!(sys.stats().media.retries, 3);
        // The retirement-time evaluation sees the retry burst and wounds.
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        assert_eq!(sys.health_rung(), HealthRung::Wounded);
        assert_eq!(sys.stats().health.demotions, 1);
        // Wounded shortens the epoch deadline by `emergency_divisor`: with
        // a 1 ms epoch and divisor 4, dirty data makes a checkpoint due at
        // a quarter of the regular deadline.
        let t = sys.store_bytes(PhysAddr::new(4096), &[1u8; 64], t);
        let early = t + Cycle::from_ns(300_000);
        assert!(sys.checkpoint_due(early), "emergency deadline fires early");
        let _ = sys.begin_checkpoint(early, &[]);
        assert_eq!(sys.stats().health.emergency_checkpoints, 1);
        assert_health_conservation(&sys);
    }

    #[test]
    fn rung_persists_with_commit_record_and_rehydrates_after_crash() {
        let mut sys = ThyNvm::new(health_cfg(|c| {
            c.media = thynvm_types::MediaFaultConfig::hardened();
            c.media.stuck_at_threshold = 2;
            c.media.scrub = false;
            c.health.wounded_retry_rate = 1;
        }));
        let t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], Cycle::ZERO);
        let t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], t);
        let mut buf = [0u8; 64];
        let t = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        assert_eq!(sys.health_rung(), HealthRung::Wounded);
        // The wound postdates the first commit record: `C_last` still
        // carries Healthy, so a crash here rehydrates Healthy.
        assert_eq!(sys.clast_health_rung(), HealthRung::Healthy);
        // The *next* checkpoint persists the Wounded rung…
        let t = sys.store_bytes(PhysAddr::new(4096), &[2u8; 64], t);
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        assert_eq!(sys.clast_health_rung(), HealthRung::Wounded);
        // …and recovery rehydrates it from durable state.
        let report = sys.crash_and_recover(t);
        assert!(!report.unrecoverable);
        assert_eq!(sys.health_rung(), HealthRung::Wounded);
        assert_eq!(sys.stats().health.rehydrations, 1);
        assert_health_conservation(&sys);
    }

    #[test]
    fn spare_exhaustion_escalates_to_readonly_with_bounded_read_latency() {
        // Satellite: MediaStats::spare_exhausted feeds the ladder, and a
        // drained spare pool keeps per-read latency inside the
        // RetryPolicy bound.
        let mut sys = ThyNvm::new(health_cfg(|c| {
            c.media = thynvm_types::MediaFaultConfig::hardened();
            c.media.stuck_at_threshold = 2;
            c.media.scrub = false;
            c.media.spare_blocks = 1;
        }));
        let mut t = Cycle::ZERO;
        for addr in [0u64, 16 * PAGE_BYTES] {
            t = sys.store_bytes(PhysAddr::new(addr), &[0xAB; 64], t);
            t = sys.store_bytes(PhysAddr::new(addr), &[0xAB; 64], t);
        }
        // A healthy block for the latency baseline.
        t = sys.store_bytes(PhysAddr::new(4096), &[3u8; 64], t);
        let mut buf = [0u8; 64];
        t = sys.load_bytes(PhysAddr::new(0), &mut buf, t); // consumes the spare
        t = sys.load_bytes(PhysAddr::new(16 * PAGE_BYTES), &mut buf, t); // refused remap
        assert!(sys.stats().media.spare_exhausted >= 1);
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        // The refused remap is an exhaustion *event*: straight to ReadOnly.
        assert_eq!(sys.health_rung(), HealthRung::ReadOnly);
        // New stores are rejected — silently on the raw path, with
        // `Error::Degraded` on the fallible one — and nothing mutates.
        let before = sys.visible_fingerprint();
        let t2 = sys.store_bytes(PhysAddr::new(8192), &[9u8; 64], t);
        assert_eq!(sys.visible_fingerprint(), before, "rejected store must not mutate");
        let err = sys.try_store_bytes(PhysAddr::new(8192), &[9u8; 64], t2).unwrap_err();
        assert!(matches!(err, Error::Degraded { rung: HealthRung::ReadOnly }), "got {err:?}");
        assert!(sys.stats().health.stores_rejected >= 2);
        // Loads still serve CRC-verified data, inside the retry bound.
        let clean_start = t2;
        let clean_end = sys.load_bytes(PhysAddr::new(4096), &mut buf, clean_start);
        assert_eq!(buf, [3u8; 64]);
        let clean_dt = clean_end.raw() - clean_start.raw();
        let bad_end = sys.load_bytes(PhysAddr::new(16 * PAGE_BYTES), &mut buf, clean_end);
        assert_eq!(buf, [0xAB; 64], "degraded reads still serve correct data");
        let bad_dt = bad_end.raw() - clean_end.raw();
        let policy = sys.media_retry_policy();
        assert!(
            bad_dt <= clean_dt * u64::from(policy.max_attempts() + 1) + policy.total_backoff().raw(),
            "per-read latency exceeds the RetryPolicy bound: {bad_dt} vs clean {clean_dt}"
        );
        assert_health_conservation(&sys);
    }

    #[test]
    fn scrubber_with_nothing_left_to_heal_defers_without_spinning() {
        // Satellite: the scrub "nothing left to heal" branch — spares gone,
        // the scrubber stops repairing, reads keep retrying.
        let mut sys = ThyNvm::new(health_cfg(|c| {
            c.media = thynvm_types::MediaFaultConfig::hardened();
            c.media.stuck_at_threshold = 2;
            c.media.spare_blocks = 1;
            c.health.readonly_scrub_backlog = 1;
        }));
        let mut t = Cycle::ZERO;
        for addr in [0u64, 16 * PAGE_BYTES] {
            t = sys.store_bytes(PhysAddr::new(addr), &[0xCD; 64], t);
            t = sys.store_bytes(PhysAddr::new(addr), &[0xCD; 64], t);
        }
        assert_eq!(sys.stats().media.stuck_faults, 2);
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        // The scrubber healed one block, then hit the empty pool.
        assert_eq!(sys.stats().media.scrub_repairs, 1);
        assert!(sys.spares_exhausted());
        // Exhausted pool + standing backlog pins the ladder at ReadOnly.
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        assert_eq!(sys.stats().media.scrub_repairs, 1, "nothing left to heal: no new repairs");
        assert_eq!(sys.health_rung(), HealthRung::ReadOnly);
        // The unhealed block is still served, by retrying every read.
        let retries_before = sys.stats().media.retries;
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(16 * PAGE_BYTES), &mut buf, t);
        assert_eq!(buf, [0xCD; 64]);
        assert!(sys.stats().media.retries > retries_before, "unremappable reads keep retrying");
        assert_health_conservation(&sys);
    }

    #[test]
    fn wal_redos_during_recovery_escalate_to_readonly() {
        // Satellite: WAL-redo accounting feeds the ladder. A nested crash
        // tears the fallback's WAL seal; the redo crosses the (lowered)
        // threshold and recovery lands at ReadOnly.
        let probe_cfg = || {
            health_cfg(|c| {
                c.media = thynvm_types::MediaFaultConfig::hardened();
                c.health.readonly_wal_redos = 1;
            })
        };
        let mut probe = ThyNvm::new(probe_cfg());
        let mut trial = ThyNvm::new(probe_cfg());
        let tp = store_and_checkpoint(&mut probe, 1, Cycle::ZERO);
        let tp = store_and_checkpoint(&mut probe, 2, tp);
        let tt = store_and_checkpoint(&mut trial, 1, Cycle::ZERO);
        let tt = store_and_checkpoint(&mut trial, 2, tt);
        probe.inject_media_fault(MediaFault::TornCommitRecord);
        probe.arm_crash_point(tp);
        probe.poll_crash(tp + Cycle::new(1)).expect("probe crash");
        let probe_report = probe.take_crash_report().expect("probe").report;
        assert_eq!(probe.stats().media.wal_redos, 0, "clean fallback needs no redo");
        assert_eq!(probe.health_rung(), HealthRung::Healthy, "no redo, no escalation");
        let fallback_end = probe_report
            .steps
            .iter()
            .find(|&&(s, _)| s == RecoveryStep::IntegrityFallback)
            .map(|&(_, end)| end)
            .expect("probe recovery ran the fallback step");
        trial.inject_media_fault(MediaFault::TornCommitRecord);
        trial.arm_crash_point(tt);
        trial.queue_crash_point(fallback_end.saturating_sub(Cycle::new(1)));
        trial.poll_crash(tt + Cycle::new(1)).expect("trial crash");
        assert!(trial.stats().media.wal_redos >= 1);
        assert_eq!(trial.health_rung(), HealthRung::ReadOnly);
        assert!(trial.stats().health.rehydrations >= 1);
        assert_health_conservation(&trial);
    }

    #[test]
    fn tamper_detection_rehydrates_to_failsafe_and_sticks() {
        let mut sys = ThyNvm::new(health_cfg(|c| {
            c.security = thynvm_types::SecurityConfig::hardened();
        }));
        let t = store_and_checkpoint(&mut sys, 1, Cycle::ZERO);
        let t = store_and_checkpoint(&mut sys, 2, t);
        sys.inject_tamper(TamperFault::ClastData { addr: 0 });
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback, "tamper detected, image fell back");
        assert_eq!(sys.stats().security.tampers_detected, 1);
        // Detected tampering overrides the persisted rung: FailSafe.
        assert_eq!(sys.health_rung(), HealthRung::FailSafe);
        // FailSafe refuses new stores…
        let err = sys
            .try_store_bytes(PhysAddr::new(4096), &[9u8; 64], t + report.recovery_cycles)
            .unwrap_err();
        assert!(matches!(err, Error::Degraded { rung: HealthRung::FailSafe }), "got {err:?}");
        // …and never promotes, no matter how many clean epochs follow.
        let mut t = t + report.recovery_cycles;
        for _ in 0..8 {
            t = sys.force_checkpoint(t);
            t = sys.drain(t);
        }
        assert_eq!(sys.health_rung(), HealthRung::FailSafe);
        assert_eq!(sys.clast_health_rung(), HealthRung::FailSafe, "override is durable");
        // A both-images tamper now resets both images but keeps the durable
        // rung: FailSafe already outranks nothing, so no override persists.
        sys.inject_tamper(TamperFault::BothImages { addr: 0 });
        let persists = sys.stats().health.rung_persists;
        let report = sys.crash_and_recover(t);
        assert!(report.unrecoverable, "no authenticated image exists");
        assert_eq!(sys.stats().health.rung_persists, persists, "no second override");
        assert_eq!(sys.clast_health_rung(), HealthRung::FailSafe);
        assert_eq!(sys.health_rung(), HealthRung::FailSafe);
        assert_health_conservation(&sys);
    }

    /// Health + secure + media config whose first checkpoint persists
    /// `Healthy` and whose second persists `Wounded` over a different image,
    /// so `C_penult` and `C_last` differ in image, MAC and rung. Returns the
    /// system, the cycle, and `C_penult`'s `(MAC, rung)`.
    fn distinct_penult_and_last() -> (ThyNvm, Cycle, (u64, HealthRung)) {
        let mut sys = ThyNvm::new(health_cfg(|c| {
            c.media = thynvm_types::MediaFaultConfig::hardened();
            c.media.stuck_at_threshold = 2;
            c.media.scrub = false;
            c.health.wounded_retry_rate = 1;
            c.security = thynvm_types::SecurityConfig::hardened();
        }));
        let t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], Cycle::ZERO);
        let t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], t);
        let mut buf = [0u8; 64];
        let t = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        let penult = (sys.clast_mac(), sys.clast_health_rung());
        let t = sys.store_bytes(PhysAddr::new(4096), &[2u8; 64], t);
        let t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        assert_eq!(penult.1, HealthRung::Healthy);
        assert_eq!(sys.clast_health_rung(), HealthRung::Wounded);
        assert_ne!(sys.clast_mac(), penult.0, "the images differ");
        (sys, t, penult)
    }

    #[test]
    fn single_image_fallbacks_restore_the_penult_mac_and_rung() {
        // CRC fallback: nothing overrides the restored record, so `C_last`
        // now carries exactly the MAC and rung `C_penult` was durable with.
        let (mut sys, t, penult) = distinct_penult_and_last();
        sys.inject_media_fault(MediaFault::TornCommitRecord);
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback && !report.unrecoverable);
        assert_eq!(sys.stats().security.tampers_detected, 0);
        assert_eq!((sys.clast_mac(), sys.clast_health_rung()), penult);
        assert_eq!(sys.health_rung(), HealthRung::Healthy, "rehydrated from C_penult");

        // Tamper fallback: the MAC is `C_penult`'s too; the detection then
        // escalates the restored `Healthy` rung to FailSafe with exactly one
        // override persist.
        let (mut sys, t, penult) = distinct_penult_and_last();
        sys.inject_tamper(TamperFault::ClastData { addr: 0 });
        let persists = sys.stats().health.rung_persists;
        let report = sys.crash_and_recover(t);
        assert!(report.integrity_fallback && !report.unrecoverable);
        assert_eq!(sys.stats().security.verify_fallbacks, 1);
        assert_eq!(sys.clast_mac(), penult.0);
        assert_eq!(sys.stats().health.rung_persists, persists + 1, "override of C_penult's rung");
        assert_eq!(sys.clast_health_rung(), HealthRung::FailSafe);
        assert_health_conservation(&sys);
    }

    #[test]
    fn readonly_completes_the_inflight_checkpoint() {
        // A rung demotion mid-flight must not abort the checkpoint that is
        // already persisting: the job retires and its image is durable.
        let mut sys = ThyNvm::new(health_cfg(|c| {
            c.media = thynvm_types::MediaFaultConfig::hardened();
            c.media.stuck_at_threshold = 2;
            c.media.scrub = false;
            c.media.spare_blocks = 1;
        }));
        let mut t = Cycle::ZERO;
        for addr in [0u64, 16 * PAGE_BYTES] {
            t = sys.store_bytes(PhysAddr::new(addr), &[0xEE; 64], t);
            t = sys.store_bytes(PhysAddr::new(addr), &[0xEE; 64], t);
        }
        let mut buf = [0u8; 64];
        t = sys.load_bytes(PhysAddr::new(0), &mut buf, t);
        t = sys.load_bytes(PhysAddr::new(16 * PAGE_BYTES), &mut buf, t);
        let resume = sys.force_checkpoint(t);
        assert!(sys.epoch_state().job_running(resume), "checkpoint in flight");
        let t = sys.drain(resume);
        assert_eq!(sys.health_rung(), HealthRung::ReadOnly);
        assert_eq!(sys.epoch_state().completed, 1, "in-flight checkpoint completed");
        // The committed image survives a crash under the degraded rung.
        let report = sys.crash_and_recover(t);
        assert!(!report.unrecoverable);
        sys.load_bytes(PhysAddr::new(0), &mut buf, t + report.recovery_cycles);
        assert_eq!(buf, [0xEE; 64]);
        assert_health_conservation(&sys);
    }

    // ---- volatile persist buffer (WPQ fault domain) ----

    fn wpq_cfg(salvage_rate: f64) -> SystemConfig {
        let mut c = SystemConfig::small_test();
        c.wpq = thynvm_types::PersistBufferConfig::armed();
        c.wpq.salvage_rate = salvage_rate;
        c
    }

    fn assert_wpq_conservation(sys: &ThyNvm) {
        let w = &sys.stats().wpq;
        assert_eq!(
            w.enqueued,
            w.drained + w.dropped_at_crash + w.outstanding(),
            "WPQ ledger must conserve: {w:?}"
        );
    }

    #[test]
    fn wpq_off_leaves_no_trace() {
        let mut sys = small();
        let mut t = write64(&mut sys, 0, 0);
        t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        let _ = sys.crash_and_recover(t);
        assert!(!sys.stats().wpq.any(), "disabled buffer must not count anything");
        assert!(sys.persist_buffer().is_none());
        assert!(sys.last_wpq_flush().is_none());
        assert!(sys.take_ordering_error().is_none());
    }

    #[test]
    fn wpq_fences_and_ledger_conserve_through_checkpoints() {
        let mut sys = ThyNvm::new(wpq_cfg(0.5));
        let mut t = Cycle::ZERO;
        for i in 0..8u64 {
            t = sys.store_bytes(PhysAddr::new(i * 64), &[i as u8; 64], t);
        }
        t = sys.force_checkpoint(t);
        let t = sys.drain(t);
        let w = sys.stats().wpq;
        assert!(w.enqueued > 0, "checkpoint traffic must pass through the buffer");
        // One fence before the metadata, one before the commit record.
        assert!(w.fences >= 2, "both §4.4 ordering points must fence: {w:?}");
        assert_wpq_conservation(&sys);
        // Quiescent after the drain: only the commit marker may still be
        // lazily pending (its retire is the job completion cycle).
        assert!(sys.persist_buffer().expect("armed").outstanding_at(t) <= 1);
        assert!(sys.take_ordering_error().is_none(), "fenced rounds audit clean");
    }

    #[test]
    fn unfenced_commit_is_audited_and_surfaced() {
        let mut sys = ThyNvm::new(wpq_cfg(0.5));
        let t = sys.store_bytes(PhysAddr::new(0), &[7u8; 64], Cycle::ZERO);
        sys.skip_next_fence();
        let t = sys.force_checkpoint(t);
        sys.drain(t);
        let err = sys.take_ordering_error().expect("audit must fire with fences skipped");
        assert!(
            matches!(err, Error::UnfencedCommit { pending, .. } if pending > 0),
            "got {err:?}"
        );
        assert!(err.to_string().contains("unfenced"));
        // Taken once: the violation does not linger.
        assert!(sys.take_ordering_error().is_none());
    }

    #[test]
    fn crash_salvage_commits_the_inflight_checkpoint_early() {
        let mut sys = ThyNvm::new(wpq_cfg(1.0));
        let t = sys.store_bytes(PhysAddr::new(0), &[0xAB; 64], Cycle::ZERO);
        let resume = sys.force_checkpoint(t);
        let done = sys.epoch_state().job.as_ref().expect("job in flight").done_at;
        assert!(sys.epoch_state().job_running(resume));
        // Crash inside the commit-record persist window: the marker was
        // issued but had not retired. Salvage rate 1.0 flushes it.
        let report = sys.crash_and_recover(done - Cycle::new(1));
        let flush = sys.last_wpq_flush().expect("armed buffer records the flush");
        assert!(flush.marker_salvaged && flush.commit_salvaged(), "got {flush:?}");
        assert!(!report.rolled_back_incomplete, "checkpoint committed early");
        assert_eq!(sys.epoch_state().completed, 1);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, done + report.recovery_cycles);
        assert_eq!(buf, [0xAB; 64], "early-committed data must be durable");
        assert_wpq_conservation(&sys);
    }

    #[test]
    fn crash_without_salvage_rolls_back_as_before() {
        let mut sys = ThyNvm::new(wpq_cfg(0.0));
        let t = sys.store_bytes(PhysAddr::new(0), &[0xAB; 64], Cycle::ZERO);
        let resume = sys.force_checkpoint(t);
        let done = sys.epoch_state().job.as_ref().expect("job in flight").done_at;
        assert!(sys.epoch_state().job_running(resume));
        let report = sys.crash_and_recover(done - Cycle::new(1));
        let flush = sys.last_wpq_flush().expect("armed buffer records the flush");
        assert!(flush.marker_dropped && !flush.commit_salvaged(), "got {flush:?}");
        assert!(report.rolled_back_incomplete, "no salvage: §4.5 rollback");
        assert_eq!(sys.epoch_state().completed, 0);
        let mut buf = [0u8; 64];
        sys.load_bytes(PhysAddr::new(0), &mut buf, done + report.recovery_cycles);
        assert_eq!(buf, [0u8; 64], "the in-flight epoch's data is lost");
        assert_wpq_conservation(&sys);
    }

    #[test]
    fn crash_before_the_marker_was_issued_never_salvages() {
        // Even at salvage rate 1.0, a crash before the commit record's
        // write was *issued* unwinds the marker: residual energy cannot
        // flush a write that never reached the queue.
        let mut sys = ThyNvm::new(wpq_cfg(1.0));
        let t = sys.store_bytes(PhysAddr::new(0), &[0xCD; 64], Cycle::ZERO);
        let _ = sys.force_checkpoint(t);
        let started = sys.epoch_state().job.as_ref().expect("job in flight").started;
        let report = sys.crash_and_recover(started + Cycle::new(1));
        let flush = sys.last_wpq_flush().expect("armed buffer records the flush");
        assert!(flush.marker_dropped && !flush.commit_salvaged(), "got {flush:?}");
        assert!(report.rolled_back_incomplete);
        assert_wpq_conservation(&sys);
    }

    // ---- the NVM write-kind table ----

    /// Counters one NVM write may move: recorded bytes per traffic class,
    /// device bytes, CRC blocks, encrypted blocks, wear-model row writes,
    /// dirty encryption counters, persist-buffer entries and held data.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct WriteLedger {
        cpu: u64,
        ckpt: u64,
        migration: u64,
        device: u64,
        crc_blocks: u64,
        encrypted: u64,
        wear: u64,
        counters: u64,
        enqueued: u64,
        held: u64,
    }

    impl WriteLedger {
        fn of(sys: &ThyNvm) -> Self {
            let s = sys.stats();
            Self {
                cpu: s.nvm_write_bytes_cpu,
                ckpt: s.nvm_write_bytes_ckpt,
                migration: s.nvm_write_bytes_migration,
                device: sys.nvm_device().stats().write_bytes,
                crc_blocks: s.media.crc_checked_blocks,
                encrypted: s.security.blocks_encrypted,
                wear: sys.fault_model().map_or(0, |f| f.wear().total_writes),
                counters: sys.security_model().map_or(0, |m| m.dirty_count() as u64),
                enqueued: s.wpq.enqueued,
                held: sys.persist_buffer().map_or(0, |p| p.held_data() as u64),
            }
        }

        fn since(self, before: Self) -> Self {
            Self {
                cpu: self.cpu - before.cpu,
                ckpt: self.ckpt - before.ckpt,
                migration: self.migration - before.migration,
                device: self.device - before.device,
                crc_blocks: self.crc_blocks - before.crc_blocks,
                encrypted: self.encrypted - before.encrypted,
                wear: self.wear - before.wear,
                counters: self.counters - before.counters,
                enqueued: self.enqueued - before.enqueued,
                held: self.held - before.held,
            }
        }
    }

    #[test]
    fn write_kind_table_moves_exactly_its_counters() {
        // Every fault domain on, every fault rate zero. A stuck-at
        // threshold no write reaches turns on wear counting only.
        let mut cfg = SystemConfig::hardened();
        cfg.wpq = thynvm_types::PersistBufferConfig::armed();
        cfg.media.stuck_at_threshold = u64::MAX;
        let mut sys = ThyNvm::new(cfg);
        let zero = WriteLedger {
            cpu: 0,
            ckpt: 0,
            migration: 0,
            device: 0,
            crc_blocks: 0,
            encrypted: 0,
            wear: 0,
            counters: 0,
            enqueued: 0,
            held: 0,
        };
        #[rustfmt::skip]
        let table = [
            // Data: wear + encryption on every touched block; only
            // checkpoint writebacks carry CRCs; migrations bypass the buffer.
            (Write::Store { bytes: 64, class: NvmWriteClass::Cpu },
             WriteLedger { cpu: 64, device: 64, encrypted: 1, wear: 1, counters: 1, enqueued: 1, held: 1, ..zero }),
            (Write::Store { bytes: 64, class: NvmWriteClass::Checkpoint },
             WriteLedger { ckpt: 64, device: 64, encrypted: 1, wear: 1, counters: 1, enqueued: 1, held: 1, ..zero }),
            (Write::Working { bytes: 64 },
             WriteLedger { cpu: 64, device: 64, ..zero }),
            (Write::Writeback { bytes: PAGE_BYTES },
             WriteLedger { ckpt: 4096, device: 4096, crc_blocks: 64, encrypted: 64, wear: 1, counters: 64, enqueued: 1, held: 1, ..zero }),
            (Write::Migration { bytes: PAGE_BYTES },
             WriteLedger { migration: 4096, device: 4096, encrypted: 64, wear: 1, counters: 64, ..zero }),
            (Write::RemapPayload,
             WriteLedger { migration: 64, device: 64, encrypted: 1, wear: 1, counters: 1, enqueued: 1, held: 1, ..zero }),
            // WAL records: CRC-sealed, no wear or encryption.
            (Write::Wal,
             WriteLedger { migration: 64, device: 64, crc_blocks: 1, enqueued: 1, held: 1, ..zero }),
            (Write::WalUnbuffered,
             WriteLedger { migration: 64, device: 64, crc_blocks: 1, ..zero }),
            // Metadata: at least one 64 B burst on the device; CRC over the
            // recorded bytes for BTT/PTT/health, none for security tables.
            (Write::Metadata { bytes: 8 },
             WriteLedger { ckpt: 8, device: 64, crc_blocks: 1, enqueued: 1, held: 1, ..zero }),
            (Write::Metadata { bytes: 200 },
             WriteLedger { ckpt: 200, device: 200, crc_blocks: 4, enqueued: 1, held: 1, ..zero }),
            (Write::SecurityTable { bytes: 200 },
             WriteLedger { ckpt: 200, device: 200, enqueued: 1, held: 1, ..zero }),
            (Write::SecurityRoot,
             WriteLedger { ckpt: 64, device: 64, encrypted: 1, enqueued: 1, held: 1, ..zero }),
            // The commit record: 64 B on the device, 1 B in the ledger, a
            // checksummed commit marker that holds no data entry.
            (Write::CommitRecord,
             WriteLedger { ckpt: 1, device: 64, crc_blocks: 1, enqueued: 1, ..zero }),
        ];
        let mut t = Cycle::ZERO;
        for (i, (kind, want)) in table.into_iter().enumerate() {
            // One fresh row per write, and a drained buffer so the commit
            // marker's ordering audit sees a correctly fenced persist.
            t = sys.on_ordering_point(t);
            let hw = HwAddr::new((i as u64 + 1) << 20);
            let before = WriteLedger::of(&sys);
            let (done, resume) = sys.on_write(hw, kind, t);
            assert_eq!(WriteLedger::of(&sys).since(before), want, "{kind:?}");
            assert!(done > t && resume >= t, "{kind:?}");
            t = done;
        }
        assert!(sys.take_ordering_error().is_none(), "every marker was fenced");

        // A commit record pushed over held data is the §4.4 violation the
        // marker audits.
        let (t, _) = sys.on_write(HwAddr::new(1 << 30), Write::Wal, t);
        let _ = sys.on_write(HwAddr::new(1 << 31), Write::CommitRecord, t);
        assert!(matches!(sys.take_ordering_error(), Some(Error::UnfencedCommit { pending: 1, .. })));
    }

    /// The read-side ledger `read_paths_move_exactly_their_counters`
    /// follows: device reads, CRC-checked blocks, the two media retry
    /// ledgers, crypto work, remaps, and whether a media error was kept.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct ReadLedger {
        reads: u64,
        crc_blocks: u64,
        media_attempts: u64,
        recovery_attempts: u64,
        crypto: Cycle,
        remaps: usize,
        media_errors: u64,
    }

    impl ReadLedger {
        /// Samples `sys`, taking its media error.
        fn of(sys: &mut ThyNvm) -> Self {
            let media_errors = u64::from(sys.take_media_error().is_some());
            let s = sys.stats();
            Self {
                reads: s.nvm_reads,
                crc_blocks: s.media.crc_checked_blocks,
                media_attempts: s.retry.media_attempts,
                recovery_attempts: s.retry.recovery_attempts,
                crypto: s.security.crypto_cycles,
                remaps: sys.bad_block_remaps(),
                media_errors,
            }
        }

        fn since(self, before: Self) -> Self {
            Self {
                reads: self.reads - before.reads,
                crc_blocks: self.crc_blocks - before.crc_blocks,
                media_attempts: self.media_attempts - before.media_attempts,
                recovery_attempts: self.recovery_attempts - before.recovery_attempts,
                crypto: self.crypto - before.crypto,
                remaps: self.remaps - before.remaps,
                media_errors: self.media_errors - before.media_errors,
            }
        }
    }

    #[test]
    fn read_paths_move_exactly_their_counters() {
        // Media integrity and secure mode on, no ambient fault: each run
        // below differs from its fault-free twin only by an armed fault,
        // so the difference between their ledgers is exactly what the
        // read path did about it.
        let mut cfg = SystemConfig::small_test();
        cfg.media = thynvm_types::MediaFaultConfig::hardened();
        cfg.security = thynvm_types::SecurityConfig::hardened();
        let retries = u64::from(cfg.media.max_read_retries);
        let crypto_block = Cycle::from_ns(cfg.security.crypto_ns_per_block + cfg.security.mac_ns_per_block);
        let zero = ReadLedger {
            reads: 0,
            crc_blocks: 0,
            media_attempts: 0,
            recovery_attempts: 0,
            crypto: Cycle::ZERO,
            remaps: 0,
            media_errors: 0,
        };
        // One committed 64 B block, served from its NVM checkpoint copy.
        let committed = |cfg: SystemConfig| {
            let mut sys = ThyNvm::new(cfg);
            let t = sys.store_bytes(PhysAddr::new(0), &[7; 64], Cycle::ZERO);
            let t = sys.force_checkpoint(t);
            let t = sys.drain(t);
            (sys, t)
        };
        // A remap writes a CRC-sealed WAL intent and seal (two CRC blocks)
        // and one encrypted 64 B payload.
        let remap = ReadLedger { crc_blocks: 2, crypto: crypto_block, remaps: 1, ..zero };

        // Load path: every retry is charged to the media ledger; a block
        // that keeps failing is remapped and its error kept.
        let load = |flips: u32| {
            let (mut sys, t) = committed(cfg);
            if let Some(f) = sys.fault_model_mut() {
                f.arm_transient_flips(flips);
            }
            sys.load_bytes(PhysAddr::new(0), &mut [0; 64], t);
            ReadLedger::of(&mut sys)
        };
        let clean = load(0);
        assert_eq!(
            load(1).since(clean),
            ReadLedger { reads: 1, crc_blocks: 1, media_attempts: 1, ..zero },
            "a transient heals on the first retry"
        );
        assert_eq!(
            load(1 + retries as u32).since(clean),
            ReadLedger {
                reads: retries,
                crc_blocks: retries + remap.crc_blocks,
                media_attempts: retries,
                media_errors: 1,
                ..remap
            },
            "exhausted retries remap the block and keep the error"
        );

        // Recovery path: the first recovery read (the commit record) takes
        // the flips; its retries are charged to the recovery ledger, and
        // an exhausted read is remapped without an error report.
        let recover = |flips: u32| {
            let (mut sys, t) = committed(cfg);
            if let Some(f) = sys.fault_model_mut() {
                f.arm_transient_flips(flips);
            }
            let _ = sys.crash_and_recover(t);
            ReadLedger::of(&mut sys)
        };
        let clean = recover(0);
        assert_eq!(
            recover(1).since(clean),
            ReadLedger { reads: 1, crc_blocks: 1, recovery_attempts: 1, ..zero },
            "a transient heals on the first retry"
        );
        assert_eq!(
            recover(1 + retries as u32).since(clean),
            ReadLedger {
                reads: retries,
                crc_blocks: retries + remap.crc_blocks,
                recovery_attempts: retries,
                ..remap
            },
            "exhausted retries remap the block silently"
        );

        // Scrub path: a cell stuck by the block's first write is verified
        // (one read, one CRC block) and remapped at job retirement, with no
        // retry, no decryption and no error.
        let scrubbed = |scrub: bool| {
            let mut cfg = cfg;
            cfg.media.stuck_at_threshold = 1;
            cfg.media.scrub = scrub;
            ReadLedger::of(&mut committed(cfg).0)
        };
        assert_eq!(
            scrubbed(true).since(scrubbed(false)),
            ReadLedger { reads: 1, crc_blocks: 1 + remap.crc_blocks, ..remap },
            "the scrubber verifies and remaps the stuck block"
        );
    }
}
