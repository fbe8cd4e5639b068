//! The fault-domain seam (DESIGN.md §4.2).
//!
//! Beside the paper's mechanism the controller models five fault domains:
//! NVM media (CRC, retry, bad-block remap, scrub), DRAM SEC-DED ECC with
//! poison quarantine, counter-mode secure memory (arXiv:1901.00620), the
//! volatile persist buffer and the graceful-degradation health ladder.
//! [`Domains`] owns their models and bookkeeping, and the controller
//! reaches them only through six hooks:
//!
//! | hook | when |
//! |---|---|
//! | [`ThyNvm::on_write`] | every NVM write, and every DRAM working-region write |
//! | [`ThyNvm::on_read`] | every NVM data read, every DRAM working-region read |
//! | [`ThyNvm::on_ordering_point`] | every §4.4 ordering fence |
//! | [`ThyNvm::on_commit`] | checkpoint persist and job retirement |
//! | [`ThyNvm::on_crash`] | power failure, before the volatile state is cleared |
//! | [`ThyNvm::on_recovery_step`] | recovery's verification, abort and rung steps |
//!
//! A domain that is off answers every hook as a no-op, so a run with all
//! five off is bit-identical to the paper's controller alone.

use thynvm_mem::{DramEccModel, EccReadFault, FaultModel, PersistBuffer, SecurityModel, SecurityPersist};
use thynvm_mem::{SparseStore, WpqCrashReport, WpqKind};
use thynvm_types::{AccessKind, BlockIndex, CkptPhase, Cycle, Error, FaultKind, FxHashMap, HealthRung};
use thynvm_types::{HwAddr, NvmWriteClass, PageIndex, PhysAddr, RecoveryStep, RetryPolicy, SystemConfig};
use thynvm_types::{BLOCK_BYTES, PAGE_BYTES};

use super::{mac_key, Checkpoint, ThyNvm, Verdict, META_CRC_BYTES, META_ENTRY_BYTES};
use crate::health::{HealthMonitor, HealthSignals};
use crate::table::{Btt, Ptt};

/// Nanoseconds to compute/verify one 64 B block's CRC (a few XOR/shift
/// stages in the controller pipeline).
const CRC_NS_PER_BLOCK: u64 = 2;

/// Words in the checkpoint commit record for torn-write modeling: the
/// 64 B record is persisted as eight 8-byte device words.
const COMMIT_RECORD_WORDS: usize = 8;

/// A latent media fault injected into persisted checkpoint state.
///
/// The fault is consulted at the next recovery and applies to whichever
/// checkpoint is `C_last` then; with no completed checkpoint it stays armed
/// (there is no persisted state to corrupt yet). Integrity verification
/// (when [`thynvm_types::MediaFaultConfig::integrity`] is on) detects the
/// corruption and recovery falls back to `C_penult`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaFault {
    /// The checkpoint's multi-word commit record is torn: only a prefix of
    /// its words persisted, so its checksum can never verify.
    TornCommitRecord,
    /// A single bit of `C_last`'s checkpointed data flipped, failing that
    /// block's per-64 B CRC.
    ClastBitFlip {
        /// Physical address of the corrupted byte.
        addr: u64,
    },
    /// The serialized PTT metadata image in the backup region is corrupted,
    /// failing its metadata checksum.
    CorruptPttMetadata,
}

impl MediaFault {
    /// The fault class recovery records when it finds this fault.
    fn kind(self) -> FaultKind {
        match self {
            MediaFault::TornCommitRecord => FaultKind::TornWrite,
            MediaFault::ClastBitFlip { .. } => FaultKind::BitFlip,
            MediaFault::CorruptPttMetadata => FaultKind::Metadata,
        }
    }
}

/// An adversarial tamper injected into persisted secure-mode state.
///
/// Unlike [`MediaFault`] (accidental corruption, modeled as latent flags),
/// a tamper *really mutates* the persisted bytes or the security-metadata
/// model out-of-band, the way an attacker with physical NVM access would.
/// The next recovery's MAC / integrity-tree verification must therefore
/// detect it by recomputation, not by consulting a flag. Armed via
/// [`ThyNvm::inject_tamper`]; applied at the next crash once a completed
/// checkpoint exists (until then it stays armed — there is nothing
/// authenticated to forge yet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperFault {
    /// A byte of `C_last`'s committed data is overwritten in place: a
    /// content forgery that the checkpoint MAC rejects.
    ClastData {
        /// Physical address of the forged byte.
        addr: u64,
    },
    /// The persisted encryption-counter table is rolled back to a stale
    /// generation (a counter-replay attack); the integrity-tree root no
    /// longer authenticates it.
    StaleCounterTable,
    /// The security-metadata root record is torn — power was lost while it
    /// streamed to NVM, so it never authenticates.
    TornRootMeta,
    /// Bytes of *both* checkpoint images are forged: no authenticated
    /// state survives, and recovery must refuse to replay either image
    /// ([`Error::IntegrityUnrecoverable`]) rather than serve forged data.
    BothImages {
        /// Physical address of the forged byte (in each image).
        addr: u64,
    },
}

/// What one write carries. Every NVM write names its kind and goes through
/// [`ThyNvm::on_write`], whose single `match` derives the rest: the traffic
/// class and recorded bytes, CRC work, wear and encryption, the bad-block
/// remap, and whether (and as what) the write enters the persist buffer.
/// The table is spelled out in DESIGN.md §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Write {
    /// A CPU store or checkpoint-time cache flush serviced in NVM by block
    /// remapping: remap, wear and encryption, persist buffer, no CRC.
    Store { bytes: u64, class: NvmWriteClass },
    /// The Working Data Region placed in NVM (§4.1 footnote 3): CPU
    /// traffic with no fault-domain hooks.
    Working { bytes: u64 },
    /// A checkpoint writeback of a buffered block or dirty page: remap,
    /// wear, encryption, per-64 B CRCs and the persist buffer.
    Writeback { bytes: u64 },
    /// A scheme-switch or reclaim copy (demotion, reclaim, quarantine
    /// copy-home): remap, wear and encryption only.
    Migration { bytes: u64 },
    /// A bad-block remap's 64 B payload: a migration write to a fresh
    /// spare that also enters the persist buffer.
    RemapPayload,
    /// A 64 B CRC-sealed write-ahead-log record through the persist buffer.
    Wal,
    /// A WAL record written around the persist buffer (recovery-side
    /// fallbacks, the rung-override seal).
    WalUnbuffered,
    /// A BTT/PTT image or the health record: CRC over the recorded bytes,
    /// at least one 64 B device burst.
    Metadata { bytes: u64 },
    /// Dirty encryption counters or integrity-tree nodes: no CRC, no
    /// encryption, at least one 64 B device burst.
    SecurityTable { bytes: u64 },
    /// The 64 B security root + MAC record: encrypted, no CRC.
    SecurityRoot,
    /// The checkpoint commit record: a checksummed 64 B write recorded as
    /// the 1 B completion flag, pushed as the persist buffer's commit
    /// marker.
    CommitRecord,
    /// A working-region write placed in DRAM, already issued on the DRAM
    /// device by the caller: it re-encodes the ECC words it fully covers.
    /// No NVM traffic.
    Dram { bytes: u32 },
}

/// Which read reaches [`ThyNvm::on_read`], and how its path differs. The
/// load and recovery paths share one NVM data read; each difference
/// between them is keyed on the variant (DESIGN.md §4.2).
#[derive(Debug)]
pub(super) enum Read<'a> {
    /// A load-path NVM read of `block`'s data: the quiet-model fast path,
    /// silent corruption when integrity checking is off, error reports,
    /// and the media retry ledger.
    Load(BlockIndex),
    /// A recovery-path NVM read: CRCs verified even without a media model,
    /// the recovery retry ledger, and every remap logged with its seal
    /// cycle so an aborted attempt can undo it.
    Recovery(&'a mut Vec<(u64, Cycle)>),
    /// A DRAM working-region read the caller already issued, landing at
    /// `now`: the SEC-DED check, and the response to uncorrectable poison.
    Working(Poison),
    /// The load's buffer, as delivered to software: a silent corruption
    /// detected by nothing is applied to it (an empty buffer discards a
    /// stale one).
    Deliver(&'a mut [u8]),
}

/// Whose data sits under a DRAM working-region read — which decides the
/// response when the read finds uncorrectable poison.
#[derive(Debug, Clone, Copy)]
pub(super) enum Poison {
    /// A block of a page under page writeback: quarantine the page if it is
    /// dirty, else re-fetch the block from its NVM copy.
    PageBlock(BlockIndex),
    /// A dirty page about to be written back: quarantine it.
    DirtyPage(PageIndex),
    /// A DRAM-buffered block working copy (dirty by construction):
    /// quarantine the block.
    Buffered(BlockIndex),
    /// A clean page leaving DRAM: drop the poison; the caller re-sources
    /// the bytes from NVM.
    Clean,
}

/// Where in a checkpoint's life [`ThyNvm::on_commit`] runs.
#[derive(Debug, Clone, Copy)]
pub(super) enum Commit {
    /// Checkpoint round step 4b: the secure-mode metadata the commit
    /// record must cover.
    Persist,
    /// Job retirement, after the scheme switches: the background scrubber.
    Scrub(Cycle),
    /// Job retirement, last: one health-ladder evaluation.
    Evaluate,
}

/// Which part of recovery [`ThyNvm::on_recovery_step`] runs.
#[derive(Debug)]
pub(super) enum Step<'a> {
    /// Steps 2–3b: verify `C_last` (CRCs, then MACs and the integrity
    /// tree) and fall back or reset when it fails, logging into the
    /// attempt's remap log and completed steps.
    Verify(Log<'a>),
    /// An attempt aborted at the step's cycle: remaps whose WAL seal had
    /// not landed never took effect.
    Abort(Vec<(u64, Cycle)>),
    /// Recovery finished: rehydrate the health ladder, persisting an
    /// override that outranks the durable rung. `tampers_before` and
    /// `wal_redos_before` are the ledgers' values before this recovery.
    Rehydrate { tampers_before: u64, wal_redos_before: u64 },
}

/// One recovery attempt's logs: the remaps it made (with their seal
/// cycles) and the steps it completed.
pub(super) type Log<'a> = (&'a mut Vec<(u64, Cycle)>, &'a mut Vec<(RecoveryStep, Cycle)>);

/// The five fault domains' models and bookkeeping. Each model is `None`
/// when its config is off.
#[derive(Debug)]
pub(super) struct Domains {
    /// The NVM media-fault model, when `cfg.media.enabled`.
    media: Option<FaultModel>,
    /// Persistent bad-block table: device block base → spare slot. Blocks
    /// listed here have been permanently remapped away from worn-out cells;
    /// the table survives crashes (it is persisted NVM metadata).
    bad_blocks: FxHashMap<u64, u64>,
    /// Next spare block slot to hand out.
    next_spare_slot: u64,
    /// A corruption detected on the current load but *not* healed (no
    /// integrity checking): `(physical byte, XOR mask)` to apply to the
    /// delivered buffer.
    pending_corruption: Option<(u64, u8)>,
    /// Injected latent faults in the next recovery's `C_last`, at most one
    /// per [`MediaFault`] kind. Recovery peeks them at verification and
    /// consumes them all once a fallback makes `C_last` unreachable.
    injected_media: Vec<MediaFault>,
    /// Sequence number of the next write-ahead-log record in the backup
    /// region (bad-block remaps, recovery-side fallbacks, rung overrides).
    wal_seq: u64,
    /// The DRAM SEC-DED ECC model, when `cfg.dram_fault.enabled`.
    dram: Option<DramEccModel>,
    /// Quarantine events not yet drained by the harness: `(physical base,
    /// length)` ranges whose dirty data was dropped and rolled back to the
    /// last checkpoint because of uncorrectable DRAM errors.
    quarantine_events: Vec<(u64, u64)>,
    /// The counter-mode encryption / integrity-tree model, when
    /// `cfg.security.enabled`.
    security: Option<SecurityModel>,
    /// Armed tamper, applied at the next crash once a completed checkpoint
    /// exists to forge.
    injected_tamper: Option<TamperFault>,
    /// The content-carrying persist buffer, when `cfg.wpq.enabled`. Writes
    /// pass through it before durability; a crash partially flushes a
    /// seeded per-bank prefix.
    pbuf: Option<PersistBuffer>,
    /// The most recent crash's partial-flush report.
    last_wpq_flush: Option<WpqCrashReport>,
    /// Test hook: skip every ordering fence until the next commit record.
    skip_next_fence: bool,
    /// The hysteresis-driven degradation ladder, when `cfg.health.enabled`.
    health: Option<HealthMonitor>,
}

impl Domains {
    /// The models `cfg` turns on, with empty bookkeeping.
    pub(super) fn new(cfg: &SystemConfig) -> Self {
        Self {
            media: cfg.media.enabled.then(|| FaultModel::new(&cfg.media, cfg.nvm_geometry.row_bytes)),
            bad_blocks: FxHashMap::default(),
            next_spare_slot: 0,
            pending_corruption: None,
            injected_media: Vec::new(),
            wal_seq: 0,
            dram: cfg.dram_fault.enabled.then(|| DramEccModel::new(&cfg.dram_fault)),
            quarantine_events: Vec::new(),
            security: cfg.security.enabled.then(|| SecurityModel::new(&cfg.security)),
            injected_tamper: None,
            pbuf: cfg.wpq.enabled.then(|| PersistBuffer::new(cfg.wpq, cfg.nvm_geometry)),
            last_wpq_flush: None,
            skip_next_fence: false,
            health: cfg.health.enabled.then(|| HealthMonitor::new(cfg.health)),
        }
    }
}

impl ThyNvm {
    // ------------------------------------------------------------------
    // Inspection and injection
    // ------------------------------------------------------------------

    /// The media-fault model, when `cfg.media.enabled` (inspection).
    pub fn fault_model(&self) -> Option<&FaultModel> {
        self.domains.media.as_ref()
    }

    /// Mutable access to the media-fault model, e.g. to arm guaranteed
    /// transient flips ([`FaultModel::arm_transient_flips`]) in tests and
    /// demos.
    pub fn fault_model_mut(&mut self) -> Option<&mut FaultModel> {
        self.domains.media.as_mut()
    }

    /// Number of blocks permanently remapped to spare locations via the
    /// bad-block table.
    pub fn bad_block_remaps(&self) -> usize {
        self.domains.bad_blocks.len()
    }

    /// Whether the spare-block pool has been fully consumed: no further
    /// bad-block remaps are possible and the device can no longer heal
    /// itself (reads are still served through bounded CRC retries).
    pub fn spares_exhausted(&self) -> bool {
        self.domains.next_spare_slot >= self.cfg.media.spare_blocks
    }

    /// Arms a latent media fault in persisted checkpoint state. Consulted
    /// at the next recovery: whichever checkpoint is `C_last` then fails
    /// its integrity verification and recovery falls back to `C_penult`.
    /// With no completed checkpoint at recovery time the fault stays armed.
    pub fn inject_media_fault(&mut self, fault: MediaFault) {
        // Re-arming a kind replaces the armed fault of that kind.
        let armed = &mut self.domains.injected_media;
        armed.retain(|f| std::mem::discriminant(f) != std::mem::discriminant(&fault));
        armed.push(fault);
    }

    /// The bounded-retry policy governing media CRC retries — NVM data
    /// reads and recovery-side reads share it. Its
    /// [`RetryPolicy::total_backoff`] bounds the worst-case added latency of
    /// any single read, even with the spare pool drained.
    pub fn media_retry_policy(&self) -> RetryPolicy {
        RetryPolicy::new(self.cfg.media.max_read_retries, self.cfg.media.retry_backoff_ns)
    }

    /// The bounded-retry policy governing DRAM ECC refetches.
    pub fn dram_retry_policy(&self) -> RetryPolicy {
        RetryPolicy::new(self.cfg.dram_fault.max_refetch_retries, self.cfg.dram_fault.refetch_backoff_ns)
    }

    /// The secure-mode model (encryption counters, integrity tree), when
    /// `cfg.security.enabled` (inspection).
    pub fn security_model(&self) -> Option<&SecurityModel> {
        self.domains.security.as_ref()
    }

    /// Arms an adversarial tamper in persisted secure-mode state. Applied
    /// at the next crash once a completed checkpoint exists (nothing
    /// authenticated to forge before then — it stays armed); recovery's
    /// MAC / integrity-tree verification then detects it by recomputation
    /// and classifies it. Ignored when secure mode is off — without MACs
    /// nothing *models* the attacker's physical access, and the harness
    /// asserts detection, so arming would be a silent no-op lie.
    pub fn inject_tamper(&mut self, fault: TamperFault) {
        if self.domains.security.is_some() {
            self.domains.injected_tamper = Some(fault);
        }
    }

    /// The tamper armed but not yet applied, if any.
    pub fn armed_tamper(&self) -> Option<TamperFault> {
        self.domains.injected_tamper
    }

    /// The persist buffer, when `cfg.wpq.enabled` (inspection).
    pub fn persist_buffer(&self) -> Option<&PersistBuffer> {
        self.domains.pbuf.as_ref()
    }

    /// The most recent crash's partial-flush report — in particular
    /// whether the in-flight commit marker was salvaged (early commit).
    pub fn last_wpq_flush(&self) -> Option<WpqCrashReport> {
        self.domains.last_wpq_flush
    }

    /// Test hook: suppress every ordering fence until the next
    /// commit-record push, so the ordering audit (the runtime counterpart
    /// of lint rule L10) can be exercised without editing the checkpoint
    /// path. Cleared by the next commit-record write once the audit has
    /// run.
    pub fn skip_next_fence(&mut self) {
        self.domains.skip_next_fence = true;
    }

    /// The current health-ladder rung (`Healthy` when the ladder is off).
    pub fn health_rung(&self) -> HealthRung {
        self.domains.health.as_ref().map_or(HealthRung::Healthy, HealthMonitor::rung)
    }

    /// The health monitor, when `cfg.health.enabled` (inspection).
    pub fn health_monitor(&self) -> Option<&HealthMonitor> {
        self.domains.health.as_ref()
    }

    /// The DRAM SEC-DED ECC model, when `cfg.dram_fault.enabled`
    /// (inspection).
    pub fn dram_ecc(&self) -> Option<&DramEccModel> {
        self.domains.dram.as_ref()
    }

    /// Mutable access to the DRAM ECC model, e.g. to arm guaranteed
    /// corrected flips ([`DramEccModel::arm_corrected_flips`]) or poison
    /// ([`DramEccModel::arm_poison`]) in tests and demos.
    pub fn dram_ecc_mut(&mut self) -> Option<&mut DramEccModel> {
        self.domains.dram.as_mut()
    }

    /// Drains the quarantine events recorded since the last call: the
    /// `(physical base, length)` ranges whose dirty data was dropped and
    /// rolled back to the last checkpoint. Harnesses feed these to
    /// [`crate::PersistenceOracle::record_quarantine`] so the §4.5
    /// prediction tracks what the controller actually kept.
    pub fn take_quarantine_events(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.domains.quarantine_events)
    }

    // ------------------------------------------------------------------
    // The six hooks
    // ------------------------------------------------------------------

    /// Hook: one write. An NVM write of `kind` at `hw` is issued here — the
    /// one NVM write primitive — and gets every domain effect its kind
    /// calls for: the bad-block remap, traffic class and recorded bytes,
    /// CRC work, wear and encryption, and the persist-buffer entry. A
    /// commit record is pushed as the buffer's commit marker, auditing §4.4
    /// on the way: data entries still held at that point mean the
    /// mandatory fence was skipped, and the violation is kept for
    /// `take_ordering_error`. Returns the cycle the write lands and the
    /// cycle the issuer may proceed (later than `issue` when the persist
    /// buffer was full and back-pressured). A [`Write::Dram`] write only
    /// re-encodes ECC and returns `(issue, issue)`.
    pub(super) fn on_write(&mut self, hw: HwAddr, kind: Write, issue: Cycle) -> (Cycle, Cycle) {
        use NvmWriteClass::{Checkpoint, Cpu, Migration};
        use WpqKind::{CommitMarker, Data};
        // (device bytes, recorded bytes, class, CRC bytes, wear, encrypted
        // bytes, persist-buffer entry). Metadata images occupy at least one
        // 64 B burst on the device.
        let (device, recorded, class, crc, wear, encrypt, wpq) = match kind {
            Write::Store { bytes, class } => (bytes, bytes, class, 0, true, bytes, Some(Data)),
            Write::Working { bytes } => (bytes, bytes, Cpu, 0, false, 0, None),
            Write::Writeback { bytes } => (bytes, bytes, Checkpoint, bytes, true, bytes, Some(Data)),
            Write::Migration { bytes } => (bytes, bytes, Migration, 0, true, bytes, None),
            Write::RemapPayload => (64, 64, Migration, 0, true, 64, Some(Data)),
            Write::Wal => (64, 64, Migration, 64, false, 0, Some(Data)),
            Write::WalUnbuffered => (64, 64, Migration, 64, false, 0, None),
            Write::Metadata { bytes } => (bytes.max(64), bytes, Checkpoint, bytes, false, 0, Some(Data)),
            Write::SecurityTable { bytes } => (bytes.max(64), bytes, Checkpoint, 0, false, 0, Some(Data)),
            Write::SecurityRoot => (64, 64, Checkpoint, 0, false, 64, Some(Data)),
            Write::CommitRecord => (64, 1, Checkpoint, 64, false, 0, Some(CommitMarker)),
            Write::Dram { bytes } => {
                // A whole-block rewrite re-encodes the ECC word: any poison
                // fully covered by the write is gone with the bad bits.
                if let Some(ecc) = self.domains.dram.as_mut() {
                    self.stats.dram.poison_overwritten += ecc.note_write(hw.raw(), bytes) as u64;
                }
                return (issue, issue);
            }
        };
        // Data lands on the spare of a remapped block; a remap's own
        // payload goes to a fresh spare.
        let data = matches!(kind, Write::Store { .. } | Write::Writeback { .. } | Write::Migration { .. });
        let hw = if data { self.remapped(hw) } else { hw };
        let device = u32::try_from(device).unwrap_or(u32::MAX);
        let done = self.nvm.access(hw, AccessKind::Write, device, issue);
        self.stats.record_nvm_write(recorded, class);
        self.charge_crc(crc);
        if wear {
            // Wear: a write pushing its row across the stuck-at threshold
            // leaves a permanently bad cell for the read path and scrubber.
            if let Some(fault) = self.domains.media.as_mut() {
                if fault.record_write(hw, device).is_some() {
                    self.stats.media.record_fault(FaultKind::StuckAt);
                }
            }
            // Encryption: every touched 64 B block is re-encrypted under a
            // bumped write counter (counter reuse would break CTR-mode
            // confidentiality), dirtying the table the next epoch boundary
            // must persist.
            if let Some(sec) = self.domains.security.as_mut() {
                let end = hw.raw() + u64::from(device);
                let mut b = hw.raw() & !(BLOCK_BYTES - 1);
                while b < end {
                    sec.note_block_write(b);
                    b += BLOCK_BYTES;
                }
            }
        }
        if self.domains.security.is_some() {
            self.stats.security.charge_crypto(&self.cfg.security, encrypt, true);
        }
        if wpq == Some(CommitMarker) {
            self.domains.skip_next_fence = false;
            // Audit on *held* entries, not retire times: a correct round
            // fences (empties the buffer) immediately before the marker,
            // so anything still held here means the fence was skipped.
            let pending = self.domains.pbuf.as_ref().map_or(0, |p| p.held_data());
            if pending > 0 {
                self.report(Error::UnfencedCommit { addr: PhysAddr::new(hw.raw()), pending });
            }
        }
        let resume = match (wpq, self.domains.pbuf.as_mut()) {
            // Timing-only entry: content plumbing lives in the buffer's own
            // unit tests and sink.
            (Some(entry), Some(p)) => {
                let resume = p.push(hw, &[], issue, done, entry);
                self.stats.wpq = *p.stats();
                resume
            }
            _ => issue,
        };
        (done, resume)
    }

    /// Hook: one read. An NVM data read (`Load`, `Recovery`) is issued here
    /// — the one fault-aware NVM read — and always returns `Ok`: it
    /// resolves the bad-block remap, charges decryption and CRCs, and runs
    /// the media model's detect/heal pipeline. With integrity checking on,
    /// a read failing its per-64 B CRC is retried with bounded backoff
    /// (transient flips clear on retry); a location that keeps failing is
    /// permanently bad and its block is remapped to a spare. With integrity
    /// off, the load path delivers the corrupted bytes silently.
    ///
    /// A `Working` read runs the SEC-DED check on a DRAM read the caller
    /// issued. It returns `Err` with the cycle the response lands when the
    /// read hit uncorrectable poison, which [`Poison`] says how to contain.
    // lint: recovery-path
    pub(super) fn on_read(&mut self, hw: HwAddr, bytes: u32, now: Cycle, read: Read<'_>) -> Result<Cycle, Cycle> {
        let (load, remaps) = match read {
            Read::Load(block) => (Some(block), None),
            Read::Recovery(remaps) => (None, Some(remaps)),
            Read::Working(poison) => return self.ecc_check(hw.raw(), bytes, now, poison),
            Read::Deliver(buf) => {
                // Without integrity protection an undetected media fault
                // reaches software: deliver the corrupted byte.
                if let Some((paddr, mask)) = self.domains.pending_corruption.take() {
                    if let Some(b) = paddr.checked_sub(hw.raw()).and_then(|i| buf.get_mut(i as usize)) {
                        *b ^= mask;
                    }
                }
                return Ok(now);
            }
        };
        let hw = self.remapped(hw);
        let done = self.nvm_read(hw, bytes, now);
        // Secure mode decrypts + MAC-verifies every NVM data read,
        // independent of the media-fault model.
        if self.domains.security.is_some() {
            self.stats.security.charge_crypto(&self.cfg.security, u64::from(bytes), false);
        }
        // Recovery verifies every read's CRC; the load path only while the
        // media model is on.
        if load.is_none() || self.domains.media.is_some() {
            self.charge_crc(u64::from(bytes));
        }
        let Some(fault) = self.domains.media.as_mut() else { return Ok(done) };
        if load.is_some() && fault.is_quiet() {
            // Zero rates, nothing armed, nothing stuck: the model cannot
            // produce a fault and its streams are never consulted, so the
            // consultation is skipped wholesale (counted for perfbench's
            // `mem.quiet_read_ratio`).
            self.stats.perf.nvm_quiet_reads += 1;
            return Ok(done);
        }
        // Without CRCs nothing on the recovery path detects a fault, so
        // the model is not consulted there.
        if load.is_none() && !self.cfg.media.integrity {
            return Ok(done);
        }
        let Some(ev) = fault.read_fault(hw, bytes) else { return Ok(done) };
        // The load path reports against the software address it served.
        let fault_addr = load.map(|block| {
            block.base_addr().raw() + ev.addr.saturating_sub(hw.raw()).min(u64::from(bytes) - 1)
        });
        if let Some(addr) = fault_addr {
            if ev.kind == FaultKind::BitFlip {
                // Stuck-at cells were counted when the wear model created them.
                self.stats.media.record_fault(FaultKind::BitFlip);
            }
            if !self.cfg.media.integrity {
                // No CRCs: nothing detects the corruption; the wrong bytes
                // are delivered to software (`Read::Deliver`).
                self.stats.media.silent_corruptions += 1;
                self.report(Error::MediaCorruption { addr: PhysAddr::new(addr), kind: ev.kind });
                self.domains.pending_corruption = Some((addr, ev.mask));
                return Ok(done);
            }
        }
        // The CRC rejected the data: bounded re-reads, each waiting out its
        // backoff and re-verifying.
        let mut done = done;
        for (_, backoff) in self.media_retry_policy().schedule() {
            done += backoff;
            done = self.nvm_read(hw, bytes, done);
            self.stats.media.retries += 1;
            if load.is_some() {
                self.stats.retry.media_attempts += 1;
            } else {
                self.stats.retry.recovery_attempts += 1;
            }
            self.charge_crc(u64::from(bytes));
            if self.domains.media.as_mut().is_none_or(|f| f.read_fault(hw, bytes).is_none()) {
                return Ok(done);
            }
        }
        // Every retry failed: the location is permanently bad (a stuck-at
        // cell). Remap the block away from it; with the spare pool drained
        // the block keeps limping along on CRC retries.
        if let Some(addr) = fault_addr {
            let attempts = self.cfg.media.max_read_retries;
            self.report(Error::RetriesExhausted { addr: PhysAddr::new(addr), attempts });
        }
        let base = hw.raw() & !(BLOCK_BYTES - 1);
        let Some(sealed) = self.remap_bad_block(base, done) else { return Ok(done) };
        if let Some(log) = remaps {
            log.push((base, sealed));
        }
        Ok(sealed)
    }

    /// Hook: a §4.4 ordering fence. Stalls until the persist buffer has
    /// drained, so everything enqueued afterwards retires no earlier than
    /// what came before. A no-op returning `now` when the buffer is off —
    /// the WPQ-off timeline is bit-identical to a build without the
    /// feature — or while [`ThyNvm::skip_next_fence`] is in effect.
    pub(super) fn on_ordering_point(&mut self, now: Cycle) -> Cycle {
        let Some(p) = self.domains.pbuf.as_mut() else { return now };
        if self.domains.skip_next_fence {
            return now;
        }
        let done = p.fence(now);
        self.stats.wpq = *p.stats();
        done
    }

    /// Hook: a checkpoint commit boundary. At [`Commit::Persist`] it
    /// returns the secure-mode receipt — the dirty counters and tree nodes
    /// the round must persist before its root and commit record (`None`
    /// with secure mode off). At job retirement it scrubs the media and
    /// evaluates the health ladder, returning `None`.
    pub(super) fn on_commit(&mut self, point: Commit) -> Option<SecurityPersist> {
        match point {
            Commit::Persist => {
                let receipt = self.domains.security.as_mut().map(SecurityModel::persist)?;
                let s = &mut self.stats.security;
                if receipt.counter_entries > 0 {
                    s.counter_persists += 1;
                    s.counter_bytes += receipt.counter_entries as u64 * META_ENTRY_BYTES;
                    s.tree_node_persists += receipt.tree_nodes;
                    s.tree_bytes += receipt.tree_nodes * META_ENTRY_BYTES;
                }
                s.root_persists += 1;
                return Some(receipt);
            }
            // Background scrubbing between epochs: proactively remap blocks
            // the wear model has marked stuck before the next epoch reads
            // them.
            Commit::Scrub(at) => self.scrub_media(at),
            // Epoch boundary: one health-ladder evaluation over the signals
            // the retired epoch (and its scrub pass) left behind.
            Commit::Evaluate => {
                let signals = self.domains.health.is_some().then(|| self.health_signals());
                if let (Some(mon), Some(signals)) = (self.domains.health.as_mut(), signals) {
                    mon.observe_epoch(&signals, &mut self.stats.health);
                }
            }
        }
        None
    }

    /// Hook: power fails at `now`. Runs before the controller drops its
    /// volatile state:
    ///
    /// * the persist buffer partially flushes. If the in-flight
    ///   checkpoint's commit marker became durable *and* no data entry was
    ///   lost, the checkpoint is complete at the device even though its
    ///   timeline had not finished — it commits early (recovery restores
    ///   `C_last`, not `C_penult`). A marker that outran dropped payload
    ///   never commits: the fence discipline (and its L10 audit) exists
    ///   precisely to keep that window closed;
    /// * a commit record streaming when power failed is torn;
    /// * DRAM poison vanishes with the DRAM contents;
    /// * the encryption-counter cache reverts to the persisted table;
    /// * the tamper schedule rolls, and an armed tamper is applied.
    // lint: recovery-path
    pub(super) fn on_crash(&mut self, now: Cycle) {
        if let Some(p) = self.domains.pbuf.as_mut() {
            let flush = p.crash(now);
            self.stats.wpq = *p.stats();
            self.domains.last_wpq_flush = Some(flush);
            if flush.commit_salvaged() {
                if let Some(job) = self.epoch.job.take() {
                    self.epoch.completed += 1;
                    self.commit_job(job);
                }
            }
        }

        // Ambient torn write: power failed mid-Finalize, while the 8-word
        // commit record was streaming to NVM. Only a prefix of the record
        // persists; recovery sees an unset/invalid commit flag, so the
        // interrupted checkpoint is discarded exactly as §4.5 already does.
        let job = self.epoch.job.as_ref();
        let in_finalize = job.is_some_and(|j| !j.is_done(now) && j.phase_at(now) == CkptPhase::Finalize);
        if self.cfg.media.torn_writes && in_finalize {
            if let Some(f) = self.domains.media.as_mut() {
                let _ = f.torn_words(COMMIT_RECORD_WORDS);
                self.stats.media.record_fault(FaultKind::TornWrite);
            }
        }

        // DRAM contents vanish with power — and with them any outstanding
        // poison (the next boot re-reads everything from NVM, which the
        // quarantine discipline kept poison-free).
        if let Some(ecc) = self.domains.dram.as_mut() {
            self.stats.dram.poison_cleared_by_crash += ecc.clear_all() as u64;
        }

        let Some(sec) = self.domains.security.as_mut() else { return };
        // The controller's volatile counter cache reverts to the persisted
        // table; the counters bumped mid-epoch are a *bounded, known* set
        // that recovery replays — never guesses (arXiv:1901.00620).
        self.stats.security.counters_replayed += sec.crash() as u64;
        // Adversarial tamper schedule: the seeded stream may decide this
        // crash window is when the attacker strikes. The stream always
        // advances (determinism is a function of crash count, not of which
        // branch fires); a manually armed tamper takes precedence. Either
        // is applied once a completed checkpoint exists to forge. The
        // mutation is *real* (bytes / model state change), so every
        // restarted recovery attempt re-derives the same verdict by
        // recomputation — no flag peeking needed.
        let roll = sec.tamper_roll();
        if self.epoch.completed > 0 {
            let rolled = roll.map(|h| {
                let addr = (h >> 8) & 0xf_ffff; // somewhere in the image
                match h % 3 {
                    0 => TamperFault::ClastData { addr },
                    1 => TamperFault::StaleCounterTable,
                    _ => TamperFault::TornRootMeta,
                }
            });
            if let Some(t) = self.domains.injected_tamper.take().or(rolled) {
                self.apply_tamper(t);
            }
        }
    }

    /// Hook: one part of the §4.5 recovery procedure, starting at `t`.
    /// Returns the cycle it ends at, or `Err(at)` when a queued crash point
    /// at `at` aborted the attempt.
    pub(super) fn on_recovery_step(&mut self, step: Step<'_>, t: Cycle, verdict: &mut Verdict) -> Result<Cycle, Cycle> {
        match step {
            Step::Verify(log) => self.recovery_verify(t, verdict, log),
            Step::Abort(remaps) => {
                // Bad-block remaps whose WAL seal had not landed when power
                // failed never took effect: drop the in-memory indirection
                // and return the spare slots. Sealed remaps (seal ≤ at)
                // persist.
                for (base, sealed) in remaps.into_iter().rev() {
                    if sealed > t {
                        self.domains.bad_blocks.remove(&base);
                        self.domains.next_spare_slot -= 1;
                        self.stats.media.wal_redos += 1;
                    }
                }
                Err(t)
            }
            Step::Rehydrate { tampers_before, wal_redos_before } => {
                if self.domains.health.is_none() {
                    return Ok(t);
                }
                // Rehydrate the ladder with the rung that was durable
                // alongside the restored image; `last.rung` mirrors that
                // record exactly. A tamper detected by *this* recovery, or
                // an unrecoverable verdict, overrides it: the ladder lands
                // at FailSafe, which never promotes.
                let persisted = self.last.rung;
                let rung = if verdict.unrecoverable || self.stats.security.tampers_detected > tampers_before {
                    HealthRung::FailSafe
                } else if self.stats.media.wal_redos - wal_redos_before >= self.cfg.health.readonly_wal_redos {
                    // WAL redos only ever happen inside recovery, and
                    // `rehydrate` re-baselines the monitor's counters at the
                    // post-recovery values — so redos crossing the threshold
                    // must escalate here or they would never reach the ladder.
                    persisted.max(HealthRung::ReadOnly)
                } else {
                    persisted
                };
                let signals = self.health_signals();
                if let Some(mon) = self.domains.health.as_mut() {
                    mon.rehydrate(rung, &signals, &mut self.stats.health);
                }
                if rung <= persisted {
                    return Ok(t);
                }
                // An override that outranks the durable record is persisted
                // before recovery hands control back: a follow-on crash
                // would otherwise rehydrate the stale pre-incident rung and
                // launder the degradation away. The persist is
                // WAL-bracketed (L8): recovery runs with no checkpoint in
                // flight, so a torn record would have nothing to redo it
                // from.
                let wal = self.space.backup_wal(self.domains.wal_seq);
                self.domains.wal_seq += 1;
                let (mut end, _) = self.on_write(wal, Write::Wal, t);
                (end, _) = self.on_write(self.space.health_record(), Write::Metadata { bytes: 64 }, end);
                // §4.4: intent and record must be durable before the seal.
                end = self.on_ordering_point(end);
                // CRC seal: the override commits when this lands.
                (end, _) = self.on_write(wal, Write::WalUnbuffered, end);
                self.stats.media.wal_seals += 1;
                self.stats.health.rung_persists += 1;
                self.last.rung = rung;
                Ok(end)
            }
        }
    }

    // ------------------------------------------------------------------
    // Media: CRCs, bad-block remapping, scrubbing
    // ------------------------------------------------------------------

    /// Attributes CRC compute/verify work for `bytes` of data. Pure stats
    /// (the CRC stages are pipelined with the burst transfers); attributed
    /// only while integrity checking is enabled. Zero bytes touch zero CRC
    /// blocks.
    fn charge_crc(&mut self, bytes: u64) {
        let blocks = bytes.div_ceil(BLOCK_BYTES);
        if !self.cfg.media.integrity || blocks == 0 {
            return;
        }
        self.stats.media.crc_checked_blocks += blocks;
        self.stats.media.crc_check_cycles += Cycle::from_ns(CRC_NS_PER_BLOCK * blocks);
    }

    /// Resolves the bad-block indirection: accesses to a remapped block go
    /// to its spare location instead of the worn-out original.
    fn remapped(&self, hw: HwAddr) -> HwAddr {
        if self.domains.bad_blocks.is_empty() {
            return hw;
        }
        let base = hw.raw() & !(BLOCK_BYTES - 1);
        match self.domains.bad_blocks.get(&base) {
            Some(&slot) => self.space.spare_block(slot).offset(hw.raw() - base),
            None => hw,
        }
    }

    /// Remaps the block at device address `base` to a fresh spare slot: the
    /// controller writes an intent record to the write-ahead log, rewrites
    /// the block's good data (which it still holds) to the spare location,
    /// and CRC-seals the log record — only then is the indirection in the
    /// persistent bad-block table effective, so a crash mid-remap leaves a
    /// torn record that is detected and redone, never compounded. Each
    /// block is remapped at most once — later accesses resolve through the
    /// table before touching the media.
    ///
    /// Returns the cycle the seal lands, or `None` when the spare pool is
    /// exhausted: the remap is dropped, `spare_exhausted` is counted, and
    /// the block keeps being served with per-read CRC retries (graceful
    /// degradation).
    // lint: recovery-path
    fn remap_bad_block(&mut self, base: u64, now: Cycle) -> Option<Cycle> {
        if self.spares_exhausted() {
            self.stats.media.spare_exhausted += 1;
            self.report(Error::SpareExhausted { addr: PhysAddr::new(base) });
            return None;
        }
        // WAL intent: the (bad block → spare slot) assignment.
        let wal = self.space.backup_wal(self.domains.wal_seq);
        self.domains.wal_seq += 1;
        let (mut t, _) = self.on_write(wal, Write::Wal, now);
        let slot = self.domains.next_spare_slot;
        self.domains.next_spare_slot += 1;
        self.domains.bad_blocks.insert(base, slot);
        (t, _) = self.on_write(self.space.spare_block(slot), Write::RemapPayload, t);
        // §4.4: intent and payload must be durable before the seal that
        // commits them.
        t = self.on_ordering_point(t);
        // CRC seal: the remap commits when this lands.
        let (sealed, _) = self.on_write(wal, Write::Wal, t);
        self.stats.media.wal_seals += 1;
        self.stats.media.remaps += 1;
        Some(sealed)
    }

    /// The background scrubber: proactively remaps every block whose cells
    /// the wear model has marked stuck, repairing checkpoint regions before
    /// the next epoch reads them. Runs at job retirement — between epochs,
    /// off the critical path.
    fn scrub_media(&mut self, now: Cycle) {
        let Some(f) = self.domains.media.as_ref().filter(|_| self.cfg.media.scrub) else { return };
        let cells: Vec<u64> = f.stuck_cells().map(|(addr, _)| addr).collect();
        // Wounded posture: the scrubber gets a bounded cycle budget so it
        // can no longer starve foreground traffic; what it cannot finish is
        // deferred to the next epoch boundary (counted). Off-ladder runs
        // keep the unbudgeted behaviour bit-identically.
        let deadline = (self.health_rung() >= HealthRung::Wounded)
            .then(|| now + Cycle::from_ns(self.cfg.health.scrub_budget_ns));
        let mut t = now;
        for cell in cells {
            if self.spares_exhausted() {
                // Nothing left to heal with: stop scrubbing; reads keep
                // being served through bounded CRC retries.
                break;
            }
            if deadline.is_some_and(|d| t > d) {
                self.stats.health.scrub_deferrals += 1;
                break;
            }
            let base = cell & !(BLOCK_BYTES - 1);
            if self.domains.bad_blocks.contains_key(&base) {
                continue; // already remapped away from the bad cell
            }
            // Verify the block (NVM read + CRC), then remap it to a spare.
            t = self.nvm_read(HwAddr::new(base), BLOCK_BYTES as u32, t);
            self.charge_crc(BLOCK_BYTES);
            if let Some(done) = self.remap_bad_block(base, t) {
                t = done;
                self.stats.media.scrub_repairs += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // DRAM: ECC, poison containment, quarantine
    // ------------------------------------------------------------------

    /// The SEC-DED check of a DRAM working-region read of `[off, off +
    /// bytes)` that landed at `done`: counts corrections and registers
    /// fresh poison, then contains any poison under the read as `poison`
    /// says. `Err` carries the cycle the containment lands.
    fn ecc_check(&mut self, off: u64, bytes: u32, done: Cycle, poison: Poison) -> Result<Cycle, Cycle> {
        let Some(ecc) = self.domains.dram.as_mut() else { return Ok(done) };
        if ecc.is_quiet() {
            // The SEC-DED model cannot fault: skip the check (counted in
            // `PerfStats`, like the NVM-side skip).
            self.stats.perf.dram_quiet_reads += 1;
            return Ok(done);
        }
        match ecc.observe_read(off, bytes) {
            Some(EccReadFault::Corrected) => self.stats.dram.corrected_flips += 1,
            Some(EccReadFault::Poisoned { fresh: true, .. }) => self.stats.dram.poisoned_blocks += 1,
            _ => {}
        }
        if ecc.first_poisoned_in(off, u64::from(bytes)).is_none() {
            return Ok(done);
        }
        Err(match poison {
            Poison::PageBlock(block) => {
                let page = block.page();
                let Some(&entry) = self.ptt.get(page) else { return Err(done) };
                if entry.dirty {
                    // Dirty data under the poison: the bytes exist nowhere
                    // else, so there is nothing to re-fetch. Quarantine now
                    // rather than let the poison age toward a checkpoint.
                    self.quarantine_page(page, done)
                } else {
                    // Clean (or frozen-and-captured) page: the block's exact
                    // bytes sit intact in NVM — re-fetch them and heal the
                    // DRAM copy.
                    let in_page = block.slot_in_page() * BLOCK_BYTES;
                    let src = match self.pending_pages.get(&page) {
                        Some(p) if entry.frozen => self.space.checkpoint_page(p.target, page).offset(in_page),
                        _ => match entry.clast_region {
                            Some(r) => self.space.checkpoint_page(r, page).offset(in_page),
                            None => self.space.home(block.base_addr()),
                        },
                    };
                    self.dram_refetch_block(block, off, src, done)
                }
            }
            Poison::DirtyPage(page) => self.quarantine_page(page, done),
            Poison::Buffered(block) => self.quarantine_buffered_block(block, off, done),
            Poison::Clean => {
                // The data is clean, so its exact bytes exist intact in NVM
                // and the caller re-sources them from there: counted as
                // refetches because no data is lost.
                self.stats.dram.poison_refetched += self.clear_poison(off, u64::from(bytes));
                done
            }
        })
    }

    /// Clears the poison of every DRAM block intersecting `[off, off +
    /// len)`, returning how many were poisoned.
    fn clear_poison(&mut self, off: u64, len: u64) -> u64 {
        let Some(ecc) = self.domains.dram.as_mut() else { return 0 };
        let poisoned = ecc.poisoned_in(off, len);
        for b in &poisoned {
            ecc.clear_block(*b);
        }
        poisoned.len() as u64
    }

    /// Functional side of a quarantine: the software-visible bytes of
    /// `[base, base + len)` roll back to the last captured checkpoint
    /// (committed contents plus any captured-but-not-yet-retired writes),
    /// and the active epoch's write log drops the portions falling inside
    /// the range — the poisoned dirty data must not survive anywhere.
    // lint: recovery-path
    fn quarantine_rollback(&mut self, base: u64, len: u64) {
        let end = base + len;
        // Drop (or split) working-log entries overlapping the range.
        let entries = std::mem::take(&mut self.working_log);
        for (addr, data) in entries {
            let a_end = addr + data.len() as u64;
            if a_end <= base || addr >= end {
                self.working_log.push((addr, data));
                continue;
            }
            if addr < base {
                self.working_log.push((addr, data[..(base - addr) as usize].to_vec()));
            }
            if a_end > end {
                self.working_log.push((end, data[(end - addr) as usize..].to_vec()));
            }
        }
        // Rebuild the range from the last checkpoint plus captured writes.
        let mut img = vec![0u8; len as usize];
        self.last.image.read(HwAddr::new(base), &mut img);
        for (addr, data) in &self.ckpting_log {
            let a_end = *addr + data.len() as u64;
            if a_end <= base || *addr >= end {
                continue;
            }
            let from = base.max(*addr);
            let to = end.min(a_end);
            img[(from - base) as usize..(to - base) as usize]
                .copy_from_slice(&data[(from - addr) as usize..(to - addr) as usize]);
        }
        self.visible.write(HwAddr::new(base), &img);
        self.domains.quarantine_events.push((base, len));
    }

    /// Quarantines a poisoned *dirty* PTT page: its dirty data is dropped
    /// (the poison must never reach NVM and become durable corruption),
    /// the software-visible range rolls back to the last checkpoint, and
    /// the page leaves the page-writeback scheme — it re-enters through
    /// the ordinary §3.3 promotion counters if it stays hot. When the
    /// page's `C_last` lives in a checkpoint region it is copied home
    /// NVM-to-NVM so reads keep resolving after the PTT entry is freed;
    /// the poisoned DRAM copy is never the source. Returns the cycle the
    /// copy-home lands.
    // lint: recovery-path
    fn quarantine_page(&mut self, page: PageIndex, now: Cycle) -> Cycle {
        let Some(entry) = self.ptt.remove(page) else { return now };
        let off = self.space.working_offset(self.space.working_page(entry.slot));
        let mut done = now;
        if let Some(region) = entry.clast_region {
            let src = self.space.checkpoint_page(region, page);
            done = self.nvm_read(src, PAGE_BYTES as u32, done);
            (done, _) = self.on_write(self.space.home(page.base_addr()), Write::Migration { bytes: PAGE_BYTES }, done);
        }
        // With no checkpointed copy the Home Region still holds the page's
        // pre-promotion bytes — nothing durable ever left it — so no copy
        // is needed.
        self.stats.dram.poison_dropped += self.clear_poison(off, PAGE_BYTES);
        self.quarantine_rollback(page.base_addr().raw(), PAGE_BYTES);
        self.stats.dram.quarantined_pages += 1;
        self.stats.dram.quarantine_dropped_bytes += PAGE_BYTES;
        self.stats.pages_demoted += 1;
        self.report(Error::DramPoisonLost { addr: page.base_addr(), bytes: PAGE_BYTES });
        done
    }

    /// Quarantines a poisoned DRAM-buffered block working copy (block
    /// remapping's cooperation/overlap buffer): the block's dirty data is
    /// dropped and its visible bytes roll back to the last checkpoint; the
    /// BTT entry keeps only its checkpointed versions. `off` is the
    /// block-aligned working-region offset of the buffer slot.
    // lint: recovery-path
    fn quarantine_buffered_block(&mut self, block: BlockIndex, off: u64, now: Cycle) -> Cycle {
        self.stats.dram.poison_dropped += self.clear_poison(off, BLOCK_BYTES);
        let state = self.btt.get_mut(block).map(|e| {
            e.wactive = None;
            (e.pending.is_none(), e.clast_region.is_none())
        });
        match state {
            // Nothing checkpointed either: the entry is empty, drop it.
            Some((true, true)) => {
                self.btt.remove(block);
            }
            // Only checkpointed copies remain: the entry just went
            // quiescent, so hint it for victim selection.
            Some((true, false)) => self.btt.note_quiescent(block),
            _ => {}
        }
        self.quarantine_rollback(block.base_addr().raw(), BLOCK_BYTES);
        self.stats.dram.quarantine_dropped_bytes += BLOCK_BYTES;
        self.report(Error::DramPoisonLost { addr: block.base_addr(), bytes: BLOCK_BYTES });
        now
    }

    /// Heals a poisoned-but-recoverable DRAM block: bounded DRAM re-reads
    /// (each still fails — the stored bits themselves are corrupt), then
    /// one NVM read of the checkpointed copy at `src` and a DRAM rewrite.
    /// The block is clean, i.e. `src` holds its exact bytes, so the visible
    /// image is untouched. Returns the cycle the healing DRAM write lands.
    // lint: recovery-path
    fn dram_refetch_block(&mut self, block: BlockIndex, off: u64, src: HwAddr, now: Cycle) -> Cycle {
        let mut done = now;
        for (_, backoff) in self.dram_retry_policy().schedule() {
            done += backoff;
            done = self.dram.access(HwAddr::new(off), AccessKind::Read, BLOCK_BYTES as u32, done);
            self.stats.dram_reads += 1;
            self.stats.dram_read_bytes += BLOCK_BYTES;
            self.stats.dram.refetch_retries += 1;
            self.stats.retry.dram_attempts += 1;
        }
        done = self.data_read(src, BLOCK_BYTES as u32, done, Read::Load(block));
        self.stats.dram.poison_refetched += self.clear_poison(off & !(BLOCK_BYTES - 1), BLOCK_BYTES);
        self.working_write(off, BLOCK_BYTES as u32, done)
    }

    // ------------------------------------------------------------------
    // Security: tamper, recovery-side verification
    // ------------------------------------------------------------------

    /// Applies an armed tamper to the persisted state it forges. The raw
    /// store mutations model an attacker with physical NVM access writing
    /// out-of-band — they deliberately bypass the controller's write path
    /// (no counters bump, no MAC rotates), which is exactly why the next
    /// recovery's recomputed MAC rejects the forged image.
    // lint: recovery-path
    fn apply_tamper(&mut self, fault: TamperFault) {
        self.stats.security.tampers_injected += 1;
        let forge = |store: &mut SparseStore, addr: u64| {
            let mut b = [0u8];
            store.read(HwAddr::new(addr), &mut b);
            b.iter_mut().for_each(|x| *x ^= 0xA5);
            store.write(HwAddr::new(addr), &b);
        };
        match (fault, self.domains.security.as_mut()) {
            (TamperFault::ClastData { addr }, _) => forge(&mut self.last.image, addr),
            (TamperFault::BothImages { addr }, _) => {
                forge(&mut self.last.image, addr);
                forge(&mut self.penult.image, addr);
            }
            (TamperFault::StaleCounterTable, Some(sec)) => sec.tamper_stale_table(),
            (TamperFault::TornRootMeta, Some(sec)) => sec.tamper_torn_root(),
            // Tampers are armed only with secure mode on.
            (_, None) => {}
        }
    }

    /// Commits a recovery-side fallback through the write-ahead log: an
    /// intent record and its CRC seal, written around the persist buffer.
    /// If a queued crash point interrupts before the seal lands, nothing
    /// took effect — the redo is counted and the next attempt re-detects
    /// and redoes the fallback. Otherwise the seal is counted and the
    /// caller applies the fallback from the returned cycle.
    fn recovery_wal_commit(&mut self, t: Cycle, verdict: Verdict) -> Result<Cycle, Cycle> {
        let wal = self.space.backup_wal(self.domains.wal_seq);
        self.domains.wal_seq += 1;
        let (w, _) = self.on_write(wal, Write::WalUnbuffered, t);
        let (w, _) = self.on_write(wal, Write::WalUnbuffered, w); // seal
        if let Err(at) = self.recovery_interrupt(RecoveryStep::IntegrityFallback, w, verdict) {
            self.stats.media.wal_redos += 1;
            return Err(at);
        }
        self.stats.media.wal_seals += 1;
        Ok(w)
    }

    /// Recovery steps 2–3b: verify `C_last`'s CRCs and, in secure mode, its
    /// MAC and the counter table's integrity tree, falling back to
    /// `C_penult` — or resetting to the empty image when neither
    /// authenticates. Each step pays its modeled NVM latency, then checks
    /// the queued crash points.
    fn recovery_verify(&mut self, mut t: Cycle, verdict: &mut Verdict, log: Log<'_>) -> Result<Cycle, Cycle> {
        let (remaps, steps) = log;
        // Step 2: verify `C_last`'s integrity (commit-record checksum +
        // BTT/PTT metadata CRCs). A latent fault in any of them makes
        // `C_last` unusable; step 3 then falls back to `C_penult`, which a
        // completed checkpoint always leaves intact.
        if self.cfg.media.integrity && self.epoch.completed > 0 {
            let meta_bytes = ((self.btt.len() + self.ptt.len()).max(1) as u64) * META_ENTRY_BYTES
                + 2 * META_CRC_BYTES;
            let meta_len = u32::try_from(meta_bytes).unwrap_or(u32::MAX).max(64);
            t = self.data_read(self.space.backup(8192), meta_len, t, Read::Recovery(remaps));
            // Peek — never consume — the injected latent faults: whether
            // `C_last` is corrupt is a property of the persisted bytes, so
            // a restarted attempt must reach the same verdict.
            for fault in &self.domains.injected_media {
                self.stats.media.record_fault(fault.kind());
            }
            let corrupt = !self.domains.injected_media.is_empty();
            self.recovery_interrupt(RecoveryStep::VerifyClast, t, *verdict)?;
            steps.push((RecoveryStep::VerifyClast, t));

            // Step 3: fall back to `C_penult` — write-ahead + CRC-sealed,
            // so an interruption leaves a torn WAL record that the next
            // attempt detects and redoes, never a half-applied fallback.
            if corrupt {
                t = self.recovery_wal_commit(t, *verdict)?;
                // Sealed: the fallback commits, and the corrupt `C_last`
                // image is no longer reachable — consume the faults.
                self.domains.injected_media.clear();
                self.fall_back_to_penult();
                self.stats.media.integrity_fallbacks += 1;
                verdict.integrity_fallback = true;
                steps.push((RecoveryStep::IntegrityFallback, t));
            }
        }

        // Step 2b/3b: secure-mode authentication. The MAC over the
        // committed image and the integrity-tree root over the counter
        // table are *recomputed* from persisted state — pure functions of
        // it, so a restarted attempt converges on the same verdict. A CRC
        // fallback that landed on `completed == 0` still authenticates:
        // the fallback image was cloned from persisted `C_penult` bytes an
        // attacker with physical access can forge, so skipping the MAC
        // here would replay unauthenticated data (a forged penult behind a
        // torn commit record with exactly one completed checkpoint).
        let Some(entries) = self.domains.security.as_ref().map(SecurityModel::table_entries) else { return Ok(t) };
        if self.epoch.completed == 0 && !verdict.integrity_fallback {
            return Ok(t);
        }
        let table_bytes = (entries as u64 * META_ENTRY_BYTES).max(64);
        t = self.data_read(self.space.security_root(), 64, t, Read::Recovery(remaps));
        let table_len = u32::try_from(table_bytes).unwrap_or(u32::MAX);
        t = self.data_read(self.space.security_counters(0), table_len, t, Read::Recovery(remaps));
        self.stats.security.charge_crypto(&self.cfg.security, table_bytes + 64, false);
        // An armed media fault with CRC protection off: nothing else
        // would detect it, but the MAC does — accidentally corrupt
        // bytes fail authentication just like forged ones.
        let media_caught = !self.cfg.media.integrity && !self.domains.injected_media.is_empty();
        let key = mac_key(&self.cfg);
        let mac_ok = !media_caught && self.last.verifies(key);
        let table_ok = self.domains.security.as_ref().is_some_and(SecurityModel::table_authentic);
        self.recovery_interrupt(RecoveryStep::VerifyMacs, t, *verdict)?;
        steps.push((RecoveryStep::VerifyMacs, t));
        if mac_ok && table_ok {
            return Ok(t);
        }

        let root_torn = self.domains.security.as_ref().is_some_and(SecurityModel::root_is_torn);
        let penult_ok = mac_ok || self.penult.verifies(key);
        // Either outcome commits through the WAL first — intent, act,
        // seal — so an interruption leaves a torn record the next attempt
        // detects and redoes, never a half-applied fallback or reset.
        t = self.recovery_wal_commit(t, *verdict)?;
        // Sealed: count the detection exactly once — a restarted attempt
        // after the seal finds healed state and detects nothing, so these
        // ledgers never double-count.
        self.stats.security.tampers_detected += 1;
        if root_torn {
            self.stats.security.classified_torn += 1;
        } else if media_caught {
            self.stats.security.classified_media += 1;
        } else {
            // A rolled-back counter table (replay attack) or a content
            // forgery: deliberate tampering either way.
            self.stats.security.classified_tamper += 1;
        }
        if media_caught {
            // The MAC caught what the absent CRCs could not; the fallback
            // makes the faulted image unreachable.
            self.domains.injected_media.clear();
        }
        if penult_ok {
            // Degrade to `C_penult` exactly as CRC failures do, re-deriving
            // and re-sealing the counter table from the surviving
            // authenticated image.
            self.fall_back_to_penult();
            if let Some(sec) = self.domains.security.as_mut() {
                sec.heal_table();
            }
            self.stats.security.verify_fallbacks += 1;
            verdict.integrity_fallback = true;
        } else {
            // Both images fail authentication: replaying either would hand
            // unauthenticated (possibly attacker-chosen) data to software.
            // Reset both images to the provably empty one and surface the
            // error instead. The durable rungs stay: the health record is
            // separate NVM state the forgery did not touch.
            self.last = Checkpoint { rung: self.last.rung, ..Checkpoint::empty(key) };
            self.penult = Checkpoint { rung: self.penult.rung, ..Checkpoint::empty(key) };
            self.btt = Btt::new(self.cfg.thynvm.btt_entries);
            self.ptt = Ptt::new(self.cfg.thynvm.ptt_entries.min(self.cfg.thynvm.dram_pages() as usize));
            self.epoch.completed = 0;
            if let Some(sec) = self.domains.security.as_mut() {
                sec.reset();
            }
            self.stats.security.unrecoverable += 1;
            self.report(Error::IntegrityUnrecoverable { epoch: self.epoch.active_epoch });
            verdict.unrecoverable = true;
        }
        steps.push((RecoveryStep::IntegrityFallback, t));
        Ok(t)
    }

    // ------------------------------------------------------------------
    // Health ladder
    // ------------------------------------------------------------------

    /// Samples the observable health signals from state the controller
    /// already maintains (no device traffic, no cycles charged).
    fn health_signals(&self) -> HealthSignals {
        let unmapped = |(addr, _): &(u64, u8)| !self.domains.bad_blocks.contains_key(&(addr & !(BLOCK_BYTES - 1)));
        let scrub_backlog = self.domains.media.as_ref().map_or(0, |f| f.stuck_cells().filter(unmapped).count() as u64);
        HealthSignals {
            spares_used: self.domains.next_spare_slot,
            spares_total: self.cfg.media.spare_blocks,
            retries_total: self.stats.media.retries,
            refetches_total: self.stats.dram.refetch_retries + self.stats.dram.corrected_flips,
            spare_exhausted_total: self.stats.media.spare_exhausted,
            wal_redos_total: self.stats.media.wal_redos,
            scrub_backlog,
            outstanding_poison: self.domains.dram.as_ref().map_or(0, |e| e.outstanding() as u64),
            tampers_detected_total: self.stats.security.tampers_detected,
        }
    }
}
