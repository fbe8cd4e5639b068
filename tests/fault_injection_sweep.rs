//! Exhaustive crash-point sweep validated against the persistence oracle.
//!
//! A fixed, deterministic workload runs once without faults to learn the
//! controller's checkpoint timeline and to build a [`PersistenceOracle`]
//! (the pure three-version model of §3.2/§4.5: `W_active` lost, `C_last`
//! wins iff its commit record persisted, else `C_penult`). The sweep then
//! replays the identical workload on a fresh controller once per crash
//! cycle in a window spanning a complete checkpoint — execution phase,
//! block drain, BTT persist, page writebacks, finalize, and the execution
//! phase after — and diffs the recovered image byte-for-byte against the
//! oracle's prediction for that exact cycle.
//!
//! Acceptance (ISSUE): at least 1000 distinct injected crash cycles, every
//! one recovering to an oracle-identical `C_last` or `C_penult` image.

use std::collections::BTreeSet;

use thynvm::core::{InjectedCrash, MediaFault, PersistenceOracle, ThyNvm};
use thynvm::types::{
    CkptPhase, Cycle, MediaFaultConfig, MemorySystem, PhysAddr, RecoveryOutcome,
    SystemConfig,
};

/// One step of the deterministic workload.
#[derive(Debug, Clone)]
enum Op {
    /// Write `len` bytes of `fill` at `addr`.
    Write { addr: u64, len: usize, fill: u8 },
    /// End the epoch (checkpoint start; execution overlaps the job).
    Checkpoint,
    /// Let simulated time pass.
    Advance { cycles: u64 },
}

const PAGE: u64 = 4096;

/// A fixed workload exercising both checkpointing schemes across five
/// epochs: dense page-local writes (page writeback / PTT) plus scattered
/// block-aligned writes (block remapping / BTT), with overwrites so each
/// checkpoint image is distinct.
fn workload() -> Vec<Op> {
    let mut ops = Vec::new();
    for epoch in 0u64..5 {
        // Dense: rewrite the same four pages several times every epoch —
        // hot enough to cross the §4.2 promotion threshold, so these pages
        // enter the page-writeback scheme and the checkpoint has a real
        // PageWriteback phase.
        for rep in 0..4u64 {
            for page in 0..4u64 {
                for blk in 0..8u64 {
                    ops.push(Op::Write {
                        addr: page * PAGE + blk * 64,
                        len: 64,
                        fill: (1 + epoch * 40 + page * 9 + blk + rep * 3) as u8,
                    });
                }
            }
        }
        // Sparse: a fresh scatter of single blocks every epoch (block-cold).
        for i in 0..12u64 {
            let block = (i * 17 + epoch * 5) % 96;
            ops.push(Op::Write {
                addr: 8 * PAGE + block * 64,
                len: 8,
                fill: (100 + epoch * 13 + i) as u8,
            });
        }
        ops.push(Op::Checkpoint);
        // Give the early checkpoints room to complete; keep the later ones
        // overlapped with the next epoch's execution.
        if epoch < 2 {
            ops.push(Op::Advance { cycles: 400_000 });
        }
    }
    // Tail: time for the last checkpoint, then uncheckpointed W_active
    // writes that no recovery may ever surface.
    ops.push(Op::Advance { cycles: 2_000_000 });
    for blk in 0..8u64 {
        ops.push(Op::Write { addr: blk * 64, len: 64, fill: 0xEE });
    }
    ops
}

/// Applies one op, returning the advanced timeline.
fn apply(sys: &mut ThyNvm, op: &Op, now: Cycle) -> Cycle {
    match op {
        Op::Write { addr, len, fill } => {
            let data = vec![*fill; *len];
            now.max(sys.store_bytes(PhysAddr::new(*addr), &data, now))
        }
        Op::Checkpoint => now.max(sys.force_checkpoint(now)),
        Op::Advance { cycles } => now + Cycle::new(*cycles),
    }
}

/// Checkpoint timeline learned from the fault-free reference run.
#[derive(Debug, Clone, Copy)]
struct CkptTimes {
    started: Cycle,
    drained_at: Cycle,
    btt_at: Cycle,
    pages_at: Cycle,
    done_at: Cycle,
}

/// Runs the workload fault-free, feeding the oracle; returns the oracle,
/// each checkpoint's timeline, and the end-of-workload cycle.
fn reference_run(ops: &[Op], cfg: SystemConfig) -> (PersistenceOracle, Vec<CkptTimes>, Cycle) {
    let mut sys = ThyNvm::new(cfg);
    let mut oracle = PersistenceOracle::new();
    let mut ckpts = Vec::new();
    let mut now = Cycle::ZERO;
    for op in ops {
        if let Op::Write { addr, len, fill } = op {
            oracle.record_write(*addr, &vec![*fill; *len]);
        }
        let before = now;
        now = apply(&mut sys, op, now);
        if matches!(op, Op::Checkpoint) {
            // The image is cut off at initiation; the checkpoint only
            // counts for crashes at or after its completion cycle.
            let times = match sys.epoch_state().job.as_ref() {
                Some(j) => CkptTimes {
                    started: j.started,
                    drained_at: j.drained_at,
                    btt_at: j.btt_at,
                    pages_at: j.pages_at,
                    done_at: j.done_at,
                },
                // Round retired synchronously within the call.
                None => CkptTimes {
                    started: before,
                    drained_at: now,
                    btt_at: now,
                    pages_at: now,
                    done_at: now,
                },
            };
            oracle.record_checkpoint(times.started, times.done_at);
            ckpts.push(times);
        }
    }
    (oracle, ckpts, now)
}

/// Replays the workload with a crash armed at `at` (and optionally a
/// latent media fault injected up front); returns the crash record (firing
/// at end-of-trace if no op reached the armed cycle) and the controller,
/// post-recovery.
fn replay_with_crash(
    ops: &[Op],
    cfg: SystemConfig,
    inject: Option<MediaFault>,
    at: Cycle,
) -> (InjectedCrash, ThyNvm) {
    let mut sys = ThyNvm::new(cfg);
    if let Some(fault) = inject {
        sys.inject_media_fault(fault);
    }
    sys.arm_crash_point(at);
    let mut now = Cycle::ZERO;
    for op in ops {
        now = apply(&mut sys, op, now);
        if let Some(crash) = sys.take_crash_report() {
            return (crash, sys);
        }
    }
    // The armed cycle lies beyond every request's timeline: power fails
    // with the system idle at the end of the trace (poll strictly past the
    // armed cycle — power fails at its *end*).
    sys.poll_crash(now.max(at) + Cycle::new(1));
    let crash = sys.take_crash_report().expect("armed crash must fire");
    (crash, sys)
}

/// Byte-for-byte oracle check of one injected crash. Panics with a
/// diagnostic on the first divergent byte.
fn verify_against_oracle(oracle: &PersistenceOracle, crash: &InjectedCrash, sys: &mut ThyNvm) {
    let at = crash.event.cycle;
    let t = crash.resume_at;
    let diffs = oracle.diff(at, |addr| {
        let mut buf = [0u8; 1];
        sys.load_bytes(PhysAddr::new(addr), &mut buf, t);
        buf[0]
    });
    assert!(
        diffs.is_empty(),
        "crash at {at} (phase {}, outcome {}): {} divergent byte(s), first {:?}",
        crash.event.phase,
        crash.event.outcome,
        diffs.len(),
        diffs.first()
    );
    assert_eq!(
        crash.event.outcome,
        oracle.expected_outcome_at(at),
        "crash at {at}: controller outcome disagrees with the §4.5 label"
    );
}

/// The tentpole sweep: ≥ 1000 distinct crash cycles across a window
/// spanning a complete checkpoint, each recovery oracle-identical.
#[test]
fn sweep_every_cycle_across_a_checkpoint_recovers_oracle_identical() {
    let ops = workload();
    let (oracle, ckpts, _end) = reference_run(&ops, SystemConfig::small_test());
    assert_eq!(ckpts.len(), 5, "workload must reach all five checkpoints");

    // Sweep across the third checkpoint: by then both schemes carry state
    // from two completed checkpoints, so C_penult is a real image rather
    // than zeroes.
    let target = ckpts[2];
    let lead = Cycle::new(300); // execution phase before the job
    let tail = Cycle::new(300); // execution phase after completion
    let window_start = target.started.saturating_sub(lead);
    let window_end = target.done_at + tail;
    let span = window_end.raw() - window_start.raw();

    // Inject at every cycle when the window is small; otherwise stride so
    // the sweep stays ~2000 points but always hit every phase boundary
    // (and its neighbours) exactly.
    let stride = (span / 2000).max(1);
    let mut cycles: BTreeSet<u64> = (window_start.raw()..=window_end.raw())
        .step_by(usize::try_from(stride).unwrap())
        .collect();
    for edge in [
        target.started,
        target.drained_at,
        target.btt_at,
        target.pages_at,
        target.done_at,
    ] {
        for c in edge.raw().saturating_sub(1)..=edge.raw() + 1 {
            if (window_start.raw()..=window_end.raw()).contains(&c) {
                cycles.insert(c);
            }
        }
    }
    assert!(
        cycles.len() >= 1000,
        "sweep window too narrow: {} cycles (span {span}, stride {stride})",
        cycles.len()
    );

    let mut phases_seen = BTreeSet::new();
    let mut outcomes_seen = BTreeSet::new();
    for &c in &cycles {
        let (crash, mut sys) = replay_with_crash(&ops, SystemConfig::small_test(), None, Cycle::new(c));
        assert_eq!(crash.event.cycle, Cycle::new(c), "crash must run as of the armed cycle");
        verify_against_oracle(&oracle, &crash, &mut sys);
        assert_eq!(sys.stats().crashes_injected, 1);
        phases_seen.insert(format!("{}", crash.event.phase));
        outcomes_seen.insert(crash.event.outcome);
    }

    // The window must have genuinely spanned the checkpoint: every
    // Figure 6(b) phase with a nonzero window in the reference timeline
    // was hit, plus execution on both sides.
    let mut expected_phases = BTreeSet::new();
    expected_phases.insert(format!("{}", CkptPhase::Execution));
    for (phase, lo, hi) in [
        (CkptPhase::DrainBlocks, target.started, target.drained_at),
        (CkptPhase::PersistBtt, target.drained_at, target.btt_at),
        (CkptPhase::PageWriteback, target.btt_at, target.pages_at),
        (CkptPhase::Finalize, target.pages_at, target.done_at),
    ] {
        if lo < hi {
            expected_phases.insert(format!("{phase}"));
        }
    }
    assert!(
        phases_seen.is_superset(&expected_phases),
        "phases hit {phases_seen:?} missing some of {expected_phases:?}"
    );
    assert!(expected_phases.len() >= 4, "checkpoint degenerate: {expected_phases:?}");
    assert!(outcomes_seen.contains(&RecoveryOutcome::CLast));
    assert!(outcomes_seen.contains(&RecoveryOutcome::CPenult));
}

/// Crashing in the execution tail — after the final checkpoint completed,
/// with fresh uncheckpointed writes in flight — always recovers `C_last`
/// and never surfaces the `0xEE` tail writes.
#[test]
fn tail_crashes_recover_clast_and_never_leak_wactive() {
    let ops = workload();
    let (oracle, ckpts, end) = reference_run(&ops, SystemConfig::small_test());
    let last_done = ckpts.last().unwrap().done_at;
    let span = end.raw().saturating_sub(last_done.raw()).max(64);
    for i in 0..64u64 {
        let c = last_done.raw() + 1 + i * (span / 64).max(1);
        let (crash, mut sys) = replay_with_crash(&ops, SystemConfig::small_test(), None, Cycle::new(c));
        verify_against_oracle(&oracle, &crash, &mut sys);
        assert_eq!(crash.event.outcome, RecoveryOutcome::CLast);
        // Spot-check: the W_active tail fill never survives.
        let mut buf = [0u8; 1];
        sys.load_bytes(PhysAddr::new(0), &mut buf, crash.resume_at);
        assert_ne!(buf[0], 0xEE, "uncheckpointed tail write leaked at crash {c}");
    }
}

/// Crashes injected before the first checkpoint completes recover the
/// all-zero initial image (`C_penult` chain bottoms out at zeroes).
#[test]
fn crashes_before_first_commit_recover_zeroes() {
    let ops = workload();
    let (oracle, ckpts, _) = reference_run(&ops, SystemConfig::small_test());
    let first_done = ckpts[0].done_at.raw();
    let stride = (first_done / 200).max(1);
    for c in (0..first_done).step_by(usize::try_from(stride).unwrap()) {
        let (crash, mut sys) = replay_with_crash(&ops, SystemConfig::small_test(), None, Cycle::new(c));
        verify_against_oracle(&oracle, &crash, &mut sys);
        assert_eq!(crash.report.recovered_checkpoints, 0, "crash at {c}");
    }
}

/// Configuration for the media-fault sweep: hardened integrity protection
/// with wear faults armed (low stuck-at threshold), but no random transient
/// flips — wear-driven stuck cells are healed operationally (retry, remap,
/// scrub), so they never change recovery outcomes and the pure oracle
/// stays exact.
fn media_sweep_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::small_test();
    cfg.media = MediaFaultConfig::hardened();
    cfg.media.stuck_at_threshold = 24;
    cfg.validate().expect("valid media sweep config");
    cfg
}

/// Combined sweep (ISSUE satellite): crash cycles × latent media faults —
/// torn commit record, `C_last` data bit flip, corrupted PTT metadata.
/// Each recovery must match the *extended* oracle: when a completed
/// checkpoint exists the injected fault voids `C_last` and the recovered
/// image must equal `C_penult` byte-for-byte, labeled as an integrity
/// fallback; before any commit the plain oracle applies. Afterwards all
/// four fault kinds must have been observed, summed over every run.
#[test]
fn combined_media_fault_sweep_matches_extended_oracle() {
    let ops = workload();
    let cfg = media_sweep_cfg();
    // Reference run under the SAME config: integrity checking perturbs
    // metadata sizes, so the checkpoint timeline differs from the plain
    // sweep's. The latent faults themselves do not perturb timing.
    let (oracle, ckpts, _end) = reference_run(&ops, cfg);
    assert_eq!(ckpts.len(), 5);

    let target = ckpts[2];
    let window_start = target.started.saturating_sub(Cycle::new(200));
    let window_end = target.done_at + Cycle::new(200);
    let span = window_end.raw() - window_start.raw();
    let stride = (span / 40).max(1);
    let cycles: Vec<u64> =
        (window_start.raw()..=window_end.raw()).step_by(usize::try_from(stride).unwrap()).collect();
    assert!(cycles.len() >= 40, "sweep window too narrow: {}", cycles.len());

    let faults = [
        MediaFault::TornCommitRecord,
        MediaFault::ClastBitFlip { addr: 0 },
        MediaFault::CorruptPttMetadata,
    ];
    // Media counters summed over every run: torn writes, bit flips,
    // metadata corruptions, stuck cells and CRC-checked blocks.
    let mut seen = [0u64; 5];
    let mut fallbacks_seen = 0u64;
    for fault in faults {
        for &c in &cycles {
            let (crash, mut sys) = replay_with_crash(&ops, cfg, Some(fault), Cycle::new(c));
            let at = crash.event.cycle;
            let expected = oracle.expected_outcome_with_corrupt_clast(at);
            assert_eq!(
                crash.event.outcome, expected,
                "crash at {at} with {fault:?}: outcome disagrees with extended oracle"
            );
            let t = crash.resume_at;
            let diffs = oracle.diff_with_corrupt_clast(at, |addr| {
                let mut buf = [0u8; 1];
                sys.load_bytes(PhysAddr::new(addr), &mut buf, t);
                buf[0]
            });
            assert!(
                diffs.is_empty(),
                "crash at {at} with {fault:?}: {} divergent byte(s), first {:?}",
                diffs.len(),
                diffs.first()
            );
            if crash.report.integrity_fallback {
                fallbacks_seen += 1;
                assert_eq!(expected, RecoveryOutcome::CPenultIntegrityFallback);
            }
            let m = &sys.stats().media;
            let run = [m.torn_writes, m.bit_flips, m.meta_corruptions, m.stuck_faults, m.crc_checked_blocks];
            for (total, n) in seen.iter_mut().zip(run) {
                *total += n;
            }
        }
    }

    assert!(fallbacks_seen > 0, "sweep never exercised an integrity fallback");
    let [torn, flips, meta, stuck, crc] = seen;
    assert!(torn > 0, "no torn-write faults observed: {seen:?}");
    assert!(flips > 0, "no bit-flip faults observed: {seen:?}");
    assert!(meta > 0, "no metadata faults observed: {seen:?}");
    assert!(stuck > 0, "wear model never created a stuck cell: {seen:?}");
    assert!(crc > 0);
}

/// A torn commit record always lands in `C_penult`: for every crash cycle
/// after the first commit, recovery with [`MediaFault::TornCommitRecord`]
/// armed must report an integrity fallback and restore the penultimate
/// image — never the (torn) last one.
#[test]
fn torn_commit_record_always_recovers_cpenult() {
    let ops = workload();
    let cfg = media_sweep_cfg();
    let (oracle, ckpts, end) = reference_run(&ops, cfg);
    let first_done = ckpts[0].done_at;
    let span = end.raw() - first_done.raw();
    for i in 0..48u64 {
        let c = first_done.raw() + 1 + i * (span / 48).max(1);
        let (crash, mut sys) =
            replay_with_crash(&ops, cfg, Some(MediaFault::TornCommitRecord), Cycle::new(c));
        let at = crash.event.cycle;
        if crash.report.recovered_checkpoints == 0 && !crash.report.integrity_fallback {
            // The crash replay landed before any commit (timeline shifts
            // are impossible here, but keep the guard explicit).
            continue;
        }
        assert!(
            crash.report.integrity_fallback,
            "crash at {at}: torn commit record must void C_last"
        );
        assert_eq!(crash.event.outcome, RecoveryOutcome::CPenultIntegrityFallback);
        let t = crash.resume_at;
        let diffs = oracle.diff_with_corrupt_clast(at, |addr| {
            let mut buf = [0u8; 1];
            sys.load_bytes(PhysAddr::new(addr), &mut buf, t);
            buf[0]
        });
        assert!(diffs.is_empty(), "crash at {at}: {} divergent byte(s)", diffs.len());
    }
}
