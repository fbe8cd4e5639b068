//! The fixture corpus: one known-bad snippet per rule plus a clean
//! near-miss file, pinned to exact rule IDs and line numbers, and the
//! baseline round trip (suppression, stale detection, justification
//! enforcement) through the public `run()` entry point.
//!
//! The fixtures live under `tests/fixtures/`, which [`thynvm_lint::run`]
//! never descends into — they are lint *inputs*, not workspace code.

use thynvm_lint::baseline;
use thynvm_lint::rules::{check_all, Diagnostic};
use thynvm_lint::source::FileIndex;

fn lint_one(rel: &str, src: &str) -> Vec<Diagnostic> {
    check_all(&[FileIndex::parse(rel, src)])
}

/// (rule, line) pairs in the engine's deterministic order.
fn keyed(diags: &[Diagnostic]) -> Vec<(&'static str, u32)> {
    diags.iter().map(|d| (d.rule, d.line)).collect()
}

#[test]
fn l1_fixture_flags_the_rogue_store_write() {
    let diags =
        lint_one("crates/core/src/rogue.rs", include_str!("fixtures/l1_rogue_store.rs"));
    assert_eq!(keyed(&diags), vec![("L1", 10)], "{diags:?}");
    assert!(diags[0].msg.contains("committed.write"), "{}", diags[0].msg);
}

#[test]
fn l2_fixture_flags_every_panic_class_in_scope_only() {
    let diags =
        lint_one("crates/core/src/replay.rs", include_str!("fixtures/l2_panicky_recovery.rs"));
    // Literal index, unwrap, bare expect, panic! in the name-scoped fn;
    // unwrap in the annotation-scoped fn; nothing from `out_of_scope`.
    assert_eq!(
        keyed(&diags),
        vec![("L2", 6), ("L2", 7), ("L2", 8), ("L2", 10), ("L2", 17)],
        "{diags:?}"
    );
}

#[test]
fn l3_fixture_flags_dead_and_unverified_counters() {
    let diags = lint_one("crates/types/src/stats.rs", include_str!("fixtures/l3_stats.rs"));
    // `dead_counter` (line 7) is both dead (only `merge` writes it) and
    // unverified; `untested_counter` (line 8) is mutated but never asserted.
    assert_eq!(keyed(&diags), vec![("L3", 7), ("L3", 7), ("L3", 8)], "{diags:?}");
    assert!(diags.iter().any(|d| d.msg.contains("dead counter `MemStats::dead_counter`")));
    assert!(diags.iter().any(|d| d.msg.contains("unverified counter `MemStats::dead_counter`")));
    assert!(diags.iter().any(|d| d.msg.contains("unverified counter `MemStats::untested_counter`")));
}

#[test]
fn l4_fixture_flags_unconstructed_and_untested_variants() {
    let files = [
        FileIndex::parse("crates/types/src/error.rs", include_str!("fixtures/l4_error_enum.rs")),
        FileIndex::parse("crates/core/src/faults.rs", include_str!("fixtures/l4_error_user.rs")),
    ];
    let diags = check_all(&files);
    // `NeverBuilt` (line 7) has neither a production construction nor a
    // test match; `NeverTested` (line 8) is built but never matched.
    assert_eq!(keyed(&diags), vec![("L4", 7), ("L4", 7), ("L4", 8)], "{diags:?}");
    assert!(diags.iter().all(|d| d.file == "crates/types/src/error.rs"));
    assert!(diags[2].msg.contains("`Error::NeverTested` is never matched"), "{}", diags[2].msg);
}

#[test]
fn l5_fixture_flags_the_unchecked_numeric_field_only() {
    let diags = lint_one("crates/types/src/config.rs", include_str!("fixtures/l5_config.rs"));
    assert_eq!(keyed(&diags), vec![("L5", 7)], "{diags:?}");
    assert!(diags[0].msg.contains("`ThyNvmConfig::unchecked_knob`"), "{}", diags[0].msg);
}

#[test]
fn l6_fixture_flags_both_hand_rolled_backoff_loops() {
    let diags =
        lint_one("crates/core/src/spinner.rs", include_str!("fixtures/l6_manual_backoff.rs"));
    // Knob-on-the-left and multiplier-on-the-left variants; the policy
    // pass-through and the test module's by-hand schedule stay clean.
    assert_eq!(keyed(&diags), vec![("L6", 8), ("L6", 17)], "{diags:?}");
    assert!(diags[0].msg.contains("retry_backoff_ns"), "{}", diags[0].msg);
    assert!(diags[1].msg.contains("refetch_backoff_ns"), "{}", diags[1].msg);

    // The same multiplication inside the policy's own file is sanctioned.
    let diags =
        lint_one("crates/types/src/retry.rs", include_str!("fixtures/l6_manual_backoff.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn l7_fixture_flags_post_seal_backup_write_and_security_call() {
    let diags =
        lint_one("crates/core/src/commitpath.rs", include_str!("fixtures/l7_post_seal_backup.rs"));
    // Direct backup write after the line-8 commit-record seal, then a call
    // whose transitive effects touch the security root. The near-miss
    // (commit-record read + WAL-sealed spare remap after the seal) is silent.
    assert_eq!(keyed(&diags), vec![("L7", 9), ("L7", 10)], "{diags:?}");
    assert!(diags[0].msg.contains("`backup` write after the commit-record seal"), "{}", diags[0].msg);
    assert!(diags[1].msg.contains("`stamp_root`"), "{}", diags[1].msg);
    assert!(diags[1].msg.contains("security_root"), "{}", diags[1].msg);
}

#[test]
fn l8_fixture_flags_transitive_unsealed_recovery_write() {
    let diags =
        lint_one("crates/core/src/redopath.rs", include_str!("fixtures/l8_unsealed_recovery.rs"));
    // The write lives in `restore_ptt`, reached only through the
    // `recover_tables` entry point — the diagnostic proves transitivity.
    // The WAL-bracketed near-miss `redo_remap` is silent.
    assert_eq!(keyed(&diags), vec![("L8", 9)], "{diags:?}");
    assert!(diags[0].msg.contains("`restore_ptt`"), "{}", diags[0].msg);

    // Outside the recovery machinery crates the same code is not an L8
    // entry (a bench fn *measuring* recovery may checkpoint freely).
    let diags =
        lint_one("crates/bench/src/redopath.rs", include_str!("fixtures/l8_unsealed_recovery.rs"));
    assert!(diags.iter().all(|d| d.rule != "L8"), "{diags:?}");
}

#[test]
fn l8_mutation_moving_the_seal_before_the_payload_is_caught() {
    // Mutate the *clean* near-miss: move the payload write of `redo_remap`
    // after the WAL seal. The bracket no longer covers it, so the rule
    // must produce a fresh diagnostic at the payload's new line.
    let src = include_str!("fixtures/l8_unsealed_recovery.rs");
    let mut lines: Vec<&str> = src.lines().collect();
    let payload = lines.iter().position(|l| l.contains("// payload")).expect("payload line");
    let counter = lines.iter().position(|l| l.contains("// seal counter")).expect("seal line");
    assert!(payload < counter, "fixture starts correctly bracketed");
    let moved = lines.remove(payload);
    lines.insert(counter, moved); // counter shifted down by the removal
    let mutated = lines.join("\n");
    // The payload now sits at 0-based index `counter` (one past the seal
    // counter, which slid down when the payload was removed above it).
    let new_line = u32::try_from(counter + 1).expect("small fixture");

    let diags = lint_one("crates/core/src/redopath.rs", &mutated);
    assert_eq!(keyed(&diags), vec![("L8", 9), ("L8", new_line)], "{diags:?}");
    assert!(diags[1].msg.contains("`redo_remap`"), "{}", diags[1].msg);
}

#[test]
fn l9_fixture_flags_interior_mutability_and_shared_borrow_store_write() {
    let diags = lint_one(
        "crates/mem/src/smuggle.rs",
        include_str!("fixtures/l9_interior_mutability.rs"),
    );
    // `RefCell` import at line 4, store mutation behind `&self` at line 7.
    // The `&mut self` near-miss and the test-module `Cell` are silent.
    assert_eq!(keyed(&diags), vec![("L9", 4), ("L9", 7)], "{diags:?}");
    assert!(diags[0].msg.contains("RefCell"), "{}", diags[0].msg);
    assert!(diags[1].msg.contains("`peek_write`"), "{}", diags[1].msg);

    // The same file outside the audited crates is out of scope for the
    // interior-mutability scan (the `&self` store write stays flagged:
    // store confinement is workspace-wide; the raw-store L1 rule fires
    // there too, which is its own business).
    let diags = lint_one(
        "crates/bench/src/smuggle.rs",
        include_str!("fixtures/l9_interior_mutability.rs"),
    );
    let l9: Vec<_> = diags.iter().filter(|d| d.rule == "L9").map(|d| d.line).collect();
    assert_eq!(l9, vec![7], "{diags:?}");
}

#[test]
fn l10_fixture_flags_unfenced_commit_and_root_persists() {
    let diags = lint_one(
        "crates/core/src/fencepath.rs",
        include_str!("fixtures/l10_unfenced_commit.rs"),
    );
    // Unfenced seal at line 6, unfenced security root at line 10. The
    // fence-dominated near-miss and the plain-metadata write are silent.
    assert_eq!(keyed(&diags), vec![("L10", 6), ("L10", 10)], "{diags:?}");
    assert!(diags[0].msg.contains("commit_record"), "{}", diags[0].msg);
    assert!(diags[1].msg.contains("security_root"), "{}", diags[1].msg);

    // Baselines have no persist buffer: the same file there is L10-silent.
    let diags = lint_one(
        "crates/baselines/src/fencepath.rs",
        include_str!("fixtures/l10_unfenced_commit.rs"),
    );
    assert!(diags.iter().all(|d| d.rule != "L10"), "{diags:?}");
}

#[test]
fn l10_mutation_moving_the_fence_after_the_seal_is_caught() {
    // Mutate the *clean* near-miss: move `seal_with_fence`'s fence below
    // its commit-record persist. The seal is no longer fence-dominated, so
    // the rule must produce a fresh diagnostic at the seal's new line.
    let src = include_str!("fixtures/l10_unfenced_commit.rs");
    let mut lines: Vec<&str> = src.lines().collect();
    let fence = lines.iter().position(|l| l.contains("// fence")).expect("fence line");
    let seal = lines.iter().position(|l| l.contains("// seal")).expect("seal line");
    assert!(fence < seal, "fixture starts fence-dominated");
    let moved = lines.remove(fence);
    lines.insert(seal, moved); // seal slid up by the removal
    let mutated = lines.join("\n");
    // The seal now sits one line higher; 0-based index `seal - 1`.
    let new_line = u32::try_from(seal).expect("small fixture");

    let diags = lint_one("crates/core/src/fencepath.rs", &mutated);
    assert_eq!(keyed(&diags), vec![("L10", 6), ("L10", 10), ("L10", new_line)], "{diags:?}");
    assert!(diags[2].msg.contains("seal_with_fence"), "{}", diags[2].msg);
}

#[test]
fn write_primitive_calls_seed_l8_and_l10() {
    let diags =
        lint_one("crates/core/src/primitive.rs", include_str!("fixtures/write_primitive.rs"));
    // Only the region-constructor argument of `nvm_write(..)` reveals what
    // these bodies write: the unfenced commit record (line 8, L10) and the
    // unbracketed PTT image on the `recover_tables` path (line 12, L8). The
    // fenced and the WAL-bracketed near-misses are silent.
    assert_eq!(keyed(&diags), vec![("L10", 8), ("L8", 12)], "{diags:?}");
    assert!(diags[0].msg.contains("commit_record"), "{}", diags[0].msg);
    assert!(diags[0].msg.contains("commit_without_fence"), "{}", diags[0].msg);
    assert!(diags[1].msg.contains("`backup` write in `recover_tables`"), "{}", diags[1].msg);
}

#[test]
fn checkpoint_image_writes_are_confined_to_the_allowlist() {
    let diags = lint_one(
        "crates/core/src/controller.rs",
        include_str!("fixtures/checkpoint_image.rs"),
    );
    // The raw `C_last` image write in `patch_clast` (line 6) escapes the
    // sealed paths; the identical write in `commit_job` is the commit point.
    assert_eq!(keyed(&diags), vec![("L1", 6)], "{diags:?}");
    assert!(diags[0].msg.contains("image.write"), "{}", diags[0].msg);
}

#[test]
fn clean_fixture_produces_no_diagnostics() {
    let diags = lint_one("crates/core/src/clean.rs", include_str!("fixtures/clean.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn effects_dump_is_deterministic_on_the_real_workspace() {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = thynvm_lint::find_root(here).expect("workspace root above crates/lint");
    let first = thynvm_lint::effects_dump(&root).expect("effects dump");
    let second = thynvm_lint::effects_dump(&root).expect("effects dump");
    assert_eq!(first, second, "fixpoint + rendering must be byte-identical across runs");
    // The dump carries the load-bearing rows the ordering rules rest on.
    assert!(first.contains("commit_record"), "checkpoint seal visible in the dump");
    assert!(first.contains("backup_wal"), "WAL discipline visible in the dump");
}

#[test]
fn repo_baseline_entries_are_all_live() {
    // Stale-baseline hygiene: every committed suppression must still match
    // a real diagnostic — in particular the L5 stuck_at_threshold entry.
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = thynvm_lint::find_root(here).expect("workspace root above crates/lint");
    let text = std::fs::read_to_string(root.join("lint.baseline")).expect("baseline readable");
    let entries = baseline::parse(&text).expect("committed baseline parses");
    assert!(
        entries.iter().any(|e| e.rule == "L5"
            && e.file == "crates/types/src/config.rs"
            && e.justification.contains("stuck_at_threshold")),
        "the stuck_at_threshold suppression is still present: {entries:?}"
    );
    let report = thynvm_lint::run(&root, &entries).expect("lint run");
    assert!(report.stale.is_empty(), "stale baseline entries: {:?}", report.stale);
    assert!(report.violations.is_empty(), "workspace must lint clean: {:?}", report.violations);
}

#[test]
fn end_to_end_run_suppresses_with_baseline_and_reports_stale_entries() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_e2e");
    let src_dir = root.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("create fixture tree");
    std::fs::write(src_dir.join("rogue.rs"), include_str!("fixtures/l1_rogue_store.rs"))
        .expect("write fixture");

    // Unsuppressed: the violation fails the run.
    let report = thynvm_lint::run(&root, &[]).expect("lint run");
    assert!(report.is_failure());
    assert_eq!(report.files_scanned, 1);
    assert_eq!(keyed(&report.violations), vec![("L1", 10)]);

    // A justified baseline entry suppresses it: clean.
    let entries = baseline::parse(
        "L1 crates/core/src/rogue.rs:10 — fixture: sealed by the commit record\n",
    )
    .expect("valid baseline");
    let report = thynvm_lint::run(&root, &entries).expect("lint run");
    assert!(!report.is_failure(), "{:?}", report.violations);

    // A stale entry fails the run even when no live violation remains.
    let entries = baseline::parse(
        "L1 crates/core/src/rogue.rs:10 — fixture: sealed by the commit record\n\
         L2 crates/core/src/gone.rs:3 — the file this covered was deleted\n",
    )
    .expect("valid baseline");
    let report = thynvm_lint::run(&root, &entries).expect("lint run");
    assert!(report.is_failure());
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.stale.len(), 1);
    assert_eq!(report.stale[0].rule, "L0");
    assert_eq!(report.stale[0].line, 2, "stale diagnostic points at the baseline line");
}

#[test]
fn cli_emits_json_and_github_annotations_and_distinguishes_exit_codes() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_cli");
    let _ = std::fs::remove_dir_all(&root); // stale state from prior runs
    let src_dir = root.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("create fixture tree");
    std::fs::write(src_dir.join("rogue.rs"), include_str!("fixtures/l1_rogue_store.rs"))
        .expect("write fixture");
    let bin = env!("CARGO_BIN_EXE_thynvm-lint");

    // Violations: exit 1, with JSON lines and problem-matcher annotations.
    let out = std::process::Command::new(bin)
        .arg(&root)
        .args(["--json", "--github"])
        .output()
        .expect("run thynvm-lint");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(
        stdout.contains(r#"{"rule":"L1","file":"crates/core/src/rogue.rs","line":10,"msg":""#),
        "json diagnostic present: {stdout}"
    );
    assert!(
        stdout.contains("::error file=crates/core/src/rogue.rs,line=10,title=thynvm-lint L1::"),
        "github annotation present: {stdout}"
    );

    // A baseline entry without a justification: exit 2 (malformed), before
    // any linting happens.
    std::fs::write(root.join("lint.baseline"), "L1 crates/core/src/rogue.rs:10\n")
        .expect("write baseline");
    let out = std::process::Command::new(bin).arg(&root).output().expect("run thynvm-lint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(stderr.contains("justification"), "{stderr}");

    // The justified entry suppresses the violation: exit 0.
    std::fs::write(
        root.join("lint.baseline"),
        "L1 crates/core/src/rogue.rs:10 — fixture: sealed by the commit record\n",
    )
    .expect("write baseline");
    let out = std::process::Command::new(bin).arg(&root).output().expect("run thynvm-lint");
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // `--effects` prints the dump and exits 0 regardless of diagnostics.
    let out = std::process::Command::new(bin)
        .arg(&root)
        .arg("--effects")
        .output()
        .expect("run thynvm-lint --effects");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let dump = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(
        dump.contains("crates/core/src/rogue.rs::sneak: store"),
        "store effect of the rogue fixture listed: {dump}"
    );
}

#[test]
fn baseline_rejects_entries_without_a_justification() {
    let err = baseline::parse("L1 crates/core/src/rogue.rs:10\n").expect_err("must reject");
    assert!(err.msg.contains("justification"), "{err}");
    assert!(err.to_string().starts_with("lint.baseline:1:"), "{err}");
    // A separator with nothing after it is still no justification.
    assert!(baseline::parse("L1 crates/core/src/rogue.rs:10 —\n").is_err());
}
