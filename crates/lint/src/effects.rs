//! NVM persistence-effect inference.
//!
//! Every production function gets an *effect set*: which persistence
//! regions it can write, directly or through calls. Effects are seeded from
//! two token shapes and propagated over the [`CallGraph`] to a fixpoint:
//!
//! * **Device writes** — `nvm.access(<region>, AccessKind::Write, ..)`,
//!   or a call to the controller's write primitive
//!   `.nvm_write(<region>, <kind>, ..)`, where `<region>` is an
//!   `AddressSpace` region constructor, either inline
//!   (`self.space.backup(8192)`) or through a local binding
//!   (`let wal = self.space.backup_wal(seq); .. nvm_write(wal, ..)`).
//!   `dram.access(.., Write, ..)` is a working-region (volatile) write.
//!   Reads carry no effect; addresses the pass cannot resolve to a tracked
//!   region (checkpoint data regions, home region, raw `HwAddr::new`
//!   offsets) are deliberately untracked — ThyNVM's ordering invariants are
//!   about the *metadata* regions, data regions are covered by the commit
//!   protocol itself.
//! * **Store mutations** — `<receiver>.<mutator>(..)` on a `SparseStore`
//!   field (the L1 pattern), the content-changing side channel.
//!
//! The fixpoint is a monotone bitmask union over a deterministic node
//! order, so two runs over the same workspace emit byte-identical
//! [`render_dump`] output.

use std::collections::BTreeMap;

use crate::graph::CallGraph;
use crate::source::{match_bracket, FileIndex};

/// Effect bits. `REGION_WRITES` covers persisted NVM regions; `STORE` is
/// the byte-content mutation channel (no address, so no ordering rules —
/// only the L9 confinement audit uses it).
pub const WORKING: u16 = 1 << 0;
pub const BACKUP: u16 = 1 << 1;
pub const BACKUP_WAL: u16 = 1 << 2;
pub const COMMIT_RECORD: u16 = 1 << 3;
pub const SECURITY_COUNTERS: u16 = 1 << 4;
pub const SECURITY_TREE: u16 = 1 << 5;
pub const SECURITY_ROOT: u16 = 1 << 6;
pub const SPARE: u16 = 1 << 7;
pub const STORE: u16 = 1 << 8;

/// Label table in render order (alphabetical, so dumps are diff-stable).
const LABELS: &[(u16, &str)] = &[
    (BACKUP, "backup"),
    (BACKUP_WAL, "backup_wal"),
    (COMMIT_RECORD, "commit_record"),
    (SECURITY_COUNTERS, "security_counters"),
    (SECURITY_ROOT, "security_root"),
    (SECURITY_TREE, "security_tree"),
    (SPARE, "spare"),
    (STORE, "store"),
    (WORKING, "working"),
];

/// Renders an effect mask as its sorted comma-separated labels.
pub fn labels(mask: u16) -> String {
    let mut out = Vec::new();
    for (bit, name) in LABELS {
        if mask & bit != 0 {
            out.push(*name);
        }
    }
    out.join(",")
}

/// The label of a single region bit (for diagnostics).
pub fn region_name(bit: u16) -> &'static str {
    LABELS.iter().find(|(b, _)| *b == bit).map_or("?", |(_, n)| n)
}

/// The controller's NVM write primitive (`ThyNvm::nvm_write`): a call whose
/// first argument resolves to a region seeds a device write exactly like
/// `nvm.access(<region>, AccessKind::Write, ..)`.
const WRITE_PRIMITIVE: &str = "nvm_write";

/// `AddressSpace` region constructors → effect bit. `backup(0)` is the
/// commit record — the 64 B at offset zero of the backup region whose
/// checksummed write is the checkpoint's atomic seal; any other `backup(..)`
/// offset is metadata (BTT/PTT images). `health_record()` lives in the
/// backup region too.
fn constructor_region(name: &str) -> Option<u16> {
    Some(match name {
        "working_page" | "working_block" => WORKING,
        "backup" => BACKUP, // refined to COMMIT_RECORD by literal-0 peek
        "backup_wal" => BACKUP_WAL,
        "security_counters" => SECURITY_COUNTERS,
        "security_tree" => SECURITY_TREE,
        "security_root" => SECURITY_ROOT,
        "health_record" => BACKUP,
        "spare_block" => SPARE,
        _ => return None,
    })
}

/// One tracked region write inside a function body.
#[derive(Debug, Clone)]
pub struct WriteSite {
    /// Effect bit of the written region.
    pub region: u16,
    /// Token index of the `access` (or write-primitive) ident.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
}

/// Per-function facts, parallel to `CallGraph::nodes`.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// Effects seeded in this body alone.
    pub direct: u16,
    /// Direct ∪ effects of everything reachable through calls (fixpoint).
    pub transitive: u16,
    /// Tracked region writes, in body token order.
    pub writes: Vec<WriteSite>,
    /// `SparseStore` mutator call sites (`(token, line)`).
    pub stores: Vec<(usize, u32)>,
    /// Token indices of WAL intent records (`backup_wal(..)` constructor calls).
    pub wal_begins: Vec<usize>,
    /// Token indices of WAL seals (`wal_seals +=` counter bumps).
    pub wal_seals: Vec<usize>,
    /// Token indices of persist-buffer fences (`.wpq_fence(..)` /
    /// `.fence(..)` calls) — the §4.4 drain points L10 requires before
    /// commit-record and security-root persists.
    pub fences: Vec<usize>,
    /// Whether the signature takes `&mut self`.
    pub mut_self: bool,
}

/// Runs seeding and the fixpoint; returns facts parallel to `graph.nodes`.
pub fn analyze(files: &[FileIndex], graph: &CallGraph) -> Vec<FnFacts> {
    let mut facts: Vec<FnFacts> = graph
        .nodes
        .iter()
        .map(|n| seed_fn(&files[n.file], n.item))
        .collect();

    // Monotone fixpoint: union callee effects until stable. The workspace
    // graph is shallow; this converges in a handful of sweeps.
    for f in &mut facts {
        f.transitive = f.direct;
    }
    loop {
        let mut changed = false;
        for n in 0..graph.nodes.len() {
            let mut acc = facts[n].transitive;
            for call in &graph.nodes[n].calls {
                for &e in &call.edges {
                    acc |= facts[e].transitive;
                }
            }
            if acc != facts[n].transitive {
                facts[n].transitive = acc;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    facts
}

/// Seeds one function body: region writes, store mutations, WAL markers,
/// and the receiver mode.
fn seed_fn(f: &FileIndex, item: usize) -> FnFacts {
    let func = &f.fns[item];
    let toks = &f.tokens;
    let mut facts = FnFacts { mut_self: takes_mut_self(f, item), ..FnFacts::default() };
    let Some(start) = func.body_start else { return facts };
    let end = func.body_end.min(toks.len());

    // Pass 1: `let <name> = .. <region-constructor>(..) .. ;` bindings.
    let mut bindings: BTreeMap<&str, u16> = BTreeMap::new();
    let mut i = start + 1;
    while i + 2 < end {
        if toks[i].kind.is_ident("let") {
            let mut j = i + 1;
            if toks[j].kind.is_ident("mut") {
                j += 1;
            }
            if let Some(name) = toks[j].kind.ident() {
                if toks.get(j + 1).is_some_and(|t| t.is_punct("=")) {
                    // RHS runs to the statement's `;` at bracket depth 0.
                    let mut k = j + 2;
                    let mut depth = 0i32;
                    let mut region = None;
                    while k < end {
                        match &toks[k].kind {
                            crate::lexer::Tok::Punct("(" | "[" | "{") => depth += 1,
                            crate::lexer::Tok::Punct(")" | "]" | "}") => depth -= 1,
                            crate::lexer::Tok::Punct(";") if depth <= 0 => break,
                            _ => {
                                if region.is_none() {
                                    region = constructor_at(toks, k, end);
                                }
                            }
                        }
                        k += 1;
                    }
                    if let Some(r) = region {
                        bindings.insert(name, r);
                    }
                    i = k;
                    continue;
                }
            }
        }
        i += 1;
    }

    // Pass 2: write sites, store mutations, WAL markers.
    for i in start + 1..end.saturating_sub(1) {
        let Some(name) = toks[i].kind.ident() else { continue };

        // WAL intent: a `backup_wal(..)` constructor call anywhere (inline
        // in an access, or establishing the `wal` binding).
        if name == "backup_wal"
            && i >= 1
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
        {
            facts.wal_begins.push(i);
        }
        // WAL seal: the conservation counter bump that the WAL discipline
        // requires after the sealing device write.
        if name == "wal_seals" && toks.get(i + 1).is_some_and(|t| t.is_punct("+=")) {
            facts.wal_seals.push(i);
        }
        // Persist-buffer fence: the controller's `.wpq_fence(..)` wrapper or
        // a direct `.fence(..)` on the buffer — either drains the WPQ.
        if (name == "wpq_fence" || name == "fence")
            && i >= 1
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
        {
            facts.fences.push(i);
        }

        // Store mutation: `<receiver>.<mutator>(..)` (the L1 shape).
        if i >= 2
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
            && crate::rules::STORE_MUTATORS.contains(&name)
            && toks[i - 2]
                .kind
                .ident()
                .is_some_and(|r| crate::rules::STORE_RECEIVERS.contains(&r))
        {
            facts.direct |= STORE;
            facts.stores.push((i, toks[i].line));
        }

        // Device access: `nvm.access(..)` / `dram.access(..)`, or a call to
        // the controller's write primitive `.nvm_write(<region>, ..)`,
        // which is always a write.
        let primitive = name == WRITE_PRIMITIVE && i >= 1 && toks[i - 1].is_punct(".");
        if (primitive || (name == "access" && crate::graph::is_device_receiver(f, i)))
            && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
        {
            let open = i + 1;
            let close = match_bracket(toks, open);
            let is_write = primitive
                || toks[open..=close.min(toks.len() - 1)].iter().any(|t| t.kind.is_ident("Write"));
            if !is_write {
                continue;
            }
            let receiver = toks[i - 2].kind.ident().unwrap_or_default();
            let region = if !primitive && receiver == "dram" {
                Some(WORKING)
            } else {
                first_arg_region(toks, open, close, &bindings)
            };
            if let Some(r) = region {
                facts.direct |= r;
                facts.writes.push(WriteSite { region: r, tok: i, line: toks[i].line });
            }
        }
    }
    facts
}

/// Resolves an `access` call's first argument to a region: an inline
/// constructor call, or a single identifier looked up in the local
/// `let`-bindings.
fn first_arg_region(
    toks: &[crate::lexer::Token],
    open: usize,
    close: usize,
    bindings: &BTreeMap<&str, u16>,
) -> Option<u16> {
    // First argument spans `open+1 ..` up to the first top-level comma.
    let mut depth = 0i32;
    let mut arg_end = close;
    for (k, t) in toks.iter().enumerate().take(close).skip(open + 1) {
        match &t.kind {
            crate::lexer::Tok::Punct("(" | "[" | "{") => depth += 1,
            crate::lexer::Tok::Punct(")" | "]" | "}") => depth -= 1,
            crate::lexer::Tok::Punct(",") if depth <= 0 => {
                arg_end = k;
                break;
            }
            _ => {}
        }
    }
    // Inline constructor inside the argument?
    for k in open + 1..arg_end {
        if let Some(r) = constructor_at(toks, k, arg_end) {
            return Some(r);
        }
    }
    // A lone identifier: a local binding established from a constructor.
    if arg_end == open + 2 {
        if let Some(name) = toks[open + 1].kind.ident() {
            return bindings.get(name).copied();
        }
    }
    None
}

/// A region-constructor method call at token `k` (`.name(..)`), with the
/// `backup(0)` → commit-record refinement.
fn constructor_at(toks: &[crate::lexer::Token], k: usize, limit: usize) -> Option<u16> {
    let name = toks[k].kind.ident()?;
    let base = constructor_region(name)?;
    if !(k >= 1 && toks[k - 1].is_punct(".")) {
        return None;
    }
    if !toks.get(k + 1).is_some_and(|t| t.is_punct("(")) {
        return None;
    }
    if base == BACKUP && name == "backup" {
        // `backup(0)` is the commit record; any other offset is metadata.
        let is_zero = toks.get(k + 2).is_some_and(|t| matches!(&t.kind, crate::lexer::Tok::Num(n) if n == "0"))
            && toks.get(k + 3).map(|t| t.is_punct(")")).unwrap_or(false)
            && k + 3 <= limit;
        return Some(if is_zero { COMMIT_RECORD } else { BACKUP });
    }
    Some(base)
}

/// Whether the signature of `files[..].fns[item]` takes `&mut self`
/// (including `&'a mut self`).
fn takes_mut_self(f: &FileIndex, item: usize) -> bool {
    let func = &f.fns[item];
    let toks = &f.tokens;
    let end = func.body_start.unwrap_or(func.body_end).min(toks.len());
    // Find the parameter list: first `(` after the name.
    let Some(open) = toks[..end]
        .iter()
        .enumerate()
        .skip(func.sig_start + 1)
        .find_map(|(k, t)| t.is_punct("(").then_some(k))
    else {
        return false;
    };
    let close = match_bracket(toks, open).min(end);
    for k in open + 1..close {
        if !toks[k].kind.is_ident("self") {
            continue;
        }
        // Walk back over `mut` and an optional lifetime to the `&`.
        let mut j = k;
        if j >= 1 && toks[j - 1].kind.is_ident("mut") {
            j -= 1;
            if j >= 1 && matches!(toks[j - 1].kind, crate::lexer::Tok::Lifetime(_)) {
                j -= 1;
            }
            if j >= 1 && toks[j - 1].is_punct("&") {
                return true;
            }
        }
        return false; // `self`, `&self`, `self: ..`
    }
    false
}

/// Renders the committed `--effects` artifact: one line per production
/// function with a non-empty transitive effect set, sorted by file then
/// function name (same-named functions in one file are disambiguated by
/// source order). Line numbers are deliberately omitted so unrelated edits
/// do not churn the artifact.
pub fn render_dump(files: &[FileIndex], graph: &CallGraph, facts: &[FnFacts]) -> String {
    let mut lines: Vec<String> = Vec::new();
    let mut seen: BTreeMap<(String, String), u32> = BTreeMap::new();
    let mut entries: Vec<(String, String, u32, u16)> = Vec::new();
    for (n, node) in graph.nodes.iter().enumerate() {
        if facts[n].transitive == 0 {
            continue;
        }
        let file = files[node.file].rel_path.clone();
        let name = files[node.file].fns[node.item].name.clone();
        let occ = seen.entry((file.clone(), name.clone())).or_insert(0);
        *occ += 1;
        entries.push((file, name, *occ, facts[n].transitive));
    }
    entries.sort();
    lines.push("# thynvm-lint --effects: transitive persistence-effect sets".to_owned());
    lines.push("# (regenerate: cargo run -p thynvm-lint --release -- --effects > lint.effects)".to_owned());
    for (file, name, occ, mask) in entries {
        let suffix = if occ > 1 { format!("#{occ}") } else { String::new() };
        lines.push(format!("{file}::{name}{suffix}: {}", labels(mask)));
    }
    lines.push(String::new());
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyzed(src: &str) -> (Vec<FileIndex>, CallGraph, Vec<FnFacts>) {
        let files = vec![FileIndex::parse("crates/core/src/x.rs", src)];
        let graph = CallGraph::build(&files);
        let facts = analyze(&files, &graph);
        (files, graph, facts)
    }

    fn facts_of<'a>(
        files: &[FileIndex],
        graph: &CallGraph,
        facts: &'a [FnFacts],
        name: &str,
    ) -> &'a FnFacts {
        let n = graph
            .nodes
            .iter()
            .position(|n| files[n.file].fns[n.item].name == name)
            .unwrap_or_else(|| panic!("{name} analyzed"));
        &facts[n]
    }

    #[test]
    fn seeds_inline_constructors_and_discriminates_commit_record() {
        let src = concat!(
            "fn seal(&mut self, t: u64) -> u64 {\n",
            "    let t = self.nvm.access(self.space.backup(8192), AccessKind::Write, 64, t);\n",
            "    self.nvm.access(self.space.backup(0), AccessKind::Write, 64, t)\n",
            "}\n",
        );
        let (files, graph, facts) = analyzed(src);
        let f = facts_of(&files, &graph, &facts, "seal");
        assert_eq!(f.direct, BACKUP | COMMIT_RECORD, "{}", labels(f.direct));
        assert_eq!(f.writes.len(), 2);
        assert_eq!(f.writes[0].region, BACKUP);
        assert_eq!(f.writes[1].region, COMMIT_RECORD);
    }

    #[test]
    fn reads_and_untracked_addresses_carry_no_effect() {
        let src = concat!(
            "fn peek(&mut self, t: u64) -> u64 {\n",
            "    let t = self.nvm.access(self.space.backup(0), AccessKind::Read, 64, t);\n",
            "    self.nvm.access(HwAddr::new(0x40), AccessKind::Write, 64, t)\n",
            "}\n",
        );
        let (files, graph, facts) = analyzed(src);
        let f = facts_of(&files, &graph, &facts, "peek");
        assert_eq!(f.direct, 0, "{}", labels(f.direct));
    }

    #[test]
    fn binding_tracked_wal_write_and_markers() {
        let src = concat!(
            "fn remap(&mut self, t: u64) -> u64 {\n",
            "    let wal = self.space.backup_wal(self.wal_seq);\n",
            "    let t = self.nvm.access(wal, AccessKind::Write, 64, t);\n",
            "    let t = self.nvm.access(self.space.spare_block(3), AccessKind::Write, 64, t);\n",
            "    let t = self.nvm.access(wal, AccessKind::Write, 64, t);\n",
            "    self.stats.media.wal_seals += 1;\n",
            "    t\n",
            "}\n",
        );
        let (files, graph, facts) = analyzed(src);
        let f = facts_of(&files, &graph, &facts, "remap");
        assert_eq!(f.direct, BACKUP_WAL | SPARE, "{}", labels(f.direct));
        assert_eq!(f.wal_begins.len(), 1);
        assert_eq!(f.wal_seals.len(), 1);
        let spare = f.writes.iter().find(|w| w.region == SPARE).expect("spare write");
        assert!(f.wal_begins[0] < spare.tok && spare.tok < f.wal_seals[0]);
    }

    #[test]
    fn fence_calls_are_seeded_in_token_order() {
        let src = concat!(
            "fn round(&mut self, t: u64) -> u64 {\n",
            "    let t = self.wpq_fence(t);\n",
            "    let t = self.nvm.access(self.space.backup(0), AccessKind::Write, 64, t);\n",
            "    let t = p.fence(t);\n",
            "    fence(t); // free fn: not a drain call, not seeded\n",
            "    t\n",
            "}\n",
        );
        let (files, graph, facts) = analyzed(src);
        let f = facts_of(&files, &graph, &facts, "round");
        assert_eq!(f.fences.len(), 2, "method-call fences only");
        let commit = f.writes.iter().find(|w| w.region == COMMIT_RECORD).expect("commit write");
        assert!(f.fences[0] < commit.tok && commit.tok < f.fences[1]);
    }

    #[test]
    fn dram_access_is_working_and_store_mutators_seed_store() {
        let src = concat!(
            "fn spill(&mut self, t: u64) -> u64 {\n",
            "    self.committed.write(addr, bytes);\n",
            "    self.dram.access(HwAddr::new(off), AccessKind::Write, 64, t)\n",
            "}\n",
        );
        let (files, graph, facts) = analyzed(src);
        let f = facts_of(&files, &graph, &facts, "spill");
        assert_eq!(f.direct, STORE | WORKING, "{}", labels(f.direct));
        assert!(f.mut_self);
    }

    #[test]
    fn fixpoint_propagates_effects_through_calls() {
        let src = concat!(
            "fn top(&mut self, t: u64) { self.mid(t); }\n",
            "fn mid(&mut self, t: u64) { self.leaf(t); }\n",
            "fn leaf(&mut self, t: u64) {\n",
            "    self.nvm.access(self.space.security_root(), AccessKind::Write, 64, t);\n",
            "}\n",
        );
        let (files, graph, facts) = analyzed(src);
        assert_eq!(facts_of(&files, &graph, &facts, "top").direct, 0);
        assert_eq!(facts_of(&files, &graph, &facts, "top").transitive, SECURITY_ROOT);
        assert_eq!(facts_of(&files, &graph, &facts, "mid").transitive, SECURITY_ROOT);
    }

    #[test]
    fn recursion_converges() {
        let src = concat!(
            "fn ping(&mut self, t: u64) { self.pong(t); self.committed.clear(); }\n",
            "fn pong(&mut self, t: u64) { self.ping(t); }\n",
        );
        let (files, graph, facts) = analyzed(src);
        assert_eq!(facts_of(&files, &graph, &facts, "ping").transitive, STORE);
        assert_eq!(facts_of(&files, &graph, &facts, "pong").transitive, STORE);
    }

    #[test]
    fn mut_self_detection_handles_the_forms() {
        let src = concat!(
            "fn a(&mut self) {}\n",
            "fn b(&self) {}\n",
            "fn c(self) {}\n",
            "fn d(&'a mut self) {}\n",
            "fn e(x: &mut u64) {}\n",
        );
        let (files, graph, facts) = analyzed(src);
        assert!(facts_of(&files, &graph, &facts, "a").mut_self);
        assert!(!facts_of(&files, &graph, &facts, "b").mut_self);
        assert!(!facts_of(&files, &graph, &facts, "c").mut_self);
        assert!(facts_of(&files, &graph, &facts, "d").mut_self);
        assert!(!facts_of(&files, &graph, &facts, "e").mut_self);
    }

    #[test]
    fn dump_is_deterministic_and_sorted() {
        let src = concat!(
            "fn zz(&mut self, t: u64) { self.nvm.access(self.space.backup(0), AccessKind::Write, 64, t); }\n",
            "fn aa(&mut self, t: u64) { self.nvm.access(self.space.backup(8192), AccessKind::Write, 64, t); }\n",
            "fn quiet(&self) {}\n",
        );
        let (files, graph, facts) = analyzed(src);
        let d1 = render_dump(&files, &graph, &facts);
        let facts2 = analyze(&files, &graph);
        let d2 = render_dump(&files, &graph, &facts2);
        assert_eq!(d1, d2, "byte-identical across runs");
        let aa = d1.lines().position(|l| l.contains("::aa")).expect("aa listed");
        let zz = d1.lines().position(|l| l.contains("::zz")).expect("zz listed");
        assert!(aa < zz, "sorted by name");
        assert!(!d1.contains("::quiet"), "effect-free fns are omitted");
    }
}
