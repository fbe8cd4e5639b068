//! L7 fixture: backup/security effects after the commit-record seal.
//! Parsed as `crates/core/src/commitpath.rs`. The seals are fenced so the
//! file stays L10-clean and the diagnostics pin L7 alone.

pub fn checkpoint_commit(&mut self, t: u64) -> u64 {
    let t = self.nvm.access(self.space.backup(8192), AccessKind::Write, 64, t);
    let t = self.on_ordering_point(t);
    let t = self.nvm.access(self.space.backup(0), AccessKind::Write, 64, t);
    let t = self.nvm.access(self.space.backup(16384), AccessKind::Write, 64, t);
    self.stamp_root(t)
}

fn stamp_root(&mut self, t: u64) -> u64 {
    let t = self.on_ordering_point(t);
    self.nvm.access(self.space.security_root(), AccessKind::Write, 64, t)
}

/// Near-miss: a commit-record *read* and WAL-sealed spare work after the
/// seal are post-commit-legal.
pub fn checkpoint_commit_clean(&mut self, t: u64) -> u64 {
    let t = self.nvm.access(self.space.backup(8192), AccessKind::Write, 64, t);
    let t = self.on_ordering_point(t);
    let t = self.nvm.access(self.space.backup(0), AccessKind::Write, 64, t);
    let t = self.nvm.access(self.space.backup(0), AccessKind::Read, 64, t);
    self.remap_spare(t)
}

fn remap_spare(&mut self, t: u64) -> u64 {
    let wal = self.space.backup_wal(self.wal_seq);
    let t = self.nvm.access(wal, AccessKind::Write, 64, t);
    let t = self.nvm.access(self.space.spare_block(1), AccessKind::Write, 64, t);
    let t = self.nvm.access(wal, AccessKind::Write, 64, t);
    self.stats.media.wal_seals += 1;
    t
}
