//! Write-primitive fixture: a call to the controller's write primitive,
//! `nvm_write(<region>, <kind>, ..)`, is a device write of `<region>` just
//! like `nvm.access(<region>, AccessKind::Write, ..)`. Parsed as
//! `crates/core/src/primitive.rs`.

pub fn commit_without_fence(&mut self, t: u64) -> u64 {
    let (t, _) = self.nvm_write(self.space.backup(8192), NvmWrite::Metadata { bytes: 64 }, t);
    self.nvm_write(self.space.backup(0), NvmWrite::CommitRecord, t).0
}

pub fn recover_tables(&mut self, t: u64) -> u64 {
    self.nvm_write(self.space.backup(16384), NvmWrite::Metadata { bytes: 64 }, t).0
}

/// Near-miss: the fence dominates the commit record — clean.
pub fn commit_with_fence(&mut self, t: u64) -> u64 {
    let t = self.wpq_fence(t);
    self.nvm_write(self.space.backup(0), NvmWrite::CommitRecord, t).0
}

/// Near-miss: the same image on a recovery path, WAL-bracketed — clean.
pub fn recover_tables_logged(&mut self, t: u64) -> u64 {
    let wal = self.space.backup_wal(self.wal_seq);
    let (t, _) = self.nvm_write(wal, NvmWrite::Wal, t);
    let (t, _) = self.nvm_write(self.space.backup(16384), NvmWrite::Metadata { bytes: 64 }, t);
    let t = self.wpq_fence(t);
    let (t, _) = self.nvm_write(wal, NvmWrite::WalUnbuffered, t);
    self.stats.media.wal_seals += 1;
    t
}
