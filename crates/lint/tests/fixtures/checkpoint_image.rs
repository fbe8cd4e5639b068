//! Checkpoint-record fixture: the controller holds each checkpoint
//! version's `SparseStore` in an `image` field. Parsed as
//! `crates/core/src/controller.rs`, so the L1 allowlist applies.

pub fn patch_clast(&mut self, addr: u64, bytes: &[u8]) {
    self.last.image.write(HwAddr::new(addr), bytes);
}

/// Near-miss: the same write at the allowlisted commit point — clean.
fn commit_job(&mut self, job: CkptJob) {
    for (addr, data) in self.ckpting_log.drain(..) {
        self.last.image.write(HwAddr::new(addr), &data);
    }
}
