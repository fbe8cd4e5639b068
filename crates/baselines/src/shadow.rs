//! The shadow-paging (copy-on-write) baseline of §5.1.
//!
//! "It performs copy-on-write on NVM pages and creates buffer pages in
//! DRAM. When DRAM buffer is full, dirty pages are flushed to NVM, without
//! overwriting data in-place. The size of DRAM in this configuration is the
//! same as ThyNVM's DRAM."
//!
//! The pathology the paper highlights (§5.2): under random access, almost
//! every page in the buffer has only a few dirty blocks, yet the flush
//! writes each *entire 4 KiB page* to NVM — wasting bandwidth and stalling
//! the application, since the flush is stop-the-world.
//!
//! The buffer's bookkeeping is incremental, so neither the per-event
//! `checkpoint_due` test nor an eviction scans the buffer. The invariant:
//! `dirty + clean.len() == pages.len()`, and `clean` holds exactly the
//! buffered pages whose `dirty` flag is false.

use std::collections::BTreeSet;

use thynvm_mem::{Device, DeviceKind, SparseStore};
use thynvm_types::{
    AccessKind, Cycle, FxHashMap, HwAddr, MemRequest, MemStats, MemorySystem, NvmWriteClass, PageIndex,
    PersistentMemory, PhysAddr, SystemConfig, PAGE_BYTES,
};

/// Base of the NVM shadow area (alternating with the home copies).
const SHADOW_BASE: u64 = 1 << 40;

#[derive(Debug, Clone, Copy)]
struct BufferedPage {
    slot: u32,
    dirty: bool,
    /// Which copy is current: `false` = home, `true` = shadow area. Flipped
    /// on every flush (copy-on-write never overwrites in place).
    in_shadow: bool,
}

/// The shadow-paging hybrid memory system.
///
/// See the [module documentation](self) for the design.
#[derive(Debug)]
pub struct ShadowPaging {
    cfg: SystemConfig,
    dram: Device,
    nvm: Device,
    pages: FxHashMap<PageIndex, BufferedPage>,
    /// Number of buffered pages that are dirty.
    dirty: usize,
    /// Buffered pages that are clean, in eviction order (lowest first).
    clean: BTreeSet<PageIndex>,
    free_slots: Vec<u32>,
    epoch_start: Cycle,
    stats: MemStats,
    /// Functional layer: committed NVM contents (physical address space).
    committed: SparseStore,
    /// Functional layer: contents of the DRAM page buffer.
    buffer_data: SparseStore,
}

impl ShadowPaging {
    /// Creates the system with a DRAM buffer as large as ThyNVM's DRAM.
    pub fn new(cfg: SystemConfig) -> Self {
        let slots = u32::try_from(cfg.thynvm.dram_pages()).expect("DRAM too large");
        Self {
            dram: Device::new(DeviceKind::Dram, cfg.timing, cfg.dram_geometry),
            nvm: Device::new(DeviceKind::Nvm, cfg.timing, cfg.nvm_geometry),
            pages: FxHashMap::default(),
            dirty: 0,
            clean: BTreeSet::new(),
            free_slots: (0..slots).rev().collect(),
            epoch_start: Cycle::ZERO,
            stats: MemStats::new(),
            committed: SparseStore::new(),
            buffer_data: SparseStore::new(),
            cfg,
        }
    }

    /// Number of pages currently buffered in DRAM.
    pub fn buffered_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of buffered pages that are dirty.
    pub fn dirty_pages(&self) -> usize {
        self.dirty
    }

    /// The NVM device (row-buffer and wear statistics).
    pub fn nvm_device(&self) -> &Device {
        &self.nvm
    }

    fn slot_addr(&self, slot: u32) -> HwAddr {
        HwAddr::new(u64::from(slot) * PAGE_BYTES)
    }

    fn nvm_addr(&self, page: PageIndex, shadow: bool) -> HwAddr {
        let base = if shadow { SHADOW_BASE } else { 0 };
        HwAddr::new(base + page.byte_offset())
    }

    /// Stop-the-world flush of every dirty buffered page to its shadow
    /// location. Clean pages stay cached; dirty pages become clean (their
    /// current copy flips to the freshly written location).
    fn flush(&mut self, now: Cycle) -> Cycle {
        // Operations issue as fast as the devices accept them; bank
        // busy-times arbitrate. Each page's NVM write waits for its DRAM
        // read.
        let mut t = now;
        let mut dirty: Vec<PageIndex> =
            self.pages.iter().filter(|(_, p)| p.dirty).map(|(&i, _)| i).collect();
        dirty.sort_unstable();
        // Functional commit: the root-pointer switch makes the batch atomic.
        for &page in &dirty {
            let base = HwAddr::new(page.byte_offset());
            let data = self.buffer_data.read_page(base);
            self.committed.write(base, &data[..]);
        }
        for page in dirty {
            let entry = self.pages.get_mut(&page).expect("listed");
            let slot = entry.slot;
            let target_shadow = !entry.in_shadow;
            entry.dirty = false;
            entry.in_shadow = target_shadow;
            let slot_addr = self.slot_addr(slot);
            let dst = self.nvm_addr(page, target_shadow);
            let read_done = self.dram.access(slot_addr, AccessKind::Read, PAGE_BYTES as u32, now);
            self.stats.dram_reads += 1;
            self.stats.dram_read_bytes += PAGE_BYTES;
            let write_done = self.nvm.access(dst, AccessKind::Write, PAGE_BYTES as u32, read_done);
            self.stats.record_nvm_write(PAGE_BYTES, NvmWriteClass::Checkpoint);
            t = t.max(write_done);
            self.clean.insert(page);
        }
        self.dirty = 0;
        // Atomic root-pointer switch.
        t = self.nvm.access(HwAddr::new(SHADOW_BASE), AccessKind::Write, 64, t);
        self.stats.record_nvm_write(8, NvmWriteClass::Checkpoint);

        self.stats.ckpt_busy_cycles += t - now;
        self.stats.ckpt_stall_cycles += t - now; // stop-the-world
        self.stats.epochs_completed += 1;
        self.epoch_start = t;
        t
    }

    /// Ensures `page` is buffered in DRAM, copying it from NVM on first
    /// touch (the CoW copy). Returns `(slot, completion)`.
    fn ensure_buffered(&mut self, page: PageIndex, mut t: Cycle) -> (u32, Cycle) {
        if let Some(p) = self.pages.get(&page) {
            return (p.slot, t);
        }
        // Need a slot: evict the lowest clean page, flushing first if
        // everything is dirty (after which every page is clean).
        if self.free_slots.is_empty() {
            if self.clean.is_empty() {
                t = self.flush(t);
            }
            let victim = self.clean.pop_first().expect("buffer nonempty");
            let freed = self.pages.remove(&victim).expect("buffered");
            self.free_slots.push(freed.slot);
        }
        let slot = self.free_slots.pop().expect("slot available");
        // Functional copy-on-write: the buffer page starts as the committed
        // contents.
        let base = HwAddr::new(page.byte_offset());
        let current = self.committed.read_page(base);
        self.buffer_data.write(base, &current[..]);
        // Copy-on-write: read the current NVM copy into the buffer page.
        t = self.nvm.access(self.nvm_addr(page, false), AccessKind::Read, PAGE_BYTES as u32, t);
        self.stats.nvm_reads += 1;
        self.stats.nvm_read_bytes += PAGE_BYTES;
        t = self.dram.access(self.slot_addr(slot), AccessKind::Write, PAGE_BYTES as u32, t);
        self.stats.record_dram_write(PAGE_BYTES);
        self.pages.insert(page, BufferedPage { slot, dirty: false, in_shadow: false });
        self.clean.insert(page);
        (slot, t)
    }
}

impl MemorySystem for ShadowPaging {
    fn access(&mut self, req: &MemRequest, now: Cycle) -> Cycle {
        let mut t = now;
        let page = req.addr.page();
        match req.kind {
            AccessKind::Write => {
                self.stats.writes += 1;
                let (slot, t2) = self.ensure_buffered(page, t);
                t = t2;
                let addr = self.slot_addr(slot).offset(req.addr.page_offset());
                t = self.dram.access(addr, AccessKind::Write, req.bytes, t);
                self.stats.record_dram_write(u64::from(req.bytes));
                let entry = self.pages.get_mut(&page).expect("buffered");
                if !entry.dirty {
                    entry.dirty = true;
                    self.dirty += 1;
                    self.clean.remove(&page);
                }
            }
            AccessKind::Read => {
                self.stats.reads += 1;
                if let Some(p) = self.pages.get(&page) {
                    let addr = self.slot_addr(p.slot).offset(req.addr.page_offset());
                    t = self.dram.access(addr, AccessKind::Read, req.bytes, t);
                    self.stats.dram_reads += 1;
                    self.stats.dram_read_bytes += u64::from(req.bytes);
                } else {
                    t = self.nvm.access(
                        self.nvm_addr(page, false).offset(req.addr.page_offset()),
                        AccessKind::Read,
                        req.bytes,
                        t,
                    );
                    self.stats.nvm_reads += 1;
                    self.stats.nvm_read_bytes += u64::from(req.bytes);
                }
            }
        }
        self.stats.service_cycles += t.saturating_sub(now);
        t
    }

    fn checkpoint_due(&self, now: Cycle) -> bool {
        // Epoch timer, or buffer nearly exhausted by dirty pages (so the
        // flush runs through the processor handshake rather than the inline
        // backstop in `ensure_buffered`).
        let capacity = self.free_slots.len() + self.pages.len();
        now.saturating_sub(self.epoch_start) >= self.cfg.thynvm.epoch_max()
            || self.dirty_pages() * 10 >= capacity * 9
    }

    fn begin_checkpoint(&mut self, now: Cycle, flushed: &[PhysAddr]) -> Cycle {
        let mut t = now;
        for &addr in flushed {
            t = self.access(&MemRequest::write(addr, 64), t);
        }
        self.flush(t)
    }

    fn drain(&mut self, now: Cycle) -> Cycle {
        let t = if self.dirty_pages() == 0 { now } else { self.flush(now) };
        t.max(self.nvm.idle_at()).max(self.dram.idle_at())
    }

    fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "Shadow"
    }
}

impl PersistentMemory for ShadowPaging {
    fn store_bytes(&mut self, addr: PhysAddr, data: &[u8], now: Cycle) -> Cycle {
        // May span pages; each page is buffered (CoW) before writing.
        let mut t = now;
        let mut off = 0usize;
        while off < data.len() {
            let a = addr.raw() + off as u64;
            let page = PhysAddr::new(a).page();
            let in_page = (PAGE_BYTES - PhysAddr::new(a).page_offset()) as usize;
            let chunk = in_page.min(data.len() - off);
            t = t.max(self.access(
                &MemRequest::write(PhysAddr::new(a), u32::try_from(chunk).expect("bounded")),
                t,
            ));
            debug_assert!(self.pages.contains_key(&page), "access buffers the page");
            self.buffer_data.write(HwAddr::new(a), &data[off..off + chunk]);
            off += chunk;
        }
        t
    }

    fn load_bytes(&mut self, addr: PhysAddr, buf: &mut [u8], now: Cycle) -> Cycle {
        for (i, slot) in buf.iter_mut().enumerate() {
            let a = addr.raw() + i as u64;
            let page = PhysAddr::new(a).page();
            let mut byte = [0u8; 1];
            if self.pages.contains_key(&page) {
                self.buffer_data.read(HwAddr::new(a), &mut byte);
            } else {
                self.committed.read(HwAddr::new(a), &mut byte);
            }
            *slot = byte[0];
        }
        self.access(&MemRequest::read(addr, u32::try_from(buf.len()).expect("read too large")), now)
    }

    fn persist(&mut self, now: Cycle) -> Cycle {
        if self.dirty_pages() == 0 {
            now
        } else {
            self.flush(now)
        }
    }

    fn power_fail(&mut self, now: Cycle) -> Cycle {
        let slots = u32::try_from(self.cfg.thynvm.dram_pages()).expect("bounded");
        self.pages.clear();
        self.dirty = 0;
        self.clean.clear();
        self.buffer_data.clear();
        self.free_slots = (0..slots).rev().collect();
        self.dram.power_cycle();
        self.nvm.power_cycle();
        self.epoch_start = now;
        now + Cycle::from_ns(1_000) // root pointer read + table reset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> ShadowPaging {
        ShadowPaging::new(SystemConfig::small_test()) // 64-page DRAM buffer
    }

    #[test]
    fn first_write_copies_page_into_dram() {
        let mut s = sys();
        s.access(&MemRequest::write(PhysAddr::new(8), 8), Cycle::ZERO);
        assert_eq!(s.buffered_pages(), 1);
        assert_eq!(s.dirty_pages(), 1);
        // CoW copy: 4 KiB NVM read + 4 KiB DRAM fill + the 8 B store.
        assert_eq!(s.stats().nvm_read_bytes, PAGE_BYTES);
        assert_eq!(s.stats().dram_write_bytes, PAGE_BYTES + 8);
    }

    #[test]
    fn second_write_to_same_page_is_cheap() {
        let mut s = sys();
        let t = s.access(&MemRequest::write(PhysAddr::new(8), 8), Cycle::ZERO);
        let before = s.stats().nvm_read_bytes;
        s.access(&MemRequest::write(PhysAddr::new(16), 8), t);
        assert_eq!(s.stats().nvm_read_bytes, before, "no second CoW copy");
        assert_eq!(s.buffered_pages(), 1);
    }

    #[test]
    fn flush_writes_entire_pages() {
        let mut s = sys();
        // One tiny write dirties a whole page.
        s.access(&MemRequest::write(PhysAddr::new(0), 8), Cycle::ZERO);
        let t = s.begin_checkpoint(Cycle::new(100_000), &[]);
        assert!(t > Cycle::new(100_000));
        // The pathology: 4 KiB of checkpoint traffic for an 8 B write.
        assert!(s.stats().nvm_write_bytes_ckpt >= PAGE_BYTES);
        assert_eq!(s.dirty_pages(), 0);
        assert_eq!(s.buffered_pages(), 1, "page stays cached clean");
    }

    #[test]
    fn flush_alternates_shadow_locations() {
        let mut s = sys();
        s.access(&MemRequest::write(PhysAddr::new(0), 8), Cycle::ZERO);
        let t1 = s.begin_checkpoint(Cycle::new(1_000), &[]);
        assert!(s.pages.get(&PageIndex::new(0)).unwrap().in_shadow);
        s.access(&MemRequest::write(PhysAddr::new(0), 8), t1);
        let _t2 = s.begin_checkpoint(t1 + Cycle::new(1_000), &[]);
        assert!(!s.pages.get(&PageIndex::new(0)).unwrap().in_shadow);
    }

    #[test]
    fn buffer_exhaustion_evicts_clean_then_flushes() {
        let mut s = sys(); // 64 slots
        let mut t = Cycle::ZERO;
        // Dirty 64 distinct pages.
        for i in 0..64u64 {
            t = s.access(&MemRequest::write(PhysAddr::new(i * PAGE_BYTES), 8), t);
        }
        assert_eq!(s.buffered_pages(), 64);
        let flushes_before = s.stats().epochs_completed;
        // 65th page: everything dirty → inline flush.
        s.access(&MemRequest::write(PhysAddr::new(64 * PAGE_BYTES), 8), t);
        assert_eq!(s.stats().epochs_completed, flushes_before + 1);
        assert!(s.buffered_pages() <= 64);
    }

    #[test]
    fn reads_prefer_buffer() {
        let mut s = sys();
        let t = s.access(&MemRequest::write(PhysAddr::new(0), 8), Cycle::ZERO);
        let before = s.stats().dram_reads;
        s.access(&MemRequest::read(PhysAddr::new(32), 8), t);
        assert_eq!(s.stats().dram_reads, before + 1);
        // Unbuffered page reads from NVM home.
        let before_nvm = s.stats().nvm_reads;
        s.access(&MemRequest::read(PhysAddr::new(1 << 20), 8), t);
        assert_eq!(s.stats().nvm_reads, before_nvm + 1);
    }

    #[test]
    fn flush_is_stop_the_world() {
        let mut s = sys();
        s.access(&MemRequest::write(PhysAddr::new(0), 8), Cycle::ZERO);
        let start = Cycle::new(50_000);
        let resume = s.begin_checkpoint(start, &[]);
        assert_eq!(resume - start, s.stats().ckpt_busy_cycles);
        assert_eq!(s.stats().ckpt_stall_cycles, s.stats().ckpt_busy_cycles);
    }

    #[test]
    fn drain_flushes_dirty_pages_only() {
        let mut s = sys();
        s.access(&MemRequest::write(PhysAddr::new(0), 8), Cycle::ZERO);
        let t = s.drain(Cycle::new(100_000));
        assert_eq!(s.dirty_pages(), 0);
        assert_eq!(s.drain(t), t, "idempotent when clean");
    }

    #[test]
    fn epoch_timer() {
        let s = sys();
        assert!(!s.checkpoint_due(Cycle::ZERO));
        assert!(s.checkpoint_due(Cycle::from_ms(1)));
    }

    fn write_page(s: &mut ShadowPaging, page: u64, t: Cycle) -> Cycle {
        s.access(&MemRequest::write(PhysAddr::new(page * PAGE_BYTES), 8), t)
    }

    fn is_buffered(s: &ShadowPaging, page: u64) -> bool {
        s.pages.contains_key(&PageIndex::new(page))
    }

    #[test]
    fn full_buffer_evicts_the_lowest_clean_page() {
        let mut s = sys(); // 64 slots
        let mut t = Cycle::ZERO;
        // Fill every slot in descending order, so insertion order and page
        // order disagree.
        for page in (0..64u64).rev() {
            t = write_page(&mut s, page, t);
        }
        t = s.begin_checkpoint(t, &[]);
        assert_eq!(s.dirty_pages(), 0);
        // Re-dirty the two lowest pages: eviction must skip them.
        t = write_page(&mut s, 0, t);
        t = write_page(&mut s, 1, t);
        let epochs = s.stats().epochs_completed;
        t = write_page(&mut s, 100, t);
        assert!(!is_buffered(&s, 2), "page 2 is the lowest clean page");
        assert!((0..2).chain(3..64).all(|p| is_buffered(&s, p)));
        write_page(&mut s, 101, t);
        assert!(!is_buffered(&s, 3), "page 3 is next");
        assert!((0..2).chain(4..64).chain(100..102).all(|p| is_buffered(&s, p)));
        assert_eq!(s.stats().epochs_completed, epochs, "clean evictions never flush");
        assert_eq!(s.buffered_pages(), 64);
    }

    #[test]
    fn all_dirty_backstop_flushes_once_then_evicts_page_zero() {
        let mut s = sys();
        let mut t = Cycle::ZERO;
        for page in (0..64u64).rev() {
            t = write_page(&mut s, page, t);
        }
        assert_eq!(s.dirty_pages(), 64);
        let epochs = s.stats().epochs_completed;
        write_page(&mut s, 64, t);
        assert_eq!(s.stats().epochs_completed, epochs + 1, "exactly one inline flush");
        assert!(!is_buffered(&s, 0), "page 0 is evicted");
        assert!((1..65).all(|p| is_buffered(&s, p)));
        assert_eq!(s.dirty_pages(), 1, "only the new page is dirty");
    }

    #[test]
    fn power_fail_empties_the_buffer() {
        let mut s = sys();
        let mut t = Cycle::ZERO;
        for page in 0..10u64 {
            t = write_page(&mut s, page, t);
        }
        t = s.power_fail(t);
        assert_eq!(s.dirty_pages(), 0);
        assert_eq!(s.buffered_pages(), 0);
        assert!(!s.checkpoint_due(t));
        let epochs = s.stats().epochs_completed;
        for page in 100..164u64 {
            t = write_page(&mut s, page, t);
        }
        assert_eq!(s.buffered_pages(), 64, "all 64 slots refill");
        assert_eq!(s.stats().epochs_completed, epochs, "without a flush");
    }

    /// Checks the incremental bookkeeping against a recount of `pages`.
    fn assert_bookkeeping_matches_recount(s: &ShadowPaging, step: usize) {
        let dirty = s.pages.values().filter(|p| p.dirty).count();
        let clean: BTreeSet<PageIndex> =
            s.pages.iter().filter(|(_, p)| !p.dirty).map(|(&i, _)| i).collect();
        assert_eq!(s.dirty, dirty, "step {step}: dirty count");
        assert_eq!(s.clean, clean, "step {step}: clean set");
    }

    #[test]
    fn bookkeeping_matches_a_recount_under_random_operations() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5ead);
        let mut s = sys();
        let mut t = Cycle::ZERO;
        let (mut clean_evictions, mut backstops) = (0, 0);
        for step in 0..20_000 {
            let page = rng.gen_range(0..200u64);
            let addr = PhysAddr::new(page * PAGE_BYTES + rng.gen_range(0..64u64) * 64);
            let op = rng.gen_range(0..1_000u32);
            if op < 600 && s.free_slots.is_empty() && !is_buffered(&s, page) {
                if s.clean.is_empty() {
                    backstops += 1;
                } else {
                    clean_evictions += 1;
                }
            }
            t = match op {
                0..=599 => s.access(&MemRequest::write(addr, 64), t),
                600..=993 => s.access(&MemRequest::read(addr, 64), t),
                994..=995 => s.begin_checkpoint(t, &[addr]),
                996..=997 => s.persist(t),
                998 => s.drain(t),
                _ => s.power_fail(t),
            };
            assert_bookkeeping_matches_recount(&s, step);
        }
        assert!(clean_evictions > 0 && backstops > 0, "{clean_evictions} / {backstops}");
    }

    #[test]
    fn name() {
        assert_eq!(sys().name(), "Shadow");
    }
}
