//! The mem-layer replay case. From outside the controller the mem layer's
//! host time cannot be told apart from the controller's, so the request
//! stream captured at the ThyNVM `access` boundary is replayed against a
//! bare NVM device and a bare functional store.

use std::hint::black_box;
use std::time::Instant;

use thynvm::mem::{Device, DeviceKind, SparseStore};
use thynvm::types::{AccessKind, Cycle, HwAddr, MemRequest, SystemConfig};

/// Host cost of the mem layer on one captured stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Host nanoseconds per `Device::access`.
    pub device_ns_per_access: f64,
    /// Host nanoseconds per `SparseStore::write` (one per captured write).
    pub store_write_ns: f64,
    /// Host nanoseconds per `SparseStore::read_page` (one per captured read).
    pub store_read_page_ns: f64,
    /// Host milliseconds for one `SparseStore::fingerprint` of the result.
    pub store_fingerprint_ms: f64,
}

fn per_call_ns(t0: Instant, calls: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Replays `reqs` (request, arrival cycle) against the layer's public entry
/// points.
pub fn replay(reqs: &[(MemRequest, Cycle)], cfg: &SystemConfig) -> Replay {
    let mut nvm = Device::new(DeviceKind::Nvm, cfg.timing, cfg.nvm_geometry);
    let t0 = Instant::now();
    for (req, now) in reqs {
        black_box(nvm.access(HwAddr::new(req.addr.raw()), req.kind, req.bytes, *now));
    }
    let device_ns_per_access = per_call_ns(t0, reqs.len());

    let payload = [0xA5u8; 4096];
    let mut store = SparseStore::new();
    let writes: Vec<&MemRequest> = reqs
        .iter()
        .map(|(r, _)| r)
        .filter(|r| r.kind == AccessKind::Write)
        .collect();
    let t0 = Instant::now();
    for req in &writes {
        let len = (req.bytes as usize).min(payload.len());
        store.write(HwAddr::new(req.addr.raw()), &payload[..len]);
    }
    let store_write_ns = per_call_ns(t0, writes.len());

    let reads: Vec<&MemRequest> = reqs
        .iter()
        .map(|(r, _)| r)
        .filter(|r| r.kind == AccessKind::Read)
        .collect();
    let t0 = Instant::now();
    for req in &reads {
        black_box(store.read_page(HwAddr::new(req.addr.raw())));
    }
    let store_read_page_ns = per_call_ns(t0, reads.len());

    let t0 = Instant::now();
    black_box(store.fingerprint());
    let store_fingerprint_ms = t0.elapsed().as_secs_f64() * 1e3;

    Replay {
        device_ns_per_access,
        store_write_ns,
        store_read_page_ns,
        store_fingerprint_ms,
    }
}
