//! # ThyNVM — software-transparent crash consistency for persistent memory
//!
//! A full-system reproduction of *ThyNVM: Enabling Software-Transparent
//! Crash Consistency in Persistent Memory Systems* (Ren, Zhao, Khan, Choi,
//! Wu, Mutlu — MICRO-48, 2015), built as a Rust workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`types`] | addresses, cycles, requests, configuration (Table 2), statistics |
//! | [`mem`] | banked DRAM/NVM timing models, write queues, byte-accurate stores |
//! | [`cache`] | L1/L2/L3 writeback hierarchy + in-order core model |
//! | [`core`] | **the contribution**: BTT/PTT dual-scheme checkpointing controller |
//! | [`baselines`] | Ideal DRAM, Ideal NVM, Journaling, Shadow Paging |
//! | [`workloads`] | micro patterns, instrumented KV stores, SPEC-like traces |
//! | [`bench`](mod@bench) | the experiment harness regenerating every paper figure |
//!
//! This facade crate re-exports everything and hosts the runnable examples
//! (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! ## Quick start
//!
//! ```
//! use thynvm::core::ThyNvm;
//! use thynvm::types::{Cycle, MemorySystem, PhysAddr, SystemConfig};
//!
//! // A hybrid DRAM+NVM system with transparent crash consistency.
//! let mut sys = ThyNvm::new(SystemConfig::small_test());
//!
//! // Unmodified "application" code just stores data…
//! sys.store_bytes(PhysAddr::new(0x100), b"hello, persistent world", Cycle::ZERO);
//!
//! // …the hardware checkpoints it on epoch boundaries…
//! let t = sys.force_checkpoint(Cycle::new(10_000));
//! let t = sys.drain(t);
//!
//! // …and a power failure cannot hurt it.
//! let _ = sys.crash_and_recover(t);
//! let mut buf = [0u8; 23];
//! sys.load_bytes(PhysAddr::new(0x100), &mut buf, t);
//! assert_eq!(&buf, b"hello, persistent world");
//! ```

#![warn(missing_docs)]

pub use thynvm_baselines as baselines;
pub use thynvm_bench as bench;
pub use thynvm_cache as cache;
pub use thynvm_core as core;
pub use thynvm_mem as mem;
pub use thynvm_types as types;
pub use thynvm_workloads as workloads;
