//! Experiment harness reproducing every table and figure of the ThyNVM
//! paper's evaluation (§5).
//!
//! * [`runner`] — builds any evaluated memory system behind one enum and
//!   drives it with the in-order core + cache hierarchy, exactly as every
//!   system sees the same workload in the paper's gem5 setup.
//! * [`report`] — plain-text table formatting for the figure/table output.
//! * [`experiments`] — one entry point per paper artifact (Figure 7 through
//!   Figure 12, Table 1, Table 2, plus the §5.3 overlap ablation), each
//!   scalable so unit tests run in milliseconds and `cargo bench` runs at
//!   full scale.
//!
//! The simulator's own host cost is measured by the separate `perfbench`
//! package (`BENCHMARK.json`). The exact `sim_cycles` of seven
//! raw-controller runs ([`runner::run_raw`]) are pinned by the root
//! package's `tests/sim_cycles_pins.rs`.
//!
//! Run all experiments with:
//!
//! ```bash
//! cargo bench -p thynvm-bench
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod report;
pub mod runner;

pub use experiments::Scale;
pub use report::Table;
pub use runner::{RunResult, SystemKind};
