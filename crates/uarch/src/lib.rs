//! Cycle-level out-of-order superscalar simulator with mini-graph support.
//!
//! This crate models the paper's evaluation machine (§6): a 6-wide,
//! 15-stage, dynamically scheduled core with a 128-entry reorder buffer,
//! 50-entry issue queue, 64-entry load/store queue, 164 physical
//! registers, store-sets load scheduling, a 12Kb hybrid branch predictor
//! with a 2K-entry BTB, and a 32KB/32KB/2MB cache hierarchy in front of
//! 100-cycle memory on a quarter-frequency 16-byte bus.
//!
//! Mini-graph support (§4) adds:
//!
//! * **ALU pipelines** replacing two of the four integer ALUs
//!   ([`SimConfig::mg_integer`]) — integer mini-graphs and singleton ALU
//!   operations execute on them;
//! * a **sliding-window scheduler** ([`SimConfig::mg_integer_memory`]) that
//!   reserves all downstream functional units of an integer-memory handle
//!   at issue (`FU0` + `FUBMP` from the MGHT), limited to one such handle
//!   per cycle;
//! * **MGST-sequenced execution** with whole-graph replay on interior-load
//!   cache misses and handle-PC-based branch prediction and memory
//!   disambiguation;
//! * optional **pair-wise collapsing** ALU pipelines
//!   ([`SimConfig::with_collapsing`]).
//!
//! # Example
//!
//! ```
//! use mg_isa::{Asm, reg, Memory};
//! use mg_profile::record_trace;
//! use mg_uarch::{simulate, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new();
//! a.li(reg(1), 100);
//! a.label("top");
//! a.subq(reg(1), 1, reg(1));
//! a.bne(reg(1), "top");
//! a.halt();
//! let prog = a.finish()?;
//! let trace = record_trace(&prog, &mut Memory::new(), None, 1_000_000)?;
//!
//! let stats = simulate(&SimConfig::baseline(), &prog, &trace, &Default::default());
//! assert!(stats.ipc() > 0.5);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
pub mod allocwatch;
pub mod bpred;
pub mod cache;
pub mod config;
pub mod pipeline;
pub mod rename;
pub mod stats;
pub mod storesets;

pub use bpred::{Btb, HybridPredictor, Ras};
pub use cache::{AccessResult, Cache, MemHierarchy};
pub use config::{MgSupport, SimConfig};
pub use pipeline::decode::Predecode;
pub use pipeline::Simulator;
pub use rename::{PReg, RenamedDest, Renamer};
pub use stats::SimStats;
pub use storesets::StoreSets;

use mg_isa::{HandleCatalog, Program};
use mg_profile::Trace;
use std::sync::Arc;

/// Runs one timing simulation: `prog` (baseline or rewritten image), its
/// committed-path `trace`, and the handle `catalog` the image refers to
/// (empty for baseline images).
pub fn simulate(
    cfg: &SimConfig,
    prog: &Program,
    trace: &Trace,
    catalog: &HandleCatalog,
) -> SimStats {
    Simulator::new(cfg.clone(), prog, trace, catalog).run()
}

/// Like [`simulate`], but reuses a predecode plane previously built (by
/// [`Predecode::new`]) for exactly this `prog`/`catalog` pair — callers
/// that simulate one image under many configurations build the plane
/// once and pass it here.
pub fn simulate_with(
    cfg: &SimConfig,
    prog: &Program,
    trace: &Trace,
    catalog: &HandleCatalog,
    predecode: &Arc<Predecode>,
) -> SimStats {
    Simulator::with_predecode(cfg.clone(), prog, trace, catalog, Arc::clone(predecode)).run()
}
