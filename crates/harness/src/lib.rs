//! Staged experiment engine for the mini-graphs reproduction.
//!
//! The experiment flow has two stages with very different costs:
//!
//! 1. **Preparation** ([`Prep`]) — build a workload, profile it, and
//!    enumerate its mini-graph candidates; memoize per-policy selections,
//!    rewritten images, and dynamic traces.
//! 2. **Simulation** ([`Engine`]) — run a matrix of (workload × [`Run`])
//!    timing simulations, fanned out across threads with deterministic
//!    result ordering: a parallel run is bit-identical to a sequential
//!    one because every cell is a pure function of its inputs.
//!
//! The unified `mg` CLI in `mg-bench` (`mg run <experiment>`), the
//! `mg serve` daemon, the criterion
//! benches, and the examples all build on this crate; each registry
//! experiment regenerates one table/figure of the paper's evaluation.
//! Long-running services share warm preps across engines through
//! [`PrepPool`] and stream per-cell completions through a
//! [`CellObserver`]. `README.md` shows the flow end-to-end and
//! `DESIGN.md` documents the engine's caching and determinism
//! contracts (§6 covers serving).
//!
//! # Example
//!
//! ```
//! use mg_harness::{Engine, Run};
//! use mg_core::{Policy, RewriteStyle};
//! use mg_uarch::SimConfig;
//!
//! // Two workloads, two machine configurations, one parallel fan-out.
//! let engine = Engine::builder()
//!     .workloads(&["bitcount", "crc32"])
//!     .input(mg_workloads::Input::tiny())
//!     .quick(true)
//!     .build();
//! let matrix = engine.run(&[
//!     Run::baseline(SimConfig::baseline()),
//!     Run::mini_graph(Policy::integer_memory(), RewriteStyle::NopPadded,
//!                     SimConfig::mg_integer_memory())
//!         .label("intmem"),
//! ]);
//! for row in &matrix.rows {
//!     assert!(row.stats[0].ipc() > 0.0);
//!     assert!(row.stats[1].handles > 0);
//! }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
pub mod engine;
pub mod error;
pub mod fused;
pub mod pool;
pub mod prep;
pub mod prep_cache;
pub mod quick;
pub mod report;
pub mod table;

pub use engine::{
    default_threads, CellDone, CellObserver, Engine, EngineBuilder, ExtraSource, Image, Run,
    RunMatrix, RunRow,
};
pub use error::{BuildError, HarnessError};
pub use fused::{run_fused, SweptCell};
pub use pool::{PoolKey, PrepPool};
pub use prep::{
    by_suite, BuildFn, MgImage, Prep, SharedSweeps, SweepImage, ENUMERATION_SIZE, STEP_BUDGET,
};
pub use prep_cache::{CacheStats, PrepCache, CACHE_SCHEMA_VERSION};
pub use quick::{apply_quick, quick_mode, QUICK_MAX_OPS};
pub use report::{gmean, speedup};
pub use table::Table;
