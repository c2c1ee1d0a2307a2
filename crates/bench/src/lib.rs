//! Experiment crate: the unified `mg` CLI (`mg run <experiment>`,
//! `mg list`, `mg report`, `mg cache`; see [`cli`]), the mg-lang
//! frontend wiring (`mg compile` and the `lang` experiment; see
//! [`lang`]), the experiment service subcommands (`mg serve`,
//! `mg client`; see [`serve_cli`]),
//! the seeded fault-injection soak (`mg chaos`; see [`chaos_cli`]),
//! the shard-cluster coordinator and its load generator (`mg cluster`,
//! `mg loadgen`; see [`cluster_cli`] and [`loadgen_cli`], both built on
//! the shared client-soak harness in [`soak`]),
//! the selection-policy lab (`mg run policy_lab`; see [`policy_lab`]),
//! the per-experiment report builders ([`figures`]), the shared run
//! matrices ([`experiments`]), and the criterion benches.
//!
//! Each experiment regenerates one table/figure of the paper's
//! evaluation; `EXPERIMENTS.md` records the quick-mode output and is
//! itself generated by `mg report --write`. The shared preparation and
//! measurement machinery lives in [`mg_harness`] (re-exported here):
//! experiments build an `Engine` over the registered workloads, fan
//! their (workload × policy × configuration) matrices out across
//! threads, and persist preparation artifacts in the on-disk cache
//! (`mg_harness::prep_cache`).
//!
//! All experiments accept `--quick` (or `MG_QUICK=1`) to cap simulated
//! operations per run, `--threads N` to bound the fan-out, `--no-cache`
//! (or `MG_NO_CACHE=1`) to bypass the artifact cache, and `--format
//! text|json|csv|markdown` via `mg run`.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
pub mod chaos_cli;
pub mod cli;
pub mod cluster_cli;
pub mod experiments;
pub mod figures;
pub mod lang;
pub mod loadgen_cli;
pub mod policy_lab;
pub mod serve_cli;
pub mod soak;

pub use mg_harness::*;
