//! The selection-policy lab: alternatives to the paper's greedy
//! mini-graph selector, plus an exact optimality-gap gauge.
//!
//! The paper selects mini-graphs greedily by estimated coverage
//! `(n-1)·f` (§3.2). That is one point in a large design space, and on
//! its own gives no sense of how much coverage greedy leaves on the
//! table. This crate supplies three more points and the measuring stick:
//!
//! * [`WeightedGreedySelector`] — the same incremental greedy mechanics,
//!   but each candidate's rank is scaled by its block's natural-loop
//!   nesting depth (`weight = benefit · (1 + depth)`, depth from
//!   [`mg_profile::LoopNest`] over [`mg_profile::Dominators`]): hot loop
//!   bodies win ties (and near-ties) against straight-line code.
//! * [`TreeTilingSelector`] — maximal-munch instruction-selection-style
//!   tiling: each block is scanned bottom-up and the largest admissible
//!   candidate ending at each uncovered instruction is taken, like a
//!   tree-pattern matcher tiling a dataflow tree from its roots.
//! * [`ExactDpSelector`] / [`DpCertifier`] — an exact
//!   maximum-weight disjoint-instance solve per basic block, by
//!   memoized recursion over (candidate index, taken-bitset) states.
//!   Blocks within the bounds ([`DP_MAX_BLOCK_LEN`],
//!   [`DP_MAX_CANDIDATES`], [`DP_STATE_BUDGET`]) are **certified**: the
//!   DP objective is the true per-block optimum, so
//!   `dp - family >= 0` is an exact optimality gap for *any* selection
//!   family evaluated on the same blocks ([`GapStats`]).
//!
//! All three selectors implement the object-safe
//! [`mg_core::Selector`] trait, so they register through
//! `mg_api::SelectionPolicy` and flow through the experiment harness
//! (prep memos, artifact cache, sweeps) exactly like the built-in
//! greedy — see `mg run policy_lab`.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod dp;
pub mod tiling;
pub mod weighted;

pub use dp::{
    DpCertifier, ExactDpSelector, GapStats, DP_MAX_BLOCK_LEN, DP_MAX_CANDIDATES,
    DP_STATE_BUDGET,
};
pub use tiling::TreeTilingSelector;
pub use weighted::{loop_depth_weights, WeightedGreedySelector};

use mg_core::selector::Selector;
use std::sync::Arc;

/// Every selector family of the lab, in presentation order: greedy (the
/// paper's baseline), weighted, tiling, dp. The `policy_lab` experiment
/// and the shared property tests iterate this list so a new family added
/// here is automatically compared and property-checked.
pub fn all_selectors() -> Vec<Arc<dyn Selector>> {
    vec![
        Arc::new(mg_core::GreedySelector),
        Arc::new(WeightedGreedySelector),
        Arc::new(TreeTilingSelector),
        Arc::new(ExactDpSelector),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_ids_are_distinct_and_stable() {
        let ids: Vec<String> = all_selectors().iter().map(|s| s.id().to_string()).collect();
        assert_eq!(ids, ["greedy", "weighted", "tiling", "dp"]);
    }
}
