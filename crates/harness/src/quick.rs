//! Quick-mode plumbing.
//!
//! Quick mode caps simulated operations per run so every experiment
//! finishes in seconds. It is controlled by the `MG_QUICK` environment
//! variable (`1`/`true`/`yes`) — an explicit channel that criterion
//! wrappers and test harnesses cannot mis-parse from argv — or by the
//! `--quick` flag of `mg run`.

use mg_uarch::SimConfig;

/// Operation cap applied by quick mode.
pub const QUICK_MAX_OPS: u64 = 30_000;

/// Whether the `MG_QUICK` environment flag requests quick mode.
///
/// Deliberately does **not** scan `std::env::args`: `mg run` parses its
/// own `--quick` flag, while library/bench/test contexts (whose argv
/// belongs to their harness) can only be switched through the
/// environment.
pub fn quick_mode() -> bool {
    match std::env::var("MG_QUICK") {
        Ok(v) => matches!(v.trim(), "1" | "true" | "yes"),
        Err(_) => false,
    }
}

/// Applies the quick-mode operation cap to a configuration.
pub fn apply_quick(cfg: &mut SimConfig, quick: bool) {
    if quick {
        cfg.max_ops = QUICK_MAX_OPS;
    }
}
