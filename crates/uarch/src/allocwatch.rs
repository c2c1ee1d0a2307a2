//! Hot-path allocation tripwire.
//!
//! The data-oriented pipeline core allocates everything up front: rings,
//! lanes, bitsets, the event wheel's slot buffers. To keep it that way,
//! the simulator's cycle loop checks — in debug builds, when **armed** —
//! that a simulated cycle performed zero heap allocations, and panics
//! with a count if one slipped in.
//!
//! The crate cannot see allocations by itself: a test harness installs a
//! counting `#[global_allocator]` that calls [`record`] on every
//! allocation (see `tests/alloc.rs`), builds a simulator (construction
//! is where everything is allocated), then [`arm`]s the tripwire for the
//! whole run. Unarmed — the default — the checks are two relaxed atomic
//! loads per cycle in debug builds and compiled out entirely in release
//! builds.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

/// Counts one heap allocation. Call this from a counting global
/// allocator's `alloc`/`realloc` paths; it never allocates.
#[inline]
pub fn record() {
    COUNT.fetch_add(1, Ordering::Relaxed);
}

/// Allocations recorded so far (monotonic; only meaningful relative to a
/// previous reading).
#[inline]
pub fn count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}

/// Arms the per-cycle zero-allocation assertion in the simulator's cycle
/// loop (debug builds only). Arm after construction: allocating there
/// is legitimate.
pub fn arm() {
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms the per-cycle assertion.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// Whether the tripwire is armed.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Panics if armed and allocations were recorded since `before` (a prior
/// [`count`] reading).
#[inline]
pub fn check(before: u64) {
    if armed() {
        let after = count();
        assert!(
            after == before,
            "hot-path heap traffic: {} allocation(s) within one simulated cycle",
            after - before
        );
    }
}
