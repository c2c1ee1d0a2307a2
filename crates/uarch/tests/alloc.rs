//! Zero-allocation test for the pipeline hot loop.
//!
//! Installs a counting global allocator feeding `mg_uarch::allocwatch`,
//! builds a simulator (construction sizes every ring, lane and wheel
//! buffer up front), then arms the per-cycle tripwire and runs the whole
//! trace: any heap allocation inside any simulated cycle, from cycle 0
//! on, panics with a count (debug builds — the check in the cycle loop
//! is `debug_assertions`-gated).

use mg_isa::{reg, Asm, HandleCatalog, Memory, Program};
use mg_profile::{record_trace, Trace};
use mg_uarch::{allocwatch, Predecode, SimConfig, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Arc;

/// The system allocator with an `allocwatch` tap on every acquisition
/// path (`dealloc` is untracked: freeing is not new heap traffic).
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocwatch::record();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        allocwatch::record();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        allocwatch::record();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A kernel mixing the allocation-prone behaviours: loads and stores
/// (LQ/SQ churn, cache misses → far completion events), a data-dependent
/// branch (mispredict squashes), and enough iterations to reach every
/// queue's steady state.
fn image() -> (Program, Trace) {
    let mut a = Asm::new();
    a.li(reg(1), 6_000);
    a.li(reg(4), 0x20_0000);
    a.li(reg(5), 0);
    a.label("top");
    a.ldq(reg(2), 0, reg(4));
    a.addq(reg(2), 1, reg(2));
    a.stq(reg(2), 0, reg(4));
    a.addq(reg(4), 64, reg(4)); // new cache line every iteration
    a.and(reg(2), 7, reg(3));
    a.beq(reg(3), "skip"); // data-dependent: mispredicts
    a.addq(reg(5), 1, reg(5));
    a.label("skip");
    a.subq(reg(1), 1, reg(1));
    a.bne(reg(1), "top");
    a.halt();
    let prog = a.finish().unwrap();
    let trace = record_trace(&prog, &mut Memory::new(), None, 200_000).unwrap();
    (prog, trace)
}

#[test]
fn steady_state_cycles_do_not_allocate() {
    let (prog, trace) = image();
    let catalog = HandleCatalog::new();
    let pd = Arc::new(Predecode::new(&prog, &catalog));
    let sim = Simulator::with_predecode(SimConfig::baseline(), &prog, &trace, &catalog, pd);
    allocwatch::arm();
    let stats = sim.run();
    allocwatch::disarm();
    assert!(stats.mispredicts > 0, "kernel exercises squash paths");
    assert!(stats.cycles > 0);
}
