//! Multi-config sweep execution.
//!
//! The paper's headline figures sweep many near-identical [`SimConfig`]s
//! over the same (workload, input, policy) cell. A sweep runs over one
//! image's artifacts (program, trace, catalog):
//!
//! * **Shared predecode**: every configuration simulates against one
//!   [`Predecode`] plane, built once per image.
//! * **Dedup**: identical configurations in a sweep (common at sweep
//!   anchor points — e.g. a register-file sweep whose mid point equals
//!   the baseline machine) simulate **once** and fan the stats out to
//!   every requesting column.
//! * **One at a time**: each distinct configuration runs to completion
//!   with [`simulate_with`] before the next starts, so only one
//!   simulator is alive at a time.
//!
//! Each result is therefore exactly what [`simulate_with`] returns for
//! that config alone — enforced over every registry workload by
//! `tests/fused.rs`. Which *images* share one sweep is decided one level
//! up, by [`Prep::run_shared`](crate::Prep::run_shared).

use mg_isa::{HandleCatalog, Program};
use mg_profile::Trace;
use mg_uarch::{simulate_with, Predecode, SimConfig, SimStats};
use std::sync::Arc;

/// Simulates one image under every configuration of `cfgs`, sharing the
/// predecode plane and deduplicating identical configurations. Returns
/// one [`SimStats`] per input config, in order — bit-identical to
/// calling [`simulate_with`] per config.
pub fn run_fused(
    prog: &Program,
    trace: &Trace,
    catalog: &HandleCatalog,
    predecode: &Arc<Predecode>,
    cfgs: &[SimConfig],
) -> Vec<SimStats> {
    sweep(prog, trace, catalog, predecode, cfgs).into_iter().map(|c| c.stats).collect()
}

/// One configuration's result in a sweep.
#[derive(Clone, Debug)]
pub struct SweptCell {
    /// The configuration's statistics.
    pub stats: SimStats,
    /// `true` when this configuration ran its own simulation; `false`
    /// when it copies the stats of an identical earlier configuration.
    pub simulated: bool,
}

/// [`run_fused`], reporting which results were simulated and which
/// were copied.
pub(crate) fn sweep(
    prog: &Program,
    trace: &Trace,
    catalog: &HandleCatalog,
    predecode: &Arc<Predecode>,
    cfgs: &[SimConfig],
) -> Vec<SweptCell> {
    let mut out: Vec<SweptCell> = Vec::with_capacity(cfgs.len());
    for (i, cfg) in cfgs.iter().enumerate() {
        let cell = match cfgs[..i].iter().position(|c| c == cfg) {
            Some(first) => SweptCell { stats: out[first].stats.clone(), simulated: false },
            None => SweptCell {
                stats: simulate_with(cfg, prog, trace, catalog, predecode),
                simulated: true,
            },
        };
        out.push(cell);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_isa::{reg, Asm, Memory};
    use mg_profile::record_trace;

    fn tiny_image() -> (Program, Trace) {
        let mut a = Asm::new();
        a.li(reg(1), 500);
        a.li(reg(4), 0x10_0000);
        a.label("top");
        a.ldq(reg(2), 0, reg(4));
        a.addq(reg(2), 1, reg(2));
        a.stq(reg(2), 0, reg(4));
        a.subq(reg(1), 1, reg(1));
        a.bne(reg(1), "top");
        a.halt();
        let prog = a.finish().unwrap();
        let trace = record_trace(&prog, &mut Memory::new(), None, 100_000).unwrap();
        (prog, trace)
    }

    #[test]
    fn fused_matches_scalar_and_dedups() {
        let (prog, trace) = tiny_image();
        let catalog = HandleCatalog::new();
        let pd = Arc::new(Predecode::new(&prog, &catalog));
        // A sweep with a deliberate duplicate (first == last).
        let cfgs = [
            SimConfig::baseline(),
            SimConfig::baseline().with_phys_regs(96),
            SimConfig::baseline().with_front_width(4),
            SimConfig::baseline(),
        ];
        let fused = run_fused(&prog, &trace, &catalog, &pd, &cfgs);
        for (cfg, f) in cfgs.iter().zip(&fused) {
            let scalar = simulate_with(cfg, &prog, &trace, &catalog, &pd);
            assert_eq!(*f, scalar, "sweep stats must be bit-identical");
        }
        assert_eq!(fused[0], fused[3], "duplicate configs share one simulation");
        let simulated: Vec<bool> =
            sweep(&prog, &trace, &catalog, &pd, &cfgs).iter().map(|c| c.simulated).collect();
        assert_eq!(simulated, [true, true, true, false]);
    }
}
