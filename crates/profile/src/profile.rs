//! Basic-block frequency profiling (the input to mini-graph selection).

use crate::cfg::{BasicBlock, Cfg};
use mg_isa::exec::{run, CpuState, ExecError, StepSink};
use mg_isa::{HandleCatalog, Memory, Program};

/// Per-instruction and per-block execution frequencies gathered by
/// functional simulation.
///
/// The paper derives a mini-graph's execution frequency `f` "from a
/// basic-block frequency profile" (§3.2); [`BlockProfile::block_count`]
/// provides exactly that quantity.
#[derive(Clone, Debug)]
pub struct BlockProfile {
    /// Execution count of each static instruction.
    pub inst_counts: Vec<u64>,
    /// Total dynamic instructions executed.
    pub total: u64,
}

impl BlockProfile {
    /// Execution frequency of a basic block (count of its first
    /// instruction).
    pub fn block_count(&self, block: &BasicBlock) -> u64 {
        self.inst_counts.get(block.start).copied().unwrap_or(0)
    }

    /// Execution frequencies of every block of `cfg`.
    pub fn block_counts(&self, cfg: &Cfg) -> Vec<u64> {
        cfg.blocks.iter().map(|b| self.block_count(b)).collect()
    }
}

/// Functionally executes `prog` to halt, recording per-instruction
/// execution counts.
///
/// # Errors
///
/// Propagates functional-execution errors; [`ExecError::StepLimit`] if the
/// program does not halt within `max_steps`.
pub fn profile_program(
    prog: &Program,
    mem: &mut Memory,
    catalog: Option<&HandleCatalog>,
    max_steps: u64,
) -> Result<BlockProfile, ExecError> {
    /// Counts retirements only: the interpreter loop never builds the
    /// memory and branch events this pass has no use for.
    struct Counter(BlockProfile);
    impl StepSink for Counter {
        #[inline(always)]
        fn retire(&mut self, pc: usize, represents: u32, _halted: bool) -> bool {
            self.0.inst_counts[pc] += 1;
            self.0.total += represents as u64;
            true
        }
    }
    let mut cpu = CpuState::new(prog.entry);
    let mut counter = Counter(BlockProfile { inst_counts: vec![0u64; prog.len()], total: 0 });
    if run(prog, &mut cpu, mem, catalog, max_steps, &mut counter)? {
        Ok(counter.0)
    } else {
        Err(ExecError::StepLimit(max_steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_cfg;
    use mg_isa::{reg, Asm};

    #[test]
    fn loop_counts() {
        let mut a = Asm::new();
        a.li(reg(1), 7); // block 0
        a.label("top"); // block 1
        a.subq(reg(1), 1, reg(1));
        a.bne(reg(1), "top");
        a.halt(); // block 2
        let p = a.finish().unwrap();
        let cfg = build_cfg(&p);
        let prof = profile_program(&p, &mut Memory::new(), None, 1000).unwrap();
        assert_eq!(prof.block_counts(&cfg), vec![1, 7, 1]);
        assert_eq!(prof.total, 1 + 7 * 2 + 1);
    }

    #[test]
    fn conditional_skew() {
        // Taken path executes 3 times out of 4 iterations.
        let mut a = Asm::new();
        a.li(reg(1), 4);
        a.label("top");
        a.and(reg(1), 3, reg(2));
        a.beq(reg(2), "skip"); // taken only when r1 % 4 == 0
        a.addq(reg(3), 1, reg(3));
        a.label("skip");
        a.subq(reg(1), 1, reg(1));
        a.bne(reg(1), "top");
        a.halt();
        let p = a.finish().unwrap();
        let prof = profile_program(&p, &mut Memory::new(), None, 1000).unwrap();
        let cfg = build_cfg(&p);
        // Block containing the addq executes 3 times (r1 = 3, 2, 1).
        let addq_idx = 3;
        let blk = cfg.block_of(addq_idx).unwrap();
        assert_eq!(prof.block_count(blk), 3);
    }
}
