//! Functional (architectural) execution semantics.
//!
//! One interpreter loop, [`run`], executes *fetched* instructions — which
//! for an `mg` handle means the entire mini-graph, evaluated via its
//! [`MgTemplate`] — and reports the architectural events (memory access,
//! control transfer, retirement) the timing and profiling layers need to a
//! [`StepSink`]. [`step`] (one instruction, events as a [`StepInfo`]),
//! [`run_to_halt`], and `mg-profile`'s block profile and trace recorder
//! are that loop with different sinks; it is generic and `#[inline]`, so
//! each caller gets a copy specialised to what its sink keeps.

use crate::handle::{HandleCatalog, MgTemplate, TmplOperand};
use crate::inst::{Inst, Operand};
use crate::mem::Memory;
use crate::opcode::Opcode;
use crate::program::Program;
use crate::reg::Reg;
use std::error::Error;
use std::fmt;

/// Architectural CPU state: the register file and program counter.
#[derive(Clone, Debug)]
pub struct CpuState {
    /// Integer register values; `regs[31]` is maintained at zero.
    pub regs: [u64; 32],
    /// Current instruction index.
    pub pc: usize,
    /// Whether a `halt` has been executed.
    pub halted: bool,
}

impl CpuState {
    /// Creates a zeroed CPU state starting at `entry`.
    pub fn new(entry: usize) -> CpuState {
        CpuState { regs: [0; 32], pc: entry, halted: false }
    }

    /// Reads a register (the zero register always reads 0).
    #[inline(always)]
    pub fn read(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register (writes to the zero register are discarded).
    #[inline(always)]
    pub fn write(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }
}

/// A memory reference performed by one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRef {
    /// Effective byte address.
    pub addr: u64,
    /// Access width in bytes.
    pub width: u8,
    /// Whether the access is a store.
    pub store: bool,
}

/// A control transfer performed by one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BrRec {
    /// Whether the branch was taken.
    pub taken: bool,
    /// The target instruction index (meaningful when taken).
    pub target: usize,
}

/// The result of executing one fetched instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepInfo {
    /// The memory reference, if any (mini-graphs perform at most one).
    pub mem: Option<MemRef>,
    /// The control transfer, if the instruction was a branch/jump (or a
    /// mini-graph terminating in one).
    pub br: Option<BrRec>,
    /// How many original program instructions this step represents: 1 for a
    /// singleton, the template length for a handle.
    pub represents: u32,
    /// Whether this step executed `halt`.
    pub halted: bool,
}

/// Errors produced by functional execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The program counter left the code image.
    PcOutOfRange(usize),
    /// A handle referenced an MGID with no catalog entry.
    UnknownMgid(u32),
    /// A handle was executed but no catalog was supplied.
    MissingCatalog,
    /// `run_to_halt` exceeded its instruction budget.
    StepLimit(u64),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PcOutOfRange(pc) => write!(f, "program counter {pc} out of range"),
            ExecError::UnknownMgid(id) => write!(f, "unknown MGID {id}"),
            ExecError::MissingCatalog => {
                f.write_str("handle executed without a handle catalog")
            }
            ExecError::StepLimit(n) => write!(f, "exceeded step limit of {n} instructions"),
        }
    }
}

impl Error for ExecError {}

/// Evaluates an operate-format ALU operation.
#[inline(always)]
pub fn alu_eval(op: Opcode, a: u64, b: u64) -> u64 {
    let sext32 = |x: u64| x as u32 as i32 as i64 as u64;
    match op {
        Opcode::Addl => sext32(a.wrapping_add(b)),
        Opcode::Addq | Opcode::Lda => a.wrapping_add(b),
        Opcode::Subl => sext32(a.wrapping_sub(b)),
        Opcode::Subq => a.wrapping_sub(b),
        Opcode::S4addl => sext32(a.wrapping_mul(4).wrapping_add(b)),
        Opcode::S8addl => sext32(a.wrapping_mul(8).wrapping_add(b)),
        Opcode::S4addq => a.wrapping_mul(4).wrapping_add(b),
        Opcode::S8addq => a.wrapping_mul(8).wrapping_add(b),
        Opcode::Mull => sext32(a.wrapping_mul(b)),
        Opcode::Mulq => a.wrapping_mul(b),
        Opcode::And => a & b,
        Opcode::Bis => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Bic => a & !b,
        Opcode::Ornot => a | !b,
        Opcode::Eqv => a ^ !b,
        Opcode::Sll => a.wrapping_shl((b & 63) as u32),
        Opcode::Srl => a.wrapping_shr((b & 63) as u32),
        Opcode::Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
        Opcode::Cmpeq => (a == b) as u64,
        Opcode::Cmplt => ((a as i64) < (b as i64)) as u64,
        Opcode::Cmple => ((a as i64) <= (b as i64)) as u64,
        Opcode::Cmpult => (a < b) as u64,
        Opcode::Cmpule => (a <= b) as u64,
        Opcode::Zapnot => {
            let mut out = 0u64;
            for i in 0..8 {
                if (b >> i) & 1 == 1 {
                    out |= a & (0xffu64 << (8 * i));
                }
            }
            out
        }
        Opcode::Extbl => (a >> (8 * (b & 7))) & 0xff,
        Opcode::Sextb => a as u8 as i8 as i64 as u64,
        Opcode::Sextw => a as u16 as i16 as i64 as u64,
        _ => panic!("alu_eval called on non-ALU opcode {op}"),
    }
}

/// Evaluates a conditional-branch test against zero.
#[inline(always)]
pub fn branch_taken(op: Opcode, a: u64) -> bool {
    match op {
        Opcode::Beq => a == 0,
        Opcode::Bne => a != 0,
        Opcode::Blt => (a as i64) < 0,
        Opcode::Ble => (a as i64) <= 0,
        Opcode::Bgt => (a as i64) > 0,
        Opcode::Bge => (a as i64) >= 0,
        _ => panic!("branch_taken called on non-branch opcode {op}"),
    }
}

/// Loads a value with `op`'s width and extension (the one definition of
/// load semantics, shared by singletons and mini-graph templates).
#[inline(always)]
fn load_value(op: Opcode, mem: &Memory, addr: u64) -> u64 {
    match op {
        Opcode::Ldq => mem.read_u64(addr),
        Opcode::Ldl => mem.read_u32(addr) as i32 as i64 as u64,
        Opcode::Ldwu => mem.read_u16(addr) as u64,
        Opcode::Ldbu => mem.read_u8(addr) as u64,
        _ => panic!("load_value called on non-load opcode {op}"),
    }
}

#[inline(always)]
fn operand_value(state: &CpuState, o: Operand) -> u64 {
    match o {
        Operand::Reg(r) => state.read(r),
        Operand::Imm(i) => i as u64,
    }
}

/// Receives the architectural events of the interpreter loop ([`run`]).
///
/// The loop is generic over its sink and inlined into each caller, so a
/// sink that ignores an event compiles to a loop that never builds it:
/// the block-frequency profile counts retirements only and never
/// materialises a [`MemRef`] or [`BrRec`].
pub trait StepSink {
    /// The step in progress performed a memory reference (a mini-graph
    /// performs at most one).
    #[inline(always)]
    fn mem(&mut self, _mem: MemRef) {}

    /// The step in progress transferred control (for a mini-graph, its
    /// terminal branch).
    #[inline(always)]
    fn br(&mut self, _br: BrRec) {}

    /// The instruction fetched at `pc` retired, standing for `represents`
    /// original program instructions (1 for a singleton, the template
    /// length for a handle, 0 for rewriter padding); `halted` if it was
    /// `halt`. Returns whether the loop should go on to the next step.
    fn retire(&mut self, pc: usize, represents: u32, halted: bool) -> bool;
}

/// [`step`]'s sink: collects one step's events.
impl StepSink for StepInfo {
    #[inline(always)]
    fn mem(&mut self, mem: MemRef) {
        self.mem = Some(mem);
    }

    #[inline(always)]
    fn br(&mut self, br: BrRec) {
        self.br = Some(br);
    }

    #[inline(always)]
    fn retire(&mut self, _pc: usize, represents: u32, halted: bool) -> bool {
        self.represents = represents;
        self.halted = halted;
        true
    }
}

/// Executes the mini-graph template `tmpl` of the handle `inst` against
/// architectural state, reporting its memory reference and terminal
/// branch to `sink`; returns the next pc.
#[inline]
fn exec_handle<S: StepSink>(
    inst: &Inst,
    tmpl: &MgTemplate,
    state: &mut CpuState,
    mem: &mut Memory,
    sink: &mut S,
) -> usize {
    let e0 = state.read(inst.ra);
    let e1 = operand_value(state, inst.rb);
    let mut interior = [0u64; 16];
    let mut next_pc = state.pc + 1;

    let val = |interior: &[u64; 16], o: TmplOperand| -> u64 {
        match o {
            TmplOperand::E0 => e0,
            TmplOperand::E1 => e1,
            TmplOperand::M(i) => interior[i as usize],
            TmplOperand::Imm(v) => v as u64,
        }
    };

    for (i, t) in tmpl.ops.iter().enumerate() {
        match t.op {
            Opcode::Ldq | Opcode::Ldl | Opcode::Ldwu | Opcode::Ldbu => {
                let addr = val(&interior, t.a).wrapping_add(t.disp as u64);
                let width = t.op.mem_width().expect("load has a width");
                interior[i] = load_value(t.op, mem, addr);
                sink.mem(MemRef { addr, width, store: false });
            }
            Opcode::Stq | Opcode::Stl | Opcode::Stw | Opcode::Stb => {
                let addr = val(&interior, t.b).wrapping_add(t.disp as u64);
                let width = t.op.mem_width().expect("store has a width");
                mem.write_uint(addr, width, val(&interior, t.a));
                sink.mem(MemRef { addr, width, store: true });
            }
            Opcode::Beq
            | Opcode::Bne
            | Opcode::Blt
            | Opcode::Ble
            | Opcode::Bgt
            | Opcode::Bge => {
                let taken = branch_taken(t.op, val(&interior, t.a));
                let target = inst.aux as usize;
                sink.br(BrRec { taken, target });
                if taken {
                    next_pc = target;
                }
            }
            Opcode::Br | Opcode::Bsr => {
                let target = inst.aux as usize;
                sink.br(BrRec { taken: true, target });
                next_pc = target;
            }
            Opcode::Jmp
            | Opcode::Jsr
            | Opcode::Ret
            | Opcode::Mg
            | Opcode::Nop
            | Opcode::Pad
            | Opcode::Halt => {
                unreachable!("illegal opcode {op} inside a mini-graph template", op = t.op)
            }
            op => interior[i] = alu_eval(op, val(&interior, t.a), val(&interior, t.b)),
        }
    }

    if let Some(o) = tmpl.out {
        state.write(inst.rc, interior[o as usize]);
    }
    next_pc
}

/// The interpreter loop: executes up to `max_steps` fetched instructions
/// from `state.pc`, reporting each step's events to `sink`, until `halt`
/// retires or the sink declines to continue. Returns whether the program
/// halted.
///
/// This is the workspace's one functional-execution path: [`step`],
/// [`run_to_halt`], and the profiling and trace-recording passes in
/// `mg-profile` are all this loop with different sinks. Each iteration is
/// a single `match` on the [`Opcode`]: operands are read before it, and
/// each arm does its opcode's whole work. Arms share the one definition of
/// each semantic ([`alu_eval`], [`branch_taken`], loads, [`Memory`]
/// widths) through `#[inline(always)]` helpers that fold into the
/// dispatch. Handles are expanded via `catalog`; passing `None` is fine
/// for programs with no handles.
///
/// # Errors
///
/// * [`ExecError::PcOutOfRange`] if the pc leaves the program.
/// * [`ExecError::MissingCatalog`] / [`ExecError::UnknownMgid`] for handle
///   lookups that cannot be satisfied.
///
/// On error, `state` is left at the failing instruction.
#[inline]
pub fn run<S: StepSink>(
    prog: &Program,
    state: &mut CpuState,
    mem: &mut Memory,
    catalog: Option<&HandleCatalog>,
    max_steps: u64,
    sink: &mut S,
) -> Result<bool, ExecError> {
    for _ in 0..max_steps {
        let pc = state.pc;
        let inst = prog.insts.get(pc).ok_or(ExecError::PcOutOfRange(pc))?;
        let a = state.read(inst.ra);
        let b = operand_value(state, inst.rb);
        let ea = a.wrapping_add(inst.disp as u64);
        let mut next_pc = pc + 1;
        let mut represents = 1;
        let mut halted = false;
        match inst.op {
            Opcode::Ldq => {
                state.write(inst.rc, load_value(Opcode::Ldq, mem, ea));
                sink.mem(MemRef { addr: ea, width: 8, store: false });
            }
            Opcode::Ldl => {
                state.write(inst.rc, load_value(Opcode::Ldl, mem, ea));
                sink.mem(MemRef { addr: ea, width: 4, store: false });
            }
            Opcode::Ldwu => {
                state.write(inst.rc, load_value(Opcode::Ldwu, mem, ea));
                sink.mem(MemRef { addr: ea, width: 2, store: false });
            }
            Opcode::Ldbu => {
                state.write(inst.rc, load_value(Opcode::Ldbu, mem, ea));
                sink.mem(MemRef { addr: ea, width: 1, store: false });
            }
            Opcode::Stq => {
                mem.write_uint(ea, 8, b);
                sink.mem(MemRef { addr: ea, width: 8, store: true });
            }
            Opcode::Stl => {
                mem.write_uint(ea, 4, b);
                sink.mem(MemRef { addr: ea, width: 4, store: true });
            }
            Opcode::Stw => {
                mem.write_uint(ea, 2, b);
                sink.mem(MemRef { addr: ea, width: 2, store: true });
            }
            Opcode::Stb => {
                mem.write_uint(ea, 1, b);
                sink.mem(MemRef { addr: ea, width: 1, store: true });
            }
            Opcode::Beq
            | Opcode::Bne
            | Opcode::Blt
            | Opcode::Ble
            | Opcode::Bgt
            | Opcode::Bge => {
                let taken = branch_taken(inst.op, a);
                let target = inst.disp as usize;
                sink.br(BrRec { taken, target });
                if taken {
                    next_pc = target;
                }
            }
            Opcode::Br | Opcode::Bsr => {
                state.write(inst.rc, (pc + 1) as u64);
                next_pc = inst.disp as usize;
                sink.br(BrRec { taken: true, target: next_pc });
            }
            Opcode::Jmp | Opcode::Jsr | Opcode::Ret => {
                state.write(inst.rc, (pc + 1) as u64);
                next_pc = a as usize;
                sink.br(BrRec { taken: true, target: next_pc });
            }
            Opcode::Mg => {
                let catalog = catalog.ok_or(ExecError::MissingCatalog)?;
                let mgid = inst.disp as u32;
                let tmpl = catalog.get(mgid).ok_or(ExecError::UnknownMgid(mgid))?;
                next_pc = exec_handle(inst, tmpl, state, mem, sink);
                represents = tmpl.ops.len() as u32;
            }
            Opcode::Nop => {}
            // Rewriter padding: squashed at fetch, represents nothing.
            Opcode::Pad => represents = 0,
            Opcode::Halt => {
                halted = true;
                next_pc = pc;
                state.halted = true;
            }
            op => state.write(inst.rc, alu_eval(op, a, b)),
        }
        state.pc = next_pc;
        if !sink.retire(pc, represents, halted) || halted {
            return Ok(halted);
        }
    }
    Ok(false)
}

/// Executes one fetched instruction at `state.pc`.
///
/// Handles are expanded via `catalog`; passing `None` is fine for programs
/// with no handles.
///
/// # Errors
///
/// * [`ExecError::PcOutOfRange`] if `state.pc` is outside the program.
/// * [`ExecError::MissingCatalog`] / [`ExecError::UnknownMgid`] for handle
///   lookups that cannot be satisfied.
pub fn step(
    prog: &Program,
    state: &mut CpuState,
    mem: &mut Memory,
    catalog: Option<&HandleCatalog>,
) -> Result<StepInfo, ExecError> {
    let mut info = StepInfo { mem: None, br: None, represents: 1, halted: false };
    run(prog, state, mem, catalog, 1, &mut info)?;
    Ok(info)
}

/// Runs until `halt`, returning the number of *original* instructions
/// executed (handles count as their template length).
///
/// # Errors
///
/// Propagates [`run`] errors, and returns [`ExecError::StepLimit`] if more
/// than `max_steps` fetched instructions execute without halting.
pub fn run_to_halt(
    prog: &Program,
    state: &mut CpuState,
    mem: &mut Memory,
    catalog: Option<&HandleCatalog>,
    max_steps: u64,
) -> Result<u64, ExecError> {
    struct Count(u64);
    impl StepSink for Count {
        #[inline(always)]
        fn retire(&mut self, _pc: usize, represents: u32, _halted: bool) -> bool {
            self.0 += represents as u64;
            true
        }
    }
    let mut executed = Count(0);
    if run(prog, state, mem, catalog, max_steps, &mut executed)? {
        Ok(executed.0)
    } else {
        Err(ExecError::StepLimit(max_steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::handle::TmplInst;
    use crate::reg::reg;

    fn run(asm: Asm) -> (CpuState, Memory) {
        let p = asm.finish().unwrap();
        let mut cpu = CpuState::new(p.entry);
        let mut mem = Memory::new();
        run_to_halt(&p, &mut cpu, &mut mem, None, 100_000).unwrap();
        (cpu, mem)
    }

    #[test]
    fn alu_32_bit_sign_extension() {
        assert_eq!(alu_eval(Opcode::Addl, 0x7fff_ffff, 1), 0xffff_ffff_8000_0000);
        assert_eq!(alu_eval(Opcode::Addq, 0x7fff_ffff, 1), 0x8000_0000);
        assert_eq!(alu_eval(Opcode::Subl, 0, 1), u64::MAX);
    }

    #[test]
    fn scaled_adds() {
        assert_eq!(alu_eval(Opcode::S4addl, 3, 5), 17);
        assert_eq!(alu_eval(Opcode::S8addq, 2, 1), 17);
    }

    #[test]
    fn logic_and_shifts() {
        assert_eq!(alu_eval(Opcode::Bic, 0b1111, 0b0101), 0b1010);
        assert_eq!(alu_eval(Opcode::Ornot, 0, 0), u64::MAX);
        assert_eq!(alu_eval(Opcode::Eqv, 5, 5), u64::MAX);
        assert_eq!(alu_eval(Opcode::Sra, (-8i64) as u64, 1), (-4i64) as u64);
        assert_eq!(alu_eval(Opcode::Srl, (-8i64) as u64, 60), 15);
    }

    #[test]
    fn comparisons_signed_and_unsigned() {
        assert_eq!(alu_eval(Opcode::Cmplt, u64::MAX, 0), 1, "-1 < 0 signed");
        assert_eq!(alu_eval(Opcode::Cmpult, u64::MAX, 0), 0, "MAX !< 0 unsigned");
        assert_eq!(alu_eval(Opcode::Cmple, 5, 5), 1);
        assert_eq!(alu_eval(Opcode::Cmpule, 6, 5), 0);
    }

    #[test]
    fn byte_ops() {
        assert_eq!(alu_eval(Opcode::Zapnot, 0x1122_3344_5566_7788, 0x0f), 0x5566_7788);
        assert_eq!(alu_eval(Opcode::Extbl, 0x1122_3344_5566_7788, 2), 0x66);
        assert_eq!(alu_eval(Opcode::Sextb, 0x80, 0), (-128i64) as u64);
        assert_eq!(alu_eval(Opcode::Sextw, 0x8000, 0), (-32768i64) as u64);
    }

    #[test]
    fn loads_extend_correctly() {
        let mut a = Asm::new();
        a.li(reg(1), 0x2000);
        a.ldl(reg(2), 0, reg(1));
        a.ldbu(reg(3), 3, reg(1));
        a.halt();
        let p = a.finish().unwrap();
        let mut cpu = CpuState::new(0);
        let mut mem = Memory::new();
        mem.write_u32(0x2000, 0x8000_0001);
        run_to_halt(&p, &mut cpu, &mut mem, None, 100).unwrap();
        assert_eq!(cpu.regs[2], 0xffff_ffff_8000_0001, "ldl sign-extends");
        assert_eq!(cpu.regs[3], 0x80, "ldbu zero-extends");
    }

    #[test]
    fn store_width() {
        let mut a = Asm::new();
        a.li(reg(1), 0x3000);
        a.li(reg(2), -1);
        a.stw(reg(2), 4, reg(1));
        a.halt();
        let (_, mem) = run(a);
        assert_eq!(mem.read_u64(0x3000), 0xffff_0000_0000);
    }

    #[test]
    fn loop_with_branches() {
        let mut a = Asm::new();
        a.li(reg(1), 5);
        a.li(reg(2), 0);
        a.label("top");
        a.addq(reg(2), reg(1), reg(2));
        a.subq(reg(1), 1, reg(1));
        a.bne(reg(1), "top");
        a.halt();
        let (cpu, _) = run(a);
        assert_eq!(cpu.regs[2], 15);
    }

    #[test]
    fn call_and_return() {
        let mut a = Asm::new();
        a.bsr(reg(26), "func");
        a.halt();
        a.label("func");
        a.li(reg(1), 99);
        a.ret(reg(26));
        let (cpu, _) = run(a);
        assert_eq!(cpu.regs[1], 99);
    }

    #[test]
    fn zero_register_ignores_writes() {
        let mut a = Asm::new();
        a.li(Reg::ZERO, 42);
        a.halt();
        let (cpu, _) = run(a);
        assert_eq!(cpu.regs[31], 0);
    }

    #[test]
    fn step_limit_enforced() {
        let mut a = Asm::new();
        a.label("spin");
        a.br("spin");
        let p = a.finish().unwrap();
        let mut cpu = CpuState::new(0);
        let mut mem = Memory::new();
        let err = run_to_halt(&p, &mut cpu, &mut mem, None, 10).unwrap_err();
        assert_eq!(err, ExecError::StepLimit(10));
    }

    #[test]
    fn handle_executes_like_expansion() {
        // Handle for: addl E0,2 ; cmplt M0,E1 ; bne M1 -> taken jumps to aux.
        let mut cat = HandleCatalog::new();
        let mgid = cat.add(MgTemplate {
            ops: vec![
                TmplInst {
                    op: Opcode::Addl,
                    a: TmplOperand::E0,
                    b: TmplOperand::Imm(2),
                    disp: 0,
                },
                TmplInst {
                    op: Opcode::Cmplt,
                    a: TmplOperand::M(0),
                    b: TmplOperand::E1,
                    disp: 0,
                },
                TmplInst {
                    op: Opcode::Bne,
                    a: TmplOperand::M(1),
                    b: TmplOperand::Imm(0),
                    disp: 0,
                },
            ],
            out: Some(0),
        });
        // Program: r18 = 0, r5 = 10; handle adds 2 to r18 and loops while r18 < r5.
        let mut a = Asm::new();
        a.li(reg(18), 0);
        a.li(reg(5), 10);
        a.label("loop");
        a.push(Inst::handle(reg(18), reg(5), reg(18), mgid, Some(2)));
        a.halt();
        let p = a.finish().unwrap();
        let mut cpu = CpuState::new(0);
        let mut mem = Memory::new();
        let n = run_to_halt(&p, &mut cpu, &mut mem, Some(&cat), 1000).unwrap();
        assert_eq!(cpu.regs[18], 10);
        // 2 li's + 5 handle iterations * 3 represented + 1 halt.
        assert_eq!(n, 2 + 5 * 3 + 1);
    }

    #[test]
    fn handle_without_catalog_errors() {
        let mut a = Asm::new();
        a.push(Inst::handle(reg(1), reg(2), reg(3), 0, None));
        let p = a.finish().unwrap();
        let mut cpu = CpuState::new(0);
        let mut mem = Memory::new();
        assert_eq!(step(&p, &mut cpu, &mut mem, None), Err(ExecError::MissingCatalog));
    }
}
