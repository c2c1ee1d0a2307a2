//! Mini-graph candidates: interface analysis, anchor selection, and
//! legality (register/memory interference) checking.

use crate::dataflow::BlockDataflow;
use crate::liveness::{contains, RegSet};
use mg_isa::{Inst, MgTemplate, OpClass, Operand, Program, Reg, TmplInst, TmplOperand};
use mg_profile::BasicBlock;

/// A legal mini-graph candidate: a set of instructions inside one basic
/// block, collapsible to a single handle at the anchor position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MiniGraph {
    /// Absolute instruction indices of the members, ascending.
    pub members: Vec<usize>,
    /// The member around which the graph collapses (branch ≻ memory op ≻
    /// last member, paper §3.2).
    pub anchor: usize,
    /// External interface input registers, in first-appearance order
    /// (bound to `E0`/`E1` of the handle). At most two.
    pub inputs: Vec<Reg>,
    /// External interface output register and the member (by position in
    /// `members`) that produces it, if the graph has a live output.
    pub output: Option<(Reg, u8)>,
    /// The canonical execution template (MGT row content).
    pub template: MgTemplate,
    /// Execution frequency of the containing block (from the profile).
    pub freq: u64,
    /// Absolute target index of the terminal branch, if any.
    pub branch_target: Option<usize>,
}

impl MiniGraph {
    /// Number of constituent instructions.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Estimated coverage benefit `(n - 1) * f` (paper §3.2): the number of
    /// dynamic pipeline slots the graph saves.
    pub fn benefit(&self) -> u64 {
        (self.size() as u64 - 1) * self.freq
    }

    /// Builds the handle instruction for this instance.
    pub fn handle_inst(&self, mgid: u32) -> Inst {
        let e0 = self.inputs.first().copied().unwrap_or(Reg::ZERO);
        let e1 = self.inputs.get(1).copied().unwrap_or(Reg::ZERO);
        let out = self.output.map(|(r, _)| r).unwrap_or(Reg::ZERO);
        Inst::handle(e0, e1, out, mgid, self.branch_target.map(|t| t as i64))
    }
}

/// Why a candidate set is not a legal mini-graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Illegal {
    /// Fewer than two members.
    TooSmall,
    /// A member opcode may not appear in a mini-graph.
    IneligibleOpcode,
    /// More than one memory operation.
    TooManyMemOps,
    /// A control transfer that is not the last member.
    NonTerminalBranch,
    /// More than two distinct external register inputs.
    TooManyInputs,
    /// More than one live register output.
    TooManyOutputs,
    /// Collapsing to the anchor would change a register value seen by a
    /// non-member instruction (or seen *from* one).
    RegisterInterference,
    /// Collapsing would reorder the member memory operation with respect
    /// to a non-member memory operation.
    MemoryInterference,
}

/// Chooses the anchor for a member set: the branch if present, else the
/// memory operation, else the last member (paper §3.2).
pub fn choose_anchor(prog: &Program, members: &[usize]) -> usize {
    if let Some(&b) = members.iter().find(|&&i| prog.insts[i].op.is_control()) {
        return b;
    }
    if let Some(&m) = members.iter().find(|&&i| prog.insts[i].op.class().is_mem()) {
        return m;
    }
    *members.last().expect("member set is non-empty")
}

/// Analyzes a member set and, if legal, produces the [`MiniGraph`].
///
/// `members` must be sorted ascending and lie within `block`; `live_out`
/// is the block's global live-out register set (see
/// [`crate::liveness::compute_liveness`]), used to decide which member
/// defs are transient interior values.
///
/// # Errors
///
/// Returns the first [`Illegal`] condition found.
pub fn analyze(
    prog: &Program,
    block: &BasicBlock,
    df: &BlockDataflow,
    members: &[usize],
    freq: u64,
    live_out: RegSet,
) -> Result<MiniGraph, Illegal> {
    if members.len() < 2 {
        return Err(Illegal::TooSmall);
    }
    let in_set = |i: usize| members.binary_search(&i).is_ok();

    // Composition: eligible opcodes, at most one memory op, branches
    // terminal (within the set, which — blocks ending at branches — means
    // the branch is the last member and the last instruction of the block).
    let mut mem_ops = 0usize;
    for (k, &i) in members.iter().enumerate() {
        let op = prog.insts[i].op;
        if !op.is_mini_graph_eligible() {
            return Err(Illegal::IneligibleOpcode);
        }
        if op.class().is_mem() {
            mem_ops += 1;
        }
        if op.is_control() && k + 1 != members.len() {
            return Err(Illegal::NonTerminalBranch);
        }
    }
    if mem_ops > 1 {
        return Err(Illegal::TooManyMemOps);
    }

    let anchor = choose_anchor(prog, members);

    // Register and memory interference between each member's original
    // position and the anchor (paper §3.2: "We reject mini-graphs if there
    // is register interference in the range between the anchor and original
    // positions of the first and last instructions").
    for &m in members {
        let (lo, hi) = (m.min(anchor), m.max(anchor));
        if lo == hi {
            continue;
        }
        let m_def = df.def(m);
        let m_is_mem = prog.insts[m].op.class().is_mem();
        for x in (lo + 1)..hi {
            if in_set(x) {
                continue;
            }
            // Memory interference: a member memory op may not cross any
            // non-member memory op (conservative: loads included).
            if m_is_mem && prog.insts[x].op.class().is_mem() {
                return Err(Illegal::MemoryInterference);
            }
            if m < anchor {
                // m moves DOWN to the anchor.
                if let Some(d) = m_def {
                    // x would lose m's value (RAW) or m would clobber x's
                    // later def (WAW).
                    if df.reads(x, d) && df.producer_of_reg(x, d) == Some(m) {
                        return Err(Illegal::RegisterInterference);
                    }
                    if df.defines(x, d) {
                        return Err(Illegal::RegisterInterference);
                    }
                }
                // m would read x's later def instead of its original value.
                if let Some(xd) = df.def(x) {
                    if df.reads(m, xd) {
                        return Err(Illegal::RegisterInterference);
                    }
                }
            } else {
                // m moves UP to the anchor.
                if let Some(xd) = df.def(x) {
                    // m originally read x's def (or a later one in the gap).
                    if df.reads(m, xd) {
                        if let Some(p) = df.producer_of_reg(m, xd) {
                            if p > anchor && !in_set(p) {
                                return Err(Illegal::RegisterInterference);
                            }
                        }
                    }
                    if m_def == Some(xd) {
                        return Err(Illegal::RegisterInterference); // WAW
                    }
                }
                if let Some(d) = m_def {
                    // x would see m's def early (WAR violated).
                    if df.reads(x, d) {
                        return Err(Illegal::RegisterInterference);
                    }
                }
            }
        }
    }

    // Interface inputs: distinct registers read by members whose producer
    // is outside the set.
    let mut inputs: Vec<Reg> = Vec::new();
    for &m in members {
        for (slot, src) in df.srcs(m).into_iter().enumerate() {
            let Some(r) = src else { continue };
            let external = match df.producer(m, slot) {
                Some(p) => !in_set(p),
                None => true,
            };
            if external && !inputs.contains(&r) {
                inputs.push(r);
            }
        }
    }
    if inputs.len() > 2 {
        return Err(Illegal::TooManyInputs);
    }

    // Interface outputs: member defs that are observable outside the set —
    // read by a later non-member (before being redefined) or reaching the
    // end of the block unredefined while globally live-out.
    let mut outputs: Vec<(Reg, u8)> = Vec::new();
    for (k, &m) in members.iter().enumerate() {
        let Some(d) = df.def(m) else { continue };
        // Only the set's final def of a register can escape.
        if members.iter().any(|&m2| m2 > m && df.defines(m2, d)) {
            continue;
        }
        let mut live = contains(live_out, d); // reaches block end unless redefined
        let mut read_outside = false;
        for x in (m + 1)..block.end {
            if in_set(x) {
                continue;
            }
            if df.reads(x, d) && df.producer_of_reg(x, d) == Some(m) {
                read_outside = true;
            }
            if df.defines(x, d) {
                live = false;
                break;
            }
        }
        if read_outside || live {
            outputs.push((d, k as u8));
        }
    }
    if outputs.len() > 1 {
        return Err(Illegal::TooManyOutputs);
    }
    let output = outputs.pop();

    // Canonical template.
    let template = build_template(prog, df, members, anchor, &inputs, output, &in_set)?;

    let branch_target = members.last().and_then(|&b| prog.insts[b].static_target());

    Ok(MiniGraph {
        members: members.to_vec(),
        anchor,
        inputs,
        output,
        template,
        freq,
        branch_target,
    })
}

impl BlockDataflow {
    /// Producer of register `r` as read by instruction `j`, if `j` reads it.
    pub(crate) fn producer_of_reg(&self, j: usize, r: Reg) -> Option<usize> {
        let srcs = self.srcs(j);
        srcs.iter().position(|&s| s == Some(r)).and_then(|slot| self.producer(j, slot))
    }
}

fn tmpl_operand(
    df: &BlockDataflow,
    members: &[usize],
    m: usize,
    slot: usize,
    reg: Option<Reg>,
    inputs: &[Reg],
    in_set: &dyn Fn(usize) -> bool,
) -> TmplOperand {
    match reg {
        Some(r) => {
            if let Some(p) = df.producer(m, slot) {
                if in_set(p) {
                    let pos = members.binary_search(&p).expect("producer is a member") as u8;
                    return TmplOperand::M(pos);
                }
            }
            let e = inputs.iter().position(|&x| x == r).expect("external reg is an input");
            if e == 0 {
                TmplOperand::E0
            } else {
                TmplOperand::E1
            }
        }
        None => TmplOperand::Imm(0), // reads of the zero register
    }
}

/// Builds the canonical [`MgTemplate`] for a legal member set.
fn build_template(
    prog: &Program,
    df: &BlockDataflow,
    members: &[usize],
    anchor: usize,
    inputs: &[Reg],
    output: Option<(Reg, u8)>,
    in_set: &dyn Fn(usize) -> bool,
) -> Result<MgTemplate, Illegal> {
    let mut ops = Vec::with_capacity(members.len());
    for &m in members {
        let inst = &prog.insts[m];
        let srcs = df.srcs(m);
        let t = match inst.op.class() {
            OpClass::IntAlu | OpClass::IntMul => {
                let a = tmpl_operand(df, members, m, 0, srcs[0], inputs, in_set);
                let b = match inst.rb {
                    Operand::Imm(v) => TmplOperand::Imm(v),
                    Operand::Reg(_) => tmpl_operand(df, members, m, 1, srcs[1], inputs, in_set),
                };
                TmplInst { op: inst.op, a, b, disp: 0 }
            }
            OpClass::Load => {
                let a = tmpl_operand(df, members, m, 0, srcs[0], inputs, in_set);
                TmplInst { op: inst.op, a, b: TmplOperand::Imm(0), disp: inst.disp }
            }
            OpClass::Store => {
                // Inst layout: ra = base (slot 0), rb = data (slot 1).
                let base = tmpl_operand(df, members, m, 0, srcs[0], inputs, in_set);
                let data = tmpl_operand(df, members, m, 1, srcs[1], inputs, in_set);
                TmplInst { op: inst.op, a: data, b: base, disp: inst.disp }
            }
            OpClass::CondBranch => {
                let a = tmpl_operand(df, members, m, 0, srcs[0], inputs, in_set);
                let rel = inst.disp - anchor as i64;
                TmplInst { op: inst.op, a, b: TmplOperand::Imm(0), disp: rel }
            }
            OpClass::UncondBranch => {
                let rel = inst.disp - anchor as i64;
                TmplInst {
                    op: inst.op,
                    a: TmplOperand::Imm(0),
                    b: TmplOperand::Imm(0),
                    disp: rel,
                }
            }
            _ => return Err(Illegal::IneligibleOpcode),
        };
        ops.push(t);
    }
    Ok(MgTemplate { ops, out: output.map(|(_, k)| k) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness::compute_liveness;
    use mg_isa::{reg, Asm};
    use mg_profile::build_cfg;

    /// The paper's Figure 1 left snippet. The `bne` exits to a block where
    /// `r7` is dead (as in the original gcc code, where the output of the
    /// mini-graph is `r18`).
    fn paper_left() -> Program {
        let mut a = Asm::new();
        a.addl(reg(18), 2, reg(18)); // 0 (member)
        a.lda(reg(6), 2, reg(6)); // 1
        a.s8addl(reg(7), reg(0), reg(7)); // 2
        a.cmplt(reg(18), reg(5), reg(7)); // 3 (member)
        a.bne(reg(7), "exit"); // 4 (member, anchor)
        a.halt(); // 5
        a.label("exit");
        a.stq(reg(18), 0, reg(16)); // keeps r18 live across the branch
        a.halt();
        a.finish().unwrap()
    }

    fn analyze_in(prog: &Program, members: &[usize]) -> Result<MiniGraph, Illegal> {
        let cfg = build_cfg(prog);
        let block = cfg.block_of(members[0]).unwrap();
        let bi = cfg.block_index_of(members[0]).unwrap();
        let lv = compute_liveness(prog, &cfg);
        let df = BlockDataflow::new(prog, block);
        analyze(prog, block, &df, members, 100, lv.live_out[bi])
    }

    #[test]
    fn paper_mg12_is_legal() {
        let p = paper_left();
        let mg = analyze_in(&p, &[0, 3, 4]).unwrap();
        assert_eq!(mg.anchor, 4, "anchored at the branch");
        assert_eq!(mg.inputs, vec![reg(18), reg(5)]);
        assert_eq!(mg.output, Some((reg(18), 0)), "addl's r18 is the output");
        assert_eq!(mg.template.out, Some(0));
        assert_eq!(mg.size(), 3);
        assert_eq!(mg.benefit(), 200);
        let h = mg.handle_inst(12);
        assert_eq!(h.to_string(), "mg r18,r5,r18,12");
        assert_eq!(h.handle_branch_target(), Some(6), "branches to the exit block");
        // Template matches the paper's MGT row 12:
        // addl E0,2 ; cmplt M0,E1 ; bne M1.
        assert_eq!(mg.template.ops[0].a, TmplOperand::E0);
        assert_eq!(mg.template.ops[0].b, TmplOperand::Imm(2));
        assert_eq!(mg.template.ops[1].a, TmplOperand::M(0));
        assert_eq!(mg.template.ops[1].b, TmplOperand::E1);
        assert_eq!(mg.template.ops[2].a, TmplOperand::M(1));
    }

    #[test]
    fn paper_mg34_is_legal() {
        // Figure 1 right snippet: ldq r2,16(r4); srl r2,14,r17; bis
        // zero,r18,r16; and r17,1,r17 — members are the ldq/srl/and. The
        // stq keeps r17 (the mini-graph output) observably live.
        let mut a = Asm::new();
        a.ldq(reg(2), 16, reg(4)); // 0 (member, anchor: memory op)
        a.srl(reg(2), 14, reg(17)); // 1 (member)
        a.bis(Reg::ZERO, reg(18), reg(16)); // 2
        a.and(reg(17), 1, reg(17)); // 3 (member)
        a.stq(reg(17), 0, reg(16)); // 4 (consumer)
        a.halt(); // 5
        let p = a.finish().unwrap();
        let mg = analyze_in(&p, &[0, 1, 3]).unwrap();
        assert_eq!(mg.anchor, 0, "anchored at the load");
        assert_eq!(mg.inputs, vec![reg(4)]);
        assert_eq!(mg.output, Some((reg(17), 2)));
        let h = mg.handle_inst(34);
        assert_eq!(h.to_string(), "mg r4,r31,r17,34");
        assert!(mg.template.has_interior_load());
        assert!(mg.template.is_serial_chain());
        // r2 (the load's destination) is interior: srl is its only reader.
        assert!(!mg.inputs.contains(&reg(2)));
    }

    #[test]
    fn too_many_inputs_rejected() {
        let mut a = Asm::new();
        a.addq(reg(1), reg(2), reg(4));
        a.addq(reg(4), reg(3), reg(5));
        a.addq(reg(5), reg(6), reg(7));
        a.halt();
        let p = a.finish().unwrap();
        // r1, r2, r3, r6 are all external: four inputs.
        assert_eq!(analyze_in(&p, &[0, 1, 2]).unwrap_err(), Illegal::TooManyInputs);
    }

    #[test]
    fn two_live_outputs_rejected() {
        let mut a = Asm::new();
        a.addq(reg(1), 1, reg(2));
        a.addq(reg(2), 1, reg(3));
        a.stq(reg(2), 0, reg(30)); // both r2 and r3 are observed
        a.stq(reg(3), 8, reg(30));
        a.halt();
        let p = a.finish().unwrap();
        assert_eq!(analyze_in(&p, &[0, 1]).unwrap_err(), Illegal::TooManyOutputs);
    }

    #[test]
    fn dead_defs_are_interior() {
        // Same pair, but nothing reads r2 or r3 afterwards: both defs are
        // transient, the graph legally has no output at all.
        let mut a = Asm::new();
        a.addq(reg(1), 1, reg(2));
        a.addq(reg(2), 1, reg(3));
        a.halt();
        let p = a.finish().unwrap();
        let mg = analyze_in(&p, &[0, 1]).unwrap();
        assert_eq!(mg.output, None);
    }

    #[test]
    fn interior_value_not_an_output() {
        let mut a = Asm::new();
        a.addq(reg(1), 1, reg(2));
        a.addq(reg(2), 1, reg(2)); // overwrites r2: first def is interior
        a.stq(reg(2), 0, reg(30)); // final r2 observed
        a.halt();
        let p = a.finish().unwrap();
        let mg = analyze_in(&p, &[0, 1]).unwrap();
        assert_eq!(mg.output, Some((reg(2), 1)));
    }

    #[test]
    fn interference_def_read_between() {
        let mut a = Asm::new();
        a.addq(reg(1), 1, reg(2)); // member: defines r2
        a.addq(reg(2), 0, reg(9)); // NON-member reads r2 -> interference
        a.addq(reg(2), 1, reg(2)); // member (anchor)
        a.halt();
        let p = a.finish().unwrap();
        assert_eq!(analyze_in(&p, &[0, 2]).unwrap_err(), Illegal::RegisterInterference);
    }

    #[test]
    fn interference_intervening_write_to_source() {
        let mut a = Asm::new();
        a.addq(reg(1), 1, reg(2)); // member: reads r1
        a.addq(reg(9), 0, reg(1)); // NON-member writes r1
        a.ldq(reg(3), 0, reg(2)); // member (anchor: memory op)
        a.halt();
        let p = a.finish().unwrap();
        assert_eq!(analyze_in(&p, &[0, 2]).unwrap_err(), Illegal::RegisterInterference);
    }

    #[test]
    fn memory_interference_rejected() {
        let mut a = Asm::new();
        a.ldq(reg(2), 0, reg(1)); // member load
        a.stq(reg(9), 0, reg(1)); // NON-member store in between
        a.addq(reg(2), 1, reg(3)); // member
        a.bne(reg(3), 0usize); // member (anchor: branch) -> load must move down
        let p = a.finish().unwrap();
        assert_eq!(analyze_in(&p, &[0, 2, 3]).unwrap_err(), Illegal::MemoryInterference);
    }

    #[test]
    fn clean_upward_motion_is_legal() {
        let mut a = Asm::new();
        a.ldq(reg(2), 0, reg(1)); // member, anchor (memory op)
        a.addq(reg(9), 1, reg(9)); // unrelated non-member
        a.addq(reg(2), 1, reg(2)); // member moves up across it
        a.stq(reg(2), 0, reg(30)); // r2 observed
        a.halt();
        let p = a.finish().unwrap();
        let mg = analyze_in(&p, &[0, 2]).unwrap();
        assert_eq!(mg.anchor, 0);
        assert_eq!(mg.inputs, vec![reg(1)]);
        assert_eq!(mg.output, Some((reg(2), 1)));
    }

    #[test]
    fn ineligible_opcode_rejected() {
        let mut a = Asm::new();
        a.mull(reg(1), reg(2), reg(3));
        a.addq(reg(3), 1, reg(3));
        a.halt();
        let p = a.finish().unwrap();
        assert_eq!(analyze_in(&p, &[0, 1]).unwrap_err(), Illegal::IneligibleOpcode);
    }

    #[test]
    fn two_memory_ops_rejected() {
        let mut a = Asm::new();
        a.ldq(reg(2), 0, reg(1));
        a.stq(reg(2), 8, reg(1));
        a.halt();
        let p = a.finish().unwrap();
        assert_eq!(analyze_in(&p, &[0, 1]).unwrap_err(), Illegal::TooManyMemOps);
    }

    #[test]
    fn store_terminated_graph_has_no_output() {
        let mut a = Asm::new();
        a.addq(reg(1), 9, reg(3));
        a.stq(reg(3), 0, reg(4)); // r3 dies here (not read later)
        a.lda(Reg::ZERO, 0, reg(3)); // redefines r3 => not live out
        a.halt();
        let p = a.finish().unwrap();
        let mg = analyze_in(&p, &[0, 1]).unwrap();
        assert_eq!(mg.output, None);
        assert_eq!(mg.anchor, 1);
        let h = mg.handle_inst(0);
        assert_eq!(h.dest_reg(), None);
    }
}
