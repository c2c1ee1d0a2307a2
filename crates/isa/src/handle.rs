//! Mini-graph execution templates.
//!
//! A *template* is the handle-to-instruction-sequence definition stored in
//! the mini-graph table (MGT). This module defines only the data types and
//! their architectural (functional) meaning, so that both the functional
//! simulator (`mg-profile`) and the timing simulator (`mg-uarch`) can
//! interpret handles without depending on the extraction machinery in
//! `mg-core` (which constructs these templates).
//!
//! Operands use the paper's mnemonics: `E0`/`E1` are the handle's explicit
//! interface input registers; `M(i)` is the interior value produced by the
//! template's `i`-th instruction; immediates are encoded directly.

use crate::opcode::{OpClass, Opcode};
use std::fmt;

/// An operand of a template instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TmplOperand {
    /// First interface input register (the handle's `ra`).
    E0,
    /// Second interface input register (the handle's `rb`).
    E1,
    /// The interior value produced by template instruction `i`.
    M(u8),
    /// An immediate.
    Imm(i64),
}

impl fmt::Display for TmplOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TmplOperand::E0 => f.write_str("E0"),
            TmplOperand::E1 => f.write_str("E1"),
            TmplOperand::M(i) => write!(f, "M{i}"),
            TmplOperand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// One instruction of a mini-graph template.
///
/// Field meaning mirrors [`crate::Inst`]:
///
/// | class        | `a`            | `b`         | `disp`                     |
/// |--------------|----------------|-------------|----------------------------|
/// | operate      | source 1       | source 2    | —                          |
/// | load         | base address   | —           | displacement               |
/// | store        | data           | base        | displacement               |
/// | branch       | test source    | —           | relative target (informational; the executed target comes from the handle's `aux` field) |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TmplInst {
    /// Operation.
    pub op: Opcode,
    /// First operand.
    pub a: TmplOperand,
    /// Second operand.
    pub b: TmplOperand,
    /// Displacement (memory offset, or branch displacement relative to the
    /// handle's own index).
    pub disp: i64,
}

impl fmt::Display for TmplInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op.class() {
            OpClass::Load => write!(f, "{} {}({})", self.op, self.disp, self.a),
            OpClass::Store => write!(f, "{} {},{}({})", self.op, self.a, self.disp, self.b),
            OpClass::CondBranch => write!(f, "{} {},{:+}", self.op, self.a, self.disp),
            OpClass::UncondBranch => write!(f, "{} {:+}", self.op, self.disp),
            _ => write!(f, "{} {},{}", self.op, self.a, self.b),
        }
    }
}

/// A complete mini-graph template: the instruction sequence one MGT row
/// describes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MgTemplate {
    /// Constituent instructions in execution (program) order.
    pub ops: Vec<TmplInst>,
    /// Index of the instruction that produces the mini-graph's interface
    /// output register, or `None` if the mini-graph has no live register
    /// output (e.g. a compare feeding only its terminal branch).
    pub out: Option<u8>,
}

impl MgTemplate {
    /// Number of constituent instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the template is empty (never true for legal templates).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The terminal control transfer, if any.
    pub fn terminal_branch(&self) -> Option<&TmplInst> {
        self.ops.last().filter(|t| t.op.is_control())
    }

    /// The single memory operation, if any.
    pub fn mem_op(&self) -> Option<(usize, &TmplInst)> {
        self.ops.iter().enumerate().find(|(_, t)| t.op.class().is_mem())
    }

    /// Whether every constituent is a single-cycle integer ALU op (i.e. the
    /// whole graph can execute on an ALU pipeline), allowing a terminal
    /// branch.
    pub fn is_integer_only(&self) -> bool {
        self.ops.iter().all(|t| t.op.is_single_cycle_int() || t.op.is_control())
    }

    /// Whether the template is a pure serial dependence chain: instruction
    /// `i+1` consumes `M(i)` for every adjacent pair.
    pub fn is_serial_chain(&self) -> bool {
        self.ops.iter().enumerate().skip(1).all(|(i, t)| {
            let want = TmplOperand::M(i as u8 - 1);
            t.a == want || t.b == want
        })
    }

    /// Whether any instruction other than the first consumes an external
    /// interface input (`E0`/`E1`) — the condition for *external
    /// serialization* (paper §4.1).
    pub fn is_externally_serial(&self) -> bool {
        self.ops.iter().skip(1).any(|t| {
            matches!(t.a, TmplOperand::E0 | TmplOperand::E1)
                || matches!(t.b, TmplOperand::E0 | TmplOperand::E1)
        })
    }

    /// Whether the template contains a load in a non-terminal position
    /// (vulnerable to whole-graph cache-miss replay, paper §4.3).
    pub fn has_interior_load(&self) -> bool {
        let n = self.ops.len();
        self.ops.iter().enumerate().any(|(i, t)| t.op.is_load() && i + 1 != n)
    }
}

impl fmt::Display for MgTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "out={:?} ", self.out)?;
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

/// The set of mini-graph templates a program image refers to, indexed by
/// MGID. This is the architectural content of the MGT; the timing-level
/// MGHT/MGST organization is built on top of it by `mg-core`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HandleCatalog {
    templates: Vec<MgTemplate>,
}

impl HandleCatalog {
    /// Creates an empty catalog.
    pub fn new() -> HandleCatalog {
        HandleCatalog::default()
    }

    /// Adds a template, returning its MGID.
    pub fn add(&mut self, t: MgTemplate) -> u32 {
        self.templates.push(t);
        (self.templates.len() - 1) as u32
    }

    /// Looks up a template by MGID.
    pub fn get(&self, mgid: u32) -> Option<&MgTemplate> {
        self.templates.get(mgid as usize)
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Iterates over `(mgid, template)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &MgTemplate)> {
        self.templates.iter().enumerate().map(|(i, t)| (i as u32, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 1 mini-graph 12: addl E0,2; cmplt M0,E1; bne M1.
    fn mg12() -> MgTemplate {
        MgTemplate {
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
                    disp: -3,
                },
            ],
            out: Some(0),
        }
    }

    /// The paper's Figure 1 mini-graph 34: ldq 16(E0); srl M0,14; and M1,1.
    fn mg34() -> MgTemplate {
        MgTemplate {
            ops: vec![
                TmplInst {
                    op: Opcode::Ldq,
                    a: TmplOperand::E0,
                    b: TmplOperand::Imm(0),
                    disp: 16,
                },
                TmplInst {
                    op: Opcode::Srl,
                    a: TmplOperand::M(0),
                    b: TmplOperand::Imm(14),
                    disp: 0,
                },
                TmplInst {
                    op: Opcode::And,
                    a: TmplOperand::M(1),
                    b: TmplOperand::Imm(1),
                    disp: 0,
                },
            ],
            out: Some(2),
        }
    }

    #[test]
    fn paper_examples_classify_correctly() {
        let g12 = mg12();
        assert!(g12.is_integer_only());
        assert!(g12.is_serial_chain());
        assert!(g12.is_externally_serial(), "cmplt consumes E1 in slot 1");
        assert!(!g12.has_interior_load());
        assert!(g12.terminal_branch().is_some());

        let g34 = mg34();
        assert!(!g34.is_integer_only(), "contains a load");
        assert!(g34.is_serial_chain());
        assert!(!g34.is_externally_serial());
        assert!(g34.has_interior_load(), "load is in slot 0 of 3");
        assert!(g34.terminal_branch().is_none());
        assert_eq!(g34.mem_op().unwrap().0, 0);
    }

    #[test]
    fn terminal_load_is_not_interior() {
        let t = MgTemplate {
            ops: vec![
                TmplInst { op: Opcode::Addq, a: TmplOperand::E0, b: TmplOperand::E1, disp: 0 },
                TmplInst {
                    op: Opcode::Ldq,
                    a: TmplOperand::M(0),
                    b: TmplOperand::Imm(0),
                    disp: 8,
                },
            ],
            out: Some(1),
        };
        assert!(!t.has_interior_load());
    }

    #[test]
    fn catalog_assigns_sequential_mgids() {
        let mut c = HandleCatalog::new();
        assert_eq!(c.add(mg12()), 0);
        assert_eq!(c.add(mg34()), 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1).unwrap().len(), 3);
        assert!(c.get(2).is_none());
    }

    #[test]
    fn display_forms() {
        let g = mg34();
        let s = g.to_string();
        assert!(s.contains("ldq 16(E0)"), "got {s}");
        assert!(s.contains("srl M0,14"), "got {s}");
        assert!(s.contains("and M1,1"), "got {s}");
    }

    #[test]
    fn internal_parallelism_detected() {
        // op2 consumes M0 and E0: ops 0 and 1 are independent of each other.
        let t = MgTemplate {
            ops: vec![
                TmplInst {
                    op: Opcode::Addq,
                    a: TmplOperand::E0,
                    b: TmplOperand::Imm(1),
                    disp: 0,
                },
                TmplInst {
                    op: Opcode::Subq,
                    a: TmplOperand::E1,
                    b: TmplOperand::Imm(1),
                    disp: 0,
                },
                TmplInst {
                    op: Opcode::Xor,
                    a: TmplOperand::M(0),
                    b: TmplOperand::M(1),
                    disp: 0,
                },
            ],
            out: Some(2),
        };
        assert!(!t.is_serial_chain());
    }
}
