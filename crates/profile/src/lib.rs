//! Functional simulation, control-flow graphs, basic-block frequency
//! profiles, and dynamic traces.
//!
//! The paper extracts mini-graphs "from basic block frequency profiles"
//! (§3.2) and evaluates with an execution-driven timing simulator. This
//! crate supplies the corresponding substrate:
//!
//! * [`Cfg`] — static basic blocks of a [`Program`](mg_isa::Program);
//! * [`BlockProfile`] — execution frequencies per block, obtained by
//!   functional simulation ([`profile_program`]);
//! * [`Trace`] — a dynamic instruction trace (memory addresses, branch
//!   outcomes) that drives the cycle-level timing model in `mg-uarch`;
//!   traces are handle-aware, so the *rewritten* program can be traced with
//!   its [`HandleCatalog`](mg_isa::HandleCatalog);
//! * [`Dominators`] / [`LoopNest`] — dominator-tree and natural-loop
//!   nesting analyses over the static successor edges of a [`Cfg`], the
//!   substrate for loop-aware selection policies (`mg-policy`).
//!
//! # Example
//!
//! ```
//! use mg_isa::{Asm, reg, Memory};
//! use mg_profile::{build_cfg, profile_program};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new();
//! a.li(reg(1), 4);
//! a.label("top");
//! a.subq(reg(1), 1, reg(1));
//! a.bne(reg(1), "top");
//! a.halt();
//! let p = a.finish()?;
//!
//! let cfg = build_cfg(&p);
//! assert_eq!(cfg.blocks.len(), 3); // prologue, loop body, halt
//!
//! let prof = profile_program(&p, &mut Memory::new(), None, 1_000)?;
//! let body = cfg.block_at(1).unwrap();
//! assert_eq!(prof.block_count(body), 4); // loop executes 4 times
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
pub mod cfg;
pub mod dominators;
pub mod func_sim;
pub mod loops;
pub mod profile;
pub mod trace;

pub use cfg::{build_cfg, BasicBlock, Cfg};
pub use dominators::Dominators;
pub use func_sim::{run_program, FuncResult};
pub use loops::LoopNest;
pub use profile::{profile_program, BlockProfile};
pub use trace::{record_trace, DynOp, OpFlags, Trace};
