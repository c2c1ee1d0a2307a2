//! The predecode plane: per-static-instruction lanes the pipeline stages
//! read instead of re-deriving opcode class, operands, and mini-graph
//! metadata from [`mg_isa::Inst`] on every dynamic operation.
//!
//! Everything here is **configuration-independent** — a pure function of
//! the program image and its handle catalog — so one [`Predecode`] can be
//! built per image and shared (via `Arc`) across every simulation of that
//! image: every configuration of a multi-config sweep and repeated runs
//! of the same prepared workload.
//!
//! The configuration-*dependent* flattening of the MGT (`MgtLanes`)
//! lives here too: it replaces per-issue `MgSchedule` lookups (and the
//! clone the borrow checker used to force) with dense lanes indexed by
//! MGID.

use super::entries::{fu_index, Kind};
use mg_core::{FuReq, MgTable};
use mg_isa::{HandleCatalog, OpClass, Opcode, Program};

/// Sentinel for "no architectural register" in the u8 operand lanes.
pub(crate) const NO_REG: u8 = 0xFF;
/// Sentinel for "not a handle" in the MGID lane.
pub(crate) const NO_MGID: u32 = u32::MAX;

/// Control-transfer class of a static instruction, precomputed so fetch
/// prediction and completion-time resolution never re-match on opcode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ctrl {
    /// Not a control transfer.
    None,
    /// A conditional branch (direction-predicted).
    Cond,
    /// A handle: predicts and trains through its own PC like the
    /// conditional branch it may embed (paper §4.1).
    Handle,
    /// `bsr`: unconditional call — pushes the return-address stack.
    Bsr,
    /// Any other unconditional branch (BTB only).
    OtherUncond,
    /// `ret`: predicted by the return-address stack.
    Ret,
    /// `jsr`: indirect call — pushes the RAS and consults the BTB.
    Jsr,
    /// Any other indirect jump (BTB only).
    OtherJump,
}

/// Config-independent per-static-instruction decode lanes (see module
/// docs). Indexed by static instruction index (`sidx`).
pub struct Predecode {
    pub(crate) kind: Box<[Kind]>,
    pub(crate) ctrl: Box<[Ctrl]>,
    /// Architectural destination register, or [`NO_REG`].
    pub(crate) dest: Box<[u8]>,
    /// Architectural source registers, or [`NO_REG`].
    pub(crate) src0: Box<[u8]>,
    pub(crate) src1: Box<[u8]>,
    /// MGID for handles, [`NO_MGID`] otherwise.
    pub(crate) mgid: Box<[u32]>,
    /// Instructions this op represents at commit (template length for
    /// handles, 1 otherwise).
    pub(crate) represents: Box<[u32]>,
}

impl Predecode {
    /// Builds the predecode lanes for `prog` against the mini-graph
    /// `catalog` its handles refer to (empty for baseline images).
    ///
    /// # Panics
    ///
    /// Panics if a handle refers to an MGID absent from the catalog (the
    /// image and catalog must agree, exactly as at simulation time).
    pub fn new(prog: &Program, catalog: &HandleCatalog) -> Predecode {
        let n = prog.insts.len();
        let mut kind = Vec::with_capacity(n);
        let mut ctrl = Vec::with_capacity(n);
        let mut dest = Vec::with_capacity(n);
        let mut src0 = Vec::with_capacity(n);
        let mut src1 = Vec::with_capacity(n);
        let mut mgid = Vec::with_capacity(n);
        let mut represents = Vec::with_capacity(n);
        for inst in &prog.insts {
            let class = inst.op.class();
            kind.push(match class {
                OpClass::IntAlu => Kind::Alu,
                OpClass::IntMul => Kind::Mul,
                OpClass::Load => Kind::Load,
                OpClass::Store => Kind::Store,
                OpClass::CondBranch | OpClass::UncondBranch | OpClass::Jump => Kind::Control,
                OpClass::Handle => Kind::Handle,
                OpClass::Nop | OpClass::Pad | OpClass::Halt => Kind::Direct,
            });
            ctrl.push(match class {
                OpClass::CondBranch => Ctrl::Cond,
                OpClass::Handle => Ctrl::Handle,
                OpClass::UncondBranch => {
                    if inst.op == Opcode::Bsr {
                        Ctrl::Bsr
                    } else {
                        Ctrl::OtherUncond
                    }
                }
                OpClass::Jump => match inst.op {
                    Opcode::Ret => Ctrl::Ret,
                    Opcode::Jsr => Ctrl::Jsr,
                    _ => Ctrl::OtherJump,
                },
                _ => Ctrl::None,
            });
            dest.push(inst.dest_reg().map_or(NO_REG, |r| r.index() as u8));
            let srcs = inst.src_regs();
            src0.push(srcs[0].map_or(NO_REG, |r| r.index() as u8));
            src1.push(srcs[1].map_or(NO_REG, |r| r.index() as u8));
            let id = inst.mgid();
            mgid.push(id.unwrap_or(NO_MGID));
            represents.push(match id {
                Some(id) => {
                    catalog.get(id).expect("handle refers to a packed MGT entry").ops.len()
                        as u32
                }
                None => 1,
            });
        }
        Predecode {
            kind: kind.into(),
            ctrl: ctrl.into(),
            dest: dest.into(),
            src0: src0.into(),
            src1: src1.into(),
            mgid: mgid.into(),
            represents: represents.into(),
        }
    }
}

/// Configuration-dependent MGT lanes: the [`MgTable`] flattened into
/// dense per-MGID arrays so the issue and execute stages index a handful
/// of scalars instead of chasing `MgSchedule` vectors (and cloning them
/// to appease borrows).
pub(crate) struct MgtLanes {
    /// `FU0` as a `[ap, alu, load, store]` reservation index.
    pub(crate) fu0: Box<[u8]>,
    /// Output latency (`out_latency.unwrap_or(total_latency)`).
    pub(crate) out_lat: Box<[u32]>,
    /// Total execution latency.
    pub(crate) total_lat: Box<[u32]>,
    /// Whether the whole graph runs on an ALU pipeline.
    pub(crate) on_alu_pipe: Box<[bool]>,
    /// Whether a cache-miss extension of the total latency also extends
    /// the output latency (`out_latency` absent or equal to the total).
    pub(crate) out_tracks_total: Box<[bool]>,
    /// Scheduled cycle of the first load slot, or `u32::MAX` if the
    /// graph has no load.
    pub(crate) load_slot_cycle: Box<[u32]>,
    /// Whether that load slot is the graph's terminal constituent.
    pub(crate) load_terminal: Box<[bool]>,
    /// Per-MGID `[start, end)` ranges into `fubmp`.
    pub(crate) fubmp_start: Box<[u32]>,
    /// Flattened `FUBMP` reservations `(cycle offset, fu index)`.
    pub(crate) fubmp: Box<[(u32, u8)]>,
}

impl MgtLanes {
    /// Flattens `table` (already packed for one machine configuration).
    pub(crate) fn new(table: &MgTable) -> MgtLanes {
        let n = table.len();
        let mut fu0 = Vec::with_capacity(n);
        let mut out_lat = Vec::with_capacity(n);
        let mut total_lat = Vec::with_capacity(n);
        let mut on_alu_pipe = Vec::with_capacity(n);
        let mut out_tracks_total = Vec::with_capacity(n);
        let mut load_slot_cycle = Vec::with_capacity(n);
        let mut load_terminal = Vec::with_capacity(n);
        let mut fubmp_start = Vec::with_capacity(n + 1);
        let mut fubmp = Vec::new();
        fubmp_start.push(0u32);
        for mgid in 0..n as u32 {
            let s = table.get(mgid).expect("dense MGT");
            fu0.push(fu_index(s.fu0) as u8);
            out_lat.push(s.out_latency.unwrap_or(s.total_latency));
            total_lat.push(s.total_latency);
            on_alu_pipe.push(s.on_alu_pipe);
            out_tracks_total
                .push(s.out_latency.is_none() || s.out_latency == Some(s.total_latency));
            let load = s.slots.iter().position(|x| x.fu == Some(FuReq::LoadPort));
            load_slot_cycle.push(load.map_or(u32::MAX, |i| s.slots[i].cycle));
            load_terminal.push(load.is_some_and(|i| i + 1 == s.slots.len()));
            fubmp.extend(s.fubmp().map(|(c, f)| (c, fu_index(f) as u8)));
            fubmp_start.push(fubmp.len() as u32);
        }
        MgtLanes {
            fu0: fu0.into(),
            out_lat: out_lat.into(),
            total_lat: total_lat.into(),
            on_alu_pipe: on_alu_pipe.into(),
            out_tracks_total: out_tracks_total.into(),
            load_slot_cycle: load_slot_cycle.into(),
            load_terminal: load_terminal.into(),
            fubmp_start: fubmp_start.into(),
            fubmp: fubmp.into(),
        }
    }

    /// The flattened `FUBMP` reservations of `mgid`.
    #[inline]
    pub(crate) fn fubmp_of(&self, mgid: u32) -> &[(u32, u8)] {
        let lo = self.fubmp_start[mgid as usize] as usize;
        let hi = self.fubmp_start[mgid as usize + 1] as usize;
        &self.fubmp[lo..hi]
    }
}
