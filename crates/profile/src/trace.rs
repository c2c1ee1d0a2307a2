//! Dynamic instruction traces.
//!
//! The timing simulator in `mg-uarch` is trace-driven: a functional pass
//! produces the committed-path instruction stream with memory addresses and
//! branch outcomes, and the cycle-level model replays it against pipeline
//! and memory-system resources. This is the standard substitution for the
//! paper's execution-driven SimpleScalar setup (see `DESIGN.md` §2).
//!
//! A [`Trace`] holds one layout on disk and in memory: a `sidx` column, a
//! flag byte per op, side columns for the memory ops' addresses and widths
//! and the branches' targets, plus a rank directory that finds an op's
//! entry in a side column in O(1). The persistent cache writes the same
//! columns ([`Wire`]), so loading a cached trace is a bulk copy.

use mg_isa::exec::{run, BrRec, CpuState, ExecError, MemRef, StepSink};
use mg_isa::wire::{Reader, Wire, WireError, Writer};
use mg_isa::{HandleCatalog, Memory, Program};
use std::mem::size_of_val;

/// One committed-path fetched instruction (a singleton or a whole handle),
/// as [`Trace::op`] and [`Trace::iter`] return it. A trace does not store
/// these: it stores their fields in columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynOp {
    /// Static instruction index into the traced program.
    pub sidx: u32,
    /// The (single) memory reference, if any.
    pub mem: Option<MemRef>,
    /// The control transfer, if any.
    pub br: Option<BrRec>,
}

/// Flag-column bits, one byte per op.
const F_MEM: u8 = 1 << 0;
const F_STORE: u8 = 1 << 1;
const F_BR: u8 = 1 << 2;
const F_TAKEN: u8 = 1 << 3;

/// One op's flag byte: which side columns it has an entry in, and the
/// store and taken bits of those entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpFlags(u8);

impl OpFlags {
    /// The op's memory reference is a load.
    #[inline]
    pub fn load(self) -> bool {
        self.0 & (F_MEM | F_STORE) == F_MEM
    }

    /// The op's memory reference is a store.
    #[inline]
    pub fn store(self) -> bool {
        self.0 & F_STORE != 0
    }

    /// The op transfers control.
    #[inline]
    pub fn br(self) -> bool {
        self.0 & F_BR != 0
    }
}

/// The rank directory's entry for one block of 64 ops: how many memory
/// and branch ops precede the block, and which of its ops are which.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Rank {
    mems: u64,
    brs: u64,
    mem_bits: u64,
    br_bits: u64,
}

/// The branch-target column is `u32` (instruction indices, like `sidx`);
/// this value is reserved for a target too wide for the column. Only an
/// indirect jump to a wild address at the very end of a budget-cut trace
/// can produce one. In memory its exact target sits in a side table; on
/// the wire the reserved value makes the bytes fail to decode — a cache
/// miss and a recomputation, never a truncated target.
const WIDE_TARGET: u32 = u32::MAX;

/// Ops per rank-directory block.
const BLOCK: usize = 64;

/// The bits of a block's bitset that sit before op `i`.
#[inline]
fn below(i: usize) -> u64 {
    (1u64 << (i % BLOCK)) - 1
}

/// A committed-path dynamic trace, stored as columns.
///
/// Per op: a `u32` static index and a flag byte. Per memory op: a `u64`
/// address and a `u8` width. Per branch: a `u32` target, where a
/// reserved value defers to an exact side table for the (in practice
/// never seen) targets that do not fit. Per 64 ops: a rank-directory
/// entry, so the accessors reach any op's side-column entries in O(1).
/// Each column is a boxed slice, so a trace allocates exactly what it
/// holds ([`Trace::heap_bytes`]).
///
/// The simulator reads the columns it needs through [`Trace::sidx`],
/// [`Trace::flags`], [`Trace::mem`] and [`Trace::br`]; [`Trace::op`] and
/// [`Trace::iter`] rebuild whole [`DynOp`]s for everyone else.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    sidx: Box<[u32]>,
    flags: Box<[u8]>,
    mem_addr: Box<[u64]>,
    mem_width: Box<[u8]>,
    br_target: Box<[u32]>,
    /// `(op index, target)` for each branch whose target column holds
    /// [`WIDE_TARGET`], in op order.
    wide_targets: Box<[(usize, usize)]>,
    ranks: Box<[Rank]>,
    /// Total original program instructions represented (handles count as
    /// their template length) — the numerator for IPC.
    pub insts: u64,
}

impl Trace {
    /// Number of fetched (dynamic) operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.sidx.len()
    }

    /// Whether the trace is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sidx.is_empty()
    }

    /// The static instruction index of op `i`.
    #[inline]
    pub fn sidx(&self, i: usize) -> u32 {
        self.sidx[i]
    }

    /// The flag byte of op `i`.
    #[inline]
    pub fn flags(&self, i: usize) -> OpFlags {
        OpFlags(self.flags[i])
    }

    /// The memory reference of op `i`, if it has one.
    #[inline]
    pub fn mem(&self, i: usize) -> Option<MemRef> {
        let f = self.flags[i];
        if f & F_MEM == 0 {
            return None;
        }
        let r = &self.ranks[i / BLOCK];
        let j = r.mems as usize + (r.mem_bits & below(i)).count_ones() as usize;
        Some(MemRef {
            addr: self.mem_addr[j],
            width: self.mem_width[j],
            store: f & F_STORE != 0,
        })
    }

    /// The control transfer of op `i`, if it has one.
    #[inline]
    pub fn br(&self, i: usize) -> Option<BrRec> {
        let f = self.flags[i];
        if f & F_BR == 0 {
            return None;
        }
        let r = &self.ranks[i / BLOCK];
        let j = r.brs as usize + (r.br_bits & below(i)).count_ones() as usize;
        Some(BrRec { taken: f & F_TAKEN != 0, target: self.target(i, self.br_target[j]) })
    }

    /// The exact target of op `i`, whose target column holds `t`.
    #[inline]
    fn target(&self, i: usize, t: u32) -> usize {
        if t != WIDE_TARGET {
            return t as usize;
        }
        let k = self.wide_targets.partition_point(|&(at, _)| at < i);
        self.wide_targets[k].1
    }

    /// Op `i`, rebuilt from every column.
    #[inline]
    pub fn op(&self, i: usize) -> DynOp {
        DynOp { sidx: self.sidx[i], mem: self.mem(i), br: self.br(i) }
    }

    /// The ops in commit order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DynOp> + '_ {
        (0..self.len()).map(|i| self.op(i))
    }

    /// Bytes the trace holds on the heap: its columns and its rank
    /// directory.
    pub fn heap_bytes(&self) -> usize {
        size_of_val(&*self.sidx)
            + size_of_val(&*self.flags)
            + size_of_val(&*self.mem_addr)
            + size_of_val(&*self.mem_width)
            + size_of_val(&*self.br_target)
            + size_of_val(&*self.wide_targets)
            + size_of_val(&*self.ranks)
    }
}

/// Builds the rank directory over a flag column.
fn rank_directory(flags: &[u8]) -> Box<[Rank]> {
    let (mut mems, mut brs) = (0u64, 0u64);
    flags
        .chunks(BLOCK)
        .map(|block| {
            let mut r = Rank { mems, brs, mem_bits: 0, br_bits: 0 };
            for (j, &f) in block.iter().enumerate() {
                r.mem_bits |= u64::from(f & F_MEM != 0) << j;
                r.br_bits |= u64::from(f & F_BR != 0) << j;
            }
            mems += u64::from(r.mem_bits.count_ones());
            brs += u64::from(r.br_bits.count_ones());
            r
        })
        .collect()
}

/// A trace's columns while they grow.
#[derive(Default)]
struct Columns {
    sidx: Vec<u32>,
    flags: Vec<u8>,
    mem_addr: Vec<u64>,
    mem_width: Vec<u8>,
    br_target: Vec<u32>,
    wide_targets: Vec<(usize, usize)>,
}

impl Columns {
    #[inline(always)]
    fn push(&mut self, op: DynOp) {
        let mut f = 0;
        if let Some(m) = op.mem {
            f |= F_MEM | if m.store { F_STORE } else { 0 };
            self.mem_addr.push(m.addr);
            self.mem_width.push(m.width);
        }
        if let Some(b) = op.br {
            f |= F_BR | if b.taken { F_TAKEN } else { 0 };
            let t = u32::try_from(b.target).unwrap_or(WIDE_TARGET);
            if t == WIDE_TARGET {
                self.wide_targets.push((self.sidx.len(), b.target));
            }
            self.br_target.push(t);
        }
        self.sidx.push(op.sidx);
        self.flags.push(f);
    }

    fn finish(self, insts: u64) -> Trace {
        Trace {
            ranks: rank_directory(&self.flags),
            sidx: self.sidx.into(),
            flags: self.flags.into(),
            mem_addr: self.mem_addr.into(),
            mem_width: self.mem_width.into(),
            br_target: self.br_target.into(),
            wide_targets: self.wide_targets.into(),
            insts,
        }
    }
}

/// Collects ops into a trace representing no instructions; set
/// [`Trace::insts`] afterwards.
impl FromIterator<DynOp> for Trace {
    fn from_iter<I: IntoIterator<Item = DynOp>>(ops: I) -> Trace {
        let mut cols = Columns::default();
        for op in ops {
            cols.push(op);
        }
        cols.finish(0)
    }
}

/// Columnar byte serialization for the persistent artifact cache
/// (`mg-harness::prep_cache`): the in-memory columns, written out. Layout,
/// all little-endian:
///
/// 1. the op count `n` (`u64`);
/// 2. the `sidx` column: `n` × `u32`;
/// 3. the flag column: `n` bytes of mem/store/br/taken bits;
/// 4. the mem side column, one entry per op with the mem flag: their
///    addresses (`u64` each), then their widths (`u8` each);
/// 5. the branch-target side column, one `u32` per op with the br flag;
/// 6. the represented-instruction count (`u64`).
///
/// Every column is fixed-width, so decoding checks each column's length
/// once and copies it in bulk; the rank directory is rebuilt from the
/// flags. Malformed input — a truncated column, unknown flag bits, a
/// store or taken bit without its mem or br bit, a width other than
/// 1/2/4/8, a reserved branch target — is a [`WireError`], never a panic.
/// Cached traces are *prefixes* of the committed path — the recording
/// budget is part of the cache key, so a quick-mode prefix is never
/// confused with a full-length trace.
impl Wire for Trace {
    fn put(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for &s in self.sidx.iter() {
            w.u32(s);
        }
        w.raw(&self.flags);
        for &a in self.mem_addr.iter() {
            w.u64(a);
        }
        w.raw(&self.mem_width);
        for &t in self.br_target.iter() {
            w.u32(t);
        }
        w.u64(self.insts);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len()?;
        let sidx = r.raw(n.checked_mul(4).ok_or(WireError::BadValue)?)?;
        let flags = r.raw(n)?;
        let (mut n_mem, mut n_br) = (0usize, 0usize);
        for &f in flags {
            let known = f & !(F_MEM | F_STORE | F_BR | F_TAKEN) == 0;
            let store_ok = f & F_STORE == 0 || f & F_MEM != 0;
            let taken_ok = f & F_TAKEN == 0 || f & F_BR != 0;
            if !(known && store_ok && taken_ok) {
                return Err(WireError::BadTag(f));
            }
            n_mem += (f & F_MEM != 0) as usize;
            n_br += (f & F_BR != 0) as usize;
        }
        let addrs = r.raw(n_mem * 8)?;
        let widths = r.raw(n_mem)?;
        let targets = r.raw(n_br * 4)?;
        let insts = r.u64()?;
        if !widths.iter().all(|w| matches!(w, 1 | 2 | 4 | 8)) {
            return Err(WireError::BadValue);
        }
        let le32 = |c: &[u8]| u32::from_le_bytes(c.try_into().expect("4-byte chunk"));
        let br_target = targets
            .chunks_exact(4)
            .map(|t| match le32(t) {
                WIDE_TARGET => Err(WireError::BadValue),
                t => Ok(t),
            })
            .collect::<Result<_, _>>()?;
        Ok(Trace {
            sidx: sidx.chunks_exact(4).map(le32).collect(),
            flags: flags.into(),
            mem_addr: addrs
                .chunks_exact(8)
                .map(|a| u64::from_le_bytes(a.try_into().expect("8-byte chunk")))
                .collect(),
            mem_width: widths.into(),
            br_target,
            wide_targets: Box::default(),
            ranks: rank_directory(flags),
            insts,
        })
    }
}

/// Upper bound on the up-front `record_trace` reservation, in ops
/// (callers routinely pass huge step budgets as `max_ops`; reserving
/// beyond this would waste address space, and doubling takes over
/// harmlessly for genuinely longer traces).
const TRACE_RESERVE_CAP: u64 = 1 << 20;

/// Functionally executes `prog` to halt, recording the dynamic trace.
///
/// `max_ops` bounds the trace length; execution stops early (without error)
/// once the bound is reached, which is how long-running workloads are
/// sampled for timing simulation.
///
/// # Errors
///
/// Propagates functional-execution errors ([`ExecError`]).
pub fn record_trace(
    prog: &Program,
    mem: &mut Memory,
    catalog: Option<&HandleCatalog>,
    max_ops: u64,
) -> Result<Trace, ExecError> {
    struct Recorder<'p> {
        prog: &'p Program,
        cols: Columns,
        insts: u64,
        max_ops: u64,
        mem: Option<MemRef>,
        br: Option<BrRec>,
    }
    impl StepSink for Recorder<'_> {
        #[inline(always)]
        fn mem(&mut self, mem: MemRef) {
            self.mem = Some(mem);
        }

        #[inline(always)]
        fn br(&mut self, br: BrRec) {
            self.br = Some(br);
        }

        #[inline(always)]
        fn retire(&mut self, pc: usize, represents: u32, _halted: bool) -> bool {
            let (mem, br) = (self.mem.take(), self.br.take());
            // Rewriter padding is squashed at fetch: it occupies code
            // space (the byte addresses of surviving instructions already
            // reflect that) but never enters the pipeline.
            if self.prog.insts[pc].op != mg_isa::Opcode::Pad {
                self.cols.push(DynOp { sidx: pc as u32, mem, br });
            }
            self.insts += represents as u64;
            (self.cols.sidx.len() as u64) < self.max_ops
        }
    }
    let reserve = max_ops.min(TRACE_RESERVE_CAP) as usize;
    let mut rec = Recorder {
        prog,
        cols: Columns {
            sidx: Vec::with_capacity(reserve),
            flags: Vec::with_capacity(reserve),
            ..Columns::default()
        },
        insts: 0,
        max_ops,
        mem: None,
        br: None,
    };
    if max_ops > 0 {
        let mut cpu = CpuState::new(prog.entry);
        run(prog, &mut cpu, mem, catalog, u64::MAX, &mut rec)?;
    }
    Ok(rec.cols.finish(rec.insts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_isa::{reg, Asm};

    #[test]
    fn trace_records_memory_and_branches() {
        let mut a = Asm::new();
        a.li(reg(1), 0x4000); // 0
        a.li(reg(2), 2); // 1
        a.label("top");
        a.stq(reg(2), 0, reg(1)); // 2
        a.ldq(reg(3), 0, reg(1)); // 3
        a.subq(reg(2), 1, reg(2)); // 4
        a.bne(reg(2), "top"); // 5
        a.halt(); // 6
        let p = a.finish().unwrap();
        let t = record_trace(&p, &mut Memory::new(), None, 1000).unwrap();
        // 2 setup + 2 iterations * 4 + halt.
        assert_eq!(t.len(), 2 + 2 * 4 + 1);
        assert_eq!(t.insts, t.len() as u64, "singletons represent themselves");
        let store = t.op(2);
        assert_eq!(store.mem.unwrap().addr, 0x4000);
        assert!(store.mem.unwrap().store);
        let load = t.op(3);
        assert!(!load.mem.unwrap().store);
        let b1 = t.op(5);
        assert!(b1.br.unwrap().taken);
        let b2 = t.op(9);
        assert!(!b2.br.unwrap().taken);
    }

    #[test]
    fn trace_round_trips_through_wire() {
        let mut a = Asm::new();
        a.li(reg(1), 0x4000);
        a.li(reg(2), 3);
        a.label("top");
        a.stq(reg(2), 0, reg(1));
        a.subq(reg(2), 1, reg(2));
        a.bne(reg(2), "top");
        a.halt();
        let p = a.finish().unwrap();
        let t = record_trace(&p, &mut Memory::new(), None, 1000).unwrap();
        let bytes = mg_isa::wire::to_bytes(&t);
        let back: Trace = mg_isa::wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
        // A truncated file decodes to an error, never a shorter trace.
        assert!(mg_isa::wire::from_bytes::<Trace>(&bytes[..bytes.len() - 3]).is_err());
    }

    /// A trace exercising every flag combination: plain ops, loads and
    /// stores of each width, taken and not-taken branches.
    fn mixed_ops() -> Vec<DynOp> {
        let mut ops = Vec::new();
        for i in 0..40u32 {
            let mem = (i % 3 != 0).then(|| MemRef {
                addr: 0x1000 + 8 * i as u64,
                width: [1, 2, 4, 8][i as usize % 4],
                store: i % 2 == 0,
            });
            let br =
                (i % 5 == 0).then_some(BrRec { taken: i % 10 == 0, target: i as usize * 3 });
            ops.push(DynOp { sidx: i * 7, mem, br });
        }
        ops
    }

    fn trace_of(ops: &[DynOp]) -> Trace {
        let mut t: Trace = ops.iter().copied().collect();
        t.insts = 99;
        t
    }

    fn mixed_trace() -> Trace {
        trace_of(&mixed_ops())
    }

    fn decode(bytes: &[u8]) -> Result<Trace, WireError> {
        mg_isa::wire::from_bytes(bytes)
    }

    #[test]
    fn columnar_codec_round_trips_every_flag_combination() {
        let t = mixed_trace();
        let bytes = mg_isa::wire::to_bytes(&t);
        let n = t.len();
        let mems = t.iter().filter(|o| o.mem.is_some()).count();
        let brs = t.iter().filter(|o| o.br.is_some()).count();
        assert_eq!(bytes.len(), 8 + 5 * n + 9 * mems + 4 * brs + 8, "columnar layout size");
        let back = decode(&bytes).unwrap();
        assert_eq!(back, t);
        assert!(back.iter().eq(mixed_ops()));
        assert_eq!(mg_isa::wire::to_bytes(&back), bytes, "re-encodes identically");
        let empty = Trace::default();
        assert_eq!(decode(&mg_isa::wire::to_bytes(&empty)).unwrap().len(), 0);
    }

    #[test]
    fn malformed_columns_are_wire_errors_not_panics() {
        let t = mixed_trace();
        let bytes = mg_isa::wire::to_bytes(&t);
        let n = t.len();
        let flags_at = 8 + 4 * n;

        // Truncated anywhere — inside any column or the trailing count.
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} decoded");
        }

        // Unknown flag bits, and store/taken bits without mem/br.
        for bad in [0x10u8, 0x80, F_STORE, F_TAKEN, F_STORE | F_BR] {
            let mut b = bytes.clone();
            b[flags_at] = bad;
            assert_eq!(decode(&b).unwrap_err(), WireError::BadTag(bad), "flag {bad:#x}");
        }

        // A length whose 4·n overflows, and one that is merely huge.
        for len in [u64::MAX / 4 + 1, u64::MAX, 1 << 32] {
            let mut b = bytes.clone();
            b[..8].copy_from_slice(&len.to_le_bytes());
            assert!(decode(&b).is_err(), "length {len:#x} decoded");
        }

        // A mem width that no access has.
        let mems = t.iter().filter(|o| o.mem.is_some()).count();
        let mut b = bytes.clone();
        b[flags_at + n + 8 * mems] = 3;
        assert_eq!(decode(&b).unwrap_err(), WireError::BadValue);
    }

    #[test]
    fn branch_target_too_wide_for_its_column_is_a_miss() {
        let mut ops = mixed_ops();
        let last = ops.len() - 1;
        ops[last].br = Some(BrRec { taken: true, target: u32::MAX as usize + 1 });
        let t = trace_of(&ops);
        assert_eq!(t.br(last), ops[last].br, "exact in memory");
        // Encoding never panics; the reserved target makes the bytes a
        // decode error (a cache miss), never a truncated target.
        let bytes = mg_isa::wire::to_bytes(&t);
        assert_eq!(decode(&bytes).unwrap_err(), WireError::BadValue);
        ops[last].br = Some(BrRec { taken: true, target: u32::MAX as usize - 1 });
        let t = trace_of(&ops);
        assert_eq!(decode(&mg_isa::wire::to_bytes(&t)).unwrap(), t, "widest legal target");
    }

    #[test]
    fn max_ops_truncates() {
        let mut a = Asm::new();
        a.label("spin");
        a.addq(reg(1), 1, reg(1));
        a.br("spin");
        let p = a.finish().unwrap();
        let t = record_trace(&p, &mut Memory::new(), None, 10).unwrap();
        assert_eq!(t.len(), 10);
    }
}
