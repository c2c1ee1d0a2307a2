//! Dynamic instruction traces.
//!
//! The timing simulator in `mg-uarch` is trace-driven: a functional pass
//! produces the committed-path instruction stream with memory addresses and
//! branch outcomes, and the cycle-level model replays it against pipeline
//! and memory-system resources. This is the standard substitution for the
//! paper's execution-driven SimpleScalar setup (see `DESIGN.md` §2).
//!
//! A [`Trace`] holds one layout on disk and in memory. The static index
//! is stored only at *jumps*: each 64-op block's first op, and any op
//! whose index is not its predecessor's plus one; every other op's index
//! follows from the last jump in its block. Side columns hold the memory
//! ops' addresses and widths and the branches' targets. A rank directory
//! keeps, per 64 ops, bitsets of which ops jump, touch memory, store,
//! branch and are taken, plus the counts that find an op's entry in each
//! side column in O(1). The persistent cache writes the same columns
//! ([`Wire`]), so loading a cached trace is a bulk copy.

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

/// [`OpFlags`] bits.
const F_MEM: u8 = 1 << 0;
const F_STORE: u8 = 1 << 1;
const F_BR: u8 = 1 << 2;

/// One op's flags, read from the rank directory's bitsets: which side
/// columns it has an entry in, and whether its memory reference stores.
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
/// ops, branches and jumps precede the block, and which of its ops are
/// which. The block's first op is always a jump; a store bit is only ever
/// set with its mem bit, and a taken bit with its br bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Rank {
    mems: u64,
    brs: u64,
    jumps: u64,
    mem_bits: u64,
    store_bits: u64,
    br_bits: u64,
    taken_bits: u64,
    jump_bits: u64,
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

/// The bits of a block's bitset that sit at or before op `i`.
#[inline]
fn upto(i: usize) -> u64 {
    u64::MAX >> (BLOCK - 1 - i % BLOCK)
}

/// Bit `i % 64` of `bits`.
#[inline]
fn bit(bits: u64, i: usize) -> bool {
    bits >> (i % BLOCK) & 1 != 0
}

/// A committed-path dynamic trace, stored as columns.
///
/// Per jump (each block's first op, and each op whose static index is
/// not its predecessor's plus one): a `u32` static index. Per memory op:
/// a `u64` address and a `u8` width. Per branch: a `u32` target, where a
/// reserved value defers to an exact side table for the (in practice
/// never seen) targets that do not fit. Per 64 ops: a 64-byte
/// rank-directory entry with the jump, mem, store, br and taken bitsets
/// and the jump, memory-op and branch counts before the block, so the
/// accessors reach any op's fields in O(1). Each column is a boxed slice,
/// so a trace allocates exactly what it holds ([`Trace::heap_bytes`]).
///
/// The simulator reads the columns it needs through [`Trace::sidx`],
/// [`Trace::flags`], [`Trace::mem`] and [`Trace::br`]; [`Trace::op`]
/// and [`Trace::iter`] rebuild whole [`DynOp`]s for everyone else.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    len: usize,
    jumps: Box<[u32]>,
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
        self.len
    }

    /// Whether the trace is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The static instruction index of op `i`: the last jump at or
    /// before `i` in its block (there is always one, at the block's first
    /// op) plus the distance to it.
    #[inline]
    pub fn sidx(&self, i: usize) -> u32 {
        let r = self.rank(i);
        let jumps = r.jump_bits & upto(i);
        let last = (BLOCK - 1) - jumps.leading_zeros() as usize;
        let k = r.jumps as usize + jumps.count_ones() as usize - 1;
        self.jumps[k] + (i % BLOCK - last) as u32
    }

    /// The flags of op `i`.
    #[inline]
    pub fn flags(&self, i: usize) -> OpFlags {
        let r = self.rank(i);
        let f = |bits: u64, flag: u8| if bit(bits, i) { flag } else { 0 };
        OpFlags(f(r.mem_bits, F_MEM) | f(r.store_bits, F_STORE) | f(r.br_bits, F_BR))
    }

    /// The memory reference of op `i`, if it has one.
    #[inline]
    pub fn mem(&self, i: usize) -> Option<MemRef> {
        let r = self.rank(i);
        if !bit(r.mem_bits, i) {
            return None;
        }
        let j = r.mems as usize + (r.mem_bits & below(i)).count_ones() as usize;
        Some(MemRef {
            addr: self.mem_addr[j],
            width: self.mem_width[j],
            store: bit(r.store_bits, i),
        })
    }

    /// The control transfer of op `i`, if it has one.
    #[inline]
    pub fn br(&self, i: usize) -> Option<BrRec> {
        let r = self.rank(i);
        if !bit(r.br_bits, i) {
            return None;
        }
        let j = r.brs as usize + (r.br_bits & below(i)).count_ones() as usize;
        Some(BrRec { taken: bit(r.taken_bits, i), target: self.target(i, self.br_target[j]) })
    }

    /// The rank-directory entry of op `i`'s block.
    #[inline]
    fn rank(&self, i: usize) -> &Rank {
        assert!(i < self.len, "op {i} of a {}-op trace", self.len);
        &self.ranks[i / BLOCK]
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
        DynOp { sidx: self.sidx(i), mem: self.mem(i), br: self.br(i) }
    }

    /// The ops in commit order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DynOp> + '_ {
        (0..self.len).map(move |i| self.op(i))
    }

    /// Bytes the trace holds on the heap: its columns and its rank
    /// directory.
    pub fn heap_bytes(&self) -> usize {
        size_of_val(&*self.jumps)
            + size_of_val(&*self.mem_addr)
            + size_of_val(&*self.mem_width)
            + size_of_val(&*self.br_target)
            + size_of_val(&*self.wide_targets)
            + size_of_val(&*self.ranks)
    }
}

/// A trace's columns while they grow.
#[derive(Default)]
struct Columns {
    len: usize,
    jumps: Vec<u32>,
    mem_addr: Vec<u64>,
    mem_width: Vec<u8>,
    br_target: Vec<u32>,
    wide_targets: Vec<(usize, usize)>,
    ranks: Vec<Rank>,
    /// The static index the next op has without a jump: `None` after
    /// index `u32::MAX`.
    next: Option<u32>,
}

impl Columns {
    /// Empty columns with room for about `ops` ops.
    fn with_capacity(ops: usize) -> Columns {
        Columns {
            jumps: Vec::with_capacity(ops / 2),
            ranks: Vec::with_capacity(ops.div_ceil(BLOCK)),
            ..Columns::default()
        }
    }

    #[inline(always)]
    fn push(&mut self, op: DynOp) {
        let i = self.len;
        let first = i.is_multiple_of(BLOCK);
        if first {
            self.ranks.push(Rank {
                mems: self.mem_addr.len() as u64,
                brs: self.br_target.len() as u64,
                jumps: self.jumps.len() as u64,
                ..Rank::default()
            });
        }
        let r = self.ranks.last_mut().expect("a block per 64 ops");
        let at = 1u64 << (i % BLOCK);
        if first || self.next != Some(op.sidx) {
            r.jump_bits |= at;
            self.jumps.push(op.sidx);
        }
        self.next = op.sidx.checked_add(1);
        if let Some(m) = op.mem {
            r.mem_bits |= at;
            r.store_bits |= if m.store { at } else { 0 };
            self.mem_addr.push(m.addr);
            self.mem_width.push(m.width);
        }
        if let Some(b) = op.br {
            r.br_bits |= at;
            r.taken_bits |= if b.taken { at } else { 0 };
            let t = u32::try_from(b.target).unwrap_or(WIDE_TARGET);
            if t == WIDE_TARGET {
                self.wide_targets.push((i, b.target));
            }
            self.br_target.push(t);
        }
        self.len += 1;
    }

    fn finish(self, insts: u64) -> Trace {
        Trace {
            len: self.len,
            jumps: self.jumps.into(),
            mem_addr: self.mem_addr.into(),
            mem_width: self.mem_width.into(),
            br_target: self.br_target.into(),
            wide_targets: self.wide_targets.into(),
            ranks: self.ranks.into(),
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
/// 2. per 64-op block, five `u64` bitsets: jump, mem, store, br, taken;
/// 3. the jump column: its length, then one `u32` static index per jump;
/// 4. the mem side column: its length, then the addresses (`u64` each),
///    then the widths (`u8` each);
/// 5. the branch-target side column: its length, then one `u32` each;
/// 6. the represented-instruction count (`u64`).
///
/// Lengths are `u64`. Every column is fixed-width, so decoding checks each
/// column's length once and copies it in bulk; the directory's counts are
/// rebuilt from the bitsets. Decoding accepts only the bytes [`Wire::put`]
/// writes: a truncated column, a bit past `n`, a store or taken bit
/// without its mem or br bit, a side-column length other than its
/// bitset's popcount, a block whose first op is not a jump, a jump inside
/// a block to its predecessor's index plus one, a run of indices past
/// `u32::MAX`, a width other than 1/2/4/8 or a reserved branch target is
/// a [`WireError`], never a panic. Cached traces are *prefixes* of the
/// committed path — the recording budget is part of the cache key, so a
/// quick-mode prefix is never confused with a full-length trace.
impl Wire for Trace {
    fn put(&self, w: &mut Writer) {
        w.u64(self.len as u64);
        for r in self.ranks.iter() {
            for bits in [r.jump_bits, r.mem_bits, r.store_bits, r.br_bits, r.taken_bits] {
                w.u64(bits);
            }
        }
        w.u64(self.jumps.len() as u64);
        for &s in self.jumps.iter() {
            w.u32(s);
        }
        w.u64(self.mem_addr.len() as u64);
        for &a in self.mem_addr.iter() {
            w.u64(a);
        }
        w.raw(&self.mem_width);
        w.u64(self.br_target.len() as u64);
        for &t in self.br_target.iter() {
            w.u32(t);
        }
        w.u64(self.insts);
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let le32 = |c: &[u8]| u32::from_le_bytes(c.try_into().expect("4-byte chunk"));
        let le64 = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        // A side column's length, which must be its bitset's popcount.
        let column = |r: &mut Reader<'_>, count: u64| -> Result<usize, WireError> {
            match r.seq_len()? {
                n if n as u64 == count => Ok(n),
                _ => Err(WireError::BadValue),
            }
        };

        let n = r.seq_len()?;
        let words = r.raw(n.div_ceil(BLOCK).checked_mul(40).ok_or(WireError::BadValue)?)?;
        // The bits of block `b` that stand for ops: all but past `n`.
        let live = |b: usize| if (b + 1) * BLOCK > n { below(n) } else { u64::MAX };
        let (mut mems, mut brs, mut jumps) = (0, 0, 0);
        let ranks = words
            .chunks_exact(40)
            .enumerate()
            .map(|(b, c)| {
                let [jump_bits, mem_bits, store_bits, br_bits, taken_bits] =
                    [0, 1, 2, 3, 4].map(|k| le64(&c[8 * k..8 * k + 8]));
                let stray = (jump_bits | mem_bits | br_bits) & !live(b);
                if stray != 0
                    || jump_bits & 1 == 0
                    || store_bits & !mem_bits != 0
                    || taken_bits & !br_bits != 0
                {
                    return Err(WireError::BadValue);
                }
                let r = Rank {
                    mems,
                    brs,
                    jumps,
                    mem_bits,
                    store_bits,
                    br_bits,
                    taken_bits,
                    jump_bits,
                };
                mems += u64::from(mem_bits.count_ones());
                brs += u64::from(br_bits.count_ones());
                jumps += u64::from(jump_bits.count_ones());
                Ok(r)
            })
            .collect::<Result<Box<[Rank]>, _>>()?;

        let n_jumps = column(r, jumps)?;
        let jumps: Box<[u32]> = r.raw(4 * n_jumps)?.chunks_exact(4).map(le32).collect();
        // The canonical-run rules: `run` is the first op of the current
        // run of consecutive indices and its index, widened so a run past
        // `u32::MAX` shows. A block's first op may continue the run.
        let (mut run, mut k) = ((0usize, 0u64), 0);
        let at = |run: (usize, u64), op: usize| run.1 + (op - run.0) as u64;
        for (b, rank) in ranks.iter().enumerate() {
            let mut bits = rank.jump_bits;
            while bits != 0 {
                let op = b * BLOCK + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let s = jumps[k];
                k += 1;
                let continues = !op.is_multiple_of(BLOCK) && at(run, op) == u64::from(s);
                if op > 0 && (continues || at(run, op - 1) > u64::from(u32::MAX)) {
                    return Err(WireError::BadValue);
                }
                run = (op, u64::from(s));
            }
        }
        if n > 0 && at(run, n - 1) > u64::from(u32::MAX) {
            return Err(WireError::BadValue);
        }

        let n_mem = column(r, mems)?;
        let addrs = r.raw(8 * n_mem)?;
        let widths = r.raw(n_mem)?;
        let n_br = column(r, brs)?;
        let targets = r.raw(4 * n_br)?;
        let insts = r.u64()?;
        if !widths.iter().all(|w| matches!(w, 1 | 2 | 4 | 8)) {
            return Err(WireError::BadValue);
        }
        let br_target = targets
            .chunks_exact(4)
            .map(|t| match le32(t) {
                WIDE_TARGET => Err(WireError::BadValue),
                t => Ok(t),
            })
            .collect::<Result<_, _>>()?;
        Ok(Trace {
            len: n,
            jumps,
            mem_addr: addrs.chunks_exact(8).map(le64).collect(),
            mem_width: widths.into(),
            br_target,
            wide_targets: Box::default(),
            ranks,
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
            (self.cols.len as u64) < self.max_ops
        }
    }
    let mut rec = Recorder {
        prog,
        cols: Columns::with_capacity(max_ops.min(TRACE_RESERVE_CAP) as usize),
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
        // Only op 0 and the loop's back edge jump.
        let sidx: Vec<u32> = t.iter().map(|o| o.sidx).collect();
        assert_eq!(sidx, [0, 1, 2, 3, 4, 5, 2, 3, 4, 5, 6]);
        assert_eq!(&*t.jumps, [0, 2]);
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

    /// A trace exercising every flag combination (plain ops, loads and
    /// stores of each width, taken and not-taken branches) and both kinds
    /// of op: runs of consecutive indices and jumps.
    fn mixed_ops() -> Vec<DynOp> {
        let mut ops = Vec::new();
        for i in 0..80u32 {
            let mem = (i % 3 != 0).then(|| MemRef {
                addr: 0x1000 + 8 * i as u64,
                width: [1, 2, 4, 8][i as usize % 4],
                store: i % 2 == 0,
            });
            let br =
                (i % 5 == 0).then_some(BrRec { taken: i % 10 == 0, target: i as usize * 3 });
            let sidx =
                if i % 4 == 0 { i * 7 } else { ops.last().map_or(0, |o: &DynOp| o.sidx + 1) };
            ops.push(DynOp { sidx, mem, br });
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

    /// Byte offsets of `t`'s encoding: the bitset words, each side
    /// column's length word, and the widths.
    struct Layout {
        jumps_at: usize,
        mems_at: usize,
        widths_at: usize,
        brs_at: usize,
    }

    const JUMP: usize = 0;
    const MEM: usize = 1;
    const STORE: usize = 2;
    const BR: usize = 3;
    const TAKEN: usize = 4;

    /// The offset of bitset `k` of block `b`.
    fn word_at(b: usize, k: usize) -> usize {
        8 + 40 * b + 8 * k
    }

    fn layout(t: &Trace) -> Layout {
        let jumps_at = word_at(t.ranks.len(), 0);
        let mems_at = jumps_at + 8 + 4 * t.jumps.len();
        let widths_at = mems_at + 8 + 8 * t.mem_addr.len();
        let brs_at = widths_at + t.mem_width.len();
        Layout { jumps_at, mems_at, widths_at, brs_at }
    }

    fn set_u32(b: &mut [u8], at: usize, v: u32) {
        b[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    fn get_u64(b: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
    }

    fn set_u64(b: &mut [u8], at: usize, v: u64) {
        b[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// `bytes` with bit `i` of bitset `k` flipped.
    fn flip(bytes: &[u8], i: usize, k: usize) -> Vec<u8> {
        let mut b = bytes.to_vec();
        let at = word_at(i / BLOCK, k);
        let w = get_u64(&b, at) ^ 1 << (i % BLOCK);
        set_u64(&mut b, at, w);
        b
    }

    /// `ops`' encoding with jump `k`'s index replaced by `sidx`.
    fn with_jump(ops: &[DynOp], k: usize, sidx: u32) -> Vec<u8> {
        let t = trace_of(ops);
        let mut b = mg_isa::wire::to_bytes(&t);
        set_u32(&mut b, layout(&t).jumps_at + 8 + 4 * k, sidx);
        b
    }

    /// Plain ops with the given static indices.
    fn plain(sidx: impl IntoIterator<Item = u32>) -> Vec<DynOp> {
        sidx.into_iter().map(|sidx| DynOp { sidx, mem: None, br: None }).collect()
    }

    #[test]
    fn columnar_codec_round_trips_every_flag_combination() {
        let t = mixed_trace();
        let bytes = mg_isa::wire::to_bytes(&t);
        let blocks = t.len().div_ceil(BLOCK);
        let jumps = t.jumps.len();
        let mems = t.iter().filter(|o| o.mem.is_some()).count();
        let brs = t.iter().filter(|o| o.br.is_some()).count();
        assert_eq!(jumps, 20, "one jump every 4 ops");
        assert_eq!(
            bytes.len(),
            8 + 40 * blocks + 8 + 4 * jumps + 8 + 9 * mems + 8 + 4 * brs + 8,
            "columnar layout size"
        );
        let back = decode(&bytes).unwrap();
        assert_eq!(back, t);
        assert!(back.iter().eq(mixed_ops()));
        assert!((0..t.len()).all(|i| back.op(i) == mixed_ops()[i]));
        assert_eq!(mg_isa::wire::to_bytes(&back), bytes, "re-encodes identically");
        let empty = Trace::default();
        assert_eq!(decode(&mg_isa::wire::to_bytes(&empty)).unwrap().len(), 0);
    }

    #[test]
    fn malformed_columns_are_wire_errors_not_panics() {
        let t = mixed_trace();
        let bytes = mg_isa::wire::to_bytes(&t);
        let at = layout(&t);

        // Truncated anywhere — inside any column or the trailing count.
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} decoded");
        }

        // A length whose 40·⌈n/64⌉ runs past the input, and one that is
        // merely huge.
        for len in [u64::MAX / 4 + 1, u64::MAX, 1 << 32] {
            let mut b = bytes.clone();
            b[..8].copy_from_slice(&len.to_le_bytes());
            assert!(decode(&b).is_err(), "length {len:#x} decoded");
        }

        // A mem width that no access has.
        let mut b = bytes.clone();
        b[at.widths_at] = 3;
        assert_eq!(decode(&b).unwrap_err(), WireError::BadValue);
    }

    #[test]
    fn bitsets_must_be_canonical() {
        let ops = mixed_ops();
        let t = trace_of(&ops);
        let bytes = mg_isa::wire::to_bytes(&t);
        let n = t.len();
        assert_ne!(n % BLOCK, 0, "the last block has bits past n");

        // Any bit past n, in any bitset (a stray store or taken bit comes
        // with its mem or br bit, so only the past-n rule can reject it).
        for past in [n, BLOCK * 2 - 1] {
            for k in [JUMP, MEM, BR] {
                let b = flip(&bytes, past, k);
                assert_eq!(decode(&b).unwrap_err(), WireError::BadValue, "bit {past} of {k}");
            }
            let b = flip(&flip(&bytes, past, MEM), past, STORE);
            assert_eq!(decode(&b).unwrap_err(), WireError::BadValue, "store bit {past}");
            let b = flip(&flip(&bytes, past, BR), past, TAKEN);
            assert_eq!(decode(&b).unwrap_err(), WireError::BadValue, "taken bit {past}");
        }

        // A store bit without its mem bit, and a taken bit without its br
        // bit.
        let plain_op = ops.iter().position(|o| o.mem.is_none()).unwrap();
        assert_eq!(decode(&flip(&bytes, plain_op, STORE)).unwrap_err(), WireError::BadValue);
        let no_br = ops.iter().position(|o| o.br.is_none()).unwrap();
        assert_eq!(decode(&flip(&bytes, no_br, TAKEN)).unwrap_err(), WireError::BadValue);

        // A block's first op not marked as a jump: op 0, and op 64.
        for first in [0, BLOCK] {
            assert_eq!(decode(&flip(&bytes, first, JUMP)).unwrap_err(), WireError::BadValue);
        }
    }

    #[test]
    fn side_column_lengths_must_match_the_popcounts() {
        let t = mixed_trace();
        let bytes = mg_isa::wire::to_bytes(&t);
        let at = layout(&t);
        for (what, len_at) in [("jumps", at.jumps_at), ("mems", at.mems_at), ("brs", at.brs_at)]
        {
            let len = get_u64(&bytes, len_at);
            assert!(len > 0, "{what}: a non-empty column");
            for wrong in [len - 1, len + 1] {
                let mut b = bytes.clone();
                set_u64(&mut b, len_at, wrong);
                assert_eq!(decode(&b).unwrap_err(), WireError::BadValue, "{what} = {wrong}");
            }
        }
    }

    #[test]
    fn a_jump_to_the_next_index_is_not_canonical() {
        // Ops 0..3 run from 5, op 3 jumps to 20. Jump 1 holding 8 — the
        // index op 3 has without a jump — is a second encoding of a
        // 4-op run, so it does not decode.
        let ops = plain([5, 6, 7, 20, 21]);
        assert!(decode(&with_jump(&ops, 1, 9)).is_ok(), "any other index is a jump");
        assert_eq!(decode(&with_jump(&ops, 1, 8)).unwrap_err(), WireError::BadValue);

        // A block's first op is always a jump, so there it may carry the
        // previous block's run on; the op after it may not.
        let ops = plain((0..64).chain([100, 200]));
        assert_eq!(
            decode(&with_jump(&ops, 1, 64)).unwrap(),
            trace_of(&plain((0..65).chain([200])))
        );
        assert_eq!(decode(&with_jump(&ops, 2, 101)).unwrap_err(), WireError::BadValue);
    }

    #[test]
    fn a_run_past_u32_max_is_a_wire_error() {
        let max = u32::MAX;
        // A run that ends at the last op, one that a later jump ends, and
        // one that the next block's first op ends.
        for (ops, legal) in [
            (plain([max - 1, max]), max - 1),
            (plain([max - 1, max, 3]), max - 1),
            (plain((max - 63..=max).chain([0])), max - 63),
        ] {
            let t = trace_of(&ops);
            assert_eq!(decode(&mg_isa::wire::to_bytes(&t)).unwrap(), t, "ends at u32::MAX");
            let b = with_jump(&ops, 0, legal + 1);
            assert_eq!(decode(&b).unwrap_err(), WireError::BadValue, "{} ops", ops.len());
        }
    }

    #[test]
    fn branch_target_too_wide_for_its_column_is_a_miss() {
        let mut ops = mixed_ops();
        let last = ops.len() - 1;
        ops[last].br = Some(BrRec { taken: true, target: u32::MAX as usize + 1 });
        let t = trace_of(&ops);
        assert_eq!(t.br(last), ops[last].br, "exact in memory");
        assert!(t.iter().eq(ops.iter().copied()), "exact through iter");
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
