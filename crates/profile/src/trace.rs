//! Dynamic instruction traces.
//!
//! The timing simulator in `mg-uarch` is trace-driven: a functional pass
//! produces the committed-path instruction stream with memory addresses and
//! branch outcomes, and the cycle-level model replays it against pipeline
//! and memory-system resources. This is the standard substitution for the
//! paper's execution-driven SimpleScalar setup (see `DESIGN.md` §2).

use mg_isa::exec::{run, BrRec, CpuState, ExecError, MemRef, StepSink};
use mg_isa::wire::{Reader, Wire, WireError, Writer};
use mg_isa::{HandleCatalog, Memory, Program};

/// One committed-path fetched instruction (a singleton or a whole handle).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynOp {
    /// Static instruction index into the traced program.
    pub sidx: u32,
    /// The (single) memory reference, if any.
    pub mem: Option<MemRef>,
    /// The control transfer, if any.
    pub br: Option<BrRec>,
}

/// A committed-path dynamic trace.
///
/// Storage is a boxed slice, not a `Vec`: traces are immutable once
/// recorded and replayed op-by-op in the simulator's hottest loop, so the
/// representation drops the spare-capacity word and guarantees the exact
/// allocation survives from recording to replay.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The dynamic operations in commit order.
    pub ops: Box<[DynOp]>,
    /// Total original program instructions represented (handles count as
    /// their template length) — the numerator for IPC.
    pub insts: u64,
}

impl Trace {
    /// Number of fetched (dynamic) operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operation at `idx` (trace replay's inner-loop accessor).
    #[inline]
    pub fn op(&self, idx: usize) -> &DynOp {
        &self.ops[idx]
    }
}

/// Flag-column bits, one byte per op.
const F_MEM: u8 = 1 << 0;
const F_STORE: u8 = 1 << 1;
const F_BR: u8 = 1 << 2;
const F_TAKEN: u8 = 1 << 3;

/// The branch-target column is `u32` (instruction indices, like `sidx`);
/// this value is reserved for a target too wide for the column. Only an
/// indirect jump to a wild address at the very end of a budget-cut trace
/// can produce one, and such a trace encodes to bytes that fail to decode
/// — a cache miss and a recomputation, never a truncated target.
const WIDE_TARGET: u32 = u32::MAX;

/// Columnar byte serialization for the persistent artifact cache
/// (`mg-harness::prep_cache`). Layout, all little-endian:
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
/// once and walks it in bulk chunks. Malformed input — a truncated
/// column, unknown flag bits, a store or taken bit without its mem or br
/// bit, a width other than 1/2/4/8, a reserved branch target — is a
/// [`WireError`], never a panic. Cached traces are *prefixes* of the
/// committed path — the recording budget is part of the cache key, so a
/// quick-mode prefix is never confused with a full-length trace.
impl Wire for Trace {
    fn put(&self, w: &mut Writer) {
        w.u64(self.ops.len() as u64);
        for op in self.ops.iter() {
            w.u32(op.sidx);
        }
        for op in self.ops.iter() {
            let mut f = 0;
            if let Some(m) = op.mem {
                f |= F_MEM | if m.store { F_STORE } else { 0 };
            }
            if let Some(b) = op.br {
                f |= F_BR | if b.taken { F_TAKEN } else { 0 };
            }
            w.u8(f);
        }
        let mems = || self.ops.iter().filter_map(|op| op.mem);
        for m in mems() {
            w.u64(m.addr);
        }
        for m in mems() {
            w.u8(m.width);
        }
        for b in self.ops.iter().filter_map(|op| op.br) {
            w.u32(u32::try_from(b.target).unwrap_or(WIDE_TARGET));
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
        let mut addrs = r.raw(n_mem * 8)?.chunks_exact(8);
        let mut widths = r.raw(n_mem)?.iter();
        let mut targets = r.raw(n_br * 4)?.chunks_exact(4);
        let insts = r.u64()?;

        let mut ops = Vec::with_capacity(n);
        for (s, &f) in sidx.chunks_exact(4).zip(flags) {
            let sidx = u32::from_le_bytes(s.try_into().expect("4-byte chunk"));
            let mem = if f & F_MEM == 0 {
                None
            } else {
                let (a, &width) = addrs.next().zip(widths.next()).ok_or(WireError::BadValue)?;
                if !matches!(width, 1 | 2 | 4 | 8) {
                    return Err(WireError::BadValue);
                }
                let addr = u64::from_le_bytes(a.try_into().expect("8-byte chunk"));
                Some(MemRef { addr, width, store: f & F_STORE != 0 })
            };
            let br = if f & F_BR == 0 {
                None
            } else {
                let t = targets.next().ok_or(WireError::BadValue)?;
                let target = u32::from_le_bytes(t.try_into().expect("4-byte chunk"));
                if target == WIDE_TARGET {
                    return Err(WireError::BadValue);
                }
                Some(BrRec { taken: f & F_TAKEN != 0, target: target as usize })
            };
            ops.push(DynOp { sidx, mem, br });
        }
        Ok(Trace { ops: ops.into_boxed_slice(), insts })
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
        ops: Vec<DynOp>,
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
                self.ops.push(DynOp { sidx: pc as u32, mem, br });
            }
            self.insts += represents as u64;
            (self.ops.len() as u64) < self.max_ops
        }
    }
    let mut rec = Recorder {
        prog,
        ops: Vec::with_capacity(max_ops.min(TRACE_RESERVE_CAP) as usize),
        insts: 0,
        max_ops,
        mem: None,
        br: None,
    };
    if max_ops > 0 {
        let mut cpu = CpuState::new(prog.entry);
        run(prog, &mut cpu, mem, catalog, u64::MAX, &mut rec)?;
    }
    Ok(Trace { ops: rec.ops.into_boxed_slice(), insts: rec.insts })
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
        let store = &t.ops[2];
        assert_eq!(store.mem.unwrap().addr, 0x4000);
        assert!(store.mem.unwrap().store);
        let load = &t.ops[3];
        assert!(!load.mem.unwrap().store);
        let b1 = &t.ops[5];
        assert!(b1.br.unwrap().taken);
        let b2 = &t.ops[9];
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
        assert_eq!(back.ops, t.ops);
        assert_eq!(back.insts, t.insts);
        // A truncated file decodes to an error, never a shorter trace.
        assert!(mg_isa::wire::from_bytes::<Trace>(&bytes[..bytes.len() - 3]).is_err());
    }

    /// A trace exercising every flag combination: plain ops, loads and
    /// stores of each width, taken and not-taken branches.
    fn mixed_trace() -> Trace {
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
        Trace { ops: ops.into_boxed_slice(), insts: 99 }
    }

    fn decode(bytes: &[u8]) -> Result<Trace, WireError> {
        mg_isa::wire::from_bytes(bytes)
    }

    #[test]
    fn columnar_codec_round_trips_every_flag_combination() {
        let t = mixed_trace();
        let bytes = mg_isa::wire::to_bytes(&t);
        let n = t.len();
        let mems = t.ops.iter().filter(|o| o.mem.is_some()).count();
        let brs = t.ops.iter().filter(|o| o.br.is_some()).count();
        assert_eq!(bytes.len(), 8 + 5 * n + 9 * mems + 4 * brs + 8, "columnar layout size");
        let back = decode(&bytes).unwrap();
        assert_eq!(back.ops, t.ops);
        assert_eq!(back.insts, t.insts);
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
        let mems = t.ops.iter().filter(|o| o.mem.is_some()).count();
        let mut b = bytes.clone();
        b[flags_at + n + 8 * mems] = 3;
        assert_eq!(decode(&b).unwrap_err(), WireError::BadValue);
    }

    #[test]
    fn branch_target_too_wide_for_its_column_is_a_miss() {
        let mut t = mixed_trace();
        let last = t.ops.len() - 1;
        t.ops[last].br = Some(BrRec { taken: true, target: u32::MAX as usize + 1 });
        // Encoding never panics; the reserved target makes the bytes a
        // decode error (a cache miss), never a truncated target.
        let bytes = mg_isa::wire::to_bytes(&t);
        assert_eq!(decode(&bytes).unwrap_err(), WireError::BadValue);
        t.ops[last].br = Some(BrRec { taken: true, target: u32::MAX as usize - 1 });
        assert_eq!(
            decode(&mg_isa::wire::to_bytes(&t)).unwrap().ops,
            t.ops,
            "widest legal target"
        );
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
