//! Layout differential for the columnar `Trace`: a reference recorder
//! that keeps one `DynOp` per op (`mg_isa::exec::run` with a sink pushing
//! into a `Vec`) is the oracle. Every registry workload's base trace and
//! its int/intmem image traces (nop-padded and compressed), plus
//! hand-built traces around the 64-op rank-block edges and the jump
//! column's edges (long runs, jumps at block edges, every op a jump,
//! self-loops, a run ending at `u32::MAX`), must agree with it through
//! `op(i)`, `iter()`, each hot-path accessor, a rebuild from the reference
//! ops, and the wire codec. A footprint tripwire pins `Trace::heap_bytes`
//! to the column formula on every registry quick trace.

use mg_core::{Policy, RewriteStyle};
use mg_harness::{Prep, QUICK_MAX_OPS};
use mg_isa::exec::{run, BrRec, CpuState, MemRef, StepSink};
use mg_isa::{wire, HandleCatalog, Memory, Opcode, Program};
use mg_profile::{DynOp, Trace};
use mg_workloads::Input;

/// The reference recorder: same padding rule and budget as
/// `record_trace`, one whole `DynOp` per op.
fn reference(
    prog: &Program,
    mut mem: Memory,
    catalog: Option<&HandleCatalog>,
    max_ops: u64,
) -> (Vec<DynOp>, u64) {
    struct Sink<'p> {
        prog: &'p Program,
        ops: Vec<DynOp>,
        insts: u64,
        max_ops: u64,
        mem: Option<MemRef>,
        br: Option<BrRec>,
    }
    impl StepSink for Sink<'_> {
        fn mem(&mut self, mem: MemRef) {
            self.mem = Some(mem);
        }

        fn br(&mut self, br: BrRec) {
            self.br = Some(br);
        }

        fn retire(&mut self, pc: usize, represents: u32, _halted: bool) -> bool {
            let (mem, br) = (self.mem.take(), self.br.take());
            if self.prog.insts[pc].op != Opcode::Pad {
                self.ops.push(DynOp { sidx: pc as u32, mem, br });
            }
            self.insts += represents as u64;
            (self.ops.len() as u64) < self.max_ops
        }
    }
    let mut sink = Sink { prog, ops: Vec::new(), insts: 0, max_ops, mem: None, br: None };
    let mut cpu = CpuState::new(prog.entry);
    run(prog, &mut cpu, &mut mem, catalog, u64::MAX, &mut sink).expect("reference run");
    (sink.ops, sink.insts)
}

/// `t` holds exactly `ops` and `insts`, through every read path.
fn check(t: &Trace, ops: &[DynOp], insts: u64, what: &str) {
    assert_eq!(t.len(), ops.len(), "{what}: len");
    assert_eq!(t.is_empty(), ops.is_empty(), "{what}: is_empty");
    assert_eq!(t.insts, insts, "{what}: insts");
    for (i, want) in ops.iter().enumerate() {
        assert_eq!(t.op(i), *want, "{what}: op({i})");
        assert_eq!(t.sidx(i), want.sidx, "{what}: sidx({i})");
        assert_eq!(t.mem(i), want.mem, "{what}: mem({i})");
        assert_eq!(t.br(i), want.br, "{what}: br({i})");
        let f = t.flags(i);
        assert_eq!(f.load(), want.mem.is_some_and(|m| !m.store), "{what}: flags({i}).load");
        assert_eq!(f.store(), want.mem.is_some_and(|m| m.store), "{what}: flags({i}).store");
        assert_eq!(f.br(), want.br.is_some(), "{what}: flags({i}).br");
    }
    assert_eq!(t.iter().len(), ops.len(), "{what}: iter len");
    assert!(t.iter().eq(ops.iter().copied()), "{what}: iter");
    let mut rebuilt: Trace = ops.iter().copied().collect();
    rebuilt.insts = insts;
    assert_eq!(&rebuilt, t, "{what}: rebuilt from the reference ops");
}

/// `check`, plus a wire round trip that must re-encode byte-identically.
fn check_with_wire(t: &Trace, ops: &[DynOp], insts: u64, what: &str) {
    check(t, ops, insts, what);
    let bytes = wire::to_bytes(t);
    let back: Trace = wire::from_bytes(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    check(&back, ops, insts, &format!("{what} (decoded)"));
    assert_eq!(wire::to_bytes(&back), bytes, "{what}: re-encodes identically");
}

const POLICIES: [fn() -> Policy; 2] = [Policy::integer, Policy::integer_memory];
const STYLES: [RewriteStyle; 2] = [RewriteStyle::NopPadded, RewriteStyle::Compressed];

#[test]
fn every_registry_trace_matches_the_reference_recorder() {
    for w in mg_workloads::all() {
        let input = Input::tiny();
        let prep = Prep::try_new(&w, &input).unwrap().with_trace_budget(QUICK_MAX_OPS);
        let (prog, mem) = w.build(&input);
        let (ops, insts) = reference(&prog, mem, None, QUICK_MAX_OPS);
        check_with_wire(
            &prep.try_base_trace().unwrap(),
            &ops,
            insts,
            &format!("{} base", w.name),
        );
        for policy in POLICIES.map(|p| p()) {
            for style in STYLES {
                let img = prep.try_image(&policy, style).unwrap();
                let (_, mem) = w.build(&input);
                let (ops, insts) =
                    reference(&img.program, mem, Some(&img.catalog), QUICK_MAX_OPS);
                let what = format!("{} image {policy:?} {style:?}", w.name);
                check_with_wire(&img.trace, &ops, insts, &what);
            }
        }
    }
}

/// `n` ops cycling through every flag combination: no memory op, a load
/// or a store (of several widths); no branch, a taken or a not-taken
/// one. The two cycles (9 and 5 ops) give each 64-op block a different
/// mix.
fn hand_built(n: usize) -> Vec<DynOp> {
    (0..n)
        .map(|i| {
            let mem = match i % 9 {
                0..=2 => None,
                k => Some(MemRef {
                    addr: 0x1000 + 8 * i as u64,
                    width: [1, 2, 4, 8][k % 4],
                    store: k % 2 == 0,
                }),
            };
            let br = match i % 5 {
                0 | 1 => None,
                k => Some(BrRec { taken: k != 3, target: 3 * i + 1 }),
            };
            DynOp { sidx: (i * 7) as u32, mem, br }
        })
        .collect()
}

#[test]
fn hand_built_traces_around_block_edges_match() {
    for n in [0, 1, 63, 64, 65, 127, 128, 129] {
        let ops = hand_built(n);
        let mut t: Trace = ops.iter().copied().collect();
        t.insts = 2 * n as u64;
        check_with_wire(&t, &ops, 2 * n as u64, &format!("{n} ops"));
    }

    // A block whose every op is both a memory op and a branch, and one
    // that has neither, each in the middle of a trace.
    let full = DynOp {
        sidx: 1,
        mem: Some(MemRef { addr: 8, width: 8, store: false }),
        br: Some(BrRec { taken: true, target: 2 }),
    };
    let empty = DynOp { sidx: 2, mem: None, br: None };
    let mut ops = hand_built(64);
    ops.extend((0..64).map(|i| DynOp { sidx: i, ..full }));
    ops.extend((0..64).map(|i| DynOp { sidx: i, ..empty }));
    ops.extend(hand_built(65));
    let t: Trace = ops.iter().copied().collect();
    check_with_wire(&t, &ops, 0, "dense and empty blocks");
}

/// `hand_built(sidx.len())` with the given static indices, so each
/// case also exercises every flag combination.
fn with_sidx(sidx: &[u32]) -> Vec<DynOp> {
    let mut ops = hand_built(sidx.len());
    for (op, &s) in ops.iter_mut().zip(sidx) {
        op.sidx = s;
    }
    ops
}

/// `check_with_wire`, plus the heap formula, which counts the jumps the
/// trace must have stored.
fn check_jumps(sidx: &[u32], want_jumps: usize, what: &str) {
    let ops = with_sidx(sidx);
    let t: Trace = ops.iter().copied().collect();
    check_with_wire(&t, &ops, 0, what);
    assert_eq!(jumps(&t), want_jumps, "{what}: jumps");
    assert_eq!(t.heap_bytes(), footprint(&t), "{what}: heap_bytes formula");
}

#[test]
fn the_jump_column_holds_exactly_the_jumps() {
    // One run across four blocks: only each block's first op (0, 64,
    // 128, 192) stores an index.
    let run: Vec<u32> = (1000..1000 + 200).collect();
    check_jumps(&run, 4, "one 200-op run");

    // Jumps on both sides of each block edge, and at a block's last op
    // after a jump on the op before it.
    let edges = [62, 63, 64, 65, 127, 128];
    let mut sidx = Vec::new();
    for i in 0..200u32 {
        let jump = i == 0 || edges.contains(&i);
        sidx.push(if jump { 10_000 * (i + 1) } else { sidx[i as usize - 1] + 1 });
    }
    // Ops 64 and 128 start blocks anyway; op 192 adds one.
    check_jumps(&sidx, 1 + edges.len() + 1, "jumps at 62, 63, 64, 65, 127, 128");

    // Every op a jump.
    let every: Vec<u32> = (0..150).map(|i| (i * 7) % 101 + 3 * (i % 2)).collect();
    let every_jumps =
        1 + every.windows(2).filter(|w| w[0].checked_add(1) != Some(w[1])).count();
    assert_eq!(every_jumps, every.len(), "the pattern jumps on every op");
    check_jumps(&every, every.len(), "every op a jump");

    // A self-loop: the same index over and over is a jump every time.
    check_jumps(&[42; 130], 130, "self-loop");

    // A run that ends exactly at u32::MAX (op 99), then index 0: the
    // successor of u32::MAX does not wrap into a run. Ops 0, 64, 100 and
    // 128 jump.
    let top: Vec<u32> = (u32::MAX - 99..=u32::MAX).chain(0..40).collect();
    check_jumps(&top, 4, "run ending at u32::MAX, then 0");
}

#[test]
fn branch_targets_are_exact_in_memory_and_narrowed_only_on_the_wire() {
    let widest = u32::MAX as usize - 1;
    let mut ops = hand_built(70);
    ops[69].br = Some(BrRec { taken: true, target: widest });
    let t: Trace = ops.iter().copied().collect();
    check_with_wire(&t, &ops, 0, "widest legal target");

    ops[69].br = Some(BrRec { taken: true, target: u32::MAX as usize + 1 });
    let t: Trace = ops.iter().copied().collect();
    check(&t, &ops, 0, "target too wide for the wire");
    assert!(
        wire::from_bytes::<Trace>(&wire::to_bytes(&t)).is_err(),
        "a target too wide for the wire column decodes to an error, never a truncated target"
    );
}

/// Each 64-op block's first op, and the ops whose static index is not
/// the previous op's plus one: the only ops that store an index.
fn jumps(t: &Trace) -> usize {
    let mut next = None;
    t.iter()
        .enumerate()
        .filter(|&(i, o)| {
            let jump = i % 64 == 0 || next != Some(o.sidx);
            next = o.sidx.checked_add(1);
            jump
        })
        .count()
}

/// The exact heap cost of a trace's columns and rank directory: 9 bytes
/// per memory op, 4 per branch, 4 per jump and a 64-byte directory entry
/// per 64 ops.
fn footprint(t: &Trace) -> usize {
    let mems = t.iter().filter(|o| o.mem.is_some()).count();
    let brs = t.iter().filter(|o| o.br.is_some()).count();
    let blocks = t.len().div_ceil(64);
    (8 + 1) * mems + 4 * brs + 4 * jumps(t) + 64 * blocks
}

/// Every registry workload's quick traces (reference input,
/// `QUICK_MAX_OPS`): the base trace and the four int/intmem images. Each
/// must cost exactly the column formula, and together they must average
/// at most 6.5 B/op. One dense image may cost more on its own (an intmem
/// image whose handles are mostly loads and branches reaches 11.3 B/op);
/// a per-op `sidx` column (8.95 B/op over this set) fails the average.
#[test]
fn heap_bytes_is_the_column_formula_on_every_registry_quick_trace() {
    let (mut ops, mut bytes) = (0, 0);
    let mut visit = |t: &Trace, what: String| {
        assert!(!t.is_empty(), "{what}: empty quick trace");
        assert_eq!(t.heap_bytes(), footprint(t), "{what}: heap_bytes formula");
        ops += t.len();
        bytes += t.heap_bytes();
    };
    for w in mg_workloads::all() {
        let prep =
            Prep::try_new(&w, &Input::reference()).unwrap().with_trace_budget(QUICK_MAX_OPS);
        visit(&prep.try_base_trace().unwrap(), format!("{} base", w.name));
        for (name, policy) in ["int", "intmem"].into_iter().zip(POLICIES.map(|p| p())) {
            for style in STYLES {
                let img = prep.try_image(&policy, style).unwrap();
                visit(&img.trace, format!("{} {name} {style:?}", w.name));
            }
        }
    }
    let per_op = bytes as f64 / ops as f64;
    assert!(per_op <= 6.5, "registry quick traces cost {per_op:.3} B/op, over 6.5");
}
