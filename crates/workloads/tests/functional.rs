//! Committed functional-pass digests for every registered workload.
//!
//! The basic-block profile and the base trace are both produced by the
//! functional interpreter (`mg_isa::exec`) over sparse memory
//! (`mg_isa::Memory`). Selection consumes the profile and the timing
//! model replays the trace, so a change to either layer that alters any
//! architectural event — one instruction count, one effective address,
//! one branch outcome — must show up here before it shows up as a drifted
//! figure. This table pins, at the reference input:
//!
//! * the profile's `total` (dynamic instructions to halt),
//! * a fold of its per-instruction `inst_counts`,
//! * a fold of the base trace's `(sidx, mem, br)` stream and its `insts`.
//!
//! The folds are computed field by field here, independent of the trace's
//! byte codec (`mg_isa::wire`), so a codec change cannot move them.
//!
//! To regenerate after an intentional kernel change: run the test and
//! paste the `expected:` block it prints on failure (and bump
//! `REGISTRY_VERSION`, as for `checksums.rs`).

use mg_isa::exec::{BrRec, MemRef};
use mg_profile::{profile_program, record_trace, Trace};
use mg_workloads::{all, Input};

/// Step budget per functional run — every workload halts well under it at
/// the reference input.
const STEP_BUDGET: u64 = 50_000_000;

/// Committed digests: (workload, profile total, `inst_counts` fold,
/// base-trace fold).
const EXPECTED: &[(&str, u64, u64, u64)] = &[
    // GENERATED TABLE — see module docs for how to regenerate.
    ("crafty.bits", 323528, 0x026202e9cf11b7e6, 0xc9da38443f97fd3d),
    ("gcc.expr", 455076, 0x36b5708969d2cfb5, 0x168f8c47f8ed86d4),
    ("gzip.lz", 598060, 0x6aa239aaad87ed82, 0xf756739e4fed8d3d),
    ("mcf.netw", 300220, 0x59c2a4af2166ff97, 0xd23a0fe94d9201c0),
    ("parser.tok", 264160, 0x5f2ea50d2d5a05ec, 0x7fc9423d9631ae07),
    ("twolf.place", 245620, 0x4a07779210443c83, 0xc716f33d69df50ba),
    ("adpcm.enc", 519292, 0xdc6bd504f055e428, 0x724331f77ac2453f),
    ("adpcm.dec", 722512, 0x1646b22934f5b75a, 0x13f9d5be1acc78bd),
    ("jpeg.dct", 196740, 0x3b084793bfe95afb, 0x250b33bed38cb2f2),
    ("mpeg2.idct", 398436, 0xe1d7b87b74510e00, 0x826d1822e0b5ebbf),
    ("gsm.toast", 515716, 0x2f0c0eee01203ee9, 0x95a5a66b7a667958),
    ("epic.filter", 368708, 0xfe5b69480fd301fc, 0xae4cc2d1e88c666b),
    ("reed.enc", 325924, 0x636d3616362a9a7a, 0x531b5ccc0c06ca15),
    ("drr.sched", 374004, 0x1dde02182577245a, 0x0ebec69f1e69e8d1),
    ("frag.ip", 262308, 0xaa9524e034b425aa, 0x020d9d4eb5b78095),
    ("rtr.lookup", 1835332, 0x80b8f2cea27bdc98, 0x6a80ac31d9336257),
    ("tcpdump.filt", 252100, 0xd25bdf81fa0fe8ef, 0x0165eb3dbf60dbb6),
    ("bitcount", 466328, 0xf4fa24249a2da952, 0x94b29529bbba87c1),
    ("sha.rounds", 278405, 0x66f1719520ba6a1f, 0x54e30940bb0dee38),
    ("crc32", 360676, 0xaeabdf2deb7ccc3d, 0x56090461e649ec6c),
    ("dijkstra", 142338, 0x6385ccca5b6d63f7, 0x6a3dd37058a1b6fc),
    ("stringsearch", 267006, 0xaedede2789b079d1, 0xac1f438e71dd8207),
    ("rgba.conv", 1442116, 0xd02178235762afc0, 0xe0cf913b3eaf911f),
    ("dither", 220516, 0xebae738e28a9eaa4, 0xbe3e789c9ada8a63),
];

/// One FNV-1a-style multiply-xor step over a whole word.
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

const SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn fold_counts(counts: &[u64]) -> u64 {
    counts.iter().fold(mix(SEED, counts.len() as u64), |h, &c| mix(h, c))
}

fn fold_trace(t: &Trace) -> u64 {
    let mut h = mix(SEED, t.len() as u64);
    for op in t.iter() {
        h = mix(h, op.sidx as u64);
        h = match op.mem {
            None => mix(h, 0),
            Some(MemRef { addr, width, store }) => {
                mix(mix(h, 1 + store as u64 + ((width as u64) << 8)), addr)
            }
        };
        h = match op.br {
            None => mix(h, 0),
            Some(BrRec { taken, target }) => mix(mix(h, 1 + taken as u64), target as u64),
        };
    }
    mix(h, t.insts)
}

fn digest(w: &mg_workloads::Workload, input: &Input) -> (u64, u64, u64) {
    let (prog, mut mem) = w.build(input);
    let prof = profile_program(&prog, &mut mem, None, STEP_BUDGET)
        .unwrap_or_else(|e| panic!("{} does not halt: {e}", w.name));
    let (_, mut mem) = w.build(input);
    let trace = record_trace(&prog, &mut mem, None, STEP_BUDGET)
        .unwrap_or_else(|e| panic!("{} does not trace: {e}", w.name));
    assert_eq!(trace.insts, prof.total, "{}: a full trace represents the whole run", w.name);
    (prof.total, fold_counts(&prof.inst_counts), fold_trace(&trace))
}

#[test]
fn functional_pass_matches_the_committed_digests() {
    let input = Input::reference();
    let actual: Vec<(String, (u64, u64, u64))> =
        all().iter().map(|w| (w.name.to_string(), digest(w, &input))).collect();
    let drifted = actual.len() != EXPECTED.len()
        || actual
            .iter()
            .zip(EXPECTED)
            .any(|((name, d), &(en, et, ec, etr))| name != en || *d != (et, ec, etr));
    if drifted {
        eprintln!("expected:");
        for (name, (t, c, tr)) in &actual {
            eprintln!("    (\"{name}\", {t}, 0x{c:016x}, 0x{tr:016x}),");
        }
        panic!("functional-pass digests changed — the interpreter or memory moved an event");
    }
}
