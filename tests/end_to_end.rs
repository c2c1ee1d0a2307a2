//! Cross-crate integration tests: every registered workload runs through
//! the complete pipeline (profile → extract → rewrite → trace → timing
//! simulation) via the experiment harness, functional results stay
//! bit-identical, accounting identities hold, and the DISE expansion
//! fallback round-trips.

use mini_graphs::core::{Policy, RewriteStyle};
use mini_graphs::dise::expansion_engine;
use mini_graphs::harness::{Engine, Prep, Run};
use mini_graphs::isa::reg;
use mini_graphs::profile::run_program;
use mini_graphs::uarch::SimConfig;
use mini_graphs::workloads::{all, by_name, Input};

const RESULT_ADDR: u64 = 0x8000;

/// Every workload: the rewritten (nop-padded and compressed) images must
/// produce the same checksum as the original.
#[test]
fn all_workloads_rewrite_equivalently() {
    for w in all() {
        let input = Input::tiny();
        let prep = Prep::try_new(&w, &input).unwrap();
        let policy = Policy::integer_memory();

        let mut m0 = prep.try_fresh_memory().unwrap();
        run_program(&prep.prog, &mut m0, None, 200_000_000).expect("original halts");
        let expected = m0.read_u64(RESULT_ADDR);

        for style in [RewriteStyle::NopPadded, RewriteStyle::Compressed] {
            let image = prep.try_image(&policy, style).unwrap();
            let mut m1 = prep.try_fresh_memory().unwrap();
            run_program(&image.program, &mut m1, Some(&image.catalog), 200_000_000)
                .unwrap_or_else(|e| panic!("{}: rewritten image failed: {e}", w.name));
            assert_eq!(
                m1.read_u64(RESULT_ADDR),
                expected,
                "{}: checksum diverged under {:?}",
                w.name,
                style
            );
        }
    }
}

/// The amplification identity: dynamic instructions represented by both
/// traces agree, and the handle image fetches exactly `saved_slots` fewer
/// operations.
#[test]
fn amplification_accounting_identity() {
    let w = by_name("gsm.toast").expect("registered");
    let prep = Prep::try_new(&w, &Input::tiny()).unwrap();
    let policy = Policy::integer_memory();
    let sel = prep.select(&policy);

    let base = prep.try_base_trace().unwrap();
    let mg = prep.try_image(&policy, RewriteStyle::NopPadded).unwrap();

    assert_eq!(base.insts, mg.trace.insts, "same original instruction stream");
    let fetched_saved = base.len() as u64 - mg.trace.len() as u64;
    assert_eq!(
        fetched_saved,
        sel.saved_slots(),
        "pipeline slots saved must equal the selection's (n-1)·f estimate"
    );
}

/// Timing simulation is deterministic and the mini-graph machine commits
/// the same number of instructions as the baseline.
#[test]
fn timing_simulation_consistency() {
    let policy = Policy::integer_memory();
    let engine =
        Engine::builder().workloads(&["rgba.conv"]).input(Input::tiny()).quick(false).build();
    let runs = [
        Run::baseline(SimConfig::baseline()),
        Run::mini_graph(
            policy.clone(),
            RewriteStyle::NopPadded,
            SimConfig::mg_integer_memory(),
        ),
    ];

    let m1 = engine.run(&runs);
    let m2 = engine.run(&runs);
    let (b1, b2) = (&m1.rows[0].stats[0], &m2.rows[0].stats[0]);
    assert_eq!(b1.cycles, b2.cycles, "deterministic");

    let prep = &m1.rows[0].prep;
    let m = &m1.rows[0].stats[1];
    let saved = prep.select(&policy).saved_slots();
    assert_eq!(m.insts, b1.insts, "IPC numerators comparable");
    assert_eq!(m.ops + saved, b1.ops, "commit slots saved");
    assert!(m.handles > 0);
}

/// DISE fallback: expanding every handle of a rewritten workload image
/// back into singletons restores original behaviour (the "processor can
/// always expand a mini-graph it doesn't understand" path). Uses r24..r27
/// as the DISE register file — a workload whose kernels leave them dead.
#[test]
fn dise_expansion_fallback_round_trips() {
    let w = by_name("crc32").expect("registered");
    let prep = Prep::try_new(&w, &Input::tiny()).unwrap();
    let image = prep.try_image(&Policy::integer_memory(), RewriteStyle::NopPadded).unwrap();

    let engine = expansion_engine(
        &image.catalog,
        vec![reg(24), reg(25), reg(26), reg(27), reg(19), reg(13), reg(14), reg(12)],
    );
    let expanded = engine.expand_image(&image.program).expect("expansion succeeds");

    let mut m0 = prep.try_fresh_memory().unwrap();
    run_program(&prep.prog, &mut m0, None, 200_000_000).unwrap();
    let mut m1 = prep.try_fresh_memory().unwrap();
    run_program(&expanded, &mut m1, None, 200_000_000).unwrap();
    assert_eq!(
        m0.read_u64(RESULT_ADDR),
        m1.read_u64(RESULT_ADDR),
        "expanded image recomputes the same checksum"
    );
}

/// Baseline IPCs span the paper's dynamic range: the suite contains both
/// memory-crawlers (mcf-like, IPC ≈ 0.3 or below) and high-ILP media
/// kernels (IPC ≥ 2.5).
#[test]
fn baseline_ipc_dynamic_range() {
    let mut cfg = SimConfig::baseline();
    cfg.max_ops = 25_000;
    let engine = Engine::builder()
        .workloads(&["mcf.netw", "crafty.bits"])
        .input(Input::tiny())
        .quick(false)
        .build();
    let matrix = engine.run(&[Run::baseline(cfg)]);
    let lo = matrix.row("mcf.netw").unwrap().stats[0].ipc();
    let hi = matrix.row("crafty.bits").unwrap().stats[0].ipc();
    assert!(lo < 0.4, "mcf-like crawls: {lo:.2}");
    assert!(hi > 2.5, "bit-twiddling flies: {hi:.2}");
}
