//! K=1 vs K=n sweep differential: a matrix whose image groups run as
//! multi-config sweeps (K=n configurations per unit, see
//! `mg_harness::fused`) must produce **bit-identical** `SimStats` to
//! simulating each cell alone (K=1) with `mg_uarch::simulate_with` over
//! a freshly built predecode plane, for every registered workload.

use mg_core::{Policy, RewriteStyle};
use mg_harness::{Engine, Image, Run};
use mg_isa::HandleCatalog;
use mg_uarch::{simulate_with, Predecode, SimConfig};
use mg_workloads::Input;
use std::sync::Arc;

fn quick(mut cfg: SimConfig) -> SimConfig {
    cfg.max_ops = 10_000;
    cfg
}

/// A 4-config sweep per image group: a baseline anchor, a deliberate
/// duplicate of it (exercises dedup), a narrow front end, and a small
/// register file — plus two mini-graph cells so policy images run
/// through the sweep path too.
fn sweep() -> Vec<Run> {
    [
        Run::baseline(quick(SimConfig::baseline())).label("base"),
        Run::baseline(quick(SimConfig::baseline())).label("base-dup"),
        Run::baseline(quick(SimConfig::baseline().with_front_width(4))).label("narrow"),
        Run::baseline(quick(SimConfig::baseline().with_phys_regs(96))).label("small-prf"),
        Run::mini_graph(
            Policy::integer(),
            RewriteStyle::NopPadded,
            quick(SimConfig::mg_integer()),
        )
        .label("int"),
        Run::mini_graph(
            Policy::integer_memory(),
            RewriteStyle::Compressed,
            quick(SimConfig::mg_integer_memory()),
        )
        .label("intmem"),
    ]
    .into()
}

/// Every registry workload × tiny input × the sweep above: each cell of
/// the swept matrix equals the same cell simulated alone.
#[test]
fn fused_sweep_matches_scalar_on_every_workload() {
    let runs = sweep();
    let engine = Engine::builder().input(Input::tiny()).quick(false).build();
    let matrix = engine.run(&runs);
    assert!(matrix.rows.len() >= 24, "every registered workload is covered");
    for row in &matrix.rows {
        let prep = &row.prep;
        for (run, swept) in runs.iter().zip(&row.stats) {
            let alone = match &run.image {
                Image::Baseline => {
                    let catalog = HandleCatalog::new();
                    let pd = Arc::new(Predecode::new(&prep.prog, &catalog));
                    let trace = prep.try_base_trace().unwrap();
                    simulate_with(&run.cfg, &prep.prog, &trace, &catalog, &pd)
                }
                Image::MiniGraph { policy, style } => {
                    let img = prep.try_image(policy, *style).unwrap();
                    let pd = Arc::new(Predecode::new(&img.program, &img.catalog));
                    simulate_with(&run.cfg, &img.program, &img.trace, &img.catalog, &pd)
                }
            };
            assert_eq!(
                *swept, alone,
                "{}/{}: swept and single-config SimStats diverge",
                prep.name, run.label
            );
        }
        assert_eq!(row.stats[0], row.stats[1], "{}: base-dup shares base's run", prep.name);
    }
}
