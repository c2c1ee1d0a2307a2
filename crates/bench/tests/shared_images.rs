//! Image-sharing differential: a matrix whose columns select equal
//! mini-graphs share one image and one sweep per workload (see
//! `mg_harness::Prep::run_shared`). Every shared cell must still equal
//! the same cell simulated alone on its **own** image, and the matrix
//! must simulate exactly once per distinct (selection, style, config).
//!
//! The columns are the baseline, every Figure 7 ablation, and the §6.2
//! nop-padded and compressed images: the ablations often pick identical
//! selections, while padded and compressed share a selection but not an
//! image, so a rule that ignored either half of the key fails here.

use mg_bench::experiments::{fig7_runs, icache_runs};
use mg_core::{RewriteStyle, Selection};
use mg_harness::{Engine, Image, Run};
use mg_uarch::{simulate_with, Predecode, SimConfig};
use mg_workloads::Input;
use std::sync::Arc;

fn runs() -> Vec<Run> {
    // fig7_runs() and icache_runs() both open with the baseline column.
    let mut runs = fig7_runs();
    runs.extend(icache_runs().into_iter().skip(1));
    for run in &mut runs {
        run.cfg.max_ops = 10_000;
    }
    runs
}

/// What makes two cells one simulation: `None` is the baseline program.
type CellKey = (Option<(Selection, RewriteStyle)>, SimConfig);

#[test]
fn shared_images_match_own_images_on_every_workload() {
    let runs = runs();
    let engine = Engine::builder().input(Input::tiny()).quick(false).build();
    let matrix = engine.run(&runs);
    assert!(matrix.rows.len() >= 24, "every registered workload is covered");

    let mut distinct = 0;
    for row in &matrix.rows {
        let prep = &row.prep;
        let mut keys: Vec<CellKey> = Vec::new();
        for (run, shared) in runs.iter().zip(&row.stats) {
            let (alone, image) = match &run.image {
                Image::Baseline => {
                    let catalog = mg_isa::HandleCatalog::new();
                    let pd = Arc::new(Predecode::new(&prep.prog, &catalog));
                    let trace = prep.try_base_trace().unwrap();
                    (simulate_with(&run.cfg, &prep.prog, &trace, &catalog, &pd), None)
                }
                Image::MiniGraph { policy, style } => {
                    let img = prep.try_image(policy, *style).unwrap();
                    let pd = Arc::new(Predecode::new(&img.program, &img.catalog));
                    let alone =
                        simulate_with(&run.cfg, &img.program, &img.trace, &img.catalog, &pd);
                    (alone, Some(((*prep.select(policy)).clone(), *style)))
                }
            };
            assert_eq!(
                *shared, alone,
                "{}/{}: shared-image and own-image SimStats diverge",
                prep.name, run.label
            );
            let key = (image, run.cfg.clone());
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        distinct += keys.len();
    }
    assert_eq!(
        matrix.simulations(),
        distinct,
        "one simulation per distinct (selection, style, config) of a workload"
    );
    assert!(
        distinct < matrix.rows.len() * runs.len(),
        "some columns share an image, so the rule is exercised"
    );
}
