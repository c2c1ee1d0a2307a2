//! Quickstart: the complete mini-graph flow on the paper's own example.
//!
//! Builds a small program containing the paper's Figure 1 idiom
//! (`addl r18,2,r18 ; cmplt r18,r5,r7 ; bne r7,…`), registers it as an
//! ad-hoc program with the experiment engine, prints the MGT content
//! (MGHT headers and MGST banks), rewrites the binary with handles, and
//! compares baseline vs mini-graph cycle counts on the paper's 6-wide
//! machine.
//!
//! Run with: `cargo run --release --example quickstart`

use mini_graphs::core::{build_schedule, Policy, RewriteStyle};
use mini_graphs::harness::{Engine, Run};
use mini_graphs::isa::{reg, Asm, Memory, Program};
use mini_graphs::uarch::SimConfig;
use mini_graphs::workloads::Suite;

/// A loop built around the paper's Figure 1 (left) mini-graph.
fn figure1_program() -> Program {
    let mut a = Asm::new();
    a.li(reg(18), 0);
    a.li(reg(5), 60_000);
    a.li(reg(16), 0x2000);
    a.label("loop");
    a.addl(reg(18), 2, reg(18)); // mini-graph member
    a.lda(reg(6), 2, reg(6));
    a.s8addl(reg(7), reg(0), reg(7));
    a.cmplt(reg(18), reg(5), reg(7)); // mini-graph member
    a.bne(reg(7), "loop"); // mini-graph member (anchor)
    a.stq(reg(18), 0, reg(16));
    a.halt();
    a.finish().expect("example assembles")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Prepare: profile + enumerate via the engine; select greedily
    //    (512-entry MGT, max size 4 — the paper's headline point).
    let policy = Policy::default();
    let engine = Engine::builder()
        .program("figure1", Suite::SpecInt, |_| (figure1_program(), Memory::new()))
        .build();
    let prep = engine.prep("figure1").expect("registered above");
    let selection = prep.select(&policy);
    println!("candidates enumerated : {}", prep.candidates.len());
    println!("templates selected    : {}", selection.catalog.len());
    println!(
        "estimated coverage    : {:.1}% of {} dynamic instructions",
        100.0 * selection.coverage(prep.total_dyn),
        prep.total_dyn
    );

    // 2. Inspect the MGT: headers and sequencing banks.
    println!("\nMGT contents:");
    for (mgid, template) in selection.catalog.iter() {
        let sched = build_schedule(template, &SimConfig::mg_integer().mgt_config());
        println!(
            "  MGID {mgid}: {} (LAT {:?}, FU0 {}, total {} cycles)",
            template, sched.out_latency, sched.fu0, sched.total_latency
        );
        for line in sched.banks(template).lines() {
            println!("    {line}");
        }
    }

    // 3. Rewrite: handles at anchors, pads elsewhere.
    let image = prep.try_image(&policy, RewriteStyle::NopPadded)?;
    println!("\nrewritten image plants {} handle(s):", selection.chosen.len());
    for line in image.program.listing().lines() {
        println!("  {line}");
    }

    // 4. Cycle-level comparison: baseline vs mini-graph machine.
    let matrix = engine.run(&[
        Run::baseline(SimConfig::baseline()),
        Run::mini_graph(policy, RewriteStyle::NopPadded, SimConfig::mg_integer_memory()),
    ]);
    let row = &matrix.rows[0];
    let (base, mg) = (&row.stats[0], &row.stats[1]);
    println!("\nbaseline : {} cycles, IPC {:.2}", base.cycles, base.ipc());
    println!("mini-graph: {} cycles, IPC {:.2}", mg.cycles, mg.ipc());
    println!("speedup   : {:.3}x", base.cycles as f64 / mg.cycles as f64);
    Ok(())
}
