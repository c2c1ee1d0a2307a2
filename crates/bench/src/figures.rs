//! Report builders for every experiment in the CLI registry.
//!
//! Each function here builds one experiment's structured [`Report`]
//! (`mg run <name>` renders it). The text rendering of each report is
//! byte-identical to the stdout of the per-figure binary it was ported
//! from; the golden outputs captured before the port verified that once
//! by diff, and `EXPERIMENTS.md` pins it since.
//!
//! The paper sections and modeling notes live in `EXPERIMENTS.md`; the
//! run matrices are shared with [`crate::experiments`].

use crate::cli::{Report, RunArgs, TableBlock};
use crate::experiments::{
    fig5_selection_sweep, fig6_runs, fig7_int_policies, fig7_runs, fig8_bandwidth_runs,
    fig8_regfile_runs, icache_policy, icache_runs, iq_capacity_runs, FIG5_CAPACITIES,
    FIG5_SIZES, FIG7_FOCUS, IQ_SIZES, REGFILE_SIZES,
};
use mg_api::MgErrorKind;
use mg_core::{select, select_domain, MiniGraph, Policy, RewriteStyle};
use mg_harness::{by_suite, gmean, Engine, Prep, PrepCache, Run};
use mg_isa::{MgTemplate, Opcode, TmplInst, TmplOperand};
use mg_workloads::Input;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

/// Figure 5 — mini-graph coverage: all three panels (application-specific
/// integer, application-specific integer-memory, domain-specific).
pub fn fig5(args: &RunArgs) -> Report {
    let engine = args.engine().build();
    let mut r = Report::new("fig5");
    fig5_panel(&mut r, &engine, &Policy::integer(), "top: application-specific integer");
    fig5_panel(
        &mut r,
        &engine,
        &Policy::integer_memory(),
        "middle: application-specific integer-memory",
    );
    fig5_domain_panel(&mut r, &engine);
    r
}

fn fig5_panel(r: &mut Report, engine: &Engine, base: &Policy, title: &str) {
    r.blank_then(format!(
        "== Figure 5 ({title}): coverage % by MGT entries (rows) x max size (cols) =="
    ));
    // One grid of coverages per workload, computed in parallel.
    let grids: Vec<Vec<f64>> = engine.map(|p| {
        let mut grid = Vec::with_capacity(FIG5_CAPACITIES.len() * FIG5_SIZES.len());
        for cap in FIG5_CAPACITIES {
            for sz in FIG5_SIZES {
                let policy = base.clone().with_capacity(cap).with_max_size(sz);
                grid.push(p.select(&policy).coverage(p.total_dyn));
            }
        }
        grid
    });
    let preps = engine.preps();
    for (suite, members) in by_suite(preps) {
        r.blank_then(format!("-- {suite} --"));
        let mut t = TableBlock::new(
            format!("fig5.{title}.{suite}"),
            &["benchmark", "entries", "sz2", "sz3", "sz4", "sz8"],
        );
        let mut headline = Vec::new();
        for p in &members {
            let wi = preps.iter().position(|q| q.name == p.name).expect("member of engine");
            for (ci, cap) in FIG5_CAPACITIES.iter().enumerate() {
                let mut cells = vec![p.name.clone(), cap.to_string()];
                for si in 0..FIG5_SIZES.len() {
                    cells.push(format!("{:.1}", 100.0 * grids[wi][ci * FIG5_SIZES.len() + si]));
                }
                t.row(cells);
            }
            // Suite mean at the paper's headline point (512 entries, size 4).
            let (ci, si) = (2, 2);
            headline.push(grids[wi][ci * FIG5_SIZES.len() + si].max(1e-9));
        }
        r.table(t);
        r.line(format!("suite mean @512/sz4: {:.1}%", 100.0 * gmean(&headline)));
    }
}

fn fig5_domain_panel(r: &mut Report, engine: &Engine) {
    r.blank_then("== Figure 5 (bottom): domain-specific integer-memory coverage ==");
    for (suite, members) in by_suite(engine.preps()) {
        r.blank_then(format!("-- {suite} (one shared MGT per suite) --"));
        let mut t = TableBlock::new(
            format!("fig5.domain.{suite}"),
            &["entries", "mean-cov%", "templates"],
        );
        for cap in FIG5_CAPACITIES {
            let policy = Policy::integer_memory().with_capacity(cap).with_max_size(4);
            let per_prog: Vec<Vec<MiniGraph>> =
                members.iter().map(|p| p.candidates.clone()).collect();
            let (sels, catalog) = select_domain(&per_prog, &policy);
            let cov: Vec<f64> = sels
                .iter()
                .zip(&members)
                .map(|(s, p): (_, &&Prep)| s.coverage(p.total_dyn).max(1e-9))
                .collect();
            t.row(vec![
                cap.to_string(),
                format!("{:.1}", 100.0 * gmean(&cov)),
                catalog.len().to_string(),
            ]);
        }
        r.table(t);
    }
}

/// Figure 6 — performance of mini-graph processing.
pub fn fig6(args: &RunArgs) -> Report {
    let engine = args.engine().build();
    let matrix = engine.run(&fig6_runs());
    let mut r = Report::new("fig6");
    r.line("== Figure 6: speedup over 6-wide baseline (512-entry MGT, max size 4) ==");
    for (suite, members) in matrix.by_suite() {
        r.blank_then(format!("-- {suite} --"));
        let mut t = TableBlock::new(
            format!("fig6.{suite}"),
            &["benchmark", "baseIPC", "int", "int+coll", "intmem", "intmem+coll", "cov%"],
        );
        let mut sp = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for row in &members {
            let p = &row.prep;
            let mut cells = vec![p.name.clone(), format!("{:.2}", row.stats[0].ipc())];
            for (i, sink) in sp.iter_mut().enumerate() {
                let x = row.speedup_over(0, i + 1);
                sink.push(x);
                cells.push(format!("{x:.3}"));
            }
            let cov = p.select(&Policy::integer_memory()).coverage(p.total_dyn);
            cells.push(format!("{:.1}", 100.0 * cov));
            t.row(cells);
        }
        r.table(t);
        r.line(format!(
            "gmean speedups: int {:.3}  int+coll {:.3}  intmem {:.3}  intmem+coll {:.3}",
            gmean(&sp[0]),
            gmean(&sp[1]),
            gmean(&sp[2]),
            gmean(&sp[3]),
        ));
    }
    r
}

/// Figure 7 — isolating serialization effects (`--best` adds §6.2).
pub fn fig7(args: &RunArgs) -> Report {
    // The paper's six focus benchmarks, by behavioural analogue. Only
    // `--best` (the §6.2 suite sweep) needs every workload; the default
    // report simulates just the focus set.
    let focus = FIG7_FOCUS;
    let mut builder = args.engine();
    if !args.best {
        builder = builder.workloads(&focus);
    }
    let engine = builder.build();

    // One matrix serves both reports: baseline + all seven ablations.
    let runs = fig7_runs();
    let matrix = engine.run(&runs);

    let mut r = Report::new("fig7");
    r.line("== Figure 7: serialization and replay ablation (speedup over baseline) ==");
    let mut t = TableBlock::new(
        "fig7.ablation",
        &["benchmark", "int", "-ext", "-int", "-both", "intmem", "-serial", "-ser-rep"],
    );
    for name in focus {
        let row = matrix.row(name).expect("focus benchmark exists");
        let mut cells = vec![name.to_string()];
        for ri in 1..runs.len() {
            cells.push(format!("{:.3}", row.speedup_over(0, ri)));
        }
        t.row(cells);
    }
    r.table(t);

    if args.best {
        r.blank_then("== §6.2: best policy combination per benchmark (suite gmeans) ==");
        let unres_col = 1 + fig7_int_policies().len(); // the unrestricted "intmem" run
        let mut table =
            TableBlock::new("fig7.best", &["suite", "unrestricted", "best-per-bench"]);
        for (suite, members) in matrix.by_suite() {
            let mut unrestricted = Vec::new();
            let mut best = Vec::new();
            for row in &members {
                unrestricted.push(row.speedup_over(0, unres_col));
                best.push(
                    (1..runs.len()).map(|ri| row.speedup_over(0, ri)).fold(f64::MIN, f64::max),
                );
            }
            table.row(vec![
                suite.to_string(),
                format!("{:.3}", gmean(&unrestricted)),
                format!("{:.3}", gmean(&best)),
            ]);
        }
        r.table(table);
    }
    r
}

/// Figure 8 (top) — capacity: physical register file size.
pub fn fig8_regfile(args: &RunArgs) -> Report {
    let engine = args.engine().build();
    // Column 0 is the reference; then (baseline, int, intmem) per size.
    let matrix = engine.run(&fig8_regfile_runs());
    let mut r = Report::new("fig8_regfile");
    r.line("== Figure 8 (top): performance vs physical register file size ==");
    r.line("   (all numbers relative to the 164-register baseline)");
    for (suite, members) in matrix.by_suite() {
        r.blank_then(format!("-- {suite} --"));
        let mut t = TableBlock::new(
            format!("fig8_regfile.{suite}"),
            &["benchmark", "regs", "baseline", "int", "intmem"],
        );
        // Per-size accumulators: (regs, baseline, int, intmem speedups).
        type SizeMeans = (usize, Vec<f64>, Vec<f64>, Vec<f64>);
        let mut means: Vec<SizeMeans> =
            REGFILE_SIZES.iter().map(|&r| (r, Vec::new(), Vec::new(), Vec::new())).collect();
        for row in &members {
            for (ri, &regs) in REGFILE_SIZES.iter().enumerate() {
                let b = row.speedup_over(0, 1 + 3 * ri);
                let i = row.speedup_over(0, 2 + 3 * ri);
                let m = row.speedup_over(0, 3 + 3 * ri);
                means[ri].1.push(b);
                means[ri].2.push(i);
                means[ri].3.push(m);
                t.row(vec![
                    row.prep.name.clone(),
                    regs.to_string(),
                    format!("{b:.3}"),
                    format!("{i:.3}"),
                    format!("{m:.3}"),
                ]);
            }
        }
        r.table(t);
        for (regs, b, i, m) in &means {
            r.line(format!(
                "gmean @{regs}: baseline {:.3}  int {:.3}  intmem {:.3}",
                gmean(b),
                gmean(i),
                gmean(m)
            ));
        }
    }
    r
}

/// Figure 8 (bottom) — bandwidth and scheduling-loop latency.
pub fn fig8_bandwidth(args: &RunArgs) -> Report {
    let engine = args.engine().build();
    let runs = fig8_bandwidth_runs();
    let matrix = engine.run(&runs);
    let mut r = Report::new("fig8_bandwidth");
    r.line("== Figure 8 (bottom): bandwidth / scheduler-latency reductions ==");
    r.line("   (all numbers relative to the 6-wide, 1-cycle-scheduler baseline)");
    for (suite, members) in matrix.by_suite() {
        r.blank_then(format!("-- {suite} --"));
        let mut header = vec!["benchmark"];
        header.extend(matrix.labels.iter().map(String::as_str));
        let mut t = TableBlock::new(format!("fig8_bandwidth.{suite}"), &header);
        let mut means = vec![Vec::new(); runs.len()];
        for row in &members {
            let mut cells = vec![row.prep.name.clone()];
            for (vi, sink) in means.iter_mut().enumerate() {
                let x = row.speedup_over(0, vi);
                sink.push(x);
                cells.push(format!("{x:.3}"));
            }
            t.row(cells);
        }
        r.table(t);
        let summary: Vec<String> = matrix
            .labels
            .iter()
            .zip(&means)
            .map(|(n, xs)| format!("{n} {:.3}", gmean(xs)))
            .collect();
        r.line(format!("gmean: {}", summary.join("  ")));
    }
    r
}

/// Realized coverage on the test input of a selection trained on the
/// training input: credit each chosen instance with its anchor block's
/// frequency in the test profile (both preps carry their profiles).
fn cross_coverage(trained: &Prep, test: &Prep, policy: &Policy) -> (f64, f64) {
    let sel = trained.select(policy);
    let mut realized = 0u64;
    for c in &sel.chosen {
        let block = test.cfg.block_of(c.graph.anchor).expect("anchor is in a block");
        realized += (c.graph.size() as u64 - 1) * test.prof.block_count(block);
    }
    let cross = realized as f64 / test.prof.total as f64;
    // Native coverage on the test input (selection trained on test).
    let native = test.select(policy).coverage(test.total_dyn);
    (cross, native)
}

/// §6.1 — intra-application input-data robustness.
pub fn robustness(args: &RunArgs) -> Report {
    let mut r = Report::new("robustness");
    r.line("== §6.1: coverage robustness across input data sets ==");
    r.line("   (trained on reference input, evaluated on alternative input)");
    // Two engines: identical workload order, different inputs.
    let trained = args.engine().input(Input::reference()).build();
    let test = args.engine().input(Input::alternative()).build();
    let policy = Policy::integer_memory();

    for ((suite, trained_members), (_, test_members)) in
        trained.by_suite().into_iter().zip(test.by_suite())
    {
        r.blank_then(format!("-- {suite} --"));
        let mut t = TableBlock::new(
            format!("robustness.{suite}"),
            &["benchmark", "native%", "cross%", "relative"],
        );
        let mut rels = Vec::new();
        for (tr, te) in trained_members.iter().zip(&test_members) {
            assert_eq!(tr.name, te.name, "engines registered in the same order");
            let (cross, native) = cross_coverage(tr, te, &policy);
            let rel = if native > 0.0 { cross / native } else { 1.0 };
            rels.push(rel.max(1e-9));
            t.row(vec![
                tr.name.clone(),
                format!("{:.1}", 100.0 * native),
                format!("{:.1}", 100.0 * cross),
                format!("{rel:.2}"),
            ]);
        }
        r.table(t);
        r.line(format!("suite gmean retention: {:.2}", gmean(&rels)));
    }
    r
}

/// §6.2 — instruction-cache effects of code compression.
pub fn icache(args: &RunArgs) -> Report {
    let engine = args.engine().build();
    let policy = icache_policy();
    let matrix = engine.run(&icache_runs());
    let mut r = Report::new("icache");
    r.line("== §6.2: instruction-cache effects (nop-padded vs compressed images) ==");
    for (suite, members) in matrix.by_suite() {
        r.blank_then(format!("-- {suite} --"));
        let mut t = TableBlock::new(
            format!("icache.{suite}"),
            &["benchmark", "static", "compressed", "padded-x", "compressed-x"],
        );
        let mut pad = Vec::new();
        let mut comp = Vec::new();
        for row in &members {
            let p = &row.prep;
            let px = row.speedup_over(0, 1);
            let cx = row.speedup_over(0, 2);
            pad.push(px);
            comp.push(cx);
            // The compressed image is already cached from the matrix run.
            let compressed_len = p
                .try_image(&policy, RewriteStyle::Compressed)
                .expect("the matrix run rewrote this image")
                .program
                .len();
            t.row(vec![
                p.name.clone(),
                p.prog.len().to_string(),
                compressed_len.to_string(),
                format!("{px:.3}"),
                format!("{cx:.3}"),
            ]);
        }
        r.table(t);
        r.line(format!("gmean: padded {:.3}  compressed {:.3}", gmean(&pad), gmean(&comp)));
    }
    r
}

/// §6.3 — scheduler (issue queue) capacity.
pub fn iq_capacity(args: &RunArgs) -> Report {
    let engine = args.engine().build();
    let matrix = engine.run(&iq_capacity_runs());
    let mut r = Report::new("iq_capacity");
    r.line("== §6.3: performance vs issue-queue size (relative to 50-entry baseline) ==");
    for (suite, members) in matrix.by_suite() {
        r.blank_then(format!("-- {suite} --"));
        let mut t = TableBlock::new(
            format!("iq_capacity.{suite}"),
            &["benchmark", "iq", "baseline", "intmem"],
        );
        let mut means: Vec<(usize, Vec<f64>, Vec<f64>)> =
            IQ_SIZES.iter().map(|&s| (s, Vec::new(), Vec::new())).collect();
        for row in &members {
            for (si, &iq) in IQ_SIZES.iter().enumerate() {
                let b = row.speedup_over(0, 1 + 2 * si);
                let m = row.speedup_over(0, 2 + 2 * si);
                means[si].1.push(b);
                means[si].2.push(m);
                t.row(vec![
                    row.prep.name.clone(),
                    iq.to_string(),
                    format!("{b:.3}"),
                    format!("{m:.3}"),
                ]);
            }
        }
        r.table(t);
        for (iq, b, m) in &means {
            r.line(format!("gmean @{iq}: baseline {:.3}  intmem {:.3}", gmean(b), gmean(m)));
        }
    }
    r
}

// ---------------------------------------------------------------------------
// perf — the benchmark driver.
// ---------------------------------------------------------------------------

/// One timed experiment row of the perf report.
struct Measurement {
    name: &'static str,
    prep_ms: f64,
    run_ms: f64,
    /// Simulations actually run: cells copied from an identical
    /// (workload, image, config) cell count once.
    simulations: usize,
    /// Cycles and committed ops over the simulated cells only.
    sim_cycles: u64,
    sim_ops: u64,
    /// Pure selector wall-clock (the per-policy `select_<family>` rows
    /// only; see [`perf_selection_policies`]).
    selection_ms: Option<f64>,
    /// Heap bytes of the traces the row holds (the artifact-sweep rows
    /// only; see [`perf_artifact_sweep`]). Deterministic.
    trace_bytes: Option<usize>,
    /// Bytes of the files in the artifact-sweep rows' cache root. The
    /// same files every run, so deterministic too.
    cache_bytes: Option<u64>,
}

impl Measurement {
    fn wall_ms(&self) -> f64 {
        self.prep_ms + self.run_ms
    }

    fn to_json(&self) -> String {
        let rate = |n: u64| {
            if self.run_ms > 0.0 {
                n as f64 / 1e6 / (self.run_ms / 1e3)
            } else {
                0.0
            }
        };
        let mut row = format!(
            "    {{\"name\": \"{}\", \"wall_ms\": {:.1}, \"prep_ms\": {:.1}, \
             \"run_ms\": {:.1}, \"simulations\": {}, \"sim_cycles\": {}, \"sim_ops\": {}",
            self.name,
            self.wall_ms(),
            self.prep_ms,
            self.run_ms,
            self.simulations,
            self.sim_cycles,
            self.sim_ops,
        );
        // Selection-only rows simulate nothing: a literal
        // `mcycles_per_s: 0.00` reads as a wedged simulator, so the rate
        // is simply omitted where it is undefined.
        if self.sim_cycles > 0 {
            let _ = write!(row, ", \"mcycles_per_s\": {:.2}", rate(self.sim_cycles));
        }
        let _ = write!(row, ", \"mops_per_s\": {:.2}", rate(self.sim_ops));
        if let Some(x) = self.selection_ms {
            let _ = write!(row, ", \"selection_time_ms\": {x:.2}");
        }
        if let Some(x) = self.trace_bytes {
            let _ = write!(row, ", \"trace_bytes\": {x}");
        }
        if let Some(x) = self.cache_bytes {
            let _ = write!(row, ", \"cache_bytes\": {x}");
        }
        row.push('}');
        row
    }
}

/// A fresh engine for perf measurements. The artifact cache is **off**
/// here regardless of `--no-cache`: the per-experiment rows exist to
/// track real compute against the committed trajectory, and a warm cache
/// would silently hollow them out. The cache's own benefit is measured
/// explicitly by [`perf_artifact_sweep`].
fn perf_engine(args: &RunArgs, quick: bool, workloads: Option<&[&str]>) -> (Engine, f64) {
    let mut b = Engine::builder().quick(quick).cache(false);
    if let Some(t) = args.threads {
        b = b.threads(t);
    }
    if let Some(w) = workloads {
        b = b.workloads(w);
    }
    let t = Instant::now();
    let engine = b.build();
    (engine, t.elapsed().as_secs_f64() * 1e3)
}

fn perf_sim_experiment(
    name: &'static str,
    args: &RunArgs,
    quick: bool,
    workloads: Option<&[&str]>,
    runs: &[Run],
) -> Measurement {
    let (engine, prep_ms) = perf_engine(args, quick, workloads);
    let t = Instant::now();
    let matrix = engine.run(runs);
    let run_ms = t.elapsed().as_secs_f64() * 1e3;
    let simulated = matrix.rows.iter().flat_map(|r| {
        r.stats.iter().zip(&r.simulated).filter_map(|(s, &simulated)| simulated.then_some(s))
    });
    let (sim_cycles, sim_ops) = simulated.fold((0, 0), |(c, o), s| (c + s.cycles, o + s.ops));
    let simulations = matrix.simulations();
    eprintln!("{name:14} prep {prep_ms:8.1} ms  run {run_ms:8.1} ms  {sim_cycles:>10} cycles");
    Measurement {
        name,
        prep_ms,
        run_ms,
        simulations,
        sim_cycles,
        sim_ops,
        selection_ms: None,
        trace_bytes: None,
        cache_bytes: None,
    }
}

/// A synthetic selection workload far past the real candidate pools: many
/// heavily-overlapping instances of many templates with tied benefits,
/// selected at a large MGT capacity. This is the O(rounds × instances ×
/// members) worst case the incremental greedy picker exists for.
fn perf_select_stress(quick: bool) -> Measurement {
    let template = |k: i64| MgTemplate {
        ops: (0..3)
            .map(|_| TmplInst {
                op: Opcode::Addq,
                a: TmplOperand::E0,
                b: TmplOperand::Imm(k),
                disp: 0,
            })
            .collect(),
        out: Some(2),
    };
    let (n_templates, per_template) = if quick { (1500, 12) } else { (4000, 16) };
    let mut rng = StdRng::seed_from_u64(0x5eed_ca5e);
    let mut candidates = Vec::with_capacity(n_templates * per_template);
    for k in 0..n_templates {
        for _ in 0..per_template {
            let start = rng.gen_range(0..n_templates * 4);
            candidates.push(MiniGraph {
                members: vec![start, start + 1, start + 2],
                anchor: start + 2,
                inputs: vec![],
                output: None,
                template: template(k as i64),
                freq: rng.gen_range(1u64..=3),
                branch_target: None,
            });
        }
    }
    let policy = Policy::default().with_capacity(n_templates / 2);
    let t = Instant::now();
    let sel = select(&candidates, &policy);
    let run_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "select_stress  prep      0.0 ms  run {run_ms:8.1} ms  {} instances chosen",
        sel.chosen.len()
    );
    Measurement {
        name: "select_stress",
        prep_ms: 0.0,
        run_ms,
        simulations: 0,
        sim_cycles: 0,
        sim_ops: sel.chosen.len() as u64,
        selection_ms: Some(run_ms),
        trace_bytes: None,
        cache_bytes: None,
    }
}

/// Times each selection-policy family (see [`mg_policy::all_selectors`])
/// over every registry prep under the integer-memory policy: pure
/// selector wall-clock, no simulation. Each row's JSON carries an
/// explicit `selection_time_ms` field next to the generic timings, so
/// the committed trajectory tracks selector cost per family.
fn perf_selection_policies(args: &RunArgs, quick: bool) -> Vec<Measurement> {
    let (engine, _prep_ms) = perf_engine(args, quick, None);
    let policy = Policy::integer_memory();
    mg_policy::all_selectors()
        .iter()
        .map(|s| {
            let t = Instant::now();
            let chosen: u64 = engine
                .map(|p| p.select_with(s.as_ref(), &policy).chosen.len() as u64)
                .iter()
                .sum();
            let run_ms = t.elapsed().as_secs_f64() * 1e3;
            let name: &'static str = match s.id() {
                "greedy" => "select_greedy",
                "weighted" => "select_weighted",
                "tiling" => "select_tiling",
                "dp" => "select_dp",
                _ => "select_other",
            };
            eprintln!(
                "{name:14} prep      0.0 ms  run {run_ms:8.1} ms  {chosen} instances chosen"
            );
            Measurement {
                name,
                prep_ms: 0.0,
                run_ms,
                simulations: 0,
                sim_cycles: 0,
                sim_ops: chosen,
                selection_ms: Some(run_ms),
                trace_bytes: None,
                cache_bytes: None,
            }
        })
        .collect()
}

fn perf_fig5_experiment(args: &RunArgs, quick: bool) -> Measurement {
    let (engine, prep_ms) = perf_engine(args, quick, None);
    let t = Instant::now();
    let selected = fig5_selection_sweep(&engine);
    let run_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "fig5_coverage  prep {prep_ms:8.1} ms  run {run_ms:8.1} ms  {selected} instances chosen"
    );
    Measurement {
        name: "fig5_coverage",
        prep_ms,
        run_ms,
        simulations: 0,
        sim_cycles: 0,
        sim_ops: selected,
        selection_ms: None,
        trace_bytes: None,
        cache_bytes: None,
    }
}

/// One full artifact sweep against the persistent cache: every fig5
/// selection, plus each workload's baseline trace and integer-memory
/// image. Run twice — against an empty cache, then the warm one — this
/// measures exactly the recomputation the cache layer saves (simulation
/// excluded by design: it is never cached). `trace_bytes` sums
/// [`mg_profile::Trace::heap_bytes`] over the traces the sweep holds;
/// `cache_bytes` is what the cache root holds afterwards.
fn perf_artifact_sweep(
    name: &'static str,
    args: &RunArgs,
    quick: bool,
    dir: &std::path::Path,
) -> Measurement {
    let mut b = Engine::builder().quick(quick).cache_dir(dir);
    if let Some(t) = args.threads {
        b = b.threads(t);
    }
    let t = Instant::now();
    let engine = b.build();
    let prep_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let selected = fig5_selection_sweep(&engine);
    let (artifact_ops, trace_bytes) = engine
        .map(|p| {
            let base = p.try_base_trace().expect("registry workloads trace");
            let img = p
                .try_image(&Policy::integer_memory(), RewriteStyle::NopPadded)
                .expect("registry workloads rewrite");
            ((base.len() + img.trace.len()) as u64, base.heap_bytes() + img.trace.heap_bytes())
        })
        .iter()
        .fold((0, 0), |(o, b), &(wo, wb)| (o + wo, b + wb));
    let run_ms = t.elapsed().as_secs_f64() * 1e3;
    let cache_bytes = PrepCache::new(dir).stats().bytes;
    eprintln!("{name} prep {prep_ms:8.1} ms  run {run_ms:8.1} ms  {selected} instances chosen");
    Measurement {
        name,
        prep_ms,
        run_ms,
        simulations: 0,
        sim_cycles: 0,
        sim_ops: selected + artifact_ops,
        selection_ms: None,
        trace_bytes: Some(trace_bytes),
        cache_bytes: Some(cache_bytes),
    }
}

/// Extracts the recorded mode and `(name, wall_ms)` pairs from a report
/// previously written by this driver (line-oriented scan; not a general
/// JSON parser).
///
/// # Errors
///
/// The rendered I/O error when `path` cannot be read.
fn read_perf_baseline(path: &str) -> Result<(String, Vec<(String, f64)>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let mut mode = String::new();
    let mut rows = Vec::new();
    for line in text.lines() {
        if let Some(at) = line.find("\"mode\": \"") {
            if let Some(end) = line[at + 9..].find('"') {
                mode = line[at + 9..at + 9 + end].to_string();
            }
            continue;
        }
        let Some(name_at) = line.find("\"name\": \"") else { continue };
        let rest = &line[name_at + 9..];
        let Some(name_end) = rest.find('"') else { continue };
        let name = rest[..name_end].to_string();
        let Some(wall_at) = rest.find("\"wall_ms\": ") else { continue };
        let wall = rest[wall_at + 11..]
            .split([',', '}'])
            .next()
            .and_then(|v| v.trim().parse::<f64>().ok());
        if let Some(wall) = wall {
            rows.push((name, wall));
        }
    }
    Ok((mode, rows))
}

/// A perf report that stopped on an error: the error on one line and
/// `kind`'s exit status.
fn perf_error(kind: MgErrorKind, message: String) -> Report {
    let mut r = Report::new("perf");
    r.line(format!("error: {message}"));
    r.status = kind.exit_code();
    r
}

/// The benchmark driver: times every figure sweep and the artifact cache
/// (cold vs warm), writes `BENCH_pipeline.json`, and optionally gates
/// against a committed baseline. Prints nothing to stdout in text format
/// (progress goes to stderr); the structured formats expose the
/// measurements as a table.
pub fn perf(args: &RunArgs) -> Report {
    let quick = args.is_quick(true);
    let mode = if quick { "quick" } else { "full" };
    // The baseline is read before anything is measured, so a bad path
    // fails in milliseconds, not after the whole sweep.
    let baseline = match args.baseline.as_deref().map(read_perf_baseline).transpose() {
        Ok(baseline) => baseline,
        Err(e) => return perf_error(MgErrorKind::Io, e),
    };
    if let (Some(path), Some((base_mode, _))) = (&args.baseline, &baseline) {
        // Quick and full wall clocks differ by an order of magnitude:
        // comparing across modes is either a vacuous pass or a spurious
        // failure, so refuse outright.
        if base_mode != mode {
            return perf_error(
                MgErrorKind::InvalidSpec,
                format!(
                    "baseline {path} was recorded in {base_mode:?} mode but this run is \
                     {mode:?}; regenerate the baseline in the same mode"
                ),
            );
        }
    }
    eprintln!("perf_report: mode {mode}");

    let mut measurements = vec![
        perf_fig5_experiment(args, quick),
        perf_sim_experiment("fig6", args, quick, None, &fig6_runs()),
        perf_sim_experiment("fig7", args, quick, Some(&FIG7_FOCUS), &fig7_runs()),
        perf_sim_experiment("fig8_regfile", args, quick, None, &fig8_regfile_runs()),
        perf_sim_experiment("fig8_bandwidth", args, quick, None, &fig8_bandwidth_runs()),
        perf_sim_experiment("icache", args, quick, None, &icache_runs()),
        perf_sim_experiment("iq_capacity", args, quick, None, &iq_capacity_runs()),
        perf_select_stress(quick),
    ];
    measurements.extend(perf_selection_policies(args, quick));

    // Cold/warm artifact-cache trajectory points: a dedicated cache root,
    // cleared for the cold pass, reused warm. Skipped under --no-cache.
    if !args.no_cache && !PrepCache::disabled_by_env() {
        let dir = PrepCache::default_root().join("perf-sweep");
        let sweep_cache = PrepCache::new(&dir);
        let _ = sweep_cache.clear();
        measurements.push(perf_artifact_sweep("artifacts_cold", args, quick, &dir));
        measurements.push(perf_artifact_sweep("artifacts_warm", args, quick, &dir));
        let _ = sweep_cache.clear();
    }

    let rows: Vec<String> = measurements.iter().map(Measurement::to_json).collect();
    let json = format!(
        "{{\n  \"schema\": \"mg-perf-report-v1\",\n  \"mode\": \"{mode}\",\n  \
         \"experiments\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    if let Err(e) = std::fs::write(&args.out, &json) {
        return perf_error(MgErrorKind::Io, format!("cannot write {}: {e}", args.out));
    }
    eprintln!("wrote {}", args.out);

    let mut status = 0;
    if let (Some(path), Some((_, baseline))) = (&args.baseline, &baseline) {
        for m in &measurements {
            let Some((_, old)) = baseline.iter().find(|(n, _)| n == m.name) else {
                eprintln!("note: {} absent from baseline {path}", m.name);
                continue;
            };
            let ratio = if *old > 0.0 { m.wall_ms() / old } else { 0.0 };
            if ratio > args.max_regression {
                eprintln!(
                    "REGRESSION: {} took {:.1} ms vs baseline {:.1} ms ({ratio:.2}x > {:.2}x)",
                    m.name,
                    m.wall_ms(),
                    old,
                    args.max_regression
                );
                status = 1;
            }
        }
        if status == 0 {
            eprintln!("all experiments within {:.1}x of baseline {path}", args.max_regression);
        }
    }

    let mut r = Report::new("perf");
    let mut t = TableBlock::new(
        "perf.experiments",
        &[
            "name",
            "wall_ms",
            "prep_ms",
            "run_ms",
            "simulations",
            "sim_cycles",
            "sim_ops",
            "trace_bytes",
            "cache_bytes",
        ],
    )
    .hidden();
    for m in &measurements {
        t.row(vec![
            m.name.to_string(),
            format!("{:.1}", m.wall_ms()),
            format!("{:.1}", m.prep_ms),
            format!("{:.1}", m.run_ms),
            m.simulations.to_string(),
            m.sim_cycles.to_string(),
            m.sim_ops.to_string(),
            m.trace_bytes.map_or_else(String::new, |b| b.to_string()),
            m.cache_bytes.map_or_else(String::new, |b| b.to_string()),
        ]);
    }
    r.table(t);
    r.status = status;
    r
}
