//! `sim_sweep`: one op is one fused Figure 8 sweep over one prepared
//! (workload, image) pair — every registry workload on the reference
//! input, at the quick-mode op cap, as its baseline image (under the
//! fig8 baseline configurations) and its integer-memory nop-padded image
//! (under the matching mini-graph configurations).
//!
//! Reference: each configuration simulated alone with the scalar
//! `mg_uarch::simulate_with`, once per pair during the untimed warm-up.

use crate::trace::Recorder;
use crate::{millis, secs, Measured, Order, Plan, Traced, SETUP_REPS};
use mg_bench::experiments::{four_wide, four_wide_six_exec, two_cycle_sched, REGFILE_SIZES};
use mg_core::{Policy, RewriteStyle};
use mg_harness::{apply_quick, run_fused, MgImage, Prep, QUICK_MAX_OPS};
use mg_isa::{HandleCatalog, Program};
use mg_profile::Trace;
use mg_uarch::{simulate_with, MgSupport, Predecode, SimConfig, SimStats};
use mg_workloads::Input;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The fig8 baseline columns: the 164-register reference, each
/// register-file size, 4-wide, 4-wide/6-exec and the 2-cycle scheduler.
fn baseline_cfgs() -> Vec<SimConfig> {
    let mut cfgs = vec![SimConfig::baseline()];
    cfgs.extend(REGFILE_SIZES.iter().map(|&r| SimConfig::baseline().with_phys_regs(r)));
    cfgs.extend([four_wide(), four_wide_six_exec(), two_cycle_sched()]);
    quick(cfgs)
}

/// The mini-graph columns matching [`baseline_cfgs`], one for one.
fn mg_cfgs() -> Vec<SimConfig> {
    let with_mg = |mut c: SimConfig| {
        c.mg = MgSupport::IntegerMemory;
        c
    };
    let mut cfgs = vec![with_mg(SimConfig::baseline())];
    cfgs.extend(
        REGFILE_SIZES.iter().map(|&r| SimConfig::mg_integer_memory().with_phys_regs(r)),
    );
    cfgs.extend([four_wide(), four_wide_six_exec(), two_cycle_sched()].map(with_mg));
    quick(cfgs)
}

fn quick(mut cfgs: Vec<SimConfig>) -> Vec<SimConfig> {
    for c in &mut cfgs {
        apply_quick(c, true);
    }
    cfgs
}

/// Indices of the first occurrence of each distinct configuration: the
/// benchmark's own copy of the dedup rule by which the fused executor
/// picks the replicas it simulates.
fn distinct(cfgs: &[SimConfig]) -> Vec<usize> {
    (0..cfgs.len()).filter(|&i| !cfgs[..i].contains(&cfgs[i])).collect()
}

/// One (workload, image) pair, ready to simulate.
struct Pair {
    prep: Arc<Prep>,
    /// `None` for the baseline image.
    image: Option<Arc<MgImage>>,
    cfgs: Arc<Vec<SimConfig>>,
}

impl Pair {
    /// The timed op: the fused sweep through the `Prep` entry point.
    fn sweep(&self) -> Result<Vec<SimStats>, String> {
        let r = match &self.image {
            None => self.prep.try_run_baseline_sweep(&self.cfgs),
            Some(_) => self.prep.try_run_policy_sweep(
                &Policy::integer_memory(),
                RewriteStyle::NopPadded,
                &self.cfgs,
            ),
        };
        r.map_err(|e| e.to_string())
    }

    /// Calls `f` with the image artifacts the sweep simulates.
    fn with_artifacts<R>(
        &self,
        f: impl FnOnce(&Program, &Trace, &HandleCatalog, &Arc<Predecode>) -> R,
    ) -> R {
        match &self.image {
            None => f(
                &self.prep.prog,
                &self.prep.base_trace(),
                &HandleCatalog::new(),
                &self.prep.base_predecode(),
            ),
            Some(img) => f(&img.program, &img.trace, &img.catalog, &img.predecode()),
        }
    }
}

/// Prepares every pair, forcing each image's predecode plane (the
/// `uarch.predecode` spans).
fn setup(rec: &mut Recorder) -> Result<Vec<Pair>, String> {
    let input = Input::reference();
    let (base, mg) = (Arc::new(baseline_cfgs()), Arc::new(mg_cfgs()));
    let mut pairs = Vec::new();
    for w in mg_workloads::all() {
        let prep = Prep::try_new(&w, &input).map_err(|e| e.to_string())?;
        let prep = Arc::new(prep.with_trace_budget(QUICK_MAX_OPS));
        prep.try_base_trace().map_err(|e| e.to_string())?;
        rec.span("uarch.predecode", |_| prep.base_predecode());
        let img = prep
            .try_image(&Policy::integer_memory(), RewriteStyle::NopPadded)
            .map_err(|e| e.to_string())?;
        rec.span("uarch.predecode", |_| img.predecode());
        pairs.push(Pair { prep: Arc::clone(&prep), image: None, cfgs: Arc::clone(&base) });
        pairs.push(Pair { prep, image: Some(img), cfgs: Arc::clone(&mg) });
    }
    Ok(pairs)
}

/// Runs the workload.
///
/// # Errors
///
/// Preparation failures.
pub fn run(plan: &Plan) -> Result<Measured, String> {
    let epoch = Instant::now();
    let mut m = Measured::default();
    let mut pairs = Vec::new();
    let mut setup_rec = Recorder::new(epoch);
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut pairs));
        setup_rec = Recorder::new(epoch);
        let t = Instant::now();
        pairs = setup(&mut setup_rec)?;
        m.setup_s.push(secs(t));
    }

    // Untimed warm-up pass, which also computes the scalar references.
    let mut reference: Vec<Vec<SimStats>> = Vec::with_capacity(pairs.len());
    for pair in &pairs {
        black_box(pair.sweep()?);
        reference.push(pair.with_artifacts(|prog, trace, catalog, pd| {
            pair.cfgs.iter().map(|c| simulate_with(c, prog, trace, catalog, pd)).collect()
        }));
    }

    for pass in 0..plan.passes {
        for i in Order::new(plan.seed, pass as u64).permutation(pairs.len()) {
            let pair = &pairs[i];
            let t = Instant::now();
            let stats = black_box(pair.sweep());
            let ms = millis(t);
            m.op_ms.push(ms);
            m.timed_wall_s += ms / 1e3;
            m.attempted += 1;
            match stats {
                Ok(s) if s == reference[i] => {
                    m.sim_cycles +=
                        distinct(&pair.cfgs).iter().map(|&j| s[j].cycles).sum::<u64>();
                }
                _ => m.failed += 1,
            }
        }
    }

    if plan.traced {
        m.traced = Some(traced(plan, &pairs, &reference, setup_rec));
    }
    Ok(m)
}

/// The traced passes: the fused sweep called directly through
/// [`run_fused`] (what the `Prep` entry point stands in for), then each
/// distinct configuration simulated alone (the `uarch.simulate` spans,
/// outside the op) — both checked against the reference.
fn traced(
    plan: &Plan,
    pairs: &[Pair],
    reference: &[Vec<SimStats>],
    mut rec: Recorder,
) -> Traced {
    let mut t = Traced::default();
    let (mut fused_ms, mut scalar_ms) = (0.0, 0.0);
    let mut op = 0u32;
    for pass in 0..plan.passes.div_ceil(2) {
        for i in Order::new(plan.seed, (plan.passes + pass) as u64).permutation(pairs.len()) {
            let pair = &pairs[i];
            let ok = pair.with_artifacts(|prog, trace, catalog, pd| {
                let start = Instant::now();
                let stats = rec.op(op, |r| {
                    r.span("harness.run_fused", |_| {
                        run_fused(prog, trace, catalog, pd, &pair.cfgs)
                    })
                });
                let ms = millis(start);
                t.op_ms.push(ms);
                fused_ms += ms;
                let reps = distinct(&pair.cfgs);
                rec.count("harness.run_fused.replicas", reps.len() as u64);
                let mut ok = stats == reference[i];
                for j in reps {
                    let start = Instant::now();
                    let s = rec.span("uarch.simulate", |_| {
                        simulate_with(&pair.cfgs[j], prog, trace, catalog, pd)
                    });
                    scalar_ms += millis(start);
                    rec.count("uarch.simulate.cycles", s.cycles);
                    rec.count("uarch.simulate.ops", s.ops);
                    ok &= s == reference[i][j];
                }
                ok
            });
            op += 1;
            t.failed += u64::from(!ok);
        }
    }
    let sim_ms = crate::trace::self_ms_by_name(rec.spans()).get("uarch.simulate").copied();
    let cycles = rec.counts().get("uarch.simulate.cycles").copied().unwrap_or(0);
    if let Some(ms) = sim_ms.filter(|_| cycles > 0) {
        t.gauges.insert("uarch.simulate.ns_per_cycle", ms * 1e6 / cycles as f64);
    }
    t.gauges.insert("harness.run_fused.fusion_gain", scalar_ms / fused_ms);
    t.counts = rec.counts().clone();
    t.spans = rec.spans().to_vec();
    t.inconsistent = crate::trace::inconsistent_ops(&t.spans, &t.op_ms) as u64;
    t
}
