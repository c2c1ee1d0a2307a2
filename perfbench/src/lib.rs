//! Benchmark for the mini-graphs pipeline and `mg serve`.
//!
//! One process runs one named workload (see `README.md` in this
//! directory): it sets up several times, runs an untimed warm-up pass,
//! then times a fixed multiset of small ops, checking every op's output
//! against an independent reference. A traced run (`--trace 1`) then
//! repeats the ops with spans around each layer call and reports
//! per-layer self times and counts.

pub mod heap;
pub mod prep_ops;
pub mod serve_mix;
pub mod sim_sweep;
pub mod stats;
pub mod trace;

use stats::Metric;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One fused fig8 sweep over one prepared (workload, image) pair.
    SimSweep,
    /// One registry workload prepared against an emptied cache root.
    PrepCold,
    /// The same preparation against a filled cache root.
    PrepWarm,
    /// One request to an in-process `mg serve` from one closed-loop
    /// client.
    ServeMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::SimSweep, Workload::PrepCold, Workload::PrepWarm, Workload::ServeMix];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSweep => "sim_sweep",
            Workload::PrepCold => "prep_cold",
            Workload::PrepWarm => "prep_warm",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host seconds one timed pass over the op multiset takes on the
    /// reference machine (2 CPUs), roughly: `--seconds` is turned into a
    /// whole, machine-independent number of passes with it, so every run
    /// of a given `--seconds` times the same ops. `serve_mix` passes took
    /// 2.2–2.7 s there; 2.0 gives 15 s runs 8 passes, so its `tail_ms`
    /// falls among the policy_lab samples rather than at their edge.
    pub fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::SimSweep => 2.0,
            Workload::PrepCold => 0.5,
            Workload::PrepWarm => 0.36,
            Workload::ServeMix => 2.0,
        }
    }
}

/// Set-up repetitions per run (`setup_s` is their median).
pub const SETUP_REPS: usize = 3;

/// How one run is carried out.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Seed of the op order (the op multiset does not depend on it).
    pub seed: u64,
    /// Timed passes over the op multiset.
    pub passes: usize,
    /// Whether to follow the timed passes with traced ones.
    pub traced: bool,
    /// Scratch directory owned by this run (cache roots, socket).
    pub work_dir: PathBuf,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed op, in ms.
    pub op_ms: Vec<f64>,
    /// Wall seconds of the timed phase (ops run back to back).
    pub timed_wall_s: f64,
    /// Simulated cycles inside timed ops (distinct configurations only).
    pub sim_cycles: u64,
    /// Timed ops attempted.
    pub attempted: u64,
    /// Timed ops whose output did not match the reference (or that did
    /// not complete).
    pub failed: u64,
    /// The traced passes, when the plan asks for them.
    pub traced: Option<Traced>,
}

/// What the traced passes recorded.
#[derive(Debug, Default)]
pub struct Traced {
    /// Every span of the traced passes (set-up spans have no op).
    pub spans: Vec<trace::Span>,
    /// Layer counters.
    pub counts: BTreeMap<&'static str, u64>,
    /// Derived layer figures that are neither times nor counts.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Wall time of each traced op, in ms.
    pub op_ms: Vec<f64>,
    /// Traced ops whose output (or decomposed artifacts) did not match
    /// the reference.
    pub failed: u64,
    /// Traced ops whose spans do not account for their wall time (see
    /// [`trace::inconsistent_ops`]).
    pub inconsistent: u64,
}

/// Every per-layer metric, in `BENCHMARK.json` order: `(name, unit)`.
/// `.ms` metrics are self time per traced op, except
/// `uarch.predecode.ms`, which is per set-up.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("workloads.build.ms", "ms"),
    ("profile.profile.ms", "ms"),
    ("profile.profile.dyn_insts", "count"),
    ("profile.trace.ms", "ms"),
    ("profile.trace.ops", "count"),
    ("core.enumerate.ms", "ms"),
    ("core.enumerate.candidates", "count"),
    ("core.select.ms", "ms"),
    ("core.select.chosen", "count"),
    ("core.rewrite.ms", "ms"),
    ("core.rewrite.handles", "count"),
    ("uarch.predecode.ms", "ms"),
    ("uarch.simulate.ms", "ms"),
    ("uarch.simulate.cycles", "count"),
    ("uarch.simulate.ops", "count"),
    ("uarch.simulate.ns_per_cycle", "ns"),
    ("harness.run_fused.ms", "ms"),
    ("harness.run_fused.replicas", "count"),
    ("harness.run_fused.fusion_gain", "ratio"),
    ("harness.prep.ms", "ms"),
    ("harness.image.ms", "ms"),
    ("harness.base_trace.ms", "ms"),
    ("harness.unattributed.ms", "ms"),
    ("prep_cache.store.ms", "ms"),
    ("prep_cache.bytes", "bytes"),
    ("prep_cache.load.ms", "ms"),
    ("prep_cache.load.hits", "count"),
    ("prep_cache.load.misses", "count"),
    ("serve.admit.ms", "ms"),
    ("serve.queue_wait.ms", "ms"),
    ("serve.run.ms", "ms"),
    ("serve.deliver.ms", "ms"),
    ("serve.batched", "count"),
    ("serve.busy_rejections", "count"),
    ("serve.expired", "count"),
    ("serve.pool.prepared", "count"),
    ("serve.pool.reused", "count"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("peak_rss_mb", "MiB"),
    ("trace.ops", "count"),
    ("trace.inconsistent_ops", "count"),
    ("trace.overhead.ms", "ms"),
];

/// The end-to-end metrics of the untraced passes.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let (tail_ms, _, _) = stats::tail(&m.op_ms);
    vec![
        Metric { name: "setup_s", value: stats::median(&m.setup_s), unit: "s" },
        Metric { name: "p50_ms", value: stats::median(&m.op_ms), unit: "ms" },
        Metric { name: "tail_ms", value: tail_ms, unit: "ms" },
        Metric { name: "ops_per_s", value: m.op_ms.len() as f64 / m.timed_wall_s, unit: "1/s" },
        Metric { name: "peak_heap_mb", value: heap::peak_mb(), unit: "MiB" },
    ]
}

/// The per-layer metrics of a traced run ([`PER_LAYER`], in order);
/// layers the workload does not reach read 0.
pub fn per_layer(m: &Measured) -> Vec<Metric> {
    let t = m.traced.as_ref().expect("per-layer metrics need a traced run");
    let ops = t.op_ms.len().max(1) as f64;
    let self_ms = trace::self_ms_by_name(&t.spans);
    let total_ms = |span: &str| self_ms.get(span).copied().unwrap_or(0.0);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "uarch.predecode.ms" => total_ms("uarch.predecode"),
                "harness.unattributed.ms" => total_ms(trace::OP) / ops,
                "trace.overhead.ms" => stats::median(&t.op_ms) - stats::median(&m.op_ms),
                "sim_mcycles_per_s" if m.sim_cycles > 0 => {
                    m.sim_cycles as f64 / 1e6 / (m.op_ms.iter().sum::<f64>() / 1e3)
                }
                "peak_rss_mb" => stats::peak_rss_mb(),
                "trace.ops" => t.op_ms.len() as f64,
                "trace.inconsistent_ops" => t.inconsistent as f64,
                _ => match name.strip_suffix(".ms") {
                    Some(span) => total_ms(span) / ops,
                    None => t
                        .gauges
                        .get(name)
                        .copied()
                        .or_else(|| t.counts.get(name).map(|&c| c as f64))
                        .unwrap_or(0.0),
                },
            };
            Metric { name, value, unit }
        })
        .collect()
}

/// Runs `workload` under `plan`.
///
/// # Errors
///
/// Set-up failures (the run cannot produce a result at all); per-op
/// mismatches are counted in [`Measured::failed`] instead.
pub fn run(workload: Workload, plan: &Plan) -> Result<Measured, String> {
    match workload {
        Workload::SimSweep => sim_sweep::run(plan),
        Workload::PrepCold => prep_ops::run(plan, false),
        Workload::PrepWarm => prep_ops::run(plan, true),
        Workload::ServeMix => serve_mix::run(plan),
    }
}

/// A seeded op-order generator (splitmix64): the same seed gives the
/// same order on every machine.
pub struct Order(u64);

impl Order {
    /// A generator for `seed`, salted per stream so that independent
    /// streams of one run (passes, untraced and traced phases) differ.
    pub fn new(seed: u64, stream: u64) -> Order {
        Order(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// `0..n` in a seeded order (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        v
    }
}

/// A scratch directory removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates (emptied) `path`.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn create(path: PathBuf) -> std::io::Result<WorkDir> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds elapsed since `t`.
pub fn millis(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
