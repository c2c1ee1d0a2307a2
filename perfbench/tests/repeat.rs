//! The deterministic per-layer counts repeat exactly across runs and
//! across seeds (the op multiset does not depend on the seed, only its
//! order does), and `BENCHMARK.json` lists exactly the metrics the
//! benchmark prints. Run with `cargo test --release`: the simulator is slow
//! unoptimised.

use mg_perfbench::{end_to_end, per_layer, run, Measured, Plan, Workload, PER_LAYER};
use std::path::PathBuf;

/// The counts a later change may cite as exact: each is made by the
/// program. `harness.run_fused.replicas` is not among them, because the
/// benchmark derives it with its own copy of `run_fused`'s dedup rule.
const EXACT: [&str; 9] = [
    "uarch.simulate.cycles",
    "uarch.simulate.ops",
    "profile.profile.dyn_insts",
    "profile.trace.ops",
    "core.enumerate.candidates",
    "core.select.chosen",
    "core.rewrite.handles",
    "prep_cache.bytes",
    "prep_cache.load.hits",
];

fn traced_run(w: Workload, seed: u64, tag: &str) -> Measured {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{tag}", w.name()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let plan = Plan { seed, passes: 1, traced: true, work_dir: dir.clone() };
    let m = run(w, &plan).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    m
}

fn exact_counts(m: &Measured) -> Vec<(&'static str, f64)> {
    per_layer(m)
        .into_iter()
        .filter(|x| EXACT.contains(&x.name))
        .map(|x| (x.name, x.value))
        .collect()
}

#[test]
fn counts_repeat_exactly_across_runs_and_seeds() {
    for w in [Workload::SimSweep, Workload::PrepCold, Workload::PrepWarm] {
        let runs = [traced_run(w, 1, "a"), traced_run(w, 1, "b"), traced_run(w, 2, "c")];
        for m in &runs {
            let t = m.traced.as_ref().unwrap();
            assert_eq!(
                (m.failed, t.failed),
                (0, 0),
                "{}: every op matches its reference",
                w.name()
            );
            let inconsistent =
                per_layer(m).iter().find(|x| x.name == "trace.inconsistent_ops").unwrap().value;
            assert_eq!(inconsistent, 0.0, "{}: layer self times add up to op wall", w.name());
        }
        let first = exact_counts(&runs[0]);
        assert!(
            first.iter().any(|(_, v)| *v > 0.0),
            "{}: some exact count is exercised",
            w.name()
        );
        for m in &runs[1..] {
            assert_eq!(exact_counts(m), first, "{}: exact counts repeat", w.name());
        }
    }
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    let names: Vec<&str> =
        json.split("\"name\": \"").skip(1).map(|s| &s[..s.find('"').unwrap()]).collect();
    let mut want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    want.extend(end_to_end(&Measured::default()).iter().map(|m| m.name));
    want.extend(PER_LAYER.iter().map(|(n, _)| *n));
    assert_eq!(names, want);
}
