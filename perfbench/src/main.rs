//! `mg-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Run from the repository root (see `perfbench/README.md`).

use mg_perfbench::{end_to_end, per_layer, run, stats, trace, Plan, WorkDir, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// Environment the library would otherwise read: the benchmark pins
/// every one of these choices itself.
const IGNORED_ENV: [&str; 5] =
    ["MG_CACHE_DIR", "MG_NO_CACHE", "MG_QUICK", "MG_THREADS", "MG_NO_FUSE"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mg-perfbench: {e}");
            eprintln!(
                "usage: mg-perfbench --workload sim_sweep|prep_cold|prep_warm|serve_mix \
                 --seed N [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    for var in IGNORED_ENV {
        std::env::remove_var(var);
    }
    let name = args.workload.name();
    let work = match WorkDir::create(
        PathBuf::from(".perfbench-work").join(format!("{name}-{}", std::process::id())),
    ) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("mg-perfbench: cannot create the work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let plan = Plan {
        seed: args.seed,
        passes: (args.seconds / args.workload.nominal_pass_s()).round().max(1.0) as usize,
        traced: args.trace,
        work_dir: work.path().to_path_buf(),
    };
    let m = match run(args.workload, &plan) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("mg-perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    drop(work);

    let (_, pct, n) = stats::tail(&m.op_ms);
    println!(
        "{name}: seed {} passes {} ops {} failed {} | tail_ms is p{pct:.2} of {n} samples",
        args.seed, plan.passes, m.attempted, m.failed
    );
    let (metrics, attempted, failed) = if let Some(t) = &m.traced {
        let out = PathBuf::from(".perfbench-out");
        let path = out.join(format!("spans-{name}-seed{}.jsonl", args.seed));
        if let Err(e) = std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, trace::to_json_lines(&t.spans)))
        {
            eprintln!("mg-perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("{name}: {} spans written to {}", t.spans.len(), path.display());
        // A traced op fails on a wrong output or an inconsistent trace.
        let traced = t.op_ms.len() as u64;
        let traced_failed = (t.failed + t.inconsistent).min(traced);
        (per_layer(&m), m.attempted + traced, m.failed + traced_failed)
    } else {
        (end_to_end(&m), m.attempted, m.failed)
    };
    for metric in &metrics {
        println!("{name}: {:<32} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    println!("{}", stats::result_json(attempted, failed, &metrics));
    ExitCode::SUCCESS
}
