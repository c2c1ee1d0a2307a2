//! `mg run perf` argument failures surface as error reports with a
//! documented exit status, never as a panic.

use std::process::Command;

#[test]
fn missing_baseline_is_an_io_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("mg-perf-cli-{}", std::process::id()));
    let missing = dir.join("no-such-baseline.json");
    let out = dir.join("BENCH_out.json");
    let run = Command::new(env!("CARGO_BIN_EXE_mg"))
        .args(["run", "perf", "--quick", "--baseline"])
        .arg(&missing)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("mg runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(74), "io exit status; stderr:\n{stderr}");
    assert!(stdout.contains("error: cannot read baseline"), "stdout:\n{stdout}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert!(!out.exists(), "nothing is measured or written before the baseline is read");
}
