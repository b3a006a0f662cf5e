//! End-to-end tests of the `specmpk-report` binary: exit codes, byte-stable
//! markdown, and the --save-baseline / --check directory modes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_specmpk-report")
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn run(args: &[&str], cwd: &Path) -> Output {
    Command::new(bin()).args(args).current_dir(cwd).output().expect("binary runs")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specmpk-report-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn identical_artifacts_pass_with_exit_zero() {
    let out = run(
        &[fixture("base.json").to_str().unwrap(), fixture("pass.json").to_str().unwrap()],
        Path::new(env!("CARGO_MANIFEST_DIR")),
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.starts_with("## PASS"), "got: {stdout}");
    assert!(stdout.contains("All metrics within tolerance."));
}

#[test]
fn regressed_artifact_produces_golden_markdown_and_exit_one() {
    let out = run(
        &[fixture("base.json").to_str().unwrap(), fixture("regress.json").to_str().unwrap()],
        Path::new(env!("CARGO_MANIFEST_DIR")),
    );
    assert_eq!(out.status.code(), Some(1));
    let expected = std::fs::read_to_string(fixture("regress_report.md")).expect("golden file");
    assert_eq!(String::from_utf8(out.stdout).expect("utf8"), expected);
}

#[test]
fn widened_tolerance_turns_the_regression_into_a_pass() {
    // 60% p99 drift and ~11% cycle drift both sit inside a 0.7 band.
    let out = run(
        &[
            fixture("base.json").to_str().unwrap(),
            fixture("regress.json").to_str().unwrap(),
            "--tolerance",
            "0.7",
        ],
        Path::new(env!("CARGO_MANIFEST_DIR")),
    );
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn tolerance_file_scopes_bands_per_path() {
    let dir = tempdir("tolfile");
    let tol_path = dir.join("tolerances.json");
    // Wide bands for cycles/ipc, but the histogram p99 keeps the tight
    // default — so the run still fails, on exactly that metric.
    std::fs::write(
        &tol_path,
        r#"{"default": 1e-6, "paths": {"stats.cycles": 0.2, "stats.ipc": 0.2}}"#,
    )
    .expect("write tolerances");
    let out = run(
        &[
            fixture("base.json").to_str().unwrap(),
            fixture("regress.json").to_str().unwrap(),
            "--tolerance-file",
            tol_path.to_str().unwrap(),
        ],
        Path::new(env!("CARGO_MANIFEST_DIR")),
    );
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("wrpkru_latency.p99"), "got: {stdout}");
    assert!(!stdout.contains("| `stats.ipc` |"), "ipc should pass: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_baseline_then_check_round_trips() {
    let dir = tempdir("roundtrip");
    let artifacts = dir.join("out");
    let baselines = dir.join("baselines");
    std::fs::create_dir_all(&artifacts).expect("create artifacts dir");
    std::fs::copy(fixture("base.json"), artifacts.join("fig4.json")).expect("copy fixture");

    let save = run(
        &["--save-baseline", baselines.to_str().unwrap(), "--from", artifacts.to_str().unwrap()],
        &dir,
    );
    assert_eq!(save.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&save.stderr));
    assert!(baselines.join("fig4.json").is_file());

    // Unchanged artifacts: the gate passes and appends a pass entry.
    let check =
        run(&["--check", baselines.to_str().unwrap(), "--from", artifacts.to_str().unwrap()], &dir);
    assert_eq!(check.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&check.stderr));
    let stdout = String::from_utf8(check.stdout).expect("utf8");
    assert!(stdout.contains("PASS fig4.json"), "got: {stdout}");

    // Perturb the artifact (the IPC-off-10% acceptance case): gate fails.
    std::fs::copy(fixture("regress.json"), artifacts.join("fig4.json")).expect("copy fixture");
    let check =
        run(&["--check", baselines.to_str().unwrap(), "--from", artifacts.to_str().unwrap()], &dir);
    assert_eq!(check.status.code(), Some(1));
    let stdout = String::from_utf8(check.stdout).expect("utf8");
    assert!(stdout.contains("FAIL fig4.json"), "got: {stdout}");
    assert!(stdout.contains("| `stats.ipc` |"), "diff table shown: {stdout}");

    // The trajectory recorded both runs, in order.
    let bench = std::fs::read_to_string(dir.join("BENCH_report.json")).expect("trajectory");
    let entries = specmpk_trace::Json::parse(&bench).expect("valid JSON");
    let entries = entries.as_arr().expect("array").to_vec();
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].get("status").unwrap().as_str(), Some("pass"));
    assert_eq!(entries[1].get("status").unwrap().as_str(), Some("fail"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_skips_baseline_only_artifacts() {
    let dir = tempdir("skip");
    let artifacts = dir.join("out");
    let baselines = dir.join("baselines");
    std::fs::create_dir_all(&artifacts).expect("create artifacts dir");
    std::fs::create_dir_all(&baselines).expect("create baselines dir");
    std::fs::copy(fixture("base.json"), baselines.join("fig4.json")).expect("copy fixture");
    std::fs::copy(fixture("base.json"), baselines.join("calibrate.json")).expect("copy fixture");
    std::fs::copy(fixture("base.json"), artifacts.join("fig4.json")).expect("copy fixture");

    let check = run(
        &[
            "--check",
            baselines.to_str().unwrap(),
            "--from",
            artifacts.to_str().unwrap(),
            "--bench-file",
            "-",
        ],
        &dir,
    );
    assert_eq!(check.status.code(), Some(0));
    let stdout = String::from_utf8(check.stdout).expect("utf8");
    assert!(stdout.contains("SKIP calibrate.json"), "got: {stdout}");
    assert!(stdout.contains("PASS fig4.json"), "got: {stdout}");
    assert!(!dir.join("BENCH_report.json").exists(), "--bench-file - disables the trajectory");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_usage_exits_two() {
    let out = run(&["only-one-arg.json"], Path::new(env!("CARGO_MANIFEST_DIR")));
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--check"], Path::new(env!("CARGO_MANIFEST_DIR")));
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn deeply_nested_artifact_exits_two_with_the_json_error() {
    let dir = tempdir("deep");
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(100_000)).expect("write deep.json");
    let out = run(
        &[deep.to_str().unwrap(), fixture("base.json").to_str().unwrap()],
        Path::new(env!("CARGO_MANIFEST_DIR")),
    );
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nesting deeper than 256 levels"), "got: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
