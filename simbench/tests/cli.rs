//! End-to-end behaviour of the `simbench` binary, at its real budgets;
//! `--seconds 0` keeps each invocation to its minimum number of passes.

use std::process::Command;

use specmpk_simbench::bench::Kind;
use specmpk_simbench::metrics::PER_LAYER;
use specmpk_trace::Json;

/// Runs the benchmark and parses the JSON object on its last line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("simbench runs");
    assert!(out.status.success(), "simbench failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).expect("last line is JSON")
}

fn metric(json: &Json, name: &str) -> f64 {
    json.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn tally(json: &Json) -> (bool, u64, u64) {
    (
        json.get("correct").and_then(Json::as_bool).expect("correct"),
        json.get("attempted").and_then(Json::as_u64).expect("attempted"),
        json.get("failed").and_then(Json::as_u64).expect("failed"),
    )
}

#[test]
fn clean_run_passes_every_check() {
    for kind in Kind::ALL {
        let (correct, attempted, failed) = tally(&run(kind.name(), false, &[]));
        assert!(correct && attempted > 0 && failed == 0, "{}", kind.name());
    }
}

#[test]
fn injected_mismatch_counts_as_failed_operations() {
    let json = run("wrpkru_dense", false, &["--inject-mismatch"]);
    let (correct, attempted, failed) = tally(&json);
    assert!(!correct);
    assert!(failed > 0 && failed <= attempted, "failed {failed} of {attempted}");
}

#[test]
fn simulated_figures_repeat_exactly_across_invocations() {
    let (a, b) = (run("wrpkru_dense", false, &[]), run("wrpkru_dense", false, &[]));
    for name in ["sim_cpi", "specmpk_speedup"] {
        assert_eq!(metric(&a, name), metric(&b, name), "{name}");
    }
    let (a, b) = (run("observed", true, &[]), run("observed", true, &[]));
    let deterministic = PER_LAYER
        .iter()
        .filter(|m| m.unit == "count" || m.unit == "bytes" || m.name == "ooo.useful_ratio");
    for m in deterministic {
        assert_eq!(metric(&a, m.name), metric(&b, m.name), "{}", m.name);
    }
    assert!(metric(&a, "trace.journal_records") > 0.0);
}

#[test]
fn layer_counts_separate_the_policy_engine_from_the_memory_system() {
    let dense = run("wrpkru_dense", true, &[]);
    let mem = run("mem_bound", true, &[]);
    assert!(metric(&dense, "core.rob_full_stall_cycles") > 0.0);
    assert_eq!(metric(&mem, "core.rob_full_stall_cycles"), 0.0);
    let l1d = |j: &Json| metric(j, "mem.l1d.misses") / metric(j, "ooo.retired");
    assert!(l1d(&mem) > 10.0 * l1d(&dense), "mem_bound must miss far more often");
    assert_eq!(metric(&dense, "trace.journal_records"), 0.0, "sinks are off");
}
