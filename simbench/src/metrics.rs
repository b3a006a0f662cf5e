//! The benchmark's metric catalogue: every name it may print, with its
//! unit and the direction in which it improves.
//!
//! End-to-end metrics are what a user of the simulator waits for or pays
//! (`--trace 0`); per-layer metrics come from the separate traced run
//! (`--trace 1`) and say where the end-to-end time went.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, misses, stalls).
    Lower,
    /// Larger is better (rates, useful work).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Dotted metric name, unique across both tables.
    pub name: &'static str,
    /// Unit printed next to every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("detailed_kips", "kinstr/s", Higher),
    m("ff_kips", "kinstr/s", Higher),
    m("pass_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("sim_cpi", "cycles/instr", Lower),
    m("specmpk_speedup", "ratio", Higher),
];

/// Per-layer metrics, reported by traced runs.
pub const PER_LAYER: &[Metric] = &[
    // specmpk-workloads
    m("workloads.codegen_s", "s", Lower),
    // specmpk-ooo pipeline
    m("ooo.core_new_s", "s", Lower),
    m("ooo.run_s", "s", Lower),
    m("ooo.cycles", "count", Lower),
    m("ooo.retired", "count", Higher),
    m("ooo.squashed", "count", Lower),
    m("ooo.useful_ratio", "ratio", Higher),
    m("ooo.idle_cycles_skipped", "count", Higher),
    m("ooo.fused_rename_issue_instrs", "count", Higher),
    m("stage.fetch.ns_per_cycle", "ns/cycle", Lower),
    m("stage.rename.ns_per_cycle", "ns/cycle", Lower),
    m("stage.issue.ns_per_cycle", "ns/cycle", Lower),
    m("stage.writeback.ns_per_cycle", "ns/cycle", Lower),
    m("stage.retire.ns_per_cycle", "ns/cycle", Lower),
    m("stage.squash.ns_per_cycle", "ns/cycle", Lower),
    m("step.housekeeping.ns_per_cycle", "ns/cycle", Lower),
    m("step.idle_skip.ns_per_cycle", "ns/cycle", Lower),
    // specmpk-core policy engine
    m("core.wrpkru_renamed", "count", Higher),
    m("core.wrpkru_squashed", "count", Lower),
    m("core.rob_full_stall_cycles", "count", Lower),
    m("core.load_check_failures", "count", Lower),
    m("core.store_check_failures", "count", Lower),
    m("stall.wrpkru_serialize", "count", Lower),
    m("stall.rob_pkru_full", "count", Lower),
    // specmpk-mem and the branch predictor
    m("mem.l1i.misses", "count", Lower),
    m("mem.l1d.misses", "count", Lower),
    m("mem.l2.misses", "count", Lower),
    m("mem.l3.misses", "count", Lower),
    m("mem.dtlb.misses", "count", Lower),
    m("ooo.tlb_miss_stalls", "count", Lower),
    m("ooo.mpki", "miss/kinstr", Lower),
    // arch (functional fast-forward)
    m("arch.ff_step_s", "s", Lower),
    m("arch.ff_instr", "count", Higher),
    // checkpoint and the JSON read path
    m("checkpoint.bytes", "bytes", Lower),
    m("checkpoint.capture_s", "s", Lower),
    m("checkpoint.to_json_s", "s", Lower),
    m("json.dump_mb_s", "MB/s", Higher),
    m("checkpoint.save_s", "s", Lower),
    m("checkpoint.read_s", "s", Lower),
    m("json.parse_mb_s", "MB/s", Higher),
    m("checkpoint.from_json_s", "s", Lower),
    m("ooo.boot_s", "s", Lower),
    m("checkpoint.restore_s", "s", Lower),
    m("restore.parse_share", "ratio", Lower),
    // specmpk-trace sinks and the JSON write path
    m("trace.sink_overhead", "ratio", Lower),
    m("trace.journal_records", "count", Lower),
    m("trace.ledger_entries", "count", Lower),
    m("trace.jsonl_bytes", "bytes", Lower),
    m("json.encode_mb_s", "MB/s", Higher),
    // experiments
    m("experiments.sampled_run_s", "s", Lower),
    // host and the benchmark itself
    m("host.ref_ms", "ms", Lower),
    m("host.scan_ref_ms", "ms", Lower),
    m("host.detailed_kips_raw", "kinstr/s", Higher),
    m("host.ff_kips_raw", "kinstr/s", Higher),
    m("host.pass_s_raw", "s", Lower),
    m("bench.tracing_overhead", "ratio", Lower),
];

/// Looks a metric up in either table.
#[must_use]
pub fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and is at most 64 letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}
