//! End-to-end and per-layer benchmark of the SpecMPK simulator.
//!
//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload, checks every output against the in-order
//! interpreter (and the other checks listed in `README.md`), and prints a
//! provenance header, one line per metric, and finally one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones from a run that records spans around each layer call.

pub mod bench;
pub mod host;
pub mod metrics;
pub mod record;
pub mod summary;

use metrics::{Metric, END_TO_END, PER_LAYER};
use record::Recorder;
use summary::{summarize, Summary};

/// Per-layer timings taken from the benchmark's spans: metric, span.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("workloads.codegen_s", "workloads.codegen"),
    ("ooo.core_new_s", "ooo.core_new"),
    ("ooo.run_s", "ooo.run"),
    ("arch.ff_step_s", "arch.ff_step"),
    ("checkpoint.capture_s", "checkpoint.capture"),
    ("checkpoint.to_json_s", "checkpoint.to_json"),
    ("checkpoint.save_s", "checkpoint.save"),
    ("checkpoint.read_s", "checkpoint.read"),
    ("checkpoint.from_json_s", "checkpoint.from_json"),
    ("ooo.boot_s", "ooo.boot"),
    ("checkpoint.restore_s", "restore"),
    ("experiments.sampled_run_s", "experiments.sampled_run"),
];

/// One reported metric: a summarized timing or a single value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reading {
    /// Median, tail percentile and count of repeated measurements.
    Timed(Summary),
    /// A count, ratio or simulated figure, measured once.
    Single(f64),
}

impl Reading {
    /// The number reported in the JSON line.
    #[must_use]
    pub fn value(self) -> f64 {
        match self {
            Reading::Timed(s) => s.median,
            Reading::Single(v) => v,
        }
    }
}

/// The metrics a run reports, in catalogue order: the end-to-end table
/// for an untraced run, the per-layer table for a traced one. A layer the
/// workload does not exercise reads 0. An end-to-end metric the run did
/// not measure (its operation failed) is left out and counted as a failed
/// check, so the result line still says what went wrong.
pub fn readings(rec: &mut Recorder, trace: bool) -> Vec<(&'static Metric, Reading)> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut out = Vec::with_capacity(table.len());
    for metric in table {
        match (reading(rec, metric.name), trace) {
            (Some(r), _) => out.push((metric, r)),
            (None, true) => out.push((metric, Reading::Single(0.0))),
            (None, false) => {
                rec.check(false, || format!("end-to-end metric {} not measured", metric.name));
            }
        }
    }
    out
}

fn reading(rec: &Recorder, name: &str) -> Option<Reading> {
    let samples = rec.samples(name);
    if !samples.is_empty() {
        return Some(Reading::Timed(summarize(samples)));
    }
    if let Some(&(_, span)) = SPAN_METRICS.iter().find(|(m, _)| *m == name) {
        let secs = rec.span_secs(span);
        return (!secs.is_empty()).then(|| Reading::Timed(summarize(&secs)));
    }
    if name == "bench.tracing_overhead" {
        let traced = rec.samples("detailed_kips");
        let untraced = rec.samples("detailed_kips.untraced");
        if traced.is_empty() || untraced.is_empty() {
            return None;
        }
        return Some(Reading::Single(summary::median(untraced) / summary::median(traced)));
    }
    rec.value(name).map(Reading::Single)
}

/// The final JSON line.
#[must_use]
pub fn result_line(rec: &Recorder, readings: &[(&'static Metric, Reading)]) -> String {
    let metrics: Vec<String> = readings
        .iter()
        .map(|(m, r)| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, r.value(), m.unit)
        })
        .collect();
    let failed = rec.failures().len();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        rec.attempted(),
        metrics.join(", ")
    )
}

/// The human-readable table: median, tail percentile and sample count for
/// timings; the value for single readings.
#[must_use]
pub fn table(readings: &[(&'static Metric, Reading)]) -> String {
    let mut out = format!("{:<34} {:>14} {:>20} {:>5}  unit\n", "metric", "median", "tail", "n");
    for (m, r) in readings {
        let line = match r {
            Reading::Timed(s) => {
                let tail = s.tail.map_or("-".to_string(), |(p, v)| format!("p{p}={v:.6}"));
                format!("{:<34} {:>14.6} {:>20} {:>5}  {}\n", m.name, s.median, tail, s.n, m.unit)
            }
            Reading::Single(v) => {
                format!("{:<34} {:>14.6} {:>20} {:>5}  {}\n", m.name, v, "-", 1, m.unit)
            }
        };
        out.push_str(&line);
    }
    out
}
