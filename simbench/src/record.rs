//! What one benchmark run collects: timing samples, deterministic values,
//! the correctness tally and — in a traced run — spans.
//!
//! Spans are recorded here, in the benchmark's own code, around its calls
//! into each layer's public functions; the simulator itself is not
//! instrumented. They are held in memory and written out when the run
//! ends ([`Recorder::spans_jsonl`]).

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span: a named call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (the layer function it wraps, e.g. `json.parse`).
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collector for one run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tracing: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failures: Vec<String>,
}

impl Recorder {
    /// An empty recorder; spans are kept only when `tracing` is on.
    #[must_use]
    pub fn new(tracing: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            tracing,
            spans: Vec::new(),
            open: Vec::new(),
            samples: BTreeMap::new(),
            values: BTreeMap::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Whether this run records spans.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Switches span recording on or off (the traced run interleaves
    /// untraced rounds to measure the tracing overhead).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` (nothing when not tracing); spans opened
    /// before it is closed get it as their parent.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.tracing {
            return None;
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes a span returned by [`Recorder::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name` (a plain call when not
    /// tracing).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let span = self.open(name);
        let out = f(self);
        self.close(span);
        out
    }

    /// Closed spans named `name`, in start order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Every recorded span.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median-ready samples: the wall seconds of every span named `name`.
    #[must_use]
    pub fn span_secs(&self, name: &str) -> Vec<f64> {
        self.spans_named(name).map(Span::secs).collect()
    }

    /// Adds one sample of a timed metric.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Samples of `name` so far.
    #[must_use]
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Sets a single-valued metric (a count, a ratio, a simulated figure).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// A single-valued metric, if set.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one checked operation; a failed check is kept with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Checked operations so far.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Descriptions of the failed checks.
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The spans as JSON lines: name, start and end in ns since the run
    /// began, and the parent span's index (`-1` for a root).
    #[must_use]
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_are_written_one_per_line() {
        let mut r = Recorder::new(true);
        r.span("outer", |r| {
            r.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans[1].secs() <= spans[0].secs());
        assert_eq!(r.spans_jsonl().lines().count(), 2);
    }

    #[test]
    fn untraced_recorder_keeps_no_spans() {
        let mut r = Recorder::new(false);
        assert_eq!(r.span("x", |_| 7), 7);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn failed_checks_are_counted() {
        let mut r = Recorder::new(false);
        r.check(true, || "fine".into());
        r.check(false, || "broken".into());
        assert_eq!(r.attempted(), 2);
        assert_eq!(r.failures(), ["broken".to_string()]);
    }
}
