//! The in-memory span recorder of the traced run.
//!
//! The traced run calls each layer's public functions itself, in the
//! order the server does, and records one span per call: name, start,
//! end, op id and parent. Spans stay in memory until the run ends and
//! are then written out as TSV.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call, e.g. `session.execute`.
    pub name: &'static str,
    /// The op this call served.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the trace began.
    pub start_ns: u64,
    /// End, in ns since the trace began.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace starting now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that [`close`](Self::close) ends; returns its index.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Ends span `id`; returns its duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Times `f` as one span of `op` under `parent`; returns its value
    /// and the span's duration in ns.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, op, Some(parent));
        let value = f();
        let ns = self.close(id);
        (value, ns)
    }

    /// The recorded spans, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median duration of the spans named `name`, in ns; 0 when the run
    /// never made that call.
    #[must_use]
    pub fn median_ns(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect();
        stats::median(&durations)
    }

    /// Total ns of the spans named `name`.
    #[must_use]
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum()
    }

    /// Writes every span as a TSV row: op, index, parent, name, start
    /// and end in ns.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer metrics by name: what a traced run fills in.
pub type Ledger = BTreeMap<&'static str, f64>;

/// The span → metric mapping for span medians: span name, metric name,
/// and ns per unit of the metric.
const SPAN_METRICS: [(&str, &str, f64); 15] = [
    ("protocol.parse", "protocol.parse_us", 1e3),
    ("protocol.render_top", "protocol.render_top_us", 1e3),
    ("protocol.render_query", "protocol.render_query_ms", 1e6),
    ("plan.decode", "plan.decode_us", 1e3),
    ("session.probe", "session.probe_us", 1e3),
    ("session.execute", "session.execute_ms", 1e6),
    ("scheduler.admit_wait", "scheduler.admit_wait_ms", 1e6),
    ("repair.refresh", "repair.refresh_ms", 1e6),
    ("components.delta_parse", "components.delta_parse_us", 1e3),
    ("components.apply", "components.apply_ms", 1e6),
    ("store.publish", "store.publish_ms", 1e6),
    ("store.snapshot", "store.snapshot_ms", 1e6),
    ("store.spill", "store.spill_ms", 1e6),
    ("store.open", "store.open_ms", 1e6),
    ("sim.evaluate", "sim.evaluate_ms", 1e6),
];

/// Fills `ledger` with the median of every span kind the trace holds.
pub fn span_medians(trace: &Trace, ledger: &mut Ledger) {
    for (span, metric, ns_per_unit) in SPAN_METRICS {
        ledger.insert(metric, trace.median_ns(span) / ns_per_unit);
    }
}
