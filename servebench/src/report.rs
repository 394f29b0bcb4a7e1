//! The benchmark's metrics, as `BENCHMARK.json` lists them, and the
//! result line the benchmark prints last.

use std::fmt::Write;

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, from the untraced run; the same names on every
/// workload. Times are process CPU time (client and server threads
/// together), which the host's stolen time and run-queue waits do not
/// inflate; the wall-clock figures are printed beside them. Memory is
/// the heap's live-byte peak, which allocator caching does not inflate;
/// `VmHWM` is printed beside it.
pub const END_TO_END: [Metric; 5] = [
    metric("setup_s", "s", "lower"),
    metric("cpu_p50_ms", "ms", "lower"),
    metric("cpu_tail_ms", "ms", "lower"),
    metric("ops_per_cpu_s", "1/s", "higher"),
    metric("peak_heap_mib", "MiB", "lower"),
];

/// Per-layer metrics, from the traced run. A layer a workload bypasses
/// reads 0 there.
pub const PER_LAYER: [Metric; 28] = [
    metric("protocol.parse_us", "us", "lower"),
    metric("protocol.render_top_us", "us", "lower"),
    metric("protocol.render_query_ms", "ms", "lower"),
    metric("protocol.body_kib", "KiB", "lower"),
    metric("plan.decode_us", "us", "lower"),
    metric("session.probe_us", "us", "lower"),
    metric("session.hit_rate", "ratio", "higher"),
    metric("session.execute_ms", "ms", "lower"),
    metric("session.ns_per_candidate", "ns", "lower"),
    metric("scheduler.admit_wait_ms", "ms", "lower"),
    metric("scheduler.plans_per_pass", "count", "higher"),
    metric("repair.refresh_ms", "ms", "lower"),
    metric("repair.incremental_share", "ratio", "higher"),
    metric("repair.background_per_delta", "count", "higher"),
    metric("components.delta_parse_us", "us", "lower"),
    metric("components.apply_ms", "ms", "lower"),
    metric("store.publish_ms", "ms", "lower"),
    metric("store.snapshot_ms", "ms", "lower"),
    metric("store.spill_ms", "ms", "lower"),
    metric("store.open_ms", "ms", "lower"),
    metric("store.bytes_per_delta", "B", "lower"),
    metric("sim.evaluate_ms", "ms", "lower"),
    metric("sim.survivors_per_op", "count", "lower"),
    metric("sim.trials_per_op", "count", "lower"),
    metric("sim.us_per_trial", "us", "lower"),
    metric("server.unattributed_ms", "ms", "lower"),
    metric("process.cpu_ms_per_op", "ms", "lower"),
    metric("host.calib_ms", "ms", "lower"),
];

/// The result line: `correct`, `attempted`, `failed` and each metric's
/// value with its unit, as one JSON object.
///
/// # Errors
///
/// When a value is not finite (JSON has no spelling for it).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(Metric, f64)],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (m, value)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("{} is not finite: {value}", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}
