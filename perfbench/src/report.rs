//! Metric names, units and the result line.
//!
//! Every workload fills one [`Outcome`]. The untraced run prints the
//! end-to-end metrics; the traced run prints the per-layer metrics, with 0
//! for a layer the workload does not exercise.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every workload measures each of them (see
/// `perfbench/README.md` for the definition on each workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("similarity_min", "cosine"),
    ("peak_rss_mb", "MB"),
    ("update_ms_p50", "ms"),
    ("cpu_us_per_op", "us"),
];

/// The update methods of the paper comparison, as metric-name suffixes.
pub const METHODS: &[&str] = &["priu", "priu_opt", "basel", "closed_form"];

/// The `paper-linear` deletion rates and their metric-name suffixes.
pub const RATES: &[(f64, &str)] = &[
    (0.001, "0.1pct"),
    (0.01, "1pct"),
    (0.05, "5pct"),
    (0.2, "20pct"),
];

/// Span names whose self time the traced run reports.
pub const SPAN_NAMES: &[&str] = &[
    "fit",
    "set",
    "update",
    "predict",
    "kernel",
    "request",
    "encode",
    "write",
    "decode",
    "engine",
    "direct_predict",
];

/// Metrics the issue names per workload, printed by the untraced run as
/// `metric <name> <value> <unit>` lines: `(name, unit, workloads)`.
pub const SUMMARY: &[(&str, &str, &[&str])] = &[
    (
        "setup_s",
        "s",
        &["paper-linear", "serve-durable", "serve-window"],
    ),
    ("priu_updates_per_s", "1/s", &["paper-linear"]),
    ("priu_opt_updates_per_s", "1/s", &["paper-linear"]),
    ("basel_updates_per_s", "1/s", &["paper-linear"]),
    ("closed_form_updates_per_s", "1/s", &["paper-linear"]),
    (
        "similarity_min",
        "cosine",
        &["paper-linear", "serve-durable", "serve-window"],
    ),
    (
        "delete_ack_p50_ms",
        "ms",
        &["serve-durable", "serve-window"],
    ),
    (
        "delete_ack_p99_ms",
        "ms",
        &["serve-durable", "serve-window"],
    ),
    ("add_ack_p50_ms", "ms", &["serve-window"]),
    ("add_ack_p99_ms", "ms", &["serve-window"]),
    ("predict_p50_us", "us", &["serve-durable", "serve-window"]),
    ("predict_p99_us", "us", &["serve-durable", "serve-window"]),
    (
        "server_cpu_us_per_op",
        "us",
        &["serve-durable", "serve-window"],
    ),
    ("recovery_s", "s", &["serve-durable"]),
    (
        "failed_frac",
        "ratio",
        &["paper-linear", "serve-durable", "serve-window"],
    ),
    (
        "peak_rss_mb",
        "MB",
        &["paper-linear", "serve-durable", "serve-window"],
    ),
];

/// Per-layer metrics of the traced run, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    push("linalg.eigen_ms", "ms");
    push("linalg.cholesky_ms", "ms");
    push("linalg.gram_ms", "ms");
    push("linalg.gemv_us", "us");
    push("linalg.priu_replay_flops", "flop");
    push("core.fit_s", "s");
    push("core.provenance_mb", "MB");
    push("core.provenance_mb_end", "MB");
    for method in METHODS {
        for (_, rate) in RATES {
            push(&format!("core.update_p50_ms.{method}.{rate}"), "ms");
        }
    }
    for (_, rate) in RATES {
        push(&format!("core.rows_removed.{rate}"), "rows");
    }
    for method in ["priu", "priu_opt", "closed_form"] {
        push(&format!("core.similarity_min.{method}"), "cosine");
    }
    push("core.apply_us_p50", "us");
    push("core.apply_us_p99", "us");
    push("ack.residual_ms_p50", "ms");
    push("planner.rows_per_batch", "rows");
    push("planner.batches_per_s", "1/s");
    push("planner.pending_end", "count");
    for method in METHODS {
        push(&format!("scheduler.share.{method}"), "ratio");
    }
    push("scheduler.refits", "count");
    push("wal.fsyncs_per_s", "1/s");
    push("wal.frames_per_fsync", "ratio");
    push("wal.max_group", "count");
    push("wal.bytes_per_row", "B");
    push("wal.checkpoints", "count");
    push("snapshot.drain_s", "s");
    push("store.read_bytes_per_op", "B");
    push("store.write_bytes_per_op", "B");
    push("store.write_syscalls_per_op", "count");
    push("store.dir_bytes_end", "B");
    push("recovery.records_redone", "count");
    push("recovery.sessions", "count");
    push("protocol.encode_us_p50", "us");
    push("protocol.decode_us_p50", "us");
    push("protocol.request_bytes", "B");
    push("protocol.response_bytes", "B");
    push("registry.predict_direct_us_p50", "us");
    push("registry.predict_direct_us_p99", "us");
    push("gen.lag_p99_ms", "ms");
    push("gen.offered_per_s", "1/s");
    push("gen.achieved_per_s", "1/s");
    push("gen.client_cpu_s", "s");
    push("host.steal_frac", "ratio");
    push("delete_ack_p95_ms", "ms");
    push("predict_p95_us", "us");
    for (name, unit, _) in SUMMARY {
        if !END_TO_END.iter().any(|(e, _)| e == name) && *name != "server_cpu_us_per_op" {
            push(name, unit);
        }
    }
    for name in SPAN_NAMES {
        push(&format!("trace.self_s.{name}"), "s");
    }
    push("trace.spans", "count");
    for (name, unit) in END_TO_END {
        push(&format!("overhead.{name}"), unit);
    }
    out
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (updates, or requests sent).
    pub attempted: u64,
    /// Operations that failed, plus failed output checks.
    pub failed: u64,
    /// A line per failed check, for the log.
    pub problems: Vec<String>,
    /// Every measured value, by metric name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Records a failed check: it fails the run and counts in `failed`.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Checks `ok`; a false one fails the run.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.fail(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// A metric value as JSON: finite numbers as measured, anything else 0.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and the metrics with their units.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    out.push_str("}}");
    out
}

/// Percentile `p` (0–100) of an unsorted sample, nearest rank; 0 when empty.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of an unsorted sample (the mean of the two middle values for an
/// even count); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_valid() {
        let names = per_layer();
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in &names {
            assert!(seen.insert(name.clone()), "duplicate {name}");
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
        assert!(names.len() <= 128, "{} per-layer metrics", names.len());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(percentile(&mut [], 99.0), 0.0);
    }
}
