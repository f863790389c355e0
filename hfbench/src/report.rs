//! Metric names, units and the result line.
//!
//! The two lists below are the benchmark's vocabulary; `BENCHMARK.json`
//! names the same metrics and a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`; lower is better for all.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("time_to_target_s", "s"),
    ("cpu_s", "s"),
    ("iters_to_target", "iters"),
    ("heldout_loss", "of_target"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 44] = [
    ("speech.corpus_generate_s", "s", "lower"),
    ("speech.shard_s", "s", "lower"),
    ("tensor.gemm_gflops.batch", "GFLOP/s", "higher"),
    ("tensor.gemm_gflops.sample", "GFLOP/s", "higher"),
    ("tensor.pack_s", "s", "lower"),
    ("dnn.forward_gflops", "GFLOP/s", "higher"),
    ("dnn.backprop_gflops", "GFLOP/s", "higher"),
    ("dnn.gn_product_gflops", "GFLOP/s", "higher"),
    ("dnn.mmi_ns_per_frame", "ns/frame", "lower"),
    ("core.gradient_s", "s", "lower"),
    ("core.gn_product_s", "s", "lower"),
    ("core.heldout_eval_s", "s", "lower"),
    ("core.sample_curvature_s", "s", "lower"),
    ("core.gn_products", "count", "lower"),
    ("core.heldout_evals", "count", "lower"),
    ("core.gn_product_ms.p50", "ms", "lower"),
    ("core.gn_product_ms.p90", "ms", "lower"),
    ("core.optimizer_self_s", "s", "lower"),
    ("core.cg_iters", "count", "lower"),
    ("core.cg_useful_ratio", "ratio", "higher"),
    ("core.accept_ratio", "ratio", "higher"),
    ("core.heldout_evals_per_iter", "count", "lower"),
    ("core.coverage", "ratio", "higher"),
    ("dist.compute_s.rank0", "s", "lower"),
    ("dist.compute_s.max", "s", "lower"),
    ("dist.collective_s.rank0", "s", "lower"),
    ("dist.collective_s.max", "s", "lower"),
    ("dist.p2p_s.rank0", "s", "lower"),
    ("dist.p2p_s.max", "s", "lower"),
    ("dist.imbalance", "ratio", "lower"),
    ("dist.rank0_wait_share", "ratio", "lower"),
    ("mpisim.collectives", "count", "lower"),
    ("mpisim.wire_bytes", "bytes", "lower"),
    ("mpisim.rank0_bytes", "bytes", "lower"),
    ("mpisim.allreduce_ring_us.p50", "us", "lower"),
    ("mpisim.allreduce_ring_us.p90", "us", "lower"),
    ("mpisim.reduce_us.p50", "us", "lower"),
    ("mpisim.reduce_us.p90", "us", "lower"),
    ("mpisim.bcast_us.p50", "us", "lower"),
    ("mpisim.bcast_us.p90", "us", "lower"),
    ("obs.spans_per_run", "count", "lower"),
    ("obs.span_ns", "ns", "lower"),
    ("trace.time_to_target_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
];

/// A metric name: starts with a letter or digit; at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result of one benchmark invocation.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every output check passed and every value is finite.
    pub correct: bool,
    /// Training runs attempted.
    pub attempted: usize,
    /// Training runs that errored, missed the target or failed a check.
    pub failed: usize,
    /// Metrics in list order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Collect `values` in the order of `names`. A non-finite value is
    /// reported as 0 and makes the report incorrect.
    ///
    /// # Panics
    /// If a listed name has no value: the benchmark forgot a metric.
    pub fn new(
        names: &[(&'static str, &'static str)],
        values: &BTreeMap<&'static str, f64>,
        attempted: usize,
        failed: usize,
    ) -> Report {
        let mut finite = true;
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                let value = *values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not computed"));
                finite &= value.is_finite();
                Metric {
                    name,
                    unit,
                    value: if value.is_finite() { value } else { 0.0 },
                }
            })
            .collect();
        Report {
            correct: failed == 0 && attempted > 0 && finite,
            attempted,
            failed,
            metrics,
        }
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Aligned `name value unit` lines for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "  correct {} ({} of {} runs failed)",
            self.correct, self.failed, self.attempted
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let values = BTreeMap::from([("a", 1.5), ("b", f64::NAN)]);
        let r = Report::new(&[("a", "s"), ("b", "count")], &values, 3, 0);
        assert!(!r.correct, "a NaN value makes the report incorrect");
        assert_eq!(
            r.to_json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
