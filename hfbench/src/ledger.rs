//! Per-layer figures of one traced training run, read from the spans
//! and communication counters the run returned.
//!
//! The HF problem's operations are found by span name: on a serial run
//! they are the timing adaptor's spans, on a distributed run the spans
//! rank 0 records around each protocol phase. Optimizer self time is
//! the part of the `hf_iteration` spans those operations do not cover,
//! so problem time + optimizer self time closes on the run's wall time
//! exactly when the iteration spans cover the whole train call; that
//! share is `core.coverage`.

use crate::adaptor;
use crate::trace;
use crate::workload::Topology;
use pdnn_core::IterStats;
use pdnn_obs::{SpanKind, SpanRecord, Telemetry};

/// Rank-0 span names of each HF problem operation. Where an operation
/// is several spans (local compute, then its reduction), the first is
/// the one counted as a call.
struct OperationSpans {
    gradient: &'static [&'static str],
    gn_product: &'static [&'static str],
    heldout_eval: &'static [&'static str],
    sample_curvature: &'static [&'static str],
    other: &'static [&'static str],
}

fn operation_spans(topology: Topology) -> OperationSpans {
    match topology {
        Topology::Serial => OperationSpans {
            gradient: &[adaptor::GRADIENT],
            gn_product: &[adaptor::GN_PRODUCT],
            heldout_eval: &[adaptor::HELDOUT_EVAL],
            sample_curvature: &[adaptor::SAMPLE_CURVATURE],
            other: &[adaptor::THETA, adaptor::SET_THETA, adaptor::FISHER_DIAGONAL],
        },
        Topology::Ring { .. } => OperationSpans {
            gradient: &["gradient_allreduce", "gradient_loss"],
            gn_product: &["curvature_allreduce", "worker_curvature_product"],
            heldout_eval: &["heldout_allreduce", "eval_heldout"],
            sample_curvature: &["worker_curvature_sample"],
            other: &["sync_weights_replicated"],
        },
        Topology::Master { .. } => OperationSpans {
            gradient: &["gradient_reduce"],
            gn_product: &["curvature_reduce"],
            heldout_eval: &["heldout_reduce"],
            sample_curvature: &["sample_curvature"],
            other: &["sync_weights_master"],
        },
    }
}

/// Layer figures of one traced run.
#[derive(Clone, Debug)]
pub struct RunLedger {
    /// Wall seconds of the train call.
    pub wall_s: f64,
    /// Busy seconds per HF problem operation.
    pub gradient_s: f64,
    /// See [`RunLedger::gradient_s`].
    pub gn_product_s: f64,
    /// See [`RunLedger::gradient_s`].
    pub heldout_eval_s: f64,
    /// See [`RunLedger::gradient_s`].
    pub sample_curvature_s: f64,
    /// Gauss–Newton product calls.
    pub gn_products: usize,
    /// Held-out evaluation calls.
    pub heldout_evals: usize,
    /// Duration of each Gauss–Newton product call, ms.
    pub gn_product_ms: Vec<f64>,
    /// `hf_iteration` time not covered by problem operations.
    pub optimizer_self_s: f64,
    /// Sum of `hf_iteration` span durations.
    pub iteration_s: f64,
    /// HF iterations, accepted ones, CG iterations, and the sum of the
    /// chosen CG iterate indices.
    pub iters: usize,
    /// See [`RunLedger::iters`].
    pub accepted: usize,
    /// See [`RunLedger::iters`].
    pub cg_iters: usize,
    /// See [`RunLedger::iters`].
    pub cg_chosen: usize,
    /// Per rank: seconds of span self time outside communication.
    pub compute_s: Vec<f64>,
    /// Per rank: seconds in collectives, waiting included.
    pub collective_s: Vec<f64>,
    /// Per rank: seconds in point-to-point operations.
    pub p2p_s: Vec<f64>,
    /// Collectives completed by rank 0.
    pub collectives: u64,
    /// Bytes sent by all ranks.
    pub wire_bytes: u64,
    /// Bytes sent by rank 0.
    pub rank0_bytes: u64,
    /// Spans the program recorded, all ranks (adaptor spans excluded).
    pub program_spans: usize,
}

fn durations<'a>(spans: &'a [SpanRecord], name: &'a str) -> impl Iterator<Item = f64> + 'a {
    spans
        .iter()
        .filter(move |s| s.name() == name)
        .map(SpanRecord::seconds)
}

fn busy(spans: &[SpanRecord], names: &[&str]) -> f64 {
    names.iter().map(|n| durations(spans, n).sum::<f64>()).sum()
}

fn calls(spans: &[SpanRecord], names: &[&str]) -> usize {
    names
        .first()
        .map_or(0, |n| spans.iter().filter(|s| s.name() == *n).count())
}

/// Per-call durations of a multi-span operation: the k-th span of each
/// name belongs to the k-th call.
fn per_call_seconds(spans: &[SpanRecord], names: &[&str]) -> Vec<f64> {
    let series: Vec<Vec<f64>> = names
        .iter()
        .map(|n| durations(spans, n).collect())
        .collect();
    let n = series.first().map_or(0, Vec::len);
    if series.iter().any(|s| s.len() != n) {
        return series.into_iter().next().unwrap_or_default();
    }
    (0..n).map(|k| series.iter().map(|s| s[k]).sum()).collect()
}

fn is_comm(kind: SpanKind) -> bool {
    matches!(
        kind,
        SpanKind::CommCollective | SpanKind::CommP2p | SpanKind::Wait
    )
}

/// Build the ledger of one traced run from its per-rank telemetry
/// (rank 0 first), its iteration statistics and its wall time.
pub fn ledger(
    topology: Topology,
    telemetry: &[Telemetry],
    stats: &[IterStats],
    wall_s: f64,
) -> RunLedger {
    let names = operation_spans(topology);
    let empty = Telemetry::default();
    let rank0 = telemetry.first().unwrap_or(&empty);
    let spans = &rank0.spans;
    let gradient_s = busy(spans, names.gradient);
    let gn_product_s = busy(spans, names.gn_product);
    let heldout_eval_s = busy(spans, names.heldout_eval);
    let sample_curvature_s = busy(spans, names.sample_curvature);
    let problem_s =
        gradient_s + gn_product_s + heldout_eval_s + sample_curvature_s + busy(spans, names.other);
    let iteration_s: f64 = durations(spans, "hf_iteration").sum();

    let mut compute_s = Vec::with_capacity(telemetry.len());
    for tel in telemetry {
        let parents = trace::parents(&tel.spans);
        let own = trace::self_seconds(&tel.spans, &parents);
        compute_s.push(
            tel.spans
                .iter()
                .zip(own)
                .filter(|(s, _)| !is_comm(s.kind) && !s.name().starts_with("bench."))
                .map(|(_, t)| t)
                .sum(),
        );
    }
    RunLedger {
        wall_s,
        gradient_s,
        gn_product_s,
        heldout_eval_s,
        sample_curvature_s,
        gn_products: calls(spans, names.gn_product),
        heldout_evals: calls(spans, names.heldout_eval),
        gn_product_ms: per_call_seconds(spans, names.gn_product)
            .into_iter()
            .map(|s| s * 1e3)
            .collect(),
        optimizer_self_s: iteration_s - problem_s,
        iteration_s,
        iters: stats.len(),
        accepted: stats.iter().filter(|s| s.accepted).count(),
        cg_iters: stats.iter().map(|s| s.cg_iters).sum(),
        cg_chosen: stats.iter().map(|s| s.chosen_iter).sum(),
        compute_s,
        collective_s: telemetry
            .iter()
            .map(|t| t.comm.collective.seconds)
            .collect(),
        p2p_s: telemetry.iter().map(|t| t.comm.p2p.seconds).collect(),
        collectives: rank0.comm.collectives_completed,
        wire_bytes: telemetry
            .iter()
            .map(|t| t.comm.p2p.bytes_sent + t.comm.collective.bytes_sent)
            .sum(),
        rank0_bytes: rank0.comm.p2p.bytes_sent + rank0.comm.collective.bytes_sent,
        program_spans: telemetry
            .iter()
            .flat_map(|t| &t.spans)
            .filter(|s| !s.name().starts_with("problem.") && !s.name().starts_with("bench."))
            .count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, kind: SpanKind, start: f64, end: f64) -> SpanRecord {
        SpanRecord::new(name, kind, start, end)
    }

    #[test]
    fn serial_ledger_splits_iteration_time() {
        let tel = Telemetry {
            spans: vec![
                span(adaptor::GRADIENT, SpanKind::DenseCompute, 0.0, 0.4),
                span(adaptor::GN_PRODUCT, SpanKind::DenseCompute, 0.5, 0.6),
                span(adaptor::GN_PRODUCT, SpanKind::DenseCompute, 0.6, 0.8),
                span(adaptor::HELDOUT_EVAL, SpanKind::DenseCompute, 0.8, 0.9),
                span("hf_iteration", SpanKind::Scalar, 0.0, 1.0),
                span("bench.train", SpanKind::Scalar, 0.0, 1.05),
            ],
            ..Telemetry::default()
        };
        let l = ledger(Topology::Serial, &[tel], &[], 1.1);
        assert_eq!(l.gn_products, 2);
        assert_eq!(l.heldout_evals, 1);
        assert!((l.optimizer_self_s - 0.2).abs() < 1e-9);
        assert!((l.iteration_s - 1.0).abs() < 1e-12);
        assert_eq!(l.gn_product_ms.len(), 2);
        // The adaptor spans and the iteration's own time are compute;
        // the benchmark's root span is not.
        assert!((l.compute_s[0] - 1.0).abs() < 1e-9);
        assert_eq!(l.program_spans, 1);
    }

    #[test]
    fn multi_span_operations_pair_by_call() {
        let spans = vec![
            span("worker_curvature_product", SpanKind::DenseCompute, 0.0, 1.0),
            span("curvature_allreduce", SpanKind::CommCollective, 1.0, 1.5),
            span("worker_curvature_product", SpanKind::DenseCompute, 2.0, 4.0),
            span("curvature_allreduce", SpanKind::CommCollective, 4.0, 4.25),
        ];
        let names = ["curvature_allreduce", "worker_curvature_product"];
        assert_eq!(per_call_seconds(&spans, &names), vec![1.5, 2.25]);
        assert_eq!(calls(&spans, &names), 2);
    }
}
