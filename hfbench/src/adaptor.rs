//! A timing adaptor around any [`HfProblem`].
//!
//! [`TimedProblem`] forwards every call unchanged and records one span
//! per call, so the optimizer's problem-side time can be split by
//! operation without instrumenting the crates. It changes no argument
//! and no result: θ after training is bit-identical with and without it.

use pdnn_core::{HeldoutEval, HfProblem};
use pdnn_obs::{Recorder, RecorderExt, SpanKind};
use std::sync::Arc;

/// Span name of [`HfProblem::gradient`].
pub const GRADIENT: &str = "problem.gradient";
/// Span name of [`HfProblem::gn_product`].
pub const GN_PRODUCT: &str = "problem.gn_product";
/// Span name of [`HfProblem::heldout_eval`].
pub const HELDOUT_EVAL: &str = "problem.heldout_eval";
/// Span name of [`HfProblem::sample_curvature`].
pub const SAMPLE_CURVATURE: &str = "problem.sample_curvature";
/// Span name of [`HfProblem::fisher_diagonal`].
pub const FISHER_DIAGONAL: &str = "problem.fisher_diagonal";
/// Span name of [`HfProblem::theta`].
pub const THETA: &str = "problem.theta";
/// Span name of [`HfProblem::set_theta`].
pub const SET_THETA: &str = "problem.set_theta";

/// Forwards to `inner`, recording a span per call on `rec`.
pub struct TimedProblem<P> {
    inner: P,
    rec: Arc<dyn Recorder>,
}

impl<P: HfProblem> TimedProblem<P> {
    /// Wrap `inner`; spans go to `rec`.
    pub fn new(inner: P, rec: Arc<dyn Recorder>) -> Self {
        TimedProblem { inner, rec }
    }

    /// The wrapped problem.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: HfProblem> HfProblem for TimedProblem<P> {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }

    fn theta(&self) -> Vec<f32> {
        let _span = self.rec.span(THETA, SpanKind::MemoryBound);
        self.inner.theta()
    }

    fn set_theta(&mut self, theta: &[f32]) {
        let _span = self.rec.span(SET_THETA, SpanKind::MemoryBound);
        self.inner.set_theta(theta)
    }

    fn gradient(&mut self) -> (f64, Vec<f32>) {
        let _span = self.rec.span(GRADIENT, SpanKind::DenseCompute);
        self.inner.gradient()
    }

    fn sample_curvature(&mut self, seed: u64, fraction: f64) {
        let _span = self.rec.span(SAMPLE_CURVATURE, SpanKind::DenseCompute);
        self.inner.sample_curvature(seed, fraction)
    }

    fn gn_product(&mut self, v: &[f32]) -> Vec<f32> {
        let _span = self.rec.span(GN_PRODUCT, SpanKind::DenseCompute);
        self.inner.gn_product(v)
    }

    fn fisher_diagonal(&mut self) -> Option<Vec<f32>> {
        let _span = self.rec.span(FISHER_DIAGONAL, SpanKind::DenseCompute);
        self.inner.fisher_diagonal()
    }

    fn heldout_eval(&mut self, theta: &[f32]) -> HeldoutEval {
        let _span = self.rec.span(HELDOUT_EVAL, SpanKind::DenseCompute);
        self.inner.heldout_eval(theta)
    }

    fn train_frames(&self) -> u64 {
        self.inner.train_frames()
    }
}
