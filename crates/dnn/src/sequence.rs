//! Sequence-discriminative training criterion (lattice-free MMI).
//!
//! The paper's second objective (Table I, "Sequence") is a
//! discriminative criterion over whole utterances, trained with
//! distributed Hessian-free optimization [Kingsbury et al. 2012]. The
//! production system used word lattices from an LVCSR decoder; those
//! are proprietary, so — per the substitution rule in DESIGN.md — we
//! implement the *lattice-free* form of maximum mutual information:
//! the denominator is a full bigram graph over HMM states, evaluated
//! exactly with the forward–backward algorithm. This preserves what
//! the evaluation depends on: a genuine utterance-level
//! discriminative objective whose curvature uses denominator
//! occupancies.
//!
//! For an utterance with frames `t = 0..T`, alignment `a_t`, acoustic
//! scores `lp_t(s) = log softmax(logits_t)(s)`, and a state bigram
//! `(π, A)`:
//!
//! ```text
//! log num = log π(a_0) + Σ_t lp_t(a_t) + Σ_{t>0} log A(a_{t-1}, a_t)
//! log den = logsumexp over all state paths of the same form
//! L = log den − log num ≥ 0
//! ∂L/∂logit_t(s) = γ_t(s) − 1[s = a_t]
//! ```
//!
//! where `γ` are the denominator occupancies from forward–backward.
//! `γ` also plugs into [`crate::gauss_newton::Curvature::Fisher`] as
//! the model distribution for Gauss–Newton products.
//!
//! # Cost
//!
//! Every probability carries a floor `ε = 1e-300`, so an arc or start
//! state with `p = 0` scores `ln ε ≈ −690.8` instead of `−∞`. The
//! recursion splits each step into the graph's legal arcs (`p > 0`)
//! and the floor, which is the same for every target state:
//!
//! ```text
//! α_t(j) = m + ln( Σ_{i→j legal} w_i·p_ij + ε·Σ_i w_i ) + lp_t(j),
//! w_i = exp(α_{t-1}(i) − m)
//! ```
//!
//! an exact rewrite of the dense `ln Σ_i w_i·(p_ij + ε)`. A frame costs
//! O(legal arcs) multiply-adds plus O(S) `exp`/`ln` in each direction.
//! On the synthetic corpus's banded 32-state graph (3 legal arcs per
//! state) the whole forward–backward with occupancies and gradient
//! measures ≈ 1.4–1.5 µs per frame (`dnn.mmi_ns_per_frame` in
//! hfbench's `master1_seq` trace, 2-vCPU x86-64 host), about a fifth
//! of the ≈ 6.1–6.4 µs per frame of the 40-128-128-32 network's
//! forward plus backprop on the same trace. Table I's ~2×
//! sequence-vs-CE cost is a modelled factor (`pdnn-perfmodel`'s
//! `objective_compute_factor`), not a property of this kernel.

use pdnn_tensor::{Matrix, Scalar};
use pdnn_util::float::exactly_zero;

/// Probability floor of every arc and start state (see the module
/// doc).
const EPS: f64 = 1e-300;

/// Frame weights are `exp(x − m)` for log-scores `x` with row max
/// `m`, stored multiplied by `SCALE = 2^600`. The floor term `ε·Σw` is
/// then at least `ε·2^600 ≈ e^{−275}`, so weights far below `ε` still
/// count without being subnormal. Multiplying by a power of two is
/// exact, so the common case loses no precision to the scaling.
const SCALE: f64 = f64::from_bits((1023 + 600) << 52);
const INV_SCALE: f64 = f64::from_bits((1023 - 600) << 52);
const LN_SCALE: f64 = 600.0 * std::f64::consts::LN_2;

/// Scaled weights with `ln w < FLUSH` are zero. What they would have
/// added is below `e^{FLUSH}/(ε·SCALE) ≈ e^{−325}` of the floor term,
/// and no weight or product on the hot path is subnormal.
const FLUSH: f64 = -600.0;

/// Log-sum-exp of a slice (stable; `-inf` for empty).
fn lse(xs: &[f64]) -> f64 {
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return max;
    }
    max + xs.iter().map(|&x| (x - max).exp()).sum::<f64>().ln()
}

/// `out = log softmax(row)` in f64 — the acoustic scores shared by the
/// MMI recursion and Viterbi decoding.
pub(crate) fn log_softmax_row<T: Scalar>(row: &[T], out: &mut [f64]) {
    let max = row
        .iter()
        .fold(row[0].to_f64(), |max, &v| max.max(v.to_f64()));
    let lse = max
        + row
            .iter()
            .map(|&v| (v.to_f64() - max).exp())
            .sum::<f64>()
            .ln();
    for (o, &v) in out.iter_mut().zip(row) {
        *o = v.to_f64() - lse;
    }
}

/// Fill `w` with the scaled weights of log-scores `x` (see [`SCALE`]
/// and [`FLUSH`]); returns the max `m` of `x` and the weight sum.
fn scaled_weights(x: &[f64], w: &mut [f64]) -> (f64, f64) {
    let m = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for (wi, &xi) in w.iter_mut().zip(x) {
        let d = xi - m;
        // e^d is normal down to e^{-708}; below, shift in the exponent.
        *wi = if d >= -700.0 {
            d.exp() * SCALE
        } else if d + LN_SCALE >= FLUSH {
            (d + LN_SCALE).exp()
        } else {
            0.0
        };
        sum += *wi;
    }
    (m, sum)
}

/// The denominator graph: a bigram (first-order Markov) model over
/// HMM states.
#[derive(Clone, Debug)]
pub struct DenominatorGraph {
    states: usize,
    /// Initial log-probabilities `ln(π + ε)`, length `states`.
    log_prior: Vec<f64>,
    /// Transition log-probabilities `ln(A + ε)`, `states x states`
    /// row-major (`log_trans[i * states + j] = log P(j | i)`).
    log_trans: Vec<f64>,
    /// Legal arcs `(j, P(j | i))` with `P > 0`, grouped by source
    /// state: state `i`'s arcs are `arcs[arc_start[i]..arc_start[i + 1]]`.
    arcs: Vec<(usize, f64)>,
    arc_start: Vec<usize>,
}

impl DenominatorGraph {
    /// Build from probability-space prior and transition matrix.
    ///
    /// # Panics
    /// If dimensions are inconsistent or rows are not (approximately)
    /// normalized.
    pub fn new(prior: &[f64], trans: &[f64]) -> Self {
        let states = prior.len();
        assert!(states > 0, "DenominatorGraph needs at least one state");
        assert_eq!(
            trans.len(),
            states * states,
            "transition matrix must be {states}x{states}"
        );
        let psum: f64 = prior.iter().sum();
        assert!((psum - 1.0).abs() < 1e-6, "prior sums to {psum}");
        let mut arcs = Vec::new();
        let mut arc_start = vec![0];
        for row in trans.chunks(states) {
            let rsum: f64 = row.iter().sum();
            assert!(
                (rsum - 1.0).abs() < 1e-6,
                "transition row {} sums to {rsum}",
                arc_start.len() - 1
            );
            arcs.extend(
                row.iter()
                    .enumerate()
                    .filter(|(_, &p)| p > 0.0)
                    .map(|(j, &p)| (j, p)),
            );
            arc_start.push(arcs.len());
        }
        DenominatorGraph {
            states,
            log_prior: prior.iter().map(|&p| (p + EPS).ln()).collect(),
            log_trans: trans.iter().map(|&p| (p + EPS).ln()).collect(),
            arcs,
            arc_start,
        }
    }

    /// Fully-connected uniform graph over `states` states.
    pub fn uniform(states: usize) -> Self {
        let p = 1.0 / states as f64;
        DenominatorGraph::new(&vec![p; states], &vec![p; states * states])
    }

    /// Number of states.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Initial log-probability of state `j`.
    #[inline]
    pub fn log_prior(&self, j: usize) -> f64 {
        self.log_prior[j]
    }

    /// Transition log-probability `log P(j | i)`.
    #[inline]
    pub fn log_transition(&self, i: usize, j: usize) -> f64 {
        self.log_trans[i * self.states + j]
    }

    /// Legal arcs `(j, P(j | i))` out of state `i`.
    #[inline]
    fn arcs(&self, i: usize) -> &[(usize, f64)] {
        &self.arcs[self.arc_start[i]..self.arc_start[i + 1]]
    }
}

/// Result of evaluating the MMI criterion on one utterance (or a
/// batch of concatenated utterances).
#[derive(Clone, Debug)]
pub struct SequenceLossOutput<T: Scalar = f32> {
    /// Summed loss `Σ_utt (log den − log num)`; non-negative.
    pub loss: f64,
    /// Gradient with respect to the logits, `frames x states`.
    pub dlogits: Matrix<T>,
    /// Denominator occupancies `γ`, `frames x states` — the model
    /// distribution for Gauss–Newton curvature.
    pub den_posteriors: Matrix<T>,
}

/// Working buffers of one utterance's forward–backward, reused across
/// the utterances of a batch. Row `t` of each `frames x states` buffer
/// is `[t * states, (t + 1) * states)`.
struct Trellis {
    states: usize,
    /// Acoustic log-probabilities `lp_t(s)`.
    lp: Vec<f64>,
    /// Forward log-scores `α_t(s)`.
    alpha: Vec<f64>,
    /// Backward log-scores `β_t(s)`.
    beta: Vec<f64>,
    /// Scaled weights of one frame.
    w: Vec<f64>,
    /// Denominator log-score of the last forward pass.
    log_den: f64,
}

impl Trellis {
    fn new(states: usize) -> Self {
        Trellis {
            states,
            lp: Vec::new(),
            alpha: Vec::new(),
            beta: Vec::new(),
            w: vec![0.0; states],
            log_den: 0.0,
        }
    }

    /// Acoustic scores, numerator and forward pass of the utterance in
    /// `logits` rows `start..start + alignment.len()`; returns its loss
    /// `log den − log num`. The only place either MMI loss is computed,
    /// so [`mmi_loss_only`] and [`mmi_batch`] agree bit for bit.
    fn forward<T: Scalar>(
        &mut self,
        logits: &Matrix<T>,
        start: usize,
        alignment: &[u32],
        graph: &DenominatorGraph,
    ) -> f64 {
        let s = self.states;
        let frames = alignment.len();
        self.lp.resize(frames * s, 0.0);
        self.alpha.resize(frames * s, 0.0);
        for (t, lp) in self.lp.chunks_exact_mut(s).enumerate() {
            log_softmax_row(logits.row(start + t), lp);
        }
        let lp = &self.lp;

        // Numerator score along the forced path.
        let a0 = alignment[0] as usize;
        let mut log_num = graph.log_prior[a0] + lp[a0];
        for t in 1..frames {
            let (i, j) = (alignment[t - 1] as usize, alignment[t] as usize);
            log_num += graph.log_transition(i, j) + lp[t * s + j];
        }

        // Denominator: push each state's weight along its legal arcs.
        for ((a, &p), &l) in self.alpha.iter_mut().zip(&graph.log_prior).zip(lp) {
            *a = p + l;
        }
        for t in 1..frames {
            let (done, rest) = self.alpha.split_at_mut(t * s);
            let (m, wsum) = scaled_weights(&done[(t - 1) * s..], &mut self.w);
            let cur = &mut rest[..s];
            cur.fill(0.0);
            for (i, &wi) in self.w.iter().enumerate() {
                if !exactly_zero(wi) {
                    for &(j, p) in graph.arcs(i) {
                        cur[j] += wi * p;
                    }
                }
            }
            let floor = EPS * wsum;
            for (a, &l) in cur.iter_mut().zip(&lp[t * s..(t + 1) * s]) {
                *a = m + ((*a + floor) * INV_SCALE).ln() + l;
            }
        }
        self.log_den = lse(&self.alpha[(frames - 1) * s..frames * s]);
        self.log_den - log_num
    }

    /// Backward pass over the utterance of the last
    /// [`Trellis::forward`]: each state pulls the scaled weights of
    /// its legal successors.
    fn backward(&mut self, graph: &DenominatorGraph) {
        let s = self.states;
        let frames = self.lp.len() / s;
        self.beta.resize(frames * s, 0.0);
        self.beta[(frames - 1) * s..].fill(0.0);
        for t in (0..frames - 1).rev() {
            let (done, next) = self.beta.split_at_mut((t + 1) * s);
            let cur = &mut done[t * s..];
            // Stage lp_{t+1}(j) + β_{t+1}(j) in β_t's row.
            for ((c, &l), &b) in cur
                .iter_mut()
                .zip(&self.lp[(t + 1) * s..(t + 2) * s])
                .zip(&next[..s])
            {
                *c = l + b;
            }
            let (m, usum) = scaled_weights(cur, &mut self.w);
            let floor = EPS * usum;
            for (i, c) in cur.iter_mut().enumerate() {
                let legal: f64 = graph.arcs(i).iter().map(|&(j, p)| p * self.w[j]).sum();
                *c = m + ((legal + floor) * INV_SCALE).ln();
            }
        }
    }

    /// Write the occupancies `γ_t = exp(α_t + β_t − log den)` and the
    /// gradient `γ_t − onehot(a_t)` of the last forward–backward into
    /// rows `start..` of `gamma` and `dlogits`.
    fn occupancies<T: Scalar>(
        &self,
        start: usize,
        alignment: &[u32],
        gamma: &mut Matrix<T>,
        dlogits: &mut Matrix<T>,
    ) {
        let s = self.states;
        for (t, &a) in alignment.iter().enumerate() {
            let g = gamma.row_mut(start + t);
            for ((g, &al), &be) in g
                .iter_mut()
                .zip(&self.alpha[t * s..(t + 1) * s])
                .zip(&self.beta[t * s..(t + 1) * s])
            {
                *g = T::from_f64((al + be - self.log_den).exp());
            }
            let d = dlogits.row_mut(start + t);
            d.copy_from_slice(g);
            d[a as usize] -= T::ONE;
        }
    }
}

/// Check a stacked batch and return its utterances as `(start, len)`.
fn utterances<'a, T: Scalar>(
    logits: &Matrix<T>,
    alignment: &[u32],
    utt_lens: &'a [usize],
    graph: &DenominatorGraph,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    let s = graph.states();
    assert_eq!(logits.cols(), s, "logits width != graph states");
    let total: usize = utt_lens.iter().sum();
    assert_eq!(total, logits.rows(), "utterance lengths do not cover batch");
    assert_eq!(alignment.len(), total, "alignment length != frames");
    assert!(utt_lens.iter().all(|&len| len > 0), "empty utterance");
    assert!(
        alignment.iter().all(|&a| (a as usize) < s),
        "alignment state out of range"
    );
    utt_lens.iter().scan(0usize, |start, &len| {
        *start += len;
        Some((*start - len, len))
    })
}

/// Evaluate MMI on a single utterance.
///
/// `logits` is `frames x states`; `alignment` gives the numerator
/// (forced) state per frame.
pub fn mmi_utterance<T: Scalar>(
    logits: &Matrix<T>,
    alignment: &[u32],
    graph: &DenominatorGraph,
) -> SequenceLossOutput<T> {
    mmi_batch(logits, alignment, &[logits.rows()], graph)
}

/// Evaluate MMI over several utterances stacked in one logits matrix.
///
/// `utt_lens` partitions the rows of `logits`; `alignment` is the
/// concatenated per-frame state sequence.
pub fn mmi_batch<T: Scalar>(
    logits: &Matrix<T>,
    alignment: &[u32],
    utt_lens: &[usize],
    graph: &DenominatorGraph,
) -> SequenceLossOutput<T> {
    let mut loss = 0.0f64;
    let mut dlogits = Matrix::zeros(logits.rows(), logits.cols());
    let mut gamma = Matrix::zeros(logits.rows(), logits.cols());
    let mut trellis = Trellis::new(graph.states());
    for (start, len) in utterances(logits, alignment, utt_lens, graph) {
        let align = &alignment[start..start + len];
        loss += trellis.forward(logits, start, align, graph);
        trellis.backward(graph);
        trellis.occupancies(start, align, &mut gamma, &mut dlogits);
    }
    SequenceLossOutput {
        loss,
        dlogits,
        den_posteriors: gamma,
    }
}

/// Summed MMI loss only (forward pass, no occupancies or gradient) —
/// used by the held-out evaluations inside backtracking and line
/// search. Equal bit for bit to `mmi_batch(..).loss`.
pub fn mmi_loss_only<T: Scalar>(
    logits: &Matrix<T>,
    alignment: &[u32],
    utt_lens: &[usize],
    graph: &DenominatorGraph,
) -> f64 {
    let mut trellis = Trellis::new(graph.states());
    utterances(logits, alignment, utt_lens, graph).fold(0.0, |loss, (start, len)| {
        loss + trellis.forward(logits, start, &alignment[start..start + len], graph)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdnn_util::Prng;

    fn random_logits(frames: usize, states: usize, seed: u64) -> Matrix<f64> {
        let mut rng = Prng::new(seed);
        Matrix::random_normal(frames, states, 1.0, &mut rng)
    }

    /// Oracle: the dense per-arc log-space recursion, one log-sum-exp
    /// per (frame, state) over all `S` predecessors or successors.
    /// Returns the loss, `γ` and the gradient of one utterance.
    fn mmi_reference(
        logits: &Matrix<f64>,
        alignment: &[u32],
        graph: &DenominatorGraph,
    ) -> (f64, Matrix<f64>, Matrix<f64>) {
        let frames = logits.rows();
        let s = graph.states();
        let mut lp = vec![0.0f64; frames * s];
        for t in 0..frames {
            let row = logits.row(t);
            let l = lse(row);
            for j in 0..s {
                lp[t * s + j] = row[j] - l;
            }
        }
        let lt = |i: usize, j: usize| graph.log_transition(i, j);
        let mut log_num = graph.log_prior(alignment[0] as usize) + lp[alignment[0] as usize];
        for t in 1..frames {
            let (i, j) = (alignment[t - 1] as usize, alignment[t] as usize);
            log_num += lt(i, j) + lp[t * s + j];
        }
        let mut alpha = vec![f64::NEG_INFINITY; frames * s];
        for j in 0..s {
            alpha[j] = graph.log_prior(j) + lp[j];
        }
        let mut scratch = vec![0.0f64; s];
        for t in 1..frames {
            for j in 0..s {
                for (i, slot) in scratch.iter_mut().enumerate() {
                    *slot = alpha[(t - 1) * s + i] + lt(i, j);
                }
                alpha[t * s + j] = lse(&scratch) + lp[t * s + j];
            }
        }
        let log_den = lse(&alpha[(frames - 1) * s..frames * s]);
        let mut beta = vec![0.0f64; frames * s];
        for t in (0..frames - 1).rev() {
            for i in 0..s {
                for (j, slot) in scratch.iter_mut().enumerate() {
                    *slot = lt(i, j) + lp[(t + 1) * s + j] + beta[(t + 1) * s + j];
                }
                beta[t * s + i] = lse(&scratch);
            }
        }
        let mut gamma = Matrix::zeros(frames, s);
        let mut dlogits = Matrix::zeros(frames, s);
        for t in 0..frames {
            for j in 0..s {
                let g = (alpha[t * s + j] + beta[t * s + j] - log_den).exp();
                gamma[(t, j)] = g;
                dlogits[(t, j)] = g;
            }
            dlogits[(t, alignment[t] as usize)] -= 1.0;
        }
        (log_den - log_num, gamma, dlogits)
    }

    /// The synthetic corpus's banded graph: self-loop, +1 and +2
    /// (wrapping), uniform prior — 3 legal arcs per state.
    fn banded_graph(states: usize, self_loop: f64) -> DenominatorGraph {
        let mut trans = vec![0.0; states * states];
        for i in 0..states {
            trans[i * states + i] = self_loop;
            trans[i * states + (i + 1) % states] += (1.0 - self_loop) * 0.7;
            trans[i * states + (i + 2) % states] += (1.0 - self_loop) * 0.3;
        }
        DenominatorGraph::new(&vec![1.0 / states as f64; states], &trans)
    }

    /// Left-to-right 2-state chain: state 1 is a forbidden start and
    /// 1 → 0 a forbidden arc.
    fn strict_graph() -> DenominatorGraph {
        DenominatorGraph::new(&[1.0, 0.0], &[0.5, 0.5, 0.0, 1.0])
    }

    /// Loss within 1e-10 relative, `γ` and gradient within 1e-10
    /// absolute of [`mmi_reference`].
    fn assert_matches_reference(
        at: &str,
        logits: &Matrix<f64>,
        align: &[u32],
        g: &DenominatorGraph,
    ) {
        let got = mmi_utterance(logits, align, g);
        let (loss, gamma, dlogits) = mmi_reference(logits, align, g);
        assert!(
            (got.loss - loss).abs() <= 1e-10 * loss.abs(),
            "{at}: loss {} vs {loss}",
            got.loss
        );
        for (a, b) in got.den_posteriors.as_slice().iter().zip(gamma.as_slice()) {
            assert!((a - b).abs() <= 1e-10, "{at}: γ {a} vs {b}");
        }
        for (a, b) in got.dlogits.as_slice().iter().zip(dlogits.as_slice()) {
            assert!((a - b).abs() <= 1e-10, "{at}: dlogits {a} vs {b}");
        }
    }

    #[test]
    fn sparse_recursion_matches_the_dense_reference() {
        let graphs = [
            ("banded32", banded_graph(32, 0.6)),
            ("chain5", chain_graph(5, 0.6)),
            ("uniform4", DenominatorGraph::uniform(4)),
            ("strict2", strict_graph()),
        ];
        let mut rng = Prng::new(2024);
        for (name, g) in &graphs {
            let s = g.states();
            for scale in [1.0, 10.0, 60.0] {
                for (case, frames) in [1, 1, 2, 2, 7, 7, 19, 19, 40, 40].into_iter().enumerate() {
                    let logits = Matrix::random_normal(frames, s, scale, &mut rng);
                    // Even cases draw any state per frame (forbidden
                    // starts and arcs included); odd cases follow a
                    // legal path of the strict chain.
                    let align: Vec<u32> = (0..frames)
                        .map(|t| match case % 2 {
                            0 => rng.below(s as u64) as u32,
                            _ => u32::from(t >= frames / 2) % s as u32,
                        })
                        .collect();
                    let at = format!("{name} scale {scale} case {case} T={frames}");
                    assert_matches_reference(&at, &logits, &align, g);
                }
            }
        }
    }

    #[test]
    fn floor_dominated_denominator_matches_the_dense_reference() {
        // Strict chain, two frames. Frame 0 favours the forbidden start
        // state 1 by 1397.8 nats, so α_0(0) sits 707 nats below
        // α_0(1): a weight below the normal range of an unscaled
        // `exp`. Frame 1 favours state 0 by 3000 nats, so the
        // denominator is the floor path 1 → 0 (≈ −1381.6) plus the
        // legal path 0 → 0, e^{-16.9} of it. Dropping either the floor
        // term or the tiny weight moves the loss far beyond 1e-10.
        let logits = Matrix::from_vec(2, 2, vec![0.0, 1397.8, 3000.0, 0.0]);
        assert_matches_reference("strict2 floor path", &logits, &[0, 0], &strict_graph());
    }

    #[test]
    fn loss_only_equals_the_batch_loss_bitwise() {
        let graphs = [banded_graph(32, 0.6), chain_graph(5, 0.6), strict_graph()];
        let mut rng = Prng::new(7);
        for g in &graphs {
            let s = g.states();
            for scale in [1.0, 10.0, 60.0] {
                let lens: Vec<usize> = (0..4).map(|_| 1 + rng.below(40) as usize).collect();
                let total = lens.iter().sum();
                let logits: Matrix<f32> = Matrix::random_normal(total, s, scale, &mut rng);
                let align: Vec<u32> = (0..total).map(|_| rng.below(s as u64) as u32).collect();
                let batch = mmi_batch(&logits, &align, &lens, g).loss;
                let only = mmi_loss_only(&logits, &align, &lens, g);
                assert_eq!(only.to_bits(), batch.to_bits(), "{only} vs {batch}");
            }
        }
    }

    fn chain_graph(states: usize, self_loop: f64) -> DenominatorGraph {
        // Left-to-right-ish: strong self-loop, rest uniform.
        let other = (1.0 - self_loop) / (states - 1) as f64;
        let mut trans = vec![other; states * states];
        for i in 0..states {
            trans[i * states + i] = self_loop;
        }
        DenominatorGraph::new(&vec![1.0 / states as f64; states], &trans)
    }

    #[test]
    fn loss_is_nonnegative() {
        let g = chain_graph(5, 0.6);
        for seed in 0..10 {
            let logits = random_logits(12, 5, seed);
            let mut rng = Prng::new(seed + 100);
            let align: Vec<u32> = (0..12).map(|_| rng.below(5) as u32).collect();
            let out = mmi_utterance(&logits, &align, &g);
            assert!(out.loss >= -1e-9, "loss={} seed={seed}", out.loss);
        }
    }

    #[test]
    fn single_state_graph_has_zero_loss() {
        let g = DenominatorGraph::uniform(1);
        let logits: Matrix<f64> = Matrix::zeros(6, 1);
        let out = mmi_utterance(&logits, &[0; 6], &g);
        assert!(out.loss.abs() < 1e-9);
        assert!(out.dlogits.as_slice().iter().all(|&v| v.abs() < 1e-9));
    }

    #[test]
    fn single_frame_uniform_graph_equals_cross_entropy() {
        // With T=1 and uniform prior, log den = log(1/S) + lse(lp) =
        // log(1/S) (lp is a log-softmax), log num = log(1/S) + lp[a],
        // so L = -lp[a] — exactly the CE of that frame.
        let g = DenominatorGraph::uniform(4);
        let logits = random_logits(1, 4, 3);
        let out = mmi_utterance(&logits, &[2], &g);
        let logits32 = logits.clone();
        let (ce, _) = crate::loss::cross_entropy_loss_only(&logits32, &[2]);
        assert!((out.loss - ce).abs() < 1e-9, "mmi={} ce={ce}", out.loss);
    }

    #[test]
    fn occupancies_are_distributions() {
        let g = chain_graph(6, 0.5);
        let logits = random_logits(9, 6, 7);
        let align: Vec<u32> = vec![0, 1, 1, 2, 3, 3, 4, 5, 5];
        let out = mmi_utterance(&logits, &align, &g);
        for t in 0..9 {
            let s: f64 = out.den_posteriors.row(t).iter().sum();
            assert!((s - 1.0).abs() < 1e-8, "frame {t}: γ sums to {s}");
            assert!(out.den_posteriors.row(t).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let g = chain_graph(4, 0.7);
        let logits = random_logits(8, 4, 11);
        let align = vec![0u32, 0, 1, 1, 2, 2, 3, 3];
        let out = mmi_utterance(&logits, &align, &g);
        for t in 0..8 {
            let s: f64 = out.dlogits.row(t).iter().sum();
            assert!(s.abs() < 1e-8, "frame {t}: grad sums to {s}");
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let g = chain_graph(3, 0.5);
        let base = random_logits(4, 3, 13);
        let align = vec![0u32, 1, 2, 1];
        let out = mmi_utterance(&base, &align, &g);
        let h = 1e-6;
        for t in 0..4 {
            for j in 0..3 {
                let mut plus = base.clone();
                plus[(t, j)] += h;
                let mut minus = base.clone();
                minus[(t, j)] -= h;
                let fd = (mmi_utterance(&plus, &align, &g).loss
                    - mmi_utterance(&minus, &align, &g).loss)
                    / (2.0 * h);
                let an = out.dlogits[(t, j)];
                assert!((fd - an).abs() < 1e-5, "({t},{j}): fd={fd} analytic={an}");
            }
        }
    }

    #[test]
    fn perfect_acoustics_drive_loss_down() {
        // Logits strongly favoring the alignment should yield a lower
        // loss than uniform logits.
        let g = chain_graph(4, 0.6);
        let align = vec![0u32, 1, 2, 3, 3, 2];
        let uniform: Matrix<f64> = Matrix::zeros(6, 4);
        let mut strong: Matrix<f64> = Matrix::zeros(6, 4);
        for (t, &a) in align.iter().enumerate() {
            strong[(t, a as usize)] = 10.0;
        }
        let lu = mmi_utterance(&uniform, &align, &g).loss;
        let ls = mmi_utterance(&strong, &align, &g).loss;
        assert!(ls < lu, "strong={ls} uniform={lu}");
    }

    #[test]
    fn batch_sums_utterances() {
        let g = chain_graph(3, 0.5);
        let logits = random_logits(7, 3, 17);
        let align = vec![0u32, 1, 2, 0, 1, 1, 2];
        let lens = [3usize, 4];
        let batch = mmi_batch(&logits, &align, &lens, &g);
        let u1 = mmi_utterance(&logits.rows_copy(0, 3), &align[..3], &g);
        let u2 = mmi_utterance(&logits.rows_copy(3, 7), &align[3..], &g);
        assert!((batch.loss - (u1.loss + u2.loss)).abs() < 1e-10);
        assert_eq!(batch.dlogits.row(0), u1.dlogits.row(0));
        assert_eq!(batch.dlogits.row(5), u2.dlogits.row(2));
    }

    #[test]
    #[should_panic(expected = "do not cover batch")]
    fn batch_checks_partition() {
        let g = DenominatorGraph::uniform(2);
        let logits = random_logits(5, 2, 1);
        mmi_batch(&logits, &[0; 5], &[2, 2], &g);
    }

    #[test]
    #[should_panic(expected = "transition row")]
    fn graph_validates_rows() {
        DenominatorGraph::new(&[0.5, 0.5], &[0.9, 0.3, 0.5, 0.5]);
    }

    #[test]
    fn forbidden_transitions_zero_out_paths() {
        // A strict left-to-right chain: state 1 unreachable as start,
        // transitions only forward. Alignment violating the chain
        // still evaluates (numerator just gets a huge penalty), and
        // the denominator only counts legal paths.
        let trans = vec![
            0.5, 0.5, // 0 -> {0, 1}
            0.0, 1.0, // 1 -> {1}
        ];
        let g = DenominatorGraph::new(&[1.0, 0.0], &trans);
        let logits: Matrix<f64> = Matrix::zeros(3, 2);
        let legal = mmi_utterance(&logits, &[0, 0, 1], &g);
        assert!(legal.loss.is_finite());
        // γ at t=0 must be entirely on state 0 (prior forbids 1).
        assert!((legal.den_posteriors[(0, 0)] - 1.0).abs() < 1e-9);
    }
}
