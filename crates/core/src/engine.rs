//! The local half of every training mode: one rank's shard compute.
//!
//! Paper Section IV: workers "perform data-parallel computation of
//! gradients and curvature matrix–vector products" on their own data
//! while the master runs the Hessian-free optimization. [`ShardEngine`]
//! is that computation, written once. It returns raw `(Σ, frames)`
//! partial sums, and three thin aggregators turn them into the
//! per-frame means [`HfProblem`](crate::problem::HfProblem) promises:
//!
//! - serial [`DnnProblem`](crate::problem::DnnProblem) divides by its
//!   own frame counts;
//! - a master-mode worker (`distributed::worker_loop`) reduces each
//!   partial to rank 0, which divides;
//! - a masterless peer (`distributed::DecentralProblem`) allreduces
//!   and divides.
//!
//! This is the only code in the crate that runs the network's forward,
//! backprop, Gauss–Newton, Fisher-diagonal and logits kernels.

use crate::problem::{chunk_ranges, extract_utterances, sample_utterances, HeldoutEval, Objective};
use pdnn_dnn::backprop::backprop_ws;
use pdnn_dnn::fisher::empirical_fisher_diagonal;
use pdnn_dnn::gauss_newton::{gn_product_ws, Curvature};
use pdnn_dnn::loss::{cross_entropy, cross_entropy_loss_only, softmax_rows};
use pdnn_dnn::network::{ForwardCache, Network};
use pdnn_dnn::packed::{PackedActivations, PackedWeights};
use pdnn_dnn::sequence::{mmi_batch, mmi_loss_only};
use pdnn_obs::Recorder;
use pdnn_speech::Shard;
use pdnn_tensor::gemm::GemmContext;
use pdnn_tensor::{Matrix, Workspace};
use std::ops::Range;
use std::sync::Arc;

impl Objective {
    /// Summed loss and logit gradient of a batch, plus — with
    /// `with_dist` — its curvature distribution (see
    /// [`Objective::curvature`]).
    fn loss_grad(
        &self,
        logits: &Matrix<f32>,
        labels: &[u32],
        utt_lens: &[usize],
        with_dist: bool,
    ) -> (f64, Matrix<f32>, Option<Matrix<f32>>) {
        match self {
            Objective::CrossEntropy => {
                let out = cross_entropy(logits, labels);
                (
                    out.loss,
                    out.dlogits,
                    with_dist.then(|| softmax_rows(logits)),
                )
            }
            Objective::Sequence(graph) => {
                let out = mmi_batch(logits, labels, utt_lens, graph);
                (
                    out.loss,
                    out.dlogits,
                    with_dist.then_some(out.den_posteriors),
                )
            }
        }
    }

    /// Model distribution rows of the Fisher curvature: softmax for
    /// CE, denominator occupancies for MMI.
    fn curvature(&self, logits: &Matrix<f32>, labels: &[u32], utt_lens: &[usize]) -> Matrix<f32> {
        match self {
            Objective::CrossEntropy => softmax_rows(logits),
            Objective::Sequence(graph) => mmi_batch(logits, labels, utt_lens, graph).den_posteriors,
        }
    }

    /// Held-out summed loss and correct-frame count of a batch. Frame
    /// accuracy is argmax against the alignment under both criteria.
    fn heldout(&self, logits: &Matrix<f32>, labels: &[u32], utt_lens: &[usize]) -> (f64, usize) {
        match self {
            Objective::CrossEntropy => cross_entropy_loss_only(logits, labels),
            Objective::Sequence(graph) => {
                let loss = mmi_loss_only(logits, labels, utt_lens, graph);
                let correct = logits
                    .row_argmax()
                    .iter()
                    .zip(labels)
                    .filter(|(&p, &l)| p as u32 == l)
                    .count();
                (loss, correct)
            }
        }
    }
}

/// Scale summed per-frame quantities to their mean.
pub(crate) fn per_frame(sum: &mut [f32], frames: f64) {
    pdnn_tensor::blas1::scal((1.0 / frames) as f32, sum);
}

/// Held-out means from `[Σloss, Σcorrect, frames]`.
pub(crate) fn heldout_mean(meta: &[f64]) -> HeldoutEval {
    HeldoutEval {
        loss: meta[0] / meta[2],
        accuracy: meta[1] / meta[2],
        frames: meta[2] as u64,
    }
}

/// A drawn curvature minibatch and its cached forward state.
struct Sample {
    x: Matrix<f32>,
    labels: Vec<u32>,
    utt_lens: Vec<usize>,
    cache: ForwardCache<f32>,
    /// Model distribution rows for the Fisher curvature.
    dist: Matrix<f32>,
    /// Prepacked activation operands for the repeated GN products of
    /// one CG solve (`None` when packing is off).
    packed_acts: Option<PackedActivations<f32>>,
}

/// Prepacked weight panels, rebuilt lazily when the network's version
/// moves (exactly once per accepted weight update).
struct PackCache {
    packs: Option<PackedWeights<f32>>,
    /// Whether to use the prepacked/arena hot path. Both settings are
    /// bit-identical; the unpacked path is the reference that parity
    /// tests and A/B benchmarks compare against.
    enabled: bool,
}

impl PackCache {
    /// The packs for `net`, rebuilt iff its version moved; `None` when
    /// packing is off. Hit/miss counters are pure functions of the
    /// call sequence, so telemetry stays byte-identical across runs.
    fn get(
        &mut self,
        net: &Network<f32>,
        ctx: &GemmContext,
        rec: &dyn Recorder,
    ) -> Option<&PackedWeights<f32>> {
        if !self.enabled {
            return None;
        }
        match &self.packs {
            Some(p) if p.matches(net) => rec.counter_add("pack_cache_hit", 1),
            _ => {
                self.packs = Some(PackedWeights::new(net, ctx));
                rec.counter_add("pack_cache_miss", 1);
            }
        }
        self.packs.as_ref()
    }
}

/// One batch of a shard: features plus the labels and utterance
/// lengths covering its rows.
struct Batch<'a> {
    x: &'a Matrix<f32>,
    labels: &'a [u32],
    utt_lens: &'a [usize],
}

impl<'a> Batch<'a> {
    fn of(x: &'a Matrix<f32>, shard: &'a Shard, utts: Range<usize>, rows: Range<usize>) -> Self {
        Batch {
            x,
            labels: &shard.labels[rows],
            utt_lens: &shard.utt_lens[utts],
        }
    }
}

/// One rank's replica, data and scratch state; see the module docs.
pub(crate) struct ShardEngine {
    net: Network<f32>,
    /// Trial-θ network, so held-out probes never disturb the weight
    /// packs of `net`.
    trial: Network<f32>,
    ctx: GemmContext,
    train: Shard,
    heldout: Shard,
    objective: Objective,
    sample: Option<Sample>,
    /// `None`: one pass over each shard in place (distributed ranks).
    /// `Some(bound)`: copied chunks of at most `bound` frames that
    /// respect utterance boundaries (serial). A chunked gradient also
    /// evaluates each chunk's curvature distribution and parks it with
    /// the chunk copy: the arena gauges of serial runs, which the
    /// golden telemetry pins, count those buffers.
    chunk: Option<usize>,
    /// Recycled scratch buffers for the training hot path.
    ws: Workspace<f32>,
    packs: PackCache,
    recorder: Arc<dyn Recorder>,
}

impl ShardEngine {
    pub(crate) fn new(
        net: Network<f32>,
        ctx: GemmContext,
        train: Shard,
        heldout: Shard,
        objective: Objective,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        ShardEngine {
            trial: net.clone(),
            net,
            ctx,
            train,
            heldout,
            objective,
            sample: None,
            chunk: None,
            ws: Workspace::new(),
            packs: PackCache {
                packs: None,
                enabled: true,
            },
            recorder,
        }
    }

    pub(crate) fn set_packing(&mut self, enabled: bool) {
        self.packs = PackCache {
            packs: None,
            enabled,
        };
    }

    pub(crate) fn set_chunk(&mut self, bound: usize) {
        self.chunk = Some(bound);
    }

    pub(crate) fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
    }

    pub(crate) fn network(&self) -> &Network<f32> {
        &self.net
    }

    pub(crate) fn into_network(self) -> Network<f32> {
        self.net
    }

    pub(crate) fn train_frames(&self) -> usize {
        self.train.frames()
    }

    pub(crate) fn workspace_stats(&self) -> pdnn_tensor::WorkspaceStats {
        self.ws.stats()
    }

    /// Report the arena counters as gauges.
    pub(crate) fn record_arena(&self) {
        let stats = self.ws.stats();
        self.recorder
            .gauge_set("arena_bytes_reused", stats.bytes_reused as f64);
        self.recorder
            .gauge_set("arena_high_water_bytes", stats.high_water_bytes as f64);
    }

    /// Hand a dead buffer to the arena for reuse.
    pub(crate) fn give_back(&mut self, buf: Vec<f32>) {
        self.ws.give_vec(buf);
    }

    /// Load new weights. `set_flat` bumps the network version, so the
    /// next packed operation repacks; the curvature sample holds
    /// activations of the old θ and is dropped.
    pub(crate) fn set_theta(&mut self, theta: &[f32]) {
        self.net.set_flat(theta);
        self.retire_sample();
    }

    /// Replace the shards (after a re-partition); the curvature sample
    /// indexes the old shard and is dropped.
    pub(crate) fn reshard(&mut self, train: Shard, heldout: Shard) {
        self.train = train;
        self.heldout = heldout;
        self.retire_sample();
    }

    /// Drop the curvature sample, recycling its buffers.
    fn retire_sample(&mut self) {
        if let Some(s) = self.sample.take() {
            s.cache.give_back(&mut self.ws);
            self.ws.give_matrix(s.x);
            self.ws.give_matrix(s.dist);
        }
    }

    /// Redraw the curvature sample: a `fraction` of this shard's
    /// utterances, deterministic in `seed` and `stream`, forwarded at
    /// the current θ. Each rank draws its own stream (its rank; 0 for
    /// serial, which therefore draws with `seed` itself), so a
    /// distributed sample is the union of per-rank samples.
    pub(crate) fn sample(&mut self, seed: u64, fraction: f64, stream: usize) {
        self.retire_sample();
        if self.train.utt_lens.is_empty() {
            return;
        }
        let seed = seed ^ (stream as u64).wrapping_mul(0xA24B_AED4_963E_E407);
        let ids = sample_utterances(&self.train.utt_lens, fraction, seed);
        let (x, labels, utt_lens) = extract_utterances(&self.train, &ids);
        if x.rows() == 0 {
            return;
        }
        // The cache outlives this call (it backs every GN product of
        // the solve), so it is forwarded outside the arena.
        let cache = self.net.forward(&self.ctx, &x);
        let dist = self.objective.curvature(cache.logits(), &labels, &utt_lens);
        let packed_acts = self
            .packs
            .enabled
            .then(|| PackedActivations::new(&cache, &self.ctx));
        self.sample = Some(Sample {
            x,
            labels,
            utt_lens,
            cache,
            dist,
            packed_acts,
        });
    }

    /// `(Σloss, Σgradient, frames)` over the training shard at the
    /// current θ.
    pub(crate) fn gradient(&mut self) -> (f64, Vec<f32>, usize) {
        let frames = self.train.frames();
        if frames == 0 {
            return (0.0, vec![0.0; self.net.num_params()], 0);
        }
        let (net, ctx, objective, train, ws) = (
            &self.net,
            &self.ctx,
            &self.objective,
            &self.train,
            &mut self.ws,
        );
        let packs = self.packs.get(net, ctx, self.recorder.as_ref());
        let pass = |ws: &mut Workspace<f32>, b: Batch<'_>, park_dist: bool| {
            let cache = net.forward_ws(ctx, b.x, packs, ws);
            let (loss, dlogits, dist) =
                objective.loss_grad(cache.logits(), b.labels, b.utt_lens, park_dist);
            let grad = backprop_ws(net, ctx, &cache, &dlogits, packs, ws);
            ws.give_matrix(dlogits);
            if let Some(dist) = dist {
                ws.give_matrix(dist);
            }
            cache.give_back(ws);
            (loss, grad)
        };
        let Some(bound) = self.chunk else {
            let whole = Batch::of(&train.x, train, 0..train.utt_lens.len(), 0..frames);
            let (loss, grad) = pass(ws, whole, false);
            return (loss, grad, frames);
        };
        let mut loss = 0.0f64;
        let mut grad = vec![0.0f32; net.num_params()];
        for (utts, rows) in chunk_ranges(&train.utt_lens, bound) {
            let x = train.x.rows_copy(rows.start, rows.end);
            let (chunk_loss, chunk_grad) = pass(ws, Batch::of(&x, train, utts, rows), true);
            loss += chunk_loss;
            pdnn_tensor::blas1::add(&chunk_grad, &mut grad);
            ws.give_vec(chunk_grad);
            ws.give_matrix(x);
        }
        (loss, grad, frames)
    }

    /// `(ΣGv, frames)`: the undamped Gauss–Newton product over the
    /// curvature sample (zero without one).
    pub(crate) fn gn_product(&mut self, v: &[f32]) -> (Vec<f32>, usize) {
        let Some(s) = &self.sample else {
            return (vec![0.0; self.net.num_params()], 0);
        };
        let packs = self.packs.get(&self.net, &self.ctx, self.recorder.as_ref());
        let gv = gn_product_ws(
            &self.net,
            &self.ctx,
            &s.cache,
            Curvature::Fisher(&s.dist),
            v,
            packs,
            s.packed_acts.as_ref(),
            &mut self.ws,
        );
        (gv, s.x.rows())
    }

    /// `(Σ∇L_f², frames)`: the empirical-Fisher diagonal over the
    /// curvature sample (zero without one).
    pub(crate) fn fisher_diagonal(&mut self) -> (Vec<f32>, usize) {
        let Some(s) = &self.sample else {
            return (vec![0.0; self.net.num_params()], 0);
        };
        let (_, dlogits, _) =
            self.objective
                .loss_grad(s.cache.logits(), &s.labels, &s.utt_lens, false);
        let diag = empirical_fisher_diagonal(&self.net, &self.ctx, &s.cache, &dlogits);
        (diag, s.x.rows())
    }

    /// `(Σloss, correct frames, frames)` over the held-out shard at
    /// trial parameters `theta`.
    pub(crate) fn heldout(&mut self, theta: &[f32]) -> (f64, usize, usize) {
        let frames = self.heldout.frames();
        if frames == 0 {
            return (0.0, 0, 0);
        }
        self.trial.set_flat(theta);
        let (trial, ctx, objective, heldout, ws) = (
            &self.trial,
            &self.ctx,
            &self.objective,
            &self.heldout,
            &mut self.ws,
        );
        // Trial parameters change on every call, so no weight packs;
        // the arena still recycles the activation scratch.
        let pass = |ws: &mut Workspace<f32>, b: Batch<'_>| {
            let logits = trial.logits_ws(ctx, b.x, None, ws);
            let out = objective.heldout(&logits, b.labels, b.utt_lens);
            ws.give_matrix(logits);
            out
        };
        let (loss, correct) = match self.chunk {
            None => {
                let whole = Batch::of(&heldout.x, heldout, 0..heldout.utt_lens.len(), 0..frames);
                pass(ws, whole)
            }
            Some(bound) => {
                let (mut loss, mut correct) = (0.0f64, 0usize);
                for (utts, rows) in chunk_ranges(&heldout.utt_lens, bound) {
                    let x = heldout.x.rows_copy(rows.start, rows.end);
                    let (l, c) = pass(ws, Batch::of(&x, heldout, utts, rows));
                    loss += l;
                    correct += c;
                    ws.give_matrix(x);
                }
                (loss, correct)
            }
        };
        (loss, correct, frames)
    }
}
