//! The three workloads: their inputs, one training run, and the checks
//! on its output.
//!
//! A workload is `problems` independent instances of one training
//! task. Each instance's corpus seed, network-init seed and curvature
//! sample seed are drawn from the workload seed, so the same seed gives
//! the same inputs. Averaging over instances keeps a run's figures from
//! hanging on the luck of one corpus.

use crate::adaptor::TimedProblem;
use pdnn_core::{
    train_distributed, DistributedConfig, DnnProblem, HfConfig, HfOptimizer, HfProblem, IterStats,
    Objective, StopReason, SyncStrategy,
};
use pdnn_dnn::{Activation, Network};
use pdnn_mpisim::WireCodec;
use pdnn_obs::{InMemoryRecorder, Recorder, RecorderExt, SpanKind, Telemetry};
use pdnn_speech::{Corpus, CorpusSpec, Shard, Strategy};
use pdnn_tensor::gemm::GemmContext;
use pdnn_util::Prng;
use std::sync::Arc;
use std::time::Instant;

/// Acoustic feature width of every workload's corpus.
pub const FEATURES: usize = 40;
/// HMM states (network outputs) of every workload's corpus.
pub const STATES: usize = 32;
/// Share of utterances held out; `train_distributed` splits the same way.
pub const HELDOUT_FRAC: f64 = 0.2;
/// Share of utterances in each curvature sample (the paper's 1–3%).
pub const CURVATURE_FRACTION: f64 = 0.02;
/// HF iteration cap of the timed training (the `HfConfig` default and
/// the top of the paper's 20–40 band); missing the target within it is
/// a failure. A few instances in a thousand reject their first steps and
/// need about 15 iterations.
pub const MAX_ITERS: usize = 30;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Serial cross-entropy training, one GEMM thread.
    SerialCe,
    /// Masterless ring allreduce over two peers, wide layers.
    Ring2Wide,
    /// The paper's master + one worker, sequence (MMI) objective.
    Master1Seq,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SerialCe,
        Workload::Ring2Wide,
        Workload::Master1Seq,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SerialCe => "serial_ce",
            Workload::Ring2Wide => "ring2_wide",
            Workload::Master1Seq => "master1_seq",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}`"))
    }
}

/// How the ranks of a run are arranged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// `DnnProblem` + `HfOptimizer` in the calling thread.
    Serial,
    /// `train_distributed` with [`SyncStrategy::Ring`] over `peers` ranks.
    Ring { peers: usize },
    /// `train_distributed` with [`SyncStrategy::Master`]: rank 0 plus
    /// `workers` worker ranks.
    Master { workers: usize },
}

impl Topology {
    /// Ranks that hold training data.
    pub fn data_ranks(self) -> usize {
        match self {
            Topology::Serial => 1,
            Topology::Ring { peers } => peers,
            Topology::Master { workers } => workers,
        }
    }
}

/// When a run has reached its goal.
#[derive(Clone, Copy, Debug)]
pub enum Target {
    /// Held-out loss at or below this value.
    Loss(f64),
    /// Held-out loss at or below this share of the loss at the start of
    /// the timed training (for fine-tuning from a pretrained network).
    ShareOfStart(f64),
}

/// Sizes and settings of a workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Rank arrangement.
    pub topology: Topology,
    /// Independent instances per run.
    pub problems: usize,
    /// Utterances per corpus.
    pub utterances: usize,
    /// Emission noise (task difficulty).
    pub emission_noise: f64,
    /// Width of both hidden layers.
    pub hidden: usize,
    /// Cross-entropy HF iterations run during set-up before sequence
    /// training; 0 means the timed training is cross-entropy.
    pub pretrain_iters: usize,
    /// Initial damping of the timed training.
    pub lambda0: f64,
    /// Goal of the timed training.
    pub target: Target,
    /// Instances whose set-up and training peak RSS is averaged into
    /// `peak_rss_mb`.
    pub memory_probes: usize,
}

impl Spec {
    /// The workload's settings; `smoke` shrinks them to a seconds-scale
    /// run with the same code paths.
    pub fn of(workload: Workload, smoke: bool) -> Spec {
        let mut spec = match workload {
            Workload::SerialCe => Spec {
                workload,
                topology: Topology::Serial,
                problems: 11,
                utterances: 240,
                emission_noise: 1.5,
                hidden: 128,
                pretrain_iters: 0,
                lambda0: 0.1,
                target: Target::Loss(0.8),
                memory_probes: 2,
            },
            Workload::Ring2Wide => Spec {
                workload,
                topology: Topology::Ring { peers: 2 },
                problems: 12,
                utterances: 96,
                emission_noise: 1.5,
                hidden: 512,
                pretrain_iters: 0,
                lambda0: 0.1,
                target: Target::Loss(2.2),
                memory_probes: 1,
            },
            Workload::Master1Seq => Spec {
                workload,
                topology: Topology::Master { workers: 1 },
                problems: 20,
                utterances: 64,
                emission_noise: 1.5,
                hidden: 128,
                pretrain_iters: 4,
                lambda0: 1.0,
                target: Target::ShareOfStart(0.97),
                memory_probes: 4,
            },
        };
        if smoke {
            spec.problems = 2;
            spec.utterances = 24;
            spec.emission_noise = 0.5;
            spec.hidden = 16;
            spec.pretrain_iters = spec.pretrain_iters.min(2);
            spec.target = match spec.target {
                Target::Loss(_) => Target::Loss(3.0),
                Target::ShareOfStart(_) => Target::ShareOfStart(0.999),
            };
        }
        spec
    }

    /// Layer widths of the network.
    pub fn dims(&self) -> Vec<usize> {
        vec![FEATURES, self.hidden, self.hidden, STATES]
    }

    /// Whether the timed training uses the MMI sequence objective.
    pub fn sequence(&self) -> bool {
        self.pretrain_iters > 0
    }
}

/// The inputs of one instance, built during set-up.
pub struct Instance {
    /// Instance number within the run.
    pub index: usize,
    /// The generated corpus (`train_distributed` takes it whole).
    pub corpus: Corpus,
    /// Training utterances as one shard.
    pub train: Shard,
    /// Held-out utterances as one shard.
    pub heldout: Shard,
    /// Network the timed training starts from.
    pub net0: Network<f32>,
    /// Objective of the timed training.
    pub objective: Objective,
    /// Optimizer settings, target included.
    pub hf: HfConfig,
}

/// Seconds spent in each step of one set-up.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// `Corpus::generate`.
    pub corpus_s: f64,
    /// Held-out split and the two shards.
    pub shard_s: f64,
    /// Everything: corpus, shards, network init, pretraining, target.
    pub total_s: f64,
}

/// `HfConfig::small_task()` at the paper's curvature fraction.
fn optimizer_config(max_iters: usize, seed: u64) -> HfConfig {
    let mut hf = HfConfig::small_task();
    hf.curvature_fraction = CURVATURE_FRACTION;
    hf.max_iters = max_iters;
    hf.seed = seed;
    hf
}

/// Build instance `index` of the workload from the run seed. Spans of
/// each step go to `rec`.
pub fn set_up(spec: &Spec, seed: u64, index: usize, rec: &dyn Recorder) -> (Instance, SetupTimes) {
    let t0 = Instant::now();
    let setup_span = rec.span("bench.setup", SpanKind::Scalar);
    let mut seeds = Prng::new(seed).split(index as u64);
    let corpus_seed = seeds.next_u64();
    let init_seed = seeds.next_u64();
    let hf_seed = seeds.next_u64();

    let corpus = {
        let _s = rec.span("speech.corpus_generate", SpanKind::DenseCompute);
        Corpus::generate(CorpusSpec {
            states: STATES,
            feature_dim: FEATURES,
            utterances: spec.utterances,
            emission_noise: spec.emission_noise,
            seed: corpus_seed,
            ..CorpusSpec::default()
        })
    };
    let corpus_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let (train, heldout) = {
        let _s = rec.span("speech.shard", SpanKind::MemoryBound);
        let (train_ids, held_ids) = corpus.split_heldout(HELDOUT_FRAC);
        (corpus.shard(&train_ids), corpus.shard(&held_ids))
    };
    let shard_s = t1.elapsed().as_secs_f64();

    let mut net0 = {
        let _s = rec.span("dnn.init", SpanKind::Scalar);
        let mut rng = Prng::new(init_seed);
        Network::new(&spec.dims(), Activation::Sigmoid, &mut rng)
    };

    let objective = if spec.sequence() {
        let _s = rec.span("core.pretrain_ce", SpanKind::DenseCompute);
        let pre_cfg = optimizer_config(spec.pretrain_iters, hf_seed);
        let mut pre = DnnProblem::new(
            net0,
            GemmContext::sequential(),
            train.clone(),
            heldout.clone(),
            Objective::CrossEntropy,
        );
        HfOptimizer::new(pre_cfg).train(&mut pre);
        net0 = pre.into_network();
        Objective::Sequence(corpus.denominator_graph())
    } else {
        Objective::CrossEntropy
    };
    let mut hf = optimizer_config(MAX_ITERS, hf_seed);
    hf.lambda0 = spec.lambda0;
    hf.target_heldout_loss = Some(match spec.target {
        Target::Loss(loss) => loss,
        Target::ShareOfStart(share) => share * heldout_loss(&net0, &heldout, &objective),
    });
    drop(setup_span);
    let times = SetupTimes {
        corpus_s,
        shard_s,
        total_s: t0.elapsed().as_secs_f64(),
    };
    let instance = Instance {
        index,
        corpus,
        train,
        heldout,
        net0,
        objective,
        hf,
    };
    (instance, times)
}

/// Held-out loss of `net`, from a fresh `DnnProblem`.
pub fn heldout_loss(net: &Network<f32>, heldout: &Shard, objective: &Objective) -> f64 {
    let mut problem = DnnProblem::new(
        net.clone(),
        GemmContext::sequential(),
        heldout.clone(),
        heldout.clone(),
        objective.clone(),
    );
    problem.heldout_eval(&net.to_flat()).loss
}

/// What one training run produced and cost.
pub struct Outcome {
    /// Wall seconds from the train call to its return.
    pub wall_s: f64,
    /// Process on-CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Per-iteration optimizer statistics.
    pub stats: Vec<IterStats>,
    /// The trained network.
    pub network: Network<f32>,
    /// Per-rank telemetry (rank order); empty when not traced.
    pub telemetry: Vec<Telemetry>,
}

impl Outcome {
    /// Held-out loss at stop.
    pub fn stop_loss(&self) -> f64 {
        self.stats.last().map_or(f64::NAN, |s| s.heldout_after)
    }
}

/// Train one instance. `traced` wraps a serial problem in the timing
/// adaptor and attaches an in-memory recorder to the optimizer; the
/// distributed trainer records its rank telemetry either way, and it is
/// kept only when traced.
pub fn train(spec: &Spec, inst: &Instance, traced: bool) -> Result<Outcome, String> {
    let cpu0 = crate::procfs::cpu_seconds().map_err(|e| format!("read CPU time: {e}"))?;
    let t0 = Instant::now();
    let (stats, network, telemetry) = match spec.topology {
        Topology::Serial => train_serial(inst, traced)?,
        Topology::Ring { peers } => train_world(inst, SyncStrategy::Ring, peers, traced)?,
        Topology::Master { workers } => train_world(inst, SyncStrategy::Master, workers, traced)?,
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = crate::procfs::cpu_seconds().map_err(|e| format!("read CPU time: {e}"))? - cpu0;
    Ok(Outcome {
        wall_s,
        cpu_s,
        stats,
        network,
        telemetry,
    })
}

type Trained = (Vec<IterStats>, Network<f32>, Vec<Telemetry>);

fn train_serial(inst: &Instance, traced: bool) -> Result<Trained, String> {
    let problem = DnnProblem::new(
        inst.net0.clone(),
        GemmContext::sequential(),
        inst.train.clone(),
        inst.heldout.clone(),
        inst.objective.clone(),
    );
    let (stats, reason, problem, telemetry) = if traced {
        let rec = Arc::new(InMemoryRecorder::new());
        let root = rec.span("bench.train", SpanKind::Scalar);
        let mut timed = TimedProblem::new(problem, rec.clone());
        let (stats, reason) =
            HfOptimizer::with_recorder(inst.hf, rec.clone()).train_with_reason(&mut timed);
        drop(root);
        (stats, reason, timed.into_inner(), vec![rec.take()])
    } else {
        let mut problem = problem;
        let (stats, reason) = HfOptimizer::new(inst.hf).train_with_reason(&mut problem);
        (stats, reason, problem, Vec::new())
    };
    if reason != StopReason::TargetReached {
        return Err(format!("stopped by {reason:?} before the target"));
    }
    Ok((stats, problem.into_network(), telemetry))
}

fn train_world(
    inst: &Instance,
    sync: SyncStrategy,
    workers: usize,
    traced: bool,
) -> Result<Trained, String> {
    let config = DistributedConfig {
        workers,
        sync,
        wire_codec: WireCodec::None,
        hf: inst.hf,
        strategy: Strategy::SortedBalanced,
        heldout_frac: HELDOUT_FRAC,
        threads_per_rank: 1,
        checkpoint_every: 0,
        checkpoint_path: None,
    };
    let out = train_distributed(&inst.net0, &inst.corpus, &inst.objective, &config)
        .map_err(|e| format!("train_distributed: {e}"))?;
    let telemetry = if traced {
        std::iter::once(out.master_telemetry)
            .chain(out.worker_telemetries)
            .collect()
    } else {
        Vec::new()
    };
    Ok((out.stats, out.network, telemetry))
}

/// FNV-1a over the bit patterns of θ.
pub fn theta_hash(net: &Network<f32>) -> u64 {
    net.to_flat().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Check a run's output: the target was reached within the cap, and the
/// held-out loss of the returned network, recomputed through a fresh
/// `DnnProblem`, equals the reported stop loss.
pub fn check(spec: &Spec, inst: &Instance, out: &Outcome) -> Result<(), String> {
    let target = inst.hf.target_heldout_loss.unwrap_or(f64::NEG_INFINITY);
    let stop = out.stop_loss();
    // A NaN stop loss fails too.
    let reached = stop <= target;
    if out.stats.len() > MAX_ITERS || !reached {
        return Err(format!(
            "target {target} not reached in {} iterations (stop loss {stop})",
            out.stats.len()
        ));
    }
    let recomputed = heldout_loss(&out.network, &inst.heldout, &inst.objective);
    // The distributed trainer sums per-utterance losses in shard order,
    // the fresh problem in corpus order: allow f64 rounding only.
    let tolerance = match spec.topology {
        Topology::Serial => 0.0,
        _ => 1e-9 * stop.abs(),
    };
    if (recomputed - stop).abs() > tolerance {
        return Err(format!(
            "recomputed held-out loss {recomputed} differs from reported {stop}"
        ));
    }
    Ok(())
}
