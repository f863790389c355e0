//! Distributed Hessian-free training: one master, many workers, or a
//! masterless ring/tree of peers.
//!
//! Paper Section IV: "worker processes distributed over a compute
//! cluster perform data-parallel computation of gradients and
//! curvature matrix–vector products and the master implements the
//! Hessian-free optimization and coordinates the activity of the
//! workers. All communication between the master and workers is via
//! MPI. The master/worker architecture … is a simple one-layer
//! architecture, with one master and many workers."
//!
//! Every data rank runs the crate's shard engine, which computes its
//! shard's raw `(Σ, frames)` partial sums; what differs between the
//! modes is only how the partials are aggregated:
//!
//! - **Master** (the paper's architecture): rank 0's `MasterProblem`
//!   broadcasts a command header, and each `worker_loop` command arm
//!   is one engine call followed by its reduce(s) to rank 0.
//! - **Ring / tree** (masterless): every peer's `DecentralProblem`
//!   calls its own engine and allreduces.
//!
//! Both aggregators implement [`HfProblem`] through one fault latch,
//! so the *identical* [`crate::optimizer::HfOptimizer`] drives serial
//! and distributed training — the parity tests exploit this — and one
//! outer loop and one world driver serve both modes.
//!
//! Protocol (fan-out is `bcast` from rank 0, fan-in `reduce` to rank
//! 0, matching the paper's move from sockets to MPI collectives in
//! Section V.B):
//!
//! | command      | payload after header           | reply (reduce)                 |
//! |--------------|--------------------------------|--------------------------------|
//! | `SET_THETA`  | f32 θ                          | —                              |
//! | `GRADIENT`   | —                              | f32 Σgrad, f64 [Σloss, frames] |
//! | `SAMPLE`     | header carries seed + fraction | —                              |
//! | `GN_PRODUCT` | f32 v                          | f32 ΣGv, f64 [frames]          |
//! | `HELDOUT`    | f32 trial θ                    | f64 [Σloss, Σcorrect, frames]  |
//! | `FISHER`     | —                              | f32 Σdiag, f64 [frames]        |
//! | `LOAD_DATA`  | u64 extra ids ×2 (p2p)         | —                              |
//! | `SHUTDOWN`   | —                              | —                              |
//!
//! At start-up the master distributes per-worker utterance
//! assignments point-to-point (`load_data` — the paper's Figures 2
//! and 4 show this p2p phase growing with rank count).
//!
//! # Fault tolerance
//!
//! Under [`train_distributed_faulted`] the communicator runs with a
//! [`FaultPlan`]: collectives report a failed rank as
//! [`CommError::RankDead`] instead of hanging. The fault latch turns
//! the rest of the step into degraded no-ops, and the outer loop runs
//! the mode's recovery step, restores θ from the last snapshot, and
//! resumes the Hessian-free iteration from there. Because the sample
//! seeds are a pure function of the iteration index, a replay from
//! iteration *k* recomputes exactly what an undisturbed run over the
//! re-sharded data would have, so recovery is bit-deterministic given
//! the same plan. Only the recovery step is mode-specific:
//!
//! - The master acknowledges the death, re-partitions the dead
//!   worker's shard onto the survivors (same LPT strategy as
//!   start-up, replayed via `LOAD_DATA`), and restores θ from its
//!   checkpoint.
//! - The masterless survivors run a membership-agreement round
//!   coordinated by the lowest live rank (`TAG_RECOVER_REPORT` /
//!   `TAG_RECOVER_AGREE`), re-stitch the ring/tree over the agreed
//!   survivor set, replay the dead rank's shard through the same LPT
//!   partitioner, and rewind their replicated optimizers to the last
//!   in-memory snapshot.

use crate::config::HfConfig;
use crate::engine::{heldout_mean, per_frame, ShardEngine};
use crate::optimizer::{HfOptimizer, IterStats};
use crate::problem::{HeldoutEval, HfProblem, Objective};
use crate::stopping::StopState;
use pdnn_dnn::network::Network;
use pdnn_mpisim::{
    CollElem, Comm, CommError, CommEvent, CommTrace, FaultPlan, HbViolation, Payload, RankOutcome,
    ReduceOp, Src, WireCodec,
};
use pdnn_obs::{InMemoryRecorder, Recorder, RecorderExt, SpanKind, Telemetry};
use pdnn_speech::{partition, Corpus, Shard, Strategy};
use pdnn_tensor::gemm::GemmContext;
use pdnn_util::{Error, PhaseTimer};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const CMD_SHUTDOWN: u64 = 0;
const CMD_SET_THETA: u64 = 1;
const CMD_GRADIENT: u64 = 2;
const CMD_SAMPLE: u64 = 3;
const CMD_GN: u64 = 4;
const CMD_HELDOUT: u64 = 5;
const CMD_FISHER: u64 = 6;
/// Shard-reassignment replay after a worker death (fault recovery).
const CMD_LOAD_DATA: u64 = 7;

/// Tag for the utterance-assignment messages (`load_data`, both the
/// start-up distribution and the recovery replay).
const TAG_LOAD_DATA: u64 = 17;

/// Tag for a survivor's dead-set report to the membership coordinator
/// (masterless recovery).
const TAG_RECOVER_REPORT: u64 = 18;

/// Tag for the coordinator's agreed dead-set broadcast back to the
/// survivors (masterless recovery).
const TAG_RECOVER_AGREE: u64 = 19;

/// How ranks synchronize gradients, curvature products, and weights.
///
/// [`Master`](SyncStrategy::Master) is the paper's one-master
/// architecture (Section IV): rank 0 runs the optimizer and every
/// exchange is a rooted bcast/reduce rendezvousing at the master.
/// [`Ring`](SyncStrategy::Ring) and [`Tree`](SyncStrategy::Tree) are
/// masterless: the world is `workers` peer ranks, each runs a replica
/// of the Hessian-free optimizer in lockstep, and the GRADIENT /
/// GN-product / HELDOUT reductions are symmetric allreduces —
/// bandwidth-optimal ring (reduce-scatter + allgather) or binomial
/// tree — so no phase rendezvouses at rank 0, there are no command
/// headers, no θ broadcasts, and no start-up `load_data` p2p phase.
/// Every decision the replicated optimizers take is a function of
/// bit-identical allreduce results, so all replicas stay bitwise in
/// lockstep (asserted at the end of every run).
///
/// All three strategies support fault plans. `Master` recovers via
/// the coordinator's checkpoint-restart; the masterless modes elect
/// the lowest live rank as a per-failure membership coordinator,
/// re-stitch the ring/tree over the survivors, and rewind their
/// replicated optimizers in lockstep (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncStrategy {
    /// One master, many workers; rooted collectives (the paper's
    /// architecture). Supports fault plans.
    #[default]
    Master,
    /// Masterless replicated optimizer over chunked ring allreduce
    /// (bandwidth-optimal: each rank moves `2(P-1)/P · n` elements,
    /// neighbour-only traffic).
    Ring,
    /// Masterless replicated optimizer over binomial-tree allreduce
    /// (latency-optimal: `2⌈log2 P⌉` rounds).
    Tree,
}

impl SyncStrategy {
    /// Short name for CLI flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            SyncStrategy::Master => "master",
            SyncStrategy::Ring => "ring",
            SyncStrategy::Tree => "tree",
        }
    }

    /// Parse a CLI spelling; the inverse of [`SyncStrategy::name`].
    pub fn parse(s: &str) -> Result<Self, String> {
        [Self::Master, Self::Ring, Self::Tree]
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| format!("unknown sync strategy `{s}` (use master|ring|tree)"))
    }
}

/// Distributed training configuration.
#[derive(Clone, Debug)]
pub struct DistributedConfig {
    /// Number of worker ranks. Under [`SyncStrategy::Master`] the
    /// world size is `workers + 1` (rank 0 is the master); under the
    /// masterless strategies the world size is exactly `workers`.
    pub workers: usize,
    /// How gradients, curvature products, and weights synchronize
    /// across ranks.
    pub sync: SyncStrategy,
    /// Wire-level compression applied to `f32` collective payloads
    /// (gradients, Gv products, θ broadcasts). Orthogonal to `sync`.
    pub wire_codec: WireCodec,
    /// Optimizer configuration.
    pub hf: HfConfig,
    /// Utterance-to-worker assignment strategy (paper Section V.C).
    pub strategy: Strategy,
    /// Fraction of utterances held out for the loss evaluations.
    pub heldout_frac: f64,
    /// rayon threads per rank for the GEMM kernels (the paper's
    /// OpenMP-threads-per-rank).
    pub threads_per_rank: usize,
    /// Snapshot θ every this many completed outer iterations for
    /// fault recovery (`0` keeps only the initial snapshot).
    pub checkpoint_every: usize,
    /// Where to persist snapshots (atomic write-tmp/fsync/rename via
    /// `pdnn_dnn::checkpoint`); recovery then restores θ from disk,
    /// exercising the full checkpoint-restart path. `None` keeps
    /// snapshots in memory only.
    pub checkpoint_path: Option<std::path::PathBuf>,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            workers: 4,
            sync: SyncStrategy::default(),
            wire_codec: WireCodec::None,
            hf: HfConfig::small_task(),
            strategy: Strategy::SortedBalanced,
            heldout_frac: 0.2,
            threads_per_rank: 1,
            checkpoint_every: 0,
            checkpoint_path: None,
        }
    }
}

/// Result of a distributed training run.
///
/// All accounting flows through each rank's `pdnn_obs` recorder (the
/// [`Telemetry`] fields); the [`PhaseTimer`] and [`CommTrace`] fields
/// are derived views kept for convenience and compatibility.
pub struct TrainOutput {
    /// The trained network (reconstructed on the master).
    pub network: Network<f32>,
    /// Per-iteration optimizer statistics.
    pub stats: Vec<IterStats>,
    /// Master communication trace (p2p vs collective split).
    pub master_trace: CommTrace,
    /// Worker communication traces, worker order.
    pub worker_traces: Vec<CommTrace>,
    /// Master compute/coordination phase times (derived from
    /// `master_telemetry` spans).
    pub master_phases: PhaseTimer,
    /// Worker phase times (gradient_loss, worker_curvature_product…),
    /// derived from `worker_telemetries` spans.
    pub worker_phases: Vec<PhaseTimer>,
    /// Full master-rank telemetry: spans, counters, events, comm.
    pub master_telemetry: Telemetry,
    /// Full per-worker telemetry, worker order.
    pub worker_telemetries: Vec<Telemetry>,
    /// Happens-before violations `(rank, violation)` from the
    /// vector-clock tracker. Always empty except under
    /// [`train_distributed_perturbed`], where any entry is a protocol
    /// race.
    pub hb_violations: Vec<(usize, HbViolation)>,
    /// Schedule-perturbation seed the run executed under (`None`
    /// outside [`train_distributed_perturbed`]); also stamped on every
    /// rank's telemetry so JSONL dumps record their schedule.
    pub schedule_seed: Option<u64>,
    /// Ranks the master saw die during the run (fault injection only).
    pub dead_ranks: Vec<usize>,
    /// How many worker failures the master recovered from.
    pub recoveries: usize,
    /// Master-rank comm-event trace (one entry per p2p op outside
    /// collectives, one per collective invocation), in program order.
    /// `pdnn-protomc` replays these through the abstract protocol
    /// automata to check trace conformance.
    pub master_events: Vec<CommEvent>,
    /// Per-worker comm-event traces, worker order.
    pub worker_events: Vec<Vec<CommEvent>>,
}

/// A failure the master observed mid-protocol. The problem stays
/// poisoned (all collectives short-circuit to degraded values) until
/// the training loop takes the fault and decides: recover, or abort.
#[derive(Debug)]
enum TrainFault {
    /// The communication layer failed (dead rank, timeout, …).
    Comm(CommError),
    /// A reduction came back with zero total frames: every worker
    /// contributed an empty batch, so the mean is undefined. The old
    /// `max(1.0)` clamp silently trained on a zero gradient instead.
    ZeroFrames { phase: &'static str },
}

fn fault_error(fault: TrainFault) -> Error {
    match fault {
        TrainFault::Comm(e) => Error::Comm(e.to_string()),
        TrainFault::ZeroFrames { phase } => {
            Error::Train(format!("reduction over zero frames in {phase}"))
        }
    }
}

/// Check a reduced frame count: zero total frames means every rank
/// contributed an empty batch, so the mean is undefined.
fn total_frames(frames: f64, phase: &'static str) -> Result<f64, TrainFault> {
    if frames <= 0.0 {
        return Err(TrainFault::ZeroFrames { phase });
    }
    Ok(frames)
}

/// Mean loss and gradient from a reduced `[Σloss, frames]` and Σgrad.
fn gradient_mean(meta: &[f64], mut grad: Vec<f32>) -> Result<(f64, Vec<f32>), TrainFault> {
    let frames = total_frames(meta[1], "gradient")?;
    per_frame(&mut grad, frames);
    Ok((meta[0] / frames, grad))
}

/// Held-out means from a reduced `[Σloss, Σcorrect, frames]`.
fn heldout_reduced(meta: &[f64]) -> Result<HeldoutEval, TrainFault> {
    total_frames(meta[2], "heldout")?;
    Ok(heldout_mean(meta))
}

/// The [`HfProblem`] operations, for the per-mode span table.
#[derive(Clone, Copy)]
enum Op {
    SetTheta,
    Gradient,
    Sample,
    Curvature,
    Heldout,
}

/// The mode-specific half of a distributed [`HfProblem`]: how this
/// rank produces each global mean — master mode commands the workers
/// and reduces, the masterless modes run their own shard engine and
/// allreduce — and how it recovers from a dead rank. [`Latched`] adds
/// the fault latch both modes share.
trait Aggregator {
    /// Span opened around every call of `op`, faulted or not.
    fn span(op: Op) -> Option<(&'static str, SpanKind)>;
    fn try_set_theta(&mut self, theta: &[f32]) -> Result<(), TrainFault>;
    fn try_gradient(&mut self) -> Result<(f64, Vec<f32>), TrainFault>;
    fn try_sample(&mut self, seed: u64, fraction: f64) -> Result<(), TrainFault>;
    fn try_gn_product(&mut self, v: &[f32]) -> Result<Vec<f32>, TrainFault>;
    fn try_fisher(&mut self) -> Result<Vec<f32>, TrainFault>;
    fn try_heldout(&mut self, theta: &[f32]) -> Result<HeldoutEval, TrainFault>;
    /// The recovery step after `rank` died mid-step: bring the
    /// survivors to an agreed membership and data assignment, and
    /// return the θ to rewind to.
    fn recover(&mut self, rank: usize, snap: &Snapshot) -> Result<Vec<f32>, Error>;
}

/// A distributed rank's [`HfProblem`]: an [`Aggregator`] behind the
/// fault latch. The first fault poisons the problem: every later
/// operation returns a degraded value (NaN losses, zero vectors)
/// without communicating, until the outer loop takes the fault and
/// recovers or aborts.
struct Latched<A> {
    agg: A,
    rec: Arc<InMemoryRecorder>,
    theta: Vec<f32>,
    train_frames: u64,
    /// First unhandled fault.
    fault: Option<TrainFault>,
    /// Without a fault plan a communication error is a harness bug:
    /// fail loudly instead of attempting recovery.
    strict: bool,
}

impl<A: Aggregator> Latched<A> {
    fn new(
        agg: A,
        rec: Arc<InMemoryRecorder>,
        theta: Vec<f32>,
        train_frames: u64,
        strict: bool,
    ) -> Self {
        Latched {
            agg,
            rec,
            theta,
            train_frames,
            fault: None,
            strict,
        }
    }

    /// Run `op` unless poisoned. A failure is recorded and poisons the
    /// problem (the first fault wins: later ones would be consequences
    /// of the degraded values); the caller then gets `degraded`.
    fn latched<T>(
        &mut self,
        op: Op,
        degraded: T,
        f: impl FnOnce(&mut A) -> Result<T, TrainFault>,
    ) -> T {
        let rec = self.rec.clone();
        let _span = A::span(op).map(|(name, kind)| rec.span(name, kind));
        if self.fault.is_some() {
            return degraded;
        }
        let fault = match f(&mut self.agg) {
            Ok(value) => return value,
            Err(fault) => fault,
        };
        match &fault {
            TrainFault::Comm(e) => {
                if self.strict {
                    // pdnn-lint: allow(l3-no-unwrap): without a fault plan a communication error means the simulated world itself is broken; recovery would mask the harness bug
                    panic!("distributed protocol failure: {e}");
                }
                rec.event("comm_fault", vec![("error".into(), e.to_string().into())]);
            }
            TrainFault::ZeroFrames { phase } => {
                rec.event("zero_frames", vec![("phase".into(), (*phase).into())]);
            }
        }
        self.fault = Some(fault);
        degraded
    }
}

impl<A: Aggregator> HfProblem for Latched<A> {
    fn num_params(&self) -> usize {
        self.theta.len()
    }

    fn theta(&self) -> Vec<f32> {
        self.theta.clone()
    }

    fn set_theta(&mut self, theta: &[f32]) {
        self.theta = theta.to_vec();
        self.latched(Op::SetTheta, (), |a| a.try_set_theta(theta));
    }

    fn gradient(&mut self) -> (f64, Vec<f32>) {
        let degraded = (f64::NAN, vec![0.0f32; self.theta.len()]);
        self.latched(Op::Gradient, degraded, A::try_gradient)
    }

    fn sample_curvature(&mut self, seed: u64, fraction: f64) {
        self.latched(Op::Sample, (), |a| a.try_sample(seed, fraction));
    }

    fn gn_product(&mut self, v: &[f32]) -> Vec<f32> {
        self.latched(Op::Curvature, vec![0.0f32; v.len()], |a| {
            a.try_gn_product(v)
        })
    }

    fn fisher_diagonal(&mut self) -> Option<Vec<f32>> {
        self.latched(Op::Curvature, None, |a| a.try_fisher().map(Some))
    }

    fn heldout_eval(&mut self, theta: &[f32]) -> HeldoutEval {
        let degraded = HeldoutEval {
            loss: f64::NAN,
            accuracy: f64::NAN,
            frames: 0,
        };
        self.latched(Op::Heldout, degraded, |a| a.try_heldout(theta))
    }

    fn train_frames(&self) -> u64 {
        self.train_frames
    }
}

/// Which corpus utterances each data slot holds (worker index in
/// master mode, rank in the masterless modes), kept for re-sharding a
/// dead slot's data. Ids are `u64`, the wire format of
/// `TAG_LOAD_DATA`.
#[derive(Clone)]
struct Ledger {
    train: Vec<Vec<u64>>,
    held: Vec<Vec<u64>>,
    /// Frame count of every corpus utterance, for LPT re-partition.
    utt_frames: Vec<usize>,
    strategy: Strategy,
}

impl Ledger {
    /// The start-up assignment over `config.workers` slots: split off
    /// the held-out utterances, then partition both sets by frame
    /// counts (the paper's equal-data objective).
    fn new(corpus: &Corpus, config: &DistributedConfig) -> Self {
        let utt_frames: Vec<usize> = corpus.utterances().iter().map(|u| u.frames()).collect();
        let (train_ids, held_ids) = corpus.split_heldout(config.heldout_frac);
        let assign = |ids: &[usize]| -> Vec<Vec<u64>> {
            let lens: Vec<usize> = ids.iter().map(|&i| utt_frames[i]).collect();
            partition(&lens, config.workers, config.strategy)
                .iter()
                .map(|part| part.iter().map(|&pos| ids[pos] as u64).collect())
                .collect()
        };
        Ledger {
            train: assign(&train_ids),
            held: assign(&held_ids),
            utt_frames,
            strategy: config.strategy,
        }
    }

    /// Total training frames over every slot.
    fn train_frames(&self) -> u64 {
        let frames = |id: &u64| self.utt_frames[*id as usize] as u64;
        self.train.iter().flatten().map(frames).sum()
    }

    /// Slot `slot`'s training and held-out shards.
    fn shards(&self, corpus: &Corpus, slot: usize) -> (Shard, Shard) {
        let ids = |v: &[u64]| -> Vec<usize> { v.iter().map(|&id| id as usize).collect() };
        (
            corpus.shard(&ids(&self.train[slot])),
            corpus.shard(&ids(&self.held[slot])),
        )
    }

    /// Re-partition the dead slot's utterances onto the `live` slots
    /// with the start-up strategy, add them to the ledger, and return
    /// each live slot's extra `(train, held)` ids in `live` order.
    fn reassign(&mut self, dead: usize, live: &[usize]) -> Vec<(Vec<u64>, Vec<u64>)> {
        let orphan_train = std::mem::take(&mut self.train[dead]);
        let orphan_held = std::mem::take(&mut self.held[dead]);
        let split = |orphans: &[u64]| -> Vec<Vec<u64>> {
            let lens: Vec<usize> = orphans
                .iter()
                .map(|&id| self.utt_frames[id as usize])
                .collect();
            partition(&lens, live.len(), self.strategy)
                .iter()
                .map(|part| part.iter().map(|&p| orphans[p]).collect())
                .collect()
        };
        let extra: Vec<(Vec<u64>, Vec<u64>)> = split(&orphan_train)
            .into_iter()
            .zip(split(&orphan_held))
            .collect();
        for (&slot, (t, h)) in live.iter().zip(&extra) {
            self.train[slot].extend(t);
            self.held[slot].extend(h);
        }
        extra
    }
}

/// Master-mode aggregator on rank 0: every operation broadcasts a
/// command header to the workers and reduces their partials.
struct MasterProblem<'a> {
    comm: &'a mut Comm,
    /// Dimension of θ.
    params: usize,
    /// Per-worker assignments: the recovery ledger for re-sharding a
    /// dead worker's data.
    ledger: Ledger,
    /// Where snapshots are persisted, if anywhere.
    checkpoint: Option<&'a Path>,
}

impl MasterProblem<'_> {
    fn command(&mut self, header: Vec<u64>) -> Result<(), CommError> {
        let mut buf = header;
        self.comm.bcast(&mut buf, 0)
    }

    /// Re-partition a dead worker's utterances onto the survivors
    /// (same LPT strategy as start-up) and replay the assignments via
    /// `LOAD_DATA`. The caller has already acknowledged the death, so
    /// the command broadcast reaches exactly the live workers.
    fn try_redistribute(&mut self, dead: usize) -> Result<(), TrainFault> {
        let live: Vec<usize> = (0..self.ledger.train.len())
            .filter(|&w| !self.comm.is_dead(w + 1))
            .collect();
        let extra = self.ledger.reassign(dead, &live);
        self.command(vec![CMD_LOAD_DATA])
            .map_err(TrainFault::Comm)?;
        for (&w, (t, h)) in live.iter().zip(extra) {
            let s1 = self.comm.send(w + 1, TAG_LOAD_DATA, Payload::U64(t));
            let s2 = self.comm.send(w + 1, TAG_LOAD_DATA, Payload::U64(h));
            s1.and(s2).map_err(TrainFault::Comm)?;
        }
        Ok(())
    }
}

impl Aggregator for MasterProblem<'_> {
    fn span(op: Op) -> Option<(&'static str, SpanKind)> {
        let name = match op {
            Op::SetTheta => "sync_weights_master",
            Op::Gradient => "gradient_reduce",
            Op::Sample => "sample_curvature",
            Op::Curvature => "curvature_reduce",
            Op::Heldout => "heldout_reduce",
        };
        Some((name, SpanKind::CommCollective))
    }

    fn try_set_theta(&mut self, theta: &[f32]) -> Result<(), TrainFault> {
        let c = self.command(vec![CMD_SET_THETA]);
        let mut buf = theta.to_vec();
        let b = self.comm.bcast(&mut buf, 0);
        c.and(b).map_err(TrainFault::Comm)
    }

    fn try_gradient(&mut self) -> Result<(f64, Vec<f32>), TrainFault> {
        // Issue every collective of the command before inspecting any
        // error (`Result::and` keeps the first), so master and workers
        // never skew even when an op in the middle fails.
        let c = self.command(vec![CMD_GRADIENT]);
        let mut grad = vec![0.0f32; self.params];
        let r1 = self.comm.reduce(&mut grad, ReduceOp::Sum, 0);
        let mut meta = vec![0.0f64; 2];
        let r2 = self.comm.reduce(&mut meta, ReduceOp::Sum, 0);
        c.and(r1).and(r2).map_err(TrainFault::Comm)?;
        gradient_mean(&meta, grad)
    }

    fn try_sample(&mut self, seed: u64, fraction: f64) -> Result<(), TrainFault> {
        self.command(vec![CMD_SAMPLE, seed, fraction.to_bits()])
            .map_err(TrainFault::Comm)
    }

    fn try_gn_product(&mut self, v: &[f32]) -> Result<Vec<f32>, TrainFault> {
        let c = self.command(vec![CMD_GN]);
        let mut buf = v.to_vec();
        let b = self.comm.bcast(&mut buf, 0);
        let mut gv = vec![0.0f32; v.len()];
        let r1 = self.comm.reduce(&mut gv, ReduceOp::Sum, 0);
        let mut meta = vec![0.0f64; 1];
        let r2 = self.comm.reduce(&mut meta, ReduceOp::Sum, 0);
        c.and(b).and(r1).and(r2).map_err(TrainFault::Comm)?;
        per_frame(&mut gv, total_frames(meta[0], "gn_product")?);
        Ok(gv)
    }

    fn try_fisher(&mut self) -> Result<Vec<f32>, TrainFault> {
        let c = self.command(vec![CMD_FISHER]);
        let mut diag = vec![0.0f32; self.params];
        let r1 = self.comm.reduce(&mut diag, ReduceOp::Sum, 0);
        let mut meta = vec![0.0f64; 1];
        let r2 = self.comm.reduce(&mut meta, ReduceOp::Sum, 0);
        c.and(r1).and(r2).map_err(TrainFault::Comm)?;
        per_frame(&mut diag, total_frames(meta[0], "fisher")?);
        Ok(diag)
    }

    fn try_heldout(&mut self, theta: &[f32]) -> Result<HeldoutEval, TrainFault> {
        let c = self.command(vec![CMD_HELDOUT]);
        let mut buf = theta.to_vec();
        let b = self.comm.bcast(&mut buf, 0);
        let mut meta = vec![0.0f64; 3];
        let r = self.comm.reduce(&mut meta, ReduceOp::Sum, 0);
        c.and(b).and(r).map_err(TrainFault::Comm)?;
        heldout_reduced(&meta)
    }

    /// Acknowledge the death, re-shard the dead worker's data onto the
    /// survivors, and restore θ from the checkpoint.
    fn recover(&mut self, rank: usize, snap: &Snapshot) -> Result<Vec<f32>, Error> {
        self.comm.ack_dead(rank);
        let dead = self.comm.dead_ranks().len();
        self.comm.recorder().gauge_set("dead_workers", dead as f64);
        if dead >= self.ledger.train.len() {
            return Err(Error::Train("no surviving workers".into()));
        }
        self.try_redistribute(rank - 1).map_err(fault_error)?;
        match self.checkpoint {
            Some(path) => Ok(pdnn_dnn::checkpoint::load_network(path)?.to_flat()),
            None => Ok(snap.theta.clone()),
        }
    }
}

/// GEMM context for one rank (the paper's OpenMP threads per rank).
fn rank_ctx(threads: usize) -> GemmContext {
    if threads > 1 {
        GemmContext::threaded(threads)
    } else {
        GemmContext::sequential()
    }
}

/// Run the worker command loop until `SHUTDOWN`: each command arm is
/// one shard-engine call followed by the command's reduce(s).
///
/// All phase accounting goes through the communicator's `pdnn_obs`
/// recorder; the caller collects it from [`RankOutcome::telemetry`].
/// A communication failure (including being killed or evicted by a
/// fault plan) unwinds cleanly as an error — the caller decides
/// whether that is expected (fault injection) or a harness bug.
fn worker_loop(
    comm: &mut Comm,
    corpus: &Corpus,
    objective: &Objective,
    net0: &Network<f32>,
    threads: usize,
) -> Result<(), CommError> {
    let rec = comm.recorder().clone();

    // load_data: receive this worker's utterance assignments. The
    // typed receive surfaces a tag/kind-mismatched sender as a
    // `CommError::TypeMismatch` instead of a payload panic.
    let load_span = rec.span("load_data", SpanKind::CommP2p);
    let mut train_ids: Vec<usize> = comm
        // pdnn-lint: allow(l8-timed-recv): initial rendezvous — the master sends both assignment messages before training starts and faults are only armed at collectives, so blocking here cannot outlive a live master
        .recv_vec::<u64>(Src::Of(0), TAG_LOAD_DATA)?
        .into_iter()
        .map(|v| v as usize)
        .collect();
    let mut held_ids: Vec<usize> = comm
        // pdnn-lint: allow(l8-timed-recv): initial rendezvous — second half of the startup shard transfer, same reasoning as the first receive
        .recv_vec::<u64>(Src::Of(0), TAG_LOAD_DATA)?
        .into_iter()
        .map(|v| v as usize)
        .collect();
    // Weights arrive via SET_THETA before any compute command.
    let mut engine = ShardEngine::new(
        net0.clone(),
        rank_ctx(threads),
        corpus.shard(&train_ids),
        corpus.shard(&held_ids),
        objective.clone(),
        rec.clone(),
    );
    drop(load_span);

    loop {
        let mut header = vec![0u64; 1];
        comm.bcast(&mut header, 0)?;
        match header[0] {
            CMD_SHUTDOWN => break,
            CMD_SET_THETA => {
                let mut theta: Vec<f32> = Vec::new();
                comm.bcast(&mut theta, 0)?;
                {
                    let _s = rec.span("sync_weights_worker", SpanKind::MemoryBound);
                    engine.set_theta(&theta);
                }
                engine.give_back(theta);
            }
            CMD_GRADIENT => {
                let (loss_sum, mut grad, frames) = {
                    let _s = rec.span("gradient_loss", SpanKind::DenseCompute);
                    engine.gradient()
                };
                comm.reduce(&mut grad, ReduceOp::Sum, 0)?;
                let mut meta = vec![loss_sum, frames as f64];
                comm.reduce(&mut meta, ReduceOp::Sum, 0)?;
                engine.give_back(grad);
            }
            CMD_SAMPLE => {
                assert_eq!(header.len(), 3, "SAMPLE header must carry seed+fraction");
                let _s = rec.span("worker_curvature_sample", SpanKind::DenseCompute);
                engine.sample(header[1], f64::from_bits(header[2]), comm.rank());
            }
            CMD_GN => {
                let mut v: Vec<f32> = Vec::new();
                comm.bcast(&mut v, 0)?;
                let (mut gv, frames) = {
                    let _s = rec.span("worker_curvature_product", SpanKind::DenseCompute);
                    engine.gn_product(&v)
                };
                comm.reduce(&mut gv, ReduceOp::Sum, 0)?;
                let mut meta = vec![frames as f64];
                comm.reduce(&mut meta, ReduceOp::Sum, 0)?;
                engine.give_back(gv);
                engine.give_back(v);
                engine.record_arena();
            }
            CMD_FISHER => {
                let (mut diag, frames) = {
                    let _s = rec.span("worker_curvature_product", SpanKind::DenseCompute);
                    engine.fisher_diagonal()
                };
                comm.reduce(&mut diag, ReduceOp::Sum, 0)?;
                let mut meta = vec![frames as f64];
                comm.reduce(&mut meta, ReduceOp::Sum, 0)?;
            }
            CMD_HELDOUT => {
                let mut trial: Vec<f32> = Vec::new();
                comm.bcast(&mut trial, 0)?;
                let (loss_sum, correct, frames) = {
                    let _s = rec.span("eval_heldout", SpanKind::DenseCompute);
                    engine.heldout(&trial)
                };
                let mut meta = vec![loss_sum, correct as f64, frames as f64];
                comm.reduce(&mut meta, ReduceOp::Sum, 0)?;
                engine.give_back(trial);
            }
            CMD_LOAD_DATA => {
                // A peer died: the master re-partitioned its shard and
                // ships this worker its extra utterance assignments.
                // The timed receive keeps recovery itself recoverable:
                // if the master dies mid-redistribute, the worker
                // surfaces Timeout instead of blocking forever.
                let _s = rec.span("load_data", SpanKind::CommP2p);
                let timeout = comm.p2p_timeout();
                let extra_train =
                    comm.recv_vec_timeout::<u64>(Src::Of(0), TAG_LOAD_DATA, timeout)?;
                let extra_held =
                    comm.recv_vec_timeout::<u64>(Src::Of(0), TAG_LOAD_DATA, timeout)?;
                train_ids.extend(extra_train.into_iter().map(|v| v as usize));
                held_ids.extend(extra_held.into_iter().map(|v| v as usize));
                engine.reshard(corpus.shard(&train_ids), corpus.shard(&held_ids));
                rec.counter_add("shard_reassignments", 1);
            }
            // pdnn-lint: allow(l3-no-unwrap): an unknown opcode is a protocol bug between master and worker builds, not a runtime condition to recover from
            other => panic!("unknown command {other}"),
        }
    }
    // Epoch barrier closing the protocol: no rank exits while another
    // may still be mid-collective, so the quiescence check at exit
    // (static p3 / dynamic UnconsumedAtExit) is meaningful.
    comm.barrier()?;
    Ok(())
}

/// Masterless aggregator on every peer rank of the ring/tree modes:
/// this rank's shard engine plus symmetric allreduces. No command
/// headers, no rooted collectives, no p2p.
///
/// Every rank drives its own replicated [`HfOptimizer`]; because ring
/// and tree allreduce return bit-identical results on every rank, the
/// replicas make identical decisions and their θ vectors never
/// diverge.
struct DecentralProblem<'a> {
    comm: &'a mut Comm,
    rec: Arc<InMemoryRecorder>,
    sync: SyncStrategy,
    engine: ShardEngine,
    /// Global frame count of the current curvature sample, agreed by
    /// one f64 allreduce the first time the sample is used (fisher or
    /// first CG product) and reused for every later product on the
    /// same sample — the count cannot change between draws, so the
    /// per-CG-step metadata chaser would be pure collective overhead.
    /// Cleared with the sample (redraw, θ update, re-shard).
    sample_frames: Option<f64>,
    /// Source corpus, for rebuilding shards after a re-partition.
    corpus: &'a Corpus,
    /// Per-rank assignments, replicated on every rank — each survivor
    /// replays the identical LPT re-partition locally, so no ledger
    /// owner can die.
    ledger: Ledger,
    /// Window of the membership-agreement round.
    recover_timeout: Duration,
}

impl DecentralProblem<'_> {
    /// Sum-allreduce under the configured masterless strategy.
    fn sync<T: CollElem>(&mut self, buf: &mut [T]) -> Result<(), CommError> {
        match self.sync {
            SyncStrategy::Ring => self.comm.allreduce_ring(buf, ReduceOp::Sum),
            _ => self.comm.allreduce_tree(buf, ReduceOp::Sum),
        }
    }

    /// Bitmap of this rank's locally observed dead set (acknowledged
    /// or not).
    fn dead_bitmap(&self) -> u64 {
        debug_assert!(
            self.comm.size() <= 64,
            "membership bitmap holds at most 64 ranks"
        );
        self.comm
            .dead_ranks()
            .iter()
            .fold(0u64, |acc, &r| acc | (1u64 << r))
    }

    /// Membership-agreement round: every survivor reports its locally
    /// observed dead set to a coordinator — the lowest rank it does
    /// not know to be dead — which unions the reports and sends the
    /// agreed set back. Deterministic: the coordinator is a pure
    /// function of the dead set, reports are collected in ascending
    /// rank order, and the agreed bitmap is identical on every
    /// survivor.
    ///
    /// Survivors abort the failed collective up to one detect-timeout
    /// apart, so this round runs under the generous `timeout`
    /// (the plan's worker timeout); once AGREE lands everybody is
    /// re-synchronized to within one hop and the re-stitched
    /// collectives can safely use the short detect-timeout again. A
    /// reporter that stays silent past the window is evicted and
    /// folded into the agreed set; a dead coordinator makes the
    /// survivors retry under the next candidate.
    fn agree_membership(&mut self, timeout: Duration) -> Result<u64, TrainFault> {
        loop {
            let me = self.comm.rank();
            let Some(coord) = (0..self.comm.size()).find(|&r| !self.comm.is_dead(r)) else {
                return Err(TrainFault::Comm(CommError::WorldShutDown));
            };
            if coord == me {
                let mut union = self.dead_bitmap();
                for src in 0..self.comm.size() {
                    if src == me || self.comm.is_dead(src) {
                        continue;
                    }
                    match self.comm.recv_vec_timeout::<u64>(
                        Src::Of(src),
                        TAG_RECOVER_REPORT,
                        timeout,
                    ) {
                        Ok(bits) => union |= bits.first().copied().unwrap_or(0),
                        Err(CommError::RankDead { rank }) => union |= 1u64 << rank,
                        Err(CommError::Timeout) => {
                            self.comm.evict(src);
                            union |= 1u64 << src;
                        }
                        Err(e) => return Err(TrainFault::Comm(e)),
                    }
                }
                for dst in 0..self.comm.size() {
                    if dst == me || union & (1u64 << dst) != 0 {
                        continue;
                    }
                    self.comm
                        .send(dst, TAG_RECOVER_AGREE, Payload::U64(vec![union]))
                        .map_err(TrainFault::Comm)?;
                }
                return Ok(union);
            }
            self.comm
                .send(
                    coord,
                    TAG_RECOVER_REPORT,
                    Payload::U64(vec![self.dead_bitmap()]),
                )
                .map_err(TrainFault::Comm)?;
            match self
                .comm
                .recv_vec_timeout::<u64>(Src::Of(coord), TAG_RECOVER_AGREE, timeout)
            {
                Ok(bits) => return Ok(bits.first().copied().unwrap_or(0)),
                Err(CommError::RankDead { .. }) => {
                    // Already marked dead by the receive path; the next
                    // pass picks the next candidate coordinator.
                }
                Err(CommError::Timeout) => self.comm.evict(coord),
                Err(e) => return Err(TrainFault::Comm(e)),
            }
        }
    }

    /// Peer-coordinated recovery after a collective aborted on a dead
    /// rank: agree on membership, acknowledge every agreed death, and
    /// re-partition each dead rank's shard onto the survivors with the
    /// same LPT strategy as start-up.
    ///
    /// Every survivor replays the identical re-partition from its
    /// replicated ledger, and the coordinator *also* ships each
    /// survivor its extras over `TAG_LOAD_DATA` — the same wire
    /// exchange as master-mode `CMD_LOAD_DATA` recovery — which
    /// doubles as a cross-check that the replicas agree on the new
    /// assignment.
    fn reshard_survivors(&mut self) -> Result<(), TrainFault> {
        let timeout = self.recover_timeout;
        let union = self.agree_membership(timeout)?;
        let unacked = self.comm.unacked_dead();
        let newly: Vec<usize> = (0..self.comm.size())
            .filter(|&r| union & (1u64 << r) != 0)
            .filter(|&r| unacked.contains(&r) || !self.comm.is_dead(r))
            .collect();
        for &r in &newly {
            self.comm.ack_dead(r);
        }
        let me = self.comm.rank();
        for &d in &newly {
            let live: Vec<usize> = (0..self.comm.size())
                .filter(|&r| !self.comm.is_dead(r))
                .collect();
            let extra = self.ledger.reassign(d, &live);
            let coord = live[0];
            if me == coord {
                for (&w, (t, h)) in live.iter().zip(&extra).skip(1) {
                    let s1 = self.comm.send(w, TAG_LOAD_DATA, Payload::U64(t.clone()));
                    let s2 = self.comm.send(w, TAG_LOAD_DATA, Payload::U64(h.clone()));
                    s1.and(s2).map_err(TrainFault::Comm)?;
                }
            } else {
                let t = self
                    .comm
                    .recv_vec_timeout::<u64>(Src::Of(coord), TAG_LOAD_DATA, timeout)
                    .map_err(TrainFault::Comm)?;
                let h = self
                    .comm
                    .recv_vec_timeout::<u64>(Src::Of(coord), TAG_LOAD_DATA, timeout)
                    .map_err(TrainFault::Comm)?;
                let mine = live.iter().position(|&w| w == me).map(|i| &extra[i]);
                assert!(
                    mine == Some(&(t, h)),
                    "replicated re-partition diverged from the coordinator's"
                );
            }
            self.rec.counter_add("shard_reassignments", 1);
        }
        if !newly.is_empty() {
            // Rebuild this rank's shards from the updated ledger; the
            // cached curvature sample belongs to the pre-failure θ and
            // shard.
            let (train, heldout) = self.ledger.shards(self.corpus, me);
            self.engine.reshard(train, heldout);
            self.sample_frames = None;
        }
        Ok(())
    }

    /// Global frame count of the current curvature sample: the cached
    /// agreement if one exists, else one f64 metadata allreduce whose
    /// result is cached until the sample changes.
    fn sample_frames_total(&mut self, local: f64, phase: &'static str) -> Result<f64, TrainFault> {
        let total = match self.sample_frames {
            Some(t) => t,
            None => {
                let mut meta = vec![local];
                self.sync(&mut meta).map_err(TrainFault::Comm)?;
                self.sample_frames = Some(meta[0]);
                meta[0]
            }
        };
        total_frames(total, phase)
    }

    /// Allreduce a curvature-sample partial `(Σ, frames)` and divide by
    /// the sample's global frame count.
    fn curvature_mean(
        &mut self,
        (mut sum, frames): (Vec<f32>, usize),
        phase: &'static str,
    ) -> Result<Vec<f32>, TrainFault> {
        let rec = self.rec.clone();
        let _span = rec.span("curvature_allreduce", SpanKind::CommCollective);
        self.sync(&mut sum).map_err(TrainFault::Comm)?;
        per_frame(&mut sum, self.sample_frames_total(frames as f64, phase)?);
        Ok(sum)
    }
}

impl Aggregator for DecentralProblem<'_> {
    fn span(op: Op) -> Option<(&'static str, SpanKind)> {
        matches!(op, Op::SetTheta).then_some(("sync_weights_replicated", SpanKind::MemoryBound))
    }

    fn try_set_theta(&mut self, theta: &[f32]) -> Result<(), TrainFault> {
        // Replicated state: every rank applies the identical update
        // locally. Zero communication — this is the masterless win
        // over the Master-mode θ broadcast.
        self.engine.set_theta(theta);
        self.sample_frames = None;
        Ok(())
    }

    fn try_gradient(&mut self) -> Result<(f64, Vec<f32>), TrainFault> {
        let rec = self.rec.clone();
        let (loss_sum, mut grad, frames) = {
            let _s = rec.span("gradient_loss", SpanKind::DenseCompute);
            self.engine.gradient()
        };
        let _span = rec.span("gradient_allreduce", SpanKind::CommCollective);
        let r1 = self.sync(&mut grad);
        let mut meta = vec![loss_sum, frames as f64];
        let r2 = self.sync(&mut meta);
        r1.and(r2).map_err(TrainFault::Comm)?;
        gradient_mean(&meta, grad)
    }

    fn try_sample(&mut self, seed: u64, fraction: f64) -> Result<(), TrainFault> {
        self.sample_frames = None;
        let _s = self
            .rec
            .span("worker_curvature_sample", SpanKind::DenseCompute);
        self.engine.sample(seed, fraction, self.comm.rank());
        Ok(())
    }

    fn try_gn_product(&mut self, v: &[f32]) -> Result<Vec<f32>, TrainFault> {
        let partial = {
            let _s = self
                .rec
                .span("worker_curvature_product", SpanKind::DenseCompute);
            self.engine.gn_product(v)
        };
        self.curvature_mean(partial, "gn_product")
    }

    fn try_fisher(&mut self) -> Result<Vec<f32>, TrainFault> {
        let partial = {
            let _s = self
                .rec
                .span("worker_curvature_product", SpanKind::DenseCompute);
            self.engine.fisher_diagonal()
        };
        self.curvature_mean(partial, "fisher")
    }

    fn try_heldout(&mut self, theta: &[f32]) -> Result<HeldoutEval, TrainFault> {
        let rec = self.rec.clone();
        let (loss_sum, correct, frames) = {
            let _s = rec.span("eval_heldout", SpanKind::DenseCompute);
            self.engine.heldout(theta)
        };
        let mut meta = [loss_sum, correct as f64, frames as f64];
        let _span = rec.span("heldout_allreduce", SpanKind::CommCollective);
        self.sync(&mut meta).map_err(TrainFault::Comm)?;
        heldout_reduced(&meta)
    }

    /// Agree on the survivors, re-shard, and rewind to the in-memory
    /// snapshot: every rank restores its own replica of θ, so there is
    /// no checkpoint file to race on and nothing to ship.
    fn recover(&mut self, _rank: usize, snap: &Snapshot) -> Result<Vec<f32>, Error> {
        self.reshard_survivors().map_err(fault_error)?;
        self.rec
            .gauge_set("dead_workers", self.comm.dead_ranks().len() as f64);
        Ok(snap.theta.clone())
    }
}

/// θ snapshot a rank can rewind to after a rank failure — the
/// master's checkpoint-restart anchor, or every masterless replica's
/// in-memory rewind point.
struct Snapshot {
    iter: usize,
    theta: Vec<f32>,
    lambda: f64,
}

/// The outer training loop of every rank that runs the optimizer:
/// master mode's rank 0 and every masterless peer.
///
/// Drives the identical [`HfOptimizer::step`] sequence as
/// [`HfOptimizer::train`]; a run that observes no fault is op-for-op
/// (and telemetry-byte-for-byte) identical to it. θ is snapshotted
/// every `checkpoint_every` iterations, and also saved to disk when
/// `checkpoint` names a path and the network shape. When a step
/// surfaces a dead rank, the mode's recovery step runs, θ rewinds to
/// the last snapshot, the optimizer is rebuilt at the snapshot's
/// damping level, and training replays from the snapshot iteration.
/// Sample seeds are a pure function of the iteration index, so the
/// replay is bit-deterministic.
fn train_loop<A: Aggregator>(
    problem: &mut Latched<A>,
    config: &DistributedConfig,
    checkpoint: Option<(&Path, &Network<f32>)>,
) -> (Result<Vec<IterStats>, Error>, usize) {
    let hf = config.hf;
    let rec = problem.rec.clone();
    let save = |snap: &Snapshot| match checkpoint {
        Some((path, net0)) => {
            let mut net = net0.clone();
            net.set_flat(&snap.theta);
            pdnn_dnn::checkpoint::save_network(&net, path)
        }
        None => Ok(()),
    };
    let mut opt = HfOptimizer::with_recorder(hf, rec.clone());
    let mut rule = hf.stop;
    if rule.target_loss.is_none() {
        rule.target_loss = hf.target_heldout_loss;
    }
    let mut stop = StopState::new(rule);
    let mut stats: Vec<IterStats> = Vec::with_capacity(hf.max_iters);
    let mut snap = Snapshot {
        iter: 0,
        theta: problem.theta(),
        lambda: opt.lambda(),
    };
    if let Err(e) = save(&snap) {
        return (Err(e), 0);
    }
    let mut recoveries = 0usize;
    let mut iter = 0usize;
    while iter < hf.max_iters {
        let s = opt.step(problem, iter);
        match problem.fault.take() {
            None => {
                let reason = stop.observe(s.heldout_before, s.heldout_after);
                stats.push(s);
                iter += 1;
                if config.checkpoint_every > 0 && iter.is_multiple_of(config.checkpoint_every) {
                    snap = Snapshot {
                        iter,
                        theta: problem.theta(),
                        lambda: opt.lambda(),
                    };
                    if let Err(e) = save(&snap) {
                        return (Err(e), recoveries);
                    }
                }
                if reason.is_some() {
                    break;
                }
            }
            Some(TrainFault::Comm(CommError::RankDead { rank })) => {
                let _span = rec.span("recovery", SpanKind::Scalar);
                rec.event(
                    "worker_failure",
                    vec![
                        ("rank".into(), (rank as u64).into()),
                        ("iter".into(), (iter as u64).into()),
                    ],
                );
                let theta = match problem.agg.recover(rank, &snap) {
                    Ok(theta) => theta,
                    Err(e) => return (Err(e), recoveries),
                };
                // Replay θ. If a further rank dies during the replay,
                // the problem re-poisons and the next loop iteration
                // recovers again.
                problem.set_theta(&theta);
                opt = HfOptimizer::resume_with_recorder(hf, snap.lambda, rec.clone());
                stop = StopState::new(rule);
                stats.truncate(snap.iter);
                // Re-feed the surviving history so patience/target
                // stopping sees the same sequence an undisturbed run
                // would have.
                for s in &stats {
                    let _ = stop.observe(s.heldout_before, s.heldout_after);
                }
                iter = snap.iter;
                recoveries += 1;
                rec.counter_add("recoveries", 1);
                rec.event(
                    "recovery_complete",
                    vec![("resume_iter".into(), (iter as u64).into())],
                );
            }
            Some(fault) => return (Err(fault_error(fault)), recoveries),
        }
    }
    (Ok(stats), recoveries)
}

/// Close a rank's training: a death first discovered at the closing
/// collectives still reports `RankDead`, which is tolerable at
/// teardown — training already finished.
fn finish(
    result: Result<Vec<IterStats>, Error>,
    closing: Result<(), CommError>,
) -> Result<Vec<IterStats>, Error> {
    result.and_then(|stats| match closing {
        Ok(()) | Err(CommError::RankDead { .. }) => Ok(stats),
        Err(e) => Err(Error::Comm(e.to_string())),
    })
}

/// Train a network with distributed Hessian-free optimization.
///
/// Spawns `config.workers + 1` ranks (threads): rank 0 runs the
/// optimizer, ranks 1.. run the worker loop.
pub fn train_distributed(
    net0: &Network<f32>,
    corpus: &Corpus,
    objective: &Objective,
    config: &DistributedConfig,
) -> Result<TrainOutput, Error> {
    train_impl(net0, corpus, objective, config, WorldMode::Normal)
}

/// [`train_distributed`] with every rank's telemetry clock frozen at a
/// shared simulated instant (see
/// [`pdnn_mpisim::run_world_deterministic`]): numerically identical
/// training, but two identical runs produce byte-identical telemetry
/// (spans, counters, events, comm traces). Used by the determinism
/// integration test and by figure pipelines that diff telemetry across
/// commits.
pub fn train_distributed_deterministic(
    net0: &Network<f32>,
    corpus: &Corpus,
    objective: &Objective,
    config: &DistributedConfig,
) -> Result<TrainOutput, Error> {
    train_impl(net0, corpus, objective, config, WorldMode::Deterministic)
}

/// [`train_distributed_deterministic`] under a seeded schedule
/// perturbation (see [`pdnn_mpisim::run_world_perturbed`]): message
/// delivery and rank progress are jittered within MPI-legal
/// reorderings and every rank runs a vector-clock happens-before
/// tracker. A schedule-independent protocol produces bit-identical
/// weights and telemetry for every `seed` and an empty
/// [`TrainOutput::hb_violations`]; `pdnn-protocheck` pass 2 sweeps K
/// seeds asserting exactly that.
pub fn train_distributed_perturbed(
    net0: &Network<f32>,
    corpus: &Corpus,
    objective: &Objective,
    config: &DistributedConfig,
    seed: u64,
) -> Result<TrainOutput, Error> {
    train_impl(net0, corpus, objective, config, WorldMode::Perturbed(seed))
}

/// [`train_distributed_deterministic`] under a seeded [`FaultPlan`]
/// (see [`pdnn_mpisim::run_world_faulted`]): ranks can be killed,
/// stalled, or have messages dropped at plan-chosen points. Under
/// [`SyncStrategy::Master`] the master recovers by re-sharding onto
/// the survivors and replaying from the last checkpoint; under the
/// masterless modes the survivors run the peer-coordinated
/// membership-agreement round, re-stitch the ring/tree, re-shard, and
/// rewind their replicated optimizers in lockstep. Either way, two
/// runs under the same plan produce bit-identical weights and
/// byte-identical telemetry. (Stall and message-drop faults are
/// best-effort in the masterless modes: the protocol only guarantees
/// recovery for kills, which is what the test suite exercises.)
pub fn train_distributed_faulted(
    net0: &Network<f32>,
    corpus: &Corpus,
    objective: &Objective,
    config: &DistributedConfig,
    plan: &FaultPlan,
) -> Result<TrainOutput, Error> {
    train_impl(
        net0,
        corpus,
        objective,
        config,
        WorldMode::Faulted(plan.clone()),
    )
}

/// How the rank world is built and scheduled.
#[derive(Clone)]
enum WorldMode {
    /// Real clocks, unperturbed schedule.
    Normal,
    /// Frozen shared telemetry clock (byte-identical reruns).
    Deterministic,
    /// Frozen clock plus seeded schedule perturbation + HB tracking.
    Perturbed(u64),
    /// Frozen clock plus deterministic fault injection + recovery.
    Faulted(FaultPlan),
}

/// What a rank that ran the optimizer hands back through the world
/// runner: the outcome, its final θ (for the replica-agreement check),
/// and its view of the fault history.
struct RankOut {
    result: Result<Vec<IterStats>, Error>,
    theta: Vec<f32>,
    dead_ranks: Vec<usize>,
    recoveries: usize,
}

fn train_impl(
    net0: &Network<f32>,
    corpus: &Corpus,
    objective: &Objective,
    config: &DistributedConfig,
    mode: WorldMode,
) -> Result<TrainOutput, Error> {
    assert!(config.workers >= 1, "need at least one worker");
    config.hf.validate();

    let ledger = Ledger::new(corpus, config);
    let train_frames = ledger.train_frames();
    let theta0 = net0.to_flat();
    let master = config.sync == SyncStrategy::Master;
    let faulted = matches!(mode, WorldMode::Faulted(_));
    let recover_timeout = match &mode {
        WorldMode::Faulted(plan) => plan.worker_timeout,
        _ => Duration::from_secs(60),
    };
    let body = |comm: &mut Comm| -> Option<RankOut> {
        comm.set_wire_codec(config.wire_codec);
        let rec = comm.recorder().clone();
        if !master {
            // ---- masterless peer ----
            // Every rank derives its shard from the shared deterministic
            // partition — nothing is shipped point-to-point.
            let (train, heldout) = ledger.shards(corpus, comm.rank());
            let engine = ShardEngine::new(
                net0.clone(),
                rank_ctx(config.threads_per_rank),
                train,
                heldout,
                objective.clone(),
                rec.clone(),
            );
            let peer = DecentralProblem {
                comm,
                rec: rec.clone(),
                sync: config.sync,
                engine,
                sample_frames: None,
                corpus,
                ledger: ledger.clone(),
                recover_timeout,
            };
            let mut problem =
                Latched::new(peer, rec.clone(), theta0.clone(), train_frames, !faulted);
            let (result, recoveries) = train_loop(&mut problem, config, None);
            // Quiescence barrier closing the protocol, as in Master
            // mode.
            let result = finish(result, problem.agg.comm.barrier());
            if faulted {
                if let Err(e) = &result {
                    rec.event(
                        "worker_comm_abort",
                        vec![("error".into(), e.to_string().into())],
                    );
                }
            }
            return Some(RankOut {
                result,
                theta: problem.theta,
                dead_ranks: problem.agg.comm.dead_ranks().to_vec(),
                recoveries,
            });
        }
        if comm.rank() == 0 {
            // ---- master ----
            // load_data: ship each worker its utterance id lists.
            let load_span = rec.span("load_data", SpanKind::CommP2p);
            for w in 0..config.workers {
                let s1 = comm.send(w + 1, TAG_LOAD_DATA, Payload::U64(ledger.train[w].clone()));
                let s2 = comm.send(w + 1, TAG_LOAD_DATA, Payload::U64(ledger.held[w].clone()));
                if let Err(e) = s1.and(s2) {
                    // pdnn-lint: allow(l3-no-unwrap): a start-up send can only fail if a worker vanished before training began; under a fault plan sends never error, so this is a harness bug either way
                    panic!("load_data send to worker {w} failed: {e}");
                }
            }
            drop(load_span);

            let checkpoint = config.checkpoint_path.as_deref();
            let coordinator = MasterProblem {
                comm,
                params: theta0.len(),
                ledger: ledger.clone(),
                checkpoint,
            };
            let mut problem = Latched::new(
                coordinator,
                rec.clone(),
                theta0.clone(),
                train_frames,
                !faulted,
            );
            // Distribute the initial weights.
            problem.set_theta(&theta0);

            // The optimizer shares the master rank's recorder, so its
            // spans/events land in the same per-rank telemetry stream.
            let (result, recoveries) =
                train_loop(&mut problem, config, checkpoint.map(|path| (path, net0)));
            let shutdown = problem.agg.command(vec![CMD_SHUTDOWN]);
            // Matching half of the workers' shutdown barrier.
            let barrier = problem.agg.comm.barrier();
            Some(RankOut {
                result: finish(result, shutdown.and(barrier)),
                theta: problem.theta,
                dead_ranks: problem.agg.comm.dead_ranks().to_vec(),
                recoveries,
            })
        } else {
            // ---- worker ----
            if let Err(e) = worker_loop(comm, corpus, objective, net0, config.threads_per_rank) {
                if faulted {
                    // Expected under a fault plan: this rank was
                    // killed, evicted, or orphaned by a peer's death.
                    rec.event(
                        "worker_comm_abort",
                        vec![("error".into(), e.to_string().into())],
                    );
                } else {
                    // pdnn-lint: allow(l3-no-unwrap): without a fault plan a worker-side communication failure is a harness bug, and unwinding the whole world is the loud failure we want
                    panic!("worker communication failure: {e}");
                }
            }
            None
        }
    };
    let world = config.workers + usize::from(master);
    let outcomes: Vec<RankOutcome<Option<RankOut>>> = match &mode {
        WorldMode::Normal => pdnn_mpisim::run_world(world, body),
        WorldMode::Deterministic => pdnn_mpisim::run_world_deterministic(world, body),
        WorldMode::Perturbed(seed) => pdnn_mpisim::run_world_perturbed(world, *seed, body),
        WorldMode::Faulted(plan) => pdnn_mpisim::run_world_faulted(world, plan, body),
    };
    let schedule_seed = match &mode {
        WorldMode::Perturbed(seed) => Some(*seed),
        _ => None,
    };

    let mut master_trace = CommTrace::default();
    let mut master_telemetry = Telemetry::default();
    let mut master_events = Vec::new();
    let mut worker_traces = Vec::new();
    let mut worker_telemetries = Vec::new();
    let mut worker_events = Vec::new();
    let mut hb_violations = Vec::new();
    let mut rank_outs: Vec<(usize, RankOut)> = Vec::with_capacity(outcomes.len());
    for mut outcome in outcomes {
        outcome.telemetry.schedule_seed = schedule_seed;
        hb_violations.extend(outcome.hb.into_iter().map(|v| (outcome.rank, v)));
        if outcome.rank == 0 {
            master_trace = outcome.trace;
            master_telemetry = outcome.telemetry;
            master_events = outcome.events;
        } else {
            worker_traces.push(outcome.trace);
            worker_telemetries.push(outcome.telemetry);
            worker_events.push(outcome.events);
        }
        if let Some(out) = outcome.result {
            rank_outs.push((outcome.rank, out));
        }
    }
    rank_outs.sort_by_key(|(rank, _)| *rank);
    if rank_outs.is_empty() {
        return Err(Error::Train("no rank produced training output".into()));
    }
    // The reference replica is the lowest rank that finished cleanly
    // (a kill victim exits early with an error and carries stale θ);
    // in master mode that is the master, the only rank reporting.
    // Every other clean rank must match it bitwise — any drift is a
    // determinism bug in the allreduce or recovery layer.
    let reference = rank_outs
        .iter()
        .position(|(_, o)| o.result.is_ok())
        .unwrap_or(0);
    let ref_rank = rank_outs[reference].0;
    for (rank, out) in &rank_outs {
        if *rank != ref_rank && out.result.is_ok() && out.theta != rank_outs[reference].1.theta {
            return Err(Error::Train(format!(
                "replicated optimizers diverged: rank {rank} θ differs from rank {ref_rank}"
            )));
        }
    }
    let (_, out) = rank_outs.swap_remove(reference);
    let stats = out.result?;
    let mut network = net0.clone();
    network.set_flat(&out.theta);

    let master_phases = master_telemetry.phase_totals();
    let worker_phases = worker_telemetries
        .iter()
        .map(Telemetry::phase_totals)
        .collect();
    Ok(TrainOutput {
        network,
        stats,
        master_trace,
        worker_traces,
        master_phases,
        worker_phases,
        master_telemetry,
        worker_telemetries,
        hb_violations,
        schedule_seed,
        dead_ranks: out.dead_ranks,
        recoveries: out.recoveries,
        master_events,
        worker_events,
    })
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]
mod tests {
    use super::*;
    use pdnn_speech::CorpusSpec;
    use pdnn_util::Prng;

    fn small_corpus(seed: u64) -> Corpus {
        Corpus::generate(CorpusSpec::tiny(seed))
    }

    fn small_net(corpus: &Corpus, seed: u64) -> Network<f32> {
        let mut rng = Prng::new(seed);
        Network::new(
            &[corpus.spec().feature_dim, 12, corpus.spec().states],
            pdnn_dnn::Activation::Sigmoid,
            &mut rng,
        )
    }

    #[test]
    fn distributed_training_improves_heldout_accuracy() {
        let corpus = small_corpus(3);
        let net0 = small_net(&corpus, 1);
        let mut config = DistributedConfig::default();
        config.workers = 3;
        config.hf.max_iters = 8;
        let out = train_distributed(&net0, &corpus, &Objective::CrossEntropy, &config).unwrap();
        assert_eq!(out.stats.len(), 8);
        assert_eq!(out.dead_ranks, Vec::<usize>::new());
        assert_eq!(out.recoveries, 0);
        let first_acc = out
            .stats
            .iter()
            .find(|s| s.accepted)
            .map(|s| s.heldout_accuracy)
            .expect("at least one accepted step");
        let last = out.stats.iter().rev().find(|s| s.accepted).unwrap();
        assert!(
            last.heldout_accuracy >= first_acc,
            "accuracy regressed: {first_acc} -> {}",
            last.heldout_accuracy
        );
        assert!(
            last.heldout_accuracy > 0.5,
            "final accuracy {}",
            last.heldout_accuracy
        );
        // The trained network must differ from the initial one.
        assert_ne!(out.network.to_flat(), net0.to_flat());
    }

    #[test]
    fn worker_count_does_not_change_the_math() {
        // Distributed gradients are sums over a partition of the same
        // data: results for 1 worker and 4 workers must agree to f32
        // reduction tolerance, and both must match the serial problem.
        use crate::problem::DnnProblem;
        let corpus = small_corpus(5);
        let net0 = small_net(&corpus, 2);

        // Serial reference.
        let (train_ids, held_ids) = corpus.split_heldout(0.2);
        let mut serial = DnnProblem::new(
            net0.clone(),
            GemmContext::sequential(),
            corpus.shard(&train_ids),
            corpus.shard(&held_ids),
            Objective::CrossEntropy,
        );
        let (serial_loss, serial_grad) = serial.gradient();

        for workers in [1usize, 2, 4] {
            let config = DistributedConfig {
                workers,
                heldout_frac: 0.2,
                ..Default::default()
            };
            // Capture the first gradient via a one-iteration run's
            // recorded train loss.
            let mut cfg = config.clone();
            cfg.hf.max_iters = 1;
            let out = train_distributed(&net0, &corpus, &Objective::CrossEntropy, &cfg).unwrap();
            let s = &out.stats[0];
            assert!(
                (s.train_loss - serial_loss).abs() < 1e-4,
                "workers={workers}: loss {} vs serial {serial_loss}",
                s.train_loss
            );
            assert!(
                (s.grad_norm - pdnn_tensor::blas1::nrm2(&serial_grad)).abs() < 1e-4,
                "workers={workers}: grad norm {} vs {}",
                s.grad_norm,
                pdnn_tensor::blas1::nrm2(&serial_grad)
            );
        }
    }

    #[test]
    fn sequence_objective_trains_distributed() {
        let corpus = small_corpus(7);
        let net0 = small_net(&corpus, 3);
        let objective = Objective::Sequence(corpus.denominator_graph());
        let mut config = DistributedConfig::default();
        config.workers = 2;
        config.hf.max_iters = 4;
        let out = train_distributed(&net0, &corpus, &objective, &config).unwrap();
        let accepted: Vec<_> = out.stats.iter().filter(|s| s.accepted).collect();
        assert!(!accepted.is_empty(), "no accepted steps");
        let first = accepted.first().unwrap();
        let last = accepted.last().unwrap();
        assert!(
            last.heldout_after <= first.heldout_before,
            "sequence loss did not improve: {} -> {}",
            first.heldout_before,
            last.heldout_after
        );
    }

    #[test]
    fn traces_show_master_collective_and_p2p_traffic() {
        let corpus = small_corpus(9);
        let net0 = small_net(&corpus, 4);
        let mut config = DistributedConfig::default();
        config.workers = 3;
        config.hf.max_iters = 2;
        let out = train_distributed(&net0, &corpus, &Objective::CrossEntropy, &config).unwrap();
        // Master: p2p bytes from load_data, collective bytes from the
        // command/theta broadcasts and reduces.
        assert!(out.master_trace.p2p.bytes_sent > 0, "no load_data traffic");
        assert!(out.master_trace.collective.bytes_sent > 0);
        assert_eq!(out.worker_traces.len(), 3);
        for (w, t) in out.worker_traces.iter().enumerate() {
            assert!(t.p2p.bytes_received > 0, "worker {w} got no assignment");
            assert!(t.collective.bytes_received > 0);
        }
        // Worker phases contain the paper's function names.
        for phases in &out.worker_phases {
            assert!(phases.get("gradient_loss").calls > 0);
            assert!(phases.get("eval_heldout").calls > 0);
            assert!(phases.get("sync_weights_worker").calls > 0);
        }
        assert!(out.master_phases.get("sync_weights_master").calls > 0);
        assert!(out.master_phases.get("load_data").calls > 0);
        // Telemetry is the source of truth: the derived views agree
        // with it, and the optimizer's stream landed on the master.
        assert_eq!(out.master_telemetry.comm, out.master_trace);
        assert_eq!(
            out.master_telemetry.counter("hf_iterations"),
            out.stats.len() as u64
        );
        let events: Vec<_> = out
            .master_telemetry
            .events
            .iter()
            .filter(|e| e.name == "hf_iteration")
            .collect();
        assert_eq!(events.len(), out.stats.len());
        assert_eq!(out.worker_telemetries.len(), 3);
        for (w, t) in out.worker_telemetries.iter().enumerate() {
            assert_eq!(&t.comm, &out.worker_traces[w]);
            assert!(t.spans.iter().any(|s| s.name() == "gradient_loss"));
            assert!(t.spans.iter().any(|s| s.name() == "bcast"));
        }
    }

    #[test]
    fn perturbed_schedule_matches_deterministic_run() {
        let corpus = small_corpus(13);
        let net0 = small_net(&corpus, 6);
        let mut config = DistributedConfig::default();
        config.workers = 3;
        config.hf.max_iters = 2;
        let baseline =
            train_distributed_deterministic(&net0, &corpus, &Objective::CrossEntropy, &config)
                .unwrap();
        assert!(baseline.hb_violations.is_empty());
        assert_eq!(baseline.schedule_seed, None);
        for seed in [1u64, 99] {
            let out = train_distributed_perturbed(
                &net0,
                &corpus,
                &Objective::CrossEntropy,
                &config,
                seed,
            )
            .unwrap();
            assert_eq!(
                out.hb_violations,
                vec![],
                "seed {seed}: happens-before violations"
            );
            assert_eq!(out.schedule_seed, Some(seed));
            assert_eq!(out.master_telemetry.schedule_seed, Some(seed));
            // Bit-identical weights: the protocol is schedule-independent.
            assert_eq!(
                out.network.to_flat(),
                baseline.network.to_flat(),
                "seed {seed}: weights diverged under perturbation"
            );
        }
    }

    #[test]
    fn more_workers_than_utterances_still_works() {
        let mut spec = CorpusSpec::tiny(11);
        spec.utterances = 3;
        let corpus = Corpus::generate(spec);
        let net0 = small_net(&corpus, 5);
        let mut config = DistributedConfig::default();
        config.workers = 6; // some workers get empty shards
        config.hf.max_iters = 2;
        let out = train_distributed(&net0, &corpus, &Objective::CrossEntropy, &config).unwrap();
        assert_eq!(out.stats.len(), 2);
        assert!(out.stats.iter().all(|s| s.train_loss.is_finite()));
    }
}
