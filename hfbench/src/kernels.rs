//! Standalone timings of single layers at a workload's shapes: GEMM,
//! the network kernels, the MMI criterion, the mpisim collectives and
//! the telemetry recorder, each called through its public API.

use crate::workload::{Instance, Spec, CURVATURE_FRACTION};
use pdnn_dnn::flops::{
    forward_flops_per_frame, gn_product_flops_per_frame, gradient_flops_per_frame,
};
use pdnn_dnn::gauss_newton::{gn_product_ws, Curvature};
use pdnn_dnn::loss::{cross_entropy, softmax_rows};
use pdnn_dnn::{backprop_ws, mmi_batch, DenominatorGraph, PackedActivations, PackedWeights};
use pdnn_mpisim::{run_world, Comm, ReduceOp};
use pdnn_obs::{InMemoryRecorder, RecorderExt, SpanKind};
use pdnn_tensor::gemm::{gemm_flops, GemmContext, GemmOp, Trans};
use pdnn_tensor::{Matrix, Workspace};
use pdnn_util::stats::percentile;
use pdnn_util::Prng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Results of the standalone timings.
#[derive(Clone, Debug)]
pub struct KernelTimings {
    /// GEMM at the widest layer, M = one training batch.
    pub gemm_gflops_batch: f64,
    /// GEMM at the widest layer, M = one curvature sample.
    pub gemm_gflops_sample: f64,
    /// `PackedWeights::new` seconds.
    pub pack_s: f64,
    /// `forward_ws`, training batch.
    pub forward_gflops: f64,
    /// `backprop_ws`, training batch.
    pub backprop_gflops: f64,
    /// `gn_product_ws` with packed activations, curvature sample.
    pub gn_product_gflops: f64,
    /// `mmi_batch` over the held-out shard (sequence workloads only).
    pub mmi_ns_per_frame: f64,
    /// 2-rank `allreduce_ring` of θ, µs at p50 and p90.
    pub allreduce_ring_us: (f64, f64),
    /// 2-rank `reduce` of θ to rank 0, µs at p50 and p90.
    pub reduce_us: (f64, f64),
    /// 2-rank `bcast` of θ from rank 0, µs at p50 and p90.
    pub bcast_us: (f64, f64),
    /// One `InMemoryRecorder` span, ns.
    pub span_ns: f64,
}

/// Median seconds of `f` over repeated calls after one warm-up call:
/// at least `min_reps` calls, more while under `budget`.
fn median_seconds(min_reps: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < min_reps || (t0.elapsed() < budget && samples.len() < 1000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    percentile(&samples, 0.5).unwrap_or(f64::NAN)
}

fn gflops(flops: u64, seconds: f64) -> f64 {
    flops as f64 / seconds / 1e9
}

/// Run every standalone timing at the shapes of `spec`, on data of
/// `inst`. `budget` bounds the time spent per timing.
pub fn measure(spec: &Spec, inst: &Instance, budget: Duration) -> KernelTimings {
    let ctx = GemmContext::sequential();
    let dims = spec.dims();
    let net = &inst.net0;
    // Each data rank holds an equal share of the training frames and
    // evaluates it as one batch; the curvature sample is the sampled
    // share of those frames.
    let batch = (inst.train.frames() / spec.topology.data_ranks()).max(1);
    let sample = ((batch as f64 * CURVATURE_FRACTION).round() as usize).max(1);
    let x_batch = inst.train.x.rows_copy(0, batch);
    let x_sample = inst.train.x.rows_copy(0, sample);
    let labels = &inst.train.labels[..batch];

    // GEMM: the hidden-to-hidden layer, as the forward pass runs it.
    let width = spec.hidden;
    let mut rng = Prng::new(7);
    let w: Matrix<f32> = Matrix::random_normal(width, width, 0.1, &mut rng);
    let gemm_at = |m: usize| {
        let a: Matrix<f32> = Matrix::random_normal(m, width, 1.0, &mut Prng::new(m as u64));
        let mut c = Matrix::zeros(m, width);
        let secs = median_seconds(5, budget, || {
            GemmOp::ab(&a, Trans::N, &w, Trans::T).run(&ctx, &mut c);
            black_box(&c);
        });
        gflops(gemm_flops(m, width, width), secs)
    };
    let gemm_gflops_batch = gemm_at(batch);
    let gemm_gflops_sample = gemm_at(sample);

    let pack_s = median_seconds(5, budget, || {
        black_box(PackedWeights::new(net, &ctx));
    });
    let packs = PackedWeights::new(net, &ctx);
    let mut ws: Workspace<f32> = Workspace::new();

    let fwd_s = median_seconds(3, budget, || {
        let c = net.forward_ws(&ctx, &x_batch, Some(&packs), &mut ws);
        c.give_back(&mut ws);
    });
    let cache = net.forward_ws(&ctx, &x_batch, Some(&packs), &mut ws);
    let dlogits = cross_entropy(cache.logits(), labels).dlogits;
    let bwd_s = median_seconds(3, budget, || {
        let g = backprop_ws(net, &ctx, &cache, &dlogits, Some(&packs), &mut ws);
        ws.give_vec(g);
    });
    cache.give_back(&mut ws);

    let sample_cache = net.forward(&ctx, &x_sample);
    let dist = softmax_rows(sample_cache.logits());
    let acts = PackedActivations::new(&sample_cache, &ctx);
    let v: Vec<f32> = (0..net.num_params())
        .map(|_| rng.normal() as f32 * 0.01)
        .collect();
    let gn_s = median_seconds(5, budget, || {
        let gv = gn_product_ws(
            net,
            &ctx,
            &sample_cache,
            Curvature::Fisher(&dist),
            &v,
            Some(&packs),
            Some(&acts),
            &mut ws,
        );
        ws.give_vec(gv);
    });

    let mmi_ns_per_frame = if spec.sequence() {
        let logits = net.logits(&ctx, &inst.heldout.x);
        let graph: DenominatorGraph = inst.corpus.denominator_graph();
        let secs = median_seconds(3, budget, || {
            black_box(mmi_batch(
                &logits,
                &inst.heldout.labels,
                &inst.heldout.utt_lens,
                &graph,
            ));
        });
        secs * 1e9 / inst.heldout.frames() as f64
    } else {
        0.0
    };

    let forward_flops = forward_flops_per_frame(&dims);
    let theta_len = net.num_params();
    KernelTimings {
        gemm_gflops_batch,
        gemm_gflops_sample,
        pack_s,
        forward_gflops: gflops(forward_flops * batch as u64, fwd_s),
        backprop_gflops: gflops(
            (gradient_flops_per_frame(&dims) - forward_flops) * batch as u64,
            bwd_s,
        ),
        gn_product_gflops: gflops(
            gn_product_flops_per_frame(&dims, false) * sample as u64,
            gn_s,
        ),
        mmi_ns_per_frame,
        allreduce_ring_us: collective_us(theta_len, budget, |comm, buf| {
            comm.allreduce_ring(buf, ReduceOp::Sum)
                .expect("allreduce_ring in a healthy world");
        }),
        reduce_us: collective_us(theta_len, budget, |comm, buf| {
            comm.reduce(buf, ReduceOp::Sum, 0)
                .expect("reduce in a healthy world");
        }),
        bcast_us: collective_us(theta_len, budget, |comm, buf| {
            comm.bcast(buf, 0).expect("bcast in a healthy world");
        }),
        span_ns: span_ns(budget),
    }
}

/// p50 and p90 µs of one collective over `len` f32 on a 2-rank world,
/// as rank 0 sees it. A barrier before each call starts both ranks
/// together, so the time excludes arrival skew.
fn collective_us(
    len: usize,
    budget: Duration,
    op: impl Fn(&mut Comm, &mut Vec<f32>) + Sync,
) -> (f64, f64) {
    const MIN_REPS: usize = 20;
    let outcomes = run_world(2, |comm| {
        let mut buf = vec![0.0f32; len];
        let mut samples = Vec::new();
        let t0 = Instant::now();
        loop {
            // Rank 0 decides when to stop; both ranks must agree.
            let mut go = vec![u64::from(
                samples.len() < MIN_REPS || (t0.elapsed() < budget && samples.len() < 1000),
            )];
            comm.bcast(&mut go, 0).expect("bcast in a healthy world");
            if go[0] == 0 {
                break;
            }
            buf.clear();
            buf.resize(len, 1.0);
            comm.barrier().expect("barrier in a healthy world");
            let t = Instant::now();
            op(comm, &mut buf);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        samples
    });
    let samples = &outcomes[0].result;
    (
        percentile(samples, 0.5).unwrap_or(f64::NAN),
        percentile(samples, 0.9).unwrap_or(f64::NAN),
    )
}

/// Median ns of recording one span on an `InMemoryRecorder`.
fn span_ns(budget: Duration) -> f64 {
    const BATCH: usize = 10_000;
    let rec = InMemoryRecorder::new();
    let secs = median_seconds(5, budget, || {
        for _ in 0..BATCH {
            let _s = rec.span("bench.probe", SpanKind::Scalar);
        }
        black_box(rec.take());
    });
    secs * 1e9 / BATCH as f64
}
