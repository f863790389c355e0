//! End-to-end integration: corpus generation → network → training →
//! evaluation, across the optimizers and objectives.

use pdnn::baselines::{train_sgd, SgdConfig};
use pdnn::core::{DnnProblem, HfConfig, HfOptimizer, HfProblem, Objective};
use pdnn::dnn::{mmi_loss_only, state_error_rate, viterbi_decode_batch, Activation, Network};
use pdnn::speech::{Corpus, CorpusSpec};
use pdnn::tensor::GemmContext;
use pdnn::util::Prng;

fn corpus() -> Corpus {
    Corpus::generate(CorpusSpec {
        utterances: 96,
        ..CorpusSpec::tiny(4242)
    })
}

fn network(corpus: &Corpus, seed: u64) -> Network<f32> {
    let mut rng = Prng::new(seed);
    Network::new(
        &[corpus.spec().feature_dim, 20, corpus.spec().states],
        Activation::Sigmoid,
        &mut rng,
    )
}

#[test]
fn hessian_free_learns_the_synthetic_task() {
    let corpus = corpus();
    let (train_ids, held_ids) = corpus.split_heldout(0.2);
    let mut problem = DnnProblem::new(
        network(&corpus, 1),
        GemmContext::sequential(),
        corpus.shard(&train_ids),
        corpus.shard(&held_ids),
        Objective::CrossEntropy,
    );
    let start = problem.heldout_eval(&problem.theta());
    let cfg = HfConfig::small_task()
        .into_builder()
        .max_iters(10)
        .build()
        .unwrap();
    let stats = HfOptimizer::new(cfg).train(&mut problem);
    let last = stats.iter().rev().find(|s| s.accepted).expect("no step");
    assert!(
        last.heldout_after < start.loss * 0.5,
        "loss {} -> {}",
        start.loss,
        last.heldout_after
    );
    assert!(
        last.heldout_accuracy > 0.8,
        "accuracy only {}",
        last.heldout_accuracy
    );
    // The paper: convergence within 20-40 passes; our small task
    // converges much faster, but losses must be monotone over
    // accepted steps.
    let accepted: Vec<_> = stats.iter().filter(|s| s.accepted).collect();
    for w in accepted.windows(2) {
        assert!(w[1].heldout_after <= w[0].heldout_after + 1e-9);
    }
}

#[test]
fn hf_matches_sgd_quality_on_the_same_task() {
    // The paper's premise: HF is competitive with SGD in quality
    // while being parallelizable. Both must solve the task.
    let corpus = corpus();
    let (train_ids, held_ids) = corpus.split_heldout(0.2);
    let train = corpus.shard(&train_ids);
    let heldout = corpus.shard(&held_ids);
    let ctx = GemmContext::sequential();

    let mut sgd_net = network(&corpus, 1);
    let sgd_stats = train_sgd(
        &mut sgd_net,
        &ctx,
        &train,
        &heldout,
        &SgdConfig {
            epochs: 12,
            minibatch: 128,
            ..Default::default()
        },
    );
    let sgd_acc = sgd_stats.last().unwrap().heldout_accuracy;

    let mut problem = DnnProblem::new(
        network(&corpus, 1),
        ctx,
        train,
        heldout,
        Objective::CrossEntropy,
    );
    let cfg = HfConfig::small_task()
        .into_builder()
        .max_iters(12)
        .build()
        .unwrap();
    let stats = HfOptimizer::new(cfg).train(&mut problem);
    let hf_acc = stats
        .iter()
        .rev()
        .find(|s| s.accepted)
        .unwrap()
        .heldout_accuracy;

    assert!(sgd_acc > 0.8, "SGD failed: {sgd_acc}");
    assert!(hf_acc > 0.8, "HF failed: {hf_acc}");
    assert!(
        (hf_acc - sgd_acc).abs() < 0.12,
        "quality gap too large: sgd {sgd_acc} vs hf {hf_acc}"
    );
}

#[test]
fn sequence_training_improves_the_sequence_criterion() {
    // Enough data that the held-out set tracks training (no
    // overfitting cliff), and light CE pretraining so the sequence
    // criterion has headroom — the regime where sequence training
    // shows monotone held-out MMI improvement with ρ ≈ 1.
    let corpus = Corpus::generate(CorpusSpec {
        utterances: 200,
        emission_noise: 1.0,
        ..CorpusSpec::tiny(99)
    });
    let (train_ids, held_ids) = corpus.split_heldout(0.2);
    let graph = corpus.denominator_graph();
    let ctx = GemmContext::sequential();

    let mmi_of = |net: &Network<f32>| {
        let shard = corpus.shard(&held_ids);
        let logits = net.logits(&ctx, &shard.x);
        mmi_loss_only(&logits, &shard.labels, &shard.utt_lens, &graph) / shard.frames() as f64
    };

    // Stage 1: CE.
    let mut ce = DnnProblem::new(
        network(&corpus, 2),
        ctx.clone(),
        corpus.shard(&train_ids),
        corpus.shard(&held_ids),
        Objective::CrossEntropy,
    );
    let cfg = HfConfig::small_task()
        .into_builder()
        .max_iters(2)
        .build()
        .unwrap();
    HfOptimizer::new(cfg).train(&mut ce);
    let ce_net = ce.into_network();
    let before = mmi_of(&ce_net);

    // Stage 2: sequence.
    let mut seq = DnnProblem::new(
        ce_net,
        ctx.clone(),
        corpus.shard(&train_ids),
        corpus.shard(&held_ids),
        Objective::Sequence(graph.clone()),
    );
    let cfg = HfConfig::small_task()
        .into_builder()
        .max_iters(6)
        .build()
        .unwrap();
    let stats = HfOptimizer::new(cfg).train(&mut seq);
    let after = mmi_of(&seq.into_network());

    assert!(
        stats.iter().any(|s| s.accepted),
        "no sequence step accepted"
    );
    assert!(
        after < before * 0.9,
        "sequence criterion did not meaningfully improve: {before} -> {after}"
    );
}

#[test]
fn viterbi_decoding_beats_frame_argmax_on_heldout() {
    // The decode-time analogue of the paper's WER metric: combining
    // the DNN scores with the transition model must not lose to
    // per-frame argmax, and typically wins on noisy tasks.
    let corpus = Corpus::generate(CorpusSpec {
        utterances: 120,
        emission_noise: 1.3,
        ..CorpusSpec::tiny(777)
    });
    let (train_ids, held_ids) = corpus.split_heldout(0.25);
    let ctx = GemmContext::sequential();
    let mut problem = DnnProblem::new(
        network(&corpus, 5),
        ctx.clone(),
        corpus.shard(&train_ids),
        corpus.shard(&held_ids),
        Objective::CrossEntropy,
    );
    let cfg = HfConfig::small_task()
        .into_builder()
        .max_iters(6)
        .build()
        .unwrap();
    HfOptimizer::new(cfg).train(&mut problem);
    let net = problem.into_network();

    let held = corpus.shard(&held_ids);
    let logits = net.logits(&ctx, &held.x);
    let argmax: Vec<u32> = logits.row_argmax().iter().map(|&v| v as u32).collect();
    let decoded = viterbi_decode_batch(&logits, &held.utt_lens, &corpus.denominator_graph());
    let ser_argmax = state_error_rate(&argmax, &held.labels);
    let ser_viterbi = state_error_rate(&decoded, &held.labels);
    assert!(
        ser_viterbi <= ser_argmax + 1e-9,
        "viterbi {ser_viterbi} lost to argmax {ser_argmax}"
    );
    assert!(ser_viterbi < 0.5, "decoder failed outright: {ser_viterbi}");
}

#[test]
fn deterministic_given_seeds() {
    let corpus = corpus();
    let (train_ids, held_ids) = corpus.split_heldout(0.2);
    let run = || {
        let mut problem = DnnProblem::new(
            network(&corpus, 3),
            GemmContext::sequential(),
            corpus.shard(&train_ids),
            corpus.shard(&held_ids),
            Objective::CrossEntropy,
        );
        let cfg = HfConfig::small_task()
            .into_builder()
            .max_iters(3)
            .build()
            .unwrap();
        let stats = HfOptimizer::new(cfg).train(&mut problem);
        (stats.last().unwrap().heldout_after, problem.theta())
    };
    let (l1, t1) = run();
    let (l2, t2) = run();
    assert_eq!(l1, l2);
    assert_eq!(t1, t2);
}
