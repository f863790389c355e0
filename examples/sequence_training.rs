//! The paper's two objectives end to end: cross-entropy training
//! followed by sequence-discriminative (lattice-free MMI) training —
//! the CE/sequence pair of Table I.
//!
//! CE training learns frame classification; the sequence pass then
//! optimizes the utterance-level criterion directly against the
//! denominator graph (the corpus's own state bigram), which is what
//! production systems do for the best word-error rates.
//!
//! ```sh
//! cargo run --release --example sequence_training
//! ```

use pdnn::core::{DnnProblem, HfConfig, HfOptimizer, Objective};
use pdnn::dnn::{mmi_loss_only, state_error_rate, viterbi_decode_batch, Activation, Network};
use pdnn::speech::{Corpus, CorpusSpec};
use pdnn::tensor::GemmContext;
use pdnn::util::Prng;

fn mmi_loss_of(net: &Network<f32>, corpus: &Corpus, ids: &[usize]) -> f64 {
    let shard = corpus.shard(ids);
    let ctx = GemmContext::sequential();
    let logits = net.logits(&ctx, &shard.x);
    let loss = mmi_loss_only(
        &logits,
        &shard.labels,
        &shard.utt_lens,
        &corpus.denominator_graph(),
    );
    loss / shard.frames() as f64
}

/// State error rate of the Viterbi decode — the synthetic task's
/// analogue of the word error rate the paper reports.
fn ser_of(net: &Network<f32>, corpus: &Corpus, ids: &[usize]) -> f64 {
    let shard = corpus.shard(ids);
    let ctx = GemmContext::sequential();
    let logits = net.logits(&ctx, &shard.x);
    let decoded = viterbi_decode_batch(&logits, &shard.utt_lens, &corpus.denominator_graph());
    state_error_rate(&decoded, &shard.labels)
}

fn main() {
    // A noisier task than the quickstart: CE training alone cannot
    // fully resolve the frames, leaving headroom the sequence-level
    // criterion exploits via the transition structure.
    let corpus = Corpus::generate(CorpusSpec {
        utterances: 100,
        emission_noise: 1.1,
        ..CorpusSpec::tiny(999)
    });
    let (train_ids, held_ids) = corpus.split_heldout(0.2);
    let mut rng = Prng::new(5);
    let net0 = Network::new(
        &[corpus.spec().feature_dim, 24, corpus.spec().states],
        Activation::Sigmoid,
        &mut rng,
    );

    // ---- stage 1: cross-entropy -----------------------------------
    let mut ce_problem = DnnProblem::new(
        net0,
        GemmContext::sequential(),
        corpus.shard(&train_ids),
        corpus.shard(&held_ids),
        Objective::CrossEntropy,
    );
    let ce_cfg = HfConfig::small_task()
        .into_builder()
        .max_iters(8)
        .build()
        .expect("invalid HF configuration");
    let ce_stats = HfOptimizer::new(ce_cfg).train(&mut ce_problem);
    let ce_net = ce_problem.into_network();
    let ce_last = ce_stats.iter().rev().find(|s| s.accepted).unwrap();
    let mmi_after_ce = mmi_loss_of(&ce_net, &corpus, &held_ids);
    let ser_after_ce = ser_of(&ce_net, &corpus, &held_ids);
    println!(
        "after CE training:   heldout CE {:.4}, accuracy {:.3}, heldout MMI {:.4}, SER {:.3}",
        ce_last.heldout_after, ce_last.heldout_accuracy, mmi_after_ce, ser_after_ce
    );

    // ---- stage 2: sequence (MMI) ----------------------------------
    let mut seq_problem = DnnProblem::new(
        ce_net,
        GemmContext::sequential(),
        corpus.shard(&train_ids),
        corpus.shard(&held_ids),
        Objective::Sequence(corpus.denominator_graph()),
    );
    let seq_cfg = HfConfig::small_task()
        .into_builder()
        .max_iters(6)
        .lambda0(1.0) // fresh damping for the new objective
        .build()
        .expect("invalid HF configuration");
    let seq_stats = HfOptimizer::new(seq_cfg).train(&mut seq_problem);
    let seq_net = seq_problem.into_network();
    let mmi_after_seq = mmi_loss_of(&seq_net, &corpus, &held_ids);
    let ser_after_seq = ser_of(&seq_net, &corpus, &held_ids);

    println!("sequence iterations:");
    for s in &seq_stats {
        println!(
            "  iter {:>2}: heldout MMI {:.4} (accepted: {})",
            s.iter, s.heldout_after, s.accepted
        );
    }
    println!(
        "after seq training:  heldout MMI {mmi_after_seq:.4} (was {mmi_after_ce:.4} after CE)"
    );
    assert!(
        mmi_after_seq <= mmi_after_ce + 1e-9,
        "sequence training should not worsen the sequence criterion"
    );
    println!(
        "sequence objective improved by {:.1}%",
        100.0 * (1.0 - mmi_after_seq / mmi_after_ce.max(1e-12))
    );
    println!(
        "Viterbi state error rate: {ser_after_ce:.3} after CE -> {ser_after_seq:.3} after sequence \
         (the paper's WER analogue)"
    );
}
