//! Golden pin: the bytes a fixed set of training runs produce.
//!
//! Each configuration is hashed four ways — θ bits, the per-iteration
//! [`IterStats`] bits, the deterministic per-rank telemetry JSONL, and
//! the per-rank comm-event JSONL — and the hashes are compared with
//! constants recorded from the tree as it stood before the shard
//! engine refactor. The two MMI entries were re-pinned when the MMI
//! forward–backward became a sparse recursion: their θ hashes held,
//! and their stats and telemetry moved by f64 rounding of the losses
//! (final held-out losses within 2e-15 relative). A refactor that
//! keeps the arithmetic, the wire protocol and the reporting unchanged
//! leaves every hash unchanged; any differing hash names the
//! configuration and the stream that moved.
//!
//! Serial runs share one manual-clock `InMemoryRecorder` between the
//! problem and the optimizer, so their telemetry (pack-cache counters,
//! arena gauges, optimizer spans and events) is byte-deterministic.
//! Distributed runs use the frozen-clock deterministic or faulted
//! world runners.

use pdnn_core::config::Preconditioner;
use pdnn_core::{
    train_distributed_deterministic, train_distributed_faulted, DistributedConfig, DnnProblem,
    HfConfig, HfOptimizer, HfProblem, IterStats, Objective, SyncStrategy, TrainOutput,
};
use pdnn_dnn::{Activation, Network};
use pdnn_mpisim::{events_to_jsonl, FaultPlan, WireCodec};
use pdnn_obs::jsonl::to_jsonl_string;
use pdnn_obs::InMemoryRecorder;
use pdnn_speech::{Corpus, CorpusSpec};
use pdnn_tensor::gemm::GemmContext;
use pdnn_util::Prng;
use std::sync::Arc;
use std::time::Duration;

/// FNV-1a, 64-bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hashes of one run: θ, stats, telemetry, comm events.
type Hashes = [u64; 4];

fn theta_hash(theta: &[f32]) -> u64 {
    let bytes: Vec<u8> = theta
        .iter()
        .flat_map(|w| w.to_bits().to_le_bytes())
        .collect();
    fnv(&bytes)
}

fn stats_hash(stats: &[IterStats]) -> u64 {
    let mut bytes = Vec::new();
    for s in stats {
        for v in [
            s.train_loss,
            s.grad_norm,
            s.heldout_before,
            s.heldout_after,
            s.heldout_accuracy,
            s.lambda,
            s.rho,
            s.alpha,
        ] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        for v in [s.iter, s.cg_iters, s.chosen_iter, s.heldout_evals] {
            bytes.extend_from_slice(&(v as u64).to_le_bytes());
        }
        bytes.push(u8::from(s.accepted));
        bytes.extend_from_slice(format!("{:?}", s.cg_stop).as_bytes());
    }
    fnv(&bytes)
}

fn corpus(seed: u64, utterances: Option<usize>) -> Corpus {
    let mut spec = CorpusSpec::tiny(seed);
    if let Some(n) = utterances {
        spec.utterances = n;
    }
    Corpus::generate(spec)
}

fn net(corpus: &Corpus, seed: u64) -> Network<f32> {
    let mut rng = Prng::new(seed);
    Network::new(
        &[corpus.spec().feature_dim, 12, corpus.spec().states],
        Activation::Sigmoid,
        &mut rng,
    )
}

fn objective(corpus: &Corpus, sequence: bool) -> Objective {
    if sequence {
        Objective::Sequence(corpus.denominator_graph())
    } else {
        Objective::CrossEntropy
    }
}

fn fisher() -> Preconditioner {
    Preconditioner::EmpiricalFisher { exponent: 0.75 }
}

/// How a serial problem is set up beyond its defaults.
struct Serial {
    sequence: bool,
    max_batch_frames: Option<usize>,
    packing: bool,
    preconditioner: Preconditioner,
}

fn serial(seed: u64, cfg: Serial) -> Hashes {
    let corpus = corpus(seed, None);
    let (train_ids, held_ids) = corpus.split_heldout(0.25);
    let rec = Arc::new(InMemoryRecorder::with_manual_clock());
    let mut problem = DnnProblem::new(
        net(&corpus, seed + 1),
        GemmContext::sequential(),
        corpus.shard(&train_ids),
        corpus.shard(&held_ids),
        objective(&corpus, cfg.sequence),
    )
    .with_packing(cfg.packing)
    .with_recorder(rec.clone());
    if let Some(frames) = cfg.max_batch_frames {
        problem = problem.with_max_batch_frames(frames);
    }
    let mut hf = HfConfig::small_task();
    hf.max_iters = 3;
    hf.preconditioner = cfg.preconditioner;
    let stats = HfOptimizer::with_recorder(hf, rec.clone()).train(&mut problem);
    [
        theta_hash(&problem.theta()),
        stats_hash(&stats),
        fnv(to_jsonl_string(0, &rec.take()).as_bytes()),
        fnv(b""),
    ]
}

fn distributed_hashes(out: &TrainOutput) -> Hashes {
    let mut telemetry = to_jsonl_string(0, &out.master_telemetry);
    let mut events = events_to_jsonl(&out.master_events);
    for (w, (t, e)) in out
        .worker_telemetries
        .iter()
        .zip(&out.worker_events)
        .enumerate()
    {
        telemetry.push_str(&to_jsonl_string(w as u64 + 1, t));
        events.push_str(&events_to_jsonl(e));
    }
    [
        theta_hash(&out.network.to_flat()),
        stats_hash(&out.stats),
        fnv(telemetry.as_bytes()),
        fnv(events.as_bytes()),
    ]
}

/// One distributed configuration.
struct Dist {
    sync: SyncStrategy,
    workers: usize,
    sequence: bool,
    codec: WireCodec,
    preconditioner: Preconditioner,
    utterances: Option<usize>,
    /// `(victim rank, collective index)` to kill under a fault plan.
    kill: Option<(usize, u64)>,
}

impl Default for Dist {
    fn default() -> Self {
        Dist {
            sync: SyncStrategy::Master,
            workers: 2,
            sequence: false,
            codec: WireCodec::None,
            preconditioner: Preconditioner::None,
            utterances: None,
            kill: None,
        }
    }
}

fn distributed(seed: u64, cfg: Dist) -> Hashes {
    let corpus = corpus(seed, cfg.utterances);
    let net0 = net(&corpus, seed + 1);
    let objective = objective(&corpus, cfg.sequence);
    let mut config = DistributedConfig {
        workers: cfg.workers,
        sync: cfg.sync,
        wire_codec: cfg.codec,
        ..DistributedConfig::default()
    };
    config.hf.max_iters = 2;
    config.hf.preconditioner = cfg.preconditioner;
    let out = match cfg.kill {
        None => train_distributed_deterministic(&net0, &corpus, &objective, &config),
        Some((victim, at)) => {
            let plan = FaultPlan::new(41)
                .kill(victim, at)
                .with_timeouts(Duration::from_millis(500), Duration::from_secs(30));
            let out = train_distributed_faulted(&net0, &corpus, &objective, &config, &plan);
            let out = out.expect("training must survive one rank death");
            assert_eq!(out.dead_ranks, vec![victim]);
            assert_eq!(out.recoveries, 1);
            Ok(out)
        }
    };
    distributed_hashes(&out.expect("training failed"))
}

/// Every pinned configuration, by name.
fn runs() -> Vec<(&'static str, Hashes)> {
    vec![
        (
            "serial_ce",
            serial(
                3,
                Serial {
                    sequence: false,
                    max_batch_frames: None,
                    packing: true,
                    preconditioner: Preconditioner::None,
                },
            ),
        ),
        (
            "serial_mmi",
            serial(
                5,
                Serial {
                    sequence: true,
                    max_batch_frames: None,
                    packing: true,
                    preconditioner: Preconditioner::None,
                },
            ),
        ),
        (
            "serial_ce_chunked_unpacked_fisher",
            serial(
                7,
                Serial {
                    sequence: false,
                    max_batch_frames: Some(40),
                    packing: false,
                    preconditioner: fisher(),
                },
            ),
        ),
        ("master2_ce", distributed(9, Dist::default())),
        (
            "master2_mmi_fisher",
            distributed(
                11,
                Dist {
                    sequence: true,
                    preconditioner: fisher(),
                    ..Dist::default()
                },
            ),
        ),
        (
            "ring3",
            distributed(
                13,
                Dist {
                    sync: SyncStrategy::Ring,
                    workers: 3,
                    ..Dist::default()
                },
            ),
        ),
        (
            "tree3_fisher",
            distributed(
                15,
                Dist {
                    sync: SyncStrategy::Tree,
                    workers: 3,
                    preconditioner: fisher(),
                    ..Dist::default()
                },
            ),
        ),
        (
            "ring3_int8",
            distributed(
                17,
                Dist {
                    sync: SyncStrategy::Ring,
                    workers: 3,
                    codec: WireCodec::Int8,
                    ..Dist::default()
                },
            ),
        ),
        (
            "master3_killed_worker",
            distributed(
                19,
                Dist {
                    workers: 3,
                    kill: Some((1, 10)),
                    ..Dist::default()
                },
            ),
        ),
        (
            "ring4_killed_peer",
            distributed(
                21,
                Dist {
                    sync: SyncStrategy::Ring,
                    workers: 4,
                    kill: Some((1, 6)),
                    ..Dist::default()
                },
            ),
        ),
        (
            "master6_empty_shards",
            distributed(
                23,
                Dist {
                    workers: 6,
                    utterances: Some(3),
                    ..Dist::default()
                },
            ),
        ),
        (
            "ring6_empty_shards",
            distributed(
                25,
                Dist {
                    sync: SyncStrategy::Ring,
                    workers: 6,
                    utterances: Some(3),
                    ..Dist::default()
                },
            ),
        ),
    ]
}

/// Recorded hashes: `[θ, stats, telemetry, comm events]`.
#[rustfmt::skip]
const GOLDEN: &[(&str, Hashes)] = &[
    ("serial_ce", [0x630aba7d938d11ec, 0xd4ff1e35e1c35098, 0x47f9769f2222cdcb, 0xcbf29ce484222325]),
    ("serial_mmi", [0x55eebc36d170bc80, 0xec8d1a24926877cb, 0x89d320bfab1906e8, 0xcbf29ce484222325]),
    ("serial_ce_chunked_unpacked_fisher", [0x03df1e84a769e1ae, 0x47711d4fedd7eee4, 0x29017dd1d2c1fde2, 0xcbf29ce484222325]),
    ("master2_ce", [0x36868a5d2a6bd39a, 0x26baad556cda0dfd, 0x11a0a9bc5df757eb, 0xd647c50e788cee0a]),
    ("master2_mmi_fisher", [0xc44300ac67ae1d89, 0xa17ba3014ce39cdb, 0x72cb83f5bb08abe0, 0xe30f185d2582c738]),
    ("ring3", [0x2f86b42ac46acb0e, 0x579947d61c91f60d, 0xb85c360d430b1f43, 0x4ffe43b789ae34df]),
    ("tree3_fisher", [0xb52fe0ba818000dc, 0x4c153a300e7a3b06, 0x16289d6553614898, 0xa4d1d47611264ee8]),
    ("ring3_int8", [0xbdc214018d89a08c, 0xa74acdaaf4209db2, 0x6c48573cd09356e1, 0x4ffe43b789ae34df]),
    ("master3_killed_worker", [0x5c8e37e8b98fddd0, 0x72f3c2cd72ce1d1a, 0x2900ecea0fdad8dd, 0x74bd672d5b6d16fd]),
    ("ring4_killed_peer", [0xce77f8356ce75dd1, 0x10348fd2e67f4655, 0xc8bfcdf1cd72d9c8, 0xd17577f02e873541]),
    ("master6_empty_shards", [0x59d7467487347b44, 0x3ac347f8c540ff54, 0x003520fb93ae21d2, 0x1ae7901c097b12d2]),
    ("ring6_empty_shards", [0xef5ddef0d02f52a2, 0x65c02733e817399b, 0x9326bd2a8d823e4d, 0x8298b956cc9b9ba5]),
];

#[test]
fn training_bytes_match_the_golden_pin() {
    let got = runs();
    let mut mismatches = Vec::new();
    for (name, hashes) in &got {
        let want = GOLDEN.iter().find(|(n, _)| n == name).map(|(_, h)| *h);
        if want != Some(*hashes) {
            mismatches.push(format!(
                "(\"{name}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]), // want {want:x?}",
                hashes[0], hashes[1], hashes[2], hashes[3]
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden hashes differ:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(GOLDEN.len(), got.len(), "pinned configurations");
}
