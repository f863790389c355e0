//! `hfbench` — the repository's benchmark: time to a target held-out
//! loss for Hessian-free training on three workloads, end to end, and a
//! traced run that splits it layer by layer.
//!
//! One invocation runs one workload:
//!
//! ```sh
//! cargo run --release --manifest-path hfbench/Cargo.toml -- \
//!     --workload serial_ce --seed 1 --seconds 20 --trace 0
//! ```
//!
//! It sets up the workload's instances from the seed, trains them in
//! turn until `--seconds` is spent (each at least once), checks every
//! output, and prints one JSON line of metrics. `--trace 1` then trains
//! the first instances once more with tracing on, runs the standalone
//! layer timings, writes the spans to
//! `.hfbench/<workload>-seed<seed>.jsonl`, and reports the per-layer
//! metrics instead. See `hfbench/README.md`.

pub mod adaptor;
pub mod kernels;
pub mod ledger;
pub mod procfs;
pub mod report;
pub mod trace;
pub mod workload;

use ledger::RunLedger;
use pdnn_obs::{InMemoryRecorder, NullRecorder};
use pdnn_util::stats::percentile;
use report::Report;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};
use workload::{Instance, Outcome, SetupTimes, Spec, Workload};

/// Set-ups per run at least (each instance is set up the same number
/// of times); `setup_s` is the median over all of them.
const SETUP_SAMPLES: usize = 12;
/// Upper bound on timed trainings, whatever `--seconds` says.
const MAX_TRAININGS: usize = 1000;
/// Instances trained once more with tracing on (`--trace 1`).
const TRACED_INSTANCES: usize = 4;
/// Prefix of the memory probe's result line.
pub const MEMORY_PROBE_PREFIX: &str = "peak_rss_mb ";
/// Time allowed to each standalone layer timing.
const KERNEL_BUDGET: Duration = Duration::from_millis(300);

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed; all inputs derive from it.
    pub seed: u64,
    /// Seconds of timed training (every instance trains at least once
    /// however short it is).
    pub seconds: u64,
    /// Report per-layer metrics from an extra traced pass.
    pub trace: bool,
    /// Seconds-scale sizes, for tests.
    pub smoke: bool,
    /// Directory the trace file is written to.
    pub trace_dir: PathBuf,
    /// Run only the memory probe (the child side of `peak_rss_mb`).
    pub memory_probe: bool,
}

impl RunConfig {
    /// Parse `--workload NAME --seed N --seconds S --trace 0|1
    /// [--smoke] [--trace-dir DIR] [--memory-probe]`.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<RunConfig, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut smoke = false;
        let mut memory_probe = false;
        let mut trace_dir = PathBuf::from(".hfbench");
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--smoke" => {
                    smoke = true;
                    continue;
                }
                "--memory-probe" => {
                    memory_probe = true;
                    continue;
                }
                _ => {}
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => {
                    trace = match number()? {
                        0 => false,
                        1 => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--trace-dir" => trace_dir = PathBuf::from(&value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(RunConfig {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            smoke,
            trace_dir,
            memory_probe,
        })
    }
}

/// One successful timed training of an instance.
#[derive(Clone, Copy, Debug)]
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    iters: usize,
    stop_loss: f64,
    target: f64,
}

/// Tally of attempted and failed trainings, and the θ hash each
/// instance must reproduce.
struct Checks {
    attempted: usize,
    failed: usize,
    hashes: Vec<Option<u64>>,
}

impl Checks {
    /// Train `inst` once and check the output; `None` on failure.
    fn run(&mut self, spec: &Spec, inst: &Instance, traced: bool) -> Option<Outcome> {
        self.attempted += 1;
        let result = workload::train(spec, inst, traced).and_then(|out| {
            workload::check(spec, inst, &out)?;
            let hash = workload::theta_hash(&out.network);
            match self.hashes[inst.index] {
                Some(h) if h != hash => Err(format!("θ hash {hash:016x} != first run's {h:016x}")),
                _ => {
                    self.hashes[inst.index] = Some(hash);
                    Ok(out)
                }
            }
        });
        match result {
            Ok(out) => Some(out),
            Err(e) => {
                self.failed += 1;
                eprintln!("hfbench: instance {}: {e}", inst.index);
                None
            }
        }
    }
}

fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(f64::NAN)
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n as f64
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

/// Run the benchmark and return its report; the trace file is written
/// when `cfg.trace` is set.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let spec = Spec::of(cfg.workload, cfg.smoke);

    // Set-up, repeated; the last build of each instance is kept.
    let repeats = SETUP_SAMPLES.div_ceil(spec.problems);
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut instances = Vec::with_capacity(spec.problems);
    let mut setup_spans = Vec::with_capacity(spec.problems);
    for index in 0..spec.problems {
        for repeat in 0..repeats {
            let rec = InMemoryRecorder::new();
            let (inst, times) = workload::set_up(&spec, cfg.seed, index, &rec);
            setups.push(times);
            if repeat + 1 == repeats {
                instances.push(inst);
                setup_spans.push(rec.take().spans);
            }
        }
    }

    // Timed trainings, tracing off: the instances in turn until
    // `--seconds` is spent, each at least once and instance 0 at least
    // twice, so the θ hash check always has a repeat to compare.
    let mut checks = Checks {
        attempted: 0,
        failed: 0,
        hashes: vec![None; instances.len()],
    };
    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); instances.len()];
    let deadline = Duration::from_secs(cfg.seconds);
    let t0 = Instant::now();
    for n in 0..MAX_TRAININGS {
        if n > instances.len() && t0.elapsed() >= deadline {
            break;
        }
        let inst = &instances[n % instances.len()];
        if let Some(out) = checks.run(&spec, inst, false) {
            samples[inst.index].push(Sample {
                wall_s: out.wall_s,
                cpu_s: out.cpu_s,
                iters: out.stats.len(),
                stop_loss: out.stop_loss(),
                target: inst.hf.target_heldout_loss.unwrap_or(f64::NAN),
            });
        }
    }
    let per_instance = |f: fn(&Sample) -> f64| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(&s.iter().map(f).collect::<Vec<_>>()))
            .collect()
    };
    for (index, s) in samples.iter().enumerate() {
        if let Some(first) = s.first() {
            let walls: Vec<f64> = s.iter().map(|s| s.wall_s).collect();
            eprintln!(
                "hfbench: instance {index}: {} iterations, stop loss {:.4}, wall {walls:.3?} s",
                first.iters, first.stop_loss
            );
        }
    }
    let wall = per_instance(|s| s.wall_s);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert(
        "setup_s",
        median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
    );
    values.insert("time_to_target_s", mean(wall.iter().copied()));
    values.insert("cpu_s", mean(per_instance(|s| s.cpu_s)));
    values.insert("iters_to_target", mean(per_instance(|s| s.iters as f64)));
    values.insert(
        "heldout_loss",
        mean(per_instance(|s| s.stop_loss / s.target)),
    );
    checks.attempted += 1;
    let peak_rss_mb = child_peak_rss_mb(cfg).unwrap_or_else(|e| {
        checks.failed += 1;
        eprintln!("hfbench: memory probe: {e}");
        f64::NAN
    });
    values.insert("peak_rss_mb", peak_rss_mb);
    if !cfg.trace {
        return Ok(Report::new(
            &report::END_TO_END,
            &values,
            checks.attempted,
            checks.failed,
        ));
    }

    // Traced pass, then the standalone layer timings.
    let mut log = trace::TraceLog::default();
    let mut ledgers: Vec<RunLedger> = Vec::new();
    let mut overhead = Vec::new();
    for (inst, spans) in instances.iter().zip(&setup_spans).take(TRACED_INSTANCES) {
        log.add(inst.index, None, spans);
        let Some(out) = checks.run(&spec, inst, true) else {
            continue;
        };
        for (rank, tel) in out.telemetry.iter().enumerate() {
            log.add(inst.index, Some(rank), &tel.spans);
        }
        if !samples[inst.index].is_empty() {
            let untraced: Vec<f64> = samples[inst.index].iter().map(|s| s.wall_s).collect();
            overhead.push(out.wall_s - median(&untraced));
        }
        ledgers.push(ledger::ledger(
            spec.topology,
            &out.telemetry,
            &out.stats,
            out.wall_s,
        ));
    }
    let kernels = kernels::measure(&spec, &instances[0], KERNEL_BUDGET);
    let path = cfg
        .trace_dir
        .join(format!("{}-seed{}.jsonl", spec.workload.name(), cfg.seed));
    log.write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("hfbench: wrote {} spans to {}", log.len(), path.display());

    layer_values(&mut values, &setups, &ledgers, &overhead, &kernels);
    let names: Vec<(&'static str, &'static str)> =
        report::PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
    Ok(Report::new(
        &names,
        &values,
        checks.attempted,
        checks.failed,
    ))
}

/// The child side of `peak_rss_mb`: for each of the workload's first
/// `memory_probes` instances, reset the peak-RSS watermark, set the
/// instance up, train it once and check the output; return the mean
/// peak.
pub fn memory_probe(cfg: &RunConfig) -> Result<f64, String> {
    let spec = Spec::of(cfg.workload, cfg.smoke);
    let mut peaks = Vec::with_capacity(spec.memory_probes);
    for index in 0..spec.memory_probes {
        procfs::reset_peak_rss().map_err(|e| format!("reset peak RSS: {e}"))?;
        let (inst, _) = workload::set_up(&spec, cfg.seed, index, &NullRecorder);
        let out = workload::train(&spec, &inst, false)?;
        workload::check(&spec, &inst, &out)?;
        peaks.push(procfs::peak_rss_mb().map_err(|e| format!("read peak RSS: {e}"))?);
    }
    Ok(mean(peaks))
}

/// Peak RSS of set-up plus training, from a fresh process, so that
/// neither the instances held by this one nor the allocator state its
/// earlier trainings left behind count. The child is this executable
/// with `--memory-probe`; the call waits for it to exit.
fn child_peak_rss_mb(cfg: &RunConfig) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    // A fixed mmap threshold makes glibc return every large freed block
    // at once, so the peak follows the program's live memory and not the
    // allocator's history (the dynamic threshold varies it by ~15%).
    cmd.env("MALLOC_MMAP_THRESHOLD_", "131072")
        .args(["--workload", cfg.workload.name(), "--seed"])
        .arg(cfg.seed.to_string())
        .args(["--seconds", "0", "--trace", "0", "--memory-probe"]);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("run memory probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "memory probe exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.strip_prefix(MEMORY_PROBE_PREFIX))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "memory probe printed no result".to_string())
}

/// Per-layer metric values: set-up steps, the mean over traced runs of
/// each ledger figure, ratios over their pooled sums, and the
/// standalone timings.
fn layer_values(
    values: &mut BTreeMap<&'static str, f64>,
    setups: &[SetupTimes],
    ledgers: &[RunLedger],
    overhead: &[f64],
    k: &kernels::KernelTimings,
) {
    let mut put = |name: &'static str, value: f64| {
        values.insert(name, value);
    };
    let avg = |f: &dyn Fn(&RunLedger) -> f64| mean(ledgers.iter().map(f));
    let ratio = |num: &dyn Fn(&RunLedger) -> f64, den: &dyn Fn(&RunLedger) -> f64| {
        ledgers.iter().map(num).sum::<f64>() / ledgers.iter().map(den).sum::<f64>()
    };
    put(
        "speech.corpus_generate_s",
        median(&setups.iter().map(|s| s.corpus_s).collect::<Vec<_>>()),
    );
    put(
        "speech.shard_s",
        median(&setups.iter().map(|s| s.shard_s).collect::<Vec<_>>()),
    );
    put("tensor.gemm_gflops.batch", k.gemm_gflops_batch);
    put("tensor.gemm_gflops.sample", k.gemm_gflops_sample);
    put("tensor.pack_s", k.pack_s);
    put("dnn.forward_gflops", k.forward_gflops);
    put("dnn.backprop_gflops", k.backprop_gflops);
    put("dnn.gn_product_gflops", k.gn_product_gflops);
    put("dnn.mmi_ns_per_frame", k.mmi_ns_per_frame);

    put("core.gradient_s", avg(&|l| l.gradient_s));
    put("core.gn_product_s", avg(&|l| l.gn_product_s));
    put("core.heldout_eval_s", avg(&|l| l.heldout_eval_s));
    put("core.sample_curvature_s", avg(&|l| l.sample_curvature_s));
    put("core.gn_products", avg(&|l| l.gn_products as f64));
    put("core.heldout_evals", avg(&|l| l.heldout_evals as f64));
    let gn_ms: Vec<f64> = ledgers
        .iter()
        .flat_map(|l| l.gn_product_ms.clone())
        .collect();
    put(
        "core.gn_product_ms.p50",
        percentile(&gn_ms, 0.5).unwrap_or(f64::NAN),
    );
    put(
        "core.gn_product_ms.p90",
        percentile(&gn_ms, 0.9).unwrap_or(f64::NAN),
    );
    put("core.optimizer_self_s", avg(&|l| l.optimizer_self_s));
    put("core.cg_iters", avg(&|l| l.cg_iters as f64));
    put(
        "core.cg_useful_ratio",
        ratio(&|l| l.cg_chosen as f64, &|l| l.cg_iters as f64),
    );
    put(
        "core.accept_ratio",
        ratio(&|l| l.accepted as f64, &|l| l.iters as f64),
    );
    put(
        "core.heldout_evals_per_iter",
        ratio(&|l| l.heldout_evals as f64, &|l| l.iters as f64),
    );
    put("core.coverage", ratio(&|l| l.iteration_s, &|l| l.wall_s));

    put("dist.compute_s.rank0", avg(&|l| l.compute_s[0]));
    put("dist.compute_s.max", avg(&|l| max(&l.compute_s)));
    put("dist.collective_s.rank0", avg(&|l| l.collective_s[0]));
    put("dist.collective_s.max", avg(&|l| max(&l.collective_s)));
    put("dist.p2p_s.rank0", avg(&|l| l.p2p_s[0]));
    put("dist.p2p_s.max", avg(&|l| max(&l.p2p_s)));
    put(
        "dist.imbalance",
        avg(&|l| max(&l.compute_s) / mean(l.compute_s.iter().copied())),
    );
    put(
        "dist.rank0_wait_share",
        avg(&|l| (l.collective_s[0] + l.p2p_s[0]) / l.wall_s),
    );
    put("mpisim.collectives", avg(&|l| l.collectives as f64));
    put("mpisim.wire_bytes", avg(&|l| l.wire_bytes as f64));
    put("mpisim.rank0_bytes", avg(&|l| l.rank0_bytes as f64));
    put("mpisim.allreduce_ring_us.p50", k.allreduce_ring_us.0);
    put("mpisim.allreduce_ring_us.p90", k.allreduce_ring_us.1);
    put("mpisim.reduce_us.p50", k.reduce_us.0);
    put("mpisim.reduce_us.p90", k.reduce_us.1);
    put("mpisim.bcast_us.p50", k.bcast_us.0);
    put("mpisim.bcast_us.p90", k.bcast_us.1);
    put("obs.spans_per_run", avg(&|l| l.program_spans as f64));
    put("obs.span_ns", k.span_ns);
    put("trace.time_to_target_s", avg(&|l| l.wall_s));
    put("trace.overhead_s", mean(overhead.iter().copied()));
}
