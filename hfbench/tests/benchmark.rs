//! The benchmark's own tests: the timing adaptor is transparent, the
//! metric names follow the grammar and match `BENCHMARK.json`, and a
//! smoke run of every workload emits every metric it names.

use hfbench::report::{valid_name, valid_unit, END_TO_END, PER_LAYER};
use hfbench::workload::{self, Spec, Topology, Workload};
use pdnn_obs::NullRecorder;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// `(name, unit, better)` of each metric entry in one section of
/// `BENCHMARK.json`, which keeps one entry per line.
fn benchmark_json_section(section: &str) -> Vec<(String, String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} in BENCHMARK.json"));
    let body = &text[start..];
    let end = body.find(']').expect("section is an array");
    body[..end]
        .lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| (field(l, "name"), field(l, "unit"), field(l, "better")))
        .collect()
}

/// The string value of `"key": "value"` on one line.
fn field(line: &str, key: &str) -> String {
    let tag = format!("\"{key}\": \"");
    let start = line
        .find(&tag)
        .map(|i| i + tag.len())
        .unwrap_or_else(|| panic!("{key} in {line}"));
    line[start..]
        .split('"')
        .next()
        .unwrap_or_default()
        .to_string()
}

/// `(name, unit)` of each metric in a result line.
fn result_metrics(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("{\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
        .map(|w| {
            let name = w[0].rsplit('"').nth(1).expect("quoted metric name");
            (name.to_string(), field(w[1], "unit"))
        })
        .collect()
}

#[test]
fn adaptor_is_transparent() {
    // Both objectives, through the serial path the adaptor wraps.
    for w in [Workload::SerialCe, Workload::Master1Seq] {
        let mut spec = Spec::of(w, true);
        spec.topology = Topology::Serial;
        let (inst, _) = workload::set_up(&spec, 3, 0, &NullRecorder);
        let plain = workload::train(&spec, &inst, false).expect("untraced run");
        let traced = workload::train(&spec, &inst, true).expect("traced run");
        assert_eq!(
            workload::theta_hash(&plain.network),
            workload::theta_hash(&traced.network),
            "{}: θ differs with tracing on",
            w.name()
        );
        assert_eq!(plain.stats.len(), traced.stats.len());
        assert!(!traced.telemetry.is_empty() && !traced.telemetry[0].spans.is_empty());
    }
}

#[test]
fn metric_names_follow_the_grammar_and_match_benchmark_json() {
    let mut seen = BTreeSet::new();
    for (name, unit) in END_TO_END
        .iter()
        .copied()
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
    {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(valid_unit(unit), "bad unit {unit} of {name}");
        assert!(seen.insert(name), "metric {name} listed twice");
    }
    for bad in ["", ".x", "a b", "x/y", &"n".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }

    let e2e = benchmark_json_section("end_to_end");
    let listed: Vec<(&str, &str, &str)> = e2e
        .iter()
        .map(|(n, u, b)| (n.as_str(), u.as_str(), b.as_str()))
        .collect();
    let expected: Vec<(&str, &str, &str)> =
        END_TO_END.iter().map(|&(n, u)| (n, u, "lower")).collect();
    assert_eq!(listed, expected);

    let layers = benchmark_json_section("per_layer");
    let listed: Vec<(&str, &str, &str)> = layers
        .iter()
        .map(|(n, u, b)| (n.as_str(), u.as_str(), b.as_str()))
        .collect();
    assert_eq!(listed, PER_LAYER.to_vec());
}

#[test]
fn smoke_run_emits_every_metric_named_in_benchmark_json() {
    let trace_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("hfbench-smoke");
    for w in Workload::ALL {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_hfbench"))
                .args(["--workload", w.name(), "--seed", "5", "--seconds", "0"])
                .args(["--trace", trace, "--smoke", "--trace-dir"])
                .arg(&trace_dir)
                .output()
                .expect("run hfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{} --trace {trace} failed: {}",
                w.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            assert!(last.contains("\"failed\": 0,"), "{last}");
            let emitted = result_metrics(last);
            let named: Vec<(String, String)> = benchmark_json_section(section)
                .into_iter()
                .map(|(n, u, _)| (n, u))
                .collect();
            assert_eq!(emitted, named, "{} --trace {trace}", w.name());
        }
        let spans = trace_dir.join(format!("{}-seed5.jsonl", w.name()));
        let text = std::fs::read_to_string(&spans).expect("trace file written");
        assert!(text.lines().all(|l| l.starts_with("{\"id\":")));
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "serial_ce",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "serial_ce",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec!["--workload", "serial_ce", "--seconds", "1", "--trace", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hfbench"))
            .args(&args)
            .output()
            .expect("run hfbench");
        assert!(!out.status.success(), "{args:?} accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
