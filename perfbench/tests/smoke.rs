//! The benchmark's own tests: every workload at tiny size emits every
//! metric `BENCHMARK.json` names, with its unit; a corrupted expected
//! output counts as a failed op and makes the binary exit nonzero.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{run, Config, Outcome};
use std::path::PathBuf;

fn spec() -> serde::Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a serde::Value, key: &str) -> &'a serde::Value {
    match v {
        serde::Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        _ => panic!("not an object"),
    }
}

fn text(v: &serde::Value) -> String {
    match v {
        serde::Value::Str(s) => s.clone(),
        other => panic!("not a string: {other:?}"),
    }
}

fn list(v: &serde::Value) -> &[serde::Value] {
    match v {
        serde::Value::Seq(items) => items,
        other => panic!("not a list: {other:?}"),
    }
}

/// (name, unit) pairs of one metric section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    list(field(&spec(), section))
        .iter()
        .map(|m| (text(field(m, "name")), text(field(m, "unit"))))
        .collect()
}

/// A tiny run; `test` names the calling test, so tests running in
/// parallel never share a scratch directory.
fn tiny(test: &str, workload: &str, trace: bool, corrupt: bool) -> Config {
    Config {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.3,
        trace,
        tiny: true,
        corrupt_expected: corrupt,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}-{workload}")),
    }
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_emits_every_named_metric_with_its_unit() {
    let workloads: Vec<String> = list(field(&spec(), "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    assert_eq!(workloads, perfbench::WORKLOADS);
    for w in &workloads {
        let out = run(&tiny("emits", w, false, false)).expect("untraced run");
        assert!(out.correct(), "{w}: {:?}", out.notes);
        assert_eq!(emitted(&out), declared("end_to_end"), "{w} end-to-end");
        assert!(out
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0));

        let out = run(&tiny("emits", w, true, false)).expect("traced run");
        assert!(out.correct(), "{w} traced: {:?}", out.notes);
        assert_eq!(emitted(&out), declared("per_layer"), "{w} per-layer");
        let prediction = out.notes.iter().find(|(k, _)| k == "prediction");
        assert!(
            prediction.is_some(),
            "{w}: the dominant-layer check is reported"
        );
    }
}

#[test]
fn provenance_names_the_run() {
    let out = run(&tiny("provenance", "remine-case3", false, false)).expect("run");
    for key in [
        "commit",
        "nproc",
        "rustc",
        "seed",
        "run_seconds",
        "ops_completed",
        "op_tail_percentile",
    ] {
        assert!(out.notes.iter().any(|(k, _)| k == key), "missing {key}");
    }
}

#[test]
fn a_corrupted_expected_output_counts_as_a_failed_op() {
    for w in ["remine-case3", "daemon-mix"] {
        let out = run(&tiny("corrupt", w, false, true)).expect("run");
        assert!(out.failed > 0, "{w}: corrupted expectations must fail ops");
        assert!(!out.correct(), "{w}");
        assert!(out.result_json().contains("\"correct\": false"));
    }
}

#[test]
fn the_binary_exits_nonzero_on_a_wrong_output_and_on_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-bin");
    let args = |extra: &[&str]| {
        let mut v = vec![
            "--workload",
            "remine-case3",
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--trace",
            "0",
            "--tiny",
            "--out",
        ];
        v.push(out_dir.to_str().expect("utf-8 path"));
        v.extend_from_slice(extra);
        v.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    };
    let ok = std::process::Command::new(bin)
        .args(args(&[]))
        .output()
        .expect("runs");
    assert!(ok.status.success());
    let last = String::from_utf8_lossy(&ok.stdout)
        .lines()
        .last()
        .unwrap_or("")
        .to_string();
    assert!(last.starts_with("{\"correct\": true"), "{last}");

    let bad = std::process::Command::new(bin)
        .args(args(&["--corrupt-expected"]))
        .output()
        .expect("runs");
    assert_eq!(bad.status.code(), Some(1));
    let last = String::from_utf8_lossy(&bad.stdout)
        .lines()
        .last()
        .unwrap_or("")
        .to_string();
    assert!(last.starts_with("{\"correct\": false"), "{last}");

    let unknown = std::process::Command::new(bin)
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("runs");
    assert!(!unknown.status.success());
    assert!(unknown.stdout.is_empty());
}
