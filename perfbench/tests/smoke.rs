//! Smoke run of every workload at tiny size, untraced and traced: each
//! run must print every metric `BENCHMARK.json` names for its mode, with
//! its unit, and report its oracle as run and passed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use glitch_serve::jsonin::{parse_json, JsonValue};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench lives in the repository")
        .to_path_buf()
}

fn object(value: &JsonValue) -> &BTreeMap<String, JsonValue> {
    match value {
        JsonValue::Object(map) => map,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn array(value: &JsonValue) -> &[JsonValue] {
    match value {
        JsonValue::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn text<'a>(map: &'a BTreeMap<String, JsonValue>, key: &str) -> &'a str {
    map[key].as_str().expect("a string field")
}

/// Builds the program under test in a target directory of its own (the
/// running test holds the lock of its own one).
fn glitch_cli() -> PathBuf {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("program");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "-p", "glitch-cli"])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "glitch-cli builds");
    target.join("release").join("glitch-cli")
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_oracle() {
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = parse_json(&spec).expect("BENCHMARK.json parses");
    let spec = object(&spec);
    let cli = glitch_cli();
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-work");
    for workload in array(&spec["workloads"]) {
        let name = text(object(workload), "name");
        for (trace, catalogue) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", name, "--seed", "3", "--seconds", "0.5"])
                .args(["--trace", trace, "--tiny", "--cli"])
                .arg(&cli)
                .arg("--work")
                .arg(&work)
                .output()
                .expect("perfbench runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{name} --trace {trace}: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            assert!(
                stdout.contains("\"circuit\":{\"label\""),
                "{name}: circuit identity recorded"
            );
            let last = stdout.lines().last().expect("a result line");
            let result = parse_json(last).expect("the result line is JSON");
            let result = object(&result);
            let keys: Vec<&str> = result.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result["correct"], JsonValue::Bool(true), "{name}: {last}");
            assert!(result["attempted"].as_u64().unwrap() >= 1);
            assert_eq!(result["failed"].as_u64(), Some(0));
            let metrics = object(&result["metrics"]);
            let expected = array(&spec[catalogue]);
            assert_eq!(metrics.len(), expected.len(), "{name}: {last}");
            for metric in expected {
                let metric = object(metric);
                let got = object(&metrics[text(metric, "name")]);
                assert_eq!(text(got, "unit"), text(metric, "unit"));
                assert!(got["value"].as_f64().is_some());
            }
            if trace == "1" {
                assert_eq!(
                    object(&metrics["trace.replay_match"])["value"].as_f64(),
                    Some(1.0),
                    "{name}: the traced replay renders the program's own reports"
                );
            }
        }
    }
}
