//! Smoke test of the benchmark at test scale: every workload, untraced
//! and traced, judges every cell correct and ends its output with a
//! result line carrying exactly the metrics `BENCHMARK.json` names for
//! that mode, each with its declared unit.
//!
//! Run it in the profile the benchmark ships in:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use rest_obs::Json;

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("read")).expect("parse");
    doc.get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs one workload at test scale for a single pass; returns the
/// parsed result line.
fn run(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.001"])
        .args(["--trace", &trace.to_string(), "--scale", "test"])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line {last:?}: {e:?}"))
}

#[test]
fn every_workload_is_correct_and_emits_the_declared_metrics() {
    for workload in workloads() {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(&workload, trace);
            let what = format!("{workload} trace {trace}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{what}: failed_frac must be 0"
            );
            assert!(
                result.get("attempted").and_then(Json::as_u64).unwrap_or(0) > 0,
                "{what}"
            );
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{what}: no metrics object");
            };
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(Json::as_f64).is_some(),
                        "{what}: {name} has no value"
                    );
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(emitted, declared(key), "{what}");
            if trace == 0 {
                for (name, m) in metrics {
                    let v = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                    assert!(v > 0.0, "{what}: end-to-end metric {name} is {v}");
                }
            }
        }
    }
}
