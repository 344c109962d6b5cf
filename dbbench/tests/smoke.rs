//! Runs every workload at smoke scale (4,000×6 and 3,000×12 Census rows,
//! small budgets, one-second windows) with tracing on, and checks that
//! each run passes its own output checks and measures every metric
//! `BENCHMARK.json` declares.
#![allow(clippy::unwrap_used, clippy::expect_used)] // tests assert by panicking

use std::path::PathBuf;
use std::process::Command;

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;

const BENCHMARK: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

fn declared(key: &str) -> Vec<String> {
    let doc = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    doc.get(key)
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::str).map(str::to_string))
        .collect()
}

fn smoke(workload: &str) {
    let out = std::env::temp_dir().join(format!("dbbench-smoke-{}-{workload}", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_dbbench"))
        .args(["--workload", workload, "--scale", "smoke", "--seconds", "1", "--trace", "1"])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("dbbench runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{workload} failed: {}\n{stdout}",
        String::from_utf8_lossy(&run.stderr)
    );

    // The last line is the summary, carrying the per-layer metrics.
    let last = stdout.lines().last().expect("dbbench prints a summary");
    let summary = Json::parse(last).expect("the last line is JSON");
    assert_eq!(summary.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(summary.get("failed").and_then(Json::num), Some(0.0));
    assert!(summary.get("attempted").and_then(Json::num).is_some_and(|n| n >= 1.0));
    let metrics = summary.get("metrics").expect("summary has metrics");
    for name in declared("per_layer") {
        let value = metrics.get(&name).and_then(|m| m.get("value")).and_then(Json::num);
        assert!(value.is_some_and(f64::is_finite), "{workload}: per-layer {name} missing");
    }

    // The result file also holds the end-to-end metrics of the untraced
    // window, and a zero failure ratio.
    let result: PathBuf = out.join(format!("{workload}.json"));
    let doc = Json::parse(&std::fs::read_to_string(&result).expect("result file written"))
        .expect("result file parses");
    assert_eq!(doc.get("failure_ratio").and_then(Json::num), Some(0.0));
    let metrics = doc.get("metrics").expect("result has metrics");
    for name in declared("end_to_end") {
        let value = metrics.get(&name).and_then(|m| m.get("value")).and_then(Json::num);
        assert!(value.is_some_and(|v| v.is_finite() && v > 0.0), "{workload}: {name} missing or 0");
    }
    assert!(out.join(format!("{workload}.trace.json")).exists());
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn serve_hot() {
    smoke("serve-hot");
}

#[test]
fn serve_wide() {
    smoke("serve-wide");
}

#[test]
fn serve_grid() {
    smoke("serve-grid");
}

#[test]
fn ingest_mixed() {
    smoke("ingest-mixed");
}
