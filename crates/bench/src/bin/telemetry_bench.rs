//! End-to-end telemetry smoke bench: builds a DB histogram with the
//! process-wide registry enabled, replays a 100-query workload with
//! accuracy feedback, and verifies the resulting registry snapshot before
//! exporting it in both supported formats.
//!
//! ```text
//! telemetry_bench [OUTPUT_STEM]    (default: TELEMETRY_snapshot)
//! ```
//!
//! Writes `<OUTPUT_STEM>.json` and `<OUTPUT_STEM>.prom` — the same
//! snapshot rendered by both exporters — and asserts the acceptance
//! criteria of the telemetry subsystem:
//!
//! * build-path metrics (selection rounds, splits funded, builds) are
//!   non-zero after one end-to-end construction;
//! * query-path metrics (estimates, evaluations) are non-zero after the
//!   workload, evaluations account for every estimate, and the
//!   query-latency histogram reports p50/p99;
//! * per-clique drift gauges are live after `record_feedback`;
//! * both exporters render the identical snapshot (every metric value
//!   appears in both documents).

#![allow(clippy::unwrap_used, clippy::expect_used)] // binaries/examples: abort on a broken build

use dbhist_bench::experiments::Scale;
use dbhist_core::{Query, SelectivityEstimator, SynopsisBuilder};
use dbhist_data::workload::{Workload, WorkloadConfig};
use dbhist_telemetry::export::{to_json, to_prometheus};
use dbhist_telemetry::{MetricValue, Snapshot};

const BUDGET: usize = 3 * 1024;
const QUERIES: usize = 100;

/// Asserts the named counter exists and is non-zero, returning its value.
fn require_counter(snap: &Snapshot, name: &str) -> u64 {
    let v = snap.counter(name).unwrap_or_else(|| panic!("{name} missing from snapshot"));
    assert!(v > 0, "{name} must be non-zero after the workload");
    v
}

fn main() {
    let stem = std::env::args().nth(1).unwrap_or_else(|| "TELEMETRY_snapshot".into());
    dbhist_telemetry::set_enabled(true);

    // End-to-end build: forward selection, budget allocation, assembly —
    // every phase mirrors into the global registry.
    let scale = Scale::quick();
    let rel = scale.census_1();
    let db = SynopsisBuilder::new(&rel).budget(BUDGET).build_mhist().unwrap();

    // 100-query workload through the evaluator, with the exact answers
    // fed back so the drift monitor has observations.
    let workload = Workload::generate(
        &rel,
        WorkloadConfig { dimensionality: 3, queries: QUERIES, min_count: 50, seed: 0xDB01 },
    );
    assert_eq!(workload.queries.len(), QUERIES, "workload generation fell short");
    let mut checksum = 0.0;
    for q in &workload.queries {
        let query = Query::from(q.ranges.as_slice());
        checksum += db.estimate(&query);
        db.record_feedback(&query, q.exact as f64);
    }
    assert!(checksum.is_finite());

    let snap = dbhist_telemetry::snapshot();

    // Build path.
    require_counter(&snap, "dbhist_build_builds_total");
    let rounds = require_counter(&snap, "dbhist_build_selection_rounds_total");
    require_counter(&snap, "dbhist_build_splits_funded_total");
    require_counter(&snap, "dbhist_model_entropy_computations_total");

    // Query path. Each feedback call re-estimates, so estimates ≥ 2x the
    // workload; this `k_max = 2` model fits the evaluator's message
    // budget, so every estimate is an evaluation.
    let estimates = require_counter(&snap, "dbhist_query_estimates_total");
    assert!(estimates >= 2 * QUERIES as u64, "estimates {estimates} < {}", 2 * QUERIES);
    let evaluations = require_counter(&snap, "dbhist_query_evaluations_total");
    assert_eq!(evaluations, estimates, "every estimate is an evaluation");

    // Latency percentiles from the wait-free histogram.
    let latency = snap
        .histogram("dbhist_query_estimate_latency_ns")
        .expect("query latency histogram missing");
    assert_eq!(latency.count, estimates, "one latency sample per estimate");
    let p50 = latency.percentile(50.0).expect("p50 undefined");
    let p99 = latency.percentile(99.0).expect("p99 undefined");
    assert!(p50 > 0.0 && p99 >= p50, "implausible latency percentiles p50={p50} p99={p99}");

    // Per-clique drift gauges after feedback.
    let feedback = require_counter(&snap, "dbhist_estimator_feedback_total");
    assert_eq!(feedback, QUERIES as u64);
    let drift_gauges: Vec<(&str, f64)> = snap
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("dbhist_estimator_drift_ratio{"))
        .filter_map(|m| match m.value {
            MetricValue::Gauge(v) => Some((m.name.as_str(), v)),
            _ => None,
        })
        .collect();
    assert!(!drift_gauges.is_empty(), "no per-clique drift gauges published");
    assert!(
        drift_gauges.iter().any(|&(_, v)| v > 0.0),
        "feedback must move at least one drift gauge"
    );
    let max_gauge = drift_gauges.iter().fold(0.0f64, |acc, &(_, v)| acc.max(v));
    let monitor_max = db.drift_monitor().max_drift();
    assert!(
        (max_gauge - monitor_max).abs() < 1e-12,
        "published drift {max_gauge} disagrees with the monitor {monitor_max}"
    );

    // Both exporters must render the same snapshot: every counter value
    // and gauge appears in both documents under its metric name.
    let json = to_json(&snap);
    let prom = to_prometheus(&snap);
    for m in &snap.metrics {
        let base = m.name.split_once('{').map_or(m.name.as_str(), |(b, _)| b);
        assert!(json.contains(base), "{base} absent from JSON");
        assert!(prom.contains(base), "{base} absent from Prometheus text");
        if let MetricValue::Counter(v) = m.value {
            assert!(
                json.contains(&format!("\"{base}\":{{\"type\":\"counter\",\"value\":{v}}}")),
                "counter value {v} for {base} absent from JSON"
            );
            assert!(
                prom.lines().any(|l| l.starts_with(base) && l.ends_with(&format!(" {v}"))),
                "counter value {v} for {base} absent from Prometheus text"
            );
        }
    }

    std::fs::write(format!("{stem}.json"), &json).unwrap();
    std::fs::write(format!("{stem}.prom"), &prom).unwrap();
    eprintln!(
        "wrote {stem}.json/.prom: {} metrics ({rounds} selection rounds, {estimates} estimates, \
         p50 {p50:.0}ns, p99 {p99:.0}ns, max drift {monitor_max:.4})",
        snap.metrics.len()
    );
}
