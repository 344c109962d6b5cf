//! Telemetry is observation-only: enabling the process-wide registry must
//! not change a single bit of any build or query result.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests assert by panicking

use dbhist::core::{Query, QueryTrace, SelectivityEstimator, SynopsisBuilder};
use dbhist::data::workload::{Workload, WorkloadConfig};
use dbhist::distribution::{Relation, Schema};

/// a == b (8 values), c weakly dependent; N = 4096.
fn relation() -> Relation {
    let schema = Schema::new(vec![("a", 8), ("b", 8), ("c", 6)]).unwrap();
    let rows: Vec<Vec<u32>> = (0..4096u32).map(|i| vec![i % 8, i % 8, (i / 8) % 6]).collect();
    Relation::from_rows(schema, rows).unwrap()
}

/// One full build + workload pass; returns everything a caller could
/// observe: per-query estimate bits, a structural digest of the synopsis,
/// the engine's counters, the build counters, and the drift gauge.
fn run_pipeline(
    rel: &Relation,
    workload: &Workload,
) -> (Vec<u64>, String, QueryTrace, Vec<usize>, f64) {
    let db = SynopsisBuilder::new(rel).budget(2048).build_mhist().unwrap();
    let mut bits = Vec::new();
    for q in &workload.queries {
        let query = Query::from(q.ranges.as_slice());
        bits.push(db.estimate(&query).to_bits());
        db.record_feedback(&query, q.exact as f64);
    }
    let digest = format!("{:?}|{:?}", db.model().graph(), db.factors());
    let build = db.build_trace();
    let build_counts = vec![
        build.cliques,
        build.splits_funded,
        build.selection_steps,
        build.peak_candidates,
        build.entropy_computations,
    ];
    (bits, digest, db.query_trace(), build_counts, db.drift_monitor().max_drift())
}

#[test]
fn telemetry_on_and_off_are_bit_identical() {
    let rel = relation();
    let workload = Workload::generate(
        &rel,
        WorkloadConfig { dimensionality: 2, queries: 20, min_count: 20, seed: 0x7E1E },
    );

    dbhist::telemetry::set_enabled(false);
    let (bits_off, digest_off, qtrace_off, build_off, drift_off) = run_pipeline(&rel, &workload);

    dbhist::telemetry::set_enabled(true);
    let (bits_on, digest_on, qtrace_on, build_on, drift_on) = run_pipeline(&rel, &workload);
    dbhist::telemetry::set_enabled(false);

    assert_eq!(bits_off, bits_on, "estimates changed when telemetry was enabled");
    assert_eq!(digest_off, digest_on, "model/factors changed when telemetry was enabled");
    assert_eq!(qtrace_off, qtrace_on, "query counters changed when telemetry was enabled");
    assert_eq!(build_off, build_on, "build counters changed when telemetry was enabled");
    assert_eq!(
        drift_off.to_bits(),
        drift_on.to_bits(),
        "drift gauge changed when telemetry was enabled"
    );

    // The enabled run must actually have mirrored into the registry —
    // otherwise this test would pass trivially with telemetry broken.
    let snap = dbhist::telemetry::snapshot();
    let estimates = snap.counter("dbhist_query_estimates_total").unwrap_or(0);
    assert!(estimates >= 2 * workload.queries.len() as u64, "enabled run did not mirror");
    // Only the enabled run mirrors, so the per-query counter reads the
    // synopsis's own count under its wire name.
    assert_eq!(
        snap.counter("dbhist_query_evaluations_total"),
        Some(qtrace_on.evaluations as u64),
        "dbhist_query_evaluations_total"
    );
}
