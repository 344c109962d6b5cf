//! Emits `BENCH_build.json`: serial vs. parallel synopsis-construction
//! latency, per phase, on a deterministic allocation-heavy workload.
//!
//! ```text
//! build_bench [OUTPUT_PATH]    (default: BENCH_build.json)
//! ```
//!
//! Set `DBHIST_TELEMETRY=1` to run with the process-wide telemetry
//! registry enabled and dump its final snapshot next to the output file
//! (`<OUTPUT_PATH>.telemetry.json` / `.prom`).
//!
//! The workload is fixed (a deterministic wide-domain table whose clique
//! marginals support thousands of buckets, and a byte budget large
//! enough that thousands of splits are funded), so the numbers form a
//! comparable perf trajectory across commits. Besides timing, the run
//! asserts that the serial (`threads = 1`) and parallel (`threads >= 4`)
//! pipelines produce bit-identical synopses — same model, same factors,
//! same estimate checksum — making it an end-to-end determinism smoke
//! test as well.
//!
//! Both configurations run the same serial `IncrementalGains` greedy:
//! every clique builder caches its next split, so a round costs one
//! split and allocation has no parallel path. `threads` fans out only
//! candidate scoring, per-clique construction and assembly, each above
//! the work-size floor recorded under `thresholds` in the output.

#![allow(clippy::unwrap_used, clippy::expect_used)] // binaries/examples: abort on a broken build

use std::fmt::Write as _;
use std::time::Duration;

use dbhist_core::builder::{resolve_threads, BuildTrace};
use dbhist_core::synopsis::MIN_PARALLEL_CLIQUES;
use dbhist_core::{Query, SelectivityEstimator, SynopsisBuilder};
use dbhist_data::workload::{Workload, WorkloadConfig};
use dbhist_distribution::{Relation, Schema};
use dbhist_model::selection::MIN_PARALLEL_CANDIDATES;

/// Builds per configuration; the fastest run is reported (steady-state
/// figure, robust to scheduler noise on shared CI runners).
const REPEATS: usize = 3;
/// Large enough that allocation funds thousands of splits and dominates
/// the pipeline — the regime parallel construction targets.
const BUDGET: usize = 64 * 1024;
const QUERIES: usize = 16;
const ROWS: usize = 40_000;
/// Per-attribute domain size; wide domains give the 2-D clique marginals
/// thousands of distinct cells, so the budget above funds thousands of
/// allocation rounds instead of saturating early.
const DOMAIN: u32 = 64;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A deterministic 6-attribute table with two strongly correlated pairs
/// `(a0, a1)` and `(a2, a3)` plus two independent attributes, mirroring
/// the structure forward selection discovers on census data but with
/// wide domains.
fn build_relation() -> Relation {
    let mut state = 0xB11D_5EEDu64;
    let schema = Schema::new((0..6).map(|i| (format!("a{i}"), DOMAIN))).unwrap();
    let rows: Vec<Vec<u32>> = (0..ROWS)
        .map(|_| {
            let base_a = (xorshift(&mut state) % u64::from(DOMAIN)) as u32;
            let base_b = (xorshift(&mut state) % u64::from(DOMAIN)) as u32;
            let noise = |state: &mut u64, v: u32| {
                if xorshift(state).is_multiple_of(4) {
                    (v + (xorshift(state) % 3) as u32) % DOMAIN
                } else {
                    v
                }
            };
            vec![
                base_a,
                noise(&mut state, base_a),
                base_b,
                noise(&mut state, base_b),
                (xorshift(&mut state) % u64::from(DOMAIN)) as u32,
                (xorshift(&mut state) % u64::from(DOMAIN)) as u32,
            ]
        })
        .collect();
    Relation::from_rows(schema, rows).unwrap()
}

fn trace_json(t: &BuildTrace) -> String {
    format!(
        "{{\"threads\": {}, \"selection_ns\": {}, \"construction_ns\": {}, \
         \"allocation_ns\": {}, \"assembly_ns\": {}, \"total_ns\": {}, \
         \"cliques\": {}, \"selection_steps\": {}, \"peak_candidates\": {}, \
         \"entropy_computations\": {}, \"splits_funded\": {}}}",
        t.threads,
        t.selection.as_nanos(),
        t.construction.as_nanos(),
        t.allocation.as_nanos(),
        t.assembly.as_nanos(),
        t.total.as_nanos(),
        t.cliques,
        t.selection_steps,
        t.peak_candidates,
        t.entropy_computations,
        t.splits_funded,
    )
}

/// Best-of-`REPEATS` build at the given thread count, plus the estimate
/// checksum of the final run (identical across runs by determinism).
fn best_build(rel: &Relation, threads: usize, workload: &Workload) -> (BuildTrace, f64, String) {
    let mut best: Option<BuildTrace> = None;
    let mut checksum = 0.0;
    let mut factors_digest = String::new();
    for _ in 0..REPEATS {
        let db = SynopsisBuilder::new(rel).budget(BUDGET).threads(threads).build_mhist().unwrap();
        let trace = db.build_trace();
        if best.as_ref().is_none_or(|b| trace.total < b.total) {
            best = Some(trace);
        }
        checksum =
            workload.queries.iter().map(|q| db.estimate(&Query::from(q.ranges.as_slice()))).sum();
        factors_digest = format!("{:?}|{:?}", db.model().graph(), db.factors());
    }
    (best.unwrap(), checksum, factors_digest)
}

fn speedup(serial: Duration, parallel: Duration) -> f64 {
    if parallel.is_zero() {
        0.0
    } else {
        serial.as_secs_f64() / parallel.as_secs_f64()
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_build.json".into());
    let telemetry_env = std::env::var("DBHIST_TELEMETRY").is_ok_and(|v| v != "0");
    dbhist_telemetry::set_enabled(telemetry_env);

    let rel = build_relation();
    let workload = Workload::generate(
        &rel,
        WorkloadConfig { dimensionality: 3, queries: QUERIES, min_count: 50, seed: 0xB11D },
    );
    let parallel_threads = resolve_threads(0).max(4);

    let (serial, serial_sum, serial_digest) = best_build(&rel, 1, &workload);
    let (parallel, parallel_sum, parallel_digest) = best_build(&rel, parallel_threads, &workload);

    // Parallelism is an optimization, never an approximation: the two
    // pipelines must agree bit-for-bit.
    assert_eq!(
        serial_sum.to_bits(),
        parallel_sum.to_bits(),
        "parallel build diverged from serial (checksum {serial_sum} vs {parallel_sum})"
    );
    assert_eq!(serial_digest, parallel_digest, "parallel model/factors diverged from serial");
    assert_eq!(serial.splits_funded, parallel.splits_funded);
    assert_eq!(serial.entropy_computations, parallel.entropy_computations);

    let total = speedup(serial.total, parallel.total);
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"relation\": \"synthetic_correlated_pairs\", \"rows\": {}, \
         \"domain\": {DOMAIN}, \"budget_bytes\": {BUDGET}, \"repeats\": {REPEATS}, \
         \"queries\": {QUERIES}, \"seed\": {}}},",
        rel.row_count(),
        0xB11D
    );
    let _ = writeln!(json, "  \"serial\": {},", trace_json(&serial));
    let _ = writeln!(json, "  \"parallel\": {},", trace_json(&parallel));
    // Work-size floors below which selection / construction stay serial.
    // This workload (15 peak candidates, 5 cliques) sits under both, so
    // its selection/construction speedups are expected to be ~1.0: the
    // floors exist precisely because fan-out lost time at this scale.
    let _ = writeln!(
        json,
        "  \"thresholds\": {{\"min_parallel_candidates\": {MIN_PARALLEL_CANDIDATES}, \
         \"min_parallel_cliques\": {MIN_PARALLEL_CLIQUES}}},"
    );
    let _ = writeln!(
        json,
        "  \"speedup\": {{\"total\": {:.3}, \"selection\": {:.3}, \"construction\": {:.3}, \
         \"allocation\": {:.3}, \"assembly\": {:.3}}},",
        total,
        speedup(serial.selection, parallel.selection),
        speedup(serial.construction, parallel.construction),
        speedup(serial.allocation, parallel.allocation),
        speedup(serial.assembly, parallel.assembly)
    );
    let _ = writeln!(json, "  \"estimate_checksum\": {serial_sum:.6}");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).unwrap();
    if telemetry_env {
        let snap = dbhist_telemetry::snapshot();
        std::fs::write(
            format!("{out_path}.telemetry.json"),
            dbhist_telemetry::export::to_json(&snap),
        )
        .unwrap();
        std::fs::write(
            format!("{out_path}.telemetry.prom"),
            dbhist_telemetry::export::to_prometheus(&snap),
        )
        .unwrap();
    }
    eprintln!(
        "wrote {out_path}: {total:.2}x total at {parallel_threads} threads \
         (selection {:.2}x, construction {:.2}x, allocation {:.2}x; \
         {} splits funded, bit-identical to serial)",
        speedup(serial.selection, parallel.selection),
        speedup(serial.construction, parallel.construction),
        speedup(serial.allocation, parallel.allocation),
        serial.splits_funded
    );
    assert!(
        total >= 2.0,
        "parallel pipeline must be at least 2x over serial on this workload, got {total:.2}x"
    );
}
