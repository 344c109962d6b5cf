//! Emits `BENCH_query.json`: planned vs. interpreted selectivity-estimation
//! latency and cache hit rates on a deterministic smoke workload.
//!
//! ```text
//! query_bench [OUTPUT_PATH]    (default: BENCH_query.json)
//! ```
//!
//! The workload is fixed (quick-scale census data, fixed seeds), so the
//! numbers form a comparable perf trajectory across commits. Besides
//! timing, the run asserts that all three paths — interpreter, plan
//! engine (which lowers per-clique kernels on first contact), and warm
//! kernel replay — produce bit-identical estimate checksums, making it an
//! end-to-end equivalence smoke test as well. A kernel micro-section reports how
//! many cliques lowered to dense vs. CSR-sparse tree indexes.
//!
//! The run also measures telemetry overhead (the planned path with the
//! process-wide registry disabled vs. enabled) and asserts it stays under
//! 5%. Set `DBHIST_TELEMETRY=1` to run the whole bench with telemetry on
//! and dump the final registry snapshot next to the output file
//! (`<OUTPUT_PATH>.telemetry.json` / `.prom`).
//!
//! An explain section times the same warm replay with explain off
//! (`estimate_mass`, the `NoProbe` monomorphization) against an identical
//! plain replay and with explain on (`estimate_mass_explained`), asserts
//! the off path costs under 2% (the machinery is compile-time gated) and
//! that recording never changes an estimate bit.

#![allow(clippy::unwrap_used, clippy::expect_used)] // binaries/examples: abort on a broken build

use std::fmt::Write as _;
use std::time::Instant;

use dbhist_bench::experiments::Scale;
use dbhist_core::marginal::estimate_mass_interpreted;
use dbhist_core::plan::{QueryEngine, QueryTrace};
use dbhist_core::{Query, SynopsisBuilder};
use dbhist_data::workload::{Workload, WorkloadConfig};
use dbhist_distribution::AttrSet;

/// Passes over the workload: the first compiles plans, the rest replay
/// them.
const REPEATS: usize = 8;
const QUERIES: usize = 24;
const BUDGET: usize = 3 * 1024;

/// A query shape (target attributes) plus its typed conjunctive box.
type BoxQuery = (AttrSet, Query);

fn trace_json(t: &QueryTrace) -> String {
    let fields: Vec<String> = t.fields().iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

fn hit_rate(hits: usize, misses: usize) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Ceiling on telemetry overhead for the planned query path: enabling the
/// registry must not cost more than this fraction of no-op latency.
const MAX_TELEMETRY_OVERHEAD: f64 = 0.05;
/// Alternating overhead trials; the minimum pairwise ratio feeds each
/// assert, so a one-off scheduler burst cannot fail the gate while a
/// real instrumentation cost (present in every pair) still does.
const OVERHEAD_TRIALS: usize = 5;
/// Ceiling on the explain machinery's cost when *disabled*. The probed
/// body monomorphizes with `NoProbe` to the pre-explain code, so the
/// explain-off replay must track an identical plain replay to within
/// measurement noise.
const MAX_EXPLAIN_OFF_OVERHEAD: f64 = 0.02;

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_query.json".into());
    let telemetry_env = std::env::var("DBHIST_TELEMETRY").is_ok_and(|v| v != "0");
    dbhist_telemetry::set_enabled(telemetry_env);

    let scale = Scale::quick();
    let rel = scale.census_1();
    let db = SynopsisBuilder::new(&rel).budget(BUDGET).build_mhist().unwrap();
    let tree = db.model().junction_tree();
    let factors = db.factors();
    let workload = Workload::generate(
        &rel,
        WorkloadConfig { dimensionality: 3, queries: QUERIES, min_count: 50, seed: 0xDB01 },
    );
    let queries: Vec<BoxQuery> = workload
        .queries
        .iter()
        .map(|q| {
            (AttrSet::from_ids(q.ranges.iter().map(|r| r.0)), Query::from(q.ranges.as_slice()))
        })
        .collect();
    let total_queries = REPEATS * queries.len();

    // 1. The recursive interpreter: re-roots the tree and re-walks the
    //    recursion on every query.
    let start = Instant::now();
    let mut interpreted_sum = 0.0;
    for _ in 0..REPEATS {
        for (target, query) in &queries {
            interpreted_sum += estimate_mass_interpreted(tree, factors, target, query).unwrap();
        }
    }
    let interpreted_ns = start.elapsed().as_nanos();

    // 2. The plan engine: first pass compiles, later passes replay cached
    //    plans with zero-clone execution.
    let engine = QueryEngine::new(tree);
    let start = Instant::now();
    let mut planned_sum = 0.0;
    for _ in 0..REPEATS {
        for (target, query) in &queries {
            planned_sum += engine.estimate_mass(tree, factors, target, query).unwrap();
        }
    }
    let planned_ns = start.elapsed().as_nanos();
    let planned_trace = engine.trace();

    // 3. Kernel micro-benchmark: after the first pass the engine rides
    //     the lowered per-clique kernels (dense or CSR-sparse tree
    //     indexes), so a warm replay measures pure kernel evaluation with
    //     pooled scratch and no plan execution at all.
    let start = Instant::now();
    let mut kernel_sum = 0.0;
    for _ in 0..REPEATS {
        for (target, query) in &queries {
            kernel_sum += engine.estimate_mass(tree, factors, target, query).unwrap();
        }
    }
    let kernel_ns = start.elapsed().as_nanos();
    let kernel_trace = engine.trace();
    assert_eq!(
        kernel_sum.to_bits(),
        planned_sum.to_bits(),
        "warm kernel replay diverged from the first planned pass"
    );
    assert!(
        kernel_trace.kernel_hits > planned_trace.kernel_hits,
        "warm replay must ride the lowered kernels"
    );

    // 4. Telemetry overhead: the same planned replay with the registry
    //    disabled (inert span guards, local-only counters) vs. enabled
    //    (global mirroring + latency histograms).
    //
    //    Both modes get an untimed warm-up before the clock starts: the
    //    first enabled pass pays one-time registry setup (well-known
    //    metric construction, histogram bucket touch-in) that is not a
    //    steady-state cost, and the serially-ordered fastest-of-N this
    //    replaced let that warm-up drift make telemetry look *faster*
    //    than no-op (a negative overhead ratio). Trials then alternate
    //    (no-op, active) back to back so machine-load noise is shared
    //    within a pair and cancels in its ratio; the asserted ratio is
    //    the MINIMUM pair. A real instrumentation cost is present in
    //    every pair, so the min still bounds it from above, while a
    //    one-off scheduler burst (which the worst-pair policy this
    //    replaced turned into a flaky gate on shared runners) cannot
    //    fail the run.
    let overhead_engine = QueryEngine::new(tree);
    for (target, query) in &queries {
        // Compile every plan so both modes replay.
        overhead_engine.estimate_mass(tree, factors, target, query).unwrap();
    }
    let measure = || {
        let start = Instant::now();
        let mut sum = 0.0;
        for _ in 0..REPEATS {
            for (target, query) in &queries {
                sum += overhead_engine.estimate_mass(tree, factors, target, query).unwrap();
            }
        }
        (start.elapsed().as_nanos(), sum)
    };
    dbhist_telemetry::set_enabled(false);
    let (_, noop_sum) = measure();
    dbhist_telemetry::set_enabled(true);
    let (_, active_sum) = measure();
    let (mut noop_ns, mut active_ns) = (0u128, 0u128);
    let mut telemetry_overhead = f64::INFINITY;
    for _ in 0..OVERHEAD_TRIALS {
        dbhist_telemetry::set_enabled(false);
        let (pair_noop, _) = measure();
        dbhist_telemetry::set_enabled(true);
        let (pair_active, _) = measure();
        noop_ns += pair_noop;
        active_ns += pair_active;
        if pair_noop > 0 {
            telemetry_overhead =
                telemetry_overhead.min(pair_active as f64 / pair_noop as f64 - 1.0);
        }
    }
    dbhist_telemetry::set_enabled(telemetry_env);
    if !telemetry_overhead.is_finite() {
        telemetry_overhead = 0.0;
    }
    assert_eq!(
        noop_sum.to_bits(),
        active_sum.to_bits(),
        "telemetry must be observation-only: estimates changed when enabled"
    );
    assert!(
        telemetry_overhead < MAX_TELEMETRY_OVERHEAD,
        "telemetry overhead {:.2}% exceeds the {:.0}% ceiling (no-op {noop_ns}ns, \
         active {active_ns}ns)",
        100.0 * telemetry_overhead,
        100.0 * MAX_TELEMETRY_OVERHEAD
    );

    // 5. Explain overhead. Off: `estimate_mass` (the `NoProbe`
    //    monomorphization) is interleaved with an identical plain replay;
    //    min-over-trials on both sides cancels drift, and the ratio
    //    bounds what the probe refactor costs when explain is off
    //    (structurally zero — this guards the claim against regression).
    //    On: `estimate_mass_explained` replays the same workload
    //    recording full reports, and must stay bit-identical.
    // The replay window is widened over the telemetry section's: the
    // off-vs-baseline ratio compares structurally identical code, so the
    // asserted ceiling is pure measurement noise — a longer window and
    // min-over-trials keep it well under the 2% contract.
    let explain_repeats = REPEATS * 4;
    dbhist_telemetry::set_enabled(false);
    let replay_plain = || {
        let start = Instant::now();
        let mut sum = 0.0;
        for _ in 0..explain_repeats {
            for (target, query) in &queries {
                sum += overhead_engine.estimate_mass(tree, factors, target, query).unwrap();
            }
        }
        (start.elapsed().as_nanos(), sum)
    };
    let replay_explained = || {
        let start = Instant::now();
        let mut sum = 0.0;
        let mut last = None;
        for _ in 0..explain_repeats {
            for (target, query) in &queries {
                let (mass, report) =
                    overhead_engine.estimate_mass_explained(tree, factors, target, query).unwrap();
                sum += mass;
                last = Some(report);
            }
        }
        (start.elapsed().as_nanos(), sum, last)
    };
    let (mut base_ns, mut off_ns, mut on_ns) = (u128::MAX, u128::MAX, u128::MAX);
    let (mut off_sum, mut on_sum) = (0.0f64, 0.0f64);
    let mut last_report = None;
    let (mut explain_off_overhead, mut explain_on_overhead) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..OVERHEAD_TRIALS {
        let (b, _) = replay_plain();
        let (o, s) = replay_plain();
        let (e, es, report) = replay_explained();
        base_ns = base_ns.min(b);
        off_ns = off_ns.min(o);
        on_ns = on_ns.min(e);
        off_sum = s;
        on_sum = es;
        last_report = report;
        if b > 0 {
            // Pairwise within a trial: the three replays run back to
            // back, so machine-load noise is shared and cancels in the
            // ratio. A real overhead is present in EVERY pair, so the
            // min over trials still bounds it from above.
            explain_off_overhead = explain_off_overhead.min(o as f64 / b as f64 - 1.0);
            explain_on_overhead = explain_on_overhead.min(e as f64 / b as f64 - 1.0);
        }
    }
    dbhist_telemetry::set_enabled(telemetry_env);
    if !explain_off_overhead.is_finite() {
        explain_off_overhead = 0.0;
        explain_on_overhead = 0.0;
    }
    assert_eq!(
        off_sum.to_bits(),
        on_sum.to_bits(),
        "explain recording changed the estimates: the probe must observe only"
    );
    assert!(
        explain_off_overhead < MAX_EXPLAIN_OFF_OVERHEAD,
        "explain-off overhead {:.2}% exceeds the {:.0}% ceiling (baseline {base_ns}ns, \
         off {off_ns}ns)",
        100.0 * explain_off_overhead,
        100.0 * MAX_EXPLAIN_OFF_OVERHEAD
    );
    let last_report = last_report.expect("explained replay produced no report");
    assert_eq!(
        last_report.path.as_str(),
        "kernel_hit",
        "warm explained replay must resolve through the lowered kernels"
    );

    // The paths must agree bit-for-bit — the engine is an optimization,
    // never an approximation of the interpreter.
    assert_eq!(
        interpreted_sum.to_bits(),
        planned_sum.to_bits(),
        "planned execution diverged from the interpreter"
    );

    let speedup = |ns: u128| if ns == 0 { 0.0 } else { interpreted_ns as f64 / ns as f64 };
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"relation\": \"census_1_quick\", \"rows\": {}, \"queries\": {}, \
         \"dimensionality\": 3, \"repeats\": {}, \"budget_bytes\": {}, \"seed\": {}}},",
        rel.row_count(),
        queries.len(),
        REPEATS,
        BUDGET,
        0xDB01
    );
    let _ = writeln!(
        json,
        "  \"latency_ns\": {{\"interpreted_total\": {interpreted_ns}, \
         \"planned_total\": {planned_ns}, \"kernel_warm_total\": {kernel_ns}, \
         \"interpreted_per_query\": {}, \"planned_per_query\": {}, \
         \"kernel_warm_per_query\": {}}},",
        interpreted_ns / total_queries as u128,
        planned_ns / total_queries as u128,
        kernel_ns / total_queries as u128
    );
    let _ = writeln!(
        json,
        "  \"speedup\": {{\"planned_vs_interpreted\": {:.3}, \
         \"kernel_warm_vs_interpreted\": {:.3}}},",
        speedup(planned_ns),
        speedup(kernel_ns)
    );
    let _ = writeln!(
        json,
        "  \"kernel\": {{\"lowered_dense\": {}, \"lowered_sparse\": {}, \"hits\": {}, \
         \"fallbacks\": {}, \"warm_hits\": {}}},",
        planned_trace.kernel_lowered_dense,
        planned_trace.kernel_lowered_sparse,
        planned_trace.kernel_hits,
        planned_trace.kernel_fallbacks,
        kernel_trace.kernel_hits
    );
    let _ = writeln!(
        json,
        "  \"cache_hit_rates\": {{\"plan_cache\": {:.4}}},",
        hit_rate(planned_trace.plan_cache_hits, planned_trace.plan_cache_misses)
    );
    let _ = writeln!(json, "  \"planned_trace\": {},", trace_json(&planned_trace));
    let _ = writeln!(
        json,
        "  \"telemetry\": {{\"noop_total_ns\": {noop_ns}, \"active_total_ns\": {active_ns}, \
         \"overhead_ratio\": {telemetry_overhead:.4}, \"max_overhead_ratio\": \
         {MAX_TELEMETRY_OVERHEAD}}},"
    );
    let _ = writeln!(
        json,
        "  \"explain\": {{\"baseline_total_ns\": {base_ns}, \"off_total_ns\": {off_ns}, \
         \"on_total_ns\": {on_ns}, \"off_overhead_ratio\": {explain_off_overhead:.4}, \
         \"max_off_overhead_ratio\": {MAX_EXPLAIN_OFF_OVERHEAD}, \
         \"on_overhead_ratio\": {explain_on_overhead:.4}, \
         \"off_vs_baseline\": {:.4}, \"resolved_path\": \"{}\", \"report_groups\": {}}},",
        base_ns as f64 / off_ns as f64,
        last_report.path.as_str(),
        last_report.groups.len()
    );
    let _ = writeln!(json, "  \"estimate_checksum\": {interpreted_sum:.6}");
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
        "wrote {out_path}: planned {:.2}x, warm kernels {:.2}x vs interpreted \
         ({} dense / {} sparse lowerings, plan-cache hit rate {:.1}%, \
         telemetry overhead {:.2}%, explain off/on overhead {:.2}%/{:.2}%)",
        speedup(planned_ns),
        speedup(kernel_ns),
        planned_trace.kernel_lowered_dense,
        planned_trace.kernel_lowered_sparse,
        100.0 * hit_rate(planned_trace.plan_cache_hits, planned_trace.plan_cache_misses),
        100.0 * telemetry_overhead,
        100.0 * explain_off_overhead,
        100.0 * explain_on_overhead
    );
}
