//! Query-answering benchmarks: per-estimator selectivity-estimation
//! latency and `ComputeMarginal` vs. the naive full-reconstruction
//! strategy (paper §3.3.1).

#![allow(clippy::unwrap_used, clippy::expect_used)] // bench drivers: abort on a broken build

use criterion::{criterion_group, BenchmarkId, Criterion};
use dbhist_bench::experiments::Scale;
use dbhist_core::baselines::{IndEstimator, MhistEstimator};
use dbhist_core::marginal::{
    compute_marginal_naive, compute_marginal_with_stats, estimate_mass_interpreted,
};
use dbhist_core::Query;
use dbhist_core::SelectivityEstimator;
use dbhist_core::SynopsisBuilder;
use dbhist_data::workload::{Workload, WorkloadConfig};
use dbhist_distribution::AttrSet;
use dbhist_histogram::SplitCriterion;

fn bench_estimation(c: &mut Criterion) {
    let scale = Scale::quick();
    let rel = scale.census_1();
    let budget = 3 * 1024;
    let db = SynopsisBuilder::new(&rel).budget(budget).build_mhist().unwrap();
    let ind = IndEstimator::build(&rel, budget, SplitCriterion::MaxDiff).unwrap();
    let mhist = MhistEstimator::build(&rel, budget, SplitCriterion::MaxDiff).unwrap();
    let workload = Workload::generate(
        &rel,
        WorkloadConfig { dimensionality: 3, queries: 20, min_count: 50, seed: 5 },
    );
    // Convert once, outside the timed loop: the benchmark measures
    // estimation, not predicate construction.
    let queries: Vec<Query> =
        workload.queries.iter().map(|q| Query::from(q.ranges.as_slice())).collect();
    let estimators: Vec<(&str, &dyn SelectivityEstimator)> =
        vec![("DB2", &db), ("IND", &ind), ("MHIST", &mhist)];
    let mut group = c.benchmark_group("estimate_3d_workload");
    group.sample_size(10);
    for (name, est) in estimators {
        group.bench_with_input(BenchmarkId::from_parameter(name), &est, |b, est| {
            b.iter(|| queries.iter().map(|q| est.estimate(q)).sum::<f64>());
        });
    }
    group.finish();
}

fn bench_marginal_strategies(c: &mut Criterion) {
    let scale = Scale::quick();
    let rel = scale.census_1();
    let db = SynopsisBuilder::new(&rel).budget(3 * 1024).build_mhist().unwrap();
    let tree = db.model().junction_tree();
    let factors = db.factors();
    // A small cross-clique target.
    let target = AttrSet::from_ids([1, 5]);
    let mut group = c.benchmark_group("compute_marginal");
    group.sample_size(10);
    group.bench_function("fig3_algorithm", |b| {
        b.iter(|| compute_marginal_with_stats(tree, factors, &target).unwrap());
    });
    group.bench_function("naive_full_joint", |b| {
        b.iter(|| compute_marginal_naive(tree, factors, &target).unwrap());
    });
    group.finish();

    let (_, fast) = compute_marginal_with_stats(tree, factors, &target).unwrap();
    let (_, naive) = compute_marginal_naive(tree, factors, &target).unwrap();
    eprintln!(
        "ops for {target}: fig3 {fast:?} vs naive {naive:?} (model {})",
        db.model().notation()
    );
}

fn bench_interpreter(c: &mut Criterion) {
    let scale = Scale::quick();
    let rel = scale.census_1();
    let db = SynopsisBuilder::new(&rel).budget(3 * 1024).build_mhist().unwrap();
    let tree = db.model().junction_tree();
    let factors = db.factors();
    let workload = Workload::generate(
        &rel,
        WorkloadConfig { dimensionality: 3, queries: 20, min_count: 50, seed: 5 },
    );
    let queries: Vec<(AttrSet, Query)> = workload
        .queries
        .iter()
        .map(|q| {
            (AttrSet::from_ids(q.ranges.iter().map(|r| r.0)), Query::from(q.ranges.as_slice()))
        })
        .collect();

    let mut group = c.benchmark_group("estimate_mass_path");
    group.sample_size(10);
    group.bench_function("interpreted", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|(t, r)| estimate_mass_interpreted(tree, factors, t, r).unwrap())
                .sum::<f64>()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_estimation, bench_marginal_strategies, bench_interpreter);
fn main() {
    // Debug builds (`cargo test --workspace`) skip the heavy pipelines;
    // run `cargo bench` for real measurements.
    if cfg!(debug_assertions) {
        eprintln!("skipping benches in debug build; use `cargo bench`");
        return;
    }
    benches();
    Criterion::default().configure_from_args().final_summary();
}
