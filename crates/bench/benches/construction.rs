//! Construction-cost benchmarks (paper defers these to the full version).
//!
//! * forward model selection: naive vs. the efficient separator-based
//!   algorithm (the paper's novel contribution), including the number of
//!   marginal-entropy computations each needs, and the build's entry
//!   (`select`, which counts no full-joint entropy) next to `run`, and
//!   `select` on paper-scale Census-2;
//! * clique-histogram construction (MHIST builder) at several budgets,
//!   and driven to saturation as `OptimalDp`'s error curves drive it;
//! * end-to-end DB-histogram construction, including the paper-scale
//!   Census-1 3 KB and Census-2 20 KB builds (`dbbench serve-hot`'s and
//!   `serve-wide`'s set-ups).

#![allow(clippy::unwrap_used, clippy::expect_used)] // bench drivers: abort on a broken build

use criterion::{criterion_group, BenchmarkId, Criterion};
use dbhist_bench::experiments::Scale;
use dbhist_core::alloc::error_curve;
use dbhist_core::build::MhistCliqueBuilder;
use dbhist_core::SynopsisBuilder;
use dbhist_data::census;
use dbhist_distribution::AttrSet;
use dbhist_histogram::mhist::MhistBuilder;
use dbhist_histogram::SplitCriterion;
use dbhist_model::selection::{ForwardSelector, SelectionAlgorithm, SelectionConfig};

fn bench_selection(c: &mut Criterion) {
    let scale = Scale::quick();
    let rel = scale.census_1();
    let mut group = c.benchmark_group("model_selection");
    group.sample_size(10);
    for algorithm in [SelectionAlgorithm::Naive, SelectionAlgorithm::Efficient] {
        group.bench_with_input(
            BenchmarkId::new("census1", format!("{algorithm:?}")),
            &algorithm,
            |b, &algorithm| {
                b.iter(|| {
                    let config = SelectionConfig { algorithm, ..Default::default() };
                    ForwardSelector::new(&rel, config).run()
                });
            },
        );
    }
    // The build's entry: the same loop as `run`, without the divergence
    // report and so without the full-joint entropy.
    group.bench_function(BenchmarkId::new("census1_select", "Efficient"), |b| {
        b.iter(|| ForwardSelector::new(&rel, SelectionConfig::default()).select());
    });
    // Paper scale: Census-2 (83,566 rows x 12), whose 66 pair tables are
    // `dbbench serve-wide`'s selection phase.
    let census_2 = census::census_data_set_2();
    group.bench_function(BenchmarkId::new("census2_select", "Efficient"), |b| {
        b.iter(|| ForwardSelector::new(&census_2, SelectionConfig::default()).select());
    });
    group.finish();

    // Report the entropy-computation counts once (the paper's cost metric).
    for algorithm in [SelectionAlgorithm::Naive, SelectionAlgorithm::Efficient] {
        let config = SelectionConfig { algorithm, ..Default::default() };
        let result = ForwardSelector::new(&rel, config).run();
        eprintln!(
            "selection {algorithm:?}: {} edges, {} marginal-entropy computations",
            result.model.edge_count(),
            result.entropy_computations
        );
    }
}

fn bench_mhist_build(c: &mut Criterion) {
    let scale = Scale::quick();
    let rel = scale.census_1();
    let pair = rel.marginal(&AttrSet::from_ids([1, 2])).expect("country/mother marginal");
    let mut group = c.benchmark_group("mhist_build");
    group.sample_size(10);
    for buckets in [32usize, 128, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(buckets), &buckets, |b, &n| {
            b.iter(|| MhistBuilder::build(&pair, n, SplitCriterion::MaxDiff).unwrap());
        });
    }
    group.finish();

    // `OptimalDp` measures every clique's error curve by splitting its
    // builder until the budget or the cells run out; an unbounded budget
    // runs the builder to saturation (one bucket per cell).
    let mut group = c.benchmark_group("mhist_saturation");
    group.sample_size(10);
    group.bench_function("country_mother", |b| {
        b.iter(|| {
            let mut builder = MhistCliqueBuilder::start(&pair, SplitCriterion::MaxDiff).unwrap();
            error_curve(&mut builder, usize::MAX).len()
        });
    });
    group.finish();
}

fn bench_db_build(c: &mut Criterion) {
    let scale = Scale::quick();
    let rel = scale.census_1();
    let mut group = c.benchmark_group("db_build");
    group.sample_size(10);
    for kb in [1usize, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(kb), &kb, |b, &kb| {
            b.iter(|| SynopsisBuilder::new(&rel).budget(kb * 1024).build_mhist().unwrap());
        });
    }
    // Paper scale: Census-1 (125k rows x 6) at 3 KB, as `dbbench
    // serve-hot` builds it, and Census-2 (83,566 rows x 12) at 20 KB, as
    // `dbbench serve-wide` builds it.
    let census_1 = census::census_data_set_1();
    group.bench_function("census1_3kb_paper", |b| {
        b.iter(|| SynopsisBuilder::new(&census_1).budget(3 * 1024).build_mhist().unwrap());
    });
    let census_2 = census::census_data_set_2();
    group.bench_function("census2_20kb", |b| {
        b.iter(|| SynopsisBuilder::new(&census_2).budget(20 * 1024).build_mhist().unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_selection, bench_mhist_build, bench_db_build);
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
