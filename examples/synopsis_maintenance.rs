//! Keeping a synopsis fresh under inserts — the paper's future-work
//! feature, implemented.
//!
//! A table receives a stream of insert batches through an
//! `IngestSession`. At first the new tuples follow the old correlation
//! pattern (counts simply shift); later the pattern *changes* and the
//! model goes stale. After each phase the session gets probe-query
//! feedback and `tune()` decides: stay idle, re-split one clique, or
//! recommend a rebuild, which this example then performs from the live
//! table.
//!
//! ```text
//! cargo run --release --example synopsis_maintenance
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // binaries/examples: abort on a broken build

use dbhist::core::ingest::{IngestConfig, IngestSession, TuneOutcome};
use dbhist::core::maintenance::MaintainedDbHistogram;
use dbhist::core::synopsis::DbConfig;
use dbhist::core::{Query, SelectivityEstimator};
use dbhist::data::census::{self, attrs};
use dbhist::distribution::Relation;
use dbhist::persist::wal::WalOp;

/// Rows per ingest batch.
const BATCH: usize = 500;

/// Probes sensitive to the country correlations the model encodes:
/// home-born (0) or foreign-born (1..=112) bands of two of the person's,
/// mother's and father's native countries.
fn probes() -> Vec<Query> {
    let pairs = [
        (attrs::COUNTRY, attrs::MOTHER_COUNTRY),
        (attrs::COUNTRY, attrs::FATHER_COUNTRY),
        (attrs::MOTHER_COUNTRY, attrs::FATHER_COUNTRY),
    ];
    let bands = [(0, 0), (1, 112)];
    pairs
        .into_iter()
        .flat_map(|(a, b)| {
            bands.into_iter().flat_map(move |(alo, ahi)| {
                bands.map(|(blo, bhi)| Query::range(a, alo, ahi).and(b, blo, bhi))
            })
        })
        .collect()
}

/// Streams `rows` into the session in batches, mirroring them into the
/// live table.
fn stream(session: &mut IngestSession, live: &mut Vec<Vec<u32>>, rows: Vec<Vec<u32>>) {
    for chunk in rows.chunks(BATCH) {
        let ops: Vec<WalOp> = chunk.iter().cloned().map(WalOp::Insert).collect();
        session.apply_batch(&ops).unwrap();
    }
    live.extend(rows);
}

/// Feeds every probe's exact count back, prints the probes' mean
/// relative error, and prints what `tune()` decided.
fn report(session: &mut IngestSession, rel: &Relation, label: &str) -> TuneOutcome {
    let probes = probes();
    let mut err = 0.0;
    for q in &probes {
        let exact = rel.count_range(q.ranges()) as f64;
        session.record_feedback(q, exact);
        err += (session.estimator().estimate(q) - exact).abs() / exact.max(1.0);
    }
    let m = session.estimator();
    println!(
        "{label:<28} rows {:>7.0} | drift {:>5.3} | probe mean rel.err {:.3}",
        m.row_count(),
        m.drift(),
        err / probes.len() as f64,
    );
    let outcome = session.tune().unwrap();
    println!("{:<28} tune() -> {outcome:?}", "");
    outcome
}

fn main() {
    let config = DbConfig::new(3 * 1024);
    let cfg = IngestConfig { min_observations: probes().len() as u64, ..IngestConfig::default() };
    let base = census::census_data_set_1_with(30_000, 21);
    let maintained = MaintainedDbHistogram::build(&base, config.clone()).unwrap();
    println!("initial model: {}\n", maintained.synopsis().model().notation());
    let mut session = IngestSession::begin(maintained, &base, cfg.clone()).unwrap();

    // Accumulate the true table alongside for ground truth.
    let mut live: Vec<Vec<u32>> = base.rows().map(<[u32]>::to_vec).collect();
    report(&mut session, &base, "fresh build");

    // Phase 1: inserts that FOLLOW the learned pattern.
    let more = census::census_data_set_1_with(6_000, 22);
    stream(&mut session, &mut live, more.rows().map(<[u32]>::to_vec).collect());
    let rel = Relation::from_rows(base.schema().clone(), live.clone()).unwrap();
    report(&mut session, &rel, "after aligned inserts");

    // Phase 2: a migration wave breaking the old correlations — immigrant
    // persons whose mothers are home-born.
    let wave = (0..6_000u32).map(|i| vec![1 + i % 3, 1 + i % 112, 0, 0, 4, 20 + i % 50]).collect();
    stream(&mut session, &mut live, wave);
    let rel = Relation::from_rows(base.schema().clone(), live.clone()).unwrap();
    let outcome = report(&mut session, &rel, "after pattern-breaking wave");

    if let TuneOutcome::RebuildRecommended { .. } = outcome {
        let rebuilt = MaintainedDbHistogram::build(&rel, config).unwrap();
        println!("\nrebuilt model: {}", rebuilt.synopsis().model().notation());
        let mut session = IngestSession::begin(rebuilt, &rel, cfg).unwrap();
        report(&mut session, &rel, "after rebuild");
    }
}
