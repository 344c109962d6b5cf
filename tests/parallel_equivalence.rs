//! Property tests: parallel synopsis construction (`threads > 1`) is
//! bit-identical to the serial path (`threads = 1`).
//!
//! The parallel pipeline fans out candidate-edge scoring, per-clique
//! histogram construction and the optimal DP's error curves — but every
//! value it computes is a pure function of the relation, and every
//! ranking or reduction stays serial with the serial path's
//! deterministic tie-breaks. So over randomized relations, budgets, factor families,
//! and selection knobs, the two builds must agree exactly: same model,
//! same factors, same storage accounting, same instrumentation counts,
//! and bit-for-bit identical estimates.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests assert by panicking

use dbhist::core::error::SynopsisError;
use dbhist::core::{FactorKind, SelectivityEstimator, Synopsis, SynopsisBuilder};
use dbhist::distribution::{AttrId, Relation, Schema};
use dbhist::model::selection::{EdgeHeuristic, SelectionAlgorithm};
use proptest::prelude::*;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A random relation where even attributes correlate with a shared
/// per-row base value and odd attributes are independent noise.
fn random_relation(arity: usize, domain: u32, rows: usize, seed: u64) -> (Relation, u64) {
    let mut state = seed | 1;
    let schema = Schema::new((0..arity).map(|i| (format!("a{i}"), domain))).unwrap();
    let data: Vec<Vec<u32>> = (0..rows)
        .map(|_| {
            let base = (xorshift(&mut state) % u64::from(domain)) as u32;
            (0..arity)
                .map(|i| {
                    if i % 2 == 0 && !xorshift(&mut state).is_multiple_of(3) {
                        base
                    } else {
                        (xorshift(&mut state) % u64::from(domain)) as u32
                    }
                })
                .collect()
        })
        .collect();
    (Relation::from_rows(schema, data).unwrap(), state)
}

/// Random conjunctive boxes over random attribute subsets.
fn random_queries(
    arity: usize,
    domain: u32,
    state: &mut u64,
    count: usize,
) -> Vec<Vec<(AttrId, u32, u32)>> {
    let mut queries = Vec::new();
    while queries.len() < count {
        let mask = xorshift(state) % (1u64 << arity);
        if mask == 0 {
            continue;
        }
        queries.push(
            (0..arity as AttrId)
                .filter(|&a| mask & (1 << u64::from(a)) != 0)
                .map(|a| {
                    let lo = (xorshift(state) % u64::from(domain)) as u32;
                    let width = (xorshift(state) % u64::from(domain)) as u32;
                    (a, lo, (lo + width).min(domain - 1))
                })
                .collect(),
        );
    }
    queries
}

/// Asserts two same-kind synopses are observationally bit-identical
/// (panics on divergence, like every other assertion in these tests).
fn assert_synopses_identical(
    serial: &Synopsis,
    parallel: &Synopsis,
    queries: &[Vec<(AttrId, u32, u32)>],
) {
    assert_eq!(serial.factor_kind(), parallel.factor_kind());
    assert_eq!(serial.model().graph(), parallel.model().graph());
    assert_eq!(serial.model().cliques(), parallel.model().cliques());
    assert_eq!(serial.storage_bytes(), parallel.storage_bytes());
    let (st, pt) = (serial.build_trace(), parallel.build_trace());
    assert_eq!(st.cliques, pt.cliques);
    assert_eq!(st.selection_steps, pt.selection_steps);
    assert_eq!(st.peak_candidates, pt.peak_candidates);
    assert_eq!(st.entropy_computations, pt.entropy_computations);
    assert_eq!(st.splits_funded, pt.splits_funded);
    // The factor collections themselves must match, not just summaries:
    // Debug output exposes every bucket boundary and frequency.
    match (serial, parallel) {
        (Synopsis::Mhist(s), Synopsis::Mhist(p)) => {
            assert_eq!(format!("{:?}", s.factors()), format!("{:?}", p.factors()));
        }
        (Synopsis::Grid(s), Synopsis::Grid(p)) => {
            assert_eq!(format!("{:?}", s.factors()), format!("{:?}", p.factors()));
        }
        (Synopsis::Wavelet(s), Synopsis::Wavelet(p)) => {
            assert_eq!(format!("{:?}", s.factors()), format!("{:?}", p.factors()));
        }
        _ => panic!("factor kinds diverged"),
    }
    for ranges in queries {
        let query = dbhist::core::Query::from(ranges.as_slice());
        let a = serial.try_estimate(&query).unwrap();
        let b = parallel.try_estimate(&query).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "ranges {ranges:?}: {a} vs {b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// MHIST builds: serial and 4-thread pipelines agree bit-for-bit over
    /// random relations, budgets, heuristics, and algorithms.
    #[test]
    fn parallel_mhist_build_bit_identical(
        arity in 3usize..=5,
        domain in 2u32..=6,
        rows in 30usize..=150,
        budget in 100usize..=700,
        db1 in any::<bool>(),
        naive in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (rel, mut state) = random_relation(arity, domain, rows, seed);
        let heuristic = if db1 { EdgeHeuristic::Db1 } else { EdgeHeuristic::Db2 };
        let algorithm =
            if naive { SelectionAlgorithm::Naive } else { SelectionAlgorithm::Efficient };
        let build = |threads: usize| {
            SynopsisBuilder::new(&rel)
                .budget(budget)
                .threads(threads)
                // Floors lowered so small fixtures still exercise the
                // parallel scoring/construction paths.
                .parallel_floors(2, 2)
                .heuristic(heuristic)
                .algorithm(algorithm)
                .build()
        };
        match (build(1), build(4)) {
            (Ok(serial), Ok(parallel)) => {
                let queries = random_queries(arity, domain, &mut state, 6);
                assert_synopses_identical(&serial, &parallel, &queries);
            }
            // Too-small budgets must be rejected identically.
            (Err(SynopsisError::Budget { .. }), Err(SynopsisError::Budget { .. })) => {}
            (s, p) => {
                prop_assert!(false, "serial/parallel disagree on outcome: {:?} vs {:?}",
                    s.map(|x| x.factor_kind()), p.map(|x| x.factor_kind()));
            }
        }
    }

    /// Grid and wavelet factor families go through the same parallel
    /// phases and must match bit-for-bit too.
    #[test]
    fn parallel_build_bit_identical_all_kinds(
        arity in 3usize..=4,
        domain in 2u32..=5,
        rows in 30usize..=120,
        budget in 150usize..=700,
        seed in any::<u64>(),
    ) {
        let (rel, mut state) = random_relation(arity, domain, rows, seed);
        for kind in [FactorKind::Grid, FactorKind::Wavelet] {
            let build = |threads: usize| {
                SynopsisBuilder::new(&rel)
                    .budget(budget)
                    .threads(threads)
                    .parallel_floors(2, 2)
                    .factor(kind)
                    .build()
            };
            match (build(1), build(3)) {
                (Ok(serial), Ok(parallel)) => {
                    let queries = random_queries(arity, domain, &mut state, 4);
                    assert_synopses_identical(&serial, &parallel, &queries);
                }
                (Err(SynopsisError::Budget { .. }), Err(SynopsisError::Budget { .. })) => {}
                (s, p) => {
                    prop_assert!(false, "{:?}: serial/parallel disagree: {:?} vs {:?}",
                        kind, s.map(|x| x.factor_kind()), p.map(|x| x.factor_kind()));
                }
            }
        }
    }

    /// The thread count itself is irrelevant beyond serial-vs-parallel:
    /// any worker count yields the same synopsis as any other.
    #[test]
    fn thread_count_never_changes_the_synopsis(
        threads_a in 2usize..=6,
        threads_b in 2usize..=6,
        seed in any::<u64>(),
    ) {
        let (rel, mut state) = random_relation(4, 5, 120, seed);
        let build = |threads: usize| {
            SynopsisBuilder::new(&rel)
                .budget(400)
                .threads(threads)
                .parallel_floors(2, 2)
                .build()
                .unwrap()
        };
        let a = build(threads_a);
        let b = build(threads_b);
        let queries = random_queries(4, 5, &mut state, 4);
        assert_synopses_identical(&a, &b, &queries);
    }
}
