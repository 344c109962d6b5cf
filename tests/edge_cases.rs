//! Degenerate-input and failure-injection tests across the workspace.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests assert by panicking

use dbhist::core::baselines::{IndEstimator, MhistEstimator};
use dbhist::core::synopsis::DbHistogram;
use dbhist::core::SelectivityEstimator;
use dbhist::core::SynopsisBuilder;
use dbhist::core::{Predicate, Query};
use dbhist::distribution::{AttrSet, Relation, Schema};
use dbhist::histogram::codec::decode_split_tree;
use dbhist::histogram::mhist::MhistBuilder;
use dbhist::histogram::SplitCriterion;
use dbhist::model::selection::{ForwardSelector, SelectionConfig};
use proptest::prelude::*;

#[test]
fn single_value_domains() {
    // Attributes with |D| = 1 carry no information; everything must still
    // build and answer sanely.
    let schema = Schema::new(vec![("const", 1), ("x", 8), ("also_const", 1)]).unwrap();
    let rows: Vec<Vec<u32>> = (0..256u32).map(|i| vec![0, i % 8, 0]).collect();
    let rel = Relation::from_rows(schema, rows).unwrap();
    let db = SynopsisBuilder::new(&rel).budget(256).build_mhist().unwrap();
    assert!((db.estimate(&Query::all()) - 256.0).abs() < 1e-6);
    assert!((db.estimate(&Query::equals(0, 0)) - 256.0).abs() < 1e-6);
    let est = db.estimate(&Query::range(1, 0, 3));
    assert!((est - 128.0).abs() < 32.0, "got {est}");
    // Constant attributes must not be "correlated" with anything.
    assert_eq!(db.model().edge_count(), 0, "{}", db.model().notation());
}

#[test]
fn single_row_relation() {
    let schema = Schema::new(vec![("a", 4), ("b", 4)]).unwrap();
    let rel = Relation::from_rows(schema, vec![vec![2, 3]]).unwrap();
    let db = SynopsisBuilder::new(&rel).budget(128).build_mhist().unwrap();
    assert!((db.estimate(&Query::all()) - 1.0).abs() < 1e-9);
    let hit = db.estimate(&Query::equals(0, 2).eq(1, 3));
    assert!(hit > 0.0);
    let ind = IndEstimator::build(&rel, 128, SplitCriterion::MaxDiff).unwrap();
    assert!((ind.estimate(&Query::all()) - 1.0).abs() < 1e-9);
}

#[test]
fn all_identical_rows() {
    let schema = Schema::new(vec![("a", 10), ("b", 10)]).unwrap();
    let rel = Relation::from_rows(schema, vec![vec![7, 7]; 500]).unwrap();
    let db = SynopsisBuilder::new(&rel).budget(256).build_mhist().unwrap();
    // The single populated cell must be answered well: gap trimming
    // isolates it exactly.
    let est = db.estimate(&Query::equals(0, 7).eq(1, 7));
    assert!((est - 500.0).abs() / 500.0 < 0.05, "got {est}");
    // Far-away boxes are empty.
    assert!(db.estimate(&Query::range(0, 0, 3)) < 1.0);
}

#[test]
fn deterministic_selection_on_ties() {
    // Perfectly symmetric data: repeated runs must pick identical models
    // (deterministic tie-breaking), whatever those ties are.
    let schema = Schema::new(vec![("a", 4), ("b", 4), ("c", 4)]).unwrap();
    let rows: Vec<Vec<u32>> = (0..192u32).map(|i| vec![i % 4, i % 4, i % 4]).collect();
    let rel = Relation::from_rows(schema, rows).unwrap();
    let m1 = ForwardSelector::new(&rel, SelectionConfig::default()).run();
    let m2 = ForwardSelector::new(&rel, SelectionConfig::default()).run();
    assert_eq!(m1.model.graph(), m2.model.graph());
    assert_eq!(m1.model.max_clique_size(), 2);
}

#[test]
fn estimates_never_negative_or_nan() {
    let schema = Schema::new(vec![("a", 16), ("b", 16), ("c", 6)]).unwrap();
    let rows: Vec<Vec<u32>> =
        (0..3000u32).map(|i| vec![(i * i) % 16, (i * 7) % 16, (i / 5) % 6]).collect();
    let rel = Relation::from_rows(schema, rows).unwrap();
    let db = SynopsisBuilder::new(&rel).budget(512).build_mhist().unwrap();
    let mh = MhistEstimator::build(&rel, 512, SplitCriterion::MaxDiff).unwrap();
    let ind = IndEstimator::build(&rel, 512, SplitCriterion::MaxDiff).unwrap();
    for a in (0..16).step_by(3) {
        for c in 0..6 {
            let ranges = [(0u16, a, a + 2), (2u16, c, c)];
            let query = Query::from(ranges);
            for est in [db.estimate(&query), mh.estimate(&query), ind.estimate(&query)] {
                assert!(est.is_finite(), "{ranges:?} -> {est}");
                assert!(est >= 0.0, "{ranges:?} -> {est}");
            }
        }
    }
}

#[test]
fn empty_range_queries_are_zero() {
    let schema = Schema::new(vec![("a", 8), ("b", 8)]).unwrap();
    let rows: Vec<Vec<u32>> = (0..512u32).map(|i| vec![i % 8, (i / 8) % 8]).collect();
    let rel = Relation::from_rows(schema, rows).unwrap();
    let db = SynopsisBuilder::new(&rel).budget(256).build_mhist().unwrap();
    // Contradictory constraints on the same attribute.
    assert_eq!(db.estimate(&Query::range(0, 0, 2).with(Predicate::range(0, 5, 7))), 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The split-tree decoder must never panic on arbitrary bytes — it
    /// either decodes a valid tree or returns a codec error.
    #[test]
    fn codec_decoder_tolerates_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_split_tree(&bytes);
    }

    /// Mutating a single byte of a valid encoding must never panic.
    #[test]
    fn codec_decoder_tolerates_bitflips(pos in 0usize..10_000, val in any::<u8>()) {
        let schema = Schema::new(vec![("x", 16), ("y", 8)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..256u32).map(|i| vec![i % 16, (i / 16) % 8]).collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let tree = MhistBuilder::build(&rel.distribution(), 10, SplitCriterion::MaxDiff).unwrap();
        let mut bytes = dbhist::histogram::codec::encode_split_tree(&tree).unwrap();
        let idx = pos % bytes.len();
        bytes[idx] = val;
        let _ = decode_split_tree(&bytes);
    }

    /// `estimate()` (the loose fast path) agrees with materializing the
    /// marginal via `DbHistogram::marginal` and querying it, on exact factors.
    #[test]
    fn estimate_mass_matches_materialized_marginal(seed in any::<u64>()) {
        let schema = Schema::new(vec![("a", 6), ("b", 6), ("c", 4), ("d", 4)]).unwrap();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rows: Vec<Vec<u32>> = (0..400)
            .map(|_| {
                let a = (next() % 6) as u32;
                let c = (next() % 4) as u32;
                vec![a, if next() % 3 == 0 { (next() % 6) as u32 } else { a },
                     c, if next() % 3 == 0 { (next() % 4) as u32 } else { c }]
            })
            .collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let model = ForwardSelector::new(
            &rel,
            SelectionConfig { theta: 0.0, ..Default::default() },
        )
        .run()
        .model;
        let db = DbHistogram::exact_for_model(&rel, model).unwrap();
        let ranges = [(0u16, 1u32, 4u32), (2u16, 0u32, 2u32), (3u16, 1u32, 3u32)];
        let fast = db.estimate(&Query::from(ranges));
        let attrs = AttrSet::from_ids([0, 2, 3]);
        let marginal = db.marginal(&attrs).unwrap();
        use dbhist::core::Factor as _;
        let slow = marginal.mass_in_box(&ranges);
        prop_assert!((fast - slow).abs() < 1e-6 * (1.0 + slow.abs()), "{fast} vs {slow}");
    }
}
