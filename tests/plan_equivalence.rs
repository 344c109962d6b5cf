//! Property tests: the plan-based query engine is observationally
//! identical to the recursive Fig. 3 interpreter.
//!
//! `MarginalPlan`/`MassPlan` compile the interpreter's recursion into a
//! step program whose execution replays the *same* factor operations in
//! the *same* order on the *same* operands — so results must match
//! bit-for-bit (not just within tolerance), for exact factors and for
//! approximate MHIST split trees alike, over randomized junction trees,
//! factors, and query sets. Cached replays (the engine's shape cache)
//! and groups shared across shapes by expression key must also be
//! bit-identical to their cold runs.
//!
//! The dense kernel backend rides the same contract: lowered tree
//! indices (dense or sparse layout), the engine's pooled scratch reuse
//! across interleaved queries, and the O(log b) windowed range sums must
//! all stay bit-identical to the recursive walks they replace.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests assert by panicking

use dbhist::core::factor::{ExactFactor, Factor};
use dbhist::core::marginal::{
    compute_marginal_interpreted, compute_marginal_with_stats, estimate_mass_interpreted,
};
use dbhist::core::plan::QueryEngine;
use dbhist::core::Query;
use dbhist::distribution::{AttrId, AttrSet, Relation, Schema};
use dbhist::histogram::mhist::MhistBuilder;
use dbhist::histogram::{IndexLayout, OneDimHistogram, SplitCriterion, SplitTree, TreeIndex};
use dbhist::model::chordal::addable_edge_separator;
use dbhist::model::{DecomposableModel, MarkovGraph};
use proptest::prelude::*;

/// A query shape (target attributes) plus its conjunctive box.
type BoxQuery = (AttrSet, Query);

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A random relation (with correlations), a random decomposable model
/// over a randomly grown chordal graph, and exact clique factors.
fn build_setup(
    arity: usize,
    domain: u32,
    rows: usize,
    seed: u64,
) -> (Relation, DecomposableModel, Vec<ExactFactor>, u64) {
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
    let rel = Relation::from_rows(schema, data).unwrap();

    // Random chordal graph by legal edge insertion; junction trees built
    // from it are valid by construction (debug validators check).
    let mut g = MarkovGraph::empty(arity);
    let edges = (xorshift(&mut state) % 9) as usize;
    let mut added = 0;
    for _ in 0..edges * 4 {
        if added >= edges {
            break;
        }
        let u = (xorshift(&mut state) % arity as u64) as AttrId;
        let v = (xorshift(&mut state) % arity as u64) as AttrId;
        if u != v && addable_edge_separator(&g, u, v).is_some() {
            g.add_edge(u, v).unwrap();
            added += 1;
        }
    }
    let model = DecomposableModel::new(rel.schema().clone(), g).unwrap();
    let factors: Vec<ExactFactor> =
        model.cliques().iter().map(|c| ExactFactor(rel.marginal(c).unwrap())).collect();
    (rel, model, factors, state)
}

/// Random non-empty attribute subsets drawn from a bitmask stream.
fn random_targets(arity: usize, state: &mut u64, count: usize) -> Vec<AttrSet> {
    let mut targets = Vec::new();
    while targets.len() < count {
        let mask = xorshift(state) % (1u64 << arity);
        if mask == 0 {
            continue;
        }
        targets.push(AttrSet::from_ids(
            (0..arity as AttrId).filter(|&a| mask & (1 << u64::from(a)) != 0),
        ));
    }
    targets
}

/// A random conjunctive box over exactly the target's attributes.
fn random_ranges(target: &AttrSet, domain: u32, state: &mut u64) -> Vec<(AttrId, u32, u32)> {
    target
        .iter()
        .map(|a| {
            let lo = (xorshift(state) % u64::from(domain)) as u32;
            let width = (xorshift(state) % u64::from(domain)) as u32;
            (a, lo, (lo + width).min(domain - 1))
        })
        .collect()
}

/// Lowers `tree` and checks the index against it: the layout is sparse
/// exactly when a zero subtree collapsed (fewer slots than the split
/// tree's `3b − 2` numbers, never more), the stored total is the full
/// walk's mass, and random boxes over `attrs` answer bit-identically —
/// through the caller's shared scratch pair.
fn check_lowered(
    tree: &SplitTree,
    attrs: &AttrSet,
    domain: u32,
    state: &mut u64,
    bounds: &mut Vec<(u32, u32)>,
    constraint: &mut Vec<(u32, u32)>,
) -> Result<(), String> {
    let index = TreeIndex::lower(tree).ok_or("tree did not lower")?;
    // The paper's `3b − 2` numbers at 8 bytes each; fewer once collapsed.
    let dense_bytes = 8 * tree.stored_numbers();
    prop_assert!(index.storage_bytes() <= dense_bytes);
    let expected =
        if index.storage_bytes() < dense_bytes { IndexLayout::Sparse } else { IndexLayout::Dense };
    prop_assert_eq!(index.layout(), expected, "{} of {} bytes", index.storage_bytes(), dense_bytes);
    if tree.leaves().iter().all(|&(_, f)| f != 0.0) {
        prop_assert_eq!(index.layout(), IndexLayout::Dense, "no zero leaf, nothing to collapse");
    }
    prop_assert_eq!(index.total().to_bits(), tree.mass_in_box(&[]).to_bits());
    for _ in 0..12 {
        let ranges = random_ranges(attrs, domain, state);
        let walked = tree.mass_in_box(&ranges);
        let indexed = index.mass_in_box_with(&ranges, bounds, constraint);
        prop_assert_eq!(
            indexed.to_bits(),
            walked.to_bits(),
            "{:?} over {} on {:?}: {} vs {}",
            index.layout(),
            tree.attrs(),
            &ranges,
            indexed,
            walked
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Planned marginals are bit-identical to the interpreter on exact
    /// factors: same support frequencies, same operation counts.
    #[test]
    fn planned_marginal_bit_identical_exact(
        arity in 3usize..=6,
        domain in 2u32..=6,
        rows in 30usize..=150,
        seed in any::<u64>(),
    ) {
        let (_, model, factors, mut state) = build_setup(arity, domain, rows, seed);
        let tree = model.junction_tree();
        for target in random_targets(arity, &mut state, 6) {
            let (planned, planned_stats) =
                compute_marginal_with_stats(tree, &factors, &target).unwrap();
            let (interp, interp_stats) =
                compute_marginal_interpreted(tree, &factors, &target).unwrap();
            prop_assert_eq!(planned_stats, interp_stats, "{}", &target);
            prop_assert_eq!(planned.attrs(), interp.attrs(), "{}", &target);
            prop_assert_eq!(
                planned.total().to_bits(), interp.total().to_bits(), "{}", &target);
            for (k, v) in interp.0.iter() {
                prop_assert_eq!(
                    planned.0.frequency(k).to_bits(), v.to_bits(),
                    "target {} key {:?}", &target, k
                );
            }
            for (k, v) in planned.0.iter() {
                prop_assert_eq!(
                    interp.0.frequency(k).to_bits(), v.to_bits(),
                    "target {} key {:?}", &target, k
                );
            }
        }
    }

    /// Planned marginals are bit-identical to the interpreter on MHIST
    /// split-tree factors (the approximate path, where operand order and
    /// shed decisions matter most).
    #[test]
    fn planned_marginal_bit_identical_mhist(
        arity in 3usize..=5,
        domain in 2u32..=6,
        rows in 30usize..=150,
        seed in any::<u64>(),
    ) {
        let (rel, model, _, mut state) = build_setup(arity, domain, rows, seed);
        let tree = model.junction_tree();
        let buckets = 2 + (xorshift(&mut state) % 8) as usize;
        let hists: Vec<_> = model
            .cliques()
            .iter()
            .map(|c| {
                MhistBuilder::build(&rel.marginal(c).unwrap(), buckets, SplitCriterion::MaxDiff)
                    .unwrap()
            })
            .collect();
        for target in random_targets(arity, &mut state, 4) {
            let (planned, planned_stats) =
                compute_marginal_with_stats(tree, &hists, &target).unwrap();
            let (interp, interp_stats) =
                compute_marginal_interpreted(tree, &hists, &target).unwrap();
            prop_assert_eq!(planned_stats, interp_stats, "{}", &target);
            prop_assert_eq!(planned.attrs(), interp.attrs(), "{}", &target);
            prop_assert_eq!(
                planned.total().to_bits(), interp.total().to_bits(), "{}", &target);
            for _ in 0..4 {
                let ranges = random_ranges(&target, domain, &mut state);
                prop_assert_eq!(
                    planned.mass_in_box(&ranges).to_bits(),
                    interp.mass_in_box(&ranges).to_bits(),
                    "target {} ranges {:?}", &target, &ranges
                );
            }
        }
    }

    /// Planned selectivity estimation (independent-component mass plans)
    /// is bit-identical to the interpreter, on both factor families.
    #[test]
    fn planned_mass_bit_identical(
        arity in 3usize..=6,
        domain in 2u32..=6,
        rows in 30usize..=150,
        seed in any::<u64>(),
    ) {
        let (rel, model, factors, mut state) = build_setup(arity, domain, rows, seed);
        let tree = model.junction_tree();
        let hists: Vec<_> = model
            .cliques()
            .iter()
            .map(|c| {
                MhistBuilder::build(&rel.marginal(c).unwrap(), 6, SplitCriterion::MaxDiff)
                    .unwrap()
            })
            .collect();
        for target in random_targets(arity, &mut state, 6) {
            let ranges = random_ranges(&target, domain, &mut state);
            let query = Query::from(ranges.as_slice());
            let planned =
                QueryEngine::new(tree).estimate_mass(tree, &factors, &target, &query).unwrap();
            let interp = estimate_mass_interpreted(tree, &factors, &target, &query).unwrap();
            prop_assert_eq!(
                planned.to_bits(), interp.to_bits(),
                "exact: target {} ranges {:?}: {} vs {}", &target, &ranges, planned, interp
            );
            let planned_h =
                QueryEngine::new(tree).estimate_mass(tree, &hists, &target, &query).unwrap();
            let interp_h = estimate_mass_interpreted(tree, &hists, &target, &query).unwrap();
            prop_assert_eq!(
                planned_h.to_bits(), interp_h.to_bits(),
                "mhist: target {} ranges {:?}: {} vs {}", &target, &ranges, planned_h, interp_h
            );
        }
    }

    /// Cache replays are bit-identical to cold runs: the shape cache must
    /// never change an answer.
    #[test]
    fn engine_cache_replays_bit_identical(
        arity in 3usize..=6,
        domain in 2u32..=6,
        rows in 30usize..=150,
        seed in any::<u64>(),
    ) {
        let (_, model, factors, mut state) = build_setup(arity, domain, rows, seed);
        let tree = model.junction_tree();
        let engine = QueryEngine::new(tree);
        let queries: Vec<BoxQuery> = random_targets(arity, &mut state, 5)
                .into_iter()
                .map(|t| {
                    let r = Query::from(random_ranges(&t, domain, &mut state));
                    (t, r)
                })
                .collect();
        let cold: Vec<f64> = queries
            .iter()
            .map(|(t, r)| engine.estimate_mass(tree, &factors, t, r).unwrap())
            .collect();
        // Warm pass: plans are now cached.
        let warm: Vec<f64> = queries
            .iter()
            .map(|(t, r)| engine.estimate_mass(tree, &factors, t, r).unwrap())
            .collect();
        for (i, c) in cold.iter().enumerate() {
            prop_assert_eq!(c.to_bits(), warm[i].to_bits(), "warm replay differs at {}", i);
        }
        let trace = engine.trace();
        prop_assert!(trace.plan_cache_hits >= queries.len(), "{:?}", trace);
    }

    /// Shared group lowerings never change an answer: a random sequence
    /// of shapes (repeats included) through one engine, where later
    /// misses take groups other shapes lowered for the same expression,
    /// answers every query bit-identically to a cold engine.
    #[test]
    fn shared_group_lowerings_bit_identical(
        arity in 3usize..=6,
        domain in 2u32..=6,
        rows in 30usize..=150,
        seed in any::<u64>(),
    ) {
        let (rel, model, _, mut state) = build_setup(arity, domain, rows, seed);
        let tree = model.junction_tree();
        let buckets = 2 + (xorshift(&mut state) % 8) as usize;
        let hists: Vec<_> = model
            .cliques()
            .iter()
            .map(|c| {
                MhistBuilder::build(&rel.marginal(c).unwrap(), buckets, SplitCriterion::MaxDiff)
                    .unwrap()
            })
            .collect();
        let engine = QueryEngine::new(tree);
        let shapes = random_targets(arity, &mut state, 6);
        for _ in 0..16 {
            let target = &shapes[(xorshift(&mut state) % shapes.len() as u64) as usize];
            let query = Query::from(random_ranges(target, domain, &mut state));
            let shared = engine.estimate_mass(tree, &hists, target, &query).unwrap();
            let cold = QueryEngine::new(tree).estimate_mass(tree, &hists, target, &query).unwrap();
            prop_assert_eq!(
                shared.to_bits(), cold.to_bits(),
                "target {}: shared {} vs cold {}", target, shared, cold
            );
        }
        prop_assert_eq!(engine.trace().kernel_fallbacks, 0);
    }

    /// Lowered tree indices: the layout is sparse exactly when a zero
    /// subtree collapsed (checked against the source tree's `3b − 2`
    /// stored numbers), and both layouts answer `mass_in_box` bit-identical
    /// to the recursive `SplitTree` walk — including when one scratch
    /// buffer pair is reused across interleaved trees and queries, and
    /// for the products and projections the engine lowers as group
    /// marginals (deeper right offsets, zero-collapsed product forests).
    #[test]
    fn lowered_index_layout_and_mass_bit_identical(
        arity in 1usize..=3,
        domain in 4u32..=16,
        rows in 10usize..=120,
        buckets in 2usize..=24,
        spiky in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let schema = Schema::new((0..arity).map(|i| (format!("a{i}"), domain))).unwrap();
        // `spiky` concentrates mass on the two extreme values so gap
        // buckets go to zero; the thinned trees below reach the sparse
        // layout.
        let data: Vec<Vec<u32>> = (0..rows)
            .map(|_| {
                (0..arity)
                    .map(|_| {
                        if spiky {
                            if xorshift(&mut state).is_multiple_of(2) { 0 } else { domain - 1 }
                        } else {
                            (xorshift(&mut state) % u64::from(domain)) as u32
                        }
                    })
                    .collect()
            })
            .collect();
        let rel = Relation::from_rows(schema, data).unwrap();
        let all = AttrSet::from_ids(0..arity as AttrId);
        let tree = MhistBuilder::build(
            &rel.marginal(&all).unwrap(), buckets, SplitCriterion::MaxDiff).unwrap();
        let index = TreeIndex::lower(&tree).unwrap();

        // Layout: sparse exactly when the lowering dropped slots.
        let dense_bytes = 8 * tree.stored_numbers();
        prop_assert!(index.storage_bytes() <= dense_bytes);
        let expected = if index.storage_bytes() < dense_bytes {
            IndexLayout::Sparse
        } else {
            IndexLayout::Dense
        };
        prop_assert_eq!(index.layout(), expected, "{} of {} bytes", index.storage_bytes(), dense_bytes);
        prop_assert_eq!(index.total().to_bits(), tree.total().to_bits());

        // One scratch pair, reused across every query (and in the 2-attr
        // case across a second lowered tree), stays bit-identical.
        let other = MhistBuilder::build(
            &rel.marginal(&AttrSet::singleton(0)).unwrap(),
            buckets.min(4),
            SplitCriterion::MaxDiff,
        )
        .unwrap();
        let other_index = TreeIndex::lower(&other).unwrap();
        let mut bounds = Vec::new();
        let mut constraint = Vec::new();
        for _ in 0..12 {
            let ranges = random_ranges(&all, domain, &mut state);
            let walked = tree.mass_in_box(&ranges);
            let indexed = index.mass_in_box_with(&ranges, &mut bounds, &mut constraint);
            prop_assert_eq!(
                indexed.to_bits(), walked.to_bits(),
                "{:?} on {:?}: {} vs {}", index.layout(), &ranges, indexed, walked
            );
            // Interleave a query against the other index through the SAME
            // scratch buffers: reuse must not leak state between kernels.
            let sub = &ranges[..1];
            prop_assert_eq!(
                other_index.mass_in_box_with(sub, &mut bounds, &mut constraint).to_bits(),
                other.mass_in_box(sub).to_bits()
            );
        }

        // Zero four of every five buckets (a maintained tree after
        // deletes) so products and projections also lower sparse.
        let mut thinned = tree.clone();
        for (i, (bbox, _)) in tree.leaves().iter().enumerate() {
            if i % 5 != 0 {
                let key: Vec<u32> = bbox.ranges().iter().map(|&(lo, _)| lo).collect();
                thinned.update(&key, f64::NEG_INFINITY);
            }
        }
        // A chained product over the first and last attributes reaches
        // hundreds of nodes, so right-child offsets pass 8 bits.
        let last = AttrSet::singleton(arity as AttrId - 1);
        let last =
            MhistBuilder::build(&rel.marginal(&last).unwrap(), buckets, SplitCriterion::MaxDiff)
                .unwrap();
        let chain = other.product(&last).unwrap();
        let singleton = AttrSet::singleton(0);
        let mut derived = Vec::new();
        for source in [&tree, &thinned] {
            let product = source.product(&other).unwrap();
            derived.push(other.product(source).unwrap());
            derived.push(chain.product(source).unwrap());
            derived.push(product.project(&singleton).unwrap());
            derived.push(source.project(&singleton).unwrap());
            if arity > 1 {
                derived.push(source.project(&AttrSet::from_ids(1..arity as AttrId)).unwrap());
            }
            derived.push(product);
        }
        derived.push(other.project(&singleton).unwrap());
        derived.push(thinned);
        for derived_tree in &derived {
            check_lowered(derived_tree, &all, domain, &mut state, &mut bounds, &mut constraint)?;
        }
    }

    /// The engine's kernel path under an interleaved workload: queries
    /// over several targets alternate for many rounds through one engine
    /// (so the pooled scratch is checked out, reused, and returned across
    /// different kernels), and every answer stays bit-identical to the
    /// interpreter. Exact factors have no lowering and must fall back —
    /// also bit-identically.
    #[test]
    fn kernel_scratch_reuse_across_interleaved_queries(
        arity in 3usize..=5,
        domain in 2u32..=6,
        rows in 30usize..=150,
        seed in any::<u64>(),
    ) {
        let (rel, model, factors, mut state) = build_setup(arity, domain, rows, seed);
        let tree = model.junction_tree();
        let hists: Vec<_> = model
            .cliques()
            .iter()
            .map(|c| {
                MhistBuilder::build(&rel.marginal(c).unwrap(), 6, SplitCriterion::MaxDiff)
                    .unwrap()
            })
            .collect();
        let queries: Vec<BoxQuery> = random_targets(arity, &mut state, 4)
            .into_iter()
            .map(|t| {
                let r = Query::from(random_ranges(&t, domain, &mut state));
                (t, r)
            })
            .collect();

        // Split-tree factors lower; the warm rounds ride the kernels.
        let engine = QueryEngine::new(tree);
        let mut rounds: Vec<Vec<u64>> = Vec::new();
        for _ in 0..3 {
            rounds.push(
                queries
                    .iter()
                    .map(|(t, q)| engine.estimate_mass(tree, &hists, t, q).unwrap().to_bits())
                    .collect(),
            );
        }
        for (i, (t, q)) in queries.iter().enumerate() {
            let interp = estimate_mass_interpreted(tree, &hists, t, q).unwrap();
            for round in &rounds {
                prop_assert_eq!(
                    round[i], interp.to_bits(),
                    "target {} diverged from the interpreter under interleaving", t
                );
            }
        }
        let trace = engine.trace();
        prop_assert!(
            trace.kernel_lowered_dense + trace.kernel_lowered_sparse >= 1,
            "split-tree groups must lower: {:?}", trace
        );
        prop_assert!(
            trace.kernel_hits >= queries.len(),
            "warm rounds must ride the kernels: {:?}", trace
        );
        prop_assert_eq!(trace.kernel_fallbacks, 0, "{:?}", trace);

        // Exact factors cannot lower: same workload, pure fallback, still
        // bit-identical to the interpreter.
        let exact_engine = QueryEngine::new(tree);
        for _ in 0..2 {
            for (t, q) in &queries {
                let via_engine = exact_engine.estimate_mass(tree, &factors, t, q).unwrap();
                let interp = estimate_mass_interpreted(tree, &factors, t, q).unwrap();
                prop_assert_eq!(via_engine.to_bits(), interp.to_bits(), "{}", t);
            }
        }
        let exact_trace = exact_engine.trace();
        prop_assert_eq!(exact_trace.kernel_hits, 0, "{:?}", exact_trace);
        prop_assert!(exact_trace.kernel_fallbacks >= 1, "{:?}", exact_trace);
    }

    /// The windowed (partition-point) 1-D range scan is bit-identical to
    /// the pre-windowing linear scan for every box over random skewed
    /// histograms — the O(log b) seek must never change a sum.
    #[test]
    fn windowed_range_sums_bit_identical_to_linear(
        domain in 2u32..=48,
        buckets in 1usize..=16,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let schema = Schema::new(vec![("x", domain)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..200)
            .map(|_| {
                // Quadratic skew concentrates mass at high values, so
                // bucket widths vary and partial overlaps are common.
                let r = xorshift(&mut state) % u64::from(domain);
                let v = (r * r / u64::from(domain).max(1)) as u32;
                vec![v.min(domain - 1)]
            })
            .collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let h = OneDimHistogram::build(
            &rel.distribution(), 0, buckets, SplitCriterion::MaxDiff).unwrap();
        for lo in 0..domain {
            for hi in 0..domain {
                // The pre-windowing linear scan, verbatim.
                let mut reference = 0.0;
                if lo <= hi {
                    for b in h.buckets() {
                        if b.hi < lo || b.lo > hi {
                            continue;
                        }
                        let olo = b.lo.max(lo);
                        let ohi = b.hi.min(hi);
                        reference += b.freq * ((f64::from(ohi - olo) + 1.0) / b.width() as f64);
                    }
                }
                prop_assert_eq!(h.estimate_range(lo, hi).to_bits(), reference.to_bits());
            }
        }
    }

    /// EXPLAIN recording is observation-only: `estimate_mass_explained`
    /// returns the same bits as `estimate_mass` on cold compiles, warm
    /// kernel replays, and mixed call orders on a shared engine — the
    /// probe may time and label, never touch an operand.
    #[test]
    fn explain_recording_bit_identical(
        arity in 3usize..=6,
        domain in 2u32..=6,
        rows in 30usize..=150,
        seed in any::<u64>(),
    ) {
        let (_rel, model, factors, mut state) = build_setup(arity, domain, rows, seed);
        let tree = model.junction_tree();
        let plain = QueryEngine::new(tree);
        let explained = QueryEngine::new(tree);
        let workload: Vec<BoxQuery> = random_targets(arity, &mut state, 6)
            .into_iter()
            .map(|target| {
                let ranges = random_ranges(&target, domain, &mut state);
                (target, Query::from(ranges.as_slice()))
            })
            .collect();
        // Two passes: the first compiles (and lowers kernels), the
        // second replays warm — both must agree bit-for-bit.
        for pass in 0..2 {
            for (target, query) in &workload {
                let p = plain.estimate_mass(tree, &factors, target, query).unwrap();
                let (e, report) =
                    explained.estimate_mass_explained(tree, &factors, target, query).unwrap();
                prop_assert_eq!(
                    p.to_bits(), e.to_bits(),
                    "pass {}: target {}: plain {} vs explained {}", pass, target, p, e
                );
                prop_assert_eq!(report.estimate.to_bits(), e.to_bits());
                prop_assert!(!report.path.as_str().is_empty());
            }
        }
        // Mixed order on one engine: an explained call warming the cache
        // for a plain call (and vice versa) must not perturb answers.
        let shared = QueryEngine::new(tree);
        for (target, query) in &workload {
            let (first, _) =
                shared.estimate_mass_explained(tree, &factors, target, query).unwrap();
            let second = shared.estimate_mass(tree, &factors, target, query).unwrap();
            let expected = plain.estimate_mass(tree, &factors, target, query).unwrap();
            prop_assert_eq!(first.to_bits(), expected.to_bits());
            prop_assert_eq!(second.to_bits(), expected.to_bits());
        }
    }
}
