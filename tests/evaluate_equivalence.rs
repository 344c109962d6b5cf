//! The range-restricted evaluator computes Fig. 3's estimate.
//!
//! `dbhist::core::evaluate` answers every model whose separator blocks
//! fit `MESSAGE_CELL_BUDGET` by sum-product restricted to the query box,
//! with no factor product. These tests hold it to the interpreter
//! (`estimate_mass_interpreted`), the executable specification of Fig. 3:
//!
//! * over MHIST, Grid and exact factors on small random models with one-
//!   and two-attribute separators, against the interpreter run over exact
//!   factors that spread each bucket uniformly over its cells. Their
//!   products are pointwise and divide by the left operand's separator
//!   marginal, so this oracle is Fig. 3 with neither product truncation
//!   nor bucket straddling, and a wrong divisor fails it;
//! * over exact factors, against brute-force enumeration of
//!   `Σ_{x∈box} Π f_C / Π f_S` on tiny domains;
//! * over Grid, exact and wavelet factors themselves, whose products are
//!   pointwise already, and on a Census-1 Grid synopsis;
//! * on a Census-1 `k_max = 3` model over exact marginals, against
//!   junction-tree message passing (`exact_box_mass`).
//!
//! A model on each side of `MESSAGE_CELL_BUDGET` is evaluated or
//! interpreted as its structure says; explained, served, and pooled
//! estimates carry the same bits as plain ones; and feedback blames the
//! cliques the explained estimate visits.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests assert by panicking

use dbhist::core::evaluate::{estimate_mass, fits, MESSAGE_CELL_BUDGET};
use dbhist::core::factor::{ExactFactor, Factor};
use dbhist::core::marginal::{estimate_mass_interpreted, exact_box_mass};
use dbhist::core::synopsis::{DbConfig, DbHistogram};
use dbhist::core::{
    EstimatorService, ExplainReport, Query, QueryPath, SelectivityEstimator, ServiceConfig,
    Synopsis, SynopsisBuilder,
};
use dbhist::data::census;
use dbhist::data::workload::{Workload, WorkloadConfig};
use dbhist::distribution::{AttrId, AttrSet, Distribution, Relation, Schema};
use dbhist::histogram::grid::GridBuilder;
use dbhist::histogram::mhist::MhistBuilder;
use dbhist::histogram::SplitCriterion;
use dbhist::model::selection::{ForwardSelector, SelectionConfig};
use dbhist::model::{DecomposableModel, JunctionTree, MarkovGraph};
use proptest::prelude::*;

/// Relative tolerance of the evaluator against the interpreter: the two
/// sum the same terms in different orders.
const REL_TOL: f64 = 1e-9;

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= REL_TOL * want.abs().max(1.0)
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn below(state: &mut u64, n: usize) -> usize {
    (xorshift(state) % n as u64) as usize
}

/// A random relation whose attributes copy a random earlier attribute
/// most of the time, so that the selected dependencies are real.
fn random_relation(arity: usize, state: &mut u64) -> Relation {
    let domains: Vec<u32> = (0..arity).map(|_| 2 + below(state, 5) as u32).collect();
    let schema =
        Schema::new(domains.iter().enumerate().map(|(i, &d)| (format!("a{i}"), d))).unwrap();
    let rows = 40 + below(state, 120);
    let data: Vec<Vec<u32>> = (0..rows)
        .map(|_| {
            let mut row: Vec<u32> = Vec::with_capacity(arity);
            for (i, &d) in domains.iter().enumerate() {
                let v = if i > 0 && below(state, 3) > 0 {
                    row[below(state, i)] % d
                } else {
                    below(state, d as usize) as u32
                };
                row.push(v);
            }
            row
        })
        .collect();
    Relation::from_rows(schema, data).unwrap()
}

/// A random forest over the attributes, often closing a triangle with a
/// grandparent: a chordal graph whose cliques have two or three
/// attributes. Siblings that both close a triangle over the same
/// parent–grandparent edge give triangles sharing an edge, a
/// two-attribute separator.
fn random_model(rel: &Relation, state: &mut u64) -> Option<DecomposableModel> {
    let arity = rel.schema().arity();
    let mut parent: Vec<Option<usize>> = vec![None; arity];
    let mut edges: Vec<(AttrId, AttrId)> = Vec::new();
    for i in 1..arity {
        if below(state, 4) > 0 {
            let p = below(state, i);
            parent[i] = Some(p);
            edges.push((p as AttrId, i as AttrId));
            if let Some(gp) = parent[p] {
                if below(state, 2) == 0 {
                    edges.push((gp as AttrId, i as AttrId));
                }
            }
        }
    }
    let graph = MarkovGraph::from_edges(arity, edges).ok()?;
    DecomposableModel::new(rel.schema().clone(), graph).ok()
}

/// `true` when some separator of `tree` has more than one attribute.
fn has_wide_separator(tree: &JunctionTree) -> bool {
    tree.separators().any(|s| s.len() > 1)
}

/// A random query over a random non-empty attribute subset.
fn random_query(schema: &Schema, state: &mut u64) -> (AttrSet, Query) {
    let arity = schema.arity();
    let mask = 1 + below(state, (1 << arity) - 1);
    let target =
        AttrSet::from_ids((0..arity).filter(|a| mask & (1 << a) != 0).map(|a| a as AttrId));
    let ranges: Vec<(AttrId, u32, u32)> = target
        .iter()
        .map(|a| {
            let d = schema.domain_size(a);
            let lo = below(state, d as usize) as u32;
            let hi = (lo + below(state, d as usize) as u32).min(d - 1);
            (a, lo, hi)
        })
        .collect();
    (target, Query::from(ranges))
}

/// `factor` as an exact factor holding each bucket spread uniformly over
/// its cells.
fn spread<F: Factor>(schema: &Schema, factor: &F) -> ExactFactor {
    let mut dist = Distribution::empty(schema.clone(), factor.attrs().clone()).unwrap();
    factor.for_each_bucket(|ranges, freq| {
        let volume: f64 = ranges.iter().map(|&(lo, hi)| f64::from(hi - lo + 1)).product();
        let mut cell: Vec<u32> = ranges.iter().map(|&(lo, _)| lo).collect();
        loop {
            dist.add(&cell, freq / volume);
            // Odometer over the bucket's cells.
            let mut p = cell.len();
            loop {
                if p == 0 {
                    return;
                }
                p -= 1;
                if cell[p] < ranges[p].1 {
                    cell[p] += 1;
                    break;
                }
                cell[p] = ranges[p].0;
            }
        }
    });
    ExactFactor(dist)
}

/// Checks the evaluator over `factors` against the interpreter over their
/// uniform spreads on `queries`.
fn check_against_spread<F: Factor>(
    tree: &JunctionTree,
    schema: &Schema,
    factors: &[F],
    queries: &[(AttrSet, Query)],
) -> Result<(), String> {
    let views = tree.rooted_views();
    let spreads: Vec<ExactFactor> = factors.iter().map(|f| spread(schema, f)).collect();
    for (target, query) in queries {
        let got = estimate_mass(tree, &views, schema, factors, target, query).unwrap();
        let want = estimate_mass_interpreted(tree, &spreads, target, query).unwrap();
        prop_assert!(
            close(got, want),
            "{} {query:?}: evaluator {got} vs Fig. 3 {want}",
            tree.notation()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The evaluator equals Fig. 3 over uniformly spread buckets, for
    /// MHIST, Grid and exact factors on random models of 3–5 attributes
    /// with domains of at most 6, whose separators have one or two
    /// attributes.
    #[test]
    fn evaluator_equals_spread_interpreter(
        arity in 3usize..=5,
        buckets in 1usize..=9,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let rel = random_relation(arity, &mut state);
        let Some(model) = random_model(&rel, &mut state) else { return Ok(()) };
        let tree = model.junction_tree();
        let schema = rel.schema();
        let marginals: Vec<Distribution> =
            model.cliques().iter().map(|c| rel.marginal(c).unwrap()).collect();
        let queries: Vec<(AttrSet, Query)> =
            (0..12).map(|_| random_query(schema, &mut state)).collect();
        let criterion = SplitCriterion::MaxDiff;
        let trees: Vec<_> =
            marginals.iter().map(|m| MhistBuilder::build(m, buckets, criterion).unwrap()).collect();
        check_against_spread(tree, schema, &trees, &queries)?;
        let grids: Vec<_> =
            marginals.iter().map(|m| GridBuilder::build(m, buckets, criterion).unwrap()).collect();
        check_against_spread(tree, schema, &grids, &queries)?;
        let exact: Vec<_> = marginals.into_iter().map(ExactFactor).collect();
        check_against_spread(tree, schema, &exact, &queries)?;
    }

    /// Over exact clique marginals the evaluator equals brute-force
    /// enumeration of `Σ_{x∈box} Π_C f_C(x_C) / Π_S f_S(x_S)` (Eq. 2
    /// summed over the box; an empty separator divides by `N`, and a zero
    /// separator cell contributes zero), on models with one- and
    /// two-attribute separators over domains of at most 4.
    #[test]
    fn evaluator_equals_brute_force_over_exact_factors(
        arity in 3usize..=5,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let rel = random_relation(arity, &mut state);
        let rel = shrink_domains(&rel, 4);
        let Some(model) = random_model(&rel, &mut state) else { return Ok(()) };
        let tree = model.junction_tree();
        let schema = rel.schema();
        let views = tree.rooted_views();
        let factors: Vec<ExactFactor> =
            model.cliques().iter().map(|c| ExactFactor(rel.marginal(c).unwrap())).collect();
        for _ in 0..12 {
            let (target, query) = random_query(schema, &mut state);
            let got = estimate_mass(tree, &views, schema, &factors, &target, &query).unwrap();
            let want = brute_force(&rel, tree, &factors, &query);
            prop_assert!(
                close(got, want),
                "{} {query:?}: evaluator {got} vs brute force {want}",
                tree.notation()
            );
        }
    }

    /// Interleaved plain, explained and feedback calls on one synopsis
    /// (so pooled scratch is taken, reused and returned across shapes and
    /// across the three entry points) give each query the bits, and each
    /// explained query the report, that a fresh clone with an empty pool
    /// gives it, over MHIST factors on models with one- and
    /// two-attribute separators. Reports are compared with their timings
    /// zeroed; only pooled scratch reports `scratch_reused`.
    #[test]
    fn pooled_scratch_reuse_across_interleaved_queries(
        arity in 3usize..=5,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let rel = random_relation(arity, &mut state);
        let Some(model) = random_model(&rel, &mut state) else { return Ok(()) };
        let db = DbHistogram::for_model(&rel, model, DbConfig::new(400)).unwrap();
        let queries: Vec<Query> =
            (0..5).map(|_| random_query(rel.schema(), &mut state).1).collect();
        let untimed = |mut report: ExplainReport| {
            report.total_ns = 0;
            for step in report.groups.iter_mut().flat_map(|g| &mut g.steps) {
                step.ns = 0;
            }
            report
        };
        for _ in 0..3 {
            for query in &queries {
                let pooled = db.try_estimate(query).unwrap();
                let fresh = db.clone().try_estimate(query).unwrap();
                prop_assert_eq!(pooled.to_bits(), fresh.to_bits(), "{:?}", query);

                let (explained, report) = db.try_estimate_explained(query).unwrap();
                let (fresh, fresh_report) = db.clone().try_estimate_explained(query).unwrap();
                prop_assert_eq!(explained.to_bits(), pooled.to_bits(), "{:?}", query);
                prop_assert_eq!(fresh.to_bits(), pooled.to_bits(), "{:?}", query);
                prop_assert_eq!(report.scratch_reused, Some(true));
                prop_assert_eq!(fresh_report.scratch_reused, Some(false));
                let fresh_report = ExplainReport { scratch_reused: Some(true), ..fresh_report };
                prop_assert_eq!(untimed(report), untimed(fresh_report), "{:?}", query);

                db.record_feedback(query, pooled + 1.0);
            }
        }
        prop_assert_eq!(db.query_trace().evaluations, 45);
    }
}

/// `rel` with every value folded into `0..max` (the rows keep their
/// dependencies).
fn shrink_domains(rel: &Relation, max: u32) -> Relation {
    let schema = Schema::new(
        rel.schema().iter().map(|(_, attr)| (attr.name.clone(), attr.domain_size.min(max))),
    )
    .unwrap();
    let rows: Vec<Vec<u32>> =
        (0..rel.row_count()).map(|r| rel.row(r).iter().map(|&v| v % max).collect()).collect();
    Relation::from_rows(schema, rows).unwrap()
}

/// Eq. 2 summed over every cell of the query box.
fn brute_force(rel: &Relation, tree: &JunctionTree, factors: &[ExactFactor], query: &Query) -> f64 {
    let schema = rel.schema();
    let n = rel.row_count() as f64;
    let separators: Vec<(AttrSet, Distribution)> = tree
        .separators()
        .filter(|s| !s.is_empty())
        .map(|s| (s.clone(), rel.marginal(s).unwrap()))
        .collect();
    let empty_separators = tree.separators().filter(|s| s.is_empty()).count();
    let bounds: Vec<(u32, u32)> = schema
        .iter()
        .map(|(a, attr)| {
            query
                .ranges()
                .iter()
                .filter(|r| r.0 == a)
                .fold((0, attr.domain_size - 1), |b, r| (b.0.max(r.1), b.1.min(r.2)))
        })
        .collect();
    if bounds.iter().any(|b| b.0 > b.1) {
        return 0.0;
    }
    let key = |attrs: &AttrSet, cell: &[u32]| -> Vec<u32> {
        attrs.iter().map(|a| cell[usize::from(a)]).collect()
    };
    let mut cell: Vec<u32> = bounds.iter().map(|b| b.0).collect();
    let mut sum = 0.0;
    loop {
        let mut term: f64 = factors.iter().map(|f| f.0.frequency(&key(f.attrs(), &cell))).product();
        for (sep, marginal) in &separators {
            let denominator = marginal.frequency(&key(sep, &cell));
            term = if denominator > 0.0 { term / denominator } else { 0.0 };
        }
        sum += term / n.powi(empty_separators as i32);
        // Odometer over the box.
        let mut p = cell.len();
        loop {
            if p == 0 {
                return sum;
            }
            p -= 1;
            if cell[p] < bounds[p].1 {
                cell[p] += 1;
                break;
            }
            cell[p] = bounds[p].0;
        }
    }
}

/// a → b → c chain, d → e pair, and f independent: three components, a
/// clique with two visited children, and separators shared by siblings.
fn chain_relation() -> Relation {
    let schema =
        Schema::new(vec![("a", 5), ("b", 4), ("c", 6), ("d", 3), ("e", 4), ("f", 3)]).unwrap();
    let mut state = 0xE7A1u64;
    let rows: Vec<Vec<u32>> = (0..3000)
        .map(|_| {
            let a = below(&mut state, 5) as u32;
            let b = if below(&mut state, 3) > 0 { a % 4 } else { below(&mut state, 4) as u32 };
            let c = if below(&mut state, 3) > 0 { b + 2 } else { below(&mut state, 6) as u32 };
            let d = below(&mut state, 3) as u32;
            let e = if below(&mut state, 4) > 0 { d } else { below(&mut state, 4) as u32 };
            vec![a, b, c, d, e, below(&mut state, 3) as u32]
        })
        .collect();
    Relation::from_rows(schema, rows).unwrap()
}

fn chain_model(rel: &Relation) -> DecomposableModel {
    let graph = MarkovGraph::from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4)]).unwrap();
    DecomposableModel::new(rel.schema().clone(), graph).unwrap()
}

fn fixed_queries(rel: &Relation) -> Vec<(AttrSet, Query)> {
    let mut state = 0x51DE_u64;
    (0..60).map(|_| random_query(rel.schema(), &mut state)).collect()
}

/// Grid products are pointwise (output cells refine both operands), as
/// are the exact algebra's and hence the wavelet reconstruction's, so
/// the evaluator equals the interpreter over those factors themselves.
#[test]
fn evaluator_equals_interpreter_over_pointwise_factors() {
    let rel = chain_relation();
    let model = chain_model(&rel);
    let tree = model.junction_tree();
    let views = tree.rooted_views();
    let schema = rel.schema();
    let queries = fixed_queries(&rel);
    fn check<F: Factor>(
        label: &str,
        tree: &JunctionTree,
        views: &dbhist::model::junction::RootedViews,
        schema: &Schema,
        factors: &[F],
        queries: &[(AttrSet, Query)],
    ) {
        for (target, query) in queries {
            let got = estimate_mass(tree, views, schema, factors, target, query).unwrap();
            let want = estimate_mass_interpreted(tree, factors, target, query).unwrap();
            assert!(close(got, want), "{label} {query:?}: {got} vs {want}");
        }
    }
    let marginals: Vec<Distribution> =
        model.cliques().iter().map(|c| rel.marginal(c).unwrap()).collect();
    let exact: Vec<ExactFactor> = marginals.iter().cloned().map(ExactFactor).collect();
    check("exact", tree, &views, schema, &exact, &queries);
    let grids: Vec<_> = marginals
        .iter()
        .map(|m| GridBuilder::build(m, 6, SplitCriterion::MaxDiff).unwrap())
        .collect();
    check("grid", tree, &views, schema, &grids, &queries);

    let wavelet = SynopsisBuilder::new(&rel).budget(600).build_wavelet().unwrap();
    let wtree = wavelet.model().junction_tree();
    assert!(fits(wtree, schema));
    check("wavelet", wtree, &wtree.rooted_views(), schema, wavelet.factors(), &queries);
}

/// Census-1 Grid synopsis at 3 KB: the served estimate (the evaluator)
/// equals the interpreter's over the same Grid factors, whose products
/// are pointwise, to 1e-12 relative on 1–3-attribute queries.
#[test]
fn census_1_grid_matches_the_interpreter() {
    let rel = census::census_data_set_1_with(20_000, 0x005e_1ec7);
    let db = SynopsisBuilder::new(&rel).budget(3_000).build_grid().unwrap();
    let tree = db.model().junction_tree();
    assert!(fits(tree, rel.schema()));
    for dimensionality in 1..=3 {
        let workload = Workload::generate(
            &rel,
            WorkloadConfig { dimensionality, queries: 25, min_count: 20, seed: 0x6121 },
        );
        for q in &workload.queries {
            let query = Query::from(q.ranges.as_slice());
            let target = AttrSet::from_ids(q.ranges.iter().map(|r| r.0));
            let served = db.estimate(&query);
            let interpreted =
                estimate_mass_interpreted(tree, db.factors(), &target, &query).unwrap();
            let rel_gap = (served - interpreted).abs() / interpreted.abs().max(1.0);
            assert!(rel_gap <= 1e-12, "{query:?}: served {served} vs interpreter {interpreted}");
        }
    }
    assert_eq!(db.query_trace().evaluations, 75);
}

/// Two triangles sharing the separator {b, c}: the `k_max = 3` shape.
fn wide_model(schema: &Schema) -> DecomposableModel {
    let graph = MarkovGraph::from_edges(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]).unwrap();
    DecomposableModel::new(schema.clone(), graph).unwrap()
}

/// A model whose two triangles share the separator {b, c} is evaluated:
/// its EXPLAIN path is `evaluated`, explained and plain estimates carry
/// the same bits, and they equal Fig. 3 over the spread buckets.
#[test]
fn two_attribute_separator_is_evaluated() {
    let rel = chain_relation();
    let model = wide_model(rel.schema());
    assert!(has_wide_separator(model.junction_tree()));
    assert!(fits(model.junction_tree(), rel.schema()));
    let db = DbHistogram::for_model(&rel, model, DbConfig::new(800)).unwrap();
    let tree = db.model().junction_tree();
    let spreads: Vec<ExactFactor> = db.factors().iter().map(|f| spread(rel.schema(), f)).collect();
    let queries = fixed_queries(&rel);
    for (target, query) in &queries {
        let plain = db.try_estimate(query).unwrap();
        let (estimate, report) = db.try_estimate_explained(query).unwrap();
        assert_eq!(report.path, QueryPath::Evaluated, "{query:?}");
        assert_eq!(estimate.to_bits(), plain.to_bits(), "{query:?}");
        let want = estimate_mass_interpreted(tree, &spreads, target, query).unwrap();
        assert!(close(estimate, want), "{query:?}: {estimate} vs Fig. 3 {want}");
    }
    assert_eq!(db.query_trace().evaluations, 2 * queries.len());
}

/// Census-1 at quick scale with a `k_max = 3` model over exact clique
/// marginals: the served estimate equals junction-tree message passing
/// (`exact_box_mass`) to 1e-9 relative on 1–4-attribute queries.
#[test]
fn census_1_k_max_3_exact_matches_message_passing() {
    let rel = census::census_data_set_1_with(12_000, 0x2001_5161);
    let config = SelectionConfig { k_max: 3, ..SelectionConfig::default() };
    let model = ForwardSelector::new(&rel, config).run().model;
    assert!(has_wide_separator(model.junction_tree()), "{}", model.junction_tree().notation());
    let db = DbHistogram::exact_for_model(&rel, model).unwrap();
    let tree = db.model().junction_tree();
    for dimensionality in 1..=4 {
        let workload = Workload::generate(
            &rel,
            WorkloadConfig { dimensionality, queries: 20, min_count: 20, seed: 0x3A3 },
        );
        for q in &workload.queries {
            let served = db.estimate(&Query::from(q.ranges.as_slice()));
            let exact = exact_box_mass(tree, db.factors(), &q.ranges).unwrap();
            assert!(close(served, exact), "{:?}: served {served} vs messages {exact}", q.ranges);
        }
    }
    assert_eq!(db.query_trace().evaluations, 80);
}

/// Two triangles sharing {b, c} with `|b| × |c|` cells in the separator
/// block; 200 rows spread over a few values so exact marginals stay
/// small.
fn budget_relation(side: u32) -> Relation {
    let schema =
        Schema::new(vec![("a", 3), ("b", side), ("c", side), ("d", 3), ("e", 2), ("f", 2)])
            .unwrap();
    let mut state = 0xB0D6_u64;
    let rows: Vec<Vec<u32>> = (0..200)
        .map(|_| {
            let a = below(&mut state, 3) as u32;
            let b = (a * 7 + below(&mut state, 5) as u32) % side;
            let c = (b + below(&mut state, 3) as u32) % side;
            let d = (c % 3 + below(&mut state, 2) as u32) % 3;
            vec![a, b, c, d, below(&mut state, 2) as u32, below(&mut state, 2) as u32]
        })
        .collect();
    Relation::from_rows(schema, rows).unwrap()
}

/// One model on each side of `MESSAGE_CELL_BUDGET`: a 500 × 500 separator
/// block fits and is evaluated (equal to the interpreter over the same
/// exact factors), a 600 × 600 one does not and is interpreted bit for
/// bit, and EXPLAIN names each path.
#[test]
fn message_cell_budget_splits_evaluated_from_interpreted() {
    const { assert!(500 * 500 <= MESSAGE_CELL_BUDGET && 600 * 600 > MESSAGE_CELL_BUDGET) };
    let queries = [
        Query::range(0, 0, 1).and(3, 1, 2),
        Query::range(1, 3, 300).and(3, 0, 0),
        Query::range(0, 2, 2).and(1, 0, 450).and(2, 10, 499).and(3, 0, 1),
        Query::range(2, 0, 99),
    ];
    for (side, path) in [(500, QueryPath::Evaluated), (600, QueryPath::Interpreted)] {
        let rel = budget_relation(side);
        let model = wide_model(rel.schema());
        assert_eq!(fits(model.junction_tree(), rel.schema()), side == 500);
        let db = DbHistogram::exact_for_model(&rel, model).unwrap();
        let tree = db.model().junction_tree();
        for query in &queries {
            let target = AttrSet::from_ids(query.ranges().iter().map(|r| r.0));
            let (estimate, report) = db.try_estimate_explained(query).unwrap();
            assert_eq!(report.path, path, "side {side}");
            let interpreted =
                estimate_mass_interpreted(tree, db.factors(), &target, query).unwrap();
            if path == QueryPath::Interpreted {
                assert_eq!(estimate.to_bits(), interpreted.to_bits(), "{query:?}");
            } else {
                assert!(close(estimate, interpreted), "{query:?}: {estimate} vs {interpreted}");
            }
        }
        let evaluations = if path == QueryPath::Evaluated { queries.len() } else { 0 };
        assert_eq!(db.query_trace().evaluations, evaluations, "side {side}");
    }
}

/// Feedback blames exactly the cliques the explained estimate visits, on
/// a narrow (single-attribute separators), a wide (evaluated) and an
/// over-budget (interpreted) model.
#[test]
fn feedback_blames_the_visited_cliques() {
    fn check<F: Factor>(label: &str, db: &DbHistogram<F>, queries: &[Query]) {
        for query in queries {
            let (estimate, report) = db.try_estimate_explained(query).unwrap();
            let mut visited: Vec<usize> = report
                .groups
                .iter()
                .flat_map(|g| g.steps.iter().filter_map(|s| s.clique))
                .collect();
            visited.sort_unstable();
            visited.dedup();
            let drift = db.drift_monitor();
            drift.reset();
            db.record_feedback(query, estimate + 10.0);
            let blamed: Vec<usize> = (0..drift.n_cliques())
                .filter(|&i| drift.error_distribution(i).is_some_and(|h| h.count > 0))
                .collect();
            assert!(!blamed.is_empty(), "{label} {query:?}");
            assert_eq!(blamed, visited, "{label} {query:?}");
        }
    }
    let rel = chain_relation();
    let queries: Vec<Query> = fixed_queries(&rel).into_iter().map(|(_, q)| q).collect();
    let narrow = DbHistogram::for_model(&rel, chain_model(&rel), DbConfig::new(700)).unwrap();
    check("narrow", &narrow, &queries);
    let wide = DbHistogram::for_model(&rel, wide_model(rel.schema()), DbConfig::new(800)).unwrap();
    check("wide", &wide, &queries);
    let rel = budget_relation(600);
    let over = DbHistogram::exact_for_model(&rel, wide_model(rel.schema())).unwrap();
    let queries: Vec<Query> = fixed_queries(&rel).into_iter().map(|(_, q)| q).collect();
    check("interpreted", &over, &queries);
}

/// `try_estimate_explained` gives `try_estimate`'s bits on all four
/// factor kinds, and reports the evaluated path with each group's mass
/// and visited cliques.
#[test]
fn explained_evaluation_is_bit_identical_on_every_factor_kind() {
    fn check<F: Factor>(label: &str, db: &DbHistogram<F>, rel: &Relation) {
        for (_, query) in fixed_queries(rel) {
            let plain = db.try_estimate(&query).unwrap();
            let (explained, report) = db.try_estimate_explained(&query).unwrap();
            assert_eq!(plain.to_bits(), explained.to_bits(), "{label} {query:?}");
            assert_eq!(report.path, QueryPath::Evaluated, "{label}");
            assert!(!report.groups.is_empty());
            for group in &report.groups {
                assert!(group.mass.is_some(), "{label}: every group reports its mass");
                assert!(!group.steps.is_empty());
                assert!(group.steps.iter().all(|s| s.op == "visit" && s.clique.is_some()));
            }
            assert!(report.to_json().contains("\"path\":\"evaluated\""));
        }
    }
    let rel = chain_relation();
    let builder = || SynopsisBuilder::new(&rel).budget(700);
    check("mhist", &builder().build_mhist().unwrap(), &rel);
    check("grid", &builder().build_grid().unwrap(), &rel);
    check("wavelet", &builder().build_wavelet().unwrap(), &rel);
    check("exact", &DbHistogram::exact_for_model(&rel, chain_model(&rel)).unwrap(), &rel);
}

/// A service that explains every request replies with the same bits as
/// `estimate`, on every factor kind a service serves.
#[test]
fn explain_sampling_service_replies_with_plain_bits() {
    let rel = chain_relation();
    let queries: Vec<Query> = fixed_queries(&rel).into_iter().map(|(_, q)| q).collect();
    for kind in [
        dbhist::core::FactorKind::Mhist,
        dbhist::core::FactorKind::Grid,
        dbhist::core::FactorKind::Wavelet,
    ] {
        let synopsis: Synopsis =
            SynopsisBuilder::new(&rel).budget(700).factor(kind).build().unwrap();
        let expected: Vec<u64> = queries.iter().map(|q| synopsis.estimate(q).to_bits()).collect();
        let service =
            EstimatorService::start(synopsis, ServiceConfig { workers: 1, explain_sample: 1 });
        let reply = service.estimate_batch(queries.clone()).unwrap();
        let got: Vec<u64> = reply.estimates.iter().map(|e| e.to_bits()).collect();
        assert_eq!(got, expected, "{kind:?}");
        let reports = service.recent_explains();
        assert!(!reports.is_empty());
        assert!(reports.iter().all(|r| r.path == QueryPath::Evaluated), "{kind:?}");
    }
}
