//! The range-restricted evaluator computes Fig. 3's estimate.
//!
//! `dbhist::core::evaluate` answers every model whose separators have at
//! most one attribute by sum-product restricted to the query box, with no
//! factor product. These tests hold it to the interpreter
//! (`estimate_mass_interpreted`), the executable specification of Fig. 3:
//!
//! * over MHIST, Grid and exact factors on small random models, against
//!   the interpreter run over exact factors that spread each bucket
//!   uniformly over its cells. Their products are pointwise and divide by
//!   the left operand's separator marginal, so this oracle is Fig. 3 with
//!   neither product truncation nor bucket straddling, and a wrong
//!   divisor fails it;
//! * over Grid, exact and wavelet factors themselves, whose products are
//!   pointwise already;
//! * on a Census-1 Grid synopsis, against the plan engine.
//!
//! Models with a two-attribute separator keep the engine, and explained
//! and served estimates carry the same bits as plain ones.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests assert by panicking

use dbhist::core::evaluate::{applies, estimate_mass};
use dbhist::core::factor::{ExactFactor, Factor};
use dbhist::core::marginal::estimate_mass_interpreted;
use dbhist::core::plan::QueryEngine;
use dbhist::core::synopsis::{DbConfig, DbHistogram};
use dbhist::core::{
    EstimatorService, Query, QueryPath, SelectivityEstimator, ServiceConfig, Synopsis,
    SynopsisBuilder,
};
use dbhist::data::census;
use dbhist::data::workload::{Workload, WorkloadConfig};
use dbhist::distribution::{AttrId, AttrSet, Distribution, Relation, Schema};
use dbhist::histogram::grid::GridBuilder;
use dbhist::histogram::mhist::MhistBuilder;
use dbhist::histogram::SplitCriterion;
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

/// A random forest over the attributes, sometimes closing a triangle with
/// a grandparent: a chordal graph whose cliques have two or three
/// attributes. Models with a two-attribute separator are rejected.
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
                if below(state, 3) == 0 {
                    edges.push((gp as AttrId, i as AttrId));
                }
            }
        }
    }
    let graph = MarkovGraph::from_edges(arity, edges).ok()?;
    let model = DecomposableModel::new(rel.schema().clone(), graph).ok()?;
    applies(model.junction_tree()).then_some(model)
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
    /// MHIST, Grid and exact factors on random single-attribute-separator
    /// models of 3–5 attributes with domains of at most 6.
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
    assert!(applies(wtree));
    check("wavelet", wtree, &wtree.rooted_views(), schema, wavelet.factors(), &queries);
}

/// Census-1 Grid synopsis at 3 KB: the served estimate (the evaluator)
/// equals the plan engine's to 1e-12 relative on 1–3-attribute queries.
#[test]
fn census_1_grid_matches_the_engine() {
    let rel = census::census_data_set_1_with(20_000, 0x005e_1ec7);
    let db = SynopsisBuilder::new(&rel).budget(3_000).build_grid().unwrap();
    let tree = db.model().junction_tree();
    assert!(applies(tree));
    let engine = QueryEngine::new(tree);
    for dimensionality in 1..=3 {
        let workload = Workload::generate(
            &rel,
            WorkloadConfig { dimensionality, queries: 25, min_count: 20, seed: 0x6121 },
        );
        for q in &workload.queries {
            let query = Query::from(q.ranges.as_slice());
            let target = AttrSet::from_ids(q.ranges.iter().map(|r| r.0));
            let served = db.estimate(&query);
            let planned = engine.estimate_mass(tree, db.factors(), &target, &query).unwrap();
            let rel_gap = (served - planned).abs() / planned.abs().max(1.0);
            assert!(rel_gap <= 1e-12, "{query:?}: served {served} vs engine {planned}");
        }
    }
    assert_eq!(db.query_trace().evaluations, 75);
}

/// A `k_max = 3` model whose two triangles share the separator {b, c}
/// is answered by the engine: its EXPLAIN path is a plan path and its
/// estimates are the engine's.
#[test]
fn two_attribute_separator_keeps_the_engine() {
    let rel = chain_relation();
    let graph = MarkovGraph::from_edges(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]).unwrap();
    let model = DecomposableModel::new(rel.schema().clone(), graph).unwrap();
    assert!(!applies(model.junction_tree()));
    let db = DbHistogram::for_model(&rel, model, DbConfig::new(800)).unwrap();
    let tree = db.model().junction_tree();
    for (target, query) in fixed_queries(&rel) {
        let (estimate, report) = db.try_estimate_explained(&query).unwrap();
        assert!(
            matches!(
                report.path,
                QueryPath::PlanCompiled | QueryPath::PlanCacheHit | QueryPath::KernelHit
            ),
            "{query:?}: {:?}",
            report.path
        );
        let planned =
            QueryEngine::new(tree).estimate_mass(tree, db.factors(), &target, &query).unwrap();
        assert_eq!(estimate.to_bits(), planned.to_bits(), "{query:?}");
    }
    assert_eq!(db.query_trace().evaluations, 0);
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
