//! The paper's `ComputeMarginal` algorithm (§3.3.1, Fig. 3).
//!
//! Given the junction tree `J(M)` of a decomposable model, one factor per
//! clique, and a target attribute set `S_Q`, computes (an approximation
//! of) the marginal frequency distribution over `S_Q` while minimizing the
//! number of factor multiplications and projections — instead of naively
//! reconstructing the full joint via Eq. 2 and projecting it down.
//!
//! Two small deviations from the published pseudo-code, both corrections:
//!
//! * Steps 13/15 test and recurse on `C_j ∩ diff`; attributes of `diff`
//!   that live *deeper* in `C_j`'s subtree (but not in `C_j` itself) would
//!   be missed. We use `cover(C_j) ∩ diff`, consistent with the cover
//!   machinery the paper itself introduces.
//! * The root is chosen as the clique sharing the most attributes with
//!   `S_Q` (the paper roots arbitrarily); this only reduces work.
//!
//! [`compute_marginal_with_stats`] runs the recursion directly; it serves
//! [`crate::synopsis::DbHistogram::marginal`]. Selectivity estimation
//! goes through [`crate::evaluate`], which follows the same clique
//! selection without building a product. [`estimate_mass_interpreted`],
//! the recursion applied to a query box, is the executable specification
//! the evaluator is property-tested against
//! (`tests/evaluate_equivalence.rs`), the baseline the benches compare it
//! to, and the answer for models whose separator blocks exceed
//! [`crate::evaluate::MESSAGE_CELL_BUDGET`].
//!
//! [`compute_marginal_naive`] implements the baseline the paper argues
//! against — build the estimate over *all* attributes, then project — and
//! is used by tests and benches to quantify the savings.

use dbhist_distribution::AttrSet;
use dbhist_model::JunctionTree;

use crate::error::SynopsisError;
use crate::evaluate::components;
use crate::factor::Factor;
use crate::query::Query;

/// Intermediate factors larger than this skip "tidying" (shed)
/// projections: carrying a few extra attributes through `mass_in_box` is
/// linear in the factor size, while the projection overlay can be
/// quadratic.
pub const SHED_LIMIT: usize = 2048;

/// Operation counts of a marginal computation (applied sheds count as
/// projections).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MarginalStats {
    /// Factor multiplications performed.
    pub products: usize,
    /// Proper projections performed (projections onto the full attribute
    /// set are free and not counted).
    pub projections: usize,
}

struct Ctx<'a, F> {
    tree: &'a JunctionTree,
    factors: &'a [F],
    children: Vec<Vec<usize>>,
    cover: Vec<AttrSet>,
    stats: MarginalStats,
}

impl<'a, F: Factor> Ctx<'a, F> {
    fn project(&mut self, factor: &F, attrs: &AttrSet) -> Result<F, SynopsisError> {
        if factor.attrs() == attrs {
            return Ok(factor.clone());
        }
        self.stats.projections += 1;
        factor.project(attrs)
    }

    fn product(&mut self, a: &F, b: &F) -> Result<F, SynopsisError> {
        self.stats.products += 1;
        a.product(b)
    }

    /// Projects `factor` onto `attrs` only when the factor is small enough
    /// for the projection to pay off; otherwise returns it unchanged (its
    /// attribute set is a superset of what was asked for, which the loose
    /// recursion tolerates).
    fn project_if_cheap(&mut self, factor: F, attrs: &AttrSet) -> Result<F, SynopsisError> {
        if factor.attrs() == attrs || factor.len_hint() > SHED_LIMIT {
            Ok(factor)
        } else {
            self.project(&factor, attrs)
        }
    }

    /// Projects a result onto `sq`: strictly, or only when cheap if
    /// `loose`.
    fn project_result(&mut self, factor: F, sq: &AttrSet, loose: bool) -> Result<F, SynopsisError> {
        if loose {
            self.project_if_cheap(factor, sq)
        } else {
            self.project(&factor, sq)
        }
    }

    /// Fig. 3 recursion: the marginal over `sq` from the subtree rooted at
    /// clique `node`. Precondition: `sq ⊆ cover(node)`.
    ///
    /// With `loose`, the result may be a factor over a *superset* of
    /// `sq`: projections of large intermediates are skipped. Soundness: a
    /// retained extra attribute always lives in exactly one subtree (by
    /// the clique-intersection property), so it can never appear on both
    /// sides of a later product — product separators stay exactly the
    /// model separators, and `mass_in_box` simply ignores unconstrained
    /// extra attributes.
    fn go(&mut self, node: usize, sq: &AttrSet, loose: bool) -> Result<F, SynopsisError> {
        // Copy the `'a` references out of `self` so clique/factor borrows
        // don't conflict with the `&mut self` helper calls below.
        let cliques: &'a [AttrSet] = self.tree.cliques();
        let factors: &'a [F] = self.factors;
        let clique = &cliques[node];
        // Step 1: the clique alone suffices. Clique factors are small, so
        // even the loose recursion projects eagerly here.
        if sq.is_subset(clique) {
            return self.project(&factors[node], sq);
        }
        let int = clique.intersection(sq);
        let diff = sq.difference(clique);
        debug_assert!(!diff.is_empty());

        // Steps 4–10: a single child's subtree covers everything missing.
        let single = self.children[node].iter().copied().find(|&j| diff.is_subset(&self.cover[j]));
        if let Some(j) = single {
            if int.is_empty() {
                // Step 5: delegate wholesale.
                return self.go(j, sq, loose);
            }
            // Steps 7–9.
            let sij = clique.intersection(&cliques[j]);
            let h1 = self.go(j, &diff.union(&sij), loose)?;
            let prod = self.product(&factors[node], &h1)?;
            return self.project_result(prod, sq, loose);
        }

        // Steps 11–19: split `diff` across the children that cover parts
        // of it (each attribute lives in exactly one subtree by the
        // clique-intersection property).
        let parts: Vec<(usize, AttrSet, AttrSet)> = self.children[node]
            .iter()
            .copied()
            .filter_map(|j| {
                let part = self.cover[j].intersection(&diff);
                if part.is_empty() {
                    None
                } else {
                    let sij = clique.intersection(&cliques[j]);
                    Some((j, part, sij))
                }
            })
            .collect();
        debug_assert_eq!(
            parts.iter().fold(AttrSet::empty(), |acc, (_, p, _)| acc.union(p)),
            diff,
            "diff attributes must be covered by children"
        );
        let mut h = factors[node].clone();
        for (idx, (j, part, sij)) in parts.iter().enumerate() {
            let h1 = self.go(*j, &part.union(sij), loose)?;
            h = self.product(&h, &h1)?;
            // Variable-elimination optimization: shed attributes that
            // neither the query nor the separators of the remaining
            // children need — while the factor is small enough for the
            // projection to pay off (one of the paper's deferred
            // "practical optimizations").
            let mut keep = sq.intersection(h.attrs());
            for (_, _, s) in &parts[idx + 1..] {
                keep = keep.union(s);
            }
            if !keep.is_empty() {
                h = self.project_if_cheap(h, &keep)?;
            }
        }
        self.project_result(h, sq, loose)
    }
}

/// Estimates the frequency mass of the model's marginal over `target`
/// inside the conjunctive `query` via the direct recursive interpreter —
/// the executable specification [`crate::evaluate::estimate_mass`] is
/// verified against.
///
/// Computes the same model estimate as
/// `compute_marginal_with_stats(tree, factors, target)?.0.mass_in_box(query.ranges())`
/// while (1) factorizing over independent model components (exact under
/// the model; avoids cross-component products entirely) and (2) skipping
/// the final projected-histogram materialization, whose overlay
/// construction dominates query time on multi-clique targets. For exact
/// factors the two paths agree to rounding; for histogram factors this
/// path is both faster and — by skipping needless approximate operations
/// — at least as accurate.
///
/// # Errors
///
/// Propagates factor operation failures; rejects targets with attributes
/// the model does not cover.
pub fn estimate_mass_interpreted<F: Factor>(
    tree: &JunctionTree,
    factors: &[F],
    target: &AttrSet,
    query: &Query,
) -> Result<f64, SynopsisError> {
    assert_eq!(tree.len(), factors.len(), "one factor per clique");
    assert!(!target.is_empty(), "target attribute set must be non-empty");
    let ranges = query.ranges();

    // Model components (cliques connected by *non-empty* separators) are
    // mutually independent by construction: the estimate factorizes as
    // N · Π (mass_component / N). Evaluating per component sidesteps the
    // cross-component factor products entirely — they carry no
    // information and their intermediate blow-up only compounds
    // approximation error.
    let n_cliques = tree.len();
    let mut comp = Vec::new();
    let next_comp = components(tree, &mut comp, &mut Vec::new());
    // Group target attributes by the component that covers them.
    let mut groups: Vec<AttrSet> = vec![AttrSet::empty(); next_comp];
    'attrs: for a in target.iter() {
        for (i, clique) in tree.cliques().iter().enumerate() {
            if clique.contains(a) {
                groups[comp[i]] = groups[comp[i]].with(a);
                continue 'attrs;
            }
        }
        return Err(SynopsisError::Budget {
            reason: format!("attribute {a} is not covered by the model"),
        });
    }

    let total = factors.first().map_or(0.0, Factor::total);
    let mut mass = total;
    for (g, group) in groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        // Evaluate this component's marginal mass with the loose
        // recursion, rooted at its best-overlapping clique.
        // A non-empty group implies a populated component, so the max
        // always exists; skipping is the safe degenerate answer anyway.
        let Some(root) = (0..n_cliques)
            .filter(|&i| comp[i] == g)
            .max_by_key(|&i| (tree.cliques()[i].intersection(group).len(), usize::MAX - i))
        else {
            continue;
        };
        let rooted = tree.rooted(root);
        let mut ctx = Ctx {
            tree,
            factors,
            children: rooted.children,
            cover: rooted.cover,
            stats: MarginalStats::default(),
        };
        let loose = ctx.go(root, group, true)?;
        let group_mass = loose.mass_in_box(ranges);
        if total > 0.0 {
            mass *= group_mass / total;
        } else {
            return Ok(0.0);
        }
    }
    Ok(mass)
}

/// Computes the marginal factor over `target` from a junction tree and its
/// clique factors, returning the factor and operation counts: Fig. 3's
/// recursion, run directly.
///
/// # Errors
///
/// Propagates factor operation failures (an empty `target` fails the
/// projection onto it); returns a budget-style error if `target` mentions
/// attributes not covered by any clique.
pub fn compute_marginal_with_stats<F: Factor>(
    tree: &JunctionTree,
    factors: &[F],
    target: &AttrSet,
) -> Result<(F, MarginalStats), SynopsisError> {
    assert_eq!(tree.len(), factors.len(), "one factor per clique");
    // Root at the clique overlapping the target most (never hurts).
    let Some(root) = (0..tree.len())
        .max_by_key(|&i| (tree.cliques()[i].intersection(target).len(), usize::MAX - i))
    else {
        return Err(SynopsisError::Budget { reason: "empty junction tree".into() });
    };
    let rooted = tree.rooted(root);
    if let Some(missing) = target.iter().find(|&a| !rooted.cover[root].contains(a)) {
        return Err(SynopsisError::Budget {
            reason: format!("attribute {missing} is not covered by the model"),
        });
    }
    let mut ctx = Ctx {
        tree,
        factors,
        children: rooted.children,
        cover: rooted.cover,
        stats: MarginalStats::default(),
    };
    let f = ctx.go(root, target, false)?;
    Ok((f, ctx.stats))
}

/// Exact selectivity evaluation for **exact** clique factors via
/// junction-tree message passing with evidence.
///
/// Computes `Σ_{x ∈ box} Π_C f_C(x_C) / Π_S f_S(x_S)` — the paper's
/// closed-form estimate (Eq. 2) summed over the query box — in a single
/// pass over each clique's support: messages flow leaf-to-root indexed by
/// separator values, so no joint is ever materialized. This is the
/// numerically identical but asymptotically optimal route for the Fig. 6
/// "unlimited-bucket clique histograms" configuration (the generic
/// factor-algebra route materializes cross products whose size explodes
/// with model complexity).
///
/// Constraints on attributes outside the model's cliques are ignored
/// (they would be unconstrained marginals), matching the behaviour of
/// `mass_in_box` on factors.
///
/// # Errors
///
/// Currently infallible (the `Result` reserves room for factor-layer
/// failures); contradictory constraints yield `Ok(0.0)`.
pub fn exact_box_mass(
    tree: &JunctionTree,
    factors: &[crate::factor::ExactFactor],
    ranges: &[(dbhist_distribution::AttrId, u32, u32)],
) -> Result<f64, SynopsisError> {
    assert_eq!(tree.len(), factors.len(), "one factor per clique");
    use std::collections::BTreeMap;

    // Fold the constraints: attr → intersected (lo, hi).
    let mut constraint: BTreeMap<u16, (u32, u32)> = BTreeMap::new();
    for &(a, lo, hi) in ranges {
        let c = constraint.entry(a).or_insert((lo, hi));
        *c = (c.0.max(lo), c.1.min(hi));
        if c.0 > c.1 {
            return Ok(0.0);
        }
    }

    let rooted = tree.rooted(0);
    // Post-order evaluation without recursion (tree is tiny, but avoid
    // borrow juggling): process children before parents.
    let mut order = vec![rooted.root];
    let mut i = 0;
    while i < order.len() {
        order.extend(rooted.children[order[i]].iter().copied());
        i += 1;
    }
    // messages[c] = map from c's separator-with-parent key → weight.
    // Ordered maps keep the message fold deterministic: the division pass
    // below visits separator keys in the same order on every run.
    let mut messages: Vec<Option<BTreeMap<Vec<u32>, f64>>> = vec![None; tree.len()];
    let mut root_mass = 0.0;
    for &node in order.iter().rev() {
        let factor = &factors[node].0;
        let attrs = factor.attrs().clone();
        // Positions of each child's separator within this clique's key.
        let mut child_seps: Vec<(usize, Vec<usize>)> =
            Vec::with_capacity(rooted.children[node].len());
        for &ch in &rooted.children[node] {
            let sep = tree.cliques()[node].intersection(&tree.cliques()[ch]);
            child_seps.push((ch, positions_of(&attrs, &sep)?));
        }
        // Constraint positions within this clique.
        let cell_ok = |key: &[u32]| -> bool {
            attrs.iter().enumerate().all(|(p, a)| {
                constraint.get(&a).is_none_or(|&(lo, hi)| key[p] >= lo && key[p] <= hi)
            })
        };
        let parent = rooted.parent[node];
        if parent == usize::MAX {
            // Root (processed last: `order` is parent-before-child and we
            // iterate it in reverse): the final mass.
            for (key, f) in factor.iter() {
                if cell_ok(key) {
                    root_mass += folded_weight(f, key, &child_seps, &messages);
                }
            }
            continue;
        }
        // Non-root: message over the separator with the parent.
        let parent_sep = tree.cliques()[node].intersection(&tree.cliques()[parent]);
        let sep_pos = positions_of(&attrs, &parent_sep)?;
        // Unrestricted separator marginal of this clique (the divisor).
        let mut sep_marginal: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
        for (key, f) in factor.iter() {
            let sub: Vec<u32> = sep_pos.iter().map(|&p| key[p]).collect();
            *sep_marginal.entry(sub).or_insert(0.0) += f;
        }
        let divisor_for_empty = factor.total();
        let mut out: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
        for (key, f) in factor.iter() {
            if !cell_ok(key) {
                continue;
            }
            let w = folded_weight(f, key, &child_seps, &messages);
            // lint:allow-next-line(float-cmp): skip exact-zero cells, not a tolerance test
            if w != 0.0 {
                let sub: Vec<u32> = sep_pos.iter().map(|&p| key[p]).collect();
                *out.entry(sub).or_insert(0.0) += w;
            }
        }
        for (sub, w) in &mut out {
            let divisor = if sub.is_empty() {
                divisor_for_empty
            } else {
                sep_marginal.get(sub).copied().unwrap_or(0.0)
            };
            *w = if divisor > 0.0 { *w / divisor } else { 0.0 };
        }
        messages[node] = Some(out);
    }
    Ok(root_mass)
}

/// Positions of each of `sep`'s attributes within `attrs`.
///
/// # Errors
///
/// Errors if a separator attribute is missing from the clique factor —
/// the factor/tree pairing handed in is inconsistent.
fn positions_of(attrs: &AttrSet, sep: &AttrSet) -> Result<Vec<usize>, SynopsisError> {
    sep.iter()
        .map(|a| {
            attrs.position(a).ok_or_else(|| SynopsisError::Budget {
                reason: format!("separator attribute {a} missing from clique factor"),
            })
        })
        .collect()
}

/// Folds child messages into a clique cell's weight. A missing message
/// (impossible under the parent-before-child evaluation order) contributes
/// zero mass rather than aborting.
fn folded_weight(
    base: f64,
    key: &[u32],
    child_seps: &[(usize, Vec<usize>)],
    messages: &[Option<std::collections::BTreeMap<Vec<u32>, f64>>],
) -> f64 {
    let mut w = base;
    for (ch, pos) in child_seps {
        let sub: Vec<u32> = pos.iter().map(|&p| key[p]).collect();
        let msg = messages.get(*ch).and_then(Option::as_ref);
        w *= msg.map_or(0.0, |m| m.get(&sub).copied().unwrap_or(0.0));
        // lint:allow-next-line(float-cmp): exact multiplicative zero short-circuit
        if w == 0.0 {
            break;
        }
    }
    w
}

/// The naive strategy (paper §3.3.1): multiply out the *entire* junction
/// tree into the full joint estimate of Eq. 2, then project onto `target`.
///
/// # Errors
///
/// Propagates factor operation failures.
pub fn compute_marginal_naive<F: Factor>(
    tree: &JunctionTree,
    factors: &[F],
    target: &AttrSet,
) -> Result<(F, MarginalStats), SynopsisError> {
    assert_eq!(tree.len(), factors.len(), "one factor per clique");
    let mut stats = MarginalStats::default();
    let rooted = tree.rooted(0);
    // Multiply cliques in a parent-before-child order so every product's
    // operands share exactly the junction-tree separator.
    let mut order = vec![rooted.root];
    let mut i = 0;
    while i < order.len() {
        order.extend(rooted.children[order[i]].iter().copied());
        i += 1;
    }
    let mut h = factors[order[0]].clone();
    for &c in &order[1..] {
        stats.products += 1;
        h = h.product(&factors[c])?;
    }
    if h.attrs() != target {
        stats.projections += 1;
        h = h.project(target)?;
    }
    Ok((h, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::ExactFactor;
    use dbhist_distribution::{Relation, Schema};
    use dbhist_model::{DecomposableModel, MarkovGraph};

    /// 5 attributes with chain dependencies 0-1, 1-2, plus pair 3-4.
    fn relation() -> Relation {
        let schema = Schema::new(vec![("a", 4), ("b", 4), ("c", 4), ("d", 3), ("e", 3)]).unwrap();
        let mut rows = Vec::new();
        let mut state = 12345u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..3000 {
            let a = (next() % 4) as u32;
            // b correlates with a; c with b; e with d.
            let b = if next() % 3 == 0 { (next() % 4) as u32 } else { a };
            let c = if next() % 3 == 0 { (next() % 4) as u32 } else { b };
            let d = (next() % 3) as u32;
            let e = if next() % 4 == 0 { (next() % 3) as u32 } else { d };
            rows.push(vec![a, b, c, d, e]);
        }
        Relation::from_rows(schema, rows).unwrap()
    }

    fn model(rel: &Relation) -> DecomposableModel {
        let g = MarkovGraph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        DecomposableModel::new(rel.schema().clone(), g).unwrap()
    }

    fn exact_factors(rel: &Relation, m: &DecomposableModel) -> Vec<ExactFactor> {
        m.cliques().iter().map(|c| ExactFactor(rel.marginal(c).unwrap())).collect()
    }

    #[test]
    fn marginal_within_one_clique_is_exact() {
        let rel = relation();
        let m = model(&rel);
        let factors = exact_factors(&rel, &m);
        let target = AttrSet::from_ids([0, 1]);
        let (f, stats) = compute_marginal_with_stats(m.junction_tree(), &factors, &target).unwrap();
        let truth = rel.marginal(&target).unwrap();
        for (k, v) in truth.iter() {
            assert!((f.0.frequency(k) - v).abs() < 1e-9);
        }
        assert_eq!(stats.products, 0, "single-clique targets need no products");
    }

    #[test]
    fn cross_clique_marginal_matches_model_estimate() {
        // Target {0, 2} spans the chain cliques {0,1} and {1,2}; the
        // result must equal the model's closed-form estimate marginalized.
        let rel = relation();
        let m = model(&rel);
        let factors = exact_factors(&rel, &m);
        let target = AttrSet::from_ids([0, 2]);
        let (f, _) = compute_marginal_with_stats(m.junction_tree(), &factors, &target).unwrap();

        let f01 = rel.marginal(&AttrSet::from_ids([0, 1])).unwrap();
        let f12 = rel.marginal(&AttrSet::from_ids([1, 2])).unwrap();
        let f1 = rel.marginal(&AttrSet::singleton(1)).unwrap();
        for a in 0..4u32 {
            for c in 0..4u32 {
                let expect: f64 = (0..4u32)
                    .map(|b| {
                        let den = f1.frequency(&[b]);
                        if den <= 0.0 {
                            0.0
                        } else {
                            f01.frequency(&[a, b]) * f12.frequency(&[b, c]) / den
                        }
                    })
                    .sum();
                assert!(
                    (f.0.frequency(&[a, c]) - expect).abs() < 1e-9,
                    "({a},{c}): {} vs {expect}",
                    f.0.frequency(&[a, c])
                );
            }
        }
    }

    #[test]
    fn efficient_equals_naive() {
        let rel = relation();
        let m = model(&rel);
        let factors = exact_factors(&rel, &m);
        for target in [
            AttrSet::from_ids([0]),
            AttrSet::from_ids([0, 2]),
            AttrSet::from_ids([0, 4]),
            AttrSet::from_ids([2, 3]),
            AttrSet::from_ids([0, 2, 4]),
        ] {
            let (fast, fast_stats) =
                compute_marginal_with_stats(m.junction_tree(), &factors, &target).unwrap();
            let (naive, naive_stats) =
                compute_marginal_naive(m.junction_tree(), &factors, &target).unwrap();
            for (k, v) in naive.0.iter() {
                assert!(
                    (fast.0.frequency(k) - v).abs() < 1e-6 * (1.0 + v.abs()),
                    "target {target}: key {k:?}"
                );
            }
            assert!(
                fast_stats.products <= naive_stats.products,
                "target {target}: {fast_stats:?} vs {naive_stats:?}"
            );
        }
    }

    #[test]
    fn efficient_does_less_work_on_local_targets() {
        let rel = relation();
        let m = model(&rel);
        let factors = exact_factors(&rel, &m);
        // A single-attribute query touches one clique; the naive path
        // always multiplies out all |C|−1 junction edges.
        let (_, fast) =
            compute_marginal_with_stats(m.junction_tree(), &factors, &AttrSet::singleton(3))
                .unwrap();
        let (_, naive) =
            compute_marginal_naive(m.junction_tree(), &factors, &AttrSet::singleton(3)).unwrap();
        assert_eq!(fast.products, 0);
        assert_eq!(naive.products, m.junction_tree().len() - 1);
    }

    #[test]
    fn full_joint_target_works() {
        let rel = relation();
        let m = model(&rel);
        let factors = exact_factors(&rel, &m);
        let all = rel.schema().all_attrs();
        let (f, _) = compute_marginal_with_stats(m.junction_tree(), &factors, &all).unwrap();
        assert_eq!(f.attrs(), &all);
        assert!((f.total() - rel.row_count() as f64).abs() < 1e-6);
    }

    #[test]
    fn uncovered_attribute_is_an_error() {
        let rel = relation();
        let m = model(&rel);
        let factors = exact_factors(&rel, &m);
        let bad = AttrSet::from_ids([0, 9]);
        assert!(compute_marginal_with_stats(m.junction_tree(), &factors, &bad).is_err());
        let empty = AttrSet::empty();
        assert!(compute_marginal_with_stats(m.junction_tree(), &factors, &empty).is_err());
    }

    #[test]
    fn exact_box_mass_matches_factor_algebra() {
        // Message passing with evidence must reproduce the generic
        // factor-algebra estimate exactly, across query shapes.
        let rel = relation();
        let m = model(&rel);
        let factors = exact_factors(&rel, &m);
        let queries: Vec<Vec<(u16, u32, u32)>> = vec![
            vec![(0, 0, 1)],
            vec![(0, 0, 2), (2, 1, 3)],
            vec![(0, 1, 2), (3, 0, 1), (4, 1, 2)],
            vec![(0, 0, 3), (1, 0, 3), (2, 0, 3), (3, 0, 2), (4, 0, 2)],
            vec![(1, 2, 2), (4, 0, 0)],
        ];
        for ranges in queries {
            let attrs = AttrSet::from_ids(ranges.iter().map(|r| r.0));
            let (marg, _) =
                compute_marginal_with_stats(m.junction_tree(), &factors, &attrs).unwrap();
            let via_algebra = marg.0.range_mass(&ranges);
            let via_messages = exact_box_mass(m.junction_tree(), &factors, &ranges).unwrap();
            assert!(
                (via_algebra - via_messages).abs() < 1e-6 * (1.0 + via_algebra),
                "{ranges:?}: {via_algebra} vs {via_messages}"
            );
        }
        // Contradictory constraints give zero.
        assert_eq!(
            exact_box_mass(m.junction_tree(), &factors, &[(0, 0, 1), (0, 2, 3)]).unwrap(),
            0.0
        );
        // Empty predicate gives N.
        let n = rel.row_count() as f64;
        let whole = exact_box_mass(m.junction_tree(), &factors, &[]).unwrap();
        assert!((whole - n).abs() < 1e-6);
    }

    #[test]
    fn independence_model_marginals() {
        // Full-independence model: every cross-attribute marginal is a
        // product of singletons.
        let rel = relation();
        let m = DecomposableModel::independence(rel.schema().clone());
        let factors = exact_factors(&rel, &m);
        let target = AttrSet::from_ids([0, 3]);
        let (f, _) = compute_marginal_with_stats(m.junction_tree(), &factors, &target).unwrap();
        let f0 = rel.marginal(&AttrSet::singleton(0)).unwrap();
        let f3 = rel.marginal(&AttrSet::singleton(3)).unwrap();
        let n = rel.row_count() as f64;
        for a in 0..4u32 {
            for d in 0..3u32 {
                let expect = f0.frequency(&[a]) * f3.frequency(&[d]) / n;
                assert!((f.0.frequency(&[a, d]) - expect).abs() < 1e-9);
            }
        }
    }
}
