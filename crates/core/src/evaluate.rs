//! Range-restricted sum-product over the junction tree: the paper's
//! estimate without a factor product.
//!
//! The estimate of §3.3 (Eq. 2) is `Σ_{x∈Q} Π_C f_C(x_C) / Π_S f_S(x_S)`.
//! Fig. 3 computes it by materializing Fig. 5 products and projecting
//! them; at paper scale those products hit the product node budget and
//! truncate. This module evaluates the same quantity by variable
//! elimination restricted to the query box, as Halford et al. do over a
//! tree-shaped model, with the paper's own clique selection and factors,
//! so that no product is ever built.
//!
//! It follows Fig. 3 as [`crate::marginal::estimate_mass_interpreted`]
//! runs it, decision for decision:
//!
//! * the independent model components, combined as `N · Π (mass_g / N)`;
//! * per component, the root of greatest overlap with the query, lowest
//!   index on a tie;
//! * the cover-based choice of children: a child is visited when its
//!   subtree holds a query attribute outside the clique, in
//!   `rooted.children` order. Fig. 3's single-child delegation (a clique
//!   holding no query attribute hands the query down) never fires here:
//!   the root overlaps the query, and every other visited clique holds
//!   the separator it shares with its parent;
//! * the divisor of child `k`'s product: `D_k`, the separator marginal of
//!   the accumulated left operand `f_C · Π_{i<k} U_i / D_i`, which is what
//!   Fig. 5's `self.project(&shared)` divides by.
//!
//! Factors are read pointwise: each bucket spreads its frequency
//! uniformly over its box ([`Factor::for_each_bucket`]). Every visited
//! child sends two vectors over its separator attribute's domain: `M`,
//! its subtree's mass inside the box, and `U`, the same mass without the
//! box. A clique folds its buckets against per-attribute prefix sums of
//! `Π M_k / D_k` and `Π U_k / D_k`, and builds its own pair with
//! difference arrays, at O((children + 2) × (buckets + domain)) per
//! visited clique. A group answered by one clique with no visited child
//! is just [`Factor::mass_in_box`].
//!
//! The sum-product needs every separator to be a single attribute
//! ([`applies`]), which holds for every model the builder makes with
//! `k_max = 2`; models with a wider separator stay on the
//! [`crate::plan::QueryEngine`]. Nothing is cached: an evaluation reads
//! the factors as they are, so ingest, re-splits and swaps have nothing
//! to invalidate. The engine pools the [`EvalScratch`] buffers, so a warm
//! evaluation allocates nothing per query.

use std::time::Instant;

use dbhist_distribution::{AttrId, AttrSet, Schema};
use dbhist_model::junction::{RootedJunctionTree, RootedViews};
use dbhist_model::JunctionTree;

use crate::error::SynopsisError;
use crate::explain::{ExplainProbe, NoProbe, StepKind};
use crate::factor::Factor;
use crate::query::Query;

/// `true` when every separator of `tree` has at most one attribute: the
/// models the evaluator answers.
#[must_use]
pub fn applies(tree: &JunctionTree) -> bool {
    tree.separators().all(|s| s.len() <= 1)
}

/// Labels every clique of `tree` with its model component (cliques joined
/// by non-empty separators) in `comp`, numbering components in order of
/// their lowest clique index, and returns how many there are. Components
/// are mutually independent by construction, so an estimate factorizes
/// over them as `N · Π (mass_component / N)`.
pub(crate) fn components(
    tree: &JunctionTree,
    comp: &mut Vec<usize>,
    stack: &mut Vec<usize>,
) -> usize {
    comp.clear();
    comp.resize(tree.len(), usize::MAX);
    let mut next = 0;
    for start in 0..tree.len() {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = next;
        stack.clear();
        stack.push(start);
        while let Some(c) = stack.pop() {
            for (other, sep) in tree.neighbors(c) {
                if !sep.is_empty() && comp[other] == usize::MAX {
                    comp[other] = next;
                    stack.push(other);
                }
            }
        }
        next += 1;
    }
    next
}

/// Estimates the frequency mass of the model's marginal over `target`
/// (the query's constrained attributes) inside `query`, by
/// range-restricted sum-product over the junction tree. `views` must
/// come from `tree` ([`JunctionTree::rooted_views`]).
///
/// Equals [`crate::marginal::estimate_mass_interpreted`] run over
/// factors that hold each bucket spread uniformly over its cells (the
/// Fig. 3 quantity with neither product truncation nor bucket
/// straddling), up to float reassociation.
///
/// # Errors
///
/// Rejects models with a separator of more than one attribute, factor
/// slices not aligned with the cliques, and targets with attributes the
/// model does not cover.
pub fn estimate_mass<F: Factor>(
    tree: &JunctionTree,
    views: &RootedViews,
    schema: &Schema,
    factors: &[F],
    target: &AttrSet,
    query: &Query,
) -> Result<f64, SynopsisError> {
    let mut scratch = EvalScratch::default();
    estimate_mass_with(tree, views, schema, factors, target, query, &mut scratch, &mut NoProbe)
}

/// Reusable buffers of one evaluation. Every buffer is cleared or
/// truncated before use, so reuse never carries state between queries.
#[derive(Debug, Default)]
pub(crate) struct EvalScratch {
    /// The query box per attribute id, clamped to the attribute's domain.
    bounds: Vec<(u32, u32)>,
    /// The component of each target attribute by id, `usize::MAX` for
    /// every other attribute.
    group_of: Vec<usize>,
    /// The component of each clique, and the walk stack that labels them.
    comp: Vec<usize>,
    stack: Vec<usize>,
    /// The visited children of the cliques on the recursion path.
    kids: Vec<Kid>,
    /// Messages, weights, prefix sums and difference arrays, allocated
    /// and released stack-wise along the recursion.
    arena: Vec<f64>,
    /// The folded clique's non-zero buckets: their ranges (one per clique
    /// attribute, bucket after bucket) and densities (frequency / volume).
    boxes: Vec<(u32, u32)>,
    density: Vec<f64>,
    /// The folded clique's attributes.
    slots: Vec<Slot>,
}

/// A visited child: the position of its separator attribute in the
/// parent clique, and where its `M` then `U` sit in the arena.
#[derive(Debug, Clone, Copy)]
struct Kid {
    pos: usize,
    at: usize,
}

/// One attribute of the folded clique.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The query box on the attribute (its whole domain when the query
    /// leaves it free).
    bounds: (u32, u32),
    /// The attribute's domain size.
    len: usize,
    /// Arena offset of the attribute's weights when a child separates on
    /// it: `Π U_k / D_k` and `Π M_k / D_k` (`len` each), then their prefix
    /// sums (`len + 1` each). `None` means all weights are one.
    weights: Option<usize>,
}

impl Slot {
    /// Σ `Π U_k / D_k` over `range`.
    fn unboxed(&self, arena: &[f64], (lo, hi): (u32, u32)) -> f64 {
        match self.weights {
            None => f64::from(hi - lo) + 1.0,
            Some(w) => {
                let sums = w + 2 * self.len;
                arena[sums + hi as usize + 1] - arena[sums + lo as usize]
            }
        }
    }

    /// Σ `Π M_k / D_k` over `range` ∩ the query box.
    fn boxed(&self, arena: &[f64], (lo, hi): (u32, u32)) -> f64 {
        let (lo, hi) = (lo.max(self.bounds.0), hi.min(self.bounds.1));
        if lo > hi {
            return 0.0;
        }
        match self.weights {
            None => f64::from(hi - lo) + 1.0,
            Some(w) => {
                let sums = w + 3 * self.len + 1;
                arena[sums + hi as usize + 1] - arena[sums + lo as usize]
            }
        }
    }
}

/// Refreshes the two prefix sums of the weights at arena offset `w`.
fn prefix_sums(arena: &mut [f64], w: usize, len: usize) {
    let (weights, sums) = arena[w..w + 4 * len + 2].split_at_mut(2 * len);
    let (unboxed, boxed) = sums.split_at_mut(len + 1);
    unboxed[0] = 0.0;
    boxed[0] = 0.0;
    for v in 0..len {
        unboxed[v + 1] = unboxed[v] + weights[v];
        boxed[v + 1] = boxed[v] + weights[len + v];
    }
}

fn not_covered(a: AttrId) -> SynopsisError {
    SynopsisError::Budget { reason: format!("attribute {a} is not covered by the model") }
}

/// [`estimate_mass`] over caller-owned scratch, reporting each group and
/// each visited clique to `probe` (inert for [`NoProbe`]; probes observe
/// only, so an explained evaluation gives the same bits).
#[allow(clippy::too_many_arguments)]
pub(crate) fn estimate_mass_with<F: Factor, P: ExplainProbe>(
    tree: &JunctionTree,
    views: &RootedViews,
    schema: &Schema,
    factors: &[F],
    target: &AttrSet,
    query: &Query,
    s: &mut EvalScratch,
    probe: &mut P,
) -> Result<f64, SynopsisError> {
    if factors.len() != tree.len() {
        return Err(SynopsisError::Budget { reason: "one factor per clique is required".into() });
    }
    if !applies(tree) {
        return Err(SynopsisError::Budget {
            reason: "range-restricted evaluation needs single-attribute separators".into(),
        });
    }
    s.bounds.clear();
    s.bounds.extend(schema.iter().map(|(_, attr)| (0, attr.domain_size.saturating_sub(1))));
    for &(a, lo, hi) in query.ranges() {
        if let Some(b) = s.bounds.get_mut(usize::from(a)) {
            *b = (b.0.max(lo), b.1.min(hi));
            if b.0 > b.1 {
                // A contradictory predicate selects nothing.
                return Ok(0.0);
            }
        }
    }
    // Each target attribute joins the component of the first clique
    // holding it.
    let n_comp = components(tree, &mut s.comp, &mut s.stack);
    s.group_of.clear();
    s.group_of.resize(schema.arity(), usize::MAX);
    for a in target.iter() {
        let clique =
            tree.cliques().iter().position(|c| c.contains(a)).ok_or_else(|| not_covered(a))?;
        *s.group_of.get_mut(usize::from(a)).ok_or_else(|| not_covered(a))? = s.comp[clique];
    }

    let total = factors.first().map_or(0.0, Factor::total);
    let mut mass = total;
    for group in 0..n_comp {
        let overlap = |i: usize| {
            tree.cliques()[i]
                .iter()
                .filter(|&a| s.group_of.get(usize::from(a)) == Some(&group))
                .count()
        };
        let Some(root) = (0..tree.len())
            .filter(|&i| s.comp[i] == group)
            .max_by_key(|&i| (overlap(i), usize::MAX - i))
            .filter(|&i| overlap(i) > 0)
        else {
            continue;
        };
        if P::ACTIVE {
            let attrs = target.iter().filter(|&a| s.group_of.get(usize::from(a)) == Some(&group));
            probe.group(&AttrSet::from_ids(attrs));
        }
        let mut eval = Eval {
            tree,
            rooted: views.get(tree, root),
            schema,
            factors,
            ranges: query.ranges(),
            group,
            s: &mut *s,
            probe: &mut *probe,
        };
        let group_mass = eval.visit(root, None)?;
        if P::ACTIVE {
            probe.group_mass(group_mass);
        }
        if total > 0.0 {
            mass *= group_mass / total;
        } else {
            return Ok(0.0);
        }
    }
    Ok(mass)
}

/// One group's evaluation: the tree rooted at the group's root, the
/// factors, and the shared scratch.
struct Eval<'a, F, P> {
    tree: &'a JunctionTree,
    rooted: &'a RootedJunctionTree,
    schema: &'a Schema,
    factors: &'a [F],
    ranges: &'a [(AttrId, u32, u32)],
    group: usize,
    s: &'a mut EvalScratch,
    probe: &'a mut P,
}

impl<F: Factor, P: ExplainProbe> Eval<'_, F, P> {
    fn in_group(&self, a: AttrId) -> bool {
        self.s.group_of.get(usize::from(a)) == Some(&self.group)
    }

    /// Visits `node`'s chosen children, then folds `node`. At the root
    /// (`out` is `None`) returns the group's mass; below it, leaves the
    /// clique's `M` and `U` over its separator attribute `out` on top of
    /// the arena and returns zero.
    fn visit(&mut self, node: usize, out: Option<AttrId>) -> Result<f64, SynopsisError> {
        let clique = &self.tree.cliques()[node];
        let base = self.s.arena.len();
        let kids_base = self.s.kids.len();
        for &child in &self.rooted.children[node] {
            let reaches =
                self.rooted.cover[child].iter().any(|a| self.in_group(a) && !clique.contains(a));
            if !reaches {
                continue;
            }
            let sep = self.tree.cliques()[child].iter().find(|&a| clique.contains(a));
            let Some((sep, pos)) = sep.and_then(|a| Some((a, clique.position(a)?))) else {
                return Err(SynopsisError::Budget {
                    reason: format!("cliques {node} and {child} share no attribute"),
                });
            };
            let at = self.s.arena.len();
            self.visit(child, Some(sep))?;
            self.s.kids.push(Kid { pos, at });
        }
        let started = if P::ACTIVE { Some(Instant::now()) } else { None };
        let (mass, size) = if out.is_none() && self.s.kids.len() == kids_base {
            let factor = &self.factors[node];
            (factor.mass_in_box(self.ranges), factor.len_hint())
        } else {
            self.fold(node, kids_base, base, out)
        };
        self.s.kids.truncate(kids_base);
        if P::ACTIVE {
            let ns = started.map_or(0, |t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(0));
            self.probe.step(StepKind::Visit { clique: node }, ns, size);
        }
        Ok(mass)
    }

    /// Folds `node`'s buckets against the messages of its visited
    /// children (`kids[kids_base..]`, whose messages start at arena
    /// offset `base`). Returns the mass at the root, or leaves `M` and
    /// `U` over `out` at `base`; also returns the number of buckets
    /// folded.
    fn fold(
        &mut self,
        node: usize,
        kids_base: usize,
        base: usize,
        out: Option<AttrId>,
    ) -> (f64, usize) {
        let clique = &self.tree.cliques()[node];
        let s = &mut *self.s;
        s.slots.clear();
        for a in clique.iter() {
            let len = self.schema.domain_size(a) as usize;
            let bounds = s.bounds.get(usize::from(a)).copied().unwrap_or((0, 0));
            s.slots.push(Slot { bounds, len, weights: None });
        }
        let width = s.slots.len();
        s.boxes.clear();
        s.density.clear();
        let (slots, boxes, density) = (&s.slots, &mut s.boxes, &mut s.density);
        self.factors[node].for_each_bucket(|ranges, freq| {
            // A bucket off the schema's domain belongs to a corrupt
            // factor; it contributes zero mass rather than abort.
            let fits = ranges.len() == width
                && ranges
                    .iter()
                    .zip(slots)
                    .all(|(&(lo, hi), slot)| lo <= hi && (hi as usize) < slot.len);
            // lint:allow-next-line(float-cmp): zero buckets contribute nothing
            if freq == 0.0 || !fits {
                return;
            }
            let volume: f64 = ranges.iter().map(|&(lo, hi)| f64::from(hi - lo) + 1.0).product();
            boxes.extend_from_slice(ranges);
            density.push(freq / volume);
        });

        // Weights start at one on every attribute a child separates on.
        for kid in &s.kids[kids_base..] {
            let slot = &mut s.slots[kid.pos];
            if slot.weights.is_none() {
                let (w, len) = (s.arena.len(), slot.len);
                s.arena.resize(w + 2 * len, 1.0);
                s.arena.resize(w + 4 * len + 2, 0.0);
                prefix_sums(&mut s.arena, w, len);
                slot.weights = Some(w);
            }
        }
        // Two difference arrays, long enough for any separating domain.
        let out_pos = out.and_then(|a| clique.position(a));
        let span = s.kids[kids_base..]
            .iter()
            .map(|k| k.pos)
            .chain(out_pos)
            .map(|p| s.slots[p].len + 1)
            .max()
            .unwrap_or(1);
        let diffs = s.arena.len();
        s.arena.resize(diffs + 2 * span, 0.0);

        // Child k: D_k is the separator marginal of f_C · Π_{i<k} U_i / D_i;
        // child k's messages then enter the weights as U_k / D_k, M_k / D_k.
        for k in kids_base..s.kids.len() {
            let Kid { pos, at } = s.kids[k];
            let slot = s.slots[pos];
            let (Some(w), len) = (slot.weights, slot.len) else { continue };
            let (head, diff) = s.arena.split_at_mut(diffs);
            diff[..=len].fill(0.0);
            for (b, &dens) in s.density.iter().enumerate() {
                let ranges = &s.boxes[b * width..(b + 1) * width];
                let mut weight = dens;
                for (q, other) in s.slots.iter().enumerate() {
                    if q != pos {
                        weight *= other.unboxed(head, ranges[q]);
                    }
                }
                let (lo, hi) = ranges[pos];
                diff[lo as usize] += weight;
                diff[hi as usize + 1] -= weight;
            }
            let mut run = 0.0;
            for v in 0..len {
                run += diff[v];
                let divisor = run * head[w + v];
                let (m, u) = (head[at + v], head[at + len + v]);
                if divisor > 0.0 {
                    head[w + v] *= u / divisor;
                    head[w + len + v] *= m / divisor;
                } else {
                    head[w + v] = 0.0;
                    head[w + len + v] = 0.0;
                }
            }
            prefix_sums(head, w, len);
        }

        let folded = s.density.len();
        let Some(pos) = out_pos else {
            let head = &s.arena[..diffs];
            let mut mass = 0.0;
            for (b, &dens) in s.density.iter().enumerate() {
                let ranges = &s.boxes[b * width..(b + 1) * width];
                let mut weight = dens;
                for (slot, &range) in s.slots.iter().zip(ranges) {
                    weight *= slot.boxed(head, range);
                }
                mass += weight;
            }
            s.arena.truncate(base);
            return (mass, folded);
        };

        // This clique's own pair over its separator attribute: M inside
        // the box, U without it.
        let slot = s.slots[pos];
        let len = slot.len;
        let (head, tail) = s.arena.split_at_mut(diffs);
        let (m_diff, u_diff) = tail.split_at_mut(span);
        m_diff[..=len].fill(0.0);
        u_diff[..=len].fill(0.0);
        for (b, &dens) in s.density.iter().enumerate() {
            let ranges = &s.boxes[b * width..(b + 1) * width];
            let (mut m, mut u) = (dens, dens);
            for (q, other) in s.slots.iter().enumerate() {
                if q != pos {
                    m *= other.boxed(head, ranges[q]);
                    u *= other.unboxed(head, ranges[q]);
                }
            }
            let (lo, hi) = ranges[pos];
            u_diff[lo as usize] += u;
            u_diff[hi as usize + 1] -= u;
            let (lo, hi) = (lo.max(slot.bounds.0), hi.min(slot.bounds.1));
            if lo <= hi {
                m_diff[lo as usize] += m;
                m_diff[hi as usize + 1] -= m;
            }
        }
        let (mut m_run, mut u_run) = (0.0, 0.0);
        for v in 0..len {
            m_run += m_diff[v];
            u_run += u_diff[v];
            let (wu, wm) = slot.weights.map_or((1.0, 1.0), |w| (head[w + v], head[w + len + v]));
            m_diff[v] = m_run * wm;
            u_diff[v] = u_run * wu;
        }
        s.arena.copy_within(diffs..diffs + len, base);
        s.arena.copy_within(diffs + span..diffs + span + len, base + len);
        s.arena.truncate(base + 2 * len);
        (0.0, folded)
    }
}
