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
//! `EvalScratch::select` is that selection on its own: the evaluation
//! folds the cliques it lists, and feedback attribution and the
//! interpreter's EXPLAIN report use the same list.
//!
//! Factors are read pointwise: each bucket spreads its frequency
//! uniformly over its box ([`Factor::for_each_bucket`]). Every visited
//! child sends two dense arrays over its separator's value grid: `M`, its
//! subtree's mass inside the box, and `U`, the same mass without the box.
//! Within a clique, the separators of the visited children and the
//! outgoing one join the attributes they share into *blocks*; each block
//! holds dense `Π U_k / D_k` and `Π M_k / D_k` weights with prefix sums
//! over its grid. A bucket reads a block by `2^|block|` corner lookups
//! and scatters into a difference array over it; `D_k` and the outgoing
//! pair are that array prefix-summed, weighted and summed over the block
//! attributes outside the separator. When every separator has one
//! attribute, every block is one attribute. A group answered by one
//! clique with no visited child is just [`Factor::mass_in_box`].
//!
//! A block's grid is bounded by [`MESSAGE_CELL_BUDGET`]; a model with a
//! block over it ([`fits`], decided by structure and schema alone) is
//! answered by the interpreter instead. Nothing is cached: an evaluation
//! reads the factors as they are, so ingest, re-splits and swaps have
//! nothing to invalidate. A synopsis pools the `EvalScratch` buffers,
//! so a warm evaluation allocates nothing per query.

use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

use dbhist_distribution::{AttrId, AttrSet, Schema};
use dbhist_model::junction::{RootedJunctionTree, RootedViews};
use dbhist_model::JunctionTree;
use dbhist_telemetry::registry::Counter;

use crate::error::SynopsisError;
use crate::explain::{ExplainProbe, NoProbe, StepKind};
use crate::factor::Factor;
use crate::lock;
use crate::query::Query;

/// Cells a block's value grid may hold. A model with a larger block
/// (see [`fits`]) is answered by the Fig. 3 interpreter.
pub const MESSAGE_CELL_BUDGET: usize = 1 << 18;

/// `true` when no clique of `tree` joins its separators into a block
/// whose value grid exceeds [`MESSAGE_CELL_BUDGET`]: the models the
/// evaluator answers. A clique's blocks join every separator it shares
/// with a neighbour, so the answer does not depend on the query.
#[must_use]
pub fn fits(tree: &JunctionTree, schema: &Schema) -> bool {
    let cells = |attrs: &AttrSet| {
        attrs.iter().map(|a| schema.domain_size(a) as usize).fold(1, usize::saturating_mul)
    };
    let mut wide = false;
    for sep in tree.separators() {
        match sep.as_slice() {
            [] => {}
            // Single-attribute separators join only when equal.
            &[a] if schema.domain_size(a) as usize > MESSAGE_CELL_BUDGET => return false,
            [_] => {}
            _ => wide = true,
        }
    }
    if !wide {
        return true;
    }
    let mut blocks: Vec<AttrSet> = Vec::new();
    (0..tree.len()).all(|c| {
        blocks.clear();
        for (_, sep) in tree.neighbors(c) {
            let mut block = sep.clone();
            while let Some(i) = blocks.iter().position(|b| !b.is_disjoint(&block)) {
                block.union_with(&blocks.swap_remove(i));
            }
            blocks.push(block);
        }
        blocks.iter().all(|b| cells(b) <= MESSAGE_CELL_BUDGET)
    })
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

/// Cumulative counters of a synopsis's query path
/// ([`crate::synopsis::DbHistogram::query_trace`]).
///
/// Only `evaluations` moves. The other fields are always zero; they are
/// kept because the `dbbench` benchmark reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Estimates answered by range-restricted sum-product.
    pub evaluations: usize,
    /// Always zero; kept only for `dbbench`.
    pub kernel_hits: usize,
    /// Always zero; kept only for `dbbench`.
    pub plan_cache_hits: usize,
    /// Always zero; kept only for `dbbench`.
    pub plan_cache_misses: usize,
    /// Always zero; kept only for `dbbench`.
    pub products: usize,
    /// Always zero; kept only for `dbbench`.
    pub clique_loads: usize,
    /// Always zero; kept only for `dbbench`.
    pub sheds: usize,
    /// Always zero; kept only for `dbbench`.
    pub kernel_fallbacks: usize,
    /// Always zero; kept only for `dbbench`.
    pub kernel_lowered_dense: usize,
    /// Always zero; kept only for `dbbench`.
    pub kernel_lowered_sparse: usize,
}

impl QueryTrace {
    /// Adds every counter of `other` into `self`.
    pub fn absorb(&mut self, other: &Self) {
        self.evaluations += other.evaluations;
        self.kernel_hits += other.kernel_hits;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
        self.products += other.products;
        self.clique_loads += other.clique_loads;
        self.sheds += other.sheds;
        self.kernel_fallbacks += other.kernel_fallbacks;
        self.kernel_lowered_dense += other.kernel_lowered_dense;
        self.kernel_lowered_sparse += other.kernel_lowered_sparse;
    }
}

/// A synopsis's lock-free query counters, read as a [`QueryTrace`].
/// Every query writes them, so they sit on their own cache line, apart
/// from the read-mostly model and factors.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct QueryMetrics {
    evaluations: Counter,
}

impl QueryMetrics {
    /// Counts one evaluation, also into `dbhist_query_evaluations_total`
    /// while global telemetry is enabled.
    pub(crate) fn evaluated(&self) {
        self.evaluations.increment();
        if dbhist_telemetry::enabled() {
            dbhist_telemetry::wellknown::wellknown().query_evaluations.increment();
        }
    }

    /// The counters so far; reading never changes them.
    pub(crate) fn snapshot(&self) -> QueryTrace {
        let evaluations = usize::try_from(self.evaluations.value()).unwrap_or(usize::MAX);
        QueryTrace { evaluations, ..QueryTrace::default() }
    }

    /// Zeroes this synopsis's counters (the global metric stays).
    pub(crate) fn reset(&self) {
        self.evaluations.reset();
    }
}

impl Clone for QueryMetrics {
    fn clone(&self) -> Self {
        let fresh = Self::default();
        fresh.evaluations.add(self.evaluations.value());
        fresh
    }
}

/// Retained scratch sets per pool; beyond this, returned scratch is
/// dropped.
const MAX_POOLED: usize = 64;

/// A free-list of [`EvalScratch`] shared by every query on one synopsis;
/// `&self` access from any thread. A clone starts empty. Every query
/// locks it, so it sits on its own cache line.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct ScratchPool {
    pool: Mutex<Vec<EvalScratch>>,
}

impl Clone for ScratchPool {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl ScratchPool {
    /// Pops a pooled scratch set, or creates one when the pool is empty.
    pub(crate) fn acquire(&self) -> EvalScratch {
        lock(&self.pool).pop().unwrap_or_default()
    }

    /// [`ScratchPool::acquire`] plus whether the scratch came from the
    /// pool (`false` = freshly allocated), for EXPLAIN.
    pub(crate) fn acquire_tracked(&self) -> (EvalScratch, bool) {
        match lock(&self.pool).pop() {
            Some(scratch) => (scratch, true),
            None => (EvalScratch::default(), false),
        }
    }

    /// Returns a scratch set to the pool (dropped when the pool is full).
    pub(crate) fn release(&self, scratch: EvalScratch) {
        let mut pool = lock(&self.pool);
        if pool.len() < MAX_POOLED {
            pool.push(scratch);
        }
    }
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
/// Rejects models that do not [`fits`], factor slices not aligned with
/// the cliques, and targets with attributes the model does not cover.
pub fn estimate_mass<F: Factor>(
    tree: &JunctionTree,
    views: &RootedViews,
    schema: &Schema,
    factors: &[F],
    target: &AttrSet,
    query: &Query,
) -> Result<f64, SynopsisError> {
    if !fits(tree, schema) {
        return Err(SynopsisError::Budget {
            reason: "a separator block exceeds MESSAGE_CELL_BUDGET".into(),
        });
    }
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
    /// The selected groups, and their visits in post-order.
    groups: Vec<Group>,
    visits: Vec<Visit>,
    /// The visited children whose messages wait for their parent.
    kids: Vec<Kid>,
    /// Messages, weights, prefix sums and difference arrays, allocated
    /// and released stack-wise along the walk.
    arena: Vec<f64>,
    /// The folded clique's non-zero buckets: their ranges (one per clique
    /// attribute, bucket after bucket) and densities (frequency / volume).
    boxes: Vec<(u32, u32)>,
    density: Vec<f64>,
    /// The folded clique's attributes, its units, and each unit's
    /// attribute positions with their prefix-grid strides.
    slots: Vec<Slot>,
    units: Vec<Unit>,
    dims: Vec<usize>,
    pstride: Vec<usize>,
    /// The unit each visited child of the folded clique separates inside,
    /// and the clique positions one separator holds.
    kid_units: Vec<usize>,
    held: Vec<usize>,
    /// Odometer over one block's grid.
    grid: Grid,
}

/// One model component the target touches, with its visits.
#[derive(Debug, Clone)]
struct Group {
    component: usize,
    visits: Range<usize>,
}

/// One visited clique: it follows the visits of its `kids` visited
/// children, and sends its messages to `parent` (`None` at the root).
#[derive(Debug, Clone, Copy)]
struct Visit {
    clique: usize,
    parent: Option<usize>,
    kids: usize,
}

/// A visited child whose `M` then `U` sit in the arena at `at`.
#[derive(Debug, Clone, Copy)]
struct Kid {
    clique: usize,
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
    /// The lowest position of the block holding the attribute,
    /// `usize::MAX` when no separator holds it.
    block: usize,
    /// The unit the attribute belongs to.
    unit: usize,
}

/// A free attribute or a block of the folded clique: the attributes whose
/// weights a bucket reads together.
#[derive(Debug, Clone, Copy)]
struct Unit {
    /// The unit's first attribute position, its attribute count, and the
    /// query box on that first attribute.
    pos: usize,
    width: usize,
    bounds: (u32, u32),
    /// The unit's range in `dims` and `pstride`.
    dims: (usize, usize),
    /// Cells of the unit's grid, and of its grid with one more value per
    /// attribute (prefix sums and difference arrays).
    cells: usize,
    pcells: usize,
    /// Arena offset of the weights when a child separates inside the
    /// unit: `Π U_k / D_k` and `Π M_k / D_k` (`cells` each), then their
    /// prefix sums (`pcells` each). `None` means all weights are one.
    weights: Option<usize>,
}

/// The folded clique's attributes and units, read by every bucket.
struct Layout<'a> {
    slots: &'a [Slot],
    dims: &'a [usize],
    pstride: &'a [usize],
}

impl Layout<'_> {
    fn dims(&self, unit: &Unit) -> (&[usize], &[usize]) {
        let (start, end) = unit.dims;
        (&self.dims[start..end], &self.pstride[start..end])
    }

    /// Σ `Π U_k / D_k` over the bucket's box on `unit`. A one-attribute
    /// unit stays inline; blocks take the outlined path, so the per-bucket
    /// loops of single-attribute models stay tight.
    #[inline(always)]
    fn unboxed(&self, unit: &Unit, arena: &[f64], ranges: &[(u32, u32)]) -> f64 {
        if unit.width != 1 {
            return self.unboxed_block(unit, arena, ranges);
        }
        let (lo, hi) = ranges[unit.pos];
        match unit.weights {
            None => f64::from(hi - lo) + 1.0,
            Some(w) => {
                let sums = w + 2 * unit.cells;
                arena[sums + hi as usize + 1] - arena[sums + lo as usize]
            }
        }
    }

    #[inline(never)]
    fn unboxed_block(&self, unit: &Unit, arena: &[f64], ranges: &[(u32, u32)]) -> f64 {
        let (dims, pstride) = self.dims(unit);
        match unit.weights {
            None => dims.iter().map(|&p| f64::from(ranges[p].1 - ranges[p].0) + 1.0).product(),
            Some(w) => box_sum(arena, w + 2 * unit.cells, dims, pstride, |p| ranges[p]),
        }
    }

    /// The bucket's box ∩ the query box on attribute position `p`.
    #[inline(always)]
    fn clamp(&self, ranges: &[(u32, u32)], p: usize) -> (u32, u32) {
        let ((lo, hi), (blo, bhi)) = (ranges[p], self.slots[p].bounds);
        (lo.max(blo), hi.min(bhi))
    }

    /// `true` when the bucket's box meets the query box on every
    /// attribute of `unit`.
    fn meets(&self, unit: &Unit, ranges: &[(u32, u32)]) -> bool {
        self.dims(unit).0.iter().all(|&p| {
            let (lo, hi) = self.clamp(ranges, p);
            lo <= hi
        })
    }

    /// Σ `Π M_k / D_k` over the bucket's box ∩ the query box on `unit`.
    #[inline(always)]
    fn boxed(&self, unit: &Unit, arena: &[f64], ranges: &[(u32, u32)]) -> f64 {
        if unit.width != 1 {
            return self.boxed_block(unit, arena, ranges);
        }
        let (lo, hi) = ranges[unit.pos];
        let (lo, hi) = (lo.max(unit.bounds.0), hi.min(unit.bounds.1));
        if lo > hi {
            return 0.0;
        }
        match unit.weights {
            None => f64::from(hi - lo) + 1.0,
            Some(w) => {
                let sums = w + 2 * unit.cells + unit.pcells;
                arena[sums + hi as usize + 1] - arena[sums + lo as usize]
            }
        }
    }

    #[inline(never)]
    fn boxed_block(&self, unit: &Unit, arena: &[f64], ranges: &[(u32, u32)]) -> f64 {
        if !self.meets(unit, ranges) {
            return 0.0;
        }
        let (dims, pstride) = self.dims(unit);
        let clamp = |p: usize| self.clamp(ranges, p);
        match unit.weights {
            None => dims.iter().map(|&p| f64::from(clamp(p).1 - clamp(p).0) + 1.0).product(),
            Some(w) => box_sum(arena, w + 2 * unit.cells + unit.pcells, dims, pstride, clamp),
        }
    }

    /// Adds `weight` over the box `range` gives on `unit` to a difference
    /// array over the unit's grid.
    #[inline(always)]
    fn scatter(
        &self,
        unit: &Unit,
        diff: &mut [f64],
        range: impl Fn(usize) -> (u32, u32),
        weight: f64,
    ) {
        if unit.width != 1 {
            return self.scatter_block(unit, diff, range, weight);
        }
        let (lo, hi) = range(unit.pos);
        diff[lo as usize] += weight;
        diff[hi as usize + 1] -= weight;
    }

    /// Adds `u` over the bucket's box and `m` over the box ∩ the query box
    /// on `unit` to the difference arrays `u_diff` and `m_diff`.
    #[inline(always)]
    fn scatter_pair(
        &self,
        unit: &Unit,
        (m_diff, u_diff): (&mut [f64], &mut [f64]),
        ranges: &[(u32, u32)],
        (m, u): (f64, f64),
    ) {
        if unit.width != 1 {
            return self.scatter_pair_block(unit, (m_diff, u_diff), ranges, (m, u));
        }
        let (lo, hi) = ranges[unit.pos];
        u_diff[lo as usize] += u;
        u_diff[hi as usize + 1] -= u;
        let (lo, hi) = (lo.max(unit.bounds.0), hi.min(unit.bounds.1));
        if lo <= hi {
            m_diff[lo as usize] += m;
            m_diff[hi as usize + 1] -= m;
        }
    }

    #[inline(never)]
    fn scatter_pair_block(
        &self,
        unit: &Unit,
        (m_diff, u_diff): (&mut [f64], &mut [f64]),
        ranges: &[(u32, u32)],
        (m, u): (f64, f64),
    ) {
        self.scatter_block(unit, u_diff, |p| ranges[p], u);
        if self.meets(unit, ranges) {
            self.scatter_block(unit, m_diff, |p| self.clamp(ranges, p), m);
        }
    }

    #[inline(never)]
    fn scatter_block(
        &self,
        unit: &Unit,
        diff: &mut [f64],
        range: impl Fn(usize) -> (u32, u32),
        weight: f64,
    ) {
        let (dims, pstride) = self.dims(unit);
        for corner in 0..1usize << dims.len() {
            let mut at = 0;
            for (i, (&p, &stride)) in dims.iter().zip(pstride).enumerate() {
                let (lo, hi) = range(p);
                at += stride * if corner >> i & 1 == 0 { lo as usize } else { hi as usize + 1 };
            }
            if corner.count_ones() % 2 == 0 {
                diff[at] += weight;
            } else {
                diff[at] -= weight;
            }
        }
    }
}

/// The sum over a box of the grid whose prefix sums sit at `sums`, by
/// inclusion–exclusion over the box's `2^|dims|` corners (two or more
/// attributes).
fn box_sum(
    arena: &[f64],
    sums: usize,
    dims: &[usize],
    pstride: &[usize],
    range: impl Fn(usize) -> (u32, u32),
) -> f64 {
    let mut acc = 0.0;
    for corner in 0..1usize << dims.len() {
        let mut at = sums;
        for (i, (&p, &stride)) in dims.iter().zip(pstride).enumerate() {
            let (lo, hi) = range(p);
            at += stride * if corner >> i & 1 == 0 { hi as usize + 1 } else { lo as usize };
        }
        if corner.count_ones() % 2 == 0 {
            acc += arena[at];
        } else {
            acc -= arena[at];
        }
    }
    // A sum of non-negative weights; cancellation noise must not turn it
    // negative.
    acc.max(0.0)
}

/// Prefix-sums `grid` (one more value per attribute than the unit's
/// domains) along every attribute of the unit, in place.
fn cumulate(grid: &mut [f64], dims: &[usize], pstride: &[usize], slots: &[Slot]) {
    for (&p, &stride) in dims.iter().zip(pstride) {
        let extent = slots[p].len + 1;
        for at in 0..grid.len() {
            if (at / stride) % extent != 0 {
                grid[at] += grid[at - stride];
            }
        }
    }
}

/// Refreshes the two prefix sums of the unit's weights at arena offset
/// `w`.
fn prefix_sums(arena: &mut [f64], unit: &Unit, layout: &Layout<'_>, grid: &mut Grid) {
    let Some(w) = unit.weights else { return };
    let (cells, pcells) = (unit.cells, unit.pcells);
    let (weights, sums) = arena[w..w + 2 * cells + 2 * pcells].split_at_mut(2 * cells);
    let (unboxed, boxed) = sums.split_at_mut(pcells);
    let (dims, pstride) = layout.dims(unit);
    if let [_] = dims {
        let len = cells;
        unboxed[0] = 0.0;
        boxed[0] = 0.0;
        for v in 0..len {
            unboxed[v + 1] = unboxed[v] + weights[v];
            boxed[v + 1] = boxed[v] + weights[len + v];
        }
        return;
    }
    unboxed.fill(0.0);
    boxed.fill(0.0);
    // Each cell's weight goes to the cell one past it on every attribute.
    let interior: usize = pstride.iter().sum();
    grid.set(dims, pstride, layout.slots, |_| false);
    grid.walk(|cell, at, _| {
        unboxed[interior + at] = weights[cell];
        boxed[interior + at] = weights[cells + cell];
    });
    cumulate(unboxed, dims, pstride, layout.slots);
    cumulate(boxed, dims, pstride, layout.slots);
}

/// An odometer over a unit's grid that tracks each cell's index in the
/// grid, in the one-larger prefix grid, and in a separator's grid.
#[derive(Debug, Default)]
struct Grid {
    lens: Vec<usize>,
    pstride: Vec<usize>,
    sstride: Vec<usize>,
    at: Vec<usize>,
}

impl Grid {
    /// Prepares a walk over the grid of `dims`, whose separator holds the
    /// positions `in_sep` accepts; returns the separator grid's cells.
    fn set(
        &mut self,
        dims: &[usize],
        pstride: &[usize],
        slots: &[Slot],
        in_sep: impl Fn(usize) -> bool,
    ) -> usize {
        self.lens.clear();
        self.lens.extend(dims.iter().map(|&p| slots[p].len));
        self.pstride.clear();
        self.pstride.extend_from_slice(pstride);
        self.sstride.clear();
        self.sstride.resize(dims.len(), 0);
        let mut cells = 1;
        for (i, &p) in dims.iter().enumerate().rev() {
            if in_sep(p) {
                self.sstride[i] = cells;
                cells *= self.lens[i];
            }
        }
        cells
    }

    /// Calls `visit(cell, prefix-grid index, separator index)` for every
    /// cell, in index order.
    fn walk(&mut self, mut visit: impl FnMut(usize, usize, usize)) {
        let m = self.lens.len();
        self.at.clear();
        self.at.resize(m, 0);
        let cells: usize = self.lens.iter().product();
        let (mut at, mut sep) = (0, 0);
        for cell in 0..cells {
            visit(cell, at, sep);
            for d in (0..m).rev() {
                self.at[d] += 1;
                at += self.pstride[d];
                sep += self.sstride[d];
                if self.at[d] < self.lens[d] {
                    break;
                }
                at -= self.pstride[d] * self.lens[d];
                sep -= self.sstride[d] * self.lens[d];
                self.at[d] = 0;
            }
        }
    }
}

/// Appends the positions in `attrs` of the attributes `other` also
/// holds (both sorted).
fn shared_positions(attrs: &[AttrId], other: &[AttrId], out: &mut Vec<usize>) {
    let (mut i, mut j) = (0, 0);
    while i < attrs.len() && j < other.len() {
        match attrs[i].cmp(&other[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(i);
                i += 1;
                j += 1;
            }
        }
    }
}

fn not_covered(a: AttrId) -> SynopsisError {
    SynopsisError::Budget { reason: format!("attribute {a} is not covered by the model") }
}

impl EvalScratch {
    /// Fig. 3's clique selection for `target`: per model component the
    /// target touches, the root of greatest overlap (lowest index on a
    /// tie) and, below it, every child whose subtree holds a target
    /// attribute outside its parent, in post-order.
    pub(crate) fn select(
        &mut self,
        tree: &JunctionTree,
        views: &RootedViews,
        arity: usize,
        target: &AttrSet,
    ) -> Result<(), SynopsisError> {
        // Each target attribute joins the component of the first clique
        // holding it.
        let n_comp = components(tree, &mut self.comp, &mut self.stack);
        self.group_of.clear();
        self.group_of.resize(arity, usize::MAX);
        for a in target.iter() {
            let clique =
                tree.cliques().iter().position(|c| c.contains(a)).ok_or_else(|| not_covered(a))?;
            *self.group_of.get_mut(usize::from(a)).ok_or_else(|| not_covered(a))? =
                self.comp[clique];
        }
        self.groups.clear();
        self.visits.clear();
        for component in 0..n_comp {
            let overlap = |i: usize| {
                tree.cliques()[i]
                    .iter()
                    .filter(|&a| self.group_of.get(usize::from(a)) == Some(&component))
                    .count()
            };
            let Some(root) = (0..tree.len())
                .filter(|&i| self.comp[i] == component)
                .max_by_key(|&i| (overlap(i), usize::MAX - i))
                .filter(|&i| overlap(i) > 0)
            else {
                continue;
            };
            let start = self.visits.len();
            self.walk(tree, views.get(tree, root), root, None, component)?;
            self.groups.push(Group { component, visits: start..self.visits.len() });
        }
        Ok(())
    }

    /// Appends the visits of `node`'s subtree in the tree rooted at the
    /// group's root, children before their parent.
    fn walk(
        &mut self,
        tree: &JunctionTree,
        rooted: &RootedJunctionTree,
        node: usize,
        parent: Option<usize>,
        component: usize,
    ) -> Result<(), SynopsisError> {
        let clique = &tree.cliques()[node];
        let mut kids = 0;
        for &child in &rooted.children[node] {
            let reaches = rooted.cover[child].iter().any(|a| {
                self.group_of.get(usize::from(a)) == Some(&component) && !clique.contains(a)
            });
            if !reaches {
                continue;
            }
            if tree.cliques()[child].is_disjoint(clique) {
                return Err(SynopsisError::Budget {
                    reason: format!("cliques {node} and {child} share no attribute"),
                });
            }
            self.walk(tree, rooted, child, Some(node), component)?;
            kids += 1;
        }
        self.visits.push(Visit { clique: node, parent, kids });
        Ok(())
    }

    /// Every clique the last selection visits, sorted.
    pub(crate) fn cliques(&self) -> Vec<usize> {
        let mut cliques: Vec<usize> = self.visits.iter().map(|v| v.clique).collect();
        cliques.sort_unstable();
        cliques.dedup();
        cliques
    }

    /// The target attributes of `component`.
    fn group_attrs(&self, target: &AttrSet, component: usize) -> AttrSet {
        AttrSet::from_ids(
            target.iter().filter(|&a| self.group_of.get(usize::from(a)) == Some(&component)),
        )
    }

    /// Reports the last selection to `probe`: each group with one visit
    /// step per clique, sized by the clique's factor.
    pub(crate) fn explain_selection<F: Factor, P: ExplainProbe>(
        &self,
        target: &AttrSet,
        factors: &[F],
        probe: &mut P,
    ) {
        for group in &self.groups {
            probe.group(&self.group_attrs(target, group.component));
            for visit in &self.visits[group.visits.clone()] {
                let size = factors.get(visit.clique).map_or(0, Factor::len_hint);
                probe.step(StepKind::Visit { clique: visit.clique }, 0, size);
            }
        }
    }
}

/// [`estimate_mass`] over caller-owned scratch, for a model the caller
/// has checked [`fits`], reporting each group and each visited clique to
/// `probe` (inert for [`NoProbe`]; probes observe only, so an explained
/// evaluation gives the same bits).
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
    s.select(tree, views, schema.arity(), target)?;

    let total = factors.first().map_or(0.0, Factor::total);
    let mut mass = total;
    for g in 0..s.groups.len() {
        let Group { component, visits } = s.groups[g].clone();
        if P::ACTIVE {
            probe.group(&s.group_attrs(target, component));
        }
        let mut eval =
            Eval { tree, schema, factors, ranges: query.ranges(), s: &mut *s, probe: &mut *probe };
        let group_mass = eval.run(visits);
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

/// One group's evaluation: the factors and the shared scratch.
struct Eval<'a, F, P> {
    tree: &'a JunctionTree,
    schema: &'a Schema,
    factors: &'a [F],
    ranges: &'a [(AttrId, u32, u32)],
    s: &'a mut EvalScratch,
    probe: &'a mut P,
}

impl<F: Factor, P: ExplainProbe> Eval<'_, F, P> {
    /// Folds the group's visited cliques in post-order and returns the
    /// root's mass. Each clique below the root leaves its `M` and `U` on
    /// top of the arena, where its parent's fold reads them.
    fn run(&mut self, visits: Range<usize>) -> f64 {
        self.s.kids.clear();
        self.s.arena.clear();
        let mut mass = 0.0;
        for i in visits {
            let Visit { clique, parent, kids } = self.s.visits[i];
            let started = if P::ACTIVE { Some(Instant::now()) } else { None };
            let kids_base = self.s.kids.len() - kids;
            let base = self.s.kids.get(kids_base).map_or(self.s.arena.len(), |k| k.at);
            let size = if parent.is_none() && kids == 0 {
                let factor = &self.factors[clique];
                mass = factor.mass_in_box(self.ranges);
                factor.len_hint()
            } else {
                let (clique_mass, size) = self.fold(clique, kids_base, base, parent);
                mass = clique_mass;
                size
            };
            self.s.kids.truncate(kids_base);
            if parent.is_some() {
                self.s.kids.push(Kid { clique, at: base });
            }
            if P::ACTIVE {
                let ns = started.map_or(0, |t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(0));
                self.probe.step(StepKind::Visit { clique }, ns, size);
            }
        }
        mass
    }

    /// Folds `node`'s buckets against the messages of its visited
    /// children (`kids[kids_base..]`, whose messages start at arena
    /// offset `base`). Returns the mass at the root, or leaves `M` and
    /// `U` over the separator with `parent` at `base`; also returns the
    /// number of buckets folded.
    fn fold(
        &mut self,
        node: usize,
        kids_base: usize,
        base: usize,
        parent: Option<usize>,
    ) -> (f64, usize) {
        let cliques = self.tree.cliques();
        let clique = &cliques[node];
        let attrs = clique.as_slice();
        let out = parent.map(|p| &cliques[p]);
        let EvalScratch {
            bounds,
            kids,
            arena,
            boxes,
            density,
            slots,
            units,
            dims,
            pstride,
            kid_units,
            held,
            grid,
            ..
        } = &mut *self.s;
        slots.clear();
        for &a in attrs {
            let len = self.schema.domain_size(a) as usize;
            let bounds = bounds.get(usize::from(a)).copied().unwrap_or((0, 0));
            slots.push(Slot { bounds, len, block: usize::MAX, unit: usize::MAX });
        }
        let width = slots.len();
        boxes.clear();
        density.clear();
        self.factors[node].for_each_bucket(|ranges, freq| {
            // A bucket off the schema's domain belongs to a corrupt
            // factor; it contributes zero mass rather than abort.
            let fits = ranges.len() == width
                && ranges
                    .iter()
                    .zip(slots.iter())
                    .all(|(&(lo, hi), slot)| lo <= hi && (hi as usize) < slot.len);
            // lint:allow-next-line(float-cmp): zero buckets contribute nothing
            if freq == 0.0 || !fits {
                return;
            }
            let volume: f64 = ranges.iter().map(|&(lo, hi)| f64::from(hi - lo) + 1.0).product();
            boxes.extend_from_slice(ranges);
            density.push(freq / volume);
        });

        // Each visited child's separator, then the outgoing one, joins the
        // attributes it holds into one block, labelled by its lowest
        // position. Each separator's first position stands in for its
        // unit until the units exist.
        kid_units.clear();
        let mut out_unit = usize::MAX;
        let n_kids = kids.len() - kids_base;
        for (i, sep) in kids[kids_base..].iter().map(|k| &cliques[k.clique]).chain(out).enumerate()
        {
            held.clear();
            shared_positions(attrs, sep.as_slice(), held);
            let first = held.first().copied().unwrap_or(usize::MAX);
            if i < n_kids {
                kid_units.push(first);
            } else {
                out_unit = first;
            }
            let Some(label) = held.iter().map(|&p| p.min(slots[p].block)).min() else {
                continue;
            };
            for &p in held.iter() {
                let old = slots[p].block;
                if old != usize::MAX && old != label {
                    for slot in slots.iter_mut().filter(|s| s.block == old) {
                        slot.block = label;
                    }
                }
                slots[p].block = label;
            }
        }
        // Units in order of their first attribute: a free attribute, or a
        // block listed at its label.
        units.clear();
        dims.clear();
        pstride.clear();
        for p in 0..width {
            let label = slots[p].block;
            if label != usize::MAX && label != p {
                continue;
            }
            let start = dims.len();
            dims.push(p);
            if label == p {
                dims.extend((p + 1..width).filter(|&q| slots[q].block == p));
            }
            let end = dims.len();
            let (mut cells, mut pcells) = (slots[p].len, slots[p].len + 1);
            if end - start == 1 {
                pstride.push(1);
            } else {
                pstride.resize(end, 0);
                (cells, pcells) = (1, 1);
                for i in (start..end).rev() {
                    pstride[i] = pcells;
                    cells *= slots[dims[i]].len;
                    pcells *= slots[dims[i]].len + 1;
                }
            }
            for &q in &dims[start..end] {
                slots[q].unit = units.len();
            }
            let (width, bounds) = (end - start, slots[p].bounds);
            units.push(Unit {
                pos: p,
                width,
                bounds,
                dims: (start, end),
                cells,
                pcells,
                weights: None,
            });
        }
        for u in kid_units.iter_mut().chain([&mut out_unit]) {
            *u = slots.get(*u).map_or(usize::MAX, |slot| slot.unit);
        }

        // Weights start at one on every unit a child separates inside. Two
        // difference arrays fit the largest separating unit; a block's
        // divisors or outgoing pair fit its grid.
        let (mut span, mut most) = (1, 0);
        for unit in kid_units.iter().chain([&out_unit]).filter_map(|&u| units.get(u)) {
            span = span.max(unit.pcells);
            if unit.width > 1 {
                most = most.max(unit.cells);
            }
        }
        for &u in kid_units.iter() {
            let Some(unit) = units.get_mut(u) else { continue };
            if unit.weights.is_none() {
                let w = arena.len();
                arena.resize(w + 2 * unit.cells, 1.0);
                arena.resize(w + 2 * unit.cells + 2 * unit.pcells, 0.0);
                unit.weights = Some(w);
                let unit = *unit;
                let layout = Layout { slots: &slots[..], dims: &dims[..], pstride: &pstride[..] };
                prefix_sums(arena, &unit, &layout, grid);
            }
        }
        let diffs = arena.len();
        arena.resize(diffs + 2 * span + 2 * most, 0.0);
        let layout = Layout { slots: &slots[..], dims: &dims[..], pstride: &pstride[..] };

        // Child k: D_k is the separator marginal of f_C · Π_{i<k} U_i / D_i;
        // child k's messages then enter the weights as U_k / D_k, M_k / D_k.
        for (&Kid { clique: child, at: msg }, &u) in kids[kids_base..].iter().zip(kid_units.iter())
        {
            let Some(&unit) = units.get(u) else { continue };
            let Some(w) = unit.weights else { continue };
            let sep = &cliques[child];
            let (head, tail) = arena.split_at_mut(diffs);
            let (diff, divisors) = tail.split_at_mut(2 * span);
            let diff = &mut diff[..unit.pcells];
            diff.fill(0.0);
            for (b, &dens) in density.iter().enumerate() {
                let ranges = &boxes[b * width..(b + 1) * width];
                let mut weight = dens;
                for (q, other) in units.iter().enumerate() {
                    if q != u {
                        weight *= layout.unboxed(other, head, ranges);
                    }
                }
                layout.scatter(&unit, diff, |p| ranges[p], weight);
            }
            if unit.width == 1 {
                // The unit is the separator's one attribute: its cells,
                // prefix cells and separator cells coincide.
                let len = unit.cells;
                let mut run = 0.0;
                for v in 0..len {
                    run += diff[v];
                    let divisor = run * head[w + v];
                    let (m, u) = (head[msg + v], head[msg + len + v]);
                    if divisor > 0.0 {
                        head[w + v] *= u / divisor;
                        head[w + len + v] *= m / divisor;
                    } else {
                        head[w + v] = 0.0;
                        head[w + len + v] = 0.0;
                    }
                }
            } else {
                let (unit_dims, unit_pstride) = layout.dims(&unit);
                cumulate(diff, unit_dims, unit_pstride, slots);
                let cells = grid.set(unit_dims, unit_pstride, slots, |p| sep.contains(attrs[p]));
                let divisors = &mut divisors[..cells];
                divisors.fill(0.0);
                grid.walk(|cell, at, s| divisors[s] += diff[at] * head[w + cell]);
                grid.walk(|cell, _, s| {
                    let divisor = divisors[s];
                    let (m, u) = (head[msg + s], head[msg + cells + s]);
                    if divisor > 0.0 {
                        head[w + cell] *= u / divisor;
                        head[w + unit.cells + cell] *= m / divisor;
                    } else {
                        head[w + cell] = 0.0;
                        head[w + unit.cells + cell] = 0.0;
                    }
                });
            }
            prefix_sums(head, &unit, &layout, grid);
        }

        let folded = density.len();
        let (Some(out), Some(&unit)) = (out, units.get(out_unit)) else {
            let head = &arena[..diffs];
            let mut mass = 0.0;
            for (b, &dens) in density.iter().enumerate() {
                let ranges = &boxes[b * width..(b + 1) * width];
                let mut weight = dens;
                for unit in units.iter() {
                    weight *= layout.boxed(unit, head, ranges);
                }
                mass += weight;
            }
            arena.truncate(base);
            return (mass, folded);
        };

        // This clique's own pair over its separator with the parent: M
        // inside the box, U without it.
        let (head, tail) = arena.split_at_mut(diffs);
        let (m_diff, tail) = tail.split_at_mut(span);
        let (u_diff, pair) = tail.split_at_mut(span);
        let (m_diff, u_diff) = (&mut m_diff[..unit.pcells], &mut u_diff[..unit.pcells]);
        m_diff.fill(0.0);
        u_diff.fill(0.0);
        for (b, &dens) in density.iter().enumerate() {
            let ranges = &boxes[b * width..(b + 1) * width];
            let (mut m, mut u) = (dens, dens);
            for (q, other) in units.iter().enumerate() {
                if q != out_unit {
                    m *= layout.boxed(other, head, ranges);
                    u *= layout.unboxed(other, head, ranges);
                }
            }
            layout.scatter_pair(&unit, (&mut *m_diff, &mut *u_diff), ranges, (m, u));
        }
        if unit.width == 1 {
            // The unit is the separator's one attribute: the pair replaces
            // the difference arrays in place.
            let len = unit.cells;
            let (mut m_run, mut u_run) = (0.0, 0.0);
            for v in 0..len {
                m_run += m_diff[v];
                u_run += u_diff[v];
                let (wu, wm) =
                    unit.weights.map_or((1.0, 1.0), |w| (head[w + v], head[w + len + v]));
                m_diff[v] = m_run * wm;
                u_diff[v] = u_run * wu;
            }
            arena.copy_within(diffs..diffs + len, base);
            arena.copy_within(diffs + span..diffs + span + len, base + len);
            arena.truncate(base + 2 * len);
            return (0.0, folded);
        }
        let (unit_dims, unit_pstride) = layout.dims(&unit);
        cumulate(m_diff, unit_dims, unit_pstride, slots);
        cumulate(u_diff, unit_dims, unit_pstride, slots);
        let cells = grid.set(unit_dims, unit_pstride, slots, |p| out.contains(attrs[p]));
        let pair = &mut pair[..2 * cells];
        pair.fill(0.0);
        grid.walk(|cell, at, s| {
            let (wu, wm) =
                unit.weights.map_or((1.0, 1.0), |w| (head[w + cell], head[w + unit.cells + cell]));
            pair[s] += m_diff[at] * wm;
            pair[cells + s] += u_diff[at] * wu;
        });
        let from = diffs + 2 * span;
        arena.copy_within(from..from + 2 * cells, base);
        arena.truncate(base + 2 * cells);
        (0.0, folded)
    }
}
