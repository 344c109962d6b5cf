//! Lowered execution kernels for the uncached estimate path.
//!
//! The plan-based engine beat the recursive interpreter mostly through
//! memoized *marginals* — a cache a diverse workload defeats. This module
//! attacks the per-query work itself: once a [`MassPlan`]'s shape is
//! known, each independent component's **loose marginal** is executed one
//! time through the ordinary factor algebra (so it is bit-identical by
//! construction) and then *lowered* into a
//! [`TreeIndex`](dbhist_histogram::TreeIndex) — one contiguous preorder
//! array of 64-bit slots (a subtree total per node, plus one packed word
//! of split structure and right-child offset per internal node: 8 bytes
//! per leaf, 16 per split) that answers `mass_in_box` with a pruned
//! O(log b)-per-boundary walk instead of re-running products, projections,
//! and full-tree scans per query. EXPLAIN reports the sum of a kernel's
//! group `storage_bytes()` as the memory its query shape holds; a group
//! shared with other shapes counts in each of them.
//!
//! A [`MassKernel`] bundles the lowered group indices with the synopsis
//! total and replays the exact arithmetic of the engine's group fold
//! (in [`QueryEngine::estimate_mass`](crate::plan::QueryEngine::estimate_mass)):
//! `mass = N · Π (group_mass / N)`, groups in plan order, left to right.
//!
//! **Shared groups.** Many query shapes execute the same group: the
//! Fig. 3 recursion for different targets often runs the same product
//! chain. The engine names each group execution by its **expression
//! key** — the hash-consed operations that actually ran (`Load`,
//! proper `Project`, `Product`, and a fired shed as the projection it
//! runs) — and keeps one table from key to `Weak<TreeIndex>`, so a
//! kernel's groups are `Arc`s shared with every cached shape whose group
//! executed the same expression, and a lowering lives exactly as long as
//! some cached shape holds it. On a miss the engine resolves each
//! group's key symbolically (attribute sets and shed decisions replayed
//! from what earlier executions observed) and walks a live shared
//! lowering instead of running products. Equal keys mean bit-identical
//! marginals, so sharing changes no estimate.
//! Because each index walk is bit-identical to
//! `SplitTree::mass_in_box` on the marginal it was lowered from (see the
//! proof in `dbhist_histogram::mhist::index`), a kernel evaluation is
//! bit-identical to executing the plan — the invariant every prior PR
//! pinned, extended to the kernels by `tests/plan_equivalence.rs`.
//!
//! Lowering collapses every zero-total subtree into one zero leaf;
//! [`IndexLayout`](dbhist_histogram::IndexLayout) records whether any
//! did, and the walk and the bit-identity contract are the same either
//! way. Factors without a lowering (exact distributions, grids,
//! wavelets) simply return `None` from
//! [`Factor::lower_index`](crate::factor::Factor::lower_index) and the
//! engine keeps executing their plans directly.
//!
//! **Summation-order contract:** a lowered kernel never re-associates a
//! sum. Subtree totals are precomputed with the same tree-shaped
//! `(left + right)` grouping the interpreter's recursion produces, the
//! walk visits children in the same left-then-right order, and the group
//! product loop keeps plan order. Any future kernel optimization must
//! preserve this or demote itself behind a new equivalence proof.

use std::sync::Arc;
use std::time::Instant;

use dbhist_distribution::AttrId;
use dbhist_histogram::TreeIndex;

use crate::explain::{ExplainProbe, NoProbe};
use crate::query::Query;
use crate::scratch::PlanScratch;

/// A fully lowered [`MassPlan`](crate::plan::MassPlan): the synopsis
/// total plus one flattened [`TreeIndex`] per independent component, in
/// plan order. Built by the engine on the first execution of a plan
/// shape; evaluated on every subsequent query with that shape. A group
/// is shared (one `Arc`) with every other cached shape whose group
/// executed the same expression.
#[derive(Debug, Clone)]
pub struct MassKernel {
    /// The synopsis total `N` at lowering time (factors are immutable
    /// between invalidations, which drop lowered kernels).
    total: f64,
    /// Lowered loose group marginals, in [`MassPlan`] group order.
    groups: Vec<Arc<TreeIndex>>,
}

impl MassKernel {
    /// Assembles a kernel from the synopsis total and the lowered group
    /// indices (one per plan group, same order).
    #[must_use]
    pub(crate) fn new(total: f64, groups: Vec<Arc<TreeIndex>>) -> Self {
        Self { total, groups }
    }

    /// The lowered per-group indices, in plan order.
    #[must_use]
    pub fn groups(&self) -> &[Arc<TreeIndex>] {
        &self.groups
    }

    /// Evaluates the kernel for one concrete query, reusing `scratch`.
    /// Bit-identical to executing the plan it was lowered from.
    #[must_use]
    pub fn evaluate(&self, query: &Query, scratch: &mut PlanScratch) -> f64 {
        self.evaluate_ranges(query.ranges(), scratch)
    }

    /// Range-slice form of [`MassKernel::evaluate`] (the histogram-layer
    /// representation).
    #[must_use]
    pub(crate) fn evaluate_ranges(
        &self,
        ranges: &[(AttrId, u32, u32)],
        scratch: &mut PlanScratch,
    ) -> f64 {
        self.evaluate_ranges_probed(ranges, scratch, &mut NoProbe)
    }

    /// [`MassKernel::evaluate_ranges`] with an [`ExplainProbe`] observing
    /// each group walk. With [`NoProbe`] every probe site (and its clock
    /// read) monomorphizes away, so the unprobed path is the old code.
    pub(crate) fn evaluate_ranges_probed<P: ExplainProbe>(
        &self,
        ranges: &[(AttrId, u32, u32)],
        scratch: &mut PlanScratch,
        probe: &mut P,
    ) -> f64 {
        // Verbatim arithmetic of the engine's group fold: start from the
        // total, multiply each group's mass ratio in plan order.
        let total = self.total;
        let mut mass = total;
        for (index, group) in self.groups.iter().enumerate() {
            let started = if P::ACTIVE { Some(Instant::now()) } else { None };
            let group_mass =
                group.mass_in_box_with(ranges, &mut scratch.bounds, &mut scratch.constraint);
            if P::ACTIVE {
                let ns = started.map_or(0, |t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(0));
                probe.kernel_group(index, group_mass, ns);
            }
            if total > 0.0 {
                mass *= group_mass / total;
            } else {
                return 0.0;
            }
        }
        mass
    }
}
