//! MHIST histograms in the paper's split-tree representation (§3.3.2).
//!
//! An MHIST histogram is a hierarchical binary partitioning of the data
//! space. Poosala & Ioannidis stored each `n`-dimensional bucket
//! explicitly (`2n + 1` numbers per bucket); the paper's key observation
//! is that the partitioning itself is a binary tree, so it suffices to
//! store, per internal node, the split dimension and split value, and per
//! leaf the bucket frequency — `3b − 2` numbers for `b` buckets.
//!
//! [`SplitTree`] is that representation. Its workhorse query is
//! [`SplitTree::mass_in_box`]: the estimated frequency mass inside a
//! conjunctive range box under intra-bucket uniformity, which serves
//! range-selectivity estimation directly and supplies the weights `w` of
//! the paper's `project` (Fig. 4) and `product` (Fig. 5) operators.

mod build;
mod ops;

pub use build::MhistBuilder;

use std::cell::RefCell;

use dbhist_distribution::{AttrId, AttrSet};

use crate::bbox::BoundingBox;

/// The node box and the query box [`SplitTree::mass_within`] walks with.
type BoxBuffers = (Vec<(u32, u32)>, Vec<(u32, u32)>);

thread_local! {
    /// One pair of box buffers per thread, so a mass query allocates
    /// nothing once its thread has run one.
    static BOX_BUFFERS: RefCell<BoxBuffers> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Index of a node within a [`SplitTree`] arena.
pub type NodeId = u32;

/// A node of a split tree.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Node {
    /// An internal split: values `< split` of `attr` go left, values
    /// `≥ split` go right.
    Internal {
        /// The split dimension.
        attr: AttrId,
        /// The split value.
        split: u32,
        /// Left child (values `< split`).
        left: NodeId,
        /// Right child (values `≥ split`).
        right: NodeId,
    },
    /// A bucket holding a frequency.
    Leaf {
        /// Total frequency of the bucket.
        freq: f64,
    },
}

/// An MHIST histogram stored as a split tree (paper §3.3.2).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SplitTree {
    attrs: AttrSet,
    /// The root bounding box (full attribute domains).
    domain: BoundingBox,
    /// Node arena; index 0 is the root.
    nodes: Vec<Node>,
    total: f64,
}

impl SplitTree {
    /// Assembles a split tree from raw parts, recomputing the cached
    /// total. Internal constructor used by the builder and operators,
    /// whose outputs are structurally valid by construction (checked in
    /// debug builds).
    pub(crate) fn from_parts(attrs: AttrSet, domain: BoundingBox, nodes: Vec<Node>) -> Self {
        let tree = Self::from_parts_unvalidated(attrs, domain, nodes);
        debug_assert!(tree.validate().is_ok(), "{:?}", tree.validate());
        tree
    }

    /// Like [`SplitTree::from_parts`] but defers validation to the caller
    /// — for inputs of unknown provenance (the codec), which must reject
    /// malformed trees with an error rather than an assertion.
    pub(crate) fn from_parts_unvalidated(
        attrs: AttrSet,
        domain: BoundingBox,
        nodes: Vec<Node>,
    ) -> Self {
        let total = nodes
            .iter()
            .map(|n| match n {
                Node::Leaf { freq } => *freq,
                Node::Internal { .. } => 0.0,
            })
            .sum();
        Self { attrs, domain, nodes, total }
    }

    /// Like [`SplitTree::from_parts_unvalidated`] but keeps the supplied
    /// cached total verbatim instead of recomputing it as the arena-order
    /// leaf sum — the snapshot codec needs this because a tree mutated by
    /// `update` carries a total that can differ from that sum in its last
    /// bits, and persistence must round-trip every `f64` bit-exactly.
    /// Callers must run [`SplitTree::validate`] (which tolerates the
    /// difference: it compares total and leaf sum within `1e-6` relative).
    pub(crate) fn from_parts_with_total(
        attrs: AttrSet,
        domain: BoundingBox,
        nodes: Vec<Node>,
        total: f64,
    ) -> Self {
        Self { attrs, domain, nodes, total }
    }

    /// The attributes the histogram covers.
    #[must_use]
    pub fn attrs(&self) -> &AttrSet {
        &self.attrs
    }

    /// The root bounding box (the full domain of each covered attribute).
    #[must_use]
    pub fn domain(&self) -> &BoundingBox {
        &self.domain
    }

    /// Total frequency mass.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of buckets (leaves) `b`.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count()
    }

    /// Number of stored numeric values in the split-tree representation:
    /// `3b − 2` (one frequency per leaf, a dimension and a value per
    /// internal node).
    #[must_use]
    pub fn stored_numbers(&self) -> usize {
        3 * self.bucket_count() - 2
    }

    /// The node arena (root at index 0).
    #[must_use]
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Every bucket as `(bounding box, frequency)`.
    #[must_use]
    pub fn leaves(&self) -> Vec<(BoundingBox, f64)> {
        let mut out = Vec::with_capacity(self.bucket_count());
        self.visit_leaves(0, self.domain.clone(), &mut |_, bbox, freq| out.push((bbox, freq)));
        out
    }

    /// Calls `visit(id, bucket box, frequency)` for every leaf under
    /// `node`, in preorder.
    pub(crate) fn visit_leaves(
        &self,
        node: NodeId,
        bbox: BoundingBox,
        visit: &mut impl FnMut(NodeId, BoundingBox, f64),
    ) {
        match &self.nodes[node as usize] {
            Node::Leaf { freq } => visit(node, bbox, *freq),
            Node::Internal { attr, split, left, right } => {
                // Validated trees only split inside their node's box;
                // degrade to an unsplit walk otherwise.
                let halves = bbox.halves(*attr, *split);
                debug_assert!(halves.is_some(), "split inside box");
                let (lbox, rbox) = halves.unwrap_or_else(|| (bbox.clone(), bbox));
                self.visit_leaves(*left, lbox, visit);
                self.visit_leaves(*right, rbox, visit);
            }
        }
    }

    /// Estimated frequency mass inside the conjunction of inclusive ranges
    /// (attributes not covered by the histogram are ignored; repeated
    /// attributes intersect), under intra-bucket uniformity.
    ///
    /// This is exactly the paper's estimator: each bucket contributes its
    /// frequency scaled by the fraction of its volume inside the box. It
    /// walks with its thread's box buffers and allocates nothing.
    #[must_use]
    pub fn mass_in_box(&self, ranges: &[(AttrId, u32, u32)]) -> f64 {
        self.mass_pooled(ranges.iter().copied())
    }

    /// Calls `visit(ranges, frequency)` for every bucket in arena
    /// preorder, `ranges` aligned with [`SplitTree::attrs`]. One box
    /// buffer is cut in place down the walk and restored on the way up,
    /// as the operators' emitter does, so no bucket allocates.
    pub fn for_each_bucket(&self, mut visit: impl FnMut(&[(u32, u32)], f64)) {
        let mut bbox = self.domain.ranges().to_vec();
        self.bucket_walk(0, &mut bbox, &mut visit);
    }

    fn bucket_walk(
        &self,
        node: NodeId,
        bbox: &mut [(u32, u32)],
        visit: &mut impl FnMut(&[(u32, u32)], f64),
    ) {
        match &self.nodes[node as usize] {
            Node::Leaf { freq } => visit(bbox, *freq),
            Node::Internal { attr, split, left, right } => {
                // An uncovered split attribute means a corrupt tree; its
                // subtree is skipped rather than aborting.
                let Some(p) = self.attrs.position(*attr) else {
                    return;
                };
                let (lo, hi) = bbox[p];
                bbox[p] = (lo, split.saturating_sub(1));
                self.bucket_walk(*left, bbox, visit);
                bbox[p] = (*split, hi);
                self.bucket_walk(*right, bbox, visit);
                bbox[p] = (lo, hi);
            }
        }
    }

    /// Estimated frequency mass inside a bounding box over (a subset of)
    /// the histogram's attributes.
    #[must_use]
    pub fn mass_in_bounding_box(&self, bbox: &BoundingBox) -> f64 {
        let ranges = bbox.attrs().iter().zip(bbox.ranges()).map(|(a, &(lo, hi))| (a, lo, hi));
        self.mass_pooled(ranges)
    }

    /// [`SplitTree::mass_within`] over this thread's box buffers. The
    /// walk calls out to nothing, so the buffers are never borrowed twice.
    fn mass_pooled(&self, ranges: impl IntoIterator<Item = (AttrId, u32, u32)>) -> f64 {
        BOX_BUFFERS
            .with_borrow_mut(|(bounds, constraint)| self.mass_within(ranges, bounds, constraint))
    }

    /// The one entry point of every mass query: `ranges` intersected with
    /// the domain into `constraint`, then the `mass_rec` walk from the
    /// root with `bounds` as its box. Both buffers are cleared and
    /// refilled, so a caller that keeps them allocates nothing.
    pub(crate) fn mass_within(
        &self,
        ranges: impl IntoIterator<Item = (AttrId, u32, u32)>,
        bounds: &mut Vec<(u32, u32)>,
        constraint: &mut Vec<(u32, u32)>,
    ) -> f64 {
        // Empty intersection anywhere means zero mass.
        constraint.clear();
        constraint.extend_from_slice(self.domain.ranges());
        for (a, lo, hi) in ranges {
            if let Some(p) = self.attrs.position(a) {
                let c = &mut constraint[p];
                *c = (c.0.max(lo), c.1.min(hi));
                if c.0 > c.1 {
                    return 0.0;
                }
            }
        }
        bounds.clear();
        bounds.extend_from_slice(self.domain.ranges());
        self.mass_rec(0, bounds, constraint)
    }

    /// Allocation-free walk: `bounds` tracks the current node's box
    /// (mutated in place and restored), `constraint` the query box.
    fn mass_rec(&self, node: NodeId, bounds: &mut [(u32, u32)], constraint: &[(u32, u32)]) -> f64 {
        match &self.nodes[node as usize] {
            Node::Leaf { freq } => {
                // lint:allow-next-line(float-cmp): exact-zero bucket short-circuit
                if *freq == 0.0 {
                    return 0.0;
                }
                let mut fraction = 1.0;
                for (&(lo, hi), &(clo, chi)) in bounds.iter().zip(constraint) {
                    let olo = lo.max(clo);
                    let ohi = hi.min(chi);
                    if olo > ohi {
                        return 0.0;
                    }
                    fraction *= (f64::from(ohi - olo) + 1.0) / (f64::from(hi - lo) + 1.0);
                }
                freq * fraction
            }
            Node::Internal { attr, split, left, right } => {
                // An uncovered split attribute means a corrupt tree;
                // contribute zero mass rather than abort.
                let Some(p) = self.attrs.position(*attr) else {
                    return 0.0;
                };
                let (lo, hi) = bounds[p];
                let (clo, chi) = constraint[p];
                let mut mass = 0.0;
                if clo < *split && lo < *split {
                    bounds[p] = (lo, *split - 1);
                    mass += self.mass_rec(*left, bounds, constraint);
                }
                if chi >= *split && hi >= *split {
                    bounds[p] = (*split, hi);
                    mass += self.mass_rec(*right, bounds, constraint);
                }
                bounds[p] = (lo, hi);
                mass
            }
        }
    }

    /// Applies a point update: adds `delta` to the frequency of the bucket
    /// containing `key` (aligned with [`SplitTree::attrs`] in ascending
    /// order). Negative deltas are clamped so the bucket never goes below
    /// zero; the applied amount is returned.
    ///
    /// This is the primitive behind incremental synopsis maintenance
    /// (inserts/deletes on the base table): the bucketization is left
    /// unchanged, only counts move, so accuracy degrades gracefully until
    /// a rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not match the histogram's arity or lies
    /// outside its domain box.
    pub fn update(&mut self, key: &[u32], delta: f64) -> f64 {
        assert_eq!(key.len(), self.attrs.len(), "key arity mismatch");
        assert!(self.domain.contains_point(key), "key {key:?} outside histogram domain");
        let mut node = 0u32;
        loop {
            match &self.nodes[node as usize] {
                Node::Internal { attr, split, left, right } => {
                    // Corrupt tree (uncovered split attribute): apply
                    // nothing rather than abort mid-update.
                    let Some(p) = self.attrs.position(*attr) else {
                        return 0.0;
                    };
                    node = if key[p] < *split { *left } else { *right };
                }
                Node::Leaf { freq } => {
                    let applied = delta.max(-*freq);
                    let new = freq + applied;
                    self.nodes[node as usize] = Node::Leaf { freq: new };
                    self.total += applied;
                    return applied;
                }
            }
        }
    }

    /// Structural validation (the synopsis integrity contract — see
    /// DESIGN.md "Invariants & lint policy"):
    ///
    /// 1. the arena is a well-formed binary tree rooted at 0: every child
    ///    index in range, every node reachable from the root exactly once
    ///    (no sharing, no cycles), and no orphan arena entries;
    /// 2. leaf/internal counts match (`b` leaves, `b − 1` internal nodes),
    ///    equivalently the wire payload is exactly
    ///    [`crate::codec::split_tree_bytes_exact`] bytes;
    /// 3. every split lies strictly inside its node's box (both children
    ///    non-empty) over a covered attribute;
    /// 4. every leaf frequency is finite and non-negative, and the cached
    ///    total equals the leaf sum;
    /// 5. the tree is no deeper than [`MAX_TREE_DEPTH`], so recursive
    ///    queries cannot exhaust the stack.
    ///
    /// The walk is iterative: `validate` must diagnose adversarially deep
    /// trees, not die on them. Returns a description of the first
    /// violation.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("empty node arena".into());
        }
        let mut visited = vec![false; self.nodes.len()];
        let mut stack: Vec<(NodeId, BoundingBox, usize)> = vec![(0, self.domain.clone(), 0)];
        let (mut leaves, mut internals) = (0usize, 0usize);
        let mut leaf_sum = 0.0f64;
        while let Some((node, bbox, depth)) = stack.pop() {
            if depth > MAX_TREE_DEPTH {
                return Err(format!("tree deeper than {MAX_TREE_DEPTH}"));
            }
            let idx = node as usize;
            let Some(n) = self.nodes.get(idx) else {
                return Err(format!("node id {node} out of range"));
            };
            if visited[idx] {
                return Err(format!("node {node} reachable more than once"));
            }
            visited[idx] = true;
            match n {
                Node::Leaf { freq } => {
                    if !freq.is_finite() || *freq < 0.0 {
                        return Err(format!("leaf {node} has invalid frequency {freq}"));
                    }
                    leaves += 1;
                    leaf_sum += freq;
                }
                Node::Internal { attr, split, left, right } => {
                    internals += 1;
                    let Some((lbox, rbox)) = bbox.halves(*attr, *split) else {
                        return Err(match bbox.range(*attr) {
                            None => format!("node {node} splits uncovered attribute {attr}"),
                            Some((lo, hi)) => {
                                format!("node {node} split {split} outside ({lo}, {hi}]")
                            }
                        });
                    };
                    stack.push((*left, lbox, depth + 1));
                    stack.push((*right, rbox, depth + 1));
                }
            }
        }
        if leaves + internals != self.nodes.len() {
            return Err(format!(
                "arena has {} orphan nodes unreachable from the root",
                self.nodes.len() - leaves - internals
            ));
        }
        if leaves != internals + 1 {
            return Err(format!(
                "malformed binary tree: {leaves} leaves vs {internals} internal nodes"
            ));
        }
        // Counts pinned above imply the wire payload is exactly the paper's
        // 9b − 5 bytes; assert the accounting identity explicitly so codec
        // and validator cannot drift apart.
        let payload = 4 * leaves + 5 * internals;
        if payload != crate::codec::split_tree_bytes_exact(leaves) {
            return Err(format!(
                "payload accounting drifted: {payload} bytes vs split_tree_bytes_exact"
            ));
        }
        if !(self.total.is_finite() && (self.total - leaf_sum).abs() <= 1e-6 * (1.0 + leaf_sum)) {
            return Err(format!("cached total {} disagrees with leaf sum {leaf_sum}", self.total));
        }
        Ok(())
    }
}

/// Upper bound on split-tree depth. Legitimate MHIST constructions are far
/// shallower (depth grows with bucket count, and budgets are byte-bounded);
/// the cap exists so recursive query walks over decoded trees cannot
/// exhaust the stack on adversarial input.
pub const MAX_TREE_DEPTH: usize = 2048;

#[cfg(test)]
mod tests {
    use super::*;
    use dbhist_distribution::{Relation, Schema};

    pub(crate) fn grid_relation() -> Relation {
        // 8x8 grid; frequency of (x, y) = x + 2y + 1.
        let schema = Schema::new(vec![("x", 8), ("y", 8)]).unwrap();
        let mut rows = Vec::new();
        for x in 0..8u32 {
            for y in 0..8u32 {
                for _ in 0..(x + 2 * y + 1) {
                    rows.push(vec![x, y]);
                }
            }
        }
        Relation::from_rows(schema, rows).unwrap()
    }

    fn manual_tree() -> SplitTree {
        // Domain [0,7]x[0,7]; split x at 4, left split y at 2.
        let attrs = AttrSet::from_ids([0, 1]);
        let domain = BoundingBox::new(attrs.clone(), vec![(0, 7), (0, 7)]);
        let nodes = vec![
            Node::Internal { attr: 0, split: 4, left: 1, right: 2 },
            Node::Internal { attr: 1, split: 2, left: 3, right: 4 },
            Node::Leaf { freq: 40.0 },
            Node::Leaf { freq: 8.0 },
            Node::Leaf { freq: 24.0 },
        ];
        SplitTree::from_parts(attrs, domain, nodes)
    }

    #[test]
    fn totals_and_counts() {
        let t = manual_tree();
        assert_eq!(t.total(), 72.0);
        assert_eq!(t.bucket_count(), 3);
        assert_eq!(t.stored_numbers(), 7);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn leaves_partition_domain() {
        let t = manual_tree();
        let leaves = t.leaves();
        assert_eq!(leaves.len(), 3);
        let total_volume: u64 = leaves.iter().map(|(b, _)| b.volume()).sum();
        assert_eq!(total_volume, 64, "leaves tile the domain");
        // Specific boxes.
        assert_eq!(leaves[0].0.ranges(), &[(0, 3), (0, 1)]);
        assert_eq!(leaves[0].1, 8.0);
        assert_eq!(leaves[1].0.ranges(), &[(0, 3), (2, 7)]);
        assert_eq!(leaves[2].0.ranges(), &[(4, 7), (0, 7)]);
    }

    #[test]
    fn bucket_visitor_walks_leaves_in_preorder() {
        let t = manual_tree();
        let mut seen = Vec::new();
        t.for_each_bucket(|ranges, freq| seen.push((ranges.to_vec(), freq)));
        let leaves: Vec<_> =
            t.leaves().into_iter().map(|(b, f)| (b.ranges().to_vec(), f)).collect();
        assert_eq!(seen, leaves);
    }

    #[test]
    fn mass_full_box_is_total() {
        let t = manual_tree();
        assert!((t.mass_in_box(&[]) - 72.0).abs() < 1e-12);
        assert!((t.mass_in_box(&[(0, 0, 7), (1, 0, 7)]) - 72.0).abs() < 1e-12);
    }

    #[test]
    fn mass_respects_buckets_and_uniformity() {
        let t = manual_tree();
        // Exactly the right bucket.
        assert!((t.mass_in_box(&[(0, 4, 7)]) - 40.0).abs() < 1e-12);
        // Half of the right bucket along x.
        assert!((t.mass_in_box(&[(0, 6, 7)]) - 20.0).abs() < 1e-12);
        // Quarter of leaf (0..3, 0..1): one column of four.
        assert!((t.mass_in_box(&[(0, 0, 0), (1, 0, 1)]) - 2.0).abs() < 1e-12);
        // Constraint on an attribute the tree does not cover is ignored.
        assert!((t.mass_in_box(&[(9, 0, 0)]) - 72.0).abs() < 1e-12);
        // Empty constraint.
        assert_eq!(t.mass_in_box(&[(0, 4, 7), (0, 0, 3)]), 0.0);
    }

    /// Mass queries share their thread's box buffers across trees of
    /// different arity and still give the bits of a walk over fresh ones.
    #[test]
    fn pooled_buffers_give_fresh_bits() {
        let wide = manual_tree();
        let dist = grid_relation().marginal(&AttrSet::singleton(1)).unwrap();
        let narrow = MhistBuilder::build(&dist, 3, crate::SplitCriterion::MaxDiff).unwrap();
        let fresh = |tree: &SplitTree, ranges: &[(AttrId, u32, u32)]| {
            tree.mass_within(ranges.iter().copied(), &mut Vec::new(), &mut Vec::new())
        };
        for lo in 0..8 {
            for (tree, ranges) in [
                (&wide, vec![(0, lo, 7), (1, 1, lo.max(1))]),
                (&narrow, vec![(1, lo, 6)]),
                (&wide, vec![(1, 0, lo), (0, 2, 5), (1, lo / 2, 7)]),
            ] {
                let pooled = tree.mass_in_box(&ranges);
                assert_eq!(pooled.to_bits(), fresh(tree, &ranges).to_bits(), "{ranges:?}");
            }
        }
    }

    #[test]
    fn validation_catches_bad_trees() {
        let attrs = AttrSet::from_ids([0]);
        let domain = BoundingBox::new(attrs.clone(), vec![(0, 3)]);
        // Split value outside the box.
        let t = SplitTree {
            attrs: attrs.clone(),
            domain: domain.clone(),
            nodes: vec![
                Node::Internal { attr: 0, split: 9, left: 1, right: 2 },
                Node::Leaf { freq: 1.0 },
                Node::Leaf { freq: 1.0 },
            ],
            total: 2.0,
        };
        assert!(t.validate().is_err());
        // Negative frequency.
        let t = SplitTree {
            attrs: attrs.clone(),
            domain: domain.clone(),
            nodes: vec![Node::Leaf { freq: -1.0 }],
            total: -1.0,
        };
        assert!(t.validate().is_err());
        // Dangling child id.
        let t = SplitTree {
            attrs,
            domain,
            nodes: vec![Node::Internal { attr: 0, split: 2, left: 5, right: 6 }],
            total: 0.0,
        };
        assert!(t.validate().is_err());
    }
}
