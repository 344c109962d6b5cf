//! Flattened, total-annotated split-tree indices for O(log b) range sums.
//!
//! [`TreeIndex`] lowers a [`SplitTree`] into **one contiguous array of
//! 64-bit slots** holding per-node subtree totals and packed split
//! structure, and answers `mass_in_box` queries with a pruned walk that is
//! **bit-identical** to [`SplitTree::mass_in_box`] while touching only the
//! buckets on the query-box boundary ("Enhancing Histograms by Tree-Like
//! Bucket Indices"-style aggregates).
//!
//! # Layout
//!
//! Nodes are stored in preorder, and a node's first slot is always its
//! subtree total's `f64` bit pattern:
//!
//! * a **leaf** is that one slot (8 bytes);
//! * an **internal node** is two slots (16 bytes): the total, then one
//!   packed word holding the split value (bits 0–31), the split
//!   attribute's *position* within the tree's attribute set (bits 32–37),
//!   a "left child is a leaf" bit (38), a "right child is a leaf" bit
//!   (39), and the right child's slot offset from this node (bits 40–63).
//!
//! The left child is the next node (two slots on), so a root-to-leaf
//! descent is a forward scan of one array, and the walk never re-derives
//! `attrs.position(attr)` per node. A binary tree has one more leaf than
//! internal nodes, so `b` buckets take `3b − 2` slots — the paper's
//! split-tree count of stored numbers, about 12 bytes per node. A tree
//! whose right-child offsets exceed 24 bits does not lower (the caller
//! keeps the tree walk).
//!
//! Two lowered layouts exist:
//!
//! * [`IndexLayout::Dense`] — every arena node is materialized.
//! * [`IndexLayout::Sparse`] — subtrees whose total mass is exactly zero
//!   are collapsed into a single zero leaf (the self-tuning-histogram
//!   trick of keeping storage proportional to *occupied* buckets). Chosen
//!   automatically when leaf occupancy falls below
//!   [`SPARSE_OCCUPANCY_THRESHOLD`].
//!
//! Lowering is one preorder pass: each node's slots are reserved, its
//! children emitted, and its total (`left + right`) written back; under
//! the sparse layout a node whose total comes out `0.0` truncates the
//! array back to one zero leaf.
//!
//! # Bit-identity contract
//!
//! The walk reproduces `SplitTree::mass_rec` exactly — same descent
//! conditions, same left-then-right `+=` accumulation, same per-leaf
//! fraction loop in attribute order — and adds exactly two prunes, each
//! proven to return the bit pattern the full recursion would:
//!
//! 1. **Zero subtrees.** Leaf frequencies are validated non-negative, so a
//!    subtree total of `0.0` means every leaf in it is exactly zero; the
//!    full recursion over it returns `+0.0` (every leaf short-circuits on
//!    its zero check), and `x + 0.0 == x` bitwise for the non-negative
//!    accumulator. Returning `0.0` without descending is identical.
//! 2. **Fully-contained subtrees.** When the query box covers the node's
//!    box in every dimension (tracked in a per-dimension bitmask that only
//!    the split dimension can change on descent), every leaf fraction
//!    factor is exactly `(hi-lo+1)/(hi-lo+1) == 1.0`, so each non-zero
//!    leaf contributes exactly `freq` and the recursion's tree-shaped sum
//!    `(l + r)` is precisely how the subtree totals were precomputed.
//!    Returning the stored total is identical.
//!
//! The summation order is therefore *fixed by the tree shape* and shared
//! with the interpreter; `tests/plan_equivalence.rs` pins the equivalence
//! with proptests.

use dbhist_distribution::{AttrId, AttrSet};

use super::{Node, SplitTree};

/// Leaf occupancy (non-zero leaves / total leaves) below which
/// [`TreeIndex::lower`] picks the zero-collapsing sparse layout.
pub const SPARSE_OCCUPANCY_THRESHOLD: f64 = 0.25;

/// Packed-word field: split attribute position (6 bits, < 64 attributes).
const POS_SHIFT: u32 = 32;
const POS_MASK: u64 = 0x3f;
/// Packed-word flags: the left / right child is a one-slot leaf.
const LEFT_LEAF: u64 = 1 << 38;
const RIGHT_LEAF: u64 = 1 << 39;
/// Packed-word field: right child's slot offset from its parent (24 bits).
const RIGHT_SHIFT: u32 = 40;
/// Largest right-child offset the packed word holds.
const MAX_RIGHT_OFFSET: usize = (1 << (64 - RIGHT_SHIFT)) - 1;

/// Which lowering a [`TreeIndex`] was built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexLayout {
    /// Every arena node materialized.
    Dense,
    /// All-zero subtrees collapsed into single zero leaves.
    Sparse,
}

/// Packs an internal node's structure word (see the [module docs](self)).
/// `pos < 64` and `right <= MAX_RIGHT_OFFSET` are the caller's to check.
fn pack(split: u32, pos: usize, right: usize, left_leaf: bool, right_leaf: bool) -> u64 {
    u64::from(split)
        | (pos as u64) << POS_SHIFT
        | if left_leaf { LEFT_LEAF } else { 0 }
        | if right_leaf { RIGHT_LEAF } else { 0 }
        | (right as u64) << RIGHT_SHIFT
}

/// A flattened split tree answering `mass_in_box` with a pruned,
/// bit-identical walk; see the [module docs](self) for the layout and the
/// bit-identity contract.
#[derive(Debug, Clone)]
pub struct TreeIndex {
    attrs: AttrSet,
    /// The root box, one inclusive range per attribute position.
    domain: Vec<(u32, u32)>,
    /// Preorder slots: one per leaf, two per internal node.
    slots: Vec<u64>,
    layout: IndexLayout,
    /// Leaves in the source tree (before any sparse collapsing).
    source_leaves: usize,
    /// Leaves with non-zero frequency in the source tree.
    occupied_leaves: usize,
}

impl TreeIndex {
    /// Lowers `tree` into a flattened index, choosing
    /// [`IndexLayout::Sparse`] when leaf occupancy is below
    /// [`SPARSE_OCCUPANCY_THRESHOLD`] and [`IndexLayout::Dense`]
    /// otherwise.
    ///
    /// Returns `None` when the tree cannot be indexed: more than 64
    /// attributes (the containment bitmask is a `u64`), a right-child
    /// offset too large for the packed word, or a structurally
    /// inconsistent arena (empty, a child not after its parent, an
    /// uncovered split attribute), for which the caller must keep using
    /// the tree walk.
    #[must_use]
    pub fn lower(tree: &SplitTree) -> Option<Self> {
        Self::lower_within(tree, MAX_RIGHT_OFFSET)
    }

    /// [`TreeIndex::lower`] with the right-child offset capped at
    /// `max_right` slots (the packed word's limit outside tests).
    fn lower_within(tree: &SplitTree, max_right: usize) -> Option<Self> {
        if tree.attrs().len() > 64 {
            return None;
        }
        let arena = tree.nodes();
        let source_leaves = arena.iter().filter(|n| matches!(n, Node::Leaf { .. })).count();
        let occupied_leaves = arena
            .iter()
            // lint:allow-next-line(float-cmp): occupancy counts exact-zero buckets
            .filter(|n| matches!(n, Node::Leaf { freq } if *freq != 0.0))
            .count();
        #[allow(clippy::cast_precision_loss)]
        let occupancy =
            if source_leaves == 0 { 1.0 } else { occupied_leaves as f64 / source_leaves as f64 };
        let layout = if occupancy < SPARSE_OCCUPANCY_THRESHOLD {
            IndexLayout::Sparse
        } else {
            IndexLayout::Dense
        };
        // A dense lowering of a fully reachable arena fills exactly one
        // slot per leaf and two per split; a sparse one grows as it goes.
        // Either way the index keeps no spare capacity.
        let mut slots = match layout {
            IndexLayout::Dense => Vec::with_capacity(2 * arena.len() - source_leaves),
            IndexLayout::Sparse => Vec::new(),
        };
        emit(tree, &mut slots, layout == IndexLayout::Sparse, max_right, 0)?;
        slots.shrink_to_fit();
        Some(Self {
            attrs: tree.attrs().clone(),
            domain: tree.domain().ranges().to_vec(),
            slots,
            layout,
            source_leaves,
            occupied_leaves,
        })
    }

    /// The layout the lowering selected.
    #[must_use]
    pub fn layout(&self) -> IndexLayout {
        self.layout
    }

    /// The attributes the index covers (same as the source tree).
    #[must_use]
    pub fn attrs(&self) -> &AttrSet {
        &self.attrs
    }

    /// Source-tree leaves with non-zero frequency over all source leaves,
    /// the sparse-selection criterion.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.source_leaves == 0 {
            1.0
        } else {
            self.occupied_leaves as f64 / self.source_leaves as f64
        }
    }

    /// Materialized nodes (post-collapse) — the sparse layout's storage
    /// win shows up here. With `i` internal nodes there are `i + 1`
    /// leaves and `3i + 1` slots.
    #[must_use]
    pub fn node_count(&self) -> usize {
        (self.slots.len() - 1) / 3 * 2 + 1
    }

    /// Total frequency mass (the root's subtree total).
    #[must_use]
    pub fn total(&self) -> f64 {
        f64::from_bits(self.slots[0])
    }

    /// Heap bytes held by the slot array: 8 per leaf plus 16 per
    /// internal node, since lowering releases any unused capacity.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u64>()
    }

    /// Bit-identical to [`SplitTree::mass_in_box`] on the source tree;
    /// allocates its own scratch. Prefer
    /// [`TreeIndex::mass_in_box_with`] on hot paths.
    #[must_use]
    pub fn mass_in_box(&self, ranges: &[(AttrId, u32, u32)]) -> f64 {
        let mut bounds = Vec::new();
        let mut constraint = Vec::new();
        self.mass_in_box_with(ranges, &mut bounds, &mut constraint)
    }

    /// Bit-identical to [`SplitTree::mass_in_box`] on the source tree,
    /// reusing caller-owned scratch buffers (cleared and refilled here)
    /// so repeated queries allocate nothing.
    #[must_use]
    pub fn mass_in_box_with(
        &self,
        ranges: &[(AttrId, u32, u32)],
        bounds: &mut Vec<(u32, u32)>,
        constraint: &mut Vec<(u32, u32)>,
    ) -> f64 {
        // Constraint setup is verbatim from SplitTree::mass_in_box: query
        // ranges intersected with the domain, empty intersection ⇒ 0.
        constraint.clear();
        constraint.extend_from_slice(&self.domain);
        for &(a, lo, hi) in ranges {
            if let Some(p) = self.attrs.position(a) {
                let c = &mut constraint[p];
                *c = (c.0.max(lo), c.1.min(hi));
                if c.0 > c.1 {
                    return 0.0;
                }
            }
        }
        bounds.clear();
        bounds.extend_from_slice(&self.domain);
        // Bit p of `resolved` = "the query box fully covers the current
        // node's box in dimension p". Since the constraint was intersected
        // with the domain, the root is covered exactly where the
        // constraint equals the domain.
        let full: u64 =
            if self.domain.len() >= 64 { u64::MAX } else { (1u64 << self.domain.len()) - 1 };
        let mut resolved = 0u64;
        for (p, (&(lo, hi), &(clo, chi))) in bounds.iter().zip(constraint.iter()).enumerate() {
            if clo <= lo && hi <= chi {
                resolved |= 1u64 << p;
            }
        }
        self.mass_rec(0, self.slots.len() == 1, bounds, constraint, resolved, full)
    }

    /// The pruned walk; see the module docs for why both prunes are
    /// bit-identical to `SplitTree::mass_rec`.
    fn mass_rec(
        &self,
        i: usize,
        leaf: bool,
        bounds: &mut [(u32, u32)],
        constraint: &[(u32, u32)],
        resolved: u64,
        full: u64,
    ) -> f64 {
        let t = f64::from_bits(self.slots[i]);
        // lint:allow-next-line(float-cmp): exact-zero subtree prune (proof in module docs)
        if t == 0.0 {
            return 0.0;
        }
        if resolved == full {
            return t;
        }
        if leaf {
            // Verbatim leaf fraction loop from SplitTree::mass_rec; `t`
            // is the leaf frequency bit pattern (non-zero here).
            let mut fraction = 1.0;
            for (&(lo, hi), &(clo, chi)) in bounds.iter().zip(constraint) {
                let olo = lo.max(clo);
                let ohi = hi.min(chi);
                if olo > ohi {
                    return 0.0;
                }
                fraction *= (f64::from(ohi - olo) + 1.0) / (f64::from(hi - lo) + 1.0);
            }
            return t * fraction;
        }
        let word = self.slots[i + 1];
        let p = ((word >> POS_SHIFT) & POS_MASK) as usize;
        // lint:allow-next-line(as-narrowing): the low 32 bits are the split, see `pack`
        let split = word as u32;
        let (lo, hi) = bounds[p];
        let (clo, chi) = constraint[p];
        // Only dimension p changes on descent, so only bit p of the
        // containment mask needs recomputing per child.
        let base = resolved & !(1u64 << p);
        let mut mass = 0.0;
        if clo < split && lo < split {
            bounds[p] = (lo, split - 1);
            let r = base | (u64::from(clo <= lo && split - 1 <= chi) << p);
            mass += self.mass_rec(i + 2, word & LEFT_LEAF != 0, bounds, constraint, r, full);
        }
        if chi >= split && hi >= split {
            bounds[p] = (split, hi);
            let r = base | (u64::from(clo <= split && hi <= chi) << p);
            let right = i + (word >> RIGHT_SHIFT) as usize;
            mass += self.mass_rec(right, word & RIGHT_LEAF != 0, bounds, constraint, r, full);
        }
        bounds[p] = (lo, hi);
        mass
    }
}

/// Appends the subtree rooted at arena node `src` in preorder and returns
/// its total and whether it was emitted as a leaf. Leaf totals are
/// zero-normalized (`-0.0` → `+0.0`) so the slot doubles as the walk's
/// zero short-circuit; for non-zero leaves it *is* the frequency bit
/// pattern. Under `sparse`, a subtree whose total is `0.0` is truncated
/// back to one zero leaf. Returns `None` on a corrupt arena (a child not
/// after its parent, an uncovered split attribute) or a right-child
/// offset above `max_right`.
fn emit(
    tree: &SplitTree,
    slots: &mut Vec<u64>,
    sparse: bool,
    max_right: usize,
    src: u32,
) -> Option<(f64, bool)> {
    match tree.nodes().get(src as usize)? {
        Node::Leaf { freq } => {
            // lint:allow-next-line(float-cmp): exact-zero normalization mirrors mass_rec's short-circuit
            let total = if *freq == 0.0 { 0.0 } else { *freq };
            slots.push(total.to_bits());
            Some((total, true))
        }
        Node::Internal { attr, split, left, right } => {
            // Children sit later in the arena than their parent in
            // builder/codec output; anything else could cycle.
            if *left <= src || *right <= src {
                return None;
            }
            let here = slots.len();
            slots.extend([0, 0]);
            let (l, left_leaf) = emit(tree, slots, sparse, max_right, *left)?;
            let offset = slots.len() - here;
            let (r, right_leaf) = emit(tree, slots, sparse, max_right, *right)?;
            let total = l + r;
            // lint:allow-next-line(float-cmp): zero subtrees prune identically whatever their shape
            if sparse && total == 0.0 {
                slots.truncate(here);
                slots.push(0.0f64.to_bits());
                return Some((0.0, true));
            }
            let pos = tree.attrs().position(*attr)?;
            if offset > max_right {
                return None;
            }
            slots[here] = total.to_bits();
            slots[here + 1] = pack(*split, pos, offset, left_leaf, right_leaf);
            Some((total, false))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::BoundingBox;
    use crate::mhist::MhistBuilder;
    use crate::SplitCriterion;
    use dbhist_distribution::{Relation, Schema};

    fn skewed_tree(zero_fraction: u32) -> SplitTree {
        // 16x16 grid where only cells with x % zero_fraction == 0 carry mass.
        let schema = Schema::new(vec![("x", 16), ("y", 16)]).unwrap();
        let mut rows = Vec::new();
        for x in 0..16u32 {
            for y in 0..16u32 {
                if zero_fraction == 0 || x % zero_fraction == 0 {
                    for _ in 0..=(x + y) % 5 {
                        rows.push(vec![x, y]);
                    }
                }
            }
        }
        let rel = Relation::from_rows(schema, rows).unwrap();
        MhistBuilder::build(&rel.distribution(), 24, SplitCriterion::MaxDiff).unwrap()
    }

    /// Walks the preorder slots, returning `(leaves, internal nodes, the
    /// largest right-child offset)` — an independent decode of the layout.
    fn shape(index: &TreeIndex) -> (usize, usize, usize) {
        fn walk(slots: &[u64], i: usize, leaf: bool, acc: &mut (usize, usize, usize)) -> usize {
            if leaf {
                acc.0 += 1;
                return i + 1;
            }
            acc.1 += 1;
            let word = slots[i + 1];
            let right = walk(slots, i + 2, word & LEFT_LEAF != 0, acc);
            let offset = (word >> RIGHT_SHIFT) as usize;
            assert_eq!(right, i + offset, "right child follows the left subtree");
            acc.2 = acc.2.max(offset);
            walk(slots, right, word & RIGHT_LEAF != 0, acc)
        }
        let mut acc = (0, 0, 0);
        let end = walk(&index.slots, 0, index.slots.len() == 1, &mut acc);
        assert_eq!(end, index.slots.len(), "every slot belongs to one node");
        acc
    }

    /// Occupancy 1/5 (sparse): the left subtree and the right-right
    /// subtree are all-zero and collapse to one leaf each.
    fn collapsible_tree() -> SplitTree {
        let attrs = AttrSet::from_ids([0, 1]);
        let domain = BoundingBox::new(attrs.clone(), vec![(0, 7), (0, 7)]);
        let nodes = vec![
            Node::Internal { attr: 0, split: 4, left: 1, right: 4 },
            Node::Internal { attr: 1, split: 4, left: 2, right: 3 },
            Node::Leaf { freq: 0.0 },
            Node::Leaf { freq: 0.0 },
            Node::Internal { attr: 1, split: 2, left: 5, right: 6 },
            Node::Leaf { freq: 5.0 },
            Node::Internal { attr: 0, split: 6, left: 7, right: 8 },
            Node::Leaf { freq: 0.0 },
            Node::Leaf { freq: 0.0 },
        ];
        SplitTree::from_parts(attrs, domain, nodes)
    }

    fn boxes() -> Vec<Vec<(AttrId, u32, u32)>> {
        let mut out = vec![vec![]];
        for lo in [0u32, 3, 7, 15] {
            for hi in [0u32, 4, 9, 15] {
                out.push(vec![(0, lo, hi)]);
                out.push(vec![(1, lo, hi)]);
                out.push(vec![(0, lo, hi), (1, hi.min(12), 15)]);
                out.push(vec![(0, lo, hi), (1, 2, 5), (0, 1, 14)]);
            }
        }
        out.push(vec![(9, 0, 0)]); // uncovered attribute ignored
        out
    }

    #[test]
    fn dense_index_is_bit_identical_to_tree_walk() {
        let tree = skewed_tree(0);
        let index = TreeIndex::lower(&tree).unwrap();
        assert_eq!(index.layout(), IndexLayout::Dense);
        assert_eq!(index.total().to_bits(), {
            let mut b = Vec::new();
            let mut c = Vec::new();
            index.mass_in_box_with(&[], &mut b, &mut c).to_bits()
        });
        for q in boxes() {
            assert_eq!(
                tree.mass_in_box(&q).to_bits(),
                index.mass_in_box(&q).to_bits(),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn sparse_index_collapses_and_stays_bit_identical() {
        let tree = skewed_tree(8); // only x ∈ {0, 8} occupied
        let index = TreeIndex::lower(&tree).unwrap();
        assert!(index.occupancy() <= 1.0);
        if index.layout() == IndexLayout::Sparse {
            assert!(index.node_count() <= tree.nodes().len());
        }
        for q in boxes() {
            assert_eq!(
                tree.mass_in_box(&q).to_bits(),
                index.mass_in_box(&q).to_bits(),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn scratch_reuse_across_queries_changes_nothing() {
        let tree = skewed_tree(3);
        let index = TreeIndex::lower(&tree).unwrap();
        let mut bounds = Vec::new();
        let mut constraint = Vec::new();
        for q in boxes() {
            let fresh = index.mass_in_box(&q);
            let reused = index.mass_in_box_with(&q, &mut bounds, &mut constraint);
            assert_eq!(fresh.to_bits(), reused.to_bits());
            assert_eq!(tree.mass_in_box(&q).to_bits(), reused.to_bits());
        }
    }

    #[test]
    fn fully_contained_prune_returns_the_total() {
        let attrs = AttrSet::from_ids([0, 1]);
        let domain = BoundingBox::new(attrs.clone(), vec![(0, 7), (0, 7)]);
        let nodes = vec![
            Node::Internal { attr: 0, split: 4, left: 1, right: 2 },
            Node::Leaf { freq: 0.1 + 0.2 }, // deliberately inexact
            Node::Leaf { freq: 24.0 },
        ];
        let tree = SplitTree::from_parts(attrs, domain, nodes);
        let index = TreeIndex::lower(&tree).unwrap();
        let full = [(0u16, 0u32, 7u32), (1, 0, 7)];
        assert_eq!(tree.mass_in_box(&full).to_bits(), index.mass_in_box(&full).to_bits());
        assert_eq!(index.mass_in_box(&full).to_bits(), index.total().to_bits());
    }

    #[test]
    fn storage_bytes_counts_eight_per_leaf_and_sixteen_per_split() {
        let tree = collapsible_tree();
        let index = TreeIndex::lower(&tree).unwrap();
        assert_eq!(index.layout(), IndexLayout::Sparse);
        let (leaves, internal, _) = shape(&index);
        // Root and its right child survive; both zero subtrees collapse.
        assert_eq!((leaves, internal), (3, 2));
        assert_eq!(index.node_count(), leaves + internal);
        assert_eq!(index.storage_bytes(), 8 * leaves + 16 * internal);
        for q in boxes() {
            assert_eq!(tree.mass_in_box(&q).to_bits(), index.mass_in_box(&q).to_bits());
        }
        for zero_fraction in [0, 3, 8] {
            let index = TreeIndex::lower(&skewed_tree(zero_fraction)).unwrap();
            let (leaves, internal, _) = shape(&index);
            assert_eq!(index.node_count(), leaves + internal);
            assert_eq!(index.storage_bytes(), 8 * leaves + 16 * internal);
        }
    }

    #[test]
    fn offset_beyond_the_packed_word_does_not_lower() {
        let tree = skewed_tree(0);
        let (_, _, widest) = shape(&TreeIndex::lower(&tree).unwrap());
        assert!(widest > 3);
        assert!(TreeIndex::lower_within(&tree, widest).is_some());
        assert!(TreeIndex::lower_within(&tree, widest - 1).is_none());
    }

    #[test]
    fn packed_word_fields_round_trip_at_their_limits() {
        assert_eq!(pack(0, 0, 0, false, false), 0);
        let word = pack(u32::MAX, 63, MAX_RIGHT_OFFSET, true, false);
        assert_eq!(word as u32, u32::MAX);
        assert_eq!((word >> POS_SHIFT) & POS_MASK, 63);
        assert_eq!((word & LEFT_LEAF, word & RIGHT_LEAF), (LEFT_LEAF, 0));
        assert_eq!((word >> RIGHT_SHIFT) as usize, MAX_RIGHT_OFFSET);
        assert_eq!(pack(7, 1, 2, false, true) & !RIGHT_LEAF, pack(7, 1, 2, false, false));
    }
}
