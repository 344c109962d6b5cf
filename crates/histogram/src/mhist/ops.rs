//! MHIST operators on split trees (paper §3.3.2, Figs. 4 & 5).
//!
//! Both `project` and `product` work *solely on the split-tree
//! representation* of their inputs and output, the paper's headline
//! implementation contribution. Each is one walk over its operands' node
//! arenas that pushes the output's nodes straight into the result's arena
//! in preorder, as [`TreeIndex::lower`](super::TreeIndex::lower) does:
//! an [`Emitter`] holds the arena and the box of the node being emitted,
//! computes a leaf's frequency when it pushes the leaf, and on the way
//! out of a split whose two children are zero leaves collapses the split
//! into one zero leaf. A zero bucket estimates zero over every sub-box,
//! so the collapse preserves every estimate, and it keeps the products of
//! sparse operands (whose empty regions multiply into zero forests) small.
//!
//! The paper's `restrictNode(N, R)` (prune a subtree to the splits that
//! cut the range restriction `R`) is the walk's rule for an operand
//! split: it is emitted if it cuts the emitted box and pruned to the side
//! holding the box if it does not.
//!
//! * `project` (Fig. 4): the output reflects every split along the kept
//!   attributes. The walk keeps a list of source subtrees still to lay
//!   out in the current box. A split on a dropped attribute continues
//!   with its left subtree and queues its right one, and a leaf continues
//!   with the next queued subtree (Fig. 4's `genSplits`, which overlays a
//!   dropped split's right structure onto every leaf of its left one).
//!   The queue is a persistent list, so both sides of an emitted split
//!   share it, and the walk recurses only at emitted splits. Each output
//!   bucket's frequency (Fig. 4 step 3) is the uniformity-weighted mass
//!   `Σ w_l'·frequency(l')` of the source inside it.
//! * `product` (Fig. 5): the walk lays out the left operand's arena and,
//!   at each of its non-zero buckets, the right operand's arena
//!   restricted to that bucket. Each output bucket lies inside one bucket
//!   of each operand, so the separation formula
//!   `(w_i f_i)(w_j f_j)/(w_ij f_ij)` (step 10) takes the operand terms in
//!   O(1) from those buckets' frequencies and volumes, and the separator
//!   term from a mass query on `H(S_ij)` (generalizing the paper's
//!   formula to output buckets that straddle several separator buckets).
//!   A node budget bounds the walk: one unit per left node and per right
//!   node visited (pruned ones included), checked before the zero-bucket
//!   shortcut. Once it is spent, each remaining region becomes one coarse
//!   bucket whose operand terms are mass queries too.

use dbhist_distribution::{AttrId, AttrSet};

use crate::bbox::BoundingBox;
use crate::error::HistogramError;

use super::{Node, NodeId, SplitTree};

/// Upper bound on the number of structural nodes a single `product` may
/// materialize. Chained products over many cliques grow multiplicatively;
/// past this budget the remaining regions collapse into coarse buckets
/// (estimates stay uniformity-consistent, resolution degrades gracefully,
/// and memory stays bounded).
const PRODUCT_NODE_BUDGET: usize = 1 << 18;

impl SplitTree {
    /// Projects the histogram onto `attrs ⊂ self.attrs()` (paper Fig. 4):
    /// the output split tree reflects every split along the kept
    /// dimensions, and each output bucket's frequency is the
    /// uniformity-weighted mass of the input inside it.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::NotASubset`] if `attrs` is not a subset of
    /// the histogram's attributes, or [`HistogramError::InvalidRequest`]
    /// for an empty target set.
    pub fn project(&self, attrs: &AttrSet) -> Result<SplitTree, HistogramError> {
        if attrs.is_empty() {
            return Err(HistogramError::InvalidRequest {
                reason: "cannot project onto the empty attribute set".into(),
            });
        }
        if let Some(missing) = attrs.iter().find(|&a| !self.attrs().contains(a)) {
            return Err(HistogramError::NotASubset { missing });
        }
        if attrs == self.attrs() {
            return Ok(self.clone());
        }
        let mut out = Emitter::new(sub_box(self.domain(), attrs));
        self.project_into(&mut out, &mut Vec::new(), 0, usize::MAX);
        Ok(out.finish())
    }

    /// Lays out source subtree `head`, then the queued subtrees from
    /// `queue[next]` on, in the emitter's current box. Each entry holds a
    /// subtree and the index of the entry after it; an index past the
    /// queue's end (`usize::MAX`) ends the list.
    fn project_into(
        &self,
        out: &mut Emitter,
        queue: &mut Vec<(NodeId, usize)>,
        mut head: NodeId,
        mut next: usize,
    ) {
        loop {
            match &self.nodes()[head as usize] {
                Node::Leaf { .. } => match queue.get(next) {
                    Some(&entry) => (head, next) = entry,
                    None => return out.leaf(|out| out.mass(self)),
                },
                Node::Internal { attr, split, left, right } => match out.range(*attr) {
                    None => {
                        queue.push((*right, next));
                        (head, next) = (*left, queue.len() - 1);
                    }
                    Some((_, hi)) if hi < *split => head = *left,
                    Some((lo, _)) if lo >= *split => head = *right,
                    Some(_) => {
                        let mark = queue.len();
                        return out.split(*attr, *split, [*left, *right], |out, child| {
                            self.project_into(out, queue, child, next);
                            queue.truncate(mark);
                        });
                    }
                },
            }
        }
    }

    /// Multiplies two clique histograms into a histogram over the union of
    /// their attributes (paper Fig. 5), using the separation formula
    /// `f_{Ci ∪ Cj} = f_{Ci} · f_{Cj} / f_{Ci ∩ Cj}`.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::IncompatibleOperands`] if the operands
    /// disagree on a shared attribute's domain.
    pub fn product(&self, other: &SplitTree) -> Result<SplitTree, HistogramError> {
        let shared = self.attrs().intersection(other.attrs());
        for a in shared.iter() {
            if self.domain().range(a) != other.domain().range(a) {
                return Err(HistogramError::IncompatibleOperands {
                    reason: format!("attribute {a} has different domains in the operands"),
                });
            }
        }
        let union = self.attrs().union(other.attrs());
        // Union domain box: every union attribute has a range in at least
        // one operand by construction; a miss means corrupt operands.
        let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(union.len());
        for a in union.iter() {
            let Some(r) = self.domain().range(a).or_else(|| other.domain().range(a)) else {
                return Err(HistogramError::IncompatibleOperands {
                    reason: format!("attribute {a} missing from both operand domains"),
                });
            };
            ranges.push(r);
        }
        let mut right_volumes = vec![0.0; other.nodes().len()];
        other.visit_leaves(0, other.domain().clone(), &mut |id, bbox, _| {
            right_volumes[id as usize] = bbox.volume() as f64;
        });
        let mut product = Product {
            left: self,
            right: other,
            // Step 6: the separator histogram H(S_ij) = project(H(C_i), S_ij).
            separator: if shared.is_empty() { None } else { Some(self.project(&shared)?) },
            right_volumes,
            budget: PRODUCT_NODE_BUDGET as isize,
        };
        let mut out = Emitter::new(BoundingBox::new(union, ranges));
        product.left_walk(&mut out, 0);
        Ok(out.finish())
    }
}

/// Restricts `domain` to the attributes in `attrs`. Attributes absent
/// from `domain` — excluded by the callers' subset checks — are dropped
/// rather than invented.
fn sub_box(domain: &BoundingBox, attrs: &AttrSet) -> BoundingBox {
    let mut kept = AttrSet::empty();
    let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(attrs.len());
    for a in attrs.iter() {
        if let Some(r) = domain.range(a) {
            kept = kept.with(a);
            ranges.push(r);
        }
    }
    BoundingBox::new(kept, ranges)
}

/// The output arena under construction, with the box of the node being
/// emitted and the scratch of its mass queries.
struct Emitter {
    domain: BoundingBox,
    /// The current node's box, aligned with `domain`'s attributes.
    bbox: Vec<(u32, u32)>,
    nodes: Vec<Node>,
    bounds: Vec<(u32, u32)>,
    constraint: Vec<(u32, u32)>,
}

impl Emitter {
    fn new(domain: BoundingBox) -> Self {
        let bbox = domain.ranges().to_vec();
        Self { domain, bbox, nodes: Vec::new(), bounds: Vec::new(), constraint: Vec::new() }
    }

    /// The current box's range of `attr`, if the output covers it.
    fn range(&self, attr: AttrId) -> Option<(u32, u32)> {
        self.domain.attrs().position(attr).map(|p| self.bbox[p])
    }

    /// Volume of the current box over the attributes in `sub`, as
    /// [`BoundingBox::volume_over`] computes it.
    fn volume_over(&self, sub: &AttrSet) -> f64 {
        let attrs = self.domain.attrs().iter().zip(&self.bbox);
        let sides =
            attrs.filter(|(a, _)| sub.contains(*a)).map(|(_, &(lo, hi))| u64::from(hi - lo) + 1);
        sides.fold(1u64, u64::saturating_mul) as f64
    }

    /// `tree`'s mass inside the current box.
    fn mass(&mut self, tree: &SplitTree) -> f64 {
        let ranges = self.domain.attrs().iter().zip(&self.bbox).map(|(a, &(lo, hi))| (a, lo, hi));
        tree.mass_within(ranges, &mut self.bounds, &mut self.constraint)
    }

    /// Pushes a leaf whose frequency `freq` computes from the current box.
    fn leaf(&mut self, freq: impl FnOnce(&mut Self) -> f64) {
        let freq = freq(self);
        self.nodes.push(Node::Leaf { freq });
    }

    /// Emits a split of the current box at `attr = split`: `child` lays
    /// out each of `children` in its half, and a split whose two children
    /// came out as zero leaves collapses into one zero leaf.
    fn split(
        &mut self,
        attr: AttrId,
        split: u32,
        children: [NodeId; 2],
        mut child: impl FnMut(&mut Self, NodeId),
    ) {
        let id = self.nodes.len();
        // The placeholder doubles as the collapsed zero leaf.
        self.nodes.push(Node::Leaf { freq: 0.0 });
        // Operand splits lie on covered attributes; a corrupt one
        // contributes a zero leaf rather than abort.
        let Some(p) = self.domain.attrs().position(attr) else {
            return;
        };
        let (lo, hi) = self.bbox[p];
        self.bbox[p] = (lo, split.saturating_sub(1));
        child(self, children[0]);
        let right = self.nodes.len();
        self.bbox[p] = (split, hi);
        child(self, children[1]);
        self.bbox[p] = (lo, hi);
        // lint:allow-next-line(float-cmp): collapse only literally-zero leaves
        let zero = |n: &Node| matches!(n, Node::Leaf { freq } if *freq == 0.0);
        if self.nodes.len() == id + 3 && zero(&self.nodes[id + 1]) && zero(&self.nodes[id + 2]) {
            self.nodes.truncate(id + 1);
        } else {
            let (left, right) = (id as NodeId + 1, right as NodeId);
            self.nodes[id] = Node::Internal { attr, split, left, right };
        }
    }

    fn finish(self) -> SplitTree {
        SplitTree::from_parts(self.domain.attrs().clone(), self.domain, self.nodes)
    }
}

/// The operands and running budget of one `product`.
struct Product<'a> {
    left: &'a SplitTree,
    right: &'a SplitTree,
    separator: Option<SplitTree>,
    /// The right operand's bucket volumes by arena id.
    right_volumes: Vec<f64>,
    budget: isize,
}

impl Product<'_> {
    /// Product steps 1–5: lays out the left operand's subtree at `node`
    /// and, at each of its buckets, the right operand restricted to it.
    fn left_walk(&mut self, out: &mut Emitter, node: NodeId) {
        self.budget -= 1;
        match &self.left.nodes()[node as usize] {
            _ if self.budget <= 0 => out.leaf(|out| self.coarse(out)),
            // A zero bucket zeroes its whole region; the right operand's
            // structure is not laid out inside it.
            // lint:allow-next-line(float-cmp): exact zero marks a trimmed empty region
            Node::Leaf { freq } if *freq == 0.0 => out.leaf(|_| 0.0),
            Node::Leaf { freq } => {
                let bucket = (*freq, out.volume_over(self.left.attrs()));
                self.right_walk(out, 0, bucket);
            }
            Node::Internal { attr, split, left, right } => {
                out.split(*attr, *split, [*left, *right], |out, child| self.left_walk(out, child));
            }
        }
    }

    /// Lays out the right operand's subtree at `node`, restricted to the
    /// current box, inside the left bucket `(frequency, volume)`.
    fn right_walk(&mut self, out: &mut Emitter, node: NodeId, bucket: (f64, f64)) {
        self.budget -= 1;
        if self.budget <= 0 {
            return out.leaf(|out| self.coarse(out));
        }
        match &self.right.nodes()[node as usize] {
            Node::Leaf { freq } => out.leaf(|out| {
                // Steps 7–11 with the operand terms from the two buckets.
                let wi_fi = bucket.0 * out.volume_over(self.left.attrs()) / bucket.1;
                let wj_fj =
                    freq * out.volume_over(self.right.attrs()) / self.right_volumes[node as usize];
                self.separate(out, wi_fi, wj_fj)
            }),
            Node::Internal { attr, split, left, right } => match out.range(*attr) {
                Some((_, hi)) if hi < *split => self.right_walk(out, *left, bucket),
                Some((lo, _)) if lo >= *split => self.right_walk(out, *right, bucket),
                _ => out.split(*attr, *split, [*left, *right], |out, child| {
                    self.right_walk(out, child, bucket);
                }),
            },
        }
    }

    /// A bucket past the budget, which may span several buckets of each
    /// operand: its operand terms are mass queries.
    fn coarse(&self, out: &mut Emitter) -> f64 {
        let (wi_fi, wj_fj) = (out.mass(self.left), out.mass(self.right));
        self.separate(out, wi_fi, wj_fj)
    }

    /// The separation formula with the separator term a mass query
    /// (exactly `w_ij · f_ij` when the bucket sits in one separator
    /// bucket, the consistent generalization otherwise).
    fn separate(&self, out: &mut Emitter, wi_fi: f64, wj_fj: f64) -> f64 {
        // lint:allow-next-line(float-cmp): exact multiplicative zero short-circuit
        if wi_fi == 0.0 || wj_fj == 0.0 {
            return 0.0;
        }
        let fsep = match &self.separator {
            Some(sep) => out.mass(sep),
            None => self.left.total(),
        };
        if fsep <= 0.0 {
            0.0
        } else {
            wi_fi * wj_fj / fsep
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criterion::SplitCriterion;
    use crate::mhist::tests::grid_relation;
    use crate::mhist::MhistBuilder;
    use dbhist_distribution::{Relation, Schema};

    #[test]
    fn project_conserves_mass() {
        let dist = grid_relation().distribution();
        let tree = MhistBuilder::build(&dist, 12, SplitCriterion::MaxDiff).unwrap();
        for target in [AttrSet::singleton(0), AttrSet::singleton(1)] {
            let p = tree.project(&target).unwrap();
            assert_eq!(p.attrs(), &target);
            assert!((p.total() - tree.total()).abs() < 1e-6, "mass conserved");
            assert!(p.validate().is_ok());
        }
    }

    #[test]
    fn project_identity_and_errors() {
        let dist = grid_relation().distribution();
        let tree = MhistBuilder::build(&dist, 6, SplitCriterion::MaxDiff).unwrap();
        let same = tree.project(&AttrSet::from_ids([0, 1])).unwrap();
        assert_eq!(same.bucket_count(), tree.bucket_count());
        assert!(tree.project(&AttrSet::empty()).is_err());
        assert!(matches!(
            tree.project(&AttrSet::singleton(9)),
            Err(HistogramError::NotASubset { missing: 9 })
        ));
    }

    #[test]
    fn project_reflects_all_kept_splits() {
        // The paper's motivating example: splits on X at different values in
        // different buckets must all appear in the projection onto X.
        let dist = grid_relation().distribution();
        let tree = MhistBuilder::build(&dist, 16, SplitCriterion::MaxDiff).unwrap();
        let p = tree.project(&AttrSet::singleton(0)).unwrap();
        // Collect distinct split boundaries of the source along attr 0.
        let mut source_bounds: Vec<u32> =
            tree.leaves().iter().map(|(b, _)| b.range(0).unwrap().0).filter(|&lo| lo > 0).collect();
        source_bounds.sort_unstable();
        source_bounds.dedup();
        let mut proj_bounds: Vec<u32> =
            p.leaves().iter().map(|(b, _)| b.range(0).unwrap().0).filter(|&lo| lo > 0).collect();
        proj_bounds.sort_unstable();
        proj_bounds.dedup();
        assert_eq!(source_bounds, proj_bounds);
    }

    #[test]
    fn project_matches_direct_estimate() {
        // Projection then estimation must agree with estimating on the
        // source with the same (marginal) ranges.
        let dist = grid_relation().distribution();
        let tree = MhistBuilder::build(&dist, 20, SplitCriterion::MaxDiff).unwrap();
        let p = tree.project(&AttrSet::singleton(1)).unwrap();
        for lo in 0..8u32 {
            for hi in lo..8u32 {
                let direct = tree.mass_in_box(&[(1, lo, hi)]);
                let projected = p.mass_in_box(&[(1, lo, hi)]);
                assert!(
                    (direct - projected).abs() < 1e-6,
                    "range [{lo},{hi}]: {direct} vs {projected}"
                );
            }
        }
    }

    /// Builds split trees over two overlapping marginals of a 3-attribute
    /// relation where (a ⊥ c | b) holds by construction.
    fn conditional_pair() -> (SplitTree, SplitTree, Relation) {
        let schema = Schema::new(vec![("a", 6), ("b", 4), ("c", 6)]).unwrap();
        let mut rows = Vec::new();
        // a depends on b, c depends on b, a ⊥ c given b.
        for b in 0..4u32 {
            for a in 0..6u32 {
                for c in 0..6u32 {
                    let fa = if a % 4 == b { 3 } else { 1 };
                    let fc = if c % 4 == b { 2 } else { 1 };
                    for _ in 0..fa * fc {
                        rows.push(vec![a, b, c]);
                    }
                }
            }
        }
        let rel = Relation::from_rows(schema, rows).unwrap();
        let ab = rel.marginal(&AttrSet::from_ids([0, 1])).unwrap();
        let bc = rel.marginal(&AttrSet::from_ids([1, 2])).unwrap();
        let hab = MhistBuilder::build(&ab, 24, SplitCriterion::MaxDiff).unwrap();
        let hbc = MhistBuilder::build(&bc, 24, SplitCriterion::MaxDiff).unwrap();
        (hab, hbc, rel)
    }

    #[test]
    fn product_covers_union_and_conserves_mass() {
        let (hab, hbc, rel) = conditional_pair();
        let prod = hab.product(&hbc).unwrap();
        assert_eq!(prod.attrs(), &AttrSet::from_ids([0, 1, 2]));
        assert!(prod.validate().is_ok());
        let n = rel.row_count() as f64;
        assert!((prod.total() - n).abs() / n < 0.02, "product total {} vs N {n}", prod.total());
    }

    #[test]
    fn product_with_saturated_histograms_is_exact() {
        // With enough buckets both marginals are exact, so the product must
        // reproduce the conditional-independence estimate exactly.
        let (_, _, rel) = conditional_pair();
        let ab = rel.marginal(&AttrSet::from_ids([0, 1])).unwrap();
        let bc = rel.marginal(&AttrSet::from_ids([1, 2])).unwrap();
        let hab = MhistBuilder::build(&ab, 10_000, SplitCriterion::MaxDiff).unwrap();
        let hbc = MhistBuilder::build(&bc, 10_000, SplitCriterion::MaxDiff).unwrap();
        let prod = hab.product(&hbc).unwrap();
        let b_marg = rel.marginal(&AttrSet::singleton(1)).unwrap();
        for a in 0..6u32 {
            for b in 0..4u32 {
                for c in 0..6u32 {
                    let expect =
                        ab.frequency(&[a, b]) * bc.frequency(&[b, c]) / b_marg.frequency(&[b]);
                    let got = prod.mass_in_box(&[(0, a, a), (1, b, b), (2, c, c)]);
                    assert!((got - expect).abs() < 1e-6, "cell ({a},{b},{c}): {got} vs {expect}");
                }
            }
        }
    }

    #[test]
    fn product_disjoint_attrs_is_independence() {
        // Disjoint attribute sets: empty separator, f = f1 · f2 / N.
        let schema = Schema::new(vec![("x", 4), ("y", 4)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..160u32).map(|i| vec![i % 4, (i * 3) % 4]).collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let hx = MhistBuilder::build(
            &rel.marginal(&AttrSet::singleton(0)).unwrap(),
            4,
            SplitCriterion::MaxDiff,
        )
        .unwrap();
        let hy = MhistBuilder::build(
            &rel.marginal(&AttrSet::singleton(1)).unwrap(),
            4,
            SplitCriterion::MaxDiff,
        )
        .unwrap();
        let prod = hx.product(&hy).unwrap();
        for x in 0..4u32 {
            for y in 0..4u32 {
                let expect = 40.0 * 40.0 / 160.0;
                let got = prod.mass_in_box(&[(0, x, x), (1, y, y)]);
                assert!((got - expect).abs() < 1e-9);
            }
        }
        assert!((prod.total() - 160.0).abs() < 1e-9);
    }

    #[test]
    fn product_rejects_incompatible_domains() {
        let s1 = Schema::new(vec![("x", 4)]).unwrap();
        let s2 = Schema::new(vec![("x", 8)]).unwrap();
        let r1 =
            Relation::from_rows(s1, (0..16u32).map(|i| vec![i % 4]).collect::<Vec<_>>()).unwrap();
        let r2 =
            Relation::from_rows(s2, (0..16u32).map(|i| vec![i % 8]).collect::<Vec<_>>()).unwrap();
        let h1 = MhistBuilder::build(&r1.distribution(), 2, SplitCriterion::MaxDiff).unwrap();
        let h2 = MhistBuilder::build(&r2.distribution(), 2, SplitCriterion::MaxDiff).unwrap();
        assert!(matches!(h1.product(&h2), Err(HistogramError::IncompatibleOperands { .. })));
    }

    #[test]
    fn product_then_project_roundtrip() {
        // Projecting a product back onto one operand's attrs approximates
        // that operand (exactly, for consistent marginals of the same data).
        let (hab, hbc, _) = conditional_pair();
        let prod = hab.product(&hbc).unwrap();
        let back = prod.project(&AttrSet::from_ids([0, 1])).unwrap();
        // Totals agree with the original marginal histogram's.
        assert!((back.total() - hab.total()).abs() / hab.total() < 0.02);
    }

    #[test]
    fn product_matches_slow_mass_formula() {
        // The O(1)-per-leaf fast path must agree with evaluating the
        // separation formula through mass queries on the operands.
        let (hab, hbc, _) = conditional_pair();
        let sep = hab.project(&AttrSet::singleton(1)).unwrap();
        let prod = hab.product(&hbc).unwrap();
        for (bbox, freq) in prod.leaves() {
            let fi = hab.mass_in_bounding_box(&bbox);
            let fj = hbc.mass_in_bounding_box(&bbox);
            let fs = sep.mass_in_bounding_box(&bbox);
            let expect = if fs <= 0.0 { 0.0 } else { fi * fj / fs };
            assert!(
                (freq - expect).abs() < 1e-6 * (1.0 + expect),
                "box {bbox:?}: {freq} vs {expect}"
            );
        }
    }
}
