//! Axis-aligned bounding boxes over attribute subsets.
//!
//! Histogram buckets are hyper-rectangles over integer-coded attribute
//! domains. A [`BoundingBox`] pairs an [`AttrSet`] with an inclusive
//! `(lo, hi)` range per attribute (in the set's ascending order) and
//! provides the geometry every operator needs: volume, intersection,
//! containment, and overlap fractions for the intra-bucket uniformity
//! assumption.

use dbhist_distribution::{AttrId, AttrSet};

/// An axis-aligned box: one inclusive integer range per attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BoundingBox {
    attrs: AttrSet,
    /// `(lo, hi)` inclusive, aligned with `attrs` in ascending order.
    ranges: Vec<(u32, u32)>,
}

impl BoundingBox {
    /// Creates a box from aligned ranges.
    ///
    /// # Panics
    ///
    /// Panics if `ranges` is not aligned with `attrs` or any range is
    /// inverted.
    #[must_use]
    pub fn new(attrs: AttrSet, ranges: Vec<(u32, u32)>) -> Self {
        assert_eq!(attrs.len(), ranges.len(), "ranges must align with attrs");
        assert!(ranges.iter().all(|&(lo, hi)| lo <= hi), "inverted range");
        Self { attrs, ranges }
    }

    /// The attributes the box constrains.
    #[must_use]
    pub fn attrs(&self) -> &AttrSet {
        &self.attrs
    }

    /// The range of attribute `a`, if the box constrains it.
    #[must_use]
    pub fn range(&self, a: AttrId) -> Option<(u32, u32)> {
        self.attrs.position(a).map(|p| self.ranges[p])
    }

    /// The aligned ranges slice.
    #[must_use]
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }

    /// Mutably narrows the range of attribute `a` to the intersection with
    /// `(lo, hi)`. Returns `false` (leaving the box unchanged) if the
    /// intersection is empty or the attribute is not constrained.
    pub fn clamp(&mut self, a: AttrId, lo: u32, hi: u32) -> bool {
        let Some(p) = self.attrs.position(a) else {
            return false;
        };
        let (cur_lo, cur_hi) = self.ranges[p];
        let (new_lo, new_hi) = (cur_lo.max(lo), cur_hi.min(hi));
        if new_lo > new_hi {
            return false;
        }
        self.ranges[p] = (new_lo, new_hi);
        true
    }

    /// The two halves of the box cut by a split of `a` at `split`: values
    /// `< split` and values `≥ split`. `None` unless the split lies
    /// strictly inside the box, so that both halves are non-empty.
    pub(crate) fn halves(&self, a: AttrId, split: u32) -> Option<(BoundingBox, BoundingBox)> {
        let p = self.attrs.position(a)?;
        let (lo, hi) = self.ranges[p];
        if split <= lo || split > hi {
            return None;
        }
        let (mut left, mut right) = (self.clone(), self.clone());
        left.ranges[p] = (lo, split - 1);
        right.ranges[p] = (split, hi);
        Some((left, right))
    }

    /// The volumes of [`BoundingBox::halves`]`(a, split)` without building
    /// the halves: each is the same saturating product `volume` takes.
    pub(crate) fn halves_volumes(&self, a: AttrId, split: u32) -> Option<[u64; 2]> {
        let p = self.attrs.position(a)?;
        let (lo, hi) = self.ranges[p];
        if split <= lo || split > hi {
            return None;
        }
        let volume = |cut: (u32, u32)| {
            let ranges = self.ranges.iter().enumerate();
            ranges
                .map(|(i, &range)| if i == p { cut } else { range })
                .map(|(lo, hi)| u64::from(hi - lo) + 1)
                .fold(1u64, u64::saturating_mul)
        };
        Some([volume((lo, split - 1)), volume((split, hi))])
    }

    /// Number of integer points in the box (`Π (hi − lo + 1)`), saturating.
    #[must_use]
    pub fn volume(&self) -> u64 {
        self.ranges.iter().map(|&(lo, hi)| u64::from(hi - lo) + 1).fold(1u64, u64::saturating_mul)
    }

    /// Volume restricted to the attributes in `sub` (unconstrained
    /// attributes contribute factor 1).
    #[must_use]
    pub fn volume_over(&self, sub: &AttrSet) -> u64 {
        self.attrs
            .iter()
            .zip(&self.ranges)
            .filter(|(a, _)| sub.contains(*a))
            .map(|(_, &(lo, hi))| u64::from(hi - lo) + 1)
            .fold(1u64, u64::saturating_mul)
    }

    /// `true` if the point (aligned with this box's attrs) lies inside.
    #[must_use]
    pub fn contains_point(&self, point: &[u32]) -> bool {
        debug_assert_eq!(point.len(), self.ranges.len());
        point.iter().zip(&self.ranges).all(|(&v, &(lo, hi))| v >= lo && v <= hi)
    }

    /// `true` if `other`'s ranges (over *shared* attributes) contain this
    /// box's ranges; attributes not shared are ignored.
    #[must_use]
    pub fn contained_in_along_shared(&self, other: &BoundingBox) -> bool {
        for (a, &(lo, hi)) in self.attrs.iter().zip(&self.ranges) {
            if let Some((olo, ohi)) = other.range(a) {
                if lo < olo || hi > ohi {
                    return false;
                }
            }
        }
        true
    }

    /// The fraction of this box's volume that overlaps the conjunctive
    /// constraints `ranges` (attributes absent from the box are ignored;
    /// multiple constraints on one attribute intersect). Returns a value
    /// in `[0, 1]` — the uniformity weight of the paper's estimators.
    #[must_use]
    pub fn overlap_fraction(&self, ranges: &[(AttrId, u32, u32)]) -> f64 {
        let mut fraction = 1.0;
        for (a, &(lo, hi)) in self.attrs.iter().zip(&self.ranges) {
            let len = f64::from(hi - lo) + 1.0;
            let mut cur = (lo, hi);
            for &(ra, rlo, rhi) in ranges {
                if ra == a {
                    cur = (cur.0.max(rlo), cur.1.min(rhi));
                    if cur.0 > cur.1 {
                        return 0.0;
                    }
                }
            }
            let overlap = f64::from(cur.1 - cur.0) + 1.0;
            fraction *= overlap / len;
        }
        fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bx(ids: &[AttrId], ranges: &[(u32, u32)]) -> BoundingBox {
        BoundingBox::new(AttrSet::from_ids(ids.iter().copied()), ranges.to_vec())
    }

    #[test]
    fn volume_and_projected_volume() {
        let b = bx(&[0, 2], &[(0, 3), (5, 9)]);
        assert_eq!(b.volume(), 20);
        assert_eq!(b.volume_over(&AttrSet::singleton(0)), 4);
        assert_eq!(b.volume_over(&AttrSet::singleton(2)), 5);
        assert_eq!(b.volume_over(&AttrSet::singleton(7)), 1);
    }

    #[test]
    fn clamp_narrows_and_detects_empty() {
        let mut b = bx(&[0, 1], &[(0, 9), (0, 9)]);
        assert!(b.clamp(0, 3, 20));
        assert_eq!(b.range(0), Some((3, 9)));
        assert!(!b.clamp(0, 15, 20), "empty intersection refused");
        assert_eq!(b.range(0), Some((3, 9)), "box unchanged on failure");
        assert!(!b.clamp(5, 0, 1), "unknown attribute refused");
    }

    #[test]
    fn point_containment() {
        let b = bx(&[0, 1], &[(2, 4), (0, 1)]);
        assert!(b.contains_point(&[3, 1]));
        assert!(!b.contains_point(&[5, 0]));
        assert!(!b.contains_point(&[2, 2]));
    }

    #[test]
    fn shared_containment_ignores_missing_attrs() {
        let inner = bx(&[0, 1], &[(2, 3), (0, 0)]);
        let outer = bx(&[0, 5], &[(0, 9), (7, 8)]);
        assert!(inner.contained_in_along_shared(&outer));
        let tight = bx(&[0], &[(3, 3)]);
        assert!(!inner.contained_in_along_shared(&tight));
    }

    #[test]
    fn overlap_fraction_uniformity() {
        let b = bx(&[0, 1], &[(0, 9), (0, 3)]);
        // Half of dim 0, all of dim 1.
        assert!((b.overlap_fraction(&[(0, 0, 4)]) - 0.5).abs() < 1e-12);
        // Quarter of dim 1 only.
        assert!((b.overlap_fraction(&[(1, 2, 2)]) - 0.25).abs() < 1e-12);
        // Conjunction multiplies; constraints on absent attrs are ignored.
        let f = b.overlap_fraction(&[(0, 0, 4), (1, 2, 2), (9, 0, 0)]);
        assert!((f - 0.125).abs() < 1e-12);
        // Disjoint constraint zeroes out.
        assert_eq!(b.overlap_fraction(&[(0, 50, 60)]), 0.0);
        // Two constraints on one attribute intersect.
        assert!((b.overlap_fraction(&[(0, 0, 6), (0, 4, 9)]) - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "inverted range")]
    fn inverted_range_rejected() {
        let _ = bx(&[0], &[(5, 2)]);
    }
}
