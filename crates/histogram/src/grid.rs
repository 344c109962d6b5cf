//! Grid histograms (paper §3.2).
//!
//! A [`GridHistogram`] generalizes `p × q` rectangular array partitionings
//! to arbitrary dimensionality: each dimension carries a list of interior
//! boundaries and the buckets form the full cartesian grid of the per-dim
//! cells. Construction greedily partitions *the entire data distribution*
//! along the dimension most in need of partitioning; note that one split
//! therefore introduces a whole slab of new buckets (the paper points out
//! the resulting "piecewise constant" error curves in the space-allocation
//! discussion).
//!
//! The projection and multiplication operators are straightforward on this
//! representation — the paper's stated reason for including grid
//! histograms in the study — and serve as an independent cross-check of
//! the split-tree operators.

use dbhist_distribution::{AttrId, AttrSet, Distribution};

use crate::bbox::BoundingBox;
use crate::criterion::{best_split_bounded, SplitCriterion};
use crate::error::HistogramError;

/// A multi-dimensional rectangular-grid histogram.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct GridHistogram {
    attrs: AttrSet,
    domain: BoundingBox,
    /// Per-attribute sorted interior boundaries: boundary `b` separates
    /// values `< b` from values `≥ b`.
    boundaries: Vec<Vec<u32>>,
    /// Row-major bucket frequencies over the per-dimension cell grid.
    freqs: Vec<f64>,
    total: f64,
}

impl GridHistogram {
    /// The attributes the histogram covers.
    #[must_use]
    pub fn attrs(&self) -> &AttrSet {
        &self.attrs
    }

    /// The full-domain bounding box.
    #[must_use]
    pub fn domain(&self) -> &BoundingBox {
        &self.domain
    }

    /// Total frequency mass.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of buckets (`Π_d (boundaries_d + 1)`).
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.freqs.len()
    }

    /// Per-attribute interior boundary lists (snapshot codec).
    pub(crate) fn boundaries(&self) -> &[Vec<u32>] {
        &self.boundaries
    }

    /// Row-major bucket frequencies (snapshot codec).
    pub(crate) fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Reassembles a grid histogram from snapshot parts, storing the
    /// cached total verbatim for bit-exact round trips. Unlike the other
    /// constructors — whose inputs are valid by construction — this one
    /// fully validates shape and values, since snapshot bytes are of
    /// unknown provenance.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::Codec`] if the parts violate any grid
    /// invariant.
    pub(crate) fn from_parts_with_total(
        attrs: AttrSet,
        domain: BoundingBox,
        boundaries: Vec<Vec<u32>>,
        freqs: Vec<f64>,
        total: f64,
    ) -> Result<Self, HistogramError> {
        let codec = |reason: String| HistogramError::Codec { reason };
        if domain.attrs() != &attrs || boundaries.len() != attrs.len() {
            return Err(codec("grid parts are not aligned with the attribute set".into()));
        }
        for (p, bs) in boundaries.iter().enumerate() {
            let (dlo, dhi) = domain.ranges()[p];
            if !bs.windows(2).all(|w| w[0] < w[1]) {
                return Err(codec(format!("dimension {p} boundaries are not strictly ascending")));
            }
            if bs.iter().any(|&b| b <= dlo || b > dhi) {
                return Err(codec(format!("dimension {p} has a boundary outside its domain")));
            }
        }
        let cells: usize = boundaries.iter().map(|b| b.len() + 1).product();
        if freqs.len() != cells {
            return Err(codec(format!("{} frequencies for a {cells}-cell grid", freqs.len())));
        }
        if freqs.iter().any(|f| !f.is_finite() || *f < 0.0) || !total.is_finite() {
            return Err(codec("grid frequencies must be finite and non-negative".into()));
        }
        Ok(Self { attrs, domain, boundaries, freqs, total })
    }

    /// Per-dimension cell counts.
    fn dims(&self) -> Vec<usize> {
        self.boundaries.iter().map(|b| b.len() + 1).collect()
    }

    /// The inclusive value range of cell `c` along dimension position `p`.
    fn cell_range(&self, p: usize, c: usize) -> (u32, u32) {
        let (dlo, dhi) = self.domain.ranges()[p];
        let lo = if c == 0 { dlo } else { self.boundaries[p][c - 1] };
        let hi = if c == self.boundaries[p].len() { dhi } else { self.boundaries[p][c] - 1 };
        (lo, hi)
    }

    /// Index of the cell containing value `v` along dimension position `p`.
    fn cell_of(&self, p: usize, v: u32) -> usize {
        self.boundaries[p].partition_point(|&b| b <= v)
    }

    /// Estimated frequency mass inside a conjunction of inclusive ranges
    /// under intra-bucket uniformity (attributes not covered are ignored).
    #[must_use]
    pub fn mass_in_box(&self, ranges: &[(AttrId, u32, u32)]) -> f64 {
        // Narrow per-dimension cell index ranges, then walk the sub-grid.
        let dims = self.dims();
        let mut cell_lo = vec![0usize; dims.len()];
        let mut cell_hi: Vec<usize> = dims.iter().map(|&d| d - 1).collect();
        let mut constraint: Vec<(u32, u32)> = self.domain.ranges().to_vec();
        for &(a, lo, hi) in ranges {
            if let Some(p) = self.attrs.position(a) {
                let c = &mut constraint[p];
                *c = (c.0.max(lo), c.1.min(hi));
                if c.0 > c.1 {
                    return 0.0;
                }
            }
        }
        for p in 0..dims.len() {
            cell_lo[p] = self.cell_of(p, constraint[p].0);
            cell_hi[p] = self.cell_of(p, constraint[p].1);
        }
        // Iterate the sub-grid accumulating overlap-weighted frequencies.
        let mut mass = 0.0;
        let mut idx = cell_lo.clone();
        loop {
            let mut flat = 0usize;
            let mut fraction = 1.0;
            for p in 0..dims.len() {
                flat = flat * dims[p] + idx[p];
                let (clo, chi) = self.cell_range(p, idx[p]);
                let olo = clo.max(constraint[p].0);
                let ohi = chi.min(constraint[p].1);
                fraction *= (f64::from(ohi - olo) + 1.0) / (f64::from(chi - clo) + 1.0);
            }
            mass += self.freqs[flat] * fraction;
            // Advance the odometer.
            let mut p = dims.len();
            loop {
                if p == 0 {
                    return mass;
                }
                p -= 1;
                if idx[p] < cell_hi[p] {
                    idx[p] += 1;
                    let tail = (p + 1)..dims.len();
                    idx[tail.clone()].copy_from_slice(&cell_lo[tail]);
                    break;
                }
            }
        }
    }

    /// Calls `visit(ranges, frequency)` for every cell in row-major order,
    /// `ranges` aligned with [`GridHistogram::attrs`]: an odometer over
    /// the cell grid that updates one box buffer in place.
    pub fn for_each_bucket(&self, mut visit: impl FnMut(&[(u32, u32)], f64)) {
        let dims = self.dims();
        let mut idx = vec![0usize; dims.len()];
        let mut bbox: Vec<(u32, u32)> = (0..dims.len()).map(|p| self.cell_range(p, 0)).collect();
        for &freq in &self.freqs {
            visit(&bbox, freq);
            // Advance the odometer, last dimension fastest.
            for p in (0..dims.len()).rev() {
                idx[p] = (idx[p] + 1) % dims[p];
                bbox[p] = self.cell_range(p, idx[p]);
                if idx[p] > 0 {
                    break;
                }
            }
        }
    }

    /// Projects onto `attrs ⊆ self.attrs()` by summing out the dropped
    /// dimensions (exact — no uniformity assumption is needed).
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::NotASubset`] or
    /// [`HistogramError::InvalidRequest`] for invalid targets.
    pub fn project(&self, attrs: &AttrSet) -> Result<GridHistogram, HistogramError> {
        if attrs.is_empty() {
            return Err(HistogramError::InvalidRequest {
                reason: "cannot project onto the empty attribute set".into(),
            });
        }
        if let Some(missing) = attrs.iter().find(|&a| !self.attrs.contains(a)) {
            return Err(HistogramError::NotASubset { missing });
        }
        let keep: Vec<usize> = attrs
            .iter()
            .map(|a| self.attrs.position(a).ok_or(HistogramError::NotASubset { missing: a }))
            .collect::<Result<_, _>>()?;
        let dims = self.dims();
        let out_dims: Vec<usize> = keep.iter().map(|&p| dims[p]).collect();
        let mut out_freqs = vec![0.0; out_dims.iter().product::<usize>().max(1)];
        // Walk all buckets, fold into the projected grid.
        let mut idx = vec![0usize; dims.len()];
        for &f in &self.freqs {
            let mut flat = 0usize;
            for (k, &p) in keep.iter().enumerate() {
                flat = flat * out_dims[k] + idx[p];
            }
            out_freqs[flat] += f;
            let mut p = dims.len();
            loop {
                if p == 0 {
                    break;
                }
                p -= 1;
                if idx[p] + 1 < dims[p] {
                    idx[p] += 1;
                    idx[p + 1..].iter_mut().for_each(|x| *x = 0);
                    break;
                }
            }
        }
        let ranges: Vec<(u32, u32)> = keep.iter().map(|&p| self.domain.ranges()[p]).collect();
        Ok(GridHistogram {
            attrs: attrs.clone(),
            domain: BoundingBox::new(attrs.clone(), ranges),
            boundaries: keep.iter().map(|&p| self.boundaries[p].clone()).collect(),
            freqs: out_freqs,
            total: self.total,
        })
    }

    /// Multiplies two grid histograms via the separation formula
    /// `f_{Ci∪Cj} = f_{Ci} · f_{Cj} / f_{Ci∩Cj}` under uniformity. Shared
    /// dimensions use the union of both boundary sets.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::IncompatibleOperands`] if shared
    /// attributes have different domains.
    pub fn product(&self, other: &GridHistogram) -> Result<GridHistogram, HistogramError> {
        let shared = self.attrs.intersection(&other.attrs);
        for a in shared.iter() {
            if self.domain.range(a) != other.domain.range(a) {
                return Err(HistogramError::IncompatibleOperands {
                    reason: format!("attribute {a} has different domains in the operands"),
                });
            }
        }
        let union = self.attrs.union(&other.attrs);
        let mut boundaries = Vec::with_capacity(union.len());
        let mut ranges = Vec::with_capacity(union.len());
        for a in union.iter() {
            let mine = self.attrs.position(a).map(|p| &self.boundaries[p]);
            let theirs = other.attrs.position(a).map(|p| &other.boundaries[p]);
            let merged = match (mine, theirs) {
                (Some(m), Some(t)) => {
                    let mut u = m.clone();
                    u.extend_from_slice(t);
                    u.sort_unstable();
                    u.dedup();
                    u
                }
                (Some(m), None) => m.clone(),
                (None, Some(t)) => t.clone(),
                (None, None) => {
                    return Err(HistogramError::IncompatibleOperands {
                        reason: format!("attribute {a} missing from both operand domains"),
                    })
                }
            };
            boundaries.push(merged);
            let Some(range) = self.domain.range(a).or_else(|| other.domain.range(a)) else {
                return Err(HistogramError::IncompatibleOperands {
                    reason: format!("attribute {a} has no domain range in either operand"),
                });
            };
            ranges.push(range);
        }
        let separator = if shared.is_empty() { None } else { Some(self.project(&shared)?) };
        let mut out = GridHistogram {
            attrs: union.clone(),
            domain: BoundingBox::new(union.clone(), ranges),
            boundaries,
            freqs: Vec::new(),
            total: 0.0,
        };
        let dims = out.dims();
        let mut freqs = vec![0.0; dims.iter().product::<usize>().max(1)];
        let mut idx = vec![0usize; dims.len()];
        for f in &mut freqs {
            // Build the bucket's ranges and apply the separation formula.
            let ranges: Vec<(AttrId, u32, u32)> = union
                .iter()
                .enumerate()
                .map(|(p, a)| {
                    let (lo, hi) = out.cell_range(p, idx[p]);
                    (a, lo, hi)
                })
                .collect();
            let fi = self.mass_in_box(&ranges);
            let fj = other.mass_in_box(&ranges);
            let fsep = match &separator {
                Some(sep) => sep.mass_in_box(&ranges),
                None => self.total,
            };
            *f = if fsep <= 0.0 { 0.0 } else { fi * fj / fsep };
            let mut p = dims.len();
            loop {
                if p == 0 {
                    break;
                }
                p -= 1;
                if idx[p] + 1 < dims[p] {
                    idx[p] += 1;
                    idx[p + 1..].iter_mut().for_each(|x| *x = 0);
                    break;
                }
            }
        }
        out.total = freqs.iter().sum();
        out.freqs = freqs;
        Ok(out)
    }

    /// Storage footprint in bytes: 4 bytes per bucket frequency plus
    /// 4 bytes per interior boundary value plus 1 byte per boundary for
    /// its dimension tag (this crate's accounting; the paper does not
    /// specify one for grids).
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        4 * self.freqs.len() + self.boundaries.iter().map(|b| 5 * b.len()).sum::<usize>()
    }
}

/// Inserts split value `v` into a sorted boundary list.
fn insert_boundary(bounds: &mut Vec<u32>, v: u32) {
    let pos = bounds.partition_point(|&b| b < v);
    bounds.insert(pos, v);
}

/// The split a [`GridBuilder`] would apply next.
#[derive(Debug, Clone, Copy)]
struct GridSplit {
    /// Dimension position.
    pos: usize,
    value: u32,
    /// Buckets the split adds.
    extra: usize,
    /// Total SSE once the split is applied.
    error_after: f64,
}

/// Incremental builder for [`GridHistogram`] (greedy whole-distribution
/// splits, paper §3.2). The current error and the next split (with the
/// error it leads to) are computed once per split, so `error`,
/// `peek_split` and `peek_gain` are reads.
#[derive(Debug, Clone)]
pub struct GridBuilder {
    attrs: AttrSet,
    domain: BoundingBox,
    criterion: SplitCriterion,
    /// Sorted `(value, marginal frequency)` per dimension.
    marginals: Vec<Vec<(u32, f64)>>,
    /// All non-zero cells of the source distribution.
    cells: Vec<(Vec<u32>, f64)>,
    boundaries: Vec<Vec<u32>>,
    total: f64,
    /// Total SSE of the current grid.
    error: f64,
    next: Option<GridSplit>,
}

impl GridBuilder {
    /// Starts a builder with the single all-encompassing bucket.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::InvalidRequest`] for an empty distribution.
    pub fn new(dist: &Distribution, criterion: SplitCriterion) -> Result<Self, HistogramError> {
        let attrs = dist.attrs().clone();
        if attrs.is_empty() || dist.total() <= 0.0 {
            return Err(HistogramError::InvalidRequest {
                reason: "grid histograms need a non-empty distribution".into(),
            });
        }
        let ranges: Vec<(u32, u32)> =
            attrs.iter().map(|a| (0, dist.schema().domain_size(a) - 1)).collect();
        let marginals: Vec<Vec<(u32, f64)>> = attrs.iter().map(|a| dist.values_along(a)).collect();
        let mut builder = Self {
            domain: BoundingBox::new(attrs.clone(), ranges),
            boundaries: vec![Vec::new(); attrs.len()],
            cells: dist.iter().map(|(k, f)| (k.to_vec(), f)).collect(),
            total: dist.total(),
            attrs,
            criterion,
            marginals,
            error: 0.0,
            next: None,
        };
        builder.error = builder.error_with(&builder.boundaries);
        builder.next = builder.propose();
        Ok(builder)
    }

    /// Convenience: builds a grid histogram using at most `max_buckets`
    /// buckets.
    ///
    /// # Errors
    ///
    /// See [`GridBuilder::new`]; additionally rejects a zero budget.
    pub fn build(
        dist: &Distribution,
        max_buckets: usize,
        criterion: SplitCriterion,
    ) -> Result<GridHistogram, HistogramError> {
        if max_buckets == 0 {
            return Err(HistogramError::InvalidRequest {
                reason: "bucket budget must be positive".into(),
            });
        }
        let mut b = Self::new(dist, criterion)?;
        while let Some((_, _, extra)) = b.peek_split() {
            if b.bucket_count() + extra > max_buckets {
                break;
            }
            b.split_once();
        }
        Ok(b.finish())
    }

    /// Current number of buckets.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.boundaries.iter().map(|b| b.len() + 1).product()
    }

    /// The next split as `(dimension position, split value, extra buckets)`.
    /// Grid splits multiply: splitting dimension `d` adds
    /// `Π_{d' ≠ d} cells_{d'}` buckets.
    #[must_use]
    pub fn peek_split(&self) -> Option<(usize, u32, usize)> {
        self.next.map(|n| (n.pos, n.value, n.extra))
    }

    /// Finds the split the partitioning constraint rates highest across
    /// every segment of every dimension, and the error after it.
    fn propose(&self) -> Option<GridSplit> {
        let mut best: Option<(usize, u32, f64)> = None;
        for (p, marginal) in self.marginals.iter().enumerate() {
            // Evaluate the best split within each existing segment.
            let mut start = 0usize;
            let (dlo, dhi) = self.domain.ranges()[p];
            let bounds = &self.boundaries[p];
            for seg in 0..=bounds.len() {
                let end = if seg == bounds.len() {
                    marginal.len()
                } else {
                    marginal.partition_point(|&(v, _)| v < bounds[seg])
                };
                let seg_lo = if seg == 0 { dlo } else { bounds[seg - 1] };
                let seg_hi = if seg == bounds.len() { dhi } else { bounds[seg] - 1 };
                if let Some(choice) =
                    best_split_bounded(&marginal[start..end], seg_lo, seg_hi, self.criterion)
                {
                    if best.is_none_or(|(_, _, s)| choice.score > s) {
                        best = Some((p, choice.value, choice.score));
                    }
                }
                start = end;
            }
        }
        let (pos, value, _) = best?;
        let extra: usize = self
            .boundaries
            .iter()
            .enumerate()
            .filter(|&(q, _)| q != pos)
            .map(|(_, b)| b.len() + 1)
            .product();
        let mut trial = self.boundaries.clone();
        insert_boundary(&mut trial[pos], value);
        Some(GridSplit { pos, value, extra, error_after: self.error_with(&trial) })
    }

    /// Applies the next split. Returns `false` when saturated.
    pub fn split_once(&mut self) -> bool {
        let Some(split) = self.next else {
            return false;
        };
        insert_boundary(&mut self.boundaries[split.pos], split.value);
        self.error = split.error_after;
        self.next = self.propose();
        true
    }

    /// Bytes the grid would occupy if finished now (4 per bucket + 5 per
    /// boundary, matching [`GridHistogram::storage_bytes`]) — computed
    /// arithmetically so allocation loops don't materialize the grid.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        let boundaries: usize = self.boundaries.iter().map(Vec::len).sum();
        4 * self.bucket_count() + 5 * boundaries
    }

    /// Current total volume-aware SSE across buckets.
    #[must_use]
    pub fn error(&self) -> f64 {
        self.error
    }

    /// The error decrease the next split would achieve.
    #[must_use]
    pub fn peek_gain(&self) -> Option<f64> {
        self.next.map(|n| self.error - n.error_after)
    }

    fn error_with(&self, boundaries: &[Vec<u32>]) -> f64 {
        let dims: Vec<usize> = boundaries.iter().map(|b| b.len() + 1).collect();
        let nb: usize = dims.iter().product();
        let mut sum = vec![0.0; nb];
        let mut sum_sq = vec![0.0; nb];
        let mut nnz = vec![0u64; nb];
        for (key, f) in &self.cells {
            let mut flat = 0usize;
            for (p, d) in dims.iter().enumerate() {
                let c = boundaries[p].partition_point(|&b| b <= key[p]);
                flat = flat * d + c;
            }
            sum[flat] += f;
            sum_sq[flat] += f * f;
            nnz[flat] += 1;
        }
        // Bucket volumes from cell ranges.
        let mut err = 0.0;
        let mut idx = vec![0usize; dims.len()];
        for b in 0..nb {
            let mut volume = 1.0f64;
            for p in 0..dims.len() {
                let (dlo, dhi) = self.domain.ranges()[p];
                let lo = if idx[p] == 0 { dlo } else { boundaries[p][idx[p] - 1] };
                let hi =
                    if idx[p] == boundaries[p].len() { dhi } else { boundaries[p][idx[p]] - 1 };
                volume *= f64::from(hi - lo) + 1.0;
            }
            // Volume-aware SSE: sum_sq − sum²/V.
            err += sum_sq[b] - sum[b] * sum[b] / volume;
            let mut p = dims.len();
            loop {
                if p == 0 {
                    break;
                }
                p -= 1;
                if idx[p] + 1 < dims[p] {
                    idx[p] += 1;
                    idx[p + 1..].iter_mut().for_each(|x| *x = 0);
                    break;
                }
            }
        }
        err
    }

    /// Materializes the grid histogram.
    #[must_use]
    pub fn finish(&self) -> GridHistogram {
        let dims: Vec<usize> = self.boundaries.iter().map(|b| b.len() + 1).collect();
        let mut freqs = vec![0.0; dims.iter().product::<usize>().max(1)];
        for (key, f) in &self.cells {
            let mut flat = 0usize;
            for (p, d) in dims.iter().enumerate() {
                let c = self.boundaries[p].partition_point(|&b| b <= key[p]);
                flat = flat * d + c;
            }
            freqs[flat] += f;
        }
        GridHistogram {
            attrs: self.attrs.clone(),
            domain: self.domain.clone(),
            boundaries: self.boundaries.clone(),
            freqs,
            total: self.total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{distribution_strategy, fractional};
    use dbhist_distribution::{Relation, Schema};
    use proptest::prelude::*;

    /// The cached error and next split of `b` equal a from-scratch
    /// recompute, bit for bit.
    fn assert_fresh(b: &GridBuilder) {
        assert_eq!(b.error().to_bits(), b.error_with(&b.boundaries).to_bits(), "error");
        let bits = |n: GridSplit| (n.pos, n.value, n.extra, n.error_after.to_bits());
        assert_eq!(b.next.map(bits), b.propose().map(bits), "next split");
    }

    /// Drives a builder over `dist` to saturation, checking the cache at
    /// every step and that each split's `error_after` becomes the next
    /// `error()`.
    fn check_cache_to_saturation(dist: &Distribution, criterion: SplitCriterion) {
        let mut b = GridBuilder::new(dist, criterion).unwrap();
        assert_fresh(&b);
        while let Some(next) = b.next {
            let before = b.error();
            assert_eq!(b.peek_gain().unwrap().to_bits(), (before - next.error_after).to_bits());
            assert!(b.split_once());
            assert_eq!(b.error().to_bits(), next.error_after.to_bits());
            assert_fresh(&b);
        }
        assert!(b.peek_gain().is_none());
        assert!(!b.split_once());
    }

    #[test]
    fn cache_matches_recompute_to_saturation() {
        let grid = grid_relation().distribution();
        for criterion in [SplitCriterion::MaxDiff, SplitCriterion::VOptimal] {
            check_cache_to_saturation(&grid, criterion);
            check_cache_to_saturation(&fractional(), criterion);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cache_matches_recompute_on_random_distributions(
            (dist, criterion) in distribution_strategy()
        ) {
            check_cache_to_saturation(&dist, criterion);
        }
    }

    fn grid_relation() -> Relation {
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

    #[test]
    fn build_respects_budget_and_mass() {
        let dist = grid_relation().distribution();
        for budget in [1usize, 4, 9, 16, 64] {
            let g = GridBuilder::build(&dist, budget, SplitCriterion::MaxDiff).unwrap();
            assert!(g.bucket_count() <= budget);
            assert!((g.total() - dist.total()).abs() < 1e-9);
            assert!((g.mass_in_box(&[]) - dist.total()).abs() < 1e-9);
        }
    }

    #[test]
    fn bucket_visitor_tiles_the_grid_in_row_major_order() {
        let dist = grid_relation().distribution();
        let g = GridBuilder::build(&dist, 12, SplitCriterion::MaxDiff).unwrap();
        let mut cells = Vec::new();
        g.for_each_bucket(|ranges, freq| cells.push((ranges.to_vec(), freq)));
        assert_eq!(cells.len(), g.bucket_count());
        let volume: u32 =
            cells.iter().map(|(r, _)| r.iter().map(|&(lo, hi)| hi - lo + 1).product::<u32>()).sum();
        assert_eq!(volume, 64, "cells tile the domain");
        for (flat, (ranges, freq)) in cells.iter().enumerate() {
            assert_eq!(freq.to_bits(), g.freqs()[flat].to_bits());
            let query: Vec<(AttrId, u32, u32)> =
                g.attrs().iter().zip(ranges).map(|(a, &(lo, hi))| (a, lo, hi)).collect();
            assert!((g.mass_in_box(&query) - freq).abs() < 1e-9, "{ranges:?}");
        }
    }

    #[test]
    fn saturated_grid_is_exact() {
        let rel = grid_relation();
        let dist = rel.distribution();
        let mut b = GridBuilder::new(&dist, SplitCriterion::MaxDiff).unwrap();
        while b.split_once() {}
        let g = b.finish();
        assert_eq!(g.bucket_count(), 64);
        assert!(b.error().abs() < 1e-9);
        for x in 0..8u32 {
            for y in 0..8u32 {
                let exact = f64::from(x + 2 * y + 1);
                assert!((g.mass_in_box(&[(0, x, x), (1, y, y)]) - exact).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn splits_multiply_buckets() {
        let dist = grid_relation().distribution();
        let mut b = GridBuilder::new(&dist, SplitCriterion::MaxDiff).unwrap();
        assert_eq!(b.bucket_count(), 1);
        let (_, _, extra) = b.peek_split().unwrap();
        assert_eq!(extra, 1, "first split adds one bucket");
        b.split_once();
        assert_eq!(b.bucket_count(), 2);
        // A split along the other dimension now doubles, along the same
        // dimension adds the count of the orthogonal cells.
        let before = b.bucket_count();
        let (_, _, extra) = b.peek_split().unwrap();
        b.split_once();
        assert_eq!(b.bucket_count(), before + extra);
    }

    #[test]
    fn error_monotone_and_peek_matches() {
        let dist = grid_relation().distribution();
        let mut b = GridBuilder::new(&dist, SplitCriterion::VOptimal).unwrap();
        for _ in 0..6 {
            let Some(gain) = b.peek_gain() else { break };
            let before = b.error();
            assert!(b.split_once());
            assert!((gain - (before - b.error())).abs() < 1e-9);
            assert!(gain >= -1e-9);
        }
    }

    #[test]
    fn project_is_exact_sum() {
        let rel = grid_relation();
        let dist = rel.distribution();
        let g = GridBuilder::build(&dist, 16, SplitCriterion::MaxDiff).unwrap();
        let px = g.project(&AttrSet::singleton(0)).unwrap();
        assert!((px.total() - g.total()).abs() < 1e-9);
        // Projection of a grid is exact on cell boundaries: compare a full
        // range with the true marginal mass.
        let exact = rel.marginal(&AttrSet::singleton(0)).unwrap();
        let direct: f64 = (0..4u32).map(|v| exact.frequency(&[v])).sum();
        let approx = px.mass_in_box(&[(0, 0, 3)]);
        let via_joint = g.mass_in_box(&[(0, 0, 3)]);
        assert!((approx - via_joint).abs() < 1e-9);
        // And both are decent estimates of the truth.
        assert!((approx - direct).abs() / direct < 0.35);
    }

    #[test]
    fn project_errors() {
        let dist = grid_relation().distribution();
        let g = GridBuilder::build(&dist, 4, SplitCriterion::MaxDiff).unwrap();
        assert!(g.project(&AttrSet::empty()).is_err());
        assert!(g.project(&AttrSet::singleton(9)).is_err());
    }

    #[test]
    fn product_disjoint_independence() {
        let schema = Schema::new(vec![("x", 4), ("y", 4)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..160u32).map(|i| vec![i % 4, (i * 3) % 4]).collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let gx = GridBuilder::build(
            &rel.marginal(&AttrSet::singleton(0)).unwrap(),
            4,
            SplitCriterion::MaxDiff,
        )
        .unwrap();
        let gy = GridBuilder::build(
            &rel.marginal(&AttrSet::singleton(1)).unwrap(),
            4,
            SplitCriterion::MaxDiff,
        )
        .unwrap();
        let prod = gx.product(&gy).unwrap();
        assert_eq!(prod.attrs(), &AttrSet::from_ids([0, 1]));
        assert!((prod.total() - 160.0).abs() < 1e-9);
        for x in 0..4u32 {
            for y in 0..4u32 {
                let got = prod.mass_in_box(&[(0, x, x), (1, y, y)]);
                assert!((got - 10.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn product_shared_dim_merges_boundaries() {
        // Two 2-attr grids sharing attribute 1.
        let schema = Schema::new(vec![("a", 4), ("b", 4), ("c", 4)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..256u32).map(|i| vec![i % 4, i % 4, (i / 4) % 4]).collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let gab = GridBuilder::build(
            &rel.marginal(&AttrSet::from_ids([0, 1])).unwrap(),
            16,
            SplitCriterion::MaxDiff,
        )
        .unwrap();
        let gbc = GridBuilder::build(
            &rel.marginal(&AttrSet::from_ids([1, 2])).unwrap(),
            16,
            SplitCriterion::MaxDiff,
        )
        .unwrap();
        let prod = gab.product(&gbc).unwrap();
        assert_eq!(prod.attrs(), &AttrSet::from_ids([0, 1, 2]));
        let n = 256.0;
        assert!((prod.total() - n).abs() / n < 0.05, "total {}", prod.total());
    }

    #[test]
    fn product_rejects_incompatible() {
        let s1 = Schema::new(vec![("x", 4)]).unwrap();
        let s2 = Schema::new(vec![("x", 8)]).unwrap();
        let r1 =
            Relation::from_rows(s1, (0..8u32).map(|i| vec![i % 4]).collect::<Vec<_>>()).unwrap();
        let r2 =
            Relation::from_rows(s2, (0..8u32).map(|i| vec![i % 8]).collect::<Vec<_>>()).unwrap();
        let g1 = GridBuilder::build(&r1.distribution(), 2, SplitCriterion::MaxDiff).unwrap();
        let g2 = GridBuilder::build(&r2.distribution(), 2, SplitCriterion::MaxDiff).unwrap();
        assert!(g1.product(&g2).is_err());
    }

    #[test]
    fn storage_accounting() {
        let dist = grid_relation().distribution();
        let g = GridBuilder::build(&dist, 8, SplitCriterion::MaxDiff).unwrap();
        let boundaries: usize = g.boundaries.iter().map(Vec::len).sum();
        assert_eq!(g.storage_bytes(), 4 * g.bucket_count() + 5 * boundaries);
    }
}
