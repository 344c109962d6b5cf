//! MHIST-2 construction (paper §3.2, after Poosala & Ioannidis [18]).
//!
//! The builder maintains the current bucketization as a growing split
//! tree. At each step it finds, over all buckets and all dimensions, the
//! split the partitioning constraint rates highest ("the bucket in most
//! need of partitioning") and applies it, until the bucket budget is
//! exhausted or every bucket is a single cell.
//!
//! Like [`crate::one_dim::OneDimBuilder`], the builder is *incremental*:
//! `IncrementalGains` space allocation interleaves construction across
//! clique histograms, so it asks for the error improvement of the next
//! split (`peek_gain`) before paying a bucket for it. Every bucket caches
//! its best split together with the SSE of the two halves that split
//! would produce, and the builder caches the index of the bucket it would
//! split next, so `peek_gain` is a read, `error` sums cached bucket SSEs,
//! and `split_once` refreshes only the two new buckets.
//!
//! The builder starts from a marginal's cells column by column
//! ([`CellColumns`]): a synopsis build takes them straight from its
//! counts, and [`MhistBuilder::new`] reads them off a [`Distribution`].
//! All cells live in one arena, in the marginal's key order, and a
//! bucket is a contiguous range of it. The arena is column-major: one
//! column of frequencies and one per dimension holding each cell's value
//! as its rank, its position among the values some cell holds along that
//! dimension. A split partitions its bucket's range of every column in
//! place and stably through reused spill buffers, so every bucket's cells
//! stay in key order, and each child takes the SSE its parent cached for
//! that half. Split search sums each dimension's frequencies into a dense
//! array indexed by rank instead of sorting, and both halves' SSE come
//! from two passes over the bucket's cells. Apart from the tree's own
//! nodes and boxes, a split allocates nothing.

use std::ops::Range;

use dbhist_distribution::{AttrId, AttrSet, CellColumns, Distribution};

use crate::bbox::BoundingBox;
use crate::criterion::{best_split_bounded, SplitCriterion};
use crate::error::HistogramError;

use super::{Node, NodeId, SplitTree};

/// A bucket's cached best split.
#[derive(Debug, Clone, Copy)]
struct BestSplit {
    attr: AttrId,
    value: u32,
    /// Partitioning-constraint score (higher = more in need of a split).
    score: f64,
    /// Volume-aware SSE of the left (`< value`) half.
    left_sse: f64,
    /// Volume-aware SSE of the right (`≥ value`) half.
    right_sse: f64,
}

/// A bucket under construction: its cells, box, and cached best split.
#[derive(Debug, Clone)]
struct BucketState {
    /// The bucket's cells: a range of the builder's cell arena.
    cells: Range<usize>,
    bbox: BoundingBox,
    /// Arena id of the leaf node representing this bucket.
    node: NodeId,
    /// Cached volume-aware SSE of the bucket.
    sse: f64,
    /// Cached best split (`None` when no split is possible).
    best: Option<BestSplit>,
}

/// The distribution's cells, which the buckets partition, column by
/// column.
#[derive(Debug, Clone)]
struct Cells {
    /// Per dimension, the distinct values cells hold along it, ascending.
    values: Vec<Vec<u32>>,
    /// Per dimension, each cell's rank into `values`. Ranks order like the
    /// values they stand for.
    ranks: Vec<Vec<u32>>,
    /// Each cell's frequency.
    freqs: Vec<f64>,
}

impl Cells {
    /// The arena over `values` (per dimension, each cell's value, below
    /// that dimension's domain size) and `freqs`, each value replaced in
    /// place by its rank.
    fn new(mut values: Vec<Vec<u32>>, freqs: Vec<f64>, domains: &[u32]) -> Self {
        let along =
            values.iter_mut().zip(domains).map(|(column, &domain)| rank_in_place(column, domain));
        Self { values: along.collect(), ranks: values, freqs }
    }
}

/// Replaces each value of `column` by its rank among the distinct values
/// it holds and returns those values, ascending. A domain up to
/// `max(cells, 2^16)` values ranks through a presence table over the
/// domain; a wider one sorts a copy of the column.
fn rank_in_place(column: &mut [u32], domain: u32) -> Vec<u32> {
    let domain = domain as usize;
    if domain > column.len().max(1 << 16) {
        let mut along = column.to_vec();
        along.sort_unstable();
        along.dedup();
        for value in column.iter_mut() {
            *value = rank(&along, *value);
        }
        return along;
    }
    // `0` marks a value some cell holds until the ascending scan below
    // gives it its rank; `u32::MAX` a value no cell holds.
    let mut ranks = vec![u32::MAX; domain];
    for &value in column.iter() {
        ranks[value as usize] = 0;
    }
    let mut along = Vec::new();
    for (value, rank) in ranks.iter_mut().enumerate() {
        if *rank == 0 {
            // lint:allow-next-line(as-narrowing): at most `domain` ranks, a `u32` domain size
            *rank = along.len() as u32;
            // lint:allow-next-line(as-narrowing): a value below a `u32` domain size
            along.push(value as u32);
        }
    }
    for value in column.iter_mut() {
        *value = ranks[*value as usize];
    }
    along
}

/// The rank `value` would take among the ascending `values`: the number
/// below it.
fn rank(values: &[u32], value: u32) -> u32 {
    // lint:allow-next-line(as-narrowing): at most `value` distinct `u32`s lie below `value`
    values.partition_point(|&v| v < value) as u32
}

/// Buffers reused across splits.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Per-rank frequency sums along one dimension of a bucket, `None`
    /// for a value no cell of the bucket holds. All `None` between uses:
    /// split search resets the entries it filled.
    sums: Vec<Option<f64>>,
    /// The bucket's values along that dimension as `(value, sum)`,
    /// ascending.
    along: Vec<(u32, f64)>,
    /// Whether each cell of a bucket being split goes left.
    sides: Vec<bool>,
    /// One column's right-half entries while a split partitions it.
    spill_ranks: Vec<u32>,
    spill_freqs: Vec<f64>,
}

/// Volume-aware SSE of a bucket of `volume` cells holding `freqs`: cells
/// not listed count as zeroes. The root bucket's SSE comes from here;
/// [`halves_sse`] computes the same folds for both halves of a split.
fn volume_sse(freqs: impl Iterator<Item = f64> + Clone, volume: u64) -> f64 {
    let volume = volume as f64;
    let total: f64 = freqs.clone().sum();
    let nnz = freqs.clone().count() as f64;
    let mean = total / volume;
    let nonzero_sse: f64 = freqs.map(|f| (f - mean).powi(2)).sum();
    nonzero_sse + (volume - nnz) * mean * mean
}

/// [`volume_sse`] of both halves of cutting `cells` of `arena` at rank
/// `cut` along position `pos`: the cells ranked below `cut` in a box of
/// `volumes[0]` points and the rest in one of `volumes[1]`. One pass sums
/// and counts each half, a second sums its squared deviations. Each
/// accumulator starts where `f64`'s `Sum` does (`-0.0`) and adds its
/// half's cells in order; a cell of the other half adds `-0.0`, which
/// leaves every `f64` as it is. So both results are the bits
/// `volume_sse` over that half gives, without a branch per cell.
fn halves_sse(
    arena: &Cells,
    cells: &Range<usize>,
    pos: usize,
    cut: u32,
    volumes: [u64; 2],
) -> [f64; 2] {
    let (ranks, freqs) = (&arena.ranks[pos][cells.clone()], &arena.freqs[cells.clone()]);
    let sides = || ranks.iter().map(|&r| r < cut).zip(freqs);
    let only = |keep: bool, x: f64| if keep { x } else { -0.0 };
    let (mut left, mut right) = ((-0.0f64, 0usize), (-0.0f64, 0usize));
    for (is_left, &f) in sides() {
        left = (left.0 + only(is_left, f), left.1 + usize::from(is_left));
        right = (right.0 + only(!is_left, f), right.1 + usize::from(!is_left));
    }
    let [lvol, rvol] = volumes.map(|v| v as f64);
    let (lmean, rmean) = (left.0 / lvol, right.0 / rvol);
    let (mut lsq, mut rsq) = (-0.0f64, -0.0f64);
    for (is_left, &f) in sides() {
        lsq += only(is_left, (f - lmean).powi(2));
        rsq += only(!is_left, (f - rmean).powi(2));
    }
    [lsq + (lvol - left.1 as f64) * lmean * lmean, rsq + (rvol - right.1 as f64) * rmean * rmean]
}

/// Stably moves the entries of `column` whose `sides` flag is set to the
/// front and the rest behind them, through `spill`. Every entry is
/// written to both places and each side's cursor advances by its flag,
/// so the loop does not branch on the side.
fn partition_column<T: Copy + Default>(column: &mut [T], sides: &[bool], spill: &mut Vec<T>) {
    if spill.len() < column.len() {
        spill.resize(column.len(), T::default());
    }
    let (mut mid, mut spilled) = (0, 0);
    for (i, &left) in sides.iter().enumerate() {
        let x = column[i];
        column[mid] = x;
        spill[spilled] = x;
        mid += usize::from(left);
        spilled += usize::from(!left);
    }
    column[mid..].copy_from_slice(&spill[..spilled]);
}

/// Incremental MHIST-2 builder over a marginal's cells.
#[derive(Debug, Clone)]
pub struct MhistBuilder {
    attrs: AttrSet,
    domain: BoundingBox,
    criterion: SplitCriterion,
    nodes: Vec<Node>,
    cells: Cells,
    buckets: Vec<BucketState>,
    /// Index of the bucket the next split applies to.
    next: Option<usize>,
    scratch: Scratch,
}

impl MhistBuilder {
    /// Starts a builder with a single bucket covering the full domain of
    /// the distribution's attributes: [`MhistBuilder::from_cells`] over
    /// [`Distribution::cell_columns`].
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::InvalidRequest`] if the distribution is
    /// empty or covers no attributes.
    pub fn new(dist: &Distribution, criterion: SplitCriterion) -> Result<Self, HistogramError> {
        Self::from_cells(dist.cell_columns(), criterion)
    }

    /// Starts a builder with a single bucket covering the full domain of
    /// the marginal whose cells `cells` holds in key order.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::InvalidRequest`] if the marginal is empty
    /// or covers no attributes.
    pub fn from_cells(
        cells: CellColumns,
        criterion: SplitCriterion,
    ) -> Result<Self, HistogramError> {
        let CellColumns { attrs, domains, values, freqs, total } = cells;
        if attrs.is_empty() {
            return Err(HistogramError::InvalidRequest {
                reason: "MHIST requires at least one attribute".into(),
            });
        }
        if total <= 0.0 {
            return Err(HistogramError::InvalidRequest {
                reason: "cannot build a histogram over an empty distribution".into(),
            });
        }
        let ranges: Vec<(u32, u32)> = domains.iter().map(|&d| (0, d - 1)).collect();
        let domain = BoundingBox::new(attrs.clone(), ranges);
        let cells = Cells::new(values, freqs, &domains);
        let widest = cells.values.iter().map(Vec::len).max().unwrap_or(0);
        let scratch = Scratch { sums: vec![None; widest], ..Scratch::default() };
        let root = BucketState {
            cells: 0..cells.freqs.len(),
            sse: volume_sse(cells.freqs.iter().copied(), domain.volume()),
            bbox: domain.clone(),
            node: 0,
            best: None,
        };
        let mut builder = Self {
            attrs,
            domain,
            criterion,
            nodes: vec![Node::Leaf { freq: total }],
            cells,
            buckets: Vec::new(),
            next: None,
            scratch,
        };
        builder.place(root, None);
        builder.next = builder.scan_next();
        Ok(builder)
    }

    /// Convenience: builds an MHIST with at most `max_buckets` buckets.
    ///
    /// # Errors
    ///
    /// See [`MhistBuilder::new`]; additionally rejects a zero budget.
    pub fn build(
        dist: &Distribution,
        max_buckets: usize,
        criterion: SplitCriterion,
    ) -> Result<SplitTree, HistogramError> {
        if max_buckets == 0 {
            return Err(HistogramError::InvalidRequest {
                reason: "bucket budget must be positive".into(),
            });
        }
        let mut b = Self::new(dist, criterion)?;
        while b.bucket_count() < max_buckets && b.split_once() {}
        Ok(b.finish())
    }

    /// Computes `bucket`'s best split and stores the bucket at `slot`, or
    /// appends it when `slot` is `None`.
    fn place(&mut self, mut bucket: BucketState, slot: Option<usize>) {
        bucket.best = best_split(
            &self.attrs,
            self.criterion,
            &self.cells,
            &bucket.cells,
            &bucket.bbox,
            &mut self.scratch,
        );
        match slot {
            Some(idx) => self.buckets[idx] = bucket,
            None => self.buckets.push(bucket),
        }
    }

    /// The bucket with the highest best-split score; the last one wins
    /// ties.
    fn scan_next(&self) -> Option<usize> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.best.map(|s| (i, s.score)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    /// Current number of buckets.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Current total volume-aware SSE across buckets (the error measure
    /// handed to the space-allocation algorithms), summed from the
    /// buckets' cached SSEs.
    #[must_use]
    pub fn error(&self) -> f64 {
        self.buckets.iter().map(|b| b.sse).sum()
    }

    /// The error decrease the next split would achieve (`None` when no
    /// bucket can be split further).
    #[must_use]
    pub fn peek_gain(&self) -> Option<f64> {
        let bucket = &self.buckets[self.next?];
        let best = bucket.best?;
        Some(bucket.sse - best.left_sse - best.right_sse)
    }

    /// Applies the next split (adding exactly one bucket). Returns `false`
    /// when construction is saturated.
    pub fn split_once(&mut self) -> bool {
        let Some(idx) = self.next else {
            return false;
        };
        let parent = &self.buckets[idx];
        let Some(best) = parent.best else {
            return false;
        };
        let Some(pos) = self.attrs.position(best.attr) else {
            return false;
        };
        let Some((lbox, rbox)) = parent.bbox.halves(best.attr, best.value) else {
            return false;
        };
        let (cells, leaf) = (parent.cells.clone(), parent.node);
        let mid = self.partition(cells.clone(), pos, rank(&self.cells.values[pos], best.value));
        // The old leaf becomes an internal node with two fresh leaves.
        let left_id = self.nodes.len() as NodeId;
        self.nodes.push(Node::Leaf { freq: 0.0 });
        let right_id = self.nodes.len() as NodeId;
        self.nodes.push(Node::Leaf { freq: 0.0 });
        self.nodes[leaf as usize] =
            Node::Internal { attr: best.attr, split: best.value, left: left_id, right: right_id };
        // Each child takes the SSE its parent cached for that half.
        let left = BucketState {
            cells: cells.start..mid,
            bbox: lbox,
            node: left_id,
            sse: best.left_sse,
            best: None,
        };
        let right = BucketState {
            cells: mid..cells.end,
            bbox: rbox,
            node: right_id,
            sse: best.right_sse,
            best: None,
        };
        #[cfg(debug_assertions)]
        for child in [&left, &right] {
            let freqs = &self.cells.freqs[child.cells.clone()];
            debug_assert_eq!(
                child.sse.to_bits(),
                volume_sse(freqs.iter().copied(), child.bbox.volume()).to_bits(),
                "cached half SSE"
            );
        }
        self.place(left, Some(idx));
        self.place(right, None);
        self.next = self.scan_next();
        true
    }

    /// Stably partitions `cells` into those ranked below `cut` at `pos`,
    /// then the rest, column by column, and returns where the rest start.
    fn partition(&mut self, cells: Range<usize>, pos: usize, cut: u32) -> usize {
        let Scratch { sides, spill_ranks, spill_freqs, .. } = &mut self.scratch;
        sides.clear();
        sides.extend(self.cells.ranks[pos][cells.clone()].iter().map(|&r| r < cut));
        for column in &mut self.cells.ranks {
            partition_column(&mut column[cells.clone()], sides, spill_ranks);
        }
        partition_column(&mut self.cells.freqs[cells.clone()], sides, spill_freqs);
        cells.start + sides.iter().filter(|&&left| left).count()
    }

    /// Materializes the split tree.
    #[must_use]
    pub fn finish(&self) -> SplitTree {
        let mut nodes = self.nodes.clone();
        for bucket in &self.buckets {
            let freq: f64 = self.cells.freqs[bucket.cells.clone()].iter().sum();
            nodes[bucket.node as usize] = Node::Leaf { freq };
        }
        SplitTree::from_parts(self.attrs.clone(), self.domain.clone(), nodes)
    }
}

/// The best split of the bucket holding `cells` inside `bbox` across
/// dimensions by the partitioning constraint, with the SSE of both
/// halves.
fn best_split(
    attrs: &AttrSet,
    criterion: SplitCriterion,
    arena: &Cells,
    cells: &Range<usize>,
    bbox: &BoundingBox,
    scratch: &mut Scratch,
) -> Option<BestSplit> {
    let freqs = &arena.freqs[cells.clone()];
    let mut best: Option<(usize, AttrId, u32, f64)> = None;
    for ((pos, attr), &(lo, hi)) in attrs.iter().enumerate().zip(bbox.ranges()) {
        // Sum the cells' frequencies per value along this dimension, each
        // sum folded in cell order, and note the ranks they span.
        let (sums, values) = (&mut scratch.sums, &arena.values[pos]);
        let mut span = (u32::MAX, 0);
        for (&r, &f) in arena.ranks[pos][cells.clone()].iter().zip(freqs) {
            match &mut sums[r as usize] {
                Some(sum) => *sum += f,
                empty => *empty = Some(f),
            }
            span = (span.0.min(r), span.1.max(r));
        }
        // Read the present values in order, resetting what was filled.
        scratch.along.clear();
        for r in span.0 as usize..=span.1 as usize {
            if let Some(sum) = sums[r].take() {
                scratch.along.push((values[r], sum));
            }
        }
        if let Some(choice) = best_split_bounded(&scratch.along, lo, hi, criterion) {
            if best.is_none_or(|(_, _, _, s)| choice.score > s) {
                best = Some((pos, attr, choice.value, choice.score));
            }
        }
    }
    let (pos, attr, value, score) = best?;
    let volumes = bbox.halves_volumes(attr, value)?;
    let [left_sse, right_sse] =
        halves_sse(arena, cells, pos, rank(&arena.values[pos], value), volumes);
    Some(BestSplit { attr, value, score, left_sse, right_sse })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mhist::tests::grid_relation;
    use crate::test_support::{distribution_strategy, fractional};
    use dbhist_distribution::{Relation, Schema};
    use proptest::prelude::*;

    /// The cached state of `b` equals a from-scratch recompute: every
    /// bucket holds exactly the distribution's cells inside its box, in
    /// key order; its SSE and best split (with both halves' SSE) are what
    /// a fresh computation gives; the total error is the fresh sum; and
    /// the cached next bucket is the last bucket with the highest score.
    fn assert_fresh(b: &MhistBuilder, dist: &Distribution) {
        let bits = |s: BestSplit| {
            (s.attr, s.value, s.score.to_bits(), s.left_sse.to_bits(), s.right_sse.to_bits())
        };
        let mut error = Vec::new();
        let mut next: Option<(usize, f64)> = None;
        for (i, bucket) in b.buckets.iter().enumerate() {
            let (mut keys, mut freqs) = (Vec::new(), Vec::new());
            for (k, f) in dist.iter().filter(|(k, _)| bucket.bbox.contains_point(k)) {
                keys.extend_from_slice(k);
                freqs.push(f);
            }
            let held = &b.cells.freqs[bucket.cells.clone()];
            let values = bucket.cells.clone().flat_map(|i| {
                b.cells
                    .ranks
                    .iter()
                    .zip(&b.cells.values)
                    .map(move |(column, along)| along[column[i] as usize])
            });
            assert_eq!(values.collect::<Vec<_>>(), keys, "bucket {i} cells");
            assert_eq!(held, freqs, "bucket {i} frequencies");
            let sse = volume_sse(freqs.iter().copied(), bucket.bbox.volume());
            let mut scratch = Scratch { sums: b.scratch.sums.clone(), ..Scratch::default() };
            let best = best_split(
                &b.attrs,
                b.criterion,
                &b.cells,
                &bucket.cells,
                &bucket.bbox,
                &mut scratch,
            );
            assert_eq!(bucket.sse.to_bits(), sse.to_bits(), "bucket {i} SSE");
            assert_eq!(bucket.best.map(bits), best.map(bits), "bucket {i} best split");
            error.push(sse);
            if let Some(s) = best {
                if next.is_none_or(|(_, top)| s.score >= top) {
                    next = Some((i, s.score));
                }
            }
        }
        assert_eq!(b.error().to_bits(), error.iter().sum::<f64>().to_bits(), "total error");
        assert_eq!(b.next, next.map(|(i, _)| i), "next bucket");
    }

    /// Drives a builder over `dist` to saturation. After every split the
    /// two new buckets' SSEs must be the bits the parent cached for its
    /// halves, and the whole cache must match a fresh recompute.
    fn check_cache_to_saturation(dist: &Distribution, criterion: SplitCriterion) {
        let mut b = MhistBuilder::new(dist, criterion).unwrap();
        assert_fresh(&b, dist);
        while let Some(idx) = b.next {
            let best = b.buckets[idx].best.unwrap();
            let gain = b.peek_gain().unwrap();
            assert_eq!(
                gain.to_bits(),
                (b.buckets[idx].sse - best.left_sse - best.right_sse).to_bits()
            );
            let right = b.bucket_count();
            assert!(b.split_once());
            assert_eq!(b.buckets[idx].sse.to_bits(), best.left_sse.to_bits(), "left half");
            assert_eq!(b.buckets[right].sse.to_bits(), best.right_sse.to_bits(), "right half");
            assert_fresh(&b, dist);
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
        fn cache_matches_recompute_on_random_distributions((dist, criterion) in distribution_strategy()) {
            check_cache_to_saturation(&dist, criterion);
        }
    }

    /// A domain wider than `max(cells, 2^16)` ranks its values by sorting
    /// instead of through a presence table; the arena is the same.
    #[test]
    fn wide_domains_rank_by_sorting() {
        let schema = Schema::new(vec![("x", 200_000), ("y", 3)]).unwrap();
        let mut dist = Distribution::empty(schema, AttrSet::from_ids([0, 1])).unwrap();
        for (i, x) in [7u32, 70_000, 123_456, 199_999, 42].into_iter().enumerate() {
            dist.add(&[x, i as u32 % 3], 1.0 + i as f64);
            dist.add(&[x, 2], 0.5);
        }
        for criterion in [SplitCriterion::MaxDiff, SplitCriterion::VOptimal] {
            check_cache_to_saturation(&dist, criterion);
        }
        let cells = MhistBuilder::new(&dist, SplitCriterion::MaxDiff).unwrap().cells;
        assert_eq!(cells.values, [vec![7, 42, 70_000, 123_456, 199_999], vec![0, 1, 2]]);
    }

    #[test]
    fn budget_and_mass_conservation() {
        let dist = grid_relation().distribution();
        for budget in [1usize, 2, 5, 10, 30, 64, 1000] {
            let tree = MhistBuilder::build(&dist, budget, SplitCriterion::MaxDiff).unwrap();
            assert!(tree.bucket_count() <= budget.min(64));
            assert!(
                (tree.total() - dist.total()).abs() < 1e-9,
                "mass conserved at budget {budget}"
            );
            assert!(tree.validate().is_ok());
        }
    }

    #[test]
    fn saturated_tree_is_exact() {
        let rel = grid_relation();
        let dist = rel.distribution();
        let tree = MhistBuilder::build(&dist, 64, SplitCriterion::MaxDiff).unwrap();
        assert_eq!(tree.bucket_count(), 64);
        for x in 0..8u32 {
            for y in 0..8u32 {
                let exact = f64::from(x + 2 * y + 1);
                let est = tree.mass_in_box(&[(0, x, x), (1, y, y)]);
                assert!((est - exact).abs() < 1e-9, "cell ({x},{y}): {est} vs {exact}");
            }
        }
    }

    #[test]
    fn error_decreases_and_reaches_zero() {
        let dist = grid_relation().distribution();
        let mut b = MhistBuilder::new(&dist, SplitCriterion::VOptimal).unwrap();
        let mut prev = b.error();
        assert!(prev > 0.0);
        while b.split_once() {
            let cur = b.error();
            assert!(cur <= prev + 1e-9, "SSE must not increase");
            prev = cur;
        }
        assert!(prev.abs() < 1e-9, "fully partitioned SSE is zero");
        assert_eq!(b.bucket_count(), 64);
    }

    #[test]
    fn peek_gain_matches_actual() {
        let dist = grid_relation().distribution();
        let mut b = MhistBuilder::new(&dist, SplitCriterion::MaxDiff).unwrap();
        for _ in 0..20 {
            let Some(gain) = b.peek_gain() else { break };
            let before = b.error();
            assert!(b.split_once());
            assert!((gain - (before - b.error())).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_bad_input() {
        let dist = grid_relation().distribution();
        assert!(MhistBuilder::build(&dist, 0, SplitCriterion::MaxDiff).is_err());
        let schema = Schema::new(vec![("x", 4)]).unwrap();
        let empty = Relation::from_rows(schema, Vec::<Vec<u32>>::new()).unwrap().distribution();
        assert!(MhistBuilder::new(&empty, SplitCriterion::MaxDiff).is_err());
    }

    #[test]
    fn one_dimensional_mhist_works() {
        // A split tree over a single attribute behaves like a 1-D histogram.
        let schema = Schema::new(vec![("x", 16)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..160u32).map(|i| vec![(i * i) % 16]).collect();
        let dist = Relation::from_rows(schema, rows).unwrap().distribution();
        let tree = MhistBuilder::build(&dist, 6, SplitCriterion::MaxDiff).unwrap();
        assert!(tree.bucket_count() <= 6);
        assert!((tree.mass_in_box(&[(0, 0, 15)]) - 160.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_data_gets_isolated() {
        // One heavy cell among uniform noise: with a handful of buckets the
        // MaxDiff MHIST isolates the spike and estimates it well.
        let schema = Schema::new(vec![("x", 8), ("y", 8)]).unwrap();
        let mut rows = Vec::new();
        for x in 0..8u32 {
            for y in 0..8u32 {
                rows.push(vec![x, y]);
            }
        }
        for _ in 0..500 {
            rows.push(vec![3, 3]);
        }
        let dist = Relation::from_rows(schema, rows).unwrap().distribution();
        let tree = MhistBuilder::build(&dist, 8, SplitCriterion::MaxDiff).unwrap();
        let spike = tree.mass_in_box(&[(0, 3, 3), (1, 3, 3)]);
        assert!((spike - 501.0).abs() / 501.0 < 0.25, "spike estimate {spike} should be near 501");
    }
}
