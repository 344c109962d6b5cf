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

use dbhist_distribution::{AttrId, AttrSet, Distribution};

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
    /// Keys of the bucket's non-zero cells, flattened: cell `i`'s key
    /// (aligned with the builder's attrs) is `keys[i * arity..][..arity]`.
    keys: Vec<u32>,
    /// Frequencies of the cells, in the same order as `keys`.
    freqs: Vec<f64>,
    bbox: BoundingBox,
    /// Arena id of the leaf node representing this bucket.
    node: NodeId,
    /// Cached volume-aware SSE of the bucket.
    sse: f64,
    /// Cached best split (`None` when no split is possible).
    best: Option<BestSplit>,
}

/// Volume-aware SSE of a bucket of `volume` cells holding `freqs`: cells
/// not listed count as zeroes. Both the bucket's own SSE and the cached
/// SSE of each half go through this one fold, in cell order, so a half's
/// prediction and the child's own value are the same bits.
fn volume_sse(freqs: impl Iterator<Item = f64> + Clone, volume: u64) -> f64 {
    let volume = volume as f64;
    let total: f64 = freqs.clone().sum();
    let nnz = freqs.clone().count() as f64;
    let mean = total / volume;
    let nonzero_sse: f64 = freqs.map(|f| (f - mean).powi(2)).sum();
    nonzero_sse + (volume - nnz) * mean * mean
}

/// Incremental MHIST-2 builder over a marginal [`Distribution`].
#[derive(Debug, Clone)]
pub struct MhistBuilder {
    attrs: AttrSet,
    domain: BoundingBox,
    criterion: SplitCriterion,
    nodes: Vec<Node>,
    buckets: Vec<BucketState>,
    /// Index of the bucket the next split applies to.
    next: Option<usize>,
}

impl MhistBuilder {
    /// Starts a builder with a single bucket covering the full domain of
    /// the distribution's attributes.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::InvalidRequest`] if the distribution is
    /// empty or covers no attributes.
    pub fn new(dist: &Distribution, criterion: SplitCriterion) -> Result<Self, HistogramError> {
        let attrs = dist.attrs().clone();
        if attrs.is_empty() {
            return Err(HistogramError::InvalidRequest {
                reason: "MHIST requires at least one attribute".into(),
            });
        }
        if dist.total() <= 0.0 {
            return Err(HistogramError::InvalidRequest {
                reason: "cannot build a histogram over an empty distribution".into(),
            });
        }
        let ranges: Vec<(u32, u32)> =
            attrs.iter().map(|a| (0, dist.schema().domain_size(a) - 1)).collect();
        let domain = BoundingBox::new(attrs.clone(), ranges);
        let mut keys = Vec::with_capacity(dist.support_size() * attrs.len());
        let mut freqs = Vec::with_capacity(dist.support_size());
        for (k, f) in dist.iter() {
            keys.extend_from_slice(k);
            freqs.push(f);
        }
        let nodes = vec![Node::Leaf { freq: dist.total() }];
        let mut builder = Self {
            attrs,
            domain: domain.clone(),
            criterion,
            nodes,
            buckets: Vec::new(),
            next: None,
        };
        let bucket = builder.bucket(keys, freqs, domain);
        builder.buckets.push(bucket);
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

    /// A bucket over `keys`/`freqs` inside `bbox`, with its SSE and best
    /// split computed (node id unassigned).
    fn bucket(&self, keys: Vec<u32>, freqs: Vec<f64>, bbox: BoundingBox) -> BucketState {
        let sse = volume_sse(freqs.iter().copied(), bbox.volume());
        let mut bucket = BucketState { keys, freqs, bbox, node: 0, sse, best: None };
        bucket.best = self.best_split(&bucket);
        bucket
    }

    /// The best split of `bucket` across dimensions by the partitioning
    /// constraint, with the SSE of both halves.
    fn best_split(&self, bucket: &BucketState) -> Option<BestSplit> {
        let arity = self.attrs.len();
        let mut best: Option<(usize, AttrId, u32, f64)> = None;
        let mut tmp: Vec<(u32, f64)> = Vec::with_capacity(bucket.freqs.len());
        let mut agg: Vec<(u32, f64)> = Vec::with_capacity(bucket.freqs.len());
        for (pos, attr) in self.attrs.iter().enumerate() {
            // Aggregate cell frequencies along this dimension.
            tmp.clear();
            tmp.extend(
                bucket
                    .keys
                    .iter()
                    .skip(pos)
                    .step_by(arity)
                    .copied()
                    .zip(bucket.freqs.iter().copied()),
            );
            tmp.sort_unstable_by_key(|&(v, _)| v);
            agg.clear();
            for &(v, f) in &tmp {
                match agg.last_mut() {
                    Some(last) if last.0 == v => last.1 += f,
                    _ => agg.push((v, f)),
                }
            }
            // Bucket boxes cover every histogram attribute by
            // construction; skip the dimension if this one is corrupt.
            let Some((lo, hi)) = bucket.bbox.range(attr) else {
                continue;
            };
            if let Some(choice) = best_split_bounded(&agg, lo, hi, self.criterion) {
                if best.is_none_or(|(_, _, _, s)| choice.score > s) {
                    best = Some((pos, attr, choice.value, choice.score));
                }
            }
        }
        let (pos, attr, value, score) = best?;
        let (lbox, rbox) = bucket.bbox.halves(attr, value)?;
        let side = |left: bool| {
            bucket
                .keys
                .iter()
                .skip(pos)
                .step_by(arity)
                .zip(&bucket.freqs)
                .filter(move |&(&k, _)| (k < value) == left)
                .map(|(_, &f)| f)
        };
        Some(BestSplit {
            attr,
            value,
            score,
            left_sse: volume_sse(side(true), lbox.volume()),
            right_sse: volume_sse(side(false), rbox.volume()),
        })
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
        // Partition the cells, keeping their relative order.
        let arity = self.attrs.len();
        let (mut left_keys, mut right_keys) = (Vec::new(), Vec::new());
        let (mut left_freqs, mut right_freqs) = (Vec::new(), Vec::new());
        for (key, &f) in parent.keys.chunks_exact(arity).zip(&parent.freqs) {
            if key[pos] < best.value {
                left_keys.extend_from_slice(key);
                left_freqs.push(f);
            } else {
                right_keys.extend_from_slice(key);
                right_freqs.push(f);
            }
        }
        let mut left = self.bucket(left_keys, left_freqs, lbox);
        let mut right = self.bucket(right_keys, right_freqs, rbox);
        debug_assert_eq!(left.sse.to_bits(), best.left_sse.to_bits(), "cached left-half SSE");
        debug_assert_eq!(right.sse.to_bits(), best.right_sse.to_bits(), "cached right-half SSE");
        let leaf = self.buckets[idx].node;
        // The old leaf becomes an internal node with two fresh leaves.
        let left_id = self.nodes.len() as NodeId;
        self.nodes.push(Node::Leaf { freq: 0.0 });
        let right_id = self.nodes.len() as NodeId;
        self.nodes.push(Node::Leaf { freq: 0.0 });
        self.nodes[leaf as usize] =
            Node::Internal { attr: best.attr, split: best.value, left: left_id, right: right_id };
        left.node = left_id;
        right.node = right_id;
        self.buckets[idx] = left;
        self.buckets.push(right);
        self.next = self.scan_next();
        true
    }

    /// Materializes the split tree.
    #[must_use]
    pub fn finish(&self) -> SplitTree {
        let mut nodes = self.nodes.clone();
        for bucket in &self.buckets {
            let freq: f64 = bucket.freqs.iter().sum();
            nodes[bucket.node as usize] = Node::Leaf { freq };
        }
        SplitTree::from_parts(self.attrs.clone(), self.domain.clone(), nodes)
    }
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
            assert_eq!(bucket.keys, keys, "bucket {i} cells");
            assert_eq!(bucket.freqs, freqs, "bucket {i} frequencies");
            let fresh = b.bucket(keys, freqs, bucket.bbox.clone());
            assert_eq!(bucket.sse.to_bits(), fresh.sse.to_bits(), "bucket {i} SSE");
            assert_eq!(bucket.best.map(bits), fresh.best.map(bits), "bucket {i} best split");
            error.push(fresh.sse);
            if let Some(s) = fresh.best {
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
