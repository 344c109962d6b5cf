//! One-dimensional bucketized histograms.
//!
//! These are the classic histograms of Poosala et al. \[19\] used by the
//! paper's `IND` baseline: each attribute gets a histogram over its
//! marginal frequency distribution, and joint frequencies are estimated
//! under full independence. Buckets hold consecutive attribute values and
//! assume uniform frequency within (paper §2.1).
//!
//! [`OneDimBuilder`] grows a histogram one split at a time, which is the
//! shape the `IncrementalGains` space-allocation algorithm needs: it can
//! *peek* at the error improvement of the next split before committing.

use dbhist_distribution::{AttrId, Distribution};

use crate::criterion::{best_split, sse, SplitCriterion};
use crate::error::HistogramError;

/// A single bucket: an inclusive value range with its total frequency and
/// the count of distinct values observed inside.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Bucket1 {
    /// Smallest attribute value in the bucket.
    pub lo: u32,
    /// Largest attribute value in the bucket (inclusive).
    pub hi: u32,
    /// Total frequency of the bucket.
    pub freq: f64,
}

impl Bucket1 {
    /// Number of integer points spanned.
    #[must_use]
    pub fn width(&self) -> u64 {
        u64::from(self.hi - self.lo) + 1
    }
}

/// A one-dimensional histogram over one attribute's marginal distribution.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct OneDimHistogram {
    attr: AttrId,
    buckets: Vec<Bucket1>,
    total: f64,
}

impl Default for OneDimHistogram {
    /// An empty histogram over attribute `0`: no buckets, zero mass.
    fn default() -> Self {
        Self { attr: 0, buckets: Vec::new(), total: 0.0 }
    }
}

impl OneDimHistogram {
    /// Builds a histogram with at most `max_buckets` buckets over the
    /// marginal of `attr` within `dist`, using `criterion` to place
    /// boundaries.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::InvalidRequest`] for a zero bucket budget
    /// or an attribute absent from the distribution.
    pub fn build(
        dist: &Distribution,
        attr: AttrId,
        max_buckets: usize,
        criterion: SplitCriterion,
    ) -> Result<Self, HistogramError> {
        let mut builder = OneDimBuilder::new(dist, attr, criterion)?;
        if max_buckets == 0 {
            return Err(HistogramError::InvalidRequest {
                reason: "bucket budget must be positive".into(),
            });
        }
        while builder.bucket_count() < max_buckets && builder.split_once() {}
        Ok(builder.finish())
    }

    /// Builds an **equi-width** histogram: the value span is divided into
    /// `buckets` ranges of (nearly) equal width. The classic pre-MaxDiff
    /// scheme, retained for comparison.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::InvalidRequest`] for a zero bucket budget
    /// or an attribute absent from the distribution.
    pub fn build_equi_width(
        dist: &Distribution,
        attr: AttrId,
        buckets: usize,
    ) -> Result<Self, HistogramError> {
        let values = validated_values(dist, attr, buckets)?;
        let lo = values[0].0;
        let hi = values[values.len() - 1].0;
        let span = u64::from(hi - lo) + 1;
        let buckets = buckets.min(span as usize);
        let mut out: Vec<Bucket1> = Vec::with_capacity(buckets);
        for b in 0..buckets as u64 {
            let blo = lo + (b * span / buckets as u64) as u32;
            let bhi = lo + ((b + 1) * span / buckets as u64) as u32 - 1;
            let freq = values.iter().filter(|&&(v, _)| v >= blo && v <= bhi).map(|&(_, f)| f).sum();
            out.push(Bucket1 { lo: blo, hi: bhi, freq });
        }
        let total = out.iter().map(|b| b.freq).sum();
        Ok(Self { attr, buckets: out, total })
    }

    /// Builds an **equi-depth** histogram: bucket boundaries are chosen so
    /// every bucket holds (nearly) the same frequency mass.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::InvalidRequest`] for a zero bucket budget
    /// or an attribute absent from the distribution.
    pub fn build_equi_depth(
        dist: &Distribution,
        attr: AttrId,
        buckets: usize,
    ) -> Result<Self, HistogramError> {
        let values = validated_values(dist, attr, buckets)?;
        let buckets = buckets.min(values.len());
        let mut remaining_total: f64 = values.iter().map(|&(_, f)| f).sum();
        let mut out: Vec<Bucket1> = Vec::with_capacity(buckets);
        let mut acc = 0.0;
        let mut start = 0usize;
        for (i, &(v, f)) in values.iter().enumerate() {
            acc += f;
            let is_last_value = i + 1 == values.len();
            let remaining_buckets = buckets - out.len();
            let remaining_values = values.len() - i - 1;
            // Re-quota against what is left so early heavy buckets do not
            // starve the rest; force a close when the remaining values are
            // exactly enough for the remaining buckets.
            let quota = remaining_total / remaining_buckets as f64;
            let forced = remaining_values == remaining_buckets - 1;
            if is_last_value || forced || (acc >= quota * 0.999 && out.len() + 1 < buckets) {
                out.push(Bucket1 { lo: values[start].0, hi: v, freq: acc });
                remaining_total -= acc;
                acc = 0.0;
                start = i + 1;
                if out.len() == buckets {
                    break;
                }
            }
        }
        let total = out.iter().map(|b| b.freq).sum();
        Ok(Self { attr, buckets: out, total })
    }

    /// Assembles a histogram directly from pre-computed buckets, without
    /// consulting a [`Distribution`]. Buckets must be in ascending value
    /// order, pairwise disjoint, with `lo <= hi` and finite non-negative
    /// frequencies.
    ///
    /// This is the entry point for callers that bucketize a stream
    /// themselves — notably the telemetry crate's latency histograms,
    /// which reuse this type (and [`OneDimHistogram::percentile`]) as
    /// their snapshot representation.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::InvalidRequest`] if the buckets are
    /// unsorted, overlapping, inverted, or carry non-finite or negative
    /// frequencies.
    pub fn from_buckets(attr: AttrId, buckets: Vec<Bucket1>) -> Result<Self, HistogramError> {
        for b in &buckets {
            if b.lo > b.hi {
                return Err(HistogramError::InvalidRequest {
                    reason: format!("inverted bucket [{}, {}]", b.lo, b.hi),
                });
            }
            if !b.freq.is_finite() || b.freq < 0.0 {
                return Err(HistogramError::InvalidRequest {
                    reason: format!("bucket frequency {} must be finite and >= 0", b.freq),
                });
            }
        }
        for w in buckets.windows(2) {
            if w[1].lo <= w[0].hi {
                return Err(HistogramError::InvalidRequest {
                    reason: format!(
                        "buckets must be sorted and disjoint: [{}, {}] then [{}, {}]",
                        w[0].lo, w[0].hi, w[1].lo, w[1].hi
                    ),
                });
            }
        }
        let total = buckets.iter().map(|b| b.freq).sum();
        Ok(Self { attr, buckets, total })
    }

    /// The value below which `q` percent of the total mass falls, under
    /// the same intra-bucket uniformity assumption as
    /// [`OneDimHistogram::estimate_range`]. `None` when `q` is outside
    /// `[0, 100]` or the histogram holds no mass.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if !(0.0..=100.0).contains(&q) || self.total <= 0.0 {
            return None;
        }
        let target = self.total * q / 100.0;
        let mut acc = 0.0;
        for b in &self.buckets {
            if acc + b.freq >= target {
                let need = (target - acc).max(0.0);
                let fraction = if b.freq > 0.0 { need / b.freq } else { 0.0 };
                return Some(f64::from(b.lo) + fraction * b.width() as f64);
            }
            acc += b.freq;
        }
        self.buckets.last().map(|b| f64::from(b.hi) + 1.0)
    }

    /// The attribute this histogram covers.
    #[must_use]
    pub fn attr(&self) -> AttrId {
        self.attr
    }

    /// The buckets in ascending value order.
    #[must_use]
    pub fn buckets(&self) -> &[Bucket1] {
        &self.buckets
    }

    /// Number of buckets `b`.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Total frequency mass `N` of the underlying marginal.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Estimated frequency mass in the inclusive range `[lo, hi]` under
    /// intra-bucket uniformity.
    ///
    /// Buckets are sorted and disjoint (every constructor guarantees it),
    /// so the scan binary-searches to the first bucket that can overlap
    /// and stops at the first past the range — `O(log b + touched)`
    /// instead of `O(b)`. The overlapping buckets are visited in exactly
    /// the order the full scan visited them, so the accumulated mass is
    /// bit-identical to the linear version.
    #[must_use]
    pub fn estimate_range(&self, lo: u32, hi: u32) -> f64 {
        if lo > hi {
            return 0.0;
        }
        let first = self.buckets.partition_point(|b| b.hi < lo);
        let mut mass = 0.0;
        for b in &self.buckets[first..] {
            if b.lo > hi {
                break;
            }
            let olo = b.lo.max(lo);
            let ohi = b.hi.min(hi);
            let fraction = (f64::from(ohi - olo) + 1.0) / b.width() as f64;
            mass += b.freq * fraction;
        }
        mass
    }

    /// Estimated frequency of a single value.
    #[must_use]
    pub fn estimate_point(&self, v: u32) -> f64 {
        self.estimate_range(v, v)
    }

    /// Storage footprint in bytes under the paper's accounting (§4.1):
    /// 4 bytes per bucket separator + 4 bytes per bucket frequency = `8b`.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        8 * self.buckets.len()
    }
}

/// Shared validation: positive budget, attribute present, non-empty data.
fn validated_values(
    dist: &Distribution,
    attr: AttrId,
    buckets: usize,
) -> Result<Vec<(u32, f64)>, HistogramError> {
    if buckets == 0 {
        return Err(HistogramError::InvalidRequest {
            reason: "bucket budget must be positive".into(),
        });
    }
    if !dist.attrs().contains(attr) {
        return Err(HistogramError::InvalidRequest {
            reason: format!("attribute {attr} not in the distribution"),
        });
    }
    let values = dist.values_along(attr);
    if values.is_empty() {
        return Err(HistogramError::InvalidRequest {
            reason: "cannot build a histogram over an empty distribution".into(),
        });
    }
    Ok(values)
}

/// Incremental builder for [`OneDimHistogram`].
#[derive(Debug, Clone)]
pub struct OneDimBuilder {
    attr: AttrId,
    criterion: SplitCriterion,
    /// Sorted distinct `(value, frequency)` pairs of the marginal.
    values: Vec<(u32, f64)>,
    /// Bucket boundaries as index ranges into `values`: bucket `i` covers
    /// `values[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<usize>,
}

impl OneDimBuilder {
    /// Starts a builder with a single all-encompassing bucket.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::InvalidRequest`] if `attr` is not one of
    /// `dist`'s attributes or the distribution is empty.
    pub fn new(
        dist: &Distribution,
        attr: AttrId,
        criterion: SplitCriterion,
    ) -> Result<Self, HistogramError> {
        if !dist.attrs().contains(attr) {
            return Err(HistogramError::InvalidRequest {
                reason: format!("attribute {attr} not in the distribution"),
            });
        }
        let values = dist.values_along(attr);
        if values.is_empty() {
            return Err(HistogramError::InvalidRequest {
                reason: "cannot build a histogram over an empty distribution".into(),
            });
        }
        let bounds = vec![0, values.len()];
        Ok(Self { attr, criterion, values, bounds })
    }

    /// Current number of buckets.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Current total approximation error (sum over buckets of the SSE of
    /// member-value frequencies around the bucket mean).
    #[must_use]
    pub fn error(&self) -> f64 {
        self.bucket_ranges().map(|(lo, hi)| sse(&self.values[lo..hi])).sum()
    }

    fn bucket_ranges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.bounds.windows(2).map(|w| (w[0], w[1]))
    }

    /// The split the construction algorithm would perform next:
    /// `(bucket index, split value, criterion score)`. `None` when every
    /// bucket is a single value.
    #[must_use]
    pub fn peek_split(&self) -> Option<(usize, u32, f64)> {
        let mut best: Option<(usize, u32, f64)> = None;
        for (i, (lo, hi)) in self.bucket_ranges().enumerate() {
            if let Some(choice) = best_split(&self.values[lo..hi], self.criterion) {
                if best.is_none_or(|(_, _, s)| choice.score > s) {
                    best = Some((i, choice.value, choice.score));
                }
            }
        }
        best
    }

    /// The decrease in [`OneDimBuilder::error`] the next split would
    /// achieve. `None` when no split is possible.
    #[must_use]
    pub fn peek_gain(&self) -> Option<f64> {
        let (bucket, value, _) = self.peek_split()?;
        let (lo, hi) = (self.bounds[bucket], self.bounds[bucket + 1]);
        let run = &self.values[lo..hi];
        let mid = run.partition_point(|&(v, _)| v < value);
        Some(sse(run) - sse(&run[..mid]) - sse(&run[mid..]))
    }

    /// Applies the next split. Returns `false` when no split is possible.
    pub fn split_once(&mut self) -> bool {
        let Some((bucket, value, _)) = self.peek_split() else {
            return false;
        };
        let (lo, hi) = (self.bounds[bucket], self.bounds[bucket + 1]);
        let mid = lo + self.values[lo..hi].partition_point(|&(v, _)| v < value);
        debug_assert!(mid > lo && mid < hi, "split must be interior");
        self.bounds.insert(bucket + 1, mid);
        true
    }

    /// Materializes the histogram.
    #[must_use]
    pub fn finish(&self) -> OneDimHistogram {
        let buckets: Vec<Bucket1> = self
            .bucket_ranges()
            .map(|(lo, hi)| Bucket1 {
                lo: self.values[lo].0,
                hi: self.values[hi - 1].0,
                freq: self.values[lo..hi].iter().map(|&(_, f)| f).sum(),
            })
            .collect();
        let total = buckets.iter().map(|b| b.freq).sum();
        OneDimHistogram { attr: self.attr, buckets, total }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbhist_distribution::{AttrSet, Relation, Schema};

    /// A skewed 1-D distribution: value v occurs (v+1)² times, v in 0..8.
    fn skewed() -> Distribution {
        let schema = Schema::new(vec![("x", 8)]).unwrap();
        let mut rows = Vec::new();
        for v in 0..8u32 {
            for _ in 0..(v + 1) * (v + 1) {
                rows.push(vec![v]);
            }
        }
        Relation::from_rows(schema, rows).unwrap().distribution()
    }

    #[test]
    fn build_respects_budget() {
        let d = skewed();
        for b in [1usize, 2, 4, 8, 100] {
            let h = OneDimHistogram::build(&d, 0, b, SplitCriterion::MaxDiff).unwrap();
            assert!(h.bucket_count() <= b.min(8));
            assert!((h.total() - d.total()).abs() < 1e-9, "mass conserved");
        }
        // Budget larger than distinct values saturates at 8 buckets.
        let h = OneDimHistogram::build(&d, 0, 100, SplitCriterion::MaxDiff).unwrap();
        assert_eq!(h.bucket_count(), 8);
    }

    #[test]
    fn invalid_requests() {
        let d = skewed();
        assert!(OneDimHistogram::build(&d, 0, 0, SplitCriterion::MaxDiff).is_err());
        assert!(OneDimHistogram::build(&d, 3, 4, SplitCriterion::MaxDiff).is_err());
    }

    #[test]
    fn exact_when_saturated() {
        // With one bucket per distinct value, estimates are exact.
        let d = skewed();
        let h = OneDimHistogram::build(&d, 0, 8, SplitCriterion::MaxDiff).unwrap();
        for v in 0..8u32 {
            let exact = f64::from((v + 1) * (v + 1));
            assert!((h.estimate_point(v) - exact).abs() < 1e-9);
        }
        assert!((h.estimate_range(0, 7) - d.total()).abs() < 1e-9);
        assert_eq!(h.estimate_range(5, 2), 0.0, "inverted range is empty");
    }

    #[test]
    fn uniformity_within_bucket() {
        let d = skewed();
        let h = OneDimHistogram::build(&d, 0, 1, SplitCriterion::MaxDiff).unwrap();
        assert_eq!(h.bucket_count(), 1);
        // A single bucket spreads total mass uniformly over its span.
        let per_value = d.total() / 8.0;
        assert!((h.estimate_point(0) - per_value).abs() < 1e-9);
        assert!((h.estimate_range(0, 3) - 4.0 * per_value).abs() < 1e-9);
    }

    #[test]
    fn error_decreases_with_splits() {
        let d = skewed();
        let mut b = OneDimBuilder::new(&d, 0, SplitCriterion::VOptimal).unwrap();
        let mut prev = b.error();
        while b.split_once() {
            let cur = b.error();
            assert!(cur <= prev + 1e-9, "error must not increase");
            prev = cur;
        }
        assert!(prev.abs() < 1e-9, "fully split histogram has zero error");
        assert_eq!(b.bucket_count(), 8);
    }

    #[test]
    fn peek_gain_matches_actual() {
        let d = skewed();
        let mut b = OneDimBuilder::new(&d, 0, SplitCriterion::MaxDiff).unwrap();
        while let Some(gain) = b.peek_gain() {
            let before = b.error();
            assert!(b.split_once());
            let actual = before - b.error();
            assert!((gain - actual).abs() < 1e-9);
        }
        assert!(!b.split_once());
    }

    #[test]
    fn storage_accounting() {
        let d = skewed();
        let h = OneDimHistogram::build(&d, 0, 4, SplitCriterion::MaxDiff).unwrap();
        assert_eq!(h.storage_bytes(), 8 * h.bucket_count());
    }

    #[test]
    fn equi_width_buckets_span_evenly() {
        let d = skewed();
        let h = OneDimHistogram::build_equi_width(&d, 0, 4).unwrap();
        assert_eq!(h.bucket_count(), 4);
        assert!((h.total() - d.total()).abs() < 1e-9);
        // Widths differ by at most one.
        let widths: Vec<u64> = h.buckets().iter().map(Bucket1::width).collect();
        let (min, max) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
        assert!(max - min <= 1, "{widths:?}");
        // Buckets tile the value span without gaps.
        for w in h.buckets().windows(2) {
            assert_eq!(w[1].lo, w[0].hi + 1);
        }
        // Over-budget saturates at the span.
        let h = OneDimHistogram::build_equi_width(&d, 0, 100).unwrap();
        assert_eq!(h.bucket_count(), 8);
    }

    #[test]
    fn equi_depth_balances_mass() {
        let d = skewed();
        let h = OneDimHistogram::build_equi_depth(&d, 0, 4).unwrap();
        assert_eq!(h.bucket_count(), 4);
        assert!((h.total() - d.total()).abs() < 1e-9);
        // No bucket holds more than ~2x the ideal share plus the largest
        // single value (depth balancing cannot split a single value).
        let ideal = d.total() / 4.0;
        let max_single = 64.0; // (7+1)^2
        for b in h.buckets() {
            assert!(b.freq <= ideal + max_single, "{b:?}");
        }
    }

    #[test]
    fn classic_policies_validate_input() {
        let d = skewed();
        assert!(OneDimHistogram::build_equi_width(&d, 0, 0).is_err());
        assert!(OneDimHistogram::build_equi_width(&d, 7, 4).is_err());
        assert!(OneDimHistogram::build_equi_depth(&d, 0, 0).is_err());
        assert!(OneDimHistogram::build_equi_depth(&d, 7, 4).is_err());
    }

    #[test]
    fn windowed_range_scan_matches_linear_reference() {
        let d = skewed();
        for nb in [1usize, 2, 3, 5, 8] {
            let h = OneDimHistogram::build(&d, 0, nb, SplitCriterion::MaxDiff).unwrap();
            for lo in 0..8u32 {
                for hi in 0..8u32 {
                    // The pre-windowing linear scan, verbatim.
                    let mut reference = 0.0;
                    if lo <= hi {
                        for b in h.buckets() {
                            if b.hi < lo || b.lo > hi {
                                continue;
                            }
                            let olo = b.lo.max(lo);
                            let ohi = b.hi.min(hi);
                            reference += b.freq * ((f64::from(ohi - olo) + 1.0) / b.width() as f64);
                        }
                    }
                    assert_eq!(h.estimate_range(lo, hi).to_bits(), reference.to_bits());
                }
            }
        }
    }

    #[test]
    fn works_on_multidim_marginal() {
        let schema = Schema::new(vec![("a", 4), ("b", 6)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..240u32).map(|i| vec![i % 4, (i / 4) % 6]).collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let joint = rel.distribution();
        let h = OneDimHistogram::build(&joint, 1, 3, SplitCriterion::MaxDiff).unwrap();
        assert_eq!(h.attr(), 1);
        assert!((h.total() - 240.0).abs() < 1e-9);
        let exact = rel.marginal(&AttrSet::singleton(1)).unwrap();
        // Uniform marginal: even a 3-bucket histogram is exact.
        for v in 0..6u32 {
            assert!((h.estimate_point(v) - exact.frequency(&[v])).abs() < 1e-9);
        }
    }
}
