//! Histogram partitioning constraints (paper §3.2, \[19\]).
//!
//! Construction algorithms repeatedly split "the bucket (or distribution)
//! most in need of partitioning" along one dimension. The *criterion*
//! decides where: **MaxDiff** places a bucket boundary between the two
//! adjacent attribute values with the largest frequency difference, while
//! **V-Optimal** greedily maximizes the reduction in the sum of squared
//! errors (frequency variance) achieved by the split.

/// The split-selection rule used during histogram construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum SplitCriterion {
    /// Split between the adjacent values with the largest frequency
    /// difference (the paper's experimental default).
    #[default]
    MaxDiff,
    /// Split to maximize the reduction in within-bucket frequency
    /// variance (greedy V-Optimal).
    VOptimal,
}

/// A proposed split point within a run of values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitChoice {
    /// The split value `v`: the left part holds values `< v`, the right
    /// part values `≥ v`. Always strictly inside the run, so both parts
    /// are non-empty.
    pub value: u32,
    /// The criterion's score (higher = more in need of partitioning).
    pub score: f64,
}

/// Finds the best split of a sorted run of distinct `(value, frequency)`
/// pairs under `criterion`. Returns `None` for runs with fewer than two
/// values (nothing to split).
#[must_use]
pub fn best_split(values: &[(u32, f64)], criterion: SplitCriterion) -> Option<SplitChoice> {
    if values.len() < 2 {
        return None;
    }
    debug_assert!(values.windows(2).all(|w| w[0].0 < w[1].0), "values must be sorted and distinct");
    match criterion {
        SplitCriterion::MaxDiff => {
            let mut best = SplitChoice { value: values[1].0, score: f64::NEG_INFINITY };
            for w in values.windows(2) {
                let score = (w[1].1 - w[0].1).abs();
                if score > best.score {
                    best = SplitChoice { value: w[1].0, score };
                }
            }
            Some(best)
        }
        SplitCriterion::VOptimal => {
            // SSE of a run from its sums of f and f²; the prefix sums are
            // carried along the scan and the suffix sums are the totals
            // less the prefix, so nothing is allocated.
            let sse = |sum: f64, sum_sq: f64, k: usize| sum_sq - sum * sum / k as f64;
            let (sum, sum_sq) =
                values.iter().fold((0.0, 0.0), |(s, q), &(_, f)| (s + f, q + f * f));
            let n = values.len();
            let total = sse(sum, sum_sq, n);
            let mut best = SplitChoice { value: values[1].0, score: f64::NEG_INFINITY };
            let (mut prefix, mut prefix_sq) = (0.0, 0.0);
            for (i, &(value, f)) in values.iter().enumerate() {
                if i > 0 {
                    let score = total
                        - sse(prefix, prefix_sq, i)
                        - sse(sum - prefix, sum_sq - prefix_sq, n - i);
                    if score > best.score {
                        best = SplitChoice { value, score };
                    }
                }
                prefix += f;
                prefix_sq += f * f;
            }
            Some(best)
        }
    }
}

/// Like [`best_split`], but aware of the bucket's box `[lo, hi]` along the
/// dimension: in addition to boundaries between adjacent *present* values,
/// it proposes boundaries that trim *empty* domain regions (box margins
/// and interior gaps), treating absent positions as zero-frequency values.
///
/// This matters under the split-tree representation: bucket extents are
/// implied by split points rather than stored per bucket, so a bucket
/// whose only value sits in a wide empty box spreads its mass over dead
/// space unless a split isolates it. Classic MHIST avoids the problem by
/// storing data-driven bucket boundaries; trimming splits are the
/// equivalent mechanism here. Gap boundaries are scored by the adjacent
/// present frequency (its difference against zero) for MaxDiff, and by
/// that frequency squared (an SSE-scale proxy) for V-Optimal.
#[must_use]
pub fn best_split_bounded(
    values: &[(u32, f64)],
    lo: u32,
    hi: u32,
    criterion: SplitCriterion,
) -> Option<SplitChoice> {
    let mut best = best_split(values, criterion);
    if values.is_empty() {
        return None;
    }
    let gap_score = |f: f64| match criterion {
        SplitCriterion::MaxDiff => f,
        SplitCriterion::VOptimal => f * f,
    };
    // Candidates in a fixed order (leading margin, trailing margin, then
    // interior gaps left to right); the first of equal scores wins.
    let mut consider = |value: u32, f: f64| {
        let score = gap_score(f);
        if value > lo && value <= hi && best.is_none_or(|b| score > b.score) {
            best = Some(SplitChoice { value, score });
        }
    };
    let first = values[0];
    let last = values[values.len() - 1];
    if first.0 > lo {
        consider(first.0, first.1);
    }
    if last.0 < hi {
        consider(last.0 + 1, last.1);
    }
    for w in values.windows(2) {
        if w[1].0 > w[0].0 + 1 {
            consider(w[0].0 + 1, w[0].1);
            consider(w[1].0, w[1].1);
        }
    }
    best
}

/// Sum of squared errors of the frequencies around their mean — the
/// variance-style error measure used when ranking buckets for V-Optimal
/// splits and when reporting histogram approximation error.
#[must_use]
pub fn sse(values: &[(u32, f64)]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().map(|&(_, f)| f).sum::<f64>() / n;
    values.iter().map(|&(_, f)| (f - mean).powi(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn too_short_runs() {
        assert_eq!(best_split(&[], SplitCriterion::MaxDiff), None);
        assert_eq!(best_split(&[(3, 5.0)], SplitCriterion::VOptimal), None);
    }

    #[test]
    fn maxdiff_picks_largest_jump() {
        let vals = [(0, 10.0), (1, 11.0), (2, 50.0), (3, 49.0)];
        let s = best_split(&vals, SplitCriterion::MaxDiff).unwrap();
        assert_eq!(s.value, 2);
        assert!((s.score - 39.0).abs() < 1e-12);
    }

    #[test]
    fn maxdiff_handles_drops() {
        let vals = [(0, 90.0), (5, 10.0), (9, 12.0)];
        let s = best_split(&vals, SplitCriterion::MaxDiff).unwrap();
        assert_eq!(s.value, 5);
        assert!((s.score - 80.0).abs() < 1e-12);
    }

    #[test]
    fn voptimal_separates_two_levels() {
        // Two flat plateaus: the optimal split isolates them exactly and
        // achieves zero residual SSE.
        let vals = [(0, 10.0), (1, 10.0), (2, 10.0), (3, 99.0), (4, 99.0)];
        let s = best_split(&vals, SplitCriterion::VOptimal).unwrap();
        assert_eq!(s.value, 3);
        let total = sse(&vals);
        assert!((s.score - total).abs() < 1e-9, "full variance removed");
    }

    #[test]
    fn voptimal_score_is_nonnegative() {
        let vals = [(0, 3.0), (2, 7.0), (5, 1.0), (6, 4.0), (9, 9.0)];
        let s = best_split(&vals, SplitCriterion::VOptimal).unwrap();
        assert!(s.score >= 0.0);
        assert!(vals.iter().any(|&(v, _)| v == s.value));
        assert_ne!(s.value, vals[0].0, "split must be interior");
    }

    #[test]
    fn bounded_trims_leading_and_trailing_gaps() {
        // Single present value in a wide box: the only useful split
        // isolates it from the dead space.
        let vals = [(5, 100.0)];
        let s = best_split_bounded(&vals, 0, 20, SplitCriterion::MaxDiff).unwrap();
        assert!(s.value == 5 || s.value == 6, "got {}", s.value);
        assert_eq!(s.score, 100.0);
        // Tight box: nothing to do.
        assert_eq!(best_split_bounded(&vals, 5, 5, SplitCriterion::MaxDiff), None);
    }

    #[test]
    fn bounded_prefers_big_gap_trim_over_small_diff() {
        // Values 0 (huge) and 50 (small) with a wide interior gap: trimming
        // the gap next to the huge value beats the tiny adjacent diffs.
        let vals = [(0, 5000.0), (50, 10.0), (51, 12.0)];
        let s = best_split_bounded(&vals, 0, 112, SplitCriterion::MaxDiff).unwrap();
        assert_eq!(s.value, 1, "isolate the heavy value at the gap edge");
        assert_eq!(s.score, 5000.0);
    }

    #[test]
    fn bounded_equals_plain_when_dense() {
        // No gaps and a tight box: bounded must agree with the plain split.
        let vals = [(0, 10.0), (1, 11.0), (2, 50.0), (3, 49.0)];
        for criterion in [SplitCriterion::MaxDiff, SplitCriterion::VOptimal] {
            assert_eq!(best_split_bounded(&vals, 0, 3, criterion), best_split(&vals, criterion));
        }
    }

    #[test]
    fn bounded_empty_values() {
        assert_eq!(best_split_bounded(&[], 0, 9, SplitCriterion::MaxDiff), None);
    }

    #[test]
    fn sse_basics() {
        assert_eq!(sse(&[]), 0.0);
        assert_eq!(sse(&[(1, 5.0)]), 0.0);
        assert_eq!(sse(&[(0, 4.0), (1, 4.0)]), 0.0);
        // Values 2 and 6: mean 4, SSE = 4 + 4 = 8.
        assert!((sse(&[(0, 2.0), (1, 6.0)]) - 8.0).abs() < 1e-12);
    }
}
