//! Baseline selectivity estimators (paper §4.1).
//!
//! * [`IndEstimator`] — one one-dimensional histogram per attribute plus
//!   the full-independence assumption (what commercial systems of the era
//!   shipped). Buckets are allocated across attributes with
//!   `IncrementalGains`, exactly as the paper describes.
//! * [`MhistEstimator`] — a single full-dimensional MHIST-2 histogram over
//!   all attributes (Poosala & Ioannidis), stored as a split tree at `9b`
//!   bytes.
//! * [`SamplingEstimator`] — a uniform row sample scaled to the table
//!   size; the paper notes that at synopsis-scale budgets the sample is so
//!   small that most range queries hit zero sampled tuples, and our
//!   implementation reproduces that failure mode.

use dbhist_distribution::{AttrId, Relation};
use dbhist_histogram::codec::split_tree_bytes;
use dbhist_histogram::mhist::MhistBuilder;
use dbhist_histogram::{OneDimHistogram, SplitCriterion, SplitTree};

use crate::alloc::incremental_gains;
use crate::build::{IncrementalBuilder, OneDimCliqueBuilder, MHIST_BYTES_PER_BUCKET};
use crate::error::SynopsisError;
use crate::estimator::SelectivityEstimator;
use crate::query::Query;

/// The `IND` baseline: per-attribute histograms + mutual independence.
#[derive(Debug, Clone)]
pub struct IndEstimator {
    histograms: Vec<OneDimHistogram>,
    total: f64,
    bytes: usize,
}

impl IndEstimator {
    /// Builds one histogram per attribute, allocating `budget_bytes`
    /// across them with `IncrementalGains` (total variance as the error
    /// function, per §4.1).
    ///
    /// # Errors
    ///
    /// Fails when the budget cannot hold one bucket per attribute.
    pub fn build(
        relation: &Relation,
        budget_bytes: usize,
        criterion: SplitCriterion,
    ) -> Result<Self, SynopsisError> {
        let n = relation.schema().arity();
        let joint = relation.distribution();
        let mut builders: Vec<OneDimCliqueBuilder> = (0..n as AttrId)
            .map(|a| OneDimCliqueBuilder::start(&joint, a, criterion))
            .collect::<Result<_, _>>()?;
        let report = incremental_gains(&mut builders, budget_bytes)?;
        let histograms = builders.iter().map(IncrementalBuilder::finish).collect();
        Ok(Self { histograms, total: relation.row_count() as f64, bytes: report.bytes_used })
    }

    /// The per-attribute histograms.
    #[must_use]
    pub fn histograms(&self) -> &[OneDimHistogram] {
        &self.histograms
    }
}

impl SelectivityEstimator for IndEstimator {
    fn estimate(&self, query: &Query) -> f64 {
        // Under full independence, the joint selectivity is the product of
        // per-attribute selectivities: N · Π (f_a(range) / N).
        if self.total <= 0.0 {
            return 0.0;
        }
        let mut selectivity = 1.0;
        for h in &self.histograms {
            // Intersect all constraints on this attribute.
            let mut range: Option<(u32, u32)> = None;
            for &(a, lo, hi) in query.ranges() {
                if a == h.attr() {
                    range = Some(match range {
                        None => (lo, hi),
                        Some((clo, chi)) => (clo.max(lo), chi.min(hi)),
                    });
                }
            }
            if let Some((lo, hi)) = range {
                if lo > hi {
                    return 0.0;
                }
                selectivity *= h.estimate_range(lo, hi) / self.total;
            }
        }
        self.total * selectivity
    }

    fn storage_bytes(&self) -> usize {
        self.bytes
    }

    fn name(&self) -> &str {
        "IND"
    }
}

/// The full-dimensional `MHIST` baseline.
#[derive(Debug, Clone)]
pub struct MhistEstimator {
    tree: SplitTree,
}

impl MhistEstimator {
    /// Builds an MHIST-2 histogram over the complete joint distribution
    /// with `budget_bytes / 9` buckets.
    ///
    /// # Errors
    ///
    /// Fails when the budget cannot hold a single bucket.
    pub fn build(
        relation: &Relation,
        budget_bytes: usize,
        criterion: SplitCriterion,
    ) -> Result<Self, SynopsisError> {
        let buckets = budget_bytes / MHIST_BYTES_PER_BUCKET;
        if buckets == 0 {
            return Err(SynopsisError::Budget {
                reason: format!("{budget_bytes} bytes cannot hold one MHIST bucket"),
            });
        }
        let joint = relation.distribution();
        let tree = MhistBuilder::build(&joint, buckets, criterion)?;
        Ok(Self { tree })
    }

    /// The underlying split tree.
    #[must_use]
    pub fn tree(&self) -> &SplitTree {
        &self.tree
    }
}

impl SelectivityEstimator for MhistEstimator {
    fn estimate(&self, query: &Query) -> f64 {
        self.tree.mass_in_box(query.ranges())
    }

    fn storage_bytes(&self) -> usize {
        split_tree_bytes(self.tree.bucket_count())
    }

    fn name(&self) -> &str {
        "MHIST"
    }
}

/// The random-sampling baseline.
#[derive(Debug, Clone)]
pub struct SamplingEstimator {
    sample: Relation,
    scale: f64,
    bytes: usize,
}

impl SamplingEstimator {
    /// Keeps `budget_bytes / (4n)` uniformly sampled rows (4 bytes per
    /// attribute value).
    ///
    /// # Errors
    ///
    /// Fails when the budget cannot hold a single row.
    pub fn build(
        relation: &Relation,
        budget_bytes: usize,
        seed: u64,
    ) -> Result<Self, SynopsisError> {
        let n = relation.schema().arity().max(1);
        let rows = budget_bytes / (4 * n);
        if rows == 0 {
            return Err(SynopsisError::Budget {
                reason: format!("{budget_bytes} bytes cannot hold one sampled row"),
            });
        }
        let sample = relation.sample(rows, seed);
        let kept = sample.row_count().max(1) as f64;
        Ok(Self {
            scale: relation.row_count() as f64 / kept,
            bytes: sample.row_count() * 4 * n,
            sample,
        })
    }

    /// Number of sampled rows retained.
    #[must_use]
    pub fn sample_size(&self) -> usize {
        self.sample.row_count()
    }
}

impl SelectivityEstimator for SamplingEstimator {
    fn estimate(&self, query: &Query) -> f64 {
        self.sample.count_range(query.ranges()) as f64 * self.scale
    }

    fn storage_bytes(&self) -> usize {
        self.bytes
    }

    fn name(&self) -> &str {
        "SAMPLE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbhist_distribution::Schema;

    /// a == b (8 values), c independent.
    fn relation() -> Relation {
        let schema = Schema::new(vec![("a", 8), ("b", 8), ("c", 4)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..4096u32).map(|i| vec![i % 8, i % 8, (i / 8) % 4]).collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn ind_good_on_single_attribute() {
        let rel = relation();
        let ind = IndEstimator::build(&rel, 300, SplitCriterion::MaxDiff).unwrap();
        assert!(ind.storage_bytes() <= 300);
        assert_eq!(ind.histograms().len(), 3);
        let est = ind.estimate(&Query::range(0, 0, 3));
        let exact = rel.count_range(&[(0, 0, 3)]) as f64;
        assert!((est - exact).abs() / exact < 0.1, "{est} vs {exact}");
    }

    #[test]
    fn ind_fails_on_correlation() {
        // The independence assumption grossly underestimates the diagonal.
        let rel = relation();
        let ind = IndEstimator::build(&rel, 300, SplitCriterion::MaxDiff).unwrap();
        let est = ind.estimate(&Query::range(0, 2, 2).and(1, 2, 2));
        let exact = rel.count_range(&[(0, 2, 2), (1, 2, 2)]) as f64;
        assert!(exact >= 8.0 * est / 2.0, "IND should underestimate: {est} vs {exact}");
    }

    #[test]
    fn ind_edge_cases() {
        let rel = relation();
        let ind = IndEstimator::build(&rel, 300, SplitCriterion::MaxDiff).unwrap();
        assert!((ind.estimate(&Query::all()) - 4096.0).abs() < 1e-9);
        assert_eq!(ind.estimate(&Query::range(0, 3, 5).and(0, 6, 7)), 0.0, "contradiction");
        // Constraints on unknown attributes are ignored.
        assert!((ind.estimate(&Query::range(9, 0, 0)) - 4096.0).abs() < 1e-9);
    }

    #[test]
    fn mhist_estimates_low_dim_data() {
        let rel = relation();
        let mh = MhistEstimator::build(&rel, 540, SplitCriterion::MaxDiff).unwrap();
        assert!(mh.storage_bytes() <= 540);
        let est = mh.estimate(&Query::range(0, 0, 3));
        let exact = rel.count_range(&[(0, 0, 3)]) as f64;
        assert!((est - exact).abs() / exact < 0.25, "{est} vs {exact}");
        assert!(MhistEstimator::build(&rel, 5, SplitCriterion::MaxDiff).is_err());
    }

    #[test]
    fn sampling_scales_counts() {
        let rel = relation();
        let s = SamplingEstimator::build(&rel, 4096, 7).unwrap();
        assert_eq!(s.sample_size(), 4096 / 12);
        assert!(s.storage_bytes() <= 4096);
        // The whole-table estimate is exact by construction.
        assert!((s.estimate(&Query::all()) - 4096.0).abs() < 1e-9);
        assert!(SamplingEstimator::build(&rel, 4, 7).is_err());
    }

    #[test]
    fn sampling_returns_zero_for_narrow_queries_at_tiny_budgets() {
        // Reproduces the paper's observation: at synopsis-scale budgets the
        // sample misses most narrow conjunctive ranges entirely.
        let rel = relation();
        let s = SamplingEstimator::build(&rel, 120, 7).unwrap(); // 10 rows
        let zeros = (0..8u32)
            .filter(|&v| s.estimate(&Query::range(0, v, v).and(2, v % 4, v % 4)) == 0.0)
            .count();
        assert!(zeros >= 5, "most narrow queries should see no sampled tuple");
    }

    #[test]
    fn names_and_bytes() {
        let rel = relation();
        let ind = IndEstimator::build(&rel, 300, SplitCriterion::MaxDiff).unwrap();
        let mh = MhistEstimator::build(&rel, 300, SplitCriterion::MaxDiff).unwrap();
        let s = SamplingEstimator::build(&rel, 300, 1).unwrap();
        assert_eq!(ind.name(), "IND");
        assert_eq!(mh.name(), "MHIST");
        assert_eq!(s.name(), "SAMPLE");
        for bytes in [ind.storage_bytes(), mh.storage_bytes(), s.storage_bytes()] {
            assert!(bytes > 0 && bytes <= 300);
        }
    }
}
