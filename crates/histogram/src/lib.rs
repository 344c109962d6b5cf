//! Histogram structures for dependency-based synopses (paper §3.2–§3.3.2).
//!
//! This crate provides every histogram family the paper's evaluation uses:
//!
//! * [`one_dim::OneDimHistogram`] — classic bucketized one-dimensional
//!   histograms (EquiWidth / EquiDepth / MaxDiff / V-Optimal), the building
//!   block of the `IND` full-independence baseline.
//! * [`mhist::SplitTree`] — multi-dimensional MHIST histograms in the
//!   paper's novel space-efficient *split tree* representation (`3b − 2`
//!   stored numbers for `b` buckets instead of `b(2n+1)`), built with the
//!   MHIST-2 greedy of Poosala & Ioannidis, plus the paper's
//!   `restrictNode` / `project` (Fig. 4) / `product` (Fig. 5) operators
//!   that work *directly on split trees*.
//! * [`grid::GridHistogram`] — rectangular `p × q × ...` array
//!   partitionings with straightforward projection/multiplication,
//!   included (as in the paper) as a simple alternative clique-histogram
//!   type.
//!
//! Both multi-dimensional families provide the same inherent operations
//! — `project`, `product`, and `mass_in_box` — which `dbhist-core`'s
//! `Factor` trait, the one factor interface of the query engine, calls
//! directly. The workhorse is `mass_in_box`: the estimated frequency mass
//! inside a conjunctive range box under the intra-bucket uniformity
//! assumption. Range-selectivity estimation, projection weights, and
//! product weights all reduce to this primitive.
//!
//! [`codec`] provides exact byte accounting (and a binary wire format)
//! matching the paper's storage model: `9b` bytes for a `b`-bucket MHIST
//! split tree, `8b` bytes for one-dimensional histograms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bbox;
pub mod codec;
pub mod criterion;
pub mod error;
pub mod grid;
pub mod mhist;
pub mod one_dim;
pub mod wavelet;

pub use bbox::BoundingBox;
pub use criterion::SplitCriterion;
pub use error::HistogramError;
pub use grid::GridHistogram;
pub use mhist::SplitTree;
pub use one_dim::OneDimHistogram;

/// Shared fixtures for the builders' cache-consistency tests.
#[cfg(test)]
mod test_support {
    use dbhist_distribution::{AttrSet, Distribution, Schema};
    use proptest::prelude::*;

    use crate::criterion::SplitCriterion;

    /// Random distributions over one to three attributes with domain sizes
    /// from 1 (a single-value attribute) to 9, up to 40 non-zero cells and
    /// fractional frequencies, paired with a split criterion.
    pub(crate) fn distribution_strategy() -> impl Strategy<Value = (Distribution, SplitCriterion)> {
        any::<u64>().prop_map(|seed| {
            let mut state = seed | 1;
            let mut next = move |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            let arity = 1 + next(3) as usize;
            let domains: Vec<u32> = (0..arity).map(|_| 1 + next(9) as u32).collect();
            let cells: Vec<(Vec<u32>, f64)> = (0..1 + next(40))
                .map(|_| {
                    let key = domains.iter().map(|&d| next(u64::from(d)) as u32).collect();
                    // Eighths, or an arbitrary fraction with a long mantissa.
                    let weight = if next(2) == 0 {
                        (1 + next(400)) as f64 / 8.0
                    } else {
                        (1 + next(1 << 20)) as f64 / 21_001.0
                    };
                    (key, weight)
                })
                .collect();
            let criterion =
                if next(2) == 0 { SplitCriterion::MaxDiff } else { SplitCriterion::VOptimal };
            (distribution(&domains, cells.iter().map(|(k, w)| (k.as_slice(), *w))), criterion)
        })
    }

    /// A distribution over attributes `0..domains.len()` with the given
    /// domain sizes, accumulating `cells` (repeated keys add up).
    fn distribution<'a>(
        domains: &[u32],
        cells: impl IntoIterator<Item = (&'a [u32], f64)>,
    ) -> Distribution {
        let schema = Schema::new(domains.iter().enumerate().map(|(i, &d)| (format!("a{i}"), d)))
            .expect("valid schema");
        let attrs = AttrSet::from_ids(0..domains.len() as u16);
        let mut dist = Distribution::empty(schema, attrs).expect("attributes are in the schema");
        for (key, weight) in cells {
            dist.add(key, weight);
        }
        dist
    }

    /// Fractional frequencies over a single-value attribute and two sparse
    /// ones, with gaps that force trimming splits.
    pub(crate) fn fractional() -> Distribution {
        distribution(
            &[1, 7, 5],
            [
                (&[0, 0, 4][..], 0.125),
                (&[0, 3, 0][..], 2.5),
                (&[0, 3, 1][..], 1.0 / 3.0),
                (&[0, 6, 2][..], 7.75),
                (&[0, 2, 2][..], 0.1),
            ],
        )
    }
}
