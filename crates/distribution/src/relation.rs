//! Materialized relations of integer-coded rows.
//!
//! A [`Relation`] is the paper's input table `R`: `N` tuples over `n`
//! attributes whose values are integer-coded into `0..|D_j|`. It is stored
//! column-major-free — a flat row-major `Vec<u32>` — which keeps row access
//! cache-friendly for ground-truth query evaluation and marginal counting.

use crate::attr::{AttrId, AttrSet, Schema};
use crate::count::CellCounts;
use crate::distribution::Distribution;
use crate::error::DistributionError;

/// A materialized table of integer-coded tuples.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    /// Row-major values; length is `row_count * schema.arity()`.
    values: Vec<u32>,
}

impl Relation {
    /// Builds a relation from explicit rows, validating arity and domains.
    ///
    /// # Errors
    ///
    /// * [`DistributionError::ArityMismatch`] if a row's length differs from
    ///   the schema arity.
    /// * [`DistributionError::ValueOutOfDomain`] if a value exceeds its
    ///   attribute's domain.
    pub fn from_rows(
        schema: Schema,
        rows: impl IntoIterator<Item = Vec<u32>>,
    ) -> Result<Self, DistributionError> {
        let arity = schema.arity();
        let mut values = Vec::new();
        for row in rows {
            if row.len() != arity {
                return Err(DistributionError::ArityMismatch {
                    expected: arity,
                    actual: row.len(),
                });
            }
            for (j, &v) in row.iter().enumerate() {
                let d = schema.domain_size(j as AttrId);
                if v >= d {
                    return Err(DistributionError::ValueOutOfDomain {
                        attr: j as AttrId,
                        value: v,
                        domain_size: d,
                    });
                }
            }
            values.extend_from_slice(&row);
        }
        Ok(Self { schema, values })
    }

    /// The relation's schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples `N`.
    #[must_use]
    pub fn row_count(&self) -> usize {
        if self.schema.arity() == 0 {
            0
        } else {
            self.values.len() / self.schema.arity()
        }
    }

    /// The `i`-th tuple as a value slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= row_count()`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[u32] {
        let n = self.schema.arity();
        &self.values[i * n..(i + 1) * n]
    }

    /// Iterates over all tuples.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> {
        self.values.chunks_exact(self.schema.arity())
    }

    /// Builds the joint frequency distribution over all attributes
    /// (paper §2.1: the `n`-dimensional contingency table of `R`).
    #[must_use]
    pub fn distribution(&self) -> Distribution {
        #[allow(clippy::expect_used)]
        Distribution::from_relation(self, &self.schema.all_attrs())
            .expect("all_attrs is a valid subset") // lint:allow(panic-surface): all_attrs ⊆ schema attrs by construction
    }

    /// Builds the marginal frequency distribution over `attrs` directly
    /// from the rows by counting packed row codes, not by projecting the
    /// full joint. Callers that only need the marginal's entropy should
    /// use [`Relation::marginal_entropy`], which skips building the cell
    /// map.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::UnknownAttr`] if `attrs` mentions an
    /// attribute not in the schema.
    pub fn marginal(&self, attrs: &AttrSet) -> Result<Distribution, DistributionError> {
        Distribution::from_relation(self, attrs)
    }

    /// Shannon entropy `E(f_S)` of the marginal over `attrs`, in nats,
    /// summed straight from the counted cells without materializing a
    /// [`Distribution`]. Bit-identical to
    /// `self.marginal(attrs)?.entropy()`: the same exact counts are
    /// visited in the same ascending key order.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::UnknownAttr`] if `attrs` mentions an
    /// attribute not in the schema.
    pub fn marginal_entropy(&self, attrs: &AttrSet) -> Result<f64, DistributionError> {
        Ok(CellCounts::new(self, attrs, None)?.entropy())
    }

    /// Counts the tuples matching a conjunction of per-attribute inclusive
    /// ranges `(attr, lo, hi)` — the exact answer to a range-selectivity
    /// query, used as ground truth in the evaluation.
    #[must_use]
    pub fn count_range(&self, ranges: &[(AttrId, u32, u32)]) -> u64 {
        self.rows()
            .filter(|row| {
                ranges.iter().all(|&(a, lo, hi)| {
                    let v = row[usize::from(a)];
                    v >= lo && v <= hi
                })
            })
            .count() as u64
    }

    /// Draws a uniform random sample of `k` rows (without replacement when
    /// `k <= N`, via partial Fisher–Yates over row indices) and returns it
    /// as a new relation. `seed` makes the draw reproducible.
    #[must_use]
    pub fn sample(&self, k: usize, seed: u64) -> Relation {
        let n = self.row_count();
        let k = k.min(n);
        // Partial Fisher–Yates with an xorshift generator; good enough for
        // reservoir-style sampling and keeps `rand` out of this crate.
        let mut indices: Vec<usize> = (0..n).collect();
        // Splitmix-style scramble so nearby seeds diverge, then xorshift.
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        state = (state ^ (state >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        state = (state ^ (state >> 31)) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..k {
            let j = i + (next() as usize) % (n - i);
            indices.swap(i, j);
        }
        let arity = self.schema.arity();
        let mut values = Vec::with_capacity(k * arity);
        for &idx in &indices[..k] {
            values.extend_from_slice(self.row(idx));
        }
        Relation { schema: self.schema.clone(), values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema3() -> Schema {
        Schema::new(vec![("a", 4), ("b", 3), ("c", 5)]).unwrap()
    }

    #[test]
    fn from_rows_validates() {
        let s = schema3();
        assert!(Relation::from_rows(s.clone(), vec![vec![0, 1]]).is_err());
        assert!(Relation::from_rows(s.clone(), vec![vec![0, 1, 9]]).is_err());
        let r = Relation::from_rows(s, vec![vec![0, 1, 2], vec![3, 2, 4]]).unwrap();
        assert_eq!(r.row_count(), 2);
        assert_eq!(r.row(1), &[3, 2, 4]);
    }

    #[test]
    fn count_range_ground_truth() {
        let s = schema3();
        let rows = vec![vec![0, 0, 0], vec![1, 1, 1], vec![2, 2, 2], vec![3, 2, 4], vec![1, 0, 3]];
        let r = Relation::from_rows(s, rows).unwrap();
        assert_eq!(r.count_range(&[]), 5);
        assert_eq!(r.count_range(&[(0, 1, 2)]), 3);
        assert_eq!(r.count_range(&[(0, 1, 2), (1, 1, 2)]), 2);
        assert_eq!(r.count_range(&[(2, 4, 4)]), 1);
        assert_eq!(r.count_range(&[(0, 0, 3), (1, 0, 2), (2, 0, 4)]), 5);
    }

    #[test]
    fn sample_sizes_and_validity() {
        let s = schema3();
        let rows: Vec<Vec<u32>> = (0..100).map(|i| vec![i % 4, i % 3, i % 5]).collect();
        let r = Relation::from_rows(s, rows).unwrap();
        let sm = r.sample(10, 42);
        assert_eq!(sm.row_count(), 10);
        // Oversampling clamps to N.
        assert_eq!(r.sample(1000, 42).row_count(), 100);
        // Deterministic under the same seed.
        let sm2 = r.sample(10, 42);
        assert_eq!(sm.rows().collect::<Vec<_>>(), sm2.rows().collect::<Vec<_>>());
        // Different seed gives a different draw (overwhelmingly likely).
        let sm3 = r.sample(10, 43);
        assert_ne!(sm.rows().collect::<Vec<_>>(), sm3.rows().collect::<Vec<_>>());
    }

    #[test]
    fn sample_without_replacement() {
        let s = Schema::new(vec![("id", 100)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..100).map(|i| vec![i]).collect();
        let r = Relation::from_rows(s, rows).unwrap();
        let sm = r.sample(50, 7);
        let mut seen: Vec<u32> = sm.rows().map(|r| r[0]).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 50, "sampled rows must be distinct");
    }
}
