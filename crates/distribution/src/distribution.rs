//! Sparse frequency distributions over attribute subsets.
//!
//! A [`Distribution`] is a sparse contingency table: a map from value tuples
//! (over a fixed, sorted [`AttrSet`]) to non-negative frequencies. The joint
//! distribution of a relation and every marginal of it are all instances of
//! this one type, which keeps projection ([`Distribution::marginal`]) and
//! information measures ([`Distribution::entropy`]) uniform.
//!
//! Distributions of a relation's rows ([`Distribution::from_relation`]) are
//! counted by the crate's packed-code kernel, which hands over the cells
//! already in ascending key order with exact counts; the cell map is then
//! bulk-built from that ordered stream instead of by one map insert per
//! row.

use crate::attr::{AttrId, AttrSet, Schema};
use crate::count::{CellColumns, CellCounts};
use crate::error::DistributionError;
use crate::relation::Relation;
use std::collections::BTreeMap;

/// A sparse frequency distribution over a subset of a schema's attributes.
///
/// Cell keys are value tuples ordered consistently with the ascending order
/// of [`Distribution::attrs`]. Frequencies are `f64` so the same type serves
/// exact counts and model-estimated (fractional) frequencies.
///
/// Cells live in a `BTreeMap` so every iteration — scoring, bucket
/// construction, serialization — visits them in lexicographic key order.
/// Hash-map iteration order leaked into float accumulation order here once;
/// ordered storage makes the bit-identity invariant structural rather than
/// something each call site must re-establish by sorting.
#[derive(Debug, Clone)]
pub struct Distribution {
    schema: Schema,
    attrs: AttrSet,
    cells: BTreeMap<Box<[u32]>, f64>,
    total: f64,
}

impl Distribution {
    /// Creates an empty distribution over `attrs`.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::UnknownAttr`] if `attrs` references an
    /// attribute outside the schema.
    pub fn empty(schema: Schema, attrs: AttrSet) -> Result<Self, DistributionError> {
        for a in attrs.iter() {
            schema.attr(a)?;
        }
        Ok(Self { schema, attrs, cells: BTreeMap::new(), total: 0.0 })
    }

    /// Builds the marginal distribution over `attrs` from a relation's rows.
    ///
    /// Cells are counted by the crate's one counting kernel (packed row
    /// codes, see DESIGN.md §10 "Counting marginals"), which yields them
    /// in ascending key order with exact integer counts; `total` is the
    /// row count.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::UnknownAttr`] if `attrs` references an
    /// attribute outside the relation's schema.
    pub fn from_relation(rel: &Relation, attrs: &AttrSet) -> Result<Self, DistributionError> {
        Ok(Self::from_counts(rel, attrs, CellCounts::new(rel, attrs, None)?))
    }

    /// The marginal of `rel` over `attrs` whose cells `counts` counted;
    /// `total` is the row count.
    pub(crate) fn from_counts(rel: &Relation, attrs: &AttrSet, counts: CellCounts<'_>) -> Self {
        let mut cells = Vec::with_capacity(counts.cell_count());
        cells.extend(counts.cells().map(|(code, count)| (counts.key(code), count as f64)));
        // Free the counts first: the map's sort buffer and nodes can then
        // reuse their memory.
        drop(counts);
        let dist = Self {
            schema: rel.schema().clone(),
            attrs: attrs.clone(),
            cells: cells.into_iter().collect(),
            total: rel.row_count() as f64,
        };
        #[cfg(debug_assertions)]
        if let Err(violation) = dist.validate() {
            panic!("distribution invariant violated: {violation}"); // lint:allow(panic-surface): debug-only invariant validator
        }
        dist
    }

    /// Structural invariant check (see DESIGN.md, "Invariants & lint
    /// policy"): every cell key must match the attribute arity, every
    /// frequency must be finite and non-negative, and the cached total
    /// must equal the cell sum. Run automatically after construction from
    /// a relation and after projection in debug builds.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let arity = self.attrs.len();
        let mut sum = 0.0f64;
        for (key, f) in &self.cells {
            if key.len() != arity {
                return Err(format!(
                    "cell key of arity {} in a {arity}-ary distribution",
                    key.len()
                ));
            }
            if !f.is_finite() || *f < 0.0 {
                return Err(format!("non-finite or negative frequency {f}"));
            }
            sum += f;
        }
        let drift = (sum - self.total).abs();
        if drift > 1e-6 * (1.0 + self.total.abs()) {
            return Err(format!(
                "cached total {} drifts from cell sum {sum} by {drift}",
                self.total
            ));
        }
        Ok(())
    }

    /// Adds `weight` to the cell at `key` (which must follow the ascending
    /// attribute order of [`Distribution::attrs`]).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the key arity mismatches the attribute set.
    pub fn add(&mut self, key: &[u32], weight: f64) {
        debug_assert_eq!(key.len(), self.attrs.len());
        self.total += weight;
        if let Some(cell) = self.cells.get_mut(key) {
            *cell += weight;
        } else {
            self.cells.insert(key.into(), weight);
        }
    }

    /// The schema this distribution's attributes belong to.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The attribute subset the distribution ranges over.
    #[must_use]
    pub fn attrs(&self) -> &AttrSet {
        &self.attrs
    }

    /// Total mass `N = Σ f` (the paper's tuple count for exact counts).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of non-zero cells.
    #[must_use]
    pub fn support_size(&self) -> usize {
        self.cells.len()
    }

    /// Frequency of a specific value combination (0 for absent cells).
    #[must_use]
    pub fn frequency(&self, key: &[u32]) -> f64 {
        self.cells.get(key).copied().unwrap_or(0.0)
    }

    /// Iterates over `(key, frequency)` pairs for non-zero cells in
    /// ascending lexicographic key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], f64)> {
        self.cells.iter().map(|(k, &v)| (k.as_ref(), v))
    }

    /// Projects the distribution onto `attrs ⊆ self.attrs()` by summing
    /// frequencies over the projected-away attributes (paper §2.1).
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::NotASubset`] if `attrs` is not a subset
    /// of this distribution's attributes.
    pub fn marginal(&self, attrs: &AttrSet) -> Result<Distribution, DistributionError> {
        let mut positions: Vec<usize> = Vec::with_capacity(attrs.len());
        for a in attrs.iter() {
            let Some(p) = self.attrs.position(a) else {
                return Err(DistributionError::NotASubset { missing: a });
            };
            positions.push(p);
        }
        let mut out = Self::empty(self.schema.clone(), attrs.clone())?;
        let mut key: Vec<u32> = vec![0; positions.len()];
        for (cell, &f) in &self.cells {
            for (k, &p) in key.iter_mut().zip(&positions) {
                *k = cell[p];
            }
            out.add(&key, f);
        }
        #[cfg(debug_assertions)]
        {
            if let Err(violation) = out.validate() {
                panic!("distribution invariant violated: {violation}"); // lint:allow(panic-surface): debug-only invariant validator
            }
            let drift = (out.total() - self.total()).abs();
            assert!(
                drift <= 1e-6 * (1.0 + self.total().abs()),
                "projection must preserve mass; drifted by {drift}"
            );
        }
        Ok(out)
    }

    /// Shannon entropy of the frequency distribution, in nats
    /// (paper §2.1): `E(f_S) = log N − (1/N) Σ f log f`.
    ///
    /// Returns `0` for an empty distribution.
    #[must_use]
    pub fn entropy(&self) -> f64 {
        entropy(self.total, self.cells.values().copied())
    }

    /// The cells column by column, in key order (see [`CellColumns`]).
    #[must_use]
    pub fn cell_columns(&self) -> CellColumns {
        let mut values: Vec<Vec<u32>> =
            self.attrs.iter().map(|_| Vec::with_capacity(self.cells.len())).collect();
        let mut freqs = Vec::with_capacity(self.cells.len());
        for (key, &f) in &self.cells {
            for (column, &value) in values.iter_mut().zip(key.iter()) {
                column.push(value);
            }
            freqs.push(f);
        }
        CellColumns {
            attrs: self.attrs.clone(),
            domains: self.attrs.iter().map(|a| self.schema.domain_size(a)).collect(),
            values,
            freqs,
            total: self.total,
        }
    }

    /// Restricts the distribution to cells matching a conjunction of
    /// inclusive ranges and sums their mass — the exact range-count over
    /// this marginal. Attributes absent from the distribution are ignored.
    #[must_use]
    pub fn range_mass(&self, ranges: &[(AttrId, u32, u32)]) -> f64 {
        let constraints: Vec<(usize, u32, u32)> = ranges
            .iter()
            .filter_map(|&(a, lo, hi)| self.attrs.position(a).map(|p| (p, lo, hi)))
            .collect();
        self.cells
            .iter()
            .filter(|(k, _)| constraints.iter().all(|&(p, lo, hi)| k[p] >= lo && k[p] <= hi))
            .map(|(_, &f)| f)
            .sum()
    }

    /// Sorted distinct `(value, aggregated frequency)` pairs along one of
    /// the distribution's attributes — the view histogram construction
    /// needs to find split points.
    ///
    /// # Panics
    ///
    /// Panics if `attr` is not in [`Distribution::attrs`].
    #[must_use]
    pub fn values_along(&self, attr: AttrId) -> Vec<(u32, f64)> {
        #[allow(clippy::expect_used)]
        let p = self
            .attrs
            .position(attr)
            .expect("values_along: attribute must belong to the distribution"); // lint:allow(panic-surface): documented panic contract of values_along
        let mut agg: BTreeMap<u32, f64> = BTreeMap::new();
        for (k, &f) in &self.cells {
            *agg.entry(k[p]).or_insert(0.0) += f;
        }
        agg.into_iter().collect()
    }

    /// Multiplies every frequency by `scale` (used to normalize samples up
    /// to population size).
    pub fn scale(&mut self, scale: f64) {
        for f in self.cells.values_mut() {
            *f *= scale;
        }
        self.total *= scale;
    }
}

/// `E = log N − (1/N) Σ f log f` over the positive frequencies, in the
/// order given; `0` when `total` is not positive. The one entropy formula
/// shared by [`Distribution::entropy`] and [`Relation::marginal_entropy`],
/// so both agree bit for bit when they visit the same cells in the same
/// order.
pub(crate) fn entropy(total: f64, frequencies: impl Iterator<Item = f64>) -> f64 {
    entropy_from_terms(total, frequencies.filter(|&f| f > 0.0).map(|f| f * f.ln()))
}

/// [`entropy`] from the terms `f · ln f` of its non-empty cells, in the
/// order given.
pub(crate) fn entropy_from_terms(total: f64, terms: impl Iterator<Item = f64>) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for term in terms {
        sum += term;
    }
    total.ln() - sum / total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diagonal_relation() -> Relation {
        // a == b always; c cycles independently.
        let schema = Schema::new(vec![("a", 4), ("b", 4), ("c", 2)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..64u32).map(|i| vec![i % 4, i % 4, (i / 4) % 2]).collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn joint_from_relation() {
        let rel = diagonal_relation();
        let d = rel.distribution();
        assert_eq!(d.total(), 64.0);
        assert_eq!(d.support_size(), 8); // 4 diagonal (a,b) x 2 values of c
        assert_eq!(d.frequency(&[1, 1, 0]), 8.0);
        assert_eq!(d.frequency(&[1, 2, 0]), 0.0);
    }

    #[test]
    fn marginal_sums_out() {
        let rel = diagonal_relation();
        let d = rel.distribution();
        let ab = d.marginal(&AttrSet::from_ids([0, 1])).unwrap();
        assert_eq!(ab.total(), 64.0);
        assert_eq!(ab.support_size(), 4);
        assert_eq!(ab.frequency(&[2, 2]), 16.0);
        let c = d.marginal(&AttrSet::from_ids([2])).unwrap();
        assert_eq!(c.frequency(&[0]), 32.0);
        assert_eq!(c.frequency(&[1]), 32.0);
    }

    #[test]
    fn marginal_requires_subset() {
        let rel = diagonal_relation();
        let ab = rel.marginal(&AttrSet::from_ids([0, 1])).unwrap();
        let err = ab.marginal(&AttrSet::from_ids([0, 2])).unwrap_err();
        assert_eq!(err, DistributionError::NotASubset { missing: 2 });
    }

    #[test]
    fn marginal_consistency_direct_vs_projected() {
        let rel = diagonal_relation();
        let via_joint = rel.distribution().marginal(&AttrSet::from_ids([0, 2])).unwrap();
        let direct = rel.marginal(&AttrSet::from_ids([0, 2])).unwrap();
        assert_eq!(via_joint.support_size(), direct.support_size());
        for (k, f) in direct.iter() {
            assert_eq!(via_joint.frequency(k), f);
        }
    }

    #[test]
    fn entropy_uniform_and_degenerate() {
        let schema = Schema::new(vec![("x", 8)]).unwrap();
        // Uniform over 8 values: entropy = ln 8.
        let rows: Vec<Vec<u32>> = (0..8u32).map(|i| vec![i]).collect();
        let rel = Relation::from_rows(schema.clone(), rows).unwrap();
        let d = rel.distribution();
        assert!((d.entropy() - (8.0f64).ln()).abs() < 1e-12);

        // Point mass: entropy = 0.
        let rel = Relation::from_rows(schema, vec![vec![3]; 10]).unwrap();
        assert!(rel.distribution().entropy().abs() < 1e-12);
    }

    #[test]
    fn entropy_empty_is_zero() {
        let schema = Schema::new(vec![("x", 8)]).unwrap();
        let d = Distribution::empty(schema, AttrSet::singleton(0)).unwrap();
        assert_eq!(d.entropy(), 0.0);
    }

    #[test]
    fn entropy_chain_rule_independent() {
        // For independent attributes H(X,Y) = H(X) + H(Y).
        let schema = Schema::new(vec![("x", 4), ("y", 3)]).unwrap();
        let mut rows = Vec::new();
        for x in 0..4u32 {
            for y in 0..3u32 {
                for _ in 0..(x + 1) {
                    rows.push(vec![x, y]);
                }
            }
        }
        let rel = Relation::from_rows(schema, rows).unwrap();
        let joint = rel.distribution();
        let hx = joint.marginal(&AttrSet::singleton(0)).unwrap().entropy();
        let hy = joint.marginal(&AttrSet::singleton(1)).unwrap().entropy();
        assert!((joint.entropy() - hx - hy).abs() < 1e-10);
    }

    #[test]
    fn range_mass_matches_relation_count() {
        let rel = diagonal_relation();
        let d = rel.distribution();
        let ranges = vec![(0u16, 1u32, 2u32), (2u16, 0u32, 0u32)];
        assert_eq!(d.range_mass(&ranges), rel.count_range(&ranges) as f64);
        // Constraints on attributes absent from a marginal are ignored.
        let ab = d.marginal(&AttrSet::from_ids([0, 1])).unwrap();
        assert_eq!(ab.range_mass(&[(2, 0, 0)]), 64.0);
    }

    #[test]
    fn values_along_sorted() {
        let rel = diagonal_relation();
        let d = rel.distribution();
        let vals = d.values_along(0);
        assert_eq!(vals.len(), 4);
        assert!(vals.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(vals.iter().all(|&(_, f)| (f - 16.0).abs() < 1e-12));
    }

    #[test]
    fn scale_rescales_total() {
        let rel = diagonal_relation();
        let mut d = rel.distribution();
        d.scale(0.5);
        assert_eq!(d.total(), 32.0);
        assert_eq!(d.frequency(&[1, 1, 0]), 4.0);
    }

    #[test]
    fn add_accumulates() {
        let schema = Schema::new(vec![("x", 4)]).unwrap();
        let mut d = Distribution::empty(schema, AttrSet::singleton(0)).unwrap();
        d.add(&[1], 2.0);
        d.add(&[1], 3.0);
        d.add(&[2], 1.0);
        assert_eq!(d.frequency(&[1]), 5.0);
        assert_eq!(d.total(), 6.0);
        assert_eq!(d.support_size(), 2);
    }
}
