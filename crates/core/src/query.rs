//! The typed query surface: [`Query`] and [`Predicate`].
//!
//! Every estimator entry point ([`crate::estimator::SelectivityEstimator`],
//! [`crate::synopsis::DbHistogram`], [`crate::service::EstimatorService`])
//! takes a `&Query` — a validated conjunction of per-attribute range
//! predicates — instead of a raw `&[(AttrId, u32, u32)]` slice. The
//! builder chains fluently:
//!
//! ```
//! use dbhist_core::query::Query;
//!
//! // a ∈ [0, 3] ∧ c = 1
//! let q = Query::range(0, 0, 3).eq(2, 1);
//! assert_eq!(q.ranges(), &[(0, 0, 3), (2, 1, 1)]);
//! ```
//!
//! Semantics are unchanged from the raw-slice era and defined by the
//! estimators themselves: attributes a synopsis does not cover are
//! ignored, repeated attributes intersect, and an inverted range (`lo >
//! hi`) selects nothing. [`Query::validate`] optionally pins a query to a
//! concrete [`Schema`] at construction time, rejecting unknown attributes
//! and out-of-domain values before they silently estimate zero.
//!
//! Migration from raw slices is one mechanical step: `From<&[(AttrId,
//! u32, u32)]>` (and the `Vec`/array equivalents) convert verbatim.

use dbhist_distribution::{AttrId, Schema};

use crate::error::SynopsisError;

/// One conjunct of a [`Query`]: an inclusive value range on a single
/// attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// The constrained attribute.
    pub attr: AttrId,
    /// Smallest selected value.
    pub lo: u32,
    /// Largest selected value (inclusive).
    pub hi: u32,
}

impl Predicate {
    /// A range predicate `attr ∈ [lo, hi]`.
    #[must_use]
    pub fn range(attr: AttrId, lo: u32, hi: u32) -> Self {
        Self { attr, lo, hi }
    }

    /// An equality predicate `attr = value`.
    #[must_use]
    pub fn eq(attr: AttrId, value: u32) -> Self {
        Self { attr, lo: value, hi: value }
    }
}

/// A conjunctive range query over attribute ranges, the argument type of
/// every estimator; see the [module docs](crate::query).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Query {
    ranges: Vec<(AttrId, u32, u32)>,
}

impl Query {
    /// The unconstrained query (every estimator maps it to the full table
    /// mass).
    #[must_use]
    pub fn all() -> Self {
        Self::default()
    }

    /// Starts a query with the range predicate `attr ∈ [lo, hi]`.
    #[must_use]
    pub fn range(attr: AttrId, lo: u32, hi: u32) -> Self {
        Self { ranges: vec![(attr, lo, hi)] }
    }

    /// Starts a query with the equality predicate `attr = value`.
    #[must_use]
    pub fn equals(attr: AttrId, value: u32) -> Self {
        Self::range(attr, value, value)
    }

    /// Adds the range predicate `attr ∈ [lo, hi]`.
    #[must_use]
    pub fn and(mut self, attr: AttrId, lo: u32, hi: u32) -> Self {
        self.ranges.push((attr, lo, hi));
        self
    }

    /// Adds the equality predicate `attr = value`.
    #[must_use]
    pub fn eq(self, attr: AttrId, value: u32) -> Self {
        self.and(attr, value, value)
    }

    /// Adds a [`Predicate`].
    #[must_use]
    pub fn with(self, p: Predicate) -> Self {
        self.and(p.attr, p.lo, p.hi)
    }

    /// Checks every predicate against `schema`: the attribute must exist
    /// and both endpoints must lie inside its domain. Returns the query
    /// unchanged on success, so construction chains end in one validation
    /// step: `Query::range(0, 0, 3).eq(2, 1).validate(&schema)?`.
    ///
    /// # Errors
    ///
    /// Returns [`SynopsisError::InvalidConfig`] naming the offending
    /// predicate.
    pub fn validate(self, schema: &Schema) -> Result<Self, SynopsisError> {
        for &(attr, lo, hi) in &self.ranges {
            if usize::from(attr) >= schema.arity() {
                return Err(SynopsisError::InvalidConfig {
                    parameter: "query",
                    reason: format!(
                        "attribute {attr} does not exist (schema arity {})",
                        schema.arity()
                    ),
                });
            }
            let domain = schema.domain_size(attr);
            if lo >= domain || hi >= domain {
                return Err(SynopsisError::InvalidConfig {
                    parameter: "query",
                    reason: format!(
                        "range [{lo}, {hi}] on attribute {attr} exceeds its domain [0, {})",
                        domain
                    ),
                });
            }
        }
        Ok(self)
    }

    /// The predicates as raw `(attr, lo, hi)` triples, in insertion
    /// order — the representation the histogram algebra consumes.
    #[must_use]
    pub fn ranges(&self) -> &[(AttrId, u32, u32)] {
        &self.ranges
    }

    /// The predicates as typed [`Predicate`]s, in insertion order.
    pub fn predicates(&self) -> impl Iterator<Item = Predicate> + '_ {
        self.ranges.iter().map(|&(attr, lo, hi)| Predicate { attr, lo, hi })
    }

    /// Number of predicates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// `true` for the unconstrained query.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

impl From<&[(AttrId, u32, u32)]> for Query {
    fn from(ranges: &[(AttrId, u32, u32)]) -> Self {
        Self { ranges: ranges.to_vec() }
    }
}

impl From<Vec<(AttrId, u32, u32)>> for Query {
    fn from(ranges: Vec<(AttrId, u32, u32)>) -> Self {
        Self { ranges }
    }
}

impl<const N: usize> From<[(AttrId, u32, u32); N]> for Query {
    fn from(ranges: [(AttrId, u32, u32); N]) -> Self {
        Self { ranges: ranges.to_vec() }
    }
}

impl<const N: usize> From<&[(AttrId, u32, u32); N]> for Query {
    fn from(ranges: &[(AttrId, u32, u32); N]) -> Self {
        Self { ranges: ranges.to_vec() }
    }
}

impl FromIterator<Predicate> for Query {
    fn from_iter<I: IntoIterator<Item = Predicate>>(iter: I) -> Self {
        Self { ranges: iter.into_iter().map(|p| (p.attr, p.lo, p.hi)).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_in_order() {
        let q = Query::range(0, 0, 3).eq(2, 1).and(0, 1, 2);
        assert_eq!(q.ranges(), &[(0, 0, 3), (2, 1, 1), (0, 1, 2)]);
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        assert!(Query::all().is_empty());
        assert_eq!(Query::equals(4, 7).ranges(), &[(4, 7, 7)]);
        let via_predicates: Query =
            [Predicate::range(0, 0, 3), Predicate::eq(2, 1)].into_iter().collect();
        assert_eq!(via_predicates, Query::range(0, 0, 3).eq(2, 1));
        assert_eq!(Query::all().with(Predicate::eq(1, 2)).ranges(), &[(1, 2, 2)]);
        let preds: Vec<Predicate> = via_predicates.predicates().collect();
        assert_eq!(preds, vec![Predicate::range(0, 0, 3), Predicate::eq(2, 1)]);
    }

    #[test]
    fn conversions_are_verbatim() {
        let raw = vec![(0u16, 0u32, 3u32), (2, 1, 1)];
        let from_slice = Query::from(raw.as_slice());
        let from_vec = Query::from(raw.clone());
        let from_array = Query::from([(0, 0, 3), (2, 1, 1)]);
        assert_eq!(from_slice, from_vec);
        assert_eq!(from_slice, from_array);
        assert_eq!(from_slice.ranges(), raw.as_slice());
    }

    #[test]
    fn validation_rejects_bad_predicates() {
        let schema = Schema::new(vec![("a", 8), ("b", 4)]).unwrap();
        assert!(Query::range(0, 0, 7).eq(1, 3).validate(&schema).is_ok());
        assert!(Query::range(2, 0, 1).validate(&schema).is_err(), "unknown attribute");
        assert!(Query::range(0, 0, 8).validate(&schema).is_err(), "hi outside domain");
        assert!(Query::equals(1, 4).validate(&schema).is_err(), "lo outside domain");
        // Inverted ranges are in-domain and legal (they select nothing).
        assert!(Query::range(0, 5, 2).validate(&schema).is_ok());
    }
}
