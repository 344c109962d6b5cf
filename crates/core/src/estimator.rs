//! A common interface for selectivity estimators.
//!
//! The paper's evaluation compares four estimators — `DB₁`, `DB₂`,
//! `MHIST`, and `IND` (plus random sampling, which it dismisses) — on the
//! same workloads. [`SelectivityEstimator`] is what the experiment harness
//! in `dbhist-bench` (and any downstream query optimizer) programs
//! against.

use crate::query::Query;

/// An object that can estimate the result size of a conjunctive
/// range-selection predicate.
///
/// Queries arrive as typed [`Query`] values (see [`crate::query`]); raw
/// `(attr, lo, hi)` triples convert losslessly via
/// `Query::from(&ranges[..])`.
pub trait SelectivityEstimator {
    /// Estimated number of tuples satisfying every predicate of `query`.
    /// The unconstrained query estimates the table size `N`.
    fn estimate(&self, query: &Query) -> f64;

    /// Bytes of synopsis storage consumed (paper §4.1 accounting).
    fn storage_bytes(&self) -> usize;

    /// A short display name (e.g. `"DB2"`, `"MHIST"`, `"IND"`).
    fn name(&self) -> &str;
}
