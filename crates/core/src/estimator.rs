//! A common interface for selectivity estimators.
//!
//! The paper's evaluation compares four estimators — `DB₁`, `DB₂`,
//! `MHIST`, and `IND` (plus random sampling, which it dismisses) — on the
//! same workloads. [`SelectivityEstimator`] is what the experiment harness
//! in `dbhist-bench` (and any downstream query optimizer) programs
//! against.

use crate::builder::BuildTrace;
use crate::evaluate::QueryTrace;
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

    /// Cumulative counters of the estimator's junction-tree query path,
    /// when it has one. Baselines without one return `None` (the
    /// default).
    ///
    /// Reading is **non-destructive**: the snapshot is a copy, the
    /// underlying counters keep accumulating, and repeated calls between
    /// queries observe monotonically non-decreasing values until
    /// [`SelectivityEstimator::reset_trace`] zeroes them.
    fn query_trace(&self) -> Option<QueryTrace> {
        None
    }

    /// Zeroes the counters behind
    /// [`SelectivityEstimator::query_trace`]. A no-op (the default) for
    /// estimators without an instrumented query path. Only the estimator's
    /// own counters are affected; the process-wide telemetry registry is
    /// left untouched.
    fn reset_trace(&self) {}

    /// Per-phase construction instrumentation, when the estimator records
    /// it. Baselines built outside the instrumented pipeline return
    /// `None` (the default).
    fn build_trace(&self) -> Option<BuildTrace> {
        None
    }

    /// Feeds an observed (actual) result cardinality for `query` back to
    /// the estimator so it can track its own accuracy drift. Estimators
    /// without a drift monitor ignore the call (the default).
    fn record_feedback(&self, _query: &Query, _actual: f64) {}

    /// Worst per-clique rolling mean absolute relative error observed via
    /// [`SelectivityEstimator::record_feedback`], when the estimator
    /// tracks one. `None` (the default) when drift is not monitored;
    /// `Some(0.0)` before any feedback arrives.
    fn feedback_drift(&self) -> Option<f64> {
        None
    }
}
