//! Pre-registered handles for the metrics the dbhist engine emits.
//!
//! Hot paths (plan execution, cache lookups) must never pay a name hash
//! or registry lock per event; they go through these handles, resolved
//! once per process. Names follow the repo convention
//! `dbhist_<subsystem>_<name>_<unit>`, enforced by `xtask analyze`.

use std::sync::{Arc, OnceLock};

use crate::registry::{self, Counter, Gauge, LatencyHistogram};

/// One handle per engine metric. Obtain via [`wellknown`].
#[derive(Debug)]
#[allow(missing_docs)] // field names mirror the metric names below
pub struct WellKnown {
    // Query path.
    pub query_estimates: Arc<Counter>,
    /// Estimates answered by range-restricted sum-product (the rest go to
    /// the Fig. 3 interpreter).
    pub query_evaluations: Arc<Counter>,
    /// Wall-clock nanoseconds per `estimate_mass` call.
    pub query_latency: Arc<LatencyHistogram>,

    // Build path.
    pub build_selection_rounds: Arc<Counter>,
    pub build_splits_funded: Arc<Counter>,
    pub build_builds: Arc<Counter>,

    // Model-selection entropy cache.
    pub model_entropy_computations: Arc<Counter>,
    pub model_entropy_cache_hits: Arc<Counter>,

    // Estimator feedback.
    pub estimator_feedback: Arc<Counter>,
    /// Non-finite feedback observations dropped by `DriftMonitor::record`
    /// (never entering any window or distribution).
    pub estimator_feedback_dropped: Arc<Counter>,

    // Estimator service (concurrent serving path).
    pub serve_requests: Arc<Counter>,
    pub serve_batches: Arc<Counter>,
    pub serve_swaps: Arc<Counter>,
    /// Replies whose client hung up before delivery (0 in steady state;
    /// `swap()` never drops an in-flight query).
    pub serve_dropped_replies: Arc<Counter>,
    /// Wall-clock nanoseconds from batch submission to reply, recorded
    /// once per request in the batch.
    pub serve_latency: Arc<LatencyHistogram>,
    /// Wall-clock nanoseconds of each generation swap's critical section.
    pub serve_swap_latency: Arc<LatencyHistogram>,
    /// Events published into the serving journal.
    pub serve_journal_events: Arc<Counter>,

    // Streaming ingest (tuple batches + write-ahead log).
    pub ingest_batches: Arc<Counter>,
    pub ingest_ops: Arc<Counter>,
    /// Feedback-triggered single-clique re-splits (rebuild avoided).
    pub ingest_resplits: Arc<Counter>,
    /// Crash recoveries completed (snapshot load + WAL tail replay).
    pub ingest_recoveries: Arc<Counter>,
    /// Record bytes appended to the write-ahead log this generation.
    pub ingest_wal_bytes: Arc<Gauge>,

    // Snapshot persistence.
    pub persist_saves: Arc<Counter>,
    pub persist_loads: Arc<Counter>,
    /// Wall-clock seconds of the most recent snapshot save.
    pub persist_save_seconds: Arc<Gauge>,
    /// Wall-clock seconds of the most recent snapshot load.
    pub persist_load_seconds: Arc<Gauge>,
    /// Byte size of the most recently saved or loaded snapshot.
    pub persist_snapshot_bytes: Arc<Gauge>,
}

/// The process-wide [`WellKnown`] handle set (resolved on first use).
pub fn wellknown() -> &'static WellKnown {
    static HANDLES: OnceLock<WellKnown> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let r = registry::global();
        WellKnown {
            query_estimates: r.counter("dbhist_query_estimates_total"),
            query_evaluations: r.counter("dbhist_query_evaluations_total"),
            query_latency: r.histogram("dbhist_query_estimate_latency_ns"),
            build_selection_rounds: r.counter("dbhist_build_selection_rounds_total"),
            build_splits_funded: r.counter("dbhist_build_splits_funded_total"),
            build_builds: r.counter("dbhist_build_builds_total"),
            model_entropy_computations: r.counter("dbhist_model_entropy_computations_total"),
            model_entropy_cache_hits: r.counter("dbhist_model_entropy_cache_hits_total"),
            estimator_feedback: r.counter("dbhist_estimator_feedback_total"),
            estimator_feedback_dropped: r.counter("dbhist_estimator_feedback_dropped_total"),
            serve_requests: r.counter("dbhist_serve_requests_total"),
            serve_batches: r.counter("dbhist_serve_batches_total"),
            serve_swaps: r.counter("dbhist_serve_swaps_total"),
            serve_dropped_replies: r.counter("dbhist_serve_dropped_replies_total"),
            serve_latency: r.histogram("dbhist_serve_request_latency_ns"),
            serve_swap_latency: r.histogram("dbhist_serve_swap_latency_ns"),
            serve_journal_events: r.counter("dbhist_serve_journal_events_total"),
            ingest_batches: r.counter("dbhist_ingest_batches_total"),
            ingest_ops: r.counter("dbhist_ingest_ops_total"),
            ingest_resplits: r.counter("dbhist_ingest_resplits_total"),
            ingest_recoveries: r.counter("dbhist_ingest_recoveries_total"),
            ingest_wal_bytes: r.gauge("dbhist_ingest_wal_bytes"),
            persist_saves: r.counter("dbhist_persist_saves_total"),
            persist_loads: r.counter("dbhist_persist_loads_total"),
            persist_save_seconds: r.gauge("dbhist_persist_save_seconds"),
            persist_load_seconds: r.gauge("dbhist_persist_load_seconds"),
            persist_snapshot_bytes: r.gauge("dbhist_persist_snapshot_bytes"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_resolve_once_and_share_state() {
        let a = wellknown();
        let b = wellknown();
        let before = a.query_estimates.value();
        b.query_estimates.increment();
        assert_eq!(a.query_estimates.value(), before + 1);
    }

    #[test]
    fn every_wellknown_name_is_registered_globally() {
        let _ = wellknown();
        let snap = registry::snapshot();
        for name in [
            "dbhist_query_estimates_total",
            "dbhist_query_evaluations_total",
            "dbhist_query_estimate_latency_ns",
            "dbhist_build_selection_rounds_total",
            "dbhist_build_splits_funded_total",
            "dbhist_model_entropy_cache_hits_total",
            "dbhist_estimator_feedback_total",
            "dbhist_estimator_feedback_dropped_total",
            "dbhist_serve_requests_total",
            "dbhist_serve_swaps_total",
            "dbhist_serve_request_latency_ns",
            "dbhist_serve_swap_latency_ns",
            "dbhist_serve_journal_events_total",
            "dbhist_ingest_batches_total",
            "dbhist_ingest_ops_total",
            "dbhist_ingest_resplits_total",
            "dbhist_ingest_recoveries_total",
            "dbhist_ingest_wal_bytes",
            "dbhist_persist_saves_total",
            "dbhist_persist_loads_total",
            "dbhist_persist_save_seconds",
            "dbhist_persist_load_seconds",
            "dbhist_persist_snapshot_bytes",
        ] {
            assert!(snap.get(name).is_some(), "{name} must be registered");
        }
    }
}
