//! Incremental maintenance of DB histograms (paper §5 future work).
//!
//! The paper closes by naming "incremental maintenance … of
//! DEPENDENCY-BASED synopses" as an open avenue. This module implements
//! the natural first-order scheme:
//!
//! * **Counts move, structure stays.** A tuple insert/delete updates the
//!   bucket counts of every clique histogram (each clique sees the
//!   tuple's projection onto its attributes). The model `M` and the
//!   bucketization are untouched, so updates are `O(|C| · depth)`.
//! * **Staleness is tracked, not guessed.** The maintainer records the
//!   churn since the last build and a small reservoir sample of recent
//!   inserts; [`MaintainedDbHistogram::drift`] measures how badly the
//!   current model fits the sampled recent data (mean absolute relative
//!   error of model estimates on sampled tuples' clique projections),
//!   giving a principled rebuild trigger.
//!
//! When [`MaintainedDbHistogram::needs_rebuild`] trips, rebuild from the
//! current base table with [`MaintainedDbHistogram::rebuild`].

use std::sync::atomic::{AtomicBool, Ordering};

use dbhist_distribution::{AttrId, Distribution, Relation};
use dbhist_histogram::SplitTree;
use dbhist_telemetry::journal::{journal, JournalEvent};

use crate::build::{IncrementalBuilder as _, MhistCliqueBuilder};
use crate::error::SynopsisError;
use crate::estimator::SelectivityEstimator;
use crate::query::Query;

use crate::synopsis::{DbConfig, DbHistogram};

/// Tail quantile (percentile) of the per-clique error distribution that
/// participates in the rebuild trigger: a synopsis whose q95 error
/// exceeds the drift threshold is rebuilt even when its rolling *mean*
/// still looks healthy (a few catastrophic estimates hide in a mean).
pub const TRIGGER_QUANTILE: f64 = 95.0;

/// A DB histogram plus the bookkeeping to keep it fresh under updates.
#[derive(Debug)]
pub struct MaintainedDbHistogram {
    synopsis: DbHistogram<SplitTree>,
    config: DbConfig,
    /// Tuples in the synopsis's view of the table.
    row_count: f64,
    /// Inserts + deletes applied since the last (re)build.
    churn: usize,
    /// Row count at the last (re)build.
    built_rows: f64,
    /// Reservoir of recently inserted rows (for drift measurement).
    reservoir: Vec<Vec<u32>>,
    reservoir_seen: usize,
    /// Where to persist a snapshot after every rebuild, if set — so
    /// drift-triggered rebuilds can happen offline and replicas restart
    /// from the snapshot instead of the base table.
    snapshot_path: Option<std::path::PathBuf>,
    /// Set the first time [`MaintainedDbHistogram::needs_rebuild`] trips
    /// (so the journal sees one [`JournalEvent::DriftTrip`] per episode,
    /// not one per poll); cleared by a successful rebuild.
    trip_latched: AtomicBool,
}

impl Clone for MaintainedDbHistogram {
    fn clone(&self) -> Self {
        Self {
            synopsis: self.synopsis.clone(),
            config: self.config.clone(),
            row_count: self.row_count,
            churn: self.churn,
            built_rows: self.built_rows,
            reservoir: self.reservoir.clone(),
            reservoir_seen: self.reservoir_seen,
            snapshot_path: self.snapshot_path.clone(),
            trip_latched: AtomicBool::new(self.trip_latched.load(Ordering::Acquire)),
        }
    }
}

/// Size of the insert reservoir used for drift measurement.
const RESERVOIR: usize = 256;

impl MaintainedDbHistogram {
    /// Builds the initial synopsis.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn build(relation: &Relation, config: DbConfig) -> Result<Self, SynopsisError> {
        let synopsis = crate::synopsis::build_mhist_pipeline(relation, &config)?;
        let rows = relation.row_count() as f64;
        Ok(Self {
            synopsis,
            config,
            row_count: rows,
            churn: 0,
            built_rows: rows,
            reservoir: Vec::new(),
            reservoir_seen: 0,
            snapshot_path: None,
            trip_latched: AtomicBool::new(false),
        })
    }

    /// Restores a maintained synopsis from a snapshot written by
    /// [`MaintainedDbHistogram::persist_to`] (or a session checkpoint):
    /// no model re-selection, no base-table scan. The snapshot path is
    /// registered for future rebuild re-saves, and the row count is
    /// recovered from the synopsis's own total mass. The reservoir and
    /// churn counters restart empty — they inform *drift measurement*
    /// cadence, never estimates, so recovery stays bit-identical where
    /// it matters.
    ///
    /// # Errors
    ///
    /// Propagates snapshot load failures;
    /// [`SynopsisError::InvalidConfig`] if the snapshot does not hold an
    /// MHIST synopsis.
    pub fn from_snapshot(
        path: impl Into<std::path::PathBuf>,
        config: DbConfig,
    ) -> Result<Self, SynopsisError> {
        let path = path.into();
        let synopsis = crate::builder::Synopsis::load(&path)?.into_mhist().ok_or(
            SynopsisError::InvalidConfig {
                parameter: "path",
                reason: "snapshot does not hold an MHIST synopsis".to_string(),
            },
        )?;
        let rows = synopsis.estimate(&Query::all()).max(0.0);
        Ok(Self {
            synopsis,
            config,
            row_count: rows,
            churn: 0,
            built_rows: rows,
            reservoir: Vec::new(),
            reservoir_seen: 0,
            snapshot_path: Some(path),
            trip_latched: AtomicBool::new(false),
        })
    }

    /// The wrapped synopsis.
    #[must_use]
    pub fn synopsis(&self) -> &DbHistogram<SplitTree> {
        &self.synopsis
    }

    /// The build configuration (criterion, budget, selection knobs).
    #[must_use]
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Tuples currently represented.
    #[must_use]
    pub fn row_count(&self) -> f64 {
        self.row_count
    }

    /// Updates applied since the last build.
    #[must_use]
    pub fn churn(&self) -> usize {
        self.churn
    }

    /// Applies row updates in order — `+1.0` inserts, `-1.0` deletes of
    /// rows already checked against the schema arity — to every clique
    /// histogram, under one borrow of the model. Each insert then enters
    /// the reservoir.
    pub(crate) fn apply<'r>(&mut self, rows: impl IntoIterator<Item = (&'r [u32], f64)>) {
        let (model, factors) = self.synopsis.factors_mut();
        let mut key: Vec<u32> = Vec::new();
        for (row, delta) in rows {
            for (clique, factor) in model.cliques().iter().zip(factors.iter_mut()) {
                key.clear();
                key.extend(clique.iter().map(|a| row[usize::from(a)]));
                factor.update(&key, delta);
            }
            self.row_count = (self.row_count + delta).max(0.0);
            self.churn += 1;
            if delta > 0.0 {
                // Reservoir sampling of inserts (deterministic
                // Fibonacci-hash position so maintenance stays
                // reproducible).
                self.reservoir_seen += 1;
                if self.reservoir.len() < RESERVOIR {
                    self.reservoir.push(row.to_vec());
                } else {
                    let slot = (self.reservoir_seen as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        as usize
                        % self.reservoir_seen;
                    if slot < RESERVOIR {
                        self.reservoir[slot] = row.to_vec();
                    }
                }
            }
        }
    }

    /// Registers an inserted tuple.
    ///
    /// # Panics
    ///
    /// Panics if the row does not match the schema.
    pub fn insert(&mut self, row: &[u32]) {
        assert_eq!(row.len(), self.synopsis.model().schema().arity(), "row arity mismatch");
        self.apply([(row, 1.0)]);
    }

    /// Registers a deleted tuple.
    ///
    /// # Panics
    ///
    /// Panics if the row does not match the schema.
    pub fn delete(&mut self, row: &[u32]) {
        assert_eq!(row.len(), self.synopsis.model().schema().arity(), "row arity mismatch");
        self.apply([(row, -1.0)]);
    }

    /// Fraction of the table churned since the last build.
    #[must_use]
    pub fn staleness(&self) -> f64 {
        if self.built_rows <= 0.0 {
            return if self.churn > 0 { 1.0 } else { 0.0 };
        }
        self.churn as f64 / self.built_rows
    }

    /// How badly the current synopsis describes *recent* data: the mean of
    /// `1 / (1 + f̂)` over the reservoir of recent inserts, where `f̂` is
    /// the synopsis's full-tuple point estimate at each sampled row.
    ///
    /// Inserts that follow the modeled correlation pattern land in
    /// well-populated regions (`f̂ ≫ 1`, contribution ≈ 0); inserts that
    /// contradict the model land where its cross-clique products predict
    /// near-zero mass (contribution → 1). Returns 0 when no inserts have
    /// been observed.
    #[must_use]
    pub fn drift(&self) -> f64 {
        if self.reservoir.is_empty() {
            return 0.0;
        }
        let mut sum = 0.0;
        for row in &self.reservoir {
            let query: Query = row
                .iter()
                .enumerate()
                .filter_map(|(a, &v)| AttrId::try_from(a).ok().map(|a| (a, v, v)))
                .collect::<Vec<_>>()
                .into();
            let est = self.synopsis.estimate(&query).max(0.0);
            sum += 1.0 / (1.0 + est);
        }
        sum / self.reservoir.len() as f64
    }

    /// Feeds an observed (actual) result cardinality back to the wrapped
    /// synopsis's accuracy-drift monitor; see
    /// [`DbHistogram::record_feedback`]. Feedback accumulated here is the
    /// third rebuild trigger consulted by
    /// [`MaintainedDbHistogram::needs_rebuild`].
    pub fn record_feedback(&self, query: &Query, actual: f64) {
        self.synopsis.record_feedback(query, actual);
    }

    /// Worst per-clique rolling mean absolute relative error reported by
    /// executed queries via [`MaintainedDbHistogram::record_feedback`].
    /// Zero until any feedback arrives.
    #[must_use]
    pub fn feedback_drift(&self) -> f64 {
        self.synopsis.drift_monitor().max_drift()
    }

    /// `true` once churn exceeds `churn_threshold` (fraction of the base
    /// table) — the simple trigger — or measured drift exceeds
    /// `drift_threshold`. Drift is measured three ways: against the
    /// reservoir of recent inserts ([`MaintainedDbHistogram::drift`]),
    /// against the rolling mean of executed-query feedback
    /// ([`MaintainedDbHistogram::feedback_drift`]), and against the
    /// *tail* of the per-clique feedback error distribution (the
    /// [`TRIGGER_QUANTILE`]-th percentile) — so a clique whose worst 5%
    /// of estimates go bad trips the trigger even while its mean stays
    /// under the threshold. Feedback gauges only participate once
    /// feedback has actually been recorded, so feedback-free workloads
    /// behave exactly as before.
    ///
    /// The first poll that trips publishes a [`JournalEvent::DriftTrip`]
    /// naming the worst clique; further polls of the same episode stay
    /// silent until a rebuild resets the latch.
    #[must_use]
    pub fn needs_rebuild(&self, churn_threshold: f64, drift_threshold: f64) -> bool {
        let monitor = self.synopsis.drift_monitor();
        let feedback_tripped = monitor.observations() > 0
            && (monitor.max_drift() > drift_threshold
                || monitor.max_error_quantile(TRIGGER_QUANTILE) > drift_threshold);
        let tripped = self.staleness() > churn_threshold
            || self.drift() > drift_threshold
            || feedback_tripped;
        if tripped && !self.trip_latched.swap(true, Ordering::AcqRel) {
            // Attribute the trip to the worst clique by rolling mean.
            let worst = (0..monitor.n_cliques())
                .max_by(|&a, &b| monitor.drift(a).total_cmp(&monitor.drift(b)))
                .unwrap_or(0);
            journal().publish(JournalEvent::DriftTrip {
                clique: worst,
                drift: monitor.drift(worst).max(self.drift()),
            });
        }
        tripped
    }

    /// Rebuilds the synopsis (model selection + histograms) from the
    /// current base table and resets the bookkeeping.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn rebuild(&mut self, relation: &Relation) -> Result<(), SynopsisError> {
        let max_drift = self.synopsis.drift_monitor().max_drift();
        self.synopsis = crate::synopsis::build_mhist_pipeline(relation, &self.config)?;
        self.row_count = relation.row_count() as f64;
        self.built_rows = self.row_count;
        self.churn = 0;
        self.reservoir.clear();
        self.reservoir_seen = 0;
        if let Some(path) = &self.snapshot_path {
            crate::snapshot::save_db(&self.synopsis, path, None)?;
        }
        self.trip_latched.store(false, Ordering::Release);
        journal().publish(JournalEvent::Rebuild { rows: relation.row_count() as u64, max_drift });
        Ok(())
    }

    /// Persists a snapshot to `path` after every successful
    /// [`MaintainedDbHistogram::rebuild`] (atomic temp-file + rename, so
    /// readers never observe a torn snapshot), and writes one immediately
    /// so the file exists before the first rebuild fires.
    ///
    /// # Errors
    ///
    /// Propagates the initial save's failure.
    pub fn persist_to(&mut self, path: impl Into<std::path::PathBuf>) -> Result<(), SynopsisError> {
        self.persist_with(path.into(), None)
    }

    /// [`MaintainedDbHistogram::persist_to`] with an optional WAL
    /// position recorded atomically inside the snapshot: the durable
    /// ingest session passes one, so recovery can prove which WAL batches
    /// the snapshot already absorbed.
    pub(crate) fn persist_with(
        &mut self,
        path: std::path::PathBuf,
        wal: Option<dbhist_persist::WalPosition>,
    ) -> Result<(), SynopsisError> {
        crate::snapshot::save_db(&self.synopsis, &path, wal)?;
        self.snapshot_path = Some(path);
        Ok(())
    }

    /// The snapshot path registered via
    /// [`MaintainedDbHistogram::persist_to`], if any.
    #[must_use]
    pub fn snapshot_path(&self) -> Option<&std::path::Path> {
        self.snapshot_path.as_deref()
    }

    /// Re-saves the registered snapshot so it reflects every update
    /// applied since the last save. A no-op without a registered path.
    ///
    /// # Errors
    ///
    /// Propagates the save's failure.
    pub fn refresh_snapshot(&self) -> Result<(), SynopsisError> {
        self.refresh_with(None)
    }

    /// [`MaintainedDbHistogram::refresh_snapshot`] with an optional WAL
    /// position recorded atomically inside the snapshot. The ingest
    /// checkpoint passes one **before** truncating the WAL: a crash
    /// between the two leaves a snapshot that names exactly the batches
    /// it absorbed, so recovery skips them instead of double-applying.
    pub(crate) fn refresh_with(
        &self,
        wal: Option<dbhist_persist::WalPosition>,
    ) -> Result<(), SynopsisError> {
        if let Some(path) = &self.snapshot_path {
            crate::snapshot::save_db(&self.synopsis, path, wal)?;
        }
        Ok(())
    }

    /// Rebuilds **one clique's** bucketization from `marginal` (its
    /// up-to-date marginal distribution) through the same split-tree
    /// allocator a full build uses, targeting the bucket count the
    /// clique already owns — the model, every other factor, and the
    /// storage allocation stay untouched. This is the cheap remedy when
    /// query feedback says one clique's buckets no longer resolve the
    /// data: `O(one clique)` instead of full re-selection.
    ///
    /// The replaced clique's feedback-drift statistics are reset (they
    /// described the old buckets) and the trip latch is released, so
    /// the next degradation journals a fresh
    /// [`JournalEvent::DriftTrip`]. Returns the replacement factor's
    /// bucket count.
    ///
    /// # Errors
    ///
    /// [`SynopsisError::InvalidConfig`] for an out-of-range clique
    /// index or a marginal whose attributes are not exactly the
    /// clique's; propagates histogram-construction failures.
    pub fn resplit_clique(
        &mut self,
        clique: usize,
        marginal: &Distribution,
    ) -> Result<usize, SynopsisError> {
        let cliques = self.synopsis.model().cliques();
        let Some(attrs) = cliques.get(clique) else {
            return Err(SynopsisError::InvalidConfig {
                parameter: "clique",
                reason: format!("clique index {clique} out of range ({})", cliques.len()),
            });
        };
        if marginal.attrs() != attrs {
            return Err(SynopsisError::InvalidConfig {
                parameter: "marginal",
                reason: format!(
                    "marginal attrs {:?} are not the clique's {attrs:?}",
                    marginal.attrs()
                ),
            });
        }
        let target = self.synopsis.factors().get(clique).map_or(1, SplitTree::bucket_count);
        let mut builder = MhistCliqueBuilder::start(marginal, self.config.criterion)?;
        while builder.bucket_count() < target && builder.split_once() {}
        let buckets = builder.bucket_count();
        self.synopsis.replace_factor(clique, builder.finish());
        self.synopsis.drift_monitor().reset_clique(clique);
        self.trip_latched.store(false, Ordering::Release);
        journal().publish(JournalEvent::Resplit { clique, buckets: buckets as u64 });
        Ok(buckets)
    }
}

impl SelectivityEstimator for MaintainedDbHistogram {
    fn estimate(&self, query: &Query) -> f64 {
        self.synopsis.estimate(query)
    }

    fn storage_bytes(&self) -> usize {
        self.synopsis.storage_bytes()
    }

    fn name(&self) -> &str {
        "DB-maintained"
    }

    fn query_trace(&self) -> Option<crate::evaluate::QueryTrace> {
        self.synopsis.query_trace().into()
    }

    fn reset_trace(&self) {
        self.synopsis.reset_query_trace();
    }

    fn record_feedback(&self, query: &Query, actual: f64) {
        MaintainedDbHistogram::record_feedback(self, query, actual);
    }

    fn feedback_drift(&self) -> Option<f64> {
        Some(MaintainedDbHistogram::feedback_drift(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbhist_distribution::Schema;

    /// a == b (8 values), c independent.
    fn relation(rows: u32) -> Relation {
        let schema = Schema::new(vec![("a", 8), ("b", 8), ("c", 4)]).unwrap();
        let data: Vec<Vec<u32>> = (0..rows).map(|i| vec![i % 8, i % 8, (i / 8) % 4]).collect();
        Relation::from_rows(schema, data).unwrap()
    }

    #[test]
    fn inserts_move_estimates() {
        let rel = relation(4096);
        let mut m = MaintainedDbHistogram::build(&rel, DbConfig::new(400)).unwrap();
        let before = m.estimate(&Query::range(0, 3, 3));
        for _ in 0..500 {
            m.insert(&[3, 3, 0]);
        }
        let after = m.estimate(&Query::range(0, 3, 3));
        assert!(after > before + 400.0, "estimate should absorb the inserts: {before} → {after}");
        assert_eq!(m.churn(), 500);
        assert!((m.row_count() - 4596.0).abs() < 1e-9);
    }

    #[test]
    fn deletes_reverse_inserts() {
        let rel = relation(4096);
        let mut m = MaintainedDbHistogram::build(&rel, DbConfig::new(400)).unwrap();
        let baseline = m.estimate(&Query::range(0, 2, 5));
        for _ in 0..100 {
            m.insert(&[4, 4, 1]);
        }
        for _ in 0..100 {
            m.delete(&[4, 4, 1]);
        }
        let roundtrip = m.estimate(&Query::range(0, 2, 5));
        assert!(
            (roundtrip - baseline).abs() < 1e-6 * (1.0 + baseline),
            "{baseline} vs {roundtrip}"
        );
        assert!((m.row_count() - 4096.0).abs() < 1e-9);
    }

    #[test]
    fn deletes_clamp_at_zero() {
        let rel = relation(64);
        let mut m = MaintainedDbHistogram::build(&rel, DbConfig::new(400)).unwrap();
        for _ in 0..10_000 {
            m.delete(&[0, 0, 0]);
        }
        assert!(m.estimate(&Query::all()) >= 0.0);
    }

    #[test]
    fn staleness_and_rebuild() {
        let rel = relation(1000);
        let mut m = MaintainedDbHistogram::build(&rel, DbConfig::new(400)).unwrap();
        assert_eq!(m.staleness(), 0.0);
        assert!(!m.needs_rebuild(0.1, 0.99));
        for i in 0..200u32 {
            m.insert(&[i % 8, (i + 1) % 8, 0]);
        }
        assert!((m.staleness() - 0.2).abs() < 1e-9);
        assert!(m.needs_rebuild(0.1, 0.99));
        // Rebuild resets.
        let rel2 = relation(1200);
        m.rebuild(&rel2).unwrap();
        assert_eq!(m.churn(), 0);
        assert_eq!(m.staleness(), 0.0);
        assert!((m.row_count() - 1200.0).abs() < 1e-9);
    }

    #[test]
    fn drift_detects_pattern_shift() {
        let rel = relation(4096);
        let mut m = MaintainedDbHistogram::build(&rel, DbConfig::new(600)).unwrap();
        // Inserts that FOLLOW the old pattern (a == b): low drift.
        for i in 0..200u32 {
            m.insert(&[i % 8, i % 8, (i / 8) % 4]);
        }
        let aligned_drift = m.drift();
        // Now inserts that BREAK the pattern (a != b lands in buckets the
        // old model considers empty): drift rises.
        for i in 0..200u32 {
            m.insert(&[i % 8, (i + 3) % 8, (i / 8) % 4]);
        }
        let broken_drift = m.drift();
        assert!(
            broken_drift > aligned_drift,
            "drift should rise when new data contradicts the model: \
             {aligned_drift} vs {broken_drift}"
        );
    }

    /// Updates go through `factors_mut()`, and nothing is cached: the
    /// next served estimate reads the updated factors, bit for bit what a
    /// synopsis freshly assembled over them answers, while a copy taken
    /// before the update keeps answering from the old factors.
    #[test]
    fn updates_reach_served_estimates() {
        let rel = relation(4096);
        let mut m = MaintainedDbHistogram::build(&rel, DbConfig::new(400)).unwrap();
        let q = Query::range(0, 3, 3);
        let before = m.estimate(&q);
        let stale = m.synopsis().clone();
        for _ in 0..500 {
            m.insert(&[3, 3, 0]);
        }
        let after = m.estimate(&q);
        assert!(after > before + 400.0, "update did not reach the served estimate: {after}");
        assert_eq!(stale.estimate(&q).to_bits(), before.to_bits());
        let db = m.synopsis();
        let fresh = DbHistogram::assemble(
            db.model().clone(),
            db.factors().to_vec(),
            db.storage_bytes(),
            String::new(),
        );
        for q in [Query::range(0, 3, 3).and(2, 0, 1), Query::range(0, 3, 3), Query::range(2, 0, 0)]
        {
            assert_eq!(db.estimate(&q).to_bits(), fresh.estimate(&q).to_bits(), "{q:?}");
        }
    }

    #[test]
    fn feedback_drift_triggers_rebuild() {
        let rel = relation(4096);
        let mut m = MaintainedDbHistogram::build(&rel, DbConfig::new(600)).unwrap();
        assert!(m.feedback_drift().abs() < 1e-12);
        assert!(!m.needs_rebuild(10.0, 0.5), "no trigger before any feedback");
        // Executed queries report actuals 10x the estimates: relative
        // error 0.9 per observation, well past the 0.5 threshold.
        for i in 0..32u32 {
            let q = Query::equals(0, i % 8);
            let est = m.estimate(&q).max(1.0);
            m.record_feedback(&q, est * 10.0);
        }
        assert!(m.feedback_drift() > 0.5, "drift gauge: {}", m.feedback_drift());
        assert!(m.needs_rebuild(10.0, 0.5), "feedback drift must trip the trigger");
        // Rebuilding installs a fresh monitor and clears the trigger.
        m.rebuild(&rel).unwrap();
        assert!(m.feedback_drift().abs() < 1e-12);
        assert!(!m.needs_rebuild(10.0, 0.5));
    }

    #[test]
    fn tail_quantile_trips_before_the_mean() {
        let rel = relation(4096);
        let m = MaintainedDbHistogram::build(&rel, DbConfig::new(600)).unwrap();
        // 29 accurate estimates and 3 catastrophic ones (relative error
        // 0.9): the rolling mean stays well under the 0.5 threshold, but
        // the q95 of the error distribution sits in the bad tail.
        for i in 0..32u32 {
            let q = Query::equals(0, i % 8);
            let est = m.estimate(&q).max(1.0);
            let actual = if i < 3 { est * 10.0 } else { est };
            m.record_feedback(&q, actual);
        }
        assert!(m.feedback_drift() < 0.5, "mean must stay under threshold: {}", m.feedback_drift());
        let q95 = m.synopsis().drift_monitor().max_error_quantile(TRIGGER_QUANTILE);
        assert!(q95 > 0.5, "q95 must sit in the bad tail: {q95}");
        assert!(
            m.needs_rebuild(10.0, 0.5),
            "tail quantile must trip the trigger while the mean is healthy"
        );
    }

    #[test]
    fn estimator_interface() {
        let rel = relation(512);
        let m = MaintainedDbHistogram::build(&rel, DbConfig::new(400)).unwrap();
        assert_eq!(m.name(), "DB-maintained");
        assert!(m.storage_bytes() > 0);
        assert!((m.estimate(&Query::all()) - 512.0).abs() < 1e-6);
    }
}
