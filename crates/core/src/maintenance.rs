//! Incremental maintenance of DB histograms (paper §5 future work).
//!
//! The paper closes by naming "incremental maintenance … of
//! DEPENDENCY-BASED synopses" as an open avenue. This module implements
//! the natural first-order scheme, and nothing else:
//!
//! * **Counts move, structure stays.** A tuple insert/delete updates the
//!   bucket counts of every clique histogram (each clique sees the
//!   tuple's projection onto its attributes). The model `M` and the
//!   bucketization are untouched, so updates are `O(|C| · depth)`.
//! * **Drift is measured, not acted on.** A small reservoir of recent
//!   inserts backs [`MaintainedDbHistogram::drift`], which measures how
//!   badly the current model fits the sampled recent data.
//! * **One clique can be re-bucketed** from its up-to-date marginal
//!   ([`MaintainedDbHistogram::resplit_clique`]).
//!
//! [`MaintainedDbHistogram`] does no I/O and makes no policy decision.
//! When to re-split or recommend a rebuild, and every snapshot and WAL
//! write, belong to [`crate::ingest::IngestSession`]. A rebuild is a
//! fresh [`MaintainedDbHistogram::build`] over the live table.

use dbhist_distribution::{AttrId, Distribution, Relation};
use dbhist_histogram::SplitTree;
use dbhist_telemetry::journal::{journal, JournalEvent};

use crate::build::{IncrementalBuilder as _, MhistCliqueBuilder};
use crate::error::SynopsisError;
use crate::estimator::SelectivityEstimator;
use crate::query::Query;

use crate::synopsis::{DbConfig, DbHistogram};

/// A DB histogram plus the insert reservoir that measures its drift.
#[derive(Debug, Clone)]
pub struct MaintainedDbHistogram {
    synopsis: DbHistogram<SplitTree>,
    config: DbConfig,
    /// Tuples in the synopsis's view of the table.
    row_count: f64,
    /// Reservoir of recently inserted rows (for drift measurement).
    reservoir: Vec<Vec<u32>>,
    reservoir_seen: usize,
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
        Ok(Self {
            synopsis,
            config,
            row_count: relation.row_count() as f64,
            reservoir: Vec::new(),
            reservoir_seen: 0,
        })
    }

    /// Restores a maintained synopsis from a snapshot (an ingest
    /// session's checkpoint, or any saved MHIST synopsis): no model
    /// re-selection, no base-table scan. The row count is recovered from
    /// the synopsis's own total mass. The reservoir restarts empty — it
    /// informs *drift measurement*, never estimates, so recovery stays
    /// bit-identical where it matters.
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
        let synopsis = crate::builder::Synopsis::load(path.into())?.into_mhist().ok_or(
            SynopsisError::InvalidConfig {
                parameter: "path",
                reason: "snapshot does not hold an MHIST synopsis".to_string(),
            },
        )?;
        let row_count = synopsis.estimate(&Query::all()).max(0.0);
        Ok(Self { synopsis, config, row_count, reservoir: Vec::new(), reservoir_seen: 0 })
    }

    /// The wrapped synopsis.
    #[must_use]
    pub fn synopsis(&self) -> &DbHistogram<SplitTree> {
        &self.synopsis
    }

    /// Tuples currently represented.
    #[must_use]
    pub fn row_count(&self) -> f64 {
        self.row_count
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

    /// Rebuilds **one clique's** bucketization from `marginal` (its
    /// up-to-date marginal distribution) through the same split-tree
    /// allocator a full build uses, targeting the bucket count the
    /// clique already owns — the model, every other factor, and the
    /// storage allocation stay untouched. This is the cheap remedy when
    /// query feedback says one clique's buckets no longer resolve the
    /// data: `O(one clique)` instead of full re-selection.
    ///
    /// The replaced clique's feedback-drift statistics are reset (they
    /// described the old buckets). Returns the replacement factor's
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
    fn estimator_interface() {
        let rel = relation(512);
        let m = MaintainedDbHistogram::build(&rel, DbConfig::new(400)).unwrap();
        assert_eq!(m.name(), "DB-maintained");
        assert!(m.storage_bytes() > 0);
        assert!((m.estimate(&Query::all()) - 512.0).abs() < 1e-6);
    }
}
