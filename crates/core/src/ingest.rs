//! Streaming tuple ingest with WAL-backed durability and self-tuning
//! (ROADMAP item 2; paper §5's maintenance avenue + the self-tuning
//! histogram line of work).
//!
//! [`IngestSession`] wraps a [`MaintainedDbHistogram`] and accepts
//! insert/delete batches ([`WalOp`]) from a continuous stream. It is the
//! one place that decides when to re-split or recommend a rebuild
//! ([`IngestSession::tune`]) and the one owner of durability: every
//! snapshot save and WAL write goes through it. Each batch:
//!
//! 1. is journaled to a replayable write-ahead log
//!    ([`dbhist_persist::wal`], fsync'd per batch) **before** it touches
//!    the synopsis, so an acknowledged batch is never lost;
//! 2. updates every clique factor's bucket counts through the exact
//!    same [`MaintainedDbHistogram::insert`]/`delete` path a one-shot
//!    caller would use — estimates after N batches are bit-identical to
//!    applying the concatenated ops one by one;
//! 3. incrementally maintains *per-clique marginal distributions* under
//!    a budget-bounded cell cap, so a later re-split can re-derive
//!    bucket boundaries from fresh data without touching the base
//!    table.
//!
//! # Crash recovery
//!
//! Durability is last-snapshot-plus-tail: [`IngestSession::recover`]
//! loads the registered snapshot, replays the WAL tail through the same
//! update path, and resumes appending — the recovered estimator answers
//! every query bit-identically to an uninterrupted run, because the log
//! records the exact op stream and tuple updates are deterministic.
//!
//! Every checkpoint (including the one a re-split triggers) saves the
//! snapshot with an embedded [`WalPosition`] — the WAL's current
//! generation and committed batch count — **then** atomically truncates
//! the log to the next generation. Because the position rides inside
//! the snapshot's own atomic write, every crash window is decidable at
//! recovery:
//!
//! - crash before the snapshot save: the old snapshot names the
//!   *previous* generation, the log is one generation newer → replay
//!   the whole tail;
//! - crash between the snapshot save and the truncation: snapshot and
//!   log name the *same* generation → skip exactly the
//!   `batches_covered` batches the snapshot absorbed (no
//!   double-apply), replay any beyond;
//! - crash after the truncation: the log is one generation newer than
//!   the snapshot names → replay the (now short) tail.
//!
//! Any other combination — a log older or more than one generation
//! newer than the snapshot claims, fewer committed batches than the
//! snapshot absorbed, or a non-empty log beside a snapshot that records
//! no position at all — is a typed error, never a silent divergence.
//!
//! # The re-split decision ladder
//!
//! [`IngestSession::tune`] folds query feedback
//! ([`IngestSession::record_feedback`] → per-clique abs-rel-error
//! quantile gauges) into maintenance, cheapest remedy first:
//!
//! 1. **Idle** — too little feedback, or no clique's q95 error exceeds
//!    [`IngestConfig::resplit_threshold`]. Do nothing.
//! 2. **Re-split** — one clique's error tail tripped but the model
//!    still fits ([`MaintainedDbHistogram::drift`] under
//!    [`IngestConfig::rebuild_drift_threshold`]): rebuild *that
//!    clique's* bucketization from its maintained marginal via the
//!    split-tree allocator ([`MaintainedDbHistogram::resplit_clique`]),
//!    keep every other factor and the model untouched, checkpoint.
//! 3. **Rebuild recommended** — structural drift says the *model* no
//!    longer fits (or the marginals were dropped to the budget cap /
//!    lost to a crash, leaving nothing to re-split from). The caller
//!    builds a fresh [`MaintainedDbHistogram`] from the live table
//!    offline and swaps it in via
//!    [`crate::service::EstimatorService::swap`]; this module never
//!    blocks the stream on a rebuild.

use std::path::{Path, PathBuf};

use dbhist_distribution::{Distribution, Relation, Schema};
use dbhist_persist::wal::{WalOp, WalPosition, WalWriter};
use dbhist_persist::PersistError;
use dbhist_telemetry::journal::{journal, JournalEvent};
use dbhist_telemetry::wellknown::wellknown;

use crate::error::SynopsisError;
use crate::maintenance::MaintainedDbHistogram;
use crate::query::Query;
use crate::synopsis::DbConfig;

/// Quantile (percentile) of a clique's feedback error distribution that
/// [`IngestSession::tune`] compares with
/// [`IngestConfig::resplit_threshold`]: a few catastrophic estimates
/// hide in a mean but not in the q95.
const TRIGGER_QUANTILE: f64 = 95.0;

/// Tuning knobs for an [`IngestSession`].
#[derive(Debug, Clone, PartialEq)]
pub struct IngestConfig {
    /// Cap on the total number of resident cells across all maintained
    /// per-clique marginals. When incremental updates push the support
    /// past this cap, marginal tracking is dropped (deterministically,
    /// once) and the tuner degrades from re-splitting to recommending
    /// rebuilds — bounded memory beats unbounded fidelity on a stream.
    pub marginal_budget_cells: usize,
    /// q95 per-clique abs-rel-error above which [`IngestSession::tune`]
    /// re-splits the offending clique.
    pub resplit_threshold: f64,
    /// Structural drift ([`MaintainedDbHistogram::drift`]) above which
    /// tuning escalates to [`TuneOutcome::RebuildRecommended`] instead
    /// of re-splitting — new data contradicting the *model* cannot be
    /// fixed by re-bucketing one clique.
    pub rebuild_drift_threshold: f64,
    /// Minimum feedback observations before tuning acts at all; below
    /// this the error quantiles are noise.
    pub min_observations: u64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            marginal_budget_cells: 1 << 20,
            resplit_threshold: 0.25,
            rebuild_drift_threshold: 0.5,
            min_observations: 32,
        }
    }
}

/// What [`IngestSession::tune`] decided (and did).
#[derive(Debug, Clone, PartialEq)]
pub enum TuneOutcome {
    /// Nothing tripped; no change.
    Idle,
    /// One clique's bucketization was rebuilt in place from its
    /// maintained marginal; the synopsis was checkpointed.
    Resplit {
        /// Index of the re-split clique.
        clique: usize,
        /// Buckets in the replacement factor.
        buckets: usize,
    },
    /// The cheap remedies are exhausted — the caller should schedule a
    /// full background re-selection (a fresh
    /// [`MaintainedDbHistogram::build`] over the live table). The session
    /// keeps serving and ingesting meanwhile.
    RebuildRecommended {
        /// The reading that escalated (structural drift, or the tripped
        /// q95 error when no marginal was available to re-split from).
        drift: f64,
    },
}

/// What a crash recovery replayed.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Committed batches replayed from the WAL tail.
    pub batches_replayed: u64,
    /// Committed batches the snapshot's recorded [`WalPosition`] proved
    /// were already absorbed, so replay skipped them (non-zero exactly
    /// when the crash landed between a checkpoint's snapshot save and
    /// its WAL truncation).
    pub batches_skipped: u64,
    /// Tuple operations replayed.
    pub ops_replayed: u64,
    /// The typed error describing a torn (uncommitted) tail the log
    /// carried, if any. The tail was discarded — it was never
    /// acknowledged to the writer.
    pub tail_discarded: Option<PersistError>,
}

/// How many leading WAL batches recovery must skip because the snapshot
/// already absorbed them, per the snapshot's recorded [`WalPosition`]
/// and the log's header generation (module docs, "Crash recovery").
/// Errors on any snapshot/log pairing the checkpoint protocol cannot
/// produce — replaying such a log could double- or under-apply batches.
fn batches_to_skip(
    snap: Option<WalPosition>,
    recovery: &dbhist_persist::wal::WalRecovery,
) -> Result<u64, SynopsisError> {
    let committed = recovery.batches.len() as u64;
    let corrupt = |reason: String| SynopsisError::Persist(PersistError::Corrupt { reason });
    let Some(pos) = snap else {
        if committed == 0 {
            return Ok(0);
        }
        return Err(corrupt(format!(
            "snapshot records no wal position but the log holds {committed} committed batches; \
             replaying them cannot be proven safe (the snapshot may already contain them)"
        )));
    };
    if recovery.generation == pos.generation {
        // Crash between a checkpoint's snapshot save and its WAL
        // truncation: the snapshot absorbed the first `batches_covered`
        // batches of this very log.
        if committed < pos.batches_covered {
            return Err(corrupt(format!(
                "snapshot absorbed {} batches of wal generation {} but the log holds only \
                 {committed}",
                pos.batches_covered, pos.generation
            )));
        }
        Ok(pos.batches_covered)
    } else if recovery.generation == pos.generation + 1 {
        // The checkpoint that wrote this snapshot completed its
        // truncation; the tail is entirely post-snapshot.
        Ok(0)
    } else {
        Err(corrupt(format!(
            "wal generation {} cannot pair with a snapshot cut at generation {} (the \
             checkpoint protocol only ever leaves the log at the snapshot's generation or \
             one past it)",
            recovery.generation, pos.generation
        )))
    }
}

/// Checks every op's row against `schema`: its arity, then each value
/// against its attribute's domain, so that no factor update can reject
/// it. `parameter` names the ops' source in the error.
fn check_ops(schema: &Schema, ops: &[WalOp], parameter: &'static str) -> Result<(), SynopsisError> {
    for row in ops.iter().map(WalOp::row) {
        if row.len() != schema.arity() {
            return Err(SynopsisError::InvalidConfig {
                parameter,
                reason: format!(
                    "op arity {} does not match the schema arity {}",
                    row.len(),
                    schema.arity()
                ),
            });
        }
        if let Some(((a, attr), v)) =
            schema.iter().zip(row).find(|((_, attr), &v)| v >= attr.domain_size)
        {
            return Err(SynopsisError::InvalidConfig {
                parameter,
                reason: format!(
                    "op value {v} of attribute {a} is outside its domain 0..{}",
                    attr.domain_size
                ),
            });
        }
    }
    Ok(())
}

/// The schema's arity as the WAL header's `u16`.
fn wal_arity(schema: &Schema) -> Result<u16, SynopsisError> {
    u16::try_from(schema.arity()).map_err(|_| SynopsisError::InvalidConfig {
        parameter: "schema",
        reason: format!("arity {} exceeds the WAL's u16 bound", schema.arity()),
    })
}

/// Each op's row with its count delta: `+1.0` per insert, `-1.0` per
/// delete.
fn signed_rows(ops: &[WalOp]) -> impl Iterator<Item = (&[u32], f64)> {
    ops.iter().map(|op| match op {
        WalOp::Insert(row) => (row.as_slice(), 1.0),
        WalOp::Delete(row) => (row.as_slice(), -1.0),
    })
}

/// A streaming ingest session over a maintained synopsis. See the
/// module docs for the durability and tuning contracts.
#[derive(Debug)]
pub struct IngestSession {
    maintained: MaintainedDbHistogram,
    /// Per-clique marginals maintained incrementally alongside the
    /// factors (same clique order as the model); `None` once dropped to
    /// the budget cap, or after a recovery (the snapshot does not carry
    /// them).
    marginals: Option<Vec<Distribution>>,
    /// Where [`IngestSession::checkpoint`] saves the snapshot; set
    /// together with `wal`.
    snapshot: Option<PathBuf>,
    wal: Option<WalWriter>,
    cfg: IngestConfig,
    batches_applied: u64,
    ops_applied: u64,
    resplits: u64,
}

impl IngestSession {
    /// Starts a session over `maintained`, seeding the per-clique
    /// marginals from `relation` (the same base table the synopsis was
    /// built from). The session is volatile until
    /// [`IngestSession::with_durability`] attaches a snapshot + WAL.
    ///
    /// # Errors
    ///
    /// Propagates marginal-construction failures (e.g. a relation whose
    /// schema does not cover the model's cliques).
    pub fn begin(
        maintained: MaintainedDbHistogram,
        relation: &Relation,
        cfg: IngestConfig,
    ) -> Result<Self, SynopsisError> {
        let cliques = maintained.synopsis().model().cliques().to_vec();
        let mut marginals = Vec::with_capacity(cliques.len());
        for clique in &cliques {
            marginals.push(relation.marginal(clique)?);
        }
        let mut session = Self {
            maintained,
            marginals: Some(marginals),
            snapshot: None,
            wal: None,
            cfg,
            batches_applied: 0,
            ops_applied: 0,
            resplits: 0,
        };
        session.enforce_marginal_budget();
        Ok(session)
    }

    /// Attaches durability: persists a snapshot to `snapshot_path`
    /// immediately (and at every checkpoint) and creates a fresh WAL at
    /// `wal_path` journaling every subsequent batch. The snapshot
    /// records WAL position zero — generation 0, no batches — so
    /// recovery knows the log it sits beside starts from it.
    ///
    /// # Errors
    ///
    /// Propagates snapshot-save and WAL-create failures.
    pub fn with_durability(
        mut self,
        snapshot_path: impl Into<PathBuf>,
        wal_path: impl Into<PathBuf>,
    ) -> Result<Self, SynopsisError> {
        let snapshot_path = snapshot_path.into();
        crate::snapshot::save_db(
            self.maintained.synopsis(),
            &snapshot_path,
            Some(WalPosition { generation: 0, batches_covered: 0 }),
        )?;
        self.snapshot = Some(snapshot_path);
        let arity = wal_arity(self.maintained.synopsis().model().schema())?;
        self.wal = Some(WalWriter::create(wal_path.into(), arity)?);
        Ok(self)
    }

    /// Recovers a crashed session from its last snapshot plus the WAL
    /// tail: loads the synopsis, compares the snapshot's recorded
    /// [`WalPosition`] against the log's generation to skip every batch
    /// the snapshot already absorbed (see the module docs' crash-window
    /// table), replays the rest through the normal update path
    /// (bit-identical to the uninterrupted run), discards a torn tail
    /// if the crash left one, and reopens the log for further appends.
    /// Marginal tracking does not survive a crash (the snapshot
    /// intentionally does not carry it), so tuning degrades to rebuild
    /// recommendations until the next full rebuild re-seeds a session.
    ///
    /// # Errors
    ///
    /// Propagates snapshot load failures, typed WAL header/arity
    /// failures, and filesystem errors; a snapshot/WAL pair whose
    /// recorded position and generation cannot have come from one
    /// checkpoint protocol run (see the module docs) is
    /// [`PersistError::Corrupt`] — replaying it could double- or
    /// under-apply batches. A logged op whose value lies outside its
    /// attribute's domain is [`SynopsisError::InvalidConfig`]. A torn WAL
    /// *tail* is not an error — it is reported in
    /// [`RecoveryReport::tail_discarded`].
    pub fn recover(
        snapshot_path: impl AsRef<Path>,
        wal_path: impl Into<PathBuf>,
        config: DbConfig,
        cfg: IngestConfig,
    ) -> Result<(Self, RecoveryReport), SynopsisError> {
        let snapshot_path = snapshot_path.as_ref();
        let wal_path = wal_path.into();
        let mut maintained = MaintainedDbHistogram::from_snapshot(snapshot_path, config)?;
        let snap_pos = crate::snapshot::load_wal_position(snapshot_path)?;
        let arity = wal_arity(maintained.synopsis().model().schema())?;
        let mut report = RecoveryReport {
            batches_replayed: 0,
            batches_skipped: 0,
            ops_replayed: 0,
            tail_discarded: None,
        };
        if wal_path.exists() {
            let bytes = dbhist_persist::read_file(&wal_path)?;
            let recovery = dbhist_persist::wal::recover(&bytes)?;
            if recovery.arity != arity {
                return Err(SynopsisError::InvalidConfig {
                    parameter: "wal_path",
                    reason: format!(
                        "wal arity {} does not match the snapshot schema arity {arity}",
                        recovery.arity
                    ),
                });
            }
            let skip = batches_to_skip(snap_pos, &recovery)?;
            report.batches_skipped = skip;
            for batch in recovery.batches.iter().skip(usize::try_from(skip).unwrap_or(usize::MAX)) {
                // A log written before values were checked on ingest may
                // hold an op that no factor can apply.
                check_ops(maintained.synopsis().model().schema(), &batch.ops, "wal_path")?;
                maintained.apply(signed_rows(&batch.ops));
                report.ops_replayed += batch.ops.len() as u64;
                report.batches_replayed += 1;
            }
            report.tail_discarded = recovery.tail_error;
        }
        // `open` truncates the torn tail (if any) and resumes the
        // sequence right after the last committed batch. A missing log
        // beside a positioned snapshot restarts one generation past the
        // snapshot's — "everything absorbed, empty tail".
        let wal = if wal_path.exists() {
            WalWriter::open(wal_path, arity)?
        } else {
            let generation = snap_pos.map_or(0, |p| p.generation + 1);
            WalWriter::create_at(wal_path, arity, generation)?
        };
        if dbhist_telemetry::enabled() {
            wellknown().ingest_recoveries.increment();
        }
        let session = Self {
            maintained,
            marginals: None,
            snapshot: Some(snapshot_path.to_path_buf()),
            wal: Some(wal),
            cfg,
            batches_applied: report.batches_replayed,
            ops_applied: report.ops_replayed,
            resplits: 0,
        };
        Ok((session, report))
    }

    /// Applies one batch of tuple operations: journals it to the WAL
    /// (fsync'd) **first**, then updates every clique factor and the
    /// maintained marginals. Returns the number of batches applied so
    /// far (== the WAL sequence number + 1 when durable).
    ///
    /// # Errors
    ///
    /// [`SynopsisError::InvalidConfig`] if any op's arity disagrees with
    /// the schema or any value lies outside its attribute's domain
    /// (checked up front — nothing is journaled or applied),
    /// or a [`SynopsisError::Persist`] WAL failure (nothing is applied:
    /// a batch that isn't durable must not move the estimates).
    pub fn apply_batch(&mut self, ops: &[WalOp]) -> Result<u64, SynopsisError> {
        check_ops(self.maintained.synopsis().model().schema(), ops, "ops")?;
        if let Some(wal) = &mut self.wal {
            let before = wal.appended_bytes();
            let seq = wal.append(ops)?;
            journal().publish(JournalEvent::WalAppend {
                seq,
                ops: ops.len() as u64,
                bytes: wal.appended_bytes() - before,
            });
            if dbhist_telemetry::enabled() {
                wellknown().ingest_wal_bytes.set(wal.appended_bytes() as f64);
            }
        }
        self.maintained.apply(signed_rows(ops));
        if let Some(marginals) = &mut self.marginals {
            let cliques = self.maintained.synopsis().model().cliques();
            let mut key: Vec<u32> = Vec::new();
            for (row, delta) in signed_rows(ops) {
                for (clique, marginal) in cliques.iter().zip(marginals.iter_mut()) {
                    key.clear();
                    key.extend(clique.iter().map(|a| row[usize::from(a)]));
                    marginal.add(&key, delta);
                }
            }
        }
        self.ops_applied += ops.len() as u64;
        self.batches_applied += 1;
        self.enforce_marginal_budget();
        if dbhist_telemetry::enabled() {
            let w = wellknown();
            w.ingest_batches.increment();
            w.ingest_ops.add(ops.len() as u64);
        }
        Ok(self.batches_applied)
    }

    /// Feeds an executed query's actual cardinality into the per-clique
    /// drift monitor — the signal [`IngestSession::tune`] acts on.
    pub fn record_feedback(&self, query: &Query, actual: f64) {
        self.maintained.synopsis().record_feedback(query, actual);
    }

    /// Runs the re-split decision ladder (see the module docs): `Idle`
    /// when nothing tripped, `Resplit` when one clique's error tail can
    /// be fixed from its maintained marginal, `RebuildRecommended` when
    /// only full re-selection will help. A re-split checkpoints
    /// (snapshot + WAL truncation) before returning, so recovery always
    /// replays onto the *current* structure.
    ///
    /// # Errors
    ///
    /// Propagates re-split construction and checkpoint I/O failures.
    pub fn tune(&mut self) -> Result<TuneOutcome, SynopsisError> {
        let monitor = self.maintained.synopsis().drift_monitor();
        if monitor.observations() < self.cfg.min_observations {
            return Ok(TuneOutcome::Idle);
        }
        let drift = self.maintained.drift();
        if drift > self.cfg.rebuild_drift_threshold {
            return Ok(TuneOutcome::RebuildRecommended { drift });
        }
        let worst = (0..monitor.n_cliques())
            .max_by(|&a, &b| {
                let qa = monitor.error_quantile(a, TRIGGER_QUANTILE).unwrap_or(0.0);
                let qb = monitor.error_quantile(b, TRIGGER_QUANTILE).unwrap_or(0.0);
                qa.total_cmp(&qb)
            })
            .unwrap_or(0);
        let q95 = monitor.error_quantile(worst, TRIGGER_QUANTILE).unwrap_or(0.0);
        if q95 <= self.cfg.resplit_threshold {
            return Ok(TuneOutcome::Idle);
        }
        let Some(compacted) = self.compacted_marginal(worst) else {
            // Nothing to re-split from: marginals were dropped to the
            // budget cap, lost to a crash, or deletes emptied the
            // clique. Only a rebuild re-derives the boundaries.
            return Ok(TuneOutcome::RebuildRecommended { drift: q95 });
        };
        let buckets = self.maintained.resplit_clique(worst, &compacted)?;
        self.checkpoint()?;
        self.resplits += 1;
        if dbhist_telemetry::enabled() {
            wellknown().ingest_resplits.increment();
        }
        Ok(TuneOutcome::Resplit { clique: worst, buckets })
    }

    /// Re-saves the snapshot with the WAL's current position embedded,
    /// then atomically truncates the WAL to its next generation: the
    /// snapshot now embodies every applied batch, so the old tail is
    /// dead weight. Crash-safe at
    /// every step — the position rides inside the snapshot's own
    /// fsync'd atomic write, so a crash *between* the save and the
    /// truncation leaves a snapshot that names exactly the batches it
    /// absorbed and recovery skips them instead of double-applying
    /// (module docs, "Crash recovery"). The save must come first and
    /// this method does not reorder the two. A no-op on a volatile
    /// session.
    ///
    /// # Errors
    ///
    /// Propagates snapshot-save and WAL I/O failures.
    pub fn checkpoint(&mut self) -> Result<(), SynopsisError> {
        let (Some(path), Some(wal)) = (&self.snapshot, &mut self.wal) else {
            return Ok(());
        };
        crate::snapshot::save_db(self.maintained.synopsis(), path, Some(wal.position()))?;
        let batches = wal.next_seq();
        wal.truncate()?;
        journal().publish(JournalEvent::WalTruncate { batches });
        if dbhist_telemetry::enabled() {
            wellknown().ingest_wal_bytes.set(0.0);
        }
        Ok(())
    }

    /// The wrapped estimator (answers queries, exposes drift gauges).
    #[must_use]
    pub fn estimator(&self) -> &MaintainedDbHistogram {
        &self.maintained
    }

    /// Batches applied (including replayed ones after a recovery).
    #[must_use]
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied
    }

    /// Tuple operations applied (including replayed ones).
    #[must_use]
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// Feedback-triggered re-splits performed by this session.
    #[must_use]
    pub fn resplits(&self) -> u64 {
        self.resplits
    }

    /// `true` while per-clique marginals are still maintained (re-split
    /// available); `false` after the budget cap dropped them or a
    /// recovery started without them.
    #[must_use]
    pub fn marginals_tracked(&self) -> bool {
        self.marginals.is_some()
    }

    /// The maintained marginal for `clique`, if tracking is alive —
    /// exposed for equivalence testing and benchmarks.
    #[must_use]
    pub fn marginal(&self, clique: usize) -> Option<&Distribution> {
        self.marginals.as_ref().and_then(|m| m.get(clique))
    }

    /// Total resident cells across all maintained marginals (0 once
    /// tracking is dropped).
    #[must_use]
    pub fn marginal_cells(&self) -> usize {
        self.marginals.as_ref().map_or(0, |m| m.iter().map(Distribution::support_size).sum())
    }

    /// Drops marginal tracking once its resident support exceeds the
    /// budget cap. Deterministic: the same op stream always drops at
    /// the same batch, so replicas and recoveries agree.
    fn enforce_marginal_budget(&mut self) {
        if self.marginal_cells() > self.cfg.marginal_budget_cells {
            self.marginals = None;
        }
    }

    /// A positive-mass copy of `clique`'s maintained marginal, ready
    /// for the split-tree allocator (deletes can leave zero or
    /// transiently negative cells resident; a histogram builder wants
    /// neither). `None` when tracking is off or no positive mass
    /// remains.
    fn compacted_marginal(&self, clique: usize) -> Option<Distribution> {
        let tracked = self.marginals.as_ref()?.get(clique)?;
        let mut compact =
            Distribution::empty(tracked.schema().clone(), tracked.attrs().clone()).ok()?;
        for (key, w) in tracked.iter() {
            if w > 0.0 {
                compact.add(key, w);
            }
        }
        if compact.support_size() == 0 {
            return None;
        }
        Some(compact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::SelectivityEstimator;
    use dbhist_distribution::Schema;

    /// a == b (8 values), c independent.
    fn relation(rows: u32) -> Relation {
        let schema = Schema::new(vec![("a", 8), ("b", 8), ("c", 4)]).unwrap();
        let data: Vec<Vec<u32>> = (0..rows).map(|i| vec![i % 8, i % 8, (i / 8) % 4]).collect();
        Relation::from_rows(schema, data).unwrap()
    }

    fn session(rows: u32) -> IngestSession {
        let rel = relation(rows);
        let m = MaintainedDbHistogram::build(&rel, DbConfig::new(600)).unwrap();
        IngestSession::begin(m, &rel, IngestConfig::default()).unwrap()
    }

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dbhist-ingest-{}-{tag}", std::process::id()))
    }

    #[test]
    fn batches_match_one_shot_updates() {
        let rel = relation(4096);
        let m = MaintainedDbHistogram::build(&rel, DbConfig::new(600)).unwrap();
        let mut reference = m.clone();
        let mut s = IngestSession::begin(m, &rel, IngestConfig::default()).unwrap();
        let ops: Vec<WalOp> = (0..300u32)
            .map(|i| {
                if i % 5 == 4 {
                    WalOp::Delete(vec![i % 8, i % 8, 0])
                } else {
                    WalOp::Insert(vec![i % 8, (i + 1) % 8, (i / 8) % 4])
                }
            })
            .collect();
        for chunk in ops.chunks(37) {
            s.apply_batch(chunk).unwrap();
        }
        for op in &ops {
            match op {
                WalOp::Insert(row) => reference.insert(row),
                WalOp::Delete(row) => reference.delete(row),
            }
        }
        for q in [Query::all(), Query::range(0, 3, 3), Query::equals(1, 5)] {
            assert_eq!(
                s.estimator().estimate(&q).to_bits(),
                reference.estimate(&q).to_bits(),
                "batched ingest must be bit-identical to one-shot updates"
            );
        }
        assert_eq!(s.ops_applied(), 300);
        assert_eq!(s.batches_applied(), 300_u64.div_ceil(37));
    }

    #[test]
    fn marginals_track_the_stream() {
        let mut s = session(512);
        s.apply_batch(&[WalOp::Insert(vec![2, 6, 1]), WalOp::Insert(vec![2, 6, 1])]).unwrap();
        s.apply_batch(&[WalOp::Delete(vec![2, 6, 1])]).unwrap();
        assert!(s.marginals_tracked());
        let cliques = s.estimator().synopsis().model().cliques().to_vec();
        for (i, clique) in cliques.iter().enumerate() {
            let tracked = s.marginal(i).expect("tracking alive");
            let key: Vec<u32> = clique.iter().map(|a| [2u32, 6, 1][usize::from(a)]).collect();
            // Net one insert of [2,6,1] relative to the 512-row seed.
            let seeded = relation(512).marginal(clique).unwrap().frequency(&key);
            assert_eq!(tracked.frequency(&key).to_bits(), (seeded + 1.0).to_bits());
        }
    }

    #[test]
    fn budget_cap_drops_tracking_deterministically() {
        let rel = relation(256);
        let m = MaintainedDbHistogram::build(&rel, DbConfig::new(600)).unwrap();
        let cfg = IngestConfig { marginal_budget_cells: 40, ..IngestConfig::default() };
        let mut s = IngestSession::begin(m, &rel, cfg).unwrap();
        assert!(s.marginals_tracked(), "seed support fits the cap");
        // Widen the support past the cap: all 64 (a, b) combinations.
        for v in 0..64u32 {
            s.apply_batch(&[WalOp::Insert(vec![v % 8, v / 8, v % 4])]).unwrap();
        }
        assert!(!s.marginals_tracked(), "cap exceeded: tracking dropped");
        assert_eq!(s.marginal_cells(), 0);
        // Tuning degrades to a rebuild recommendation once tripped.
        for i in 0..64u32 {
            let q = Query::equals(0, i % 8);
            let est = s.estimator().estimate(&q).max(1.0);
            s.record_feedback(&q, est * 10.0);
        }
        // Structural drift may or may not trip here; both remaining
        // outcomes are escalations, never a re-split.
        match s.tune().unwrap() {
            TuneOutcome::RebuildRecommended { .. } => {}
            other => panic!("expected RebuildRecommended, got {other:?}"),
        }
    }

    #[test]
    fn arity_mismatch_is_typed_and_applies_nothing() {
        let mut s = session(256);
        let before = s.estimator().estimate(&Query::all()).to_bits();
        let err =
            s.apply_batch(&[WalOp::Insert(vec![1, 1, 1]), WalOp::Insert(vec![1, 1])]).unwrap_err();
        assert!(matches!(err, SynopsisError::InvalidConfig { parameter: "ops", .. }));
        assert_eq!(s.estimator().estimate(&Query::all()).to_bits(), before);
        assert_eq!(s.batches_applied(), 0);
    }

    #[test]
    fn tune_is_idle_without_feedback() {
        let mut s = session(512);
        assert_eq!(s.tune().unwrap(), TuneOutcome::Idle);
    }

    #[test]
    fn feedback_trip_resplits_only_the_worst_clique() {
        let rel = relation(4096);
        let m = MaintainedDbHistogram::build(&rel, DbConfig::new(600)).unwrap();
        let cfg = IngestConfig { min_observations: 16, ..IngestConfig::default() };
        let mut s = IngestSession::begin(m, &rel, cfg).unwrap();
        // Shift the data: column a's distribution concentrates on value
        // 7, which the seeded bucketization under-resolves.
        for _ in 0..1500 {
            s.apply_batch(&[WalOp::Insert(vec![7, 7, 0])]).unwrap();
        }
        // Feedback on the shifted region reports large errors.
        for _ in 0..32 {
            let q = Query::equals(0, 7);
            let est = s.estimator().estimate(&q).max(1.0);
            let actual = rel.count_range(&[(0, 7, 7)]) as f64 + 1500.0;
            s.record_feedback(&q, actual.max(est * 2.0));
        }
        let outcome = s.tune().unwrap();
        match outcome {
            TuneOutcome::Resplit { clique, buckets } => {
                assert!(buckets > 0);
                assert!(clique < s.estimator().synopsis().model().cliques().len());
                assert_eq!(s.resplits(), 1);
                // The re-split clique's drift stats were reset.
                let monitor = s.estimator().synopsis().drift_monitor();
                assert!(monitor.error_quantile(clique, TRIGGER_QUANTILE).is_none());
            }
            TuneOutcome::RebuildRecommended { drift } => {
                // Acceptable only if structural drift genuinely tripped.
                assert!(drift > 0.0);
            }
            TuneOutcome::Idle => panic!("feedback this bad must not be idle"),
        }
    }

    #[test]
    fn durable_session_round_trips_through_recovery() {
        let snap = temp("roundtrip.dbhs");
        let wal = temp("roundtrip.wal");
        let rel = relation(2048);
        let m = MaintainedDbHistogram::build(&rel, DbConfig::new(600)).unwrap();
        let mut s = IngestSession::begin(m, &rel, IngestConfig::default())
            .unwrap()
            .with_durability(&snap, &wal)
            .unwrap();
        for i in 0..20u32 {
            s.apply_batch(&[
                WalOp::Insert(vec![i % 8, (i + 2) % 8, i % 4]),
                WalOp::Insert(vec![i % 8, i % 8, 0]),
                WalOp::Delete(vec![i % 8, i % 8, (i / 8) % 4]),
            ])
            .unwrap();
        }
        let live: Vec<u64> = [Query::all(), Query::range(0, 2, 6), Query::equals(2, 1)]
            .iter()
            .map(|q| s.estimator().estimate(q).to_bits())
            .collect();
        drop(s); // simulate the process dying (WAL already fsync'd per batch)
        let (r, report) =
            IngestSession::recover(&snap, &wal, DbConfig::new(600), IngestConfig::default())
                .unwrap();
        assert_eq!(report.batches_replayed, 20);
        assert_eq!(report.ops_replayed, 60);
        assert!(report.tail_discarded.is_none());
        let recovered: Vec<u64> = [Query::all(), Query::range(0, 2, 6), Query::equals(2, 1)]
            .iter()
            .map(|q| r.estimator().estimate(q).to_bits())
            .collect();
        assert_eq!(live, recovered, "recovery must be bit-identical");
        assert!(!r.marginals_tracked(), "marginals do not survive a crash");
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn crash_between_snapshot_and_truncate_does_not_double_apply() {
        let snap = temp("midckpt.dbhs");
        let wal = temp("midckpt.wal");
        let rel = relation(1024);
        let m = MaintainedDbHistogram::build(&rel, DbConfig::new(600)).unwrap();
        let mut s = IngestSession::begin(m, &rel, IngestConfig::default())
            .unwrap()
            .with_durability(&snap, &wal)
            .unwrap();
        for _ in 0..6 {
            s.apply_batch(&[WalOp::Insert(vec![2, 2, 1])]).unwrap();
        }
        // Simulate a checkpoint that crashed after its snapshot save but
        // before the WAL truncation: persist with the current position,
        // leave the log untouched. The log now holds 6 batches the
        // snapshot already absorbed.
        let position = s.wal.as_ref().unwrap().position();
        crate::snapshot::save_db(s.maintained.synopsis(), &snap, Some(position)).unwrap();
        // One more batch lands after the interrupted checkpoint.
        s.apply_batch(&[WalOp::Insert(vec![2, 2, 1])]).unwrap();
        let q = Query::equals(0, 2);
        let live = s.estimator().estimate(&q).to_bits();
        drop(s);
        let (r, report) =
            IngestSession::recover(&snap, &wal, DbConfig::new(600), IngestConfig::default())
                .unwrap();
        assert_eq!(report.batches_skipped, 6, "snapshot-absorbed batches must not replay");
        assert_eq!(report.batches_replayed, 1, "the post-save batch must replay");
        assert_eq!(
            r.estimator().estimate(&q).to_bits(),
            live,
            "skip-aware replay must be bit-identical, not double-applied"
        );
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn mismatched_wal_generation_is_rejected() {
        let snap = temp("genmismatch.dbhs");
        let wal = temp("genmismatch.wal");
        let rel = relation(512);
        let m = MaintainedDbHistogram::build(&rel, DbConfig::new(600)).unwrap();
        let mut s = IngestSession::begin(m, &rel, IngestConfig::default())
            .unwrap()
            .with_durability(&snap, &wal)
            .unwrap();
        s.apply_batch(&[WalOp::Insert(vec![1, 1, 1])]).unwrap();
        drop(s);
        // Replace the log with one from a generation the snapshot (cut
        // at generation 0) cannot have produced.
        let mut foreign = WalWriter::create_at(&wal, 3, 7).unwrap();
        foreign.append(&[WalOp::Insert(vec![1, 1, 1])]).unwrap();
        drop(foreign);
        let err = IngestSession::recover(&snap, &wal, DbConfig::new(600), IngestConfig::default())
            .unwrap_err();
        assert!(matches!(err, SynopsisError::Persist(PersistError::Corrupt { .. })), "{err:?}");
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn positionless_snapshot_refuses_a_nonempty_wal() {
        let snap = temp("nopos.dbhs");
        let wal = temp("nopos.wal");
        let rel = relation(512);
        let m = MaintainedDbHistogram::build(&rel, DbConfig::new(600)).unwrap();
        // A plain save records no WAL position.
        crate::Synopsis::Mhist(m.synopsis().clone()).save(&snap).unwrap();
        let mut w = WalWriter::create(&wal, 3).unwrap();
        w.append(&[WalOp::Insert(vec![1, 1, 1])]).unwrap();
        drop(w);
        let err = IngestSession::recover(&snap, &wal, DbConfig::new(600), IngestConfig::default())
            .unwrap_err();
        assert!(matches!(err, SynopsisError::Persist(PersistError::Corrupt { .. })), "{err:?}");
        // An *empty* log beside a positionless snapshot is harmless:
        // nothing to replay, so recovery proceeds.
        let w = WalWriter::create(&wal, 3).unwrap();
        drop(w);
        let (_, report) =
            IngestSession::recover(&snap, &wal, DbConfig::new(600), IngestConfig::default())
                .unwrap();
        assert_eq!(report.batches_replayed, 0);
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn recovered_session_keeps_the_checkpoint_protocol() {
        let snap = temp("rechkpt.dbhs");
        let wal = temp("rechkpt.wal");
        let queries = [Query::all(), Query::equals(0, 7), Query::range(0, 2, 6).and(2, 0, 1)];
        let bits = |s: &IngestSession| -> Vec<u64> {
            queries.iter().map(|q| s.estimator().estimate(q).to_bits()).collect()
        };
        let recover = || {
            IngestSession::recover(&snap, &wal, DbConfig::new(600), IngestConfig::default())
                .unwrap()
        };
        let rel = relation(4096);
        let m = MaintainedDbHistogram::build(&rel, DbConfig::new(600)).unwrap();
        let cfg = IngestConfig { min_observations: 16, ..IngestConfig::default() };
        let mut s =
            IngestSession::begin(m, &rel, cfg).unwrap().with_durability(&snap, &wal).unwrap();
        for _ in 0..30 {
            s.apply_batch(&vec![WalOp::Insert(vec![7, 7, 0]); 50]).unwrap();
        }
        for _ in 0..32 {
            let q = Query::equals(0, 7);
            let est = s.estimator().estimate(&q).max(1.0);
            s.record_feedback(&q, est * 10.0);
        }
        assert!(matches!(s.tune().unwrap(), TuneOutcome::Resplit { .. }));
        for i in 0..4u32 {
            s.apply_batch(&[WalOp::Insert(vec![i, i, 1]), WalOp::Delete(vec![7, 7, 0])]).unwrap();
        }
        let live = bits(&s);
        drop(s);
        let (mut r, report) = recover();
        assert_eq!(report.batches_skipped, 0);
        assert_eq!(report.batches_replayed, 4, "only the post-re-split batches replay");
        assert_eq!(bits(&r), live, "recovery onto the re-split structure must be bit-identical");
        for i in 0..3u32 {
            r.apply_batch(&[WalOp::Insert(vec![i, i, 2])]).unwrap();
        }
        r.checkpoint().unwrap();
        r.apply_batch(&[WalOp::Insert(vec![5, 5, 3])]).unwrap();
        let live = bits(&r);
        drop(r);
        let (r, report) = recover();
        assert_eq!(report.batches_skipped, 0);
        assert_eq!(report.batches_replayed, 1, "a recovered session's checkpoint truncates");
        assert_eq!(bits(&r), live, "second recovery must be bit-identical");
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal).ok();
    }

    #[test]
    fn checkpoint_truncates_the_wal() {
        let snap = temp("ckpt.dbhs");
        let wal = temp("ckpt.wal");
        let rel = relation(1024);
        let m = MaintainedDbHistogram::build(&rel, DbConfig::new(600)).unwrap();
        let mut s = IngestSession::begin(m, &rel, IngestConfig::default())
            .unwrap()
            .with_durability(&snap, &wal)
            .unwrap();
        for _ in 0..5 {
            s.apply_batch(&[WalOp::Insert(vec![1, 1, 1])]).unwrap();
        }
        let q = Query::equals(0, 1);
        let live = s.estimator().estimate(&q).to_bits();
        s.checkpoint().unwrap();
        s.apply_batch(&[WalOp::Insert(vec![1, 1, 1])]).unwrap();
        // The log holds only the post-checkpoint batch.
        let contents =
            dbhist_persist::wal::read(&dbhist_persist::read_file(&wal).unwrap()).unwrap();
        assert_eq!(contents.batches.len(), 1);
        // Recovery = checkpointed snapshot + 1-batch tail.
        let live2 = s.estimator().estimate(&q).to_bits();
        drop(s);
        let (r, report) =
            IngestSession::recover(&snap, &wal, DbConfig::new(600), IngestConfig::default())
                .unwrap();
        assert_eq!(report.batches_replayed, 1);
        assert_eq!(r.estimator().estimate(&q).to_bits(), live2);
        assert_ne!(live, live2, "the post-checkpoint insert moved the estimate");
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&wal).ok();
    }
}
