//! Saving and loading whole synopses as versioned snapshot files.
//!
//! A synopsis `H = <M, C>` is exactly the artifact the paper designed to
//! be small (§4.2's `3b − 2`-number split trees): this module makes it
//! durable. [`Synopsis::save`] serializes the decomposable model and
//! every clique factor into the [`dbhist_persist`] container;
//! [`Synopsis::load`] materializes it back **without re-deriving any
//! structure** — no re-chordalization, no junction-tree construction, no
//! re-rooting (the synopsis's `RootedViews` refill lazily, exactly as
//! after an in-memory build).
//!
//! Loaded synopses are *bit-identical* estimators: every `f64` in every
//! factor round-trips by bit pattern (see the `*_exact` codecs in
//! `dbhist_histogram::codec`), so `save → load → estimate` returns the
//! same bits as the in-memory synopsis. The persistence round-trip
//! proptest in `tests/persist_roundtrip.rs` pins this.
//!
//! Corruption is detected, never UB: the container layer checks magic,
//! version, bounds, and per-section CRCs eagerly, and every decoded
//! structure passes through the same validating constructors the codecs
//! use, surfacing typed [`PersistError`]s wrapped in
//! [`SynopsisError::Persist`].

use std::path::Path;
use std::time::Instant;

use dbhist_distribution::Schema;
use dbhist_histogram::codec::{
    decode_grid_exact, decode_haar_exact, decode_split_tree_exact, encode_grid_exact,
    encode_haar_exact, encode_split_tree_exact,
};
use dbhist_histogram::{GridHistogram, HistogramError, SplitTree};
use dbhist_persist::{
    decode_factors, decode_model, encode_factors, encode_model, read_file, write_file,
    PersistError, SectionKind, Snapshot, SnapshotMeta, SnapshotWriter, WalPosition,
};

use crate::builder::{Synopsis, SynopsisBuilder};
use crate::error::SynopsisError;
use crate::estimator::SelectivityEstimator;
use crate::factor::Factor;
use crate::synopsis::DbHistogram;
use crate::wavelet_factor::{WaveletFactor, DEFAULT_WAVELET_CELL_CAP};

/// Lossy histogram-codec failures become `Corrupt`: by the time a factor
/// payload decodes, the container's CRCs have already passed, so a codec
/// rejection means the bytes are structurally wrong, not bit-flipped.
fn codec_err(e: HistogramError) -> PersistError {
    PersistError::Corrupt { reason: e.to_string() }
}

/// A clique-factor representation that can round-trip through a snapshot.
///
/// Implementations must be **exact**: `decode_factor(encode_factor(f))`
/// yields a factor whose every estimate is bit-identical to `f`'s.
pub(crate) trait PersistableFactor: Factor + Sized {
    /// Factor-kind code recorded in the snapshot meta section
    /// (1 = MHIST split tree, 2 = grid, 3 = wavelet).
    const KIND: u8;

    /// Serializes this factor to an opaque payload.
    fn encode_factor(&self) -> Result<Vec<u8>, PersistError>;

    /// Deserializes a payload produced by
    /// [`PersistableFactor::encode_factor`].
    fn decode_factor(bytes: &[u8], schema: &Schema) -> Result<Self, PersistError>;
}

impl PersistableFactor for SplitTree {
    const KIND: u8 = 1;

    fn encode_factor(&self) -> Result<Vec<u8>, PersistError> {
        encode_split_tree_exact(self).map_err(codec_err)
    }

    fn decode_factor(bytes: &[u8], _schema: &Schema) -> Result<Self, PersistError> {
        decode_split_tree_exact(bytes).map_err(codec_err)
    }
}

impl PersistableFactor for GridHistogram {
    const KIND: u8 = 2;

    fn encode_factor(&self) -> Result<Vec<u8>, PersistError> {
        encode_grid_exact(self).map_err(codec_err)
    }

    fn decode_factor(bytes: &[u8], _schema: &Schema) -> Result<Self, PersistError> {
        decode_grid_exact(bytes).map_err(codec_err)
    }
}

impl PersistableFactor for WaveletFactor {
    const KIND: u8 = 3;

    fn encode_factor(&self) -> Result<Vec<u8>, PersistError> {
        let syn = self.haar().ok_or_else(|| PersistError::Corrupt {
            reason: "derived wavelet factors carry no coefficient synopsis and cannot be saved"
                .into(),
        })?;
        encode_haar_exact(syn).map_err(codec_err)
    }

    fn decode_factor(bytes: &[u8], schema: &Schema) -> Result<Self, PersistError> {
        let syn = decode_haar_exact(bytes, DEFAULT_WAVELET_CELL_CAP).map_err(codec_err)?;
        Self::from_synopsis(syn, schema)
            .map_err(|e| PersistError::Corrupt { reason: e.to_string() })
    }
}

/// Serializes a synopsis into container bytes (no I/O). `wal`, when
/// present, is recorded as a [`SectionKind::WalPosition`] section — the
/// ingest checkpoint's atomic claim of which WAL batches this snapshot
/// absorbed.
fn snapshot_bytes<F: PersistableFactor>(
    db: &DbHistogram<F>,
    wal: Option<WalPosition>,
) -> Result<Vec<u8>, PersistError> {
    let factor_count = u32::try_from(db.factors().len()).map_err(|_| PersistError::Corrupt {
        reason: "factor count overflows the snapshot meta field".into(),
    })?;
    let meta = SnapshotMeta {
        factor_kind: F::KIND,
        name: db.name().to_string(),
        storage_bytes: db.storage_bytes() as u64,
        factor_count,
    };
    let mut writer = SnapshotWriter::new();
    writer.section(SectionKind::Meta, meta.encode()?);
    encode_model(db.model(), &mut writer)?;
    let payloads: Vec<Vec<u8>> =
        db.factors().iter().map(PersistableFactor::encode_factor).collect::<Result<_, _>>()?;
    writer.section(SectionKind::Factors, encode_factors(&payloads)?);
    if let Some(pos) = wal {
        writer.section(SectionKind::WalPosition, pos.encode());
    }
    writer.finish()
}

/// Saves a synopsis to `path` (atomic write: temp file + rename, both
/// fsync'd), with an optional WAL position recorded atomically with the
/// synopsis state — see [`snapshot_bytes`].
pub(crate) fn save_db<F: PersistableFactor>(
    db: &DbHistogram<F>,
    path: &Path,
    wal: Option<WalPosition>,
) -> Result<(), SynopsisError> {
    let _span = dbhist_telemetry::span!("dbhist_persist_save_latency_us");
    let start = Instant::now();
    let bytes = snapshot_bytes(db, wal)?;
    write_file(path, &bytes)?;
    if dbhist_telemetry::enabled() {
        let w = dbhist_telemetry::wellknown::wellknown();
        w.persist_saves.increment();
        w.persist_save_seconds.set(start.elapsed().as_secs_f64());
        w.persist_snapshot_bytes.set(bytes.len() as f64);
    }
    Ok(())
}

/// Reads the WAL position a snapshot recorded at checkpoint time, or
/// `None` for snapshots written outside a durable ingest session (plain
/// [`Synopsis::save`]s). Recovery treats `None` plus a non-empty
/// WAL as an unprovable state and refuses to replay.
pub(crate) fn load_wal_position(path: &Path) -> Result<Option<WalPosition>, SynopsisError> {
    let bytes = read_file(path)?;
    let snapshot = Snapshot::parse(&bytes).map_err(SynopsisError::from)?;
    match snapshot.section(SectionKind::WalPosition) {
        Ok(payload) => Ok(Some(WalPosition::decode(payload)?)),
        Err(PersistError::MissingSection { .. }) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Materializes a synopsis of factor type `F` from parsed snapshot
/// sections, cross-checking the factor list against the model.
fn load_db<F: PersistableFactor>(
    snapshot: &Snapshot<'_>,
    meta: SnapshotMeta,
) -> Result<DbHistogram<F>, PersistError> {
    let model = decode_model(snapshot)?;
    let payloads = decode_factors(snapshot.section(SectionKind::Factors)?)?;
    let cliques = model.cliques();
    if payloads.len() != cliques.len() || payloads.len() != meta.factor_count as usize {
        return Err(PersistError::Corrupt {
            reason: format!(
                "{} factor payloads for {} cliques (meta declares {})",
                payloads.len(),
                cliques.len(),
                meta.factor_count
            ),
        });
    }
    let mut factors = Vec::with_capacity(payloads.len());
    for (i, payload) in payloads.iter().enumerate() {
        let factor = F::decode_factor(payload, model.schema())?;
        if factor.attrs() != &cliques[i] {
            return Err(PersistError::Corrupt {
                reason: format!("factor {i} does not cover its clique's attributes"),
            });
        }
        factors.push(factor);
    }
    let bytes = usize::try_from(meta.storage_bytes).map_err(|_| PersistError::Corrupt {
        reason: "storage byte count overflows usize".into(),
    })?;
    Ok(DbHistogram::assemble(model, factors, bytes, meta.name))
}

impl Synopsis {
    /// Saves this synopsis as a versioned, checksummed snapshot file.
    ///
    /// The write is atomic (temp file + rename), so a concurrent or
    /// crashed save never leaves a truncated snapshot behind.
    ///
    /// # Errors
    ///
    /// Returns [`SynopsisError::Persist`] on encoding or I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SynopsisError> {
        match self {
            Self::Mhist(db) => save_db(db, path.as_ref(), None),
            Self::Grid(db) => save_db(db, path.as_ref(), None),
            Self::Wavelet(db) => save_db(db, path.as_ref(), None),
        }
    }

    /// Loads a synopsis from a snapshot file, materializing the model and
    /// factors without re-deriving any structure. Estimates from the
    /// loaded synopsis are bit-identical to the saved one's.
    ///
    /// # Errors
    ///
    /// Returns [`SynopsisError::Persist`] with a typed [`PersistError`]
    /// for I/O failures, version mismatches, CRC failures, truncation, or
    /// structurally invalid content. Corruption is detected, never UB.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SynopsisError> {
        let path = path.as_ref();
        let _span = dbhist_telemetry::span!("dbhist_persist_load_latency_us");
        let start = Instant::now();
        let bytes = read_file(path)?;
        let snapshot = Snapshot::parse(&bytes).map_err(SynopsisError::from)?;
        let meta = SnapshotMeta::decode(snapshot.section(SectionKind::Meta)?)?;
        let loaded = match meta.factor_kind {
            SplitTree::KIND => Self::Mhist(load_db(&snapshot, meta)?),
            GridHistogram::KIND => Self::Grid(load_db(&snapshot, meta)?),
            WaveletFactor::KIND => Self::Wavelet(load_db(&snapshot, meta)?),
            kind => {
                return Err(SynopsisError::Persist(PersistError::Corrupt {
                    reason: format!("unknown factor kind {kind}"),
                }))
            }
        };
        if dbhist_telemetry::enabled() {
            let w = dbhist_telemetry::wellknown::wellknown();
            w.persist_loads.increment();
            w.persist_load_seconds.set(start.elapsed().as_secs_f64());
            w.persist_snapshot_bytes.set(bytes.len() as f64);
        }
        Ok(loaded)
    }
}

impl SynopsisBuilder<'_> {
    /// Loads a previously saved synopsis instead of building one — the
    /// fast path for new replicas and post-rebuild restarts. Equivalent
    /// to [`Synopsis::load`]; provided on the builder so construction and
    /// restoration share one entry point.
    ///
    /// # Errors
    ///
    /// As for [`Synopsis::load`].
    pub fn from_snapshot(path: impl AsRef<Path>) -> Result<Synopsis, SynopsisError> {
        Synopsis::load(path)
    }
}
