//! Incremental clique-histogram builders with byte-level cost accounting.
//!
//! The space-allocation algorithms (paper §3.2) interleave the
//! construction of all clique histograms: at each step they ask every
//! builder what its *next split* would cost (buckets × bytes-per-bucket)
//! and gain (error decrease), then fund the best one. [`IncrementalBuilder`]
//! is that interface; this module implements it for the three clique
//! histogram families:
//!
//! * [`MhistCliqueBuilder`] — MHIST split trees, `9` bytes per bucket;
//! * [`GridCliqueBuilder`] — grid histograms (a split may add many
//!   buckets at once, producing the paper's "piecewise constant" error
//!   curves);
//! * [`OneDimCliqueBuilder`] — one-dimensional histograms, `8` bytes per
//!   bucket (used by the `IND` baseline through the same allocator).

use dbhist_distribution::{AttrId, CellColumns, Distribution};
use dbhist_histogram::grid::GridBuilder;
use dbhist_histogram::mhist::MhistBuilder;
use dbhist_histogram::one_dim::OneDimBuilder;
use dbhist_histogram::{GridHistogram, OneDimHistogram, SplitCriterion, SplitTree};

use crate::error::SynopsisError;

/// A split the builder could perform next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitProposal {
    /// Buckets the split would add (the paper's `n_i`).
    pub extra_buckets: usize,
    /// Bytes the split would add (`n_i · s_i`).
    pub extra_bytes: usize,
    /// Decrease in the histogram's error (`−ΔERR_i ≥ 0`).
    pub error_gain: f64,
}

/// A histogram builder that grows one split at a time under external
/// storage control.
///
/// **Cached-proposal contract.** A builder computes its next proposal
/// once, when it starts and at the end of each [`split_once`], and keeps
/// it together with its current error (or, for MHIST, each bucket's).
/// [`peek`] and [`error`] only read those cached values, so the allocator
/// may call them every round; the work of a split is paid once, by the
/// split itself. Caching changes no value: both return the bits a
/// from-scratch computation over the current buckets gives (the
/// histogram crate's cache-consistency tests pin this for the MHIST,
/// grid and one-dimensional builders), so it never changes which split
/// the allocator funds.
///
/// [`split_once`]: IncrementalBuilder::split_once
/// [`peek`]: IncrementalBuilder::peek
/// [`error`]: IncrementalBuilder::error
pub trait IncrementalBuilder {
    /// The finished histogram type.
    type Histogram;

    /// Current bucket count.
    fn bucket_count(&self) -> usize;

    /// Bytes the histogram would occupy if finished now.
    fn storage_bytes(&self) -> usize;

    /// Current approximation error (total variance / SSE); a cached read.
    fn error(&self) -> f64;

    /// The next split, if any; a cached read.
    fn peek(&self) -> Option<SplitProposal>;

    /// Applies the cached next split and computes the one after it.
    /// Returns `false` when saturated.
    fn split_once(&mut self) -> bool;

    /// Materializes the histogram.
    fn finish(&self) -> Self::Histogram;
}

/// Bytes per MHIST split-tree bucket under the paper's accounting (§4.1).
pub const MHIST_BYTES_PER_BUCKET: usize = 9;
/// Bytes per one-dimensional histogram bucket (§4.1).
pub const ONE_DIM_BYTES_PER_BUCKET: usize = 8;
/// Bytes per grid bucket (4-byte frequency; boundary storage is charged
/// with the buckets it creates, see `GridCliqueBuilder::storage_bytes`).
pub const GRID_BYTES_PER_BUCKET: usize = 4;

/// [`IncrementalBuilder`] over MHIST split trees.
#[derive(Debug, Clone)]
pub struct MhistCliqueBuilder {
    inner: MhistBuilder,
}

impl MhistCliqueBuilder {
    /// Starts a builder over a clique marginal.
    ///
    /// # Errors
    ///
    /// Propagates histogram-construction errors.
    pub fn start(dist: &Distribution, criterion: SplitCriterion) -> Result<Self, SynopsisError> {
        Ok(Self { inner: MhistBuilder::new(dist, criterion)? })
    }

    /// Starts a builder over a clique marginal's cells, taken column by
    /// column straight from its counts.
    ///
    /// # Errors
    ///
    /// Propagates histogram-construction errors.
    pub fn from_cells(
        cells: CellColumns,
        criterion: SplitCriterion,
    ) -> Result<Self, SynopsisError> {
        Ok(Self { inner: MhistBuilder::from_cells(cells, criterion)? })
    }
}

impl IncrementalBuilder for MhistCliqueBuilder {
    type Histogram = SplitTree;

    fn bucket_count(&self) -> usize {
        self.inner.bucket_count()
    }

    fn storage_bytes(&self) -> usize {
        MHIST_BYTES_PER_BUCKET * self.inner.bucket_count()
    }

    fn error(&self) -> f64 {
        self.inner.error()
    }

    fn peek(&self) -> Option<SplitProposal> {
        let gain = self.inner.peek_gain()?;
        Some(SplitProposal {
            extra_buckets: 1,
            extra_bytes: MHIST_BYTES_PER_BUCKET,
            error_gain: gain,
        })
    }

    fn split_once(&mut self) -> bool {
        self.inner.split_once()
    }

    fn finish(&self) -> SplitTree {
        self.inner.finish()
    }
}

/// [`IncrementalBuilder`] over grid histograms.
#[derive(Debug, Clone)]
pub struct GridCliqueBuilder {
    inner: GridBuilder,
}

impl GridCliqueBuilder {
    /// Starts a builder over a clique marginal.
    ///
    /// # Errors
    ///
    /// Propagates histogram-construction errors.
    pub fn start(dist: &Distribution, criterion: SplitCriterion) -> Result<Self, SynopsisError> {
        Ok(Self { inner: GridBuilder::new(dist, criterion)? })
    }
}

impl IncrementalBuilder for GridCliqueBuilder {
    type Histogram = GridHistogram;

    fn bucket_count(&self) -> usize {
        self.inner.bucket_count()
    }

    fn storage_bytes(&self) -> usize {
        // 4 bytes per bucket plus 5 bytes per placed boundary, matching
        // `GridHistogram::storage_bytes`, without materializing the grid.
        self.inner.storage_bytes()
    }

    fn error(&self) -> f64 {
        self.inner.error()
    }

    fn peek(&self) -> Option<SplitProposal> {
        let (_, _, extra) = self.inner.peek_split()?;
        let gain = self.inner.peek_gain()?;
        Some(SplitProposal {
            extra_buckets: extra,
            extra_bytes: GRID_BYTES_PER_BUCKET * extra + 5,
            error_gain: gain,
        })
    }

    fn split_once(&mut self) -> bool {
        self.inner.split_once()
    }

    fn finish(&self) -> GridHistogram {
        self.inner.finish()
    }
}

/// [`IncrementalBuilder`] over one-dimensional histograms.
#[derive(Debug, Clone)]
pub struct OneDimCliqueBuilder {
    inner: OneDimBuilder,
}

impl OneDimCliqueBuilder {
    /// Starts a builder over attribute `attr` of `dist`.
    ///
    /// # Errors
    ///
    /// Propagates histogram-construction errors.
    pub fn start(
        dist: &Distribution,
        attr: AttrId,
        criterion: SplitCriterion,
    ) -> Result<Self, SynopsisError> {
        Ok(Self { inner: OneDimBuilder::new(dist, attr, criterion)? })
    }
}

impl IncrementalBuilder for OneDimCliqueBuilder {
    type Histogram = OneDimHistogram;

    fn bucket_count(&self) -> usize {
        self.inner.bucket_count()
    }

    fn storage_bytes(&self) -> usize {
        ONE_DIM_BYTES_PER_BUCKET * self.inner.bucket_count()
    }

    fn error(&self) -> f64 {
        self.inner.error()
    }

    fn peek(&self) -> Option<SplitProposal> {
        let gain = self.inner.peek_gain()?;
        Some(SplitProposal {
            extra_buckets: 1,
            extra_bytes: ONE_DIM_BYTES_PER_BUCKET,
            error_gain: gain,
        })
    }

    fn split_once(&mut self) -> bool {
        self.inner.split_once()
    }

    fn finish(&self) -> OneDimHistogram {
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbhist_distribution::{Relation, Schema};

    fn dist() -> Distribution {
        let schema = Schema::new(vec![("x", 8), ("y", 8)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..512u32).map(|i| vec![(i * i) % 8, (i * 3) % 8]).collect();
        Relation::from_rows(schema, rows).unwrap().distribution()
    }

    fn exercise<B: IncrementalBuilder>(mut b: B) {
        assert_eq!(b.bucket_count(), 1);
        let mut prev_err = b.error();
        let mut prev_bytes = b.storage_bytes();
        for _ in 0..5 {
            let Some(p) = b.peek() else { break };
            assert!(p.extra_buckets >= 1);
            assert!(p.extra_bytes >= p.extra_buckets);
            let before = b.error();
            assert!(b.split_once());
            assert!((p.error_gain - (before - b.error())).abs() < 1e-9);
            assert!(b.error() <= prev_err + 1e-9);
            assert!(b.storage_bytes() >= prev_bytes);
            prev_err = b.error();
            prev_bytes = b.storage_bytes();
        }
    }

    #[test]
    fn mhist_builder_contract() {
        let d = dist();
        exercise(MhistCliqueBuilder::start(&d, SplitCriterion::MaxDiff).unwrap());
        let b = MhistCliqueBuilder::start(&d, SplitCriterion::MaxDiff).unwrap();
        assert_eq!(b.storage_bytes(), 9);
        let tree = b.finish();
        assert_eq!(tree.bucket_count(), 1);
    }

    #[test]
    fn grid_builder_contract() {
        let d = dist();
        exercise(GridCliqueBuilder::start(&d, SplitCriterion::MaxDiff).unwrap());
    }

    #[test]
    fn one_dim_builder_contract() {
        let d = dist();
        exercise(OneDimCliqueBuilder::start(&d, 0, SplitCriterion::MaxDiff).unwrap());
        let b = OneDimCliqueBuilder::start(&d, 1, SplitCriterion::MaxDiff).unwrap();
        assert_eq!(b.storage_bytes(), 8);
        assert_eq!(b.finish().attr(), 1);
    }
}
