//! Dependency-based *wavelet* synopses (the paper's §5 extension).
//!
//! The paper closes by arguing that the model-based methodology "can be
//! used to enhance the performance of other synopsis techniques that are
//! based on data-space partitioning (e.g., wavelets)". This module
//! realizes that claim: clique marginals are compressed with truncated
//! Haar decompositions ([`dbhist_histogram::wavelet`]) instead of
//! histograms, and the same junction-tree `ComputeMarginal` machinery
//! combines them.
//!
//! A [`WaveletFactor`] carries the reconstruction of a truncated synopsis
//! as a sparse distribution (cheap: clique marginals are low-dimensional
//! by construction — the whole point of the model), so the factor algebra
//! is the exact-distribution one; the *approximation* lives entirely in
//! the coefficient truncation, exactly as bucket truncation does for
//! histograms.

use dbhist_distribution::{AttrId, AttrSet, Distribution};
use dbhist_histogram::wavelet::{HaarBuilder, HaarSynopsis, WAVELET_BYTES_PER_COEFF};

use crate::build::{IncrementalBuilder, SplitProposal};
use crate::error::SynopsisError;
use crate::factor::{ExactFactor, Factor};

/// Cap on the padded dense state space a clique wavelet may occupy. With
/// `k_max = 2` and the paper's widest attribute (industry, 237 → 256
/// padded), the largest clique tensor is 256×128 = 32K cells; the default
/// cap leaves ample headroom while still refusing full-joint tensors.
pub const DEFAULT_WAVELET_CELL_CAP: usize = 1 << 22;

/// A clique factor backed by a truncated Haar synopsis.
#[derive(Debug, Clone)]
pub struct WaveletFactor {
    reconstruction: ExactFactor,
    coefficients: usize,
    /// The underlying coefficient synopsis. `Some` for clique factors
    /// produced by the builder (or a snapshot load); `None` for derived
    /// factors from `project`/`product`, which exist only transiently
    /// inside marginal computations and are never persisted.
    synopsis: Option<HaarSynopsis>,
}

impl WaveletFactor {
    /// Number of retained Haar coefficients.
    #[must_use]
    pub fn coefficient_count(&self) -> usize {
        self.coefficients
    }

    /// The reconstructed marginal distribution.
    #[must_use]
    pub fn reconstruction(&self) -> &Distribution {
        &self.reconstruction.0
    }

    /// The underlying coefficient synopsis, when this is a primary clique
    /// factor rather than a derived intermediate.
    #[must_use]
    pub fn haar(&self) -> Option<&HaarSynopsis> {
        self.synopsis.as_ref()
    }

    /// Rebuilds a clique factor from a decoded Haar synopsis by replaying
    /// the same reconstruction the builder performs — the dense inverse
    /// transform iterates cells in a fixed order, so the resulting sparse
    /// distribution (and every estimate derived from it) is bit-identical
    /// to the factor that was saved.
    ///
    /// # Errors
    ///
    /// Propagates reconstruction failures (synopsis/schema mismatch).
    pub(crate) fn from_synopsis(
        syn: HaarSynopsis,
        schema: &dbhist_distribution::Schema,
    ) -> Result<Self, SynopsisError> {
        let reconstruction = syn.reconstruct(schema)?;
        let coefficients = syn.coefficient_count();
        Ok(Self { reconstruction: ExactFactor(reconstruction), coefficients, synopsis: Some(syn) })
    }
}

impl Factor for WaveletFactor {
    fn attrs(&self) -> &AttrSet {
        self.reconstruction.attrs()
    }

    fn total(&self) -> f64 {
        self.reconstruction.total()
    }

    fn len_hint(&self) -> usize {
        self.reconstruction.len_hint()
    }

    fn mass_in_box(&self, ranges: &[(AttrId, u32, u32)]) -> f64 {
        self.reconstruction.mass_in_box(ranges)
    }

    fn for_each_bucket(&self, visit: impl FnMut(&[(u32, u32)], f64)) {
        self.reconstruction.for_each_bucket(visit);
    }

    fn project(&self, attrs: &AttrSet) -> Result<Self, SynopsisError> {
        Ok(Self {
            reconstruction: self.reconstruction.project(attrs)?,
            coefficients: self.coefficients,
            synopsis: None,
        })
    }

    fn product(&self, other: &Self) -> Result<Self, SynopsisError> {
        Ok(Self {
            reconstruction: self.reconstruction.product(&other.reconstruction)?,
            coefficients: self.coefficients + other.coefficients,
            synopsis: None,
        })
    }
}

/// [`IncrementalBuilder`] over truncated Haar synopses: every "split" adds
/// the next-largest coefficient, whose squared magnitude is exactly the
/// SSE gain (orthonormality), making `IncrementalGains` provably optimal
/// for this family.
#[derive(Debug, Clone)]
pub struct WaveletCliqueBuilder {
    inner: HaarBuilder,
    schema: dbhist_distribution::Schema,
}

impl WaveletCliqueBuilder {
    /// Starts a builder over a clique marginal.
    ///
    /// # Errors
    ///
    /// Propagates wavelet-construction errors (including the state-space
    /// cap — wavelets need the model's low-dimensional marginals just as
    /// histograms do).
    pub fn start(dist: &Distribution) -> Result<Self, SynopsisError> {
        Ok(Self {
            inner: HaarBuilder::new(dist, DEFAULT_WAVELET_CELL_CAP)?,
            schema: dist.schema().clone(),
        })
    }
}

impl IncrementalBuilder for WaveletCliqueBuilder {
    type Histogram = WaveletFactor;

    fn bucket_count(&self) -> usize {
        self.inner.retained().max(1)
    }

    fn storage_bytes(&self) -> usize {
        WAVELET_BYTES_PER_COEFF * self.inner.retained().max(1)
    }

    fn error(&self) -> f64 {
        self.inner.error()
    }

    fn peek(&self) -> Option<SplitProposal> {
        // The first coefficient is charged at start (every synopsis stores
        // at least one), so the proposal covers coefficient `retained+1`.
        let gain = self.inner.peek_gain()?;
        Some(SplitProposal {
            extra_buckets: 1,
            extra_bytes: WAVELET_BYTES_PER_COEFF,
            error_gain: gain,
        })
    }

    fn split_once(&mut self) -> bool {
        self.inner.add_next()
    }

    fn finish(&self) -> WaveletFactor {
        // Ensure at least one coefficient is retained (the storage floor
        // already paid for it).
        let mut inner = self.inner.clone();
        if inner.retained() == 0 {
            inner.add_next();
        }
        let syn = inner.finish();
        let coefficients = syn.coefficient_count();
        // `finish` is infallible by the builder contract, and the synopsis
        // was built from `self.schema` moments ago — a failure here is a
        // broken builder, not a recoverable condition.
        #[allow(clippy::expect_used)]
        let reconstruction =
            syn.reconstruct(&self.schema).expect("reconstruction over the synopsis attrs is valid"); // lint:allow(panic-surface): infallible builder contract over its own schema
        WaveletFactor {
            reconstruction: ExactFactor(reconstruction),
            coefficients,
            synopsis: Some(syn),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbhist_distribution::{Relation, Schema};

    fn dist() -> Distribution {
        let schema = Schema::new(vec![("x", 8), ("y", 8)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..640u32).map(|i| vec![(i * i) % 8, (i / 3) % 8]).collect();
        Relation::from_rows(schema, rows).unwrap().distribution()
    }

    #[test]
    fn builder_contract() {
        let d = dist();
        let mut b = WaveletCliqueBuilder::start(&d).unwrap();
        assert_eq!(b.storage_bytes(), 8, "one-coefficient floor");
        let mut prev = b.error();
        for _ in 0..6 {
            let Some(p) = b.peek() else { break };
            let before = b.error();
            assert!(b.split_once());
            assert!((p.error_gain - (before - b.error())).abs() < 1e-6 * (1.0 + p.error_gain));
            assert!(b.error() <= prev + 1e-9);
            prev = b.error();
        }
    }

    #[test]
    fn factor_roundtrip_full_retention() {
        let d = dist();
        let mut b = WaveletCliqueBuilder::start(&d).unwrap();
        while b.split_once() {}
        let f = b.finish();
        assert!((f.total() - d.total()).abs() < 1e-6);
        assert_eq!(f.attrs(), d.attrs());
        // Fully retained synopsis answers exactly.
        let mass = f.mass_in_box(&[(0, 0, 3)]);
        assert!((mass - d.range_mass(&[(0, 0, 3)])).abs() < 1e-6);
        // Factor algebra works.
        let p = f.project(&AttrSet::singleton(0)).unwrap();
        assert!((p.total() - d.total()).abs() < 1e-6);
        let prod = p.product(&f.project(&AttrSet::singleton(1)).unwrap()).unwrap();
        assert!((prod.total() - d.total()).abs() / d.total() < 0.01);
    }

    #[test]
    fn truncated_factor_still_reasonable() {
        let d = dist();
        let mut b = WaveletCliqueBuilder::start(&d).unwrap();
        for _ in 0..8 {
            b.split_once();
        }
        let f = b.finish();
        assert_eq!(f.coefficient_count(), 8);
        // Total mass is preserved up to truncation noise (the average
        // coefficient — the largest — is always kept first).
        assert!((f.total() - d.total()).abs() / d.total() < 0.25);
    }
}
