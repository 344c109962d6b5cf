//! The unified synopsis construction API.
//!
//! [`SynopsisBuilder`] is the single entry point for building DB
//! histogram synopses (the older `DbHistogram::build_mhist` /
//! `build_wavelet` / `build_grid` triple has been removed). It folds
//! every construction knob — byte budget, clique-factor family, selection
//! heuristic/algorithm, `k_max`, `θ`, split criterion, and allocation
//! strategy — into fluent methods, validates the whole configuration once
//! at [`SynopsisBuilder::build`], and reports per-phase instrumentation
//! through [`BuildTrace`].
//!
//! ```
//! use dbhist_core::builder::{FactorKind, SynopsisBuilder};
//! use dbhist_core::estimator::SelectivityEstimator;
//! use dbhist_distribution::{Relation, Schema};
//!
//! let schema = Schema::new(vec![("a", 8), ("b", 8), ("c", 4)]).unwrap();
//! let rows: Vec<Vec<u32>> = (0..4096).map(|i| vec![i % 8, i % 8, (i / 8) % 4]).collect();
//! let rel = Relation::from_rows(schema, rows).unwrap();
//!
//! let synopsis = SynopsisBuilder::new(&rel)
//!     .budget(256)
//!     .factor(FactorKind::Mhist)
//!     .build()
//!     .unwrap();
//! assert!(synopsis.storage_bytes() <= 256);
//! let trace = synopsis.build_trace();
//! assert!(trace.cliques >= 1);
//! ```
//!
//! Construction runs on the calling thread. Its cost is the selection's
//! entropy calculations plus the funded splits, a few tens of
//! milliseconds at paper scale; DESIGN.md ("Construction is serial")
//! records why no phase fans out across threads.

use std::time::Duration;

use dbhist_distribution::Relation;
use dbhist_histogram::{GridHistogram, SplitCriterion, SplitTree};
use dbhist_model::selection::{EdgeHeuristic, SelectionAlgorithm, SelectionConfig};
use dbhist_model::DecomposableModel;

use crate::error::SynopsisError;
use crate::estimator::SelectivityEstimator;
use crate::evaluate::QueryTrace;
use crate::explain::ExplainReport;
use crate::query::Query;
use crate::synopsis::{AllocationStrategy, DbConfig, DbHistogram};
use crate::wavelet_factor::WaveletFactor;

/// Which clique-factor family a synopsis compresses its generator
/// marginals with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FactorKind {
    /// MHIST split trees (9 bytes/bucket) — the paper's flagship.
    #[default]
    Mhist,
    /// Grid histograms (regular per-dimension partitioning).
    Grid,
    /// Truncated Haar wavelet synopses (the extension the paper's
    /// conclusions propose).
    Wavelet,
}

/// Per-phase instrumentation of one synopsis construction, the build-side
/// sibling of [`QueryTrace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildTrace {
    /// Wall time of forward model selection.
    pub selection: Duration,
    /// Wall time of per-clique marginal computation + builder start.
    pub construction: Duration,
    /// Wall time of budget allocation (greedy gains or DP curves).
    pub allocation: Duration,
    /// Wall time of factor materialization + synopsis assembly.
    pub assembly: Duration,
    /// End-to-end wall time (selection through assembly).
    pub total: Duration,
    /// Clique histograms built (one per model clique).
    pub cliques: usize,
    /// Accepted forward-selection steps (edges added).
    pub selection_steps: usize,
    /// Largest candidate fan-out of any selection round.
    pub peak_candidates: usize,
    /// Marginal entropies computed during selection (cache misses).
    pub entropy_computations: usize,
    /// Allocation decisions funded beyond the one-bucket baseline.
    pub splits_funded: usize,
}

/// A built synopsis, tagged by its clique-factor family.
#[derive(Debug, Clone)]
pub enum Synopsis {
    /// MHIST split-tree factors.
    Mhist(DbHistogram<SplitTree>),
    /// Grid histogram factors.
    Grid(DbHistogram<GridHistogram>),
    /// Truncated wavelet factors.
    Wavelet(DbHistogram<WaveletFactor>),
}

macro_rules! delegate {
    ($self:expr, $db:ident => $body:expr) => {
        match $self {
            Synopsis::Mhist($db) => $body,
            Synopsis::Grid($db) => $body,
            Synopsis::Wavelet($db) => $body,
        }
    };
}

impl Synopsis {
    /// The factor family this synopsis was built with.
    #[must_use]
    pub fn factor_kind(&self) -> FactorKind {
        match self {
            Self::Mhist(_) => FactorKind::Mhist,
            Self::Grid(_) => FactorKind::Grid,
            Self::Wavelet(_) => FactorKind::Wavelet,
        }
    }

    /// The interaction model `M`.
    #[must_use]
    pub fn model(&self) -> &DecomposableModel {
        delegate!(self, db => db.model())
    }

    /// Per-phase construction instrumentation.
    #[must_use]
    pub fn build_trace(&self) -> BuildTrace {
        delegate!(self, db => db.build_trace())
    }

    /// Snapshot of the cumulative query counters.
    ///
    /// Non-destructive: counters keep accumulating across calls until
    /// [`Synopsis::reset_query_trace`] zeroes them.
    #[must_use]
    pub fn query_trace(&self) -> QueryTrace {
        delegate!(self, db => db.query_trace())
    }

    /// Zeroes the cumulative query counters (this synopsis only;
    /// the process-wide telemetry registry is untouched).
    pub fn reset_query_trace(&self) {
        delegate!(self, db => db.reset_query_trace());
    }

    /// Feeds an observed cardinality back to the underlying histogram's
    /// accuracy-drift monitor; see [`DbHistogram::record_feedback`].
    pub fn record_feedback(&self, query: &Query, actual: f64) {
        delegate!(self, db => db.record_feedback(query, actual));
    }

    /// Estimates the marginal mass of a conjunctive range predicate,
    /// propagating structural failures instead of panicking.
    ///
    /// # Errors
    ///
    /// Propagates factor-operation failures.
    pub fn try_estimate(&self, query: &Query) -> Result<f64, SynopsisError> {
        delegate!(self, db => db.try_estimate(query))
    }

    /// [`Synopsis::try_estimate`] plus a per-query
    /// [`ExplainReport`] describing the resolved execution path; see
    /// [`DbHistogram::try_estimate_explained`]. The estimate is
    /// bit-identical to the unexplained call.
    ///
    /// # Errors
    ///
    /// Propagates factor-operation failures.
    pub fn try_estimate_explained(
        &self,
        query: &Query,
    ) -> Result<(f64, ExplainReport), SynopsisError> {
        delegate!(self, db => db.try_estimate_explained(query))
    }

    /// The per-clique accuracy-drift monitor fed by
    /// [`Synopsis::record_feedback`]; exposes rolling means *and* full
    /// error distributions (quantiles) per model clique.
    #[must_use]
    pub fn drift_monitor(&self) -> &dbhist_telemetry::DriftMonitor {
        delegate!(self, db => db.drift_monitor())
    }

    /// The MHIST-backed histogram, if this synopsis was built with
    /// [`FactorKind::Mhist`].
    #[must_use]
    pub fn as_mhist(&self) -> Option<&DbHistogram<SplitTree>> {
        match self {
            Self::Mhist(db) => Some(db),
            _ => None,
        }
    }

    /// Unwraps into the MHIST-backed histogram, if built with
    /// [`FactorKind::Mhist`].
    #[must_use]
    pub fn into_mhist(self) -> Option<DbHistogram<SplitTree>> {
        match self {
            Self::Mhist(db) => Some(db),
            _ => None,
        }
    }

    /// The grid-backed histogram, if built with [`FactorKind::Grid`].
    #[must_use]
    pub fn as_grid(&self) -> Option<&DbHistogram<GridHistogram>> {
        match self {
            Self::Grid(db) => Some(db),
            _ => None,
        }
    }

    /// The wavelet-backed histogram, if built with
    /// [`FactorKind::Wavelet`].
    #[must_use]
    pub fn as_wavelet(&self) -> Option<&DbHistogram<WaveletFactor>> {
        match self {
            Self::Wavelet(db) => Some(db),
            _ => None,
        }
    }
}

impl SelectivityEstimator for Synopsis {
    fn estimate(&self, query: &Query) -> f64 {
        delegate!(self, db => db.estimate(query))
    }

    fn storage_bytes(&self) -> usize {
        delegate!(self, db => SelectivityEstimator::storage_bytes(db))
    }

    fn name(&self) -> &str {
        delegate!(self, db => SelectivityEstimator::name(db))
    }
}

/// Fluent construction of DB histogram synopses; see the [module
/// docs](crate::builder) for an example.
///
/// All knobs default to the paper's flagship configuration (`DB₂`
/// heuristic, Efficient algorithm, `k_max = 2`, `θ = 0.90`, MaxDiff,
/// `IncrementalGains`, MHIST factors); only [`SynopsisBuilder::budget`]
/// is mandatory. Validation happens once, inside
/// [`SynopsisBuilder::build`], returning typed
/// [`SynopsisError::InvalidConfig`] values instead of panicking.
#[derive(Debug, Clone)]
pub struct SynopsisBuilder<'a> {
    relation: &'a Relation,
    budget_bytes: Option<usize>,
    factor: FactorKind,
    selection: SelectionConfig,
    criterion: SplitCriterion,
    allocation: AllocationStrategy,
}

impl<'a> SynopsisBuilder<'a> {
    /// Starts a builder over `relation` with the paper's defaults.
    #[must_use]
    pub fn new(relation: &'a Relation) -> Self {
        Self {
            relation,
            budget_bytes: None,
            factor: FactorKind::default(),
            selection: SelectionConfig::default(),
            criterion: SplitCriterion::default(),
            allocation: AllocationStrategy::default(),
        }
    }

    /// Total storage budget in bytes for the clique-histogram collection.
    /// Mandatory; zero is rejected at [`SynopsisBuilder::build`].
    #[must_use]
    pub fn budget(mut self, bytes: usize) -> Self {
        self.budget_bytes = Some(bytes);
        self
    }

    /// Clique-factor family (default: [`FactorKind::Mhist`]).
    #[must_use]
    pub fn factor(mut self, kind: FactorKind) -> Self {
        self.factor = kind;
        self
    }

    /// Upper bound on generator (clique) size (default 2, the paper's
    /// headline setting). Values below 2 are rejected at build time.
    #[must_use]
    pub fn k_max(mut self, k_max: usize) -> Self {
        self.selection.k_max = k_max;
        self
    }

    /// Statistical-significance threshold `θ` in `[0, 1)` (default 0.90).
    #[must_use]
    pub fn theta(mut self, theta: f64) -> Self {
        self.selection.theta = theta;
        self
    }

    /// Edge-scoring heuristic (default `DB₂`).
    #[must_use]
    pub fn heuristic(mut self, heuristic: EdgeHeuristic) -> Self {
        self.selection.heuristic = heuristic;
        self
    }

    /// Candidate-search algorithm (default Efficient).
    #[must_use]
    pub fn algorithm(mut self, algorithm: SelectionAlgorithm) -> Self {
        self.selection.algorithm = algorithm;
        self
    }

    /// Hard cap on the number of interaction edges added (default: none).
    #[must_use]
    pub fn max_edges(mut self, max_edges: usize) -> Self {
        self.selection.max_edges = Some(max_edges);
        self
    }

    /// Histogram partitioning constraint (default MaxDiff).
    #[must_use]
    pub fn criterion(mut self, criterion: SplitCriterion) -> Self {
        self.criterion = criterion;
        self
    }

    /// Budget distribution strategy (default `IncrementalGains`).
    #[must_use]
    pub fn allocation(mut self, allocation: AllocationStrategy) -> Self {
        self.allocation = allocation;
        self
    }

    /// Validates every knob and assembles the internal configuration.
    fn validated_config(&self) -> Result<DbConfig, SynopsisError> {
        let Some(budget_bytes) = self.budget_bytes else {
            return Err(SynopsisError::InvalidConfig {
                parameter: "budget",
                reason: "a byte budget is mandatory: call .budget(bytes) before .build()".into(),
            });
        };
        if budget_bytes == 0 {
            return Err(SynopsisError::InvalidConfig {
                parameter: "budget",
                reason: "budget must be positive".into(),
            });
        }
        if self.selection.k_max < 2 {
            return Err(SynopsisError::InvalidConfig {
                parameter: "k_max",
                reason: format!("k_max must be at least 2, got {}", self.selection.k_max),
            });
        }
        if !self.selection.theta.is_finite() {
            return Err(SynopsisError::InvalidConfig {
                parameter: "theta",
                reason: format!("theta must be finite, got {}", self.selection.theta),
            });
        }
        if !(0.0..1.0).contains(&self.selection.theta) {
            return Err(SynopsisError::InvalidConfig {
                parameter: "theta",
                reason: format!("theta must lie in [0, 1), got {}", self.selection.theta),
            });
        }
        // Re-run the model layer's own validation so the two can never
        // drift apart silently.
        self.selection.validate()?;
        Ok(DbConfig {
            budget_bytes,
            selection: self.selection,
            criterion: self.criterion,
            allocation: self.allocation,
        })
    }

    /// Builds the synopsis, dispatching on the configured
    /// [`FactorKind`].
    ///
    /// # Errors
    ///
    /// Returns [`SynopsisError::InvalidConfig`] for rejected parameters
    /// (missing/zero budget, `k_max < 2`, non-finite or out-of-range
    /// `theta`) and propagates budget or construction failures.
    pub fn build(self) -> Result<Synopsis, SynopsisError> {
        let config = self.validated_config()?;
        match self.factor {
            FactorKind::Mhist => {
                crate::synopsis::build_mhist_pipeline(self.relation, &config).map(Synopsis::Mhist)
            }
            FactorKind::Grid => {
                crate::synopsis::build_grid_pipeline(self.relation, &config).map(Synopsis::Grid)
            }
            FactorKind::Wavelet => crate::synopsis::build_wavelet_pipeline(self.relation, &config)
                .map(Synopsis::Wavelet),
        }
    }

    /// Builds with MHIST factors regardless of [`SynopsisBuilder::factor`],
    /// returning the concrete histogram type (convenient when downstream
    /// code needs `DbHistogram<SplitTree>` rather than the [`Synopsis`]
    /// enum).
    ///
    /// # Errors
    ///
    /// As for [`SynopsisBuilder::build`].
    pub fn build_mhist(self) -> Result<DbHistogram<SplitTree>, SynopsisError> {
        let config = self.validated_config()?;
        crate::synopsis::build_mhist_pipeline(self.relation, &config)
    }

    /// Builds with grid factors, returning the concrete histogram type.
    ///
    /// # Errors
    ///
    /// As for [`SynopsisBuilder::build`].
    pub fn build_grid(self) -> Result<DbHistogram<GridHistogram>, SynopsisError> {
        let config = self.validated_config()?;
        crate::synopsis::build_grid_pipeline(self.relation, &config)
    }

    /// Builds with wavelet factors, returning the concrete histogram
    /// type.
    ///
    /// # Errors
    ///
    /// As for [`SynopsisBuilder::build`].
    pub fn build_wavelet(self) -> Result<DbHistogram<WaveletFactor>, SynopsisError> {
        let config = self.validated_config()?;
        crate::synopsis::build_wavelet_pipeline(self.relation, &config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbhist_distribution::Schema;

    fn relation() -> Relation {
        let schema = Schema::new(vec![("a", 8), ("b", 8), ("c", 4)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..4096u32).map(|i| vec![i % 8, i % 8, (i / 8) % 4]).collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn builds_each_factor_kind() {
        let rel = relation();
        for kind in [FactorKind::Mhist, FactorKind::Grid, FactorKind::Wavelet] {
            let synopsis = SynopsisBuilder::new(&rel).budget(400).factor(kind).build().unwrap();
            assert_eq!(synopsis.factor_kind(), kind);
            assert!(synopsis.storage_bytes() <= 400);
            assert!(synopsis.model().graph().has_edge(0, 1));
            let trace = synopsis.build_trace();
            assert_eq!(trace.cliques, synopsis.model().cliques().len());
            assert!(trace.total >= trace.selection);
            assert!(trace.selection_steps >= 1);
            assert!(trace.peak_candidates >= 1);
            assert!(trace.entropy_computations >= 1);
        }
    }

    #[test]
    fn typed_builds_return_concrete_histograms() {
        let rel = relation();
        let db = SynopsisBuilder::new(&rel).budget(400).build_mhist().unwrap();
        assert_eq!(db.name(), "DB2");
        let db = SynopsisBuilder::new(&rel).budget(400).build_grid().unwrap();
        assert_eq!(db.name(), "DB-grid");
        let db = SynopsisBuilder::new(&rel).budget(400).build_wavelet().unwrap();
        assert_eq!(db.name(), "DB-wavelet");
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let rel = relation();
        let missing = SynopsisBuilder::new(&rel).build();
        assert!(matches!(missing, Err(SynopsisError::InvalidConfig { parameter: "budget", .. })));
        let zero = SynopsisBuilder::new(&rel).budget(0).build();
        assert!(matches!(zero, Err(SynopsisError::InvalidConfig { parameter: "budget", .. })));
        let k = SynopsisBuilder::new(&rel).budget(256).k_max(0).build();
        assert!(matches!(k, Err(SynopsisError::InvalidConfig { parameter: "k_max", .. })));
        let t = SynopsisBuilder::new(&rel).budget(256).theta(f64::NAN).build();
        assert!(matches!(t, Err(SynopsisError::InvalidConfig { parameter: "theta", .. })));
        let t = SynopsisBuilder::new(&rel).budget(256).theta(1.5).build();
        assert!(matches!(t, Err(SynopsisError::InvalidConfig { parameter: "theta", .. })));
    }

    #[test]
    fn synopsis_enum_accessors() {
        let rel = relation();
        let synopsis = SynopsisBuilder::new(&rel).budget(300).build().unwrap();
        assert!(synopsis.as_mhist().is_some());
        assert!(synopsis.as_grid().is_none());
        assert!(synopsis.as_wavelet().is_none());
        assert!(synopsis.try_estimate(&Query::range(0, 0, 3)).is_ok());
        assert!(synopsis.clone().into_mhist().is_some());
    }
}
