//! DEPENDENCY-BASED (DB) histogram synopses — the paper's contribution.
//!
//! A DB histogram `H = <M, C>` (Definition 2.1) pairs a decomposable
//! interaction model `M` with a collection `C` of low-dimensional
//! histograms on the marginals of `M`'s generators. This crate assembles
//! the pieces built by `dbhist-model` and `dbhist-histogram` into the full
//! synopsis, and implements everything around it:
//!
//! * [`factor::Factor`] — the one factor trait `ComputeMarginal` runs
//!   over: `project`, `product` (separation formula), and box-mass
//!   estimation. Implemented by MHIST split trees and grid histograms
//!   (calling their inherent operations), and by exact sparse
//!   distributions (the paper's "clique histograms with an unlimited
//!   number of buckets" used in Fig. 6).
//! * [`marginal::compute_marginal_with_stats`] — the paper's
//!   `ComputeMarginal` algorithm (Fig. 3) over the junction tree,
//!   minimizing histogram multiplications/projections; it serves
//!   [`synopsis::DbHistogram::marginal`], and
//!   [`marginal::estimate_mass_interpreted`] beside it is the test
//!   oracle.
//! * [`evaluate`] — how a synopsis answers a query: the Eq. 2 estimate
//!   by sum-product over the junction tree restricted to the query box,
//!   following Fig. 3's choices, with no factor product built and nothing
//!   cached. A model whose separators join into a block over
//!   [`evaluate::MESSAGE_CELL_BUDGET`] cells is answered by the
//!   interpreter instead; [`evaluate::QueryTrace`] counts evaluations.
//! * [`alloc`] — storage allocation across clique histograms: the optimal
//!   pseudo-polynomial dynamic program and the `IncrementalGains` greedy
//!   (Fig. 2).
//! * [`builder::SynopsisBuilder`] — the unified construction API:
//!   `SynopsisBuilder::new(&rel).budget(b).factor(kind).build()` runs the
//!   full pipeline (`model selection → clique-histogram building under a
//!   byte budget`) and records a [`builder::BuildTrace`] of per-phase wall
//!   times.
//! * [`synopsis::DbHistogram`] — the built synopsis and its
//!   range-selectivity estimation.
//! * [`baselines`] — the estimators the paper compares against: `IND`
//!   (one-dimensional histograms + full independence), full-dimensional
//!   `MHIST`, and random sampling.
//!
//! # Quickstart
//!
//! ```
//! use dbhist_core::builder::SynopsisBuilder;
//! use dbhist_core::estimator::SelectivityEstimator;
//! use dbhist_distribution::{Relation, Schema};
//!
//! // A toy relation where a == b and c is independent.
//! let schema = Schema::new(vec![("a", 8), ("b", 8), ("c", 4)]).unwrap();
//! let rows: Vec<Vec<u32>> = (0..4096)
//!     .map(|i| vec![i % 8, i % 8, (i / 8) % 4])
//!     .collect();
//! let rel = Relation::from_rows(schema, rows).unwrap();
//!
//! // Build a DB histogram within a 256-byte budget.
//! let db = SynopsisBuilder::new(&rel).budget(256).build().unwrap();
//! assert!(db.storage_bytes() <= 256);
//!
//! // Estimate the selectivity of the predicate a ∈ [0,3] ∧ c = 1.
//! use dbhist_core::query::Query;
//! let q = Query::range(0, 0, 3).eq(2, 1);
//! let est = db.estimate(&q);
//! let exact = rel.count_range(q.ranges()) as f64;
//! assert!((est - exact).abs() / exact < 0.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod alloc;
pub mod baselines;
pub mod build;
pub mod builder;
pub mod error;
pub mod estimator;
pub mod evaluate;
pub mod explain;
pub mod factor;
pub mod ingest;
pub mod maintenance;
pub mod marginal;
pub mod observe;
pub mod query;
pub mod service;
pub mod snapshot;
pub mod synopsis;
pub mod wavelet_factor;

pub use builder::{BuildTrace, FactorKind, Synopsis, SynopsisBuilder};
pub use error::SynopsisError;
pub use estimator::SelectivityEstimator;
pub use evaluate::QueryTrace;
pub use explain::{
    ExplainProbe, ExplainRecorder, ExplainReport, GroupReport, NoProbe, QueryPath, StepKind,
    StepReport,
};
pub use factor::{ExactFactor, Factor};
pub use ingest::{IngestConfig, IngestSession, RecoveryReport, TuneOutcome};
pub use observe::ObservabilityServer;
pub use query::{Predicate, Query};
pub use service::{
    BatchReply, BatchTicket, EstimatorService, Generation, ServeStats, ServiceConfig,
};
pub use synopsis::{DbConfig, DbHistogram};

/// Locks `m`, recovering from poisoning: every mutex in this crate guards
/// state a panicking peer cannot leave logically corrupt (pooled scratch,
/// queues, report rings).
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
