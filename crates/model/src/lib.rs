//! Decomposable statistical interaction models (paper §2.2–§3.1).
//!
//! This crate implements the model half of a DEPENDENCY-BASED histogram
//! synopsis `H = <M, C>`: the machinery to represent, validate, and
//! *discover* a decomposable log-linear model `M` for a joint frequency
//! distribution.
//!
//! # Contents
//!
//! * [`graph::MarkovGraph`] — undirected interaction graphs over attribute
//!   ids.
//! * [`chordal`] — Maximum Cardinality Search, chordality testing, and
//!   maximal-clique extraction for chordal graphs. Decomposable models
//!   correspond exactly to chordal Markov graphs (paper §2.2).
//! * [`junction::JunctionTree`] — clique trees satisfying the
//!   clique-intersection property, from which the closed-form product
//!   estimates of a decomposable model are read off (paper Eq. 2).
//! * [`DecomposableModel`] — the model itself: generators, separators,
//!   closed-form frequency estimates, and divergence via the entropy
//!   decomposition `D = Σ E(C) − Σ E(S) − E(f)`.
//! * [`stats`] — ln-gamma, regularized incomplete gamma, and the χ²
//!   distribution, built from scratch; used for the G² likelihood-ratio
//!   significance test that gates model growth (paper §2.3).
//! * [`selection`] — forward selection of decomposable models with the
//!   paper's two edge-scoring heuristics (`DB₁`: highest statistical
//!   significance; `DB₂`: divergence improvement per unit of model state
//!   space), a clique-size bound `k_max`, and a significance threshold `θ`.
//!
//! # Example: discovering structure
//!
//! ```
//! use dbhist_distribution::{Schema, Relation};
//! use dbhist_model::selection::{ForwardSelector, SelectionConfig};
//!
//! // a == b, c independent coin.
//! let schema = Schema::new(vec![("a", 4), ("b", 4), ("c", 2)]).unwrap();
//! let rows: Vec<Vec<u32>> = (0..256)
//!     .map(|i| vec![i % 4, i % 4, (i / 4) % 2])
//!     .collect();
//! let rel = Relation::from_rows(schema, rows).unwrap();
//!
//! let model = ForwardSelector::new(&rel, SelectionConfig::default())
//!     .run()
//!     .model;
//! // The selector links the correlated pair and leaves `c` independent.
//! assert!(model.graph().has_edge(0, 1));
//! assert!(!model.graph().has_edge(0, 2));
//! assert!(!model.graph().has_edge(1, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod backward;
pub mod chordal;
pub mod decomposable;
pub mod error;
pub mod graph;
pub mod junction;
pub mod selection;
pub mod stats;

pub use decomposable::DecomposableModel;
pub use error::ModelError;
pub use graph::MarkovGraph;
pub use junction::{JunctionTree, RootedViews};
