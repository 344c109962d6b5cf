//! Joint frequency distributions and information measures.
//!
//! This crate is the data-model substrate for the `dbhist` workspace, the
//! Rust reproduction of *"Independence is Good: Dependency-Based Histogram
//! Synopses for High-Dimensional Data"* (Deshpande, Garofalakis, Rastogi;
//! SIGMOD 2001).
//!
//! The paper models a relational table `R` over attributes `X_1, ..., X_n`
//! as an `n`-dimensional contingency table whose cells hold tuple counts
//! (the *joint frequency distribution*, paper §2.1). Everything downstream —
//! interaction models, clique histograms, selectivity estimation — operates
//! on this distribution and its *marginals*.
//!
//! # Contents
//!
//! * [`Schema`], [`Attr`], [`AttrSet`] — attribute metadata and ordered
//!   attribute-id sets.
//! * [`Relation`] — a materialized table of integer-coded rows, with exact
//!   marginals ([`Relation::marginal`]) and marginal entropies
//!   ([`Relation::marginal_entropy`]) counted from packed row codes.
//! * [`Distribution`] — a sparse frequency distribution over any subset of
//!   the schema's attributes, with projection ([`Distribution::marginal`]),
//!   Shannon entropy ([`Distribution::entropy`]), and Kullback–Leibler
//!   divergence ([`measures::kl_divergence`]).
//! * [`EntropyCache`] — memoized marginal entropies, the workhorse of
//!   forward model selection (each candidate edge is scored from four
//!   marginal entropies).
//! * [`Columns`] — a byte-per-value column-major copy of a relation that
//!   counts many marginals and entropies of it, each from its own
//!   columns; a synopsis build counts selection and construction from one.
//! * [`fxhash`] — a small, fast, non-cryptographic hasher used for tuple
//!   keys throughout the workspace (built in-repo to keep the dependency
//!   surface minimal).
//!
//! # Example
//!
//! ```
//! use dbhist_distribution::{Schema, Relation, AttrSet};
//!
//! // Two correlated attributes and one independent attribute.
//! let schema = Schema::new(vec![("a", 4), ("b", 4), ("c", 2)]).unwrap();
//! let rows: Vec<Vec<u32>> = (0..64)
//!     .map(|i| vec![i % 4, i % 4, (i / 4) % 2])
//!     .collect();
//! let rel = Relation::from_rows(schema, rows).unwrap();
//! let joint = rel.distribution();
//!
//! // Marginal over {a, b}: only the diagonal cells are populated.
//! let ab = joint.marginal(&AttrSet::from_ids([0, 1])).unwrap();
//! assert_eq!(ab.support_size(), 4);
//! assert_eq!(ab.total(), 64.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod attr;
pub mod cache;
mod count;
pub mod distribution;
pub mod error;
pub mod fxhash;
pub mod measures;
pub mod relation;

pub use attr::{Attr, AttrId, AttrSet, Schema};
pub use cache::EntropyCache;
pub use count::{CellColumns, Columns};
pub use distribution::Distribution;
pub use error::DistributionError;
pub use relation::Relation;
