//! Histogram structures for dependency-based synopses (paper §3.2–§3.3.2).
//!
//! This crate provides every histogram family the paper's evaluation uses:
//!
//! * [`one_dim::OneDimHistogram`] — classic bucketized one-dimensional
//!   histograms (EquiWidth / EquiDepth / MaxDiff / V-Optimal), the building
//!   block of the `IND` full-independence baseline.
//! * [`mhist::SplitTree`] — multi-dimensional MHIST histograms in the
//!   paper's novel space-efficient *split tree* representation (`3b − 2`
//!   stored numbers for `b` buckets instead of `b(2n+1)`), built with the
//!   MHIST-2 greedy of Poosala & Ioannidis, plus the paper's
//!   `restrictNode` / `project` (Fig. 4) / `product` (Fig. 5) operators
//!   that work *directly on split trees*.
//! * [`grid::GridHistogram`] — rectangular `p × q × ...` array
//!   partitionings with straightforward projection/multiplication,
//!   included (as in the paper) as a simple alternative clique-histogram
//!   type.
//!
//! All multi-dimensional histograms implement [`traits::MultiHistogram`],
//! whose workhorse is `mass_in_box`: the estimated frequency mass inside a
//! conjunctive range box under the intra-bucket uniformity assumption.
//! Range-selectivity estimation, projection weights, and product weights
//! all reduce to this primitive.
//!
//! [`codec`] provides exact byte accounting (and a binary wire format)
//! matching the paper's storage model: `9b` bytes for a `b`-bucket MHIST
//! split tree, `8b` bytes for one-dimensional histograms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bbox;
pub mod codec;
pub mod criterion;
pub mod error;
pub mod grid;
pub mod mhist;
pub mod one_dim;
pub mod traits;
pub mod wavelet;

pub use bbox::BoundingBox;
pub use criterion::SplitCriterion;
pub use error::HistogramError;
pub use grid::GridHistogram;
pub use mhist::{IndexLayout, SplitTree, TreeIndex};
pub use one_dim::OneDimHistogram;
pub use traits::MultiHistogram;
