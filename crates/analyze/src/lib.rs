//! `dbhist-analyze` — scope-aware determinism & concurrency static
//! analysis for the dbhist workspace, invoked as `cargo xtask analyze`.
//!
//! The paper's estimates are only trustworthy if they are reproducible:
//! every layer of this workspace pins *bit-identical estimates* as its
//! invariant (serial vs parallel builds, persisted vs rebuilt
//! synopses). This crate checks that invariant statically, where the
//! runtime proptests cannot reach:
//!
//! ```text
//! lexer  →  scopes  →  rules  →  diagnostics
//! ```
//!
//! * [`lexer`] promotes the legacy line masker into a full token stream
//!   with line/column spans, masking comments and string/char literals
//!   byte-identically to the old scanner (verified by proptest).
//! * [`scope`] walks braces to attribute every line to its
//!   `fn`/`impl`/`mod`/closure context and to the legacy-compatible
//!   `#[cfg(test)]` regions.
//! * [`rules`] hosts three scope-aware rules guarding the bit-identity
//!   and concurrency invariants (`hash-iter-order`, `atomic-ordering`,
//!   `panic-surface`) plus
//!   the five ported legacy line rules (`float-cmp`, `as-narrowing`,
//!   `deprecated-shim`, `metric-name`, `snapshot-io`).
//! * [`diag`] renders structured findings (file:line:col, excerpt, rule
//!   id, scope context, fix hint) as human lines or JSON.
//! * [`suppress`] implements the `lint:allow(...)` /
//!   `lint:allow-next-line(...)` escape hatches and audits markers that
//!   suppressed nothing — a dead allow fails the gate.
//! * [`engine`] classifies workspace files into the legacy narrow/wide
//!   sets plus the library-crate set and dispatches the rules.
//! * [`selftest`] seeds a violating/clean/suppressed fixture triple per
//!   rule so CI proves the gate itself has not rotted.
//!
//! Dependency-free by design: like xtask, the analyzer must build in
//! the registry-less container before anything else does.

#![forbid(unsafe_code)]

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod scope;
pub mod selftest;
pub mod suppress;

pub use diag::{Finding, Report, UnusedSuppression};
pub use engine::{analyze_file, analyze_workspace, workspace_files, FileClass};
pub use rules::{FileCtx, RULES};
