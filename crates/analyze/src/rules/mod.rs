//! Rule catalog and the per-file context rules run against.

pub mod atomics;
pub mod hash_iter;
pub mod legacy;
pub mod panic_surface;
pub mod wal_order;

use crate::diag::Finding;
use crate::lexer::{self, Lexed};
use crate::scope::{self, Scopes};

/// Every rule id, in reporting order. `lint:allow` markers must name one
/// of these (the audit flags unknown names).
pub const RULES: [&str; 10] = [
    "hash-iter-order",
    "atomic-ordering",
    "panic-surface",
    "float-cmp",
    "as-narrowing",
    "deprecated-shim",
    "metric-name",
    "snapshot-io",
    "wal-append-order",
    "journal-event-name",
];

/// Fix hint attached to each rule's findings.
#[must_use]
pub fn hint_for(rule: &str) -> &'static str {
    match rule {
        "hash-iter-order" => {
            "hash iteration order can reach estimates/buckets/output; use BTreeMap/BTreeSet, \
             sort before use, or add a justified lint:allow"
        }
        "atomic-ordering" => {
            "raw Relaxed/SeqCst orderings and .lock().unwrap() belong in the vetted telemetry \
             registry; use registry counters or PoisonError::into_inner"
        }
        "panic-surface" => {
            "library code must not abort the host: return Result through the crate error enum, \
             use .get() instead of indexing"
        }
        "float-cmp" => "compare through an explicit epsilon or integer counts",
        "as-narrowing" => "use try_from and surface HistogramError::Codec",
        "deprecated-shim" => {
            "the DbHistogram::build_* shims were removed; construct through SynopsisBuilder"
        }
        "metric-name" => "metric names follow dbhist_<subsystem>_<name>_<unit>",
        "snapshot-io" => "snapshot bytes enter through dbhist_persist::read_file only",
        "wal-append-order" => {
            "WAL files are mutated through dbhist_persist::wal::WalWriter only — it owns \
             the append → fsync → apply and snapshot-before-truncate ordering that crash \
             recovery depends on"
        }
        "journal-event-name" => {
            "journal event-type tags are snake_case wire contracts (query_sampled, \
             generation_swap); log pipelines key on the tag string"
        }
        _ => "",
    }
}

/// One sanctioned per-rule, per-file exemption. The justification lives
/// next to the grant so the audit's allow policy is reviewable in one
/// table instead of being hard-coded inside rule implementations.
#[derive(Debug, Clone, Copy)]
pub struct Exemption {
    /// Rule id the grant applies to (must appear in [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated, matched exactly.
    pub path: &'static str,
    /// Why this file may violate the rule.
    pub why: &'static str,
}

/// The sanctioned exemption table. Adding a file here is a reviewed
/// decision: the entry must say *why* the rule's invariant holds anyway.
pub const EXEMPTIONS: &[Exemption] = &[
    Exemption {
        rule: "atomic-ordering",
        path: "crates/telemetry/src/registry.rs",
        why: "the sanctioned relaxed-atomic surface: monotonic counters, gauges, and \
              histogram buckets whose internal orderings are reviewed in one place",
    },
    Exemption {
        rule: "atomic-ordering",
        path: "crates/telemetry/src/journal.rs",
        why: "the journal's sequence claim is a Relaxed fetch_add: the counter only \
              hands out distinct slot numbers, and every event payload is published \
              and consumed under the per-slot mutex, which orders the data",
    },
];

/// `true` if `rule` findings in `rel_path` are sanctioned by
/// [`EXEMPTIONS`].
#[must_use]
pub fn path_exempt(rule: &str, rel_path: &str) -> bool {
    EXEMPTIONS.iter().any(|e| e.rule == rule && e.path == rel_path)
}

/// `true` if findings of `rule` inside `#[cfg(test)]` regions are
/// dropped. `deprecated-shim`, `metric-name`, and `journal-event-name`
/// deliberately apply to tests too (legacy behaviour: tests exercise the
/// builder API and share the metric and event-tag namespaces).
#[must_use]
pub fn test_exempt(rule: &str) -> bool {
    !matches!(rule, "deprecated-shim" | "metric-name" | "journal-event-name")
}

/// Everything the rules need to know about one file.
#[derive(Debug)]
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Raw source lines (suppression markers and metric names live here).
    pub raw_lines: Vec<String>,
    /// Token stream + masked lines (strings/comments blanked).
    pub lexed: Lexed,
    /// Test regions and named scope contexts.
    pub scopes: Scopes,
}

impl FileCtx {
    #[must_use]
    pub fn new(rel_path: &str, source: &str) -> Self {
        let raw_lines: Vec<String> = source.lines().map(str::to_string).collect();
        let lexed = lexer::lex(source);
        let scopes = scope::analyze(&lexed.masked, &lexed.tokens);
        Self { rel_path: rel_path.replace('\\', "/"), raw_lines, lexed, scopes }
    }

    /// `true` if `rule` findings in this file are sanctioned by the
    /// [`EXEMPTIONS`] table.
    #[must_use]
    pub fn exempt(&self, rule: &str) -> bool {
        path_exempt(rule, &self.rel_path)
    }

    /// Builds a finding at 1-based `line`/`col` with the standard
    /// excerpt, context, and hint.
    #[must_use]
    pub fn finding(&self, line: usize, col: usize, rule: &'static str) -> Finding {
        let excerpt = self
            .raw_lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().chars().take(120).collect())
            .unwrap_or_default();
        Finding {
            file: self.rel_path.clone(),
            line,
            col,
            rule,
            excerpt,
            context: self.scopes.context(line).to_string(),
            hint: hint_for(rule).to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exemption_table_is_well_formed() {
        for e in EXEMPTIONS {
            assert!(RULES.contains(&e.rule), "exemption names unknown rule {:?}", e.rule);
            assert!(!e.why.trim().is_empty(), "exemption for {} lacks a justification", e.path);
            assert!(!e.path.contains('\\'), "exemption paths are /-separated: {}", e.path);
        }
        for (i, a) in EXEMPTIONS.iter().enumerate() {
            for b in &EXEMPTIONS[i + 1..] {
                assert!(
                    (a.rule, a.path) != (b.rule, b.path),
                    "duplicate exemption for {} / {}",
                    a.rule,
                    a.path
                );
            }
        }
    }

    #[test]
    fn path_exempt_matches_exactly() {
        assert!(path_exempt("atomic-ordering", "crates/telemetry/src/registry.rs"));
        assert!(path_exempt("atomic-ordering", "crates/telemetry/src/journal.rs"));
        assert!(!path_exempt("atomic-ordering", "crates/core/src/sharded.rs"));
        assert!(!path_exempt("atomic-ordering", "crates/core/src/service.rs"));
        assert!(!path_exempt("hash-iter-order", "crates/telemetry/src/registry.rs"));
    }
}
