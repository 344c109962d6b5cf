//! File walking, rule dispatch, suppression filtering, and the audit.

use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::{Finding, Report};
use crate::rules::{self, FileCtx};
use crate::suppress::Suppressions;

/// Which rule families apply to one file. Derived from its path, the
/// same way the legacy linter derived its two file sets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileClass {
    /// Legacy narrow set: library sources (root `src/` + each
    /// `crates/<name>/src/` minus `bin/`). Runs the ported line rules
    /// `float-cmp`, `as-narrowing`, `snapshot-io`, plus
    /// `wal-append-order`.
    pub narrow: bool,
    /// Legacy wide set: narrow plus `bin/`, examples, integration
    /// tests, and benches. Runs `deprecated-shim` and `metric-name`.
    pub wide: bool,
    /// Library crates proper (narrow minus `crates/bench`): code
    /// reachable from the public estimation API, where determinism and
    /// no-abort guarantees bind. Runs the four scope-aware rules.
    pub library: bool,
}

impl FileClass {
    /// Classification used by the selftest fixtures: a library source
    /// file, in scope for every rule family.
    #[must_use]
    pub fn library() -> Self {
        Self { narrow: true, wide: true, library: true }
    }
}

/// Runs every applicable rule over one file, applies suppressions, and
/// appends findings plus the unused-suppression audit to `report`.
pub fn analyze_file(rel_path: &str, source: &str, class: FileClass, report: &mut Report) {
    let ctx = FileCtx::new(rel_path, source);
    let mut suppressions = Suppressions::parse(&ctx.raw_lines);
    let mut raw: Vec<Finding> = Vec::new();

    if class.library {
        rules::hash_iter::check(&ctx, &mut raw);
        rules::atomics::check(&ctx, &mut raw);
        rules::panic_surface::check(&ctx, &mut raw);
    }
    if class.narrow {
        rules::legacy::float_cmp(&ctx, &mut raw);
        rules::legacy::as_narrowing(&ctx, &mut raw);
        rules::legacy::snapshot_io(&ctx, &mut raw);
        rules::wal_order::check(&ctx, &mut raw);
    }
    if class.wide {
        rules::legacy::deprecated_shim(&ctx, &mut raw);
        rules::legacy::metric_name(&ctx, &mut raw);
        rules::legacy::journal_event_name(&ctx, &mut raw);
    }

    for finding in raw {
        if rules::test_exempt(finding.rule) && ctx.scopes.in_test(finding.line) {
            continue;
        }
        if suppressions.suppresses(finding.line, finding.rule) {
            continue;
        }
        report.findings.push(finding);
    }
    report.unused_suppressions.extend(suppressions.audit(rel_path, &rules::RULES));
    report.files_scanned += 1;
}

/// Walks the workspace and analyzes every first-party file.
#[must_use]
pub fn analyze_workspace(root: &Path) -> Report {
    let mut report = Report::default();
    for (path, class) in workspace_files(root) {
        let Ok(source) = fs::read_to_string(&path) else {
            eprintln!("analyze: unreadable file {}", path.display());
            continue;
        };
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        analyze_file(&rel, &source, class, &mut report);
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    report.unused_suppressions.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Crates excluded from scanning entirely: the analyzer and xtask are
/// tooling (their sources are full of fixture strings that would trip
/// the rules), and `vendor/` is third-party.
const TOOLING_CRATES: [&str; 2] = ["xtask", "analyze"];

/// Enumerates every first-party file with its classification, sorted by
/// path. The sets mirror the legacy linter: narrow = library sources
/// minus `bin/`; wide additionally covers `bin/`, examples, integration
/// tests, and benches.
#[must_use]
pub fn workspace_files(root: &Path) -> Vec<(PathBuf, FileClass)> {
    let mut out: Vec<(PathBuf, FileClass)> = Vec::new();
    let mut push = |path: PathBuf, class: FileClass| {
        if let Some(existing) = out.iter_mut().find(|(p, _)| *p == path) {
            existing.1.narrow |= class.narrow;
            existing.1.wide |= class.wide;
            existing.1.library |= class.library;
        } else {
            out.push((path, class));
        }
    };

    // Root package: src/ is narrow+wide+library, examples/tests wide.
    let mut files = Vec::new();
    collect_rs_files(&root.join("src"), &mut files);
    for f in files.drain(..) {
        push(f, FileClass { narrow: true, wide: true, library: true });
    }
    collect_rs_files_deep(&root.join("src"), &mut files);
    for f in files.drain(..) {
        push(f, FileClass { narrow: false, wide: true, library: false });
    }
    for dir in [root.join("examples"), root.join("tests")] {
        collect_rs_files_deep(&dir, &mut files);
        for f in files.drain(..) {
            push(f, FileClass { narrow: false, wide: true, library: false });
        }
    }

    // Workspace crates, tooling excluded.
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        let mut names: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.is_dir() && p.file_name().is_some_and(|n| !TOOLING_CRATES.iter().any(|t| n == *t))
            })
            .collect();
        names.sort();
        for krate in names {
            let library = krate.file_name().is_some_and(|n| n != "bench");
            collect_rs_files(&krate.join("src"), &mut files);
            for f in files.drain(..) {
                push(f, FileClass { narrow: true, wide: true, library });
            }
            collect_rs_files_deep(&krate.join("src"), &mut files);
            for f in files.drain(..) {
                push(f, FileClass { narrow: false, wide: true, library: false });
            }
            for dir in [krate.join("benches"), krate.join("tests")] {
                collect_rs_files_deep(&dir, &mut files);
                for f in files.drain(..) {
                    push(f, FileClass { narrow: false, wide: true, library: false });
                }
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Recursively collects `.rs` files under `dir`, skipping `bin/`
/// subtrees (legacy narrow-set walk).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Recursively collects every `.rs` file under `dir`, including `bin/`
/// (legacy wide-set walk).
fn collect_rs_files_deep(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files_deep(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_drops_finding_and_audit_flags_dead_allow() {
        let mut report = Report::default();
        analyze_file(
            "crates/core/src/x.rs",
            "fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // lint:allow(panic-surface): boot path\n}\n",
            FileClass::library(),
            &mut report,
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.unused_suppressions.is_empty());

        let mut dead = Report::default();
        analyze_file(
            "crates/core/src/y.rs",
            "fn f() {} // lint:allow(panic-surface): nothing here\n",
            FileClass::library(),
            &mut dead,
        );
        assert_eq!(dead.unused_suppressions.len(), 1);
        assert_eq!(dead.unused_suppressions[0].reason, "no finding on this line");
    }

    #[test]
    fn test_regions_exempt_for_library_rules_only() {
        let src = "fn lib() -> u32 { 1 }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { x.unwrap(); let c = r.counter(\"dbhist_bad\"); }\n\
                   }\n";
        let mut report = Report::default();
        analyze_file("crates/core/src/lib.rs", src, FileClass::library(), &mut report);
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert!(!rules.contains(&"panic-surface"), "{rules:?}");
        assert!(rules.contains(&"metric-name"), "metric namespace is shared with tests: {rules:?}");
    }

    #[test]
    fn class_gates_rule_families() {
        let src = "fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
        let mut bench = Report::default();
        analyze_file(
            "crates/bench/src/experiments.rs",
            src,
            FileClass { narrow: true, wide: true, library: false },
            &mut bench,
        );
        assert!(bench.findings.is_empty(), "bench keeps its unwraps: {:?}", bench.findings);
        let mut lib = Report::default();
        analyze_file("crates/core/src/f.rs", src, FileClass::library(), &mut lib);
        assert_eq!(lib.findings.len(), 1);
    }
}
