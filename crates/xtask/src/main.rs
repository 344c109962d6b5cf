//! `cargo xtask`-style workspace automation. Dependency-free beyond the
//! first-party analyzer crate: it must build in the same registry-less
//! environment as the workspace.
//!
//! ```text
//! cargo run -p xtask -- analyze         # scope-aware static analysis
//! cargo run -p xtask -- analyze --json  # machine-readable findings
//! cargo run -p xtask -- selftest        # prove the rules catch seeded bugs
//! cargo run -p xtask -- bench-diff <baseline.json> <fresh.json> <path>...
//!                                       # fail if a headline metric regressed >20%
//! ```
//!
//! `analyze` walks every first-party source file, runs the
//! [`dbhist_analyze`] rule engine (lexer → scopes → rules →
//! diagnostics), prints one human-readable line per finding to stderr
//! and a JSON summary to stdout, and exits nonzero if any finding — or
//! any unused `lint:allow` marker — survives.

mod bench_diff;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => run_analyze(args.iter().any(|a| a == "--json")),
        Some("selftest") => run_selftest(),
        Some("bench-diff") => bench_diff::run(&args[1..]),
        _ => {
            eprintln!("usage: cargo run -p xtask -- <analyze [--json]|selftest|bench-diff>");
            ExitCode::from(2)
        }
    }
}

/// Workspace root, resolved from this crate's manifest directory at
/// compile time (`crates/xtask` → two levels up).
fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn run_analyze(json: bool) -> ExitCode {
    let report = dbhist_analyze::analyze_workspace(&workspace_root());
    eprint!("{}", report.render_human());
    if json {
        println!("{}", report.to_json(&dbhist_analyze::RULES));
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xtask analyze: {} finding(s), {} unused suppression(s) in {} file(s) scanned",
            report.findings.len(),
            report.unused_suppressions.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}

/// Proves the analyzer still catches seeded violations of every rule: a
/// regression test for the gate itself, runnable in CI without mutating
/// any tracked file. Exits nonzero if any seeded bug goes undetected
/// (i.e. the gate has rotted).
fn run_selftest() -> ExitCode {
    if dbhist_analyze::selftest::run() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_has_manifest() {
        assert!(workspace_root().join("Cargo.toml").is_file());
    }

    #[test]
    fn workspace_walk_covers_all_crates_except_tooling_and_vendor() {
        let files = dbhist_analyze::workspace_files(&workspace_root());
        let names: Vec<String> = files.iter().map(|(p, _)| p.display().to_string()).collect();
        assert!(names.iter().any(|n| n.ends_with("crates/core/src/lib.rs")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("crates/histogram/src")));
        assert!(!names.iter().any(|n| n.contains("xtask")));
        assert!(!names.iter().any(|n| n.contains("crates/analyze")));
        assert!(!names.iter().any(|n| n.contains("vendor")));
    }
}
