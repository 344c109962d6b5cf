//! Selftest: proves the analyzer still catches seeded violations of
//! every rule, suppresses them through `lint:allow`, and honours the
//! sanctioned exemptions — a regression test for the gate itself,
//! runnable in CI without mutating any tracked file. If a rule is
//! disabled or its detection rots, the corresponding fixture stops
//! firing and the selftest exits nonzero.

use crate::diag::Report;
use crate::engine::{analyze_file, FileClass};

/// One rule's fixture triple: a violating snippet, a clean rewrite, and
/// the path it is scanned under (path-scoped rules care).
struct Fixture {
    rule: &'static str,
    path: &'static str,
    violating: &'static str,
    clean: &'static str,
}

const FIXTURES: [Fixture; 10] = [
    Fixture {
        rule: "hash-iter-order",
        path: "crates/distribution/src/distribution.rs",
        violating: "fn total(cells: &FxHashMap<u32, f64>) -> f64 {\n    cells.iter().map(|(_, w)| w).sum()\n}\n",
        clean: "fn total(cells: &BTreeMap<u32, f64>) -> f64 {\n    cells.iter().map(|(_, w)| w).sum()\n}\n",
    },
    Fixture {
        rule: "atomic-ordering",
        path: "crates/distribution/src/cache.rs",
        violating: "fn bump(hits: &AtomicUsize) {\n    hits.fetch_add(1, Ordering::Relaxed);\n}\n",
        clean: "fn bump(hits: &telemetry::Counter) {\n    hits.incr(1);\n}\n",
    },
    Fixture {
        rule: "panic-surface",
        path: "crates/persist/src/container.rs",
        violating: "fn first(buf: &[u8]) -> u8 {\n    buf[0]\n}\n",
        clean: "fn first(buf: &[u8]) -> Option<u8> {\n    buf.first().copied()\n}\n",
    },
    Fixture {
        rule: "float-cmp",
        path: "crates/core/src/marginal.rs",
        violating: "fn z(freq: f64) -> bool { freq == 0.0 }\n",
        clean: "fn z(freq: f64) -> bool { freq.abs() < f64::EPSILON }\n",
    },
    Fixture {
        rule: "as-narrowing",
        path: "crates/histogram/src/codec.rs",
        violating: "fn w(count: usize) -> u16 { count as u16 }\n",
        clean: "fn w(count: usize) -> Result<u16, Error> { u16::try_from(count).map_err(Error::from) }\n",
    },
    Fixture {
        rule: "deprecated-shim",
        path: "examples/quickstart.rs",
        violating: "fn b() { let db = DbHistogram::build_mhist(&rel, &config); }\n",
        clean: "fn b() { let db = SynopsisBuilder::new(&rel).build(&config); }\n",
    },
    Fixture {
        rule: "metric-name",
        path: "crates/telemetry/src/wellknown.rs",
        violating: "fn m(r: &Registry) { r.counter(\"dbhist_build_rounds\"); }\n",
        clean: "fn m(r: &Registry) { r.counter(\"dbhist_build_rounds_total\"); }\n",
    },
    Fixture {
        rule: "snapshot-io",
        path: "crates/core/src/snapshot.rs",
        violating: "fn load(path: &Path) -> io::Result<Vec<u8>> { std::fs::read(path) }\n",
        clean: "fn load(path: &Path) -> Result<Vec<u8>, Error> { dbhist_persist::read_file(path) }\n",
    },
    Fixture {
        rule: "wal-append-order",
        path: "crates/core/src/ingest.rs",
        violating: "fn journal(path: &Path, rec: &[u8]) -> io::Result<()> {\n    let mut f = OpenOptions::new().append(true).open(path)?;\n    f.write_all(rec)\n}\n",
        clean: "fn journal(wal: &mut WalWriter, ops: &[WalOp]) -> Result<u64, PersistError> {\n    wal.append(ops)\n}\n",
    },
    Fixture {
        rule: "journal-event-name",
        path: "crates/telemetry/src/journal.rs",
        violating: "fn tag(e: &JournalEvent) -> &'static str {\n    match e {\n        JournalEvent::CacheEviction { .. } => \"CacheEviction\",\n    }\n}\n",
        clean: "fn tag(e: &JournalEvent) -> &'static str {\n    match e {\n        JournalEvent::CacheEviction { .. } => \"cache_eviction\",\n    }\n}\n",
    },
];

fn scan(path: &str, source: &str) -> Report {
    let mut report = Report::default();
    let class = if path.starts_with("examples/") {
        FileClass { narrow: false, wide: true, library: false }
    } else {
        FileClass::library()
    };
    analyze_file(path, source, class, &mut report);
    report
}

/// Runs every fixture; returns the number of failures (0 = gate intact).
/// Progress goes to stderr, mirroring the legacy selftest output.
#[must_use]
pub fn run() -> u32 {
    let mut failures = 0u32;
    for f in &FIXTURES {
        let hit = scan(f.path, f.violating);
        if hit.findings.iter().any(|v| v.rule == f.rule) {
            eprintln!("selftest: rule {} fires on seeded violation ... ok", f.rule);
        } else {
            eprintln!("selftest: rule {} MISSED seeded violation:\n{}", f.rule, f.violating);
            failures += 1;
        }

        let clean = scan(f.path, f.clean);
        if clean.findings.iter().any(|v| v.rule == f.rule) {
            eprintln!("selftest: rule {} fires on CLEAN fixture:\n{}", f.rule, f.clean);
            failures += 1;
        }

        // The escape hatch must suppress, and the suppression must then
        // count as used (no unused-suppression report).
        let marker = format!("// lint:allow-next-line({}): selftest\n", f.rule);
        let viol_line = hit.findings.iter().find(|v| v.rule == f.rule).map_or(1, |v| v.line);
        let mut suppressed_src = String::new();
        for (i, l) in f.violating.lines().enumerate() {
            if i + 1 == viol_line {
                suppressed_src.push_str(&marker);
            }
            suppressed_src.push_str(l);
            suppressed_src.push('\n');
        }
        let quiet = scan(f.path, &suppressed_src);
        if quiet.findings.iter().any(|v| v.rule == f.rule) {
            eprintln!("selftest: lint:allow({}) failed to suppress", f.rule);
            failures += 1;
        } else if !quiet.unused_suppressions.is_empty() {
            eprintln!(
                "selftest: lint:allow({}) reported unused after suppressing: {:?}",
                f.rule, quiet.unused_suppressions
            );
            failures += 1;
        }
    }

    failures += exemption_checks();
    if failures == 0 {
        eprintln!("selftest: all {} rules verified", FIXTURES.len());
    }
    failures
}

/// Sanctioned exemptions must stay exempt, or the rules would outlaw
/// their own implementation sites.
fn exemption_checks() -> u32 {
    let mut failures = 0u32;
    let mut check = |ok: bool, what: &str| {
        if ok {
            eprintln!("selftest: {what} ... ok");
        } else {
            eprintln!("selftest: FAILED: {what}");
            failures += 1;
        }
    };

    // The shims were removed from crates/core/src/synopsis.rs, which
    // ended its defining-module exemption: reintroducing a call (or the
    // definition) anywhere — including there — must fire the rule.
    let shim =
        scan("crates/core/src/synopsis.rs", "fn t() { DbHistogram::build_mhist(&r, &c); }\n");
    check(
        shim.findings.iter().any(|f| f.rule == "deprecated-shim"),
        "deprecated-shim guards reintroduction in crates/core/src/synopsis.rs",
    );

    // Every entry in the declarative exemption table must actually
    // grant its exemption (here: the seeded atomic-ordering violation
    // goes quiet on each granted path)...
    let ordering_violation = "fn i(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
    for e in crate::rules::EXEMPTIONS {
        if e.rule != "atomic-ordering" {
            continue;
        }
        let granted = scan(e.path, ordering_violation);
        check(
            !granted.findings.iter().any(|f| f.rule == "atomic-ordering"),
            &format!("atomic-ordering exemption table grants {}", e.path),
        );
    }
    // ...while ungranted paths keep firing, and the grant stays scoped
    // to raw orderings: poison-aborting lock acquisition is flagged even
    // inside an exempt module.
    let ungranted = scan("crates/core/src/service.rs", ordering_violation);
    check(
        ungranted.findings.iter().any(|f| f.rule == "atomic-ordering"),
        "atomic-ordering still fires outside the exemption table",
    );
    let poison = scan(
        "crates/telemetry/src/journal.rs",
        "fn g(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }\n",
    );
    check(
        poison.findings.iter().any(|f| f.rule == "atomic-ordering"),
        "exemption grants orderings only, not .lock().unwrap()",
    );

    // The WAL module implements the append/fsync/truncate discipline the
    // rule enforces, so it must stay exempt — everywhere else fires.
    let wal_mutation = "fn t(f: &File) -> io::Result<()> { f.sync_data() }\n";
    let walled = scan("crates/persist/src/wal.rs", wal_mutation);
    check(
        !walled.findings.iter().any(|f| f.rule == "wal-append-order"),
        "wal-append-order exempts crates/persist/src/wal",
    );
    let unwalled = scan("crates/persist/src/container.rs", wal_mutation);
    check(
        unwalled.findings.iter().any(|f| f.rule == "wal-append-order"),
        "wal-append-order fires outside the WAL module",
    );

    let plain_index = scan("crates/core/src/plan.rs", "fn g(v: &[u8]) -> u8 { v[0] }\n");
    check(
        plain_index.findings.is_empty(),
        "panic-surface indexing check is scoped to adversarial-input paths",
    );

    let mut bench = Report::default();
    analyze_file(
        "crates/bench/src/experiments.rs",
        "fn b(v: Option<u32>) -> u32 { v.unwrap() }\n",
        FileClass { narrow: true, wide: true, library: false },
        &mut bench,
    );
    check(bench.findings.is_empty(), "library rules skip the bench crate");

    failures
}

#[cfg(test)]
mod tests {
    #[test]
    fn selftest_passes() {
        assert_eq!(super::run(), 0);
    }
}
