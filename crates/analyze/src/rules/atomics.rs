//! `atomic-ordering` — concurrency primitives stay behind vetted doors.
//!
//! Two patterns, both preparing the ground for the ROADMAP-1 concurrent
//! `EstimatorService`:
//!
//! * Raw `Ordering::Relaxed` / `Ordering::SeqCst` outside the modules
//!   granted an entry in the [`super::EXEMPTIONS`] table. `Relaxed` is
//!   correct for monotonic stat counters and advisory knobs and wrong
//!   for almost everything else; `SeqCst` is usually a guess. Library
//!   code should use `dbhist_telemetry::registry` counters (whose
//!   internal orderings are reviewed in one place), spell an
//!   acquire/release protocol explicitly, or justify its orderings with
//!   an exemption entry.
//! * `.lock()` / `.read()` / `.write()` immediately followed by
//!   `.unwrap()` / `.expect(` — a poisoned mutex aborts the host;
//!   library code recovers with `PoisonError::into_inner`. This pattern
//!   is *not* covered by the exemption (exempt modules still must not
//!   abort on poison).

use super::FileCtx;
use crate::diag::Finding;
use crate::lexer::TokenKind;

pub fn check(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let tokens = &ctx.lexed.tokens;
    let exempt = ctx.exempt("atomic-ordering");
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `Ordering` `::` `Relaxed|SeqCst`
        if !exempt
            && t.text == "Ordering"
            && tokens.get(i + 1).is_some_and(|p| p.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|p| p.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|v| {
                v.kind == TokenKind::Ident && (v.text == "Relaxed" || v.text == "SeqCst")
            })
        {
            out.push(ctx.finding(t.line, t.col, "atomic-ordering"));
        }
        // `.lock()` / `.read()` / `.write()` + `.unwrap()` / `.expect(`
        if matches!(t.text.as_str(), "lock" | "read" | "write")
            && i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|p| p.is_punct('('))
            && tokens.get(i + 2).is_some_and(|p| p.is_punct(')'))
            && tokens.get(i + 3).is_some_and(|p| p.is_punct('.'))
            && tokens.get(i + 4).is_some_and(|v| {
                v.kind == TokenKind::Ident && (v.text == "unwrap" || v.text == "expect")
            })
        {
            out.push(ctx.finding(t.line, t.col, "atomic-ordering"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let ctx = FileCtx::new(path, src);
        let mut out = Vec::new();
        check(&ctx, &mut out);
        out
    }

    #[test]
    fn raw_relaxed_and_seqcst_flagged_outside_registry() {
        for bad in [
            "self.hits.fetch_add(1, Ordering::Relaxed);",
            "FLAG.store(true, atomic::Ordering::SeqCst);",
        ] {
            let v = run("crates/distribution/src/cache.rs", bad);
            assert_eq!(v.len(), 1, "{bad}: {v:?}");
            assert_eq!(v[0].rule, "atomic-ordering");
        }
    }

    #[test]
    fn exemption_table_modules_are_exempt() {
        let src = "self.0.fetch_add(n, Ordering::Relaxed);";
        assert!(run("crates/telemetry/src/registry.rs", src).is_empty());
        assert!(run("crates/telemetry/src/journal.rs", src).is_empty());
        assert_eq!(run("crates/telemetry/src/drift.rs", src).len(), 1);
    }

    #[test]
    fn exemption_does_not_cover_lock_unwrap() {
        let src = "let g = self.shards.lock().unwrap();";
        assert_eq!(run("crates/telemetry/src/journal.rs", src).len(), 1);
        assert_eq!(run("crates/telemetry/src/registry.rs", src).len(), 1);
    }

    #[test]
    fn acquire_release_protocols_are_allowed() {
        let src = "self.state.store(1, Ordering::Release); self.state.load(Ordering::Acquire);";
        assert!(run("crates/core/src/plan.rs", src).is_empty());
    }

    #[test]
    fn lock_unwrap_flagged_into_inner_not() {
        let bad = "let g = self.inner.lock().unwrap();";
        let v = run("crates/core/src/plan.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        let good = "let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);";
        assert!(run("crates/core/src/plan.rs", good).is_empty());
        let rw = "let g = self.inner.read().expect(\"poisoned\");";
        assert_eq!(run("crates/core/src/plan.rs", rw).len(), 1);
    }

    #[test]
    fn io_read_with_args_is_not_a_sync_primitive() {
        let src = "file.read(&mut buf)?;";
        assert!(run("crates/persist/src/container.rs", src).is_empty());
    }

    #[test]
    fn ordering_in_string_is_ignored() {
        let src = "let doc = \"uses Ordering::Relaxed internally\";";
        assert!(run("crates/core/src/plan.rs", src).is_empty());
    }
}
