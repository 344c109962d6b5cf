//! `hash-iter-order` — hash-map iteration order must not reach output.
//!
//! `FxHashMap` iteration order is deterministic for a fixed insertion
//! sequence, but it is an accident of hasher and capacity: any refactor
//! that reorders insertions — or any concurrency that interleaves them —
//! silently permutes iteration, and a permuted order feeds
//! non-associative f64 accumulation, bucket layout, and serialized
//! output. The workspace invariant is bit-identical estimates, so
//! library code may only iterate ordered containers (`BTreeMap` /
//! `BTreeSet`), sort explicitly before use, or carry a justified
//! `lint:allow(hash-iter-order)` explaining why order cannot escape
//! (e.g. an order-independent min over unique keys).
//!
//! Detection is scope-aware in two passes over the token stream:
//!
//! 1. **Bind** — names declared or assigned with a hash-typed right-hand
//!    side (`cells: FxHashMap<…>`, `let mut agg = FxHashMap::default()`,
//!    fields and fn params alike) are collected file-wide.
//! 2. **Flag** — order-producing calls on a bound name
//!    (`.iter()`, `.keys()`, `.values()`, `.drain()`, `.into_iter()`,
//!    …) and direct `for … in [&mut] name` loops. A
//!    statement window that also mentions a `sort*` call or a `BTree*`
//!    type is skipped — collect-then-sort is the sanctioned idiom.

use super::FileCtx;
use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};

/// Unordered container type names whose bindings are tracked.
const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Methods whose result order is the container's iteration order.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Collects every name bound to a hash-typed value anywhere in the file.
fn bound_names(tokens: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !HASH_TYPES.contains(&t.text.as_str()) {
            continue;
        }
        // Walk back over path qualifiers (`fxhash::FxHashMap`).
        let mut j = i;
        while j >= 3
            && tokens[j - 1].is_punct(':')
            && tokens[j - 2].is_punct(':')
            && tokens[j - 3].kind == TokenKind::Ident
        {
            j -= 3;
        }
        // Walk back over `&`, `mut`, and lifetimes (`x: &mut FxHashMap`).
        let mut k = j;
        while k > 0 {
            let p = &tokens[k - 1];
            let skip = p.is_punct('&')
                || p.kind == TokenKind::Lifetime
                || (p.kind == TokenKind::Ident && p.text == "mut");
            if !skip {
                break;
            }
            k -= 1;
        }
        if k < 2 {
            continue;
        }
        let anchor = &tokens[k - 1];
        let name = &tokens[k - 2];
        // `name: FxHashMap<…>` (field, param, or annotated let) and
        // `name = FxHashMap::default()` / `HashMap::new()` both bind.
        let is_decl =
            anchor.is_punct(':') && !tokens.get(k.wrapping_sub(3)).is_some_and(|q| q.is_punct(':'));
        let is_assign = anchor.is_punct('=');
        if (is_decl || is_assign) && name.kind == TokenKind::Ident && !names.contains(&name.text) {
            names.push(name.text.clone());
        }
    }
    names
}

/// `true` if the statement window around token `p` mentions a `sort*`
/// call or a `BTree*` type — the sanctioned collect-then-sort idiom.
fn sorted_escape(tokens: &[Token], p: usize) -> bool {
    let escape = |t: &Token| {
        t.kind == TokenKind::Ident && (t.text.starts_with("sort") || t.text.contains("BTree"))
    };
    // Backward to the nearest statement boundary.
    let mut i = p;
    while i > 0 {
        let t = &tokens[i - 1];
        if t.kind == TokenKind::Punct
            && matches!(t.text.as_bytes().first(), Some(b';' | b'{' | b'}'))
        {
            break;
        }
        if escape(t) {
            return true;
        }
        i -= 1;
    }
    // Forward through this statement and the next (collect-then-sort
    // spans two), stopping at a loop-body `{` or an unwinding `}`.
    let mut depth: i64 = 0;
    let mut semis = 0;
    let mut j = p + 1;
    while let Some(t) = tokens.get(j) {
        if escape(t) {
            return true;
        }
        if t.kind == TokenKind::Punct {
            match t.text.as_bytes().first() {
                Some(b'(' | b'[') => depth += 1,
                Some(b')' | b']') => depth -= 1,
                Some(b'{') => {
                    if depth == 0 {
                        break;
                    }
                    depth += 1;
                }
                Some(b'}') => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                Some(b';') if depth <= 0 => {
                    semis += 1;
                    if semis >= 2 {
                        break;
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    false
}

pub fn check(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let tokens = &ctx.lexed.tokens;
    let bound = bound_names(tokens);
    if bound.is_empty() {
        return;
    }
    let mut flagged_lines: Vec<usize> = Vec::new();
    let push = |t: &Token, flagged_lines: &mut Vec<usize>, out: &mut Vec<Finding>| {
        if !flagged_lines.contains(&t.line) {
            flagged_lines.push(t.line);
            out.push(ctx.finding(t.line, t.col, "hash-iter-order"));
        }
    };

    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `name.iter()` and friends.
        if bound.contains(&t.text)
            && tokens.get(i + 1).is_some_and(|p| p.is_punct('.'))
            && tokens.get(i + 2).is_some_and(|m| {
                m.kind == TokenKind::Ident && ITER_METHODS.contains(&m.text.as_str())
            })
            && tokens.get(i + 3).is_some_and(|p| p.is_punct('('))
            && !sorted_escape(tokens, i)
        {
            push(t, &mut flagged_lines, out);
            continue;
        }
        // `for pat in [&][mut] [self.]name { … }` — direct iteration.
        if t.text == "for" {
            let mut j = i + 1;
            let mut found_in = None;
            while let Some(n) = tokens.get(j) {
                if j > i + 10 || n.is_punct('{') || n.is_punct(';') {
                    break;
                }
                if n.kind == TokenKind::Ident && n.text == "in" {
                    found_in = Some(j);
                    break;
                }
                j += 1;
            }
            let Some(mut j) = found_in else { continue };
            j += 1;
            while tokens
                .get(j)
                .is_some_and(|n| n.is_punct('&') || (n.kind == TokenKind::Ident && n.text == "mut"))
            {
                j += 1;
            }
            if tokens.get(j).is_some_and(|n| n.kind == TokenKind::Ident && n.text == "self")
                && tokens.get(j + 1).is_some_and(|p| p.is_punct('.'))
            {
                j += 2;
            }
            let Some(name) = tokens.get(j) else { continue };
            if name.kind == TokenKind::Ident
                && bound.contains(&name.text)
                && tokens.get(j + 1).is_some_and(|p| p.is_punct('{'))
                && !sorted_escape(tokens, j)
            {
                push(name, &mut flagged_lines, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let ctx = FileCtx::new("crates/distribution/src/distribution.rs", src);
        let mut out = Vec::new();
        check(&ctx, &mut out);
        out
    }

    #[test]
    fn iterating_a_hash_field_is_flagged() {
        let src = "struct D { cells: FxHashMap<Box<[u32]>, f64> }\n\
                   impl D {\n\
                       fn total(&self) -> f64 {\n\
                           self.cells.iter().map(|(_, w)| w).sum()\n\
                       }\n\
                   }\n";
        let v = run(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("hash-iter-order", 4));
        assert_eq!(v[0].context, "impl D > fn total");
    }

    #[test]
    fn for_loop_over_hash_map_is_flagged() {
        let src = "fn f() {\n    let mut agg = FxHashMap::default();\n    for (k, w) in &agg {\n        emit(k, w);\n    }\n}\n";
        let v = run(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn lookup_only_maps_are_fine() {
        let src = "fn f(constraint: &FxHashMap<u16, (u32, u32)>, key: u16) -> bool {\n    constraint.get(&key).is_some() && constraint.len() > 1\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn btree_maps_are_fine() {
        let src = "fn f(cells: &BTreeMap<u32, f64>) -> f64 {\n    cells.iter().map(|(_, w)| w).sum()\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn collect_then_sort_is_sanctioned() {
        let src = "fn f(agg: &FxHashMap<u32, f64>) -> Vec<(u32, f64)> {\n    let mut v: Vec<_> = agg.iter().map(|(k, w)| (*k, *w)).collect();\n    v.sort_unstable_by_key(|e| e.0);\n    v\n}\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn keys_values_drain_all_flagged() {
        for m in ["keys", "values", "drain", "into_iter"] {
            let src =
                format!("fn f(mut agg: FxHashMap<u32, f64>) {{\n    consume(agg.{m}());\n}}\n");
            let v = run(&src);
            assert_eq!(v.len(), 1, "{m}: {v:?}");
        }
    }

    #[test]
    fn qualified_path_binding_is_tracked() {
        let src = "fn f(out: &mut fxhash::FxHashMap<Vec<u32>, f64>) {\n    for (sub, w) in out.iter_mut() {\n        *w += 1.0;\n    }\n}\n";
        let v = run(src);
        assert_eq!(v.len(), 1, "{v:?}");
    }
}
