//! Golden pin for the MHIST `product` and `project` operators.
//!
//! Each case pins an operator output's bucket count, the bit pattern of
//! its total, and a hash over every bucket's box and frequency bits in
//! `leaves()` order. Any change to the generated split structure, the
//! zero collapse, the node budget's accounting or a leaf's frequency
//! arithmetic shows up here.
//!
//! The two 900-bucket trees over `(a, b)` and `(b, c)` with `|b| = 4`
//! multiply into more structural nodes than the product's node budget
//! allows, so those cases pin the coarse buckets that the budget leaves
//! behind as well.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests assert by panicking

use dbhist::distribution::{AttrSet, Relation, Schema};
use dbhist::histogram::mhist::MhistBuilder;
use dbhist::histogram::{SplitCriterion, SplitTree};

/// What one operator output is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    buckets: usize,
    total: u64,
    leaves_hash: u64,
}

/// FNV-1a over every leaf's box and frequency bits.
fn pin(tree: &SplitTree) -> Pin {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let leaves = tree.leaves();
    for (bbox, freq) in &leaves {
        for (a, &(lo, hi)) in bbox.attrs().iter().zip(bbox.ranges()) {
            eat(u64::from(a));
            eat(u64::from(lo) << 32 | u64::from(hi));
        }
        eat(freq.to_bits());
    }
    assert!(tree.validate().is_ok(), "{:?}", tree.validate());
    Pin { buckets: leaves.len(), total: tree.total().to_bits(), leaves_hash: hash }
}

fn assert_pinned(what: &str, tree: &SplitTree, expected: &Pin) {
    assert_eq!(&pin(tree), expected, "{what}");
}

/// Deterministic 64-bit LCG (Knuth's MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u32) -> u32 {
        self.0 =
            self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % u64::from(n)) as u32
    }
}

/// `rows` rows over `a` (256 values), `b` (4), `c` (256) and `d` (8), with
/// `b` and `d` depending on `a` and `c` so every marginal has structure.
fn relation(rows: usize, seed: u64) -> Relation {
    let schema = Schema::new(vec![("a", 256), ("b", 4), ("c", 256), ("d", 8)]).unwrap();
    let mut rng = Lcg(seed);
    let data = (0..rows)
        .map(|_| {
            let a = rng.below(256);
            let b = if rng.below(3) == 0 { rng.below(4) } else { a % 4 };
            let c = (a / 2 + rng.below(192) + 32 * b) % 256;
            let d = if rng.below(2) == 0 { c % 8 } else { rng.below(8) };
            vec![a, b, c, d]
        })
        .collect::<Vec<_>>();
    Relation::from_rows(schema, data).unwrap()
}

fn mhist(rel: &Relation, attrs: &[u16], buckets: usize) -> SplitTree {
    let marginal = rel.marginal(&AttrSet::from_ids(attrs.iter().copied())).unwrap();
    MhistBuilder::build(&marginal, buckets, SplitCriterion::MaxDiff).unwrap()
}

fn attrs(ids: &[u16]) -> AttrSet {
    AttrSet::from_ids(ids.iter().copied())
}

#[test]
fn budget_exhausting_product_is_pinned_in_both_orders() {
    let rel = relation(40_000, 0x0b5e_55ed);
    let ab = mhist(&rel, &[0, 1], 900);
    let bc = mhist(&rel, &[1, 2], 900);
    assert_eq!((ab.bucket_count(), bc.bucket_count()), (900, 900));
    let abc = ab.product(&bc).unwrap();
    assert_pinned(
        "ab x bc",
        &abc,
        &Pin { buckets: 130040, total: 0x40e3880054aa4c00, leaves_hash: 0xddbb600433a7df33 },
    );
    let cba = bc.product(&ab).unwrap();
    assert_pinned(
        "bc x ab",
        &cba,
        &Pin { buckets: 98375, total: 0x40e387ffffffffe0, leaves_hash: 0xbfc07e5803a8d89 },
    );
    // Dropping split attributes of the budget-exhausted product.
    assert_pinned(
        "ab x bc onto {a}",
        &abc.project(&attrs(&[0])).unwrap(),
        &Pin { buckets: 247, total: 0x40e3880054aa4c2d, leaves_hash: 0xfda357e1d599b573 },
    );
    assert_pinned(
        "ab x bc onto {b}",
        &abc.project(&attrs(&[1])).unwrap(),
        &Pin { buckets: 4, total: 0x40e3880054aa4c32, leaves_hash: 0x7fae56a29b05b56b },
    );
}

#[test]
fn zero_bucket_product_is_pinned() {
    // Rows on the diagonal band only: the trees hold zero buckets for the
    // empty off-diagonal regions, which the product short-cuts.
    let schema = Schema::new(vec![("x", 32), ("y", 32), ("z", 16)]).unwrap();
    let mut rng = Lcg(7);
    let data = (0..4_000)
        .map(|_| {
            let x = rng.below(32);
            let y = (x + rng.below(3)) % 32;
            vec![x, y, (y / 2 + rng.below(2)) % 16]
        })
        .collect::<Vec<_>>();
    let rel = Relation::from_rows(schema, data).unwrap();
    let xy = mhist(&rel, &[0, 1], 60);
    let yz = mhist(&rel, &[1, 2], 40);
    for tree in [&xy, &yz] {
        assert!(tree.leaves().iter().any(|&(_, f)| f == 0.0), "operand has a zero bucket");
    }
    let xyz = xy.product(&yz).unwrap();
    assert_pinned(
        "xy x yz",
        &xyz,
        &Pin { buckets: 333, total: 0x40af33dad94331a1, leaves_hash: 0xbea903e9cd79fbc0 },
    );
    assert_pinned(
        "yz x xy",
        &yz.product(&xy).unwrap(),
        &Pin { buckets: 340, total: 0x40ad2486e3c0254e, leaves_hash: 0xc5ffed6b36e83b9b },
    );
    assert_pinned(
        "xy x yz onto {x, z}",
        &xyz.project(&attrs(&[0, 2])).unwrap(),
        &Pin { buckets: 200, total: 0x40af33dad94331a5, leaves_hash: 0xdddee6ed95d0889b },
    );
}

#[test]
fn disjoint_and_chained_products_are_pinned() {
    let rel = relation(20_000, 0x00c0_ffee);
    let ab = mhist(&rel, &[0, 1], 120);
    let bc = mhist(&rel, &[1, 2], 120);
    let cd = mhist(&rel, &[2, 3], 80);
    let d = mhist(&rel, &[3], 6);
    assert_pinned(
        "ab x d (disjoint)",
        &ab.product(&d).unwrap(),
        &Pin { buckets: 720, total: 0x40d387fffffffffb, leaves_hash: 0x42ca03599cc24cda },
    );
    let abc = ab.product(&bc).unwrap();
    let abcd = abc.product(&cd).unwrap();
    assert_pinned(
        "(ab x bc) x cd",
        &abcd,
        &Pin { buckets: 34580, total: 0x40d37997ac54cb69, leaves_hash: 0x93ffaedbd547d791 },
    );
    assert_pinned(
        "(ab x bc) x cd onto {a, d}",
        &abcd.project(&attrs(&[0, 3])).unwrap(),
        &Pin { buckets: 588, total: 0x40d37997ac54cb52, leaves_hash: 0x8346d2e3a323599f },
    );
    assert_pinned(
        "ab x bc onto {a, c}",
        &abc.project(&attrs(&[0, 2])).unwrap(),
        &Pin { buckets: 10290, total: 0x40d3880000000007, leaves_hash: 0xc187dc02e0b44cc5 },
    );
}

#[test]
fn projections_dropping_split_attributes_are_pinned() {
    let rel = relation(20_000, 0x5eed);
    // This tree splits on all three of its attributes.
    let abd = mhist(&rel, &[0, 1, 3], 400);
    assert_pinned(
        "abd onto {a}",
        &abd.project(&attrs(&[0])).unwrap(),
        &Pin { buckets: 194, total: 0x40d387fffffffffc, leaves_hash: 0x5a64b9655aad0fb0 },
    );
    assert_pinned(
        "abd onto {b, d}",
        &abd.project(&attrs(&[1, 3])).unwrap(),
        &Pin { buckets: 23, total: 0x40d3880000000000, leaves_hash: 0x877a0476870a9268 },
    );
    assert_pinned(
        "abd onto {a, d}",
        &abd.project(&attrs(&[0, 3])).unwrap(),
        &Pin { buckets: 1153, total: 0x40d388000000000d, leaves_hash: 0x9a5672ada0ecdee9 },
    );
}
