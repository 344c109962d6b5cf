//! Property tests: marginals counted from packed row codes equal a plain
//! per-row `BTreeMap` count, cell for cell and bit for bit.
//!
//! The reference below is the counter the packed-code kernel replaced: it
//! projects each row onto the attribute set and bumps a `BTreeMap` entry.
//! `Distribution::from_relation` and `Columns::marginal` (the byte-column
//! counter a synopsis build uses) must reproduce its cells, counts, total
//! and entropy bits, and `Relation::marginal_entropy`,
//! `Columns::marginal_entropy` and `EntropyCache` its entropy bits, on
//! random schemas chosen to reach every path of the kernel: dense and
//! sorted counting on both sides of the boundary, `u128` codes for code
//! spaces above 2^64, rank compression of code spaces above 2^128,
//! domain-size-1 attributes, zero rows and single attributes.
//!
//! An `EntropyCache` that counted every pair up front
//! (`EntropyCache::count_pairs`, singletons read off the pair tables)
//! must give every singleton and pair the bits, and report the
//! computations and hits, of a cache that counts each set on its first
//! read.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests assert by panicking

use std::collections::BTreeMap;

use dbhist_distribution::{AttrId, AttrSet, Columns, Distribution, EntropyCache, Relation, Schema};
use proptest::prelude::*;

/// Per-row `BTreeMap` counts of `rel` projected onto `attrs`.
fn reference_counts(rel: &Relation, attrs: &AttrSet) -> BTreeMap<Vec<u32>, u64> {
    let mut cells = BTreeMap::new();
    for row in rel.rows() {
        let key: Vec<u32> = attrs.iter().map(|a| row[usize::from(a)]).collect();
        *cells.entry(key).or_insert(0) += 1;
    }
    cells
}

/// `log N − (1/N) Σ f log f` over the reference cells in key order.
fn reference_entropy(total: f64, cells: &BTreeMap<Vec<u32>, u64>) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for &count in cells.values() {
        let f = count as f64;
        sum += f * f.ln();
    }
    total.ln() - sum / total
}

/// Asserts the counting kernel agrees exactly with the reference on one
/// attribute set; returns a description of the first mismatch.
fn check_subset(rel: &Relation, attrs: &AttrSet) -> Result<(), String> {
    let reference = reference_counts(rel, attrs);
    let total = rel.row_count() as f64;
    let dist = Distribution::from_relation(rel, attrs).map_err(|e| e.to_string())?;
    let cells: Vec<(Vec<u32>, f64)> = dist.iter().map(|(k, f)| (k.to_vec(), f)).collect();
    let expected: Vec<(Vec<u32>, f64)> =
        reference.iter().map(|(k, &count)| (k.clone(), count as f64)).collect();
    if cells != expected {
        return Err(format!("cells differ over {attrs:?}"));
    }
    if dist.total().to_bits() != total.to_bits() {
        return Err(format!("total {} != {total} over {attrs:?}", dist.total()));
    }
    let h = reference_entropy(total, &reference);
    if dist.entropy().to_bits() != h.to_bits() {
        return Err(format!("Distribution::entropy {} != {h} over {attrs:?}", dist.entropy()));
    }
    let direct = rel.marginal_entropy(attrs).map_err(|e| e.to_string())?;
    if direct.to_bits() != h.to_bits() {
        return Err(format!("Relation::marginal_entropy {direct} != {h} over {attrs:?}"));
    }
    // The cache defines the empty set's entropy as exactly 0.
    let cached = EntropyCache::new(rel).entropy(attrs);
    if !attrs.is_empty() && cached.to_bits() != h.to_bits() {
        return Err(format!("EntropyCache::entropy {cached} != {h} over {attrs:?}"));
    }
    let columns = Columns::new(rel);
    let counted = columns.marginal(attrs).map_err(|e| e.to_string())?;
    let counted_cells: Vec<(Vec<u32>, f64)> =
        counted.iter().map(|(k, f)| (k.to_vec(), f)).collect();
    if counted_cells != expected || counted.total().to_bits() != total.to_bits() {
        return Err(format!("Columns::marginal differs over {attrs:?}"));
    }
    let from_columns = columns.marginal_entropy(attrs).map_err(|e| e.to_string())?;
    if from_columns.to_bits() != h.to_bits() {
        return Err(format!("Columns::marginal_entropy {from_columns} != {h} over {attrs:?}"));
    }
    Ok(())
}

/// Asserts a cache that counted every pair up front agrees with one that
/// counts each set on first read: every singleton's and pair's entropy
/// bits (read twice), then the computations and hits.
fn check_pairs_counted_once(rel: &Relation) -> Result<(), String> {
    let arity = rel.schema().arity() as AttrId;
    let sets: Vec<AttrSet> = (0..arity)
        .flat_map(|a| {
            std::iter::once(AttrSet::singleton(a))
                .chain((a + 1..arity).map(move |b| AttrSet::from_ids([a, b])))
        })
        .collect();
    let mut per_set = EntropyCache::new(rel);
    let mut counted = EntropyCache::new(rel);
    counted.count_pairs();
    for attrs in sets.iter().chain(&sets) {
        let (h, expected) = (counted.entropy(attrs), per_set.entropy(attrs));
        if h.to_bits() != expected.to_bits() {
            return Err(format!("pairs counted once: {h} != {expected} over {attrs:?}"));
        }
    }
    let counters = |c: &EntropyCache<'_>| (c.computations(), c.hits());
    if counters(&counted) != counters(&per_set) {
        return Err(format!(
            "pairs counted once: (computations, hits) {:?} != {:?}",
            counters(&counted),
            counters(&per_set)
        ));
    }
    Ok(())
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A random domain size from one of four classes: 1, small, mid, or near
/// `u32::MAX` (three of those already exceed a 64-bit code space).
fn random_domain(state: &mut u64) -> u32 {
    match xorshift(state) % 4 {
        0 => 1,
        1 => 2 + (xorshift(state) % 15) as u32,
        2 => 200 + (xorshift(state) % 400) as u32,
        _ => u32::MAX - (xorshift(state) % 1024) as u32,
    }
}

/// A random relation: rows draw each value from a handful of distinct
/// values per attribute (spread over the whole domain) so that even huge
/// code spaces see repeated cells.
fn random_relation(seed: u64, arity: usize, rows: usize) -> Relation {
    let mut state = seed | 1;
    let domains: Vec<u32> = (0..arity).map(|_| random_domain(&mut state)).collect();
    let schema =
        Schema::new(domains.iter().enumerate().map(|(i, &d)| (format!("a{i}"), d))).unwrap();
    let data: Vec<Vec<u32>> = (0..rows)
        .map(|_| {
            domains
                .iter()
                .map(|&d| {
                    let pick = xorshift(&mut state) % 5;
                    (u64::from(d - 1) * pick / 4) as u32
                })
                .collect()
        })
        .collect();
    Relation::from_rows(schema, data).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every subset of a random schema (the empty set and the full joint
    /// included) counts identically to the reference.
    #[test]
    fn packed_counts_match_btreemap_reference(
        seed in any::<u64>(),
        arity in 1usize..6,
        rows in 0usize..300,
    ) {
        let rel = random_relation(seed, arity, rows);
        for mask in 0u32..(1 << arity) {
            let attrs = AttrSet::from_ids((0..arity as AttrId).filter(|&a| mask & (1 << a) != 0));
            prop_assert_eq!(check_subset(&rel, &attrs), Ok(()));
        }
        prop_assert_eq!(check_pairs_counted_once(&rel), Ok(()));
        // Domains of at most 256 values have byte columns, so the cache
        // reads every pair and singleton off pair tables counted up front.
        prop_assert_eq!(check_pairs_counted_once(&byte_relation(seed, arity, rows)), Ok(()));
    }
}

/// Like [`random_relation`], over domains of 1 to 256 values.
fn byte_relation(seed: u64, arity: usize, rows: usize) -> Relation {
    let mut state = seed | 1;
    let domains: Vec<u32> = (0..arity)
        .map(|_| match xorshift(&mut state) % 3 {
            0 => 1,
            1 => 2 + (xorshift(&mut state) % 15) as u32,
            _ => 200 + (xorshift(&mut state) % 57) as u32,
        })
        .collect();
    let schema =
        Schema::new(domains.iter().enumerate().map(|(i, &d)| (format!("a{i}"), d))).unwrap();
    let data: Vec<Vec<u32>> = (0..rows)
        .map(|_| domains.iter().map(|&d| (xorshift(&mut state) % u64::from(d)) as u32).collect())
        .collect();
    Relation::from_rows(schema, data).unwrap()
}

/// Pairs counted up front agree with per-set counting, and every
/// singleton and pair with the reference, on byte columns at the edges:
/// zero rows, a one-attribute schema, a domain-size-1 attribute, and
/// cells holding 4095, 4096 and 4097 rows, either side of the bound below
/// which `c · ln c` comes from a table.
#[test]
fn pairs_counted_once_on_the_edges() {
    let relation = |domains: &[u32], data: Vec<Vec<u32>>| {
        let schema =
            Schema::new(domains.iter().enumerate().map(|(i, &d)| (format!("a{i}"), d))).unwrap();
        Relation::from_rows(schema, data).unwrap()
    };
    let zero_rows = relation(&[3, 1, 256], Vec::new());
    let one_attribute = relation(&[5], (0..40).map(|i| vec![i % 5]).collect());
    let single_value = relation(&[1, 4, 7], (0..90).map(|i| vec![0, i % 4, i % 7]).collect());
    let around_the_bound = relation(
        &[3, 3, 2],
        (0..3u32).flat_map(|v| (0..4_095 + v).map(move |i| vec![v, v, i % 2])).collect(),
    );
    for rel in [zero_rows, one_attribute, single_value, around_the_bound] {
        check_pairs_counted_once(&rel).unwrap();
        let arity = rel.schema().arity() as AttrId;
        for a in 0..arity {
            check_subset(&rel, &AttrSet::singleton(a)).unwrap();
            for b in a + 1..arity {
                check_subset(&rel, &AttrSet::from_ids([a, b])).unwrap();
            }
        }
    }
}

#[test]
fn zero_rows_count_nothing() {
    let schema =
        Schema::new(vec![("a", 3), ("b", u32::MAX), ("c", u32::MAX), ("d", u32::MAX)]).unwrap();
    let rel = Relation::from_rows(schema, Vec::<Vec<u32>>::new()).unwrap();
    for attrs in [AttrSet::empty(), AttrSet::singleton(0), AttrSet::from_ids([0, 1, 2, 3])] {
        check_subset(&rel, &attrs).unwrap();
        assert_eq!(rel.marginal(&attrs).unwrap().support_size(), 0);
    }
}

#[test]
fn empty_attribute_set_is_one_cell_of_every_row() {
    let rel = random_relation(7, 3, 50);
    let d = rel.marginal(&AttrSet::empty()).unwrap();
    assert_eq!(d.support_size(), 1);
    assert_eq!(d.frequency(&[]), 50.0);
    check_subset(&rel, &AttrSet::empty()).unwrap();
}

/// A single attribute whose domain sits on either side of the dense
/// counting boundary `max(rows, 2^16)`, for row counts below and above
/// `2^16`. Its domain has no byte column, and its pair's space is past
/// the boundary too, so a cache asked to count pairs up front counts
/// every set on first read.
#[test]
fn dense_and_sorted_counting_agree_across_the_boundary() {
    for rows in [1_000usize, 70_000] {
        let boundary = rows.max(1 << 16) as u32;
        for domain in [boundary - 1, boundary, boundary + 1] {
            let schema = Schema::new(vec![("x", domain), ("y", 3)]).unwrap();
            let data: Vec<Vec<u32>> = (0..rows as u32)
                .map(|i| vec![(i.wrapping_mul(2_654_435_761) >> 7) % domain, i % 3])
                .collect();
            let rel = Relation::from_rows(schema, data).unwrap();
            for attrs in [AttrSet::singleton(0), AttrSet::from_ids([0, 1])] {
                check_subset(&rel, &attrs).unwrap();
            }
            check_pairs_counted_once(&rel).unwrap();
        }
    }
}

/// `EntropyCache` counts small sets from a byte-per-value copy when every
/// domain has at most 256 values, and from the rows otherwise.
#[test]
fn byte_columns_cover_domains_up_to_256() {
    for wide in [256u32, 257] {
        let schema = Schema::new(vec![("x", wide), ("y", 3), ("z", 256)]).unwrap();
        let data: Vec<Vec<u32>> =
            (0..5_000u32).map(|i| vec![(i * 7919) % wide, i % 3, 255 - (i * 31) % 256]).collect();
        let rel = Relation::from_rows(schema, data).unwrap();
        for mask in 1u32..8 {
            let attrs = AttrSet::from_ids((0..3).filter(|&a| mask & (1 << a) != 0));
            check_subset(&rel, &attrs).unwrap();
        }
    }
}

/// Code spaces above 2^64 count as `u128` codes, and the full set's,
/// above 2^128, folds its leading attributes into dense ranks; both count
/// and decode exactly.
#[test]
fn rank_compression_preserves_cells_and_order() {
    let domains = [u32::MAX, 1, 7, u32::MAX - 1, u32::MAX, 2, u32::MAX, 13];
    let schema =
        Schema::new(domains.iter().enumerate().map(|(i, &d)| (format!("a{i}"), d))).unwrap();
    let mut state = 0x00C0_FFEE;
    let data: Vec<Vec<u32>> = (0..2_000)
        .map(|_| {
            domains
                .iter()
                .map(|&d| (xorshift(&mut state) % u64::from(d.min(9))) as u32 * (d / 9).max(1))
                .collect()
        })
        .collect();
    let rel = Relation::from_rows(schema, data).unwrap();
    assert_eq!(rel.schema().state_space(&rel.schema().all_attrs()), u64::MAX);
    for attrs in [
        rel.schema().all_attrs(),
        AttrSet::from_ids([0, 3, 4]),
        AttrSet::from_ids([0, 3, 4, 6]),
        AttrSet::from_ids([1, 2, 5, 7]),
    ] {
        check_subset(&rel, &attrs).unwrap();
    }
}

/// All 12 singletons, all 66 pairs and the 12-attribute joint (65.2 bits
/// of code space, counted as `u128` codes) of a Census-2 sample.
#[test]
fn census_2_singletons_pairs_and_joint() {
    let rel = dbhist_data::census::census_data_set_2_with(5_000, 0x00C0_0217);
    let n = rel.schema().arity() as AttrId;
    assert_eq!(n, 12);
    for a in 0..n {
        check_subset(&rel, &AttrSet::singleton(a)).unwrap();
        for b in a + 1..n {
            check_subset(&rel, &AttrSet::from_ids([a, b])).unwrap();
        }
    }
    check_subset(&rel, &rel.schema().all_attrs()).unwrap();
}
