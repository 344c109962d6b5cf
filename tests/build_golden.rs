//! Golden pin for whole synopsis builds on fixed Census samples.
//!
//! Each case builds a synopsis with the default configuration (model
//! selection plus `IncrementalGains` allocation) and compares the number
//! of funded splits, the bucket count of every clique factor, the storage
//! bytes, a CRC-32 of the saved snapshot bytes, and the bit patterns of
//! the estimates on a fixed query set, twice: through the Fig. 3
//! interpreter (`estimate_mass_interpreted`) and as served (the
//! range-restricted evaluator).
//! Any change to split selection, the error bookkeeping that ranks splits,
//! the allocator's tie-breaking or the factor encodings shows up in the
//! interpreted estimates; a change to how queries are served shows up in
//! the served ones.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests assert by panicking

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use dbhist::core::builder::{FactorKind, SynopsisBuilder};
use dbhist::core::marginal::estimate_mass_interpreted;
use dbhist::core::{Query, SelectivityEstimator, Synopsis};
use dbhist::data::census;
use dbhist::data::workload::{Workload, WorkloadConfig};
use dbhist::distribution::{AttrSet, Relation, Schema};
use dbhist::persist::crc32;

/// What one build is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    splits_funded: usize,
    buckets: Vec<usize>,
    storage_bytes: usize,
    snapshot_crc: u32,
    estimates: Vec<u64>,
    served: Vec<u64>,
}

fn scratch_path() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("build_golden_{}_{n}.dbh", std::process::id()))
}

/// A fixed query set: the lower half of every attribute's domain, a
/// two-attribute box on each adjacent attribute pair, and the full box.
fn queries(rel: &Relation) -> Vec<Query> {
    let schema = rel.schema();
    let arity = schema.arity() as u16;
    let domain = |a: u16| schema.attr(a).unwrap().domain_size;
    let mut out: Vec<Query> = (0..arity).map(|a| Query::range(a, 0, (domain(a) - 1) / 2)).collect();
    for a in 0..arity - 1 {
        let (da, db) = (domain(a), domain(a + 1));
        out.push(Query::range(a, da / 4, (3 * da) / 4).and(a + 1, 0, db / 3));
    }
    out.push((0..arity).fold(Query::all(), |q, a| q.and(a, 0, domain(a) - 1)));
    out
}

/// The Fig. 3 interpreter's estimate of `query` over the synopsis's
/// factors.
fn interpreted(synopsis: &Synopsis, query: &Query) -> f64 {
    let target = AttrSet::from_ids(query.ranges().iter().map(|r| r.0));
    let estimate = match synopsis {
        Synopsis::Mhist(db) => {
            estimate_mass_interpreted(db.model().junction_tree(), db.factors(), &target, query)
        }
        Synopsis::Grid(db) => {
            estimate_mass_interpreted(db.model().junction_tree(), db.factors(), &target, query)
        }
        Synopsis::Wavelet(db) => {
            estimate_mass_interpreted(db.model().junction_tree(), db.factors(), &target, query)
        }
    };
    estimate.unwrap()
}

fn pin(rel: &Relation, kind: FactorKind, budget: usize) -> Pin {
    let synopsis = SynopsisBuilder::new(rel).budget(budget).factor(kind).build().unwrap();
    let buckets = match &synopsis {
        Synopsis::Mhist(db) => db.factors().iter().map(|f| f.bucket_count()).collect(),
        Synopsis::Grid(db) => db.factors().iter().map(|f| f.bucket_count()).collect(),
        Synopsis::Wavelet(_) => unreachable!("only MHIST and grid builds are pinned"),
    };
    let path = scratch_path();
    synopsis.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    Pin {
        splits_funded: synopsis.build_trace().splits_funded,
        buckets,
        storage_bytes: synopsis.storage_bytes(),
        snapshot_crc: crc32(&bytes),
        estimates: queries(rel).iter().map(|q| interpreted(&synopsis, q).to_bits()).collect(),
        served: queries(rel).iter().map(|q| synopsis.estimate(q).to_bits()).collect(),
    }
}

fn assert_pinned(rel: &Relation, kind: FactorKind, budget: usize, expected: &Pin) {
    assert_eq!(&pin(rel, kind, budget), expected, "{kind:?} at {budget} bytes");
}

#[test]
fn census_1_mhist_3kb_is_pinned() {
    let rel = census::census_data_set_1_with(20_000, 0x005e_1ec7);
    assert_pinned(
        &rel,
        FactorKind::Mhist,
        3_000,
        &Pin {
            splits_funded: 328,
            buckets: vec![20, 91, 56, 76, 90],
            storage_bytes: 2997,
            snapshot_crc: 0x5a5e_f638,
            estimates: vec![
                0x40d0_49c0_0000_0000,
                0x40d2_bcce_38e3_8e39,
                0x40d2_8a4d_dced_6830,
                0x40d2_b650_ec0c_5796,
                0x40cd_4b00_0000_0000,
                0x40c3_f980_0000_0000,
                0x40ba_354b_65f8_f2a8,
                0x408d_dfd0_8c33_b592,
                0x4091_9979_46c4_80e0,
                0x4057_693e_f368_eb03,
                0x4088_c3c5_d638_8659,
                0x40d3_8800_0000_0000,
            ],
            served: vec![
                0x40d0_49c0_0000_0000,
                0x40d2_bcce_38e3_8e39,
                0x40d2_8a4d_dced_6830,
                0x40d2_b650_ec0c_5796,
                0x40cd_4b00_0000_0000,
                0x40c3_f980_0000_0000,
                0x40ba_354b_65f8_f2a8,
                0x408d_dfd0_8c33_b592,
                0x4091_9979_46c4_80e0,
                0x4057_693e_f368_eb03,
                0x4088_c3c5_d638_8659,
                0x40d3_8800_0000_0000,
            ],
        },
    );
}

#[test]
fn census_1_grid_3kb_is_pinned() {
    let rel = census::census_data_set_1_with(20_000, 0x005e_1ec7);
    assert_pinned(
        &rel,
        FactorKind::Grid,
        3_000,
        &Pin {
            splits_funded: 171,
            buckets: vec![20, 145, 145, 160, 66],
            storage_bytes: 2999,
            snapshot_crc: 0x2ae2_2537,
            estimates: vec![
                0x40d0_49c0_0000_0000,
                0x40d2_bda3_8e38_e38e,
                0x40d2_c1d5_5555_5555,
                0x40d2_bfe4_9249_2492,
                0x40cd_4b00_0000_0000,
                0x40c3_f980_0000_0000,
                0x40ba_4318_5ae0_e1f4,
                0x408e_fb9e_7942_f781,
                0x4090_46f8_db57_200e,
                0x4059_5333_3333_3333,
                0x4088_c5c8_16f0_068e,
                0x40d3_87ff_ffff_fef8,
            ],
            served: vec![
                0x40d0_49c0_0000_0000,
                0x40d2_bda3_8e38_e38f,
                0x40d2_c1d5_5555_5555,
                0x40d2_bfe4_9249_2493,
                0x40cd_4b00_0000_0000,
                0x40c3_f980_0000_0000,
                0x40ba_4318_5ae0_e1f0,
                0x408e_fb9e_7942_f783,
                0x4090_46f8_db57_200a,
                0x4059_5333_3333_3333,
                0x4088_c5c8_16f0_068e,
                0x40d3_8800_0000_0000,
            ],
        },
    );
}

#[test]
fn census_2_mhist_20kb_is_pinned() {
    let rel = census::census_data_set_2_with(15_000, 0x005e_1ec8);
    assert_pinned(
        &rel,
        FactorKind::Mhist,
        20_000,
        &Pin {
            splits_funded: 2211,
            buckets: vec![20, 65, 240, 119, 192, 90, 355, 759, 190, 44, 148],
            storage_bytes: 19998,
            snapshot_crc: 0x1739_e077,
            estimates: vec![
                0x40c8_5980_0000_0000,
                0x40cc_2c80_0000_0000,
                0x40cc_21e9_81fc_9820,
                0x40cc_2406_840c_4bae,
                0x40c6_0100_0000_0000,
                0x40be_8224_cb95_47b5,
                0x40b7_b227_1304_756e,
                0x40c8_2c00_0000_0000,
                0x40b8_9400_0000_0000,
                0x40c6_2707_911e_2433,
                0x40c3_cef2_1ef6_814c,
                0x40bd_3802_7027_0271,
                0x40b3_e815_e9cf_07b4,
                0x4088_4e30_0798_9223,
                0x4089_fea3_7f34_4339,
                0x4054_49b5_0d17_edf0,
                0x4083_d524_6847_1d9e,
                0x4097_c3d7_596f_e148,
                0x409b_b0d6_3c68_e4be,
                0x40a0_9abc_c1e0_98eb,
                0x40bc_c5a4_8c63_86f2,
                0x4095_6016_dcd9_dd60,
                0x40a8_23df_7cef_0c5d,
                0x40cd_4c00_0000_0000,
            ],
            served: vec![
                0x40c8_5980_0000_0000,
                0x40cc_2c80_0000_0000,
                0x40cc_21e9_81fc_9820,
                0x40cc_2406_840c_4bae,
                0x40c6_0100_0000_0000,
                0x40be_8224_cb95_47b3,
                0x40b7_b227_1304_756e,
                0x40c8_2c00_0000_0000,
                0x40b8_9400_0000_0000,
                0x40c6_2707_911e_2433,
                0x40c3_cef2_1ef6_814b,
                0x40bd_3802_7027_0270,
                0x40b3_e815_e9cf_07b3,
                0x4088_4e30_0798_9220,
                0x4089_fea3_7f34_4336,
                0x4054_49b5_0d17_edf0,
                0x4083_d524_6847_1da2,
                0x4097_c3d7_596f_e149,
                0x409b_b0d6_3c68_e4be,
                0x40a0_9abc_c1e0_98eb,
                0x40bc_d2ca_5263_fc87,
                0x4095_6016_dcd9_dd60,
                0x40aa_3fcc_c361_a5f9,
                0x40cd_4bff_ffff_fffd,
            ],
        },
    );
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A deterministic 40,000-row table over six domain-64 attributes: two
/// strongly correlated pairs `(a0, a1)` and `(a2, a3)` plus two
/// independent attributes. The wide domains give the clique marginals
/// thousands of cells, so a 64 KB budget funds thousands of splits.
fn correlated_pairs() -> Relation {
    const DOMAIN: u32 = 64;
    let mut state = 0xB11D_5EEDu64;
    let schema = Schema::new((0..6).map(|i| (format!("a{i}"), DOMAIN))).unwrap();
    let rows: Vec<Vec<u32>> = (0..40_000)
        .map(|_| {
            let base_a = (xorshift(&mut state) % u64::from(DOMAIN)) as u32;
            let base_b = (xorshift(&mut state) % u64::from(DOMAIN)) as u32;
            let noise = |state: &mut u64, v: u32| {
                if xorshift(state).is_multiple_of(4) {
                    (v + (xorshift(state) % 3) as u32) % DOMAIN
                } else {
                    v
                }
            };
            vec![
                base_a,
                noise(&mut state, base_a),
                base_b,
                noise(&mut state, base_b),
                (xorshift(&mut state) % u64::from(DOMAIN)) as u32,
                (xorshift(&mut state) % u64::from(DOMAIN)) as u32,
            ]
        })
        .collect();
    Relation::from_rows(schema, rows).unwrap()
}

/// An allocation-heavy MHIST build: 64 KB over the correlated-pairs
/// table funds 7276 splits, and the summed estimates of a fixed
/// 16-query, 3-attribute workload print as 47638.857355 through the
/// Fig. 3 interpreter and as 47876.386202 served.
#[test]
fn correlated_pairs_mhist_64kb_is_pinned() {
    let rel = correlated_pairs();
    let workload = Workload::generate(
        &rel,
        WorkloadConfig { dimensionality: 3, queries: 16, min_count: 50, seed: 0xB11D },
    );
    let synopsis = SynopsisBuilder::new(&rel).budget(64 * 1024).build().unwrap();
    let queries: Vec<Query> =
        workload.queries.iter().map(|q| Query::from(q.ranges.as_slice())).collect();
    let checksum: f64 = queries.iter().map(|q| interpreted(&synopsis, q)).sum();
    let served: f64 = queries.iter().map(|q| synopsis.estimate(q)).sum();
    assert_eq!(synopsis.build_trace().splits_funded, 7276);
    assert_eq!(checksum.to_bits(), 0x40e7_42db_6f73_3ed4, "checksum {checksum:.6}");
    assert_eq!(served.to_bits(), 0x40e7_608c_5bc4_79d8, "served {served:.6}");
}
