//! Golden pin for forward model selection on fixed Census samples.
//!
//! Every entropy that selection reads comes from counting marginals over
//! the relation's rows. These expectations were recorded from the per-row
//! `BTreeMap` counter that the packed-code counting kernel replaced, so
//! any drift in a count, a cell order or a summation order shows up here
//! as a different edge, a different divergence bit pattern, or a
//! different number of entropy computations.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests assert by panicking

use dbhist::data::census;
use dbhist::distribution::{AttrId, Relation};
use dbhist::model::selection::{ForwardSelector, SelectionConfig};

/// Runs selection and compares the initial divergence, every accepted
/// `(u, v, divergence_after)` step (divergences as `f64` bit patterns) and
/// the number of entropy computations.
fn assert_selection(
    rel: &Relation,
    config: SelectionConfig,
    initial_divergence: u64,
    steps: &[(AttrId, AttrId, u64)],
    entropy_computations: usize,
) {
    let result = ForwardSelector::new(rel, config).run();
    assert_eq!(
        result.initial_divergence.to_bits(),
        initial_divergence,
        "initial divergence {}",
        result.initial_divergence
    );
    let actual: Vec<(AttrId, AttrId, u64)> = result
        .steps
        .iter()
        .map(|s| (s.candidate.u, s.candidate.v, s.divergence_after.to_bits()))
        .collect();
    assert_eq!(actual, steps);
    assert_eq!(result.entropy_computations, entropy_computations);
}

#[test]
fn census_1_selection_is_pinned() {
    let rel = census::census_data_set_1_with(20_000, 0x005e_1ec7);
    assert_selection(
        &rel,
        SelectionConfig::default(),
        0x4012_c810_f7b8_d36a,
        &[
            (0, 4, 0x4011_9c6e_a4b5_5212),
            (1, 4, 0x400e_6a9e_9274_b02c),
            (3, 4, 0x400a_f131_4afa_ea94),
            (2, 4, 0x4007_7adb_c01c_dac0),
        ],
        23,
    );
}

#[test]
fn census_2_selection_is_pinned() {
    let rel = census::census_data_set_2_with(15_000, 0x005e_1ec8);
    assert_selection(
        &rel,
        SelectionConfig::default(),
        0x4035_8e7a_27a8_c7c4,
        &[
            (0, 4, 0x4035_4401_9350_4a96),
            (1, 4, 0x4034_a955_b861_c53e),
            (2, 4, 0x4034_3b1c_3c8c_9a95),
            (3, 4, 0x4033_cdc0_a1da_f7ee),
            (6, 8, 0x4031_9239_41ca_f2f8),
            (5, 8, 0x4030_d58c_2033_8676),
            (9, 10, 0x402d_4bf5_9300_eb3c),
            (5, 9, 0x402c_f7f6_727b_21e0),
            (2, 11, 0x402c_e461_3787_a6aa),
            (0, 8, 0x402c_e334_6844_b244),
        ],
        80,
    );
}

/// Triangle cliques (`k_max = 3`) reach 3- and 4-attribute marginals.
#[test]
fn census_2_triangle_selection_is_pinned() {
    let rel = census::census_data_set_2_with(15_000, 0x005e_1ec8);
    assert_selection(
        &rel,
        SelectionConfig { k_max: 3, ..SelectionConfig::default() },
        0x4035_8e7a_27a8_c7c4,
        &[
            (0, 4, 0x4035_4401_9350_4a96),
            (1, 4, 0x4034_a955_b861_c53e),
            (2, 4, 0x4034_3b1c_3c8c_9a95),
            (3, 4, 0x4033_cdc0_a1da_f7ee),
            (6, 8, 0x4031_9239_41ca_f2f8),
            (5, 8, 0x4030_d58c_2033_8676),
            (9, 10, 0x402d_4bf5_9300_eb3c),
            (0, 1, 0x402d_0fd5_e813_d0b0),
            (0, 2, 0x402c_d66a_b481_5310),
            (0, 3, 0x402c_9d6c_ce39_7346),
            (5, 9, 0x402c_496d_adb3_a9ea),
            (2, 11, 0x402c_35d8_72c0_2eb4),
            (0, 8, 0x402c_34ab_a37d_3a4e),
        ],
        97,
    );
}
