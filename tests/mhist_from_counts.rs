//! A synopsis build starts each MHIST builder from the clique's counted
//! cells, column by column (`Columns::cell_columns`), where the ingest
//! re-split path and older callers start it from a `Distribution`
//! (`MhistBuilder::new`). Both must make the same builder: driven to
//! saturation on every clique of a selected Census model, each split's
//! gain, each error and the finished tree must have the same bits.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests assert by panicking

use dbhist::data::census;
use dbhist::distribution::{Columns, Relation};
use dbhist::histogram::mhist::MhistBuilder;
use dbhist::histogram::SplitCriterion;
use dbhist::model::selection::{ForwardSelector, SelectionConfig};

/// Drives both builders of every clique of `rel`'s selected model to
/// saturation in lockstep.
fn assert_same_builders(rel: &Relation, config: SelectionConfig, criterion: SplitCriterion) {
    let columns = Columns::new(rel);
    let model = ForwardSelector::with_columns(&columns, config).select().model;
    for clique in model.cliques() {
        let cells = columns.cell_columns(clique).unwrap();
        assert_eq!(cells, rel.marginal(clique).unwrap().cell_columns(), "{clique:?} cells");
        let mut counted = MhistBuilder::from_cells(cells, criterion).unwrap();
        let mut mapped = MhistBuilder::new(&columns.marginal(clique).unwrap(), criterion).unwrap();
        let mut splits = 0;
        loop {
            let gain = |b: &MhistBuilder| b.peek_gain().map(f64::to_bits);
            assert_eq!(gain(&counted), gain(&mapped), "{clique:?} gain before split {splits}");
            assert_eq!(
                counted.error().to_bits(),
                mapped.error().to_bits(),
                "{clique:?} error before split {splits}"
            );
            let split = counted.split_once();
            assert_eq!(split, mapped.split_once(), "{clique:?} split {splits}");
            if !split {
                break;
            }
            splits += 1;
        }
        assert!(splits > 0, "{clique:?} never split");
        let (counted, mapped) = (counted.finish(), mapped.finish());
        assert_eq!(counted, mapped, "{clique:?} finished tree");
        // `Debug` prints each frequency exactly, so the bits agree too.
        assert_eq!(format!("{counted:?}"), format!("{mapped:?}"), "{clique:?} finished tree");
    }
}

#[test]
fn census_1_cliques_match_distribution_builders() {
    let rel = census::census_data_set_1_with(20_000, 0x0C0_FFEE);
    assert_same_builders(&rel, SelectionConfig::default(), SplitCriterion::MaxDiff);
    // Three-attribute cliques, whose code spaces pass the dense bound.
    let k_max_3 = SelectionConfig { k_max: 3, ..SelectionConfig::default() };
    assert_same_builders(&rel, k_max_3, SplitCriterion::VOptimal);
}

#[test]
fn census_2_cliques_match_distribution_builders() {
    let rel = census::census_data_set_2_with(15_000, 0x0C0_FFEE);
    assert_same_builders(&rel, SelectionConfig::default(), SplitCriterion::MaxDiff);
}
