//! A synopsis build runs forward selection's loop without its divergence
//! report (`ForwardSelector::select`), so it never counts the full joint's
//! entropy `H(V)`. The report (`run`, `step`) differs only by that one
//! computation: the same model, and divergences with the same bits
//! whichever of them reads them.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests assert by panicking

use dbhist::core::SynopsisBuilder;
use dbhist::data::census;
use dbhist::model::selection::{
    ForwardSelector, SelectionAlgorithm, SelectionConfig, SelectionStep,
};

#[test]
fn builds_select_the_reported_model_without_the_joint() {
    let rel = census::census_data_set_1_with(20_000, 0x005e_1ec7);
    let report = ForwardSelector::new(&rel, SelectionConfig::default()).run();
    let synopsis = SynopsisBuilder::new(&rel).budget(3 * 1024).build().unwrap();
    assert_eq!(synopsis.model().graph(), report.model.graph());
    let trace = synopsis.build_trace();
    assert_eq!(trace.selection_steps, report.steps.len());
    assert_eq!(trace.peak_candidates, report.peak_candidates);
    assert_eq!(trace.entropy_computations + 1, report.entropy_computations);

    let selection = ForwardSelector::new(&rel, SelectionConfig::default()).select();
    assert_eq!(selection.model.graph(), report.model.graph());
    assert_eq!(selection.steps, report.steps.len());
    assert_eq!(selection.entropy_computations, trace.entropy_computations);
}

#[test]
fn step_and_run_report_the_same_divergence_bits() {
    let rel = census::census_data_set_1_with(20_000, 0x005e_1ec7);
    for algorithm in [SelectionAlgorithm::Efficient, SelectionAlgorithm::Naive] {
        let config = SelectionConfig { algorithm, ..SelectionConfig::default() };
        let report = ForwardSelector::new(&rel, config).run();
        let mut selector = ForwardSelector::new(&rel, config);
        assert_eq!(
            selector.divergence().to_bits(),
            report.initial_divergence.to_bits(),
            "{algorithm:?}"
        );
        let bits = |s: &SelectionStep| (s.candidate.u, s.candidate.v, s.divergence_after.to_bits());
        let stepped: Vec<_> = std::iter::from_fn(|| selector.step()).map(|s| bits(&s)).collect();
        let ran: Vec<_> = report.steps.iter().map(bits).collect();
        assert_eq!(stepped, ran, "{algorithm:?}");
        assert!(!stepped.is_empty(), "{algorithm:?} accepted no edge");
    }
}

/// A selection capped at no edge scores no round, so it counts no pair
/// table: only the singletons and the empty separator of the
/// independence model, `arity + 1` entropies.
#[test]
fn no_round_counts_no_pair() {
    let rel = census::census_data_set_1_with(20_000, 0x005e_1ec7);
    let arity = rel.schema().arity();
    let config = SelectionConfig { max_edges: Some(0), ..SelectionConfig::default() };
    let selection = ForwardSelector::new(&rel, config).select();
    assert_eq!(selection.steps, 0);
    assert_eq!(selection.model.edge_count(), 0);
    assert_eq!(selection.entropy_computations, arity + 1);
}
