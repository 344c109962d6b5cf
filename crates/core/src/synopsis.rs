//! The DEPENDENCY-BASED histogram synopsis (paper Definition 2.1).
//!
//! [`DbHistogram`] couples a decomposable model `M` (discovered by forward
//! selection) with one clique factor per generator of `M`. Construction
//! (paper §3.1–3.2) proceeds in three phases:
//!
//! 1. **Model selection** — [`dbhist_model::selection::ForwardSelector`]
//!    with the configured heuristic (`DB₁`/`DB₂`), `k_max`, and `θ`.
//! 2. **Clique-histogram construction under a byte budget** — incremental
//!    builders over each generator marginal, funded by
//!    [`crate::alloc::incremental_gains`] or the optimal DP.
//! 3. **Assembly** — the junction tree plus finished histograms.
//!
//! Estimation (paper §3.3) sums the Eq. 2 estimate over the query box by
//! sum-product over the junction tree ([`crate::evaluate`]), building no
//! product and caching nothing. A model whose separators join into a
//! block larger than [`crate::evaluate::MESSAGE_CELL_BUDGET`] is answered
//! by the Fig. 3 interpreter
//! ([`crate::marginal::estimate_mass_interpreted`]) instead; the model's
//! structure and schema make that choice. [`DbHistogram::query_trace`]
//! counts the evaluations.

use std::time::Instant;

use dbhist_distribution::{AttrSet, Columns, Relation};
use dbhist_histogram::{GridHistogram, SplitCriterion, SplitTree};
use dbhist_model::junction::RootedViews;
use dbhist_model::selection::{ForwardSelector, SelectionConfig};
use dbhist_model::DecomposableModel;
use dbhist_telemetry::DriftMonitor;

use crate::alloc::{apply_allocation, error_curve, incremental_gains, optimal_dp};
use crate::build::{GridCliqueBuilder, IncrementalBuilder, MhistCliqueBuilder};
use crate::builder::BuildTrace;
use crate::error::SynopsisError;
use crate::estimator::SelectivityEstimator;
use crate::evaluate::{
    estimate_mass_with, fits, EvalScratch, QueryMetrics, QueryTrace, ScratchPool,
};
use crate::explain::{ExplainReport, QueryPath};
use crate::factor::{ExactFactor, Factor};
use crate::marginal::{compute_marginal_with_stats, estimate_mass_interpreted};
use crate::query::Query;

/// How the storage budget is distributed across clique histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocationStrategy {
    /// The paper's Fig. 2 greedy (default; optimal under diminishing
    /// returns and what the experiments use).
    #[default]
    IncrementalGains,
    /// The exact pseudo-polynomial dynamic program.
    OptimalDp,
}

/// Configuration for building a [`DbHistogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct DbConfig {
    /// Total storage budget in bytes for the clique-histogram collection.
    pub budget_bytes: usize,
    /// Forward-selection configuration (heuristic, `k_max`, `θ`).
    pub selection: SelectionConfig,
    /// Histogram partitioning constraint.
    pub criterion: SplitCriterion,
    /// Budget distribution strategy.
    pub allocation: AllocationStrategy,
}

impl DbConfig {
    /// A configuration with the paper's defaults (`DB₂`, `k_max = 2`,
    /// `θ = 0.90`, MaxDiff, IncrementalGains) and the given byte budget.
    #[must_use]
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            selection: SelectionConfig::default(),
            criterion: SplitCriterion::default(),
            allocation: AllocationStrategy::default(),
        }
    }
}

/// Rolling-window length for per-clique feedback-drift statistics.
pub const DRIFT_WINDOW: usize = dbhist_telemetry::drift::DEFAULT_WINDOW;

/// A DEPENDENCY-BASED histogram synopsis `H = <M, C>`.
#[derive(Debug, Clone)]
pub struct DbHistogram<F: Factor> {
    model: DecomposableModel,
    factors: Vec<F>,
    bytes: usize,
    name: String,
    /// The junction tree's rooted views, derived once per root.
    views: RootedViews,
    /// Whether the model [`fits`] the evaluator (else the interpreter
    /// answers); structure and schema decide it, so it is fixed at
    /// assembly.
    evaluated: bool,
    /// Pooled evaluation buffers.
    scratch: ScratchPool,
    metrics: QueryMetrics,
    trace: BuildTrace,
    drift: DriftMonitor,
}

impl<F: Factor> DbHistogram<F> {
    /// The interaction model `M`.
    #[must_use]
    pub fn model(&self) -> &DecomposableModel {
        &self.model
    }

    /// The clique factors `C`, aligned with `model().cliques()`.
    #[must_use]
    pub fn factors(&self) -> &[F] {
        &self.factors
    }

    /// Mutable access for incremental maintenance, beside the model it
    /// stays aligned with (crate-internal: bucket counts may move, but
    /// the factor set must stay aligned with the model's cliques). The
    /// next estimate reads the updated factors; nothing is cached.
    pub(crate) fn factors_mut(&mut self) -> (&DecomposableModel, &mut [F]) {
        (&self.model, &mut self.factors)
    }

    /// Replaces one clique's factor wholesale (a feedback-triggered
    /// re-split installing fresh bucket boundaries). Returns `false` for
    /// an out-of-range index, leaving the synopsis untouched.
    pub(crate) fn replace_factor(&mut self, clique: usize, factor: F) -> bool {
        match self.factors.get_mut(clique) {
            Some(slot) => {
                *slot = factor;
                true
            }
            None => false,
        }
    }

    /// Snapshot of the cumulative query counters.
    ///
    /// Non-destructive and lock-free: the counters keep accumulating
    /// across calls until [`DbHistogram::reset_query_trace`] zeroes them.
    #[must_use]
    pub fn query_trace(&self) -> QueryTrace {
        self.metrics.snapshot()
    }

    /// Per-phase construction instrumentation recorded when this synopsis
    /// was built (all-zero for synopses assembled from externally
    /// provided factors, e.g. [`DbHistogram::exact_for_model`]).
    #[must_use]
    pub fn build_trace(&self) -> BuildTrace {
        self.trace.clone()
    }

    pub(crate) fn set_trace(&mut self, trace: BuildTrace) {
        self.trace = trace;
    }

    /// Resets the cumulative query counters to zero.
    pub fn reset_query_trace(&self) {
        self.metrics.reset();
    }

    /// Estimates the marginal factor over an arbitrary attribute subset
    /// (paper §3.3.1) by running Fig. 3's `ComputeMarginal`.
    ///
    /// # Errors
    ///
    /// Propagates factor-operation failures and rejects an empty subset
    /// or attributes the model does not cover.
    pub fn marginal(&self, attrs: &AttrSet) -> Result<F, SynopsisError> {
        compute_marginal_with_stats(self.model.junction_tree(), &self.factors, attrs)
            .map(|(f, _)| f)
    }

    /// The query's constrained attributes the schema knows; constraints on
    /// unknown attributes are ignored.
    fn target(&self, query: &Query) -> AttrSet {
        let arity = self.model.schema().arity();
        AttrSet::from_ids(
            query.ranges().iter().map(|&(a, _, _)| a).filter(|&a| usize::from(a) < arity),
        )
    }

    /// The one way a constrained query is answered: range-restricted
    /// sum-product ([`crate::evaluate`]) with pooled scratch, or the Fig. 3
    /// interpreter when the model does not [`fits`]. Returns the estimate
    /// and the scratch holding the evaluation's record (for the
    /// interpreter, Fig. 3's selection); the caller reads the record and
    /// releases the scratch. With `timed`, the record carries each visit's
    /// nanoseconds.
    fn evaluate(
        &self,
        target: &AttrSet,
        query: &Query,
        timed: bool,
    ) -> (Result<f64, SynopsisError>, EvalScratch) {
        // Inert unless telemetry is on.
        let _span = dbhist_telemetry::span!("dbhist_query_estimate_latency_ns");
        if dbhist_telemetry::enabled() {
            dbhist_telemetry::wellknown::wellknown().query_estimates.increment();
        }
        let (tree, schema) = (self.model.junction_tree(), self.model.schema());
        let mut scratch = self.scratch.acquire();
        if !self.evaluated {
            let mass = estimate_mass_interpreted(tree, &self.factors, target, query);
            // Fig. 3's selection is the record. `select` clears it first,
            // so even a failed one never lists an earlier query's cliques.
            let _ = scratch.select(tree, &self.views, schema.arity(), target);
            return (mass, scratch);
        }
        let mass = estimate_mass_with(
            tree,
            &self.views,
            schema,
            &self.factors,
            target,
            query,
            &mut scratch,
            timed,
        );
        self.metrics.evaluated();
        (mass, scratch)
    }

    /// Estimates the selectivity of a conjunctive range predicate,
    /// returning an error instead of panicking on structural failures.
    ///
    /// # Errors
    ///
    /// Propagates factor-operation failures.
    pub fn try_estimate(&self, query: &Query) -> Result<f64, SynopsisError> {
        let target = self.target(query);
        if target.is_empty() {
            // No constrained attribute: the estimate is the table size.
            return Ok(self.factors.first().map_or(0.0, Factor::total));
        }
        let (mass, scratch) = self.evaluate(&target, query, false);
        self.scratch.release(scratch);
        mass
    }

    /// [`DbHistogram::try_estimate`] plus a per-query [`ExplainReport`]
    /// describing how it was resolved, read from the same evaluation's
    /// record. The estimate is bit-identical to the unexplained call:
    /// timing only reads the clock around each visit.
    ///
    /// # Errors
    ///
    /// Propagates factor-operation failures.
    pub fn try_estimate_explained(
        &self,
        query: &Query,
    ) -> Result<(f64, ExplainReport), SynopsisError> {
        let started = Instant::now();
        let target = self.target(query);
        let mut report = ExplainReport {
            path: QueryPath::TableTotal,
            target: format!("{target}"),
            groups: Vec::new(),
            scratch_reused: None,
            total_ns: 0,
            // No constrained attribute: the estimate is the table size and
            // nothing else runs — the report says exactly that.
            estimate: self.factors.first().map_or(0.0, Factor::total),
        };
        if !target.is_empty() {
            let (mass, scratch) = self.evaluate(&target, query, true);
            report.path =
                if self.evaluated { QueryPath::Evaluated } else { QueryPath::Interpreted };
            report.groups = scratch.explain(&target, &self.factors, self.evaluated);
            report.scratch_reused = self.evaluated.then_some(scratch.pooled);
            self.scratch.release(scratch);
            report.estimate = mass?;
        }
        report.total_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Ok((report.estimate, report))
    }

    /// Feeds an observed cardinality back into the synopsis's
    /// accuracy-drift monitor: the query is estimated, the absolute
    /// relative error `|estimate − actual| / actual` is computed (via
    /// [`dbhist_data::metrics::relative_error`]), and the observation is
    /// attributed to the cliques that same evaluation visited (Fig. 3's
    /// selection, which the evaluator walks and the interpreter's EXPLAIN
    /// lists) — blame lands on the factors that produced the estimate, so
    /// feedback-driven re-splitting
    /// ([`crate::ingest::IngestSession::tune`]) targets a clique whose
    /// boundaries the failing queries actually consult. With cliques
    /// `{a,b}` and `{a,c}`, a query on `a` alone reads one of them, and
    /// blaming the other would steer re-splitting toward a factor the
    /// estimate never consulted.
    ///
    /// Non-positive or non-finite `actual` values are ignored (relative
    /// error is undefined at zero), as are queries the synopsis cannot
    /// estimate.
    pub fn record_feedback(&self, query: &Query, actual: f64) {
        if actual <= 0.0 || !actual.is_finite() {
            return;
        }
        let target = self.target(query);
        if !target.is_empty() {
            let (mass, scratch) = self.evaluate(&target, query, false);
            let blamed = mass.map(|estimate| {
                let err = dbhist_data::metrics::relative_error(estimate, actual);
                for clique in scratch.visited() {
                    self.drift.record(clique, err);
                }
            });
            self.scratch.release(scratch);
            if blamed.is_err() {
                return;
            }
        }
        if dbhist_telemetry::enabled() {
            dbhist_telemetry::wellknown::wellknown().estimator_feedback.increment();
        }
    }

    /// The per-clique accuracy-drift monitor fed by
    /// [`DbHistogram::record_feedback`].
    #[must_use]
    pub fn drift_monitor(&self) -> &DriftMonitor {
        &self.drift
    }

    fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Assembles a synopsis from a model and its aligned factors: rooted
    /// views fill lazily, the evaluator-or-interpreter choice is made, the
    /// scratch pool and counters start empty, and the build trace is
    /// all-zero until the builder sets it. The
    /// snapshot loader calls this after validating that `factors` aligns
    /// one-to-one with the model's cliques.
    pub(crate) fn assemble(
        model: DecomposableModel,
        factors: Vec<F>,
        bytes: usize,
        name: String,
    ) -> Self {
        let views = model.junction_tree().rooted_views();
        let evaluated = fits(model.junction_tree(), model.schema());
        let drift = DriftMonitor::new(model.cliques().len(), DRIFT_WINDOW);
        Self {
            model,
            factors,
            bytes,
            name,
            views,
            evaluated,
            scratch: ScratchPool::default(),
            metrics: QueryMetrics::default(),
            trace: BuildTrace::default(),
            drift,
        }
    }
}

impl<F: Factor> SelectivityEstimator for DbHistogram<F> {
    fn estimate(&self, query: &Query) -> f64 {
        // The trait signature is infallible; a failure here means the
        // synopsis is structurally corrupt, and aborting beats silently
        // returning garbage estimates. Fallible callers should prefer
        // `try_estimate`.
        #[allow(clippy::expect_used)]
        self.try_estimate(query)
            // lint:allow-next-line(panic-surface): infallible trait contract; corrupt synopsis must not yield silent garbage
            .expect("DB-histogram estimation failed on a structurally valid synopsis")
    }

    fn storage_bytes(&self) -> usize {
        self.bytes
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Starts one incremental builder per model clique, in clique order,
/// each over its marginal counted from `columns`: MHIST takes the
/// clique's counted cells column by column ([`Columns::cell_columns`]),
/// the other families its marginal ([`Columns::marginal`]).
fn start_builders<B>(
    columns: &Columns<'_>,
    model: &DecomposableModel,
    start: &impl Fn(&Columns<'_>, &AttrSet) -> Result<B, SynopsisError>,
) -> Result<Vec<B>, SynopsisError> {
    model.cliques().iter().map(|c| start(columns, c)).collect()
}

/// Shared construction pipeline: select a model, then build the clique
/// histograms within the budget using `start` to create each builder and
/// `finish` to materialize it. Phase wall times and task counts are
/// recorded on the returned synopsis's [`BuildTrace`].
fn build_generic<B, F>(
    relation: &Relation,
    config: &DbConfig,
    start: impl Fn(&Columns<'_>, &AttrSet) -> Result<B, SynopsisError>,
) -> Result<DbHistogram<F>, SynopsisError>
where
    B: IncrementalBuilder<Histogram = F> + Clone,
    F: Factor,
{
    config.selection.validate()?;
    let started = Instant::now();
    // One column copy counts selection's entropies and then the chosen
    // model's clique marginals. Selection reports no divergence, so the
    // full joint `H(V)` is never counted.
    let (columns, selection) = {
        let _span = dbhist_telemetry::span!("dbhist_build_selection_latency_us");
        let columns = Columns::new(relation);
        let selection = ForwardSelector::with_columns(&columns, config.selection).select();
        (columns, selection)
    };
    let selection_time = started.elapsed();
    let mut synopsis = build_for_model(columns, selection.model, config, start)?;
    let mut trace = synopsis.build_trace();
    trace.selection = selection_time;
    trace.total = selection_time + trace.total;
    trace.selection_steps = selection.steps;
    trace.peak_candidates = selection.peak_candidates;
    trace.entropy_computations = selection.entropy_computations;
    synopsis.set_trace(trace);
    Ok(synopsis)
}

/// Builds the clique-histogram collection for an already-selected model,
/// counting its clique marginals from `columns`, which it drops before
/// allocation starts.
fn build_for_model<B, F>(
    columns: Columns<'_>,
    model: DecomposableModel,
    config: &DbConfig,
    start: impl Fn(&Columns<'_>, &AttrSet) -> Result<B, SynopsisError>,
) -> Result<DbHistogram<F>, SynopsisError>
where
    B: IncrementalBuilder<Histogram = F> + Clone,
    F: Factor,
{
    let started = Instant::now();
    let mut builders: Vec<B> = {
        let _span = dbhist_telemetry::span!("dbhist_build_construction_latency_us");
        let builders = start_builders(&columns, &model, &start)?;
        drop(columns);
        builders
    };
    let construction = started.elapsed();

    let started = Instant::now();
    let splits_funded = {
        let _span = dbhist_telemetry::span!("dbhist_build_allocation_latency_us");
        match config.allocation {
            AllocationStrategy::IncrementalGains => {
                incremental_gains(&mut builders, config.budget_bytes)?.splits
            }
            AllocationStrategy::OptimalDp => {
                // Measuring the error curves drives the builders as far
                // as the budget allows; copies of the fresh builders take
                // the actual allocation.
                let mut measured = builders.clone();
                let curves: Vec<_> =
                    measured.iter_mut().map(|b| error_curve(b, config.budget_bytes)).collect();
                drop(measured);
                let picks = optimal_dp(&curves, config.budget_bytes)?;
                apply_allocation(&mut builders, &picks);
                picks.iter().map(|p| p.buckets.saturating_sub(1)).sum()
            }
        }
    };
    let allocation = started.elapsed();

    let started = Instant::now();
    let mut synopsis = {
        let _span = dbhist_telemetry::span!("dbhist_build_assembly_latency_us");
        let bytes = builders.iter().map(IncrementalBuilder::storage_bytes).sum();
        let factors: Vec<F> = builders.iter().map(IncrementalBuilder::finish).collect();
        DbHistogram::assemble(model, factors, bytes, "DB".into())
    };
    let assembly = started.elapsed();

    if dbhist_telemetry::enabled() {
        let w = dbhist_telemetry::wellknown::wellknown();
        w.build_builds.increment();
        w.build_splits_funded.add(u64::try_from(splits_funded).unwrap_or(u64::MAX));
    }

    synopsis.set_trace(BuildTrace {
        construction,
        allocation,
        assembly,
        total: construction + allocation + assembly,
        cliques: synopsis.factors.len(),
        splits_funded,
        ..BuildTrace::default()
    });
    Ok(synopsis)
}

/// Starts an MHIST clique builder from the clique's counted cells.
fn mhist_start(
    criterion: SplitCriterion,
) -> impl Fn(&Columns<'_>, &AttrSet) -> Result<MhistCliqueBuilder, SynopsisError> {
    move |columns, clique| MhistCliqueBuilder::from_cells(columns.cell_columns(clique)?, criterion)
}

/// Internal entry for MHIST synopses; [`crate::builder::SynopsisBuilder`]
/// and incremental maintenance funnel through here.
pub(crate) fn build_mhist_pipeline(
    relation: &Relation,
    config: &DbConfig,
) -> Result<DbHistogram<SplitTree>, SynopsisError> {
    let mut synopsis = build_generic(relation, config, mhist_start(config.criterion))?;
    synopsis.set_name(match config.selection.heuristic {
        dbhist_model::selection::EdgeHeuristic::Db1 => "DB1",
        dbhist_model::selection::EdgeHeuristic::Db2 => "DB2",
    });
    Ok(synopsis)
}

/// Internal entry for grid synopses.
pub(crate) fn build_grid_pipeline(
    relation: &Relation,
    config: &DbConfig,
) -> Result<DbHistogram<GridHistogram>, SynopsisError> {
    let mut synopsis = build_generic(relation, config, |columns, clique| {
        GridCliqueBuilder::start(&columns.marginal(clique)?, config.criterion)
    })?;
    synopsis.set_name("DB-grid");
    Ok(synopsis)
}

/// Internal entry for wavelet synopses.
pub(crate) fn build_wavelet_pipeline(
    relation: &Relation,
    config: &DbConfig,
) -> Result<DbHistogram<crate::wavelet_factor::WaveletFactor>, SynopsisError> {
    let mut synopsis = build_generic(relation, config, |columns, clique| {
        crate::wavelet_factor::WaveletCliqueBuilder::start(&columns.marginal(clique)?)
    })?;
    synopsis.set_name("DB-wavelet");
    Ok(synopsis)
}

impl DbHistogram<SplitTree> {
    /// Builds MHIST clique histograms for an externally selected model
    /// (used by experiments that sweep model complexity).
    ///
    /// # Errors
    ///
    /// Fails on impossible budgets or degenerate inputs.
    pub fn for_model(
        relation: &Relation,
        model: DecomposableModel,
        config: DbConfig,
    ) -> Result<Self, SynopsisError> {
        build_for_model(Columns::new(relation), model, &config, mhist_start(config.criterion))
    }
}

impl DbHistogram<ExactFactor> {
    /// Pairs an externally selected model with *exact* clique marginals —
    /// "clique histograms with an unlimited number of buckets" — so that
    /// query error reflects the model alone (the paper's Fig. 6 setup).
    ///
    /// # Errors
    ///
    /// Propagates marginal-computation failures.
    pub fn exact_for_model(
        relation: &Relation,
        model: DecomposableModel,
    ) -> Result<Self, SynopsisError> {
        let factors: Vec<ExactFactor> = model
            .cliques()
            .iter()
            .map(|c| relation.marginal(c).map(ExactFactor))
            .collect::<Result<_, _>>()?;
        // Storage accounting for exact marginals: 4 bytes per stored value
        // plus 4 per frequency (informational only; Fig. 6 ignores space).
        let bytes = factors.iter().map(|f| f.0.support_size() * 4 * (f.0.attrs().len() + 1)).sum();
        Ok(DbHistogram::assemble(model, factors, bytes, "DB-exact".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SynopsisBuilder;
    use dbhist_model::selection::EdgeHeuristic;

    /// a == b (8 values), c independent; N = 4096.
    fn relation() -> Relation {
        let schema = dbhist_distribution::Schema::new(vec![("a", 8), ("b", 8), ("c", 4)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..4096u32).map(|i| vec![i % 8, i % 8, (i / 8) % 4]).collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn build_discovers_model_and_respects_budget() {
        let rel = relation();
        let db = SynopsisBuilder::new(&rel).budget(300).build_mhist().unwrap();
        assert!(db.storage_bytes() <= 300);
        assert!(db.model().graph().has_edge(0, 1));
        assert_eq!(db.model().edge_count(), 1);
        assert_eq!(db.factors().len(), db.model().cliques().len());
        assert_eq!(db.name(), "DB2");
    }

    #[test]
    fn estimates_correlated_pair_well() {
        let rel = relation();
        let db = SynopsisBuilder::new(&rel).budget(400).build_mhist().unwrap();
        // The model captures a == b. Point queries on a perfectly uniform
        // diagonal are MHIST's worst case (intra-bucket uniformity spreads
        // mass over the box), so — like the paper — we evaluate range
        // queries, where the spreading averages out.
        let q = Query::range(0, 0, 3).and(1, 0, 3);
        let est = db.estimate(&q);
        let exact = rel.count_range(q.ranges()) as f64;
        assert!(exact > 0.0);
        assert!((est - exact).abs() / exact < 0.6, "est {est} vs exact {exact}");
        // Cross-clique query (a with c) goes through the junction tree.
        let q = Query::range(0, 0, 3).eq(2, 1);
        let est = db.estimate(&q);
        let exact = rel.count_range(q.ranges()) as f64;
        assert!((est - exact).abs() / exact < 0.5, "est {est} vs exact {exact}");
    }

    #[test]
    fn empty_predicate_estimates_table_size() {
        let rel = relation();
        let db = SynopsisBuilder::new(&rel).budget(300).build_mhist().unwrap();
        assert!((db.estimate(&Query::all()) - 4096.0).abs() < 1e-6);
        // Unknown attributes are ignored, falling back to N.
        assert!((db.estimate(&Query::range(99, 0, 1)) - 4096.0).abs() < 1e-6);
    }

    #[test]
    fn db1_heuristic_and_dp_allocation() {
        let rel = relation();
        let db = SynopsisBuilder::new(&rel)
            .budget(300)
            .heuristic(EdgeHeuristic::Db1)
            .allocation(AllocationStrategy::OptimalDp)
            .build_mhist()
            .unwrap();
        assert_eq!(db.name(), "DB1");
        assert!(db.storage_bytes() <= 300);
        assert!(db.model().graph().has_edge(0, 1));
    }

    #[test]
    fn grid_variant_builds_and_estimates() {
        let rel = relation();
        let db = SynopsisBuilder::new(&rel).budget(300).build_grid().unwrap();
        assert!(db.storage_bytes() <= 300);
        let est = db.estimate(&Query::range(2, 0, 1));
        let exact = rel.count_range(&[(2, 0, 1)]) as f64;
        assert!((est - exact).abs() / exact < 0.3);
    }

    #[test]
    fn exact_factors_reproduce_model_estimates() {
        let rel = relation();
        let model = {
            let g = dbhist_model::MarkovGraph::from_edges(3, [(0, 1)]).unwrap();
            DecomposableModel::new(rel.schema().clone(), g).unwrap()
        };
        let db = DbHistogram::exact_for_model(&rel, model).unwrap();
        // The model [ab][c] is the true structure, so every query is exact.
        for ranges in [
            vec![(0u16, 1u32, 3u32)],
            vec![(0, 2, 2), (1, 2, 2)],
            vec![(0, 0, 3), (2, 1, 1)],
            vec![(1, 4, 7), (2, 0, 2)],
        ] {
            let est = db.estimate(&Query::from(ranges.clone()));
            let exact = rel.count_range(&ranges) as f64;
            assert!((est - exact).abs() < 1e-6 * (1.0 + exact), "{ranges:?}: {est} vs {exact}");
        }
    }

    #[test]
    fn wavelet_variant_builds_and_estimates() {
        let rel = relation();
        let db = SynopsisBuilder::new(&rel).budget(400).build_wavelet().unwrap();
        assert!(db.storage_bytes() <= 400);
        assert_eq!(db.name(), "DB-wavelet");
        assert!(db.model().graph().has_edge(0, 1));
        let q = Query::range(0, 0, 3).eq(2, 1);
        let est = db.estimate(&q);
        let exact = rel.count_range(q.ranges()) as f64;
        assert!((est - exact).abs() / exact < 0.5, "est {est} vs exact {exact}");
    }

    #[test]
    fn repeated_queries_are_counted_evaluations_over_pooled_scratch() {
        let rel = relation();
        let db = SynopsisBuilder::new(&rel).budget(400).build_mhist().unwrap();
        db.reset_query_trace();
        // Eight queries, each one evaluation; none builds a product.
        for i in 0..8u32 {
            db.try_estimate(&Query::range(0, 0, 3).and(1, i % 8, 7)).unwrap();
        }
        let evaluated = QueryTrace { evaluations: 8, ..QueryTrace::default() };
        assert_eq!(db.query_trace(), evaluated);
        // Scratch returns to the pool: the next explained query reuses it.
        let (_, report) = db.try_estimate_explained(&Query::range(0, 0, 3)).unwrap();
        assert_eq!(report.scratch_reused, Some(true));
        db.reset_query_trace();
        assert_eq!(db.query_trace(), QueryTrace::default());
        db.try_estimate(&Query::range(0, 0, 3).and(1, 2, 7)).unwrap();
        let served = QueryTrace { evaluations: 1, ..QueryTrace::default() };
        assert_eq!(db.query_trace(), served);
    }

    #[test]
    fn budget_too_small_is_an_error() {
        let rel = relation();
        assert!(matches!(
            SynopsisBuilder::new(&rel).budget(8).build_mhist(),
            Err(SynopsisError::Budget { .. })
        ));
    }

    #[test]
    fn bigger_budget_no_worse_on_average() {
        let rel = relation();
        let queries: Vec<Vec<(u16, u32, u32)>> =
            (0..16).map(|i| vec![(0u16, i % 8, i % 8), (2, i % 4, i % 4)]).collect();
        let mut errors = Vec::new();
        for budget in [200usize, 800] {
            let db = SynopsisBuilder::new(&rel).budget(budget).build_mhist().unwrap();
            let mean: f64 = queries
                .iter()
                .map(|q| {
                    let exact = rel.count_range(q) as f64;
                    let est = db.estimate(&Query::from(q.as_slice()));
                    if exact > 0.0 {
                        (est - exact).abs() / exact
                    } else {
                        est
                    }
                })
                .sum::<f64>()
                / queries.len() as f64;
            errors.push(mean);
        }
        assert!(errors[1] <= errors[0] + 0.05, "{errors:?}");
    }
}
