//! Forward selection of decomposable models (paper §3.1).
//!
//! Selection starts from the full-independence model and greedily adds the
//! interaction edge with the best score until no candidate passes the
//! statistical-significance threshold `θ`, the clique-size bound `k_max`
//! would be violated, or an edge budget is exhausted.
//!
//! Two candidate-scoring *heuristics* (paper §4.1):
//!
//! * **DB₁** — pick the edge whose divergence improvement has the highest
//!   statistical significance (G² likelihood-ratio test against χ²).
//! * **DB₂** — pick the edge maximizing improvement per unit increase of
//!   the total model state space (Σ over cliques of the product of the
//!   member domain sizes), accounting for the space the clique histograms
//!   will later need.
//!
//! Two *algorithms* with identical outputs but different costs:
//!
//! * [`SelectionAlgorithm::Naive`] — paper's first algorithm: try every
//!   non-edge, re-test chordality of the augmented graph, rebuild the
//!   junction tree, and re-evaluate the full model divergence.
//! * [`SelectionAlgorithm::Efficient`] — paper's novel algorithm: only
//!   guaranteed-addable edges are considered and each is scored *locally*
//!   as the conditional mutual information `I(u; v | S)` over the unique
//!   minimal separator `S`, requiring just four (memoized) marginal
//!   entropies per candidate instead of a full model evaluation.
//!
//! The divergence `D = Σ H(cliques) − Σ H(separators) − H(V)` (§2.2) has
//! one term, the full joint's entropy `H(V)`, that no choice depends on:
//! it cancels out of every local score. The selector carries only the
//! model entropy `Σ H(cliques) − Σ H(separators)` through its steps and
//! subtracts `H(V)` where a divergence is read: [`ForwardSelector::run`],
//! [`ForwardSelector::step`], [`ForwardSelector::divergence`] and the
//! Naive scorer. `(m − H(V))` is the same left-to-right sum as
//! [`measures::decomposable_divergence`], so every reported divergence
//! has the same bits either way. [`ForwardSelector::select`], a synopsis
//! build's entry, reads no divergence, so with the Efficient algorithm it
//! never counts `H(V)`: the one marginal over every attribute, and the
//! only one that sorts all the rows.

use dbhist_distribution::{measures, AttrId, AttrSet, Columns, EntropyCache, Relation};

use crate::chordal::addable_edge_separator;
use crate::decomposable::DecomposableModel;
use crate::error::ModelError;
use crate::graph::MarkovGraph;
use crate::junction::JunctionTree;
use crate::stats::SignificanceTest;

/// Saturating widening for telemetry counter mirroring.
fn to_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Which edge-scoring heuristic drives the greedy choice (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeHeuristic {
    /// Highest statistical significance of the divergence improvement.
    Db1,
    /// Highest improvement per unit of added model state space. The paper
    /// finds this variant best under tight storage budgets, and uses it as
    /// the flagship configuration.
    #[default]
    Db2,
}

/// Which search algorithm enumerates and scores candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionAlgorithm {
    /// Arbitrary-edge trial with chordality re-tests and full model
    /// re-evaluation per candidate.
    Naive,
    /// Separator-based local scoring; constant entropy work per edge.
    #[default]
    Efficient,
}

/// Configuration for forward selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionConfig {
    /// Upper bound on generator (clique) size; the paper uses 2 in all
    /// headline experiments ("including 3-dimensional clique histograms
    /// decreases accuracy considerably").
    pub k_max: usize,
    /// Statistical-significance threshold `θ`; the paper uses 0.90.
    pub theta: f64,
    /// Edge-scoring heuristic.
    pub heuristic: EdgeHeuristic,
    /// Search algorithm.
    pub algorithm: SelectionAlgorithm,
    /// Optional hard cap on the number of edges added (used by the Fig. 6
    /// model-complexity sweep).
    pub max_edges: Option<usize>,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        Self {
            k_max: 2,
            theta: 0.90,
            heuristic: EdgeHeuristic::default(),
            algorithm: SelectionAlgorithm::default(),
            max_edges: None,
        }
    }
}

impl SelectionConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for `k_max < 2` or `theta`
    /// outside `[0, 1)`.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.k_max < 2 {
            return Err(ModelError::InvalidConfig {
                reason: format!("k_max must be at least 2, got {}", self.k_max),
            });
        }
        if !(0.0..1.0).contains(&self.theta) {
            return Err(ModelError::InvalidConfig {
                reason: format!("theta must lie in [0, 1), got {}", self.theta),
            });
        }
        Ok(())
    }
}

/// A scored candidate edge.
#[derive(Debug, Clone)]
pub struct EdgeCandidate {
    /// The interaction edge endpoints (`u < v`).
    pub u: AttrId,
    /// Second endpoint.
    pub v: AttrId,
    /// The unique minimal `u–v` separator; the new generator is
    /// `S ∪ {u, v}`.
    pub separator: AttrSet,
    /// Divergence improvement `ΔD = I(u; v | S) ≥ 0`.
    pub improvement: f64,
    /// G² significance test of the improvement.
    pub test: SignificanceTest,
    /// Increase in total model state space caused by the addition.
    pub state_space_increase: u64,
}

impl EdgeCandidate {
    /// The heuristic's scalar score (higher is better) plus deterministic
    /// tie-breakers.
    ///
    /// With the tuple counts of real tables, the χ² CDF saturates to 1.0
    /// for every genuinely correlated pair, so DB₁ falls back to the raw
    /// divergence improvement among equally significant candidates — the
    /// behaviour the paper's Fig. 6 exhibits (DB₁ grabs the strongest
    /// interactions first regardless of their state-space price).
    fn score(&self, heuristic: EdgeHeuristic) -> (f64, f64, f64) {
        match heuristic {
            EdgeHeuristic::Db1 => (
                self.test.significance,
                self.improvement,
                self.test.g_squared / self.test.degrees_of_freedom,
            ),
            EdgeHeuristic::Db2 => {
                let space = self.state_space_increase.max(1) as f64;
                (self.improvement / space, self.improvement, -space)
            }
        }
    }
}

/// One accepted step of forward selection.
#[derive(Debug, Clone)]
pub struct SelectionStep {
    /// The accepted candidate.
    pub candidate: EdgeCandidate,
    /// Model divergence after the addition.
    pub divergence_after: f64,
    /// Snapshot of the model after the addition (used by the Fig. 6
    /// error-vs-edges sweep).
    pub model: DecomposableModel,
}

/// The outcome of a selection run.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// The final model.
    pub model: DecomposableModel,
    /// Divergence of the initial (full-independence) model.
    pub initial_divergence: f64,
    /// Every accepted step, in order.
    pub steps: Vec<SelectionStep>,
    /// Number of marginal-entropy computations performed (cache misses) —
    /// the cost metric the paper's full version optimizes.
    pub entropy_computations: usize,
    /// Number of entropy lookups answered from the memoization cache.
    pub entropy_cache_hits: usize,
    /// Largest number of scored candidates seen in any single round
    /// (reported by `BuildTrace` as the selection phase's peak fan-out).
    pub peak_candidates: usize,
}

/// What [`ForwardSelector::select`] chose: the model and the run's
/// counters, without divergences. Its counters count no `H(V)`, so
/// `entropy_computations` is one lower than [`SelectionResult`]'s for the
/// Efficient algorithm.
#[derive(Debug, Clone)]
pub struct Selection {
    /// The final model.
    pub model: DecomposableModel,
    /// Number of accepted steps.
    pub steps: usize,
    /// Number of marginal-entropy computations performed (cache misses).
    pub entropy_computations: usize,
    /// Largest number of scored candidates seen in any single round.
    pub peak_candidates: usize,
}

/// An accepted step before `H(V)` is subtracted: the candidate, the model
/// entropy after it, and the model.
type Accepted = (EdgeCandidate, f64, DecomposableModel);

/// Greedy forward selector over decomposable models.
#[derive(Debug)]
pub struct ForwardSelector<'a> {
    cache: EntropyCache<'a>,
    config: SelectionConfig,
    graph: MarkovGraph,
    /// `Σ H(cliques) − Σ H(separators)` of `graph`: its divergence plus
    /// `H(V)`.
    model_entropy: f64,
    peak_candidates: usize,
}

impl<'a> ForwardSelector<'a> {
    /// Creates a selector starting from full independence.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid; use [`SelectionConfig::validate`] to
    /// check untrusted configurations first.
    #[must_use]
    pub fn new(relation: &'a Relation, config: SelectionConfig) -> Self {
        Self::with_cache(EntropyCache::new(relation), config)
    }

    /// Like [`ForwardSelector::new`], counting every entropy from
    /// `columns`: a synopsis build lends the selector the copy it then
    /// counts the clique marginals from.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    #[must_use]
    pub fn with_columns(columns: &'a Columns<'a>, config: SelectionConfig) -> Self {
        Self::with_cache(EntropyCache::with_columns(columns), config)
    }

    fn with_cache(mut cache: EntropyCache<'a>, config: SelectionConfig) -> Self {
        #[allow(clippy::expect_used)]
        config.validate().expect("invalid selection config"); // lint:allow(panic-surface): documented panic contract on invalid config
        let arity = cache.relation().schema().arity();
        // The first round scores every pair (each separator of the empty
        // graph is empty), so count each pair's table once, up front, and
        // read the singletons off those tables.
        if config.max_edges != Some(0) && arity >= 2 {
            cache.count_pairs();
        }
        let graph = MarkovGraph::empty(arity);
        let model_entropy = Self::model_entropy(&graph, &mut cache);
        Self { cache, config, graph, model_entropy, peak_candidates: 0 }
    }

    /// `Σ H(cliques) − Σ H(separators)` of `graph`, summed as
    /// [`measures::decomposable_divergence`] sums them.
    fn model_entropy(graph: &MarkovGraph, cache: &mut EntropyCache<'_>) -> f64 {
        // Selection only proposes chordality-preserving edges; a build
        // failure means the graph is unusable, so poison the score with an
        // infinite divergence instead of aborting.
        let Ok(jt) = JunctionTree::build(graph) else {
            return f64::INFINITY;
        };
        let cliques: f64 = jt.cliques().iter().map(|c| cache.entropy(c)).sum();
        let separators: f64 = jt.separators().map(|s| cache.entropy(s)).sum();
        cliques - separators
    }

    /// `H(V)`, the entropy of the full joint, counted on first use.
    fn joint_entropy(&mut self) -> f64 {
        let all = self.cache.relation().schema().all_attrs();
        self.cache.entropy(&all)
    }

    /// Current model divergence. The first divergence read counts `H(V)`.
    #[must_use]
    pub fn divergence(&mut self) -> f64 {
        self.model_entropy - self.joint_entropy()
    }

    /// Current interaction graph.
    #[must_use]
    pub fn graph(&self) -> &MarkovGraph {
        &self.graph
    }

    /// Scores an addable candidate whose minimal separator is already
    /// known.
    fn score_with_separator(&mut self, u: AttrId, v: AttrId, separator: AttrSet) -> EdgeCandidate {
        let relation = self.cache.relation();
        let schema = relation.schema();
        let n = relation.row_count() as f64;

        let improvement = match self.config.algorithm {
            SelectionAlgorithm::Efficient => {
                // Local scoring: ΔD = I(u; v | S) from four entropies.
                let h_su = self.cache.entropy(&separator.with(u));
                let h_sv = self.cache.entropy(&separator.with(v));
                let h_s = self.cache.entropy(&separator);
                let h_suv = self.cache.entropy(&separator.with(u).with(v));
                measures::conditional_mutual_information(h_su, h_sv, h_s, h_suv)
            }
            SelectionAlgorithm::Naive => {
                // Full re-evaluation of the augmented model. A candidate
                // whose edge cannot be added scores zero improvement and
                // is never picked.
                let mut augmented = self.graph.clone();
                if augmented.add_edge(u, v).is_ok() {
                    let joint = self.joint_entropy();
                    let new_d = Self::model_entropy(&augmented, &mut self.cache) - joint;
                    (self.model_entropy - joint) - new_d
                } else {
                    0.0
                }
            }
        }
        .max(0.0);

        // Degrees of freedom of the added interaction:
        // (|D_u|−1)(|D_v|−1) · Π_{s ∈ S} |D_s|.
        let mut df = f64::from(schema.domain_size(u) - 1) * f64::from(schema.domain_size(v) - 1);
        for s in separator.iter() {
            df *= f64::from(schema.domain_size(s));
        }
        let test = SignificanceTest::new(n, improvement, df);

        // State-space increase: the new generator S∪{u,v} appears; the
        // cliques S∪{u} and S∪{v} disappear iff they were maximal before.
        let new_clique = separator.with(u).with(v);
        let mut increase = schema.state_space(&new_clique) as i128;
        for absorbed in [separator.with(u), separator.with(v)] {
            if self.is_maximal_clique(&absorbed) {
                increase -= schema.state_space(&absorbed) as i128;
            }
        }
        let state_space_increase = increase.max(0) as u64;

        EdgeCandidate { u, v, separator, improvement, test, state_space_increase }
    }

    /// `true` if `set` induces a complete subgraph not strictly contained
    /// in a larger one.
    fn is_maximal_clique(&self, set: &AttrSet) -> bool {
        if !self.graph.is_clique(set) {
            return false;
        }
        let n = self.graph.vertex_count() as AttrId;
        !(0..n).any(|w| !set.contains(w) && set.iter().all(|m| self.graph.has_edge(w, m)))
    }

    /// Scores every addable candidate edge under the current model, in
    /// enumeration order.
    pub fn candidates(&mut self) -> Vec<EdgeCandidate> {
        let addable: Vec<(AttrId, AttrId, AttrSet)> = self
            .graph
            .non_edges()
            .filter_map(|(u, v)| {
                let sep = addable_edge_separator(&self.graph, u, v)?;
                (sep.len() + 2 <= self.config.k_max).then_some((u, v, sep))
            })
            .collect();
        addable.into_iter().map(|(u, v, sep)| self.score_with_separator(u, v, sep)).collect()
    }

    /// Performs one greedy step: scores all candidates, accepts the best
    /// one passing the significance threshold, and returns it with the
    /// divergence after it (counting `H(V)` on the first step). Returns
    /// `None` when selection has converged.
    pub fn step(&mut self) -> Option<SelectionStep> {
        let (candidate, _, model) = self.advance()?;
        Some(SelectionStep { candidate, divergence_after: self.divergence(), model })
    }

    /// [`ForwardSelector::step`] without the divergence.
    fn advance(&mut self) -> Option<Accepted> {
        let heuristic = self.config.heuristic;
        let candidates = self.candidates();
        self.peak_candidates = self.peak_candidates.max(candidates.len());
        let best = candidates
            .into_iter()
            .filter(|c| c.improvement > 0.0 && c.test.is_significant(self.config.theta))
            .max_by(|a, b| {
                let (sa, sb) = (a.score(heuristic), b.score(heuristic));
                sa.partial_cmp(&sb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    // Deterministic tie-break on the edge itself.
                    .then_with(|| (b.u, b.v).cmp(&(a.u, a.v)))
            })?;
        // Candidates were enumerated from the current graph, so the edge is
        // addable and chordality-preserving; if either check disagrees,
        // stop selecting rather than abort.
        self.graph.add_edge(best.u, best.v).ok()?;
        self.model_entropy = Self::model_entropy(&self.graph, &mut self.cache);
        let schema = self.cache.relation().schema().clone();
        let model = DecomposableModel::new(schema, self.graph.clone()).ok()?;
        Some((best, self.model_entropy, model))
    }

    /// Runs selection to convergence (or `max_edges`) and returns the
    /// result, including per-step snapshots. `H(V)` is counted once,
    /// before the first step.
    #[must_use]
    pub fn run(mut self) -> SelectionResult {
        let joint = self.joint_entropy();
        let initial_divergence = self.model_entropy - joint;
        let accepted = self.converge();
        let steps: Vec<SelectionStep> = accepted
            .into_iter()
            .map(|(candidate, model_entropy, model)| SelectionStep {
                candidate,
                divergence_after: model_entropy - joint,
                model,
            })
            .collect();
        SelectionResult {
            model: self.final_model(steps.last().map(|s| &s.model)),
            initial_divergence,
            steps,
            entropy_computations: self.cache.computations(),
            entropy_cache_hits: self.cache.hits(),
            peak_candidates: self.peak_candidates,
        }
    }

    /// Runs selection to convergence (or `max_edges`) like
    /// [`ForwardSelector::run`], through the same loop, and returns the
    /// chosen model and the run's counters. It reads no divergence, so
    /// with the Efficient algorithm it never counts `H(V)`: a synopsis
    /// build's entry.
    #[must_use]
    pub fn select(mut self) -> Selection {
        let accepted = self.converge();
        Selection {
            model: self.final_model(accepted.last().map(|(_, _, model)| model)),
            steps: accepted.len(),
            entropy_computations: self.cache.computations(),
            peak_candidates: self.peak_candidates,
        }
    }

    /// The selection loop of [`ForwardSelector::run`] and
    /// [`ForwardSelector::select`]: accepts edges until convergence or
    /// `max_edges`, then mirrors the run's counters into telemetry.
    fn converge(&mut self) -> Vec<Accepted> {
        let mut accepted = Vec::new();
        let mut rounds = 0usize;
        let max_edges = self.config.max_edges.unwrap_or(usize::MAX);
        while accepted.len() < max_edges {
            let round = {
                let _span = dbhist_telemetry::span!("dbhist_model_selection_round_latency_us");
                self.advance()
            };
            rounds += 1;
            match round {
                Some(step) => accepted.push(step),
                None => break,
            }
        }
        if dbhist_telemetry::enabled() {
            let w = dbhist_telemetry::wellknown::wellknown();
            w.build_selection_rounds.add(to_u64(rounds));
            w.model_entropy_computations.add(to_u64(self.cache.computations()));
            w.model_entropy_cache_hits.add(to_u64(self.cache.hits()));
        }
        accepted
    }

    /// The last accepted model, or full independence if none was.
    fn final_model(&self, last: Option<&DecomposableModel>) -> DecomposableModel {
        last.cloned().unwrap_or_else(|| {
            DecomposableModel::independence(self.cache.relation().schema().clone())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbhist_distribution::Schema;

    /// a == b, c == d (shifted), e independent.
    fn two_pair_relation() -> Relation {
        let schema = Schema::new(vec![("a", 4), ("b", 4), ("c", 3), ("d", 3), ("e", 2)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..720u32)
            .map(|i| {
                let a = i % 4;
                let c = (i / 4) % 3;
                let e = (i / 12) % 2;
                vec![a, a, c, (c + 1) % 3, e]
            })
            .collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn discovers_true_structure() {
        let rel = two_pair_relation();
        for algorithm in [SelectionAlgorithm::Naive, SelectionAlgorithm::Efficient] {
            for heuristic in [EdgeHeuristic::Db1, EdgeHeuristic::Db2] {
                let config = SelectionConfig { algorithm, heuristic, ..Default::default() };
                let result = ForwardSelector::new(&rel, config).run();
                let g = result.model.graph();
                assert!(g.has_edge(0, 1), "{algorithm:?}/{heuristic:?} missed a-b");
                assert!(g.has_edge(2, 3), "{algorithm:?}/{heuristic:?} missed c-d");
                assert_eq!(g.edge_count(), 2, "{algorithm:?}/{heuristic:?} overfit: {g}");
            }
        }
    }

    #[test]
    fn naive_and_efficient_agree() {
        let rel = two_pair_relation();
        let naive = ForwardSelector::new(
            &rel,
            SelectionConfig { algorithm: SelectionAlgorithm::Naive, ..Default::default() },
        )
        .run();
        let efficient = ForwardSelector::new(
            &rel,
            SelectionConfig { algorithm: SelectionAlgorithm::Efficient, ..Default::default() },
        )
        .run();
        assert_eq!(naive.model.graph(), efficient.model.graph());
        assert_eq!(naive.steps.len(), efficient.steps.len());
        for (a, b) in naive.steps.iter().zip(&efficient.steps) {
            assert_eq!((a.candidate.u, a.candidate.v), (b.candidate.u, b.candidate.v));
            assert!(
                (a.candidate.improvement - b.candidate.improvement).abs() < 1e-9,
                "local CMI must equal full divergence delta"
            );
        }
        // The efficient algorithm touches fewer marginals.
        assert!(efficient.entropy_computations <= naive.entropy_computations);
    }

    #[test]
    fn divergence_monotonically_decreases() {
        let rel = two_pair_relation();
        let result = ForwardSelector::new(
            &rel,
            SelectionConfig { theta: 0.0, max_edges: Some(6), ..Default::default() },
        )
        .run();
        let mut prev = result.initial_divergence;
        for step in &result.steps {
            assert!(step.divergence_after <= prev + 1e-9);
            prev = step.divergence_after;
        }
    }

    #[test]
    fn k_max_bounds_clique_size() {
        let rel = two_pair_relation();
        for k_max in [2usize, 3] {
            let result = ForwardSelector::new(
                &rel,
                SelectionConfig { k_max, theta: 0.0, ..Default::default() },
            )
            .run();
            assert!(result.model.max_clique_size() <= k_max);
        }
    }

    #[test]
    fn k_max_two_yields_forest() {
        // With k_max = 2 every generator has ≤ 2 attributes, so the model
        // graph is acyclic (a forest), as the paper notes (§4.1).
        let rel = two_pair_relation();
        let result = ForwardSelector::new(
            &rel,
            SelectionConfig { k_max: 2, theta: 0.0, ..Default::default() },
        )
        .run();
        let g = result.model.graph();
        assert!(g.edge_count() < rel.schema().arity());
        assert!(result.model.max_clique_size() <= 2);
    }

    #[test]
    fn max_edges_caps_steps() {
        let rel = two_pair_relation();
        let result = ForwardSelector::new(
            &rel,
            SelectionConfig { max_edges: Some(1), theta: 0.0, ..Default::default() },
        )
        .run();
        assert_eq!(result.steps.len(), 1);
        assert_eq!(result.model.edge_count(), 1);
    }

    #[test]
    fn high_theta_blocks_noise_edges() {
        // Independent uniform attributes: no edge should be significant.
        let schema = Schema::new(vec![("x", 4), ("y", 4), ("z", 4)]).unwrap();
        let rows: Vec<Vec<u32>> =
            (0..64u32).map(|i| vec![i % 4, (i / 4) % 4, (i / 16) % 4]).collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let result =
            ForwardSelector::new(&rel, SelectionConfig { theta: 0.90, ..Default::default() }).run();
        assert_eq!(result.model.edge_count(), 0, "{}", result.model.notation());
        assert!(result.initial_divergence.abs() < 1e-10);
    }

    #[test]
    fn config_validation() {
        assert!(SelectionConfig { k_max: 1, ..Default::default() }.validate().is_err());
        assert!(SelectionConfig { theta: 1.0, ..Default::default() }.validate().is_err());
        assert!(SelectionConfig { theta: -0.1, ..Default::default() }.validate().is_err());
        assert!(SelectionConfig::default().validate().is_ok());
    }

    #[test]
    fn candidates_report_separators() {
        let rel = two_pair_relation();
        let mut sel = ForwardSelector::new(
            &rel,
            SelectionConfig { k_max: 3, theta: 0.0, ..Default::default() },
        );
        // DB₂ picks c-d first: I(c;d) = ln 3 per 3 units of state space
        // beats I(a;b) = ln 4 per 8 units.
        let step = sel.step().unwrap();
        assert_eq!((step.candidate.u, step.candidate.v), (2, 3));
        let cands = sel.candidates();
        assert!(cands.iter().all(|c| c.improvement >= 0.0));
        assert!(cands.iter().any(|c| c.separator.is_empty()));
    }

    #[test]
    fn steps_expose_models_for_complexity_sweep() {
        let rel = two_pair_relation();
        let result =
            ForwardSelector::new(&rel, SelectionConfig { theta: 0.0, ..Default::default() }).run();
        for (i, step) in result.steps.iter().enumerate() {
            assert_eq!(step.model.edge_count(), i + 1);
        }
    }
}
