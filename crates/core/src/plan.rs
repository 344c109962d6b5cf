//! The plan-based query engine: compile `ComputeMarginal` once, execute
//! it many times.
//!
//! The paper's `ComputeMarginal` (§3.3.1, Fig. 3) is a recursion over the
//! junction tree whose *structure* depends only on the tree and the query
//! attribute set — never on the factor contents. A steady-state
//! selectivity workload repeats the same attribute subsets endlessly, so
//! re-walking the recursion (re-rooting the tree, re-deriving covers,
//! re-testing subset relations) per query is pure overhead. This module
//! splits the work into three layers:
//!
//! 1. **Planner** — [`MarginalPlan::compile`] runs the Fig. 3 recursion
//!    once and records it as a linear program of [`PlanStep`]s over a
//!    small operand stack; [`MassPlan::compile`] additionally performs
//!    the independent-component factorization of the selectivity fast
//!    path. Rooted views come from a per-synopsis
//!    [`dbhist_model::RootedViews`] cache, so covers/children are derived
//!    once per synopsis instead of once per query.
//! 2. **Executor** — [`execute_marginal`] runs a plan over any
//!    [`Factor`] slice with [`Cow`]-based operands: clique loads and
//!    identity projections *borrow* the stored factors (zero clones);
//!    only genuine products and projections materialize new factors.
//! 3. **Workload cache** — [`QueryEngine`] memoizes compiled plans in a
//!    bounded [`LruCache`] keyed by canonical [`AttrSet`] and, when
//!    enabled, caches materialized group marginals so repeated query
//!    shapes skip execution entirely. Every operation is counted in a
//!    [`QueryTrace`] for tests, benches, and production introspection.
//! 4. **Lowered kernels** — for factor representations with a
//!    bit-identical lowering ([`Factor::lower_index`]), the first
//!    execution of a mass-plan shape lowers each group's loose marginal
//!    into a flattened [`MassKernel`](crate::kernel::MassKernel); every
//!    subsequent query with that shape skips plan execution *and*
//!    `mass_in_box` tree recursion, answering from one flat slot array with
//!    pooled scratch ([`crate::scratch`]) — no per-query allocation.
//!
//! Planned execution is *operation-identical* to the recursive
//! interpreter ([`crate::marginal::compute_marginal_interpreted`]): the
//! same products, projections, and shed decisions run in the same order
//! on the same operands, so results match bit-for-bit (property-tested in
//! `tests/plan_equivalence.rs`).

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use dbhist_distribution::AttrSet;
use dbhist_histogram::{IndexLayout, TreeIndex};
use dbhist_model::junction::{RootedJunctionTree, RootedViews};
use dbhist_model::JunctionTree;
use dbhist_telemetry::registry::Counter;
use dbhist_telemetry::wellknown::wellknown;

use crate::error::SynopsisError;
use crate::explain::{
    ExplainProbe, ExplainRecorder, ExplainReport, NoProbe, QueryPath, ShedSkip, StepKind,
};
use crate::factor::Factor;
use crate::kernel::MassKernel;
use crate::query::Query;
use crate::scratch::ScratchPool;
pub use crate::sharded::LruCache;
use crate::sharded::ShardedLru;

/// Intermediate factors larger than this skip "tidying" (shed)
/// projections: carrying a few extra attributes through `mass_in_box` is
/// linear in the factor size, while the projection overlay can be
/// quadratic.
pub const SHED_LIMIT: usize = 2048;

/// Default capacity of a [`QueryEngine`]'s plan cache (distinct query
/// attribute-set shapes retained).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// Operation counters for the plan-based query path.
///
/// Grows the old `MarginalStats` pair into a full engine trace: per-step
/// execution counts plus plan-cache and marginal-cache hit/miss counters.
/// Counters are cumulative where the engine accumulates them (see
/// [`QueryEngine::trace`]) and per-call where an executor fills a fresh
/// one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Factor multiplications performed.
    pub products: usize,
    /// Proper (non-identity) projections performed.
    pub projections: usize,
    /// Identity projections resolved as zero-clone borrows.
    pub identity_projections: usize,
    /// Shed (tidying) projections applied.
    pub sheds: usize,
    /// Shed steps skipped (factor too large, already tidy, or nothing to
    /// keep).
    pub sheds_skipped: usize,
    /// Clique factors loaded by borrow (never cloned).
    pub clique_loads: usize,
    /// Whole-factor clones performed (materializing a borrowed result or
    /// seeding the marginal cache). Pure estimation never clones.
    pub factor_clones: usize,
    /// Queries answered with an already-compiled plan.
    pub plan_cache_hits: usize,
    /// Queries that had to compile a fresh plan.
    pub plan_cache_misses: usize,
    /// Group marginals served from the materialized-marginal cache.
    pub marginal_cache_hits: usize,
    /// Group marginals executed and (when enabled) inserted into the
    /// cache.
    pub marginal_cache_misses: usize,
    /// Queries answered entirely by a lowered [`crate::kernel::MassKernel`]
    /// (no plan execution, no tree recursion).
    pub kernel_hits: usize,
    /// Group marginals lowered into dense flat indices.
    pub kernel_lowered_dense: usize,
    /// Group marginals lowered into sparse (zero-subtree-collapsed) flat
    /// indices.
    pub kernel_lowered_sparse: usize,
    /// Mass-plan executions that could not lower every group (factor
    /// representation has no bit-identical lowering); the engine keeps
    /// executing those plans directly.
    pub kernel_fallbacks: usize,
}

impl QueryTrace {
    /// Adds every counter of `other` into `self`.
    pub fn absorb(&mut self, other: &Self) {
        self.products += other.products;
        self.projections += other.projections;
        self.identity_projections += other.identity_projections;
        self.sheds += other.sheds;
        self.sheds_skipped += other.sheds_skipped;
        self.clique_loads += other.clique_loads;
        self.factor_clones += other.factor_clones;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
        self.marginal_cache_hits += other.marginal_cache_hits;
        self.marginal_cache_misses += other.marginal_cache_misses;
        self.kernel_hits += other.kernel_hits;
        self.kernel_lowered_dense += other.kernel_lowered_dense;
        self.kernel_lowered_sparse += other.kernel_lowered_sparse;
        self.kernel_fallbacks += other.kernel_fallbacks;
    }
}

fn to_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

fn to_usize(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// The engine's cumulative counters, one lock-free
/// [`Counter`] per [`QueryTrace`] field. Executors still fill a local
/// `QueryTrace` (exact, single-threaded accounting); the engine absorbs
/// it here with relaxed `fetch_add`s, so concurrent queries never
/// serialize on a trace mutex. When global telemetry is enabled
/// ([`dbhist_telemetry::set_enabled`]), every absorbed delta is mirrored
/// into the process-wide `dbhist_query_*` metrics as well.
#[derive(Debug, Default)]
struct EngineMetrics {
    products: Counter,
    projections: Counter,
    identity_projections: Counter,
    sheds: Counter,
    sheds_skipped: Counter,
    clique_loads: Counter,
    factor_clones: Counter,
    plan_cache_hits: Counter,
    plan_cache_misses: Counter,
    marginal_cache_hits: Counter,
    marginal_cache_misses: Counter,
    kernel_hits: Counter,
    kernel_lowered_dense: Counter,
    kernel_lowered_sparse: Counter,
    kernel_fallbacks: Counter,
}

impl EngineMetrics {
    /// Adds a per-call trace into the cumulative counters (and mirrors it
    /// globally when telemetry is on).
    fn absorb(&self, t: &QueryTrace) {
        self.products.add(to_u64(t.products));
        self.projections.add(to_u64(t.projections));
        self.identity_projections.add(to_u64(t.identity_projections));
        self.sheds.add(to_u64(t.sheds));
        self.sheds_skipped.add(to_u64(t.sheds_skipped));
        self.clique_loads.add(to_u64(t.clique_loads));
        self.factor_clones.add(to_u64(t.factor_clones));
        self.plan_cache_hits.add(to_u64(t.plan_cache_hits));
        self.plan_cache_misses.add(to_u64(t.plan_cache_misses));
        self.marginal_cache_hits.add(to_u64(t.marginal_cache_hits));
        self.marginal_cache_misses.add(to_u64(t.marginal_cache_misses));
        self.kernel_hits.add(to_u64(t.kernel_hits));
        self.kernel_lowered_dense.add(to_u64(t.kernel_lowered_dense));
        self.kernel_lowered_sparse.add(to_u64(t.kernel_lowered_sparse));
        self.kernel_fallbacks.add(to_u64(t.kernel_fallbacks));
        if dbhist_telemetry::enabled() {
            let w = wellknown();
            w.query_products.add(to_u64(t.products));
            w.query_projections.add(to_u64(t.projections));
            w.query_identity_projections.add(to_u64(t.identity_projections));
            w.query_sheds.add(to_u64(t.sheds));
            w.query_sheds_skipped.add(to_u64(t.sheds_skipped));
            w.query_clique_loads.add(to_u64(t.clique_loads));
            w.query_factor_clones.add(to_u64(t.factor_clones));
            w.query_plan_cache_hits.add(to_u64(t.plan_cache_hits));
            w.query_plan_cache_misses.add(to_u64(t.plan_cache_misses));
            // Every plan-cache miss compiles exactly one plan.
            w.query_plans_compiled.add(to_u64(t.plan_cache_misses));
            w.query_marginal_cache_hits.add(to_u64(t.marginal_cache_hits));
            w.query_marginal_cache_misses.add(to_u64(t.marginal_cache_misses));
            w.query_kernel_hits.add(to_u64(t.kernel_hits));
            w.query_kernel_lowered_dense.add(to_u64(t.kernel_lowered_dense));
            w.query_kernel_lowered_sparse.add(to_u64(t.kernel_lowered_sparse));
            w.query_kernel_fallbacks.add(to_u64(t.kernel_fallbacks));
        }
    }

    /// Reads the counters into a [`QueryTrace`] value. Non-destructive:
    /// reading never changes the counters. Each field is individually
    /// exact; under concurrent absorption the fields may reflect
    /// different instants (no global atomic cut).
    fn snapshot(&self) -> QueryTrace {
        QueryTrace {
            products: to_usize(self.products.value()),
            projections: to_usize(self.projections.value()),
            identity_projections: to_usize(self.identity_projections.value()),
            sheds: to_usize(self.sheds.value()),
            sheds_skipped: to_usize(self.sheds_skipped.value()),
            clique_loads: to_usize(self.clique_loads.value()),
            factor_clones: to_usize(self.factor_clones.value()),
            plan_cache_hits: to_usize(self.plan_cache_hits.value()),
            plan_cache_misses: to_usize(self.plan_cache_misses.value()),
            marginal_cache_hits: to_usize(self.marginal_cache_hits.value()),
            marginal_cache_misses: to_usize(self.marginal_cache_misses.value()),
            kernel_hits: to_usize(self.kernel_hits.value()),
            kernel_lowered_dense: to_usize(self.kernel_lowered_dense.value()),
            kernel_lowered_sparse: to_usize(self.kernel_lowered_sparse.value()),
            kernel_fallbacks: to_usize(self.kernel_fallbacks.value()),
        }
    }

    fn reset(&self) {
        self.products.reset();
        self.projections.reset();
        self.identity_projections.reset();
        self.sheds.reset();
        self.sheds_skipped.reset();
        self.clique_loads.reset();
        self.factor_clones.reset();
        self.plan_cache_hits.reset();
        self.plan_cache_misses.reset();
        self.marginal_cache_hits.reset();
        self.marginal_cache_misses.reset();
        self.kernel_hits.reset();
        self.kernel_lowered_dense.reset();
        self.kernel_lowered_sparse.reset();
        self.kernel_fallbacks.reset();
    }
}

impl Clone for EngineMetrics {
    fn clone(&self) -> Self {
        let fresh = Self::default();
        let snap = self.snapshot();
        fresh.products.add(to_u64(snap.products));
        fresh.projections.add(to_u64(snap.projections));
        fresh.identity_projections.add(to_u64(snap.identity_projections));
        fresh.sheds.add(to_u64(snap.sheds));
        fresh.sheds_skipped.add(to_u64(snap.sheds_skipped));
        fresh.clique_loads.add(to_u64(snap.clique_loads));
        fresh.factor_clones.add(to_u64(snap.factor_clones));
        fresh.plan_cache_hits.add(to_u64(snap.plan_cache_hits));
        fresh.plan_cache_misses.add(to_u64(snap.plan_cache_misses));
        fresh.marginal_cache_hits.add(to_u64(snap.marginal_cache_hits));
        fresh.marginal_cache_misses.add(to_u64(snap.marginal_cache_misses));
        fresh.kernel_hits.add(to_u64(snap.kernel_hits));
        fresh.kernel_lowered_dense.add(to_u64(snap.kernel_lowered_dense));
        fresh.kernel_lowered_sparse.add(to_u64(snap.kernel_lowered_sparse));
        fresh.kernel_fallbacks.add(to_u64(snap.kernel_fallbacks));
        fresh
    }
}

/// One instruction of a compiled marginal plan, executed over an operand
/// stack of [`Cow`]-wrapped factors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanStep {
    /// Push clique `clique`'s stored factor onto the stack *by borrow*.
    Load {
        /// Index of the clique whose factor is loaded.
        clique: usize,
    },
    /// Project the top of the stack onto `attrs`. Identity projections
    /// (the operand already covers exactly `attrs`) pass the borrow
    /// through without cloning.
    Project {
        /// The projection target.
        attrs: AttrSet,
    },
    /// Pop the two topmost operands and push their product
    /// (`second.product(&top)`, preserving the interpreter's operand
    /// order).
    Product,
    /// Variable-elimination tidying: project the top of the stack onto
    /// `keep ∩ attrs` *if* the factor is small enough for the projection
    /// to pay off (see [`SHED_LIMIT`]); otherwise leave it untouched.
    Shed {
        /// Attributes the remainder of the plan still needs (computed at
        /// plan time assuming no earlier shed fired; intersected with the
        /// runtime attribute set before use).
        keep: AttrSet,
    },
}

/// A compiled `ComputeMarginal` invocation: the Fig. 3 recursion for one
/// target attribute set, flattened into a stack program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarginalPlan {
    target: AttrSet,
    root: usize,
    loose: bool,
    steps: Vec<PlanStep>,
    result_attrs: AttrSet,
}

impl MarginalPlan {
    /// Compiles the strict Fig. 3 recursion for `target`: the executed
    /// result covers exactly `target`.
    ///
    /// Rooted views are fetched from (and cached in) `views`, which must
    /// originate from `tree` (see [`JunctionTree::rooted_views`]).
    ///
    /// # Errors
    ///
    /// Rejects empty junction trees and targets with attributes no clique
    /// covers.
    pub fn compile(
        tree: &JunctionTree,
        views: &RootedViews,
        target: &AttrSet,
    ) -> Result<Self, SynopsisError> {
        // Root at the clique overlapping the target most (never hurts).
        let Some(root) = (0..tree.len())
            .max_by_key(|&i| (tree.cliques()[i].intersection(target).len(), usize::MAX - i))
        else {
            return Err(SynopsisError::Budget { reason: "empty junction tree".into() });
        };
        let rooted = views.get(tree, root);
        if let Some(missing) = target.iter().find(|&a| !rooted.cover[root].contains(a)) {
            return Err(SynopsisError::Budget {
                reason: format!("attribute {missing} is not covered by the model"),
            });
        }
        Ok(Self::compile_rooted(tree, rooted, root, target, false))
    }

    /// Compiles the recursion rooted at `root` over an already-derived
    /// rooted view. `loose` selects the shed-friendly variant whose result
    /// may cover a superset of `target` (the selectivity fast path).
    /// Precondition: `target ⊆ cover(root)`.
    #[must_use]
    pub fn compile_rooted(
        tree: &JunctionTree,
        rooted: &RootedJunctionTree,
        root: usize,
        target: &AttrSet,
        loose: bool,
    ) -> Self {
        let mut planner = Planner {
            cliques: tree.cliques(),
            children: &rooted.children,
            cover: &rooted.cover,
            loose,
            steps: Vec::new(),
        };
        let result_attrs = planner.go(root, target);
        Self { target: target.clone(), root, loose, steps: planner.steps, result_attrs }
    }

    /// The query attribute set the plan computes a marginal over.
    #[must_use]
    pub fn target(&self) -> &AttrSet {
        &self.target
    }

    /// The clique the recursion was rooted at.
    #[must_use]
    pub fn root(&self) -> usize {
        self.root
    }

    /// `true` for the loose (shed-friendly) variant whose result may
    /// cover a superset of the target.
    #[must_use]
    pub fn is_loose(&self) -> bool {
        self.loose
    }

    /// The compiled instruction sequence.
    #[must_use]
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// The largest attribute set the executed result can carry (equals
    /// the target for strict plans; a superset bound for loose plans).
    #[must_use]
    pub fn result_attrs(&self) -> &AttrSet {
        &self.result_attrs
    }
}

/// The Fig. 3 recursion, re-expressed as plan emission. Mirrors
/// `Ctx::go`/`Ctx::go_loose` in `crate::marginal` exactly — every branch
/// decision here depends only on tree structure and the target, so it can
/// run at plan time.
struct Planner<'a> {
    cliques: &'a [AttrSet],
    children: &'a [Vec<usize>],
    cover: &'a [AttrSet],
    loose: bool,
    steps: Vec<PlanStep>,
}

impl Planner<'_> {
    /// Emits steps computing the subtree marginal over `sq` from `node`;
    /// returns the maximal attribute set the produced operand may carry
    /// (exact when no runtime shed fires). Precondition: `sq ⊆
    /// cover(node)`.
    fn go(&mut self, node: usize, sq: &AttrSet) -> AttrSet {
        let clique = &self.cliques[node];
        // Fig. 3 step 1: the clique alone suffices.
        if sq.is_subset(clique) {
            self.steps.push(PlanStep::Load { clique: node });
            if sq != clique {
                self.steps.push(PlanStep::Project { attrs: sq.clone() });
            }
            return sq.clone();
        }
        let int_empty = clique.is_disjoint(sq);
        let diff = sq.difference(clique);
        debug_assert!(!diff.is_empty());

        // Steps 4–10: a single child's subtree covers everything missing.
        let single = self.children[node].iter().copied().find(|&j| diff.is_subset(&self.cover[j]));
        if let Some(j) = single {
            if int_empty {
                // Step 5: delegate wholesale.
                return self.go(j, sq);
            }
            // Steps 7–9: own factor × child marginal, then cut to sq.
            let sij = clique.intersection(&self.cliques[j]);
            self.steps.push(PlanStep::Load { clique: node });
            let mut child_target = diff;
            child_target.union_with(&sij);
            let h1 = self.go(j, &child_target);
            self.steps.push(PlanStep::Product);
            let mut result = clique.clone();
            result.union_with(&h1);
            return self.tail(result, sq);
        }

        // Steps 11–19: split `diff` across the children that cover parts
        // of it (each attribute lives in exactly one subtree by the
        // clique-intersection property).
        let parts: Vec<(usize, AttrSet, AttrSet)> = self.children[node]
            .iter()
            .copied()
            .filter_map(|j| {
                let mut part = self.cover[j].clone();
                part.intersect_with(&diff);
                if part.is_empty() {
                    None
                } else {
                    let sij = clique.intersection(&self.cliques[j]);
                    Some((j, part, sij))
                }
            })
            .collect();
        self.steps.push(PlanStep::Load { clique: node });
        let mut h_max = clique.clone();
        for (idx, (j, part, sij)) in parts.iter().enumerate() {
            let mut child_target = part.clone();
            child_target.union_with(sij);
            let h1 = self.go(*j, &child_target);
            self.steps.push(PlanStep::Product);
            h_max.union_with(&h1);
            // Shed attributes the query and the remaining separators no
            // longer need — runtime-gated on factor size.
            let mut keep = sq.intersection(&h_max);
            for (_, _, s) in &parts[idx + 1..] {
                keep.union_with(s);
            }
            if !keep.is_empty() {
                self.steps.push(PlanStep::Shed { keep });
            }
        }
        self.tail(h_max, sq)
    }

    /// Emits the closing cut of a recursion level: a strict projection to
    /// `sq`, or a shed in loose mode (which may retain extra attributes
    /// on large factors).
    fn tail(&mut self, attrs_max: AttrSet, sq: &AttrSet) -> AttrSet {
        if self.loose {
            self.steps.push(PlanStep::Shed { keep: sq.clone() });
            attrs_max
        } else {
            self.steps.push(PlanStep::Project { attrs: sq.clone() });
            sq.clone()
        }
    }
}

fn malformed(reason: &str) -> SynopsisError {
    SynopsisError::Budget { reason: format!("malformed marginal plan: {reason}") }
}

/// Executes a compiled plan over the clique factors, counting every
/// operation into `trace`.
///
/// Clique loads and identity projections *borrow*: a plan that resolves
/// within one clique returns `Cow::Borrowed` and performs zero factor
/// clones — callers that only need `mass_in_box` never materialize
/// anything.
///
/// # Errors
///
/// Propagates factor-operation failures; rejects plans inconsistent with
/// the factor slice (wrong clique indices or malformed stack shape).
pub fn execute_marginal<'a, F: Factor>(
    plan: &MarginalPlan,
    factors: &'a [F],
    trace: &mut QueryTrace,
) -> Result<Cow<'a, F>, SynopsisError> {
    execute_marginal_probed(plan, factors, trace, &mut NoProbe)
}

/// [`execute_marginal`] with an [`ExplainProbe`] observing every step.
///
/// With [`NoProbe`] (what [`execute_marginal`] instantiates) every probe
/// site is compiled out — `P::ACTIVE` is a monomorphization-time
/// constant — so the unprobed path carries no clock reads or recording.
/// Probes observe only; operands and results are untouched, keeping
/// explained execution bit-identical.
///
/// # Errors
///
/// Propagates factor-operation failures; rejects plans inconsistent with
/// the factor slice (wrong clique indices or malformed stack shape).
pub fn execute_marginal_probed<'a, F: Factor, P: ExplainProbe>(
    plan: &MarginalPlan,
    factors: &'a [F],
    trace: &mut QueryTrace,
    probe: &mut P,
) -> Result<Cow<'a, F>, SynopsisError> {
    let _span = dbhist_telemetry::span!("dbhist_query_plan_exec_latency_ns");
    let mut stack: Vec<Cow<'a, F>> = Vec::new();
    for step in plan.steps() {
        let started = if P::ACTIVE { Some(Instant::now()) } else { None };
        let kind = match step {
            PlanStep::Load { clique } => {
                let f =
                    factors.get(*clique).ok_or_else(|| malformed("clique index out of range"))?;
                trace.clique_loads += 1;
                stack.push(Cow::Borrowed(f));
                StepKind::Load { clique: *clique }
            }
            PlanStep::Project { attrs } => {
                let top = stack.last_mut().ok_or_else(|| malformed("project on empty stack"))?;
                if top.attrs() == attrs {
                    trace.identity_projections += 1;
                    StepKind::IdentityProject
                } else {
                    trace.projections += 1;
                    *top = Cow::Owned(top.project(attrs)?);
                    StepKind::Project
                }
            }
            PlanStep::Product => {
                let rhs = stack.pop().ok_or_else(|| malformed("product on empty stack"))?;
                let lhs = stack.pop().ok_or_else(|| malformed("product on 1-operand stack"))?;
                trace.products += 1;
                stack.push(Cow::Owned(lhs.product(&rhs)?));
                StepKind::Product
            }
            PlanStep::Shed { keep } => {
                let top = stack.last_mut().ok_or_else(|| malformed("shed on empty stack"))?;
                let mut cut = keep.clone();
                cut.intersect_with(top.attrs());
                if cut.is_empty() || &cut == top.attrs() || top.len_hint() > SHED_LIMIT {
                    trace.sheds_skipped += 1;
                    StepKind::ShedSkipped(if cut.is_empty() {
                        ShedSkip::NothingToKeep
                    } else if &cut == top.attrs() {
                        ShedSkip::AlreadyTidy
                    } else {
                        ShedSkip::TooLarge
                    })
                } else {
                    trace.sheds += 1;
                    *top = Cow::Owned(top.project(&cut)?);
                    StepKind::Shed
                }
            }
        };
        if P::ACTIVE {
            let ns =
                started.map_or(0, |t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
            probe.step(kind, ns, stack.last().map_or(0, |f| f.len_hint()));
        }
    }
    let result = stack.pop().ok_or_else(|| malformed("empty plan"))?;
    if !stack.is_empty() {
        return Err(malformed("leftover operands"));
    }
    Ok(result)
}

/// One independent model component of a [`MassPlan`]: the target
/// attributes falling in that component and the loose plan computing
/// their (superset) marginal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPlan {
    /// The target attributes this component covers.
    pub attrs: AttrSet,
    /// The loose marginal plan for `attrs`.
    pub plan: MarginalPlan,
}

/// A compiled selectivity estimation: the independent-component
/// factorization of `estimate_mass`, with one loose [`MarginalPlan`] per
/// component that intersects the target.
///
/// The plan depends only on the junction tree and the target attribute
/// set — the query's concrete ranges are supplied at execution time, so
/// one plan serves every query over the same attribute subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MassPlan {
    target: AttrSet,
    groups: Vec<GroupPlan>,
}

impl MassPlan {
    /// Compiles the estimation plan for `target`.
    ///
    /// # Errors
    ///
    /// Rejects targets with attributes no clique covers.
    pub fn compile(
        tree: &JunctionTree,
        views: &RootedViews,
        target: &AttrSet,
    ) -> Result<Self, SynopsisError> {
        // Model components (cliques connected by *non-empty* separators)
        // are mutually independent by construction: the estimate
        // factorizes as N · Π (mass_component / N).
        let n_cliques = tree.len();
        let mut comp = vec![usize::MAX; n_cliques];
        let mut next_comp = 0usize;
        for start in 0..n_cliques {
            if comp[start] != usize::MAX {
                continue;
            }
            let mut stack = vec![start];
            comp[start] = next_comp;
            while let Some(c) = stack.pop() {
                for (other, sep) in tree.neighbors(c) {
                    if !sep.is_empty() && comp[other] == usize::MAX {
                        comp[other] = next_comp;
                        stack.push(other);
                    }
                }
            }
            next_comp += 1;
        }
        // Group target attributes by the component that covers them.
        let mut group_attrs: Vec<AttrSet> = vec![AttrSet::empty(); next_comp];
        'attrs: for a in target.iter() {
            for (i, clique) in tree.cliques().iter().enumerate() {
                if clique.contains(a) {
                    group_attrs[comp[i]] = group_attrs[comp[i]].with(a);
                    continue 'attrs;
                }
            }
            return Err(SynopsisError::Budget {
                reason: format!("attribute {a} is not covered by the model"),
            });
        }
        let mut groups = Vec::new();
        for (g, attrs) in group_attrs.into_iter().enumerate() {
            if attrs.is_empty() {
                continue;
            }
            // Root this component's loose recursion at its
            // best-overlapping clique.
            let Some(root) = (0..n_cliques)
                .filter(|&i| comp[i] == g)
                .max_by_key(|&i| (tree.cliques()[i].intersection(&attrs).len(), usize::MAX - i))
            else {
                continue;
            };
            let rooted = views.get(tree, root);
            let plan = MarginalPlan::compile_rooted(tree, rooted, root, &attrs, true);
            groups.push(GroupPlan { attrs, plan });
        }
        Ok(Self { target: target.clone(), groups })
    }

    /// The query attribute set the plan estimates over.
    #[must_use]
    pub fn target(&self) -> &AttrSet {
        &self.target
    }

    /// The per-component sub-plans.
    #[must_use]
    pub fn groups(&self) -> &[GroupPlan] {
        &self.groups
    }
}

/// Executes a [`MassPlan`] for one concrete [`Query`].
///
/// # Errors
///
/// Propagates factor-operation failures.
pub fn execute_mass<F: Factor>(
    plan: &MassPlan,
    factors: &[F],
    query: &Query,
    trace: &mut QueryTrace,
) -> Result<f64, SynopsisError> {
    execute_mass_probed(plan, factors, query, trace, &mut NoProbe)
}

/// [`execute_mass`] with an [`ExplainProbe`] observing per-group
/// execution (see [`execute_marginal_probed`] for the zero-cost
/// contract).
///
/// # Errors
///
/// Propagates factor-operation failures.
pub fn execute_mass_probed<F: Factor, P: ExplainProbe>(
    plan: &MassPlan,
    factors: &[F],
    query: &Query,
    trace: &mut QueryTrace,
    probe: &mut P,
) -> Result<f64, SynopsisError> {
    let ranges = query.ranges();
    let total = factors.first().map_or(0.0, Factor::total);
    let mut mass = total;
    for group in plan.groups() {
        if P::ACTIVE {
            probe.group(&group.attrs);
        }
        let loose = execute_marginal_probed(&group.plan, factors, trace, probe)?;
        let group_mass = loose.mass_in_box(ranges);
        if P::ACTIVE {
            probe.group_mass(group_mass, false);
        }
        if total > 0.0 {
            mass *= group_mass / total;
        } else {
            return Ok(0.0);
        }
    }
    Ok(mass)
}

/// Cache key: the canonical (sorted, deduplicated) query attribute set
/// plus the plan variant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    attrs: AttrSet,
    loose: bool,
}

#[derive(Debug, Clone)]
enum CachedPlan {
    Strict(Arc<MarginalPlan>),
    Mass(Arc<MassPlan>),
}

/// The per-synopsis workload cache: rooted views computed once, compiled
/// plans memoized by query shape, optionally materialized marginals, and
/// cumulative [`QueryTrace`] counters.
///
/// Interior-mutable behind **sharded** caches ([`ShardedLru`]) so
/// estimation keeps its `&self` signature and many reader threads can
/// query concurrently without serializing on one cache mutex; all
/// methods are safe under concurrent use. Cached entries are pure
/// memoization of values recomputed from the immutable factors, so
/// concurrency changes hit rates, never estimates.
#[derive(Debug)]
pub struct QueryEngine<F: Factor> {
    views: RootedViews,
    plans: ShardedLru<PlanKey, CachedPlan>,
    /// Materialized-marginal cache; capacity 0 = disabled (the default).
    marginals: ShardedLru<PlanKey, F>,
    /// Lowered [`MassKernel`]s keyed by loose query shape; populated on
    /// the first execution of a shape whose factors all lower
    /// ([`Factor::lower_index`]). Always enabled — a kernel is strictly
    /// cheaper than the plan execution it replaces.
    kernels: ShardedLru<PlanKey, Arc<MassKernel>>,
    /// Pooled per-query walk scratch for kernel evaluations.
    scratch: ScratchPool,
    metrics: EngineMetrics,
}

impl<F: Factor> Clone for QueryEngine<F> {
    fn clone(&self) -> Self {
        Self {
            views: self.views.clone(),
            plans: self.plans.clone(),
            marginals: self.marginals.clone(),
            kernels: self.kernels.clone(),
            scratch: ScratchPool::default(),
            metrics: self.metrics.clone(),
        }
    }
}

impl<F: Factor> QueryEngine<F> {
    /// Creates an engine for `tree` with the default plan-cache capacity
    /// and the marginal cache disabled.
    #[must_use]
    pub fn new(tree: &JunctionTree) -> Self {
        Self::with_plan_capacity(tree, DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// Creates an engine whose plan cache retains at most `capacity`
    /// distinct query shapes (split across the cache's shards).
    #[must_use]
    pub fn with_plan_capacity(tree: &JunctionTree, capacity: usize) -> Self {
        Self {
            views: tree.rooted_views(),
            plans: ShardedLru::new(capacity.max(1)),
            marginals: ShardedLru::new(0),
            kernels: ShardedLru::new(capacity.max(1)),
            scratch: ScratchPool::default(),
            metrics: EngineMetrics::default(),
        }
    }

    /// The cached rooted views (computed once per root, on demand).
    #[must_use]
    pub fn rooted_views(&self) -> &RootedViews {
        &self.views
    }

    /// Enables the materialized-marginal LRU with the given capacity,
    /// dropping any previously cached marginals.
    pub fn enable_marginal_cache(&self, capacity: usize) {
        self.marginals.set_capacity(capacity.max(1));
        self.marginals.clear();
    }

    /// Disables (and drops) the materialized-marginal cache.
    pub fn disable_marginal_cache(&self) {
        self.marginals.set_capacity(0);
    }

    /// Drops cached materialized marginals **and lowered kernels** while
    /// keeping the caches enabled. Call after mutating the underlying
    /// factors (plans stay valid — they depend only on model structure;
    /// marginals and kernels are derived from factor contents).
    pub fn invalidate_marginals(&self) {
        self.marginals.clear();
        self.kernels.clear();
    }

    /// A snapshot of the cumulative operation counters.
    ///
    /// Reading is **non-destructive** — the counters keep accumulating
    /// across calls until [`QueryEngine::reset_trace`] zeroes them — and
    /// lock-free: counters are relaxed atomics, so a snapshot taken under
    /// concurrent queries has each field individually exact but no global
    /// atomic cut across fields.
    #[must_use]
    pub fn trace(&self) -> QueryTrace {
        self.metrics.snapshot()
    }

    /// Resets the cumulative counters to zero. Only this engine's local
    /// counters are affected; the process-wide telemetry registry (when
    /// enabled) stays cumulative.
    pub fn reset_trace(&self) {
        self.metrics.reset();
    }

    /// Fetches (or compiles and caches) the plan for `target`.
    fn plan_for(
        &self,
        tree: &JunctionTree,
        target: &AttrSet,
        loose: bool,
        trace: &mut QueryTrace,
    ) -> Result<CachedPlan, SynopsisError> {
        let key = PlanKey { attrs: target.clone(), loose };
        {
            let _lookup = dbhist_telemetry::span!("dbhist_query_plan_cache_lookup_latency_ns");
            if let Some(hit) = self.plans.get(&key) {
                trace.plan_cache_hits += 1;
                return Ok(hit);
            }
        }
        // Compile outside any shard lock: compilation is read-only over
        // the tree, so a racing duplicate compile is benign.
        let _compile = dbhist_telemetry::span!("dbhist_query_plan_compile_latency_ns");
        let compiled = if loose {
            CachedPlan::Mass(Arc::new(MassPlan::compile(tree, &self.views, target)?))
        } else {
            CachedPlan::Strict(Arc::new(MarginalPlan::compile(tree, &self.views, target)?))
        };
        trace.plan_cache_misses += 1;
        self.plans.insert(key, compiled.clone());
        Ok(compiled)
    }

    /// The clique indices the compiled (loose) estimation plan for
    /// `target` actually loads, sorted and deduplicated.
    ///
    /// This is the attribution set for executed-query feedback: an
    /// estimate only reflects the factors its plan reads, so error
    /// observations should land on exactly those cliques — not on every
    /// clique that happens to share an attribute with the query. (With
    /// cliques `{a,b}` and `{a,c}`, a query on `a` alone is answered
    /// from whichever clique the planner rooted at; blaming the other
    /// one would steer re-splitting toward a factor the estimate never
    /// consulted.) The kernel fast path lowers the same plan, so the
    /// compile-time load set is authoritative for every execution mode.
    ///
    /// # Errors
    ///
    /// Rejects targets the model does not cover.
    pub fn loaded_cliques(
        &self,
        tree: &JunctionTree,
        target: &AttrSet,
    ) -> Result<Vec<usize>, SynopsisError> {
        let mut t = QueryTrace::default();
        let CachedPlan::Mass(plan) = self.plan_for(tree, target, true, &mut t)? else {
            return Err(malformed("loose key resolved to a strict plan"));
        };
        let mut cliques: Vec<usize> = plan
            .groups()
            .iter()
            .flat_map(|g| g.plan.steps().iter())
            .filter_map(|s| match *s {
                PlanStep::Load { clique } => Some(clique),
                _ => None,
            })
            .collect();
        cliques.sort_unstable();
        cliques.dedup();
        Ok(cliques)
    }

    /// Computes the marginal factor over `target` through the plan cache
    /// (and the marginal cache, when enabled).
    ///
    /// # Errors
    ///
    /// Propagates factor-operation failures; rejects targets the model
    /// does not cover.
    pub fn marginal(
        &self,
        tree: &JunctionTree,
        factors: &[F],
        target: &AttrSet,
    ) -> Result<F, SynopsisError> {
        let mut t = QueryTrace::default();
        let key = PlanKey { attrs: target.clone(), loose: false };
        if let Some(cached) = self.marginals.get(&key) {
            t.marginal_cache_hits += 1;
            self.metrics.absorb(&t);
            return Ok(cached);
        }
        let result = (|| {
            let CachedPlan::Strict(plan) = self.plan_for(tree, target, false, &mut t)? else {
                return Err(malformed("strict key resolved to a mass plan"));
            };
            let out = match execute_marginal(&plan, factors, &mut t)? {
                Cow::Borrowed(f) => {
                    t.factor_clones += 1;
                    f.clone()
                }
                Cow::Owned(f) => f,
            };
            if self.marginals.enabled() {
                t.marginal_cache_misses += 1;
                t.factor_clones += 1;
                self.marginals.insert(key, out.clone());
            }
            Ok(out)
        })();
        self.metrics.absorb(&t);
        result
    }

    /// Estimates the frequency mass of the marginal over `target` inside
    /// the conjunctive `query`, through the lowered-kernel cache, the
    /// plan cache, and the per-group marginal cache (when enabled).
    ///
    /// The kernel cache is consulted first: a hit answers the query from
    /// flat arrays with pooled scratch and touches no plan, factor, or
    /// tree. A kernel exists only after a prior execution of the same
    /// shape lowered every group bit-identically, so the fast path cannot
    /// change any estimate (pinned by `tests/plan_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// Propagates factor-operation failures; rejects targets the model
    /// does not cover.
    pub fn estimate_mass(
        &self,
        tree: &JunctionTree,
        factors: &[F],
        target: &AttrSet,
        query: &Query,
    ) -> Result<f64, SynopsisError> {
        self.estimate_mass_probed(tree, factors, target, query, &mut NoProbe)
    }

    /// [`QueryEngine::estimate_mass`] with an [`ExplainReport`] of the
    /// actual execution: the resolved path, per-step timings, layout and
    /// shed decisions, and scratch reuse.
    ///
    /// The returned estimate is bit-identical to the plain call — the
    /// recording probe observes without touching any operand (pinned by
    /// a proptest in `tests/plan_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// Propagates factor-operation failures; rejects targets the model
    /// does not cover.
    pub fn estimate_mass_explained(
        &self,
        tree: &JunctionTree,
        factors: &[F],
        target: &AttrSet,
        query: &Query,
    ) -> Result<(f64, ExplainReport), SynopsisError> {
        let started = Instant::now();
        let mut probe = ExplainRecorder::new(target);
        let mass = self.estimate_mass_probed(tree, factors, target, query, &mut probe)?;
        let total_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Ok((mass, probe.finish(mass, total_ns)))
    }

    /// The probed body behind [`QueryEngine::estimate_mass`] (instantiated
    /// with [`NoProbe`]) and [`QueryEngine::estimate_mass_explained`]
    /// (instantiated with a recorder). Probe sites are gated on
    /// `P::ACTIVE`, so the unprobed monomorphization is the pre-explain
    /// code.
    fn estimate_mass_probed<P: ExplainProbe>(
        &self,
        tree: &JunctionTree,
        factors: &[F],
        target: &AttrSet,
        query: &Query,
        probe: &mut P,
    ) -> Result<f64, SynopsisError> {
        // Inert unless telemetry is on (or a span collector is
        // installed): the registry's per-query latency histogram
        // (`dbhist_query_estimate_latency_ns`) is fed by this guard.
        let _span = dbhist_telemetry::span!("dbhist_query_estimate_latency_ns");
        if dbhist_telemetry::enabled() {
            wellknown().query_estimates.increment();
        }
        let ranges = query.ranges();
        let mut t = QueryTrace::default();
        let kernel_key = PlanKey { attrs: target.clone(), loose: true };
        if let Some(kernel) = self.kernels.get(&kernel_key) {
            t.kernel_hits += 1;
            if P::ACTIVE {
                probe.resolved_path(QueryPath::KernelHit);
                probe.kernel_lowered(true);
                for group in kernel.groups() {
                    probe.layout(group);
                }
            }
            let mut scratch;
            if P::ACTIVE {
                let (tracked, reused) = self.scratch.acquire_tracked();
                probe.scratch(reused);
                scratch = tracked;
            } else {
                scratch = self.scratch.acquire();
            }
            let mass = kernel.evaluate_ranges_probed(ranges, &mut scratch, probe);
            self.scratch.release(scratch);
            self.metrics.absorb(&t);
            return Ok(mass);
        }
        let result = (|| {
            let hits_before = t.plan_cache_hits;
            let CachedPlan::Mass(plan) = self.plan_for(tree, target, true, &mut t)? else {
                return Err(malformed("loose key resolved to a strict plan"));
            };
            if P::ACTIVE {
                probe.resolved_path(if t.plan_cache_hits > hits_before {
                    QueryPath::PlanCacheHit
                } else {
                    QueryPath::PlanCompiled
                });
            }
            let total = factors.first().map_or(0.0, Factor::total);
            let mut mass = total;
            // Lower each group's loose marginal as it is produced; a
            // kernel is cached only when *every* group lowers (otherwise
            // the representation has no bit-identical flat form and the
            // engine keeps executing this plan directly).
            let mut lowered: Vec<TreeIndex> = Vec::with_capacity(plan.groups().len());
            let mut lowerable = true;
            for group in plan.groups() {
                if P::ACTIVE {
                    probe.group(&group.attrs);
                }
                let group_key = PlanKey { attrs: group.attrs.clone(), loose: true };
                let mut from_cache = false;
                let group_mass = if self.marginals.enabled() {
                    if let Some(f) = self.marginals.get(&group_key) {
                        t.marginal_cache_hits += 1;
                        from_cache = true;
                        if lowerable {
                            match f.lower_index() {
                                Some(ix) => lowered.push(ix),
                                None => lowerable = false,
                            }
                        }
                        f.mass_in_box(ranges)
                    } else {
                        t.marginal_cache_misses += 1;
                        let cow = execute_marginal_probed(&group.plan, factors, &mut t, probe)?;
                        let owned = match cow {
                            Cow::Borrowed(f) => {
                                t.factor_clones += 1;
                                f.clone()
                            }
                            Cow::Owned(f) => f,
                        };
                        if lowerable {
                            match owned.lower_index() {
                                Some(ix) => lowered.push(ix),
                                None => lowerable = false,
                            }
                        }
                        let gm = owned.mass_in_box(ranges);
                        self.marginals.insert(group_key, owned);
                        gm
                    }
                } else {
                    let loose = execute_marginal_probed(&group.plan, factors, &mut t, probe)?;
                    if lowerable {
                        match loose.lower_index() {
                            Some(ix) => lowered.push(ix),
                            None => lowerable = false,
                        }
                    }
                    loose.mass_in_box(ranges)
                };
                if P::ACTIVE {
                    probe.group_mass(group_mass, from_cache);
                }
                if total > 0.0 {
                    mass *= group_mass / total;
                } else {
                    return Ok(0.0);
                }
            }
            if lowerable {
                for ix in &lowered {
                    match ix.layout() {
                        IndexLayout::Dense => t.kernel_lowered_dense += 1,
                        IndexLayout::Sparse => t.kernel_lowered_sparse += 1,
                    }
                    if P::ACTIVE {
                        probe.layout(ix);
                    }
                }
                self.kernels.insert(kernel_key, Arc::new(MassKernel::new(total, lowered)));
            } else {
                t.kernel_fallbacks += 1;
            }
            if P::ACTIVE {
                probe.kernel_lowered(lowerable);
            }
            Ok(mass)
        })();
        self.metrics.absorb(&t);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::ExactFactor;
    use crate::marginal::{compute_marginal_interpreted, estimate_mass_interpreted};
    use dbhist_distribution::{Relation, Schema};
    use dbhist_model::{DecomposableModel, MarkovGraph};

    /// 5 attributes with chain dependencies 0-1, 1-2, plus pair 3-4 (the
    /// same fixture as `crate::marginal`'s tests).
    fn relation() -> Relation {
        let schema = Schema::new(vec![("a", 4), ("b", 4), ("c", 4), ("d", 3), ("e", 3)]).unwrap();
        let mut rows = Vec::new();
        let mut state = 988_777u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2500 {
            let a = (next() % 4) as u32;
            let b = if next() % 3 == 0 { (next() % 4) as u32 } else { a };
            let c = if next() % 3 == 0 { (next() % 4) as u32 } else { b };
            let d = (next() % 3) as u32;
            let e = if next() % 4 == 0 { (next() % 3) as u32 } else { d };
            rows.push(vec![a, b, c, d, e]);
        }
        Relation::from_rows(schema, rows).unwrap()
    }

    fn model(rel: &Relation) -> DecomposableModel {
        let g = MarkovGraph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        DecomposableModel::new(rel.schema().clone(), g).unwrap()
    }

    fn exact_factors(rel: &Relation, m: &DecomposableModel) -> Vec<ExactFactor> {
        m.cliques().iter().map(|c| ExactFactor(rel.marginal(c).unwrap())).collect()
    }

    fn targets() -> Vec<AttrSet> {
        vec![
            AttrSet::from_ids([0]),
            AttrSet::from_ids([0, 1]),
            AttrSet::from_ids([0, 2]),
            AttrSet::from_ids([0, 4]),
            AttrSet::from_ids([2, 3]),
            AttrSet::from_ids([0, 2, 4]),
            AttrSet::from_ids([0, 1, 2, 3, 4]),
        ]
    }

    #[test]
    fn planned_marginal_is_bit_identical_to_interpreter() {
        let rel = relation();
        let m = model(&rel);
        let factors = exact_factors(&rel, &m);
        let tree = m.junction_tree();
        let views = tree.rooted_views();
        for target in targets() {
            let plan = MarginalPlan::compile(tree, &views, &target).unwrap();
            let mut trace = QueryTrace::default();
            let planned = execute_marginal(&plan, &factors, &mut trace).unwrap();
            let (interp, stats) = compute_marginal_interpreted(tree, &factors, &target).unwrap();
            assert_eq!(planned.attrs(), interp.attrs(), "{target}");
            for (k, v) in interp.0.iter() {
                let got = planned.0.frequency(k);
                assert_eq!(got.to_bits(), v.to_bits(), "{target}: key {k:?}: {got} vs {v}");
            }
            // Operation counts match the interpreter's accounting.
            assert_eq!(trace.products, stats.products, "{target}");
            assert_eq!(trace.projections + trace.sheds, stats.projections, "{target}");
        }
    }

    #[test]
    fn planned_mass_is_bit_identical_to_interpreter() {
        let rel = relation();
        let m = model(&rel);
        let factors = exact_factors(&rel, &m);
        let tree = m.junction_tree();
        let views = tree.rooted_views();
        let queries: Vec<Vec<(u16, u32, u32)>> = vec![
            vec![(0, 0, 1)],
            vec![(0, 0, 2), (2, 1, 3)],
            vec![(0, 1, 2), (3, 0, 1), (4, 1, 2)],
            vec![(1, 2, 2), (4, 0, 0)],
            vec![(0, 0, 3), (1, 0, 3), (2, 0, 3), (3, 0, 2), (4, 0, 2)],
        ];
        for ranges in queries {
            let target = AttrSet::from_ids(ranges.iter().map(|r| r.0));
            let query = Query::from(ranges);
            let plan = MassPlan::compile(tree, &views, &target).unwrap();
            let mut trace = QueryTrace::default();
            let planned = execute_mass(&plan, &factors, &query, &mut trace).unwrap();
            let interp = estimate_mass_interpreted(tree, &factors, &target, &query).unwrap();
            assert_eq!(planned.to_bits(), interp.to_bits(), "{query:?}: {planned} vs {interp}");
        }
    }

    #[test]
    fn single_clique_plan_borrows_without_cloning() {
        let rel = relation();
        let m = model(&rel);
        let factors = exact_factors(&rel, &m);
        let tree = m.junction_tree();
        let views = tree.rooted_views();
        // {0,1} is exactly a clique of the chain model: the plan is a bare
        // load and the executed result borrows the stored factor.
        let target = AttrSet::from_ids([0, 1]);
        let plan = MarginalPlan::compile(tree, &views, &target).unwrap();
        assert_eq!(plan.steps().len(), 1, "{:?}", plan.steps());
        let mut trace = QueryTrace::default();
        let result = execute_marginal(&plan, &factors, &mut trace).unwrap();
        assert!(matches!(result, Cow::Borrowed(_)));
        assert_eq!(trace.products, 0);
        assert_eq!(trace.projections, 0);
        assert_eq!(trace.factor_clones, 0);
        assert_eq!(trace.clique_loads, 1);
    }

    #[test]
    fn uncovered_attribute_fails_compilation() {
        let rel = relation();
        let m = model(&rel);
        let tree = m.junction_tree();
        let views = tree.rooted_views();
        let bad = AttrSet::from_ids([0, 9]);
        assert!(MarginalPlan::compile(tree, &views, &bad).is_err());
        assert!(MassPlan::compile(tree, &views, &bad).is_err());
    }

    #[test]
    fn engine_caches_plans_and_marginals_bit_identically() {
        let rel = relation();
        let m = model(&rel);
        let factors = exact_factors(&rel, &m);
        let tree = m.junction_tree();
        let engine: QueryEngine<ExactFactor> = QueryEngine::new(tree);
        let target = AttrSet::from_ids([0, 2, 4]);
        let query = Query::range(0, 0, 2).and(2, 1, 3).and(4, 0, 1);

        let cold = engine.estimate_mass(tree, &factors, &target, &query).unwrap();
        let t0 = engine.trace();
        assert_eq!(t0.plan_cache_misses, 1);
        assert_eq!(t0.plan_cache_hits, 0);

        let warm = engine.estimate_mass(tree, &factors, &target, &query).unwrap();
        let t1 = engine.trace();
        assert_eq!(t1.plan_cache_hits, 1, "second identical query must hit the plan cache");
        assert_eq!(cold.to_bits(), warm.to_bits(), "plan-cache hit must be bit-identical");

        // Enable the marginal cache: first query materializes, second
        // skips execution entirely.
        engine.enable_marginal_cache(8);
        let seeded = engine.estimate_mass(tree, &factors, &target, &query).unwrap();
        let t2 = engine.trace();
        assert!(t2.marginal_cache_misses >= 1);
        let cached = engine.estimate_mass(tree, &factors, &target, &query).unwrap();
        let t3 = engine.trace();
        assert!(t3.marginal_cache_hits >= 1, "repeat must hit the marginal cache: {t3:?}");
        assert_eq!(
            t3.products, t2.products,
            "marginal-cache hit must not execute any factor products"
        );
        assert_eq!(seeded.to_bits(), cold.to_bits());
        assert_eq!(cached.to_bits(), cold.to_bits(), "marginal-cache hit must be bit-identical");

        // Invalidation drops materialized marginals but keeps plans.
        engine.invalidate_marginals();
        let after = engine.estimate_mass(tree, &factors, &target, &query).unwrap();
        assert_eq!(after.to_bits(), cold.to_bits());
        let t4 = engine.trace();
        assert_eq!(t4.plan_cache_misses, 1, "plans survive marginal invalidation");
    }

    #[test]
    fn engine_repeated_identity_workload_never_clones() {
        let rel = relation();
        let m = model(&rel);
        let factors = exact_factors(&rel, &m);
        let tree = m.junction_tree();
        let engine: QueryEngine<ExactFactor> = QueryEngine::new(tree);
        // Both targets live inside single cliques: execution is pure
        // borrowing — zero factor clones across the whole workload.
        let workload: Vec<Vec<(u16, u32, u32)>> = (0..32)
            .map(|i| {
                if i % 2 == 0 {
                    vec![(0u16, 0u32, i % 4), (1, 0, 3)]
                } else {
                    vec![(3u16, 0u32, i % 3), (4, 0, 2)]
                }
            })
            .collect();
        for q in &workload {
            let target = AttrSet::from_ids(q.iter().map(|r| r.0));
            let query = Query::from(q.as_slice());
            engine.estimate_mass(tree, &factors, &target, &query).unwrap();
        }
        let t = engine.trace();
        assert_eq!(t.factor_clones, 0, "identity workload must not clone factors: {t:?}");
        assert_eq!(t.products, 0);
        assert_eq!(t.projections, 0);
        assert_eq!(t.plan_cache_misses, 2, "two distinct shapes");
        assert_eq!(t.plan_cache_hits, 30, "every repeat hits the plan cache");
        assert_eq!(t.clique_loads, 32);
    }

    #[test]
    fn engine_marginal_matches_free_function_and_caches() {
        let rel = relation();
        let m = model(&rel);
        let factors = exact_factors(&rel, &m);
        let tree = m.junction_tree();
        let engine: QueryEngine<ExactFactor> = QueryEngine::new(tree);
        engine.enable_marginal_cache(4);
        let target = AttrSet::from_ids([0, 2]);
        let a = engine.marginal(tree, &factors, &target).unwrap();
        let b = engine.marginal(tree, &factors, &target).unwrap();
        let t = engine.trace();
        assert_eq!(t.marginal_cache_hits, 1);
        let (interp, _) = compute_marginal_interpreted(tree, &factors, &target).unwrap();
        for (k, v) in interp.0.iter() {
            assert_eq!(a.0.frequency(k).to_bits(), v.to_bits());
            assert_eq!(b.0.frequency(k).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn engine_kernel_path_is_bit_identical_and_skips_plan_execution() {
        use dbhist_histogram::mhist::MhistBuilder;
        use dbhist_histogram::{SplitCriterion, SplitTree};
        let rel = relation();
        let m = model(&rel);
        let tree = m.junction_tree();
        let factors: Vec<SplitTree> = m
            .cliques()
            .iter()
            .map(|c| {
                MhistBuilder::build(&rel.marginal(c).unwrap(), 32, SplitCriterion::MaxDiff).unwrap()
            })
            .collect();
        let engine: QueryEngine<SplitTree> = QueryEngine::new(tree);
        let target = AttrSet::from_ids([0, 2, 4]);
        let query = Query::range(0, 0, 2).and(2, 1, 3).and(4, 0, 1);

        let cold = engine.estimate_mass(tree, &factors, &target, &query).unwrap();
        let t0 = engine.trace();
        assert_eq!(t0.kernel_hits, 0);
        assert!(t0.kernel_lowered_dense + t0.kernel_lowered_sparse >= 1, "{t0:?}");
        assert_eq!(t0.kernel_fallbacks, 0, "split trees always lower: {t0:?}");

        let warm = engine.estimate_mass(tree, &factors, &target, &query).unwrap();
        let t1 = engine.trace();
        assert_eq!(t1.kernel_hits, 1, "repeat shape must hit the kernel: {t1:?}");
        assert_eq!(t1.clique_loads, t0.clique_loads, "kernel hit must not touch factors");
        assert_eq!(warm.to_bits(), cold.to_bits(), "kernel hit must be bit-identical");

        // A *different* query over the same shape rides the kernel and
        // still matches direct plan execution bit-for-bit.
        let query2 = Query::range(0, 1, 3).and(2, 0, 2).and(4, 1, 2);
        let via_kernel = engine.estimate_mass(tree, &factors, &target, &query2).unwrap();
        let views = tree.rooted_views();
        let plan = MassPlan::compile(tree, &views, &target).unwrap();
        let mut trace = QueryTrace::default();
        let direct = execute_mass(&plan, &factors, &query2, &mut trace).unwrap();
        assert_eq!(via_kernel.to_bits(), direct.to_bits());

        // Invalidation drops kernels; the next query re-lowers.
        engine.invalidate_marginals();
        let again = engine.estimate_mass(tree, &factors, &target, &query).unwrap();
        assert_eq!(again.to_bits(), cold.to_bits());
        let t2 = engine.trace();
        assert!(
            t2.kernel_lowered_dense + t2.kernel_lowered_sparse
                > t1.kernel_lowered_dense + t1.kernel_lowered_sparse,
            "invalidation must force a re-lowering: {t2:?}"
        );
    }

    #[test]
    fn engine_is_callable_from_many_threads_through_shared_ref() {
        let rel = relation();
        let m = model(&rel);
        let factors = exact_factors(&rel, &m);
        let tree = m.junction_tree();
        let engine: QueryEngine<ExactFactor> = QueryEngine::new(tree);
        engine.enable_marginal_cache(16);
        let queries: Vec<Vec<(u16, u32, u32)>> = vec![
            vec![(0, 0, 1)],
            vec![(0, 0, 2), (2, 1, 3)],
            vec![(0, 1, 2), (3, 0, 1), (4, 1, 2)],
            vec![(1, 2, 2), (4, 0, 0)],
        ];
        // Serial reference answers.
        let expected: Vec<f64> = queries
            .iter()
            .map(|q| {
                let target = AttrSet::from_ids(q.iter().map(|r| r.0));
                engine.estimate_mass(tree, &factors, &target, &Query::from(q.as_slice())).unwrap()
            })
            .collect();
        // Four threads hammer the same engine through `&self`; every
        // answer must stay bit-identical to the serial pass.
        std::thread::scope(|s| {
            for _ in 0..4 {
                let engine = &engine;
                let factors = &factors;
                let queries = &queries;
                let expected = &expected;
                s.spawn(move || {
                    for round in 0..25 {
                        let i = round % queries.len();
                        let q = &queries[i];
                        let target = AttrSet::from_ids(q.iter().map(|r| r.0));
                        let query = Query::from(q.as_slice());
                        let got = engine.estimate_mass(tree, factors, &target, &query).unwrap();
                        assert_eq!(got.to_bits(), expected[i].to_bits(), "query {i}");
                    }
                });
            }
        });
    }
}
