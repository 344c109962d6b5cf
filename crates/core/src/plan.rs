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
//!    only genuine products and projections materialize new factors. A
//!    mass plan executes through one group fold inside the engine;
//!    [`QueryEngine::estimate_mass`] is the only way to run one. The
//!    engine's executions also hash-cons every operand they produce
//!    into an expression table, so each group has an **expression key**
//!    naming the operations that actually ran.
//! 3. **Workload cache** — [`QueryEngine`] keeps one bounded
//!    [`ShardedLru`] entry per query shape, keyed by the canonical
//!    [`AttrSet`] and holding the compiled [`MassPlan`] and, once
//!    lowered, its kernel. Each query probes it once. Every operation is
//!    counted in a [`QueryTrace`] for tests, benches, and production
//!    introspection; each counter is declared once, in the
//!    `query_counters!` table.
//! 4. **Lowered kernels** — for factor representations with a
//!    bit-identical lowering ([`Factor::lower_index`]), the first
//!    execution of a mass-plan shape lowers each group's loose marginal
//!    into a flattened [`MassKernel`](crate::kernel::MassKernel) stored in
//!    the shape's entry; every subsequent query with that shape skips
//!    plan execution *and* `mass_in_box` tree recursion, answering from
//!    one flat slot array with pooled scratch ([`crate::scratch`]) — no
//!    per-query allocation. This is the flat tree-like bucket index of
//!    Buccafurri et al., "Enhancing Histograms by Tree-Like Bucket
//!    Indices". Group lowerings are shared across shapes by expression
//!    key through a table of `Weak` references, and a miss whose group
//!    key resolves symbolically to a live lowering walks it instead of
//!    executing the group.
//!
//! Planned execution is *operation-identical* to the recursive
//! interpreter ([`crate::marginal::compute_marginal_interpreted`]): the
//! same products, projections, and shed decisions run in the same order
//! on the same operands, so results match bit-for-bit (property-tested in
//! `tests/plan_equivalence.rs`).

use std::borrow::Cow;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};
use std::time::Instant;

use dbhist_distribution::fxhash::FxHashMap;
use dbhist_distribution::{AttrSet, Schema};
use dbhist_histogram::{IndexLayout, TreeIndex};
use dbhist_model::junction::{RootedJunctionTree, RootedViews};
use dbhist_model::JunctionTree;
use dbhist_telemetry::registry::Counter;
use dbhist_telemetry::wellknown::wellknown;

use crate::error::SynopsisError;
use crate::evaluate::{components, estimate_mass_with, EvalScratch};
use crate::explain::{
    ExplainProbe, ExplainRecorder, ExplainReport, NoProbe, QueryPath, ShedSkip, StepKind,
};
use crate::factor::Factor;
use crate::kernel::MassKernel;
use crate::query::Query;
use crate::scratch::ScratchPool;
use crate::sharded::{lock, ShardedLru};

/// Intermediate factors larger than this skip "tidying" (shed)
/// projections: carrying a few extra attributes through `mass_in_box` is
/// linear in the factor size, while the projection overlay can be
/// quadratic.
pub const SHED_LIMIT: usize = 2048;

/// Capacity of a [`QueryEngine`]'s shape cache (distinct query
/// attribute-set shapes retained, each with its plan and kernel).
pub const PLAN_CACHE_CAPACITY: usize = 256;

fn to_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Declares every per-query counter exactly once. Each row names a
/// [`QueryTrace`] field, its doc, and the process-wide `dbhist_query_*`
/// counter(s) it is mirrored into; the macro generates `QueryTrace` and
/// its `absorb`, and the engine's lock-free `EngineMetrics` with its
/// `add`, `snapshot`, `reset`, and global mirror. Adding a counter is a
/// one-row edit.
macro_rules! query_counters {
    ($($(#[$doc:meta])+ $field:ident => $($metric:literal),+;)+) => {
        /// Operation counters for the plan-based query path: per-step
        /// execution counts plus shape-cache and kernel hit/miss
        /// counters. Counters are cumulative where the engine accumulates
        /// them (see [`QueryEngine::trace`]) and per-call where an
        /// executor fills a fresh one.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct QueryTrace {
            $($(#[$doc])+ pub $field: usize,)+
        }

        impl QueryTrace {
            /// Adds every counter of `other` into `self`.
            pub fn absorb(&mut self, other: &Self) {
                $(self.$field += other.$field;)+
            }

            /// Every counter as a `(field name, value)` pair, in
            /// declaration order.
            #[must_use]
            pub fn fields(&self) -> Vec<(&'static str, usize)> {
                vec![$((stringify!($field), self.$field)),+]
            }
        }

        /// The engine's cumulative counters, one lock-free [`Counter`]
        /// per [`QueryTrace`] field. Executors still fill a local
        /// `QueryTrace` (exact, single-threaded accounting); the engine
        /// absorbs it here with relaxed `fetch_add`s, so concurrent
        /// queries never serialize on a trace mutex.
        #[derive(Debug, Default)]
        struct EngineMetrics {
            $($field: Counter,)+
        }

        impl EngineMetrics {
            /// Adds a per-call trace into the cumulative counters,
            /// touching only the counters it moves.
            fn add(&self, t: &QueryTrace) {
                $(if t.$field != 0 {
                    self.$field.add(to_u64(t.$field));
                })+
            }

            /// Reads the counters into a [`QueryTrace`] value.
            /// Non-destructive: reading never changes the counters. Each
            /// field is individually exact; under concurrent absorption
            /// the fields may reflect different instants (no global
            /// atomic cut).
            fn snapshot(&self) -> QueryTrace {
                QueryTrace {
                    $($field: usize::try_from(self.$field.value()).unwrap_or(usize::MAX),)+
                }
            }

            fn reset(&self) {
                $(self.$field.reset();)+
            }
        }

        /// Mirrors a per-call trace into the process-wide `dbhist_query_*`
        /// counters, registered on first use.
        fn mirror_globally(t: &QueryTrace) {
            static GLOBAL: OnceLock<Vec<(Arc<Counter>, fn(&QueryTrace) -> usize)>> =
                OnceLock::new();
            let global = GLOBAL.get_or_init(|| {
                let r = dbhist_telemetry::registry::global();
                vec![$($((r.counter($metric), |t: &QueryTrace| t.$field),)+)+]
            });
            for (counter, count) in global {
                counter.add(to_u64(count(t)));
            }
        }
    };
}

query_counters! {
    /// Factor multiplications performed.
    products => "dbhist_query_products_total";
    /// Proper (non-identity) projections performed.
    projections => "dbhist_query_projections_total";
    /// Identity projections resolved as zero-clone borrows.
    identity_projections => "dbhist_query_identity_projections_total";
    /// Shed (tidying) projections applied.
    sheds => "dbhist_query_sheds_total";
    /// Shed steps skipped (factor too large, already tidy, or nothing to
    /// keep).
    sheds_skipped => "dbhist_query_sheds_skipped_total";
    /// Clique factors loaded by borrow (never cloned).
    clique_loads => "dbhist_query_clique_loads_total";
    /// Queries that found their shape cached without a kernel and
    /// executed the cached plan.
    plan_cache_hits => "dbhist_query_plan_cache_hits_total";
    /// Queries that had to compile a fresh plan (every miss compiles
    /// exactly one).
    plan_cache_misses =>
        "dbhist_query_plan_cache_misses_total", "dbhist_query_plans_compiled_total";
    /// Queries answered entirely by a lowered [`crate::kernel::MassKernel`]
    /// (no plan execution, no tree recursion).
    kernel_hits => "dbhist_query_kernel_hits_total";
    /// Group marginals lowered into dense flat indices.
    kernel_lowered_dense => "dbhist_query_kernel_lowered_dense_total";
    /// Group marginals lowered into sparse (zero-subtree-collapsed) flat
    /// indices.
    kernel_lowered_sparse => "dbhist_query_kernel_lowered_sparse_total";
    /// Group lowerings a new kernel took from another cached shape whose
    /// group executed the same expression (not counted as lowered).
    kernel_groups_shared => "dbhist_query_kernel_groups_shared_total";
    /// Mass-plan executions that could not lower every group (factor
    /// representation has no bit-identical lowering); the engine keeps
    /// executing those plans directly.
    kernel_fallbacks => "dbhist_query_kernel_fallbacks_total";
    /// Queries answered by range-restricted sum-product
    /// ([`crate::evaluate`]) instead of a plan or kernel.
    evaluations => "dbhist_query_evaluations_total";
}

impl EngineMetrics {
    /// Adds a per-call trace into the cumulative counters and, when
    /// global telemetry is enabled ([`dbhist_telemetry::set_enabled`]),
    /// into the process-wide `dbhist_query_*` metrics as well.
    fn absorb(&self, t: &QueryTrace) {
        self.add(t);
        if dbhist_telemetry::enabled() {
            mirror_globally(t);
        }
    }
}

impl Clone for EngineMetrics {
    fn clone(&self) -> Self {
        let fresh = Self::default();
        fresh.add(&self.snapshot());
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
    execute_keyed(plan, factors, trace, &mut NoProbe, |_, _, _| 0).map(|(result, _)| result)
}

/// The shed gate the executor applies at runtime (and the expression
/// resolver replays): the cut `keep ∩ attrs` to project onto, or why the
/// shed is skipped, checked in this order.
fn shed_cut(keep: &AttrSet, attrs: &AttrSet, len: usize) -> Result<AttrSet, ShedSkip> {
    let mut cut = keep.clone();
    cut.intersect_with(attrs);
    if cut.is_empty() {
        Err(ShedSkip::NothingToKeep)
    } else if &cut == attrs {
        Err(ShedSkip::AlreadyTidy)
    } else if len > SHED_LIMIT {
        Err(ShedSkip::TooLarge)
    } else {
        Ok(cut)
    }
}

/// One operand of the executor's stack: the factor, its expression key,
/// and its `len_hint`.
struct Operand<'a, F: Clone> {
    factor: Cow<'a, F>,
    key: ExprId,
    len: usize,
}

impl<F: Factor> Operand<'_, F> {
    /// An operand `expr` materialized, interned under its key.
    fn owned(
        expr: Expr,
        factor: F,
        intern: &mut impl FnMut(Expr, &AttrSet, usize) -> ExprId,
    ) -> Self {
        let len = factor.len_hint();
        let key = intern(expr, factor.attrs(), len);
        Self { factor: Cow::Owned(factor), key, len }
    }
}

/// The one plan executor behind [`execute_marginal`] and the engine:
/// runs the steps and names every operand it produces through
/// `intern(operation, attrs, len_hint)`, returning the result with its
/// expression key. Skipped sheds and identity projections change no
/// operand, so they intern nothing.
///
/// With [`NoProbe`] every probe site is compiled out — `P::ACTIVE` is a
/// monomorphization-time constant — so the unprobed path carries no
/// clock reads or recording. Probes observe only; operands and results
/// are untouched, keeping explained execution bit-identical.
fn execute_keyed<'a, F: Factor, P: ExplainProbe>(
    plan: &MarginalPlan,
    factors: &'a [F],
    trace: &mut QueryTrace,
    probe: &mut P,
    mut intern: impl FnMut(Expr, &AttrSet, usize) -> ExprId,
) -> Result<(Cow<'a, F>, ExprId), SynopsisError> {
    let _span = dbhist_telemetry::span!("dbhist_query_plan_exec_latency_ns");
    let mut stack: Vec<Operand<'a, F>> = Vec::new();
    for step in plan.steps() {
        let started = if P::ACTIVE { Some(Instant::now()) } else { None };
        let kind = match step {
            PlanStep::Load { clique } => {
                let f =
                    factors.get(*clique).ok_or_else(|| malformed("clique index out of range"))?;
                trace.clique_loads += 1;
                let len = f.len_hint();
                let key = intern(Expr::Load(*clique), f.attrs(), len);
                stack.push(Operand { factor: Cow::Borrowed(f), key, len });
                StepKind::Load { clique: *clique }
            }
            PlanStep::Project { attrs } => {
                let top = stack.last_mut().ok_or_else(|| malformed("project on empty stack"))?;
                if top.factor.attrs() == attrs {
                    trace.identity_projections += 1;
                    StepKind::IdentityProject
                } else {
                    trace.projections += 1;
                    let projected = top.factor.project(attrs)?;
                    *top = Operand::owned(
                        Expr::Project(top.key, attrs.clone()),
                        projected,
                        &mut intern,
                    );
                    StepKind::Project
                }
            }
            PlanStep::Product => {
                let rhs = stack.pop().ok_or_else(|| malformed("product on empty stack"))?;
                let lhs = stack.pop().ok_or_else(|| malformed("product on 1-operand stack"))?;
                trace.products += 1;
                let product = lhs.factor.product(&rhs.factor)?;
                stack.push(Operand::owned(Expr::Product(lhs.key, rhs.key), product, &mut intern));
                StepKind::Product
            }
            PlanStep::Shed { keep } => {
                let top = stack.last_mut().ok_or_else(|| malformed("shed on empty stack"))?;
                match shed_cut(keep, top.factor.attrs(), top.len) {
                    Err(skip) => {
                        trace.sheds_skipped += 1;
                        StepKind::ShedSkipped(skip)
                    }
                    Ok(cut) => {
                        trace.sheds += 1;
                        let projected = top.factor.project(&cut)?;
                        *top = Operand::owned(Expr::Project(top.key, cut), projected, &mut intern);
                        StepKind::Shed
                    }
                }
            }
        };
        if P::ACTIVE {
            let ns =
                started.map_or(0, |t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
            probe.step(kind, ns, stack.last().map_or(0, |top| top.len));
        }
    }
    let result = stack.pop().ok_or_else(|| malformed("empty plan"))?;
    if !stack.is_empty() {
        return Err(malformed("leftover operands"));
    }
    Ok((result.factor, result.key))
}

/// Index of an interned [`Expr`] in an [`ExprTable`].
type ExprId = usize;

/// One factor operation a group execution actually ran, over interned
/// operands: a node of a group's **expression key**. A fired shed is the
/// projection it runs. A group's loose marginal is a deterministic
/// function of its expression over the same factors, so equal keys mean
/// bit-identical marginals and lowerings.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Expr {
    /// A clique's stored factor.
    Load(usize),
    /// A proper projection of an operand.
    Project(ExprId, AttrSet),
    /// `lhs.product(rhs)`.
    Product(ExprId, ExprId),
}

/// What execution observed of an interned expression's result: the
/// inputs of the shed gate ([`shed_cut`]).
#[derive(Debug)]
struct Observed {
    attrs: AttrSet,
    len: usize,
}

/// The engine's hash-consed expressions: every operand an execution
/// produced, what it observed of each, and one `Weak` group lowering per
/// expression key that some cached shape's kernel holds. Interning
/// happens only on execution, so every id has an observation, and a
/// lowering lives exactly as long as a cached shape holds it. Valid for
/// the factors it observed: [`QueryEngine::invalidate_kernels`] clears
/// it.
#[derive(Debug, Default)]
struct ExprTable {
    ids: FxHashMap<Expr, ExprId>,
    observed: Vec<Observed>,
    lowerings: FxHashMap<ExprId, Weak<TreeIndex>>,
}

impl ExprTable {
    /// The id of `expr`, interning it with the observed `attrs` and `len`
    /// on first sight.
    fn intern(&mut self, expr: Expr, attrs: &AttrSet, len: usize) -> ExprId {
        let next = self.observed.len();
        let observed = &mut self.observed;
        *self.ids.entry(expr).or_insert_with(|| {
            observed.push(Observed { attrs: attrs.clone(), len });
            next
        })
    }

    /// The live lowering of the expression `steps` would execute,
    /// resolved without running a factor operation: attribute sets and
    /// shed decisions replay the executor from what earlier executions
    /// observed. `None` when some operand was never executed or no cached
    /// shape holds the lowering.
    fn resolve(&self, steps: &[PlanStep]) -> Option<Arc<TreeIndex>> {
        let id = |expr: Expr| self.ids.get(&expr).copied();
        let mut stack: Vec<ExprId> = Vec::new();
        for step in steps {
            match step {
                PlanStep::Load { clique } => stack.push(id(Expr::Load(*clique))?),
                PlanStep::Project { attrs } => {
                    let top = stack.last_mut()?;
                    if &self.observed[*top].attrs != attrs {
                        *top = id(Expr::Project(*top, attrs.clone()))?;
                    }
                }
                PlanStep::Product => {
                    let rhs = stack.pop()?;
                    let lhs = stack.pop()?;
                    stack.push(id(Expr::Product(lhs, rhs))?);
                }
                PlanStep::Shed { keep } => {
                    let top = stack.last_mut()?;
                    let seen = &self.observed[*top];
                    if let Ok(cut) = shed_cut(keep, &seen.attrs, seen.len) {
                        *top = id(Expr::Project(*top, cut))?;
                    }
                }
            }
        }
        let key = stack.pop()?;
        if !stack.is_empty() {
            return None;
        }
        self.lowerings.get(&key)?.upgrade()
    }

    /// Publishes `index`, the lowering of expression `key`, and returns
    /// the group to hold: a live lowering another worker published first
    /// (`true`), else `index` itself. Dead entries are pruned on insert.
    fn publish(&mut self, key: ExprId, index: TreeIndex) -> (Arc<TreeIndex>, bool) {
        if let Some(live) = self.lowerings.get(&key).and_then(Weak::upgrade) {
            return (live, true);
        }
        self.lowerings.retain(|_, lowering| lowering.strong_count() > 0);
        let index = Arc::new(index);
        self.lowerings.insert(key, Arc::downgrade(&index));
        (index, false)
    }
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
        let n_cliques = tree.len();
        let mut comp = Vec::new();
        let next_comp = components(tree, &mut comp, &mut Vec::new());
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

/// The one cache entry per query shape, keyed by the canonical (sorted,
/// deduplicated) query attribute set: the compiled mass plan plus —
/// once an execution has lowered (or shared) every group
/// bit-identically — its kernel.
#[derive(Debug, Clone)]
struct Shape {
    plan: MassPlan,
    kernel: OnceLock<Arc<MassKernel>>,
}

/// One group's lowering on the way into a shape's kernel: taken from
/// another shape, or lowered by this execution under its expression key.
enum GroupIndex {
    Shared(Arc<TreeIndex>),
    Lowered(ExprId, TreeIndex),
}

/// The per-synopsis workload cache: rooted views computed once, one
/// entry per query shape (compiled plan plus lowered kernel), and
/// cumulative [`QueryTrace`] counters.
///
/// Interior-mutable behind a **sharded** cache ([`ShardedLru`]) so
/// estimation keeps its `&self` signature and many reader threads can
/// query concurrently without serializing on one cache mutex; all
/// methods are safe under concurrent use. Cached entries are pure
/// memoization of values recomputed from the immutable factors, so
/// concurrency changes hit rates, never estimates.
#[derive(Debug)]
pub struct QueryEngine {
    views: RootedViews,
    /// One entry per query shape, probed once per query: a kernel
    /// answers it, else the cached plan executes, else a miss compiles.
    shapes: ShardedLru<AttrSet, Arc<Shape>>,
    /// Every executed expression and the group lowerings cached shapes
    /// hold, so shapes whose groups execute the same expression share
    /// one lowering and a miss skips groups already lowered.
    exprs: Mutex<ExprTable>,
    /// Pooled per-query walk scratch for kernel evaluations.
    scratch: ScratchPool,
    /// Pooled buffers for range-restricted evaluations.
    eval_scratch: ScratchPool<EvalScratch>,
    metrics: EngineMetrics,
}

impl Clone for QueryEngine {
    fn clone(&self) -> Self {
        let shapes = self.shapes.clone();
        // Clones never share a kernel cell: each gets its own entries.
        shapes.for_each_value(|shape| *shape = Arc::new(Shape::clone(shape)));
        Self {
            views: self.views.clone(),
            shapes,
            exprs: Mutex::default(),
            scratch: ScratchPool::default(),
            eval_scratch: ScratchPool::default(),
            metrics: self.metrics.clone(),
        }
    }
}

impl QueryEngine {
    /// Creates an engine for `tree` whose shape cache retains
    /// [`PLAN_CACHE_CAPACITY`] query shapes.
    #[must_use]
    pub fn new(tree: &JunctionTree) -> Self {
        Self {
            views: tree.rooted_views(),
            shapes: ShardedLru::new(PLAN_CACHE_CAPACITY),
            exprs: Mutex::default(),
            scratch: ScratchPool::default(),
            eval_scratch: ScratchPool::default(),
            metrics: EngineMetrics::default(),
        }
    }

    /// Drops every cached shape's lowered kernel and every executed
    /// expression, and keeps the plans. Call after mutating the
    /// underlying factors: plans depend only on model structure, kernels
    /// and expressions on factor contents. Takes `&mut self`, so no
    /// estimate can run against a half-cleared table.
    pub fn invalidate_kernels(&mut self) {
        // Only entries holding a kernel are rebuilt, so a stream of
        // updates between queries pays no per-entry plan copies.
        self.shapes.for_each_value(|shape| {
            if shape.kernel.get().is_some() {
                *shape = Arc::new(Shape { plan: shape.plan.clone(), kernel: OnceLock::new() });
            }
        });
        *self.exprs.get_mut().unwrap_or_else(PoisonError::into_inner) = ExprTable::default();
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

    /// Fetches the entry for `target` (one shard lock), compiling and
    /// caching its plan on a miss. The flag is `true` on a hit.
    fn shape_for(
        &self,
        tree: &JunctionTree,
        target: &AttrSet,
    ) -> Result<(Arc<Shape>, bool), SynopsisError> {
        {
            let _lookup = dbhist_telemetry::span!("dbhist_query_plan_cache_lookup_latency_ns");
            if let Some(hit) = self.shapes.get(target) {
                return Ok((hit, true));
            }
        }
        // Compile outside any shard lock: compilation is read-only over
        // the tree, so a racing duplicate compile is benign.
        let _compile = dbhist_telemetry::span!("dbhist_query_plan_compile_latency_ns");
        let plan = MassPlan::compile(tree, &self.views, target)?;
        let shape = Arc::new(Shape { plan, kernel: OnceLock::new() });
        self.shapes.insert(target.clone(), Arc::clone(&shape));
        Ok((shape, false))
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
        let (shape, _) = self.shape_for(tree, target)?;
        let mut cliques: Vec<usize> = shape
            .plan
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

    /// Estimates the frequency mass of the marginal over `target` inside
    /// the conjunctive `query`, through one shape-cache probe.
    ///
    /// An entry with a kernel answers the query from flat arrays with
    /// pooled scratch and touches no plan, factor, or tree; an entry
    /// without one executes its cached plan; a miss compiles and inserts.
    /// Either way, a group whose expression key resolves to a lowering
    /// another cached shape holds is answered by walking it instead of
    /// executing. A kernel exists only after a prior execution of the
    /// same shape lowered (or shared) every group bit-identically, so
    /// the fast path cannot change any estimate (pinned by
    /// `tests/plan_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// Propagates factor-operation failures; rejects targets the model
    /// does not cover.
    pub fn estimate_mass<F: Factor>(
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
    pub fn estimate_mass_explained<F: Factor>(
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

    /// Answers through range-restricted sum-product
    /// ([`crate::evaluate`]), the path of every model whose separators
    /// have at most one attribute, with pooled scratch. Feeds the same
    /// latency span and estimate counter as the plan path and counts one
    /// evaluation; reports [`QueryPath::Evaluated`] to `probe`.
    pub(crate) fn evaluate_probed<F: Factor, P: ExplainProbe>(
        &self,
        tree: &JunctionTree,
        schema: &Schema,
        factors: &[F],
        target: &AttrSet,
        query: &Query,
        probe: &mut P,
    ) -> Result<f64, SynopsisError> {
        let _span = dbhist_telemetry::span!("dbhist_query_estimate_latency_ns");
        if dbhist_telemetry::enabled() {
            wellknown().query_estimates.increment();
        }
        let mut scratch = if P::ACTIVE {
            probe.resolved_path(QueryPath::Evaluated);
            let (tracked, reused) = self.eval_scratch.acquire_tracked();
            probe.scratch(reused);
            tracked
        } else {
            self.eval_scratch.acquire()
        };
        let mass = estimate_mass_with(
            tree,
            &self.views,
            schema,
            factors,
            target,
            query,
            &mut scratch,
            probe,
        );
        self.eval_scratch.release(scratch);
        self.metrics.absorb(&QueryTrace { evaluations: 1, ..QueryTrace::default() });
        mass
    }

    /// The probed body behind [`QueryEngine::estimate_mass`] (instantiated
    /// with [`NoProbe`]) and [`QueryEngine::estimate_mass_explained`]
    /// (instantiated with a recorder). Probe sites are gated on
    /// `P::ACTIVE`, so the unprobed monomorphization is the pre-explain
    /// code.
    pub(crate) fn estimate_mass_probed<F: Factor, P: ExplainProbe>(
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
        let mut t = QueryTrace::default();
        let result = (|| {
            let (shape, hit) = self.shape_for(tree, target)?;
            let Shape { plan, kernel: slot } = &*shape;
            if let Some(kernel) = slot.get() {
                t.kernel_hits += 1;
                if P::ACTIVE {
                    probe.resolved_path(QueryPath::KernelHit);
                    probe.kernel_lowered(true);
                    for group in kernel.groups() {
                        probe.layout(group);
                    }
                }
                let mut scratch = if P::ACTIVE {
                    let (tracked, reused) = self.scratch.acquire_tracked();
                    probe.scratch(reused);
                    tracked
                } else {
                    self.scratch.acquire()
                };
                let mass = kernel.evaluate_ranges_probed(query.ranges(), &mut scratch, probe);
                self.scratch.release(scratch);
                return Ok(mass);
            }
            let path = if hit {
                t.plan_cache_hits += 1;
                QueryPath::PlanCacheHit
            } else {
                t.plan_cache_misses += 1;
                QueryPath::PlanCompiled
            };
            if P::ACTIVE {
                probe.resolved_path(path);
            }
            // Each group is answered by a lowering another shape holds
            // for the same expression (a walk, no factor operation), else
            // executed and lowered. A kernel is cached only when *every*
            // group has a lowering (otherwise the representation has no
            // bit-identical flat form and the engine keeps executing this
            // plan directly).
            let ranges = query.ranges();
            let total = factors.first().map_or(0.0, Factor::total);
            let mut mass = total;
            let mut lowered: Vec<GroupIndex> = Vec::with_capacity(plan.groups().len());
            let mut lowerable = true;
            for group in plan.groups() {
                if P::ACTIVE {
                    probe.group(&group.attrs);
                }
                let shared = lock(&self.exprs).resolve(group.plan.steps());
                let group_mass = if let Some(index) = shared {
                    let started = if P::ACTIVE { Some(Instant::now()) } else { None };
                    let mut scratch = self.scratch.acquire();
                    let group_mass = index.mass_in_box_with(
                        ranges,
                        &mut scratch.bounds,
                        &mut scratch.constraint,
                    );
                    self.scratch.release(scratch);
                    if P::ACTIVE {
                        let ns = started
                            .map_or(0, |t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(0));
                        probe.step(StepKind::KernelWalk, ns, 0);
                    }
                    lowered.push(GroupIndex::Shared(index));
                    group_mass
                } else {
                    let (loose, key) =
                        execute_keyed(&group.plan, factors, &mut t, probe, |expr, attrs, len| {
                            lock(&self.exprs).intern(expr, attrs, len)
                        })?;
                    if lowerable {
                        match loose.lower_index() {
                            Some(index) => lowered.push(GroupIndex::Lowered(key, index)),
                            None => lowerable = false,
                        }
                    }
                    loose.mass_in_box(ranges)
                };
                if P::ACTIVE {
                    probe.group_mass(group_mass);
                }
                if total > 0.0 {
                    mass *= group_mass / total;
                } else {
                    // A non-positive total stops the fold after one
                    // group: not every group got the chance to lower, so
                    // neither cache nor count.
                    return Ok(0.0);
                }
            }
            if lowerable {
                let mut exprs = lock(&self.exprs);
                let mut indices = Vec::with_capacity(lowered.len());
                for group in lowered {
                    let (index, shared) = match group {
                        GroupIndex::Shared(index) => (index, true),
                        GroupIndex::Lowered(key, index) => exprs.publish(key, index),
                    };
                    if shared {
                        t.kernel_groups_shared += 1;
                    } else {
                        match index.layout() {
                            IndexLayout::Dense => t.kernel_lowered_dense += 1,
                            IndexLayout::Sparse => t.kernel_lowered_sparse += 1,
                        }
                    }
                    if P::ACTIVE {
                        probe.layout(&index);
                    }
                    indices.push(index);
                }
                drop(exprs);
                // A racing duplicate lowering computed the same bits.
                let _ = slot.set(Arc::new(MassKernel::new(total, indices)));
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
    use dbhist_histogram::mhist::MhistBuilder;
    use dbhist_histogram::{SplitCriterion, SplitTree};
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

    fn split_tree_factors(rel: &Relation, m: &DecomposableModel, buckets: usize) -> Vec<SplitTree> {
        let build =
            |c| MhistBuilder::build(&rel.marginal(c).unwrap(), buckets, SplitCriterion::MaxDiff);
        m.cliques().iter().map(|c| build(c).unwrap()).collect()
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
            let cold = QueryEngine::new(tree);
            let planned = cold.estimate_mass(tree, &factors, &target, &query).unwrap();
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

    /// One cache entry per shape: every estimate probes it exactly once
    /// (`kernel_hits + plan_cache_hits + plan_cache_misses` counts each
    /// estimate once), hits are bit-identical to the cold answer, and
    /// invalidation drops kernels, never plans.
    #[test]
    fn one_cache_entry_per_shape() {
        let rel = relation();
        let m = model(&rel);
        let tree = m.junction_tree();
        let target = AttrSet::from_ids([0, 2, 4]);
        let query = Query::range(0, 0, 2).and(2, 1, 3).and(4, 0, 1);
        let probes = |t: &QueryTrace| t.kernel_hits + t.plan_cache_hits + t.plan_cache_misses;
        let lowerings = |t: &QueryTrace| t.kernel_lowered_dense + t.kernel_lowered_sparse;

        // Exact factors never lower: N repeats read one miss, N − 1 plan
        // hits, and N fallbacks.
        let exact = exact_factors(&rel, &m);
        let mut engine = QueryEngine::new(tree);
        let cold = engine.estimate_mass(tree, &exact, &target, &query).unwrap();
        for _ in 1..6 {
            let warm = engine.estimate_mass(tree, &exact, &target, &query).unwrap();
            assert_eq!(warm.to_bits(), cold.to_bits(), "plan-cache hit must be bit-identical");
        }
        let t = engine.trace();
        assert_eq!((t.plan_cache_misses, t.plan_cache_hits, t.kernel_fallbacks), (1, 5, 6));
        assert_eq!((t.kernel_hits, probes(&t)), (0, 6), "{t:?}");
        engine.invalidate_kernels();
        engine.estimate_mass(tree, &exact, &target, &query).unwrap();
        assert_eq!(engine.trace().plan_cache_misses, 1, "plans survive kernel invalidation");

        // Split trees: after invalidation the next query executes the
        // cached plan (a hit, not a miss) and lowers a fresh kernel.
        let trees = split_tree_factors(&rel, &m, 32);
        let mut engine = QueryEngine::new(tree);
        let cold = engine.estimate_mass(tree, &trees, &target, &query).unwrap();
        engine.estimate_mass(tree, &trees, &target, &query).unwrap();
        let t0 = engine.trace();
        assert_eq!((t0.plan_cache_misses, t0.plan_cache_hits, t0.kernel_hits), (1, 0, 1));
        engine.invalidate_kernels();
        // A clone owns its entries: the kernel it lowers from other
        // factors never answers the original.
        let coarse = split_tree_factors(&rel, &m, 4);
        let other = engine.clone().estimate_mass(tree, &coarse, &target, &query).unwrap();
        assert_ne!(other.to_bits(), cold.to_bits());
        for _ in 0..2 {
            let again = engine.estimate_mass(tree, &trees, &target, &query).unwrap();
            assert_eq!(again.to_bits(), cold.to_bits());
        }
        let t1 = engine.trace();
        assert_eq!((t1.plan_cache_misses, t1.plan_cache_hits, t1.kernel_hits), (1, 1, 2));
        assert_eq!(lowerings(&t1), 2 * lowerings(&t0), "a fresh kernel is lowered: {t1:?}");
        assert_eq!((t1.kernel_fallbacks, probes(&t1)), (0, 4), "{t1:?}");
    }

    #[test]
    fn engine_repeated_identity_workload_never_clones() {
        let rel = relation();
        let m = model(&rel);
        let factors = exact_factors(&rel, &m);
        let tree = m.junction_tree();
        let engine = QueryEngine::new(tree);
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
        assert_eq!(t.products, 0);
        assert_eq!(t.projections, 0);
        assert_eq!(t.plan_cache_misses, 2, "two distinct shapes");
        assert_eq!(t.plan_cache_hits, 30, "every repeat hits the plan cache");
        assert_eq!(t.clique_loads, 32);
    }

    #[test]
    fn engine_kernel_path_is_bit_identical_and_skips_plan_execution() {
        let rel = relation();
        let m = model(&rel);
        let tree = m.junction_tree();
        let factors = split_tree_factors(&rel, &m, 32);
        let mut engine = QueryEngine::new(tree);
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
        // still matches plan execution on a cold engine bit-for-bit.
        let query2 = Query::range(0, 1, 3).and(2, 0, 2).and(4, 1, 2);
        let via_kernel = engine.estimate_mass(tree, &factors, &target, &query2).unwrap();
        let direct =
            QueryEngine::new(tree).estimate_mass(tree, &factors, &target, &query2).unwrap();
        assert_eq!(via_kernel.to_bits(), direct.to_bits());

        // Invalidation drops kernels; the next query re-lowers.
        engine.invalidate_kernels();
        let again = engine.estimate_mass(tree, &factors, &target, &query).unwrap();
        assert_eq!(again.to_bits(), cold.to_bits());
        let t2 = engine.trace();
        assert!(
            t2.kernel_lowered_dense + t2.kernel_lowered_sparse
                > t1.kernel_lowered_dense + t1.kernel_lowered_sparse,
            "invalidation must force a re-lowering: {t2:?}"
        );
    }

    /// Shapes whose groups execute the same expression share one
    /// lowering: {0, 2, 3} and {0, 2, 4} both run the {0, 1} × {1, 2}
    /// chain shed to {0, 2}, so the second shape's miss resolves that
    /// group symbolically, walks the first shape's lowering and runs no
    /// product. Every estimate matches a cold engine bit for bit.
    #[test]
    fn shapes_share_group_lowerings_by_expression() {
        let rel = relation();
        let m = model(&rel);
        let tree = m.junction_tree();
        let trees = split_tree_factors(&rel, &m, 32);
        let engine = QueryEngine::new(tree);
        let first = (AttrSet::from_ids([0, 2, 4]), Query::range(0, 0, 2).and(2, 1, 3).and(4, 0, 1));
        let second =
            (AttrSet::from_ids([0, 2, 3]), Query::range(0, 1, 3).and(2, 0, 2).and(3, 1, 2));
        let cold = |(target, query): &(AttrSet, Query)| {
            QueryEngine::new(tree).estimate_mass(tree, &trees, target, query).unwrap()
        };

        let a = engine.estimate_mass(tree, &trees, &first.0, &first.1).unwrap();
        let t0 = engine.trace();
        assert!(t0.products >= 1, "the chain group multiplies: {t0:?}");
        assert_eq!(t0.kernel_groups_shared, 0, "{t0:?}");
        let b = engine.estimate_mass(tree, &trees, &second.0, &second.1).unwrap();
        let t1 = engine.trace();
        assert_eq!(t1.plan_cache_misses, 2, "{t1:?}");
        assert_eq!(t1.products, t0.products, "the shared group runs no product: {t1:?}");
        assert_eq!(t1.kernel_groups_shared, 1, "{t1:?}");
        assert_eq!(a.to_bits(), cold(&first).to_bits());
        assert_eq!(b.to_bits(), cold(&second).to_bits());

        // One `Arc` behind both kernels' chain group; the other groups
        // ({4} and {3} of clique {3, 4}) are distinct expressions.
        let kernel = |target: &AttrSet| {
            let shape = engine.shapes.get(target).unwrap();
            Arc::clone(shape.kernel.get().unwrap())
        };
        let (k1, k2) = (kernel(&first.0), kernel(&second.0));
        assert!(Arc::ptr_eq(&k1.groups()[0], &k2.groups()[0]));
        assert!(!Arc::ptr_eq(&k1.groups()[1], &k2.groups()[1]));

        // Both shapes now answer from their kernels, still bit-identical.
        for shape in [&first, &second] {
            let warm = engine.estimate_mass(tree, &trees, &shape.0, &shape.1).unwrap();
            assert_eq!(warm.to_bits(), cold(shape).to_bits());
        }
        assert_eq!(engine.trace().kernel_hits, 2);
    }

    /// After the factors change, nothing lowered from the old ones is
    /// shared, even while a copy of the engine keeps those lowerings
    /// alive: invalidation clears the expression table with the kernels,
    /// so a shape whose group executes an expression lowered before the
    /// change answers from the new factors.
    #[test]
    fn invalidation_shares_nothing_stale() {
        let rel = relation();
        let m = model(&rel);
        let tree = m.junction_tree();
        let mut factors = split_tree_factors(&rel, &m, 32);
        let mut engine = QueryEngine::new(tree);
        let first = (AttrSet::from_ids([0, 2, 4]), Query::range(0, 0, 2).and(2, 1, 3).and(4, 0, 1));
        let second =
            (AttrSet::from_ids([0, 2, 3]), Query::range(0, 1, 3).and(2, 0, 2).and(3, 1, 2));
        engine.estimate_mass(tree, &factors, &first.0, &first.1).unwrap();
        // A copy taken before the change keeps the old lowerings alive.
        let before = engine.clone();
        // The maintenance path: mutate the factors, then invalidate.
        for factor in &mut factors {
            let key = vec![1; factor.attrs().len()];
            factor.update(&key, 400.0);
        }
        engine.invalidate_kernels();
        for (target, query) in [&second, &first] {
            let got = engine.estimate_mass(tree, &factors, target, query).unwrap();
            let fresh =
                QueryEngine::new(tree).estimate_mass(tree, &factors, target, query).unwrap();
            assert_eq!(got.to_bits(), fresh.to_bits(), "{target}");
        }
        // Sharing still works among lowerings of the new factors.
        assert_eq!(engine.trace().kernel_groups_shared, 1);
        drop(before);
    }

    #[test]
    fn engine_is_callable_from_many_threads_through_shared_ref() {
        let rel = relation();
        let m = model(&rel);
        let factors = exact_factors(&rel, &m);
        let tree = m.junction_tree();
        let engine = QueryEngine::new(tree);
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
