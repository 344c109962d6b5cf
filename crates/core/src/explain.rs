//! Opt-in per-query EXPLAIN: which path answered an estimate, and what
//! it cost.
//!
//! The engine resolves every `estimate_mass` through a cascade — lowered
//! kernel, cached plan, fresh compilation — and each level makes further
//! choices (dense vs sparse kernel layouts, shed projections applied or
//! skipped, scratch arenas reused or allocated). None of that is visible
//! from the estimate alone, and `QueryTrace` only shows *cumulative*
//! counters. [`ExplainReport`] captures one query's actual execution:
//! the resolved [`QueryPath`], per-group plan steps with wall-clock
//! nanoseconds and intermediate factor sizes, shed decisions with skip
//! reasons, kernel layout choices, and scratch reuse.
//!
//! # Zero-cost when off
//!
//! Probing is threaded through the executor as a *generic* parameter
//! ([`ExplainProbe`]) with an associated `ACTIVE` constant. The public
//! non-explain entry points instantiate the probed internals with
//! [`NoProbe`] (`ACTIVE = false`): every probe call site is guarded by
//! `if P::ACTIVE`, so the monomorphized non-explain code contains no
//! clock reads, no recording, and no branches — it *is* the old code.
//! Explain-on and explain-off estimates are bit-identical by
//! construction (probes only observe; they never touch operands), pinned
//! by a proptest in `tests/plan_equivalence.rs` and the explain section
//! of `query_bench`.

use std::fmt::Write as _;

use dbhist_distribution::AttrSet;
use dbhist_histogram::{IndexLayout, TreeIndex};

/// How the engine resolved a query, from fastest to slowest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPath {
    /// Answered by a lowered [`crate::kernel::MassKernel`]: no plan, no
    /// factor, no tree traversal.
    KernelHit,
    /// Answered by executing an already-compiled [`crate::plan::MassPlan`].
    PlanCacheHit,
    /// The query shape was new: a plan was compiled, then executed.
    PlanCompiled,
    /// No constrained attribute: the estimate is the table total and no
    /// engine machinery runs.
    TableTotal,
    /// Answered by range-restricted sum-product over the junction tree
    /// ([`crate::evaluate`]): no plan, no product, nothing cached.
    Evaluated,
}

impl QueryPath {
    /// The path's `snake_case` tag, as rendered in JSON and journal
    /// events.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            QueryPath::KernelHit => "kernel_hit",
            QueryPath::PlanCacheHit => "plan_cache_hit",
            QueryPath::PlanCompiled => "plan_compiled",
            QueryPath::TableTotal => "table_total",
            QueryPath::Evaluated => "evaluated",
        }
    }
}

/// Why a shed (tidying) projection did not fire, mirroring the executor's
/// runtime gate in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedSkip {
    /// The keep-set does not intersect the operand's attributes.
    NothingToKeep,
    /// The operand already carries exactly the keep-set.
    AlreadyTidy,
    /// The operand exceeds [`crate::plan::SHED_LIMIT`]; projecting would
    /// cost more than carrying the extra attributes.
    TooLarge,
}

impl ShedSkip {
    /// `snake_case` tag for JSON rendering.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ShedSkip::NothingToKeep => "nothing_to_keep",
            ShedSkip::AlreadyTidy => "already_tidy",
            ShedSkip::TooLarge => "too_large",
        }
    }
}

/// One executed (or deliberately skipped) plan step, as observed by a
/// probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// A clique factor was pushed by borrow.
    Load {
        /// The loaded clique's index.
        clique: usize,
    },
    /// A proper projection materialized a new factor.
    Project,
    /// An identity projection passed the borrow through.
    IdentityProject,
    /// Two operands were multiplied.
    Product,
    /// A shed projection fired.
    Shed,
    /// A shed projection was skipped at runtime.
    ShedSkipped(ShedSkip),
    /// The group was answered by walking a lowering another cached shape
    /// holds for the same expression; no factor operation ran.
    KernelWalk,
    /// The evaluator folded a clique's buckets (or, for a group one
    /// clique answers alone, took its box mass).
    Visit {
        /// The visited clique's index.
        clique: usize,
    },
}

impl StepKind {
    fn op(self) -> &'static str {
        match self {
            StepKind::Load { .. } => "load",
            StepKind::Project => "project",
            StepKind::IdentityProject => "identity_project",
            StepKind::Product => "product",
            StepKind::Shed => "shed",
            StepKind::ShedSkipped(_) => "shed_skipped",
            StepKind::KernelWalk => "kernel_walk",
            StepKind::Visit { .. } => "visit",
        }
    }
}

/// Observer threaded (generically) through the probed executor internals.
///
/// Every method has an inert default body, and every call site is guarded
/// by `if P::ACTIVE`, so implementations only ever see events when they
/// opt in via `ACTIVE = true`. Probes observe — they can never influence
/// an estimate.
pub trait ExplainProbe {
    /// `true` only for recording probes; gates every probe call site (and
    /// the clock reads feeding them) at monomorphization time.
    const ACTIVE: bool;

    /// The engine resolved the query through `path`.
    fn resolved_path(&mut self, _path: QueryPath) {}

    /// Execution of the group covering `attrs` begins.
    fn group(&mut self, _attrs: &AttrSet) {}

    /// The current group produced `mass`.
    fn group_mass(&mut self, _mass: f64) {}

    /// One plan step executed in `ns` wall-clock nanoseconds, leaving an
    /// operand of `result_size` stored entries on top of the stack.
    fn step(&mut self, _kind: StepKind, _ns: u64, _result_size: usize) {}

    /// The kernel walk finished the `index`-th lowered group in `ns`
    /// wall-clock nanoseconds, producing `mass`.
    fn kernel_group(&mut self, _index: usize, _mass: f64, _ns: u64) {}

    /// A group marginal (or kernel group) was lowered into `index`.
    fn layout(&mut self, _index: &TreeIndex) {}

    /// After plan execution: `true` if every group lowered and a kernel
    /// was cached for this shape, `false` on an interpreter-representation
    /// fallback.
    fn kernel_lowered(&mut self, _lowered: bool) {}

    /// The kernel walk acquired scratch; `reused` when it came from the
    /// pool rather than a fresh allocation.
    fn scratch(&mut self, _reused: bool) {}
}

/// The inert probe: `ACTIVE = false` compiles every probe site out of the
/// non-explain entry points.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoProbe;

impl ExplainProbe for NoProbe {
    const ACTIVE: bool = false;
}

/// One step of a [`GroupReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport {
    /// Operation tag (`load`, `project`, `identity_project`, `product`,
    /// `shed`, `shed_skipped`, `kernel_walk`, `visit`).
    pub op: &'static str,
    /// The clique index, for `load` and `visit` steps.
    pub clique: Option<usize>,
    /// Skip reason, for `shed_skipped` steps.
    pub skip: Option<&'static str>,
    /// Wall-clock nanoseconds the step took.
    pub ns: u64,
    /// Stored entries of the operand left on top of the stack.
    pub result_size: usize,
}

/// One independent component of the executed mass plan.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupReport {
    /// The group's target attribute set, rendered.
    pub attrs: String,
    /// Executed steps, in order (one `kernel_walk` step for kernel-path
    /// groups and for groups answered by another shape's lowering).
    pub steps: Vec<StepReport>,
    /// The group's box mass, when observed.
    pub mass: Option<f64>,
}

/// The full record of one explained query.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReport {
    /// How the engine resolved the query.
    pub path: QueryPath,
    /// The query's target attribute set, rendered.
    pub target: String,
    /// Per-component execution details (empty on the kernel path — the
    /// kernel has no plan steps).
    pub groups: Vec<GroupReport>,
    /// Flat-layout choice per lowered group (`dense` / `sparse`), from
    /// the kernel on a hit or from this execution's lowering.
    pub layouts: Vec<&'static str>,
    /// Heap bytes the kernel's lowered groups hold (the sum of their
    /// [`TreeIndex::storage_bytes`]): what this query shape costs in the
    /// kernel cache. `0` when nothing was lowered.
    pub kernel_bytes: usize,
    /// Whether this execution lowered (or reused) a kernel; `None` when
    /// no lowering was attempted (e.g. [`QueryPath::TableTotal`]).
    pub kernel_lowered: Option<bool>,
    /// Whether the kernel walk reused a pooled scratch arena; `None` off
    /// the kernel path.
    pub scratch_reused: Option<bool>,
    /// End-to-end wall-clock nanoseconds of the estimate call.
    pub total_ns: u64,
    /// The estimate itself — bit-identical to the unexplained call.
    pub estimate: f64,
}

fn layout_str(layout: IndexLayout) -> &'static str {
    match layout {
        IndexLayout::Dense => "dense",
        IndexLayout::Sparse => "sparse",
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl ExplainReport {
    /// Renders the report as one JSON object (no trailing newline), for
    /// the `/explain` endpoint and journal payloads.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"path\":\"{}\",\"target\":\"{}\",\"estimate\":{},\"total_ns\":{}",
            self.path.as_str(),
            json_escape(&self.target),
            fmt_f64(self.estimate),
            self.total_ns
        );
        s.push_str(",\"layouts\":[");
        for (i, l) in self.layouts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{l}\"");
        }
        s.push(']');
        let _ = write!(s, ",\"kernel_bytes\":{}", self.kernel_bytes);
        if let Some(lowered) = self.kernel_lowered {
            let _ = write!(s, ",\"kernel_lowered\":{lowered}");
        }
        if let Some(reused) = self.scratch_reused {
            let _ = write!(s, ",\"scratch_reused\":{reused}");
        }
        s.push_str(",\"groups\":[");
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"attrs\":\"{}\"", json_escape(&g.attrs));
            if let Some(mass) = g.mass {
                let _ = write!(s, ",\"mass\":{}", fmt_f64(mass));
            }
            s.push_str(",\"steps\":[");
            for (j, step) in g.steps.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{{\"op\":\"{}\"", step.op);
                if let Some(clique) = step.clique {
                    let _ = write!(s, ",\"clique\":{clique}");
                }
                if let Some(skip) = step.skip {
                    let _ = write!(s, ",\"skip\":\"{skip}\"");
                }
                let _ = write!(s, ",\"ns\":{},\"result_size\":{}}}", step.ns, step.result_size);
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }
}

/// The recording probe behind
/// [`QueryEngine::estimate_mass_explained`](crate::plan::QueryEngine::estimate_mass_explained):
/// accumulates probe events into an [`ExplainReport`].
#[derive(Debug)]
pub struct ExplainRecorder {
    report: ExplainReport,
}

impl ExplainRecorder {
    /// A recorder for a query over `target`, with the path defaulting to
    /// [`QueryPath::TableTotal`] until the engine reports otherwise.
    #[must_use]
    pub fn new(target: &AttrSet) -> Self {
        Self {
            report: ExplainReport {
                path: QueryPath::TableTotal,
                target: format!("{target}"),
                groups: Vec::new(),
                layouts: Vec::new(),
                kernel_bytes: 0,
                kernel_lowered: None,
                scratch_reused: None,
                total_ns: 0,
                estimate: 0.0,
            },
        }
    }

    /// Finalizes the report with the estimate and end-to-end latency.
    #[must_use]
    pub fn finish(mut self, estimate: f64, total_ns: u64) -> ExplainReport {
        self.report.estimate = estimate;
        self.report.total_ns = total_ns;
        self.report
    }
}

impl ExplainProbe for ExplainRecorder {
    const ACTIVE: bool = true;

    fn resolved_path(&mut self, path: QueryPath) {
        self.report.path = path;
    }

    fn group(&mut self, attrs: &AttrSet) {
        self.report.groups.push(GroupReport {
            attrs: format!("{attrs}"),
            steps: Vec::new(),
            mass: None,
        });
    }

    fn group_mass(&mut self, mass: f64) {
        if let Some(g) = self.report.groups.last_mut() {
            g.mass = Some(mass);
        }
    }

    fn step(&mut self, kind: StepKind, ns: u64, result_size: usize) {
        let record = StepReport {
            op: kind.op(),
            clique: match kind {
                StepKind::Load { clique } | StepKind::Visit { clique } => Some(clique),
                _ => None,
            },
            skip: match kind {
                StepKind::ShedSkipped(reason) => Some(reason.as_str()),
                _ => None,
            },
            ns,
            result_size,
        };
        if let Some(g) = self.report.groups.last_mut() {
            g.steps.push(record);
        } else {
            // A step recorded outside any group lands in an implicit
            // group.
            self.report.groups.push(GroupReport {
                attrs: self.report.target.clone(),
                steps: vec![record],
                mass: None,
            });
        }
    }

    fn kernel_group(&mut self, index: usize, mass: f64, ns: u64) {
        self.report.groups.push(GroupReport {
            attrs: format!("kernel_group_{index}"),
            steps: vec![StepReport {
                op: StepKind::KernelWalk.op(),
                clique: None,
                skip: None,
                ns,
                result_size: 0,
            }],
            mass: Some(mass),
        });
    }

    fn layout(&mut self, index: &TreeIndex) {
        self.report.layouts.push(layout_str(index.layout()));
        self.report.kernel_bytes += index.storage_bytes();
    }

    fn kernel_lowered(&mut self, lowered: bool) {
        self.report.kernel_lowered = Some(lowered);
    }

    fn scratch(&mut self, reused: bool) {
        self.report.scratch_reused = Some(reused);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_snake_case() {
        for path in [
            QueryPath::KernelHit,
            QueryPath::PlanCacheHit,
            QueryPath::PlanCompiled,
            QueryPath::TableTotal,
            QueryPath::Evaluated,
        ] {
            let tag = path.as_str();
            assert!(tag.chars().all(|c| c.is_ascii_lowercase() || c == '_'), "{tag}");
        }
        for skip in [ShedSkip::NothingToKeep, ShedSkip::AlreadyTidy, ShedSkip::TooLarge] {
            let tag = skip.as_str();
            assert!(tag.chars().all(|c| c.is_ascii_lowercase() || c == '_'), "{tag}");
        }
    }

    #[test]
    fn recorder_assembles_a_report() {
        use dbhist_distribution::{Relation, Schema};
        use dbhist_histogram::{mhist::MhistBuilder, SplitCriterion};
        let schema = Schema::new(vec![("a", 8), ("b", 8)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..64).map(|i| vec![i % 8, (i * 3) % 8]).collect();
        let dist = Relation::from_rows(schema, rows).unwrap().distribution();
        let tree = MhistBuilder::build(&dist, 6, SplitCriterion::MaxDiff).unwrap();
        let index = TreeIndex::lower(&tree).unwrap();

        let target = AttrSet::from_ids([0, 2]);
        let mut rec = ExplainRecorder::new(&target);
        rec.resolved_path(QueryPath::PlanCompiled);
        rec.group(&target);
        rec.step(StepKind::Load { clique: 1 }, 120, 16);
        rec.step(StepKind::ShedSkipped(ShedSkip::AlreadyTidy), 40, 16);
        rec.group_mass(12.5);
        rec.kernel_lowered(true);
        rec.layout(&index);
        rec.layout(&index);
        let report = rec.finish(12.5, 999);
        assert_eq!(report.path, QueryPath::PlanCompiled);
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.groups[0].steps.len(), 2);
        assert_eq!(report.groups[0].steps[0].clique, Some(1));
        assert_eq!(report.groups[0].steps[1].skip, Some("already_tidy"));
        assert_eq!(report.groups[0].mass, Some(12.5));
        assert_eq!(report.layouts, vec!["dense", "dense"]);
        assert!(index.storage_bytes() > 0);
        assert_eq!(report.kernel_bytes, 2 * index.storage_bytes());
        assert_eq!(report.kernel_lowered, Some(true));
        assert_eq!(report.total_ns, 999);
        let json = report.to_json();
        assert!(json.contains("\"path\":\"plan_compiled\""));
        assert!(json.contains("\"op\":\"load\",\"clique\":1"));
        assert!(json.contains("\"skip\":\"already_tidy\""));
        assert!(json.contains(&format!("\"kernel_bytes\":{}", report.kernel_bytes)));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn noprobe_is_inert() {
        // NoProbe's methods are the trait defaults: calling them is a
        // no-op and ACTIVE gates every real call site.
        const { assert!(!NoProbe::ACTIVE) };
        let mut p = NoProbe;
        p.resolved_path(QueryPath::KernelHit);
        p.step(StepKind::Product, 1, 1);
        p.scratch(true);
    }
}
