//! Opt-in per-query EXPLAIN: which path answered an estimate, and what
//! it cost.
//!
//! An estimate is answered by the range-restricted evaluator
//! ([`crate::evaluate`]) or, for a model whose separator blocks exceed
//! [`crate::evaluate::MESSAGE_CELL_BUDGET`], by the Fig. 3 interpreter.
//! None of that is visible from the estimate alone, and `QueryTrace`
//! only shows *cumulative* counters. [`ExplainReport`] captures one
//! query: the resolved [`QueryPath`], per-group visited cliques with
//! wall-clock nanoseconds and bucket counts, each group's mass, and
//! scratch reuse.
//!
//! # Zero-cost when off
//!
//! Probing is threaded through the evaluator as a *generic* parameter
//! ([`ExplainProbe`]) with an associated `ACTIVE` constant. The public
//! non-explain entry points instantiate the probed internals with
//! [`NoProbe`] (`ACTIVE = false`): every probe call site is guarded by
//! `if P::ACTIVE`, so the monomorphized non-explain code contains no
//! clock reads, no recording, and no branches. Explain-on and
//! explain-off estimates are bit-identical by construction (probes only
//! observe), pinned by `tests/evaluate_equivalence.rs` and the explain
//! section of `query_bench`.

use std::fmt::Write as _;

use dbhist_distribution::AttrSet;

/// How a query was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPath {
    /// No constrained attribute: the estimate is the table total and
    /// nothing else runs.
    TableTotal,
    /// Answered by range-restricted sum-product over the junction tree
    /// ([`crate::evaluate`]): no product, nothing cached.
    Evaluated,
    /// The model has a separator block over
    /// [`crate::evaluate::MESSAGE_CELL_BUDGET`]: answered by the Fig. 3
    /// interpreter ([`crate::marginal::estimate_mass_interpreted`]).
    Interpreted,
}

impl QueryPath {
    /// The path's `snake_case` tag, as rendered in JSON and journal
    /// events.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            QueryPath::TableTotal => "table_total",
            QueryPath::Evaluated => "evaluated",
            QueryPath::Interpreted => "interpreted",
        }
    }
}

/// One step of a query, as observed by a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// A clique Fig. 3 selects: the evaluator folded its buckets (or, for
    /// a group one clique answers alone, took its box mass); the
    /// interpreter reads its factor.
    Visit {
        /// The visited clique's index.
        clique: usize,
    },
}

impl StepKind {
    fn op(self) -> &'static str {
        match self {
            StepKind::Visit { .. } => "visit",
        }
    }
}

/// Observer threaded (generically) through the probed evaluator.
///
/// Every method has an inert default body, and every call site is guarded
/// by `if P::ACTIVE`, so implementations only ever see events when they
/// opt in via `ACTIVE = true`. Probes observe — they can never influence
/// an estimate.
pub trait ExplainProbe {
    /// `true` only for recording probes; gates every probe call site (and
    /// the clock reads feeding them) at monomorphization time.
    const ACTIVE: bool;

    /// The query was resolved through `path`.
    fn resolved_path(&mut self, _path: QueryPath) {}

    /// Execution of the group covering `attrs` begins.
    fn group(&mut self, _attrs: &AttrSet) {}

    /// The current group produced `mass`.
    fn group_mass(&mut self, _mass: f64) {}

    /// One step ran in `ns` wall-clock nanoseconds over a factor of
    /// `result_size` stored buckets.
    fn step(&mut self, _kind: StepKind, _ns: u64, _result_size: usize) {}

    /// The evaluation acquired scratch; `reused` when it came from the
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
    /// Operation tag (`visit`).
    pub op: &'static str,
    /// The visited clique's index.
    pub clique: Option<usize>,
    /// Wall-clock nanoseconds the step took (0 on the interpreted path,
    /// which reports its selection without timing it).
    pub ns: u64,
    /// Stored buckets of the visited clique's factor.
    pub result_size: usize,
}

/// One independent model component the query touches.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupReport {
    /// The group's target attribute set, rendered.
    pub attrs: String,
    /// Visited cliques, children before their parent.
    pub steps: Vec<StepReport>,
    /// The group's box mass (evaluated path only).
    pub mass: Option<f64>,
}

/// The full record of one explained query.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReport {
    /// How the query was resolved.
    pub path: QueryPath,
    /// The query's target attribute set, rendered.
    pub target: String,
    /// Per-component details.
    pub groups: Vec<GroupReport>,
    /// Whether the evaluation reused pooled scratch; `None` off the
    /// evaluated path.
    pub scratch_reused: Option<bool>,
    /// End-to-end wall-clock nanoseconds of the estimate call.
    pub total_ns: u64,
    /// The estimate itself — bit-identical to the unexplained call.
    pub estimate: f64,
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
                let _ = write!(s, ",\"ns\":{},\"result_size\":{}}}", step.ns, step.result_size);
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }
}

/// The recording probe behind
/// [`DbHistogram::try_estimate_explained`](crate::synopsis::DbHistogram::try_estimate_explained):
/// accumulates probe events into an [`ExplainReport`].
#[derive(Debug)]
pub struct ExplainRecorder {
    report: ExplainReport,
}

impl ExplainRecorder {
    /// A recorder for a query over `target`, with the path defaulting to
    /// [`QueryPath::TableTotal`] until the estimate reports otherwise.
    #[must_use]
    pub fn new(target: &AttrSet) -> Self {
        Self {
            report: ExplainReport {
                path: QueryPath::TableTotal,
                target: format!("{target}"),
                groups: Vec::new(),
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
                StepKind::Visit { clique } => Some(clique),
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

    fn scratch(&mut self, reused: bool) {
        self.report.scratch_reused = Some(reused);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_snake_case() {
        for path in [QueryPath::TableTotal, QueryPath::Evaluated, QueryPath::Interpreted] {
            let tag = path.as_str();
            assert!(tag.chars().all(|c| c.is_ascii_lowercase() || c == '_'), "{tag}");
        }
    }

    #[test]
    fn recorder_assembles_a_report() {
        let target = AttrSet::from_ids([0, 2]);
        let mut rec = ExplainRecorder::new(&target);
        rec.resolved_path(QueryPath::Evaluated);
        rec.scratch(true);
        rec.group(&target);
        rec.step(StepKind::Visit { clique: 1 }, 120, 16);
        rec.step(StepKind::Visit { clique: 0 }, 40, 9);
        rec.group_mass(12.5);
        let report = rec.finish(12.5, 999);
        assert_eq!(report.path, QueryPath::Evaluated);
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.groups[0].steps.len(), 2);
        assert_eq!(report.groups[0].steps[0].clique, Some(1));
        assert_eq!(report.groups[0].steps[1].result_size, 9);
        assert_eq!(report.groups[0].mass, Some(12.5));
        assert_eq!(report.scratch_reused, Some(true));
        assert_eq!(report.total_ns, 999);
        let json = report.to_json();
        assert!(json.contains("\"path\":\"evaluated\""));
        assert!(json.contains("\"op\":\"visit\",\"clique\":1"));
        assert!(json.contains("\"scratch_reused\":true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn noprobe_is_inert() {
        // NoProbe's methods are the trait defaults: calling them is a
        // no-op and ACTIVE gates every real call site.
        const { assert!(!NoProbe::ACTIVE) };
        let mut p = NoProbe;
        p.resolved_path(QueryPath::Evaluated);
        p.step(StepKind::Visit { clique: 0 }, 1, 1);
        p.scratch(true);
    }
}
