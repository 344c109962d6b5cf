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
//! # The record, not an observer
//!
//! The evaluation keeps its own record in its scratch: each group's
//! mass, and each visit's clique and bucket count. A plain estimate, an
//! explained one and a feedback observation run the same evaluation;
//! the explained call asks it for timing, which reads the clock around
//! each visited clique and nothing else, and builds the report from the
//! record afterwards. No clock is read and nothing is allocated when not
//! explaining, and explained estimates carry the plain bits by
//! construction, pinned by `tests/evaluate_equivalence.rs` and the
//! explain section of `query_bench`.

use std::fmt::Write as _;

use dbhist_telemetry::export::{fmt_f64, json_escape};

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

/// One step of a [`GroupReport`]: a clique Fig. 3 selects, whose buckets
/// the evaluator folded (or, for a group one clique answers alone, whose
/// box mass it took), or whose factor the interpreter reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepReport {
    /// Operation tag (`visit`).
    pub op: &'static str,
    /// The visited clique's index.
    pub clique: Option<usize>,
    /// Wall-clock nanoseconds the step took (0 on the interpreted path,
    /// which reports its selection without timing it).
    pub ns: u64,
    /// Buckets read at the clique: the non-zero buckets the evaluator
    /// folded, or the buckets its factor stores for a group one clique
    /// answers alone and on the interpreted path.
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
    fn report_renders_as_json() {
        let step = |clique, ns, result_size| StepReport {
            op: "visit",
            clique: Some(clique),
            ns,
            result_size,
        };
        let report = ExplainReport {
            path: QueryPath::Evaluated,
            target: "{0,2}".into(),
            groups: vec![GroupReport {
                attrs: "{0,2}".into(),
                steps: vec![step(1, 120, 16), step(0, 40, 9)],
                mass: Some(12.5),
            }],
            scratch_reused: Some(true),
            total_ns: 999,
            estimate: 12.5,
        };
        let json = report.to_json();
        assert!(json.contains("\"path\":\"evaluated\""));
        assert!(json.contains("\"op\":\"visit\",\"clique\":1,\"ns\":120,\"result_size\":16"));
        assert!(json.contains("\"scratch_reused\":true"));
        assert!(json.contains("\"mass\":12.5"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
