//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Spans are recorded only by the benchmark's own files, around the
//! public entry points it calls; the library itself is not instrumented.
//! Each thread owns a [`SpanLog`]; the logs are merged when the workload
//! ends, written to `<out>/<workload>.trace.json`, and the per-layer
//! metrics are derived from them. A disabled log records nothing, so the
//! untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats;

/// One timed call: `[start_ns, end_ns)` since the workload's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique across every log of one run (thread tag in the high bits).
    pub id: u32,
    /// The span that caused this one, if any (same thread).
    pub parent: Option<u32>,
    /// Layer-qualified call name, e.g. `service.submit`.
    pub name: &'static str,
    /// Request the span belongs to (0 for work outside any request).
    pub request: u64,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Bits of a span id that index into its thread's log.
const INDEX_BITS: u32 = 24;

/// Spans recorded by one thread.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    tag: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log for thread number `thread` of a run started at `epoch`.
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Self {
        Self { enabled, epoch, tag: thread << INDEX_BITS, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id (0 when the log is disabled).
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, request: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let index = u32::try_from(self.spans.len()).unwrap_or(u32::MAX);
        assert!(index < 1 << INDEX_BITS, "span log overflow");
        let id = self.tag | index;
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, name, request, start_ns, end_ns: start_ns });
        id
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: u32) {
        self.close(id, None);
    }

    /// Closes span `id`, renaming it — for calls whose layer is known only
    /// once they return (a kernel hit versus a plan miss).
    pub fn end_as(&mut self, id: u32, name: &'static str) {
        self.close(id, Some(name));
    }

    fn close(&mut self, id: u32, name: Option<&'static str>) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let index = (id & ((1 << INDEX_BITS) - 1)) as usize;
        if let Some(span) = self.spans.get_mut(index) {
            span.end_ns = now;
            if let Some(name) = name {
                span.name = name;
            }
        }
    }

    /// Times `f` as one span with no children.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of each span (its duration minus the part of its interval
/// its children cover), in input order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else { return s.duration_ns() };
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0, s.start_ns);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Durations in microseconds of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect()
}

/// Per-name totals: `(count, total_ms, self_ms, p50_us)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64, f64)> {
    let selfs = self_times(spans);
    let mut groups: BTreeMap<&'static str, (Vec<f64>, f64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let entry = groups.entry(s.name).or_default();
        entry.0.push(s.duration_ns() as f64 / 1e3);
        entry.1 += self_ns as f64 / 1e6;
    }
    groups
        .into_iter()
        .map(|(name, (durations, self_ms))| {
            let total_ms = durations.iter().sum::<f64>() / 1e3;
            (name, (durations.len(), total_ms, self_ms, stats::median(&durations)))
        })
        .collect()
}

/// About this many spans are written to a trace file: a traced run can
/// record a few million, and every one still feeds the metrics and the
/// per-name totals.
pub const MAX_WRITTEN: usize = 200_000;

/// Every span outside any request, and the whole span tree of a sample of
/// requests sized to keep about [`MAX_WRITTEN`] spans, as a JSON array in
/// start order, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let keep_one_in = spans.len().div_ceil(MAX_WRITTEN).max(1) as u64;
    let sampled = |request: u64| {
        (request.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32).is_multiple_of(keep_one_in)
    };
    let mut kept: Vec<&Span> =
        spans.iter().filter(|s| s.request == 0 || sampled(s.request)).collect();
    kept.sort_by_key(|s| s.start_ns);
    let mut out = String::from("[\n");
    for (i, s) in kept.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"request\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}{}",
            s.id,
            s.name,
            s.request,
            s.start_ns,
            s.end_ns,
            if i + 1 < kept.len() { ",\n" } else { "\n" }
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "x", request: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // Overlapping children count once: [10, 50) covers 40.
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            // A child running past its parent is clipped: [90, 100).
            span(4, Some(1), 90, 120),
            span(5, Some(2), 15, 20),
            span(6, None, 200, 210),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 20, 30, 5, 10]);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now(), 0);
        let id = log.begin("a", None, 1);
        log.end(id);
        assert_eq!(log.timed("b", None, 1, || 7), 7);
        assert!(log.into_spans().is_empty());
    }

    #[test]
    fn enabled_log_nests_and_renames() {
        let mut log = SpanLog::new(true, Instant::now(), 3);
        let outer = log.begin("outer", None, 9);
        let inner = log.begin("inner", Some(outer), 9);
        log.end_as(inner, "renamed");
        log.end(outer);
        let spans = log.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id >> INDEX_BITS, 3);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[1].name, "renamed");
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let totals = by_name(&spans);
        assert_eq!(totals["outer"].0, 1);
        assert!(to_json(&spans).contains("\"name\": \"renamed\""));
    }
}
