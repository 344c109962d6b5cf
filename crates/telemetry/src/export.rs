//! Snapshot exporters: JSON and Prometheus text exposition format.
//!
//! Both render the *same* [`Snapshot`], so a scrape endpoint and a log
//! artifact can never disagree. Everything is hand-rolled string
//! assembly — the workspace builds without a crate registry, so no serde
//! on this path.

use std::fmt::Write as _;

use crate::registry::{HistogramSnapshot, MetricValue, Snapshot};

/// Splits `dbhist_x_y_total{label="v"}` into `("dbhist_x_y_total",
/// `{label="v"}`)`; the label part is empty for unlabeled metrics.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => name.split_at(i),
        None => (name, ""),
    }
}

/// Renders an `f64` so it round-trips and stays valid JSON (no `NaN` /
/// `inf` literals). Shared with the journal's JSONL rendering and the
/// core crate's `/health` and `/explain` bodies.
#[must_use]
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a dot; keep a decimal point
        // so JSON consumers see a float.
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// Escapes `text` for use inside a JSON string literal: quotes,
/// backslashes, newlines and other control characters.
#[must_use]
pub fn json_escape(text: &str) -> String {
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

fn json_histogram(h: &HistogramSnapshot) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"type\":\"histogram\",\"count\":{},\"sum\":{}", h.count, h.sum);
    for (label, q) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
        let _ =
            write!(s, ",\"{label}\":{}", h.percentile(q).map_or_else(|| "null".into(), fmt_f64));
    }
    s.push_str(",\"buckets\":[");
    for (i, b) in h.histogram.buckets().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"lo\":{},\"hi\":{},\"count\":{}}}", b.lo, b.hi, b.freq as u64);
    }
    s.push_str("]}");
    s
}

/// Renders the snapshot as one JSON object keyed by metric name.
///
/// Counters become `{"type":"counter","value":N}`, gauges
/// `{"type":"gauge","value":X}`, histograms
/// `{"type":"histogram","count":N,"sum":S,"p50":…,"p90":…,"p99":…,
/// "buckets":[{"lo":…,"hi":…,"count":…},…]}`.
#[must_use]
pub fn to_json(snapshot: &Snapshot) -> String {
    let mut s = String::from("{\"metrics\":{");
    for (i, m) in snapshot.metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":", json_escape(&m.name));
        match &m.value {
            MetricValue::Counter(v) => {
                let _ = write!(s, "{{\"type\":\"counter\",\"value\":{v}}}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(s, "{{\"type\":\"gauge\",\"value\":{}}}", fmt_f64(*v));
            }
            MetricValue::Histogram(h) => s.push_str(&json_histogram(h)),
        }
    }
    s.push_str("}}\n");
    s
}

/// Renders the snapshot in the Prometheus text exposition format.
///
/// Latency histograms expand to the conventional cumulative
/// `<name>_bucket{le="…"}` series plus `<name>_sum` / `<name>_count`;
/// labeled gauges (e.g. the per-clique drift gauges) pass their label
/// sets through. A `# TYPE` line is emitted once per metric family.
#[must_use]
pub fn to_prometheus(snapshot: &Snapshot) -> String {
    let mut s = String::new();
    let mut last_family = "";
    for m in &snapshot.metrics {
        let (base, labels) = split_labels(&m.name);
        let kind = match &m.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        if base != last_family {
            let _ = writeln!(s, "# TYPE {base} {kind}");
        }
        match &m.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(s, "{base}{labels} {v}");
            }
            MetricValue::Gauge(v) => {
                let v = if v.is_finite() { *v } else { 0.0 };
                let _ = writeln!(s, "{base}{labels} {v}");
            }
            MetricValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for b in h.histogram.buckets() {
                    cumulative += b.freq as u64;
                    let _ = writeln!(s, "{base}_bucket{{le=\"{}\"}} {cumulative}", b.hi);
                }
                let _ = writeln!(s, "{base}_bucket{{le=\"+Inf\"}} {}", h.count.max(cumulative));
                let _ = writeln!(s, "{base}_sum {}", h.sum);
                let _ = writeln!(s, "{base}_count {}", h.count);
            }
        }
        last_family = base;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Snapshot {
        let r = Registry::default();
        r.counter("dbhist_test_export_total").add(7);
        r.gauge("dbhist_test_export_ratio{clique=\"0\"}").set(0.25);
        r.gauge("dbhist_test_export_ratio{clique=\"1\"}").set(0.75);
        let h = r.histogram("dbhist_test_export_latency_ns");
        for v in [5u64, 5, 100, 100_000] {
            h.record(v);
        }
        r.snapshot()
    }

    #[test]
    fn json_contains_every_metric() {
        let snap = sample();
        let json = to_json(&snap);
        assert!(json.contains("\"dbhist_test_export_total\":{\"type\":\"counter\",\"value\":7}"));
        assert!(json.contains("dbhist_test_export_ratio{clique=\\\"0\\\"}"));
        assert!(json.contains("\"value\":0.25"));
        assert!(json.contains("\"type\":\"histogram\",\"count\":4"));
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("\"p99\":"));
        // Balanced braces: a cheap structural sanity check for the
        // hand-rolled encoder (no brace characters occur inside strings).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn prometheus_renders_families_and_cumulative_buckets() {
        let snap = sample();
        let prom = to_prometheus(&snap);
        assert!(prom.contains("# TYPE dbhist_test_export_total counter"));
        assert!(prom.contains("dbhist_test_export_total 7"));
        assert!(prom.contains("dbhist_test_export_ratio{clique=\"0\"} 0.25"));
        assert!(prom.contains("dbhist_test_export_ratio{clique=\"1\"} 0.75"));
        assert_eq!(
            prom.matches("# TYPE dbhist_test_export_ratio gauge").count(),
            1,
            "one TYPE line per family"
        );
        assert!(prom.contains("# TYPE dbhist_test_export_latency_ns histogram"));
        assert!(prom.contains("dbhist_test_export_latency_ns_bucket{le=\"+Inf\"} 4"));
        assert!(prom.contains("dbhist_test_export_latency_ns_sum 100110"));
        assert!(prom.contains("dbhist_test_export_latency_ns_count 4"));
        // Cumulative counts are non-decreasing.
        let mut last = 0u64;
        for line in prom.lines().filter(|l| l.contains("_bucket{le=")) {
            let count: u64 = line.rsplit(' ').next().and_then(|n| n.parse().ok()).unwrap_or(0);
            assert!(count >= last, "cumulative bucket counts must not decrease: {line}");
            last = count;
        }
    }

    #[test]
    fn exporters_agree_on_the_same_snapshot() {
        let snap = sample();
        let json = to_json(&snap);
        let prom = to_prometheus(&snap);
        for m in &snap.metrics {
            let (base, _) = split_labels(&m.name);
            assert!(json.contains(base), "JSON missing {base}");
            assert!(prom.contains(base), "Prometheus missing {base}");
        }
    }
}
