//! RAII span tracing.
//!
//! The [`crate::span!`] macro times a lexical scope:
//!
//! ```
//! # fn compute() {}
//! {
//!     let _span = dbhist_telemetry::span!("dbhist_query_estimate_latency_ns");
//!     compute(); // timed while `_span` is live
//! } // duration recorded here
//! ```
//!
//! Each call site lazily registers one [`SpanMeter`] (a latency histogram
//! plus a call counter) in the global registry, so repeated entries never
//! hash a metric name.
//!
//! Spans are **zero-cost when inert**: if global telemetry is disabled
//! (see [`crate::set_enabled`]), entering a span performs one relaxed
//! atomic load and never touches the clock. Spans feed the registry
//! only; a caller that needs a duration for itself (the core crate's
//! `BuildTrace`) times it with its own `Instant` pair.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::registry::{self, Counter, LatencyHistogram};

/// The per-call-site instruments behind one [`crate::span!`] site: a
/// latency histogram named after the span and a derived
/// `<base>_spans_total` call counter.
#[derive(Debug)]
pub struct SpanMeter {
    name: &'static str,
    micros: bool,
    latency: Arc<LatencyHistogram>,
    calls: Arc<Counter>,
}

impl SpanMeter {
    /// Registers the meter for `name` in the global registry. The span
    /// duration unit follows the name's suffix: `_us` records
    /// microseconds, anything else nanoseconds (use `_ns`). The derived
    /// call counter drops a trailing `_latency_<unit>` before appending
    /// `_spans_total`.
    #[must_use]
    pub fn register(name: &'static str) -> Self {
        let base = name
            .strip_suffix("_latency_ns")
            .or_else(|| name.strip_suffix("_latency_us"))
            .unwrap_or(name);
        Self {
            name,
            micros: name.ends_with("_us"),
            latency: registry::global().histogram(name),
            calls: registry::global().counter(&format!("{base}_spans_total")),
        }
    }

    /// The span (and histogram) name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn record(&self, elapsed: Duration) {
        let raw = if self.micros { elapsed.as_micros() } else { elapsed.as_nanos() };
        self.latency.record(u64::try_from(raw).unwrap_or(u64::MAX));
        self.calls.increment();
    }
}

/// RAII guard produced by [`crate::span!`]. Dropping it records the
/// elapsed time into the meter's histogram (when global telemetry is
/// enabled).
#[derive(Debug)]
#[must_use = "a span guard times its enclosing scope; dropping it immediately records ~0"]
pub struct SpanGuard {
    active: Option<(&'static SpanMeter, Instant)>,
}

impl SpanGuard {
    /// Enters a span. Inert (no clock read) unless global telemetry is
    /// enabled.
    pub fn enter(meter: &'static SpanMeter) -> Self {
        if !registry::enabled() {
            return Self { active: None };
        }
        Self { active: Some((meter, Instant::now())) }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((meter, start)) = self.active.take() else { return };
        let elapsed = start.elapsed();
        if registry::enabled() {
            meter.record(elapsed);
        }
    }
}

/// Times the enclosing lexical scope under the given metric name.
///
/// Expands to a [`SpanGuard`] whose [`SpanMeter`] is registered once per
/// call site (in a local `static`). Bind it to a named `_`-prefixed
/// variable — `let _span = span!("...")` — so it lives to the end of the
/// scope; a bare `span!(...)` statement would drop immediately.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static METER: ::std::sync::OnceLock<$crate::span::SpanMeter> = ::std::sync::OnceLock::new();
        $crate::span::SpanGuard::enter(
            METER.get_or_init(|| $crate::span::SpanMeter::register($name)),
        )
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_without_subscriber() {
        let _serial = crate::test_support::enabled_flag_lock();
        registry::set_enabled(false);
        let span = crate::span!("dbhist_test_inert_latency_ns");
        assert!(span.active.is_none(), "inert spans never read the clock");
    }

    #[test]
    fn enabled_spans_record_into_registry() {
        let _serial = crate::test_support::enabled_flag_lock();
        registry::set_enabled(true);
        {
            let _span = crate::span!("dbhist_test_recorded_latency_ns");
        }
        registry::set_enabled(false);
        let snap = registry::snapshot();
        let calls = snap.counter("dbhist_test_recorded_spans_total").unwrap_or(0);
        assert!(calls >= 1, "span call counter must tick");
        let hist = snap.histogram("dbhist_test_recorded_latency_ns");
        assert!(hist.is_some_and(|h| h.count >= 1), "span latency must be recorded");
    }

    #[test]
    fn microsecond_suffix_selects_unit() {
        let meter = SpanMeter::register("dbhist_test_unit_latency_us");
        assert!(meter.micros);
        meter.record(Duration::from_millis(3));
        let snap = meter.latency.snapshot();
        let p50 = snap.percentile(50.0).unwrap_or(0.0);
        assert!((2_900.0..=3_200.0).contains(&p50), "3 ms must record ~3000 us, got {p50}");
    }
}
