//! Accuracy-drift monitoring from observed query cardinalities.
//!
//! A synopsis is built from a snapshot of the data; as the underlying
//! table changes (or the build sample ages), its estimates *drift* from
//! the truth. When the serving layer learns a query's actual cardinality
//! (e.g. after executing it), it feeds the synopsis's `record_feedback`
//! (`DbHistogram`, `Synopsis` or `IngestSession` in `dbhist-core`) —
//! which lands here as one absolute-relative-error observation
//! attributed to the model cliques the estimate visited.
//!
//! [`DriftMonitor`] keeps, per clique, both a rolling window of recent
//! errors (published as the mean gauge
//! `dbhist_estimator_drift_ratio{clique="i"}`) and a full abs-rel-error
//! *distribution* reusing [`LatencyHistogram`] bucketing over a
//! fixed-point encoding ([`ERROR_SCALE`] ten-thousandths). The
//! distribution is exported as per-clique quantile gauges
//! (`dbhist_estimator_error_q50_ratio{clique="i"}`, likewise `q95`/`q99`)
//! so a scrape shows the error *shape*, not just its recent mean.
//! The one maintenance policy, `IngestSession::tune` in `dbhist-core`,
//! compares each clique's tail quantile ([`DriftMonitor::error_quantile`])
//! against its re-split threshold — a *measured* trigger, not a guess
//! from how many rows changed.
//!
//! Non-finite feedback (`NaN`/`±inf`, e.g. from a zero actual
//! cardinality) is **dropped, not recorded**: it would poison every
//! window mean. Drops are counted in [`DriftMonitor::dropped`] and
//! mirrored to `dbhist_estimator_feedback_dropped_total` while global
//! telemetry is enabled, so silent estimator/feedback mismatches surface
//! in scrapes.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::registry::{self, Counter, Gauge, HistogramSnapshot, LatencyHistogram};
use crate::wellknown::wellknown;

/// Default rolling-window length per clique.
pub const DEFAULT_WINDOW: usize = 64;

/// Fixed-point scale for error distributions: an absolute relative error
/// `e` is recorded as `round(e * ERROR_SCALE)` (ten-thousandths, i.e.
/// 0.01% resolution), saturating at the histogram's `u32::MAX` ceiling
/// (errors above ~429496x land in the top bucket).
pub const ERROR_SCALE: f64 = 10_000.0;

/// Quantiles published as per-clique gauges while telemetry is enabled:
/// the full gauge family name paired with the percentile it reports.
const PUBLISHED_QUANTILES: [(&str, f64); 3] = [
    ("dbhist_estimator_error_q50_ratio", 50.0),
    ("dbhist_estimator_error_q95_ratio", 95.0),
    ("dbhist_estimator_error_q99_ratio", 99.0),
];

fn scale_error(abs_error: f64) -> u64 {
    // In-range f64→u64: the clamp bounds the value before the cast.
    (abs_error * ERROR_SCALE).round().clamp(0.0, f64::from(u32::MAX)) as u64
}

#[derive(Debug)]
struct CliqueDrift {
    /// Recent absolute relative errors, oldest first.
    errors: Mutex<VecDeque<f64>>,
    /// This monitor's window mean (always maintained).
    mean: Gauge,
    /// Full abs-rel-error distribution, fixed-point encoded (always
    /// maintained; cumulative, unlike the rolling window).
    distribution: LatencyHistogram,
    /// Registry gauge `dbhist_estimator_drift_ratio{clique="i"}`,
    /// mirrored from `mean` while global telemetry is enabled.
    published: Arc<Gauge>,
    /// Registry gauges `dbhist_estimator_error_q{50,95,99}_ratio{...}`,
    /// refreshed from `distribution` while global telemetry is enabled.
    published_quantiles: Vec<Arc<Gauge>>,
}

fn lock(errors: &Mutex<VecDeque<f64>>) -> MutexGuard<'_, VecDeque<f64>> {
    // A poisoned window only means another thread panicked mid-push; the
    // deque is always structurally sound.
    errors.lock().unwrap_or_else(PoisonError::into_inner)
}

impl CliqueDrift {
    fn publish_quantiles(&self) {
        let snap = self.distribution.snapshot();
        for (gauge, (_, q)) in self.published_quantiles.iter().zip(PUBLISHED_QUANTILES) {
            gauge.set(snap.percentile(q).map_or(0.0, |v| v / ERROR_SCALE));
        }
    }
}

/// Rolling absolute-relative-error statistics per model clique.
///
/// The per-clique gauges live in the global registry keyed by clique
/// *index*, so when several synopses coexist in one process the gauges
/// reflect the most recently fed monitor; per-synopsis readings are
/// always available through [`DriftMonitor::drift`] on the owning
/// estimator.
#[derive(Debug)]
pub struct DriftMonitor {
    window: usize,
    cliques: Vec<CliqueDrift>,
    observed: Counter,
    dropped: Counter,
}

impl DriftMonitor {
    /// Creates a monitor for `n_cliques` cliques with the given rolling
    /// window length (clamped to at least 1).
    #[must_use]
    pub fn new(n_cliques: usize, window: usize) -> Self {
        let window = window.max(1);
        let cliques = (0..n_cliques)
            .map(|i| CliqueDrift {
                errors: Mutex::new(VecDeque::with_capacity(window)),
                mean: Gauge::default(),
                distribution: LatencyHistogram::default(),
                published: registry::global()
                    .gauge(&format!("dbhist_estimator_drift_ratio{{clique=\"{i}\"}}")),
                published_quantiles: PUBLISHED_QUANTILES
                    .iter()
                    .map(|(family, _)| {
                        registry::global().gauge(&format!("{family}{{clique=\"{i}\"}}"))
                    })
                    .collect(),
            })
            .collect();
        Self { window, cliques, observed: Counter::default(), dropped: Counter::default() }
    }

    /// Records one feedback observation for `clique` (out-of-range clique
    /// indices are ignored). `abs_rel_error` is `|estimate − actual| /
    /// actual`; negative inputs are folded to their absolute value.
    ///
    /// Non-finite errors are **dropped**: they are counted in
    /// [`DriftMonitor::dropped`] (mirrored to
    /// `dbhist_estimator_feedback_dropped_total` when telemetry is
    /// enabled) but never enter the window or the distribution, and do
    /// not count as observations.
    pub fn record(&self, clique: usize, abs_rel_error: f64) {
        let Some(c) = self.cliques.get(clique) else { return };
        if !abs_rel_error.is_finite() {
            self.dropped.increment();
            if registry::enabled() {
                wellknown().estimator_feedback_dropped.increment();
            }
            return;
        }
        let abs = abs_rel_error.abs();
        let mean = {
            let mut errors = lock(&c.errors);
            if errors.len() == self.window {
                errors.pop_front();
            }
            errors.push_back(abs);
            errors.iter().sum::<f64>() / errors.len() as f64
        };
        c.mean.set(mean);
        c.distribution.record(scale_error(abs));
        if registry::enabled() {
            c.published.set(mean);
            c.publish_quantiles();
        }
        self.observed.increment();
    }

    /// Rolling mean absolute relative error for `clique` (0.0 before any
    /// feedback, or for an out-of-range index).
    #[must_use]
    pub fn drift(&self, clique: usize) -> f64 {
        self.cliques.get(clique).map_or(0.0, |c| c.mean.value())
    }

    /// The worst per-clique drift — the value maintenance policies
    /// threshold on.
    #[must_use]
    pub fn max_drift(&self) -> f64 {
        self.cliques.iter().map(|c| c.mean.value()).fold(0.0, f64::max)
    }

    /// The `q`-th percentile (`0..=100`) of every abs-rel-error ever
    /// recorded for `clique`, or `None` before any feedback / for an
    /// out-of-range index. Quantized by the fixed-point encoding to
    /// [`ERROR_SCALE`] resolution.
    #[must_use]
    pub fn error_quantile(&self, clique: usize, q: f64) -> Option<f64> {
        let c = self.cliques.get(clique)?;
        c.distribution.snapshot().percentile(q).map(|v| v / ERROR_SCALE)
    }

    /// The worst per-clique `q`-th error percentile — the tail analogue
    /// of [`DriftMonitor::max_drift`], for quantile-based maintenance
    /// triggers.
    #[must_use]
    pub fn max_error_quantile(&self, q: f64) -> f64 {
        (0..self.cliques.len()).filter_map(|i| self.error_quantile(i, q)).fold(0.0, f64::max)
    }

    /// Point-in-time snapshot of `clique`'s full error distribution (in
    /// fixed-point [`ERROR_SCALE`] units), or `None` for an out-of-range
    /// index.
    #[must_use]
    pub fn error_distribution(&self, clique: usize) -> Option<HistogramSnapshot> {
        self.cliques.get(clique).map(|c| c.distribution.snapshot())
    }

    /// Total feedback observations recorded into this monitor.
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.observed.value()
    }

    /// Non-finite feedback observations dropped (never recorded).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.value()
    }

    /// Number of cliques tracked.
    #[must_use]
    pub fn n_cliques(&self) -> usize {
        self.cliques.len()
    }

    /// Rolling window length.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Clears every window and distribution and zeroes the gauges (e.g.
    /// right after a rebuild, when accumulated drift no longer describes
    /// the new synopsis).
    pub fn reset(&self) {
        for c in &self.cliques {
            Self::reset_one(c);
        }
        self.observed.reset();
        self.dropped.reset();
    }

    /// Clears one clique's window, distribution, and gauges — used after
    /// a feedback-triggered re-split replaces just that clique's factor,
    /// so stale errors do not immediately re-trip the trigger. The
    /// monitor-global [`DriftMonitor::observations`] / dropped counters
    /// are left untouched: they describe feedback *volume*, not the
    /// current factors. Out-of-range indices are ignored.
    pub fn reset_clique(&self, clique: usize) {
        if let Some(c) = self.cliques.get(clique) {
            Self::reset_one(c);
        }
    }

    fn reset_one(c: &CliqueDrift) {
        lock(&c.errors).clear();
        c.mean.set(0.0);
        c.distribution.reset();
        if registry::enabled() {
            c.published.set(0.0);
            for gauge in &c.published_quantiles {
                gauge.set(0.0);
            }
        }
    }
}

impl Clone for DriftMonitor {
    /// Clones the windows, local means, and error distributions; the
    /// registry-published gauges are shared (they are keyed by clique
    /// index in the global registry).
    fn clone(&self) -> Self {
        Self {
            window: self.window,
            cliques: self
                .cliques
                .iter()
                .map(|c| {
                    let mean = Gauge::default();
                    mean.set(c.mean.value());
                    let distribution = LatencyHistogram::default();
                    distribution.absorb(&c.distribution);
                    CliqueDrift {
                        errors: Mutex::new(lock(&c.errors).clone()),
                        mean,
                        distribution,
                        published: Arc::clone(&c.published),
                        published_quantiles: c.published_quantiles.iter().map(Arc::clone).collect(),
                    }
                })
                .collect(),
            observed: {
                let observed = Counter::default();
                observed.add(self.observed.value());
                observed
            },
            dropped: {
                let dropped = Counter::default();
                dropped.add(self.dropped.value());
                dropped
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_mean_tracks_window() {
        let m = DriftMonitor::new(2, 4);
        for _ in 0..4 {
            m.record(0, 1.0);
        }
        assert!((m.drift(0) - 1.0).abs() < 1e-12);
        // Four more small errors push the large ones out of the window.
        for _ in 0..4 {
            m.record(0, 0.1);
        }
        assert!((m.drift(0) - 0.1).abs() < 1e-12);
        assert!(m.drift(1).abs() < 1e-12, "untouched clique stays at zero");
        assert_eq!(m.observations(), 8);
        assert!((m.max_drift() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn ignores_garbage() {
        let m = DriftMonitor::new(1, 8);
        m.record(5, 1.0); // out of range
        m.record(0, f64::NAN);
        m.record(0, f64::INFINITY);
        assert_eq!(m.observations(), 0);
        assert_eq!(m.dropped(), 2, "non-finite feedback is counted, not recorded");
        m.record(0, -0.5); // folded to |.|
        assert!((m.drift(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn error_distribution_exposes_quantiles() {
        let m = DriftMonitor::new(2, 4);
        // 100 errors: 0.00, 0.01, …, 0.99 — a uniform ramp.
        for i in 0..100 {
            m.record(0, f64::from(i) / 100.0);
        }
        let q50 = m.error_quantile(0, 50.0).unwrap_or(0.0);
        let q99 = m.error_quantile(0, 99.0).unwrap_or(0.0);
        assert!((0.35..=0.65).contains(&q50), "q50 {q50}");
        assert!((0.90..=1.05).contains(&q99), "q99 {q99}");
        assert!(q50 < q99);
        // The distribution is cumulative: it still sees all 100
        // observations even though the rolling window holds only 4.
        let snap = m.error_distribution(0).expect("clique 0 exists");
        assert_eq!(snap.count, 100);
        assert!(m.error_quantile(1, 50.0).is_none(), "untouched clique has no distribution");
        assert!(m.error_quantile(9, 50.0).is_none(), "out of range");
        assert!((m.max_error_quantile(99.0) - q99).abs() < 1e-12);
    }

    #[test]
    fn quantile_gauges_publish_when_enabled() {
        let _serial = crate::test_support::enabled_flag_lock();
        registry::set_enabled(true);
        let m = DriftMonitor::new(1, 8);
        for _ in 0..10 {
            m.record(0, 0.5);
        }
        registry::set_enabled(false);
        let snap = registry::snapshot();
        for (family, _) in PUBLISHED_QUANTILES {
            let name = format!("{family}{{clique=\"0\"}}");
            let v = snap.gauge(&name).unwrap_or(-1.0);
            assert!((0.4..=0.6).contains(&v), "{name} = {v}");
        }
    }

    #[test]
    fn reset_clears_everything() {
        let m = DriftMonitor::new(1, 8);
        m.record(0, 2.0);
        m.record(0, f64::NAN);
        assert!(m.max_drift() > 1.0);
        m.reset();
        assert!(m.max_drift().abs() < 1e-12);
        assert_eq!(m.observations(), 0);
        assert_eq!(m.dropped(), 0);
        assert!(m.error_quantile(0, 50.0).is_none(), "distribution cleared");
    }

    #[test]
    fn reset_clique_clears_only_that_clique() {
        let m = DriftMonitor::new(2, 8);
        m.record(0, 2.0);
        m.record(1, 0.4);
        m.reset_clique(0);
        assert!(m.drift(0).abs() < 1e-12, "clique 0 cleared");
        assert!(m.error_quantile(0, 95.0).is_none(), "distribution cleared");
        assert!((m.drift(1) - 0.4).abs() < 1e-12, "clique 1 untouched");
        assert_eq!(m.observations(), 2, "volume counters survive a per-clique reset");
        m.reset_clique(9); // out of range: a no-op
        assert!((m.drift(1) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn clone_shares_gauges_but_not_windows() {
        let m = DriftMonitor::new(1, 4);
        m.record(0, 1.0);
        let c = m.clone();
        assert!((c.drift(0) - 1.0).abs() < 1e-12);
        c.record(0, 0.0);
        // The clone's window diverges; the original's local mean is
        // untouched.
        assert!((c.drift(0) - 0.5).abs() < 1e-12);
        assert!((m.drift(0) - 1.0).abs() < 1e-12);
        assert_eq!(m.observations(), 1, "original's observation count unchanged");
        // The clone carried the distribution and diverges independently.
        assert_eq!(c.error_distribution(0).map_or(0, |s| s.count), 2);
        assert_eq!(m.error_distribution(0).map_or(0, |s| s.count), 1);
    }
}
