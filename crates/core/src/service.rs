//! The concurrent estimation service: one immutable synopsis shared by
//! many reader threads, swapped out from under them with zero downtime.
//!
//! [`EstimatorService`] is the serving layer the ROADMAP north star
//! ("heavy traffic from millions of users") plugs into. Clients submit
//! *batches* of range predicates; a pool of worker threads answers them
//! against an immutable `Arc<`[`Generation`]`>` snapshot of the current
//! [`Synopsis`]. [`EstimatorService::swap`] installs a replacement —
//! a drift-triggered rebuild from [`MaintainedDbHistogram`] or a
//! [`persist` snapshot](crate::snapshot) — without dropping an in-flight
//! query: workers that already hold the old `Arc` finish their batch on
//! it, and the old synopsis is retired when the last holder releases it.
//!
//! # Swap protocol (epoch-style hot swap without `arc-swap`)
//!
//! The workspace forbids `unsafe` code, so a true lock-free pointer swap
//! is off the table. The service gets the same steady-state behaviour
//! with a generation counter:
//!
//! * `generation: AtomicU64` — bumped with `Release` after a new
//!   `Arc<Generation>` is installed under the `current` mutex.
//! * Each worker caches its own `Arc<Generation>` locally. Per batch it
//!   does one `Acquire` load of the counter; only when the number moved
//!   does it take the `current` lock to re-clone the `Arc`.
//!
//! Steady state (no swap in progress) is therefore **lock-free on the
//! read path**: one atomic load per batch, zero mutex acquisitions. The
//! `current` mutex is touched only on the swap edge, and is held just
//! long enough to clone an `Arc`.
//!
//! Estimates are **bit-identical to serial estimation** at any reader
//! count: workers call the same [`SelectivityEstimator::estimate`] on
//! the same immutable synopsis, which caches nothing (its pooled scratch
//! is cleared before every use). `tests/concurrent_equivalence.rs`
//! pins this with a proptest that hammers one service from many threads
//! across mid-run swaps.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use dbhist_distribution::Relation;
use dbhist_telemetry::journal::{journal, JournalEvent};
use dbhist_telemetry::registry::{Counter, HistogramSnapshot, LatencyHistogram};
use dbhist_telemetry::wellknown::wellknown;

use crate::builder::{Synopsis, SynopsisBuilder};
use crate::error::SynopsisError;
use crate::estimator::SelectivityEstimator;
use crate::explain::ExplainReport;
use crate::lock;
use crate::maintenance::MaintainedDbHistogram;
use crate::query::Query;

/// Sampled [`ExplainReport`]s retained for
/// [`EstimatorService::recent_explains`] (older reports are evicted).
pub const EXPLAIN_RING_CAPACITY: usize = 32;

/// Configuration for [`EstimatorService::start`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads answering batches (minimum 1).
    pub workers: usize,
    /// Explain sampling rate: every `explain_sample`-th served query is
    /// answered through the explained path, its [`ExplainReport`]
    /// retained for [`EstimatorService::recent_explains`] and a
    /// [`JournalEvent::QuerySampled`] published. `0` (the default)
    /// disables sampling entirely — the serving path is then byte-for-byte
    /// the unprobed estimation code.
    pub explain_sample: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self { workers: 2, explain_sample: 0 }
    }
}

/// One immutable, numbered snapshot of the serving synopsis. Readers
/// hold it through an `Arc`; the synopsis inside is never mutated.
#[derive(Debug)]
pub struct Generation {
    /// Monotonic generation number (the initial synopsis is 1).
    pub number: u64,
    /// The synopsis answering queries for this generation.
    pub synopsis: Synopsis,
}

/// A batch of answered queries, tagged with the generation that served
/// it (every estimate in one batch comes from the same snapshot).
#[derive(Debug, Clone)]
pub struct BatchReply {
    /// Generation whose synopsis produced `estimates`.
    pub generation: u64,
    /// Per-query estimates, in submission order.
    pub estimates: Vec<f64>,
}

/// Handle to an in-flight batch submitted via
/// [`EstimatorService::submit`].
#[derive(Debug)]
pub struct BatchTicket {
    rx: mpsc::Receiver<BatchReply>,
}

impl BatchTicket {
    /// Blocks until the batch is answered. `None` only if the service
    /// was torn down before the reply could be produced.
    #[must_use]
    pub fn wait(self) -> Option<BatchReply> {
        self.rx.recv().ok()
    }
}

/// Cumulative service counters (see [`EstimatorService::stats`]).
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Individual queries answered.
    pub requests: u64,
    /// Batches answered.
    pub batches: u64,
    /// Generations installed by [`EstimatorService::swap`] (the initial
    /// synopsis does not count).
    pub swaps: u64,
    /// Replies whose client hung up before delivery. Always 0 unless a
    /// submitter drops its [`BatchTicket`] early — `swap()` never drops
    /// an in-flight query.
    pub dropped_replies: u64,
    /// Queries answered per generation, as `(generation, count)` pairs in
    /// ascending generation order. A swap never zeroes earlier entries,
    /// so the distribution shows exactly how traffic straddled each
    /// handover.
    pub per_generation: Vec<(u64, u64)>,
    /// Distribution of [`EstimatorService::swap`] install latencies
    /// (nanoseconds from entry to the new generation being published).
    pub swap_latency: HistogramSnapshot,
}

/// Always-on service metrics, mirrored into the process-wide
/// `dbhist_serve_*` registry handles when global telemetry is enabled.
#[derive(Debug, Default)]
struct ServiceMetrics {
    requests: Counter,
    batches: Counter,
    swaps: Counter,
    dropped_replies: Counter,
    latency: LatencyHistogram,
    swap_latency: LatencyHistogram,
}

struct Job {
    queries: Vec<Query>,
    enqueued: Instant,
    reply: mpsc::Sender<BatchReply>,
}

pub(crate) struct Shared {
    /// Current generation number; `Release`-stored after the matching
    /// `Arc` is installed in `current`, `Acquire`-loaded by workers.
    generation: AtomicU64,
    /// The currently serving snapshot. Locked only to swap or to
    /// re-clone after the generation counter moved.
    current: Mutex<Arc<Generation>>,
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    shutdown: AtomicBool,
    metrics: ServiceMetrics,
    /// Queries served per generation; touched once per batch, not per
    /// query.
    per_generation: Mutex<BTreeMap<u64, u64>>,
    /// Explain sampling rate (0 = off); see
    /// [`ServiceConfig::explain_sample`].
    explain_sample: usize,
    /// Monotonic served-query sequence driving explain sampling. Workers
    /// claim one span per batch with a single `fetch_add`.
    served_seq: AtomicU64,
    /// Last-N sampled explain reports, newest last.
    explains: Mutex<VecDeque<ExplainReport>>,
}

impl Shared {
    pub(crate) fn current_snapshot(&self) -> Arc<Generation> {
        Arc::clone(&lock(&self.current))
    }

    pub(crate) fn generation_number(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    pub(crate) fn pending(&self) -> usize {
        lock(&self.queue).len()
    }

    pub(crate) fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.metrics.requests.value(),
            batches: self.metrics.batches.value(),
            swaps: self.metrics.swaps.value(),
            dropped_replies: self.metrics.dropped_replies.value(),
            per_generation: lock(&self.per_generation)
                .iter()
                .map(|(&generation, &count)| (generation, count))
                .collect(),
            swap_latency: self.metrics.swap_latency.snapshot(),
        }
    }

    pub(crate) fn recent_explains(&self) -> Vec<ExplainReport> {
        lock(&self.explains).iter().cloned().collect()
    }
}

/// The concurrent estimation service. See the module docs for the swap
/// protocol and concurrency guarantees.
pub struct EstimatorService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for EstimatorService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EstimatorService")
            .field("workers", &self.workers.len())
            .field("generation", &self.generation())
            .finish()
    }
}

impl EstimatorService {
    /// Starts a service answering batches against `synopsis` (installed
    /// as generation 1) with `config.workers` worker threads.
    #[must_use]
    pub fn start(synopsis: Synopsis, config: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            generation: AtomicU64::new(1),
            current: Mutex::new(Arc::new(Generation { number: 1, synopsis })),
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics: ServiceMetrics::default(),
            per_generation: Mutex::new(BTreeMap::new()),
            explain_sample: config.explain_sample,
            served_seq: AtomicU64::new(0),
            explains: Mutex::new(VecDeque::new()),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self { shared, workers }
    }

    /// The current generation number (1 until the first swap).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::Acquire)
    }

    /// The currently serving snapshot. The returned `Arc` stays valid —
    /// and its synopsis immutable — even across later swaps.
    #[must_use]
    pub fn snapshot(&self) -> Arc<Generation> {
        self.shared.current_snapshot()
    }

    /// Batches not yet picked up by a worker.
    #[must_use]
    pub fn pending(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Submits a batch of typed [`Query`] values; returns a ticket
    /// redeemable for the [`BatchReply`]. Empty batches are answered
    /// immediately by a worker with an empty estimate list. Raw range
    /// triples convert via `Query::from(&ranges[..])`.
    #[must_use]
    pub fn submit(&self, queries: Vec<Query>) -> BatchTicket {
        let (tx, rx) = mpsc::channel();
        let n = u64::try_from(queries.len()).unwrap_or(u64::MAX);
        self.shared.metrics.requests.add(n);
        self.shared.metrics.batches.increment();
        if dbhist_telemetry::enabled() {
            let w = wellknown();
            w.serve_requests.add(n);
            w.serve_batches.increment();
        }
        lock(&self.shared.queue).push_back(Job { queries, enqueued: Instant::now(), reply: tx });
        self.shared.ready.notify_one();
        BatchTicket { rx }
    }

    /// Submits `queries` and blocks for the reply.
    ///
    /// # Errors
    ///
    /// Returns an error only if the service is torn down mid-request.
    pub fn estimate_batch(&self, queries: Vec<Query>) -> Result<BatchReply, SynopsisError> {
        self.submit(queries).wait().ok_or_else(|| SynopsisError::InvalidConfig {
            parameter: "service",
            reason: "estimator service shut down before answering".to_string(),
        })
    }

    /// Installs `synopsis` as the new serving generation and returns its
    /// number. In-flight batches finish on the generation they started
    /// with; the old synopsis is dropped when its last holder releases
    /// it. No query is ever dropped by a swap.
    pub fn swap(&self, synopsis: Synopsis) -> u64 {
        let started = Instant::now();
        let mut current = lock(&self.shared.current);
        let number = current.number + 1;
        *current = Arc::new(Generation { number, synopsis });
        // Publish after the Arc is installed: a worker that sees the new
        // number will find (at least) this generation under the lock.
        self.shared.generation.store(number, Ordering::Release);
        drop(current);
        let latency_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.shared.metrics.swaps.increment();
        self.shared.metrics.swap_latency.record(latency_ns);
        journal().publish(JournalEvent::GenerationSwap { generation: number, latency_ns });
        if dbhist_telemetry::enabled() {
            let w = wellknown();
            w.serve_swaps.increment();
            w.serve_swap_latency.record(latency_ns);
            w.serve_journal_events.increment();
        }
        number
    }

    /// Rebuilds `maintained` from `relation` (re-persisting if it has a
    /// snapshot path) and swaps the rebuilt synopsis in. Returns the new
    /// generation number.
    ///
    /// # Errors
    ///
    /// Propagates rebuild/persist failures; the serving generation is
    /// untouched on error.
    pub fn swap_rebuilt(
        &self,
        maintained: &mut MaintainedDbHistogram,
        relation: &Relation,
    ) -> Result<u64, SynopsisError> {
        maintained.rebuild(relation)?;
        Ok(self.swap(Synopsis::Mhist(maintained.synopsis().clone())))
    }

    /// Swaps in a clone of an ingest session's current synopsis, so
    /// readers see every batch applied so far without interrupting the
    /// stream (the session keeps ingesting into its own copy; swap
    /// again after further batches or a re-split). Returns the new
    /// generation number.
    pub fn swap_ingested(&self, session: &crate::ingest::IngestSession) -> u64 {
        self.swap(Synopsis::Mhist(session.estimator().synopsis().clone()))
    }

    /// Loads a persisted synopsis from `path` and swaps it in. Returns
    /// the new generation number.
    ///
    /// # Errors
    ///
    /// Propagates snapshot load/validation failures; the serving
    /// generation is untouched on error.
    pub fn swap_from_snapshot(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<u64, SynopsisError> {
        Ok(self.swap(SynopsisBuilder::from_snapshot(path)?))
    }

    /// Cumulative request/batch/swap counters, the per-generation served
    /// distribution, and the swap-latency histogram.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// The most recent sampled [`ExplainReport`]s (oldest first, at most
    /// [`EXPLAIN_RING_CAPACITY`]). Empty unless
    /// [`ServiceConfig::explain_sample`] is non-zero.
    #[must_use]
    pub fn recent_explains(&self) -> Vec<ExplainReport> {
        self.shared.recent_explains()
    }

    /// The service's shared state, for the observability endpoint
    /// ([`crate::observe`]).
    pub(crate) fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Snapshot of the submission-to-reply latency histogram (one record
    /// per request), for p50/p99/p999 reporting.
    #[must_use]
    pub fn latency(&self) -> HistogramSnapshot {
        self.shared.metrics.latency.snapshot()
    }
}

impl Drop for EstimatorService {
    /// Graceful teardown: workers drain every queued batch before
    /// exiting, so no submitted query is lost.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Retains a sampled explain report in the last-N ring and publishes the
/// matching [`JournalEvent::QuerySampled`].
fn publish_sampled(shared: &Shared, generation: u64, report: ExplainReport) {
    journal().publish(JournalEvent::QuerySampled {
        generation,
        estimate: report.estimate,
        path: report.path.as_str().to_string(),
    });
    if dbhist_telemetry::enabled() {
        wellknown().serve_journal_events.increment();
    }
    let mut ring = lock(&shared.explains);
    if ring.len() >= EXPLAIN_RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(report);
}

fn worker_loop(shared: &Shared) {
    let mut snapshot = shared.current_snapshot();
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared.ready.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else { break };
        // Acquire a snapshot per batch: one atomic load; the mutex is
        // taken only when a swap actually happened.
        if shared.generation.load(Ordering::Acquire) != snapshot.number {
            snapshot = shared.current_snapshot();
        }
        let n = u64::try_from(job.queries.len()).unwrap_or(u64::MAX);
        let sample = u64::try_from(shared.explain_sample).unwrap_or(u64::MAX);
        // Claim this batch's span of the served-query sequence with one
        // atomic op; individual queries are then sampled positionally.
        let first_seq =
            if sample > 0 { shared.served_seq.fetch_add(n, Ordering::AcqRel) } else { 0 };
        let estimates: Vec<f64> = job
            .queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let seq = first_seq.wrapping_add(u64::try_from(i).unwrap_or(u64::MAX));
                if sample > 0 && seq % sample == 0 {
                    if let Ok((est, report)) = snapshot.synopsis.try_estimate_explained(q) {
                        publish_sampled(shared, snapshot.number, report);
                        return est;
                    }
                }
                snapshot.synopsis.estimate(q)
            })
            .collect();
        *lock(&shared.per_generation).entry(snapshot.number).or_insert(0) += n;
        let elapsed_ns = u64::try_from(job.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let telemetry = dbhist_telemetry::enabled();
        for _ in 0..job.queries.len() {
            shared.metrics.latency.record(elapsed_ns);
            if telemetry {
                wellknown().serve_latency.record(elapsed_ns);
            }
        }
        if job.reply.send(BatchReply { generation: snapshot.number, estimates }).is_err() {
            shared.metrics.dropped_replies.increment();
            if telemetry {
                wellknown().serve_dropped_replies.increment();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbhist_distribution::Schema;

    fn relation(seed: u64) -> Relation {
        let schema = Schema::new(vec![("a", 8), ("b", 8), ("c", 4)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..2048)
            .map(|i| {
                let i = i + seed;
                vec![(i % 8) as u32, ((i / 2) % 8) as u32, ((i / 8) % 4) as u32]
            })
            .collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    fn build(seed: u64, budget: usize) -> Synopsis {
        SynopsisBuilder::new(&relation(seed)).budget(budget).build().unwrap()
    }

    fn queries() -> Vec<Query> {
        vec![
            Query::range(0, 0, 3),
            Query::range(0, 0, 3).eq(2, 1),
            Query::range(1, 2, 5).and(2, 0, 2),
            Query::range(0, 1, 6).and(1, 0, 7).and(2, 0, 3),
        ]
    }

    #[test]
    fn batches_match_direct_estimation() {
        let synopsis = build(0, 512);
        let expected: Vec<f64> = queries().iter().map(|q| synopsis.estimate(q)).collect();
        let service = EstimatorService::start(
            synopsis,
            ServiceConfig { workers: 2, ..ServiceConfig::default() },
        );
        let reply = service.estimate_batch(queries()).unwrap();
        assert_eq!(reply.generation, 1);
        for (got, want) in reply.estimates.iter().zip(&expected) {
            assert_eq!(got.to_bits(), want.to_bits(), "service must be bit-identical");
        }
        let stats = service.stats();
        assert_eq!(stats.requests, queries().len() as u64);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.dropped_replies, 0);
        assert_eq!(service.latency().count, queries().len() as u64);
    }

    #[test]
    fn swap_installs_new_generation_without_dropping_queries() {
        let old = build(0, 512);
        let new = build(1, 768);
        let old_expected: Vec<f64> = queries().iter().map(|q| old.estimate(q)).collect();
        let new_expected: Vec<f64> = queries().iter().map(|q| new.estimate(q)).collect();

        let service =
            EstimatorService::start(old, ServiceConfig { workers: 2, ..ServiceConfig::default() });
        // Hold the old snapshot across the swap: it must stay readable.
        let held = service.snapshot();
        let before = service.estimate_batch(queries()).unwrap();
        let gen2 = service.swap(new);
        assert_eq!(gen2, 2);
        assert_eq!(service.generation(), 2);
        let after = service.estimate_batch(queries()).unwrap();

        assert_eq!(before.generation, 1);
        assert_eq!(after.generation, 2);
        for ((got, want_old), want_new) in
            before.estimates.iter().zip(&old_expected).zip(&new_expected)
        {
            assert_eq!(got.to_bits(), want_old.to_bits());
            let _ = want_new;
        }
        for (got, want) in after.estimates.iter().zip(&new_expected) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        // The retired generation is still answerable through the held Arc.
        for (q, want) in queries().iter().zip(&old_expected) {
            assert_eq!(held.synopsis.estimate(q).to_bits(), want.to_bits());
        }
        assert_eq!(service.stats().swaps, 1);
        assert_eq!(service.stats().dropped_replies, 0);
    }

    #[test]
    fn concurrent_submitters_get_generation_consistent_answers() {
        let synopsis = build(0, 512);
        let gens = [build(0, 512), build(1, 512), build(2, 768)];
        // expected[g][q]: generation g+1 answered serially.
        let mut expected: Vec<Vec<f64>> =
            vec![queries().iter().map(|q| synopsis.estimate(q)).collect()];
        for g in &gens {
            expected.push(queries().iter().map(|q| g.estimate(q)).collect());
        }
        let service = EstimatorService::start(
            synopsis,
            ServiceConfig { workers: 3, ..ServiceConfig::default() },
        );
        std::thread::scope(|s| {
            for _ in 0..4 {
                let service = &service;
                let expected = &expected;
                s.spawn(move || {
                    for _ in 0..40 {
                        let reply = service.estimate_batch(queries()).unwrap();
                        let g = usize::try_from(reply.generation).unwrap_or(0);
                        let want = &expected[g - 1];
                        for (got, want) in reply.estimates.iter().zip(want) {
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "generation {g} must answer bit-identically"
                            );
                        }
                    }
                });
            }
            for g in gens {
                service.swap(g);
            }
        });
        assert_eq!(service.stats().swaps, 3);
        assert_eq!(service.stats().dropped_replies, 0);
    }

    #[test]
    fn swap_from_persisted_snapshot_round_trips() {
        let dir = std::env::temp_dir().join("dbhist-service-swap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen2.dbhs");
        let next = build(1, 768);
        next.save(&path).unwrap();
        let expected: Vec<f64> = queries().iter().map(|q| next.estimate(q)).collect();

        let service = EstimatorService::start(build(0, 512), ServiceConfig::default());
        let gen = service.swap_from_snapshot(&path).unwrap();
        assert_eq!(gen, 2);
        let reply = service.estimate_batch(queries()).unwrap();
        assert_eq!(reply.generation, 2);
        for (got, want) in reply.estimates.iter().zip(&expected) {
            assert_eq!(got.to_bits(), want.to_bits(), "loaded snapshot must be bit-identical");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn explain_sampling_collects_reports_and_per_generation_counts() {
        use crate::explain::QueryPath;
        let synopsis = build(0, 512);
        let expected: Vec<f64> = queries().iter().map(|q| synopsis.estimate(q)).collect();
        let service =
            EstimatorService::start(synopsis, ServiceConfig { workers: 1, explain_sample: 1 });
        let reply = service.estimate_batch(queries()).unwrap();
        for (got, want) in reply.estimates.iter().zip(&expected) {
            assert_eq!(got.to_bits(), want.to_bits(), "sampled answers stay bit-identical");
        }
        let reports = service.recent_explains();
        assert_eq!(reports.len(), queries().len(), "sample=1 explains every query");
        for r in &reports {
            // Every query constrains an attribute, so the report carries
            // the path it resolved through.
            assert_ne!(r.path, QueryPath::TableTotal, "report must carry the resolved path");
        }
        let stats = service.stats();
        assert_eq!(stats.per_generation, vec![(1, queries().len() as u64)]);
        assert_eq!(stats.swap_latency.count, 0);

        service.swap(build(1, 768));
        let _ = service.estimate_batch(queries()).unwrap();
        let stats = service.stats();
        assert_eq!(stats.per_generation.len(), 2, "traffic is split by generation");
        assert_eq!(stats.per_generation[1].0, 2);
        assert_eq!(stats.swap_latency.count, 1, "each swap records its install latency");
    }

    #[test]
    fn sampling_off_keeps_explain_ring_empty() {
        let service = EstimatorService::start(build(0, 512), ServiceConfig::default());
        let _ = service.estimate_batch(queries()).unwrap();
        assert!(service.recent_explains().is_empty());
    }

    #[test]
    fn drop_drains_queued_batches() {
        let service = EstimatorService::start(
            build(0, 512),
            ServiceConfig { workers: 1, ..ServiceConfig::default() },
        );
        let tickets: Vec<BatchTicket> = (0..16).map(|_| service.submit(queries())).collect();
        drop(service);
        for t in tickets {
            assert!(t.wait().is_some(), "teardown must drain queued batches, not drop them");
        }
    }
}
