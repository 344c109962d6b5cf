//! A bounded, mostly-lock-free journal of structured engine events.
//!
//! Metrics answer "how many / how fast"; the journal answers "what
//! happened, in order". Producers publish typed [`JournalEvent`]s into a
//! fixed-capacity ring: claiming a slot is one wait-free `fetch_add` on
//! the head sequence, and publication touches only that slot's own mutex
//! (never contended unless the ring has wrapped onto a concurrent
//! reader). When the ring is full the *oldest* events are overwritten —
//! observability must never apply backpressure to the serving path.
//!
//! [`Journal::drain`] removes everything currently buffered and returns
//! it in sequence order, so concurrent drains partition the stream:
//! every published event that was not overwritten is seen by exactly one
//! drainer, exactly once (pinned by the racing-writers test below).
//! [`Journal::drain_jsonl`] renders the same drain as JSON Lines for the
//! `/journal` observability endpoint.
//!
//! Event-type strings are `snake_case` by convention, enforced by the
//! `journal-event-name` rule in `dbhist-analyze`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::export::{fmt_f64, json_escape};

/// Default ring capacity of the process-wide [`journal`].
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// One structured engine event.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A served query sampled for EXPLAIN: which generation answered it
    /// and the resolved execution path (the report's JSON rendering).
    QuerySampled {
        /// Synopsis generation that served the query.
        generation: u64,
        /// The estimate returned to the client.
        estimate: f64,
        /// Resolved path summary, e.g. `"evaluated"` or `"interpreted"`.
        path: String,
    },
    /// A zero-downtime synopsis swap completed.
    GenerationSwap {
        /// The generation number now serving.
        generation: u64,
        /// Wall-clock nanoseconds the swap critical section took.
        latency_ns: u64,
    },
    /// A maintenance rebuild produced a fresh synopsis.
    Rebuild {
        /// Rows the new synopsis was built from.
        rows: u64,
        /// Worst per-clique drift at the moment the rebuild triggered.
        max_drift: f64,
    },
    /// A clique's accuracy drift crossed the maintenance threshold.
    DriftTrip {
        /// Index of the tripping clique.
        clique: usize,
        /// The drift reading that tripped.
        drift: f64,
    },
    /// A bounded cache evicted an entry under capacity pressure.
    CacheEviction {
        /// Which cache (`"plan"`, `"marginal"`, `"kernel"`).
        cache: String,
        /// Entries resident after the eviction.
        entries: u64,
    },
    /// An ingest batch was made durable in the write-ahead log.
    WalAppend {
        /// Sequence number the batch committed at.
        seq: u64,
        /// Tuple operations in the batch.
        ops: u64,
        /// Encoded record bytes appended (framing included).
        bytes: u64,
    },
    /// The write-ahead log was atomically restarted after a snapshot.
    WalTruncate {
        /// Batches the discarded log generation held.
        batches: u64,
    },
    /// A feedback-triggered re-split replaced one clique's factor
    /// without a full rebuild.
    Resplit {
        /// Index of the re-split clique.
        clique: usize,
        /// Buckets in the replacement factor.
        buckets: u64,
    },
}

impl JournalEvent {
    /// The event's `snake_case` type tag, as rendered in JSONL.
    #[must_use]
    pub fn event_type(&self) -> &'static str {
        match self {
            JournalEvent::QuerySampled { .. } => "query_sampled",
            JournalEvent::GenerationSwap { .. } => "generation_swap",
            JournalEvent::Rebuild { .. } => "rebuild",
            JournalEvent::DriftTrip { .. } => "drift_trip",
            JournalEvent::CacheEviction { .. } => "cache_eviction",
            JournalEvent::WalAppend { .. } => "wal_append",
            JournalEvent::WalTruncate { .. } => "wal_truncate",
            JournalEvent::Resplit { .. } => "resplit",
        }
    }

    /// Renders the event as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self, seq: u64) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{\"seq\":{seq},\"event\":\"{}\"", self.event_type());
        match self {
            JournalEvent::QuerySampled { generation, estimate, path } => {
                let _ = write!(
                    s,
                    ",\"generation\":{generation},\"estimate\":{},\"path\":\"{}\"",
                    fmt_f64(*estimate),
                    json_escape(path)
                );
            }
            JournalEvent::GenerationSwap { generation, latency_ns } => {
                let _ = write!(s, ",\"generation\":{generation},\"latency_ns\":{latency_ns}");
            }
            JournalEvent::Rebuild { rows, max_drift } => {
                let _ = write!(s, ",\"rows\":{rows},\"max_drift\":{}", fmt_f64(*max_drift));
            }
            JournalEvent::DriftTrip { clique, drift } => {
                let _ = write!(s, ",\"clique\":{clique},\"drift\":{}", fmt_f64(*drift));
            }
            JournalEvent::CacheEviction { cache, entries } => {
                let _ = write!(s, ",\"cache\":\"{}\",\"entries\":{entries}", json_escape(cache));
            }
            JournalEvent::WalAppend { seq: batch_seq, ops, bytes } => {
                let _ = write!(s, ",\"batch_seq\":{batch_seq},\"ops\":{ops},\"bytes\":{bytes}");
            }
            JournalEvent::WalTruncate { batches } => {
                let _ = write!(s, ",\"batches\":{batches}");
            }
            JournalEvent::Resplit { clique, buckets } => {
                let _ = write!(s, ",\"clique\":{clique},\"buckets\":{buckets}");
            }
        }
        s.push('}');
        s
    }
}

type Slot = Mutex<Option<(u64, JournalEvent)>>;

fn lock(slot: &Slot) -> MutexGuard<'_, Option<(u64, JournalEvent)>> {
    // A poisoned slot only means another thread panicked mid-publish;
    // the Option is always structurally sound.
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fixed-capacity multi-producer multi-consumer event ring.
///
/// Publishing claims a globally ordered sequence number with one
/// `fetch_add` and stores the event into slot `seq % capacity` under
/// that slot's own mutex; the oldest event in the slot (if any) is
/// overwritten and counted in [`Journal::overwritten`]. Draining takes
/// every resident event and returns them sequence-sorted.
#[derive(Debug)]
pub struct Journal {
    /// Next sequence number to hand out. `Relaxed` suffices: slot
    /// contents are published under the slot mutex, and drains order by
    /// the stored sequence number, not by observation order.
    head: AtomicU64,
    slots: Box<[Slot]>,
    overwritten: AtomicU64,
}

impl Journal {
    /// Creates a ring holding at most `capacity` events (clamped to at
    /// least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, || Mutex::new(None));
        Self {
            head: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
            overwritten: AtomicU64::new(0),
        }
    }

    /// Ring capacity (maximum buffered events).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever published (the next sequence number).
    #[must_use]
    pub fn published(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events lost to ring wrap-around (overwritten before any drain).
    #[must_use]
    pub fn overwritten(&self) -> u64 {
        self.overwritten.load(Ordering::Relaxed)
    }

    /// Publishes one event, returning its sequence number. Wait-free up
    /// to the per-slot mutex, which is uncontended unless the ring wraps
    /// onto a concurrent drain.
    pub fn publish(&self, event: JournalEvent) -> u64 {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let idx = usize::try_from(seq % self.slots.len() as u64).unwrap_or(0);
        if let Some(slot) = self.slots.get(idx) {
            let evicted = lock(slot).replace((seq, event));
            if evicted.is_some() {
                self.overwritten.fetch_add(1, Ordering::Relaxed);
            }
        }
        seq
    }

    /// Removes and returns every buffered event, oldest first. Each
    /// published event is returned by exactly one drain (slots are
    /// `take`n under their mutex), so concurrent drains partition the
    /// stream without loss or duplication.
    #[must_use]
    pub fn drain(&self) -> Vec<(u64, JournalEvent)> {
        let mut out: Vec<(u64, JournalEvent)> = Vec::new();
        for slot in &*self.slots {
            if let Some(entry) = lock(slot).take() {
                out.push(entry);
            }
        }
        out.sort_by_key(|(seq, _)| *seq);
        out
    }

    /// Drains the ring and renders each event as one JSON line.
    #[must_use]
    pub fn drain_jsonl(&self) -> String {
        let mut s = String::new();
        for (seq, event) in self.drain() {
            s.push_str(&event.to_json(seq));
            s.push('\n');
        }
        s
    }

    /// Number of currently buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|slot| lock(slot).is_some()).count()
    }

    /// `true` when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide journal (capacity [`DEFAULT_JOURNAL_CAPACITY`]).
/// Producers gate publication on [`crate::registry::enabled`] — with
/// telemetry off, nothing is ever published here.
#[must_use]
pub fn journal() -> &'static Journal {
    static GLOBAL: OnceLock<Journal> = OnceLock::new();
    GLOBAL.get_or_init(|| Journal::new(DEFAULT_JOURNAL_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn swap(generation: u64) -> JournalEvent {
        JournalEvent::GenerationSwap { generation, latency_ns: 100 }
    }

    #[test]
    fn publish_then_drain_is_ordered() {
        let j = Journal::new(8);
        for g in 0..5 {
            j.publish(swap(g));
        }
        assert_eq!(j.len(), 5);
        let drained = j.drain();
        assert_eq!(drained.len(), 5);
        for (i, (seq, event)) in drained.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(*event, swap(i as u64));
        }
        assert!(j.is_empty(), "drain is destructive");
        assert_eq!(j.overwritten(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let j = Journal::new(4);
        for g in 0..10 {
            j.publish(swap(g));
        }
        let drained = j.drain();
        assert_eq!(drained.len(), 4, "capacity bounds residency");
        let seqs: Vec<u64> = drained.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "newest survive, oldest overwritten");
        assert_eq!(j.overwritten(), 6);
        assert_eq!(j.published(), 10);
    }

    #[test]
    fn jsonl_renders_every_event_kind() {
        let j = Journal::new(8);
        j.publish(JournalEvent::QuerySampled {
            generation: 1,
            estimate: 42.5,
            path: "evaluated".to_string(),
        });
        j.publish(JournalEvent::GenerationSwap { generation: 2, latency_ns: 1234 });
        j.publish(JournalEvent::Rebuild { rows: 4096, max_drift: 0.25 });
        j.publish(JournalEvent::DriftTrip { clique: 3, drift: 0.6 });
        j.publish(JournalEvent::CacheEviction { cache: "plan".to_string(), entries: 64 });
        j.publish(JournalEvent::WalAppend { seq: 9, ops: 128, bytes: 1664 });
        j.publish(JournalEvent::WalTruncate { batches: 10 });
        j.publish(JournalEvent::Resplit { clique: 2, buckets: 48 });
        let jsonl = j.drain_jsonl();
        assert_eq!(jsonl.lines().count(), 8);
        assert!(jsonl.contains("\"event\":\"query_sampled\""));
        assert!(jsonl.contains("\"path\":\"evaluated\""));
        assert!(jsonl.contains("\"event\":\"generation_swap\""));
        assert!(jsonl.contains("\"latency_ns\":1234"));
        assert!(jsonl.contains("\"event\":\"rebuild\""));
        assert!(jsonl.contains("\"event\":\"drift_trip\""));
        assert!(jsonl.contains("\"event\":\"cache_eviction\""));
        assert!(jsonl.contains("\"event\":\"wal_append\""));
        assert!(jsonl.contains("\"batch_seq\":9"));
        assert!(jsonl.contains("\"event\":\"wal_truncate\""));
        assert!(jsonl.contains("\"event\":\"resplit\""));
        assert!(jsonl.contains("\"buckets\":48"));
        for line in jsonl.lines() {
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }

    #[test]
    fn racing_writers_lose_nothing_within_capacity() {
        // Capacity covers every event, so nothing may be overwritten and
        // interleaved drains must partition the stream exactly.
        const WRITERS: u64 = 8;
        const PER_WRITER: u64 = 500;
        let j = Journal::new(usize::try_from(WRITERS * PER_WRITER).unwrap_or(4000));
        let drained = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let j = &j;
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        j.publish(swap(w * PER_WRITER + i));
                    }
                });
            }
            // Two racing drainers run concurrently with the writers.
            for _ in 0..2 {
                let j = &j;
                let drained = &drained;
                scope.spawn(move || {
                    for _ in 0..50 {
                        let batch = j.drain();
                        drained.lock().unwrap_or_else(PoisonError::into_inner).extend(batch);
                        std::thread::yield_now();
                    }
                });
            }
        });
        let mut all = drained.into_inner().unwrap_or_else(PoisonError::into_inner);
        all.extend(j.drain());
        assert_eq!(j.overwritten(), 0, "capacity covers every event");
        assert_eq!(all.len(), usize::try_from(WRITERS * PER_WRITER).unwrap_or(0));
        let mut seqs: Vec<u64> = all.iter().map(|(s, _)| *s).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), all.len(), "no event is drained twice");
        assert_eq!(seqs.first(), Some(&0));
        assert_eq!(seqs.last(), Some(&(WRITERS * PER_WRITER - 1)));
    }
}
