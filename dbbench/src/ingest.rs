//! `ingest-mixed`: a durable ingest stream beside a reader.
//!
//! One writer thread runs a closed loop of 64-op batches (48 inserts from
//! a Census-1 stream, 16 deletes of the oldest live stream rows) through a
//! durable `IngestSession` (snapshot + WAL, fsync per batch). Every cycle
//! of batches it feeds back 8 probe queries' exact counts, runs `tune()`
//! and `checkpoint()`; every 250 ms it swaps the session's synopsis into a
//! 1-worker service that one closed-loop reader queries. After the window
//! the writer stops at a fixed offset into a cycle, drops the session and
//! times `recover`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dbhist_core::ingest::{IngestConfig, IngestSession, TuneOutcome};
use dbhist_core::maintenance::MaintainedDbHistogram;
use dbhist_core::service::{EstimatorService, ServiceConfig};
use dbhist_core::synopsis::DbConfig;
use dbhist_core::{Query, SelectivityEstimator, Synopsis};
use dbhist_distribution::Relation;
use dbhist_persist::wal::WalOp;

use crate::pool::{self, Feed, PoolQuery, Scale, Shapes, FIXED_QUERIES, FIXED_SEED};
use crate::serve::{self, Client, Until, Window, SETUPS};
use crate::stats::{self, Summary};
use crate::trace::{self, Span, SpanLog};
use crate::{Options, Outcome};

/// Per-layer metrics only `ingest-mixed` measures; serving workloads
/// report them as zero with zero samples.
pub const LAYER_METRICS: [&str; 16] = [
    "ingest_ops_per_s",
    "ingest_batch_p50_us",
    "ingest_batch_p99_us",
    "recovery_s",
    "write_amp",
    "ingest.apply_us_p50",
    "ingest.apply_volatile_us_p50",
    "ingest.swap_ms_p50",
    "ingest.marginal_cells",
    "wal.share",
    "wal.bytes_per_batch",
    "snapshot.bytes",
    "snapshot.checkpoint_ms_p50",
    "maintenance.tune_ms_p50",
    "maintenance.resplits",
    "maintenance.rebuild_recommended",
];

const INSERTS: usize = 48;
const DELETES: usize = 16;
/// Queries whose exact counts feed `tune()` every cycle: the reader
/// pool's first (fixed) positions.
const PROBES: usize = 8;
const SWAP_EVERY: Duration = Duration::from_millis(250);
/// Timed recoveries; `recovery_s` is their median.
const RECOVERIES: usize = 7;
/// Queries compared bit for bit between the live and recovered synopses.
const RECOVERY_CHECKS: usize = 64;
/// Batches replayed through a volatile session for `wal.share`.
const VOLATILE_BATCHES: u64 = 4096;
/// Reader request size.
const REQUEST_LEN: usize = 16;
/// Rows of the ingest stream.
const STREAM_ROWS: usize = 262_144;
/// `rss_peak_mb` is read once the writer has applied this many cycles of
/// batches. Memory grows with the batches applied, so read at the end of
/// the window it followed the machine's speed (15% spread across runs).
const MEMORY_CYCLES: u64 = 4;

/// Scale-dependent sizes.
struct Sizes {
    budget: usize,
    stream_rows: usize,
    /// Batches between feedback/tune/checkpoint rounds.
    cycle: u64,
    /// The reader queries `serve-hot`'s one- and two-attribute shapes.
    /// Their kernels re-lower in about 15 ms after a swap; the three- and
    /// four-attribute shapes take up to 120 ms each, 700 ms in all, longer
    /// than the swap period, which would leave the reader permanently
    /// cold, its throughput set by a handful of shapes.
    reader: Shapes,
    warmup: Duration,
}

impl Sizes {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self {
                budget: 3 * 1024,
                stream_rows: STREAM_ROWS,
                cycle: 1024,
                reader: Shapes::Every { dims: 1..=2, per_shape: 288 },
                warmup: Duration::from_secs(2),
            },
            Scale::Smoke => Self {
                budget: 1024,
                stream_rows: 4_096,
                cycle: 64,
                reader: Shapes::Every { dims: 1..=2, per_shape: 1 },
                warmup: Duration::from_millis(200),
            },
        }
    }

    /// The writer stops at this offset into a cycle, so recovery always
    /// replays the same tail length.
    fn stop_offset(&self) -> u64 {
        self.cycle * 3 / 4
    }
}

/// The ingest stream: the rows the first cycle inserts come from
/// [`FIXED_SEED`], so the synopsis `rel_error_mean` is measured on is the
/// same on every run; the rest from the run's seed.
fn stream(sizes: &Sizes, seed: u64) -> Vec<Vec<u32>> {
    let fixed = (sizes.cycle as usize * INSERTS).min(sizes.stream_rows);
    let part = |rows, seed| dbhist_data::census::census_data_set_1_with(rows, seed);
    let (head, tail) =
        (part(fixed, FIXED_SEED), part(sizes.stream_rows - fixed, seed ^ 0x5EED_0001));
    head.rows().chain(tail.rows()).map(<[u32]>::to_vec).collect()
}

/// Batch `b` of the stream: inserts continue the stream, deletes remove
/// the oldest stream rows still live (indices wrap around the stream).
fn batch_ops(stream: &[Vec<u32>], b: u64) -> Vec<WalOp> {
    let n = stream.len() as u64;
    let row = |i: u64| stream[(i % n) as usize].clone();
    let inserts = (0..INSERTS as u64).map(|k| WalOp::Insert(row(b * INSERTS as u64 + k)));
    let deletes = (0..DELETES as u64).map(|k| WalOp::Delete(row(b * DELETES as u64 + k)));
    inserts.chain(deletes).collect()
}

/// Rows live after `batches` batches: the base table plus the stream rows
/// inserted and not yet deleted.
fn live_rows(base: &Relation, stream: &[Vec<u32>], batches: u64) -> Vec<Vec<u32>> {
    let n = stream.len() as u64;
    let live = (batches * DELETES as u64)..(batches * INSERTS as u64);
    base.rows().map(<[u32]>::to_vec).chain(live.map(|i| stream[(i % n) as usize].clone())).collect()
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// A probe query and its exact count on the live table, kept current by
/// the writer as it applies each op.
struct Probe {
    query: Query,
    count: f64,
}

/// Everything the writer thread measured.
#[derive(Default)]
struct WriterLog {
    batches: u64,
    ops: u64,
    failed: u64,
    window_ops: u64,
    /// Latency of each batch started in the measured window.
    window_batch_us: Vec<f64>,
    /// From the first of those batches' start to the last one's end.
    window_elapsed: Duration,
    rebuild_recommended: u64,
    wal_bytes: u64,
    snapshot_bytes: u64,
    /// The maintained synopsis right after the first cycle.
    first_cycle: Option<MaintainedDbHistogram>,
    /// Peak memory after [`MEMORY_CYCLES`] cycles.
    rss_mb: Option<f64>,
    /// Cold copies of each generation swapped in during the traced
    /// window, by generation number, for the replay.
    generations: BTreeMap<u64, Synopsis>,
    spans: Vec<Span>,
}

struct Writer<'a> {
    session: IngestSession,
    service: &'a EstimatorService,
    stream: &'a [Vec<u32>],
    probes: Vec<Probe>,
    sizes: &'a Sizes,
    snapshot: &'a Path,
    wal: &'a Path,
    /// Measured window `[start, end)`; the traced window (if any) follows.
    window: (Instant, Instant),
    stop_after: Instant,
    traced_from: Option<Instant>,
    log: SpanLog,
}

impl Writer<'_> {
    fn run(mut self) -> (IngestSession, WriterLog) {
        let mut out = WriterLog::default();
        let mut last_swap = Instant::now();
        let mut window_first = None;
        loop {
            let b = out.batches;
            let now = Instant::now();
            if now >= self.stop_after
                && b > self.sizes.cycle
                && b % self.sizes.cycle == self.sizes.stop_offset()
            {
                break;
            }
            let ops = batch_ops(self.stream, b);
            let id = self.log.begin("ingest.apply_batch", None, b);
            let started = Instant::now();
            let applied = self.session.apply_batch(&ops);
            let latency_us = started.elapsed().as_secs_f64() * 1e6;
            self.log.end(id);
            out.batches += 1;
            if out.batches == self.sizes.cycle * MEMORY_CYCLES {
                out.rss_mb = Some(serve::rss_peak_mb());
            }
            if applied.is_err() {
                out.failed += 1;
                continue;
            }
            out.ops += ops.len() as u64;
            if now >= self.window.0 && now < self.window.1 {
                out.window_ops += ops.len() as u64;
                out.window_batch_us.push(latency_us);
                let first = *window_first.get_or_insert(started);
                out.window_elapsed = first.elapsed();
            }
            for op in &ops {
                let (row, delta) = match op {
                    WalOp::Insert(row) => (row, 1.0),
                    WalOp::Delete(row) => (row, -1.0),
                };
                for p in self.probes.iter_mut().filter(|p| pool::matches(&p.query, row)) {
                    p.count += delta;
                }
            }
            if out.batches % self.sizes.cycle == 0 {
                self.cycle(&mut out);
            }
            if last_swap.elapsed() >= SWAP_EVERY {
                self.swap(&mut out);
                last_swap = Instant::now();
            }
        }
        out.wal_bytes += file_len(self.wal);
        out.spans = self.log.into_spans();
        (self.session, out)
    }

    /// Feedback on the probes, then `tune()`, then `checkpoint()`.
    fn cycle(&mut self, out: &mut WriterLog) {
        let b = out.batches;
        let root = self.log.begin("ingest.cycle", None, b);
        let (session, probes) = (&self.session, &self.probes);
        self.log.timed("ingest.record_feedback", Some(root), b, || {
            for p in probes {
                session.record_feedback(&p.query, p.count);
            }
        });
        let wal_before = file_len(self.wal);
        let session = &mut self.session;
        match self.log.timed("maintenance.tune", Some(root), b, || session.tune()) {
            // A re-split checkpoints internally: count what it rewrote.
            Ok(TuneOutcome::Resplit { .. }) => {
                out.wal_bytes += wal_before;
                out.snapshot_bytes += file_len(self.snapshot);
            }
            Ok(TuneOutcome::RebuildRecommended { .. }) => out.rebuild_recommended += 1,
            Ok(TuneOutcome::Idle) => {}
            Err(_) => out.failed += 1,
        }
        out.wal_bytes += file_len(self.wal);
        let session = &mut self.session;
        if self.log.timed("snapshot.checkpoint", Some(root), b, || session.checkpoint()).is_err() {
            out.failed += 1;
        }
        out.snapshot_bytes += file_len(self.snapshot);
        self.log.end(root);
        if b == self.sizes.cycle {
            out.first_cycle = Some(self.session.estimator().clone());
        }
    }

    fn swap(&mut self, out: &mut WriterLog) {
        let (service, session) = (self.service, &self.session);
        let generation = self
            .log
            .timed("ingest.swap_ingested", None, out.batches, || service.swap_ingested(session));
        if self.traced_from.is_some_and(|t| Instant::now() >= t) {
            let copy = Synopsis::Mhist(self.session.estimator().synopsis().clone());
            out.generations.insert(generation, copy);
        }
    }
}

/// Runs `ingest-mixed`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let sizes = Sizes::of(opts.scale);
    let epoch = Instant::now();
    let mut main_log = SpanLog::new(opts.trace, epoch, 0);
    let relation = pool::census1(opts.scale);
    let stream = stream(&sizes, opts.seed);
    let pool = pool::pool(&relation, &sizes.reader, None, opts.scale.min_count(), opts.seed)?;
    out.phase("data");
    let dir = opts.out.join("tmp").join(format!("ingest-mixed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result =
        run_in(&mut out, opts, &sizes, &relation, &stream, &pool, &dir, epoch, &mut main_log);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(opts.out.join("tmp"));
    result?;
    out.spans.extend(main_log.into_spans());
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn run_in(
    out: &mut Outcome,
    opts: &Options,
    sizes: &Sizes,
    relation: &Relation,
    stream: &[Vec<u32>],
    pool: &[PoolQuery],
    dir: &Path,
    epoch: Instant,
    main_log: &mut SpanLog,
) -> Result<(), String> {
    let config = || DbConfig::new(sizes.budget);
    let paths = |i: usize| -> (PathBuf, PathBuf) {
        (dir.join(format!("setup{i}.dbhs")), dir.join(format!("setup{i}.wal")))
    };

    // Set-up, timed SETUPS times: build, begin, with_durability, service
    // start. A copy of the fresh synopsis (untimed) seeds the volatile
    // session `wal.share` compares against.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut builds = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        drop(kept.take());
        let (snap, wal) = paths(i);
        let root = main_log.begin("setup", None, 0);
        let t = Instant::now();
        let built = main_log.timed("builder.build", Some(root), 0, || {
            MaintainedDbHistogram::build(relation, config())
        });
        let mut elapsed = t.elapsed();
        let built = built.map_err(|e| format!("build failed: {e}"))?;
        builds.push(built.synopsis().build_trace());
        let fresh = built.clone();
        let t = Instant::now();
        let session = main_log
            .timed("ingest.begin", Some(root), 0, || {
                IngestSession::begin(built, relation, IngestConfig::default())
            })
            .and_then(|s| {
                main_log.timed("ingest.with_durability", Some(root), 0, || {
                    s.with_durability(&snap, &wal)
                })
            })
            .map_err(|e| format!("session set-up failed: {e}"))?;
        let service = main_log.timed("service.start", Some(root), 0, || {
            EstimatorService::start(
                Synopsis::Mhist(session.estimator().synopsis().clone()),
                ServiceConfig { workers: 1, explain_sample: 0 },
            )
        });
        elapsed += t.elapsed();
        main_log.end(root);
        setup_s.push(elapsed.as_secs_f64());
        kept = Some((session, service, fresh, snap, wal));
    }
    let (session, service, fresh, snap, wal) = kept.ok_or("no set-up ran")?;
    out.set("setup_s", stats::median(&setup_s), SETUPS);
    serve::record_builds(out, &builds);
    let initial_snapshot = file_len(&snap);
    out.phase("setup");

    // The probes and the accuracy set are the pool's fixed positions, so
    // tune() takes the same decisions on every run.
    let accuracy = &pool[..FIXED_QUERIES.min(pool.len())];
    let probes: Vec<Probe> = accuracy
        .iter()
        .take(PROBES)
        .map(|q| Probe { query: q.query.clone(), count: q.exact })
        .collect();

    let start = Instant::now();
    let window = (start + sizes.warmup, start + sizes.warmup + opts.window());
    let traced_from = opts.trace.then_some(window.1);
    let stop_after = traced_from.map_or(window.1, |t| t + opts.window());
    let writer = Writer {
        session,
        service: &service,
        stream,
        probes,
        sizes,
        snapshot: &snap,
        wal: &wal,
        window,
        stop_after,
        traced_from,
        log: SpanLog::new(opts.trace, epoch, 1),
    };
    let feed = Feed::new();
    let client = Client {
        service: &service,
        pool,
        repeats: false,
        feed: &feed,
        request_len: REQUEST_LEN,
        epoch,
    };
    let (session, writer_log, reader) = std::thread::scope(|s| {
        let writer = s.spawn(move || writer.run());
        let reader = s.spawn(|| {
            let load = client.run(Until { deadline: window.1, end: usize::MAX }, None);
            // Memory at the end of the window, before the traced window
            // adds its logs.
            let rss = serve::rss_peak_mb();
            let traced = traced_from.map(|from| {
                let until = from + opts.window();
                (client.run(Until { deadline: until, end: usize::MAX }, Some(2)), from, until)
            });
            (load, rss, traced)
        });
        let writer = writer.join().map_err(|_| "writer thread panicked".to_string());
        let reader = reader.join().map_err(|_| "reader thread panicked".to_string());
        writer.and_then(|(session, log)| Ok((session, log, reader?)))
    })?;
    let (load, rss, traced) = reader;
    out.count(load.queries, load.failed);
    let w = &writer_log;
    out.count(w.batches, w.failed);
    let (t0, t1) = (serve::ns_since(epoch, window.0), serve::ns_since(epoch, window.1));
    let (qps, latency) = serve::window_stats(&load, REQUEST_LEN, Window::Time(t0, t1));
    serve::record_requests(out, qps, &latency);
    out.set("rss_peak_mb", w.rss_mb.unwrap_or(rss), 1);
    out.note("rss_window_end_mb", crate::json::num(rss));
    let batch = Summary::of(&w.window_batch_us);
    out.set("ingest_ops_per_s", w.window_ops as f64 / w.window_elapsed.as_secs_f64(), batch.count);
    out.set("ingest_batch_p50_us", batch.p50, batch.count);
    out.set("ingest_batch_p99_us", batch.p99, batch.count);
    out.note("ingest_batch_us", serve::summary_json(&batch));
    out.phase("load");

    // Accuracy of the synopsis maintained through the first cycle, against
    // the exact answers on the table live at that point.
    let first = writer_log.first_cycle.as_ref().ok_or("the writer never finished a cycle")?;
    let live_table = live_rows(relation, stream, sizes.cycle);
    let accuracy = pool::with_exact_counts(relation, live_table, accuracy)?;
    let estimates = accuracy.iter().map(|q| first.estimate(&q.query));
    out.set("rel_error_mean", serve::rel_error(estimates, &accuracy), accuracy.len());
    out.phase("accuracy");

    // Crash and recover: the writer stopped `stop_offset` batches past its
    // last checkpoint; every recovery must reproduce the live estimates.
    let step = (pool.len() / RECOVERY_CHECKS).max(1);
    let checked: Vec<&Query> = pool.iter().step_by(step).map(|q| &q.query).collect();
    let live: Vec<u64> =
        checked.iter().map(|q| session.estimator().estimate(q).to_bits()).collect();
    let marginal_cells = session.marginal_cells();
    let resplits = session.resplits();
    drop(session);
    let mut recovery_s = Vec::with_capacity(RECOVERIES);
    for _ in 0..RECOVERIES {
        let t = Instant::now();
        let recovered = main_log.timed("ingest.recover", None, 0, || {
            IngestSession::recover(&snap, &wal, config(), IngestConfig::default())
        });
        recovery_s.push(t.elapsed().as_secs_f64());
        out.count(1, 0);
        match recovered {
            Ok((r, report)) if report.batches_replayed == sizes.stop_offset() => {
                let bits = checked.iter().map(|q| r.estimator().estimate(q).to_bits());
                if !bits.eq(live.iter().copied()) {
                    out.count(0, 1);
                }
            }
            _ => out.count(0, 1),
        }
    }
    out.phase("recovery");

    // Counted layer metrics, recorded in every run's result file.
    out.set("recovery_s", stats::median(&recovery_s), RECOVERIES);
    let written = (w.wal_bytes + w.snapshot_bytes + initial_snapshot) as f64;
    let user_bytes = (w.ops * relation.schema().arity() as u64 * 4) as f64;
    out.set("write_amp", written / user_bytes, 1);
    out.set("wal.bytes_per_batch", w.wal_bytes as f64 / w.batches.max(1) as f64, 1);
    out.set("snapshot.bytes", file_len(&snap) as f64, 1);
    out.set("ingest.marginal_cells", marginal_cells as f64, 1);
    out.set("maintenance.resplits", resplits as f64, 1);
    out.set("maintenance.rebuild_recommended", w.rebuild_recommended as f64, 1);
    out.note("batches", w.batches.to_string());

    if let Some((traced, from, until)) = traced {
        out.count(traced.queries, traced.failed);
        let (from, until) = (serve::ns_since(epoch, from), serve::ns_since(epoch, until));
        let (traced_qps, _) = serve::window_stats(&traced, REQUEST_LEN, Window::Time(from, until));
        out.set("trace.overhead_ratio", traced_qps / qps, traced.requests.len());
        serve::record_service_layer(out, &service, &traced);
        let volatile = volatile_spans(fresh, relation, stream, w.batches, epoch)?;
        record_span_layers(out, &writer_log.spans, &volatile);
        let mut replay_log = SpanLog::new(true, epoch, 3);
        let replay = serve::replay_stream(
            &writer_log.generations,
            pool,
            &traced.served,
            opts.window(),
            0,
            &mut replay_log,
        );
        serve::record_replay(out, &replay, &traced.served, replay_log.into_spans());
        out.spans.extend(traced.spans);
        out.spans.extend(volatile);
        out.phase("volatile_and_replay");
    }
    out.spans.extend(writer_log.spans);
    Ok(())
}

/// The same batches applied through a session without durability, as
/// `ingest.apply_volatile` spans.
fn volatile_spans(
    fresh: MaintainedDbHistogram,
    relation: &Relation,
    stream: &[Vec<u32>],
    batches: u64,
    epoch: Instant,
) -> Result<Vec<Span>, String> {
    let mut session = IngestSession::begin(fresh, relation, IngestConfig::default())
        .map_err(|e| format!("volatile session failed: {e}"))?;
    let mut log = SpanLog::new(true, epoch, 4);
    for b in 0..batches.min(VOLATILE_BATCHES) {
        let ops = batch_ops(stream, b);
        let id = log.begin("ingest.apply_volatile", None, b);
        session.apply_batch(&ops).map_err(|e| format!("volatile batch failed: {e}"))?;
        log.end(id);
    }
    Ok(log.into_spans())
}

/// Ingest-layer timings derived from the writer's and the volatile
/// session's spans.
fn record_span_layers(out: &mut Outcome, writer: &[Span], volatile: &[Span]) {
    let applied = trace::durations_us(writer, "ingest.apply_batch");
    let (durable, n) = (stats::median(&applied), applied.len());
    let vol = trace::durations_us(volatile, "ingest.apply_volatile");
    out.set("ingest.apply_us_p50", durable, n);
    out.set("ingest.apply_volatile_us_p50", stats::median(&vol), vol.len());
    let share = if durable > 0.0 { 1.0 - stats::median(&vol) / durable } else { 0.0 };
    out.set("wal.share", share, n);
    let ms = |name| {
        let d = trace::durations_us(writer, name);
        (stats::median(&d) / 1e3, d.len())
    };
    for (metric, span) in [
        ("snapshot.checkpoint_ms_p50", "snapshot.checkpoint"),
        ("maintenance.tune_ms_p50", "maintenance.tune"),
        ("ingest.swap_ms_p50", "ingest.swap_ingested"),
    ] {
        let (value, n) = ms(span);
        out.set(metric, value, n);
    }
}
