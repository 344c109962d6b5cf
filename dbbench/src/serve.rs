//! The serving workloads (`serve-hot`, `serve-wide`, `serve-grid`) and the
//! closed-loop client they share with `ingest-mixed`'s reader.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dbhist_core::service::{BatchReply, EstimatorService, ServiceConfig};
use dbhist_core::{FactorKind, Query, QueryTrace, SelectivityEstimator, Synopsis, SynopsisBuilder};
use dbhist_distribution::Relation;

use crate::json;
use crate::pool::{self, Feed, PoolQuery, Scale, Shapes, FIXED_QUERIES};
use crate::stats::{self, Summary};
use crate::trace::{self, Span, SpanLog};
use crate::{Options, Outcome};

/// Closed-loop client threads of every serving workload.
const CLIENTS: usize = 2;
/// Worker threads of every serving workload's service.
const WORKERS: usize = 2;
/// Set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Cold clones the oracle is computed on, one thread each.
const ORACLE_THREADS: usize = 2;
/// Upper bounds on the timed replay (which also stops after one window's
/// length).
const REPLAY_MAX: Duration = Duration::from_secs(10);
const REPLAY_MAX_QUERIES: usize = 200_000;

/// One serving workload's configuration.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    data: fn(Scale) -> Relation,
    factor: FactorKind,
    budget: usize,
    shapes: Shapes,
    /// Positions of the shape sequence the pool keeps; all when `None`.
    pool_len: Option<usize>,
    /// Pool positions answered by the oracle; the whole pool when `None`.
    oracle: Option<usize>,
    request_len: usize,
    extent: Extent,
    /// Queries the replay runs untimed first, so its copy reaches the
    /// warm state the served instance was in.
    replay_warm: usize,
}

/// How a serving workload delimits its warm-up and its measured window.
#[derive(Debug, Clone, Copy)]
pub enum Extent {
    /// By time: a window serves the whole pool many times over, so a fixed
    /// time is a fixed mix of work.
    Time { warmup: Duration },
    /// By sequence index: the warm-up serves the first `warmup` queries
    /// and the window the next `per_second` × `--seconds`. A window of
    /// these workloads serves only a prefix of the sequence, once, and its
    /// queries' costs span four orders of magnitude: a window ending at a
    /// fixed time would end at a position that depends on the machine's
    /// speed, and one expensive query more or less moves its rate by tens
    /// of percent. With fixed positions every run serves the same queries.
    Positions { warmup: usize, per_second: usize },
}

/// Where clients stop: at `deadline`, or once the feed reaches `end`.
#[derive(Debug, Clone, Copy)]
pub struct Until {
    pub deadline: Instant,
    pub end: usize,
}

/// The measured part of a client log.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    /// Requests in `[t0, t1)`, nanoseconds since the epoch.
    Time(u64, u64),
    /// Requests whose first query has a sequence index in `[start, end)`.
    Positions(usize, usize),
}

/// A positions-delimited phase may run this many times its nominal
/// length before its clients give up (a run must end within minutes).
const POSITIONS_PATIENCE: u32 = 4;

/// The configuration of serving workload `name` at `scale`; see the
/// README for why each was chosen.
pub fn spec(name: &str, scale: Scale) -> Option<ServeSpec> {
    let paper = scale == Scale::Paper;
    // serve-hot's pool, which serve-grid also serves: every shape of 1-4
    // attributes (56 shapes, 288 queries each). A warm kernel's cost grows
    // with the box it sums, so the pool's mean cost follows its ranges:
    // with 72 queries a shape it differed by up to 15% between seeds.
    let hot_pool = Shapes::Every { dims: 1..=4, per_shape: if paper { 288 } else { 2 } };
    let small_oracle = if paper { FIXED_QUERIES } else { 8 };
    Some(match name {
        // Census-1, MHIST, 3 KB (Fig. 7); 16-query requests.
        "serve-hot" => ServeSpec {
            data: pool::census1,
            factor: FactorKind::Mhist,
            budget: if paper { 3 * 1024 } else { 1024 },
            shapes: hot_pool.clone(),
            pool_len: None,
            oracle: None,
            request_len: 16,
            extent: Extent::Time {
                warmup: if paper { Duration::from_secs(2) } else { Duration::from_millis(200) },
            },
            replay_warm: 1024,
        },
        // Census-2, MHIST, 20 KB (Fig. 9); 500 random shapes of each size
        // 2-5 (943 distinct, 3.7x the 256-entry kernel and plan caches),
        // of which a run serves under two hundred: only the first 1,024 are
        // generated. 1-query requests; about 8 queries a second, so a 3 s
        // warm-up.
        "serve-wide" => ServeSpec {
            data: pool::census2,
            factor: FactorKind::Mhist,
            budget: if paper { 20 * 1024 } else { 512 },
            shapes: Shapes::Random { dims: 2..=5, per_dim: if paper { 500 } else { 4 } },
            pool_len: paper.then_some(1024),
            oracle: Some(small_oracle),
            request_len: 1,
            extent: Extent::Positions { warmup: if paper { 24 } else { 4 }, per_second: 8 },
            replay_warm: 0,
        },
        // Census-1, Grid, 3 KB; serve-hot's pool, of which a run serves
        // under a hundred: only the first 1,024 are generated. 1-query
        // requests; about 4 queries a second on the positions a run
        // serves first, so a 3 s warm-up.
        "serve-grid" => ServeSpec {
            data: pool::census1,
            factor: FactorKind::Grid,
            budget: if paper { 3 * 1024 } else { 1024 },
            shapes: hot_pool,
            pool_len: paper.then_some(1024),
            oracle: Some(small_oracle),
            request_len: 1,
            extent: Extent::Positions {
                warmup: if paper { 12 } else { 8 },
                per_second: if paper { 4 } else { 16 },
            },
            replay_warm: 0,
        },
        _ => return None,
    })
}

/// A position no reply has answered yet. The bits are a NaN, which fails
/// the finiteness check before it could be recorded.
const UNSEEN: u64 = u64::MAX;

/// The answers one client received, by pool position: the first, and how
/// many replies agreed with it.
#[derive(Debug, Clone, Default)]
pub struct Answers {
    first: Vec<u64>,
    agreeing: Vec<u64>,
}

impl Answers {
    /// No answers yet, for a pool of `len` positions.
    fn new(len: usize) -> Self {
        Self { first: vec![UNSEEN; len], agreeing: vec![0; len] }
    }

    /// Records a reply for `position`; whether it is bit-identical to this
    /// client's first reply there.
    fn record(&mut self, position: usize, bits: u64) -> bool {
        let (Some(first), Some(agreeing)) =
            (self.first.get_mut(position), self.agreeing.get_mut(position))
        else {
            return false;
        };
        if *first == UNSEEN {
            *first = bits;
        }
        let agrees = *first == bits;
        if agrees {
            *agreeing += 1;
        }
        agrees
    }
}

/// Replies that differ from their position's reference answer, and the
/// number of oracle positions served. The reference is the oracle's answer
/// for the first `oracle.len()` positions, elsewhere the first answer in
/// the first of `answers` that has one. A client's replies that disagreed
/// with its own first answer were counted when checked; here every reply
/// that agreed with a first answer other than the reference counts.
fn disagreements(answers: &[Answers], oracle: &[u64]) -> (u64, usize) {
    let len = answers.iter().map(|a| a.first.len()).max().unwrap_or(0);
    let (mut failed, mut served) = (0, 0);
    for p in 0..len {
        let firsts: Vec<(u64, u64)> = answers
            .iter()
            .filter_map(|a| Some((*a.first.get(p)?, *a.agreeing.get(p)?)))
            .filter(|&(first, _)| first != UNSEEN)
            .collect();
        let Some(&(earliest, _)) = firsts.first() else { continue };
        let reference = match oracle.get(p) {
            Some(&want) => {
                served += 1;
                want
            }
            None => earliest,
        };
        failed +=
            firsts.iter().filter(|&&(first, _)| first != reference).map(|&(_, n)| n).sum::<u64>();
    }
    (failed, served)
}

/// One answered request, kept by traced windows for the replay.
#[derive(Debug, Clone)]
pub struct Served {
    request: u64,
    submit_ns: u64,
    latency_us: f64,
    generation: u64,
    queries: Vec<u32>,
}

/// What clients observed while they ran.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Every request: its start and end (nanoseconds since the run's
    /// epoch) and the sequence index of its first query.
    pub requests: Vec<(u64, u64, usize)>,
    /// Queries sent.
    pub queries: u64,
    /// Queries whose reply failed its check.
    pub failed: u64,
    /// `pending()` sampled before each submit (traced runs only).
    pub queue_depth: Vec<f64>,
    /// Answered requests (traced runs only).
    pub served: Vec<Served>,
    /// Spans (traced runs only).
    pub spans: Vec<Span>,
    /// What each client received, where replies are checked for repeats.
    pub answers: Vec<Answers>,
}

impl ClientLog {
    /// Merges per-client logs.
    pub fn merge(logs: Vec<ClientLog>) -> ClientLog {
        let mut all = ClientLog::default();
        for log in logs {
            all.requests.extend(log.requests);
            all.queries += log.queries;
            all.failed += log.failed;
            all.queue_depth.extend(log.queue_depth);
            all.served.extend(log.served);
            all.spans.extend(log.spans);
            all.answers.extend(log.answers);
        }
        all
    }
}

/// Nanoseconds from `epoch` to `t`.
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// A closed-loop client: sends the next `request_len` positions of the
/// feed, waits for the reply, checks it, and repeats. Every estimate must
/// be finite and non-negative.
#[derive(Debug, Clone, Copy)]
pub struct Client<'a> {
    pub service: &'a EstimatorService,
    pub pool: &'a [PoolQuery],
    /// Whether every reply for a position must be bit-identical to the
    /// first (not where the served synopsis changes under ingest).
    pub repeats: bool,
    pub feed: &'a Feed,
    pub request_len: usize,
    /// The run's epoch, which request times and spans are measured from.
    pub epoch: Instant,
}

impl Client<'_> {
    /// Sends requests until `until`; with `trace_tag`, records spans
    /// (under that span-log tag), queue depths and the served stream.
    pub fn run(&self, until: Until, trace_tag: Option<u32>) -> ClientLog {
        let mut log = ClientLog::default();
        let mut spans = SpanLog::new(trace_tag.is_some(), self.epoch, trace_tag.unwrap_or(0));
        let mut answers = self.repeats.then(|| Answers::new(self.pool.len()));
        let mut seq = 0u64;
        while Instant::now() < until.deadline {
            let Some(index) = self.feed.take(self.request_len, until.end) else { break };
            let sent: Vec<u32> = (index..index + self.request_len)
                .map(|i| u32::try_from(i % self.pool.len()).unwrap_or(u32::MAX))
                .collect();
            let queries: Vec<Query> =
                sent.iter().map(|&i| self.pool[i as usize].query.clone()).collect();
            seq += 1;
            let request = trace_tag.map_or(0, |tag| (u64::from(tag) << 40) | seq);
            if trace_tag.is_some() {
                log.queue_depth.push(self.service.pending() as f64);
            }
            let root = spans.begin("request", None, request);
            let started = Instant::now();
            let ticket =
                spans.timed("service.submit", Some(root), request, || self.service.submit(queries));
            let reply = spans.timed("service.wait", Some(root), request, || ticket.wait());
            let ended = Instant::now();
            spans.end(root);
            log.failed += failures(&sent, reply.as_ref(), answers.as_mut());
            log.queries += sent.len() as u64;
            let (start_ns, end_ns) = (ns_since(self.epoch, started), ns_since(self.epoch, ended));
            log.requests.push((start_ns, end_ns, index));
            if let (Some(_), Some(reply)) = (trace_tag, &reply) {
                log.served.push(Served {
                    request,
                    submit_ns: start_ns,
                    latency_us: (end_ns - start_ns) as f64 / 1e3,
                    generation: reply.generation,
                    queries: sent,
                });
            }
        }
        log.spans = spans.into_spans();
        log.answers.extend(answers);
        log
    }
}

/// Failed queries in `reply` to a request of pool positions `sent`:
/// missing, not finite and non-negative, or (with `answers`) not
/// bit-identical to the client's first reply for the position.
fn failures(sent: &[u32], reply: Option<&BatchReply>, mut answers: Option<&mut Answers>) -> u64 {
    let Some(reply) = reply.filter(|r| r.estimates.len() == sent.len()) else {
        return sent.len() as u64;
    };
    let mut failed = 0;
    for (&position, &estimate) in sent.iter().zip(&reply.estimates) {
        // Only valid estimates are recorded as a position's answer.
        let ok = estimate.is_finite()
            && estimate >= 0.0
            && answers
                .as_deref_mut()
                .is_none_or(|a| a.record(position as usize, estimate.to_bits()));
        if !ok {
            failed += 1;
        }
    }
    failed
}

/// Runs `clients` copies of `client` until `until`, each on its own
/// thread; client `c` traces under tag `first_tag + c` when tracing.
fn run_clients(
    client: &Client<'_>,
    clients: usize,
    until: Until,
    first_tag: Option<u32>,
) -> Result<ClientLog, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .filter_map(|c| u32::try_from(c).ok())
            .map(|c| s.spawn(move || client.run(until, first_tag.map(|t| t + c))))
            .collect();
        let logs = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ClientLog::merge(logs))
    })
}

/// Queries answered per second in `window`, and the latency of its
/// requests. A time window counts the requests straddling its ends in
/// part ([`stats::window_rate`]) and takes the latency of the requests
/// started in it; a positions window divides its queries by the time from
/// its first request's start to its last one's end.
pub fn window_stats(log: &ClientLog, request_len: usize, window: Window) -> (f64, Summary) {
    let latency = |&(start, end, _): &(u64, u64, usize)| (end - start) as f64 / 1e3;
    match window {
        Window::Time(t0, t1) => {
            let spans = log.requests.iter().map(|&(start, end, _)| (start, end));
            let qps = stats::window_rate(spans, t0, t1) * request_len as f64;
            let started = log.requests.iter().filter(|r| (t0..t1).contains(&r.0));
            (qps, Summary::of(&started.map(latency).collect::<Vec<_>>()))
        }
        Window::Positions(first, end) => {
            let inside: Vec<&(u64, u64, usize)> =
                log.requests.iter().filter(|r| (first..end).contains(&r.2)).collect();
            let t0 = inside.iter().map(|r| r.0).min().unwrap_or(0);
            let t1 = inside.iter().map(|r| r.1).max().unwrap_or(0);
            let queries = (inside.len() * request_len) as f64;
            let qps = if t1 > t0 { queries / ((t1 - t0) as f64 / 1e9) } else { 0.0 };
            (qps, Summary::of(&inside.into_iter().map(latency).collect::<Vec<_>>()))
        }
    }
}

/// Records the service as its clients saw it in the measured window.
pub fn record_requests(out: &mut Outcome, qps: f64, latency: &Summary) {
    out.set("serve_qps", qps, latency.count);
    out.set("request_p50_us", latency.p50, latency.count);
    out.set("request_p90_us", latency.p90, latency.count);
    out.set("request_p99_us", latency.p99, latency.count);
    out.note("request_latency_us", summary_json(latency));
}

/// A latency summary as a JSON object for the result file.
pub fn summary_json(s: &Summary) -> String {
    let tail = s.tail.map_or_else(
        || "null".to_string(),
        |(q, v)| json::object([("percentile", json::num(q)), ("value", json::num(v))]),
    );
    json::object([
        ("count", s.count.to_string()),
        ("p50", json::num(s.p50)),
        ("p90", json::num(s.p90)),
        ("p99", json::num(s.p99)),
        ("tail", tail),
    ])
}

/// Records the set-up builds' per-phase times and counts.
pub fn record_builds(out: &mut Outcome, traces: &[dbhist_core::BuildTrace]) {
    let med = |f: &dyn Fn(&dbhist_core::BuildTrace) -> f64| {
        stats::median(&traces.iter().map(f).collect::<Vec<_>>())
    };
    let n = traces.len();
    out.set("builder.selection_s", med(&|t| t.selection.as_secs_f64()), n);
    out.set("builder.construction_s", med(&|t| t.construction.as_secs_f64()), n);
    out.set("builder.allocation_s", med(&|t| t.allocation.as_secs_f64()), n);
    out.set("builder.assembly_s", med(&|t| t.assembly.as_secs_f64()), n);
    out.set("selection.entropy_computations", med(&|t| t.entropy_computations as f64), n);
    out.set("alloc.splits_funded", med(&|t| t.splits_funded as f64), n);
}

/// Mean absolute relative error of `estimates` against each query's
/// `exact` answer (the paper's §4 metric).
pub fn rel_error(estimates: impl Iterator<Item = f64>, queries: &[PoolQuery]) -> f64 {
    let sum: f64 =
        estimates.zip(queries).map(|(e, q)| (e - q.exact).abs() / q.exact.max(1.0)).sum();
    sum / queries.len().max(1) as f64
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// Resident set size of this process now, in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Answers `queries` on `clones` (cold copies taken right after set-up),
/// one thread per clone, each taking the next unanswered query, so one
/// slow query does not hold up a fixed share. Returns bit patterns in
/// query order.
fn oracle_answers(clones: &[Synopsis], queries: &[PoolQuery]) -> Result<Vec<u64>, String> {
    let next = Feed::new();
    let mut answers = vec![UNSEEN; queries.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = clones
            .iter()
            .map(|copy| {
                let next = &next;
                s.spawn(move || {
                    let mut part = Vec::new();
                    while let Some(i) = next.take(1, queries.len()) {
                        part.push((i, copy.estimate(&queries[i].query).to_bits()));
                    }
                    part
                })
            })
            .collect();
        for h in handles {
            let part = h.join().map_err(|_| "oracle thread panicked".to_string())?;
            for (i, bits) in part {
                answers[i] = bits;
            }
        }
        Ok::<(), String>(())
    })?;
    Ok(answers)
}

/// Runs serving workload `spec`.
pub fn run(spec: &ServeSpec, opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let epoch = Instant::now();
    let mut main_log = SpanLog::new(opts.trace, epoch, 0);
    let relation = (spec.data)(opts.scale);
    let pool =
        pool::pool(&relation, &spec.shapes, spec.pool_len, opts.scale.min_count(), opts.seed)?;
    out.note("pool_queries", pool.len().to_string());
    out.note("budget_bytes", spec.budget.to_string());
    out.phase("data");

    // Set-up, timed SETUPS times: build, then service start. The clones
    // the oracle and the replay run on are taken in between, untimed, and
    // stay cold: the served instance's caches are its own.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut builds = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let root = main_log.begin("setup", None, 0);
        let t = Instant::now();
        let synopsis = main_log.timed("builder.build", Some(root), 0, || {
            SynopsisBuilder::new(&relation).budget(spec.budget).factor(spec.factor).build()
        });
        let mut elapsed = t.elapsed();
        let synopsis = synopsis.map_err(|e| format!("build failed: {e}"))?;
        builds.push(synopsis.build_trace());
        let copies: Vec<Synopsis> = (0..=ORACLE_THREADS).map(|_| synopsis.clone()).collect();
        let t = Instant::now();
        let service = main_log.timed("service.start", Some(root), 0, || {
            EstimatorService::start(synopsis, ServiceConfig { workers: WORKERS, explain_sample: 0 })
        });
        elapsed += t.elapsed();
        main_log.end(root);
        setup_s.push(elapsed.as_secs_f64());
        kept = Some((service, copies));
    }
    let (service, mut copies) = kept.ok_or("no set-up ran")?;
    let replay_copy = copies.pop().ok_or("no replay copy")?;
    out.set("setup_s", stats::median(&setup_s), SETUPS);
    record_builds(&mut out, &builds);
    out.phase("setup");

    let feed = Feed::new();
    let client = Client {
        service: &service,
        pool: &pool,
        repeats: true,
        feed: &feed,
        request_len: spec.request_len,
        epoch,
    };
    // The load, then with --trace a traced window of the same extent
    // straight after it, without a second warm-up.
    let phases = |offset: usize, warm: bool| -> (Until, Window) {
        let now = Instant::now();
        match spec.extent {
            Extent::Time { warmup } => {
                let warmup = if warm { warmup } else { Duration::ZERO };
                let (t0, t1) = (now + warmup, now + warmup + opts.window());
                let until = Until { deadline: t1, end: usize::MAX };
                (until, Window::Time(ns_since(epoch, t0), ns_since(epoch, t1)))
            }
            Extent::Positions { warmup, per_second } => {
                let warmup = if warm { warmup } else { 0 };
                let n = per_second * usize::try_from(opts.window().as_secs()).unwrap_or(1);
                let first = offset + warmup;
                let nominal = (warmup + n) as f64 / per_second as f64;
                let patience = Duration::from_secs_f64(nominal) * POSITIONS_PATIENCE;
                let until = Until { deadline: now + patience, end: first + n };
                (until, Window::Positions(first, first + n))
            }
        }
    };
    let (until, window) = phases(0, true);
    let mut load = run_clients(&client, CLIENTS, until, None)?;
    out.count(load.queries, load.failed);
    let mut answers = std::mem::take(&mut load.answers);
    let (qps, latency) = window_stats(&load, spec.request_len, window);
    record_requests(&mut out, qps, &latency);
    out.set("rss_peak_mb", rss_peak_mb(), 1);
    out.note("rss_end_mb", json::num(rss_mb()));
    out.phase("load");

    if opts.trace {
        let (until, window) = phases(until.end, false);
        let mut traced = run_clients(&client, CLIENTS, until, Some(1))?;
        out.count(traced.queries, traced.failed);
        answers.append(&mut traced.answers);
        let (traced_qps, _) = window_stats(&traced, spec.request_len, window);
        out.set("trace.overhead_ratio", traced_qps / qps, traced.requests.len());
        record_service_layer(&mut out, &service, &traced);
        out.phase("traced_window");
        let mut replay_log = SpanLog::new(true, epoch, 1 + CLIENTS as u32);
        let copies = BTreeMap::from([(1, replay_copy)]);
        let replay = replay_stream(
            &copies,
            &pool,
            &traced.served,
            opts.window(),
            spec.replay_warm,
            &mut replay_log,
        );
        record_replay(&mut out, &replay, &traced.served, replay_log.into_spans());
        out.spans.extend(traced.spans);
        out.phase("replay");
    }

    // The oracle, on the clones still cold since set-up, after the load so
    // that their memory stays out of `rss_peak_mb`. Its fixed first
    // positions are the accuracy set.
    drop(service);
    let checked = &pool[..spec.oracle.unwrap_or(pool.len()).min(pool.len())];
    let oracle = oracle_answers(&copies, checked)?;
    drop(copies);
    let (failed, served) = disagreements(&answers, &oracle);
    out.count(0, failed);
    out.note("oracle_queries", oracle.len().to_string());
    out.note("oracle_queries_served", served.to_string());
    let accuracy = &checked[..FIXED_QUERIES.min(checked.len())];
    let estimates = oracle.iter().map(|&bits| f64::from_bits(bits));
    out.set("rel_error_mean", rel_error(estimates, accuracy), accuracy.len());
    out.phase("oracle");

    // The ingest-side layers a serving workload never calls, as zero
    // samples, so every run carries the same metric names.
    for name in crate::ingest::LAYER_METRICS {
        out.set(name, 0.0, 0);
    }
    out.spans.extend(main_log.into_spans());
    Ok(out)
}

/// Service-layer metrics of a traced window.
pub fn record_service_layer(out: &mut Outcome, service: &EstimatorService, traced: &ClientLog) {
    let depth = &traced.queue_depth;
    out.set(
        "service.queue_depth_mean",
        depth.iter().sum::<f64>() / depth.len().max(1) as f64,
        depth.len(),
    );
    let latency = service.latency();
    out.set(
        "service.latency_us_p50",
        latency.percentile(50.0).unwrap_or(0.0) / 1e3,
        usize::try_from(latency.count).unwrap_or(usize::MAX),
    );
    let swaps = service.stats().swap_latency;
    out.set(
        "service.swap_us_max",
        swaps.percentile(100.0).unwrap_or(0.0) / 1e3,
        usize::try_from(swaps.count).unwrap_or(usize::MAX),
    );
}

/// Per-call results of a replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// Engine counters summed over the timed calls.
    pub totals: QueryTrace,
    /// Timed calls.
    pub calls: usize,
}

/// Replays the served request stream, in submit order, single-threaded on
/// cold copies of the synopses that served it (`copies`, by generation,
/// each cloned right after it was built). Each call is a span named
/// `kernel.hit` or `plan.miss` by the engine's own counters, under a
/// `replay.request` span carrying the served request's id.
///
/// The first `warm` queries run untimed, to bring the copy's caches to
/// the state a warmed-up served instance was in; generations swapped in
/// during the window start cold, as they did when served. Whole
/// generations are replayed, evenly spaced, so a stream that swaps
/// generations is sampled across its window. Requests served by a
/// generation without a copy are skipped.
pub fn replay_stream(
    copies: &BTreeMap<u64, Synopsis>,
    pool: &[PoolQuery],
    served: &[Served],
    window: Duration,
    warm: usize,
    log: &mut SpanLog,
) -> Replay {
    let max = window.min(REPLAY_MAX);
    let mut order: Vec<&Served> =
        served.iter().filter(|s| copies.contains_key(&s.generation)).collect();
    order.sort_by_key(|s| s.submit_ns);
    let mut generations: Vec<u64> = order.iter().map(|s| s.generation).collect();
    generations.dedup();
    let total: usize = order.iter().map(|s| s.queries.len()).sum();
    let stride = total.div_ceil(REPLAY_MAX_QUERIES).clamp(1, generations.len().max(1));
    let chosen: Vec<u64> = generations.into_iter().step_by(stride).collect();
    let mut warm = warm;
    let mut replay = Replay::default();
    let started = Instant::now();
    for s in order.into_iter().filter(|s| chosen.contains(&s.generation)) {
        let Some(copy) = copies.get(&s.generation) else { continue };
        if warm > 0 {
            warm = warm.saturating_sub(s.queries.len());
            for &i in &s.queries {
                std::hint::black_box(copy.estimate(&pool[i as usize].query));
            }
            continue;
        }
        if started.elapsed() > max || replay.calls >= REPLAY_MAX_QUERIES {
            break;
        }
        let root = log.begin("replay.request", None, s.request);
        for &i in &s.queries {
            copy.reset_query_trace();
            let id = log.begin("plan.estimate", Some(root), s.request);
            std::hint::black_box(copy.estimate(&pool[i as usize].query));
            let call = copy.query_trace();
            log.end_as(id, if call.kernel_hits > 0 { "kernel.hit" } else { "plan.miss" });
            replay.totals.absorb(&call);
            replay.calls += 1;
        }
        log.end(root);
    }
    replay
}

/// Plan- and kernel-layer metrics from a replay, plus the service's
/// dispatch share: each served request's latency minus the replayed
/// engine time of the same request.
pub fn record_replay(out: &mut Outcome, replay: &Replay, served: &[Served], spans: Vec<Span>) {
    let hits = trace::durations_us(&spans, "kernel.hit");
    let misses = trace::durations_us(&spans, "plan.miss");
    let all: Vec<f64> = hits.iter().chain(&misses).copied().collect();
    let summary = Summary::of(&all);
    out.set("plan.estimate_us_p50", summary.p50, summary.count);
    out.set("plan.estimate_us_p90", summary.p90, summary.count);
    out.set("plan.miss_us_p50", stats::median(&misses), misses.len());
    out.set("kernel.hit_us_p50", stats::median(&hits), hits.len());

    let t = &replay.totals;
    let calls = replay.calls.max(1) as f64;
    let ratio = |num: usize, den: usize| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    out.set("plan.kernel_hit_ratio", ratio(t.kernel_hits, replay.calls), replay.calls);
    out.set(
        "plan.plan_cache_hit_ratio",
        ratio(t.plan_cache_hits, t.plan_cache_hits + t.plan_cache_misses),
        t.plan_cache_hits + t.plan_cache_misses,
    );
    out.set("plan.products_per_query", t.products as f64 / calls, replay.calls);
    out.set("plan.clique_loads_per_query", t.clique_loads as f64 / calls, replay.calls);
    out.set("plan.sheds_per_query", t.sheds as f64 / calls, replay.calls);
    out.set("kernel.fallbacks_per_query", t.kernel_fallbacks as f64 / calls, replay.calls);
    out.set(
        "kernel.lowerings_per_query",
        (t.kernel_lowered_dense + t.kernel_lowered_sparse) as f64 / calls,
        replay.calls,
    );

    // Dispatch: served latency minus the engine time the replay measured
    // for the same request (only requests the timed replay covered).
    let mut engine_us: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "kernel.hit" || s.name == "plan.miss") {
        *engine_us.entry(s.request).or_default() += s.duration_ns() as f64 / 1e3;
    }
    let dispatch: Vec<f64> =
        served.iter().filter_map(|s| engine_us.get(&s.request).map(|e| s.latency_us - e)).collect();
    out.set("service.dispatch_us_p50", stats::median(&dispatch), dispatch.len());
    out.spans.extend(spans);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_repeats_then_the_oracle() {
        let reply = |estimates: Vec<f64>| BatchReply { generation: 1, estimates };
        let mut a = Answers::new(4);
        let mut b = Answers::new(4);
        assert_eq!(failures(&[0, 0, 1], Some(&reply(vec![1.5, 1.5, 7.0])), Some(&mut a)), 0);
        assert_eq!(failures(&[0, 2, 2], Some(&reply(vec![1.25, f64::NAN, -1.0])), Some(&mut a)), 3);
        assert_eq!(failures(&[1, 1], Some(&reply(vec![7.0, 7.0])), Some(&mut b)), 0);
        assert_eq!(failures(&[3, 3], None, Some(&mut b)), 2);
        assert_eq!(failures(&[3], Some(&reply(vec![3.0])), None), 0);
        // Position 0 matches the oracle; position 1's three replies, across
        // both clients, do not; positions 2 and 3 were never answered.
        let oracle = [1.5f64.to_bits(), 7.5f64.to_bits(), 0.0f64.to_bits()];
        let answers = [a, b];
        assert_eq!(disagreements(&answers, &oracle), (3, 2));
        // Without an oracle, the first client's first answer is the
        // reference for the second client.
        let mut c = Answers::new(4);
        assert_eq!(failures(&[1], Some(&reply(vec![7.25])), Some(&mut c)), 0);
        assert_eq!(disagreements(&[answers[0].clone(), c], &[]), (1, 0));
    }
}
