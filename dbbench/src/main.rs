//! `dbbench`: the repository's benchmark. Builds paper-scale synopses,
//! drives the public entry points (`SynopsisBuilder::build`,
//! `EstimatorService`, `Synopsis::estimate`, `IngestSession`) from
//! closed-loop client threads, checks every answer, and prints each
//! metric `BENCHMARK.json` declares.
//!
//! ```text
//! dbbench --workload <name|all> [--seed N] [--seconds|--duration-s N]
//!         [--trace [0|1]] [--out DIR] [--scale paper|smoke]
//! dbbench spread DIR...
//! ```
//!
//! A run prints one line per metric, writes `<out>/<workload>.json` (and
//! `<out>/<workload>.trace.json` with `--trace 1`), and ends its standard
//! output with one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
//! Any failed check exits 1; a usage error exits 2. See README.md.

mod ingest;
mod json;
mod pool;
mod serve;
mod spread;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Json;
use pool::Scale;
use trace::Span;

/// The benchmark's declaration; the metrics a run prints, and their
/// units, come from here.
const BENCHMARK: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// Every workload, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["serve-hot", "serve-wide", "serve-grid", "ingest-mixed"];

const DEFAULT_SEED: u64 = 1;
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 8;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    workload: String,
    /// Drives the query pools, request order and the ingest stream.
    pub seed: u64,
    seconds: u64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Result directory; durable ingest files go under `<out>/tmp`.
    pub out: PathBuf,
    /// Input size.
    pub scale: Scale,
}

impl Options {
    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    /// Value and sample count, by metric name.
    metrics: BTreeMap<&'static str, (f64, usize)>,
    /// Extra members for the result file, as rendered JSON.
    notes: Vec<(&'static str, String)>,
    /// Wall time of each phase of the run, in order, with the process's
    /// peak memory at its end.
    phases: Vec<(&'static str, f64, f64)>,
    phase_start: Option<Instant>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// An empty outcome; its first phase starts now.
    pub fn new() -> Self {
        Self { phase_start: Some(Instant::now()), ..Self::default() }
    }

    /// Ends the current phase of the run, naming it.
    pub fn phase(&mut self, name: &'static str) {
        let now = Instant::now();
        let start = self.phase_start.replace(now).unwrap_or(now);
        self.phases.push((name, (now - start).as_secs_f64(), serve::rss_peak_mb()));
    }

    /// Records metric `name`, measured over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, (value, samples));
    }

    /// Counts checked operations and the failures among them.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Adds a rendered JSON member to the result file.
    pub fn note(&mut self, key: &'static str, rendered: String) {
        self.notes.push((key, rendered));
    }
}

/// A declared metric.
struct Decl {
    name: String,
    unit: String,
    end_to_end: bool,
}

fn declared() -> Result<Vec<Decl>, String> {
    let doc = Json::parse(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = Vec::new();
    for (key, end_to_end) in [("end_to_end", true), ("per_layer", false)] {
        for m in doc.get(key).map(Json::arr).unwrap_or_default() {
            let field = |f| m.get(f).and_then(Json::str).map(str::to_string);
            let (Some(name), Some(unit)) = (field("name"), field("unit")) else {
                return Err(format!("BENCHMARK.json: malformed {key} entry"));
            };
            out.push(Decl { name, unit, end_to_end });
        }
    }
    Ok(out)
}

fn usage() -> String {
    format!(
        "usage: dbbench --workload <{}|all> [--seed N] [--seconds|--duration-s N] [--trace [0|1]] [--out DIR] \
         [--scale paper|smoke]\n       dbbench spread DIR...",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        scale: Scale::Paper,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" | "--duration-s" => {
                opts.seconds = value()?.parse().map_err(|_| format!("{flag} takes an integer"))?;
                if opts.seconds == 0 {
                    return Err(format!("{flag} must be at least 1"));
                }
            }
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => opts.out = PathBuf::from(value()?),
            "--scale" => {
                opts.scale = match value()?.as_str() {
                    "paper" => Scale::Paper,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("unknown scale {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    Ok(opts)
}

fn run_workload(opts: &Options) -> Result<Outcome, String> {
    match serve::spec(&opts.workload, opts.scale) {
        Some(spec) => serve::run(&spec, opts),
        None => ingest::run(opts),
    }
}

/// Prints the run's metrics, writes its result files, and ends standard
/// output with the JSON summary. Returns whether every check passed.
fn report(opts: &Options, outcome: &Outcome, decls: &[Decl]) -> Result<bool, String> {
    let mut selected = Vec::new();
    for d in decls.iter().filter(|d| d.end_to_end != opts.trace) {
        let Some(&(value, samples)) = outcome.metrics.get(d.name.as_str()) else {
            return Err(format!("{} did not measure declared metric {}", opts.workload, d.name));
        };
        if !value.is_finite() {
            return Err(format!("{}: metric {} is not finite", opts.workload, d.name));
        }
        println!("{:<14} {:<32} {:>18} {:<10} n={samples}", opts.workload, d.name, value, d.unit);
        selected.push((d, value));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let failure_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{:<14} {:<32} {:>18} {:<10} n={}",
        opts.workload, "failure_ratio", failure_ratio, "ratio", outcome.attempted
    );

    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("cannot create {}: {e}", opts.out.display()))?;
    let unit_of =
        |name: &str| decls.iter().find(|d| d.name == name).map_or("", |d| d.unit.as_str());
    let all_metrics = json::object(outcome.metrics.iter().map(|(&name, &(value, samples))| {
        let m = [
            ("value", json::num(value)),
            ("unit", json::quote(unit_of(name))),
            ("samples", samples.to_string()),
        ];
        (name, json::object(m))
    }));
    let spans = trace::by_name(&outcome.spans);
    let span_summary =
        json::object(spans.iter().map(|(&name, &(count, total_ms, self_ms, p50_us))| {
            let s = [
                ("count", count.to_string()),
                ("total_ms", json::num(total_ms)),
                ("self_ms", json::num(self_ms)),
                ("p50_us", json::num(p50_us)),
            ];
            (name, json::object(s))
        }));
    let mut members = vec![
        ("workload", json::quote(&opts.workload)),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", opts.trace.to_string()),
        ("scale", json::quote(if opts.scale == Scale::Paper { "paper" } else { "smoke" })),
        ("threads", std::thread::available_parallelism().map_or(1, |n| n.get()).to_string()),
        ("correct", correct.to_string()),
        ("attempted", outcome.attempted.to_string()),
        ("failed", outcome.failed.to_string()),
        ("failure_ratio", json::num(failure_ratio)),
        ("metrics", all_metrics),
        ("spans", span_summary),
        ("phase_s", json::object(outcome.phases.iter().map(|&(k, v, _)| (k, json::num(v))))),
        (
            "phase_rss_peak_mb",
            json::object(outcome.phases.iter().map(|&(k, _, mb)| (k, json::num(mb)))),
        ),
        ("spans_recorded", outcome.spans.len().to_string()),
    ];
    members.extend(outcome.notes.iter().map(|(k, v)| (*k, v.clone())));
    let result_path = opts.out.join(format!("{}.json", opts.workload));
    std::fs::write(&result_path, json::object(members) + "\n")
        .map_err(|e| format!("cannot write {}: {e}", result_path.display()))?;
    if opts.trace {
        let trace_path = opts.out.join(format!("{}.trace.json", opts.workload));
        std::fs::write(&trace_path, trace::to_json(&outcome.spans))
            .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    }

    let metrics = json::object(selected.iter().map(|(d, value)| {
        (
            d.name.as_str(),
            json::object([("value", json::num(*value)), ("unit", json::quote(&d.unit))]),
        )
    }));
    println!(
        "{}",
        json::object([
            ("correct", correct.to_string()),
            ("attempted", outcome.attempted.to_string()),
            ("failed", outcome.failed.to_string()),
            ("metrics", metrics),
        ])
    );
    Ok(correct)
}

/// Runs every workload, each in its own process, one after another.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            rest.push(a.clone());
        }
    }
    let mut all_ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w])
            .args(&rest)
            .status()
            .map_err(|e| format!("cannot run {w}: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("spread") {
        return match spread::bounds(BENCHMARK).and_then(|b| spread::run(&args[1..], &b)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("dbbench spread: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dbbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = if opts.workload == "all" {
        run_all(&args)
    } else {
        declared().and_then(|decls| {
            let outcome = run_workload(&opts)?;
            report(&opts, &outcome, &decls)
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dbbench: {e}");
            ExitCode::from(2)
        }
    }
}
