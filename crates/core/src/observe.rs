//! Dependency-free observability endpoint for the serving layer.
//!
//! [`EstimatorService::serve_observability`] binds a plain
//! [`std::net::TcpListener`] (no HTTP framework — the workspace adds no
//! dependencies) and answers four read-only routes:
//!
//! | route      | payload |
//! |------------|---------|
//! | `/metrics` | the process-wide telemetry registry in Prometheus text format |
//! | `/health`  | one JSON object: serving generation, queued batches, worst per-clique drift, cumulative counters |
//! | `/explain` | JSON array of the last-N sampled [`ExplainReport`](crate::explain::ExplainReport)s |
//! | `/journal` | drains the global event [`journal`] as JSONL (one event per line) |
//!
//! The endpoint is **off by default**: nothing listens until
//! `serve_observability` is called explicitly, and dropping the returned
//! [`ObservabilityServer`] stops the listener. `/journal` is a *drain* —
//! each event is delivered exactly once across all drainers (the journal
//! is a bounded ring; see [`dbhist_telemetry::journal`]).
//!
//! Request handling is deliberately minimal: only the request line of a
//! `GET` is parsed (headers are consumed and ignored), every response
//! carries `Content-Length` and `Connection: close`, and each connection
//! serves one request. That is enough for `curl`, Prometheus scrapers,
//! and health probes, without pulling in an HTTP stack.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dbhist_telemetry::journal::journal;

use crate::error::SynopsisError;
use crate::service::{EstimatorService, Shared};

/// Accept-loop poll interval while idle (the listener is non-blocking so
/// shutdown is observed promptly).
const POLL: Duration = Duration::from_millis(25);

/// Per-connection read timeout: a client that stalls mid-request is
/// dropped rather than wedging the single accept thread.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Upper bound on request header lines consumed before responding.
const MAX_HEADER_LINES: usize = 64;

/// A running observability listener; dropping it stops the accept thread
/// and releases the port.
#[derive(Debug)]
pub struct ObservabilityServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ObservabilityServer {
    /// The bound address (useful with port `0`, which binds an ephemeral
    /// port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ObservabilityServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl EstimatorService {
    /// Starts the observability endpoint on `addr` (e.g.
    /// `"127.0.0.1:9184"`, or port `0` for an ephemeral port). Off by
    /// default — serving estimates never opens a socket unless this is
    /// called. The listener runs on one background thread and stops when
    /// the returned [`ObservabilityServer`] is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`SynopsisError::InvalidConfig`] when the address cannot
    /// be bound.
    pub fn serve_observability(
        &self,
        addr: impl ToSocketAddrs,
    ) -> Result<ObservabilityServer, SynopsisError> {
        let listener = TcpListener::bind(addr).map_err(observe_error)?;
        listener.set_nonblocking(true).map_err(observe_error)?;
        let addr = listener.local_addr().map_err(observe_error)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = self.shared();
        let stop = Arc::clone(&shutdown);
        let thread = std::thread::spawn(move || accept_loop(&listener, &shared, &stop));
        Ok(ObservabilityServer { addr, shutdown, thread: Some(thread) })
    }
}

fn observe_error(e: std::io::Error) -> SynopsisError {
    SynopsisError::InvalidConfig { parameter: "observe", reason: e.to_string() }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, shutdown: &AtomicBool) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // Served synchronously: all four routes render in-memory
                // state, so one connection at a time keeps the endpoint
                // trivially bounded.
                let _ = serve_connection(stream, shared);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(POLL);
            }
            Err(_) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Consume (and ignore) headers up to the blank line so the client
    // never sees a reset while still sending.
    let mut header = String::new();
    for _ in 0..MAX_HEADER_LINES {
        header.clear();
        if reader.read_line(&mut header)? == 0 || header.trim().is_empty() {
            break;
        }
    }
    let mut stream = reader.into_inner();
    let path = match parse_get_path(&request_line) {
        Some(path) => path,
        None => {
            return respond(
                &mut stream,
                "405 Method Not Allowed",
                "text/plain; charset=utf-8",
                "only GET is supported\n",
            );
        }
    };
    match path {
        "/metrics" => {
            let body = dbhist_telemetry::export::to_prometheus(&dbhist_telemetry::snapshot());
            respond(&mut stream, "200 OK", "text/plain; version=0.0.4; charset=utf-8", &body)
        }
        "/health" => respond(&mut stream, "200 OK", "application/json", &health_json(shared)),
        "/explain" => {
            let reports = shared.recent_explains();
            let mut body = String::from("[");
            for (i, report) in reports.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&report.to_json());
            }
            body.push_str("]\n");
            respond(&mut stream, "200 OK", "application/json", &body)
        }
        "/journal" => {
            let body = journal().drain_jsonl();
            respond(&mut stream, "200 OK", "application/x-ndjson", &body)
        }
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "routes: /metrics /health /explain /journal\n",
        ),
    }
}

/// Extracts the path of a `GET <path> HTTP/x.y` request line (query
/// strings are stripped); `None` for any other method or a malformed
/// line.
fn parse_get_path(request_line: &str) -> Option<&str> {
    let mut parts = request_line.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    let target = parts.next()?;
    Some(target.split('?').next().unwrap_or(target))
}

/// JSON rendering of `f64` matching the telemetry exporter: always a
/// valid JSON number, `null` for non-finite values.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

fn health_json(shared: &Arc<Shared>) -> String {
    let stats = shared.stats();
    let snapshot = shared.current_snapshot();
    let monitor = snapshot.synopsis.drift_monitor();
    let mut body = format!(
        "{{\"generation\":{},\"pending\":{},\"max_drift\":{},\"error_q95\":{},\
         \"requests\":{},\"batches\":{},\"swaps\":{},\"dropped_replies\":{}",
        shared.generation_number(),
        shared.pending(),
        fmt_f64(monitor.max_drift()),
        fmt_f64(monitor.max_error_quantile(95.0)),
        stats.requests,
        stats.batches,
        stats.swaps,
        stats.dropped_replies,
    );
    body.push_str(",\"per_generation\":[");
    for (i, (generation, count)) in stats.per_generation.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("[{generation},{count}]"));
    }
    body.push_str("]}\n");
    body
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SynopsisBuilder;
    use crate::query::Query;
    use crate::service::ServiceConfig;
    use dbhist_distribution::{Relation, Schema};

    fn service(explain_sample: usize) -> EstimatorService {
        let schema = Schema::new(vec![("a", 8), ("b", 8), ("c", 4)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..2048).map(|i| vec![i % 8, i % 8, (i / 8) % 4]).collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let synopsis = SynopsisBuilder::new(&rel).budget(512).build().unwrap();
        EstimatorService::start(synopsis, ServiceConfig { workers: 1, explain_sample })
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        // The server closes after one response, so line-reads terminate.
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            response.push_str(&line);
            line.clear();
        }
        response
    }

    #[test]
    fn health_reports_generation_and_pending() {
        let service = service(0);
        let server = service.serve_observability("127.0.0.1:0").unwrap();
        let response = get(server.addr(), "/health");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("\"generation\":1"), "{response}");
        assert!(response.contains("\"pending\":0"), "{response}");
        assert!(response.contains("\"max_drift\":"), "{response}");
    }

    #[test]
    fn explain_route_returns_sampled_reports() {
        let service = service(1);
        let server = service.serve_observability("127.0.0.1:0").unwrap();
        let empty = get(server.addr(), "/explain");
        assert!(empty.contains("[]"), "no samples yet: {empty}");
        let _ = service.estimate_batch(vec![Query::range(0, 0, 3)]).unwrap();
        let response = get(server.addr(), "/explain");
        assert!(response.contains("\"path\":\""), "{response}");
        assert!(response.contains("\"estimate\":"), "{response}");
        assert!(response.contains("\"scratch_reused\":"), "{response}");
    }

    #[test]
    fn metrics_route_serves_prometheus_text() {
        let service = service(0);
        let server = service.serve_observability("127.0.0.1:0").unwrap();
        let response = get(server.addr(), "/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    }

    #[test]
    fn unknown_route_is_404_and_post_is_405() {
        let service = service(0);
        let server = service.serve_observability("127.0.0.1:0").unwrap();
        assert!(get(server.addr(), "/nope").starts_with("HTTP/1.1 404"));
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"POST /health HTTP/1.1\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("HTTP/1.1 405"), "{line}");
    }

    #[test]
    fn server_stops_on_drop_and_releases_the_port() {
        let service = service(0);
        let server = service.serve_observability("127.0.0.1:0").unwrap();
        let addr = server.addr();
        drop(server);
        // The port must be rebindable once the accept thread exits.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "port should be released after drop");
    }
}
