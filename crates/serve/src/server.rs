//! The `hyvec serve` daemon: socket handling, the workers, the router,
//! and the cache-warming pass.
//!
//! This module is the one place in the serve crate that touches the
//! wall clock (the `/stats` uptime instant and socket read timeouts),
//! and it carries a module-level `determinism` allow in `lint.toml`
//! for exactly that; the cache, HTTP, and stats modules stay fully
//! lint-strict. Nothing here feeds the clock into a report: response
//! bodies remain a pure function of (experiment id, seed,
//! instructions, config), which is what makes them cacheable at all.
//!
//! # Request pipeline
//!
//! The daemon runs `threads` workers: the thread that calls
//! [`SweepServer::run`] and `threads - 1` scoped helpers. Each worker
//! accepts its own connections from the one shared listener and serves
//! each to its end, so there is no accept thread and no queue between
//! the socket and the worker. A worker speaks keep-alive HTTP/1.1 via
//! [`crate::http`] and answers from the shared [`ResultCache`]; a
//! report miss runs the *identical* [`SweepBuilder`] pipeline the CLI
//! uses, so a served body is byte-for-byte the CLI renderer's output
//! for the same parameters.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hyvec_core::experiments::ExperimentParams;
use hyvec_core::registry::Registry;
use hyvec_core::render::{render, Format};
use hyvec_core::sweep::{default_jobs, par_map, SweepBuilder};

use crate::cache::{report_fingerprint, RenderSet, ResultCache};
use crate::http::{read_request, Request, RequestError, Response};
use crate::stats::{ServerCounters, StatsSnapshot};

/// The serve flag summary, shared by usage strings.
pub const SERVE_USAGE: &str =
    "[--addr HOST:PORT] [--threads N] [--warm] [--instructions N] [--seed S] [--cache-mb N]";

/// Most requests served on one keep-alive connection.
const MAX_REQUESTS_PER_CONNECTION: usize = 1000;

/// Configuration of one daemon instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Listen address (`HOST:PORT`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads, each accepting its own connections; defaults to
    /// the core count.
    pub threads: usize,
    /// Whether to run the full registry matrix into the cache before
    /// accepting traffic.
    pub warm: bool,
    /// The parameters the warm pass (and nothing else) runs with;
    /// requests always carry their own.
    pub warm_params: ExperimentParams,
    /// Byte budget of the result cache.
    pub max_cache_bytes: usize,
    /// Per-read socket timeout; an idle keep-alive connection is
    /// closed after this long.
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8013".to_string(),
            threads: default_jobs(),
            warm: false,
            warm_params: ExperimentParams::default(),
            max_cache_bytes: 64 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
        }
    }
}

impl ServeConfig {
    /// Parses the `hyvec serve` flags (everything after the
    /// subcommand).
    pub fn from_args(args: impl Iterator<Item = String>) -> Result<ServeConfig, String> {
        let mut args = args.peekable();
        let mut config = ServeConfig::default();
        while let Some(flag) = args.next() {
            if flag == "--warm" {
                config.warm = true;
                continue;
            }
            let value = args
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--addr" => config.addr = value,
                "--threads" => {
                    config.threads = value.parse().map_err(|e| format!("bad --threads: {e}"))?;
                    if config.threads == 0 {
                        return Err("--threads must be at least 1".to_string());
                    }
                }
                "--instructions" | "-n" => {
                    config.warm_params.instructions = ExperimentParams::parse_instructions(&value)
                        .map_err(|e| format!("bad --instructions: {e}"))?;
                }
                "--seed" | "-s" => {
                    config.warm_params.seed =
                        value.parse().map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--cache-mb" => {
                    let mb: usize = value.parse().map_err(|e| format!("bad --cache-mb: {e}"))?;
                    if mb == 0 {
                        return Err("--cache-mb must be at least 1".to_string());
                    }
                    config.max_cache_bytes = mb
                        .checked_mul(1024 * 1024)
                        .ok_or_else(|| format!("bad --cache-mb: {mb} MB overflows a byte count"))?;
                }
                other => return Err(format!("unknown serve flag {other}")),
            }
        }
        Ok(config)
    }
}

/// Why the daemon could not start or run.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listen address failed.
    Bind(String, std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(addr, e) => write!(f, "could not bind {addr}: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[derive(Debug)]
struct ServerState {
    config: ServeConfig,
    listener: TcpListener,
    local_addr: SocketAddr,
    registry: Registry,
    index_json: String,
    cache: ResultCache,
    counters: ServerCounters,
    started: Instant,
    stop: AtomicBool,
}

/// A running (or ready-to-run) sweep service. Cloning yields another
/// handle onto the same instance, so tests and signal paths can call
/// [`SweepServer::stop`] from other threads while [`SweepServer::run`]
/// blocks.
#[derive(Debug, Clone)]
pub struct SweepServer {
    state: Arc<ServerState>,
}

impl SweepServer {
    /// Binds the listen address and prepares the service (registry,
    /// cache, counters). No connection is accepted until
    /// [`SweepServer::run`].
    pub fn bind(config: ServeConfig) -> Result<SweepServer, ServeError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::Bind(config.addr.clone(), e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ServeError::Bind(config.addr.clone(), e))?;
        let registry = Registry::standard();
        let index_json = registry.index_json();
        let cache = ResultCache::new(config.max_cache_bytes);
        Ok(SweepServer {
            state: Arc::new(ServerState {
                config,
                listener,
                local_addr,
                registry,
                index_json,
                cache,
                counters: ServerCounters::default(),
                started: Instant::now(),
                stop: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Runs the full registry matrix into the cache with the
    /// configured warm parameters, fanned across the worker count
    /// (each job is the same single-experiment pipeline a request
    /// miss runs, so warmed entries are byte-identical to on-demand
    /// ones). Returns the number of experiments warmed.
    pub fn warm(&self) -> usize {
        let ids: Vec<String> = self
            .state
            .registry
            .ids()
            .into_iter()
            .map(str::to_string)
            .collect();
        let params = self.state.config.warm_params;
        par_map(&ids, self.state.config.threads, |id| {
            let key = report_fingerprint(id, params);
            self.state
                .cache
                .get_or_compute(key, || compute_render_set(id, params));
        });
        ids.len()
    }

    /// Serves until [`SweepServer::stop`] (or `POST /shutdown`).
    /// Blocks the calling thread, which is one of the `threads`
    /// workers; the other `threads - 1` are scoped inside. Returns once
    /// every worker has finished its current connection and exited.
    pub fn run(&self) {
        if self.state.config.warm {
            self.warm();
        }
        thread::scope(|scope| {
            for _ in 1..self.state.config.threads {
                scope.spawn(|| self.worker_loop());
            }
            self.worker_loop();
        });
    }

    /// Requests shutdown: sets the stop flag and wakes one worker
    /// blocked in `accept` with a loopback connection. Each worker that
    /// accepts after the flag passes the wake-up on before it exits; a
    /// busy worker exits once its current connection ends. Idempotent
    /// and callable from any thread, also before [`SweepServer::run`],
    /// whose workers then exit at once.
    pub fn stop(&self) {
        if !self.state.stop.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.state.local_addr);
        }
    }

    /// One worker: accepts a connection and serves it to its end, until
    /// the stop flag is set.
    fn worker_loop(&self) {
        loop {
            let accepted = self.state.listener.accept();
            if self.state.stop.load(Ordering::SeqCst) {
                // The wake-up (or a late client), dropped unanswered.
                // Pass the wake-up on: one connection per exiting
                // worker, so a large pool cannot overrun the backlog.
                drop(accepted);
                let _ = TcpStream::connect(self.state.local_addr);
                return;
            }
            if let Ok((conn, _)) = accepted {
                self.handle_connection(conn);
            }
        }
    }

    fn handle_connection(&self, conn: TcpStream) {
        self.state
            .counters
            .connections
            .fetch_add(1, Ordering::Relaxed);
        let _ = conn.set_read_timeout(Some(self.state.config.read_timeout));
        let _ = conn.set_nodelay(true);
        let mut reader = BufReader::new(&conn);
        for _ in 0..MAX_REQUESTS_PER_CONNECTION {
            match read_request(&mut reader) {
                Ok(request) => {
                    self.state.counters.requests.fetch_add(1, Ordering::Relaxed);
                    let (response, stop_after) = self.dispatch(&request);
                    self.state.counters.record_response(response.status);
                    let keep_alive = request.keep_alive && !stop_after;
                    if response.write_to(&mut (&conn), keep_alive).is_err() {
                        return;
                    }
                    if stop_after {
                        self.stop();
                        return;
                    }
                    if !keep_alive {
                        return;
                    }
                }
                Err(RequestError::Closed) | Err(RequestError::Io(_)) => return,
                Err(RequestError::Malformed(detail)) => {
                    // Framing is untrustworthy after a parse error:
                    // answer 400 and close.
                    self.state.counters.requests.fetch_add(1, Ordering::Relaxed);
                    let response = Response::error(400, &detail);
                    self.state.counters.record_response(response.status);
                    let _ = response.write_to(&mut (&conn), false);
                    return;
                }
            }
        }
    }

    /// Routes one request. Returns the response plus whether the
    /// daemon should stop after writing it.
    fn dispatch(&self, request: &Request) -> (Response, bool) {
        let method = request.method.as_str();
        let path = request.path.as_str();
        match (method, path) {
            ("GET", "/healthz") => (
                Response::ok("text/plain; charset=utf-8", b"ok\n".to_vec()),
                false,
            ),
            ("GET", "/experiments") => (
                Response::ok(
                    "application/json",
                    self.state.index_json.clone().into_bytes(),
                ),
                false,
            ),
            ("GET", "/stats") => {
                let uptime_ms =
                    u64::try_from(self.state.started.elapsed().as_millis()).unwrap_or(u64::MAX);
                let snapshot = StatsSnapshot::capture(
                    uptime_ms,
                    &self.state.counters,
                    self.state.cache.counters(),
                );
                (
                    Response::ok("application/json", snapshot.to_json().into_bytes()),
                    false,
                )
            }
            ("POST", "/shutdown") => (
                Response::ok("text/plain; charset=utf-8", b"shutting down\n".to_vec()),
                true,
            ),
            (_, "/healthz" | "/experiments" | "/stats") => (method_not_allowed("GET"), false),
            (_, "/shutdown") => (method_not_allowed("POST"), false),
            ("GET", _) if path.starts_with("/report/") => (self.report_endpoint(request), false),
            (_, _) if path.starts_with("/report/") => (method_not_allowed("GET"), false),
            _ => (Response::error(404, &format!("no route for {path}")), false),
        }
    }

    /// `GET /report/<artifact>/<scenario>?seed=&instructions=&format=`
    fn report_endpoint(&self, request: &Request) -> Response {
        let id = &request.path["/report/".len()..];
        let mut params = ExperimentParams::default();
        let mut format = Format::Text;
        for (key, value) in &request.query {
            let parsed: Result<(), String> = match key.as_str() {
                "seed" => value
                    .parse()
                    .map(|s| params.seed = s)
                    .map_err(|e| format!("bad seed {value:?}: {e}")),
                "instructions" => ExperimentParams::parse_instructions(value)
                    .map(|n| params.instructions = n)
                    .map_err(|e| format!("bad instructions {value:?}: {e}")),
                "format" => value.parse().map(|f| format = f),
                other => Err(format!(
                    "unknown query parameter {other:?} (expected seed, instructions, format)"
                )),
            };
            if let Err(detail) = parsed {
                return Response::error(400, &detail);
            }
        }
        if self.state.registry.get(id).is_none() {
            return Response::error(
                404,
                &format!("unknown experiment {id:?} (see /experiments for the index)"),
            );
        }
        let key = report_fingerprint(id, params);
        // The ETag is the report fingerprint plus the render backend:
        // same (id, params) in a different format is a different
        // representation, so it must not validate against the other
        // formats' cached copies.
        let content_type = match format {
            Format::Text => "text/plain; charset=utf-8",
            Format::Json => "application/json",
            Format::Csv => "text/csv; charset=utf-8",
        };
        let etag = format!("\"{key:016x}-{}\"", format.name());
        if let Some(condition) = request.header("if-none-match") {
            let matches = condition
                .split(',')
                .any(|candidate| candidate.trim() == etag || candidate.trim() == "*");
            if matches {
                // Deterministic reports never change for a given
                // fingerprint, so a matching validator short-circuits
                // before touching the cache or the sweep engine.
                return Response {
                    status: 304,
                    content_type,
                    extra_headers: Vec::new(),
                    body: Vec::new(),
                }
                .with_header("ETag", etag);
            }
        }
        let rendered = self
            .state
            .cache
            .get_or_compute(key, || compute_render_set(id, params));
        Response::ok(content_type, rendered.body(format).to_vec()).with_header("ETag", etag)
    }
}

/// Runs one experiment through the exact CLI pipeline (filtered
/// [`SweepBuilder`] over the standard registry, then every render
/// backend). Serving the stored bytes is therefore byte-identical to
/// `hyvec run-all --filter <id> --format <f>` — the loopback
/// integration tests and the CI smoke diff both pin this.
fn compute_render_set(id: &str, params: ExperimentParams) -> RenderSet {
    let outcome = SweepBuilder::new().params(params).jobs(1).filter(id).run();
    RenderSet::new(
        render(&outcome.report, Format::Text),
        render(&outcome.report, Format::Json),
        render(&outcome.report, Format::Csv),
    )
}

fn method_not_allowed(allow: &'static str) -> Response {
    Response::error(405, &format!("use {allow}")).with_header("Allow", allow)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_flags_parse() {
        let c = ServeConfig::from_args(std::iter::empty()).unwrap();
        assert_eq!(c, ServeConfig::default());
        let c = ServeConfig::from_args(
            [
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "3",
                "--warm",
                "--instructions",
                "2000",
                "--seed",
                "9",
                "--cache-mb",
                "8",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(c.addr, "127.0.0.1:0");
        assert_eq!(c.threads, 3);
        assert!(c.warm);
        assert_eq!(c.warm_params.instructions, 2000);
        assert_eq!(c.warm_params.seed, 9);
        assert_eq!(c.max_cache_bytes, 8 * 1024 * 1024);
    }

    #[test]
    fn bad_serve_flags_are_reported() {
        for bad in [
            vec!["--threads", "0"],
            vec!["--cache-mb", "0"],
            // 2^44 MB is 2^64 bytes: the byte count would wrap to 0.
            vec!["--cache-mb", "17592186044416"],
            vec!["--addr"],
            vec!["--wat", "1"],
            vec!["--instructions", "many"],
            vec!["--instructions", "0"],
        ] {
            assert!(
                ServeConfig::from_args(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }
}
