//! Loopback integration tests: a real daemon on an ephemeral port,
//! exercised through real sockets.
//!
//! The three properties the serve subsystem promises are all pinned
//! here: a served body is byte-identical to the CLI renderer's output
//! for the same parameters, repeated requests are answered from the
//! content-addressed cache, and concurrent identical requests compute
//! once (single-flight). The daemon must also stop: every run thread is
//! waited on for a bounded time, so a broken shutdown fails a test
//! instead of hanging the suite.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use hyvec_core::experiments::ExperimentParams;
use hyvec_core::registry::Registry;
use hyvec_core::render::{render, Format};
use hyvec_core::sweep::SweepBuilder;
use hyvec_serve::{ServeConfig, SweepServer};

/// Keeps the sweeps fast; every request in this file pins it
/// explicitly so the bytes are comparable across tests.
const INSTRUCTIONS: u64 = 2_000;

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 8,
        read_timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    }
}

/// Binds an ephemeral-port daemon and runs it on a background thread.
fn start(config: ServeConfig) -> (SweepServer, thread::JoinHandle<()>) {
    let server = SweepServer::bind(config).expect("bind 127.0.0.1:0");
    let runner = server.clone();
    let handle = thread::spawn(move || runner.run());
    (server, handle)
}

/// Waits at most 10 s for a daemon's run thread to come home.
fn join_within_bound(handle: thread::JoinHandle<()>) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "the daemon did not exit within 10 s"
        );
        thread::sleep(Duration::from_millis(5));
    }
    handle.join().expect("runner joins");
}

/// One `Connection: close` request; returns (status, head, body).
fn request(server: &SweepServer, method: &str, target: &str) -> (u16, String, Vec<u8>) {
    let addr = server.local_addr();
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(
        format!("{method} {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
            .as_bytes(),
    )
    .expect("send");
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("recv");
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = String::from_utf8(raw[..header_end].to_vec()).expect("ascii head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head, raw[header_end + 4..].to_vec())
}

fn get(server: &SweepServer, target: &str) -> (u16, String, Vec<u8>) {
    request(server, "GET", target)
}

/// Like [`request`], but GET with extra request headers.
fn get_with_headers(
    server: &SweepServer,
    target: &str,
    extra: &[(&str, &str)],
) -> (u16, String, Vec<u8>) {
    let addr = server.local_addr();
    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut wire = format!("GET {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    for (name, value) in extra {
        wire.push_str(&format!("{name}: {value}\r\n"));
    }
    wire.push_str("\r\n");
    conn.write_all(wire.as_bytes()).expect("send");
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("recv");
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = String::from_utf8(raw[..header_end].to_vec()).expect("ascii head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head, raw[header_end + 4..].to_vec())
}

/// The value of the (case-sensitive, as-written) header in a head.
fn header_value(head: &str, name: &str) -> Option<String> {
    head.lines()
        .find_map(|line| line.strip_prefix(&format!("{name}: ")))
        .map(str::to_string)
}

/// Pulls one integer counter out of the `/stats` JSON by key.
fn stat(stats_body: &[u8], key: &str) -> u64 {
    let text = String::from_utf8_lossy(stats_body);
    let needle = format!("\"{key}\": ");
    let at = text.find(&needle).unwrap_or_else(|| {
        panic!("counter {key:?} missing from stats:\n{text}");
    });
    text[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("counter value")
}

/// What the CLI renderer emits for the same (id, params, format).
fn cli_bytes(id: &str, params: ExperimentParams, format: Format) -> Vec<u8> {
    let outcome = SweepBuilder::new().params(params).jobs(1).filter(id).run();
    render(&outcome.report, format).into_bytes()
}

#[test]
fn served_reports_are_byte_identical_to_the_cli_renderer() {
    let (server, handle) = start(test_config());
    let params = ExperimentParams {
        instructions: INSTRUCTIONS,
        seed: 7,
    };
    for (format, format_name, content_type) in [
        (Format::Text, "text", "text/plain; charset=utf-8"),
        (Format::Json, "json", "application/json"),
        (Format::Csv, "csv", "text/csv; charset=utf-8"),
    ] {
        let target =
            format!("/report/fig3/A?seed=7&instructions={INSTRUCTIONS}&format={format_name}");
        let (status, head, body) = get(&server, &target);
        assert_eq!(status, 200, "{target}: {head}");
        assert!(
            head.contains(&format!("Content-Type: {content_type}")),
            "{target} content type:\n{head}"
        );
        assert_eq!(
            body,
            cli_bytes("fig3/A", params, format),
            "{target}: served bytes differ from the CLI renderer"
        );
    }
    server.stop();
    join_within_bound(handle);
}

#[test]
fn repeat_request_is_answered_from_the_cache() {
    let (server, handle) = start(test_config());
    let target = format!("/report/fig4/A?instructions={INSTRUCTIONS}&format=json");
    let (status, _, first) = get(&server, &target);
    assert_eq!(status, 200);
    let (status, _, second) = get(&server, &target);
    assert_eq!(status, 200);
    assert_eq!(first, second);

    let (status, _, stats) = get(&server, "/stats");
    assert_eq!(status, 200);
    assert_eq!(stat(&stats, "misses"), 1, "first request computes");
    assert_eq!(stat(&stats, "hits"), 1, "second request hits the cache");
    assert_eq!(stat(&stats, "entries"), 1);
    server.stop();
    join_within_bound(handle);
}

#[test]
fn concurrent_identical_requests_compute_once() {
    let (server, handle) = start(test_config());
    let target = format!("/report/area/A?instructions={INSTRUCTIONS}&format=text");
    let bodies: Vec<Vec<u8>> = thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                let server = &server;
                let target = target.as_str();
                scope.spawn(move || {
                    let (status, _, body) = get(server, target);
                    assert_eq!(status, 200);
                    body
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client joins"))
            .collect()
    });
    assert!(bodies.windows(2).all(|pair| pair[0] == pair[1]));

    let (_, _, stats) = get(&server, "/stats");
    assert_eq!(
        stat(&stats, "misses"),
        1,
        "identical in-flight requests must coalesce onto one compute"
    );
    assert_eq!(stat(&stats, "hits") + stat(&stats, "coalesced"), 7);
    server.stop();
    join_within_bound(handle);
}

#[test]
fn experiments_endpoint_matches_the_registry_index() {
    let (server, handle) = start(test_config());
    let (status, head, body) = get(&server, "/experiments");
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: application/json"));
    assert_eq!(
        String::from_utf8(body).expect("utf-8 index"),
        Registry::standard().index_json(),
        "/experiments must serve the `hyvec list --format json` document verbatim"
    );
    server.stop();
    join_within_bound(handle);
}

#[test]
fn healthz_answers_ok() {
    let (server, handle) = start(test_config());
    let (status, _, body) = get(&server, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, b"ok\n");
    server.stop();
    join_within_bound(handle);
}

#[test]
fn errors_are_clean_http_responses() {
    let (server, handle) = start(test_config());

    // Unknown experiment id: 404 with a body naming the id.
    let (status, _, body) = get(&server, "/report/nonesuch/Z?format=text");
    assert_eq!(status, 404);
    assert!(String::from_utf8_lossy(&body).contains("nonesuch/Z"));

    // Unknown path: 404.
    let (status, _, _) = get(&server, "/nope");
    assert_eq!(status, 404);

    // Bad query values and unknown parameters: 400.
    for target in [
        "/report/fig3/A?seed=banana",
        "/report/fig3/A?format=yaml",
        "/report/fig3/A?surprise=1",
        "/report/fig3/A?instructions=0",
    ] {
        let (status, _, _) = get(&server, target);
        assert_eq!(status, 400, "{target}");
    }

    // Wrong method on a GET route: 405 naming the allowed method.
    let (status, head, _) = request(&server, "POST", "/report/fig3/A");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: GET"), "405 must carry Allow:\n{head}");

    // A malformed request line: 400, connection closed.
    let addr = server.local_addr();
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(b"definitely not http\r\n\r\n")
        .expect("send");
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("recv");
    assert!(
        raw.starts_with(b"HTTP/1.1 400 "),
        "garbage gets a 400: {:?}",
        String::from_utf8_lossy(&raw)
    );

    // None of that perturbed the success counters.
    let (_, _, stats) = get(&server, "/stats");
    assert_eq!(stat(&stats, "status_404"), 2);
    assert_eq!(stat(&stats, "status_400"), 5);
    assert_eq!(stat(&stats, "status_405"), 1);
    // And no rejected request computed or cached a report.
    assert_eq!(stat(&stats, "misses"), 0);
    assert_eq!(stat(&stats, "entries"), 0);
    server.stop();
    join_within_bound(handle);
}

#[test]
fn conditional_requests_honor_the_report_etag() {
    let (server, handle) = start(test_config());
    let target = format!("/report/fig3/A?instructions={INSTRUCTIONS}&format=text");

    // First GET: a 200 carrying a strong, quoted ETag.
    let (status, head, body) = get(&server, &target);
    assert_eq!(status, 200, "{head}");
    let etag = header_value(&head, "ETag").expect("200 must carry an ETag");
    assert!(
        etag.starts_with('"') && etag.ends_with('"'),
        "ETag must be quoted: {etag}"
    );
    assert!(!body.is_empty());

    // Revalidation with the matching ETag: 304, no body, same ETag —
    // and it short-circuits before the cache, so no hit is recorded.
    let (status, head, body) = get_with_headers(&server, &target, &[("If-None-Match", &etag)]);
    assert_eq!(status, 304, "{head}");
    assert!(body.is_empty(), "a 304 must not carry a body");
    assert_eq!(header_value(&head, "ETag").as_ref(), Some(&etag));
    let (_, _, stats) = get(&server, "/stats");
    assert_eq!(stat(&stats, "hits"), 0, "a 304 bypasses the cache");
    assert_eq!(stat(&stats, "status_304"), 1, "the revalidation is counted");

    // A stale validator gets the full 200 again.
    let (status, _, body) =
        get_with_headers(&server, &target, &[("If-None-Match", "\"0000-stale\"")]);
    assert_eq!(status, 200);
    assert!(!body.is_empty());

    // `If-None-Match: *` matches any representation.
    let (status, _, body) = get_with_headers(&server, &target, &[("If-None-Match", "*")]);
    assert_eq!(status, 304);
    assert!(body.is_empty());
    let (_, _, stats) = get(&server, "/stats");
    assert_eq!(stat(&stats, "status_304"), 2);
    assert_eq!(stat(&stats, "status_5xx"), 0);

    // A different render format is a different representation: the
    // text validator must not suppress the JSON body, and the JSON
    // response advertises its own distinct ETag.
    let json_target = format!("/report/fig3/A?instructions={INSTRUCTIONS}&format=json");
    let (status, head, body) = get_with_headers(&server, &json_target, &[("If-None-Match", &etag)]);
    assert_eq!(status, 200, "{head}");
    assert!(!body.is_empty());
    let json_etag = header_value(&head, "ETag").expect("json 200 must carry an ETag");
    assert_ne!(json_etag, etag);

    server.stop();
    join_within_bound(handle);
}

#[test]
fn a_restarted_daemon_serves_identical_bytes() {
    let target = format!("/report/reliability/A?instructions={INSTRUCTIONS}&format=csv");
    let mut bodies = Vec::new();
    for _ in 0..2 {
        let (server, handle) = start(test_config());
        let (status, _, body) = get(&server, &target);
        assert_eq!(status, 200);
        bodies.push(body);
        server.stop();
        join_within_bound(handle);
    }
    assert_eq!(
        bodies[0], bodies[1],
        "reports are pure functions of (artifact, scenario, seed, config); \
         a restart must not change a byte"
    );
}

#[test]
fn shutdown_endpoint_stops_the_daemon() {
    let (server, handle) = start(test_config());
    let (status, _, body) = request(&server, "POST", "/shutdown");
    assert_eq!(status, 200);
    assert_eq!(body, b"shutting down\n");
    // The run() thread must come home on its own — no stop() here.
    join_within_bound(handle);

    // GET /shutdown must not kill the server; only POST does.
    let (server, handle) = start(test_config());
    let (status, head, _) = get(&server, "/shutdown");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: POST"));
    let (status, _, _) = get(&server, "/healthz");
    assert_eq!(status, 200, "GET /shutdown left the daemon running");
    server.stop();
    join_within_bound(handle);
}

/// The worker counts the shutdown tests run at: the calling thread
/// alone, and the calling thread plus three helpers.
const STOP_THREADS: [usize; 2] = [1, 4];

fn config_with_threads(threads: usize) -> ServeConfig {
    ServeConfig {
        threads,
        ..test_config()
    }
}

#[test]
fn stop_wakes_every_idle_worker() {
    for threads in STOP_THREADS {
        let (server, handle) = start(config_with_threads(threads));
        let (status, _, _) = get(&server, "/healthz");
        assert_eq!(status, 200);
        // Give every helper time to block in accept.
        thread::sleep(Duration::from_millis(50));
        server.stop();
        join_within_bound(handle);
    }
}

#[test]
fn shutdown_endpoint_stops_every_worker() {
    for threads in STOP_THREADS {
        let (server, handle) = start(config_with_threads(threads));
        let (status, _, _) = request(&server, "POST", "/shutdown");
        assert_eq!(status, 200, "{threads} threads");
        join_within_bound(handle);
    }
}

#[test]
fn a_client_after_stop_gets_no_response() {
    for threads in STOP_THREADS {
        let (server, handle) = start(config_with_threads(threads));
        server.stop();
        let addr = server.local_addr();
        let mut late = TcpStream::connect(addr).expect("the listener is still bound");
        late.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        // The write may already fail if a worker has dropped the
        // connection; either way no response may come back.
        let _ = late.write_all(format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes());
        join_within_bound(handle);
        // Closing the listener resets a connection no worker accepted.
        drop(server);
        let mut raw = Vec::new();
        let _ = late.read_to_end(&mut raw);
        assert!(
            raw.is_empty(),
            "{threads} threads: a stopped daemon answered {:?}",
            String::from_utf8_lossy(&raw)
        );
    }
}

#[test]
fn stop_before_run_makes_run_return() {
    for threads in STOP_THREADS {
        let server = SweepServer::bind(config_with_threads(threads)).expect("bind 127.0.0.1:0");
        server.stop();
        let runner = server.clone();
        join_within_bound(thread::spawn(move || runner.run()));
    }
}
