//! `serve_mix`: an in-process `SweepServer` with 2 worker threads,
//! driven as a closed loop by 2 keep-alive connections over loopback.
//!
//! Each batch is 80% hot `/report` hits (all three formats), 15%
//! `If-None-Match` revalidations and 5% cold misses: fresh seeds on
//! cheap single-core experiments at a reduced budget. Every 200 body
//! is compared with a direct render of the same experiment, and every
//! revalidation must get an empty 304.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Instant;

use hyvec_core::experiments::ExperimentParams;
use hyvec_core::render::{render, Format};
use hyvec_core::sweep::SweepBuilder;
use hyvec_serve::{RenderSet, ServeConfig, SweepServer};

use crate::layers;
use crate::replay::Regime;
use crate::util::{median, mix, quantile, timed, HostClock, Metrics};
use crate::{Config, Outcome};

/// Experiments served hot (warmed at set-up, one seed).
const HOT: [&str; 6] = [
    "methodology/A",
    "fig3/A",
    "fig4/B",
    "performance/A",
    "area/B",
    "ablation-workloads/A",
];

/// Experiments requested cold, each time with a fresh seed.
const COLD: [&str; 6] = [
    "methodology/B",
    "fig4/A",
    "performance/B",
    "area/A",
    "ablation-workloads/B",
    "fig3/B",
];

const FORMATS: [(Format, &str); 3] = [
    (Format::Text, "text"),
    (Format::Json, "json"),
    (Format::Csv, "csv"),
];

/// The server pipeline, called directly: a filtered one-job sweep and
/// every render backend.
pub fn direct_render(id: &str, params: ExperimentParams) -> RenderSet {
    let outcome = SweepBuilder::new().params(params).jobs(1).filter(id).run();
    RenderSet::new(
        render(&outcome.report, Format::Text),
        render(&outcome.report, Format::Json),
        render(&outcome.report, Format::Csv),
    )
}

/// The result-cache counters as per-layer metrics.
pub fn set_cache_counts(m: &mut Metrics, hits: u64, misses: u64, coalesced: u64) {
    m.set("serve.cache_hits", hits as f64, "count");
    m.set("serve.cache_misses", misses as f64, "count");
    m.set("serve.coalesced", coalesced as f64, "count");
    let lookups = (hits + misses + coalesced).max(1);
    m.set("serve.hit_ratio", hits as f64 / lookups as f64, "ratio");
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hot,
    Revalidate,
    Cold,
}

/// One planned request and the response it must get.
struct Planned<'a> {
    class: Class,
    target: String,
    if_none_match: Option<&'a str>,
    /// The exact 200 body, or `None` for an empty 304.
    expect: Option<&'a [u8]>,
}

struct Response {
    status: u16,
    etag: Option<String>,
    close: bool,
    body: Vec<u8>,
}

/// Requests sent on one connection before the client reconnects, well
/// under the daemon's per-connection limit.
const REQUESTS_PER_CONNECTION: usize = 500;

/// A keep-alive HTTP/1.1 client.
struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    sent: usize,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            sent: 0,
        }
    }

    fn get(&mut self, target: &str, if_none_match: Option<&str>) -> std::io::Result<Response> {
        if self.sent == REQUESTS_PER_CONNECTION {
            self.conn = None;
        }
        let result = self.try_get(target, if_none_match);
        if !matches!(&result, Ok(r) if !r.close) {
            self.conn = None;
        }
        result
    }

    fn try_get(&mut self, target: &str, if_none_match: Option<&str>) -> std::io::Result<Response> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some((stream, reader));
            self.sent = 0;
        }
        self.sent += 1;
        let (stream, reader) = self.conn.as_mut().expect("connected above");
        let condition = if_none_match
            .map(|tag| format!("If-None-Match: {tag}\r\n"))
            .unwrap_or_default();
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n{condition}\r\n"
        )?;
        stream.flush()?;

        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0;
        let mut etag = None;
        let mut close = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(bad("truncated headers"));
            }
            let Some((name, value)) = line.trim_end().split_once(':') else {
                break;
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse().map_err(|_| bad("bad length"))?,
                "etag" => etag = Some(value.to_string()),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let mut body = vec![0; length];
        reader.read_exact(&mut body)?;
        Ok(Response {
            status,
            etag,
            close,
            body,
        })
    }
}

/// A daemon on an ephemeral loopback port, serving from its own thread.
struct Daemon {
    server: SweepServer,
    thread: thread::JoinHandle<()>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        // A small cache: cold entries age out behind the hot keys the
        // batches keep touching, so memory stops growing early in a run.
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            max_cache_bytes: 4 << 20,
            ..ServeConfig::default()
        };
        let server = SweepServer::bind(config).map_err(|e| e.to_string())?;
        let runner = server.clone();
        let thread = thread::spawn(move || runner.run());
        Ok(Daemon { server, thread })
    }

    /// Stops the daemon; every client must be closed first.
    fn stop(self) -> Result<(), String> {
        self.server.stop();
        self.thread
            .join()
            .map_err(|_| "the daemon panicked".to_string())
    }
}

fn target(id: &str, params: ExperimentParams, format: &str) -> String {
    format!(
        "/report/{id}?seed={}&instructions={}&format={format}",
        params.seed, params.instructions
    )
}

/// Set-up: bind, start, and warm every hot key in every format.
/// Returns the daemon, its client, and the ETag of each hot key.
fn start_warm(params: ExperimentParams) -> Result<(Daemon, Client, Vec<[String; 3]>), String> {
    let daemon = Daemon::start()?;
    let mut client = Client::new(daemon.server.local_addr());
    let mut etags = Vec::new();
    for id in HOT {
        let mut tags: [String; 3] = Default::default();
        for (i, (_, name)) in FORMATS.into_iter().enumerate() {
            let r = client
                .get(&target(id, params, name), None)
                .map_err(|e| format!("warm {id}: {e}"))?;
            if r.status != 200 {
                return Err(format!("warm {id}: status {}", r.status));
            }
            tags[i] = r.etag.ok_or("warm: no ETag")?;
        }
        etags.push(tags);
    }
    Ok((daemon, client, etags))
}

/// The cache counters the daemon reports on `/stats`.
fn cache_counters(client: &mut Client) -> Result<[u64; 3], String> {
    let r = client
        .get("/stats", None)
        .map_err(|e| format!("/stats: {e}"))?;
    let body = String::from_utf8_lossy(&r.body);
    let cache = body
        .split("\"cache\":")
        .nth(1)
        .ok_or("/stats has no cache")?;
    let field = |name: &str| -> Result<u64, String> {
        let rest = cache
            .split(&format!("\"{name}\":"))
            .nth(1)
            .ok_or(format!("/stats has no {name}"))?;
        let digits: String = rest
            .trim_start()
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().map_err(|_| format!("/stats: bad {name}"))
    };
    Ok([field("hits")?, field("misses")?, field("coalesced")?])
}

/// What the whole measurement saw.
#[derive(Default)]
struct Tally {
    latencies: Vec<(Class, f64)>,
    batch_walls: Vec<f64>,
    compute_s: Vec<f64>,
    hot: u64,
    cold: u64,
}

/// The daemon's traffic: what the batches are built from, the clients
/// that send them, and everything measured so far.
struct Mix<'a> {
    cfg: &'a Config,
    hot_params: ExperimentParams,
    hot_refs: Vec<RenderSet>,
    etags: Vec<[String; 3]>,
    clients: [Client; 2],
    clock: HostClock,
    tally: Tally,
    next_batch: u64,
}

impl Mix<'_> {
    /// Plans, references and drives batches until `seconds` have
    /// passed, sampling a fresh daemon's set-up between batches.
    fn drive(&mut self, seconds: f64, out: &mut Outcome) -> Result<(), String> {
        let Mix {
            cfg,
            hot_params,
            hot_refs,
            etags,
            clients,
            clock,
            tally,
            next_batch,
        } = self;
        let size = cfg.pick(400, 40);
        let (cold_n, reval_n) = (size / 20, size * 3 / 20);
        let cold_instructions = cfg.pick(10_000, 1_000);
        let start = Instant::now();
        let mut batches = 0;
        while batches < cfg.pick(3, 1) || start.elapsed().as_secs_f64() < seconds {
            let batch = *next_batch;
            let stream = |i: u64| mix(cfg.seed, (batch << 20) | i);
            // Classes in fixed proportion, shuffled per batch.
            let mut classes: Vec<Class> = (0..size)
                .map(|i| match i {
                    i if i < cold_n => Class::Cold,
                    i if i < cold_n + reval_n => Class::Revalidate,
                    _ => Class::Hot,
                })
                .collect();
            for i in (1..classes.len()).rev() {
                classes.swap(i, (stream(i as u64) % (i as u64 + 1)) as usize);
            }
            // Cold keys are unique per (batch, request), so none
            // coalesce; their references are computed before the batch
            // is timed.
            let cold_refs: Vec<(String, Format, RenderSet)> = classes
                .iter()
                .enumerate()
                .filter(|(_, c)| **c == Class::Cold)
                .map(|(i, _)| {
                    let r = stream(size as u64 + i as u64);
                    let id = COLD[(r % COLD.len() as u64) as usize];
                    let params = ExperimentParams {
                        instructions: cold_instructions,
                        seed: r >> 8,
                    };
                    let (format, name) = FORMATS[(r >> 4) as usize % 3];
                    let (t, set) = timed(|| direct_render(id, params));
                    tally.compute_s.push(t);
                    (target(id, params, name), format, set)
                })
                .collect();
            let mut cold_iter = cold_refs.iter();
            let plan: Vec<Planned> = classes
                .iter()
                .enumerate()
                .map(|(i, &class)| {
                    let r = stream(2 * size as u64 + i as u64);
                    let k = (r % HOT.len() as u64) as usize;
                    let f = (r >> 8) as usize % 3;
                    let (format, name) = FORMATS[f];
                    match class {
                        Class::Hot => Planned {
                            class,
                            target: target(HOT[k], *hot_params, name),
                            if_none_match: None,
                            expect: Some(hot_refs[k].body(format)),
                        },
                        Class::Revalidate => Planned {
                            class,
                            target: target(HOT[k], *hot_params, name),
                            if_none_match: Some(&etags[k][f]),
                            expect: None,
                        },
                        Class::Cold => {
                            let (t, format, set) =
                                cold_iter.next().expect("one reference per cold request");
                            Planned {
                                class,
                                target: t.clone(),
                                if_none_match: None,
                                expect: Some(set.body(*format)),
                            }
                        }
                    }
                })
                .collect();

            // Two closed-loop clients split the batch.
            let (wall, results) = timed(|| {
                let [a, b] = clients;
                thread::scope(|scope| {
                    let plan = &plan;
                    let handles = [(a, 0), (b, 1)].map(|(client, parity)| {
                        scope.spawn(move || {
                            plan.iter()
                                .skip(parity)
                                .step_by(2)
                                .map(|p| {
                                    let t = Instant::now();
                                    let response = client.get(&p.target, p.if_none_match);
                                    let latency = t.elapsed().as_secs_f64();
                                    let ok = match (response, p.expect) {
                                        (Ok(r), Some(body)) => r.status == 200 && r.body == body,
                                        (Ok(r), None) => r.status == 304 && r.body.is_empty(),
                                        (Err(_), _) => false,
                                    };
                                    (p.class, latency, ok)
                                })
                                .collect::<Vec<_>>()
                        })
                    });
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("client thread panicked"))
                        .collect::<Vec<_>>()
                })
            });
            for (class, latency, ok) in results {
                out.check(ok, &format!("{class:?} request got a wrong response"));
                tally.latencies.push((class, latency));
            }
            tally.batch_walls.push(wall);
            clock.sample_rss();
            clock.tick();
            tally.hot += (size - cold_n - reval_n) as u64;
            tally.cold += cold_n as u64;
            *next_batch += 1;
            batches += 1;
            if let Some((daemon, client, _)) = clock.resample_setup(|| start_warm(*hot_params))? {
                drop(client);
                daemon.stop()?;
            }
        }
        Ok(())
    }
}

fn class_latencies(tally: &Tally, class: Class) -> Vec<f64> {
    tally
        .latencies
        .iter()
        .filter(|(c, _)| *c == class)
        .map(|&(_, t)| t)
        .collect()
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let hot_params = ExperimentParams {
        instructions: cfg.pick(20_000, 2_000),
        seed: cfg.seed,
    };
    let mut out = Outcome::default();
    let mut clock = HostClock::new();
    let (daemon, warm_client, etags) = clock.setup(|| start_warm(hot_params))?;
    let addr = daemon.server.local_addr();
    let mut traffic = Mix {
        cfg,
        hot_params,
        hot_refs: HOT.iter().map(|id| direct_render(id, hot_params)).collect(),
        etags,
        clients: [warm_client, Client::new(addr)],
        clock,
        tally: Tally::default(),
        next_batch: 0,
    };
    let untraced_seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    traffic.drive(untraced_seconds, &mut out)?;
    let untraced_batches = traffic.tally.batch_walls.len();

    let mut traced_wall = None;
    if cfg.trace {
        traffic.drive(cfg.seconds / 2.0, &mut out)?;
        traced_wall = Some(median(&traffic.tally.batch_walls[untraced_batches..]));
    }

    // Every lookup is accounted for: warming misses once per hot key
    // and hits its two other formats; batches hit hot keys and miss
    // cold ones; revalidations never reach the cache.
    let [hits, misses, coalesced] = cache_counters(&mut traffic.clients[0])?;
    let Mix {
        clients,
        clock,
        tally,
        ..
    } = traffic;
    let warm = HOT.len() as u64;
    out.check(
        hits == 2 * warm + tally.hot && misses == warm + tally.cold && coalesced == 0,
        "cache counters differ from the request plan",
    );
    drop(clients);
    daemon.stop()?;

    let hot = class_latencies(&tally, Class::Hot);
    let reval = class_latencies(&tally, Class::Revalidate);
    let cold = class_latencies(&tally, Class::Cold);
    let requests = tally.latencies.len();
    let d = &mut out.detail;
    clock.record(d, &tally.batch_walls[..untraced_batches]);
    d.num("batch_requests", cfg.pick(400, 40));
    d.num("hot_instructions", hot_params.instructions);
    d.num("cold_instructions", cfg.pick(10_000, 1_000));
    d.num("hot_n", hot.len());
    d.num("revalidate_n", reval.len());
    d.num("cold_n", cold.len());
    d.num("hot_p50_us", quantile(&hot, 0.5) * 1e6);
    d.num("hot_p99_us", quantile(&hot, 0.99) * 1e6);
    d.num("revalidate_p50_us", quantile(&reval, 0.5) * 1e6);
    d.num("cold_p50_ms", quantile(&cold, 0.5) * 1e3);
    d.num("cold_p90_ms", quantile(&cold, 0.9) * 1e3);
    d.num(
        "serve_rps",
        requests as f64 / tally.batch_walls.iter().sum::<f64>(),
    );
    d.num("cache.hits", hits);
    d.num("cache.misses", misses);
    d.num("cache.coalesced", coalesced);

    if !cfg.trace {
        clock.set_end_to_end(&mut out.metrics, &tally.batch_walls);
        return Ok(out);
    }

    layers::suite(cfg, Regime::Hp, &mut out)?;
    let m = &mut out.metrics;
    let compute_ms = median(&tally.compute_s) * 1e3;
    m.set("serve.compute_ms", compute_ms, "ms");
    set_cache_counts(m, hits, misses, coalesced);
    // Coverage: parse, lookup and compute, each timed on its own,
    // against the latency the clients saw.
    let accounted_ns = requests as f64 * m.get("http.parse_ns").unwrap_or(0.0)
        + hot.len() as f64 * m.get("serve.cache_lookup_ns").unwrap_or(0.0)
        + cold.len() as f64 * compute_ms * 1e6;
    let seen_ns: f64 = tally.latencies.iter().map(|&(_, t)| t * 1e9).sum();
    m.set("trace.coverage_share", accounted_ns / seen_ns, "ratio");
    let wall = median(&tally.batch_walls[..untraced_batches]);
    m.set(
        "trace.overhead_s",
        (traced_wall.unwrap_or(wall) - wall) * clock.speed(),
        "s",
    );
    Ok(out)
}
