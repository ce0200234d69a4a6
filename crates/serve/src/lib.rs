//! # hyvec-serve — the HTTP sweep service
//!
//! Turns the batch CLI into a long-running daemon: a hand-rolled
//! HTTP/1.1 server over [`std::net::TcpListener`] (the build
//! environment is offline — same zero-dependency discipline as the
//! hand-rolled JSON/CSV renderers in `hyvec_core::render`) that
//! serves any registered experiment on demand in any render format,
//! backed by a content-addressed result cache.
//!
//! Every report is a pure function of (artifact, scenario, seed,
//! instructions, config), so a response is infinitely cacheable under
//! a stable fingerprint of those inputs and `run-all` becomes a
//! cache-warming pass (`--warm`). Concurrent identical requests
//! compute once (single-flight); the cache is byte-size-bounded with
//! LRU eviction; and a served body is byte-identical to the CLI
//! renderer's output for the same parameters — the loopback tests pin
//! all three properties.
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `GET /experiments` | machine-readable registry index (identical bytes to `hyvec list --format json`) |
//! | `GET /report/<artifact>/<scenario>?seed=&instructions=&format=` | one experiment's report, `text`/`json`/`csv`; `instructions` at most [`MAX_REPORT_INSTRUCTIONS`] |
//! | `GET /healthz` | liveness probe |
//! | `GET /stats` | request/response/cache counters + uptime |
//! | `POST /shutdown` | graceful stop |
//!
//! Module map: [`http`] owns the wire format, [`cache`] the
//! content-addressed single-flight LRU store, [`stats`] the counters,
//! [`server`] the listener, the workers that each accept their own
//! connections, and the router.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod server;
pub mod stats;

pub use cache::{report_fingerprint, RenderSet, ResultCache, CONFIG_REVISION};
pub use server::{ServeConfig, ServeError, SweepServer, MAX_REPORT_INSTRUCTIONS, SERVE_USAGE};
