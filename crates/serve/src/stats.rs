//! Request/response counters and the `GET /stats` document.
//!
//! This file is a `counter-files` module in `lint.toml`, so the
//! `counter-hygiene` rule is armed here: every counter is an exact
//! `u64` end to end — no narrowing casts, no float accumulation.
//! Uptime is therefore reported as integer milliseconds (converted by
//! the caller, who owns the wall clock; this module never reads one).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::cache::CacheCounters;

/// Monotonic service counters, bumped lock-free by the workers.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Accepted connections.
    pub connections: AtomicU64,
    /// Requests parsed (including ones answered with an error).
    pub requests: AtomicU64,
    /// 200 responses.
    pub status_200: AtomicU64,
    /// 304 responses (`If-None-Match` revalidations).
    pub status_304: AtomicU64,
    /// 400 responses.
    pub status_400: AtomicU64,
    /// 404 responses.
    pub status_404: AtomicU64,
    /// 405 responses.
    pub status_405: AtomicU64,
    /// Responses with any 5xx status.
    pub status_5xx: AtomicU64,
}

impl ServerCounters {
    /// Records one response with the given status code.
    pub fn record_response(&self, status: u16) {
        let counter = match status {
            200 => &self.status_200,
            304 => &self.status_304,
            400 => &self.status_400,
            404 => &self.status_404,
            405 => &self.status_405,
            500..=599 => &self.status_5xx,
            _ => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of every counter the daemon exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Accepted connections.
    pub connections: u64,
    /// Requests parsed.
    pub requests: u64,
    /// 200 responses.
    pub status_200: u64,
    /// 304 responses.
    pub status_304: u64,
    /// 400 responses.
    pub status_400: u64,
    /// 404 responses.
    pub status_404: u64,
    /// 405 responses.
    pub status_405: u64,
    /// 5xx responses.
    pub status_5xx: u64,
    /// The result-cache counters.
    pub cache: CacheCounters,
}

impl StatsSnapshot {
    /// Reads `counters` (relaxed; the snapshot is advisory, not a
    /// synchronization point) and attaches the cache counters.
    pub fn capture(uptime_ms: u64, counters: &ServerCounters, cache: CacheCounters) -> Self {
        StatsSnapshot {
            uptime_ms,
            connections: counters.connections.load(Ordering::Relaxed),
            requests: counters.requests.load(Ordering::Relaxed),
            status_200: counters.status_200.load(Ordering::Relaxed),
            status_304: counters.status_304.load(Ordering::Relaxed),
            status_400: counters.status_400.load(Ordering::Relaxed),
            status_404: counters.status_404.load(Ordering::Relaxed),
            status_405: counters.status_405.load(Ordering::Relaxed),
            status_5xx: counters.status_5xx.load(Ordering::Relaxed),
            cache,
        }
    }

    /// Serializes the snapshot as the `GET /stats` JSON document
    /// (hand-rolled like every other renderer in the workspace;
    /// integer-only, so no reader ever sees a rounded counter).
    pub fn to_json(&self) -> String {
        let c = &self.cache;
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"hyvec-serve-stats/v1\",\n");
        out.push_str(&format!("  \"uptime_ms\": {},\n", self.uptime_ms));
        out.push_str(&format!("  \"connections\": {},\n", self.connections));
        out.push_str(&format!("  \"requests\": {},\n", self.requests));
        out.push_str(&format!(
            "  \"responses\": {{\"status_200\": {}, \"status_304\": {}, \"status_400\": {}, \"status_404\": {}, \"status_405\": {}, \"status_5xx\": {}}},\n",
            self.status_200,
            self.status_304,
            self.status_400,
            self.status_404,
            self.status_405,
            self.status_5xx
        ));
        out.push_str(&format!(
            "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"coalesced\": {}, \"evictions\": {}, \"oversize\": {}, \"entries\": {}, \"bytes\": {}, \"capacity_bytes\": {}}}\n",
            c.hits, c.misses, c.coalesced, c.evictions, c.oversize, c.entries, c.bytes, c.capacity_bytes
        ));
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_response_routes_by_status() {
        let counters = ServerCounters::default();
        for status in [200, 200, 304, 404, 405, 500, 503] {
            counters.record_response(status);
        }
        let snap = StatsSnapshot::capture(12, &counters, CacheCounters::default());
        assert_eq!(snap.status_200, 2);
        assert_eq!(snap.status_304, 1);
        assert_eq!(snap.status_400, 0);
        assert_eq!(snap.status_404, 1);
        assert_eq!(snap.status_405, 1);
        assert_eq!(snap.status_5xx, 2, "every 5xx is counted");
        assert_eq!(snap.uptime_ms, 12);
    }

    #[test]
    fn stats_json_carries_every_counter() {
        let counters = ServerCounters::default();
        counters.requests.fetch_add(3, Ordering::Relaxed);
        let cache = CacheCounters {
            hits: 2,
            misses: 1,
            capacity_bytes: 64,
            ..CacheCounters::default()
        };
        let json = StatsSnapshot::capture(7, &counters, cache).to_json();
        assert!(json.contains("\"schema\": \"hyvec-serve-stats/v1\""));
        assert!(json.contains("\"uptime_ms\": 7"));
        assert!(json.contains("\"requests\": 3"));
        assert!(json.contains("\"hits\": 2, \"misses\": 1"));
        assert!(json.contains("\"capacity_bytes\": 64"));
        for key in ["status_304", "status_5xx"] {
            assert!(json.contains(&format!("\"{key}\": 0")), "{key}");
        }
    }
}
