//! Known-violation fixture: the `determinism` rule.

use std::collections::HashMap;
use std::time::Instant;

/// Reads ambient state three different ways.
pub fn naughty() -> u64 {
    let t = Instant::now();
    let m: HashMap<u32, u32> = HashMap::new();
    let home = std::env::var("HOME");
    t.elapsed().subsec_nanos() as u64 + m.len() as u64 + home.iter().count() as u64
}

/// Process-global mutable state.
static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A write-once registry of `'static` names is not mutable state.
static NAMES: std::sync::OnceLock<Vec<&'static str>> = std::sync::OnceLock::new();
