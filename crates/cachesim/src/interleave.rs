//! The canonical instruction order of a multi-core run (test-only).
//!
//! N independent trace sources become one stream of `(core, entry)`
//! pairs by round-robin at instruction granularity: one entry from
//! core 0, one from core 1, ..., wrapping around, a core dropping out
//! of the rotation when its source ends, until every source is
//! drained. The engine's epoch merge replays exactly this order; the
//! multi-core reference in `multicore.rs` follows it instruction by
//! instruction.

use hyvec_mediabench::{TraceEntry, TraceSource};

/// The round-robin order of `sources` as `(core, entry)` pairs.
pub(crate) fn round_robin<T: TraceSource>(
    mut sources: Vec<T>,
) -> impl Iterator<Item = (usize, TraceEntry)> {
    let mut live: Vec<usize> = (0..sources.len()).collect();
    let mut turn = 0;
    std::iter::from_fn(move || {
        while !live.is_empty() {
            turn %= live.len();
            let core = live[turn];
            match sources[core].next_entry() {
                Some(entry) => {
                    turn += 1;
                    return Some((core, entry));
                }
                None => {
                    live.remove(turn);
                }
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyvec_mediabench::Replay;

    fn replays(texts: &[&str]) -> Vec<Replay> {
        texts
            .iter()
            .map(|text| Replay::from_text(text).expect("well-formed source"))
            .collect()
    }

    #[test]
    fn round_robin_rotates_and_drains() {
        let sources = replays(&["10\n14\n18\n", "20\n", "30\n34\n"]);
        let tagged: Vec<(usize, u64)> =
            round_robin(sources).map(|(core, e)| (core, e.pc)).collect();
        // Full first round, then source 1 drops out, then source 2.
        assert_eq!(
            tagged,
            [
                (0, 0x10),
                (1, 0x20),
                (2, 0x30),
                (0, 0x14),
                (2, 0x34),
                (0, 0x18),
            ]
        );
    }

    #[test]
    fn empty_width_yields_nothing() {
        assert_eq!(round_robin(Vec::<Replay>::new()).next(), None);
        // Sources that are empty from the start leave nothing either.
        assert_eq!(round_robin(replays(&["", ""])).next(), None);
    }
}
