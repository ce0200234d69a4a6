//! Pinned digests of the correctness gates for seeds 0 to 15, at the
//! full (non-smoke) budgets, taken from the unmodified simulator (seed
//! 1's run-all digests equal those of `hyvec run-all --format
//! text|json|csv`). Any other seed is gated against an oracle computed
//! in the run instead: a serial sweep for run-all, the generators fed
//! straight into a fresh machine for the replays.

use crate::replay::Regime;

/// FNV-1a of the run-all text, json and csv renders, by seed.
const RUNALL: [(u64, [u64; 3]); 16] = [
    (
        0,
        [0xde87d22ba3ebe001, 0xfbd08a37507dda3d, 0xa974ff0feeda7ab0],
    ),
    (
        1,
        [0x7b4a589302183e73, 0x6b38b36c9bb0c144, 0xc6e7f11e68a2329a],
    ),
    (
        2,
        [0x3f46439e374558f8, 0xba8cc668837ad0e5, 0x3bcf9114e14d34fb],
    ),
    (
        3,
        [0x48f24b0a4d47423c, 0xb0c3146d34cf5039, 0xc99de0c39a88a7fd],
    ),
    (
        4,
        [0x27a124a46988086e, 0x6a6690bbe588fd73, 0x341866149b83d836],
    ),
    (
        5,
        [0x3d3781777bda4cce, 0xf012d4c6c89e13dc, 0xad1459d093a92ce9],
    ),
    (
        6,
        [0x60013fe621d87917, 0x2aa030fbef1dca7b, 0x3722be637320e774],
    ),
    (
        7,
        [0x3e76a5c51970a2b9, 0x9f7957aa3860be5a, 0x95452d6e6cecabd1],
    ),
    (
        8,
        [0x252f38c4244030d6, 0x436a7f0f06026fd8, 0x958c8e74a38f954a],
    ),
    (
        9,
        [0xe5e1ee13664eb25c, 0x0cff5bc507c3b190, 0x843069e3a0614db2],
    ),
    (
        10,
        [0x7d8b8b58cf689949, 0x8f6743e819794e7a, 0x978c8886bdae585a],
    ),
    (
        11,
        [0xbd6c546431c6803d, 0xa916756c3ab8043b, 0xbe39e7df01e0f7e4],
    ),
    (
        12,
        [0xacbc36fb2412e284, 0xd4cea71ec83129b0, 0x2eab1c353a9162e6],
    ),
    (
        13,
        [0xbb2931c81a9456b5, 0xb7ad9c1973425de8, 0x969c9240f22ed327],
    ),
    (
        14,
        [0xbabcd1d973e11f56, 0x15daa68b2c4334a4, 0xee2144c75a8535ed],
    ),
    (
        15,
        [0xacf7e4b7570f06b2, 0x838670f932c9806d, 0xf2c3e409ea756585],
    ),
];

/// `replay::stats_digest` of the HP replay, by seed.
const REPLAY_HP: [(u64, u64); 16] = [
    (0, 0x6351388ba2b5cabc),
    (1, 0xd12cb2efbc01e7d4),
    (2, 0xa6d4706c7e555623),
    (3, 0x9e341b851bcabe26),
    (4, 0x03e5a997fe18e4b7),
    (5, 0x8e715c9491b7ae88),
    (6, 0xd0d0af76b0eecbd4),
    (7, 0x1851cc52bf7bf607),
    (8, 0xb3bbb259394578a5),
    (9, 0x0f9ecb68528aca97),
    (10, 0xb13db24de5865aee),
    (11, 0xe9bfdb32a72ce4bb),
    (12, 0x74ec1135cc81d783),
    (13, 0x0f83bf46cb9c450d),
    (14, 0x3adb392e7b1bab3b),
    (15, 0xf1d6b52bf2a98230),
];

/// `replay::stats_digest` of the ULE-faulty replay, by seed.
const REPLAY_ULE_FAULTY: [(u64, u64); 16] = [
    (0, 0x8cf0ab63c341981d),
    (1, 0x8e288e6bcb9740db),
    (2, 0xb97b099dc353fe38),
    (3, 0x020aca2e2726cac5),
    (4, 0x6b3a2ea27814ba19),
    (5, 0x08d6eff9cbfa7cbb),
    (6, 0x3fadcf9e7dae95dc),
    (7, 0xa95f8e6f2af3cc52),
    (8, 0x04df943cda0f9bb1),
    (9, 0x4f5baa02d14067e1),
    (10, 0xcf0804e1b892146a),
    (11, 0xb5e1b48cd634064b),
    (12, 0xcf91e709ebe791b6),
    (13, 0x0ba840917c8ffd1a),
    (14, 0xc24e18da0b90d359),
    (15, 0xc50f49de051add02),
];

pub fn runall(seed: u64) -> Option<[u64; 3]> {
    RUNALL.iter().find(|(s, _)| *s == seed).map(|&(_, d)| d)
}

pub fn replay(regime: Regime, seed: u64) -> Option<u64> {
    let table: &[(u64, u64)] = match regime {
        Regime::Hp => &REPLAY_HP,
        Regime::UleFaulty => &REPLAY_ULE_FAULTY,
    };
    table.iter().find(|(s, _)| *s == seed).map(|&(_, d)| d)
}
