//! Loop-based reference encoders and decoders, retained for
//! equivalence testing.
//!
//! The production paths in [`hsiao`](crate::hsiao) and
//! [`bch`](crate::bch) are table-driven: byte-sliced lookups for the
//! check bits and syndromes, then one lookup to classify the syndrome.
//! This module keeps the original loops:
//!
//! * the row-mask kernels, one [`parity64`] per output bit over the
//!   masks of `H`'s rows ([`hsiao_checks`], [`hsiao_syndrome`],
//!   [`dected_checks`], [`dected_syndromes`]);
//! * the per-bit decoders, a linear column scan for Hsiao and per-set-bit
//!   GF(64) polynomial evaluation plus on-the-fly key-equation
//!   arithmetic for DECTED ([`hsiao_decode`], [`dected_decode`]).
//!
//! The test suites assert, word by word and corruption pattern by
//! corruption pattern, that the tables reproduce the loops bit for bit.
//! Nothing on the simulator's hot path calls into this module.

use crate::bch::{DectedCode, BCH_PARITY_BITS};
use crate::gf64::{Gf64, FIELD_SIZE};
use crate::hsiao::{HsiaoCode, CHECK_BITS as HSIAO_CHECK_BITS};
use crate::parity::parity64;
use crate::{mask_low, Decoded, EdcCode};

/// The row masks of a parity-check matrix given column by column: bit
/// `i` of mask `j` is bit `j` of `columns[i]`.
fn row_masks<const ROWS: usize>(columns: impl Iterator<Item = u64>) -> [u64; ROWS] {
    let mut masks = [0u64; ROWS];
    for (i, col) in columns.enumerate() {
        for (j, mask) in masks.iter_mut().enumerate() {
            *mask |= (col >> j & 1) << i;
        }
    }
    masks
}

/// One parity per row mask: bit `j` of the result is the parity of
/// `word & masks[j]`.
fn row_parities(masks: &[u64], word: u64) -> u64 {
    masks.iter().enumerate().fold(0, |acc, (j, &mask)| {
        acc | u64::from(parity64(word & mask)) << j
    })
}

/// The 7 Hsiao check bits of `data`, one row-mask parity per check bit.
pub fn hsiao_checks(code: &HsiaoCode, data: u64) -> u8 {
    let k = code.data_bits();
    let masks: [u64; HSIAO_CHECK_BITS] = row_masks((0..k).map(|i| u64::from(code.column(i))));
    row_parities(&masks, mask_low(data, k)) as u8
}

/// The Hsiao syndrome of `word`: its recomputed check bits XOR the
/// received ones.
pub fn hsiao_syndrome(code: &HsiaoCode, word: u64) -> u8 {
    let received = (word >> code.data_bits()) as u8 & 0x7F;
    hsiao_checks(code, word) ^ received
}

/// The 13 DECTED check bits of `data`, packed as
/// [`DectedCode::checks`] packs them: 12 BCH row-mask parities, then
/// the overall parity of the BCH word.
pub fn dected_checks(code: &DectedCode, data: u64) -> u16 {
    let k = code.data_bits();
    let data = mask_low(data, k);
    let masks: [u64; BCH_PARITY_BITS] = row_masks((0..k).map(|i| u64::from(code.column(i))));
    let bch_parity = row_parities(&masks, data);
    let overall = parity64(data << BCH_PARITY_BITS | bch_parity);
    (bch_parity | u64::from(overall) << BCH_PARITY_BITS) as u16
}

/// `(S1, S3, odd overall parity)` of a received DECTED codeword, as
/// [`DectedCode::syndromes`] returns them: each syndrome bit is one
/// row-mask parity over the BCH part, whose column `i` is `alpha^i`
/// (S1) or `alpha^3i` (S3).
pub fn dected_syndromes(code: &DectedCode, word: u64) -> (Gf64, Gf64, bool) {
    let bch_len = BCH_PARITY_BITS + code.data_bits();
    let bch_rx = mask_low(word, bch_len);
    let s1: [u64; 6] = row_masks((0..bch_len).map(|i| u64::from(Gf64::alpha_pow(i).value())));
    let s3: [u64; 6] = row_masks((0..bch_len).map(|i| u64::from(Gf64::alpha_pow(3 * i).value())));
    let odd = parity64(mask_low(word, code.total_bits())) == 1;
    (
        Gf64::new(row_parities(&s1, bch_rx) as u8),
        Gf64::new(row_parities(&s3, bch_rx) as u8),
        odd,
    )
}

/// Decodes `word` with the original loop-based Hsiao SECDED decoder:
/// the syndrome is accumulated bit by bit from the `H`-matrix columns
/// and the error position located by a linear scan over the data
/// columns.
pub fn hsiao_decode(code: &HsiaoCode, word: u64) -> Decoded {
    let k = code.data_bits();
    let data = mask_low(word, k);
    // Per-bit syndrome accumulation: XOR the column of every set
    // codeword bit (data and check alike).
    let mut syndrome = 0u8;
    for i in 0..k + HSIAO_CHECK_BITS {
        if word & (1u64 << i) != 0 {
            syndrome ^= code.column(i);
        }
    }
    if syndrome == 0 {
        return Decoded::Clean { data };
    }
    if syndrome.count_ones() % 2 == 1 {
        // Odd-weight syndrome: single-bit error at the matching
        // column (possibly in the check bits, leaving data intact).
        if let Some(pos) = (0..k).find(|&i| code.column(i) == syndrome) {
            return Decoded::Corrected {
                data: data ^ (1u64 << pos),
                errors: 1,
            };
        }
        if syndrome.count_ones() == 1 {
            return Decoded::Corrected { data, errors: 1 };
        }
        // Odd syndrome matching no column: at least 3 errors.
        return Decoded::Detected { errors_at_least: 3 };
    }
    // Even-weight nonzero syndrome: double error, uncorrectable.
    Decoded::Detected { errors_at_least: 2 }
}

/// Evaluates the polynomial with GF(2) coefficients packed in `poly`
/// at `x`, looping over the set bits with one `pow` each — the
/// original syndrome computation.
fn eval_poly_loop(poly: u64, x: Gf64) -> Gf64 {
    let mut acc = Gf64::ZERO;
    let mut bits = poly;
    while bits != 0 {
        let i = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        acc = acc + x.pow(i);
    }
    acc
}

/// Solves `y^2 + y = c` by brute force over the 64 field elements —
/// the original search the table-driven `Gf64::solve_quadratic`
/// replaced.
fn solve_quadratic_search(c: Gf64) -> Option<Gf64> {
    (0..FIELD_SIZE as u8)
        .map(Gf64::new)
        .find(|&y| y * y + y == c)
}

/// Locates two errors from syndromes `(s1, s3)` with on-the-fly field
/// arithmetic (key equation plus brute-force quadratic search).
fn locate_double_loop(code: &DectedCode, s1: Gf64, s3: Gf64) -> Option<(usize, usize)> {
    let bch_bits = BCH_PARITY_BITS + code.data_bits();
    if s1.is_zero() {
        // X1 + X2 = 0 would need X1 == X2: impossible for two
        // distinct positions.
        return None;
    }
    // Product of the locators: X1*X2 = (S3 + S1^3) / S1.
    let prod = (s3 + s1.pow(3)) / s1;
    if prod.is_zero() {
        return None;
    }
    // x^2 + S1 x + prod = 0; substitute x = S1 y: y^2 + y = prod/S1^2.
    let c = prod / (s1 * s1);
    let y0 = solve_quadratic_search(c)?;
    let x1 = s1 * y0;
    let x2 = s1 * (y0 + Gf64::ONE);
    if x1.is_zero() || x2.is_zero() || x1 == x2 {
        return None;
    }
    // hyvec-lint: allow(no-panic, "x1 and x2 are checked nonzero on the previous line, so log() is defined")
    let p1 = x1.log().expect("nonzero");
    // hyvec-lint: allow(no-panic, "x1 and x2 are checked nonzero on the previous line, so log() is defined")
    let p2 = x2.log().expect("nonzero");
    // Shortened code: positions beyond the transmitted length are
    // known-zero and cannot be in error.
    if p1 >= bch_bits || p2 >= bch_bits {
        return None;
    }
    Some((p1.min(p2), p1.max(p2)))
}

/// Decodes `word` with the original loop-based DECTED decoder: both
/// syndromes evaluated term by term, the double-error locator solved
/// with live GF(64) arithmetic instead of the precomputed
/// syndrome→locator table.
pub fn dected_decode(code: &DectedCode, word: u64) -> Decoded {
    let bch_len = BCH_PARITY_BITS + code.data_bits();
    let bch_rx = mask_low(word, bch_len);
    let parity_rx = (word >> bch_len) & 1;
    let parity_mismatch = u64::from(parity64(bch_rx)) != parity_rx;

    let s1 = eval_poly_loop(bch_rx, Gf64::ALPHA);
    let s3 = eval_poly_loop(bch_rx, Gf64::ALPHA.pow(3));

    let extract = |bch: u64| mask_low(bch >> BCH_PARITY_BITS, code.data_bits());

    if s1.is_zero() && s3.is_zero() {
        return if parity_mismatch {
            // The overall parity bit itself flipped.
            Decoded::Corrected {
                data: extract(bch_rx),
                errors: 1,
            }
        } else {
            Decoded::Clean {
                data: extract(bch_rx),
            }
        };
    }

    if parity_mismatch {
        // Odd number of errors: try single-error correction.
        if !s1.is_zero() && s3 == s1.pow(3) {
            // hyvec-lint: allow(no-panic, "guarded by the !s1.is_zero() check in the enclosing condition")
            let pos = s1.log().expect("nonzero");
            if pos < bch_len {
                return Decoded::Corrected {
                    data: extract(bch_rx ^ (1u64 << pos)),
                    errors: 1,
                };
            }
        }
        // Three (or more, odd) errors: detected, uncorrectable.
        return Decoded::Detected { errors_at_least: 3 };
    }

    // Even number of errors with nonzero syndrome.
    if !s1.is_zero() && s3 == s1.pow(3) {
        // One BCH error plus one flip of the overall parity bit.
        // hyvec-lint: allow(no-panic, "guarded by the !s1.is_zero() check in the enclosing condition")
        let pos = s1.log().expect("nonzero");
        if pos < bch_len {
            return Decoded::Corrected {
                data: extract(bch_rx ^ (1u64 << pos)),
                errors: 2,
            };
        }
        return Decoded::Detected { errors_at_least: 4 };
    }
    if let Some((p1, p2)) = locate_double_loop(code, s1, s3) {
        return Decoded::Corrected {
            data: extract(bch_rx ^ (1u64 << p1) ^ (1u64 << p2)),
            errors: 2,
        };
    }
    // Even, nonzero, not a valid double: at least four errors.
    Decoded::Detected { errors_at_least: 4 }
}
