//! Hsiao single-error-correcting, double-error-detecting (SECDED) codes.
//!
//! Hsiao's optimal odd-weight-column construction (Chen & Hsiao, IBM JRD
//! 1984 — the paper's reference 5) builds the parity-check matrix `H`
//! from distinct odd-weight columns:
//!
//! * every single-bit error produces a nonzero, **odd**-weight syndrome
//!   equal to that bit's column, so it can be located and corrected;
//! * every double-bit error produces a nonzero, **even**-weight syndrome
//!   (the XOR of two odd-weight columns), so it is always detected and
//!   never mis-corrected.
//!
//! With 7 check bits there are `C(7,3) + C(7,5) + C(7,7) = 57` usable
//! odd-weight columns beyond the weight-1 identity columns reserved for
//! the check bits, so any data width up to 57 bits is supported — the
//! paper uses 32-bit data words (39,32) and 26-bit tag words (33,26),
//! both with 7 check bits.
//!
//! Columns are chosen lowest-weight-first and greedily balanced across
//! rows, which is Hsiao's optimization for minimizing the depth and
//! fan-in of the encoder/decoder XOR trees.
//!
//! Both directions are table-driven. The 7 check bits of a data word
//! are one 256-entry table lookup per data byte (4 for a 32-bit word),
//! XORed together; the syndrome is those check bits XOR the received
//! ones; and decoding classifies the syndrome with a single lookup in a
//! 128-entry syndrome→action table. All tables are built at
//! construction, and [`HsiaoCode::shared`] builds each width once per
//! process. The row-mask parity loops and the per-bit column-scan
//! decoder survive in [`reference`](crate::reference), used only by the
//! equivalence test suites.

use std::sync::OnceLock;

use crate::parity::{xor_tree_gates, LinearMap};
use crate::{mask_low, shared_code, BuildCodeError, Decoded, EdcCode};

/// Check bits used by this SECDED family (fixed at 7, as in the paper).
pub const CHECK_BITS: usize = 7;

/// Maximum supported data width: the number of odd-weight 7-bit columns
/// of weight ≥ 3.
pub const MAX_DATA_BITS: usize = 57;

/// A Hsiao SECDED code for data words of `k <= 57` bits with 7 check
/// bits.
///
/// Codeword layout: data bits in positions `0..k`, check bits in
/// positions `k..k+7`.
///
/// # Example
///
/// ```
/// use hyvec_edc::{EdcCode, HsiaoCode, Decoded};
///
/// let code = HsiaoCode::secded26(); // tag words
/// let cw = code.encode(0x3FF_FFFF);
/// assert_eq!(code.decode(cw), Decoded::Clean { data: 0x3FF_FFFF });
/// ```
#[derive(Debug, Clone)]
pub struct HsiaoCode {
    data_bits: usize,
    /// For each data bit `i`, its 7-bit column of `H` (the syndrome a
    /// single error at `i` produces).
    columns: Vec<u8>,
    /// Data word → its 7 check bits, byte-sliced.
    check_map: LinearMap<u8>,
    /// Decode action for each of the 128 possible syndromes (see the
    /// `SYN_*` constants): a data-bit position to flip, a check-bit
    /// error leaving data intact, or a detected multi-bit error.
    syndrome_table: [u8; 1 << CHECK_BITS],
}

/// `syndrome_table` entry: the error is in a check bit — data intact.
const SYN_CHECK: u8 = 0x80;
/// `syndrome_table` entry: even-weight syndrome — double error.
const SYN_DOUBLE: u8 = 0x81;
/// `syndrome_table` entry: odd syndrome matching no column — at least
/// a triple error.
const SYN_TRIPLE: u8 = 0x82;

impl HsiaoCode {
    /// Builds a Hsiao SECDED code for `data_bits`-bit words.
    ///
    /// # Errors
    ///
    /// Returns [`BuildCodeError`] if `data_bits` is 0 or exceeds
    /// [`MAX_DATA_BITS`].
    pub fn new(data_bits: usize) -> Result<Self, BuildCodeError> {
        if data_bits == 0 || data_bits > MAX_DATA_BITS {
            return Err(BuildCodeError {
                data_bits,
                max_data_bits: MAX_DATA_BITS,
            });
        }
        let columns = select_columns(data_bits);
        let check_map = LinearMap::new(data_bits, |i| columns[i]);
        let mut syndrome_table = [SYN_TRIPLE; 1 << CHECK_BITS];
        for (syndrome, entry) in syndrome_table.iter_mut().enumerate().skip(1) {
            if syndrome.count_ones() % 2 == 0 {
                *entry = SYN_DOUBLE;
            } else if let Some(pos) = columns.iter().position(|&c| c == syndrome as u8) {
                *entry = pos as u8;
            } else if syndrome.count_ones() == 1 {
                *entry = SYN_CHECK;
            }
        }
        Ok(HsiaoCode {
            data_bits,
            columns,
            check_map,
            syndrome_table,
        })
    }

    /// The process-wide code for `data_bits`-bit words, built on first
    /// use and never mutated, so every cache of every concurrent sweep
    /// can share it.
    ///
    /// # Errors
    ///
    /// Returns [`BuildCodeError`] if `data_bits` is 0 or exceeds
    /// [`MAX_DATA_BITS`].
    pub fn shared(data_bits: usize) -> Result<&'static HsiaoCode, BuildCodeError> {
        static CODES: [OnceLock<HsiaoCode>; MAX_DATA_BITS] =
            [const { OnceLock::new() }; MAX_DATA_BITS];
        shared_code(&CODES, data_bits, HsiaoCode::new)
    }

    /// The (39,32) code protecting 32-bit data words, as used for cache
    /// data in the paper.
    pub fn secded32() -> Self {
        // hyvec-lint: allow(no-panic, "constant width 32 is within MAX_DATA_BITS = 57")
        HsiaoCode::new(32).expect("32 <= 57")
    }

    /// The (33,26) code protecting 26-bit tag words, as used for cache
    /// tags in the paper.
    pub fn secded26() -> Self {
        // hyvec-lint: allow(no-panic, "constant width 26 is within MAX_DATA_BITS = 57")
        HsiaoCode::new(26).expect("26 <= 57")
    }

    /// Computes the 7 check bits for `data`; bits above `data_bits()`
    /// are ignored.
    #[inline]
    pub fn checks(&self, data: u64) -> u8 {
        self.check_map.apply(data)
    }

    /// Computes the syndrome of a received codeword: 0 when consistent.
    /// Bits above `total_bits()` are ignored.
    #[inline]
    pub fn syndrome(&self, word: u64) -> u8 {
        let received_checks = (word >> self.data_bits) as u8 & 0x7F;
        self.checks(word) ^ received_checks
    }

    /// How many data bits feed each check bit's XOR tree (the ones in
    /// each row of `H`'s data part).
    fn row_weights(&self) -> [usize; CHECK_BITS] {
        std::array::from_fn(|j| self.columns.iter().filter(|&&c| c >> j & 1 == 1).count())
    }

    /// The `H`-matrix column (syndrome signature) of codeword bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= total_bits()`.
    pub fn column(&self, i: usize) -> u8 {
        if i < self.data_bits {
            self.columns[i]
        } else if i < self.data_bits + CHECK_BITS {
            1 << (i - self.data_bits)
        } else {
            // hyvec-lint: allow(no-panic, "documented precondition: every caller iterates 0..total_bits(); an out-of-range index is a decoder bug")
            panic!(
                "bit index {i} out of range for {}-bit codeword",
                self.total_bits()
            );
        }
    }
}

impl EdcCode for HsiaoCode {
    fn data_bits(&self) -> usize {
        self.data_bits
    }

    fn check_bits(&self) -> usize {
        CHECK_BITS
    }

    #[inline]
    fn encode(&self, data: u64) -> u64 {
        mask_low(data, self.data_bits) | (u64::from(self.checks(data)) << self.data_bits)
    }

    #[inline]
    fn decode(&self, word: u64) -> Decoded {
        let syndrome = self.syndrome(word);
        let data = mask_low(word, self.data_bits);
        if syndrome == 0 {
            return Decoded::Clean { data };
        }
        // One table lookup classifies the syndrome: data-bit position
        // (odd weight, matching column), check-bit error (data
        // intact), double error, or ≥3 errors.
        match self.syndrome_table[syndrome as usize] {
            SYN_CHECK => Decoded::Corrected { data, errors: 1 },
            SYN_DOUBLE => Decoded::Detected { errors_at_least: 2 },
            SYN_TRIPLE => Decoded::Detected { errors_at_least: 3 },
            pos => Decoded::Corrected {
                data: data ^ (1u64 << pos),
                errors: 1,
            },
        }
    }

    fn encoder_xor_gates(&self) -> usize {
        self.row_weights().into_iter().map(xor_tree_gates).sum()
    }

    fn decoder_xor_gates(&self) -> usize {
        // Syndrome generation re-XORs the stored check bit into each
        // encoder tree, plus roughly one gate-equivalent per codeword bit
        // for the column-match correction logic.
        let syndrome: usize = self
            .row_weights()
            .into_iter()
            .map(|w| xor_tree_gates(w + 1))
            .sum();
        syndrome + self.total_bits()
    }
}

/// Selects `k` odd-weight 7-bit columns, lowest weight first, greedily
/// balancing the per-row load as in Hsiao's construction.
fn select_columns(k: usize) -> Vec<u8> {
    let mut chosen = Vec::with_capacity(k);
    let mut row_load = [0usize; CHECK_BITS];
    for weight in [3u32, 5, 7] {
        if chosen.len() == k {
            break;
        }
        // All columns of this weight, as candidates.
        let mut candidates: Vec<u8> = (1u8..0x80).filter(|c| c.count_ones() == weight).collect();
        while chosen.len() < k && !candidates.is_empty() {
            // Pick the candidate minimizing the resulting maximum row
            // load (ties broken by smallest numeric value for
            // determinism).
            let (best_idx, _) = candidates
                .iter()
                .enumerate()
                .min_by_key(|&(_, &c)| {
                    let mut load = row_load;
                    for (j, l) in load.iter_mut().enumerate() {
                        if c & (1 << j) != 0 {
                            *l += 1;
                        }
                    }
                    // hyvec-lint: allow(no-panic, "load is a fixed [usize; 7] array, never empty")
                    let max = *load.iter().max().expect("7 rows");
                    let sum_sq: usize = load.iter().map(|&l| l * l).sum();
                    (max, sum_sq, c)
                })
                // hyvec-lint: allow(no-panic, "the loop runs while chosen.len() < k <= candidate count, checked by the assert below")
                .expect("candidates nonempty");
            let col = candidates.swap_remove(best_idx);
            for (j, l) in row_load.iter_mut().enumerate() {
                if col & (1 << j) != 0 {
                    *l += 1;
                }
            }
            chosen.push(col);
        }
    }
    // hyvec-lint: allow(no-panic, "construction guard: HsiaoCode::new bounds k by MAX_DATA_BITS, the odd-weight column count")
    assert_eq!(chosen.len(), k, "requested width exceeds available columns");
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_widths() -> impl Iterator<Item = usize> {
        [1usize, 2, 8, 16, 26, 32, 40, 57].into_iter()
    }

    #[test]
    fn rejects_unsupported_widths() {
        assert!(HsiaoCode::new(0).is_err());
        assert!(HsiaoCode::new(58).is_err());
        assert!(HsiaoCode::new(57).is_ok());
    }

    #[test]
    fn shared_codes_are_built_once_and_reject_unsupported_widths() {
        for bad in [0, MAX_DATA_BITS + 1, usize::MAX] {
            assert_eq!(
                HsiaoCode::shared(bad).unwrap_err(),
                BuildCodeError {
                    data_bits: bad,
                    max_data_bits: MAX_DATA_BITS,
                }
            );
        }
        for k in [1, 26, 32, MAX_DATA_BITS] {
            let code = HsiaoCode::shared(k).unwrap();
            assert!(std::ptr::eq(code, HsiaoCode::shared(k).unwrap()));
            assert_eq!(code.data_bits(), k);
        }
    }

    #[test]
    fn columns_are_distinct_and_odd_weight() {
        for k in all_widths() {
            let code = HsiaoCode::new(k).unwrap();
            let mut seen = std::collections::HashSet::new();
            for i in 0..code.total_bits() {
                let col = code.column(i);
                assert_eq!(col.count_ones() % 2, 1, "column {i} even weight");
                assert!(seen.insert(col), "column {i} duplicated");
            }
        }
    }

    #[test]
    fn row_loads_are_balanced() {
        let loads = HsiaoCode::secded32().row_weights();
        let (min, max) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
        // 32 weight-3 columns spread 96 ones over 7 rows: 13.7 average;
        // Hsiao balancing keeps the spread tight.
        assert!(max - min <= 1, "unbalanced rows: {loads:?}");
    }

    #[test]
    fn encode_decode_clean_roundtrip() {
        for k in all_widths() {
            let code = HsiaoCode::new(k).unwrap();
            for data in [0u64, 1, 0xAAAA_AAAA_AAAA_AAAA, u64::MAX] {
                let cw = code.encode(data);
                let expect = mask_low(data, k);
                assert_eq!(code.decode(cw), Decoded::Clean { data: expect });
                assert_eq!(code.syndrome(cw), 0);
            }
        }
    }

    #[test]
    fn corrects_every_single_bit_error() {
        for k in [26usize, 32] {
            let code = HsiaoCode::new(k).unwrap();
            let data = 0x5A5A_5A5A_5A5A_5A5A & ((1u64 << k) - 1);
            let cw = code.encode(data);
            for bit in 0..code.total_bits() {
                let got = code.decode(cw ^ (1u64 << bit));
                assert_eq!(
                    got,
                    Decoded::Corrected { data, errors: 1 },
                    "bit {bit} of {k}-bit code"
                );
            }
        }
    }

    #[test]
    fn detects_every_double_bit_error_without_miscorrection() {
        for k in [26usize, 32] {
            let code = HsiaoCode::new(k).unwrap();
            let data = 0x0123_4567_89AB_CDEF & ((1u64 << k) - 1);
            let cw = code.encode(data);
            let n = code.total_bits();
            for a in 0..n {
                for b in (a + 1)..n {
                    let got = code.decode(cw ^ (1u64 << a) ^ (1u64 << b));
                    assert_eq!(
                        got,
                        Decoded::Detected { errors_at_least: 2 },
                        "bits {a},{b} of {k}-bit code"
                    );
                }
            }
        }
    }

    #[test]
    fn named_constructors_match_paper_geometry() {
        let data = HsiaoCode::secded32();
        assert_eq!(data.data_bits(), 32);
        assert_eq!(data.check_bits(), 7);
        assert_eq!(data.total_bits(), 39);
        let tag = HsiaoCode::secded26();
        assert_eq!(tag.data_bits(), 26);
        assert_eq!(tag.total_bits(), 33);
    }

    #[test]
    fn gate_counts_are_plausible() {
        let code = HsiaoCode::secded32();
        // 32 weight-3 columns -> 96 ones -> 96 - 7 = 89 encoder gates.
        assert_eq!(code.encoder_xor_gates(), 96 - 7);
        assert!(code.decoder_xor_gates() > code.encoder_xor_gates());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn column_rejects_out_of_range() {
        let _ = HsiaoCode::secded32().column(39);
    }
}
