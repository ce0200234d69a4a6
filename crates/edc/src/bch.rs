//! DECTED (double-error-correcting, triple-error-detecting) codes built
//! from a shortened binary BCH code with `t = 2` plus an overall parity
//! bit.
//!
//! The underlying code is the classic BCH(63,51) code over GF(2^6) with
//! generator `g(x) = m1(x) * m3(x)` (degree 12), shortened to the data
//! width, then extended with one overall parity bit. That gives minimum
//! distance 6: correct any 1–2 bit errors, detect any 3 bit errors,
//! using `12 + 1 = 13` check bits — exactly the figure the paper quotes
//! for DECTED protection of 32-bit data and 26-bit tag words.
//!
//! Codeword layout (LSB first):
//!
//! ```text
//! bits 0..12        BCH parity (remainder coefficients x^0..x^11)
//! bits 12..12+k     data (coefficients x^12..x^(11+k))
//! bit  12+k         overall parity over all previous bits
//! ```
//!
//! Decoding computes the syndromes `S1 = r(alpha)`, `S3 = r(alpha^3)`
//! and the overall-parity discrepancy, then:
//!
//! * clean when everything is consistent;
//! * single-error correction when the parity is odd and `S3 = S1^3`;
//! * double-error correction by solving the quadratic error-locator
//!   `x^2 + S1*x + (S3 + S1^3)/S1 = 0`;
//! * detection otherwise. Because the extended distance is 6, weight-3
//!   error patterns can never be mis-corrected, only detected.
//!
//! Both directions are table-driven. Encoding looks up the 12 BCH
//! parity bits and the overall parity bit together, one 256-entry
//! table per data byte (4 for a 32-bit word). Decoding looks up the
//! triple `(S1, S3, overall parity)` the same way, one table per
//! codeword byte (6 for the 45-bit codeword), and locates a double
//! error with one lookup in a 4096-entry `(S1, S3)`→positions table
//! built from the key-equation arithmetic. All tables are built at
//! construction, and [`DectedCode::shared`] builds each width once per
//! process. The row-mask parity loops, the per-set-bit polynomial
//! evaluation and the live GF(64) solve survive in
//! [`reference`](crate::reference), used only by the equivalence test
//! suites.

use std::sync::OnceLock;

use crate::gf64::Gf64;
use crate::parity::{xor_tree_gates, LinearMap};
use crate::{mask_low, shared_code, BuildCodeError, Decoded, EdcCode};

/// Check bits used by this DECTED family: 12 BCH parity bits plus one
/// overall parity bit.
pub const CHECK_BITS: usize = 13;

/// Degree of the BCH generator polynomial.
pub(crate) const BCH_PARITY_BITS: usize = 12;

/// Bits per GF(64) syndrome component.
const SYNDROME_BITS: usize = 6;

/// The overall-parity bit of a `check_map` or `syndrome_map` image,
/// above the 12 BCH parity bits or the packed `S1 | S3 << 6`.
const PARITY_FLAG: u16 = 1 << BCH_PARITY_BITS;

/// `double_table` sentinel: the syndrome pair matches no correctable
/// double-error pattern.
const NO_DOUBLE: u16 = u16::MAX;

/// Maximum supported data width: `63 - 12 = 51` bits.
pub const MAX_DATA_BITS: usize = 51;

/// A DECTED code for data words of `k <= 51` bits with 13 check bits.
///
/// # Example
///
/// ```
/// use hyvec_edc::{DectedCode, EdcCode, Decoded};
///
/// let code = DectedCode::dected32();
/// let cw = code.encode(0xCAFE_F00D);
/// // Two independent bit errors (e.g. a hard fault plus a soft error):
/// let faulty = cw ^ (1 << 3) ^ (1 << 30);
/// assert_eq!(
///     code.decode(faulty),
///     Decoded::Corrected { data: 0xCAFE_F00D, errors: 2 }
/// );
/// ```
#[derive(Debug, Clone)]
pub struct DectedCode {
    data_bits: usize,
    /// Generator polynomial g(x) = m1(x) * m3(x), bit i = coeff of x^i.
    generator: u16,
    /// `column[i] = x^(12+i) mod g(x)` — the 12-bit BCH parity
    /// contribution of data bit `i` (a parallel-encoder column).
    columns: Vec<u16>,
    /// Data word → its 13 check bits, byte-sliced: the BCH parity in
    /// bits 0..12 and the overall parity of the BCH word as
    /// [`PARITY_FLAG`].
    check_map: LinearMap<u16>,
    /// Received codeword → `S1 | S3 << 6`, plus [`PARITY_FLAG`] when
    /// the overall parity of all `total_bits()` bits is odd,
    /// byte-sliced.
    syndrome_map: LinearMap<u16>,
    /// Double-error locator table: entry `(s1 << 6) | s3` packs the
    /// two codeword bit positions as `p1 | (p2 << 8)`, or
    /// [`NO_DOUBLE`] when the pair matches no valid double error.
    /// Precomputed at construction from the key-equation arithmetic.
    double_table: Vec<u16>,
}

impl DectedCode {
    /// Builds a DECTED code for `data_bits`-bit words.
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
        let generator = generator_poly();
        let mut columns = Vec::with_capacity(data_bits);
        for i in 0..data_bits {
            let x_pow = 1u64 << (BCH_PARITY_BITS + i);
            columns.push(poly_mod(x_pow, u64::from(generator)) as u16);
        }
        // Data bit `i` flips its BCH column, and the overall parity by
        // itself plus every column bit.
        let check_map = LinearMap::new(data_bits, |i| {
            let col = columns[i];
            if col.count_ones() % 2 == 0 {
                col | PARITY_FLAG
            } else {
                col
            }
        });
        let bch_bits = BCH_PARITY_BITS + data_bits;
        // Codeword bit `i` adds `alpha^i` to S1 and `alpha^3i` to S3;
        // every bit, the stored overall parity included, flips the
        // parity.
        let syndrome_map = LinearMap::new(bch_bits + 1, |i| {
            if i == bch_bits {
                return PARITY_FLAG;
            }
            let s1 = u16::from(Gf64::alpha_pow(i).value());
            let s3 = u16::from(Gf64::alpha_pow(3 * i).value());
            s1 | s3 << SYNDROME_BITS | PARITY_FLAG
        });
        let mut double_table = vec![NO_DOUBLE; 64 * 64];
        for s1 in 0..64u8 {
            for s3 in 0..64u8 {
                if let Some((p1, p2)) = locate_double(bch_bits, Gf64::new(s1), Gf64::new(s3)) {
                    double_table[usize::from(s1) << SYNDROME_BITS | usize::from(s3)] =
                        p1 as u16 | (p2 as u16) << 8;
                }
            }
        }
        Ok(DectedCode {
            data_bits,
            generator,
            columns,
            check_map,
            syndrome_map,
            double_table,
        })
    }

    /// The process-wide code for `data_bits`-bit words, built on first
    /// use and never mutated, so every cache of every concurrent sweep
    /// can share it (and its 8 KB double-error locator table).
    ///
    /// # Errors
    ///
    /// Returns [`BuildCodeError`] if `data_bits` is 0 or exceeds
    /// [`MAX_DATA_BITS`].
    pub fn shared(data_bits: usize) -> Result<&'static DectedCode, BuildCodeError> {
        static CODES: [OnceLock<DectedCode>; MAX_DATA_BITS] =
            [const { OnceLock::new() }; MAX_DATA_BITS];
        shared_code(&CODES, data_bits, DectedCode::new)
    }

    /// The DECTED code protecting 32-bit data words (45-bit codeword).
    pub fn dected32() -> Self {
        // hyvec-lint: allow(no-panic, "constant width 32 is within MAX_DATA_BITS = 51")
        DectedCode::new(32).expect("32 <= 51")
    }

    /// The DECTED code protecting 26-bit tag words (39-bit codeword).
    pub fn dected26() -> Self {
        // hyvec-lint: allow(no-panic, "constant width 26 is within MAX_DATA_BITS = 51")
        DectedCode::new(26).expect("26 <= 51")
    }

    /// The generator polynomial `g(x)` (degree 12), bit `i` holding the
    /// coefficient of `x^i`.
    pub fn generator(&self) -> u16 {
        self.generator
    }

    /// The parallel-encoder column of data bit `i`: the 12 BCH parity
    /// bits toggled when data bit `i` is set
    /// (`x^(12+i) mod g(x)`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= data_bits()`.
    pub fn column(&self, i: usize) -> u16 {
        self.columns[i]
    }

    /// Number of bits in the BCH part of the codeword (excluding the
    /// overall parity bit).
    fn bch_bits(&self) -> usize {
        BCH_PARITY_BITS + self.data_bits
    }

    /// Computes the 13 check bits for `data`: the 12 BCH parity bits
    /// in bits 0..12 and the overall parity of the BCH word (parity
    /// plus data) in bit 12. Bits above `data_bits()` are ignored.
    #[inline]
    pub fn checks(&self, data: u64) -> u16 {
        self.check_map.apply(data)
    }

    /// Computes the syndromes `S1 = r(alpha)` and `S3 = r(alpha^3)` of
    /// a received codeword's BCH part, and whether the overall parity
    /// of the whole codeword is odd. Bits above `total_bits()` are
    /// ignored.
    #[inline]
    pub fn syndromes(&self, word: u64) -> (Gf64, Gf64, bool) {
        let packed = self.syndrome_map.apply(word);
        let s1 = Gf64::new(packed as u8 & 0x3F);
        let s3 = Gf64::new((packed >> SYNDROME_BITS) as u8 & 0x3F);
        (s1, s3, packed & PARITY_FLAG != 0)
    }

    /// How many data bits feed each BCH check bit's XOR tree.
    fn row_weights(&self) -> [usize; BCH_PARITY_BITS] {
        std::array::from_fn(|j| self.columns.iter().filter(|&&c| c >> j & 1 == 1).count())
    }
}

/// Locates two errors from syndromes `(s1, s3)` on a code shortened
/// to `bch_bits` transmitted positions. Returns codeword bit
/// positions, or `None` when no valid double-error pattern matches.
/// Used at construction to fill the syndrome→locator table.
fn locate_double(bch_bits: usize, s1: Gf64, s3: Gf64) -> Option<(usize, usize)> {
    if s1.is_zero() {
        // X1 + X2 = 0 would need X1 == X2: impossible for two
        // distinct positions.
        return None;
    }
    // Product of the locators: X1*X2 = (S3 + S1^3) / S1.
    let prod = (s3 + s1.pow(3)) / s1;
    if prod.is_zero() {
        // Would imply one locator is zero: not a position.
        return None;
    }
    // x^2 + S1 x + prod = 0; substitute x = S1 y:
    // y^2 + y = prod / S1^2.
    let c = prod / (s1 * s1);
    let y0 = c.solve_quadratic()?;
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

impl EdcCode for DectedCode {
    fn data_bits(&self) -> usize {
        self.data_bits
    }

    fn check_bits(&self) -> usize {
        CHECK_BITS
    }

    #[inline]
    fn encode(&self, data: u64) -> u64 {
        let checks = self.checks(data);
        let data = mask_low(data, self.data_bits);
        let bch = (data << BCH_PARITY_BITS) | u64::from(checks & (PARITY_FLAG - 1));
        debug_assert_eq!(poly_mod(bch, u64::from(self.generator)), 0);
        bch | u64::from(checks >> BCH_PARITY_BITS) << self.bch_bits()
    }

    #[inline]
    fn decode(&self, word: u64) -> Decoded {
        let bch_len = self.bch_bits();
        let bch_rx = mask_low(word, bch_len);
        let (s1, s3, parity_mismatch) = self.syndromes(word);

        let extract = |bch: u64| mask_low(bch >> BCH_PARITY_BITS, self.data_bits);

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
        // Double-error correction is one lookup in the precomputed
        // syndrome→locator table.
        let packed =
            self.double_table[(usize::from(s1.value()) << SYNDROME_BITS) | usize::from(s3.value())];
        if packed != NO_DOUBLE {
            let (p1, p2) = (packed & 0xFF, packed >> 8);
            return Decoded::Corrected {
                data: extract(bch_rx ^ (1u64 << p1) ^ (1u64 << p2)),
                errors: 2,
            };
        }
        // Even, nonzero, not a valid double: at least four errors.
        Decoded::Detected { errors_at_least: 4 }
    }

    fn encoder_xor_gates(&self) -> usize {
        let bch: usize = self.row_weights().into_iter().map(xor_tree_gates).sum();
        // Plus the overall-parity tree across the BCH codeword.
        bch + xor_tree_gates(self.bch_bits())
    }

    fn decoder_xor_gates(&self) -> usize {
        // Syndrome computation (two GF(64) evaluations realized as 12
        // parallel XOR trees over the codeword) and the parity tree,
        // plus the correction logic, which dominates: a Chien-style
        // evaluation of the quadratic error locator at every codeword
        // position costs two GF(64) constant multiplications and a
        // comparison per position (~25 XOR-equivalents), plus the
        // key-equation arithmetic (inversion, multiply, trace —
        // ~300 gate-equivalents).
        let syndrome: usize = self
            .row_weights()
            .into_iter()
            .map(|w| xor_tree_gates(w + 1))
            .sum();
        syndrome + xor_tree_gates(self.total_bits()) + 25 * self.total_bits() + 300
    }
}

/// Remainder of the GF(2) polynomial `v` modulo `g` (bit `i` = coeff of
/// `x^i`).
fn poly_mod(mut v: u64, g: u64) -> u64 {
    let gdeg = 63 - g.leading_zeros() as usize;
    loop {
        if v == 0 {
            return 0;
        }
        let vdeg = 63 - v.leading_zeros() as usize;
        if vdeg < gdeg {
            return v;
        }
        v ^= g << (vdeg - gdeg);
    }
}

/// Product of two GF(2) polynomials.
fn poly_mul(a: u64, b: u64) -> u64 {
    let mut out = 0u64;
    let mut a = a;
    let mut shift = 0;
    while a != 0 {
        if a & 1 != 0 {
            out ^= b << shift;
        }
        a >>= 1;
        shift += 1;
    }
    out
}

/// Minimal polynomial over GF(2) of `alpha^e` in GF(64): the product of
/// `(x + alpha^(e * 2^i))` over the conjugacy class of `e`.
fn minimal_poly(e: usize) -> u64 {
    // Collect the conjugacy class {e, 2e, 4e, ...} mod 63.
    let mut class = Vec::new();
    let mut cur = e % 63;
    loop {
        class.push(cur);
        cur = (cur * 2) % 63;
        if cur == e % 63 {
            break;
        }
    }
    // Multiply out the linear factors with coefficients in GF(64).
    let mut coeffs: Vec<Gf64> = vec![Gf64::ONE]; // the polynomial "1"
    for &exp in &class {
        let root = Gf64::alpha_pow(exp);
        // coeffs * (x + root)
        let mut next = vec![Gf64::ZERO; coeffs.len() + 1];
        for (i, &c) in coeffs.iter().enumerate() {
            next[i + 1] = next[i + 1] + c; // times x
            next[i] = next[i] + c * root; // times root
        }
        coeffs = next;
    }
    // The result must have GF(2) coefficients; pack into bits.
    let mut packed = 0u64;
    for (i, &c) in coeffs.iter().enumerate() {
        match c.value() {
            0 => {}
            1 => packed |= 1u64 << i,
            // hyvec-lint: allow(no-panic, "conjugate products over GF(64) always collapse to GF(2) coefficients; anything else is a field-arithmetic bug")
            v => panic!("minimal polynomial coefficient {v} not in GF(2)"),
        }
    }
    packed
}

/// The BCH(63,51) generator polynomial `g(x) = m1(x) * m3(x)`.
fn generator_poly() -> u16 {
    let g = poly_mul(minimal_poly(1), minimal_poly(3));
    debug_assert_eq!(63 - g.leading_zeros() as usize, BCH_PARITY_BITS);
    g as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf64::eval_poly_bits;

    #[test]
    fn minimal_polys_match_the_literature() {
        // For p(x) = x^6 + x + 1: m1 = x^6+x+1, m3 = x^6+x^4+x^2+x+1.
        assert_eq!(minimal_poly(1), 0b100_0011);
        assert_eq!(minimal_poly(3), 0b101_0111);
    }

    #[test]
    fn generator_has_degree_12_and_roots_alpha_1_through_4() {
        let g = u64::from(generator_poly());
        assert_eq!(63 - g.leading_zeros() as usize, 12);
        // BCH bound: alpha^1..alpha^4 must all be roots (conjugates of
        // alpha and alpha^3 include alpha^2 and alpha^4).
        for e in 1..=4 {
            assert_eq!(
                eval_poly_bits(g, Gf64::alpha_pow(e)),
                Gf64::ZERO,
                "alpha^{e} must be a root of g"
            );
        }
    }

    #[test]
    fn rejects_unsupported_widths() {
        assert!(DectedCode::new(0).is_err());
        assert!(DectedCode::new(52).is_err());
        assert!(DectedCode::new(51).is_ok());
    }

    #[test]
    fn shared_codes_are_built_once_and_reject_unsupported_widths() {
        for bad in [0, MAX_DATA_BITS + 1, usize::MAX] {
            assert_eq!(
                DectedCode::shared(bad).unwrap_err(),
                BuildCodeError {
                    data_bits: bad,
                    max_data_bits: MAX_DATA_BITS,
                }
            );
        }
        for k in [1, 26, 32, MAX_DATA_BITS] {
            let code = DectedCode::shared(k).unwrap();
            assert!(std::ptr::eq(code, DectedCode::shared(k).unwrap()));
            assert_eq!(code.data_bits(), k);
        }
    }

    #[test]
    fn named_constructors_match_paper_geometry() {
        let data = DectedCode::dected32();
        assert_eq!(data.data_bits(), 32);
        assert_eq!(data.check_bits(), 13);
        assert_eq!(data.total_bits(), 45);
        let tag = DectedCode::dected26();
        assert_eq!(tag.total_bits(), 39);
    }

    #[test]
    fn encode_decode_clean_roundtrip() {
        for k in [1usize, 8, 26, 32, 51] {
            let code = DectedCode::new(k).unwrap();
            for data in [0u64, 1, 0x5555_5555_5555_5555, u64::MAX] {
                let cw = code.encode(data);
                let expect = mask_low(data, k);
                assert_eq!(code.decode(cw), Decoded::Clean { data: expect }, "k={k}");
            }
        }
    }

    #[test]
    fn every_codeword_is_divisible_by_generator() {
        let code = DectedCode::dected32();
        let g = u64::from(code.generator());
        for data in [0u64, 1, 0xDEAD_BEEF, 0xFFFF_FFFF, 0x8000_0001] {
            let cw = code.encode(data);
            let bch = mask_low(cw, 44);
            assert_eq!(poly_mod(bch, g), 0, "data {data:#x}");
        }
    }

    #[test]
    fn corrects_every_single_bit_error() {
        for k in [26usize, 32] {
            let code = DectedCode::new(k).unwrap();
            let data = 0x9E37_79B9 & ((1u64 << k) - 1);
            let cw = code.encode(data);
            for bit in 0..code.total_bits() {
                let got = code.decode(cw ^ (1u64 << bit));
                assert_eq!(
                    got,
                    Decoded::Corrected { data, errors: 1 },
                    "bit {bit}, k={k}"
                );
            }
        }
    }

    #[test]
    fn corrects_every_double_bit_error() {
        for k in [26usize, 32] {
            let code = DectedCode::new(k).unwrap();
            let data = 0x0F0F_A5A5 & ((1u64 << k) - 1);
            let cw = code.encode(data);
            let n = code.total_bits();
            for a in 0..n {
                for b in (a + 1)..n {
                    let got = code.decode(cw ^ (1u64 << a) ^ (1u64 << b));
                    assert_eq!(
                        got,
                        Decoded::Corrected { data, errors: 2 },
                        "bits {a},{b}, k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn detects_every_triple_bit_error_without_miscorrection() {
        let code = DectedCode::dected32();
        let data = 0x1357_9BDF;
        let cw = code.encode(data);
        let n = code.total_bits();
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let got = code.decode(cw ^ (1u64 << a) ^ (1u64 << b) ^ (1u64 << c));
                    assert_eq!(
                        got,
                        Decoded::Detected { errors_at_least: 3 },
                        "bits {a},{b},{c}"
                    );
                }
            }
        }
    }

    #[test]
    fn gate_counts_are_plausible() {
        let code = DectedCode::dected32();
        let secded = crate::HsiaoCode::secded32();
        use crate::EdcCode as _;
        // DECTED logic is substantially larger than SECDED, in line with
        // the paper's premise that stronger codes cost more energy.
        assert!(code.encoder_xor_gates() > secded.encoder_xor_gates());
        assert!(code.decoder_xor_gates() > secded.decoder_xor_gates());
        assert!(code.encoder_xor_gates() < 600);
    }

    #[test]
    fn poly_mod_and_mul_basics() {
        // (x^3 + 1) * (x + 1) = x^4 + x^3 + x + 1
        assert_eq!(poly_mul(0b1001, 0b11), 0b11011);
        // x^4 + x^3 + x + 1 mod (x^3 + 1) = x^3+... compute: x^4+x^3+x+1
        // ^ (x^3+1)<<1 = x^4+x^3+x+1 ^ x^4+x = x^3+1; ^ (x^3+1) = 0.
        assert_eq!(poly_mod(0b11011, 0b1001), 0);
        assert_eq!(poly_mod(0b101, 0b1001), 0b101);
    }
}
