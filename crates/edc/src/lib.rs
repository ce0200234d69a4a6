//! # hyvec-edc — Error Detection and Correction codes for SRAM words
//!
//! This crate implements the two code families used by the hybrid
//! high-performance / ultra-low-energy cache architecture of Maric et al.
//! (DATE 2013):
//!
//! * [`HsiaoCode`] — single-error-correcting, double-error-detecting
//!   (SECDED) odd-weight-column codes after Hsiao, with 7 check bits for
//!   data words up to 57 bits. The paper uses (39,32) for 32-bit data words
//!   and (33,26) for 26-bit tag words.
//! * [`DectedCode`] — double-error-correcting, triple-error-detecting
//!   (DECTED) codes built from a shortened binary BCH code with `t = 2`
//!   over GF(2^6) plus one overall parity bit, giving 13 check bits, again
//!   matching the paper.
//!
//! Both implement the [`EdcCode`] trait so cache datapaths can be generic
//! over the protection level; [`NoCode`] provides the unprotected baseline.
//!
//! # Example
//!
//! ```
//! use hyvec_edc::{EdcCode, HsiaoCode, Decoded};
//!
//! let code = HsiaoCode::secded32();
//! let word = code.encode(0xDEAD_BEEF);
//! // flip one bit in the stored codeword (a hard fault or soft error)
//! let faulty = word ^ (1 << 17);
//! match code.decode(faulty) {
//!     Decoded::Corrected { data, .. } => assert_eq!(data, 0xDEAD_BEEF),
//!     other => panic!("expected correction, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod bch;
pub mod gf64;
pub mod hsiao;
pub mod parity;
pub mod reference;

pub use bch::DectedCode;
pub use hsiao::HsiaoCode;

use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

/// Result of decoding a possibly-corrupted codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decoded {
    /// The codeword carried no detectable error.
    Clean {
        /// The extracted data word.
        data: u64,
    },
    /// One or more errors were detected and corrected.
    Corrected {
        /// The corrected data word.
        data: u64,
        /// Number of bit errors corrected (1 for SECDED, 1–2 for DECTED).
        errors: u32,
    },
    /// An uncorrectable error was detected. The data cannot be trusted.
    Detected {
        /// Lower bound on the number of bit errors present.
        errors_at_least: u32,
    },
}

impl Decoded {
    /// Returns the recovered data word, or `None` if the error was
    /// uncorrectable.
    pub fn data(&self) -> Option<u64> {
        match *self {
            Decoded::Clean { data } | Decoded::Corrected { data, .. } => Some(data),
            Decoded::Detected { .. } => None,
        }
    }

    /// Returns `true` when the decoder could deliver trustworthy data.
    pub fn is_ok(&self) -> bool {
        self.data().is_some()
    }
}

/// Error returned when constructing a code with an unsupported data width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildCodeError {
    /// The requested number of data bits.
    pub data_bits: usize,
    /// The maximum supported by the code family.
    pub max_data_bits: usize,
}

impl fmt::Display for BuildCodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "code does not support {} data bits (maximum {})",
            self.data_bits, self.max_data_bits
        )
    }
}

impl Error for BuildCodeError {}

/// A systematic error-detection-and-correction code over words of at most
/// 64 bits (data plus check bits).
///
/// Codewords are laid out with the data bits in positions
/// `0..data_bits()` and check bits above them, so a cache array can store
/// the value of [`encode`](EdcCode::encode) directly.
pub trait EdcCode: fmt::Debug + Send + Sync {
    /// Number of payload bits the code protects.
    fn data_bits(&self) -> usize;

    /// Number of redundant check bits added by the code.
    fn check_bits(&self) -> usize;

    /// Total codeword length, `data_bits() + check_bits()`.
    fn total_bits(&self) -> usize {
        self.data_bits() + self.check_bits()
    }

    /// Encodes `data` into a codeword.
    ///
    /// Bits of `data` above `data_bits()` are ignored.
    fn encode(&self, data: u64) -> u64;

    /// Decodes a received codeword, correcting errors up to the code's
    /// correction capability and flagging detectable uncorrectable errors.
    fn decode(&self, word: u64) -> Decoded;

    /// Number of two-input XOR gates in a tree-structured encoder.
    ///
    /// Used by the circuit-level energy model as a proxy for the switched
    /// capacitance of the encoder (the paper obtains this figure from
    /// HSPICE simulation of the synthesized encoder).
    fn encoder_xor_gates(&self) -> usize;

    /// Number of two-input XOR gates plus equivalent gates in the
    /// syndrome-compute + correct path of a decoder.
    fn decoder_xor_gates(&self) -> usize;
}

/// The identity "code": no check bits, no detection, no correction.
///
/// Used for the paper's scenario A baseline (6T+10T with no coding) and
/// for HP-mode operation when the EDC logic is turned off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoCode {
    data_bits: usize,
}

impl NoCode {
    /// Creates a pass-through code for `data_bits`-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `data_bits > 64`.
    pub fn new(data_bits: usize) -> Self {
        // hyvec-lint: allow(no-panic, "documented precondition (# Panics): payloads are stored in one u64")
        assert!(data_bits <= 64, "NoCode supports at most 64 data bits");
        NoCode { data_bits }
    }
}

impl EdcCode for NoCode {
    fn data_bits(&self) -> usize {
        self.data_bits
    }

    fn check_bits(&self) -> usize {
        0
    }

    #[inline]
    fn encode(&self, data: u64) -> u64 {
        mask_low(data, self.data_bits)
    }

    #[inline]
    fn decode(&self, word: u64) -> Decoded {
        Decoded::Clean {
            data: mask_low(word, self.data_bits),
        }
    }

    fn encoder_xor_gates(&self) -> usize {
        0
    }

    fn decoder_xor_gates(&self) -> usize {
        0
    }
}

/// Protection level of a cache way, in the vocabulary of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Protection {
    /// No coding at all.
    #[default]
    None,
    /// Single error correction, double error detection (7 check bits).
    Secded,
    /// Double error correction, triple error detection (13 check bits).
    Dected,
}

impl Protection {
    /// Check bits added per protected word.
    pub fn check_bits(self) -> usize {
        match self {
            Protection::None => 0,
            Protection::Secded => hsiao::CHECK_BITS,
            Protection::Dected => bch::CHECK_BITS,
        }
    }

    /// Total number of bit errors the code can correct in one word,
    /// regardless of their origin (1 for SECDED, 2 for DECTED).
    pub fn max_correctable(self) -> usize {
        match self {
            Protection::None => 0,
            Protection::Secded => 1,
            Protection::Dected => 2,
        }
    }

    /// The widest data word the family can protect (64 for
    /// [`Protection::None`]: a pass-through still stores its word in
    /// one `u64`).
    pub fn max_data_bits(self) -> usize {
        match self {
            Protection::None => 64,
            Protection::Secded => hsiao::MAX_DATA_BITS,
            Protection::Dected => bch::MAX_DATA_BITS,
        }
    }

    /// Whether the family can protect `data_bits`-bit words —
    /// constructing a code for a supported width never fails.
    pub fn supports(self, data_bits: usize) -> bool {
        (1..=self.max_data_bits()).contains(&data_bits)
    }

    /// The codec for `data_bits`-bit words, from the family's
    /// write-once registry: the same object [`HsiaoCode::shared`] and
    /// [`DectedCode::shared`] hand the caches, so each width's table is
    /// built once per process however many callers ask for it.
    ///
    /// # Errors
    ///
    /// Returns [`BuildCodeError`] if the family cannot protect that width.
    pub fn build(self, data_bits: usize) -> Result<&'static dyn EdcCode, BuildCodeError> {
        match self {
            Protection::None => {
                static CODES: [OnceLock<NoCode>; 64] = [const { OnceLock::new() }; 64];
                let code = shared_code(&CODES, data_bits, |bits| Ok(NoCode::new(bits)))?;
                Ok(code)
            }
            Protection::Secded => Ok(HsiaoCode::shared(data_bits)?),
            Protection::Dected => Ok(DectedCode::shared(data_bits)?),
        }
    }
}

impl fmt::Display for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protection::None => f.write_str("none"),
            Protection::Secded => f.write_str("SECDED"),
            Protection::Dected => f.write_str("DECTED"),
        }
    }
}

/// The `&'static` code for `data_bits`-bit words from a family's
/// write-once registry, where `codes[k - 1]` holds the `k`-bit code.
/// The registry is keyed only by width and never changes once a slot
/// is built, so sharing it cannot couple concurrent simulations.
fn shared_code<C, const N: usize>(
    codes: &'static [OnceLock<C>; N],
    data_bits: usize,
    build: fn(usize) -> Result<C, BuildCodeError>,
) -> Result<&'static C, BuildCodeError> {
    let cell = data_bits
        .checked_sub(1)
        .and_then(|i| codes.get(i))
        .ok_or(BuildCodeError {
            data_bits,
            max_data_bits: N,
        })?;
    if let Some(code) = cell.get() {
        return Ok(code);
    }
    let code = build(data_bits)?;
    Ok(cell.get_or_init(|| code))
}

#[inline]
pub(crate) fn mask_low(value: u64, bits: usize) -> u64 {
    if bits >= 64 {
        value
    } else {
        value & ((1u64 << bits) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_code_roundtrip() {
        let code = NoCode::new(32);
        assert_eq!(code.encode(0xFFFF_FFFF_FFFF_FFFF), 0xFFFF_FFFF);
        assert_eq!(
            code.decode(0x1234_5678),
            Decoded::Clean { data: 0x1234_5678 }
        );
        assert_eq!(code.total_bits(), 32);
    }

    #[test]
    fn no_code_never_detects() {
        let code = NoCode::new(8);
        // Any corruption passes through silently — that is the point of
        // the unprotected baseline.
        assert_eq!(code.decode(0xAB), Decoded::Clean { data: 0xAB });
    }

    #[test]
    fn protection_check_bits_match_paper() {
        assert_eq!(Protection::None.check_bits(), 0);
        assert_eq!(Protection::Secded.check_bits(), 7);
        assert_eq!(Protection::Dected.check_bits(), 13);
    }

    #[test]
    fn protection_builds_codecs() {
        for prot in [Protection::None, Protection::Secded, Protection::Dected] {
            let code = prot.build(32).expect("32-bit words supported");
            assert_eq!(code.data_bits(), 32);
            assert_eq!(code.check_bits(), prot.check_bits());
            let tag = prot.build(26).expect("26-bit tags supported");
            assert_eq!(tag.data_bits(), 26);
        }
    }

    #[test]
    fn protection_build_hands_out_the_registry_codes() {
        for bits in [1, 8, 26, 32, 51] {
            for prot in [Protection::None, Protection::Secded, Protection::Dected] {
                let code = prot.build(bits).expect("supported width");
                assert!(std::ptr::addr_eq(code, prot.build(bits).unwrap()));
            }
            let secded = Protection::Secded.build(bits).unwrap();
            assert!(std::ptr::addr_eq(secded, HsiaoCode::shared(bits).unwrap()));
            let dected = Protection::Dected.build(bits).unwrap();
            assert!(std::ptr::addr_eq(dected, DectedCode::shared(bits).unwrap()));
        }
        assert_eq!(Protection::None.build(64).unwrap().data_bits(), 64);
        for bad in [0, 65] {
            assert_eq!(
                Protection::None.build(bad).unwrap_err(),
                BuildCodeError {
                    data_bits: bad,
                    max_data_bits: 64,
                }
            );
        }
    }

    #[test]
    fn decoded_accessors() {
        assert_eq!(Decoded::Clean { data: 5 }.data(), Some(5));
        assert_eq!(Decoded::Corrected { data: 7, errors: 1 }.data(), Some(7));
        assert_eq!(Decoded::Detected { errors_at_least: 2 }.data(), None);
        assert!(Decoded::Clean { data: 0 }.is_ok());
        assert!(!Decoded::Detected { errors_at_least: 2 }.is_ok());
    }

    #[test]
    fn protection_display() {
        assert_eq!(Protection::None.to_string(), "none");
        assert_eq!(Protection::Secded.to_string(), "SECDED");
        assert_eq!(Protection::Dected.to_string(), "DECTED");
    }

    #[test]
    fn build_code_error_display() {
        let err = BuildCodeError {
            data_bits: 60,
            max_data_bits: 57,
        };
        assert_eq!(
            err.to_string(),
            "code does not support 60 data bits (maximum 57)"
        );
    }
}
