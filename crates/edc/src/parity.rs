//! Bit-level helpers shared by the code implementations.
//!
//! Every encoder and syndrome computation in this crate is a GF(2)-linear
//! map from a codeword (or its data part) to a few check bits. The
//! crate-private `LinearMap` evaluates such a map with one 256-entry
//! table lookup per input byte instead of one [`parity64`] per output
//! bit: `parity64` is a `count_ones`, which on baseline x86-64 (no
//! `popcnt`) is a software popcount, and a DECTED decode needs 13 of
//! them. The parity loops survive in [`reference`](crate::reference) as
//! the oracles the tables are pinned against.

use std::ops::BitXor;

/// Parity of the set bits of `x`: `1` if odd, `0` if even.
///
/// ```
/// use hyvec_edc::parity::parity64;
/// assert_eq!(parity64(0b0111), 1);
/// assert_eq!(parity64(0b0101), 0);
/// ```
#[inline]
pub fn parity64(x: u64) -> u32 {
    x.count_ones() & 1
}

/// Number of two-input XOR gates in a balanced tree computing the parity
/// of `inputs` bits. A tree over `n` inputs needs exactly `n - 1` gates.
#[inline]
pub fn xor_tree_gates(inputs: usize) -> usize {
    inputs.saturating_sub(1)
}

/// A GF(2)-linear map from the low `width` bits of a word to `T`,
/// evaluated byte by byte: the image of a word is the XOR of one
/// 256-entry table lookup per input byte. Bits at or above `width`
/// map to zero, so callers never mask the input.
#[derive(Debug, Clone)]
pub(crate) struct LinearMap<T> {
    /// `tables[j][b]`: the image of byte value `b` at byte position `j`.
    tables: Vec<[T; 256]>,
}

impl<T: Copy + Default + BitXor<Output = T>> LinearMap<T> {
    /// Builds the map whose input bit `i < width` has image `column(i)`.
    ///
    /// Each table is filled by linearity, never by evaluating the map:
    /// entry `b` is entry `b & (b - 1)` XOR the column of `b`'s lowest
    /// set bit, which costs `width` column calls and one XOR per entry.
    pub(crate) fn new(width: usize, column: impl Fn(usize) -> T) -> Self {
        let tables = (0..width.div_ceil(8))
            .map(|byte| {
                let columns: [T; 8] = std::array::from_fn(|low| {
                    let bit = 8 * byte + low;
                    if bit < width {
                        column(bit)
                    } else {
                        T::default()
                    }
                });
                let mut table = [T::default(); 256];
                for b in 1..256 {
                    table[b] = table[b & (b - 1)] ^ columns[b.trailing_zeros() as usize];
                }
                table
            })
            .collect();
        LinearMap { tables }
    }

    /// The image of `word`; bits at or above the map's width are
    /// ignored.
    #[inline]
    pub(crate) fn apply(&self, word: u64) -> T {
        let mut acc = T::default();
        for (j, table) in self.tables.iter().enumerate() {
            acc = acc ^ table[usize::from((word >> (8 * j)) as u8)];
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_basics() {
        assert_eq!(parity64(0), 0);
        assert_eq!(parity64(1), 1);
        assert_eq!(parity64(u64::MAX), 0);
        assert_eq!(parity64(u64::MAX >> 1), 1);
    }

    #[test]
    fn flipping_any_bit_flips_parity() {
        let x = 0x9E37_79B9_7F4A_7C15u64;
        let p = parity64(x);
        for bit in 0..64 {
            assert_eq!(parity64(x ^ (1 << bit)), p ^ 1, "bit {bit}");
        }
    }

    #[test]
    fn tree_gate_count() {
        assert_eq!(xor_tree_gates(0), 0);
        assert_eq!(xor_tree_gates(1), 0);
        assert_eq!(xor_tree_gates(2), 1);
        assert_eq!(xor_tree_gates(13), 12);
    }

    #[test]
    fn linear_map_xors_the_columns_of_the_set_bits() {
        // Columns chosen so every input bit has a distinct image.
        let column = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for width in [1usize, 7, 8, 9, 26, 45, 63, 64] {
            let map = LinearMap::new(width, column);
            for word in [0u64, 1, 0xDEAD_BEEF_F00D_CAFE, u64::MAX] {
                let expect = (0..width)
                    .filter(|&i| word >> i & 1 == 1)
                    .fold(0, |acc, i| acc ^ column(i));
                assert_eq!(map.apply(word), expect, "width {width}, word {word:#x}");
            }
        }
    }
}
