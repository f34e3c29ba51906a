//! The phase-store abstraction (paper Facts 1 and 2).
//!
//! Pauli gates and faults only touch the phase column of the tableau
//! (Fact 1), and the A-G control flow never branches on phases (Fact 2).
//! [`Tableau`](crate::Tableau) therefore drives all X/Z bit manipulation
//! itself and delegates every phase effect to a [`PhaseStore`]:
//!
//! * [`ConcretePhases`] keeps one sign bit per row — the classic simulator;
//! * `symphase-core`'s dense/sparse symbolic stores keep a whole
//!   bit-vector of symbol coefficients per row (paper Eq. (2)/(3)).

use symphase_bitmat::{BitVec, WORD_BITS};

/// Storage for the phase column(s) of a stabilizer tableau.
///
/// Row indices follow the tableau convention: `0..n` destabilizers, `n..2n`
/// stabilizers, row `2n` the scratch row used by deterministic
/// measurements.
pub trait PhaseStore {
    /// Creates a store for `rows` tableau rows, all phases `+1`.
    fn with_rows(rows: usize) -> Self;

    /// Number of rows.
    fn rows(&self) -> usize;

    /// The *constant* terms of the phases, one bit per row (bit `r % 64`
    /// of word `r / 64` is row `r`; bits past [`Self::rows`] stay clear).
    fn constant_words(&self) -> &[u64];

    /// Mutable constant terms. Clifford gates XOR their sign flips in
    /// here word-parallel (paper Fact 1).
    fn constant_words_mut(&mut self) -> &mut [u64];

    /// XORs a 64-row mask into the constant terms: rows whose bit is set
    /// in `mask` flip sign. `word_index` selects which group of 64 rows.
    fn xor_constant_word(&mut self, word_index: usize, mask: u64) {
        self.constant_words_mut()[word_index] ^= mask;
    }

    /// Row multiplication phase update: `phase[dst] ⊕= phase[src] ⊕
    /// extra_constant` where `extra_constant` carries the mod-4 sign
    /// correction of the Pauli product (the `Σg ≡ 2 (mod 4)` case of A-G's
    /// `rowsum`). Symbolic stores XOR the full coefficient vectors.
    fn add_row_into(&mut self, src: usize, dst: usize, extra_constant: bool);

    /// [`Self::add_row_into`] from `src` into every row selected by the
    /// mask `rows`, with row `r`'s sign correction at bit `r` of `extra`
    /// (both laid out like [`Self::constant_words`]). Equal to one
    /// `add_row_into` per selected row; `rows` must not select `src`.
    fn add_row_into_mask(&mut self, src: usize, rows: &[u64], extra: &[u64]);

    /// Copies the phase of `src` over the phase of `dst`.
    fn copy_row(&mut self, src: usize, dst: usize);

    /// Resets the phase of `row` to `+1` (all coefficients zero).
    fn clear_row(&mut self, row: usize);

    /// The constant term of the phase of `row`.
    fn constant_bit(&self, row: usize) -> bool {
        (self.constant_words()[row / WORD_BITS] >> (row % WORD_BITS)) & 1 == 1
    }

    /// Sets the constant term of the phase of `row`.
    fn set_constant_bit(&mut self, row: usize, value: bool) {
        debug_assert!(row < self.rows(), "row {row} out of range");
        let word = &mut self.constant_words_mut()[row / WORD_BITS];
        *word = (*word & !(1 << (row % WORD_BITS))) | (u64::from(value) << (row % WORD_BITS));
    }
}

/// The constant-term part of [`PhaseStore::add_row_into_mask`], word by
/// word: every row of `rows` XORs in row `src`'s constant and its own bit
/// of `extra`.
pub fn add_constant_into_mask(constants: &mut [u64], src: usize, rows: &[u64], extra: &[u64]) {
    debug_assert_eq!((rows[src / WORD_BITS] >> (src % WORD_BITS)) & 1, 0);
    let c = 0u64.wrapping_sub((constants[src / WORD_BITS] >> (src % WORD_BITS)) & 1);
    for ((word, &r), &e) in constants.iter_mut().zip(rows).zip(extra) {
        *word ^= r & (c ^ e);
    }
}

/// The classic concrete phase store: one sign bit per tableau row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConcretePhases {
    bits: BitVec,
}

impl ConcretePhases {
    /// Borrows the underlying sign bits.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }
}

impl PhaseStore for ConcretePhases {
    fn with_rows(rows: usize) -> Self {
        Self {
            bits: BitVec::zeros(rows),
        }
    }

    fn rows(&self) -> usize {
        self.bits.len()
    }

    fn constant_words(&self) -> &[u64] {
        self.bits.words()
    }

    fn constant_words_mut(&mut self) -> &mut [u64] {
        self.bits.words_mut()
    }

    #[inline]
    fn add_row_into(&mut self, src: usize, dst: usize, extra_constant: bool) {
        let v = self.bits.get(dst) ^ self.bits.get(src) ^ extra_constant;
        self.bits.set(dst, v);
    }

    fn add_row_into_mask(&mut self, src: usize, rows: &[u64], extra: &[u64]) {
        add_constant_into_mask(self.bits.words_mut(), src, rows, extra);
    }

    #[inline]
    fn copy_row(&mut self, src: usize, dst: usize) {
        let v = self.bits.get(src);
        self.bits.set(dst, v);
    }

    #[inline]
    fn clear_row(&mut self, row: usize) {
        self.bits.set(row, false);
    }
}

/// Number of words needed for a row-mask over `rows` rows (helper shared
/// with `Tableau`).
pub(crate) fn mask_words(rows: usize) -> usize {
    rows.div_ceil(WORD_BITS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_phases_basics() {
        let mut p = ConcretePhases::with_rows(70);
        assert_eq!(p.rows(), 70);
        assert!(!p.constant_bit(69));
        p.set_constant_bit(69, true);
        assert!(p.constant_bit(69));
        p.clear_row(69);
        assert!(!p.constant_bit(69));
    }

    #[test]
    fn xor_constant_word_flips_rows() {
        let mut p = ConcretePhases::with_rows(70);
        p.xor_constant_word(0, 0b101);
        assert!(p.constant_bit(0));
        assert!(!p.constant_bit(1));
        assert!(p.constant_bit(2));
        p.xor_constant_word(1, 1 << 5);
        assert!(p.constant_bit(69));
    }

    #[test]
    fn add_row_into_xors_with_extra() {
        let mut p = ConcretePhases::with_rows(4);
        p.set_constant_bit(0, true);
        p.add_row_into(0, 1, false);
        assert!(p.constant_bit(1)); // 0 ⊕ 1 ⊕ 0
        p.add_row_into(0, 1, true);
        assert!(p.constant_bit(1)); // 1 ⊕ 1 ⊕ 1
        p.add_row_into(0, 1, false);
        assert!(!p.constant_bit(1)); // 1 ⊕ 1 ⊕ 0
        p.copy_row(0, 3);
        assert!(p.constant_bit(3));
    }

    #[test]
    fn add_row_into_mask_equals_one_add_per_row() {
        let rows = 131;
        let mut batched = ConcretePhases::with_rows(rows);
        for r in (0..rows).step_by(3) {
            batched.set_constant_bit(r, true);
        }
        let mut single = batched.clone();
        let src = 70;
        let mask = [
            0xF0F0_1234_5678_9ABCu64,
            0x0123_4567_89AB_CDEF & !(1 << 6),
            0b101,
        ];
        let extra = [0xFFFF_0000_FFFF_0000u64, 0x5555_5555_5555_5555, 0b111];
        batched.add_row_into_mask(src, &mask, &extra);
        for r in 0..rows {
            if (mask[r / 64] >> (r % 64)) & 1 == 1 {
                single.add_row_into(src, r, (extra[r / 64] >> (r % 64)) & 1 == 1);
            }
        }
        assert_eq!(batched, single);
    }

    #[test]
    fn mask_words_matches_bitvec() {
        assert_eq!(mask_words(1), 1);
        assert_eq!(mask_words(64), 1);
        assert_eq!(mask_words(65), 2);
    }
}
