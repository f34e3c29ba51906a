//! A growable, 64-bit packed bit-vector.

use std::fmt;

use rand::Rng;

use crate::word::{count_ones, split_index, tail_mask, words_for, xor_into, IterOnes, Word};

/// A packed vector of bits, the basic container for tableau columns, phase
/// rows, and measurement records.
///
/// Bits beyond `len` inside the final word are kept zero (the *canonical
/// form*); every mutating operation restores this invariant, so word-level
/// comparisons and popcounts are exact.
///
/// # Example
///
/// ```
/// use symphase_bitmat::BitVec;
///
/// let mut v = BitVec::zeros(100);
/// v.set(3, true);
/// v.set(99, true);
/// assert_eq!(v.count_ones(), 2);
/// assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![3, 99]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    words: Vec<Word>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit-vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bit-vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; words_for(len)],
            len,
        }
    }

    /// Creates a bit-vector from an iterator of booleans.
    pub fn from_bools<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut v = Self::new();
        for b in bits {
            v.push(b);
        }
        v
    }

    /// Creates a bit-vector of `len` bits where bit `i` is `f(i)`.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut v = Self::zeros(len);
        for i in 0..len {
            if f(i) {
                v.set(i, true);
            }
        }
        v
    }

    /// Creates a bit-vector of `len` uniformly random bits.
    pub fn random(len: usize, rng: &mut impl Rng) -> Self {
        let mut v = Self::zeros(len);
        for w in v.words.iter_mut() {
            *w = rng.random();
        }
        v.canonicalize();
        v
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = split_index(i);
        (self.words[w] >> b) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = split_index(i);
        if v {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Flips bit `i` and returns its new value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn flip(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = split_index(i);
        self.words[w] ^= 1 << b;
        (self.words[w] >> b) & 1 == 1
    }

    /// Appends a bit.
    pub fn push(&mut self, v: bool) {
        let i = self.len;
        self.resize(self.len + 1);
        if v {
            self.set(i, true);
        }
    }

    /// Resizes to `len` bits; new bits are zero, truncated bits are discarded.
    pub fn resize(&mut self, len: usize) {
        self.words.resize(words_for(len), 0);
        self.len = len;
        self.canonicalize();
    }

    /// Sets every bit to zero without changing the length.
    pub fn clear_bits(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Sets every bit to one.
    pub fn fill_ones(&mut self) {
        self.words.iter_mut().for_each(|w| *w = !0);
        self.canonicalize();
    }

    /// XORs `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "BitVec length mismatch");
        xor_into(&mut self.words, &other.words);
    }

    /// ANDs `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn and_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "BitVec length mismatch");
        for (d, s) in self.words.iter_mut().zip(&other.words) {
            *d &= *s;
        }
    }

    /// ORs `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn or_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "BitVec length mismatch");
        for (d, s) in self.words.iter_mut().zip(&other.words) {
            *d |= *s;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        count_ones(&self.words)
    }

    /// `true` if any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Parity (XOR) of all bits.
    pub fn parity(&self) -> bool {
        self.words.iter().fold(0, |acc, w| acc ^ w).count_ones() % 2 == 1
    }

    /// Parity of `self AND other` — the F₂ inner product ⟨self, other⟩.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn dot(&self, other: &Self) -> bool {
        assert_eq!(self.len, other.len, "BitVec length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .fold(0u32, |acc, (a, b)| acc ^ (a & b).count_ones())
            % 2
            == 1
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        crate::word::iter_ones(&self.words)
    }

    /// Backing words (little-endian bit order within each word).
    #[inline]
    pub fn words(&self) -> &[Word] {
        &self.words
    }

    /// Mutable backing words.
    ///
    /// Callers that set bits beyond `len()` in the final word must restore
    /// the canonical form themselves (e.g. by masking with
    /// [`crate::word::tail_mask`]); all other methods assume it.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [Word] {
        &mut self.words
    }

    /// Zeroes any slack bits in the final word.
    #[inline]
    pub fn canonicalize(&mut self) {
        if let Some(last) = self.words.last_mut() {
            *last &= tail_mask(self.len);
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        for i in 0..self.len.min(256) {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > 256 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        Self::from_bools(iter)
    }
}

impl Extend<bool> for BitVec {
    fn extend<T: IntoIterator<Item = bool>>(&mut self, iter: T) {
        for b in iter {
            self.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_set_get() {
        let mut v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert!(!v.get(0));
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1));
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    fn flip_toggles() {
        let mut v = BitVec::zeros(3);
        assert!(v.flip(1));
        assert!(!v.flip(1));
        assert!(!v.get(1));
    }

    #[test]
    fn push_and_from_bools() {
        let v = BitVec::from_bools([true, false, true, true]);
        assert_eq!(v.len(), 4);
        assert!(v.get(0) && !v.get(1) && v.get(2) && v.get(3));
        let collected: BitVec = (0..100).map(|i| i % 3 == 0).collect();
        assert_eq!(collected.count_ones(), 34);
    }

    #[test]
    fn resize_truncates_and_zero_extends() {
        let mut v = BitVec::from_bools((0..70).map(|_| true));
        v.resize(65);
        assert_eq!(v.count_ones(), 65);
        v.resize(70);
        assert_eq!(v.count_ones(), 65);
        assert!(!v.get(69));
    }

    #[test]
    fn xor_and_or_assign() {
        let a0 = BitVec::from_bools([true, true, false, false]);
        let b = BitVec::from_bools([true, false, true, false]);
        let mut a = a0.clone();
        a.xor_assign(&b);
        assert_eq!(a, BitVec::from_bools([false, true, true, false]));
        let mut a = a0.clone();
        a.and_assign(&b);
        assert_eq!(a, BitVec::from_bools([true, false, false, false]));
        let mut a = a0;
        a.or_assign(&b);
        assert_eq!(a, BitVec::from_bools([true, true, true, false]));
    }

    #[test]
    fn parity_and_dot() {
        let a = BitVec::from_bools([true, true, true, false]);
        assert!(a.parity());
        let b = BitVec::from_bools([true, true, false, false]);
        assert!(!b.parity());
        // ⟨a, b⟩ = 1·1 ⊕ 1·1 = 0
        assert!(!a.dot(&b));
        let c = BitVec::from_bools([true, false, false, false]);
        assert!(a.dot(&c));
    }

    #[test]
    fn iter_ones_spans_words() {
        let mut v = BitVec::zeros(200);
        for &i in &[0, 63, 64, 127, 199] {
            v.set(i, true);
        }
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 127, 199]);
    }

    #[test]
    fn iter_ones_empty() {
        assert_eq!(BitVec::zeros(100).iter_ones().count(), 0);
        assert_eq!(BitVec::new().iter_ones().count(), 0);
    }

    #[test]
    fn fill_ones_respects_tail() {
        let mut v = BitVec::zeros(67);
        v.fill_ones();
        assert_eq!(v.count_ones(), 67);
    }

    #[test]
    fn random_is_canonical() {
        let mut rng = StdRng::seed_from_u64(7);
        let v = BitVec::random(67, &mut rng);
        assert_eq!(v.words().last().unwrap() >> 3, 0);
    }

    #[test]
    fn clear_bits_keeps_len() {
        let mut v = BitVec::from_bools((0..80).map(|_| true));
        v.clear_bits();
        assert_eq!(v.len(), 80);
        assert_eq!(v.count_ones(), 0);
    }
}
