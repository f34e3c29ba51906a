//! Dense row-major bit-matrix over F₂.

use std::fmt;

use rand::Rng;

use crate::transpose::transpose_packed;
use crate::word::{split_index, tail_mask, words_for, Word, WORD_BITS};
use crate::BitVec;

/// A dense bit-matrix stored row-major, each row padded to whole words.
///
/// This is the container for measurement matrices `M`, symbol-assignment
/// batches `B`, and sample matrices `M · B` (paper Eq. (4)), as well as the
/// general-purpose F₂ linear algebra used in tests and verification.
///
/// # Example
///
/// ```
/// use symphase_bitmat::BitMatrix;
///
/// let eye = BitMatrix::identity(8);
/// let mut m = BitMatrix::zeros(8, 8);
/// m.set(2, 5, true);
/// let prod = m.mul(&eye);
/// assert_eq!(prod, m);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    stride: usize,
    data: Vec<Word>,
}

impl BitMatrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let stride = words_for(cols);
        Self {
            rows,
            cols,
            stride,
            data: vec![0; rows * stride],
        }
    }

    /// Reshapes to a `rows × cols` zero matrix, reusing the backing
    /// allocation when capacity suffices. Returns `true` if the backing
    /// buffer had to grow (an allocation event).
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) -> bool {
        let stride = words_for(cols);
        let words = rows * stride;
        let grew = words > self.data.capacity();
        self.rows = rows;
        self.cols = cols;
        self.stride = stride;
        self.data.clear();
        self.data.resize(words, 0);
        grew
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Creates a matrix where entry `(r, c)` is `f(r, c)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if f(r, c) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// Creates a uniformly random matrix.
    pub fn random(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let mut m = Self::zeros(rows, cols);
        for w in m.data.iter_mut() {
            *w = rng.random();
        }
        m.canonicalize();
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Words per row.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Words the backing buffer holds without reallocating (see
    /// [`Self::reset_zeros`]).
    #[inline]
    pub fn word_capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Reads entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        let (w, b) = split_index(c);
        (self.data[r * self.stride + w] >> b) & 1 == 1
    }

    /// Writes entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: bool) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        let (w, b) = split_index(c);
        let word = &mut self.data[r * self.stride + w];
        if v {
            *word |= 1 << b;
        } else {
            *word &= !(1 << b);
        }
    }

    /// Flips entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn flip(&mut self, r: usize, c: usize) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        let (w, b) = split_index(c);
        self.data[r * self.stride + w] ^= 1 << b;
    }

    /// Packed words of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[Word] {
        &self.data[r * self.stride..(r + 1) * self.stride]
    }

    /// Mutable packed words of row `r`. Slack bits must stay zero.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [Word] {
        &mut self.data[r * self.stride..(r + 1) * self.stride]
    }

    /// Copies row `r` into a [`BitVec`].
    pub fn row_bitvec(&self, r: usize) -> BitVec {
        let mut v = BitVec::zeros(self.cols);
        v.words_mut().copy_from_slice(self.row(r));
        v
    }

    /// Copies column `c` into a [`BitVec`].
    pub fn col_bitvec(&self, c: usize) -> BitVec {
        BitVec::from_fn(self.rows, |r| self.get(r, c))
    }

    /// XORs row `src` into row `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range (or if they are equal, which
    /// would zero the row silently — callers never want that).
    pub fn xor_row_into(&mut self, src: usize, dst: usize) {
        assert!(src < self.rows && dst < self.rows, "row index out of range");
        assert_ne!(src, dst, "xor of a row into itself zeroes it");
        let stride = self.stride;
        let (src_off, dst_off) = (src * stride, dst * stride);
        let kernels = crate::simd::kernels();
        if src_off < dst_off {
            let (lo, hi) = self.data.split_at_mut(dst_off);
            kernels.xor_into(&mut hi[..stride], &lo[src_off..src_off + stride]);
        } else {
            let (lo, hi) = self.data.split_at_mut(src_off);
            kernels.xor_into(&mut lo[dst_off..dst_off + stride], &hi[..stride]);
        }
    }

    /// Swaps two rows.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row index out of range");
        if a == b {
            return;
        }
        let (a, b) = (a.min(b), a.max(b));
        let (lo, hi) = self.data.split_at_mut(b * self.stride);
        lo[a * self.stride..a * self.stride + self.stride].swap_with_slice(&mut hi[..self.stride]);
    }

    /// XORs an external packed row into row `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than the row stride.
    pub fn xor_words_into_row(&mut self, dst: usize, words: &[Word]) {
        let row = self.row_mut(dst);
        assert!(words.len() >= row.len(), "word slice too short");
        crate::simd::kernels().xor_into(row, words);
    }

    /// F₂ matrix product `self · other` by the method of rows: for every set
    /// bit `k` in a row of `self`, XOR row `k` of `other` into the output
    /// row. This is exactly the sampling step of the paper (Eq. (4)) when
    /// `self` is the measurement matrix and `other` the symbol batch.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn mul(&self, other: &BitMatrix) -> BitMatrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch in mul");
        let mut out = BitMatrix::zeros(self.rows, other.cols);
        let kernels = crate::simd::kernels();
        for r in 0..self.rows {
            let src = self.row(r);
            let dst = &mut out.data[r * out.stride..(r + 1) * out.stride];
            for (w, &word) in src.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let k = w * WORD_BITS + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    kernels.xor_into(dst, other.row(k));
                }
            }
        }
        out
    }

    /// F₂ matrix product `self · other` with the blocked
    /// Four-Russians kernel ([`crate::m4r`]): bit-identical to
    /// [`BitMatrix::mul`], asymptotically ~8× fewer row XORs on dense
    /// operands, and adaptive per column group so sparse rows fall back to
    /// the plain gather. This is the kernel behind the sampler's
    /// `DenseMatMul` method.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn mul_blocked(&self, other: &BitMatrix) -> BitMatrix {
        crate::m4r::mul_blocked(self, other)
    }

    /// Blocked-kernel product XOR-accumulated into a word-aligned column
    /// window of `out`, reusing `scratch` across calls (see
    /// [`crate::m4r::mul_blocked_into`]).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if the window does not fit.
    pub fn mul_into(
        &self,
        other: &BitMatrix,
        out: &mut BitMatrix,
        col_word_offset: usize,
        scratch: &mut crate::m4r::M4rScratch,
    ) {
        crate::m4r::mul_blocked_into(self, other, out, col_word_offset, scratch);
    }

    /// Matrix–vector product `self · v` over F₂.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        let kernels = crate::simd::kernels();
        BitVec::from_fn(self.rows, |r| {
            kernels.and_count(self.row(r), v.words()) % 2 == 1
        })
    }

    /// Returns the transpose, computed with 64×64 block kernels.
    pub fn transpose(&self) -> BitMatrix {
        let mut out = BitMatrix::zeros(self.cols, self.rows);
        self.transpose_into_prepared(&mut out);
        out
    }

    /// Transposes into `out`, reshaping it to `cols × rows` and reusing
    /// its backing allocation when capacity suffices. Returns `true` if
    /// the backing buffer had to grow (an allocation event — the m4r
    /// scratch uses this to pin zero-allocation steady state).
    pub fn transpose_into(&self, out: &mut BitMatrix) -> bool {
        let words = self.cols * words_for(self.rows);
        let grew = words > out.data.capacity();
        out.rows = self.cols;
        out.cols = self.rows;
        out.stride = words_for(self.rows);
        out.data.clear();
        out.data.resize(words, 0);
        self.transpose_into_prepared(out);
        grew
    }

    fn transpose_into_prepared(&self, out: &mut BitMatrix) {
        transpose_packed(
            &self.data,
            self.rows,
            self.cols,
            self.stride,
            &mut out.data,
            out.stride,
        );
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.data.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Raw backing words, row-major.
    #[inline]
    pub fn words(&self) -> &[Word] {
        &self.data
    }

    /// Mutable raw backing words. Slack bits must stay zero.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [Word] {
        &mut self.data
    }

    /// Zeroes slack bits in every row's final word.
    pub fn canonicalize(&mut self) {
        if self.stride == 0 {
            return;
        }
        let mask = tail_mask(self.cols);
        for r in 0..self.rows {
            self.data[r * self.stride + self.stride - 1] &= mask;
        }
    }
}

impl Default for BitMatrix {
    /// The `0 × 0` matrix (used by scratch buffers that grow on first use).
    fn default() -> Self {
        BitMatrix::zeros(0, 0)
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix[{}×{}]", self.rows, self.cols)?;
        for r in 0..self.rows.min(32) {
            for c in 0..self.cols.min(128) {
                write!(f, "{}", u8::from(self.get(r, c)))?;
            }
            writeln!(f)?;
        }
        if self.rows > 32 {
            writeln!(f, "…")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive_mul(a: &BitMatrix, b: &BitMatrix) -> BitMatrix {
        BitMatrix::from_fn(a.rows(), b.cols(), |r, c| {
            (0..a.cols()).fold(false, |acc, k| acc ^ (a.get(r, k) & b.get(k, c)))
        })
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = BitMatrix::random(33, 33, &mut rng);
        assert_eq!(m.mul(&BitMatrix::identity(33)), m);
        assert_eq!(BitMatrix::identity(33).mul(&m), m);
    }

    #[test]
    fn mul_matches_naive() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = BitMatrix::random(17, 70, &mut rng);
        let b = BitMatrix::random(70, 91, &mut rng);
        assert_eq!(a.mul(&b), naive_mul(&a, &b));
    }

    #[test]
    fn mul_vec_matches_mul() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = BitMatrix::random(40, 65, &mut rng);
        let v = BitVec::random(65, &mut rng);
        let mut vm = BitMatrix::zeros(65, 1);
        for i in v.iter_ones() {
            vm.set(i, 0, true);
        }
        let prod = a.mul(&vm);
        let pv = a.mul_vec(&v);
        for r in 0..40 {
            assert_eq!(prod.get(r, 0), pv.get(r));
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = StdRng::seed_from_u64(8);
        let m = BitMatrix::random(70, 130, &mut rng);
        let t = m.transpose();
        assert_eq!(t.rows(), 130);
        assert_eq!(t.cols(), 70);
        for r in 0..70 {
            for c in 0..130 {
                assert_eq!(m.get(r, c), t.get(c, r));
            }
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn xor_row_into_both_directions() {
        let mut m = BitMatrix::zeros(3, 70);
        m.set(0, 69, true);
        m.set(2, 1, true);
        m.xor_row_into(0, 2);
        assert!(m.get(2, 69) && m.get(2, 1));
        m.xor_row_into(2, 0);
        assert!(!m.get(0, 69) && m.get(0, 1));
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn xor_row_into_self_panics() {
        let mut m = BitMatrix::zeros(2, 2);
        m.xor_row_into(1, 1);
    }

    #[test]
    fn swap_rows_works() {
        let mut m = BitMatrix::from_fn(4, 10, |r, c| r == c);
        m.swap_rows(0, 3);
        assert!(m.get(0, 3) && m.get(3, 0));
        assert!(!m.get(0, 0) && !m.get(3, 3));
        m.swap_rows(2, 2);
        assert!(m.get(2, 2));
    }

    #[test]
    fn row_bitvec_and_col_bitvec() {
        let m = BitMatrix::from_fn(5, 7, |r, c| (r + c) % 3 == 0);
        let row2 = m.row_bitvec(2);
        for c in 0..7 {
            assert_eq!(row2.get(c), m.get(2, c));
        }
        let col3 = m.col_bitvec(3);
        for r in 0..5 {
            assert_eq!(col3.get(r), m.get(r, 3));
        }
    }

    #[test]
    fn mul_associativity() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = BitMatrix::random(9, 20, &mut rng);
        let b = BitMatrix::random(20, 31, &mut rng);
        let c = BitMatrix::random(31, 8, &mut rng);
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn zero_sized_matrices() {
        let m = BitMatrix::zeros(0, 0);
        assert_eq!(m.transpose().rows(), 0);
        let m = BitMatrix::zeros(3, 0);
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (0, 3));
    }
}
