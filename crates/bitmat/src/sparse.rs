//! Sparse bit-vectors: sorted index lists with merge-XOR.
//!
//! Symbolic phases of QEC-style circuits touch only a handful of symbols per
//! stabilizer generator (the paper's "sparse circuits" case in Table 1), so
//! the phase columns and the measurement matrix `M` are stored as sorted
//! lists of set-bit indices. XOR of two rows is a sorted merge that drops
//! indices appearing twice.

use std::fmt;

#[cfg(test)]
use crate::WORD_BITS;
use crate::{BitVec, Word};

/// A sparse bit-vector: the sorted, deduplicated indices of its set bits.
///
/// # Example
///
/// ```
/// use symphase_bitmat::SparseBitVec;
///
/// let mut a = SparseBitVec::from_indices([1, 5, 9]);
/// let b = SparseBitVec::from_indices([5, 7]);
/// a.xor_assign(&b);
/// assert_eq!(a.indices(), &[1, 7, 9]); // 5 ⊕ 5 cancels
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct SparseBitVec {
    indices: Vec<u32>,
}

impl SparseBitVec {
    /// Creates an empty (all-zero) sparse bit-vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a sparse bit-vector from set-bit indices.
    ///
    /// The input may be unsorted and may contain duplicates; duplicated
    /// indices cancel in pairs (XOR semantics).
    pub fn from_indices<I: IntoIterator<Item = u32>>(indices: I) -> Self {
        let mut v: Vec<u32> = indices.into_iter().collect();
        v.sort_unstable();
        // Cancel pairs: keep an index iff it appears an odd number of times.
        let mut out = Vec::with_capacity(v.len());
        let mut i = 0;
        while i < v.len() {
            let mut j = i + 1;
            while j < v.len() && v[j] == v[i] {
                j += 1;
            }
            if (j - i) % 2 == 1 {
                out.push(v[i]);
            }
            i = j;
        }
        Self { indices: out }
    }

    /// Creates a sparse bit-vector from indices already strictly
    /// ascending, without sorting them.
    pub fn from_sorted(indices: Vec<u32>) -> Self {
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "not strictly ascending"
        );
        Self { indices }
    }

    /// Creates a singleton vector with only `index` set.
    pub fn singleton(index: u32) -> Self {
        Self {
            indices: vec![index],
        }
    }

    /// Builds from a dense [`BitVec`].
    pub fn from_bitvec(v: &BitVec) -> Self {
        Self {
            indices: v.iter_ones().map(|i| i as u32).collect(),
        }
    }

    /// Expands to a dense [`BitVec`] of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if any set index is `>= len`.
    pub fn to_bitvec(&self, len: usize) -> BitVec {
        let mut out = BitVec::zeros(len);
        for &i in &self.indices {
            out.set(i as usize, true);
        }
        out
    }

    /// The sorted set-bit indices.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.indices.len()
    }

    /// `true` if no bit is set.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.indices.is_empty()
    }

    /// Tests bit `index`.
    pub fn get(&self, index: u32) -> bool {
        self.indices.binary_search(&index).is_ok()
    }

    /// Flips bit `index`.
    pub fn flip(&mut self, index: u32) {
        match self.indices.binary_search(&index) {
            Ok(pos) => {
                self.indices.remove(pos);
            }
            Err(pos) => self.indices.insert(pos, index),
        }
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.indices.clear();
    }

    /// XORs `other` into `self` by sorted merge.
    pub fn xor_assign(&mut self, other: &Self) {
        if other.indices.is_empty() {
            return;
        }
        if self.indices.is_empty() {
            self.indices.clone_from(&other.indices);
            return;
        }
        let mut out = Vec::with_capacity(self.indices.len() + other.indices.len());
        let (a, b) = (&self.indices, &other.indices);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        self.indices = out;
    }

    /// Overwrites `out` with the XOR of the packed rows `rows(k)` over
    /// every set bit `k` — the sparse-row half of the paper's sparse
    /// matrix multiplication (§3.2.3): `out = Σ_k B[k]`. An empty vector
    /// writes zeros; otherwise the first row is copied and the rest are
    /// XORed on top, so `out`'s previous contents are never read.
    ///
    /// # Panics
    ///
    /// Panics if `rows(k)` yields a slice shorter than `out`.
    pub fn gather_rows_into<'a>(&self, mut rows: impl FnMut(u32) -> &'a [Word], out: &mut [Word]) {
        let Some((&first, rest)) = self.indices.split_first() else {
            out.fill(0);
            return;
        };
        out.copy_from_slice(&rows(first)[..out.len()]);
        for &k in rest {
            for (d, s) in out.iter_mut().zip(rows(k)) {
                *d ^= *s;
            }
        }
    }

    /// Parity of the bits of `assignment` selected by this vector — i.e. the
    /// value of the XOR expression under a concrete assignment.
    ///
    /// # Panics
    ///
    /// Panics if any set index is out of range of `assignment`.
    pub fn eval(&self, assignment: &BitVec) -> bool {
        self.indices
            .iter()
            .fold(false, |acc, &i| acc ^ assignment.get(i as usize))
    }

    /// Largest set index, if any.
    pub fn max_index(&self) -> Option<u32> {
        self.indices.last().copied()
    }
}

impl fmt::Debug for SparseBitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SparseBitVec{:?}", self.indices)
    }
}

impl FromIterator<u32> for SparseBitVec {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        Self::from_indices(iter)
    }
}

/// A matrix whose rows are [`SparseBitVec`]s — the measurement matrix of
/// Algorithm 1 in its sparse form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SparseRowMatrix {
    rows: Vec<SparseBitVec>,
    cols: usize,
}

impl SparseRowMatrix {
    /// Creates an empty matrix with a fixed column count.
    pub fn new(cols: usize) -> Self {
        Self {
            rows: Vec::new(),
            cols,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Grows the column count (columns are only ever appended).
    pub fn grow_cols(&mut self, cols: usize) {
        assert!(cols >= self.cols, "column count cannot shrink");
        self.cols = cols;
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row references a column `>= cols()`.
    pub fn push_row(&mut self, row: SparseBitVec) {
        if let Some(max) = row.max_index() {
            assert!(
                (max as usize) < self.cols,
                "row index {max} exceeds {} cols",
                self.cols
            );
        }
        self.rows.push(row);
    }

    /// Borrows row `r`.
    pub fn row(&self, r: usize) -> &SparseBitVec {
        &self.rows[r]
    }

    /// Iterates over rows.
    pub fn iter(&self) -> std::slice::Iter<'_, SparseBitVec> {
        self.rows.iter()
    }

    /// Total set bits across rows.
    pub fn count_ones(&self) -> usize {
        self.rows.iter().map(SparseBitVec::count_ones).sum()
    }

    /// Converts to a dense [`crate::BitMatrix`].
    pub fn to_dense(&self) -> crate::BitMatrix {
        let mut m = crate::BitMatrix::zeros(self.rows.len(), self.cols);
        for (r, row) in self.rows.iter().enumerate() {
            for &c in row.indices() {
                m.set(r, c as usize, true);
            }
        }
        m
    }

    /// Sparse × dense product against a row-major packed `B` matrix whose
    /// row `k` is `b.row(k)`: output row `r` = XOR of `B` rows selected by
    /// sparse row `r`. This is the paper's sparse sampling multiplication
    /// with 64 shots processed per word.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != self.cols()`.
    pub fn mul_dense(&self, b: &crate::BitMatrix) -> crate::BitMatrix {
        let mut out = crate::BitMatrix::zeros(self.rows.len(), b.cols());
        self.mul_dense_overwrite(b, &mut out, 0);
        out
    }

    /// Like [`SparseRowMatrix::mul_dense`], but writes the product over a
    /// word-aligned column window of an existing output matrix (used for
    /// shot-batched sampling without intermediate allocations). The
    /// window's previous contents are overwritten, never read; the rest
    /// of `out` is untouched.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if the window does not fit.
    pub fn mul_dense_overwrite(
        &self,
        b: &crate::BitMatrix,
        out: &mut crate::BitMatrix,
        col_word_offset: usize,
    ) {
        assert_eq!(
            b.rows(),
            self.cols,
            "dimension mismatch in mul_dense_overwrite"
        );
        assert_eq!(out.rows(), self.rows.len(), "output row count mismatch");
        let bstride = b.stride();
        let ostride = out.stride();
        assert!(col_word_offset + bstride <= ostride, "window out of range");
        for (r, row) in self.rows.iter().enumerate() {
            let start = r * ostride + col_word_offset;
            let dst = &mut out.words_mut()[start..start + bstride];
            row.gather_rows_into(|k| b.row(k as usize), dst);
        }
    }

    /// One row per set of `sets`: the XOR of the rows it names (a row
    /// named twice cancels). Each row is stored at its exact length, as
    /// sums of long rows are often short.
    pub fn sums<S: IntoIterator<Item = usize>>(&self, sets: impl IntoIterator<Item = S>) -> Self {
        let mut out = Self::new(self.cols);
        let mut acc = SparseBitVec::new();
        for set in sets {
            acc.clear();
            for r in set {
                acc.xor_assign(&self.rows[r]);
            }
            out.rows.push(acc.clone());
        }
        out
    }
}

/// The columns of a sparse row matrix after a column map: per column, the
/// rows it appears in, ascending. Built by a counting sort into the
/// `cols + 1` column offsets and one buffer of row lists.
#[derive(Clone, Debug)]
pub struct SparseColumns {
    start: Vec<u32>,
    rows: Vec<u32>,
}

impl SparseColumns {
    /// The `cols` columns of `m` after mapping each row's indices by
    /// `column` (`Some` keeps them; indices it maps to `None` drop out).
    /// No two indices of one row may map to the same column.
    ///
    /// # Panics
    ///
    /// Panics if `m` holds 2³² or more set bits, or if `column` maps an
    /// index to a column `>= cols`.
    pub fn of(m: &SparseRowMatrix, cols: usize, column: impl Fn(u32) -> Option<u32>) -> Self {
        u32::try_from(m.count_ones()).expect("sparse columns are indexed by u32");
        let mut start = vec![0u32; cols + 1];
        for row in m.iter() {
            for c in row.indices().iter().filter_map(|&i| column(i)) {
                start[c as usize + 1] += 1;
            }
        }
        for c in 0..cols {
            start[c + 1] += start[c];
        }
        let mut rows = vec![0u32; start[cols] as usize];
        for (r, row) in m.iter().enumerate() {
            for c in row.indices().iter().filter_map(|&i| column(i)) {
                rows[start[c as usize] as usize] = r as u32;
                start[c as usize] += 1;
            }
        }
        // Each `start[c]` advanced to its column's end, the next start.
        start.copy_within(0..cols, 1);
        start[0] = 0;
        Self { start, rows }
    }

    /// The rows column `c` appears in, ascending.
    pub fn column(&self, c: u32) -> &[u32] {
        &self.rows[self.start[c as usize] as usize..self.start[c as usize + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_indices_sorts_and_cancels() {
        let v = SparseBitVec::from_indices([9, 1, 5, 9, 9]);
        assert_eq!(v.indices(), &[1, 5, 9]);
        let v = SparseBitVec::from_indices([2, 2]);
        assert!(v.is_zero());
    }

    #[test]
    fn xor_assign_merges() {
        let mut a = SparseBitVec::from_indices([0, 3, 7]);
        a.xor_assign(&SparseBitVec::from_indices([3, 4]));
        assert_eq!(a.indices(), &[0, 4, 7]);
        a.xor_assign(&SparseBitVec::new());
        assert_eq!(a.indices(), &[0, 4, 7]);
        let mut e = SparseBitVec::new();
        e.xor_assign(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn xor_is_involution() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = BitVec::random(200, &mut rng);
        let b = BitVec::random(200, &mut rng);
        let sa = SparseBitVec::from_bitvec(&a);
        let sb = SparseBitVec::from_bitvec(&b);
        let mut x = sa.clone();
        x.xor_assign(&sb);
        x.xor_assign(&sb);
        assert_eq!(x, sa);
    }

    #[test]
    fn dense_roundtrip_matches_dense_xor() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut a = BitVec::random(150, &mut rng);
        let b = BitVec::random(150, &mut rng);
        let mut sa = SparseBitVec::from_bitvec(&a);
        let sb = SparseBitVec::from_bitvec(&b);
        sa.xor_assign(&sb);
        a.xor_assign(&b);
        assert_eq!(sa.to_bitvec(150), a);
    }

    #[test]
    fn flip_get() {
        let mut v = SparseBitVec::new();
        v.flip(10);
        assert!(v.get(10));
        v.flip(5);
        assert_eq!(v.indices(), &[5, 10]);
        v.flip(10);
        assert_eq!(v.indices(), &[5]);
    }

    #[test]
    fn eval_computes_expression_value() {
        let v = SparseBitVec::from_indices([0, 2]);
        let assign = BitVec::from_bools([true, true, false]);
        assert!(v.eval(&assign)); // 1 ⊕ 0
        let assign = BitVec::from_bools([true, true, true]);
        assert!(!v.eval(&assign)); // 1 ⊕ 1
    }

    #[test]
    fn sparse_mul_matches_dense_mul() {
        let mut rng = StdRng::seed_from_u64(12);
        let dense_m = BitMatrix::random(23, 45, &mut rng);
        let mut sparse_m = SparseRowMatrix::new(45);
        for r in 0..23 {
            sparse_m.push_row(SparseBitVec::from_bitvec(&dense_m.row_bitvec(r)));
        }
        let b = BitMatrix::random(45, 130, &mut rng);
        assert_eq!(sparse_m.mul_dense(&b), dense_m.mul(&b));
        assert_eq!(sparse_m.to_dense(), dense_m);
    }

    #[test]
    fn sums_and_columns_match_dense_references() {
        let mut rng = StdRng::seed_from_u64(13);
        let dense_m = BitMatrix::random(17, 40, &mut rng);
        let mut m = SparseRowMatrix::new(40);
        for r in 0..17 {
            m.push_row(SparseBitVec::from_bitvec(&dense_m.row_bitvec(r)));
        }
        let sets = [vec![], vec![3], vec![0, 5, 16], vec![2, 2, 7]];
        let sums = m.sums(sets.iter().map(|s| s.iter().copied()));
        for (set, row) in sets.iter().zip(sums.iter()) {
            let mut want = SparseBitVec::new();
            for &r in set {
                want.xor_assign(m.row(r));
            }
            assert_eq!(row, &want);
            assert_eq!(row.indices.capacity(), row.count_ones(), "stored exactly");
        }
        // Odd columns fold onto their even neighbour's half; even ones drop.
        let columns = SparseColumns::of(&m, 20, |c| (c % 2 == 1).then_some(c / 2));
        for c in 0..20u32 {
            let want: Vec<u32> = (0..17)
                .filter(|&r| dense_m.get(r as usize, 2 * c as usize + 1))
                .collect();
            assert_eq!(columns.column(c), want, "column {c}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn push_row_validates_cols() {
        let mut m = SparseRowMatrix::new(4);
        m.push_row(SparseBitVec::singleton(4));
    }

    #[test]
    fn word_bits_constant_is_64() {
        // The sparse×dense batching assumes 64 shots per word.
        assert_eq!(WORD_BITS, 64);
    }
}
