//! Symbolic phase stores: the tableau columns of paper Eq. (3).
//!
//! Both stores keep the constant term (column `s₀`) as a plain bit-vector so
//! Clifford gates stay word-parallel, and differ in how they hold the
//! symbol coefficients of each row:
//!
//! * [`DensePhases`] — a packed bit-row per tracked tableau row (grown
//!   geometrically as symbols appear): faithful to the paper's bit-matrix
//!   picture.
//! * [`SparsePhases`] — a sorted symbol list per row: per-row XOR cost
//!   proportional to the number of symbols actually present, which stays
//!   tiny for QEC-style circuits (the "sparse circuits" case of Table 1).

use symphase_bitmat::word::{count_ones, xor_into};
use symphase_bitmat::{simd, BitVec, SparseBitVec, WORD_BITS};
use symphase_circuit::CircuitStats;
use symphase_tableau::{add_constant_into_mask, PhaseStore};

use crate::symbol::{SymbolId, ENTRY_BYTES};

/// Extension of [`PhaseStore`] with symbol-coefficient operations (paper
/// Init-P and Init-M).
pub trait SymbolicPhases: PhaseStore {
    /// Makes room for symbol ids up to and including `max_id`.
    fn ensure_symbol_capacity(&mut self, max_id: SymbolId);

    /// Sizes the store up front for `count` symbols (see
    /// `symbol_bound`), so it need not grow while the circuit is
    /// traversed. A hint: symbols past `count` still fit through
    /// [`Self::ensure_symbol_capacity`], and stores may decline.
    fn reserve_symbols(&mut self, count: usize);

    /// Declares rows below `first_tracked` as *untracked*: their symbol
    /// coefficients are never read, so stores may skip maintaining them.
    ///
    /// The engine marks the destabilizer rows (`0..n`) untracked — their
    /// phases are irrelevant to measurement outcomes (Aaronson–Gottesman
    /// §III); this roughly halves Initialization's phase work. Constant
    /// terms are still maintained for every row (they are word-cheap).
    /// Untracked rows must never be used as the *source* of
    /// `add_row_into`/`copy_row`; the tableau's measurement control flow
    /// guarantees this (sources are always stabilizer or scratch rows).
    fn set_symbol_tracking_floor(&mut self, first_tracked: usize);

    /// Flips the coefficient of `sym` in every row selected by `mask`
    /// (rows `64·word_index .. 64·word_index+64`) — the effect of a fault
    /// `P^s` on the rows that anticommute with `P`.
    fn xor_symbol_word(&mut self, sym: SymbolId, word_index: usize, mask: u64);

    /// Flips the coefficient of `sym` in every row selected by the
    /// column mask `mask` (bit `r % 64` of word `r / 64` is row `r`): one
    /// call per fault instead of one [`Self::xor_symbol_word`] per word.
    fn xor_symbol_column(&mut self, sym: SymbolId, mask: &[u64]);

    /// XORs a whole record row (index 0 the constant term, then symbol
    /// ids) into the phases of every row selected by `mask` — the effect
    /// of a classically-controlled Pauli `P^e` (paper §6 dynamic
    /// circuits).
    fn xor_record_word(&mut self, record: &SparseBitVec, word_index: usize, mask: u64);

    /// Extracts the full symbolic phase of `row` as a record row: index 0
    /// the constant term, then its symbol ids.
    fn record_row(&self, row: usize) -> SparseBitVec;
}

// ---------------------------------------------------------------------------
// Dense store
// ---------------------------------------------------------------------------

/// Dense symbolic phases: per-row packed coefficient words (symbol `k` at
/// bit `k−1`), plus a shared constant-term bit-vector.
///
/// Only tracked rows (see [`SymbolicPhases::set_symbol_tracking_floor`])
/// hold symbol words. Row operations touch only the *active prefix* of
/// each row — the words the symbols allocated so far can occupy — so a
/// stride reserved up front for the whole circuit
/// ([`SymbolicPhases::reserve_symbols`]) costs nothing until its symbols
/// appear. Words past the active prefix stay zero in every row.
///
/// Each row also keeps a *start word*: every word below it is zero. A row
/// cleared at a random collapse restarts from its fresh coin's word, so
/// the row additions of later collapses XOR only the recent words of
/// their pivot rather than the whole prefix. The bound is conservative:
/// cancellation never raises it.
///
/// Noise faults flip one symbol bit in many rows. Those flips are
/// batched: they accumulate as row masks in a 64-symbol pending block for
/// one symbol word, which is transposed into the rows before anything
/// else rewrites them (`record_row` folds a row's pending bits in instead).
/// A flip of a single row, such as a coin, is written directly.
#[derive(Clone, Debug)]
pub struct DensePhases {
    constants: BitVec,
    rows: usize,
    /// Words per row of the symbol block.
    stride: usize,
    /// Words per row that can hold a nonzero coefficient (`≤ stride`).
    active: usize,
    /// `sym[(row - first_tracked) * stride ..][..stride]`, tracked rows only.
    sym: Vec<u64>,
    /// Per tracked row, the lowest word that may be nonzero (`EMPTY`: none).
    first: Vec<usize>,
    /// Rows below this index skip symbol maintenance and hold no words.
    first_tracked: usize,
    /// Pending flips in symbol word `open`, column-major:
    /// `pend[bit * row_words + w]` selects the rows of row word `w` whose
    /// symbol `64·open + bit + 1` flips.
    pend: Vec<u64>,
    /// Per row word, the rows with any pending flip.
    pend_rows: Vec<u64>,
    /// The symbol word the pending flips belong to (`None`: nothing pending).
    open: Option<usize>,
}

/// Row adds start on a multiple of this many words (one AVX-512 vector).
const XOR_ALIGN: usize = 8;

/// The start word of a row with no nonzero word.
const EMPTY: usize = usize::MAX;

/// Largest symbol block [`DensePhases`] reserves up front. A bigger bound
/// (a long `REPEAT`) falls back to growing as its symbols appear, so
/// memory is only paid for symbols the traversal actually reaches.
const MAX_RESERVED_BYTES: usize = 1 << 30;

impl DensePhases {
    /// Re-lays the symbol block out at `new_stride` words per row.
    fn set_stride(&mut self, new_stride: usize) {
        debug_assert!(self.open.is_none(), "flips pending across a re-layout");
        let (stride, active) = (self.stride, self.active);
        let mut new_sym = vec![0u64; self.first.len() * new_stride];
        for (t, &from) in self.first.iter().enumerate() {
            if from < active {
                new_sym[t * new_stride + from..t * new_stride + active]
                    .copy_from_slice(&self.sym[t * stride + from..t * stride + active]);
            }
        }
        self.sym = new_sym;
        self.stride = new_stride;
    }

    /// Applies the pending flips: one 64×64 transpose per row word with a
    /// pending row, then one word XOR per row whose flips did not cancel.
    fn flush(&mut self) {
        let Some(sw) = self.open.take() else {
            return;
        };
        let kernels = simd::kernels();
        let row_words = self.pend_rows.len();
        for w in 0..row_words {
            let rows = std::mem::take(&mut self.pend_rows[w]);
            if rows == 0 {
                continue;
            }
            let mut block = [0u64; WORD_BITS];
            for (bit, word) in block.iter_mut().enumerate() {
                *word = std::mem::take(&mut self.pend[bit * row_words + w]);
            }
            // Row `b` of the transposed block holds row `64w + b`'s flips.
            kernels.transpose_64x64(&mut block);
            let mut m = rows;
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                if block[b] != 0 {
                    let t = w * WORD_BITS + b - self.first_tracked;
                    self.sym[t * self.stride + sw] ^= block[b];
                    self.first[t] = self.first[t].min(sw);
                }
            }
        }
    }

    /// `row`'s pending flips as `(symbol word, flips)`, if it has any.
    fn pending_word(&self, row: usize) -> Option<(usize, u64)> {
        let sw = self.open?;
        let (w, b) = (row / WORD_BITS, row % WORD_BITS);
        if (self.pend_rows[w] >> b) & 1 == 0 {
            return None;
        }
        let row_words = self.pend_rows.len();
        let flips = (0..WORD_BITS).fold(0u64, |acc, bit| {
            acc | ((self.pend[bit * row_words + w] >> b) & 1) << bit
        });
        Some((sw, flips))
    }
}

impl PhaseStore for DensePhases {
    fn with_rows(rows: usize) -> Self {
        let row_words = rows.div_ceil(WORD_BITS);
        Self {
            constants: BitVec::zeros(rows),
            rows,
            stride: 0,
            active: 0,
            sym: Vec::new(),
            first: vec![EMPTY; rows],
            first_tracked: 0,
            pend: vec![0; WORD_BITS * row_words],
            pend_rows: vec![0; row_words],
            open: None,
        }
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn constant_words(&self) -> &[u64] {
        self.constants.words()
    }

    fn constant_words_mut(&mut self) -> &mut [u64] {
        self.constants.words_mut()
    }

    fn add_row_into(&mut self, src: usize, dst: usize, extra_constant: bool) {
        let c = self.constants.get(dst) ^ self.constants.get(src) ^ extra_constant;
        self.constants.set(dst, c);
        if dst < self.first_tracked {
            return;
        }
        debug_assert!(src >= self.first_tracked, "untracked row used as source");
        self.flush();
        let (s, d) = (src - self.first_tracked, dst - self.first_tracked);
        let (from, active) = (self.first[s], self.active);
        if from >= active {
            return;
        }
        self.first[d] = self.first[d].min(from);
        // Round the start down to whole vectors: the words below `from`
        // are zero, and the kernel then leaves only the tail at `active`
        // to word-at-a-time XORs, as on the full prefix.
        let from = from & !(XOR_ALIGN - 1);
        let (s_off, d_off) = (s * self.stride, d * self.stride);
        if s_off < d_off {
            let (lo, hi) = self.sym.split_at_mut(d_off);
            xor_into(&mut hi[from..active], &lo[s_off + from..s_off + active]);
        } else {
            let (lo, hi) = self.sym.split_at_mut(s_off);
            xor_into(&mut lo[d_off + from..d_off + active], &hi[from..active]);
        }
    }

    fn add_row_into_mask(&mut self, src: usize, rows: &[u64], extra: &[u64]) {
        add_constant_into_mask(self.constants.words_mut(), src, rows, extra);
        let floor = self.first_tracked;
        if !(0..rows.len()).any(|w| tracked_mask(rows[w], w, floor) != 0) {
            return;
        }
        debug_assert!(src >= floor, "untracked row used as source");
        self.flush();
        let s = src - floor;
        let (from, active) = (self.first[s], self.active);
        if from >= active {
            return;
        }
        // As in `add_row_into`: whole vectors from the source's start word.
        let aligned = from & !(XOR_ALIGN - 1);
        let kernels = simd::kernels();
        let (stride, sym, first) = (self.stride, &mut self.sym, &mut self.first);
        let src_row = s * stride + aligned..s * stride + active;
        for (w, &m) in rows.iter().enumerate() {
            let mut m = tracked_mask(m, w, floor);
            while m != 0 {
                let d = w * WORD_BITS + m.trailing_zeros() as usize - floor;
                m &= m - 1;
                first[d] = first[d].min(from);
                let d_off = d * stride;
                if d < s {
                    let (lo, hi) = sym.split_at_mut(src_row.start);
                    kernels.xor_into(
                        &mut lo[d_off + aligned..d_off + active],
                        &hi[..active - aligned],
                    );
                } else {
                    let (lo, hi) = sym.split_at_mut(d_off);
                    kernels.xor_into(&mut hi[aligned..active], &lo[src_row.clone()]);
                }
            }
        }
    }

    fn copy_row(&mut self, src: usize, dst: usize) {
        let c = self.constants.get(src);
        self.constants.set(dst, c);
        if dst < self.first_tracked {
            return;
        }
        debug_assert!(src >= self.first_tracked, "untracked row used as source");
        self.flush();
        let (s, d) = (src - self.first_tracked, dst - self.first_tracked);
        let from = self.first[s].min(self.first[d]);
        if from < self.active {
            let stride = self.stride;
            self.sym.copy_within(
                s * stride + from..s * stride + self.active,
                d * stride + from,
            );
        }
        self.first[d] = self.first[s];
    }

    fn clear_row(&mut self, row: usize) {
        self.constants.set(row, false);
        if row < self.first_tracked {
            return;
        }
        self.flush();
        let t = row - self.first_tracked;
        let from = self.first[t];
        if from < self.active {
            self.sym[t * self.stride + from..t * self.stride + self.active].fill(0);
        }
        self.first[t] = EMPTY;
    }
}

impl SymbolicPhases for DensePhases {
    fn ensure_symbol_capacity(&mut self, max_id: SymbolId) {
        let needed_words = (max_id as usize).div_ceil(WORD_BITS);
        if needed_words > self.stride {
            self.flush();
            self.set_stride(needed_words.max(self.stride * 2));
        }
        self.active = self.active.max(needed_words);
    }

    fn reserve_symbols(&mut self, count: usize) {
        let words = count.div_ceil(WORD_BITS);
        let fits = words
            .checked_mul(self.first.len() * std::mem::size_of::<u64>())
            .is_some_and(|bytes| bytes <= MAX_RESERVED_BYTES);
        if words > self.stride && fits {
            self.flush();
            self.set_stride(words);
        }
    }

    fn set_symbol_tracking_floor(&mut self, first_tracked: usize) {
        debug_assert!(
            self.stride == 0,
            "set the tracking floor before symbols are reserved"
        );
        self.first_tracked = first_tracked;
        self.first = vec![EMPTY; self.rows.saturating_sub(first_tracked)];
    }

    fn xor_symbol_word(&mut self, sym: SymbolId, word_index: usize, mask: u64) {
        debug_assert!(sym >= 1);
        let m = tracked_mask(mask, word_index, self.first_tracked);
        if m == 0 {
            return;
        }
        let bit = (sym - 1) as usize;
        let (sw, sb) = (bit / WORD_BITS, bit % WORD_BITS);
        debug_assert!(sw < self.active, "symbol past the active prefix");
        if m & (m - 1) == 0 {
            // One row (a coin, or a fault on one generator): a direct
            // write is cheaper than a transpose, and XOR commutes with
            // whatever is pending.
            let t = word_index * WORD_BITS + m.trailing_zeros() as usize - self.first_tracked;
            self.sym[t * self.stride + sw] ^= 1 << sb;
            self.first[t] = self.first[t].min(sw);
            return;
        }
        if self.open != Some(sw) {
            self.flush();
            self.open = Some(sw);
        }
        self.pend[sb * self.pend_rows.len() + word_index] ^= m;
        self.pend_rows[word_index] |= m;
    }

    fn xor_symbol_column(&mut self, sym: SymbolId, mask: &[u64]) {
        debug_assert!(sym >= 1);
        // The first word with a tracked row; it may hold untracked ones.
        let lo = self.first_tracked / WORD_BITS;
        if lo >= mask.len() {
            return;
        }
        let tracked = |w: usize| tracked_mask(mask[w], w, self.first_tracked);
        let partial = tracked(lo);
        let ones = partial.count_ones() as usize + count_ones(&mask[lo + 1..]);
        if ones <= 1 {
            // No row, or one: the word call writes it directly.
            if let Some(w) = (lo..mask.len()).find(|&w| tracked(w) != 0) {
                self.xor_symbol_word(sym, w, tracked(w));
            }
            return;
        }
        let bit = (sym - 1) as usize;
        let (sw, sb) = (bit / WORD_BITS, bit % WORD_BITS);
        debug_assert!(sw < self.active, "symbol past the active prefix");
        if self.open != Some(sw) {
            self.flush();
            self.open = Some(sw);
        }
        let row_words = self.pend_rows.len();
        let pend = &mut self.pend[sb * row_words..(sb + 1) * row_words];
        pend[lo] ^= partial;
        self.pend_rows[lo] |= partial;
        simd::kernels().xor_or_into(
            &mut pend[lo + 1..],
            &mut self.pend_rows[lo + 1..],
            &mask[lo + 1..],
        );
    }

    fn xor_record_word(&mut self, record: &SparseBitVec, word_index: usize, mask: u64) {
        let ids = split_constant(record, &mut self.constants.words_mut()[word_index], mask);
        let mut m = tracked_mask(mask, word_index, self.first_tracked);
        let Some(&lowest) = ids.first() else {
            return;
        };
        if m == 0 {
            return;
        }
        self.flush();
        let low_word = (lowest - 1) as usize / WORD_BITS;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            let t = word_index * WORD_BITS + b - self.first_tracked;
            let row = &mut self.sym[t * self.stride..(t + 1) * self.stride];
            for &id in ids {
                let bit = (id - 1) as usize;
                row[bit / WORD_BITS] ^= 1 << (bit % WORD_BITS);
            }
            self.first[t] = self.first[t].min(low_word);
        }
    }

    fn record_row(&self, row: usize) -> SparseBitVec {
        let constant = self.constants.get(row).then_some(0);
        if row < self.first_tracked {
            return SparseBitVec::from_sorted(Vec::from_iter(constant));
        }
        let t = row - self.first_tracked;
        let pending = self.pending_word(row);
        let from = pending.map_or(self.first[t], |(sw, _)| self.first[t].min(sw));
        let word = |w: usize| match pending {
            Some((sw, flips)) if sw == w => self.sym[t * self.stride + w] ^ flips,
            _ => self.sym[t * self.stride + w],
        };
        // Sized exactly: a record row lives as long as the records.
        let ones: u32 = (from..self.active).map(|w| word(w).count_ones()).sum();
        let mut ids = Vec::with_capacity(ones as usize + 1);
        ids.extend(constant);
        for w in from..self.active {
            let mut bits = word(w);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                ids.push((w * WORD_BITS + b + 1) as u32);
            }
        }
        SparseBitVec::from_sorted(ids)
    }
}

// ---------------------------------------------------------------------------
// Sparse store
// ---------------------------------------------------------------------------

/// Sparse symbolic phases: a sorted symbol-id list per row.
#[derive(Clone, Debug)]
pub struct SparsePhases {
    constants: BitVec,
    rows: Vec<SparseBitVec>,
    /// Rows below this index skip symbol maintenance.
    first_tracked: usize,
}

impl PhaseStore for SparsePhases {
    fn with_rows(rows: usize) -> Self {
        Self {
            constants: BitVec::zeros(rows),
            rows: vec![SparseBitVec::new(); rows],
            first_tracked: 0,
        }
    }

    fn rows(&self) -> usize {
        self.rows.len()
    }

    fn constant_words(&self) -> &[u64] {
        self.constants.words()
    }

    fn constant_words_mut(&mut self) -> &mut [u64] {
        self.constants.words_mut()
    }

    fn add_row_into(&mut self, src: usize, dst: usize, extra_constant: bool) {
        let c = self.constants.get(dst) ^ self.constants.get(src) ^ extra_constant;
        self.constants.set(dst, c);
        if dst < self.first_tracked {
            return;
        }
        debug_assert!(src >= self.first_tracked, "untracked row used as source");
        debug_assert_ne!(src, dst);
        self.xor_symbols(src, dst);
    }

    fn add_row_into_mask(&mut self, src: usize, rows: &[u64], extra: &[u64]) {
        add_constant_into_mask(self.constants.words_mut(), src, rows, extra);
        for (w, &m) in rows.iter().enumerate() {
            let mut m = tracked_mask(m, w, self.first_tracked);
            while m != 0 {
                debug_assert!(src >= self.first_tracked, "untracked row used as source");
                self.xor_symbols(src, w * WORD_BITS + m.trailing_zeros() as usize);
                m &= m - 1;
            }
        }
    }

    fn copy_row(&mut self, src: usize, dst: usize) {
        let c = self.constants.get(src);
        self.constants.set(dst, c);
        if dst < self.first_tracked {
            return;
        }
        let row = self.rows[src].clone();
        self.rows[dst] = row;
    }

    fn clear_row(&mut self, row: usize) {
        self.constants.set(row, false);
        self.rows[row].clear();
    }
}

impl SparsePhases {
    /// Row `dst`'s symbols XOR row `src`'s.
    fn xor_symbols(&mut self, src: usize, dst: usize) {
        debug_assert_ne!(src, dst);
        let (a, b) = (src.min(dst), src.max(dst));
        let (lo, hi) = self.rows.split_at_mut(b);
        if src < dst {
            hi[0].xor_assign(&lo[a]);
        } else {
            lo[a].xor_assign(&hi[0]);
        }
    }
}

impl SymbolicPhases for SparsePhases {
    fn ensure_symbol_capacity(&mut self, _max_id: SymbolId) {}

    fn reserve_symbols(&mut self, _count: usize) {}

    fn set_symbol_tracking_floor(&mut self, first_tracked: usize) {
        self.first_tracked = first_tracked;
    }

    fn xor_symbol_word(&mut self, sym: SymbolId, word_index: usize, mask: u64) {
        debug_assert!(sym >= 1);
        let mut m = tracked_mask(mask, word_index, self.first_tracked);
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            self.rows[word_index * WORD_BITS + b].flip(sym);
        }
    }

    fn xor_symbol_column(&mut self, sym: SymbolId, mask: &[u64]) {
        for (w, &m) in mask.iter().enumerate() {
            self.xor_symbol_word(sym, w, m);
        }
    }

    fn xor_record_word(&mut self, record: &SparseBitVec, word_index: usize, mask: u64) {
        let ids = split_constant(record, &mut self.constants.words_mut()[word_index], mask);
        let sym_part = SparseBitVec::from_sorted(ids.to_vec());
        let mut m = tracked_mask(mask, word_index, self.first_tracked);
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            self.rows[word_index * WORD_BITS + b].xor_assign(&sym_part);
        }
    }

    fn record_row(&self, row: usize) -> SparseBitVec {
        let symbols = self.rows[row].indices();
        let mut ids = Vec::with_capacity(symbols.len() + 1);
        ids.extend(self.constants.get(row).then_some(0));
        ids.extend_from_slice(symbols);
        SparseBitVec::from_sorted(ids)
    }
}

/// A record row's symbol ids; its constant term, if set, is applied to
/// `constants` (one word of a store's constant column) under `mask`.
fn split_constant<'a>(record: &'a SparseBitVec, constants: &mut u64, mask: u64) -> &'a [u32] {
    match record.indices() {
        [0, ids @ ..] => {
            *constants ^= mask;
            ids
        }
        ids => ids,
    }
}

/// An upper bound on the symbols Initialization allocates for a circuit
/// with these statistics: every noise symbol, plus at most one coin per
/// measurement or reset. `None` when a count saturated (a `REPEAT` trip
/// count too large to multiply out), so no store is sized from it.
pub fn symbol_bound(stats: &CircuitStats) -> Option<usize> {
    saturating_sum([stats.noise_symbols, stats.measurements, stats.resets])
}

/// An upper bound on the symbol groups Initialization records, by the
/// same rule as [`symbol_bound`]: one group per noise site, plus at most
/// one coin per measurement or reset. `None` when a count saturated or
/// when the groups' entries would take more than the dense store's
/// reservation cap, so the symbol table is only sized up front for
/// circuits it fits.
pub(crate) fn group_bound(stats: &CircuitStats) -> Option<usize> {
    saturating_sum([stats.noise_sites, stats.measurements, stats.resets]).filter(|&groups| {
        groups
            .checked_mul(ENTRY_BYTES)
            .is_some_and(|bytes| bytes <= MAX_RESERVED_BYTES)
    })
}

/// The sum of `counts`, or `None` if one saturated or the sum overflows.
fn saturating_sum(counts: [usize; 3]) -> Option<usize> {
    if counts.contains(&usize::MAX) {
        return None;
    }
    counts.into_iter().try_fold(0usize, usize::checked_add)
}

/// Clears the bits of `mask` that select rows below `first_tracked`.
#[inline]
fn tracked_mask(mask: u64, word_index: usize, first_tracked: usize) -> u64 {
    let word_start = word_index * WORD_BITS;
    if word_start >= first_tracked {
        mask
    } else if word_start + WORD_BITS <= first_tracked {
        0
    } else {
        mask & (!0u64 << (first_tracked - word_start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::expr::SymExpr;

    /// The symbolic phase of `row` as an expression.
    fn row_expr<S: SymbolicPhases>(store: &S, row: usize) -> SymExpr {
        SymExpr::from_sparse_row(&store.record_row(row))
    }

    fn exercise<S: SymbolicPhases + Clone>(mut store: S) {
        store.ensure_symbol_capacity(80);
        // Attach s3 to rows 0 and 65, s80 to row 0.
        store.xor_symbol_word(3, 0, 0b1);
        store.xor_symbol_word(3, 1, 0b10); // row 65
        store.xor_symbol_word(80, 0, 0b1);
        assert_eq!(row_expr(&store, 0).symbol_ids(), &[3, 80]);
        assert_eq!(row_expr(&store, 65).symbol_ids(), &[3]);
        assert!(row_expr(&store, 1).is_zero());

        // Row multiplication mixes symbol parts and constants.
        store.set_constant_bit(65, true);
        store.add_row_into(65, 0, true);
        // row0: {3, 80} ⊕ {3} = {80}; const: 0 ⊕ 1 ⊕ 1 = 0.
        let e = row_expr(&store, 0);
        assert_eq!(e.symbol_ids(), &[80]);
        assert!(!e.constant_term());

        // Copy and clear.
        store.copy_row(65, 2);
        assert_eq!(row_expr(&store, 2).symbol_ids(), &[3]);
        assert!(row_expr(&store, 2).constant_term());
        store.clear_row(2);
        assert!(row_expr(&store, 2).is_zero());

        // Expression application.
        let mut expr = SymExpr::from_symbols([5, 9]);
        expr.xor_constant(true);
        store.xor_record_word(&expr.to_sparse_row(), 0, 0b100); // row 2
        let e = row_expr(&store, 2);
        assert_eq!(e.symbol_ids(), &[5, 9]);
        assert!(e.constant_term());

        // Constant-word flips.
        store.xor_constant_word(0, 0b100);
        assert!(!row_expr(&store, 2).constant_term());
    }

    #[test]
    fn dense_store_behaviour() {
        exercise(DensePhases::with_rows(130));
    }

    #[test]
    fn sparse_store_behaviour() {
        exercise(SparsePhases::with_rows(130));
    }

    #[test]
    fn dense_growth_preserves_contents() {
        let mut d = DensePhases::with_rows(4);
        d.ensure_symbol_capacity(1);
        d.xor_symbol_word(1, 0, 0b1);
        d.ensure_symbol_capacity(5000);
        d.xor_symbol_word(5000, 0, 0b1);
        assert_eq!(row_expr(&d, 0).symbol_ids(), &[1, 5000]);
    }

    /// One store operation, drawn once and applied to every store compared.
    #[derive(Clone, Debug)]
    enum Op {
        Flip(SymbolId, usize, u64),
        Expr(SymExpr, usize, u64),
        Constant(usize, u64),
        Add(usize, usize, bool),
        Copy(usize, usize),
        Clear(usize),
        ClearThenAdd(usize, usize, bool),
    }

    impl Op {
        /// A random operation on `rows` rows with symbols `1..=max_sym`.
        /// Row operations read only rows at or above `floor`, as the
        /// tableau's do.
        fn random(rng: &mut impl Rng, rows: usize, floor: usize, max_sym: u32) -> Self {
            let w = rng.random_range(0..rows.div_ceil(WORD_BITS));
            let valid = (rows - w * WORD_BITS).min(WORD_BITS);
            let mask = rng.next_u64() & (!0 >> (WORD_BITS - valid));
            let src = rng.random_range(floor..rows);
            let dst = (src + rng.random_range(1..rows)) % rows;
            match rng.random_range(0..10) {
                0..=1 => Op::Flip(rng.random_range(1..=max_sym), w, mask),
                // One row, as a coin or a fault on one generator flips.
                2..=3 => Op::Flip(
                    rng.random_range(1..=max_sym),
                    w,
                    1 << rng.random_range(0..valid),
                ),
                4 => {
                    let mut e =
                        SymExpr::from_symbols((0..3).map(|_| rng.random_range(1..=max_sym)));
                    e.xor_constant(rng.random());
                    Op::Expr(e, w, mask)
                }
                5 => Op::Constant(w, mask),
                6 => Op::Add(src, dst, rng.random()),
                7 => Op::Copy(src, dst),
                8 => Op::Clear(dst),
                _ => Op::ClearThenAdd(dst, src, rng.random()),
            }
        }

        fn apply<S: SymbolicPhases>(&self, s: &mut S) {
            match *self {
                Op::Flip(sym, w, mask) => {
                    s.ensure_symbol_capacity(sym);
                    s.xor_symbol_word(sym, w, mask);
                }
                Op::Expr(ref e, w, mask) => {
                    if let Some(&max) = e.symbol_ids().last() {
                        s.ensure_symbol_capacity(max);
                    }
                    s.xor_record_word(&e.to_sparse_row(), w, mask);
                }
                Op::Constant(w, mask) => s.xor_constant_word(w, mask),
                Op::Add(src, dst, extra) => s.add_row_into(src, dst, extra),
                Op::Copy(src, dst) => s.copy_row(src, dst),
                Op::Clear(row) => s.clear_row(row),
                Op::ClearThenAdd(row, src, extra) => {
                    s.clear_row(row);
                    s.add_row_into(src, row, extra);
                }
            }
        }
    }

    /// Every word past the active prefix is zero, in every tracked row.
    fn tail_is_zero(d: &DensePhases) -> bool {
        (0..d.first.len()).all(|r| {
            d.sym[r * d.stride + d.active..(r + 1) * d.stride]
                .iter()
                .all(|&w| w == 0)
        })
    }

    #[test]
    fn reserved_store_equals_grown_store() {
        let mut rng = StdRng::seed_from_u64(15);
        let rows = 131;
        let mut grown = DensePhases::with_rows(rows);
        let mut reserved = DensePhases::with_rows(rows);
        reserved.reserve_symbols(700);
        assert_eq!(reserved.stride, 700usize.div_ceil(WORD_BITS));
        assert_eq!(reserved.active, 0);
        // Symbols arrive in increasing order, as in a traversal.
        for step in 0..2000u32 {
            let op = Op::random(&mut rng, rows, 0, 1 + step * 700 / 2000);
            op.apply(&mut grown);
            op.apply(&mut reserved);
        }
        for r in 0..rows {
            assert_eq!(row_expr(&grown, r), row_expr(&reserved, r), "row {r}");
        }
        assert!(tail_is_zero(&grown) && tail_is_zero(&reserved));
    }

    #[test]
    fn symbol_past_the_reservation_still_grows() {
        let mut d = DensePhases::with_rows(5);
        d.reserve_symbols(64);
        d.ensure_symbol_capacity(3);
        d.xor_symbol_word(3, 0, 0b10);
        assert_eq!(d.stride, 1);
        d.ensure_symbol_capacity(200);
        d.xor_symbol_word(200, 0, 0b11);
        assert!(d.stride >= 4 && d.active == 4);
        assert_eq!(row_expr(&d, 0).symbol_ids(), &[200]);
        assert_eq!(row_expr(&d, 1).symbol_ids(), &[3, 200]);
    }

    #[test]
    fn words_past_the_active_prefix_stay_zero() {
        let mut rng = StdRng::seed_from_u64(16);
        let mut d = DensePhases::with_rows(70);
        d.reserve_symbols(64 * 16);
        for _ in 0..1000 {
            Op::random(&mut rng, 70, 0, 150).apply(&mut d);
            assert!(d.active <= 3);
            assert!(tail_is_zero(&d));
        }
    }

    #[test]
    fn reservation_skips_saturated_and_oversized_bounds() {
        use symphase_circuit::{Circuit, NoiseChannel};
        let mut c = Circuit::new(2);
        c.noise(NoiseChannel::Depolarize1(0.1), &[0])
            .measure_many(&[0])
            .reset(1);
        assert_eq!(symbol_bound(&c.stats()), Some(4));
        // A trip count the statistics cannot multiply out saturates them.
        c.repeat_with(u64::MAX, |body| {
            body.noise(NoiseChannel::XError(0.1), &[0])
                .measure_many(&[0]);
        });
        assert_eq!(c.stats().measurements, usize::MAX);
        assert_eq!(symbol_bound(&c.stats()), None);
        assert_eq!(group_bound(&c.stats()), None);
        // A bound past the reservation cap leaves the store to grow.
        let mut d = DensePhases::with_rows(1 << 10);
        d.reserve_symbols(MAX_RESERVED_BYTES);
        assert_eq!(d.stride, 0);
        d.reserve_symbols(64);
        assert_eq!(d.stride, 1);
    }

    #[test]
    fn group_reservation_skips_saturated_and_oversized_stats() {
        let stats = |noise_sites, measurements, resets| CircuitStats {
            noise_sites,
            measurements,
            resets,
            ..CircuitStats::default()
        };
        assert_eq!(group_bound(&stats(5, 3, 2)), Some(10));
        for saturated in [
            stats(usize::MAX, 0, 0),
            stats(0, usize::MAX, 0),
            stats(0, 0, usize::MAX),
        ] {
            assert_eq!(group_bound(&saturated), None);
        }
        assert_eq!(
            group_bound(&stats(usize::MAX - 1, 1, 1)),
            None,
            "sum overflows"
        );
        let cap = MAX_RESERVED_BYTES / ENTRY_BYTES;
        assert_eq!(group_bound(&stats(cap, 0, 0)), Some(cap));
        assert_eq!(group_bound(&stats(cap, 1, 0)), None, "past the byte cap");
    }

    #[test]
    fn stores_agree_on_random_ops() {
        let mut rng = StdRng::seed_from_u64(9);
        let rows = 70;
        let mut dense = DensePhases::with_rows(rows);
        let mut sparse = SparsePhases::with_rows(rows);
        for _ in 0..400 {
            let op = Op::random(&mut rng, rows, 0, 40);
            op.apply(&mut dense);
            op.apply(&mut sparse);
        }
        for r in 0..rows {
            assert_eq!(
                row_expr(&dense, r),
                row_expr(&sparse, r),
                "row {r} diverged"
            );
        }
    }

    /// A store fed the batched calls (`xor_symbol_column`,
    /// `add_row_into_mask`) and its twin fed their per-word and per-row
    /// forms end in the same rows, for masks from empty to dense and with
    /// the tracking floor at zero, mid-word and past a word boundary.
    fn check_batched_calls<S: SymbolicPhases + Clone>(make: impl Fn() -> S, rows: usize) {
        let words = rows.div_ceil(WORD_BITS);
        for (seed, floor) in [(0u64, 0usize), (1, rows / 2), (2, 130)] {
            let mut rng = StdRng::seed_from_u64(40 + seed);
            let (mut batched, mut single) = (make(), make());
            batched.set_symbol_tracking_floor(floor);
            single.set_symbol_tracking_floor(floor);
            let random_mask = |rng: &mut StdRng| -> Vec<u64> {
                let density = rng.random_range(0..5);
                let mut mask: Vec<u64> = (0..words)
                    .map(|_| match density {
                        0 => 0,
                        1 => {
                            rng.random::<u64>()
                                & rng.random::<u64>()
                                & rng.random::<u64>()
                                & rng.random::<u64>()
                        }
                        _ => rng.random::<u64>(),
                    })
                    .collect();
                if density >= 3 {
                    // One row, as a fault on one generator flips; or one
                    // tracked row among untracked ones.
                    for (w, m) in mask.iter_mut().enumerate() {
                        let untracked = !tracked_mask(!0, w, floor);
                        *m &= if density == 4 { untracked } else { 0 };
                    }
                    let r = rng.random_range(if density == 4 { floor } else { 0 }..rows);
                    mask[r / WORD_BITS] |= 1 << (r % WORD_BITS);
                }
                mask[words - 1] &= !0 >> (words * WORD_BITS - rows);
                mask
            };
            for step in 0..600u32 {
                let sym = 1 + step / 2;
                batched.ensure_symbol_capacity(sym);
                single.ensure_symbol_capacity(sym);
                if rng.random_range(0..3) > 0 {
                    let mask = random_mask(&mut rng);
                    batched.xor_symbol_column(sym, &mask);
                    for (w, &m) in mask.iter().enumerate() {
                        single.xor_symbol_word(sym, w, m);
                    }
                } else {
                    let src = rng.random_range(floor.max(1)..rows);
                    let mut mask = random_mask(&mut rng);
                    mask[src / WORD_BITS] &= !(1 << (src % WORD_BITS));
                    let extra: Vec<u64> = (0..words).map(|_| rng.random::<u64>()).collect();
                    batched.add_row_into_mask(src, &mask, &extra);
                    for r in
                        (0..rows).filter(|&r| (mask[r / WORD_BITS] >> (r % WORD_BITS)) & 1 == 1)
                    {
                        single.add_row_into(
                            src,
                            r,
                            (extra[r / WORD_BITS] >> (r % WORD_BITS)) & 1 == 1,
                        );
                    }
                }
            }
            for r in 0..rows {
                assert_eq!(
                    row_expr(&batched, r),
                    row_expr(&single, r),
                    "floor {floor}, row {r}"
                );
            }
        }
    }

    #[test]
    fn batched_calls_equal_per_word_calls_on_both_stores() {
        let rows = 2 * 130 + 1;
        check_batched_calls(|| DensePhases::with_rows(rows), rows);
        check_batched_calls(|| SparsePhases::with_rows(rows), rows);
    }

    /// Every word below each tracked row's start word is zero.
    fn assert_zero_below_first(d: &DensePhases) {
        for (t, &from) in d.first.iter().enumerate() {
            let below = &d.sym[t * d.stride..][..from.min(d.stride)];
            assert!(
                below.iter().all(|&w| w == 0),
                "row {} is nonzero below its start word {from}",
                t + d.first_tracked
            );
        }
    }

    #[test]
    fn dense_store_equals_sparse_store_at_scale() {
        // The 2n + 1 rows of n = 130 qubits: the tracked rows start in the
        // middle of row word 2 and run past 128 rows. Symbols grow to 12
        // words without a reservation, so the stride doubles under load.
        let (n, words, steps) = (130, 12, 3000);
        let rows = 2 * n + 1;
        let is_pending =
            |d: &DensePhases, r: usize| (d.pend_rows[r / WORD_BITS] >> (r % WORD_BITS)) & 1 == 1;
        // Cases hit: a flip in an older symbol word than the pending one,
        // `record_row` of a row with pending flips, stride growth with flips
        // pending, `copy_row` onto a lower start word, clear then add.
        let mut hits = [0usize; 5];
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut dense = DensePhases::with_rows(rows);
            let mut sparse = SparsePhases::with_rows(rows);
            dense.set_symbol_tracking_floor(n);
            sparse.set_symbol_tracking_floor(n);
            for step in 0..steps {
                let max_sym = (WORD_BITS * (1 + step * words / steps)) as u32;
                let op = Op::random(&mut rng, rows, n, max_sym);
                match op {
                    Op::Flip(sym, ..) => {
                        let sw = (sym as usize - 1) / WORD_BITS;
                        if let Some(open) = dense.open {
                            hits[0] += usize::from(sw < open);
                            hits[2] += usize::from(sw >= dense.stride);
                        }
                    }
                    Op::Copy(src, dst) if dst >= n => {
                        hits[3] += usize::from(dense.first[dst - n] < dense.first[src - n]);
                    }
                    Op::ClearThenAdd(row, ..) => hits[4] += usize::from(row >= n),
                    _ => {}
                }
                op.apply(&mut dense);
                op.apply(&mut sparse);
                assert_zero_below_first(&dense);
                // Read back one row, preferably one whose flips are pending.
                let pending: Vec<usize> = (n..rows).filter(|&r| is_pending(&dense, r)).collect();
                let row = if pending.is_empty() {
                    rng.random_range(0..rows)
                } else {
                    hits[1] += 1;
                    pending[rng.random_range(0..pending.len())]
                };
                assert_eq!(
                    row_expr(&dense, row),
                    row_expr(&sparse, row),
                    "seed {seed}, step {step}, row {row}"
                );
            }
            assert!(
                dense.active >= words - 1,
                "symbols span {} words",
                dense.active
            );
            for r in 0..rows {
                assert_eq!(
                    row_expr(&dense, r),
                    row_expr(&sparse, r),
                    "seed {seed}, row {r}"
                );
            }
            assert!(tail_is_zero(&dense));
        }
        assert!(
            hits.iter().all(|&k| k > 0),
            "a case was never hit: {hits:?}"
        );
    }
}
