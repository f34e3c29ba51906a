//! Symbolic phase stores: the tableau columns of paper Eq. (3).
//!
//! Both stores keep the constant term (column `s₀`) as a plain bit-vector so
//! Clifford gates stay word-parallel, and differ in how they hold the
//! symbol coefficients of each row:
//!
//! * [`DensePhases`] — a packed bit-row per tableau row (grown geometrically
//!   as symbols appear): faithful to the paper's bit-matrix picture.
//! * [`SparsePhases`] — a sorted symbol list per row: per-row XOR cost
//!   proportional to the number of symbols actually present, which stays
//!   tiny for QEC-style circuits (the "sparse circuits" case of Table 1).

use symphase_bitmat::word::xor_into;
use symphase_bitmat::{BitVec, SparseBitVec, WORD_BITS};
use symphase_circuit::CircuitStats;
use symphase_tableau::PhaseStore;

use crate::expr::SymExpr;
use crate::symbol::{SymbolGroup, SymbolId};

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

    /// XORs a whole expression into the phases of every row selected by
    /// `mask` — the effect of a classically-controlled Pauli `P^e`
    /// (paper §6 dynamic circuits).
    fn xor_expr_word(&mut self, expr: &SymExpr, word_index: usize, mask: u64);

    /// Extracts the full symbolic phase of `row`.
    fn row_expr(&self, row: usize) -> SymExpr;
}

// ---------------------------------------------------------------------------
// Dense store
// ---------------------------------------------------------------------------

/// Dense symbolic phases: per-row packed coefficient words (symbol `k` at
/// bit `k−1`), plus a shared constant-term bit-vector.
///
/// Row operations touch only the *active prefix* of each row — the words
/// the symbols allocated so far can occupy — so a stride reserved up front
/// for the whole circuit ([`SymbolicPhases::reserve_symbols`]) costs
/// nothing until its symbols appear. Words past the active prefix stay
/// zero in every row.
#[derive(Clone, Debug)]
pub struct DensePhases {
    constants: BitVec,
    rows: usize,
    /// Words per row of the symbol block.
    stride: usize,
    /// Words per row that can hold a nonzero coefficient (`≤ stride`).
    active: usize,
    /// `sym[row * stride ..][..stride]`.
    sym: Vec<u64>,
    /// Rows below this index skip symbol maintenance.
    first_tracked: usize,
}

/// Largest symbol block [`DensePhases`] reserves up front. A bigger bound
/// (a long `REPEAT`) falls back to growing as its symbols appear, so
/// memory is only paid for symbols the traversal actually reaches.
const MAX_RESERVED_BYTES: usize = 1 << 30;

impl DensePhases {
    /// Re-lays the symbol block out at `new_stride` words per row.
    fn set_stride(&mut self, new_stride: usize) {
        let active = self.active;
        let mut new_sym = vec![0u64; self.rows * new_stride];
        for r in 0..self.rows {
            new_sym[r * new_stride..r * new_stride + active]
                .copy_from_slice(&self.sym[r * self.stride..r * self.stride + active]);
        }
        self.sym = new_sym;
        self.stride = new_stride;
    }

    /// The active words of `row`.
    fn row_words(&self, row: usize) -> &[u64] {
        &self.sym[row * self.stride..row * self.stride + self.active]
    }
}

impl PhaseStore for DensePhases {
    fn with_rows(rows: usize) -> Self {
        Self {
            constants: BitVec::zeros(rows),
            rows,
            stride: 0,
            active: 0,
            sym: Vec::new(),
            first_tracked: 0,
        }
    }

    fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    fn xor_constant_word(&mut self, word_index: usize, mask: u64) {
        self.constants.words_mut()[word_index] ^= mask;
    }

    fn add_row_into(&mut self, src: usize, dst: usize, extra_constant: bool) {
        let c = self.constants.get(dst) ^ self.constants.get(src) ^ extra_constant;
        self.constants.set(dst, c);
        if self.active == 0 || dst < self.first_tracked {
            return;
        }
        debug_assert!(src >= self.first_tracked, "untracked row used as source");
        let (stride, active) = (self.stride, self.active);
        let (s_off, d_off) = (src * stride, dst * stride);
        if s_off < d_off {
            let (lo, hi) = self.sym.split_at_mut(d_off);
            xor_into(&mut hi[..active], &lo[s_off..s_off + active]);
        } else {
            let (lo, hi) = self.sym.split_at_mut(s_off);
            xor_into(&mut lo[d_off..d_off + active], &hi[..active]);
        }
    }

    fn copy_row(&mut self, src: usize, dst: usize) {
        let c = self.constants.get(src);
        self.constants.set(dst, c);
        if self.active == 0 || dst < self.first_tracked {
            return;
        }
        let (stride, active) = (self.stride, self.active);
        self.sym
            .copy_within(src * stride..src * stride + active, dst * stride);
    }

    fn clear_row(&mut self, row: usize) {
        self.constants.set(row, false);
        let start = row * self.stride;
        self.sym[start..start + self.active].fill(0);
    }

    fn constant_bit(&self, row: usize) -> bool {
        self.constants.get(row)
    }

    fn set_constant_bit(&mut self, row: usize, value: bool) {
        self.constants.set(row, value);
    }
}

impl SymbolicPhases for DensePhases {
    fn ensure_symbol_capacity(&mut self, max_id: SymbolId) {
        let needed_words = (max_id as usize).div_ceil(WORD_BITS);
        if needed_words > self.stride {
            self.set_stride(needed_words.max(self.stride * 2));
        }
        self.active = self.active.max(needed_words);
    }

    fn reserve_symbols(&mut self, count: usize) {
        let words = count.div_ceil(WORD_BITS);
        let fits = words
            .checked_mul(self.rows * std::mem::size_of::<u64>())
            .is_some_and(|bytes| bytes <= MAX_RESERVED_BYTES);
        if words > self.stride && fits {
            self.set_stride(words);
        }
    }

    fn set_symbol_tracking_floor(&mut self, first_tracked: usize) {
        self.first_tracked = first_tracked;
    }

    fn xor_symbol_word(&mut self, sym: SymbolId, word_index: usize, mask: u64) {
        debug_assert!(sym >= 1);
        let bit = (sym - 1) as usize;
        let (sw, sb) = (bit / WORD_BITS, bit % WORD_BITS);
        let mut m = tracked_mask(mask, word_index, self.first_tracked);
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            let row = word_index * WORD_BITS + b;
            self.sym[row * self.stride + sw] ^= 1 << sb;
        }
    }

    fn xor_expr_word(&mut self, expr: &SymExpr, word_index: usize, mask: u64) {
        if expr.constant_term() {
            self.constants.words_mut()[word_index] ^= mask;
        }
        let mut m = tracked_mask(mask, word_index, self.first_tracked);
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            let row = word_index * WORD_BITS + b;
            for &id in expr.symbol_ids() {
                let bit = (id - 1) as usize;
                self.sym[row * self.stride + bit / WORD_BITS] ^= 1 << (bit % WORD_BITS);
            }
        }
    }

    fn row_expr(&self, row: usize) -> SymExpr {
        let mut e = SymExpr::constant(self.constants.get(row));
        for (w, &word) in self.row_words(row).iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                e.xor_symbol((w * WORD_BITS + b + 1) as u32);
            }
        }
        e
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

    #[inline]
    fn xor_constant_word(&mut self, word_index: usize, mask: u64) {
        self.constants.words_mut()[word_index] ^= mask;
    }

    fn add_row_into(&mut self, src: usize, dst: usize, extra_constant: bool) {
        let c = self.constants.get(dst) ^ self.constants.get(src) ^ extra_constant;
        self.constants.set(dst, c);
        if dst < self.first_tracked {
            return;
        }
        debug_assert!(src >= self.first_tracked, "untracked row used as source");
        debug_assert_ne!(src, dst);
        let (a, b) = (src.min(dst), src.max(dst));
        let (lo, hi) = self.rows.split_at_mut(b);
        if src < dst {
            hi[0].xor_assign(&lo[a]);
        } else {
            lo[a].xor_assign(&hi[0]);
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

    fn constant_bit(&self, row: usize) -> bool {
        self.constants.get(row)
    }

    fn set_constant_bit(&mut self, row: usize, value: bool) {
        self.constants.set(row, value);
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

    fn xor_expr_word(&mut self, expr: &SymExpr, word_index: usize, mask: u64) {
        if expr.constant_term() {
            self.constants.words_mut()[word_index] ^= mask;
        }
        let sym_part = SparseBitVec::from_indices(expr.symbol_ids().iter().copied());
        let mut m = tracked_mask(mask, word_index, self.first_tracked);
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            self.rows[word_index * WORD_BITS + b].xor_assign(&sym_part);
        }
    }

    fn row_expr(&self, row: usize) -> SymExpr {
        let mut e = SymExpr::from_symbols(self.rows[row].indices().iter().copied());
        e.xor_constant(self.constants.get(row));
        e
    }
}

/// An upper bound on the symbols Initialization allocates for a circuit
/// with these statistics: every noise symbol, plus at most one coin per
/// measurement or reset. `None` when a count saturated (a `REPEAT` trip
/// count too large to multiply out), so no store is sized from it.
pub(crate) fn symbol_bound(stats: &CircuitStats) -> Option<usize> {
    saturating_sum([stats.noise_symbols, stats.measurements, stats.resets])
}

/// An upper bound on the symbol groups Initialization records, by the
/// same rule as [`symbol_bound`]: one group per noise site, plus at most
/// one coin per measurement or reset. `None` when a count saturated or
/// when the groups would take more than the dense store's reservation cap,
/// so the symbol table is only sized up front for circuits it fits.
pub(crate) fn group_bound(stats: &CircuitStats) -> Option<usize> {
    saturating_sum([stats.noise_sites, stats.measurements, stats.resets]).filter(|&groups| {
        groups
            .checked_mul(std::mem::size_of::<SymbolGroup>())
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

    fn exercise<S: SymbolicPhases + Clone>(mut store: S) {
        store.ensure_symbol_capacity(80);
        // Attach s3 to rows 0 and 65, s80 to row 0.
        store.xor_symbol_word(3, 0, 0b1);
        store.xor_symbol_word(3, 1, 0b10); // row 65
        store.xor_symbol_word(80, 0, 0b1);
        assert_eq!(store.row_expr(0).symbol_ids(), &[3, 80]);
        assert_eq!(store.row_expr(65).symbol_ids(), &[3]);
        assert!(store.row_expr(1).is_zero());

        // Row multiplication mixes symbol parts and constants.
        store.set_constant_bit(65, true);
        store.add_row_into(65, 0, true);
        // row0: {3, 80} ⊕ {3} = {80}; const: 0 ⊕ 1 ⊕ 1 = 0.
        let e = store.row_expr(0);
        assert_eq!(e.symbol_ids(), &[80]);
        assert!(!e.constant_term());

        // Copy and clear.
        store.copy_row(65, 2);
        assert_eq!(store.row_expr(2).symbol_ids(), &[3]);
        assert!(store.row_expr(2).constant_term());
        store.clear_row(2);
        assert!(store.row_expr(2).is_zero());

        // Expression application.
        let mut expr = SymExpr::from_symbols([5, 9]);
        expr.xor_constant(true);
        store.xor_expr_word(&expr, 0, 0b100); // row 2
        let e = store.row_expr(2);
        assert_eq!(e.symbol_ids(), &[5, 9]);
        assert!(e.constant_term());

        // Constant-word flips.
        store.xor_constant_word(0, 0b100);
        assert!(!store.row_expr(2).constant_term());
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
        assert_eq!(d.row_expr(0).symbol_ids(), &[1, 5000]);
    }

    /// One random store operation, applied identically to every store in
    /// `stores` (symbols `1..=max_sym`, rows `0..rows`).
    fn random_op(rng: &mut impl rand::Rng, stores: &mut [&mut DensePhases], max_sym: u32) {
        let rows = stores[0].rows();
        let row_mask = |rng: &mut dyn rand::RngCore, w: usize| {
            let valid = (rows - w * WORD_BITS).min(WORD_BITS);
            let m = rng.next_u64();
            if valid == WORD_BITS {
                m
            } else {
                m & ((1 << valid) - 1)
            }
        };
        let words = rows.div_ceil(WORD_BITS);
        match rng.random_range(0..5) {
            0 => {
                let sym = rng.random_range(1..=max_sym);
                let w = rng.random_range(0..words);
                let mask = row_mask(rng, w);
                for s in stores.iter_mut() {
                    s.ensure_symbol_capacity(sym);
                    s.xor_symbol_word(sym, w, mask);
                }
            }
            1 => {
                let src = rng.random_range(0..rows);
                let dst = (src + rng.random_range(1..rows)) % rows;
                let extra: bool = rng.random();
                for s in stores.iter_mut() {
                    s.add_row_into(src, dst, extra);
                }
            }
            2 => {
                let src = rng.random_range(0..rows);
                let dst = (src + rng.random_range(1..rows)) % rows;
                for s in stores.iter_mut() {
                    s.copy_row(src, dst);
                }
            }
            3 => {
                let row = rng.random_range(0..rows);
                for s in stores.iter_mut() {
                    s.clear_row(row);
                }
            }
            _ => {
                let ids: Vec<u32> = (0..3).map(|_| rng.random_range(1..=max_sym)).collect();
                let expr = SymExpr::from_symbols(ids.iter().copied());
                let w = rng.random_range(0..words);
                let mask = row_mask(rng, w);
                for s in stores.iter_mut() {
                    s.ensure_symbol_capacity(*ids.iter().max().expect("three ids"));
                    s.xor_expr_word(&expr, w, mask);
                }
            }
        }
    }

    /// Every word past the active prefix is zero, in every row.
    fn tail_is_zero(d: &DensePhases) -> bool {
        (0..d.rows).all(|r| {
            d.sym[r * d.stride + d.active..(r + 1) * d.stride]
                .iter()
                .all(|&w| w == 0)
        })
    }

    #[test]
    fn reserved_store_equals_grown_store() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(15);
        let rows = 131;
        let mut grown = DensePhases::with_rows(rows);
        let mut reserved = DensePhases::with_rows(rows);
        reserved.reserve_symbols(700);
        assert_eq!(reserved.stride, 700usize.div_ceil(WORD_BITS));
        assert_eq!(reserved.active, 0);
        // Symbols arrive in increasing order, as in a traversal.
        for step in 0..2000u32 {
            random_op(
                &mut rng,
                &mut [&mut grown, &mut reserved],
                1 + step * 700 / 2000,
            );
        }
        for r in 0..rows {
            assert_eq!(grown.row_expr(r), reserved.row_expr(r), "row {r}");
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
        assert_eq!(d.row_expr(0).symbol_ids(), &[200]);
        assert_eq!(d.row_expr(1).symbol_ids(), &[3, 200]);
    }

    #[test]
    fn words_past_the_active_prefix_stay_zero() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(16);
        let mut d = DensePhases::with_rows(70);
        d.reserve_symbols(64 * 16);
        for _ in 0..1000 {
            random_op(&mut rng, &mut [&mut d], 150);
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
        let cap = MAX_RESERVED_BYTES / std::mem::size_of::<SymbolGroup>();
        assert_eq!(group_bound(&stats(cap, 0, 0)), Some(cap));
        assert_eq!(group_bound(&stats(cap, 1, 0)), None, "past the byte cap");
    }

    #[test]
    fn stores_agree_on_random_ops() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let rows = 70;
        let mut dense = DensePhases::with_rows(rows);
        let mut sparse = SparsePhases::with_rows(rows);
        dense.ensure_symbol_capacity(40);
        for _ in 0..400 {
            match rng.random_range(0..5) {
                0 => {
                    let sym = rng.random_range(1..=40u32);
                    let w = rng.random_range(0..2usize);
                    let mask: u64 = rng.random();
                    let mask = if w == 1 {
                        mask & ((1 << (rows - 64)) - 1)
                    } else {
                        mask
                    };
                    dense.xor_symbol_word(sym, w, mask);
                    sparse.xor_symbol_word(sym, w, mask);
                }
                1 => {
                    let src = rng.random_range(0..rows);
                    let mut dst = rng.random_range(0..rows);
                    if dst == src {
                        dst = (dst + 1) % rows;
                    }
                    let extra: bool = rng.random();
                    dense.add_row_into(src, dst, extra);
                    sparse.add_row_into(src, dst, extra);
                }
                2 => {
                    let src = rng.random_range(0..rows);
                    let dst = rng.random_range(0..rows);
                    if src != dst {
                        dense.copy_row(src, dst);
                        sparse.copy_row(src, dst);
                    }
                }
                3 => {
                    let row = rng.random_range(0..rows);
                    dense.clear_row(row);
                    sparse.clear_row(row);
                }
                _ => {
                    let w = rng.random_range(0..2usize);
                    let mask: u64 = rng.random();
                    let mask = if w == 1 {
                        mask & ((1 << (rows - 64)) - 1)
                    } else {
                        mask
                    };
                    dense.xor_constant_word(w, mask);
                    sparse.xor_constant_word(w, mask);
                }
            }
        }
        for r in 0..rows {
            assert_eq!(dense.row_expr(r), sparse.row_expr(r), "row {r} diverged");
        }
    }
}
