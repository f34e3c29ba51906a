//! Blocked F₂ matrix multiplication: Method of Four Russians over shot
//! tiles.
//!
//! The Sampling step of the paper is the product `M · B` (Eq. (4)) where
//! `M` is the measurement matrix and `B` the symbol-assignment batch with
//! 64 shots packed per word. [`crate::BitMatrix::mul`] computes it row by
//! row, XORing one `B` row per set bit of `M` — fine when `M` is sparse,
//! but on dense circuits every output row costs `n_s / 2` row XORs.
//!
//! The Method of Four Russians (M4RM) cuts that by the group width: the
//! columns of `M` are processed in groups of `GROUP_BITS` = 8, and for
//! each group a 256-entry table of all XOR combinations of the group's 8
//! `B` rows is precomputed in Gray-code order (one row XOR per entry).
//! Every output row then pays **one** table lookup per group instead of up
//! to 8 row XORs. The shot dimension is tiled (`TILE_WORDS`) so the
//! active table stays cache-resident no matter how many shots a batch
//! carries, and the per-group decision between the table and the plain
//! gather is made adaptively from the group's population count, so the
//! blocked kernel never loses badly on sparse rows either.
//!
//! Two pre-layout passes keep the inner loop straight-line:
//!
//! * the multiplier's nonzero bytes are re-laid out group-major as
//!   `(row, byte)` pairs, so the per-tile inner loops touch only rows
//!   that actually contribute — sparse matrices cost what their nonzeros
//!   cost, never a full scan;
//! * when there are fewer shots than one machine word, row XORs move
//!   almost no data and the tables cannot amortize; [`mul_blocked`] then
//!   transposes both operands (via the word-blocked
//!   [`crate::transpose::transpose_packed`] kernels) and multiplies in
//!   shot-major order, where every XOR moves a full row of the *output*
//!   instead of a sliver of shots.
//!
//! All entry points are XOR-accumulating and bit-identical to
//! [`crate::BitMatrix::mul`]; the property tests in
//! `crates/bitmat/tests/properties.rs` pin that on ragged shapes.

use crate::word::{Word, WORD_BITS};
use crate::BitMatrix;

/// Column-group width of the Four-Russians tables.
const GROUP_BITS: usize = 8;

/// Entries of a full group table (`2^GROUP_BITS`).
const TABLE_LEN: usize = 1 << GROUP_BITS;

/// Words per shot tile: the Gray-code table spans `TABLE_LEN × TILE_WORDS`
/// words = 64 KiB — sized to stay cache-resident while still covering
/// 2048 shots per tile.
const TILE_WORDS: usize = 32;

/// Reusable scratch for the blocked kernel.
///
/// Allocation happens on first use and is amortized across calls: the
/// sampler keeps one scratch per sampling call (and the parallel sampling
/// path one per thread), so steady-state multiplication allocates nothing.
/// Every slab — the Gray-code table, the group pre-layout, and the
/// transpose buffers of the narrow-shot path — is sized to the maximum
/// shape seen and never shrinks, so chunked streams with a fixed shape
/// settle to zero allocations after the first chunk;
/// [`M4rScratch::alloc_events`] counts capacity growth so tests can pin
/// that.
#[derive(Clone, Debug, Default)]
pub struct M4rScratch {
    /// Gray-code combination table: `TABLE_LEN` entries of `TILE_WORDS`
    /// words each (only the first `tile_width` words of each entry are
    /// live).
    table: Vec<Word>,
    /// Running Gray-code accumulator (one table entry wide): consecutive
    /// Gray codes differ by one bit, so each table entry is `acc ^= one
    /// B row` streamed straight into its slot.
    acc: Vec<Word>,
    /// Group-major pre-layout of the multiplier's nonzero bytes:
    /// `(row, byte)` pairs sorted by group then row. Zero bytes — the
    /// overwhelming majority for sparse measurement matrices — never
    /// appear, so per-tile work is proportional to the nonzero count.
    entries: Vec<(u32, u8)>,
    /// `starts[g]..starts[g + 1]` spans group `g` in `entries`.
    starts: Vec<u32>,
    /// Total set bits per group (the adaptive table-vs-gather decision).
    pops: Vec<u32>,
    /// Groups dense enough for the Gray-code table (the rest gather
    /// directly at full width).
    table_groups: Vec<u32>,
    /// Narrow-shot path: reusable transpose of `a` (was a fresh
    /// allocation per call).
    at: BitMatrix,
    /// Narrow-shot path: reusable transpose of `b`.
    bt: BitMatrix,
    /// Narrow-shot path: reusable transposed product.
    tt: BitMatrix,
    /// Number of times any slab's backing capacity had to grow. Constant
    /// across calls ⇔ the calls allocated nothing.
    alloc_events: u64,
}

impl M4rScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of backing-buffer growth events since construction. A
    /// steady-state chunked stream (fixed shapes after warm-up) must keep
    /// this constant; tests pin that. The counter is a plain increment on
    /// the (rare) growth path — no assertions, no debug-only gating.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }
}

/// `v.resize(len, fill)` with capacity-growth tracking.
fn resize_tracked<T: Copy>(v: &mut Vec<T>, len: usize, fill: T, allocs: &mut u64) {
    if len > v.capacity() {
        *allocs += 1;
    }
    v.resize(len, fill);
}

/// `out[.., window] ^= a · b` over F₂ with the blocked kernel.
///
/// The product is XOR-accumulated into the word-aligned column window of
/// `out` starting at `col_word_offset` (the window
/// [`crate::SparseRowMatrix::mul_dense_overwrite`] overwrites), so
/// shot-batched sampling can write each batch straight into the
/// full-width output once the window is zeroed.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`, if `out.rows() != a.rows()`, or if
/// the window does not fit within `out`'s stride.
pub fn mul_blocked_into(
    a: &BitMatrix,
    b: &BitMatrix,
    out: &mut BitMatrix,
    col_word_offset: usize,
    scratch: &mut M4rScratch,
) {
    assert_eq!(a.cols(), b.rows(), "dimension mismatch in mul_blocked_into");
    assert_eq!(out.rows(), a.rows(), "output row count mismatch");
    let bstride = b.stride();
    let ostride = out.stride();
    assert!(
        col_word_offset + bstride <= ostride || b.cols() == 0,
        "window out of range"
    );
    let rows = a.rows();
    let groups = a.cols().div_ceil(GROUP_BITS);
    if rows == 0 || groups == 0 || b.cols() == 0 {
        return;
    }

    fill_entries(a, groups, scratch);
    let kernels = crate::simd::kernels();

    // Adaptive split, decided once per group: `pop` row XORs pay for the
    // direct gather, `build + one lookup per nonzero byte` for the
    // Gray-code table. Gather groups run here at full row width (tiling
    // would only add per-tile loop overhead to work that streams whole
    // rows anyway); table groups run tiled below for cache residency.
    let groups_cap = scratch.table_groups.capacity();
    scratch.table_groups.clear();
    for g in 0..groups {
        let es = &scratch.entries[scratch.starts[g] as usize..scratch.starts[g + 1] as usize];
        if es.is_empty() {
            continue;
        }
        let base = g * GROUP_BITS;
        let nbits = (b.rows() - base).min(GROUP_BITS);
        let build_cost = (1usize << nbits) - 1;
        if scratch.pops[g] as usize > build_cost + es.len() {
            scratch.table_groups.push(g as u32);
            continue;
        }
        for &(r, byte) in es {
            let mut bits = byte;
            let o = r as usize * ostride + col_word_offset;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                kernels.xor_into(&mut out.words_mut()[o..o + bstride], b.row(base + j));
            }
        }
    }
    if scratch.table_groups.capacity() != groups_cap {
        scratch.alloc_events += 1;
    }
    if scratch.table_groups.is_empty() {
        return;
    }

    resize_tracked(
        &mut scratch.table,
        TABLE_LEN * TILE_WORDS,
        0,
        &mut scratch.alloc_events,
    );
    resize_tracked(&mut scratch.acc, TILE_WORDS, 0, &mut scratch.alloc_events);
    let mut tile_start = 0;
    while tile_start < bstride {
        let tw = TILE_WORDS.min(bstride - tile_start);
        for &g in &scratch.table_groups {
            let g = g as usize;
            let es = &scratch.entries[scratch.starts[g] as usize..scratch.starts[g + 1] as usize];
            let base = g * GROUP_BITS;
            let nbits = (b.rows() - base).min(GROUP_BITS);
            build_gray_table(
                b,
                base,
                nbits,
                tile_start,
                tw,
                &mut scratch.table,
                &mut scratch.acc,
                kernels,
            );
            for &(r, byte) in es {
                let t = byte as usize * TILE_WORDS;
                let o = r as usize * ostride + col_word_offset + tile_start;
                kernels.xor_into(&mut out.words_mut()[o..o + tw], &scratch.table[t..t + tw]);
            }
        }
        tile_start += tw;
    }
}

/// F₂ matrix product `a · b` with the blocked kernel, reusing `scratch`.
///
/// Chooses the operand layout per shape: when `b` is narrower than one
/// machine word (and `a` tall enough for the transposes to pay), the
/// product is computed shot-major as `(bᵀ · aᵀ)ᵀ` — each XOR then moves a
/// full output row instead of a sub-word sliver of shots. Both transposes
/// run through the word-blocked [`crate::transpose::transpose_packed`]
/// kernel.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn mul_blocked_with(a: &BitMatrix, b: &BitMatrix, scratch: &mut M4rScratch) -> BitMatrix {
    assert_eq!(a.cols(), b.rows(), "dimension mismatch in mul_blocked");
    if b.cols() > 0 && b.cols() < WORD_BITS && a.rows() >= 4 * WORD_BITS {
        // The three intermediate matrices live in the scratch (taken out
        // while `scratch` is also threaded through the multiply), so
        // repeated narrow-shot products of the same shape allocate only
        // the returned output.
        let mut at = std::mem::take(&mut scratch.at);
        let mut bt = std::mem::take(&mut scratch.bt);
        let mut tt = std::mem::take(&mut scratch.tt);
        scratch.alloc_events += u64::from(a.transpose_into(&mut at));
        scratch.alloc_events += u64::from(b.transpose_into(&mut bt));
        scratch.alloc_events += u64::from(tt.reset_zeros(b.cols(), a.rows()));
        mul_blocked_into(&bt, &at, &mut tt, 0, scratch);
        let out = tt.transpose();
        scratch.at = at;
        scratch.bt = bt;
        scratch.tt = tt;
        return out;
    }
    let mut out = BitMatrix::zeros(a.rows(), b.cols());
    mul_blocked_into(a, b, &mut out, 0, scratch);
    out
}

/// F₂ matrix product `a · b` with the blocked kernel (fresh scratch).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn mul_blocked(a: &BitMatrix, b: &BitMatrix) -> BitMatrix {
    mul_blocked_with(a, b, &mut M4rScratch::new())
}

/// Pre-layout: collects the multiplier's nonzero bytes as group-major
/// `(row, byte)` pairs (`scratch.entries` spanned by `scratch.starts`)
/// and per-group popcounts. Two sequential passes over `a`; row slack
/// bits are zero by the [`BitMatrix`] invariant, so tail bytes never
/// reference nonexistent `b` rows.
fn fill_entries(a: &BitMatrix, groups: usize, scratch: &mut M4rScratch) {
    const BYTES_PER_WORD: usize = WORD_BITS / 8;
    let rows = a.rows();
    scratch.pops.clear();
    resize_tracked(&mut scratch.pops, groups, 0, &mut scratch.alloc_events);
    scratch.starts.clear();
    resize_tracked(
        &mut scratch.starts,
        groups + 1,
        0,
        &mut scratch.alloc_events,
    );
    // Pass 1: count nonzero bytes and set bits per group.
    for r in 0..rows {
        for (w, &word) in a.row(r).iter().enumerate() {
            if word == 0 {
                continue;
            }
            for j in 0..BYTES_PER_WORD {
                let g = w * BYTES_PER_WORD + j;
                if g >= groups {
                    break;
                }
                let byte = (word >> (8 * j)) as u8;
                if byte != 0 {
                    scratch.starts[g + 1] += 1;
                    scratch.pops[g] += byte.count_ones();
                }
            }
        }
    }
    for g in 0..groups {
        scratch.starts[g + 1] += scratch.starts[g];
    }
    // Pass 2: place the entries, using `starts[g]` as the group cursor
    // (rows stay ascending within a group). Afterwards `starts[g]` has
    // advanced to the old `starts[g + 1]`, so one shift restores it.
    let entry_count = scratch.starts[groups] as usize;
    resize_tracked(
        &mut scratch.entries,
        entry_count,
        (0, 0),
        &mut scratch.alloc_events,
    );
    for r in 0..rows {
        for (w, &word) in a.row(r).iter().enumerate() {
            if word == 0 {
                continue;
            }
            for j in 0..BYTES_PER_WORD {
                let g = w * BYTES_PER_WORD + j;
                if g >= groups {
                    break;
                }
                let byte = (word >> (8 * j)) as u8;
                if byte != 0 {
                    scratch.entries[scratch.starts[g] as usize] = (r as u32, byte);
                    scratch.starts[g] += 1;
                }
            }
        }
    }
    for g in (0..groups).rev() {
        scratch.starts[g + 1] = scratch.starts[g];
    }
    scratch.starts[0] = 0;
}

/// Fills `table` with every XOR combination of `b` rows
/// `base..base + nbits` restricted to the shot tile
/// `[tile_start, tile_start + tw)`. Entries are generated in Gray-code
/// order: consecutive codes differ by one bit, so the running accumulator
/// picks up one `b` row per entry and streams straight into its slot —
/// the XOR and the store are one fused SIMD pass per entry.
#[allow(clippy::too_many_arguments)]
fn build_gray_table(
    b: &BitMatrix,
    base: usize,
    nbits: usize,
    tile_start: usize,
    tw: usize,
    table: &mut [Word],
    acc: &mut [Word],
    kernels: crate::simd::Kernels,
) {
    let acc = &mut acc[..tw];
    acc.fill(0);
    table[..tw].fill(0);
    for i in 1..(1usize << nbits) {
        let bit = i.trailing_zeros() as usize;
        let src = &b.row(base + bit)[tile_start..tile_start + tw];
        let gray = (i ^ (i >> 1)) * TILE_WORDS;
        kernels.xor_accum_copy(acc, src, &mut table[gray..gray + tw]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive(a: &BitMatrix, b: &BitMatrix) -> BitMatrix {
        BitMatrix::from_fn(a.rows(), b.cols(), |r, c| {
            (0..a.cols()).fold(false, |acc, k| acc ^ (a.get(r, k) & b.get(k, c)))
        })
    }

    #[test]
    fn matches_mul_on_random_shapes() {
        let mut rng = StdRng::seed_from_u64(17);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 9, 70),
            (65, 64, 64),
            (130, 257, 300),
            (200, 40, 5000),
        ] {
            let a = BitMatrix::random(m, k, &mut rng);
            let b = BitMatrix::random(k, n, &mut rng);
            let blocked = mul_blocked(&a, &b);
            assert_eq!(blocked, a.mul(&b), "{m}x{k} · {k}x{n}");
            assert_eq!(blocked, naive(&a, &b), "{m}x{k} · {k}x{n} (naive)");
        }
    }

    #[test]
    fn narrow_shot_path_matches() {
        // b.cols() < 64 with tall a triggers the transposed shot-major
        // path.
        let mut rng = StdRng::seed_from_u64(18);
        let a = BitMatrix::random(400, 129, &mut rng);
        let b = BitMatrix::random(129, 17, &mut rng);
        assert_eq!(mul_blocked(&a, &b), a.mul(&b));
    }

    #[test]
    fn sparse_rows_take_the_gather_branch() {
        // Two set bits per row: pop per group is far below the table
        // build cost, so the adaptive branch gathers directly. Result must
        // be identical either way.
        let a = BitMatrix::from_fn(90, 900, |r, c| c == r || c == r + 517);
        let mut rng = StdRng::seed_from_u64(19);
        let b = BitMatrix::random(900, 200, &mut rng);
        assert_eq!(mul_blocked(&a, &b), a.mul(&b));
    }

    #[test]
    fn window_accumulates_in_place() {
        let mut rng = StdRng::seed_from_u64(20);
        let a = BitMatrix::random(10, 30, &mut rng);
        let b = BitMatrix::random(30, 64, &mut rng);
        let mut out = BitMatrix::zeros(10, 192);
        let mut scratch = M4rScratch::new();
        mul_blocked_into(&a, &b, &mut out, 1, &mut scratch);
        let reference = a.mul(&b);
        for r in 0..10 {
            for c in 0..64 {
                assert!(!out.get(r, c), "window must not touch cols before it");
                assert_eq!(out.get(r, 64 + c), reference.get(r, c));
                assert!(!out.get(r, 128 + c), "window must not touch cols after it");
            }
        }
        // Second accumulation cancels (XOR semantics).
        mul_blocked_into(&a, &b, &mut out, 1, &mut scratch);
        assert_eq!(out.count_ones(), 0);
    }

    #[test]
    fn zero_sized_operands() {
        let a = BitMatrix::zeros(0, 10);
        let b = BitMatrix::zeros(10, 10);
        assert_eq!(mul_blocked(&a, &b).rows(), 0);
        let a = BitMatrix::zeros(10, 0);
        let b = BitMatrix::zeros(0, 10);
        assert_eq!(mul_blocked(&a, &b), BitMatrix::zeros(10, 10));
        let a = BitMatrix::zeros(10, 10);
        let b = BitMatrix::zeros(10, 0);
        assert_eq!(mul_blocked(&a, &b).cols(), 0);
    }

    #[test]
    fn scratch_is_reusable_across_shapes() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut scratch = M4rScratch::new();
        for &(m, k, n) in &[(40usize, 80usize, 100usize), (7, 7, 7), (100, 300, 65)] {
            let a = BitMatrix::random(m, k, &mut rng);
            let b = BitMatrix::random(k, n, &mut rng);
            assert_eq!(mul_blocked_with(&a, &b, &mut scratch), a.mul(&b));
        }
    }

    #[test]
    fn steady_state_chunked_stream_allocates_nothing() {
        // Chunk-shaped workload: one fixed measurement matrix multiplied
        // against a fresh symbol batch per chunk, accumulated into a
        // reused output — the shape the chunk loop streams. After the
        // warm-up chunk the scratch slabs are at their maximum shape and
        // every further chunk must be allocation-free.
        let mut rng = StdRng::seed_from_u64(23);
        let a = BitMatrix::random(300, 500, &mut rng);
        let mut out = BitMatrix::zeros(300, 4096);
        let mut scratch = M4rScratch::new();
        let b = BitMatrix::random(500, 4096, &mut rng);
        mul_blocked_into(&a, &b, &mut out, 0, &mut scratch);
        let after_warmup = scratch.alloc_events();
        assert!(after_warmup > 0, "warm-up must have grown the slabs");
        for seed in 0..5 {
            let b = BitMatrix::random(500, 4096, &mut StdRng::seed_from_u64(100 + seed));
            mul_blocked_into(&a, &b, &mut out, 0, &mut scratch);
            assert_eq!(
                scratch.alloc_events(),
                after_warmup,
                "steady-state chunk {seed} grew a scratch slab"
            );
        }
    }

    #[test]
    fn scratch_slabs_never_shrink_across_shapes() {
        // Largest shape first: every later (smaller) shape fits in the
        // slabs already grown, including the narrow-shot transpose path.
        let mut rng = StdRng::seed_from_u64(24);
        let shapes = [(400usize, 300usize, 200usize), (300, 129, 17), (64, 64, 64)];
        let mut scratch = M4rScratch::new();
        let (m, k, n) = shapes[0];
        let a = BitMatrix::random(m, k, &mut rng);
        let b = BitMatrix::random(k, n, &mut rng);
        // Warm the narrow path slabs too (shape 2 triggers it).
        let (m2, k2, n2) = shapes[1];
        let a2 = BitMatrix::random(m2, k2, &mut rng);
        let b2 = BitMatrix::random(k2, n2, &mut rng);
        mul_blocked_with(&a, &b, &mut scratch);
        mul_blocked_with(&a2, &b2, &mut scratch);
        let warm = scratch.alloc_events();
        for &(m, k, n) in &shapes[1..] {
            let a = BitMatrix::random(m, k, &mut rng);
            let b = BitMatrix::random(k, n, &mut rng);
            assert_eq!(mul_blocked_with(&a, &b, &mut scratch), a.mul(&b));
        }
        assert_eq!(
            scratch.alloc_events(),
            warm,
            "smaller shapes must reuse the grown slabs"
        );
    }

    #[test]
    fn spans_multiple_tiles() {
        // > TILE_WORDS * 64 shots forces at least two shot tiles.
        let mut rng = StdRng::seed_from_u64(22);
        let a = BitMatrix::random(70, 100, &mut rng);
        let b = BitMatrix::random(100, TILE_WORDS * WORD_BITS * 2 + 7, &mut rng);
        assert_eq!(mul_blocked(&a, &b), a.mul(&b));
    }
}
