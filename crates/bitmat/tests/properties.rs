//! Property tests for the F₂ linear-algebra substrate.

use proptest::prelude::*;

use symphase_bitmat::gauss::{express_in_rows, nullspace, rank, row_reduce};
use symphase_bitmat::layout::{ChpLayout, StimLayout, SymLayout512, TableauLayout};
use symphase_bitmat::simd;
use symphase_bitmat::{BitMatrix, BitVec, SparseBitVec};

fn bitvec_strategy(len: usize) -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(any::<bool>(), len).prop_map(BitVec::from_bools)
}

fn bitmatrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = BitMatrix> {
    proptest::collection::vec(any::<bool>(), rows * cols)
        .prop_map(move |bits| BitMatrix::from_fn(rows, cols, |r, c| bits[r * cols + c]))
}

fn xor_matrices(a: &BitMatrix, b: &BitMatrix) -> BitMatrix {
    BitMatrix::from_fn(a.rows(), a.cols(), |r, c| a.get(r, c) ^ b.get(r, c))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bitvec_xor_is_involution(a in bitvec_strategy(150), b in bitvec_strategy(150)) {
        let mut x = a.clone();
        x.xor_assign(&b);
        x.xor_assign(&b);
        prop_assert_eq!(x, a);
    }

    #[test]
    fn bitvec_xor_commutes(a in bitvec_strategy(130), b in bitvec_strategy(130)) {
        let mut ab = a.clone();
        ab.xor_assign(&b);
        let mut ba = b.clone();
        ba.xor_assign(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn bitvec_iter_ones_roundtrip(a in bitvec_strategy(200)) {
        let rebuilt = BitVec::from_fn(200, |i| a.iter_ones().any(|j| j == i));
        prop_assert_eq!(rebuilt, a.clone());
        prop_assert_eq!(a.iter_ones().count(), a.count_ones());
    }

    #[test]
    fn bitvec_parity_is_popcount_mod_2(a in bitvec_strategy(170)) {
        prop_assert_eq!(a.parity(), a.count_ones() % 2 == 1);
    }

    #[test]
    fn dot_is_bilinear(
        a in bitvec_strategy(96),
        b in bitvec_strategy(96),
        c in bitvec_strategy(96),
    ) {
        let mut bc = b.clone();
        bc.xor_assign(&c);
        prop_assert_eq!(a.dot(&bc), a.dot(&b) ^ a.dot(&c));
    }

    #[test]
    fn transpose_is_involution(m in bitmatrix_strategy(37, 75)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn mul_distributes_over_xor(
        a in bitmatrix_strategy(9, 20),
        b in bitmatrix_strategy(20, 13),
        c in bitmatrix_strategy(20, 13),
    ) {
        let left = a.mul(&xor_matrices(&b, &c));
        let right = xor_matrices(&a.mul(&b), &a.mul(&c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn transpose_reverses_products(
        a in bitmatrix_strategy(8, 18),
        b in bitmatrix_strategy(18, 11),
    ) {
        prop_assert_eq!(a.mul(&b).transpose(), b.transpose().mul(&a.transpose()));
    }

    #[test]
    fn rank_is_transpose_invariant(m in bitmatrix_strategy(14, 29)) {
        prop_assert_eq!(rank(&m), rank(&m.transpose()));
    }

    #[test]
    fn rank_bounds(m in bitmatrix_strategy(12, 33)) {
        let r = rank(&m);
        prop_assert!(r <= 12);
        let reduced = row_reduce(m.clone());
        prop_assert_eq!(reduced.rank(), r);
        // Pivots are strictly increasing columns.
        for w in reduced.pivots.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn rank_nullity_theorem(m in bitmatrix_strategy(11, 27)) {
        prop_assert_eq!(rank(&m) + nullspace(&m).len(), 27);
    }

    #[test]
    fn express_in_rows_reconstructs(
        m in bitmatrix_strategy(9, 24),
        select in proptest::collection::vec(any::<bool>(), 9),
    ) {
        let mut v = BitVec::zeros(24);
        for (r, &s) in select.iter().enumerate() {
            if s {
                v.xor_assign(&m.row_bitvec(r));
            }
        }
        let combo = express_in_rows(&m, &v).expect("v is in the row space");
        let mut rebuilt = BitVec::zeros(24);
        for r in combo {
            rebuilt.xor_assign(&m.row_bitvec(r));
        }
        prop_assert_eq!(rebuilt, v);
    }

    #[test]
    fn sparse_tracks_dense(a in bitvec_strategy(180), b in bitvec_strategy(180)) {
        let mut sa = SparseBitVec::from_bitvec(&a);
        let sb = SparseBitVec::from_bitvec(&b);
        sa.xor_assign(&sb);
        let mut dense = a.clone();
        dense.xor_assign(&b);
        prop_assert_eq!(sa.to_bitvec(180), dense);
    }

    #[test]
    fn sparse_eval_matches_dot(a in bitvec_strategy(140), assign in bitvec_strategy(140)) {
        let s = SparseBitVec::from_bitvec(&a);
        prop_assert_eq!(s.eval(&assign), a.dot(&assign));
    }
}

/// Drives the same random operation schedule through a layout and a plain
/// `BitMatrix`, then compares.
fn layout_conformance<L: TableauLayout>(
    rows: usize,
    cols: usize,
    ops: &[(bool, usize, usize, bool)],
) {
    let mut layout = L::zeros(rows, cols);
    let mut reference = BitMatrix::zeros(rows, cols);
    // Seed some content deterministically.
    for r in 0..rows {
        for c in 0..cols {
            if (r * 31 + c * 17) % 5 == 0 {
                layout.set(r, c, true);
                reference.set(r, c, true);
            }
        }
    }
    for &(is_col, a, b, switch) in ops {
        if is_col {
            let (src, dst) = (a % cols, b % cols);
            if src == dst {
                continue;
            }
            layout.xor_col_into(src, dst);
            for r in 0..rows {
                let v = reference.get(r, dst) ^ reference.get(r, src);
                reference.set(r, dst, v);
            }
        } else {
            let (src, dst) = (a % rows, b % rows);
            if src == dst {
                continue;
            }
            layout.xor_row_into(src, dst);
            reference.xor_row_into(src, dst);
        }
        if switch {
            layout.ensure_row_mode();
        } else {
            layout.ensure_col_mode();
        }
    }
    assert_eq!(layout.to_bitmatrix(), reference, "{} diverged", L::NAME);
}

/// Per-element reference product (the slow, obviously-correct definition).
fn naive_mul(a: &BitMatrix, b: &BitMatrix) -> BitMatrix {
    BitMatrix::from_fn(a.rows(), b.cols(), |r, c| {
        (0..a.cols()).fold(false, |acc, k| acc ^ (a.get(r, k) & b.get(k, c)))
    })
}

/// Ragged dimensions around the word-size boundaries the kernels block on:
/// 0, 1, and non-multiples of 8/64 must all round-trip.
fn ragged_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        2usize..130,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The blocked Four-Russians kernel is bit-identical to both the
    /// row-gather `mul` and the per-element naive product on ragged
    /// shapes (rows/cols not multiples of 64, including 0 and 1).
    #[test]
    fn mul_blocked_matches_mul_and_naive(
        case in (ragged_dim(), ragged_dim(), ragged_dim()).prop_flat_map(|(m, k, n)| {
            let abits = proptest::collection::vec(any::<bool>(), (m * k).max(1));
            let bbits = proptest::collection::vec(any::<bool>(), (k * n).max(1));
            (Just(m), Just(k), Just(n), abits, bbits)
        }),
    ) {
        let (m, k, n, abits, bbits) = case;
        let a = BitMatrix::from_fn(m, k, |r, c| abits[r * k + c]);
        let b = BitMatrix::from_fn(k, n, |r, c| bbits[r * n + c]);
        let blocked = a.mul_blocked(&b);
        prop_assert_eq!(&blocked, &a.mul(&b));
        prop_assert_eq!(&blocked, &naive_mul(&a, &b));
    }

    /// `mul_into` accumulates the same product into a word-aligned window
    /// of a wider output, reusing one scratch across calls.
    #[test]
    fn mul_into_window_matches(
        case in (1usize..40, ragged_dim()).prop_flat_map(|(m, k)| {
            (Just(m), Just(k), proptest::collection::vec(any::<bool>(), (m * k).max(1)))
        }),
        n in 1usize..100,
        window in 0usize..3,
    ) {
        let (m, k, bits) = case;
        let a = BitMatrix::from_fn(m, k, |r, c| bits[r * k + c]);
        let b = BitMatrix::from_fn(k, n, |r, c| (r + 2 * c) % 3 == 0);
        let mut out = BitMatrix::zeros(m, n + 64 * (window + 2));
        let mut scratch = symphase_bitmat::M4rScratch::new();
        symphase_bitmat::m4r::mul_blocked_into(&a, &b, &mut out, window, &mut scratch);
        let reference = a.mul(&b);
        for r in 0..m {
            for c in 0..n {
                prop_assert_eq!(out.get(r, window * 64 + c), reference.get(r, c));
            }
        }
        // XOR-accumulation: a second multiply cancels the window.
        symphase_bitmat::m4r::mul_blocked_into(&a, &b, &mut out, window, &mut scratch);
        prop_assert_eq!(out.count_ones(), 0);
    }

    /// `transpose_packed` (via `BitMatrix::transpose`) round-trips on
    /// ragged shapes, including empty and single-bit edges.
    #[test]
    fn transpose_packed_roundtrips_ragged(
        case in (ragged_dim(), ragged_dim()).prop_flat_map(|(r, c)| {
            (Just(r), Just(c), proptest::collection::vec(any::<bool>(), (r * c).max(1)))
        }),
    ) {
        let (rows, cols, bits) = case;
        let m = BitMatrix::from_fn(rows, cols, |r, c| bits[r * cols + c]);
        let t = m.transpose();
        prop_assert_eq!(t.rows(), cols);
        prop_assert_eq!(t.cols(), rows);
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(m.get(r, c), t.get(c, r));
            }
        }
        prop_assert_eq!(t.transpose(), m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every SIMD dispatch level produces **bit-identical** results to the
    /// scalar reference for the full kernel surface: the blocked
    /// Four-Russians multiply (table + gather + narrow-shot transposed
    /// paths), the row-gather `mul`, `transpose_packed`, and the row
    /// AND-popcount behind `mul_vec`, the four-block strip transpose and
    /// the `0`/`1` text expansion. The `SYMPHASE_SIMD` override and the
    /// bench `--simd` flag force exactly these levels, so this is the
    /// contract that makes forcing safe.
    #[test]
    fn kernels_bit_identical_across_simd_levels(
        case in (ragged_dim(), ragged_dim(), ragged_dim()).prop_flat_map(|(m, k, n)| {
            let abits = proptest::collection::vec(any::<bool>(), (m * k).max(1));
            let bbits = proptest::collection::vec(any::<bool>(), (k * n).max(1));
            (Just(m), Just(k), Just(n), abits, bbits)
        }),
    ) {
        let (m, k, n, abits, bbits) = case;
        let a = BitMatrix::from_fn(m, k, |r, c| abits[r * k + c]);
        let b = BitMatrix::from_fn(k, n, |r, c| bbits[r * n + c]);
        let v = BitVec::from_fn(k, |i| abits[i % abits.len()]);
        // A four-block strip and `k` bits of text from the same bits.
        let word = |w: usize| {
            (0..64).fold(0u64, |acc, i| acc | (u64::from(abits[(w * 64 + i) % abits.len()]) << i))
        };
        let strip: [[u64; 4]; 64] = std::array::from_fn(|r| std::array::from_fn(|l| word(4 * r + l)));
        let kernels = || {
            let kernels = simd::kernels();
            let mut s = strip;
            kernels.transpose_strip(&mut s);
            let mut text = vec![0u8; k];
            kernels.expand_01(v.words(), &mut text);
            (a.mul_blocked(&b), a.mul(&b), a.transpose(), a.mul_vec(&v), s, text)
        };
        let reference = simd::with_level(simd::SimdLevel::Scalar, kernels);
        for level in simd::available_levels() {
            let got = simd::with_level(level, kernels);
            prop_assert_eq!(&got.0, &reference.0, "mul_blocked diverged at {}", level.name());
            prop_assert_eq!(&got.1, &reference.1, "mul diverged at {}", level.name());
            prop_assert_eq!(&got.2, &reference.2, "transpose diverged at {}", level.name());
            prop_assert_eq!(&got.3, &reference.3, "mul_vec diverged at {}", level.name());
            prop_assert_eq!(&got.4, &reference.4, "transpose_strip diverged at {}", level.name());
            prop_assert_eq!(&got.5, &reference.5, "expand_01 diverged at {}", level.name());
        }
    }

    /// `transpose_packed` on a column window — `src` starting at the
    /// window's first word and ending exactly at the last word it reads —
    /// matches a naive transpose at every level, and every output word is
    /// either written or zeroed (`dst` starts as all ones). Widths reach
    /// past four 64-column blocks, so windows take the strip kernel.
    #[test]
    fn transpose_packed_column_window_matches_naive(
        rows in prop_oneof![Just(0usize), Just(1usize), Just(64usize), Just(65usize), 2usize..200],
        cols in prop_oneof![Just(0usize), Just(255usize), Just(256usize), Just(257usize), 1usize..330],
        lead in 0usize..3,
        tail in 0usize..2,
        seed in any::<u64>(),
    ) {
        let src_stride = lead + cols.div_ceil(64) + tail;
        let mut state = seed | 1;
        let words: Vec<u64> = (0..rows * src_stride)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        let window = match rows {
            0 => &[][..],
            _ => &words[lead..lead + (rows - 1) * src_stride + cols.div_ceil(64)],
        };
        let bit = |r: usize, c: usize| (words[r * src_stride + lead + c / 64] >> (c % 64)) & 1;
        // One slack word per output row.
        let dst_stride = rows.div_ceil(64) + 1;
        let mut naive = vec![0u64; cols * dst_stride];
        for c in 0..cols {
            for r in 0..rows {
                naive[c * dst_stride + r / 64] |= bit(r, c) << (r % 64);
            }
        }
        for level in simd::available_levels() {
            let mut dst = vec![!0u64; cols * dst_stride];
            simd::with_level(level, || {
                symphase_bitmat::transpose::transpose_packed(
                    window, rows, cols, src_stride, &mut dst, dst_stride,
                )
            });
            prop_assert_eq!(&dst, &naive, "diverged at {}", level.name());
        }
    }

    /// The narrow-shot transposed path (tall `a`, sub-word `b`) is also
    /// level-independent — it routes through `transpose_packed` twice, so
    /// it exercises the vectorized swap network hardest.
    #[test]
    fn narrow_shot_path_bit_identical_across_levels(
        rows in 256usize..400,
        cols in 1usize..63,
        seed in any::<u64>(),
    ) {
        let a = BitMatrix::from_fn(rows, 129, |r, c| {
            (r.wrapping_mul(31).wrapping_add(c.wrapping_mul(17)) ^ seed as usize).is_multiple_of(3)
        });
        let b = BitMatrix::from_fn(129, cols, |r, c| {
            (r.wrapping_mul(13).wrapping_add(c.wrapping_mul(7)) ^ seed as usize).is_multiple_of(2)
        });
        let reference = simd::with_level(simd::SimdLevel::Scalar, || a.mul_blocked(&b));
        for level in simd::available_levels() {
            let got = simd::with_level(level, || a.mul_blocked(&b));
            prop_assert_eq!(&got, &reference, "diverged at {}", level.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn layouts_conform(
        rows in 5usize..90,
        cols in 5usize..90,
        ops in proptest::collection::vec(
            (any::<bool>(), any::<usize>(), any::<usize>(), any::<bool>()),
            1..40,
        ),
    ) {
        layout_conformance::<ChpLayout>(rows, cols, &ops);
        layout_conformance::<StimLayout>(rows, cols, &ops);
        layout_conformance::<SymLayout512>(rows, cols, &ops);
    }
}
