//! Word-blocked bit-matrix transposition kernels.
//!
//! The 64×64 kernel is the classic recursive swap network (Hacker's Delight,
//! §7-3, widened to 64-bit words). Full-matrix transposition tiles the matrix
//! into 64×64 blocks, transposes each block with the kernel, and swaps the
//! block grid — the same structure Stim and SymPhase use for switching the
//! stabilizer tableau between row-major and column-major access (paper §4).
//!
//! [`transpose_packed`] dispatches its kernels through [`crate::simd`]: the
//! 64×64 block kernel runs its outer swap scales (`j ≥ 4`) over 256/512-bit
//! lanes, and the strip kernel transposes four adjacent blocks at once, one
//! 256-bit lane per block — both bit-identical to the scalar
//! [`transpose_64x64`] here.

use crate::word::Word;

/// Transposes a 64×64 bit-matrix in place.
///
/// `a[r]` holds row `r`; bit `c` of `a[r]` (little-endian) is the element at
/// `(r, c)`. After the call, `a[c]` bit `r` holds the old `(r, c)`.
///
/// ```
/// let mut m = [0u64; 64];
/// m[3] = 1 << 10;
/// symphase_bitmat::transpose::transpose_64x64(&mut m);
/// assert_eq!(m[10], 1 << 3);
/// ```
pub fn transpose_64x64(a: &mut [Word; 64]) {
    // Recursive block-swap network (Hacker's Delight §7-3), adapted to the
    // little-endian column convention used throughout this crate: at scale
    // `j`, the high bits of row `k` swap with the low bits of row `k+j`.
    let mut j: usize = 32;
    let mut m: Word = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k: usize = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k | j] ^= t;
            a[k] ^= t << j;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Transposes a rectangular bit-matrix given as row-major packed words.
///
/// `src` has `rows` rows of `src_stride` words each; the result has `cols`
/// rows of `dst_stride` words. Both strides must cover the respective bit
/// counts. Slack bits in `src` beyond `cols` are ignored; slack bits in the
/// output are zero.
///
/// `src` may be a column window of a wider matrix: pass the slice starting
/// at the window's first word (`&words[t0 / 64..]` for a window starting at
/// column `t0`, a multiple of 64) with `cols` the window width and
/// `src_stride` the full matrix's stride. The kernel reads only the first
/// `⌈cols/64⌉` words of each row, so the last row may end at the window.
///
/// Four full 64-column blocks at a time go through the strip kernel
/// ([`crate::simd::Kernels::transpose_strip`]), the rest through the 64×64
/// block kernel.
///
/// # Panics
///
/// Panics if the slices are too small for the described shapes.
pub fn transpose_packed(
    src: &[Word],
    rows: usize,
    cols: usize,
    src_stride: usize,
    dst: &mut [Word],
    dst_stride: usize,
) {
    let block_rows = rows.div_ceil(64);
    let block_cols = cols.div_ceil(64);
    assert!(
        src_stride >= block_cols || rows == 0,
        "src stride too small"
    );
    assert!(
        dst_stride >= block_rows || cols == 0,
        "dst stride too small"
    );
    if rows > 0 {
        assert!(
            src.len() >= (rows - 1) * src_stride + block_cols,
            "src slice too small"
        );
    }
    assert!(dst.len() >= cols * dst_stride, "dst slice too small");
    // Every output row's first `block_rows` words are written below; only
    // the slack words past them need clearing.
    if block_rows < dst_stride {
        for row in dst[..cols * dst_stride].chunks_exact_mut(dst_stride) {
            row[block_rows..].fill(0);
        }
    }

    let kernels = crate::simd::kernels();
    // Block columns wholly inside `cols`: the ragged last one is masked.
    let full_cols = cols / 64;
    let mut strip = [[0 as Word; 4]; 64];
    let mut block = [0 as Word; 64];
    for br in 0..block_rows {
        let live = (rows - br * 64).min(64);
        let mut bc = 0;
        while bc + 4 <= full_cols {
            for (i, lanes) in strip.iter_mut().enumerate() {
                *lanes = if i < live {
                    let at = (br * 64 + i) * src_stride + bc;
                    src[at..at + 4].try_into().expect("four words")
                } else {
                    [0; 4]
                };
            }
            kernels.transpose_strip(&mut strip);
            for (l, bcol) in (bc..bc + 4).enumerate() {
                for (i, lanes) in strip.iter().enumerate() {
                    dst[(bcol * 64 + i) * dst_stride + br] = lanes[l];
                }
            }
            bc += 4;
        }
        for bc in bc..block_cols {
            // Gather the 64×64 block at (br, bc); rows beyond `rows` are zero.
            for (i, b) in block.iter_mut().enumerate() {
                *b = if i < live {
                    src[(br * 64 + i) * src_stride + bc]
                } else {
                    0
                };
            }
            // Mask slack columns of the final block column so they cannot
            // leak into the output as phantom rows.
            let valid = (cols - bc * 64).min(64);
            if valid < 64 {
                let mask = (1 << valid) - 1;
                for b in block.iter_mut() {
                    *b &= mask;
                }
            }
            kernels.transpose_64x64(&mut block);
            // Scatter to the transposed block position (bc, br).
            for (i, b) in block.iter().take(valid).enumerate() {
                dst[(bc * 64 + i) * dst_stride + br] = *b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn naive_transpose_64(a: &[Word; 64]) -> [Word; 64] {
        let mut out = [0; 64];
        for (r, &row) in a.iter().enumerate() {
            for (c, out_row) in out.iter_mut().enumerate() {
                if (row >> c) & 1 == 1 {
                    *out_row |= 1 << r;
                }
            }
        }
        out
    }

    #[test]
    fn kernel_matches_naive_on_random_input() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let mut a: [Word; 64] = [0; 64];
            for w in a.iter_mut() {
                *w = rng.random();
            }
            let expected = naive_transpose_64(&a);
            let mut got = a;
            transpose_64x64(&mut got);
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn kernel_is_involution() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut a: [Word; 64] = [0; 64];
        for w in a.iter_mut() {
            *w = rng.random();
        }
        let orig = a;
        transpose_64x64(&mut a);
        transpose_64x64(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn kernel_identity_fixed_point() {
        let mut eye: [Word; 64] = [0; 64];
        for (i, w) in eye.iter_mut().enumerate() {
            *w = 1 << i;
        }
        let orig = eye;
        transpose_64x64(&mut eye);
        assert_eq!(eye, orig);
    }

    #[test]
    fn packed_rectangular_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        let (rows, cols): (usize, usize) = (70, 130);
        let src_stride = cols.div_ceil(64);
        let dst_stride = rows.div_ceil(64);
        let mut src = vec![0 as Word; rows * src_stride];
        for w in src.iter_mut() {
            *w = rng.random();
        }
        // Canonicalize slack bits of each row.
        for r in 0..rows {
            let last = &mut src[r * src_stride + src_stride - 1];
            *last &= (1 << (cols % 64)) - 1;
        }
        let mut t = vec![0 as Word; cols * dst_stride];
        transpose_packed(&src, rows, cols, src_stride, &mut t, dst_stride);
        for r in 0..rows {
            for c in 0..cols {
                let orig = (src[r * src_stride + c / 64] >> (c % 64)) & 1;
                let tr = (t[c * dst_stride + r / 64] >> (r % 64)) & 1;
                assert_eq!(orig, tr, "mismatch at ({r},{c})");
            }
        }
        let mut back = vec![0 as Word; rows * src_stride];
        transpose_packed(&t, cols, rows, dst_stride, &mut back, src_stride);
        assert_eq!(src, back);
    }
}
