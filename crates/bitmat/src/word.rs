//! Machine-word primitives shared by every packed-bit container.

/// The machine word all packed-bit containers are built from.
pub type Word = u64;

/// Number of bits in a [`Word`].
pub const WORD_BITS: usize = Word::BITS as usize;

/// Number of words needed to store `bits` bits.
///
/// ```
/// assert_eq!(symphase_bitmat::words_for(0), 0);
/// assert_eq!(symphase_bitmat::words_for(64), 1);
/// assert_eq!(symphase_bitmat::words_for(65), 2);
/// ```
#[inline]
pub const fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// Mask selecting the valid bits of the last word of a `bits`-bit vector.
///
/// Returns the all-ones word when `bits` is a multiple of the word size
/// (including zero), because in that case the final word has no slack.
#[inline]
pub const fn tail_mask(bits: usize) -> Word {
    let rem = bits % WORD_BITS;
    if rem == 0 {
        !0
    } else {
        (1 << rem) - 1
    }
}

/// Splits a bit index into `(word_index, bit_within_word)`.
#[inline]
pub const fn split_index(bit: usize) -> (usize, u32) {
    (bit / WORD_BITS, (bit % WORD_BITS) as u32)
}

/// XORs `src` into `dst` word-by-word, dispatching to the widest
/// available SIMD level (see [`crate::simd`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn xor_into(dst: &mut [Word], src: &[Word]) {
    assert_eq!(dst.len(), src.len(), "xor_into length mismatch");
    crate::simd::kernels().xor_into(dst, src);
}

/// Total number of set bits in a word slice.
#[inline]
pub fn count_ones(words: &[Word]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Copies the first `dst.len()` bytes of `src`'s little-endian byte image
/// into `dst` — bit `i` of the words lands at bit `i % 8` of byte `i / 8`.
/// On little-endian targets this is one slice copy of the words' byte
/// view; per-word copies made a 145-record `b8` writer ~1.4× slower.
///
/// # Panics
///
/// Panics if `src` holds fewer than `dst.len()` bytes.
#[inline]
pub fn copy_le_bytes(src: &[Word], dst: &mut [u8]) {
    assert!(src.len() * 8 >= dst.len(), "copy_le_bytes source too short");
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `u8` has alignment 1 and every bit pattern is a valid
        // `u8`, and the view covers exactly the `src.len() * 8` bytes
        // `src` owns; it is only read while `src` is borrowed.
        let bytes = unsafe { std::slice::from_raw_parts(src.as_ptr().cast::<u8>(), src.len() * 8) };
        dst.copy_from_slice(&bytes[..dst.len()]);
    }
    #[cfg(not(target_endian = "little"))]
    for (out, w) in dst.chunks_mut(8).zip(src) {
        out.copy_from_slice(&w.to_le_bytes()[..out.len()]);
    }
}

/// Fills `dst` through `fill`, which writes the words' little-endian byte
/// image in one call: word `i` takes bytes `8i..8i + 8`, least
/// significant first. Fed an RNG's `fill_bytes`, this gives the same
/// words as one `next_u64` per word, in one call instead of one per word
/// (one virtual call per row behind a `dyn RngCore`).
#[inline]
pub fn fill_le_bytes(dst: &mut [Word], fill: impl FnOnce(&mut [u8])) {
    let len = dst.len() * 8;
    // SAFETY: `u8` has alignment 1 and every bit pattern is a valid `u8`
    // and a valid `Word`, and the view covers exactly the `len` bytes
    // `dst` owns; `dst` is not touched while the view is live.
    let bytes = unsafe { std::slice::from_raw_parts_mut(dst.as_mut_ptr().cast::<u8>(), len) };
    fill(bytes);
    #[cfg(not(target_endian = "little"))]
    for w in dst.iter_mut() {
        *w = Word::from_le(*w);
    }
}

/// Iterates over the indices of the set bits of `words`, ascending.
pub fn iter_ones(words: &[Word]) -> IterOnes<'_> {
    IterOnes {
        words,
        word_idx: 0,
        current: words.first().copied().unwrap_or(0),
    }
}

/// Iterator over the set-bit indices of a word slice, produced by
/// [`iter_ones`] and [`BitVec::iter_ones`](crate::BitVec::iter_ones).
pub struct IterOnes<'a> {
    words: &'a [Word],
    word_idx: usize,
    current: Word,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_le_bytes_matches_to_le_bytes() {
        let src = [0x0807_0605_0403_0201u64, 0x100f_0e0d_0c0b_0a09];
        for n in 0..=16 {
            let mut dst = vec![0u8; n];
            copy_le_bytes(&src, &mut dst);
            let want: Vec<u8> = src.iter().flat_map(|w| w.to_le_bytes()).take(n).collect();
            assert_eq!(dst, want);
        }
    }

    #[test]
    fn fill_le_bytes_reads_words_little_endian() {
        for n in 0..=3 {
            let mut dst = vec![!0 as Word; n];
            fill_le_bytes(&mut dst, |bytes| {
                assert_eq!(bytes.len(), n * 8);
                for (i, b) in bytes.iter_mut().enumerate() {
                    *b = i as u8 + 1;
                }
            });
            let want: Vec<Word> = (0..n)
                .map(|w| Word::from_le_bytes(std::array::from_fn(|j| (8 * w + j) as u8 + 1)))
                .collect();
            assert_eq!(dst, want);
        }
    }

    #[test]
    fn words_for_boundaries() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(63), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
    }

    #[test]
    fn tail_mask_boundaries() {
        assert_eq!(tail_mask(0), !0);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(63), (1 << 63) - 1);
        assert_eq!(tail_mask(64), !0);
        assert_eq!(tail_mask(65), 1);
    }

    #[test]
    fn split_index_examples() {
        assert_eq!(split_index(0), (0, 0));
        assert_eq!(split_index(63), (0, 63));
        assert_eq!(split_index(64), (1, 0));
        assert_eq!(split_index(130), (2, 2));
    }

    #[test]
    fn xor_into_works() {
        let mut a = [0b1100u64, 0b1010];
        let b = [0b1010u64, 0b1010];
        xor_into(&mut a, &b);
        assert_eq!(a, [0b0110, 0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_into_length_mismatch_panics() {
        let mut a = [0u64; 2];
        xor_into(&mut a, &[0u64; 3]);
    }

    #[test]
    fn count_ones_counts() {
        assert_eq!(count_ones(&[0b101, 0b11, 0]), 4);
        assert_eq!(count_ones(&[]), 0);
    }
}
