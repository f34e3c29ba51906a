//! Block generation of biased random bits.
//!
//! Sampling the symbol-assignment matrix `B` (paper §3.1/§3.2.3) needs, for
//! every noise symbol, a row of `n_smp` i.i.d. Bernoulli(p) bits. Filling
//! those rows bit-by-bit would dominate sampling time, so this module
//! provides word-block fills:
//!
//! * `p = 1/2` (measurement coins): raw RNG words, the whole row in one
//!   `fill_bytes` call.
//! * small `p` (realistic noise rates): geometric skip sampling — draw the
//!   gap to the next set bit instead of testing every bit.
//! * large `p`: fill with ones and clear with the complementary rate.
//!
//! The block fills run as whole-slice `fill` (compiled to memset-wide
//! stores, the widest the target has). The RNG-consuming paths keep the
//! stream word-at-a-time: the coin path takes one RNG word per output
//! word, in order (through one `fill_bytes` over the row's little-endian
//! byte view, which is the same words), and the geometric path's draws
//! are data-dependent, so any lane-widening would reorder the stream and
//! break the bit-identical contract pinned by
//! `index_iteration_matches_fill_stream` (see [`crate::simd`] for the
//! kernels that *do* widen).

use rand::Rng;

use crate::word::{fill_le_bytes, tail_mask, Word, WORD_BITS};

/// Fills the first `nbits` bits of `words` with i.i.d. Bernoulli(`p`) bits;
/// slack bits are zeroed.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]` or `words` is too short for `nbits`.
pub fn fill_bernoulli(words: &mut [Word], nbits: usize, p: f64, rng: &mut impl Rng) {
    assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
    assert!(words.len() * WORD_BITS >= nbits, "word buffer too short");
    let nwords = nbits.div_ceil(WORD_BITS);
    let words = &mut words[..nwords];
    if nbits == 0 {
        words.fill(0);
        return;
    }

    if p == 0.0 {
        words.fill(0);
        return;
    }
    if p == 1.0 {
        words.fill(!0);
        mask_tail(words, nbits);
        return;
    }
    // Branch boundaries are exact: only p == 0.5 is a fair coin. Snapping
    // a window around 0.5 (as this used to) silently rounds nearby biases
    // to 1/2 *and* changes how much randomness the call consumes, which
    // breaks the bit-identical method-equivalence contract of the
    // sampler's `SamplingMethod` strategies.
    if p == 0.5 {
        // One `fill_bytes` over the row: the same words as one
        // `rng.random::<Word>()` each, without a call per word.
        fill_le_bytes(words, |bytes| rng.fill_bytes(bytes));
        mask_tail(words, nbits);
        return;
    }
    if p < 0.5 {
        words.fill(0);
        for idx in GeometricBits::new(p, nbits, rng) {
            words[idx / WORD_BITS] |= 1 << (idx % WORD_BITS);
        }
    } else {
        words.fill(!0);
        for idx in GeometricBits::new(1.0 - p, nbits, rng) {
            words[idx / WORD_BITS] &= !(1 << (idx % WORD_BITS));
        }
        mask_tail(words, nbits);
    }
}

fn mask_tail(words: &mut [Word], nbits: usize) {
    if let Some(last) = words.last_mut() {
        *last &= tail_mask(nbits);
    }
}

/// Iterator over the positions of set bits in an `nbits`-long Bernoulli(`p`)
/// stream, generated by geometric gap sampling (`p` must be in `(0, 0.5]`).
struct GeometricBits<'a, R: Rng> {
    /// `1 / ln(1 - p)`, negative.
    inv_log_q: f64,
    pos: usize,
    nbits: usize,
    rng: &'a mut R,
}

impl<'a, R: Rng> GeometricBits<'a, R> {
    fn new(p: f64, nbits: usize, rng: &'a mut R) -> Self {
        debug_assert!(p > 0.0 && p <= 0.5);
        // ln_1p keeps the log finite for tiny p: computing `(1.0 - p).ln()`
        // rounds `1.0 - p` to exactly 1.0 once p < ~1e-16, making the
        // quotient ±∞ and the gap collapse to 0 — every bit fired even
        // though p was astronomically small.
        Self {
            inv_log_q: 1.0 / (-p).ln_1p(),
            pos: 0,
            nbits,
            rng,
        }
    }
}

impl<R: Rng> Iterator for GeometricBits<'_, R> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.pos >= self.nbits {
            return None;
        }
        // Gap ~ Geometric(p): floor(ln(U) / ln(1-p)) with U ∈ (0, 1].
        let u: f64 = 1.0 - self.rng.random::<f64>(); // (0, 1]
        let gap = (u.ln() * self.inv_log_q).floor();
        // Very small p can produce enormous gaps; saturate instead of wrapping.
        let gap = if gap >= (usize::MAX / 2) as f64 {
            usize::MAX / 2
        } else {
            gap as usize
        };
        let idx = self.pos.saturating_add(gap);
        if idx >= self.nbits {
            self.pos = self.nbits;
            return None;
        }
        self.pos = idx + 1;
        Some(idx)
    }
}

/// Calls `f` with every index of a set bit in an `nbits`-long
/// Bernoulli(`p`) stream, without materializing the bits. Used by the
/// hybrid sampler's event sink for single-symbol fault sites: for
/// realistic (small) fault rates only a handful of shots fire per site.
///
/// Consumes **exactly the same RNG stream** as [`fill_bernoulli`] with
/// the same `(p, nbits)` — the indices reported are precisely the bits
/// that call would set. The shared noise draw lets a sink use either
/// for a Bernoulli slot, so the two must keep the same branch structure.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub fn for_each_bernoulli_index(
    p: f64,
    nbits: usize,
    rng: &mut impl Rng,
    mut f: impl FnMut(usize),
) {
    assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
    if nbits == 0 || p == 0.0 {
        return;
    }
    if p == 1.0 {
        for i in 0..nbits {
            f(i);
        }
        return;
    }
    if p == 0.5 {
        // Word draws, like the coin path of `fill_bernoulli`.
        let mut base = 0;
        while base < nbits {
            let word: Word = rng.random();
            let valid = WORD_BITS.min(nbits - base);
            let mut bits = word & tail_mask(valid);
            while bits != 0 {
                f(base + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
            base += WORD_BITS;
        }
        return;
    }
    if p < 0.5 {
        for idx in GeometricBits::new(p, nbits, rng) {
            f(idx);
        }
    } else {
        // Complement path: geometric gaps over the *cleared* bits, merged
        // against the full index range.
        let mut cleared = GeometricBits::new(1.0 - p, nbits, rng);
        let mut next_clear = cleared.next();
        for i in 0..nbits {
            if next_clear == Some(i) {
                next_clear = cleared.next();
            } else {
                f(i);
            }
        }
    }
}

/// Convenience: samples a length-`nbits` biased [`crate::BitVec`].
pub fn bernoulli_bitvec(nbits: usize, p: f64, rng: &mut impl Rng) -> crate::BitVec {
    let mut v = crate::BitVec::zeros(nbits);
    fill_bernoulli(v.words_mut(), nbits, p, rng);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::count_ones;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn density(p: f64, nbits: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut words = vec![0 as Word; nbits.div_ceil(WORD_BITS)];
        fill_bernoulli(&mut words, nbits, p, &mut rng);
        count_ones(&words) as f64 / nbits as f64
    }

    #[test]
    fn extreme_probabilities() {
        assert_eq!(density(0.0, 10_000, 1), 0.0);
        assert_eq!(density(1.0, 10_000, 1), 1.0);
    }

    #[test]
    fn half_probability_density() {
        let d = density(0.5, 1_000_000, 2);
        assert!((d - 0.5).abs() < 0.01, "density {d} too far from 0.5");
    }

    #[test]
    fn small_probability_density() {
        for &(p, seed) in &[(0.001, 3u64), (0.01, 4), (0.1, 5), (0.3, 6)] {
            let n = 2_000_000;
            let d = density(p, n, seed);
            // 6 standard deviations of a Binomial(n, p) proportion.
            let sigma = (p * (1.0 - p) / n as f64).sqrt();
            assert!(
                (d - p).abs() < 6.0 * sigma + 1e-9,
                "p={p}: density {d} out of tolerance"
            );
        }
    }

    #[test]
    fn large_probability_density() {
        for &(p, seed) in &[(0.7, 7u64), (0.9, 8), (0.99, 9)] {
            let n = 1_000_000;
            let d = density(p, n, seed);
            let sigma = (p * (1.0 - p) / n as f64).sqrt();
            assert!(
                (d - p).abs() < 6.0 * sigma + 1e-9,
                "p={p}: density {d} out of tolerance"
            );
        }
    }

    #[test]
    fn near_half_probabilities_stay_unbiased() {
        // Chi-squared-style bound on the empirical frequency straddling
        // the p = 0.5 branch boundary: ±ε biases must neither panic (the
        // complement path may hand exactly 0.5 to GeometricBits) nor drift
        // from p. The old snap-to-coin window made these silently exact
        // fair coins drawing word randomness; now each side takes its own
        // branch.
        let n = 1_000_000usize;
        for (i, &p) in [0.5 - 1e-13, 0.5, 0.5 + 1e-13, 0.4999, 0.5001]
            .iter()
            .enumerate()
        {
            let d = density(p, n, 40 + i as u64);
            let sigma = (p * (1.0 - p) / n as f64).sqrt();
            assert!(
                (d - p).abs() < 6.0 * sigma + 1e-9,
                "p={p}: density {d} out of tolerance"
            );
        }
    }

    #[test]
    fn tiny_probability_is_not_certainty() {
        // Regression: for p < ~1e-16, `(1.0 - p).ln()` rounds to 0 and the
        // geometric gap collapsed, setting *every* bit. Expected count at
        // p = 1e-18 over 2M bits is 2e-12 — any set bit is a failure for
        // practical purposes, but allow the draws their 6σ.
        for &p in &[1e-18f64, 1e-12, 1e-9] {
            let n = 2_000_000usize;
            let mut rng = StdRng::seed_from_u64(50);
            let mut words = vec![0 as Word; n.div_ceil(WORD_BITS)];
            fill_bernoulli(&mut words, n, p, &mut rng);
            let count = count_ones(&words) as f64;
            let expect = p * n as f64;
            assert!(
                count <= expect + 6.0 * expect.sqrt() + 3.0,
                "p={p}: {count} bits set, expected ≈ {expect}"
            );
        }
    }

    #[test]
    fn huge_probability_is_not_certainty() {
        // Mirror image through the complement path: p within 1e-12 of 1.0
        // must clear ~p̄·n bits, not zero of them.
        for &q in &[1e-12f64, 1e-9] {
            let p = 1.0 - q;
            let n = 2_000_000usize;
            let mut rng = StdRng::seed_from_u64(60);
            let mut words = vec![0 as Word; n.div_ceil(WORD_BITS)];
            fill_bernoulli(&mut words, n, p, &mut rng);
            let cleared = (n - count_ones(&words)) as f64;
            let expect = q * n as f64;
            assert!(
                cleared <= expect + 6.0 * expect.sqrt() + 3.0,
                "p={p}: {cleared} bits cleared, expected ≈ {expect}"
            );
        }
    }

    #[test]
    fn slack_bits_are_zero() {
        let mut rng = StdRng::seed_from_u64(10);
        for nbits in [1usize, 63, 65, 100] {
            let mut words = vec![0 as Word; nbits.div_ceil(WORD_BITS)];
            fill_bernoulli(&mut words, nbits, 0.9, &mut rng);
            let slack = words.last().unwrap() & !tail_mask(nbits);
            assert_eq!(slack, 0, "slack bits set for nbits={nbits}");
        }
    }

    #[test]
    fn zero_bits_is_fine() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut words: Vec<Word> = vec![];
        fill_bernoulli(&mut words, 0, 0.3, &mut rng);
    }

    #[test]
    fn bits_are_not_obviously_correlated() {
        // Check pairwise correlation between adjacent bits is near zero for
        // the geometric path (a classic off-by-one failure mode).
        let mut rng = StdRng::seed_from_u64(12);
        let n = 1_000_000;
        let v = bernoulli_bitvec(n, 0.2, &mut rng);
        let mut both = 0usize;
        let mut first = 0usize;
        for i in 0..n - 1 {
            if v.get(i) {
                first += 1;
                if v.get(i + 1) {
                    both += 1;
                }
            }
        }
        let cond = both as f64 / first as f64;
        assert!(
            (cond - 0.2).abs() < 0.01,
            "P(next|set) = {cond}, expected ≈ 0.2"
        );
    }

    #[test]
    fn bernoulli_bitvec_len() {
        let mut rng = StdRng::seed_from_u64(13);
        let v = bernoulli_bitvec(77, 0.5, &mut rng);
        assert_eq!(v.len(), 77);
    }

    #[test]
    fn index_iteration_density_matches() {
        let mut rng = StdRng::seed_from_u64(14);
        for &p in &[0.01f64, 0.3, 0.8] {
            let n = 500_000;
            let mut count = 0usize;
            let mut last = None;
            for_each_bernoulli_index(p, n, &mut rng, |i| {
                if let Some(prev) = last {
                    assert!(i > prev, "indices must be strictly increasing");
                }
                last = Some(i);
                count += 1;
            });
            let sigma = (n as f64 * p * (1.0 - p)).sqrt();
            assert!(
                (count as f64 - p * n as f64).abs() < 6.0 * sigma + 10.0,
                "p={p}: {count} fired"
            );
        }
    }

    #[test]
    fn index_iteration_matches_fill_stream() {
        // `for_each_bernoulli_index` must report exactly the bits
        // `fill_bernoulli` would set AND leave the RNG at the same stream
        // position — the bit-identical sampling-method contract depends
        // on every Bernoulli primitive sharing one stream.
        use rand::RngCore;
        for &p in &[0.0f64, 1e-18, 0.3, 0.5, 0.5 + 1e-13, 0.8, 1.0 - 1e-12, 1.0] {
            for &nbits in &[0usize, 1, 63, 64, 65, 1000] {
                let mut r1 = StdRng::seed_from_u64(77);
                let mut r2 = StdRng::seed_from_u64(77);
                let mut words = vec![0 as Word; nbits.div_ceil(WORD_BITS)];
                fill_bernoulli(&mut words, nbits, p, &mut r1);
                let mut indices = Vec::new();
                for_each_bernoulli_index(p, nbits, &mut r2, |i| indices.push(i));
                let set: Vec<usize> = (0..nbits)
                    .filter(|&i| (words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1)
                    .collect();
                assert_eq!(indices, set, "p={p} nbits={nbits}: different bits");
                assert_eq!(
                    r1.next_u64(),
                    r2.next_u64(),
                    "p={p} nbits={nbits}: stream diverged"
                );
            }
        }
    }

    #[test]
    fn index_iteration_edge_cases() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut v = Vec::new();
        for_each_bernoulli_index(1.0, 5, &mut rng, |i| v.push(i));
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
        v.clear();
        for_each_bernoulli_index(0.0, 5, &mut rng, |i| v.push(i));
        assert!(v.is_empty());
        for_each_bernoulli_index(0.5, 0, &mut rng, |i| v.push(i));
        assert!(v.is_empty());
    }
}
