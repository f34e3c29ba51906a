//! Runtime-dispatched SIMD kernels for the packed-F₂ hot loops.
//!
//! Every inner loop of this crate — the m4r table XOR-accumulate, the
//! Gray-code table build, row XOR/AND primitives, and the 64×64 transpose
//! swap network (one block, or a strip of four blocks side by side) —
//! moves whole machine words with no cross-word carries, so the same code
//! runs unchanged over 256-bit (AVX2) or 512-bit (AVX-512) lanes. The
//! output writers' bit-to-`0`/`1` text expansion is a byte shuffle, compare
//! and subtract per 32 chars. This module owns that widening:
//!
//! * [`SimdLevel`] — the dispatch ladder (`Scalar` → `Avx2` → `Avx512`),
//!   with one-time runtime feature detection and an optional
//!   `SYMPHASE_SIMD` environment override (`scalar|avx2|avx512`).
//! * [`Kernels`] — a resolved dispatch handle callers hoist out of their
//!   row loops; each method matches on the level once per call.
//! * [`with_level`] — a thread-local override so tests and benchmarks can
//!   force every available level and pin bit-identity against scalar.
//!
//! Every SIMD path computes exactly the output of its scalar fallback
//! (XOR/AND are lane-local), so outputs are **bit-identical**
//! across levels; `crates/bitmat/tests/properties.rs` pins that with
//! proptests run at every available level.
//!
//! The scalar fallback is mandatory and always available: non-x86_64
//! targets (and x86_64 machines without AVX2) report only
//! [`SimdLevel::Scalar`].

use std::cell::Cell;
use std::sync::OnceLock;

use crate::word::Word;

/// One rung of the SIMD dispatch ladder, ordered weakest to widest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable word-at-a-time loops (always available).
    Scalar,
    /// 256-bit lanes via AVX2 (`std::arch` x86_64 intrinsics).
    Avx2,
    /// 512-bit lanes via AVX-512F (+BW for nothing extra — F suffices
    /// for the XOR/AND kernels here).
    Avx512,
}

impl SimdLevel {
    /// Every level, weakest first.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];

    /// Stable name (the `SYMPHASE_SIMD` / `--simd` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// Parses a level name (`scalar`, `avx2`, `avx512`).
    pub fn from_name(name: &str) -> Option<SimdLevel> {
        Self::ALL.into_iter().find(|l| l.name() == name)
    }
}

/// The widest level this CPU supports, detected once.
fn detect_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return SimdLevel::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

/// The widest [`SimdLevel`] the running CPU supports (cached).
pub fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(detect_level)
}

/// Every level the running CPU can execute, weakest first (the ladder up
/// to and including [`detected_level`]). Tests iterate this to pin
/// bit-identity at every rung.
pub fn available_levels() -> impl Iterator<Item = SimdLevel> {
    let max = detected_level();
    SimdLevel::ALL.into_iter().filter(move |&l| l <= max)
}

/// The process-wide default level: the detected maximum, clamped down by
/// a `SYMPHASE_SIMD=scalar|avx2|avx512` environment override. Requesting
/// a level the CPU lacks clamps to the detected maximum (running AVX-512
/// code on a CPU without it would fault, so the override can only narrow
/// the ladder); an unrecognized value is reported once via `eprintln` and
/// ignored. Read once and cached.
pub fn default_level() -> SimdLevel {
    static DEFAULT: OnceLock<SimdLevel> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let detected = detected_level();
        match std::env::var("SYMPHASE_SIMD") {
            Ok(name) => match SimdLevel::from_name(name.trim()) {
                Some(requested) => requested.min(detected),
                None => {
                    eprintln!(
                        "warning: SYMPHASE_SIMD='{name}' is not one of \
                         scalar|avx2|avx512; using {}",
                        detected.name()
                    );
                    detected
                }
            },
            Err(_) => detected,
        }
    })
}

thread_local! {
    /// Per-thread forced level (tests, the bench `--simd` flag).
    static FORCED: Cell<Option<SimdLevel>> = const { Cell::new(None) };
}

/// The level kernels dispatch on *right now* for this thread: the
/// [`with_level`] override if one is active, else [`default_level`].
pub fn active_level() -> SimdLevel {
    FORCED.with(|f| f.get()).unwrap_or_else(default_level)
}

/// Runs `f` with this thread's kernels forced to `level`, restoring the
/// previous override afterwards (also on panic). Nests.
///
/// # Panics
///
/// Panics if `level` exceeds [`detected_level`] — executing wider
/// instructions than the CPU has would be undefined behavior, so the
/// override can only select levels the machine actually supports.
pub fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    assert!(
        level <= detected_level(),
        "SIMD level {} not available on this CPU (detected {})",
        level.name(),
        detected_level().name()
    );
    struct Restore(Option<SimdLevel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|f| f.set(self.0));
        }
    }
    let _restore = Restore(FORCED.with(|f| f.replace(Some(level))));
    f()
}

/// A resolved dispatch handle: callers obtain one per kernel invocation
/// (one thread-local read) and reuse it across their row loops, so the
/// per-row dispatch cost is a single enum match.
#[derive(Clone, Copy, Debug)]
pub struct Kernels {
    level: SimdLevel,
}

/// The kernels for this thread's [`active_level`].
#[inline]
pub fn kernels() -> Kernels {
    Kernels {
        level: active_level(),
    }
}

/// The kernels for an explicit level (benchmarks comparing rungs).
///
/// # Panics
///
/// Panics if `level` exceeds [`detected_level`].
pub fn kernels_for(level: SimdLevel) -> Kernels {
    assert!(
        level <= detected_level(),
        "SIMD level {} not available on this CPU",
        level.name()
    );
    Kernels { level }
}

impl Kernels {
    /// The level this handle dispatches to.
    #[inline]
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// `dst[i] ^= src[i]` over the common prefix (`dst.len()` must not
    /// exceed `src.len()`; callers slice beforehand).
    ///
    /// # Panics
    ///
    /// Panics if `src` is shorter than `dst`.
    #[inline]
    pub fn xor_into(&self, dst: &mut [Word], src: &[Word]) {
        assert!(src.len() >= dst.len(), "xor_into source too short");
        match self.level {
            SimdLevel::Scalar => scalar::xor_into(dst, src),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: constructing a handle at this level proves the CPU
            // feature was detected (kernels_for / with_level assert it).
            SimdLevel::Avx2 => unsafe { x86::xor_into_avx2(dst, src) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            SimdLevel::Avx512 => unsafe { x86::xor_into_avx512(dst, src) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::xor_into(dst, src),
        }
    }

    /// Fused Gray-table step: `acc[i] ^= src[i]; out[i] = acc[i]` — one
    /// pass instead of an XOR loop followed by a copy.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `out` is shorter than `acc`.
    #[inline]
    pub fn xor_accum_copy(&self, acc: &mut [Word], src: &[Word], out: &mut [Word]) {
        assert!(
            src.len() >= acc.len() && out.len() >= acc.len(),
            "xor_accum_copy slice mismatch"
        );
        match self.level {
            SimdLevel::Scalar => scalar::xor_accum_copy(acc, src, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: handle construction proves feature support.
            SimdLevel::Avx2 => unsafe { x86::xor_accum_copy_avx2(acc, src, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            SimdLevel::Avx512 => unsafe { x86::xor_accum_copy_avx512(acc, src, out) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::xor_accum_copy(acc, src, out),
        }
    }

    /// Total set bits of `a[i] & b[i]` over the common prefix — the row
    /// AND-popcount behind `BitMatrix::mul_vec` parity.
    ///
    /// # Panics
    ///
    /// Panics if `b` is shorter than `a`.
    #[inline]
    pub fn and_count(&self, a: &[Word], b: &[Word]) -> usize {
        assert!(b.len() >= a.len(), "and_count source too short");
        match self.level {
            SimdLevel::Scalar => scalar::and_count(a, b),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: handle construction proves feature support.
            SimdLevel::Avx2 => unsafe { x86::and_count_avx2(a, b) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            SimdLevel::Avx512 => unsafe { x86::and_count_avx512(a, b) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::and_count(a, b),
        }
    }

    /// Transposes a 64×64 bit-block in place (the swap-network kernel of
    /// [`crate::transpose`], with the outer swap scales running over wide
    /// lanes).
    #[inline]
    pub fn transpose_64x64(&self, a: &mut [Word; 64]) {
        match self.level {
            SimdLevel::Scalar => crate::transpose::transpose_64x64(a),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: handle construction proves feature support.
            SimdLevel::Avx2 => unsafe { x86::transpose_64x64_avx2(a) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above. The AVX-512 kernel only uses AVX2-wide
            // registers for the j ≥ 4 scales plus 512-bit lanes at j ≥ 8;
            // avx512f implies avx2 support on every CPU that reports it.
            SimdLevel::Avx512 => unsafe { x86::transpose_64x64_avx512(a) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => crate::transpose::transpose_64x64(a),
        }
    }

    /// Transposes four adjacent 64×64 bit-blocks in place: `a[r][l]` is
    /// row `r` of block `l`, and after the call `a[c][l]` bit `r` holds
    /// block `l`'s old `(r, c)`. Each 256-bit row of the strip carries one
    /// row of every block, so all six swap scales run over wide lanes
    /// (AVX-512 moves two rows per vector down to `j = 2`);
    /// the result equals four [`crate::transpose::transpose_64x64`] calls.
    #[inline]
    pub fn transpose_strip(&self, a: &mut [[Word; 4]; 64]) {
        match self.level {
            SimdLevel::Scalar => scalar::transpose_strip(a),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: handle construction proves feature support.
            SimdLevel::Avx2 => unsafe { x86::transpose_strip_avx2(a) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; avx512f implies avx2 on every CPU that
            // reports it.
            SimdLevel::Avx512 => unsafe { x86::transpose_strip_avx512(a) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::transpose_strip(a),
        }
    }

    /// Renders bits as ASCII: `dst[i]` becomes `b'1'` if bit `i` of `src`
    /// (bit `i % 64` of word `i / 64`) is set, else `b'0'`.
    ///
    /// # Panics
    ///
    /// Panics if `src` holds fewer than `dst.len()` bits.
    #[inline]
    pub fn expand_01(&self, src: &[Word], dst: &mut [u8]) {
        assert!(src.len() * 64 >= dst.len(), "expand_01 source too short");
        match self.level {
            SimdLevel::Scalar => scalar::expand_01(src, 0, dst),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: handle construction proves feature support; avx512f
            // implies avx2 on every CPU that reports it.
            SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe { x86::expand_01_avx2(src, dst) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::expand_01(src, 0, dst),
        }
    }
}

/// Portable word-at-a-time fallbacks (the reference semantics every wide
/// path must reproduce bit for bit).
mod scalar {
    use crate::word::Word;

    pub fn xor_into(dst: &mut [Word], src: &[Word]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= *s;
        }
    }

    pub fn xor_accum_copy(acc: &mut [Word], src: &[Word], out: &mut [Word]) {
        for ((a, s), o) in acc.iter_mut().zip(src).zip(out.iter_mut()) {
            *a ^= *s;
            *o = *a;
        }
    }

    pub fn and_count(a: &[Word], b: &[Word]) -> usize {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    }

    /// Four block transposes, one per lane of the strip.
    pub fn transpose_strip(a: &mut [[Word; 4]; 64]) {
        let mut block = [0 as Word; 64];
        for l in 0..4 {
            for (b, row) in block.iter_mut().zip(a.iter()) {
                *b = row[l];
            }
            crate::transpose::transpose_64x64(&mut block);
            for (row, b) in a.iter_mut().zip(block) {
                row[l] = b;
            }
        }
    }

    /// `ASCII01[b]` is byte `b` rendered as eight ASCII `0`/`1` chars,
    /// bit 0 first, packed little-endian into a `u64` (so `to_le_bytes` is
    /// the text).
    const ASCII01: [u64; 256] = {
        let mut table = [0u64; 256];
        let mut b = 0;
        while b < 256 {
            let mut chars = 0u64;
            let mut bit = 0;
            while bit < 8 {
                chars |= (b'0' as u64 + ((b >> bit) & 1) as u64) << (8 * bit);
                bit += 1;
            }
            table[b] = chars;
            b += 1;
        }
        table
    };

    /// `dst[i]` = ASCII of bit `first + i` of `src`; `first` is a
    /// multiple of 8 (the wide kernel's tail starts mid-word).
    pub fn expand_01(src: &[Word], first: usize, dst: &mut [u8]) {
        debug_assert!(first.is_multiple_of(8));
        let byte = |j: usize| (src[j / 8] >> (8 * (j % 8))) as u8;
        let mut chars = dst.chunks_exact_mut(8);
        let mut j = first / 8;
        for out in &mut chars {
            out.copy_from_slice(&ASCII01[byte(j) as usize].to_le_bytes());
            j += 1;
        }
        let tail = chars.into_remainder();
        if !tail.is_empty() {
            let text = ASCII01[byte(j) as usize].to_le_bytes();
            tail.copy_from_slice(&text[..tail.len()]);
        }
    }
}

/// AVX2 / AVX-512 lane implementations. Each function is gated by
/// `#[target_feature]`; callers prove support via runtime detection
/// before dispatching here.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use crate::word::Word;

    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and `src.len() >= dst.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn xor_into_avx2(dst: &mut [Word], src: &[Word]) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and every pointer offset
        // below stays within the slices/arrays passed in.
        unsafe {
            let n = dst.len();
            let d = dst.as_mut_ptr();
            let s = src.as_ptr();
            let mut i = 0;
            while i + 8 <= n {
                let d0 = d.add(i) as *mut __m256i;
                let s0 = s.add(i) as *const __m256i;
                let a = _mm256_xor_si256(_mm256_loadu_si256(d0), _mm256_loadu_si256(s0));
                let b =
                    _mm256_xor_si256(_mm256_loadu_si256(d0.add(1)), _mm256_loadu_si256(s0.add(1)));
                _mm256_storeu_si256(d0, a);
                _mm256_storeu_si256(d0.add(1), b);
                i += 8;
            }
            while i + 4 <= n {
                let d0 = d.add(i) as *mut __m256i;
                let s0 = s.add(i) as *const __m256i;
                _mm256_storeu_si256(
                    d0,
                    _mm256_xor_si256(_mm256_loadu_si256(d0), _mm256_loadu_si256(s0)),
                );
                i += 4;
            }
            while i < n {
                *d.add(i) ^= *s.add(i);
                i += 1;
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX-512F and
    /// `src.len() >= dst.len()`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn xor_into_avx512(dst: &mut [Word], src: &[Word]) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and every pointer offset
        // below stays within the slices/arrays passed in.
        unsafe {
            let n = dst.len();
            let d = dst.as_mut_ptr();
            let s = src.as_ptr();
            let mut i = 0;
            while i + 16 <= n {
                let d0 = d.add(i) as *mut __m512i;
                let s0 = s.add(i) as *const __m512i;
                let a = _mm512_xor_si512(_mm512_loadu_si512(d0), _mm512_loadu_si512(s0));
                let b =
                    _mm512_xor_si512(_mm512_loadu_si512(d0.add(1)), _mm512_loadu_si512(s0.add(1)));
                _mm512_storeu_si512(d0, a);
                _mm512_storeu_si512(d0.add(1), b);
                i += 16;
            }
            while i + 8 <= n {
                let d0 = d.add(i) as *mut __m512i;
                let s0 = s.add(i) as *const __m512i;
                _mm512_storeu_si512(
                    d0,
                    _mm512_xor_si512(_mm512_loadu_si512(d0), _mm512_loadu_si512(s0)),
                );
                i += 8;
            }
            while i < n {
                *d.add(i) ^= *s.add(i);
                i += 1;
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and both `src` and `out`
    /// cover `acc.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn xor_accum_copy_avx2(acc: &mut [Word], src: &[Word], out: &mut [Word]) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and every pointer offset
        // below stays within the slices/arrays passed in.
        unsafe {
            let n = acc.len();
            let a = acc.as_mut_ptr();
            let s = src.as_ptr();
            let o = out.as_mut_ptr();
            let mut i = 0;
            while i + 4 <= n {
                let ap = a.add(i) as *mut __m256i;
                let v = _mm256_xor_si256(
                    _mm256_loadu_si256(ap),
                    _mm256_loadu_si256(s.add(i) as *const __m256i),
                );
                _mm256_storeu_si256(ap, v);
                _mm256_storeu_si256(o.add(i) as *mut __m256i, v);
                i += 4;
            }
            while i < n {
                let v = *a.add(i) ^ *s.add(i);
                *a.add(i) = v;
                *o.add(i) = v;
                i += 1;
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX-512F and both `src` and
    /// `out` cover `acc.len()`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn xor_accum_copy_avx512(acc: &mut [Word], src: &[Word], out: &mut [Word]) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and every pointer offset
        // below stays within the slices/arrays passed in.
        unsafe {
            let n = acc.len();
            let a = acc.as_mut_ptr();
            let s = src.as_ptr();
            let o = out.as_mut_ptr();
            let mut i = 0;
            while i + 8 <= n {
                let ap = a.add(i) as *mut __m512i;
                let v = _mm512_xor_si512(
                    _mm512_loadu_si512(ap),
                    _mm512_loadu_si512(s.add(i) as *const __m512i),
                );
                _mm512_storeu_si512(ap, v);
                _mm512_storeu_si512(o.add(i) as *mut __m512i, v);
                i += 8;
            }
            while i < n {
                let v = *a.add(i) ^ *s.add(i);
                *a.add(i) = v;
                *o.add(i) = v;
                i += 1;
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and `b.len() >= a.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn and_count_avx2(a: &[Word], b: &[Word]) -> usize {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and every pointer offset
        // below stays within the slices/arrays passed in.
        unsafe {
            let n = a.len();
            let ap = a.as_ptr();
            let bp = b.as_ptr();
            let mut total = 0usize;
            let mut i = 0;
            while i + 4 <= n {
                let v = _mm256_and_si256(
                    _mm256_loadu_si256(ap.add(i) as *const __m256i),
                    _mm256_loadu_si256(bp.add(i) as *const __m256i),
                );
                let mut lanes = [0u64; 4];
                _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
                total += lanes.iter().map(|w| w.count_ones() as usize).sum::<usize>();
                i += 4;
            }
            while i < n {
                total += (*ap.add(i) & *bp.add(i)).count_ones() as usize;
                i += 1;
            }
            total
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX-512F and
    /// `b.len() >= a.len()`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn and_count_avx512(a: &[Word], b: &[Word]) -> usize {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and every pointer offset
        // below stays within the slices/arrays passed in.
        unsafe {
            let n = a.len();
            let ap = a.as_ptr();
            let bp = b.as_ptr();
            let mut total = 0usize;
            let mut i = 0;
            while i + 8 <= n {
                let v = _mm512_and_si512(
                    _mm512_loadu_si512(ap.add(i) as *const __m512i),
                    _mm512_loadu_si512(bp.add(i) as *const __m512i),
                );
                let mut lanes = [0u64; 8];
                _mm512_storeu_si512(lanes.as_mut_ptr() as *mut __m512i, v);
                total += lanes.iter().map(|w| w.count_ones() as usize).sum::<usize>();
                i += 8;
            }
            while i < n {
                total += (*ap.add(i) & *bp.add(i)).count_ones() as usize;
                i += 1;
            }
            total
        }
    }

    /// One swap scale of the 64×64 transpose network over 256-bit lanes:
    /// for `j ∈ {32, 16, 8, 4}` the partner rows `k` / `k|j` come in runs
    /// of `j ≥ 4` consecutive indices, so four rows move per vector op.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2; `a` must point at 64
    /// words.
    #[target_feature(enable = "avx2")]
    unsafe fn transpose_scale_avx2(a: *mut Word, j: usize, m: Word) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and every pointer offset
        // below stays within the slices/arrays passed in.
        unsafe {
            let mask = _mm256_set1_epi64x(m as i64);
            let shift = _mm_cvtsi64_si128(j as i64);
            let mut base = 0usize;
            while base < 64 {
                let mut k = base;
                while k < base + j {
                    let lo = a.add(k) as *mut __m256i;
                    let hi = a.add(k + j) as *mut __m256i;
                    let vlo = _mm256_loadu_si256(lo);
                    let vhi = _mm256_loadu_si256(hi);
                    let t =
                        _mm256_and_si256(_mm256_xor_si256(_mm256_srl_epi64(vlo, shift), vhi), mask);
                    _mm256_storeu_si256(hi, _mm256_xor_si256(vhi, t));
                    _mm256_storeu_si256(lo, _mm256_xor_si256(vlo, _mm256_sll_epi64(t, shift)));
                    k += 4;
                }
                base += 2 * j;
            }
        }
    }

    /// The same swap scale over 512-bit lanes (`j ≥ 8`).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX-512F; `a` must point at 64
    /// words.
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose_scale_avx512(a: *mut Word, j: usize, m: Word) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and every pointer offset
        // below stays within the slices/arrays passed in.
        unsafe {
            let mask = _mm512_set1_epi64(m as i64);
            let shift = _mm_cvtsi64_si128(j as i64);
            let mut base = 0usize;
            while base < 64 {
                let mut k = base;
                while k < base + j {
                    let lo = a.add(k) as *mut __m512i;
                    let hi = a.add(k + j) as *mut __m512i;
                    let vlo = _mm512_loadu_si512(lo);
                    let vhi = _mm512_loadu_si512(hi);
                    let t =
                        _mm512_and_si512(_mm512_xor_si512(_mm512_srl_epi64(vlo, shift), vhi), mask);
                    _mm512_storeu_si512(hi, _mm512_xor_si512(vhi, t));
                    _mm512_storeu_si512(lo, _mm512_xor_si512(vlo, _mm512_sll_epi64(t, shift)));
                    k += 8;
                }
                base += 2 * j;
            }
        }
    }

    /// The last two swap scales (`j ∈ {2, 1}`) stay scalar: partner rows
    /// are closer together than one vector of rows.
    ///
    /// # Safety
    /// `a` must point at 64 valid, exclusively borrowed words.
    unsafe fn transpose_tail_scalar(a: *mut Word) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and every pointer offset
        // below stays within the slices/arrays passed in.
        unsafe {
            let mut j = 2usize;
            let mut m: Word = 0x3333_3333_3333_3333;
            while j != 0 {
                let mut k = 0usize;
                while k < 64 {
                    let t = ((*a.add(k) >> j) ^ *a.add(k | j)) & m;
                    *a.add(k | j) ^= t;
                    *a.add(k) ^= t << j;
                    k = ((k | j) + 1) & !j;
                }
                j >>= 1;
                m ^= m << j;
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn transpose_64x64_avx2(a: &mut [Word; 64]) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and every pointer offset
        // below stays within the slices/arrays passed in.
        unsafe {
            let p = a.as_mut_ptr();
            transpose_scale_avx2(p, 32, 0x0000_0000_FFFF_FFFF);
            transpose_scale_avx2(p, 16, 0x0000_FFFF_0000_FFFF);
            transpose_scale_avx2(p, 8, 0x00FF_00FF_00FF_00FF);
            transpose_scale_avx2(p, 4, 0x0F0F_0F0F_0F0F_0F0F);
            transpose_tail_scalar(p);
        }
    }

    /// One swap scale of the strip network over 256-bit lanes: row `k`
    /// of all four blocks is one vector, and rows `k` / `k + J` swap for
    /// every `k` with bit `J` clear.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2; `p` must point at 64
    /// rows of four words.
    #[target_feature(enable = "avx2")]
    unsafe fn strip_scale_avx2<const J: i32>(p: *mut __m256i, m: Word) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and every row index below
        // is < 64, so each 32-byte access stays inside the strip.
        unsafe {
            let mask = _mm256_set1_epi64x(m as i64);
            let j = J as usize;
            let mut base = 0usize;
            while base < 64 {
                for k in base..base + j {
                    let (lo, hi) = (p.add(k), p.add(k + j));
                    let vlo = _mm256_loadu_si256(lo);
                    let vhi = _mm256_loadu_si256(hi);
                    let t =
                        _mm256_and_si256(_mm256_xor_si256(_mm256_srli_epi64::<J>(vlo), vhi), mask);
                    _mm256_storeu_si256(hi, _mm256_xor_si256(vhi, t));
                    _mm256_storeu_si256(lo, _mm256_xor_si256(vlo, _mm256_slli_epi64::<J>(t)));
                }
                base += 2 * j;
            }
        }
    }

    /// The same swap scale over 512-bit lanes, two adjacent rows per
    /// vector (`J ≥ 2`, so rows `k` and `k + 1` share their bit `J`).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX-512F; `p` must point at 64
    /// rows of four words.
    #[target_feature(enable = "avx512f")]
    unsafe fn strip_scale_avx512<const J: u32>(p: *mut __m256i, m: Word) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features; `k + J + 1 < 64` below, so
        // each 64-byte access (rows `k`, `k + 1`) stays inside the strip.
        unsafe {
            let mask = _mm512_set1_epi64(m as i64);
            let j = J as usize;
            let mut base = 0usize;
            while base < 64 {
                for k in (base..base + j).step_by(2) {
                    let (lo, hi) = (p.add(k) as *mut __m512i, p.add(k + j) as *mut __m512i);
                    let vlo = _mm512_loadu_si512(lo);
                    let vhi = _mm512_loadu_si512(hi);
                    let t =
                        _mm512_and_si512(_mm512_xor_si512(_mm512_srli_epi64::<J>(vlo), vhi), mask);
                    _mm512_storeu_si512(hi, _mm512_xor_si512(vhi, t));
                    _mm512_storeu_si512(lo, _mm512_xor_si512(vlo, _mm512_slli_epi64::<J>(t)));
                }
                base += 2 * j;
            }
        }
    }

    /// The 64×64 swap network over a strip of four blocks: row `k` of
    /// every block sits in one 256-bit vector, so each scale, down to
    /// `j = 1`, swaps four blocks' partner rows per vector op.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn transpose_strip_avx2(a: &mut [[Word; 4]; 64]) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and `a` is 64 rows of four
        // words.
        unsafe {
            let p = a.as_mut_ptr() as *mut __m256i;
            strip_scale_avx2::<32>(p, 0x0000_0000_FFFF_FFFF);
            strip_scale_avx2::<16>(p, 0x0000_FFFF_0000_FFFF);
            strip_scale_avx2::<8>(p, 0x00FF_00FF_00FF_00FF);
            strip_scale_avx2::<4>(p, 0x0F0F_0F0F_0F0F_0F0F);
            strip_scale_avx2::<2>(p, 0x3333_3333_3333_3333);
            strip_scale_avx2::<1>(p, 0x5555_5555_5555_5555);
        }
    }

    /// The strip network with the scales `j ≥ 2` over 512-bit lanes (two
    /// rows per vector); the last scale pairs adjacent rows and stays on
    /// 256-bit lanes.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX-512F (which implies AVX2).
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub unsafe fn transpose_strip_avx512(a: &mut [[Word; 4]; 64]) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and `a` is 64 rows of four
        // words.
        unsafe {
            let p = a.as_mut_ptr() as *mut __m256i;
            strip_scale_avx512::<32>(p, 0x0000_0000_FFFF_FFFF);
            strip_scale_avx512::<16>(p, 0x0000_FFFF_0000_FFFF);
            strip_scale_avx512::<8>(p, 0x00FF_00FF_00FF_00FF);
            strip_scale_avx512::<4>(p, 0x0F0F_0F0F_0F0F_0F0F);
            strip_scale_avx512::<2>(p, 0x3333_3333_3333_3333);
            strip_scale_avx2::<1>(p, 0x5555_5555_5555_5555);
        }
    }

    /// Bits to ASCII `0`/`1`, 32 chars per step: broadcast 32 bits,
    /// shuffle so byte `k` holds source byte `k / 8`, AND with the bit of
    /// `k % 8`, compare to get `0xFF` where set, and subtract that from
    /// `b'0'` (`'0' − (−1) = '1'`). The ragged tail goes through the table.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and `src` holds at least
    /// `dst.len()` bits.
    #[target_feature(enable = "avx2")]
    pub unsafe fn expand_01_avx2(src: &[Word], dst: &mut [u8]) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and each store writes
        // `dst[i..i + 32]` with `i + 32 <= dst.len()`.
        unsafe {
            let spread = _mm256_setr_epi8(
                0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, //
                2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3,
            );
            let bits = _mm256_set1_epi64x(0x8040_2010_0804_0201u64 as i64);
            let zero = _mm256_set1_epi8(b'0' as i8);
            let expand = |half: u32| {
                let v = _mm256_shuffle_epi8(_mm256_set1_epi32(half as i32), spread);
                _mm256_sub_epi8(zero, _mm256_cmpeq_epi8(_mm256_and_si256(v, bits), bits))
            };
            let n = dst.len();
            let out = dst.as_mut_ptr();
            let mut i = 0;
            while i + 64 <= n {
                let w = src[i / 64];
                _mm256_storeu_si256(out.add(i) as *mut __m256i, expand(w as u32));
                _mm256_storeu_si256(out.add(i + 32) as *mut __m256i, expand((w >> 32) as u32));
                i += 64;
            }
            if i + 32 <= n {
                _mm256_storeu_si256(out.add(i) as *mut __m256i, expand(src[i / 64] as u32));
                i += 32;
            }
            super::scalar::expand_01(src, i, &mut dst[i..]);
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX-512F (which implies AVX2).
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub unsafe fn transpose_64x64_avx512(a: &mut [Word; 64]) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and every pointer offset
        // below stays within the slices/arrays passed in.
        unsafe {
            let p = a.as_mut_ptr();
            transpose_scale_avx512(p, 32, 0x0000_0000_FFFF_FFFF);
            transpose_scale_avx512(p, 16, 0x0000_FFFF_0000_FFFF);
            transpose_scale_avx512(p, 8, 0x00FF_00FF_00FF_00FF);
            transpose_scale_avx2(p, 4, 0x0F0F_0F0F_0F0F_0F0F);
            transpose_tail_scalar(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_words(n: usize, seed: u64) -> Vec<Word> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random()).collect()
    }

    #[test]
    fn level_names_round_trip() {
        for l in SimdLevel::ALL {
            assert_eq!(SimdLevel::from_name(l.name()), Some(l));
        }
        assert_eq!(SimdLevel::from_name("sse9"), None);
    }

    #[test]
    fn ladder_is_ordered_and_scalar_always_available() {
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
        assert!(SimdLevel::Avx2 < SimdLevel::Avx512);
        let levels: Vec<_> = available_levels().collect();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert!(levels.contains(&detected_level()));
    }

    #[test]
    fn with_level_forces_and_restores() {
        let before = active_level();
        with_level(SimdLevel::Scalar, || {
            assert_eq!(active_level(), SimdLevel::Scalar);
            assert_eq!(kernels().level(), SimdLevel::Scalar);
        });
        assert_eq!(active_level(), before);
        // Restores across panics too.
        let caught = std::panic::catch_unwind(|| {
            with_level(SimdLevel::Scalar, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(active_level(), before);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn with_level_rejects_unavailable() {
        if detected_level() < SimdLevel::Avx512 {
            let caught = std::panic::catch_unwind(|| with_level(SimdLevel::Avx512, || ()));
            assert!(caught.is_err());
        }
    }

    #[test]
    fn xor_into_matches_scalar_at_every_level() {
        for n in [0usize, 1, 3, 4, 7, 8, 15, 16, 31, 64, 200] {
            let src = random_words(n, 1000 + n as u64);
            let base = random_words(n, 2000 + n as u64);
            let mut expect = base.clone();
            scalar::xor_into(&mut expect, &src);
            for level in available_levels() {
                let mut got = base.clone();
                kernels_for(level).xor_into(&mut got, &src);
                assert_eq!(got, expect, "level {} n {n}", level.name());
            }
        }
    }

    #[test]
    fn xor_accum_copy_matches_scalar_at_every_level() {
        for n in [0usize, 1, 5, 8, 13, 32, 100] {
            let src = random_words(n, 3000 + n as u64);
            let acc0 = random_words(n, 4000 + n as u64);
            let mut eacc = acc0.clone();
            let mut eout = vec![0; n];
            scalar::xor_accum_copy(&mut eacc, &src, &mut eout);
            for level in available_levels() {
                let mut acc = acc0.clone();
                let mut out = vec![0; n];
                kernels_for(level).xor_accum_copy(&mut acc, &src, &mut out);
                assert_eq!((acc, out), (eacc.clone(), eout.clone()), "{}", level.name());
            }
        }
    }

    #[test]
    fn and_count_matches_scalar_at_every_level() {
        for n in [0usize, 1, 4, 9, 16, 33, 128] {
            let a = random_words(n, 5000 + n as u64);
            let b = random_words(n, 6000 + n as u64);
            let expect = scalar::and_count(&a, &b);
            for level in available_levels() {
                assert_eq!(
                    kernels_for(level).and_count(&a, &b),
                    expect,
                    "{}",
                    level.name()
                );
            }
        }
    }

    #[test]
    fn strip_transpose_is_four_block_transposes_at_every_level() {
        for seed in 0..4u64 {
            let words = random_words(256, 7500 + seed);
            let mut strip = [[0 as Word; 4]; 64];
            for (i, w) in words.iter().enumerate() {
                strip[i / 4][i % 4] = *w;
            }
            let mut expect = strip;
            for l in 0..4 {
                let mut block: [Word; 64] = std::array::from_fn(|r| strip[r][l]);
                crate::transpose::transpose_64x64(&mut block);
                for (r, row) in expect.iter_mut().enumerate() {
                    row[l] = block[r];
                }
            }
            for level in available_levels() {
                let mut got = strip;
                kernels_for(level).transpose_strip(&mut got);
                assert_eq!(got, expect, "{}", level.name());
            }
        }
    }

    #[test]
    fn expand_01_matches_per_bit_text_at_every_level() {
        let words = random_words(4, 8000);
        for n in [0usize, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 255, 256] {
            let expect: Vec<u8> = (0..n)
                .map(|i| b'0' + ((words[i / 64] >> (i % 64)) & 1) as u8)
                .collect();
            for level in available_levels() {
                let mut got = vec![b'x'; n];
                kernels_for(level).expand_01(&words, &mut got);
                assert_eq!(got, expect, "{} n {n}", level.name());
            }
        }
    }

    #[test]
    fn transpose_matches_scalar_at_every_level() {
        for seed in 0..8u64 {
            let words = random_words(64, 7000 + seed);
            let mut expect: [Word; 64] = words.clone().try_into().unwrap();
            crate::transpose::transpose_64x64(&mut expect);
            for level in available_levels() {
                let mut got: [Word; 64] = words.clone().try_into().unwrap();
                kernels_for(level).transpose_64x64(&mut got);
                assert_eq!(got, expect, "{}", level.name());
            }
        }
    }
}
