//! Runtime-dispatched SIMD kernels for the packed-F₂ hot loops.
//!
//! Every inner loop of this crate — the m4r table XOR-accumulate, the
//! Gray-code table build, row XOR/AND primitives, and the 64×64 transpose
//! swap network (one block, or a strip of four blocks side by side) —
//! moves whole machine words with no cross-word carries, so the same code
//! runs unchanged over 256-bit (AVX2) or 512-bit (AVX-512) lanes. The
//! output writers' bit-to-`0`/`1` text expansion is a byte shuffle, compare
//! and subtract per 32 chars. Initialization's tableau work — Clifford gate
//! actions, the Aaronson–Gottesman measurement sweeps and noise flips —
//! runs over whole tableau columns the same way. This module owns that
//! widening:
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
//! (XOR/AND are lane-local, and the one carry across lanes is an exact
//! scan), so outputs are **bit-identical**
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

    /// `xor_dst[i] ^= src[i]; or_dst[i] |= src[i]` over `src` — a batch of
    /// row flips together with the mask of rows that carry one.
    ///
    /// # Panics
    ///
    /// Panics if `xor_dst` or `or_dst` is shorter than `src`.
    #[inline]
    pub fn xor_or_into(&self, xor_dst: &mut [Word], or_dst: &mut [Word], src: &[Word]) {
        assert!(
            xor_dst.len() >= src.len() && or_dst.len() >= src.len(),
            "xor_or_into destination too short"
        );
        match self.level {
            SimdLevel::Scalar => scalar::xor_or_into(xor_dst, or_dst, src),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: handle construction proves feature support.
            SimdLevel::Avx2 => unsafe { x86::xor_or_into_avx2(xor_dst, or_dst, src) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            SimdLevel::Avx512 => unsafe { x86::xor_or_into_avx512(xor_dst, or_dst, src) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::xor_or_into(xor_dst, or_dst, src),
        }
    }

    /// Applies a Clifford gate's [`ColumnAction`] to every target of a
    /// broadcast instruction, over the column-major X/Z bits of a tableau,
    /// XORing each row's sign flips into `signs` (bit `r % 64` of word
    /// `r / 64` is row `r` throughout).
    ///
    /// `x` and `z` hold whole columns of `w = signs.len()` words each.
    /// Every `C / 2` entries of `targets` name the qubits of one
    /// application, whose columns are `(x, z)` of each qubit in turn.
    /// Applications run in order.
    ///
    /// # Panics
    ///
    /// Panics if `C` is not 2 or 4, if the truth table flips the all-clear
    /// row, if `x` and `z` are not whole columns of equal length, if a
    /// target is out of range, or if an application repeats a qubit.
    pub fn gate_action<const C: usize>(
        &self,
        action: &ColumnAction<C>,
        x: &mut [Word],
        z: &mut [Word],
        targets: &[u32],
        signs: &mut [Word],
    ) {
        let w = signs.len();
        assert!(
            (C == 2 || C == 4) && action.phase_tt & 1 == 0,
            "gate_action: 2 or 4 columns, and the all-clear row never flips"
        );
        assert!(
            w > 0 && x.len() == z.len() && x.len().is_multiple_of(w),
            "X/Z must be whole columns of equal length"
        );
        assert!(
            targets.len().is_multiple_of(C / 2),
            "gate_action targets are not whole applications"
        );
        let qubits = x.len() / w;
        for app in targets.chunks_exact(C / 2) {
            assert!(
                app.iter().all(|&q| (q as usize) < qubits),
                "gate_action target out of range"
            );
            assert!(
                app.len() < 2 || app[0] != app[1],
                "gate_action repeats a qubit"
            );
        }
        match self.level {
            SimdLevel::Scalar => scalar::gate_action(action, x, z, targets, signs),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: handle construction proves feature support, and the
            // checks above bound every column the kernel indexes.
            SimdLevel::Avx2 => unsafe { x86::gate_action_avx2(action, x, z, targets, signs) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            SimdLevel::Avx512 => unsafe { x86::gate_action_avx512(action, x, z, targets, signs) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::gate_action(action, x, z, targets, signs),
        }
    }

    /// The random-collapse sweep of an Aaronson–Gottesman Z measurement:
    /// A-G's `rowsum` of row `pivot` into every row of a mask, over the
    /// column-major X/Z bits of a tableau, fused with the pivot's move.
    ///
    /// `x` and `z` hold whole columns of `w = sweep.len() / 3` words each.
    /// `sweep` is three `w`-word buffers: the mask of rows to multiply
    /// (read), then the low and high bit-slices of each row's mod-4 phase
    /// counter (written). In every column where the pivot is not the
    /// identity, the masked rows XOR in the pivot's bits and their
    /// counters add the power of `i` that A-G's `g` gives the product.
    /// Then, in the same pass over the column, row `dest` takes the
    /// pivot's bits and row `pivot` is cleared.
    ///
    /// # Panics
    ///
    /// Panics if `sweep` is not three equal buffers, if `x` and `z` are not
    /// whole columns of equal length, if a row is out of range, or if the
    /// mask selects `pivot`.
    pub fn collapse_sweep(
        &self,
        x: &mut [Word],
        z: &mut [Word],
        sweep: &mut [Word],
        pivot: usize,
        dest: usize,
    ) {
        let span = sweep_span(x, z, sweep, &[pivot, dest]);
        let w = sweep.len() / 3;
        assert!(
            (sweep[pivot / 64] >> (pivot % 64)) & 1 == 0,
            "collapse_sweep mask selects the pivot"
        );
        sweep[w..].fill(0);
        match self.level {
            SimdLevel::Scalar => scalar::collapse_sweep(x, z, sweep, span, pivot, dest),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: handle construction proves feature support, and
            // `sweep_span` checked the lengths and rows the kernel indexes.
            SimdLevel::Avx2 => unsafe { x86::collapse_sweep_avx2(x, z, sweep, span, pivot, dest) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            SimdLevel::Avx512 => unsafe {
                x86::collapse_sweep_avx512(x, z, sweep, span, pivot, dest)
            },
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::collapse_sweep(x, z, sweep, span, pivot, dest),
        }
    }

    /// The deterministic-measurement sweep of an Aaronson–Gottesman
    /// tableau: writes into row `scratch` the ordered product of the rows
    /// of a mask, ascending, and each factor's phase correction.
    ///
    /// The layout is that of [`Self::collapse_sweep`]. Before each factor,
    /// the running product's bits in a column are the XOR of the earlier
    /// factors' bits: a prefix XOR within each word, carried across words
    /// by a scan over the vector lanes. The counters of each factor's row
    /// add the power of `i` that A-G's `g` gives the factor times the
    /// product so far. Row `scratch` is overwritten with the product.
    ///
    /// # Panics
    ///
    /// Panics if `sweep` is not three equal buffers, if `x` and `z` are not
    /// whole columns of equal length, or if `scratch` is out of range.
    pub fn deterministic_sweep(
        &self,
        x: &mut [Word],
        z: &mut [Word],
        sweep: &mut [Word],
        scratch: usize,
    ) {
        let span = sweep_span(x, z, sweep, &[scratch]);
        let w = sweep.len() / 3;
        sweep[w..].fill(0);
        match self.level {
            SimdLevel::Scalar => scalar::deterministic_sweep(x, z, sweep, span, scratch),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: handle construction proves feature support, and
            // `sweep_span` checked the lengths and rows the kernel indexes.
            SimdLevel::Avx2 => unsafe { x86::deterministic_sweep_avx2(x, z, sweep, span, scratch) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            SimdLevel::Avx512 => unsafe {
                x86::deterministic_sweep_avx512(x, z, sweep, span, scratch)
            },
            #[cfg(not(target_arch = "x86_64"))]
            _ => scalar::deterministic_sweep(x, z, sweep, span, scratch),
        }
    }
}

/// A Clifford gate's action on the packed columns of its targets: `C = 2`
/// columns `(x, z)` for one qubit, `C = 4` columns `(x₀, z₀, x₁, z₁)` for
/// two. Every output column is an XOR of input columns, and whether a row
/// flips sign is a truth table over its input bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColumnAction<const C: usize> {
    /// `out[i]` has bit `j` set when input column `j` is XORed into
    /// output column `i`.
    pub out: [u8; C],
    /// Bit `Σ 2ʲ·bⱼ` is set when a row whose input bits are `bⱼ` flips
    /// sign. Bit 0 (all bits clear) must be clear, so rows past a
    /// tableau's end never flip.
    pub phase_tt: u16,
}

impl<const C: usize> ColumnAction<C> {
    /// The action as all-zero/all-one words, for the vector kernels to
    /// broadcast: per minterm of the truth table, the words that XOR each
    /// input into its literal (all-one negates it), how many minterms
    /// there are, and per output the words that select each input.
    fn constants(&self) -> ([[Word; C]; 15], usize, [[Word; C]; C]) {
        let word = |bit: bool| 0u64.wrapping_sub(u64::from(bit));
        let mut lits = [[0; C]; 15];
        let mut minterms = 0;
        let mut tt = self.phase_tt;
        while tt != 0 {
            let idx = tt.trailing_zeros();
            tt &= tt - 1;
            lits[minterms] = std::array::from_fn(|j| word(idx & (1 << j) == 0));
            minterms += 1;
        }
        let sel = self
            .out
            .map(|out| std::array::from_fn(|j| word(out >> j & 1 == 1)));
        (lits, minterms, sel)
    }
}

/// Checks the shared layout of the measurement sweeps and returns the
/// words from the mask's first to its last nonzero word (empty when the
/// mask is zero).
fn sweep_span(x: &[Word], z: &[Word], sweep: &[Word], rows: &[usize]) -> std::ops::Range<usize> {
    let w = sweep.len() / 3;
    assert!(
        w > 0 && sweep.len() == 3 * w,
        "sweep buffer must be three columns"
    );
    assert!(
        x.len() == z.len() && x.len().is_multiple_of(w),
        "X/Z must be whole columns of equal length"
    );
    assert!(rows.iter().all(|&r| r < w * 64), "sweep row out of range");
    let mask = &sweep[..w];
    let first = mask.iter().position(|&m| m != 0).unwrap_or(0);
    let end = mask
        .iter()
        .rposition(|&m| m != 0)
        .map_or(0, |last| last + 1);
    first..end
}

/// Portable word-at-a-time fallbacks (the reference semantics every wide
/// path must reproduce bit for bit).
mod scalar {
    use std::ops::Range;

    use super::ColumnAction;
    use crate::word::Word;

    pub fn xor_or_into(xor_dst: &mut [Word], or_dst: &mut [Word], src: &[Word]) {
        for ((x, o), &s) in xor_dst.iter_mut().zip(or_dst.iter_mut()).zip(src) {
            *x ^= s;
            *o |= s;
        }
    }

    pub fn gate_action<const C: usize>(
        action: &ColumnAction<C>,
        x: &mut [Word],
        z: &mut [Word],
        targets: &[u32],
        signs: &mut [Word],
    ) {
        let w = signs.len();
        for app in targets.chunks_exact(C / 2) {
            // Word `i` of input column `j`: X or Z of the target `j / 2`.
            let at = |j: usize, i: usize| app[j / 2] as usize * w + i;
            for (i, sign) in signs.iter_mut().enumerate() {
                let v: [Word; C] =
                    std::array::from_fn(|j| if j % 2 == 0 { x[at(j, i)] } else { z[at(j, i)] });
                let has = |bits: u32, j: usize| bits & (1 << j) != 0;
                let mut tt = action.phase_tt;
                while tt != 0 {
                    let idx = tt.trailing_zeros();
                    tt &= tt - 1;
                    *sign ^= (0..C).fold(!0, |acc, j| acc & if has(idx, j) { v[j] } else { !v[j] });
                }
                for (j, &sel) in action.out.iter().enumerate() {
                    let out = (0..C).fold(
                        0,
                        |acc, k| if has(sel.into(), k) { acc ^ v[k] } else { acc },
                    );
                    if j % 2 == 0 {
                        x[at(j, i)] = out;
                    } else {
                        z[at(j, i)] = out;
                    }
                }
            }
        }
    }

    /// Row `dest` of a column takes row `src`'s bit, and row `src` is
    /// cleared.
    #[inline]
    pub fn move_bit(col: &mut [Word], src: usize, dest: usize) {
        let bit = (col[src / 64] >> (src % 64)) & 1;
        col[src / 64] &= !(1 << (src % 64));
        col[dest / 64] = (col[dest / 64] & !(1 << (dest % 64))) | (bit << (dest % 64));
    }

    /// Sets row `row` of a column to `bit`.
    #[inline]
    pub fn set_bit(col: &mut [Word], row: usize, bit: Word) {
        col[row / 64] = (col[row / 64] & !(1 << (row % 64))) | (bit << (row % 64));
    }

    /// Bit-sliced A-G phase function `g(P1, P2)` of the product `P1 · P2`,
    /// the power of `i` it contributes, over 64 lanes at once: returns the
    /// lanes where `g = +1` and where `g = −1` (all others are 0). `g` is
    /// nonzero exactly when the two Paulis anticommute, and `+1` when `P2`
    /// follows `P1` in the cycle X → Y → Z → X (`X·Y = iZ`), which in
    /// `(x, z)` bits means `x2 = x1 ⊕ z1` and `z2 = x1`.
    #[inline]
    pub fn phase_signs(x1: Word, z1: Word, x2: Word, z2: Word) -> (Word, Word) {
        let anti = (x1 & z2) ^ (z1 & x2);
        let plus = anti & !(x2 ^ x1 ^ z1) & !(z2 ^ x1);
        (plus, anti ^ plus)
    }

    /// Adds `+1` on the `plus` lanes and `−1` on the (disjoint) `minus`
    /// lanes of 64 two-bit counters mod 4, held as low/high bit-slices.
    #[inline]
    fn add_mod4(lo: &mut Word, hi: &mut Word, plus: Word, minus: Word) {
        *hi ^= (*lo & plus) | (!*lo & minus);
        *lo ^= plus | minus;
    }

    /// Inclusive prefix XOR: bit `i` of the result is the parity of bits
    /// `0..=i` of `v`.
    #[inline]
    fn prefix_xor(mut v: Word) -> Word {
        v ^= v << 1;
        v ^= v << 2;
        v ^= v << 4;
        v ^= v << 8;
        v ^= v << 16;
        v ^= v << 32;
        v
    }

    pub fn collapse_sweep(
        x: &mut [Word],
        z: &mut [Word],
        sweep: &mut [Word],
        span: Range<usize>,
        pivot: usize,
        dest: usize,
    ) {
        let w = sweep.len() / 3;
        let (mask, counters) = sweep.split_at_mut(w);
        let (lo, hi) = counters.split_at_mut(w);
        let (pw, pb) = (pivot / 64, pivot % 64);
        for (xc, zc) in x.chunks_exact_mut(w).zip(z.chunks_exact_mut(w)) {
            let x1 = 0u64.wrapping_sub((xc[pw] >> pb) & 1);
            let z1 = 0u64.wrapping_sub((zc[pw] >> pb) & 1);
            if x1 | z1 != 0 {
                for i in span.clone() {
                    let m = mask[i];
                    let (plus, minus) = phase_signs(x1, z1, xc[i], zc[i]);
                    add_mod4(&mut lo[i], &mut hi[i], plus & m, minus & m);
                    xc[i] ^= x1 & m;
                    zc[i] ^= z1 & m;
                }
            }
            move_bit(xc, pivot, dest);
            move_bit(zc, pivot, dest);
        }
    }

    pub fn deterministic_sweep(
        x: &mut [Word],
        z: &mut [Word],
        sweep: &mut [Word],
        span: Range<usize>,
        scratch: usize,
    ) {
        let w = sweep.len() / 3;
        let (mask, counters) = sweep.split_at_mut(w);
        let (lo, hi) = counters.split_at_mut(w);
        for (xc, zc) in x.chunks_exact_mut(w).zip(z.chunks_exact_mut(w)) {
            // Running-product bits so far, as all-zero or all-one words.
            let (mut px, mut pz) = (0u64, 0u64);
            for i in span.clone() {
                let m = mask[i];
                let (x1, z1) = (xc[i] & m, zc[i] & m);
                if x1 | z1 == 0 {
                    continue;
                }
                let (ix, iz) = (prefix_xor(x1), prefix_xor(z1));
                let (plus, minus) = phase_signs(x1, z1, (ix ^ x1) ^ px, (iz ^ z1) ^ pz);
                add_mod4(&mut lo[i], &mut hi[i], plus, minus);
                px ^= 0u64.wrapping_sub(ix >> 63);
                pz ^= 0u64.wrapping_sub(iz >> 63);
            }
            set_bit(xc, scratch, px & 1);
            set_bit(zc, scratch, pz & 1);
        }
    }

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
    use std::ops::Range;

    use super::ColumnAction;
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
    /// Caller must ensure the CPU supports AVX2 and both destinations
    /// cover `src.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn xor_or_into_avx2(xor_dst: &mut [Word], or_dst: &mut [Word], src: &[Word]) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and every access below is
        // to a word `< src.len()` of each slice.
        unsafe {
            let (x, o, s) = (xor_dst.as_mut_ptr(), or_dst.as_mut_ptr(), src.as_ptr());
            let mut i = 0;
            while i < src.len() {
                let (k, full) = lanes4(i, src.len());
                let v = load4(s.add(i), k);
                store4(x.add(i), k, full, _mm256_xor_si256(load4(x.add(i), k), v));
                store4(o.add(i), k, full, _mm256_or_si256(load4(o.add(i), k), v));
                i += 4;
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX-512F and both destinations
    /// cover `src.len()`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn xor_or_into_avx512(xor_dst: &mut [Word], or_dst: &mut [Word], src: &[Word]) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and the masked accesses
        // below touch only words `< src.len()` of each slice.
        unsafe {
            let (x, o, s) = (xor_dst.as_mut_ptr(), or_dst.as_mut_ptr(), src.as_ptr());
            let mut i = 0;
            while i < src.len() {
                let k = lanes8(i, src.len());
                let v = _mm512_maskz_loadu_epi64(k, s.add(i) as *const i64);
                let xv = _mm512_maskz_loadu_epi64(k, x.add(i) as *const i64);
                let ov = _mm512_maskz_loadu_epi64(k, o.add(i) as *const i64);
                _mm512_mask_storeu_epi64(x.add(i) as *mut i64, k, _mm512_xor_si512(xv, v));
                _mm512_mask_storeu_epi64(o.add(i) as *mut i64, k, _mm512_or_si512(ov, v));
                i += 8;
            }
        }
    }

    /// The lanes of the 4-word vector at word `i` of an `end`-word run:
    /// a load/store mask (lane sign bits) and whether all four are in.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and `i < end`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lanes4(i: usize, end: usize) -> (__m256i, bool) {
        let n = (end - i).min(4) as i64;
        let k = _mm256_cmpgt_epi64(_mm256_set1_epi64x(n), _mm256_setr_epi64x(0, 1, 2, 3));
        (k, n == 4)
    }

    /// Loads the lanes of `k` from `p`, zero elsewhere.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and the selected words at
    /// `p` are readable.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load4(p: *const Word, k: __m256i) -> __m256i {
        // SAFETY: the `# Safety` contract above; masked-off lanes are not
        // read.
        unsafe { _mm256_maskload_epi64(p as *const i64, k) }
    }

    /// Stores the lanes of `k` to `p` (a plain store when `full`).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and the selected words at
    /// `p` are writable.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store4(p: *mut Word, k: __m256i, full: bool, v: __m256i) {
        // SAFETY: the `# Safety` contract above; masked-off lanes are not
        // written.
        unsafe {
            if full {
                _mm256_storeu_si256(p as *mut __m256i, v);
            } else {
                _mm256_maskstore_epi64(p as *mut i64, k, v);
            }
        }
    }

    /// The `L` words from word `i` of a column in which only row `row` is
    /// set (all zero when the row lies elsewhere).
    #[inline]
    fn row_bit<const L: usize>(i: usize, row: usize) -> [Word; L] {
        std::array::from_fn(|j| {
            if i + j == row / 64 {
                1 << (row % 64)
            } else {
                0
            }
        })
    }

    /// The lanes of the 8-word vector at word `i` of an `end`-word run.
    #[inline]
    fn lanes8(i: usize, end: usize) -> __mmask8 {
        let n = (end - i).min(8);
        (((1u16 << n) - 1) & 0xFF) as __mmask8
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and that the checks of
    /// `Kernels::gate_action` passed.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gate_action_avx2<const C: usize>(
        action: &ColumnAction<C>,
        x: &mut [Word],
        z: &mut [Word],
        targets: &[u32],
        signs: &mut [Word],
    ) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and every access below is
        // to a word `< w` of a target's column or of `signs`.
        unsafe {
            let w = signs.len();
            let (lits, minterms, sel) = action.constants();
            let (xp, zp, s) = (x.as_mut_ptr(), z.as_mut_ptr(), signs.as_mut_ptr());
            // Rows are independent, so each vector of rows takes every
            // application in turn while its sign flips stay in a register.
            let mut i = 0;
            while i < w {
                let (k, full) = lanes4(i, w);
                let mut flip = load4(s.add(i), k);
                for app in targets.chunks_exact(C / 2) {
                    let mut cols = [s; C];
                    for (j, c) in cols.iter_mut().enumerate() {
                        let base = if j % 2 == 0 { xp } else { zp };
                        *c = base.add(app[j / 2] as usize * w + i);
                    }
                    let mut v = [_mm256_setzero_si256(); C];
                    for (vj, &c) in v.iter_mut().zip(&cols) {
                        *vj = load4(c, k);
                    }
                    for lit in &lits[..minterms] {
                        let mut term = _mm256_set1_epi64x(-1);
                        for (&vj, &l) in v.iter().zip(lit) {
                            term = _mm256_and_si256(
                                term,
                                _mm256_xor_si256(vj, _mm256_set1_epi64x(l as i64)),
                            );
                        }
                        flip = _mm256_xor_si256(flip, term);
                    }
                    for (&c, sel) in cols.iter().zip(&sel) {
                        let mut out = _mm256_setzero_si256();
                        for (&vj, &sj) in v.iter().zip(sel) {
                            out = _mm256_xor_si256(
                                out,
                                _mm256_and_si256(vj, _mm256_set1_epi64x(sj as i64)),
                            );
                        }
                        store4(c, k, full, out);
                    }
                }
                store4(s.add(i), k, full, flip);
                i += 4;
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX-512F and that the checks of
    /// `Kernels::gate_action` passed.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gate_action_avx512<const C: usize>(
        action: &ColumnAction<C>,
        x: &mut [Word],
        z: &mut [Word],
        targets: &[u32],
        signs: &mut [Word],
    ) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features, and the masked accesses
        // below touch only words `< w` of a target's column or `signs`.
        unsafe {
            let w = signs.len();
            let (lits, minterms, sel) = action.constants();
            let (xp, zp) = (x.as_mut_ptr() as *mut i64, z.as_mut_ptr() as *mut i64);
            let s = signs.as_mut_ptr() as *mut i64;
            // Rows are independent, so each vector of rows takes every
            // application in turn while its sign flips stay in a register.
            let mut i = 0;
            while i < w {
                let k = lanes8(i, w);
                let mut flip = _mm512_maskz_loadu_epi64(k, s.add(i));
                for app in targets.chunks_exact(C / 2) {
                    let mut cols = [s; C];
                    for (j, c) in cols.iter_mut().enumerate() {
                        let base = if j % 2 == 0 { xp } else { zp };
                        *c = base.add(app[j / 2] as usize * w + i);
                    }
                    let mut v = [_mm512_setzero_si512(); C];
                    for (vj, &c) in v.iter_mut().zip(&cols) {
                        *vj = _mm512_maskz_loadu_epi64(k, c);
                    }
                    for lit in &lits[..minterms] {
                        let mut term = _mm512_set1_epi64(-1);
                        for (&vj, &l) in v.iter().zip(lit) {
                            term = _mm512_and_si512(
                                term,
                                _mm512_xor_si512(vj, _mm512_set1_epi64(l as i64)),
                            );
                        }
                        flip = _mm512_xor_si512(flip, term);
                    }
                    for (&c, sel) in cols.iter().zip(&sel) {
                        let mut out = _mm512_setzero_si512();
                        for (&vj, &sj) in v.iter().zip(sel) {
                            out = _mm512_xor_si512(
                                out,
                                _mm512_and_si512(vj, _mm512_set1_epi64(sj as i64)),
                            );
                        }
                        _mm512_mask_storeu_epi64(c, k, out);
                    }
                }
                _mm512_mask_storeu_epi64(s.add(i), k, flip);
                i += 8;
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2, and that the layout
    /// checks of `Kernels::collapse_sweep` passed with `span` inside the
    /// mask.
    #[target_feature(enable = "avx2")]
    pub unsafe fn collapse_sweep_avx2(
        x: &mut [Word],
        z: &mut [Word],
        sweep: &mut [Word],
        span: Range<usize>,
        pivot: usize,
        dest: usize,
    ) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features; each vector access below is
        // masked to words of `run`, which the layout checks keep inside a
        // column and the sweep buffers.
        unsafe {
            let w = sweep.len() / 3;
            let (xp, zp) = (x.as_mut_ptr(), z.as_mut_ptr());
            let (mask, lo, hi) = (
                sweep.as_ptr(),
                sweep.as_mut_ptr().add(w),
                sweep.as_mut_ptr().add(2 * w),
            );
            let (pw, pb) = (pivot / 64, pivot % 64);
            // Shifting the pivot's bit up to the sign bit.
            let up = _mm_cvtsi64_si128((63 - pb) as i64);
            let zero = _mm256_setzero_si256();
            // Each vector of rows sweeps every column in turn, keeping its
            // mask and counters in registers. The vectors holding the pivot
            // and its destabilizer also move the pivot there before they
            // store, so the run covers those words too; the pivot's own
            // vector goes last, as every vector reads the pivot's bits.
            let (lo_w, hi_w) = (pw.min(dest / 64), pw.max(dest / 64) + 1);
            let run = if span.is_empty() {
                lo_w..hi_w
            } else {
                span.start.min(lo_w)..span.end.max(hi_w)
            };
            let pivot_vector = (pw - run.start) / 4;
            let vectors = (run.end - run.start).div_ceil(4);
            for v in (0..vectors)
                .filter(|&v| v != pivot_vector)
                .chain([pivot_vector])
            {
                let i = run.start + 4 * v;
                let (k, full) = lanes4(i, run.end);
                // The bits the move rewrites (both rows), and the one it
                // copies the pivot's bit into.
                let d = _mm256_loadu_si256(row_bit::<4>(i, dest).as_ptr() as *const __m256i);
                let clear = _mm256_or_si256(
                    d,
                    _mm256_loadu_si256(row_bit::<4>(i, pivot).as_ptr() as *const __m256i),
                );
                let moves = (i..i + 4).contains(&pw) || (i..i + 4).contains(&(dest / 64));
                let m = load4(mask.add(i), k);
                let (mut l, mut h) = (zero, zero);
                for q in 0..x.len() / w {
                    let (xc, zc) = (xp.add(q * w), zp.add(q * w));
                    // The pivot's bits, as all-zero or all-one lanes: the
                    // masked rows of an identity column stay as they are.
                    let x1 = _mm256_cmpgt_epi64(
                        zero,
                        _mm256_sll_epi64(_mm256_set1_epi64x(*xc.add(pw) as i64), up),
                    );
                    let z1 = _mm256_cmpgt_epi64(
                        zero,
                        _mm256_sll_epi64(_mm256_set1_epi64x(*zc.add(pw) as i64), up),
                    );
                    let (xv, zv) = (load4(xc.add(i), k), load4(zc.add(i), k));
                    let anti = _mm256_xor_si256(_mm256_and_si256(x1, zv), _mm256_and_si256(z1, xv));
                    let plus = _mm256_andnot_si256(
                        _mm256_xor_si256(xv, _mm256_xor_si256(x1, z1)),
                        _mm256_andnot_si256(_mm256_xor_si256(zv, x1), anti),
                    );
                    let minus = _mm256_and_si256(_mm256_xor_si256(anti, plus), m);
                    let plus = _mm256_and_si256(plus, m);
                    h = _mm256_xor_si256(
                        h,
                        _mm256_or_si256(_mm256_and_si256(l, plus), _mm256_andnot_si256(l, minus)),
                    );
                    l = _mm256_xor_si256(l, _mm256_or_si256(plus, minus));
                    let mut xv = _mm256_xor_si256(xv, _mm256_and_si256(x1, m));
                    let mut zv = _mm256_xor_si256(zv, _mm256_and_si256(z1, m));
                    if moves {
                        xv = _mm256_or_si256(
                            _mm256_andnot_si256(clear, xv),
                            _mm256_and_si256(x1, d),
                        );
                        zv = _mm256_or_si256(
                            _mm256_andnot_si256(clear, zv),
                            _mm256_and_si256(z1, d),
                        );
                    }
                    store4(xc.add(i), k, full, xv);
                    store4(zc.add(i), k, full, zv);
                }
                store4(lo.add(i), k, full, l);
                store4(hi.add(i), k, full, h);
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX-512F, and that the layout
    /// checks of `Kernels::collapse_sweep` passed with `span` inside the
    /// mask.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn collapse_sweep_avx512(
        x: &mut [Word],
        z: &mut [Word],
        sweep: &mut [Word],
        span: Range<usize>,
        pivot: usize,
        dest: usize,
    ) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features; each vector access below is
        // masked to words of `run`, which the layout checks keep inside a
        // column and the sweep buffers.
        unsafe {
            let w = sweep.len() / 3;
            let (xp, zp) = (x.as_mut_ptr(), z.as_mut_ptr());
            let mq = sweep.as_ptr() as *const i64;
            let (lq, hq) = (
                sweep.as_mut_ptr().add(w) as *mut i64,
                sweep.as_mut_ptr().add(2 * w) as *mut i64,
            );
            let (pw, pb) = (pivot / 64, pivot % 64);
            // Shifting the pivot's bit up to the sign bit.
            let up = _mm_cvtsi64_si128((63 - pb) as i64);
            // Each vector of rows sweeps every column in turn, keeping its
            // mask and counters in registers. The vectors holding the pivot
            // and its destabilizer also move the pivot there before they
            // store, so the run covers those words too; the pivot's own
            // vector goes last, as every vector reads the pivot's bits.
            let (lo_w, hi_w) = (pw.min(dest / 64), pw.max(dest / 64) + 1);
            let run = if span.is_empty() {
                lo_w..hi_w
            } else {
                span.start.min(lo_w)..span.end.max(hi_w)
            };
            let pivot_vector = (pw - run.start) / 8;
            let vectors = (run.end - run.start).div_ceil(8);
            for v in (0..vectors)
                .filter(|&v| v != pivot_vector)
                .chain([pivot_vector])
            {
                let i = run.start + 8 * v;
                let k = lanes8(i, run.end);
                // The bits the move rewrites (both rows), and the one it
                // copies the pivot's bit into.
                let d = _mm512_loadu_si512(row_bit::<8>(i, dest).as_ptr() as *const __m512i);
                let clear = _mm512_or_si512(
                    d,
                    _mm512_loadu_si512(row_bit::<8>(i, pivot).as_ptr() as *const __m512i),
                );
                let moves = (i..i + 8).contains(&pw) || (i..i + 8).contains(&(dest / 64));
                let m = _mm512_maskz_loadu_epi64(k, mq.add(i));
                let (mut l, mut h) = (_mm512_setzero_si512(), _mm512_setzero_si512());
                for q in 0..x.len() / w {
                    let (xc, zc) = (xp.add(q * w), zp.add(q * w));
                    // The pivot's bits, as all-zero or all-one lanes: the
                    // masked rows of an identity column stay as they are.
                    let x1 = _mm512_srai_epi64::<63>(_mm512_sll_epi64(
                        _mm512_set1_epi64(*xc.add(pw) as i64),
                        up,
                    ));
                    let z1 = _mm512_srai_epi64::<63>(_mm512_sll_epi64(
                        _mm512_set1_epi64(*zc.add(pw) as i64),
                        up,
                    ));
                    let (xq, zq) = (xc.add(i) as *mut i64, zc.add(i) as *mut i64);
                    let (xv, zv) = (
                        _mm512_maskz_loadu_epi64(k, xq),
                        _mm512_maskz_loadu_epi64(k, zq),
                    );
                    let anti = _mm512_xor_si512(_mm512_and_si512(x1, zv), _mm512_and_si512(z1, xv));
                    let plus = _mm512_andnot_si512(
                        _mm512_xor_si512(xv, _mm512_xor_si512(x1, z1)),
                        _mm512_andnot_si512(_mm512_xor_si512(zv, x1), anti),
                    );
                    let minus = _mm512_and_si512(_mm512_xor_si512(anti, plus), m);
                    let plus = _mm512_and_si512(plus, m);
                    h = _mm512_xor_si512(
                        h,
                        _mm512_or_si512(_mm512_and_si512(l, plus), _mm512_andnot_si512(l, minus)),
                    );
                    l = _mm512_xor_si512(l, _mm512_or_si512(plus, minus));
                    let mut xv = _mm512_xor_si512(xv, _mm512_and_si512(x1, m));
                    let mut zv = _mm512_xor_si512(zv, _mm512_and_si512(z1, m));
                    if moves {
                        xv = _mm512_or_si512(
                            _mm512_andnot_si512(clear, xv),
                            _mm512_and_si512(x1, d),
                        );
                        zv = _mm512_or_si512(
                            _mm512_andnot_si512(clear, zv),
                            _mm512_and_si512(z1, d),
                        );
                    }
                    _mm512_mask_storeu_epi64(xq, k, xv);
                    _mm512_mask_storeu_epi64(zq, k, zv);
                }
                _mm512_mask_storeu_epi64(lq.add(i), k, l);
                _mm512_mask_storeu_epi64(hq.add(i), k, h);
            }
        }
    }

    /// Inclusive prefix XOR within each 64-bit lane.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn prefix_xor4(mut v: __m256i) -> __m256i {
        v = _mm256_xor_si256(v, _mm256_slli_epi64::<1>(v));
        v = _mm256_xor_si256(v, _mm256_slli_epi64::<2>(v));
        v = _mm256_xor_si256(v, _mm256_slli_epi64::<4>(v));
        v = _mm256_xor_si256(v, _mm256_slli_epi64::<8>(v));
        v = _mm256_xor_si256(v, _mm256_slli_epi64::<16>(v));
        _mm256_xor_si256(v, _mm256_slli_epi64::<32>(v))
    }

    /// Inclusive prefix XOR within each 64-bit lane.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn prefix_xor8(mut v: __m512i) -> __m512i {
        v = _mm512_xor_si512(v, _mm512_slli_epi64::<1>(v));
        v = _mm512_xor_si512(v, _mm512_slli_epi64::<2>(v));
        v = _mm512_xor_si512(v, _mm512_slli_epi64::<4>(v));
        v = _mm512_xor_si512(v, _mm512_slli_epi64::<8>(v));
        v = _mm512_xor_si512(v, _mm512_slli_epi64::<16>(v));
        _mm512_xor_si512(v, _mm512_slli_epi64::<32>(v))
    }

    /// For all-zero/all-one lanes `p`, the exclusive XOR scan across the
    /// four lanes: lane `j` is the XOR of lanes `0..j`.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lane_scan4(p: __m256i) -> __m256i {
        // Lanes up by one (lane 0 zero), then an inclusive scan of those
        // by steps of one and two lanes.
        let scan = lanes_up1(p);
        let scan = _mm256_xor_si256(scan, lanes_up1(scan));
        _mm256_xor_si256(scan, _mm256_permute2x128_si256::<0x08>(scan, scan))
    }

    /// Moves the four lanes of `v` up by one, zero-filling lane 0.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lanes_up1(v: __m256i) -> __m256i {
        _mm256_blend_epi32::<0b0000_0011>(
            _mm256_permute4x64_epi64::<0b10_01_00_00>(v),
            _mm256_setzero_si256(),
        )
    }

    /// The parity of the lanes of `v` whose sign bit is set.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn sign_parity4(v: __m256i) -> Word {
        (_mm256_movemask_pd(_mm256_castsi256_pd(v)).count_ones() & 1) as Word
    }

    /// For all-zero/all-one lanes `p`, the exclusive XOR scan across the
    /// eight lanes: lane `j` is the XOR of lanes `0..j`.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn lane_scan8(p: __m512i) -> __m512i {
        let zero = _mm512_setzero_si512();
        // `alignr(v, 0, 8 - s)` moves the lanes of `v` up by `s`, zero-filling.
        let mut scan = _mm512_alignr_epi64::<7>(p, zero);
        scan = _mm512_xor_si512(scan, _mm512_alignr_epi64::<7>(scan, zero));
        scan = _mm512_xor_si512(scan, _mm512_alignr_epi64::<6>(scan, zero));
        _mm512_xor_si512(scan, _mm512_alignr_epi64::<4>(scan, zero))
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2, and that the layout
    /// checks of `Kernels::deterministic_sweep` passed with `span` inside
    /// the mask.
    #[target_feature(enable = "avx2")]
    pub unsafe fn deterministic_sweep_avx2(
        x: &mut [Word],
        z: &mut [Word],
        sweep: &mut [Word],
        span: Range<usize>,
        scratch: usize,
    ) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features; each vector access below is
        // masked to words in `span`, inside a column and the sweep buffers.
        unsafe {
            let w = sweep.len() / 3;
            let (mask, lo, hi) = (
                sweep.as_ptr(),
                sweep.as_mut_ptr().add(w),
                sweep.as_mut_ptr().add(2 * w),
            );
            let zero = _mm256_setzero_si256();
            for (xc, zc) in x.chunks_exact_mut(w).zip(z.chunks_exact_mut(w)) {
                super::scalar::set_bit(xc, scratch, 0);
                super::scalar::set_bit(zc, scratch, 0);
            }
            // Each vector of rows sweeps every column in turn, keeping its
            // mask and counters in registers. A column's running product
            // before the vector — the parity of the earlier factors' bits —
            // is carried in its scratch row, which ends as the product.
            let mut i = span.start;
            while i < span.end {
                let (k, full) = lanes4(i, span.end);
                let m = load4(mask.add(i), k);
                let (mut l, mut h) = (zero, zero);
                for (xc, zc) in x.chunks_exact_mut(w).zip(z.chunks_exact_mut(w)) {
                    let x1 = _mm256_and_si256(load4(xc.as_ptr().add(i), k), m);
                    let z1 = _mm256_and_si256(load4(zc.as_ptr().add(i), k), m);
                    let factors = _mm256_or_si256(x1, z1);
                    if _mm256_testz_si256(factors, factors) != 0 {
                        continue; // no factor here: nothing to add or carry
                    }
                    let (ix, iz) = (prefix_xor4(x1), prefix_xor4(z1));
                    // Lane parities (the sign bits of the prefix), and the
                    // product so far entering each lane.
                    let (sx, sz) = (_mm256_cmpgt_epi64(zero, ix), _mm256_cmpgt_epi64(zero, iz));
                    let cx = (xc[scratch / 64] >> (scratch % 64)) & 1;
                    let cz = (zc[scratch / 64] >> (scratch % 64)) & 1;
                    let px = _mm256_xor_si256(lane_scan4(sx), _mm256_set1_epi64x(-(cx as i64)));
                    let pz = _mm256_xor_si256(lane_scan4(sz), _mm256_set1_epi64x(-(cz as i64)));
                    let x2 = _mm256_xor_si256(_mm256_xor_si256(ix, x1), px);
                    let z2 = _mm256_xor_si256(_mm256_xor_si256(iz, z1), pz);
                    let anti = _mm256_xor_si256(_mm256_and_si256(x1, z2), _mm256_and_si256(z1, x2));
                    let plus = _mm256_andnot_si256(
                        _mm256_xor_si256(_mm256_xor_si256(x2, x1), z1),
                        _mm256_andnot_si256(_mm256_xor_si256(z2, x1), anti),
                    );
                    let minus = _mm256_xor_si256(anti, plus);
                    h = _mm256_xor_si256(
                        h,
                        _mm256_or_si256(_mm256_and_si256(l, plus), _mm256_andnot_si256(l, minus)),
                    );
                    l = _mm256_xor_si256(l, _mm256_or_si256(plus, minus));
                    super::scalar::set_bit(xc, scratch, cx ^ sign_parity4(sx));
                    super::scalar::set_bit(zc, scratch, cz ^ sign_parity4(sz));
                }
                store4(lo.add(i), k, full, l);
                store4(hi.add(i), k, full, h);
                i += 4;
            }
        }
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX-512F, and that the layout
    /// checks of `Kernels::deterministic_sweep` passed with `span` inside
    /// the mask.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn deterministic_sweep_avx512(
        x: &mut [Word],
        z: &mut [Word],
        sweep: &mut [Word],
        span: Range<usize>,
        scratch: usize,
    ) {
        // SAFETY: the `# Safety` contract above holds — the caller has
        // verified the required CPU features; each vector access below is
        // masked to words in `span`, inside a column and the sweep buffers.
        unsafe {
            let w = sweep.len() / 3;
            let mq = sweep.as_ptr() as *const i64;
            let (lq, hq) = (
                sweep.as_mut_ptr().add(w) as *mut i64,
                sweep.as_mut_ptr().add(2 * w) as *mut i64,
            );
            let zero = _mm512_setzero_si512();
            for (xc, zc) in x.chunks_exact_mut(w).zip(z.chunks_exact_mut(w)) {
                super::scalar::set_bit(xc, scratch, 0);
                super::scalar::set_bit(zc, scratch, 0);
            }
            // Each vector of rows sweeps every column in turn, keeping its
            // mask and counters in registers. A column's running product
            // before the vector — the parity of the earlier factors' bits —
            // is carried in its scratch row, which ends as the product.
            let mut i = span.start;
            while i < span.end {
                let k = lanes8(i, span.end);
                let m = _mm512_maskz_loadu_epi64(k, mq.add(i));
                let (mut l, mut h) = (zero, zero);
                for (xc, zc) in x.chunks_exact_mut(w).zip(z.chunks_exact_mut(w)) {
                    let xq = xc.as_ptr().add(i) as *const i64;
                    let zq = zc.as_ptr().add(i) as *const i64;
                    let x1 = _mm512_and_si512(_mm512_maskz_loadu_epi64(k, xq), m);
                    let z1 = _mm512_and_si512(_mm512_maskz_loadu_epi64(k, zq), m);
                    let factors = _mm512_or_si512(x1, z1);
                    if _mm512_test_epi64_mask(factors, factors) == 0 {
                        continue; // no factor here: nothing to add or carry
                    }
                    let (ix, iz) = (prefix_xor8(x1), prefix_xor8(z1));
                    // Lane parities (the sign bits of the prefix), and the
                    // product so far entering each lane.
                    let (sx, sz) = (_mm512_srai_epi64::<63>(ix), _mm512_srai_epi64::<63>(iz));
                    let cx = (xc[scratch / 64] >> (scratch % 64)) & 1;
                    let cz = (zc[scratch / 64] >> (scratch % 64)) & 1;
                    let px = _mm512_xor_si512(lane_scan8(sx), _mm512_set1_epi64(-(cx as i64)));
                    let pz = _mm512_xor_si512(lane_scan8(sz), _mm512_set1_epi64(-(cz as i64)));
                    let x2 = _mm512_xor_si512(_mm512_xor_si512(ix, x1), px);
                    let z2 = _mm512_xor_si512(_mm512_xor_si512(iz, z1), pz);
                    let anti = _mm512_xor_si512(_mm512_and_si512(x1, z2), _mm512_and_si512(z1, x2));
                    let plus = _mm512_andnot_si512(
                        _mm512_xor_si512(_mm512_xor_si512(x2, x1), z1),
                        _mm512_andnot_si512(_mm512_xor_si512(z2, x1), anti),
                    );
                    let minus = _mm512_xor_si512(anti, plus);
                    h = _mm512_xor_si512(
                        h,
                        _mm512_or_si512(_mm512_and_si512(l, plus), _mm512_andnot_si512(l, minus)),
                    );
                    l = _mm512_xor_si512(l, _mm512_or_si512(plus, minus));
                    let px_end = _mm512_cmplt_epi64_mask(ix, zero).count_ones() as Word & 1;
                    let pz_end = _mm512_cmplt_epi64_mask(iz, zero).count_ones() as Word & 1;
                    super::scalar::set_bit(xc, scratch, cx ^ px_end);
                    super::scalar::set_bit(zc, scratch, cz ^ pz_end);
                }
                _mm512_mask_storeu_epi64(lq.add(i), k, l);
                _mm512_mask_storeu_epi64(hq.add(i), k, h);
                i += 8;
            }
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
    fn xor_or_into_matches_scalar_at_every_level() {
        for n in [0usize, 1, 3, 4, 5, 8, 9, 17, 40] {
            let src = random_words(n, 9000 + n as u64);
            let (x0, o0) = (random_words(n + 2, 9100), random_words(n + 2, 9200));
            let (mut ex, mut eo) = (x0.clone(), o0.clone());
            scalar::xor_or_into(&mut ex, &mut eo, &src);
            for level in available_levels() {
                let (mut x, mut o) = (x0.clone(), o0.clone());
                kernels_for(level).xor_or_into(&mut x, &mut o, &src);
                assert_eq!((x, o), (ex.clone(), eo.clone()), "{} n {n}", level.name());
            }
        }
    }

    /// Random actions on every column length from 1 to 17 words, applied
    /// to a run of targets on a 5-qubit tableau that revisits qubits.
    fn check_gate_action<const C: usize>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let qubits = 5u32;
        for len in 1..=17usize {
            let action = ColumnAction::<C> {
                out: std::array::from_fn(|_| rng.random_range(0..1u8 << C)),
                phase_tt: (rng.random::<u32>() & ((1 << (1 << C)) - 1)) as u16 & !1,
            };
            let mut targets = Vec::new();
            for _ in 0..6 {
                let a = rng.random_range(0..qubits);
                targets.push(a);
                if C == 4 {
                    targets.push((a + rng.random_range(1..qubits)) % qubits);
                }
            }
            let x0 = random_words(len * qubits as usize, rng.random());
            let z0 = random_words(len * qubits as usize, rng.random());
            let signs0 = random_words(len, rng.random());
            let mut expect = (x0.clone(), z0.clone(), signs0.clone());
            scalar::gate_action(
                &action,
                &mut expect.0,
                &mut expect.1,
                &targets,
                &mut expect.2,
            );
            for level in available_levels() {
                let mut got = (x0.clone(), z0.clone(), signs0.clone());
                kernels_for(level)
                    .gate_action(&action, &mut got.0, &mut got.1, &targets, &mut got.2);
                assert_eq!(got, expect, "{} len {len} {action:?}", level.name());
            }
        }
    }

    #[test]
    fn gate_action_matches_scalar_at_every_level() {
        for seed in 0..8 {
            check_gate_action::<2>(seed);
            check_gate_action::<4>(100 + seed);
        }
    }

    /// Random `cols`-column tableaus of `w`-word columns with a random
    /// sweep mask (avoiding the rows in `keep`), swept at every level.
    fn check_sweep(seed: u64, run: impl Fn(Kernels, &mut [Word], &mut [Word], &mut [Word], usize)) {
        let mut rng = StdRng::seed_from_u64(seed);
        for w in 1..=17usize {
            for cols in [1usize, 3, 6] {
                let row = rng.random_range(0..64 * w);
                let (x0, z0) = (
                    random_words(cols * w, rng.random()),
                    random_words(cols * w, rng.random()),
                );
                let mut sweep0 = random_words(3 * w, rng.random());
                // Sparse masks leave empty words at either end of the span.
                if rng.random() {
                    for m in &mut sweep0[..w] {
                        *m &= rng.random::<u64>() & rng.random::<u64>() & rng.random::<u64>();
                    }
                    sweep0[0] = 0;
                    sweep0[w - 1] = 0;
                }
                sweep0[row / 64] &= !(1 << (row % 64));
                let mut expect = (x0.clone(), z0.clone(), sweep0.clone());
                run(
                    kernels_for(SimdLevel::Scalar),
                    &mut expect.0,
                    &mut expect.1,
                    &mut expect.2,
                    row,
                );
                for level in available_levels() {
                    let mut got = (x0.clone(), z0.clone(), sweep0.clone());
                    run(kernels_for(level), &mut got.0, &mut got.1, &mut got.2, row);
                    assert_eq!(got, expect, "{} w {w} cols {cols} row {row}", level.name());
                }
            }
        }
    }

    #[test]
    fn collapse_sweep_matches_scalar_at_every_level() {
        for seed in 0..4 {
            check_sweep(seed, |k, x, z, sweep, pivot| {
                let w = sweep.len() / 3;
                let dest = (pivot + 1 + pivot * 7 % 50) % (64 * w);
                sweep[dest / 64] |= 1 << (dest % 64);
                if dest == pivot {
                    return;
                }
                k.collapse_sweep(x, z, sweep, pivot, dest);
            });
        }
    }

    #[test]
    fn deterministic_sweep_matches_scalar_at_every_level() {
        for seed in 0..4 {
            check_sweep(10 + seed, |k, x, z, sweep, scratch| {
                k.deterministic_sweep(x, z, sweep, scratch);
            });
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
