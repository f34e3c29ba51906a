//! Algorithm 1: the SymPhase sampler.

use std::ops::Deref;
use std::sync::OnceLock;

use rand::{Rng, RngCore};

use symphase_backend::noise::{FaultSink, NoiseSite};
pub use symphase_backend::SampleBatch;
use symphase_backend::Sampler;
pub use symphase_backend::{PhaseRepr, SamplingMethod};
use symphase_bitmat::bernoulli::{fill_bernoulli, for_each_bernoulli_index};
use symphase_bitmat::word::iter_ones;
use symphase_bitmat::{BitMatrix, SparseBitVec, SparseColumns, SparseRowMatrix};
use symphase_circuit::Circuit;

use crate::records::SymbolicRecords;
use crate::symbol::{DrawPlan, SymbolSink, SymbolTable};

/// The SymPhase measurement sampler (paper Algorithm 1).
///
/// [`SymPhaseSampler::new`] runs **Initialization**, which produces the
/// circuit's [`SymbolicRecords`]: one XOR expression per measurement,
/// detector and observable. The sampler dereferences to them.
/// [`SymPhaseSampler::sample`] runs **Sampling**: it draws an assignment
/// matrix `B` from the noise model and multiplies (Eq. (4)) — no circuit
/// traversal, so the per-shot cost is independent of the gate count
/// (Table 1).
///
/// Sampling draws a compressed *draw plan* of the records' symbol table,
/// built once from the columns of `M`: noise no record reads is dropped,
/// and groups that flip the same set of measurements merge into one
/// Bernoulli draw. The records' distribution is exactly the table's
/// (`docs/performance.md`, "Noise draw").
///
/// # Example
///
/// ```
/// use symphase_circuit::{Circuit, NoiseChannel};
/// use symphase_core::SymPhaseSampler;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut c = Circuit::new(1);
/// c.noise(NoiseChannel::XError(0.25), &[0]);
/// c.measure(0);
/// let sampler = SymPhaseSampler::new(&c);
/// assert_eq!(sampler.measurement_expr(0).to_string(), "s1");
/// let s = sampler.sample(10_000, &mut StdRng::seed_from_u64(1));
/// let ones = (0..10_000).filter(|&i| s.get(0, i)).count();
/// assert!((ones as f64 - 2500.0).abs() < 300.0);
/// ```
#[derive(Debug)]
pub struct SymPhaseSampler {
    records: SymbolicRecords,
    /// The sampling method the `Sampler` trait entry points use (`Auto`
    /// when unpinned).
    method: SamplingMethod,
    /// What [`SamplingMethod::Auto`] resolves to on this circuit
    /// (precomputed so sampling never needs the circuit back).
    auto_method: SamplingMethod,
    plan: DrawPlan,
    /// The kernel forms of the measurement, detector and observable rows.
    meas: Forms,
    det: Forms,
    obs: Forms,
}

/// The forms the kernels multiply one record matrix with — each over the
/// draw plan's columns, built from the matrix's symbol-id rows on first
/// use.
#[derive(Debug, Default)]
struct Forms {
    /// The rows over plan columns for [`SamplingMethod::SparseRows`].
    sparse: OnceLock<SparseRowMatrix>,
    /// The densified plan rows for [`SamplingMethod::DenseMatMul`].
    dense: OnceLock<BitMatrix>,
    /// The coin/fault split for [`SamplingMethod::Hybrid`].
    hybrid: OnceLock<EventTarget>,
}

impl Forms {
    fn sparse(&self, plan: &DrawPlan, rows: &SparseRowMatrix) -> &SparseRowMatrix {
        self.sparse.get_or_init(|| plan.map_rows(rows))
    }

    fn dense(&self, plan: &DrawPlan, rows: &SparseRowMatrix) -> &BitMatrix {
        self.dense.get_or_init(|| plan.map_rows(rows).to_dense())
    }

    fn hybrid(&self, plan: &DrawPlan, rows: &SparseRowMatrix) -> &EventTarget {
        self.hybrid.get_or_init(|| EventTarget::build(plan, rows))
    }
}

/// One record matrix as the hybrid strategy sees it. Plan columns
/// `0..=num_coins` (the constant and the coins) form the coin part;
/// every later plan column is a fault column.
#[derive(Debug)]
struct EventTarget {
    /// Rows over plan columns `0..=num_coins`.
    coin_rows: SparseRowMatrix,
    /// Column `k` = rows containing fault column `k`, which is plan
    /// column `num_coins + 1 + k`.
    fault_rows: SparseColumns,
}

impl EventTarget {
    /// Reads each symbol-id row as it stands, with no per-row sort: coin
    /// columns rise with symbol id, and a plan column stands for one
    /// symbol, so no row repeats a fault column.
    fn build(plan: &DrawPlan, rows: &SparseRowMatrix) -> Self {
        let coins = plan.num_coins() as u32;
        let mut coin_rows = SparseRowMatrix::new(coins as usize + 1);
        for row in rows.iter() {
            let cols = row.indices().iter().filter_map(|&id| plan.column(id));
            coin_rows.push_row(SparseBitVec::from_sorted(
                cols.filter(|&c| c <= coins).collect(),
            ));
        }
        let faults = plan.len() - coins as usize - 1;
        let fault_rows = SparseColumns::of(rows, faults, |id| {
            plan.column(id).and_then(|c| c.checked_sub(coins + 1))
        });
        Self {
            coin_rows,
            fault_rows,
        }
    }
}

/// Buffers a sampling call reuses across its shot batches: the
/// assignment matrix, the blocked-kernel scratch, and the hybrid draw
/// buffers. Held in a thread-local ([`SAMPLE_SCRATCH`]) so chunk-seeded
/// sampling — which enters through `sample_into` once per chunk, on the
/// calling thread or on each wave lane's worker — also reuses them
/// across a thread's chunks instead of reallocating per chunk. Every
/// buffer is re-shaped/refilled on use, so sharing a thread between
/// different samplers is safe.
#[derive(Debug, Default)]
struct SampleScratch {
    assignments: Option<BitMatrix>,
    m4r: symphase_bitmat::M4rScratch,
    coins: Option<BitMatrix>,
    events: Vec<(u32, u32)>,
}

thread_local! {
    static SAMPLE_SCRATCH: std::cell::RefCell<SampleScratch> =
        std::cell::RefCell::new(SampleScratch::default());
}

impl SymPhaseSampler {
    /// Runs Initialization, choosing the phase store and sampling method
    /// per circuit ([`PhaseRepr::Auto`], [`SamplingMethod::Auto`]).
    pub fn new(circuit: &Circuit) -> Self {
        Self::with_repr(circuit, PhaseRepr::Auto)
    }

    /// Runs Initialization with an explicit phase-store choice.
    pub fn with_repr(circuit: &Circuit, repr: PhaseRepr) -> Self {
        Self::with_config(circuit, repr, SamplingMethod::Auto)
    }

    /// Runs Initialization with explicit phase-store and sampling-method
    /// choices. The method only selects which kernel computes `M · B` —
    /// sampled bits are identical across methods for equal seeds.
    pub fn with_config(circuit: &Circuit, repr: PhaseRepr, method: SamplingMethod) -> Self {
        let records = SymbolicRecords::with_repr(circuit, repr);
        let (plan, counts) = DrawPlan::build(&records.table, &records.meas);
        let auto_method = resolve_auto(&plan, &records.table, records.meas.rows(), &counts);
        Self {
            records,
            method,
            auto_method,
            plan,
            meas: Forms::default(),
            det: Forms::default(),
            obs: Forms::default(),
        }
    }

    /// What [`SamplingMethod::Auto`] resolves to on this circuit.
    pub fn resolved_method(&self) -> SamplingMethod {
        self.auto_method
    }

    /// Sampling (Algorithm 1, line 2): draws `shots` assignment vectors and
    /// multiplies. Output is measurement-major (`num_measurements × shots`).
    pub fn sample(&self, shots: usize, rng: &mut impl Rng) -> BitMatrix {
        self.sample_with_method(shots, rng, SamplingMethod::default())
    }

    /// Shots per internal batch: keeps the assignment matrix `B` small
    /// enough to stay cache-resident while still packing 64 shots per word.
    const SHOT_BATCH: usize = 4096;

    /// Sampling with an explicit multiplication strategy.
    pub fn sample_with_method(
        &self,
        shots: usize,
        rng: &mut impl Rng,
        method: SamplingMethod,
    ) -> BitMatrix {
        let mut out = BitMatrix::zeros(self.num_measurements(), shots);
        let meas = (&self.records.meas, &self.meas);
        self.fill_records(shots, rng, method, &mut [(meas, &mut out)]);
        out
    }

    /// Samples measurements, detectors and observables from one shared
    /// assignment draw (columns are shot-aligned across the three
    /// matrices), with the sampler's configured method.
    pub fn sample_batch(&self, shots: usize, rng: &mut impl Rng) -> SampleBatch {
        let mut batch = SampleBatch::zeros(
            self.num_measurements(),
            self.num_detectors(),
            self.num_observables(),
            shots,
        );
        self.sample_batch_with_method(&mut batch, rng, self.method);
        batch
    }

    /// Refills a pre-shaped [`SampleBatch`] with an explicit
    /// multiplication strategy. One assignment draw per shot batch feeds
    /// all three record matrices, whatever the method, so columns stay
    /// shot-aligned and the RNG stream is method-independent.
    ///
    /// Every bit of the batch is overwritten (each kernel owns its shot
    /// window), so a reused batch never mixes draws.
    pub fn sample_batch_with_method(
        &self,
        batch: &mut SampleBatch,
        rng: &mut impl Rng,
        method: SamplingMethod,
    ) {
        let shots = batch.shots();
        let r = &self.records;
        self.fill_records(
            shots,
            rng,
            method,
            &mut [
                ((&r.meas, &self.meas), &mut batch.measurements),
                ((&r.det, &self.det), &mut batch.detectors),
                ((&r.obs, &self.obs), &mut batch.observables),
            ],
        );
    }

    /// The one shot-batch loop: per batch of [`Self::SHOT_BATCH`] shots,
    /// draws once, then writes `rows · B` over that batch's window of
    /// every output with `method`'s kernel. The windows tile each output,
    /// so every bit is overwritten and the outputs need no clearing.
    ///
    /// Scratch buffers (the assignment matrix, the blocked-kernel tables,
    /// the hybrid draw buffers) live in a thread-local and are reused
    /// across the shot batches *and* across calls on the same thread (the
    /// chunk-seeded sampling paths).
    fn fill_records(
        &self,
        shots: usize,
        rng: &mut impl Rng,
        method: SamplingMethod,
        outs: &mut [((&SparseRowMatrix, &Forms), &mut BitMatrix)],
    ) {
        let method = if method == SamplingMethod::Auto {
            self.auto_method
        } else {
            method
        };
        let plan = &self.plan;
        SAMPLE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            for start in (0..shots).step_by(Self::SHOT_BATCH) {
                let width = Self::SHOT_BATCH.min(shots - start);
                debug_assert_eq!(start % 64, 0, "batch starts must be word-aligned");
                match method {
                    SamplingMethod::Auto => unreachable!("resolved above"),
                    SamplingMethod::Hybrid => {
                        self.draw_hybrid(width, rng, scratch);
                        let coins = scratch.coins.as_ref().expect("drawn above");
                        for ((rows, forms), out) in outs.iter_mut() {
                            let target = forms.hybrid(plan, rows);
                            apply_hybrid(target, coins, &scratch.events, out, start);
                        }
                    }
                    SamplingMethod::SparseRows | SamplingMethod::DenseMatMul => {
                        let b = shaped(&mut scratch.assignments, plan.len(), width);
                        plan.sample_into(&self.records.table, b, rng);
                        for ((rows, forms), out) in outs.iter_mut() {
                            if method == SamplingMethod::SparseRows {
                                forms
                                    .sparse(plan, rows)
                                    .mul_dense_overwrite(b, out, start / 64);
                            } else {
                                // The blocked kernel XOR-accumulates.
                                clear_window(out, start / 64, b.stride());
                                forms.dense(plan, rows).mul_into(
                                    b,
                                    out,
                                    start / 64,
                                    &mut scratch.m4r,
                                );
                            }
                        }
                    }
                }
            }
        });
    }
}

impl Deref for SymPhaseSampler {
    type Target = SymbolicRecords;

    fn deref(&self) -> &SymbolicRecords {
        &self.records
    }
}

impl Sampler for SymPhaseSampler {
    fn name(&self) -> &'static str {
        "symphase"
    }

    fn num_measurements(&self) -> usize {
        self.records.num_measurements()
    }

    fn num_detectors(&self) -> usize {
        self.records.num_detectors()
    }

    fn num_observables(&self) -> usize {
        self.records.num_observables()
    }

    fn sample_into(&self, batch: &mut SampleBatch, mut rng: &mut dyn RngCore) {
        // The batch path overwrites every bit, so reused batches never
        // mix draws.
        self.sample_batch_with_method(batch, &mut rng, self.method);
    }
}

impl SymPhaseSampler {
    /// The [`SamplingMethod::Hybrid`] draw for one shot window: fills the
    /// coin matrix (constant row + one row per coin) and collects every
    /// fired fault as a `(fault column, shot)` event into the scratch. The
    /// draw itself is the plan's, so the sampled bits match every other
    /// [`SamplingMethod`].
    fn draw_hybrid(&self, width: usize, rng: &mut impl Rng, scratch: &mut SampleScratch) {
        let num_coins = self.plan.num_coins();
        let coins = shaped(&mut scratch.coins, num_coins + 1, width);
        // Row 0: the constant symbol s₀ = 1 (p = 1 draws no randomness).
        fill_bernoulli(coins.row_mut(0), width, 1.0, rng);
        scratch.events.clear();
        let mut sink = HybridSink {
            ids: [0; 4],
            num_coins: num_coins as u32,
            coins,
            events: &mut scratch.events,
        };
        self.plan.draw(&self.records.table, width, rng, &mut sink);
    }
}

/// Routes coins to their rows of the coin matrix and fault columns to
/// `(fault column, shot)` events.
struct HybridSink<'a> {
    ids: [u32; 4],
    num_coins: u32,
    coins: &'a mut BitMatrix,
    events: &'a mut Vec<(u32, u32)>,
}

impl HybridSink<'_> {
    /// The fault column of `slot` (see [`EventTarget::fault_rows`]).
    fn fault(&self, slot: usize) -> u32 {
        self.ids[slot] - self.num_coins - 1
    }
}

impl FaultSink for HybridSink<'_> {
    fn bernoulli<R: Rng>(&mut self, slot: usize, p: f64, width: usize, rng: &mut R) {
        let id = self.ids[slot];
        if id <= self.num_coins {
            fill_bernoulli(self.coins.row_mut(id as usize), width, p, rng);
        } else {
            // No per-event choice draws, so a fault's mask need not be
            // materialized (same RNG stream either way).
            let k = self.fault(slot);
            for_each_bernoulli_index(p, width, rng, |shot| self.events.push((k, shot as u32)));
        }
    }

    fn set(&mut self, slot: usize, shot: usize) {
        self.events.push((self.fault(slot), shot as u32));
    }

    fn mask(&mut self, slot: usize, fired: &[u64]) {
        let k = self.fault(slot);
        self.events
            .extend(iter_ones(fired).map(|shot| (k, shot as u32)));
    }
}

impl SymbolSink for HybridSink<'_> {
    fn set_group(&mut self, _site: &NoiseSite, ids: [u32; 4]) {
        self.ids = ids;
    }
}

/// Applies one hybrid draw to one record matrix's shot window: the coin
/// part as a dense product through the target's coin-restricted rows,
/// which overwrites the window, then the fault part as per-event bit
/// flips on top through the symbol → rows index.
fn apply_hybrid(
    target: &EventTarget,
    coins: &BitMatrix,
    events: &[(u32, u32)],
    out: &mut BitMatrix,
    start: usize,
) {
    debug_assert_eq!(start % 64, 0, "batch starts must be word-aligned");
    target.coin_rows.mul_dense_overwrite(coins, out, start / 64);
    let ostride = out.stride();
    let words = out.words_mut();
    for &(k, shot) in events {
        let col = start + shot as usize;
        let (w, mask) = (col / 64, 1u64 << (col % 64));
        for &m in target.fault_rows.column(k) {
            words[m as usize * ostride + w] ^= mask;
        }
    }
}

/// Relative cost of one event-driven bit flip versus one word of a
/// streaming row XOR: flips are scattered read-modify-writes (plus their
/// share of the geometric draw), worth roughly a cache line each, while
/// row XORs stream 64 shots per word.
const FLIP_COST: f64 = 8.0;

/// [`SamplingMethod::Auto`] resolution from what Initialization actually
/// built, over the draw plan's columns: `counts[c]` is the number of the
/// `rows` measurement rows that hold plan column `c`, as
/// [`DrawPlan::build`] returns it. Costs are per 64-shot word:
///
/// * `Hybrid` — the coin-restricted product plus, per noise outcome of
///   the plan, its probability times the rows its columns touch (the same
///   as each fault column's marginal fire probability times its rows),
///   weighted by [`FLIP_COST`] (events are scattered single-bit flips).
/// * `SparseRows` — one word XOR per set bit of the plan's `M`.
/// * `DenseMatMul` — per 8-column group, the 256-entry Gray-code table
///   build plus one lookup per row, at half a gather each:
///   ½·(rows + 512)·⌈len/8⌉ (the halving is fitted on the kernel grid of
///   `docs/performance.md`, "Choosing the `M·B` kernel").
///
/// The cheaper matrix kernel wins unless `Hybrid` undercuts it.
fn resolve_auto(
    plan: &DrawPlan,
    table: &SymbolTable,
    rows: usize,
    counts: &[u32],
) -> SamplingMethod {
    let count = |c: &u32| f64::from(counts[*c as usize]);
    // Constant + coin columns are multiplied densely by the hybrid path.
    let coin_nnz: f64 = counts[..=plan.num_coins()]
        .iter()
        .map(|&n| f64::from(n))
        .sum();
    // Expected fault-bit flips per shot: each outcome's probability times
    // the measurement rows its columns touch.
    let mut flips_per_shot = 0.0;
    plan.for_each_outcome(table, |cols, p| {
        flips_per_shot += p * cols.iter().map(count).sum::<f64>();
    });
    let hybrid_cost = coin_nnz + FLIP_COST * 64.0 * flips_per_shot;
    let sparse_cost = counts.iter().map(|&n| n as usize).sum::<usize>() as f64;
    let dense_cost = 0.5 * (rows + 512) as f64 * plan.len().div_ceil(8) as f64;
    let (matrix, matrix_cost) = if dense_cost < sparse_cost {
        (SamplingMethod::DenseMatMul, dense_cost)
    } else {
        (SamplingMethod::SparseRows, sparse_cost)
    };
    if hybrid_cost < matrix_cost {
        SamplingMethod::Hybrid
    } else {
        matrix
    }
}

/// The matrix in `slot`, reshaped in place to `rows × cols` zeros only
/// when its shape differs (the final, narrower shot batch), so its buffer
/// survives width changes. A reused matrix keeps its last contents, which
/// the draws overwrite.
fn shaped(slot: &mut Option<BitMatrix>, rows: usize, cols: usize) -> &mut BitMatrix {
    let m = slot.get_or_insert_with(|| BitMatrix::zeros(rows, cols));
    if m.rows() != rows || m.cols() != cols {
        m.reset_zeros(rows, cols);
    }
    m
}

/// Zeroes words `col_word_offset..col_word_offset + words` of every row
/// of `out`.
fn clear_window(out: &mut BitMatrix, col_word_offset: usize, words: usize) {
    let stride = out.stride();
    for row in out.words_mut().chunks_exact_mut(stride) {
        row[col_word_offset..col_word_offset + words].fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symphase_circuit::generators::{
        bell_pair, fig3c_circuit as fig3c, ghz, noisy_ghz_chain as ghz_chain,
        repetition_code_memory, surface_code_memory, teleportation, RepetitionCodeConfig,
        SurfaceCodeConfig,
    };
    use symphase_circuit::NoiseChannel;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn bell_pair_correlated_and_fair() {
        let s = SymPhaseSampler::new(&bell_pair());
        let shots = 20_000;
        let out = s.sample(shots, &mut rng(1));
        let mut ones = 0usize;
        for shot in 0..shots {
            assert_eq!(out.get(0, shot), out.get(1, shot));
            ones += usize::from(out.get(0, shot));
        }
        assert!((ones as f64 - shots as f64 / 2.0).abs() < 6.0 * (shots as f64 / 4.0).sqrt());
    }

    #[test]
    fn ghz_shots_internally_consistent() {
        let s = SymPhaseSampler::new(&ghz(5));
        let out = s.sample(300, &mut rng(2));
        for shot in 0..300 {
            let v = out.get(0, shot);
            for q in 1..5 {
                assert_eq!(out.get(q, shot), v);
            }
        }
    }

    #[test]
    fn sparse_and_dense_multiplication_agree() {
        let c = repetition_code_memory(&RepetitionCodeConfig {
            distance: 4,
            rounds: 3,
            data_error: 0.1,
            measure_error: 0.05,
        });
        let s = SymPhaseSampler::new(&c);
        let a = s.sample_with_method(500, &mut rng(3), SamplingMethod::SparseRows);
        let b = s.sample_with_method(500, &mut rng(3), SamplingMethod::DenseMatMul);
        assert_eq!(a, b);
    }

    #[test]
    fn dense_and_sparse_phase_stores_agree() {
        let c = repetition_code_memory(&RepetitionCodeConfig {
            distance: 3,
            rounds: 2,
            data_error: 0.2,
            measure_error: 0.1,
        });
        let s1 = SymPhaseSampler::with_repr(&c, PhaseRepr::Sparse);
        let s2 = SymPhaseSampler::with_repr(&c, PhaseRepr::Dense);
        assert_eq!(s1.measurement_exprs(), s2.measurement_exprs());
    }

    #[test]
    fn teleportation_last_outcome_always_zero() {
        let s = SymPhaseSampler::new(&teleportation());
        let out = s.sample(2000, &mut rng(4));
        for shot in 0..2000 {
            assert!(!out.get(2, shot));
        }
    }

    /// Every noise kind on halves of Bell pairs, plus two coins. Undoing
    /// the pairs turns each error's Z part into one record and its X part
    /// into another, so every jointly distributed channel stays whole in
    /// the draw plan. The plan's shape does not depend on `p`.
    fn channel_mix(p: f64) -> Circuit {
        let (a, b) = (p / 3.0, p / 15.0);
        let pairs = "CX 0 6 1 7 2 8 3 9 4 10 5 11";
        let text = format!(
            "H 0 1 2 3 4 5\n{pairs}\nX_ERROR({p}) 0\nDEPOLARIZE1({p}) 0 1\n\
             DEPOLARIZE2({p}) 2 3\nPAULI_CHANNEL_1({a},{a},{a}) 4\n\
             PAULI_CHANNEL_2({b},{b},{b},{b},{b},{b},{b},{b},{b},{b},{b},{b},{b},{b},{b}) 4 5\n\
             E({p}) X0 Z1\nELSE_CORRELATED_ERROR({p}) X2\n{pairs}\nH 0 1 2 3 4 5\n\
             H 12 13\nM 0 1 2 3 4 5 6 7 8 9 10 11 12 13\n\
             DETECTOR rec[-14]\nDETECTOR rec[-8] rec[-7]\nDETECTOR rec[-5] rec[-1]\n\
             OBSERVABLE_INCLUDE(0) rec[-10] rec[-4] rec[-2]\n"
        );
        Circuit::parse(&text).expect("channel mix parses")
    }

    #[test]
    fn stale_scratch_and_batch_do_not_leak_into_a_draw() {
        // Neither the assignment matrix nor the output batch is zeroed
        // as a whole: every row of `B` and every output window is written
        // in full. Leave both full of another circuit's draw (same `B`
        // shape, so the thread-local scratch is reused as it stands) or
        // of ones, and the draw must equal a fresh one on a fresh thread.
        let target = SymPhaseSampler::new(&channel_mix(0.05));
        let other = SymPhaseSampler::new(&channel_mix(0.9));
        assert_eq!(target.plan.len(), other.plan.len());
        assert_eq!(target.plan.num_coins(), other.plan.num_coins());
        // The channels whose rows are OR-written, so zeroed per site.
        let joint: [fn(&NoiseSite) -> bool; 4] = [
            |s| matches!(s, NoiseSite::Depolarize1(_)),
            |s| matches!(s, NoiseSite::Depolarize2(_)),
            |s| matches!(s, NoiseSite::PauliChannel1 { .. }),
            |s| matches!(s, NoiseSite::PauliChannel2 { .. }),
        ];
        for (i, is_kind) in joint.iter().enumerate() {
            assert!(
                target
                    .plan
                    .sites(target.symbol_table())
                    .any(|(site, _)| is_kind(&site)),
                "joint channel {i} must be drawn whole for the test to cover its rows"
            );
        }
        // `B` keeps its contents only while its width does: `other` ends on
        // a full batch, so `target`'s first batch reuses it; `target`'s
        // own tail is partial, so its output's slack is covered too.
        let shots = 2 * SymPhaseSampler::SHOT_BATCH + 100;
        let shaped = || {
            SampleBatch::zeros(
                target.num_measurements(),
                target.num_detectors(),
                target.num_observables(),
                shots,
            )
        };
        for method in SamplingMethod::ALL {
            let fresh = std::thread::scope(|s| {
                s.spawn(|| {
                    let mut batch = shaped();
                    target.sample_batch_with_method(&mut batch, &mut rng(43), method);
                    batch
                })
                .join()
                .unwrap()
            });
            let stale = std::thread::scope(|s| {
                s.spawn(|| {
                    let mut warm = SampleBatch::zeros(
                        other.num_measurements(),
                        other.num_detectors(),
                        other.num_observables(),
                        2 * SymPhaseSampler::SHOT_BATCH,
                    );
                    other.sample_batch_with_method(&mut warm, &mut rng(44), method);
                    let mut batch = shaped();
                    batch.measurements.words_mut().fill(!0);
                    batch.detectors.words_mut().fill(!0);
                    batch.observables.words_mut().fill(!0);
                    target.sample_batch_with_method(&mut batch, &mut rng(43), method);
                    batch
                })
                .join()
                .unwrap()
            });
            assert_eq!(
                stale.measurements, fresh.measurements,
                "{method:?} measurements"
            );
            assert_eq!(stale.detectors, fresh.detectors, "{method:?} detectors");
            assert_eq!(
                stale.observables, fresh.observables,
                "{method:?} observables"
            );
        }
    }

    #[test]
    fn width_changes_keep_the_scratch_buffers() {
        // A 4,196-shot stream ends on a 100-shot batch; the next call
        // starts on a full one. Neither width change may reallocate `B`
        // or the hybrid coin matrix.
        let s = SymPhaseSampler::new(&channel_mix(0.05));
        let shots = SymPhaseSampler::SHOT_BATCH + 100;
        let buffers = || {
            SAMPLE_SCRATCH.with(|cell| {
                let scratch = cell.borrow();
                [&scratch.assignments, &scratch.coins].map(|m| {
                    let m = m.as_ref().expect("both buffers drawn");
                    // Still holds a full batch after the partial one.
                    let full = m.rows() * SymPhaseSampler::SHOT_BATCH / 64;
                    assert!(m.word_capacity() >= full, "buffer shrank");
                    (m.words().as_ptr(), m.word_capacity())
                })
            })
        };
        let mut seen = None;
        for round in 0..2 {
            for method in [SamplingMethod::SparseRows, SamplingMethod::Hybrid] {
                let mut batch = SampleBatch::zeros(
                    s.num_measurements(),
                    s.num_detectors(),
                    s.num_observables(),
                    shots,
                );
                s.sample_batch_with_method(&mut batch, &mut rng(50 + round), method);
            }
            let now = buffers();
            assert_eq!(*seen.get_or_insert(now), now, "round {round}");
        }
    }

    #[test]
    fn batch_reuse_does_not_mix_draws() {
        // The batch paths overwrite every bit of a reused batch, so its
        // last draw never shows through.
        let c = repetition_code_memory(&RepetitionCodeConfig {
            distance: 3,
            rounds: 2,
            data_error: 0.1,
            measure_error: 0.1,
        });
        let s = SymPhaseSampler::new(&c);
        let mut batch = s.sample_batch(300, &mut rng(41));
        Sampler::sample_into(&s, &mut batch, &mut rng(42));
        assert_eq!(batch, s.sample_batch(300, &mut rng(42)));
    }

    #[test]
    fn noiseless_detectors_never_fire() {
        let c = repetition_code_memory(&RepetitionCodeConfig {
            distance: 5,
            rounds: 4,
            data_error: 0.0,
            measure_error: 0.0,
        });
        let s = SymPhaseSampler::new(&c);
        let batch = s.sample_batch(400, &mut rng(5));
        assert_eq!(batch.detectors.count_ones(), 0);
        assert_eq!(batch.observables.count_ones(), 0);
    }

    #[test]
    fn detector_expressions_contain_no_coins() {
        let c = repetition_code_memory(&RepetitionCodeConfig {
            distance: 3,
            rounds: 3,
            data_error: 0.01,
            measure_error: 0.01,
        });
        let s = SymPhaseSampler::new(&c);
        let coin_ids: std::collections::HashSet<u32> = s
            .symbol_table()
            .groups()
            .filter_map(|g| match g {
                crate::symbol::SymbolGroup::Coin { id } => Some(id),
                _ => None,
            })
            .collect();
        for d in 0..s.num_detectors() {
            let e = s.detector_expr(d);
            assert!(!e.constant_term(), "detector {d} has constant term");
            for &id in e.symbol_ids() {
                assert!(
                    !coin_ids.contains(&id),
                    "detector {d} depends on coin s{id}"
                );
            }
        }
    }

    #[test]
    fn detectors_fire_at_noise_dependent_rate() {
        let p = 0.15;
        let c = repetition_code_memory(&RepetitionCodeConfig {
            distance: 3,
            rounds: 2,
            data_error: p,
            measure_error: 0.0,
        });
        let s = SymPhaseSampler::new(&c);
        let shots = 50_000;
        let batch = s.sample_batch(shots, &mut rng(6));
        // First-round detector d0 = data0 ⊕ data2 flips: fires iff exactly
        // one of the two X faults hit: 2p(1−p).
        let expect = 2.0 * p * (1.0 - p) * shots as f64;
        let fired = (0..shots).filter(|&i| batch.detectors.get(0, i)).count();
        assert!(
            (fired as f64 - expect).abs() < 6.0 * expect.sqrt() + 20.0,
            "detector rate {fired} vs expected {expect}"
        );
    }

    #[test]
    fn x_error_rate_propagates() {
        let mut c = Circuit::new(1);
        c.noise(NoiseChannel::XError(0.1), &[0]);
        c.noise(NoiseChannel::XError(0.1), &[0]);
        c.measure(0);
        let s = SymPhaseSampler::new(&c);
        // Outcome = s1 ⊕ s2: fires with 2·0.1·0.9 = 0.18.
        assert_eq!(s.measurement_expr(0).to_string(), "s1 ⊕ s2");
        let shots = 100_000;
        let out = s.sample(shots, &mut rng(7));
        let ones = (0..shots).filter(|&i| out.get(0, i)).count();
        let expect = 0.18 * shots as f64;
        assert!((ones as f64 - expect).abs() < 6.0 * (expect * 0.82).sqrt());
    }

    /// `Auto`'s pricing before the plan returned its counts, kept as the
    /// reference: every measurement row mapped through the plan, counting
    /// plan columns, then the same costs.
    fn resolve_auto_from_matrix(
        plan: &DrawPlan,
        table: &SymbolTable,
        meas_rows: &SparseRowMatrix,
    ) -> (Vec<u32>, SamplingMethod) {
        let len = plan.len();
        let mut colcount = vec![0u32; len];
        let mut nnz = 0usize;
        for row in plan.map_rows(meas_rows).iter() {
            for &c in row.indices() {
                colcount[c as usize] += 1;
            }
            nnz += row.count_ones();
        }
        let coin_nnz: f64 = colcount[..=plan.num_coins()]
            .iter()
            .map(|&n| f64::from(n))
            .sum();
        let mut flips_per_shot = 0.0;
        plan.for_each_outcome(table, |cols, p| {
            let rows: f64 = cols.iter().map(|&c| f64::from(colcount[c as usize])).sum();
            flips_per_shot += p * rows;
        });
        let hybrid_cost = coin_nnz + FLIP_COST * 64.0 * flips_per_shot;
        let sparse_cost = nnz as f64;
        let dense_cost = 0.5 * (meas_rows.rows() + 512) as f64 * len.div_ceil(8) as f64;
        let (matrix, matrix_cost) = if dense_cost < sparse_cost {
            (SamplingMethod::DenseMatMul, dense_cost)
        } else {
            (SamplingMethod::SparseRows, sparse_cost)
        };
        let method = if hybrid_cost < matrix_cost {
            SamplingMethod::Hybrid
        } else {
            matrix
        };
        (colcount, method)
    }

    /// The circuits of `tests/sampling_methods.rs`: its representative
    /// set, the circuits its `Auto` pins name, and `NOISE7`.
    fn sampling_methods_corpus() -> Vec<Circuit> {
        let parse = |text: &str| Circuit::parse(text).expect("corpus circuit parses");
        let surface = |distance, rounds, data_error, measure_error| {
            surface_code_memory(&SurfaceCodeConfig {
                distance,
                rounds,
                data_error,
                measure_error,
            })
        };
        let repetition = |distance, rounds, data_error, measure_error| {
            repetition_code_memory(&RepetitionCodeConfig {
                distance,
                rounds,
                data_error,
                measure_error,
            })
        };
        vec![
            fig3c(20, 0.01, 5),
            repetition(5, 4, 0.01, 0.005),
            surface(3, 3, 0.002, 0.001),
            parse(
                "X_ERROR(0.7) 0\nDEPOLARIZE2(0.2) 0 1\nPAULI_CHANNEL_1(0.1,0.05,0.2) 2\n\
                 DEPOLARIZE1(0.3) 3\nH 0\nCX 0 1\nM 0 1 2 3\n",
            ),
            parse(
                "RX 0\nPAULI_CHANNEL_2(0,0,0,0.2,0,0,0,0,0,0,0.1,0,0,0,0) 0 1\n\
                 E(0.3) X0 Z1\nELSE_CORRELATED_ERROR(0.5) Y2\nMPP X0*Z1\nMX 0\nMY 2\nM 0 1 2\n",
            ),
            ghz_chain(120, 0.01),
            ghz_chain(200, 0.01),
            repetition(7, 7, 0.001, 0.001),
            parse("X_ERROR(0.25) 0 1\nH 0\nM 0 1\n"),
            ghz_chain(256, 0.001),
            ghz_chain(64, 0.001),
            surface(5, 5, 0.001, 0.001),
            fig3c(32, 0.01, 7),
            channel_mix(0.05),
        ]
    }

    #[test]
    fn plan_counts_price_auto_as_mapping_every_row_did() {
        let mut methods = Vec::new();
        for (i, c) in sampling_methods_corpus().iter().enumerate() {
            let s = SymPhaseSampler::new(c);
            let (plan, counts) = DrawPlan::build(s.symbol_table(), s.measurement_matrix());
            let (reference, method) =
                resolve_auto_from_matrix(&plan, s.symbol_table(), s.measurement_matrix());
            assert_eq!(counts, reference, "circuit {i}: column counts");
            assert_eq!(s.resolved_method(), method, "circuit {i}: Auto");
            methods.push(method);
        }
        // The corpus covers every kernel `Auto` can pick.
        for method in [
            SamplingMethod::Hybrid,
            SamplingMethod::SparseRows,
            SamplingMethod::DenseMatMul,
        ] {
            assert!(methods.contains(&method), "{method:?} never picked");
        }
    }

    #[test]
    fn empty_circuit_samples_empty() {
        let c = Circuit::new(3);
        let s = SymPhaseSampler::new(&c);
        let out = s.sample(10, &mut rng(8));
        assert_eq!(out.rows(), 0);
        assert_eq!(out.cols(), 10);
    }
}
