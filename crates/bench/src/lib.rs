//! Shared workload definitions and timing helpers for the benchmark
//! harness that regenerates every table and figure of the paper.
//!
//! The `experiments` binary builds its circuits through this crate, so
//! every subcommand (`fig3a`, `table1`, `ablation`, …) and the
//! `bench-json` report share one set of definitions. The README section
//! "Reproducing the paper's figures and tables" lists the subcommands;
//! `docs/performance.md` documents the `bench-json` schema.

pub mod json;
pub mod perf;

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use symphase::backend::build_sampler;
pub use symphase::backend::{EngineKind, SimConfig};
use symphase::sampler_api::Sampler;
use symphase_circuit::generators::{
    fig3a_circuit, fig3b_circuit, fig3c_circuit, noisy_ghz_chain, surface_code_memory,
    SurfaceCodeConfig,
};
use symphase_circuit::Circuit;
use symphase_core::{PhaseRepr, SamplingMethod, SymPhaseSampler};

/// Number of samples the paper's Fig. 3 timing uses.
pub const PAPER_SHOTS: usize = 10_000;

/// Depolarizing strength used for the Fig. 3c workload (the paper does not
/// state one; 0.001 is a typical circuit-level rate).
pub const FIG3C_NOISE: f64 = 0.001;

/// Which Fig. 3 workload family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 3a: 5 CNOT pairs per layer (sparse interaction).
    Fig3a,
    /// Fig. 3b: ⌊n/2⌋ CNOT pairs per layer (dense interaction).
    Fig3b,
    /// Fig. 3c: Fig. 3b plus per-qubit depolarizing each layer.
    Fig3c,
}

impl Workload {
    /// Builds the circuit for `n` qubits (and `n` layers).
    pub fn circuit(self, n: usize, seed: u64) -> Circuit {
        match self {
            Workload::Fig3a => fig3a_circuit(n, seed),
            Workload::Fig3b => fig3b_circuit(n, seed),
            Workload::Fig3c => fig3c_circuit(n, FIG3C_NOISE, seed),
        }
    }

    /// The phase representation each workload runs best with (the paper's
    /// conclusion anticipates picking the representation per circuit):
    /// sparse for the sparse-interaction family, dense otherwise.
    pub fn phase_repr(self) -> PhaseRepr {
        match self {
            Workload::Fig3a => PhaseRepr::Sparse,
            Workload::Fig3b | Workload::Fig3c => PhaseRepr::Dense,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3a => "fig3a",
            Workload::Fig3b => "fig3b",
            Workload::Fig3c => "fig3c",
        }
    }
}

/// Init time and batch-sampling time of one backend on one circuit, both
/// measured through the shared `Sampler` trait.
#[derive(Clone, Copy, Debug)]
pub struct BackendTiming {
    /// Backend label ([`EngineKind::name`]).
    pub label: &'static str,
    /// Time to build the sampler (the engine's initialization).
    pub init: Duration,
    /// Time to generate the shot batch.
    pub sample: Duration,
}

/// Times `kind` on `circuit`, built through the configured factory:
/// build, then draw `shots` from `seed`.
pub fn time_backend(kind: EngineKind, circuit: &Circuit, shots: usize, seed: u64) -> BackendTiming {
    time_sampler(
        kind.name(),
        || {
            build_sampler(circuit, &SimConfig::new().with_engine(kind))
                .expect("bench backend builds")
        },
        shots,
        seed,
    )
}

/// Times `build` (the engine's initialization), then draws `shots` from
/// `seed` through the shared `Sampler` trait.
fn time_sampler(
    label: &'static str,
    build: impl FnOnce() -> Box<dyn Sampler>,
    shots: usize,
    seed: u64,
) -> BackendTiming {
    let t = Instant::now();
    let sampler = build();
    let init = t.elapsed();
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Instant::now();
    let batch = sampler.sample(shots, &mut rng);
    let sample = t.elapsed();
    std::hint::black_box(batch.measurements.count_ones());
    BackendTiming {
        label,
        init,
        sample,
    }
}

/// One measured data point of a Fig. 3 style comparison.
#[derive(Clone, Copy, Debug)]
pub struct FigPoint {
    /// Qubit (= layer) count.
    pub n: usize,
    /// Time to build the SymPhase sampler (Initialization).
    pub symphase_init: Duration,
    /// Time for SymPhase to generate the sample batch.
    pub symphase_sample: Duration,
    /// Time to build the frame sampler (reference sample).
    pub frame_init: Duration,
    /// Time for the frame baseline to generate the sample batch.
    pub frame_sample: Duration,
}

/// Measures one point of a Fig. 3 comparison (both engines through the
/// shared [`Sampler`] trait; SymPhase on the phase store the workload
/// wins with, [`Workload::phase_repr`]).
pub fn measure_fig3_point(workload: Workload, n: usize, shots: usize) -> FigPoint {
    let circuit = workload.circuit(n, 0xF16_3000 + n as u64);
    let sym = time_sampler(
        "symphase",
        || Box::new(SymPhaseSampler::with_repr(&circuit, workload.phase_repr())),
        shots,
        1,
    );
    let frame = time_backend(EngineKind::Frame, &circuit, shots, 2);
    FigPoint {
        n,
        symphase_init: sym.init,
        symphase_sample: sym.sample,
        frame_init: frame.init,
        frame_sample: frame.sample,
    }
}

/// The Table 1 scaling workload: a fixed measurement/noise skeleton with a
/// variable number of *extra* gate layers appended, so `n_g` sweeps while
/// `n_m` and `n_p` stay fixed.
pub fn table1_circuit(n: usize, extra_gate_layers: usize, seed: u64) -> Circuit {
    use rand::seq::SliceRandom;
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n as u32);
    let mut idx: Vec<u32> = (0..n as u32).collect();
    let layer = |c: &mut Circuit, rng: &mut StdRng, idx: &mut Vec<u32>| {
        for q in 0..n as u32 {
            if rng.random_bool(0.5) {
                c.h(q);
            } else {
                c.s(q);
            }
        }
        idx.shuffle(rng);
        c.gate(symphase_circuit::Gate::Cx, &idx[..(n / 2) * 2]);
    };
    // Skeleton: a few entangling layers, noise sites, and measurements.
    for _ in 0..4 {
        layer(&mut c, &mut rng, &mut idx);
        c.noise(symphase_circuit::NoiseChannel::XError(0.01), &[0]);
        let q = rng.random_range(0..n as u32);
        c.measure(q);
    }
    // Extra gate-only layers: these change n_g but not n_m or n_p.
    for _ in 0..extra_gate_layers {
        layer(&mut c, &mut rng, &mut idx);
    }
    c.measure_all();
    c
}

/// Formats a [`Duration`] in seconds with 4 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// The deep-memory workload of the structured-`REPEAT` scale experiment:
/// a distance-3 surface-code memory with measurement noise only. Keeping
/// the data qubits noiseless keeps every measurement expression O(1), so
/// the series isolates the cost of the streaming traversal itself —
/// accumulating data noise grows the symbolic expressions linearly with
/// depth, which is a property of phase symbolization, not of the
/// traversal. The generator emits the rounds as one `REPEAT` block, so
/// the circuit (and its text form) is O(one round) however deep the run.
pub fn deep_memory_circuit(rounds: usize) -> Circuit {
    surface_code_memory(&SurfaceCodeConfig {
        distance: 3,
        rounds,
        data_error: 0.0,
        measure_error: 0.001,
    })
}

/// One point of the deep-memory scale series: text→IR parse time (O(file)
/// with the structured parser), streaming symbolic initialization, and
/// batch sampling.
#[derive(Clone, Copy, Debug)]
pub struct ScalePoint {
    /// Stabilizer measurement rounds.
    pub rounds: usize,
    /// Text → structured IR.
    pub parse: Duration,
    /// Symbolic initialization (one streamed traversal).
    pub init: Duration,
    /// Time to draw the shot batch.
    pub sample: Duration,
}

/// Measures one deep-memory point end to end: generate, round-trip
/// through the text format, initialize, sample.
pub fn measure_scale_point(rounds: usize, shots: usize) -> ScalePoint {
    let text = deep_memory_circuit(rounds).to_string();
    let t = Instant::now();
    let circuit = Circuit::parse(&text).expect("generator output parses");
    let parse = t.elapsed();
    let t = Instant::now();
    let sampler = SymPhaseSampler::new(&circuit);
    let init = t.elapsed();
    let mut rng = StdRng::seed_from_u64(11);
    let t = Instant::now();
    let batch = sampler.sample_batch(shots, &mut rng);
    let sample = t.elapsed();
    std::hint::black_box(batch.detectors.count_ones());
    ScalePoint {
        rounds,
        parse,
        init,
        sample,
    }
}

/// The circuit families of the sampling-kernel ablation: a surface-code
/// memory (sparse measurement rows, rare faults), a noisy random-layered
/// circuit (the paper's Fig. 3c picture — random outcomes keep `M`
/// sparse, so this exercises the blocked kernel's adaptive fallback), and
/// a noisy GHZ chain (determined outcomes make `M` triangular-dense — the
/// workload the blocked kernel exists for).
pub fn sampling_ablation_circuits(n: usize) -> Vec<(&'static str, Circuit)> {
    vec![
        (
            "surface_d5",
            surface_code_memory(&SurfaceCodeConfig {
                distance: 5,
                rounds: 5,
                data_error: 0.001,
                measure_error: 0.001,
            }),
        ),
        ("random_layered", fig3c_circuit(n, FIG3C_NOISE, 7)),
        ("ghz_chain", noisy_ghz_chain(16 * n.max(4) as u32, 0.01)),
    ]
}

/// One measured cell of the sampling ablation matrix.
#[derive(Clone, Debug)]
pub struct SamplingAblationRow {
    /// Circuit family label.
    pub circuit: &'static str,
    /// Kernel / method label.
    pub kernel: &'static str,
    /// Wall-clock time for `shots` samples.
    pub time: Duration,
}

/// Times the sampling kernels on both ablation circuits: the naive
/// row-gather dense product vs the blocked Four-Russians kernel on the
/// *same* densified measurement matrix and assignment batch
/// (bit-identical outputs, asserted), plus each end-to-end
/// [`SamplingMethod`]. Returns one row per (circuit, kernel) cell.
pub fn ablation_sampling_matrix(n: usize, shots: usize, seed: u64) -> Vec<SamplingAblationRow> {
    let mut rows = Vec::new();
    for (name, circuit) in sampling_ablation_circuits(n) {
        let sampler = SymPhaseSampler::new(&circuit);
        let dense = sampler.measurement_matrix().to_dense();
        let b = sampler
            .symbol_table()
            .sample_assignments(shots, &mut StdRng::seed_from_u64(seed));

        let t = Instant::now();
        let naive = dense.mul(&b);
        let naive_time = t.elapsed();
        std::hint::black_box(naive.count_ones());

        let t = Instant::now();
        let blocked = dense.mul_blocked(&b);
        let blocked_time = t.elapsed();
        std::hint::black_box(blocked.count_ones());
        assert_eq!(naive, blocked, "blocked kernel diverged on {name}");

        rows.push(SamplingAblationRow {
            circuit: name,
            kernel: "mul_naive",
            time: naive_time,
        });
        rows.push(SamplingAblationRow {
            circuit: name,
            kernel: "mul_blocked",
            time: blocked_time,
        });

        // Warm every lazily-built structure outside the timed region:
        // the densified matrices and the hybrid event index.
        let _ = sampler.sample_with_method(
            64,
            &mut StdRng::seed_from_u64(0),
            SamplingMethod::DenseMatMul,
        );
        let _ =
            sampler.sample_with_method(64, &mut StdRng::seed_from_u64(0), SamplingMethod::Hybrid);
        for method in SamplingMethod::ALL {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5A);
            let t = Instant::now();
            let out = sampler.sample_with_method(shots, &mut rng, method);
            let time = t.elapsed();
            std::hint::black_box(out.count_ones());
            rows.push(SamplingAblationRow {
                circuit: name,
                kernel: method.name(),
                time,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build() {
        for w in [Workload::Fig3a, Workload::Fig3b, Workload::Fig3c] {
            let c = w.circuit(16, 1);
            assert_eq!(c.num_qubits(), 16);
            assert!(c.num_measurements() > 16);
        }
    }

    #[test]
    fn table1_circuit_scales_gates_only() {
        let a = table1_circuit(16, 0, 3);
        let b = table1_circuit(16, 10, 3);
        assert!(b.stats().gates > a.stats().gates + 100);
        assert_eq!(a.stats().measurements, b.stats().measurements);
        assert_eq!(a.stats().noise_symbols, b.stats().noise_symbols);
    }

    #[test]
    fn measure_point_runs() {
        let p = measure_fig3_point(Workload::Fig3a, 16, 100);
        assert_eq!(p.n, 16);
    }

    #[test]
    fn scale_point_runs_structured() {
        let c = deep_memory_circuit(500);
        // The deep workload is structured: O(one round) instructions.
        assert!(c.instructions().len() < 60);
        assert_eq!(c.num_measurements(), 8 * 500 + 9);
        let p = measure_scale_point(500, 64);
        assert_eq!(p.rounds, 500);
    }

    #[test]
    fn all_backend_choices_sample_through_the_trait() {
        let c = Workload::Fig3a.circuit(8, 2);
        for kind in [EngineKind::SymPhase, EngineKind::Frame, EngineKind::Tableau] {
            let t = time_backend(kind, &c, 64, 3);
            assert_eq!(t.label, kind.name());
        }
    }

    /// Nightly-free smoke bench: exercises the full sampling ablation
    /// matrix at a toy size (it asserts naive == blocked internally).
    /// Run explicitly with:
    /// `cargo test -p symphase-bench --release -- --ignored smoke`
    #[test]
    #[ignore = "smoke bench; run with -- --ignored"]
    fn smoke_ablation_sampling() {
        let rows = ablation_sampling_matrix(32, 4096, 9);
        // 3 circuits × (2 kernels + 4 methods).
        assert_eq!(rows.len(), 18);
        for row in &rows {
            println!("{:<14} {:<12} {}s", row.circuit, row.kernel, secs(row.time));
        }
    }
}
