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
    fig3a_circuit, fig3b_circuit, fig3c_circuit, noisy_ghz_chain, repetition_code_memory,
    surface_code_memory, RepetitionCodeConfig, SurfaceCodeConfig,
};
use symphase_circuit::Circuit;
use symphase_core::{PhaseRepr, SampleBatch, SamplingMethod, SymPhaseSampler};

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

/// The `M·B` kernel grid `experiments sampling` times (the table in
/// `docs/performance.md`, "Choosing the `M·B` kernel"): the shapes of `M`
/// the [`SamplingMethod::Auto`] cost model must read right. Noisy GHZ
/// chains have triangular-dense rows, surface and repetition memories have
/// sparse rows and rare faults, and the paper's Fig. 3 random circuits
/// (seed 7) mix coins and faults.
pub fn sampling_grid() -> Vec<(String, Circuit)> {
    const P: [f64; 4] = [1e-4, 1e-3, 1e-2, 1e-1];
    let mut grid = Vec::new();
    for n in [64, 256, 1024] {
        for p in P {
            grid.push((format!("ghz n={n} p={p}"), noisy_ghz_chain(n, p)));
        }
    }
    for (distance, rounds) in [(3, 3), (5, 5), (5, 25), (9, 9)] {
        for p in P {
            let c = surface_code_memory(&SurfaceCodeConfig {
                distance,
                rounds,
                data_error: p,
                measure_error: p,
            });
            grid.push((format!("surface d={distance} r={rounds} p={p}"), c));
        }
    }
    for (distance, rounds) in [(9, 9), (25, 25)] {
        for p in P {
            let c = repetition_code_memory(&RepetitionCodeConfig {
                distance,
                rounds,
                data_error: p,
                measure_error: p,
            });
            grid.push((format!("repetition d={distance} r={rounds} p={p}"), c));
        }
    }
    for n in [64, 128, 256] {
        grid.push((format!("fig3a n={n}"), fig3a_circuit(n, 7)));
    }
    for n in [64, 128, 256] {
        grid.push((format!("fig3b n={n}"), fig3b_circuit(n, 7)));
    }
    for n in [64, 128, 256] {
        for p in [1e-4, 1e-3, 1e-2] {
            grid.push((format!("fig3c n={n} p={p}"), fig3c_circuit(n, p, 7)));
        }
    }
    grid
}

/// One circuit of the sampling ablation: what `Auto` resolved to and
/// every method's timing spread.
#[derive(Clone, Debug)]
pub struct SamplingAblationRow {
    /// Circuit label.
    pub circuit: String,
    /// What [`SamplingMethod::Auto`] resolves to on this circuit.
    pub pick: SamplingMethod,
    /// Per method of [`SamplingMethod::ALL`] (`Auto` first): the lower
    /// quartile, median and upper quartile of its timings.
    pub times: Vec<[Duration; 3]>,
}

impl SamplingAblationRow {
    /// `Auto`'s median over the best pinned method's median.
    pub fn auto_ratio(&self) -> f64 {
        let best = self.times[1..].iter().map(|t| t[1]).min().expect("pinned");
        self.times[0][1].as_secs_f64() / best.as_secs_f64().max(1e-12)
    }
}

/// Times every [`SamplingMethod`] on each of `circuits`: `shots`-shot
/// `sample_batch_with_method` calls (measurements, detectors and
/// observables from one draw, as streaming runs them), `rounds ≥ 1`
/// interleaved rounds after one untimed warm-up call per method, so
/// neither a lazily built matrix nor a cold scratch lands in a timing.
pub fn ablation_sampling_matrix(
    circuits: Vec<(String, Circuit)>,
    shots: usize,
    rounds: usize,
    seed: u64,
) -> Vec<SamplingAblationRow> {
    let methods = SamplingMethod::ALL;
    let mut rows = Vec::new();
    for (circuit, c) in circuits {
        let sampler = SymPhaseSampler::new(&c);
        let mut batch = SampleBatch::zeros(
            sampler.num_measurements(),
            sampler.num_detectors(),
            sampler.num_observables(),
            shots,
        );
        let mut times = vec![Vec::with_capacity(rounds); methods.len()];
        // Round 0 is the warm-up.
        for round in 0..=rounds {
            for (slot, &method) in times.iter_mut().zip(&methods) {
                let rng = &mut StdRng::seed_from_u64(seed);
                let t = Instant::now();
                sampler.sample_batch_with_method(std::hint::black_box(&mut batch), rng, method);
                if round > 0 {
                    slot.push(t.elapsed());
                }
            }
        }
        let q = |mut t: Vec<Duration>| {
            t.sort();
            [
                t[(rounds - 1) / 4],
                t[(rounds - 1) / 2],
                t[3 * (rounds - 1) / 4],
            ]
        };
        rows.push(SamplingAblationRow {
            circuit,
            pick: sampler.resolved_method(),
            times: times.into_iter().map(q).collect(),
        });
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

    /// Nightly-free smoke bench: runs the sampling ablation's timing loop
    /// on the three small ablation circuits.
    /// Run explicitly with:
    /// `cargo test -p symphase-bench --release -- --ignored smoke`
    #[test]
    #[ignore = "smoke bench; run with -- --ignored"]
    fn smoke_ablation_sampling() {
        let circuits = sampling_ablation_circuits(16)
            .into_iter()
            .map(|(name, c)| (name.to_owned(), c))
            .collect();
        let rows = ablation_sampling_matrix(circuits, 4096, 3, 9);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.times.len(), SamplingMethod::ALL.len());
            assert_ne!(row.pick, SamplingMethod::Auto);
            println!("{:<14} {:?} {:.2}", row.circuit, row.pick, row.auto_ratio());
        }
    }
}
