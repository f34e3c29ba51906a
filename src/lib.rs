//! SymPhase: phase symbolization for fast simulation of stabilizer circuits.
//!
//! A Rust reproduction of *"SymPhase: Phase Symbolization for Fast
//! Simulation of Stabilizer Circuits"* (Fang & Ying, DAC 2024,
//! arXiv:2311.03906). This facade crate re-exports the whole workspace:
//!
//! | Module | Contents |
//! |---|---|
//! | [`circuit`] | Circuit IR, Stim-like text format, workload generators |
//! | [`analysis`] | `symphase lint`: tableau-dataflow dead-code analysis, symbolic constant detection, structural lints |
//! | [`sampler_api`] | The shared backend layer: `Sampler` trait, `SampleBatch`, `SimConfig`, `ShotSink` streaming, output formats |
//! | [`backend`] | Backend construction: `build_sampler` turns a `SimConfig` into any engine as a `Box<dyn Sampler>` |
//! | [`core`] | **Algorithm 1**: the SymPhase sampler (symbolic phases) |
//! | [`frame`] | Stim-style Pauli-frame baseline sampler |
//! | [`tableau`] | Aaronson–Gottesman tableau simulator & reference samples |
//! | [`statevec`] | Dense ground-truth simulator for validation |
//! | [`bitmat`] | Packed F₂ linear algebra and the Fig. 2 tableau layouts |
//! | [`serve`] | `symphase serve`/`request`: the sampling daemon — SPH1 wire protocol, content-hash circuit cache, shot-range sharding, BUSY backpressure |
//!
//! # Quickstart
//!
//! The configured path: describe the run with a [`backend::SimConfig`],
//! build any engine fallibly with [`backend::build_sampler`], and stream
//! shots to a [`sampler_api::ShotSink`] — memory stays `O(chunk)` however
//! many shots you draw.
//!
//! ```
//! use symphase::prelude::*;
//!
//! // A noisy GHZ circuit in the Stim-like text format.
//! let circuit = Circuit::parse(
//!     "H 0\nCX 0 1\nCX 1 2\nX_ERROR(0.1) 0 1 2\nM 0 1 2\n",
//! )?;
//!
//! // Initialization: one traversal; Sampling: a per-chunk F₂ product.
//! let cfg = SimConfig::new().with_seed(42);
//! let sampler = build_sampler(&circuit, &cfg)?;
//!
//! // Stream 10k shots as packed binary into any io::Write.
//! let mut bytes = Vec::new();
//! let mut sink = SampleFormat::B8.sink(&mut bytes, RecordSource::Measurements);
//! stream_with_config(&*sampler, 10_000, &cfg, &mut *sink)?;
//! drop(sink);
//! assert_eq!(bytes.len(), 10_000); // 3 measurements pack into 1 byte/shot
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod backend;
pub mod cli;

pub use symphase_analysis as analysis;
pub use symphase_backend as sampler_api;
pub use symphase_bitmat as bitmat;
pub use symphase_circuit as circuit;
pub use symphase_core as core;
pub use symphase_frame as frame;
pub use symphase_serve as serve;
pub use symphase_statevec as statevec;
pub use symphase_tableau as tableau;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::backend::build_sampler;
    pub use symphase_backend::formats::{RecordSource, SampleFormat};
    pub use symphase_backend::{
        collect, stream_range_with_config, stream_with_config, BuildError, CollectSink, EngineKind,
        PhaseRepr, SampleBatch, Sampler, SamplingMethod, ShotSink, ShotSpec, SimConfig,
    };
    pub use symphase_bitmat::{BitMatrix, BitVec};
    pub use symphase_circuit::{Circuit, Gate, Instruction, NoiseChannel, PauliKind};
    pub use symphase_core::{SymExpr, SymPhaseSampler, SymbolicRecords};
    pub use symphase_frame::FrameSampler;
    pub use symphase_statevec::StateVecSampler;
    pub use symphase_tableau::{reference_sample, TableauSampler, TableauSimulator};
}
