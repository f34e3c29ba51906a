//! SymPhase: phase symbolization for fast sampling of stabilizer circuits.
//!
//! This crate implements the paper's contribution — **Algorithm 1**. Possible
//! Pauli faults and measurement coins are accumulated as *symbolic
//! expressions* in the phases of the stabilizer tableau while the circuit is
//! traversed **once** (Initialization). Every measurement outcome becomes an
//! XOR expression over bit-symbols, encoded as a bit-vector (paper §3.2.1);
//! drawing `n_smp` samples is then a single F₂ matrix multiplication
//! `M_samples = M · B` (paper Eq. (4), Sampling).
//!
//! The tableau machinery is shared with the concrete simulator through the
//! [`symphase_tableau::PhaseStore`] abstraction; this crate supplies the two
//! symbolic stores (paper Eq. (3)):
//!
//! * [`DensePhases`] — one packed coefficient row per generator;
//! * [`SparsePhases`] — sorted symbol lists per generator, matching the
//!   paper's observation that QEC-style circuits keep phases sparse.
//!
//! Extensions beyond the paper's evaluation (anticipated in its §6):
//! classically-controlled Paulis `X^e` (dynamic circuits, used for `R`/`MR`
//! and feedback), and detector/observable sampling through the same matrix
//! multiplication.
//!
//! # Example
//!
//! ```
//! use symphase_circuit::Circuit;
//! use symphase_core::SymPhaseSampler;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1);
//! c.measure_all();
//! // Initialization: one traversal of the circuit.
//! let sampler = SymPhaseSampler::new(&c);
//! // Sampling: one bit-matrix multiplication for any number of shots.
//! let samples = sampler.sample(1000, &mut StdRng::seed_from_u64(3));
//! for shot in 0..1000 {
//!     assert_eq!(samples.get(0, shot), samples.get(1, shot));
//! }
//! ```

mod dem;
mod engine;
mod expr;
mod phases;
mod sampler;
mod symbol;

pub use dem::{xor_sorted, DemError, DetectorErrorModel};
pub use expr::SymExpr;
pub use phases::{symbol_bound, DensePhases, SparsePhases, SymbolicPhases};
pub use sampler::{PhaseRepr, SampleBatch, SamplingMethod, SymPhaseSampler};
pub use symbol::{SymbolGroup, SymbolId, SymbolTable, MAX_SYMBOLS};
/// The shared batch noise draw ([`NoiseSite`](noise::NoiseSite) is the
/// site type of [`SymbolGroup::site`]).
pub use symphase_backend::noise;
