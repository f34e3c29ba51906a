//! Aaronson–Gottesman stabilizer-tableau simulation, generic over the phase
//! representation.
//!
//! The central type is [`Tableau`], the destabilizer/stabilizer tableau of
//! [Aaronson & Gottesman 2004] with `X`/`Z` bits stored column-major by
//! qubit (so Clifford gates are word-parallel column operations) and phases
//! held behind the [`PhaseStore`] trait.
//!
//! The paper's Fact 2 — *the control flow of the A-G algorithm is
//! independent of the phase values* — is made structural here: the same
//! `Tableau` code runs with
//!
//! * [`ConcretePhases`] (one sign bit per generator) for the classic
//!   simulator ([`TableauSimulator`], [`reference_sample`]), and
//! * the symbolic phase stores of the `symphase-core` crate for Algorithm 1.
//!
//! # Example
//!
//! ```
//! use symphase_circuit::Circuit;
//! use symphase_tableau::TableauSimulator;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1);
//! c.measure_all();
//! let record = TableauSimulator::new(2, StdRng::seed_from_u64(1)).run(&c);
//! assert_eq!(record.get(0), record.get(1)); // Bell pair: outcomes agree
//! ```
//!
//! [Aaronson & Gottesman 2004]: https://doi.org/10.1103/PhysRevA.70.052328

mod pauli;
mod phases;
pub mod record;
mod simulator;
mod tableau;
pub mod verify;

pub use pauli::PauliString;
pub use phases::{add_constant_into_mask, ConcretePhases, PhaseStore};
pub use simulator::{reference_sample, TableauSampler, TableauSimulator};
pub use tableau::{Collapse, Tableau};
