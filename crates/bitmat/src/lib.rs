//! Packed linear algebra over the two-element field F₂.
//!
//! This crate is the bit-manipulation substrate of the SymPhase reproduction.
//! It provides the containers and kernels that the stabilizer-tableau
//! simulators ([`symphase-tableau`], [`symphase-core`]) and the Pauli-frame
//! baseline ([`symphase-frame`]) are built on:
//!
//! * [`BitVec`] — a growable, 64-bit packed bit-vector.
//! * [`BitMatrix`] — a dense row-major bit-matrix with F₂ multiplication,
//!   word-blocked transposition and Gaussian elimination.
//! * [`SparseBitVec`] — a sorted sparse bit-vector with merge-XOR, used for
//!   sparse symbolic phases and the paper's sparse sampling multiplication.
//! * [`m4r`] — the blocked F₂ multiplication kernel (Method of Four
//!   Russians with cache-sized shot tiles) behind
//!   [`BitMatrix::mul_blocked`].
//! * [`bernoulli`] — block generation of biased random bits (noise symbol
//!   assignments; paper §3.1).
//! * [`layout`] — the three stabilizer-tableau memory layouts compared in
//!   Fig. 2 of the paper (`chp.c` row-major, Stim 8×8 blocks, SymPhase
//!   512×512 blocks with local transposition).
//! * [`simd`] — the runtime-dispatched AVX2/AVX-512 kernel layer every
//!   hot loop above routes through (scalar fallback always available,
//!   `SYMPHASE_SIMD` env override, bit-identical across levels).
//!
//! # Example
//!
//! ```
//! use symphase_bitmat::{BitMatrix, BitVec};
//!
//! // Multiplying a measurement matrix by a batch of symbol assignments
//! // (paper Eq. (4)) is a plain F₂ matrix product.
//! let mut m = BitMatrix::zeros(2, 3);
//! m.set(0, 0, true); // m₁ = s₀
//! m.set(1, 0, true);
//! m.set(1, 2, true); // m₂ = s₀ ⊕ s₂
//! let mut b = BitMatrix::zeros(3, 64);
//! b.row_mut(2).iter_mut().for_each(|w| *w = !0); // s₂ = 1 in every shot
//! let samples = m.mul(&b);
//! assert!(!samples.get(0, 17)); // m₁ never flips
//! assert!(samples.get(1, 17)); // m₂ flips in every shot
//! # let _ = BitVec::zeros(4);
//! ```
//!
//! [`symphase-tableau`]: https://github.com/symphase-repro/symphase
//! [`symphase-core`]: https://github.com/symphase-repro/symphase
//! [`symphase-frame`]: https://github.com/symphase-repro/symphase

// Every `unsafe fn` in this crate must open its own `unsafe {}` block
// with a `// SAFETY:` justification — an unsafe signature alone does not
// license unsafe operations. CI greps for undocumented blocks.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bernoulli;
mod bitmatrix;
mod bitvec;
pub mod gauss;
pub mod layout;
pub mod m4r;
pub mod simd;
mod sparse;
pub mod transpose;
pub mod word;

pub use bitmatrix::BitMatrix;
pub use bitvec::BitVec;
pub use m4r::M4rScratch;
pub use sparse::{SparseBitVec, SparseColumns, SparseRowMatrix};
pub use word::{words_for, Word, WORD_BITS};
