//! Backend construction: every simulation engine behind one fallible
//! factory.
//!
//! The configuration half of this API — [`SimConfig`], [`EngineKind`],
//! [`BuildError`] — lives in `symphase_backend::config` and is re-exported
//! here; this module supplies the construction half, [`build_sampler`],
//! because only the facade crate links every engine.
//!
//! ```
//! use symphase::backend::{build_sampler, EngineKind, SimConfig};
//! use symphase::circuit::generators::ghz;
//! use symphase::prelude::collect;
//!
//! let cfg = SimConfig::new().with_engine(EngineKind::Frame).with_seed(7);
//! let sampler = build_sampler(&ghz(3), &cfg)?;
//! let batch = collect(&*sampler, 100, &cfg);
//! assert_eq!(batch.measurements.rows(), 3);
//! # Ok::<(), symphase::backend::BuildError>(())
//! ```

use std::sync::Arc;

use symphase_backend::Sampler;
use symphase_circuit::Circuit;
use symphase_core::{symbol_bound, SymPhaseSampler, MAX_SYMBOLS};
use symphase_frame::FrameSampler;
use symphase_serve::LintGate;
use symphase_statevec::StateVecSampler;
use symphase_tableau::TableauSampler;

pub use symphase_backend::{BuildError, EngineKind, PhaseRepr, SamplingMethod, SimConfig};

/// Builds the configured engine for `circuit` — **the** sampler
/// constructor.
///
/// Validates the configuration ([`SimConfig::validate`]) and the
/// circuit/engine pairing (the tableau memory budget and the
/// state-vector qubit cap), then runs the engine's initialization: a
/// symbolic traversal for SymPhase (phase store and `M · B` kernel
/// picked per circuit by [`PhaseRepr::Auto`] and [`SamplingMethod::Auto`]),
/// a reference tableau sample for the frame
/// baseline, a circuit copy for the per-shot engines. Every failure mode
/// is a typed [`BuildError`] — this function does not panic.
pub fn build_sampler(
    circuit: &Circuit,
    config: &SimConfig,
) -> Result<Box<dyn Sampler>, BuildError> {
    config.validate()?;
    if config.engine() != EngineKind::StateVec {
        check_tableau_budget(circuit, config.engine())?;
    }
    // With `optimize` set, the engine is built from the optimizer's
    // verified output circuit — by construction bit-identical per seed
    // to sampling that output directly (`tests/opt.rs` pins this).
    let optimized;
    let circuit = if config.optimize() {
        optimized = symphase_analysis::optimize(circuit).circuit;
        &optimized
    } else {
        circuit
    };
    Ok(match config.engine() {
        EngineKind::SymPhase => Box::new(SymPhaseSampler::new(circuit)),
        EngineKind::Frame => Box::new(FrameSampler::new(circuit)),
        EngineKind::Tableau => Box::new(TableauSampler::new(circuit)),
        EngineKind::StateVec => Box::new(StateVecSampler::try_new(circuit)?),
    })
}

/// Refuses `circuit` when the O(n²) stabilizer tableau `engine` would
/// build for it exceeds the 256 MiB budget, before anything
/// allocates it. Every stabilizer engine builds one (the frame engine for
/// its reference sample), and so does every analysis that initializes
/// SymPhase or takes a reference sample: call this first.
///
/// For the `symphase` engine it also refuses a circuit that may allocate
/// more than [`MAX_SYMBOLS`] symbols. That bound comes from the
/// circuit's `REPEAT`-multiplied, saturating statistics, which the parse
/// already computed, so the check allocates nothing.
///
/// # Errors
///
/// [`BuildError::CircuitTooLarge`] or [`BuildError::TooManySymbols`],
/// naming `engine`.
pub fn check_tableau_budget(circuit: &Circuit, engine: EngineKind) -> Result<(), BuildError> {
    let qubits = circuit.num_qubits();
    if tableau_bytes(qubits) > TABLEAU_BUDGET_BYTES {
        return Err(BuildError::CircuitTooLarge {
            engine: engine.name(),
            qubits,
            max_qubits: max_tableau_qubits(),
        });
    }
    if engine == EngineKind::SymPhase {
        let symbols = symbol_bound(&circuit.stats());
        if symbols.is_none_or(|n| n > MAX_SYMBOLS) {
            return Err(BuildError::TooManySymbols {
                engine: engine.name(),
                symbols,
                max_symbols: MAX_SYMBOLS,
            });
        }
    }
    Ok(())
}

/// The admission gate of `symphase serve --lint`: rejects a circuit with
/// lint findings, rendered as text. Linting initializes SymPhase, so a
/// circuit whose tableau is over the budget is not linted but admitted
/// to the factory, which refuses it with the same typed `Build` error as
/// a daemon without the gate — before anything allocates.
pub fn lint_gate() -> LintGate {
    Arc::new(|circuit: &Circuit| {
        if check_tableau_budget(circuit, EngineKind::SymPhase).is_err() {
            return Ok(());
        }
        let diags = symphase_analysis::lint(circuit);
        if diags.is_empty() {
            Ok(())
        } else {
            Err(symphase_analysis::render_text(&diags))
        }
    })
}

/// The memory one engine's stabilizer tableau may take: 256 MiB, about
/// 23k qubits (`docs/performance.md`, "Size limits").
const TABLEAU_BUDGET_BYTES: u64 = 1 << 28;

/// Bytes of an `n`-qubit tableau: X and Z bit columns over `2n + 1` rows.
fn tableau_bytes(n: u32) -> u64 {
    let n = u64::from(n);
    2 * n * (2 * n + 1).div_ceil(64) * 8
}

/// The largest qubit count whose tableau fits [`TABLEAU_BUDGET_BYTES`].
fn max_tableau_qubits() -> u32 {
    let (mut lo, mut hi) = (0u32, 1 << 20);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if tableau_bytes(mid) <= TABLEAU_BUDGET_BYTES {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphase_circuit::generators::ghz;
    use symphase_statevec::MAX_QUBITS;

    #[test]
    fn names_round_trip() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(EngineKind::from_name("bogus"), None);
    }

    #[test]
    fn factory_and_sampler_names_agree() {
        // The trait's `name()` is documented as the CLI `--engine` value:
        // every built backend must report the name it was selected by.
        let c = ghz(2);
        for kind in EngineKind::ALL {
            let s = build_sampler(&c, &SimConfig::new().with_engine(kind)).expect("builds");
            assert_eq!(s.name(), kind.name());
        }
    }

    #[test]
    fn every_backend_builds_and_samples_ghz() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let c = ghz(3);
        for kind in EngineKind::ALL {
            let s = build_sampler(&c, &SimConfig::new().with_engine(kind)).expect("builds");
            let batch = s.sample(200, &mut StdRng::seed_from_u64(1));
            assert_eq!(batch.measurements.rows(), 3);
            for shot in 0..200 {
                let v = batch.measurements.get(0, shot);
                for q in 1..3 {
                    assert_eq!(
                        batch.measurements.get(q, shot),
                        v,
                        "{} shot {shot}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn statevec_cap_reports_a_typed_error() {
        let big = Circuit::new(MAX_QUBITS + 1);
        let cfg = SimConfig::new().with_engine(EngineKind::StateVec);
        let e = build_sampler(&big, &cfg).err().expect("must fail");
        assert_eq!(
            e,
            BuildError::CircuitTooLarge {
                engine: "statevec",
                qubits: MAX_QUBITS + 1,
                max_qubits: MAX_QUBITS,
            }
        );
        assert!(build_sampler(&big, &SimConfig::new().with_engine(EngineKind::Frame)).is_ok());
    }

    #[test]
    fn tableau_budget_reports_a_typed_error() {
        let max = max_tableau_qubits();
        assert!(tableau_bytes(max) <= TABLEAU_BUDGET_BYTES);
        assert!(tableau_bytes(max + 1) > TABLEAU_BUDGET_BYTES);
        let big = Circuit::new(max + 1);
        for kind in [EngineKind::SymPhase, EngineKind::Frame, EngineKind::Tableau] {
            let e = build_sampler(&big, &SimConfig::new().with_engine(kind))
                .err()
                .expect("must fail");
            assert_eq!(
                e,
                BuildError::CircuitTooLarge {
                    engine: kind.name(),
                    qubits: max + 1,
                    max_qubits: max,
                }
            );
        }
    }

    /// The budget's byte formula never undercounts the tableau a build
    /// allocates, at word boundaries of the 2n + 1 rows and at the limit.
    #[test]
    fn tableau_bytes_covers_the_allocated_tableau() {
        use symphase_tableau::{ConcretePhases, Tableau};
        for n in [1u32, 31, 32, 33, 256, 257, 23167] {
            let allocated = Tableau::<ConcretePhases>::xz_bytes(n as usize) as u64;
            assert!(
                tableau_bytes(n) >= allocated,
                "n = {n}: {} < {allocated}",
                tableau_bytes(n)
            );
        }
        assert_eq!(max_tableau_qubits(), 23167);
    }

    #[test]
    fn invalid_configs_fail_before_initialization() {
        let c = ghz(2);
        let cfg = SimConfig::new()
            .with_engine(EngineKind::Tableau)
            .with_chunk_shots(100);
        assert_eq!(
            build_sampler(&c, &cfg).err().expect("must fail"),
            BuildError::InvalidChunkShots { got: 100 }
        );
    }
}
