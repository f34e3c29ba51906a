//! Simulation configuration: engine selection, per-engine knobs, and the
//! fallible construction contract.
//!
//! This module is the data half of the sampler-construction API. A
//! [`SimConfig`] names an engine ([`EngineKind`]) plus every tuning knob
//! the workspace exposes — RNG seed, thread budget, streaming chunk width
//! and the pre-simulation optimizer — and validates the combination up
//! front, reporting problems as a [`BuildError`] instead of panicking
//! deep inside an engine. The construction half, `symphase::backend::build_sampler`,
//! lives in the facade crate (it must link every engine); everything a
//! caller writes *before* touching a circuit is here.

use symphase_circuit::Circuit;

use crate::CHUNK_SHOTS;

/// Which symbolic phase store Initialization uses (paper Eq. (3) dense
/// bit-matrix vs sparse rows). The `symphase` engine always builds with
/// [`PhaseRepr::Auto`]; the pinned stores are reachable only through
/// `SymPhaseSampler::with_repr` (in `symphase-core`), for the phase-store
/// half of `experiments ablation` (see the README's "Reproducing the
/// paper's figures and tables").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PhaseRepr {
    /// Choose per circuit (the paper's conclusion suggests "dynamically
    /// determining the layout based on the type/pattern of the circuit"):
    /// heavily-interacting noisy circuits mix phases until sparse rows
    /// degenerate, so pick [`PhaseRepr::Dense`] when the expected symbol
    /// density is high and [`PhaseRepr::Sparse`] otherwise.
    #[default]
    Auto,
    /// Sorted symbol lists per tableau row (best for QEC-style circuits,
    /// where each generator carries few symbols).
    Sparse,
    /// Packed coefficient bit-rows (the paper's dense picture; best for
    /// dense random circuits with pervasive noise).
    Dense,
}

impl PhaseRepr {
    /// Resolves `Auto` against a circuit's statistics.
    ///
    /// Heuristic: the sparse store wins while expressions stay short. Long
    /// expressions come from deep mixing of *noise* symbols: every random
    /// measurement contributes exactly one coin, so coins cannot tell
    /// circuits apart and are excluded from the ratio. The crossover is
    /// pinned at 8 noise symbols per measurement — a noiseless circuit
    /// scores 0 and always takes the sparse store, however many
    /// measurements it records. (`tests/phase_repr.rs` pins the crossover
    /// on representative circuits.)
    pub fn resolve(self, circuit: &Circuit) -> PhaseRepr {
        match self {
            PhaseRepr::Auto => {
                let s = circuit.stats();
                let per_meas = s.noise_symbols as f64 / s.measurements.max(1) as f64;
                if per_meas > 8.0 {
                    PhaseRepr::Dense
                } else {
                    PhaseRepr::Sparse
                }
            }
            other => other,
        }
    }
}

/// How the Sampling step multiplies `M · B`. The `symphase` engine always
/// samples with [`SamplingMethod::Auto`], which picks the kernel from the
/// measurement matrix Initialization built; the pinned kernels are
/// reachable only through `SymPhaseSampler::with_config` (in
/// `symphase-core`), for the sampling ablation (`experiments sampling`;
/// the grid in `docs/performance.md`, "Choosing the `M·B` kernel") and
/// the byte-identity tests.
///
/// Every strategy consumes the RNG stream identically (they all draw the
/// same assignment matrix `B`, unit by unit of the sampler's draw plan),
/// so for a fixed seed all
/// methods — including the one [`SamplingMethod::Auto`] picks — produce
/// **bit-identical** samples; only the kernel computing `M · B` differs.
/// `tests/sampling_methods.rs` pins this equality.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SamplingMethod {
    /// Choose per circuit (mirroring [`PhaseRepr::Auto`]): a cost model
    /// prices each kernel on the measurement matrix Initialization built
    /// and takes the cheapest. Dense rows — determined outcomes
    /// downstream of noise and entanglement — go to the blocked
    /// [`SamplingMethod::DenseMatMul`] kernel, rare faults to the
    /// event-driven [`SamplingMethod::Hybrid`], and the rest to
    /// [`SamplingMethod::SparseRows`]; see
    /// `SymPhaseSampler::resolved_method` (in `symphase-core`).
    #[default]
    Auto,
    /// Coins (fair measurement randomness) are multiplied densely — they
    /// fire every shot — while fault symbols are handled *event-wise*:
    /// for each fired noise site the affected measurement bits are flipped
    /// through a symbol → measurements index. For realistic fault rates
    /// almost no sites fire, so the noise cost is proportional to the
    /// number of actual fault events, the strongest form of the paper's
    /// column-sparsity argument (Table 1's `O(n_smp · n_m)` sparse case).
    Hybrid,
    /// Per-measurement XOR of the symbol shot-rows selected by the sparse
    /// measurement row — the paper's "sparse implementation of matrix
    /// multiplication" (§5).
    SparseRows,
    /// Dense F₂ matrix product against the densified measurement matrix,
    /// computed with the blocked Four-Russians kernel
    /// ([`symphase_bitmat::m4r`]): 8-bit Gray-code XOR tables over row
    /// groups, tiled over the shot dimension, with scratch buffers reused
    /// across shot batches.
    DenseMatMul,
}

impl SamplingMethod {
    /// Short name (the `experiments sampling` column label).
    pub fn name(self) -> &'static str {
        match self {
            SamplingMethod::Auto => "auto",
            SamplingMethod::Hybrid => "hybrid",
            SamplingMethod::SparseRows => "sparse",
            SamplingMethod::DenseMatMul => "dense",
        }
    }

    /// Every method, in documentation order.
    pub const ALL: [SamplingMethod; 4] = [
        SamplingMethod::Auto,
        SamplingMethod::Hybrid,
        SamplingMethod::SparseRows,
        SamplingMethod::DenseMatMul,
    ];
}

/// The selectable simulation engines.
///
/// This is pure selection data — names, parsing, capability flags. The
/// factory turning an `EngineKind` into a live `Box<dyn Sampler>` is
/// `symphase::backend::build_sampler` in the facade crate, which is the
/// only layer that links every engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// SymPhase (Algorithm 1); [`PhaseRepr::Auto`] picks the phase store
    /// per circuit.
    SymPhase,
    /// Stim-style Pauli-frame batch propagation.
    Frame,
    /// Per-shot concrete Aaronson–Gottesman tableau trajectories.
    Tableau,
    /// Per-shot dense state-vector trajectories (small circuits only).
    StateVec,
}

impl EngineKind {
    /// Every engine, in documentation order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::SymPhase,
        EngineKind::Frame,
        EngineKind::Tableau,
        EngineKind::StateVec,
    ];

    /// The CLI name (`--engine` value).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::SymPhase => "symphase",
            EngineKind::Frame => "frame",
            EngineKind::Tableau => "tableau",
            EngineKind::StateVec => "statevec",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<EngineKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Everything needed to build and drive a sampler, with validation up
/// front: engine, seed, thread budget, streaming chunk width, and the
/// optimizer switch. The phase store and the `M · B` kernel are not
/// knobs: the `symphase` engine picks both per circuit
/// ([`PhaseRepr::Auto`], [`SamplingMethod::Auto`]).
///
/// `SimConfig` is a by-value builder — start from [`SimConfig::new`] (or
/// `Default`) and chain `with_*` setters:
///
/// ```
/// use symphase_backend::{EngineKind, SimConfig};
///
/// let cfg = SimConfig::new()
///     .with_engine(EngineKind::SymPhase)
///     .with_seed(42)
///     .with_threads(4);
/// assert!(cfg.validate().is_ok());
/// ```
///
/// Validation ([`SimConfig::validate`]) rejects contradictory requests —
/// a chunk width that breaks word alignment — as typed [`BuildError`]s. The factory
/// (`symphase::backend::build_sampler`) validates again, so a config that
/// skipped `validate` still cannot build a broken sampler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimConfig {
    engine: EngineKind,
    seed: u64,
    threads: usize,
    chunk_shots: usize,
    optimize: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            engine: EngineKind::SymPhase,
            seed: 0,
            threads: 1,
            chunk_shots: CHUNK_SHOTS,
            optimize: false,
        }
    }
}

impl SimConfig {
    /// The default configuration: the `symphase` engine with automatic
    /// phase store and sampling method, seed 0, serial sampling, and the
    /// standard [`CHUNK_SHOTS`] chunk width.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the engine by CLI name, failing with
    /// [`BuildError::UnknownEngine`] on an unrecognized name.
    pub fn with_engine_name(self, name: &str) -> Result<Self, BuildError> {
        match EngineKind::from_name(name) {
            Some(engine) => Ok(self.with_engine(engine)),
            None => Err(BuildError::UnknownEngine { name: name.into() }),
        }
    }

    /// Sets the RNG seed of the chunk-seeding schedule.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the thread budget: `1` samples serially, `0` means "use every
    /// available core", anything else caps the fan-out. Whatever the
    /// budget, outputs stay bit-identical for equal seeds.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the streaming chunk width in shots. Must be a nonzero
    /// multiple of 64 (chunk boundaries stay word-aligned in the
    /// bit-packed output); violations surface as
    /// [`BuildError::InvalidChunkShots`] from [`SimConfig::validate`].
    ///
    /// Every sampling call honors the width: they all run one chunk
    /// loop, [`crate::stream_range_with_config`]. Changing the chunk
    /// width changes the chunk-seeding schedule, so outputs are only
    /// comparable between runs using the same width.
    pub fn with_chunk_shots(mut self, chunk_shots: usize) -> Self {
        self.chunk_shots = chunk_shots;
        self
    }

    /// Enables (or disables) the verified pre-simulation optimizer: when
    /// set, the factory (`symphase::backend::build_sampler`) runs
    /// `analysis::optimize` on the circuit *before* symbolic
    /// initialization and builds the engine from the optimized circuit.
    /// Sampling is then bit-identical per seed to sampling the
    /// optimizer's output circuit directly; raw measurement records may
    /// differ from the unoptimized circuit at the optimizer's reported
    /// sign-flipped positions (detector and observable semantics are
    /// preserved exactly).
    pub fn with_optimize(mut self, optimize: bool) -> Self {
        self.optimize = optimize;
        self
    }

    /// Whether the factory optimizes the circuit before initialization.
    pub fn optimize(&self) -> bool {
        self.optimize
    }

    /// The selected engine.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// The phase store the engine is built with: always
    /// [`PhaseRepr::Auto`], which picks the store per circuit.
    pub fn effective_phase_repr(&self) -> PhaseRepr {
        PhaseRepr::Auto
    }

    /// The sampling method the engine is built with: always
    /// [`SamplingMethod::Auto`], which picks the `M · B` kernel per
    /// circuit. Like [`SimConfig::effective_phase_repr`], it serves
    /// callers that hand a config's choices to
    /// `SymPhaseSampler::with_config`.
    pub fn sampling(&self) -> SamplingMethod {
        SamplingMethod::Auto
    }

    /// The chunk-schedule seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The raw thread budget (`0` = all available cores).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The streaming chunk width in shots.
    pub fn chunk_shots(&self) -> usize {
        self.chunk_shots
    }

    /// Checks the configuration for internal contradictions. This needs
    /// no circuit, so callers (the CLI in particular) can reject bad
    /// requests *before* any expensive work; circuit-dependent checks
    /// (the state-vector qubit cap) happen in the factory.
    pub fn validate(&self) -> Result<(), BuildError> {
        if self.chunk_shots == 0 || !self.chunk_shots.is_multiple_of(64) {
            return Err(BuildError::InvalidChunkShots {
                got: self.chunk_shots,
            });
        }
        Ok(())
    }
}

/// Why a sampler could not be built from a [`SimConfig`] — the typed
/// diagnostics that replace the panics and scattered ad-hoc validation of
/// the pre-`SimConfig` constructor paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// `with_engine_name` saw a name that is not a known engine.
    UnknownEngine {
        /// The rejected name.
        name: String,
    },
    /// The circuit exceeds the engine's size limit: the stabilizer
    /// engines' tableau memory budget (`symphase::backend::build_sampler`),
    /// or the dense state-vector cap `symphase_statevec::MAX_QUBITS`.
    CircuitTooLarge {
        /// Engine name.
        engine: &'static str,
        /// Qubits the circuit uses.
        qubits: u32,
        /// The engine's cap.
        max_qubits: u32,
    },
    /// The circuit may allocate more symbols than a SymPhase build can
    /// index (`symphase_core::MAX_SYMBOLS`, about 2³¹), counted from its
    /// statistics before anything allocates.
    TooManySymbols {
        /// Engine name.
        engine: &'static str,
        /// Upper bound on the symbols the build would allocate; `None`
        /// when a `REPEAT` count is too large to multiply out.
        symbols: Option<usize>,
        /// The engine's cap.
        max_symbols: usize,
    },
    /// The chunk width is zero or not a multiple of 64, which would break
    /// word alignment of the bit-packed chunk boundaries.
    InvalidChunkShots {
        /// The rejected width.
        got: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnknownEngine { name } => {
                let names: Vec<&str> = EngineKind::ALL.iter().map(|k| k.name()).collect();
                write!(
                    f,
                    "unknown engine '{name}' (expected one of: {})",
                    names.join(", ")
                )
            }
            BuildError::CircuitTooLarge {
                engine,
                qubits,
                max_qubits,
            } => write!(
                f,
                "engine '{engine}' cannot simulate this circuit \
                 ({qubits} qubits exceed its limit of {max_qubits})"
            ),
            BuildError::TooManySymbols {
                engine,
                symbols,
                max_symbols,
            } => {
                write!(f, "engine '{engine}' cannot simulate this circuit (")?;
                match symbols {
                    Some(n) => write!(f, "it may allocate {n} symbols")?,
                    None => write!(f, "its REPEAT counts multiply out past any symbol count")?,
                }
                write!(
                    f,
                    ", over its limit of {max_symbols}); --engine frame runs it in \
                     memory linear in the qubits"
                )
            }
            BuildError::InvalidChunkShots { got } => write!(
                f,
                "chunk width must be a nonzero multiple of 64 shots, got {got}"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_names_round_trip() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(EngineKind::from_name("bogus"), None);
    }

    #[test]
    fn default_config_is_valid() {
        assert_eq!(SimConfig::new().validate(), Ok(()));
        assert_eq!(SimConfig::new().engine(), EngineKind::SymPhase);
        assert_eq!(SimConfig::new().chunk_shots(), CHUNK_SHOTS);
    }

    #[test]
    fn name_setters_reject_unknown_values() {
        let e = SimConfig::new().with_engine_name("warp-drive").unwrap_err();
        assert!(matches!(e, BuildError::UnknownEngine { .. }), "{e}");
        assert!(e.to_string().contains("statevec"));
    }

    #[test]
    fn validate_rejects_contradictions() {
        for bad in [0usize, 1, 63, 100] {
            let e = SimConfig::new()
                .with_chunk_shots(bad)
                .validate()
                .unwrap_err();
            assert_eq!(e, BuildError::InvalidChunkShots { got: bad });
        }
        assert!(SimConfig::new().with_chunk_shots(128).validate().is_ok());
    }
}
