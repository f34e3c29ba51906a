//! What Initialization produces: the symbolic records of a circuit.

use symphase_backend::PhaseRepr;
use symphase_bitmat::SparseRowMatrix;
use symphase_circuit::Circuit;

use crate::engine::initialize;
use crate::expr::SymExpr;
use crate::phases::{DensePhases, SparsePhases};
use crate::symbol::SymbolTable;

/// The output of paper Algorithm 1's **Initialization**: one symbolic
/// traversal gives every measurement outcome, detector and observable as
/// an XOR expression over bit-symbols, stored as a sparse row over
/// `F₂^{n_s+1}` (index 0 is the constant `s₀`, paper §3.2.1). Detector
/// and observable rows are sums of measurement rows; the symbol table
/// holds every symbol they name. The analyses read only this value;
/// [`SymPhaseSampler`](crate::SymPhaseSampler) adds Sampling and
/// dereferences to it.
///
/// # Example
///
/// ```
/// use symphase_circuit::{Circuit, NoiseChannel};
/// use symphase_core::SymbolicRecords;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// c.noise(NoiseChannel::XError(0.1), &[1]); // s1
/// c.measure_all(); // the first outcome draws the coin s2
/// let records = SymbolicRecords::new(&c);
/// assert_eq!(records.measurement_expr(0).to_string(), "s2");
/// assert_eq!(records.measurement_expr(1).to_string(), "s1 ⊕ s2");
/// ```
#[derive(Clone, Debug)]
pub struct SymbolicRecords {
    pub(crate) table: SymbolTable,
    pub(crate) meas: SparseRowMatrix,
    pub(crate) det: SparseRowMatrix,
    pub(crate) obs: SparseRowMatrix,
    /// Per measurement record: whether the collapse drew a fresh coin.
    pub(crate) random_records: Vec<bool>,
}

impl SymbolicRecords {
    /// Runs Initialization with the phase store [`PhaseRepr::Auto`] picks.
    pub fn new(circuit: &Circuit) -> Self {
        Self::with_repr(circuit, PhaseRepr::Auto)
    }

    /// Runs Initialization with an explicit phase-store choice. Both
    /// stores give the same records.
    pub fn with_repr(circuit: &Circuit, repr: PhaseRepr) -> Self {
        match repr.resolve(circuit) {
            PhaseRepr::Sparse => initialize::<SparsePhases>(circuit),
            PhaseRepr::Dense | PhaseRepr::Auto => initialize::<DensePhases>(circuit),
        }
    }

    /// Number of measurement outcomes per shot.
    pub fn num_measurements(&self) -> usize {
        self.meas.rows()
    }

    /// Number of detectors.
    pub fn num_detectors(&self) -> usize {
        self.det.rows()
    }

    /// Number of observables.
    pub fn num_observables(&self) -> usize {
        self.obs.rows()
    }

    /// The symbol registry built during Initialization: every symbol the
    /// records' expressions name. It is the symbolic view; a sampler draws
    /// a compressed draw plan built from it (see
    /// [`SymPhaseSampler`](crate::SymPhaseSampler)), so its
    /// [`SymbolTable::sample_assignments`] is not the sampler's stream.
    pub fn symbol_table(&self) -> &SymbolTable {
        &self.table
    }

    /// The symbolic expression of measurement `m` — which coins and faults
    /// flip it (the fault-sensitivity view of paper Fig. 1).
    pub fn measurement_expr(&self, m: usize) -> SymExpr {
        SymExpr::from_sparse_row(self.meas.row(m))
    }

    /// All measurement expressions in record order.
    pub fn measurement_exprs(&self) -> Vec<SymExpr> {
        self.meas.iter().map(SymExpr::from_sparse_row).collect()
    }

    /// Per record, whether the measurement's collapse was **random** —
    /// the outcome drew a fresh fair coin — as opposed to reading a
    /// determined stabilizer phase. Exact (reported by Initialization at
    /// collapse time), unlike any reconstruction from the symbol table:
    /// resets also allocate coins without recording anything, and
    /// re-measurements inherit earlier coins while staying deterministic.
    pub fn random_measurement_records(&self) -> &[bool] {
        &self.random_records
    }

    /// The symbolic expression of detector `d`. Coins always cancel here;
    /// only fault symbols remain, which is exactly the circuit's
    /// detector-error structure.
    pub fn detector_expr(&self, d: usize) -> SymExpr {
        SymExpr::from_sparse_row(self.det.row(d))
    }

    /// The symbolic expression of observable `o`.
    pub fn observable_expr(&self, o: usize) -> SymExpr {
        SymExpr::from_sparse_row(self.obs.row(o))
    }

    /// The measurement matrix `M` in sparse form.
    pub fn measurement_matrix(&self) -> &SparseRowMatrix {
        &self.meas
    }

    /// The detector rows (XORs of measurement rows) in sparse form.
    pub fn detector_rows(&self) -> &SparseRowMatrix {
        &self.det
    }

    /// The observable rows in sparse form.
    pub fn observable_rows(&self) -> &SparseRowMatrix {
        &self.obs
    }
}
