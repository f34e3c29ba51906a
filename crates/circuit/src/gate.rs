//! Clifford gates and their reference conjugation semantics.
//!
//! Every optimized tableau/frame update rule in the simulator crates is
//! cross-checked against [`Gate::conjugate`], which applies the gate to a
//! [`SmallPauli`] (a one- or two-qubit Pauli with an `i^e` phase) using the
//! gate's action on the generators `X` and `Z`.

use std::fmt;

/// A single-qubit Pauli kind (used by noise channels and feedback).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PauliKind {
    /// Bit flip.
    X,
    /// Bit and phase flip.
    Y,
    /// Phase flip.
    Z,
}

impl PauliKind {
    /// The (x, z) bit pair of this Pauli in the tableau encoding.
    pub fn xz(self) -> (bool, bool) {
        match self {
            PauliKind::X => (true, false),
            PauliKind::Y => (true, true),
            PauliKind::Z => (false, true),
        }
    }

    /// Parses a single Pauli letter (`X`, `Y`, `Z`).
    pub fn from_letter(c: char) -> Option<PauliKind> {
        match c {
            'X' => Some(PauliKind::X),
            'Y' => Some(PauliKind::Y),
            'Z' => Some(PauliKind::Z),
            _ => None,
        }
    }

    /// The self-inverse Clifford `G` with `G Z G† = P` (basis change for
    /// measuring/resetting in this basis through the Z-basis machinery):
    /// `H` for `X`, `H_YZ` for `Y`, and nothing for `Z` itself.
    pub fn z_conjugator(self) -> Option<Gate> {
        match self {
            PauliKind::X => Some(Gate::H),
            PauliKind::Y => Some(Gate::HYz),
            PauliKind::Z => None,
        }
    }

    /// The gate that applies this Pauli.
    pub fn gate(self) -> Gate {
        match self {
            PauliKind::X => Gate::X,
            PauliKind::Y => Gate::Y,
            PauliKind::Z => Gate::Z,
        }
    }
}

impl fmt::Display for PauliKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PauliKind::X => "X",
            PauliKind::Y => "Y",
            PauliKind::Z => "Z",
        })
    }
}

/// The unitary Clifford gates supported by all simulators in this
/// reproduction.
///
/// Conjugation conventions follow Stim's gate documentation (e.g.
/// `S: X → Y`, `SQRT_X: Z → -Y`, `CX: X_c → X_c X_t`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Identity (kept explicit because the Fig. 3 workloads emit it).
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate (√Z).
    S,
    /// Inverse phase gate.
    SDag,
    /// √X.
    SqrtX,
    /// Inverse √X.
    SqrtXDag,
    /// √Y.
    SqrtY,
    /// Inverse √Y.
    SqrtYDag,
    /// Axis cycle X→Y→Z→X (120° rotation about the XYZ diagonal).
    CXyz,
    /// Inverse axis cycle X→Z→Y→X.
    CZyx,
    /// Hadamard-like swap of X and Y (Z negates).
    HXy,
    /// Hadamard-like swap of Y and Z (X negates).
    HYz,
    /// Controlled-X (CNOT); targets come in (control, target) pairs.
    Cx,
    /// Controlled-Y.
    Cy,
    /// Controlled-Z (symmetric).
    Cz,
    /// Swap.
    Swap,
}

impl Gate {
    /// All gates, for exhaustive tests.
    pub const ALL: [Gate; 19] = [
        Gate::I,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::H,
        Gate::S,
        Gate::SDag,
        Gate::SqrtX,
        Gate::SqrtXDag,
        Gate::SqrtY,
        Gate::SqrtYDag,
        Gate::CXyz,
        Gate::CZyx,
        Gate::HXy,
        Gate::HYz,
        Gate::Cx,
        Gate::Cy,
        Gate::Cz,
        Gate::Swap,
    ];

    /// Number of qubits the gate acts on (1 or 2).
    pub fn arity(self) -> usize {
        match self {
            Gate::Cx | Gate::Cy | Gate::Cz | Gate::Swap => 2,
            _ => 1,
        }
    }

    /// Canonical instruction-file name.
    pub fn name(self) -> &'static str {
        match self {
            Gate::I => "I",
            Gate::X => "X",
            Gate::Y => "Y",
            Gate::Z => "Z",
            Gate::H => "H",
            Gate::S => "S",
            Gate::SDag => "S_DAG",
            Gate::SqrtX => "SQRT_X",
            Gate::SqrtXDag => "SQRT_X_DAG",
            Gate::SqrtY => "SQRT_Y",
            Gate::SqrtYDag => "SQRT_Y_DAG",
            Gate::CXyz => "C_XYZ",
            Gate::CZyx => "C_ZYX",
            Gate::HXy => "H_XY",
            Gate::HYz => "H_YZ",
            Gate::Cx => "CX",
            Gate::Cy => "CY",
            Gate::Cz => "CZ",
            Gate::Swap => "SWAP",
        }
    }

    /// Parses a gate name (accepting common aliases such as `CNOT`).
    pub fn from_name(name: &str) -> Option<Gate> {
        Some(match name {
            "I" => Gate::I,
            "X" => Gate::X,
            "Y" => Gate::Y,
            "Z" => Gate::Z,
            "H" => Gate::H,
            "S" | "SQRT_Z" => Gate::S,
            "S_DAG" | "SQRT_Z_DAG" => Gate::SDag,
            "SQRT_X" => Gate::SqrtX,
            "SQRT_X_DAG" => Gate::SqrtXDag,
            "SQRT_Y" => Gate::SqrtY,
            "SQRT_Y_DAG" => Gate::SqrtYDag,
            "C_XYZ" => Gate::CXyz,
            "C_ZYX" => Gate::CZyx,
            "H_XY" => Gate::HXy,
            "H_YZ" => Gate::HYz,
            "CX" | "CNOT" | "ZCX" => Gate::Cx,
            "CY" | "ZCY" => Gate::Cy,
            "CZ" | "ZCZ" => Gate::Cz,
            "SWAP" => Gate::Swap,
            _ => return None,
        })
    }

    /// The inverse gate.
    pub fn inverse(self) -> Gate {
        match self {
            Gate::S => Gate::SDag,
            Gate::SDag => Gate::S,
            Gate::SqrtX => Gate::SqrtXDag,
            Gate::SqrtXDag => Gate::SqrtX,
            Gate::SqrtY => Gate::SqrtYDag,
            Gate::SqrtYDag => Gate::SqrtY,
            Gate::CXyz => Gate::CZyx,
            Gate::CZyx => Gate::CXyz,
            g => g, // self-inverse otherwise
        }
    }

    /// Image of `X` (single-qubit gates) or of `X ⊗ I` (two-qubit gates)
    /// under conjugation by this gate.
    fn image_of_x0(self) -> SmallPauli {
        match self {
            Gate::I => SmallPauli::x0(),
            Gate::X => SmallPauli::x0(),
            Gate::Y => SmallPauli::x0().negated(),
            Gate::Z => SmallPauli::x0().negated(),
            Gate::H => SmallPauli::z0(),
            Gate::S => SmallPauli::y0(),
            Gate::SDag => SmallPauli::y0().negated(),
            Gate::SqrtX => SmallPauli::x0(),
            Gate::SqrtXDag => SmallPauli::x0(),
            Gate::SqrtY => SmallPauli::z0().negated(),
            Gate::SqrtYDag => SmallPauli::z0(),
            Gate::CXyz => SmallPauli::y0(),
            Gate::CZyx => SmallPauli::z0(),
            Gate::HXy => SmallPauli::y0(),
            Gate::HYz => SmallPauli::x0().negated(),
            Gate::Cx => SmallPauli::two(true, false, true, false), // X⊗X
            Gate::Cy => SmallPauli::two(true, false, true, true).phased(1), // X⊗Y
            Gate::Cz => SmallPauli::two(true, false, false, true), // X⊗Z
            Gate::Swap => SmallPauli::two(false, false, true, false), // I⊗X
        }
    }

    /// Image of `Z` (single-qubit) or `Z ⊗ I` (two-qubit).
    fn image_of_z0(self) -> SmallPauli {
        match self {
            Gate::I => SmallPauli::z0(),
            Gate::X => SmallPauli::z0().negated(),
            Gate::Y => SmallPauli::z0().negated(),
            Gate::Z => SmallPauli::z0(),
            Gate::H => SmallPauli::x0(),
            Gate::S => SmallPauli::z0(),
            Gate::SDag => SmallPauli::z0(),
            Gate::SqrtX => SmallPauli::y0().negated(),
            Gate::SqrtXDag => SmallPauli::y0(),
            Gate::SqrtY => SmallPauli::x0(),
            Gate::SqrtYDag => SmallPauli::x0().negated(),
            Gate::CXyz => SmallPauli::x0(),
            Gate::CZyx => SmallPauli::y0(),
            Gate::HXy => SmallPauli::z0().negated(),
            Gate::HYz => SmallPauli::y0(),
            Gate::Cx => SmallPauli::two(false, true, false, false), // Z⊗I
            Gate::Cy => SmallPauli::two(false, true, false, false),
            Gate::Cz => SmallPauli::two(false, true, false, false),
            Gate::Swap => SmallPauli::two(false, false, false, true), // I⊗Z
        }
    }

    /// Image of `I ⊗ X` (two-qubit gates only).
    fn image_of_x1(self) -> SmallPauli {
        match self {
            Gate::Cx => SmallPauli::two(false, false, true, false), // I⊗X
            Gate::Cy => SmallPauli::two(false, true, true, false),  // Z⊗X
            Gate::Cz => SmallPauli::two(false, true, true, false),  // Z⊗X
            Gate::Swap => SmallPauli::two(true, false, false, false), // X⊗I
            _ => unreachable!("single-qubit gate has no second qubit"),
        }
    }

    /// Image of `I ⊗ Z` (two-qubit gates only).
    fn image_of_z1(self) -> SmallPauli {
        match self {
            Gate::Cx => SmallPauli::two(false, true, false, true), // Z⊗Z
            Gate::Cy => SmallPauli::two(false, true, false, true), // Z⊗Z
            Gate::Cz => SmallPauli::two(false, false, false, true), // I⊗Z
            Gate::Swap => SmallPauli::two(false, true, false, false), // Z⊗I
            _ => unreachable!("single-qubit gate has no second qubit"),
        }
    }

    /// Conjugates a one- or two-qubit Pauli by this gate: `U P U†`.
    ///
    /// This is the *reference* semantics; simulators implement equivalent
    /// word-parallel updates and are tested against it.
    ///
    /// # Panics
    ///
    /// Panics if `p` spans two qubits but the gate is single-qubit (apply
    /// single-qubit gates per qubit instead).
    pub fn conjugate(self, p: SmallPauli) -> SmallPauli {
        let mut out = SmallPauli::identity().phased(p.phase);
        // P = i^e · X0^x0 Z0^z0 X1^x1 Z1^z1 (in this canonical order); the
        // conjugate is the product of generator images in the same order.
        if self.arity() == 1 {
            assert!(
                !p.x1 && !p.z1,
                "cannot conjugate a two-qubit Pauli by a single-qubit gate"
            );
            if p.x0 {
                out = out.mul(self.image_of_x0());
            }
            if p.z0 {
                out = out.mul(self.image_of_z0());
            }
        } else {
            if p.x0 {
                out = out.mul(self.image_of_x0());
            }
            if p.z0 {
                out = out.mul(self.image_of_z0());
            }
            if p.x1 {
                out = out.mul(self.image_of_x1());
            }
            if p.z1 {
                out = out.mul(self.image_of_z1());
            }
        }
        out
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A Pauli on at most two qubits with an `i^phase` prefactor, in the
/// canonical form `i^phase · X0^x0 Z0^z0 · X1^x1 Z1^z1`.
///
/// Only used as reference semantics (conjugation tables and tests); the
/// simulators use packed representations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SmallPauli {
    /// X component on qubit 0.
    pub x0: bool,
    /// Z component on qubit 0.
    pub z0: bool,
    /// X component on qubit 1.
    pub x1: bool,
    /// Z component on qubit 1.
    pub z1: bool,
    /// Power of `i` in the prefactor, mod 4.
    pub phase: u8,
}

impl SmallPauli {
    /// The identity Pauli.
    pub fn identity() -> Self {
        Self {
            x0: false,
            z0: false,
            x1: false,
            z1: false,
            phase: 0,
        }
    }

    /// `X` on qubit 0.
    pub fn x0() -> Self {
        Self {
            x0: true,
            ..Self::identity()
        }
    }

    /// `Z` on qubit 0.
    pub fn z0() -> Self {
        Self {
            z0: true,
            ..Self::identity()
        }
    }

    /// `Y = i·XZ` on qubit 0.
    pub fn y0() -> Self {
        Self {
            x0: true,
            z0: true,
            phase: 1,
            ..Self::identity()
        }
    }

    /// A phase-free two-qubit Pauli from its x/z bits.
    pub fn two(x0: bool, z0: bool, x1: bool, z1: bool) -> Self {
        Self {
            x0,
            z0,
            x1,
            z1,
            phase: 0,
        }
    }

    /// Builds the single-qubit Pauli of `kind` on qubit 0 (with the real
    /// `+1` prefactor, so `Y` has `phase = 1` in `i^e·XZ` form).
    pub fn from_kind(kind: PauliKind) -> Self {
        match kind {
            PauliKind::X => Self::x0(),
            PauliKind::Y => Self::y0(),
            PauliKind::Z => Self::z0(),
        }
    }

    /// Multiplies the prefactor by `i^quarter_turns`.
    pub fn phased(mut self, quarter_turns: u8) -> Self {
        self.phase = (self.phase + quarter_turns) % 4;
        self
    }

    /// Multiplies the prefactor by `-1`.
    pub fn negated(self) -> Self {
        self.phased(2)
    }

    /// Canonical product `self · other` with full `i^e` bookkeeping.
    ///
    /// Reordering `Z^z X^x'` to `X^x' Z^z` on the same qubit contributes
    /// `(-1)^(z·x')`.
    // Named after the mathematical operation; the type deliberately does
    // not implement `std::ops::Mul` (reference semantics stay explicit).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: SmallPauli) -> SmallPauli {
        let mut phase = (self.phase + other.phase) % 4;
        // Qubit 0: move other's X0 left past self's Z0.
        if self.z0 && other.x0 {
            phase = (phase + 2) % 4;
        }
        // Qubit 1: move other's X1 left past self's Z1.
        if self.z1 && other.x1 {
            phase = (phase + 2) % 4;
        }
        SmallPauli {
            x0: self.x0 ^ other.x0,
            z0: self.z0 ^ other.z0,
            x1: self.x1 ^ other.x1,
            z1: self.z1 ^ other.z1,
            phase,
        }
    }

    /// `true` if the prefactor is `±1` (a physical Pauli in `i^e·XZ` form
    /// has `phase + x·z` even on each qubit; this only checks the prefactor).
    pub fn is_real_prefactor(self) -> bool {
        self.phase.is_multiple_of(2)
    }

    /// The sign of the *physical* Pauli: converts from `i^e · X^x Z^z` form
    /// to `± {I,X,Y,Z}` form (each qubit with both x and z set contributes
    /// one factor `i` because `Y = i·XZ`). Returns `true` for negative.
    ///
    /// # Panics
    ///
    /// Panics if the Pauli is not real (phase `i` or `-i`), which cannot
    /// happen for conjugates of real Paulis.
    pub fn sign_is_negative(self) -> bool {
        let ys = u8::from(self.x0 && self.z0) + u8::from(self.x1 && self.z1);
        // i^phase · XZ-pairs = i^phase · (−i)^ys · Y-pairs
        let e = (self.phase + 4 - ys % 4) % 4;
        assert!(e.is_multiple_of(2), "non-real Pauli has no sign: {self:?}");
        e == 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pauli_products_match_algebra() {
        let x = SmallPauli::x0();
        let z = SmallPauli::z0();
        let y = SmallPauli::y0();
        // XZ = -iY  →  i^3 · XZ-form of Y is X·Z with phase 3+1=… check via mul:
        let xz = x.mul(z);
        assert_eq!(
            xz,
            SmallPauli {
                x0: true,
                z0: true,
                x1: false,
                z1: false,
                phase: 0
            }
        );
        // ZX = -XZ
        let zx = z.mul(x);
        assert_eq!(zx.phase, 2);
        // Y·Y = I
        assert_eq!(y.mul(y), SmallPauli::identity());
        // X·Y = iZ
        let xy = x.mul(y);
        assert_eq!((xy.x0, xy.z0, xy.phase), (false, true, 1));
    }

    #[test]
    fn signs_of_physical_paulis() {
        assert!(!SmallPauli::y0().sign_is_negative());
        assert!(SmallPauli::y0().negated().sign_is_negative());
        assert!(!SmallPauli::x0().sign_is_negative());
        assert!(SmallPauli::z0().negated().sign_is_negative());
    }

    #[test]
    fn hadamard_conjugation() {
        let h = Gate::H;
        assert_eq!(h.conjugate(SmallPauli::x0()), SmallPauli::z0());
        assert_eq!(h.conjugate(SmallPauli::z0()), SmallPauli::x0());
        // HYH = -Y
        assert_eq!(h.conjugate(SmallPauli::y0()), SmallPauli::y0().negated());
    }

    #[test]
    fn s_gate_conjugation() {
        assert_eq!(Gate::S.conjugate(SmallPauli::x0()), SmallPauli::y0());
        assert_eq!(Gate::S.conjugate(SmallPauli::z0()), SmallPauli::z0());
        // S Y S† = -X
        assert_eq!(
            Gate::S.conjugate(SmallPauli::y0()),
            SmallPauli::x0().negated()
        );
        assert_eq!(Gate::SDag.conjugate(SmallPauli::y0()), SmallPauli::x0());
    }

    #[test]
    fn sqrt_x_conjugation() {
        assert_eq!(
            Gate::SqrtX.conjugate(SmallPauli::z0()),
            SmallPauli::y0().negated()
        );
        assert_eq!(Gate::SqrtX.conjugate(SmallPauli::y0()), SmallPauli::z0());
        assert_eq!(Gate::SqrtXDag.conjugate(SmallPauli::z0()), SmallPauli::y0());
    }

    #[test]
    fn cx_conjugation() {
        let xc = SmallPauli::two(true, false, false, false);
        let zt = SmallPauli::two(false, false, false, true);
        assert_eq!(
            Gate::Cx.conjugate(xc),
            SmallPauli::two(true, false, true, false)
        );
        assert_eq!(
            Gate::Cx.conjugate(zt),
            SmallPauli::two(false, true, false, true)
        );
        // Z_c and X_t are invariant.
        let zc = SmallPauli::two(false, true, false, false);
        let xt = SmallPauli::two(false, false, true, false);
        assert_eq!(Gate::Cx.conjugate(zc), zc);
        assert_eq!(Gate::Cx.conjugate(xt), xt);
    }

    #[test]
    fn conjugation_preserves_products() {
        // U(PQ)U† = (UPU†)(UQU†) for every gate and generator pair.
        let paulis1 = [SmallPauli::x0(), SmallPauli::z0(), SmallPauli::y0()];
        for g in Gate::ALL {
            if g.arity() != 1 {
                continue;
            }
            for p in paulis1 {
                for q in paulis1 {
                    assert_eq!(
                        g.conjugate(p.mul(q)),
                        g.conjugate(p).mul(g.conjugate(q)),
                        "homomorphism failed for {g} on {p:?}·{q:?}"
                    );
                }
            }
        }
        let mut paulis2 = Vec::new();
        for bits in 0..16u8 {
            paulis2.push(SmallPauli::two(
                bits & 1 != 0,
                bits & 2 != 0,
                bits & 4 != 0,
                bits & 8 != 0,
            ));
        }
        for g in [Gate::Cx, Gate::Cy, Gate::Cz, Gate::Swap] {
            for &p in &paulis2 {
                for &q in &paulis2 {
                    assert_eq!(
                        g.conjugate(p.mul(q)),
                        g.conjugate(p).mul(g.conjugate(q)),
                        "homomorphism failed for {g}"
                    );
                }
            }
        }
    }

    #[test]
    fn conjugation_by_inverse_roundtrips() {
        let paulis1 = [SmallPauli::x0(), SmallPauli::z0(), SmallPauli::y0()];
        for g in Gate::ALL {
            if g.arity() != 1 {
                continue;
            }
            for p in paulis1 {
                assert_eq!(
                    g.inverse().conjugate(g.conjugate(p)),
                    p,
                    "inverse roundtrip failed for {g}"
                );
            }
        }
    }

    #[test]
    fn conjugation_involutions() {
        // Self-inverse gates applied twice give back the input.
        for g in [
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::Cx,
            Gate::Cz,
            Gate::Swap,
        ] {
            let probe = if g.arity() == 1 {
                vec![SmallPauli::x0(), SmallPauli::z0(), SmallPauli::y0()]
            } else {
                (0..16u8)
                    .map(|b| SmallPauli::two(b & 1 != 0, b & 2 != 0, b & 4 != 0, b & 8 != 0))
                    .collect()
            };
            for p in probe {
                assert_eq!(g.conjugate(g.conjugate(p)), p, "{g} not involutive");
            }
        }
    }

    #[test]
    fn axis_cycle_conjugation() {
        // C_XYZ: X→Y→Z→X; C_ZYX is its inverse.
        assert_eq!(Gate::CXyz.conjugate(SmallPauli::x0()), SmallPauli::y0());
        assert_eq!(Gate::CXyz.conjugate(SmallPauli::y0()), SmallPauli::z0());
        assert_eq!(Gate::CXyz.conjugate(SmallPauli::z0()), SmallPauli::x0());
        for p in [SmallPauli::x0(), SmallPauli::y0(), SmallPauli::z0()] {
            assert_eq!(Gate::CZyx.conjugate(Gate::CXyz.conjugate(p)), p);
            // Period three.
            let thrice = Gate::CXyz.conjugate(Gate::CXyz.conjugate(Gate::CXyz.conjugate(p)));
            assert_eq!(thrice, p);
        }
    }

    #[test]
    fn axis_swap_conjugation() {
        assert_eq!(Gate::HXy.conjugate(SmallPauli::x0()), SmallPauli::y0());
        assert_eq!(Gate::HXy.conjugate(SmallPauli::y0()), SmallPauli::x0());
        assert_eq!(
            Gate::HXy.conjugate(SmallPauli::z0()),
            SmallPauli::z0().negated()
        );
        assert_eq!(Gate::HYz.conjugate(SmallPauli::y0()), SmallPauli::z0());
        assert_eq!(Gate::HYz.conjugate(SmallPauli::z0()), SmallPauli::y0());
        assert_eq!(
            Gate::HYz.conjugate(SmallPauli::x0()),
            SmallPauli::x0().negated()
        );
    }

    #[test]
    fn names_roundtrip() {
        for g in Gate::ALL {
            assert_eq!(Gate::from_name(g.name()), Some(g), "{g}");
        }
        assert_eq!(Gate::from_name("CNOT"), Some(Gate::Cx));
        assert_eq!(Gate::from_name("NOPE"), None);
    }

    #[test]
    fn swap_conjugation_swaps() {
        let x0 = SmallPauli::two(true, false, false, false);
        assert_eq!(
            Gate::Swap.conjugate(x0),
            SmallPauli::two(false, false, true, false)
        );
        let y1 = SmallPauli {
            x0: false,
            z0: false,
            x1: true,
            z1: true,
            phase: 1,
        };
        let y0 = SmallPauli {
            x0: true,
            z0: true,
            x1: false,
            z1: false,
            phase: 1,
        };
        assert_eq!(Gate::Swap.conjugate(y1), y0);
    }

    #[test]
    fn cy_conjugation() {
        // X_c → X_c ⊗ Y_t
        let xc = SmallPauli::two(true, false, false, false);
        let expect = SmallPauli {
            x0: true,
            z0: false,
            x1: true,
            z1: true,
            phase: 1,
        };
        assert_eq!(Gate::Cy.conjugate(xc), expect);
        // X_t → Z_c X_t
        let xt = SmallPauli::two(false, false, true, false);
        assert_eq!(
            Gate::Cy.conjugate(xt),
            SmallPauli::two(false, true, true, false)
        );
        // Y_t → Y_t
        let yt = SmallPauli {
            x0: false,
            z0: false,
            x1: true,
            z1: true,
            phase: 1,
        };
        assert_eq!(Gate::Cy.conjugate(yt), yt);
    }
}
