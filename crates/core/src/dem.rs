//! Detector error models: the fault → symptom map, extracted symbolically.
//!
//! Under phase symbolization every detector is an XOR expression over fault
//! symbols (coins cancel by construction), so the *detector error model* —
//! which physical error triggers which detectors and logical observables,
//! the input every QEC decoder needs — can be read off the sampler without
//! any Monte Carlo: enumerate each noise site's non-identity outcomes,
//! XOR the symptom sets of the symbols involved, and merge equal symptoms.
//!
//! This mirrors Stim's `.dem` format (`error(p) D0 D2 L0`) and is an
//! application of the paper's observation that the symbolic expressions
//! "clearly show how the faults in the circuit affect the measurement
//! outcomes" (§1).
//!
//! # Mechanism ordering
//!
//! Extracted models are **canonically ordered**: mechanisms are sorted by
//! their detector list, then by their observable list (lexicographically),
//! and equal symptoms are merged before sorting. Contributions to a merged
//! mechanism accumulate in symbol-allocation order, so the printed text of
//! two extractions of the same circuit is byte-identical — `symphase dem`
//! output is diffable across runs. Parsed models ([`DetectorErrorModel::parse`])
//! keep file order and are *not* re-merged, so external `.dem` files can be
//! analyzed as written.

use std::collections::HashMap;
use std::fmt;

use symphase_bitmat::SparseColumns;

use crate::records::SymbolicRecords;
use crate::symbol::SymbolId;

/// One error mechanism: with `probability`, flip the listed detectors and
/// logical observables.
#[derive(Clone, Debug, PartialEq)]
pub struct DemError {
    /// Total probability of this symptom (independent contributions are
    /// XOR-combined: `p ← p₁(1−p₂) + p₂(1−p₁)`).
    pub probability: f64,
    /// Sorted detector indices flipped by the error.
    pub detectors: Vec<u32>,
    /// Sorted observable indices flipped by the error.
    pub observables: Vec<u32>,
    /// One concrete realization of the mechanism: the fault symbols of the
    /// first noise-site outcome that produced this symptom, sorted. Setting
    /// exactly these fault bits in an assignment reproduces the symptom —
    /// this is what lets `symphase analyze` discharge its distance claims
    /// through fault injection. Empty for parsed models (text carries no
    /// symbol identities) and not printed by `Display`.
    pub witness: Vec<SymbolId>,
}

impl fmt::Display for DemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error({})", self.probability)?;
        for d in &self.detectors {
            write!(f, " D{d}")?;
        }
        for o in &self.observables {
            write!(f, " L{o}")?;
        }
        Ok(())
    }
}

/// The collection of error mechanisms of a circuit.
///
/// # Example
///
/// ```
/// use symphase_circuit::generators::{repetition_code_memory, RepetitionCodeConfig};
/// use symphase_core::SymbolicRecords;
///
/// let c = repetition_code_memory(&RepetitionCodeConfig {
///     distance: 3,
///     rounds: 1,
///     data_error: 0.01,
///     measure_error: 0.0,
/// });
/// let dem = SymbolicRecords::new(&c).detector_error_model();
/// // Every data-qubit X error triggers one or two detectors.
/// assert_eq!(dem.errors().len(), 3);
/// assert_eq!(dem.num_detectors(), 4);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DetectorErrorModel {
    errors: Vec<DemError>,
    num_detectors: usize,
    num_observables: usize,
    /// Per-detector coordinates (empty vec = no coordinates known).
    detector_coords: Vec<Vec<f64>>,
}

impl DetectorErrorModel {
    /// Builds a model from parts, in canonical order (sorted by detectors,
    /// then observables). Detector/observable counts are raised to cover
    /// the highest index mentioned by any mechanism.
    pub fn from_parts(
        mut errors: Vec<DemError>,
        num_detectors: usize,
        num_observables: usize,
    ) -> Self {
        errors.sort_by(|a, b| {
            a.detectors
                .cmp(&b.detectors)
                .then(a.observables.cmp(&b.observables))
        });
        let mut dem = DetectorErrorModel {
            errors,
            num_detectors,
            num_observables,
            detector_coords: Vec::new(),
        };
        dem.cover_indices();
        dem
    }

    fn cover_indices(&mut self) {
        for e in &self.errors {
            if let Some(&d) = e.detectors.last() {
                self.num_detectors = self.num_detectors.max(d as usize + 1);
            }
            if let Some(&o) = e.observables.last() {
                self.num_observables = self.num_observables.max(o as usize + 1);
            }
        }
    }

    /// The error mechanisms, sorted by symptom.
    pub fn errors(&self) -> &[DemError] {
        &self.errors
    }

    /// Number of mechanisms.
    pub fn len(&self) -> usize {
        self.errors.len()
    }

    /// `true` when the circuit has no detectable error mechanism.
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty()
    }

    /// Number of detectors in the originating circuit (or covering the
    /// highest `D` index for parsed models).
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of observables in the originating circuit (or covering the
    /// highest `L` index for parsed models).
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// Per-detector coordinates; an empty inner vec means "no coordinates".
    /// May be shorter than [`Self::num_detectors`].
    pub fn detector_coords(&self) -> &[Vec<f64>] {
        &self.detector_coords
    }

    /// Attaches per-detector coordinates (index = detector), as produced by
    /// `Circuit::detector_coordinates`. Printed as `detector(x, y, t) Dk`
    /// annotation lines ahead of the mechanisms.
    pub fn with_detector_coords(mut self, coords: Vec<Vec<f64>>) -> Self {
        self.num_detectors = self.num_detectors.max(coords.len());
        self.detector_coords = coords;
        self
    }

    /// Parses the text form emitted by `Display`: `error(p) D.. L..`
    /// mechanism lines and optional `detector(x, y, t) Dk` coordinate
    /// annotations. `#` starts a comment; blank lines are skipped.
    ///
    /// Parsed models keep the file's mechanism order and are **not**
    /// merged: duplicate symptoms stay distinct (the analyzer reports them
    /// as SP014 `dominated-mechanism`). Witnesses are left empty — text
    /// carries no fault-symbol identities.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut errors = Vec::new();
        let mut detector_coords: Vec<Vec<f64>> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let ln = idx + 1;
            if let Some(rest) = line.strip_prefix("error") {
                let (p, tail) = parse_paren_args(rest, ln)?;
                if p.len() != 1 {
                    return Err(format!("line {ln}: error() takes exactly one probability"));
                }
                let probability = p[0];
                if !(0.0..=1.0).contains(&probability) {
                    return Err(format!(
                        "line {ln}: probability {probability} not in [0, 1]"
                    ));
                }
                let mut detectors = Vec::new();
                let mut observables = Vec::new();
                for tok in tail.split_whitespace() {
                    if let Some(d) = tok.strip_prefix('D') {
                        let d: u32 = d
                            .parse()
                            .map_err(|_| format!("line {ln}: bad detector target `{tok}`"))?;
                        xor_sorted(&mut detectors, &[d]);
                    } else if let Some(o) = tok.strip_prefix('L') {
                        let o: u32 = o
                            .parse()
                            .map_err(|_| format!("line {ln}: bad observable target `{tok}`"))?;
                        xor_sorted(&mut observables, &[o]);
                    } else {
                        return Err(format!("line {ln}: unknown target `{tok}`"));
                    }
                }
                errors.push(DemError {
                    probability,
                    detectors,
                    observables,
                    witness: Vec::new(),
                });
            } else if let Some(rest) = line.strip_prefix("detector") {
                let (coords, tail) = parse_paren_args(rest, ln)?;
                let mut targets = tail.split_whitespace();
                let tok = targets
                    .next()
                    .ok_or_else(|| format!("line {ln}: detector annotation needs a D target"))?;
                if targets.next().is_some() {
                    return Err(format!(
                        "line {ln}: detector annotation takes exactly one D target"
                    ));
                }
                let d: usize = tok
                    .strip_prefix('D')
                    .and_then(|d| d.parse().ok())
                    .ok_or_else(|| format!("line {ln}: bad detector target `{tok}`"))?;
                if d >= detector_coords.len() {
                    detector_coords.resize(d + 1, Vec::new());
                }
                detector_coords[d] = coords;
            } else {
                return Err(format!(
                    "line {ln}: expected `error(...)` or `detector(...)`, got `{line}`"
                ));
            }
        }
        let mut dem = DetectorErrorModel {
            errors,
            num_detectors: detector_coords.len(),
            num_observables: 0,
            detector_coords,
        };
        dem.cover_indices();
        Ok(dem)
    }
}

/// Splits `"(a, b, c) tail"` into the parsed f64 arguments and the tail.
fn parse_paren_args(rest: &str, ln: usize) -> Result<(Vec<f64>, &str), String> {
    let rest = rest.trim_start();
    let inner = rest
        .strip_prefix('(')
        .ok_or_else(|| format!("line {ln}: expected `(`"))?;
    let close = inner
        .find(')')
        .ok_or_else(|| format!("line {ln}: missing `)`"))?;
    let args = &inner[..close];
    let mut parsed = Vec::new();
    for a in args.split(',') {
        let a = a.trim();
        if a.is_empty() {
            continue;
        }
        parsed.push(
            a.parse::<f64>()
                .map_err(|_| format!("line {ln}: bad number `{a}`"))?,
        );
    }
    Ok((parsed, &inner[close + 1..]))
}

impl fmt::Display for DetectorErrorModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (d, coords) in self.detector_coords.iter().enumerate() {
            if coords.is_empty() {
                continue;
            }
            write!(f, "detector(")?;
            for (i, c) in coords.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
            writeln!(f, ") D{d}")?;
        }
        for e in &self.errors {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

/// Replaces the sorted set `acc` with its symmetric difference with
/// `items`: each item present in `acc` is removed, each absent one is
/// inserted in order. This is how detector/observable symptom sets
/// XOR-combine.
pub fn xor_sorted(acc: &mut Vec<u32>, items: &[u32]) {
    for &i in items {
        match acc.binary_search(&i) {
            Ok(pos) => {
                acc.remove(pos);
            }
            Err(pos) => acc.insert(pos, i),
        }
    }
}

impl SymbolicRecords {
    /// Extracts the detector error model of the circuit these records
    /// were built from.
    ///
    /// Outcomes of one noise site that trigger no detector and no
    /// observable are dropped; distinct sites producing the same symptom
    /// are merged with XOR-combined probabilities. Each mechanism records
    /// the fault symbols of its first contribution as a [`DemError::witness`].
    pub fn detector_error_model(&self) -> DetectorErrorModel {
        // Per symbol, the detectors and the observables it flips.
        let len = self.table.assignment_len();
        let det_cols = SparseColumns::of(&self.det, len, Some);
        let obs_cols = SparseColumns::of(&self.obs, len, Some);

        // Symptom (detectors, observables) → (probability, witness).
        type Merged = HashMap<(Vec<u32>, Vec<u32>), (f64, Vec<SymbolId>)>;
        let mut merged: Merged = HashMap::new();
        let mut add = |symbols: &[SymbolId], probability: f64| {
            if probability <= 0.0 {
                return;
            }
            let mut dets = Vec::new();
            let mut obs = Vec::new();
            for &s in symbols {
                xor_sorted(&mut dets, det_cols.column(s));
                xor_sorted(&mut obs, obs_cols.column(s));
            }
            if dets.is_empty() && obs.is_empty() {
                return;
            }
            let entry = merged.entry((dets, obs)).or_insert_with(|| {
                let mut witness = symbols.to_vec();
                witness.sort_unstable();
                (0.0, witness)
            });
            entry.0 = entry.0 * (1.0 - probability) + probability * (1.0 - entry.0);
        };

        self.table.for_each_outcome(&mut add);

        let errors: Vec<DemError> = merged
            .into_iter()
            .map(
                |((detectors, observables), (probability, witness))| DemError {
                    probability,
                    detectors,
                    observables,
                    witness,
                },
            )
            .collect();
        DetectorErrorModel::from_parts(errors, self.det.rows(), self.obs.rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphase_circuit::generators::{repetition_code_memory, RepetitionCodeConfig};
    use symphase_circuit::{Circuit, NoiseChannel, PauliKind};

    #[test]
    fn repetition_code_matching_graph() {
        // Distance-4, one round, data errors only: data qubit i (of 4)
        // flips the final detectors it touches — end qubits touch one
        // detector, middle qubits two; the first qubit also flips the
        // logical observable.
        let c = repetition_code_memory(&RepetitionCodeConfig {
            distance: 4,
            rounds: 1,
            data_error: 0.01,
            measure_error: 0.0,
        });
        let dem = SymbolicRecords::new(&c).detector_error_model();
        assert_eq!(dem.len(), 4);
        assert_eq!(dem.num_detectors(), c.num_detectors());
        assert_eq!(dem.num_observables(), 1);
        let weights: Vec<usize> = dem.errors().iter().map(|e| e.detectors.len()).collect();
        let mut sorted = weights.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 1, 2, 2], "boundary/bulk structure");
        // Exactly one mechanism flips the observable (the data qubit the
        // observable reads).
        let logical: Vec<_> = dem
            .errors()
            .iter()
            .filter(|e| !e.observables.is_empty())
            .collect();
        assert_eq!(logical.len(), 1);
        assert!((dem.errors()[0].probability - 0.01).abs() < 1e-12);
        // Every mechanism carries a concrete witness symbol.
        assert!(dem.errors().iter().all(|e| e.witness.len() == 1));
    }

    #[test]
    fn merged_probabilities_xor_combine() {
        // Two X errors on the same qubit produce one mechanism with
        // p = p1(1-p2) + p2(1-p1).
        let mut c = Circuit::new(1);
        c.noise(NoiseChannel::XError(0.1), &[0]);
        c.noise(NoiseChannel::XError(0.2), &[0]);
        c.measure(0);
        c.detector(&[-1]);
        let dem = SymbolicRecords::new(&c).detector_error_model();
        assert_eq!(dem.len(), 1);
        let expect = 0.1 * 0.8 + 0.2 * 0.9;
        assert!((dem.errors()[0].probability - expect).abs() < 1e-12);
        // The witness is the *first* contribution's symbol set only.
        assert_eq!(dem.errors()[0].witness.len(), 1);
    }

    #[test]
    fn undetectable_faults_dropped() {
        let mut c = Circuit::new(1);
        c.noise(NoiseChannel::ZError(0.3), &[0]); // invisible in Z basis
        c.measure(0);
        c.detector(&[-1]);
        let dem = SymbolicRecords::new(&c).detector_error_model();
        assert!(dem.is_empty());
        assert_eq!(dem.num_detectors(), 1);
    }

    #[test]
    fn depolarize_splits_into_mechanisms() {
        // DEPOLARIZE1 before H: X and Y flip the (pre-H) Z-detector... use
        // two measurements to distinguish X-like and Z-like symptoms.
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        c.noise(NoiseChannel::Depolarize1(0.3), &[0]);
        c.cx(0, 1);
        c.measure(0); // flips for X, Y
        c.h(0);
        c.measure(1); // flips for X, Y (copied)
        c.detector(&[-2]);
        c.detector(&[-1]);
        let dem = SymbolicRecords::new(&c).detector_error_model();
        // X and Y both flip D0 and D1; Z is invisible → one merged
        // mechanism at p = 2·(p/3) XOR-combined.
        assert_eq!(dem.len(), 1);
        let p3 = 0.1;
        let expect = p3 * (1.0 - p3) + p3 * (1.0 - p3);
        assert!((dem.errors()[0].probability - expect).abs() < 1e-12);
        assert_eq!(dem.errors()[0].detectors, vec![0, 1]);
    }

    #[test]
    fn correlated_chain_mechanisms_carry_their_marginals() {
        // E(0.4) / ELSE(0.5) / ELSE(1.0): exactly one element fires per
        // shot, with marginals 0.4, 0.6·0.5 and 0.6·0.5·1.
        let mut c = Circuit::new(3);
        c.correlated_error(0.4, &[(PauliKind::X, 0)]);
        c.else_correlated_error(0.5, &[(PauliKind::X, 1)]);
        c.else_correlated_error(1.0, &[(PauliKind::X, 2)]);
        for q in 0..3 {
            c.measure(q);
        }
        c.detector(&[-3]).detector(&[-2]).detector(&[-1]);
        let dem = SymbolicRecords::new(&c).detector_error_model();
        let got: Vec<(Vec<u32>, f64)> = dem
            .errors()
            .iter()
            .map(|e| (e.detectors.clone(), e.probability))
            .collect();
        let expect = [(vec![0], 0.4), (vec![1], 0.3), (vec![2], 0.3)];
        assert_eq!(got.len(), expect.len(), "{got:?}");
        for ((dets, p), (want_dets, want_p)) in got.iter().zip(&expect) {
            assert_eq!(dets, want_dets);
            assert!((p - want_p).abs() < 1e-12, "D{dets:?}: {p} vs {want_p}");
        }
    }

    #[test]
    fn display_format() {
        let dem = DetectorErrorModel::from_parts(
            vec![DemError {
                probability: 0.125,
                detectors: vec![0, 2],
                observables: vec![1],
                witness: vec![4],
            }],
            3,
            2,
        );
        assert_eq!(dem.to_string(), "error(0.125) D0 D2 L1\n");
        let with_coords = dem.with_detector_coords(vec![vec![], vec![1.0, 2.5, 0.0]]);
        assert_eq!(
            with_coords.to_string(),
            "detector(1, 2.5, 0) D1\nerror(0.125) D0 D2 L1\n"
        );
    }

    #[test]
    fn parse_round_trips_display() {
        let text = "detector(0, 1) D0\ndetector(2, 1) D2\nerror(0.125) D0 D2 L1\nerror(0.25) D1\n";
        let dem = DetectorErrorModel::parse(text).unwrap();
        assert_eq!(dem.to_string(), text);
        assert_eq!(dem.num_detectors(), 3);
        assert_eq!(dem.num_observables(), 2);
        assert_eq!(dem.len(), 2);
        assert!(dem.errors().iter().all(|e| e.witness.is_empty()));
    }

    #[test]
    fn parse_skips_comments_and_keeps_duplicates() {
        let text = "# comment\n\nerror(0.1) D0 L0   # trailing\nerror(0.2) D0 L0\n";
        let dem = DetectorErrorModel::parse(text).unwrap();
        assert_eq!(dem.len(), 2, "parsed models are not merged");
        assert_eq!(dem.errors()[0].probability, 0.1);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(DetectorErrorModel::parse("error(2) D0").is_err());
        assert!(DetectorErrorModel::parse("error(0.1) Q0").is_err());
        assert!(DetectorErrorModel::parse("oops").is_err());
        assert!(DetectorErrorModel::parse("detector(1) D0 D1").is_err());
        assert!(DetectorErrorModel::parse("error 0.1 D0").is_err());
    }

    #[test]
    fn parse_xor_combines_repeated_targets() {
        // `D0 D0` cancels, like repeated lookbacks in a DETECTOR.
        let dem = DetectorErrorModel::parse("error(0.1) D0 D0 D1 L0\n").unwrap();
        assert_eq!(dem.errors()[0].detectors, vec![1]);
    }
}
