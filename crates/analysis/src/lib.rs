//! Static analysis for SymPhase circuits: the library behind
//! `symphase lint` and `symphase analyze`.
//!
//! Four analysis families feed one [`Diagnostic`] stream:
//!
//! * **Tableau-dataflow liveness** ([`liveness`]): a backward pass over
//!   per-qubit Pauli-component masks, propagated through
//!   [`Gate::conjugate`](symphase_circuit::Gate::conjugate), that proves
//!   gates (`SP001`) and noise channels (`SP002`) unable to affect any
//!   measurement, detector, or observable. `REPEAT` bodies are analyzed
//!   once to a join fixpoint, so the pass is O(file) whatever the trip
//!   counts.
//! * **Symbolic constant detection** ([`symbolic`]): reuses the sparse
//!   symbolic initialization to flag detectors whose expression is
//!   constant (`SP003`) and observables that are deterministic (`SP004`).
//! * **Structural lints** ([`structural`]): unused qubits (`SP005`),
//!   probability-zero channels (`SP008`), duplicate detectors (`SP009`),
//!   and shadowed `ELSE_CORRELATED_ERROR` elements (`SP010`).
//! * **DEM-level analysis** ([`dem_graph`], [`distance`], entered
//!   through [`analyze_circuit`]/[`analyze_model`]): the extracted
//!   detector error model is checked as a hypergraph — undecomposable
//!   hyperedges (`SP012`), disconnected detectors (`SP013`), dominated
//!   mechanisms (`SP014`) — and a bounded minimum-weight search reports
//!   undetectable logical errors (`SP015`). Every `SP015` fault set is
//!   discharged by fault injection before it is reported; a claim the
//!   verifier cannot confirm is withdrawn as an internal `SP101`.
//!
//! Parse/validation failures surface as error-severity diagnostics
//! (`SP000`, `SP006`, `SP007`) through [`lint_text`] — a valid
//! [`Circuit`] cannot contain them, so they never come out of [`lint`].
//!
//! The dead-code findings are *verified* findings: [`verify`] re-checks
//! them against the symbolic initialization (removing every flagged gate
//! must leave the measurement/detector/observable matrices identical;
//! every flagged noise channel's symbols must be absent from the
//! detector and observable rows), and the test suite runs those checks
//! over the fixture corpus and the built-in generators.

use std::fmt;

use symphase_circuit::{Circuit, Instruction, SourceMap};
use symphase_core::{DetectorErrorModel, SymbolId, SymbolicRecords};

pub mod dem_graph;
pub mod distance;
pub mod liveness;
pub mod opt;
pub mod rewrite;
pub mod structural;
pub mod symbolic;
pub mod verify;

pub use dem_graph::{DemGraph, GraphSummary};
pub use distance::{min_weight_logical_error, Distance, FaultSet};
pub use opt::{
    optimize, optimize_with, OptConfig, OptReport, OptResult, Pass, PassStats, ProofStatus,
    RewriteProof,
};

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but well-formed circuit structure.
    Warning,
    /// The input is not a valid circuit.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`"SP001"`, …); see [`CODES`].
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// 1-based source line, when the finding maps to one. `None` for
    /// circuit-level findings (e.g. an unused qubit) and for circuits
    /// built programmatically rather than parsed.
    pub line: Option<usize>,
    /// Structural path of the offending instruction: indices into nested
    /// instruction lists, outermost first. Empty for circuit-level
    /// findings.
    pub path: Vec<usize>,
    /// Human-readable description of this specific finding.
    pub message: String,
    /// Code-level guidance on how to fix it.
    pub help: &'static str,
    /// Structured machine-readable detail, for findings whose substance
    /// is a set of indices rather than a source span (the DEM-level
    /// codes `SP012`–`SP015`). `None` for all other codes.
    pub payload: Option<Payload>,
}

/// Structured payload of a DEM-level diagnostic. Rendered as a JSON
/// object (with a `kind` discriminator) by [`render_json`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// A set of error mechanisms and their shared symptom
    /// (`SP012`: the undecomposable hyperedge; `SP014`: the dominated
    /// group).
    Mechanisms {
        /// Mechanism indices into the model's canonical order, sorted.
        indices: Vec<usize>,
        /// Detectors of the shared symptom.
        detectors: Vec<u32>,
        /// Observables of the shared symptom.
        observables: Vec<u32>,
    },
    /// A single detector (`SP013`).
    Detector {
        /// The disconnected detector's index.
        index: u32,
    },
    /// An undetectable logical error (`SP015`).
    FaultSet {
        /// Number of mechanisms in the set.
        weight: usize,
        /// Mechanism indices into the model's canonical order, sorted.
        mechanisms: Vec<usize>,
        /// Observables the set flips, sorted.
        observables: Vec<u32>,
        /// Fault symbols injected to discharge the claim (XOR of the
        /// mechanisms' witnesses); empty when the model was parsed from
        /// a file and carries no witnesses.
        symbols: Vec<SymbolId>,
        /// Whether fault injection confirmed the claim. `false` only for
        /// parsed models, where no circuit exists to inject into — an
        /// extracted model's failed confirmation withdraws the finding
        /// instead (`SP101`).
        verified: bool,
        /// Whether the analyzed circuit was trip-count-clamped first, so
        /// the claim speaks about the clamped circuit.
        clamped: bool,
    },
}

/// Catalog of every diagnostic code: `(code, slug, help)`.
///
/// `docs/lint.md` documents each entry; the fixture corpus under
/// `tests/lint/` exercises each with a positive and a negative case.
pub const CODES: &[(&str, &str, &str)] = &[
    (
        "SP000",
        "parse-error",
        "fix the syntax error; see docs/formats.md for the accepted grammar",
    ),
    (
        "SP001",
        "dead-gate",
        "remove the gate, or check that the intended qubits are targeted",
    ),
    (
        "SP002",
        "dead-noise",
        "remove the channel, or add detectors covering the qubits it faults",
    ),
    (
        "SP003",
        "vacuous-detector",
        "check the rec[-k] offsets: the detector compares measurements whose symbolic difference is a constant",
    ),
    (
        "SP004",
        "deterministic-observable",
        "check the rec[-k] offsets: no noise or randomness reaches this observable",
    ),
    (
        "SP005",
        "unused-qubit",
        "remove the qubit from QUBIT_COORDS or renumber the remaining qubits contiguously",
    ),
    (
        "SP006",
        "record-out-of-range",
        "reduce the rec[-k] offset or move the instruction after enough measurements",
    ),
    (
        "SP007",
        "repeated-mpp-qubit",
        "merge the factors acting on the qubit into a single Pauli factor",
    ),
    (
        "SP008",
        "zero-probability-channel",
        "remove the channel or give it a nonzero probability",
    ),
    (
        "SP009",
        "duplicate-detector",
        "remove one of the detectors comparing the same measurement set",
    ),
    (
        "SP010",
        "shadowed-else",
        "an earlier element of the E/ELSE chain fires with probability 1, so this element never fires; drop it or lower the earlier probability",
    ),
    (
        "SP011",
        "fusable-clifford-run",
        "adjacent single-qubit Clifford gates compose to a shorter canonical word; fuse them by hand or run `symphase opt`",
    ),
    (
        "SP012",
        "undecomposable-hyperedge",
        "matching decoders need every hyperedge to split into graphlike (≤ 2-detector) mechanisms already in the model; add the missing component mechanisms or use a hypergraph decoder",
    ),
    (
        "SP013",
        "disconnected-detector",
        "no error mechanism flips this detector, so it can never fire; remove it or add noise on the qubits it checks",
    ),
    (
        "SP014",
        "dominated-mechanism",
        "mechanisms with identical detector/observable signatures should be merged into one with XOR-combined probability",
    ),
    (
        "SP015",
        "undetectable-logical-error",
        "the listed mechanisms flip a logical observable while leaving every detector silent; the circuit distance is at most their count",
    ),
];

/// Short kebab-case name of a diagnostic code.
#[must_use]
pub fn slug(code: &str) -> Option<&'static str> {
    CODES
        .iter()
        .find(|(c, _, _)| *c == code)
        .map(|(_, s, _)| *s)
}

/// Whether `code` names a known diagnostic.
#[must_use]
pub fn is_known_code(code: &str) -> bool {
    CODES.iter().any(|(c, _, _)| *c == code)
}

fn help_for(code: &str) -> &'static str {
    CODES
        .iter()
        .find(|(c, _, _)| *c == code)
        .map(|(_, _, h)| *h)
        .expect("diagnostic codes come from the catalog")
}

pub(crate) fn diag(code: &'static str, path: &[usize], message: String) -> Diagnostic {
    Diagnostic {
        code,
        severity: Severity::Warning,
        line: None,
        path: path.to_vec(),
        message,
        help: help_for(code),
        payload: None,
    }
}

/// Lints a circuit, returning all findings sorted by source position.
///
/// This is the library entry the CLI (and the future pre-simulation
/// optimizer) consume. Line numbers are absent — parse with
/// [`Circuit::parse_with_sources`] and use [`lint_with_sources`] (or
/// [`lint_text`]) to attach them.
#[must_use]
pub fn lint(circuit: &Circuit) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    liveness::dead_code_lints(circuit, &mut diags);
    structural::structural_lints(circuit, &mut diags);
    symbolic::symbolic_lints(circuit, &mut diags);
    rewrite::fusable_run_lints(circuit, &mut diags);
    sort_diags(&mut diags);
    diags
}

/// Lints a circuit and resolves each finding's structural path to its
/// source line through `sources`.
#[must_use]
pub fn lint_with_sources(circuit: &Circuit, sources: &SourceMap) -> Vec<Diagnostic> {
    let mut diags = lint(circuit);
    for d in &mut diags {
        d.line = sources.line_at(&d.path);
    }
    sort_diags(&mut diags);
    diags
}

/// Parses and lints circuit text. Parse and validation failures are
/// reported as error-severity diagnostics (`SP000`/`SP006`/`SP007`)
/// instead of a `Result`, so callers render one uniform stream.
#[must_use]
pub fn lint_text(text: &str) -> Vec<Diagnostic> {
    match Circuit::parse_with_sources(text) {
        Ok((circuit, sources)) => lint_with_sources(&circuit, &sources),
        Err(e) => {
            // Classify validation failures that have dedicated codes; a
            // valid `Circuit` cannot contain these, so they only ever
            // surface here.
            let code = if e.message.contains("reaches before the start of the record")
                || e.message.contains("REPEAT body reaches")
            {
                "SP006"
            } else if e.message.contains("repeats qubit") {
                "SP007"
            } else {
                "SP000"
            };
            vec![Diagnostic {
                code,
                severity: Severity::Error,
                line: Some(e.line),
                path: Vec::new(),
                message: e.message,
                help: help_for(code),
                payload: None,
            }]
        }
    }
}

fn sort_diags(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.line.unwrap_or(usize::MAX), a.code, &a.message).cmp(&(
            b.line.unwrap_or(usize::MAX),
            b.code,
            &b.message,
        ))
    });
}

/// Renders findings as human-readable text, one finding per line plus a
/// help line:
///
/// ```text
/// warning[SP001] line 4: dead gate: H 2 cannot affect any measurement, detector, or observable
///   = help: remove the gate, or check that the intended qubits are targeted
/// ```
#[must_use]
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!("{}[{}]", d.severity, d.code));
        if let Some(line) = d.line {
            out.push_str(&format!(" line {line}"));
        }
        out.push_str(&format!(": {}\n  = help: {}\n", d.message, d.help));
    }
    out
}

/// Renders findings as a JSON array (stable field order, one object per
/// finding): `code`, `slug`, `severity`, `line` (null when absent),
/// `path`, `message`, `help`, `payload` (null, or an object with a
/// `kind` discriminator for the DEM-level codes).
#[must_use]
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"code\":{},\"slug\":{},\"severity\":{},\"line\":{},\"path\":[{}],\"message\":{},\"help\":{},\"payload\":{}}}",
            json_str(d.code),
            json_str(slug(d.code).unwrap_or("")),
            json_str(&d.severity.to_string()),
            d.line.map_or("null".to_string(), |l| l.to_string()),
            d.path
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(","),
            json_str(&d.message),
            json_str(d.help),
            d.payload
                .as_ref()
                .map_or("null".to_string(), render_payload),
        ));
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

fn render_payload(p: &Payload) -> String {
    fn list<T: fmt::Display>(xs: &[T]) -> String {
        xs.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
    match p {
        Payload::Mechanisms {
            indices,
            detectors,
            observables,
        } => format!(
            "{{\"kind\":\"mechanisms\",\"indices\":[{}],\"detectors\":[{}],\"observables\":[{}]}}",
            list(indices),
            list(detectors),
            list(observables),
        ),
        Payload::Detector { index } => {
            format!("{{\"kind\":\"detector\",\"index\":{index}}}")
        }
        Payload::FaultSet {
            weight,
            mechanisms,
            observables,
            symbols,
            verified,
            clamped,
        } => format!(
            "{{\"kind\":\"fault-set\",\"weight\":{},\"mechanisms\":[{}],\"observables\":[{}],\"symbols\":[{}],\"verified\":{},\"clamped\":{}}}",
            weight,
            list(mechanisms),
            list(observables),
            list(symbols),
            verified,
            clamped,
        ),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Internal-diagnostic code for a withdrawn distance claim. Deliberately
/// not in [`CODES`]: it reports an analyzer bug (the search proposed a
/// fault set that fault injection could not confirm), not a property of
/// the user's circuit, so it has no fixture pair and cannot be
/// `--deny`ed into existence by circuit text.
pub const WITHDRAWN_CODE: &str = "SP101";

const WITHDRAWN_HELP: &str = "internal: the distance search reported a fault set that \
     fault-injection verification could not confirm; the claim was withdrawn — please report \
     this as an analyzer bug";

/// Knobs for [`analyze_circuit`]/[`analyze_model`].
#[derive(Clone, Debug)]
pub struct AnalyzeConfig {
    /// Weight cap of the distance search: reaching no undetectable
    /// logical error certifies `distance > max_weight`.
    pub max_weight: usize,
    /// State cap of the distance search; hitting it reports
    /// [`Distance::Clamped`].
    pub node_budget: usize,
    /// Test-only: corrupt the fault-injection symbol set before
    /// verification, so the verifier must reject the (correct) claim and
    /// the withdraw path runs. Never set outside tests.
    #[doc(hidden)]
    pub broken_verify: bool,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            max_weight: 5,
            node_budget: distance::DEFAULT_NODE_BUDGET,
            broken_verify: false,
        }
    }
}

/// Everything `symphase analyze` prints: the extracted (or parsed)
/// model, its hypergraph census, the distance search outcome, and the
/// DEM-level diagnostics.
#[derive(Clone, Debug)]
pub struct AnalyzeReport {
    /// The analyzed model.
    pub dem: DetectorErrorModel,
    /// Hypergraph census from [`DemGraph::lints`].
    pub summary: GraphSummary,
    /// Raw distance search outcome. When [`withdrawn`](Self::withdrawn)
    /// is set, this claim failed verification and must be ignored.
    pub distance: Distance,
    /// Whether a reported fault set was confirmed by fault injection.
    /// `false` when the search found none, or the model was parsed from
    /// a file (nothing to inject into).
    pub verified: bool,
    /// Whether a reported fault set FAILED verification and the distance
    /// claim was withdrawn (`SP101` in [`diagnostics`](Self::diagnostics)).
    pub withdrawn: bool,
    /// Whether the circuit was trip-count-clamped before extraction, so
    /// every claim speaks about the clamped circuit.
    pub clamped: bool,
    /// `SP012`–`SP015` findings (plus `SP101` on a withdraw), sorted.
    pub diagnostics: Vec<Diagnostic>,
}

/// Extracts the circuit's detector error model and analyzes it:
/// hypergraph lints, bounded distance search, and fault-injection
/// verification of any reported fault set against the same circuit.
///
/// Circuits whose flattened work exceeds the symbolic budget are
/// REPEAT-clamped first (reported via [`AnalyzeReport::clamped`]), so
/// the cost stays O(file). Errors when the circuit is too large even
/// after clamping, or tracks more than 64 observables.
pub fn analyze_circuit(circuit: &Circuit, config: &AnalyzeConfig) -> Result<AnalyzeReport, String> {
    let clamped_circuit;
    let (target, clamped) = if symbolic::work(circuit) <= symbolic::MAX_SYMBOLIC_WORK {
        (circuit, false)
    } else {
        match symbolic::clamp_circuit(circuit) {
            Some(c) if symbolic::work(&c) <= symbolic::MAX_SYMBOLIC_WORK => {
                clamped_circuit = c;
                (&clamped_circuit, true)
            }
            _ => {
                return Err(
                    "circuit is too large to analyze even after clamping REPEAT counts".into(),
                )
            }
        }
    };
    let records = SymbolicRecords::new(target);
    let dem = records
        .detector_error_model()
        .with_detector_coords(target.detector_coordinates());
    analyze(dem, config, Some(target), clamped)
}

/// Analyzes a model parsed from a `.dem` file. No circuit exists to
/// inject faults into, so any reported fault set carries
/// `verified: false` in its payload. Errors when the model tracks more
/// than 64 observables.
pub fn analyze_model(
    dem: DetectorErrorModel,
    config: &AnalyzeConfig,
) -> Result<AnalyzeReport, String> {
    analyze(dem, config, None, false)
}

/// The DEM-level diagnostics of a circuit under the default
/// [`AnalyzeConfig`], as one sorted stream — the `symphase analyze`
/// counterpart of [`lint`]. Returns no findings for circuits the
/// analyzer cannot take on (too large even after clamping, or more than
/// 64 observables).
#[must_use]
pub fn analyze_dem(circuit: &Circuit) -> Vec<Diagnostic> {
    analyze_circuit(circuit, &AnalyzeConfig::default())
        .map(|r| r.diagnostics)
        .unwrap_or_default()
}

fn analyze(
    dem: DetectorErrorModel,
    config: &AnalyzeConfig,
    inject: Option<&Circuit>,
    clamped: bool,
) -> Result<AnalyzeReport, String> {
    if dem.num_observables() > 64 {
        return Err(format!(
            "the model tracks {} observables; the distance search supports at most 64",
            dem.num_observables()
        ));
    }
    let mut diagnostics = Vec::new();
    let graph = DemGraph::new(&dem);
    let summary = graph.lints(&mut diagnostics);
    let dist = distance::min_weight_logical_error(&dem, config.max_weight, config.node_budget);

    let mut verified = false;
    let mut withdrawn = false;
    if let Distance::UpperBound { fault_set } = &dist {
        // XOR of the mechanisms' witness symbol sets: by linearity of
        // the symbolic rows, firing exactly these symbols produces the
        // XOR of the mechanisms' symptoms.
        let mut symbols: Vec<SymbolId> = Vec::new();
        for &m in &fault_set.mechanisms {
            for &s in &dem.errors()[m].witness {
                match symbols.binary_search(&s) {
                    Ok(pos) => {
                        symbols.remove(pos);
                    }
                    Err(pos) => symbols.insert(pos, s),
                }
            }
        }
        let outcome = match inject {
            Some(circuit) => {
                let mut injected = symbols.clone();
                if config.broken_verify {
                    injected.pop();
                }
                Some(verify::fault_set_check(
                    circuit,
                    &injected,
                    &fault_set.observables,
                ))
            }
            None => None,
        };
        match outcome {
            Some(Err(reason)) => {
                withdrawn = true;
                diagnostics.push(Diagnostic {
                    code: WITHDRAWN_CODE,
                    severity: Severity::Error,
                    line: None,
                    path: Vec::new(),
                    message: format!(
                        "distance claim withdrawn: fault injection of the reported weight-{} set \
                         failed verification: {reason}",
                        fault_set.weight()
                    ),
                    help: WITHDRAWN_HELP,
                    payload: None,
                });
            }
            outcome => {
                verified = matches!(outcome, Some(Ok(())));
                let obs: Vec<String> = fault_set
                    .observables
                    .iter()
                    .map(|o| format!("L{o}"))
                    .collect();
                let scope = if clamped {
                    " of the clamped circuit"
                } else {
                    ""
                };
                let mut d = diag(
                    "SP015",
                    &[],
                    format!(
                        "undetectable logical error: {} mechanism{} flip{} {} while every detector \
                         stays silent (circuit distance{scope} is at most {})",
                        fault_set.weight(),
                        if fault_set.weight() == 1 { "" } else { "s" },
                        if fault_set.weight() == 1 { "s" } else { "" },
                        obs.join(" "),
                        fault_set.weight(),
                    ),
                );
                d.payload = Some(Payload::FaultSet {
                    weight: fault_set.weight(),
                    mechanisms: fault_set.mechanisms.clone(),
                    observables: fault_set.observables.clone(),
                    symbols,
                    verified,
                    clamped,
                });
                diagnostics.push(d);
            }
        }
    }
    sort_diags(&mut diagnostics);
    Ok(AnalyzeReport {
        dem,
        summary,
        distance: dist,
        verified,
        withdrawn,
        clamped,
        diagnostics,
    })
}

/// Walks every instruction node once (REPEAT bodies are *not* unrolled),
/// calling `f` with the structural path and the node. Cost is O(file).
pub(crate) fn walk_nodes<'c>(
    instrs: &'c [Instruction],
    path: &mut Vec<usize>,
    f: &mut impl FnMut(&[usize], &'c Instruction),
) {
    for (i, ins) in instrs.iter().enumerate() {
        path.push(i);
        f(path, ins);
        if let Instruction::Repeat { body, .. } = ins {
            walk_nodes(body.instructions(), path, f);
        }
        path.pop();
    }
}

/// Walks instructions in execution order, unrolling REPEAT bodies
/// (`count` passes over the same nodes — the path does not distinguish
/// iterations). Cost is O(flattened); only call this on small or
/// truncated circuits.
pub(crate) fn walk_flat<'c>(
    instrs: &'c [Instruction],
    path: &mut Vec<usize>,
    f: &mut impl FnMut(&[usize], &'c Instruction),
) {
    for (i, ins) in instrs.iter().enumerate() {
        path.push(i);
        if let Instruction::Repeat { count, body } = ins {
            for _ in 0..*count {
                walk_flat(body.instructions(), path, f);
            }
        } else {
            f(path, ins);
        }
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_sorted_and_unique() {
        let codes: Vec<&str> = CODES.iter().map(|(c, _, _)| *c).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted, "codes must be sorted and unique");
        assert!(is_known_code("SP001"));
        assert!(!is_known_code("SP999"));
        assert_eq!(slug("SP001"), Some("dead-gate"));
    }

    #[test]
    fn parse_errors_classify() {
        let d = &lint_text("FROB 0\n")[0];
        assert_eq!((d.code, d.severity), ("SP000", Severity::Error));
        assert_eq!(d.line, Some(1));

        let d = &lint_text("M 0\nDETECTOR rec[-2]\n")[0];
        assert_eq!((d.code, d.severity), ("SP006", Severity::Error));
        assert_eq!(d.line, Some(2));

        let d = &lint_text("REPEAT 3 {\n M 0\n DETECTOR rec[-1] rec[-2]\n}\n")[0];
        assert_eq!(d.code, "SP006");

        let d = &lint_text("MPP X0*Z0\n")[0];
        assert_eq!((d.code, d.severity), ("SP007", Severity::Error));
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        let diags = vec![diag("SP001", &[1, 2], "quote \" here".into())];
        let json = render_json(&diags);
        assert!(json.contains(r#""path":[1,2]"#), "{json}");
        assert!(json.contains(r#""quote \" here""#), "{json}");
        assert!(render_json(&[]).trim() == "[]");
    }
}
