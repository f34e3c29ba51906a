//! The detector hypergraph: structural lints over a
//! [`DetectorErrorModel`].
//!
//! Nodes are detectors; hyperedges are error mechanisms together with
//! their observable masks. This is exactly the structure a matching-based
//! decoder (union-find, MWPM) consumes, and the lints check the
//! properties such a decoder requires:
//!
//! * `SP012` **undecomposable-hyperedge** — a mechanism flipping more
//!   than two detectors that cannot be written as a disjoint union of
//!   *graphlike* mechanisms (≤ 2 detectors) already present in the model,
//!   with matching observable XOR. Matching decoders can only represent
//!   graphlike edges; a `Y`-type hyperedge is fine as long as its `X` and
//!   `Z` components exist as mechanisms of their own.
//! * `SP013` **disconnected-detector** — a detector no mechanism flips.
//!   It can never fire, so it carries no syndrome information and wastes
//!   decoder work every shot. Suppressed when the model has no mechanisms
//!   at all (a noiseless circuit's expected state, mirroring `SP003`).
//! * `SP014` **dominated-mechanism** — two mechanisms with an identical
//!   detector + observable signature. Extraction merges these, so they
//!   only arise in hand-written `.dem` files; the probabilities should be
//!   XOR-combined into one mechanism.

use symphase_core::{xor_sorted, DemError, DetectorErrorModel};

use crate::{diag, Diagnostic, Payload};

/// Adjacency view of a detector error model: per-detector incidence
/// lists over mechanism indices.
pub struct DemGraph<'a> {
    dem: &'a DetectorErrorModel,
    incident: Vec<Vec<usize>>,
}

/// Structural census of a [`DemGraph`], printed by `symphase analyze`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphSummary {
    /// Total mechanisms.
    pub mechanisms: usize,
    /// Mechanisms flipping ≤ 2 detectors.
    pub graphlike: usize,
    /// Mechanisms flipping > 2 detectors.
    pub hyperedges: usize,
    /// Hyperedges with no graphlike decomposition (`SP012`).
    pub undecomposable: usize,
    /// Detectors no mechanism flips (`SP013`).
    pub disconnected: usize,
    /// Mechanisms sharing another mechanism's signature (`SP014`).
    pub dominated: usize,
}

impl<'a> DemGraph<'a> {
    /// Builds the incidence structure. O(total symptom size).
    pub fn new(dem: &'a DetectorErrorModel) -> Self {
        let mut incident = vec![Vec::new(); dem.num_detectors()];
        for (i, e) in dem.errors().iter().enumerate() {
            for &d in &e.detectors {
                incident[d as usize].push(i);
            }
        }
        DemGraph { dem, incident }
    }

    /// The model this graph views.
    pub fn dem(&self) -> &DetectorErrorModel {
        self.dem
    }

    /// Mechanism indices flipping detector `d`.
    pub fn incident(&self, d: u32) -> &[usize] {
        &self.incident[d as usize]
    }

    /// Whether mechanism `i` is graphlike (≤ 2 detectors).
    pub fn graphlike(&self, i: usize) -> bool {
        self.dem.errors()[i].detectors.len() <= 2
    }

    /// Finds a disjoint cover of mechanism `i`'s detector set by
    /// graphlike mechanisms (excluding `i` itself) whose observable
    /// masks XOR to `i`'s, i.e. the decomposition a matching decoder
    /// would use. Returns the chosen mechanism indices, or `None` when
    /// no such cover exists.
    pub fn decompose(&self, i: usize) -> Option<Vec<usize>> {
        let target = &self.dem.errors()[i];
        let mut remaining = target.detectors.clone();
        let mut obs = Vec::new();
        let mut chosen = Vec::new();
        self.cover(
            &mut remaining,
            &mut obs,
            &target.observables,
            i,
            &mut chosen,
        )
        .then_some(chosen)
    }

    /// Exact-cover recursion on the lowest uncovered detector: every
    /// cover of a set must contain exactly one edge through its lowest
    /// element, so branching on that element explores each disjoint
    /// cover once.
    fn cover(
        &self,
        remaining: &mut Vec<u32>,
        obs: &mut Vec<u32>,
        target_obs: &[u32],
        exclude: usize,
        chosen: &mut Vec<usize>,
    ) -> bool {
        let Some(&lowest) = remaining.first() else {
            return obs == target_obs;
        };
        for &m in &self.incident[lowest as usize] {
            if m == exclude || !self.graphlike(m) {
                continue;
            }
            let e = &self.dem.errors()[m];
            if !e
                .detectors
                .iter()
                .all(|d| remaining.binary_search(d).is_ok())
            {
                continue; // not disjoint from the part already covered
            }
            for d in &e.detectors {
                let pos = remaining.binary_search(d).expect("checked above");
                remaining.remove(pos);
            }
            xor_sorted(obs, &e.observables);
            chosen.push(m);
            if self.cover(remaining, obs, target_obs, exclude, chosen) {
                return true;
            }
            chosen.pop();
            xor_sorted(obs, &e.observables);
            for &d in &e.detectors {
                let pos = remaining.binary_search(&d).unwrap_err();
                remaining.insert(pos, d);
            }
        }
        false
    }

    /// Runs all three structural lints, appending findings to `diags`,
    /// and returns the census.
    pub fn lints(&self, diags: &mut Vec<Diagnostic>) -> GraphSummary {
        let mut summary = GraphSummary {
            mechanisms: self.dem.len(),
            ..GraphSummary::default()
        };

        for (i, e) in self.dem.errors().iter().enumerate() {
            if e.detectors.len() <= 2 {
                summary.graphlike += 1;
                continue;
            }
            summary.hyperedges += 1;
            if self.decompose(i).is_none() {
                summary.undecomposable += 1;
                let mut d = diag(
                    "SP012",
                    &[],
                    format!(
                        "undecomposable hyperedge: mechanism {i} ({}) flips {} detectors and has \
                         no disjoint graphlike decomposition in this model",
                        e,
                        e.detectors.len()
                    ),
                );
                d.payload = Some(Payload::Mechanisms {
                    indices: vec![i],
                    detectors: e.detectors.clone(),
                    observables: e.observables.clone(),
                });
                diags.push(d);
            }
        }

        if !self.dem.is_empty() {
            for (d, inc) in self.incident.iter().enumerate() {
                if !inc.is_empty() {
                    continue;
                }
                summary.disconnected += 1;
                let at = self
                    .dem
                    .detector_coords()
                    .get(d)
                    .filter(|c| !c.is_empty())
                    .map(|c| {
                        format!(
                            " (at {})",
                            c.iter()
                                .map(|x| x.to_string())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })
                    .unwrap_or_default();
                let mut diagnostic = diag(
                    "SP013",
                    &[],
                    format!("disconnected detector: no error mechanism flips D{d}{at}"),
                );
                diagnostic.payload = Some(Payload::Detector { index: d as u32 });
                diags.push(diagnostic);
            }
        }

        // Dominated mechanisms: identical (detectors, observables)
        // signatures. Mechanisms are canonically sorted by signature, so
        // duplicates are adjacent — but parsed models keep file order, so
        // compare via a sorted index instead.
        let mut order: Vec<usize> = (0..self.dem.len()).collect();
        order.sort_by(|&a, &b| {
            signature(&self.dem.errors()[a]).cmp(&signature(&self.dem.errors()[b]))
        });
        let mut run = 0usize;
        for k in 1..=order.len() {
            let same = k < order.len()
                && signature(&self.dem.errors()[order[k]])
                    == signature(&self.dem.errors()[order[run]]);
            if same {
                continue;
            }
            if k - run > 1 {
                let mut indices: Vec<usize> = order[run..k].to_vec();
                indices.sort_unstable();
                summary.dominated += k - run;
                let e = &self.dem.errors()[indices[0]];
                let sig: Vec<String> = e
                    .detectors
                    .iter()
                    .map(|d| format!("D{d}"))
                    .chain(e.observables.iter().map(|o| format!("L{o}")))
                    .collect();
                let mut d = diag(
                    "SP014",
                    &[],
                    format!(
                        "dominated mechanisms: {} mechanisms share the signature `{}`; their \
                         probabilities should XOR-merge into one",
                        indices.len(),
                        sig.join(" "),
                    ),
                );
                d.payload = Some(Payload::Mechanisms {
                    indices,
                    detectors: e.detectors.clone(),
                    observables: e.observables.clone(),
                });
                diags.push(d);
            }
            run = k;
        }

        summary
    }
}

fn signature(e: &DemError) -> (&[u32], &[u32]) {
    (&e.detectors, &e.observables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphase_core::DetectorErrorModel;

    fn lint_model(text: &str) -> (Vec<Diagnostic>, GraphSummary) {
        let dem = DetectorErrorModel::parse(text).unwrap();
        let graph = DemGraph::new(&dem);
        let mut diags = Vec::new();
        let summary = graph.lints(&mut diags);
        (diags, summary)
    }

    #[test]
    fn decomposable_hyperedge_is_clean() {
        // D0 D1 D2 L0 = (D0 D1) + (D2 L0): a Y error whose X and Z parts
        // exist as mechanisms.
        let (diags, summary) =
            lint_model("error(0.1) D0 D1 D2 L0\nerror(0.1) D0 D1\nerror(0.1) D2 L0\n");
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(summary.hyperedges, 1);
        assert_eq!(summary.undecomposable, 0);
    }

    #[test]
    fn observable_mismatch_blocks_decomposition() {
        // Same detector cover exists, but its observable XOR is L0 while
        // the hyperedge flips nothing — the decomposition would corrupt
        // the logical frame.
        let (diags, _) = lint_model("error(0.1) D0 D1 D2\nerror(0.1) D0 D1\nerror(0.1) D2 L0\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SP012");
        assert!(matches!(diags[0].payload, Some(Payload::Mechanisms { .. })));
    }

    #[test]
    fn missing_component_is_undecomposable() {
        let (diags, summary) = lint_model("error(0.1) D0 D1 D2\nerror(0.1) D0 D1\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SP012");
        assert_eq!(summary.undecomposable, 1);
    }

    #[test]
    fn disconnected_detector_found_via_coords() {
        let (diags, summary) = lint_model("detector(7, 0) D1\nerror(0.1) D0\nerror(0.1) D2 L0\n");
        let sp013: Vec<_> = diags.iter().filter(|d| d.code == "SP013").collect();
        assert_eq!(sp013.len(), 1);
        assert!(sp013[0].message.contains("D1"));
        assert!(sp013[0].message.contains("at 7, 0"));
        assert_eq!(sp013[0].payload, Some(Payload::Detector { index: 1 }));
        assert_eq!(summary.disconnected, 1);
    }

    #[test]
    fn empty_model_suppresses_disconnected() {
        let dem = DetectorErrorModel::parse("detector(0, 0) D0\n").unwrap();
        let mut diags = Vec::new();
        DemGraph::new(&dem).lints(&mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dominated_mechanisms_share_signature() {
        let (diags, summary) =
            lint_model("error(0.1) D0 D1 L0\nerror(0.2) D0 D1 L0\nerror(0.1) D0 D1\n");
        let sp014: Vec<_> = diags.iter().filter(|d| d.code == "SP014").collect();
        assert_eq!(sp014.len(), 1);
        assert_eq!(
            sp014[0].payload,
            Some(Payload::Mechanisms {
                indices: vec![0, 1],
                detectors: vec![0, 1],
                observables: vec![0],
            })
        );
        assert_eq!(summary.dominated, 2);
    }

    #[test]
    fn chained_decomposition_recurses() {
        // Weight-4 hyperedge needs two graphlike edges.
        let (diags, summary) =
            lint_model("error(0.1) D0 D1 D2 D3 L1\nerror(0.1) D0 D2 L1\nerror(0.1) D1 D3\n");
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(summary.hyperedges, 1);
        assert_eq!(summary.graphlike, 2);
    }
}
