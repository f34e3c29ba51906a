//! Bounded minimum-weight undetectable-logical-error search over a
//! [`DetectorErrorModel`] — the analyzer's circuit-distance probe.
//!
//! A set of mechanisms is an *undetectable logical error* when the XOR
//! of its symptoms leaves every detector silent but flips at least one
//! observable. The least number of mechanisms achieving that is an upper
//! bound on the circuit distance, and certifying that no set of ≤ k
//! mechanisms achieves it proves `distance > k`.
//!
//! # Search
//!
//! Weight-layered BFS over states `(syndrome, observable mask)`:
//!
//! * **Starts**: every mechanism that flips an observable. Any solution
//!   set contains one (its total observable mask is nonzero), and the
//!   canonical reordering below lets it go first.
//! * **Expansion**: from a state with nonempty syndrome, only mechanisms
//!   incident to the **lowest active detector** are applied. This is
//!   complete by a parity argument: in a solution set `M`, detector `d`
//!   sees an even number of incident mechanisms; any proper prefix `P`
//!   with `d` active has odd incidence on `d`, so `M \ P` contains
//!   another mechanism incident to `d` — a valid next step. Hence every
//!   solution set has an ordering the BFS walks, and the first solution
//!   found is minimum-weight.
//! * **States that reach an empty syndrome** with a zero mask are
//!   discarded: if a prefix cancels to nothing, the remaining mechanisms
//!   form a smaller solution that another BFS path finds.
//! * **Dedup**: first path to a `(syndrome, mask)` state wins — any
//!   completion of one completes the other at the same weight.
//!
//! The search is capped twice: by `max_weight` (the `distance > k`
//! certificate) and by a node budget (the explicit [`Distance::Clamped`]
//! marker — the same contract as the optimizer's `Verified { clamped }`).

use std::collections::HashMap;

use symphase_core::{xor_sorted, DetectorErrorModel};

use crate::dem_graph::DemGraph;

/// A concrete undetectable logical error: mechanism indices into the
/// model, and the observables their combination flips.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSet {
    /// Sorted mechanism indices.
    pub mechanisms: Vec<usize>,
    /// Sorted observable indices the set flips (nonempty).
    pub observables: Vec<u32>,
}

impl FaultSet {
    /// Number of mechanisms in the set.
    pub fn weight(&self) -> usize {
        self.mechanisms.len()
    }
}

/// Outcome of the bounded search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Distance {
    /// A minimum-weight undetectable logical error within the cap: the
    /// circuit distance is **exactly** `fault_set.weight()` if the cap
    /// was not binding below it, and at most that weight regardless.
    UpperBound {
        /// The minimum-weight fault set found.
        fault_set: FaultSet,
    },
    /// Exhaustive up to the cap: every mechanism set of weight ≤
    /// `max_weight` either fires a detector or flips no observable.
    AboveWeight {
        /// The searched weight cap.
        max_weight: usize,
    },
    /// The node budget ran out: weights ≤ `completed_weight` are fully
    /// searched (no solution there), heavier ones are unknown.
    Clamped {
        /// Largest exhaustively searched weight.
        completed_weight: usize,
    },
    /// The model flips no observable anywhere — distance is undefined.
    NoObservables,
}

/// Upper bound on visited search states before reporting
/// [`Distance::Clamped`]. Syndromes in memory-experiment models are a few
/// u32s, so this bounds memory at tens of MB and debug-mode time at a few
/// seconds.
pub const DEFAULT_NODE_BUDGET: usize = 400_000;

#[derive(Clone, PartialEq, Eq, Hash)]
struct StateKey {
    syndrome: Vec<u32>,
    mask: u64,
}

struct Node {
    key: StateKey,
    mechanism: usize,
    parent: Option<usize>,
}

/// Searches for a minimum-weight undetectable logical error of at most
/// `max_weight` mechanisms, visiting at most ~`node_budget` states.
///
/// Requires `dem.num_observables() <= 64` (observable sets are tracked
/// as a mask); callers must reject larger models before searching.
pub fn min_weight_logical_error(
    dem: &DetectorErrorModel,
    max_weight: usize,
    node_budget: usize,
) -> Distance {
    let graph = DemGraph::new(dem);
    let errors = dem.errors();
    let masks: Vec<u64> = errors
        .iter()
        .map(|e| e.observables.iter().fold(0u64, |m, &o| m | (1 << o)))
        .collect();
    if masks.iter().all(|&m| m == 0) {
        return Distance::NoObservables;
    }
    if max_weight == 0 {
        return Distance::AboveWeight { max_weight: 0 };
    }

    let mut nodes: Vec<Node> = Vec::new();
    let mut seen: HashMap<StateKey, ()> = HashMap::new();
    let mut frontier: Vec<usize> = Vec::new();

    // Weight-1 layer: each observable-flipping mechanism is a start.
    for (i, e) in errors.iter().enumerate() {
        if masks[i] == 0 {
            continue;
        }
        let key = StateKey {
            syndrome: e.detectors.clone(),
            mask: masks[i],
        };
        if key.syndrome.is_empty() {
            // A single silent, observable-flipping mechanism: distance 1.
            return Distance::UpperBound {
                fault_set: FaultSet {
                    mechanisms: vec![i],
                    observables: e.observables.clone(),
                },
            };
        }
        if seen.insert(key.clone(), ()).is_none() {
            nodes.push(Node {
                key,
                mechanism: i,
                parent: None,
            });
            frontier.push(nodes.len() - 1);
        }
    }

    for weight in 2..=max_weight {
        let mut next: Vec<usize> = Vec::new();
        let mut solution: Option<(StateKey, usize, usize)> = None; // (key, mech, parent)
        'expand: for &ni in &frontier {
            let (syndrome, mask) = {
                let n = &nodes[ni];
                (n.key.syndrome.clone(), n.key.mask)
            };
            let lowest = syndrome[0];
            for &m in graph.incident(lowest) {
                let e = &errors[m];
                let mut new_syndrome = syndrome.clone();
                xor_sorted(&mut new_syndrome, &e.detectors);
                let new_mask = mask ^ masks[m];
                if new_syndrome.is_empty() {
                    if new_mask != 0 {
                        solution = Some((
                            StateKey {
                                syndrome: new_syndrome,
                                mask: new_mask,
                            },
                            m,
                            ni,
                        ));
                        // Any solution in this layer is minimum-weight;
                        // stop expanding.
                        break 'expand;
                    }
                    continue; // cancelled to nothing: a smaller solution covers it
                }
                let key = StateKey {
                    syndrome: new_syndrome,
                    mask: new_mask,
                };
                if seen.contains_key(&key) {
                    continue;
                }
                seen.insert(key.clone(), ());
                nodes.push(Node {
                    key,
                    mechanism: m,
                    parent: Some(ni),
                });
                next.push(nodes.len() - 1);
                if nodes.len() >= node_budget {
                    return Distance::Clamped {
                        completed_weight: weight - 1,
                    };
                }
            }
        }
        if let Some((key, mechanism, parent)) = solution {
            let mut mechanisms = vec![mechanism];
            let mut at = Some(parent);
            while let Some(ni) = at {
                mechanisms.push(nodes[ni].mechanism);
                at = nodes[ni].parent;
            }
            mechanisms.sort_unstable();
            debug_assert_eq!(mechanisms.len(), weight);
            let observables: Vec<u32> = (0..64).filter(|o| key.mask & (1 << o) != 0).collect();
            return Distance::UpperBound {
                fault_set: FaultSet {
                    mechanisms,
                    observables,
                },
            };
        }
        if next.is_empty() {
            // The whole reachable space is exhausted below the cap.
            return Distance::AboveWeight { max_weight };
        }
        frontier = next;
    }
    Distance::AboveWeight { max_weight }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphase_core::DetectorErrorModel;

    fn search(text: &str, max_weight: usize) -> Distance {
        let dem = DetectorErrorModel::parse(text).unwrap();
        min_weight_logical_error(&dem, max_weight, DEFAULT_NODE_BUDGET)
    }

    #[test]
    fn single_silent_logical_is_distance_one() {
        let d = search("error(0.1) L0\nerror(0.1) D0 L0\n", 5);
        let Distance::UpperBound { fault_set } = d else {
            panic!("{d:?}");
        };
        assert_eq!(fault_set.weight(), 1);
        assert_eq!(fault_set.observables, vec![0]);
    }

    #[test]
    fn repetition_chain_distance_equals_length() {
        // D0 - D1 - D2 boundary-to-boundary chain: L0 sits on one end;
        // crossing the whole chain needs all 4 mechanisms.
        let text = "error(0.1) D0 L0\nerror(0.1) D0 D1\nerror(0.1) D1 D2\nerror(0.1) D2\n";
        let d = search(text, 5);
        let Distance::UpperBound { fault_set } = d else {
            panic!("{d:?}");
        };
        assert_eq!(fault_set.weight(), 4);
        assert_eq!(fault_set.mechanisms, vec![0, 1, 2, 3]);
        // And the cap certifies distance > 3 when set below.
        assert_eq!(search(text, 3), Distance::AboveWeight { max_weight: 3 });
    }

    #[test]
    fn cancelling_pair_is_not_a_solution() {
        // Two identical-symptom mechanisms XOR to total silence — the
        // observable cancels along with the detector, so no solution.
        let text = "error(0.1) D0 L0\nerror(0.2) D0 L0\n";
        assert_eq!(search(text, 4), Distance::AboveWeight { max_weight: 4 });
    }

    #[test]
    fn opposite_observables_make_weight_two() {
        // Two mechanisms share D0 but only one flips L0.
        let d = search("error(0.1) D0 L0\nerror(0.1) D0\n", 5);
        let Distance::UpperBound { fault_set } = d else {
            panic!("{d:?}");
        };
        assert_eq!(fault_set.mechanisms, vec![0, 1]);
        assert_eq!(fault_set.observables, vec![0]);
    }

    #[test]
    fn no_observables_reported() {
        assert_eq!(search("error(0.1) D0\n", 5), Distance::NoObservables);
    }

    #[test]
    fn node_budget_clamps() {
        // One start state fans out to 15 distinct weight-2 states, which
        // overflows a 10-node budget mid-layer.
        let mut text = String::from("error(0.01) D0 L0\n");
        for b in 1..=15u32 {
            text.push_str(&format!("error(0.01) D0 D{b}\n"));
        }
        let dem = DetectorErrorModel::parse(&text).unwrap();
        let d = min_weight_logical_error(&dem, 6, 10);
        assert!(
            matches!(
                d,
                Distance::Clamped {
                    completed_weight: 1
                }
            ),
            "{d:?}"
        );
    }
}
