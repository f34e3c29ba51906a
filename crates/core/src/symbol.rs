//! Bit-symbols and their sampling distributions (paper §3.1).
//!
//! Symbols come from two sources: *coins* introduced by random measurement
//! outcomes (sampled fair), and *fault symbols* introduced by noise channels
//! (sampled with the channel's joint distribution — e.g. `DEPOLARIZE1`
//! introduces a pair `(s_x, s_z)` valued `00, 10, 11, 01` with probabilities
//! `1−p, p/3, p/3, p/3`).

use rand::Rng;

use symphase_backend::noise::{self, FaultSink, NoiseScratch, NoiseSite};
use symphase_bitmat::bernoulli::fill_bernoulli;
use symphase_bitmat::BitMatrix;

/// Identifier of a bit-symbol: its column index in phase vectors.
/// Index 0 is reserved for the constant `s₀ = 1` (paper §3.2.1), so real
/// symbols start at 1.
pub type SymbolId = u32;

/// A group of symbols sampled jointly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SymbolGroup {
    /// A fair coin from a random measurement outcome.
    Coin {
        /// The symbol.
        id: SymbolId,
    },
    /// A single Bernoulli symbol from an `X/Y/Z_ERROR(p)` fault.
    Bernoulli {
        /// The symbol.
        id: SymbolId,
        /// Fault probability.
        p: f64,
    },
    /// `DEPOLARIZE1(p)`: `X^{s_x} Z^{s_z}` with `(s_x, s_z)` jointly
    /// distributed over `{00: 1−p, 10: p/3, 11: p/3, 01: p/3}`.
    Depolarize1 {
        /// Symbol of the X component.
        x_id: SymbolId,
        /// Symbol of the Z component.
        z_id: SymbolId,
        /// Total fault probability.
        p: f64,
    },
    /// `DEPOLARIZE2(p)`: four symbols `(s_{xa}, s_{za}, s_{xb}, s_{zb})`
    /// uniformly over the 15 non-identity two-qubit Paulis with total
    /// probability `p`.
    Depolarize2 {
        /// Symbols in order `x_a, z_a, x_b, z_b`.
        ids: [SymbolId; 4],
        /// Total fault probability.
        p: f64,
    },
    /// `PAULI_CHANNEL_1(px, py, pz)`: `X^{s_x} Z^{s_z}` with
    /// `(1,0)`, `(1,1)`, `(0,1)` having probabilities `px, py, pz`.
    PauliChannel1 {
        /// Symbol of the X component.
        x_id: SymbolId,
        /// Symbol of the Z component.
        z_id: SymbolId,
        /// X probability.
        px: f64,
        /// Y probability.
        py: f64,
        /// Z probability.
        pz: f64,
    },
    /// `PAULI_CHANNEL_2(p₁…p₁₅)`: four symbols `(s_{xa}, s_{za}, s_{xb},
    /// s_{zb})` over the 15 non-identity two-qubit Paulis with the listed
    /// probabilities (Stim argument order, see
    /// [`symphase_circuit::pauli_channel_2_bits`]).
    PauliChannel2 {
        /// Symbols in order `x_a, z_a, x_b, z_b`.
        ids: [SymbolId; 4],
        /// Outcome probabilities, indexed by outcome − 1.
        probs: [f64; 15],
    },
    /// One element of a `CORRELATED_ERROR` / `ELSE_CORRELATED_ERROR`
    /// chain: a single symbol for the whole Pauli product. Elements of
    /// one chain are sampled jointly — an `else_branch` element fires
    /// with probability `p` only when no earlier element of its
    /// (contiguous, allocation-order) chain fired, so at most one symbol
    /// per chain is 1 in any shot.
    Correlated {
        /// The product's symbol.
        id: SymbolId,
        /// Fire probability (conditional for `else_branch` elements).
        p: f64,
        /// `true` for `ELSE_CORRELATED_ERROR` (continues the previous
        /// group's chain).
        else_branch: bool,
    },
}

/// Registry of all symbols introduced during Initialization, with enough
/// information to sample assignment vectors `b` (paper §3.2.3).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SymbolTable {
    groups: Vec<SymbolGroup>,
    next_id: u32,
}

impl SymbolTable {
    /// Creates an empty table (only the constant `s₀` exists).
    pub fn new() -> Self {
        Self {
            groups: Vec::new(),
            next_id: 1,
        }
    }

    /// Number of symbols allocated (excluding the constant `s₀`).
    pub fn num_symbols(&self) -> usize {
        (self.next_id - 1) as usize
    }

    /// Number of columns of an assignment vector (symbols + constant).
    pub fn assignment_len(&self) -> usize {
        self.next_id as usize
    }

    /// The symbol groups in allocation order.
    pub fn groups(&self) -> &[SymbolGroup] {
        &self.groups
    }

    /// Number of coin symbols (from random measurements).
    pub fn num_coins(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| matches!(g, SymbolGroup::Coin { .. }))
            .count()
    }

    fn alloc(&mut self) -> SymbolId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Allocates a fair-coin symbol for a random measurement outcome.
    pub fn fresh_coin(&mut self) -> SymbolId {
        let id = self.alloc();
        self.groups.push(SymbolGroup::Coin { id });
        id
    }

    /// Allocates the symbols of one noise site, in slot order (unused
    /// slots are 0), and records their group.
    pub fn fresh_site(&mut self, site: NoiseSite) -> [SymbolId; 4] {
        let mut ids = [0; 4];
        for id in &mut ids[..site.slots()] {
            *id = self.alloc();
        }
        let [a, b, ..] = ids;
        self.groups.push(match site {
            NoiseSite::Bernoulli(p) => SymbolGroup::Bernoulli { id: a, p },
            NoiseSite::Depolarize1(p) => SymbolGroup::Depolarize1 {
                x_id: a,
                z_id: b,
                p,
            },
            NoiseSite::Depolarize2(p) => SymbolGroup::Depolarize2 { ids, p },
            NoiseSite::PauliChannel1 { px, py, pz } => SymbolGroup::PauliChannel1 {
                x_id: a,
                z_id: b,
                px,
                py,
                pz,
            },
            NoiseSite::PauliChannel2 { probs } => SymbolGroup::PauliChannel2 { ids, probs },
            NoiseSite::Correlated { p, else_branch } => SymbolGroup::Correlated {
                id: a,
                p,
                else_branch,
            },
        });
        ids
    }

    /// Samples the assignment matrix `B ∈ F₂^{(n_s+1) × shots}`: row 0 is
    /// the constant 1, row `k` the sampled values of symbol `k` across
    /// shots (64 shots per word). This is the noise-model-dependent part of
    /// the paper's Sampling procedure.
    pub fn sample_assignments(&self, shots: usize, rng: &mut impl Rng) -> BitMatrix {
        let mut b = BitMatrix::zeros(self.assignment_len(), shots);
        self.sample_assignments_into(&mut b, rng);
        b
    }

    /// In-place variant of [`SymbolTable::sample_assignments`]: refills a
    /// previously shaped `(assignment_len × shots)` matrix, so shot-batched
    /// sampling reuses one buffer instead of allocating per batch. The RNG
    /// stream consumed is identical to the allocating variant.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != assignment_len()`.
    pub fn sample_assignments_into(&self, b: &mut BitMatrix, rng: &mut impl Rng) {
        assert_eq!(b.rows(), self.assignment_len(), "assignment row mismatch");
        let shots = b.cols();
        b.words_mut().fill(0);
        // Row 0: the constant symbol s₀ = 1 (p = 1 draws no randomness).
        fill_bernoulli(b.row_mut(0), shots, 1.0, rng);
        let stride = b.stride();
        let mut sink = MatrixSink {
            ids: [0; 4],
            words: b.words_mut(),
            stride,
        };
        self.draw(shots, rng, &mut sink);
    }

    /// Draws every group, in allocation order, for a window of `width`
    /// shots through the shared noise draw; before each group, `sink`
    /// learns the group's symbols in slot order.
    pub(crate) fn draw<S: SymbolSink>(&self, width: usize, rng: &mut impl Rng, sink: &mut S) {
        let mut scratch = NoiseScratch::default();
        for group in &self.groups {
            let (site, ids) = group.site();
            sink.set_group(ids);
            noise::draw(&site, width, rng, &mut scratch, sink);
        }
    }

    /// Calls `f(symbols, p)` for every non-identity outcome of every noise
    /// group (coins are not noise and are skipped), in allocation order:
    /// `symbols` are the fault symbols the outcome sets, `p` its marginal
    /// probability — for correlated-chain elements, the conditional
    /// probability scaled by the chain not having fired yet.
    pub fn for_each_outcome(&self, mut f: impl FnMut(&[SymbolId], f64)) {
        let mut chain_none = 1.0;
        for group in &self.groups {
            if matches!(group, SymbolGroup::Coin { .. }) {
                continue;
            }
            let (site, ids) = group.site();
            site.for_each_outcome(&mut chain_none, |slots, p| {
                let mut symbols = [0; 4];
                let mut n = 0;
                for (j, &id) in ids.iter().enumerate() {
                    if slots & (1 << j) != 0 {
                        symbols[n] = id;
                        n += 1;
                    }
                }
                f(&symbols[..n], p);
            });
        }
    }
}

impl SymbolGroup {
    /// The group's noise site and its symbols in slot order
    /// (`[x_a, z_a, x_b, z_b]`; unused slots are 0). A coin is a
    /// `Bernoulli(0.5)` site.
    pub fn site(&self) -> (NoiseSite, [SymbolId; 4]) {
        match *self {
            SymbolGroup::Coin { id } => (NoiseSite::Bernoulli(0.5), [id, 0, 0, 0]),
            SymbolGroup::Bernoulli { id, p } => (NoiseSite::Bernoulli(p), [id, 0, 0, 0]),
            SymbolGroup::Depolarize1 { x_id, z_id, p } => {
                (NoiseSite::Depolarize1(p), [x_id, z_id, 0, 0])
            }
            SymbolGroup::Depolarize2 { ids, p } => (NoiseSite::Depolarize2(p), ids),
            SymbolGroup::PauliChannel1 {
                x_id,
                z_id,
                px,
                py,
                pz,
            } => (NoiseSite::PauliChannel1 { px, py, pz }, [x_id, z_id, 0, 0]),
            SymbolGroup::PauliChannel2 { ids, probs } => (NoiseSite::PauliChannel2 { probs }, ids),
            SymbolGroup::Correlated { id, p, else_branch } => {
                (NoiseSite::Correlated { p, else_branch }, [id, 0, 0, 0])
            }
        }
    }
}

/// A [`FaultSink`] whose slots are the current group's symbols.
pub(crate) trait SymbolSink: FaultSink {
    /// Routes the next group's slots to `ids`.
    fn set_group(&mut self, ids: [SymbolId; 4]);
}

/// Writes fired slots into the rows of the assignment matrix `B` (zeroed
/// by the caller).
struct MatrixSink<'a> {
    ids: [SymbolId; 4],
    words: &'a mut [u64],
    stride: usize,
}

impl MatrixSink<'_> {
    fn row(&mut self, slot: usize) -> &mut [u64] {
        let start = self.ids[slot] as usize * self.stride;
        &mut self.words[start..start + self.stride]
    }
}

impl FaultSink for MatrixSink<'_> {
    fn bernoulli<R: Rng>(&mut self, slot: usize, p: f64, width: usize, rng: &mut R) {
        fill_bernoulli(self.row(slot), width, p, rng);
    }

    fn set(&mut self, slot: usize, shot: usize) {
        self.words[self.ids[slot] as usize * self.stride + shot / 64] |= 1 << (shot % 64);
    }

    fn mask(&mut self, slot: usize, fired: &[u64]) {
        self.row(slot).copy_from_slice(fired);
    }
}

impl SymbolSink for MatrixSink<'_> {
    fn set_group(&mut self, ids: [SymbolId; 4]) {
        self.ids = ids;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain(p: f64, else_branch: bool) -> NoiseSite {
        NoiseSite::Correlated { p, else_branch }
    }

    fn correlated(t: &mut SymbolTable, p: f64, else_branch: bool) -> SymbolId {
        t.fresh_site(chain(p, else_branch))[0]
    }

    #[test]
    fn ids_are_sequential_from_one() {
        let mut t = SymbolTable::new();
        assert_eq!(t.fresh_coin(), 1);
        assert_eq!(t.fresh_site(NoiseSite::Bernoulli(0.1)), [2, 0, 0, 0]);
        assert_eq!(t.fresh_site(NoiseSite::Depolarize1(0.1)), [3, 4, 0, 0]);
        assert_eq!(t.fresh_site(NoiseSite::Depolarize2(0.1)), [5, 6, 7, 8]);
        assert_eq!(t.num_symbols(), 8);
        assert_eq!(t.assignment_len(), 9);
        assert_eq!(t.num_coins(), 1);
    }

    #[test]
    fn constant_row_is_all_ones() {
        let mut t = SymbolTable::new();
        t.fresh_coin();
        let b = t.sample_assignments(130, &mut StdRng::seed_from_u64(1));
        for shot in 0..130 {
            assert!(b.get(0, shot));
        }
    }

    #[test]
    fn coin_density_is_half() {
        let mut t = SymbolTable::new();
        let id = t.fresh_coin();
        let shots = 100_000;
        let b = t.sample_assignments(shots, &mut StdRng::seed_from_u64(2));
        let ones: usize = (0..shots).filter(|&s| b.get(id as usize, s)).count();
        assert!((ones as f64 - shots as f64 / 2.0).abs() < 6.0 * (shots as f64 / 4.0).sqrt());
    }

    #[test]
    fn depolarize1_joint_distribution() {
        let mut t = SymbolTable::new();
        let p = 0.3;
        let [x, z, ..] = t.fresh_site(NoiseSite::Depolarize1(p));
        let shots = 300_000;
        let b = t.sample_assignments(shots, &mut StdRng::seed_from_u64(3));
        let mut counts = [0usize; 4]; // I, X, Z, Y as (x,z) bit pairs
        for s in 0..shots {
            let xi = usize::from(b.get(x as usize, s));
            let zi = usize::from(b.get(z as usize, s));
            counts[xi + 2 * zi] += 1;
        }
        let expect = [
            (1.0 - p) * shots as f64, // I = (0,0)
            p / 3.0 * shots as f64,   // X = (1,0)
            p / 3.0 * shots as f64,   // Z = (0,1)
            p / 3.0 * shots as f64,   // Y = (1,1)
        ];
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect[i]).abs() < 6.0 * expect[i].sqrt() + 20.0,
                "outcome {i}: {c} vs {}",
                expect[i]
            );
        }
    }

    #[test]
    fn depolarize2_never_identity_when_fired() {
        let mut t = SymbolTable::new();
        let ids = t.fresh_site(NoiseSite::Depolarize2(1.0)); // always fires
        let shots = 10_000;
        let b = t.sample_assignments(shots, &mut StdRng::seed_from_u64(4));
        for s in 0..shots {
            let any = ids.iter().any(|&id| b.get(id as usize, s));
            assert!(any, "fired DEPOLARIZE2 produced identity in shot {s}");
        }
    }

    #[test]
    fn pauli_channel1_marginals() {
        let mut t = SymbolTable::new();
        let [x, z, ..] = t.fresh_site(NoiseSite::PauliChannel1 {
            px: 0.1,
            py: 0.05,
            pz: 0.2,
        });
        let shots = 200_000;
        let b = t.sample_assignments(shots, &mut StdRng::seed_from_u64(5));
        let mut nx = 0usize;
        let mut ny = 0usize;
        let mut nz = 0usize;
        for s in 0..shots {
            match (b.get(x as usize, s), b.get(z as usize, s)) {
                (true, false) => nx += 1,
                (true, true) => ny += 1,
                (false, true) => nz += 1,
                (false, false) => {}
            }
        }
        let tol = |p: f64| 6.0 * (shots as f64 * p * (1.0 - p)).sqrt() + 20.0;
        assert!((nx as f64 - 0.1 * shots as f64).abs() < tol(0.1));
        assert!((ny as f64 - 0.05 * shots as f64).abs() < tol(0.05));
        assert!((nz as f64 - 0.2 * shots as f64).abs() < tol(0.2));
    }

    #[test]
    fn empty_table_has_constant_only() {
        let t = SymbolTable::new();
        let b = t.sample_assignments(64, &mut StdRng::seed_from_u64(6));
        assert_eq!(b.rows(), 1);
    }

    #[test]
    fn pauli_channel2_outcome_distribution() {
        let mut probs = [0.0f64; 15];
        probs[0] = 0.15; // IX → (xb)
        probs[3] = 0.2; // XI → (xa)
        probs[9] = 0.1; // YY → all four
        let mut t = SymbolTable::new();
        let ids = t.fresh_site(NoiseSite::PauliChannel2 { probs });
        let shots = 300_000;
        let b = t.sample_assignments(shots, &mut StdRng::seed_from_u64(7));
        let mut counts = std::collections::HashMap::new();
        for s in 0..shots {
            let key: Vec<bool> = ids.iter().map(|&id| b.get(id as usize, s)).collect();
            *counts.entry(key).or_insert(0usize) += 1;
        }
        let tol = |p: f64| 6.0 * (shots as f64 * p * (1.0 - p)).sqrt() + 20.0;
        let expect = [
            (vec![false, false, true, false], 0.15),
            (vec![true, false, false, false], 0.2),
            (vec![true, true, true, true], 0.1),
            (vec![false, false, false, false], 0.55),
        ];
        for (key, p) in expect {
            let c = *counts.get(&key).unwrap_or(&0) as f64;
            assert!(
                (c - p * shots as f64).abs() < tol(p),
                "outcome {key:?}: {c} vs {}",
                p * shots as f64
            );
        }
        // No other outcome ever fires.
        assert_eq!(counts.len(), 4, "unexpected outcomes: {counts:?}");
    }

    #[test]
    fn correlated_chain_fires_at_most_one_element() {
        let mut t = SymbolTable::new();
        let a = correlated(&mut t, 0.4, false);
        let b_id = correlated(&mut t, 0.5, true);
        let c_id = correlated(&mut t, 1.0, true);
        let shots = 200_000;
        let b = t.sample_assignments(shots, &mut StdRng::seed_from_u64(8));
        let mut counts = [0usize; 3];
        for s in 0..shots {
            let fired = [
                b.get(a as usize, s),
                b.get(b_id as usize, s),
                b.get(c_id as usize, s),
            ];
            assert!(
                fired.iter().filter(|&&f| f).count() <= 1,
                "chain fired twice in shot {s}"
            );
            for (i, &f) in fired.iter().enumerate() {
                counts[i] += usize::from(f);
            }
        }
        // The p=1 tail element guarantees exactly one element per shot.
        assert_eq!(counts.iter().sum::<usize>(), shots);
        // Marginals: 0.4, 0.6·0.5 = 0.3, 0.6·0.5·1 = 0.3.
        let tol = 6.0 * (shots as f64 * 0.25).sqrt() + 20.0;
        assert!((counts[0] as f64 - 0.4 * shots as f64).abs() < tol);
        assert!((counts[1] as f64 - 0.3 * shots as f64).abs() < tol);
        assert!((counts[2] as f64 - 0.3 * shots as f64).abs() < tol);
    }

    #[test]
    fn outcome_probabilities_sum_to_each_groups_fire_probability() {
        let mut t = SymbolTable::new();
        t.fresh_coin(); // not noise: never visited
        let mut probs = [0.0f64; 15];
        probs[0] = 0.15;
        probs[3] = 0.2;
        probs[9] = 0.1;
        let mut site = |site: NoiseSite| {
            let ids = t.fresh_site(site);
            ids[..site.slots()].to_vec()
        };
        // (the group's symbols, its fire probability)
        let groups: Vec<(Vec<SymbolId>, f64)> = vec![
            (site(NoiseSite::Bernoulli(0.1)), 0.1),
            (site(NoiseSite::Depolarize1(0.3)), 0.3),
            (site(NoiseSite::Depolarize2(0.15)), 0.15),
            (
                site(NoiseSite::PauliChannel1 {
                    px: 0.1,
                    py: 0.05,
                    pz: 0.2,
                }),
                0.35,
            ),
            (site(NoiseSite::PauliChannel2 { probs }), 0.45),
            (site(chain(0.4, false)), 0.4),
            (site(chain(0.5, true)), 0.6 * 0.5),
            (site(chain(1.0, true)), 0.6 * 0.5),
        ];
        let mut sums = vec![0.0; groups.len()];
        t.for_each_outcome(|symbols, p| {
            let g = groups
                .iter()
                .position(|(ids, _)| ids.contains(&symbols[0]))
                .expect("outcomes set a noise group's symbols");
            assert!(symbols.iter().all(|s| groups[g].0.contains(s)));
            sums[g] += p;
        });
        for ((ids, fire), sum) in groups.iter().zip(&sums) {
            assert!((sum - fire).abs() < 1e-12, "group {ids:?}: {sum} vs {fire}");
        }
    }

    #[test]
    fn independent_chains_reset_state() {
        // A second E starts a fresh chain: its ELSE conditions on the new
        // chain only.
        let mut t = SymbolTable::new();
        let a = correlated(&mut t, 1.0, false); // always fires
        let b_id = correlated(&mut t, 1.0, false); // new chain, always fires
        let c_id = correlated(&mut t, 1.0, true); // blocked by b, not a
        let shots = 1_000;
        let b = t.sample_assignments(shots, &mut StdRng::seed_from_u64(9));
        for s in 0..shots {
            assert!(b.get(a as usize, s));
            assert!(b.get(b_id as usize, s));
            assert!(!b.get(c_id as usize, s));
        }
    }
}
