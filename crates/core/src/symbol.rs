//! Bit-symbols and their sampling distributions (paper §3.1).
//!
//! Symbols come from two sources: *coins* introduced by random measurement
//! outcomes (sampled fair), and *fault symbols* introduced by noise channels
//! (sampled with the channel's joint distribution — e.g. `DEPOLARIZE1`
//! introduces a pair `(s_x, s_z)` valued `00, 10, 11, 01` with probabilities
//! `1−p, p/3, p/3, p/3`).

use std::collections::HashMap;

use rand::Rng;

use symphase_backend::noise::{self, FaultSink, NoiseScratch, NoiseSite};
use symphase_bitmat::bernoulli::fill_bernoulli;
use symphase_bitmat::{BitMatrix, SparseBitVec, SparseRowMatrix};

/// Identifier of a bit-symbol: its column index in phase vectors.
/// Index 0 is reserved for the constant `s₀ = 1` (paper §3.2.1), so real
/// symbols start at 1.
pub type SymbolId = u32;

/// The most symbols one table may hold: a draw plan numbers its columns
/// below the `u32` tag bit 2³¹, so the assignment vector, these symbols
/// plus the constant, must stay under 2³¹ columns. The facade's pre-build
/// check (`symphase::backend::check_tableau_budget`) refuses a circuit
/// whose [`symbol_bound`](crate::symbol_bound) passes it.
pub const MAX_SYMBOLS: usize = (1 << 31) - 2;

/// A group of symbols sampled jointly.
///
/// This is the table's public value type, not its storage: the
/// [`SymbolTable`] keeps an 8-byte entry per group and builds these on
/// demand ([`SymbolTable::groups`], [`SymbolTable::group`]).
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
///
/// Stored compactly: every group is one 8-byte entry, its first symbol id
/// and the index of its noise site, and the sites themselves are interned
/// in a side list. A group's symbols are consecutive ids, so the first id
/// and the site's slot count name them all. A site equal (bit for bit) to
/// the last one interned reuses its index, so a run of one channel, such
/// as the `DEPOLARIZE1(p)` layers of a noisy circuit, stores its site
/// once. With no two neighbouring sites alike, a group takes one entry
/// plus one site, 136 bytes; the [`SymbolGroup`] values themselves are
/// built on demand by [`SymbolTable::groups`] and [`SymbolTable::group`].
#[derive(Clone, Debug, PartialEq)]
pub struct SymbolTable {
    entries: Vec<Entry>,
    sites: Vec<NoiseSite>,
    next_id: u32,
}

/// One stored symbol group: its first symbol id, and the index of its
/// site in [`SymbolTable::sites`] ([`COIN`] for a coin).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    first: SymbolId,
    site: u32,
}

/// The size the table's memory estimates charge per group.
pub(crate) const ENTRY_BYTES: usize = std::mem::size_of::<Entry>();
const _: () = assert!(ENTRY_BYTES == 8);

/// The site index of a coin: coins are not interned.
const COIN: u32 = u32::MAX;

/// The site a coin is drawn as.
const COIN_SITE: NoiseSite = NoiseSite::Bernoulli(0.5);

impl Default for SymbolTable {
    fn default() -> Self {
        Self::new()
    }
}

impl SymbolTable {
    /// Creates an empty table (only the constant `s₀` exists).
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            sites: Vec::new(),
            next_id: 1,
        }
    }

    /// An empty table with room for `groups` symbol groups.
    pub(crate) fn with_capacity(groups: usize) -> Self {
        Self {
            entries: Vec::with_capacity(groups),
            ..Self::new()
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

    /// The symbol groups in allocation order, built from the compact
    /// storage one value at a time.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = SymbolGroup> + '_ {
        self.entries.iter().map(|&e| self.expand(e))
    }

    /// The `i`-th symbol group in allocation order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= groups().len()`.
    pub fn group(&self, i: usize) -> SymbolGroup {
        self.expand(self.entries[i])
    }

    /// Number of coin symbols (from random measurements).
    pub fn num_coins(&self) -> usize {
        self.entries.iter().filter(|e| e.site == COIN).count()
    }

    /// The site of a stored group, `None` for a coin.
    fn noise_site(&self, e: Entry) -> Option<&NoiseSite> {
        (e.site != COIN).then(|| &self.sites[e.site as usize])
    }

    /// The site a stored group is drawn as (a coin is `Bernoulli(0.5)`)
    /// and its symbols in slot order (unused slots are 0).
    fn site(&self, e: Entry) -> (NoiseSite, [SymbolId; 4]) {
        let site = *self.noise_site(e).unwrap_or(&COIN_SITE);
        (site, e.ids(site.slots()))
    }

    fn expand(&self, e: Entry) -> SymbolGroup {
        match self.noise_site(e) {
            None => SymbolGroup::Coin { id: e.first },
            Some(site) => SymbolGroup::new(site, e.ids(site.slots())),
        }
    }

    /// Allocates `n` consecutive ids and returns the first.
    ///
    /// # Panics
    ///
    /// Panics when the ids run out: `symphase::backend`'s pre-build check
    /// refuses a circuit that could get there.
    fn alloc(&mut self, n: usize) -> SymbolId {
        let id = self.next_id;
        self.next_id = u32::try_from(n)
            .ok()
            .and_then(|n| id.checked_add(n))
            .expect("symbol ids exhausted");
        id
    }

    /// Allocates a fair-coin symbol for a random measurement outcome.
    pub fn fresh_coin(&mut self) -> SymbolId {
        let first = self.alloc(1);
        self.entries.push(Entry { first, site: COIN });
        first
    }

    /// Allocates the symbols of one noise site, in slot order (unused
    /// slots are 0), and records their group.
    pub fn fresh_site(&mut self, site: NoiseSite) -> [SymbolId; 4] {
        let first = self.alloc(site.slots());
        if !self.sites.last().is_some_and(|last| same_bits(last, &site)) {
            self.sites.push(site);
        }
        // At most one site per group and one id per group, so the index
        // stays below the `u32` ids and thus below `COIN`.
        let entry = Entry {
            first,
            site: (self.sites.len() - 1) as u32,
        };
        self.entries.push(entry);
        entry.ids(site.slots())
    }

    /// Samples the assignment matrix `B ∈ F₂^{(n_s+1) × shots}`: row 0 is
    /// the constant 1, row `k` the sampled values of symbol `k` across
    /// shots (64 shots per word). This is the noise-model-dependent part of
    /// the paper's Sampling procedure, uncompressed: the sampler itself
    /// draws the table's compressed draw plan instead (see
    /// [`SymPhaseSampler`](crate::SymPhaseSampler)), which gives every
    /// record the same distribution from fewer draws.
    pub fn sample_assignments(&self, shots: usize, rng: &mut impl Rng) -> BitMatrix {
        let mut b = BitMatrix::zeros(self.assignment_len(), shots);
        self.sample_assignments_into(&mut b, rng);
        b
    }

    /// In-place variant of [`SymbolTable::sample_assignments`]: refills a
    /// previously shaped `(assignment_len × shots)` matrix, so repeated
    /// draws reuse one buffer instead of allocating per batch. The RNG
    /// stream consumed is identical to the allocating variant.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != assignment_len()`.
    pub fn sample_assignments_into(&self, b: &mut BitMatrix, rng: &mut impl Rng) {
        assert_eq!(b.rows(), self.assignment_len(), "assignment row mismatch");
        fill_assignments(b, rng, self.entries.iter().map(|&e| self.site(e)));
    }

    /// Calls `f(symbols, p)` for every non-identity outcome of every noise
    /// group (coins are not noise and are skipped), in allocation order:
    /// `symbols` are the fault symbols the outcome sets, `p` its marginal
    /// probability — for correlated-chain elements, the conditional
    /// probability scaled by the chain not having fired yet.
    pub fn for_each_outcome(&self, mut f: impl FnMut(&[SymbolId], f64)) {
        let mut chain_none = 1.0;
        for &e in &self.entries {
            if let Some(site) = self.noise_site(e) {
                for_each_site_outcome(site, e.ids(site.slots()), &mut chain_none, &mut f);
            }
        }
    }
}

impl Entry {
    /// The group's `slots` symbols in slot order, unused slots 0.
    fn ids(self, slots: usize) -> [SymbolId; 4] {
        std::array::from_fn(|j| if j < slots { self.first + j as u32 } else { 0 })
    }
}

/// Bitwise equality of two sites: interning never merges `0.0` with
/// `-0.0`, so every drawn probability is the one the circuit gave.
fn same_bits(a: &NoiseSite, b: &NoiseSite) -> bool {
    let eq = |x: &[f64], y: &[f64]| x.iter().zip(y).all(|(x, y)| x.to_bits() == y.to_bits());
    match (a, b) {
        (NoiseSite::Bernoulli(p), NoiseSite::Bernoulli(q))
        | (NoiseSite::Depolarize1(p), NoiseSite::Depolarize1(q))
        | (NoiseSite::Depolarize2(p), NoiseSite::Depolarize2(q)) => eq(&[*p], &[*q]),
        (
            &NoiseSite::PauliChannel1 { px, py, pz },
            &NoiseSite::PauliChannel1 {
                px: qx,
                py: qy,
                pz: qz,
            },
        ) => eq(&[px, py, pz], &[qx, qy, qz]),
        (NoiseSite::PauliChannel2 { probs: p }, NoiseSite::PauliChannel2 { probs: q }) => eq(p, q),
        (
            &NoiseSite::Correlated { p, else_branch },
            &NoiseSite::Correlated {
                p: q,
                else_branch: other,
            },
        ) => else_branch == other && eq(&[p], &[q]),
        _ => false,
    }
}

/// [`NoiseSite::for_each_outcome`] with each outcome's slot set resolved
/// to the symbols (or plan columns) `ids` gives those slots.
fn for_each_site_outcome(
    site: &NoiseSite,
    ids: [SymbolId; 4],
    chain_none: &mut f64,
    f: &mut impl FnMut(&[SymbolId], f64),
) {
    site.for_each_outcome(chain_none, |slots, p| {
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

/// Refills `b`: row 0 the constant 1, then every site in order through
/// the shared noise draw, each slot into the row its id names. `sites`
/// must name every other row of `b` exactly once: each row is written
/// once, in full, and `b` is never zeroed as a whole (see
/// [`MatrixSink`]).
fn fill_assignments(
    b: &mut BitMatrix,
    rng: &mut impl Rng,
    sites: impl Iterator<Item = (NoiseSite, [SymbolId; 4])>,
) {
    let shots = b.cols();
    // Row 0: the constant symbol s₀ = 1 (p = 1 draws no randomness).
    fill_bernoulli(b.row_mut(0), shots, 1.0, rng);
    let stride = b.stride();
    let mut sink = MatrixSink {
        ids: [0; 4],
        words: b.words_mut(),
        stride,
    };
    draw_sites(sites, shots, rng, &mut sink);
}

/// Draws `sites` in order for a window of `width` shots through the
/// shared noise draw; before each site, `sink` learns the site and its
/// slots' ids.
fn draw_sites<S: SymbolSink>(
    sites: impl Iterator<Item = (NoiseSite, [SymbolId; 4])>,
    width: usize,
    rng: &mut impl Rng,
    sink: &mut S,
) {
    let mut scratch = NoiseScratch::default();
    for (site, ids) in sites {
        sink.set_group(&site, ids);
        noise::draw(&site, width, rng, &mut scratch, sink);
    }
}

impl SymbolGroup {
    /// The group of a noise site whose slots hold `ids`.
    fn new(site: &NoiseSite, ids: [SymbolId; 4]) -> Self {
        let [a, b, ..] = ids;
        match *site {
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
        }
    }

    /// The group's noise site and its symbols in slot order
    /// (`[x_a, z_a, x_b, z_b]`; unused slots are 0). A coin is a
    /// `Bernoulli(0.5)` site.
    pub fn site(&self) -> (NoiseSite, [SymbolId; 4]) {
        match *self {
            SymbolGroup::Coin { id } => (COIN_SITE, [id, 0, 0, 0]),
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

/// What sampling draws instead of every [`SymbolGroup`]: the table
/// compressed against the columns of the measurement matrix `M`.
///
/// Every record the sampler emits is a sum of `M` rows, so a symbol's
/// effect on every record is fixed by its *signature*, the set of `M`
/// rows its column touches. The plan keeps the table's distribution of
/// every record exactly, with fewer draws:
///
/// * a **dead** group, whose symbols are all zero columns, is dropped;
/// * a noise group whose live symbols all share one signature σ
///   contributes σ times their parity, a Bernoulli(q) bit with q the sum
///   of the group's odd-parity outcomes; groups with equal σ merge into
///   one unit with `q ← q₁(1−q₂) + q₂(1−q₁)`;
/// * everything else is drawn **whole**, as the table would: coins,
///   groups live on two or more signatures, and `E`/`ELSE` chains.
///
/// Units are drawn in a canonical order: coins and whole groups in
/// allocation order, then merged units sorted by signature. So dropping
/// dead noise from a circuit leaves the stream unchanged.
///
/// The plan has its own columns: 0 is the constant, `1..=num_coins` the
/// live coins in allocation order, then the slots of whole noise groups
/// in allocation order, then one column per merged unit. A row over
/// symbol ids maps to plan columns by [`DrawPlan::map_row`].
#[derive(Debug)]
pub(crate) struct DrawPlan {
    /// The table groups drawn whole, by index, in allocation order.
    whole: Vec<u32>,
    /// Each merged unit's q, in signature order.
    merged: Vec<f64>,
    /// `columns[id]` = the plan column of symbol `id`, [`DEAD`] when no
    /// row reads it.
    columns: Vec<u32>,
    num_coins: usize,
    len: usize,
}

/// Plan column of a symbol no row reads.
const DEAD: u32 = u32::MAX;

/// Tags a merged unit's provisional index in the column map while the
/// plan is built (its column is known only once units are sorted).
const MERGED: u32 = 1 << 31;

impl DrawPlan {
    /// Builds the plan of `table` against the measurement matrix `rows`
    /// (columns = symbol ids). O(nnz of `rows`) plus the merged units'
    /// sort.
    pub(crate) fn build(table: &SymbolTable, rows: &SparseRowMatrix) -> Self {
        let len = table.assignment_len();
        // Plan columns never exceed symbol ids, so they stay below the tag
        // (`MAX_SYMBOLS` + 1 < 2³¹).
        assert!(len < MERGED as usize, "too many symbols for a draw plan");
        let cols = Transpose::of(rows, len);
        let live = |id: SymbolId| !cols.column(id).is_empty();
        let entries = &table.entries;
        let num_coins = entries
            .iter()
            .filter(|e| e.site == COIN && live(e.first))
            .count();
        let mut columns = vec![DEAD; len];
        columns[0] = 0;
        let (mut next_coin, mut next) = (1u32, num_coins as u32 + 1);
        let mut whole = Vec::new();
        // Merged units: their signature and q, in first-seen order.
        let mut merged: Vec<(&[u32], f64)> = Vec::new();
        let mut by_signature: HashMap<&[u32], u32> = HashMap::new();
        // A group drawn whole: its slots take the next columns of `next`
        // (the numbering `DrawPlan::sites` repeats).
        let take_columns = |index: usize, ids: &[SymbolId], columns: &mut [u32], next: &mut u32| {
            for &id in ids {
                columns[id as usize] = *next;
                *next += 1;
            }
            index as u32
        };
        let continues_chain = |e: &&Entry| {
            matches!(
                table.noise_site(**e),
                Some(NoiseSite::Correlated {
                    else_branch: true,
                    ..
                })
            )
        };
        let mut chain_live = false;
        for (i, &e) in entries.iter().enumerate() {
            let Some(site) = table.noise_site(e) else {
                if live(e.first) {
                    whole.push(take_columns(i, &[e.first], &mut columns, &mut next_coin));
                }
                continue;
            };
            let ids = e.ids(site.slots());
            let ids = &ids[..site.slots()];
            match *site {
                NoiseSite::Correlated { else_branch, .. } => {
                    // A chain, an `E` and the `ELSE`s after it, is dropped
                    // only when every element is dead.
                    if !else_branch {
                        chain_live = live(e.first)
                            || entries[i + 1..]
                                .iter()
                                .take_while(continues_chain)
                                .any(|e| live(e.first));
                    }
                    if chain_live {
                        whole.push(take_columns(i, ids, &mut columns, &mut next));
                    }
                }
                _ => {
                    let mut live_slots = 0u8;
                    let mut signature: Option<&[u32]> = None;
                    let mut single = true;
                    for (j, &id) in ids.iter().enumerate() {
                        let col = cols.column(id);
                        if !col.is_empty() {
                            live_slots |= 1 << j;
                            single &= signature.is_none_or(|s| s == col);
                            signature = Some(col);
                        }
                    }
                    match signature {
                        None => {}
                        Some(sig) if single => {
                            let mut q = 0.0;
                            site.for_each_outcome(&mut 1.0, |slots, p| {
                                if (slots & live_slots).count_ones() % 2 == 1 {
                                    q += p;
                                }
                            });
                            let m = *by_signature.entry(sig).or_insert_with(|| {
                                merged.push((sig, 0.0));
                                merged.len() as u32 - 1
                            });
                            let acc = &mut merged[m as usize].1;
                            *acc = (*acc * (1.0 - q) + q * (1.0 - *acc)).clamp(0.0, 1.0);
                            for (j, &id) in ids.iter().enumerate() {
                                if live_slots & (1 << j) != 0 {
                                    columns[id as usize] = MERGED | m;
                                }
                            }
                        }
                        Some(_) => whole.push(take_columns(i, ids, &mut columns, &mut next)),
                    }
                }
            }
        }
        let mut order: Vec<u32> = (0..merged.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| merged[a as usize].0.cmp(merged[b as usize].0));
        let mut rank = vec![0u32; merged.len()];
        for (id, &m) in (next..).zip(&order) {
            rank[m as usize] = id;
        }
        for c in &mut columns {
            if *c != DEAD && *c & MERGED != 0 {
                *c = rank[(*c & !MERGED) as usize];
            }
        }
        // A sampler keeps its plan for life (a `serve` cache holds many).
        whole.shrink_to_fit();
        Self {
            whole,
            merged: order.iter().map(|&m| merged[m as usize].1).collect(),
            columns,
            num_coins,
            len: next as usize + merged.len(),
        }
    }

    /// Number of plan columns (constant included): the rows of the
    /// assignment matrix the plan fills.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of live coins: plan columns `1..=num_coins`.
    pub(crate) fn num_coins(&self) -> usize {
        self.num_coins
    }

    /// Maps a row over symbol ids into `out`: its plan columns, sorted and
    /// deduplicated. Symbols merged into one unit have equal columns in
    /// every row, so they appear together and map to the unit once —
    /// never XOR-cancelled.
    pub(crate) fn map_row(&self, row: &SparseBitVec, out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            row.indices()
                .iter()
                .map(|&c| self.columns[c as usize])
                .filter(|&c| c != DEAD),
        );
        out.sort_unstable();
        out.dedup();
    }

    /// Maps every row of `rows` (see [`DrawPlan::map_row`]).
    pub(crate) fn map_rows(&self, rows: &SparseRowMatrix) -> SparseRowMatrix {
        let mut out = SparseRowMatrix::new(self.len);
        let mut buf = Vec::new();
        for row in rows.iter() {
            self.map_row(row, &mut buf);
            out.push_row(SparseBitVec::from_indices(buf.iter().copied()));
        }
        out
    }

    /// Each unit's noise site and the plan columns its slots land in, in
    /// draw order: the whole groups, then the merged units.
    pub(crate) fn sites<'a>(
        &'a self,
        table: &'a SymbolTable,
    ) -> impl Iterator<Item = (NoiseSite, [u32; 4])> + 'a {
        // The next column of a coin and of a whole noise group's slot.
        let (mut coin, mut noise) = (1, self.num_coins as u32 + 1);
        let whole = self.whole.iter().map(move |&index| {
            let e = table.entries[index as usize];
            let (site, _) = table.site(e);
            let next = if e.site == COIN {
                &mut coin
            } else {
                &mut noise
            };
            let column = *next;
            *next += site.slots() as u32;
            (site, std::array::from_fn(|j| column + j as u32))
        });
        let first = (self.len - self.merged.len()) as u32;
        let merged = (first..)
            .zip(&self.merged)
            .map(|(id, &q)| (NoiseSite::Bernoulli(q), [id, 0, 0, 0]));
        whole.chain(merged)
    }

    /// Draws every unit for a window of `width` shots through the shared
    /// noise draw; before each unit, `sink` learns its plan columns.
    pub(crate) fn draw<S: SymbolSink>(
        &self,
        table: &SymbolTable,
        width: usize,
        rng: &mut impl Rng,
        sink: &mut S,
    ) {
        draw_sites(self.sites(table), width, rng, sink);
    }

    /// [`SymbolTable::sample_assignments_into`] for the plan: refills a
    /// `(len × shots)` matrix over plan columns.
    pub(crate) fn sample_into(&self, table: &SymbolTable, b: &mut BitMatrix, rng: &mut impl Rng) {
        debug_assert_eq!(b.rows(), self.len, "plan row mismatch");
        fill_assignments(b, rng, self.sites(table));
    }

    /// [`SymbolTable::for_each_outcome`] over the plan's noise units, with
    /// plan columns in place of symbols.
    pub(crate) fn for_each_outcome(&self, table: &SymbolTable, mut f: impl FnMut(&[u32], f64)) {
        let mut chain_none = 1.0;
        for (site, ids) in self.sites(table) {
            if ids[0] as usize > self.num_coins {
                for_each_site_outcome(&site, ids, &mut chain_none, &mut f);
            }
        }
    }
}

/// The columns of a sparse row matrix: per column, the rows it touches
/// in ascending order. Built by a counting sort into one buffer, the
/// `cols + 1` column offsets followed by the row lists.
struct Transpose {
    buf: Vec<u32>,
    cols: usize,
}

impl Transpose {
    fn of(m: &SparseRowMatrix, cols: usize) -> Self {
        let len = cols + 1 + m.count_ones();
        u32::try_from(len).expect("a transpose is indexed by u32");
        let mut buf = vec![0u32; len];
        let (start, rows) = buf.split_at_mut(cols + 1);
        for row in m.iter() {
            for &c in row.indices() {
                start[c as usize + 1] += 1;
            }
        }
        for c in 0..cols {
            start[c + 1] += start[c];
        }
        for (r, row) in m.iter().enumerate() {
            for &c in row.indices() {
                rows[start[c as usize] as usize] = r as u32;
                start[c as usize] += 1;
            }
        }
        // Each `start[c]` advanced to its column's end, the next start.
        start.copy_within(0..cols, 1);
        start[0] = 0;
        Self { buf, cols }
    }

    fn column(&self, c: SymbolId) -> &[u32] {
        let (start, rows) = self.buf.split_at(self.cols + 1);
        &rows[start[c as usize] as usize..start[c as usize + 1] as usize]
    }
}

/// A [`FaultSink`] whose slots are the current group's symbols.
pub(crate) trait SymbolSink: FaultSink {
    /// Routes the next group's slots, drawn as `site`, to `ids`.
    fn set_group(&mut self, site: &NoiseSite, ids: [SymbolId; 4]);
}

/// Writes fired slots into the rows of the assignment matrix `B`. A
/// `bernoulli` or `mask` slot writes its whole row, so `B` is not zeroed
/// beforehand; only the rows of the sites that report shot by shot
/// through `set` (the jointly distributed channels) are zeroed, when
/// [`SymbolSink::set_group`] names them.
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
    fn set_group(&mut self, site: &NoiseSite, ids: [SymbolId; 4]) {
        self.ids = ids;
        if !matches!(site, NoiseSite::Bernoulli(_) | NoiseSite::Correlated { .. }) {
            for slot in 0..site.slots() {
                self.row(slot).fill(0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymPhaseSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symphase_circuit::generators::{fig3c_circuit, surface_code_memory, SurfaceCodeConfig};
    use symphase_circuit::Circuit;

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

    /// The record rows a test compares: measurements, then detectors, then
    /// observables.
    fn records(s: &SymPhaseSampler) -> Vec<&SparseRowMatrix> {
        vec![
            s.measurement_matrix(),
            s.detector_rows(),
            s.observable_rows(),
        ]
    }

    /// The exact joint distribution of every record (bit `r` of the key =
    /// record `r`) when `sites` are drawn and column `c` flips the records
    /// set in `flips[c]`. Each site is one independent variable, except
    /// that an `E`/`ELSE` chain is one variable with at most one element
    /// firing.
    fn distribution(
        sites: impl Iterator<Item = (NoiseSite, [u32; 4])>,
        flips: &[u64],
    ) -> HashMap<u64, f64> {
        // Each variable: its non-identity outcomes as (flipped records, p).
        let mut vars: Vec<Vec<(u64, f64)>> = Vec::new();
        let mut chain_none = 1.0;
        for (site, ids) in sites {
            if !matches!(
                site,
                NoiseSite::Correlated {
                    else_branch: true,
                    ..
                }
            ) {
                vars.push(Vec::new());
            }
            let var = vars.last_mut().expect("a chain starts with E");
            site.for_each_outcome(&mut chain_none, |slots, p| {
                let mask = (0..4)
                    .filter(|j| slots & (1 << j) != 0)
                    .fold(0, |m, j| m ^ flips[ids[j] as usize]);
                var.push((mask, p));
            });
        }
        let mut dist = HashMap::from([(flips[0], 1.0)]);
        for var in vars {
            let none = 1.0 - var.iter().map(|&(_, p)| p).sum::<f64>();
            let mut next = HashMap::new();
            for (&key, &p) in &dist {
                *next.entry(key).or_insert(0.0) += p * none;
                for &(mask, q) in &var {
                    *next.entry(key ^ mask).or_insert(0.0) += p * q;
                }
            }
            dist = next;
        }
        dist
    }

    /// `flips[c]` = the records column `c` of `rows` appears in.
    fn flips(rows: &[&SparseRowMatrix], cols: usize) -> Vec<u64> {
        let mut flips = vec![0u64; cols];
        for (r, row) in rows.iter().flat_map(|m| m.iter()).enumerate() {
            assert!(r < 64, "too many records to enumerate");
            for &c in row.indices() {
                flips[c as usize] |= 1 << r;
            }
        }
        flips
    }

    /// Draw units of each kind: (merged, whole groups and coins).
    fn unit_kinds(plan: &DrawPlan) -> (usize, usize) {
        (plan.merged.len(), plan.whole.len())
    }

    fn assert_plan_is_exact(text: &str) -> DrawPlan {
        let c = Circuit::parse(text).expect("parses");
        let s = SymPhaseSampler::new(&c);
        let table = s.symbol_table();
        let plan = DrawPlan::build(table, s.measurement_matrix());
        let rows = records(&s);
        let full = distribution(
            table.groups().map(|g| g.site()),
            &flips(&rows, table.assignment_len()),
        );
        let mapped: Vec<SparseRowMatrix> = rows.iter().map(|m| plan.map_rows(m)).collect();
        let compressed = distribution(
            plan.sites(table),
            &flips(&mapped.iter().collect::<Vec<_>>(), plan.len()),
        );
        for key in full.keys().chain(compressed.keys()) {
            let (a, b) = (
                full.get(key).copied().unwrap_or(0.0),
                compressed.get(key).copied().unwrap_or(0.0),
            );
            assert!(
                (a - b).abs() < 1e-12,
                "records {key:b}: {a} vs {b} in\n{text}"
            );
        }
        plan
    }

    #[test]
    fn plan_distribution_is_exact() {
        // Every site kind, an E/ELSE chain, coins, detectors and an
        // observable.
        let every_kind = "R 0 1 2 3 4\nCX 0 1 2 3\nX_ERROR(0.1) 0 1\nY_ERROR(0.05) 2\n\
            Z_ERROR(0.2) 3 0\nDEPOLARIZE1(0.15) 0 1 2 3\nDEPOLARIZE2(0.1) 0 1 2 3\n\
            PAULI_CHANNEL_1(0.05,0.1,0.15) 1 3\n\
            PAULI_CHANNEL_2(0.01,0.02,0.03,0.04,0.05,0.01,0.02,0.03,0.04,0.05,0.01,0.02,0.03,0.04,0.05) 0 2\n\
            E(0.2) X0 Z1\nELSE_CORRELATED_ERROR(0.3) Y2 X3\nELSE_CORRELATED_ERROR(0.5) X1\n\
            H 4\nM 0 1 2 3 4\nDETECTOR rec[-2] rec[-3]\nDETECTOR rec[-4] rec[-5]\n\
            OBSERVABLE_INCLUDE(0) rec[-2]\n";
        let plan = assert_plan_is_exact(every_kind);
        assert!(unit_kinds(&plan).0 > 0, "nothing merged");

        // A dead channel is dropped: Z errors before Z measurements.
        let dead = assert_plan_is_exact("Z_ERROR(0.3) 0 1\nX_ERROR(0.1) 1\nM 0 1\n");
        assert_eq!(unit_kinds(&dead), (1, 0));

        // Two groups on one signature merge into one unit; so do the two
        // halves of a DEPOLARIZE1 when only its X part is live.
        let merged = assert_plan_is_exact(
            "X_ERROR(0.1) 0\nDEPOLARIZE1(0.2) 0\nX_ERROR(0.3) 0\nM 0\nDETECTOR rec[-1]\n",
        );
        assert_eq!(unit_kinds(&merged), (1, 0));

        // Both halves live on one signature: the unit fires on X or Z,
        // and Y, which flips the record twice, does not count.
        let parity = assert_plan_is_exact("H 0\nS 0\nDEPOLARIZE1(0.3) 0\nMY 0\n");
        assert_eq!(unit_kinds(&parity), (1, 0));

        // On a Bell pair, X flips the ZZ check and Z the XX check: the
        // parts are live on different signatures, so it is drawn whole.
        let split = assert_plan_is_exact(
            "H 0\nCX 0 1\nDEPOLARIZE1(0.3) 0\nMPP X0*X1 Z0*Z1\nDETECTOR rec[-1]\n",
        );
        assert_eq!((split.whole.as_slice(), split.merged.len()), (&[0][..], 0));
        assert_eq!(split.len, 3, "the constant and the X and Z columns");

        // A chain with a dead element stays whole; a dead chain is dropped.
        assert_plan_is_exact(
            "E(0.25) Z0\nELSE_CORRELATED_ERROR(0.5) X1\nELSE_CORRELATED_ERROR(0.5) X0\n\
             E(0.4) Z1\nELSE_CORRELATED_ERROR(0.4) Z0\nM 0 1\n",
        );
    }

    /// Per-record and adjacent-record XOR rates of the sampler, which
    /// draws the plan, against the uncompressed table times the record
    /// rows, within 6σ.
    fn assert_rates_match(c: &Circuit, shots: usize) {
        let s = SymPhaseSampler::new(c);
        let ours = s.sample_batch(shots, &mut StdRng::seed_from_u64(11));
        let b = s
            .symbol_table()
            .sample_assignments(shots, &mut StdRng::seed_from_u64(12));
        let pairs = [
            (&ours.measurements, s.measurement_matrix()),
            (&ours.detectors, s.detector_rows()),
            (&ours.observables, s.observable_rows()),
        ];
        let ones = |m: &BitMatrix, r: usize, next: bool| -> usize {
            let words = m
                .row(r)
                .iter()
                .zip(if next { m.row(r + 1) } else { m.row(r) });
            words
                .map(|(&a, &b)| (if next { a ^ b } else { a }).count_ones() as usize)
                .sum()
        };
        let mut checked = 0;
        for (sampled, rows) in pairs {
            let reference = rows.mul_dense(&b);
            for r in 0..rows.rows() {
                for next in [false, true] {
                    if next && r + 1 == rows.rows() {
                        continue;
                    }
                    let (x, y) = (ones(sampled, r, next), ones(&reference, r, next));
                    let p = (x + y) as f64 / (2 * shots) as f64;
                    let sigma = (p * (1.0 - p) * 2.0 / shots as f64).sqrt();
                    let diff = (x as f64 - y as f64).abs() / shots as f64;
                    assert!(
                        diff <= 6.0 * sigma,
                        "record {r} (xor next: {next}): {x} vs {y} of {shots}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "only {checked} statistics");
    }

    #[test]
    fn plan_rates_match_the_uncompressed_draw() {
        assert_rates_match(&fig3c_circuit(64, 0.01, 7), 1 << 16);
        let surface = surface_code_memory(&SurfaceCodeConfig {
            distance: 5,
            rounds: 5,
            data_error: 0.01,
            measure_error: 0.01,
        });
        assert_rates_match(&surface, 1 << 16);
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

    #[test]
    fn default_is_new() {
        let t = SymbolTable::default();
        assert_eq!(t, SymbolTable::new());
        assert_eq!((t.num_symbols(), t.assignment_len()), (0, 1));
    }

    /// A random run of allocations: a coin, a run of one noise site of a
    /// random kind repeated 1–3 times (interning hits), a `PAULI_CHANNEL_2`
    /// with fresh random probabilities (interning misses), or an `E`
    /// followed by 0–2 `ELSE`s. Probabilities include both zeros, which
    /// interning must keep apart. Each allocation is pushed to `reference`
    /// as (site, ids), `None` for a coin.
    fn random_run(
        rng: &mut StdRng,
        t: &mut SymbolTable,
        reference: &mut Vec<(Option<NoiseSite>, [SymbolId; 4])>,
    ) {
        let p = |rng: &mut StdRng| [0.0, -0.0, 0.01, 0.2][rng.random_range(0..4usize)];
        let sites: Vec<NoiseSite> = match rng.random_range(0..8) {
            0 => {
                let id = t.fresh_coin();
                reference.push((None, [id, 0, 0, 0]));
                return;
            }
            1 => vec![NoiseSite::Bernoulli(p(rng))],
            2 => vec![NoiseSite::Depolarize1(p(rng))],
            3 => vec![NoiseSite::Depolarize2(p(rng))],
            4 => vec![NoiseSite::PauliChannel1 {
                px: p(rng),
                py: p(rng),
                pz: p(rng),
            }],
            5 => {
                let probs = std::array::from_fn(|_| rng.random::<f64>() / 15.0);
                vec![NoiseSite::PauliChannel2 { probs }]
            }
            6 => {
                let elses = rng.random_range(0..3);
                (0..=elses).map(|k| chain(p(rng), k > 0)).collect()
            }
            _ => vec![chain(p(rng), true)],
        };
        let repeats = if sites.len() == 1 {
            rng.random_range(1..4)
        } else {
            1
        };
        for _ in 0..repeats {
            for &site in &sites {
                let ids = t.fresh_site(site);
                reference.push((Some(site), ids));
            }
        }
    }

    /// The table after random runs of every site kind answers every query
    /// as a plain list of (site, ids) does, bit for bit.
    #[test]
    fn compact_table_matches_a_plain_list() {
        let mut rng = StdRng::seed_from_u64(24);
        for case in 0..200 {
            let mut t = SymbolTable::new();
            let mut reference = Vec::new();
            for _ in 0..rng.random_range(0..40) {
                random_run(&mut rng, &mut t, &mut reference);
            }
            let slots = |site: &Option<NoiseSite>| site.map_or(1, |s| s.slots());
            let symbols: usize = reference.iter().map(|(site, _)| slots(site)).sum();
            let ids = reference
                .iter()
                .flat_map(|(site, ids)| ids[..slots(site)].to_vec());
            assert!(
                ids.eq(1..=symbols as u32),
                "case {case}: ids not consecutive"
            );
            assert_eq!(t.num_symbols(), symbols);
            assert_eq!(t.assignment_len(), symbols + 1);
            assert_eq!(
                t.num_coins(),
                reference.iter().filter(|(site, _)| site.is_none()).count()
            );
            let groups = t.groups();
            assert_eq!(groups.len(), reference.len());
            for (i, (g, &(site, ids))) in groups.zip(&reference).enumerate() {
                let want = match site {
                    None => SymbolGroup::Coin { id: ids[0] },
                    Some(site) => SymbolGroup::new(&site, ids),
                };
                assert_eq!(g, want, "case {case}, group {i}");
                assert_eq!(t.group(i), want, "case {case}, group {i}");
                let (got_site, got_ids) = g.site();
                assert!(
                    same_bits(&got_site, &site.unwrap_or(COIN_SITE)),
                    "case {case}, group {i}: {got_site:?} vs {site:?}"
                );
                assert_eq!(got_ids, ids);
            }
            let mut got = Vec::new();
            t.for_each_outcome(|symbols, p| got.push((symbols.to_vec(), p.to_bits())));
            let mut want = Vec::new();
            let mut chain_none = 1.0;
            for (site, ids) in &reference {
                let Some(site) = site else { continue };
                site.for_each_outcome(&mut chain_none, |fired, p| {
                    let symbols = (0..4).filter(|j| fired & (1 << j) != 0).map(|j| ids[j]);
                    want.push((symbols.collect::<Vec<_>>(), p.to_bits()));
                });
            }
            assert_eq!(got, want, "case {case}: outcomes");
            // The draw reads every site as the list holds it.
            let b = t.sample_assignments(70, &mut StdRng::seed_from_u64(case));
            let mut expect = BitMatrix::zeros(t.assignment_len(), 70);
            let sites = reference
                .iter()
                .map(|&(site, ids)| (site.unwrap_or(COIN_SITE), ids));
            fill_assignments(&mut expect, &mut StdRng::seed_from_u64(case), sites);
            assert_eq!(b, expect, "case {case}: assignments");
        }
    }

    #[test]
    fn equal_neighbouring_sites_share_one_interned_site() {
        let mut t = SymbolTable::new();
        for _ in 0..5 {
            t.fresh_site(NoiseSite::Depolarize1(0.001));
        }
        t.fresh_coin();
        t.fresh_site(NoiseSite::Depolarize1(0.001));
        t.fresh_site(NoiseSite::Bernoulli(0.0));
        t.fresh_site(NoiseSite::Bernoulli(-0.0));
        assert_eq!(t.sites.len(), 3, "a coin does not break a run; -0 is not 0");
        assert_eq!(t.groups().len(), 9);
    }
}
