//! The batch noise draw: how one noise site consumes the RNG for a window
//! of shots, shared by every batch engine.
//!
//! A noise site's outcome for each shot is a set of *slots* that fire.
//! Slots follow the pinned component order `[x_a, z_a, x_b, z_b]`: a
//! single-qubit channel uses slots 0 (X) and 1 (Z), a two-qubit channel
//! all four, and [`NoiseSite::Bernoulli`] / [`NoiseSite::Correlated`]
//! only slot 0, which carries the whole Pauli (or product) of the site.
//!
//! [`draw`] is the only batch code that decides the stream: the fire
//! mask, the per-fired-shot choice draws and the correlated-chain mask.
//! Engines differ only in their [`FaultSink`], which says where a fired
//! slot lands — a row of the assignment matrix `B`, a coin row or a
//! `(symbol, shot)` event, or the X/Z rows of a Pauli frame. So equal
//! seeds give equal noise across every sink.
//!
//! The stream contract, per site, for a `width`-shot window:
//!
//! 1. one Bernoulli fill over `width` shots with the site's fire
//!    probability ([`fill_bernoulli`]'s stream; for
//!    [`NoiseSite::Bernoulli`] this is the whole draw);
//! 2. for the jointly distributed channels, one choice draw per fired
//!    shot in ascending shot order: `random_range(0..3)` for
//!    `DEPOLARIZE1`, `random_range(1..16)` for `DEPOLARIZE2`, and one
//!    `f64` scaled by the total for the two Pauli channels.
//!
//! The per-shot engines (tableau, state vector) share it too:
//! [`crate::exec::run_shot`] draws each site over a one-shot window and
//! applies the fired slots to the shot's state, so every engine has one
//! noise semantics.

use rand::Rng;

use symphase_bitmat::bernoulli::fill_bernoulli;
use symphase_bitmat::word::iter_ones;
use symphase_bitmat::{words_for, Word};
use symphase_circuit::{pauli_channel_2_bits, pauli_channel_2_select, NoiseChannel, PauliKind};

/// One noise site's joint distribution over its slots.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NoiseSite {
    /// Slot 0 fires with probability `p` (`X/Y/Z_ERROR(p)`; a measurement
    /// coin is `Bernoulli(0.5)`).
    Bernoulli(f64),
    /// `DEPOLARIZE1(p)`: X, Y or Z with `p/3` each (slots 0 = X, 1 = Z).
    Depolarize1(f64),
    /// `DEPOLARIZE2(p)`: each of the 15 non-identity two-qubit Paulis with
    /// `p/15` (outcome `k` fires slot `j` when bit `j` of `k` is set).
    Depolarize2(f64),
    /// `PAULI_CHANNEL_1(px, py, pz)` (slots 0 = X, 1 = Z).
    PauliChannel1 {
        /// X probability.
        px: f64,
        /// Y probability.
        py: f64,
        /// Z probability.
        pz: f64,
    },
    /// `PAULI_CHANNEL_2(p₁…p₁₅)` in Stim argument order (see
    /// [`pauli_channel_2_bits`]).
    PauliChannel2 {
        /// Outcome probabilities, indexed by outcome − 1.
        probs: [f64; 15],
    },
    /// One element of an `E` / `ELSE_CORRELATED_ERROR` chain: slot 0
    /// fires with probability `p`; an `else_branch` element only in shots
    /// where no earlier element of its chain fired.
    Correlated {
        /// Fire probability (conditional for `else_branch` elements).
        p: f64,
        /// `true` for `ELSE_CORRELATED_ERROR`.
        else_branch: bool,
    },
}

impl From<NoiseChannel> for NoiseSite {
    fn from(channel: NoiseChannel) -> Self {
        match channel {
            NoiseChannel::XError(p) | NoiseChannel::YError(p) | NoiseChannel::ZError(p) => {
                NoiseSite::Bernoulli(p)
            }
            NoiseChannel::Depolarize1(p) => NoiseSite::Depolarize1(p),
            NoiseChannel::Depolarize2(p) => NoiseSite::Depolarize2(p),
            NoiseChannel::PauliChannel1 { px, py, pz } => NoiseSite::PauliChannel1 { px, py, pz },
            NoiseChannel::PauliChannel2 { probs } => NoiseSite::PauliChannel2 { probs },
        }
    }
}

/// The Pauli each slot of one application of `channel` to `targets`
/// applies: `[x_a, z_a, x_b, z_b]`, except that slot 0 of an
/// `X/Y/Z_ERROR` carries its own Pauli. Only the first
/// [`NoiseSite::slots`] entries are meaningful.
pub fn channel_slots(channel: NoiseChannel, targets: &[u32]) -> [(PauliKind, u32); 4] {
    let (a, b) = (targets[0], targets[targets.len() - 1]);
    let first = match channel {
        NoiseChannel::YError(_) => PauliKind::Y,
        NoiseChannel::ZError(_) => PauliKind::Z,
        _ => PauliKind::X,
    };
    [
        (first, a),
        (PauliKind::Z, a),
        (PauliKind::X, b),
        (PauliKind::Z, b),
    ]
}

/// Slot bit sets of `PAULI_CHANNEL_2` outcomes `1..=15`, in
/// `[x_a, z_a, x_b, z_b]` bit order.
fn pauli_channel_2_slots(m: usize) -> u8 {
    pauli_channel_2_bits(m)
        .iter()
        .enumerate()
        .fold(0, |acc, (j, &b)| acc | (u8::from(b) << j))
}

impl NoiseSite {
    /// Number of slots the site uses: 1, 2 or 4.
    pub fn slots(&self) -> usize {
        match self {
            NoiseSite::Bernoulli(_) | NoiseSite::Correlated { .. } => 1,
            NoiseSite::Depolarize1(_) | NoiseSite::PauliChannel1 { .. } => 2,
            NoiseSite::Depolarize2(_) | NoiseSite::PauliChannel2 { .. } => 4,
        }
    }

    /// Calls `f(slots, p)` for every non-identity outcome of the site, in
    /// a fixed order: `slots` is the bit set of fired slots (bit `j` =
    /// slot `j`), `p` the outcome's marginal probability.
    ///
    /// `chain_none` is the probability that the current correlated chain
    /// has not fired yet. Start it at 1 and pass the same variable to the
    /// sites of one table in order: a chain-starting
    /// [`NoiseSite::Correlated`] resets it, and an `else_branch` element's
    /// marginal is its conditional `p` scaled by it.
    pub fn for_each_outcome(&self, chain_none: &mut f64, mut f: impl FnMut(u8, f64)) {
        match *self {
            NoiseSite::Bernoulli(p) => f(0b1, p),
            NoiseSite::Depolarize1(p) => {
                f(0b01, p / 3.0);
                f(0b11, p / 3.0);
                f(0b10, p / 3.0);
            }
            NoiseSite::Depolarize2(p) => {
                for k in 1..16u8 {
                    f(k, p / 15.0);
                }
            }
            NoiseSite::PauliChannel1 { px, py, pz } => {
                f(0b01, px);
                f(0b11, py);
                f(0b10, pz);
            }
            NoiseSite::PauliChannel2 { probs } => {
                for (m, &p) in probs.iter().enumerate() {
                    f(pauli_channel_2_slots(m + 1), p);
                }
            }
            NoiseSite::Correlated { p, else_branch } => {
                let marginal = if else_branch { *chain_none * p } else { p };
                if else_branch {
                    *chain_none *= 1.0 - p;
                } else {
                    *chain_none = 1.0 - p;
                }
                f(0b1, marginal);
            }
        }
    }
}

/// Where the slots of a drawn site land. Every method describes the same
/// event — "slot fires in these shots" — in the form the draw produced
/// it, so a sink may pick the cheapest representation.
pub trait FaultSink {
    /// Slot `slot` fires independently with probability `p` in each of
    /// the `width` shots. The sink must consume exactly
    /// [`fill_bernoulli`]`(_, width, p, rng)`'s stream (for example with
    /// that call, or with
    /// [`for_each_bernoulli_index`](symphase_bitmat::bernoulli::for_each_bernoulli_index)).
    fn bernoulli<R: Rng>(&mut self, slot: usize, p: f64, width: usize, rng: &mut R);
    /// Slot `slot` fires in shot `shot`.
    fn set(&mut self, slot: usize, shot: usize);
    /// Slot `slot` fires in exactly the shots set in `fired`
    /// (`words_for(width)` words).
    fn mask(&mut self, slot: usize, fired: &[Word]);
}

/// Buffers [`draw`] reuses across the sites of one window: the fire mask,
/// and the per-shot "chain already fired" mask that carries a correlated
/// chain from one site to the next. Use one scratch per pass over a
/// circuit's sites; a fresh scratch has no chain.
#[derive(Clone, Debug, Default)]
pub struct NoiseScratch {
    fire: Vec<Word>,
    chain: Vec<Word>,
}

/// Draws one site for a window of `width` shots and reports every fired
/// slot to `sink`. This is the stream contract of the module docs.
pub fn draw<R: Rng, S: FaultSink>(
    site: &NoiseSite,
    width: usize,
    rng: &mut R,
    scratch: &mut NoiseScratch,
    sink: &mut S,
) {
    let fire = &mut scratch.fire;
    fire.resize(words_for(width), 0);
    match *site {
        NoiseSite::Bernoulli(p) => sink.bernoulli(0, p, width, rng),
        NoiseSite::Depolarize1(p) => {
            fill_bernoulli(fire, width, p, rng);
            for shot in iter_ones(fire) {
                // X, Y or Z.
                let slots = [0b01, 0b11, 0b10][rng.random_range(0..3u32) as usize];
                set_slots(sink, slots, shot);
            }
        }
        NoiseSite::Depolarize2(p) => {
            fill_bernoulli(fire, width, p, rng);
            for shot in iter_ones(fire) {
                let k = rng.random_range(1..16u32);
                set_slots(sink, k as u8, shot);
            }
        }
        NoiseSite::PauliChannel1 { px, py, pz } => {
            let total = px + py + pz;
            fill_bernoulli(fire, width, total, rng);
            for shot in iter_ones(fire) {
                let u: f64 = rng.random::<f64>() * total;
                if u < px + py {
                    sink.set(0, shot);
                }
                if u >= px {
                    sink.set(1, shot);
                }
            }
        }
        NoiseSite::PauliChannel2 { probs } => {
            let total: f64 = probs.iter().sum();
            fill_bernoulli(fire, width, total.min(1.0), rng);
            for shot in iter_ones(fire) {
                let u: f64 = rng.random::<f64>() * total;
                let slots = pauli_channel_2_slots(pauli_channel_2_select(u, &probs));
                set_slots(sink, slots, shot);
            }
        }
        NoiseSite::Correlated { p, else_branch } => {
            // An independent Bernoulli(p) draw masked by "chain not fired
            // yet" realizes the conditional probability exactly.
            fill_bernoulli(fire, width, p, rng);
            let chain = &mut scratch.chain;
            if else_branch {
                chain.resize(fire.len(), 0);
                for (f, c) in fire.iter_mut().zip(chain.iter_mut()) {
                    *f &= !*c;
                    *c |= *f;
                }
            } else {
                chain.clone_from(fire);
            }
            sink.mask(0, fire);
        }
    }
}

/// Reports slot `j` for every set bit `j` of `slots`.
fn set_slots(sink: &mut impl FaultSink, slots: u8, shot: usize) {
    for j in 0..4 {
        if slots & (1 << j) != 0 {
            sink.set(j, shot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symphase_bitmat::bernoulli::for_each_bernoulli_index;

    const WIDTHS: [usize; 5] = [1, 63, 64, 65, 4096];
    const PROBS: [f64; 6] = [0.0, 1e-3, 0.3, 0.5, 0.7, 1.0];

    /// Assignment-matrix style: one row per slot, written in place.
    struct Rows([Vec<Word>; 4]);

    impl FaultSink for Rows {
        fn bernoulli<R: Rng>(&mut self, slot: usize, p: f64, width: usize, rng: &mut R) {
            fill_bernoulli(&mut self.0[slot], width, p, rng);
        }
        fn set(&mut self, slot: usize, shot: usize) {
            self.0[slot][shot / 64] |= 1 << (shot % 64);
        }
        fn mask(&mut self, slot: usize, fired: &[Word]) {
            self.0[slot].copy_from_slice(fired);
        }
    }

    /// Hybrid style: fired `(slot, shot)` events, masks never built.
    struct Events(Vec<(usize, usize)>);

    impl FaultSink for Events {
        fn bernoulli<R: Rng>(&mut self, slot: usize, p: f64, width: usize, rng: &mut R) {
            for_each_bernoulli_index(p, width, rng, |shot| self.0.push((slot, shot)));
        }
        fn set(&mut self, slot: usize, shot: usize) {
            self.0.push((slot, shot));
        }
        fn mask(&mut self, slot: usize, fired: &[Word]) {
            self.0.extend(iter_ones(fired).map(|shot| (slot, shot)));
        }
    }

    /// Frame style: slots XOR into component rows (the X/Z rows of
    /// qubits a and b) through a shared mask buffer.
    struct Frame {
        rows: [Vec<Word>; 4],
        buf: Vec<Word>,
    }

    impl FaultSink for Frame {
        fn bernoulli<R: Rng>(&mut self, slot: usize, p: f64, width: usize, rng: &mut R) {
            let mut buf = std::mem::take(&mut self.buf);
            fill_bernoulli(&mut buf, width, p, rng);
            self.mask(slot, &buf);
            self.buf = buf;
        }
        fn set(&mut self, slot: usize, shot: usize) {
            self.rows[slot][shot / 64] ^= 1 << (shot % 64);
        }
        fn mask(&mut self, slot: usize, fired: &[Word]) {
            for (d, s) in self.rows[slot].iter_mut().zip(fired) {
                *d ^= *s;
            }
        }
    }

    /// Kind `0..6` is each site kind (5 = `E`), 6 an `ELSE` that continues
    /// the previous chain (or starts one when none is open).
    fn site(kind: usize, p: f64, chain_open: bool) -> NoiseSite {
        match kind {
            0 => NoiseSite::Bernoulli(p),
            1 => NoiseSite::Depolarize1(p),
            2 => NoiseSite::Depolarize2(p),
            3 => NoiseSite::PauliChannel1 {
                px: p * 0.5,
                py: p * 0.25,
                pz: p * 0.25,
            },
            4 => {
                let mut probs = [p / 16.0; 15];
                probs[14] = p / 8.0;
                NoiseSite::PauliChannel2 { probs }
            }
            _ => NoiseSite::Correlated {
                p,
                else_branch: kind == 6 && chain_open,
            },
        }
    }

    fn zeros(width: usize) -> [Vec<Word>; 4] {
        std::array::from_fn(|_| vec![0; words_for(width)])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every sink style sees the same slot bits from the same seed,
        /// and leaves the RNG at the same point: the draw alone decides
        /// the stream.
        #[test]
        fn every_sink_style_draws_identical_slot_bits(
            w in 0usize..5,
            sites in proptest::collection::vec((0usize..7, 0usize..6), 1..24),
            seed in any::<u64>(),
        ) {
            let width = WIDTHS[w];
            let mut rngs: [StdRng; 3] = std::array::from_fn(|_| StdRng::seed_from_u64(seed));
            let mut scratch: [NoiseScratch; 3] = Default::default();
            let mut chain_open = false;
            for &(kind, pi) in &sites {
                let site = site(kind, PROBS[pi], chain_open);
                chain_open = matches!(site, NoiseSite::Correlated { .. });

                let mut rows = Rows(zeros(width));
                draw(&site, width, &mut rngs[0], &mut scratch[0], &mut rows);

                let mut events = Events(Vec::new());
                draw(&site, width, &mut rngs[1], &mut scratch[1], &mut events);
                let mut scattered = zeros(width);
                for &(slot, shot) in &events.0 {
                    scattered[slot][shot / 64] ^= 1 << (shot % 64);
                }

                let mut frame = Frame { rows: zeros(width), buf: vec![0; words_for(width)] };
                draw(&site, width, &mut rngs[2], &mut scratch[2], &mut frame);

                prop_assert_eq!(&rows.0, &scattered, "events, {:?} width {}", site, width);
                prop_assert_eq!(&rows.0, &frame.rows, "frame, {:?} width {}", site, width);
                if let NoiseSite::Bernoulli(p) | NoiseSite::Correlated { p, else_branch: false } = site {
                    let ones = symphase_bitmat::word::count_ones(&rows.0[0]);
                    if p == 0.0 {
                        prop_assert_eq!(ones, 0);
                    } else if p == 1.0 {
                        prop_assert_eq!(ones, width);
                    }
                }
            }
            let next: Vec<u64> = rngs.iter_mut().map(|r| r.random()).collect();
            prop_assert!(next.iter().all(|&n| n == next[0]), "streams diverged");
        }
    }
}
