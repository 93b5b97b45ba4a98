//! The bank cell store: what a bank keeps per cell, and nothing more.
//!
//! A nondestructive read's outcome depends only on the cell's two
//! Eq. (8)/(9) margins, its stored state and the amplifier offset, and a
//! write pulse's outcome only on the cell's switching probability — which
//! is the same for every cell of a bank, since process variation moves
//! resistances, not the switching model. So instead of a full
//! [`stt_array::Array`] of ~104 B cells, a bank holds:
//!
//! * a **margin column** — one [`SenseMargins`] (16 B) per cell, evaluated
//!   at the bank's current [`Scheme`] and drift key;
//! * a **state bitset** — the stored bit of every cell;
//! * one **switching probability** for the bank's write pulse;
//! * under a non-quiet drift plan only, a **variation sidecar** — each
//!   cell's sampled [`CellVariation`] (24 B) plus the bank's pinhole
//!   overrides — from which [`CellStore::rebuild`] recomputes the column
//!   in place when the drift key or the scheme moves.
//!
//! Sampling draws exactly what [`stt_array::ArraySpec::sample`] draws, in
//! the same row-major order, and every margin is the one [`Scheme::margins`]
//! gives for the equivalent [`Cell`], so a bank built on this store is bit
//! for bit the bank built on an `Array`.

use rand::rngs::StdRng;
use rand::Rng;
use stt_array::{ArraySpec, Cell, CellSpec, CellVariation};
use stt_mtj::{LinearRolloff, MtjSpec, SwitchingModel};
use stt_sense::SenseMargins;
use stt_units::{Amps, Seconds};

use crate::faults::{DriftKey, DriftPlan};
use crate::sense::{Scheme, Sensed};

/// Residual high/low separation of a pinhole-shorted MTJ. The MgO defect
/// shunts the tunnel barrier, so both magnetic states conduct through the
/// short: the cell's "high" state is electrically a low state a few percent
/// stiffer, far below any scheme's sensing threshold.
const PINHOLE_RESIDUAL_TMR: f64 = 0.02;

/// A fixed-length bitset over row-major cells: bit `k` of word `w` is cell
/// `64·w + k`, so a 64-bit word is exactly one ECC word of cells. Bits past
/// the end stay zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitSet {
    len: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// `len` bits, bit `k` = `bit(k)`, evaluated in index order.
    pub(crate) fn from_fn(len: usize, mut bit: impl FnMut(usize) -> bool) -> Self {
        let mut words = vec![0u64; len.div_ceil(64)];
        for k in 0..len {
            words[k / 64] |= u64::from(bit(k)) << (k % 64);
        }
        Self { len, words }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, k: usize) -> bool {
        assert!(k < self.len, "cell {k} out of range ({})", self.len);
        (self.words[k / 64] >> (k % 64)) & 1 == 1
    }

    pub(crate) fn set(&mut self, k: usize, bit: bool) {
        assert!(k < self.len, "cell {k} out of range ({})", self.len);
        let mask = 1u64 << (k % 64);
        if bit {
            self.words[k / 64] |= mask;
        } else {
            self.words[k / 64] &= !mask;
        }
    }

    /// Word `w`: cells `64·w ..` with bit `k` = cell `64·w + k`.
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Number of cells whose bits differ between `self` and `other`.
    pub(crate) fn count_differences(&self, other: &BitSet) -> u64 {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| u64::from((a ^ b).count_ones()))
            .sum()
    }

    pub(crate) fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|k| self.get(k)).collect()
    }
}

/// What a margin-column rebuild needs beyond the column itself: the cell
/// recipe, every cell's sampled variation and the pinhole overrides. Held
/// only under a non-quiet drift plan.
#[derive(Debug)]
struct Variation {
    recipe: CellSpec,
    /// Row-major per-cell draws.
    cells: Vec<CellVariation>,
    /// Sorted row-major indices of pinhole-shorted cells.
    pinholes: Vec<usize>,
}

/// The undrifted device of a cell drawn with `variation`: the varied
/// recipe, or for a pinhole the collapsed device (the cell keeps only its
/// sampled transistor).
fn undrifted_mtj(recipe: &CellSpec, variation: &CellVariation, pinhole: bool) -> MtjSpec {
    if pinhole {
        pinhole_spec(&recipe.mtj)
    } else {
        recipe.mtj.varied(&variation.mtj)
    }
}

/// One bank's cells: margin column, state bitset and write model.
#[derive(Debug)]
pub(crate) struct CellStore {
    /// Row-major margins at the bank's current scheme and drift key.
    margins: Vec<SenseMargins>,
    state: BitSet,
    write_current: Amps,
    write_pulse: Seconds,
    /// Success probability of one programming pulse, shared by every cell.
    p_switch: f64,
    variation: Option<Variation>,
}

impl CellStore {
    /// Samples `spec`'s cells from `rng` — two MTJ normals and one
    /// transistor normal per cell, row-major, exactly as
    /// [`ArraySpec::sample`] — into a margin column at `scheme`. The cells
    /// listed in `pinholes` (row-major indices) get the collapsed pinhole
    /// device with their sampled transistor. Every cell starts storing 0.
    /// With `keep_variation` the draws are kept for [`CellStore::rebuild`].
    ///
    /// # Panics
    ///
    /// Panics if the spec is inconsistent (see
    /// [`ArraySpec::assert_consistent`]) or a pinhole is out of range.
    pub(crate) fn sample(
        spec: &ArraySpec,
        scheme: &Scheme,
        pinholes: &[usize],
        keep_variation: bool,
        rng: &mut StdRng,
    ) -> Self {
        spec.assert_consistent();
        let len = spec.capacity_bits();
        let mut pinholes = pinholes.to_vec();
        pinholes.sort_unstable();
        pinholes.dedup();
        if let Some(&last) = pinholes.last() {
            assert!(last < len, "pinhole cell {last} out of range ({len})");
        }
        let recipe = &spec.cell;
        let mut kept = Vec::with_capacity(if keep_variation { len } else { 0 });
        let margins = (0..len)
            .map(|cell| {
                let variation = recipe.sample_variation(rng);
                if keep_variation {
                    kept.push(variation);
                }
                let pinhole = pinholes.binary_search(&cell).is_ok();
                let device = undrifted_mtj(recipe, &variation, pinhole).into_device();
                scheme.margins(&Cell::new(device, recipe.varied_transistor(&variation)))
            })
            .collect();
        Self {
            margins,
            state: BitSet::from_fn(len, |_| false),
            write_current: spec.write_current,
            write_pulse: spec.write_pulse,
            p_switch: pulse_probability(
                &recipe.mtj.switching,
                spec.write_current,
                spec.write_pulse,
            ),
            variation: keep_variation.then(|| Variation {
                recipe: recipe.clone(),
                cells: kept,
                pinholes,
            }),
        }
    }

    /// Recomputes the margin column in place at `scheme`, with every
    /// device pushed through `drift`'s [`DriftPlan::drifted_spec`] (or
    /// undrifted for `None`), and the write pulse's switching probability
    /// with it. Draws no RNG and leaves the stored state alone.
    ///
    /// # Panics
    ///
    /// Panics if the store was sampled without `keep_variation`.
    pub(crate) fn rebuild(&mut self, scheme: &Scheme, drift: Option<(&DriftPlan, DriftKey)>) {
        let variation = self
            .variation
            .as_ref()
            .expect("a margin rebuild needs the variation sidecar (a non-quiet drift plan)");
        let recipe = &variation.recipe;
        let drifted = |mtj: &MtjSpec| match drift {
            Some((plan, key)) => plan.drifted_spec(mtj, key),
            None => mtj.clone(),
        };
        for (cell, (margins, drawn)) in self.margins.iter_mut().zip(&variation.cells).enumerate() {
            let pinhole = variation.pinholes.binary_search(&cell).is_ok();
            let device = drifted(&undrifted_mtj(recipe, drawn, pinhole)).into_device();
            *margins = scheme.margins(&Cell::new(device, recipe.varied_transistor(drawn)));
        }
        self.p_switch = pulse_probability(
            &drifted(&recipe.mtj).switching,
            self.write_current,
            self.write_pulse,
        );
    }

    /// The margin column, row-major.
    #[cfg(test)]
    pub(crate) fn margins(&self) -> &[SenseMargins] {
        &self.margins
    }

    /// The write pulse's switching probability.
    #[cfg(test)]
    pub(crate) fn p_switch(&self) -> f64 {
        self.p_switch
    }

    /// The stored bits.
    pub(crate) fn state(&self) -> &BitSet {
        &self.state
    }

    /// The bit `cell` stores.
    pub(crate) fn bit(&self, cell: usize) -> bool {
        self.state.get(cell)
    }

    /// Ideal write of every cell at once (a preload).
    ///
    /// # Panics
    ///
    /// Panics if `state` does not cover exactly this store's cells.
    pub(crate) fn load(&mut self, state: BitSet) {
        assert_eq!(state.len(), self.state.len(), "preload size mismatch");
        self.state = state;
    }

    /// Ideal write: sets the stored bit without switching dynamics.
    pub(crate) fn set(&mut self, cell: usize, bit: bool) {
        self.state.set(cell, bit);
    }

    /// Flips the stored bit (a soft error).
    pub(crate) fn flip(&mut self, cell: usize) {
        let bit = self.bit(cell);
        self.set(cell, !bit);
    }

    /// One programming pulse towards `bit`: no draw when the cell already
    /// holds it, else one Bernoulli draw at the bank's switching
    /// probability — [`stt_array::Cell::write_with_pulse`]'s contract.
    /// Returns `true` if the cell ends up holding `bit`.
    pub(crate) fn write_pulsed(&mut self, cell: usize, bit: bool, rng: &mut StdRng) -> bool {
        if self.bit(cell) == bit {
            return true;
        }
        if rng.gen_bool(self.p_switch) {
            self.set(cell, bit);
        }
        self.bit(cell) == bit
    }

    /// Write-verify: pulses until the cell holds `bit`, up to
    /// `max_attempts`. Returns the pulses used, or `None` if it never
    /// switched.
    pub(crate) fn write_verified(
        &mut self,
        cell: usize,
        bit: bool,
        max_attempts: u32,
        rng: &mut StdRng,
    ) -> Option<u32> {
        (1..=max_attempts).find(|_| self.write_pulsed(cell, bit, rng))
    }

    /// The sense step alone: no state mutation, even for the destructive
    /// scheme.
    pub(crate) fn sense_readonly(&self, scheme: &Scheme, cell: usize, rng: &mut StdRng) -> Sensed {
        scheme.sense(&self.margins[cell], self.bit(cell), rng)
    }

    /// One sense with the scheme's full hardware sequence: a destructive
    /// read erases the cell and writes the *sensed* bit back with real
    /// pulses, exactly as [`Scheme::sense_once`] does on an array.
    pub(crate) fn sense(&mut self, scheme: &Scheme, cell: usize, rng: &mut StdRng) -> Sensed {
        let sensed = self.sense_readonly(scheme, cell, rng);
        if scheme.is_destructive() {
            self.write_pulsed(cell, false, rng);
            self.write_pulsed(cell, sensed.bit, rng);
        }
        sensed
    }
}

/// The collapsed device a pinhole leaves of `mtj`: the "high" state is the
/// low-state curve scaled by the residual TMR.
pub(crate) fn pinhole_spec(mtj: &MtjSpec) -> MtjSpec {
    let low = mtj.resistance.r_low0();
    let dr_low = mtj.resistance.dr_low_max();
    MtjSpec {
        resistance: LinearRolloff::new(
            low,
            low * (1.0 + PINHOLE_RESIDUAL_TMR),
            dr_low,
            dr_low * (1.0 + PINHOLE_RESIDUAL_TMR),
            mtj.resistance.i_max(),
        ),
        switching: mtj.switching,
    }
}

/// The clamped success probability of one write pulse — what
/// [`stt_array::Cell::write_with_pulse`] draws against.
fn pulse_probability(switching: &SwitchingModel, current: Amps, pulse: Seconds) -> f64 {
    switching
        .switching_probability(current, pulse)
        .clamp(0.0, 1.0)
}
