//! Runtime scheme dispatch for the controller's read path.
//!
//! The sensing crate exposes the three schemes as distinct types behind the
//! [`SenseScheme`] trait; a controller picks one per configuration at run
//! time, so this module wraps them in an enum around one sense kernel,
//! [`Scheme::sense`]: *margins, stored bit and an RNG in, one comparator
//! decision out*. Banks feed it from their precomputed margin column;
//! [`Scheme::sense_once`] and [`Scheme::sense_readonly`] feed it from a
//! full [`Array`] cell, running the destructive erase/write-back on the
//! array.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use stt_array::{Address, Array, Cell};
use stt_sense::{
    ConventionalScheme, DesignPoint, DestructiveScheme, NondestructiveScheme, SchemeKind,
    SenseAmplifier, SenseMargins, SenseScheme,
};
use stt_units::Volts;

/// One sensing attempt, with the quantity the retry policy judges.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sensed {
    /// The bit the comparator latched.
    pub bit: bool,
    /// What the comparator actually saw: differential **plus** this
    /// instance's sampled offset. `bit == (observed > 0)`.
    pub observed: Volts,
    /// Whether the latched bit matches the state the cell held when the
    /// attempt started.
    pub correct: bool,
}

impl Sensed {
    /// `true` when `observed` clears `guard_band` in magnitude — the read
    /// was unambiguous as far as the retry policy is concerned.
    #[must_use]
    pub fn is_confident(&self, guard_band: Volts) -> bool {
        self.observed.get().abs() >= guard_band.get()
    }
}

/// A run-time-selected sensing scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Scheme {
    /// Shared-reference sensing.
    Conventional(ConventionalScheme),
    /// Destructive self-reference (erase + write back on every read).
    Destructive(DestructiveScheme),
    /// The paper's nondestructive self-reference.
    Nondestructive(NondestructiveScheme),
}

impl Scheme {
    /// Builds the scheme of `kind` from a design point.
    #[must_use]
    pub fn for_kind(kind: SchemeKind, design: &DesignPoint) -> Self {
        match kind {
            SchemeKind::Conventional => {
                Scheme::Conventional(ConventionalScheme::new(design.conventional))
            }
            SchemeKind::Destructive => {
                Scheme::Destructive(DestructiveScheme::new(design.destructive))
            }
            SchemeKind::Nondestructive => {
                Scheme::Nondestructive(NondestructiveScheme::new(design.nondestructive))
            }
        }
    }

    /// Which scheme this is.
    #[must_use]
    pub fn kind(&self) -> SchemeKind {
        match self {
            Scheme::Conventional(s) => s.kind(),
            Scheme::Destructive(s) => s.kind(),
            Scheme::Nondestructive(s) => s.kind(),
        }
    }

    /// `true` if a read overwrites the cell (and must write it back).
    #[must_use]
    pub fn is_destructive(&self) -> bool {
        matches!(self, Scheme::Destructive(_))
    }

    /// The sense amplifier in this scheme's path.
    fn amplifier(&self) -> &SenseAmplifier {
        match self {
            Scheme::Conventional(s) => s.amplifier(),
            Scheme::Destructive(s) => s.amplifier(),
            Scheme::Nondestructive(s) => s.amplifier(),
        }
    }

    /// The usable threshold of the scheme's sense amplifier — the natural
    /// guard band for a retry policy in this scheme's read path.
    #[must_use]
    pub fn amplifier_threshold(&self) -> Volts {
        self.amplifier().usable_threshold()
    }

    /// The scheme's analytic margins for `cell` — Eqs. (8)/(9) for the
    /// nondestructive scheme. They depend on the device and transistor,
    /// never on the stored state, so a bank evaluates them once per cell.
    #[must_use]
    pub fn margins(&self, cell: &Cell) -> SenseMargins {
        match self {
            Scheme::Conventional(s) => s.margins(cell),
            Scheme::Destructive(s) => s.margins(cell),
            Scheme::Nondestructive(s) => s.margins(cell),
        }
    }

    /// The sense kernel every read path shares: the settled differential
    /// of a cell with `margins` storing `stored`, plus a freshly sampled
    /// amplifier offset. Touches no cell state.
    ///
    /// This mirrors [`SenseScheme::read`] but keeps the offset visible in
    /// `observed`, because the retry policy needs the comparator's actual
    /// input, not just the sign it latched.
    pub fn sense(&self, margins: &SenseMargins, stored: bool, rng: &mut StdRng) -> Sensed {
        let differential = if stored {
            margins.margin1
        } else {
            -margins.margin0
        };
        let amplifier = self.amplifier();
        let offset = amplifier.sample_offset(rng);
        let bit = amplifier.resolve(differential, offset);
        Sensed {
            bit,
            observed: differential + offset,
            correct: bit == stored,
        }
    }

    /// Senses `addr` once, with this scheme's full hardware sequence.
    ///
    /// Conventional and nondestructive reads never touch cell state. A
    /// destructive read runs the §II-C sequence — sense, erase with a real
    /// programming pulse, write back the *sensed* value — so a mis-sense
    /// physically corrupts the cell, exactly the failure mode the paper
    /// describes.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn sense_once(&self, array: &mut Array, addr: Address, rng: &mut StdRng) -> Sensed {
        let sensed = self.sense_readonly(array, addr, rng);
        if self.is_destructive() {
            array.write_bit_pulsed(addr, false, rng);
            array.write_bit_pulsed(addr, sensed.bit, rng);
        }
        sensed
    }

    /// The sense step alone, with no state mutation even for the
    /// destructive scheme.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn sense_readonly(&self, array: &Array, addr: Address, rng: &mut StdRng) -> Sensed {
        let cell = array.cell(addr);
        self.sense(&self.margins(cell), cell.state().bit(), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use stt_array::{ArraySpec, CellSpec};

    fn setup() -> (Array, DesignPoint, StdRng) {
        let mut rng = StdRng::seed_from_u64(21);
        let array = ArraySpec::small_test_array().sample(&mut rng);
        let nominal = CellSpec::date2010_chip().nominal_cell();
        (array, DesignPoint::date2010(&nominal), rng)
    }

    #[test]
    fn kinds_round_trip() {
        let (_, design, _) = setup();
        for kind in SchemeKind::ALL {
            let scheme = Scheme::for_kind(kind, &design);
            assert_eq!(scheme.kind(), kind);
            assert_eq!(scheme.is_destructive(), kind == SchemeKind::Destructive);
        }
    }

    #[test]
    fn observed_sign_matches_latched_bit() {
        let (mut array, design, mut rng) = setup();
        array.fill_with(|addr| addr.row % 2 == 0);
        for kind in SchemeKind::ALL {
            let scheme = Scheme::for_kind(kind, &design);
            for addr in array.addresses().collect::<Vec<_>>() {
                let sensed = scheme.sense_once(&mut array, addr, &mut rng);
                assert_eq!(sensed.bit, sensed.observed.get() > 0.0);
            }
        }
    }

    #[test]
    fn nondestructive_sense_never_mutates() {
        let (mut array, design, mut rng) = setup();
        array.fill_with(|addr| addr.col % 2 == 0);
        let before = array.clone();
        let scheme = Scheme::for_kind(SchemeKind::Nondestructive, &design);
        for addr in array.addresses().collect::<Vec<_>>() {
            scheme.sense_once(&mut array, addr, &mut rng);
        }
        assert_eq!(array, before);
    }

    #[test]
    fn destructive_sense_round_trips_state_on_success() {
        let (mut array, design, mut rng) = setup();
        let addr = Address::new(3, 3);
        array.write_bit(addr, true);
        let scheme = Scheme::for_kind(SchemeKind::Destructive, &design);
        let sensed = scheme.sense_once(&mut array, addr, &mut rng);
        assert!(sensed.correct);
        assert!(array.read_state(addr).bit());
    }

    #[test]
    fn confidence_is_a_guard_band_test() {
        let sensed = Sensed {
            bit: true,
            observed: Volts::from_milli(10.0),
            correct: true,
        };
        assert!(sensed.is_confident(Volts::from_milli(8.0)));
        assert!(!sensed.is_confident(Volts::from_milli(12.0)));
    }
}
