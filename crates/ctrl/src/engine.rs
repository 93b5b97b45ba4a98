//! The controller engine: N banks, one trace, serial or parallel dispatch.
//!
//! Each bank serves the transactions addressed to it, in trace order,
//! against its own array with its own RNG; the trace is read in place, never
//! copied. Because banks share nothing, the parallel dispatch (the banks
//! split into contiguous shards over at most `available_parallelism()`
//! scoped workers, each walking the trace for its own banks) executes the
//! exact same per-bank instruction-and-RNG sequence as the serial one —
//! [`Controller::run`] returns **equal** [`Telemetry`] either way, which the
//! test suite asserts outright.

use serde::{Deserialize, Serialize};
use stt_array::ArraySpec;
use stt_sense::SchemeKind;

use crate::bank::Bank;
use crate::calib::CalibConfig;
use crate::faults::{DriftPlan, FaultPlan};
use crate::reliability::EccMode;
use crate::retry::RetryPolicy;
use crate::telemetry::{LatencyBounds, Telemetry};
use crate::txn::TxnSource;
use crate::workload::Footprint;

/// How [`Controller::run`] drives its banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dispatch {
    /// The whole trace on the calling thread, in trace order.
    Serial,
    /// The banks split into contiguous shards over at most
    /// `available_parallelism()` scoped worker threads.
    Parallel,
}

/// Everything needed to build a controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Number of banks.
    pub banks: usize,
    /// Per-bank array recipe.
    pub spec: ArraySpec,
    /// Sensing scheme serving every read.
    pub kind: SchemeKind,
    /// Read-retry policy.
    pub retry: RetryPolicy,
    /// Faults to inject while serving.
    pub faults: FaultPlan,
    /// Master seed; bank `k` derives its stream from `(seed, k)`.
    pub seed: u64,
    /// Read-latency histogram binning (defaults to the historical
    /// 0–100 ns × 2 ns grid).
    #[serde(default)]
    pub latency_bounds: LatencyBounds,
    /// Error-correction layer over bank reads (defaults to none, the seed
    /// behaviour: every misread is silent).
    #[serde(default)]
    pub ecc: EccMode,
    /// Dynamic thermal/aging drift applied on each bank's busy clock
    /// (defaults to quiet: no drift, bit-identical to pre-drift builds).
    #[serde(default)]
    pub drift: DriftPlan,
    /// Inline per-bank calibration daemon: each bank evaluates the trip
    /// condition itself every [`CalibConfig::check_reads`] demand reads
    /// (defaults to off). Mutually exclusive with the frontend daemon
    /// ([`FrontendConfig::with_calib`](crate::sched::FrontendConfig::with_calib)).
    #[serde(default)]
    pub calib: Option<CalibConfig>,
}

impl ControllerConfig {
    /// Paper-scale banks (16 kb each) under `kind`, no faults.
    #[must_use]
    pub fn date2010(kind: SchemeKind, banks: usize) -> Self {
        Self {
            banks,
            spec: ArraySpec::date2010_chip(),
            kind,
            retry: RetryPolicy::date2010(),
            faults: FaultPlan::none(),
            seed: 2010,
            latency_bounds: LatencyBounds::date2010(),
            ecc: EccMode::None,
            drift: DriftPlan::quiet(),
            calib: None,
        }
    }

    /// Small 8×8 banks for fast tests.
    #[must_use]
    pub fn small(kind: SchemeKind, banks: usize) -> Self {
        Self {
            spec: ArraySpec::small_test_array(),
            ..Self::date2010(kind, banks)
        }
    }

    /// Overrides the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the read-latency histogram binning.
    #[must_use]
    pub fn with_latency_bounds(mut self, bounds: LatencyBounds) -> Self {
        self.latency_bounds = bounds;
        self
    }

    /// Overrides the ECC layer.
    #[must_use]
    pub fn with_ecc(mut self, ecc: EccMode) -> Self {
        self.ecc = ecc;
        self
    }

    /// Overrides the drift plan.
    #[must_use]
    pub fn with_drift(mut self, drift: DriftPlan) -> Self {
        self.drift = drift;
        self
    }

    /// Enables the inline per-bank calibration daemon.
    #[must_use]
    pub fn with_calib(mut self, calib: CalibConfig) -> Self {
        self.calib = Some(calib);
        self
    }

    /// The address space this configuration exposes, for workload
    /// generation.
    #[must_use]
    pub fn footprint(&self) -> Footprint {
        Footprint {
            banks: self.banks,
            rows: self.spec.rows,
            cols: self.spec.cols,
        }
    }
}

/// A built multi-bank controller. State (cell arrays, RNG streams,
/// telemetry) persists across [`Controller::run`] calls, so a trace can be
/// replayed in chunks.
pub struct Controller {
    config: ControllerConfig,
    banks: Vec<Bank>,
}

impl Controller {
    /// Samples all banks (in parallel — bank construction preloads every
    /// cell) and returns a ready controller.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero banks.
    #[must_use]
    pub fn new(config: ControllerConfig) -> Self {
        assert!(config.banks > 0, "a controller needs at least one bank");
        let banks = stt_stats::fill_indexed(config.banks, |index| Bank::new(index, &config));
        Self { config, banks }
    }

    /// The configuration this controller was built from.
    #[must_use]
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Direct mutable access to the banks, for the scheduler frontend: it
    /// drives the exact same service stage as serial replay, just in a
    /// different order.
    pub(crate) fn banks_mut(&mut self) -> &mut [Bank] {
        &mut self.banks
    }

    /// The stored bits of every bank right now (bank order, row-major) —
    /// the state the scheduler frontend's bit-identity tests compare.
    #[must_use]
    pub fn stored_state(&self) -> Vec<Vec<bool>> {
        self.banks.iter().map(Bank::stored_bits).collect()
    }

    /// Serves every transaction of `trace` and returns the run's telemetry
    /// (including the post-run integrity audit).
    ///
    /// Generic over [`TxnSource`]: an owned [`Trace`](crate::Trace) and a
    /// zero-copy [`TraceView`](crate::TraceView) are read in place and
    /// replay bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if a transaction addresses a bank the controller does not
    /// have; the whole trace is checked before anything is served, so the
    /// controller is left untouched.
    pub fn run<S: TxnSource + Sync + ?Sized>(
        &mut self,
        trace: &S,
        dispatch: Dispatch,
    ) -> Telemetry {
        let Self { config, banks } = self;
        for index in 0..trace.len() {
            let bank = trace.get(index).bank;
            assert!(
                bank < banks.len(),
                "transaction targets bank {bank} of a {}-bank controller",
                banks.len()
            );
        }
        let faults = &config.faults;
        let serve = |first: usize, shard: &mut [Bank]| {
            for index in 0..trace.len() {
                let txn = trace.get(index);
                if let Some(bank) = txn
                    .bank
                    .checked_sub(first)
                    .and_then(|local| shard.get_mut(local))
                {
                    bank.execute(&txn, faults);
                }
            }
        };
        match dispatch {
            Dispatch::Serial => serve(0, banks),
            Dispatch::Parallel => stt_stats::fan_out(banks, serve),
        }
        self.telemetry()
    }

    /// A fresh telemetry snapshot (per-bank counters plus audit) without
    /// serving anything.
    #[must_use]
    pub fn telemetry(&self) -> Telemetry {
        Telemetry {
            banks: self.banks.iter().map(|b| b.telemetry().clone()).collect(),
            audit_corrupted_bits: self.banks.iter().map(Bank::audit_corrupted_bits).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::{Trace, Transaction};
    use crate::workload::Workload;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_trace(config: &ControllerConfig, count: usize) -> Trace {
        Workload::Uniform { read_fraction: 0.7 }.generate(
            config.footprint(),
            count,
            &mut StdRng::seed_from_u64(5),
        )
    }

    #[test]
    fn every_transaction_is_served() {
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 3);
        let trace = small_trace(&config, 600);
        let telemetry = Controller::new(config).run(&trace, Dispatch::Serial);
        assert_eq!(telemetry.transactions(), 600);
        assert_eq!(telemetry.banks.len(), 3);
        assert_eq!(telemetry.aggregate().reads, trace.reads() as u64);
    }

    #[test]
    fn state_persists_across_runs() {
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 2);
        let trace = small_trace(&config, 100);
        let mut controller = Controller::new(config);
        controller.run(&trace, Dispatch::Serial);
        let telemetry = controller.run(&trace, Dispatch::Serial);
        assert_eq!(telemetry.transactions(), 200);
    }

    #[test]
    fn parallel_shards_over_many_banks_equal_serial() {
        // More banks than any host has cores, so every worker serves a
        // multi-bank shard.
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 64).with_seed(9);
        let trace = small_trace(&config, 3000);
        let mut serial = Controller::new(config.clone());
        let mut parallel = Controller::new(config);
        assert_eq!(
            serial.run(&trace, Dispatch::Serial),
            parallel.run(&trace, Dispatch::Parallel)
        );
        assert_eq!(serial.stored_state(), parallel.stored_state());
    }

    #[test]
    fn a_bad_bank_anywhere_in_the_trace_serves_nothing() {
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 2);
        let mut trace = small_trace(&config, 50);
        trace.push(Transaction::read(2, stt_array::Address::new(0, 0)));
        let mut controller = Controller::new(config);
        for dispatch in [Dispatch::Serial, Dispatch::Parallel] {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                controller.run(&trace, dispatch)
            }));
            assert!(outcome.is_err(), "{dispatch:?} must reject the trace");
            assert_eq!(controller.telemetry().transactions(), 0, "{dispatch:?}");
        }
    }

    #[test]
    #[should_panic(expected = "targets bank")]
    fn out_of_range_bank_panics() {
        let config = ControllerConfig::small(SchemeKind::Conventional, 2);
        let mut controller = Controller::new(config);
        let mut trace = Trace::new();
        trace.push(Transaction::read(5, stt_array::Address::new(0, 0)));
        controller.run(&trace, Dispatch::Serial);
    }
}
