//! Integration tests for the `stt-ctrl` traffic engine.
//!
//! The three properties the controller stakes its design on:
//!
//! 1. **Determinism** — a parallel run (banks sharded over threads) returns
//!    telemetry equal to a serial run of the same trace and seed.
//! 2. **Retry is safe** — the retry policy can never flip a read whose
//!    first attempt was already confident (checked as a proptest).
//! 3. **The paper's §I argument, traffic-shaped** — a power cut mid-read
//!    corrupts stored data under the destructive scheme and never under
//!    the nondestructive (or conventional) scheme.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stt_ctrl::{
    Controller, ControllerConfig, Dispatch, FaultPlan, RetryPolicy, Sensed, Trace, Workload,
};
use stt_sense::SchemeKind;
use stt_units::Volts;

fn trace_for(config: &ControllerConfig, workload: Workload, ops: usize, seed: u64) -> Trace {
    workload.generate(config.footprint(), ops, &mut StdRng::seed_from_u64(seed))
}

#[test]
fn parallel_run_equals_serial_run() {
    for kind in SchemeKind::ALL {
        let config = ControllerConfig::small(kind, 5).with_seed(314);
        let trace = trace_for(&config, Workload::Uniform { read_fraction: 0.6 }, 2_000, 8);
        let serial = Controller::new(config.clone()).run(&trace, Dispatch::Serial);
        let parallel = Controller::new(config).run(&trace, Dispatch::Parallel);
        assert_eq!(serial, parallel, "{kind}: dispatch must not change results");
    }
}

#[test]
fn parallel_run_equals_serial_run_under_faults() {
    // Same property with the fault injector live: power cuts follow
    // per-bank read counters, so they land identically under any dispatch.
    let faults = FaultPlan::none().with_power_cut_every(50);
    for kind in [SchemeKind::Destructive, SchemeKind::Nondestructive] {
        let config = ControllerConfig::small(kind, 4)
            .with_seed(271)
            .with_faults(faults.clone());
        let trace = trace_for(&config, Workload::ReadMostly, 1_500, 17);
        let serial = Controller::new(config.clone()).run(&trace, Dispatch::Serial);
        let parallel = Controller::new(config).run(&trace, Dispatch::Parallel);
        assert_eq!(serial, parallel, "{kind}");
    }
}

#[test]
fn replayed_trace_reproduces_telemetry() {
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 3).with_seed(99);
    let trace = trace_for(
        &config,
        Workload::Zipf {
            theta: 0.9,
            read_fraction: 0.8,
        },
        1_000,
        4,
    );
    let replayed = Trace::from_csv(&trace.to_csv()).expect("round-trip");
    let original = Controller::new(config.clone()).run(&trace, Dispatch::Parallel);
    let again = Controller::new(config).run(&replayed, Dispatch::Parallel);
    assert_eq!(
        original, again,
        "a CSV round-trip must replay bit-identically"
    );
}

#[test]
fn power_cut_mid_read_corrupts_destructive_but_never_nondestructive() {
    // Cut every 25th read on every bank across a read-mostly trace.
    let faults = FaultPlan::none().with_power_cut_every(25);
    let mut corrupted_under = std::collections::HashMap::new();
    for kind in SchemeKind::ALL {
        let config = ControllerConfig::small(kind, 4)
            .with_seed(1234)
            .with_faults(faults.clone());
        let trace = trace_for(&config, Workload::ReadMostly, 4_000, 55);
        let telemetry = Controller::new(config).run(&trace, Dispatch::Parallel);
        let totals = telemetry.aggregate();
        assert!(
            totals.power_cuts > 10,
            "{kind}: the injector must have fired"
        );
        corrupted_under.insert(kind, totals.corrupted_bits);
        if kind != SchemeKind::Destructive {
            assert_eq!(
                totals.corrupted_bits, 0,
                "{kind}: a read-only sense sequence cannot lose data to a cut"
            );
        }
    }
    assert!(
        corrupted_under[&SchemeKind::Destructive] > 0,
        "destructive reads interrupted after the erase must lose data"
    );
}

#[test]
fn nondestructive_traffic_audits_clean_without_faults() {
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 4).with_seed(7);
    let trace = trace_for(&config, Workload::Uniform { read_fraction: 0.5 }, 3_000, 21);
    let telemetry = Controller::new(config).run(&trace, Dispatch::Parallel);
    // Reads never write, and verified writes either land or are counted.
    assert_eq!(
        telemetry.audit_corrupted_bits,
        telemetry.aggregate().write_failures,
        "only unwritable cells may disagree with the host's view"
    );
}

proptest! {
    /// A confident first attempt short-circuits the policy: whatever the
    /// later attempts would have seen, the resolved bit IS the first
    /// attempt's bit. Retry can only ever change coin-flip reads.
    #[test]
    fn retry_never_flips_a_confident_first_read(
        first_mv in 8.0f64..200.0,
        sign in proptest::bool::ANY,
        later_mv in proptest::collection::vec(-200.0f64..200.0, 0..4),
        guard_mv in 0.1f64..8.0,
        max_attempts in 1u32..5,
    ) {
        let policy = RetryPolicy {
            guard_band: Volts::from_milli(guard_mv),
            max_attempts,
        };
        let signed = if sign { first_mv } else { -first_mv };
        let mut attempts = Vec::with_capacity(1 + later_mv.len());
        attempts.push(signed);
        attempts.extend(later_mv.iter().copied());
        let mut calls = 0usize;
        let resolution = policy.resolve(|| {
            let observed = attempts[calls.min(attempts.len() - 1)];
            calls += 1;
            Sensed {
                bit: observed > 0.0,
                observed: Volts::from_milli(observed),
                correct: true,
            }
        });
        // |first| >= 8 mV > guard band, so the first attempt is confident.
        prop_assert_eq!(calls, 1);
        prop_assert!(resolution.confident);
        prop_assert_eq!(resolution.bit, signed > 0.0);
        prop_assert_eq!(resolution.attempts, 1);
    }
}

proptest! {
    /// Whatever the attempt sequence, the policy delivers a bit that is a
    /// function of the observations it was shown — and consumes at most
    /// `max_attempts` of them.
    #[test]
    fn retry_is_bounded_and_deterministic(
        observations in proptest::collection::vec(-50.0f64..50.0, 1..6),
        guard_mv in 0.5f64..20.0,
    ) {
        let policy = RetryPolicy {
            guard_band: Volts::from_milli(guard_mv),
            max_attempts: observations.len() as u32,
        };
        let run = || {
            let mut calls = 0usize;
            let resolution = policy.resolve(|| {
                let observed = observations[calls];
                calls += 1;
                Sensed {
                    bit: observed > 0.0,
                    observed: Volts::from_milli(observed),
                    correct: true,
                }
            });
            (resolution, calls)
        };
        let (first, calls_a) = run();
        let (second, calls_b) = run();
        prop_assert_eq!(first, second);
        prop_assert_eq!(calls_a, calls_b);
        prop_assert!(calls_a as u32 <= policy.max_attempts);
    }
}
