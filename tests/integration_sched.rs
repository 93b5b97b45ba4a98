//! Integration tests for the `stt-ctrl` scheduler frontend.
//!
//! The properties the frontend stakes its design on:
//!
//! 1. **Anchor identity** — event-driven FCFS dispatch at unbounded queue
//!    depth reproduces [`Controller::run`] serial replay bit-for-bit: same
//!    stored state, same audit, same telemetry except the queueing section
//!    serial replay cannot measure.
//! 2. **Per-address ordering survives reordering** — whatever the policy
//!    and queue bounds, two transactions touching the same cell complete in
//!    admission order (checked as a proptest).
//! 3. **Backpressure engages under saturation** — offered load beyond the
//!    service rate must stall (or drop), never silently grow state.
//! 4. **The paper's system-level argument** — at the same offered load the
//!    destructive scheme's restore-inflated 25 ns read queues harder than
//!    the nondestructive scheme's 14 ns read.
//! 5. **Drift and recalibration preserve the anchor** — thermal/aging
//!    drift on the busy clock plus the inline β-recalibration daemon stay
//!    bit-identical across serial replay, parallel dispatch and the
//!    frontend (checked as a proptest over transient shapes).
//! 6. **Pinned behaviour** — the frontend with scrub, March and
//!    calibration all mounted under stalling admission, and a serial
//!    closed-loop chip run, reproduce recorded counters and timings
//!    exactly (a refactor of the lane core must not move them).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stt_ctrl::{
    Backpressure, CalibConfig, Chip, ChipConfig, ClosedLoopSource, Controller, ControllerConfig,
    Dispatch, DriftPlan, EccMode, FaultPlan, Frontend, FrontendConfig, InterleavePolicy,
    MarchAlgorithm, MarchConfig, Policy, QueueTelemetry, SchedRun, ScrubConfig, ShardDispatch,
    ThermalTransient, Topology, Trace, Workload,
};
use stt_sense::SchemeKind;

fn timed_trace(config: &ControllerConfig, workload: Workload, ops: usize, gap_ns: f64) -> Trace {
    workload
        .generate(config.footprint(), ops, &mut StdRng::seed_from_u64(40))
        .with_poisson_arrivals(gap_ns, &mut StdRng::seed_from_u64(41))
}

/// Serial replay and an FCFS frontend at unbounded depth over the same
/// trace and config: stored state, audit and all non-queueing telemetry
/// must be bit-identical.
fn assert_anchor_identity(config: ControllerConfig, trace: &Trace) {
    let kind = config.kind;
    let mut serial = Controller::new(config.clone());
    let serial_telemetry = serial.run(trace, Dispatch::Serial);
    let mut frontend = Frontend::new(Controller::new(config), FrontendConfig::fcfs_unbounded());
    let run = frontend.run(trace);

    assert_eq!(
        frontend.controller().stored_state(),
        serial.stored_state(),
        "{kind}: FCFS event dispatch must store the exact bits serial replay stores"
    );
    assert_eq!(
        run.telemetry.audit_corrupted_bits, serial_telemetry.audit_corrupted_bits,
        "{kind}: audits must agree"
    );
    // Scrub the queueing section (zero under serial replay by construction):
    // every other counter, histogram and accumulator must be equal.
    let mut scrubbed = run.telemetry.clone();
    for bank in &mut scrubbed.banks {
        bank.queue = QueueTelemetry::default();
    }
    assert_eq!(
        scrubbed, serial_telemetry,
        "{kind}: frontend telemetry must only add queueing data"
    );
    assert_eq!(run.completions.len(), trace.len());
}

#[test]
fn fcfs_unbounded_is_bit_identical_to_serial_replay() {
    for kind in SchemeKind::ALL {
        let config = ControllerConfig::small(kind, 4).with_seed(314);
        let trace = timed_trace(
            &config,
            Workload::Uniform { read_fraction: 0.6 },
            2_000,
            6.0,
        );
        assert_anchor_identity(config, &trace);
    }
}

#[test]
fn fcfs_unbounded_is_bit_identical_to_serial_replay_under_faults() {
    // Power cuts follow per-bank read counters; FCFS preserves per-bank
    // execute order, so the cuts land on the same reads.
    let faults = FaultPlan::none().with_power_cut_every(40);
    for kind in [SchemeKind::Destructive, SchemeKind::Nondestructive] {
        let config = ControllerConfig::small(kind, 3)
            .with_seed(271)
            .with_faults(faults.clone());
        let trace = timed_trace(&config, Workload::ReadMostly, 1_500, 4.0);
        assert_anchor_identity(config, &trace);
    }
}

#[test]
fn fast_path_matches_the_general_event_loop_exactly() {
    // FCFS at unbounded depth with no scrub runs the specialised
    // cursor-and-slots loop; the same config plus a scrub daemon whose
    // first tick lands ~31 years into the run is forced onto the general
    // heap loop while remaining behaviourally inert (demand drains long
    // before the tick, which then dies without rescheduling). The two
    // runs must agree bit-for-bit: stored state, telemetry, completion
    // log, makespan.
    for kind in [SchemeKind::Destructive, SchemeKind::Nondestructive] {
        let config = ControllerConfig::small(kind, 4)
            .with_seed(58)
            .with_ecc(EccMode::Secded);
        let trace = timed_trace(
            &config,
            Workload::Uniform { read_fraction: 0.7 },
            2_000,
            4.0,
        );

        let mut fast = Frontend::new(
            Controller::new(config.clone()),
            FrontendConfig::fcfs_unbounded(),
        );
        let fast_run = fast.run(&trace);
        let mut general = Frontend::new(
            Controller::new(config),
            FrontendConfig::fcfs_unbounded().with_scrub(ScrubConfig::every_ns(1e18)),
        );
        let general_run = general.run(&trace);

        assert_eq!(
            fast.controller().stored_state(),
            general.controller().stored_state(),
            "{kind}: both loop flavours must store the same bits"
        );
        assert_eq!(
            fast_run, general_run,
            "{kind}: telemetry, completions and makespan must be bit-identical"
        );
    }
}

#[test]
fn drift_with_inline_calibration_holds_the_anchor_identity() {
    // A standing hot-spot on bank 0 plus the inline daemon: the trip →
    // burst → refit loop runs inside each bank, so serial replay, parallel
    // dispatch and the frontend must all see the identical sequence.
    let plan = DriftPlan::quiet().with_transient(ThermalTransient {
        bank: 0,
        start_ns: 0.0,
        ramp_ns: 0.0,
        hold_ns: 1e12,
        fall_ns: 0.0,
        amplitude_k: 60.0,
    });
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 2)
        .with_seed(77)
        .with_drift(plan)
        .with_calib(CalibConfig::date2010());
    let trace = timed_trace(&config, Workload::ReadMostly, 1_200, 6.0);
    let parallel = Controller::new(config.clone()).run(&trace, Dispatch::Parallel);
    let serial = Controller::new(config.clone()).run(&trace, Dispatch::Serial);
    assert_eq!(
        serial, parallel,
        "calibration must not break bank isolation"
    );
    assert!(
        parallel.aggregate().calib.trips >= 1,
        "the hot-spot must actually trip the daemon"
    );
    assert_anchor_identity(config, &trace);
}

#[test]
fn untimed_traces_run_through_the_frontend_too() {
    // Arrival 0 everywhere: the whole trace is offered at t=0 and drains
    // through the queues — still identical to serial replay under FCFS.
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 3).with_seed(99);
    let trace = Workload::Zipf {
        theta: 0.9,
        read_fraction: 0.8,
    }
    .generate(config.footprint(), 1_000, &mut StdRng::seed_from_u64(4));
    assert!(!trace.is_timed());
    assert_anchor_identity(config, &trace);
}

#[test]
fn stall_backpressure_engages_beyond_the_service_rate() {
    // ~14 ns nondestructive reads offered every ~2 ns per bank: offered
    // load is ~7x the service rate, so admission must stall and achieved
    // throughput must cap out below the offered rate.
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 2).with_seed(7);
    let trace = timed_trace(&config, Workload::ReadMostly, 2_000, 1.0);
    let offered_ops_per_second = 1e9 / 1.0;
    let mut frontend = Frontend::new(
        Controller::new(config),
        FrontendConfig::fcfs_unbounded()
            .with_queue_depth(8)
            .with_backpressure(Backpressure::Stall),
    );
    let run = frontend.run(&trace);
    let queue = run.telemetry.aggregate().queue;
    assert_eq!(queue.completed, 2_000, "stalling loses nothing");
    assert!(queue.stalls > 100, "saturation must stall admission");
    assert!(queue.stall_time_ns > 0.0);
    assert!(queue.max_depth <= 8);
    assert!(
        run.ops_per_second() < 0.5 * offered_ops_per_second,
        "achieved rate {} must cap out well below offered {}",
        run.ops_per_second(),
        offered_ops_per_second
    );
}

#[test]
fn drop_backpressure_sheds_load_and_accounts_for_every_transaction() {
    let config = ControllerConfig::small(SchemeKind::Destructive, 2).with_seed(8);
    let trace = timed_trace(&config, Workload::ReadMostly, 2_000, 1.0);
    let mut frontend = Frontend::new(
        Controller::new(config),
        FrontendConfig::fcfs_unbounded()
            .with_queue_depth(4)
            .with_backpressure(Backpressure::Drop),
    );
    let run = frontend.run(&trace);
    let queue = run.telemetry.aggregate().queue;
    assert!(queue.dropped > 0, "saturation must shed load");
    assert_eq!(queue.completed + queue.dropped, 2_000);
    assert!(queue.max_depth <= 4, "drops must bound the queues");
}

#[test]
fn destructive_reads_queue_harder_than_nondestructive_at_the_same_load() {
    // The paper's Table III argument, queue-shaped: at an offered load the
    // 14 ns nondestructive read absorbs (~0.9 utilization per bank), the
    // destructive scheme's restore-inflated 25 ns read saturates, and tail
    // sojourn explodes.
    let mut p99 = std::collections::HashMap::new();
    for kind in [SchemeKind::Nondestructive, SchemeKind::Destructive] {
        let config = ControllerConfig::small(kind, 2).with_seed(2010);
        let trace = timed_trace(&config, Workload::ReadMostly, 2_000, 8.0);
        // Exact sojourn samples: this test asserts on a true order-statistic
        // tail, not the default streaming estimate.
        let mut frontend = Frontend::new(
            Controller::new(config),
            FrontendConfig::fcfs_unbounded().with_exact_sojourn(),
        );
        let run = frontend.run(&trace);
        p99.insert(kind, run.telemetry.aggregate().queue.sojourn_p99());
    }
    assert!(
        p99[&SchemeKind::Destructive] > 2.0 * p99[&SchemeKind::Nondestructive],
        "destructive p99 sojourn {} must exceed nondestructive {}",
        p99[&SchemeKind::Destructive],
        p99[&SchemeKind::Nondestructive]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the policy, queue bound and load, two transactions touching
    /// the same cell complete in admission order — reads observe the writes
    /// admitted before them, writes land in order.
    #[test]
    fn per_address_ordering_survives_any_policy(
        ops in 1usize..150,
        gap_ns in 1.0f64..30.0,
        queue_depth in 2usize..8,
        write_high_water in 1usize..6,
        policy_pick in 0usize..3,
        read_fraction in 0.1f64..0.9,
        seed in 0u64..1_000,
    ) {
        let policy = match policy_pick {
            0 => Policy::Fcfs,
            1 => Policy::ReadPriority { write_high_water },
            _ => Policy::OldestFirst,
        };
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 2).with_seed(seed);
        // Zipf traffic concentrates on a hot set, so same-address pairs are
        // common even in short traces.
        let trace = Workload::Zipf { theta: 1.1, read_fraction }
            .generate(config.footprint(), ops, &mut StdRng::seed_from_u64(seed))
            .with_poisson_arrivals(gap_ns, &mut StdRng::seed_from_u64(seed ^ 0xdead));
        let mut frontend = Frontend::new(
            Controller::new(config),
            FrontendConfig::fcfs_unbounded()
                .with_policy(policy)
                .with_queue_depth(queue_depth)
                .with_backpressure(Backpressure::Stall),
        );
        let run = frontend.run(&trace);
        // Stalling loses nothing: everything offered completes.
        prop_assert_eq!(run.completions.len(), ops);

        // Per (bank, address) cell: completion order == trace (admission)
        // order. Arrivals are monotone and stalls block the stream, so
        // admission order IS trace order.
        let txns = trace.transactions();
        let mut last_seen = std::collections::HashMap::new();
        for completion in &run.completions {
            let txn = &txns[completion.trace_index];
            let key = (txn.bank, txn.addr);
            if let Some(previous) = last_seen.insert(key, completion.trace_index) {
                prop_assert!(
                    previous < completion.trace_index,
                    "cell {key:?}: trace[{previous}] completed after trace[{}]",
                    completion.trace_index
                );
            }
        }
    }

    /// Any transient shape (including ramps and cool-downs mid-trace) with
    /// the inline recalibration daemon stays bit-identical across serial
    /// replay, parallel dispatch and the event-driven frontend.
    #[test]
    fn drift_with_calibration_is_bit_identical_across_dispatch(
        ops in 1usize..120,
        gap_ns in 1.0f64..30.0,
        amplitude_k in 0.0f64..90.0,
        hold_ns in 50.0f64..2_000.0,
        seed in 0u64..1_000,
    ) {
        let plan = DriftPlan::quiet().with_transient(ThermalTransient {
            bank: 0,
            start_ns: 0.0,
            ramp_ns: 100.0,
            hold_ns,
            fall_ns: 200.0,
            amplitude_k,
        });
        let config = ControllerConfig::small(SchemeKind::Nondestructive, 2)
            .with_seed(seed)
            .with_drift(plan)
            .with_calib(CalibConfig::date2010().with_check_reads(16));
        let trace = Workload::ReadMostly
            .generate(config.footprint(), ops, &mut StdRng::seed_from_u64(seed))
            .with_poisson_arrivals(gap_ns, &mut StdRng::seed_from_u64(seed ^ 0xbeef));
        let serial = Controller::new(config.clone()).run(&trace, Dispatch::Serial);
        let parallel = Controller::new(config.clone()).run(&trace, Dispatch::Parallel);
        prop_assert_eq!(&serial, &parallel);

        let mut frontend = Frontend::new(Controller::new(config), FrontendConfig::fcfs_unbounded());
        let run = frontend.run(&trace);
        let mut scrubbed = run.telemetry.clone();
        for bank in &mut scrubbed.banks {
            bank.queue = QueueTelemetry::default();
        }
        prop_assert_eq!(scrubbed, serial);
    }
}

/// Two banks with ECC (the scrub daemon needs it) and a standing +60 K
/// hot-spot on bank 0 (so the calibration daemon trips), offered
/// read-mostly traffic at a load that keeps the depth-4 queues stalling
/// while still leaving the background sources idle gaps.
fn background_fixture() -> (ControllerConfig, Trace) {
    let config = ControllerConfig::small(SchemeKind::Nondestructive, 2)
        .with_seed(1313)
        .with_ecc(EccMode::Secded)
        .with_drift(DriftPlan::quiet().with_transient(ThermalTransient {
            bank: 0,
            start_ns: 0.0,
            ramp_ns: 0.0,
            hold_ns: 1e12,
            fall_ns: 0.0,
            amplitude_k: 60.0,
        }));
    let trace = timed_trace(&config, Workload::ReadMostly, 1_500, 40.0);
    (config, trace)
}

/// Scrub, March C– and the calibration daemon, all mounted on `frontend`.
fn with_every_source(frontend: FrontendConfig) -> FrontendConfig {
    frontend
        .with_scrub(ScrubConfig::every_ns(300.0))
        .with_march(MarchConfig::new(MarchAlgorithm::CMinus))
        .with_calib(CalibConfig::date2010())
}

fn per_bank_order(run: &SchedRun, bank: usize) -> Vec<usize> {
    run.completions
        .iter()
        .filter(|completion| completion.bank == bank)
        .map(|completion| completion.trace_index)
        .collect()
}

/// Asserts `actual` is within 1e-6 ns of a pinned value.
fn assert_pinned_ns(what: &str, actual: f64, pinned: f64) {
    assert!(
        (actual - pinned).abs() < 1e-6,
        "{what}: {actual:?} moved from the pinned {pinned:?}"
    );
}

/// Pinned regression: the frontend with every background source mounted
/// under read-priority dispatch and stalling admission. The numbers are
/// those of the single shared completion path (a scrub, March or
/// calibration completion lands a stalled admission at once); any other
/// movement means the scheduler's behaviour changed.
#[test]
fn every_background_source_under_stall_is_pinned() {
    let (config, trace) = background_fixture();
    let frontend = FrontendConfig::fcfs_unbounded()
        .with_policy(Policy::ReadPriority {
            write_high_water: 4,
        })
        .with_queue_depth(4)
        .with_backpressure(Backpressure::Stall);
    let run = Frontend::new(Controller::new(config), with_every_source(frontend)).run(&trace);
    let aggregate = run.telemetry.aggregate();
    let queue = &aggregate.queue;
    assert_eq!(queue.completed, 1_500);
    assert_eq!(queue.stalls, 157);
    assert_eq!(queue.scrub_deferred, 361);
    assert_eq!(queue.march_deferred, 664);
    assert_eq!(queue.calib_deferred, 204);
    assert_eq!(aggregate.march.ops, 1_280);
    assert_eq!(aggregate.calib.trips, 43);
    assert_eq!(aggregate.ecc.scrub_words_scanned, 53);
    assert_pinned_ns("makespan", run.makespan_ns, 62_448.0);
    assert_pinned_ns("stall time", queue.stall_time_ns, 8_426.0);
}

/// Background work delays demand but never displaces it: under FCFS with
/// stalling admission each bank serves the same transactions in the same
/// order with or without the three sources mounted.
#[test]
fn background_sources_keep_per_bank_demand_order() {
    let (config, trace) = background_fixture();
    let frontend = FrontendConfig::fcfs_unbounded()
        .with_queue_depth(4)
        .with_backpressure(Backpressure::Stall);
    let plain = Frontend::new(Controller::new(config.clone()), frontend).run(&trace);
    let mounted = Frontend::new(Controller::new(config), with_every_source(frontend)).run(&trace);
    assert_eq!(mounted.completions.len(), trace.len());
    for bank in 0..2 {
        assert_eq!(
            per_bank_order(&plain, bank),
            per_bank_order(&mounted, bank),
            "bank {bank}: background work must not reorder demand"
        );
    }
}

/// Pinned regression: a serial closed-loop chip run (the chip's channel
/// loop serves through the same lane core as the frontend).
#[test]
fn serial_closed_loop_chip_is_pinned() {
    let config =
        ChipConfig::small(SchemeKind::Nondestructive, Topology::new(2, 1, 2, 2)).with_seed(1313);
    let run = Chip::new(config).run_closed_loop(
        &ClosedLoopSource::read_mostly(600, 4),
        ShardDispatch::Serial,
    );
    let aggregate = run.telemetry.aggregate();
    assert_eq!(run.completed, 1_200);
    assert_eq!(aggregate.queue.completed, 1_200);
    assert_eq!(aggregate.queue.max_depth, 2);
    assert_eq!(aggregate.read_retries, 142);
    assert_pinned_ns("makespan", run.makespan_ns, 23_496.745_115_021_607);
    let bus_wait_ns: f64 = run
        .telemetry
        .channels
        .iter()
        .map(|channel| channel.bus_wait_ns)
        .sum();
    assert_pinned_ns("bus wait", bus_wait_ns, 439.356_769_231_961_15);
}

/// Pinned regression: a serial open-loop chip replay. Arrivals come in
/// bursts of six at the same instant on a 30 ns grid, so equal-time
/// arrivals, bank completions and bus-transfer completions all tie and the
/// channel loop's insertion-order tie-break decides what runs first.
#[test]
fn serial_open_loop_chip_replay_is_pinned() {
    let config =
        ChipConfig::small(SchemeKind::Nondestructive, Topology::new(2, 1, 2, 2)).with_seed(1414);
    let trace = Workload::Uniform { read_fraction: 0.7 }.generate_physical(
        &config.geometry(),
        InterleavePolicy::ChannelStriped,
        1_200,
        &mut StdRng::seed_from_u64(15),
    );
    let bursty = Trace::from_transactions(
        trace
            .transactions()
            .iter()
            .enumerate()
            .map(|(i, txn)| txn.at(30 * (i as u64 / 6)))
            .collect(),
    );
    let run = Chip::new(config).run_trace(&bursty, ShardDispatch::Serial);
    let aggregate = run.telemetry.aggregate();
    let max_depths: Vec<u64> = run
        .telemetry
        .banks
        .iter()
        .map(|(_, bank)| bank.queue.max_depth)
        .collect();
    let bus_wait_ns: f64 = run
        .telemetry
        .channels
        .iter()
        .map(|channel| channel.bus_wait_ns)
        .sum();
    assert_eq!(run.completed, 1_200);
    assert_eq!(max_depths, [3, 4, 3, 5, 3, 4, 5, 3]);
    assert_eq!(aggregate.read_retries, 87);
    assert_pinned_ns("makespan", run.makespan_ns, 6_068.0);
    assert_pinned_ns("bus wait", bus_wait_ns, 2_908.0);
}
