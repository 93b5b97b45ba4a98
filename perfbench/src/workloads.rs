//! The four workloads: their seeded inputs, one end-to-end repetition each,
//! and the untraced run that times repetitions for the requested seconds.
//!
//! A repetition builds the simulated system (timed as set-up), serves the
//! whole input (timed as the operation phase), then reads the simulated
//! statistics and drops the system outside both timers. Every repetition of
//! a run serves the same inputs on a freshly built system, so their
//! simulated statistics must agree bit for bit; the run checks that.

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use stt_bench::montecarlo::{fig5_linear_circuit, Fig5Campaign};
use stt_ctrl::{
    Backpressure, BankTelemetry, CalibConfig, Chip, ChipConfig, ChipRun, ClosedLoopSource,
    Controller, ControllerConfig, Dispatch, EccMode, Frontend, FrontendConfig, Policy, SchedRun,
    ShardDispatch, Topology, Trace, Transaction, Workload as Traffic,
};
use stt_sense::SchemeKind;

use crate::metrics::{digest, median, peak_rss_mb, ratio, Report, Values};
use crate::probe::{self, HostProbe};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Serial controller replay over four ECC banks: the sense, retry,
    /// bank and reliability layers do the work.
    ReplayEcc,
    /// Open-loop Poisson arrivals through the scheduling frontend with the
    /// calibration daemon: the event loop, policy and queues dominate.
    FrontendOpen,
    /// The closed-loop full chip, channel-sharded: the only workload that
    /// runs the hierarchy layer.
    ChipClosed,
    /// The batched Fig. 5 Monte-Carlo on the circuit solver: the only
    /// workload that runs the MNA layer, and bypasses every controller one.
    CircuitMc,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReplayEcc,
        Workload::FrontendOpen,
        Workload::ChipClosed,
        Workload::CircuitMc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayEcc => "replay-ecc",
            Workload::FrontendOpen => "frontend-open",
            Workload::ChipClosed => "chip-closed",
            Workload::CircuitMc => "circuit-mc",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's speed follows the host's shared-cache
    /// contention, so its throughput is normalised by the host probe. The
    /// controller workloads walk megabytes of cell state per bank (about
    /// 113 B per cell) and are; `circuit-mc`'s banded systems stay in a
    /// core's private cache, and scaling its throughput by the probe only
    /// adds the probe's own noise (in one ten-seed set its spread went from
    /// 0.05 to 0.13 of the median).
    pub fn cache_bound(self) -> bool {
        self != Workload::CircuitMc
    }

    /// Operations per repetition at full size: transactions, or Monte-Carlo
    /// trials for `circuit-mc`. Sized so one repetition takes about half a
    /// second of host time or more, well past the cold-start regime.
    pub fn full_ops(self) -> usize {
        match self {
            Workload::ReplayEcc => 150_000,
            Workload::FrontendOpen => 500_000,
            Workload::ChipClosed => 1_000_000,
            Workload::CircuitMc => 1_024,
        }
    }
}

/// Every controller workload runs the paper's scheme.
pub const SCHEME: SchemeKind = SchemeKind::Nondestructive;
/// Paper-scale banks behind the replay and frontend workloads.
const BANKS: usize = 4;
/// Open-loop offered rate of `frontend-open`: one arrival per 5 ns on
/// average, 200 Mtxn/s simulated, about 71 % of the FCFS capacity.
const MEAN_GAP_NS: f64 = 5.0;
/// Closed-loop window and think time of `chip-closed`, near the bus knee.
const CHIP_WINDOW: usize = 16;
const CHIP_THINK_NS: f64 = 2.0;
/// `circuit-mc` netlist size and batch width.
const MC_SEGMENTS: usize = 256;
const MC_BATCH: usize = 64;
/// Sub-campaigns per `circuit-mc` repetition: four timing samples of 256
/// trials (two batches per worker thread) instead of one of 1024, so the
/// median rides out the host's bursts of contention.
const MC_CHUNKS: usize = 4;
/// Netlist assemblies timed per `circuit-mc` repetition (one takes tens
/// of microseconds, too short to time alone).
const NETLIST_BUILDS: usize = 32;
/// Repetitions a run makes at least, however long they take: the warm-up
/// and two timed ones.
const MIN_REPS: usize = 3;

/// The generated inputs of one workload run, with the configuration of the
/// simulated system that serves them. Everything random in the inputs comes
/// from the workload seed; the simulated hardware keeps its own fixed seed,
/// so a seed changes the traffic, not the chip.
#[derive(Debug, Clone)]
pub enum Inputs {
    Replay {
        config: ControllerConfig,
        trace: Trace,
    },
    Frontend {
        config: ControllerConfig,
        frontend: FrontendConfig,
        trace: Trace,
    },
    Chip {
        config: ChipConfig,
        source: ClosedLoopSource,
    },
    /// The campaign in [`MC_CHUNKS`] sub-campaigns on derived seeds, each
    /// timed on its own.
    Circuit { campaigns: Vec<Fig5Campaign> },
}

impl Inputs {
    /// The inputs of `workload` under `seed`, `ops` operations long.
    pub fn generate(workload: Workload, seed: u64, ops: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        match workload {
            Workload::ReplayEcc => {
                let config = ControllerConfig::date2010(SCHEME, BANKS).with_ecc(EccMode::Secded);
                let trace = Traffic::Uniform { read_fraction: 0.5 }.generate(
                    config.footprint(),
                    ops,
                    &mut rng,
                );
                Inputs::Replay { config, trace }
            }
            Workload::FrontendOpen => {
                let config = ControllerConfig::date2010(SCHEME, BANKS);
                let trace = Traffic::Uniform { read_fraction: 0.8 }
                    .generate(config.footprint(), ops, &mut rng)
                    .with_poisson_arrivals(MEAN_GAP_NS, &mut rng);
                let frontend = FrontendConfig::fcfs_unbounded()
                    .with_policy(Policy::ReadPriority {
                        write_high_water: 8,
                    })
                    .with_queue_depth(32)
                    .with_backpressure(Backpressure::Stall)
                    .with_calib(CalibConfig::date2010());
                Inputs::Frontend {
                    config,
                    frontend,
                    trace,
                }
            }
            Workload::ChipClosed => {
                let config = ChipConfig::date2010(SCHEME, Topology::date2010());
                let source = ClosedLoopSource::read_mostly(
                    ops.div_ceil(config.topology.channels),
                    CHIP_WINDOW,
                )
                .with_mean_think_ns(CHIP_THINK_NS)
                .with_seed(seed);
                Inputs::Chip { config, source }
            }
            Workload::CircuitMc => Inputs::Circuit {
                campaigns: (0..MC_CHUNKS)
                    .map(|chunk| Fig5Campaign {
                        trials: ops.div_ceil(MC_CHUNKS),
                        batch: MC_BATCH,
                        seed: stt_stats::trial_rng(seed, chunk).next_u64(),
                        segments: MC_SEGMENTS,
                        ..Fig5Campaign::default()
                    })
                    .collect(),
            },
        }
    }
}

/// One simulated statistic, as printed and digested.
pub type SimValue = (&'static str, &'static str, f64);

/// The simulated outcome of one repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    /// Operations offered.
    pub attempted: u64,
    /// Misreads delivered to the host, write failures, detected or silent
    /// ECC word errors and dropped transactions; for `circuit-mc`, trials
    /// whose sensed margin is not positive.
    pub failed: u64,
    /// `(name, unit, value)`: the applicable simulated end-to-end metrics,
    /// then the raw counters behind them.
    pub values: Vec<SimValue>,
}

impl Rep {
    /// Host seconds of the whole operation phase.
    pub fn run_s(&self) -> f64 {
        self.samples.iter().map(|&(_, s)| s).sum()
    }
}

impl Sim {
    pub fn digest(&self) -> u64 {
        digest(
            [
                ("attempted", self.attempted as f64),
                ("failed", self.failed as f64),
            ]
            .into_iter()
            .chain(self.values.iter().map(|&(name, _, value)| (name, value))),
        )
    }
}

/// One end-to-end repetition.
#[derive(Debug)]
pub struct Rep {
    pub setup_s: f64,
    /// Timing samples of the operation phase, `(operations, seconds)`.
    pub samples: Vec<(usize, f64)>,
    pub sim: Sim,
    /// `(check, passed)`.
    pub checks: Vec<(&'static str, bool)>,
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Controller-side failures: every way a host operation can go wrong.
fn failures(agg: &BankTelemetry) -> u64 {
    agg.misreads
        + agg.write_failures
        + agg.ecc.detected_ue
        + agg.ecc.silent_errors
        + agg.queue.dropped
}

/// The `q`-quantile of the read-latency histogram (bin midpoint, so a
/// 2 ns resolution on the default binning).
fn histogram_quantile(agg: &BankTelemetry, q: f64) -> f64 {
    let hist = &agg.read_latency_hist;
    let target = (q * hist.total() as f64).ceil().max(1.0) as u64;
    let mut seen = hist.underflow();
    for (bin, &count) in hist.counts().iter().enumerate() {
        seen += count;
        if seen >= target {
            let (low, high) = hist.bin_edges(bin);
            return 0.5 * (low + high);
        }
    }
    agg.read_latency_ns.max()
}

/// Raw counters that every simulated metric derives from, so the digest
/// moves whenever the simulation does.
fn counters(agg: &BankTelemetry) -> [SimValue; 7] {
    [
        ("reads", "count", agg.reads as f64),
        ("writes", "count", agg.writes as f64),
        ("read_retries", "count", agg.read_retries as f64),
        ("unconfident_reads", "count", agg.unconfident_reads as f64),
        ("write_retries", "count", agg.write_retries as f64),
        ("busy_time_ns", "ns", agg.busy_time.get() * 1e9),
        ("calib_trips", "count", agg.calib.trips as f64),
    ]
}

/// One read per bank at time zero: the warm-up pass that materialises every
/// bank of a lazily built chip.
pub fn materialise(chip: &mut Chip) -> ChipRun {
    let banks = chip.config().topology.total_banks();
    let warmup: Vec<Transaction> = (0..banks)
        .map(|bank| Transaction::read(bank, stt_array::Address::new(0, 0)))
        .collect();
    chip.run_trace(&Trace::from_transactions(warmup), ShardDispatch::Serial)
}

/// Every read's sojourn (ns) in a frontend run, for exact quantiles.
fn read_sojourns(run: &SchedRun) -> Vec<f64> {
    run.completions
        .iter()
        .filter(|c| c.op.is_read())
        .map(|c| c.sojourn_ns())
        .collect()
}

pub fn frontend_sim(run: &SchedRun, offered: usize) -> Sim {
    let agg = run.telemetry.aggregate();
    let sojourns = read_sojourns(run);
    let unserved =
        (offered as u64).saturating_sub(run.completions.len() as u64 + agg.queue.dropped);
    let mut values = vec![
        (
            "sim_read_p50_ns",
            "ns",
            stt_stats::quantile(&sojourns, 0.50),
        ),
        (
            "sim_read_p99_ns",
            "ns",
            stt_stats::quantile(&sojourns, 0.99),
        ),
        (
            "sim_mtxn_per_s",
            "Mtxn/s",
            run.completions.len() as f64 / run.makespan_ns * 1e3,
        ),
        (
            "sim_energy_pj_per_op",
            "pJ",
            agg.energy.get() * 1e12 / offered as f64,
        ),
        ("misreads", "count", agg.misreads as f64),
        ("stalls", "count", agg.queue.stalls as f64),
    ];
    values.extend(counters(&agg));
    Sim {
        attempted: offered as u64,
        failed: failures(&agg) + unserved,
        values,
    }
}

pub fn chip_sim(run: &ChipRun, offered: u64) -> Sim {
    let agg = run.telemetry.aggregate();
    let mut values = vec![
        ("sim_read_p50_ns", "ns", agg.queue.sojourn_p50()),
        ("sim_read_p99_ns", "ns", agg.queue.sojourn_p99()),
        ("sim_mtxn_per_s", "Mtxn/s", run.ops_per_second() * 1e-6),
        (
            "sim_energy_pj_per_op",
            "pJ",
            agg.energy.get() * 1e12 / (agg.reads + agg.writes) as f64,
        ),
        ("misreads", "count", agg.misreads as f64),
        (
            "bus_wait_ns",
            "ns",
            run.telemetry.channels.iter().map(|c| c.bus_wait_ns).sum(),
        ),
    ];
    values.extend(counters(&agg));
    Sim {
        attempted: offered,
        failed: failures(&agg) + offered.saturating_sub(run.completed),
        values,
    }
}

pub fn replay_sim(telemetry: &stt_ctrl::Telemetry, offered: usize) -> Sim {
    let agg = telemetry.aggregate();
    // Banks serve in parallel in the modelled hardware: the makespan is the
    // busiest bank's busy time.
    let makespan_s = telemetry
        .banks
        .iter()
        .map(|b| b.busy_time.get())
        .fold(0.0, f64::max);
    let mut values = vec![
        ("sim_read_p50_ns", "ns", histogram_quantile(&agg, 0.50)),
        ("sim_read_p99_ns", "ns", histogram_quantile(&agg, 0.99)),
        (
            "sim_mtxn_per_s",
            "Mtxn/s",
            ratio(telemetry.transactions() as f64, makespan_s) * 1e-6,
        ),
        (
            "sim_energy_pj_per_op",
            "pJ",
            agg.energy.get() * 1e12 / offered as f64,
        ),
        ("misreads", "count", agg.misreads as f64),
        ("ecc_corrected", "count", agg.ecc.corrected_ce as f64),
    ];
    values.extend(counters(&agg));
    Sim {
        attempted: offered as u64,
        failed: failures(&agg) + (offered as u64).saturating_sub(telemetry.transactions()),
        values,
    }
}

pub fn circuit_sim(margins: &[f64]) -> Sim {
    let failed = margins.iter().filter(|&&m| m <= 0.0).count() as u64;
    Sim {
        attempted: margins.len() as u64,
        failed,
        values: vec![
            (
                "sim_margin_p1_mv",
                "mV",
                stt_stats::quantile(margins, 0.01) * 1e3,
            ),
            (
                "margin_mean_mv",
                "mV",
                margins.iter().sum::<f64>() / margins.len() as f64 * 1e3,
            ),
        ],
    }
}

/// Runs the Fig. 5 campaign, turning a failed batched ≡ sequential spot
/// check (a panic inside the campaign) into `None`.
pub fn run_campaign(campaign: &Fig5Campaign) -> Option<stt_bench::montecarlo::Fig5CampaignResult> {
    panic::catch_unwind(AssertUnwindSafe(|| campaign.run())).ok()
}

/// One end-to-end repetition of the workload behind `inputs`.
pub fn rep(inputs: &Inputs) -> Rep {
    match inputs {
        Inputs::Replay { config, trace } => {
            let start = Instant::now();
            let mut controller = Controller::new(config.clone());
            let setup_s = secs(start);
            let start = Instant::now();
            let telemetry = controller.run(trace, Dispatch::Serial);
            let run_s = secs(start);
            drop(controller);
            let sim = replay_sim(&telemetry, trace.len());
            Rep {
                setup_s,
                samples: vec![(trace.len(), run_s)],
                checks: vec![
                    (
                        "every transaction served",
                        telemetry.transactions() == trace.len() as u64,
                    ),
                    (
                        "nondestructive audit clean",
                        telemetry.audit_corrupted_bits == 0,
                    ),
                ],
                sim,
            }
        }
        Inputs::Frontend {
            config,
            frontend,
            trace,
        } => {
            let start = Instant::now();
            let mut front = Frontend::new(Controller::new(config.clone()), *frontend);
            let setup_s = secs(start);
            let start = Instant::now();
            let run = front.run(trace);
            let run_s = secs(start);
            drop(front);
            let sim = frontend_sim(&run, trace.len());
            let dropped = run.telemetry.aggregate().queue.dropped;
            Rep {
                setup_s,
                samples: vec![(trace.len(), run_s)],
                checks: vec![
                    (
                        "every transaction completed or dropped",
                        run.completions.len() as u64 + dropped == trace.len() as u64,
                    ),
                    (
                        "nondestructive audit clean",
                        run.telemetry.audit_corrupted_bits == 0,
                    ),
                ],
                sim,
            }
        }
        Inputs::Chip { config, source } => {
            let start = Instant::now();
            let mut chip = Chip::new(config.clone());
            materialise(&mut chip);
            let setup_s = secs(start);
            let resident = chip.resident_banks();
            let start = Instant::now();
            let run = chip.run_closed_loop(source, ShardDispatch::Sharded);
            let run_s = secs(start);
            drop(chip);
            let offered = (source.ops_per_channel * config.topology.channels) as u64;
            let sim = chip_sim(&run, offered);
            Rep {
                setup_s,
                samples: vec![(offered as usize, run_s)],
                checks: vec![
                    ("every transaction completed", run.completed == offered),
                    (
                        "every bank materialised in set-up",
                        resident == config.topology.total_banks(),
                    ),
                    (
                        "nondestructive audit clean",
                        run.telemetry.audit_corrupted_bits == 0,
                    ),
                ],
                sim,
            }
        }
        Inputs::Circuit { campaigns } => {
            let segments = campaigns[0].segments;
            let builds: Vec<f64> = (0..NETLIST_BUILDS)
                .map(|_| {
                    let start = Instant::now();
                    let netlist = fig5_linear_circuit(segments);
                    let took = secs(start);
                    std::hint::black_box(netlist);
                    took
                })
                .collect();
            let mut samples = Vec::new();
            let mut margins = Vec::new();
            let mut spot_checks_held = true;
            for campaign in campaigns {
                let start = Instant::now();
                let result = run_campaign(campaign);
                samples.push((campaign.trials, secs(start)));
                spot_checks_held &= result.is_some();
                margins.extend(
                    result
                        .iter()
                        .flat_map(|r| r.outcomes.iter().map(|t| t.margin)),
                );
            }
            let trials: usize = campaigns.iter().map(|c| c.trials).sum();
            Rep {
                setup_s: median(&builds),
                samples,
                checks: vec![
                    ("batched = sequential spot check", spot_checks_held),
                    ("every trial ran", margins.len() == trials),
                ],
                sim: if spot_checks_held {
                    circuit_sim(&margins)
                } else {
                    Sim {
                        attempted: trials as u64,
                        failed: trials as u64,
                        values: Vec::new(),
                    }
                },
            }
        }
    }
}

/// Operations one repetition of `inputs` offers.
pub fn ops(inputs: &Inputs) -> usize {
    match inputs {
        Inputs::Replay { trace, .. } | Inputs::Frontend { trace, .. } => trace.len(),
        Inputs::Chip { config, source } => source.ops_per_channel * config.topology.channels,
        Inputs::Circuit { campaigns } => campaigns.iter().map(|c| c.trials).sum(),
    }
}

/// Prints the simulated statistics of a run and their digest.
pub fn print_sim(workload: Workload, seed: u64, sim: &Sim) {
    println!(
        "simulated ({}, seed {seed}): attempted {} failed {} fail_frac {:?} ratio",
        workload.name(),
        sim.attempted,
        sim.failed,
        ratio(sim.failed as f64, sim.attempted as f64)
    );
    for (name, unit, value) in &sim.values {
        println!("  {name:<22} {value:>16.6} {unit}");
    }
    println!("sim digest {}: {:016x}", workload.name(), sim.digest());
}

/// Prints `(check, passed)` lines and returns whether all passed.
pub fn print_checks(checks: &[(&str, bool)]) -> bool {
    for (check, passed) in checks {
        println!(
            "check {:<44} {}",
            check,
            if *passed { "ok" } else { "FAILED" }
        );
    }
    checks.iter().all(|(_, passed)| *passed)
}

/// The untraced run: repetitions for at least `seconds` (and at least
/// [`MIN_REPS`]), reported as medians. The first repetition warms the
/// process up: it is checked but not timed. The host probe runs before the
/// first timed repetition and after each one. On a cache-bound workload a
/// repetition's normalised throughput is its throughput scaled by the mean
/// of the two probes around it over [`probe::REFERENCE_S`]; otherwise it is
/// the throughput itself.
pub fn run_untraced(workload: Workload, seed: u64, seconds: f64, ops_per_rep: usize) -> Report {
    let inputs = Inputs::generate(workload, seed, ops_per_rep);
    let host = HostProbe::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut reps: Vec<Rep> = vec![rep(&inputs)];
    let mut probes = vec![host.time_s()];
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        reps.push(rep(&inputs));
        probes.push(host.time_s());
    }
    let ops = ops(&inputs);
    let first = &reps[0];
    let mut checks: Vec<(&str, bool)> = first.checks.clone();
    for rep in &reps[1..] {
        checks.extend(rep.checks.iter().filter(|(_, ok)| !ok));
    }
    checks.push((
        "every repetition simulated identically",
        reps.iter().all(|r| r.sim == first.sim),
    ));

    let timed = &reps[1..];
    let scale: Vec<f64> = probes
        .windows(2)
        .map(|around| {
            if workload.cache_bound() {
                0.5 * (around[0] + around[1]) / probe::REFERENCE_S
            } else {
                1.0
            }
        })
        .collect();
    let throughput: Vec<f64> = timed
        .iter()
        .flat_map(|r| r.samples.iter().map(|&(n, s)| n as f64 / s))
        .collect();
    let normalised: Vec<f64> = timed
        .iter()
        .zip(&scale)
        .flat_map(|(r, &k)| r.samples.iter().map(move |&(n, s)| n as f64 / s * k))
        .collect();
    let setup: Vec<f64> = timed.iter().map(|r| r.setup_s).collect();
    let metrics: Values = [
        ("norm_ops_per_s", median(&normalised)),
        ("setup_s", median(&setup)),
        ("peak_rss_mb", peak_rss_mb()),
    ]
    .into_iter()
    .collect();

    println!(
        "workload {} seed {seed}: {} timed repetitions of {ops} operations after one warm-up",
        workload.name(),
        timed.len()
    );
    for (name, unit) in crate::metrics::END_TO_END {
        println!("  {name:<22} {:>16.6} {unit}", metrics[name]);
    }
    println!("  {:<22} {:>16.6} op/s", "ops_per_s", median(&throughput));
    println!(
        "  {:<22} {:>16.6} s (reference {})",
        "probe_s",
        median(&probes),
        probe::REFERENCE_S
    );
    let spread = |samples: &[f64]| {
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(0.0, f64::max);
        format!("min {lo:.6} max {hi:.6}")
    };
    println!(
        "  over repetitions: norm_ops_per_s {}, ops_per_s {}, setup_s {}, probe_s {}",
        spread(&normalised),
        spread(&throughput),
        spread(&setup),
        spread(&probes)
    );
    print_sim(workload, seed, &first.sim);
    let correct = print_checks(&checks);
    Report {
        correct,
        attempted: reps.iter().map(|r| r.sim.attempted).sum(),
        failed: reps.iter().map(|r| r.sim.failed).sum(),
        metrics,
    }
}
