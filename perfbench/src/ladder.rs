//! The traced run: the per-layer ladder.
//!
//! Each pass replays the workload's generated inputs through one layer's
//! public API at a time — sense, then bank, then engine, then sched or
//! hierarchy — with one span around each call. The rungs are siblings under
//! the pass's root span, so a layer's self time is its rung minus the rung
//! below, the "tax" the layer adds. A pass also makes one untraced
//! end-to-end repetition, which the top rung must reproduce bit for bit and
//! whose host time sets the tracing overhead.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use stt_array::{Address, Array};
use stt_bench::montecarlo::fig5_linear_circuit;
use stt_ctrl::reliability::{codec, WORD_BITS};
use stt_ctrl::{
    Bank, Chip, ChipConfig, Controller, ControllerConfig, Dispatch, Footprint, Frontend,
    FrontendConfig, Scheme, ShardDispatch, Telemetry, Trace, Transaction, Workload as Traffic,
};
use stt_mna::{BatchMember, SolverBackend, TranOptions};
use stt_sense::DesignPoint;
use stt_stats::Normal;
use stt_units::Seconds;

use crate::alloc;
use crate::metrics::{median, ratio, Report, Values};
use crate::spans::SpanLog;
use crate::workloads::{self, Inputs, Sim, Workload, SCHEME};

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Cost of one `Instant::now()` + `elapsed()` pair, subtracted from each
/// timed batch of the bank rung.
fn clock_pair_s() -> f64 {
    let samples: Vec<f64> = (0..1001)
        .map(|_| {
            let start = Instant::now();
            black_box(start.elapsed()).as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Bank `index` of `config` as `Bank::new` samples and preloads it, with
/// the demand RNG stream where the bank's first read finds it, and the
/// preloaded bits.
struct SampledBank {
    array: Array,
    rng: StdRng,
    truth: Vec<bool>,
}

fn sampled_bank(config: &ControllerConfig, index: usize) -> SampledBank {
    let spec = &config.spec;
    let mut rng = stt_stats::trial_rng(config.seed, index);
    let mut array = spec.sample(&mut rng);
    let mut truth = vec![false; spec.capacity_bits()];
    for row in 0..spec.rows {
        for col in 0..spec.cols {
            let bit = rng.gen_bool(0.5);
            array.write_bit(Address::new(row, col), bit);
            truth[row * spec.cols + col] = bit;
        }
    }
    SampledBank { array, rng, truth }
}

/// The cells a read of `txn` senses: its ECC word, or the cell alone.
fn sensed_cells(config: &ControllerConfig, txn: &Transaction) -> std::ops::Range<usize> {
    let cell = txn.addr.row * config.spec.cols + txn.addr.col;
    if config.ecc.is_enabled() {
        let start = cell / WORD_BITS * WORD_BITS;
        start..(start + WORD_BITS).min(config.spec.capacity_bits())
    } else {
        cell..cell + 1
    }
}

/// One pass's spans: the log, the pass's root span and its run id.
struct Pass<'a> {
    log: &'a mut SpanLog,
    root: usize,
    run: String,
}

impl Pass<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.log.time(name, Some(self.root), &self.run, f)
    }
}

/// The controller rungs below the top one: `Scheme::sense_once` under the
/// retry policy, `Bank::new` and `Bank::execute`, the SECDED codec, and
/// `Controller::new` + `Controller::run(Serial)`. Returns the serial
/// replay's telemetry and host seconds.
fn controller_rungs(
    pass: &mut Pass<'_>,
    config: &ControllerConfig,
    trace: &Trace,
    clock_pair: f64,
    values: &mut Values,
) -> (Telemetry, f64) {
    let n = trace.len() as f64;
    // Every rung walks the trace bank by bank, in trace order within a
    // bank, as serial replay does: one bank's cells at a time in cache.
    let mut per_bank: Vec<Vec<Transaction>> = vec![Vec::new(); config.banks];
    for txn in trace.transactions() {
        per_bank[txn.bank].push(*txn);
    }
    let read_txns = || per_bank.iter().flatten().filter(|t| t.op.is_read());

    // sense: every read's cells through the scheme, retried as the bank
    // would, on arrays sampled with each bank's seed.
    let mut banks: Vec<SampledBank> = (0..config.banks).map(|i| sampled_bank(config, i)).collect();
    let scheme = Scheme::for_kind(
        config.kind,
        &DesignPoint::date2010(&config.spec.cell.nominal_cell()),
    );
    let retry = config.retry;
    let cols = config.spec.cols;
    let ((calls, reads, first_try), sense_s) = pass.time("sense.sense_once", || {
        let (mut calls, mut reads, mut first_try) = (0u64, 0u64, 0u64);
        for txn in read_txns() {
            reads += 1;
            let SampledBank { array, rng, .. } = &mut banks[txn.bank];
            for cell in sensed_cells(config, txn) {
                let addr = Address::new(cell / cols, cell % cols);
                let resolution = retry.resolve(|| {
                    calls += 1;
                    scheme.sense_once(array, addr, rng)
                });
                first_try += u64::from(resolution.attempts == 1 && resolution.confident);
            }
        }
        (calls, reads, first_try)
    });
    values.insert("sense.ns_per_call", ratio(sense_s * 1e9, calls as f64));
    values.insert("sense.calls_per_read", ratio(calls as f64, reads as f64));
    values.insert(
        "retry.first_try_frac",
        ratio(first_try as f64, calls as f64),
    );

    // reliability: encode + decode of every read's word, as preloaded.
    if config.ecc.is_enabled() {
        let words: Vec<u64> = read_txns()
            .map(|txn| {
                let truth = &banks[txn.bank].truth;
                sensed_cells(config, txn)
                    .enumerate()
                    .fold(0u64, |word, (k, cell)| word | (u64::from(truth[cell]) << k))
            })
            .collect();
        let (_, codec_s) = pass.time("reliability.codec", || {
            for &word in &words {
                let check = codec::encode(black_box(word));
                black_box(codec::decode(black_box(word), check));
            }
        });
        values.insert(
            "reliability.codec_ns_per_word",
            ratio(codec_s * 1e9, words.len() as f64),
        );
    }
    drop(banks);

    // bank: `Bank::execute` in per-bank batches of consecutive same-op
    // transactions, each batch timed on its own.
    let live = alloc::live_bytes();
    let (mut banks, new_s) = pass.time("bank.new", || {
        (0..config.banks)
            .map(|i| Bank::new(i, config))
            .collect::<Vec<Bank>>()
    });
    let held = (alloc::live_bytes() - live) as f64;
    let cells = (config.banks * config.spec.capacity_bits()) as f64;
    let (rw, _) = pass.time("bank.execute", || {
        let (mut read_s, mut write_s, mut reads, mut writes) = (0.0, 0.0, 0usize, 0usize);
        for (bank, txns) in banks.iter_mut().zip(&per_bank) {
            for batch in txns.chunk_by(|a, b| a.op.is_read() == b.op.is_read()) {
                let start = Instant::now();
                for txn in batch {
                    bank.execute(txn, &config.faults);
                }
                let took = (secs(start) - clock_pair).max(0.0);
                if batch[0].op.is_read() {
                    read_s += took;
                    reads += batch.len();
                } else {
                    write_s += took;
                    writes += batch.len();
                }
            }
        }
        (read_s, write_s, reads, writes)
    });
    drop(banks);
    let (read_s, write_s, reads, writes) = rw;
    values.insert("bank.read_ns", ratio(read_s * 1e9, reads as f64));
    values.insert("bank.write_ns", ratio(write_s * 1e9, writes as f64));
    values.insert("bank.new_ms", new_s * 1e3 / config.banks as f64);
    values.insert("bank.bytes_per_cell", held / cells);

    // engine: serial replay on a fresh controller.
    let (mut controller, engine_new_s) =
        pass.time("engine.new", || Controller::new(config.clone()));
    let (telemetry, engine_s) = pass.time("engine.run", || controller.run(trace, Dispatch::Serial));
    drop(controller);
    values.insert("engine.new_ms", engine_new_s * 1e3);
    values.insert("engine.ns_per_txn", engine_s * 1e9 / n);
    values.insert("engine.tax", ratio(engine_s, read_s + write_s));

    println!(
        "  ladder ns/txn: sense {:.1}, bank {:.1} ({:+.1}), engine {:.1} ({:+.1})",
        sense_s * 1e9 / n,
        (read_s + write_s) * 1e9 / n,
        (read_s + write_s - sense_s) * 1e9 / n,
        engine_s * 1e9 / n,
        (engine_s - read_s - write_s) * 1e9 / n,
    );
    (telemetry, engine_s)
}

/// Retry and reliability counters of the workload's own telemetry.
fn retry_values(agg: &stt_ctrl::BankTelemetry, values: &mut Values) {
    let reads = agg.reads as f64;
    values.insert(
        "retry.retries_per_read",
        ratio(agg.read_retries as f64, reads),
    );
    values.insert(
        "retry.exhausted_frac",
        ratio(agg.unconfident_reads as f64, reads),
    );
    if agg.ecc.words_total > 0 {
        values.insert(
            "reliability.corrected_per_kread",
            ratio(agg.ecc.corrected_ce as f64 * 1e3, reads),
        );
        values.insert(
            "reliability.ue_per_kread",
            ratio(agg.ecc.detected_ue as f64 * 1e3, reads),
        );
    }
}

/// The top rung of `frontend-open`: `Frontend::run`.
fn sched_rung(
    pass: &mut Pass<'_>,
    config: &ControllerConfig,
    frontend: &FrontendConfig,
    trace: &Trace,
    engine_s: f64,
    values: &mut Values,
) -> (Sim, f64) {
    let (mut front, _) = pass.time("sched.new", || {
        Frontend::new(Controller::new(config.clone()), *frontend)
    });
    let (run, sched_s) = pass.time("sched.run", || front.run(trace));
    drop(front);
    let n = trace.len() as f64;
    let agg = run.telemetry.aggregate();
    retry_values(&agg, values);
    let wait = agg.queue.wait_ns.mean();
    values.insert("sched.ns_per_txn", sched_s * 1e9 / n);
    values.insert("sched.tax", ratio(sched_s, engine_s));
    values.insert(
        "sched.wait_ns_mean",
        if wait.is_finite() { wait } else { 0.0 },
    );
    values.insert("sched.queue_depth_mean", agg.queue.mean_depth());
    values.insert("sched.stalls_per_ktxn", agg.queue.stalls as f64 * 1e3 / n);
    values.insert("sched.steady_state_allocs", run.steady_state_allocs as f64);
    values.insert(
        "calib.trips_per_kread",
        ratio(agg.calib.trips as f64 * 1e3, agg.reads as f64),
    );
    values.insert(
        "calib.deferred_per_ktxn",
        agg.queue.calib_deferred as f64 * 1e3 / n,
    );
    values.insert(
        "calib.busy_frac",
        ratio(
            agg.calib.busy_time.get() * 1e9,
            config.banks as f64 * run.makespan_ns,
        ),
    );
    println!(
        "  ladder ns/txn: sched {:.1} ({:+.1} over serial replay)",
        sched_s * 1e9 / n,
        (sched_s - engine_s) * 1e9 / n
    );
    (workloads::frontend_sim(&run, trace.len()), sched_s)
}

/// The top rungs of `chip-closed`: lazy materialisation, then
/// `run_closed_loop` under Serial and under Sharded dispatch, which must
/// agree bit for bit.
fn hierarchy_rung(
    pass: &mut Pass<'_>,
    inputs: &Inputs,
    engine_s: f64,
    values: &mut Values,
    checks: &mut Vec<(&'static str, bool)>,
) -> (Sim, f64) {
    let Inputs::Chip { config, source } = inputs else {
        unreachable!("the hierarchy rung runs the chip workload")
    };
    let offered = (source.ops_per_channel * config.topology.channels) as u64;
    let build = |pass: &mut Pass<'_>| {
        let mut chip = Chip::new(config.clone());
        let (_, materialise_s) = pass.time("hierarchy.materialise", || {
            workloads::materialise(&mut chip)
        });
        (chip, materialise_s)
    };
    let (mut serial, materialise_s) = build(pass);
    let (serial_run, serial_s) = pass.time("hierarchy.serial", || {
        serial.run_closed_loop(source, ShardDispatch::Serial)
    });
    drop(serial);
    let (mut sharded, _) = build(pass);
    let (sharded_run, sharded_s) = pass.time("hierarchy.sharded", || {
        sharded.run_closed_loop(source, ShardDispatch::Sharded)
    });
    drop(sharded);
    checks.push(("serial = sharded chip telemetry", serial_run == sharded_run));

    let n = offered as f64;
    let agg = sharded_run.telemetry.aggregate();
    retry_values(&agg, values);
    let channels = &sharded_run.telemetry.channels;
    let bus_wait: f64 = channels.iter().map(|c| c.bus_wait_ns).sum();
    let bus_busy: f64 = channels.iter().map(|c| c.bus_busy_ns).sum();
    let horizon: f64 = channels.iter().map(|c| c.horizon_ns).sum();
    let completed: u64 = channels.iter().map(|c| c.completed).sum();
    values.insert("hierarchy.ns_per_txn", sharded_s * 1e9 / n);
    values.insert("hierarchy.serial_ns_per_txn", serial_s * 1e9 / n);
    values.insert("hierarchy.shard_speedup", ratio(serial_s, sharded_s));
    values.insert("hierarchy.tax", ratio(serial_s, engine_s));
    values.insert(
        "hierarchy.bus_wait_ns_mean",
        ratio(bus_wait, completed as f64),
    );
    values.insert("hierarchy.bus_busy_frac", ratio(bus_busy, horizon));
    values.insert("hierarchy.materialise_ms", materialise_s * 1e3);
    println!(
        "  ladder ns/txn: chip serial {:.1} ({:+.1} over engine), sharded {:.1}",
        serial_s * 1e9 / n,
        (serial_s - engine_s) * 1e9 / n,
        sharded_s * 1e9 / n
    );
    (workloads::chip_sim(&sharded_run, offered), sharded_s)
}

/// The `circuit-mc` rungs: one `Circuit::transient` and one
/// `Circuit::transient_batch` on the campaign's netlist, then the campaign.
fn mna_rungs(pass: &mut Pass<'_>, inputs: &Inputs, values: &mut Values) -> (Sim, f64) {
    let Inputs::Circuit { campaigns } = inputs else {
        unreachable!("the MNA rungs run the circuit workload")
    };
    let campaign = &campaigns[0];
    let (circuit, driver, probes) = fig5_linear_circuit(campaign.segments);
    let base = stt_bench::montecarlo::fig5_read_current();
    let options = TranOptions::new(Seconds::from_nano(30.0), campaign.dt)
        .from_zero_state()
        .with_backend(SolverBackend::Auto);
    let (single, transient_s) = pass.time("mna.transient", || circuit.transient(&options));
    black_box(single.expect("the Fig. 5 netlist simulates"));
    let variation = Normal::new(1.0, campaign.sigma);
    let members: Vec<BatchMember> = (0..campaign.batch)
        .map(|k| {
            let scale = variation.sample(&mut stt_stats::trial_rng(campaign.seed, k));
            BatchMember::new().current_wave(driver, base.scaled(scale))
        })
        .collect();
    let (batch, batch_s) = pass.time("mna.transient_batch", || {
        circuit.transient_batch(&options, &members, &[probes.v_bo])
    });
    black_box(batch.expect("the Fig. 5 batch simulates"));
    let (results, campaign_s) = pass.time("mna.campaign", || {
        campaigns
            .iter()
            .map(workloads::run_campaign)
            .collect::<Option<Vec<_>>>()
    });
    values.insert("mna.transient_ms", transient_s * 1e3);
    values.insert(
        "mna.batch_ms_per_member",
        batch_s * 1e3 / campaign.batch as f64,
    );
    let trials: usize = campaigns.iter().map(|c| c.trials).sum();
    let sim = match results {
        Some(results) => {
            let batched: usize = results.iter().map(|r| r.batched_factorizations).sum();
            let sequential: usize = results.iter().map(|r| r.sequential_factorizations).sum();
            values.insert(
                "mna.factorizations_per_trial",
                batched as f64 / trials as f64,
            );
            values.insert("mna.amortization", ratio(sequential as f64, batched as f64));
            values.insert(
                "mna.bandwidth",
                results[0].telemetry.reordered_bandwidth as f64,
            );
            let margins: Vec<f64> = results
                .iter()
                .flat_map(|r| r.outcomes.iter().map(|t| t.margin))
                .collect();
            workloads::circuit_sim(&margins)
        }
        None => Sim {
            attempted: trials as u64,
            failed: trials as u64,
            values: Vec::new(),
        },
    };
    (sim, campaign_s)
}

/// The controller configuration and uniform trace the `chip-closed` lower
/// rungs replay: as many transactions as the closed loop serves, with its
/// read share, over the same banks.
fn chip_equivalent(
    config: &ChipConfig,
    ops: usize,
    read_fraction: f64,
    seed: u64,
) -> (ControllerConfig, Trace) {
    let banks = config.topology.total_banks();
    let controller = ControllerConfig::date2010(SCHEME, banks).with_seed(config.seed);
    let footprint = Footprint {
        banks,
        rows: config.spec.rows,
        cols: config.spec.cols,
    };
    let trace = Traffic::Uniform { read_fraction }.generate(
        footprint,
        ops,
        &mut rand::SeedableRng::seed_from_u64(seed),
    );
    (controller, trace)
}

/// The traced run: ladder passes for at least `seconds` (at least one),
/// per-layer metrics as medians over passes.
pub fn run_traced(workload: Workload, seed: u64, seconds: f64, ops_per_rep: usize) -> Report {
    let inputs = Inputs::generate(workload, seed, ops_per_rep);
    let chip_lower = match &inputs {
        Inputs::Chip { config, source } => Some(chip_equivalent(
            config,
            workloads::ops(&inputs),
            source.read_fraction,
            seed,
        )),
        _ => None,
    };
    let clock_pair = clock_pair_s();
    let mut log = SpanLog::new();
    let mut passes: Vec<Values> = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut sims: Vec<Sim> = Vec::new();
    let mut checks: Vec<(&'static str, bool)> = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < budget {
        let rep = workloads::rep(&inputs);
        untraced_s.push(rep.run_s());
        if passes.is_empty() {
            checks.extend(rep.checks.iter().copied());
        } else {
            checks.extend(rep.checks.iter().copied().filter(|(_, ok)| !ok));
        }

        let run = format!("{}/seed{seed}/pass{}", workload.name(), passes.len());
        let root = log.open("ladder", None, &run);
        let mut pass = Pass {
            log: &mut log,
            root,
            run,
        };
        let mut values = Values::new();
        let (top_sim, top_s) = match &inputs {
            Inputs::Replay { config, trace } => {
                let (telemetry, engine_s) =
                    controller_rungs(&mut pass, config, trace, clock_pair, &mut values);
                retry_values(&telemetry.aggregate(), &mut values);
                (workloads::replay_sim(&telemetry, trace.len()), engine_s)
            }
            Inputs::Frontend {
                config,
                frontend,
                trace,
            } => {
                let (_, engine_s) =
                    controller_rungs(&mut pass, config, trace, clock_pair, &mut values);
                sched_rung(&mut pass, config, frontend, trace, engine_s, &mut values)
            }
            Inputs::Chip { .. } => {
                let (config, trace) = chip_lower.as_ref().expect("built for the chip");
                let (_, engine_s) =
                    controller_rungs(&mut pass, config, trace, clock_pair, &mut values);
                hierarchy_rung(&mut pass, &inputs, engine_s, &mut values, &mut checks)
            }
            Inputs::Circuit { .. } => mna_rungs(&mut pass, &inputs, &mut values),
        };
        log.close(root);
        checks.push(("traced top rung simulates as untraced", top_sim == rep.sim));
        traced_s.push(top_s);
        sims.push(rep.sim);
        passes.push(values);
    }
    checks.push((
        "every pass simulated identically",
        sims.iter().all(|s| *s == sims[0]),
    ));
    // Keep one line per distinct check, failed first if any.
    checks.sort_by_key(|&(name, ok)| (name, ok));
    checks.dedup_by_key(|&mut (name, _)| name);

    let mut metrics = Values::new();
    for name in passes[0].keys() {
        let samples: Vec<f64> = passes.iter().map(|p| p[name]).collect();
        metrics.insert(name, median(&samples));
    }
    metrics.insert(
        "trace.overhead_frac",
        median(&traced_s) / median(&untraced_s) - 1.0,
    );
    let sim = &sims[0];
    metrics.insert("fail_frac", ratio(sim.failed as f64, sim.attempted as f64));
    for &(name, _, value) in &sim.values {
        if crate::metrics::PER_LAYER.iter().any(|(n, _)| *n == name) {
            metrics.insert(name, value);
        }
    }

    let spans_path = spans_path(workload, seed);
    match log.write_jsonl(&spans_path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            log.spans().len(),
            spans_path.display()
        ),
        Err(err) => eprintln!(
            "warning: spans not written to {}: {err}",
            spans_path.display()
        ),
    }
    println!(
        "traced workload {} seed {seed}: {} ladder passes",
        workload.name(),
        passes.len()
    );
    for (name, unit) in crate::metrics::PER_LAYER {
        if let Some(value) = metrics.get(name) {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
    }
    workloads::print_sim(workload, seed, sim);
    let correct = workloads::print_checks(&checks);
    Report {
        correct,
        attempted: sims.iter().map(|s| s.attempted).sum(),
        failed: sims.iter().map(|s| s.failed).sum(),
        metrics,
    }
}

/// Where the spans of a traced run go: under the build directory, which
/// the checkout already ignores.
fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
        .join("perfbench-spans")
        .join(format!("{}-seed{seed}.jsonl", workload.name()))
}
