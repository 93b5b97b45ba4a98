//! `stt-perfbench`: the end-to-end benchmark of the STT-RAM simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <replay-ecc|frontend-open|chip-closed|circuit-mc> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run times end-to-end repetitions of the workload
//! for `--seconds` and reports the end-to-end metrics; with `--trace 1` it
//! runs the per-layer ladder instead (see `ladder`). Either way it checks
//! the simulator's outputs, prints the workload's simulated statistics with
//! a digest, and ends with one JSON result line. `perfbench/ladder.json`
//! records why each workload exists and which end-to-end metric each
//! layer metric should move.

mod alloc;
mod ladder;
mod metrics;
mod probe;
mod spans;
mod workloads;

use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER};
use workloads::Workload;

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: stt-perfbench --workload <replay-ecc|frontend-open|chip-closed|circuit-mc> \
                     --seed <u64> --seconds <1-600> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ops = args.workload.full_ops();
    let line = if args.trace {
        ladder::run_traced(args.workload, args.seed, args.seconds, ops).to_json(&PER_LAYER)
    } else {
        workloads::run_untraced(args.workload, args.seed, args.seconds, ops).to_json(&END_TO_END)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{rep, Inputs};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(&argv(
            "--workload chip-closed --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::ChipClosed,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload replay-ecc --seed -1 --seconds 1 --trace 0",
            "--workload replay-ecc --seed 1 --seconds 0 --trace 0",
            "--workload replay-ecc --seed 1 --seconds 1 --trace 2",
            "--workload replay-ecc --seed 1 --seconds 1",
            "--workload replay-ecc --seed 1 --seconds 1 --trace",
            "--bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// Small sizes: the tests check what is emitted and simulated, not
    /// host speed.
    fn small(workload: Workload) -> usize {
        match workload {
            Workload::CircuitMc => 64,
            _ => 2_000,
        }
    }

    #[test]
    fn every_workload_emits_every_metric_and_passes_its_checks() {
        for workload in Workload::ALL {
            let report = workloads::run_untraced(workload, 1, 0.01, small(workload));
            assert!(report.correct, "{}", workload.name());
            assert_eq!(report.failed, 0, "{}", workload.name());
            for (name, _) in END_TO_END {
                assert!(report.metrics[name] > 0.0, "{} {name}", workload.name());
            }
            let traced = ladder::run_traced(workload, 1, 0.01, small(workload));
            assert!(traced.correct, "{} traced", workload.name());
            // Each layer the workload runs is measured; the rest read 0.
            let applicable: &[&str] = match workload {
                Workload::ReplayEcc => &[
                    "sim_read_p99_ns",
                    "sense.ns_per_call",
                    "bank.read_ns",
                    "reliability.codec_ns_per_word",
                    "engine.ns_per_txn",
                    "engine.tax",
                ],
                Workload::FrontendOpen => &[
                    "sim_read_p99_ns",
                    "sense.ns_per_call",
                    "bank.write_ns",
                    "engine.ns_per_txn",
                    "sched.ns_per_txn",
                    "sched.tax",
                    "sched.wait_ns_mean",
                ],
                Workload::ChipClosed => &[
                    "sim_read_p99_ns",
                    "sense.ns_per_call",
                    "engine.ns_per_txn",
                    "hierarchy.ns_per_txn",
                    "hierarchy.tax",
                    "hierarchy.bus_busy_frac",
                ],
                Workload::CircuitMc => &[
                    "sim_margin_p1_mv",
                    "mna.transient_ms",
                    "mna.batch_ms_per_member",
                    "mna.factorizations_per_trial",
                    "mna.bandwidth",
                ],
            };
            for name in applicable {
                assert!(traced.metrics[name] > 0.0, "{} {name}", workload.name());
            }
            // The line lists every per-layer metric, measured or not.
            let line = traced.to_json(&PER_LAYER);
            for (name, unit) in PER_LAYER {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
            }
        }
    }

    #[test]
    fn same_seed_gives_identical_simulated_values() {
        for workload in Workload::ALL {
            let a = rep(&Inputs::generate(workload, 5, small(workload))).sim;
            let b = rep(&Inputs::generate(workload, 5, small(workload))).sim;
            assert_eq!(a, b, "{}", workload.name());
            assert_eq!(a.digest(), b.digest());
        }
    }

    /// The held-out seed recorded in `ladder.json`.
    fn held_out_seed() -> u64 {
        let json = include_str!("../ladder.json");
        let at = json
            .find("\"held_out_seed\": ")
            .expect("ladder.json records it")
            + 17;
        json[at..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .and_then(|digits| digits.parse().ok())
            .expect("a whole number")
    }

    #[test]
    fn the_held_out_seed_changes_the_inputs() {
        let held_out = held_out_seed();
        for workload in Workload::ALL {
            let a = Inputs::generate(workload, 1, small(workload));
            let b = Inputs::generate(workload, held_out, small(workload));
            let differ = match (&a, &b) {
                (Inputs::Replay { trace: x, .. }, Inputs::Replay { trace: y, .. })
                | (Inputs::Frontend { trace: x, .. }, Inputs::Frontend { trace: y, .. }) => x != y,
                (Inputs::Chip { source: x, .. }, Inputs::Chip { source: y, .. }) => x != y,
                (Inputs::Circuit { campaigns: x }, Inputs::Circuit { campaigns: y }) => {
                    x.iter().zip(y).all(|(x, y)| x.seed != y.seed)
                }
                _ => unreachable!("same workload, same variant"),
            };
            assert!(differ, "{}", workload.name());
            // And the changed inputs change what is simulated.
            assert_ne!(rep(&a).sim, rep(&b).sim, "{}", workload.name());
        }
    }
}
