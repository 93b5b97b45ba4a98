//! Metric names, the result line, and the small statistics the benchmark
//! reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics every untraced run reports: host-side figures
/// that exist, are never zero, and vary from run to run on all four
/// workloads. `(name, unit)`; must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("norm_ops_per_s", "op/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The metrics every traced run reports, `(name, unit)`; must match
/// `per_layer` in `BENCHMARK.json`. A layer the workload bypasses reports 0.
///
/// The simulated end-to-end figures (`fail_frac`, `sim_*`) ride here, not
/// in [`END_TO_END`]: they are pure functions of the seed, some are
/// undefined on some workloads (no transactions in `circuit-mc`, no sensed
/// margin in the controller workloads) and some are discrete (an ECC word's
/// service time is a whole number of read times), so they cannot carry a
/// host-noise bound. Every run prints them with their digest instead.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("fail_frac", "ratio"),
    ("sim_read_p50_ns", "ns"),
    ("sim_read_p99_ns", "ns"),
    ("sim_mtxn_per_s", "Mtxn/s"),
    ("sim_energy_pj_per_op", "pJ"),
    ("sim_margin_p1_mv", "mV"),
    ("sense.ns_per_call", "ns"),
    ("sense.calls_per_read", "count"),
    ("retry.retries_per_read", "count"),
    ("retry.first_try_frac", "ratio"),
    ("retry.exhausted_frac", "ratio"),
    ("bank.read_ns", "ns"),
    ("bank.write_ns", "ns"),
    ("bank.new_ms", "ms"),
    ("bank.bytes_per_cell", "B"),
    ("reliability.codec_ns_per_word", "ns"),
    ("reliability.corrected_per_kread", "count"),
    ("reliability.ue_per_kread", "count"),
    ("engine.ns_per_txn", "ns"),
    ("engine.tax", "ratio"),
    ("engine.new_ms", "ms"),
    ("sched.ns_per_txn", "ns"),
    ("sched.tax", "ratio"),
    ("sched.wait_ns_mean", "ns"),
    ("sched.queue_depth_mean", "count"),
    ("sched.stalls_per_ktxn", "count"),
    ("sched.steady_state_allocs", "count"),
    ("calib.trips_per_kread", "count"),
    ("calib.deferred_per_ktxn", "count"),
    ("calib.busy_frac", "ratio"),
    ("hierarchy.ns_per_txn", "ns"),
    ("hierarchy.serial_ns_per_txn", "ns"),
    ("hierarchy.shard_speedup", "ratio"),
    ("hierarchy.tax", "ratio"),
    ("hierarchy.bus_wait_ns_mean", "ns"),
    ("hierarchy.bus_busy_frac", "ratio"),
    ("hierarchy.materialise_ms", "ms"),
    ("mna.transient_ms", "ms"),
    ("mna.batch_ms_per_member", "ms"),
    ("mna.factorizations_per_trial", "count"),
    ("mna.amortization", "ratio"),
    ("mna.bandwidth", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The result of one benchmark run: the last line of standard output.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
}

impl Report {
    /// The result line: one JSON object listing every metric of `names`,
    /// in that order, with its unit. A name missing from the values reads
    /// 0 (its layer did no work in this workload).
    ///
    /// # Panics
    ///
    /// Panics if a value is not finite (JSON has no spelling for it) or a
    /// value is named that `names` does not list.
    pub fn to_json(&self, names: &[(&str, &str)]) -> String {
        for name in self.metrics.keys() {
            assert!(
                names.iter().any(|(listed, _)| listed == name),
                "metric {name} is not in the benchmark's metric list"
            );
        }
        let mut body = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "metric {name} is {value}");
            if i > 0 {
                body.push_str(", ");
            }
            // `{:?}` prints the shortest string that reads back as the same
            // f64: every digit the measurement has, and a `.0` on integers.
            write!(
                body,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing sample"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process in MB (10⁶ bytes), from
/// `/proc/self/status`.
///
/// # Panics
///
/// Panics where the kernel does not report `VmHWM` (not Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak RSS is read from /proc/self/status (Linux only)");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kb * 1024.0 / 1e6
}

/// 64-bit FNV-1a over a sequence of named values: a short fingerprint of a
/// run's simulated statistics, so two builds can show they left every one
/// of them identical.
pub fn digest<'a>(values: impl IntoIterator<Item = (&'a str, f64)>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, value) in values {
        eat(name.as_bytes());
        eat(&value.to_bits().to_le_bytes());
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists as `BENCHMARK.json` records them, `(name, unit)`.
    fn recorded(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} section"));
        let block = &json[start..];
        let block = &block[..block.find(']').expect("the section is a list")];
        let field = |entry: &str, key: &str| {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
        };
        block
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn listed(names: &[(&str, &str)]) -> Vec<(String, String)> {
        names
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(recorded("end_to_end"), listed(&END_TO_END));
        assert_eq!(recorded("per_layer"), listed(&PER_LAYER));
    }

    #[test]
    fn metric_names_and_units_use_the_allowed_alphabet() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        let mut all: Vec<_> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| n)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }

    #[test]
    fn median_and_digest_behave() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let a = digest([("x", 1.0), ("y", 2.0)]);
        assert_eq!(a, digest([("x", 1.0), ("y", 2.0)]));
        assert_ne!(a, digest([("x", 1.0), ("y", 2.000_000_1)]));
    }

    #[test]
    fn report_prints_every_listed_metric_with_its_unit() {
        let report = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: [("setup_s", 0.25)].into_iter().collect(),
        };
        let line = report.to_json(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"norm_ops_per_s\": {\"value\": 0.0, \"unit\": \"op/s\"}"));
    }
}
