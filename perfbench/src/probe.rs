//! The host-speed probe that normalises the benchmark's throughput.
//!
//! The benchmark shares a few cores of a host with other tenants. The
//! simulator's working set (about 113 B per cell, megabytes per bank) lives
//! in the shared last-level cache, so its speed follows how hard the
//! neighbours use that cache: host time per transaction drifts by a third
//! over minutes, while a register-only loop moves by a few percent. The
//! probe times a fixed number of random loads from a table twice the size
//! of a core's private L2, so it meets the same contention. Timing it
//! between repetitions and scaling each repetition's throughput by the
//! probe time around it removes most of that drift on the workloads whose
//! working set lives in that cache (`Workload::cache_bound`). The probe runs no code
//! of the simulator, so a change to the simulator cannot move it.

use std::time::Instant;

/// Table size: twice a 2 MiB per-core L2, so the loads hit the shared cache.
const TABLE_WORDS: usize = (4 << 20) / 8;
/// Random loads per probe: a few tens of milliseconds of host time.
const LOADS: usize = 4_000_000;
/// The probe's time on an uncontended 2-vCPU Xeon guest (2 MiB L2 per core,
/// shared 105 MiB L3). Normalised throughput reads as it would on that host
/// when the probe takes this long.
pub const REFERENCE_S: f64 = 0.02;

/// A table of pseudo-random words, resident for the life of the process.
pub struct HostProbe {
    table: Vec<u64>,
}

/// One xorshift64 step.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl HostProbe {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15;
        HostProbe {
            table: (0..TABLE_WORDS).map(|_| next(&mut x)).collect(),
        }
    }

    /// Host seconds for [`LOADS`] loads from random words of the table.
    pub fn time_s(&self) -> f64 {
        let mask = self.table.len() - 1;
        let mut x = 0x2545_F491_4F6C_DD1D;
        let mut sum = 0u64;
        let start = Instant::now();
        for _ in 0..LOADS {
            sum = sum.wrapping_add(self.table[next(&mut x) as usize & mask]);
        }
        std::hint::black_box(sum);
        start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_a_power_of_two_and_the_probe_takes_time() {
        let probe = HostProbe::new();
        assert!(probe.table.len().is_power_of_two());
        assert!(probe.time_s() > 0.0);
    }
}
