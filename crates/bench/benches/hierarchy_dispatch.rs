//! Wall-clock cost of the full-chip hierarchy engine, and the payoff of
//! sharding dispatch across channel worker threads: since channels share
//! nothing, a 4-channel sharded chip approaches 4x the single-channel
//! throughput on a multi-core host while staying bit-identical to the
//! serial schedule. On a single-core host the 4ch-sharded vs 4ch-serial
//! gap instead measures pure thread spawn/join overhead — still worth
//! tracking, since it bounds the smallest chip worth sharding.
//!
//! Two run sizes per dispatch mode pin down that bound: the small points
//! sit near the spawn/join crossover (per-channel work comparable to the
//! thread cost), while the `-large` points run 8x the work per channel so
//! the fixed spawn cost amortises and any multi-core payoff shows.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, SamplingMode, Throughput};
use stt_ctrl::{Chip, ChipConfig, ClosedLoopSource, ShardDispatch, Topology};
use stt_sense::SchemeKind;

const OPS_SMALL: usize = 1_500;
const OPS_LARGE: usize = 12_000;
const WINDOW: usize = 8;

/// Closed-loop chips across scale and dispatch: one channel (the serial
/// floor), four channels served one after another, the same four channels
/// sharded over worker threads, and the serial/sharded pair again at 8x the
/// per-channel work.
fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchy_dispatch/closed_loop");
    group.sampling_mode(SamplingMode::Flat);
    group.sample_size(10);
    for (label, channels, ops_per_channel, dispatch) in [
        ("1ch-serial", 1, OPS_SMALL, ShardDispatch::Serial),
        ("4ch-serial", 4, OPS_SMALL, ShardDispatch::Serial),
        ("4ch-sharded", 4, OPS_SMALL, ShardDispatch::Sharded),
        ("4ch-serial-large", 4, OPS_LARGE, ShardDispatch::Serial),
        ("4ch-sharded-large", 4, OPS_LARGE, ShardDispatch::Sharded),
    ] {
        let source = ClosedLoopSource::read_mostly(ops_per_channel, WINDOW);
        let config =
            ChipConfig::small(SchemeKind::Nondestructive, Topology::new(channels, 1, 2, 2));
        group.throughput(Throughput::Elements((ops_per_channel * channels) as u64));
        group.bench_function(label, |b| {
            b.iter_batched(
                || Chip::new(config.clone()),
                |mut chip| {
                    std::hint::black_box(chip.run_closed_loop(&source, dispatch));
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
