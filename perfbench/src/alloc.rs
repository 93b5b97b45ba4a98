//! The benchmark's counting global allocator.
//!
//! Every allocation reports to `stt_ctrl::alloc_probe`, which is what makes
//! `SchedRun::steady_state_allocs` a real count in this process (without a
//! counting allocator it always reads 0). The allocator also keeps a
//! live-byte balance, from which the traced run reads how many heap bytes a
//! bank holds per cell.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// Heap bytes allocated and not yet freed. A statistic: it publishes no
/// other data, so relaxed ordering suffices.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

struct CountingAlloc;

fn bytes(size: usize) -> i64 {
    i64::try_from(size).unwrap_or(i64::MAX)
}

// SAFETY: every method delegates unchanged to `System` with the caller's
// pointer and layout; the bookkeeping is relaxed atomic arithmetic that
// neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        stt_ctrl::alloc_probe::on_alloc();
        LIVE_BYTES.fetch_add(bytes(layout.size()), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(bytes(layout.size()), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        stt_ctrl::alloc_probe::on_alloc();
        LIVE_BYTES.fetch_add(bytes(layout.size()), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        stt_ctrl::alloc_probe::on_alloc();
        LIVE_BYTES.fetch_add(bytes(new_size) - bytes(layout.size()), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap bytes currently allocated by this process.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_live_bytes() {
        let allocs = stt_ctrl::alloc_probe::count();
        let held = vec![0u8; 1 << 20];
        // Other test threads allocate too; only growth is ours to assert.
        assert!(stt_ctrl::alloc_probe::count() > allocs);
        assert!(live_bytes() >= 1 << 20);
        drop(held);
    }
}
