//! Steady-state allocation audit for the fused scratch kernel.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after one
//! warmup alignment per configuration, repeated `posterior_columns` calls
//! and four-lane `posterior_lanes` group calls on a reused
//! [`pairhmm::PhmmScratch`] must perform **zero** heap allocations — the
//! core promise of the
//! scratch-arena design. This lives in its own integration-test binary so
//! the global allocator hook and the single-threaded counter discipline
//! (one `#[test]` only) cannot interfere with other tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// Only the measuring thread's allocations are counted: libtest spawns
// helper threads (output capture, timers) that may allocate mid-window,
// and a `Cell<bool>` TLS slot is const-initialized and destructor-free,
// so reading it inside the allocator cannot recurse.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn on_measuring_thread() -> bool {
    COUNTING.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if on_measuring_thread() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if on_measuring_thread() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if on_measuring_thread() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Read the counter, arming counting for the calling thread — the first
/// call opens the measurement window, the second closes it.
fn allocation_count() -> u64 {
    COUNTING.with(|c| c.set(true));
    ALLOC_CALLS.load(Ordering::Relaxed)
}

#[test]
fn fused_kernel_is_allocation_free_in_steady_state() {
    use genome::alphabet::BASES;
    use pairhmm::params::PhmmParams;
    use pairhmm::pwm::Pwm;
    use pairhmm::PhmmScratch;

    let params = PhmmParams::default();
    // Deterministic 62-bp read/window pair (paper read length), built
    // before any counting so its allocations are irrelevant.
    let n = 62usize;
    let rows: Vec<[f64; 4]> = (0..n)
        .map(|i| {
            let mut row = [0.02f64; 4];
            row[i % 4] = 0.94;
            row
        })
        .collect();
    let pwm = Pwm::from_rows(rows);
    let window: Vec<_> = (0..n).map(|j| Some(BASES[(j * 7 + 3) % 4])).collect();
    // Four candidate windows for one lockstep group, and the read's blend
    // rows, which the mapper computes once per oriented read.
    let group: Vec<Vec<_>> = (0..4)
        .map(|g| (0..n).map(|j| Some(BASES[(j * 7 + 3 + g) % 4])).collect())
        .collect();
    let lanes: [&[_]; 4] = std::array::from_fn(|l| group[l].as_slice());
    let mut blend = Vec::new();
    pwm.fill_blend(&params, &mut blend);

    let mut scratch = PhmmScratch::new();
    let mut sink = 0.0f64;

    // Warmup: grow every buffer for each configuration exercised below.
    sink += scratch.posterior_columns(&pwm, &window, &params, None);
    sink += scratch.posterior_columns(&pwm, &window, &params, Some(4));
    sink += scratch.posterior_lanes(&pwm, &blend, lanes, &params, None)[0];
    sink += scratch.posterior_lanes(&pwm, &blend, lanes, &params, Some(4))[0];

    let before = allocation_count();
    for _ in 0..100 {
        sink += scratch.posterior_columns(&pwm, &window, &params, None);
        sink += scratch.posterior_columns(&pwm, &window, &params, Some(4));
        sink += scratch.columns()[0].probs[0];
        sink += scratch.posterior_lanes(&pwm, &blend, lanes, &params, None)[1];
        sink += scratch.posterior_lanes(&pwm, &blend, lanes, &params, Some(4))[3];
        sink += scratch.lane_columns(2)[0].probs[0];
    }
    let after = allocation_count();

    assert!(sink.is_finite(), "keep the computation observable");
    assert_eq!(
        after - before,
        0,
        "steady-state scratch alignments must not allocate \
         ({} allocations over 200 one-lane alignments and 200 four-lane groups)",
        after - before
    );
}
