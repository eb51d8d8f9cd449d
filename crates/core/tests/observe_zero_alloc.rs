//! Allocation audit for the disabled observer — the "zero cost when
//! disabled" promise, enforced. A counting `#[global_allocator]` wraps
//! the system allocator; emitting through `Observer::disabled()` must
//! perform **zero** heap allocations, because `emit` takes a closure and
//! never runs it without a sink. This lives in its own integration-test
//! binary so the global allocator hook and the single-threaded counter
//! discipline (one `#[test]` only) cannot interfere with other tests.

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
fn disabled_observer_emits_without_allocating() {
    use gnumap_core::observe::{Event, Observer, Stage, StageTimer};

    let observer = Observer::disabled();
    assert!(!observer.is_enabled());

    // Warmup outside the counted window (first-use runtime allocations,
    // e.g. clock setup, must not be charged to the observer).
    observer.emit(|| Event::StageStart { stage: Stage::Map });
    let t = StageTimer::start(&observer, Stage::Map);
    t.finish(&observer);

    let before = allocation_count();
    for i in 0..10_000u64 {
        // Each closure would allocate two Strings — if it ever ran.
        observer.emit(|| Event::RunStart {
            driver: format!("driver-{i}"),
            accumulator: "NORM".to_string(),
        });
        observer.emit(|| Event::Batch {
            worker: i,
            reads: 256,
            mapped: 250,
            kept: 612,
            deposited_columns: 15_000,
        });
        // Cloning the handle (the per-worker pattern in the drivers) is
        // an Option<Arc> copy, not an allocation.
        let per_worker = observer.clone();
        per_worker.emit(|| Event::Checkpoint {
            cursor: i,
            reads_mapped: i,
        });
        // The stage timer reads clocks but must not touch the heap.
        let timer = StageTimer::start(&observer, Stage::Call);
        timer.finish(&observer);
    }
    let after = allocation_count();

    assert_eq!(
        after - before,
        0,
        "disabled observer must be allocation-free \
         ({} allocations over 40,000 emit sites)",
        after - before
    );
}
