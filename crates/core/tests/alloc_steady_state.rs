//! Steady-state allocation of the default tree, measured with a counting
//! global allocator.
//!
//! Every update copies a leaf and publishes an Info record, and every
//! retirement ends up in a garbage bag. Reclaimed blocks go to the freeing
//! thread's recycling bins and the next allocation of the same layout is
//! served from there, so once a single-threaded update stream has warmed
//! up it should hardly reach the global allocator at all.

#![cfg(not(loom))]

use nbbst_core::NbBst;
use nbbst_reclaim::{Atomic, Collector};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

struct Counting;

thread_local! {
    /// Allocations made by the current thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Live blocks with [`Marker`]'s layout, over all threads.
static LIVE_MARKERS: AtomicIsize = AtomicIsize::new(0);

// SAFETY: forwards to `System` unchanged; the bookkeeping allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        if layout == Layout::new::<Marker>() {
            LIVE_MARKERS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: caller contract forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout == Layout::new::<Marker>() {
            LIVE_MARKERS.fetch_sub(1, Ordering::Relaxed);
        }
        // SAFETY: caller contract forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A payload whose layout no other allocation in this binary shares.
#[repr(align(256))]
struct Marker {
    _bytes: [u8; 256],
}

/// Odd keys spread over the prefilled range by a fixed LCG.
fn odd_keys(seed: u64) -> impl Iterator<Item = u64> {
    let mut x = seed;
    std::iter::repeat_with(move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((x >> 33) % 8_192) | 1
    })
}

#[test]
fn insert_remove_pairs_hardly_allocate_after_warm_up() {
    const PAIRS: usize = 100_000;
    let tree: NbBst<u64, u64> = NbBst::new();
    for k in (0..8_192).step_by(2) {
        tree.insert_entry(k, k).unwrap();
    }
    let pair = |k: u64| {
        tree.insert_entry(k, k).unwrap();
        assert!(tree.remove_key(&k));
    };
    odd_keys(1).take(20_000).for_each(pair);

    let before = allocs_on_this_thread();
    odd_keys(2).take(PAIRS).for_each(pair);
    let allocs = allocs_on_this_thread() - before;

    let updates = 2 * PAIRS as u64;
    println!("{allocs} global allocations for {updates} updates");
    assert!(
        allocs * 32 <= updates,
        "{allocs} global allocations for {updates} updates (limit: 1 per 32)"
    );
}

#[test]
fn exiting_thread_returns_its_binned_blocks() {
    const RETIRED: usize = 100;
    std::thread::spawn(|| {
        let collector = Collector::new();
        for _ in 0..RETIRED {
            let guard = collector.pin();
            let a = Atomic::new(Marker { _bytes: [7; 256] });
            let s = a.load(Ordering::Acquire, &guard);
            // SAFETY: `a` is never used again, so the marker is unlinked;
            // retired once.
            unsafe { guard.defer_destroy(s) };
        }
        assert!(collector.try_drain(1_000), "{:?}", collector.stats());
        // Freed on this thread, so the blocks sit in its bins.
        assert!(
            LIVE_MARKERS.load(Ordering::Relaxed) > 0,
            "reclaimed blocks should be cached, not freed"
        );
    })
    .join()
    .unwrap();
    assert_eq!(
        LIVE_MARKERS.load(Ordering::Relaxed),
        0,
        "thread exit must hand every binned block back to the allocator"
    );
}
