//! Teardown frees every byte: a counting global allocator tracks live
//! heap bytes, and every tree built here, with operations crashed in it
//! (each shape of `stalled/mod.rs`) or after completed churn, gives back
//! all it allocated once it and its thread are gone.
//!
//! The value balance of `teardown.rs` sees only values; this gate also
//! sees nodes, Info records and the collector's own blocks, so a leaked
//! record or replacement fails it.
//!
//! The binary runs without the libtest harness (`harness = false` in
//! `Cargo.toml`): libtest's main thread allocates its bookkeeping for a
//! test while the test runs, which would show here as a leak. Run it with
//! `cargo test -p nbbst-core --test teardown_bytes`.

mod stalled;

use nbbst_core::NbBst;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

struct Counting;

/// Bytes allocated and not yet freed, over all threads.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: forwards to `System` unchanged; the bookkeeping allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: caller contract forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: caller contract forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Keys per churn round: few under Miri, which runs this test slowly.
const KEYS: u64 = if cfg!(miri) { 64 } else { 4_096 };

/// Completed updates only: inserts, removes of every other key, and
/// re-inserts, so leaves are copied and split, internal nodes are
/// spliced out, and Info records are displaced and retired.
fn churn(tree: NbBst<u64, Arc<AtomicIsize>>, live: &Arc<AtomicIsize>) {
    for round in 0..3 {
        for k in (0..KEYS).map(|i| i * 7 % KEYS) {
            tree.insert_entry(k, Arc::clone(live)).ok();
        }
        for k in (round..KEYS).step_by(2) {
            assert!(tree.remove_key(&k));
        }
    }
    tree.check_invariants().unwrap();
}

fn main() {
    if cfg!(loom) {
        // Under `--cfg loom` the tree's atomics work only inside a model.
        return;
    }
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    std::thread::spawn(|| {
        let live = Arc::new(AtomicIsize::new(0));
        for shape in stalled::ALL {
            shape(&live);
        }
        churn(NbBst::with_stats(), &live);
        churn(NbBst::with_stats().one_key_leaves(), &live);
        assert_eq!(live.load(Ordering::Relaxed), 0, "value balance");
        assert_eq!(Arc::strong_count(&live), 1, "a value was not dropped");
    })
    .join()
    .unwrap();
    let leaked = LIVE_BYTES.load(Ordering::SeqCst) - before;
    assert_eq!(leaked, 0, "{leaked} bytes allocated and not freed");
    println!("teardown_bytes: every byte allocated was freed");
}
