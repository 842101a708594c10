//! Thread-pool churn: writers retire tree nodes and then park forever.
//!
//! This is the workload the evictable-bag registry exists for (DESIGN.md
//! §10): a parked worker never pins again, so under a thread-local bag
//! scheme everything it retired would be stranded until thread exit or
//! collector teardown. Now every outermost unpin seals the worker's bag
//! where other threads can reach it — parked in its participant slot, or,
//! once full, published to a shared lock-free list — and any later pinning
//! thread (here the test's main thread) steals and frees it.
//!
//! The CI churn job runs this test with `--nocapture` and uploads the
//! printed `ReclaimStats` report as an artifact, so per-PR footprint
//! regressions (peak deferred bytes, steal counts) stay visible.

use nbbst_core::NbBst;
use std::sync::mpsc;
use std::sync::Arc;

const WRITERS: usize = 8;
const KEYS_PER_WRITER: u64 = 2_000;

#[test]
fn parked_writers_garbage_is_freed_by_unrelated_thread() {
    let tree: Arc<NbBst<u64, u64>> = Arc::new(NbBst::new());
    let (done_tx, done_rx) = mpsc::channel();
    let mut parks = Vec::new();
    let mut joins = Vec::new();
    for w in 0..WRITERS {
        let tree = Arc::clone(&tree);
        let done = done_tx.clone();
        let (park_tx, park_rx) = mpsc::channel::<()>();
        parks.push(park_tx);
        joins.push(std::thread::spawn(move || {
            let base = (w as u64) * KEYS_PER_WRITER;
            for k in base..base + KEYS_PER_WRITER {
                tree.insert_entry(k, k)
                    .expect("writer key ranges are disjoint");
                tree.remove_key(&k);
            }
            done.send(()).unwrap();
            // Park forever (until test teardown): this thread never pins,
            // flushes, or exits on its own, so nothing it retired can be
            // freed unless another thread reclaims it.
            let _ = park_rx.recv();
        }));
    }
    for _ in 0..WRITERS {
        done_rx.recv().unwrap();
    }

    let before = tree.collector().stats();
    assert!(before.retired > 0, "churn must retire nodes: {before:?}");

    // An unrelated thread (this one) drains everything the parked writers
    // retired, purely through the evictable-bag registry.
    assert!(
        tree.collector().try_drain(10_000),
        "parked writers' garbage was not drained: {:?}",
        tree.collector().stats()
    );
    let stats = tree.collector().stats();

    println!("=== churn ReclaimStats report ===");
    println!("writers:             {WRITERS} (parked after {KEYS_PER_WRITER} insert+remove each)");
    println!("retired:             {}", stats.retired);
    println!("freed:               {}", stats.freed);
    println!("freed during churn:  {}", before.freed);
    println!("epoch advances:      {}", stats.epoch_advances);
    println!("bags published:      {}", stats.bags_published);
    println!(
        "published / retired: {:.4}",
        stats.bags_published as f64 / stats.retired as f64
    );
    println!("bags stolen:         {}", stats.bags_stolen);
    println!("bags freed:          {}", stats.bags_freed);
    println!("deferred bytes now:  {}", stats.deferred_bytes);
    println!("peak deferred bytes: {}", stats.peak_deferred_bytes);
    println!("=================================");

    assert_eq!(stats.retired, stats.freed, "{stats:?}");
    // The footprint invariant: despite every writer being parked forever,
    // deferred bytes return to zero — nothing is stranded, so the peak is
    // the high-water mark of a *draining* queue, not an unbounded leak.
    assert_eq!(stats.deferred_bytes, 0, "{stats:?}");
    assert_eq!(stats.evictable, 0, "{stats:?}");
    assert!(stats.peak_deferred_bytes > 0, "{stats:?}");
    assert!(
        stats.bags_stolen > 0,
        "an unrelated thread must have stolen parked writers' bags: {stats:?}"
    );

    // The tree is still fully usable after the cross-thread reclamation.
    tree.insert_entry(u64::MAX, 7).unwrap();
    assert!(tree.contains_key(&u64::MAX));

    for p in &parks {
        p.send(()).unwrap();
    }
    for j in joins {
        j.join().unwrap();
    }
}
