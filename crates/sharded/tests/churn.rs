//! Churn + teardown across the *shared* reclamation domain: writers churn
//! every shard of a [`ShardedNbBst`], park forever, and the whole map is
//! dropped — then a retained [`Collector`] clone (standing in for "any
//! other owner of the domain") proves nothing was stranded.
//!
//! This mirrors `crates/core/tests/churn.rs` but stresses what sharding
//! adds: retirements from N trees land in ONE evictable-bag registry
//! (DESIGN.md §10/§11), so a drain through any clone covers all shards,
//! and dropping the map must leave nothing retired unfreed and zero
//! deferred bytes behind.

use nbbst_reclaim::Collector;
use nbbst_sharded::ShardedNbBst;
use std::sync::mpsc;
use std::sync::Arc;

const WRITERS: usize = 8;
const KEYS_PER_WRITER: u64 = 1_500;
const SHARDS: usize = 8;

#[test]
fn dropped_sharded_map_leaves_no_evictable_garbage() {
    let map: Arc<ShardedNbBst<u64, u64>> = Arc::new(ShardedNbBst::with_shards(SHARDS));
    // A clone of the shared domain outliving the map: after `drop(map)`
    // the domain must still drain to empty through it.
    let collector: Collector = map.collector().clone();

    let (done_tx, done_rx) = mpsc::channel();
    let mut parks = Vec::new();
    let mut joins = Vec::new();
    for w in 0..WRITERS {
        let map = Arc::clone(&map);
        let done = done_tx.clone();
        let (park_tx, park_rx) = mpsc::channel::<()>();
        parks.push(park_tx);
        joins.push(std::thread::spawn(move || {
            // Stride by WRITERS so each writer's keys hash across shards:
            // the churn exercises every tree, not one per thread.
            let mut k = w as u64;
            for _ in 0..KEYS_PER_WRITER {
                map.insert_entry(k, k)
                    .expect("writer key sets are disjoint");
                map.remove_key(&k);
                k += WRITERS as u64;
            }
            done.send(()).unwrap();
            // Park forever: this thread never pins again, so its sealed
            // bags are only reachable through the shared registry.
            let _ = park_rx.recv();
        }));
    }
    for _ in 0..WRITERS {
        done_rx.recv().unwrap();
    }

    let during = collector.stats();
    assert!(during.retired > 0, "churn must retire nodes: {during:?}");

    // Every shard saw traffic (FibonacciRoute spreads the strided keys).
    assert!(
        map.shards().iter().all(|s| s.len_slow() == 0),
        "all churned keys were removed"
    );

    // Drop the map while the writers are still parked: shard trees and
    // their collector clones go away; `collector` keeps the domain alive.
    drop(map);

    assert!(
        collector.try_drain(10_000),
        "parked writers' cross-shard garbage was not drained: {:?}",
        collector.stats()
    );
    let stats = collector.stats();

    println!("=== sharded churn ReclaimStats report ===");
    println!(
        "writers: {WRITERS} over {SHARDS} shards ({KEYS_PER_WRITER} insert+remove each, parked)"
    );
    println!("retired:             {}", stats.retired);
    println!("freed:               {}", stats.freed);
    println!("bags published:      {}", stats.bags_published);
    println!("bags stolen:         {}", stats.bags_stolen);
    println!("bags freed:          {}", stats.bags_freed);
    println!("deferred bytes now:  {}", stats.deferred_bytes);
    println!("peak deferred bytes: {}", stats.peak_deferred_bytes);
    println!("=========================================");

    // The teardown contract for sharded frontends (DESIGN.md §11):
    // nothing any shard retired is stranded once the map is gone.
    assert_eq!(stats.retired, stats.freed, "{stats:?}");
    assert_eq!(stats.deferred_bytes, 0, "{stats:?}");
    assert!(stats.peak_deferred_bytes > 0, "{stats:?}");
    assert!(
        stats.bags_stolen > 0,
        "parked writers' bags must drain through the shared registry: {stats:?}"
    );

    for p in &parks {
        p.send(()).unwrap();
    }
    for j in joins {
        j.join().unwrap();
    }
}
