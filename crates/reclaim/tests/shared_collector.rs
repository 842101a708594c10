//! One collector, many owners: the constructor path used by sharded
//! frontends, where every shard holds a clone of a single [`Collector`]
//! so all shards retire into one reclamation domain.
//!
//! What must hold (DESIGN.md §11):
//!
//! * clones share the epoch domain and the evictable-bag registry, so a
//!   thread pinned through *any* clone can steal and free garbage
//!   retired through *every* clone;
//! * dropping all but one clone does **not** tear the domain down —
//!   teardown runs only when the last clone drops;
//! * stats are domain-global: every clone reports the same counters.

use nbbst_reclaim::{Atomic, Collector, Owned};
use std::sync::atomic::Ordering;

/// Retires `n` heap values through `collector`, as one "shard" would.
fn churn_through(collector: &Collector, n: usize) {
    let slot = Atomic::new(0u64);
    for i in 0..n {
        let guard = collector.pin();
        // Acquire: the loaded pointer is retired (and later freed), so the
        // stealing thread must see its initialization.
        let old = slot.load(Ordering::Acquire, &guard);
        slot.compare_exchange(
            old,
            Owned::new(i as u64),
            Ordering::Release,
            Ordering::Relaxed,
            &guard,
        )
        .expect("single-threaded CAS succeeds");
        // SAFETY: `old` was just unlinked by the successful CAS above and
        // is retired exactly once.
        unsafe { guard.defer_destroy(old) };
    }
    let guard = collector.pin();
    let last = slot.load(Ordering::Acquire, &guard);
    // SAFETY: `last` is the only remaining value and is retired once.
    unsafe { guard.defer_destroy(last) };
}

#[test]
fn clones_share_one_domain() {
    let a = Collector::new();
    let b = a.clone();
    let unrelated = Collector::new();
    assert!(a.ptr_eq(&b));
    assert!(b.ptr_eq(&a));
    assert!(!a.ptr_eq(&unrelated));

    churn_through(&a, 100);
    churn_through(&b, 100);
    // Domain-global stats: both clones see all 202 retirements
    // (100 replaced + 1 final per churn).
    assert_eq!(a.stats().retired, b.stats().retired);
    assert_eq!(a.stats().retired, 202);

    assert!(a.try_drain(1_000), "{:?}", a.stats());
    let s = b.stats();
    assert_eq!(s.retired, s.freed, "{s:?}");
    assert_eq!(s.deferred_bytes, 0, "{s:?}");
}

#[test]
fn garbage_from_many_clones_drains_through_one() {
    // N "shards", each a clone, each churned on its own thread; a single
    // surviving clone drains everything the others retired.
    const SHARDS: usize = 8;
    let root = Collector::new();
    let clones: Vec<Collector> = (0..SHARDS).map(|_| root.clone()).collect();

    std::thread::scope(|s| {
        for c in &clones {
            s.spawn(move || churn_through(c, 500));
        }
    });

    // Dropping every per-shard clone must not tear down the domain: the
    // root clone is still live.
    drop(clones);
    let before = root.stats();
    assert_eq!(before.retired, (500 + 1) * SHARDS as u64, "{before:?}");

    assert!(root.try_drain(10_000), "{:?}", root.stats());
    let s = root.stats();
    assert_eq!(s.retired, s.freed, "{s:?}");
    assert_eq!(s.evictable, 0, "{s:?}");
    assert_eq!(s.deferred_bytes, 0, "{s:?}");
    // The per-thread churns handed bags over (full ones to the registry,
    // parked ones to the participant scans); cross-thread frees go through
    // those handoffs.
    assert!(s.bags_published > 0, "{s:?}");
}

#[test]
fn leaky_flag_is_shared_by_clones() {
    let leaky = Collector::new_leaky();
    let clone = leaky.clone();
    assert!(clone.is_leaky());
    churn_through(&clone, 50);
    clone.flush();
    let s = leaky.stats();
    assert_eq!(s.freed, 0, "leaky domains never free: {s:?}");
}
