//! Cross-thread stress for the epoch collector, plus a behavioural
//! swap workload matching the contract of `crossbeam-epoch` (the reference
//! implementation of the same protocol) on an identical workload.

use nbbst_reclaim::{Atomic, Collector, Owned};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const ORD: Ordering = Ordering::SeqCst;

struct CountDrop(Arc<AtomicUsize>);
impl Drop for CountDrop {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Many threads CAS-swap a shared slot, retiring every displaced value.
/// Every allocation must be freed exactly once by the time the collector
/// quiesces — drop-counting catches both leaks and double frees.
#[test]
fn swap_stress_frees_everything_exactly_once() {
    const THREADS: usize = 8;
    const SWAPS_PER_THREAD: usize = 5_000;
    let drops = Arc::new(AtomicUsize::new(0));
    let collector = Collector::new();
    let slot: Atomic<CountDrop> = Atomic::new(CountDrop(drops.clone()));

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let collector = collector.clone();
            let slot = &slot;
            let drops = drops.clone();
            s.spawn(move || {
                for _ in 0..SWAPS_PER_THREAD {
                    let guard = collector.pin();
                    let mut new = Owned::new(CountDrop(drops.clone()));
                    loop {
                        let cur = slot.load(ORD, &guard);
                        match slot.compare_exchange(cur, new, ORD, ORD, &guard) {
                            Ok(_) => {
                                // SAFETY: we unlinked `cur`; unique retire.
                                unsafe { guard.defer_destroy(cur) };
                                break;
                            }
                            Err(e) => new = e.new,
                        }
                    }
                }
            });
        }
    });

    // Quiesce. (Exited threads hand their garbage over from their TLS
    // destructors, which may land slightly after join; try_drain absorbs
    // that.)
    assert!(
        collector.try_drain(10_000),
        "drain timed out: {:?}",
        collector.stats()
    );
    let total = THREADS * SWAPS_PER_THREAD; // retired; +1 still in the slot
    assert_eq!(drops.load(Ordering::SeqCst), total);
    let stats = collector.stats();
    assert_eq!(stats.retired, total as u64);
    assert_eq!(stats.freed, total as u64);

    // Teardown frees the final resident value.
    // SAFETY: no other threads remain.
    unsafe { drop(slot.into_owned()) };
    assert_eq!(drops.load(Ordering::SeqCst), total + 1);
}

/// No value may be freed while any thread could still read it: readers
/// validate a sentinel in every object they reach.
#[test]
fn readers_never_observe_freed_memory() {
    const WRITER_SWAPS: usize = 20_000;
    struct Sentinel {
        magic: u64,
        payload: Box<u64>,
    }
    let collector = Collector::new();
    let slot: Atomic<Sentinel> = Atomic::new(Sentinel {
        magic: 0xDEAD_BEEF,
        payload: Box::new(0),
    });
    let stop = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..4 {
            let collector = collector.clone();
            let slot = &slot;
            let stop = &stop;
            s.spawn(move || {
                while stop.load(Ordering::SeqCst) == 0 {
                    let guard = collector.pin();
                    let cur = slot.load(ORD, &guard);
                    // SAFETY: loaded under the guard.
                    let r = unsafe { cur.deref() };
                    assert_eq!(r.magic, 0xDEAD_BEEF, "read of freed object");
                    std::hint::black_box(*r.payload);
                }
            });
        }
        {
            let collector = collector.clone();
            let slot = &slot;
            let stop = &stop;
            s.spawn(move || {
                for i in 0..WRITER_SWAPS {
                    let guard = collector.pin();
                    let new = Owned::new(Sentinel {
                        magic: 0xDEAD_BEEF,
                        payload: Box::new(i as u64),
                    });
                    let mut new = Some(new);
                    loop {
                        let cur = slot.load(ORD, &guard);
                        match slot.compare_exchange(
                            cur,
                            new.take().expect("one attempt"),
                            ORD,
                            ORD,
                            &guard,
                        ) {
                            Ok(_) => {
                                // SAFETY: unique unlink.
                                unsafe { guard.defer_destroy(cur) };
                                break;
                            }
                            Err(e) => new = Some(e.new),
                        }
                    }
                }
                stop.store(1, Ordering::SeqCst);
            });
        }
    });
    // SAFETY: teardown.
    unsafe { drop(slot.into_owned()) };
}

/// Writers that retire garbage and then park forever must not strand it:
/// their bags are sealed at unpin (parked in their participant slots, or
/// published to the evictable registry once full), and the main thread —
/// which never retired anything — steals and frees them.
/// Byte accounting is exact here (every retirement is one `CountDrop`), so
/// this also pins down the footprint counters: deferred bytes drain to
/// zero and the peak never exceeds the total ever retired.
#[test]
fn parked_writers_garbage_is_stolen_and_bytes_drain_to_zero() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 2_000;
    let collector = Collector::new();
    let drops = Arc::new(AtomicUsize::new(0));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let mut parks = Vec::new();
    let mut joins = Vec::new();
    for _ in 0..WRITERS {
        let collector = collector.clone();
        let drops = drops.clone();
        let done = done_tx.clone();
        let (park_tx, park_rx) = std::sync::mpsc::channel::<()>();
        parks.push(park_tx);
        joins.push(std::thread::spawn(move || {
            for _ in 0..PER_WRITER {
                let guard = collector.pin();
                let a: Atomic<CountDrop> = Atomic::new(CountDrop(drops.clone()));
                let s = a.load(ORD, &guard);
                // SAFETY: sole owner of the freshly made allocation.
                unsafe { guard.defer_destroy(s) };
            }
            done.send(()).unwrap();
            // Park forever (until teardown): never pin, flush, or exit.
            let _ = park_rx.recv();
        }));
    }
    for _ in 0..WRITERS {
        done_rx.recv().unwrap();
    }

    assert!(
        collector.try_drain(10_000),
        "parked writers' garbage not drained: {:?}",
        collector.stats()
    );
    let stats = collector.stats();
    let total = (WRITERS * PER_WRITER) as u64;
    let item_bytes = std::mem::size_of::<CountDrop>() as u64;
    assert_eq!(drops.load(Ordering::SeqCst) as u64, total);
    assert_eq!(stats.retired, total);
    assert_eq!(stats.freed, total);
    assert_eq!(stats.deferred_bytes, 0);
    assert_eq!(stats.evictable, 0);
    assert!(stats.bags_stolen > 0, "{stats:?}");
    assert!(stats.peak_deferred_bytes >= item_bytes, "{stats:?}");
    assert!(
        stats.peak_deferred_bytes <= total * item_bytes,
        "peak {} exceeds total ever retired {}",
        stats.peak_deferred_bytes,
        total * item_bytes
    );

    for p in &parks {
        p.send(()).unwrap();
    }
    for j in joins {
        j.join().unwrap();
    }
}

/// A multi-thread swap workload frees every retirement at quiescence —
/// the external contract crossbeam-epoch's reference implementation
/// provides. (This began life as a side-by-side parity run against
/// crossbeam itself; the crossbeam half was dropped when dependencies
/// moved to offline in-tree stand-ins. The expected drop count is exact,
/// so the remaining check is equally strong.)
#[test]
fn swap_workload_frees_everything_at_quiescence() {
    const THREADS: usize = 4;
    const SWAPS: usize = 2_000;

    let our_drops = Arc::new(AtomicUsize::new(0));
    {
        let collector = Collector::new();
        let slot: Atomic<CountDrop> = Atomic::new(CountDrop(our_drops.clone()));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let collector = collector.clone();
                let slot = &slot;
                let drops = our_drops.clone();
                s.spawn(move || {
                    for _ in 0..SWAPS {
                        let guard = collector.pin();
                        let mut new = Owned::new(CountDrop(drops.clone()));
                        loop {
                            let cur = slot.load(ORD, &guard);
                            match slot.compare_exchange(cur, new, ORD, ORD, &guard) {
                                Ok(_) => {
                                    unsafe { guard.defer_destroy(cur) };
                                    break;
                                }
                                Err(e) => new = e.new,
                            }
                        }
                    }
                });
            }
        });
        assert!(collector.try_drain(10_000), "drain timed out");
        unsafe { drop(slot.into_owned()) };
    }

    // The collector freed every retired object plus the resident one.
    let expected = THREADS * SWAPS + 1;
    assert_eq!(our_drops.load(Ordering::SeqCst), expected, "nbbst-reclaim");
}
