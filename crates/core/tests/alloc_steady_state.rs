//! Steady-state allocation of the default tree, measured with a counting
//! global allocator.
//!
//! Every update copies a leaf and publishes an Info record, and every
//! retirement ends up in a garbage bag. Reclaimed blocks go to the freeing
//! thread's recycling bins and the next allocation of the same layout is
//! served from there, so once a single-threaded update stream has warmed
//! up it should hardly reach the global allocator at all. The same holds
//! for two writers sharing one collector, because each thread frees its
//! own garbage first and so refills its own bins.

#![cfg(not(loom))]

use nbbst_core::NbBst;
use nbbst_reclaim::{Atomic, Collector};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

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

/// Epoch advances per turn (see [`Turns`]).
const EPOCHS_PER_TURN: u64 = 4;
const WARM_UP_TURNS: usize = 640;
/// Turns measured; about 100,000 insert/remove pairs per writer.
const TURNS: usize = 3_200;

/// Lets writer threads run one at a time, in a fixed rotation, each turn
/// lasting [`EPOCHS_PER_TURN`] epoch advances.
///
/// Writers that run at once stall each other whenever one is descheduled
/// while pinned: the epoch cannot advance, nothing is freed, and the
/// other writer allocates fresh blocks for the rest of the time slice, so
/// how much it allocates is up to the host's scheduler. A writer waiting
/// for its turn holds no pin, so taking turns makes the counts depend on
/// the code alone. Each writer's housekeeping still sees the other's bags:
/// a writer is away long enough for its bags to pass `seal + 2`, where
/// another thread could free them, and comes back soon enough to free
/// them itself.
struct Turns {
    writers: usize,
    /// The writer whose turn it is, or [`Turns::ABANDONED`].
    next: AtomicUsize,
}

impl Turns {
    const ABANDONED: usize = usize::MAX;

    fn new(writers: usize) -> Turns {
        Turns {
            writers,
            next: AtomicUsize::new(0),
        }
    }

    /// Waits for writer `me`'s turn, runs `step`, and hands the turn on;
    /// if `step` panics, the waiting writers panic too instead of hanging.
    fn take<R>(&self, me: usize, step: impl FnOnce() -> R) -> R {
        struct HandOn<'a>(&'a Turns, usize);
        impl Drop for HandOn<'_> {
            fn drop(&mut self) {
                let next = if std::thread::panicking() {
                    Turns::ABANDONED
                } else {
                    (self.1 + 1) % self.0.writers
                };
                self.0.next.store(next, Ordering::Release);
            }
        }
        loop {
            match self.next.load(Ordering::Acquire) {
                n if n == me => break,
                Turns::ABANDONED => panic!("another writer panicked"),
                _ => std::thread::yield_now(),
            }
        }
        let _hand_on = HandOn(self, me);
        step()
    }
}

/// What one writer's measured turns cost.
#[derive(Default)]
struct Cost {
    updates: u64,
    /// Global allocations made by the writer's thread.
    allocs: u64,
    /// Bags freed during the writer's turns, and how many of them by a
    /// thread other than the one that retired their contents.
    bags_freed: u64,
    bags_stolen: u64,
}

/// Writer `me`'s part: builds a tree on `collector` and prefills it with
/// the even keys, warms it up with insert/remove pairs of odd keys for
/// `WARM_UP_TURNS` turns, and returns the cost of `TURNS` more. Between
/// the insert and the remove of a pair it looks up `lookups` even keys.
fn warm_pairs_in_turns(
    collector: &Collector,
    (seed, lookups): (u64, u64),
    turns: &Turns,
    me: usize,
) -> Cost {
    let tree = turns.take(me, || {
        let tree: NbBst<u64, u64> = NbBst::with_collector(collector.clone());
        for k in (0..8_192).step_by(2) {
            tree.insert_entry(k, k).unwrap();
        }
        tree
    });
    let epoch = || collector.stats().global_epoch;
    // Insert/remove pairs until the epoch has advanced `EPOCHS_PER_TURN`;
    // returns how many.
    let pairs_for_a_turn = |keys: &mut dyn Iterator<Item = u64>| {
        let end = epoch() + EPOCHS_PER_TURN;
        let mut pairs = 0;
        while epoch() < end {
            assert!(pairs < 10_000, "the epoch stopped advancing");
            let k = keys.next().unwrap();
            tree.insert_entry(k, k).unwrap();
            for i in 0..lookups {
                assert!(tree.contains_key(&((k + 2 * i) % 8_192 - 1)));
            }
            assert!(tree.remove_key(&k));
            pairs += 1;
        }
        pairs
    };
    let mut warm_up = odd_keys(seed);
    for _ in 0..WARM_UP_TURNS {
        turns.take(me, || pairs_for_a_turn(&mut warm_up));
    }
    let mut keys = odd_keys(seed + 1);
    let mut cost = Cost::default();
    for _ in 0..TURNS {
        turns.take(me, || {
            let (allocs, before) = (allocs_on_this_thread(), collector.stats());
            let pairs = pairs_for_a_turn(&mut keys);
            let after = collector.stats();
            cost.updates += 2 * pairs;
            cost.allocs += allocs_on_this_thread() - allocs;
            cost.bags_freed += after.bags_freed - before.bags_freed;
            cost.bags_stolen += after.bags_stolen - before.bags_stolen;
        });
    }
    cost
}

fn assert_at_most_one_per_32_updates(cost: &Cost, who: &str) {
    let Cost {
        allocs, updates, ..
    } = *cost;
    assert!(
        allocs * 32 <= updates,
        "{who}: {allocs} global allocations for {updates} updates (limit: 1 per 32)"
    );
}

#[test]
fn insert_remove_pairs_hardly_allocate_after_warm_up() {
    let cost = warm_pairs_in_turns(&Collector::new(), (1, 0), &Turns::new(1), 0);
    println!(
        "{} global allocations for {} updates",
        cost.allocs, cost.updates
    );
    assert_at_most_one_per_32_updates(&cost, "one writer");
}

/// Two threads, each the sole writer of its own tree, share one collector
/// (as the shards of a `ShardedNbBst` do). Each thread's housekeeping
/// also sees the other's bags; if it freed them, blocks would move into
/// the wrong thread's bins. Writer 1 also looks up keys between its
/// updates, so it retires less per epoch than writer 0: blocks that it
/// freed for writer 0 would overflow its own bins, and writer 0 would go
/// back to the global allocator for them.
#[test]
fn two_writers_on_one_collector_hardly_allocate_after_warm_up() {
    let collector = Collector::new();
    let turns = Turns::new(2);
    let costs: Vec<Cost> = std::thread::scope(|s| {
        let writers: Vec<_> = [(1, 0), (11, 7)]
            .into_iter()
            .enumerate()
            .map(|(me, work)| {
                let (collector, turns) = (&collector, &turns);
                s.spawn(move || warm_pairs_in_turns(collector, work, turns, me))
            })
            .collect();
        writers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (i, c) in costs.iter().enumerate() {
        println!(
            "writer {i}: {} global allocations for {} updates",
            c.allocs, c.updates
        );
    }
    let (freed, stolen) = costs
        .iter()
        .fold((0, 0), |(f, s), c| (f + c.bags_freed, s + c.bags_stolen));
    println!("{stolen} of {freed} bags freed by the other writer");
    for (i, cost) in costs.iter().enumerate() {
        assert_at_most_one_per_32_updates(cost, &format!("writer {i}"));
    }
    // The cause, seen directly: each writer frees its own bags.
    assert!(
        stolen * 32 <= freed,
        "{stolen} of {freed} bags freed by the other writer (limit: 1 in 32)"
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
