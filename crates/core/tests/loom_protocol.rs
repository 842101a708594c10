//! Exhaustive model-checking of the EFRB flag/mark protocol.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p nbbst-core --test loom_protocol --release
//! ```
//!
//! Under `--cfg loom`, every atomic in `nbbst-reclaim` (and therefore every
//! update-word / child-pointer CAS in this crate, plus the epoch machinery
//! underneath) becomes a scheduling point, and `loom::model` enumerates
//! thread interleavings depth-first with CHESS-style preemption bounding.
//! Each scenario asserts, **in every explored execution**:
//!
//! * the dictionary semantics of the final state,
//! * the paper's Figure 4 CAS-counter identities (each iflag has exactly
//!   one ichild and one iunflag; each dflag exactly one mark + dchild +
//!   dunflag or one backtrack), and
//! * a value-drop balance after the tree and its collector are torn down
//!   (no leak, no double-free).
//!
//! The scenarios deliberately build *tiny* trees (one to three keys) so the
//! schedule space stays exhaustively explorable: each CAS contention
//! window of the protocol appears within the first few levels of the tree.

#![cfg(loom)]

use nbbst_core::NbBst;
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::sync::Arc;

/// A value that tracks clones minus drops in a shared counter: if the tree
/// leaks a leaf, the balance stays positive; if it double-frees one, the
/// balance goes negative (or the run crashes outright under the checker).
#[derive(Debug)]
struct Token {
    live: Arc<AtomicIsize>,
}

impl Token {
    fn new(live: &Arc<AtomicIsize>) -> Token {
        live.fetch_add(1, Ordering::Relaxed);
        Token {
            live: Arc::clone(live),
        }
    }
}

impl Clone for Token {
    fn clone(&self) -> Token {
        self.live.fetch_add(1, Ordering::Relaxed);
        Token {
            live: Arc::clone(&self.live),
        }
    }
}

impl Drop for Token {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Scenario 1 — **insert/insert on one leaf** (the iflag contention
/// window). On the two-sentinel initial tree both inserts race to flag
/// the same parent: one wins the iflag CAS, the loser helps and retries.
#[test]
fn insert_insert_same_leaf() {
    loom::model(|| {
        let live = Arc::new(AtomicIsize::new(0));
        {
            let tree = Arc::new(NbBst::<u64, Token>::with_stats().one_key_leaves());
            let handles: Vec<_> = [1u64, 2]
                .into_iter()
                .map(|k| {
                    let tree = Arc::clone(&tree);
                    let live = Arc::clone(&live);
                    loom::thread::spawn(move || {
                        tree.insert_entry(k, Token::new(&live))
                            .unwrap_or_else(|_| panic!("insert {k} on fresh key failed"));
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert!(tree.contains_key(&1) && tree.contains_key(&2));
            tree.stats()
                .expect("stats enabled")
                .check_figure4()
                .expect("Figure 4 identities");
        }
        assert_eq!(
            live.load(Ordering::Relaxed),
            0,
            "value leak or double-free after teardown"
        );
    });
}

/// Scenario 2 — **delete/insert on adjacent nodes**: the deletion of key 1
/// (grandparent dflag + parent mark) races an insert of key 3 arriving in
/// the same corner of the tree, covering the dflag-vs-iflag and
/// mark-vs-ichild contention windows.
#[test]
fn delete_insert_adjacent() {
    loom::model(|| {
        let live = Arc::new(AtomicIsize::new(0));
        {
            let tree = Arc::new(NbBst::<u64, Token>::with_stats().one_key_leaves());
            tree.insert_entry(1, Token::new(&live)).unwrap();
            tree.insert_entry(2, Token::new(&live)).unwrap();

            let deleter = {
                let tree = Arc::clone(&tree);
                loom::thread::spawn(move || {
                    assert!(tree.remove_key(&1), "1 was inserted before the race");
                })
            };
            let inserter = {
                let tree = Arc::clone(&tree);
                let live = Arc::clone(&live);
                loom::thread::spawn(move || {
                    tree.insert_entry(3, Token::new(&live))
                        .unwrap_or_else(|_| panic!("insert 3 on fresh key failed"));
                })
            };
            deleter.join().unwrap();
            inserter.join().unwrap();

            assert!(!tree.contains_key(&1), "deleted key resurfaced");
            assert!(tree.contains_key(&2) && tree.contains_key(&3));
            tree.stats()
                .expect("stats enabled")
                .check_figure4()
                .expect("Figure 4 identities");
        }
        assert_eq!(
            live.load(Ordering::Relaxed),
            0,
            "value leak or double-free after teardown"
        );
    });
}

/// Scenario 3 — **mark fails → backtrack**: delete(1) must dflag the
/// grandparent and then mark the parent, while insert(2) races to iflag
/// that same parent. When the insert's flag lands between the deleter's
/// search and its mark CAS, the mark fails and the deleter must backtrack
/// (remove its own dflag) and retry — the paper's line 98 edge. The
/// aggregate assertion proves the exploration actually reached it.
#[test]
fn mark_fails_then_backtracks() {
    let backtracks = Arc::new(AtomicU64::new(0));
    let agg = Arc::clone(&backtracks);
    loom::model(move || {
        let live = Arc::new(AtomicIsize::new(0));
        {
            let tree = Arc::new(NbBst::<u64, Token>::with_stats().one_key_leaves());
            tree.insert_entry(1, Token::new(&live)).unwrap();

            let deleter = {
                let tree = Arc::clone(&tree);
                loom::thread::spawn(move || {
                    assert!(tree.remove_key(&1), "1 was inserted before the race");
                })
            };
            let inserter = {
                let tree = Arc::clone(&tree);
                let live = Arc::clone(&live);
                loom::thread::spawn(move || {
                    tree.insert_entry(2, Token::new(&live))
                        .unwrap_or_else(|_| panic!("insert 2 on fresh key failed"));
                })
            };
            deleter.join().unwrap();
            inserter.join().unwrap();

            assert!(!tree.contains_key(&1), "deleted key resurfaced");
            assert!(tree.contains_key(&2), "inserted key lost");
            let stats = tree.stats().expect("stats enabled");
            stats.check_figure4().expect("Figure 4 identities");
            agg.fetch_add(stats.backtrack_success, Ordering::Relaxed);
        }
        assert_eq!(
            live.load(Ordering::Relaxed),
            0,
            "value leak or double-free after teardown"
        );
    });
    assert!(
        backtracks.load(Ordering::Relaxed) > 0,
        "no explored execution exercised the backtrack CAS; \
         the mark-failure window was never scheduled"
    );
}

/// Scenario 4 — **helper completes a crashed delete**: the root model
/// thread steps a delete of key 1 (`raw::Stepper`) through dflag + mark
/// and then *crashes* (abandons it, leaving the grandparent flagged and
/// the parent permanently marked). A second thread inserts key 2 into the same
/// corner: its search runs into the stale flag, reads the published DInfo,
/// and must complete the stranded deletion (dchild + dunflag) before its
/// own insert can proceed — the paper's core non-blocking claim.
#[test]
fn helper_completes_crashed_delete() {
    loom::model(|| {
        let live = Arc::new(AtomicIsize::new(0));
        {
            let tree = Arc::new(NbBst::<u64, Token>::with_stats().one_key_leaves());
            tree.insert_entry(1, Token::new(&live)).unwrap();

            {
                // Crash a delete mid-protocol: flagged + marked, child CAS
                // and unflag left for helpers.
                let mut del = nbbst_core::raw::Stepper::delete(&tree, 1);
                assert!(del.search().is_ready(), "key 1 is present");
                assert!(del.flag(), "no contention yet: dflag must win");
                assert!(del.mark());
                del.abandon();
            }

            let helper = {
                let tree = Arc::clone(&tree);
                let live = Arc::clone(&live);
                loom::thread::spawn(move || {
                    tree.insert_entry(2, Token::new(&live))
                        .unwrap_or_else(|_| panic!("insert 2 on fresh key failed"));
                })
            };
            helper.join().unwrap();

            assert!(
                !tree.contains_key(&1),
                "marked delete must be completed by the helper"
            );
            assert!(tree.contains_key(&2), "helper's own insert lost");
            // The abandoned driver never ran its own dchild/dunflag, so the
            // strict identities hold only up to abandonment.
            tree.stats()
                .expect("stats enabled")
                .check_figure4_allowing_abandoned()
                .expect("Figure 4 identities (crashed-delete variant)");
        }
        assert_eq!(
            live.load(Ordering::Relaxed),
            0,
            "value leak or double-free after teardown"
        );
    });
}

/// Scenario 5 — **delete/delete on sibling leaves**: both deleters target
/// leaves sharing one parent, so their dflag CASes contend on the same
/// grandparent *and* their marks on the same parent; one must observe the
/// other's flag and help it before retrying.
#[test]
fn delete_delete_sibling_leaves() {
    loom::model(|| {
        let live = Arc::new(AtomicIsize::new(0));
        {
            let tree = Arc::new(NbBst::<u64, Token>::with_stats().one_key_leaves());
            tree.insert_entry(1, Token::new(&live)).unwrap();
            tree.insert_entry(2, Token::new(&live)).unwrap();

            let handles: Vec<_> = [1u64, 2]
                .into_iter()
                .map(|k| {
                    let tree = Arc::clone(&tree);
                    loom::thread::spawn(move || {
                        assert!(tree.remove_key(&k), "{k} was inserted before the race");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }

            assert!(!tree.contains_key(&1) && !tree.contains_key(&2));
            tree.stats()
                .expect("stats enabled")
                .check_figure4()
                .expect("Figure 4 identities");
        }
        assert_eq!(
            live.load(Ordering::Relaxed),
            0,
            "value leak or double-free after teardown"
        );
    });
}

/// Scenario 6 — **three-thread insert + delete + helper**: a delete of
/// key 1 is stranded mid-protocol (dflag + mark, then abandoned), and
/// *three* threads then work the tree at once: one inserts key 3, one
/// deletes key 2, and one re-attempts `remove_key(&1)`. The re-attempt can
/// never win its own dflag — the grandparent is already flagged and the
/// parent permanently marked — so in every schedule it must finish the
/// stranded DInfo (dchild + dunflag) and then report the key absent, while
/// the insert and the sibling delete contend with that helping in the same
/// corner of the tree. This is the smallest scenario where helping, a
/// fresh insert, and a fresh delete are all simultaneously in flight.
#[test]
fn three_threads_insert_delete_helper() {
    loom::model(|| {
        let live = Arc::new(AtomicIsize::new(0));
        {
            let tree = Arc::new(NbBst::<u64, Token>::with_stats().one_key_leaves());
            tree.insert_entry(1, Token::new(&live)).unwrap();
            tree.insert_entry(2, Token::new(&live)).unwrap();

            {
                // Strand a delete of key 1: flagged + marked, child CAS and
                // unflag left for whichever thread reaches the corner first.
                let mut del = nbbst_core::raw::Stepper::delete(&tree, 1);
                assert!(del.search().is_ready(), "key 1 is present");
                assert!(del.flag(), "no contention yet: dflag must win");
                assert!(del.mark());
                del.abandon();
            }

            let inserter = {
                let tree = Arc::clone(&tree);
                let live = Arc::clone(&live);
                loom::thread::spawn(move || {
                    tree.insert_entry(3, Token::new(&live))
                        .unwrap_or_else(|_| panic!("insert 3 on fresh key failed"));
                })
            };
            let deleter = {
                let tree = Arc::clone(&tree);
                loom::thread::spawn(move || {
                    assert!(tree.remove_key(&2), "2 was inserted before the race");
                })
            };
            let helper = {
                let tree = Arc::clone(&tree);
                loom::thread::spawn(move || {
                    assert!(
                        !tree.remove_key(&1),
                        "the stranded delete owns key 1: the re-attempt may only \
                         help it, never delete the leaf a second time"
                    );
                })
            };
            inserter.join().unwrap();
            deleter.join().unwrap();
            helper.join().unwrap();

            assert!(!tree.contains_key(&1), "stranded delete never completed");
            assert!(!tree.contains_key(&2), "deleted key resurfaced");
            assert!(tree.contains_key(&3), "inserted key lost");
            // The abandoned driver never ran its own dchild/dunflag, so the
            // strict identities hold only up to abandonment.
            tree.stats()
                .expect("stats enabled")
                .check_figure4_allowing_abandoned()
                .expect("Figure 4 identities (three-thread variant)");
        }
        assert_eq!(
            live.load(Ordering::Relaxed),
            0,
            "value leak or double-free after teardown"
        );
    });
}

/// Scenario 7 — **bag steal vs concurrent pin** (the evictable-bag
/// registry; DESIGN.md §10), run directly on the reclaim layer so the
/// schedule space stays small. The writer pins, forces an epoch advance
/// *while still pinned* (so its pin epoch trails the global epoch — the
/// seal-epoch off-by-one window), unlinks the payload, retires it, and
/// unpins — sealing its bag and parking it in its participant slot — then
/// flushes three times, each flush trying to steal and free the bag. The reader pins
/// concurrently; if it observed the payload before the unlink, its pin
/// epoch is at least the bag's seal epoch, and no steal may free the bag
/// until it unpins: the canary deref after a yield stays valid in every
/// interleaving, and the drop balance ends at zero. (Sealing bags with the
/// writer's *pin* epoch instead of the fenced global epoch fails exactly
/// here: the reader pins one epoch ahead, the bag seals one epoch behind,
/// and a flush frees it mid-deref.)
#[test]
fn bag_steal_vs_concurrent_pin() {
    use nbbst_reclaim::{Atomic, Collector, Shared};

    const CANARY: u64 = 0x5EA1_BA65;
    struct Payload {
        canary: u64,
        _token: Token,
    }

    loom::model(|| {
        let live = Arc::new(AtomicIsize::new(0));
        {
            let collector = Arc::new(Collector::new());
            let slot = Arc::new(Atomic::new(Payload {
                canary: CANARY,
                _token: Token::new(&live),
            }));

            let reader = {
                let collector = Arc::clone(&collector);
                let slot = Arc::clone(&slot);
                loom::thread::spawn(move || {
                    let guard = collector.pin();
                    let s = slot.load(Ordering::Acquire, &guard);
                    if !s.is_null() {
                        // We pinned before observing the pointer, so the
                        // epoch protocol must keep the payload alive until
                        // this guard drops — across any number of steals.
                        loom::thread::yield_now();
                        // SAFETY: loaded under our own (still-held) pin.
                        let p = unsafe { s.deref() };
                        assert_eq!(
                            p.canary, CANARY,
                            "bag freed while its epoch was still protected"
                        );
                    }
                })
            };
            let writer = {
                let collector = Arc::clone(&collector);
                let slot = Arc::clone(&slot);
                loom::thread::spawn(move || {
                    {
                        let guard = collector.pin();
                        // Advance the global epoch while pinned: our pin
                        // epoch now trails it, so a bag sealed with the pin
                        // epoch (the historical bug) would free one epoch
                        // too early for a reader pinned at the new epoch.
                        collector.flush();
                        let cur = slot.load(Ordering::Acquire, &guard);
                        slot.compare_exchange(
                            cur,
                            Shared::null(),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                            &guard,
                        )
                        .expect("only this thread writes the slot");
                        // SAFETY: the CAS above unlinked `cur`; sole retire.
                        unsafe { guard.defer_destroy(cur) };
                        // Unpin: seals the bag with the fenced global epoch
                        // and parks it in the participant slot.
                    }
                    // Each flush may advance the epoch, steal the registry,
                    // and free expired bags — legal only once the reader's
                    // pin can no longer sit at the bag's seal epoch.
                    collector.flush();
                    collector.flush();
                    collector.flush();
                })
            };
            reader.join().unwrap();
            writer.join().unwrap();
            // Teardown: the slot is null (payload retired); the collector
            // drop drains the registry through the same steal path.
        }
        assert_eq!(
            live.load(Ordering::Relaxed),
            0,
            "value leak or double-free after teardown"
        );
    });
}

/// Scenario 8 — **concurrent steals free exactly once**: two threads race
/// `flush` against a registry holding a published bag while a third
/// publishes another. Each retiring pin fills a whole bag, which is what
/// sends a bag to the registry rather than to the retirer's slot. The
/// whole-chain `swap` hands each stealer a disjoint chain, so no bag can be
/// freed twice and none can be lost: the drop balance ends at zero in
/// every interleaving.
#[test]
fn concurrent_steals_free_exactly_once() {
    use nbbst_reclaim::{Collector, Guard, Owned};

    /// `MAX_ITEMS_PER_BAG` in `nbbst-reclaim`: the retirement that fills
    /// the open bag publishes it.
    const FULL_BAG: usize = 64;

    /// Retires a full bag of fresh tokens. `into_shared` takes no
    /// scheduling point, so the bag costs the model only its publication.
    fn retire_full_bag(guard: &Guard, live: &Arc<AtomicIsize>) {
        for _ in 0..FULL_BAG {
            let s = Owned::new(Token::new(live)).into_shared(guard);
            // SAFETY: never linked anywhere; sole retire.
            unsafe { guard.defer_destroy(s) };
        }
    }

    loom::model(|| {
        let live = Arc::new(AtomicIsize::new(0));
        {
            let collector = Arc::new(Collector::new());
            // Publish one bag up front so both stealers have something to
            // race for even if the publisher thread runs last.
            retire_full_bag(&collector.pin(), &live);

            let publisher = {
                let collector = Arc::clone(&collector);
                let live = Arc::clone(&live);
                loom::thread::spawn(move || retire_full_bag(&collector.pin(), &live))
            };
            let stealers: Vec<_> = (0..2)
                .map(|_| {
                    let collector = Arc::clone(&collector);
                    loom::thread::spawn(move || {
                        collector.flush();
                        collector.flush();
                    })
                })
                .collect();
            publisher.join().unwrap();
            for s in stealers {
                s.join().unwrap();
            }
            // Collector teardown steals whatever survived the races.
        }
        assert_eq!(
            live.load(Ordering::Relaxed),
            0,
            "a bag was lost or freed twice by racing stealers"
        );
    });
}

/// Scenario 9 — **owner retakes its parked bag while a stealer drains
/// it** (the participant slot; DESIGN.md §10). The owner keeps one
/// registration, unlinks and retires payload A under one pin (the unpin
/// seals and parks the bag in its slot), flushes twice so the bag can
/// expire, then unlinks and retires payload B under a second pin, whose
/// first retirement takes the parked bag back unless a collection pass
/// took it first. The other thread pins, loads A,
/// flushes twice while still pinned and dereferences A, then unpins and
/// flushes three more times; each flush's participant scan may steal the
/// parked bag. In every interleaving the swap gives the bag one owner, so
/// each payload is freed exactly once (the drop balance ends at zero), and
/// never while the reader that loaded it before the unlink is pinned (the
/// canary holds).
#[test]
fn owner_retakes_parked_bag_while_stealer_drains() {
    use nbbst_reclaim::{Atomic, Collector, Shared};

    const CANARY: u64 = 0x5107_BA65;
    struct Payload {
        canary: u64,
        _token: Token,
    }

    fn unlink_and_retire(slot: &Atomic<Payload>, guard: &nbbst_reclaim::Guard) {
        let cur = slot.load(Ordering::Acquire, guard);
        slot.compare_exchange(
            cur,
            Shared::null(),
            Ordering::AcqRel,
            Ordering::Acquire,
            guard,
        )
        .expect("only the owner writes the slots");
        // SAFETY: the CAS above unlinked `cur`; sole retire.
        unsafe { guard.defer_destroy(cur) };
    }

    loom::model(|| {
        let live = Arc::new(AtomicIsize::new(0));
        {
            let collector = Arc::new(Collector::new());
            let payload = || {
                Atomic::new(Payload {
                    canary: CANARY,
                    _token: Token::new(&live),
                })
            };
            let a = Arc::new(payload());
            let b = Arc::new(payload());

            let owner = {
                let collector = Arc::clone(&collector);
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                loom::thread::spawn(move || {
                    let handle = collector.register();
                    // Unpin seals the bag holding A and parks it.
                    unlink_and_retire(&a, &handle.pin());
                    // Two advances (unless the stealer's pin holds the
                    // epoch back) expire the parked bag.
                    collector.flush();
                    collector.flush();
                    // The first retirement under this pin takes the parked
                    // bag back, racing the stealer's swap.
                    unlink_and_retire(&b, &handle.pin());
                })
            };
            let stealer = {
                let collector = Arc::clone(&collector);
                let a = Arc::clone(&a);
                loom::thread::spawn(move || {
                    {
                        let guard = collector.pin();
                        let s = a.load(Ordering::Acquire, &guard);
                        collector.flush();
                        collector.flush();
                        if !s.is_null() {
                            // SAFETY: loaded under our own (still-held) pin.
                            let p = unsafe { s.deref() };
                            assert_eq!(
                                p.canary, CANARY,
                                "parked bag freed while its epoch was still protected"
                            );
                        }
                    }
                    collector.flush();
                    collector.flush();
                    collector.flush();
                })
            };
            owner.join().unwrap();
            stealer.join().unwrap();
            // Teardown: both slots are null (payloads retired); the
            // collector drop and the participant records free the rest.
        }
        assert_eq!(
            live.load(Ordering::Relaxed),
            0,
            "a retired payload was lost or freed twice"
        );
    });
}

/// Runs `a` and `b` on two loom threads over a default (multi-entry
/// leaf) tree prefilled with `keys`, then checks the final keys, the
/// strict Figure 4 identities and the drop balance.
fn fat_leaf_race(
    keys: &[u64],
    a: fn(&NbBst<u64, Token>, &Arc<AtomicIsize>),
    b: fn(&NbBst<u64, Token>, &Arc<AtomicIsize>),
    expect: &[u64],
) {
    let keys = keys.to_vec();
    let expect = expect.to_vec();
    loom::model(move || {
        let live = Arc::new(AtomicIsize::new(0));
        {
            let tree = Arc::new(NbBst::<u64, Token>::with_stats());
            for &k in &keys {
                tree.insert_entry(k, Token::new(&live)).unwrap();
            }
            let handles: Vec<_> = [a, b]
                .into_iter()
                .map(|op| {
                    let tree = Arc::clone(&tree);
                    let live = Arc::clone(&live);
                    loom::thread::spawn(move || op(&tree, &live))
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(tree.keys_snapshot(), expect);
            tree.check_invariants().unwrap();
            let stats = tree.stats().expect("stats enabled");
            stats.check_figure4().expect("Figure 4 identities");
            assert_eq!(stats.deletes_by_copy, 1, "{stats:?}");
        }
        assert_eq!(
            live.load(Ordering::Relaxed),
            0,
            "value leak or double-free after teardown"
        );
    });
}

/// Scenario 10 — **two copies of one leaf**: on the default tree keys 1
/// and 3 share a leaf; inserting 2 and deleting 3 each build a copy of it
/// and race to flag its parent. One iflag wins, the loser helps, rebuilds
/// its copy from the winner's leaf and retries, so neither edit is lost.
#[test]
fn insert_vs_delete_copy_same_leaf() {
    fat_leaf_race(
        &[1, 3],
        |t, live| t.insert_entry(2, Token::new(live)).unwrap(),
        |t, _| assert!(t.remove_key(&3)),
        &[1, 2],
    );
}

/// Scenario 11 — **a split racing a copy**: a full leaf (capacity keys)
/// receives an insert that splits it into an internal node over two half
/// leaves while a delete replaces the same leaf by a smaller copy. If the
/// delete wins, the insert finds room and copies instead of splitting.
#[test]
fn split_vs_delete_copy_same_leaf() {
    let cap = NbBst::<u64, u64>::new().leaf_capacity() as u64;
    let keys: Vec<u64> = (0..cap).collect();
    let expect: Vec<u64> = (1..=cap).collect();
    fat_leaf_race(
        &keys,
        |t, live| {
            let cap = t.leaf_capacity() as u64;
            t.insert_entry(cap, Token::new(live)).unwrap();
        },
        |t, _| assert!(t.remove_key(&0)),
        &expect,
    );
}
