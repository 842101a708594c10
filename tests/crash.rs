//! T6 integration tests: non-blocking progress with crashed operations
//! stalled at every point of the Figure 4 circuits.

use nbbst::core::raw::{SearchOutcome, Stepper};
use nbbst::{ConcurrentMap, NbBst};

/// Builds a tree with keys 0..n.
fn tree_with_range(n: u64) -> NbBst<u64, u64> {
    let t = NbBst::with_stats().one_key_leaves();
    for k in 0..n {
        t.insert(k, k);
    }
    t
}

#[test]
fn survivors_progress_past_insert_crashed_after_iflag() {
    let t = tree_with_range(8);
    let mut ins = Stepper::insert(&t, 100, 100);
    assert!(ins.search().is_ready());
    assert!(ins.flag());
    ins.abandon();

    // Conflicting updates from several survivor threads all complete.
    std::thread::scope(|s| {
        for tid in 0..4u64 {
            let t = &t;
            s.spawn(move || {
                for i in 0..2_000u64 {
                    let k = (tid * 31 + i) % 16;
                    if i % 2 == 0 {
                        t.insert(k, k);
                    } else {
                        t.remove(&k);
                    }
                }
            });
        }
    });
    // The crashed insert itself was completed by a helper.
    assert!(t.contains_key(&100));
    t.check_invariants().unwrap();
}

#[test]
fn survivors_progress_past_delete_crashed_after_dflag() {
    let t = tree_with_range(8);
    let mut del = Stepper::delete(&t, 3);
    assert_eq!(del.search(), SearchOutcome::Ready);
    assert!(del.flag());
    del.abandon();

    std::thread::scope(|s| {
        for tid in 0..4u64 {
            let t = &t;
            s.spawn(move || {
                for i in 0..2_000u64 {
                    let k = (tid * 13 + i) % 8;
                    if i % 2 == 0 {
                        t.insert(k, k);
                    } else {
                        t.remove(&k);
                    }
                }
            });
        }
    });
    t.check_invariants().unwrap();
    // The crashed delete either completed (helped) or backtracked; either
    // way no flag remains. Its circuit has no owner to count it, so use
    // the abandoned-tolerant identity check.
    t.stats()
        .unwrap()
        .check_figure4_allowing_abandoned()
        .unwrap();
}

#[test]
fn survivors_progress_past_delete_crashed_after_mark() {
    let t = tree_with_range(8);
    let mut del = Stepper::delete(&t, 5);
    assert_eq!(del.search(), SearchOutcome::Ready);
    assert!(del.flag());
    assert!(del.mark());
    del.abandon();

    std::thread::scope(|s| {
        for tid in 0..4u64 {
            let t = &t;
            s.spawn(move || {
                for i in 0..2_000u64 {
                    let k = (tid * 7 + i) % 8;
                    if i % 2 == 0 {
                        t.insert(k, k);
                    } else {
                        t.remove(&k);
                    }
                }
            });
        }
    });
    t.check_invariants().unwrap();
    // A marked deletion is guaranteed to complete via helpers; the
    // structure is consistent and the circuits balanced (the raw driver
    // counted the completion at its mark CAS, so the strict check holds).
    t.stats().unwrap().check_figure4().unwrap();
}

#[test]
fn many_simultaneous_crashes_do_not_block_progress() {
    // Keys 0,10,20,...,310 spread the leaves; planting inserts at
    // 5,15,25,... flags a DIFFERENT parent each time (crashing an insert
    // whose parent is already flagged would just be skipped).
    let t = NbBst::with_stats().one_key_leaves();
    for k in (0..32u64).map(|i| i * 10) {
        t.insert(k, k);
    }
    let mut crashed = Vec::new();
    for i in 0..10u64 {
        let mut ins = Stepper::insert(&t, i * 10 + 5, 0);
        if ins.search().is_ready() && ins.flag() {
            crashed.push(ins);
        }
    }
    let planted = crashed.len();
    assert!(planted >= 5, "most flags should plant: {planted}");
    for ins in crashed {
        ins.abandon();
    }

    // Survivors sweep the whole key space, forcing helps on every flag.
    std::thread::scope(|s| {
        for tid in 0..4u64 {
            let t = &t;
            s.spawn(move || {
                for round in 0..200u64 {
                    for k in (0..32u64).map(|i| i * 10 + 7) {
                        if (round + tid) % 2 == 0 {
                            t.insert(k, k);
                        } else {
                            t.remove(&k);
                        }
                    }
                }
            });
        }
    });
    t.check_invariants().unwrap();
    let stats = t.stats().unwrap();
    assert!(stats.helps > 0, "helping must have fired: {stats:?}");
    // The crashed inserts were counted at their flag CAS; deletes were not
    // crashed, so the strict identities hold.
    stats.check_figure4().unwrap();
}

#[test]
fn blocked_updates_complete_the_blocking_operation_first() {
    // Deterministic single-threaded version: an update that runs into a
    // crashed flag completes that operation before its own.
    let t = tree_with_range(2);
    let mut ins = Stepper::insert(&t, 10, 10);
    assert!(ins.search().is_ready());
    assert!(ins.flag());
    ins.abandon();

    let before = t.stats().unwrap();
    // This insert's search path goes through the flagged parent.
    assert!(t.insert(11, 11));
    let after = t.stats().unwrap();
    assert!(
        after.helps > before.helps,
        "the second insert must have helped"
    );
    assert!(t.contains_key(&10), "the crashed insert was completed");
    assert!(t.contains_key(&11));
    t.check_invariants().unwrap();
}

#[test]
fn leaf_replacement_parked_after_iflag_is_completed_by_a_helper() {
    // On the default tree keys 0..8 share one leaf, so an insert and a
    // delete of those keys each replace that leaf by a copy through the
    // insertion circuit. Park one of each right after its iflag; any later
    // update of the leaf must first finish the parked one.
    for park_delete in [false, true] {
        let t = NbBst::with_stats();
        for k in 0..8u64 {
            t.insert(k, k);
        }
        assert_eq!(t.height(), 2, "one leaf holds all eight keys");
        if park_delete {
            let mut del = Stepper::delete(&t, 3);
            assert_eq!(del.search(), SearchOutcome::Ready);
            assert!(del.flag());
            del.abandon();
        } else {
            let mut ins = Stepper::insert(&t, 100, 100);
            assert!(ins.search().is_ready());
            assert!(ins.flag());
            ins.abandon();
        }
        let before = t.stats().unwrap();
        assert!(t.insert(50, 50), "the survivor's own update completes");
        let after = t.stats().unwrap();
        assert!(after.helps > before.helps, "the survivor helped");
        assert_eq!(t.contains_key(&3), !park_delete);
        assert_eq!(t.contains_key(&100), !park_delete);
        assert!(t.contains_key(&50));
        t.check_invariants().unwrap();
        // The parked operation was counted at its flag CAS.
        after.check_figure4().unwrap();
    }
}
