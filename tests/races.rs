//! F3 integration tests: the Figure 3 schedules — anomalous on the naive
//! single-CAS tree, harmless on the EFRB tree.

use nbbst::baselines::naive::{CommitOutcome, NaiveBst};
use nbbst::core::raw::{MarkOutcome, RawDelete, RawInsert};
use nbbst::NbBst;

const A: u64 = 10;
const C: u64 = 30;
const E: u64 = 50;
const F: u64 = 60;
const H: u64 = 80;

fn naive_with_figure3_keys() -> NaiveBst<u64, u64> {
    let t = NaiveBst::new();
    for k in [A, C, E, H] {
        assert!(t.insert(k, k));
    }
    t
}

fn efrb_with_figure3_keys() -> NbBst<u64, u64> {
    let t = NbBst::with_stats().one_key_leaves();
    for k in [A, C, E, H] {
        t.insert_entry(k, k).unwrap();
    }
    t
}

#[test]
fn figure3b_naive_resurrects_deleted_key() {
    let t = naive_with_figure3_keys();
    let del_c = t.prepare_delete(&C).unwrap();
    let del_e = t.prepare_delete(&E).unwrap();
    assert!(matches!(del_e.commit(), CommitOutcome::Applied));
    assert!(matches!(del_c.commit(), CommitOutcome::Applied));
    assert!(t.contains(&E), "Figure 3(b): E must still be reachable");
    assert!(!t.contains(&C));
}

#[test]
fn figure3c_naive_loses_inserted_key() {
    let t = naive_with_figure3_keys();
    let del_e = t.prepare_delete(&E).unwrap();
    let ins_f = t.prepare_insert(F, F).unwrap();
    assert!(matches!(ins_f.commit(), CommitOutcome::Applied));
    assert!(matches!(del_e.commit(), CommitOutcome::Applied));
    assert!(!t.contains(&F), "Figure 3(c): F must be unreachable");
}

#[test]
fn figure3b_schedule_rejected_by_efrb() {
    let t = efrb_with_figure3_keys();
    let mut del_c = RawDelete::new(&t, C);
    let mut del_e = RawDelete::new(&t, E);
    assert!(del_c.search().is_ready());
    assert!(del_e.search().is_ready());
    // Delete(E) completes first.
    assert!(del_e.flag());
    assert_eq!(del_e.mark(), MarkOutcome::Marked);
    del_e.execute_child();
    del_e.unflag();
    // Delete(C)'s stale attempt must be rejected at least once.
    let mut rejected = 0;
    loop {
        if !del_c.flag() {
            rejected += 1;
            assert!(del_c.search().is_ready());
            continue;
        }
        match del_c.mark() {
            MarkOutcome::Marked => {
                del_c.execute_child();
                del_c.unflag();
                break;
            }
            MarkOutcome::Failed => {
                rejected += 1;
                assert!(del_c.backtrack());
                assert!(del_c.search().is_ready());
            }
        }
    }
    assert!(rejected > 0, "stale snapshot must be rejected");
    assert!(!t.contains_key(&C));
    assert!(!t.contains_key(&E), "no Figure 3(b) resurrection");
    t.check_invariants().unwrap();
    t.stats().unwrap().check_figure4().unwrap();
}

#[test]
fn figure3c_schedule_rejected_by_efrb() {
    let t = efrb_with_figure3_keys();
    let mut del_e = RawDelete::new(&t, E);
    assert!(del_e.search().is_ready());
    assert!(del_e.flag());

    let mut ins_f = RawInsert::new(&t, F, F);
    assert!(ins_f.search().is_ready());
    assert!(ins_f.flag());
    assert!(ins_f.execute_child());
    assert!(ins_f.unflag());
    drop(ins_f);

    // The doomed delete backtracks instead of unlinking F's subtree.
    assert_eq!(del_e.mark(), MarkOutcome::Failed);
    assert!(del_e.backtrack());
    assert!(t.contains_key(&F), "no Figure 3(c) lost insert");
    assert!(
        t.contains_key(&E),
        "the failed delete left the tree unchanged"
    );

    // The retried delete succeeds cleanly.
    assert!(del_e.search().is_ready());
    assert!(del_e.flag());
    assert_eq!(del_e.mark(), MarkOutcome::Marked);
    del_e.execute_child();
    del_e.unflag();
    assert!(!t.contains_key(&E));
    assert!(t.contains_key(&F));
    t.check_invariants().unwrap();
    t.stats().unwrap().check_figure4().unwrap();
}

/// Four threads churn the EFRB tree; afterwards its snapshot and its
/// membership answers agree.
#[test]
fn efrb_snapshot_agrees_with_membership_after_parallel_churn() {
    // Not a deterministic schedule: four threads insert and remove random
    // keys of 0..16 at once, then the quiescent tree must satisfy its
    // invariants, and its snapshot must list exactly the keys `contains_key`
    // reports present.
    let efrb: NbBst<u64, u64> = NbBst::new();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let efrb = &efrb;
            s.spawn(move || {
                let mut x = t + 1;
                for _ in 0..5_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 16;
                    if x & 1 == 0 {
                        use nbbst::ConcurrentMap;
                        efrb.insert(k, k);
                    } else {
                        use nbbst::ConcurrentMap;
                        efrb.remove(&k);
                    }
                }
            });
        }
    });
    efrb.check_invariants().unwrap();
    let snapshot = efrb.keys_snapshot();
    let observed: Vec<u64> = (0..16).filter(|k| efrb.contains_key(k)).collect();
    assert_eq!(snapshot, observed, "snapshot and membership must agree");
}
