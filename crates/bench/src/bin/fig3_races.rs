//! **F3** — regenerate the paper's Figure 3: the lost-update anomalies of
//! single-CAS tree updates, and the EFRB protocol's immunity to the same
//! schedules.
//!
//! Part 1 drives the deliberately broken [`NaiveBst`] through the two
//! schedules of Figures 3(b) and 3(c) and shows the anomalies. Part 2
//! replays the *same* interleavings against the EFRB tree using the
//! stepped drivers: the flag/mark protocol forces one of the conflicting
//! operations to fail/retry, and no update is lost.

use nbbst_baselines::naive::{CommitOutcome, NaiveBst};
use nbbst_core::raw::{MarkOutcome, RawDelete, RawInsert};
use nbbst_core::NbBst;

// Figure 3 letters as keys: A=10, C=30, E=50, F=60, H=80.
const A: u64 = 10;
const C: u64 = 30;
const E: u64 = 50;
const F: u64 = 60;
const H: u64 = 80;

fn naive_fig3b() {
    println!("--- Figure 3(b) on the naive single-CAS tree ---");
    let t: NaiveBst<u64, u64> = NaiveBst::new();
    for k in [A, C, E, H] {
        t.insert(k, k);
    }
    let del_c = t.prepare_delete(&C).expect("C present");
    let del_e = t.prepare_delete(&E).expect("E present");
    assert!(matches!(del_e.commit(), CommitOutcome::Applied));
    assert!(matches!(del_c.commit(), CommitOutcome::Applied));
    println!(
        "after Delete(C) || Delete(E): contains(E={E}) = {} (expected by Figure 3(b): true — E was LOST-DELETED)",
        t.contains(&E)
    );
    assert!(t.contains(&E), "anomaly must reproduce");
}

fn naive_fig3c() {
    println!("--- Figure 3(c) on the naive single-CAS tree ---");
    let t: NaiveBst<u64, u64> = NaiveBst::new();
    for k in [A, C, E, H] {
        t.insert(k, k);
    }
    let del_e = t.prepare_delete(&E).expect("E present");
    let ins_f = t.prepare_insert(F, F).expect("F absent");
    assert!(matches!(ins_f.commit(), CommitOutcome::Applied));
    assert!(matches!(del_e.commit(), CommitOutcome::Applied));
    println!(
        "after Delete(E) || Insert(F): contains(F={F}) = {} (expected by Figure 3(c): false — F became UNREACHABLE)",
        t.contains(&F)
    );
    assert!(!t.contains(&F), "anomaly must reproduce");
}

fn efrb_fig3b() {
    println!("--- the same Delete(C) || Delete(E) schedule on the EFRB tree ---");
    let t: NbBst<u64, u64> = NbBst::new().one_key_leaves();
    for k in [A, C, E, H] {
        t.insert_entry(k, k).unwrap();
    }
    // Both deletes search against the same initial tree, then Delete(E)
    // runs all its CAS steps first — the schedule of Figure 3(b).
    let mut del_c = RawDelete::new(&t, C);
    let mut del_e = RawDelete::new(&t, E);
    assert!(del_c.search().is_ready());
    assert!(del_e.search().is_ready());
    assert!(del_e.flag());
    assert_eq!(del_e.mark(), MarkOutcome::Marked);
    del_e.execute_child();
    del_e.unflag();

    // Delete(C) proceeds from its STALE search snapshot. The protocol must
    // reject it: either the dflag CAS fails (grandparent word changed) or
    // the mark CAS fails (parent word changed) and the delete backtracks.
    let mut stale_rejections = 0;
    loop {
        if !del_c.flag() {
            stale_rejections += 1;
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
                stale_rejections += 1;
                assert!(del_c.backtrack());
                assert!(del_c.search().is_ready());
            }
        }
    }
    println!(
        "Delete(C)'s stale attempt was rejected {stale_rejections} time(s) before a fresh retry succeeded"
    );
    assert!(
        stale_rejections > 0,
        "the protocol must detect the stale snapshot"
    );
    println!(
        "after both deletes: contains(C)={} contains(E)={} (both false -- no anomaly)",
        t.contains_key(&C),
        t.contains_key(&E)
    );
    assert!(!t.contains_key(&C) && !t.contains_key(&E));
    t.check_invariants().unwrap();
}

fn efrb_fig3c() {
    println!("--- the same Delete(E) || Insert(F) schedule on the EFRB tree ---");
    let t: NbBst<u64, u64> = NbBst::new().one_key_leaves();
    for k in [A, C, E, H] {
        t.insert_entry(k, k).unwrap();
    }
    // Delete(E) flags its grandparent (capturing its pupdate snapshot),
    // then Insert(F) runs to completion on E's parent — exactly the
    // Figure 5 "doomed delete" configuration, which is what prevents the
    // Figure 3(c) lost insert.
    let mut del_e = RawDelete::new(&t, E);
    assert!(del_e.search().is_ready());
    assert!(del_e.flag());

    let mut ins_f = RawInsert::new(&t, F, F);
    assert!(
        ins_f.search().is_ready(),
        "F's parent is not the flagged node here"
    );
    assert!(ins_f.flag());
    assert!(ins_f.execute_child());
    assert!(ins_f.unflag());
    drop(ins_f);

    // The delete's mark CAS must fail — its pupdate snapshot is stale —
    // and the backtrack CAS removes its flag; the retried delete succeeds
    // without touching F.
    assert_eq!(del_e.mark(), MarkOutcome::Failed);
    println!("Delete(E)'s mark CAS failed (pupdate stale) -> backtrack CAS");
    assert!(del_e.backtrack());
    assert!(del_e.search().is_ready());
    assert!(del_e.flag());
    assert_eq!(del_e.mark(), MarkOutcome::Marked);
    del_e.execute_child();
    del_e.unflag();

    println!(
        "after both ops: contains(E)={} contains(F)={} (E deleted, F PRESENT -- no anomaly)",
        t.contains_key(&E),
        t.contains_key(&F)
    );
    assert!(!t.contains_key(&E));
    assert!(t.contains_key(&F), "the EFRB tree must not lose the insert");
    t.check_invariants().unwrap();
}

fn main() {
    nbbst_bench::banner(
        "F3",
        "lost updates under bare CAS vs. EFRB flag/mark protocol",
        "Figure 3 (a)-(c) and Section 3",
    );
    naive_fig3b();
    naive_fig3c();
    efrb_fig3b();
    efrb_fig3c();
    println!("\nF3 reproduced: the naive tree exhibits both anomalies; the EFRB tree rejects both schedules.");
}
