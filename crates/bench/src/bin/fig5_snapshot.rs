//! **F5** — regenerate the paper's Figure 5: a snapshot of the data
//! structure with a doomed `Delete` and a winning `Insert` in flight at
//! the same time.
//!
//! The figure shows leaves A, C, E with internal nodes B, D; a
//! `Delete(C)`... (caption: `Delete(E)`) has DFlagged the upper internal
//! node while an `Insert(F)` has IFlagged the lower one. We reconstruct
//! the same configuration with numeric keys, pause both operations
//! mid-flight, render the tree with its states and Info records, and then
//! play out the paper's prediction: the insert is "now guaranteed to
//! succeed", the delete is "doomed to fail" (its mark CAS fails and it
//! backtracks).

use nbbst_core::raw::Stepper;
use nbbst_core::{NbBst, State};

fn main() {
    nbbst_bench::banner(
        "F5",
        "in-flight Delete + Insert snapshot",
        "Figure 5 and Section 4.1",
    );
    // Leaves A=10, C=30, E=50 (figure letters), internals keyed by
    // insertion order; F=60 is the incoming insert.
    let t: NbBst<u64, u64> = NbBst::new().one_key_leaves();
    for k in [10u64, 30, 50] {
        t.insert_entry(k, k).unwrap();
    }
    println!("initial tree (leaves A=10, C=30, E=50):\n{}", t.render());

    // Delete(E=50) performs its dflag CAS and pauses.
    let mut del = Stepper::delete(&t, 50);
    assert!(del.search().is_ready());
    assert!(del.flag());

    // Insert(F=60) performs its iflag CAS and pauses.
    let mut ins = Stepper::insert(&t, 60, 60);
    assert!(ins.search().is_ready());
    assert!(ins.flag());

    println!("snapshot with both operations in flight (compare Figure 5):");
    println!("{}", t.render());
    let dflagged = t.state_of_internal(&30); // E's grandparent region
    println!(
        "  (one internal shows DFlag with a DInfo record, one shows IFlag with an IInfo record)"
    );
    let _ = dflagged;

    // Paper: "The Insert is now guaranteed to succeed."
    assert!(ins.execute_child());
    assert!(ins.unflag());
    drop(ins);
    println!(
        "Insert(F) completed: contains(60) = {}",
        t.contains_key(&60)
    );
    assert!(t.contains_key(&60));

    // Paper: "The Delete operation is doomed to fail: ... the mark CAS
    // will fail ... the DFlag ... will eventually be removed by a
    // backtrack CAS, and the Delete will try deleting key C again."
    assert!(!del.mark());
    assert!(del.backtrack());
    println!("Delete(E)'s mark CAS failed and its flag was backtracked, as the caption predicts.");

    // Had the delete gone through with its stale plan, F would have been
    // unlinked — "the newly inserted key F would disappear from the tree.
    // Instead," the retry deletes E cleanly and F survives:
    assert!(del.search().is_ready());
    assert!(del.flag());
    assert!(del.mark());
    del.execute_child();
    del.unflag();
    println!("retried Delete(E) succeeded.\nfinal tree:\n{}", t.render());
    assert!(!t.contains_key(&50));
    assert!(t.contains_key(&60));
    t.check_invariants().unwrap();

    // All states must be Clean again.
    for k in [10u64, 30, 60] {
        if let Some(state) = t.state_of_internal(&k) {
            assert_eq!(state, State::Clean);
        }
    }
    println!("F5 reproduced: snapshot, doomed delete, guaranteed insert, backtrack, retry.");
}
