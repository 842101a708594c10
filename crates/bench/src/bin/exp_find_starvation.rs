//! **T7** — the adversarial schedule of Section 6: `Find` is not
//! wait-free.
//!
//! "Starting from an empty tree, one process inserts keys 1, 2 and 3 and
//! then starts a Find(2) that reaches the internal node with key 2. A
//! second process then deletes 1, re-inserts 1, deletes 3 and re-inserts
//! 3. Then, the first process advances two steps down the tree, again
//! reaching an internal node with key 2. This can be repeated ad
//! infinitum."
//!
//! We drive exactly that schedule with the stepped `RawFind` driver and
//! count how many edges the Find traverses without ever completing —
//! demonstrating non-wait-freedom — then stop the adversary and show the
//! Find completes immediately (lock-freedom: *system-wide* progress was
//! never lost; the adversary's updates completed the whole time).

use nbbst_core::raw::RawFind;
use nbbst_core::NbBst;
use nbbst_harness::Table;

fn main() {
    let args = nbbst_bench::ExpArgs::parse(0);
    let rounds = args.key_range.unwrap_or(10_000); // reuse the knob as round count
    nbbst_bench::banner(
        "T7",
        "adversarial Find starvation",
        "Section 6, paragraph 2 (Find is lock-free but not wait-free)",
    );

    let tree: NbBst<u64, u64> = NbBst::new().one_key_leaves();
    for k in [1u64, 2, 3] {
        tree.insert_entry(k, k).unwrap();
    }

    // The Find(2) starts walking and pauses at the internal node keyed 2.
    let mut find = RawFind::new(&tree, 2);
    let mut at_leaf = false;
    while !at_leaf && !find.at_internal_keyed(&2) {
        at_leaf = find.step();
    }
    assert!(
        find.at_internal_keyed(&2),
        "schedule setup: reach internal 2"
    );

    let mut adversary_updates = 0u64;
    let mut rounds_done = 0u64;
    for _ in 0..rounds {
        // Adversary: delete 1, re-insert 1, delete 3, re-insert 3. Each
        // re-insert replaces a leaf *below* the internal node keyed 2 on
        // the Find's path, adding two edges the Find must descend.
        assert!(tree.remove_key(&1));
        tree.insert_entry(1, 1).unwrap();
        assert!(tree.remove_key(&3));
        tree.insert_entry(3, 3).unwrap();
        adversary_updates += 4;

        // The Find takes two steps — and lands on an internal node keyed 2
        // again, no closer to a leaf.
        let mut done = find.step();
        if !done {
            done = find.step();
        }
        if done {
            break;
        }
        rounds_done += 1;
        if !find.at_internal_keyed(&2) {
            // The schedule depends on tree shape details; as long as the
            // Find is still above a leaf the starvation continues.
            continue;
        }
    }

    let mut table = Table::new(&["metric", "value"]);
    table.row_owned(vec!["adversary rounds".into(), rounds_done.to_string()]);
    table.row_owned(vec![
        "adversary updates completed".into(),
        adversary_updates.to_string(),
    ]);
    table.row_owned(vec![
        "Find(2) edges traversed".into(),
        find.steps_taken().to_string(),
    ]);
    table.row_owned(vec![
        "Find(2) completed?".into(),
        find.result().is_some().to_string(),
    ]);
    println!("{table}");

    assert!(
        find.result().is_none(),
        "the Find must still be in flight after {rounds_done} adversary rounds"
    );
    assert!(
        find.steps_taken() >= rounds_done,
        "the Find kept taking steps without completing — starvation, not deadlock"
    );

    // Lock-freedom: the adversary completed 4 updates per round while the
    // Find starved. Once the adversary stops, the Find finishes at once.
    let mut extra = 0;
    while !find.step() {
        extra += 1;
        assert!(extra < 1_000, "find must finish in a quiet tree");
    }
    assert_eq!(find.result(), Some(true));
    println!(
        "\nT7 verified: Find(2) starved for {rounds_done} rounds ({} edges) while the adversary",
        find.steps_taken()
    );
    println!("completed {adversary_updates} updates (system-wide progress = lock-freedom), then");
    println!("finished in {extra} steps once the adversary stopped. Find is not wait-free.");
    tree.check_invariants().unwrap();
}
