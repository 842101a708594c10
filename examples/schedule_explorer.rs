//! Schedule explorer: step two conflicting operations one CAS at a time
//! and watch the update words change — a guided tour of Figures 4 and 5.
//!
//! ```bash
//! cargo run --example schedule_explorer
//! ```

use nbbst::core::raw::{MarkOutcome, RawDelete, RawInsert};
use nbbst::NbBst;

fn show(title: &str, tree: &NbBst<u64, u64>) {
    println!("--- {title} ---");
    println!("{}", tree.render());
}

fn main() {
    let tree: NbBst<u64, u64> = NbBst::new().one_key_leaves();
    for k in [10u64, 30, 50] {
        tree.insert_entry(k, k).unwrap();
    }
    show("initial tree (keys 10, 30, 50)", &tree);

    println!("[Delete(50)] Search finds leaf 50, parent and grandparent.");
    let mut del = RawDelete::new(&tree, 50);
    assert!(del.search().is_ready());

    println!("[Delete(50)] dflag CAS: grandparent Clean -> DFlag, publishing a DInfo record.");
    assert!(del.flag());
    show("after dflag", &tree);

    println!("[Insert(60)] Search finds leaf 50's replacement point; parent is Clean.");
    let mut ins = RawInsert::new(&tree, 60, 60);
    assert!(ins.search().is_ready());

    println!("[Insert(60)] iflag CAS: parent Clean -> IFlag, publishing an IInfo record.");
    assert!(ins.flag());
    show(
        "after iflag — this is the paper's Figure 5 configuration",
        &tree,
    );

    println!("[Insert(60)] ichild CAS: the leaf becomes a three-node subtree (Figure 1).");
    assert!(ins.execute_child());
    show("after ichild", &tree);

    println!("[Insert(60)] iunflag CAS: parent IFlag -> Clean. Insert done.");
    assert!(ins.unflag());
    show("after iunflag", &tree);
    drop(ins);

    println!("[Delete(50)] mark CAS: FAILS — the parent's update word changed since Search.");
    assert_eq!(del.mark(), MarkOutcome::Failed);

    println!("[Delete(50)] backtrack CAS: grandparent DFlag -> Clean; the delete retries.");
    assert!(del.backtrack());
    show(
        "after backtrack (tree unchanged by the failed delete)",
        &tree,
    );

    println!("[Delete(50)] retry: Search, dflag, mark, dchild, dunflag.");
    assert!(del.search().is_ready());
    assert!(del.flag());
    assert_eq!(del.mark(), MarkOutcome::Marked);
    show("after mark — the parent is frozen forever", &tree);
    assert!(del.execute_child());
    assert!(del.unflag());
    show(
        "final tree: 50 deleted, 60 (inserted concurrently) survives",
        &tree,
    );

    assert!(!tree.contains_key(&50));
    assert!(tree.contains_key(&60));
    tree.check_invariants().unwrap();
    println!("every state you saw is a vertex of Figure 4; every step an edge.");
}
