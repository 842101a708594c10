//! **F1/F2** — regenerate the paper's Figures 1 and 2: the three-node
//! insertion shape and the splice-out deletion shape.
//!
//! The figures use letters; we use the numeric keys B=20, C=30, D=40 so
//! that `Insert(C)` lands next to leaf `D` under an internal node keyed by
//! the larger of the pair, exactly as the figure draws it.

use nbbst_core::NbBst;

fn main() {
    nbbst_bench::banner("F1/F2", "insertion and deletion shapes", "Figures 1 and 2");

    let tree: NbBst<u64, &str> = NbBst::new().one_key_leaves();
    tree.insert_entry(20, "B").unwrap();
    tree.insert_entry(40, "D").unwrap();
    println!("\ninitial tree (leaves B=20, D=40):\n{}", tree.render());

    println!("--- Figure 1: Insert(C=30) replaces leaf D by the subtree (40){{[30],[40]}} ---");
    tree.insert_entry(30, "C").unwrap();
    println!("{}", tree.render());
    tree.check_invariants().expect("invariants after insert");

    println!(
        "--- Figure 2: Delete(C=30) removes the leaf and its parent; the sibling moves up ---"
    );
    assert!(tree.remove_key(&30));
    println!("{}", tree.render());
    tree.check_invariants().expect("invariants after delete");

    println!(
        "F1/F2 reproduced: shapes match Figures 1 and 2 (see tests/shapes.rs for the assertions)."
    );
}
