//! **F6** — regenerate the paper's Figure 6: the sentinel (`∞1`, `∞2`)
//! tree shapes for the empty and non-empty dictionary.
//!
//! "We append two special values ∞1 < ∞2 to the universe Key of keys ...
//! Deletion of the leaves with dummy keys is not permitted, so the tree
//! will always contain at least two leaves and one internal node"
//! (Section 4.1).

use nbbst_core::NbBst;

fn main() {
    nbbst_bench::banner("F6", "sentinel trees", "Figure 6 and Section 4.1");

    let t: NbBst<u64, u64> = NbBst::new().one_key_leaves();
    println!("(a) empty dictionary:\n{}", t.render());
    assert_eq!(t.len_slow(), 0);
    assert_eq!(t.height(), 1);
    t.check_invariants().unwrap();

    for k in [5u64, 2, 8] {
        t.insert_entry(k, k).unwrap();
    }
    println!("(b) non-empty dictionary (keys 2, 5, 8):\n{}", t.render());
    println!("note the invariant shape: the root is keyed ∞2 with the ∞2 leaf as its right child,");
    println!("and the dictionary contents live in the subtree left of the ∞1 routing structure.");
    t.check_invariants().unwrap();

    // Sentinels can never be deleted: deleting any key not in the
    // dictionary — and the sentinels are not dictionary keys — is a no-op,
    // and even draining the dictionary leaves the Figure 6(a) shape.
    for k in [5u64, 2, 8] {
        assert!(t.remove_key(&k));
    }
    println!(
        "after deleting everything, the Figure 6(a) shape returns:\n{}",
        t.render()
    );
    assert_eq!(t.len_slow(), 0);
    assert_eq!(t.height(), 1, "exactly the two sentinel leaves remain");
    t.check_invariants().unwrap();

    println!("F6 reproduced: both sentinel shapes verified structurally.");
}
