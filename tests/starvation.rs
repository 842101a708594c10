//! T7 integration test: the Section 6 adversarial schedule starves a
//! `Find` while updates keep completing (lock-free, not wait-free).

use nbbst::core::raw::RawFind;
use nbbst::NbBst;

#[test]
fn section6_schedule_starves_find_indefinitely() {
    let tree: NbBst<u64, u64> = NbBst::new().one_key_leaves();
    for k in [1u64, 2, 3] {
        tree.insert_entry(k, k).unwrap();
    }

    // Find(2) walks until it reaches an internal node keyed 2.
    let mut find = RawFind::new(&tree, 2);
    while !find.at_internal_keyed(&2) {
        assert!(!find.step(), "must pause above a leaf");
    }

    const ROUNDS: u64 = 500;
    for round in 0..ROUNDS {
        // Adversary: delete 1, re-insert 1, delete 3, re-insert 3.
        assert!(tree.remove_key(&1), "round {round}");
        tree.insert_entry(1, 1).unwrap();
        assert!(tree.remove_key(&3), "round {round}");
        tree.insert_entry(3, 3).unwrap();

        // Find advances two edges and is back at an internal 2.
        assert!(!find.step(), "round {round}: reached a leaf unexpectedly");
        assert!(!find.step(), "round {round}: reached a leaf unexpectedly");
        assert!(
            find.at_internal_keyed(&2),
            "round {round}: schedule lost its shape"
        );
    }
    assert_eq!(find.result(), None, "Find must still be running");
    assert!(find.steps_taken() >= 2 * ROUNDS);

    // Stop the adversary: the Find completes immediately and correctly.
    while !find.step() {}
    assert_eq!(find.result(), Some(true));
    tree.check_invariants().unwrap();
}

#[test]
fn find_completes_in_logarithmic_steps_without_adversary() {
    let tree: NbBst<u64, u64> = NbBst::new().one_key_leaves();
    // Pseudo-random insertion order (389 is coprime to 1024): random
    // fills give the logarithmic expected depth of Section 6's citation
    // [19]; a sorted fill would degenerate to a 1024-deep spine.
    for i in 0..1_024u64 {
        let k = (i * 389) % 1_024;
        tree.insert_entry(k, k).unwrap();
    }
    let mut find = RawFind::new(&tree, 512);
    let mut steps = 0;
    while !find.step() {
        steps += 1;
        assert!(steps < 200, "find must terminate quickly in a quiet tree");
    }
    assert_eq!(find.result(), Some(true));
}
