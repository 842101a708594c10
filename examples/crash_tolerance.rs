//! Crash-failure tolerance, narrated: operations "die" mid-update holding
//! their flags, and other threads transparently finish their work.
//!
//! This is the paper's central robustness claim made tangible: the flag
//! is a lock, but "an operation that acquires a lock always leaves a key
//! to the lock under the doormat" (Section 3) — the Info record — so no
//! crash can wedge the structure.
//!
//! ```bash
//! cargo run --example crash_tolerance
//! ```

use nbbst::core::raw::Stepper;
use nbbst::{ConcurrentMap, NbBst, State};

fn main() {
    let tree: NbBst<u64, u64> = NbBst::with_stats();
    for k in [10u64, 20, 30, 40] {
        tree.insert(k, k);
    }
    println!("initial tree:\n{}", tree.render());

    // --- crash an insert right after its iflag CAS -------------------
    println!("thread A starts Insert(25) ... and crashes after its iflag CAS:");
    let mut ins = Stepper::insert(&tree, 25, 25);
    assert!(ins.search().is_ready());
    assert!(ins.flag());
    ins.abandon(); // thread A is gone forever
    println!("{}", tree.render()); // one internal shows IFlag

    println!("thread B now runs Insert(26), whose path crosses the dead flag...");
    assert!(tree.insert(26, 26));
    println!("B helped A's insert to completion before doing its own:");
    println!(
        "  contains(25) = {} (A's insert, finished by B)",
        tree.contains(&25)
    );
    println!("  contains(26) = {} (B's own insert)", tree.contains(&26));
    assert!(tree.contains(&25) && tree.contains(&26));

    // --- crash a delete between its mark CAS and its child CAS -------
    println!("\nthread C starts Delete(30) ... and crashes after marking the parent:");
    let mut del = Stepper::delete(&tree, 30);
    assert!(del.search().is_ready());
    assert!(del.flag());
    assert!(del.mark());
    del.abandon(); // thread C is gone; a node is permanently marked
    println!("{}", tree.render()); // shows DFlag + Mark

    println!("thread D runs Insert(31) through the marked region...");
    assert!(tree.insert(31, 31));
    println!("D completed C's deletion first:");
    println!(
        "  contains(30) = {} (C's delete, finished by D)",
        tree.contains(&30)
    );
    println!("  contains(31) = {} (D's own insert)", tree.contains(&31));
    assert!(!tree.contains(&30) && tree.contains(&31));

    // Everything is Clean again and the circuits balance.
    for k in [10u64, 20, 25, 26, 31, 40] {
        if let Some(state) = tree.state_of_internal(&k) {
            assert_eq!(state, State::Clean);
        }
    }
    tree.check_invariants().expect("invariants");
    let stats = tree.stats().expect("stats");
    println!("\nhelping activity: {} Help() dispatches", stats.helps);
    println!("final tree:\n{}", tree.render());
    println!("no thread ever waited on the crashed ones — that is lock-freedom.");
}
