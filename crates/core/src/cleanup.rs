//! The Section 6 "cleaning search": a `Find` variant that helps remove
//! marked nodes it passes.
//!
//! "Hazard pointers may be applicable to a slightly modified version of
//! our implementation, where a Search helps Delete operations to perform
//! their dchild CAS steps to remove from the tree marked nodes that the
//! Search encounters" (Section 6). This module implements that modified
//! Search. The tree's reclamation here is epochs, not hazard pointers, so
//! the modification is not *required* for safety — it is provided as the
//! paper's proposed extension, and it also shortens paths behind stalled
//! deleters (a marked node sits on every search path through it until
//! someone performs its dchild CAS).
//!
//! Trade-off: the cleaning search reads every internal node's update word
//! (a second cache line per hop), where the plain `Search` reads only the
//! child pointer; the `f4_stats_overhead`-style cost comparison lives in
//! this module's tests and the micro benches.

use crate::node::{internal_ptr, NodePtrExt, NodeRef, UpdateWordExt};
use crate::state::State;
use crate::tree::NbBst;
use nbbst_dictionary::real_vs_node;
use std::cmp::Ordering as CmpOrdering;

impl<K, V> NbBst<K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    /// `Find(k)` that additionally completes the deletion of any marked
    /// node it traverses (the paper's Section 6 modification).
    ///
    /// Returns the same answer `contains_key` would; as a side effect,
    /// marked-but-not-yet-spliced nodes on the search path are physically
    /// removed (their `dchild`/`dunflag` CAS steps are performed).
    ///
    /// # Examples
    ///
    /// ```
    /// use nbbst_core::NbBst;
    ///
    /// let t: NbBst<u64, u64> = NbBst::new();
    /// t.insert_entry(1, 1).unwrap();
    /// assert!(t.contains_with_cleanup(&1));
    /// assert!(!t.contains_with_cleanup(&2));
    /// ```
    pub fn contains_with_cleanup(&self, key: &K) -> bool {
        let guard = self.pin();
        let root = internal_ptr(self.root());
        let mut word = root;
        loop {
            // SAFETY: the root, or a child word read under the pin.
            let cur = match unsafe { word.node() } {
                NodeRef::Leaf(leaf) => return leaf.get(key).is_some(),
                NodeRef::Internal(node) => node,
            };
            let update = cur.load_update(&guard);
            if update.state() == State::Mark {
                // `cur` is marked: its deletion is unfinished. Complete the
                // dchild + dunflag steps on the deleter's behalf, then
                // restart from the root — `cur` is now off the path.
                self.help_marked(update, &guard);
                word = root;
                continue;
            }
            let go_left = real_vs_node(key, &cur.key) == CmpOrdering::Less;
            word = cur.load_child(go_left, &guard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::{MarkOutcome, RawDelete};

    /// The paper's tree: every delete here runs the mark circuit.
    fn tree(keys: &[u64]) -> NbBst<u64, u64> {
        let t = NbBst::with_stats().one_key_leaves();
        for &k in keys {
            t.insert_entry(k, k).unwrap();
        }
        t
    }

    #[test]
    fn behaves_like_contains_on_quiet_trees() {
        let t = tree(&[2, 4, 6, 8]);
        for k in 0..10u64 {
            assert_eq!(t.contains_with_cleanup(&k), t.contains_key(&k), "key {k}");
        }
    }

    #[test]
    fn cleaning_search_finishes_a_stalled_deletion() {
        let t = tree(&[10, 20, 30]);
        // Crash a delete between mark and dchild: a marked node stays on
        // the search path for 20 and 30.
        let mut del = RawDelete::new(&t, 20);
        assert!(del.search().is_ready());
        assert!(del.flag());
        assert_eq!(del.mark(), MarkOutcome::Marked);
        del.abandon();

        let before = t.stats().unwrap();
        // The deletion linearizes at its dchild CAS, which has NOT run:
        // the plain Find still sees the key and leaves the corpse alone.
        assert!(t.contains_key(&20));
        assert_eq!(t.stats().unwrap().dchild_success, before.dchild_success);

        // The cleaning search performs the dchild + dunflag steps when it
        // hits the marked parent, then restarts — and no longer finds 20.
        assert!(!t.contains_with_cleanup(&20));
        let after = t.stats().unwrap();
        assert_eq!(after.dchild_success, before.dchild_success + 1);
        assert_eq!(after.dunflag_success, before.dunflag_success + 1);
        t.check_invariants().unwrap();
        assert!(t.contains_key(&10) && t.contains_key(&30));
    }

    #[test]
    fn cleaning_search_survives_concurrent_churn() {
        let t = tree(&(0..64).collect::<Vec<_>>());
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for i in 0..5_000u64 {
                    let k = (i * 13) % 64;
                    if i % 2 == 0 {
                        t.remove_key(&k);
                    } else {
                        t.insert_entry(k, k).ok();
                    }
                }
            });
            for i in 0..5_000u64 {
                let k = (i * 7) % 64;
                // Answers must agree with *some* recent state; here we only
                // require no crash/corruption and self-consistency.
                let _ = t.contains_with_cleanup(&k);
            }
            writer.join().unwrap();
        });
        t.check_invariants().unwrap();
        t.stats()
            .unwrap()
            .check_figure4_allowing_abandoned()
            .unwrap();
    }

    #[test]
    fn figure4_identities_hold_when_searches_perform_dchild() {
        // The cleaning search's dchild counts exactly once per circuit,
        // keeping the identities intact even when it races the deleter.
        let t = tree(&[1, 2, 3, 4, 5]);
        for k in [2u64, 4] {
            let mut del = RawDelete::new(&t, k);
            assert!(del.search().is_ready());
            assert!(del.flag());
            assert_eq!(del.mark(), MarkOutcome::Marked);
            del.abandon();
            assert!(!t.contains_with_cleanup(&k));
        }
        t.check_invariants().unwrap();
        t.stats()
            .unwrap()
            .check_figure4_allowing_abandoned()
            .unwrap();
    }
}
