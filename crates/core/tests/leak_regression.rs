//! Regression tests: rejected or beaten inserts must not leak their
//! speculative allocations.
//!
//! An `Insert` allocates up to three nodes before it owns anything in the
//! tree: the new leaf, the sibling copy of the leaf it lands on, and the
//! internal node joining them. Two paths hand those back:
//!
//! * the **duplicate-key** path (`insert_entry` returning `Err((k, v))`),
//!   which must return the value and free any speculative nodes, and
//! * the **failed iflag CAS** (another operation flagged the parent
//!   first), which must free the sibling copy and internal node before
//!   retrying.
//!
//! Leaks are detected with a clones-minus-drops balance on the values and
//! cross-checked against the `with_stats` CAS counters proving the
//! intended path actually ran.

use nbbst_core::raw::Stepper;
use nbbst_core::NbBst;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

/// Counts clones minus drops in a shared balance.
#[derive(Debug)]
struct Token {
    live: Arc<AtomicIsize>,
}

impl Token {
    fn new(live: &Arc<AtomicIsize>) -> Token {
        live.fetch_add(1, Ordering::Relaxed);
        Token {
            live: Arc::clone(live),
        }
    }
}

impl Clone for Token {
    fn clone(&self) -> Token {
        self.live.fetch_add(1, Ordering::Relaxed);
        Token {
            live: Arc::clone(&self.live),
        }
    }
}

impl Drop for Token {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// `insert_entry` on a present key returns `Err((k, v))` with the value
/// intact, and neither the rejected attempt nor teardown leaks anything.
#[test]
fn duplicate_insert_returns_value_without_leaking() {
    let live = Arc::new(AtomicIsize::new(0));
    {
        let tree = NbBst::<u64, Token>::with_stats();
        tree.insert_entry(7, Token::new(&live)).unwrap();

        let (key, value) = tree
            .insert_entry(7, Token::new(&live))
            .expect_err("7 is already present");
        assert_eq!(key, 7);
        drop(value); // the rejected value came back to us

        let stats = tree.stats().expect("stats enabled");
        assert_eq!(stats.inserts, 2, "both insert calls completed");
        assert_eq!(stats.inserts_true, 1, "only the first succeeded");
        assert_eq!(
            stats.iflag_attempts, 1,
            "the duplicate was rejected before any flag CAS"
        );
    }
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "value leak or double-free on the duplicate-insert path"
    );
}

/// Drive an iflag CAS to *failure* deterministically: a first stepped
/// insert searches, then a second full insert changes the parent's update
/// word (its unflag leaves different pointer bits under the Clean tag), so
/// the first insert's flag CAS must fail and free its speculative sibling
/// copy and internal node.
#[test]
fn failed_iflag_frees_speculative_nodes() {
    let live = Arc::new(AtomicIsize::new(0));
    {
        let tree = NbBst::<u64, Token>::with_stats();
        tree.insert_entry(10, Token::new(&live)).unwrap();

        // The stepped insert lands on leaf 10's parent and records its
        // update word...
        let mut stalled = Stepper::insert(&tree, 11, Token::new(&live));
        assert!(stalled.search().is_ready());

        // ...then a full insert of an adjacent key runs an entire
        // iflag/ichild/iunflag circuit through that same parent, changing
        // the word the stepped insert expects.
        tree.insert_entry(12, Token::new(&live)).unwrap();

        let before = tree.stats().expect("stats enabled");
        assert!(!stalled.flag(), "stale expected word: iflag must fail");
        let after = tree.stats().expect("stats enabled");
        assert_eq!(
            after.iflag_attempts,
            before.iflag_attempts + 1,
            "the failing CAS was attempted"
        );
        assert_eq!(
            after.iflag_success, before.iflag_success,
            "the failing CAS did not succeed"
        );

        // Abandon the beaten insert: its value (still in the unpublished
        // new leaf) must be freed by the driver, not leaked.
        stalled.abandon();
        assert!(!tree.contains_key(&11), "11 was never inserted");
    }
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "value leak or double-free on the failed-iflag path"
    );
}

/// The public retry loop hits the same failed-iflag path under contention
/// from a helper completing a stalled insert; the retry must succeed and
/// nothing may leak. (The stepped insert plants the stale flag; the public
/// insert first helps it, which fails its own first iflag attempt.)
#[test]
fn public_insert_retries_after_flag_contention_without_leaking() {
    let live = Arc::new(AtomicIsize::new(0));
    {
        let tree = NbBst::<u64, Token>::with_stats();
        tree.insert_entry(20, Token::new(&live)).unwrap();

        // Flag-and-crash an insert of 21: the parent stays IFlag'd.
        let mut stalled = Stepper::insert(&tree, 21, Token::new(&live));
        assert!(stalled.search().is_ready());
        assert!(stalled.flag(), "quiet tree: iflag must win");
        stalled.abandon();

        // A public insert into the same corner must help the crashed
        // insert to completion, then retry and succeed itself.
        tree.insert_entry(22, Token::new(&live)).unwrap();

        assert!(tree.contains_key(&21), "helped insert completed");
        assert!(tree.contains_key(&22), "retrying insert completed");
        let stats = tree.stats().expect("stats enabled");
        assert!(
            stats.insert_retries > 0,
            "the public insert should have retried at least once"
        );
        stats
            .check_figure4_allowing_abandoned()
            .expect("Figure 4 identities with an abandoned circuit");
    }
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "value leak or double-free on the contended-insert retry path"
    );
}
