//! Teardown correctness under crashed (abandoned) operations.
//!
//! `NbBst::drop` must free exactly what the live protocol did not: nodes
//! still reachable from the root, Info records still *flagged* into a
//! reachable update word, and the speculative subtree of an insert that
//! flagged but never installed. The dangerous shapes, driven here one CAS
//! at a time with the `raw` steppers:
//!
//! * a stalled delete whose grandparent `DFlag` and parent `Mark` point at
//!   the **same** `DInfo` record — teardown must free it once, not twice;
//! * a stalled insert whose `ichild` succeeded but whose `iunflag` did not
//!   — the new subtree is reachable, so teardown must free only the
//!   `IInfo`, not the subtree again;
//! * on the default tree, stalled leaf replacements: a leaf copy or a
//!   split subtree that was flagged but never spliced in belongs to its
//!   `IInfo` alone, and one that was spliced in belongs to the tree.
//!
//! Each test drops the tree (and with it the epoch collector) and then
//! checks a clones-minus-drops balance on the values: a leak leaves the
//! balance positive, a double-free drives it negative or aborts the
//! process outright.

use nbbst_core::raw::{MarkOutcome, RawDelete, RawInsert};
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

/// The paper's tree (one key per leaf), whose stalled shapes these tests
/// pin.
fn tree_with_keys(keys: &[u64], live: &Arc<AtomicIsize>) -> NbBst<u64, Token> {
    fill(NbBst::with_stats().one_key_leaves(), keys, live)
}

/// The default tree: leaves hold many entries, and updates replace them
/// by copies.
fn fat_tree_with_keys(keys: &[u64], live: &Arc<AtomicIsize>) -> NbBst<u64, Token> {
    fill(NbBst::with_stats(), keys, live)
}

fn fill(tree: NbBst<u64, Token>, keys: &[u64], live: &Arc<AtomicIsize>) -> NbBst<u64, Token> {
    for &k in keys {
        tree.insert_entry(k, Token::new(live))
            .unwrap_or_else(|_| panic!("duplicate key {k} in fixture"));
    }
    tree
}

/// Delete crashed after `dflag` + `mark`: the grandparent's `DFlag` word
/// and the parent's `Mark` word both hold the one `DInfo`; the parent and
/// leaf are still reachable. Teardown must free every node once and the
/// shared record once.
#[test]
fn drop_frees_shared_dinfo_of_marked_delete_once() {
    let live = Arc::new(AtomicIsize::new(0));
    {
        let tree = tree_with_keys(&[1, 2], &live);
        let mut del = RawDelete::new(&tree, 1);
        assert!(del.search().is_ready());
        assert!(del.flag(), "quiet tree: dflag must win");
        assert_eq!(del.mark(), MarkOutcome::Marked);
        del.abandon(); // crash: dchild and dunflag never run
    }
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "leak or double-free tearing down a dflag+mark-stalled delete"
    );
}

/// Delete crashed after `dflag` only (mark never attempted): one flagged
/// word, parent still Clean.
#[test]
fn drop_frees_dinfo_of_flag_only_delete() {
    let live = Arc::new(AtomicIsize::new(0));
    {
        let tree = tree_with_keys(&[1, 2], &live);
        let mut del = RawDelete::new(&tree, 2);
        assert!(del.search().is_ready());
        assert!(del.flag(), "quiet tree: dflag must win");
        del.abandon();
    }
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "leak or double-free tearing down a dflag-stalled delete"
    );
}

/// Delete crashed after `dchild` (only the `dunflag` missing): the parent
/// and leaf were already unlinked and retired to the collector, so
/// teardown must free the `DInfo` via the grandparent's stale flag but
/// must *not* touch the retired nodes again.
#[test]
fn drop_after_dchild_does_not_double_free_retired_nodes() {
    let live = Arc::new(AtomicIsize::new(0));
    {
        let tree = tree_with_keys(&[1, 2], &live);
        let mut del = RawDelete::new(&tree, 1);
        assert!(del.search().is_ready());
        assert!(del.flag(), "quiet tree: dflag must win");
        assert_eq!(del.mark(), MarkOutcome::Marked);
        assert!(del.execute_child(), "quiet tree: dchild must win");
        del.abandon(); // crash: dunflag never runs
        assert!(!tree.contains_key(&1));
        assert!(tree.contains_key(&2));
    }
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "leak or double-free tearing down a dchild-stalled delete"
    );
}

/// Insert crashed after `iflag`: the speculative three-node subtree was
/// never installed, so teardown must free it (and its value) through the
/// flagged `IInfo`.
#[test]
fn drop_frees_speculative_subtree_of_flag_only_insert() {
    let live = Arc::new(AtomicIsize::new(0));
    {
        let tree = tree_with_keys(&[1], &live);
        let mut ins = RawInsert::new(&tree, 2, Token::new(&live));
        assert!(ins.search().is_ready());
        assert!(ins.flag(), "quiet tree: iflag must win");
        ins.abandon(); // crash: ichild and iunflag never run
        assert!(!tree.contains_key(&2), "subtree was never installed");
    }
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "leak or double-free tearing down an iflag-stalled insert"
    );
}

/// Insert crashed after `ichild` (only the `iunflag` missing): the new
/// subtree **is** reachable and the displaced leaf was retired, so
/// teardown must free the `IInfo` but walk the subtree exactly once.
#[test]
fn drop_after_ichild_frees_installed_subtree_once() {
    let live = Arc::new(AtomicIsize::new(0));
    {
        let tree = tree_with_keys(&[1], &live);
        let mut ins = RawInsert::new(&tree, 2, Token::new(&live));
        assert!(ins.search().is_ready());
        assert!(ins.flag(), "quiet tree: iflag must win");
        assert!(ins.execute_child(), "quiet tree: ichild must win");
        ins.abandon(); // crash: iunflag never runs
        assert!(tree.contains_key(&2), "subtree was installed");
        assert!(tree.contains_key(&1));
    }
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "leak or double-free tearing down an ichild-stalled insert"
    );
}

/// Both shapes at once, in different corners of one tree: a mark-stalled
/// delete of the smallest key and an ichild-stalled insert of a new
/// largest key, plus quiet keys in between.
#[test]
fn drop_handles_both_stalled_shapes_in_one_tree() {
    let live = Arc::new(AtomicIsize::new(0));
    {
        let tree = tree_with_keys(&[1, 2, 3], &live);

        let mut del = RawDelete::new(&tree, 1);
        assert!(del.search().is_ready());
        assert!(del.flag(), "quiet corner: dflag must win");
        assert_eq!(del.mark(), MarkOutcome::Marked);
        del.abandon();

        let mut ins = RawInsert::new(&tree, 4, Token::new(&live));
        assert!(ins.search().is_ready());
        assert!(ins.flag(), "quiet corner: iflag must win");
        assert!(ins.execute_child(), "quiet corner: ichild must win");
        ins.abandon();
    }
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "leak or double-free tearing down mixed stalled operations"
    );
}

/// Leaf replacements stalled on the default tree: a copy-delete parked
/// after its iflag (replacement unspliced), an insert that fills a leaf
/// parked after its ichild (replacement spliced), and an insert that
/// splits a full leaf parked after its iflag (split subtree unspliced).
#[test]
fn drop_frees_stalled_leaf_replacements_once() {
    let live = Arc::new(AtomicIsize::new(0));
    {
        let tree = fat_tree_with_keys(&[10, 20, 30], &live);
        let mut del = RawDelete::new(&tree, 20);
        assert!(del.search().is_ready());
        assert!(del.flag(), "quiet tree: iflag must win");
        del.abandon();
        tree.check_invariants_allowing(true).unwrap();
    }
    {
        let tree = fat_tree_with_keys(&[10, 20, 30], &live);
        let mut ins = RawInsert::new(&tree, 25, Token::new(&live));
        assert!(ins.search().is_ready());
        assert!(ins.flag());
        assert!(ins.execute_child());
        ins.abandon();
        assert!(tree.contains_key(&25), "the copy was installed");
    }
    {
        // Fill the first leaf to capacity, then park the splitting insert.
        let tree = fat_tree_with_keys(&[], &live);
        for k in 0..tree.leaf_capacity() as u64 {
            tree.insert_entry(k, Token::new(&live)).ok();
        }
        assert_eq!(tree.height(), 2, "one full leaf under ∞1");
        let mut ins = RawInsert::new(&tree, 1_000, Token::new(&live));
        assert!(ins.search().is_ready());
        assert!(ins.flag());
        ins.abandon();
        tree.check_invariants_allowing(true).unwrap();
    }
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "leak or double-free tearing down stalled leaf replacements"
    );
}
