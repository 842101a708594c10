//! Trees torn down with crashed (abandoned) operations in them, shared by
//! the teardown tests (`teardown.rs`, which checks every value is dropped
//! once, and `teardown_bytes.rs`, which checks every byte is freed).
//!
//! `NbBst::drop` must free exactly what the live protocol did not: nodes
//! still reachable from the root, Info records still in a reachable
//! update word, and the replacement of a leaf replacement that flagged
//! but never spliced it in. Each shape below builds a tree, parks one or
//! two operations at a dangerous point one CAS at a time with
//! `raw::Stepper`, and drops the tree.

use nbbst_core::raw::Stepper;
use nbbst_core::NbBst;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

/// Counts clones minus drops in a shared balance: a leak leaves it
/// positive, a double free drives it negative (or aborts the process).
#[derive(Debug)]
pub struct Token {
    live: Arc<AtomicIsize>,
}

impl Token {
    pub fn new(live: &Arc<AtomicIsize>) -> Token {
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
pub fn marked_delete(live: &Arc<AtomicIsize>) {
    let tree = tree_with_keys(&[1, 2], live);
    let mut del = Stepper::delete(&tree, 1);
    assert!(del.search().is_ready());
    assert!(del.flag(), "quiet tree: dflag must win");
    assert!(del.mark());
    del.abandon(); // crash: dchild and dunflag never run
}

/// Delete crashed after `dflag` only (mark never attempted): one flagged
/// word, parent still Clean.
pub fn flagged_delete(live: &Arc<AtomicIsize>) {
    let tree = tree_with_keys(&[1, 2], live);
    let mut del = Stepper::delete(&tree, 2);
    assert!(del.search().is_ready());
    assert!(del.flag(), "quiet tree: dflag must win");
    del.abandon();
}

/// Delete crashed after `dchild` (only the `dunflag` missing): the parent
/// and leaf were already unlinked and retired to the collector, so
/// teardown must free the `DInfo` via the grandparent's stale flag but
/// must *not* touch the retired nodes again.
pub fn delete_after_dchild(live: &Arc<AtomicIsize>) {
    let tree = tree_with_keys(&[1, 2], live);
    let mut del = Stepper::delete(&tree, 1);
    assert!(del.search().is_ready());
    assert!(del.flag(), "quiet tree: dflag must win");
    assert!(del.mark());
    assert!(del.execute_child(), "quiet tree: dchild must win");
    del.abandon(); // crash: dunflag never runs
    assert!(!tree.contains_key(&1));
    assert!(tree.contains_key(&2));
}

/// Insert crashed after `iflag`: the speculative three-node subtree was
/// never installed, so teardown must free it (and its value) through the
/// flagged `IInfo`.
pub fn flagged_insert(live: &Arc<AtomicIsize>) {
    let tree = tree_with_keys(&[1], live);
    let mut ins = Stepper::insert(&tree, 2, Token::new(live));
    assert!(ins.search().is_ready());
    assert!(ins.flag(), "quiet tree: iflag must win");
    ins.abandon(); // crash: ichild and iunflag never run
    assert!(!tree.contains_key(&2), "subtree was never installed");
}

/// Insert crashed after `ichild` (only the `iunflag` missing): the new
/// subtree **is** reachable and the displaced leaf was retired, so
/// teardown must free the `IInfo` but walk the subtree exactly once.
pub fn insert_after_ichild(live: &Arc<AtomicIsize>) {
    let tree = tree_with_keys(&[1], live);
    let mut ins = Stepper::insert(&tree, 2, Token::new(live));
    assert!(ins.search().is_ready());
    assert!(ins.flag(), "quiet tree: iflag must win");
    assert!(ins.execute_child(), "quiet tree: ichild must win");
    ins.abandon(); // crash: iunflag never runs
    assert!(tree.contains_key(&2), "subtree was installed");
    assert!(tree.contains_key(&1));
}

/// Both shapes at once, in different corners of one tree: a mark-stalled
/// delete of the smallest key and an ichild-stalled insert of a new
/// largest key, plus quiet keys in between.
pub fn both_stalled_shapes(live: &Arc<AtomicIsize>) {
    let tree = tree_with_keys(&[1, 2, 3], live);

    let mut del = Stepper::delete(&tree, 1);
    assert!(del.search().is_ready());
    assert!(del.flag(), "quiet corner: dflag must win");
    assert!(del.mark());
    del.abandon();

    let mut ins = Stepper::insert(&tree, 4, Token::new(live));
    assert!(ins.search().is_ready());
    assert!(ins.flag(), "quiet corner: iflag must win");
    assert!(ins.execute_child(), "quiet corner: ichild must win");
    ins.abandon();
}

/// Leaf replacements stalled on the default tree: a copy-delete parked
/// after its iflag (replacement unspliced), an insert that fills a leaf
/// parked after its ichild (replacement spliced), and an insert that
/// splits a full leaf parked after its iflag (split subtree unspliced).
pub fn stalled_leaf_replacements(live: &Arc<AtomicIsize>) {
    {
        let tree = fat_tree_with_keys(&[10, 20, 30], live);
        let mut del = Stepper::delete(&tree, 20);
        assert!(del.search().is_ready());
        assert!(del.flag(), "quiet tree: iflag must win");
        del.abandon();
        tree.check_invariants_allowing(true).unwrap();
    }
    {
        let tree = fat_tree_with_keys(&[10, 20, 30], live);
        let mut ins = Stepper::insert(&tree, 25, Token::new(live));
        assert!(ins.search().is_ready());
        assert!(ins.flag());
        assert!(ins.execute_child());
        ins.abandon();
        assert!(tree.contains_key(&25), "the copy was installed");
    }
    {
        // Fill the first leaf to capacity, then park the splitting insert.
        let tree = fat_tree_with_keys(&[], live);
        for k in 0..tree.leaf_capacity() as u64 {
            tree.insert_entry(k, Token::new(live)).ok();
        }
        assert_eq!(tree.height(), 2, "one full leaf under ∞1");
        let mut ins = Stepper::insert(&tree, 1_000, Token::new(live));
        assert!(ins.search().is_ready());
        assert!(ins.flag());
        ins.abandon();
        tree.check_invariants_allowing(true).unwrap();
    }
}

/// Every shape above (`teardown.rs` names each instead).
#[allow(dead_code)]
pub const ALL: [fn(&Arc<AtomicIsize>); 7] = [
    marked_delete,
    flagged_delete,
    delete_after_dchild,
    flagged_insert,
    insert_after_ichild,
    both_stalled_shapes,
    stalled_leaf_replacements,
];
