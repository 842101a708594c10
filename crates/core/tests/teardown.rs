//! Teardown correctness under crashed (abandoned) operations: after each
//! shape in `stalled/mod.rs` drops its tree (and with it the epoch
//! collector), every value clone has been dropped exactly once.

mod stalled;

use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

/// Runs `shape` and checks its values' clones-minus-drops balance.
fn assert_torn_down(shape: fn(&Arc<AtomicIsize>), what: &str) {
    let live = Arc::new(AtomicIsize::new(0));
    shape(&live);
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "leak or double-free tearing down {what}"
    );
}

#[test]
fn drop_frees_shared_dinfo_of_marked_delete_once() {
    assert_torn_down(stalled::marked_delete, "a dflag+mark-stalled delete");
}

#[test]
fn drop_frees_dinfo_of_flag_only_delete() {
    assert_torn_down(stalled::flagged_delete, "a dflag-stalled delete");
}

#[test]
fn drop_after_dchild_does_not_double_free_retired_nodes() {
    assert_torn_down(stalled::delete_after_dchild, "a dchild-stalled delete");
}

#[test]
fn drop_frees_speculative_subtree_of_flag_only_insert() {
    assert_torn_down(stalled::flagged_insert, "an iflag-stalled insert");
}

#[test]
fn drop_after_ichild_frees_installed_subtree_once() {
    assert_torn_down(stalled::insert_after_ichild, "an ichild-stalled insert");
}

#[test]
fn drop_handles_both_stalled_shapes_in_one_tree() {
    assert_torn_down(stalled::both_stalled_shapes, "mixed stalled operations");
}

#[test]
fn drop_frees_stalled_leaf_replacements_once() {
    assert_torn_down(
        stalled::stalled_leaf_replacements,
        "stalled leaf replacements",
    );
}
