//! The *broken* single-CAS BST of the paper's Figure 3.
//!
//! "Simply using a CAS on the one child pointer that an update must change
//! would lead to problems if there are concurrent updates" (Section 3).
//! This module implements exactly that strawman — a leaf-oriented BST
//! whose insert and delete each perform **one child CAS with no flagging
//! or marking** — together with *prepared* (two-phase) operations so tests
//! can replay the paper's two schedules deterministically:
//!
//! * **Figure 3(b)**: `Delete(C)` ∥ `Delete(E)` — after both CASes, the
//!   deleted key `E` is still reachable.
//! * **Figure 3(c)**: `Delete(E)` ∥ `Insert(F)` — the insert's CAS
//!   succeeds, yet `F` ends up unreachable.
//!
//! The structure is **intentionally incorrect under concurrency**; it is
//! sequentially correct (verified by property tests) and exists solely as
//! the experimental control for the EFRB protocol.
//!
//! The anomalies come from the order of the steps, not from the memory
//! model, so the tree is a single-threaded index arena: nodes live in one
//! `Vec` and children are indices into it. A commit compares and sets one
//! child slot. Nodes that a commit unlinks stay in the arena until the
//! tree is dropped, so a stale prepared operation always names a node that
//! still exists.

use nbbst_dictionary::{real_vs_node, SentinelKey};
use std::cell::RefCell;
use std::cmp::Ordering;

/// A node's position in the arena.
type Idx = usize;

/// A child slot: the internal node's index and the side (0 left, 1 right).
type Slot = (Idx, usize);

/// The root is the Figure 6(a) internal `∞2` node, always at index 0.
const ROOT: Idx = 0;

#[derive(Debug)]
enum Node<K, V> {
    Leaf {
        key: SentinelKey<K>,
        value: Option<V>,
    },
    Internal {
        key: SentinelKey<K>,
        child: [Idx; 2],
    },
}

impl<K, V> Node<K, V> {
    fn key(&self) -> &SentinelKey<K> {
        match self {
            Node::Leaf { key, .. } | Node::Internal { key, .. } => key,
        }
    }
}

fn slot_mut<K, V>(nodes: &mut [Node<K, V>], (parent, side): Slot) -> &mut Idx {
    match &mut nodes[parent] {
        Node::Internal { child, .. } => &mut child[side],
        Node::Leaf { .. } => unreachable!("only internal nodes have child slots"),
    }
}

/// The paper's sequential Search: the leaf on `key`'s path, the slot that
/// holds it, and the slot that holds its parent (`None` for the root).
fn search<K: Ord, V>(nodes: &[Node<K, V>], key: &K) -> (Option<Slot>, Slot, Idx) {
    let (mut above, mut slot, mut l) = (None, None, ROOT);
    while let Node::Internal { key: nk, child } = &nodes[l] {
        let side = usize::from(real_vs_node(key, nk) != Ordering::Less);
        above = slot;
        slot = Some((l, side));
        l = child[side];
    }
    (above, slot.expect("the root is internal"), l)
}

/// The Figure 3 strawman: a leaf-oriented BST whose updates are one bare
/// child CAS each.
///
/// Correct sequentially; **loses updates under concurrency** (by design —
/// see the module docs).
#[derive(Debug)]
pub struct NaiveBst<K, V> {
    nodes: RefCell<Vec<Node<K, V>>>,
}

impl<K, V> NaiveBst<K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    /// Creates the sentinel tree of Figure 6(a).
    pub fn new() -> NaiveBst<K, V> {
        let leaf = |key| Node::Leaf { key, value: None };
        NaiveBst {
            nodes: RefCell::new(vec![
                Node::Internal {
                    key: SentinelKey::Inf2,
                    child: [1, 2],
                },
                leaf(SentinelKey::Inf1),
                leaf(SentinelKey::Inf2),
            ]),
        }
    }

    /// Two-phase insert: search now and record the leaf to replace, CAS
    /// later ([`PreparedInsert::commit`]).
    ///
    /// Returns `None` if the key is already present.
    pub fn prepare_insert(&self, key: K, value: V) -> Option<PreparedInsert<'_, K, V>> {
        let nodes = self.nodes.borrow();
        let (_, slot, leaf) = search(&nodes, &key);
        let Node::Leaf {
            key: leaf_key,
            value: leaf_value,
        } = &nodes[leaf]
        else {
            unreachable!("search ends at a leaf")
        };
        if leaf_key.as_key() == Some(&key) {
            return None;
        }
        Some(PreparedInsert {
            tree: self,
            slot,
            leaf,
            key,
            value,
            leaf_key: leaf_key.clone(),
            leaf_value: leaf_value.clone(),
        })
    }

    /// Two-phase delete: record the grandparent's slot, the parent and the
    /// sibling subtree now, CAS later ([`PreparedDelete::commit`]).
    ///
    /// Returns `None` if the key is absent.
    pub fn prepare_delete(&self, key: &K) -> Option<PreparedDelete<'_, K, V>> {
        let nodes = self.nodes.borrow();
        let (above, (parent, side), leaf) = search(&nodes, key);
        if nodes[leaf].key().as_key() != Some(key) {
            return None;
        }
        let Node::Internal { child, .. } = &nodes[parent] else {
            unreachable!("a slot's node is internal")
        };
        Some(PreparedDelete {
            tree: self,
            slot: above.expect("real leaves have grandparents"),
            parent,
            sibling: child[1 - side],
        })
    }

    /// One-shot insert (prepare + commit loop); sequentially correct.
    pub fn insert(&self, key: K, value: V) -> bool {
        let mut kv = (key, value);
        while let Some(prep) = self.prepare_insert(kv.0, kv.1) {
            match prep.commit() {
                CommitOutcome::Applied => return true,
                CommitOutcome::CasFailed(pair) => {
                    kv = pair.expect("insert commit returns the pair")
                }
            }
        }
        false
    }

    /// One-shot delete; sequentially correct.
    pub fn remove(&self, key: &K) -> bool {
        while let Some(prep) = self.prepare_delete(key) {
            if let CommitOutcome::Applied = prep.commit() {
                return true;
            }
        }
        false
    }

    /// Membership test.
    pub fn contains(&self, key: &K) -> bool {
        let nodes = self.nodes.borrow();
        let (_, _, leaf) = search(&nodes, key);
        nodes[leaf].key().as_key() == Some(key)
    }

    /// In-order snapshot of real keys — including any *resurrected* keys a
    /// lost update left behind, which is how the Figure 3 anomalies are
    /// observed.
    pub fn keys_snapshot(&self) -> Vec<K> {
        let nodes = self.nodes.borrow();
        let mut keys = Vec::new();
        let mut stack = vec![ROOT];
        while let Some(n) = stack.pop() {
            match &nodes[n] {
                Node::Internal {
                    child: [left, right],
                    ..
                } => stack.extend([*right, *left]),
                Node::Leaf { key, .. } => keys.extend(key.as_key().cloned()),
            }
        }
        keys
    }
}

impl<K, V> Default for NaiveBst<K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    fn default() -> Self {
        NaiveBst::new()
    }
}

/// Outcome of committing a prepared naive operation.
#[derive(Debug)]
pub enum CommitOutcome<K, V> {
    /// The single CAS succeeded.
    Applied,
    /// The CAS failed (the tree changed under us). For inserts, the
    /// `(key, value)` pair is handed back for a retry.
    CasFailed(Option<(K, V)>),
}

/// A naive insert that has searched but not yet CASed. Holding several
/// `Prepared*` values and committing them in a chosen order is how
/// Figure 3 schedules are replayed.
#[derive(Debug)]
pub struct PreparedInsert<'t, K, V> {
    tree: &'t NaiveBst<K, V>,
    slot: Slot,
    /// The leaf `slot` held at prepare time: the CAS's expected value.
    leaf: Idx,
    key: K,
    value: V,
    /// A copy of that leaf, which becomes the new leaf's sibling.
    leaf_key: SentinelKey<K>,
    leaf_value: Option<V>,
}

impl<K: Ord + Clone, V> PreparedInsert<'_, K, V> {
    /// Performs the single child CAS. Only if it succeeds are the three
    /// nodes of Figure 1 added: the new leaf, the copy of the old leaf,
    /// and an internal node keyed by the larger key above them.
    pub fn commit(self) -> CommitOutcome<K, V> {
        let mut nodes = self.tree.nodes.borrow_mut();
        if *slot_mut(&mut nodes, self.slot) != self.leaf {
            return CommitOutcome::CasFailed(Some((self.key, self.value)));
        }
        // NOTE (deliberate bug): no flag was taken, so a concurrent
        // delete that captured the old leaf's parent can undo this.
        let new_key = SentinelKey::Key(self.key);
        let new_is_left = new_key < self.leaf_key;
        let routing = if new_is_left {
            self.leaf_key.clone()
        } else {
            new_key.clone()
        };
        let new_leaf = Node::Leaf {
            key: new_key,
            value: Some(self.value),
        };
        let sibling = Node::Leaf {
            key: self.leaf_key,
            value: self.leaf_value,
        };
        let first = nodes.len();
        nodes.extend(if new_is_left {
            [new_leaf, sibling]
        } else {
            [sibling, new_leaf]
        });
        nodes.push(Node::Internal {
            key: routing,
            child: [first, first + 1],
        });
        *slot_mut(&mut nodes, self.slot) = first + 2;
        CommitOutcome::Applied
    }
}

/// A naive delete that has searched (capturing its stale sibling) but not
/// yet CASed.
#[derive(Debug)]
pub struct PreparedDelete<'t, K, V> {
    tree: &'t NaiveBst<K, V>,
    /// The grandparent's slot that held `parent` at prepare time.
    slot: Slot,
    parent: Idx,
    sibling: Idx,
}

impl<K, V> PreparedDelete<'_, K, V> {
    /// Performs the single child CAS (splice the parent out, replacing it
    /// by the *prepared-time* sibling — the staleness that loses updates).
    pub fn commit(self) -> CommitOutcome<K, V> {
        let mut nodes = self.tree.nodes.borrow_mut();
        let slot = slot_mut(&mut nodes, self.slot);
        if *slot != self.parent {
            return CommitOutcome::CasFailed(None);
        }
        *slot = self.sibling;
        CommitOutcome::Applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequentially_correct() {
        let t: NaiveBst<u64, u64> = NaiveBst::new();
        assert!(t.insert(2, 20));
        assert!(t.insert(1, 10));
        assert!(!t.insert(2, 22));
        assert!(t.contains(&1));
        assert!(t.remove(&1));
        assert!(!t.remove(&1));
        assert_eq!(t.keys_snapshot(), vec![2]);
    }

    #[test]
    fn failed_insert_commit_recovers_the_pair() {
        let t: NaiveBst<u64, u64> = NaiveBst::new();
        t.insert(10, 100);
        // Two prepared inserts against the same leaf: the second commit
        // loses its CAS and must hand the key/value back.
        let first = t.prepare_insert(20, 200).unwrap();
        let second = t.prepare_insert(30, 300).unwrap();
        assert!(matches!(first.commit(), CommitOutcome::Applied));
        match second.commit() {
            CommitOutcome::CasFailed(Some((k, v))) => {
                assert_eq!((k, v), (30, 300));
            }
            other => panic!("expected recovered pair, got {other:?}"),
        }
        assert!(t.contains(&20));
        assert!(!t.contains(&30));
        // A retry via the one-shot API lands it.
        assert!(t.insert(30, 300));
        assert!(t.contains(&30));
    }

    #[test]
    fn failed_delete_commit_is_reported() {
        let t: NaiveBst<u64, u64> = NaiveBst::new();
        for k in [10u64, 20, 30] {
            t.insert(k, k);
        }
        let a = t.prepare_delete(&20).unwrap();
        let b = t.prepare_delete(&20).unwrap();
        assert!(matches!(a.commit(), CommitOutcome::Applied));
        assert!(matches!(b.commit(), CommitOutcome::CasFailed(None)));
        assert!(!t.contains(&20));
    }

    #[test]
    fn prepared_insert_dropped_without_commit_is_clean() {
        let t: NaiveBst<u64, String> = NaiveBst::new();
        t.insert(5, "five".into());
        let prep = t.prepare_insert(7, "seven".into()).unwrap();
        drop(prep);
        assert!(!t.contains(&7));
        assert_eq!(t.keys_snapshot(), vec![5]);
    }

    /// Figure 3(b): two deletes whose CAS steps run back to back leave the
    /// second deleted key reachable.
    #[test]
    fn figure_3b_concurrent_deletes_resurrect_a_key() {
        // Keys mirror the figure: A=10 C=30 E=50 H=80 as leaves.
        let t: NaiveBst<u64, u64> = NaiveBst::new();
        for k in [10u64, 30, 50, 80] {
            assert!(t.insert(k, k));
        }
        // Prepare both deletes against the same initial tree.
        let del_c = t.prepare_delete(&30).unwrap();
        let del_e = t.prepare_delete(&50).unwrap();
        // Delete(E) commits first, then Delete(C) (its sibling snapshot
        // still contains E's subtree).
        assert!(matches!(del_e.commit(), CommitOutcome::Applied));
        assert!(matches!(del_c.commit(), CommitOutcome::Applied));
        // ANOMALY: E (=50) was deleted but is still in the tree.
        assert!(
            t.contains(&50),
            "the naive tree must exhibit the Figure 3(b) lost delete"
        );
        assert!(!t.contains(&30));
    }

    /// Figure 3(c): a delete and an insert whose CAS steps run back to
    /// back make the inserted key unreachable.
    #[test]
    fn figure_3c_insert_lost_under_concurrent_delete() {
        let t: NaiveBst<u64, u64> = NaiveBst::new();
        for k in [10u64, 30, 50, 80] {
            assert!(t.insert(k, k));
        }
        // Prepare Delete(E=50) first (captures the pre-insert sibling),
        // then Insert(F=60) commits, then the delete commits.
        let del_e = t.prepare_delete(&50).unwrap();
        let ins_f = t.prepare_insert(60, 60).unwrap();
        assert!(matches!(ins_f.commit(), CommitOutcome::Applied));
        assert!(matches!(del_e.commit(), CommitOutcome::Applied));
        // ANOMALY: the insert's CAS succeeded, yet F (=60) is gone.
        assert!(
            !t.contains(&60),
            "the naive tree must exhibit the Figure 3(c) lost insert"
        );
    }

    #[test]
    fn anomalies_visible_in_snapshot() {
        let t: NaiveBst<u64, u64> = NaiveBst::new();
        for k in [10u64, 30, 50, 80] {
            t.insert(k, k);
        }
        let del_c = t.prepare_delete(&30).unwrap();
        let del_e = t.prepare_delete(&50).unwrap();
        del_e.commit();
        del_c.commit();
        let keys = t.keys_snapshot();
        assert!(keys.contains(&50), "snapshot shows the resurrected key");
    }
}
