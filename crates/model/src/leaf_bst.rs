//! A sequential leaf-oriented BST following the paper's Figures 1, 2 and 6.
//!
//! This is the *reference model*: the concurrent tree must behave, under any
//! linearization, exactly like this structure behaves sequentially. It is
//! deliberately written in plain safe Rust with owned boxes so its
//! correctness is evident. `nbbst-baselines`' `CoarseLockBst` puts it
//! behind one lock.

use nbbst_dictionary::{real_vs_node, SentinelKey, SeqMap};
use std::cmp::Ordering;
use std::fmt;
use std::mem;

/// A node of the sequential tree: internal nodes route, leaves store keys
/// (and values). Matches the paper's `Internal`/`Leaf` types minus the
/// concurrency fields.
#[derive(Debug)]
enum Node<K, V> {
    /// A routing node: left descendants are `< key`, right are `>= key`.
    Internal {
        key: SentinelKey<K>,
        left: Box<Node<K, V>>,
        right: Box<Node<K, V>>,
    },
    /// A leaf; `value` is `None` for sentinel leaves.
    Leaf {
        key: SentinelKey<K>,
        value: Option<V>,
    },
}

impl<K, V> Node<K, V> {
    fn leaf(key: SentinelKey<K>, value: Option<V>) -> Box<Node<K, V>> {
        Box::new(Node::Leaf { key, value })
    }

    /// Placeholder used while splicing; never observable.
    fn placeholder() -> Node<K, V> {
        Node::Leaf {
            key: SentinelKey::Inf2,
            value: None,
        }
    }

    /// The node's key (routing key for internals, stored key for leaves).
    fn key(&self) -> &SentinelKey<K> {
        match self {
            Node::Internal { key, .. } | Node::Leaf { key, .. } => key,
        }
    }
}

/// The sequential leaf-oriented BST of the paper, with `∞1`/`∞2` dummy
/// leaves (Figure 6) and the update shapes of Figures 1 and 2.
///
/// # Examples
///
/// ```
/// use nbbst_model::LeafBst;
/// use nbbst_dictionary::SeqMap;
///
/// let mut t = LeafBst::new();
/// assert!(t.insert(2u64, "b"));
/// assert!(t.insert(1, "a"));
/// assert!(!t.insert(2, "B"));           // duplicate
/// assert_eq!(t.get(&2), Some("b"));
/// assert!(t.remove(&2));
/// assert_eq!(t.len(), 1);
/// assert_eq!(t.keys().collect::<Vec<_>>(), vec![1]);
/// ```
#[derive(Debug)]
pub struct LeafBst<K, V> {
    root: Node<K, V>,
    len: usize,
}

impl<K: Ord + Clone, V> LeafBst<K, V> {
    /// Creates the Figure 6(a) initial tree: an internal `∞2` root with
    /// `∞1` and `∞2` leaves.
    pub fn new() -> LeafBst<K, V> {
        LeafBst {
            root: Node::Internal {
                key: SentinelKey::Inf2,
                left: Node::leaf(SentinelKey::Inf1, None),
                right: Node::leaf(SentinelKey::Inf2, None),
            },
            len: 0,
        }
    }

    /// Walks to the leaf on the search path for `key` (the paper's
    /// sequential `Search`).
    fn search_leaf(&self, key: &K) -> &Node<K, V> {
        let mut cur = &self.root;
        while let Node::Internal {
            key: nk,
            left,
            right,
        } = cur
        {
            cur = if real_vs_node(key, nk) == Ordering::Less {
                left
            } else {
                right
            };
        }
        cur
    }

    /// In-order iterator over the real keys.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        let mut stack = vec![&self.root];
        std::iter::from_fn(move || {
            while let Some(n) = stack.pop() {
                match n {
                    // Right first, so the left subtree is visited first.
                    Node::Internal { left, right, .. } => stack.extend([&**right, &**left]),
                    Node::Leaf {
                        key: SentinelKey::Key(k),
                        ..
                    } => return Some(k.clone()),
                    Node::Leaf { .. } => {}
                }
            }
            None
        })
    }

    /// Checks every structural invariant of the paper's tree shape:
    ///
    /// 1. every internal node has exactly two children (by construction),
    /// 2. BST order: left descendants `<` node key `<=` right descendants,
    /// 3. the dummy shape of Figure 6: root keyed `∞2`, its right child the
    ///    `∞2` leaf, and the `∞1` leaf present,
    /// 4. leaf count equals `len() + 2` sentinels.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String>
    where
        K: fmt::Debug,
    {
        // (3) sentinel shape.
        let Node::Internal { key, right, .. } = &self.root else {
            return Err("root is a leaf".into());
        };
        if *key != SentinelKey::Inf2 {
            return Err(format!("root key is {key:?}, expected ∞2"));
        }
        match right.as_ref() {
            Node::Leaf {
                key: SentinelKey::Inf2,
                ..
            } => {}
            other => return Err(format!("root right child is {:?}", other.key())),
        }

        // (2) order, with an explicit stack (a degenerate tree is as deep
        // as it has keys); also count leaves.
        let mut leaves = 0;
        let mut sentinels = 0;
        let mut stack = vec![(&self.root, None, None)];
        while let Some((n, lo, hi)) = stack.pop() {
            let k = n.key();
            // Keys in a right subtree must be >= the parent key.
            if let Some(lo) = lo {
                if k < lo {
                    return Err(format!("key {k:?} below lower bound {lo:?}"));
                }
            }
            // Keys in a left subtree must be < the parent key.
            if let Some(hi) = hi {
                if k >= hi {
                    return Err(format!("key {k:?} not below upper bound {hi:?}"));
                }
            }
            match n {
                Node::Leaf { key, .. } => {
                    leaves += 1;
                    if key.is_sentinel() {
                        sentinels += 1;
                    }
                }
                Node::Internal { key, left, right } => {
                    // Left is popped first, as the recursive walk visited it.
                    stack.push((&**right, Some(key), hi));
                    stack.push((&**left, lo, Some(key)));
                }
            }
        }
        if sentinels != 2 {
            return Err(format!("expected 2 sentinel leaves, found {sentinels}"));
        }
        // (4)
        if leaves != self.len + 2 {
            return Err(format!(
                "leaf count {leaves} != len {} + 2 sentinels",
                self.len
            ));
        }
        Ok(())
    }

    /// Renders the tree as indented ASCII, internal nodes in `(parens)`,
    /// leaves in `[brackets]` — used to regenerate the paper's figures.
    pub fn render(&self) -> String
    where
        K: fmt::Display,
    {
        fn go<K: fmt::Display, V>(n: &Node<K, V>, prefix: &str, last: bool, out: &mut String) {
            let branch = if prefix.is_empty() {
                ""
            } else if last {
                "└── "
            } else {
                "├── "
            };
            match n {
                Node::Leaf { key, .. } => {
                    out.push_str(&format!("{prefix}{branch}[{key}]\n"));
                }
                Node::Internal { key, left, right } => {
                    out.push_str(&format!("{prefix}{branch}({key})\n"));
                    let child_prefix = if prefix.is_empty() {
                        String::new()
                    } else {
                        format!("{prefix}{}", if last { "    " } else { "│   " })
                    };
                    go(left, &child_prefix, false, out);
                    go(right, &child_prefix, true, out);
                }
            }
        }
        let mut out = String::new();
        go(&self.root, "", true, &mut out);
        out
    }

    /// Figure 1, iteratively: walks to the leaf on `key`'s search path
    /// and replaces it by an internal node over the old and the new leaf.
    fn insert_at(mut node: &mut Node<K, V>, key: K, value: V) -> bool {
        while let Node::Internal {
            key: nk,
            left,
            right,
        } = node
        {
            node = if real_vs_node(&key, nk) == Ordering::Less {
                left
            } else {
                right
            };
        }
        if *node.key() == SentinelKey::Key(key.clone()) {
            return false;
        }
        // Replace the leaf by an internal node whose key is the larger of
        // the two leaf keys; the smaller key goes left.
        let Node::Leaf {
            key: old_key,
            value: old_value,
        } = mem::replace(node, Node::placeholder())
        else {
            unreachable!("the walk stops at a leaf")
        };
        let new_leaf = Node::leaf(SentinelKey::Key(key), Some(value));
        let old_leaf = Node::leaf(old_key.clone(), old_value);
        let (routing, left, right) = if *new_leaf.key() < old_key {
            (old_key, new_leaf, old_leaf)
        } else {
            (new_leaf.key().clone(), old_leaf, new_leaf)
        };
        *node = Node::Internal {
            key: routing,
            left,
            right,
        };
        true
    }

    /// Figure 2, iteratively: walks to the parent of the leaf on `key`'s
    /// search path and, if that leaf holds `key`, puts its sibling in the
    /// parent's place. `node` is internal (the root always is).
    fn remove_at(mut node: &mut Node<K, V>, key: &K) -> bool {
        loop {
            let Node::Internal {
                key: nk,
                left,
                right,
            } = &*node
            else {
                unreachable!("the walk stays on internal nodes")
            };
            let go_left = real_vs_node(key, nk) == Ordering::Less;
            let child = if go_left { left } else { right };
            match child.as_ref() {
                Node::Internal { .. } => {
                    let Node::Internal { left, right, .. } = node else {
                        unreachable!("node is internal")
                    };
                    node = if go_left { left } else { right };
                }
                Node::Leaf { key: lk, .. } if lk.as_key() == Some(key) => {
                    let Node::Internal { left, right, .. } =
                        mem::replace(node, Node::placeholder())
                    else {
                        unreachable!("node is internal")
                    };
                    *node = if go_left { *right } else { *left };
                    return true;
                }
                Node::Leaf { .. } => return false,
            }
        }
    }
}

impl<K: Ord + Clone, V> SeqMap<K, V> for LeafBst<K, V> {
    fn insert(&mut self, key: K, value: V) -> bool {
        let inserted = Self::insert_at(&mut self.root, key, value);
        if inserted {
            self.len += 1;
        }
        inserted
    }

    fn remove(&mut self, key: &K) -> bool {
        let removed = Self::remove_at(&mut self.root, key);
        if removed {
            self.len -= 1;
        }
        removed
    }

    fn contains(&self, key: &K) -> bool {
        self.search_leaf(key).key().as_key() == Some(key)
    }

    fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        match self.search_leaf(key) {
            Node::Leaf {
                key: lk,
                value: Some(v),
            } if lk.as_key() == Some(key) => Some(v.clone()),
            _ => None,
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Boxed nodes would drop recursively, one stack frame per level; a
/// degenerate tree (ascending keys) is as deep as it has keys. Nodes are
/// unlinked onto a heap stack and dropped one at a time instead.
impl<K, V> Drop for LeafBst<K, V> {
    fn drop(&mut self) {
        let mut stack = vec![mem::replace(&mut self.root, Node::placeholder())];
        while let Some(node) = stack.pop() {
            if let Node::Internal { left, right, .. } = node {
                stack.push(*left);
                stack.push(*right);
            }
        }
    }
}

impl<K: Ord + Clone, V> Default for LeafBst<K, V> {
    fn default() -> Self {
        LeafBst::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_tree_matches_figure_6a() {
        let t: LeafBst<u64, ()> = LeafBst::new();
        assert_eq!(t.len(), 0);
        let Node::Internal { key, left, right } = &t.root else {
            panic!("root must be internal");
        };
        assert_eq!(*key, SentinelKey::Inf2);
        assert_eq!(*left.key(), SentinelKey::Inf1);
        assert_eq!(*right.key(), SentinelKey::Inf2);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_replaces_leaf_with_three_nodes_figure_1() {
        // Figure 1: inserting C next to leaf D creates internal D with
        // leaves C and D.
        let mut t: LeafBst<char, ()> = LeafBst::new();
        assert!(SeqMap::insert(&mut t, 'D', ()));
        assert!(SeqMap::insert(&mut t, 'C', ()));
        t.check_invariants().unwrap();
        assert_eq!(t.keys().collect::<Vec<_>>(), vec!['C', 'D']);
        // The parent of the two leaves must be keyed by the larger key D,
        // with C left and D right.
        fn parent_of(n: &Node<char, ()>, a: char) -> Option<&Node<char, ()>> {
            let Node::Internal { left, right, .. } = n else {
                return None;
            };
            if matches!(**left, Node::Leaf { key: SentinelKey::Key(k), .. } if k == a) {
                return Some(n);
            }
            parent_of(left, a).or_else(|| parent_of(right, a))
        }
        let Some(Node::Internal { key, left, right }) = parent_of(&t.root, 'C') else {
            panic!("C has a parent");
        };
        assert_eq!(*key, SentinelKey::Key('D'));
        assert_eq!(*left.key(), SentinelKey::Key('C'));
        assert_eq!(*right.key(), SentinelKey::Key('D'));
    }

    #[test]
    fn delete_splices_out_parent_figure_2() {
        let mut t: LeafBst<char, ()> = LeafBst::new();
        for c in ['B', 'D', 'C'] {
            assert!(SeqMap::insert(&mut t, c, ()));
        }
        assert!(SeqMap::remove(&mut t, &'C'));
        t.check_invariants().unwrap();
        assert_eq!(t.keys().collect::<Vec<_>>(), vec!['B', 'D']);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn duplicate_insert_rejected_without_overwrite() {
        let mut t = LeafBst::new();
        assert!(SeqMap::insert(&mut t, 1u64, "one"));
        assert!(!SeqMap::insert(&mut t, 1, "uno"));
        assert_eq!(SeqMap::get(&t, &1), Some("one"));
    }

    #[test]
    fn remove_missing_key_is_noop() {
        let mut t: LeafBst<u64, ()> = LeafBst::new();
        assert!(!SeqMap::remove(&mut t, &1));
        SeqMap::insert(&mut t, 2, ());
        assert!(!SeqMap::remove(&mut t, &1));
        assert_eq!(t.len(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn in_order_iteration_is_sorted() {
        let mut t: LeafBst<u64, u64> = LeafBst::new();
        for k in [5u64, 1, 9, 3, 7, 2, 8] {
            SeqMap::insert(&mut t, k, k * 10);
        }
        assert_eq!(t.keys().collect::<Vec<_>>(), vec![1, 2, 3, 5, 7, 8, 9]);
        for k in t.keys() {
            assert_eq!(SeqMap::get(&t, &k), Some(k * 10));
        }
    }

    #[test]
    fn interleaved_inserts_and_removes_keep_invariants() {
        let mut t: LeafBst<u64, u64> = LeafBst::new();
        for i in 0..200u64 {
            SeqMap::insert(&mut t, (i * 37) % 101, i);
            if i % 3 == 0 {
                SeqMap::remove(&mut t, &((i * 17) % 101));
            }
            t.check_invariants().unwrap();
        }
    }

    /// The tree that inserting `0..n` in ascending order makes (a right
    /// spine `n` levels deep), built in O(n): through `insert` the build
    /// is quadratic in `n`.
    fn ascending(n: u64) -> LeafBst<u64, u64> {
        let mut spine = Node::leaf(SentinelKey::Key(n - 1), Some(n - 1));
        for k in (1..n).rev() {
            spine = Box::new(Node::Internal {
                key: SentinelKey::Key(k),
                left: Node::leaf(SentinelKey::Key(k - 1), Some(k - 1)),
                right: spine,
            });
        }
        let mut t = LeafBst::new();
        let Node::Internal { left, .. } = &mut t.root else {
            unreachable!("the root is internal")
        };
        **left = Node::Internal {
            key: SentinelKey::Inf1,
            left: spine,
            right: Node::leaf(SentinelKey::Inf1, None),
        };
        t.len = n as usize;
        t
    }

    #[test]
    fn ascending_builds_what_ascending_inserts_make() {
        let mut t: LeafBst<u64, u64> = LeafBst::new();
        for k in 0..50 {
            assert!(SeqMap::insert(&mut t, k, k));
        }
        let built = ascending(50);
        built.check_invariants().unwrap();
        assert_eq!(built.render(), t.render());
        assert_eq!(built.len(), t.len());
        assert!((0..50).all(|k| SeqMap::get(&built, &k) == Some(k)));
    }

    /// Insert, remove, the invariant check and drop on a 100k-deep tree
    /// must not use a stack frame per level.
    #[test]
    fn degenerate_100k_tree_fits_a_2_mib_stack() {
        const N: u64 = 100_000;
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let mut t = ascending(N);
                // Each of these walks the whole spine.
                assert!(SeqMap::insert(&mut t, N, N));
                assert!(!SeqMap::insert(&mut t, N - 1, 0));
                assert!(SeqMap::remove(&mut t, &(N - 1)));
                assert!(!SeqMap::remove(&mut t, &(N + 1)));
                assert_eq!(SeqMap::get(&t, &N), Some(N));
                assert_eq!(t.len(), N as usize);
                t.check_invariants().unwrap();
                drop(t);
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn render_produces_figure_style_output() {
        let mut t: LeafBst<u64, ()> = LeafBst::new();
        SeqMap::insert(&mut t, 1, ());
        let s = t.render();
        assert!(s.contains("(∞2)"));
        assert!(s.contains("[∞1]"));
        assert!(s.contains("[1]"));
    }
}
