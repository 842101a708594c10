//! Whole-tree views: snapshots, invariant checking and rendering.
//!
//! Everything here traverses the tree under a single epoch pin. The
//! results are *weakly consistent*: exact when the tree is quiescent (no
//! update in flight), and a correct view of some mixture of states
//! otherwise. These operations exist for validation, experiments and
//! figures — they are not part of the paper's algorithm.
//!
//! ## Every traversal is iterative (O(1) call stack)
//!
//! The paper's tree is never rebalanced, so adversarial insertion orders
//! (most commonly: sequential keys) produce root-to-leaf paths of depth
//! *n*. A recursive walk therefore overflows the thread stack within a
//! few tens of thousands of ordered inserts — long before memory or time
//! become a problem. Every whole-tree read in this module and in
//! [`crate::extensions`] drives an explicit heap-allocated stack (the
//! shared machinery is [`InorderCursor`]), so traversal depth costs heap
//! bytes, never call-stack frames. Locked by the `degenerate_*`
//! regression tests below, which walk a 100 000-deep path inside a
//! deliberately tiny (128 KiB) thread stack.

use crate::node::{
    internal_ptr, prefetch_span, Internal, NodePtr, NodePtrExt, NodeRef, UpdateWordExt,
};
use crate::state::State;
use crate::tree::NbBst;
use nbbst_dictionary::{real_vs_node, SentinelKey};
use nbbst_reclaim::Guard;
use std::cmp::Ordering as CmpOrdering;
use std::fmt;
use std::iter::Zip;
use std::ops::Bound;
use std::slice::Iter;

fn in_lo<K: Ord>(k: &K, lo: Bound<&K>) -> bool {
    match lo {
        Bound::Unbounded => true,
        Bound::Included(b) => k >= b,
        Bound::Excluded(b) => k > b,
    }
}

fn in_hi<K: Ord>(k: &K, hi: Bound<&K>) -> bool {
    match hi {
        Bound::Unbounded => true,
        Bound::Included(b) => k <= b,
        Bound::Excluded(b) => k < b,
    }
}

/// What one [`InorderCursor::step`] did.
pub(crate) enum Step<'g, K, V> {
    Entry(&'g K, &'g V),
    More,
    Done,
}

/// A pinned in-order cursor over the entries of the tree within
/// `[lo, hi]`-style bounds — the reusable explicit-stack walk behind every
/// snapshot-style view.
///
/// Children are pushed right-then-left, so leaves are reached in
/// left-to-right (ascending-key) order, and the descent prunes whole
/// subtrees that the BST property places outside the bounds. Entries come
/// out strictly ascending even under concurrent updates: a Delete that
/// splices out a parent promotes a sibling subtree the cursor may not
/// have walked yet, and re-inserting a key it already yielded lands in
/// that subtree. So the cursor drops every entry whose key is not above
/// the last key it yielded.
///
/// All state lives in a heap `Vec`: advancing the cursor never recurses,
/// so arbitrarily deep (unbalanced) trees cost O(depth) heap and O(1)
/// call stack.
pub(crate) struct InorderCursor<'g, 'b, K, V> {
    stack: Vec<NodePtr<'g, K, V>>,
    /// The rest of the current leaf.
    entries: Zip<Iter<'g, K>, Iter<'g, V>>,
    last: Option<&'g K>,
    guard: &'g Guard,
    lo: Bound<&'b K>,
    hi: Bound<&'b K>,
}

impl<'g, 'b, K: Ord, V> InorderCursor<'g, 'b, K, V> {
    /// A cursor over the entries of the subtree under `root` within the
    /// bounds, its stack sized for `capacity` pending nodes.
    pub(crate) fn new(
        root: &'g Internal<K, V>,
        guard: &'g Guard,
        lo: Bound<&'b K>,
        hi: Bound<&'b K>,
        capacity: usize,
    ) -> Self {
        let mut stack = Vec::with_capacity(capacity);
        stack.push(internal_ptr(root));
        InorderCursor {
            stack,
            entries: [].iter().zip(&[]),
            last: None,
            guard,
            lo,
            hi,
        }
    }

    /// Yields the next entry of the current leaf, or else visits one node.
    #[inline(always)]
    pub(crate) fn step(&mut self) -> Step<'g, K, V> {
        for (k, v) in self.entries.by_ref() {
            if self.last.is_some_and(|last| k <= last) || !in_lo(k, self.lo) {
                continue;
            }
            if !in_hi(k, self.hi) {
                // Everything still ahead is larger.
                self.stack.clear();
                self.entries = [].iter().zip(&[]);
                return Step::Done;
            }
            self.last = Some(k);
            return Step::Entry(k, v);
        }
        let Some(word) = self.stack.pop() else {
            return Step::Done;
        };
        // SAFETY: the root, or a child word read under the pin.
        let node = match unsafe { word.node() } {
            NodeRef::Leaf(leaf) => {
                self.entries = leaf.keys().iter().zip(leaf.values());
                return Step::More;
            }
            NodeRef::Internal(node) => node,
        };
        // BST property: left subtree < node.key <= right subtree. Prune:
        // skip left if everything there is below `lo`; skip right if
        // node.key is beyond `hi`. Sentinel routing keys cannot prune
        // (their left subtree holds all real keys).
        let visit_left = match (&node.key, self.lo) {
            (SentinelKey::Key(nk), Bound::Included(b) | Bound::Excluded(b)) => nk > b,
            _ => true,
        };
        let visit_right = match (&node.key, self.hi) {
            (SentinelKey::Key(nk), Bound::Included(b)) => nk <= b,
            (SentinelKey::Key(nk), Bound::Excluded(b)) => nk < b,
            _ => true,
        };
        // Right first so the left child pops (and yields) first.
        if visit_right {
            self.stack.push(node.load_child(false, self.guard));
        }
        if visit_left {
            self.stack.push(node.load_child(true, self.guard));
        }
        Step::More
    }

    /// Starts loading the node the cursor visits next, while other
    /// cursors take their steps.
    pub(crate) fn prefetch_next(&self) {
        if let Some(next) = self.stack.last() {
            prefetch_span(next.as_raw().cast(), 1);
        }
    }

    /// Steps until the next entry ([`Step::Entry`]) or the end
    /// ([`Step::Done`]).
    pub(crate) fn next_entry(&mut self) -> Step<'g, K, V> {
        loop {
            match self.step() {
                Step::More => {}
                step => return step,
            }
        }
    }
}

impl<K, V> NbBst<K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    /// Counts the real keys by traversing the whole tree. Exact only at
    /// quiescence.
    pub fn len_slow(&self) -> usize {
        let mut n = 0;
        self.for_each_entry(|_, _| n += 1);
        n
    }

    /// In-order snapshot of the real keys. Exact only at quiescence.
    pub fn keys_snapshot(&self) -> Vec<K> {
        let mut keys = Vec::new();
        self.for_each_entry(|k, _| keys.push(k.clone()));
        keys
    }

    /// Height in edges of the longest root-to-leaf path (the initial
    /// sentinel tree has height 1). Exact only at quiescence.
    pub fn height(&self) -> usize {
        let guard = self.pin();
        let mut max = 0usize;
        let mut stack = vec![(internal_ptr(self.root()), 0)];
        while let Some((word, depth)) = stack.pop() {
            // SAFETY: the root, or a child word read under the pin.
            match unsafe { word.node() } {
                NodeRef::Leaf(_) => max = max.max(depth),
                NodeRef::Internal(node) => {
                    stack.push((node.load_child(true, &guard), depth + 1));
                    stack.push((node.load_child(false, &guard), depth + 1));
                }
            }
        }
        max
    }

    /// Checks the structural invariants the paper's proof establishes, at
    /// quiescence:
    ///
    /// 1. the sentinel shape of Figure 6 (root keyed `∞2`, its right child
    ///    the `∞2` leaf; the `∞1` leaf present);
    /// 2. every internal node has two non-null children;
    /// 3. the BST property: left descendants `<` node key `<=` right
    ///    descendants, for routing keys and every leaf entry;
    /// 4. every leaf holds 1 to capacity entries, sorted and unique, and
    ///    leaf keys are distinct and in order across the tree;
    /// 5. every internal node's state is `Clean` (pass
    ///    `allow_flags = true` to skip this when deliberately-stalled
    ///    operations are present).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_invariants_allowing(false)
    }

    /// [`NbBst::check_invariants`] with flagged/marked nodes tolerated.
    pub fn check_invariants_allowing(&self, allow_flags: bool) -> Result<(), String> {
        let guard = self.pin();
        let root = self.root();
        if root.key != SentinelKey::Inf2 {
            return Err("root key is not ∞2".into());
        }
        // SAFETY: reachable under pin (null is rejected below).
        let right = root.load_child(false, &guard);
        if right.is_null()
            || !matches!(unsafe { right.node() },
                NodeRef::Leaf(l) if l.sentinel_key() == Some(SentinelKey::Inf2))
        {
            return Err("root's right child is not the ∞2 leaf".into());
        }
        let inside = |k: &K, lo: Option<&SentinelKey<K>>, hi: Option<&SentinelKey<K>>| {
            lo.is_none_or(|b| real_vs_node(k, b) != CmpOrdering::Less)
                && hi.is_none_or(|b| real_vs_node(k, b) == CmpOrdering::Less)
        };

        // Explicit-stack in-order walk carrying each node's ancestor key
        // interval; frames are (node, lower bound, upper bound). Bounds
        // borrow the keys of live ancestor nodes, which the pin keeps
        // valid for the whole walk.
        let mut sentinels = Vec::new();
        let mut prev: Option<&K> = None;
        type Frame<'g, K, V> = (
            NodePtr<'g, K, V>,
            Option<&'g SentinelKey<K>>,
            Option<&'g SentinelKey<K>>,
        );
        let mut stack: Vec<Frame<'_, K, V>> = vec![(internal_ptr(root), None, None)];
        while let Some((word, lo, hi)) = stack.pop() {
            if word.is_null() {
                return Err("internal node with a null child".into());
            }
            // SAFETY: reachable under pin.
            let node = match unsafe { word.node() } {
                NodeRef::Internal(node) => node,
                NodeRef::Leaf(leaf) => {
                    if leaf.len() == 0 || leaf.len() > self.leaf_capacity() {
                        return Err(format!(
                            "leaf with {} entries (capacity {})",
                            leaf.len(),
                            self.leaf_capacity()
                        ));
                    }
                    if let Some(s) = leaf.sentinel_key() {
                        if lo.is_some_and(|b| s < *b) || hi.is_some_and(|b| s >= *b) {
                            return Err("sentinel leaf outside its routing interval".into());
                        }
                        sentinels.push(s);
                    }
                    for k in leaf.keys() {
                        if !inside(k, lo, hi) {
                            return Err(
                                "BST property violated: leaf key outside its routing interval"
                                    .into(),
                            );
                        }
                        if prev.is_some_and(|p| p >= k) {
                            return Err("leaf keys not strictly increasing".into());
                        }
                        prev = Some(k);
                    }
                    continue;
                }
            };
            if lo.is_some_and(|b| node.key < *b) {
                return Err("BST property violated: key below lower bound".into());
            }
            if hi.is_some_and(|b| node.key >= *b) {
                return Err("BST property violated: key not below upper bound".into());
            }
            if !allow_flags {
                let state = node.load_update(&guard).state();
                if state != State::Clean {
                    return Err(format!("internal node not Clean at quiescence: {state}"));
                }
            }
            // Right first so the left subtree is fully visited first
            // (in-order, for the `prev` strictly-increasing check).
            stack.push((node.load_child(false, &guard), Some(&node.key), hi));
            stack.push((node.load_child(true, &guard), lo, Some(&node.key)));
        }
        if sentinels != [SentinelKey::Inf1, SentinelKey::Inf2] {
            return Err(format!(
                "expected the ∞1 and ∞2 sentinel leaves once each, found {} sentinels",
                sentinels.len()
            ));
        }
        Ok(())
    }

    /// Renders the tree as indented ASCII in the style of the paper's
    /// figures: internal nodes `(key state)`, leaves `[key key ...]`.
    ///
    /// Used by the figure-regeneration binaries (F1/F2/F5/F6). The output
    /// itself is O(depth) characters *per line*, so rendering a degenerate
    /// tree is inherently quadratic in the output — but the walk is
    /// iterative, so the only cost is the string, never the call stack.
    pub fn render(&self) -> String
    where
        K: fmt::Display,
    {
        let guard = self.pin();
        let mut out = String::new();
        // Frames: (node, prefix, is-last-child). Right is pushed first so
        // the left sibling prints first, exactly like the old recursion.
        let mut stack = vec![(internal_ptr(self.root()), String::new(), true)];
        while let Some((word, prefix, last)) = stack.pop() {
            let branch = if prefix.is_empty() {
                ""
            } else if last {
                "└── "
            } else {
                "├── "
            };
            // SAFETY: the root, or a child word read under the pin.
            let node = match unsafe { word.node() } {
                NodeRef::Leaf(leaf) => {
                    let keys: Vec<String> = match leaf.sentinel_key() {
                        Some(s) => vec![s.to_string()],
                        None => leaf.keys().iter().map(ToString::to_string).collect(),
                    };
                    out.push_str(&format!("{prefix}{branch}[{}]\n", keys.join(" ")));
                    continue;
                }
                NodeRef::Internal(node) => node,
            };
            let state = node.load_update(&guard).state();
            if state == State::Clean {
                out.push_str(&format!("{prefix}{branch}({})\n", node.key));
            } else {
                out.push_str(&format!("{prefix}{branch}({} {state})\n", node.key));
            }
            let child_prefix = if prefix.is_empty() {
                String::new()
            } else {
                format!("{prefix}{}", if last { "    " } else { "│   " })
            };
            stack.push((node.load_child(false, &guard), child_prefix.clone(), true));
            stack.push((node.load_child(true, &guard), child_prefix, false));
        }
        out
    }

    /// The update-word state of the internal node with routing key `key`
    /// (first match on the search path), for schedule tests and figures.
    pub fn state_of_internal(&self, key: &K) -> Option<State> {
        let guard = self.pin();
        let mut word = internal_ptr(self.root());
        loop {
            // SAFETY: the root, or a child word read under the pin.
            let NodeRef::Internal(node) = (unsafe { word.node() }) else {
                return None;
            };
            if node.key.as_key() == Some(key) {
                return Some(node.load_update(&guard).state());
            }
            word = node.child_toward(key, &guard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{InorderCursor, Step};
    use crate::node::{Internal, Leaf, NodePtr};
    use crate::{NbBst, State};
    use nbbst_dictionary::SentinelKey;
    use std::ops::Bound;

    /// The paper's tree (one key per leaf) holding `keys`.
    fn tree(keys: &[u64]) -> NbBst<u64, u64> {
        let t = NbBst::new().one_key_leaves();
        for &k in keys {
            t.insert_entry(k, k * 2).unwrap();
        }
        t
    }

    /// Runs `f` on a thread whose stack is far too small for an O(depth)
    /// recursion over `depth`-deep trees — the regression harness proving
    /// the traversals use O(1) call stack.
    fn on_tiny_stack<F: FnOnce() + Send + 'static>(f: F) {
        std::thread::Builder::new()
            .name("tiny-stack".into())
            .stack_size(128 * 1024)
            .spawn(f)
            .expect("spawn tiny-stack thread")
            .join()
            .expect("tiny-stack traversals completed");
    }

    #[test]
    fn len_and_snapshots_agree() {
        let t = tree(&[4, 2, 6, 1, 3]);
        assert_eq!(t.len_slow(), 5);
        assert_eq!(t.keys_snapshot(), vec![1, 2, 3, 4, 6]);
        assert_eq!(
            t.range_snapshot(Bound::Unbounded, Bound::Unbounded),
            vec![(1, 2), (2, 4), (3, 6), (4, 8), (6, 12)]
        );
    }

    #[test]
    fn height_counts_edges() {
        let t: NbBst<u64, u64> = NbBst::new();
        assert_eq!(t.height(), 1, "figure 6(a) tree");
        t.insert_entry(1, 1).unwrap();
        assert_eq!(t.height(), 2, "one key adds one level under ∞1");
    }

    #[test]
    fn render_marks_states_and_shapes() {
        let t = tree(&[10, 20]);
        let r = t.render();
        assert!(r.contains("(∞2)"), "{r}");
        assert!(r.contains("[10]"), "{r}");
        assert!(r.contains("[∞1]"), "{r}");
        assert!(
            !r.contains("IFlag"),
            "quiet tree has no state annotations: {r}"
        );
    }

    #[test]
    fn state_of_internal_reports_clean_at_quiescence() {
        let t = tree(&[10, 20, 30]);
        // Internal routing nodes are keyed 20 and 30 after these inserts.
        assert_eq!(t.state_of_internal(&20), Some(State::Clean));
        assert_eq!(t.state_of_internal(&999), None, "no such internal");
    }

    #[test]
    fn invariant_checker_flags_inflight_states_only_when_asked() {
        use crate::raw::Stepper;
        let t = tree(&[10]);
        let mut ins = Stepper::insert(&t, 20, 20);
        assert!(ins.search().is_ready());
        assert!(ins.flag());
        // Strict check rejects the IFlag; tolerant check accepts.
        assert!(t.check_invariants().is_err());
        t.check_invariants_allowing(true).unwrap();
        ins.complete();
        t.check_invariants().unwrap();
    }

    #[test]
    fn degenerate_constructor_matches_real_inserts() {
        // The O(n) direct constructor must produce bit-for-bit the shape
        // (and contents) that ascending `insert_entry` calls produce —
        // compared structurally via `render` at a size where the real
        // build is cheap.
        for n in [1u64, 2, 3, 7, 64] {
            let direct = NbBst::degenerate_ascending(n);
            let real: NbBst<u64, u64> = NbBst::new().one_key_leaves();
            for k in 0..n {
                real.insert_entry(k, k).unwrap();
            }
            assert_eq!(direct.render(), real.render(), "n={n}");
            direct.check_invariants().unwrap();
            assert_eq!(direct.height(), real.height(), "n={n}");
        }
    }

    #[test]
    fn degenerate_100k_tree_traversals_use_constant_stack() {
        // The headline regression: a 100_000-key degenerate path tree
        // (exactly the shape sequential inserts produce; built in O(n)
        // because the public-API build is quadratic in n) must complete
        // every snapshot/validation traversal inside a 128 KiB thread
        // stack. The recursive walks this replaces needed hundreds of
        // bytes per level — tens of megabytes at this depth.
        const N: u64 = 100_000;
        on_tiny_stack(|| {
            let t = NbBst::degenerate_ascending(N);
            assert_eq!(t.height(), (N + 1) as usize);
            t.check_invariants().unwrap();
            let all = t.range_snapshot(Bound::Unbounded, Bound::Unbounded);
            assert_eq!(all.len(), N as usize);
            assert_eq!(all.first(), Some(&(0, 0)));
            assert_eq!(all.last(), Some(&(N - 1, N - 1)));
            assert_eq!(t.len_slow(), N as usize);
            assert_eq!(t.keys_snapshot().len(), N as usize);
            let mid = t.range_snapshot(Bound::Included(&50_000), Bound::Excluded(&50_010));
            assert_eq!(mid.len(), 10);
            let mut seen = 0usize;
            t.for_each_entry(|k, v| {
                assert_eq!(k, v);
                seen += 1;
            });
            assert_eq!(seen, N as usize);
            assert_eq!(t.min_key(), Some(0));
            assert_eq!(t.max_key(), Some(N - 1));
            // Teardown of the 100k-deep tree is iterative too.
            drop(t);
        });
    }

    #[test]
    fn degenerate_render_uses_constant_stack() {
        // `render` output is inherently O(depth) per line, so it gets its
        // own smaller depth — the point here is only that the *walk* is
        // iterative.
        on_tiny_stack(|| {
            let t = NbBst::degenerate_ascending(2_000);
            let r = t.render();
            assert!(r.contains("[0]"));
            assert!(r.contains("[1999]"));
            // n real leaves + 2 sentinel leaves + (n + 1) internal nodes.
            assert_eq!(r.lines().count(), 2 * 2_000 + 3);
        });
    }

    #[test]
    fn cursor_never_repeats_a_key_deleted_and_reinserted_behind_it() {
        // (∞1) -> (20) { [10], (30) { [20], [30] } }: visiting (20) pushes
        // the internal node (30) before [10] is yielded. Deleting 10
        // splices (20) out and promotes (30); re-inserting 10 lands under
        // (30), which the cursor has yet to walk, so without the "not above
        // the last key" filter 10 came out twice.
        let t = tree(&[20, 10, 30]);
        let guard = t.pin();
        let mut cursor =
            InorderCursor::new(t.root(), &guard, Bound::Unbounded, Bound::Unbounded, 1);
        let mut next = || match cursor.next_entry() {
            Step::Entry(k, _) => Some(*k),
            _ => None,
        };
        assert_eq!(next(), Some(10));
        assert!(t.remove_key(&10));
        t.insert_entry(10, 0).unwrap();
        let rest: Vec<u64> = std::iter::from_fn(next).collect();
        assert_eq!(rest, vec![20, 30]);
    }

    /// `step()` calls until the cursor is done, and the keys it yielded.
    fn walk(t: &NbBst<u64, u64>, lo: Bound<&u64>, hi: Bound<&u64>) -> (usize, Vec<u64>) {
        let guard = t.pin();
        let mut cursor = InorderCursor::new(t.root(), &guard, lo, hi, 1);
        let (mut steps, mut keys) = (0, Vec::new());
        loop {
            steps += 1;
            match cursor.step() {
                Step::Entry(k, _) => keys.push(*k),
                Step::More => {}
                Step::Done => return (steps, keys),
            }
        }
    }

    #[test]
    fn excluded_upper_bound_skips_the_right_subtree_of_its_own_key() {
        // (5) { [1 3], (9) { (8) { (7) { (6) { [5], [6] }, [7] }, [8] }, [9] } }
        // under the sentinels. Everything right of (5) is >= 5, so below an
        // excluded 5 it can yield nothing.
        let n6 = Internal::new(SentinelKey::Key(6), leaf(&[5]), leaf(&[6]));
        let n7 = Internal::new(SentinelKey::Key(7), n6.into_ptr(), leaf(&[7]));
        let n8 = Internal::new(SentinelKey::Key(8), n7.into_ptr(), leaf(&[8]));
        let n9 = Internal::new(SentinelKey::Key(9), n8.into_ptr(), leaf(&[9]));
        let n5 = Internal::new(SentinelKey::Key(5), leaf(&[1, 3]), n9.into_ptr());
        let t = handmade(n5.into_ptr());
        t.check_invariants().unwrap();
        // Root, (∞1), (5), [1 3], entries 1 and 3, the [∞1] and [∞2]
        // leaves, and the final `Done`. Descending into (9) as well would
        // take (9), (8), (7), (6) and [5] before 5 ended the walk: 12.
        let (steps, keys) = walk(&t, Bound::Unbounded, Bound::Excluded(&5));
        assert_eq!(keys, vec![1, 3]);
        assert_eq!(steps, 9);
        // The same walk as below an excluded 4, where (5) prunes anyway.
        assert_eq!(
            walk(&t, Bound::Unbounded, Bound::Excluded(&4)),
            (9, vec![1, 3])
        );
        // An included 5 still has to visit that subtree.
        let (_, keys) = walk(&t, Bound::Unbounded, Bound::Included(&5));
        assert_eq!(keys, vec![1, 3, 5]);
    }

    #[test]
    fn fat_leaves_render_and_count_all_their_entries() {
        let t: NbBst<u64, u64> = NbBst::new();
        for k in [10, 20, 30] {
            t.insert_entry(k, k).unwrap();
        }
        let r = t.render();
        assert!(r.contains("[10 20 30]"), "{r}");
        assert!(r.contains("[∞1]"), "{r}");
        assert_eq!(t.height(), 2, "one split under ∞1, then copies");
        assert_eq!(t.len_slow(), 3);
        t.check_invariants().unwrap();
    }

    /// A tree whose `∞1` subtree is `under_inf1` (a handcrafted tree for
    /// invariant-checker tests).
    fn handmade(under_inf1: NodePtr<'static, u64, u64>) -> NbBst<u64, u64> {
        let inf1 = Leaf::sentinel(&SentinelKey::Inf1).into_ptr();
        NbBst::from_root_left(
            Internal::new(SentinelKey::Inf1, under_inf1, inf1).into_ptr(),
            4,
        )
    }

    fn leaf(keys: &[u64]) -> NodePtr<'static, u64, u64> {
        Leaf::with_entries(keys.iter().map(|&k| (k, k))).into_ptr()
    }

    #[test]
    fn invariant_checker_accepts_a_well_formed_fat_tree() {
        let n = Internal::new(SentinelKey::Key(5), leaf(&[1, 3]), leaf(&[5, 8, 9]));
        let t = handmade(n.into_ptr());
        t.check_invariants().unwrap();
        assert_eq!(t.keys_snapshot(), vec![1, 3, 5, 8, 9]);
    }

    #[test]
    fn invariant_checker_rejects_unsorted_leaves() {
        let err = handmade(leaf(&[3, 1])).check_invariants().unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
        let err = handmade(leaf(&[3, 3])).check_invariants().unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
    }

    #[test]
    fn invariant_checker_rejects_keys_outside_their_routing_interval() {
        let n = Internal::new(SentinelKey::Key(5), leaf(&[1, 6]), leaf(&[7]));
        let t = handmade(n.into_ptr());
        let err = t.check_invariants().unwrap_err();
        assert!(err.contains("routing interval"), "{err}");
    }

    #[test]
    fn invariant_checker_rejects_leaves_over_capacity() {
        let err = handmade(leaf(&[1, 2, 3, 4, 5]))
            .check_invariants()
            .unwrap_err();
        assert!(err.contains("capacity 4"), "{err}");
    }
}
