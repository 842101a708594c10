//! Tree nodes and Info records (Figure 7 of the paper).
//!
//! An [`Internal`] node carries a routing key, two atomic child words, and
//! the *update field*: a single CAS word packing a 2-bit [`State`] with a
//! pointer to an [`Info`] record. A [`Leaf`] is immutable once published
//! and holds up to the tree's leaf capacity of sorted `(key, value)`
//! entries inline in one allocation; an update replaces a leaf by a fresh
//! copy (DESIGN.md §13). At capacity 1 this is exactly the paper's
//! one-key leaf.
//!
//! A child word is a pointer to either kind, with [`LEAF_TAG`] set in its
//! low bit when the pointee is a leaf, so a traversal knows what it reached
//! from the word it already loaded, without another dependent load.

use crate::state::State;
use nbbst_dictionary::{real_vs_node, SentinelKey};
use nbbst_reclaim::{Atomic, Guard, Shared};
use std::cmp::Ordering as CmpOrdering;
use std::fmt;
use std::marker::PhantomData;
use std::mem::{size_of, MaybeUninit};
use std::sync::atomic::Ordering;

// Memory orderings are chosen per call site (there is deliberately no
// blanket `SeqCst` constant): traversal loads whose result is dereferenced
// use `Acquire`; CASes that publish a node or Info record use `Release` on
// success, with `Acquire` on failure only where the observed value is then
// helped (dereferenced); pre-publication initialization and exclusive
// teardown use `Relaxed`. The site-by-site table, and the loom scenario
// justifying each choice, live in DESIGN.md ("Memory orderings").

/// Entries per leaf of the default tree (`NbBst::new`). Chosen by A/B runs
/// of 16 against 32 (`BENCH_fat_leaves.json`).
pub(crate) const LEAF_CAPACITY: usize = 32;

/// Low bit of a child word: set iff the word points at a [`Leaf`].
const LEAF_TAG: usize = 1;

/// Cache line size of the targets [`prefetch_span`] issues hints on.
const CACHE_LINE: usize = 64;

/// The address of every cache line that holds a byte of `addr..addr + len`.
#[inline(always)]
fn lines(addr: usize, len: usize) -> impl Iterator<Item = usize> {
    let end = addr + len;
    std::iter::successors(Some(addr - addr % CACHE_LINE), |line| {
        Some(line + CACHE_LINE)
    })
    .take_while(move |&line| line < end)
}

/// Starts loading every cache line that holds a byte of `start..start +
/// len`, without waiting for any of them, so the lines arrive in parallel
/// instead of as a chain of dependent misses. Only a hint: it reads
/// nothing the program sees, and is compiled out under loom, under miri
/// and on targets other than x86_64.
#[inline(always)]
pub(crate) fn prefetch_span(start: *const u8, len: usize) {
    for line in lines(start.addr(), len) {
        #[cfg(all(target_arch = "x86_64", not(loom), not(miri)))]
        // SAFETY: a prefetch is a hint; it faults on no address.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(start.with_addr(line).cast());
        }
        #[cfg(not(all(target_arch = "x86_64", not(loom), not(miri))))]
        let _ = line;
    }
}

/// The opaque pointee type of a child word: an [`Internal`] node, or a
/// [`Leaf`] when the word carries [`LEAF_TAG`]. Never constructed; only its
/// alignment matters (it leaves the tag bit free in every child word).
#[repr(align(8))]
pub(crate) struct Node<K, V>(PhantomData<(K, V)>);

/// A loaded (or freshly built) child word.
pub(crate) type NodePtr<'g, K, V> = Shared<'g, Node<K, V>>;

/// A child word resolved to the node it names.
pub(crate) enum NodeRef<'g, K, V> {
    /// A routing node.
    Internal(&'g Internal<K, V>),
    /// A leaf.
    Leaf(&'g Leaf<K, V>),
}

/// The child word naming `node`.
pub(crate) fn internal_ptr<'g, K, V>(node: *const Internal<K, V>) -> NodePtr<'g, K, V> {
    // SAFETY: a plain untagged pointer word; dereferencing it later is
    // justified at each use.
    unsafe { Shared::from_data(node as usize) }
}

/// The child word naming `leaf` (tagged as a leaf).
pub(crate) fn leaf_ptr<'g, K, V>(leaf: *const Leaf<K, V>) -> NodePtr<'g, K, V> {
    // SAFETY: as in `internal_ptr`; leaves are at least 8-aligned, so the
    // tag bit is free.
    unsafe { Shared::from_data(leaf as usize | LEAF_TAG) }
}

/// Operations on child words.
pub(crate) trait NodePtrExt<'g, K, V> {
    /// Whether the word names a leaf (no memory access).
    fn is_leaf(&self) -> bool;
    /// Resolves the word to the node it names.
    ///
    /// # Safety
    ///
    /// The word is non-null and its node is live for `'g`: guard-protected,
    /// unpublished and owned by the caller, or owned at teardown.
    unsafe fn node(self) -> NodeRef<'g, K, V>;
    /// Hands the single node the word names (not its children) to the
    /// guard's collector.
    ///
    /// # Safety
    ///
    /// As [`Guard::defer_destroy`]: the node is unlinked and retired once.
    unsafe fn retire(self, guard: &Guard);
    /// Frees the node the word names and, for an internal node, the whole
    /// subtree under it with everything its nodes own (see
    /// [`Internal::free_below`]).
    ///
    /// # Safety
    ///
    /// The caller owns the subtree exclusively (never published, or
    /// teardown) and no part of it is freed twice.
    unsafe fn free_subtree(self);
}

impl<'g, K, V> NodePtrExt<'g, K, V> for NodePtr<'g, K, V> {
    #[inline]
    fn is_leaf(&self) -> bool {
        self.tag() & LEAF_TAG != 0
    }

    // SAFETY: callers uphold the trait's `# Safety` contract.
    #[inline]
    unsafe fn node(self) -> NodeRef<'g, K, V> {
        if self.is_leaf() {
            // SAFETY: the tag says the word was made by `leaf_ptr`; liveness
            // is the caller's contract.
            NodeRef::Leaf(unsafe { &*self.as_raw().cast::<Leaf<K, V>>() })
        } else {
            // SAFETY: untagged words are made by `internal_ptr`, as above.
            NodeRef::Internal(unsafe { &*self.as_raw().cast::<Internal<K, V>>() })
        }
    }

    unsafe fn retire(self, guard: &Guard) {
        // SAFETY: the typed pointer is the allocation `leaf_ptr` or
        // `internal_ptr` was given; unlinked and unique per the contract.
        unsafe {
            if self.is_leaf() {
                guard.defer_destroy(Shared::<Leaf<K, V>>::from_data(self.as_raw() as usize));
            } else {
                guard.defer_destroy(Shared::<Internal<K, V>>::from_data(self.as_raw() as usize));
            }
        }
    }

    unsafe fn free_subtree(self) {
        // SAFETY: per the contract.
        unsafe { free_all::<K, V>(vec![self.into_data()]) };
    }
}

/// Frees every node under the child words on `stack`, with what the
/// internal ones own ([`Internal::release`]), once each.
///
/// # Safety
///
/// As [`NodePtrExt::free_subtree`], for every word on `stack`.
unsafe fn free_all<K, V>(mut stack: Vec<usize>) {
    // Explicit stack: a never-rebalanced subtree can be O(n) deep.
    while let Some(word) = stack.pop() {
        // SAFETY: every word on the stack is an owned, not-yet-freed node.
        let ptr: NodePtr<'_, K, V> = unsafe { Shared::from_data(word) };
        // SAFETY: a `Box` allocation (`alloc_box` in `Leaf::into_ptr` or
        // `Internal::into_ptr`) that nothing else frees.
        unsafe {
            if ptr.is_leaf() {
                drop(Box::from_raw(ptr.as_raw() as *mut Leaf<K, V>));
            } else {
                Box::from_raw(ptr.as_raw() as *mut Internal<K, V>).release(&mut stack);
            }
        }
    }
}

/// A routing node of the EFRB tree (the paper's `Internal` type; Figure 7
/// lines 5–9).
pub struct Internal<K, V> {
    /// Immutable routing key (real or sentinel).
    pub(crate) key: SentinelKey<K>,
    /// The update field: `state` in the 2 tag bits, Info pointer above
    /// (Figure 7 lines 1–4: "stored in one CAS word").
    pub(crate) update: Atomic<Info<K, V>>,
    /// Left child word; never null once published.
    pub(crate) left: Atomic<Node<K, V>>,
    /// Right child word; never null once published.
    pub(crate) right: Atomic<Node<K, V>>,
}

// SAFETY: internal nodes are immutable except through their atomic fields;
// sharing them across threads is exactly the algorithm's design, provided
// keys and values can be shared.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for Internal<K, V> {}
// SAFETY: as for `Send` above.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for Internal<K, V> {}

impl<K, V> Internal<K, V> {
    /// An internal node over two child words (already-allocated nodes;
    /// ownership transfers to the tree once this node is published).
    pub(crate) fn new(
        key: SentinelKey<K>,
        left: NodePtr<'_, K, V>,
        right: NodePtr<'_, K, V>,
    ) -> Internal<K, V> {
        let node = Internal {
            key,
            update: Atomic::null(),
            left: Atomic::null(),
            right: Atomic::null(),
        };
        node.left.store(left, Ordering::Relaxed);
        node.right.store(right, Ordering::Relaxed);
        node
    }

    /// Moves the node to the heap (a recycled block when this thread has
    /// one); returns its (unpublished) child word.
    pub(crate) fn into_ptr<'g>(self) -> NodePtr<'g, K, V> {
        internal_ptr(nbbst_reclaim::alloc_box(self))
    }

    /// Teardown: frees everything below this node, the node itself
    /// excepted, and everything the freed nodes own, in one pass that
    /// visits each node once.
    ///
    /// # Safety
    ///
    /// The caller owns the tree under this node exclusively (`&mut` to
    /// the tree, or never published) and frees none of it again.
    pub(crate) unsafe fn free_below(&self) {
        let mut stack = Vec::new();
        // SAFETY: per the contract.
        unsafe {
            self.release(&mut stack);
            free_all::<K, V>(stack);
        }
    }

    /// Frees what this node owns besides its children, and pushes the
    /// child words it owns onto `stack`.
    ///
    /// The node owns the Info record in its update word, which was never
    /// retired (a record is retired only when a later flag or mark
    /// displaces it) — unless the word is a Mark: then the grandparent's
    /// DFlag word holds the same DInfo for as long as this node is
    /// reachable, since the dchild that unlinks it precedes the dunflag.
    /// A flagged IInfo also owns its replacement while the ichild has not
    /// spliced it in, that is while neither child word names it.
    ///
    /// # Safety
    ///
    /// As [`Internal::free_below`].
    unsafe fn release(&self, stack: &mut Vec<usize>) {
        // SAFETY: teardown-only guard; exclusive access per the contract.
        let guard = unsafe { nbbst_reclaim::unprotected() };
        // Relaxed: exclusive access.
        let children = [&self.left, &self.right].map(|c| c.load(Ordering::Relaxed, &guard));
        let u = self.update.load(Ordering::Relaxed, &guard);
        if !u.is_null() && u.state() != State::Mark {
            // SAFETY: an owned, never-retired record (see above), a `Box`
            // allocation (`Owned::new`).
            let info = unsafe { Box::from_raw(u.with_tag(0).as_raw() as *mut Info<K, V>) };
            if let (State::IFlag, Info::Insert(i)) = (u.state(), &*info) {
                let new = i.new_word();
                if !children.contains(&new) {
                    stack.push(new.into_data());
                }
            }
        }
        stack.extend(children.map(|c| c.into_data()));
    }

    /// Loads this node's update word.
    ///
    /// `Acquire`: a non-Clean word's Info record is dereferenced by helpers,
    /// so this load must synchronize with the `Release` flag CAS that
    /// published the record.
    pub(crate) fn load_update<'g>(&self, guard: &'g Guard) -> UpdateRef<'g, K, V> {
        self.update.load(Ordering::Acquire, guard)
    }

    /// Loads a child word. Never null.
    ///
    /// `Acquire`: the child is dereferenced by every traversal, so this load
    /// must synchronize with the `Release` ichild/dchild CAS that spliced
    /// the node in (which is what makes its initialization visible).
    pub(crate) fn load_child<'g>(&self, left: bool, guard: &'g Guard) -> NodePtr<'g, K, V> {
        if left {
            self.left.load(Ordering::Acquire, guard)
        } else {
            self.right.load(Ordering::Acquire, guard)
        }
    }
}

impl<K: Ord, V> Internal<K, V> {
    /// The routing step (Figure 8 line 32): loads the child word on
    /// `key`'s side of this node, left iff `key` sorts below the routing
    /// key. `Search`, the stepped `Find` and `state_of_internal` all
    /// descend through it.
    #[inline]
    pub(crate) fn child_toward<'g>(&self, key: &K, guard: &'g Guard) -> NodePtr<'g, K, V> {
        self.load_child(real_vs_node(key, &self.key) == CmpOrdering::Less, guard)
    }
}

impl<K: fmt::Debug, V> fmt::Debug for Internal<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Internal")
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

/// Which sentinel a sentinel leaf holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inf {
    One,
    Two,
}

/// An immutable leaf: up to [`LEAF_CAPACITY`] real entries sorted by key,
/// or exactly one sentinel (`∞1` or `∞2`, Figure 6). Sentinels never share
/// a leaf with real keys: an insert into a sentinel leaf always splits it,
/// which is the paper's Figure 6 step at every capacity.
pub struct Leaf<K, V> {
    /// Length of the initialized prefix of `keys` and `values`.
    filled: usize,
    /// `Some` for the two sentinel leaves, which hold no real entries.
    sentinel: Option<Inf>,
    keys: [MaybeUninit<K>; LEAF_CAPACITY],
    values: [MaybeUninit<V>; LEAF_CAPACITY],
}

// SAFETY: leaves are never mutated after publication; sharing them is
// sound whenever keys and values can be shared.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for Leaf<K, V> {}
// SAFETY: as for `Send` above.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for Leaf<K, V> {}

impl<K, V> Leaf<K, V> {
    fn empty(sentinel: Option<Inf>) -> Leaf<K, V> {
        Leaf {
            filled: 0,
            sentinel,
            keys: [const { MaybeUninit::uninit() }; LEAF_CAPACITY],
            values: [const { MaybeUninit::uninit() }; LEAF_CAPACITY],
        }
    }

    /// The sentinel leaf holding `key` (`∞1` or `∞2`).
    ///
    /// # Panics
    ///
    /// Panics on a real key.
    pub(crate) fn sentinel(key: &SentinelKey<K>) -> Leaf<K, V> {
        Leaf::empty(Some(match key {
            SentinelKey::Inf1 => Inf::One,
            SentinelKey::Inf2 => Inf::Two,
            SentinelKey::Key(_) => panic!("a sentinel leaf needs a sentinel key"),
        }))
    }

    /// A leaf holding `entries`, which must be sorted by strictly
    /// increasing key, at most [`LEAF_CAPACITY`] of them.
    pub(crate) fn with_entries(entries: impl IntoIterator<Item = (K, V)>) -> Leaf<K, V> {
        let mut leaf = Leaf::empty(None);
        for (k, v) in entries {
            assert!(leaf.filled < LEAF_CAPACITY, "leaf overflow");
            leaf.keys[leaf.filled].write(k);
            leaf.values[leaf.filled].write(v);
            // Bumped only once both slots are written: if a `clone`
            // upstream panics, `drop` sees only initialized slots.
            leaf.filled += 1;
        }
        leaf
    }

    /// Moves the leaf to the heap (a recycled block when this thread has
    /// one); returns its (unpublished) child word.
    pub(crate) fn into_ptr<'g>(self) -> NodePtr<'g, K, V> {
        leaf_ptr(nbbst_reclaim::alloc_box(self))
    }

    /// Starts loading every line of the leaf, so that a lookup's misses
    /// overlap instead of following one binary-search probe after another.
    /// The whole leaf: `Leaf::get` reads the `filled` header and the key
    /// slots, its callers and `Leaf::replacement` read values too, and
    /// header and keys alone ran no faster (`BENCH_leaf_prefetch.json`).
    #[inline(always)]
    pub(crate) fn prefetch(&self) {
        prefetch_span(std::ptr::from_ref(self).cast(), size_of::<Self>());
    }

    /// The real keys, ascending (empty for a sentinel leaf).
    #[inline]
    pub(crate) fn keys(&self) -> &[K] {
        // SAFETY: the first `len` slots are initialized and never change.
        unsafe { std::slice::from_raw_parts(self.keys.as_ptr().cast::<K>(), self.filled) }
    }

    /// The values, index-aligned with [`Leaf::keys`].
    #[inline]
    pub(crate) fn values(&self) -> &[V] {
        // SAFETY: as in `keys`.
        unsafe { std::slice::from_raw_parts(self.values.as_ptr().cast::<V>(), self.filled) }
    }

    /// The real entries in key order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&K, &V)> {
        self.keys().iter().zip(self.values())
    }

    /// The sentinel key of a sentinel leaf.
    pub(crate) fn sentinel_key(&self) -> Option<SentinelKey<K>> {
        self.sentinel.map(|s| match s {
            Inf::One => SentinelKey::Inf1,
            Inf::Two => SentinelKey::Inf2,
        })
    }

    /// Entries held, the sentinel included.
    pub(crate) fn len(&self) -> usize {
        self.filled + usize::from(self.sentinel.is_some())
    }
}

impl<K: Ord, V> Leaf<K, V> {
    /// The value stored under `key`, if this leaf holds it.
    #[inline]
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        let i = self.keys().binary_search(key).ok()?;
        Some(&self.values()[i])
    }

    /// Whether this leaf sorts below `routing` (it belongs in a left
    /// subtree of a node keyed `routing`). Leaves are never empty, so one
    /// entry decides.
    fn goes_left_of(&self, routing: &SentinelKey<K>) -> bool {
        match (self.keys().first(), self.sentinel_key()) {
            (Some(k), _) => real_vs_node(k, routing) == CmpOrdering::Less,
            (None, Some(s)) => s < *routing,
            (None, None) => unreachable!("leaves are never empty"),
        }
    }
}

/// What an update does: the input of the update step machine
/// (`tree::Update`) and of [`Leaf::replacement`].
pub(crate) enum Edit<'a, K, V> {
    /// Add an absent key.
    Insert(&'a K, &'a V),
    /// Drop a present key.
    Remove(&'a K),
}

impl<K, V> Clone for Edit<'_, K, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K, V> Copy for Edit<'_, K, V> {}

impl<'a, K, V> Edit<'a, K, V> {
    /// The key the update is for.
    pub(crate) fn key(&self) -> &'a K {
        match *self {
            Edit::Insert(key, _) | Edit::Remove(key) => key,
        }
    }
}

impl<K: Ord + Clone, V: Clone> Leaf<K, V> {
    /// Builds, unpublished, the node that replaces this leaf for `edit` —
    /// the `new` subtree of an IInfo record. It is a copy with one entry
    /// more or one fewer, or, when an insert finds the leaf full (a
    /// sentinel leaf always is), an internal node over two half leaves
    /// keyed by the right half's first key: Figure 1, generalised. At
    /// capacity 1 that is exactly Figure 1.
    ///
    /// Called from the update machine's flag step (`tree::Update`), which
    /// the public operations and the stepped drivers share.
    pub(crate) fn replacement<'g>(
        &self,
        edit: Edit<'_, K, V>,
        capacity: usize,
    ) -> NodePtr<'g, K, V> {
        let cloned = |(k, v): (&K, &V)| (k.clone(), v.clone());
        let (key, value) = match edit {
            Edit::Remove(key) => {
                debug_assert!(
                    self.filled >= 2,
                    "a one-entry leaf leaves by the delete circuit"
                );
                let kept = self.entries().filter(|(k, _)| *k != key).map(cloned);
                return Leaf::with_entries(kept).into_ptr();
            }
            Edit::Insert(key, value) => (key, value),
        };
        if let Some(sentinel) = self.sentinel_key() {
            // `[key]` and a fresh copy of the sentinel leaf under a node
            // keyed by the sentinel (Figure 6(a) -> (b)).
            let left = Leaf::with_entries([cloned((key, value))]).into_ptr();
            let right = Leaf::sentinel(&sentinel).into_ptr();
            return Internal::new(sentinel, left, right).into_ptr();
        }
        let at = self.keys().partition_point(|k| k < key);
        let mut merged = self
            .entries()
            .take(at)
            .chain(std::iter::once((key, value)))
            .chain(self.entries().skip(at))
            .map(cloned);
        if self.filled < capacity {
            return Leaf::with_entries(merged).into_ptr();
        }
        let total = self.filled + 1;
        let left = Leaf::with_entries(merged.by_ref().take(total / 2));
        let right = Leaf::with_entries(merged);
        let routing = SentinelKey::Key(right.keys()[0].clone());
        Internal::new(routing, left.into_ptr(), right.into_ptr()).into_ptr()
    }
}

impl<K, V> Drop for Leaf<K, V> {
    fn drop(&mut self) {
        for i in 0..self.filled {
            // SAFETY: the first `len` slots are initialized and dropped
            // exactly once, here.
            unsafe {
                self.keys[i].assume_init_drop();
                self.values[i].assume_init_drop();
            }
        }
    }
}

impl<K: fmt::Debug, V> fmt::Debug for Leaf<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Leaf")
            .field("keys", &self.keys())
            .field("sentinel", &self.sentinel)
            .finish_non_exhaustive()
    }
}

impl<K: Ord, V> NodeRef<'_, K, V> {
    /// Whether this node sorts below `routing` — the side `CAS-Child`
    /// (Figure 9 lines 113–118) picks for it under a node keyed `routing`.
    pub(crate) fn goes_left_of(&self, routing: &SentinelKey<K>) -> bool {
        match self {
            NodeRef::Internal(n) => n.key < *routing,
            NodeRef::Leaf(l) => l.goes_left_of(routing),
        }
    }
}

/// A loaded update word: an Info pointer (possibly null) plus a [`State`]
/// in the tag bits.
pub(crate) type UpdateRef<'g, K, V> = Shared<'g, Info<K, V>>;

/// Extension helpers for update words.
pub(crate) trait UpdateWordExt {
    /// The state encoded in the tag bits.
    fn state(&self) -> State;
}

impl<K, V> UpdateWordExt for UpdateRef<'_, K, V> {
    fn state(&self) -> State {
        State::from_tag(self.tag())
    }
}

/// An Info record: "enough information for other processes to help complete
/// the operation" (Section 3). Published by flag CAS steps; every flag
/// stores a pointer to a *fresh* record.
pub enum Info<K, V> {
    /// Published by an `iflag` CAS (Figure 7 lines 14–16).
    Insert(IInfo<K, V>),
    /// Published by a `dflag` CAS (Figure 7 lines 17–19).
    Delete(DInfo<K, V>),
}

// SAFETY: Info records hold raw pointers into the tree; they are shared
// between threads by design, protected by the epoch collector.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for Info<K, V> {}
// SAFETY: as for `Send` above.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for Info<K, V> {}

impl<K, V> Info<K, V> {
    /// Views this record as an `IInfo`.
    ///
    /// # Panics
    ///
    /// Panics if this is a `DInfo`; callers dispatch on the state tag,
    /// which the proof shows always agrees with the record type.
    pub(crate) fn as_insert(&self) -> &IInfo<K, V> {
        match self {
            Info::Insert(i) => i,
            Info::Delete(_) => panic!("IFlag state with DInfo record"),
        }
    }

    /// Views this record as a `DInfo`.
    ///
    /// # Panics
    ///
    /// Panics if this is an `IInfo`.
    pub(crate) fn as_delete(&self) -> &DInfo<K, V> {
        match self {
            Info::Delete(d) => d,
            Info::Insert(_) => panic!("DFlag/Mark state with IInfo record"),
        }
    }
}

impl<K, V> fmt::Debug for Info<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Info::Insert(_) => f.write_str("Info::Insert"),
            Info::Delete(_) => f.write_str("Info::Delete"),
        }
    }
}

/// What a leaf replacement's helpers need (Figure 7 lines 14–16): the
/// parent to unflag, the leaf to replace, and its replacement. Every
/// Insert, and every Delete that leaves its leaf non-empty, runs this
/// circuit.
pub struct IInfo<K, V> {
    /// The flagged parent whose child pointer changes.
    pub(crate) p: *const Internal<K, V>,
    /// The leaf being replaced.
    pub(crate) l: *const Leaf<K, V>,
    /// Child word of the replacement: a leaf copy, or a split subtree
    /// (the paper's `newInternal`).
    pub(crate) new: usize,
}

impl<K, V> IInfo<K, V> {
    /// The replaced leaf's child word.
    pub(crate) fn leaf_word<'g>(&self) -> NodePtr<'g, K, V> {
        leaf_ptr(self.l)
    }

    /// The replacement's child word.
    pub(crate) fn new_word<'g>(&self) -> NodePtr<'g, K, V> {
        // SAFETY: `new` was produced by `into_data` of a child word.
        unsafe { Shared::from_data(self.new) }
    }

    /// The flagged parent.
    pub(crate) fn parent(&self) -> &Internal<K, V> {
        // SAFETY: a reader reached this record through `p`'s flagged word
        // under its guard; `p` cannot be unlinked while flagged, so it is
        // retired, if ever, after that read and outlives the guard.
        unsafe { &*self.p }
    }
}

/// What a deletion's helpers need (Figure 7 lines 17–19): the grandparent
/// (flagged), parent (to mark), leaf (to delete), and the parent's update
/// word as seen by the deleter's `Search` (`pupdate`), used as the expected
/// value of the mark CAS. Only a Delete that would empty its leaf runs
/// this circuit.
pub struct DInfo<K, V> {
    /// The flagged grandparent whose child pointer changes.
    pub(crate) gp: *const Internal<K, V>,
    /// The parent, to be marked and spliced out.
    pub(crate) p: *const Internal<K, V>,
    /// The one-entry leaf being deleted.
    pub(crate) l: *const Leaf<K, V>,
    /// Copy of `p`'s update word (pointer bits + state tag) observed by the
    /// deleter's `Search`; the paper's `pupdate` field.
    pub(crate) pupdate: usize,
}

impl<K, V> DInfo<K, V> {
    /// Reconstructs the stored `pupdate` word as a `Shared` usable as the
    /// expected value of the mark CAS.
    ///
    /// Only ever compared and, after a failed mark, helped through the
    /// live word the CAS returned. Nothing keeps the Info record it names
    /// alive, so a freed and reused address can make the comparison succeed
    /// wrongly: the open Info-record ABA (DESIGN.md §2).
    pub(crate) fn pupdate_word<'g>(&self, _guard: &'g Guard) -> UpdateRef<'g, K, V> {
        // SAFETY: the word was produced by `Shared::into_data` of an update
        // word; we use it as a CAS comparand.
        unsafe { Shared::from_data(self.pupdate) }
    }

    /// The deleted leaf's child word.
    pub(crate) fn leaf_word<'g>(&self) -> NodePtr<'g, K, V> {
        leaf_ptr(self.l)
    }

    /// The flagged grandparent and the parent to mark.
    pub(crate) fn nodes(&self) -> (&Internal<K, V>, &Internal<K, V>) {
        // SAFETY: a reader reached this record through `gp`'s flagged word
        // or `p`'s marked word under its guard; `gp` is unlinked only
        // after being unflagged and `p` only after being marked, both
        // after that read, so both outlive the guard.
        unsafe { (&*self.gp, &*self.p) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbbst_reclaim::{Collector, Owned};

    fn leaf(keys: &[u64]) -> Leaf<u64, u64> {
        Leaf::with_entries(keys.iter().map(|&k| (k, k * 10)))
    }

    /// Keys of an unpublished replacement, as `(routing, left, right)` for
    /// a split or `(None, keys, [])` for a copy; frees it.
    fn shape(ptr: NodePtr<'_, u64, u64>) -> (Option<SentinelKey<u64>>, Vec<u64>, Vec<u64>) {
        let guard = unsafe { nbbst_reclaim::unprotected() };
        let out = match unsafe { ptr.node() } {
            NodeRef::Leaf(l) => (None, l.keys().to_vec(), vec![]),
            NodeRef::Internal(n) => {
                let side = |left| match unsafe { n.load_child(left, &guard).node() } {
                    NodeRef::Leaf(l) => l.keys().to_vec(),
                    NodeRef::Internal(_) => panic!("split children are leaves"),
                };
                (Some(n.key), side(true), side(false))
            }
        };
        unsafe { ptr.free_subtree() };
        out
    }

    #[test]
    fn info_alignment_leaves_room_for_state_tags() {
        // Two tag bits require 4-byte alignment; Info holds pointers, so it
        // is at least machine-word aligned.
        assert!(std::mem::align_of::<Info<u64, u64>>() >= 4);
        assert!(nbbst_reclaim::low_bits::<Info<u64, u64>>() >= 3);
    }

    #[test]
    fn child_words_tell_leaves_from_internal_nodes() {
        assert!(std::mem::align_of::<Leaf<u8, u8>>() >= 2);
        assert!(std::mem::align_of::<Internal<u8, u8>>() >= 2);
        let l = leaf(&[5]).into_ptr();
        let r = Leaf::<u64, u64>::sentinel(&SentinelKey::Inf1).into_ptr();
        let word = Internal::new(SentinelKey::Inf1, l, r).into_ptr();
        assert!(!word.is_leaf());
        assert!(l.is_leaf());
        assert_eq!(leaf_ptr::<u64, u64>(l.as_raw().cast()), l);
        match unsafe { r.node() } {
            NodeRef::Leaf(s) => {
                assert_eq!(s.sentinel_key(), Some(SentinelKey::Inf1));
                assert_eq!(s.len(), 1);
            }
            NodeRef::Internal(_) => panic!("tagged word resolved to an internal node"),
        }
        unsafe { word.free_subtree() };
    }

    #[test]
    fn leaf_lookup_and_drop() {
        let l = leaf(&[1, 3, 5]);
        assert_eq!(l.get(&3), Some(&30));
        assert_eq!(l.get(&4), None);
        assert_eq!(l.len(), 3);
        assert_eq!(l.entries().count(), 3);
    }

    /// Wherever `leaf` starts within its cache line, the lines
    /// `Leaf::prefetch` loads hold every byte of its `filled` header, key
    /// slots and value slots, and each lies within the leaf's extent.
    fn assert_prefetch_covers<K, V>(leaf: &Leaf<K, V>) {
        let size = size_of::<Leaf<K, V>>();
        let offset = |field: *const u8| field.addr() - std::ptr::from_ref(leaf).addr();
        let mut fields = vec![(
            offset(std::ptr::from_ref(&leaf.filled).cast()),
            size_of::<usize>(),
        )];
        fields.extend(
            leaf.keys
                .iter()
                .map(|k| (offset(k.as_ptr().cast()), size_of::<K>())),
        );
        fields.extend(
            leaf.values
                .iter()
                .map(|v| (offset(v.as_ptr().cast()), size_of::<V>())),
        );
        for base in (CACHE_LINE..2 * CACHE_LINE).step_by(std::mem::align_of::<Leaf<K, V>>()) {
            let loaded: Vec<usize> = lines(base, size).collect();
            for &(at, len) in &fields {
                assert!(at + len <= size);
                for byte in base + at..base + at + len {
                    assert!(loaded.contains(&(byte - byte % CACHE_LINE)));
                }
            }
            assert!(loaded
                .iter()
                .all(|&l| l + CACHE_LINE > base && l < base + size));
        }
    }

    #[test]
    fn prefetch_span_covers_the_header_and_every_slot() {
        assert_prefetch_covers(&leaf(&[1, 2, 3]));
        assert_prefetch_covers(&Leaf::<[u64; 4], u64>::with_entries([([7; 4], 7)]));
        assert_prefetch_covers(&Leaf::<String, u8>::with_entries([("k".to_string(), 1)]));
        assert_prefetch_covers(&Leaf::<u8, [u64; 3]>::sentinel(&SentinelKey::Inf1));
    }

    #[test]
    fn finds_match_btreemap_at_every_fill_level() {
        use crate::tree::NbBst;
        use std::collections::BTreeMap;
        for sentinel in [SentinelKey::Inf1, SentinelKey::Inf2] {
            assert_eq!(Leaf::<u64, u64>::sentinel(&sentinel).get(&0), None);
        }
        // An empty tree's every search ends at the ∞1 sentinel leaf.
        let empty: NbBst<u64, u64> = NbBst::new();
        assert!(!empty.contains_key(&0) && !empty.contains_key(&u64::MAX));
        assert_eq!(empty.get_cloned(&1), None);
        for fill in 1..=LEAF_CAPACITY as u64 {
            let tree = NbBst::new();
            let mut model = BTreeMap::new();
            for k in (1..=fill).map(|i| 2 * i) {
                tree.insert_entry(k, k * 10).expect("fresh key");
                model.insert(k, k * 10);
            }
            // Root, the ∞1 node, then one leaf holding all `fill` entries.
            assert_eq!(tree.height(), 2);
            for probe in 0..=2 * fill + 1 {
                assert_eq!(tree.contains_key(&probe), model.contains_key(&probe));
                assert_eq!(tree.get_cloned(&probe), model.get(&probe).copied());
            }
        }
    }

    #[test]
    fn replacement_copies_a_non_full_leaf() {
        let l = leaf(&[1, 5]);
        assert_eq!(
            shape(l.replacement(Edit::Insert(&3, &30), 4)),
            (None, vec![1, 3, 5], vec![])
        );
        assert_eq!(
            shape(l.replacement(Edit::Remove(&1), 4)),
            (None, vec![5], vec![])
        );
    }

    #[test]
    fn replacement_splits_a_full_leaf_keyed_by_the_right_half() {
        let l = leaf(&[1, 2, 4, 5]);
        assert_eq!(
            shape(l.replacement(Edit::Insert(&3, &30), 4)),
            (Some(SentinelKey::Key(3)), vec![1, 2], vec![3, 4, 5])
        );
    }

    #[test]
    fn capacity_one_replacement_is_figure_1() {
        // The new internal node takes the larger key; the smaller key's
        // leaf goes left (Figure 1), whichever side the new key is on.
        assert_eq!(
            shape(leaf(&[10]).replacement(Edit::Insert(&5, &50), 1)),
            (Some(SentinelKey::Key(10)), vec![5], vec![10])
        );
        assert_eq!(
            shape(leaf(&[10]).replacement(Edit::Insert(&20, &200), 1)),
            (Some(SentinelKey::Key(20)), vec![10], vec![20])
        );
    }

    #[test]
    fn sentinel_leaves_always_split_under_their_sentinel() {
        let s: Leaf<u64, u64> = Leaf::sentinel(&SentinelKey::Inf1);
        assert_eq!(
            shape(s.replacement(Edit::Insert(&7, &70), LEAF_CAPACITY)),
            (Some(SentinelKey::Inf1), vec![7], vec![])
        );
    }

    #[test]
    fn update_word_state_roundtrips_through_tags() {
        let collector = Collector::new();
        let guard = collector.pin();
        let n: Internal<u64, u64> =
            Internal::new(SentinelKey::Inf2, NodePtr::null(), NodePtr::null());
        let clean = n.load_update(&guard);
        assert_eq!(clean.state(), State::Clean);
        assert!(clean.is_null());

        let info = Owned::new(Info::<u64, u64>::Insert(IInfo {
            p: std::ptr::null(),
            l: std::ptr::null(),
            new: 0,
        }))
        .with_tag(State::IFlag.tag());
        n.update
            .compare_exchange(clean, info, Ordering::Release, Ordering::Relaxed, &guard)
            .expect("flag an unflagged node");
        let flagged = n.load_update(&guard);
        assert_eq!(flagged.state(), State::IFlag);
        assert!(!flagged.is_null());
        unsafe { guard.defer_destroy(flagged) };
    }

    #[test]
    #[should_panic(expected = "IFlag state with DInfo record")]
    fn as_insert_rejects_dinfo() {
        let d: Info<u64, u64> = Info::Delete(DInfo {
            gp: std::ptr::null(),
            p: std::ptr::null(),
            l: std::ptr::null(),
            pupdate: 0,
        });
        let _ = d.as_insert();
    }
}
