//! Dictionary abstractions shared across the `nbbst` workspace.
//!
//! The paper reproduced by this workspace — Ellen, Fatourou, Ruppert and
//! van Breugel, *Non-blocking Binary Search Trees*, PODC 2010 — implements
//! the **dictionary** abstract data type: a set of keys drawn from a totally
//! ordered universe supporting `Insert(k)`, `Delete(k)` and `Find(k)`
//! (Section 3 of the paper), optionally carrying auxiliary data with each
//! key.
//!
//! This crate defines that abstract data type as two traits so that the
//! EFRB tree, every baseline, and the sequential reference models can be
//! driven by one benchmark harness and checked against one another:
//!
//! * [`ConcurrentMap`] — thread-safe dictionaries operated through `&self`.
//! * [`SeqMap`] — single-threaded reference models operated through
//!   `&mut self`.
//!
//! It also defines the [`Operation`]/[`Response`] vocabulary used to record
//! histories for linearizability checking, and the [`ShardRoute`] key →
//! shard splitter behind horizontally partitioned frontends
//! ([`FibonacciRoute`] is its hash-mixed implementation).
//!
//! # Semantics
//!
//! All implementations follow the paper's dictionary semantics exactly:
//!
//! * `insert(k, v)` returns `true` and adds the key iff `k` was absent;
//!   inserting a duplicate key returns `false` **and does not overwrite the
//!   existing value** (the paper's `Insert` returns `False` on duplicates).
//! * `remove(k)` returns `true` and removes the key iff `k` was present.
//! * `contains(k)` / `get(k)` report membership / the associated value and
//!   never modify the dictionary.
//!
//! # Examples
//!
//! ```
//! use nbbst_dictionary::{SeqMap, Operation, Response};
//!
//! // Any `SeqMap` can replay a recorded operation.
//! let mut model = std::collections::BTreeMap::new();
//! assert_eq!(Operation::Insert(5u64, 50u64).apply_seq(&mut model), Response::True);
//! assert_eq!(Operation::Contains(5).apply_seq(&mut model), Response::True);
//! assert_eq!(Operation::Remove(5).apply_seq(&mut model), Response::True);
//! assert_eq!(Operation::Remove(5).apply_seq(&mut model), Response::False);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod route;
mod sentinel;

pub use route::{FibonacciRoute, ShardRoute};
pub use sentinel::{real_vs_node, SentinelKey};

use std::collections::BTreeMap;
use std::fmt;

/// A thread-safe dictionary (ordered-set-with-values) operated through
/// shared references.
///
/// Every concurrent structure in this workspace — the EFRB tree and all
/// baselines — implements this trait, which mirrors the paper's dictionary
/// interface (`Insert`/`Delete`/`Find`).
///
/// # Examples
///
/// Implementations are exercised generically; see the `nbbst-harness` crate
/// for workload runners built on this trait.
///
/// ```
/// use nbbst_dictionary::ConcurrentMap;
///
/// fn smoke<M: ConcurrentMap<u64, u64> + Default>() {
///     let m = M::default();
///     assert!(m.insert(1, 10));
///     assert!(!m.insert(1, 11)); // duplicate: rejected, not overwritten
///     assert_eq!(m.get(&1), Some(10));
///     assert!(m.remove(&1));
///     assert!(!m.contains(&1));
/// }
/// ```
pub trait ConcurrentMap<K, V>: Send + Sync {
    /// Adds `key` (with `value`) to the dictionary.
    ///
    /// Returns `true` if the key was inserted, `false` if it was already
    /// present (in which case the stored value is left untouched, matching
    /// the paper's duplicate-rejecting `Insert`).
    fn insert(&self, key: K, value: V) -> bool;

    /// Removes `key` from the dictionary.
    ///
    /// Returns `true` if the key was present (and has been removed),
    /// `false` otherwise.
    fn remove(&self, key: &K) -> bool;

    /// Returns `true` iff `key` is in the dictionary.
    ///
    /// This is the paper's `Find`: it only reads shared memory.
    fn contains(&self, key: &K) -> bool;

    /// Returns a clone of the value associated with `key`, if present.
    fn get(&self, key: &K) -> Option<V>
    where
        V: Clone;

    /// Counts the keys currently in the dictionary.
    ///
    /// This is a *quiescent* operation: implementations may traverse the
    /// whole structure and the result is only meaningful when no concurrent
    /// updates are in flight. It exists for test/validation use, not for the
    /// hot path.
    fn quiescent_len(&self) -> usize;

    /// Returns `true` iff the dictionary holds no keys.
    ///
    /// Quiescent, like [`ConcurrentMap::quiescent_len`].
    fn quiescent_is_empty(&self) -> bool {
        self.quiescent_len() == 0
    }
}

/// A single-threaded dictionary used as a reference model.
///
/// The sequential semantics are identical to [`ConcurrentMap`]; only the
/// receiver differs (`&mut self`), because reference models need no internal
/// synchronization.
///
/// # Examples
///
/// ```
/// use nbbst_dictionary::SeqMap;
///
/// let mut m = std::collections::BTreeMap::new();
/// assert!(SeqMap::insert(&mut m, 3u32, "three"));
/// assert!(!SeqMap::insert(&mut m, 3, "trois"));
/// assert_eq!(SeqMap::get(&m, &3), Some("three"));
/// assert!(SeqMap::remove(&mut m, &3));
/// ```
pub trait SeqMap<K, V> {
    /// Adds `key` (with `value`); returns `false` without overwriting if the
    /// key is already present.
    fn insert(&mut self, key: K, value: V) -> bool;

    /// Removes `key`; returns `true` iff it was present.
    fn remove(&mut self, key: &K) -> bool;

    /// Returns `true` iff `key` is present.
    fn contains(&self, key: &K) -> bool;

    /// Returns a clone of the value associated with `key`, if present.
    fn get(&self, key: &K) -> Option<V>
    where
        V: Clone;

    /// Number of keys currently stored.
    fn len(&self) -> usize;

    /// Returns `true` iff no keys are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Ord, V> SeqMap<K, V> for BTreeMap<K, V> {
    fn insert(&mut self, key: K, value: V) -> bool {
        use std::collections::btree_map::Entry;
        match self.entry(key) {
            Entry::Vacant(e) => {
                e.insert(value);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    fn remove(&mut self, key: &K) -> bool {
        BTreeMap::remove(self, key).is_some()
    }

    fn contains(&self, key: &K) -> bool {
        self.contains_key(key)
    }

    fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        BTreeMap::get(self, key).cloned()
    }

    fn len(&self) -> usize {
        BTreeMap::len(self)
    }
}

/// One dictionary operation, as generated by a workload or recorded in a
/// history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation<K, V> {
    /// `Insert(k, v)` — the paper's `Insert(k)` carrying auxiliary data `v`.
    Insert(K, V),
    /// `Remove(k)` — the paper's `Delete(k)`.
    Remove(K),
    /// `Contains(k)` — the paper's `Find(k)`.
    Contains(K),
}

impl<K, V> Operation<K, V> {
    /// The key this operation targets.
    pub fn key(&self) -> &K {
        match self {
            Operation::Insert(k, _) | Operation::Remove(k) | Operation::Contains(k) => k,
        }
    }

    /// Returns `true` for `Insert` and `Remove` (the paper's "update
    /// operations"), `false` for `Contains`.
    pub fn is_update(&self) -> bool {
        !matches!(self, Operation::Contains(_))
    }

    /// Applies the operation to a concurrent dictionary and returns the
    /// observed [`Response`].
    pub fn apply<M: ConcurrentMap<K, V> + ?Sized>(self, map: &M) -> Response {
        match self {
            Operation::Insert(k, v) => Response::from(map.insert(k, v)),
            Operation::Remove(k) => Response::from(map.remove(&k)),
            Operation::Contains(k) => Response::from(map.contains(&k)),
        }
    }

    /// Applies the operation to a sequential reference model and returns the
    /// expected [`Response`].
    pub fn apply_seq<M: SeqMap<K, V> + ?Sized>(self, map: &mut M) -> Response {
        match self {
            Operation::Insert(k, v) => Response::from(map.insert(k, v)),
            Operation::Remove(k) => Response::from(map.remove(&k)),
            Operation::Contains(k) => Response::from(map.contains(&k)),
        }
    }
}

impl<K: fmt::Display, V> fmt::Display for Operation<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Insert(k, _) => write!(f, "Insert({k})"),
            Operation::Remove(k) => write!(f, "Delete({k})"),
            Operation::Contains(k) => write!(f, "Find({k})"),
        }
    }
}

/// The boolean result of a dictionary operation.
///
/// All three dictionary operations return booleans in the paper (`Find`
/// reports membership; updates report success). A dedicated enum keeps
/// histories self-describing and `Display`-friendly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Response {
    /// The operation returned `true`.
    True,
    /// The operation returned `false`.
    False,
}

impl Response {
    /// The underlying boolean.
    pub fn as_bool(self) -> bool {
        matches!(self, Response::True)
    }
}

impl From<bool> for Response {
    fn from(b: bool) -> Self {
        if b {
            Response::True
        } else {
            Response::False
        }
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.as_bool() { "True" } else { "False" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    /// Minimal ConcurrentMap impl used to test trait plumbing.
    #[derive(Default)]
    struct Locked(Mutex<BTreeMap<u64, u64>>);

    impl ConcurrentMap<u64, u64> for Locked {
        fn insert(&self, key: u64, value: u64) -> bool {
            SeqMap::insert(&mut *self.0.lock().unwrap(), key, value)
        }
        fn remove(&self, key: &u64) -> bool {
            SeqMap::remove(&mut *self.0.lock().unwrap(), key)
        }
        fn contains(&self, key: &u64) -> bool {
            SeqMap::contains(&*self.0.lock().unwrap(), key)
        }
        fn get(&self, key: &u64) -> Option<u64> {
            SeqMap::get(&*self.0.lock().unwrap(), key)
        }
        fn quiescent_len(&self) -> usize {
            SeqMap::len(&*self.0.lock().unwrap())
        }
    }

    #[test]
    fn btreemap_seqmap_duplicate_insert_does_not_overwrite() {
        let mut m = BTreeMap::new();
        assert!(SeqMap::insert(&mut m, 1u64, 10u64));
        assert!(!SeqMap::insert(&mut m, 1, 11));
        assert_eq!(SeqMap::get(&m, &1), Some(10));
    }

    #[test]
    fn btreemap_seqmap_remove_semantics() {
        let mut m = BTreeMap::new();
        assert!(!SeqMap::remove(&mut m, &7u64));
        assert!(SeqMap::insert(&mut m, 7, 70u64));
        assert!(SeqMap::remove(&mut m, &7));
        assert!(!SeqMap::remove(&mut m, &7));
        assert!(SeqMap::is_empty(&m));
    }

    #[test]
    fn operation_apply_matches_apply_seq() {
        let ops = [
            Operation::Insert(1u64, 1u64),
            Operation::Insert(1, 2),
            Operation::Contains(1),
            Operation::Remove(1),
            Operation::Remove(1),
            Operation::Contains(1),
        ];
        let conc = Locked::default();
        let mut seq = BTreeMap::new();
        for op in ops {
            assert_eq!(op.apply(&conc), op.apply_seq(&mut seq), "op {op:?}");
        }
    }

    #[test]
    fn operation_accessors() {
        let op: Operation<u64, u64> = Operation::Insert(9, 90);
        assert_eq!(*op.key(), 9);
        assert!(op.is_update());
        assert!(Operation::<u64, u64>::Remove(3).is_update());
        assert!(!Operation::<u64, u64>::Contains(3).is_update());
    }

    #[test]
    fn response_roundtrip_and_display() {
        assert!(Response::from(true).as_bool());
        assert!(!Response::from(false).as_bool());
        assert_eq!(Response::True.to_string(), "True");
        assert_eq!(Response::False.to_string(), "False");
        assert_eq!(Operation::<u64, u64>::Remove(4).to_string(), "Delete(4)");
    }

    #[test]
    fn quiescent_default_is_empty() {
        let m = Locked::default();
        assert!(m.quiescent_is_empty());
        m.insert(1, 1);
        assert!(!m.quiescent_is_empty());
        assert_eq!(m.quiescent_len(), 1);
    }
}
