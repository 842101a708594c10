//! Tagged atomic pointers for epoch-protected data structures.
//!
//! [`Atomic<T>`] is a nullable atomic pointer to a heap-allocated `T` whose
//! unused low-order bits (guaranteed zero by `T`'s alignment) can carry a
//! small integer *tag*. This is exactly the representation the paper relies
//! on for its `Update` word: "in typical word architectures, if items stored
//! in memory are word-aligned, the two lowest-order bits of a pointer can be
//! used to store the state" (Section 3).
//!
//! Loaded values are [`Shared<'g, T>`] — copies of the pointer whose
//! lifetime is tied to a pin [`Guard`], which is what makes dereferencing
//! them sound: the collector will not free the pointee while the guard
//! lives.

use crate::primitives::{AtomicUsize, Ordering};
use crate::Guard;
use std::fmt;
use std::marker::PhantomData;

/// Number of low bits of a `*mut T` that are always zero, and therefore
/// available for tags.
pub const fn low_bits<T>() -> usize {
    std::mem::align_of::<T>() - 1
}

#[inline]
fn compose<T>(raw: *const T, tag: usize) -> usize {
    debug_assert_eq!(raw as usize & low_bits::<T>(), 0, "misaligned pointer");
    (raw as usize) | (tag & low_bits::<T>())
}

#[inline]
fn decompose<T>(data: usize) -> (*mut T, usize) {
    ((data & !low_bits::<T>()) as *mut T, data & low_bits::<T>())
}

/// An owned, heap-allocated `T` that has not yet been published to shared
/// memory.
///
/// Analogous to `Box<T>` plus a tag. Convert to a [`Shared`] with
/// [`Owned::into_shared`] when installing into an [`Atomic`].
pub struct Owned<T> {
    data: usize,
    _marker: PhantomData<Box<T>>,
}

impl<T> Owned<T> {
    /// Allocates `value` on the heap with tag `0`, reusing a block from
    /// this thread's recycling bin when one is cached (see [`alloc_box`]).
    ///
    /// [`alloc_box`]: crate::alloc_box
    pub fn new(value: T) -> Owned<T> {
        let raw = crate::bins::alloc_box(value);
        Owned {
            data: compose(raw, 0),
            _marker: PhantomData,
        }
    }

    /// Returns the tag.
    pub fn tag(&self) -> usize {
        decompose::<T>(self.data).1
    }

    /// Returns the same allocation with the tag replaced by `tag`
    /// (truncated to the available [`low_bits`]).
    pub fn with_tag(self, tag: usize) -> Owned<T> {
        let (raw, _) = decompose::<T>(self.data);
        let data = compose(raw, tag);
        std::mem::forget(self);
        Owned {
            data,
            _marker: PhantomData,
        }
    }

    /// Publishes the allocation, yielding a [`Shared`] valid for the guard's
    /// lifetime. The allocation is leaked unless subsequently reachable from
    /// the data structure (or reclaimed via [`Guard::defer_destroy`]).
    pub fn into_shared(self, _guard: &Guard) -> Shared<'_, T> {
        let data = self.data;
        std::mem::forget(self);
        Shared {
            data,
            _marker: PhantomData,
        }
    }

    /// Consumes the box and returns the raw tagged pointer value.
    fn into_data(self) -> usize {
        let data = self.data;
        std::mem::forget(self);
        data
    }

    /// The untagged raw pointer.
    pub fn as_raw(&self) -> *mut T {
        decompose::<T>(self.data).0
    }
}

impl<T> std::ops::Deref for Owned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: `Owned` uniquely owns a live allocation.
        unsafe { &*self.as_raw() }
    }
}

impl<T> std::ops::DerefMut for Owned<T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: `Owned` uniquely owns a live allocation.
        unsafe { &mut *self.as_raw() }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        let (raw, _) = decompose::<T>(self.data);
        // SAFETY: `Owned` uniquely owns the allocation; it was produced by
        // `alloc_box` in `Owned::new`, which is a `Box` allocation.
        unsafe { drop(Box::from_raw(raw)) }
    }
}

impl<T: fmt::Debug> fmt::Debug for Owned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Owned")
            .field("tag", &self.tag())
            .field("value", &**self)
            .finish()
    }
}

/// A tagged pointer loaded from an [`Atomic`], valid while the guard `'g`
/// is alive.
pub struct Shared<'g, T> {
    data: usize,
    _marker: PhantomData<(&'g (), *const T)>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<'_, T> {}

impl<'g, T> Shared<'g, T> {
    /// The null pointer with tag `0`.
    pub fn null() -> Shared<'g, T> {
        Shared {
            data: 0,
            _marker: PhantomData,
        }
    }

    /// Reconstructs a `Shared` from a raw tagged-pointer word.
    ///
    /// # Safety
    ///
    /// `data` must have been obtained from [`Shared::into_data`] (or be a
    /// valid tagged pointer for `T`) and the pointee must still be protected
    /// by the current guard.
    pub unsafe fn from_data(data: usize) -> Shared<'g, T> {
        Shared {
            data,
            _marker: PhantomData,
        }
    }

    /// The raw tagged word (pointer bits plus tag bits).
    pub fn into_data(self) -> usize {
        self.data
    }

    /// The untagged raw pointer.
    pub fn as_raw(&self) -> *const T {
        decompose::<T>(self.data).0
    }

    /// Returns `true` iff the pointer (ignoring tag bits) is null.
    pub fn is_null(&self) -> bool {
        self.as_raw().is_null()
    }

    /// The tag carried in the low bits.
    pub fn tag(&self) -> usize {
        decompose::<T>(self.data).1
    }

    /// The same pointer with the tag replaced by `tag`.
    pub fn with_tag(&self, tag: usize) -> Shared<'g, T> {
        let (raw, _) = decompose::<T>(self.data);
        Shared {
            data: compose(raw, tag),
            _marker: PhantomData,
        }
    }

    /// Dereferences the pointer.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null and point to an object that is alive for
    /// `'g` — i.e. it was loaded from a reachable `Atomic` under the guard
    /// associated with `'g`, and can only have been retired (not yet freed)
    /// since.
    pub unsafe fn deref(&self) -> &'g T {
        &*self.as_raw()
    }

    /// Dereferences the pointer, returning `None` if null.
    ///
    /// # Safety
    ///
    /// Same conditions as [`Shared::deref`] when non-null.
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        self.as_raw().as_ref()
    }

    /// Takes back ownership of the allocation.
    ///
    /// # Safety
    ///
    /// The caller must be the unique owner: the pointer must no longer be
    /// reachable by any thread (e.g. during single-threaded teardown).
    pub unsafe fn into_owned(self) -> Owned<T> {
        debug_assert!(!self.is_null(), "into_owned on null Shared");
        Owned {
            data: self.data,
            _marker: PhantomData,
        }
    }

    /// Pointer equality including tags.
    pub fn ptr_eq(&self, other: &Shared<'_, T>) -> bool {
        self.data == other.data
    }
}

impl<T> PartialEq for Shared<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}
impl<T> Eq for Shared<'_, T> {}

impl<T> fmt::Debug for Shared<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (raw, tag) = decompose::<T>(self.data);
        f.debug_struct("Shared")
            .field("raw", &raw)
            .field("tag", &tag)
            .finish()
    }
}

/// The error returned by a failed [`Atomic::compare_exchange`], carrying the
/// value actually found and the ownership of the value we tried to install.
pub struct CompareExchangeError<'g, T, N> {
    /// The value the atomic held at the time of the failed exchange.
    pub current: Shared<'g, T>,
    /// The new value that was not installed, returned to the caller.
    pub new: N,
}

impl<T, N> fmt::Debug for CompareExchangeError<'_, T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompareExchangeError")
            .field("current", &self.current)
            .finish_non_exhaustive()
    }
}

/// Types that can be atomically installed into an [`Atomic<T>`]:
/// [`Owned<T>`] (transfers ownership) and [`Shared<'g, T>`] (copies a
/// pointer already published).
pub trait Pointer<T> {
    /// The raw tagged word to store.
    fn into_data(self) -> usize;
    /// Rebuilds `Self` from a word previously produced by
    /// [`Pointer::into_data`] (used to hand a failed CAS's `new` back).
    ///
    /// # Safety
    ///
    /// `data` must come from `into_data` of the same concrete type.
    unsafe fn from_data(data: usize) -> Self;
}

impl<T> Pointer<T> for Owned<T> {
    fn into_data(self) -> usize {
        Owned::into_data(self)
    }
    // SAFETY: trait contract — `data` came from `Owned::into_data`, so it
    // is a uniquely-owned heap pointer (plus tag) of the right type.
    unsafe fn from_data(data: usize) -> Self {
        Owned {
            data,
            _marker: PhantomData,
        }
    }
}

impl<'g, T> Pointer<T> for Shared<'g, T> {
    fn into_data(self) -> usize {
        self.data
    }
    // SAFETY: trait contract — `data` came from `Shared::into_data`, so the
    // borrowed word is valid for the guard lifetime it is rebuilt under.
    unsafe fn from_data(data: usize) -> Self {
        Shared {
            data,
            _marker: PhantomData,
        }
    }
}

/// A nullable atomic tagged pointer to a heap-allocated `T`.
pub struct Atomic<T> {
    data: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

// SAFETY: `Atomic<T>` hands out only `Shared` pointers whose dereference is
// `unsafe` and guard-protected; sharing the word itself across threads is
// safe exactly when `T` can be sent/shared.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// A null pointer (tag `0`).
    pub const fn null() -> Atomic<T> {
        Atomic {
            data: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// Allocates `value` and stores a pointer to it.
    pub fn new(value: T) -> Atomic<T> {
        Atomic::from(Owned::new(value))
    }

    /// Loads the current tagged pointer.
    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            data: self.data.load(ord),
            _marker: PhantomData,
        }
    }

    /// Stores a new tagged pointer.
    ///
    /// Prefer [`Atomic::compare_exchange`] on shared hot paths; plain
    /// `store` is for initialization and teardown.
    pub fn store<P: Pointer<T>>(&self, new: P, ord: Ordering) {
        self.data.store(new.into_data(), ord);
    }

    /// Single-word CAS: installs `new` iff the word still equals `current`
    /// (pointer and tag).
    ///
    /// On failure the actually-found value and ownership of `new` are
    /// returned in the error, matching the paper's CAS which "always returns
    /// the value the object had prior to the operation".
    pub fn compare_exchange<'g, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new_data = new.into_data();
        match self
            .data
            .compare_exchange(current.data, new_data, success, failure)
        {
            Ok(_) => Ok(Shared {
                data: new_data,
                _marker: PhantomData,
            }),
            Err(found) => Err(CompareExchangeError {
                current: Shared {
                    data: found,
                    _marker: PhantomData,
                },
                // SAFETY: `new_data` came from `new.into_data()` above.
                new: unsafe { P::from_data(new_data) },
            }),
        }
    }

    /// Consumes the atomic and takes ownership of the pointee.
    ///
    /// # Safety
    ///
    /// The caller must have unique access (no other thread can observe the
    /// atomic) and the pointer must be non-null.
    pub unsafe fn into_owned(self) -> Owned<T> {
        let data = self.data.into_inner();
        debug_assert_ne!(decompose::<T>(data).0, std::ptr::null_mut());
        Owned {
            data,
            _marker: PhantomData,
        }
    }
}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Atomic::null()
    }
}

impl<T> From<Owned<T>> for Atomic<T> {
    fn from(owned: Owned<T>) -> Self {
        Atomic {
            data: AtomicUsize::new(owned.into_data()),
            _marker: PhantomData,
        }
    }
}

impl<T> fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (raw, tag) = decompose::<T>(self.data.load(Ordering::Relaxed));
        f.debug_struct("Atomic")
            .field("raw", &raw)
            .field("tag", &tag)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;

    #[test]
    fn low_bits_reflect_alignment() {
        assert_eq!(low_bits::<u64>(), 7);
        assert_eq!(low_bits::<u32>(), 3);
        assert_eq!(low_bits::<u16>(), 1);
        assert_eq!(low_bits::<u8>(), 0);
    }

    #[test]
    fn owned_tag_roundtrip() {
        let o = Owned::new(42u64).with_tag(5);
        assert_eq!(o.tag(), 5);
        assert_eq!(*o, 42);
        let o = o.with_tag(0);
        assert_eq!(o.tag(), 0);
    }

    #[test]
    fn tag_is_truncated_to_alignment() {
        // u64 has 3 tag bits: tag 9 == 0b1001 truncates to 0b001.
        let o = Owned::new(1u64).with_tag(9);
        assert_eq!(o.tag(), 1);
    }

    #[test]
    fn load_store_cas_roundtrip() {
        let collector = Collector::new();
        let handle = collector.register();
        let guard = handle.pin();

        let a = Atomic::new(1u64);
        let one = a.load(Ordering::SeqCst, &guard);
        assert_eq!(unsafe { *one.deref() }, 1);

        let two = Owned::new(2u64);
        let installed = a
            .compare_exchange(one, two, Ordering::SeqCst, Ordering::SeqCst, &guard)
            .unwrap();
        assert_eq!(unsafe { *installed.deref() }, 2);
        unsafe { guard.defer_destroy(one) };

        // Failed CAS returns the found value and gives `new` back.
        let three = Owned::new(3u64);
        let err = a
            .compare_exchange(one, three, Ordering::SeqCst, Ordering::SeqCst, &guard)
            .unwrap_err();
        assert!(err.current.ptr_eq(&installed));
        assert_eq!(*err.new, 3);

        drop(guard);
        unsafe { drop(a.into_owned()) };
    }

    #[test]
    fn null_checks_ignore_tags() {
        let s = Shared::<u64>::null().with_tag(3);
        assert!(s.is_null());
        assert_eq!(s.tag(), 3);
        assert!(unsafe { s.as_ref() }.is_none());
    }

    #[test]
    fn shared_data_roundtrip_preserves_pointer_and_tag() {
        let collector = Collector::new();
        let handle = collector.register();
        let guard = handle.pin();
        let a = Atomic::new(7u64);
        let s = a.load(Ordering::SeqCst, &guard).with_tag(2);
        let d = s.into_data();
        let s2 = unsafe { Shared::<u64>::from_data(d) };
        assert!(s.ptr_eq(&s2));
        assert_eq!(s2.tag(), 2);
        drop(guard);
        unsafe { drop(a.into_owned()) };
    }
}
