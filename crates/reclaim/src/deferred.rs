//! Type-erased deferred destruction of heap allocations.
//!
//! A [`Deferred`] is a pending destruction of a boxed value of some
//! concrete type, erased to a `(data pointer, drop function)` pair so that
//! garbage bags can hold destructions of heterogeneous types without
//! allocating a boxed closure per retired object. Running it drops the
//! value and keeps the block in the executing thread's recycling bin
//! (see `bins.rs`).

use std::fmt;

/// A single pending destruction.
///
/// Created via [`Deferred::destroy_boxed`]; executed exactly once via
/// [`Deferred::execute`] (or on drop if never executed — bags that are
/// themselves dropped still release their garbage).
pub(crate) struct Deferred {
    data: *mut (),
    drop_fn: unsafe fn(*mut ()),
    /// Heap payload size of the pending allocation, for footprint stats.
    bytes: usize,
    executed: bool,
}

// SAFETY: a `Deferred` is only ever created from an owning pointer to a heap
// allocation that has been unlinked from any shared structure; executing it
// on another thread is the whole point of deferred reclamation. The epochs
// machinery guarantees exclusive access at execution time.
unsafe impl Send for Deferred {}

impl Deferred {
    /// Defers dropping the box `ptr` and recycling its block.
    ///
    /// # Safety
    ///
    /// `ptr` must have been produced by `Box::into_raw` for the same type
    /// `T`, must not be used again by the caller, and no other `Deferred`
    /// may exist for it.
    pub(crate) unsafe fn destroy_boxed<T>(ptr: *mut T) -> Deferred {
        unsafe fn recycle_box<T>(p: *mut ()) {
            crate::bins::recycle(p.cast::<T>());
        }
        Deferred {
            data: ptr.cast(),
            drop_fn: recycle_box::<T>,
            bytes: std::mem::size_of::<T>(),
            executed: false,
        }
    }

    /// Payload bytes of the pending destruction (the pointee's size).
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Runs the deferred destruction now.
    pub(crate) fn execute(mut self) {
        self.run();
    }

    fn run(&mut self) {
        if !self.executed {
            self.executed = true;
            // SAFETY: constructor contract — `data` is an un-aliased owning
            // pointer matching `drop_fn`'s type, executed at most once.
            unsafe { (self.drop_fn)(self.data) }
        }
    }
}

impl Drop for Deferred {
    fn drop(&mut self) {
        self.run();
    }
}

impl fmt::Debug for Deferred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deferred")
            .field("data", &self.data)
            .field("executed", &self.executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct Counted(Arc<AtomicUsize>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn execute_runs_destructor_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let ptr = Box::into_raw(Box::new(Counted(drops.clone())));
        let d = unsafe { Deferred::destroy_boxed(ptr) };
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        d.execute();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropping_unexecuted_deferred_still_frees() {
        let drops = Arc::new(AtomicUsize::new(0));
        let ptr = Box::into_raw(Box::new(Counted(drops.clone())));
        let d = unsafe { Deferred::destroy_boxed(ptr) };
        drop(d);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn deferred_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Deferred>();
    }
}
