//! Per-thread recycling bins for reclaimed blocks.
//!
//! Section 4.1 of the paper allows freed memory to be reallocated as long
//! as no process can still reach it. Once a deferred destruction runs, the epoch protocol has established exactly that, so
//! instead of returning the block to the global allocator the executing
//! thread drops the value in place and keeps the block in a small bin
//! keyed by its `Layout`. [`alloc_box`] pops from that bin before asking
//! the allocator, which makes a steady stream of same-shaped updates (a leaf
//! copy, an Info record, a garbage bag) allocation-free.
//!
//! Every block keeps `Layout::new::<T>()` of the type it was made for, so a
//! block from a bin may still be released by `Box::from_raw` (teardown
//! paths do exactly that); the bins add no second deallocation route.
//!
//! The bins are LIFO like glibc's tcache: the most recently reclaimed
//! block is the next one handed out. That is no shorter a reuse distance
//! than the allocator's own, so pointer-reuse ABA gains no new path
//! (DESIGN.md §2).
//!
//! Under `cfg(loom)` the bins are compiled out: the model threads are
//! fresh every execution and thread-local destructors would run outside
//! the model scheduler.

/// Bytes of blocks kept per layout; further reclaimed blocks go back to
/// the allocator. About two freed bags' worth of leaves (62 blocks of
/// a 528-byte `Leaf<u64, u64>`), so a single-threaded update stream
/// never reaches the allocator once warm; larger bins held more blocks
/// out of the allocator's reach and raised `sharded_partitioned`'s peak
/// RSS in measurement.
#[cfg(not(loom))]
const BIN_BYTES: usize = 32 * 1024;

/// Blocks kept per layout at most, however small the layout.
#[cfg(not(loom))]
const MAX_BLOCKS_PER_BIN: usize = 256;

/// Distinct layouts cached per thread; blocks of any further layout go
/// straight to the allocator.
#[cfg(not(loom))]
const MAX_BINS: usize = 8;

#[cfg(not(loom))]
mod imp {
    use super::{BIN_BYTES, MAX_BINS, MAX_BLOCKS_PER_BIN};
    use std::alloc::{dealloc, Layout};
    use std::cell::RefCell;

    struct Bin {
        layout: Layout,
        /// Never grows: allocated once with room for every block the bin
        /// may keep.
        blocks: Vec<*mut u8>,
    }

    /// One thread's bins. Dropped by the thread-local destructor, which
    /// hands every cached block back to the allocator.
    struct Bins(Vec<Bin>);

    impl Bins {
        fn pop(&mut self, layout: Layout) -> Option<*mut u8> {
            self.0.iter_mut().find(|b| b.layout == layout)?.blocks.pop()
        }

        /// Keeps `block`, or hands it back when its bin is full (or there
        /// is no room for another layout).
        fn push(&mut self, block: *mut u8, layout: Layout) -> Result<(), *mut u8> {
            let at = match self.0.iter().position(|b| b.layout == layout) {
                Some(at) => at,
                None if self.0.len() < MAX_BINS => {
                    let capacity = (BIN_BYTES / layout.size()).clamp(1, MAX_BLOCKS_PER_BIN);
                    self.0.push(Bin {
                        layout,
                        blocks: Vec::with_capacity(capacity),
                    });
                    self.0.len() - 1
                }
                None => return Err(block),
            };
            let bin = &mut self.0[at];
            if bin.blocks.len() == bin.blocks.capacity() {
                return Err(block);
            }
            bin.blocks.push(block);
            Ok(())
        }
    }

    impl Drop for Bins {
        fn drop(&mut self) {
            for bin in &self.0 {
                for &block in &bin.blocks {
                    // SAFETY: every cached block was allocated by the
                    // global allocator with `bin.layout` and is owned by
                    // the bin alone.
                    unsafe { dealloc(block, bin.layout) };
                }
            }
        }
    }

    thread_local! {
        static BINS: RefCell<Bins> = const { RefCell::new(Bins(Vec::new())) };
    }

    /// Moves `value` to the heap and returns the raw pointer, reusing a
    /// block from this thread's bin when one of `T`'s layout is cached.
    ///
    /// The result is exactly what `Box::into_raw(Box::new(value))` would
    /// return: it may be released with `Box::from_raw`, or retired through
    /// [`Guard::defer_destroy`](crate::Guard::defer_destroy).
    pub fn alloc_box<T>(value: T) -> *mut T {
        let layout = Layout::new::<T>();
        if layout.size() != 0 {
            let block = BINS
                .try_with(|bins| bins.try_borrow_mut().ok()?.pop(layout))
                .ok()
                .flatten();
            if let Some(block) = block {
                let ptr = block.cast::<T>();
                // SAFETY: the block was allocated with `Layout::new::<T>()`
                // and its previous value was dropped before it was binned.
                unsafe { ptr.write(value) };
                return ptr;
            }
        }
        Box::into_raw(Box::new(value))
    }

    /// Drops the value behind `ptr` and keeps its block in this thread's
    /// bin, or hands the block back to the allocator when the bin is full.
    ///
    /// # Safety
    ///
    /// `ptr` must come from `Box::into_raw` or [`alloc_box`] for the same
    /// `T`, must not be used again, and must be released only once.
    pub(crate) unsafe fn recycle<T>(ptr: *mut T) {
        let layout = Layout::new::<T>();
        if layout.size() == 0 {
            // SAFETY: caller contract; a zero-sized box owns no block.
            drop(unsafe { Box::from_raw(ptr) });
            return;
        }
        // Drop first and outside the bin borrow: the value's destructor
        // may itself allocate or reclaim.
        // SAFETY: caller contract — `ptr` is an owned, live `Box<T>`.
        unsafe { std::ptr::drop_in_place(ptr) };
        let block = ptr.cast::<u8>();
        let kept = BINS
            .try_with(|bins| match bins.try_borrow_mut() {
                Ok(mut bins) => bins.push(block, layout),
                Err(_) => Err(block),
            })
            .unwrap_or(Err(block));
        if let Err(block) = kept {
            // SAFETY: the block came from the global allocator with
            // `layout` (caller contract) and its value is dropped.
            unsafe { dealloc(block, layout) };
        }
    }
}

#[cfg(loom)]
mod imp {
    /// `Box::into_raw(Box::new(value))`: no bins under the model checker.
    pub fn alloc_box<T>(value: T) -> *mut T {
        Box::into_raw(Box::new(value))
    }

    /// Drops the box `ptr`.
    ///
    /// # Safety
    ///
    /// As for the binned `recycle`: `ptr` is an owned `Box<T>` pointer,
    /// released only once.
    pub(crate) unsafe fn recycle<T>(ptr: *mut T) {
        // SAFETY: caller contract — `ptr` is an owned, live `Box<T>`.
        drop(unsafe { Box::from_raw(ptr) });
    }
}

pub use imp::alloc_box;
pub(crate) use imp::recycle;
