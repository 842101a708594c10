//! Safe memory reclamation for the `nbbst` workspace, built from scratch.
//!
//! The PODC 2010 paper this workspace reproduces assumes its nodes and Info
//! records are "always allocated new memory locations" or managed by a
//! garbage collector such that "a memory location is not reallocated while
//! any process could reach that location by following a chain of pointers"
//! (Section 4.1). Rust has no ambient GC, so this crate supplies the
//! substrate:
//!
//! * [`Collector`] / [`Guard`] — **epoch-based reclamation**, the scheme the
//!   tree uses; the protocol and its safety argument are documented on
//!   [`Collector`] and in the `epoch` module source.
//! * [`Atomic`] / [`Owned`] / [`Shared`] — tagged atomic pointers whose
//!   spare low-order bits carry small integers, exactly the trick the paper
//!   uses to pack a 2-bit state next to an Info pointer in one CAS word.
//! * [`alloc_box`] — allocation through **per-thread recycling bins**:
//!   freed blocks stay with the thread that freed them and serve its next
//!   allocations of the same layout (the paper's Section 4.1 permits
//!   reuse once nothing can reach a location).
//!
//! Why the tree uses epochs and not hazard pointers is argued in DESIGN.md
//! §2.
//!
//! # Example
//!
//! ```
//! use nbbst_reclaim::{Atomic, Collector, Owned};
//! use std::sync::atomic::Ordering;
//!
//! let collector = Collector::new();
//! let head = Atomic::new("hello");
//!
//! let guard = collector.pin();
//! // Acquire: the loaded pointer is dereferenced below.
//! let h = head.load(Ordering::Acquire, &guard);
//! assert_eq!(unsafe { *h.deref() }, "hello");
//!
//! // Replace and retire the old value. Release publishes the new node;
//! // the failure ordering stays Relaxed because a failed CAS here is not
//! // followed by a dereference of the observed value.
//! head.compare_exchange(h, Owned::new("world"), Ordering::Release, Ordering::Relaxed, &guard)
//!     .expect("no contention");
//! unsafe { guard.defer_destroy(h) };
//! drop(guard);
//! # unsafe { drop(head.into_owned()) };
//! ```

#![warn(missing_docs, missing_debug_implementations)]

mod atomic;
mod bins;
mod deferred;
mod epoch;
mod primitives;

pub use atomic::{low_bits, Atomic, CompareExchangeError, Owned, Pointer, Shared};
pub use bins::alloc_box;
pub use epoch::{unprotected, Collector, Guard, LocalHandle, ReclaimStats};
