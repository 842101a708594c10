//! Epoch-based reclamation (EBR).
//!
//! The paper assumes a garbage-collected environment: "it would be more
//! practical to reallocate the memory locations that are no longer in use.
//! Such a scheme should not introduce any problems, as long as a memory
//! location is not reallocated while any process could reach that location
//! by following a chain of pointers" (Section 4.1). This module provides
//! exactly that guarantee, with the classic three-epoch scheme (Fraser's
//! thesis; the protocol here mirrors `crossbeam-epoch`, reimplemented from
//! scratch):
//!
//! * A [`Collector`] owns a global epoch counter and a registry of
//!   *participants* (one per `(thread, collector)` pair).
//! * Before touching shared pointers a thread *pins* itself ([`Guard`]),
//!   publishing the epoch it observed.
//! * Removed objects are *retired* ([`Guard::defer_destroy`]) into the
//!   thread's open bag. At the outermost unpin the bag is *sealed* with the
//!   global epoch read behind a `SeqCst` fence and *parked* in the
//!   thread's participant slot; the owner takes it back at its next
//!   retirement. A bag that fills is sealed and *published* to the
//!   collector-wide evictable registry.
//! * The global epoch advances from `E` to `E+1` only when every pinned
//!   participant has observed `E`; hence pinned participants always sit at
//!   `E` or `E-1`, and a bag sealed at epoch `g` is freed once the global
//!   epoch reaches `g + 2` — by which point no thread that could have
//!   observed a pointer into the bag is still pinned.
//! * Published bags live in a shared lock-free registry and parked bags in
//!   the shared participant list, so *any* thread — on housekeeping,
//!   [`Collector::flush`], [`Collector::try_drain`], or the last
//!   [`Collector`] drop — can steal and free bags whose epoch has passed.
//!   Reclamation never depends on the retiring thread pinning again, so a
//!   thread-pool worker that parks forever cannot strand its garbage (see
//!   DESIGN.md §10).
//! * Owner first: the retiring thread's own housekeeping frees its bags
//!   at `seal + 2`, and so do the explicit drains; another thread's
//!   housekeeping waits [`OWNER_GRACE`] epochs longer. A busy owner thus
//!   frees, and recycles, its own garbage, while an idle owner's garbage
//!   is still freed by the others, a few epochs later ([`frees_at`]).
//! * Update paths write no shared counter: a retirement is counted on the
//!   retiring thread's own participant record, and [`Collector::stats`]
//!   sums the records.
//! * Freeing a retired object drops it in place and keeps its block in the
//!   freeing thread's recycling bin (`bins.rs`), from which the next
//!   allocation of the same layout is served.
//!
//! The seal epoch is deliberately the *global* epoch at seal time, not the
//! retirer's pin epoch: a thread pinned one epoch ahead of the retirer may
//! have observed a pointer into the bag before it was unlinked, and sealing
//! with the (older) pin epoch would free the bag one epoch too early.
//!
//! Why this discharges the paper's ABA obligations is argued in DESIGN.md
//! §2: every read-then-CAS of a tree word happens under a single guard, and
//! no address can be freed (hence recycled, hence made to repeat an old word
//! value) while a guard that observed it is live.

use crate::bins::{alloc_box, recycle};
use crate::deferred::Deferred;
use crate::primitives::{fence, AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::cell::Cell;
use std::fmt;
use std::mem::MaybeUninit;
// Instrumentation-only counters bypass the loom facade on purpose: they
// never synchronize anything (see primitives.rs).
use std::sync::atomic::{AtomicU64 as CounterU64, AtomicUsize as CounterUsize};
use std::sync::Arc;

/// How many pins between housekeeping passes (epoch-advance attempt plus a
/// registry collection pass).
const PINS_BETWEEN_COLLECT: u64 = 32;

/// How many retirements force an early housekeeping pass.
const DEFERS_BETWEEN_COLLECT: usize = 64;

/// Open bags are sealed and published to the evictable registry once they
/// hold this many items, even mid-pin; smaller bags are parked at unpin.
const MAX_ITEMS_PER_BAG: usize = 64;

/// Extra epochs that a registration other than a bag's owner waits, past
/// the `seal + 2` safety floor, before its housekeeping frees the bag.
const OWNER_GRACE: u64 = 4;

/// The global epoch from which `caller` may free a bag that the record
/// `owner` sealed at `seal`.
///
/// The owner's own housekeeping and the explicit drains (`caller == 0`:
/// `flush`, `try_drain`, the last `Collector` drop) free at `seal + 2`,
/// the safety floor of DESIGN.md §10, invariant 2. Any other thread's
/// housekeeping waits [`OWNER_GRACE`] epochs more, so that blocks are
/// recycled into the bins of the thread whose next update allocates
/// them; an idle owner's garbage is freed by the others after that delay.
fn frees_at(seal: u64, owner: usize, caller: usize) -> u64 {
    if caller == owner || caller == 0 {
        seal + 2
    } else {
        seal + 2 + OWNER_GRACE
    }
}

/// One registered `(thread, collector)` slot in the global participant list.
///
/// `state` is `0` when not pinned, else `(epoch << 1) | 1`.
struct Participant {
    state: AtomicU64,
    claimed: AtomicBool,
    /// The bag its owner sealed and parked at its last outermost unpin, or
    /// null. Only the owner stores a bag here (into an empty slot); the
    /// owner and collection passes take it with a swap, so a parked bag
    /// has one owner at a time.
    parked: AtomicPtr<Bag>,
    /// Seal epoch of the last parked bag. A hint only: collection passes
    /// skip slots it says are unexpired, and judge a taken bag by its own
    /// `epoch`.
    parked_epoch: AtomicU64,
    /// Retirements made through this record, and their payload bytes.
    /// Only the record's claimant writes them; [`Collector::stats`] and
    /// the epoch-advance scan sum them over all records.
    retired: CounterU64,
    retired_bytes: CounterU64,
    next: AtomicPtr<Participant>,
}

impl Participant {
    const UNPINNED: u64 = 0;

    /// This record's identity in [`Bag::owner`] and `caller` arguments.
    fn id(&self) -> usize {
        self as *const Participant as usize
    }

    /// Counts one retirement of `bytes` payload bytes. Only the claimant
    /// calls this, so a load and a store suffice: the update path does no
    /// read-modify-write, and writes only this record's line.
    fn count_retirement(&self, bytes: u64) {
        let (n, b) = (
            self.retired.load(Ordering::Relaxed),
            self.retired_bytes.load(Ordering::Relaxed),
        );
        self.retired.store(n + 1, Ordering::Relaxed);
        self.retired_bytes.store(b + bytes, Ordering::Relaxed);
    }

    fn pinned_state(epoch: u64) -> u64 {
        (epoch << 1) | 1
    }

    fn decode(state: u64) -> Option<u64> {
        if state & 1 == 1 {
            Some(state >> 1)
        } else {
            None
        }
    }
}

/// A bag of up to [`MAX_ITEMS_PER_BAG`] retirements. While open it is
/// private to its owner; once sealed with the global epoch observed behind
/// a `SeqCst` fence it is parked in the owner's participant slot or linked
/// into the evictable registry, and any thread may steal and free it from
/// the epoch [`frees_at`] gives. Freeing the bag runs its items.
struct Bag {
    /// Seal epoch, written by whoever owns the bag when sealing it.
    epoch: u64,
    len: usize,
    /// Total payload bytes of the items, for footprint accounting.
    bytes: usize,
    /// Identity of the participant record whose claimant sealed the bag
    /// ([`Participant::id`]), for the owner-first rule and for stats.
    /// Never dereferenced. A record's next claimant inherits its bags,
    /// which is safe: the owner-first rule only delays non-owners.
    owner: usize,
    next: AtomicPtr<Bag>,
    items: [MaybeUninit<Deferred>; MAX_ITEMS_PER_BAG],
}

impl Bag {
    /// An empty bag in a block from the bins, so steady-state retirement
    /// allocates nothing.
    fn new(owner: usize) -> *mut Bag {
        alloc_box(Bag {
            epoch: 0,
            len: 0,
            bytes: 0,
            owner,
            next: AtomicPtr::new(std::ptr::null_mut()),
            items: [const { MaybeUninit::uninit() }; MAX_ITEMS_PER_BAG],
        })
    }

    /// Adds `d`; returns whether the bag is now full.
    fn push(&mut self, d: Deferred) -> bool {
        self.bytes += d.bytes();
        self.items[self.len].write(d);
        self.len += 1;
        self.len == MAX_ITEMS_PER_BAG
    }
}

impl Drop for Bag {
    fn drop(&mut self) {
        for item in &mut self.items[..self.len] {
            // SAFETY: the first `len` slots are initialized; each runs its
            // destruction exactly once, here.
            unsafe { item.assume_init_drop() };
        }
    }
}

/// Totals of bags freed by one collection pass, added to the [`Global`]
/// counters in one go.
#[derive(Default)]
struct Freed {
    items: u64,
    bytes: u64,
    bags: u64,
    stolen: u64,
}

impl Freed {
    /// Frees `bag`, which the caller owns and which has expired.
    ///
    /// # Safety
    ///
    /// `bag` came from [`Bag::new`], is owned by the caller alone and is
    /// freed only once.
    unsafe fn free(&mut self, bag: *mut Bag, caller: usize) {
        // SAFETY: owned by the caller (contract).
        let b = unsafe { &*bag };
        self.items += b.len as u64;
        self.bytes += b.bytes as u64;
        self.bags += 1;
        if b.owner != caller {
            self.stolen += 1;
        }
        // SAFETY: as above; dropping the bag runs its items.
        unsafe { recycle(bag) };
    }

    fn commit(self, global: &Global) {
        if self.bags > 0 {
            global.freed.fetch_add(self.items, Ordering::Relaxed);
            global.freed_bytes.fetch_add(self.bytes, Ordering::Relaxed);
            global.bags_freed.fetch_add(self.bags, Ordering::Relaxed);
            global.bags_stolen.fetch_add(self.stolen, Ordering::Relaxed);
        }
    }
}

/// Counters describing reclamation activity; see [`Collector::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReclaimStats {
    /// Objects handed to `defer_destroy` so far: the sum of the counts
    /// each thread keeps on its own participant record.
    pub retired: u64,
    /// Objects whose destructor has actually run.
    pub freed: u64,
    /// Successful global epoch advances.
    pub epoch_advances: u64,
    /// Current global epoch.
    pub global_epoch: u64,
    /// Objects currently published to the evictable registry (sealed but
    /// not yet freed).
    pub evictable: u64,
    /// Sealed bags handed over for any thread to free so far: full bags
    /// pushed to the evictable registry, plus parked bags that a
    /// collection pass took from their owner's slot.
    pub bags_published: u64,
    /// Bags freed by a thread other than the one that sealed them
    /// (including ownerless paths such as `flush` and `Collector::drop`).
    pub bags_stolen: u64,
    /// Bags freed so far (by any thread).
    pub bags_freed: u64,
    /// Payload bytes retired and not yet freed (open, parked and
    /// published bags).
    pub deferred_bytes: u64,
    /// High-water mark of `deferred_bytes` over the collector's lifetime,
    /// sampled by every epoch-advance attempt and by `stats` itself, so a
    /// rise that falls back between two samples is missed.
    pub peak_deferred_bytes: u64,
}

/// Shared collector state.
struct Global {
    epoch: AtomicU64,
    participants: AtomicPtr<Participant>,
    /// The evictable-bag registry: a lock-free Treiber list of sealed bags
    /// published by any thread and stealable by any thread.
    evictable: AtomicPtr<Bag>,
    /// Number of live `Collector` clones (not handles); when it reaches
    /// zero, cached thread-local handles know to retire themselves.
    collectors: CounterUsize,
    /// Leak instead of freeing (the paper's "always allocate fresh
    /// memory" model); for ablation experiments only.
    leaky: bool,
    freed: CounterU64,
    /// Payload bytes of the freed items.
    freed_bytes: CounterU64,
    advances: CounterU64,
    bags_published: CounterU64,
    bags_stolen: CounterU64,
    bags_freed: CounterU64,
    /// Items currently in the evictable registry.
    evictable_items: CounterU64,
    peak_deferred_bytes: CounterU64,
}

impl Global {
    fn new(leaky: bool) -> Global {
        Global {
            epoch: AtomicU64::new(0),
            participants: AtomicPtr::new(std::ptr::null_mut()),
            evictable: AtomicPtr::new(std::ptr::null_mut()),
            collectors: CounterUsize::new(1),
            leaky,
            freed: CounterU64::new(0),
            freed_bytes: CounterU64::new(0),
            advances: CounterU64::new(0),
            bags_published: CounterU64::new(0),
            bags_stolen: CounterU64::new(0),
            bags_freed: CounterU64::new(0),
            evictable_items: CounterU64::new(0),
            peak_deferred_bytes: CounterU64::new(0),
        }
    }

    /// The registered participant records, newest first.
    fn records(&self) -> impl Iterator<Item = &Participant> {
        let mut cur = self.participants.load(Ordering::Acquire);
        std::iter::from_fn(move || {
            // SAFETY: participant records are only freed by `Global::drop`
            // (exclusive access), so the list is traversable under `&self`.
            let p = unsafe { cur.as_ref() }?;
            cur = p.next.load(Ordering::Acquire);
            Some(p)
        })
    }

    /// Claims an existing unclaimed participant record or registers a new
    /// one. Records are only deallocated when the `Global` itself drops.
    fn acquire_record(&self) -> *const Participant {
        // Try to reuse a record released by an exited thread.
        for p in self.records() {
            if p.claimed
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return p;
            }
        }
        // None free: push a fresh record (Treiber push).
        let rec = Box::into_raw(Box::new(Participant {
            state: AtomicU64::new(Participant::UNPINNED),
            claimed: AtomicBool::new(true),
            parked: AtomicPtr::new(std::ptr::null_mut()),
            parked_epoch: AtomicU64::new(0),
            retired: CounterU64::new(0),
            retired_bytes: CounterU64::new(0),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }));
        let mut head = self.participants.load(Ordering::Acquire);
        loop {
            // SAFETY: `rec` is ours until the CAS below publishes it.
            unsafe { (*rec).next.store(head, Ordering::Relaxed) };
            match self
                .participants
                .compare_exchange(head, rec, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return rec,
                Err(h) => head = h,
            }
        }
    }

    /// Attempts to advance the global epoch by one; returns the epoch that
    /// is current after the attempt.
    ///
    /// The participant scan also steals and frees expired parked bags, so
    /// a thread that parks forever never strands its last bag, and samples
    /// `peak_deferred_bytes`. `caller` is as for
    /// [`Global::collect_evictable`].
    fn try_advance(&self, caller: usize) -> u64 {
        let global_epoch = self.epoch.load(Ordering::Relaxed);
        fence(Ordering::SeqCst);
        // Read before the records' bytes, so the sample never reads below
        // what is deferred at the end of the scan; it may read above it
        // by bytes retired during the scan. A rise that falls back
        // between two scans is missed.
        let freed_bytes = self.freed_bytes.load(Ordering::Relaxed);

        // The epoch may only advance if every *pinned* participant has
        // observed the current epoch.
        let mut lagging = false;
        let mut retired_bytes = 0;
        let mut freed = Freed::default();
        for p in self.records() {
            let state = p.state.load(Ordering::Relaxed);
            if let Some(e) = Participant::decode(state) {
                lagging |= e != global_epoch;
            }
            retired_bytes += p.retired_bytes.load(Ordering::Relaxed);
            self.steal_parked(p, global_epoch, caller, &mut freed);
        }
        let deferred = retired_bytes.saturating_sub(freed_bytes);
        if deferred > self.peak_deferred_bytes.load(Ordering::Relaxed) {
            self.peak_deferred_bytes
                .fetch_max(deferred, Ordering::Relaxed);
        }
        freed.commit(self);
        if lagging {
            return global_epoch;
        }
        fence(Ordering::Acquire);

        // Multiple threads may race here; at most one CAS per step wins and
        // losers observe the new epoch on their next pass.
        if self
            .epoch
            .compare_exchange(
                global_epoch,
                global_epoch + 1,
                Ordering::Release,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            self.advances.fetch_add(1, Ordering::Relaxed);
            global_epoch + 1
        } else {
            global_epoch
        }
    }

    /// Takes `p`'s parked bag if `caller` may free it at `epoch` and frees
    /// it.
    ///
    /// The `parked_epoch` hint keeps the scan from taking bags that are
    /// still young for `caller`; the bag's own epoch, read once the swap
    /// made it ours, decides. A bag the owner re-sealed since the hint was
    /// read is published to the registry instead of being put back,
    /// because only the owner ever stores into its slot.
    fn steal_parked(&self, p: &Participant, epoch: u64, caller: usize, freed: &mut Freed) {
        if p.parked.load(Ordering::Relaxed).is_null()
            || frees_at(p.parked_epoch.load(Ordering::Relaxed), p.id(), caller) > epoch
        {
            return;
        }
        // Acquire: pairs with the Release store that parked the bag, so its
        // items and seal epoch are visible before we read or free them.
        let bag = p.parked.swap(std::ptr::null_mut(), Ordering::Acquire);
        // SAFETY: the swap made the bag ours alone.
        let Some(b) = (unsafe { bag.as_ref() }) else {
            return;
        };
        if frees_at(b.epoch, b.owner, caller) <= epoch {
            self.bags_published.fetch_add(1, Ordering::Relaxed);
            // SAFETY: ours since the swap, expired, freed only here.
            unsafe { freed.free(bag, caller) };
        } else {
            self.publish_bag(bag);
        }
    }

    /// Publishes a sealed bag to the evictable registry (lock-free Treiber
    /// push). After this returns, any thread may steal and free the bag
    /// once its epoch has passed.
    fn publish_bag(&self, node: *mut Bag) {
        // SAFETY: the caller owns the sealed bag until the CAS below.
        let items = unsafe { (*node).len } as u64;
        // The observed head is only re-linked as the new bag's `next`; the
        // publisher never dereferences it (a stealer may already own it).
        let mut head = self.evictable.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` is ours until the CAS below publishes it.
            unsafe { (*node).next.store(head, Ordering::Relaxed) };
            match self
                .evictable
                .compare_exchange(head, node, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        self.bags_published.fetch_add(1, Ordering::Relaxed);
        self.evictable_items.fetch_add(items, Ordering::Relaxed);
    }

    /// Steals the entire evictable registry, frees every bag that `caller`
    /// may free at `epoch` ([`frees_at`]), and re-publishes the survivors.
    ///
    /// Lock-free: the whole-chain `swap` hands each caller a disjoint
    /// chain, so concurrent stealers never contend on individual bags.
    /// Stealing is also the only safe way to *inspect* a bag — peeking at
    /// the head's epoch without taking ownership would race a concurrent
    /// stealer freeing it.
    ///
    /// `caller` identifies the stealing registration's record (`0` for
    /// ownerless paths such as `flush`, `try_drain`, and
    /// `Collector::drop`); bags freed on behalf of a different owner count
    /// as "stolen" in [`ReclaimStats`].
    fn collect_evictable(&self, epoch: u64, caller: usize) {
        // An empty registry costs a read of its head, not a swap.
        if self.evictable.load(Ordering::Relaxed).is_null() {
            return;
        }
        // Acquire pairs with the publishers' Release CASes so the stolen
        // bags' contents (items, seal epochs, links) are visible; Release
        // orders this takeover before the survivor re-publication below, so
        // a bag is never reachable from two stealers. See DESIGN.md §10.
        let mut cur = self.evictable.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if cur.is_null() {
            return;
        }
        let mut survivors: *mut Bag = std::ptr::null_mut();
        let mut survivors_tail: *mut Bag = std::ptr::null_mut();
        let mut freed = Freed::default();
        while !cur.is_null() {
            let node = cur;
            // SAFETY: the swap above transferred exclusive ownership of the
            // whole chain to us; every node came from `Bag::new`.
            let bag = unsafe { &*node };
            // The chain is privately owned after the steal.
            cur = bag.next.load(Ordering::Relaxed);
            if frees_at(bag.epoch, bag.owner, caller) <= epoch {
                // SAFETY: privately owned, expired, freed only here.
                unsafe { freed.free(node, caller) };
            } else {
                // SAFETY: `node` is privately owned until re-published.
                unsafe { (*node).next.store(survivors, Ordering::Relaxed) };
                if survivors.is_null() {
                    survivors_tail = node;
                }
                survivors = node;
            }
        }
        if !survivors.is_null() {
            // Re-publish the survivor chain in one push: link the chain's
            // tail to the observed head, then CAS the head to the chain.
            let mut head = self.evictable.load(Ordering::Relaxed);
            loop {
                // SAFETY: the chain is still privately owned; the observed
                // head is only linked, never dereferenced.
                unsafe { (*survivors_tail).next.store(head, Ordering::Relaxed) };
                match self.evictable.compare_exchange(
                    head,
                    survivors,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => break,
                    Err(h) => head = h,
                }
            }
        }
        if freed.items > 0 {
            self.evictable_items
                .fetch_sub(freed.items, Ordering::Relaxed);
        }
        freed.commit(self);
    }
}

impl Drop for Global {
    fn drop(&mut self) {
        // No handles (hence no threads) reference this global any more:
        // free all participant records with their parked bags, and drain
        // the evictable registry. Freeing a bag runs its remaining items.
        let mut cur = *self.participants.get_mut();
        while !cur.is_null() {
            // SAFETY: `&mut self` — no thread holds a handle; every record
            // came from `Box::into_raw` and is freed exactly once here.
            let mut boxed = unsafe { Box::from_raw(cur) };
            let parked = *boxed.parked.get_mut();
            if !parked.is_null() {
                // SAFETY: exclusive, as above; the slot owned the bag.
                unsafe { recycle(parked) };
            }
            cur = *boxed.next.get_mut();
        }
        let mut bag = *self.evictable.get_mut();
        while !bag.is_null() {
            // SAFETY: `&mut self` gives exclusive ownership of the chain;
            // each bag came from `Bag::new` and is freed exactly once.
            let next = unsafe { *(*bag).next.get_mut() };
            // SAFETY: as above.
            unsafe { recycle(bag) };
            bag = next;
        }
    }
}

/// An epoch-based garbage collector for one (or more) lock-free structures.
///
/// Cloning a `Collector` is cheap and yields a handle to the same underlying
/// collector.
///
/// # Examples
///
/// ```
/// use nbbst_reclaim::{Atomic, Collector, Owned};
/// use std::sync::atomic::Ordering;
///
/// let collector = Collector::new();
/// let slot = Atomic::new(1u64);
///
/// let guard = collector.pin();
/// // Acquire/Release per site, not blanket SeqCst (see DESIGN.md §8).
/// let old = slot.load(Ordering::Acquire, &guard);
/// slot.compare_exchange(old, Owned::new(2u64), Ordering::Release, Ordering::Relaxed, &guard)
///     .expect("uncontended CAS succeeds");
/// // The old value is unlinked; defer its destruction until no pinned
/// // thread can still hold a reference.
/// unsafe { guard.defer_destroy(old) };
/// drop(guard);
/// # unsafe { drop(slot.into_owned()) };
/// ```
pub struct Collector {
    global: Arc<Global>,
}

impl Collector {
    /// Creates a fresh collector with epoch `0` and no participants.
    pub fn new() -> Collector {
        Collector {
            global: Arc::new(Global::new(false)),
        }
    }

    /// Creates a collector that **intentionally leaks** every retirement
    /// instead of freeing it — the paper's literal memory model ("nodes
    /// and Info records are always allocated new memory locations",
    /// Section 4.1), where ABA is impossible because addresses never
    /// recycle.
    ///
    /// For ablation experiments measuring reclamation overhead (T8); the
    /// leak is bounded only by the process lifetime. Never use in
    /// production code.
    pub fn new_leaky() -> Collector {
        Collector {
            global: Arc::new(Global::new(true)),
        }
    }

    /// Whether this collector leaks instead of freeing (see
    /// [`Collector::new_leaky`]).
    pub fn is_leaky(&self) -> bool {
        self.global.leaky
    }

    /// Registers the calling thread, returning a reusable [`LocalHandle`].
    ///
    /// Prefer [`Collector::pin`] unless you want to amortize the (small)
    /// thread-local lookup yourself.
    pub fn register(&self) -> LocalHandle {
        let record = self.global.acquire_record();
        let inner = Box::into_raw(Box::new(LocalInner {
            global: Arc::clone(&self.global),
            record,
            guard_count: Cell::new(0),
            handle_count: Cell::new(1),
            pin_count: Cell::new(0),
            defer_count: Cell::new(0),
            bag: Cell::new(std::ptr::null_mut()),
        }));
        LocalHandle { inner }
    }

    /// Pins the current thread using a per-thread cached handle.
    ///
    /// The first call on a given thread registers it; subsequent calls reuse
    /// the registration. Handles for collectors that no longer exist are
    /// retired lazily, when a later pin misses the cache.
    #[cfg(not(loom))]
    pub fn pin(&self) -> Guard {
        CACHED_HANDLES.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(h) = cache
                .iter()
                // SAFETY: a cached handle holds a `handle_count` reference,
                // so its `inner` is live.
                .find(|h| Arc::ptr_eq(&unsafe { &*h.inner }.global, &self.global))
            {
                return h.pin();
            }
            // Miss: purge handles whose collector is gone (all `Collector`
            // clones dropped) so their registrations and `Arc<Global>`s
            // release; their parked bags stay reachable through the
            // participant list.
            cache.retain(|h| {
                // SAFETY: as above — cached handles keep `inner` live.
                unsafe { &*h.inner }
                    .global
                    .collectors
                    .load(Ordering::Relaxed)
                    > 0
            });
            let handle = self.register();
            let guard = handle.pin();
            cache.push(handle);
            guard
        })
    }

    /// Pins the current thread (loom build).
    ///
    /// Under the model checker each pin registers a transient participant
    /// instead of using the per-OS-thread handle cache: model threads are
    /// fresh every execution, and running TLS destructors outside the
    /// model scheduler would be unsound. Dropping the handle immediately
    /// is fine — the guard keeps the registration alive via refcount, and
    /// the open bag is sealed and parked in the participant slot at unpin,
    /// where the next registration to claim the record takes it back and
    /// collection passes steal it. Both paths run under the model.
    #[cfg(loom)]
    pub fn pin(&self) -> Guard {
        let handle = self.register();
        handle.pin()
    }

    /// Forces an epoch-advance attempt plus a registry collection pass.
    ///
    /// Useful in tests and teardown paths; never required for correctness.
    pub fn flush(&self) {
        let e = self.global.try_advance(0);
        self.global.collect_evictable(e, 0);
    }

    /// Repeatedly flushes until everything retired so far has been freed,
    /// or `attempts` passes elapse. Returns whether it fully drained.
    ///
    /// Because every outermost unpin seals the thread's garbage where any
    /// thread can steal it (its participant slot or the evictable
    /// registry), draining does not require any other thread to cooperate —
    /// it only requires that no thread holds an old epoch pinned. This helper yields between passes to absorb exactly
    /// that window. Tests and teardown paths use it; correctness never
    /// requires it.
    pub fn try_drain(&self, attempts: usize) -> bool {
        for _ in 0..attempts {
            let s = self.stats();
            if s.retired == s.freed {
                return true;
            }
            self.flush();
            drop(self.pin());
            crate::primitives::yield_now();
        }
        let s = self.stats();
        s.retired == s.freed
    }

    /// Whether `self` and `other` are clones of the same collector (share
    /// one epoch domain and evictable-bag registry).
    ///
    /// Sharded structures that are handed a collector clone per shard use
    /// this to assert the shards really share one reclamation domain.
    pub fn ptr_eq(&self, other: &Collector) -> bool {
        Arc::ptr_eq(&self.global, &other.global)
    }

    /// Current reclamation counters.
    pub fn stats(&self) -> ReclaimStats {
        let g = &self.global;
        // The freed counts are read before the records' retired counts, so
        // `retired >= freed` and `deferred_bytes` never understates.
        let freed = g.freed.load(Ordering::Relaxed);
        let freed_bytes = g.freed_bytes.load(Ordering::Relaxed);
        let (retired, retired_bytes) = g.records().fold((0, 0), |(n, b), p| {
            (
                n + p.retired.load(Ordering::Relaxed),
                b + p.retired_bytes.load(Ordering::Relaxed),
            )
        });
        let deferred_bytes = retired_bytes.saturating_sub(freed_bytes);
        ReclaimStats {
            retired,
            freed,
            epoch_advances: g.advances.load(Ordering::Relaxed),
            global_epoch: g.epoch.load(Ordering::Relaxed),
            evictable: g.evictable_items.load(Ordering::Relaxed),
            bags_published: g.bags_published.load(Ordering::Relaxed),
            bags_stolen: g.bags_stolen.load(Ordering::Relaxed),
            bags_freed: g.bags_freed.load(Ordering::Relaxed),
            deferred_bytes,
            peak_deferred_bytes: g
                .peak_deferred_bytes
                .load(Ordering::Relaxed)
                .max(deferred_bytes),
        }
    }
}

impl Clone for Collector {
    fn clone(&self) -> Self {
        self.global.collectors.fetch_add(1, Ordering::Relaxed);
        Collector {
            global: Arc::clone(&self.global),
        }
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        if self.global.collectors.fetch_sub(1, Ordering::Relaxed) == 1 {
            // Last `Collector` clone: run the final teardown through the
            // participant slots and the evictable registry. Every thread
            // seals its bag at unpin, so garbage retired by *any*
            // registered thread — including workers parked forever — is
            // freed here as soon as its epoch passes. Two advances put the
            // global epoch two past every seal epoch when nothing is
            // pinned; a third pass collects what the second advance
            // unlocked. Anything still protected by a live pin is freed
            // later by that thread's own housekeeping, or with the final
            // registration in `Global::drop`.
            for _ in 0..3 {
                let e = self.global.try_advance(0);
                self.global.collect_evictable(e, 0);
            }
        }
    }
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(not(loom))]
thread_local! {
    static CACHED_HANDLES: std::cell::RefCell<Vec<LocalHandle>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Thread-local state for one `(thread, collector)` registration.
///
/// Shared between the owning [`LocalHandle`] and any outstanding [`Guard`]s
/// via manual reference counting; freed when both counts reach zero.
struct LocalInner {
    global: Arc<Global>,
    record: *const Participant,
    guard_count: Cell<usize>,
    handle_count: Cell<usize>,
    pin_count: Cell<u64>,
    defer_count: Cell<usize>,
    /// The open bag, or null. Only non-null while pinned: taken back from
    /// the participant slot (or freshly made) at the first retirement
    /// under a pin, sealed and parked at the outermost unpin, or sealed and
    /// published once it reaches [`MAX_ITEMS_PER_BAG`].
    bag: Cell<*mut Bag>,
}

impl LocalInner {
    fn record(&self) -> &Participant {
        // SAFETY: participant records live until `Global` drops, and we
        // hold an `Arc<Global>`.
        unsafe { &*self.record }
    }

    fn pin(&self) {
        let count = self.guard_count.get();
        self.guard_count.set(count + 1);
        if count == 0 {
            let epoch = self.global.epoch.load(Ordering::Relaxed);
            self.record()
                .state
                .store(Participant::pinned_state(epoch), Ordering::Relaxed);
            // Publish the pin before any subsequent shared-memory access;
            // pairs with the SeqCst fence in `Global::try_advance`.
            fence(Ordering::SeqCst);

            let pins = self.pin_count.get() + 1;
            self.pin_count.set(pins);
            if pins.is_multiple_of(PINS_BETWEEN_COLLECT) {
                self.housekeep();
            }
        }
    }

    fn unpin(&self) {
        let count = self.guard_count.get();
        debug_assert!(count > 0, "unpin without matching pin");
        self.guard_count.set(count - 1);
        if count == 1 {
            // Seal and park the open bag *before* announcing the unpin:
            // sealing reads the global epoch while this thread is still
            // pinned, so the seal epoch is exactly the tightest one the
            // safety argument allows, and a parked thread leaves its
            // garbage where collection passes find it.
            let bag = self.bag.replace(std::ptr::null_mut());
            if !bag.is_null() {
                self.park(bag);
            }
            self.record()
                .state
                .store(Participant::UNPINNED, Ordering::Release);
        }
    }

    fn defer(&self, d: Deferred) {
        debug_assert!(self.guard_count.get() > 0, "defer while not pinned");
        if self.global.leaky {
            // The paper's model: never reuse memory. Forget (leak) the
            // destruction entirely; no bytes are ever deferred.
            self.record().count_retirement(0);
            std::mem::forget(d);
            return;
        }
        self.record().count_retirement(d.bytes() as u64);
        let bag = self.open_bag();
        // SAFETY: the open bag is owned by this registration alone.
        if unsafe { (*bag).push(d) } {
            self.seal(bag);
            self.bag.set(std::ptr::null_mut());
            self.global.publish_bag(bag);
        }
        let defers = self.defer_count.get() + 1;
        self.defer_count.set(defers);
        if defers.is_multiple_of(DEFERS_BETWEEN_COLLECT) {
            self.housekeep();
        }
    }

    /// Seals `bag` and parks it in this registration's participant slot.
    fn park(&self, bag: *mut Bag) {
        let epoch = self.seal(bag);
        let record = self.record();
        record.parked_epoch.store(epoch, Ordering::Relaxed);
        // The slot is empty: `open_bag` emptied it, and since then only
        // collection passes, which never store a bag back, touched it.
        // Release: a collection pass that takes the bag reads its items
        // and seal epoch.
        record.parked.store(bag, Ordering::Release);
    }

    /// The open bag: the current one, else the bag parked at an earlier
    /// unpin (unless a collection pass took it), else a new one.
    fn open_bag(&self) -> *mut Bag {
        let mut bag = self.bag.get();
        if bag.is_null() {
            // Acquire: the parked bag is dereferenced; pairs with the
            // Release store that parked it (by this registration or an
            // earlier claimant of the record).
            bag = self
                .record()
                .parked
                .swap(std::ptr::null_mut(), Ordering::Acquire);
            if bag.is_null() {
                bag = Bag::new(self.id());
            } else {
                // SAFETY: the swap made the parked bag ours alone.
                unsafe { (*bag).owner = self.id() };
            }
            self.bag.set(bag);
        }
        bag
    }

    /// Seals `bag` (owned by the caller) with the current global epoch and
    /// returns that epoch.
    ///
    /// The seal epoch is read *behind a `SeqCst` fence* and is deliberately
    /// NOT this thread's pin epoch: we may be pinned at `e` while the
    /// global epoch is already `e + 1`, and a thread pinned at `e + 1` may
    /// have observed a pointer into this bag before it was unlinked.
    /// Sealing with the fenced global read `g` guarantees every such
    /// observer is pinned at an epoch `<= g` and therefore blocks the
    /// advance to `g + 2` that frees the bag (see DESIGN.md §10; this fixes
    /// an epoch off-by-one in the earlier thread-local-cache scheme, which
    /// sealed with the pin epoch). A bag taken back from the slot and
    /// sealed again only gets a later epoch, which is safe for its older
    /// items too.
    fn seal(&self, bag: *mut Bag) -> u64 {
        // Store-load: the unlink CASes that preceded every defer in this
        // bag must be globally ordered before the epoch read that seals it;
        // pairs with the SeqCst fence in `Global::try_advance`.
        fence(Ordering::SeqCst);
        // Ordered by the fence above, not by the load itself.
        let epoch = self.global.epoch.load(Ordering::Relaxed);
        // SAFETY: the caller owns the bag.
        unsafe { (*bag).epoch = epoch };
        epoch
    }

    /// This registration's identity in [`Bag::owner`] and `caller`
    /// arguments: its participant record's.
    fn id(&self) -> usize {
        self.record().id()
    }

    /// Advance the epoch if possible and steal-and-free expired bags from
    /// the participant slots and the evictable registry: this
    /// registration's own from `seal + 2`, others' after the grace.
    fn housekeep(&self) {
        let epoch = self.global.try_advance(self.id());
        self.global.collect_evictable(epoch, self.id());
    }

    /// Called when the last handle/guard reference drops: release the
    /// participant record. The last unpin already sealed and parked the
    /// open bag; it stays in the record's slot, where collection passes
    /// (or the record's next claimant) take it.
    fn finalize(&self) {
        debug_assert_eq!(self.guard_count.get(), 0);
        debug_assert_eq!(self.handle_count.get(), 0);
        debug_assert!(self.bag.get().is_null());
        let record = self.record();
        record.state.store(Participant::UNPINNED, Ordering::Release);
        record.claimed.store(false, Ordering::Release);
    }
}

fn release_inner(inner: *mut LocalInner) {
    // SAFETY: callers hold (and have just released) a counted reference,
    // so `inner` is still live here.
    let r = unsafe { &*inner };
    if r.guard_count.get() == 0 && r.handle_count.get() == 0 {
        r.finalize();
        // SAFETY: both counts are zero, so this is the last reference;
        // the box came from `Box::into_raw` and is freed exactly once.
        drop(unsafe { Box::from_raw(inner) });
    }
}

/// A per-thread registration with a [`Collector`].
///
/// Not `Send`/`Sync`: each thread registers for itself. Obtained from
/// [`Collector::register`]; most users go through [`Collector::pin`]
/// instead, which caches one handle per thread.
pub struct LocalHandle {
    inner: *mut LocalInner,
}

impl LocalHandle {
    /// Pins the thread; shared pointers loaded under the returned [`Guard`]
    /// remain valid until it drops.
    pub fn pin(&self) -> Guard {
        // SAFETY: a live handle holds a `handle_count` reference to `inner`.
        let inner = unsafe { &*self.inner };
        inner.pin();
        Guard { local: self.inner }
    }

    /// Whether the thread currently holds at least one guard.
    pub fn is_pinned(&self) -> bool {
        // SAFETY: a live handle holds a `handle_count` reference to `inner`.
        unsafe { &*self.inner }.guard_count.get() > 0
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        // SAFETY: our `handle_count` reference is released only below.
        let inner = unsafe { &*self.inner };
        inner.handle_count.set(inner.handle_count.get() - 1);
        release_inner(self.inner);
    }
}

impl fmt::Debug for LocalHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalHandle")
            .field("pinned", &self.is_pinned())
            .finish()
    }
}

/// An RAII pin: while any `Guard` for a thread is live, no object retired
/// after the pin can be freed, so [`Shared`](crate::Shared) pointers loaded
/// under the guard stay dereferenceable.
///
/// Guards nest; only the outermost pin/unpin touches shared state.
pub struct Guard {
    /// Null for the unprotected guard (see [`unprotected`]).
    local: *mut LocalInner,
}

impl Guard {
    /// Defers destruction of the pointee until no pinned thread can hold a
    /// reference to it.
    ///
    /// # Safety
    ///
    /// * `shared` must point to a live heap allocation produced by
    ///   [`Owned::new`](crate::Owned::new) / [`Atomic::new`](crate::Atomic::new).
    /// * The object must already be *unlinked*: unreachable for threads that
    ///   pin after this call.
    /// * `defer_destroy` must be called at most once per allocation.
    pub unsafe fn defer_destroy<T>(&self, shared: crate::Shared<'_, T>) {
        debug_assert!(!shared.is_null(), "defer_destroy on null pointer");
        let d = Deferred::destroy_boxed(shared.as_raw() as *mut T);
        match self.local.as_ref() {
            Some(local) => local.defer(d),
            // Unprotected guard: caller vouches for exclusive access, so the
            // destructor may run immediately.
            None => d.execute(),
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.local.is_null() {
            // SAFETY: our `guard_count` reference is released only below.
            let inner = unsafe { &*self.local };
            inner.unpin();
            release_inner(self.local);
        }
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.local.is_null() {
            "Guard(unprotected)"
        } else {
            "Guard"
        })
    }
}

/// Returns a guard that performs no pinning.
///
/// # Safety
///
/// Callers must guarantee that no other thread can concurrently access the
/// data structure (e.g. inside `Drop` of the owning structure, or during
/// single-threaded construction). `defer_destroy` on this guard destroys
/// immediately.
pub unsafe fn unprotected() -> Guard {
    Guard {
        local: std::ptr::null_mut(),
    }
}

// `Guard` and `LocalHandle` hold raw pointers to thread-local state, so the
// compiler already refuses to `Send`/`Sync` them — which is required:
// moving a guard to another thread would unpin the wrong participant.

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct CountDrop(Arc<AtomicUsize>);
    impl Drop for CountDrop {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn retire_one(collector: &Collector, drops: &Arc<AtomicUsize>) {
        let guard = collector.pin();
        let a = crate::Atomic::new(CountDrop(drops.clone()));
        let s = a.load(Ordering::SeqCst, &guard);
        unsafe { guard.defer_destroy(s) };
    }

    #[test]
    fn garbage_is_eventually_freed() {
        let collector = Collector::new();
        let drops = Arc::new(AtomicUsize::new(0));
        for _ in 0..1_000 {
            retire_one(&collector, &drops);
        }
        // Force advancement from an otherwise idle state.
        for _ in 0..10 {
            collector.flush();
            let guard = collector.pin();
            drop(guard);
        }
        // All bags should be at least two epochs old by now except possibly
        // the most recent ones.
        assert!(
            drops.load(Ordering::SeqCst) > 900,
            "freed {}",
            drops.load(Ordering::SeqCst)
        );
        let stats = collector.stats();
        assert_eq!(stats.retired, 1_000);
        assert!(stats.epoch_advances > 0);
        assert!(stats.bags_published >= stats.bags_freed);
        assert!(stats.bags_freed > 0);
    }

    #[test]
    fn nothing_freed_while_a_guard_from_before_retirement_is_held() {
        let collector = Collector::new();
        let drops = Arc::new(AtomicUsize::new(0));

        // Another "thread": a second handle pinned the whole time.
        let blocker = collector.register();
        let _block_guard = blocker.pin();
        let blocked_epoch = collector.stats().global_epoch;

        for _ in 0..500 {
            retire_one(&collector, &drops);
            collector.flush();
        }
        // The blocker pinned at `blocked_epoch`; the epoch can advance at
        // most once past it, so nothing retired at or after
        // `blocked_epoch + 1` may be freed... in particular garbage retired
        // *after* the blocker pinned can never become two epochs old.
        let e = collector.stats().global_epoch;
        assert!(
            e <= blocked_epoch + 1,
            "epoch advanced past pinned participant: {e} vs {blocked_epoch}"
        );
        assert_eq!(drops.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn unpinning_blocker_releases_garbage() {
        let collector = Collector::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let blocker = collector.register();
        let block_guard = blocker.pin();
        for _ in 0..100 {
            retire_one(&collector, &drops);
        }
        drop(block_guard);
        for _ in 0..8 {
            collector.flush();
            drop(collector.pin());
        }
        assert_eq!(drops.load(Ordering::SeqCst), 100);
        let stats = collector.stats();
        assert_eq!(stats.evictable, 0);
        assert_eq!(stats.deferred_bytes, 0);
        assert!(stats.peak_deferred_bytes > 0);
    }

    /// Regression test for the seal-epoch off-by-one: a bag must be sealed
    /// with the *global* epoch at publish time, not the retirer's pin
    /// epoch. Retirer R pins at epoch 0; the epoch advances to 1; thread T
    /// pins at 1 (and may have observed pointers R is about to unlink).
    /// R's bag must not free while T is still pinned — sealing with R's pin
    /// epoch (0) would free it at global epoch 2, which T's pin permits.
    #[test]
    fn bag_is_not_freed_while_later_pinner_is_live() {
        let collector = Collector::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let retirer = collector.register();
        let later = collector.register();

        let rg = retirer.pin(); // pinned at epoch 0
        collector.flush(); // advances the global epoch to 1
        let _tg = later.pin(); // pinned at epoch 1
        let a = crate::Atomic::new(CountDrop(drops.clone()));
        let s = a.load(Ordering::SeqCst, &rg);
        unsafe { rg.defer_destroy(s) };
        drop(rg); // seals at the global epoch (1) and parks the bag

        // `later` (pinned at 1) caps the global epoch at 2; a bag sealed at
        // 1 frees only at 3, so no number of flushes may free it.
        for _ in 0..16 {
            collector.flush();
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "bag freed while a participant pinned at the seal epoch was live"
        );
        drop(_tg);
        assert!(collector.try_drain(64));
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    /// Retires `n` counted items through `h` under one pin.
    fn retire_through(h: &LocalHandle, n: usize, drops: &Arc<AtomicUsize>) {
        let guard = h.pin();
        for _ in 0..n {
            let a = crate::Atomic::new(CountDrop(drops.clone()));
            let s = a.load(Ordering::SeqCst, &guard);
            unsafe { guard.defer_destroy(s) };
        }
    }

    /// Runs `h`'s housekeeping pass: its participant scan judges parked
    /// bags at the current epoch, then advances it, and its registry pass
    /// judges published bags at the advanced epoch.
    fn housekeep(h: &LocalHandle) {
        unsafe { &*h.inner }.housekeep();
    }

    fn epoch(c: &Collector) -> u64 {
        c.stats().global_epoch
    }

    /// Handle A leaves one bag behind, parked (one retirement) or published
    /// (a full bag), and the epoch is advanced to its seal epoch + 2 by
    /// passes that collect nothing there. Another registration's
    /// housekeeping must then leave the bag until the epoch reaches
    /// seal + 2 + `OWNER_GRACE`, while A's own pass and `flush` free it at
    /// seal + 2. Two handles on one thread are two owners.
    #[test]
    fn owner_frees_its_bags_first_and_others_wait_out_the_grace() {
        #[derive(Debug, Clone, Copy)]
        enum Freer {
            Owner,
            Other,
            Flush,
        }
        for parked in [true, false] {
            for freer in [Freer::Owner, Freer::Other, Freer::Flush] {
                let case = format!("parked: {parked}, freer: {freer:?}");
                let collector = Collector::new();
                let drops = Arc::new(AtomicUsize::new(0));
                let a = collector.register();
                let b = collector.register();
                let n = if parked { 1 } else { MAX_ITEMS_PER_BAG };
                retire_through(&a, n, &drops);
                let seal = if parked {
                    let record = unsafe { &*a.inner }.record();
                    assert!(!record.parked.load(Ordering::SeqCst).is_null(), "{case}");
                    record.parked_epoch.load(Ordering::SeqCst)
                } else {
                    let head = collector.global.evictable.load(Ordering::SeqCst);
                    assert!(!head.is_null(), "{case}");
                    unsafe { (*head).epoch }
                };
                // Nothing is pinned, so each pass advances by one; these
                // scans run below seal + 2 and never reach the registry.
                while epoch(&collector) < seal + 2 {
                    collector.global.try_advance(0);
                }
                assert_eq!(epoch(&collector), seal + 2, "{case}");
                assert_eq!(drops.load(Ordering::SeqCst), 0, "{case}");
                match freer {
                    Freer::Owner => {
                        housekeep(&b);
                        assert_eq!(
                            drops.load(Ordering::SeqCst),
                            0,
                            "{case}: another registration freed the bag before the grace"
                        );
                        housekeep(&a);
                    }
                    Freer::Other => loop {
                        let e = epoch(&collector);
                        let judged_at = if parked { e } else { e + 1 };
                        housekeep(&b);
                        let freed = drops.load(Ordering::SeqCst) == n;
                        assert_eq!(
                            freed,
                            judged_at >= seal + 2 + OWNER_GRACE,
                            "{case}: judged at seal + {}",
                            judged_at - seal
                        );
                        if freed {
                            break;
                        }
                    },
                    Freer::Flush => collector.flush(),
                }
                assert_eq!(drops.load(Ordering::SeqCst), n, "{case}");
                let stats = collector.stats();
                assert_eq!((stats.retired, stats.freed), (n as u64, n as u64), "{case}");
                assert_eq!(stats.deferred_bytes, 0, "{case}");
                let stolen = u64::from(!matches!(freer, Freer::Owner));
                assert_eq!(stats.bags_stolen, stolen, "{case}");
            }
        }
    }

    #[test]
    fn nested_guards_pin_once() {
        let collector = Collector::new();
        let handle = collector.register();
        let g1 = handle.pin();
        let e1 = collector.stats().global_epoch;
        let g2 = handle.pin();
        assert!(handle.is_pinned());
        drop(g1);
        assert!(handle.is_pinned());
        drop(g2);
        assert!(!handle.is_pinned());
        let _ = e1;
    }

    #[test]
    fn exiting_thread_publishes_garbage_which_is_later_freed() {
        let collector = Collector::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let c2 = collector.clone();
        let d2 = drops.clone();
        std::thread::spawn(move || {
            for _ in 0..50 {
                retire_one(&c2, &d2);
            }
            // Thread exits; its garbage was already published at unpin.
        })
        .join()
        .unwrap();
        for _ in 0..8 {
            collector.flush();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 50);
        assert!(collector.stats().bags_stolen > 0);
    }

    /// A worker that parks forever (never pins again, never exits) must not
    /// strand its garbage: an unrelated thread steals and frees it.
    #[test]
    fn parked_thread_garbage_is_stolen_by_another_thread() {
        let collector = Collector::new();
        let drops = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let (park_tx, park_rx) = std::sync::mpsc::channel::<()>();
        let c2 = collector.clone();
        let d2 = drops.clone();
        let worker = std::thread::spawn(move || {
            for _ in 0..50 {
                retire_one(&c2, &d2);
            }
            done_tx.send(()).unwrap();
            // Park forever (until teardown): the worker still holds its
            // collector clone and TLS registration, so nothing on this
            // thread will ever pin, flush, or exit on its own.
            let _ = park_rx.recv();
            drop(c2);
        });
        done_rx.recv().unwrap();
        assert!(
            collector.try_drain(10_000),
            "parked thread's garbage was not drained: {:?}",
            collector.stats()
        );
        let stats = collector.stats();
        assert_eq!(drops.load(Ordering::SeqCst), 50);
        assert_eq!(stats.deferred_bytes, 0);
        assert!(stats.bags_stolen > 0, "{stats:?}");
        park_tx.send(()).unwrap();
        worker.join().unwrap();
    }

    #[test]
    fn dropping_collector_with_pending_garbage_frees_it() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let collector = Collector::new();
            let handle = collector.register();
            let guard = handle.pin();
            let a = crate::Atomic::new(CountDrop(drops.clone()));
            let s = a.load(Ordering::SeqCst, &guard);
            unsafe { guard.defer_destroy(s) };
            drop(guard);
            drop(handle);
        }
        // The last `Collector` drop collects through the registry; no
        // thread-local eviction or later pin is needed.
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    /// The last `Collector` drop must evict bags published by *other*
    /// threads — here a worker that retired garbage and then parked.
    #[test]
    fn last_collector_drop_frees_other_threads_garbage() {
        let drops = Arc::new(AtomicUsize::new(0));
        let collector = Collector::new();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let (park_tx, park_rx) = std::sync::mpsc::channel::<()>();
        let d2 = drops.clone();
        let c2 = collector.clone();
        let worker = std::thread::spawn(move || {
            for _ in 0..50 {
                retire_one(&c2, &d2);
            }
            drop(c2);
            done_tx.send(()).unwrap();
            let _ = park_rx.recv();
        });
        done_rx.recv().unwrap();
        drop(collector); // last clone: drains the whole registry
        assert_eq!(drops.load(Ordering::SeqCst), 50);
        park_tx.send(()).unwrap();
        worker.join().unwrap();
    }

    #[test]
    fn participant_records_are_reused() {
        let collector = Collector::new();
        let h1 = collector.register();
        let r1 = unsafe { &*h1.inner }.record;
        drop(h1);
        let h2 = collector.register();
        let r2 = unsafe { &*h2.inner }.record;
        assert_eq!(r1, r2, "released record should be reclaimed");
    }

    #[test]
    fn guard_outliving_handle_is_sound() {
        let collector = Collector::new();
        let handle = collector.register();
        let guard = handle.pin();
        drop(handle);
        // Guard still pins; dropping it finalizes the registration.
        drop(guard);
        // Re-registering reuses the slot without crashing.
        let h = collector.register();
        drop(h.pin());
    }
}
