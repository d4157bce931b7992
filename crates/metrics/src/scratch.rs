//! Scratch arena: reusable, size-classed buffer leases for the oblivious
//! kernels.
//!
//! The paper's cost model charges work, span, and cache misses — but a
//! naive implementation pays a hidden fourth cost: heap allocation on every
//! recursive call (a full oblivious sort performed hundreds of `malloc`s
//! per invocation). Cole–Ramachandran's resource-oblivious line gets its
//! cache bounds from disciplined reuse of a bounded scratch footprint;
//! [`ScratchPool`] adopts the same discipline. Kernels lease buffers
//! instead of allocating: a lease draws recycled backing storage from a
//! size-classed freelist and returns it on drop ([`ScratchGuard`]).
//!
//! ## Memory discipline contract
//!
//! * **Leases are filled, not zeroed.** Every lease overwrites all `len`
//!   elements with the caller's `fill` value before the buffer is visible,
//!   so recycled *bytes* never reach safe code (some element types contain
//!   `bool`s — handing out raw recycled bytes would be undefined
//!   behavior). This is the same write the `vec![fill; n]` it replaces
//!   performed; only the allocator round-trip disappears.
//! * **Reuse is adversary-invisible.** The pool hands out *backing
//!   storage*; the logical address space the paper's adversary observes is
//!   defined by [`crate::Tracked::new`]'s registration order, which does
//!   not depend on which physical buffer backs a lease. The trace-equality
//!   tests (`tests/scratch_reuse.rs`) pin this down: a kernel run on a
//!   fresh pool and on a dirty, heavily reused pool produces bit-identical
//!   trace hashes.
//! * **Bounded footprint.** Buffers are size-classed by power-of-two byte
//!   size, so a pool retains at most one high-water-mark set of buffers
//!   per class — the steady-state footprint of the largest kernel run
//!   through it, mirroring the `O(n)`-words auxiliary-space bounds.
//!
//! The pool is `Sync`: kernels lease concurrently from worker threads
//! under [`fj::Pool`] (per-class mutexes, uncontended in the common case).
//!
//! ## Per-core lanes
//!
//! On a multi-threaded pool the single shared freelist becomes a
//! cross-core ping-pong point: worker A frees a buffer whose cache lines
//! sit in A's L2, worker B leases it and pays the coherence misses. The
//! pool therefore keeps **worker-indexed lanes** (one freelist set per
//! [`fj::Pool`] worker index, resolved via [`fj::current_worker_index`]):
//! a lease is served from the calling worker's own lane first, and a
//! returned buffer goes back to the lane of whichever worker drops the
//! guard — so in steady state a buffer circulates within one core. The
//! shared freelist remains as the spill tier (non-worker threads, and
//! lane misses), and a lease *steals from other lanes* before touching the
//! allocator, which keeps [`fresh_allocs`](ScratchPool::fresh_allocs)
//! exact: it grows only when no free buffer of the class exists anywhere
//! in the pool — the invariant the zero-growth alloc-gate asserts, pinned
//! or not. Lane residency affects only *backing identity*, which the
//! adversary trace cannot see (the trace-equality tests cover the lane
//! configuration too).
//!
//! ## Large classes are page mappings
//!
//! A class of 128 KiB or more is an anonymous `mmap` of its own (linux;
//! elsewhere every class comes from the global allocator), unmapped when
//! the pool drops. Going through `malloc` made the process footprint depend
//! on allocator state the pool cannot see: glibc serves such a request from
//! a mapping only until some large block is freed, after which its
//! threshold climbs and the request is carved from the *calling thread's*
//! arena, which keeps the pages when the pool is dropped. A program that
//! builds pool after pool on fresh [`fj::Pool`] workers (the host-time
//! benchmark sets up seven) then peaks at one pool or two, by which arena
//! each new worker happened to draw: `kv-merge-pool` read 17 or 26 MiB from
//! one run to the next. Mapped directly, a pool's large buffers cost the
//! pages a lease has written — the unwritten tail of a power-of-two class
//! costs nothing — and all of it goes back on drop.

use std::alloc::Layout;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of per-worker lanes; worker `i` uses lane `i % NLANES`. Sixteen
/// covers every pool size the benches run; larger pools just share lanes.
const NLANES: usize = 16;

/// Number of power-of-two size classes. Class `k` holds buffers of
/// `16 << k` bytes; class 47 tops out at 2 PiB, far beyond any real lease.
const NCLASSES: usize = 48;

/// Smallest class: one 16-byte word (keeps every class 16-byte aligned,
/// the maximum alignment of the workspace's element types).
const MIN_BYTES: usize = 16;

/// Backing storage of one size class: 16-byte aligned, zeroed when fresh.
///
/// Classes of [`pages::MIN_BYTES`] and up are anonymous page mappings of
/// their own, taken from and returned to the kernel directly (module docs,
/// "Large classes are page mappings"); smaller ones come from the global
/// allocator. `words == 0` is the empty backing a dropped guard leaves
/// behind; it owns nothing.
#[derive(Debug)]
struct Backing {
    ptr: NonNull<u128>,
    words: usize,
}

// SAFETY: a `Backing` owns its storage exclusively, like the `Vec<u128>`
// it replaced.
unsafe impl Send for Backing {}
unsafe impl Sync for Backing {}

impl Backing {
    fn layout(words: usize) -> Layout {
        Layout::array::<u128>(words).expect("scratch class size overflow")
    }

    fn zeroed(words: usize) -> Backing {
        let layout = Self::layout(words);
        let raw = if layout.size() >= pages::MIN_BYTES {
            pages::map(layout.size())
        } else {
            // SAFETY: every class is at least `MIN_BYTES` long, so the
            // layout is never zero-sized.
            unsafe { std::alloc::alloc_zeroed(layout) }
        };
        match NonNull::new(raw.cast()) {
            Some(ptr) => Backing { ptr, words },
            None => std::alloc::handle_alloc_error(layout),
        }
    }
}

impl Default for Backing {
    fn default() -> Self {
        Backing {
            ptr: NonNull::dangling(),
            words: 0,
        }
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        if self.words == 0 {
            return;
        }
        let layout = Self::layout(self.words);
        // SAFETY: `ptr` came from `zeroed` with this very layout — mapped
        // or allocated by the same size test — and is released once.
        unsafe {
            if layout.size() >= pages::MIN_BYTES {
                pages::unmap(self.ptr.as_ptr().cast(), layout.size());
            } else {
                std::alloc::dealloc(self.ptr.as_ptr().cast(), layout);
            }
        }
    }
}

/// Anonymous page mappings for the large classes. `std` links libc on
/// linux, so the two prototypes are declared here (as `fj::topo` does for
/// `sched_setaffinity`) rather than pulling in a `libc` crate the offline
/// container does not have. Elsewhere `MIN_BYTES` is out of reach and every
/// class comes from the global allocator.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod pages {
    use std::ffi::c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    const PROT_READ_WRITE: i32 = 0x1 | 0x2;
    const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

    /// Smallest class mapped directly: glibc's static `M_MMAP_THRESHOLD`,
    /// a multiple of every page size in use.
    pub const MIN_BYTES: usize = 128 << 10;

    /// `bytes` of zeroed pages; null when the kernel refuses.
    pub fn map(bytes: usize) -> *mut u8 {
        // SAFETY: a fresh private anonymous mapping aliases nothing.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                bytes,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            )
        };
        if p as usize == usize::MAX {
            return std::ptr::null_mut(); // MAP_FAILED
        }
        p.cast()
    }

    /// # Safety
    /// `ptr` must be a live mapping of exactly `bytes` from [`map`].
    pub unsafe fn unmap(ptr: *mut u8, bytes: usize) {
        let rc = munmap(ptr.cast(), bytes);
        debug_assert_eq!(rc, 0, "munmap of a scratch backing failed");
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod pages {
    pub const MIN_BYTES: usize = usize::MAX;

    pub fn map(_bytes: usize) -> *mut u8 {
        unreachable!("no scratch class reaches MIN_BYTES on this platform")
    }

    /// # Safety
    /// Never called: no class reaches `MIN_BYTES` on this platform.
    pub unsafe fn unmap(_ptr: *mut u8, _bytes: usize) {
        unreachable!("no scratch class reaches MIN_BYTES on this platform")
    }
}

/// Backings are 16-byte aligned (an empty one too: its pointer is a
/// dangling `u128`'s), so no element type may ask for more.
fn check_align<T>() {
    assert!(
        std::mem::align_of::<T>() <= MIN_BYTES,
        "scratch elements must have alignment <= 16"
    );
}

/// The class of a buffer of `len` elements of `T`.
fn class_for<T>(len: usize) -> usize {
    check_align::<T>();
    let bytes = len
        .checked_mul(std::mem::size_of::<T>())
        .expect("scratch lease size overflow")
        .max(1);
    class_of(bytes)
}

/// Write `fill` over the first `len` elements of `store`, a backing of at
/// least [`class_for::<T>(len)`](class_for).
fn fill_with<T: Copy>(store: &Backing, len: usize, fill: T) {
    assert!(len * std::mem::size_of::<T>() <= store.words * std::mem::size_of::<u128>());
    let ptr = store.ptr.as_ptr().cast::<T>();
    for i in 0..len {
        // SAFETY: `len * size_of::<T>()` bytes fit in the backing (asserted
        // above), the base pointer is 16-byte aligned, which `class_for`
        // requires of `T`, and `T: Copy` needs no drop.
        unsafe { ptr.add(i).write(fill) };
    }
}

fn class_of(bytes: usize) -> usize {
    let b = bytes.next_power_of_two().max(MIN_BYTES);
    let class = b.trailing_zeros() as usize - MIN_BYTES.trailing_zeros() as usize;
    assert!(class < NCLASSES, "scratch lease of {bytes} bytes too large");
    class
}

const fn class_words(class: usize) -> usize {
    (MIN_BYTES << class) / std::mem::size_of::<u128>()
}

/// A pool of reusable scratch buffers, size-classed by power-of-two byte
/// size.
///
/// Create one per long-lived computation (a benchmark sweep, a server, a
/// test) and thread `&ScratchPool` through the kernels; after a warm-up
/// call the hot paths stop touching the global allocator entirely (see
/// `tests/alloc_gate.rs` for the enforced budget).
#[derive(Debug)]
pub struct ScratchPool {
    /// Shared spill tier: non-worker threads, plus overflow from lanes.
    classes: [Mutex<Vec<Backing>>; NCLASSES],
    /// Worker-indexed lanes (see module docs, "Per-core lanes").
    lanes: Vec<[Mutex<Vec<Backing>>; NCLASSES]>,
    leases: AtomicU64,
    fresh: AtomicU64,
    resident: AtomicU64,
    lane_hits: AtomicU64,
    spills: AtomicU64,
}

impl Default for ScratchPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ScratchPool {
    pub fn new() -> Self {
        ScratchPool {
            classes: std::array::from_fn(|_| Mutex::new(Vec::new())),
            lanes: (0..NLANES)
                .map(|_| std::array::from_fn(|_| Mutex::new(Vec::new())))
                .collect(),
            leases: AtomicU64::new(0),
            fresh: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            lane_hits: AtomicU64::new(0),
            spills: AtomicU64::new(0),
        }
    }

    /// Lane of the calling thread: its pool worker index, if any.
    fn lane_of_current() -> Option<usize> {
        fj::current_worker_index().map(|w| w % NLANES)
    }

    fn pop_class(slot: &Mutex<Vec<Backing>>) -> Option<Backing> {
        slot.lock().unwrap_or_else(|e| e.into_inner()).pop()
    }

    /// Find a recycled buffer of `class`: own lane, then the shared tier,
    /// then — before ever touching the allocator — every other lane. The
    /// full scan is what keeps `fresh_allocs` an exact "no free buffer of
    /// this class existed anywhere" count even when leases and returns
    /// happen on different workers.
    fn recycle(&self, class: usize, lane: Option<usize>) -> Option<Backing> {
        if let Some(l) = lane {
            if let Some(b) = Self::pop_class(&self.lanes[l][class]) {
                self.lane_hits.fetch_add(1, Ordering::Relaxed);
                return Some(b);
            }
        }
        if let Some(b) = Self::pop_class(&self.classes[class]) {
            if lane.is_some() {
                self.spills.fetch_add(1, Ordering::Relaxed);
            }
            return Some(b);
        }
        for (l, other) in self.lanes.iter().enumerate() {
            if Some(l) == lane {
                continue;
            }
            if let Some(b) = Self::pop_class(&other[class]) {
                if lane.is_some() {
                    self.spills.fetch_add(1, Ordering::Relaxed);
                }
                return Some(b);
            }
        }
        None
    }

    /// Lease a buffer of `len` elements, every one initialized to `fill`.
    ///
    /// The *backing bytes* are recycled from earlier leases (dirty), but
    /// the returned slice is always fully overwritten with `fill` first —
    /// exactly the initialization `vec![fill; len]` would have performed.
    /// The storage returns to the pool when the guard drops.
    pub fn lease<T: Copy + Send>(&self, len: usize, fill: T) -> ScratchGuard<'_, T> {
        let class = class_for::<T>(len);
        let recycled = self.recycle(class, Self::lane_of_current());
        let store = recycled.unwrap_or_else(|| {
            self.fresh.fetch_add(1, Ordering::Relaxed);
            self.resident
                .fetch_add((MIN_BYTES << class) as u64, Ordering::Relaxed);
            Backing::zeroed(class_words(class))
        });
        self.leases.fetch_add(1, Ordering::Relaxed);
        debug_assert_eq!(store.words, class_words(class));
        fill_with(&store, len, fill);
        ScratchGuard {
            store,
            len,
            pool: Some(self),
            _elem: PhantomData,
        }
    }

    /// Total leases served (diagnostics).
    pub fn leases(&self) -> u64 {
        self.leases.load(Ordering::Relaxed)
    }

    /// Leases that had to allocate fresh backing storage (pool misses).
    /// In steady state this stops growing — the allocation-gate test
    /// asserts exactly that.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh.load(Ordering::Relaxed)
    }

    /// Bytes of backing storage owned by this pool (leased or free).
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Leases served from the calling worker's own lane (the no-bounce
    /// fast path).
    pub fn lane_hits(&self) -> u64 {
        self.lane_hits.load(Ordering::Relaxed)
    }

    /// Worker leases served from the shared tier or a foreign lane —
    /// recycled storage that crossed cores. It never implies a fresh
    /// allocation.
    pub fn spill_leases(&self) -> u64 {
        self.spills.load(Ordering::Relaxed)
    }

    /// Returned buffers land in the lane of the worker that *drops* the
    /// guard: the storage stays with the core whose cache last touched it.
    fn give_back(&self, store: Backing) {
        if store.words == 0 {
            return;
        }
        let class = class_of(store.words * std::mem::size_of::<u128>());
        let slot = match Self::lane_of_current() {
            Some(l) => &self.lanes[l][class],
            None => &self.classes[class],
        };
        slot.lock().unwrap_or_else(|e| e.into_inner()).push(store);
    }
}

/// An exclusive lease on a scratch buffer; derefs to `[T]` and returns the
/// backing storage to its [`ScratchPool`] on drop.
///
/// Pass `&mut guard` anywhere a `&mut [T]` is expected — in particular to
/// [`crate::Tracked::new`], which is how leased scratch enters the metered
/// logical address space.
pub struct ScratchGuard<'p, T: Copy + Send> {
    store: Backing,
    len: usize,
    /// Where the storage goes on drop; `None` in a [`Lane`], whose storage
    /// goes back to the system.
    pool: Option<&'p ScratchPool>,
    _elem: PhantomData<fn() -> T>,
}

impl<T: Copy + Send> Deref for ScratchGuard<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: lease() initialized self.len elements of T at the base.
        unsafe { std::slice::from_raw_parts(self.store.ptr.as_ptr().cast(), self.len) }
    }
}

impl<T: Copy + Send> DerefMut for ScratchGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in Deref; exclusivity via &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.store.ptr.as_ptr().cast(), self.len) }
    }
}

impl<T: Copy + Send> Drop for ScratchGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(pool) = self.pool {
            pool.give_back(std::mem::take(&mut self.store));
        }
    }
}

/// A buffer a long-lived owner keeps from call to call — a store shard's
/// merge lanes — in the pool's storage classes but outside any pool: a
/// class of 128 KiB or more is a page mapping of its own, like a lease's
/// (module docs, "Large classes are page mappings"), so the footprint does
/// not depend on which thread's `malloc` arena a lane was carved from.
/// [`Lane::fit`] is its only fill: it sets the length, and fills every
/// element, only when the length changes. Its storage is always its
/// length's class: kept while the class holds, mapped afresh (and the old
/// storage freed) when it does not, so a lane grown for one large call
/// does not keep its pages after it. A dropped lane frees its storage.
pub struct Lane<T: Copy + Send>(ScratchGuard<'static, T>);

impl<T: Copy + Send> Default for Lane<T> {
    fn default() -> Self {
        check_align::<T>();
        Lane(ScratchGuard {
            store: Backing::default(),
            len: 0,
            pool: None,
            _elem: PhantomData,
        })
    }
}

impl<T: Copy + Send> Lane<T> {
    /// The lane at `len` elements: as it stands if it has that length,
    /// else every element `fill`.
    pub fn fit(&mut self, len: usize, fill: T) -> &mut [T] {
        let lane = &mut self.0;
        if lane.len != len || lane.store.words == 0 {
            let words = class_words(class_for::<T>(len));
            if lane.store.words != words {
                lane.store = Backing::zeroed(words);
            }
            fill_with(&lane.store, len, fill);
            lane.len = len;
        }
        lane
    }
}

impl<T: Copy + Send> Deref for Lane<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T: Copy + Send> DerefMut for Lane<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_is_filled_and_sized() {
        let sp = ScratchPool::new();
        let g = sp.lease(100, 7u64);
        assert_eq!(g.len(), 100);
        assert!(g.iter().all(|&x| x == 7));
    }

    #[test]
    fn a_lane_is_filled_only_when_its_length_changes() {
        let mut lane = Lane::default();
        assert!(lane.is_empty());
        lane.fit(100, 7u64)[3] = 9;
        // Same length: the lane as it stands, not refilled.
        assert_eq!(lane.fit(100, 0)[..4], [7, 7, 7, 9]);
        // New length, in the same class or another: filled afresh.
        assert!(lane.fit(120, 5).iter().all(|&x| x == 5));
        assert!(lane.fit(3000, 6).iter().all(|&x| x == 6));
        assert!(lane.fit(2, 1).iter().all(|&x| x == 1));
        assert_eq!(lane.len(), 2);
    }

    #[test]
    fn storage_is_recycled_across_leases() {
        let sp = ScratchPool::new();
        {
            let mut g = sp.lease(1000, 0u64);
            g[0] = 0xDEAD;
        }
        assert_eq!(sp.fresh_allocs(), 1);
        {
            // Same size class: must reuse, and must be re-filled.
            let g = sp.lease(1000, 5u64);
            assert!(g.iter().all(|&x| x == 5));
        }
        assert_eq!(sp.fresh_allocs(), 1, "second lease must hit the pool");
        assert_eq!(sp.leases(), 2);
    }

    #[test]
    fn different_classes_do_not_alias() {
        let sp = ScratchPool::new();
        let a = sp.lease(10, 1u64); // 80 B -> 128 B class
        let b = sp.lease(1000, 2u64); // 8 kB class
        assert_eq!(sp.fresh_allocs(), 2);
        assert!(a.iter().all(|&x| x == 1));
        assert!(b.iter().all(|&x| x == 2));
    }

    #[test]
    fn large_classes_round_trip_through_page_mappings() {
        // 128 KiB is the first mapped class on linux: straddle it, and
        // drop the pool (which unmaps) on a thread that mapped nothing.
        let sp = ScratchPool::new();
        for bytes in [64 << 10, (64 << 10) + 8, 128 << 10, (1 << 20) + 24] {
            let len = bytes / 8;
            {
                let mut g = sp.lease(len, 0xA5A5u64);
                assert!(g.iter().all(|&x| x == 0xA5A5));
                g[len - 1] = 1;
            }
            let fresh = sp.fresh_allocs();
            let g = sp.lease(len, 7u64);
            assert!(g.iter().all(|&x| x == 7), "recycled pages are re-filled");
            assert_eq!(sp.fresh_allocs(), fresh, "same class must be reused");
        }
        assert_eq!(sp.resident_bytes(), (64 << 10) + (128 << 10) + (2 << 20));
        std::thread::spawn(move || drop(sp)).join().unwrap();
    }

    #[test]
    fn zero_length_lease_is_fine() {
        let sp = ScratchPool::new();
        let g = sp.lease(0, 0u8);
        assert!(g.is_empty());
    }

    #[test]
    fn wide_elements_are_aligned() {
        #[derive(Clone, Copy, Default)]
        struct Fat {
            _a: u128,
            _b: u64,
        }
        let sp = ScratchPool::new();
        let g = sp.lease(33, Fat::default());
        assert_eq!(g.as_ptr() as usize % std::mem::align_of::<Fat>(), 0);
        assert_eq!(g.len(), 33);
    }

    #[test]
    fn concurrent_leases_are_disjoint() {
        use std::sync::Arc;
        let sp = Arc::new(ScratchPool::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let sp = Arc::clone(&sp);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let mut g = sp.lease(64, t as u64);
                        g[0] = t as u64 * 1000 + i;
                        assert_eq!(g[0], t as u64 * 1000 + i);
                        assert!(g[1..].iter().all(|&x| x == t as u64));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sp.leases(), 8 * 200);
    }

    #[test]
    fn worker_leases_use_lanes() {
        use fj::Ctx;
        let sp = ScratchPool::new();
        let pool = fj::Pool::new(1);
        // Warm: lease + drop on worker 0 leaves the buffer in lane 0.
        pool.run(|_| {
            let _g = sp.lease(100, 0u64);
        });
        assert_eq!(sp.fresh_allocs(), 1);
        // Re-lease on the same worker: lane hit, no fresh alloc, no spill.
        pool.run(|_| {
            let g = sp.lease(100, 3u64);
            assert!(g.iter().all(|&x| x == 3));
        });
        assert_eq!(sp.fresh_allocs(), 1);
        assert!(sp.lane_hits() >= 1);
        assert_eq!(sp.spill_leases(), 0);
        let _ = pool.join(|_| (), |_| ());
    }

    #[test]
    fn lane_residency_never_forces_a_fresh_alloc() {
        // A buffer freed into worker 0's lane must still satisfy a lease
        // from a non-worker thread (exact zero-growth accounting): the
        // recycle path scans foreign lanes before allocating.
        let sp = ScratchPool::new();
        let pool = fj::Pool::new(1);
        pool.run(|_| {
            let _g = sp.lease(500, 7u64);
        });
        assert_eq!(sp.fresh_allocs(), 1);
        drop(pool);
        // Main thread has no lane; the buffer lives in lane 0.
        let g = sp.lease(500, 9u64);
        assert!(g.iter().all(|&x| x == 9));
        assert_eq!(sp.fresh_allocs(), 1, "lane-resident buffer must be found");
        assert_eq!(sp.spill_leases(), 0, "non-worker leases are not spills");
    }

    #[test]
    fn cross_lane_steal_counts_as_spill() {
        let sp = ScratchPool::new();
        // Park a buffer in the shared tier from a non-worker thread.
        drop(sp.lease(64, 0u64));
        assert_eq!(sp.fresh_allocs(), 1);
        // A worker lease missing its lane takes the shared buffer: spill.
        let pool = fj::Pool::new(1);
        pool.run(|_| {
            let g = sp.lease(64, 1u64);
            assert!(g.iter().all(|&x| x == 1));
        });
        assert_eq!(sp.fresh_allocs(), 1);
        assert_eq!(sp.spill_leases(), 1);
    }

    #[test]
    fn tracked_integration() {
        use crate::Tracked;
        use fj::SeqCtx;
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut g = sp.lease(16, 0u64);
        let mut t = Tracked::new(&c, &mut g);
        t.set(&c, 3, 42);
        assert_eq!(t.get(&c, 3), 42);
    }
}
