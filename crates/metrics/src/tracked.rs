//! Tracked memory: slices whose every access is visible to the context.
//!
//! All data the paper's adversary can observe accesses to lives in
//! [`Tracked`] buffers. Element accesses report `(buffer, offset, length,
//! kind)` through [`fj::Ctx::touch`]; on the metering executor this drives
//! the cache simulator and the adversary trace, on parallel/sequential
//! executors it compiles to nothing.
//!
//! Each element occupies `ceil(size_of::<T>() / 8)` words of the logical
//! address space so fat records (e.g. the oblivious-sort `Slot`) consume a
//! realistic number of cache lines.

use fj::{Access, BufId, Ctx};

/// Number of 8-byte words one `T` occupies in the logical address space.
pub const fn words_per<T>() -> u64 {
    let bytes = std::mem::size_of::<T>();
    let w = bytes.div_ceil(8);
    if w == 0 {
        1
    } else {
        w as u64
    }
}

/// A mutable slice registered with an execution context.
pub struct Tracked<'a, T> {
    data: &'a mut [T],
    buf: BufId,
    off: u64,
    wpe: u64,
}

impl<'a, T: Copy> Tracked<'a, T> {
    /// Register `data` as a fresh logical buffer.
    pub fn new<C: Ctx>(c: &C, data: &'a mut [T]) -> Self {
        let wpe = words_per::<T>();
        let buf = c.register(data.len() as u64 * wpe);
        Tracked {
            data,
            buf,
            off: 0,
            wpe,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read element `i`, reporting the access.
    #[inline]
    pub fn get<C: Ctx>(&self, c: &C, i: usize) -> T {
        c.touch(
            self.buf,
            self.off + i as u64 * self.wpe,
            self.wpe,
            Access::Read,
        );
        c.work(1);
        self.data[i]
    }

    /// Write element `i`, reporting the access.
    #[inline]
    pub fn set<C: Ctx>(&mut self, c: &C, i: usize, v: T) {
        c.touch(
            self.buf,
            self.off + i as u64 * self.wpe,
            self.wpe,
            Access::Write,
        );
        c.work(1);
        self.data[i] = v;
    }

    /// Reborrow as a shorter-lived tracked slice (same buffer identity).
    #[inline]
    pub fn borrow_mut(&mut self) -> Tracked<'_, T> {
        Tracked {
            data: self.data,
            buf: self.buf,
            off: self.off,
            wpe: self.wpe,
        }
    }

    /// Split into two disjoint tracked slices at `mid`.
    #[inline]
    pub fn split_at_mut(&mut self, mid: usize) -> (Tracked<'_, T>, Tracked<'_, T>) {
        let (lo, hi) = self.data.split_at_mut(mid);
        (
            Tracked {
                data: lo,
                buf: self.buf,
                off: self.off,
                wpe: self.wpe,
            },
            Tracked {
                data: hi,
                buf: self.buf,
                off: self.off + mid as u64 * self.wpe,
                wpe: self.wpe,
            },
        )
    }

    /// [`Self::split_at_mut`] by value: the halves keep the whole borrow,
    /// so a recursion can hand them on to its forks.
    #[inline]
    pub fn split(self, mid: usize) -> (Tracked<'a, T>, Tracked<'a, T>) {
        let (lo, hi) = self.data.split_at_mut(mid);
        (
            Tracked {
                data: lo,
                buf: self.buf,
                off: self.off,
                wpe: self.wpe,
            },
            Tracked {
                data: hi,
                buf: self.buf,
                off: self.off + mid as u64 * self.wpe,
                wpe: self.wpe,
            },
        )
    }

    /// Tracked view of `lo..hi`.
    #[inline]
    pub fn range(&mut self, lo: usize, hi: usize) -> Tracked<'_, T> {
        Tracked {
            data: &mut self.data[lo..hi],
            buf: self.buf,
            off: self.off + lo as u64 * self.wpe,
            wpe: self.wpe,
        }
    }

    /// The same elements (same buffer identity, same addresses) viewed as
    /// `U` — for a kernel written over a layout-identical type, e.g. a
    /// unit-payload slot sorted as the packed cell it is laid out as.
    ///
    /// # Safety
    /// `T` and `U` must have the same size (checked) and alignment
    /// (checked), and every value of either type must be a valid value of
    /// the other at the byte level: what the view writes is read back as
    /// `T`.
    #[inline]
    pub unsafe fn cast<U: Copy>(&mut self) -> Tracked<'_, U> {
        assert!(
            std::mem::size_of::<T>() == std::mem::size_of::<U>()
                && std::mem::align_of::<T>() == std::mem::align_of::<U>(),
            "Tracked::cast between differently laid out types"
        );
        Tracked {
            // SAFETY: same length, size and alignment; validity of the
            // bytes as `U` is the caller's contract.
            data: std::slice::from_raw_parts_mut(self.data.as_mut_ptr().cast(), self.data.len()),
            buf: self.buf,
            off: self.off,
            wpe: self.wpe,
        }
    }

    /// Untracked escape hatch: callers must account for what they read
    /// through it themselves on a metered run.
    #[inline]
    pub fn raw(&self) -> &[T] {
        self.data
    }

    /// Copy `len` elements from `src[src_i..]` to `self[dst_i..]`, with
    /// per-element accounting (used by matrix transposition and bin moves).
    pub fn copy_from<C: Ctx>(
        &mut self,
        c: &C,
        src: &Tracked<'_, T>,
        src_i: usize,
        dst_i: usize,
        len: usize,
    ) {
        if len == 0 {
            return;
        }
        c.touch(
            src.buf,
            src.off + src_i as u64 * src.wpe,
            len as u64 * src.wpe,
            Access::Read,
        );
        c.touch(
            self.buf,
            self.off + dst_i as u64 * self.wpe,
            len as u64 * self.wpe,
            Access::Write,
        );
        c.work(len as u64);
        self.data[dst_i..dst_i + len].copy_from_slice(&src.data[src_i..src_i + len]);
    }
}

impl<T: Copy> Tracked<'_, T> {
    /// Buffer identity (for manual `touch` accounting).
    #[inline]
    pub fn buf(&self) -> BufId {
        self.buf
    }

    /// Word offset of element 0 within the buffer.
    #[inline]
    pub fn off(&self) -> u64 {
        self.off
    }

    /// Words per element.
    #[inline]
    pub fn wpe(&self) -> u64 {
        self.wpe
    }

    /// Raw-pointer view for parallel algorithms whose write sets are
    /// provably disjoint but not expressible as slice splits (matrix
    /// transposition, butterfly layers). See [`RawTracked`].
    #[inline]
    pub fn as_raw(&mut self) -> RawTracked<T> {
        RawTracked {
            ptr: self.data.as_mut_ptr(),
            len: self.data.len(),
            buf: self.buf,
            off: self.off,
            wpe: self.wpe,
        }
    }
}

/// Unsafe parallel view of a [`Tracked`] slice.
///
/// Some binary fork-join algorithms (butterfly layers, matrix transposes)
/// partition their index set in ways Rust's slice splitting cannot express.
/// `RawTracked` carries the tracking metadata alongside a raw pointer; the
/// caller promises that concurrent tasks access disjoint index sets.
#[derive(Clone, Copy)]
pub struct RawTracked<T> {
    ptr: *mut T,
    len: usize,
    buf: BufId,
    off: u64,
    wpe: u64,
}

// SAFETY: disjointness of concurrent access is the caller's obligation per
// the get/set safety contracts.
unsafe impl<T: Send> Send for RawTracked<T> {}
unsafe impl<T: Send> Sync for RawTracked<T> {}

impl<T: Copy> RawTracked<T> {
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buffer identity (for manual `touch` accounting in batched kernels).
    #[inline]
    pub fn buf(&self) -> BufId {
        self.buf
    }

    /// Word offset of element 0 within the buffer.
    #[inline]
    pub fn off(&self) -> u64 {
        self.off
    }

    /// Words per element.
    #[inline]
    pub fn wpe(&self) -> u64 {
        self.wpe
    }

    /// The underlying pointer, for kernels that access several elements
    /// per operation (e.g. vector compare-exchange). Callers doing so on
    /// a metered run must replay the equivalent [`fj::Ctx::touch`] /
    /// [`fj::Ctx::work`] accounting themselves.
    ///
    /// # Safety
    /// Dereferencing inherits the [`RawTracked`] disjointness contract.
    #[inline]
    pub fn as_mut_ptr(&self) -> *mut T {
        self.ptr
    }

    /// Read element `i`.
    ///
    /// # Safety
    /// No concurrent task may be writing element `i`.
    #[inline]
    pub unsafe fn get<C: Ctx>(&self, c: &C, i: usize) -> T {
        debug_assert!(i < self.len);
        c.touch(
            self.buf,
            self.off + i as u64 * self.wpe,
            self.wpe,
            Access::Read,
        );
        c.work(1);
        *self.ptr.add(i)
    }

    /// Write element `i`.
    ///
    /// # Safety
    /// No concurrent task may be accessing element `i`.
    #[inline]
    pub unsafe fn set<C: Ctx>(&self, c: &C, i: usize, v: T) {
        debug_assert!(i < self.len);
        c.touch(
            self.buf,
            self.off + i as u64 * self.wpe,
            self.wpe,
            Access::Write,
        );
        c.work(1);
        *self.ptr.add(i) = v;
    }

    /// Copy `len` contiguous elements from `src[src_i..]` into
    /// `self[dst_i..]`.
    ///
    /// # Safety
    /// The ranges must be in bounds; no concurrent task may overlap them.
    pub unsafe fn copy_from<C: Ctx>(
        &self,
        c: &C,
        src: &RawTracked<T>,
        src_i: usize,
        dst_i: usize,
        len: usize,
    ) {
        if len == 0 {
            return;
        }
        debug_assert!(src_i + len <= src.len && dst_i + len <= self.len);
        c.touch(
            src.buf,
            src.off + src_i as u64 * src.wpe,
            len as u64 * src.wpe,
            Access::Read,
        );
        c.touch(
            self.buf,
            self.off + dst_i as u64 * self.wpe,
            len as u64 * self.wpe,
            Access::Write,
        );
        c.work(len as u64);
        std::ptr::copy_nonoverlapping(src.ptr.add(src_i), self.ptr.add(dst_i), len);
    }
}

/// Build a `len`-element vector in parallel, one tracked write per element
/// (`O(len)` work, `O(log len)` span plus the cost of `f`). The workhorse
/// for the reveal/readout phases whose span would otherwise be linear.
pub fn par_collect<C, T, F>(c: &C, len: usize, f: &F) -> Vec<T>
where
    C: Ctx,
    T: Copy + Default + Send,
    F: Fn(&C, usize) -> T + Sync,
{
    let mut out = vec![T::default(); len];
    {
        let mut t = Tracked::new(c, &mut out);
        par_fill(c, &mut t, f);
    }
    out
}

// --- Elementwise combinators ------------------------------------------------
//
// In the binary fork-join model an oblivious "map" phase is a fork tree
// whose leaf `i` reads what it likes and writes position `i` of its output
// lanes, whatever the data. The combinators below are that one fact,
// written once. They build the tree of `par_for(c, 0, len, grain_for(c), …)`
// by *splitting* the lanes (`mid = len / 2`, sequential leaves of at most a
// grain), so a task holds `&mut` to its own positions only and the borrow
// checker carries the disjoint-index proof. A closure receives a value and
// returns a value: it reads other lanes through shared `&Tracked` +
// [`Tracked::get`] and cannot name a write address at all. Per index the
// touch order is fixed — the old element of an updated lane, whatever the
// closure reads, then the writes in lane order.

/// Fill an existing tracked slice in parallel, one tracked write per
/// element — the allocation-free sibling of [`par_collect`] for buffers
/// leased from a [`crate::ScratchPool`].
pub fn par_fill<C, T, F>(c: &C, t: &mut Tracked<'_, T>, f: &F)
where
    C: Ctx,
    T: Copy + Send,
    F: Fn(&C, usize) -> T + Sync,
{
    leaves(c, t.borrow_mut(), 0, fj::grain_for(c), &|c, first, t| {
        for k in 0..t.len() {
            t.set(c, k, f(c, first + k));
        }
    });
}

/// Rewrite a tracked slice in place: element `i` becomes `f(ctx, i, old)`,
/// one tracked read and one tracked write per element.
pub fn par_update<C, T, F>(c: &C, t: &mut Tracked<'_, T>, f: &F)
where
    C: Ctx,
    T: Copy + Send,
    F: Fn(&C, usize, T) -> T + Sync,
{
    leaves(c, t.borrow_mut(), 0, fj::grain_for(c), &|c, first, t| {
        for k in 0..t.len() {
            let old = t.get(c, k);
            t.set(c, k, f(c, first + k, old));
        }
    });
}

/// [`par_fill`] over two equal-length lanes from one closure: `a[i]`, then
/// `b[i]`.
pub fn par_fill2<C, A, B, F>(c: &C, a: &mut Tracked<'_, A>, b: &mut Tracked<'_, B>, f: &F)
where
    C: Ctx,
    A: Copy + Send,
    B: Copy + Send,
    F: Fn(&C, usize) -> (A, B) + Sync,
{
    let grain = fj::grain_for(c);
    leaves2(
        c,
        a.borrow_mut(),
        b.borrow_mut(),
        0,
        grain,
        &|c, first, a, b| {
            for k in 0..a.len() {
                let (x, y) = f(c, first + k);
                a.set(c, k, x);
                b.set(c, k, y);
            }
        },
    );
}

/// [`par_update`] of `t` zipped with a [`par_fill`] of `side`: `f(ctx, i,
/// old)` returns the new `t[i]` and `side[i]`, written in that order.
pub fn par_update_fill<C, T, U, F>(c: &C, t: &mut Tracked<'_, T>, side: &mut Tracked<'_, U>, f: &F)
where
    C: Ctx,
    T: Copy + Send,
    U: Copy + Send,
    F: Fn(&C, usize, T) -> (T, U) + Sync,
{
    let grain = fj::grain_for(c);
    leaves2(
        c,
        t.borrow_mut(),
        side.borrow_mut(),
        0,
        grain,
        &|c, first, t, side| {
            for k in 0..t.len() {
                let (new, other) = f(c, first + k, t.get(c, k));
                t.set(c, k, new);
                side.set(c, k, other);
            }
        },
    );
}

/// `leaf(ctx, first, run)` over the runs of at most `grain` elements that
/// `par_for(c, 0, t.len(), grain, …)` would execute sequentially, forking
/// where it forks; `first` is the run's position in the whole lane.
fn leaves<C, T, F>(c: &C, mut t: Tracked<'_, T>, first: usize, grain: usize, leaf: &F)
where
    C: Ctx,
    T: Copy + Send,
    F: Fn(&C, usize, &mut Tracked<'_, T>) + Sync,
{
    if t.len() <= grain.max(1) {
        return leaf(c, first, &mut t);
    }
    let mid = t.len() / 2;
    let (lo, hi) = t.split_at_mut(mid);
    c.join(
        move |c| leaves(c, lo, first, grain, leaf),
        move |c| leaves(c, hi, first + mid, grain, leaf),
    );
}

/// [`leaves`] over two lanes of one length, split together.
fn leaves2<C, A, B, F>(
    c: &C,
    mut a: Tracked<'_, A>,
    mut b: Tracked<'_, B>,
    first: usize,
    grain: usize,
    leaf: &F,
) where
    C: Ctx,
    A: Copy + Send,
    B: Copy + Send,
    F: Fn(&C, usize, &mut Tracked<'_, A>, &mut Tracked<'_, B>) + Sync,
{
    assert_eq!(a.len(), b.len(), "zipped lanes must have one length");
    if a.len() <= grain.max(1) {
        return leaf(c, first, &mut a, &mut b);
    }
    let mid = a.len() / 2;
    let (a_lo, a_hi) = a.split_at_mut(mid);
    let (b_lo, b_hi) = b.split_at_mut(mid);
    c.join(
        move |c| leaves2(c, a_lo, b_lo, first, grain, leaf),
        move |c| leaves2(c, a_hi, b_hi, first + mid, grain, leaf),
    );
}

/// Run `f(ctx, chunk_index, chunk)` over the `len/chunk` equal chunks of a
/// tracked slice, forking in a balanced binary tree (length must divide
/// evenly). The tracked analogue of [`fj::par_chunks_mut`].
pub fn par_tracked_chunks<C, T, F>(c: &C, t: Tracked<'_, T>, chunk: usize, f: &F)
where
    C: Ctx,
    T: Copy + Send,
    F: Fn(&C, usize, Tracked<'_, T>) + Sync,
{
    assert!(
        chunk > 0 && t.len().is_multiple_of(chunk),
        "chunk must divide length"
    );
    let count = t.len() / chunk;
    if count == 0 {
        return;
    }
    go(c, t, chunk, 0, count, f);

    fn go<C, T, F>(c: &C, mut t: Tracked<'_, T>, chunk: usize, first: usize, count: usize, f: &F)
    where
        C: Ctx,
        T: Copy + Send,
        F: Fn(&C, usize, Tracked<'_, T>) + Sync,
    {
        if count == 1 {
            f(c, first, t);
            return;
        }
        let left = count / 2;
        let (lo, hi) = t.split_at_mut(left * chunk);
        c.join(
            move |c| go(c, lo, chunk, first, left, f),
            move |c| go(c, hi, chunk, first + left, count - left, f),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::meter::measure;
    use crate::trace::TraceMode;
    use fj::SeqCtx;

    #[test]
    fn get_set_roundtrip() {
        let c = SeqCtx::new();
        let mut v = vec![0u64; 8];
        let mut t = Tracked::new(&c, &mut v);
        t.set(&c, 3, 42);
        assert_eq!(t.get(&c, 3), 42);
    }

    #[test]
    fn split_preserves_offsets() {
        let (_, rep) = measure(CacheConfig::new(1 << 10, 16), TraceMode::Full, |c| {
            let mut v = vec![0u64; 64];
            let mut t = Tracked::new(c, &mut v);
            let (mut lo, mut hi) = t.split_at_mut(32);
            lo.set(c, 0, 1);
            hi.set(c, 0, 2);
        });
        // Two writes, 32 words apart => different blocks (B = 16 words).
        assert_eq!(rep.cache_misses, 2);
    }

    #[test]
    fn fat_elements_occupy_multiple_words() {
        #[derive(Clone, Copy)]
        #[allow(dead_code)]
        struct Fat([u64; 4]);
        assert_eq!(words_per::<Fat>(), 4);
        assert_eq!(words_per::<u8>(), 1);
        assert_eq!(words_per::<u128>(), 2);
    }

    #[test]
    fn copy_from_moves_data() {
        let c = SeqCtx::new();
        let mut a = vec![1u64, 2, 3, 4];
        let mut b = vec![0u64; 4];
        let ta = Tracked::new(&c, &mut a);
        let mut tb = Tracked::new(&c, &mut b);
        tb.copy_from(&c, &ta, 1, 0, 3);
        assert_eq!(b, vec![2, 3, 4, 0]);
    }
}

#[cfg(test)]
mod helper_tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::meter::{measure, MeterCtx};
    use crate::trace::{TraceEvent, TraceMode};
    use fj::SeqCtx;

    #[test]
    fn par_collect_builds_in_order() {
        let c = SeqCtx::new();
        let v = par_collect(&c, 100, &|_, i| i as u64 * 3);
        assert_eq!(v.len(), 100);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
    }

    #[test]
    fn par_collect_has_log_span() {
        let (_, rep) = measure(CacheConfig::default(), TraceMode::Off, |c| {
            par_collect(c, 1 << 12, &|_, i| i as u64);
        });
        assert!(rep.span < 100, "span {} should be O(log n)", rep.span);
        assert!(rep.work >= 1 << 12);
    }

    #[test]
    fn charge_par_adds_work_but_log_depth() {
        use fj::Ctx;
        let (_, rep) = measure(CacheConfig::default(), TraceMode::Off, |c| {
            c.charge_par(1_000_000);
        });
        assert_eq!(rep.work, 1_000_000);
        assert!(rep.span <= 2 * 20 + 1 + 2, "span {}", rep.span);
    }

    #[test]
    fn par_tracked_chunks_visits_each_chunk_once() {
        let c = SeqCtx::new();
        let mut v = vec![0u64; 64];
        let t = Tracked::new(&c, &mut v);
        par_tracked_chunks(&c, t, 8, &|c, idx, mut chunk| {
            for i in 0..chunk.len() {
                chunk.set(c, i, idx as u64);
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i / 8) as u64);
        }
    }

    /// `(a, b)` after `f(ctx, input, a, b)` under the meter, with the full
    /// touch sequence, the work and the span. `input` is a read-only lane
    /// the phases consult at `i` and its neighbour.
    fn metered(
        n: usize,
        f: impl Fn(&MeterCtx, &Tracked<'_, u64>, &mut Tracked<'_, u64>, &mut Tracked<'_, u128>),
    ) -> (Vec<u64>, Vec<u128>, Vec<TraceEvent>, u64, u64) {
        let c = MeterCtx::new(CacheConfig::default(), TraceMode::Full);
        let mut input: Vec<u64> = (0..n as u64).map(|i| i * i + 1).collect();
        let (mut a, mut b) = (vec![7u64; n], vec![9u128; n]);
        {
            let input = Tracked::new(&c, &mut input);
            f(
                &c,
                &input,
                &mut Tracked::new(&c, &mut a),
                &mut Tracked::new(&c, &mut b),
            );
        }
        let rep = c.report();
        (a, b, c.trace_events(), rep.work, rep.span)
    }

    #[test]
    fn combinators_replay_the_raw_loops_they_replace() {
        use fj::{grain_for, par_for};
        // Odd length: the fork tree is not a perfect one.
        let n = 37;
        let next = |i: usize| (i + 1) % n;

        // par_fill: leaf i reads two input slots and writes a[i].
        let safe = metered(n, |c, input, a, _| {
            par_fill(c, a, &|c, i| input.get(c, i) + input.get(c, next(i)));
        });
        let raw = metered(n, |c, input, a, _| {
            let ar = a.as_raw();
            par_for(c, 0, n, grain_for(c), &|c, i| unsafe {
                ar.set(c, i, input.get(c, i) + input.get(c, next(i)));
            });
        });
        assert!(safe == raw, "par_fill");
        assert_eq!(safe.2.len(), 3 * n);

        // par_update: old a[i] first, then the closure's reads, then a[i].
        let safe = metered(n, |c, input, a, _| {
            par_update(c, a, &|c, i, old| old ^ input.get(c, i));
        });
        let raw = metered(n, |c, input, a, _| {
            let ar = a.as_raw();
            par_for(c, 0, n, grain_for(c), &|c, i| unsafe {
                let old = ar.get(c, i);
                ar.set(c, i, old ^ input.get(c, i));
            });
        });
        assert!(safe == raw, "par_update");

        // par_fill2: the closure's reads, then a[i], then b[i].
        let safe = metered(n, |c, input, a, b| {
            par_fill2(c, a, b, &|c, i| {
                let x = input.get(c, next(i));
                (x + 1, (x as u128) << 64)
            });
        });
        let raw = metered(n, |c, input, a, b| {
            let (ar, br) = (a.as_raw(), b.as_raw());
            par_for(c, 0, n, grain_for(c), &|c, i| unsafe {
                let x = input.get(c, next(i));
                ar.set(c, i, x + 1);
                br.set(c, i, (x as u128) << 64);
            });
        });
        assert!(safe == raw, "par_fill2");

        // par_update_fill: old a[i], the closure's reads, a[i], b[i].
        let safe = metered(n, |c, input, a, b| {
            par_update_fill(c, a, b, &|c, i, old| {
                let x = input.get(c, i);
                (old + x, (old * x) as u128)
            });
        });
        let raw = metered(n, |c, input, a, b| {
            let (ar, br) = (a.as_raw(), b.as_raw());
            par_for(c, 0, n, grain_for(c), &|c, i| unsafe {
                let old = ar.get(c, i);
                let x = input.get(c, i);
                ar.set(c, i, old + x);
                br.set(c, i, (old * x) as u128);
            });
        });
        assert!(safe == raw, "par_update_fill");
        assert_eq!(safe.2.len(), 4 * n);
    }

    #[test]
    fn combinators_on_a_pool_match_the_sequential_result() {
        // Several grains long, so the pool really forks.
        let n = 5 * fj::DEFAULT_GRAIN + 123;
        fn run<C: Ctx>(c: &C, n: usize) -> (Vec<u64>, Vec<u128>) {
            let mut input: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            let (mut a, mut b) = (vec![0u64; n], vec![0u128; n]);
            {
                let input = Tracked::new(c, &mut input);
                let (mut a, mut b) = (Tracked::new(c, &mut a), Tracked::new(c, &mut b));
                par_fill(c, &mut a, &|c, i| input.get(c, n - 1 - i));
                par_update(c, &mut a, &|c, i, old| old.rotate_left(7) ^ input.get(c, i));
                par_update_fill(c, &mut a, &mut b, &|_, i, old| {
                    (old + i as u64, old as u128)
                });
                let mut a2 = vec![0u64; n];
                par_fill2(c, &mut Tracked::new(c, &mut a2), &mut b, &|c, i| {
                    let x = a.get(c, i);
                    (x / 3, (x as u128) << 7)
                });
                par_update(c, &mut a, &|_, i, old| old ^ a2[i]);
            }
            (a, b)
        }
        let seq = run(&SeqCtx::new(), n);
        let pooled = fj::Pool::new(4).run(|c| run(c, n));
        assert!(seq == pooled);
    }
}
