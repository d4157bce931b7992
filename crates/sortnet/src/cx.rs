//! Oblivious compare-exchange: the one gate every network in this crate is
//! written over.
//!
//! A comparator network touches a *fixed* sequence of addresses regardless
//! of the data, which is what makes it data-oblivious under Definition 1:
//! both inputs are always read and both outputs always written, so the only
//! data-dependence is in register-level values, which the paper's adversary
//! cannot observe. What rides through the comparators never changes that
//! schedule, so the networks take the element-specific part — how to key an
//! element and how to route a pair — as a [`Gate`] parameter: any
//! `Fn(&T) -> u128` closure is a gate (one well-predicted select per pair),
//! and [`crate::Backend`] is the branchless gate for packed
//! [`crate::TagCell`]s.

use fj::{counters, Ctx};
use metrics::{RawTracked, Tracked};

/// What a comparator network needs from its elements: a key, the routed
/// pair for a swap verdict, and two batched forms — one run of pairs, one
/// whole bitonic stage. None of them can change which addresses are
/// touched or what is charged — [`cex`] fixes that for every gate.
pub trait Gate<T: Copy>: Sync {
    /// The sort key of `x`. `u128` is wide enough for every composite key
    /// the oblivious algorithms build (flag ‖ group ‖ label ‖ tiebreak).
    fn key(&self, x: &T) -> u128;

    /// `(b, a)` if `swap`, `(a, b)` otherwise.
    fn route(&self, swap: bool, a: T, b: T) -> (T, T);

    /// Compare-exchange two runs against each other: the `len` independent
    /// pairs `(a + k, b + k)` for `k in 0..len`, in that order, all with
    /// direction `up`. A bitonic-level *slab* — the `stride` pairs
    /// `(s + k, s + k + stride)` — is `run(c, t, s, s + stride, stride,
    /// up)`, and a row pair of an in-place tile ([`crate::bitonic_rec`]) is
    /// two runs further apart than they are long; the sequential networks
    /// hand a gate whole stages instead, through [`Gate::stage`]. An
    /// override must leave the same data, trace and counters as this
    /// per-pair loop.
    ///
    /// # Safety
    /// `a + len <= t.len()` and `b + len <= t.len()`, the two runs must
    /// not overlap, and no concurrent task may access either.
    #[inline]
    unsafe fn run<C: Ctx>(
        &self,
        c: &C,
        t: &RawTracked<T>,
        a: usize,
        b: usize,
        len: usize,
        up: bool,
    ) {
        debug_assert!(a.max(b) + len <= t.len() && a.abs_diff(b) >= len);
        for k in 0..len {
            cex(c, t, self, a + k, b + k, up);
        }
    }

    /// Bitonic stage `k` over all of `t`: the `log k` comparator levels
    /// `k/2, k/4, …, 1` that merge every aligned `k`-block (`k ≥ 2` a power
    /// of two dividing `t.len()`), blocks alternating direction starting
    /// with `up` — what the sequential networks ([`crate::bitonic`]) run
    /// per stage. The default is [`stage_by_slabs`], one [`Gate::run`] per
    /// slab; an override must leave the same data, trace and counters.
    #[inline]
    fn stage<C: Ctx>(&self, c: &C, t: &mut Tracked<'_, T>, k: usize, up: bool) {
        stage_by_slabs(c, t, self, k, up)
    }
}

/// The per-slab evaluation of [`Gate::stage`]. Level `j` pairs `(i, i ^ j)`
/// for every `i` with bit `j` clear, visited with `i` ascending: slabs of
/// `j` consecutive pairs starting at the multiples of `2j`, each one
/// [`Gate::run`]. The direction `((i & k) == 0) == up` is constant within a
/// slab because `k ≥ 2j`: no index of the slab differs from `s` in bit `k`.
pub fn stage_by_slabs<C: Ctx, T: Copy>(
    c: &C,
    t: &mut Tracked<'_, T>,
    gate: &(impl Gate<T> + ?Sized),
    k: usize,
    up: bool,
) {
    let n = t.len();
    debug_assert!(k >= 2 && k.is_power_of_two() && n.is_multiple_of(k));
    let raw = t.as_raw();
    let mut j = k / 2;
    while j >= 1 {
        for s in (0..n).step_by(2 * j) {
            // SAFETY: `&mut t` gives exclusive, sequential access, and
            // `s + 2j ≤ n` because `2j` divides `k`, which divides `n`.
            unsafe { gate.run(c, &raw, s, s + j, j, ((s & k) == 0) == up) };
        }
        j /= 2;
    }
}

/// Every key-extractor closure is a gate that moves `T` through a select.
impl<T: Copy, F: Fn(&T) -> u128 + Sync> Gate<T> for F {
    #[inline]
    fn key(&self, x: &T) -> u128 {
        self(x)
    }

    // `always`: inlined early, the pair stays a choice between two source
    // addresses; left to the optimizer's inliner it is built on the stack
    // and copied out, 3× slower per comparator on 64-byte slots.
    #[inline(always)]
    fn route(&self, swap: bool, a: T, b: T) -> (T, T) {
        if swap {
            (b, a)
        } else {
            (a, b)
        }
    }
}

/// Compare-exchange elements `i` and `j` of `t`: after the call the element
/// with the smaller key is at `i` if `up`, at `j` otherwise; equal keys
/// never swap. Always two reads, one comparator charge and two writes.
///
/// # Safety
/// `i` and `j` must be in bounds, and no concurrent task may access them.
#[inline]
pub unsafe fn cex<C: Ctx, T: Copy>(
    c: &C,
    t: &RawTracked<T>,
    gate: &(impl Gate<T> + ?Sized),
    i: usize,
    j: usize,
    up: bool,
) {
    let a = t.get(c, i);
    let b = t.get(c, j);
    c.work(1);
    c.count(counters::COMPARISONS, 1);
    let (x, y) = gate.route((gate.key(&a) > gate.key(&b)) == up, a, b);
    t.set(c, i, x);
    t.set(c, j, y);
}

/// Branchless select for `u64` values: returns `b` if `cond` else `a`,
/// compiling to masking arithmetic (no data-dependent branch).
#[inline(always)]
pub fn select_u64(cond: bool, a: u64, b: u64) -> u64 {
    let mask = (cond as u64).wrapping_neg();
    (a & !mask) | (b & mask)
}

/// Branchless select for `u128` values.
#[inline(always)]
pub fn select_u128(cond: bool, a: u128, b: u128) -> u128 {
    let mask = (cond as u128).wrapping_neg();
    (a & !mask) | (b & mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj::SeqCtx;

    /// One compare-exchange of a two-element slice: stage 2 is one pair.
    fn cex01<T: Copy>(v: &mut [T], key: &impl Gate<T>, up: bool) {
        let c = SeqCtx::new();
        key.stage(&c, &mut Tracked::new(&c, v), 2, up);
    }

    #[test]
    fn cex_orders_ascending_and_descending() {
        let key = |x: &u64| *x as u128;
        let mut v = [5u64, 3];
        cex01(&mut v, &key, true);
        assert_eq!(v, [3, 5]);
        cex01(&mut v, &key, false);
        assert_eq!(v, [5, 3]);
    }

    #[test]
    fn cex_is_stable_on_equal_keys() {
        let mut v = [(7u64, 0u64), (7, 1)];
        cex01(&mut v, &|x: &(u64, u64)| x.0 as u128, true);
        assert_eq!(v, [(7, 0), (7, 1)], "equal keys must not swap");
    }

    #[test]
    fn select_picks_correctly() {
        assert_eq!(select_u64(true, 1, 2), 2);
        assert_eq!(select_u64(false, 1, 2), 1);
        assert_eq!(select_u128(true, 10, 20), 20);
        assert_eq!(select_u128(false, 10, 20), 10);
    }
}
