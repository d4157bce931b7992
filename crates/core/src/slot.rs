//! Element representation shared by every oblivious routine.
//!
//! Public inputs are [`Item`]s — a 128-bit sort key plus a `Copy` payload.
//! Internally, algorithms work on [`Slot`]s: a cell plus a payload. The
//! 128-bit scratch key `sk` is the only bookkeeping lane — the phase key
//! (ORBA group, placement target, REC-SORT key) rides in its high half,
//! the routing *label* (ORBA's random draw, §C.2: bin in the top bits,
//! ORP's tiebreak below) in its low half, and `sk == u128::MAX` *is* the padding
//! element `⊥`, exactly as `tag == MAX` is a filler [`TagCell`].
//!
//! A record with a zero-sized payload is nothing but its `u128` lanes
//! (`as_lanes`): a `Slot<()>` is 32 bytes and lane for lane a `TagCell`
//! (`sk` = `tag`, `item.key` = `aux`), sorted and moved as one; an
//! `Item<()>` is 16 bytes, its key, and REC-SORT's network sorts it as a
//! bare key. `oblivious_sort_u64`'s records go one step further
//! (`BareKey`): through ORP a record is its `u64` key, so a placement
//! sorts 16-byte `label ‖ key` cells and only the slots the expansion
//! moves are 32 bytes. DESIGN.md §10 has the per-phase lane table.

use metrics::Tracked;
use sortnet::TagCell;
use std::any::TypeId;
use std::mem::{align_of, size_of};

/// Payload bound for everything flowing through the oblivious algorithms.
pub trait Val: Copy + Default + Send + Sync + 'static {}
impl<T: Copy + Default + Send + Sync + 'static> Val for T {}

/// A keyed record. Keys are `u128` so callers can pack composite keys
/// (primary ‖ tiebreak) without loss; plain `u64` keys are widened.
///
/// `u128::MAX` is reserved wherever the key becomes a slot's `sk`
/// ([`crate::rec_sort_items`] and the sorts built on it reject it with
/// [`crate::OblivError::ReservedKey`]); [`composite_key`] never produces it
/// for an index tiebreak below `u64::MAX`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(C)]
pub struct Item<V> {
    pub key: u128,
    pub val: V,
}

impl<V: Val> Item<V> {
    pub fn new(key: u128, val: V) -> Self {
        Item { key, val }
    }
}

/// Internal working element. `repr(C)` pins `sk` in front of the record,
/// the lane order of a [`sortnet::TagCell`].
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C)]
pub struct Slot<V> {
    /// Scratch key of the current phase, recomputed before each oblivious
    /// sort ([`crate::set_keys`]): phase key in the high half, routing label
    /// in the low half. `u128::MAX` is reserved: it marks a filler, and
    /// every real key stays below it by construction (a group or a label is
    /// `< β`, a composite key ends in an index `< n`).
    pub sk: u128,
    /// The carried record (meaningless in a filler).
    pub item: Item<V>,
}

impl<V: Val> Default for Slot<V> {
    fn default() -> Self {
        Slot::filler()
    }
}

impl<V: Val> Slot<V> {
    /// A filler (`⊥`) slot.
    #[inline]
    pub fn filler() -> Self {
        Slot {
            sk: u128::MAX,
            item: Item::default(),
        }
    }

    /// A real slot carrying `item` with routing label `label` (low half of
    /// `sk`; the high half starts at 0).
    #[inline]
    pub fn real(item: Item<V>, label: u64) -> Self {
        Slot {
            sk: label as u128,
            item,
        }
    }

    /// A real slot sorted by its own `item.key` (which must not be the
    /// reserved `u128::MAX`).
    #[inline]
    pub fn keyed(item: Item<V>) -> Self {
        Slot { sk: item.key, item }
    }

    /// This slot with `key` as its phase key (high half of `sk`), label
    /// kept. Must not be called on a filler.
    #[inline]
    pub fn with_phase_key(self, key: u64) -> Self {
        Slot {
            sk: composite_key(key, self.label()),
            ..self
        }
    }

    /// The routing label: the element's random draw (ORBA: bin in the top
    /// bits, tiebreak below) or its destination bin (scatter). Meaningless
    /// in a filler.
    #[inline]
    pub fn label(&self) -> u64 {
        self.sk as u64
    }

    /// The phase key (high half of `sk`): ORBA group or placement target.
    /// `u64::MAX` in a filler.
    #[inline]
    pub fn phase_key(&self) -> u64 {
        (self.sk >> 64) as u64
    }

    #[inline]
    pub fn is_real(&self) -> bool {
        self.sk != u128::MAX
    }

    #[inline]
    pub fn is_filler(&self) -> bool {
        self.sk == u128::MAX
    }
}

/// The payload of `oblivious_sort_u64`'s records: none. Through ORP such a
/// record *is* its `u64` key, held in the low half of [`Item::key`], so a
/// bin placement packs it with its label into one 16-byte `label ‖ key`
/// cell ([`crate::bin_place`]); after ORP the key moves to the high half
/// with a tiebreak coin below it. Crate-private: only that entry point
/// makes one, so the narrow route is chosen by type and never truncates a
/// caller's key ([`is_bare`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct BareKey;

/// Whether `V` is [`BareKey`] — a fact about the type, fixed at compile
/// time, never about the data.
#[inline]
pub(crate) fn is_bare<V: Val>() -> bool {
    TypeId::of::<V>() == TypeId::of::<BareKey>()
}

/// A record type whose values, when its payload is zero-sized, are exactly
/// the `u128` lanes of [`Lanes::As`]: `Slot<V>` starts with `sk` and
/// `Item<V>` with `key`, both `repr(C)`.
pub(crate) trait Lanes: Copy {
    type As: Copy;
}

impl<V: Val> Lanes for Slot<V> {
    type As = TagCell;
}

impl<V: Val> Lanes for Item<V> {
    type As = u128;
}

/// `t` viewed as the lanes its records are laid out as — same buffer, same
/// addresses, so the trace and every counter are the record's — when the
/// payload is zero-sized (the sizes agree); `None` otherwise.
pub(crate) fn as_lanes<'a, R: Lanes>(t: &'a mut Tracked<'_, R>) -> Option<Tracked<'a, R::As>> {
    (size_of::<R>() == size_of::<R::As>() && align_of::<R>() == align_of::<R::As>()).then(|| {
        // SAFETY: `R` is `repr(C)` and starts with the `u128` lanes of
        // `R::As`; at equal size there is no room left for the payload, so
        // it is zero-sized and the lanes are the whole record. Every bit
        // pattern is a valid `u128`, and a zero-sized value has no bytes,
        // so either type's values are the other's.
        unsafe { t.cast() }
    })
}

/// The sort-key extractor every network call in this crate uses.
#[inline]
pub fn sk_of<V>(s: &Slot<V>) -> u128 {
    s.sk
}

/// Pack a `u64` key and a 64-bit tiebreak into a composite `u128` key.
#[inline]
pub fn composite_key(key: u64, tiebreak: u64) -> u128 {
    ((key as u128) << 64) | tiebreak as u128
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::offset_of;

    #[test]
    fn filler_and_real_predicates() {
        let f = Slot::<u64>::filler();
        assert!(f.is_filler() && !f.is_real());
        let r = Slot::real(Item::new(1, 2u64), 3);
        assert!(r.is_real() && !r.is_filler());
        assert_eq!(r.label(), 3);
        // A label of all ones is still a real: the high half starts at 0.
        assert!(Slot::real(Item::new(0, 0u64), u64::MAX).is_real());
    }

    #[test]
    fn unit_slot_is_laid_out_like_a_tag_cell() {
        assert_eq!(size_of::<Item<()>>(), 16);
        assert_eq!(size_of::<Slot<()>>(), 32);
        assert_eq!(align_of::<Slot<()>>(), 16);
        assert_eq!(size_of::<Slot<()>>(), size_of::<TagCell>());
        assert_eq!(align_of::<Slot<()>>(), align_of::<TagCell>());
        assert_eq!(offset_of!(Slot<()>, sk), offset_of!(TagCell, tag));
        assert_eq!(offset_of!(Slot<()>, item), offset_of!(TagCell, aux));
        assert_eq!(offset_of!(Item<()>, key), 0);
        assert!(Slot::<u64>::default().is_filler());
        // A unit-payload item is its key: REC-SORT's network sorts it so.
        assert_eq!(size_of::<Item<BareKey>>(), size_of::<u128>());
        assert_eq!(align_of::<Item<BareKey>>(), align_of::<u128>());
    }

    #[test]
    fn lanes_views_exactly_the_zero_sized_payloads() {
        let c = fj::SeqCtx::new();
        let mut items = vec![Item::new(7, BareKey), Item::new(u128::MAX - 1, BareKey)];
        let mut t = Tracked::new(&c, &mut items);
        let keys = as_lanes(&mut t).expect("a bare-key item is its key");
        assert_eq!(keys.raw(), [7, u128::MAX - 1]);
        let mut wide = vec![Item::new(7, 1u64)];
        assert!(as_lanes(&mut Tracked::new(&c, &mut wide)).is_none());
        let mut slots = vec![Slot::real(Item::new(3, ()), 9)];
        let mut t = Tracked::new(&c, &mut slots);
        let cells = as_lanes(&mut t).expect("a unit slot is a cell");
        assert_eq!(cells.raw(), [TagCell::new(9, 3)]);
        assert!(as_lanes(&mut Tracked::new(&c, &mut [Slot::<u64>::filler()])).is_none());
        assert!(is_bare::<BareKey>() && !is_bare::<()>() && !is_bare::<u64>());
    }

    #[test]
    fn composite_key_orders_lexicographically() {
        assert!(composite_key(1, u64::MAX) < composite_key(2, 0));
        assert!(composite_key(7, 3) < composite_key(7, 4));
    }
}
