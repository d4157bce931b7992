//! Element representation shared by every oblivious routine.
//!
//! Public inputs are [`Item`]s — a 128-bit sort key plus a `Copy` payload.
//! Internally, algorithms work on [`Slot`]s, which extend items with the
//! bookkeeping the paper's constructions need: a routing *label* (the
//! random bin choice of ORBA, §C.2), a scratch *sort key* recomputed before
//! each oblivious sort, and a status flag (`REAL`; a slot with no flags
//! is a *filler*, the padding element `⊥`).

/// Payload bound for everything flowing through the oblivious algorithms.
pub trait Val: Copy + Default + Send + Sync + 'static {}
impl<T: Copy + Default + Send + Sync + 'static> Val for T {}

/// A keyed record. Keys are `u128` so callers can pack composite keys
/// (primary ‖ tiebreak) without loss; plain `u64` keys are widened.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Item<V> {
    pub key: u128,
    pub val: V,
}

impl<V: Val> Item<V> {
    pub fn new(key: u128, val: V) -> Self {
        Item { key, val }
    }
}

/// Slot status bits.
pub mod flags {
    /// Carries a real element.
    pub const REAL: u8 = 1;
}

/// Internal working element.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Slot<V> {
    /// Scratch sort key for the current phase (recomputed before each
    /// oblivious sort; bin placement's expansion reads a displacement
    /// from it).
    pub sk: u128,
    /// Routing label: the element's random bin choice (ORBA) or random
    /// permutation label (ORP).
    pub label: u64,
    /// Status bits from [`flags`].
    pub flags: u8,
    /// The carried record (meaningless unless `REAL`).
    pub item: Item<V>,
}

impl<V: Val> Slot<V> {
    /// A filler (`⊥`) slot.
    #[inline]
    pub fn filler() -> Self {
        Slot::default()
    }

    /// A real slot carrying `item` with routing label `label`.
    #[inline]
    pub fn real(item: Item<V>, label: u64) -> Self {
        Slot {
            sk: 0,
            label,
            flags: flags::REAL,
            item,
        }
    }

    #[inline]
    pub fn is_real(&self) -> bool {
        self.flags & flags::REAL != 0
    }

    #[inline]
    pub fn is_filler(&self) -> bool {
        self.flags & flags::REAL == 0
    }
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

    #[test]
    fn flag_predicates() {
        let f = Slot::<u64>::filler();
        assert!(f.is_filler() && !f.is_real());
        let r = Slot::real(Item::new(1, 2u64), 3);
        assert!(r.is_real() && !r.is_filler());
        assert_eq!(r.label, 3);
    }

    #[test]
    fn composite_key_orders_lexicographically() {
        assert!(composite_key(1, u64::MAX) < composite_key(2, 0));
        assert!(composite_key(7, 3) < composite_key(7, 4));
    }
}
