//! META-ORBA: the flat (level-by-level) γ-way butterfly for oblivious
//! random bin assignment (§C.2).
//!
//! This is the paper's *meta-algorithm*: `log_γ β` levels, where level `i`
//! groups the `β` bins by stride `γ^i` and obliviously distributes each
//! group of `γ` bins into `γ` output bins using the next unconsumed
//! `log₂ γ` label bits. It is work-optimal but — evaluated level by level —
//! neither cache-efficient nor low-span; REC-ORBA (§D.1,
//! [`crate::rec_orba`](mod@crate::rec_orba)) is the efficient schedule of the *same* butterfly.
//! We keep META-ORBA as the correctness reference, as the strawman for the
//! scheduling ablations, and because the paper presents both. It is the
//! foil in the sorting too: labels and initial layout are REC-ORBA's own
//! (same seed, same bins), but the levels run least significant bits
//! first, so a level's input bins are not sorted runs and every placement
//! is the full-sort form.

use crate::binplace::bin_place;
use crate::engine::Engine;
use crate::error::{OblivError, Result};
use crate::rec_orba::{
    bin_shift, bins_for, build_layout, draw_labels, first_group, BinLayout, OrbaParams,
};
use crate::slot::{Item, Slot, Val};
use fj::{grain_for, par_for, Ctx};
use metrics::{ScratchPool, Tracked};
use std::sync::atomic::{AtomicBool, Ordering};

/// One attempt of META-ORBA with the same functionality (and failure
/// contract) as [`crate::rec_orba::rec_orba`].
pub fn meta_orba<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    items: &[Item<V>],
    p: OrbaParams,
    seed: u64,
) -> Result<BinLayout<V>> {
    let nbins = bins_for(items.len(), p.z);
    let mut slots = vec![Slot::<V>::filler(); nbins * p.z];
    {
        let labels = draw_labels(scratch, items.len(), seed);
        let group = first_group(nbins, p.gamma) * p.z;
        build_layout(c, items, &labels, group, &mut slots);
    }

    let overflow = AtomicBool::new(false);
    {
        let mut t = Tracked::new(c, &mut slots);
        let total_bits = nbins.trailing_zeros();
        let mut s = 0u32; // bin-index bits consumed so far (LSB-first)
        while s < total_bits {
            let g_bits = (total_bits - s).min(p.gamma.trailing_zeros().max(1));
            level(
                c, scratch, &mut t, nbins, p.z, s, g_bits, p.engine, &overflow,
            );
            s += g_bits;
        }
    }
    if overflow.load(Ordering::Relaxed) {
        return Err(OblivError::BinOverflow);
    }
    Ok(BinLayout {
        slots,
        nbins,
        z: p.z,
    })
}

/// One butterfly level: bins that agree on every index bit outside
/// `[s, s+g_bits)` form a group; each group is gathered, bin-placed on the
/// window bits, and scattered back.
#[allow(clippy::too_many_arguments)]
fn level<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    t: &mut Tracked<'_, Slot<V>>,
    nbins: usize,
    z: usize,
    s: u32,
    g_bits: u32,
    engine: Engine,
    overflow: &AtomicBool,
) {
    let g = 1usize << g_bits;
    let stride = 1usize << s;
    let groups = nbins / g;
    let tr = t.as_raw();
    par_for(c, 0, groups, grain_for(c), &|c, gi| {
        // Decompose the group id into (high, low) around the window.
        let low = gi % stride;
        let high = gi / stride;
        let base = high * (stride << g_bits) + low;

        // Gather the γ member bins (stride 2^s apart) into leased scratch
        // (concurrent leases from worker threads are fine: the pool is
        // Sync, and every gathered slot is written before it is read).
        let mut buf = scratch.lease(g * z, Slot::<V>::filler());
        let mut local = Tracked::new(c, &mut buf);
        {
            let lr = local.as_raw();
            for k in 0..g {
                let bin = base + k * stride;
                // SAFETY: groups are disjoint; member bins are disjoint.
                unsafe { lr.copy_from(c, &tr, bin * z, k * z, z) };
            }
        }
        let shift = bin_shift(nbins) + s;
        if bin_place(c, scratch, &mut local, g, z, shift, engine).is_err() {
            overflow.store(true, Ordering::Relaxed);
        }
        // Scatter back.
        let lr = local.as_raw();
        for k in 0..g {
            let bin = base + k * stride;
            // SAFETY: same disjointness as the gather.
            unsafe { tr.copy_from(c, &lr, k * z, bin * z, z) };
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::with_retries;
    use fj::SeqCtx;

    fn items(n: usize) -> Vec<Item<u64>> {
        (0..n as u64).map(|i| Item::new(i as u128, i)).collect()
    }

    #[test]
    fn routes_every_element_to_its_label_bin() {
        let c = SeqCtx::new();
        let p = OrbaParams {
            z: 16,
            gamma: 4,
            engine: Engine::BitonicRec,
        };
        let its = items(120);
        let sp = ScratchPool::new();
        let (layout, _) = with_retries(64, |a| meta_orba(&c, &sp, &its, p, 10 + a as u64));
        for (b, bin) in layout.slots.chunks(layout.z).enumerate() {
            for s in bin.iter().filter(|s| s.is_real()) {
                assert_eq!(crate::rec_orba::bin_of(s.label(), layout.nbins), b);
            }
        }
        let total: usize = layout.loads().iter().sum();
        assert_eq!(total, 120);
    }

    #[test]
    fn meta_and_rec_orba_agree_on_bin_contents() {
        // Same seed ⇒ same labels ⇒ identical bin contents (as multisets).
        let c = SeqCtx::new();
        let p = OrbaParams {
            z: 16,
            gamma: 4,
            engine: Engine::BitonicRec,
        };
        let its = items(90);
        let sp = ScratchPool::new();
        for seed in [3u64, 17, 2024] {
            let m = meta_orba(&c, &sp, &its, p, seed);
            let r = crate::rec_orba::rec_orba(&c, &sp, &its, p, seed);
            match (m, r) {
                (Ok(m), Ok(r)) => {
                    for b in 0..m.nbins {
                        let mut mv: Vec<u64> = m.slots[b * m.z..(b + 1) * m.z]
                            .iter()
                            .filter(|s| s.is_real())
                            .map(|s| s.item.val)
                            .collect();
                        let mut rv: Vec<u64> = r.slots[b * r.z..(b + 1) * r.z]
                            .iter()
                            .filter(|s| s.is_real())
                            .map(|s| s.item.val)
                            .collect();
                        mv.sort_unstable();
                        rv.sort_unstable();
                        assert_eq!(mv, rv, "bin {b} differs (seed {seed})");
                    }
                }
                // The two schedules form different intermediate groups, so
                // their overflow verdicts may legitimately differ; only
                // successful runs are comparable.
                _ => continue,
            }
        }
    }

    #[test]
    fn non_uniform_gamma_levels() {
        // β = 32 bins with γ = 8: levels consume 3 + 2 bits.
        let c = SeqCtx::new();
        let p = OrbaParams {
            z: 16,
            gamma: 8,
            engine: Engine::BitonicRec,
        };
        let its = items(200);
        let sp = ScratchPool::new();
        let (layout, _) = with_retries(64, |a| meta_orba(&c, &sp, &its, p, 5 + a as u64));
        assert_eq!(layout.nbins, 32);
        let total: usize = layout.loads().iter().sum();
        assert_eq!(total, 200);
    }
}
