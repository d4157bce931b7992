//! The calibrated clock.
//!
//! This sandbox is a 2-vCPU guest on a shared host, and the host's speed
//! wanders on every timescale from a millisecond to minutes: the same
//! 1024-op epoch takes 14.5 ms for some seconds, then 17.7 ms, then
//! 20 ms; the reference kernel below, timed back to back for 30 s,
//! varies by a fifth between 1.5-millisecond windows and still by an
//! eighth between one-second windows. Steal time is under 1 %, so it is
//! not preemption (a busy sibling thread, frequency, shared cache). Ten
//! 10-second runs of one binary spread 7–20 % (interquartile distance
//! over median) on every timing metric as measured, and neither longer
//! runs, nor block medians, nor low percentiles cure it.
//!
//! What cancels most of it is a reference: a fixed kernel owned by the
//! benchmark (no code of the repository runs in it), timed between the
//! *slices* of the measured phase — after every 10 ms of busy time,
//! while the system under test is idle. A slice's *host speed* is the
//! kernel's nominal time over its measured time at the slice's two
//! ends, and every duration measured in the slice is multiplied by it —
//! so a duration is reported in seconds of a host running at nominal
//! speed. A change to the repository moves the calibrated number exactly
//! as it moves the raw one; a slow stretch on the host moves only the
//! raw one. Both are in the result file, with the host speed per block.
//!
//! How often the reference is timed matters more than what it is. With a
//! point at each end of a one-second block only, the calibrated
//! throughput of twenty 10-second stretches spread as much as the raw
//! one (9.9 % against 9.2 % on `SeqCtx`, 11.1 % against 7.2 % on the
//! pool): two 1.4-millisecond looks say little about a second. With a
//! point after every epoch the same stretches spread 5.0 % and 3.0 %.
//!
//! The kernel is compare-exchange passes over an L2-resident array of
//! 32-byte cells. Of the references tried against the store's epoch
//! (register-only arithmetic; arrays of 512 KiB, 2 MiB, 8 MiB, 16 MiB;
//! the same kernel pinned to either core, on both in turn, on both at
//! once) it did best or near best in every stretch of host time tried.
//! Memory-bound references were worse than none in some stretches: their
//! own noise is independent of the epoch's. Where the thread runs did
//! not matter.
//!
//! The cancellation is partial. The workloads slow down a little less
//! than the reference when the host does, so the calibrated number
//! over-corrects by the difference. No exponent is fitted to hide that:
//! the factor is the plain ratio, and the residue is reported as spread.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Cells of the reference array: 16384 × 32 B = 512 KiB, a quarter of
/// this host's L2.
const CELLS: usize = 1 << 14;
/// Passes per sample: one sample is about 0.2 ms.
const PASSES: usize = 16;
/// Samples per calibration point; the point is their median.
const SAMPLES: usize = 5;

/// Time of one sample on this host at its fastest, in nanoseconds.
/// Fixed, so calibrated numbers stay comparable from one change to the
/// next; on another host it only sets the unit.
pub const NOMINAL_NS: f64 = 136_000.0;

pub struct Reference {
    cells: Vec<(u128, u128)>,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            cells: (0..CELLS as u128)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i))
                .collect(),
        }
    }

    /// One compare-exchange pass: the pairs `(k, k + len/2)`, smaller tag
    /// to the lower half. Same data movement whatever the contents.
    fn pass(cells: &mut [(u128, u128)]) {
        let (lo, hi) = cells.split_at_mut(CELLS / 2);
        for (a, b) in lo.iter_mut().zip(hi) {
            let (x, y) = (*a, *b);
            let swap = x.0 > y.0;
            *a = if swap { y } else { x };
            *b = if swap { x } else { y };
        }
    }

    fn sample_ns(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..PASSES {
            Self::pass(black_box(&mut self.cells));
        }
        t0.elapsed().as_nanos() as f64
    }

    /// One calibration point: the median sample time now, in
    /// nanoseconds. Call it only while the system under test is idle.
    pub fn point(&mut self) -> f64 {
        let samples: Vec<f64> = (0..SAMPLES).map(|_| self.sample_ns()).collect();
        median(&samples).expect("SAMPLES > 0")
    }
}

/// Host speed between two calibration points, relative to nominal: the
/// factor a duration measured between them is multiplied by.
pub fn speed(before_ns: f64, after_ns: f64) -> f64 {
    NOMINAL_NS / ((before_ns + after_ns) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_shortens_calibrated_durations() {
        assert_eq!(speed(NOMINAL_NS, NOMINAL_NS), 1.0);
        // The reference takes twice as long: the host runs at half speed,
        // and a 10 ms measurement counts as 5 ms of nominal time.
        assert_eq!(speed(2.0 * NOMINAL_NS, 2.0 * NOMINAL_NS), 0.5);
        assert!(speed(NOMINAL_NS, 3.0 * NOMINAL_NS) < 1.0);
    }

    #[test]
    fn the_reference_does_real_work() {
        let mut r = Reference::new();
        let first = r.point();
        assert!(first > 0.0);
        // After a pass every lower-half tag is the smaller of its pair.
        let half = CELLS / 2;
        assert!((0..half).all(|k| r.cells[k].0 <= r.cells[k + half].0));
    }
}
