//! Order statistics the benchmark reports: medians, block medians, the
//! "at least ten samples beyond" percentile rule, and the quartile
//! spread the acceptance check uses.

/// Median of `values` (mean of the two middle ones for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank `q`-quantile (`0 < q < 1`) of an ascending slice.
fn rank(sorted: &[f64], q: f64) -> f64 {
    let k = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[k - 1]
}

/// The tail percentile a sample supports: a percentile is reported only
/// when at least ten samples lie beyond it. Returns `(value, q_used)`
/// where `q_used <= q_wanted` is the quantile actually reported — the
/// wanted one if the sample is large enough, else the highest one that
/// still leaves ten samples beyond it, else the median.
pub fn tail_percentile(values: &[f64], q_wanted: f64) -> Option<(f64, f64)> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let beyond = |q: f64| n - ((q * n as f64).ceil() as usize).clamp(1, n);
    if beyond(q_wanted) >= 10 {
        return Some((rank(&v, q_wanted), q_wanted));
    }
    if n > 20 {
        // Highest rank with ten samples beyond it.
        let q = (n - 10) as f64 / n as f64;
        return Some((v[n - 11], q));
    }
    Some((median(&v)?, 0.5))
}

/// One timed unit of a run (an epoch, a pipelined round, a sort): the
/// ops it acknowledged and the time the system under test was busy
/// with it (generation and verification excluded).
#[derive(Clone, Copy, Debug)]
pub struct Unit {
    pub ops: u64,
    pub busy_ns: u64,
}

/// Ops per second of busy time in each kept block of the measured
/// phase. The phase is cut into *slices*, each `(where it ends in units,
/// the host speed its busy time is multiplied by)` — 1 for time as
/// measured — and `blocks` says after how many slices each block ends and
/// whether it is kept. The reported throughput is the median of these
/// rates: a multi-second noisy-neighbour burst hits a few blocks, not the
/// median.
pub fn block_rates(units: &[Unit], slices: &[(usize, f64)], blocks: &[(usize, bool)]) -> Vec<f64> {
    let mut rates = Vec::with_capacity(blocks.len());
    let (mut unit, mut slice) = (0, 0);
    for &(block_end, keep) in blocks {
        let (mut ops, mut ns) = (0u64, 0.0);
        for &(end, speed) in &slices[slice..block_end] {
            let busy: u64 = units[unit..end].iter().map(|u| u.busy_ns).sum();
            ops += units[unit..end].iter().map(|u| u.ops).sum::<u64>();
            ns += busy as f64 * speed;
            unit = end;
        }
        slice = block_end;
        if keep && ns > 0.0 {
            rates.push(ops as f64 * 1e9 / ns);
        }
    }
    rates
}

/// `statistics.quantiles(values, n=4)` of Python (the default
/// "exclusive" method), so `compare` reads spreads exactly as the
/// acceptance check does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the acceptance check holds against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn block_median_ignores_a_noisy_burst() {
        // 100 units at 1000 ops/ms in ten blocks of one slice; a burst
        // makes units 30..50 ten times slower. The mean rate drops by
        // ~64 %, the block median not at all.
        let mut units = vec![
            Unit {
                ops: 1000,
                busy_ns: 1_000_000
            };
            100
        ];
        for u in &mut units[30..50] {
            u.busy_ns = 10_000_000;
        }
        let slices: Vec<(usize, f64)> = (1..=10).map(|b| (b * 10, 1.0)).collect();
        let blocks: Vec<(usize, bool)> = (1..=10).map(|b| (b, true)).collect();
        let r = median(&block_rates(&units, &slices, &blocks)).unwrap();
        assert!((r - 1e6).abs() < 1e-6, "{r}");
    }

    #[test]
    fn block_rates_are_taken_on_the_calibrated_clock() {
        let unit = |ns| Unit {
            ops: 10,
            busy_ns: ns,
        };
        // The host ran the second slice at half speed: twice the busy
        // time, the same calibrated rate.
        let units = [unit(1000), unit(1000), unit(2000), unit(2000)];
        let slices = [(2, 1.0), (4, 0.5)];
        let both = [(1, true), (2, true)];
        assert_eq!(block_rates(&units, &slices, &both), [1e7, 1e7]);
        // As measured, the blocks read 1e7 and 5e6.
        assert_eq!(
            block_rates(&units, &[(2, 1.0), (4, 1.0)], &both),
            [1e7, 5e6]
        );
        // A block that is not kept is left out, and so is an empty one.
        assert_eq!(
            block_rates(&units, &[(2, 1.0), (4, 1.0)], &[(1, false), (2, true)]),
            [5e6]
        );
        assert_eq!(block_rates(&units, &slices, &[(0, true), (2, true)]), [1e7]);
        // One block of both slices: 40 ops in 2000 + 4000 × 0.5 ns.
        assert_eq!(block_rates(&units, &slices, &[(2, true)]), [1e7]);
        assert!(block_rates(&[], &[], &[]).is_empty());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some((990.0, 0.99)));
        // 200 samples: p99 leaves only 2 beyond, so the report falls back
        // to the rank that leaves exactly ten.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (val, q) = tail_percentile(&v, 0.99).unwrap();
        assert_eq!((val, q), (190.0, 0.95));
        assert_eq!(tail_percentile(&v, 0.95), Some((190.0, 0.95)));
        // Too few samples for any tail: the median.
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), Some((5.0, 0.5)));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10.0, 12.0, 11.0], n=4) -> [10.0, 11.0, 12.0]
        assert_eq!(quartiles(&[10.0, 12.0, 11.0]), Some([10.0, 11.0, 12.0]));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
