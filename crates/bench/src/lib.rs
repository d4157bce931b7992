//! Shared harness for the table/figure generators and the Definition 1
//! spot-checks: every gated number is one entry of the row registry,
//! [`rows`]. The model quantities are the ones the paper's tables are
//! stated in — work `W`, span `T∞`, cache misses `Q(M,B)` — measured
//! through the metering executor, so a `BENCH_*.json` is a pure function of
//! the source tree. Host time is measured by `benchmark/` (see
//! `benchmark/README.md`).

use metrics::{measure, CacheConfig, CostReport, MeterCtx, TraceMode};

pub mod diff;
pub mod rows;

pub use rows::BenchSink;

/// Measure a workload under the default cache geometry, trace off.
pub fn meter<F: FnOnce(&MeterCtx)>(f: F) -> CostReport {
    measure(CacheConfig::default(), TraceMode::Off, f).1
}

pub fn lg(n: usize) -> f64 {
    (n.max(2) as f64).log2()
}

/// Least-squares growth exponent of `y` against `x` on log-log axes —
/// a quick check that a measured curve scales like the claimed bound.
pub fn growth_exponent(points: &[(usize, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(_, y)| y > 0.0)
        .map(|&(x, y)| ((x as f64).ln(), y.ln()))
        .collect();
    let k = pts.len() as f64;
    if pts.len() < 2 {
        return 0.0;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (k * sxy - sx * sy) / (k * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::{BenchSink, Row};

    #[test]
    fn growth_exponent_recovers_slope() {
        let pts: Vec<(usize, f64)> = (1..=6)
            .map(|k| {
                let n = 1usize << (10 + k);
                (n, (n as f64).powf(1.5))
            })
            .collect();
        let g = growth_exponent(&pts);
        assert!((g - 1.5).abs() < 0.01, "got {g}");
    }

    #[test]
    fn meter_runs_workloads() {
        use fj::Ctx as _;
        let rep = meter(|c| {
            fj::par_for(c, 0, 100, 1, &|c, _| c.work(1));
        });
        assert!(rep.work >= 100);
    }

    #[test]
    #[should_panic(expected = "duplicate bench row: store / merge path / n=256")]
    fn a_repeated_row_identity_panics() {
        let rep = meter(|_| {});
        let mut sink = BenchSink::new("store");
        for n in [256, 512, 256] {
            sink.record(Row {
                task: "store",
                algo: "merge path",
                n,
                rep,
                allocs: 0,
            });
        }
    }
}
