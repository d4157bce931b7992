//! What the benchmark measures: the six workloads with their sizes, and
//! every metric with its unit, direction and bound. `BENCHMARK.json` at
//! the repository root states the same thing for the driver; a unit test
//! holds the two together.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MergeSeq,
    MergePool,
    ShardedPipelined,
    DurableSmall,
    OramPoint,
    SortPaper,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::MergeSeq,
        Workload::MergePool,
        Workload::ShardedPipelined,
        Workload::DurableSmall,
        Workload::OramPoint,
        Workload::SortPaper,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MergeSeq => "kv-merge-seq",
            Workload::MergePool => "kv-merge-pool",
            Workload::ShardedPipelined => "kv-sharded-pipelined",
            Workload::DurableSmall => "kv-durable-small",
            Workload::OramPoint => "kv-oram-point",
            Workload::SortPaper => "sort-paper",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists — the line `BENCHMARK.json` carries.
    pub fn why(self) -> &'static str {
        match self {
            Workload::MergeSeq => {
                "32768-key table past L2, 1024-op epochs on SeqCtx: sortnet merge and core compact/scan do the work, fj/WAL/pram none"
            }
            Workload::MergePool => {
                "same store, ops and seed as kv-merge-seq under Pool::pinned(P): isolates the fj runtime and scratch lanes"
            }
            Workload::ShardedPipelined => {
                "PipelinedStore over 4 shards on the pool, fixed cadence: router/gather, shard commits, detached tasks, read_now consult"
            }
            Workload::DurableSmall => {
                "cache-resident 2048-key durable store, 64-op epochs, sync every append: WAL, vfs, snapshot, recovery and per-epoch overhead"
            }
            Workload::OramPoint => {
                "8-op epochs below the ORAM threshold: pram::Opram point path, with a merge forced by pending_limit every 65 epochs"
            }
            Workload::SortPaper => {
                "oblivious_sort_u64 at n = 65536 on SeqCtx: the paper's ORP + REC-SORT pipeline, which no store workload touches"
            }
        }
    }
}

/// Sizes of one run. `--smoke` divides the work by about fifty so the
/// whole set runs in seconds; smoke numbers check plumbing, not speed.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Resident keys of the `kv-merge-*` table.
    pub merge_keys: usize,
    pub merge_batch: usize,
    pub shards: usize,
    /// Resident keys of the sharded store, all shards together.
    pub sharded_keys: usize,
    pub client_batch: usize,
    /// Client batches submitted between two `commit_async` calls.
    pub batches_per_commit: usize,
    pub read_now_keys: usize,
    pub durable_keys: usize,
    pub durable_batch: usize,
    pub snapshot_every: u64,
    /// Epochs left in the WAL tail when recovery is timed.
    pub wal_tail: u64,
    pub recovers: usize,
    /// Durable epochs replayed by the crash-recovery check.
    pub crash_epochs: usize,
    pub oram_keys: usize,
    pub oram_batch: usize,
    pub sort_n: usize,
    /// Warm-up units (epochs, rounds) before timing; one sort.
    pub warmup: usize,
}

/// Times set-up is repeated in a run; `setup_s` is their median. Seven
/// set-ups of a tenth of a second, three of `sort-paper`'s half second.
pub fn setups(w: Workload) -> usize {
    match w {
        Workload::SortPaper => 3,
        _ => 7,
    }
}

pub const FULL: Sizes = Sizes {
    merge_keys: 32768,
    merge_batch: 1024,
    shards: 4,
    sharded_keys: 8192,
    client_batch: 256,
    batches_per_commit: 4,
    read_now_keys: 64,
    durable_keys: 2048,
    durable_batch: 64,
    snapshot_every: 256,
    wal_tail: 192,
    recovers: 9,
    crash_epochs: 512,
    oram_keys: 4096,
    oram_batch: 8,
    sort_n: 65536,
    warmup: 3,
};

pub const SMOKE: Sizes = Sizes {
    merge_keys: 1024,
    merge_batch: 64,
    shards: 4,
    sharded_keys: 512,
    client_batch: 16,
    batches_per_commit: 4,
    read_now_keys: 8,
    durable_keys: 256,
    durable_batch: 16,
    snapshot_every: 16,
    wal_tail: 12,
    recovers: 3,
    crash_epochs: 24,
    oram_keys: 256,
    oram_batch: 8,
    sort_n: 2048,
    warmup: 3,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen before
    /// `compare` calls it a regression. `None`: reported, not bounded.
    pub bound: Option<f64>,
    /// A count that must repeat exactly between runs of one commit.
    pub exact: bool,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(0.0),
        exact: true,
    }
}

/// A per-layer count that must repeat exactly: `compare` wants it equal.
const fn exact_layer(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

/// Bound of every bounded metric: a quarter, the widest the driver's
/// contract allows. The issue that defined the benchmark aimed at a
/// tenth. On a quiet host the calibrated timings of ten runs spread
/// 0.7–4 % (interquartile distance over median) and a tenth would do; but
/// this host has bad quarters of an hour — CPU time stolen by the
/// hypervisor, raw timings spreading 10–30 % — in which the calibrated
/// ones still spread up to 20 %, and a bound is only usable when the
/// spread stays inside it. The README's "Steadiness" section has the
/// measurements of both.
pub const QUARTER: f64 = 0.25;

/// The nine end-to-end metrics, in the order every report prints them.
///
/// The first four apply to every workload and are the `end_to_end` list
/// of `BENCHMARK.json`. The driver's contract wants every metric of that
/// list present and non-zero on every workload, and its spread inside the
/// bound in any ten runs, so the other five are carried elsewhere:
/// `stall_p50_ms`, which could not hold the bound (it spread 22 % on
/// `kv-durable-small` in a bad quarter of an hour: its snapshot epochs
/// create and rename files), and the durable-only `recover_s`,
/// `syncs_per_kop`, `disk_bytes_per_op` (`null` elsewhere) head the
/// contract's `per_layer` list; `fail_ratio`, which must be 0, is its
/// `failed` / `attempted`. `compare` holds all nine to the rules below.
pub const END_TO_END: [Metric; 9] = [
    gated("setup_s", "s", Better::Lower, QUARTER),
    gated("ops_per_s", "1/s", Better::Higher, QUARTER),
    gated("ack_p50_ms", "ms", Better::Lower, QUARTER),
    gated("peak_rss_mb", "MiB", Better::Lower, QUARTER),
    gated("stall_p50_ms", "ms", Better::Lower, QUARTER),
    gated("recover_s", "s", Better::Lower, QUARTER),
    exact("syncs_per_kop", "1/kop"),
    exact("disk_bytes_per_op", "B/op"),
    exact("fail_ratio", "ratio"),
];

/// How many of [`END_TO_END`] are in the contract's `end_to_end` list.
pub const UNIVERSAL: usize = 4;

use Better::{Higher, Lower};

/// The per-layer metrics of the traced pass, by layer.
pub const PER_LAYER: &[Metric] = &[
    // sortnet: the compare-exchange kernel against a stream-copy roofline,
    // then the cell networks at the sizes the workloads induce.
    layer("sortnet.cex_pairs_per_s.l1", "1/s", Higher),
    layer("sortnet.cex_pairs_per_s.l2", "1/s", Higher),
    layer("sortnet.cex_pairs_per_s.mem", "1/s", Higher),
    layer("sortnet.cex_gbps.mem", "GB/s", Higher),
    layer("sortnet.copy_gbps", "GB/s", Higher),
    layer("sortnet.sort_ns_per_cell.1k", "ns", Lower),
    layer("sortnet.sort_ns_per_cell.64k", "ns", Lower),
    layer("sortnet.merge_ns_per_cell.4k", "ns", Lower),
    layer("sortnet.merge_ns_per_cell.64k", "ns", Lower),
    layer("sortnet.scalar_over_simd.64k", "ratio", Higher),
    // core
    layer("core.compact_ns_per_cell.4k", "ns", Lower),
    layer("core.compact_ns_per_cell.64k", "ns", Lower),
    layer("core.scan_ns_per_elem.64k", "ns", Lower),
    layer("core.sort_kv_ns_per_elem.64k", "ns", Lower),
    layer("core.scatter_ns_per_op.1k", "ns", Lower),
    layer("core.orp_ns_per_elem.64k", "ns", Lower),
    layer("core.rec_sort_ns_per_elem.64k", "ns", Lower),
    // fj
    layer("fj.join_ns.seq", "ns", Lower),
    layer("fj.join_ns.pool", "ns", Lower),
    layer("fj.par_for_ns_per_iter.pool", "ns", Lower),
    layer("fj.pool_run_us", "us", Lower),
    layer("fj.spawn_detached_us", "us", Lower),
    layer("fj.sort_speedup.64k", "ratio", Higher),
    layer("fj.cpu_over_wall", "ratio", Lower),
    // metrics: the scratch arena of the workload's own store, and the
    // paper's cost model for one epoch of it.
    layer("metrics.scratch_fresh_allocs", "count", Lower),
    layer("metrics.scratch_lane_hits", "count", Higher),
    layer("metrics.scratch_spills", "count", Lower),
    layer("metrics.scratch_resident_mb", "MiB", Lower),
    layer("metrics.lease_ns.64k", "ns", Lower),
    exact_layer("metrics.work_per_op", "count"),
    exact_layer("metrics.span", "count"),
    exact_layer("metrics.q_per_op", "count"),
    // pram
    layer("pram.access_us.4k", "us", Lower),
    layer("pram.sb_step_ms.256", "ms", Lower),
    // graphs
    layer("graphs.cc_ms.1k", "ms", Lower),
    layer("graphs.msf_ms.512", "ms", Lower),
    layer("graphs.listrank_ms.4k", "ms", Lower),
    layer("graphs.euler_ms.1k", "ms", Lower),
    layer("graphs.contract_ms.511", "ms", Lower),
    // store: the epoch seen from outside, and what the probes explain of it
    layer("store.epoch_ms.merge", "ms", Lower),
    layer("store.epoch_ms.oram", "ms", Lower),
    layer("store.kernel_sum_frac", "ratio", Higher),
    layer("store.unattributed_ms", "ms", Lower),
    layer("store.route_overhead_frac", "ratio", Lower),
    layer("store.wal_share", "ratio", Lower),
    layer("store.recover_replay_ms_per_epoch", "ms", Lower),
    layer("store.pipeline.handoff_block_ms_p50", "ms", Lower),
    layer("store.pipeline.read_now_ms_p50", "ms", Lower),
    layer("store.pipeline.submit_ns_per_op", "ns", Lower),
    exact_layer("store.pipeline.merges_per_batch", "ratio"),
    layer("store.ack_p95_ms", "ms", Lower),
    layer("store.ack_p99_ms", "ms", Lower),
    // store.vfs: the I/O boundary, in the gated configuration (flush
    // stops at the page cache) and on the checkout's own device
    exact_layer("store.vfs.appends_per_epoch", "count"),
    exact_layer("store.vfs.append_bytes_per_epoch", "B"),
    exact_layer("store.vfs.syncs_per_epoch", "count"),
    layer("store.vfs.append_us_p50", "us", Lower),
    layer("store.vfs.sync_us_p50", "us", Lower),
    layer("store.vfs.sync_us_p99", "us", Lower),
    layer("store.vfs.snapshot_ms_p50", "ms", Lower),
    exact_layer("store.vfs.snapshot_bytes", "B"),
    layer("store.vfs.disk.append_us_p50", "us", Lower),
    layer("store.vfs.disk.sync_us_p50", "us", Lower),
    layer("store.vfs.disk.sync_us_p99", "us", Lower),
    layer("store.vfs.disk.snapshot_ms_p50", "ms", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// How many of [`END_TO_END`] have a bound or must be equal: all but
/// `fail_ratio`, the last, which the contract carries as `failed`.
pub const CARRIED: usize = END_TO_END.len() - 1;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn contract() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Json, key: &str) -> &'a str {
        v.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert_eq!(END_TO_END[CARRIED].name, "fail_ratio");
    }

    #[test]
    fn benchmark_json_states_the_same_workloads_and_metrics() {
        let c = contract();
        let workloads = c.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (w, j) in Workload::ALL.iter().zip(workloads) {
            assert_eq!(field(j, "name"), w.name());
            assert_eq!(field(j, "why"), w.why());
        }

        let e2e = c.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), UNIVERSAL);
        for (m, j) in END_TO_END.iter().zip(e2e) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.word());
            assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
        }

        // per_layer: the other bounded end-to-end metrics, then every probe.
        let layers = c.get("per_layer").and_then(Json::as_arr).unwrap();
        let ours: Vec<&Metric> = END_TO_END[UNIVERSAL..CARRIED]
            .iter()
            .chain(PER_LAYER)
            .collect();
        assert_eq!(layers.len(), ours.len());
        assert!(layers.len() <= 128);
        for (m, j) in ours.iter().zip(layers) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.word());
        }
    }
}
