//! One run of one workload in this process: set up (several times, for
//! a steady `setup_s`), measure, verify, and — under `--trace` — record
//! spans and run the per-layer probes.

use crate::api;
use crate::calib::{self, Reference};
use crate::env;
use crate::json::Json;
use crate::probes::{self, KernelSum, Probes};
use crate::spec::{self, Sizes, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, tail_percentile};
use crate::trace::{self, Tracer};
use crate::vfs::{fs_type, IoSnapshot};
use crate::workloads::{self, run_phase, Bench, Phase, Post, Series, SetupCtx};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Result files, span files and (by default) durable directories.
    pub out: PathBuf,
    /// Where durable stores live, if not under `out`.
    pub dir: Option<PathBuf>,
}

impl RunCfg {
    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            spec::SMOKE
        } else {
            spec::FULL
        }
    }

    pub fn result_path(&self) -> PathBuf {
        self.out.join(format!(
            "run-{}-seed{}-trace{}.json",
            self.workload.name(),
            self.seed,
            u8::from(self.trace)
        ))
    }

    pub fn spans_path(&self) -> PathBuf {
        self.out.join(format!(
            "spans-{}-seed{}.json",
            self.workload.name(),
            self.seed
        ))
    }
}

pub struct RunResult {
    pub workload: Workload,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Parallel to [`END_TO_END`]; `None` where a metric does not apply.
    pub e2e: Vec<Option<f64>>,
    /// Parallel to [`PER_LAYER`]; empty without `--trace`.
    pub layers: Vec<Option<f64>>,
    /// Everything else the result file records.
    pub detail: Json,
}

/// Share of `--seconds` a traced run gives each of its two measured
/// segments (tracing off, tracing on); the probes take the rest.
const TRACED_SEGMENT: f64 = 0.35;

/// Exact device-facing counts over whole snapshot periods of the phase
/// (the whole phase if it holds fewer than two snapshot points).
fn io_window(ph: &Phase, whole: (IoSnapshot, IoSnapshot)) -> (IoSnapshot, u64, bool) {
    match (ph.io_marks.first(), ph.io_marks.last()) {
        (Some(&(io0, ops0)), Some(&(io1, ops1))) if ops1 > ops0 => {
            (io1.since(io0), ops1 - ops0, true)
        }
        _ => (whole.1.since(whole.0), ph.acked_ops(), false),
    }
}

pub fn run(cfg: &RunCfg) -> Result<RunResult, String> {
    let sizes = cfg.sizes();
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let dir = cfg.dir.clone().unwrap_or_else(|| cfg.out.clone());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    // Set-up, repeated, each between two calibration points; the last
    // one is measured.
    let mut cal = Reference::new();
    let mut setups_raw = Vec::new();
    let mut setups = Vec::new();
    let mut bench: Option<Box<dyn Bench>> = None;
    let mut before = cal.point();
    for rep in 0..spec::setups(cfg.workload) {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(workloads::setup(&SetupCtx {
            workload: cfg.workload,
            sizes: &sizes,
            seed: cfg.seed,
            dir: &dir,
            rep,
        })?);
        let s = t0.elapsed().as_secs_f64();
        let after = cal.point();
        setups_raw.push(s);
        setups.push(s * calib::speed(before, after));
        before = after;
    }
    let mut bench = bench.ok_or("no set-up ran")?;

    // Measure: tracing off; then, under --trace, a second segment with it on.
    let mut tracer = Tracer::new(if cfg.trace { 1 << 18 } else { 0 });
    let io_start = bench.vfs().map(|v| v.counts());
    let seconds = if cfg.trace {
        cfg.seconds * TRACED_SEGMENT
    } else {
        cfg.seconds
    };
    let plain = run_phase(bench.as_mut(), &mut tracer, &mut cal, seconds);
    let io_end = bench.vfs().map(|v| v.counts());
    let traced = cfg.trace.then(|| {
        tracer.set_on(true);
        if let Some(v) = bench.vfs() {
            v.set_timing(true);
        }
        let ph = run_phase(bench.as_mut(), &mut tracer, &mut cal, seconds);
        tracer.set_on(false);
        if let Some(v) = bench.vfs() {
            v.set_timing(false);
            tracer.adopt(&v.take_events());
        }
        ph
    });

    let scratch = bench.scratch().stats();
    let exec_name = bench.exec().name();
    let exec_threads = bench.exec().threads();
    let pinned_workers = bench.exec().pinned_workers();
    let stream_hash = bench.stream_hash();
    let mismatches = bench.mismatches();
    let post: Post = bench.finish(&mut cal);

    let mut attempted = plain.attempted + post.attempted;
    let mut failed = plain.rejected + mismatches + post.failed;
    if let Some(t) = &traced {
        attempted += t.attempted;
        failed += t.rejected;
    }

    // Exact counts (durable store only).
    let io = io_start
        .zip(io_end)
        .map(|whole| io_window(&plain, whole))
        .filter(|(_, ops, _)| *ops > 0);

    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut detail: Vec<(String, Json)> = Vec::new();
    if let Some(traced) = &traced {
        let mut p = probes::run_all(cfg.seed, cfg.smoke);
        let spans = Spans {
            spans: tracer.spans(),
            speed: median(&traced.host_speeds()).unwrap_or(1.0),
        };
        let breakdown = workload_layers(
            cfg,
            &sizes,
            &plain,
            &spans,
            &post,
            &mut p,
            &mut cal,
            &mut layers,
        )?;
        detail.push(("epoch_breakdown".into(), breakdown));
        for &(name, v) in &p.values {
            layers.insert(name, v);
        }
        layers.insert("fj.cpu_over_wall", plain.cpu_s / plain.wall_s);
        layers.insert("metrics.scratch_fresh_allocs", scratch.fresh_allocs as f64);
        layers.insert("metrics.scratch_lane_hits", scratch.lane_hits as f64);
        layers.insert("metrics.scratch_spills", scratch.spills as f64);
        layers.insert(
            "metrics.scratch_resident_mb",
            scratch.resident_bytes as f64 / (1 << 20) as f64,
        );
        // Both segments on the calibrated clock: the host may change
        // speed between them, tracing or not.
        if let (Some(a), Some(b)) = (plain.ops_per_s(true), traced.ops_per_s(true)) {
            layers.insert("trace.overhead_frac", 1.0 - b / a);
        }
        if let Some((d, ops, _)) = io {
            let epochs = ops as f64 / sizes.durable_batch as f64;
            layers.insert("store.vfs.appends_per_epoch", d.appends as f64 / epochs);
            layers.insert(
                "store.vfs.append_bytes_per_epoch",
                d.append_bytes as f64 / epochs,
            );
            layers.insert("store.vfs.syncs_per_epoch", d.syncs as f64 / epochs);
            if d.snapshots > 0 {
                layers.insert(
                    "store.vfs.snapshot_bytes",
                    d.snapshot_bytes as f64 / d.snapshots as f64,
                );
            }
        }
        attempted += p.checked;
        failed += p.failed;

        // Spans: written at exit, and their arithmetic checked on the way.
        let spans = tracer.spans();
        let unbalanced = trace::root_balance(spans)
            .iter()
            .filter(|(dur, sum)| dur != sum)
            .count();
        if unbalanced > 0 {
            return Err(format!(
                "{unbalanced} epoch spans do not equal the sum of their self times"
            ));
        }
        std::fs::write(
            cfg.spans_path(),
            tracer.to_json(cfg.workload.name()).to_line() + "\n",
        )
        .map_err(|e| format!("{}: {e}", cfg.spans_path().display()))?;
        detail.push((
            "spans".into(),
            Json::obj([
                ("file", Json::str(cfg.spans_path().display().to_string())),
                ("recorded", Json::Num(spans.len() as f64)),
                ("dropped", Json::Num(tracer.dropped as f64)),
                (
                    "by_name",
                    Json::Obj(
                        trace::by_name(spans)
                            .into_iter()
                            .map(|(name, (count, total, own))| {
                                (
                                    name.to_string(),
                                    Json::obj([
                                        ("count", Json::Num(count as f64)),
                                        ("total_ms", Json::Num(total as f64 / 1e6)),
                                        ("self_ms", Json::Num(own as f64 / 1e6)),
                                    ]),
                                )
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }

    // Timings on the calibrated clock (`true`) are the reported values;
    // the same timings as measured go into the result file beside them.
    let timing = |name: &str, calibrated: bool| -> Option<f64> {
        match name {
            "setup_s" => median(if calibrated { &setups } else { &setups_raw }),
            "ops_per_s" => plain.ops_per_s(calibrated),
            "ack_p50_ms" => median(&plain.latencies_ms(Series::Ack, calibrated)),
            "stall_p50_ms" => median(&plain.latencies_ms(Series::Stall, calibrated)),
            "recover_s" => post
                .recover_s
                .map(|(raw, cal)| if calibrated { cal } else { raw }),
            _ => None,
        }
    };
    let e2e: Vec<Option<f64>> = END_TO_END
        .iter()
        .map(|m| match m.name {
            "peak_rss_mb" => Some(env::peak_rss_mb()),
            "syncs_per_kop" => io.map(|(d, ops, _)| d.syncs as f64 * 1000.0 / ops as f64),
            "disk_bytes_per_op" => io.map(|(d, ops, _)| d.bytes() as f64 / ops as f64),
            "fail_ratio" => Some(failed as f64 / attempted.max(1) as f64),
            name => timing(name, true),
        })
        .collect();
    let speeds = plain.host_speeds();

    detail.extend([
        (
            "as_measured".to_string(),
            Json::Obj(
                END_TO_END
                    .iter()
                    .filter_map(|m| Some((m.name.to_string(), Json::Num(timing(m.name, false)?))))
                    .collect(),
            ),
        ),
        (
            "host_speed".into(),
            Json::obj([
                (
                    "meaning",
                    Json::str("reference kernel: nominal time / measured time; every timing is multiplied by the speed of its slice, per_block is the mean over a counted block's slices"),
                ),
                ("nominal_ns", Json::Num(calib::NOMINAL_NS)),
                ("median", Json::opt(median(&speeds))),
                ("per_block", Json::nums(&speeds)),
                (
                    "stolen_cpu_share_per_block",
                    Json::nums(&plain.blocks.iter().map(|b| b.stolen).collect::<Vec<_>>()),
                ),
                (
                    "ops_per_s_per_block_as_measured",
                    Json::nums(&plain.block_rates(false)),
                ),
            ]),
        ),
        ("seed".to_string(), Json::Num(cfg.seed as f64)),
        ("seconds".into(), Json::Num(cfg.seconds)),
        ("smoke".into(), Json::Bool(cfg.smoke)),
        ("executor".into(), Json::str(exec_name)),
        ("executor_threads".into(), Json::Num(exec_threads as f64)),
        (
            "load".into(),
            Json::str("closed loop, one client, generated on one thread"),
        ),
        ("op_stream_hash".into(), Json::str(format!("{stream_hash:016x}"))),
        ("setup_runs_s".into(), Json::nums(&setups_raw)),
        (
            "samples".into(),
            Json::obj([
                ("units", Json::Num(plain.units.len() as f64)),
                ("ack", Json::Num(plain.latencies_ms(Series::Ack, false).len() as f64)),
                ("stall", Json::Num(plain.latencies_ms(Series::Stall, false).len() as f64)),
                ("blocks_run", Json::Num(plain.blocks.len() as f64)),
                ("blocks_kept", Json::Num(plain.block_rates(true).len() as f64)),
                ("calibration_slices", Json::Num(plain.slices.len() as f64)),
            ]),
        ),
        (
            "measured".into(),
            Json::obj([
                ("wall_s", Json::Num(plain.wall_s)),
                ("cpu_s", Json::Num(plain.cpu_s)),
                ("acked_ops", Json::Num(plain.acked_ops() as f64)),
            ]),
        ),
        (
            "exact_counts_over_whole_snapshot_periods".into(),
            io.map_or(Json::Null, |(_, _, aligned)| Json::Bool(aligned)),
        ),
        (
            "durable_dir".into(),
            if cfg.workload == Workload::DurableSmall {
                Json::obj([
                    ("path", Json::str(dir.display().to_string())),
                    ("fs_type", Json::str(fs_type(&dir))),
                    (
                        "flush",
                        Json::str("counted, stops at the page cache (see README)"),
                    ),
                ])
            } else {
                Json::Null
            },
        ),
        (
            "notes".into(),
            Json::Obj(
                post.notes
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::str(v.clone())))
                    .collect(),
            ),
        ),
        (
            "env".into(),
            env::record(api::backend_name(), pinned_workers),
        ),
    ]);

    Ok(RunResult {
        workload: cfg.workload,
        trace: cfg.trace,
        attempted,
        failed,
        e2e,
        layers: if cfg.trace {
            PER_LAYER
                .iter()
                .map(|m| layers.get(m.name).copied())
                .collect()
        } else {
            Vec::new()
        },
        detail: Json::Obj(detail),
    })
}

/// The spans of the traced segment, with the host speed it ran at.
struct Spans<'a> {
    spans: &'a [trace::Span],
    speed: f64,
}

impl Spans<'_> {
    /// Durations of the spans called `name`, in calibrated nanoseconds.
    fn durations(&self, name: &str) -> Vec<f64> {
        trace::durations(self.spans, name)
            .iter()
            .map(|&ns| ns as f64 * self.speed)
            .collect()
    }
}

/// The per-layer metrics that come from the workload's own run: what an
/// epoch costs from outside, what the probes explain of it, and the
/// spans of the I/O boundary. All timings on the calibrated clock.
#[allow(clippy::too_many_arguments)]
fn workload_layers(
    cfg: &RunCfg,
    sizes: &Sizes,
    plain: &Phase,
    traced: &Spans<'_>,
    post: &Post,
    p: &mut Probes,
    cal: &mut Reference,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<Json, String> {
    let w = cfg.workload;
    let mut put = |name: &'static str, v: Option<f64>| {
        if let Some(v) = v {
            out.insert(name, v);
        }
    };
    let p50 = |series: Series| median(&plain.latencies_ms(series, true));
    let scaled = |v: &[f64], k: f64| v.iter().map(|x| x * k).collect::<Vec<_>>();

    // The epoch from outside.
    put("store.epoch_ms.merge", p50(Series::Merge));
    put("store.epoch_ms.oram", p50(Series::Oram));
    let ack = plain.latencies_ms(Series::Ack, true);
    put("store.ack_p95_ms", tail_percentile(&ack, 0.95).map(|t| t.0));
    put("store.ack_p99_ms", tail_percentile(&ack, 0.99).map(|t| t.0));

    // What the probes explain of it. The typical epoch: the ORAM-path one
    // where the workload has both, else the merge (round, sort).
    let sum: KernelSum = probes::kernel_sum(p, w, sizes, cfg.seed, cfg.smoke);
    let epoch_ms = match w {
        Workload::OramPoint => p50(Series::Oram),
        Workload::SortPaper => p50(Series::Ack),
        _ => p50(Series::Merge),
    };
    if let Some(epoch_ms) = epoch_ms {
        put(
            "store.kernel_sum_frac",
            Some(sum.total_ns() / 1e6 / epoch_ms),
        );
        put(
            "store.unattributed_ms",
            Some(epoch_ms - sum.total_ns() / 1e6),
        );
    }

    // The paper's model, beside the host numbers.
    if let Some((model, ops)) = workloads::model_counts(w, sizes)? {
        put("metrics.work_per_op", Some(model.work as f64 / ops as f64));
        put("metrics.span", Some(model.span as f64));
        put(
            "metrics.q_per_op",
            Some(model.cache_misses as f64 / ops as f64),
        );
    }

    let mut vfs_ms = None;
    match w {
        Workload::ShardedPipelined => {
            put(
                "store.route_overhead_frac",
                Some(probes::route_overhead_frac(p, sizes, cfg.seed, cfg.smoke)),
            );
            put("store.pipeline.handoff_block_ms_p50", p50(Series::Stall));
            put("store.pipeline.read_now_ms_p50", p50(Series::ReadNow));
            let submits = plain.latencies_ms(Series::Submit, true);
            let submitted = submits.len() * sizes.client_batch * sizes.batches_per_commit;
            put(
                "store.pipeline.submit_ns_per_op",
                (submitted > 0).then(|| submits.iter().sum::<f64>() * 1e6 / submitted as f64),
            );
            let merges = plain.units.iter().filter(|u| u.ops > 0).count();
            put(
                "store.pipeline.merges_per_batch",
                (plain.client_batches > 0).then(|| merges as f64 / plain.client_batches as f64),
            );
        }
        Workload::DurableSmall => {
            let total = |name: &str| traced.durations(name).iter().sum::<f64>();
            let io_ns = total("vfs.append") + total("vfs.sync") + total("vfs.snapshot");
            put(
                "store.wal_share",
                (total("commit") > 0.0).then(|| io_ns / total("commit")),
            );
            let epochs = traced.durations("epoch").len();
            vfs_ms = (epochs > 0).then(|| io_ns / 1e6 / epochs as f64);
            if let (Some((_, full)), Some(snap)) = (post.recover_s, post.recover_snapshot_only_s) {
                put(
                    "store.recover_replay_ms_per_epoch",
                    Some((full - snap) * 1e3 / sizes.wal_tail as f64),
                );
            }
            put(
                "store.vfs.append_us_p50",
                median(&scaled(&traced.durations("vfs.append"), 1e-3)),
            );
            let syncs = scaled(&traced.durations("vfs.sync"), 1e-3);
            put("store.vfs.sync_us_p50", median(&syncs));
            put(
                "store.vfs.sync_us_p99",
                tail_percentile(&syncs, 0.99).map(|t| t.0),
            );
            put(
                "store.vfs.snapshot_ms_p50",
                median(&scaled(&traced.durations("vfs.snapshot"), 1e-6)),
            );

            // The same calls with the flush reaching this checkout's device.
            let dir = cfg.dir.clone().unwrap_or_else(|| cfg.out.clone());
            let epochs = 2 * sizes.snapshot_every as usize + 8;
            let before = cal.point();
            let events = probes::disk_events(sizes, cfg.seed, &dir, epochs)?;
            let speed = calib::speed(before, cal.point());
            let of = |name: &str, unit: f64| -> Vec<f64> {
                events
                    .iter()
                    .filter(|e| e.name == name)
                    .map(|e| e.end.duration_since(e.start).as_nanos() as f64 * speed * unit)
                    .collect()
            };
            put(
                "store.vfs.disk.append_us_p50",
                median(&of("vfs.append", 1e-3)),
            );
            let syncs = of("vfs.sync", 1e-3);
            put("store.vfs.disk.sync_us_p50", median(&syncs));
            put(
                "store.vfs.disk.sync_us_p99",
                tail_percentile(&syncs, 0.99).map(|t| t.0),
            );
            put(
                "store.vfs.disk.snapshot_ms_p50",
                median(&of("vfs.snapshot", 1e-6)),
            );
        }
        _ => {}
    }
    // Where one typical epoch goes, as far as the benchmark can see from
    // outside: the probes' kernels by layer and the I/O spans.
    Ok(Json::obj([
        ("epoch_ms", Json::opt(epoch_ms)),
        ("sortnet_ms", Json::Num(sum.sortnet_ns / 1e6)),
        ("core_ms", Json::Num(sum.core_ns / 1e6)),
        ("pram_ms", Json::Num(sum.pram_ns / 1e6)),
        ("vfs_ms", Json::opt(vfs_ms)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{contract_line, result_json};
    use crate::spec::{CARRIED, UNIVERSAL};

    /// A smoke run into a directory of its own, removed afterwards.
    fn smoke(workload: Workload, trace: bool) -> RunResult {
        let cfg = RunCfg {
            workload,
            seed: 7,
            seconds: 0.2,
            trace,
            smoke: true,
            out: std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!(
                    "test-{}-{}-{}",
                    workload.name(),
                    u8::from(trace),
                    std::process::id()
                )),
            dir: None,
        };
        let r = run(&cfg).expect("the smoke run completes");
        assert_eq!(cfg.spans_path().exists(), trace, "the span file");
        std::fs::remove_dir_all(&cfg.out).expect("the run's directory is removable");
        r
    }

    #[test]
    fn every_workload_runs_correct_and_reports_the_contract_line() {
        for w in Workload::ALL {
            let r = smoke(w, false);
            assert_eq!(r.failed, 0, "{}", w.name());
            assert!(r.attempted > 0);
            let line = Json::parse(&contract_line(&r)).unwrap();
            let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
            assert_eq!(metrics.len(), UNIVERSAL);
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64).unwrap();
                assert!(v > 0.0, "{} {name} = {v}", w.name());
            }
            // `stall_p50_ms` exists everywhere, the durable-only metrics
            // exactly on the durable workload.
            assert!(r.e2e[UNIVERSAL].is_some_and(|v| v > 0.0), "{}", w.name());
            let durable = w == Workload::DurableSmall;
            for k in UNIVERSAL + 1..CARRIED {
                assert_eq!(r.e2e[k].is_some(), durable, "{} {k}", w.name());
            }
            assert_eq!(r.e2e[CARRIED], Some(0.0), "fail_ratio");
            assert_eq!(
                result_json(&r).get("claim"),
                Some(&Json::Null),
                "no gain is claimed"
            );
        }
    }

    #[test]
    fn a_traced_run_reports_every_per_layer_metric_and_exact_counts() {
        let r = smoke(Workload::DurableSmall, true);
        assert_eq!(r.failed, 0);
        let line = Json::parse(&contract_line(&r)).unwrap();
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), CARRIED - UNIVERSAL + PER_LAYER.len());
        let value = |name: &str| {
            let at = PER_LAYER.iter().position(|m| m.name == name).unwrap();
            r.layers[at]
        };
        // Every workload-independent probe and every durable metric ran.
        for m in PER_LAYER {
            let applies = !m.name.starts_with("store.pipeline.")
                && m.name != "store.route_overhead_frac"
                && m.name != "store.epoch_ms.oram";
            assert_eq!(value(m.name).is_some(), applies, "{}", m.name);
        }
        // One append and one sync per epoch, plus the snapshot's share.
        assert_eq!(value("store.vfs.appends_per_epoch"), Some(1.0));
        let every = spec::SMOKE.snapshot_every as f64;
        assert_eq!(value("store.vfs.syncs_per_epoch"), Some(1.0 + 2.0 / every));
        assert_eq!(
            r.e2e[6],
            Some((every + 2.0) * 1000.0 / (every * spec::SMOKE.durable_batch as f64)),
            "syncs_per_kop over whole snapshot periods"
        );
    }
}
