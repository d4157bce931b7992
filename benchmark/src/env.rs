//! The environment a result was measured in, recorded in every result
//! file: a number without its host, thread count and build is not
//! comparable to anything.

use crate::json::Json;
use std::path::Path;

/// `DOB_*` variables that change what the repository's code does
/// (`DOB_THREADS` sizes default pools, `DOB_NO_SIMD` forces the scalar
/// compare-exchange backend). A run refuses to start with one of them
/// set unless `--allow-env` is given, and records every `DOB_*` variable
/// either way.
pub const GUARDED: [&str; 2] = ["DOB_THREADS", "DOB_NO_SIMD"];

pub fn dob_vars() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("DOB_"))
        .collect();
    vars.sort();
    vars
}

pub fn guarded_vars_set() -> Vec<String> {
    dob_vars()
        .into_iter()
        .map(|(k, _)| k)
        .filter(|k| GUARDED.contains(&k.as_str()))
        .collect()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pool threads every pool workload uses: `min(nproc, 4)`.
pub fn pool_threads() -> usize {
    nproc().min(4)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn l2_size() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// The commit of the enclosing git checkout, read from `.git` without
/// starting a process; `unknown` outside one (the driver's checkout is
/// not a repository).
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `backend`, `pinned_workers` come from the repository's API (through
/// the adapter); the rest is read from the host.
pub fn record(backend: &str, pinned_workers: usize) -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("P", Json::Num(pool_threads() as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("l2_size", Json::str(l2_size())),
        ("cex_backend", Json::str(backend)),
        ("pinned_workers", Json::Num(pinned_workers as f64)),
        ("rustc", Json::str(env!("DOB_BENCH_RUSTC"))),
        ("git_commit", Json::str(git_commit(Path::new(".")))),
        (
            "dob_env",
            Json::Obj(
                dob_vars()
                    .into_iter()
                    .map(|(k, v)| (k, Json::Str(v)))
                    .collect(),
            ),
        ),
    ])
}

/// Process CPU seconds (user + system, all threads) from
/// `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks (100 Hz on Linux).
    let Some(rest) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Seconds the hypervisor ran something else while a CPU of this guest
/// had work (`steal`, all CPUs), from `/proc/stat`; 0 where the kernel
/// does not report it.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            // "cpu  user nice system idle iowait irq softirq steal ..."
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_probes_read_something() {
        assert!(nproc() >= 1);
        assert!((1..=4).contains(&pool_threads()));
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
    }

    #[test]
    fn the_record_names_every_field() {
        let rec = record("avx2", 2);
        for key in [
            "nproc",
            "P",
            "cpu_model",
            "l2_size",
            "cex_backend",
            "pinned_workers",
            "rustc",
            "git_commit",
            "dob_env",
        ] {
            assert!(rec.get(key).is_some(), "{key}");
        }
        assert!(rec
            .get("rustc")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("rustc"));
    }
}
