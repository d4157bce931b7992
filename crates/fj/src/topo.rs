//! Best-effort CPU topology: pinning worker threads to cores.
//!
//! Per-worker resources (the scratch arena's per-worker lanes) only stay
//! warm in one core's cache when worker *i* really stays on core *i* across
//! epochs — otherwise the OS scheduler moves workers around. On linux we
//! pin with `sched_setaffinity(2)`; the symbol comes straight from the
//! glibc that `std` already links, so no new dependency is needed (the
//! build container is offline). Everywhere else pinning is a documented
//! no-op: the pool still runs, merely unpinned.
//!
//! Pinning is *best effort* by contract: a failed `sched_setaffinity`
//! (restricted cpuset, exotic sandbox) degrades to an unpinned worker and a
//! one-time warning — never a panic. Callers that must know can ask
//! [`supported`].

/// Upper bound on CPU ids we can express: glibc's `cpu_set_t` is 1024 bits.
pub const MAX_CPUS: usize = 1024;

/// The kernel refused the affinity mask (restricted cpuset, out-of-range
/// CPU id, exotic sandbox). The thread keeps its old mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinError;

impl std::fmt::Display for PinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the kernel refused to pin this thread")
    }
}

impl std::error::Error for PinError {}

#[cfg(target_os = "linux")]
mod imp {
    use super::{PinError, MAX_CPUS};

    // `std` links libc on linux; declaring the one prototype we need avoids
    // pulling in a `libc` crate the offline container does not have.
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub const SUPPORTED: bool = true;

    /// Restrict the calling thread to `cpu`. `Err` means the kernel said no
    /// (or the id is out of range); the thread keeps its old mask.
    pub fn pin_current_thread(cpu: usize) -> Result<(), PinError> {
        if cpu >= MAX_CPUS {
            return Err(PinError);
        }
        let mut mask = [0u64; MAX_CPUS / 64];
        mask[cpu / 64] |= 1u64 << (cpu % 64);
        // SAFETY: pid 0 = calling thread; the mask buffer is live and its
        // length is passed explicitly.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(PinError)
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub const SUPPORTED: bool = false;

    /// No-op on platforms without `sched_setaffinity`: the worker simply
    /// stays unpinned (this is the documented fallback, not an error).
    pub fn pin_current_thread(_cpu: usize) -> Result<(), super::PinError> {
        Ok(())
    }
}

/// Whether this platform can actually pin threads ([`pin_current_thread`]
/// is a no-op elsewhere).
pub fn supported() -> bool {
    imp::SUPPORTED
}

/// Pin the calling thread to `cpu` (best effort; see module docs).
pub fn pin_current_thread(cpu: usize) -> Result<(), PinError> {
    imp::pin_current_thread(cpu)
}

/// Number of CPUs visible to this process, used to wrap worker→core maps.
pub fn online_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_to_cpu0_succeeds_or_degrades() {
        // CPU 0 exists on every machine; on linux this should normally
        // succeed, and on other platforms it is a no-op Ok. Either way it
        // must not panic.
        let _ = pin_current_thread(0);
    }

    #[test]
    fn out_of_range_cpu_is_rejected_on_linux() {
        if supported() {
            assert!(pin_current_thread(MAX_CPUS).is_err());
        }
    }

    #[test]
    fn online_cpus_is_positive() {
        assert!(online_cpus() >= 1);
    }
}
