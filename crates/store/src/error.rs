//! Typed failures — rejected client input and durable-path faults — the
//! retry policy that guards the durable paths, and the store's observable
//! health.
//!
//! # Staging and acknowledgement
//!
//! The engine upholds one contract at every shard count, synchronous or
//! pipelined: **an epoch's merge effects are staged and applied only
//! after its WAL durability point**.
//! `execute_epoch` appends (and syncs, per the group-commit cadence)
//! before any counter bumps or table mutation, so an append that fails —
//! even after retries — rejects the epoch *atomically*: the store is
//! bitwise what it was before the call, and the caller simply never
//! received an acknowledgement. There is no half-applied state to roll
//! back. A snapshot failure is different: it strikes *after* the epoch's
//! durability point, so the epoch stays acknowledged (its WAL record is
//! intact) and the store instead degrades — see [`Health`].
//!
//! # Transient vs. permanent
//!
//! The [`RetryPolicy`] retries faults a disk might genuinely shake off
//! (EIO and friends) with bounded exponential backoff, and fails fast on
//! faults that retrying cannot fix: ENOSPC / quota
//! ([`io::ErrorKind::StorageFull`]), permissions, corruption
//! ([`io::ErrorKind::InvalidData`]), and missing files. Retry decisions
//! read only the I/O outcome — an observable that is itself a function of
//! the public fault schedule under injection — never data, so the retry
//! stream leaks nothing (DESIGN.md §15).

use std::fmt;
use std::io;
use std::time::Duration;

/// Why a store operation failed. Everything a commit, checkpoint or
/// recovery can surface instead of panicking.
#[derive(Debug)]
pub enum StoreError {
    /// An op in the submitted batch breaks the client contract. The whole
    /// epoch was rejected before anything was logged or applied; the
    /// store is untouched and still healthy.
    InvalidOp {
        /// Position of the first offending op in the batch.
        index: usize,
        /// Which contract it breaks.
        reason: &'static str,
    },
    /// The configuration names a shape no engine exists for (a shard
    /// count that is not a power of two, or the ORAM path on more than
    /// one shard). Recovery refused before touching the directory.
    InvalidConfig {
        /// Which rule the configuration breaks.
        reason: &'static str,
    },
    /// `checkpoint` was called while the pending log is non-empty (the
    /// last epoch took the ORAM path). Snapshots only capture the table,
    /// so checkpoint at a merge close. Nothing was written; the store is
    /// untouched and still healthy.
    CheckpointPending {
        /// Public length of the pending log.
        pending: usize,
    },
    /// A non-retryable I/O fault on a durable path (ENOSPC, permissions,
    /// a vanished directory…). The epoch being committed, if any, was
    /// rejected atomically.
    Io {
        /// Which durable step failed (e.g. `"wal append"`).
        context: &'static str,
        /// The underlying fault.
        source: io::Error,
    },
    /// The store's WAL cannot be replayed as it is: its clean prefix is
    /// inconsistent with the snapshots (records they say committed are
    /// unreadable), a logged op breaks the client contract, or the
    /// directory holds per-shard logs of an older layout. Starting empty
    /// would silently lose acknowledged data, so recovery refuses.
    WalCorrupt {
        /// Human-readable diagnosis.
        detail: String,
    },
    /// A table snapshot could not be written or read back. On the write
    /// side the WAL is left intact (no acknowledged epoch is lost), but
    /// the store degrades; on the recovery side the directory is
    /// unusable as-is.
    SnapshotFailed {
        /// Shard whose snapshot failed.
        shard: usize,
        /// The underlying fault.
        source: io::Error,
    },
    /// A transient fault survived every [`RetryPolicy`] attempt. The
    /// epoch was rejected atomically; the store is degraded.
    RetriesExhausted {
        /// Which durable step failed.
        context: &'static str,
        /// Attempts made (the policy's `attempts`).
        attempts: u32,
        /// The last attempt's fault.
        source: io::Error,
    },
    /// The store previously degraded (or a pipelined commit panicked):
    /// it refuses new commits until re-opened via `recover`. Reads and
    /// accessors keep working.
    Poisoned,
    /// A pipelined handle names an epoch this store never committed, or
    /// one whose results were already taken.
    UnknownEpoch {
        /// The handle's epoch number.
        epoch: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::InvalidOp { index, reason } => {
                write!(f, "op {index} of the epoch was rejected: {reason}")
            }
            StoreError::InvalidConfig { reason } => {
                write!(f, "invalid store configuration: {reason}")
            }
            StoreError::CheckpointPending { pending } => write!(
                f,
                "checkpoint requires an empty pending log ({pending} ops pending); \
                 checkpoint at a merge close"
            ),
            StoreError::Io { context, source } => {
                write!(f, "durable {context} failed: {source}")
            }
            StoreError::WalCorrupt { detail } => write!(f, "WAL is corrupt: {detail}"),
            StoreError::SnapshotFailed { shard, source } => {
                write!(f, "snapshot for shard {shard} failed: {source}")
            }
            StoreError::RetriesExhausted {
                context,
                attempts,
                source,
            } => write!(
                f,
                "durable {context} still failing after {attempts} attempts: {source}"
            ),
            StoreError::Poisoned => {
                write!(f, "store is degraded (read-only); re-open it via recover()")
            }
            StoreError::UnknownEpoch { epoch } => write!(
                f,
                "epoch {epoch} has no pending results (not committed here, or already taken)"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. }
            | StoreError::SnapshotFailed { source, .. }
            | StoreError::RetriesExhausted { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Observable health of a durable store. Degradation is sticky: once a
/// durable path fails terminally the store answers reads but refuses
/// commits with [`StoreError::Poisoned`], so a caller can never
/// accumulate unlogged state on a broken disk. Re-open with `recover` to
/// resume.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Health {
    /// All durable paths operational.
    #[default]
    Ok,
    /// A durable path failed terminally; the store is read-only.
    Degraded,
}

/// Bounded retry with exponential backoff for transient durable-path
/// faults. `attempts` counts *total* tries (1 = no retry); `backoff` is
/// the pause after the first failure and doubles per further attempt.
/// Retries consult only the I/O outcome, a public observable, so the
/// policy adds no trace variation on the no-fault path and none beyond
/// the public fault schedule under injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per durable operation (minimum 1).
    pub attempts: u32,
    /// Pause after the first failed attempt; doubles each retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            backoff: Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// No retries: every fault is terminal on first strike.
    pub const fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

/// Is this a fault a retry might plausibly clear? Resource exhaustion,
/// permissions, corruption and missing files are not; a bare EIO (and
/// other uncategorized kinds) may be.
fn transient(e: &io::Error) -> bool {
    !matches!(
        e.kind(),
        io::ErrorKind::StorageFull
            | io::ErrorKind::QuotaExceeded
            | io::ErrorKind::NotFound
            | io::ErrorKind::PermissionDenied
            | io::ErrorKind::InvalidData
            | io::ErrorKind::InvalidInput
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::Unsupported
            | io::ErrorKind::ReadOnlyFilesystem
    )
}

/// Terminal outcome of [`RetryPolicy::run`], before it is given a typed
/// identity by the call site (WAL append vs. snapshot vs. open).
#[derive(Debug)]
pub(crate) struct RetryFailure {
    pub attempts: u32,
    /// True when the fault was transient but the attempt budget ran out
    /// (vs. a permanent fault failing fast).
    pub exhausted: bool,
    pub source: io::Error,
}

impl RetryFailure {
    /// Surface as a WAL/commit-path error.
    pub fn on(self, context: &'static str) -> StoreError {
        if self.exhausted {
            StoreError::RetriesExhausted {
                context,
                attempts: self.attempts,
                source: self.source,
            }
        } else {
            StoreError::Io {
                context,
                source: self.source,
            }
        }
    }

    /// Surface as a snapshot error for `shard`.
    pub fn snapshot(self, shard: usize) -> StoreError {
        StoreError::SnapshotFailed {
            shard,
            source: self.source,
        }
    }
}

impl RetryPolicy {
    /// Run `f`, retrying transient faults up to the attempt budget with
    /// doubling backoff. Permanent faults fail fast.
    pub(crate) fn run<T>(&self, mut f: impl FnMut() -> io::Result<T>) -> Result<T, RetryFailure> {
        let attempts = self.attempts.max(1);
        let mut pause = self.backoff;
        for attempt in 1..=attempts {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if !transient(&e) => {
                    return Err(RetryFailure {
                        attempts: attempt,
                        exhausted: false,
                        source: e,
                    });
                }
                Err(e) if attempt == attempts => {
                    return Err(RetryFailure {
                        attempts,
                        exhausted: true,
                        source: e,
                    });
                }
                Err(_) => {
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                        pause = pause.saturating_mul(2);
                    }
                }
            }
        }
        unreachable!("loop returns on success, permanent fault, or last attempt")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_faults_retry_then_exhaust() {
        let policy = RetryPolicy {
            attempts: 3,
            backoff: Duration::ZERO,
        };
        let mut calls = 0;
        let ok = policy.run(|| {
            calls += 1;
            if calls < 3 {
                Err(io::Error::other("flaky"))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(ok.ok(), Some(3));

        let mut calls = 0;
        let err = policy
            .run(|| -> io::Result<()> {
                calls += 1;
                Err(io::Error::other("always"))
            })
            .unwrap_err();
        assert_eq!(calls, 3);
        assert!(err.exhausted);
        assert!(matches!(
            err.on("wal append"),
            StoreError::RetriesExhausted { attempts: 3, .. }
        ));
    }

    #[test]
    fn permanent_faults_fail_fast() {
        let policy = RetryPolicy::default();
        let mut calls = 0;
        let err = policy
            .run(|| -> io::Result<()> {
                calls += 1;
                Err(io::Error::from_raw_os_error(28)) // ENOSPC
            })
            .unwrap_err();
        assert_eq!(calls, 1, "ENOSPC must not be retried");
        assert!(!err.exhausted);
        assert!(matches!(err.on("wal append"), StoreError::Io { .. }));
    }

    #[test]
    fn error_display_names_the_failing_step() {
        let e = StoreError::Io {
            context: "wal append",
            source: io::Error::other("boom"),
        };
        assert!(e.to_string().contains("wal append"));
        assert!(StoreError::Poisoned.to_string().contains("recover()"));
    }
}
