//! Detached tasks: the handle half of [`Ctx::spawn_detached`].
//!
//! A [`Deferred`] is a one-shot future for a task that was handed to an
//! executor and left to run on its own — the spawning frame returns
//! immediately and joins later (or never: dropping a `Deferred` abandons
//! the *result*, not the task). The epoch pipeline in `dob-store` uses
//! this to run a merge in the background while the caller keeps
//! submitting ops; sequential and metered executors resolve the task
//! inline at spawn time, so the same caller code is executable (and
//! meterable) on every [`Ctx`].
//!
//! Unlike the pool's stack jobs, a detached task owns its closure on the
//! heap: its lifetime is decoupled from the spawning frame, so the
//! closure and result must be `'static`.
//!
//! [`Ctx::spawn_detached`]: crate::Ctx::spawn_detached

use parking_lot::{Condvar, Mutex};
use std::panic;
use std::sync::Arc;
use std::thread;

/// Shared completion slot between a running detached task and its
/// [`Deferred`] handle: a mutex-guarded `(done, result)` pair plus a
/// condvar for blocking joins from non-worker threads (pool workers keep
/// executing queued jobs instead, see [`crate::pool::help_until`]).
pub(crate) struct TaskState<R> {
    slot: Mutex<(bool, Option<thread::Result<R>>)>,
    cv: Condvar,
}

impl<R> TaskState<R> {
    pub(crate) fn new() -> Self {
        TaskState {
            slot: Mutex::new((false, None)),
            cv: Condvar::new(),
        }
    }

    /// Publish the task's outcome and wake every blocked joiner.
    pub(crate) fn complete(&self, r: thread::Result<R>) {
        let mut g = self.slot.lock();
        g.0 = true;
        g.1 = Some(r);
        self.cv.notify_all();
    }

    fn probe(&self) -> bool {
        self.slot.lock().0
    }

    fn take_blocking(&self) -> thread::Result<R> {
        // A pool worker must not park here: the task may be queued behind
        // the job it is running. It runs queued jobs until the slot is
        // done; any other thread falls straight through to the condvar.
        crate::pool::help_until(|| self.probe());
        let mut g = self.slot.lock();
        while !g.0 {
            self.cv.wait(&mut g);
        }
        g.1.take().expect("detached task result taken twice")
    }
}

enum Inner<R> {
    /// Resolved at spawn time (sequential/metered executors, or
    /// [`Deferred::ready`]).
    Ready(Option<thread::Result<R>>),
    /// Running (or queued) on a pool; resolved through the shared slot.
    Task(Arc<TaskState<R>>),
}

/// Handle to a detached task spawned with
/// [`Ctx::spawn_detached`](crate::Ctx::spawn_detached).
///
/// [`join`](Deferred::join) blocks until the task finishes and returns its
/// result, re-raising the task's panic if it had one.
/// [`is_done`](Deferred::is_done) is a non-blocking readiness probe — the epoch
/// pipeline uses it to decide (on public information only) whether a
/// handoff would block. Dropping a `Deferred` without joining abandons
/// the result; the task itself still runs to completion.
#[must_use = "a detached task's panic is only observed by joining it"]
pub struct Deferred<R>(Inner<R>);

impl<R> Deferred<R> {
    /// An already-resolved handle. Executors without background workers
    /// run the task inline at spawn time and wrap its outcome with this.
    pub fn ready(r: R) -> Self {
        Deferred(Inner::Ready(Some(Ok(r))))
    }

    /// Like [`ready`](Deferred::ready) but for a task that panicked
    /// inline; the payload re-raises at [`join`](Deferred::join).
    pub(crate) fn ready_result(r: thread::Result<R>) -> Self {
        Deferred(Inner::Ready(Some(r)))
    }

    pub(crate) fn from_task(state: Arc<TaskState<R>>) -> Self {
        Deferred(Inner::Task(state))
    }

    /// True once the task has finished (successfully or by panicking) and
    /// [`join`](Deferred::join) would not block. Inline-resolved handles
    /// are always done.
    pub fn is_done(&self) -> bool {
        match &self.0 {
            Inner::Ready(_) => true,
            Inner::Task(t) => t.probe(),
        }
    }

    /// Block until the task finishes and return its result, re-raising
    /// the task's panic if it had one.
    pub fn join(self) -> R {
        match self.try_join() {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Block until the task finishes and return its outcome, handing a
    /// panicking task's payload back as `Err` instead of re-raising it.
    /// This is the error-propagation half of the detached-task contract:
    /// a caller that owns state travelling through the task (the epoch
    /// pipeline's store) can observe the failure, mark itself poisoned,
    /// and surface a typed error instead of unwinding through the join.
    pub fn try_join(self) -> thread::Result<R> {
        match self.0 {
            Inner::Ready(r) => r.expect("detached task result taken twice"),
            Inner::Task(t) => t.take_blocking(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn ready_handle_is_done_and_joins() {
        let d = Deferred::ready(41 + 1);
        assert!(d.is_done());
        assert_eq!(d.join(), 42);
    }

    #[test]
    fn inline_panic_reraises_at_join_not_spawn() {
        let r: thread::Result<()> =
            panic::catch_unwind(AssertUnwindSafe(|| panic!("deferred boom")));
        let d = Deferred::ready_result(r);
        assert!(d.is_done());
        assert!(panic::catch_unwind(AssertUnwindSafe(|| d.join())).is_err());
    }

    #[test]
    fn try_join_surfaces_the_panic_payload_without_unwinding() {
        let r: thread::Result<u32> = panic::catch_unwind(AssertUnwindSafe(|| panic!("typed boom")));
        let d = Deferred::ready_result(r);
        let payload = d.try_join().expect_err("panic must surface as Err");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"typed boom"));
        assert_eq!(Deferred::ready(9).try_join().ok(), Some(9));
    }

    #[test]
    fn task_state_completes_across_threads() {
        let state = Arc::new(TaskState::new());
        let d: Deferred<u64> = Deferred::from_task(Arc::clone(&state));
        assert!(!d.is_done());
        let t = thread::spawn(move || state.complete(Ok(7)));
        assert_eq!(d.join(), 7);
        t.join().unwrap();
    }
}
