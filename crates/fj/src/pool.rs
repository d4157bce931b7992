//! Work-stealing thread pool implementing the binary fork-join model.
//!
//! This is the classic Blumofe–Leiserson / Cilk scheduler the paper's cost
//! model assumes (§A.2, [BL99]) and nothing more. Each worker owns a LIFO
//! deque; `join` pushes the second task, runs the first inline, and then
//! either pops the second back (the common, allocation-free fast path) or
//! *runs other work* while a thief finishes it. Jobs from outside
//! ([`Pool::run`], detached tasks) enter through one global FIFO injector.
//! A worker looks in its own deque, then the injector, then the other
//! deques round-robin from its right-hand neighbour, and sleeps on the
//! pool's one condvar when all are empty. The queues are `crossbeam::deque`
//! (in tree: a mutex-guarded `VecDeque` with the same LIFO/FIFO order).
//!
//! With [`PoolConfig::pin`], worker *i* pins itself to core `i % online_cpus`
//! (best effort, see [`crate::topo`]). The scheduler takes no placement
//! advice: which worker runs a job depends on worker indices and queue
//! occupancy only — never on element *values* — so the schedule leaks
//! nothing the fork structure does not (DESIGN.md §12).
//!
//! # Safety
//!
//! Jobs are type-erased pointers into the stack frame of the `join` (or
//! `run`) call that created them ([`StackJob`]). This is sound because the
//! creating frame never returns before the job has executed: `join` keeps
//! running queued work until the job's latch is set (even when the first
//! closure panics), and `run` parks on the latch. Results travel through an
//! `UnsafeCell` guarded by the latch's release/acquire pair. A [`JobRef`] is
//! not `Clone` and is consumed by executing it, so a job pushed to exactly
//! one queue runs exactly once.

use crate::ctx::Ctx;
use crate::task::{Deferred, TaskState};
use crate::topo;
use crossbeam::deque::{Injector, Steal, Stealer, Worker as Deque};
use parking_lot::{Condvar, Mutex};
use std::cell::{Cell, UnsafeCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::thread;
use std::time::{Duration, Instant};

/// A one-shot flag set by the executor of a job. Workers that own the job
/// [`probe`](Latch::probe) it between other jobs; a thread outside the
/// pool names itself as `waiter` and parks until it is set.
struct Latch {
    set: AtomicBool,
    waiter: Option<thread::Thread>,
}

impl Latch {
    #[inline]
    fn probe(&self) -> bool {
        self.set.load(Ordering::Acquire)
    }

    /// # Safety
    ///
    /// `this` must be valid when called. It may dangle as soon as the flag
    /// is stored — the owning frame is then free to return — which is why
    /// this takes a pointer and reads `waiter` first.
    unsafe fn set(this: *const Latch) {
        let waiter = (*this).waiter.clone();
        (*this).set.store(true, Ordering::Release);
        if let Some(thread) = waiter {
            thread.unpark();
        }
    }

    /// Park the calling (non-worker) thread until set. `park` may wake
    /// spuriously, and an `unpark` that comes first is not lost.
    fn wait(&self) {
        while !self.probe() {
            thread::park();
        }
    }
}

/// Type-erased pointer to a job; executing it consumes it.
struct JobRef {
    data: *const (),
    exec: unsafe fn(*const ()),
}

// SAFETY: whoever creates a JobRef promises (`StackJob::as_job_ref`,
// `heap_job`) that the closure behind `data` is `Send` and stays alive until
// the job has executed, so the pointer may be executed on any thread.
unsafe impl Send for JobRef {}

impl JobRef {
    #[inline]
    fn execute(self) {
        // SAFETY: `data` and `exec` were paired by the creator, who keeps
        // `data` alive until this call returns; taking `self` by value (no
        // `Clone`) makes this the only execution.
        unsafe { (self.exec)(self.data) }
    }
}

/// A job living on the stack frame of the `join`/`run` that forked it.
struct StackJob<F, R> {
    f: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<thread::Result<R>>>,
    latch: Latch,
}

impl<F: FnOnce() -> R + Send, R: Send> StackJob<F, R> {
    fn new(f: F, waiter: Option<thread::Thread>) -> Self {
        StackJob {
            f: UnsafeCell::new(Some(f)),
            result: UnsafeCell::new(None),
            latch: Latch {
                set: AtomicBool::new(false),
                waiter,
            },
        }
    }

    /// # Safety
    ///
    /// At most one `JobRef` may be made per job, and `self` must not move
    /// or die before the latch is set.
    unsafe fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: self as *const Self as *const (),
            exec: Self::execute,
        }
    }

    /// # Safety
    ///
    /// `data` must come from [`as_job_ref`](Self::as_job_ref), whose
    /// contract makes this the only access to `f` and `result` until the
    /// latch is set.
    unsafe fn execute(data: *const ()) {
        let this = data as *const Self;
        let f = (*(*this).f.get()).take().expect("job executed twice");
        *(*this).result.get() = Some(panic::catch_unwind(AssertUnwindSafe(f)));
        Latch::set(&(*this).latch);
    }

    /// # Safety
    ///
    /// Only call after the latch has been observed set: the acquire load
    /// orders the executor's write of `result` before this read.
    unsafe fn take_result(&self) -> R {
        match (*self.result.get()).take().expect("job result missing") {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

/// A heap-owned job: a detached task outlives the call that spawned it.
fn heap_job<F: FnOnce() + Send + 'static>(f: F) -> JobRef {
    /// # Safety
    ///
    /// `data` must be the `Box<F>` leaked below, and this its one execution.
    unsafe fn execute<F: FnOnce()>(data: *const ()) {
        Box::from_raw(data as *mut F)()
    }
    JobRef {
        data: Box::into_raw(Box::new(f)) as *const (),
        exec: execute::<F>,
    }
}

/// State shared by the workers of one pool and every handle on it.
struct Registry {
    /// Jobs entering from outside the workers: `run` and detached tasks.
    injector: Injector<JobRef>,
    stealers: Vec<Stealer<JobRef>>,
    /// Guards the sleep/wake protocol (see [`Registry::sleep`]).
    sleep: Mutex<()>,
    wake: Condvar,
    /// Workers inside [`Registry::sleep`].
    idle: AtomicUsize,
    /// Condvar waits in [`Registry::sleep`] so far, and the nanoseconds
    /// spent in them ([`Pool::idle`]).
    waits: AtomicU64,
    asleep_ns: AtomicU64,
    terminate: AtomicBool,
    pin: bool,
    /// Workers whose `sched_setaffinity` actually succeeded (diagnostics).
    pinned_ok: AtomicUsize,
    /// Detached tasks spawned but not yet finished; the owning `Pool`'s drop
    /// waits for zero before terminating the workers (the drop barrier).
    detached: AtomicUsize,
}

impl Registry {
    /// Put the calling worker to sleep until there may be work again. The
    /// sleep/wake protocol — **sleeper:** take the `sleep` lock → `idle += 1`
    /// → re-check every queue → wait on `wake` (releasing the lock);
    /// **producer** ([`notify`](Registry::notify)): push the job → read
    /// `idle` → if non-zero, pass through the lock, then `notify_one`. The
    /// `SeqCst` fences make "write mine, then read theirs" a Dekker pair:
    /// either the re-check sees the job, or the producer sees `idle > 0` —
    /// and then it cannot get the lock before the sleeper is inside `wait`,
    /// so the wake is not lost (notifying after the unlock spares the woken
    /// worker a block on the lock). The 1 ms timeout is only a backstop.
    fn sleep(&self) {
        let mut guard = self.sleep.lock();
        self.idle.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let work = || !self.injector.is_empty() || self.stealers.iter().any(|s| !s.is_empty());
        if !self.terminate.load(Ordering::Acquire) && !work() {
            let start = Instant::now();
            self.wake.wait_for(&mut guard, Duration::from_millis(1));
            let ns = start.elapsed().as_nanos() as u64;
            self.waits.fetch_add(1, Ordering::Relaxed);
            self.asleep_ns.fetch_add(ns, Ordering::Relaxed);
        }
        self.idle.fetch_sub(1, Ordering::SeqCst);
    }

    /// Producer side of the protocol above; call after pushing a job.
    #[inline]
    fn notify(&self) {
        fence(Ordering::SeqCst);
        if self.idle.load(Ordering::SeqCst) > 0 {
            drop(self.sleep.lock());
            self.wake.notify_one();
        }
    }

    /// Queue a job from outside the workers' own deques.
    fn inject(&self, job: JobRef) {
        self.injector.push(job);
        self.notify();
    }
}

/// A worker's own end of the scheduler; lives on `worker_main`'s stack.
struct WorkerThread {
    deque: Deque<JobRef>,
    index: usize,
    registry: Arc<Registry>,
}

thread_local! {
    static WORKER: Cell<*const WorkerThread> = const { Cell::new(std::ptr::null()) };
}

/// Index of the pool worker running the current thread, if any. It keys
/// per-worker resources *outside* the pool (`metrics::ScratchPool`'s lanes).
pub fn current_worker_index() -> Option<usize> {
    WorkerThread::current().map(|wt| wt.index)
}

/// If the calling thread is a pool worker, keep it running queued jobs until
/// `done()`; otherwise return at once. A worker must never block on what a
/// queued job will produce — the job may be queued behind it — so
/// [`Deferred::join`] comes through here before it parks.
pub(crate) fn help_until(done: impl Fn() -> bool) {
    if let Some(wt) = WorkerThread::current() {
        wt.work_until(done, thread::yield_now);
    }
}

/// One steal attempt, retried while the queue reports a lost race.
fn steal_from(steal: impl Fn() -> Steal<JobRef>) -> Option<JobRef> {
    loop {
        match steal() {
            Steal::Success(job) => return Some(job),
            Steal::Empty => return None,
            Steal::Retry => {}
        }
    }
}

impl WorkerThread {
    #[inline]
    fn current<'a>() -> Option<&'a WorkerThread> {
        // SAFETY: non-null only while `worker_main`, whose frame owns the
        // `WorkerThread`, is live further up this very thread's stack (it
        // clears the pointer before returning); no caller keeps the borrow.
        unsafe { WORKER.with(Cell::get).as_ref() }
    }

    /// Next job for this worker: own deque (newest first), then the
    /// injector, then the other workers' deques (oldest first) scanned
    /// round-robin from `index + 1`.
    fn find_work(&self) -> Option<JobRef> {
        let reg = &*self.registry;
        let n = reg.stealers.len();
        self.deque
            .pop()
            .or_else(|| steal_from(|| reg.injector.steal_batch_and_pop(&self.deque)))
            .or_else(|| {
                (1..n)
                    .map(|d| &reg.stealers[(self.index + d) % n])
                    .find_map(|victim| steal_from(|| victim.steal()))
            })
    }

    /// The scheduling loop: execute available jobs until `done()`, calling
    /// `idle` whenever there is none. A worker waiting for one particular
    /// job idles with `yield_now`, giving the core to whoever runs that job.
    fn work_until(&self, done: impl Fn() -> bool, idle: impl Fn()) {
        while !done() {
            match self.find_work() {
                Some(job) => job.execute(),
                None => idle(),
            }
        }
    }
}

fn worker_main(registry: Arc<Registry>, index: usize, deque: Deque<JobRef>) {
    if registry.pin {
        let cpu = index % topo::online_cpus();
        if topo::pin_current_thread(cpu).is_ok() {
            let took_effect = topo::supported() as usize;
            registry.pinned_ok.fetch_add(took_effect, Ordering::SeqCst);
        } else {
            static PIN_WARN: Once = Once::new();
            PIN_WARN.call_once(|| {
                eprintln!(
                    "fj: sched_setaffinity(cpu {cpu}) failed; \
                     continuing with unpinned worker(s) (warned once)"
                );
            });
        }
    }

    let wt = WorkerThread {
        deque,
        index,
        registry,
    };
    WORKER.with(|w| w.set(&wt));

    let reg = &*wt.registry;
    wt.work_until(|| reg.terminate.load(Ordering::Acquire), || reg.sleep());
    WORKER.with(|w| w.set(std::ptr::null()));
}

/// How to build a [`Pool`]; [`PoolConfig::from_env`] reads the `DOB_*` knobs.
#[derive(Clone, Debug, Default)]
pub struct PoolConfig {
    /// Worker count; `None` = machine parallelism.
    pub threads: Option<usize>,
    /// Pin worker *i* to core `i % online_cpus`.
    pub pin: bool,
}

impl PoolConfig {
    /// Read the environment knobs:
    ///
    /// * `DOB_THREADS=<n>` — worker count (CI runs a thread matrix).
    /// * `DOB_PIN=1|0` — pin workers to cores / leave them unpinned.
    pub fn from_env() -> Self {
        let threads = std::env::var("DOB_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n: &usize| n >= 1);
        let pin = std::env::var("DOB_PIN").is_ok_and(|v| v != "0");
        PoolConfig { threads, pin }
    }
}

/// Idle time of a pool's workers ([`Pool::idle`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Idle {
    /// Waits on the pool's condvar: each ends at a wake-up or at the 1 ms
    /// timeout.
    pub waits: u64,
    /// Nanoseconds spent in those waits.
    pub asleep_ns: u64,
}

/// A binary fork-join thread pool scheduled by work stealing.
///
/// `Pool` implements [`Ctx`], so any algorithm written against the context
/// abstraction runs in parallel by passing `&pool`:
///
/// ```
/// use fj::{Ctx, Pool};
///
/// let pool = Pool::new(4);
/// let (a, b) = pool.join(|_| 1 + 1, |_| 2 + 2);
/// assert_eq!((a, b), (2, 4));
/// ```
pub struct Pool {
    registry: Arc<Registry>,
    /// The workers, held by the pool that spawned them. Empty on the
    /// non-owning handles detached tasks run with, whose drop does nothing.
    handles: Vec<thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawn an unpinned pool with `nthreads` workers (at least 1).
    pub fn new(nthreads: usize) -> Self {
        Pool::with_config(PoolConfig {
            threads: Some(nthreads),
            pin: false,
        })
    }

    /// Spawn a pool of `nthreads` workers with worker *i* pinned to core
    /// `i % online_cpus` (best effort; see [`crate::topo`]).
    pub fn pinned(nthreads: usize) -> Self {
        Pool::with_config(PoolConfig {
            threads: Some(nthreads),
            pin: true,
        })
    }

    /// Spawn a pool from an explicit [`PoolConfig`].
    pub fn with_config(cfg: PoolConfig) -> Self {
        let nthreads = cfg.threads.unwrap_or_else(topo::online_cpus).max(1);
        let deques: Vec<Deque<JobRef>> = (0..nthreads).map(|_| Deque::new_lifo()).collect();
        let registry = Arc::new(Registry {
            injector: Injector::new(),
            stealers: deques.iter().map(|d| d.stealer()).collect(),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            idle: AtomicUsize::new(0),
            waits: AtomicU64::new(0),
            asleep_ns: AtomicU64::new(0),
            terminate: AtomicBool::new(false),
            pin: cfg.pin,
            pinned_ok: AtomicUsize::new(0),
            detached: AtomicUsize::new(0),
        });
        let handles = deques
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                let reg = Arc::clone(&registry);
                thread::Builder::new()
                    .name(format!("fj-worker-{i}"))
                    .spawn(move || worker_main(reg, i, d))
                    .expect("failed to spawn fj worker")
            })
            .collect();
        Pool { registry, handles }
    }

    /// A non-owning handle on the same registry: detached tasks receive
    /// one as their `&Pool` context, so joins nested inside the task find
    /// their worker ([`current_worker`](Pool::current_worker) compares
    /// registries). Dropping a handle never terminates the workers.
    fn handle(&self) -> Pool {
        Pool {
            registry: Arc::clone(&self.registry),
            handles: Vec::new(),
        }
    }

    /// A pool configured by the environment ([`PoolConfig::from_env`]):
    /// `DOB_THREADS` sizes it, `DOB_PIN` turns core pinning on; unset means
    /// `available_parallelism` workers, unpinned.
    pub fn with_default_threads() -> Self {
        Pool::with_config(PoolConfig::from_env())
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.registry.stealers.len()
    }

    /// Whether this pool was configured to pin its workers.
    pub fn is_pinned(&self) -> bool {
        self.registry.pin
    }

    /// Workers whose pin actually took effect (0 on unsupported platforms
    /// or after graceful degradation).
    pub fn pinned_workers(&self) -> usize {
        self.registry.pinned_ok.load(Ordering::SeqCst)
    }

    /// How long the workers have slept for want of work since the pool was
    /// built, summed over them: the condvar waits of the idle protocol
    /// and the time spent in them (diagnostics). Both only grow.
    pub fn idle(&self) -> Idle {
        Idle {
            waits: self.registry.waits.load(Ordering::Relaxed),
            asleep_ns: self.registry.asleep_ns.load(Ordering::Relaxed),
        }
    }

    /// The calling thread's worker, if it is a worker of *this* pool.
    #[inline]
    fn current_worker(&self) -> Option<&WorkerThread> {
        WorkerThread::current().filter(|wt| Arc::ptr_eq(&wt.registry, &self.registry))
    }

    /// Run `f` on a pool worker, blocking the calling thread until done.
    /// If already on a worker of this pool, runs inline.
    pub fn run<R: Send>(&self, f: impl FnOnce(&Pool) -> R + Send) -> R {
        if self.current_worker().is_some() {
            return f(self);
        }
        let job = StackJob::new(|| f(self), Some(thread::current()));
        // SAFETY: the one JobRef goes into one queue, and this frame parks
        // on the latch below, so the job outlives its execution.
        self.registry.inject(unsafe { job.as_job_ref() });
        job.latch.wait();
        // SAFETY: `wait` returned, so the latch is set.
        unsafe { job.take_result() }
    }
}

impl Ctx for Pool {
    fn join<RA: Send, RB: Send>(
        &self,
        a: impl FnOnce(&Self) -> RA + Send,
        b: impl FnOnce(&Self) -> RB + Send,
    ) -> (RA, RB) {
        let Some(wt) = self.current_worker() else {
            // Calls from outside the pool enter it first; the nested join
            // then lands on a worker and takes the parallel path.
            return self.run(move |p| p.join(a, b));
        };
        let job_b = StackJob::new(|| b(self), None);
        // SAFETY: the one JobRef goes into one queue, and this frame does
        // not return before job_b has run: `work_until` below is reached
        // even when `a` panics, and only returns once the latch is set.
        wt.deque.push(unsafe { job_b.as_job_ref() });
        self.registry.notify();

        let ra = panic::catch_unwind(AssertUnwindSafe(|| a(self)));

        // job_b is still in our deque (popped back and run here) or was
        // stolen; either way, stay useful until its latch is set.
        wt.work_until(|| job_b.latch.probe(), thread::yield_now);

        // SAFETY: `work_until` returned, so the latch is set.
        let rb = unsafe { job_b.take_result() };
        match ra {
            Ok(ra) => (ra, rb),
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Queue `f` for the workers and return immediately. The task runs
    /// with a non-owning pool handle as its context, so it can fork
    /// freely; its panic (if any) is captured into the [`Deferred`] and
    /// re-raised at join.
    fn spawn_detached<R, F>(&self, f: F) -> Deferred<R>
    where
        R: Send + 'static,
        F: FnOnce(&Self) -> R + Send + 'static,
    {
        let state = Arc::new(TaskState::new());
        let task_state = Arc::clone(&state);
        let ctx = self.handle();
        self.registry.detached.fetch_add(1, Ordering::SeqCst);
        self.registry.inject(heap_job(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(&ctx)));
            // Publish the result before releasing the drop barrier: once
            // `detached` hits zero the owner may tear the pool down, and
            // joiners must already be able to observe completion.
            task_state.complete(result);
            ctx.registry.detached.fetch_sub(1, Ordering::SeqCst);
        }));
        Deferred::from_task(state)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        // Drop barrier: every spawned-but-unfinished detached task runs to
        // completion before workers terminate, so an unjoined task is never
        // silently dropped and a `Deferred` held past the pool's life joins
        // a completed slot. Durable stores lean on this: `PipelinedStore`
        // appends an epoch's WAL record *before* it spawns the detached
        // commit, and the barrier completes that merge on a graceful drop
        // (see `tests/durability.rs`).
        while self.registry.detached.load(Ordering::SeqCst) > 0 {
            thread::yield_now();
        }
        self.registry.terminate.store(true, Ordering::Release);
        // As in `notify`: past the lock, no sleeper is between its
        // `terminate` check and its wait when the broadcast goes out.
        drop(self.registry.sleep.lock());
        self.registry.wake.notify_all();
        for h in self.handles.drain(..) {
            // Workers only run catch-all jobs, so they do not panic.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::par_for;
    use std::sync::atomic::AtomicU64;

    fn fib(c: &Pool, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        if n < 12 {
            return fib_seq(n);
        }
        let (a, b) = c.join(|c| fib(c, n - 1), |c| fib(c, n - 2));
        a + b
    }

    fn fib_seq(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            fib_seq(n - 1) + fib_seq(n - 2)
        }
    }

    #[test]
    fn join_from_external_thread() {
        let pool = Pool::new(4);
        let (a, b) = pool.join(|_| 21, |_| 2);
        assert_eq!(a * b, 42);
    }

    #[test]
    fn nested_parallel_fib() {
        let pool = Pool::new(4);
        assert_eq!(fib(&pool, 24), fib_seq(24));
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = Pool::new(1);
        assert_eq!(fib(&pool, 18), fib_seq(18));
    }

    #[test]
    fn pinned_pool_computes_correctly() {
        let pool = Pool::pinned(4);
        assert!(pool.is_pinned());
        assert_eq!(fib(&pool, 22), fib_seq(22));
        // Pinning is best-effort: on linux we normally expect success, but
        // a restrictive cpuset may legally leave workers unpinned.
        assert!(pool.pinned_workers() <= 4);
    }

    #[test]
    fn idle_workers_count_their_waits() {
        // Workers with nothing to do go to sleep at once and wake at least
        // every millisecond.
        let pool = Pool::new(2);
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut last = pool.idle();
        while last.waits == 0 {
            assert!(Instant::now() < deadline, "no worker slept");
            thread::sleep(Duration::from_millis(1));
            last = pool.idle();
        }
        for _ in 0..50 {
            assert_eq!(fib(&pool, 14), fib_seq(14));
            let now = pool.idle();
            assert!(now.waits >= last.waits && now.asleep_ns >= last.asleep_ns);
            last = now;
        }
        assert!(last.asleep_ns > 0);
    }

    #[test]
    fn current_worker_index_inside_and_outside() {
        assert_eq!(current_worker_index(), None);
        let pool = Pool::new(3);
        let idx = pool.run(|_| current_worker_index());
        assert!(matches!(idx, Some(i) if i < 3));
    }

    #[test]
    fn par_for_covers_every_index_once() {
        let pool = Pool::new(8);
        let n = 100_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.run(|p| {
            par_for(p, 0, n, 64, &|_, i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_returns_value() {
        let pool = Pool::new(2);
        let v = pool.run(|_| vec![1, 2, 3]);
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn panic_in_first_closure_propagates_after_b_completes() {
        let pool = Pool::new(4);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.join(
                |_| panic!("boom-a"),
                |_| std::thread::sleep(Duration::from_millis(5)),
            )
        }));
        assert!(result.is_err());
    }

    #[test]
    fn panic_in_second_closure_propagates() {
        let pool = Pool::new(4);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.join(|_| 1, |_| -> i32 { panic!("boom-b") })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn many_pools_spawn_and_drop() {
        for _ in 0..8 {
            let pool = Pool::new(2);
            assert_eq!(pool.join(|_| 1, |_| 2), (1, 2));
        }
    }

    #[test]
    fn spawn_detached_runs_and_joins() {
        let pool = Pool::new(2);
        let d = pool.spawn_detached(|c| fib(c, 20));
        // The spawner is free to do other work while the task runs.
        let inline = fib_seq(20);
        assert_eq!(d.join(), inline);
    }

    #[test]
    fn spawn_detached_panic_surfaces_at_join() {
        let pool = Pool::new(2);
        let d = pool.spawn_detached(|_| -> u64 { panic!("detached boom") });
        assert!(panic::catch_unwind(AssertUnwindSafe(|| d.join())).is_err());
        // The pool is still usable afterwards.
        assert_eq!(pool.join(|_| 1, |_| 2), (1, 2));
    }

    #[test]
    fn detached_task_can_fork_on_its_handle() {
        let pool = Pool::new(4);
        let d = pool.spawn_detached(|c| {
            let (a, b) = c.join(|c| fib(c, 18), |c| fib(c, 16));
            a + b
        });
        assert_eq!(d.join(), fib_seq(18) + fib_seq(16));
    }

    #[test]
    fn drop_barrier_finishes_unjoined_tasks() {
        let hits = Arc::new(AtomicU64::new(0));
        let d = {
            let pool = Pool::new(2);
            let hits = Arc::clone(&hits);
            let d = pool.spawn_detached(move |_| {
                thread::sleep(Duration::from_millis(10));
                hits.fetch_add(1, Ordering::SeqCst);
                7u64
            });
            // `pool` drops here with the task possibly still queued; drop
            // must wait for it rather than abandon it.
            d
        };
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(d.is_done());
        assert_eq!(d.join(), 7);
    }

    #[test]
    fn is_done_eventually_flips_without_joining() {
        let pool = Pool::new(1);
        let d = pool.spawn_detached(|_| 1u64);
        for _ in 0..10_000 {
            if d.is_done() {
                break;
            }
            thread::yield_now();
        }
        assert_eq!(d.join(), 1);
    }

    /// Run `f` on its own thread and fail (rather than hang the suite) if
    /// it has not returned after `secs` seconds.
    fn within<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (tx, rx) = channel();
        let runner = thread::spawn(move || tx.send(f()));
        match rx.recv_timeout(Duration::from_secs(secs)) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => panic!("deadlock: the pool made no progress"),
            // `f` panicked and dropped the sender: re-raise its panic.
            Err(RecvTimeoutError::Disconnected) => panic::resume_unwind(runner.join().unwrap_err()),
        }
    }

    #[test]
    fn deferred_join_on_the_only_worker_runs_the_task() {
        // The detached task is queued behind the very job that joins it;
        // the worker has to run it itself.
        let v = within(20, || {
            Pool::new(1).run(|c| c.spawn_detached(|_| 7u64).join())
        });
        assert_eq!(v, 7);
    }

    #[test]
    fn every_worker_joining_its_own_detached_task_makes_progress() {
        // The barrier holds both arms until each occupies one of the two
        // workers, so both tasks are spawned and joined with no idle
        // worker left to run them.
        let v = within(20, || {
            let both_busy = std::sync::Barrier::new(2);
            let arm = |c: &Pool, x: u64| {
                both_busy.wait();
                c.spawn_detached(move |_| x).join()
            };
            Pool::new(2).join(|c| arm(c, 1), |c| arm(c, 2))
        });
        assert_eq!(v, (1, 2));
    }

    #[test]
    fn external_runs_do_not_wait_out_the_sleep_timeout() {
        // Each `run` finds both workers asleep. A wake-up lost to the
        // sleep/wake race would cost the 1 ms timeout per call (≥ 2 s in
        // total); a delivered one costs tens of microseconds.
        let pool = Pool::new(2);
        let start = std::time::Instant::now();
        for _ in 0..2000 {
            pool.run(|_| ());
        }
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "2000 runs took {took:?}");
    }

    #[test]
    fn seq_ctx_spawn_detached_resolves_inline() {
        let c = crate::SeqCtx::new();
        let d = c.spawn_detached(|_| 6 * 7);
        assert!(d.is_done());
        assert_eq!(d.join(), 42);
    }

    #[test]
    fn dob_env_knobs_shape_the_default_pool() {
        // One test body for all cases: env mutation is process-global and
        // must not race a parallel test.
        std::env::set_var("DOB_THREADS", "3");
        assert_eq!(Pool::with_default_threads().num_threads(), 3);
        std::env::set_var("DOB_THREADS", "not-a-number");
        let fallback = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(Pool::with_default_threads().num_threads(), fallback);
        std::env::remove_var("DOB_THREADS");
        assert_eq!(Pool::with_default_threads().num_threads(), fallback);

        // DOB_PIN turns pinning on; DOB_PIN=0 leaves it off.
        std::env::set_var("DOB_THREADS", "2");
        std::env::set_var("DOB_PIN", "1");
        let p = Pool::with_default_threads();
        assert!(p.is_pinned());
        assert_eq!(p.join(|_| 2, |_| 3), (2, 3));
        drop(p);

        std::env::set_var("DOB_PIN", "0");
        assert!(!Pool::with_default_threads().is_pinned());

        std::env::remove_var("DOB_PIN");
        assert!(!Pool::with_default_threads().is_pinned());
        std::env::remove_var("DOB_THREADS");
    }
}
