//! # apex-par — bounded work-stealing job pool for DSE sweeps
//!
//! APEX's evaluation is a grid of (PE variant × application) runs, and
//! several inner stages (mining per application, rewrite-rule synthesis
//! per template) are embarrassingly parallel too. This crate is the
//! workspace's one scheduler for all of them:
//!
//! * **bounded** — at most `jobs` worker threads, never one thread per
//!   item (the pre-pool synthesis code spawned a thread per template and
//!   oversubscribed the machine on large applications), and a `par_map`
//!   nested inside a job runs inline rather than multiplying the workers;
//! * **work-stealing** — each worker owns a contiguous slice of the item
//!   range and, when it runs dry, steals the far half of the largest
//!   remaining slice (lazy binary splitting), so a few slow items cannot
//!   strand the rest of the pool;
//! * **deterministic** — results come back in input order regardless of
//!   which worker ran which item, so a parallel sweep is bit-identical to
//!   the serial one;
//! * **no-panic** — a panicking job is caught in the worker and surfaces
//!   as a [`JobPanic`] value for that item only; the pool itself never
//!   unwinds (PR 2's unattended-operation policy).
//!
//! Built on `std::thread::scope` only — no registry dependencies, matching
//! the workspace's in-tree shim policy.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use apex_fault::{ApexError, Stage};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A job panicked inside the pool; carries the stringified panic payload.
///
/// Converted into [`ApexError`] (with this value on the cause chain) at
/// the stage boundary via [`JobPanic::into_apex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the item whose job panicked.
    pub index: usize,
    /// The panic payload, downcast to a string where possible.
    pub payload: String,
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.payload)
    }
}

impl std::error::Error for JobPanic {}

impl JobPanic {
    /// Funnels the panic into the workspace error hierarchy, attributing
    /// it to the stage whose job panicked.
    pub fn into_apex(self, stage: Stage) -> ApexError {
        ApexError::with_source(stage, self)
    }
}

fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Process-wide worker-count override installed by [`set_jobs`]
/// (0 = no override).
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs a process-wide worker-count override consulted by
/// [`default_jobs`] before the environment; `0` clears it back to
/// automatic selection. This is where a CLI `--jobs N` flag lands so every
/// pooled stage (mining, rule synthesis, the evaluation sweep) honours it.
pub fn set_jobs(jobs: usize) {
    JOBS_OVERRIDE.store(jobs, Ordering::Relaxed);
}

/// The number of workers to use when the caller does not specify one: the
/// [`set_jobs`] override if installed, then `APEX_JOBS` if set to a
/// positive integer, otherwise the machine's available parallelism,
/// otherwise 1.
pub fn default_jobs() -> usize {
    let forced = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if forced >= 1 {
        return forced;
    }
    if let Ok(v) = std::env::var("APEX_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

thread_local! {
    /// Set on the threads [`par_map`] spawns: a `par_map` called from one
    /// of its jobs runs inline, so nested fan-out (mining inside a variant
    /// build inside a report warm-up) never exceeds the outer `jobs`.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// One worker's share of the item range, packed `next << 32 | end` so the
/// owner (popping from the front) and thieves (halving from the back) can
/// race over it with plain compare-exchange loops.
struct Range(AtomicU64);

const fn pack(next: u32, end: u32) -> u64 {
    ((next as u64) << 32) | end as u64
}

const fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, (v & 0xFFFF_FFFF) as u32)
}

impl Range {
    fn new(start: usize, end: usize) -> Self {
        Range(AtomicU64::new(pack(start as u32, end as u32)))
    }

    /// Owner side: claim the front item of the range.
    fn pop_front(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (next, end) = unpack(cur);
            if next >= end {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(next + 1, end),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(next as usize),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Thief side: split off the far half of the range, returning the
    /// stolen sub-range.
    fn steal_half(&self) -> Option<(usize, usize)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (next, end) = unpack(cur);
            if next >= end {
                return None;
            }
            let keep = next + (end - next).div_ceil(2);
            if keep >= end {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(next, keep),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((keep as usize, end as usize)),
                Err(seen) => cur = seen,
            }
        }
    }

    fn remaining(&self) -> usize {
        let (next, end) = unpack(self.0.load(Ordering::Acquire));
        end.saturating_sub(next) as usize
    }
}

/// Maps `f` over `items` on at most `jobs` worker threads, returning the
/// results **in input order**. `f` receives `(index, &item)`.
///
/// A job that panics yields `Err(JobPanic)` for its slot; every other item
/// still completes. With `jobs <= 1` (or one item), or when called from a
/// job of another `par_map`, everything runs inline on the caller's thread
/// with identical semantics — the serial and parallel paths are the same
/// code, which is what makes "parallel output is bit-identical to serial"
/// a structural property rather than a test hope.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<Result<R, JobPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let run_one = |i: usize| -> Result<R, JobPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))).map_err(|p| JobPanic {
            index: i,
            payload: payload_string(p),
        })
    };
    let workers = jobs.max(1).min(n.max(1));
    if workers <= 1 || n <= 1 || IN_WORKER.with(std::cell::Cell::get) {
        return (0..n).map(run_one).collect();
    }

    // block-distribute the range; idle workers rebalance by stealing
    let ranges: Vec<Range> = (0..workers)
        .map(|w| Range::new(w * n / workers, (w + 1) * n / workers))
        .collect();
    let mut buckets: Vec<Vec<(usize, Result<R, JobPanic>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let ranges = &ranges;
                let run_one = &run_one;
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    let mut out: Vec<(usize, Result<R, JobPanic>)> = Vec::new();
                    loop {
                        // drain our own range from the front
                        while let Some(i) = ranges[w].pop_front() {
                            out.push((i, run_one(i)));
                        }
                        // steal the far half of the largest remaining range
                        let victim = (0..ranges.len())
                            .filter(|&v| v != w)
                            .max_by_key(|&v| ranges[v].remaining())
                            .filter(|&v| ranges[v].remaining() > 0);
                        let Some(v) = victim else { break };
                        if let Some((s, e)) = ranges[v].steal_half() {
                            for i in s..e {
                                out.push((i, run_one(i)));
                            }
                        }
                        // a failed steal (someone else got there first) just
                        // loops back to look for the next victim
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // the worker body only runs caught closures; an unwind here
                // is impossible, but the no-panic policy forbids expect()
                h.join().unwrap_or_default()
            })
            .collect()
    });

    // reassemble in input order
    let mut slots: Vec<Option<Result<R, JobPanic>>> = (0..n).map(|_| None).collect();
    for bucket in buckets.drain(..) {
        for (i, r) in bucket {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.unwrap_or(Err(JobPanic {
                index: i,
                payload: "worker thread died before returning its results".to_owned(),
            }))
        })
        .collect()
}

/// [`par_map`] with panics funneled straight into [`ApexError`] for the
/// given stage — the form stage crates use to honour the no-panic policy.
pub fn par_map_stage<T, R, F>(
    jobs: usize,
    stage: Stage,
    items: &[T],
    f: F,
) -> Vec<Result<R, ApexError>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map(jobs, items, f)
        .into_iter()
        .map(|r| r.map_err(|p| p.into_apex(stage)))
        .collect()
}

/// Default watchdog poll period: how often active jobs are inspected for
/// deadline overruns and pending interrupts. This is the "time-slice" in
/// the no-hang guarantee: a hung job is cancelled within its deadline
/// plus one slice.
pub const DEFAULT_TIME_SLICE: Duration = Duration::from_millis(20);

/// Supervision policy for [`par_map_supervised`].
#[derive(Debug, Clone, Default)]
pub struct WatchdogOptions {
    /// Per-job wall-clock deadline. A job running longer gets its
    /// [`JobCtx`] cancel flag raised (cooperative — the job observes it
    /// through the stage budgets it fans the flag into) and is marked
    /// timed-out.
    pub job_deadline: Option<Duration>,
    /// Sweep-wide interrupt (Ctrl-C). When it reads `true`, every active
    /// job's cancel flag is raised and jobs that start afterwards begin
    /// pre-cancelled, so the pool drains instead of hanging.
    pub interrupt: Option<Arc<AtomicBool>>,
    /// Watchdog poll period; `Duration::ZERO` selects
    /// [`DEFAULT_TIME_SLICE`].
    pub poll: Duration,
}

impl WatchdogOptions {
    /// Whether any supervision is configured at all.
    fn is_active(&self) -> bool {
        self.job_deadline.is_some() || self.interrupt.is_some()
    }
}

/// Per-job supervision handles handed to a [`par_map_supervised`] job.
#[derive(Debug)]
pub struct JobCtx {
    /// Cooperative cancellation flag: raised by the watchdog on deadline
    /// overrun or sweep interrupt. Fan it into every
    /// `StageBudget::with_cancel` the job creates.
    pub cancel: Arc<AtomicBool>,
    timed_out: Arc<AtomicBool>,
}

impl JobCtx {
    /// A context with no supervision attached (inline callers, tests).
    pub fn detached() -> Self {
        JobCtx {
            cancel: Arc::new(AtomicBool::new(false)),
            timed_out: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Whether the watchdog cancelled this job for exceeding its deadline
    /// (as opposed to a sweep-wide interrupt).
    pub fn timed_out(&self) -> bool {
        self.timed_out.load(Ordering::Relaxed)
    }

    /// Whether cancellation (deadline or interrupt) has been requested.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

/// One registry slot per in-flight job, inspected by the watchdog.
struct ActiveJob {
    started: Instant,
    cancel: Arc<AtomicBool>,
    timed_out: Arc<AtomicBool>,
}

/// Clears a job's registry slot even if the job panics (the unwind is
/// caught by `par_map`'s `catch_unwind`, which would otherwise leave a
/// stale slot for the watchdog to keep poking).
struct SlotGuard<'a> {
    registry: &'a Mutex<Vec<Option<ActiveJob>>>,
    index: usize,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        if let Ok(mut slots) = self.registry.lock() {
            slots[self.index] = None;
        }
    }
}

/// [`par_map`] with per-job watchdog supervision: each job receives a
/// [`JobCtx`] whose cancel flag the watchdog raises when the job exceeds
/// `watch.job_deadline` or the sweep-wide `watch.interrupt` flag is set.
///
/// Cancellation is cooperative — the job must fan `ctx.cancel` into its
/// stage budgets (or poll [`JobCtx::cancelled`]) — so results remain
/// deterministic: an unsupervised run and a supervised run whose watchdog
/// never fires execute identical code. Results come back in input order,
/// and panics surface as [`JobPanic`] per item, exactly like [`par_map`].
pub fn par_map_supervised<T, R, F>(
    jobs: usize,
    items: &[T],
    watch: &WatchdogOptions,
    f: F,
) -> Vec<Result<R, JobPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &JobCtx) -> R + Sync,
{
    if !watch.is_active() {
        let f = &f;
        return par_map(jobs, items, move |i, item| f(i, item, &JobCtx::detached()));
    }
    let poll = if watch.poll.is_zero() {
        DEFAULT_TIME_SLICE
    } else {
        watch.poll
    };
    let registry: Mutex<Vec<Option<ActiveJob>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let watchdog = scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                let interrupted = watch
                    .interrupt
                    .as_ref()
                    .is_some_and(|g| g.load(Ordering::Relaxed));
                if let Ok(slots) = registry.lock() {
                    for slot in slots.iter().flatten() {
                        if interrupted {
                            slot.cancel.store(true, Ordering::Relaxed);
                        }
                        if let Some(deadline) = watch.job_deadline {
                            if slot.started.elapsed() >= deadline {
                                slot.timed_out.store(true, Ordering::Relaxed);
                                slot.cancel.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                }
                std::thread::park_timeout(poll);
            }
        });
        let out = par_map(jobs, items, |i, item| {
            let ctx = JobCtx::detached();
            if watch
                .interrupt
                .as_ref()
                .is_some_and(|g| g.load(Ordering::Relaxed))
            {
                // dispatched after the interrupt: start pre-cancelled so
                // the job's first budget check drains it immediately
                ctx.cancel.store(true, Ordering::Relaxed);
            }
            if let Ok(mut slots) = registry.lock() {
                slots[i] = Some(ActiveJob {
                    started: Instant::now(),
                    cancel: Arc::clone(&ctx.cancel),
                    timed_out: Arc::clone(&ctx.timed_out),
                });
            }
            let _guard = SlotGuard {
                registry: &registry,
                index: i,
            };
            f(i, item, &ctx)
        });
        done.store(true, Ordering::Release);
        watchdog.thread().unpark();
        // the watchdog body cannot panic; join failure would only repeat one
        let _ = watchdog.join();
        out
    })
}

// ---------------------------------------------------------------------------
// persistent worker pool (long-running services)
// ---------------------------------------------------------------------------

/// A long-lived, bounded-worker job pool for daemon-style callers
/// (`apex serve`): jobs are boxed closures pushed onto one FIFO queue and
/// drained by a fixed set of named worker threads.
///
/// Unlike [`par_map`] — which is scoped to one batch and returns results in
/// input order — this pool runs until [`WorkerPool::shutdown`], and makes
/// its **queue depth and active-job count observable** so an admission
/// layer can shed load *before* enqueueing (backpressure) instead of
/// letting the queue grow without bound. The pool itself never rejects a
/// job: bounding admission is the caller's policy, measured through
/// [`WorkerPool::queued`].
///
/// Panicking jobs are caught per-job (the worker survives and keeps
/// draining), matching the workspace no-panic policy.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

type PoolJob = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<std::collections::VecDeque<PoolJob>>,
    wake: std::sync::Condvar,
    active: AtomicUsize,
    /// `true` once shutdown begins: workers exit instead of sleeping, and
    /// whether they first drain the queue depends on the shutdown mode.
    shutdown: AtomicBool,
    /// `true` when shutdown should abandon queued jobs (graceful drain of
    /// a crash-safe service: queued work is journaled and re-run on
    /// resume, so finishing it here would only delay the exit).
    abandon_queue: AtomicBool,
    panicked: AtomicU64,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("queued", &self.queued())
            .field("active", &self.active())
            .finish()
    }
}

impl WorkerPool {
    /// A pool with `workers` threads (at least 1), named `apex-pool-N`.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(std::collections::VecDeque::new()),
            wake: std::sync::Condvar::new(),
            active: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            abandon_queue: AtomicBool::new(false),
            panicked: AtomicU64::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("apex-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // thread spawn only fails on resource exhaustion; a
                    // pool with fewer workers still drains its queue
                    .unwrap_or_else(|_| std::thread::spawn(|| {}))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Enqueues one job. Returns `false` (dropping the job) once shutdown
    /// has begun — the admission layer should have stopped submitting by
    /// then, but a racing submit must not resurrect a draining pool.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> bool {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        if let Ok(mut q) = self.shared.queue.lock() {
            q.push_back(Box::new(job));
            self.shared.wake.notify_one();
            true
        } else {
            false
        }
    }

    /// Jobs enqueued but not yet picked up by a worker — the admission
    /// layer's backpressure signal.
    pub fn queued(&self) -> usize {
        self.shared.queue.lock().map(|q| q.len()).unwrap_or(0)
    }

    /// Jobs currently executing on a worker.
    pub fn active(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Queued + active: everything admitted but not finished.
    pub fn in_flight(&self) -> usize {
        self.queued() + self.active()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs that panicked (caught; the worker survived).
    pub fn panicked(&self) -> u64 {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Stops the pool and joins every worker.
    ///
    /// With `drain_queue`, workers first finish everything already queued;
    /// without it, queued jobs are dropped and only the jobs already
    /// *running* are waited for (the crash-safe-drain mode: queued work is
    /// journaled elsewhere and re-runs on resume). Either way, running
    /// jobs are never aborted — interrupt them cooperatively (e.g. via
    /// their `JobCtx`/budget cancel flags) before calling this if a
    /// bounded shutdown time matters.
    pub fn shutdown(self, drain_queue: bool) {
        self.shared
            .abandon_queue
            .store(!drain_queue, Ordering::SeqCst);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        for w in self.workers {
            // worker bodies catch job panics; join failure is impossible,
            // and the no-panic policy forbids expect() regardless
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let Ok(mut q) = shared.queue.lock() else {
                return;
            };
            loop {
                if shared.shutdown.load(Ordering::SeqCst)
                    && (shared.abandon_queue.load(Ordering::SeqCst) || q.is_empty())
                {
                    return;
                }
                if let Some(job) = q.pop_front() {
                    break job;
                }
                match shared.wake.wait(q) {
                    Ok(guard) => q = guard,
                    Err(_) => return,
                }
            }
        };
        shared.active.fetch_add(1, Ordering::SeqCst);
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            shared.panicked.fetch_add(1, Ordering::Relaxed);
        }
        shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        for jobs in [1, 2, 4, 7] {
            let out = par_map(jobs, &items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            let got: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            let want: Vec<usize> = items.iter().map(|&x| x * 2).collect();
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let items: Vec<u64> = (0..100).map(|i| i * 37 + 11).collect();
        let f = |_: usize, &x: &u64| -> f64 { (x as f64).sqrt() * 3.25 - x as f64 / 7.0 };
        let serial: Vec<f64> = par_map(1, &items, f).into_iter().map(|r| r.unwrap()).collect();
        let parallel: Vec<f64> = par_map(4, &items, f).into_iter().map(|r| r.unwrap()).collect();
        // bit-identical, not approximately equal
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn panic_is_captured_per_item() {
        let items: Vec<usize> = (0..20).collect();
        let out = par_map(3, &items, |_, &x| {
            assert!(x != 13, "unlucky item");
            x
        });
        for (i, r) in out.iter().enumerate() {
            if i == 13 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, 13);
                assert!(e.payload.contains("unlucky"), "{e}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn panic_converts_into_apex_error_chain() {
        let items = [1u32];
        let out = par_map_stage(1, Stage::Rewrite, &items, |_, _| -> u32 {
            panic!("synth exploded")
        });
        let err = out.into_iter().next().unwrap().unwrap_err();
        assert_eq!(err.stage(), Stage::Rewrite);
        let chain = err.render_chain();
        assert!(chain.contains("synth exploded"), "{chain}");
    }

    #[test]
    fn unbalanced_work_is_stolen() {
        // front-loaded cost: with block distribution and no stealing,
        // worker 0 would run ~all the slow items serially. The test
        // asserts more than one worker participates in the slow half.
        let items: Vec<usize> = (0..32).collect();
        let seen = AtomicUsize::new(0);
        let out = par_map(4, &items, |_, &x| {
            if x < 8 {
                std::thread::sleep(Duration::from_millis(20));
            }
            seen.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(seen.load(Ordering::Relaxed), 32);
        assert_eq!(out.len(), 32);
        assert!(out.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        let one = [9u8];
        let out = par_map(4, &one, |_, &x| x + 1);
        assert_eq!(*out[0].as_ref().unwrap(), 10);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let items: Vec<usize> = (0..3).collect();
        let out = par_map(64, &items, |_, &x| x);
        assert_eq!(out.len(), 3);
        assert!(out.iter().enumerate().all(|(i, r)| *r.as_ref().unwrap() == i));
    }

    #[test]
    fn range_steal_takes_far_half() {
        let r = Range::new(0, 10);
        assert_eq!(r.pop_front(), Some(0));
        let (s, e) = r.steal_half().unwrap();
        // 9 items remain [1,10); thief takes the far ceil-half [5.5]→[6,10)
        assert_eq!((s, e), (6, 10));
        assert_eq!(r.remaining(), 5);
        let mut owned = Vec::new();
        while let Some(i) = r.pop_front() {
            owned.push(i);
        }
        assert_eq!(owned, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn nested_par_map_runs_inline_in_order_and_catches_panics() {
        let outer: Vec<usize> = (0..4).collect();
        let out = par_map(2, &outer, |_, &x| {
            let worker = std::thread::current().id();
            let inner: Vec<usize> = (0..8).collect();
            let results = par_map(2, &inner, |_, &y| {
                assert_eq!(std::thread::current().id(), worker, "nested job left its worker");
                assert!(y != 5, "inner boom");
                x * 100 + y
            });
            (worker, results)
        });
        let mut workers = Vec::new();
        for (x, r) in out.into_iter().enumerate() {
            let (worker, results) = r.unwrap();
            if !workers.contains(&worker) {
                workers.push(worker);
            }
            for (y, inner) in results.into_iter().enumerate() {
                if y == 5 {
                    let p = inner.unwrap_err();
                    assert_eq!(p.index, 5);
                    assert!(p.payload.contains("inner boom"), "{p}");
                } else {
                    assert_eq!(inner.unwrap(), x * 100 + y);
                }
            }
        }
        assert!(workers.len() <= 2, "outer jobs ran on {} threads", workers.len());
    }

    #[test]
    fn nested_pools_are_bounded() {
        // an outer sweep whose jobs themselves par_map (like rule
        // synthesis inside a variant build) must still complete
        let outer: Vec<usize> = (0..4).collect();
        let out = par_map(2, &outer, |_, &x| {
            let inner: Vec<usize> = (0..8).collect();
            par_map(2, &inner, |_, &y| x * 100 + y)
                .into_iter()
                .map(|r| r.unwrap())
                .sum::<usize>()
        });
        for (i, r) in out.into_iter().enumerate() {
            assert_eq!(r.unwrap(), i * 800 + 28);
        }
    }

    #[test]
    fn four_workers_overlap_in_time() {
        // four 200 ms jobs at jobs=4 must finish well under the 800 ms a
        // serial run needs — sleeps overlap even on a single-core host,
        // so this asserts the pool genuinely runs jobs concurrently
        let items: Vec<usize> = (0..4).collect();
        let t0 = std::time::Instant::now();
        let out = par_map(4, &items, |_, &x| {
            std::thread::sleep(std::time::Duration::from_millis(200));
            x
        });
        let elapsed = t0.elapsed();
        assert!(out.into_iter().all(|r| r.is_ok()));
        assert!(
            elapsed < std::time::Duration::from_millis(600),
            "4 workers took {elapsed:?}; jobs did not overlap"
        );
    }

    #[test]
    fn set_jobs_overrides_and_clears() {
        set_jobs(3);
        assert_eq!(default_jobs(), 3);
        set_jobs(0);
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn unsupervised_options_run_inline_with_detached_ctx() {
        let items: Vec<usize> = (0..10).collect();
        let out = par_map_supervised(2, &items, &WatchdogOptions::default(), |_, &x, ctx| {
            assert!(!ctx.cancelled());
            assert!(!ctx.timed_out());
            x * 3
        });
        let got: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, (0..10).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn watchdog_cancels_job_past_deadline() {
        let items: Vec<usize> = (0..3).collect();
        let watch = WatchdogOptions {
            job_deadline: Some(Duration::from_millis(50)),
            interrupt: None,
            poll: Duration::from_millis(5),
        };
        let t0 = std::time::Instant::now();
        let out = par_map_supervised(3, &items, &watch, |_, &x, ctx| {
            if x == 1 {
                // a hung job: only the watchdog can stop it
                while !ctx.cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                assert!(ctx.timed_out(), "cancel without timeout mark");
                return usize::MAX;
            }
            x
        });
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "watchdog failed to cancel; pool hung"
        );
        let got: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, vec![0, usize::MAX, 2]);
    }

    #[test]
    fn interrupt_flag_cancels_active_and_pending_jobs() {
        let items: Vec<usize> = (0..6).collect();
        let interrupt = Arc::new(AtomicBool::new(false));
        let watch = WatchdogOptions {
            job_deadline: None,
            interrupt: Some(Arc::clone(&interrupt)),
            poll: Duration::from_millis(5),
        };
        let cancelled = AtomicUsize::new(0);
        let out = par_map_supervised(1, &items, &watch, |_, &x, ctx| {
            if x == 0 {
                // simulate Ctrl-C arriving while job 0 runs
                interrupt.store(true, Ordering::Relaxed);
            }
            // jobs dispatched after the interrupt start pre-cancelled
            if ctx.cancelled() {
                cancelled.fetch_add(1, Ordering::Relaxed);
            }
            x
        });
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|r| r.is_ok()), "drain must not drop results");
        assert!(
            cancelled.load(Ordering::Relaxed) >= 5,
            "jobs after the interrupt must start pre-cancelled"
        );
    }

    #[test]
    fn worker_pool_runs_jobs_and_reports_depth() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let done = Arc::clone(&done);
            assert!(pool.submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown(true);
        assert_eq!(done.load(Ordering::SeqCst), 16, "drain shutdown runs the queue dry");
    }

    #[test]
    fn worker_pool_abandon_shutdown_drops_queued_but_finishes_active() {
        let pool = WorkerPool::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(AtomicUsize::new(0));
        // job 0 occupies the single worker until the gate opens
        {
            let gate = Arc::clone(&gate);
            let ran = Arc::clone(&ran);
            pool.submit(move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        // give the worker time to pick up job 0, then queue more behind it
        while pool.active() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for _ in 0..4 {
            let ran = Arc::clone(&ran);
            pool.submit(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(pool.queued(), 4, "jobs behind a busy worker are queued");
        assert_eq!(pool.in_flight(), 5);
        gate.store(true, Ordering::SeqCst);
        pool.shutdown(false);
        assert_eq!(
            ran.load(Ordering::SeqCst),
            1,
            "abandon shutdown waits for the active job but drops the queue"
        );
    }

    #[test]
    fn worker_pool_survives_panicking_jobs() {
        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("job blew up"));
        let ok = Arc::new(AtomicBool::new(false));
        {
            let ok = Arc::clone(&ok);
            pool.submit(move || ok.store(true, Ordering::SeqCst));
        }
        // both jobs must drain despite the first one panicking
        while pool.in_flight() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(ok.load(Ordering::SeqCst), "worker died with the panicking job");
        assert_eq!(pool.panicked(), 1);
        pool.shutdown(true);
    }

    #[test]
    fn panicking_supervised_job_clears_its_slot() {
        let items: Vec<usize> = (0..4).collect();
        let watch = WatchdogOptions {
            job_deadline: Some(Duration::from_millis(200)),
            interrupt: None,
            poll: Duration::from_millis(5),
        };
        let out = par_map_supervised(2, &items, &watch, |_, &x, _ctx| {
            assert!(x != 2, "boom");
            x
        });
        assert!(out[2].is_err());
        assert_eq!(*out[0].as_ref().unwrap(), 0);
        assert_eq!(*out[3].as_ref().unwrap(), 3);
    }
}
