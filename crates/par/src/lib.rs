//! # tabula-par — morsel-driven deterministic parallel execution
//!
//! A `std`-only parallel execution layer for the cube pipeline: one
//! process-wide set of parked helper threads, plus three primitives —
//! [`Pool::par_map`], [`Pool::par_chunks`] and [`Pool::par_fold_merge`] —
//! that every hot stage (finest-cuboid scan, lattice rollup, dry-run
//! classification, group-by, per-cell sampling, SamGraph join, the raw
//! `Predicate::filter`) is built on.
//!
//! ## Determinism contract
//!
//! Results are **byte-identical across any thread count**, including 1:
//!
//! * work is decomposed into *morsels* whose boundaries depend only on the
//!   input size (default [`DEFAULT_MORSEL_ROWS`] rows), never on the
//!   thread count;
//! * each morsel is processed sequentially by exactly one worker;
//! * partial results are combined in ascending morsel order on the calling
//!   thread.
//!
//! The thread count therefore only decides *who* runs a morsel and *when*
//! — never what is computed. This matters beyond hash-map equality:
//! floating-point accumulation (e.g. [`SumCount`-style] states) is not
//! associative, so the merge sequence itself must be pinned. Because the
//! serial path (`TABULA_THREADS=1`) executes the same morsels in the same
//! merge order inline, it is bit-for-bit the parallel result.
//!
//! ## Threads
//!
//! [`Pool::run`] at `workers` > 1 is a *job*: the caller is worker 0 and
//! starts on the tasks at once; `workers − 1` helpers are woken to join it.
//! Helpers are spawned by the first job that wants them (never by the
//! serial path), grown to the largest `workers − 1` ever asked for, named
//! `tabula-par-<i>`, and live for the rest of the process, parked on a
//! condition variable between jobs. They do not spin: a parked helper
//! costs a reader on the other core nothing, and a helper that wakes late
//! finds the tasks gone and parks again — the worst case is the serial run
//! plus one queue push, never a wait for a thread to arrive. Open jobs sit
//! in one queue and a free helper joins the oldest; a caller only ever
//! waits for helpers that are *inside* one of its tasks, so nested and
//! concurrent `run`s cannot deadlock. Tasks are handed out by one atomic
//! cursor per job, in task order.
//!
//! A panicking task does not kill the pool: the helper it ran on catches
//! it, the job drains, and the first payload is re-raised on the caller.
//!
//! ## Configuration
//!
//! The process-wide thread count comes from the `TABULA_THREADS`
//! environment variable (`0` or unset = `available_parallelism`), read
//! once at first use and overridable at runtime with [`set_threads`] —
//! the benchmark harness uses that to measure serial-vs-parallel speedup
//! inside one process.
//!
//! ## Instrumentation
//!
//! The pool reports into the global [`tabula_obs`] registry: a `par.tasks`
//! counter, a `par.morsel_ns` histogram (busy time per task on the parallel
//! path) and a `par.threads` gauge, resolved once per process.
//!
//! [`SumCount`-style]: https://en.wikipedia.org/wiki/Floating-point_arithmetic#Accuracy_problems

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;
use tabula_obs as obs;

/// Default morsel granularity: ~64k rows, the classic morsel-driven size —
/// big enough to amortize scheduling, small enough to load-balance.
pub const DEFAULT_MORSEL_ROWS: usize = 1 << 16;

/// Runtime override of the thread count (0 = fall back to env/auto).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Thread count resolved from the `TABULA_THREADS` environment variable,
/// cached after the first read (usize::MAX = not yet read).
static ENV_THREADS: AtomicUsize = AtomicUsize::new(usize::MAX);

fn env_threads() -> usize {
    let cached = ENV_THREADS.load(Ordering::Relaxed);
    if cached != usize::MAX {
        return cached;
    }
    let parsed = std::env::var("TABULA_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    ENV_THREADS.store(parsed, Ordering::Relaxed);
    parsed
}

fn auto_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The effective worker-thread count: runtime override, else
/// `TABULA_THREADS`, else `available_parallelism`.
pub fn threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        return o;
    }
    match env_threads() {
        0 => auto_threads(),
        n => n,
    }
}

/// Override the process-wide thread count at runtime (`0` = back to the
/// `TABULA_THREADS` / auto default). Results are unaffected by
/// construction — only wall time changes.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The pool's obs instruments, resolved once per process.
struct Instruments {
    threads: Arc<obs::Gauge>,
    tasks: Arc<obs::Counter>,
    morsel_ns: Arc<obs::Histogram>,
}

fn instruments() -> &'static Instruments {
    static INSTRUMENTS: OnceLock<Instruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| {
        let metrics = obs::global();
        Instruments {
            threads: metrics.gauge("par.threads"),
            tasks: metrics.counter("par.tasks"),
            morsel_ns: metrics.histogram("par.morsel_ns"),
        }
    })
}

/// Lock a mutex of this module. None of them is ever held while a task
/// runs, so a poisoned one still guards consistent data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One parallel [`Pool::run`] in flight.
struct Job {
    /// The caller's task closure with its lifetime erased; see [`run_job`]
    /// for why no call can outlive the borrow.
    task: &'static (dyn Fn(usize) + Sync),
    tasks: usize,
    /// Next task index to hand out. `Relaxed` throughout: it publishes no
    /// data, a task's result travels through its slot's mutex and `state`.
    next: AtomicUsize,
    state: Mutex<JobState>,
    /// Signalled when the last helper inside the job leaves.
    left: Condvar,
}

struct JobState {
    /// Helpers the job still has room for.
    wanted: usize,
    /// Helpers that joined and have not left yet.
    inside: usize,
    /// Payload of the first task that panicked on a helper.
    panic: Option<Box<dyn Any + Send>>,
}

impl Job {
    /// Run tasks until the cursor passes the last one.
    fn work(&self) {
        let instruments = instruments();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                return;
            }
            let start = Instant::now();
            (self.task)(i);
            instruments.morsel_ns.record_duration(start.elapsed());
            instruments.tasks.inc();
        }
    }
}

/// The jobs that still want helpers, oldest first, and how many helper
/// threads exist.
struct Queue {
    open: VecDeque<Arc<Job>>,
    spawned: usize,
}

static QUEUE: Mutex<Queue> = Mutex::new(Queue { open: VecDeque::new(), spawned: 0 });
/// Helpers park here while `QUEUE.open` is empty.
static WAKE: Condvar = Condvar::new();

/// Body of a helper thread: join the oldest open job, work, leave, park.
fn helper() {
    let mut queue = lock(&QUEUE);
    loop {
        let Some(job) = queue.open.front().cloned() else {
            queue = WAKE.wait(queue).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        {
            // Joining happens under the queue lock, so once a caller has
            // retracted its job `inside` can only fall.
            let mut state = lock(&job.state);
            state.inside += 1;
            state.wanted -= 1;
            if state.wanted == 0 {
                queue.open.pop_front();
            }
        }
        drop(queue);
        let outcome = catch_unwind(AssertUnwindSafe(|| job.work()));
        let mut state = lock(&job.state);
        if let Err(payload) = outcome {
            job.next.store(job.tasks, Ordering::Relaxed);
            state.panic.get_or_insert(payload);
        }
        state.inside -= 1;
        if state.inside == 0 {
            job.left.notify_one();
        }
        drop(state);
        queue = lock(&QUEUE);
    }
}

/// Closes a job: on drop — return or unwind — no helper is in it any more.
struct Open<'a>(&'a Arc<Job>);

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let job = self.0;
        // Only matters on unwind: tasks not yet started never will be.
        job.next.store(job.tasks, Ordering::Relaxed);
        lock(&QUEUE).open.retain(|open| !Arc::ptr_eq(open, job));
        let mut state = lock(&job.state);
        while state.inside > 0 {
            state = job.left.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Run `task(0..tasks)` on the calling thread and up to `helpers` helper
/// threads; re-raises the first panic of a task that ran on a helper.
fn run_job(helpers: usize, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
    // SAFETY: the erased reference is stored in `job.task` and nowhere
    // else, and is called only from `Job::work`. Besides this frame, only
    // helpers that joined the job run `work`; they join through `QUEUE`,
    // under its lock, and count themselves in `inside` until they are back
    // out of `work`. `Open::drop` — which runs before this frame dies,
    // on return and on unwind — takes the job off the queue, so nobody can
    // join any more, and then blocks until `inside` is 0. After that the
    // `Arc<Job>` a helper may still hold is never called through again.
    let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let state = JobState { wanted: helpers, inside: 0, panic: None };
    let job = Arc::new(Job {
        task,
        tasks,
        next: AtomicUsize::new(0),
        state: Mutex::new(state),
        left: Condvar::new(),
    });
    let open = Open(&job);
    let mut queue = lock(&QUEUE);
    while queue.spawned < helpers {
        // Helpers live as long as the process and catch their tasks'
        // panics, so there is nothing to join. A thread that cannot be
        // spawned is a helper that never arrives: the caller does its work.
        let name = format!("tabula-par-{}", queue.spawned);
        if std::thread::Builder::new().name(name).spawn(helper).is_err() {
            break;
        }
        queue.spawned += 1;
    }
    queue.open.push_back(Arc::clone(&job));
    drop(queue);
    (0..helpers).for_each(|_| WAKE.notify_one());
    job.work();
    drop(open);
    let panic = lock(&job.state).panic.take();
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// Handle on the parallel execution layer: a thread count. Cheap to
/// construct; every pool schedules onto the one process-wide helper set.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::global()
    }
}

impl Pool {
    /// The pool at the process-wide thread count (see [`threads`]).
    pub fn global() -> Self {
        Pool { threads: threads() }
    }

    /// A pool with an explicit thread count (`0` = `available_parallelism`).
    pub fn with_threads(n: usize) -> Self {
        Pool { threads: if n == 0 { auto_threads() } else { n } }
    }

    /// Worker threads this pool schedules onto.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `tasks` independent tasks, returning their results in task
    /// order. The scheduling unit is the task index; the calling thread and
    /// `min(threads, tasks) − 1` helpers take indices off one cursor. A
    /// panic in a task is re-raised here once the job has drained; tasks
    /// not yet started by then are skipped.
    pub fn run<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if tasks == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(tasks);
        let instruments = instruments();
        instruments.threads.set(self.threads as i64);
        if workers <= 1 {
            // Serial path: same tasks, same order, same results.
            instruments.tasks.add(tasks as u64);
            return (0..tasks).map(f).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
        run_job(workers - 1, tasks, &|i| {
            let result = f(i);
            *lock(&slots[i]) = Some(result);
        });
        slots
            .into_iter()
            .map(|slot| {
                let result = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
                result.expect("every task produced a result")
            })
            .collect()
    }

    /// Map `f` over `items` in parallel, preserving order.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run(items.len(), |i| f(&items[i]))
    }

    /// Morsel-driven iteration over `0..len`: split into `morsel`-sized
    /// ranges (boundaries independent of thread count), run `f` per range,
    /// return the per-morsel results in range order.
    pub fn par_chunks<R, F>(&self, len: usize, morsel: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let morsel = morsel.max(1);
        let n_morsels = len.div_ceil(morsel);
        self.run(n_morsels, |i| {
            let lo = i * morsel;
            f(lo..(lo + morsel).min(len))
        })
    }

    /// Morsel-driven accumulate-then-merge over `0..len`: `fold` builds
    /// one accumulator per morsel, `merge` combines them **in ascending
    /// morsel order** on the calling thread (the ordered merge that keeps
    /// non-associative accumulation deterministic). Returns `None` for an
    /// empty range.
    pub fn par_fold_merge<A, F, M>(
        &self,
        len: usize,
        morsel: usize,
        fold: F,
        mut merge: M,
    ) -> Option<A>
    where
        A: Send,
        F: Fn(Range<usize>) -> A + Sync,
        M: FnMut(A, A) -> A,
    {
        let mut partials = self.par_chunks(len, morsel, fold).into_iter();
        let first = partials.next()?;
        Some(partials.fold(first, &mut merge))
    }
}

/// [`Pool::par_map`] on the process-wide pool.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    Pool::global().par_map(items, f)
}

/// [`Pool::par_chunks`] on the process-wide pool with the default morsel.
pub fn par_chunks<R: Send>(len: usize, f: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
    Pool::global().par_chunks(len, DEFAULT_MORSEL_ROWS, f)
}

/// [`Pool::par_fold_merge`] on the process-wide pool with the default
/// morsel.
pub fn par_fold_merge<A: Send>(
    len: usize,
    fold: impl Fn(Range<usize>) -> A + Sync,
    merge: impl FnMut(A, A) -> A,
) -> Option<A> {
    Pool::global().par_fold_merge(len, DEFAULT_MORSEL_ROWS, fold, merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = Pool::with_threads(threads);
            assert_eq!(pool.par_map(&items, |&x| x * x), expect, "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_boundaries_are_thread_count_independent() {
        let serial = Pool::with_threads(1).par_chunks(1000, 64, |r| r);
        for threads in [2, 5, 16] {
            let pool = Pool::with_threads(threads);
            assert_eq!(pool.par_chunks(1000, 64, |r| r), serial, "threads={threads}");
        }
        // Boundaries tile the range exactly.
        assert_eq!(serial.first().unwrap().start, 0);
        assert_eq!(serial.last().unwrap().end, 1000);
        for w in serial.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn fold_merge_is_bitwise_deterministic_for_floats() {
        // Sums crafted so that association order changes the bits.
        let values: Vec<f64> = (0..100_000).map(|i| 1.0 + (i as f64) * 1e-9).collect();
        let fold = |r: Range<usize>| values[r].iter().sum::<f64>();
        let reference =
            Pool::with_threads(1).par_fold_merge(values.len(), 1024, fold, |a, b| a + b).unwrap();
        for threads in [2, 4, 32] {
            let got = Pool::with_threads(threads)
                .par_fold_merge(values.len(), 1024, fold, |a, b| a + b)
                .unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn empty_inputs() {
        let pool = Pool::with_threads(4);
        assert!(pool.run(0, |i| i).is_empty());
        assert!(pool.par_map::<u8, u8, _>(&[], |&x| x).is_empty());
        assert!(pool.par_chunks(0, 16, |r| r).is_empty());
        assert!(pool.par_fold_merge(0, 16, |_| 0u8, |a, _| a).is_none());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let ran = AtomicU64::new(0);
        let pool = Pool::with_threads(7);
        let out = pool.run(500, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), 500);
        assert_eq!(out, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn thread_knobs_resolve() {
        set_threads(3);
        assert_eq!(threads(), 3);
        assert_eq!(Pool::global().threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
        assert!(Pool::with_threads(0).threads() >= 1);
    }

    #[test]
    fn pool_reports_task_metrics() {
        let before = obs::global().counter("par.tasks").get();
        Pool::with_threads(2).run(64, |i| i);
        let after = obs::global().counter("par.tasks").get();
        assert!(after >= before + 64);
    }
}
