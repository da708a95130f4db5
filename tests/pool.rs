//! `tabula_par::Pool::run`'s contract on the process-wide helper set: every
//! task exactly once and results in task order at any thread count, borrows
//! of the caller's stack end with the call, concurrent and nested callers
//! finish, a task's panic reaches the caller as itself and leaves the pool
//! usable, and no call spawns a thread of its own.

use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tabula_par::Pool;

const THREADS: [usize; 4] = [1, 2, 3, 8];

fn on_helper() -> bool {
    std::thread::current().name().is_some_and(|name| name.starts_with("tabula-par-"))
}

/// Run `body` on a thread of its own and fail if it has not finished in
/// time, so a deadlock is a failure and not a hung suite.
fn under_watchdog(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        done.send(()).ok();
    });
    match finished.recv_timeout(Duration::from_secs(120)) {
        Ok(()) => worker.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("pool did not finish within 120 s"),
    }
}

#[test]
fn every_task_runs_once_and_results_keep_task_order() {
    for threads in THREADS {
        let pool = Pool::with_threads(threads);
        for tasks in [0, 1, threads - 1, threads, 10_000] {
            let ran: Vec<AtomicU32> = (0..tasks).map(|_| AtomicU32::new(0)).collect();
            let out = pool.run(tasks, |i| {
                ran[i].fetch_add(1, Ordering::Relaxed);
                i * 3
            });
            assert_eq!(out, (0..tasks).map(|i| i * 3).collect::<Vec<_>>(), "threads={threads}");
            assert!(ran.iter().all(|n| n.load(Ordering::Relaxed) == 1), "threads={threads}");
        }
    }
}

#[test]
fn a_task_may_borrow_the_callers_stack() {
    // The closure and everything it borrows die right after `run` returns,
    // many times over, while helpers that woke late are still around.
    for threads in THREADS {
        let pool = Pool::with_threads(threads);
        for round in 0..2_000u64 {
            let data: Vec<u64> = (0..256).map(|i| i + round).collect();
            let seen = AtomicU64::new(0);
            let sums = pool.run(16, |i| {
                let sum: u64 = data[i * 16..(i + 1) * 16].iter().sum();
                seen.fetch_add(sum, Ordering::Relaxed);
                sum
            });
            let want: u64 = data.into_iter().sum();
            assert_eq!(seen.into_inner(), want);
            assert_eq!(sums.iter().sum::<u64>(), want);
        }
    }
}

#[test]
fn concurrent_and_nested_callers_finish() {
    under_watchdog(|| {
        std::thread::scope(|scope| {
            for caller in 0..4usize {
                scope.spawn(move || {
                    for round in 0..500 {
                        let pool = Pool::with_threads(THREADS[(caller + round) % THREADS.len()]);
                        let tasks = 1 + (caller + round) % 17;
                        let out = pool.run(tasks, |i| i + round);
                        assert_eq!(out, (round..round + tasks).collect::<Vec<_>>());
                    }
                });
            }
            // A task that is itself a caller, on helpers and on worker 0.
            scope.spawn(|| {
                let pool = Pool::with_threads(3);
                for _ in 0..200 {
                    let out = pool.run(6, |i| pool.run(5, |j| i * j).iter().sum::<usize>());
                    assert_eq!(out, (0..6).map(|i| i * 10).collect::<Vec<_>>());
                }
            });
        });
    });
}

#[test]
fn set_threads_moves_the_global_pool_up_and_down() {
    for threads in [1, 4, 2, 8, 1, 3] {
        tabula_par::set_threads(threads);
        let pool = Pool::global();
        assert_eq!(pool.threads(), threads);
        assert_eq!(pool.run(100, |i| i * i), (0..100).map(|i| i * i).collect::<Vec<_>>());
    }
    tabula_par::set_threads(0);
}

#[derive(Debug, PartialEq)]
struct Boom(usize);

/// One job in which the first task to run on the chosen side — a helper,
/// or the caller — panics; the other side stays inside its first task
/// until that has happened, so the side under test cannot miss the job.
fn panic_on(helper_side: bool, threads: usize) {
    let pool = Pool::with_threads(threads);
    let tasks = 400;
    let ran: Vec<AtomicU32> = (0..tasks).map(|_| AtomicU32::new(0)).collect();
    let fired = AtomicBool::new(false);
    let fired_at = AtomicUsize::new(usize::MAX);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        pool.run(tasks, |i| {
            ran[i].fetch_add(1, Ordering::Relaxed);
            if on_helper() == helper_side {
                if !fired.swap(true, Ordering::SeqCst) {
                    fired_at.store(i, Ordering::SeqCst);
                    panic_any(Boom(i));
                }
            } else {
                let waiting = Instant::now();
                while !fired.load(Ordering::SeqCst) {
                    assert!(
                        waiting.elapsed() < Duration::from_secs(60),
                        "nobody on the other side"
                    );
                    std::thread::yield_now();
                }
            }
            i
        })
    }));
    let payload = outcome.expect_err("the panic must reach the caller");
    let boom = payload.downcast::<Boom>().expect("the task's own payload");
    assert_eq!(*boom, Boom(fired_at.load(Ordering::SeqCst)));
    assert!(ran.iter().all(|n| n.load(Ordering::Relaxed) <= 1), "a task ran twice");
    assert_eq!(ran[boom.0].load(Ordering::Relaxed), 1);
    // Same pool, same helpers, next job.
    assert_eq!(pool.run(tasks, |i| i + 1), (1..=tasks).collect::<Vec<_>>());
}

#[test]
fn a_panicking_task_reaches_the_caller_with_its_payload() {
    under_watchdog(|| {
        for threads in [2, 3, 8] {
            panic_on(true, threads);
            panic_on(false, threads);
        }
    });
}

/// `Threads:` of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).unwrap();
    line.trim().parse().unwrap()
}

/// Re-invoked alone in a process of its own (the other tests' helpers and
/// the harness's threads would blur the count): the serial path spawns
/// nothing, the first parallel run spawns `workers − 1` helpers, and ten
/// thousand more runs spawn none.
#[cfg(target_os = "linux")]
#[test]
fn helpers_are_spawned_once_and_never_by_the_serial_path() {
    const CHILD: &str = "TABULA_POOL_TEST_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "helpers_are_spawned_once_and_never_by_the_serial_path"])
            .env(CHILD, "1")
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
        return;
    }
    let check = |pool: &Pool, runs: usize| {
        for round in 0..runs {
            assert_eq!(pool.run(8, |i| i + round), (round..round + 8).collect::<Vec<_>>());
        }
    };
    let before = process_threads();
    check(&Pool::with_threads(1), 100);
    // More threads than tasks is `workers` = 1 as well.
    assert_eq!(Pool::with_threads(8).run(1, |i| i), [0]);
    assert_eq!(process_threads(), before, "the serial path spawned a thread");

    check(&Pool::with_threads(3), 1);
    assert_eq!(process_threads(), before + 2);
    check(&Pool::with_threads(3), 10_000);
    check(&Pool::with_threads(2), 10_000);
    assert_eq!(process_threads(), before + 2, "a run spawned or lost a thread");

    // Grown on demand to the largest `workers − 1` asked for, then kept.
    check(&Pool::with_threads(8), 100);
    assert_eq!(process_threads(), before + 7);
    check(&Pool::with_threads(2), 100);
    assert_eq!(process_threads(), before + 7);
}
