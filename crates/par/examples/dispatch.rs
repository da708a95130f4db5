//! What one `Pool::run` costs before any task does work: `run(8, |i| i)` at
//! 2 threads, 300 repetitions each after the caller was busy for 0 / 0.7 /
//! 6 ms (back to back, `dash_cold`'s cadence, `dash_warm`'s: the longer the
//! helpers were parked, the colder their wake-up). Prints p20 / p50 / p90 per
//! gap and fails when the back-to-back p20 exceeds [`P20_MAX`] — a pool that
//! spawns a thread per call reads ≈ 70 µs there, parked helpers ≈ 3 µs.
//!
//! ```text
//! cargo run --release -p tabula-par --example dispatch
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};
use tabula_par::Pool;

const REPS: usize = 300;
const GAPS: [Duration; 3] = [Duration::ZERO, Duration::from_micros(700), Duration::from_millis(6)];
const P20_MAX: Duration = Duration::from_micros(30);

fn main() {
    let pool = Pool::with_threads(2);
    assert_eq!(pool.run(8, |i| i), (0..8).collect::<Vec<_>>());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("Pool::with_threads(2).run(8, |i| i), {REPS} repetitions per gap, {cores} cores");
    let p20 = GAPS.map(|gap| {
        let mut samples: Vec<Duration> = (0..REPS)
            .map(|_| {
                let busy = Instant::now();
                while busy.elapsed() < gap {
                    std::hint::spin_loop();
                }
                let start = Instant::now();
                black_box(pool.run(black_box(8), |i| i));
                start.elapsed()
            })
            .collect();
        samples.sort_unstable();
        let q = |p: usize| samples[REPS * p / 100].as_secs_f64() * 1e6;
        println!(
            "gap {:>4} us: p20 {:7.1} us  p50 {:7.1} us  p90 {:7.1} us",
            gap.as_micros(),
            q(20),
            q(50),
            q(90)
        );
        samples[REPS / 5]
    });
    assert!(
        p20[0] <= P20_MAX,
        "back-to-back p20 {:?} > {P20_MAX:?}: is a thread spawned per run?",
        p20[0]
    );
}
