//! Timing helper for the data-to-visualization breakdown.

use std::time::{Duration, Instant};

/// Run `f`, returning its result and elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_result_and_duration() {
        let (v, d) = timed(|| 2 + 2);
        assert_eq!(v, 4);
        assert!(d < Duration::from_secs(1));
    }
}
