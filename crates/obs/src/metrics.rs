//! Atomic metrics primitives and the [`Registry`] that names them.
//!
//! Everything here is lock-free on the hot path: a [`Counter`] increment is a
//! single relaxed `fetch_add`, a [`Histogram`] record is three. Locks are only
//! taken when *resolving* a metric by name (`Registry::counter` & friends) or
//! when taking a [`MetricsSnapshot`], both of which are cold operations —
//! callers on hot paths resolve their `Arc` handle once and keep it.

use crate::window::{WindowSnapshot, WindowedHistogram, DEFAULT_WINDOW_SECS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero, returning the previous value.
    pub fn reset(&self) -> u64 {
        self.value.swap(0, Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets. Bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 additionally holds 0 and 1), so the
/// range spans 1 ns .. ~584 years — enough for any latency we will ever see.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log₂-bucketed latency histogram.
///
/// Values are recorded in nanoseconds into 64 power-of-two buckets, which
/// bounds quantile estimation error at <50% of the true value (in practice far
/// less after intra-bucket interpolation) while keeping `record` to three
/// relaxed atomic ops and zero allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the bucket covering `ns`: `floor(log2(max(ns, 1)))`.
#[inline]
pub(crate) fn bucket_index(ns: u64) -> usize {
    (63 - (ns | 1).leading_zeros()) as usize
}

/// Lower bound (inclusive) of bucket `i` in nanoseconds.
#[inline]
pub(crate) fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Upper bound (exclusive) of bucket `i` in nanoseconds; saturates at `u64::MAX`.
#[inline]
pub(crate) fn bucket_hi(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a value in nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Record a [`Duration`] (saturating at `u64::MAX` nanoseconds).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Forget every sample, in place: handles resolved earlier keep
    /// recording into the histogram the registry reports.
    pub(crate) fn reset(&self) {
        for cell in self.buckets.iter().chain([&self.count, &self.sum, &self.max]) {
            cell.store(0, Ordering::Relaxed);
        }
    }

    /// Consistent point-in-time view. Individual loads are relaxed, so a
    /// snapshot taken concurrently with writers may straddle an in-flight
    /// record; quantiles remain meaningful because every bucket is monotone.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count: u64 = buckets.iter().sum();
        let sum = self.sum.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        HistogramSnapshot { count, sum_ns: sum, max_ns: max, buckets }
    }
}

/// Immutable view of a [`Histogram`] with quantile estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
    /// Per-bucket counts, `buckets[i]` covering `[bucket_lo(i), bucket_hi(i))`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) in nanoseconds.
    ///
    /// Walks the cumulative bucket counts to the target rank, then linearly
    /// interpolates inside the bucket. The result is clamped to `max_ns` so
    /// p100 never exceeds the true observed maximum. Returns 0 for an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank in 1..=count of the sample we want.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = bucket_lo(i) as f64;
                let hi = (bucket_hi(i).min(self.max_ns.max(1))) as f64;
                let hi = hi.max(lo);
                // Position of the target rank within this bucket, in (0, 1].
                let frac = (rank - seen) as f64 / c as f64;
                let est = lo + (hi - lo) * frac;
                return (est as u64).min(self.max_ns);
            }
            seen += c;
        }
        self.max_ns
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean in nanoseconds (0 if empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// A named collection of counters, gauges and histograms.
///
/// Metrics are created on first use and live for the registry's lifetime.
/// Handles are `Arc`s: resolve once, then update lock-free forever.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    windows: RwLock<BTreeMap<String, Arc<WindowedHistogram>>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().unwrap().get(name) {
            return Arc::clone(c);
        }
        let mut w = self.counters.write().unwrap();
        Arc::clone(w.entry(name.to_string()).or_default())
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().unwrap().get(name) {
            return Arc::clone(g);
        }
        let mut w = self.gauges.write().unwrap();
        Arc::clone(w.entry(name.to_string()).or_default())
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().unwrap().get(name) {
            return Arc::clone(h);
        }
        let mut w = self.histograms.write().unwrap();
        Arc::clone(w.entry(name.to_string()).or_default())
    }

    /// Get or create the sliding-window histogram named `name` with the
    /// default 60 s window (see [`window_with_secs`](Self::window_with_secs)).
    pub fn window(&self, name: &str) -> Arc<WindowedHistogram> {
        self.window_with_secs(name, DEFAULT_WINDOW_SECS)
    }

    /// Get or create the sliding-window histogram named `name`. The window
    /// length only applies on creation; later calls return the existing
    /// window whatever its length.
    pub fn window_with_secs(&self, name: &str, window_secs: u64) -> Arc<WindowedHistogram> {
        if let Some(w) = self.windows.read().unwrap().get(name) {
            return Arc::clone(w);
        }
        let mut w = self.windows.write().unwrap();
        Arc::clone(
            w.entry(name.to_string())
                .or_insert_with(|| Arc::new(WindowedHistogram::new(window_secs))),
        )
    }

    /// Point-in-time snapshot of every metric in the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters =
            self.counters.read().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let gauges =
            self.gauges.read().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let histograms = self
            .histograms
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let windows = self
            .windows
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| {
                (k.clone(), WindowSnapshot { window_secs: v.window_secs(), hist: v.snapshot() })
            })
            .collect();
        MetricsSnapshot { counters, gauges, histograms, windows }
    }

    /// Reset every counter and drop every histogram's and window's samples.
    /// Gauges keep their last value (they describe current state, not
    /// accumulation). Benches and the diff engine call this between phases
    /// to isolate per-phase counters instead of diffing cumulative snapshots.
    pub fn reset(&self) {
        for c in self.counters.read().unwrap().values() {
            c.reset();
        }
        for h in self.histograms.read().unwrap().values() {
            h.reset();
        }
        for w in self.windows.read().unwrap().values() {
            w.reset();
        }
    }
}

/// Immutable snapshot of a whole [`Registry`]; see the `export` module for
/// JSON and Prometheus renderings.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Sliding-window histograms (see [`WindowedHistogram`]), keyed like
    /// `histograms`; a name may appear in both maps.
    pub windows: BTreeMap<String, WindowSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter, defaulting to 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process-wide registry. Library code defaults to this; tests that need
/// isolation construct their own [`Registry`] and thread it through.
pub fn global() -> &'static Arc<Registry> {
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_inc_add_reset() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        assert_eq!(c.reset(), 42);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_set_add() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_bounds_cover_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);
        for i in 0..HISTOGRAM_BUCKETS {
            let lo = bucket_lo(i);
            assert_eq!(bucket_index(lo.max(1)), i);
            if i < 63 {
                assert_eq!(bucket_index(bucket_hi(i) - 1), i);
            }
        }
    }

    #[test]
    fn histogram_quantiles_single_value() {
        let h = Histogram::new();
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.max_ns, 1000);
        assert!(s.p50() <= 1000);
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn histogram_mean_and_empty() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().mean_ns(), 0);
        assert_eq!(h.snapshot().quantile(0.5), 0);
        h.record(100);
        h.record(300);
        assert_eq!(h.snapshot().mean_ns(), 200);
    }

    #[test]
    fn registry_handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(r.snapshot().counter("x"), 2);
    }

    #[test]
    fn registry_reset_clears_counters_and_histograms() {
        let r = Registry::new();
        r.counter("c").add(5);
        let h = r.histogram("h");
        h.record(123);
        r.gauge("g").set(9);
        r.window("w").record(77);
        r.reset();
        let s = r.snapshot();
        assert_eq!(s.counter("c"), 0);
        assert_eq!(s.histograms["h"].count, 0);
        assert_eq!(s.gauges["g"], 9);
        assert_eq!(s.windows["w"].hist.count, 0);
        // A handle resolved before the reset still feeds the registry.
        h.record(7);
        assert_eq!(r.snapshot().histograms["h"].sum_ns, 7);
    }

    #[test]
    fn registry_window_handles_are_shared() {
        let r = Registry::new();
        let a = r.window("w");
        let b = r.window_with_secs("w", 10); // existing wins, length ignored
        a.record(100);
        b.record(200);
        let s = r.snapshot();
        assert_eq!(s.windows["w"].window_secs, crate::window::DEFAULT_WINDOW_SECS);
        assert_eq!(s.windows["w"].hist.count, 2);
    }

    #[test]
    fn quantile_orders_mass_correctly() {
        let h = Histogram::new();
        // 90 fast samples, 10 slow ones: p50 must sit near the fast mass,
        // p99 near the slow mass.
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        assert!(s.p50() < 3_000, "p50 = {}", s.p50());
        assert!(s.p99() >= 524_288, "p99 = {}", s.p99());
        assert_eq!(s.max_ns, 1_000_000);
    }
}
