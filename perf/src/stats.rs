//! Order statistics and the process's peak memory.

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of nanosecond samples, in nanoseconds.
pub fn median_ns(samples: &[u64]) -> f64 {
    median(&samples.iter().map(|&ns| ns as f64).collect::<Vec<_>>())
}

/// The 20th percentile of `values` (the smallest of up to five); 0 when
/// empty. What a run reports of a timing it sampled in several rounds. The
/// host runs at a handful of speeds that last seconds each — the same loop
/// reads 150, 170, 190, 250 or 280 µs — and which of them a run meets most
/// is the host's business: over ten runs the median of the rounds landed
/// on a slow speed in some (spread 20–30 %), the minimum on a rare fast one
/// in others (15–20 %), and of the percentiles in between the 20th moved
/// least on every workload (1–10 %).
pub fn calm_low(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 5).copied().unwrap_or(0.0)
}

/// [`calm_low`] for a rate, where a slow host only ever takes away: the
/// 80th percentile.
pub fn calm_high(values: &[f64]) -> f64 {
    -calm_low(&values.iter().map(|v| -v).collect::<Vec<_>>())
}

/// The tail of nanosecond samples: p99 where at least 1 000 samples exist,
/// otherwise the highest percentile that still has ten samples beyond it
/// (the maximum below twenty samples).
pub fn tail_ns(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let beyond = (v.len() / 100).max(10).min(v.len() - 1);
    v[v.len() - 1 - beyond] as f64
}

/// First quartile, median and third quartile, the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn calm_values_sit_at_the_twentieth_percentile_from_the_good_end() {
        assert_eq!(calm_low(&[]), 0.0);
        assert_eq!(calm_low(&[3.0, 1.0, 2.0]), 1.0);
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(calm_low(&v), 5.0);
        assert_eq!(calm_high(&v), 17.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_until_p99_applies() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tail_ns(&v), 90.0);
        let v: Vec<u64> = (1..=2000).collect();
        assert_eq!(tail_ns(&v), 1980.0);
        assert_eq!(tail_ns(&[7]), 7.0);
    }
}
