//! Histogram construction over scalar data (the paper's Figure 1 fare
//! histogram task).

/// An equi-width histogram.
#[derive(Debug, Clone)]
pub struct Histogram {
    min: f64,
    max: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Build a histogram of `values` with `buckets` equi-width buckets
    /// over `[min, max]`. Values outside the range clamp into the edge
    /// buckets (matching typical plotting-tool behaviour).
    pub fn build(values: &[f64], buckets: usize, min: f64, max: f64) -> Self {
        assert!(buckets > 0, "at least one bucket required");
        assert!(max > min, "empty value range");
        let mut counts = vec![0u64; buckets];
        let span = max - min;
        for &v in values {
            let idx = (((v - min) / span * buckets as f64).floor() as isize)
                .clamp(0, buckets as isize - 1) as usize;
            counts[idx] += 1;
        }
        Histogram { min, max, counts }
    }

    /// Build with the range taken from the data itself.
    pub fn auto(values: &[f64], buckets: usize) -> Self {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if !lo.is_finite() || hi <= lo {
            // Degenerate: a single bucket around the lone value (or zero).
            let center = if lo.is_finite() { lo } else { 0.0 };
            return Histogram::build(values, buckets, center - 0.5, center + 0.5);
        }
        Histogram::build(values, buckets, lo, hi)
    }

    /// Bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Normalized bucket frequencies (sum 1, or all zeros when empty).
    pub fn frequencies(&self) -> Vec<f64> {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|&c| c as f64 / total as f64).collect()
    }

    /// The `[min, max]` range.
    pub fn range(&self) -> (f64, f64) {
        (self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_in_the_right_buckets() {
        let h = Histogram::build(&[0.5, 1.5, 1.6, 9.9], 10, 0.0, 10.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.counts().iter().sum::<u64>(), 4);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let h = Histogram::build(&[-5.0, 15.0], 10, 0.0, 10.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
    }

    #[test]
    fn auto_range_and_degenerate_input() {
        let h = Histogram::auto(&[2.0, 2.0, 2.0], 5);
        assert_eq!(h.counts().iter().sum::<u64>(), 3);
        let h = Histogram::auto(&[], 5);
        assert_eq!(h.counts().iter().sum::<u64>(), 0);
        assert_eq!(h.frequencies(), vec![0.0; 5]);
    }
}
