//! Small accumulators and order statistics.

use std::time::Duration;

/// A running total of durations and how many were added.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    pub total: Duration,
    pub count: u64,
}

impl Acc {
    pub fn add(&mut self, d: Duration) {
        self.total += d;
        self.count += 1;
    }

    pub fn merge(&mut self, other: Acc) {
        self.total += other.total;
        self.count += other.count;
    }

    /// Mean in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        per(self.total.as_secs_f64() * 1e6, self.count as f64)
    }
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn per(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an unsorted sample
/// (0 when empty).
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
    }
}
