//! Order statistics for run slices and latency samples.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for an even count).
/// 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between closest
/// ranks. 0.0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Counts completed work into fixed-length wall-clock slices so a run
/// reports the median slice rate instead of one whole-run mean: a stall in
/// one slice (the box's wall clock wanders) moves one sample, not the
/// result.
pub struct Slices {
    start: Instant,
    len: Duration,
    counts: Vec<f64>,
}

impl Slices {
    /// Slices of `len` starting now.
    pub fn new(len: Duration) -> Self {
        Slices {
            start: Instant::now(),
            len,
            counts: Vec::new(),
        }
    }

    /// Adds `amount` units of work completed at `at`.
    pub fn add(&mut self, at: Instant, amount: f64) {
        let idx = (at.duration_since(self.start).as_secs_f64() / self.len.as_secs_f64()) as usize;
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0.0);
        }
        self.counts[idx] += amount;
    }

    /// Per-second rates of the slices that ran to their full length before
    /// `end` (the trailing partial slice is dropped; if no slice completed,
    /// the whole-run mean is the single sample).
    pub fn rates(&self, end: Instant) -> Vec<f64> {
        let elapsed = end.duration_since(self.start).as_secs_f64();
        let full = (elapsed / self.len.as_secs_f64()) as usize;
        if full == 0 {
            let total: f64 = self.counts.iter().sum();
            return vec![total / elapsed.max(1e-9)];
        }
        (0..full)
            .map(|i| self.counts.get(i).copied().unwrap_or(0.0) / self.len.as_secs_f64())
            .collect()
    }
}

/// `min .. max` of the slice rates, for the run's notes: how much the box
/// wandered inside one run.
pub fn range_note(rates: &[f64]) -> String {
    let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let max = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "queries_per_s slices ranged {min:.1} .. {max:.1} (n={})",
        rates.len()
    )
}

/// Slice length for a run measuring `seconds`: ten slices, never shorter
/// than half a second.
pub fn slice_len(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / 10.0).max(0.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert!((quantile(&v, 0.9) - 46.0).abs() < 1e-9);
    }

    #[test]
    fn slices_drop_the_partial_tail_and_take_the_median() {
        let mut s = Slices::new(Duration::from_millis(100));
        let t0 = s.start;
        for (ms, amount) in [(10, 5.0), (50, 5.0), (150, 30.0), (250, 10.0), (320, 99.0)] {
            s.add(t0 + Duration::from_millis(ms), amount);
        }
        let rates = s.rates(t0 + Duration::from_millis(350));
        assert_eq!(rates, vec![100.0, 300.0, 100.0]);
        assert_eq!(median(&rates), 100.0);
    }

    #[test]
    fn slices_fall_back_to_the_mean_when_none_completed() {
        let mut s = Slices::new(Duration::from_secs(10));
        let t0 = s.start;
        s.add(t0 + Duration::from_millis(500), 50.0);
        assert_eq!(s.rates(t0 + Duration::from_secs(1)), vec![50.0]);
    }
}
