//! The exact-quantile histogram the experiments share.
//!
//! A [`Histogram`] keeps every observation, so its quantiles are exact
//! nearest-rank ones: it backs the client latency distribution of
//! Fig. 17, which the log2-bucketed `here-telemetry` histogram could only
//! approximate.

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// A collection of scalar observations with summary statistics; backs
/// latency and pause-time distributions.
///
/// # Examples
///
/// ```
/// use here_sim_core::metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     h.observe(v);
/// }
/// assert_eq!(h.mean(), Some(2.5));
/// assert_eq!(h.max(), Some(4.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    values: Vec<f64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram { values: Vec::new() }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Records a duration observation in seconds.
    pub fn observe_duration(&mut self, d: SimDuration) {
        self.values.push(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// `true` if nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
    }

    /// Minimum observation.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Maximum observation.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank on the sorted data.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("histogram values must not be NaN"));
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        Some(sorted[idx])
    }

    /// All raw observations in record order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.observe(v as f64);
        }
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        let median = h.quantile(0.5).unwrap();
        assert!((49.0..=51.0).contains(&median));
    }

    #[test]
    fn histogram_duration_observations() {
        let mut h = Histogram::new();
        h.observe_duration(SimDuration::from_millis(500));
        assert_eq!(h.mean(), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn quantile_out_of_range_panics() {
        Histogram::new().quantile(1.5);
    }
}
