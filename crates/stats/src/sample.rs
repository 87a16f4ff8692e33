//! Exact sample-based quantiles and the paper's boxplot summary.

use serde::Serialize;

/// A collected sample supporting exact quantiles.
///
/// Values are cached and sorted lazily; the typical experiment collects
/// 10²–10⁶ values, well within memory.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    values: Vec<f64>,
    sorted: bool,
}

/// Five-number summary with whiskers as defined in the paper's Fig. 4
/// caption: `S` is the smallest sample ≥ Q1 − 1.5·IQR, `L` the largest
/// sample ≤ Q3 + 1.5·IQR.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct BoxSummary {
    /// Lower whisker (smallest sample above Q1 − 1.5·IQR).
    pub s: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Upper whisker (largest sample below Q3 + 1.5·IQR).
    pub l: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of samples.
    pub count: usize,
}

impl Sample {
    /// Empty sample.
    pub fn new() -> Self {
        Sample {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Empty sample with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Sample {
            values: Vec::with_capacity(cap),
            sorted: true,
        }
    }

    /// Build from existing values.
    pub fn from_values(values: Vec<f64>) -> Self {
        Sample {
            values,
            sorted: false,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample {x}");
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw values in insertion order (unsorted view not guaranteed
    /// after a quantile query).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
            self.sorted = true;
        }
    }

    /// Exact quantile with linear interpolation between order statistics
    /// (type-7 / NumPy default). `q` in `[0, 1]`. Panics if empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!(!self.values.is_empty(), "quantile of empty sample");
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        self.ensure_sorted();
        let n = self.values.len();
        if n == 1 {
            return self.values[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.values[lo] * (1.0 - frac) + self.values[hi] * frac
    }

    /// Median.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// `p`-th percentile, `p` in `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.quantile(p / 100.0)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Smallest observation.
    pub fn min(&mut self) -> f64 {
        self.ensure_sorted();
        *self.values.first().expect("min of empty sample")
    }

    /// Largest observation.
    pub fn max(&mut self) -> f64 {
        self.ensure_sorted();
        *self.values.last().expect("max of empty sample")
    }

    /// Boxplot summary following the paper's Fig. 4 whisker definition.
    pub fn box_summary(&mut self) -> BoxSummary {
        assert!(!self.values.is_empty(), "summary of empty sample");
        let q1 = self.quantile(0.25);
        let median = self.quantile(0.5);
        let q3 = self.quantile(0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        // values are sorted after quantile calls
        let s = *self
            .values
            .iter()
            .find(|&&v| v >= lo_fence)
            .unwrap_or(&self.values[0]);
        let l = *self
            .values
            .iter()
            .rev()
            .find(|&&v| v <= hi_fence)
            .unwrap_or(self.values.last().unwrap());
        BoxSummary {
            s,
            q1,
            median,
            q3,
            l,
            mean: self.mean(),
            count: self.values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_sequence() {
        let mut s = Sample::from_values((1..=5).map(|x| x as f64).collect());
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.quantile(0.25), 2.0);
        assert_eq!(s.quantile(0.75), 4.0);
    }

    #[test]
    fn quantile_interpolates() {
        let mut s = Sample::from_values(vec![0.0, 10.0]);
        assert_eq!(s.quantile(0.5), 5.0);
        assert_eq!(s.quantile(0.1), 1.0);
    }

    #[test]
    fn percentile_alias() {
        let mut s = Sample::from_values((0..=100).map(|x| x as f64).collect());
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(50.0), 50.0);
    }

    #[test]
    fn single_value() {
        let mut s = Sample::from_values(vec![7.0]);
        assert_eq!(s.median(), 7.0);
        assert_eq!(s.quantile(0.99), 7.0);
        let b = s.box_summary();
        assert_eq!(b.s, 7.0);
        assert_eq!(b.l, 7.0);
        assert_eq!(b.count, 1);
    }

    #[test]
    fn box_summary_excludes_outliers_from_whiskers() {
        // 1..=100 plus one extreme outlier.
        let mut v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        v.push(10_000.0);
        let mut s = Sample::from_values(v);
        let b = s.box_summary();
        assert_eq!(b.s, 1.0);
        // Upper whisker must not be the outlier.
        assert!(b.l <= 100.0, "whisker {} includes outlier", b.l);
        assert!(b.q1 < b.median && b.median < b.q3);
    }

    #[test]
    fn mean_and_extrema() {
        let mut s = Sample::new();
        for x in [3.0, 1.0, 2.0] {
            s.push(x);
        }
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
    }
}
