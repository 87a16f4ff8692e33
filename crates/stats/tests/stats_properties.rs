//! Property-based tests for statistics invariants.

use proptest::prelude::*;
use slingshot_stats::{median_confidence_interval, Histogram, RateSeries, Sample};

proptest! {
    /// Quantiles are monotone in q and bounded by the extrema.
    #[test]
    fn quantiles_monotone_bounded(
        values in proptest::collection::vec(-1e6f64..1e6, 2..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let mut s = Sample::from_values(values);
        let (qa, qb) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let va = s.quantile(qa);
        let vb = s.quantile(qb);
        prop_assert!(va <= vb + 1e-9);
        prop_assert!(s.min() - 1e-9 <= va && vb <= s.max() + 1e-9);
    }

    /// Box summary invariants: quartiles are ordered, whiskers are actual
    /// sample values within the 1.5·IQR fences (the paper's Fig. 4
    /// definition). Note S ≤ Q1 is *not* guaranteed for tiny samples:
    /// "the smallest sample above the fence" can exceed an interpolated
    /// quartile when no sample falls between them.
    #[test]
    fn box_summary_ordered(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let sorted_contains = |needle: f64, hay: &[f64]| hay.contains(&needle);
        let snapshot = values.clone();
        let mut s = Sample::from_values(values);
        let b = s.box_summary();
        prop_assert!(b.q1 <= b.median + 1e-9);
        prop_assert!(b.median <= b.q3 + 1e-9);
        prop_assert!(sorted_contains(b.s, &snapshot));
        prop_assert!(sorted_contains(b.l, &snapshot));
        let iqr = b.q3 - b.q1;
        prop_assert!(b.s >= b.q1 - 1.5 * iqr - 1e-6);
        prop_assert!(b.l <= b.q3 + 1.5 * iqr + 1e-6);
        prop_assert!(b.s <= b.l + 1e-9);
    }

    /// Histogram conserves every observation.
    #[test]
    fn histogram_conserves_mass(values in proptest::collection::vec(-10.0f64..20.0, 0..300)) {
        let mut h = Histogram::new(0.0, 10.0, 16);
        for &v in &values {
            h.record(v);
        }
        let binned: u64 = h.bins().iter().sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), values.len() as u64);
    }

    /// Median CI brackets the sample median.
    #[test]
    fn ci_brackets_median(values in proptest::collection::vec(0.0f64..1e6, 3..300)) {
        let mut s = Sample::from_values(values);
        let med = s.median();
        let (lo, hi) = median_confidence_interval(&mut s, 0.95);
        prop_assert!(lo <= med + 1e-9 && med <= hi + 1e-9);
    }

    /// RateSeries conserves total recorded amount.
    #[test]
    fn rate_series_conserves(points in proptest::collection::vec((0u64..10_000, 0.0f64..100.0), 0..200)) {
        let mut rs = RateSeries::new(64);
        let mut expected = 0.0;
        for &(t, amt) in &points {
            rs.record(t, amt);
            expected += amt;
        }
        prop_assert!((rs.total() - expected).abs() < 1e-6);
    }
}
