//! Statistics the benchmark computes itself: percentiles, medians of
//! repeats and q-error. None of it calls `qcfe_core::metrics`, so a fault
//! there cannot hide in the benchmark's own figures.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `values`, interpolated linearly
/// between the two nearest ranks. `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The q-error of one estimate: how many times larger the larger of
/// `actual` and `estimate` is than the smaller. Both must be positive.
pub fn q_error(actual: f64, estimate: f64) -> f64 {
    assert!(
        actual > 0.0 && estimate > 0.0,
        "q-error needs positive values, got actual {actual} and estimate {estimate}"
    );
    actual.max(estimate) / actual.min(estimate)
}

/// Element-wise [`q_error`] over paired slices.
pub fn q_errors(actuals: &[f64], estimates: &[f64]) -> Vec<f64> {
    assert_eq!(actuals.len(), estimates.len(), "one estimate per actual");
    actuals
        .iter()
        .zip(estimates)
        .map(|(&a, &e)| q_error(a, e))
        .collect()
}

/// Timings of the same fixed piece of work repeated across a run. The
/// benchmark reports medians over these, never one pass.
#[derive(Debug, Default, Clone)]
pub struct Repeats {
    samples: Vec<f64>,
}

impl Repeats {
    /// Record one repeat.
    pub fn push(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// The median over every repeat recorded so far.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    /// Append every repeat of `other`.
    pub fn extend(&mut self, other: &Repeats) {
        self.samples.extend_from_slice(&other.samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        // rank 0.99 * 3 = 2.97 → 3 + 0.97 * (4 - 3)
        assert!((percentile(&v, 99.0) - 3.97).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0, 9.0]), 4.0);
        let mut r = Repeats::default();
        for v in [0.110, 0.070, 0.072, 0.108, 0.071] {
            r.push(v);
        }
        assert_eq!(r.median(), 0.072);
        let mut more = Repeats::default();
        more.push(0.2);
        more.push(0.3);
        r.extend(&more);
        assert_eq!(r.median(), 0.108);
    }

    #[test]
    fn q_error_is_symmetric_and_at_least_one() {
        assert_eq!(q_error(10.0, 5.0), 2.0);
        assert_eq!(q_error(5.0, 10.0), 2.0);
        assert_eq!(q_error(3.0, 3.0), 1.0);
        // An estimate clamped to the 1e-6 ms floor against a 1.2 ms query.
        assert!((q_error(1.2, 1e-6) - 1.2e6).abs() < 1e-3);
        assert_eq!(q_errors(&[1.0, 8.0], &[2.0, 2.0]), vec![2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn q_error_rejects_non_positive_estimates() {
        q_error(1.0, 0.0);
    }
}
