//! Order statistics over timing samples.

/// The median of `samples` (mean of the middle pair for even counts);
/// 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`; 0 for an
/// empty slice. With fewer than `1 / (1 - q)` samples this is the maximum.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, over consecutive windows of at least `window` samples
/// (in the order given), of `statistic` of each window. The samples are
/// split into `len / window` windows of near-equal size; with fewer than
/// `2 * window` samples this is `statistic` of them all. A slowdown of
/// the host that covers less than half of the windows does not set it.
pub fn windowed(samples: &[f64], window: usize, statistic: impl Fn(&[f64]) -> f64) -> f64 {
    let windows = (samples.len() / window.max(1)).max(1);
    let bounds = |j: usize| j * samples.len() / windows;
    let per_window: Vec<f64> = (0..windows)
        .map(|j| statistic(&samples[bounds(j)..bounds(j + 1)]))
        .collect();
    median(&per_window)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), 990.0);
        assert_eq!(percentile(&samples, 0.5), 500.0);
        assert_eq!(percentile(&[5.0, 1.0], 0.99), 5.0);
    }

    #[test]
    fn windowed_is_the_median_of_window_statistics() {
        let p99 = |w: &[f64]| percentile(w, 0.99);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(windowed(&samples, 1000, p99), 990.0);
        assert_eq!(windowed(&samples, 600, median), 500.5);
        // Three windows of 100; one slow window does not move the result.
        let mut samples: Vec<f64> = (0..300).map(|i| f64::from(i % 100 + 1)).collect();
        samples[100..200].iter_mut().for_each(|s| *s *= 10.0);
        assert_eq!(windowed(&samples, 100, p99), 99.0);
        assert_eq!(windowed(&samples, 100, median), 50.5);
        assert_eq!(percentile(&samples, 0.99), 970.0);
        assert_eq!(windowed(&[], 100, p99), 0.0);
    }

    #[test]
    fn share_guards_zero() {
        assert_eq!(share(1.0, 0.0), 0.0);
        assert_eq!(share(1.0, 4.0), 0.25);
    }
}
