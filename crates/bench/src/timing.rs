//! Wall-clock medians for the ratio gates in `tests/*_gate.rs`.
//!
//! Each gate compares two ways of doing the same work. The median of
//! several runs damps one-off stalls; interleaving the two sides run by
//! run decorrelates clock-frequency drift from the comparison.

use std::time::{Duration, Instant};

/// Median wall time of `runs` executions of `f`; the value `f` returns is
/// kept alive so the work cannot be optimised away.
///
/// # Panics
///
/// Panics if `runs` is zero.
pub fn median_time<T>(runs: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut times: Vec<Duration> = (0..runs).map(|_| time(&mut f)).collect();
    median(&mut times)
}

/// Median wall times of `runs` interleaved executions of `a` and `b`
/// (`a`, `b`, `a`, `b`, …), as `(median of a, median of b)`.
///
/// # Panics
///
/// Panics if `runs` is zero.
pub fn paired_median_times<A, B>(
    runs: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (Duration, Duration) {
    let mut a_times = Vec::with_capacity(runs);
    let mut b_times = Vec::with_capacity(runs);
    for _ in 0..runs {
        a_times.push(time(&mut a));
        b_times.push(time(&mut b));
    }
    (median(&mut a_times), median(&mut b_times))
}

fn time<T>(f: &mut impl FnMut() -> T) -> Duration {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed()
}

fn median(times: &mut [Duration]) -> Duration {
    times.sort_unstable();
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_count_every_run() {
        let mut calls = 0;
        median_time(5, || calls += 1);
        assert_eq!(calls, 5);
        let (mut a, mut b) = (0, 0);
        paired_median_times(3, || a += 1, || b += 1);
        assert_eq!((a, b), (3, 3));
    }
}
