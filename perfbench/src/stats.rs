//! Order statistics for reported timings.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie above the chosen rank: a tail
/// figure resting on a handful of samples is noise, so it is not reported.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    if n - rank(n, p) < MIN_BEYOND {
        return None;
    }
    Some(nearest_rank(values, p))
}

fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0).ceil().max(1.0) as usize
}

/// Nearest-rank percentile without the sample-count rule (0 for no
/// samples): for per-layer figures of short probes.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(values.len(), p).min(values.len()) - 1]
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples needed before percentile `p` may be reported.
pub fn samples_needed(p: f64) -> usize {
    (1..).find(|&n| percentile(&vec![0.0; n], p).is_some()).expect("some n suffices")
}

/// Plain median (no sample-count rule): used for set-up repeats and for
/// internal replays whose sample count the benchmark fixes itself.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the function has to sort.
        (0..n).map(|i| ((i * 7) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        // n = 40, p50 → rank 20 → value 20; 20 samples beyond.
        assert_eq!(percentile(&ramp(40), 50.0), Some(20.0));
        // n = 200, p95 → rank 190 → value 190; exactly 10 beyond.
        assert_eq!(percentile(&ramp(200), 95.0), Some(190.0));
        // n = 1000, p99 → rank 990.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
    }

    #[test]
    fn a_tail_with_fewer_than_ten_samples_beyond_is_not_reported() {
        assert_eq!(percentile(&ramp(19), 50.0), None, "rank 10 leaves 9 beyond");
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0), "rank 10 leaves 10 beyond");
        assert_eq!(percentile(&ramp(199), 95.0), None);
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(50), 0.0), None);
    }

    #[test]
    fn samples_needed_matches_the_rule() {
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(95.0), 200);
        assert_eq!(samples_needed(99.0), 1000);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
