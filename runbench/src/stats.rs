//! Order statistics over raw samples.
//!
//! Every percentile the benchmark prints comes from here, computed on the
//! sorted raw samples — never from a bucketed histogram, whose bucket width
//! would quantise a loopback commit latency to whole milliseconds.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least a `q` share of all samples at or below it.
/// `None` when the slice is empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a non-empty set of values (the mean of the two middle values
/// for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Longest interval inside `[start, end]` without an event, counting the
/// edges: `times` must be sorted; events outside the range are ignored.
pub fn longest_gap(times: &[u64], start: u64, end: u64) -> u64 {
    let mut last = start;
    let mut gap = 0;
    for &t in times.iter().filter(|&&t| t > start && t <= end) {
        gap = gap.max(t - last);
        last = t;
    }
    gap.max(end - last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_gap_counts_edges() {
        assert_eq!(longest_gap(&[10, 12, 30], 0, 40), 18);
        assert_eq!(longest_gap(&[], 5, 25), 20);
        assert_eq!(longest_gap(&[3, 50], 5, 25), 20);
        assert_eq!(longest_gap(&[6, 24], 5, 25), 18);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        // Ten samples: p50 is the 5th, p99 rounds up to the 10th.
        let ten = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&ten, 0.5), Some(50));
        assert_eq!(percentile(&ten, 0.99), Some(100));
    }

    #[test]
    fn percentiles_keep_sub_millisecond_resolution() {
        // Loopback commit latencies in µs: a 1 ms histogram would print
        // both as whole milliseconds.
        let v = [3_120, 3_480, 3_905, 4_012, 6_777];
        assert_eq!(percentile(&v, 0.5), Some(3_905));
        assert_eq!(percentile(&v, 0.99), Some(6_777));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[0.25]), 0.25);
    }
}
