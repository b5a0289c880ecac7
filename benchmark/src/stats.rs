//! Order statistics over timing samples, and the quartile spread the acceptance
//! rule uses.

/// Nearest-rank percentile (`p` in `(0, 1]`) of an already sorted slice.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and 99th percentile of `samples`, which it sorts in place.
pub fn p50_p99(samples: &mut [u64]) -> (u64, u64) {
    samples.sort_unstable();
    (
        percentile_sorted(samples, 0.50),
        percentile_sorted(samples, 0.99),
    )
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points as Python's `statistics.quantiles(values, n=4)`
/// gives them (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(p50_p99(&mut s), (50, 99));
        assert_eq!(percentile_sorted(&[7u64], 0.99), 7);
        assert_eq!(percentile_sorted(&[1u64, 2, 3, 4], 0.5), 2);
        assert_eq!(percentile_sorted(&[1u64, 2, 3, 4], 1.0), 4);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        assert_eq!(spread(&v), 1.0);
        assert_eq!(median_f64(&v), 5.5);
    }
}
