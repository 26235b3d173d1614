//! Order statistics over iteration samples, and the spread between two
//! quartiles the acceptance rule is written in.

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks). `values` need not be sorted.
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median of integer samples without interpolation (the lower middle
/// one), in place: used for per-op latencies, where an iteration holds
/// hundreds of thousands of samples.
pub fn median_u64(values: &mut [u64]) -> u64 {
    assert!(!values.is_empty(), "median of no samples");
    let mid = (values.len() - 1) / 2;
    *values.select_nth_unstable(mid).1
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns
/// (the exclusive method), which the acceptance rule is stated in.
pub fn py_quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| -> f64 {
        // Cut point i of 4 under the exclusive method: position
        // i*(n+1)/4 in one-based ranks, clamped to the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the acceptance rule bounds.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = py_quartiles(values);
    (q3 - q1).abs() / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(median_u64(&mut [9, 1, 5, 7]), 5);
    }

    #[test]
    fn python_quartiles_match_the_reference() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(py_quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(py_quartiles(&[4.0, 1.0, 2.0]), (1.0, 2.0, 4.0));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
