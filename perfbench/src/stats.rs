//! Order statistics over latency samples.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (sorted in place).
/// `None` for an empty sample.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    Some(values[lo] + (values[hi] - values[lo]) * frac)
}

/// Median of `values`, or 0 for an empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the definition the benchmark's
/// spread gate uses. Needs at least two values.
pub fn quartiles(values: &mut [f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let at = |j: usize| -> f64 {
        // statistics.quantiles, method="exclusive": m = n + 1.
        let m = (n + 1) as f64;
        let pos = j as f64 * m / 4.0;
        let i = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - i as f64;
        values[i - 1] + (values[i] - values[i - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Mean of `values`, or 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&mut v, 0.5), Some(3.0));
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut v, 1.0), Some(5.0));
        assert_eq!(quantile(&mut v, 0.25), Some(2.0));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&mut [2.0, 1.0]), Some((0.75, 2.25)));
    }
}
