//! Order statistics over timing samples.

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of `samples`, or 0 when
/// there are none.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail of `samples`: the p90, or, when fewer than ten samples lie
/// beyond it, the highest order statistic that has ten beyond it, but
/// never below the (lower) median, which stands in for sets of twenty
/// samples or fewer. 0 when there are none.
pub fn tail(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let n = samples.len();
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let p90 = (0.9 * n as f64).ceil() as usize;
    let rank = n.saturating_sub(10).clamp(n.div_ceil(2), p90);
    v[rank - 1]
}

/// The median: the mean of the two middle values for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The geometric mean of positive values (0 when any is not positive or
/// there are none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        // p90 of 200 has 20 beyond it; of 30, rank 20 has 10 beyond it;
        // 20 or fewer fall back to the lower median.
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&w), 180.0);
        let w: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&w), 20.0);
        let w: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(tail(&w), 8.0);
        assert_eq!(tail(&v), 5.0);
        assert_eq!(tail(&[3.0]), 3.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
    }
}
