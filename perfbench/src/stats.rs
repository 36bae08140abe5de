//! Order statistics.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`): the smallest sample
/// with at least `p`% of the samples at or below it. `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The nearest-rank median; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// [`percentile`] with 0 for no samples.
pub fn pct_or_zero(samples: &[f64], p: f64) -> f64 {
    percentile(samples, p).unwrap_or(0.0)
}
