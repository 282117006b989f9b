//! Order statistics over latency samples.
//!
//! A failed operation has no latency: it missed every limit, so it is kept
//! as `f64::INFINITY` and sorts above every real sample.

/// The `p`-quantile (`0 <= p <= 1`) of `samples` by linear interpolation
/// between closest ranks — the same rule as Python's
/// `statistics.quantiles(..., method="inclusive")`.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || sorted[hi] == sorted[lo] {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// How many samples lie strictly above the `p`-quantile: a percentile is
/// only reported as gated when at least ten samples lie beyond it.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    let q = quantile(samples, p);
    samples.iter().filter(|&&s| s > q).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
    }

    #[test]
    fn failures_sort_last() {
        let s = [1.0, f64::INFINITY, 2.0];
        assert_eq!(median(&s), 2.0);
        assert_eq!(quantile(&s, 1.0), f64::INFINITY);
        assert_eq!(beyond(&s, 0.5), 1);
    }
}
