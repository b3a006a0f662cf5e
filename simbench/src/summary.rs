//! Order statistics for timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

/// A timing's median plus its highest percentile that still has at least
/// ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// `(p, value)`: the `p`-th percentile, the highest one with ten or
    /// more samples above it; `None` below eleven samples.
    pub tail: Option<(u32, f64)>,
    /// Sample count.
    pub n: usize,
}

/// Summarizes `xs` (see [`Summary`]).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
#[must_use]
pub fn summarize(xs: &[f64]) -> Summary {
    let s = sorted(xs);
    let n = s.len();
    let tail = (n > 10).then(|| {
        // Index n - 11 leaves exactly ten samples above it.
        let idx = n - 11;
        let p = (100 * (idx + 1) / n) as u32;
        (p, s[idx])
    });
    Summary { median: median(&s), tail, n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!(s.tail, Some((90, 90.0)));
        assert_eq!(summarize(&xs[..10]).tail, None);
        let s = summarize(&xs[..20]);
        assert_eq!(s.tail, Some((50, 10.0)));
    }
}
