//! Paired strategy comparison.
//!
//! The §5 experiments are *paired*: each replicate runs the identical
//! event trace through every strategy, so differences can be tested on
//! the per-replicate deltas instead of the (much noisier) pooled
//! means. This module computes that paired summary: win/loss counts,
//! mean difference with a normal 95% confidence interval, and the mean
//! ratio.

/// Summary of a paired comparison between strategies A and B.
#[derive(Debug, Clone, PartialEq)]
pub struct PairedComparison {
    /// Replicates where A < B (A "wins" when lower is better).
    pub wins_a: usize,
    /// Replicates where B < A.
    pub wins_b: usize,
    /// Exact ties.
    pub ties: usize,
    /// Mean of (A − B).
    pub mean_diff: f64,
    /// Normal-approximation 95% CI for the mean difference.
    pub ci95_diff: (f64, f64),
    /// Mean of A / mean of B (0 when B's mean is 0).
    pub ratio_of_means: f64,
    /// Number of pairs.
    pub n: usize,
}

impl PairedComparison {
    /// Whether the CI excludes zero (a significant difference under
    /// the normal approximation; fine at the paper's n = 100).
    pub fn significant(&self) -> bool {
        self.ci95_diff.0 > 0.0 || self.ci95_diff.1 < 0.0
    }
}

/// Compares paired samples. Panics if lengths differ or are empty.
pub fn paired_compare(a: &[f64], b: &[f64]) -> PairedComparison {
    assert_eq!(a.len(), b.len(), "paired samples must align");
    assert!(!a.is_empty(), "need at least one pair");
    let n = a.len();
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let mean_diff = diffs.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        diffs.iter().map(|d| (d - mean_diff).powi(2)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    let se = (var / n as f64).sqrt();
    let half = 1.96 * se;
    let mean_a = a.iter().sum::<f64>() / n as f64;
    let mean_b = b.iter().sum::<f64>() / n as f64;
    PairedComparison {
        wins_a: diffs.iter().filter(|&&d| d < 0.0).count(),
        wins_b: diffs.iter().filter(|&&d| d > 0.0).count(),
        ties: diffs.iter().filter(|&&d| d == 0.0).count(),
        mean_diff,
        ci95_diff: (mean_diff - half, mean_diff + half),
        ratio_of_means: if mean_b == 0.0 { 0.0 } else { mean_a / mean_b },
        n,
    }
}

impl std::fmt::Display for PairedComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "A<B {} / A>B {} / ties {} of {}; mean diff {:.2} \
             (95% CI {:.2}..{:.2}{}); ratio {:.3}",
            self.wins_a,
            self.wins_b,
            self.ties,
            self.n,
            self.mean_diff,
            self.ci95_diff.0,
            self.ci95_diff.1,
            if self.significant() {
                ", significant"
            } else {
                ""
            },
            self.ratio_of_means,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_paired_difference_is_significant() {
        let a: Vec<f64> = (0..50).map(|i| 10.0 + (i % 3) as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 5.0).collect();
        let c = paired_compare(&a, &b);
        assert_eq!(c.wins_a, 50);
        assert_eq!(c.wins_b, 0);
        assert!((c.mean_diff + 5.0).abs() < 1e-12);
        assert!(c.significant());
        assert!(c.ratio_of_means < 1.0);
        assert!(c.to_string().contains("significant"));
    }

    #[test]
    fn identical_samples_tie() {
        let a = vec![3.0; 20];
        let c = paired_compare(&a, &a);
        assert_eq!(c.ties, 20);
        assert_eq!(c.mean_diff, 0.0);
        assert!(!c.significant());
        assert_eq!(c.ratio_of_means, 1.0);
    }

    #[test]
    fn noisy_equal_means_are_not_significant() {
        // Alternating ±1 differences cancel.
        let a: Vec<f64> = (0..40).map(|i| 10.0 + (i % 2) as f64).collect();
        let b: Vec<f64> = (0..40).map(|i| 10.0 + ((i + 1) % 2) as f64).collect();
        let c = paired_compare(&a, &b);
        assert_eq!(c.mean_diff, 0.0);
        assert!(!c.significant());
        assert_eq!(c.wins_a + c.wins_b, 40);
    }

    #[test]
    fn single_pair_has_degenerate_ci() {
        let c = paired_compare(&[2.0], &[5.0]);
        assert_eq!(c.mean_diff, -3.0);
        assert_eq!(c.ci95_diff, (-3.0, -3.0));
        assert!(c.significant());
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_lengths_panic() {
        let _ = paired_compare(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn zero_denominator_ratio() {
        let c = paired_compare(&[1.0, 2.0], &[0.0, 0.0]);
        assert_eq!(c.ratio_of_means, 0.0);
    }
}
