//! Order statistics and ranking quality, kept in the benchmark so that what
//! it reports does not depend on the code it measures.

/// Linear-interpolation percentile (`q` in `[0, 100]`) of unsorted samples:
/// the value at rank `q/100 · (n − 1)` of the sorted samples. `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Median of unsorted samples (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples above it, so a tail figure never rests on a handful of
/// points. `None` when even the median has fewer than ten above it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per mille, so the count above stays exact.
    [999u64, 990, 950, 900, 500]
        .into_iter()
        .find(|pm| n as u64 * (1000 - pm) >= 10_000)
        .map(|pm| pm as f64 / 10.0)
}

/// Area under the ROC curve of `scores` against `labels` (`true` = anomaly,
/// expected to score higher): the Mann–Whitney probability that a random
/// anomaly outranks a random normal row, ties counting one half. `None`
/// when a class is empty, the lengths differ, or a score is NaN.
pub fn auc(scores: &[f64], labels: &[bool]) -> Option<f64> {
    if scores.len() != labels.len() || scores.iter().any(|s| s.is_nan()) {
        return None;
    }
    let n_pos = labels.iter().filter(|&&l| l).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return None;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    // Sum the (1-based, tie-averaged) ranks of the anomalies.
    let mut rank_sum = 0.0;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j + 2) as f64 / 2.0;
        rank_sum += avg_rank * order[i..=j].iter().filter(|&&k| labels[k]).count() as f64;
        i = j + 1;
    }
    let u = rank_sum - (n_pos * (n_pos + 1)) as f64 / 2.0;
    Some(u / (n_pos as f64 * n_neg as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        // Rank 0.9 · 3 = 2.7 → 3 + 0.7 · (4 − 3).
        let p90 = percentile(&xs, 90.0).unwrap();
        assert!((p90 - 3.7).abs() < 1e-12, "{p90}");
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_of_a_uniform_grid_is_exact() {
        let xs: Vec<f64> = (0..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        assert_eq!(percentile(&xs, 50.0), Some(500.0));
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(9), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn auc_of_perfect_reversed_and_tied_rankings() {
        let labels = [false, false, true, true];
        assert_eq!(auc(&[0.1, 0.2, 0.8, 0.9], &labels), Some(1.0));
        assert_eq!(auc(&[0.9, 0.8, 0.2, 0.1], &labels), Some(0.0));
        assert_eq!(auc(&[0.5; 4], &labels), Some(0.5));
    }

    #[test]
    fn auc_counts_ties_as_half() {
        // Pairs (anomaly, normal): (0.5, 0.1) win, (0.5, 0.5) tie,
        // (0.3, 0.1) win, (0.3, 0.5) loss → (2 + 0.5) / 4.
        let scores = [0.1, 0.5, 0.5, 0.3];
        let labels = [false, false, true, true];
        assert_eq!(auc(&scores, &labels), Some(0.625));
    }

    #[test]
    fn auc_matches_pair_counting() {
        let scores = [0.3, 0.7, 0.7, 0.1, 0.9, 0.4, 0.4, 0.2];
        let labels = [true, false, true, false, true, true, false, false];
        let (mut wins, mut pairs) = (0.0, 0.0);
        for (i, &li) in labels.iter().enumerate() {
            for (j, &lj) in labels.iter().enumerate() {
                if li && !lj {
                    pairs += 1.0;
                    wins += match scores[i].partial_cmp(&scores[j]).unwrap() {
                        std::cmp::Ordering::Greater => 1.0,
                        std::cmp::Ordering::Equal => 0.5,
                        std::cmp::Ordering::Less => 0.0,
                    };
                }
            }
        }
        assert_eq!(auc(&scores, &labels), Some(wins / pairs));
    }

    #[test]
    fn auc_rejects_degenerate_input() {
        assert_eq!(auc(&[0.1, 0.2], &[true, true]), None);
        assert_eq!(auc(&[0.1], &[true, false]), None);
        assert_eq!(auc(&[f64::NAN, 0.2], &[true, false]), None);
    }
}
