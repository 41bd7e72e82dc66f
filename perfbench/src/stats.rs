//! Order statistics over timing samples.
//!
//! A failed operation enters a latency sample set as `f64::INFINITY`, so
//! it counts as missing every latency limit instead of vanishing.

/// Samples a percentile needs beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Fewest samples for which the `p`-th quantile (`0 < p < 1`) has at
/// least [`TAIL_SAMPLES`] samples beyond it.
pub fn samples_needed(p: f64) -> usize {
    assert!(p > 0.0 && p < 1.0, "quantile {p} outside (0, 1)");
    (TAIL_SAMPLES as f64 / (1.0 - p)).round() as usize
}

/// The `p`-th quantile by nearest rank, or `None` when fewer than
/// [`samples_needed`]`(p)` samples back it.
pub fn quantile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.len() < samples_needed(p) {
        return None;
    }
    let s = sorted(samples);
    // The epsilon keeps float error in `p * n` from costing a tail sample.
    let rank = (p * s.len() as f64 - 1e-9).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_a_thousand_samples_and_p95_two_hundred() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.95), 200);
        assert_eq!(samples_needed(0.5), 20);
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Nearest rank: the 990th value, with exactly 10 samples beyond it.
        assert_eq!(quantile(&xs, 0.99), Some(990.0));
        assert_eq!(xs.iter().filter(|&&x| x > 990.0).count(), TAIL_SAMPLES);
    }

    #[test]
    fn a_quantile_is_reported_only_with_ten_samples_beyond_it() {
        for p in [0.5, 0.75, 0.9, 0.95, 0.99, 0.999] {
            for n in [samples_needed(p) - 1, samples_needed(p), 3 * samples_needed(p) + 7] {
                let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
                match quantile(&xs, p) {
                    None => assert!(n < samples_needed(p), "p={p} n={n}"),
                    Some(q) => {
                        let beyond = xs.iter().filter(|&&x| x > q).count();
                        assert!(beyond >= TAIL_SAMPLES, "p={p} n={n}: {beyond} beyond");
                    }
                }
            }
            assert!(quantile(&vec![0.0; samples_needed(p)], p).is_some());
        }
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let mut xs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        for x in xs.iter_mut().skip(985) {
            *x = f64::INFINITY;
        }
        assert_eq!(quantile(&xs, 0.99), Some(f64::INFINITY));
        assert_eq!(median(&xs), 499.5);
    }
}
