//! Order statistics over per-seed timings.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The tail of a timing sample: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples beyond it, as `(value, percentile)`.
///
/// With `n` samples that is the sample of rank `n - 10` (1-based), at
/// percentile `100 * (n - 10) / n`. Where that percentile would fall below
/// the median — fewer than 20 samples — the median is reported instead, at
/// percentile 50; below 11 samples no sample has ten beyond it at all.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    if n < 2 * TAIL_BEYOND {
        return (median(xs), 50.0);
    }
    let s = sorted(xs);
    let rank = n - TAIL_BEYOND; // 1-based: exactly TAIL_BEYOND samples above it
    (s[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_the_median_below_eleven_samples() {
        for n in 1..11 {
            let xs = ramp(n);
            assert_eq!(tail(&xs), (median(&xs), 50.0), "n = {n}");
        }
    }

    #[test]
    fn tail_never_reads_below_the_median() {
        for n in 11..20 {
            let xs = ramp(n);
            assert_eq!(tail(&xs), (median(&xs), 50.0), "n = {n}");
        }
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [20usize, 21, 57, 100, 1000] {
            let xs = ramp(n);
            let (value, pct) = tail(&xs);
            let beyond = xs.iter().filter(|&&x| x > value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            assert_eq!(pct, 100.0 * (n - TAIL_BEYOND) as f64 / n as f64);
        }
        assert_eq!(tail(&ramp(100)), (90.0, 90.0));
        assert_eq!(tail(&ramp(20)), (10.0, 50.0));
    }
}
