//! Order statistics the benchmark reports: median, quartiles, the tail
//! percentile rule, and the geometric mean.

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method), so
/// spreads reported here match the ones computed from run results.
/// A single value is its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    match s.len() {
        0 => (0.0, 0.0),
        1 => (s[0], s[0]),
        n => {
            // Python's integer form: j = i(n+1)/4 clamped to 1..n-1, then
            // interpolate (or extrapolate, at the clamped ends) by
            // delta = i(n+1) - 4j quarters.
            let q = |i: usize| {
                let m = (n + 1) * i;
                let j = (m / 4).clamp(1, n - 1);
                let delta = m as f64 - (4 * j) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// The percentiles a tail is chosen from: the ones the daemon's own
/// `Stats` histograms report.
pub const TAIL_PERCENTILES: [u32; 3] = [50, 90, 99];

/// The tail this benchmark reports for `v`: the highest of
/// [`TAIL_PERCENTILES`] that leaves at least ten samples strictly beyond
/// its nearest-rank position (the median when none does). Returns
/// `(percentile, value)`.
pub fn tail(v: &[f64]) -> (u32, f64) {
    if v.is_empty() {
        return (50, 0.0);
    }
    let n = v.len() as u64;
    let p = tail_percentile(n);
    (p, sorted(v)[rank(p, n) as usize - 1])
}

/// [`tail`]'s choice of percentile for a sample count.
pub fn tail_percentile(n: u64) -> u32 {
    TAIL_PERCENTILES
        .into_iter()
        .rev()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
        .unwrap_or(50)
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: u32, n: u64) -> u64 {
    (u64::from(p) * n).div_ceil(100).max(1)
}

/// Geometric mean of strictly positive values; 0 for an empty slice.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 1000 samples 1..=1000: p99 sits at rank 990, ten beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99, 990.0));
        // 999 samples: p99 would leave only nine beyond; p90 leaves 99.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v), (90, 900.0));
        // 100 samples: p90 at rank 90 leaves ten.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90, 90.0));
        // Every size: the chosen rank leaves at least ten samples beyond
        // it, the next percentile up would not, and the count-only form
        // agrees.
        for n in 1..5000usize {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (p, val) = tail(&v);
            assert_eq!(p, tail_percentile(n as u64), "n={n}");
            assert_eq!(val as u64, rank(p, n as u64), "n={n} p={p}");
            if p > 50 {
                assert!(n - val as usize >= 10, "n={n} p={p}");
            }
            if let Some(&up) = TAIL_PERCENTILES.iter().find(|&&q| q > p) {
                assert!(n - (up as usize * n).div_ceil(100) < 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn tail_of_few_samples_falls_back_to_the_median() {
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v), (50, 6.0));
        assert_eq!(tail(&[]), (50, 0.0));
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }
}
