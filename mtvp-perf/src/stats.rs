//! Sample statistics over raw samples: medians, quartiles and exact
//! nearest-rank percentiles. Nothing here buckets: a log2 histogram
//! turns a 2.0 ms latency into "p50 = 2047 us", which no comparison
//! survives.

/// Median, quartiles and count of a sample. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so a
/// spread printed here matches one recomputed from the raw values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Stat {
    /// Summarize `samples`.
    ///
    /// # Panics
    /// Panics on an empty sample: every metric has at least one.
    pub fn of(samples: &[f64]) -> Stat {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        if s.len() == 1 {
            return Stat::exact(s[0]);
        }
        let q = |i: usize| {
            // statistics.quantiles, method="exclusive", n=4.
            // Clamping `j` can make `delta` negative or larger than `n`:
            // the formula then extrapolates, exactly as Python's does.
            let (n, ld) = (4i64, s.len() as i64);
            let m = ld + 1;
            let j = (i as i64 * m / n).clamp(1, ld - 1);
            let delta = (i as i64 * m - j * n) as f64;
            let (lo, hi) = (s[j as usize - 1], s[j as usize]);
            (lo * (n as f64 - delta) + hi * delta) / n as f64
        };
        Stat {
            q1: q(1),
            median: q(2),
            q3: q(3),
            n: s.len(),
        }
    }

    /// A single exact value (a count, or a one-shot measurement).
    pub fn exact(v: f64) -> Stat {
        Stat {
            q1: v,
            median: v,
            q3: v,
            n: 1,
        }
    }

    /// Pointwise geometric mean of the statistics of several operations
    /// (the cells of a pass, say): the mean operation at each operation's
    /// median, at each one's lower quartile, and so on. `n` is the samples
    /// behind it all.
    ///
    /// # Panics
    /// Panics on an empty input.
    pub fn geomean(stats: &[Stat]) -> Stat {
        let g = |f: fn(&Stat) -> f64| geomean(&stats.iter().map(f).collect::<Vec<_>>());
        Stat {
            q1: g(|s| s.q1),
            median: g(|s| s.median),
            q3: g(|s| s.q3),
            n: stats.iter().map(|s| s.n).sum(),
        }
    }

    /// Pointwise sum of the statistics of several operations: the time of
    /// running them all, each at its median, at its lower quartile, and so
    /// on.
    pub fn sum(stats: &[Stat]) -> Stat {
        let s = |f: fn(&Stat) -> f64| stats.iter().map(f).sum();
        Stat {
            q1: s(|s| s.q1),
            median: s(|s| s.median),
            q3: s(|s| s.q3),
            n: stats.iter().map(|s| s.n).sum(),
        }
    }

    /// Every point multiplied by `k` (> 0).
    pub fn scale(self, k: f64) -> Stat {
        Stat {
            q1: self.q1 * k,
            median: self.median * k,
            q3: self.q3 * k,
            n: self.n,
        }
    }
}

/// Geometric mean — the average for rates and ratios.
///
/// # Panics
/// Panics on an empty input.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of an empty set");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Exact nearest-rank percentile `p` (0 < p <= 100) of `samples`.
///
/// # Panics
/// Panics on an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it, so a tail figure is never one outlier.
pub fn tail_percentile(n: usize) -> f64 {
    // Per mille, so the count beyond is exact integer arithmetic.
    let per_mille = [999, 990, 950, 900, 750]
        .into_iter()
        .find(|&p| n * (1000 - p) >= 10 * 1000)
        .unwrap_or(500);
    per_mille as f64 / 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Stat::of(&xs);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Stat::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Stat::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(Stat::of(&[4.0]), Stat::exact(4.0));
    }

    #[test]
    fn combined_statistics_are_pointwise() {
        let (a, b) = (Stat::of(&[1.0, 2.0, 4.0]), Stat::of(&[4.0, 8.0, 16.0]));
        let g = Stat::geomean(&[a, b]);
        for (got, want) in [(g.q1, 2.0), (g.median, 4.0), (g.q3, 8.0)] {
            assert!((got - want).abs() < 1e-12, "{got} != {want}");
        }
        assert_eq!(g.n, 6);
        let s = Stat::sum(&[a, b]).scale(0.5);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.5, 5.0, 10.0, 6));
    }

    #[test]
    fn percentiles_are_exact_and_tails_keep_ten_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 100.0), 1000.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(50), 75.0);
        assert_eq!(tail_percentile(5), 50.0);
    }
}
