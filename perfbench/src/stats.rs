//! Sample summaries: the median and the tail percentile the benchmark
//! reports for every timing.
//!
//! The tail is the highest percentile on [`TAIL_LADDER`] that still has at
//! least [`MIN_BEYOND`] samples beyond it, so a "p99" is only ever quoted
//! from a population large enough to support it. With too few samples for
//! any rung the tail falls back to the median.

/// Samples that must lie strictly beyond a quoted tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail quantiles, highest first.
pub const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Nearest-rank index of quantile `q` in a sorted sample of length `n`.
fn rank(n: usize, q: f64) -> usize {
    debug_assert!(n > 0);
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The highest ladder quantile with at least [`MIN_BEYOND`] samples beyond
/// it, or the median when the sample is too small for any rung.
#[must_use]
pub fn tail_quantile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n > 0 && n - 1 - rank(n, q) >= MIN_BEYOND)
        .unwrap_or(0.5)
}

/// Nearest-rank quantile of an ascending sample (`None` when empty).
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), q)])
}

/// Median of an unsorted sample (`0` when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).p50
}

/// Median and tail of one population.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// Value at [`Self::tail_q`].
    pub tail: f64,
    /// The quantile the tail was read at (see [`tail_quantile`]).
    pub tail_q: f64,
}

impl Summary {
    /// Summarizes an unsorted sample; all zeros when it is empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(sorted.len());
        Self {
            count: sorted.len(),
            p50: quantile(&sorted, 0.5).unwrap_or(0.0),
            tail: quantile(&sorted, tail_q).unwrap_or(0.0),
            tail_q,
        }
    }

    /// `p99`-style label of the tail quantile (`p99.9`, `p95`, ...).
    #[must_use]
    pub fn tail_label(&self) -> String {
        let pct = self.tail_q * 100.0;
        if (pct - pct.round()).abs() < 1e-9 {
            format!("p{}", pct.round())
        } else {
            format!("p{pct:.1}")
        }
    }
}

/// Latency of a population mixing request families of different cost.
///
/// The median of a mixture falls between its families' modes, so it
/// jumps when the drawn family proportions shift slightly. The headline
/// figure is instead the mix-weighted mean of the per-family medians: what
/// a query drawn from the *declared* mix typically costs. It moves when
/// any family's cost moves, in proportion to that family's share, and not
/// with the sampling noise of the proportions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Mixed {
    /// The whole population.
    pub pooled: Summary,
    /// 90th percentile of the whole population.
    pub p90: f64,
    /// Per-family medians weighted by the declared mix.
    pub mix_mean: f64,
    /// Each family's summary, by family name.
    pub families: Vec<(String, Summary)>,
}

impl Mixed {
    /// Summarizes `(family, value)` samples; `weight(family)` is the
    /// family's share of the declared mix (any scale).
    #[must_use]
    pub fn of(samples: &[(String, f64)], weight: impl Fn(&str) -> f64) -> Self {
        let mut by_family: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
        for (family, v) in samples {
            by_family.entry(family.as_str()).or_default().push(*v);
        }
        let families: Vec<(String, Summary)> = by_family
            .into_iter()
            .map(|(f, v)| (f.to_string(), Summary::of(&v)))
            .collect();
        let (sum, total) = families.iter().fold((0.0, 0.0), |(sum, total), (f, s)| {
            let w = weight(f);
            (sum + w * s.p50, total + w)
        });
        let mut all: Vec<f64> = samples.iter().map(|(_, v)| *v).collect();
        all.sort_by(f64::total_cmp);
        Self {
            pooled: Summary::of(&all),
            p90: quantile(&all, 0.9).unwrap_or(0.0),
            mix_mean: if total > 0.0 { sum / total } else { 0.0 },
            families,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 (1-based), 10 beyond it; p99.9
        // would leave only 1 beyond.
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(999), 0.95);
        assert_eq!(tail_quantile(10_000), 0.999);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(199), 0.9);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(21), 0.5);
        // Too small for any rung: the median.
        assert_eq!(tail_quantile(5), 0.5);
        assert_eq!(tail_quantile(0), 0.5);
    }

    #[test]
    fn every_tail_leaves_at_least_ten_samples_beyond() {
        for n in 21..3000 {
            let q = tail_quantile(n);
            assert!(n - 1 - rank(n, q) >= MIN_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn mix_mean_weights_family_medians_by_the_declared_mix() {
        let mix = |fast: usize, slow: usize| {
            let mut v: Vec<(String, f64)> = (0..fast)
                .map(|i| ("fast".into(), 1.0 + i as f64 * 1e-3))
                .collect();
            v.extend((0..slow).map(|i| ("slow".to_string(), 4.0 + i as f64 * 1e-3)));
            Mixed::of(&v, |f| if f == "fast" { 3.0 } else { 1.0 })
        };
        let (a, b) = (mix(510, 490), mix(490, 510));
        // The pooled median jumps from one mode to the other...
        assert!(a.pooled.p50 < 2.0 && b.pooled.p50 > 3.0);
        // ...the mix-weighted family median stays put.
        assert!((a.mix_mean - b.mix_mean).abs() < 0.01);
        assert!((a.mix_mean - (3.0 * 1.255 + 4.245) / 4.0).abs() < 0.01);
        assert_eq!(a.families.len(), 2);
        assert_eq!(Mixed::of(&[], |_| 1.0).mix_mean, 0.0);
    }

    #[test]
    fn summary_reads_nearest_rank_values() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.tail_label(), "p99");
        assert_eq!(Summary::of(&[]).p50, 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let small = Summary::of(&(0..50).map(f64::from).collect::<Vec<_>>());
        assert_eq!(small.tail_label(), "p75");
    }
}
