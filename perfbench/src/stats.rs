//! Sample summaries: percentiles, windowed repetitions and the rule that says
//! which tail percentile a sample can support.

/// Fewest samples that must lie strictly beyond a percentile before the
/// benchmark will report it.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest last.
const LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.5, 99.9];

/// Nearest-rank percentile `p` (0–100) of an ascending sample; 0 when
/// the sample is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n > 0`. The
/// small slack keeps `99.9 / 100 * 10_000` from rounding up past 9990.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank percentile `p` of
/// a sample of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Whether a sample of `n` has at least [`MIN_BEYOND`] values beyond
/// percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// The highest percentile on the ladder that a sample of `n` supports,
/// or `None` when even the median has fewer than ten samples beyond it.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&p| supports(n, p))
}

/// Most windows a run's percentiles are taken over.
pub const MAX_WINDOWS: usize = 9;

/// Percentile `p` of a sample given in schedule order: the
/// [`lower_quartile`], over up to [`MAX_WINDOWS`] contiguous windows of
/// equal size, of each window's percentile. Windows shrink in number
/// until each supports `p`; a sample too small for that is taken whole.
/// Returns the value and the number of windows.
pub fn windowed_percentile(ordered: &[f64], p: f64) -> (f64, usize) {
    let n = ordered.len();
    let mut windows = MAX_WINDOWS;
    while windows > 1 && !supports(n / windows, p) {
        windows -= 1;
    }
    let per = n / windows.max(1);
    let values: Vec<f64> = (0..windows)
        .map(|i| {
            let end = if i + 1 == windows { n } else { (i + 1) * per };
            let mut w = ordered[i * per..end].to_vec();
            w.sort_by(f64::total_cmp);
            percentile(&w, p)
        })
        .collect();
    (lower_quartile(&values), windows)
}

/// The value a run reports for a measurement it repeats (set-ups,
/// windows): the lower quartile of the repetitions. Other guests on a
/// shared host only ever add time, in bursts of seconds, so the least
/// disturbed repetitions estimate the program's own cost most steadily;
/// a change to the program moves every repetition, and this with them.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 25.0)
}

/// A summarized timing sample (values in the caller's unit).
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Summary {
    pub fn of(mut values: Vec<f64>) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        values.sort_by(f64::total_cmp);
        Self {
            n: values.len(),
            p50: percentile(&values, 50.0),
            p99: percentile(&values, 99.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples leaves exactly ten beyond it.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        // p95 needs 200, the median 20.
        assert!(supports(200, 95.0));
        assert!(!supports(199, 95.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn highest_supported_percentile_climbs_with_sample_size() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(250), Some(95.0));
        assert_eq!(highest_supported(2500), Some(99.5));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn windowed_percentile_reports_the_lower_quartile_window() {
        // Nine windows of 1000; one holds a stall that a whole-sample p99
        // would report.
        let mut v = vec![1.0; 9000];
        for x in &mut v[1000..1100] {
            *x = 50.0;
        }
        let mut sorted = v.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(percentile(&sorted, 99.0), 50.0);
        assert_eq!(windowed_percentile(&v, 99.0), (1.0, 9));
        // Too few samples for two supported windows: one window.
        assert_eq!(windowed_percentile(&v[..1999], 99.0).1, 1);
        assert_eq!(windowed_percentile(&v[..2000], 99.0).1, 2);
        assert_eq!(windowed_percentile(&[], 99.0), (0.0, 1));
        // Window medians 1..=9: the third lowest is reported.
        let w: Vec<f64> = (1..=9).flat_map(|k| vec![k as f64; 100]).collect();
        assert_eq!(windowed_percentile(&w, 50.0), (3.0, 9));
    }

    #[test]
    fn summary_and_lower_quartile() {
        let s = Summary::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.p99), (3, 2.0, 3.0));
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.0);
        assert_eq!(
            lower_quartile(&[9.0, 5.0, 1.0, 7.0, 3.0, 2.0, 8.0, 4.0, 6.0]),
            3.0
        );
        assert_eq!(lower_quartile(&[]), 0.0);
    }
}
