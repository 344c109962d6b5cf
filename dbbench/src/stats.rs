//! Order statistics shared by the workloads and the `spread` report.

/// Percentiles a latency summary considers for its tail, lowest first.
const TAIL_PERCENTILES: [f64; 3] = [90.0, 99.0, 99.9];

/// Samples a percentile needs beyond it before it is reported as the tail.
const MIN_SAMPLES_BEYOND: usize = 10;

/// 1-based nearest rank of the `q`th percentile in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    // `q` is one of a few fixed percentiles and `n` a sample count, so the
    // product is a small non-negative number; the epsilon keeps 99.9% of
    // 10,000 at rank 9,990 despite 99.9 having no exact binary form.
    let r = (q / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `q`% of the sample at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    sorted.get(rank(sorted.len(), q) - 1).copied()
}

/// Samples strictly beyond the `q`th percentile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The highest of [`TAIL_PERCENTILES`] with at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES.iter().rev().copied().find(|&q| samples_beyond(n, q) >= MIN_SAMPLES_BEYOND)
}

/// Median of an unsorted sample (nearest rank), 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0).unwrap_or(0.0)
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so the spread this program reports matches the one a
/// Python harness computes from the same runs. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative after clamping on tiny samples, as in Python.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median; `None` when the quartiles
/// are undefined or the median is 0.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2.abs() > 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Requests completed per second in the window `[t0, t1)`, from each
/// request's `(start, end)`. A request counts with the share of its own
/// duration that lies inside the window, so one that straddles either end
/// counts in part and the rate has no step at the window's ends.
pub fn window_rate(requests: impl IntoIterator<Item = (u64, u64)>, t0: u64, t1: u64) -> f64 {
    if t1 <= t0 {
        return 0.0;
    }
    let done: f64 = requests
        .into_iter()
        .map(|(start, end)| {
            if end <= start {
                return if (t0..t1).contains(&start) { 1.0 } else { 0.0 };
            }
            let inside = end.min(t1).saturating_sub(start.max(t0));
            inside as f64 / (end - start) as f64
        })
        .sum();
    done / ((t1 - t0) as f64 / 1e9)
}

/// Median and tail of one latency sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// The highest tail percentile the sample supports (see
    /// [`tail_percentile`]), if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises an unsorted sample.
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p = |q| percentile(&sorted, q).unwrap_or(0.0);
        Self {
            count: sorted.len(),
            p50: p(50.0),
            p90: p(90.0),
            p99: p(99.0),
            tail: tail_percentile(sorted.len()).map(|q| (q, p(q))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(0, 50.0), 0);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        let s = Summary::of(&(1..=1000).rev().map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.count, 1000);
        assert_eq!((s.p50, s.p90, s.p99), (500.0, 900.0, 990.0));
        assert_eq!(s.tail, Some((99.0, 990.0)));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn window_rate_counts_straddling_requests_in_part() {
        let s = 1_000_000_000;
        // Whole requests inside a 2 s window, one straddling each end by
        // half, one instantaneous inside and one outside.
        let requests =
            [(s, s + 10), (2 * s, 2 * s + 10), (s / 2, 3 * s / 2), (5 * s / 2, 7 * s / 2)];
        let mut all = requests.to_vec();
        all.extend([(2 * s, 2 * s), (4 * s, 4 * s)]);
        assert!((window_rate(all.iter().copied(), s, 3 * s) - 2.0).abs() < 1e-9);
        assert_eq!(window_rate(all, s, s), 0.0);
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
