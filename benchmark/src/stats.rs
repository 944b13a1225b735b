//! Order statistics shared by every workload.
//!
//! All percentiles use the nearest-rank definition: the p-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p/100 * n)`. With
//! that definition the number of samples strictly beyond a percentile is
//! exact, which is what the tail rule needs.

/// Sorts a copy of `values` (NaN-free input; `+inf` marks a failed request
/// and sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0..=100) of already sorted samples.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// Median (nearest rank, so the lower middle sample for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// The tail the benchmark reports: the highest of the usual percentiles
/// that still has at least `min_beyond` samples strictly beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile (e.g. 99.0).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// Percentiles tried, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Highest percentile of [`TAIL_PERCENTILES`] with at least `min_beyond`
/// samples beyond it; `None` when even the median has fewer.
pub fn tail(sorted: &[f64], min_beyond: usize) -> Option<Tail> {
    let n = sorted.len();
    TAIL_PERCENTILES.iter().find_map(|&pct| {
        if n == 0 {
            return None;
        }
        let beyond = n - rank(pct, n);
        (beyond >= min_beyond).then(|| Tail {
            pct,
            value: percentile(sorted, pct),
            beyond,
        })
    })
}

/// The quietest samples: each sample is `(steal, value)`, where `steal` is
/// the share of CPU time the host took from this machine while the sample
/// ran. Keeps the quiet samples (steal at most `quiet`) when there are at
/// least [`MIN_QUIET`] of them, and otherwise the third of the samples with
/// the least steal, at least [`MIN_QUIET`] (or all, when fewer). Returns
/// their values, quietest first.
///
/// Co-tenants on a shared host take CPU time away in bursts of seconds;
/// a sample that ran through one is slower by an amount unrelated to the
/// code under test. Selecting on the steal each sample saw, never on its
/// value, keeps a slow program slow.
pub fn quietest<T>(mut samples: Vec<(f64, T)>, quiet: f64) -> Vec<T> {
    let quiet = samples.iter().filter(|s| s.0 <= quiet).count();
    let keep = if quiet >= MIN_QUIET {
        quiet
    } else {
        (samples.len() / 3).max(MIN_QUIET).min(samples.len())
    };
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    samples.into_iter().take(keep).map(|s| s.1).collect()
}

/// Host steal at or below which a sample of a compute-bound workload
/// (labelling, training) counts as quiet.
pub const QUIET_STEAL: f64 = 0.02;
/// Quiet samples a measurement waits for past its planned length.
pub const MIN_QUIET: usize = 3;
/// How far past its planned length a measurement may run waiting for them.
pub const MAX_EXTENSION: f64 = 1.25;

/// Whether a measurement loop takes another sample, given the seconds
/// measured so far, the planned seconds, and the steal each sample saw so
/// far. It always fills the planned time. Past it, it keeps going while
/// fewer than [`MIN_QUIET`] samples had steal at most `quiet`, until
/// [`MAX_EXTENSION`] times the plan: a co-tenant's burst then costs run
/// time instead of accuracy.
pub fn keep_sampling(elapsed_s: f64, planned_s: f64, steals: &[f64], quiet: f64) -> bool {
    if elapsed_s < planned_s {
        return true;
    }
    let quiet = steals.iter().filter(|&&s| s <= quiet).count();
    quiet < MIN_QUIET && elapsed_s < MAX_EXTENSION * planned_s
}

/// Median of the [`quietest`] samples.
pub fn quiet_median(samples: Vec<(f64, f64)>, quiet: f64) -> f64 {
    median(&quietest(samples, quiet))
}

/// Calls `f` once per item and returns the median call time in ms.
pub fn median_ms<T, R>(items: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    let times: Vec<f64> = items
        .iter()
        .map(|item| {
            let started = std::time::Instant::now();
            std::hint::black_box(f(item));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// How late an open-loop generator sent a request, in milliseconds: zero
/// when it sent on time (a sleep never wakes early, but the clock may read
/// the due instant itself).
pub fn lateness_ms(due_s: f64, sent_s: f64) -> f64 {
    ((sent_s - due_s) * 1e3).max(0.0)
}

/// Latency of an open-loop request, measured from when it was due (not
/// when it was sent), so a generator stall counts against every request
/// queued behind it.
pub fn latency_from_due_ms(due_s: f64, done_s: f64) -> f64 {
    (done_s - due_s) * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn failures_sort_last() {
        let v = sorted(&[2.0, f64::INFINITY, 1.0]);
        assert_eq!(v, vec![1.0, 2.0, f64::INFINITY]);
        assert_eq!(percentile(&v, 100.0), f64::INFINITY);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 beyond it, p95 only 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 10).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        // 1000 samples: p99 has 10 beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 10).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        // 15 samples: only the median (7 beyond) ... is too few.
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&v, 10), None);
        let t = tail(&(1..=20).map(f64::from).collect::<Vec<_>>(), 10).unwrap();
        assert_eq!((t.pct, t.beyond), (50.0, 10));
        assert_eq!(tail(&[], 10), None);
    }

    #[test]
    fn quietest_selects_on_steal_not_on_value() {
        // Nine samples, three quiet: 10, 30 and 20 (median 20), although
        // the smallest values belong to busy samples.
        let samples = [
            (0.00, 10.0),
            (0.20, 1.0),
            (0.01, 30.0),
            (0.15, 2.0),
            (0.02, 20.0),
            (0.10, 3.0),
            (0.30, 4.0),
            (0.12, 5.0),
            (0.11, 6.0),
        ];
        assert_eq!(quietest(samples.to_vec(), 0.08), vec![10.0, 30.0, 20.0]);
        assert_eq!(quiet_median(samples.to_vec(), 0.08), 20.0);
        // Fewer than three samples: all of them.
        assert_eq!(quietest(vec![(0.5, 7.0), (0.0, 9.0)], 0.08), vec![9.0, 7.0]);
        // Twelve quiet samples: all of them.
        let calm: Vec<(f64, f64)> = (0..12)
            .map(|i| (0.001 * f64::from(i), f64::from(100 - i)))
            .collect();
        assert_eq!(quietest(calm, 0.08).len(), 12);
        // Twelve samples, two quiet: the third least stolen, four.
        let busy: Vec<(f64, f64)> = (0..12)
            .map(|i| (0.05 * f64::from(i), f64::from(100 - i)))
            .collect();
        assert_eq!(quietest(busy, 0.08), vec![100.0, 99.0, 98.0, 97.0]);
        // Six samples, one quiet: at least three.
        let few: Vec<(f64, f64)> = (0..6)
            .map(|i| (0.05 * f64::from(i), f64::from(i)))
            .collect();
        assert_eq!(quietest(few, 0.02), vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn sampling_extends_only_while_the_host_is_busy() {
        let quiet = [0.0; 9];
        let busy = [0.1; 9];
        // Within the plan: always.
        assert!(keep_sampling(5.0, 10.0, &busy, 0.08));
        assert!(keep_sampling(5.0, 10.0, &quiet, 0.08));
        // Past it: only while fewer than three samples were quiet, up to
        // the cap.
        assert!(!keep_sampling(10.0, 10.0, &quiet, 0.08));
        assert!(keep_sampling(10.0, 10.0, &busy, 0.08));
        assert!(keep_sampling(12.0, 10.0, &busy, 0.08));
        assert!(!keep_sampling(12.5, 10.0, &busy, 0.08));
        let three_quiet = [0.1, 0.0, 0.1, 0.04, 0.1, 0.08, 0.1];
        assert!(!keep_sampling(10.0, 10.0, &three_quiet, 0.08));
        assert!(keep_sampling(10.0, 10.0, &three_quiet[..5], 0.08));
    }

    #[test]
    fn lateness_and_latency_count_from_the_due_time() {
        assert_eq!(lateness_ms(1.0, 1.0), 0.0);
        assert_eq!(lateness_ms(1.0, 0.999), 0.0);
        assert!((lateness_ms(1.0, 1.0025) - 2.5).abs() < 1e-9);
        // A request sent 3 ms late that took 2 ms counts 5 ms.
        assert!((latency_from_due_ms(1.0, 1.005) - 5.0).abs() < 1e-9);
    }
}
