//! Order statistics, derived metrics and the metric naming rule.

/// Percentiles a latency tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `pct` in `n` samples,
/// in integer per-mille so that p99.9 of 10 000 is exactly rank 9 990.
fn rank(n: usize, pct: f64) -> usize {
    let per_mille = (pct * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`.
pub fn beyond(n: usize, pct: f64) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// Nearest-rank percentile of already sorted samples.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// The highest percentile, at most `max_pct`, that has at least
/// [`MIN_BEYOND`] of `n` samples beyond it; the median when none has.
pub fn tail_pct(n: usize, max_pct: f64) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| p <= max_pct && beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Median of unsorted values (the mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A latency distribution: its median and its highest honest percentile.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Percentile the tail is taken at.
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
}

impl Summary {
    /// Summarise `samples`, reporting the tail at no more than `max_pct`.
    pub fn of(samples: &[f64], max_pct: f64) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = tail_pct(v.len(), max_pct);
        Summary {
            n: v.len(),
            p50: percentile(&v, 50.0),
            tail_pct,
            tail: percentile(&v, tail_pct),
        }
    }
}

/// Rate of a closed loop from its completion times (seconds): events
/// after the first one, over the time between first and last. Unlike a
/// count over a fixed window, this has no truncation error from the
/// request still in flight when the window closes.
pub fn rate(completions: &[f64]) -> f64 {
    match completions {
        [first, .., last] if last > first => (completions.len() - 1) as f64 / (last - first),
        _ => 0.0,
    }
}

/// Median over whole windows of `window` seconds, from the first event,
/// of the summed weight per second of the `(time, weight)` events. A
/// stall from outside the program spoils the windows it falls in, not
/// the run's rate.
pub fn windowed_rate(events: &[(f64, f64)], window: f64) -> f64 {
    let Some(first) = events.iter().map(|e| e.0).min_by(f64::total_cmp) else {
        return 0.0;
    };
    let last = events.iter().map(|e| e.0).fold(first, f64::max);
    let whole = ((last - first) / window).floor() as usize;
    if whole == 0 {
        return 0.0;
    }
    let mut sums = vec![0.0; whole];
    for &(t, w) in events {
        let k = ((t - first) / window) as usize;
        if t > first && k < whole {
            sums[k] += w;
        }
    }
    median(&sums.iter().map(|s| s / window).collect::<Vec<_>>())
}

/// Simulated-time overhead of Guardian over native, in percent.
pub fn overhead_pct(guardian_cycles: u64, native_cycles: u64) -> f64 {
    (guardian_cycles as f64 / native_cycles as f64 - 1.0) * 100.0
}

/// Guardian's own cost per launch: the per-launch wall time through the
/// daemon minus the simulator's time for the same kernel run natively.
pub fn overhead_per_launch_us(per_launch_us: f64, native_kernel_us: f64) -> f64 {
    per_launch_us - native_kernel_us
}

/// Share of requests sent that finished within `limit`; a request that
/// failed carries no latency and counts as a miss.
pub fn slo_pct(latencies: &[f64], sent: usize, limit: f64) -> f64 {
    if sent == 0 {
        return 0.0;
    }
    let met = latencies.iter().filter(|&&l| l <= limit).count();
    met as f64 * 100.0 / sent as f64
}

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and holds at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        for n in [1, 9, 20, 39, 40, 99, 100, 999, 1000, 5000, 10_000, 20_000] {
            let p = tail_pct(n, 99.9);
            if p > 50.0 {
                assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
            // No higher candidate would also qualify.
            for &q in TAIL_CANDIDATES.iter().filter(|&&q| q > p) {
                assert!(beyond(n, q) < MIN_BEYOND, "n={n}: p{q} also qualifies");
            }
        }
        assert_eq!(tail_pct(1000, 99.9), 99.0);
        assert_eq!(tail_pct(999, 99.9), 90.0);
        assert_eq!(tail_pct(10_000, 99.9), 99.9);
        assert_eq!(tail_pct(10_000, 99.0), 99.0);
        assert_eq!(tail_pct(100, 99.0), 90.0);
        assert_eq!(tail_pct(5, 99.0), 50.0);
    }

    #[test]
    fn summary_reads_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples, 99.0);
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (1000, 500.0, 99.0, 990.0));
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), MIN_BEYOND);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn rate_ignores_the_window_edges() {
        assert_eq!(rate(&[1.0, 1.5, 2.0, 3.0]), 1.5);
        assert_eq!(rate(&[1.0]), 0.0);
    }

    #[test]
    fn windowed_rate_takes_the_median_window() {
        // Ten events a second for four seconds, with one stalled second.
        let mut events: Vec<(f64, f64)> = (0..40)
            .filter(|i| !(20..30).contains(i))
            .map(|i| (f64::from(i) * 0.1, 2.0))
            .collect();
        events.push((3.95, 2.0));
        assert_eq!(windowed_rate(&events, 1.0), 18.0);
        assert_eq!(windowed_rate(&events[..3], 1.0), 0.0);
        assert_eq!(windowed_rate(&[], 1.0), 0.0);
    }

    #[test]
    fn derived_metrics() {
        assert!((overhead_pct(101_750, 100_000) - 1.75).abs() < 1e-9);
        assert_eq!(overhead_pct(100, 100), 0.0);
        assert!((overhead_per_launch_us(8.1, 0.64) - 7.46).abs() < 1e-9);
        // Two of four sent finish in time; the failed one is a miss.
        assert_eq!(slo_pct(&[1.0, 2.0, 9.0], 4, 2.0), 50.0);
        assert_eq!(slo_pct(&[], 0, 2.0), 0.0);
    }

    #[test]
    fn metric_names() {
        assert!(valid_name("grdlib.launch_call_ns"));
        assert!(valid_name("setup_s"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("p99/us"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
