//! The statistics rules the benchmark reports by: which percentiles may be
//! printed, how repeated sub-windows are folded into one number, and when
//! the served-load ladder stops.

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn reportable_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The smallest sample count for which the `p`-th percentile is
/// reportable.
pub fn min_samples(p: f64) -> usize {
    (1..).find(|&n| n - ((p / 100.0) * n as f64).ceil().max(1.0) as usize >= MIN_BEYOND).unwrap()
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `p`-th percentile of the best window: the lowest value among the
/// windows that can report it on its own (`None` if none can). Noise from
/// other tenants of a shared host can only slow a window down, so the best
/// of several windows measures the code, while a regression that slows
/// every window still shows in full.
pub fn best_percentile<'a>(windows: impl IntoIterator<Item = &'a [f64]>, p: f64) -> Option<f64> {
    windows
        .into_iter()
        .filter_map(|w| {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            reportable_percentile(&w, p)
        })
        .min_by(f64::total_cmp)
}

/// The latency limit a served-load rung must meet.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    /// p99 bound on batch latency (scheduled send to last answer).
    pub p99_us: f64,
}

/// What one ladder rung produced.
#[derive(Debug, Clone, Default)]
pub struct RungOutcome {
    /// Per-batch latency in µs, in schedule order.
    pub batch_latency_us: Vec<f64>,
    /// Bodies bounced with `SERVER_BUSY`.
    pub shed: usize,
    /// Bodies answered with an error frame.
    pub errors: usize,
    /// Last scheduled send → last answer, in µs.
    pub drain_us: f64,
}

impl RungOutcome {
    /// A backlog grew when the server could not keep pace with the
    /// schedule: its last answer came more than the limit's p99 after the
    /// last scheduled send.
    pub fn backlog_growing(&self, limit: Limit) -> bool {
        self.drain_us > limit.p99_us
    }

    pub fn p99_us(&self) -> Option<f64> {
        let mut v = self.batch_latency_us.clone();
        v.sort_by(f64::total_cmp);
        reportable_percentile(&v, 99.0)
    }

    /// Whether the rung meets `limit`: a reportable p99 within the bound,
    /// nothing shed or failed, and no growing backlog.
    pub fn passes(&self, limit: Limit) -> bool {
        self.shed == 0
            && self.errors == 0
            && !self.backlog_growing(limit)
            && self.p99_us().is_some_and(|p| p <= limit.p99_us)
    }
}

/// The ladder's verdict: the highest rate before the first rung that
/// misses the limit (`None` if the first rung misses it already).
pub fn served_max(rates: &[f64], passed: &[bool]) -> Option<f64> {
    rates.iter().zip(passed).take_while(|(_, &ok)| ok).map(|(&r, _)| r).last()
}

/// Refines a ladder verdict: `lo` met the limit and `hi` missed it; each
/// of `steps` probes at the midpoint halves the gap. Returns the highest
/// rate found to meet the limit.
pub fn bisect(mut lo: f64, mut hi: f64, steps: usize, mut meets: impl FnMut(f64) -> bool) -> f64 {
    for _ in 0..steps {
        let mid = (lo + hi) / 2.0;
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(99.0), 1000);
        assert_eq!(min_samples(50.0), 20);
        assert_eq!(reportable_percentile(&ramp(999), 99.0), None);
        assert_eq!(reportable_percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(reportable_percentile(&ramp(19), 50.0), None);
        assert_eq!(reportable_percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(reportable_percentile(&[], 50.0), None);
    }

    #[test]
    fn batches_count_once_however_many_bodies_they_carry() {
        // 999 batches of 8 bodies are 7992 bodies but 999 samples: the
        // served p99 is not reportable until the thousandth batch.
        let mut rung = RungOutcome { batch_latency_us: vec![100.0; 999], ..RungOutcome::default() };
        assert_eq!(rung.p99_us(), None);
        assert!(!rung.passes(Limit { p99_us: 1e9 }));
        rung.batch_latency_us.push(100.0);
        assert_eq!(rung.p99_us(), Some(100.0));
        assert!(rung.passes(Limit { p99_us: 1e9 }));
    }

    #[test]
    fn best_percentile_is_the_best_reportable_window() {
        // Five windows of 1000 samples; window w holds w*10000 + 1..=1000,
        // listed slowest first.
        let windows: Vec<Vec<f64>> = (0..5)
            .rev()
            .map(|w| ramp(1000).iter().map(|v| v + (w * 10000) as f64).collect())
            .collect();
        assert_eq!(best_percentile(windows.iter().map(Vec::as_slice), 99.0), Some(990.0));
        // A window too short to report a p99 does not count, however fast.
        let short = [ramp(1000).iter().map(|v| v + 5.0).collect(), ramp(999)];
        assert_eq!(best_percentile(short.iter().map(Vec::as_slice), 99.0), Some(995.0));
        assert_eq!(best_percentile([ramp(999).as_slice()], 99.0), None);
        assert_eq!(best_percentile(std::iter::empty(), 50.0), None);
    }

    #[test]
    fn ladder_stops_at_the_first_miss() {
        let limit = Limit { p99_us: 100_000.0 };
        let ok = RungOutcome { batch_latency_us: vec![5_000.0; 1000], ..Default::default() };
        let slow = RungOutcome { batch_latency_us: vec![150_000.0; 1000], ..Default::default() };
        let shed = RungOutcome { shed: 1, ..ok.clone() };
        let failed = RungOutcome { errors: 1, ..ok.clone() };
        // Every batch within the limit, but the last answer came 150 ms
        // after the last send: the server fell behind.
        let growing = RungOutcome { drain_us: 150_000.0, ..ok.clone() };
        assert!(ok.passes(limit));
        assert!(growing.backlog_growing(limit));
        for bad in [&slow, &shed, &failed, &growing] {
            assert!(!bad.passes(limit));
        }
        let rates = [300.0, 600.0, 1200.0, 2400.0];
        assert_eq!(served_max(&rates, &[true, true, false, true]), Some(600.0));
        assert_eq!(served_max(&rates, &[true, true, true, true]), Some(2400.0));
        assert_eq!(served_max(&rates, &[false, true]), None);
        // 2400 met the limit and 4800 missed it; the true edge is 3700.
        let mut probes = Vec::new();
        let max = bisect(2400.0, 4800.0, 4, |r| {
            probes.push(r);
            r <= 3700.0
        });
        assert_eq!(probes, [3600.0, 4200.0, 3900.0, 3750.0]);
        assert_eq!(max, 3600.0);
        assert_eq!(bisect(2400.0, 4800.0, 0, |_| true), 2400.0);
    }
}
