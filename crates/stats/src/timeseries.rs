//! Time series helpers: time-weighted means and plot-friendly downsampling.

use simcore::trace::TracePoint;
use simcore::SimTime;

/// A `(time, value)` series with analysis helpers.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<TracePoint>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a series from trace points (e.g. a `TraceSink` series).
    pub fn from_points(points: &[TracePoint]) -> Self {
        let mut s = TimeSeries {
            points: points.to_vec(),
        };
        s.points.sort_by_key(|p| p.time);
        s
    }

    /// Appends a point; times must be non-decreasing.
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Some(last) = self.points.last() {
            assert!(time >= last.time, "time series must be monotone");
        }
        self.points.push(TracePoint { time, value });
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The raw points.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Restricts to points with `time >= t0` (drop a warm-up).
    pub fn after(&self, t0: SimTime) -> TimeSeries {
        TimeSeries {
            points: self
                .points
                .iter()
                .copied()
                .filter(|p| p.time >= t0)
                .collect(),
        }
    }

    /// Sample mean of the values (unweighted).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.value).sum::<f64>() / self.points.len() as f64
    }

    /// Time-weighted mean, treating the series as a step function that holds
    /// each value until the next sample.
    pub fn time_weighted_mean(&self) -> f64 {
        if self.points.len() < 2 {
            return self.mean();
        }
        let mut area = 0.0;
        let mut dur = 0.0;
        for w in self.points.windows(2) {
            let dt = w[1].time.since(w[0].time).as_secs_f64();
            area += w[0].value * dt;
            dur += dt;
        }
        if dur == 0.0 {
            self.mean()
        } else {
            area / dur
        }
    }

    /// Minimum value (0 when empty).
    pub fn min(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points
            .iter()
            .map(|p| p.value)
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum value (0 when empty).
    pub fn max(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points
            .iter()
            .map(|p| p.value)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Downsamples to at most `n` points by keeping every k-th point (plus
    /// the last), for plotting.
    pub fn downsample(&self, n: usize) -> TimeSeries {
        assert!(n > 0);
        if self.points.len() <= n {
            return self.clone();
        }
        let k = self.points.len().div_ceil(n);
        let mut points: Vec<TracePoint> = self.points.iter().copied().step_by(k).collect();
        if points.last().map(|p| p.time) != self.points.last().map(|p| p.time) {
            points.push(*self.points.last().unwrap());
        }
        TimeSeries { points }
    }

    /// Fraction of points with value ≤ `threshold` (e.g. "how often was the
    /// queue empty").
    pub fn fraction_at_or_below(&self, threshold: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().filter(|p| p.value <= threshold).count() as f64
            / self.points.len() as f64
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "exact expected values: each is exactly representable or computed by the same operations as the result"
)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn push_and_stats() {
        let mut s = TimeSeries::new();
        s.push(t(0), 1.0);
        s.push(t(10), 3.0);
        s.push(t(20), 5.0);
        assert_eq!(s.len(), 3);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.min(), 1.0);
    }

    #[test]
    fn time_weighted_mean_step_function() {
        let mut s = TimeSeries::new();
        // Holds 0 for 10 ms, then 10 for 90 ms.
        s.push(t(0), 0.0);
        s.push(t(10), 10.0);
        s.push(t(100), 10.0);
        // (0*10 + 10*90) / 100 = 9.
        assert!((s.time_weighted_mean() - 9.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn non_monotone_push_panics() {
        let mut s = TimeSeries::new();
        s.push(t(10), 0.0);
        s.push(t(5), 0.0);
    }

    #[test]
    fn after_drops_warmup() {
        let mut s = TimeSeries::new();
        for i in 0..10 {
            s.push(t(i * 10), i as f64);
        }
        let tail = s.after(t(50));
        assert_eq!(tail.len(), 5);
        assert_eq!(tail.points()[0].value, 5.0);
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let mut s = TimeSeries::new();
        for i in 0..1000 {
            s.push(t(i), i as f64);
        }
        let d = s.downsample(100);
        assert!(d.len() <= 101);
        assert_eq!(d.points()[0].time, t(0));
        assert_eq!(d.points().last().unwrap().time, t(999));
    }

    #[test]
    fn fraction_at_or_below() {
        let mut s = TimeSeries::new();
        for i in 0..10 {
            s.push(t(i), i as f64);
        }
        assert!((s.fraction_at_or_below(4.0) - 0.5).abs() < 1e-12);
        assert_eq!(s.fraction_at_or_below(-1.0), 0.0);
        assert_eq!(s.fraction_at_or_below(100.0), 1.0);
    }

    #[test]
    fn empty_series_safe() {
        let s = TimeSeries::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.time_weighted_mean(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.fraction_at_or_below(0.0), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn from_points_sorts() {
        let pts = vec![
            TracePoint {
                time: t(10),
                value: 1.0,
            },
            TracePoint {
                time: t(5),
                value: 2.0,
            },
        ];
        let s = TimeSeries::from_points(&pts);
        assert_eq!(s.points()[0].time, t(5));
    }
}

impl TimeSeries {
    /// Sample autocorrelation of the values at integer lags `0..=max_lag`
    /// (index-based, so sample the series at a fixed period first).
    pub fn autocorrelation(&self, max_lag: usize) -> Vec<f64> {
        let xs: Vec<f64> = self.points.iter().map(|p| p.value).collect();
        autocorrelation(&xs, max_lag)
    }

    /// Estimates the dominant period of an (approximately) periodic series,
    /// in samples: the lag of the first local maximum of the
    /// autocorrelation after its first zero crossing. Returns `None` when
    /// no periodicity is detectable (monotone ACF or too little data).
    pub fn dominant_period(&self, max_lag: usize) -> Option<usize> {
        let acf = self.autocorrelation(max_lag);
        // First zero crossing.
        let zero = acf.iter().position(|&r| r <= 0.0)?;
        // First local max after it.
        let mut best = None;
        let mut best_v = 0.0;
        for lag in zero + 1..acf.len().saturating_sub(1) {
            if acf[lag] >= acf[lag - 1] && acf[lag] >= acf[lag + 1] && acf[lag] > best_v {
                best = Some(lag);
                best_v = acf[lag];
            }
        }
        best
    }
}

/// Sample autocorrelation function of `xs` at lags `0..=max_lag`
/// (biased estimator, normalised so `acf[0] = 1`).
pub fn autocorrelation(xs: &[f64], max_lag: usize) -> Vec<f64> {
    let n = xs.len();
    assert!(n >= 2, "need at least two samples");
    let max_lag = max_lag.min(n - 1);
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    if var == 0.0 {
        // A constant series is perfectly correlated with itself.
        return vec![1.0; max_lag + 1];
    }
    (0..=max_lag)
        .map(|lag| {
            let cov: f64 = (0..n - lag)
                .map(|i| (xs[i] - mean) * (xs[i + lag] - mean))
                .sum::<f64>()
                / n as f64;
            cov / var
        })
        .collect()
}

#[cfg(test)]
mod autocorrelation_tests {
    use super::*;

    #[test]
    fn acf_of_sine_peaks_at_period() {
        let period = 40usize;
        let xs: Vec<f64> = (0..400)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin())
            .collect();
        let acf = autocorrelation(&xs, 100);
        assert!((acf[0] - 1.0).abs() < 1e-12);
        // The biased estimator shrinks by (n - lag)/n, so expect ~0.9.
        assert!(acf[period] > 0.85, "acf at period = {}", acf[period]);
        assert!(
            acf[period / 2] < -0.75,
            "acf at half period = {}",
            acf[period / 2]
        );
    }

    #[test]
    fn dominant_period_of_sawtooth() {
        let period = 50usize;
        let mut s = TimeSeries::new();
        for i in 0..500 {
            let phase = (i % period) as f64 / period as f64;
            s.push(SimTime::from_millis(i as u64), 1.0 + phase);
        }
        let est = s.dominant_period(150).expect("periodic");
        assert!(
            (est as i64 - period as i64).abs() <= 2,
            "estimated {est} vs true {period}"
        );
    }

    #[test]
    fn constant_series_acf_is_one() {
        let acf = autocorrelation(&[5.0; 10], 3);
        assert_eq!(acf, vec![1.0; 4]);
    }

    #[test]
    fn white_noise_has_no_period() {
        let mut rng = simcore::Rng::new(9);
        let mut s = TimeSeries::new();
        for i in 0..300 {
            s.push(SimTime::from_millis(i), rng.f64());
        }
        // ACF decays immediately; any "period" found must have weak
        // correlation.
        let acf = s.autocorrelation(50);
        for &r in &acf[1..] {
            assert!(r.abs() < 0.25, "noise acf too strong: {r}");
        }
    }
}
