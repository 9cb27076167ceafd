//! Order statistics over a handful of timing samples.

use buffersizing::Json;

/// Median, quartiles and sample count of one metric's samples.
///
/// With the ≈9 samples a run collects, no percentile above the third
/// quartile has ten samples beyond it, so none is reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples`. Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (exclusive method), which is what
    /// the benchmark driver computes, so the spreads agree.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let m = v.len();
        if m == 1 {
            return Summary {
                n: 1,
                q1: v[0],
                median: v[0],
                q3: v[0],
            };
        }
        let cut = |i: usize| {
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            n: m,
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }

    /// A summary holding one exact value (deterministic metrics).
    pub fn exact(value: f64) -> Summary {
        Summary {
            n: 1,
            q1: value,
            median: value,
            q3: value,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self, unit: &str) -> Json {
        Json::obj()
            .with("value", Json::Num(self.median))
            .with("unit", Json::Str(unit.to_string()))
            .with("q1", Json::Num(self.q1))
            .with("q3", Json::Num(self.q3))
            .with("n", Json::Num(self.n as f64))
    }

    pub fn from_json(j: &Json) -> Option<Summary> {
        Some(Summary {
            n: j.num("n")? as usize,
            q1: j.num("q1")?,
            median: j.num("value")?,
            q3: j.num("q3")?,
        })
    }
}

/// The `p`-th percentile (nearest rank) of `samples`; callers make sure
/// the sample supports it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty());
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9], n=4) == [2.5, 5.0, 7.5]
        let s = Summary::of(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 5.0, 7.5));
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&[3.0], 95.0), 3.0);
    }
}
