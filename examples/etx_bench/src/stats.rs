//! Order statistics over small samples.

use crate::json::Json;

/// Median; sorts in place. NaN for an empty sample.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median, quartiles and median absolute deviation of one metric's
/// per-repeat values.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub values: Vec<f64>,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub mad: f64,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
    /// them (exclusive method), so the spread this benchmark prints is the
    /// one its acceptance is judged by; with fewer than two values the
    /// quartiles collapse onto the median.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let quantile = |k: usize| {
            if n < 2 {
                return sorted.first().copied().unwrap_or(f64::NAN);
            }
            let j = (k * (n + 1) / 4).clamp(1, n - 1);
            let delta = (k * (n + 1)) as f64 - (4 * j) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        let median = percentile(&sorted, 50.0);
        let mut dev: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
        Summary {
            values: values.to_vec(),
            median,
            q1: quantile(1),
            q3: quantile(3),
            mad: self::median(&mut dev),
        }
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("median", Json::num(self.median)),
            ("q1", Json::num(self.q1)),
            ("q3", Json::num(self.q3)),
            ("mad", Json::num(self.mad)),
            ("n", Json::num(self.values.len() as f64)),
            ("values", Json::nums(&self.values)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Summary> {
        let num = |k: &str| j.get(k).and_then(Json::as_f64);
        Some(Summary {
            values: j.get("values")?.items().iter().filter_map(Json::as_f64).collect(),
            median: num("median")?,
            q1: num("q1")?,
            q3: num("q3")?,
            mad: num("mad")?,
        })
    }
}
