//! Traffic correlation: the deanonymization decision.
//!
//! The adversary holds two captures — e.g. bytes *sent* server→exit and
//! bytes *acked* client→guard — bins both into fixed-width increments
//! over a common window, and computes the Pearson correlation of the
//! increment vectors, maximized over a small time lag (store-and-forward
//! shifts the curves). "A new correlation analysis is required here
//! since TCP acknowledgements are cumulative, and there is not a
//! one-to-one correspondence between packets seen at both ends" — the
//! cumulative→increment binning is exactly that analysis.
//!
//! [`match_circuit`] runs the decision end-to-end: given the capture at
//! one end and a set of candidate captures at the other (the true
//! circuit hidden among decoys), pick the candidate with the highest
//! lagged correlation.

use crate::capture::Capture;
use quicksand_net::{SimDuration, SimTime};
use quicksand_obs as obs;

/// Parameters of the correlation analysis.
#[derive(Clone, Debug)]
pub struct CorrelationConfig {
    /// Bin width for increment resampling.
    pub bin: SimDuration,
    /// Maximum lag to search, in bins, each direction.
    pub max_lag_bins: usize,
}

impl Default for CorrelationConfig {
    fn default() -> Self {
        CorrelationConfig {
            bin: SimDuration::from_millis(500),
            max_lag_bins: 4,
        }
    }
}

/// Pearson correlation coefficient of two equal-length vectors.
/// Returns 0.0 for degenerate inputs (length < 2 or zero variance).
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n as f64;
    let mb = b.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..n {
        let da = a[i] - ma;
        let db = b[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va * vb).sqrt()
    }
}

/// The result of a lagged correlation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorrelationResult {
    /// Best Pearson coefficient over the lag search.
    pub coefficient: f64,
    /// The lag (in bins) at which it was achieved; positive means `b`
    /// trails `a`.
    pub lag_bins: isize,
}

/// Correlate two captures over `[start, end)` with lag search.
pub fn correlate(
    a: &Capture,
    b: &Capture,
    start: SimTime,
    end: SimTime,
    config: &CorrelationConfig,
) -> CorrelationResult {
    let _span = obs::prof::span("correlate", "correlate");
    let xa = a.series.bin_increments(start, end, config.bin);
    let xb = b.series.bin_increments(start, end, config.bin);
    let mut best = CorrelationResult {
        coefficient: f64::NEG_INFINITY,
        lag_bins: 0,
    };
    let max_lag = config.max_lag_bins as isize;
    for lag in -max_lag..=max_lag {
        // Shift b by `lag` bins relative to a.
        let n = xa.len() as isize;
        let overlap = n - lag.abs();
        if overlap < 2 {
            continue;
        }
        let (a_off, b_off) = if lag >= 0 { (lag, 0) } else { (0, -lag) };
        let sa = &xa[a_off as usize..(a_off + overlap) as usize];
        let sb = &xb[b_off as usize..(b_off + overlap) as usize];
        let c = pearson(sa, sb);
        if c > best.coefficient {
            best = CorrelationResult {
                coefficient: c,
                lag_bins: lag,
            };
        }
    }
    if best.coefficient == f64::NEG_INFINITY {
        best.coefficient = 0.0;
    }
    obs::incr("correlate", "pairs", 1);
    obs::observe_bounded(
        "correlate",
        "coefficient",
        best.coefficient,
        &obs::SCORE_BOUNDS,
    );
    best
}

/// The outcome of matching a target against candidates.
#[derive(Clone, Debug)]
pub struct MatchResult {
    /// Index of the best-matching candidate.
    pub best_index: usize,
    /// Its correlation.
    pub best: CorrelationResult,
    /// Correlation of every candidate (same order as input).
    pub all: Vec<CorrelationResult>,
}

/// Match the `target` capture against `candidates`: the adversary's
/// decision of which observed flow at the far end corresponds to the
/// near-end flow. Returns `None` when `candidates` is empty.
pub fn match_circuit(
    target: &Capture,
    candidates: &[&Capture],
    start: SimTime,
    end: SimTime,
    config: &CorrelationConfig,
) -> Option<MatchResult> {
    if candidates.is_empty() {
        return None;
    }
    obs::incr("correlate", "matches", 1);
    let all: Vec<CorrelationResult> = candidates
        .iter()
        .map(|c| correlate(target, c, start, end, config))
        .collect();
    let best_index = all
        .iter()
        .enumerate()
        .max_by(|(_, x), (_, y)| {
            x.coefficient
                .partial_cmp(&y.coefficient)
                .expect("no NaN coefficients")
        })
        .map(|(i, _)| i)
        .expect("non-empty");
    Some(MatchResult {
        best_index,
        best: all[best_index],
        all,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::ByteSeries;

    fn ramp_capture(label: &str, step_bytes: u64, start_ms: u64, n: usize) -> Capture {
        // A linear ramp: `step_bytes` per 100 ms starting at start_ms.
        let mut points = Vec::new();
        let mut cum = 0;
        for i in 0..n {
            cum += step_bytes;
            points.push((SimTime::from_millis(start_ms + 100 * i as u64), cum));
        }
        Capture {
            label: label.into(),
            series: ByteSeries { points },
        }
    }

    fn bursty_capture(label: &str, bursts: &[(u64, u64)]) -> Capture {
        let mut points = Vec::new();
        let mut cum = 0;
        for &(at_ms, bytes) in bursts {
            cum += bytes;
            points.push((SimTime::from_millis(at_ms), cum));
        }
        Capture {
            label: label.into(),
            series: ByteSeries { points },
        }
    }

    #[test]
    fn pearson_basics() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pearson_length_mismatch_panics() {
        let _ = pearson(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn identical_flows_correlate_perfectly() {
        let a = bursty_capture("a", &[(100, 5000), (600, 100), (1200, 8000), (1800, 300)]);
        let cfg = CorrelationConfig {
            bin: SimDuration::from_millis(200),
            max_lag_bins: 3,
        };
        let r = correlate(&a, &a, SimTime::ZERO, SimTime::from_millis(2000), &cfg);
        assert!((r.coefficient - 1.0).abs() < 1e-9);
        assert_eq!(r.lag_bins, 0);
    }

    #[test]
    fn lag_search_recovers_shift() {
        let a = bursty_capture("a", &[(100, 5000), (600, 100), (1200, 8000), (1800, 300)]);
        // Same flow delayed by 400 ms = 2 bins.
        let b = bursty_capture("b", &[(500, 5000), (1000, 100), (1600, 8000), (2200, 300)]);
        let cfg = CorrelationConfig {
            bin: SimDuration::from_millis(200),
            max_lag_bins: 4,
        };
        let r = correlate(&a, &b, SimTime::ZERO, SimTime::from_millis(2600), &cfg);
        assert!(r.coefficient > 0.99, "coef {}", r.coefficient);
        assert_eq!(r.lag_bins, -2);
    }

    #[test]
    fn different_flows_correlate_poorly() {
        let a = bursty_capture("a", &[(100, 9000), (1500, 200), (1900, 7000)]);
        let b = ramp_capture("b", 500, 0, 20);
        let cfg = CorrelationConfig::default();
        let r = correlate(&a, &b, SimTime::ZERO, SimTime::from_millis(2000), &cfg);
        assert!(r.coefficient < 0.9);
    }

    #[test]
    fn matching_picks_the_true_flow() {
        let truth = bursty_capture(
            "true",
            &[(100, 5000), (700, 100), (1200, 8000), (1900, 2500)],
        );
        // The far-end view: same bursts, small lag.
        let observed = bursty_capture(
            "obs",
            &[(250, 5000), (850, 100), (1350, 8000), (2050, 2500)],
        );
        let decoy1 = ramp_capture("d1", 800, 0, 25);
        let decoy2 =
            bursty_capture("d2", &[(400, 12000), (1600, 400), (2300, 900)]);
        let cfg = CorrelationConfig {
            bin: SimDuration::from_millis(250),
            max_lag_bins: 3,
        };
        let result = match_circuit(
            &observed,
            &[&decoy1, &truth, &decoy2],
            SimTime::ZERO,
            SimTime::from_millis(2500),
            &cfg,
        )
        .unwrap();
        assert_eq!(result.best_index, 1);
        assert!(result.best.coefficient > 0.95);
        assert_eq!(result.all.len(), 3);
    }

    #[test]
    fn empty_candidates_yield_none() {
        let a = ramp_capture("a", 100, 0, 5);
        assert!(match_circuit(
            &a,
            &[],
            SimTime::ZERO,
            SimTime::from_secs(1),
            &CorrelationConfig::default()
        )
        .is_none());
    }
}
