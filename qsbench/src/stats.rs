//! Order statistics for reported figures and span self time.

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`:
/// the smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples; the slack
/// keeps decimal percentiles such as 99.9 from rounding up a rank.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median and quartiles of a sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
}

/// All zeros for an empty sample (a stage that never ran).
pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    if s.is_empty() {
        return Summary {
            n: 0,
            p25: 0.0,
            median: 0.0,
            p75: 0.0,
        };
    }
    Summary {
        n: s.len(),
        p25: percentile(&s, 25.0),
        median: percentile(&s, 50.0),
        p75: percentile(&s, 75.0),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The tail figure reported next to a median: the highest of p90, p95,
/// p99 and p99.9 that has at least ten samples beyond it, or the
/// maximum (reported as p100) when the sample is too small for any.
/// All zeros for an empty sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub n: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        return Tail {
            pct: 0.0,
            value: 0.0,
            n: 0,
        };
    }
    let beyond = |p: f64| n - rank(p, n);
    let (pct, value) = [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|&p| beyond(p) >= 10)
        .map_or((100.0, s[n - 1]), |p| (p, percentile(&s, p)));
    Tail { pct, value, n }
}

/// A span's self time: its duration minus the part of `[start, end)`
/// covered by the union of its children's intervals (children may
/// overlap when they ran on different threads).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.1), 1.0);
        let sum = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((sum.n, sum.p25, sum.median, sum.p75), (3, 1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let v = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        assert_eq!(
            tail(&v(1000)),
            Tail {
                pct: 99.0,
                value: 990.0,
                n: 1000
            }
        );
        // 200 samples: p95 leaves 10 beyond.
        assert_eq!(tail(&v(200)).pct, 95.0);
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(
            tail(&v(100)),
            Tail {
                pct: 90.0,
                value: 90.0,
                n: 100
            }
        );
        // Too few for any: the maximum.
        assert_eq!(
            tail(&v(50)),
            Tail {
                pct: 100.0,
                value: 50.0,
                n: 50
            }
        );
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children (two threads) count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (20, 60), (60, 70)]), 40);
        // Children are clipped to the parent's interval.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 30)]), 3);
    }
}
