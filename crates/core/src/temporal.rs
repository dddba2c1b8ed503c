//! The §3.1 analytical model of anonymity degradation over time.
//!
//! "Let us suppose that the probability of any AS being malicious is
//! `f`, and that the set of malicious ASes collude. Also, let us suppose
//! that there are `n` AS-level paths between a client and a particular
//! guard relay comprising `x` distinct ASes. Then, over time, the
//! adversary's probability of observing the client's communication with
//! the guard approaches `1 − (1 − f)^x` … The average probability of an
//! adversary observing communications between a client and any of the
//! `l` guard relays is computed as `1 − (1 − f)^(l·x)`."
//!
//! Besides the closed forms, this module provides the end-to-end variant
//! (entry *and* exit segments must both be observed, with possibly
//! overlapping AS sets) and a Monte-Carlo validator used by tests and
//! the `model` experiment.

use quicksand_net::Asn;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeSet;

/// `1 − (1 − f)^x`: probability at least one of `x` distinct ASes is
/// malicious.
///
/// # Panics
/// Panics if `f` is outside `[0, 1]`.
pub fn compromise_probability(f: f64, x: usize) -> f64 {
    assert!((0.0..=1.0).contains(&f), "f out of range");
    1.0 - (1.0 - f).powi(x as i32)
}

/// `1 − (1 − f)^(l·x)`: the multi-guard amplification (the paper's
/// average over `l` guard relays with `x` distinct ASes each).
pub fn multi_guard_probability(f: f64, x: usize, l: usize) -> f64 {
    compromise_probability(f, x * l)
}

/// End-to-end compromise probability for a *colluding* adversary that
/// must observe both the entry segment (AS set `entry`) and the exit
/// segment (AS set `exit`), with i.i.d. malicious probability `f` per
/// AS. By inclusion–exclusion over the union:
///
/// `P = 1 − (1−f)^|E| − (1−f)^|X| + (1−f)^|E∪X|`.
pub fn end_to_end_probability(f: f64, entry: &BTreeSet<Asn>, exit: &BTreeSet<Asn>) -> f64 {
    assert!((0.0..=1.0).contains(&f), "f out of range");
    let e = entry.len() as i32;
    let x = exit.len() as i32;
    let u = entry.union(exit).count() as i32;
    let q = 1.0 - f;
    1.0 - q.powi(e) - q.powi(x) + q.powi(u)
}

/// Monte-Carlo estimate of [`end_to_end_probability`], for validating
/// the closed form: each trial flips a malicious coin per AS and checks
/// both segments. Returns the observed frequency.
pub fn monte_carlo_end_to_end(
    f: f64,
    entry: &BTreeSet<Asn>,
    exit: &BTreeSet<Asn>,
    trials: u32,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let union: Vec<Asn> = entry.union(exit).copied().collect();
    let mut hits = 0u32;
    for _ in 0..trials {
        let malicious: BTreeSet<Asn> = union
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(f))
            .collect();
        if !malicious.is_disjoint(entry) && !malicious.is_disjoint(exit) {
            hits += 1;
        }
    }
    f64::from(hits) / f64::from(trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[u32]) -> BTreeSet<Asn> {
        v.iter().map(|&a| Asn(a)).collect()
    }

    #[test]
    fn closed_form_basics() {
        assert_eq!(compromise_probability(0.0, 10), 0.0);
        assert_eq!(compromise_probability(1.0, 1), 1.0);
        assert_eq!(compromise_probability(0.5, 0), 0.0);
        assert!((compromise_probability(0.1, 1) - 0.1).abs() < 1e-12);
        // Exponential growth in x: quickly approaches 1.
        assert!(compromise_probability(0.05, 50) > 0.9);
        // Monotone in x.
        assert!(
            compromise_probability(0.1, 5) < compromise_probability(0.1, 10)
        );
    }

    #[test]
    fn multi_guard_amplifies() {
        let single = compromise_probability(0.05, 8);
        let multi = multi_guard_probability(0.05, 8, 3);
        assert!(multi > single);
        assert!((multi - compromise_probability(0.05, 24)).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_reduces_to_intersection_logic() {
        // Disjoint segments: independent events.
        let e = set(&[1, 2, 3]);
        let x = set(&[4, 5]);
        let f = 0.2;
        let expect = compromise_probability(f, 3) * compromise_probability(f, 2);
        assert!((end_to_end_probability(f, &e, &x) - expect).abs() < 1e-12);
        // Identical segments: equals single-segment probability.
        let p = end_to_end_probability(f, &e, &e);
        assert!((p - compromise_probability(f, 3)).abs() < 1e-12);
        // Empty segment: zero.
        assert_eq!(end_to_end_probability(f, &set(&[]), &x), 0.0);
    }

    #[test]
    fn monte_carlo_agrees_with_closed_form() {
        let e = set(&[1, 2, 3, 4]);
        let x = set(&[3, 4, 5, 6, 7]);
        let f = 0.15;
        let closed = end_to_end_probability(f, &e, &x);
        let mc = monte_carlo_end_to_end(f, &e, &x, 200_000, 42);
        assert!(
            (closed - mc).abs() < 0.01,
            "closed {closed:.4} vs mc {mc:.4}"
        );
    }

    #[test]
    #[should_panic(expected = "f out of range")]
    fn invalid_f_panics() {
        let _ = compromise_probability(1.5, 3);
    }
}
