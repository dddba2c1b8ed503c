//! Host-speed reference for the end-to-end times.
//!
//! The benchmark shares a host whose speed drifts with other tenants'
//! load: a fixed register-only loop took 1.1 to 2.0 ms from one
//! ten-second window to the next, the program's stages slowed and sped
//! up with it, and the measured times of ten 25-second runs of the same
//! code spread by up to 40% of their median. Every end-to-end time is
//! therefore measured beside that loop, on the same thread, and
//! reported at the loop's nominal speed: seconds measured ×
//! (`NOMINAL_S` ÷ the loop's time)^e, where the exponent e says how
//! closely the operation's time follows the loop's ([`CORE_BOUND`],
//! [`PARTLY_CORE_BOUND`]). A change to the program moves the figure in
//! the same proportion as the measured time; a change of host speed
//! moves both and cancels out. The loop touches no memory, so the
//! program's heap and cache state cannot reach it. The seconds as
//! measured are reported next to every scaled figure.

use crate::stats;
use std::time::Instant;

/// The loop's time on the baseline host in its quieter spells
/// (README.md, "Baseline"), so that scaled figures read as seconds
/// there.
pub const NOMINAL_S: f64 = 0.00125;

/// Exponent for work that runs at the core's speed: medium-tier builds,
/// months, statistics and resumes, whose working set is a few tens of
/// MB. Between runs of the same code their times moved with the loop's
/// in full.
pub const CORE_BOUND: f64 = 1.0;

/// Exponent for work that waits on more than the core: the large tier
/// (~800 MB of live heap, mostly waiting on memory) and the supervised
/// fleet (fsync'd checkpoints, cells on a worker thread). Their times
/// followed the loop's only in part, and scaling them in full made the
/// spread between runs wider, not narrower (README.md, "Host speed").
pub const PARTLY_CORE_BOUND: f64 = 0.65;

/// Multiply-add steps of one run of the loop.
const STEPS: u64 = 2_000_000;

/// Seconds one run of the reference loop takes: a chain of dependent
/// multiply-adds on one register, so its time is the core's speed alone.
fn tick() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(1u64);
    let mut acc = 0u64;
    for i in 0..STEPS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        acc ^= x >> 17;
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Run `f` between two sets of `n` runs of the loop: its output, and the
/// median loop time over both sets.
pub fn bracket<R>(n: usize, f: impl FnOnce() -> R) -> (R, f64) {
    let mut ticks: Vec<f64> = (0..n).map(|_| tick()).collect();
    let out = f();
    ticks.extend((0..n).map(|_| tick()));
    (out, stats::median(&ticks))
}

/// `seconds`, measured beside a loop time of `reference_s`, at the
/// loop's nominal speed, for work whose time follows the loop's with
/// `exponent`.
pub fn scale(seconds: f64, reference_s: f64, exponent: f64) -> f64 {
    seconds * (NOMINAL_S / reference_s).powf(exponent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_relative_to_the_nominal_loop_time() {
        assert_eq!(scale(2.0, NOMINAL_S, CORE_BOUND), 2.0);
        assert_eq!(scale(2.0, NOMINAL_S, PARTLY_CORE_BOUND), 2.0);
        // A host running at half speed doubles the loop's time and, for
        // core-bound work, the operation's.
        assert!((scale(4.0, 2.0 * NOMINAL_S, CORE_BOUND) - 2.0).abs() < 1e-12);
        // Work that follows the loop partly is corrected partly.
        let partly = scale(4.0, 2.0 * NOMINAL_S, PARTLY_CORE_BOUND);
        assert!((partly - 4.0 * 0.5f64.powf(PARTLY_CORE_BOUND)).abs() < 1e-12);
        assert!(partly > 2.0 && partly < 4.0);
    }

    #[test]
    fn bracket_runs_the_work_once_between_the_loops() {
        let mut calls = 0;
        let (out, r) = bracket(2, || {
            calls += 1;
            7
        });
        assert_eq!((out, calls), (7, 1));
        assert!(r > 0.0 && r.is_finite());
    }
}
