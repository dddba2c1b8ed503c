//! Execution width for the month replay.
//!
//! `--jobs` has one job: [`crate::Scenario`]'s month replay builds its
//! tracked routing trees on up to `jobs` threads
//! ([`quicksand_bgp::FastConverge::with_jobs`], DESIGN.md §10). Each
//! tree is a pure function of (graph, origin), and the chunks are
//! contiguous over the ascending origins and concatenated in order, so
//! the build — and with it every replay output — is bitwise-identical
//! at any width, which the differential harness
//! (`tests/parallel_equivalence.rs`) enforces. Everything after the
//! build runs on the caller thread. [`Parallelism`] is excluded from
//! scenario identity, so checkpoints written at one `--jobs` value
//! resume under any other.

/// Execution-width configuration for month replays.
///
/// `serial()` (jobs = 1, the default) builds the routing trees on the
/// caller thread; `with_jobs(n)` builds them on `n` threads with
/// bitwise-identical output. Not part of scenario identity:
/// [`crate::ScenarioConfig::fingerprint`] normalizes it away, so
/// checkpoints are portable across jobs counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Parallelism {
    jobs: usize,
}

impl Parallelism {
    /// One thread (jobs = 1).
    pub fn serial() -> Self {
        Parallelism { jobs: 1 }
    }

    /// Build on `jobs` threads (clamped to at least 1).
    pub fn with_jobs(jobs: usize) -> Self {
        Parallelism { jobs: jobs.max(1) }
    }

    /// Number of threads (1 = serial).
    pub fn jobs(&self) -> usize {
        self.jobs
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_defaults_to_serial() {
        assert_eq!(Parallelism::default(), Parallelism::serial());
        assert_eq!(Parallelism::default().jobs(), 1);
        assert_eq!(Parallelism::with_jobs(0).jobs(), 1);
        assert_eq!(Parallelism::with_jobs(4).jobs(), 4);
    }
}
