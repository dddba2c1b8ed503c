//! Checkpoint/restore for mid-horizon pipeline state.
//!
//! A month-scale replay (churn generation → collector observe → clean
//! → monitor ingest) is minutes of compute; RAPTOR-scale parameter
//! sweeps multiply that across scenarios and seeds. Before this crate,
//! a crash, OOM, or operator interrupt anywhere inside `run_month`
//! discarded the whole run. This crate makes the run itself
//! crash-recoverable:
//!
//! * [`PipelineSnapshot`] — the irreducible mid-run state (seed +
//!   config hash, churn cursor, down links, collector state, update
//!   log, optional monitor state, metrics registry) with a versioned,
//!   CRC-checksummed wire format ([`PipelineSnapshot::encode`] /
//!   [`PipelineSnapshot::decode`]).
//! * [`CheckpointStore`] — crash-safe persistence: temp file + fsync +
//!   atomic rename, bounded retention, and fallback past corrupt files
//!   to the newest valid predecessor.
//! * [`LogImage`] — a run's log section encoded so far, with its CRC,
//!   so that each save encodes only the records appended since the
//!   previous one ([`CheckpointStore::save_with`]).
//! * [`MetricsState`] — capture/restore of the obs registry so a
//!   resumed run's final report is indistinguishable from an
//!   uninterrupted one.
//!
//! The consumer contract is *resume-exactness*: run interrupted at any
//! checkpoint boundary, resume from disk, and the final `MonthResult`
//! and normalized `RunReport` are bitwise-identical to the same-seed
//! uninterrupted run (enforced end-to-end by the workspace chaos
//! tests). The determinism argument is documented in DESIGN.md §9.
//!
//! Checkpoint activity is observable under the `recover` stage:
//! `saves`, `save_bytes`, `records_encoded` (log records a
//! [`LogImage`] encoded), `load_corrupt`, and `fallbacks` counters,
//! plus `checkpoint-saved` / `checkpoint-corrupt` /
//! `checkpoint-fallback` events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod snapshot;
pub mod store;

pub use codec::CheckpointError;
pub use snapshot::{LogImage, MetricsState, PipelineSnapshot, MAGIC, VERSION};
pub use store::{load_file, CheckpointStore, DEFAULT_RETAIN};

/// What a checkpoint hook tells the running pipeline to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HookAction {
    /// Keep replaying.
    Continue,
    /// Stop here: the run returns `QuicksandError::Interrupted` and can
    /// later be resumed from the snapshot the hook just received. Used
    /// by operator interrupts and crash-simulation tests.
    Stop,
}

/// FNV-1a 64-bit hash of a configuration's debug representation — the
/// cheap, dependency-free fingerprint used to refuse resuming a
/// checkpoint against a different scenario configuration.
///
/// The debug form is stable for a given build of the workspace, which
/// is the scope a checkpoint is meant to live in; it is a guard against
/// operator error (wrong `--scenario` or edited config), not a
/// cryptographic commitment.
pub fn config_fingerprint(config: &impl std::fmt::Debug) -> u64 {
    let repr = format!("{config:?}");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in repr.as_bytes() {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_configs() {
        #[derive(Debug)]
        struct Cfg {
            #[allow(dead_code)] // read via the Debug impl only
            seed: u64,
        }
        let a = config_fingerprint(&Cfg { seed: 1 });
        let b = config_fingerprint(&Cfg { seed: 2 });
        assert_ne!(a, b);
        assert_eq!(a, config_fingerprint(&Cfg { seed: 1 }));
    }
}
