//! On-disk checkpoint management: crash-safe writes, bounded
//! retention, and corruption fallback.
//!
//! A save is atomic with respect to crashes: the snapshot is written to
//! a temporary file, fsynced, then renamed over the final name (and the
//! directory entry itself is fsynced) — a reader never observes a
//! half-written checkpoint under the final name. The last `retain`
//! checkpoints are kept, so a checkpoint that was corrupted *after* a
//! clean write (disk fault, truncation by an interrupted copy) still
//! leaves a valid predecessor to fall back to; [`CheckpointStore::
//! load_latest`] walks newest → oldest until one validates.

use crate::codec::CheckpointError;
use crate::snapshot::{LogImage, PipelineSnapshot};
use quicksand_obs as obs;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// File extension for checkpoint files.
pub const EXTENSION: &str = "qsck";

/// Default number of checkpoints retained.
pub const DEFAULT_RETAIN: usize = 3;

/// A directory of checkpoints for one run.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
}

impl CheckpointStore {
    /// Open (creating if needed) the checkpoint directory `dir`,
    /// retaining the newest `retain` checkpoints (min 1).
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            retain: retain.max(1),
        })
    }

    /// The directory this store manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file name a snapshot at `cursor` is stored under.
    fn file_name(cursor: u64) -> String {
        format!("ckpt-{cursor:012}.{EXTENSION}")
    }

    /// Write `snapshot` crash-safely and prune beyond the retention
    /// bound. Returns the final path. Encodes the whole log: the same
    /// as [`CheckpointStore::save_with`] with a fresh [`LogImage`].
    pub fn save(&self, snapshot: &PipelineSnapshot) -> Result<PathBuf, CheckpointError> {
        self.save_with(snapshot, &mut LogImage::new())
    }

    /// [`CheckpointStore::save`] with the log section taken from
    /// `image`, which is first extended over the records of
    /// `snapshot.log` it has not yet encoded. A hook that passes every
    /// snapshot of one run through the same image encodes each record
    /// once; the file's bytes are [`PipelineSnapshot::encode`]'s either
    /// way (DESIGN.md §30).
    ///
    /// Panics if `image` has encoded more records than `snapshot.log`
    /// holds.
    pub fn save_with(
        &self,
        snapshot: &PipelineSnapshot,
        image: &mut LogImage,
    ) -> Result<PathBuf, CheckpointError> {
        let (head, tail) = snapshot.encode_parts(image);
        let len = head.len() + image.bytes().len() + tail.len();
        let final_path = self.dir.join(Self::file_name(snapshot.cursor));
        let tmp_path = final_path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(&head)?;
            f.write_all(image.bytes())?;
            f.write_all(&tail)?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        // The rename is atomic but not durable: until the directory
        // itself is fsynced, a crash can roll the dirent back and lose
        // the checkpoint the caller was just promised.
        self.sync_dir()?;
        obs::incr("recover", "saves", 1);
        obs::incr("recover", "save_bytes", len as u64);
        if obs::enabled(obs::Level::Info) {
            obs::emit(
                obs::Event::new(
                    obs::Level::Info,
                    "recover",
                    "checkpoint-saved",
                    "pipeline snapshot persisted",
                )
                .with("cursor", snapshot.cursor)
                .with("bytes", len as u64)
                .with("path", final_path.display().to_string()),
            );
        }
        self.prune()?;
        Ok(final_path)
    }

    /// Checkpoint files present, oldest first (by cursor).
    pub fn list(&self) -> Result<Vec<PathBuf>, CheckpointError> {
        let mut files: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|x| x == EXTENSION)
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("ckpt-"))
            })
            .collect();
        // Zero-padded cursors make lexicographic order cursor order.
        files.sort();
        Ok(files)
    }

    /// Delete the oldest checkpoints beyond the retention bound.
    fn prune(&self) -> Result<(), CheckpointError> {
        let files = self.list()?;
        if files.len() > self.retain {
            for old in &files[..files.len() - self.retain] {
                fs::remove_file(old)?;
            }
            self.sync_dir()?;
        }
        Ok(())
    }

    /// Fsync the checkpoint directory so renames and unlinks survive a
    /// crash. Filesystems that cannot fsync a directory handle report
    /// `Unsupported`/`InvalidInput` — treated as "nothing to do", while
    /// real I/O failures propagate.
    fn sync_dir(&self) -> Result<(), CheckpointError> {
        match fs::File::open(&self.dir).and_then(|d| d.sync_all()) {
            Ok(()) => Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::Unsupported | std::io::ErrorKind::InvalidInput
                ) =>
            {
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Load the newest checkpoint that validates, falling back past
    /// corrupt ones (each fall-back is counted and announced).
    ///
    /// Returns `Ok(None)` for an empty store — nothing to resume is
    /// not an error — and [`CheckpointError::NoValidCheckpoint`] when
    /// checkpoints exist but none survives validation.
    pub fn load_latest(
        &self,
    ) -> Result<Option<(PipelineSnapshot, PathBuf)>, CheckpointError> {
        let files = self.list()?;
        if files.is_empty() {
            return Ok(None);
        }
        let mut skipped = 0u64;
        for path in files.iter().rev() {
            match load_file(path) {
                Ok(snapshot) => {
                    if skipped > 0 {
                        obs::incr("recover", "fallbacks", 1);
                        if obs::enabled(obs::Level::Warn) {
                            obs::emit(
                                obs::Event::new(
                                    obs::Level::Warn,
                                    "recover",
                                    "checkpoint-fallback",
                                    "newest checkpoint(s) corrupt; using predecessor",
                                )
                                .with("skipped", skipped)
                                .with("cursor", snapshot.cursor)
                                .with("path", path.display().to_string()),
                            );
                        }
                    }
                    return Ok(Some((snapshot, path.clone())));
                }
                Err(err) => {
                    skipped += 1;
                    obs::incr("recover", "load_corrupt", 1);
                    if obs::enabled(obs::Level::Warn) {
                        obs::emit(
                            obs::Event::new(
                                obs::Level::Warn,
                                "recover",
                                "checkpoint-corrupt",
                                "checkpoint failed validation",
                            )
                            .with("path", path.display().to_string())
                            .with("error", err.to_string()),
                        );
                    }
                }
            }
        }
        Err(CheckpointError::NoValidCheckpoint)
    }
}

/// Load and validate a single checkpoint file.
pub fn load_file(path: impl AsRef<Path>) -> Result<PipelineSnapshot, CheckpointError> {
    let bytes = fs::read(path)?;
    PipelineSnapshot::decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::sample_snapshot;
    use quicksand_obs::metrics::{Key, Registry};
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qsck-store-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn snap_at(cursor: u64) -> PipelineSnapshot {
        PipelineSnapshot {
            cursor,
            ..sample_snapshot()
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let store = CheckpointStore::open(&dir, 3).unwrap();
        assert!(store.load_latest().unwrap().is_none());
        let path = store.save(&snap_at(10)).unwrap();
        assert!(path.exists());
        let (snapshot, from) = store.load_latest().unwrap().unwrap();
        assert_eq!(snapshot, snap_at(10));
        assert_eq!(from, path);
        // No stray temp files.
        assert_eq!(store.list().unwrap().len(), 1);
        assert!(!path.with_extension("tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_keeps_newest_k() {
        let dir = tmpdir("retain");
        let store = CheckpointStore::open(&dir, 2).unwrap();
        for cursor in [5, 10, 15, 20] {
            store.save(&snap_at(cursor)).unwrap();
        }
        let files = store.list().unwrap();
        assert_eq!(files.len(), 2);
        let (snapshot, _) = store.load_latest().unwrap().unwrap();
        assert_eq!(snapshot.cursor, 20);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_to_predecessor() {
        let dir = tmpdir("fallback");
        let metrics = Arc::new(Registry::new());
        let store = CheckpointStore::open(&dir, 3).unwrap();
        store.save(&snap_at(10)).unwrap();
        let newest = store.save(&snap_at(20)).unwrap();
        // Corrupt the newest checkpoint's body.
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();

        let (snapshot, from) = quicksand_obs::with_metrics(metrics.clone(), || {
            store.load_latest().unwrap().unwrap()
        });
        assert_eq!(snapshot.cursor, 10);
        assert!(from.to_string_lossy().contains("ckpt-000000000010"));
        assert_eq!(
            metrics.counter_value(Key::stage("recover", "load_corrupt")),
            1
        );
        assert_eq!(metrics.counter_value(Key::stage("recover", "fallbacks")), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_corrupt_is_a_typed_error() {
        let dir = tmpdir("allbad");
        let store = CheckpointStore::open(&dir, 3).unwrap();
        let p = store.save(&snap_at(1)).unwrap();
        fs::write(&p, b"QSCKPT01 but then garbage").unwrap();
        assert!(matches!(
            store.load_latest(),
            Err(CheckpointError::NoValidCheckpoint)
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_file_is_rejected_by_load_file() {
        let dir = tmpdir("trunc");
        let store = CheckpointStore::open(&dir, 3).unwrap();
        let p = store.save(&snap_at(7)).unwrap();
        let bytes = fs::read(&p).unwrap();
        fs::write(&p, &bytes[..bytes.len() - 5]).unwrap();
        assert!(load_file(&p).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_survives_reopen_from_a_fresh_handle() {
        // The durability contract: after save() returns, a brand-new
        // store handle on the same directory (think: the restarted
        // process after a crash) sees exactly the files save promised —
        // the renamed checkpoint, no temp residue, pruned victims gone.
        let dir = tmpdir("reopen");
        {
            let store = CheckpointStore::open(&dir, 2).unwrap();
            for cursor in [3, 6, 9] {
                store.save(&snap_at(cursor)).unwrap();
            }
        }
        let reopened = CheckpointStore::open(&dir, 2).unwrap();
        let files = reopened.list().unwrap();
        assert_eq!(files.len(), 2, "retention persisted across reopen");
        assert!(fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .all(|e| e.path().extension().is_some_and(|x| x == EXTENSION)));
        let (snapshot, _) = reopened.load_latest().unwrap().unwrap();
        assert_eq!(snapshot, snap_at(9));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_is_observable() {
        let dir = tmpdir("obs");
        let metrics = Arc::new(Registry::new());
        quicksand_obs::with_metrics(metrics.clone(), || {
            let store = CheckpointStore::open(&dir, 3).unwrap();
            store.save(&snap_at(1)).unwrap();
        });
        assert_eq!(metrics.counter_value(Key::stage("recover", "saves")), 1);
        assert!(metrics.counter_value(Key::stage("recover", "save_bytes")) > 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
