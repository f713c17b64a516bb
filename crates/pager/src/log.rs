//! Append-only log devices — the byte-addressed cousin of [`crate::disk`].
//!
//! The WAL in `odh-storage` frames and checksums its records; this layer
//! only moves bytes. A WAL is a numbered sequence of fixed-size
//! *segments*, each a [`LogStore`], held by a [`LogDir`] that can create,
//! list, open and remove them. Two backends mirror the disk managers:
//! [`MemLog`]/[`MemLogDir`] for tests and CPU-side experiments (the
//! directory keeps its segments alive for as long as its `Arc` lives,
//! which is exactly the "process crashed but the medium survived" model
//! the crash-recovery tests need), and [`FileLog`]/[`FileLogDir`] (one
//! file per segment in a directory) for real durability next to a
//! [`crate::disk::FileDisk`].

use odh_types::{OdhError, Result};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Abstraction over an append-only byte device.
pub trait LogStore: Send + Sync {
    /// Append `bytes` at the current end of the log.
    fn append(&self, bytes: &[u8]) -> Result<()>;
    /// Read the whole log (recovery reads one segment at a time).
    fn read_all(&self) -> Result<Vec<u8>>;
    /// Truncate the log to `len` bytes (torn-tail repair).
    fn set_len(&self, len: u64) -> Result<()>;
    /// Current length in bytes.
    fn len(&self) -> u64;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Make appended bytes durable.
    fn sync(&self) -> Result<()>;
}

/// Heap-backed log.
#[derive(Default)]
pub struct MemLog {
    data: Mutex<Vec<u8>>,
}

impl MemLog {
    pub fn new() -> MemLog {
        MemLog::default()
    }

    /// Flip one bit at `offset` — corruption for recovery tests.
    pub fn flip_bit(&self, offset: u64) {
        let mut data = self.data.lock();
        if let Some(b) = data.get_mut(offset as usize) {
            *b ^= 0x40;
        }
    }
}

impl LogStore for MemLog {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.data.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        Ok(self.data.lock().clone())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        let mut data = self.data.lock();
        if (len as usize) < data.len() {
            data.truncate(len as usize);
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.data.lock().len() as u64
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// File-backed log using positioned writes (no shared seek cursor).
pub struct FileLog {
    file: File,
    end: AtomicU64,
}

impl FileLog {
    /// Create or truncate the log at `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<FileLog> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        Ok(FileLog { file, end: AtomicU64::new(0) })
    }

    /// Open an existing log; length comes from the file.
    pub fn open(path: impl AsRef<Path>) -> Result<FileLog> {
        let file = OpenOptions::new().read(true).write(true).open(path.as_ref())?;
        let len = file.metadata()?.len();
        Ok(FileLog { file, end: AtomicU64::new(len) })
    }
}

impl LogStore for FileLog {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        // Appends are serialized by the caller (the WAL flushes one stripe
        // at a time under its lock); fetch_add keeps the offset consistent
        // even if two flushes race.
        let off = self.end.fetch_add(bytes.len() as u64, Ordering::AcqRel);
        self.file.write_all_at(bytes, off)?;
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        let len = self.end.load(Ordering::Acquire) as usize;
        let mut buf = vec![0u8; len];
        let n = self.file.read_at(&mut buf, 0)?;
        buf.truncate(n);
        Ok(buf)
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        self.end.store(len, Ordering::Release);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.end.load(Ordering::Acquire)
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// A directory of numbered log segments — the WAL's device. Segment ids
/// only grow; the WAL appends to the newest and drops whole old ones.
pub trait LogDir: Send + Sync {
    /// Create segment `id` empty (replacing any segment with that id).
    fn create(&self, id: u64) -> Result<Arc<dyn LogStore>>;
    /// Open the existing segment `id`.
    fn open(&self, id: u64) -> Result<Arc<dyn LogStore>>;
    /// Ids of every existing segment, ascending.
    fn list(&self) -> Result<Vec<u64>>;
    /// Delete segment `id`.
    fn remove(&self, id: u64) -> Result<()>;
}

fn missing_segment(id: u64) -> OdhError {
    OdhError::NotFound(format!("log segment {id}"))
}

/// Heap-backed segment directory: segments are [`MemLog`]s owned by the
/// directory, so they outlive the WAL that wrote them.
#[derive(Default)]
pub struct MemLogDir {
    segments: Mutex<BTreeMap<u64, Arc<MemLog>>>,
}

impl MemLogDir {
    pub fn new() -> MemLogDir {
        MemLogDir::default()
    }

    /// The segment `id`, if it exists (tests corrupt segments through it).
    pub fn segment(&self, id: u64) -> Option<Arc<MemLog>> {
        self.segments.lock().get(&id).cloned()
    }

    /// Bytes across every segment.
    pub fn total_len(&self) -> u64 {
        self.segments.lock().values().map(|s| s.len()).sum()
    }
}

impl LogDir for MemLogDir {
    fn create(&self, id: u64) -> Result<Arc<dyn LogStore>> {
        let log = Arc::new(MemLog::new());
        self.segments.lock().insert(id, log.clone());
        Ok(log)
    }

    fn open(&self, id: u64) -> Result<Arc<dyn LogStore>> {
        match self.segment(id) {
            Some(log) => Ok(log),
            None => Err(missing_segment(id)),
        }
    }

    fn list(&self) -> Result<Vec<u64>> {
        Ok(self.segments.lock().keys().copied().collect())
    }

    fn remove(&self, id: u64) -> Result<()> {
        self.segments.lock().remove(&id).map(|_| ()).ok_or_else(|| missing_segment(id))
    }
}

/// File-backed segment directory: segment `id` is `<dir>/<id:016>.seg`.
/// Creating and removing a segment fsyncs the directory, so a segment that
/// held synced frames cannot lose its directory entry in a crash.
pub struct FileLogDir {
    dir: PathBuf,
}

impl FileLogDir {
    /// Open the directory at `dir`, creating it if missing. Existing
    /// segments are kept (the WAL decides whether to recover or discard
    /// them).
    pub fn open(dir: impl Into<PathBuf>) -> Result<FileLogDir> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FileLogDir { dir })
    }

    fn path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id:016}.seg"))
    }

    fn sync_dir(&self) -> Result<()> {
        File::open(&self.dir)?.sync_all()?;
        Ok(())
    }
}

impl LogDir for FileLogDir {
    fn create(&self, id: u64) -> Result<Arc<dyn LogStore>> {
        let log = FileLog::create(self.path(id))?;
        self.sync_dir()?;
        Ok(Arc::new(log))
    }

    fn open(&self, id: u64) -> Result<Arc<dyn LogStore>> {
        Ok(Arc::new(FileLog::open(self.path(id))?))
    }

    fn list(&self) -> Result<Vec<u64>> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let id = name.to_str().and_then(|n| n.strip_suffix(".seg")?.parse::<u64>().ok());
            ids.extend(id);
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn remove(&self, id: u64) -> Result<()> {
        std::fs::remove_file(self.path(id))?;
        self.sync_dir()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(log: &dyn LogStore) {
        assert!(log.is_empty());
        log.append(b"hello ").unwrap();
        log.append(b"world").unwrap();
        assert_eq!(log.len(), 11);
        assert_eq!(log.read_all().unwrap(), b"hello world");
        log.sync().unwrap();
        log.set_len(5).unwrap();
        assert_eq!(log.read_all().unwrap(), b"hello");
        log.append(b"!").unwrap();
        assert_eq!(log.read_all().unwrap(), b"hello!");
    }

    #[test]
    fn mem_log_behaviour() {
        exercise(&MemLog::new());
    }

    #[test]
    fn file_log_behaviour_and_reopen() {
        let dir = std::env::temp_dir().join(format!("odh-log-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        exercise(&FileLog::create(&path).unwrap());
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.read_all().unwrap(), b"hello!");
        log.append(b"?").unwrap();
        assert_eq!(FileLog::open(&path).unwrap().read_all().unwrap(), b"hello!?");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn exercise_dir(dir: &dyn LogDir) {
        assert!(dir.list().unwrap().is_empty());
        dir.create(2).unwrap().append(b"two").unwrap();
        dir.create(10).unwrap().append(b"ten").unwrap();
        dir.create(1).unwrap();
        assert_eq!(dir.list().unwrap(), vec![1, 2, 10], "ids list in numeric order");
        assert_eq!(dir.open(10).unwrap().read_all().unwrap(), b"ten");
        dir.remove(2).unwrap();
        assert_eq!(dir.list().unwrap(), vec![1, 10]);
        assert!(dir.open(2).is_err());
        assert!(dir.remove(2).is_err());
        // Re-creating an id starts it empty.
        assert!(dir.create(10).unwrap().is_empty());
    }

    #[test]
    fn mem_log_dir_behaviour() {
        exercise_dir(&MemLogDir::new());
    }

    #[test]
    fn file_log_dir_behaviour_and_reopen() {
        let path = std::env::temp_dir().join(format!("odh-logdir-test-{}", std::process::id()));
        std::fs::remove_dir_all(&path).ok();
        exercise_dir(&FileLogDir::open(&path).unwrap());
        let dir = FileLogDir::open(&path).unwrap();
        dir.open(1).unwrap().append(b"kept").unwrap();
        assert_eq!(FileLogDir::open(&path).unwrap().open(1).unwrap().read_all().unwrap(), b"kept");
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn mem_log_flip_bit() {
        let log = MemLog::new();
        log.append(b"abc").unwrap();
        log.flip_bit(1);
        assert_ne!(log.read_all().unwrap()[1], b'b');
    }
}
