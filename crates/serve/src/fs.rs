//! The fault-injectable filesystem boundary.
//!
//! Every byte the durability layer touches goes through the [`FaultFs`]
//! trait: a flat namespace of files addressed by name (the engine
//! directory is the root), with exactly the operations a write-ahead
//! log needs — preallocate, append, fsync, read, truncate, atomic
//! replace, remove, list. Two implementations:
//!
//! * [`DiskFs`] — the real thing, `std::fs` against a directory.
//! * [`MemFs`] — an in-memory store with **scripted fault points**
//!   ([`Fault`]): short writes, fsync failures, silent corruption, and
//!   full crashes that roll every file back to its last-synced prefix
//!   (plus a scripted number of torn tail bytes). Tests enumerate
//!   crash sites by op index and prove recovery at each one.
//!
//! ## Two segment layouts
//!
//! A file written by `append` alone grows, and each fsync of it must
//! also commit the new file size. [`FaultFs::preallocate`] instead
//! creates the file at its final length, zero-filled and durable
//! (directory entry included), and later appends overwrite the zeros
//! at a write cursor, so the per-event fsync commits data only. The
//! journal scanner reads both layouts: a zero frame length marks the
//! end of the written part.
//!
//! `preallocate` is a provided method whose default does nothing, so
//! a store that doesn't implement it (a wrapper that only times the
//! other calls, say) keeps the growing layout and stays correct.
//!
//! The crash model is the standard one: bytes **acknowledged by
//! `sync`** are durable; bytes appended since the last sync may
//! survive in full, in part (a torn tail), or not at all — cut off a
//! growing file, or reverted to zeros in a preallocated one. `MemFs`
//! makes the torn length a script parameter so the recovery scanner's
//! every branch is reachable deterministically.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// File operations the durability layer is allowed to perform. All
/// names are flat (no separators) and relative to the store's root.
pub trait FaultFs {
    /// Full contents of `name`. Absent files are `NotFound` errors.
    fn read(&mut self, name: &str) -> io::Result<Vec<u8>>;
    /// Whether `name` exists.
    fn exists(&mut self, name: &str) -> bool;
    /// Every file name in the store, sorted.
    fn list(&mut self) -> io::Result<Vec<String>>;
    /// Creates `name` as `len` durable zero bytes (replacing any file of
    /// that name) and makes its directory entry durable. Appends then
    /// overwrite the zeros from offset 0 without changing the file's
    /// length. The default does nothing, which leaves `name` to the
    /// growing layout: appends create and extend it.
    fn preallocate(&mut self, _name: &str, _len: u64) -> io::Result<()> {
        Ok(())
    }
    /// Writes `data` at `name`'s write cursor and advances it: the end
    /// of the file, or the end of what was written since
    /// [`FaultFs::preallocate`]. Creates `name` if absent. A failure
    /// may leave a **prefix** of `data` written (torn write).
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()>;
    /// Makes all appended bytes of `name` durable. On failure the
    /// unsynced tail remains volatile (and the caller must assume the
    /// file's durable prefix is unchanged).
    fn sync(&mut self, name: &str) -> io::Result<()>;
    /// Truncates `name` to `len` bytes and syncs the new length.
    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()>;
    /// Atomically replaces `name` with `data`: written to a temp file,
    /// synced, renamed over `name`. After `Ok`, `data` is durable
    /// under `name`; after `Err`, the old `name` (if any) is intact.
    fn replace(&mut self, name: &str, data: &[u8]) -> io::Result<()>;
    /// Removes `name`. Removing an absent file is an error.
    fn remove(&mut self, name: &str) -> io::Result<()>;
}

// ---------------------------------------------------------------- disk

/// [`FaultFs`] over a real directory via `std::fs`. No faults are ever
/// injected here — this is the production arm.
pub struct DiskFs {
    root: PathBuf,
    /// Write handles kept open across calls so sustained journaling
    /// doesn't reopen the segment file per event.
    open: HashMap<String, Handle>,
}

/// An open file and the offset its next append writes at. The file is
/// not opened `O_APPEND`: in a preallocated file the cursor sits
/// inside the zero fill.
struct Handle {
    file: std::fs::File,
    cursor: u64,
}

/// The zero fill [`DiskFs::preallocate`] writes, one chunk at a time.
static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];

impl DiskFs {
    /// Opens (creating if needed) the directory at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DiskFs> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskFs {
            root,
            open: HashMap::new(),
        })
    }

    /// The directory this store lives in.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// The open handle for `name`; a file not preallocated by this
    /// store is opened with its cursor at the end.
    fn handle(&mut self, name: &str) -> io::Result<&mut Handle> {
        if !self.open.contains_key(name) {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(false)
                .open(self.path(name))?;
            let cursor = file.metadata()?.len();
            self.open.insert(name.to_string(), Handle { file, cursor });
        }
        Ok(self.open.get_mut(name).expect("just inserted"))
    }

    /// Best-effort directory fsync (makes renames/creates durable on
    /// POSIX; a no-op error on platforms that refuse dir handles).
    fn sync_dir(&self) {
        if let Ok(d) = std::fs::File::open(&self.root) {
            let _ = d.sync_all();
        }
    }
}

impl FaultFs for DiskFs {
    fn read(&mut self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(name))
    }

    fn exists(&mut self, name: &str) -> bool {
        self.path(name).exists()
    }

    fn list(&mut self) -> io::Result<Vec<String>> {
        let mut names: Vec<String> = std::fs::read_dir(&self.root)?
            .filter_map(|e| e.ok())
            .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort();
        Ok(names)
    }

    /// Really writes the zeros — `set_len` would leave a sparse file
    /// and `fallocate` unwritten extents, and either makes the first
    /// overwrite of each block commit metadata again — then syncs the
    /// file and the directory.
    fn preallocate(&mut self, name: &str, len: u64) -> io::Result<()> {
        use io::Write;
        self.open.remove(name);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(self.path(name))?;
        let mut left = len;
        while left > 0 {
            let n = left.min(ZEROS.len() as u64) as usize;
            file.write_all(&ZEROS[..n])?;
            left -= n as u64;
        }
        file.sync_all()?;
        self.sync_dir();
        self.open
            .insert(name.to_string(), Handle { file, cursor: 0 });
        Ok(())
    }

    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        let h = self.handle(name)?;
        h.file.write_all_at(data, h.cursor)?;
        h.cursor += data.len() as u64;
        Ok(())
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.handle(name)?.file.sync_data()
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        // Drop the write handle first: set_len through a fresh
        // handle, then reopen lazily (cursor at the new end).
        self.open.remove(name);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn replace(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        let tmp = self.path(&format!("{name}.tmp"));
        std::fs::write(&tmp, data)?;
        let f = std::fs::OpenOptions::new().read(true).open(&tmp)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, self.path(name))?;
        self.open.remove(name);
        self.sync_dir();
        Ok(())
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.open.remove(name);
        std::fs::remove_file(self.path(name))?;
        self.sync_dir();
        Ok(())
    }
}

// -------------------------------------------------------------- memory

/// A scripted fault, armed at a specific mutating-op index (see
/// [`MemFs::op_count`]: `preallocate`, `append`, `sync`, `truncate`,
/// `replace`, and `remove` each advance the counter by one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The op (an append) writes only the first `keep` bytes of its
    /// data, then fails.
    ShortWrite {
        /// Bytes of the append that do land.
        keep: usize,
    },
    /// The op (a sync) fails; nothing new becomes durable.
    SyncError,
    /// The op (an append) **succeeds** from the caller's view, but the
    /// byte at `offset` of the appended data lands bit-flipped —
    /// silent media corruption, caught only by the frame CRC at
    /// recovery.
    CorruptByte {
        /// Offset into the appended data of the flipped byte.
        offset: usize,
    },
    /// The process dies at this op (which fails, as does every later
    /// op): every file keeps its synced prefix plus at most
    /// `keep_unsynced` bytes of its volatile tail — the torn-write
    /// crash model. The rest of the tail is cut off a growing file and
    /// reverts to zeros in a preallocated one. A crash at a
    /// `preallocate` leaves the new file holding at most
    /// `keep_unsynced` of its zeros. Call [`MemFs::revive`] to
    /// "restart the process" and reopen.
    Crash {
        /// Volatile tail bytes that happen to survive, per file.
        keep_unsynced: usize,
    },
}

#[derive(Default)]
struct MemFile {
    data: Vec<u8>,
    /// Prefix length guaranteed durable (advanced by `sync`).
    synced: usize,
    /// Where the next append writes: the end of `data`, or inside the
    /// zero fill of a preallocated file.
    cursor: usize,
    /// Whether `data` has the fixed length `preallocate` gave it, so a
    /// crash zeroes lost bytes instead of cutting them off.
    preallocated: bool,
}

impl MemFile {
    /// A file of `data`, all of it durable, appended to at its end.
    fn durable(data: Vec<u8>) -> MemFile {
        let len = data.len();
        MemFile {
            data,
            synced: len,
            cursor: len,
            preallocated: false,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        let end = self.cursor + bytes.len();
        if end > self.data.len() {
            self.data.resize(end, 0);
        }
        self.data[self.cursor..end].copy_from_slice(bytes);
        self.cursor = end;
    }

    /// What the disk holds once the process dies: the synced prefix
    /// plus `keep_unsynced` bytes of the tail. The restarted process
    /// appends at the end of the file, as [`DiskFs`] does.
    fn crash(&mut self, keep_unsynced: usize) {
        let keep = (self.synced + keep_unsynced).min(self.cursor);
        if self.preallocated {
            self.data[keep..self.cursor].fill(0);
        } else {
            self.data.truncate(keep);
        }
        *self = MemFile::durable(std::mem::take(&mut self.data));
    }
}

#[derive(Default)]
struct MemStore {
    files: HashMap<String, MemFile>,
    /// Mutating ops performed so far.
    ops: usize,
    /// Scripted faults: `(op index, fault)`, unordered.
    script: Vec<(usize, Fault)>,
    /// Set by [`Fault::Crash`]; every op fails until `revive`.
    crashed: bool,
}

impl MemStore {
    /// Consumes the fault armed for the current op, if any, advancing
    /// the op counter either way.
    fn take_fault(&mut self) -> Option<Fault> {
        let at = self.ops;
        self.ops += 1;
        let i = self.script.iter().position(|&(op, _)| op == at)?;
        Some(self.script.swap_remove(i).1)
    }

    fn crash(&mut self, keep_unsynced: usize) {
        self.crashed = true;
        for f in self.files.values_mut() {
            f.crash(keep_unsynced);
        }
    }
}

fn crashed_err() -> io::Error {
    io::Error::other("memfs: process crashed (scripted)")
}

fn fault_err(what: &str) -> io::Error {
    io::Error::other(format!("memfs: scripted fault: {what}"))
}

/// In-memory [`FaultFs`] with scripted fault injection. Clones share
/// the backing store, so a test can keep one handle to script faults
/// and inspect "disk" state while the engine owns another.
#[derive(Clone, Default)]
pub struct MemFs {
    store: Arc<Mutex<MemStore>>,
}

impl MemFs {
    /// An empty store with no faults armed.
    pub fn new() -> MemFs {
        MemFs::default()
    }

    /// Arms `fault` to fire at mutating-op index `at_op` (0-based,
    /// counted from now over the whole store's lifetime).
    pub fn arm(&self, at_op: usize, fault: Fault) {
        self.store
            .lock()
            .expect("memfs store poisoned")
            .script
            .push((at_op, fault));
    }

    /// Mutating ops performed so far — the coordinate system for
    /// [`MemFs::arm`].
    pub fn op_count(&self) -> usize {
        self.store.lock().expect("memfs store poisoned").ops
    }

    /// Clears the crashed flag (the "process restart"), leaving file
    /// contents exactly as the crash left them. Also disarms any
    /// leftover scripted faults.
    pub fn revive(&self) {
        let mut s = self.store.lock().expect("memfs store poisoned");
        s.crashed = false;
        s.script.clear();
    }

    /// Direct mutable access to a file's raw bytes, for tests that
    /// corrupt or truncate "the disk" behind the engine's back.
    /// Creates the file if absent. The edit is treated as durable, and
    /// later appends go to the end of the edited file.
    pub fn with_raw<R>(&self, name: &str, f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let mut s = self.store.lock().expect("memfs store poisoned");
        let file = s.files.entry(name.to_string()).or_default();
        let r = f(&mut file.data);
        *file = MemFile::durable(std::mem::take(&mut file.data));
        r
    }
}

impl FaultFs for MemFs {
    fn read(&mut self, name: &str) -> io::Result<Vec<u8>> {
        let s = self.store.lock().expect("memfs store poisoned");
        if s.crashed {
            return Err(crashed_err());
        }
        s.files
            .get(name)
            .map(|f| f.data.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("memfs: {name}")))
    }

    fn exists(&mut self, name: &str) -> bool {
        let s = self.store.lock().expect("memfs store poisoned");
        !s.crashed && s.files.contains_key(name)
    }

    fn list(&mut self) -> io::Result<Vec<String>> {
        let s = self.store.lock().expect("memfs store poisoned");
        if s.crashed {
            return Err(crashed_err());
        }
        let mut names: Vec<String> = s.files.keys().cloned().collect();
        names.sort();
        Ok(names)
    }

    fn preallocate(&mut self, name: &str, len: u64) -> io::Result<()> {
        let mut s = self.store.lock().expect("memfs store poisoned");
        if s.crashed {
            return Err(crashed_err());
        }
        let len = len as usize;
        match s.take_fault() {
            None => {
                let file = MemFile {
                    data: vec![0; len],
                    preallocated: true,
                    ..MemFile::default()
                };
                s.files.insert(name.to_string(), file);
                Ok(())
            }
            Some(Fault::Crash { keep_unsynced }) => {
                // The file was created but its zero fill never synced.
                s.crash(keep_unsynced);
                let zeros = vec![0; keep_unsynced.min(len)];
                s.files.insert(name.to_string(), MemFile::durable(zeros));
                Err(crashed_err())
            }
            Some(_) => Err(fault_err("preallocate failed")),
        }
    }

    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut s = self.store.lock().expect("memfs store poisoned");
        if s.crashed {
            return Err(crashed_err());
        }
        match s.take_fault() {
            None => {
                s.files.entry(name.to_string()).or_default().write(data);
                Ok(())
            }
            Some(Fault::ShortWrite { keep }) => {
                let keep = keep.min(data.len());
                s.files
                    .entry(name.to_string())
                    .or_default()
                    .write(&data[..keep]);
                Err(fault_err("short write"))
            }
            Some(Fault::CorruptByte { offset }) => {
                let file = s.files.entry(name.to_string()).or_default();
                let base = file.cursor;
                file.write(data);
                if !data.is_empty() {
                    let at = base + offset.min(data.len() - 1);
                    file.data[at] ^= 0x40;
                }
                Ok(())
            }
            Some(Fault::SyncError) => {
                // A sync fault landing on an append still performs the
                // append — the fault waits for no one; scripts should
                // aim faults at the right op kind. Treat as armed-next:
                // simplest deterministic semantics is to fail this op
                // without writing.
                Err(fault_err("sync error (armed on append)"))
            }
            Some(Fault::Crash { keep_unsynced }) => {
                s.crash(keep_unsynced);
                Err(crashed_err())
            }
        }
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        let mut s = self.store.lock().expect("memfs store poisoned");
        if s.crashed {
            return Err(crashed_err());
        }
        match s.take_fault() {
            None => {
                if let Some(f) = s.files.get_mut(name) {
                    f.synced = f.cursor;
                }
                Ok(())
            }
            Some(Fault::Crash { keep_unsynced }) => {
                s.crash(keep_unsynced);
                Err(crashed_err())
            }
            Some(_) => Err(fault_err("sync failed")),
        }
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        let mut s = self.store.lock().expect("memfs store poisoned");
        if s.crashed {
            return Err(crashed_err());
        }
        match s.take_fault() {
            None => {
                let f = s
                    .files
                    .get_mut(name)
                    .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))?;
                f.data.truncate(len as usize);
                *f = MemFile::durable(std::mem::take(&mut f.data));
                Ok(())
            }
            Some(Fault::Crash { keep_unsynced }) => {
                s.crash(keep_unsynced);
                Err(crashed_err())
            }
            Some(_) => Err(fault_err("truncate failed")),
        }
    }

    fn replace(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut s = self.store.lock().expect("memfs store poisoned");
        if s.crashed {
            return Err(crashed_err());
        }
        match s.take_fault() {
            None => {
                s.files
                    .insert(name.to_string(), MemFile::durable(data.to_vec()));
                Ok(())
            }
            Some(Fault::Crash { keep_unsynced }) => {
                // Atomic replace + crash: the rename either happened or
                // it didn't. Model "didn't" — the old file survives —
                // which is the harder case for recovery.
                s.crash(keep_unsynced);
                Err(crashed_err())
            }
            Some(_) => Err(fault_err("replace failed")),
        }
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        let mut s = self.store.lock().expect("memfs store poisoned");
        if s.crashed {
            return Err(crashed_err());
        }
        match s.take_fault() {
            None => {
                s.files
                    .remove(name)
                    .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))?;
                Ok(())
            }
            Some(Fault::Crash { keep_unsynced }) => {
                s.crash(keep_unsynced);
                Err(crashed_err())
            }
            Some(_) => Err(fault_err("remove failed")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memfs_append_sync_read_roundtrip() {
        let mut fs = MemFs::new();
        fs.append("a.wal", b"hello ").unwrap();
        fs.append("a.wal", b"world").unwrap();
        assert_eq!(fs.read("a.wal").unwrap(), b"hello world");
        fs.sync("a.wal").unwrap();
        assert_eq!(fs.list().unwrap(), vec!["a.wal".to_string()]);
        fs.truncate("a.wal", 5).unwrap();
        assert_eq!(fs.read("a.wal").unwrap(), b"hello");
        fs.remove("a.wal").unwrap();
        assert!(!fs.exists("a.wal"));
    }

    #[test]
    fn short_write_leaves_a_torn_prefix() {
        let mut fs = MemFs::new();
        fs.append("w", b"0123").unwrap(); // op 0
        fs.arm(1, Fault::ShortWrite { keep: 2 });
        assert!(fs.append("w", b"abcdef").is_err());
        assert_eq!(fs.read("w").unwrap(), b"0123ab");
        // Later ops run clean again.
        fs.append("w", b"!").unwrap();
        assert_eq!(fs.read("w").unwrap(), b"0123ab!");
    }

    #[test]
    fn crash_rolls_back_to_synced_plus_scripted_tail() {
        let mut fs = MemFs::new();
        fs.append("w", b"durable").unwrap(); // op 0
        fs.sync("w").unwrap(); // op 1
        fs.append("w", b"-volatile").unwrap(); // op 2
        fs.arm(3, Fault::Crash { keep_unsynced: 3 });
        assert!(fs.append("w", b"x").is_err());
        // Dead until revived.
        assert!(fs.read("w").is_err());
        fs.revive();
        assert_eq!(fs.read("w").unwrap(), b"durable-vo");
    }

    #[test]
    fn corrupt_byte_is_silent() {
        let mut fs = MemFs::new();
        fs.arm(0, Fault::CorruptByte { offset: 1 });
        fs.append("w", b"abc").unwrap(); // "succeeds"
        assert_eq!(fs.read("w").unwrap(), b"a\x22c");
    }

    #[test]
    fn preallocated_file_keeps_its_length_and_appends_at_a_cursor() {
        let mut fs = MemFs::new();
        fs.preallocate("w", 8).unwrap(); // op 0
        fs.append("w", b"abc").unwrap();
        fs.append("w", b"de").unwrap();
        assert_eq!(fs.read("w").unwrap(), b"abcde\0\0\0");
        fs.sync("w").unwrap();
        // Past the physical end the file grows, as a real write would.
        fs.append("w", b"fghij").unwrap();
        assert_eq!(fs.read("w").unwrap(), b"abcdefghij");
    }

    #[test]
    fn crash_reverts_a_preallocated_tail_to_zeros() {
        let mut fs = MemFs::new();
        fs.preallocate("w", 16).unwrap(); // op 0
        fs.append("w", b"durable").unwrap(); // op 1
        fs.sync("w").unwrap(); // op 2
        fs.append("w", b"-volatile").unwrap(); // op 3
        fs.arm(4, Fault::Crash { keep_unsynced: 3 });
        assert!(fs.sync("w").is_err());
        fs.revive();
        assert_eq!(fs.read("w").unwrap(), b"durable-vo\0\0\0\0\0\0");
        // The restarted process appends at the physical end.
        fs.append("w", b"!").unwrap();
        assert_eq!(fs.read("w").unwrap().len(), 17);
    }

    #[test]
    fn crash_inside_preallocate_leaves_a_short_zero_file() {
        for keep in [0usize, 5, 64] {
            let mut fs = MemFs::new();
            fs.arm(
                0,
                Fault::Crash {
                    keep_unsynced: keep,
                },
            );
            assert!(fs.preallocate("w", 32).is_err());
            fs.revive();
            assert_eq!(fs.read("w").unwrap(), vec![0; keep.min(32)]);
        }
    }

    #[test]
    fn diskfs_preallocated_segment_is_overwritten_in_place() {
        let dir = std::env::temp_dir().join(format!("minim-serve-fs-pre-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fs = DiskFs::open(&dir).unwrap();
        fs.preallocate("seg", 100_000).unwrap();
        fs.append("seg", b"abc").unwrap();
        fs.sync("seg").unwrap();
        fs.append("seg", b"def").unwrap();
        let bytes = fs.read("seg").unwrap();
        assert_eq!(bytes.len(), 100_000);
        assert_eq!(&bytes[..6], b"abcdef");
        assert!(bytes[6..].iter().all(|&b| b == 0));
        // A fresh store appends at the physical end, never inside.
        let mut again = DiskFs::open(&dir).unwrap();
        again.append("seg", b"X").unwrap();
        assert_eq!(again.read("seg").unwrap().len(), 100_001);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn diskfs_roundtrip() {
        let dir = std::env::temp_dir().join(format!("minim-serve-fs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fs = DiskFs::open(&dir).unwrap();
        fs.append("seg", b"abc").unwrap();
        fs.sync("seg").unwrap();
        fs.append("seg", b"def").unwrap();
        assert_eq!(fs.read("seg").unwrap(), b"abcdef");
        fs.truncate("seg", 4).unwrap();
        fs.append("seg", b"X").unwrap();
        assert_eq!(fs.read("seg").unwrap(), b"abcdX");
        fs.replace("snap", b"payload").unwrap();
        assert_eq!(fs.read("snap").unwrap(), b"payload");
        assert_eq!(
            fs.list().unwrap(),
            vec!["seg".to_string(), "snap".to_string()]
        );
        fs.remove("seg").unwrap();
        assert!(!fs.exists("seg"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
