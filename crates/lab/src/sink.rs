//! Crash-safe artifact IO: the [`ArtifactSink`] boundary every campaign
//! write goes through.
//!
//! Two disciplines matter:
//!
//! * **atomic replace** — [`ArtifactSink::write_atomic`] writes a sibling
//!   temp file, fsyncs it, then renames it over the target. A crash at any
//!   point leaves either the old artifact or the new one, never a
//!   truncated hybrid — the property the byte-compare CI jobs and the
//!   `--resume` journals depend on;
//! * **injectable faults** — campaign code takes `&dyn ArtifactSink`, so
//!   the chaos harness can swap in a [`ChaosSink`] that fails chosen
//!   operations deterministically. The failure paths themselves become
//!   testable instead of asserted.
//!
//! Append-path writes (the campaign journal) go through
//! [`ArtifactSink::append_line`]: one `O_APPEND` write per line, no
//! per-line fsync — a torn final line after a crash is expected and the
//! journal reader tolerates it.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The campaign IO boundary. Implementations must be shareable across the
/// trial fan-out threads.
pub trait ArtifactSink: Sync {
    /// Atomically replaces `path` with `contents` (temp file + rename).
    fn write_atomic(&self, path: &Path, contents: &str) -> io::Result<()> {
        self.write_atomic_bytes(path, contents.as_bytes())
    }

    /// The atomic replace for any bytes (text artifacts and trace logs):
    /// write a sibling temp file, fsync it, rename it over `path`. The
    /// default writes straight to the filesystem; fault-injecting sinks
    /// override it, so every artifact write is chaos-testable.
    fn write_atomic_bytes(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = tmp_path(path);
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Appends `line` (a newline is added) to `path`, creating it if
    /// missing. Not fsynced per line; the last line may tear on a crash.
    fn append_line(&self, path: &Path, line: &str) -> io::Result<()>;

    /// Removes a file; a missing file counts as success.
    fn remove(&self, path: &Path) -> io::Result<()> {
        match std::fs::remove_file(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }
}

/// Sibling temp path used by the atomic-write protocol: `<file>.tmp`, so
/// the artifact directory's `*.json` stale-clearing never matches it, and
/// a leftover from a crash is simply overwritten by the next write.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// The real filesystem sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsSink;

impl ArtifactSink for FsSink {
    fn append_line(&self, path: &Path, line: &str) -> io::Result<()> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(buf.as_bytes())
    }
}

/// A deterministic fault-injecting sink for the chaos harness: every
/// `write_atomic` / `append_line` call gets a global operation number, and
/// the operations named in `fail_ops` fail with an injected IO error.
///
/// In `torn` mode a failing `write_atomic` additionally leaves the temp
/// file behind with the new contents but never renames it — the on-disk
/// state of a crash *between* the temp write and the rename, which the
/// atomic protocol must shrug off.
pub struct ChaosSink<'a> {
    inner: &'a dyn ArtifactSink,
    fail_ops: Vec<u64>,
    torn: bool,
    counter: AtomicU64,
}

impl<'a> ChaosSink<'a> {
    /// Wraps `inner`, failing the operations whose global sequence numbers
    /// (0-based, across both write kinds) appear in `fail_ops`.
    pub fn new(inner: &'a dyn ArtifactSink, fail_ops: &[u64]) -> ChaosSink<'a> {
        ChaosSink { inner, fail_ops: fail_ops.to_vec(), torn: false, counter: AtomicU64::new(0) }
    }

    /// Switches failing `write_atomic` calls to crash-between-temp-and-
    /// rename behaviour (temp file left behind).
    pub fn torn(mut self) -> ChaosSink<'a> {
        self.torn = true;
        self
    }

    /// Operations observed so far (used to size fault plans).
    pub fn ops_seen(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    fn next_op_fails(&self) -> bool {
        let op = self.counter.fetch_add(1, Ordering::Relaxed);
        self.fail_ops.contains(&op)
    }

    fn injected(path: &Path) -> io::Error {
        io::Error::other(format!("chaos: injected IO fault on {}", path.display()))
    }
}

impl ArtifactSink for ChaosSink<'_> {
    fn write_atomic_bytes(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.next_op_fails() {
            if self.torn {
                // Simulate dying after the temp write, before the rename.
                let _ = std::fs::write(tmp_path(path), bytes);
            }
            return Err(Self::injected(path));
        }
        self.inner.write_atomic_bytes(path, bytes)
    }

    fn append_line(&self, path: &Path, line: &str) -> io::Result<()> {
        if self.next_op_fails() {
            return Err(Self::injected(path));
        }
        self.inner.append_line(path, line)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sink_{}_{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_replaces_and_cleans_its_temp() {
        let dir = scratch("atomic");
        let path = dir.join("artifact.json");
        FsSink.write_atomic(&path, "{\"v\": 1}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\": 1}\n");
        FsSink.write_atomic(&path, "{\"v\": 2}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\": 2}\n");
        assert!(!tmp_path(&path).exists(), "rename consumed the temp file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_line_accumulates_and_creates() {
        let dir = scratch("append");
        let path = dir.join("journal");
        FsSink.append_line(&path, "a").unwrap();
        FsSink.append_line(&path, "b").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a\nb\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_tolerates_missing_files() {
        let dir = scratch("remove");
        let path = dir.join("gone.json");
        FsSink.remove(&path).unwrap();
        FsSink.write_atomic(&path, "x").unwrap();
        FsSink.remove(&path).unwrap();
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_bytes_replaces_and_cleans_its_temp() {
        let dir = scratch("bytes");
        let path = dir.join("trace.bin");
        FsSink.write_atomic_bytes(&path, &[0xde, 0xad, 0x00, 0xbe]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), [0xde, 0xad, 0x00, 0xbe]);
        FsSink.write_atomic_bytes(&path, &[0x01]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), [0x01]);
        assert!(!tmp_path(&path).exists(), "rename consumed the temp file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_sink_injects_into_the_bytes_path_too() {
        let dir = scratch("chaos_bytes");
        let path = dir.join("t.bin");
        let chaos = ChaosSink::new(&FsSink, &[0]).torn();
        assert!(chaos.write_atomic_bytes(&path, &[1, 2, 3]).is_err(), "op 0 injected");
        assert!(!path.exists(), "target untouched");
        assert_eq!(std::fs::read(tmp_path(&path)).unwrap(), [1, 2, 3], "temp left behind");
        chaos.write_atomic_bytes(&path, &[4, 5]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), [4, 5]);
        assert!(!tmp_path(&path).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_sink_fails_the_named_ops_only() {
        let dir = scratch("chaos");
        let path = dir.join("a.json");
        let chaos = ChaosSink::new(&FsSink, &[1]);
        chaos.write_atomic(&path, "first").unwrap();
        assert!(chaos.append_line(&dir.join("j"), "line").is_err(), "op 1 injected");
        chaos.write_atomic(&path, "third").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "third");
        assert_eq!(chaos.ops_seen(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_mode_leaves_temp_without_touching_target() {
        let dir = scratch("torn");
        let path = dir.join("r.json");
        FsSink.write_atomic(&path, "old").unwrap();
        let chaos = ChaosSink::new(&FsSink, &[0]).torn();
        assert!(chaos.write_atomic(&path, "new").is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "old", "target untouched");
        assert_eq!(std::fs::read_to_string(tmp_path(&path)).unwrap(), "new", "temp left behind");
        // The next successful write overwrites the orphaned temp.
        FsSink.write_atomic(&path, "newer").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "newer");
        assert!(!tmp_path(&path).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
