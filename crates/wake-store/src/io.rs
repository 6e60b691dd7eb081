//! The spill I/O boundary: every byte the out-of-core machinery moves to
//! or from disk goes through one [`SpillIo`] handle.
//!
//! Production uses [`StdIo`] (plain `std::fs`). Tests and benches inject
//! a deterministic fault device ([`FaultIo`](crate::fault::FaultIo)) to
//! prove the recovery ladder:
//!
//! 1. **retry** — a failed append/read is retried with bounded
//!    exponential backoff ([`with_retries`]); each retry is counted in
//!    `SpillMetrics::io_retries`.
//! 2. **poison** — retries exhausted means the device is persistently
//!    gone: the query's [`MemoryGovernor`] is poisoned and the failure
//!    surfaces as the typed `DataError::SpillUnavailable`. Shards notice
//!    the poisoned governor, rehydrate what is still readable, suspend
//!    the budget, and continue resident ("degraded" execution);
//!    `RunWriter::flush` keeps unwritable bytes in its pending buffer so
//!    in-flight runs stay readable without the device.
//!
//! Append failures are assumed not to partially write (the retry would
//! otherwise duplicate a prefix). A torn or corrupt run — the crash
//! case — fails its chunk length or checksum check on read and surfaces
//! as a typed error, for group-by and join runs alike. Keeping an
//! intact prefix would silently drop rows (a join run) or a whole
//! partition state (a group-by run is rewritten whole at every fold).

use crate::governor::MemoryGovernor;
use crate::Result;
use std::fs::OpenOptions;
use std::io::{Read, Write};
use std::path::Path;
use wake_data::DataError;

/// File operations the spill layer needs, as a mockable device.
///
/// Directory creation/removal and file removal are lifecycle operations:
/// they are *not* retried (a query-start `create_dir_all` failure is an
/// ordinary typed error, and cleanup is best-effort on every device).
pub trait SpillIo: Send + Sync + std::fmt::Debug {
    /// Append `bytes` to the file at `path`, creating it if needed.
    fn append(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
    /// Read the entire file at `path`.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Remove the file at `path`.
    fn remove_file(&self, path: &Path) -> std::io::Result<()>;
    /// Create `path` and its ancestors.
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()>;
    /// Recursively remove `path`.
    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()>;

    /// Read `len` bytes starting at `offset`. The default routes through
    /// [`SpillIo::read`] so fault-injecting devices cover ranged reads for
    /// free; real devices override with a positioned read. Reading past the
    /// end of the file is an error (segment offsets are footer-validated).
    fn read_range(&self, path: &Path, offset: u64, len: u64) -> std::io::Result<Vec<u8>> {
        let bytes = self.read(path)?;
        let start = usize::try_from(offset).map_err(|_| range_err(path, offset, len))?;
        let n = usize::try_from(len).map_err(|_| range_err(path, offset, len))?;
        let end = start
            .checked_add(n)
            .ok_or_else(|| range_err(path, offset, len))?;
        if end > bytes.len() {
            return Err(range_err(path, offset, len));
        }
        Ok(bytes[start..end].to_vec())
    }

    /// The current length of the file at `path`, in bytes.
    fn len(&self, path: &Path) -> std::io::Result<u64> {
        Ok(self.read(path)?.len() as u64)
    }
}

fn range_err(path: &Path, offset: u64, len: u64) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        format!(
            "range [{offset}, +{len}) out of bounds for {}",
            path.display()
        ),
    )
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdIo;

impl SpillIo for StdIo {
    fn append(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut f = OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(bytes)
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_dir_all(path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: u64) -> std::io::Result<Vec<u8>> {
        use std::io::{Seek, SeekFrom};
        let mut f = std::fs::File::open(path)?;
        f.seek(SeekFrom::Start(offset))?;
        let n = usize::try_from(len).map_err(std::io::Error::other)?;
        let mut bytes = vec![0u8; n];
        f.read_exact(&mut bytes)?;
        Ok(bytes)
    }

    fn len(&self, path: &Path) -> std::io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }
}

/// Run `op` under the governor's retry policy: transient failures are
/// retried with exponential backoff (each one recorded in the ledger);
/// exhausting the attempts poisons the governor and returns the typed
/// [`DataError::SpillUnavailable`]. On an already-poisoned governor the
/// op gets exactly one attempt (the device may still serve reads — e.g.
/// after `ENOSPC` — but there is no point backing off for it again).
pub fn with_retries<T>(
    governor: &MemoryGovernor,
    what: &str,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> Result<T> {
    let mut attempt: u32 = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                if governor.is_poisoned() || attempt >= governor.retry_attempts() {
                    governor.poison();
                    return Err(DataError::SpillUnavailable(format!(
                        "{what} failed after {attempt} retries: {e}"
                    )));
                }
                governor.record_io_retry();
                std::thread::sleep(governor.retry_base_delay() * 2u32.saturating_pow(attempt));
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn gov(retries: u32) -> MemoryGovernor {
        MemoryGovernor::new(Some(1 << 20)).with_retry_policy(retries, Duration::from_micros(10))
    }

    #[test]
    fn std_io_append_read_roundtrip() {
        let dir = std::env::temp_dir().join(format!("wake-io-test-{}", std::process::id()));
        StdIo.create_dir_all(&dir).unwrap();
        let p = dir.join("run.wcs");
        StdIo.append(&p, b"abc").unwrap();
        StdIo.append(&p, b"def").unwrap();
        assert_eq!(StdIo.read(&p).unwrap(), b"abcdef");
        StdIo.remove_file(&p).unwrap();
        assert!(StdIo.read(&p).is_err());
        StdIo.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ranged_reads_and_len() {
        let dir = std::env::temp_dir().join(format!("wake-io-range-{}", std::process::id()));
        StdIo.create_dir_all(&dir).unwrap();
        let p = dir.join("seg.wseg");
        StdIo.append(&p, b"0123456789").unwrap();
        assert_eq!(StdIo.len(&p).unwrap(), 10);
        assert_eq!(StdIo.read_range(&p, 3, 4).unwrap(), b"3456");
        assert_eq!(StdIo.read_range(&p, 0, 0).unwrap(), b"");
        assert!(StdIo.read_range(&p, 8, 4).is_err(), "past EOF must error");

        // A device that only implements the required methods gets ranged
        // reads via the default full-read path, with the same bounds checks.
        #[derive(Debug)]
        struct WholeFileOnly;
        impl SpillIo for WholeFileOnly {
            fn append(&self, _: &Path, _: &[u8]) -> std::io::Result<()> {
                unreachable!()
            }
            fn read(&self, _: &Path) -> std::io::Result<Vec<u8>> {
                Ok(b"0123456789".to_vec())
            }
            fn remove_file(&self, _: &Path) -> std::io::Result<()> {
                unreachable!()
            }
            fn create_dir_all(&self, _: &Path) -> std::io::Result<()> {
                unreachable!()
            }
            fn remove_dir_all(&self, _: &Path) -> std::io::Result<()> {
                unreachable!()
            }
        }
        assert_eq!(WholeFileOnly.read_range(&p, 3, 4).unwrap(), b"3456");
        assert_eq!(WholeFileOnly.len(&p).unwrap(), 10);
        assert!(WholeFileOnly.read_range(&p, 8, 4).is_err());
        StdIo.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_failures_retry_and_are_counted() {
        let g = gov(2);
        let mut calls = 0;
        let out = with_retries(&g, "test op", || {
            calls += 1;
            if calls < 3 {
                Err(std::io::Error::other("flaky"))
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!(out, 42);
        assert_eq!(calls, 3);
        assert_eq!(g.metrics().io_retries, 2);
        assert!(!g.is_poisoned());
    }

    #[test]
    fn exhausted_retries_poison_and_fail_typed() {
        let g = gov(2);
        let mut calls = 0;
        let err = with_retries(&g, "test op", || -> std::io::Result<()> {
            calls += 1;
            Err(std::io::Error::other("dead"))
        })
        .unwrap_err();
        assert!(matches!(err, DataError::SpillUnavailable(_)), "{err}");
        assert_eq!(calls, 3, "one attempt plus two retries");
        assert!(g.is_poisoned());
        // Poisoned governor: single attempt, no further retry telemetry.
        let retries_before = g.metrics().io_retries;
        let mut calls = 0;
        let err = with_retries(&g, "test op", || -> std::io::Result<()> {
            calls += 1;
            Err(std::io::Error::other("still dead"))
        })
        .unwrap_err();
        assert!(matches!(err, DataError::SpillUnavailable(_)));
        assert_eq!(calls, 1);
        assert_eq!(g.metrics().io_retries, retries_before);
    }

    #[test]
    fn zero_retry_policy_fails_on_first_error() {
        let g = gov(0);
        let err = with_retries(&g, "test op", || -> std::io::Result<()> {
            Err(std::io::Error::other("once"))
        })
        .unwrap_err();
        assert!(matches!(err, DataError::SpillUnavailable(_)));
        assert!(g.is_poisoned());
        assert_eq!(g.metrics().io_retries, 0);
    }
}
