//! Deterministic fault injection for the spill device.
//!
//! [`FaultIo`] wraps an inner [`SpillIo`] (the real filesystem by
//! default) and injects **scheduled** faults so the recovery ladder can
//! be exercised reproducibly:
//!
//! - `ENOSPC` once a total number of bytes has been written,
//! - transient errors by operation index (the same op succeeds when
//!   retried — the retry/backoff path),
//! - persistent errors from an operation index onward (the poisoning /
//!   degraded-execution path),
//! - a torn write that truncates one append at byte `k` and then wedges
//!   the file (the crash-mid-append path: the next read of that run is
//!   a typed error).
//!
//! Operation indices count **successful** operations, so a transiently
//! failed op keeps its index and the scheduled fault fires exactly once
//! regardless of the retry policy. Lifecycle ops (`remove_file`,
//! `create_dir_all`, `remove_dir_all`) always pass through: cleanup must
//! keep working on a broken device, and the leak tests rely on it.

use crate::io::{SpillIo, StdIo};
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One scheduled torn append: the `nth` successful write to a file whose
/// name contains `tag` keeps only its first `keep_bytes` bytes. The file
/// is wedged afterwards (later appends to it fail) — a torn tail models
/// a crash, and nothing may land after the tear.
#[derive(Debug, Clone)]
pub struct TornWrite {
    pub tag: String,
    pub nth: usize,
    pub keep_bytes: usize,
}

/// A deterministic fault schedule. `Default` injects nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    /// Writes fail (persistently) once this many bytes were written.
    pub enospc_after_bytes: Option<usize>,
    /// Every `n`th write op (index `% n == n - 1`) fails once.
    pub transient_write_every: Option<usize>,
    /// Every `n`th read op fails once.
    pub transient_read_every: Option<usize>,
    /// All write ops from this index onward fail.
    pub persistent_write_from: Option<usize>,
    /// All read ops from this index onward fail.
    pub persistent_read_from: Option<usize>,
    /// One torn append (see [`TornWrite`]).
    pub torn_write: Option<TornWrite>,
}

impl FaultSchedule {
    /// Only transient faults scheduled: with at least one retry
    /// configured, a run under this schedule must be bit-identical to a
    /// fault-free run.
    pub fn transient_only(&self) -> bool {
        self.enospc_after_bytes.is_none()
            && self.persistent_write_from.is_none()
            && self.persistent_read_from.is_none()
            && self.torn_write.is_none()
    }

    /// Derive a schedule from a seed, cycling through the three fault
    /// classes (`seed % 3`): transient-only, `ENOSPC`, persistent reads.
    /// The remaining seed bits vary the fault positions, so a seed sweep
    /// covers faults landing in different phases of a query.
    pub fn from_seed(seed: u64) -> Self {
        let mix = wake_data::hash::mix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
        match seed % 3 {
            0 => FaultSchedule {
                transient_write_every: Some(2 + (mix % 5) as usize),
                transient_read_every: Some(2 + ((mix >> 8) % 5) as usize),
                ..Default::default()
            },
            1 => FaultSchedule {
                enospc_after_bytes: Some(16 << 10 << (mix % 4)),
                transient_write_every: Some(3 + ((mix >> 8) % 4) as usize),
                ..Default::default()
            },
            _ => FaultSchedule {
                persistent_read_from: Some((mix % 24) as usize),
                transient_write_every: Some(3 + ((mix >> 8) % 4) as usize),
                ..Default::default()
            },
        }
    }
}

#[derive(Debug, Default)]
struct FaultState {
    /// Transient op indices that already fired once.
    tripped_writes: HashSet<usize>,
    tripped_reads: HashSet<usize>,
    /// Successful torn writes so far per matching tag (to find `nth`).
    torn_seen: usize,
    /// Files wedged by a torn append.
    wedged: HashSet<std::path::PathBuf>,
}

/// A spill device with scheduled faults. See the module docs.
#[derive(Debug)]
pub struct FaultIo {
    inner: StdIo,
    schedule: FaultSchedule,
    write_ops: AtomicUsize,
    read_ops: AtomicUsize,
    bytes_written: AtomicUsize,
    faults_injected: AtomicUsize,
    state: Mutex<FaultState>,
}

impl FaultIo {
    pub fn new(schedule: FaultSchedule) -> Self {
        FaultIo {
            inner: StdIo,
            schedule,
            write_ops: AtomicUsize::new(0),
            read_ops: AtomicUsize::new(0),
            bytes_written: AtomicUsize::new(0),
            faults_injected: AtomicUsize::new(0),
            state: Mutex::new(FaultState::default()),
        }
    }

    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Successful write ops so far.
    pub fn writes(&self) -> usize {
        op_count(&self.write_ops)
    }

    /// Successful read ops so far.
    pub fn reads(&self) -> usize {
        op_count(&self.read_ops)
    }

    /// Total faults injected (errors returned plus torn appends).
    pub fn faults_injected(&self) -> usize {
        op_count(&self.faults_injected)
    }

    fn fault(&self, msg: String) -> std::io::Error {
        op_inc(&self.faults_injected, 1);
        std::io::Error::other(msg)
    }

    fn transient_hit(every: Option<usize>, idx: usize, tripped: &mut HashSet<usize>) -> bool {
        match every {
            Some(n) if n > 0 && idx % n == n - 1 => tripped.insert(idx),
            _ => false,
        }
    }
}

// Fault-op counters are approximate schedule clocks: each one only
// orders the fault decisions of the thread that bumps it, and test
// assertions read them after the worker threads are joined (the join is
// the happens-before edge), so all accesses go through these helpers.

// relaxed: per-thread schedule clock; assertions read after join
fn op_count(cell: &AtomicUsize) -> usize {
    cell.load(Ordering::Relaxed)
}

// relaxed: per-thread schedule clock; assertions read after join
fn op_inc(cell: &AtomicUsize, n: usize) {
    cell.fetch_add(n, Ordering::Relaxed);
}

impl SpillIo for FaultIo {
    fn append(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let idx = op_count(&self.write_ops);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.wedged.contains(path) {
            drop(st);
            return Err(self.fault(format!("injected: file wedged by torn write: {path:?}")));
        }
        if let Some(limit) = self.schedule.enospc_after_bytes {
            if op_count(&self.bytes_written) >= limit {
                drop(st);
                return Err(self.fault(format!("injected: no space left on device ({limit}B)")));
            }
        }
        if let Some(from) = self.schedule.persistent_write_from {
            if idx >= from {
                drop(st);
                return Err(self.fault(format!("injected: persistent write failure at op {idx}")));
            }
        }
        if Self::transient_hit(
            self.schedule.transient_write_every,
            idx,
            &mut st.tripped_writes,
        ) {
            drop(st);
            return Err(self.fault(format!("injected: transient write failure at op {idx}")));
        }
        let torn = self.schedule.torn_write.as_ref().and_then(|t| {
            let name = path.file_name()?.to_string_lossy().into_owned();
            if !name.contains(&t.tag) {
                return None;
            }
            let hit = (st.torn_seen == t.nth).then_some(t.keep_bytes);
            st.torn_seen += 1;
            hit
        });
        if let Some(keep) = torn {
            st.wedged.insert(path.to_path_buf());
            drop(st);
            // The tear: ack the append but persist only a prefix.
            op_inc(&self.faults_injected, 1);
            self.inner.append(path, &bytes[..keep.min(bytes.len())])?;
        } else {
            drop(st);
            self.inner.append(path, bytes)?;
        }
        op_inc(&self.write_ops, 1);
        op_inc(&self.bytes_written, bytes.len());
        Ok(())
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let idx = op_count(&self.read_ops);
        if let Some(from) = self.schedule.persistent_read_from {
            if idx >= from {
                return Err(self.fault(format!("injected: persistent read failure at op {idx}")));
            }
        }
        {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            if Self::transient_hit(
                self.schedule.transient_read_every,
                idx,
                &mut st.tripped_reads,
            ) {
                drop(st);
                return Err(self.fault(format!("injected: transient read failure at op {idx}")));
            }
        }
        let out = self.inner.read(path)?;
        op_inc(&self.read_ops, 1);
        Ok(out)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_dir_all(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wake-fault-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn transient_faults_fire_once_per_op_index() {
        let io = FaultIo::new(FaultSchedule {
            transient_write_every: Some(2), // ops 1, 3, 5, ... fail once
            ..Default::default()
        });
        let p = tmp("transient.wcs");
        std::fs::remove_file(&p).ok();
        io.append(&p, b"a").unwrap(); // op 0
        let err = io.append(&p, b"b").unwrap_err(); // op 1 trips
        assert!(err.to_string().contains("transient"));
        io.append(&p, b"b").unwrap(); // retry of op 1 succeeds
        io.append(&p, b"c").unwrap(); // op 2
        assert!(io.append(&p, b"d").is_err()); // op 3 trips
        io.append(&p, b"d").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"abcd");
        assert_eq!(io.writes(), 4);
        assert_eq!(io.faults_injected(), 2);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn enospc_trips_after_byte_limit_and_reads_survive() {
        let io = FaultIo::new(FaultSchedule {
            enospc_after_bytes: Some(4),
            ..Default::default()
        });
        let p = tmp("enospc.wcs");
        std::fs::remove_file(&p).ok();
        io.append(&p, b"1234").unwrap();
        let err = io.append(&p, b"5").unwrap_err();
        assert!(err.to_string().contains("no space"), "{err}");
        assert!(io.append(&p, b"5").is_err(), "ENOSPC is persistent");
        // A full disk still reads back what was written.
        assert_eq!(io.read(&p).unwrap(), b"1234");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn torn_write_keeps_prefix_and_wedges_the_file() {
        let io = FaultIo::new(FaultSchedule {
            torn_write: Some(TornWrite {
                tag: "delta".to_string(),
                nth: 1,
                keep_bytes: 2,
            }),
            ..Default::default()
        });
        let p = tmp("delta-000001.wcs");
        let other = tmp("base-000000.wcs");
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&other).ok();
        io.append(&p, b"aaaa").unwrap(); // nth 0: intact
        io.append(&p, b"bbbb").unwrap(); // nth 1: torn at 2, acked
        assert_eq!(io.read(&p).unwrap(), b"aaaabb");
        assert!(io.append(&p, b"cc").is_err(), "wedged after the tear");
        // Files not matching the tag are untouched by the schedule.
        io.append(&other, b"zzzz").unwrap();
        assert_eq!(io.read(&other).unwrap(), b"zzzz");
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&other).ok();
    }

    #[test]
    fn persistent_read_failure_by_op_index() {
        let io = FaultIo::new(FaultSchedule {
            persistent_read_from: Some(1),
            ..Default::default()
        });
        let p = tmp("pread.wcs");
        std::fs::write(&p, b"x").unwrap();
        assert_eq!(io.read(&p).unwrap(), b"x"); // op 0
        assert!(io.read(&p).is_err()); // op 1 onward
        assert!(io.read(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_classified() {
        for seed in 0..12u64 {
            let a = FaultSchedule::from_seed(seed);
            let b = FaultSchedule::from_seed(seed);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_eq!(a.transient_only(), seed % 3 == 0, "seed {seed}: {a:?}");
        }
    }

    /// The schedules a `WAKE_FAULT_SEED` sweep runs, pinned: (ENOSPC
    /// bytes, transient write every, transient read every, persistent
    /// read from) for seeds 0..6.
    #[test]
    fn seeded_schedules_are_pinned() {
        let pinned = [
            (None, Some(2), Some(2), None),
            (Some(32 << 10), Some(3), None, None),
            (None, Some(5), None, Some(22)),
            (None, Some(5), Some(3), None),
            (Some(64 << 10), Some(5), None, None),
            (None, Some(6), None, Some(2)),
            (None, Some(4), Some(4), None),
        ];
        for (seed, want) in pinned.into_iter().enumerate() {
            let s = FaultSchedule::from_seed(seed as u64);
            let got = (
                s.enospc_after_bytes,
                s.transient_write_every,
                s.transient_read_every,
                s.persistent_read_from,
            );
            assert_eq!(got, want, "seed {seed}");
            assert!(s.persistent_write_from.is_none() && s.torn_write.is_none());
        }
    }
}
