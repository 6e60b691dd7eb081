//! The spill-file format: runs of checksummed columnar chunks.
//!
//! A **run** is an append-only sequence of [`Chunk`]s — the unit an
//! operator spills (one chunk per buffered sub-frame, or one chunk for a
//! whole serialized partition state). Each chunk is a self-delimiting
//! envelope:
//!
//! ```text
//! magic "WAKSPIL1"
//! u64 payload_len
//! u64 checksum            FNV-1a 64 over the payload bytes
//! payload:
//!   u8  sections          bit 0: key hashes, bit 1: null mask,
//!                         bit 2: row flags,  bit 3: extra bytes
//!   u64 frame_len
//!   WCF frame             (wake_data::colfile — typed column buffers)
//!   [hashes]              rows × u64 (little-endian)
//!   [null mask]           ceil(rows/8) bytes, LSB-first
//!   [row flags]           ceil(rows/8) bytes, LSB-first
//!   [extra]               u64 len + opaque bytes (operator state)
//! ```
//!
//! The header makes torn writes detectable: a truncated tail fails the
//! length check, a corrupted body fails the checksum, and both surface as
//! typed [`DataError`](wake_data::DataError)s instead of garbage frames.
//! Everything inside the payload is typed column buffers — no `Value`
//! boxing on the write or the read path.
//!
//! [`RunWriter`] buffers encoded chunks in memory (the "spill-pending"
//! buffer, charged to the owning shard's `state_bytes`) and flushes to
//! its file past a threshold; [`RunWriter::read_all`] rehydrates the full
//! run (disk + pending) in append order.

use crate::dir::SpillDir;
use crate::governor::MemoryGovernor;
use crate::io::with_retries;
use crate::Result;
use std::path::PathBuf;
use std::sync::Arc;
use wake_data::colfile::{pack_bits, read_colfile, unpack_bits, write_colfile, ByteCursor};
use wake_data::hash::KeyHashes;
use wake_data::{DataError, DataFrame};

const CHUNK_MAGIC: &[u8; 8] = b"WAKSPIL1";

const SEC_HASHES: u8 = 1;
const SEC_NULLS: u8 = 2;
const SEC_FLAGS: u8 = 4;
const SEC_EXTRA: u8 = 8;

/// Default pending-buffer size before a run flushes to its file.
pub const FLUSH_THRESHOLD: usize = 256 << 10;

/// Hard cap on a single chunk's payload (and any length header inside
/// it). Length headers are decoded **before** the checksum can vouch for
/// them — a corrupted or hostile header must fail this typed check
/// instead of attempting a multi-gigabyte allocation (or overflowing
/// `usize` arithmetic on 32-bit targets).
pub const MAX_CHUNK_BYTES: usize = 1 << 30;

/// Validate an untrusted `u64` length header against [`MAX_CHUNK_BYTES`]
/// before narrowing it to `usize` (the cap fits in 32 bits, so the cast
/// below is lossless on every target).
pub(crate) fn checked_len(len: u64, what: &str) -> Result<usize> {
    if len > MAX_CHUNK_BYTES as u64 {
        return Err(DataError::Parse(format!(
            "spill chunk {what} {len} exceeds the {MAX_CHUNK_BYTES}-byte cap"
        )));
    }
    usize::try_from(len)
        .map_err(|_| DataError::Parse(format!("spill chunk {what} {len} does not fit in usize")))
}

/// FNV-1a 64 over a byte slice (cheap, order-sensitive — torn and
/// bit-flipped payloads fail with overwhelming probability).
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One spilled envelope: a frame plus the row-aligned side tables the
/// operators need to resume exactly where they left off. The frame is
/// `Arc`-shared so operators can spill already-shared buffers without a
/// deep copy (the encode happens immediately; the `Arc` then drops).
#[derive(Debug, Clone)]
pub struct Chunk {
    pub frame: Arc<DataFrame>,
    /// Precomputed key hashes (avoids a re-hash on rehydration).
    pub hashes: Option<KeyHashes>,
    /// Per-row flags (e.g. "already matched/emitted" for join lefts).
    pub flags: Option<Vec<bool>>,
    /// Opaque operator-state section (e.g. encoded aggregate states).
    pub extra: Vec<u8>,
}

impl Chunk {
    pub fn frame_only(frame: Arc<DataFrame>) -> Self {
        Chunk {
            frame,
            hashes: None,
            flags: None,
            extra: Vec::new(),
        }
    }

    pub fn with_hashes(frame: Arc<DataFrame>, hashes: KeyHashes) -> Self {
        Chunk {
            frame,
            hashes: Some(hashes),
            flags: None,
            extra: Vec::new(),
        }
    }

    /// Approximate in-memory footprint (used for budget math before the
    /// chunk reaches its run).
    pub fn byte_size(&self) -> usize {
        self.frame.byte_size()
            + self.hashes.as_ref().map_or(0, |h| h.byte_size())
            + self.flags.as_ref().map_or(0, |f| f.len())
            + self.extra.len()
    }
}

/// Encode one chunk into `out`.
pub fn encode_chunk(chunk: &Chunk, out: &mut Vec<u8>) -> Result<()> {
    let rows = chunk.frame.num_rows();
    if let Some(h) = &chunk.hashes {
        if h.hashes.len() != rows {
            return Err(DataError::ShapeMismatch(format!(
                "chunk hashes {} != rows {rows}",
                h.hashes.len()
            )));
        }
    }
    if let Some(f) = &chunk.flags {
        if f.len() != rows {
            return Err(DataError::ShapeMismatch(format!(
                "chunk flags {} != rows {rows}",
                f.len()
            )));
        }
    }
    let mut payload = Vec::with_capacity(chunk.byte_size() + 64);
    let mut sections = 0u8;
    if chunk.hashes.is_some() {
        sections |= SEC_HASHES;
        if chunk.hashes.as_ref().is_some_and(|h| h.any_null.is_some()) {
            sections |= SEC_NULLS;
        }
    }
    if chunk.flags.is_some() {
        sections |= SEC_FLAGS;
    }
    if !chunk.extra.is_empty() {
        sections |= SEC_EXTRA;
    }
    payload.push(sections);
    let mut frame_bytes = Vec::new();
    write_colfile(&chunk.frame, &mut frame_bytes)?;
    payload.extend_from_slice(&(frame_bytes.len() as u64).to_le_bytes());
    payload.extend_from_slice(&frame_bytes);
    if let Some(h) = &chunk.hashes {
        for &x in &h.hashes {
            payload.extend_from_slice(&x.to_le_bytes());
        }
        if let Some(mask) = &h.any_null {
            payload.extend_from_slice(&pack_bits(mask.iter().copied()));
        }
    }
    if let Some(flags) = &chunk.flags {
        payload.extend_from_slice(&pack_bits(flags.iter().copied()));
    }
    if !chunk.extra.is_empty() {
        payload.extend_from_slice(&(chunk.extra.len() as u64).to_le_bytes());
        payload.extend_from_slice(&chunk.extra);
    }
    if payload.len() > MAX_CHUNK_BYTES {
        return Err(DataError::Invalid(format!(
            "spill chunk payload {} exceeds the {MAX_CHUNK_BYTES}-byte cap",
            payload.len()
        )));
    }
    out.extend_from_slice(CHUNK_MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(())
}

/// Decode one chunk from the cursor (header validation + checksum). All
/// length headers go through checked arithmetic with a per-chunk cap —
/// they are read before (or, for the sections, independently of) the
/// checksum, so hostile values must fail typed rather than allocate.
pub fn decode_chunk(c: &mut ByteCursor<'_>) -> Result<Chunk> {
    if c.take(8)? != CHUNK_MAGIC {
        return Err(DataError::Parse("not a spill chunk (bad magic)".into()));
    }
    let len = checked_len(c.u64()?, "payload length")?;
    let sum = c.u64()?;
    let payload = c
        .take(len)
        .map_err(|_| DataError::Parse("torn spill chunk (truncated payload)".into()))?;
    if checksum64(payload) != sum {
        return Err(DataError::Parse("spill chunk checksum mismatch".into()));
    }
    let mut rest = ByteCursor::new(payload);
    let sections = rest.u8()?;
    let frame_len = checked_len(rest.u64()?, "frame length")?;
    let frame = read_colfile(rest.take(frame_len)?)?;
    let rows = frame.num_rows();
    let hashes = if sections & SEC_HASHES != 0 {
        let hash_bytes = rows
            .checked_mul(8)
            .ok_or_else(|| DataError::Parse("spill chunk row count overflows".into()))?;
        let raw = rest.take(hash_bytes)?;
        let hs: Vec<u64> = raw
            .chunks_exact(8)
            // tidy-allow: panic-path: chunks_exact(8) yields exactly 8-byte slices by contract
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        let any_null = if sections & SEC_NULLS != 0 {
            Some(unpack_bits(rest.take(rows.div_ceil(8))?, rows))
        } else {
            None
        };
        Some(KeyHashes {
            hashes: hs,
            any_null,
        })
    } else {
        None
    };
    let flags = if sections & SEC_FLAGS != 0 {
        Some(unpack_bits(rest.take(rows.div_ceil(8))?, rows))
    } else {
        None
    };
    let extra = if sections & SEC_EXTRA != 0 {
        let n = checked_len(rest.u64()?, "extra length")?;
        rest.take(n)?.to_vec()
    } else {
        Vec::new()
    };
    if rest.remaining() != 0 {
        return Err(DataError::Parse("trailing bytes in spill chunk".into()));
    }
    Ok(Chunk {
        frame: Arc::new(frame),
        hashes,
        flags,
        extra,
    })
}

/// Decode a whole run buffer into chunks (append order).
pub fn decode_all(bytes: &[u8]) -> Result<Vec<Chunk>> {
    let mut c = ByteCursor::new(bytes);
    let mut out = Vec::new();
    while c.remaining() > 0 {
        out.push(decode_chunk(&mut c)?);
    }
    Ok(out)
}

/// An appendable spill run: encoded chunks buffered in memory until the
/// flush threshold, then appended to a uniquely named file in the query's
/// [`SpillDir`]. The file is deleted when the run is dropped or cleared.
#[derive(Debug)]
pub struct RunWriter {
    dir: Arc<SpillDir>,
    governor: Arc<MemoryGovernor>,
    tag: String,
    path: Option<PathBuf>,
    /// Encoded-but-unflushed chunk bytes (the spill-pending buffer; the
    /// owning shard charges this to its `state_bytes`).
    buf: Vec<u8>,
    flushed: usize,
    chunks: usize,
    /// Chunks encoded since the last flush (for the governor's ledger).
    chunks_pending: usize,
    flush_threshold: usize,
}

impl RunWriter {
    pub fn new(dir: Arc<SpillDir>, governor: Arc<MemoryGovernor>, tag: &str) -> Self {
        RunWriter {
            dir,
            governor,
            tag: tag.to_string(),
            path: None,
            buf: Vec::new(),
            flushed: 0,
            chunks: 0,
            chunks_pending: 0,
            flush_threshold: FLUSH_THRESHOLD,
        }
    }

    /// Override the pending-buffer flush threshold (tests use tiny ones).
    pub fn with_flush_threshold(mut self, bytes: usize) -> Self {
        self.flush_threshold = bytes;
        self
    }

    /// Append one chunk (encoded immediately, so the frame's memory can
    /// be released by the caller).
    pub fn push(&mut self, chunk: &Chunk) -> Result<()> {
        encode_chunk(chunk, &mut self.buf)?;
        self.chunks += 1;
        self.chunks_pending += 1;
        if self.buf.len() >= self.flush_threshold {
            self.flush()?;
        }
        Ok(())
    }

    /// Force pending bytes to disk.
    ///
    /// **Write failures do not fail the run.** The append goes through
    /// the governor's retry policy; if the device stays dead the governor
    /// is poisoned and the bytes simply *stay in the pending buffer* —
    /// the run degrades to memory-resident (readable via [`read_all`]
    /// without the device, still charged to the shard's `state_bytes`)
    /// and `flush` returns `Ok`. Shards watch `governor.is_poisoned()`
    /// to stop evicting; only *read* failures surface as errors.
    ///
    /// [`read_all`]: Self::read_all
    pub fn flush(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let path = match &self.path {
            Some(p) => p.clone(),
            None => self.dir.next_path(&self.tag),
        };
        let io = self.dir.io().clone();
        match with_retries(&self.governor, "spill append", || {
            io.append(&path, &self.buf)
        }) {
            Ok(()) => {
                self.path = Some(path);
                self.governor
                    .record_spill(self.buf.len(), self.chunks_pending);
                self.flushed += self.buf.len();
                self.buf.clear();
                self.chunks_pending = 0;
                Ok(())
            }
            Err(DataError::SpillUnavailable(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    pub fn chunk_count(&self) -> usize {
        self.chunks
    }

    pub fn is_empty(&self) -> bool {
        self.chunks == 0
    }

    /// Bytes sitting in the pending (in-memory) buffer.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Total encoded bytes in the run (disk + pending).
    pub fn total_bytes(&self) -> usize {
        self.flushed + self.buf.len()
    }

    /// Rehydrate the full run in append order (disk chunks first, then
    /// pending). The run remains readable and appendable afterwards. A
    /// run that holds no chunk has no file: it reads as empty without
    /// touching the device or counting a rehydration.
    pub fn read_all(&self) -> Result<Vec<Chunk>> {
        if self.is_empty() {
            return Ok(Vec::new());
        }
        self.governor.record_rehydration();
        let mut bytes = match &self.path {
            Some(p) => {
                let io = self.dir.io().clone();
                with_retries(&self.governor, "spill read", || io.read(p))?
            }
            None => Vec::with_capacity(self.buf.len()),
        };
        bytes.extend_from_slice(&self.buf);
        decode_all(&bytes)
    }

    /// Drop all content (disk file included) and reset to empty.
    pub fn clear(&mut self) {
        if let Some(p) = self.path.take() {
            let _ = self.dir.io().remove_file(&p);
        }
        self.buf.clear();
        self.flushed = 0;
        self.chunks = 0;
        self.chunks_pending = 0;
    }
}

impl Drop for RunWriter {
    fn drop(&mut self) {
        if let Some(p) = &self.path {
            let _ = self.dir.io().remove_file(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use wake_data::{DataType, Field, Schema, Value};

    fn sample_frame() -> Arc<DataFrame> {
        Arc::new(sample_frame_inner())
    }

    fn sample_frame_inner() -> DataFrame {
        let schema = StdArc::new(Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("s", DataType::Utf8),
        ]));
        DataFrame::from_rows(
            schema,
            &[
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Null, Value::str("")],
                vec![Value::Int(-7), Value::str("zß水")],
            ],
        )
        .unwrap()
    }

    fn sample_chunk() -> Chunk {
        Chunk {
            frame: sample_frame(),
            hashes: Some(KeyHashes {
                hashes: vec![1, u64::MAX, 42],
                any_null: Some(vec![false, true, false]),
            }),
            flags: Some(vec![true, false, true]),
            extra: vec![9, 8, 7],
        }
    }

    #[test]
    fn chunk_roundtrip_all_sections() {
        let chunk = sample_chunk();
        let mut buf = Vec::new();
        encode_chunk(&chunk, &mut buf).unwrap();
        let back = decode_chunk(&mut ByteCursor::new(&buf)).unwrap();
        assert_eq!(back.frame, chunk.frame);
        assert_eq!(back.hashes.as_ref().unwrap().hashes, vec![1, u64::MAX, 42]);
        assert_eq!(
            back.hashes.unwrap().any_null,
            Some(vec![false, true, false])
        );
        assert_eq!(back.flags, Some(vec![true, false, true]));
        assert_eq!(back.extra, vec![9, 8, 7]);
    }

    #[test]
    fn chunk_roundtrip_frame_only() {
        let chunk = Chunk::frame_only(sample_frame());
        let mut buf = Vec::new();
        encode_chunk(&chunk, &mut buf).unwrap();
        let back = decode_chunk(&mut ByteCursor::new(&buf)).unwrap();
        assert_eq!(back.frame, chunk.frame);
        assert!(back.hashes.is_none() && back.flags.is_none());
        assert!(back.extra.is_empty());
    }

    #[test]
    fn corruption_and_truncation_detected() {
        let mut buf = Vec::new();
        encode_chunk(&sample_chunk(), &mut buf).unwrap();
        // Truncated tail (torn write).
        let torn = &buf[..buf.len() - 2];
        assert!(decode_chunk(&mut ByteCursor::new(torn)).is_err());
        // Bit flip in the payload fails the checksum.
        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(decode_chunk(&mut ByteCursor::new(&flipped)).is_err());
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(decode_chunk(&mut ByteCursor::new(&bad)).is_err());
        // Shape mismatches rejected at encode time.
        let mut c = sample_chunk();
        c.flags = Some(vec![true]);
        assert!(encode_chunk(&c, &mut Vec::new()).is_err());
    }

    #[test]
    fn run_writer_roundtrip_and_flush_accounting() {
        let dir = StdArc::new(SpillDir::new_temp().unwrap());
        let gov = StdArc::new(MemoryGovernor::new(Some(1 << 20)));
        let mut run = RunWriter::new(dir.clone(), gov.clone(), "t").with_flush_threshold(64);
        assert!(run.is_empty());
        for _ in 0..5 {
            run.push(&sample_chunk()).unwrap();
        }
        assert_eq!(run.chunk_count(), 5);
        // Tiny threshold: most bytes hit the disk, some may be pending.
        assert!(run.total_bytes() > run.pending_bytes());
        assert!(gov.metrics().spilled_bytes > 0);
        let chunks = run.read_all().unwrap();
        assert_eq!(chunks.len(), 5);
        assert_eq!(chunks[0].frame, sample_frame());
        assert_eq!(gov.metrics().rehydrations, 1);
        // Appending after a read keeps working.
        run.push(&sample_chunk()).unwrap();
        assert_eq!(run.read_all().unwrap().len(), 6);
        run.clear();
        assert!(run.is_empty());
        assert_eq!(run.read_all().unwrap().len(), 0);
    }

    #[test]
    fn flush_soft_fails_when_the_device_dies() {
        use crate::fault::{FaultIo, FaultSchedule};
        let io = StdArc::new(FaultIo::new(FaultSchedule {
            persistent_write_from: Some(0),
            ..FaultSchedule::default()
        }));
        let dir = StdArc::new(SpillDir::new_temp_with(io).unwrap());
        let gov = StdArc::new(
            MemoryGovernor::new(Some(1 << 20))
                .with_retry_policy(1, std::time::Duration::from_micros(10)),
        );
        let mut run = RunWriter::new(dir.clone(), gov.clone(), "dead").with_flush_threshold(1);
        // Every push crosses the threshold and tries to flush; the append
        // fails persistently — yet push/flush return Ok, the governor is
        // poisoned, and the bytes stay pending (memory-resident run).
        for _ in 0..3 {
            run.push(&sample_chunk()).unwrap();
        }
        assert!(gov.is_poisoned());
        assert!(gov.metrics().io_retries >= 1);
        assert_eq!(gov.metrics().spilled_bytes, 0, "nothing reached disk");
        assert_eq!(run.pending_bytes(), run.total_bytes());
        assert_eq!(dir.root().read_dir().unwrap().count(), 0);
        // The run reads back fine without the device.
        let chunks = run.read_all().unwrap();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].frame, sample_frame());
    }

    #[test]
    fn transient_append_faults_are_invisible() {
        use crate::fault::{FaultIo, FaultSchedule};
        let io = StdArc::new(FaultIo::new(FaultSchedule {
            transient_write_every: Some(2),
            transient_read_every: Some(2),
            ..FaultSchedule::default()
        }));
        let dir = StdArc::new(SpillDir::new_temp_with(io).unwrap());
        let gov = StdArc::new(
            MemoryGovernor::new(Some(1 << 20))
                .with_retry_policy(2, std::time::Duration::from_micros(10)),
        );
        let mut run = RunWriter::new(dir, gov.clone(), "flaky").with_flush_threshold(1);
        for _ in 0..4 {
            run.push(&sample_chunk()).unwrap();
        }
        assert_eq!(run.pending_bytes(), 0, "every flush eventually landed");
        assert_eq!(run.read_all().unwrap().len(), 4);
        assert!(!gov.is_poisoned());
        assert!(gov.metrics().io_retries >= 2, "retries were recorded");
    }

    #[test]
    fn torn_tail_fails_the_read_typed() {
        use crate::fault::{FaultIo, FaultSchedule, TornWrite};
        let io = StdArc::new(FaultIo::new(FaultSchedule {
            torn_write: Some(TornWrite {
                tag: "torn".to_string(),
                nth: 1,
                keep_bytes: 11,
            }),
            ..FaultSchedule::default()
        }));
        let dir = StdArc::new(SpillDir::new_temp_with(io).unwrap());
        let gov = StdArc::new(MemoryGovernor::new(Some(1 << 20)));
        let mut run = RunWriter::new(dir, gov, "torn").with_flush_threshold(1);
        // Append 0 lands intact, append 1 is torn at byte 11. There is
        // no partial read: the intact first chunk is not handed back.
        run.push(&sample_chunk()).unwrap();
        run.push(&sample_chunk()).unwrap();
        let err = run.read_all().unwrap_err();
        assert!(matches!(err, DataError::Parse(_)), "{err:?}");
    }

    #[test]
    fn only_a_run_with_chunks_counts_a_rehydration() {
        let dir = StdArc::new(SpillDir::new_temp().unwrap());
        let gov = StdArc::new(MemoryGovernor::new(Some(1 << 20)));
        let mut run = RunWriter::new(dir, gov.clone(), "r").with_flush_threshold(1);
        assert!(run.read_all().unwrap().is_empty());
        assert_eq!(gov.metrics().rehydrations, 0, "an empty run read nothing");
        run.push(&sample_chunk()).unwrap();
        assert_eq!(run.read_all().unwrap().len(), 1);
        assert_eq!(gov.metrics().rehydrations, 1);
    }

    #[test]
    fn run_file_deleted_on_drop() {
        let dir = StdArc::new(SpillDir::new_temp().unwrap());
        let gov = StdArc::new(MemoryGovernor::default());
        let path;
        {
            let mut run = RunWriter::new(dir.clone(), gov, "drop").with_flush_threshold(1);
            run.push(&sample_chunk()).unwrap();
            path = dir.root().join("drop-000000.wcs");
            assert!(path.exists());
        }
        assert!(!path.exists());
    }
}
