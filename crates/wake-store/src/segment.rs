//! Persistent columnar **segments**: the multi-zone table format behind
//! `SegmentSource`.
//!
//! A segment file holds one table as fixed-row *zones*, each column of each
//! zone compressed independently (see [`crate::compress`]), followed by a
//! checksummed footer carrying the schema, keys, and per-zone/per-column
//! statistics (min/max/null-count/row-count). The footer is what makes
//! zone-map pruning possible: a pushed-down predicate is evaluated against
//! the stats and disqualified zones are never read, let alone decoded.
//!
//! ```text
//! magic "WAKESEG2"
//! zone blocks..              per zone: concatenated compressed columns
//! footer                     schema, keys, zone directory: per zone and
//!                            column its codec, length, checksum, statistics
//! u64 footer_len
//! u64 footer_checksum        FNV-1a 64 over the footer bytes
//! tail magic "WAKESEGF"
//! ```
//!
//! Reads locate the footer from the fixed-size tail, so segments are
//! append-constructed (data first, directory last) like Parquet. Every
//! length header — tail, footer, zone directory, codec blocks — passes the
//! same checked-arithmetic/1 GiB-cap validation as the spill chunk format,
//! and every column block of every zone carries its own checksum, so torn
//! writes and bit flips fail typed before a corrupt frame can reach an
//! operator.
//!
//! Zones are **column-addressable**: the directory gives each column
//! block's byte range, so a read of a column subset
//! ([`SegmentReader::read_columns`]) fetches, verifies and decodes only
//! those blocks — adjacent ones in one ranged read.
//! [`SegmentReader::read_zone`] is the all-columns case of the same path.
//!
//! All file I/O goes through [`SpillIo`] under the governor's retry
//! ladder: transient faults are retried with backoff and stay invisible
//! to the scan; persistent faults poison the reader's governor and
//! surface as typed `DataError::SpillUnavailable` — never a panic.
//!
//! [`SegmentSource`] adapts a segment to the engine's `TableSource`: one
//! partition per zone, visited in a configurable order. It implements the
//! planner's three view hooks: `pruned()` drops disqualified zones *and
//! their rows from `partition_rows`*, so the progress ratio `t` ranges over
//! the retained population and the growth-model estimates over the filtered
//! table stay unbiased; `reordered()` visits zones in a seeded random order
//! (the paper's shuffled-input regime) without touching which zones
//! survive; `projected()` narrows the schema to the columns the plan reads,
//! so the others are never fetched.

use crate::colfile::{checked_len, checksum64};
use crate::compress::{codec_name, decode_column, encode_column};
use crate::governor::MemoryGovernor;
use crate::io::{with_retries, SpillIo};
use crate::Result;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use wake_data::colfile::{dtype_tag, read_value, tag_dtype, write_value, ByteCursor};
use wake_data::column::ColumnData;
use wake_data::scan::{decide_zone_all, ColPredicate, ScanMetrics, ScanTelemetry, ZoneDecision};
use wake_data::schema::{Field, Schema};
use wake_data::source::{TableMeta, TableSource};
use wake_data::{Column, DataError, DataFrame, Value, ZoneStats};

/// Bumped with the footer layout (`2`: per-column checksums), so a file
/// of an older layout fails "bad magic" instead of mis-parsing.
const SEG_MAGIC: &[u8; 8] = b"WAKESEG2";
const TAIL_MAGIC: &[u8; 8] = b"WAKESEGF";
/// Fixed tail: footer length + footer checksum + tail magic.
const TAIL_LEN: u64 = 8 + 8 + 8;

/// Default rows per zone. Small enough that a selective predicate can
/// skip most of a table, large enough to amortise per-zone overhead.
pub const DEFAULT_ZONE_ROWS: usize = 4096;

/// One column of one zone in the footer directory.
#[derive(Debug, Clone)]
pub struct ZoneColumn {
    pub codec: u8,
    /// Where the column's block starts in the file (derived from the zone
    /// offset and the lengths before it; not stored).
    pub offset: u64,
    pub comp_len: u64,
    /// FNV-1a 64 over the column's block.
    pub checksum: u64,
    pub stats: ZoneStats,
}

/// One zone in the footer directory.
#[derive(Debug, Clone)]
pub struct ZoneInfo {
    pub offset: u64,
    pub len: u64,
    pub rows: usize,
    pub columns: Vec<ZoneColumn>,
}

/// The decoded segment footer.
#[derive(Debug, Clone)]
pub struct SegmentFooter {
    pub name: String,
    pub schema: Arc<Schema>,
    pub primary_key: Vec<String>,
    pub clustering_key: Option<Vec<String>>,
    pub zone_rows: usize,
    pub total_rows: usize,
    pub zones: Vec<ZoneInfo>,
}

/// The first-seen minimum and maximum of `cells` under the strict order
/// `lt` (a later cell that ties keeps the earlier bound).
fn min_max<'a, T: 'a>(
    mut cells: impl Iterator<Item = &'a T>,
    lt: impl Fn(&T, &T) -> bool,
) -> Option<(&'a T, &'a T)> {
    let first = cells.next()?;
    Some(cells.fold((first, first), |(lo, hi), v| {
        (
            if lt(v, lo) { v } else { lo },
            if lt(hi, v) { v } else { hi },
        )
    }))
}

/// Compute the footer statistics for one column of one zone: min/max over
/// valid, non-NaN cells (NaN is recorded separately so bounds stay usable),
/// plus null and row counts. Works on the typed slices; the order is
/// `Value`'s — integers and dates compare as `f64`, as the pruner will
/// compare the bounds.
fn column_stats(col: &Column) -> ZoneStats {
    fn valid<'a, T>(vals: &'a [T], mask: Option<&'a [bool]>) -> impl Iterator<Item = &'a T> {
        vals.iter()
            .enumerate()
            .filter(move |(i, _)| mask.is_none_or(|m| m.get(*i).copied().unwrap_or(false)))
            .map(|(_, v)| v)
    }
    fn bounds<T>(found: Option<(&T, &T)>, value: impl Fn(&T) -> Value) -> (Value, Value) {
        found.map_or((Value::Null, Value::Null), |(lo, hi)| {
            (value(lo), value(hi))
        })
    }
    let mask = col.validity();
    let mut has_nan = false;
    let as_f64_lt = |a: &i64, b: &i64| (*a as f64) < (*b as f64);
    let (min, max) = match col.data() {
        ColumnData::Int64(v) => bounds(min_max(valid(v, mask), as_f64_lt), |x| Value::Int(*x)),
        ColumnData::Date(v) => bounds(min_max(valid(v, mask), as_f64_lt), |x| Value::Date(*x)),
        ColumnData::Float64(v) => {
            let numbers = valid(v, mask).filter(|f| {
                has_nan |= f.is_nan();
                !f.is_nan()
            });
            bounds(min_max(numbers, |a, b| a < b), |x| Value::Float(*x))
        }
        ColumnData::Bool(v) => bounds(min_max(valid(v, mask), |a, b| a < b), |x| Value::Bool(*x)),
        ColumnData::Utf8(v) => bounds(min_max(valid(v, mask), |a, b| a < b), |x| {
            Value::Str(x.clone())
        }),
    };
    ZoneStats {
        min,
        max,
        null_count: col.null_count(),
        row_count: col.len(),
        has_nan,
    }
}

fn write_strings(items: &[String], out: &mut Vec<u8>) {
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for s in items {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
}

fn read_strings(c: &mut ByteCursor<'_>, what: &str) -> Result<Vec<String>> {
    let n = checked_len(c.u32()? as u64, what)?;
    let mut out = Vec::with_capacity(n.min(c.remaining() / 4 + 1));
    for _ in 0..n {
        let len = checked_len(c.u32()? as u64, what)?;
        let s = std::str::from_utf8(c.take(len)?)
            .map_err(|_| DataError::Parse(format!("bad utf8 in {what}")))?;
        out.push(s.to_string());
    }
    Ok(out)
}

/// Write `frame` as a segment at `path` through `io`, in zones of
/// `zone_rows` rows. Appends zone-by-zone (memory stays O(zone)), footer
/// and tail last. An existing file at `path` is replaced.
pub fn write_segment(
    name: &str,
    frame: &DataFrame,
    zone_rows: usize,
    primary_key: &[String],
    clustering_key: Option<&[String]>,
    path: &Path,
    io: &dyn SpillIo,
) -> Result<()> {
    if zone_rows == 0 {
        return Err(DataError::Invalid("zone_rows must be > 0".into()));
    }
    if io.len(path).is_ok() {
        // Appending to a stale segment would corrupt it; start fresh.
        with_retries(&MemoryGovernor::new(None), "segment truncate", || {
            io.remove_file(path)
        })?;
    }
    let governor = MemoryGovernor::new(None);
    with_retries(&governor, "segment magic write", || {
        io.append(path, SEG_MAGIC)
    })?;
    let mut offset = SEG_MAGIC.len() as u64;
    let n = frame.num_rows();
    let mut zones: Vec<ZoneInfo> = Vec::new();
    let mut start = 0usize;
    while start < n {
        // tidy-allow: hostile-len: encoder path over an in-memory frame; start < n and zone_rows is trusted config
        let end = (start + zone_rows).min(n);
        let zone = frame.slice(start, end);
        let zone_offset = offset;
        let mut block = Vec::new();
        let mut columns = Vec::with_capacity(zone.schema().len());
        for col in zone.columns() {
            let (codec, bytes) = encode_column(col)?;
            columns.push(ZoneColumn {
                codec,
                offset,
                comp_len: bytes.len() as u64,
                checksum: checksum64(&bytes),
                stats: column_stats(col),
            });
            offset += bytes.len() as u64;
            block.extend_from_slice(&bytes);
        }
        with_retries(&governor, "segment zone write", || io.append(path, &block))?;
        zones.push(ZoneInfo {
            offset: zone_offset,
            len: block.len() as u64,
            rows: zone.num_rows(),
            columns,
        });
        start = end;
    }

    let mut footer = Vec::new();
    footer.extend_from_slice(&(name.len() as u32).to_le_bytes());
    footer.extend_from_slice(name.as_bytes());
    footer.extend_from_slice(&(frame.schema().len() as u32).to_le_bytes());
    for f in frame.schema().fields() {
        footer.extend_from_slice(&(f.name.len() as u32).to_le_bytes());
        footer.extend_from_slice(f.name.as_bytes());
        footer.push(dtype_tag(f.dtype));
        footer.push(f.mutable as u8);
    }
    write_strings(primary_key, &mut footer);
    match clustering_key {
        Some(ck) => {
            footer.push(1);
            write_strings(ck, &mut footer);
        }
        None => footer.push(0),
    }
    footer.extend_from_slice(&(zone_rows as u64).to_le_bytes());
    footer.extend_from_slice(&(n as u64).to_le_bytes());
    footer.extend_from_slice(&(zones.len() as u64).to_le_bytes());
    for z in &zones {
        footer.extend_from_slice(&z.offset.to_le_bytes());
        footer.extend_from_slice(&z.len.to_le_bytes());
        footer.extend_from_slice(&(z.rows as u64).to_le_bytes());
        for c in &z.columns {
            footer.push(c.codec);
            footer.extend_from_slice(&c.comp_len.to_le_bytes());
            footer.extend_from_slice(&c.checksum.to_le_bytes());
            write_value(&c.stats.min, &mut footer);
            write_value(&c.stats.max, &mut footer);
            footer.extend_from_slice(&(c.stats.null_count as u64).to_le_bytes());
            footer.push(c.stats.has_nan as u8);
        }
    }
    let mut tail = footer;
    let footer_len = tail.len() as u64;
    let footer_sum = checksum64(&tail);
    tail.extend_from_slice(&footer_len.to_le_bytes());
    tail.extend_from_slice(&footer_sum.to_le_bytes());
    tail.extend_from_slice(TAIL_MAGIC);
    with_retries(&governor, "segment footer write", || io.append(path, &tail))?;
    Ok(())
}

fn parse_footer(bytes: &[u8], data_end: u64) -> Result<SegmentFooter> {
    let mut c = ByteCursor::new(bytes);
    let name_len = checked_len(c.u32()? as u64, "table name length")?;
    let name = std::str::from_utf8(c.take(name_len)?)
        .map_err(|_| DataError::Parse("bad utf8 in table name".into()))?
        .to_string();
    let nfields = c.len_u32()?;
    let mut fields = Vec::with_capacity(nfields.min(c.remaining() / 6 + 1));
    for _ in 0..nfields {
        let len = checked_len(c.u32()? as u64, "field name length")?;
        let fname = std::str::from_utf8(c.take(len)?)
            .map_err(|_| DataError::Parse("bad utf8 in field name".into()))?
            .to_string();
        let dtype = tag_dtype(c.u8()?)?;
        let mutable = c.u8()? != 0;
        fields.push(Field {
            name: fname,
            dtype,
            mutable,
        });
    }
    let primary_key = read_strings(&mut c, "primary key")?;
    let clustering_key = if c.u8()? != 0 {
        Some(read_strings(&mut c, "clustering key")?)
    } else {
        None
    };
    let zone_rows = checked_len(c.u64()?, "zone rows")?;
    let total_rows = checked_len(c.u64()?, "total rows")?;
    let zone_count = checked_len(c.u64()?, "zone count")?;
    // Each zone costs ≥ 24 directory bytes: cap the prealloc by what the
    // footer could actually hold.
    let mut zones = Vec::with_capacity(zone_count.min(c.remaining() / 24 + 1));
    let mut expected_offset = SEG_MAGIC.len() as u64;
    let mut rows_seen = 0usize;
    for _ in 0..zone_count {
        let offset = c.u64()?;
        let len = checked_len(c.u64()?, "zone block length")? as u64;
        let rows = checked_len(c.u64()?, "zone row count")?;
        let block_end = offset
            .checked_add(len)
            .ok_or_else(|| DataError::Parse("zone block bounds overflow".into()))?;
        if offset != expected_offset || block_end > data_end {
            return Err(DataError::Parse(format!(
                "zone block [{offset}, +{len}) out of bounds"
            )));
        }
        expected_offset = block_end;
        let mut columns = Vec::with_capacity(fields.len());
        let mut block_total = 0u64;
        for _ in 0..fields.len() {
            let codec = c.u8()?;
            let comp_len = checked_len(c.u64()?, "column block length")? as u64;
            let checksum = c.u64()?;
            let column_offset = offset
                .checked_add(block_total)
                .ok_or_else(|| DataError::Parse("column offset overflows".into()))?;
            block_total = block_total
                .checked_add(comp_len)
                .ok_or_else(|| DataError::Parse("column lengths overflow".into()))?;
            let min = read_value(&mut c)?;
            let max = read_value(&mut c)?;
            let null_count = checked_len(c.u64()?, "null count")?;
            let has_nan = c.u8()? != 0;
            columns.push(ZoneColumn {
                codec,
                offset: column_offset,
                comp_len,
                checksum,
                stats: ZoneStats {
                    min,
                    max,
                    null_count,
                    row_count: rows,
                    has_nan,
                },
            });
        }
        if block_total != len {
            return Err(DataError::Parse(format!(
                "zone column lengths sum to {block_total}, block is {len}"
            )));
        }
        rows_seen = rows_seen
            .checked_add(rows)
            .ok_or_else(|| DataError::Parse("zone rows overflow".into()))?;
        zones.push(ZoneInfo {
            offset,
            len,
            rows,
            columns,
        });
    }
    if rows_seen != total_rows {
        return Err(DataError::Parse(format!(
            "zone rows sum to {rows_seen}, footer says {total_rows}"
        )));
    }
    if c.remaining() != 0 {
        return Err(DataError::Parse(
            "trailing bytes after segment footer".into(),
        ));
    }
    Ok(SegmentFooter {
        name,
        schema: Arc::new(Schema::new(fields)),
        primary_key,
        clustering_key,
        zone_rows,
        total_rows,
        zones,
    })
}

/// The columns of a segment one scan returns: their footer indices,
/// ascending, and the table schema narrowed to them. Built by
/// [`SegmentReader::column_set`] for the reader it is then read through.
#[derive(Debug, Clone)]
pub struct ColumnSet {
    indices: Vec<usize>,
    schema: Arc<Schema>,
}

impl ColumnSet {
    fn len(&self) -> usize {
        self.indices.len()
    }

    fn contains_all(&self, names: &[String]) -> bool {
        names.iter().all(|n| self.schema.contains(n))
    }
}

/// A handle on one segment file: the parsed footer plus the I/O device and
/// retry governor used for zone reads.
pub struct SegmentReader {
    path: PathBuf,
    io: Arc<dyn SpillIo>,
    governor: MemoryGovernor,
    footer: SegmentFooter,
    /// Every column: what [`Self::read_zone`] reads.
    all_columns: ColumnSet,
}

impl std::fmt::Debug for SegmentReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentReader")
            .field("path", &self.path)
            .field("table", &self.footer.name)
            .field("zones", &self.footer.zones.len())
            .finish()
    }
}

impl SegmentReader {
    /// Open with the default retry policy.
    pub fn open(path: impl Into<PathBuf>, io: Arc<dyn SpillIo>) -> Result<Arc<Self>> {
        Self::open_with_policy(
            path,
            io,
            crate::governor::DEFAULT_RETRY_ATTEMPTS,
            crate::governor::DEFAULT_RETRY_BASE_DELAY,
        )
    }

    /// Open with an explicit retry ladder (attempts + base backoff delay).
    pub fn open_with_policy(
        path: impl Into<PathBuf>,
        io: Arc<dyn SpillIo>,
        retry_attempts: u32,
        retry_base_delay: Duration,
    ) -> Result<Arc<Self>> {
        let path = path.into();
        let governor =
            MemoryGovernor::new(None).with_retry_policy(retry_attempts, retry_base_delay);
        let file_len = with_retries(&governor, "segment stat", || io.len(&path))?;
        // tidy-allow: hostile-len: both operands are compile-time constants
        let min_len = SEG_MAGIC.len() as u64 + TAIL_LEN;
        if file_len < min_len {
            return Err(DataError::Parse(format!(
                "segment file too short ({file_len} bytes)"
            )));
        }
        let head = with_retries(&governor, "segment magic read", || {
            io.read_range(&path, 0, SEG_MAGIC.len() as u64)
        })?;
        if head != SEG_MAGIC {
            return Err(DataError::Parse("not a segment file (bad magic)".into()));
        }
        let tail = with_retries(&governor, "segment tail read", || {
            io.read_range(&path, file_len - TAIL_LEN, TAIL_LEN)
        })?;
        let mut c = ByteCursor::new(&tail);
        let footer_len = c.u64()?;
        let footer_sum = c.u64()?;
        if c.take(8)? != TAIL_MAGIC {
            return Err(DataError::Parse("bad segment tail magic".into()));
        }
        let footer_len = checked_len(footer_len, "footer length")? as u64;
        let data_end = (file_len - TAIL_LEN)
            .checked_sub(footer_len)
            .ok_or_else(|| DataError::Parse("footer length exceeds file".into()))?;
        if data_end < SEG_MAGIC.len() as u64 {
            return Err(DataError::Parse("footer overlaps segment magic".into()));
        }
        let footer_bytes = with_retries(&governor, "segment footer read", || {
            io.read_range(&path, data_end, footer_len)
        })?;
        if checksum64(&footer_bytes) != footer_sum {
            return Err(DataError::Parse("segment footer checksum mismatch".into()));
        }
        let footer = parse_footer(&footer_bytes, data_end)?;
        let all_columns = ColumnSet {
            indices: (0..footer.schema.len()).collect(),
            schema: footer.schema.clone(),
        };
        Ok(Arc::new(SegmentReader {
            path,
            io,
            governor,
            footer,
            all_columns,
        }))
    }

    pub fn footer(&self) -> &SegmentFooter {
        &self.footer
    }

    pub fn zone_count(&self) -> usize {
        self.footer.zones.len()
    }

    /// Zone stats for `column` in zone `zone`, if the column exists.
    pub fn zone_stats(&self, zone: usize, column: &str) -> Option<&ZoneStats> {
        let col_idx = self.footer.schema.index_of(column).ok()?;
        Some(&self.footer.zones.get(zone)?.columns.get(col_idx)?.stats)
    }

    /// The column set naming `names` (any order, duplicates collapse); an
    /// unknown name is a typed error.
    pub fn column_set(&self, names: &[&str]) -> Result<ColumnSet> {
        let mut indices = names
            .iter()
            .map(|n| self.footer.schema.index_of(n))
            .collect::<Result<Vec<_>>>()?;
        indices.sort_unstable();
        indices.dedup();
        if indices.len() == self.all_columns.len() {
            return Ok(self.all_columns.clone());
        }
        let fields = self.footer.schema.fields();
        let schema = Arc::new(Schema::new(
            indices
                .iter()
                .filter_map(|&i| fields.get(i).cloned())
                .collect(),
        ));
        Ok(ColumnSet { indices, schema })
    }

    /// Read and decode every column of zone `i`: [`Self::read_columns`]
    /// over the whole schema, so the zone is one ranged read and every
    /// column block is verified.
    pub fn read_zone(&self, i: usize) -> Result<DataFrame> {
        self.read_columns(i, &self.all_columns)
    }

    /// Read and decode the columns in `set` of zone `i`, touching nothing
    /// else: one ranged read per run of adjacent columns, each block
    /// checked against its own checksum before it is decoded. Transient
    /// device faults are retried under the governor's policy; persistent
    /// ones fail typed (`SpillUnavailable`), and corruption of a block
    /// that is read fails its checksum before any decode runs.
    pub fn read_columns(&self, i: usize, set: &ColumnSet) -> Result<DataFrame> {
        let zone = self
            .footer
            .zones
            .get(i)
            .ok_or_else(|| DataError::ShapeMismatch(format!("zone {i} out of range")))?;
        // The directory entry and schema field of each column in the set.
        let entries = set
            .indices
            .iter()
            .map(|&ci| {
                zone.columns
                    .get(ci)
                    .zip(self.footer.schema.fields().get(ci))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| DataError::ShapeMismatch("column set of another segment".into()))?;
        let mut cols = Vec::with_capacity(entries.len());
        // Runs of blocks that sit back to back in the file.
        for run in
            entries.chunk_by(|(a, _), (b, _)| a.offset.checked_add(a.comp_len) == Some(b.offset))
        {
            let Some((first, _)) = run.first() else {
                continue;
            };
            // Cannot overflow: the footer parser summed every block of the
            // zone with checked arithmetic.
            let run_len: u64 = run.iter().map(|(zc, _)| zc.comp_len).sum();
            let block = with_retries(&self.governor, "segment zone read", || {
                self.io.read_range(&self.path, first.offset, run_len)
            })?;
            let mut c = ByteCursor::new(&block);
            for (zc, field) in run {
                let comp_len = usize::try_from(zc.comp_len)
                    .map_err(|_| DataError::Parse("column length exceeds usize".into()))?;
                let bytes = c.take(comp_len)?;
                if checksum64(bytes) != zc.checksum {
                    return Err(DataError::Parse(format!(
                        "zone {i} column {} checksum mismatch (torn write or bit flip)",
                        field.name
                    )));
                }
                let col = decode_column(zc.codec, field.dtype, zone.rows, bytes).map_err(|e| {
                    DataError::Parse(format!(
                        "zone {i} column {} ({}): {e}",
                        field.name,
                        codec_name(zc.codec)
                    ))
                })?;
                cols.push(col);
            }
        }
        DataFrame::new(set.schema.clone(), cols)
    }

    /// Bytes [`Self::read_columns`] fetches for `set` of zone `i`.
    fn fetched_bytes(&self, i: usize, set: &ColumnSet) -> u64 {
        let Some(zone) = self.footer.zones.get(i) else {
            return 0;
        };
        set.indices
            .iter()
            .filter_map(|&ci| zone.columns.get(ci))
            .map(|zc| zc.comp_len)
            .sum()
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `TableSource` over a segment file: one partition per zone, visited in
/// a configurable order and narrowed to a column set, with its own scan
/// telemetry.
#[derive(Debug)]
pub struct SegmentSource {
    reader: Arc<SegmentReader>,
    /// Zone indices in visit order (pruning removes entries, reordering
    /// permutes them).
    order: Vec<usize>,
    /// The columns a partition returns (projection narrows them).
    columns: ColumnSet,
    meta: TableMeta,
    telemetry: Arc<ScanTelemetry>,
}

impl SegmentSource {
    /// Open the segment at `path` through `io`, visiting zones in file
    /// order (preserves any clustering, and makes unpruned persisted scans
    /// bit-identical to the equivalent in-memory scan).
    pub fn open(path: impl Into<PathBuf>, io: Arc<dyn SpillIo>) -> Result<Self> {
        Self::from_reader(SegmentReader::open(path, io)?)
    }

    /// Wrap an already-open reader.
    pub fn from_reader(reader: Arc<SegmentReader>) -> Result<Self> {
        let order: Vec<usize> = (0..reader.zone_count()).collect();
        let columns = reader.all_columns.clone();
        let telemetry = ScanTelemetry::new();
        telemetry.set_zones_total(order.len() as u64);
        telemetry.set_columns(columns.len() as u64, columns.len() as u64);
        let clustering_key = reader.footer().clustering_key.clone();
        let meta = Self::meta_for(&reader, &order, &columns, clustering_key);
        Ok(SegmentSource {
            reader,
            order,
            columns,
            meta,
            telemetry,
        })
    }

    fn meta_for(
        reader: &SegmentReader,
        order: &[usize],
        columns: &ColumnSet,
        clustering_key: Option<Vec<String>>,
    ) -> TableMeta {
        let footer = reader.footer();
        // A zone-less view (empty table, or every zone pruned) presents one
        // empty partition, mirroring `MemorySource::from_frame` on an empty
        // frame: the executor sees an exhausted source and emits the exact
        // empty answer instead of a false-converged estimate.
        let partition_rows = if order.is_empty() {
            vec![0]
        } else {
            order
                .iter()
                .map(|&z| footer.zones.get(z).map_or(0, |zone| zone.rows))
                .collect()
        };
        // A key means something only with all of its columns in view (the
        // rule `MapOp` applies to a projection).
        let primary_key = Some(footer.primary_key.clone())
            .filter(|pk| columns.contains_all(pk))
            .unwrap_or_default();
        TableMeta {
            name: footer.name.clone(),
            schema: columns.schema.clone(),
            primary_key,
            clustering_key: clustering_key.filter(|ck| columns.contains_all(ck)),
            partition_rows,
        }
    }

    /// A view of the same segment with another zone order or column set.
    /// It gets its *own* telemetry — the planner installs views per query
    /// run, so run stats never leak across queries sharing the base
    /// source handle — which starts from this view's shape (zone
    /// population, pruned count, columns).
    fn view(
        &self,
        order: Vec<usize>,
        columns: ColumnSet,
        clustering_key: Option<Vec<String>>,
    ) -> SegmentSource {
        let meta = Self::meta_for(&self.reader, &order, &columns, clustering_key);
        SegmentSource {
            reader: self.reader.clone(),
            order,
            columns,
            meta,
            telemetry: self.telemetry.derived(),
        }
    }

    /// The underlying reader (footer access for tests and telemetry).
    pub fn reader(&self) -> &Arc<SegmentReader> {
        &self.reader
    }

    /// Zone visit order (after any pruning/reordering).
    pub fn zone_order(&self) -> &[usize] {
        &self.order
    }

    /// This source's scan counters.
    pub fn telemetry(&self) -> &Arc<ScanTelemetry> {
        &self.telemetry
    }
}

impl TableSource for SegmentSource {
    fn meta(&self) -> &TableMeta {
        &self.meta
    }

    fn partition(&self, i: usize) -> Result<DataFrame> {
        if self.order.is_empty() {
            // The synthesized empty partition of a zone-less view.
            if i == 0 {
                return Ok(DataFrame::empty(self.columns.schema.clone()));
            }
            return Err(DataError::ShapeMismatch(format!(
                "partition {i} out of range"
            )));
        }
        let zone = *self
            .order
            .get(i)
            .ok_or_else(|| DataError::ShapeMismatch(format!("partition {i} out of range")))?;
        let started = std::time::Instant::now();
        let frame = self.reader.read_columns(zone, &self.columns)?;
        self.telemetry.record_zone_scan(
            self.reader.fetched_bytes(zone, &self.columns),
            frame.byte_size() as u64,
            started.elapsed().as_nanos() as u64,
        );
        Ok(frame)
    }

    fn pruned(&self, preds: &[ColPredicate]) -> Option<Arc<dyn TableSource>> {
        // Each predicate's column, resolved against the footer once.
        let schema = &self.reader.footer().schema;
        let pred_cols: Vec<(&ColPredicate, Option<usize>)> = preds
            .iter()
            .map(|p| (p, schema.index_of(&p.column).ok()))
            .collect();
        let zones = &self.reader.footer().zones;
        let surviving: Vec<usize> = self
            .order
            .iter()
            .copied()
            .filter(|&z| {
                let stats_of = |ci: usize| Some(&zones.get(z)?.columns.get(ci)?.stats);
                let decision =
                    decide_zone_all(pred_cols.iter().map(|&(p, ci)| (p, ci.and_then(stats_of))));
                decision != ZoneDecision::Prune
            })
            .collect();
        let pruned_count = (self.order.len() - surviving.len()) as u64;
        // Pruning keeps relative zone order, so a clustering key stays
        // valid: equal key values still live in exactly one partition.
        let view = self.view(
            surviving,
            self.columns.clone(),
            self.meta.clustering_key.clone(),
        );
        view.telemetry.add_pruned(pruned_count);
        Some(Arc::new(view))
    }

    fn reordered(&self, seed: u64) -> Option<Arc<dyn TableSource>> {
        let mut order = self.order.clone();
        let mut state = seed;
        // Fisher–Yates with a splitmix64 stream: deterministic per seed.
        for i in (1..order.len()).rev() {
            // tidy-allow: hostile-len: the modulo bounds the value to `i < order.len()`, so the narrowing is lossless
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        // Reading out of clustering order invalidates the clustering key.
        Some(Arc::new(self.view(order, self.columns.clone(), None)))
    }

    fn projected(&self, columns: &[&str]) -> Option<Arc<dyn TableSource>> {
        // A frame carries its row count in its columns, so an empty set
        // cannot be served; an unknown name is the planner's error to
        // report when it resolves the plan against the unnarrowed schema.
        if columns.is_empty() || !columns.iter().all(|c| self.columns.schema.contains(c)) {
            return None;
        }
        let set = self.reader.column_set(columns).ok()?;
        let view = self.view(self.order.clone(), set, self.meta.clustering_key.clone());
        view.telemetry.set_columns(
            view.columns.len() as u64,
            self.reader.all_columns.len() as u64,
        );
        Some(Arc::new(view))
    }

    fn scan_metrics(&self) -> Option<ScanMetrics> {
        Some(self.telemetry.snapshot())
    }
}

/// Convenience: does this frame column equal that one including masked
/// payload bytes? (Test helper used by the proptest suite.)
#[doc(hidden)]
pub fn frames_bit_identical(a: &DataFrame, b: &DataFrame) -> bool {
    if a.schema() != b.schema() || a.num_rows() != b.num_rows() {
        return false;
    }
    for (ca, cb) in a.columns().iter().zip(b.columns()) {
        if ca.validity() != cb.validity() {
            return false;
        }
        match (ca.data(), cb.data()) {
            // Float payloads compare by raw bits: `==` on f64 would call
            // bitwise-identical NaNs unequal (and −0 equal to +0).
            (ColumnData::Float64(va), ColumnData::Float64(vb)) => {
                if va.len() != vb.len()
                    || va.iter().zip(vb).any(|(x, y)| x.to_bits() != y.to_bits())
                {
                    return false;
                }
            }
            (da, db) => {
                if da != db {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::StdIo;
    use wake_data::scan::PredOp;
    use wake_data::value::date_to_days;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wake-segment-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.wseg"))
    }

    fn sample_frame(rows: usize) -> DataFrame {
        let schema = Arc::new(Schema::new(vec![
            Field::new("id", wake_data::DataType::Int64),
            Field::new("price", wake_data::DataType::Float64),
            Field::new("flag", wake_data::DataType::Utf8),
            Field::new("ship", wake_data::DataType::Date),
        ]));
        let base = date_to_days(1994, 1, 1);
        DataFrame::new(
            schema,
            vec![
                Column::from_i64((0..rows as i64).collect()),
                Column::from_f64((0..rows).map(|i| i as f64 * 0.5).collect()),
                Column::from_str_iter((0..rows).map(|i| if i % 2 == 0 { "A" } else { "B" })),
                Column::from_dates((0..rows).map(|i| base + (i / 10) as i64).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn segment_roundtrip_and_pruning() {
        let path = temp_path("roundtrip");
        let frame = sample_frame(100);
        write_segment(
            "t",
            &frame,
            16,
            &["id".to_string()],
            Some(&["id".to_string()]),
            &path,
            &StdIo,
        )
        .unwrap();
        let src = SegmentSource::open(&path, Arc::new(StdIo)).unwrap();
        assert_eq!(src.meta().total_rows(), 100);
        assert_eq!(src.meta().num_partitions(), 7);
        assert_eq!(src.meta().partition_rows.last(), Some(&4));
        // Zone-by-zone reads reproduce the frame exactly.
        let mut rows = 0;
        for i in 0..src.meta().num_partitions() {
            let z = src.partition(i).unwrap();
            let idx: Vec<usize> = (rows..rows + z.num_rows()).collect();
            assert!(frames_bit_identical(&z, &frame.take(&idx)));
            rows += z.num_rows();
        }
        assert_eq!(rows, 100);
        // Pruning on id < 16 keeps only the first zone.
        let pruned = src
            .pruned(&[ColPredicate {
                column: "id".into(),
                op: PredOp::Lt,
                value: Value::Int(16),
            }])
            .unwrap();
        assert_eq!(pruned.meta().num_partitions(), 1);
        assert_eq!(pruned.meta().total_rows(), 16);
        // The pruned *view* carries the run's telemetry (fresh counters,
        // spanning the full pre-pruning population); the base source is
        // untouched so runs sharing it never leak counts into each other.
        let m = pruned.scan_metrics().unwrap();
        assert_eq!(m.zones_total, 7);
        assert_eq!(m.zones_pruned, 6);
        assert_eq!(src.scan_metrics().unwrap().zones_pruned, 0);
        // A predicate nothing satisfies prunes every zone but still
        // presents one empty partition (exact-empty-answer path).
        let none = src
            .pruned(&[ColPredicate {
                column: "id".into(),
                op: PredOp::Gt,
                value: Value::Int(1_000_000),
            }])
            .unwrap();
        assert_eq!(none.meta().num_partitions(), 1);
        assert_eq!(none.meta().total_rows(), 0);
        assert_eq!(none.partition(0).unwrap().num_rows(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn projected_view_narrows_schema_keys_and_reads() {
        let path = temp_path("projected");
        let frame = sample_frame(100);
        let pk = ["id".to_string(), "ship".to_string()];
        write_segment("t", &frame, 16, &pk, Some(&pk[..1]), &path, &StdIo).unwrap();
        let src = SegmentSource::open(&path, Arc::new(StdIo)).unwrap();
        let pruned = src
            .pruned(&[ColPredicate {
                column: "id".into(),
                op: PredOp::Lt,
                value: Value::Int(40),
            }])
            .unwrap();
        // Any order, duplicates: the view is in schema order.
        let view = pruned.projected(&["price", "id", "price"]).unwrap();
        assert_eq!(view.meta().schema.names(), vec!["id", "price"]);
        assert!(view.meta().primary_key.is_empty(), "`ship` is gone");
        assert_eq!(view.meta().clustering_key, Some(vec!["id".to_string()]));
        assert_eq!(view.meta().partition_rows, pruned.meta().partition_rows);
        // Fresh work counters, the pruned view's shape, fewer bytes.
        let m = view.scan_metrics().unwrap();
        assert_eq!((m.zones_total, m.zones_pruned, m.zones_scanned), (7, 4, 0));
        assert_eq!((m.columns_read, m.columns_total), (2, 4));
        for i in 0..view.meta().num_partitions() {
            let want = pruned
                .partition(i)
                .unwrap()
                .project(&["id", "price"])
                .unwrap();
            assert!(frames_bit_identical(&view.partition(i).unwrap(), &want));
        }
        let (narrow, full) = (view.scan_metrics().unwrap(), pruned.scan_metrics().unwrap());
        assert_eq!(narrow.zones_scanned, full.zones_scanned);
        assert!(narrow.compressed_bytes < full.compressed_bytes);
        assert!(narrow.decompressed_bytes < full.decompressed_bytes);
        assert_eq!((full.columns_read, full.columns_total), (4, 4));
        // Dropping the clustering column drops the clustering key; an
        // empty or unknown set is not served.
        let no_id = src.projected(&["price"]).unwrap();
        assert!(no_id.meta().clustering_key.is_none());
        assert!(src.projected(&[]).is_none());
        assert!(src.projected(&["nope"]).is_none());
        assert!(view.projected(&["ship"]).is_none(), "outside the view");
        // A zone-less view presents its empty partition in the narrow schema.
        let none = src
            .pruned(&[ColPredicate {
                column: "id".into(),
                op: PredOp::Gt,
                value: Value::Int(1_000_000),
            }])
            .unwrap()
            .projected(&["flag"])
            .unwrap();
        assert_eq!(none.partition(0).unwrap().schema().names(), vec!["flag"]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn projected_read_verifies_only_what_it_reads() {
        let path = temp_path("column-checksums");
        write_segment("t", &sample_frame(32), 8, &[], None, &path, &StdIo).unwrap();
        let good = std::fs::read(&path).unwrap();
        let reader = SegmentReader::open(&path, Arc::new(StdIo)).unwrap();
        // Flip one bit inside zone 1's `flag` block.
        let flag = &reader.footer().zones[1].columns[2];
        let mut bad = good.clone();
        bad[flag.offset as usize] ^= 0x10;
        std::fs::write(&path, &bad).unwrap();
        let others = reader.column_set(&["id", "price", "ship"]).unwrap();
        let with_flag = reader.column_set(&["flag", "ship"]).unwrap();
        assert!(reader.read_columns(1, &others).is_ok(), "unread column");
        let err = reader.read_columns(1, &with_flag).unwrap_err();
        assert!(err.to_string().contains("column flag checksum"), "{err}");
        assert!(
            reader.read_zone(1).is_err(),
            "read_zone verifies every column"
        );
        assert!(reader.read_zone(0).is_ok(), "other zones are intact");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reorder_is_seeded_and_complete() {
        let path = temp_path("reorder");
        write_segment("t", &sample_frame(64), 8, &[], None, &path, &StdIo).unwrap();
        let src = SegmentSource::open(&path, Arc::new(StdIo)).unwrap();
        let a = src.reordered(7).unwrap();
        let b = src.reordered(7).unwrap();
        let c = src.reordered(8).unwrap();
        let rows = |s: &Arc<dyn TableSource>| s.meta().partition_rows.clone();
        assert_eq!(rows(&a), rows(&b), "same seed, same order");
        assert_eq!(a.meta().total_rows(), 64);
        assert_eq!(c.meta().total_rows(), 64, "permutation, not a sample");
        assert!(a.meta().clustering_key.is_none());
        // All zones still readable under the permuted order.
        let mut total = 0;
        for i in 0..a.meta().num_partitions() {
            total += a.partition(i).unwrap().num_rows();
        }
        assert_eq!(total, 64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_table_yields_one_empty_partition() {
        let path = temp_path("empty");
        let frame = sample_frame(0);
        write_segment("t", &frame, 8, &[], None, &path, &StdIo).unwrap();
        let src = SegmentSource::open(&path, Arc::new(StdIo)).unwrap();
        assert_eq!(src.meta().num_partitions(), 1);
        assert_eq!(src.meta().total_rows(), 0);
        assert_eq!(src.partition(0).unwrap().num_rows(), 0);
        assert!(src.partition(1).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_fails_typed() {
        let path = temp_path("corrupt");
        write_segment("t", &sample_frame(32), 8, &[], None, &path, &StdIo).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Truncated tail.
        std::fs::write(&path, &good[..good.len() - 5]).unwrap();
        assert!(SegmentReader::open(&path, Arc::new(StdIo)).is_err());

        // Bit flip in a zone block: open succeeds (footer intact), the
        // zone read fails its checksum.
        let mut flipped = good.clone();
        flipped[10] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let reader = SegmentReader::open(&path, Arc::new(StdIo)).unwrap();
        let err = reader.read_zone(0).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Bit flip in the footer fails the footer checksum.
        let mut flipped = good.clone();
        let n = flipped.len();
        flipped[n - 30] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(SegmentReader::open(&path, Arc::new(StdIo)).is_err());

        // Not a segment at all.
        std::fs::write(&path, b"WAKECOL1 definitely not a segment").unwrap();
        assert!(SegmentReader::open(&path, Arc::new(StdIo)).is_err());

        // A file of the previous layout fails on its magic, not mid-parse.
        let mut stale = good.clone();
        stale[..8].copy_from_slice(b"WAKESEG1");
        std::fs::write(&path, &stale).unwrap();
        let err = SegmentReader::open(&path, Arc::new(StdIo)).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rewrite_replaces_stale_segment() {
        let path = temp_path("rewrite");
        write_segment("t", &sample_frame(32), 8, &[], None, &path, &StdIo).unwrap();
        write_segment("t", &sample_frame(8), 8, &[], None, &path, &StdIo).unwrap();
        let src = SegmentSource::open(&path, Arc::new(StdIo)).unwrap();
        assert_eq!(src.meta().total_rows(), 8);
        std::fs::remove_file(&path).ok();
    }
}
