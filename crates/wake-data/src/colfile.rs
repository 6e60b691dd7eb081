//! WCF ("Wake columnar frame"): the in-memory byte codec for one
//! [`DataFrame`] — schema, row count, then each column as a contiguous
//! typed buffer with an optional validity bitmap. It is not a table
//! format (persisted tables are `.wseg` segments in `wake-store`): spill
//! chunks embed a WCF frame in their checksummed envelope, and the
//! segment and spill codecs share its column payloads ([`write_column`] /
//! [`read_column`]; spilled aggregate states travel as these too) and
//! bounds-checked [`ByteCursor`]. The one cell codec ([`write_value`] /
//! [`read_value`]) serves segment zone stats.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "WAKECOL1"
//! u32 field_count
//!   per field: u32 name_len, name bytes, u8 dtype, u8 mutable
//! u64 row_count
//!   per column:
//!     u8 has_validity; if 1: ceil(rows/8) bitmap bytes (LSB-first)
//!     Int64/Date : rows × i64
//!     Float64    : rows × f64 (IEEE bits)
//!     Bool       : ceil(rows/8) bitmap bytes
//!     Utf8       : rows × u32 byte-length, then concatenated UTF-8 bytes
//! ```

use crate::column::{Column, ColumnData};
use crate::error::DataError;
use crate::frame::DataFrame;
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};
use crate::Result;
use std::io::Write;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"WAKECOL1";

/// Stable on-disk tag for a [`DataType`] (shared with the spill format in
/// `wake-store`, which embeds WCF column payloads in its checksummed runs).
pub fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Bool => 2,
        DataType::Utf8 => 3,
        DataType::Date => 4,
    }
}

/// Inverse of [`dtype_tag`].
pub fn tag_dtype(t: u8) -> Result<DataType> {
    Ok(match t {
        0 => DataType::Int64,
        1 => DataType::Float64,
        2 => DataType::Bool,
        3 => DataType::Utf8,
        4 => DataType::Date,
        other => return Err(DataError::Parse(format!("bad dtype tag {other}"))),
    })
}

/// LSB-first bit packing (validity bitmaps, bool payloads).
pub fn pack_bits(bits: impl ExactSizeIterator<Item = bool>) -> Vec<u8> {
    let n = bits.len();
    let mut out = vec![0u8; n.div_ceil(8)];
    for (i, b) in bits.enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Inverse of [`pack_bits`].
pub fn unpack_bits(bytes: &[u8], n: usize) -> Vec<bool> {
    (0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect()
}

/// Serialise one column's payload (validity byte + optional bitmap, then
/// the typed buffer) in WCF layout. Fully typed: no `Value` cells are
/// materialised. Public so the `wake-store` spill format can embed column
/// payloads inside its own checksummed container.
pub fn write_column<W: Write>(col: &Column, w: &mut W) -> Result<()> {
    match col.validity() {
        Some(mask) => {
            w.write_all(&[1])?;
            w.write_all(&pack_bits(mask.iter().copied()))?;
        }
        None => w.write_all(&[0])?,
    }
    match col.data() {
        ColumnData::Int64(v) | ColumnData::Date(v) => {
            for x in v {
                w.write_all(&x.to_le_bytes())?;
            }
        }
        ColumnData::Float64(v) => {
            for x in v {
                w.write_all(&x.to_bits().to_le_bytes())?;
            }
        }
        ColumnData::Bool(v) => {
            w.write_all(&pack_bits(v.iter().copied()))?;
        }
        ColumnData::Utf8(v) => {
            for s in v {
                w.write_all(&(s.len() as u32).to_le_bytes())?;
            }
            for s in v {
                w.write_all(s.as_bytes())?;
            }
        }
    }
    Ok(())
}

/// Serialise a frame into WCF bytes.
pub fn write_colfile<W: Write>(df: &DataFrame, w: &mut W) -> Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(df.schema().len() as u32).to_le_bytes())?;
    for f in df.schema().fields() {
        w.write_all(&(f.name.len() as u32).to_le_bytes())?;
        w.write_all(f.name.as_bytes())?;
        w.write_all(&[dtype_tag(f.dtype), f.mutable as u8])?;
    }
    let rows = df.num_rows();
    w.write_all(&(rows as u64).to_le_bytes())?;
    for col in df.columns() {
        write_column(col, w)?;
    }
    Ok(())
}

/// Bounds-checked little-endian reader over a byte slice — the decode
/// counterpart of the WCF writers, shared with the spill format.
pub struct ByteCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteCursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteCursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        // `n` may come from a hostile length header: compare against the
        // remaining bytes instead of computing `pos + n`, which could
        // wrap around and sneak past the bounds check.
        if n > self.buf.len() - self.pos {
            return Err(DataError::Parse("truncated colfile".into()));
        }
        // tidy-allow: hostile-len: `n <= buf.len() - pos` was just checked, so `pos + n` cannot wrap
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Take exactly `N` bytes as a fixed-size array. `take` already
    /// bounds-checks, so the conversion surfaces as a typed parse error
    /// on the (unreachable) mismatch instead of a panic.
    fn le_bytes<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.take(N)?
            .try_into()
            .map_err(|_| DataError::Parse("truncated colfile".into()))
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.le_bytes()?))
    }

    /// Read a `u32` length header widened to `usize`. The widening goes
    /// through `try_from` so it is checked on every target rather than
    /// silently truncating.
    pub fn len_u32(&mut self) -> Result<usize> {
        usize::try_from(self.u32()?)
            .map_err(|_| DataError::Parse("length header exceeds usize".into()))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.le_bytes()?))
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.le_bytes()?))
    }

    /// Read a `u64` element count whose elements take at least
    /// `min_item_bytes` each. A count the remaining bytes cannot hold
    /// fails typed here, *before* the caller sizes an allocation by it.
    pub fn count_u64(&mut self, min_item_bytes: usize) -> Result<usize> {
        let n = self.u64()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() / min_item_bytes.max(1) => Ok(n),
            _ => Err(DataError::Parse(format!(
                "count header {n} exceeds the {} bytes that follow it",
                self.remaining()
            ))),
        }
    }
}

/// Tags of the [`Value`] byte codec. `0` is never written.
const VAL_NULL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_FLOAT: u8 = 3;
const VAL_BOOL: u8 = 4;
const VAL_STR: u8 = 5;
const VAL_DATE: u8 = 6;

/// Encode one [`Value`] with its exact variant and payload bits (floats
/// as raw IEEE bits: `-0.0` and NaN payloads survive). The one byte form
/// of a cell outside a column: the zone-map extremes in segment footers.
pub fn write_value(v: &Value, out: &mut Vec<u8>) {
    let mut put = |tag: u8, payload: &[u8]| {
        out.push(tag);
        out.extend_from_slice(payload);
    };
    match v {
        Value::Null => put(VAL_NULL, &[]),
        Value::Int(x) => put(VAL_INT, &x.to_le_bytes()),
        Value::Float(x) => put(VAL_FLOAT, &x.to_bits().to_le_bytes()),
        Value::Bool(b) => put(VAL_BOOL, &[*b as u8]),
        Value::Date(x) => put(VAL_DATE, &x.to_le_bytes()),
        Value::Str(s) => {
            put(VAL_STR, &(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Inverse of [`write_value`].
pub fn read_value(c: &mut ByteCursor<'_>) -> Result<Value> {
    Ok(match c.u8()? {
        VAL_NULL => Value::Null,
        VAL_INT => Value::Int(c.i64()?),
        VAL_FLOAT => Value::Float(c.f64()?),
        VAL_BOOL => Value::Bool(c.u8()? != 0),
        VAL_DATE => Value::Date(c.i64()?),
        VAL_STR => {
            let len = c.count_u64(1)?;
            let s = std::str::from_utf8(c.take(len)?)
                .map_err(|_| DataError::Parse("bad utf8 in value".into()))?;
            Value::str(s)
        }
        other => return Err(DataError::Parse(format!("bad value tag {other}"))),
    })
}

type Cursor<'a> = ByteCursor<'a>;

/// Deserialise one column written by [`write_column`].
pub fn read_column(dtype: DataType, rows: usize, c: &mut ByteCursor<'_>) -> Result<Column> {
    let has_validity = c.u8()? != 0;
    let validity = if has_validity {
        let bytes = c.take(rows.div_ceil(8))?;
        Some(unpack_bits(bytes, rows))
    } else {
        None
    };
    // `rows` may come from an untrusted header: all size math is checked
    // so a corrupted count fails typed instead of overflowing or
    // attempting a giant allocation.
    let fixed_width = |rows: usize| -> Result<usize> {
        rows.checked_mul(8)
            .ok_or_else(|| DataError::Parse("colfile row count overflows".into()))
    };
    let data = match dtype {
        DataType::Int64 | DataType::Date => {
            let raw = c.take(fixed_width(rows)?)?;
            let v: Vec<i64> = raw
                .chunks_exact(8)
                // tidy-allow: panic-path: chunks_exact(8) yields exactly 8-byte slices by contract
                .map(|b| i64::from_le_bytes(b.try_into().unwrap()))
                .collect();
            if dtype == DataType::Date {
                ColumnData::Date(v)
            } else {
                ColumnData::Int64(v)
            }
        }
        DataType::Float64 => {
            let raw = c.take(fixed_width(rows)?)?;
            ColumnData::Float64(
                raw.chunks_exact(8)
                    // tidy-allow: panic-path: chunks_exact(8) yields exactly 8-byte slices by contract
                    .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().unwrap())))
                    .collect(),
            )
        }
        DataType::Bool => {
            let raw = c.take(rows.div_ceil(8))?;
            ColumnData::Bool(unpack_bits(raw, rows))
        }
        DataType::Utf8 => {
            // Cap the preallocations by what the buffer could actually
            // hold (≥ 4 length bytes per row) so a lying row count can't
            // drive a huge reserve before the reads fail.
            let plausible = rows.min(c.remaining() / 4 + 1);
            let mut lens = Vec::with_capacity(plausible);
            for _ in 0..rows {
                lens.push(c.len_u32()?);
            }
            let mut strs = Vec::with_capacity(plausible);
            for len in lens {
                let s = std::str::from_utf8(c.take(len)?)
                    .map_err(|_| DataError::Parse("bad utf8 in string cell".into()))?;
                strs.push(Arc::<str>::from(s));
            }
            ColumnData::Utf8(strs)
        }
    };
    match validity {
        Some(mask) => Column::with_validity(data, mask),
        None => Ok(Column::new(data)),
    }
}

/// Deserialise WCF bytes into a frame.
pub fn read_colfile(bytes: &[u8]) -> Result<DataFrame> {
    let mut c = Cursor::new(bytes);
    if c.take(8)? != MAGIC {
        return Err(DataError::Parse("not a WCF file (bad magic)".into()));
    }
    let nfields = c.len_u32()?;
    // Each field costs at least 6 header bytes (u32 name length + dtype +
    // mutable): cap the preallocation by what the buffer could actually
    // hold, so a lying field count can't drive a huge reserve before the
    // per-field reads fail.
    let mut fields = Vec::with_capacity(nfields.min(c.remaining() / 6 + 1));
    for _ in 0..nfields {
        let name_len = c.len_u32()?;
        let name = std::str::from_utf8(c.take(name_len)?)
            .map_err(|_| DataError::Parse("bad utf8 in field name".into()))?
            .to_string();
        let dtype = tag_dtype(c.u8()?)?;
        let mutable = c.u8()? != 0;
        fields.push(Field {
            name,
            dtype,
            mutable,
        });
    }
    let rows64 = c.u64()?;
    // Cheapest possible column payload is one bit per row; a row count
    // the remaining bytes cannot possibly back is rejected up front (in
    // u64 so a hostile header can't truncate its way past the check on
    // 32-bit targets).
    if !fields.is_empty() && rows64.div_ceil(8) > c.remaining() as u64 {
        return Err(DataError::Parse("colfile row count exceeds payload".into()));
    }
    // The narrowing itself must also be checked: on a 32-bit target a
    // count above usize::MAX could otherwise truncate to a small value
    // and decode a wrong frame without error.
    let rows = usize::try_from(rows64)
        .map_err(|_| DataError::Parse("colfile row count exceeds usize".into()))?;
    let mut columns = Vec::with_capacity(nfields);
    for f in &fields {
        columns.push(read_column(f.dtype, rows, &mut c)?);
    }
    DataFrame::new(Arc::new(Schema::new(fields)), columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample() -> DataFrame {
        let schema = Arc::new(Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::mutable("f", DataType::Float64),
            Field::new("b", DataType::Bool),
            Field::new("s", DataType::Utf8),
            Field::new("d", DataType::Date),
        ]));
        DataFrame::from_rows(
            schema,
            &[
                vec![
                    Value::Int(1),
                    Value::Float(1.5),
                    Value::Bool(true),
                    Value::str("hello"),
                    Value::Date(100),
                ],
                vec![
                    Value::Null,
                    Value::Float(-0.0),
                    Value::Bool(false),
                    Value::str("wörld, with commas"),
                    Value::Null,
                ],
                vec![
                    Value::Int(-42),
                    Value::Null,
                    Value::Bool(true),
                    Value::str(""),
                    Value::Date(-5),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let df = sample();
        let mut buf = Vec::new();
        write_colfile(&df, &mut buf).unwrap();
        let back = read_colfile(&buf).unwrap();
        assert_eq!(back, df);
        assert!(back.schema().field("f").unwrap().mutable);
    }

    #[test]
    fn empty_frame_roundtrip() {
        let df = DataFrame::empty(sample().schema().clone());
        let mut buf = Vec::new();
        write_colfile(&df, &mut buf).unwrap();
        assert_eq!(read_colfile(&buf).unwrap(), df);
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(read_colfile(b"NOTAFILE").is_err());
        assert!(read_colfile(b"WAKECOL1").is_err()); // truncated
        let df = sample();
        let mut buf = Vec::new();
        write_colfile(&df, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_colfile(&buf).is_err());
    }

    #[test]
    fn value_codec_roundtrips_bits_and_rejects_hostile_lengths() {
        let values = [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Float(-0.0),
            Value::Float(f64::from_bits(0x7ff8_0000_dead_beef)), // NaN payload
            Value::Bool(true),
            Value::str("αβ✓"),
            Value::str(""),
            Value::Date(19_000),
        ];
        let mut buf = Vec::new();
        for v in &values {
            write_value(v, &mut buf);
        }
        let mut c = ByteCursor::new(&buf);
        for v in &values {
            let back = read_value(&mut c).unwrap();
            match (v, &back) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(v, &back),
            }
        }
        assert_eq!(c.remaining(), 0);
        // Tag 0 is never written; unknown tags, a string length past the
        // buffer, and a count the remaining bytes cannot hold all fail
        // typed.
        assert!(read_value(&mut ByteCursor::new(&[0])).is_err());
        assert!(read_value(&mut ByteCursor::new(&[99])).is_err());
        let mut hostile = vec![VAL_STR];
        hostile.extend_from_slice(&u64::MAX.to_le_bytes());
        hostile.extend_from_slice(b"xy");
        assert!(read_value(&mut ByteCursor::new(&hostile)).is_err());
        let three = 3u64.to_le_bytes();
        assert!(ByteCursor::new(&three).count_u64(8).is_err());
        let mut ok = three.to_vec();
        ok.extend_from_slice(&[0; 24]);
        assert_eq!(ByteCursor::new(&ok).count_u64(8).unwrap(), 3);
    }

    #[test]
    fn bitpacking_roundtrip() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let packed = pack_bits(bits.iter().copied());
            assert_eq!(unpack_bits(&packed, n), bits);
        }
    }

    #[test]
    fn binary_is_smaller_than_csv_for_numeric_data() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Float64)]));
        let df = DataFrame::new(
            schema,
            vec![Column::from_f64(
                (0..1000).map(|i| i as f64 * 0.123456789).collect(),
            )],
        )
        .unwrap();
        let mut bin = Vec::new();
        write_colfile(&df, &mut bin).unwrap();
        let mut csv = Vec::new();
        crate::csv::write_csv(&df, &mut csv).unwrap();
        assert!(bin.len() < csv.len());
    }
}
