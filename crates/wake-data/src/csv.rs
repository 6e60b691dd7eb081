//! Minimal CSV reader/writer.
//!
//! Wake reads base tables from partitioned CSV files (the paper also
//! supports Parquet; the format is orthogonal to the OLA model, see
//! DESIGN.md substitutions). The dialect here: comma delimiter, `"`
//! quoting with `""` escapes, one header row, dates as `YYYY-MM-DD`,
//! empty unquoted fields as NULL.

use crate::column::Column;
use crate::error::DataError;
use crate::frame::DataFrame;
use crate::schema::Schema;
use crate::value::{format_date, parse_date, DataType, Value};
use crate::Result;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Escape a single field if needed.
fn escape(field: &str, out: &mut String) {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Serialise a frame to CSV text (with header).
pub(crate) fn write_csv<W: Write>(df: &DataFrame, w: &mut W) -> Result<()> {
    let mut line = String::new();
    for (i, name) in df.schema().names().iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        escape(name, &mut line);
    }
    line.push('\n');
    w.write_all(line.as_bytes())?;
    for r in 0..df.num_rows() {
        line.clear();
        for (c, col) in df.columns().iter().enumerate() {
            if c > 0 {
                line.push(',');
            }
            match col.value(r) {
                Value::Null => {}
                Value::Str(s) => escape(&s, &mut line),
                Value::Date(d) => line.push_str(&format_date(d)),
                v => line.push_str(&v.to_string()),
            }
        }
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Write a frame to a CSV file at `path`.
pub fn write_csv_file(df: &DataFrame, path: &Path) -> Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_csv(df, &mut f)
}

/// Split one CSV record into fields, honouring quotes.
fn split_record(line: &str) -> Vec<(String, bool)> {
    // Returns (field, was_quoted) — unquoted empty fields are NULL.
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(ch) = chars.next() {
        if in_quotes {
            if ch == '"' {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(ch);
            }
        } else if ch == '"' {
            in_quotes = true;
            quoted = true;
        } else if ch == ',' {
            fields.push((std::mem::take(&mut cur), quoted));
            quoted = false;
        } else {
            cur.push(ch);
        }
    }
    fields.push((cur, quoted));
    fields
}

fn parse_cell(text: &str, quoted: bool, dtype: DataType) -> Result<Value> {
    if text.is_empty() && !quoted && dtype != DataType::Utf8 {
        return Ok(Value::Null);
    }
    let v = match dtype {
        DataType::Int64 => Value::Int(
            text.parse::<i64>()
                .map_err(|_| DataError::Parse(format!("bad int: {text:?}")))?,
        ),
        DataType::Float64 => Value::Float(
            text.parse::<f64>()
                .map_err(|_| DataError::Parse(format!("bad float: {text:?}")))?,
        ),
        DataType::Bool => match text {
            "true" | "TRUE" | "1" => Value::Bool(true),
            "false" | "FALSE" | "0" => Value::Bool(false),
            other => return Err(DataError::Parse(format!("bad bool: {other:?}"))),
        },
        DataType::Date => Value::Date(
            parse_date(text).ok_or_else(|| DataError::Parse(format!("bad date: {text:?}")))?,
        ),
        DataType::Utf8 => {
            if text.is_empty() && !quoted {
                Value::str("")
            } else {
                Value::str(text)
            }
        }
    };
    Ok(v)
}

/// Parse CSV text into a frame using the provided schema. The header row is
/// validated against the schema's column names.
pub fn read_csv<R: Read>(schema: Arc<Schema>, r: R) -> Result<DataFrame> {
    let reader = BufReader::new(r);
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| DataError::Parse("empty csv: missing header".into()))??;
    let names: Vec<String> = split_record(&header).into_iter().map(|(f, _)| f).collect();
    let expected = schema.names();
    if names != expected {
        return Err(DataError::Parse(format!(
            "csv header {names:?} does not match schema {expected:?}"
        )));
    }
    let mut cols: Vec<Vec<Value>> = vec![Vec::new(); schema.len()];
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let fields = split_record(&line);
        if fields.len() != schema.len() {
            return Err(DataError::Parse(format!(
                "line {}: expected {} fields, found {}",
                lineno + 2,
                schema.len(),
                fields.len()
            )));
        }
        for (ci, (text, quoted)) in fields.into_iter().enumerate() {
            cols[ci].push(parse_cell(&text, quoted, schema.fields()[ci].dtype)?);
        }
    }
    let columns = schema
        .fields()
        .iter()
        .zip(cols)
        .map(|(f, vals)| Column::from_values(f.dtype, &vals))
        .collect::<Result<Vec<_>>>()?;
    DataFrame::new(schema, columns)
}

/// Read a CSV file at `path` using `schema`.
pub fn read_csv_file(schema: Arc<Schema>, path: &Path) -> Result<DataFrame> {
    let f = std::fs::File::open(path)?;
    read_csv(schema, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("score", DataType::Float64),
            Field::new("day", DataType::Date),
        ]))
    }

    #[test]
    fn roundtrip_with_quoting_and_nulls() {
        let df = DataFrame::from_rows(
            schema(),
            &[
                vec![
                    Value::Int(1),
                    Value::str("plain"),
                    Value::Float(1.5),
                    Value::Date(crate::value::date_to_days(1995, 3, 15)),
                ],
                vec![
                    Value::Int(2),
                    Value::str("has,comma \"and quotes\""),
                    Value::Null,
                    Value::Null,
                ],
            ],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&df, &mut buf).unwrap();
        let back = read_csv(schema(), &buf[..]).unwrap();
        assert_eq!(back, df);
    }

    #[test]
    fn header_mismatch_is_rejected() {
        let text = "wrong,header,row,here\n";
        assert!(read_csv(schema(), text.as_bytes()).is_err());
    }

    #[test]
    fn bad_cells_are_reported() {
        let text = "id,name,score,day\nnot_an_int,x,1.0,1995-01-01\n";
        let err = read_csv(schema(), text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bad int"));
    }

    #[test]
    fn field_count_mismatch_reports_line() {
        let text = "id,name,score,day\n1,x,2.0\n";
        let err = read_csv(schema(), text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("wake_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let df = DataFrame::from_rows(
            schema(),
            &[vec![
                Value::Int(7),
                Value::str("f"),
                Value::Float(0.25),
                Value::Date(10),
            ]],
        )
        .unwrap();
        write_csv_file(&df, &path).unwrap();
        let back = read_csv_file(schema(), &path).unwrap();
        assert_eq!(back, df);
        std::fs::remove_file(path).ok();
    }
}
