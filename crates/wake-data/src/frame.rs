//! Immutable 2-D batches of rows.
//!
//! A [`DataFrame`] is one materialised state (or partition) of an evolving
//! data frame. Frames are cheap to share (`Arc<Schema>`, `Arc<str>` cells)
//! and all kernels produce new frames, which lets the OLA engine pass shared
//! pointers between pipeline threads without cloning payloads (§7.3).

use crate::column::Column;
use crate::error::DataError;
use crate::hash::cmp_rows_by;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;
use std::fmt;
use std::sync::Arc;

/// An immutable table: a schema plus equally-long columns.
#[derive(Debug, Clone, PartialEq)]
pub struct DataFrame {
    schema: Arc<Schema>,
    columns: Vec<Column>,
    rows: usize,
}

impl DataFrame {
    /// Build a frame, validating shape against the schema.
    pub fn new(schema: Arc<Schema>, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(DataError::ShapeMismatch(format!(
                "schema has {} fields but {} columns given",
                schema.len(),
                columns.len()
            )));
        }
        let rows = columns.first().map_or(0, |c| c.len());
        for (field, col) in schema.fields().iter().zip(&columns) {
            if col.len() != rows {
                return Err(DataError::ShapeMismatch(format!(
                    "column {} has {} rows, expected {rows}",
                    field.name,
                    col.len()
                )));
            }
            if col.data_type() != field.dtype {
                return Err(DataError::TypeMismatch {
                    expected: format!("{} for column {}", field.dtype, field.name),
                    found: col.data_type().to_string(),
                });
            }
        }
        Ok(DataFrame {
            schema,
            columns,
            rows,
        })
    }

    /// An empty frame with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype))
            .collect();
        DataFrame {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Build from rows of dynamic values (test / generator convenience).
    pub fn from_rows(schema: Arc<Schema>, rows: &[Vec<Value>]) -> Result<Self> {
        let n_cols = schema.len();
        let mut cols: Vec<Vec<Value>> = vec![Vec::with_capacity(rows.len()); n_cols];
        for (ri, row) in rows.iter().enumerate() {
            if row.len() != n_cols {
                return Err(DataError::ShapeMismatch(format!(
                    "row {ri} has {} values, expected {n_cols}",
                    row.len()
                )));
            }
            for (ci, v) in row.iter().enumerate() {
                cols[ci].push(v.clone());
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

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn column(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    pub fn column_at(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Cell access by row index and column name; a row past the end is
    /// an error.
    pub fn value(&self, row: usize, name: &str) -> Result<Value> {
        let col = self.column(name)?;
        if row >= self.num_rows() {
            return Err(DataError::Invalid(format!(
                "row {row} out of range ({} rows)",
                self.num_rows()
            )));
        }
        Ok(col.value(row))
    }

    /// Extract the row at `i` as dynamic values (schema order).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Extract the values of `key_indices` at row `i` as a hashable [`Row`].
    pub fn key_at(&self, i: usize, key_indices: &[usize]) -> Row {
        Row::new(
            key_indices
                .iter()
                .map(|&c| self.columns[c].value(i))
                .collect(),
        )
    }

    /// Resolve column names to indices.
    pub fn key_indices(&self, names: &[&str]) -> Result<Vec<usize>> {
        names.iter().map(|n| self.schema.index_of(n)).collect()
    }

    /// Gather rows at `indices`.
    pub fn take(&self, indices: &[usize]) -> DataFrame {
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        DataFrame {
            schema: self.schema.clone(),
            columns,
            rows: indices.len(),
        }
    }

    /// Rows `start..end` as a new frame — [`Self::take`] of a contiguous
    /// range without the index vector. Panics if the range is out of
    /// bounds.
    pub fn slice(&self, start: usize, end: usize) -> DataFrame {
        DataFrame {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.slice(start, end)).collect(),
            rows: end - start,
        }
    }

    /// Gather rows at a `u32` selection vector (the representation shared by
    /// predicate evaluation and the hash-range partition scatter). Cheap
    /// columnar gather: one typed pass per column, no `Value` cells.
    pub fn select(&self, sel: &[u32]) -> DataFrame {
        let columns = self.columns.iter().map(|c| c.take_u32(sel)).collect();
        DataFrame {
            schema: self.schema.clone(),
            columns,
            rows: sel.len(),
        }
    }

    /// Keep rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<DataFrame> {
        if mask.len() != self.rows {
            return Err(DataError::ShapeMismatch(format!(
                "mask length {} != row count {}",
                mask.len(),
                self.rows
            )));
        }
        Ok(self.select(&crate::column::mask_to_selection(mask)))
    }

    /// First `n` rows (all rows if `n >= num_rows`).
    pub fn head(&self, n: usize) -> DataFrame {
        let indices: Vec<usize> = (0..n.min(self.rows)).collect();
        self.take(&indices)
    }

    /// Concatenate frames with identical schemas.
    pub fn concat(parts: &[&DataFrame]) -> Result<DataFrame> {
        let Some(first) = parts.first() else {
            return Err(DataError::Invalid("concat of zero frames".into()));
        };
        for p in parts {
            if p.schema.fields() != first.schema.fields() {
                return Err(DataError::Invalid(format!(
                    "concat schema mismatch: {} vs {}",
                    p.schema, first.schema
                )));
            }
        }
        let mut columns = Vec::with_capacity(first.num_columns());
        for ci in 0..first.num_columns() {
            let cols: Vec<&Column> = parts.iter().map(|p| &p.columns[ci]).collect();
            columns.push(Column::concat(&cols)?);
        }
        let rows = parts.iter().map(|p| p.rows).sum();
        Ok(DataFrame {
            schema: first.schema.clone(),
            columns,
            rows,
        })
    }

    /// Project named columns into a new frame (preserving given order).
    pub fn project(&self, names: &[&str]) -> Result<DataFrame> {
        let schema = Arc::new(self.schema.project(names)?);
        let columns = names
            .iter()
            .map(|n| self.column(n).cloned())
            .collect::<Result<Vec<_>>>()?;
        DataFrame::new(schema, columns)
    }

    /// Append a column (schema grows by one field).
    pub fn with_column(&self, field: crate::schema::Field, col: Column) -> Result<DataFrame> {
        if col.len() != self.rows {
            return Err(DataError::ShapeMismatch(format!(
                "new column has {} rows, frame has {}",
                col.len(),
                self.rows
            )));
        }
        let mut fields = self.schema.fields().to_vec();
        fields.push(field);
        let mut columns = self.columns.clone();
        columns.push(col);
        DataFrame::new(Arc::new(Schema::new(fields)), columns)
    }

    /// Stable sort by the named columns; `descending[i]` flips key `i`.
    /// Cells order as `Value::cmp` does (nulls first ascending, last
    /// descending), compared typed by [`cmp_rows_by`] — no `Value` is built.
    pub fn sort_by(&self, keys: &[&str], descending: &[bool]) -> Result<DataFrame> {
        if keys.len() != descending.len() {
            return Err(DataError::Invalid(
                "sort keys and direction flags must have equal length".into(),
            ));
        }
        let key_idx = self.key_indices(keys)?;
        let mut order: Vec<usize> = (0..self.rows).collect();
        order.sort_by(|&a, &b| cmp_rows_by(self, a, self, b, &key_idx, descending));
        Ok(self.take(&order))
    }

    /// Approximate heap footprint in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// Render up to `limit` rows as an aligned text table (debug/demo aid).
    pub fn pretty(&self, limit: usize) -> String {
        let names = self.schema.names();
        let n = self.rows.min(limit);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(n + 1);
        cells.push(names.iter().map(|s| s.to_string()).collect());
        for i in 0..n {
            cells.push(self.row(i).iter().map(|v| v.to_string()).collect());
        }
        let mut widths = vec![0usize; names.len()];
        for row in &cells {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        for (ri, row) in cells.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:>width$}", width = widths[c]));
            }
            out.push('\n');
            if ri == 0 {
                let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
                out.push_str(&"-".repeat(total));
                out.push('\n');
            }
        }
        if self.rows > limit {
            out.push_str(&format!("... ({} more rows)\n", self.rows - limit));
        }
        out
    }
}

impl fmt::Display for DataFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty(20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;

    fn frame() -> DataFrame {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ]));
        DataFrame::new(
            schema,
            vec![
                Column::from_i64(vec![3, 1, 2, 1]),
                Column::from_f64(vec![30.0, 10.0, 20.0, 11.0]),
                Column::from_str_iter(["c", "a", "b", "a2"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_shape_and_types() {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        assert!(DataFrame::new(schema.clone(), vec![Column::from_f64(vec![1.0])]).is_err());
        assert!(DataFrame::new(schema.clone(), vec![]).is_err());
        let ok = DataFrame::new(schema, vec![Column::from_i64(vec![1, 2])]).unwrap();
        assert_eq!(ok.num_rows(), 2);
        assert!(matches!(ok.value(2, "k"), Err(DataError::Invalid(_))));
    }

    #[test]
    fn sort_multi_key_with_direction() {
        let f = frame();
        let sorted = f.sort_by(&["k", "v"], &[false, true]).unwrap();
        let ks: Vec<Value> = sorted.column("k").unwrap().iter().collect();
        assert_eq!(
            ks,
            vec![Value::Int(1), Value::Int(1), Value::Int(2), Value::Int(3)]
        );
        // within k=1, v descending: 11.0 before 10.0
        assert_eq!(sorted.value(0, "v").unwrap(), Value::Float(11.0));
        assert_eq!(sorted.value(1, "v").unwrap(), Value::Float(10.0));
    }

    #[test]
    fn take_filter_head_project() {
        let f = frame();
        let t = f.take(&[2, 0]);
        assert_eq!(t.value(0, "s").unwrap(), Value::str("b"));
        let fil = f.filter(&[false, true, false, true]).unwrap();
        assert_eq!(fil.num_rows(), 2);
        assert_eq!(f.head(2).num_rows(), 2);
        assert_eq!(f.head(99).num_rows(), 4);
        let p = f.project(&["s", "k"]).unwrap();
        assert_eq!(p.schema().names(), vec!["s", "k"]);
    }

    #[test]
    fn concat_roundtrip() {
        let f = frame();
        let doubled = DataFrame::concat(&[&f, &f]).unwrap();
        assert_eq!(doubled.num_rows(), 8);
        assert_eq!(doubled.value(4, "k").unwrap(), Value::Int(3));
    }

    #[test]
    fn from_rows_roundtrip() {
        let f = frame();
        let rows: Vec<Vec<Value>> = (0..f.num_rows()).map(|i| f.row(i)).collect();
        let rebuilt = DataFrame::from_rows(f.schema().clone(), &rows).unwrap();
        assert_eq!(rebuilt, f);
    }

    #[test]
    fn with_column_extends_schema() {
        let f = frame();
        let g = f
            .with_column(
                Field::new("flag", DataType::Bool),
                Column::from_bool(vec![true; 4]),
            )
            .unwrap();
        assert_eq!(g.num_columns(), 4);
        assert!(g.column("flag").is_ok());
        assert!(f
            .with_column(
                Field::new("bad", DataType::Bool),
                Column::from_bool(vec![true])
            )
            .is_err());
    }

    #[test]
    fn pretty_prints_header_and_rows() {
        let text = frame().pretty(2);
        assert!(text.contains('k') && text.contains("more rows"));
    }

    #[test]
    fn key_at_extracts_hashable_rows() {
        let f = frame();
        let idx = f.key_indices(&["k"]).unwrap();
        assert_eq!(f.key_at(1, &idx), f.key_at(3, &idx));
        assert_ne!(f.key_at(0, &idx), f.key_at(1, &idx));
    }
}
