//! edf operators: state transformations from input extrinsic states to
//! output intrinsic states, and onward to new extrinsic states (§4.3).
//!
//! Each operator is a push-driven state machine. The executor feeds it
//! [`Update`]s per input port and signals per-port EOF; the operator returns
//! the updates it publishes downstream. Operators declare their output
//! [`EdfMeta`] (schema / keys / stream kind) at build time so the whole
//! DAG's metadata is known before execution — the *consistency* closure
//! property (§3.1).

pub(crate) mod agg_op;
pub mod filter;
pub(crate) mod join;
pub(crate) mod key_index;
pub mod map;
pub mod map_ci;
pub mod partitions;
pub mod sharded;
pub(crate) mod sort;
pub mod spill;

pub(crate) use agg_op::AggOp;
pub use filter::FilterOp;
pub(crate) use join::JoinOp;
pub use map::MapOp;
pub(crate) use sort::SortOp;

use crate::meta::EdfMeta;
use crate::update::Update;
use crate::Result;
use std::collections::BTreeSet;
use std::sync::Arc;
use wake_data::{Column, DataFrame, Schema};

/// A push-driven edf operator.
pub trait Operator: Send {
    /// Consume one update on `port`; return the updates to publish.
    fn on_update(&mut self, port: usize, update: &Update) -> Result<Vec<Update>>;

    /// Signal that `port`'s upstream is exhausted; return final flushes.
    /// The executor forwards EOF downstream once *all* ports are closed.
    fn on_eof(&mut self, port: usize) -> Result<Vec<Update>>;

    /// Static description of the output edf.
    fn meta(&self) -> &EdfMeta;

    /// For each input port, the columns this operator reads when its
    /// consumers observe `observed` of its output — what the planner
    /// narrows scans to. A column whose absence would change the output
    /// metadata (a key kept whole) counts as read.
    fn reads(&self, observed: &BTreeSet<String>) -> Vec<BTreeSet<String>>;

    /// Approximate bytes of buffered operator state (peak-memory metric).
    fn state_bytes(&self) -> usize {
        0
    }

    /// Observability detail beyond `state_bytes`. Sharded operators
    /// override this to expose per-shard buffered state; the default is
    /// the empty report (unsharded / stateless operators).
    fn report(&self) -> OpReport {
        OpReport::default()
    }
}

/// Point-in-time operator detail for per-node profiles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpReport {
    /// Buffered state bytes per shard (`state_bytes()` = the sum).
    /// Empty for unsharded operators.
    pub shard_state_bytes: Vec<usize>,
}

/// A growable row store over shared frames: operators buffer their inputs
/// as `Arc<DataFrame>`s and address rows as `(frame, row)` pairs, so
/// buffering never copies payloads.
#[derive(Debug, Default, Clone)]
pub struct RowStore {
    frames: Vec<Arc<DataFrame>>,
    rows: usize,
}

/// Address of one buffered row.
pub type RowRef = (u32, u32);

impl RowStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a frame; returns the index assigned to it.
    pub fn push(&mut self, frame: Arc<DataFrame>) -> u32 {
        self.rows += frame.num_rows();
        self.frames.push(frame);
        (self.frames.len() - 1) as u32
    }

    pub fn clear(&mut self) {
        self.frames.clear();
        self.rows = 0;
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn frames(&self) -> &[Arc<DataFrame>] {
        &self.frames
    }

    pub fn frame(&self, idx: u32) -> &Arc<DataFrame> {
        &self.frames[idx as usize]
    }

    /// Materialise the whole store as one frame with the given schema.
    pub fn concat(&self, schema: &Arc<Schema>) -> Result<DataFrame> {
        if self.frames.is_empty() {
            return Ok(DataFrame::empty(schema.clone()));
        }
        let refs: Vec<&DataFrame> = self.frames.iter().map(|f| f.as_ref()).collect();
        DataFrame::concat(&refs)
    }

    /// Gather the given rows into fresh columns, in order, producing a
    /// frame with this store's schema. Fully typed: no `Value` cells are
    /// materialised.
    pub fn gather(&self, refs: &[RowRef]) -> Result<DataFrame> {
        let schema = self
            .frames
            .first()
            .map(|f| f.schema().clone())
            .ok_or_else(|| wake_data::DataError::Invalid("gather from empty row store".into()))?;
        let columns = self.gather_columns(refs)?;
        DataFrame::new(schema, columns)
    }

    /// Typed gather of every column at `refs` (frames must be non-empty).
    pub fn gather_columns(&self, refs: &[RowRef]) -> Result<Vec<Column>> {
        let schema = self.frames[0].schema().clone();
        let refs: Vec<Option<RowRef>> = refs.iter().map(|&r| Some(r)).collect();
        self.gather_opt_columns(&refs, &schema)
    }

    /// Typed gather where `None` refs produce null cells (the unmatched
    /// side of a left join). Returns one column per store column, or a
    /// typed error when a buffered frame does not match the store schema —
    /// a malformed input must fail the query, not panic a worker thread.
    pub fn gather_opt_columns(
        &self,
        refs: &[Option<RowRef>],
        schema: &Arc<Schema>,
    ) -> Result<Vec<Column>> {
        use wake_data::column::ColumnData;
        let ncols = schema.len();
        (0..ncols)
            .map(|c| {
                if self.frames.is_empty() {
                    // No buffered rows at all: every ref must be None.
                    debug_assert!(refs.iter().all(Option::is_none));
                    return Ok(Column::nulls(schema.fields()[c].dtype, refs.len()));
                }
                let cols: Vec<&Column> = self.frames.iter().map(|f| f.column_at(c)).collect();
                let any_none = refs.iter().any(Option::is_none);
                let any_mask = cols.iter().any(|col| col.validity().is_some());
                let validity = (any_none || any_mask).then(|| {
                    refs.iter()
                        .map(|r| match r {
                            Some((fi, ri)) => cols[*fi as usize].is_valid(*ri as usize),
                            None => false,
                        })
                        .collect::<Vec<bool>>()
                });
                macro_rules! gather {
                    ($variant:ident, $slice:ident, $default:expr) => {{
                        let slices = cols
                            .iter()
                            .map(|col| {
                                col.$slice()
                                    .ok_or_else(|| wake_data::DataError::TypeMismatch {
                                        expected: format!(
                                            "{} for buffered column {}",
                                            self.frames[0].column_at(c).data_type(),
                                            schema.fields()[c].name
                                        ),
                                        found: col.data_type().to_string(),
                                    })
                            })
                            .collect::<Result<Vec<_>>>()?;
                        ColumnData::$variant(
                            refs.iter()
                                .map(|r| match r {
                                    Some((fi, ri)) => slices[*fi as usize][*ri as usize].clone(),
                                    None => $default,
                                })
                                .collect(),
                        )
                    }};
                }
                let data = match self.frames[0].column_at(c).data() {
                    ColumnData::Int64(_) => gather!(Int64, as_i64_slice, 0),
                    ColumnData::Date(_) => gather!(Date, as_i64_slice, 0),
                    ColumnData::Float64(_) => gather!(Float64, as_f64_slice, 0.0),
                    ColumnData::Bool(_) => gather!(Bool, as_bool_slice, false),
                    ColumnData::Utf8(_) => {
                        gather!(Utf8, as_str_slice, std::sync::Arc::from(""))
                    }
                };
                Column::with_validity_opt(data, validity)
            })
            .collect()
    }

    /// Approximate buffered bytes.
    pub fn byte_size(&self) -> usize {
        self.frames.iter().map(|f| f.byte_size()).sum()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::progress::Progress;
    use crate::update::Update;
    use std::sync::Arc;
    use wake_data::{Column, DataFrame, DataType, Field, Schema};

    /// Two-column (k: Int64, v: Float64) frame for operator tests.
    pub fn kv_frame(ks: Vec<i64>, vs: Vec<f64>) -> DataFrame {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]));
        DataFrame::new(schema, vec![Column::from_i64(ks), Column::from_f64(vs)]).unwrap()
    }

    pub fn delta(frame: DataFrame, processed: u64, total: u64) -> Update {
        Update::delta(frame, Progress::single(0, processed, total))
    }

    pub fn snapshot(frame: DataFrame, processed: u64, total: u64) -> Update {
        Update::snapshot(frame, Progress::single(0, processed, total))
    }

    /// The operator-level spill env of a one-operator query under
    /// `budget` bytes.
    pub fn op_env(budget: usize) -> wake_store::SpillEnv {
        wake_store::SpillConfig::with_budget(budget)
            .build_env(1)
            .unwrap()
            .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::kv_frame;
    use super::*;

    #[test]
    fn row_store_gather_and_concat() {
        let mut store = RowStore::new();
        store.push(Arc::new(kv_frame(vec![1, 2], vec![1.0, 2.0])));
        store.push(Arc::new(kv_frame(vec![3], vec![3.0])));
        assert_eq!(store.num_rows(), 3);
        let gathered = store.gather(&[(1, 0), (0, 0)]).unwrap();
        assert_eq!(gathered.num_rows(), 2);
        assert_eq!(gathered.value(0, "k").unwrap(), wake_data::Value::Int(3));
        let schema = store.frame(0).schema().clone();
        let all = store.concat(&schema).unwrap();
        assert_eq!(all.num_rows(), 3);
        assert!(store.byte_size() > 0);
    }

    #[test]
    fn empty_store_behaviour() {
        let store = RowStore::new();
        let schema = kv_frame(vec![], vec![]).schema().clone();
        assert_eq!(store.concat(&schema).unwrap().num_rows(), 0);
        assert!(store.gather(&[]).is_err());
    }
}
