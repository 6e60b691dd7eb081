//! Partitioned base-table sources.
//!
//! The edf representing a base table is fed by a [`TableSource`]: an ordered
//! sequence of partitions plus the metadata Wake requires (§4.4): the
//! partition list, the tuple count of each partition, and the primary /
//! clustering keys. The total tuple count is what turns "rows read so far"
//! into the progress ratio `t`.

use crate::csv::read_csv_file;
use crate::error::DataError;
use crate::frame::DataFrame;
use crate::scan::ColPredicate;
use crate::schema::Schema;
use crate::Result;
use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::Arc;

/// Metadata for a base table (the only statistics Wake needs, §4.4).
#[derive(Debug, Clone)]
pub struct TableMeta {
    pub name: String,
    pub schema: Arc<Schema>,
    /// Constant attributes uniquely identifying a tuple (§3.1).
    pub primary_key: Vec<String>,
    /// Attributes the table is sorted on: reading the partitions in order
    /// yields rows in non-decreasing order of the key. A key value may
    /// span a partition boundary. A view that reads out of this order
    /// reports no key.
    pub clustering_key: Option<Vec<String>>,
    /// Rows per partition, in read order.
    pub partition_rows: Vec<usize>,
}

impl TableMeta {
    pub fn total_rows(&self) -> usize {
        self.partition_rows.iter().sum()
    }

    pub fn num_partitions(&self) -> usize {
        self.partition_rows.len()
    }
}

/// What one query asks of one scan, in the order a source applies it.
/// The rules every source shares are written once here: the visit order
/// ([`shuffle`]) and the view's meta ([`ScanRequest::view_meta`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanRequest {
    /// Visit the partitions in a seeded random order (`None`: read
    /// order). A shuffled view reports no clustering key.
    pub seed: Option<u64>,
    /// A conjunction the rows this query keeps satisfy: a source with
    /// zone statistics drops the partitions they refute, and their rows
    /// from `partition_rows`, so the progress ratio `t` ranges over the
    /// retained population.
    pub predicates: Vec<ColPredicate>,
    /// The columns the view returns (names from `meta().schema`; the
    /// view keeps schema order). A key survives only if every one of
    /// its columns does.
    pub columns: Vec<String>,
}

impl ScanRequest {
    /// A full-width request for `meta`: every column, visited in
    /// `seed`'s order, pruning nothing.
    pub fn full(meta: &TableMeta, seed: Option<u64>) -> Self {
        let columns = meta.schema.names().into_iter().map(String::from).collect();
        ScanRequest {
            seed,
            predicates: Vec::new(),
            columns,
        }
    }

    /// The meta of this request's view of `meta`, visiting partitions of
    /// `rows` rows: the requested columns in schema order; each key only
    /// whole (`MapOp`'s rule), the clustering key only unshuffled; one
    /// empty partition if it visits none (the exact empty answer, not a
    /// false-converged estimate). `None` if no column is asked for (a
    /// frame counts its rows in its columns) or one `meta` lacks (the
    /// planner's error to report when it resolves the plan).
    pub fn view_meta(&self, meta: &TableMeta, rows: Vec<usize>) -> Option<TableMeta> {
        if self.columns.is_empty() || !self.columns.iter().all(|c| meta.schema.contains(c)) {
            return None;
        }
        let fields = meta.schema.fields().iter();
        let kept = fields.filter(|f| self.columns.contains(&f.name)).cloned();
        let schema = Arc::new(Schema::new(kept.collect()));
        let whole = |key: &Vec<String>| key.iter().all(|k| schema.contains(k));
        Some(TableMeta {
            name: meta.name.clone(),
            primary_key: Some(meta.primary_key.clone())
                .filter(whole)
                .unwrap_or_default(),
            clustering_key: meta
                .clustering_key
                .clone()
                .filter(|key| self.seed.is_none() && whole(key)),
            partition_rows: if rows.is_empty() { vec![0] } else { rows },
            schema,
        })
    }
}

/// `order` as a view seeded with `seed` visits it (`None`: unchanged):
/// Fisher–Yates over a splitmix64 stream, deterministic per seed.
pub fn shuffle<T>(mut order: Vec<T>, seed: Option<u64>) -> Vec<T> {
    let Some(mut state) = seed else {
        return order;
    };
    for i in (1..order.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let j = (crate::hash::mix64(state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// A readable sequence of partitions with known metadata.
pub trait TableSource: Send + Sync {
    fn meta(&self) -> &TableMeta;
    /// Materialise partition `i` (0-based, read order).
    fn partition(&self, i: usize) -> Result<DataFrame>;

    /// The view this query reads the source through (see
    /// [`ScanRequest`]): its partitions in [`shuffle`]d order, less any
    /// its statistics prune, described by [`ScanRequest::view_meta`],
    /// with scan counters of its own if the source keeps any. `None`
    /// for a request [`ScanRequest::view_meta`] refuses.
    fn view(&self, request: &ScanRequest) -> Option<Arc<dyn TableSource>>;

    /// Scan-side I/O counters accumulated by this source, if it tracks any.
    fn scan_metrics(&self) -> Option<crate::scan::ScanMetrics> {
        None
    }
}

/// What a [`PartitionedSource`] holds per partition: a frame in memory,
/// or a CSV file parsed on every read.
pub trait Partition: Clone + std::fmt::Debug + Send + Sync + 'static {
    /// The partition's rows, under `schema` (the source's full schema).
    fn load(&self, schema: &Arc<Schema>) -> Result<Cow<'_, DataFrame>>;
}

impl Partition for Arc<DataFrame> {
    fn load(&self, _: &Arc<Schema>) -> Result<Cow<'_, DataFrame>> {
        Ok(Cow::Borrowed(self))
    }
}

impl Partition for PathBuf {
    fn load(&self, schema: &Arc<Schema>) -> Result<Cow<'_, DataFrame>> {
        read_csv_file(schema.clone(), self).map(Cow::Owned)
    }
}

/// A source over a list of partitions ([`MemorySource`],
/// [`CsvDirSource`]). A view shares the list in its visit order and
/// keeps the positions of the columns it returns: a read copies only
/// those.
#[derive(Debug, Clone)]
pub struct PartitionedSource<P> {
    meta: TableMeta,
    /// The partitions' own schema; a view's `meta.schema` narrows it.
    schema: Arc<Schema>,
    /// In visit order.
    parts: Vec<P>,
    /// The positions in `schema` a read returns, in `meta.schema` order.
    columns: Vec<usize>,
}

/// Pre-partitioned frames in memory.
pub type MemorySource = PartitionedSource<Arc<DataFrame>>;

/// One CSV file per partition.
pub type CsvDirSource = PartitionedSource<PathBuf>;

impl<P: Partition> PartitionedSource<P> {
    /// `parts` read in order, described by `meta`.
    fn over(meta: TableMeta, parts: Vec<P>) -> Self {
        PartitionedSource {
            schema: meta.schema.clone(),
            columns: (0..meta.schema.len()).collect(),
            meta,
            parts,
        }
    }
}

impl MemorySource {
    /// Build from explicit partitions. All partitions must share a schema.
    pub fn new(
        name: impl Into<String>,
        partitions: Vec<DataFrame>,
        primary_key: Vec<String>,
        clustering_key: Option<Vec<String>>,
    ) -> Result<Self> {
        if partitions.is_empty() {
            return Err(DataError::Invalid(
                "a source needs at least one partition".into(),
            ));
        }
        let schema = partitions[0].schema().clone();
        for p in &partitions {
            if p.schema().fields() != schema.fields() {
                return Err(DataError::Invalid("partition schema mismatch".into()));
            }
        }
        let meta = TableMeta {
            name: name.into(),
            schema,
            primary_key,
            clustering_key,
            partition_rows: partitions.iter().map(|p| p.num_rows()).collect(),
        };
        let parts = partitions.into_iter().map(Arc::new).collect();
        Ok(Self::over(meta, parts))
    }

    /// Split a single frame into partitions of at most `rows_per_partition`
    /// rows, preserving row order (so a frame sorted on its clustering key
    /// yields clustered partitions).
    pub fn from_frame(
        name: impl Into<String>,
        frame: &DataFrame,
        rows_per_partition: usize,
        primary_key: Vec<String>,
        clustering_key: Option<Vec<String>>,
    ) -> Result<Self> {
        if rows_per_partition == 0 {
            return Err(DataError::Invalid("rows_per_partition must be > 0".into()));
        }
        let n = frame.num_rows();
        let mut partitions = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + rows_per_partition).min(n);
            partitions.push(frame.slice(start, end));
            start = end;
        }
        if partitions.is_empty() {
            partitions.push(DataFrame::empty(frame.schema().clone()));
        }
        MemorySource::new(name, partitions, primary_key, clustering_key)
    }

    /// Shuffle the *order in which partitions are read* (not rows inside),
    /// used by the CI experiment (§8.5) to simulate unexpected input order.
    /// `order` must be a permutation of the partition indices.
    pub fn shuffled_partitions(&self, order: &[usize]) -> Result<MemorySource> {
        let mut sorted = order.to_vec();
        sorted.sort_unstable();
        if !sorted.into_iter().eq(0..self.parts.len()) {
            return Err(DataError::Invalid("shuffle order not a permutation".into()));
        }
        let mut shuffled = self.clone();
        shuffled.parts = order.iter().map(|&i| self.parts[i].clone()).collect();
        shuffled.meta.partition_rows = shuffled.parts.iter().map(|p| p.num_rows()).collect();
        // Reading out of clustering order invalidates the clustering key.
        shuffled.meta.clustering_key = None;
        Ok(shuffled)
    }
}

impl CsvDirSource {
    /// Build from an explicit, non-empty file list with known per-file
    /// row counts.
    pub fn new(
        name: impl Into<String>,
        schema: Arc<Schema>,
        files: Vec<PathBuf>,
        partition_rows: Vec<usize>,
        primary_key: Vec<String>,
        clustering_key: Option<Vec<String>>,
    ) -> Result<Self> {
        if files.is_empty() || files.len() != partition_rows.len() {
            return Err(DataError::Invalid("need files, one row count each".into()));
        }
        let meta = TableMeta {
            name: name.into(),
            schema,
            primary_key,
            clustering_key,
            partition_rows,
        };
        Ok(Self::over(meta, files))
    }
}

impl<P: Partition> TableSource for PartitionedSource<P> {
    fn meta(&self) -> &TableMeta {
        &self.meta
    }

    fn partition(&self, i: usize) -> Result<DataFrame> {
        let part = self
            .parts
            .get(i)
            .ok_or_else(|| DataError::ShapeMismatch(format!("partition {i} out of range")))?;
        let frame = part.load(&self.schema)?;
        let columns = self.columns.iter().filter_map(|&c| frame.columns().get(c));
        DataFrame::new(self.meta.schema.clone(), columns.cloned().collect())
    }

    fn view(&self, request: &ScanRequest) -> Option<Arc<dyn TableSource>> {
        let rows = self.meta.partition_rows.iter().copied();
        let pairs = self.parts.iter().cloned().zip(rows).collect();
        let (parts, rows) = shuffle(pairs, request.seed).into_iter().unzip();
        let meta = request.view_meta(&self.meta, rows)?;
        let fields = meta.schema.fields().iter();
        let columns = fields.map(|f| self.schema.index_of(&f.name).ok());
        Some(Arc::new(PartitionedSource {
            columns: columns.collect::<Option<_>>()?,
            schema: self.schema.clone(),
            meta,
            parts,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::schema::Field;
    use crate::value::DataType;

    fn frame(n: usize) -> DataFrame {
        let schema = Arc::new(Schema::new(vec![Field::new("id", DataType::Int64)]));
        DataFrame::new(schema, vec![Column::from_i64((0..n as i64).collect())]).unwrap()
    }

    #[test]
    fn from_frame_partitions_evenly() {
        let src = MemorySource::from_frame("t", &frame(10), 4, vec!["id".into()], None).unwrap();
        assert_eq!(src.meta().partition_rows, vec![4, 4, 2]);
        assert_eq!(src.meta().total_rows(), 10);
        let p1 = src.partition(1).unwrap();
        assert_eq!(p1.value(0, "id").unwrap(), crate::value::Value::Int(4));
        assert!(src.partition(3).is_err());
    }

    #[test]
    fn empty_frame_yields_one_empty_partition() {
        let src = MemorySource::from_frame("t", &frame(0), 4, vec!["id".into()], None).unwrap();
        assert_eq!(src.meta().num_partitions(), 1);
        assert_eq!(src.meta().total_rows(), 0);
    }

    #[test]
    fn shuffle_reorders_and_drops_clustering() {
        let src = MemorySource::from_frame(
            "t",
            &frame(6),
            2,
            vec!["id".into()],
            Some(vec!["id".into()]),
        )
        .unwrap();
        let shuf = src.shuffled_partitions(&[2, 0, 1]).unwrap();
        assert!(shuf.meta().clustering_key.is_none());
        assert_eq!(
            shuf.partition(0).unwrap().value(0, "id").unwrap(),
            crate::value::Value::Int(4)
        );
        assert!(src.shuffled_partitions(&[0]).is_err());
        // Not permutations: an index out of range, a partition twice.
        let two = MemorySource::from_frame("t", &frame(4), 2, vec![], None).unwrap();
        for order in [[0, 5], [0, 0]] {
            assert!(two.shuffled_partitions(&order).is_err(), "{order:?}");
        }
    }

    /// The visit order is part of every seeded run (`tpch.wseg` reads its
    /// zones in it): these permutations are pinned bit for bit.
    #[test]
    fn shuffle_visits_the_pinned_splitmix64_fisher_yates_order() {
        let pinned: [(u64, &[usize]); 12] = [
            (0, &[0]),
            (0, &[0, 1]),
            (0, &[2, 5, 0, 3, 4, 6, 1, 7]),
            (
                0,
                &[
                    16, 2, 8, 11, 20, 0, 6, 18, 9, 22, 21, 15, 13, 14, 17, 3, 10, 5, 12, 23, 4, 1,
                    19, 7,
                ],
            ),
            (7, &[0]),
            (7, &[0, 1]),
            (7, &[1, 4, 5, 2, 6, 0, 3, 7]),
            (
                7,
                &[
                    4, 10, 2, 12, 9, 11, 19, 7, 20, 18, 22, 6, 8, 13, 5, 1, 23, 16, 21, 14, 3, 0,
                    17, 15,
                ],
            ),
            (42, &[0]),
            (42, &[0, 1]),
            (42, &[3, 1, 6, 2, 4, 0, 7, 5]),
            (
                42,
                &[
                    20, 8, 17, 0, 7, 18, 16, 23, 11, 6, 4, 12, 21, 15, 14, 5, 19, 1, 3, 10, 9, 22,
                    2, 13,
                ],
            ),
        ];
        for (seed, want) in pinned {
            let n = want.len();
            assert_eq!(shuffle((0..n).collect(), Some(seed)), want, "{seed} {n}");
            assert_eq!(shuffle((0..n).collect(), None), (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn csv_dir_source_reads_partitions() {
        let dir = std::env::temp_dir().join("wake_src_test");
        std::fs::create_dir_all(&dir).unwrap();
        let f = frame(3);
        let path = dir.join("p0.csv");
        crate::csv::write_csv_file(&f, &path).unwrap();
        let src = CsvDirSource::new(
            "t",
            f.schema().clone(),
            vec![path.clone()],
            vec![3],
            vec!["id".into()],
            None,
        )
        .unwrap();
        assert_eq!(src.partition(0).unwrap(), f);
        // No file: no partition for a view to visit.
        let none = CsvDirSource::new("t", f.schema().clone(), vec![], vec![], vec![], None);
        assert!(none.is_err());
        std::fs::remove_file(path).ok();
    }
}
