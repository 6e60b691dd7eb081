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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanRequest {
    /// Visit the partitions in a seeded random order (`None`: read
    /// order). A shuffled view reports no clustering key.
    pub seed: Option<u64>,
    /// A conjunction the rows this query keeps satisfy: the view drops
    /// the partitions whose statistics refute it, and their rows from
    /// `partition_rows`, so the progress ratio `t` ranges over the
    /// retained population.
    pub predicates: Vec<ColPredicate>,
    /// The columns the view returns (names from `meta().schema`; the
    /// view keeps schema order). A key survives only if every one of
    /// its columns does.
    pub columns: Vec<String>,
}

impl ScanRequest {
    /// The clustering key a view for this request keeps of `key`:
    /// reading out of order invalidates it.
    pub fn clustering(&self, key: Option<Vec<String>>) -> Option<Vec<String>> {
        key.filter(|_| self.seed.is_none())
    }
}

/// A readable sequence of partitions with known metadata.
pub trait TableSource: Send + Sync {
    fn meta(&self) -> &TableMeta;
    /// Materialise partition `i` (0-based, read order).
    fn partition(&self, i: usize) -> Result<DataFrame>;

    /// The view this query reads the source through (see
    /// [`ScanRequest`]), with scan counters of its own. Sources that
    /// cannot shuffle, prune or narrow cheaply return `None` and the
    /// planner leaves them untouched; so does a source asked for no
    /// column or for one it does not have.
    fn view(&self, _request: &ScanRequest) -> Option<Arc<dyn TableSource>> {
        None
    }

    /// Scan-side I/O counters accumulated by this source, if it tracks any.
    fn scan_metrics(&self) -> Option<crate::scan::ScanMetrics> {
        None
    }
}

/// An in-memory source: pre-partitioned frames.
#[derive(Debug, Clone)]
pub struct MemorySource {
    meta: TableMeta,
    partitions: Vec<Arc<DataFrame>>,
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
        Ok(MemorySource {
            meta,
            partitions: partitions.into_iter().map(Arc::new).collect(),
        })
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
    pub fn shuffled_partitions(&self, order: &[usize]) -> Result<MemorySource> {
        if order.len() != self.partitions.len() {
            return Err(DataError::Invalid("shuffle order length mismatch".into()));
        }
        let partitions: Vec<Arc<DataFrame>> =
            order.iter().map(|&i| self.partitions[i].clone()).collect();
        let mut meta = self.meta.clone();
        meta.partition_rows = partitions.iter().map(|p| p.num_rows()).collect();
        // Reading out of clustering order invalidates the clustering key.
        meta.clustering_key = None;
        Ok(MemorySource { meta, partitions })
    }
}

impl TableSource for MemorySource {
    fn meta(&self) -> &TableMeta {
        &self.meta
    }

    fn partition(&self, i: usize) -> Result<DataFrame> {
        self.partitions
            .get(i)
            .map(|p| p.as_ref().clone())
            .ok_or_else(|| DataError::ShapeMismatch(format!("partition {i} out of range")))
    }
}

/// A source reading one CSV file per partition.
#[derive(Debug, Clone)]
pub struct CsvDirSource {
    meta: TableMeta,
    files: Vec<PathBuf>,
}

impl CsvDirSource {
    /// Build from an explicit file list with known per-file row counts.
    pub fn new(
        name: impl Into<String>,
        schema: Arc<Schema>,
        files: Vec<PathBuf>,
        partition_rows: Vec<usize>,
        primary_key: Vec<String>,
        clustering_key: Option<Vec<String>>,
    ) -> Result<Self> {
        if files.len() != partition_rows.len() {
            return Err(DataError::Invalid("files and row counts must align".into()));
        }
        Ok(CsvDirSource {
            meta: TableMeta {
                name: name.into(),
                schema,
                primary_key,
                clustering_key,
                partition_rows,
            },
            files,
        })
    }
}

impl TableSource for CsvDirSource {
    fn meta(&self) -> &TableMeta {
        &self.meta
    }

    fn partition(&self, i: usize) -> Result<DataFrame> {
        let path = self
            .files
            .get(i)
            .ok_or_else(|| DataError::ShapeMismatch(format!("partition {i} out of range")))?;
        read_csv_file(self.meta.schema.clone(), path)
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
        std::fs::remove_file(path).ok();
    }
}
