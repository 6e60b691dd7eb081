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
    /// Attributes determining physical row placement among partitions; rows
    /// with equal clustering-key values live in exactly one partition.
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

/// A readable sequence of partitions with known metadata.
pub trait TableSource: Send + Sync {
    fn meta(&self) -> &TableMeta;
    /// Materialise partition `i` (0-based, read order).
    fn partition(&self, i: usize) -> Result<DataFrame>;

    /// A view of this source restricted to partitions that may contain rows
    /// satisfying the conjunction, per zone-map statistics. Sources without
    /// statistics return `None` and the planner leaves them untouched. The
    /// returned source's `partition_rows` must cover only surviving zones so
    /// the progress ratio `t` ranges over the retained population.
    fn pruned(&self, _preds: &[crate::scan::ColPredicate]) -> Option<Arc<dyn TableSource>> {
        None
    }

    /// A view of this source visiting the same partitions in a seeded random
    /// order. Sources that cannot reorder cheaply return `None`.
    fn reordered(&self, _seed: u64) -> Option<Arc<dyn TableSource>> {
        None
    }

    /// A view of this source that returns only `columns` (names from
    /// `meta().schema`, in schema order): its `meta().schema` is narrowed
    /// to them, and a key survives only if every one of its columns does.
    /// Sources that cannot skip the cost of an unread column return `None`
    /// and the planner leaves them untouched.
    fn projected(&self, _columns: &[&str]) -> Option<Arc<dyn TableSource>> {
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

/// A source reading one binary columnar (WCF) file per partition — the
/// Parquet-partition stand-in (§8.1).
#[derive(Debug, Clone)]
pub struct ColFileDirSource {
    meta: TableMeta,
    files: Vec<PathBuf>,
}

impl ColFileDirSource {
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
        Ok(ColFileDirSource {
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

impl TableSource for ColFileDirSource {
    fn meta(&self) -> &TableMeta {
        &self.meta
    }

    fn partition(&self, i: usize) -> Result<DataFrame> {
        let path = self
            .files
            .get(i)
            .ok_or_else(|| DataError::ShapeMismatch(format!("partition {i} out of range")))?;
        let frame = crate::colfile::read_colfile_path(path)?;
        if frame.schema().fields() != self.meta.schema.fields() {
            return Err(DataError::Invalid(format!(
                "partition {i} schema {} does not match table schema {}",
                frame.schema(),
                self.meta.schema
            )));
        }
        Ok(frame)
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
    fn colfile_dir_source_reads_and_validates() {
        let dir = std::env::temp_dir().join("wake_wcf_src_test");
        std::fs::create_dir_all(&dir).unwrap();
        let f = frame(4);
        let path = dir.join("p0.wcf");
        crate::colfile::write_colfile_path(&f, &path).unwrap();
        let src = ColFileDirSource::new(
            "t",
            f.schema().clone(),
            vec![path.clone()],
            vec![4],
            vec!["id".into()],
            None,
        )
        .unwrap();
        assert_eq!(src.partition(0).unwrap(), f);
        // Schema mismatch is caught.
        let other = Arc::new(Schema::new(vec![Field::new("zzz", DataType::Int64)]));
        let bad =
            ColFileDirSource::new("t", other, vec![path.clone()], vec![4], vec![], None).unwrap();
        assert!(bad.partition(0).is_err());
        std::fs::remove_file(path).ok();
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
