//! End-to-end through the CSV path: write a generated table to partitioned
//! CSV files on disk, read it back through `CsvDirSource` (the paper's
//! "list of file names + per-file tuple counts" metadata, §4.4), and get
//! the same OLA results as the in-memory source.

use std::sync::Arc;
use wake::core::agg::AggSpec;
use wake::core::graph::QueryGraph;
use wake::data::csv::write_csv_file;
use wake::data::source::CsvDirSource;
use wake::data::TableSource;
use wake::engine::EngineConfig;
use wake::expr::{col, lit_date};
use wake::tpch::TpchData;
use wake_engine::SeriesExt;

#[test]
fn csv_backed_query_matches_memory_backed() {
    let data = TpchData::generate(0.001, 42);
    let dir = std::env::temp_dir().join(format!("wake_csv_pipeline_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Partition lineitem into 4 CSV files.
    let li = &data.lineitem;
    let per = li.num_rows().div_ceil(4);
    let mut files = Vec::new();
    let mut rows = Vec::new();
    for (p, start) in (0..li.num_rows()).step_by(per).enumerate() {
        let end = (start + per).min(li.num_rows());
        let idx: Vec<usize> = (start..end).collect();
        let chunk = li.take(&idx);
        let path = dir.join(format!("lineitem-{p:02}.csv"));
        write_csv_file(&chunk, &path).unwrap();
        files.push(path);
        rows.push(chunk.num_rows());
    }
    let csv_src = CsvDirSource::new(
        "lineitem",
        li.schema().clone(),
        files.clone(),
        rows,
        vec!["l_orderkey".into(), "l_linenumber".into()],
        Some(vec!["l_orderkey".into()]),
    )
    .unwrap();
    assert_eq!(csv_src.meta().total_rows(), li.num_rows());

    let build = |g: &mut QueryGraph, read_node| {
        let f = g.filter(read_node, col("l_shipdate").ge(lit_date(1994, 1, 1)));
        let a = g.agg(
            f,
            vec!["l_returnflag"],
            vec![
                AggSpec::sum(col("l_quantity"), "s"),
                AggSpec::count_star("n"),
            ],
        );
        g.sink(a);
    };

    let mut g_csv = QueryGraph::new();
    let r = g_csv.read(csv_src);
    build(&mut g_csv, r);
    let csv_series = EngineConfig::stepped()
        .start(g_csv)
        .unwrap()
        .collect_series()
        .unwrap();

    let mem_src = data.source("lineitem", 4);
    let mut g_mem = QueryGraph::new();
    let r = g_mem.read(mem_src);
    build(&mut g_mem, r);
    let mem_series = EngineConfig::stepped()
        .start(g_mem)
        .unwrap()
        .collect_series()
        .unwrap();

    // Same number of estimates and identical final state.
    assert_eq!(csv_series.len(), mem_series.len());
    assert_eq!(
        csv_series.final_frame().as_ref(),
        mem_series.final_frame().as_ref()
    );
    // And intermediate estimates agree too (deterministic read order).
    for (a, b) in csv_series.iter().zip(mem_series.iter()) {
        assert_eq!(a.frame.as_ref(), b.frame.as_ref());
    }

    let _ = Arc::strong_count(csv_series.final_frame());
    std::fs::remove_dir_all(&dir).ok();
}
