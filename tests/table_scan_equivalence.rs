//! Persisted segment tables must be a *transparent* swap for in-memory
//! sources: all 22 TPC-H queries over unpruned on-disk tables reproduce
//! the in-memory estimate stream bit for bit (same partitioning, same
//! zone order, same frames); zone pruning may only skip I/O, never change
//! answers; and under pruning + seeded zone reordering the growth model's
//! population accounting must keep estimates unbiased and confidence
//! intervals valid (no false convergence — including the all-zones-pruned
//! query, which must end on the exact empty answer). Projection pushdown
//! (always on through `EngineConfig`) may only skip columns no operator
//! reads: the stream stays bit-identical, the decoded bytes go down. An
//! in-memory scan takes the same view — narrowed, and shuffled in the
//! same order when seeded — so memory and disk stay bit-identical through
//! the engine. The threaded driver reads the same views as the stepped
//! one.

use std::path::PathBuf;
use std::sync::Arc;
use wake::core::graph::{NodeKind, Parallelism, QueryGraph};
use wake::core::metrics;
use wake::core::plan::{node_seed, view_scans};
use wake::data::{DataFrame, ScanMetrics, ScanRequest, TableMeta, TableSource};
use wake::engine::EngineConfig;
use wake::store::segment::frames_bit_identical;
use wake::tpch::{all_queries, QuerySpec, TpchData, TpchDb};
use wake_engine::{EstimateSeries, SeriesExt};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wake-scan-equiv-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A scan the planner cannot rewrite: it reads and counts through
/// `inner` but declines every view, so the planner pass is an identity
/// on it — the full-width, stored-order reference.
struct FullScan(Arc<dyn TableSource>);

impl TableSource for FullScan {
    fn meta(&self) -> &TableMeta {
        self.0.meta()
    }

    fn partition(&self, i: usize) -> Result<DataFrame, wake::data::DataError> {
        self.0.partition(i)
    }

    fn view(&self, _: &ScanRequest) -> Option<Arc<dyn TableSource>> {
        None
    }

    fn scan_metrics(&self) -> Option<ScanMetrics> {
        self.0.scan_metrics()
    }
}

/// `graph` with every `Read` behind a [`FullScan`].
fn full_scan(mut graph: QueryGraph) -> QueryGraph {
    for id in graph.sources() {
        let NodeKind::Read { source } = &graph.node(id).kind else {
            unreachable!("sources() lists reads")
        };
        let inner = source.clone();
        graph.replace_source(id, Arc::new(FullScan(inner)));
    }
    graph
}

/// `graph` with every `Read` on the view the planner asks for under
/// scan seed `seed` with pruning off and every column kept: the shuffle
/// alone.
fn shuffled(mut graph: QueryGraph, seed: u64) -> QueryGraph {
    for id in graph.sources() {
        let NodeKind::Read { source } = &graph.node(id).kind else {
            unreachable!("sources() lists reads")
        };
        let request = ScanRequest::full(source.meta(), Some(node_seed(seed, id)));
        let view = source.view(&request).expect("every source shuffles");
        graph.replace_source(id, view);
    }
    graph
}

/// The whole estimate stream — frames (to the float bit), progress,
/// sequence numbers, finality — must match.
fn assert_streams_bit_identical(name: &str, a: &EstimateSeries, b: &EstimateSeries) {
    assert_eq!(a.len(), b.len(), "{name}: estimate counts differ");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.t, y.t, "{name}: progress diverged");
        assert_eq!(x.seq, y.seq, "{name}");
        assert_eq!(x.rows_processed, y.rows_processed, "{name}");
        assert_eq!(x.is_final, y.is_final, "{name}");
        assert!(
            frames_bit_identical(&x.frame, &y.frame),
            "{name}: estimate {} not bit-identical\nleft:\n{}\nright:\n{}",
            x.seq,
            x.frame.pretty(8),
            y.frame.pretty(8)
        );
    }
}

#[test]
fn all_queries_persisted_unpruned_bit_identical() {
    let data = Arc::new(TpchData::generate(0.002, 42));
    let mem = TpchDb::new(data.clone(), 8);
    let dir = scratch_dir("unpruned");
    let disk = TpchDb::persisted(data, 8, &dir).unwrap();
    for spec in all_queries() {
        // Behind `FullScan` no planner pass applies: the on-disk scan
        // visits every zone in file order, so the entire estimate stream
        // must match the in-memory run exactly.
        let a = EngineConfig::stepped()
            .start(full_scan((spec.build)(&mem)))
            .unwrap()
            .collect_series()
            .unwrap();
        let b = EngineConfig::stepped()
            .start(full_scan((spec.build)(&disk)))
            .unwrap()
            .collect_series()
            .unwrap();
        assert_streams_bit_identical(spec.name, &a, &b);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_queries_persisted_projected_bit_identical() {
    let data = Arc::new(TpchData::generate(0.002, 42));
    let mem = TpchDb::new(data.clone(), 8);
    let dir = scratch_dir("projected");
    let disk = TpchDb::persisted(data, 8, &dir).unwrap();
    for spec in all_queries() {
        // In memory, no view at all; then in memory and on disk through
        // the engine config with pruning off and no seed, so each view
        // only narrows. Each scan then copies or decodes only the columns
        // the plan reads — and the estimate stream must not notice.
        let a = EngineConfig::stepped()
            .start(full_scan((spec.build)(&mem)))
            .unwrap()
            .collect_series()
            .unwrap();
        let narrowed = |db: &TpchDb| {
            EngineConfig::stepped()
                .with_zone_pruning(false)
                .start((spec.build)(db))
                .unwrap()
                .collect_with_stats()
                .unwrap()
        };
        let (m, mem_stats) = narrowed(&mem);
        assert_streams_bit_identical(spec.name, &a, &m);
        assert_eq!(mem_stats.scan, ScanMetrics::default(), "{}", spec.name);
        let (b, stats) = narrowed(&disk);
        assert_streams_bit_identical(spec.name, &a, &b);
        // No TPC-H query reads every column of every table it scans.
        let scan = stats.scan;
        assert!(
            scan.columns_read < scan.columns_total,
            "{}: read {} of {} columns",
            spec.name,
            scan.columns_read,
            scan.columns_total
        );
        assert_eq!(scan.zones_pruned, 0, "{}", spec.name);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_queries_seeded_memory_and_persisted_bit_identical() {
    let data = Arc::new(TpchData::generate(0.002, 42));
    let mem = TpchDb::new(data.clone(), 8);
    let dir = scratch_dir("seeded");
    let disk = TpchDb::persisted(data, 8, &dir).unwrap();
    let seeded = |db: &TpchDb, spec: &QuerySpec| {
        EngineConfig::stepped()
            .with_scan_seed(7)
            .with_zone_pruning(false)
            .start((spec.build)(db))
            .unwrap()
            .collect_series()
            .unwrap()
    };
    for spec in all_queries() {
        // One seed, one visit order: an in-memory scan reads its
        // partitions in the order the segment reads its zones.
        let (a, b) = (seeded(&mem, &spec), seeded(&disk, &spec));
        assert_streams_bit_identical(spec.name, &a, &b);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn projection_cuts_decoded_bytes_and_nothing_else() {
    let data = Arc::new(TpchData::generate(0.002, 42));
    let dir = scratch_dir("projected-bytes");
    let disk = TpchDb::persisted(data, 8, &dir).unwrap();
    let (mut narrow_bytes, mut full_bytes) = (0, 0);
    for spec in all_queries() {
        // Seeded reordering gives every scan of both runs a view of its
        // own, so the run's counters are its own; the second run asks
        // for the shuffled full-width views by hand, then `FullScan`
        // makes the planner pass an identity.
        let (narrow, narrow_stats) = EngineConfig::stepped()
            .with_zone_pruning(false)
            .with_scan_seed(7)
            .start((spec.build)(&disk))
            .unwrap()
            .collect_with_stats()
            .unwrap();
        let g = shuffled((spec.build)(&disk), 7);
        let (full, full_stats) = EngineConfig::stepped()
            .start(full_scan(g))
            .unwrap()
            .collect_with_stats()
            .unwrap();
        assert_streams_bit_identical(spec.name, &full, &narrow);
        let (n, f) = (narrow_stats.scan, full_stats.scan);
        assert_eq!(
            (
                n.zones_total,
                n.zones_pruned,
                n.zones_scanned,
                n.columns_total
            ),
            (
                f.zones_total,
                f.zones_pruned,
                f.zones_scanned,
                f.columns_total
            ),
            "{}",
            spec.name
        );
        assert_eq!(f.columns_read, f.columns_total, "{}", spec.name);
        assert!(n.columns_read < f.columns_read, "{}", spec.name);
        assert!(n.decompressed_bytes < f.decompressed_bytes, "{}", spec.name);
        assert!(n.compressed_bytes < f.compressed_bytes, "{}", spec.name);
        narrow_bytes += n.decompressed_bytes;
        full_bytes += f.decompressed_bytes;
    }
    assert!(
        2 * narrow_bytes <= full_bytes,
        "projection decoded {narrow_bytes} of {full_bytes} bytes over the suite"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scan_counters_are_the_querys_own_on_a_scan_no_pass_narrows() {
    let data = Arc::new(TpchData::generate(0.002, 42));
    let dir = scratch_dir("own-counters");
    let disk = TpchDb::persisted(data, 8, &dir).unwrap();
    // A sink on the read: observed in full, no predicate, no scan seed —
    // nothing to prune, reorder or narrow, and both runs start from the
    // one `Arc<SegmentSource>` the db shares. The second run must not
    // report the first run's zones and bytes on top of its own.
    let run = || {
        let mut g = QueryGraph::new();
        let orders = disk.read(&mut g, "orders");
        g.sink(orders);
        let stream = EngineConfig::stepped().start(g).unwrap();
        stream.collect_with_stats().unwrap().1.scan
    };
    let (first, second) = (run(), run());
    assert!(first.zones_total > 1 && first.decompressed_bytes > 0);
    for scan in [first, second] {
        assert_eq!(scan.zones_scanned, scan.zones_total);
        assert_eq!(scan.columns_read, scan.columns_total);
        assert_eq!(scan.decompressed_bytes, first.decompressed_bytes);
        assert_eq!(scan.compressed_bytes, first.compressed_bytes);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn projection_leaves_every_plan_resolving_to_the_same_sink() {
    let data = Arc::new(TpchData::generate(0.002, 42));
    let dir = scratch_dir("resolve");
    let disk = TpchDb::persisted(data, 8, &dir).unwrap();
    for spec in all_queries() {
        let mut g = (spec.build)(&disk);
        let sink = g.sink_id().unwrap().0;
        let before = g.resolve_metas().unwrap();
        // No seed, no pruning: the pass only narrows.
        let replaced = view_scans(&mut g, None, false);
        assert!(replaced > 0, "{}: nothing narrowed", spec.name);
        let after = g
            .resolve_metas()
            .unwrap_or_else(|e| panic!("{}: projected plan does not resolve: {e}", spec.name));
        assert_eq!(before[sink].schema, after[sink].schema, "{}", spec.name);
        assert_eq!(before[sink].primary_key, after[sink].primary_key);
        assert_eq!(before[sink].clustering_key, after[sink].clustering_key);
        assert_eq!(before[sink].kind, after[sink].kind, "{}", spec.name);
        // Every operator keeps its update kind and its clustering: the
        // only thing that narrows is what flows between them.
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.kind, a.kind, "{}", spec.name);
            assert!(a.schema.len() <= b.schema.len(), "{}", spec.name);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_queries_pruned_finals_match_in_memory() {
    let data = Arc::new(TpchData::generate(0.002, 11));
    let mem = TpchDb::new(data.clone(), 8);
    let dir = scratch_dir("pruned");
    let disk = TpchDb::persisted(data, 8, &dir).unwrap();
    for spec in all_queries() {
        let want = EngineConfig::stepped()
            .start((spec.build)(&mem))
            .unwrap()
            .collect_series()
            .unwrap();
        let want = want.final_frame();
        // Pruning enabled (the default): predicates are pushed into every
        // eligible scan, zones provably empty of matches are skipped. The
        // final answer must be unchanged.
        let got = EngineConfig::stepped()
            .with_zone_pruning(true)
            .start((spec.build)(&disk))
            .unwrap()
            .collect_series()
            .unwrap();
        assert_finals_match(&spec, want, got.final_frame());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `got`, a final over persisted tables, answers `spec` as `want`, the
/// in-memory final, does: the same rows, values within 1e-9 MAPE.
fn assert_finals_match(spec: &QuerySpec, want: &DataFrame, got: &DataFrame) {
    assert_eq!(
        want.num_rows(),
        got.num_rows(),
        "{}: row count {} (mem) vs {} (pruned disk)",
        spec.name,
        want.num_rows(),
        got.num_rows()
    );
    if want.num_rows() == 0 {
        return;
    }
    let report = metrics::compare(want, got, spec.keys, spec.values)
        .unwrap_or_else(|e| panic!("{}: compare failed: {e}", spec.name));
    assert!(
        report.recall > 0.999 && report.precision > 0.999,
        "{}: recall {} precision {}",
        spec.name,
        report.recall,
        report.precision
    );
    assert!(
        report.mape < 1e-9,
        "{}: pruned final MAPE {}\nmem:\n{}\ndisk:\n{}",
        spec.name,
        report.mape,
        want.pretty(12),
        got.pretty(12)
    );
}

#[test]
fn threaded_driver_reads_seeded_pruned_views() {
    let data = Arc::new(TpchData::generate(0.002, 11));
    let mem = TpchDb::new(data.clone(), 8);
    let dir = scratch_dir("threaded");
    let disk = TpchDb::persisted(data, 8, &dir).unwrap();
    let views = |config: EngineConfig| config.with_scan_seed(7).with_zone_pruning(true);
    for spec in all_queries() {
        let want = EngineConfig::stepped()
            .start((spec.build)(&mem))
            .unwrap()
            .collect_series()
            .unwrap();
        // The threaded driver on two shards reads every scan through the
        // same shuffled, pruned, narrowed view the stepped driver does.
        let (_, stepped) = views(EngineConfig::stepped())
            .start((spec.build)(&disk))
            .unwrap()
            .collect_with_stats()
            .unwrap();
        let (got, threaded) = views(EngineConfig::threaded())
            .with_parallelism(Parallelism::Fixed(2))
            .start((spec.build)(&disk))
            .unwrap()
            .collect_with_stats()
            .unwrap();
        assert_finals_match(&spec, want.final_frame(), got.final_frame());
        assert_eq!(
            (threaded.scan.zones_scanned, threaded.scan.zones_pruned),
            (stepped.scan.zones_scanned, stepped.scan.zones_pruned),
            "{}",
            spec.name
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_survivor_query_yields_exact_empty_not_false_convergence() {
    let data = Arc::new(TpchData::generate(0.002, 3));
    let dir = scratch_dir("zero-survivor");
    let disk = TpchDb::persisted(data, 8, &dir).unwrap();
    // No lineitem row has l_quantity > 1e9: every zone's max rules it out,
    // so the pushed-down scan prunes the whole table and presents a single
    // empty partition.
    let mut g = QueryGraph::new();
    let li = disk.read(&mut g, "lineitem");
    let f = g.filter(
        li,
        wake::expr::col("l_quantity").gt(wake::expr::lit_f64(1e9)),
    );
    let a = g.agg_with_ci(
        f,
        vec![],
        vec![wake::core::agg::AggSpec::sum(
            wake::expr::col("l_extendedprice"),
            "s",
        )],
    );
    g.sink(a);
    let (series, stats) = EngineConfig::stepped()
        .start(g)
        .unwrap()
        .collect_with_stats()
        .unwrap();
    let zones = disk
        .persisted_source("lineitem")
        .unwrap()
        .reader()
        .zone_count() as u64;
    assert!(zones >= 2, "need a multi-zone lineitem for this test");
    assert_eq!(stats.scan.zones_pruned, zones, "all zones must be pruned");
    assert_eq!(stats.scan.zones_scanned, 0, "nothing may be decoded");
    let last = series.last().unwrap();
    assert!(last.is_final);
    assert_eq!(last.t, 1.0);
    // The exact empty answer — not a scaled-up estimate from zero rows.
    assert_eq!(
        last.frame.num_rows(),
        0,
        "zero-survivor query must end empty, got:\n{}",
        last.frame.pretty(5)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pruned_reordered_scan_keeps_estimates_unbiased() {
    use wake::data::{Column, DataFrame, DataType, Field, Schema};
    // A table built for pruning: `z` is the zone index (perfectly
    // clustered — the filter column), `v` is hash-scattered (the measure
    // column, representative within every zone). 16 zones of 500 rows.
    let n = 8_000usize;
    let scatter = |i: usize| ((i as u64).wrapping_mul(2_654_435_761) % 1_000) as f64;
    let schema = Arc::new(Schema::new(vec![
        Field::new("z", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]));
    let frame = DataFrame::new(
        schema,
        vec![
            Column::from_i64((0..n).map(|i| (i / 500) as i64).collect()),
            Column::from_f64((0..n).map(scatter).collect()),
        ],
    )
    .unwrap();
    let dir = scratch_dir("unbiased");
    let path = dir.join("clustered.wseg");
    wake::store::write_segment(
        "clustered",
        &frame,
        500,
        &[],
        None,
        &path,
        &wake::store::StdIo,
    )
    .unwrap();
    let source = wake::store::SegmentSource::open(&path, Arc::new(wake::store::StdIo)).unwrap();

    // z >= 8 prunes the lower half of the zones exactly (each zone's z is
    // constant); the survivors are visited in seeded random order.
    let build = || {
        let mut g = QueryGraph::new();
        let src = wake::store::SegmentSource::from_reader(source.reader().clone()).unwrap();
        let r = g.read(src);
        let f = g.filter(r, wake::expr::col("z").ge(wake::expr::lit_i64(8)));
        let a = g.agg_with_ci(
            f,
            vec![],
            vec![wake::core::agg::AggSpec::avg(wake::expr::col("v"), "m")],
        );
        g.sink(a);
        g
    };
    let truth = (4000..8000).map(scatter).sum::<f64>() / 4000.0;
    for seed in [1u64, 42, 1234] {
        let (series, stats) = EngineConfig::stepped()
            .with_scan_seed(seed)
            .start(build())
            .unwrap()
            .collect_with_stats()
            .unwrap();
        assert_eq!(stats.scan.zones_total, 16);
        assert_eq!(stats.scan.zones_pruned, 8, "seed {seed}");
        assert_eq!(stats.scan.zones_scanned, 8, "seed {seed}");
        // One estimate per surviving zone; progress spans the *retained*
        // population, reaching exactly 1 at the end (the pruned rows are
        // excluded from the growth model's totals, keeping it unbiased).
        assert_eq!(series.len(), 8, "seed {seed}");
        let last = series.last().unwrap();
        assert_eq!(last.t, 1.0);
        assert_eq!(
            last.frame.value(0, "m").unwrap().as_f64().unwrap(),
            truth,
            "seed {seed}: final must be exact"
        );
        // Every intermediate 95% Chebyshev CI must cover the truth — the
        // §8.5 validity check under the shuffled, pruned read. A biased
        // population accounting would shift estimates systematically and
        // break coverage (and make `until_confidence` stop on a wrong
        // answer).
        let mut covered = 0usize;
        for est in &series {
            let interval = wake::core::ci::interval_at(&est.frame, 0, "m", 0.95).unwrap();
            if interval.contains(truth) {
                covered += 1;
            }
        }
        let coverage = covered as f64 / series.len() as f64;
        assert!(coverage >= 0.9, "seed {seed}: coverage {coverage}");
        // The declarative stopping rule ends on an estimate whose CI is
        // both tight and truthful — never a false trigger.
        let stopped = EngineConfig::stepped()
            .with_scan_seed(seed)
            .start(build())
            .unwrap()
            .until_confidence("m", 0.05)
            .last()
            .unwrap()
            .unwrap();
        let interval = wake::core::ci::interval_at(&stopped.frame, 0, "m", 0.95).unwrap();
        assert!(
            interval.contains(truth),
            "seed {seed}: until_confidence stopped outside the truth: {:?} vs {truth}",
            interval
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
