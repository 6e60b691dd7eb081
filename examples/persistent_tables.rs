//! Persistent columnar tables end to end: write a DataFrame to disk as a
//! compressed multi-zone segment, run a selective query over it, and
//! watch zone-map pruning skip most of the I/O while the estimates stream
//! in with valid confidence intervals.
//!
//! The table is clustered by `day` (rows arrive in day order), so each
//! zone's footer carries a tight day min/max — a one-month filter over
//! two years of data disqualifies ~95 % of the zones before a byte of
//! them is decoded. Pruning feeds the retained population into the
//! growth model, so progress and CIs range over the *surviving* rows and
//! the stream still converges to the exact answer.
//!
//! ```sh
//! cargo run --release --example persistent_tables
//! # keep the segment under the deployment's table root:
//! WAKE_TABLE_DIR=/var/lib/wake cargo run --release --example persistent_tables
//! ```

use std::sync::Arc;
use wake::data::value::date_to_days;
use wake::expr::lit_date;
use wake::prelude::*;

fn main() {
    // Two years of day-ordered sensor readings: `day` is the clustering
    // column, `reading` is scattered (representative within every zone).
    let n = 400_000usize;
    let start = date_to_days(2024, 1, 1);
    let mix = |i: usize| {
        let mut z = (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
        z ^= z >> 29;
        z = z.wrapping_mul(0xbf58476d1ce4e5b9);
        z ^ (z >> 32)
    };
    let schema = Arc::new(Schema::new(vec![
        Field::new("day", DataType::Date),
        Field::new("sensor", DataType::Int64),
        Field::new("reading", DataType::Float64),
    ]));
    let frame = DataFrame::new(
        schema,
        vec![
            Column::from_dates(
                (0..n)
                    .map(|i| start + (i as i64 * 730) / n as i64)
                    .collect(),
            ),
            Column::from_i64((0..n).map(|i| (mix(i) % 32) as i64).collect()),
            Column::from_f64((0..n).map(|i| (mix(i) % 10_000) as f64 * 0.01).collect()),
        ],
    )
    .unwrap();

    // The table root is a deployment setting (`WAKE_TABLE_DIR`); without
    // one the example makes do with a scratch directory.
    let mut session = Session::new();
    let dir = session.engine_config().table_dir().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("wake-example-tables-{}", std::process::id()))
    });
    session.configure(|c| c.with_table_dir(&dir).with_zone_rows(8_192));

    // Persist once, reopen by name — the on-disk segment is the table now.
    session
        .persist_table(
            "readings",
            &frame,
            vec!["day".to_string()],
            Some(vec!["day".to_string()]),
        )
        .expect("persist segment table");
    let readings = session.open_table("readings").expect("open segment table");
    println!(
        "persisted {n} rows as {:?} ({} zones of 8192 rows)\n",
        dir.join("readings.wseg"),
        n.div_ceil(8_192)
    );

    // One month out of 24: the day min/max in each zone's footer rules
    // out every zone outside June 2024 without decoding it.
    let june = readings
        .filter(
            col("day")
                .ge(lit_date(2024, 6, 1))
                .and(col("day").lt(lit_date(2024, 7, 1))),
        )
        .agg_ci(&[], vec![AggSpec::avg(col("reading"), "avg_reading")]);

    println!("avg(reading) over June 2024, streaming with 95% Chebyshev intervals:\n");
    println!("progress      rows     estimate     ± half-width");
    let mut stream = june.stream().expect("valid query graph");
    let mut last = None;
    for estimate in &mut stream {
        let estimate = estimate.expect("query step");
        if estimate.frame.num_rows() == 0 {
            continue;
        }
        let ci = estimate
            .interval_at(0, "avg_reading", 0.95)
            .expect("CI-enabled aggregate");
        println!(
            "  {:>5.1}%  {:>8}   {:>9.3}    ± {:>7.3}",
            estimate.t * 100.0,
            estimate.rows_processed,
            ci.estimate,
            ci.half_width(),
        );
        last = Some(estimate);
    }
    let last = last.expect("at least one estimate");
    assert!(last.is_final);

    // The scan telemetry: how much I/O projection and the zone maps saved.
    let stats = stream.stats();
    println!(
        "\nscan telemetry: {} of {} columns read, {} of {} zones pruned, {} scanned;",
        stats.scan.columns_read,
        stats.scan.columns_total,
        stats.scan.zones_pruned,
        stats.scan.zones_total,
        stats.scan.zones_scanned
    );
    println!(
        "  {} compressed bytes read, {} decoded, decode time {:.2} ms.",
        stats.scan.compressed_bytes,
        stats.scan.decompressed_bytes,
        stats.scan.decode_nanos as f64 / 1e6
    );
    println!(
        "final answer: avg(reading) = {:.3} over {} matching-month rows.",
        last.frame
            .value(0, "avg_reading")
            .unwrap()
            .as_f64()
            .unwrap(),
        last.rows_processed
    );

    // Remove what this example wrote; the directory only if that leaves
    // it empty (it may be a table root with other tenants).
    std::fs::remove_file(dir.join("readings.wseg")).ok();
    std::fs::remove_dir(&dir).ok();
}
