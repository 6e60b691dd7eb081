//! Layer probes: one kernel of one crate, run over every lineitem
//! partition, reported as a rate. They tell a later change whether the
//! kernel it touched moved, independently of any query's plan. Probes run
//! in the traced run only, each for 2 % of `--seconds` (one sweep at
//! least), so that a traced run is 40 % untraced passes, 40 % traced
//! passes and 18 % probes.

use crate::report::Metrics;
use crate::setup::{Fixture, Result, Sizing};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wake_data::hash::hash_keys;
use wake_data::partition::shard_selections;
use wake_data::{DataFrame, TableSource};
use wake_expr::{col, eval, eval_selection, lit_date, lit_f64};
use wake_serve::json::Obj;
use wake_store::colfile::{decode_all, encode_chunk, Chunk};
use wake_store::{write_segment, SegmentReader, SpillIo, StdIo};

/// Repeat `sweep` (which returns the units of work it did) until `time`
/// is over; units per second.
fn rate(time: Duration, mut sweep: impl FnMut() -> Result<u64>) -> Result<f64> {
    let started = Instant::now();
    let mut units = 0u64;
    loop {
        units += sweep()?;
        let elapsed = started.elapsed();
        if elapsed >= time {
            return Ok(units as f64 / elapsed.as_secs_f64());
        }
    }
}

/// Threads of this process, from `/proc/self/status` (0 where there is
/// no procfs).
pub fn thread_count() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

pub fn run_probes(
    fx: &Fixture,
    sizing: &Sizing,
    seconds: f64,
    dir: &Path,
    layers: &mut Metrics,
) -> Result<()> {
    let time = Duration::from_secs_f64(seconds * 0.02);
    let source = fx.data.source("lineitem", sizing.partitions);
    let parts: Vec<Arc<DataFrame>> = (0..source.meta().num_partitions())
        .map(|i| source.partition(i).map(Arc::new))
        .collect::<wake_data::Result<_>>()?;
    let rows: u64 = parts.iter().map(|p| p.num_rows() as u64).sum();

    // wake-data: key hashing and shard routing on the join key.
    let key = parts[0].key_indices(&["l_orderkey"])?;
    let hash_rate = rate(time, || {
        for p in &parts {
            black_box(hash_keys(black_box(p), &key));
        }
        Ok(rows)
    })?;
    layers.set("data.hash_keys_rows_per_s", hash_rate);
    let hashes: Vec<_> = parts.iter().map(|p| hash_keys(p, &key)).collect();
    let shard_rate = rate(time, || {
        for h in &hashes {
            black_box(shard_selections(black_box(h), 2));
        }
        Ok(rows)
    })?;
    layers.set("data.shard_select_rows_per_s", shard_rate);

    // wake-expr: Q1's charge expression and Q6's predicate.
    let charge = col("l_extendedprice")
        .mul(lit_f64(1.0).sub(col("l_discount")))
        .mul(lit_f64(1.0).add(col("l_tax")));
    let eval_rate = rate(time, || {
        for p in &parts {
            black_box(eval(&charge, black_box(p))?);
        }
        Ok(rows)
    })?;
    layers.set("expr.eval_rows_per_s", eval_rate);
    let q6 = col("l_shipdate")
        .ge(lit_date(1994, 1, 1))
        .and(col("l_shipdate").lt(lit_date(1995, 1, 1)))
        .and(col("l_discount").between(lit_f64(0.05), lit_f64(0.07)))
        .and(col("l_quantity").lt(lit_f64(24.0)));
    let select_rate = rate(time, || {
        for p in &parts {
            black_box(eval_selection(&q6, black_box(p))?);
        }
        Ok(rows)
    })?;
    layers.set("expr.select_rows_per_s", select_rate);

    // wake-store (spill): the chunk codec every evicted partition takes.
    let chunks: Vec<Chunk> = parts.iter().cloned().map(Chunk::frame_only).collect();
    let chunk_bytes: u64 = chunks.iter().map(|c| c.byte_size() as u64).sum();
    let mut encoded: Vec<Vec<u8>> = vec![Vec::new(); chunks.len()];
    let encode_rate = rate(time, || {
        for (chunk, out) in chunks.iter().zip(encoded.iter_mut()) {
            out.clear();
            encode_chunk(black_box(chunk), out)?;
        }
        Ok(chunk_bytes)
    })?;
    layers.set("store.chunk_encode_bytes_per_s", encode_rate);
    let decode_rate = rate(time, || {
        for bytes in &encoded {
            black_box(decode_all(black_box(bytes))?);
        }
        Ok(chunk_bytes)
    })?;
    layers.set("store.chunk_decode_bytes_per_s", decode_rate);

    // wake-store (segment): read + checksum + decompress of every zone.
    let io: Arc<dyn SpillIo> = Arc::new(StdIo);
    let path = dir.join("probe-lineitem.wseg");
    let (pk, ck) = wake_tpch::schema::keys("lineitem");
    let zone_rows = parts[0].num_rows().max(1);
    write_segment(
        "lineitem",
        &fx.data.lineitem,
        zone_rows,
        &pk,
        ck.as_deref(),
        &path,
        io.as_ref(),
    )?;
    let reader = SegmentReader::open(&path, io)?;
    let zone_rate = rate(time, || {
        let mut bytes = 0u64;
        for z in 0..reader.zone_count() {
            bytes += black_box(reader.read_zone(z)?).byte_size() as u64;
        }
        Ok(bytes)
    })?;
    layers.set("store.read_zone_bytes_per_s", zone_rate);
    drop(reader);
    std::fs::remove_file(&path)?;

    // wake-serve: building one estimate line, field for field what the
    // server sends.
    let line_rate = rate(time, || {
        for i in 0..1000u64 {
            let line = Obj::new()
                .str("type", "estimate")
                .u64("id", i)
                .u64("seq", i)
                .f64("t", 0.5)
                .bool("is_final", false)
                .u64("rows", 4)
                .u64("rows_processed", i * 1000)
                .f64("elapsed_ms", 12.375)
                .u64("spill_bytes", 0)
                .u64("scan_bytes", 0)
                .bool("degraded", false)
                .f64("value", 1234567.890625)
                .build();
            black_box(line);
        }
        Ok(1000)
    })?;
    layers.set("serve.json_lines_per_s", line_rate);
    Ok(())
}
