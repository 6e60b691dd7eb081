//! Property tests for the segment table format: arbitrary frames (every
//! column type, nulls, NaN/±0/∞, unicode, empty tables, every zone size)
//! must round-trip bit-exactly through `write_segment` → zone reads, and
//! hostile bytes — torn tails, bit flips, attacker-controlled length
//! fields — must fail with a typed error, never a panic, a giant
//! allocation, or a silently wrong frame. The same file, read through the
//! PR 6 fault injector, must ride the retry ladder: transient device
//! faults stay invisible, persistent ones surface as
//! `DataError::SpillUnavailable`. Zones are column-addressable: a read of
//! a column subset must equal the projection of the full read, and must
//! neither return nor verify a column outside its set.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use wake_data::{
    Column, DataError, DataFrame, DataType, Field, Schema, TableSource, Value, ZoneStats,
};
use wake_store::colfile::checksum64;
use wake_store::segment::frames_bit_identical;
use wake_store::{
    write_segment, FaultIo, FaultSchedule, SegmentReader, SegmentSource, StdIo, TornWrite,
};

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wake-segment-proptest-{}-{tag}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build a frame of `n` rows over all five dtypes from a seeded cell
/// stream: ints with nulls, floats with NaN/−0/∞, unicode strings with
/// nulls, bools, dates.
fn build_frame(n: usize, seed: u64) -> DataFrame {
    let mix = |i: u64| {
        let mut z = seed.wrapping_add(i).wrapping_mul(0x9e3779b97f4a7c15);
        z ^= z >> 29;
        z = z.wrapping_mul(0xbf58476d1ce4e5b9);
        z ^ (z >> 32)
    };
    let ints: Vec<Value> = (0..n as u64)
        .map(|i| {
            if mix(i) % 5 == 0 {
                Value::Null
            } else {
                // Low-cardinality half the time so FOR/RLE paths engage.
                Value::Int(if seed.is_multiple_of(2) {
                    (mix(i) % 7) as i64 - 3
                } else {
                    mix(i) as i64
                })
            }
        })
        .collect();
    let floats: Vec<f64> = (0..n as u64)
        .map(|i| match mix(i) % 7 {
            0 => -0.0,
            1 => f64::NAN,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            _ => (mix(i) as i64) as f64 * 0.001,
        })
        .collect();
    let bools: Vec<bool> = (0..n as u64).map(|i| mix(i) % 3 == 0).collect();
    let strs: Vec<Value> = (0..n as u64)
        .map(|i| {
            if mix(i) % 4 == 0 {
                Value::Null
            } else {
                let len = (mix(i) % 9) as usize;
                // Repetitive pools exercise the dictionary codec.
                let s: String = "αβ✓x".chars().cycle().take(len).collect();
                Value::str(&s)
            }
        })
        .collect();
    let dates: Vec<i64> = (0..n as u64).map(|i| mix(i) as i64 % 40_000).collect();
    let schema = Arc::new(Schema::new(vec![
        Field::new("i", DataType::Int64),
        Field::mutable("f", DataType::Float64),
        Field::new("b", DataType::Bool),
        Field::new("s", DataType::Utf8),
        Field::new("d", DataType::Date),
    ]));
    DataFrame::new(
        schema,
        vec![
            Column::from_values(DataType::Int64, &ints).unwrap(),
            Column::from_f64(floats),
            Column::from_bool(bools),
            Column::from_values(DataType::Utf8, &strs).unwrap(),
            Column::from_dates(dates),
        ],
    )
    .unwrap()
}

/// Human-readable first point of divergence between two frames (column,
/// row, payload/validity) — `pretty` hides NaN payloads and null masks.
fn first_divergence(a: &DataFrame, b: &DataFrame) -> String {
    if a.schema() != b.schema() {
        return "schemas differ".to_string();
    }
    for (ci, (ca, cb)) in a.columns().iter().zip(b.columns()).enumerate() {
        let name = &a.schema().fields()[ci].name;
        if ca.validity() != cb.validity() {
            return format!(
                "column {name}: validity {:?} vs {:?}",
                ca.validity().map(|v| v.len()),
                cb.validity().map(|v| v.len())
            );
        }
        for r in 0..ca.len().max(cb.len()) {
            let (va, vb) = (ca.value(r), cb.value(r));
            let bits = |v: &Value| match v {
                Value::Float(f) => Some(f.to_bits()),
                _ => None,
            };
            if va != vb || bits(&va) != bits(&vb) {
                return format!("column {name} row {r}: {va:?} vs {vb:?}");
            }
        }
    }
    "no divergence found at the Value level (payload bytes differ)".to_string()
}

/// Zone statistics the way the format first computed them — cell by cell
/// through `Value` and its total order. The footer's typed computation
/// must agree with this exactly.
fn reference_stats(col: &Column) -> ZoneStats {
    let mut stats = ZoneStats {
        min: Value::Null,
        max: Value::Null,
        null_count: col.null_count(),
        row_count: col.len(),
        has_nan: false,
    };
    for i in 0..col.len() {
        if !col.is_valid(i) {
            continue;
        }
        let v = col.value(i);
        if matches!(v, Value::Float(f) if f.is_nan()) {
            stats.has_nan = true;
            continue;
        }
        if stats.min.is_null() || v < stats.min {
            stats.min = v.clone();
        }
        if stats.max.is_null() || v > stats.max {
            stats.max = v;
        }
    }
    stats
}

/// `Value` equality is numeric; a bound must also keep its bits (−0 ≠ +0).
fn same_bound(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b && a.data_type() == b.data_type(),
    }
}

/// The columns of `build_frame`'s schema picked by the low five bits of
/// `mask`, in schema order.
fn pick_columns(mask: usize) -> Vec<&'static str> {
    ["i", "f", "b", "s", "d"]
        .into_iter()
        .enumerate()
        .filter(|(bit, _)| mask >> bit & 1 == 1)
        .map(|(_, name)| name)
        .collect()
}

fn write_to(
    dir: &std::path::Path,
    tag: &str,
    frame: &DataFrame,
    zone_rows: usize,
) -> std::path::PathBuf {
    let path = dir.join(format!("{tag}.wseg"));
    write_segment(
        "t",
        frame,
        zone_rows,
        &["i".to_string()],
        None,
        &path,
        &StdIo,
    )
    .unwrap();
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn segment_roundtrips_for_arbitrary_frames(
        n in 0usize..120,
        zone_rows in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let frame = build_frame(n, seed);
        let dir = scratch("roundtrip");
        let path = dir.join(format!("rt-{n}-{zone_rows}-{seed}.wseg"));
        write_segment("t", &frame, zone_rows, &["i".to_string()], None, &path, &StdIo).unwrap();
        let reader = SegmentReader::open(&path, Arc::new(StdIo)).unwrap();
        prop_assert_eq!(reader.footer().total_rows, n);
        prop_assert_eq!(reader.zone_count(), n.div_ceil(zone_rows));
        // Zone by zone: every decoded frame must be bit-identical to the
        // corresponding row slice of the original (NaN payloads, −0 sign
        // bits, and null masks included).
        for (z, start) in (0..n).step_by(zone_rows).enumerate() {
            let idx: Vec<usize> = (start..(start + zone_rows).min(n)).collect();
            let want = frame.take(&idx);
            let got = reader.read_zone(z).unwrap();
            prop_assert!(
                frames_bit_identical(&want, &got),
                "zone {z} not bit-identical: {}",
                first_divergence(&want, &got)
            );
            // The footer's statistics are the cell-by-cell ones.
            for (field, col) in want.schema().fields().iter().zip(want.columns()) {
                let stats = reader.zone_stats(z, &field.name).unwrap();
                let reference = reference_stats(col);
                prop_assert!(
                    same_bound(&stats.min, &reference.min)
                        && same_bound(&stats.max, &reference.max)
                        && (stats.null_count, stats.row_count, stats.has_nan)
                            == (reference.null_count, reference.row_count, reference.has_nan),
                    "zone {z} column {}: {stats:?} vs reference {reference:?}",
                    field.name
                );
            }
        }
        // The TableSource view agrees partition-for-partition, and an
        // empty table presents exactly one empty partition (the growth
        // model's exact-empty contract).
        let source = SegmentSource::from_reader(reader.clone()).unwrap();
        if n == 0 {
            prop_assert_eq!(source.meta().partition_rows.as_slice(), &[0usize][..]);
            prop_assert_eq!(source.partition(0).unwrap().num_rows(), 0);
        } else {
            for (p, start) in (0..n).step_by(zone_rows).enumerate() {
                let idx: Vec<usize> = (start..(start + zone_rows).min(n)).collect();
                prop_assert!(frames_bit_identical(&frame.take(&idx), &source.partition(p).unwrap()));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn projected_reads_equal_the_projection_of_full_reads(
        n in 1usize..120,
        zone_rows in 1usize..40,
        mask in 1usize..32,
        seed in 0u64..1_000_000,
    ) {
        let frame = build_frame(n, seed);
        let dir = scratch("projected");
        let path = write_to(&dir, &format!("pj-{n}-{zone_rows}-{mask}-{seed}"), &frame, zone_rows);
        let reader = SegmentReader::open(&path, Arc::new(StdIo)).unwrap();
        let cols = pick_columns(mask);
        let set = reader.column_set(&cols).unwrap();
        let source = SegmentSource::from_reader(reader.clone()).unwrap();
        let view = source.projected(&cols).unwrap();
        prop_assert_eq!(view.meta().schema.names(), cols.clone());
        for z in 0..reader.zone_count() {
            let want = reader.read_zone(z).unwrap().project(&cols).unwrap();
            let got = reader.read_columns(z, &set).unwrap();
            prop_assert!(
                frames_bit_identical(&want, &got),
                "zone {z} columns {cols:?}: {}",
                first_divergence(&want, &got)
            );
            prop_assert!(frames_bit_identical(&want, &view.partition(z).unwrap()));
        }
        // The view counted what it fetched: exactly its columns' blocks.
        let fetched: u64 = reader
            .footer()
            .zones
            .iter()
            .flat_map(|zone| zone.columns.iter().zip(reader.footer().schema.fields()))
            .filter(|(_, field)| cols.contains(&field.name.as_str()))
            .map(|(zc, _)| zc.comp_len)
            .sum();
        let metrics = view.scan_metrics().unwrap();
        prop_assert_eq!(metrics.compressed_bytes, fetched);
        prop_assert_eq!((metrics.columns_read, metrics.columns_total), (cols.len() as u64, 5));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_bit_flip_fails_exactly_the_reads_that_touch_its_column(
        n in 1usize..80,
        zone_rows in 1usize..24,
        seed in 0u64..1_000_000,
    ) {
        let frame = build_frame(n, seed);
        let dir = scratch("colflip");
        let path = write_to(&dir, &format!("cf-{n}-{zone_rows}-{seed}"), &frame, zone_rows);
        let clean = SegmentReader::open(&path, Arc::new(StdIo)).unwrap();
        // One bit, inside one column block of one zone.
        let z = seed as usize % clean.zone_count();
        let hit = (seed / 7) as usize % 5;
        let block = &clean.footer().zones[z].columns[hit];
        let at = block.offset + (seed / 35) % block.comp_len;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[at as usize] ^= 1 << (seed % 8);
        let bad = dir.join(format!("cf-bad-{n}-{zone_rows}-{seed}.wseg"));
        std::fs::write(&bad, &bytes).unwrap();
        let reader = SegmentReader::open(&bad, Arc::new(StdIo)).unwrap();
        let names = pick_columns(31);
        for mask in 1usize..32 {
            let set = reader.column_set(&pick_columns(mask)).unwrap();
            let read = reader.read_columns(z, &set);
            if mask >> hit & 1 == 1 {
                let err = read.expect_err("a read of the flipped column must fail");
                prop_assert!(matches!(err, DataError::Parse(_)), "{err:?}");
                prop_assert!(err.to_string().contains(names[hit]), "{err}");
            } else {
                // Untouched columns come back, and come back right.
                let want = clean.read_columns(z, &set).unwrap();
                prop_assert!(frames_bit_identical(&want, &read.unwrap()));
            }
        }
        prop_assert!(reader.read_zone(z).is_err(), "read_zone verifies every column");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn truncation_never_yields_a_wrong_table(
        n in 1usize..60,
        zone_rows in 1usize..16,
        cut in 1usize..512,
        seed in 0u64..100_000,
    ) {
        let frame = build_frame(n, seed);
        let dir = scratch("trunc");
        let path = write_to(&dir, &format!("tr-{n}-{zone_rows}-{cut}-{seed}"), &frame, zone_rows);
        let bytes = std::fs::read(&path).unwrap();
        // Torn write: any strict prefix loses (part of) the tail, so the
        // file must fail to open — typed, never a partial table.
        let keep = bytes.len() - cut.min(bytes.len() - 1).max(1);
        let torn = dir.join("torn-prefix.wseg");
        std::fs::write(&torn, &bytes[..keep]).unwrap();
        prop_assert!(SegmentReader::open(&torn, Arc::new(StdIo)).is_err());
        // Single-bit corruption anywhere — zone block, footer, tail —
        // must surface as an error at open or on some zone read.
        let pos = (seed as usize) % bytes.len();
        let mut flipped = bytes.clone();
        flipped[pos] ^= 1 << (seed % 8) as u8;
        let bad = dir.join("bitflip.wseg");
        std::fs::write(&bad, &flipped).unwrap();
        let detected = match SegmentReader::open(&bad, Arc::new(StdIo)) {
            Err(_) => true,
            Ok(reader) => (0..reader.zone_count()).any(|z| reader.read_zone(z).is_err()),
        };
        prop_assert!(detected, "bit flip at {pos} went undetected");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&torn).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn hostile_length_headers_fail_typed(
        n in 1usize..40,
        seed in 0u64..100_000,
        hostile_bits in 0u64..u64::MAX,
    ) {
        // Length fields decoded before a checksum can vouch for them must
        // be capped: a hostile value may produce a typed error only —
        // no giant allocation, no arithmetic wrap, no wrong frame.
        let zone_rows = 7usize;
        let frame = build_frame(n, seed);
        let dir = scratch("hostile");
        let path = write_to(&dir, &format!("h-{n}-{seed}"), &frame, zone_rows);
        let bytes = std::fs::read(&path).unwrap();
        let len = bytes.len();
        // The footer-length field sits 24 bytes from the end (len, sum,
        // tail magic). Overwrite it with hostile values, including ones
        // crafted to wrap `file_len - TAIL_LEN - footer_len`.
        for hostile in [
            u64::MAX,
            u64::MAX - 7,
            1 << 62,
            1 << 40,
            len as u64,          // footer would overlap the segment magic
            (len as u64) - 23,   // footer would swallow the magic exactly
            hostile_bits | (1 << 33),
        ] {
            let mut bad = bytes.clone();
            bad[len - 24..len - 16].copy_from_slice(&hostile.to_le_bytes());
            let p = dir.join("bad-flen.wseg");
            std::fs::write(&p, &bad).unwrap();
            prop_assert!(SegmentReader::open(&p, Arc::new(StdIo)).is_err());
        }
        // Hostile fields *inside* a footer whose checksum is valid
        // (re-signed after corruption) must hit the post-checksum caps.
        // Locate the (zone_rows, total_rows, zone_count) u64 triple by its
        // known little-endian encoding, then overwrite the zone count.
        let needle: Vec<u8> = [zone_rows as u64, n as u64, n.div_ceil(zone_rows) as u64]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let footer_len = u64::from_le_bytes(bytes[len - 24..len - 16].try_into().unwrap()) as usize;
        let footer_start = len - 24 - footer_len;
        let at = bytes[footer_start..len - 24]
            .windows(24)
            .position(|w| w == needle.as_slice())
            .expect("footer triple not found");
        for hostile in [u64::MAX, 1 << 50, (n.div_ceil(zone_rows) as u64) + 1] {
            let mut bad = bytes.clone();
            let field = footer_start + at + 16;
            bad[field..field + 8].copy_from_slice(&hostile.to_le_bytes());
            let sum = checksum64(&bad[footer_start..len - 24]);
            bad[len - 16..len - 8].copy_from_slice(&sum.to_le_bytes());
            let p = dir.join("bad-zcount.wseg");
            std::fs::write(&p, &bad).unwrap();
            prop_assert!(
                SegmentReader::open(&p, Arc::new(StdIo)).is_err(),
                "hostile zone count {hostile} accepted"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn empty_table_roundtrip() {
    let frame = build_frame(0, 1);
    let dir = scratch("empty");
    let path = write_to(&dir, "empty", &frame, 5);
    let reader = SegmentReader::open(&path, Arc::new(StdIo)).unwrap();
    assert_eq!(reader.zone_count(), 0);
    assert_eq!(reader.footer().total_rows, 0);
    let source = SegmentSource::from_reader(reader).unwrap();
    let p0 = source.partition(0).unwrap();
    assert_eq!(p0.num_rows(), 0);
    assert_eq!(p0.schema().len(), 5);
    std::fs::remove_file(&path).ok();
}

/// Transient device faults on the read path must be invisible: the retry
/// ladder absorbs them and every zone comes back bit-identical to a
/// fault-free read.
#[test]
fn transient_read_faults_are_absorbed_by_retries() {
    let frame = build_frame(64, 9);
    let dir = scratch("transient");
    let path = write_to(&dir, "transient", &frame, 8);
    let clean = SegmentReader::open(&path, Arc::new(StdIo)).unwrap();
    let io = Arc::new(FaultIo::new(FaultSchedule {
        transient_read_every: Some(2),
        ..Default::default()
    }));
    let faulty =
        SegmentReader::open_with_policy(&path, io.clone(), 2, Duration::from_micros(50)).unwrap();
    for z in 0..clean.zone_count() {
        let want = clean.read_zone(z).unwrap();
        let got = faulty.read_zone(z).unwrap();
        assert!(frames_bit_identical(&want, &got), "zone {z} diverged");
    }
    assert!(io.faults_injected() > 0, "schedule never fired");
    std::fs::remove_file(&path).ok();
}

/// Persistent read failure exhausts the retries and surfaces as the typed
/// `SpillUnavailable` — whether it lands during open or mid-scan. Never a
/// panic, never wrong data.
#[test]
fn persistent_read_faults_fail_typed() {
    let frame = build_frame(64, 11);
    let dir = scratch("persistent");
    let path = write_to(&dir, "persistent", &frame, 8);
    // Opening needs 4 reads (len, magic, tail, footer): failing from the
    // first op kills the open; failing later kills a zone read instead.
    for from in [0usize, 2, 4, 6] {
        let io = Arc::new(FaultIo::new(FaultSchedule {
            persistent_read_from: Some(from),
            ..Default::default()
        }));
        let opened = SegmentReader::open_with_policy(&path, io, 2, Duration::from_micros(50));
        match opened {
            Err(e) => assert!(
                matches!(e, DataError::SpillUnavailable(_)),
                "open (from={from}): wrong error kind: {e:?}"
            ),
            Ok(reader) => {
                let err = (0..reader.zone_count())
                    .filter_map(|z| reader.read_zone(z).err())
                    .next()
                    .expect("a zone read must eventually hit the persistent fault");
                assert!(
                    matches!(err, DataError::SpillUnavailable(_)),
                    "read (from={from}): wrong error kind: {err:?}"
                );
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The seed sweep from the PR 6 fault matrix, pointed at segment reads:
/// schedules without persistent read faults must yield a bit-identical
/// full scan; schedules with them must fail typed on open or on some
/// zone — and any zone that *does* decode must still be bit-identical.
#[test]
fn fault_schedule_seed_sweep_over_full_scans() {
    let frame = build_frame(96, 4);
    let dir = scratch("sweep");
    let path = write_to(&dir, "sweep", &frame, 12);
    let clean = SegmentReader::open(&path, Arc::new(StdIo)).unwrap();
    for seed in 0..18u64 {
        let schedule = FaultSchedule::from_seed(seed);
        let reads_recover = schedule.persistent_read_from.is_none();
        let io = Arc::new(FaultIo::new(schedule));
        let opened = SegmentReader::open_with_policy(&path, io, 2, Duration::from_micros(50));
        let reader = match opened {
            Ok(r) => r,
            Err(e) => {
                assert!(
                    !reads_recover,
                    "seed {seed}: recoverable schedule failed open: {e:?}"
                );
                assert!(
                    matches!(e, DataError::SpillUnavailable(_)),
                    "seed {seed}: {e:?}"
                );
                continue;
            }
        };
        for z in 0..clean.zone_count() {
            match reader.read_zone(z) {
                Ok(got) => {
                    let want = clean.read_zone(z).unwrap();
                    assert!(
                        frames_bit_identical(&want, &got),
                        "seed {seed}: zone {z} decoded wrong under faults"
                    );
                }
                Err(e) => {
                    assert!(!reads_recover, "seed {seed}: zone {z} failed: {e:?}");
                    assert!(
                        matches!(e, DataError::SpillUnavailable(_)),
                        "seed {seed}: zone {z}: {e:?}"
                    );
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Transient write faults during `write_segment` are retried internally:
/// the call succeeds and the file on disk is byte-identical to a clean
/// write.
#[test]
fn transient_write_faults_produce_a_byte_identical_segment() {
    let frame = build_frame(50, 21);
    let dir = scratch("wfault");
    let clean_path = write_to(&dir, "clean", &frame, 6);
    let faulty_path = dir.join("faulty.wseg");
    let io = FaultIo::new(FaultSchedule {
        transient_write_every: Some(2),
        ..Default::default()
    });
    write_segment("t", &frame, 6, &["i".to_string()], None, &faulty_path, &io).unwrap();
    assert!(io.faults_injected() > 0, "schedule never fired");
    assert_eq!(
        std::fs::read(&clean_path).unwrap(),
        std::fs::read(&faulty_path).unwrap(),
        "fault-retried write diverged from the clean file"
    );
    std::fs::remove_file(&clean_path).ok();
    std::fs::remove_file(&faulty_path).ok();
}

/// `ENOSPC` mid-write is a persistent fault: `write_segment` must fail
/// typed, and whatever partial file it left behind must refuse to open.
#[test]
fn enospc_during_write_fails_typed_and_leaves_no_openable_garbage() {
    let frame = build_frame(400, 33);
    let dir = scratch("enospc");
    let path = dir.join("enospc.wseg");
    let io = FaultIo::new(FaultSchedule {
        enospc_after_bytes: Some(256),
        ..Default::default()
    });
    let err = write_segment("t", &frame, 16, &["i".to_string()], None, &path, &io)
        .expect_err("a 256-byte budget cannot hold this table");
    assert!(matches!(err, DataError::SpillUnavailable(_)), "{err:?}");
    if std::fs::metadata(&path).is_ok() {
        assert!(
            SegmentReader::open(&path, Arc::new(StdIo)).is_err(),
            "partial ENOSPC file must not open"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// A torn append — acked but only partially persisted — at *every* append
/// position: early tears wedge the file and fail the write typed; a tear
/// on the final (tail) append lets the write "succeed", so the torn tail
/// must be caught at open. In no case does a torn segment serve data.
#[test]
fn torn_appends_never_yield_an_openable_torn_segment() {
    let frame = build_frame(40, 5);
    let zone_rows = 10usize;
    let appends = 2 + frame.num_rows().div_ceil(zone_rows); // magic + zones + tail
    let dir = scratch("torn");
    for nth in 0..appends {
        let path = dir.join(format!("torn-{nth}.wseg"));
        let io = FaultIo::new(FaultSchedule {
            torn_write: Some(TornWrite {
                tag: "torn-".to_string(),
                nth,
                keep_bytes: 3,
            }),
            ..Default::default()
        });
        match write_segment("t", &frame, zone_rows, &["i".to_string()], None, &path, &io) {
            Err(e) => assert!(
                matches!(e, DataError::SpillUnavailable(_)),
                "tear at append {nth}: wrong error kind: {e:?}"
            ),
            Ok(()) => {
                // Only the last append can tear silently — and the torn
                // tail must then fail the open.
                assert_eq!(nth, appends - 1, "tear at append {nth} was swallowed");
                assert!(
                    SegmentReader::open(&path, Arc::new(StdIo)).is_err(),
                    "torn tail opened as a valid segment"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
