//! The metric registry — every name the benchmark prints, with its unit,
//! direction and regression bound — and the one record format built on
//! it. `BENCHMARK.json` at the repo root lists the same names; a test
//! holds the two together.

use crate::stats;
use std::collections::BTreeMap;
use wake_serve::json::Obj;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the engine sees, on every workload. The bounds are
/// three times the spread measured on the build host, capped at the
/// driver's 0.25: its clock drifts by 10–15 % over minutes, and ten runs
/// with ten seeds put the quartiles of a timing 2–11 % apart.
/// `peak_state_bytes` is a count that depends only on the data
/// (spread ≤ 2 %).
pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        name: "first_estimate_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "time_to_1pct_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "final_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_state_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEndDef {
        name: "queries_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Single-layer metrics from the traced run: `(name, unit, better)`.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("plan.build_s", "s", Better::Lower),
    ("engine.start_s", "s", Better::Lower),
    ("engine.poll_s", "s", Better::Lower),
    ("engine.polls", "count", Better::Lower),
    ("engine.estimates", "count", Better::Higher),
    ("engine.finish_s", "s", Better::Lower),
    ("engine.threads_peak", "count", Better::Lower),
    ("engine.unattributed_s", "s", Better::Lower),
    ("engine.unattributed_pct", "%", Better::Lower),
    ("core.read_busy_s", "s", Better::Lower),
    ("core.filter_busy_s", "s", Better::Lower),
    ("core.map_busy_s", "s", Better::Lower),
    ("core.join_busy_s", "s", Better::Lower),
    ("core.agg_busy_s", "s", Better::Lower),
    ("core.sort_busy_s", "s", Better::Lower),
    ("core.rows_in", "count", Better::Lower),
    ("core.rows_out", "count", Better::Lower),
    ("data.hash_keys_rows_per_s", "rows/s", Better::Higher),
    ("data.shard_select_rows_per_s", "rows/s", Better::Higher),
    ("expr.eval_rows_per_s", "rows/s", Better::Higher),
    ("expr.select_rows_per_s", "rows/s", Better::Higher),
    ("store.spilled_bytes", "bytes", Better::Lower),
    ("store.evictions", "count", Better::Lower),
    ("store.rehydrations", "count", Better::Lower),
    ("store.io_retries", "count", Better::Lower),
    ("store.budget_overshoot", "ratio", Better::Lower),
    ("store.chunk_encode_bytes_per_s", "bytes/s", Better::Higher),
    ("store.chunk_decode_bytes_per_s", "bytes/s", Better::Higher),
    ("store.decode_s", "s", Better::Lower),
    ("store.bytes_decoded", "bytes", Better::Lower),
    ("store.bytes_compressed", "bytes", Better::Lower),
    ("store.zones_scanned", "count", Better::Lower),
    ("store.zones_pruned", "count", Better::Higher),
    ("store.read_zone_bytes_per_s", "bytes/s", Better::Higher),
    ("store.segment_write_s", "s", Better::Lower),
    ("serve.admit_wait_s", "s", Better::Lower),
    ("serve.wire_gap_s", "s", Better::Lower),
    ("serve.wire_bytes", "bytes", Better::Lower),
    ("serve.lines", "count", Better::Lower),
    ("serve.refused", "count", Better::Lower),
    ("serve.degraded", "count", Better::Lower),
    ("serve.done_lost", "count", Better::Lower),
    ("serve.json_lines_per_s", "lines/s", Better::Higher),
    ("obs.trace_overhead_pct", "%", Better::Lower),
];

/// Values for a fixed list of metric names. Every name is present from
/// the start (as 0), and writing to a name outside the list is a bug in
/// the benchmark, so "every named metric is printed" holds by
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn for_names(names: impl Iterator<Item = &'static str>) -> Self {
        Metrics {
            values: names.map(|n| (n, 0.0)).collect(),
        }
    }

    pub fn end_to_end() -> Self {
        Self::for_names(END_TO_END.iter().map(|d| d.name))
    }

    pub fn per_layer() -> Self {
        Self::for_names(PER_LAYER.iter().map(|d| d.0))
    }

    fn slot(&mut self, name: &str) -> &mut f64 {
        self.values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the registry"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        *self.slot(name) = value;
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.slot(name) += value;
    }

    pub fn raise(&mut self, name: &str, value: f64) {
        let slot = self.slot(name);
        *slot = slot.max(value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the registry"))
    }

    /// Element-wise median over several passes' values.
    pub fn median_of(passes: &[Metrics]) -> Metrics {
        let mut out = passes[0].clone();
        for (name, slot) in out.values.iter_mut() {
            let column: Vec<f64> = passes.iter().map(|p| p.values[name]).collect();
            *slot = stats::median(&column);
        }
        out
    }
}

/// Unit and direction of a registered metric.
pub fn unit_of(name: &str) -> (&'static str, Better) {
    END_TO_END
        .iter()
        .map(|d| (d.name, d.unit, d.better))
        .chain(PER_LAYER.iter().copied())
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, better)| (unit, better))
        .unwrap_or_else(|| panic!("metric `{name}` is not in the registry"))
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in registry order.
pub fn metrics_json(metrics: &Metrics, order: impl Iterator<Item = &'static str>) -> String {
    let mut obj = Obj::new();
    for name in order {
        let entry = Obj::new()
            .f64("value", metrics.get(name))
            .str("unit", unit_of(name).0)
            .build();
        obj = obj.raw(name, &entry);
    }
    obj.build()
}

/// One workload's result from one run of the benchmark.
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    /// Queries (or serve requests) checked against the reference,
    /// warm-up included.
    pub attempted: u64,
    /// Of those: errored, refused, or final answer differs.
    pub failed: u64,
    pub metrics: Metrics,
    /// Information printed next to the metrics but not gated: per-pass
    /// spreads, sample counts, the paper's two ratios, per-query rows.
    pub notes: Vec<String>,
    /// Pre-rendered JSON array with one object per query.
    pub per_query_json: String,
}

impl Outcome {
    fn order(&self) -> Box<dyn Iterator<Item = &'static str>> {
        if self.traced {
            Box::new(PER_LAYER.iter().map(|d| d.0))
        } else {
            Box::new(END_TO_END.iter().map(|d| d.name))
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted >= 1
    }

    /// Every metric by name with its unit, then the notes.
    pub fn print(&self) {
        let kind = if self.traced {
            "per-layer (traced)"
        } else {
            "end-to-end"
        };
        println!("== {} · {kind}", self.workload);
        for name in self.order() {
            let (unit, better) = unit_of(name);
            println!(
                "{:<34} {:>20} {:<8} ({} is better)",
                name,
                format_value(self.metrics.get(name)),
                unit,
                better.as_str()
            );
        }
        println!(
            "{:<34} {:>20} count",
            "failed_ops / ops",
            format!("{} / {}", self.failed, self.attempted)
        );
        for note in &self.notes {
            println!("  {note}");
        }
    }

    /// `correct`, `attempted`, `failed`, `metrics`: the driver's keys.
    fn result(&self) -> Obj {
        Obj::new()
            .bool("correct", self.correct())
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics_json(&self.metrics, self.order()))
    }

    /// The driver's result line.
    pub fn result_line(&self) -> String {
        self.result().build()
    }

    /// The same record, with the workload's name and the per-query rows,
    /// as one element of the report file.
    pub fn report_json(&self) -> String {
        self.result()
            .str("workload", self.workload)
            .bool("traced", self.traced)
            .raw("queries", &self.per_query_json)
            .build()
    }
}

/// Counts and byte totals print whole; times and rates keep six
/// decimals.
pub fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// Render a JSON array from already-rendered elements.
pub fn json_array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|d| (d.name, d.unit))
            .chain(PER_LAYER.iter().map(|d| (d.0, d.1)));
        for (name, unit) in all {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program prints. Neither may drift from the other.
    #[test]
    fn benchmark_json_lists_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for d in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.bound
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("{\"name\": ").count();
        let workloads = crate::setup::Workload::ALL.len();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
        for w in crate::setup::Workload::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
        }
    }

    #[test]
    fn metrics_hold_every_name_and_take_medians() {
        let mut a = Metrics::per_layer();
        let mut b = Metrics::per_layer();
        let mut c = Metrics::per_layer();
        a.set("engine.poll_s", 1.0);
        b.set("engine.poll_s", 3.0);
        c.add("engine.poll_s", 1.5);
        c.add("engine.poll_s", 0.5);
        c.raise("engine.threads_peak", 7.0);
        c.raise("engine.threads_peak", 3.0);
        assert_eq!(c.get("engine.threads_peak"), 7.0);
        let m = Metrics::median_of(&[a, b, c]);
        assert_eq!(m.get("engine.poll_s"), 2.0);
        assert_eq!(m.get("serve.lines"), 0.0);
        let json = metrics_json(&m, PER_LAYER.iter().map(|d| d.0));
        for (name, _, _) in PER_LAYER {
            assert!(json.contains(&format!("\"{name}\":{{\"value\":")), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unregistered_names_are_rejected() {
        Metrics::end_to_end().set("latency_ms", 1.0);
    }
}
