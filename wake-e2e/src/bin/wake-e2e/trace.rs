//! Bench-side spans. A span wraps one call the benchmark itself makes
//! into a layer (`(spec.build)(&db)`, `EngineConfig::start`, one
//! `stream.next()`, `stream.finish()`, one `read_line`); nothing inside
//! the engine is instrumented. Spans stay in memory during the run and
//! are written out once, when the workload ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;
use wake_serve::json::Obj;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one query (or one serve request) share this identifier.
    pub query_id: u32,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Record a finished span; returns its index, for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        query_id: u32,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            parent,
            query_id,
        });
        self.spans.len() - 1
    }

    /// Self time in seconds, summed over the spans of each name.
    pub fn self_seconds_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            *by_name.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        by_name
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let own = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let span = Obj::new()
                .u64("id", i as u64)
                .str("name", s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .raw("parent", &parent)
                .u64("query_id", u64::from(s.query_id))
                .u64("self_ns", self_ns)
                .build();
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(out, "{span}{comma}")?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its child spans cover. Children are clipped to the parent and
/// overlapping children (two serve clients under one pass) are counted
/// once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            query_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 90, Some(0)),
            span(50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(100, 200, None),
            span(110, 160, Some(0)),
            span(150, 180, Some(0)), // overlaps the first by 10
            span(190, 250, Some(0)), // runs past the parent's end
            span(120, 130, Some(0)), // inside the first child's interval
        ];
        // covered: [110,180) = 70 and [190,200) = 10
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn tracer_sums_self_time_by_name() {
        let origin = Instant::now();
        let at = |ms: u64| origin + std::time::Duration::from_millis(ms);
        let mut tracer = Tracer::new(origin);
        let q = tracer.record("query", at(0), at(10), None, 1);
        tracer.record("engine.poll", at(1), at(4), Some(q), 1);
        tracer.record("engine.poll", at(5), at(9), Some(q), 1);
        let own = tracer.self_seconds_by_name();
        assert!((own["engine.poll"] - 0.007).abs() < 1e-9);
        assert!((own["query"] - 0.003).abs() < 1e-9);
        assert_eq!(own.len(), 2);
    }
}
