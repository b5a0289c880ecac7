//! In-memory spans recorded by the harness around its calls into each layer, and the
//! self-time arithmetic the per-layer metrics are derived from.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

/// One timed call. `parent` indexes the span that caused it (`NO_PARENT` for a
/// root); the spans of one operation share `op_id`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since a fixed origin; every thread of a run shares one `Clock`, so
/// time stamps taken on different threads compare.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Span sink with a hard cap, so a run that gets much faster cannot grow the trace
/// without bound: once full, `record` drops spans and `is_full` tells the loop to stop.
pub struct Tracer {
    spans: Vec<Span>,
    cap: usize,
}

impl Tracer {
    pub fn new(cap: usize) -> Self {
        Tracer {
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
        }
    }

    pub fn is_full(&self) -> bool {
        self.spans.len() >= self.cap
    }

    /// Records a finished span and returns its index (usable as a `parent`).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        op_id: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        if !self.is_full() {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op_id,
            });
        }
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op_id
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval its direct
/// children cover (children are clipped to the parent and assumed not to overlap
/// one another, which holds for spans recorded around sequential calls).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = &spans[s.parent as usize];
        let start = s.start_ns.max(p.start_ns);
        let end = s.end_ns.min(p.end_ns);
        covered[s.parent as usize] += end.saturating_sub(start);
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur().saturating_sub(c))
        .collect()
}

/// Per span name: how many, their total duration and their total self time.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur();
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_clipped_children() {
        let mut t = Tracer::new(16);
        let root = t.record("root", 100, 200, NO_PARENT, 1);
        let a = t.record("a", 110, 150, root, 1);
        t.record("a.leaf", 120, 130, a, 1);
        // Overhangs its parent by 20 ns: only the 30 ns inside count.
        t.record("b", 170, 220, root, 1);
        assert_eq!(self_times(t.spans()), vec![100 - 40 - 30, 40 - 10, 10, 50]);
        let totals = totals_by_name(t.spans());
        assert_eq!(
            totals["root"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(totals["a"].self_ns, 30);
    }

    #[test]
    fn tracer_stops_at_its_cap() {
        let mut t = Tracer::new(2);
        t.record("x", 0, 1, NO_PARENT, 0);
        assert!(!t.is_full());
        t.record("x", 1, 2, NO_PARENT, 1);
        assert!(t.is_full());
        t.record("x", 2, 3, NO_PARENT, 2);
        assert_eq!(t.spans().len(), 2);
    }
}
