//! Bench-side trace spans for the traced run.
//!
//! The spans are recorded from the benchmark's own files, around the calls
//! into each layer; they are kept in memory and written out as JSON lines
//! when the run ends.  Spans of one statement share its `root` id.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Statement (or cycle / request) this span belongs to.
    pub root: u64,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// An empty tracer on the same clock, for another thread; merge it back
    /// with [`Self::absorb`].
    pub fn sibling(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    /// Appends a sibling's spans, re-basing their parent ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        for mut span in other.spans {
            span.parent = span.parent.map(|p| p + base);
            self.spans.push(span);
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, root: u64, parent: Option<SpanId>, name: &'static str) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            root,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes the span and returns its duration in microseconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e3
    }

    /// Runs `f` inside a leaf span; returns its result and duration in µs.
    pub fn leaf<T>(
        &mut self,
        root: u64,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(root, parent, name);
        let value = f();
        let us = self.close(id);
        (value, us)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name, sorted by name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.end_ns - span.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::Num(id as f64)),
                ("root", Json::Num(s.root as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// A span's self time is its duration minus the part of its interval that
/// its child spans cover (children are clipped to the parent; overlapping
/// children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            root: 1,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span(None, "root", 0, 100),
            span(Some(0), "a", 10, 40),
            span(Some(0), "b", 30, 60),  // overlaps a: union is 10..60
            span(Some(0), "c", 90, 130), // clipped to 90..100
            span(Some(1), "a.inner", 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 40, 5]);
    }

    #[test]
    fn absorbing_a_sibling_keeps_the_tree() {
        let mut main = Tracer::new();
        let a = main.open(1, None, "a");
        main.close(a);
        let mut side = main.sibling();
        let root = side.open(2, None, "root");
        side.leaf(2, Some(root), "kid", || ());
        side.close(root);
        main.absorb(side);
        let spans = main.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[2].start_ns >= spans[1].start_ns && spans[2].end_ns <= spans[1].end_ns);
    }

    #[test]
    fn totals_group_by_name() {
        let mut t = Tracer::new();
        let root = t.open(7, None, "statement");
        let (v, _) = t.leaf(7, Some(root), "leaf", || 3);
        t.leaf(7, Some(root), "leaf", || ());
        t.close(root);
        assert_eq!(v, 3);
        let totals = t.totals();
        assert_eq!(totals["leaf"].count, 2);
        assert_eq!(totals["statement"].count, 1);
        let st = totals["statement"];
        assert_eq!(st.self_ns, st.total_ns - totals["leaf"].total_ns);
    }
}
