//! In-memory span recorder for the traced run. Spans are kept in a flat
//! vector and written once, when the run ends; nothing is recorded when
//! tracing is off.

use std::collections::HashMap;
use std::time::Instant;

use halo_bench::json::{self, Json};

/// Index of a span in [`Tracer::spans`].
pub type SpanId = u32;

/// No parent, or no program row.
pub const NONE: u32 = u32::MAX;

/// One closed interval of work.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into the tracer's name table.
    pub name: u32,
    /// Enclosing span, or [`NONE`].
    pub parent: SpanId,
    /// Program row the span belongs to, or [`NONE`].
    pub row: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    names: Vec<String>,
    index: HashMap<String, u32>,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            names: Vec::new(),
            index: HashMap::new(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        i
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &str, row: u32) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let name = self.intern(name);
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            parent,
            row,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Adds a finished span timed elsewhere (a backend op) under `parent`.
    pub fn record(&mut self, name: &str, parent: SpanId, row: u32, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let name = self.intern(name);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            parent,
            row,
            start_ns,
            end_ns,
        });
    }

    pub fn span(&self, id: SpanId) -> Span {
        self.spans[id as usize]
    }

    /// Summed duration of each span's direct children, indexed like
    /// [`Tracer::spans`].
    pub fn child_ns(&self) -> Vec<u64> {
        let mut sums = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                sums[s.parent as usize] += s.ns();
            }
        }
        sums
    }

    /// Self time of every span named `name`, summed, in seconds: each
    /// span's duration minus the part its direct children cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let Some(&n) = self.index.get(name) else {
            return 0.0;
        };
        let child = self.child_ns();
        let ns: i128 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == n)
            .map(|(i, s)| i128::from(s.ns()) - i128::from(child[i]))
            .sum();
        ns as f64 * 1e-9
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let Some(&n) = self.index.get(name) else {
            return 0.0;
        };
        self.spans
            .iter()
            .filter(|s| s.name == n)
            .map(|s| s.ns() as f64 * 1e-9)
            .sum()
    }

    /// The span table as JSON: a name table plus one
    /// `[name, parent, row, start_ns, end_ns]` array per span (`-1` for
    /// no parent or no row).
    pub fn to_json(&self) -> Json {
        let opt = |v: u32| json::num(if v == NONE { -1.0 } else { f64::from(v) });
        json::obj(vec![
            (
                "names",
                Json::Arr(self.names.iter().map(|n| Json::Str(n.clone())).collect()),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::Arr(vec![
                                json::num(f64::from(s.name)),
                                opt(s.parent),
                                opt(s.row),
                                json::num(s.start_ns as f64),
                                json::num(s.end_ns as f64),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", NONE);
        let inner = t.open("inner", 0);
        let base = t.epoch;
        t.record(
            "leaf",
            inner,
            0,
            base,
            base + std::time::Duration::from_nanos(10),
        );
        t.close(inner);
        t.close(outer);
        let child = t.child_ns();
        assert_eq!(child[outer as usize], t.span(inner).ns());
        assert_eq!(child[inner as usize], 10);
        let total = t.total_s("outer");
        let parts = t.self_s("outer") + t.self_s("inner") + t.total_s("leaf");
        assert!((total - parts).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", NONE);
        t.close(id);
        assert!(t.child_ns().is_empty());
    }
}
