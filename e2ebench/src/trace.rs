//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer, written out when the run ends.
//!
//! A span has a name, a start and end (seconds since the tracer's
//! origin), an optional parent, and the id of the operation it belongs
//! to (a quote, a tick, a cluster case), which every span of that
//! operation shares. With tracing off, recording is a no-op.

use crate::json::J;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span in the tracer.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The operation the span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `serve.queue`.
    pub name: &'static str,
    /// Start, seconds since the tracer's origin.
    pub start: f64,
    /// End, seconds since the tracer's origin.
    pub end: f64,
}

/// Collects spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a span between two instants; returns its id, or `None`
    /// when tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let (start, end) = (self.at(start), self.at(end));
        self.record_at(name, op, parent, start, end)
    }

    /// Records a span given in seconds since the origin (for intervals
    /// reported by the program rather than timed here).
    pub fn record_at(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start,
            end,
        });
        Some(id)
    }

    /// Moves the end of span `id` to `end` (for a parent opened before
    /// its children were timed).
    pub fn set_end(&mut self, id: usize, end: Instant) {
        let end = self.at(end);
        self.spans[id].end = end;
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Self times (seconds) of every span called `name`: its duration
    /// minus the part of it that its children cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) - covered(s.start, s.end, &mut children[s.id]))
            .collect()
    }

    /// All spans as JSON, one object per span.
    pub fn to_json(&self) -> J {
        J::Arr(
            self.spans
                .iter()
                .map(|s| {
                    J::obj([
                        ("id", J::Int(s.id as u64)),
                        (
                            "parent",
                            s.parent.map_or(J::Num(f64::NAN), |p| J::Int(p as u64)),
                        ),
                        ("op", J::Int(s.op)),
                        ("name", J::str(s.name)),
                        ("start_s", J::Num(s.start)),
                        ("end_s", J::Num(s.end)),
                    ])
                })
                .collect(),
        )
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = t.record_at("req", 0, None, 0.0, 10.0);
        t.record_at("a", 0, root, 1.0, 4.0);
        t.record_at("b", 0, root, 3.0, 6.0); // overlaps a by 1
        t.record_at("c", 0, root, 9.0, 12.0); // clipped at the parent's end
        let self_t = t.self_times("req");
        assert_eq!(self_t.len(), 1);
        assert!((self_t[0] - 4.0).abs() < 1e-12);
        assert_eq!(t.durations("a"), vec![3.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.record_at("x", 0, None, 0.0, 1.0), None);
        assert!(t.durations("x").is_empty());
    }
}
