//! In-memory spans the benchmark records around its own calls into each
//! layer, written out when the run ends.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), the request it belongs to, and the name of its parent span in
//! that request. A span's self time is its duration minus the part of it
//! that its children cover.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

use crate::report::{Outcome, SPAN_NAMES};

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<&'static str>,
    pub request: u64,
}

/// A per-thread span buffer. Disabled buffers record nothing, so the
/// untraced run pays one branch per span site.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the epoch to `at`.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<&'static str>,
        request: u64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent,
                request,
            });
        }
    }

    /// Records a span of known length that ends at `end`, for durations
    /// another party measured (the engine seconds in a response).
    pub fn record_ending(
        &mut self,
        name: &'static str,
        seconds: f64,
        end: Instant,
        parent: Option<&'static str>,
        request: u64,
    ) {
        if self.enabled {
            let end_ns = self.ns(end);
            let len = (seconds.max(0.0) * 1e9) as u64;
            self.spans.push(Span {
                name,
                start_ns: end_ns.saturating_sub(len),
                end_ns,
                parent,
                request,
            });
        }
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of intervals, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Total self time in seconds per span name.
fn self_times(spans: &[Span]) -> HashMap<&'static str, f64> {
    let mut children: HashMap<(u64, &'static str), Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry((span.request, parent))
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut totals: HashMap<&'static str, f64> = HashMap::new();
    for span in spans {
        let own = span.end_ns.saturating_sub(span.start_ns);
        let kids = children
            .get(&(span.request, span.name))
            .map_or(0, |c| covered(c.clone(), span.start_ns, span.end_ns));
        *totals.entry(span.name).or_default() += own.saturating_sub(kids) as f64 * 1e-9;
    }
    totals
}

/// Records the self-time metrics and the span count.
pub fn summarize(out: &mut Outcome, spans: &[Span]) {
    let totals = self_times(spans);
    for name in SPAN_NAMES {
        out.set(
            &format!("trace.self_s.{name}"),
            totals.get(name).copied().unwrap_or(0.0),
        );
    }
    out.set("trace.spans", spans.len() as f64);
}

/// Writes the spans as CSV: `name,start_ns,end_ns,parent,request`.
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::with_capacity(spans.len() * 48 + 40);
    text.push_str("name,start_ns,end_ns,parent,request\n");
    for s in spans {
        let _ = writeln!(
            text,
            "{},{},{},{},{}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.unwrap_or(""),
            s.request
        );
    }
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<&'static str>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("request", 0, 1_000, None),
            span("encode", 0, 100, Some("request")),
            span("engine", 500, 800, Some("request")),
            span("write", 50, 200, Some("request")),
        ];
        let totals = self_times(&spans);
        // Children cover [0, 200) and [500, 800): 500 ns of 1000.
        assert!((totals["request"] - 500e-9).abs() < 1e-15);
        assert!((totals["engine"] - 300e-9).abs() < 1e-15);
    }
}
