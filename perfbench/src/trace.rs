//! The span recorder of traced runs.
//!
//! A span is opened around each call into a library layer, from the
//! benchmark's side of the call: name, start, end and the span that was
//! open when it started. Spans stay in memory; at the end of a traced run
//! the recorder prints count, total and self time per span name (self
//! time is the span's duration minus what its child spans cover). When
//! tracing is off, `time` just runs the call.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let r = f();
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Durations in seconds of every closed span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Per-name count, total and self time, on standard error.
    pub fn print_summary(&self) {
        if !self.enabled {
            return;
        }
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            let d = s.end_ns - s.start_ns;
            e.0 += 1;
            e.1 += d;
            e.2 += d.saturating_sub(child_ns[i]);
        }
        eprintln!(
            "spans: {:<40} {:>7} {:>12} {:>12}",
            "name", "count", "total_s", "self_s"
        );
        for (name, (count, total, own)) in by_name {
            eprintln!(
                "spans: {name:<40} {count:>7} {:>12.6} {:>12.6}",
                total as f64 / 1e9,
                own as f64 / 1e9
            );
        }
    }
}
