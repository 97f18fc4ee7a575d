//! In-memory span recorder for the traced run.
//!
//! Every call the harness makes into an apex crate is wrapped in a named
//! span (`<crate>.<stage>`). Spans nest: a span's *self time* is its
//! duration minus the time its direct children cover. Counters are
//! recorded beside the spans, at the same call sites. Nothing is written
//! until the run ends; the per-layer metrics are aggregated from memory.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    dur_ns: u128,
    child_ns: u128,
}

/// Spans and counters of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open (innermost last).
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            dur_ns: 0,
            child_ns: 0,
        });
        self.open.push(idx);
        let start = Instant::now();
        let out = f(self);
        let dur = start.elapsed().as_nanos();
        self.open.pop();
        self.spans[idx].dur_ns = dur;
        if let Some(&parent) = self.open.last() {
            self.spans[parent].child_ns += dur;
        }
        out
    }

    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// Overwrites counter `name`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.counters.insert(name, v);
    }

    /// Total self time of every span named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.dur_ns - s.child_ns) as f64 / 1e6)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0
    }

    /// Sum of all spans' self times, in milliseconds.
    pub fn all_self_ms(&self) -> f64 {
        self.spans
            .iter()
            .map(|s| (s.dur_ns - s.child_ns) as f64 / 1e6)
            .sum()
    }

    /// Wall time since the tracer was created, in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.origin.elapsed().as_nanos() as f64 / 1e6
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}
