//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own code around the calls it
//! makes into each layer's public functions; nothing inside the program
//! under test is instrumented. Every span carries its name, start, end
//! (seconds since the tracer was created) and the index of the span that
//! was open when it began, so a layer's *self* time is its duration minus
//! the part its children cover. Spans stay in memory and are written out
//! once, when the run ends.

use crate::stats::json_string;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub(crate) struct Span {
    pub(crate) name: &'static str,
    pub(crate) start: f64,
    pub(crate) end: f64,
    pub(crate) parent: Option<usize>,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A single-threaded span recorder (spans are only opened on the thread
/// that owns the tracer: the main thread and the pipeline's consumer,
/// which is the thread calling `PipelineRunner::run`).
#[derive(Debug)]
pub(crate) struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub(crate) fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub(crate) fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied() });
        self.open.push(id);
        id
    }

    pub(crate) fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id].end = self.now();
    }

    /// Sum of the durations of every span called `name`.
    pub(crate) fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration).sum()
    }

    /// Sum over spans called `name` of their duration minus their direct
    /// children's durations.
    pub(crate) fn self_time(&self, name: &str) -> f64 {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.duration();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.duration() - child_time[i])
            .sum()
    }

    /// Distinct span names, in first-seen order.
    pub(crate) fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for span in &self.spans {
            if !names.contains(&span.name) {
                names.push(span.name);
            }
        }
        names
    }

    /// Every span as one JSON object per line.
    pub(crate) fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": {}, \"start_s\": {:.9}, \"end_s\": {:.9}, \"parent\": {parent}}}",
                json_string(span.name),
                span.start,
                span.end,
            );
        }
        out
    }
}

/// Runs `f` inside a span called `name` when a tracer is present.
pub(crate) fn span<R>(
    tracer: Option<&RefCell<Tracer>>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(tracer) => {
            let id = tracer.borrow_mut().begin(name);
            let result = f();
            tracer.borrow_mut().end(id);
            result
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let tracer = RefCell::new(Tracer::new());
        span(Some(&tracer), "outer", || {
            span(Some(&tracer), "inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let tracer = tracer.into_inner();
        let outer = tracer.total("outer");
        let inner = tracer.total("inner");
        assert!(inner >= 0.005 && outer >= inner + 0.005);
        assert!((tracer.self_time("outer") - (outer - inner)).abs() < 1e-9);
        assert_eq!(tracer.names(), vec!["outer", "inner"]);
        assert_eq!(tracer.to_ndjson().lines().count(), 2);
    }
}
