//! In-memory spans around the benchmark's calls into each layer, written
//! out once the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Times are seconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran, named `<layer>.<call>`.
    pub name: &'static str,
    /// Start, host seconds.
    pub start: f64,
    /// End, host seconds (equal to `start` while open).
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// A span recorder for one workload run.
#[derive(Debug)]
pub struct Spans {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder; every span it records carries `workload` as its
    /// identifier.
    pub fn new(workload: String) -> Spans {
        Spans {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed().as_secs_f64();
        span.end - span.start
    }

    /// Records a time total the program accumulated inside span `parent`
    /// (an engine phase summed over many epochs) as a child span. Such
    /// children are laid end to end from the parent's start, since only
    /// their totals are known.
    pub fn aggregate(&mut self, parent: usize, name: &'static str, secs: f64) {
        let start = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end)
            .fold(self.spans[parent].start, f64::max);
        self.spans.push(Span {
            name,
            start,
            end: start + secs,
            parent: Some(parent),
        });
    }

    /// Span `id`'s duration minus the time its children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end - s.start)
            .sum();
        span.end - span.start - children
    }

    /// One JSON object per span, each with its self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"workload\":\"{}\",\"name\":\"{}\",\"start_s\":{:?},\
                 \"end_s\":{:?},\"parent\":{parent},\"self_s\":{:?}}}",
                self.workload,
                s.name,
                s.start,
                s.end,
                self.self_time(id)
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new("w".into());
        let root = spans.open("root", None);
        spans.aggregate(root, "a", 0.0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let total = spans.close(root);
        spans.aggregate(root, "b", total / 2.0);
        assert!((spans.self_time(root) - total / 2.0).abs() < 1e-12);
        assert_eq!(spans.to_jsonl().lines().count(), 3);
    }
}
