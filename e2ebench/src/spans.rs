//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the recorder
//! was created), the span that caused it, and the id of the request it
//! belongs to. Spans stay in memory and are written out once, at the end.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `store.plan`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Every span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(kids) = span.parent.and_then(|p| children.get_mut(p)) {
                kids.push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(span.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let self_times = self.self_times_ns();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (span, self_ns)) in self.spans.iter().zip(self_times).enumerate() {
            let mut obj = pc_telemetry::JsonObject::new();
            obj.set("id", i as u64);
            obj.set("name", span.name);
            obj.set("request", span.request);
            obj.set("start_ns", span.start_ns);
            obj.set("end_ns", span.end_ns);
            obj.set("self_ns", self_ns);
            if let Some(p) = span.parent {
                obj.set("parent", p as u64);
            }
            writeln!(out, "{}", obj.to_compact())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let mut rec = Recorder::new();
        rec.spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: 1,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                request: 1,
            },
            Span {
                name: "b",
                start_ns: 30,
                end_ns: 60,
                parent: Some(0),
                request: 1,
            },
        ];
        assert_eq!(rec.self_times_ns(), vec![50, 30, 30]);
    }
}
