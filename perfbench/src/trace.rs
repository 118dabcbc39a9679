//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A [`Tracer`] keeps the spans of every `stride`-th request in memory; each
//! thread owns one, and the workload merges them and writes them out as JSON
//! lines when it ends.
//! When tracing is off every call is a no-op, so the untraced run pays only
//! a branch.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` is the 1-based id of the span that caused
/// it (0 for a root); `req` ties the spans of one request together.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    stride: u64,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` and that keeps the spans of
    /// requests whose id is a multiple of `stride`; share one origin between
    /// the tracers of a run so their spans line up.
    pub fn new(on: bool, stride: u64, origin: Instant) -> Self {
        Tracer {
            on,
            stride: stride.max(1),
            origin,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the origin (0 when tracing is off).
    pub fn now(&self) -> u64 {
        if self.on {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Record a span that started at `start_ns` and ends now; returns its id
    /// for use as a child's `parent` (0 when the request is not sampled).
    pub fn close(&mut self, name: &'static str, start_ns: u64, parent: u32, req: u64) -> u32 {
        if !self.on || !req.is_multiple_of(self.stride) {
            return 0;
        }
        let end_ns = self.now();
        self.record(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        })
    }

    pub fn record(&mut self, span: Span) -> u32 {
        if !self.on {
            return 0;
        }
        self.spans.push(span);
        self.spans.len() as u32
    }

    /// Take every span of `other`, renumbering its parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Write the spans as JSON lines to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"req\": {}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_renumbers_parents() {
        let span = |name, parent| Span {
            name,
            start_ns: 0,
            end_ns: 10,
            parent,
            req: 1,
        };
        let mut t = Tracer::new(true, 1, Instant::now());
        t.record(span("a", 0));
        let mut other = Tracer::new(true, 1, Instant::now());
        let p = other.record(span("outer", 0));
        other.record(span("inner", p));
        t.absorb(other);
        let parents: Vec<u32> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![0, 0, 2]);
        assert_eq!(t.durations("inner"), vec![10.0]);
    }

    #[test]
    fn only_sampled_requests_are_kept_and_written() {
        let mut t = Tracer::new(true, 2, Instant::now());
        for req in 0..4 {
            let start = t.now();
            t.close("op", start, 0, req);
        }
        let reqs: Vec<u64> = t.spans().iter().map(|s| s.req).collect();
        assert_eq!(reqs, vec![0, 2]);
        let dir = std::env::temp_dir().join(format!("psi-perfbench-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        t.write_jsonl(&path).expect("temp dir is writable");
        let text = std::fs::read_to_string(&path).expect("just written");
        std::fs::remove_dir_all(&dir).expect("just created");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("{\"id\": 2, \"name\": \"op\""));
        assert!(lines[1].ends_with("\"parent\": 0, \"req\": 2}"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, 1, Instant::now());
        let s = t.now();
        assert_eq!(t.close("x", s, 0, 0), 0);
        assert!(t.spans().is_empty());
    }
}
