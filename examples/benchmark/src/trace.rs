//! Bench-side spans: recorded in memory around the calls into each
//! layer, written to a file when the run ends. The program under test is
//! not instrumented (`ServeConfig::obs` stays `None`).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `parent` of a span that has none.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same log, or [`ROOT`].
    pub parent: u32,
    /// Spans of one request share this.
    pub request_id: u64,
}

/// One thread's spans, on a clock that starts at `origin`.
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// Record a finished span; returns its index (a later span's `parent`).
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request_id: u64,
    ) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Start a span that has children; [`SpanLog::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: u32, request_id: u64) -> u32 {
        let now = Instant::now();
        self.push(name, now, now, parent, request_id)
    }

    pub fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = Instant::now()
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
    }

    /// Time `f` as a child of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.push(name, start, Instant::now(), parent, request_id);
        out
    }

    /// Append another log, re-basing its clock and parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: if s.parent == ROOT {
                ROOT
            } else {
                s.parent + base
            },
            ..s
        }));
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time (ns) of every span called `name`: its duration minus
    /// the part its direct children cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64)
            .collect()
    }

    /// One JSON object per line: `{name, start_ns, end_ns, parent, request_id}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"request_id":{}}}"#,
                s.name, s.start_ns, s.end_ns, parent, s.request_id
            )?;
        }
        out.flush()
    }
}
