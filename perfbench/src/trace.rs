//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, start, end, parent and optional request id; spans
//! are kept in memory and written out when the run ends. A layer's self
//! time is its spans' time minus the time of their child spans. With
//! tracing off every method is a no-op.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str, req: Option<u64>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let t = self.epoch.elapsed().as_secs_f64();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: t,
            end: t,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span opened inside it and left open).
    pub fn end(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let t = self.epoch.elapsed().as_secs_f64();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = t;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, None);
        let r = f();
        self.end(id);
        r
    }

    /// Adopts spans recorded on another thread (times relative to this
    /// tracer's epoch, parents as indices into `spans`), under the
    /// innermost open span.
    pub fn adopt(&mut self, spans: Vec<Span>) {
        if !self.on {
            return;
        }
        let base = self.spans.len();
        let outer = self.open.last().copied();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(outer);
            s
        }));
    }

    /// `(count, total_s, self_s)` per span name.
    pub fn summary(&self) -> BTreeMap<String, (usize, f64, f64)> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_time) {
            let e = out.entry(s.name.clone()).or_default();
            let dur = s.end - s.start;
            e.0 += 1;
            e.1 += dur;
            e.2 += (dur - child).max(0.0);
        }
        out
    }

    pub fn print_summary(&self) {
        if !self.on {
            return;
        }
        println!(
            "trace: {:<32} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (count, total, own)) in self.summary() {
            println!(
                "trace: {name:<32} {count:>8} {:>12.3} {:>12.3}",
                total * 1e3,
                own * 1e3
            );
        }
    }

    /// Writes every span as one JSON array; returns the span count.
    pub fn write_json(&self, path: &str) -> std::io::Result<usize> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = s.req.map_or("null".to_string(), |r| r.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \"parent\": {parent}, \"req\": {req}}}{sep}",
                s.name, s.start, s.end
            )?;
        }
        writeln!(w, "]")?;
        w.flush()?;
        Ok(self.spans.len())
    }
}
