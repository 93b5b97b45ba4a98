//! In-memory spans for the traced run.
//!
//! The benchmark records one span around each call it makes into a layer's
//! public API; nothing inside the simulator is instrumented. Spans stay in
//! memory while the run measures and are written out as JSON lines when it
//! ends, so writing them costs the measurement nothing.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Workload-run id: which pass of which workload the span belongs to.
    pub run: String,
    pub start_ns: u64,
    pub end_ns: Option<u64>,
}

/// Every span of one benchmark process.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1024),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, run: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            run: run.to_string(),
            start_ns,
            end_ns: None,
        });
        id
    }

    /// Closes span `id` and returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if the span was already closed.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        assert!(span.end_ns.is_none(), "span {} closed twice", span.name);
        span.end_ns = Some(end);
        (end - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        run: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, run);
        let out = f();
        (out, self.close(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part of it its
    /// children cover (children of one span never overlap here: the
    /// benchmark calls one layer at a time).
    pub fn self_ns(&self, id: usize) -> u64 {
        let duration = |s: &Span| s.end_ns.unwrap_or(s.start_ns) - s.start_ns;
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(duration)
            .sum();
        duration(&self.spans[id]).saturating_sub(children)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let end = span
                .end_ns
                .map_or_else(|| "null".to_string(), |e| e.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"run\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {end}, \"self_ns\": {}}}",
                span.id,
                span.name,
                span.run,
                span.start_ns,
                self.self_ns(span.id)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new();
        let root = log.open("root", None, "w/0");
        let (_, child) = log.time("child", Some(root), "w/0", || {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let total = log.close(root);
        assert!(child >= 0.005 && total >= child);
        let self_ns = log.self_ns(root) as f64 * 1e-9;
        assert!((self_ns - (total - child)).abs() < 1e-6);
        assert_eq!(log.spans()[1].parent, Some(root));
    }
}
