//! In-memory span recorder and per-stage peak-RSS probes.
//!
//! A span is one timed call into a layer's public function. Spans nest
//! (a parent span's self time is its wall time minus its children's),
//! carry an optional request id (the serve replay tags each request),
//! and stay in memory until [`Tracer::write`] dumps them as JSON lines.

use dk_metrics::json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: String,
    /// Seconds since the tracer started.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, request: Option<u64>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its wall time.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.now();
        let span = &mut self.spans[id];
        span.end = now;
        span.end - span.start
    }

    /// Times `f` as a leaf span; returns its result and wall seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name, None);
        let out = std::hint::black_box(f());
        let dt = self.end(id);
        (out, dt)
    }

    /// Wall time of span `id`.
    pub fn wall(&self, id: usize) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// Self time of every span (wall minus direct children).
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        own
    }

    /// Summed self time per span name, for spans inside `root`.
    pub fn self_by_name(&self, root: usize) -> BTreeMap<String, f64> {
        let own = self.self_times();
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if i != root && self.within(i, root) {
                *out.entry(s.name.clone()).or_insert(0.0) += own[i];
            }
        }
        out
    }

    /// Share of `root`'s wall time covered by the self time of the spans
    /// below it (`trace.coverage`).
    pub fn coverage(&self, root: usize) -> f64 {
        let covered: f64 = self.self_by_name(root).values().sum();
        covered / self.wall(root)
    }

    fn within(&self, mut i: usize, root: usize) -> bool {
        while let Some(p) = self.spans[i].parent {
            if p == root {
                return true;
            }
            i = p;
        }
        false
    }

    /// Writes every span as one JSON line: name, start, end, parent,
    /// request id and self time.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_times();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&json::object([
                ("id".into(), i.to_string()),
                ("name".into(), format!("\"{}\"", json::escape(&s.name))),
                ("start_s".into(), json::number(s.start)),
                ("end_s".into(), json::number(s.end)),
                ("parent".into(), opt(s.parent.map(|p| p as u64))),
                ("request".into(), opt(s.request)),
                ("self_s".into(), json::number(own[i])),
            ]));
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Resets this process's `VmHWM` to the current RSS (Linux
/// `/proc/self/clear_refs`, value 5). Returns `false` where unsupported.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// This process's `VmHWM` in MiB, or `None` where unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Runs `f` between a `VmHWM` reset and a read: the stage's own peak
/// RSS, or `None` when the reset is unavailable (never the process-wide
/// high-water mark).
pub fn stage_peak<T>(f: impl FnOnce() -> T) -> (T, Option<f64>) {
    let armed = reset_peak_rss();
    let out = f();
    (out, if armed { peak_rss_mb() } else { None })
}
