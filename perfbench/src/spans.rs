//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end (ns
//! since the recorder was created), the span that caused it, and the
//! request it belongs to. Spans are only appended while the traced loop
//! runs and written out once, when the run ends.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `engine.query` or `tree.search`.
    pub name: &'static str,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request (client operation) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall-clock duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Append-only span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in ns.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean duration in µs of the spans named `name` (0 when none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(sum, n), s| (sum + s.duration_ns(), n + 1));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 / 1e3
        }
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns() - covered.min(s.duration_ns())
            })
            .collect()
    }

    /// Writes the spans as JSON lines, one object per span with its self
    /// time.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut r = Recorder::new();
        r.spans = vec![
            span("request", 0, 100, None),
            span("pool.submit", 10, 30, Some(0)),
            span("pool.wait", 25, 60, Some(0)),
            // A child outside its parent's interval covers nothing.
            span("tree.search", 120, 150, Some(0)),
        ];
        assert_eq!(r.self_times_ns(), vec![50, 20, 35, 30]);
        assert_eq!(r.count("pool.wait"), 1);
        assert!((r.mean_us("pool.submit") - 0.02).abs() < 1e-12);
    }

    #[test]
    fn spans_serialize_one_per_line() {
        let mut r = Recorder::new();
        let root = r.begin("request", None, 7);
        r.time("engine.query", Some(root), 7, || ());
        r.end(root);
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).expect("write to a Vec");
        let text = String::from_utf8(buf).expect("utf-8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"engine.query\""));
        assert!(text.contains("\"parent\":0"));
    }
}
