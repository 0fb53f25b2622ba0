//! In-memory span recording for the traced runs.
//!
//! Each call into a layer's public function is wrapped in one span: name,
//! start, end, parent span and request id. Spans stay in memory while the
//! workload runs and are written out once when it ends. The program
//! itself is not instrumented; every span is taken here, around the call.
//!
//! The arithmetic that turns spans into layer figures lives here too: a
//! span's *self time* is its duration minus the time its direct children
//! cover, and the *unattributed* time of a request class is its
//! end-to-end median minus the median of its attributed (spanned) time.

use std::collections::HashMap;
use std::io::Write as _;
use std::time::Instant;

use sgl_observe::Json;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name (`sim.event`, `protocol.parse`, ...).
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or solve) the span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans; nesting follows the call stack of [`Recorder::span`].
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for request `req`. Spans opened
    /// inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured span — a call whose layer is only
    /// known once it returns, or a phase the program timed itself — under
    /// `parent` (or the innermost open span when `None`). Returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: parent.or_else(|| self.stack.last().copied()),
            req,
        });
        self.spans.len() - 1
    }

    /// Nanoseconds since the recorder's origin.
    #[must_use]
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    /// All spans, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as a JSON array, one object per span.
    ///
    /// # Errors
    /// When the file cannot be written.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("name", Json::Str(s.name.into())),
                ("start_ns", Json::UInt(s.start_ns)),
                ("end_ns", Json::UInt(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("req", Json::UInt(s.req)),
            ]);
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(out, "{line}{sep}")?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (children never outlast their parent).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-request self time of each layer: `layer -> req -> ns`.
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> HashMap<&'static str, HashMap<u64, u64>> {
    let mut out: HashMap<&'static str, HashMap<u64, u64>> = HashMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_default().entry(s.req).or_default() += self_ns;
    }
    out
}

/// Attributed time per request: the summed duration of its top-level
/// spans, which equals the sum of the self times of all its spans.
#[must_use]
pub fn attributed_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut out: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        *out.entry(s.req).or_default() += s.dur_ns();
    }
    out
}

/// Unattributed time of a request class: its end-to-end median minus the
/// median of its attributed layer time. Signed — a negative value means
/// the layers, measured in isolation, took longer than the whole request.
#[must_use]
pub fn unattributed(e2e_median: f64, attributed_median: f64) -> f64 {
    e2e_median - attributed_median
}

/// Share of `wall` the attributed time covers (`0` for an empty wall).
#[must_use]
pub fn coverage(attributed: f64, wall: f64) -> f64 {
    if wall > 0.0 {
        attributed / wall
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        req: u64,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // req 1: request [0,100] > sim [10,60] > step [20,30]; readout [60,90].
        let spans = vec![
            span("request", 0, 100, None, 1),
            span("sim", 10, 60, Some(0), 1),
            span("step", 20, 30, Some(1), 1),
            span("readout", 60, 90, Some(0), 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 10, 30]);
    }

    #[test]
    fn layer_self_times_tile_the_attributed_time() {
        let spans = vec![
            span("parse", 0, 5, None, 1),
            span("sim", 5, 50, None, 1),
            span("sim.inner", 10, 40, Some(1), 1),
            span("parse", 100, 103, None, 2),
            span("sim", 103, 120, None, 2),
        ];
        let by_layer = self_time_by_layer(&spans);
        let attributed = attributed_ns(&spans);
        for req in [1u64, 2] {
            let sum: u64 = by_layer.values().filter_map(|m| m.get(&req)).sum();
            assert_eq!(sum, attributed[&req], "req {req}");
        }
        assert_eq!(attributed[&1], 50);
        assert_eq!(by_layer["sim"][&1], 15);
        assert_eq!(by_layer["sim.inner"][&1], 30);
    }

    #[test]
    fn reconciliation_arithmetic() {
        assert_eq!(unattributed(1500.0, 1200.0), 300.0);
        assert_eq!(unattributed(1000.0, 1100.0), -100.0);
        assert_eq!(coverage(96.0, 100.0), 0.96);
        assert_eq!(coverage(1.0, 0.0), 0.0);
    }

    #[test]
    fn recorder_nests_by_call_stack() {
        let mut r = Recorder::new();
        let v = r.span("outer", 7, |r| {
            r.span("inner", 7, |_| ());
            let p = r.record("phase", 7, 0, 0, None);
            r.record("sub", 7, 0, 0, Some(p));
            42
        });
        r.span("next", 8, |_| ());
        assert_eq!(v, 42);
        let parents: Vec<_> = r.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2), None]);
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
    }
}
