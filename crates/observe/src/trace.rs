//! `sgl-trace`: request-scoped span records, fixed-capacity span rings,
//! and Chrome trace-event export.
//!
//! The serve pipeline decomposes one request into a span taxonomy
//! (`accept → parse → admit → queue_wait → cache_lookup →
//! compile(build/load) → engine_run → readout → serialize → write`,
//! [`Stage`]). A traced request carries a small fixed-capacity
//! [`SpanBuf`] across threads; completed spans land in a per-thread
//! [`SpanRing`] — fixed capacity, overwrite-oldest, no allocation on
//! push — so recording stays cheap no matter how long the server runs.
//! Rings use single-owner `&mut` access (one ring per worker thread, the
//! `ShardedStats` ownership discipline), so there is no locking on the
//! record path at this layer.
//!
//! Timestamps are monotonic-clock nanoseconds relative to a clock base
//! the caller owns (`Instant`-derived; never wall clock), so spans
//! recorded on different threads order correctly.
//!
//! Export is the Chrome trace-event JSON format (an object with a
//! `traceEvents` array of `ph: "X"` complete events, `ts`/`dur` in
//! microseconds) — loadable in `chrome://tracing` and Perfetto.
//! [`validate_chrome`] is the inverse gate: it checks the shape, that
//! `B`/`E` pairs (if any) balance, and that every event nests properly
//! within its track (child fully inside parent), which CI runs against
//! emitted artifacts.

use std::collections::HashMap;

use crate::json::Json;

/// One stage of the serve pipeline — the span taxonomy.
///
/// `Request` is the per-request root span; depth-1 stages partition it;
/// depth-2 stages are sub-spans bridged from existing instrumentation
/// ([`crate::PhaseProfiler`] phases for `compile.build`/`compile.load`,
/// [`crate::RunObserver`] hooks for `sim`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Whole-request root span (accept through write).
    #[default]
    Request,
    /// Reading the request bytes off the socket (first byte → full line).
    Accept,
    /// JSON + request parsing.
    Parse,
    /// Admission-queue push (the shed/drain decision).
    Admit,
    /// Time spent queued before a worker picked the job up.
    QueueWait,
    /// Graph-registry and compiled-network cache probe.
    CacheLookup,
    /// Graph→SNN compilation (cache miss or bypass only).
    Compile,
    /// Network construction (the `PhaseProfiler` "build" phase).
    CompileBuild,
    /// Engine resolution/loading (the `PhaseProfiler` "load" phase).
    CompileLoad,
    /// The SNN simulation run.
    EngineRun,
    /// Stepping loop inside the run (first step hook → finish hook).
    Sim,
    /// Decoding spike times into distances and building the payload
    /// (a query's payload is rendered here, once).
    Readout,
    /// Rendering the response line around the payload.
    Serialize,
    /// Writing the response bytes to the socket.
    Write,
}

impl Stage {
    /// Every stage, root first, in pipeline order.
    pub const ALL: [Self; 14] = [
        Self::Request,
        Self::Accept,
        Self::Parse,
        Self::Admit,
        Self::QueueWait,
        Self::CacheLookup,
        Self::Compile,
        Self::CompileBuild,
        Self::CompileLoad,
        Self::EngineRun,
        Self::Sim,
        Self::Readout,
        Self::Serialize,
        Self::Write,
    ];

    /// Wire/export name of the stage.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Request => "request",
            Self::Accept => "accept",
            Self::Parse => "parse",
            Self::Admit => "admit",
            Self::QueueWait => "queue_wait",
            Self::CacheLookup => "cache_lookup",
            Self::Compile => "compile",
            Self::CompileBuild => "compile.build",
            Self::CompileLoad => "compile.load",
            Self::EngineRun => "engine_run",
            Self::Sim => "sim",
            Self::Readout => "readout",
            Self::Serialize => "serialize",
            Self::Write => "write",
        }
    }

    /// Nesting depth: 0 for the request root, 1 for pipeline stages, 2
    /// for bridged sub-spans.
    #[must_use]
    pub fn depth(self) -> u8 {
        match self {
            Self::Request => 0,
            Self::CompileBuild | Self::CompileLoad | Self::Sim => 2,
            _ => 1,
        }
    }

    /// Inverse of [`Self::name`].
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One completed span: which request, which stage, and when (monotonic
/// nanoseconds relative to the owning recorder's clock base).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanEvent {
    /// The request this span belongs to.
    pub trace_id: u64,
    /// Pipeline stage.
    pub stage: Stage,
    /// Start, ns since the clock base.
    pub start_ns: u64,
    /// End, ns since the clock base (`>= start_ns`).
    pub end_ns: u64,
}

impl SpanEvent {
    /// Span duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Fixed-capacity overwrite-oldest span recorder.
///
/// All storage is allocated up front; [`Self::push`] never allocates and
/// never fails — once full, the oldest span is overwritten. A monotone
/// push counter keeps ordered iteration correct across wraparound, so
/// the ring is a bounded-memory flight recorder of the most recent
/// `capacity` spans.
#[derive(Debug)]
pub struct SpanRing {
    events: Vec<SpanEvent>,
    /// Total spans ever pushed (index of the next slot = `pushed & mask`).
    pushed: u64,
    mask: u64,
}

impl SpanRing {
    /// A ring holding the most recent `capacity` spans (rounded up to a
    /// power of two, minimum 2). Allocates once, here.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        Self {
            events: Vec::with_capacity(cap),
            pushed: 0,
            mask: (cap as u64) - 1,
        }
    }

    /// Records a span. Never allocates (capacity was reserved up front);
    /// overwrites the oldest span once full.
    pub fn push(&mut self, ev: SpanEvent) {
        let idx = (self.pushed & self.mask) as usize;
        if idx < self.events.len() {
            self.events[idx] = ev;
        } else {
            // Still filling the pre-reserved storage: len < capacity, so
            // this push cannot reallocate.
            self.events.push(ev);
        }
        self.pushed += 1;
    }

    /// Spans currently retained, oldest first (push order survives
    /// wraparound via the monotone push counter).
    #[must_use]
    pub fn ordered(&self) -> Vec<SpanEvent> {
        let len = self.events.len() as u64;
        (self.pushed.saturating_sub(len)..self.pushed)
            .map(|i| self.events[(i & self.mask) as usize])
            .collect()
    }

    /// Spans retained right now.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ring capacity (power of two).
    #[must_use]
    pub fn capacity(&self) -> usize {
        (self.mask + 1) as usize
    }

    /// Total spans ever pushed (≥ [`Self::len`]; the difference is how
    /// many were overwritten).
    #[must_use]
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }
}

/// Spans one traced request can carry — generous for the taxonomy above
/// (14 distinct stages) with headroom; overflow is counted, not grown.
pub const SPAN_BUF_CAPACITY: usize = 24;

/// Inline fixed-capacity span buffer that travels with one traced
/// request across threads. No heap allocation per span; overflowing
/// spans are dropped and counted.
#[derive(Clone, Copy, Debug)]
pub struct SpanBuf {
    spans: [SpanEvent; SPAN_BUF_CAPACITY],
    len: u8,
    dropped: u16,
}

impl Default for SpanBuf {
    fn default() -> Self {
        Self {
            spans: [SpanEvent::default(); SPAN_BUF_CAPACITY],
            len: 0,
            dropped: 0,
        }
    }
}

impl SpanBuf {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a span; drops (and counts) it when full.
    pub fn push(&mut self, ev: SpanEvent) {
        if (self.len as usize) < SPAN_BUF_CAPACITY {
            self.spans[self.len as usize] = ev;
            self.len += 1;
        } else {
            self.dropped = self.dropped.saturating_add(1);
        }
    }

    /// The recorded spans, in push order.
    #[must_use]
    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans[..self.len as usize]
    }

    /// Spans dropped to the capacity cap.
    #[must_use]
    pub fn dropped(&self) -> u16 {
        self.dropped
    }
}

fn us(ns: u64) -> Json {
    // Chrome trace-event timestamps are microseconds; fractional values
    // are allowed, and dividing by a constant preserves ordering and
    // containment exactly.
    Json::Num(ns as f64 / 1000.0)
}

/// Renders completed traces as a Chrome trace-event JSON object
/// (`{"traceEvents": [...]}` of `ph: "X"` complete events). Each trace
/// gets its own `tid` track so its spans nest visually; the originating
/// `trace_id` rides in `args` (and names the track via thread metadata).
#[must_use]
pub fn chrome_trace(traces: &[Vec<SpanEvent>]) -> Json {
    let mut events = Vec::new();
    for (i, spans) in traces.iter().enumerate() {
        let tid = i as u64 + 1;
        if let Some(first) = spans.first() {
            events.push(Json::obj(vec![
                ("name", Json::Str("thread_name".into())),
                ("ph", Json::Str("M".into())),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(tid)),
                (
                    "args",
                    Json::obj(vec![(
                        "name",
                        Json::Str(format!("trace {:#x}", first.trace_id)),
                    )]),
                ),
            ]));
        }
        // Parents before children at equal start: Chrome stacks complete
        // events by array order when timestamps tie.
        let mut spans = spans.clone();
        spans.sort_by(|a, b| {
            a.start_ns
                .cmp(&b.start_ns)
                .then(b.end_ns.cmp(&a.end_ns))
                .then(a.stage.depth().cmp(&b.stage.depth()))
        });
        for s in &spans {
            events.push(Json::obj(vec![
                ("name", Json::Str(s.stage.name().into())),
                ("cat", Json::Str("serve".into())),
                ("ph", Json::Str("X".into())),
                ("ts", us(s.start_ns)),
                ("dur", us(s.dur_ns())),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(tid)),
                (
                    "args",
                    Json::obj(vec![("trace_id", Json::UInt(s.trace_id))]),
                ),
            ]));
        }
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ns".into())),
    ])
}

/// What [`validate_chrome`] found in a valid trace file.
#[derive(Debug, Default)]
pub struct ChromeSummary {
    /// Duration (`X`) events validated.
    pub events: usize,
    /// Distinct `(pid, tid)` tracks.
    pub tracks: usize,
    /// Per `trace_id` (from event `args`): the stage names present.
    pub stages_by_trace: HashMap<u64, Vec<String>>,
}

impl ChromeSummary {
    /// Whether some trace contains every one of `names`.
    #[must_use]
    pub fn any_trace_with_stages(&self, names: &[&str]) -> bool {
        self.stages_by_trace
            .values()
            .any(|stages| names.iter().all(|n| stages.iter().any(|s| s == n)))
    }
}

struct TrackEvent {
    ts: f64,
    end: f64,
    name: String,
}

/// Nesting slack: half a nanosecond, in the microsecond units of `ts`.
/// Span ends are reconstructed as `ts + dur` from two rounded doubles,
/// so sub-ns float error must not read as a real overlap (true overlaps
/// in ns-resolution data are ≥ 1 ns).
const NEST_EPS_US: f64 = 5e-4;

/// Validates a parsed Chrome trace-event JSON object: shape, balanced
/// `B`/`E` pairs, and proper nesting of every duration event within its
/// track (children fully contained in parents; siblings non-overlapping
/// by construction of the containment stack).
///
/// # Errors
/// Describes the first malformed or mis-nested event found.
pub fn validate_chrome(v: &Json) -> Result<ChromeSummary, String> {
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents array")?;
    let mut tracks: HashMap<(u64, u64), Vec<TrackEvent>> = HashMap::new();
    let mut begin_stacks: HashMap<(u64, u64), Vec<String>> = HashMap::new();
    let mut summary = ChromeSummary::default();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let pid = ev.get("pid").and_then(Json::as_u64).unwrap_or(0);
        let tid = ev.get("tid").and_then(Json::as_u64).unwrap_or(0);
        match ph {
            "X" => {
                let ts = ev
                    .get("ts")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i} ({name}): missing ts"))?;
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i} ({name}): missing dur"))?;
                if !(ts >= 0.0 && dur >= 0.0) {
                    return Err(format!("event {i} ({name}): negative ts/dur"));
                }
                tracks.entry((pid, tid)).or_default().push(TrackEvent {
                    ts,
                    end: ts + dur,
                    name: name.to_string(),
                });
                if let Some(id) = ev
                    .get("args")
                    .and_then(|a| a.get("trace_id"))
                    .and_then(Json::as_u64)
                {
                    summary
                        .stages_by_trace
                        .entry(id)
                        .or_default()
                        .push(name.to_string());
                }
                summary.events += 1;
            }
            "B" => begin_stacks
                .entry((pid, tid))
                .or_default()
                .push(name.to_string()),
            "E" => {
                let stack = begin_stacks.entry((pid, tid)).or_default();
                match stack.pop() {
                    Some(open) if open == name || name.is_empty() => {}
                    Some(open) => {
                        return Err(format!(
                            "event {i}: E {name:?} closes B {open:?} (mismatched pair)"
                        ))
                    }
                    None => return Err(format!("event {i}: E {name:?} without a matching B")),
                }
            }
            // Metadata, counters, instants, etc. don't affect nesting.
            _ => {}
        }
    }
    for ((pid, tid), stack) in &begin_stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "unbalanced B event {open:?} never closed on track {pid}/{tid}"
            ));
        }
    }
    summary.tracks = tracks.len();
    for ((pid, tid), mut evs) in tracks {
        // Parents first at equal start (longer span opens the scope).
        evs.sort_by(|a, b| {
            a.ts.partial_cmp(&b.ts)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    b.end
                        .partial_cmp(&a.end)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        });
        let mut stack: Vec<TrackEvent> = Vec::new();
        for ev in evs {
            while stack
                .last()
                .is_some_and(|top| top.end <= ev.ts + NEST_EPS_US)
            {
                stack.pop();
            }
            if let Some(top) = stack.last() {
                if ev.end > top.end + NEST_EPS_US {
                    return Err(format!(
                        "track {pid}/{tid}: {:?} [{}..{}] overlaps {:?} [{}..{}] without nesting",
                        ev.name, ev.ts, ev.end, top.name, top.ts, top.end
                    ));
                }
            }
            stack.push(ev);
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace_id: u64, stage: Stage, start_ns: u64, end_ns: u64) -> SpanEvent {
        SpanEvent {
            trace_id,
            stage,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn ring_wraparound_preserves_push_order() {
        let mut ring = SpanRing::new(3); // rounds to 4
        assert_eq!(ring.capacity(), 4);
        for i in 0..10u64 {
            ring.push(ev(i, Stage::EngineRun, i * 100, i * 100 + 50));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.total_pushed(), 10);
        let ids: Vec<u64> = ring.ordered().iter().map(|e| e.trace_id).collect();
        // Oldest-first after two-and-a-half wraps: exactly the last four,
        // in the order they were pushed.
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_before_wraparound_keeps_everything() {
        let mut ring = SpanRing::new(8);
        for i in 0..5u64 {
            ring.push(ev(i, Stage::Parse, i, i + 1));
        }
        let ids: Vec<u64> = ring.ordered().iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(ring.capacity(), 8);
    }

    #[test]
    fn ring_never_reallocates_past_construction() {
        let mut ring = SpanRing::new(4);
        let cap_before = ring.events.capacity();
        for i in 0..100 {
            ring.push(ev(i, Stage::Write, 0, 1));
        }
        assert_eq!(ring.events.capacity(), cap_before);
    }

    #[test]
    fn span_buf_overflow_is_counted_not_grown() {
        let mut buf = SpanBuf::new();
        for i in 0..(SPAN_BUF_CAPACITY as u64 + 5) {
            buf.push(ev(1, Stage::Sim, i, i + 1));
        }
        assert_eq!(buf.spans().len(), SPAN_BUF_CAPACITY);
        assert_eq!(buf.dropped(), 5);
        assert_eq!(buf.spans()[0].start_ns, 0);
    }

    #[test]
    fn stage_names_round_trip_and_depths_nest() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::Request.depth(), 0);
        assert_eq!(Stage::Compile.depth(), 1);
        assert_eq!(Stage::CompileBuild.depth(), 2);
        assert_eq!(Stage::Sim.depth(), 2);
    }

    fn nested_trace(id: u64) -> Vec<SpanEvent> {
        vec![
            ev(id, Stage::Request, 0, 1000),
            ev(id, Stage::Parse, 10, 50),
            ev(id, Stage::Admit, 50, 80),
            ev(id, Stage::QueueWait, 80, 200),
            ev(id, Stage::CacheLookup, 200, 240),
            ev(id, Stage::Compile, 240, 600),
            ev(id, Stage::CompileBuild, 240, 500),
            ev(id, Stage::CompileLoad, 500, 600),
            ev(id, Stage::EngineRun, 600, 900),
            ev(id, Stage::Sim, 650, 900),
            ev(id, Stage::Write, 900, 1000),
        ]
    }

    #[test]
    fn chrome_export_round_trips_through_the_validator() {
        let traces = vec![nested_trace(7), nested_trace(9)];
        let j = chrome_trace(&traces);
        // Survive serialization: CI validates the written file.
        let parsed = crate::json::parse(&j.to_string()).unwrap();
        let summary = validate_chrome(&parsed).unwrap();
        assert_eq!(summary.events, 22);
        assert_eq!(summary.tracks, 2);
        assert!(summary.any_trace_with_stages(&[
            "request",
            "admit",
            "queue_wait",
            "compile",
            "compile.build",
            "engine_run",
            "write",
        ]));
        assert!(!summary.any_trace_with_stages(&["accept"]));
        assert_eq!(summary.stages_by_trace.len(), 2);
    }

    #[test]
    fn validator_rejects_overlapping_non_nested_spans() {
        let bad = vec![vec![
            ev(1, Stage::Request, 0, 100),
            ev(1, Stage::EngineRun, 50, 150), // pokes out of its parent
        ]];
        let j = chrome_trace(&bad);
        let err = validate_chrome(&j).unwrap_err();
        assert!(err.contains("without nesting"), "{err}");
    }

    #[test]
    fn validator_accepts_shared_boundaries_and_zero_width() {
        let ok = vec![vec![
            ev(1, Stage::Request, 0, 100),
            ev(1, Stage::Parse, 0, 40),      // starts with its parent
            ev(1, Stage::Write, 40, 100),    // ends with its parent
            ev(1, Stage::Serialize, 40, 40), // collapsed to zero width
        ]];
        assert!(validate_chrome(&chrome_trace(&ok)).is_ok());
    }

    #[test]
    fn validator_checks_begin_end_balance() {
        let balanced = Json::obj(vec![(
            "traceEvents",
            Json::Arr(vec![
                Json::obj(vec![
                    ("name", Json::Str("a".into())),
                    ("ph", Json::Str("B".into())),
                    ("ts", Json::Num(0.0)),
                ]),
                Json::obj(vec![
                    ("name", Json::Str("a".into())),
                    ("ph", Json::Str("E".into())),
                    ("ts", Json::Num(5.0)),
                ]),
            ]),
        )]);
        assert!(validate_chrome(&balanced).is_ok());
        let unbalanced = Json::obj(vec![(
            "traceEvents",
            Json::Arr(vec![Json::obj(vec![
                ("name", Json::Str("a".into())),
                ("ph", Json::Str("B".into())),
                ("ts", Json::Num(0.0)),
            ])]),
        )]);
        let err = validate_chrome(&unbalanced).unwrap_err();
        assert!(err.contains("never closed"), "{err}");
        let mismatched = Json::obj(vec![(
            "traceEvents",
            Json::Arr(vec![Json::obj(vec![
                ("name", Json::Str("a".into())),
                ("ph", Json::Str("E".into())),
                ("ts", Json::Num(1.0)),
            ])]),
        )]);
        assert!(validate_chrome(&mismatched).is_err());
    }

    #[test]
    fn validator_rejects_shapeless_input() {
        assert!(validate_chrome(&Json::UInt(3)).is_err());
        assert!(validate_chrome(&Json::obj(vec![])).is_err());
        let no_ts = Json::obj(vec![(
            "traceEvents",
            Json::Arr(vec![Json::obj(vec![
                ("name", Json::Str("x".into())),
                ("ph", Json::Str("X".into())),
            ])]),
        )]);
        assert!(validate_chrome(&no_ts).is_err());
    }
}
