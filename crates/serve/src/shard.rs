//! The shard event loop: one thread that owns everything for its slice
//! of the server.
//!
//! Each shard is a single-threaded event loop owning its own non-blocking
//! connection set, graph-registry partition, compiled-network cache
//! entries (they live on the partition's handles), and local run queue.
//! Graphs route to shards by [`crate::cache::name_hash`], so a graph's
//! compiled networks and memoized results live on exactly one shard and
//! no cross-shard cache locking exists. The loop per iteration:
//!
//! 1. adopt connections handed off by the accept loop (SPSC ring),
//! 2. deliver reply lines mailed by other shards (pipelined responses
//!    stay in request order via per-connection sequence numbers),
//! 3. execute a batch of jobs from the shard's own admission queue
//!    (deadline checked at pop, exactly as the old worker pool did),
//! 4. flush ready responses, closing finished connections,
//! 5. exit if draining and every obligation is met,
//! 6. block in [`crate::reactor::Poller::wait`] until a socket is ready
//!    or a [`crate::reactor::Waker`] fires — an idle shard makes no
//!    syscalls at all,
//! 7. read readable sockets, parse complete lines, route them.
//!
//! A query line parsed on connection-owning shard A for a graph owned by
//! shard B is pushed onto B's queue with a [`ReplyTo::Conn`] address; B
//! executes, **serializes** (so rendering cost lands on the graph's
//! owner, next to its caches), and mails the finished line back to A's
//! inbox. A shard never exits the drain while any of its connections has
//! an unanswered pipelined request — that is what makes "every admitted
//! job is answered" hold across shard boundaries.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sgl_observe::trace::Stage;
use sgl_observe::{parse_json, Json};
use sgl_snn::engine::RunScratch;

use crate::admission::{AdmissionError, Job, Lifecycle, Popped, ReplyTo};
use crate::protocol::{parse_request, ErrorKind, OpKind, Response};
use crate::reactor::{stream_fd, Event, Interest, Poller, Waker};
use crate::ring::HandoffRing;
use crate::session::{execute_control, execute_query, micros, ServerInner};
use crate::stats::Counters;
use crate::trace::TraceCtx;

/// Hard cap on one request line. A client streaming an endless line
/// would otherwise grow the accumulation buffer without bound; past this
/// it gets a `bad_request` and the connection is closed (framing can't
/// be resynchronized mid-line). Generous enough for `load_graph` DIMACS
/// payloads in the hundreds of thousands of edges.
pub(crate) const MAX_LINE_BYTES: usize = 16 << 20;

/// Jobs executed per loop iteration before I/O is serviced again, so a
/// deep queue cannot starve reads and writes. Each iteration pays one
/// `poll` (an O(connections) scan in the kernel), so the batch must be
/// large enough to amortize that scan at high connection counts.
const EXEC_BATCH: usize = 1024;

/// Capacity of each shard's connection-handoff ring. A full ring makes
/// the accept loop try the next shard, so bursts load-balance instead of
/// queueing unboundedly on one shard.
pub(crate) const RING_CAPACITY: usize = 1024;

/// A finished response line mailed from the executing shard back to the
/// connection-owning shard.
pub(crate) struct Reply {
    /// Connection id on the receiving shard.
    pub(crate) conn: u64,
    /// The pipelined-order slot this line fills.
    pub(crate) seq: u64,
    /// The rendered response line (no trailing newline).
    pub(crate) line: String,
    /// Span context still to record `write` and be finished.
    pub(crate) trace: Option<Box<TraceCtx>>,
}

/// A shard's cross-thread surface: everything other threads may touch.
/// The shard's private state (connections, poller, scratch) lives on its
/// own stack.
pub(crate) struct ShardIo {
    /// Interrupts the shard's poll wait.
    pub(crate) waker: Waker,
    /// Reply lines from other shards.
    pub(crate) inbox: Mutex<VecDeque<Reply>>,
    /// Connections handed off by the accept loop.
    pub(crate) ring: HandoffRing<TcpStream>,
}

enum PendingState {
    /// Executing on some shard; the reply will arrive by mail.
    Waiting,
    /// Rendered and ready to write once every earlier response is out.
    Ready {
        line: String,
        trace: Option<Box<TraceCtx>>,
    },
}

struct Pending {
    seq: u64,
    state: PendingState,
}

struct Conn {
    stream: TcpStream,
    /// Partial-line accumulation across reads (a request spanning
    /// multiple reads must never be truncated or re-framed).
    rbuf: Vec<u8>,
    /// Serialized-but-unsent bytes (socket buffer was full).
    wbuf: Vec<u8>,
    /// Responses in request order; only the Ready prefix may be written.
    pending: VecDeque<Pending>,
    next_seq: u64,
    /// Client half-closed; answer what's pending, then close.
    eof: bool,
    /// Socket error; discard without further I/O.
    dead: bool,
    /// Whether the poller registration currently includes write interest.
    wants_write: bool,
    /// On the loop's dirty list (something to flush or re-check). Keeps
    /// per-iteration work proportional to touched connections, not held
    /// ones.
    dirty: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            pending: VecDeque::new(),
            next_seq: 0,
            eof: false,
            dead: false,
            wants_write: false,
            dirty: false,
        }
    }

    fn push_ready(&mut self, line: String, trace: Option<Box<TraceCtx>>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back(Pending {
            seq,
            state: PendingState::Ready { line, trace },
        });
    }
}

/// The shard thread body. Runs until the server drains and every
/// obligation of this shard — queued jobs, unanswered pipelined
/// requests, unflushed bytes — is met.
pub(crate) fn shard_loop(inner: &Arc<ServerInner>, me: usize, mut poller: Poller) {
    let mut scratch = RunScratch::new();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn: u64 = 1;
    let mut events: Vec<Event> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut dirty: Vec<u64> = Vec::new();
    loop {
        // 1. Adopt handed-off connections.
        while let Some(stream) = inner.shard_io[me].ring.pop() {
            if stream.set_nonblocking(true).is_err() {
                Counters::gauge_dec(&inner.counters.connections);
                continue;
            }
            // One small JSON line each way per request: Nagle + delayed
            // ACK would add tens of milliseconds per round trip.
            let _ = stream.set_nodelay(true);
            let id = next_conn;
            next_conn += 1;
            poller.register(stream_fd(&stream), token(id), Interest::Read);
            Counters::gauge_inc(&inner.gauges[me].connections);
            conns.insert(id, Conn::new(stream));
        }

        // 2. Deliver cross-shard replies into their pipelined slots.
        let replies = std::mem::take(&mut *inner.shard_io[me].inbox.lock().expect("shard inbox"));
        for reply in replies {
            deliver(inner, &mut conns, reply, &mut dirty);
        }

        // 3. Execute a batch from this shard's own queue.
        for _ in 0..EXEC_BATCH {
            match inner.queues[me].try_pop() {
                Popped::Job(job) => {
                    execute_job(inner, me, job, &mut scratch, &mut conns, &mut dirty)
                }
                Popped::Empty | Popped::ShuttingDown => break,
            }
        }

        // 4. Flush ready responses on touched connections only, keep
        // write interest in sync, and close finished ones. A held-open
        // idle connection costs nothing here.
        for id in dirty.drain(..) {
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            conn.dirty = false;
            flush_conn(inner, conn);
            let want = !conn.wbuf.is_empty() && !conn.dead;
            if want != conn.wants_write {
                conn.wants_write = want;
                let interest = if want {
                    Interest::ReadWrite
                } else {
                    Interest::Read
                };
                poller.register(stream_fd(&conn.stream), token(id), interest);
            }
            let finished = conn.eof && conn.pending.is_empty() && conn.wbuf.is_empty();
            if conn.dead || finished {
                if let Some(conn) = conns.remove(&id) {
                    poller.deregister(token(id));
                    drop_conn(inner, me, conn);
                }
            }
        }

        // 5. Drain exit: only once nothing can owe this shard's clients
        // an answer. try_push rejects after drain began, so these
        // conditions can only become true, never false again.
        let draining = inner.queues[me].lifecycle() != Lifecycle::Running;
        if draining {
            let obligations = inner.queues[me].depth() > 0
                || !inner.shard_io[me].ring.is_empty()
                || !inner.shard_io[me]
                    .inbox
                    .lock()
                    .expect("shard inbox")
                    .is_empty()
                || conns
                    .values()
                    .any(|c| !c.dead && (!c.pending.is_empty() || !c.wbuf.is_empty()));
            if !obligations {
                for (id, conn) in conns.drain() {
                    poller.deregister(token(id));
                    drop_conn(inner, me, conn);
                }
                return;
            }
        }

        // 6. Wait for readiness or a wakeup. With work still queued poll
        // only collects already-pending I/O; an idle shard blocks
        // indefinitely and makes no syscalls until woken.
        let work_pending = inner.queues[me].depth() > 0
            || !inner.shard_io[me].ring.is_empty()
            || !inner.shard_io[me]
                .inbox
                .lock()
                .expect("shard inbox")
                .is_empty();
        let timeout = if work_pending {
            Some(Duration::ZERO)
        } else if draining {
            // Safety-net tick while draining: every exit condition is
            // also event-driven, this just bounds a missed edge.
            Some(Duration::from_millis(50))
        } else {
            None
        };
        events.clear();
        if poller.wait(timeout, &mut events).is_err() {
            // A failing poll must not become a hot spin.
            std::thread::sleep(Duration::from_millis(1));
        }

        // 7. Service the sockets poll reported. Responses created here
        // (and any state change worth a close-check) flush in the next
        // iteration's step 4, before the loop polls again.
        for ev in &events {
            let id = ev.token as u64;
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if ev.readable {
                read_conn(inner, me, id, conn, &mut chunk);
            } else if ev.closed {
                conn.dead = true;
            }
            if !conn.dirty {
                conn.dirty = true;
                dirty.push(id);
            }
        }
    }
}

fn token(conn_id: u64) -> usize {
    usize::try_from(conn_id).unwrap_or(usize::MAX)
}

fn drop_conn(inner: &ServerInner, me: usize, conn: Conn) {
    // Traces of responses that will never be written still finish.
    for p in conn.pending {
        if let PendingState::Ready {
            trace: Some(ctx), ..
        } = p.state
        {
            inner.tracing.finish(ctx);
        }
    }
    Counters::gauge_dec(&inner.gauges[me].connections);
    Counters::gauge_dec(&inner.counters.connections);
}

/// Files a reply line into its connection's pipelined slot (or finishes
/// its trace if the connection is gone), marking the connection for the
/// next flush pass.
fn deliver(
    inner: &ServerInner,
    conns: &mut HashMap<u64, Conn>,
    reply: Reply,
    dirty: &mut Vec<u64>,
) {
    if let Some(conn) = conns.get_mut(&reply.conn) {
        if let Some(p) = conn.pending.iter_mut().find(|p| p.seq == reply.seq) {
            p.state = PendingState::Ready {
                line: reply.line,
                trace: reply.trace,
            };
            if !conn.dirty {
                conn.dirty = true;
                dirty.push(reply.conn);
            }
            return;
        }
    }
    if let Some(ctx) = reply.trace {
        inner.tracing.finish(ctx);
    }
}

/// Renders a response line on the executing shard: `serialize` span,
/// trace-id echo (a client-supplied id echoes even when tracing is off
/// server-side, so untraced lines stay byte-identical).
fn serialize_line(
    id: Option<u64>,
    client_trace: Option<u64>,
    response: &Response,
    trace: &mut Option<Box<TraceCtx>>,
) -> String {
    let ser_start = trace.as_deref().map(|c| c.now_ns());
    let echo = client_trace.or(trace.as_deref().map(|c| c.trace_id));
    let out = response.to_json_traced(id, echo).to_string();
    if let (Some(ctx), Some(s)) = (trace.as_deref_mut(), ser_start) {
        ctx.record(Stage::Serialize, s, ctx.now_ns());
    }
    out
}

/// Pops one job's worth of work: queue-wait accounting, deadline check
/// at pop, execution, and reply delivery (slot fill for in-process
/// callers; serialize-and-mail for TCP requests).
fn execute_job(
    inner: &Arc<ServerInner>,
    me: usize,
    mut job: Job,
    scratch: &mut RunScratch,
    conns: &mut HashMap<u64, Conn>,
    dirty: &mut Vec<u64>,
) {
    let popped = Instant::now();
    let waited = popped.duration_since(job.enqueued);
    let depth = inner.queues[me].depth() as u64;
    inner.stats.with_shard(me, |s| {
        s.queue_wait_us.record(micros(waited));
        s.queue_depth.record(depth);
    });
    if let Some(ctx) = job.trace.as_deref_mut() {
        // Starts exactly where the admit span ended (same instant).
        ctx.record(Stage::QueueWait, ctx.ns_at(job.enqueued), ctx.ns_at(popped));
    }
    let kind = job.envelope.request.kind();
    let response = if job.deadline.is_some_and(|d| waited > d) {
        Counters::bump(&inner.counters.deadline_exceeded);
        inner.stats.with_shard(me, |s| s.record(kind, 0, false));
        Response::error(
            ErrorKind::DeadlineExceeded,
            format!("waited {} µs in queue, past the deadline", micros(waited)),
        )
    } else {
        Counters::gauge_inc(&inner.counters.in_flight);
        Counters::gauge_inc(&inner.gauges[me].in_flight);
        // TCP replies splice the memoized pre-rendered bytes; in-process
        // callers need the structured value (they inspect fields).
        let prefer_raw = matches!(job.reply, ReplyTo::Conn { .. });
        let t0 = Instant::now();
        let response = execute_query(
            inner,
            &job.envelope.request,
            scratch,
            me,
            &mut job.trace,
            prefer_raw,
        );
        inner.stats.with_shard(me, |s| {
            s.record(kind, micros(t0.elapsed()), response.is_ok());
        });
        Counters::gauge_dec(&inner.gauges[me].in_flight);
        Counters::gauge_dec(&inner.counters.in_flight);
        response
    };
    // Every admitted job is answered — the drain-safety invariant.
    match job.reply {
        ReplyTo::Slot(slot) => slot.fill(response, job.trace),
        ReplyTo::Conn { shard, conn, seq } => {
            let mut trace = job.trace;
            let line = serialize_line(
                job.envelope.id,
                job.envelope.trace_id,
                &response,
                &mut trace,
            );
            let reply = Reply {
                conn,
                seq,
                line,
                trace,
            };
            if shard == me {
                deliver(inner, conns, reply, dirty);
            } else {
                inner.shard_io[shard]
                    .inbox
                    .lock()
                    .expect("shard inbox")
                    .push_back(reply);
                inner.shard_io[shard].waker.wake();
            }
        }
    }
}

fn drain_wbuf(conn: &mut Conn) -> bool {
    while !conn.wbuf.is_empty() {
        match conn.stream.write(&conn.wbuf) {
            Ok(0) => {
                conn.dead = true;
                return false;
            }
            Ok(n) => {
                conn.wbuf.drain(..n);
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == IoErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return false;
            }
        }
    }
    true
}

/// Writes the Ready prefix of the pipelined queue. A Waiting entry stops
/// the flush — later responses must not overtake it. A full socket
/// buffer also stops it (backpressure: nothing more is rendered into
/// `wbuf` until it drains), leaving write interest to re-arm the poller.
fn flush_conn(inner: &ServerInner, conn: &mut Conn) {
    if conn.dead {
        return;
    }
    loop {
        if !drain_wbuf(conn) {
            return;
        }
        if !conn.wbuf.is_empty() {
            return;
        }
        match conn.pending.front() {
            Some(Pending {
                state: PendingState::Ready { .. },
                ..
            }) => {}
            _ => return,
        }
        let Some(Pending { state, .. }) = conn.pending.pop_front() else {
            return;
        };
        let PendingState::Ready { line, trace } = state else {
            return;
        };
        let write_start = trace.as_deref().map(|c| c.now_ns());
        conn.wbuf.extend_from_slice(line.as_bytes());
        conn.wbuf.push(b'\n');
        let ok = drain_wbuf(conn);
        if let Some(mut ctx) = trace {
            if let Some(s) = write_start {
                ctx.record(Stage::Write, s, ctx.now_ns());
            }
            inner.tracing.finish(ctx);
        }
        if !ok {
            return;
        }
    }
}

/// Reads everything available, processing each complete line. EOF
/// answers a final unterminated line (a client may half-close after its
/// last request) before the connection winds down.
fn read_conn(inner: &Arc<ServerInner>, me: usize, id: u64, conn: &mut Conn, chunk: &mut [u8]) {
    if conn.eof || conn.dead {
        return;
    }
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => {
                conn.eof = true;
                if !conn.rbuf.is_empty() {
                    let raw = std::mem::take(&mut conn.rbuf);
                    handle_line(inner, me, id, conn, &raw);
                }
                return;
            }
            Ok(n) => {
                let scanned = conn.rbuf.len();
                conn.rbuf.extend_from_slice(&chunk[..n]);
                process_lines(inner, me, id, conn, scanned);
                if conn.dead || conn.eof {
                    return;
                }
                if n < chunk.len() {
                    // Likely drained; poll is level-triggered, so any
                    // remainder re-reports readable.
                    return;
                }
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => return,
            Err(e) if e.kind() == IoErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Handles every complete line in the connection's read buffer. The
/// first `scanned` bytes are known to hold no newline (a buffer left
/// behind here never does), so the search starts past them: a long
/// line arriving in many reads is scanned once, not once per read.
fn process_lines(inner: &Arc<ServerInner>, me: usize, id: u64, conn: &mut Conn, scanned: usize) {
    let mut buf = std::mem::take(&mut conn.rbuf);
    let mut start = 0;
    let mut from = scanned;
    while let Some(rel) = buf[from..].iter().position(|&b| b == b'\n') {
        let end = from + rel;
        handle_line(inner, me, id, conn, &buf[start..end]);
        start = end + 1;
        from = start;
        if conn.dead {
            break;
        }
    }
    buf.drain(..start);
    conn.rbuf = buf;
    if conn.rbuf.len() > MAX_LINE_BYTES {
        // An over-long line is unframeable; synthesize the typed
        // rejection directly rather than parsing 16 MiB of it.
        let line = Response::error(
            ErrorKind::BadRequest,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        )
        .to_json(None)
        .to_string();
        conn.push_ready(line, None);
        conn.rbuf.clear();
        conn.eof = true; // Stop reading; close once the rejection flushes.
    }
}

/// One complete request line off the wire: parse, trace, route. Query
/// ops go to the graph's owner shard's queue; control ops execute inline
/// on this shard (`server_stats` and `shutdown` must keep working while
/// queues are full or draining). Every outcome lands exactly one entry
/// in the connection's pipelined-response queue.
fn handle_line(inner: &Arc<ServerInner>, me: usize, conn_id: u64, conn: &mut Conn, raw: &[u8]) {
    let received = Instant::now();
    let text = String::from_utf8_lossy(raw);
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return;
    }
    let parse_start = Instant::now();
    let parsed = match parse_json(trimmed) {
        Ok(v) => v,
        Err(e) => {
            let line = Response::error(ErrorKind::BadRequest, format!("invalid JSON: {e}"))
                .to_json(None)
                .to_string();
            conn.push_ready(line, None);
            return;
        }
    };
    let env = match parse_request(&parsed) {
        Ok(env) => env,
        Err(msg) => {
            // Echo the id even for malformed requests when present.
            let id = parsed.get("id").and_then(Json::as_u64);
            let line = Response::error(ErrorKind::BadRequest, msg)
                .to_json(id)
                .to_string();
            conn.push_ready(line, None);
            return;
        }
    };
    let client_trace = env.trace_id;
    let mut trace = inner.tracing.begin(client_trace, received);
    if let Some(ctx) = trace.as_deref_mut() {
        let t1 = ctx.ns_at(parse_start);
        ctx.record(Stage::Accept, ctx.start_ns, t1);
        ctx.record(Stage::Parse, t1, ctx.now_ns());
    }
    match env.request.kind() {
        OpKind::Sssp | OpKind::Khop | OpKind::ApspRow => {
            let target = inner.route(env.request.graph_name().unwrap_or(""));
            let admit_start = Instant::now();
            let deadline = env
                .deadline_ms
                .or(inner.config.default_deadline_ms)
                .map(Duration::from_millis);
            let enqueued = Instant::now();
            if let Some(ctx) = trace.as_deref_mut() {
                // The admit span ends exactly where queue_wait begins.
                ctx.record(Stage::Admit, ctx.ns_at(admit_start), ctx.ns_at(enqueued));
            }
            let seq = conn.next_seq;
            conn.next_seq += 1;
            let job = Job {
                envelope: env,
                enqueued,
                deadline,
                reply: ReplyTo::Conn {
                    shard: me,
                    conn: conn_id,
                    seq,
                },
                trace,
            };
            match inner.queues[target].try_push(job) {
                Ok(()) => {
                    Counters::bump(&inner.counters.admitted);
                    conn.pending.push_back(Pending {
                        seq,
                        state: PendingState::Waiting,
                    });
                    if target != me {
                        inner.shard_io[target].waker.wake();
                    }
                }
                Err(AdmissionError::Full(job)) => {
                    Counters::bump(&inner.counters.shed);
                    let response = Response::error(
                        ErrorKind::Overloaded,
                        format!(
                            "admission queue full ({} waiting); retry later",
                            inner.queues[target].capacity()
                        ),
                    );
                    reject(conn, seq, job, &response);
                }
                Err(AdmissionError::Draining(job)) => {
                    Counters::bump(&inner.counters.rejected_draining);
                    let response = Response::error(ErrorKind::Draining, "server is draining");
                    reject(conn, seq, job, &response);
                }
            }
        }
        kind => {
            let t0 = Instant::now();
            let response = execute_control(inner, &env.request);
            inner.stats.with_shard(me, |s| {
                s.record(kind, micros(t0.elapsed()), response.is_ok());
            });
            let line = serialize_line(env.id, client_trace, &response, &mut trace);
            conn.pending.push_back(Pending {
                seq: {
                    let s = conn.next_seq;
                    conn.next_seq += 1;
                    s
                },
                state: PendingState::Ready { line, trace },
            });
        }
    }
}

/// A typed admission rejection, serialized immediately into the slot the
/// request already claimed in the pipeline order.
fn reject(conn: &mut Conn, seq: u64, job: Job, response: &Response) {
    let mut trace = job.trace;
    let line = serialize_line(job.envelope.id, job.envelope.trace_id, response, &mut trace);
    conn.pending.push_back(Pending {
        seq,
        state: PendingState::Ready { line, trace },
    });
}
