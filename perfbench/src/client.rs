//! The benchmark's own load generator: one thread, a few pipelined TCP
//! connections, readiness-driven through `ppoll(2)` so the next scheduled
//! send is waited for with nanosecond (not millisecond) timeouts.
//!
//! *Open loop* ([`open_loop`]) sends request `i` when its scheduled
//! instant comes, whether or not earlier answers have arrived, and times
//! it **from the scheduled instant**: a server stall that delays sends
//! (or answers) is charged to every request it delays. How late the
//! generator itself sent is recorded separately as lag.
//!
//! *Closed loop* ([`closed_loop`]) keeps a fixed number of requests
//! outstanding per connection and reports the completion rate — the
//! service's capacity at that concurrency. [`closed_batches`] sends whole
//! batches on one connection, each once the previous one is answered.
//!
//! Responses on one connection arrive in request order (the server's
//! pipelining contract), so each connection matches replies to a FIFO of
//! its outstanding requests.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use std::os::unix::io::AsRawFd;

/// A phase fails when requests stay unanswered this long with no answer
/// or send in between.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// One answered request.
#[derive(Clone, Debug, Default)]
pub struct Completion {
    /// Scheduled send, since the phase start.
    pub due: Duration,
    /// Actual send (the first byte handed to the socket).
    pub sent: Duration,
    /// Full response line received.
    pub done: Duration,
    /// The response line (no newline).
    pub line: String,
}

impl Completion {
    /// Latency from the scheduled send, in ms.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent, in µs.
    #[must_use]
    pub fn lag_us(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e6
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    outstanding: VecDeque<usize>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Self {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            outstanding: VecDeque::new(),
        })
    }

    fn queue(&mut self, idx: usize, line: &str) {
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.outstanding.push_back(idx);
    }

    fn flush(&mut self) -> Result<(), String> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }

    fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    fn pollfd(&self) -> sys::PollFd {
        let mut events = sys::POLLIN;
        if self.wants_write() {
            events |= sys::POLLOUT;
        }
        sys::PollFd {
            fd: self.stream.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// Reads what is available; returns completed `(request index, line)`.
    fn read_lines(&mut self, done: &mut Vec<(usize, String)>) -> Result<(), String> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    if self.outstanding.is_empty() {
                        return Ok(());
                    }
                    return Err("server closed the connection with requests outstanding".into());
                }
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        let mut start = 0;
        while let Some(pos) = self.inbuf[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.inbuf[start..start + pos]).into_owned();
            start += pos + 1;
            let idx = self
                .outstanding
                .pop_front()
                .ok_or("response without an outstanding request")?;
            done.push((idx, line));
        }
        self.inbuf.drain(..start);
        Ok(())
    }
}

/// A small set of pipelined connections behind one `ppoll`.
struct Pool {
    conns: Vec<Conn>,
    fds: Vec<sys::PollFd>,
    done: Vec<(usize, String)>,
}

impl Pool {
    fn open(addr: SocketAddr, conns: usize) -> Result<Self, String> {
        let conns = (0..conns.max(1))
            .map(|_| Conn::open(addr))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            conns,
            fds: Vec::new(),
            done: Vec::new(),
        })
    }

    fn send(&mut self, conn: usize, idx: usize, line: &str) -> Result<(), String> {
        let c = &mut self.conns[conn];
        c.queue(idx, line);
        c.flush()
    }

    /// Waits up to `timeout` for readiness, then services every ready
    /// connection; completed replies land in `self.done`.
    fn service(&mut self, timeout: Duration) -> Result<(), String> {
        self.fds.clear();
        self.fds.extend(self.conns.iter().map(Conn::pollfd));
        sys::wait(&mut self.fds, timeout).map_err(|e| format!("ppoll: {e}"))?;
        for (c, fd) in self.conns.iter_mut().zip(&self.fds) {
            if fd.revents & sys::POLLOUT != 0 {
                c.flush()?;
            }
            if fd.revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 {
                c.read_lines(&mut self.done)?;
            }
        }
        Ok(())
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.outstanding.len()).sum()
    }
}

/// One request of an open-loop schedule.
#[derive(Clone, Debug)]
pub struct Scheduled {
    /// When it is due, after the phase start.
    pub due: Duration,
    /// Connection index it goes out on (requests on one connection are
    /// answered in order, so a read sent after a write on the same
    /// connection sees that write).
    pub conn: usize,
    /// The request line (no newline).
    pub line: String,
    /// An earlier request of the schedule (by index) that must be
    /// answered before this one is sent. The wait counts against this
    /// request's latency, and later requests wait behind it.
    pub after: Option<usize>,
}

/// Runs an open-loop phase over `conns` connections: each request goes
/// out when due (and once its `after` request is answered), ordered by due
/// time. Returns one completion per request, in schedule order.
///
/// # Errors
/// On connection failures or when answers stop arriving.
pub fn open_loop(
    addr: SocketAddr,
    conns: usize,
    schedule: &[Scheduled],
) -> Result<Vec<Completion>, String> {
    debug_assert!(schedule.windows(2).all(|w| w[0].due <= w[1].due));
    debug_assert!(schedule
        .iter()
        .enumerate()
        .all(|(i, r)| r.after.is_none_or(|a| a < i)));
    let mut pool = Pool::open(addr, conns)?;
    let nconns = pool.conns.len();
    let total = schedule.len();
    let mut sent = vec![Duration::ZERO; total];
    let mut out: Vec<Option<Completion>> = vec![None; total];
    let mut finished = 0usize;
    let mut next = 0usize;
    let start = Instant::now();
    let mut last_progress = Instant::now();
    while finished < total {
        while next < total
            && schedule[next].due <= start.elapsed()
            && schedule[next].after.is_none_or(|a| out[a].is_some())
        {
            sent[next] = start.elapsed();
            let r = &schedule[next];
            pool.send(r.conn % nconns, next, &r.line)?;
            next += 1;
            last_progress = Instant::now();
        }
        // Wait for the next due time; a request held for an answer waits
        // for the answer, which ends the wait.
        let timeout = match schedule.get(next) {
            Some(r) if r.after.is_none_or(|a| out[a].is_some()) => {
                r.due.saturating_sub(start.elapsed())
            }
            _ => Duration::from_millis(50),
        };
        pool.service(timeout)?;
        let at = start.elapsed();
        for (idx, line) in pool.done.drain(..) {
            out[idx] = Some(Completion {
                due: schedule[idx].due,
                sent: sent[idx],
                done: at,
                line,
            });
            finished += 1;
            last_progress = Instant::now();
        }
        if pool.outstanding() > 0 && last_progress.elapsed() > DRAIN_TIMEOUT {
            return Err(format!(
                "{} requests unanswered after {DRAIN_TIMEOUT:?}",
                pool.outstanding()
            ));
        }
    }
    Ok(out
        .into_iter()
        .map(|c| c.expect("every request completed"))
        .collect())
}

/// Runs a closed-loop phase: every connection keeps `depth` requests in
/// flight until all `lines` are answered. Returns one completion per
/// request, in request order (each is due when it was sent), and the
/// phase's wall time.
///
/// # Errors
/// On connection failures or when answers stop arriving.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    depth: usize,
    lines: &[String],
) -> Result<(Vec<Completion>, Duration), String> {
    let mut pool = Pool::open(addr, conns)?;
    let nconns = pool.conns.len();
    let mut out: Vec<Option<Completion>> = vec![None; lines.len()];
    let mut sent = vec![Duration::ZERO; lines.len()];
    let mut conn_of = vec![0usize; lines.len()];
    let mut next = 0usize;
    let mut finished = 0usize;
    let start = Instant::now();
    for c in 0..nconns {
        for _ in 0..depth.max(1) {
            if next < lines.len() {
                conn_of[next] = c;
                sent[next] = start.elapsed();
                pool.send(c, next, &lines[next])?;
                next += 1;
            }
        }
    }
    let mut last_progress = Instant::now();
    while finished < lines.len() {
        pool.service(Duration::from_millis(50))?;
        let at = start.elapsed();
        let done: Vec<(usize, String)> = pool.done.drain(..).collect();
        for (idx, line) in done {
            out[idx] = Some(Completion {
                due: sent[idx],
                sent: sent[idx],
                done: at,
                line,
            });
            finished += 1;
            last_progress = Instant::now();
            // Refill the connection that just freed a slot.
            if next < lines.len() {
                conn_of[next] = conn_of[idx];
                sent[next] = start.elapsed();
                pool.send(conn_of[idx], next, &lines[next])?;
                next += 1;
            }
        }
        if last_progress.elapsed() > DRAIN_TIMEOUT {
            return Err(format!(
                "{} requests unanswered after {DRAIN_TIMEOUT:?}",
                pool.outstanding()
            ));
        }
    }
    let wall = start.elapsed();
    Ok((
        out.into_iter()
            .map(|c| c.expect("every request completed"))
            .collect(),
        wall,
    ))
}

/// Runs batches closed-loop on one connection: all lines of a batch are
/// sent at once, and the next batch only when every line of the previous
/// one is answered. Returns each batch's completions; every line of a
/// batch is due when the batch was sent.
///
/// # Errors
/// On connection failures or when answers stop arriving.
pub fn closed_batches(
    addr: SocketAddr,
    batches: &[Vec<String>],
) -> Result<Vec<Vec<Completion>>, String> {
    let mut pool = Pool::open(addr, 1)?;
    let start = Instant::now();
    let mut out = Vec::with_capacity(batches.len());
    for lines in batches {
        let due = start.elapsed();
        for (idx, line) in lines.iter().enumerate() {
            pool.send(0, idx, line)?;
        }
        let mut done: Vec<Option<Completion>> = vec![None; lines.len()];
        let mut finished = 0usize;
        let mut last_progress = Instant::now();
        while finished < lines.len() {
            pool.service(Duration::from_millis(50))?;
            let at = start.elapsed();
            for (idx, line) in pool.done.drain(..) {
                done[idx] = Some(Completion {
                    due,
                    sent: due,
                    done: at,
                    line,
                });
                finished += 1;
                last_progress = Instant::now();
            }
            if last_progress.elapsed() > DRAIN_TIMEOUT {
                return Err(format!(
                    "{} requests unanswered after {DRAIN_TIMEOUT:?}",
                    pool.outstanding()
                ));
            }
        }
        out.push(
            done.into_iter()
                .map(|c| c.expect("every request completed"))
                .collect(),
        );
    }
    Ok(out)
}

/// `ppoll(2)`: `poll` with a nanosecond timeout. The one unsafe call in
/// the benchmark; Linux x86-64/aarch64 layouts.
#[allow(unsafe_code)]
mod sys {
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::time::Duration;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Waits until a descriptor is ready or `timeout` passes; `EINTR`
    /// counts as a timeout (the caller re-checks its schedule anyway).
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<usize> {
        let ts = Timespec {
            tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: c_long::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `pollfd`-layout structs for the duration of the call; `ts` lives
        // across it; a null sigmask leaves the signal mask unchanged.
        let n = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if n < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::thread;

    /// A line-echo server for `conns` connections: it answers each line
    /// with itself, after 30 ms for lines starting with `slow`. Returns
    /// its address and the thread to join once the client is done.
    fn echo(conns: usize) -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = thread::spawn(move || {
            let workers: Vec<_> = listener
                .incoming()
                .take(conns)
                .map(|stream| {
                    let stream = stream.expect("accept");
                    thread::spawn(move || {
                        let mut out = stream.try_clone().expect("clone");
                        for line in BufReader::new(stream).lines() {
                            let line = line.expect("read");
                            if line.starts_with("slow") {
                                thread::sleep(Duration::from_millis(30));
                            }
                            out.write_all(format!("{line}\n").as_bytes())
                                .expect("write");
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("echo worker");
            }
        });
        (addr, server)
    }

    #[test]
    fn open_loop_holds_a_request_until_its_dependency_is_answered() {
        let (addr, server) = echo(2);
        let at = |ms| Duration::from_millis(ms);
        let schedule = [
            ("slow 0", 0, at(0), None),
            ("fast 1", 1, at(1), None),
            ("held 2", 1, at(2), Some(0)),
            ("fast 3", 1, at(3), None),
        ]
        .map(|(line, conn, due, after)| Scheduled {
            due,
            conn,
            line: line.into(),
            after,
        });
        let done = open_loop(addr, 2, &schedule).expect("open loop");
        server.join().expect("echo server");
        for (c, s) in done.iter().zip(&schedule) {
            assert_eq!(c.line, s.line);
        }
        // The unheld request went out on time; the held one (and the one
        // behind it) only after the slow answer, timed from their due.
        assert!(done[1].sent < at(10));
        assert!(done[2].sent >= done[0].done);
        assert!(done[3].sent >= done[0].done);
        assert!(done[2].latency_ms() >= 25.0);
    }

    #[test]
    fn closed_batches_send_each_batch_once_the_previous_is_answered() {
        let (addr, server) = echo(1);
        let batch = |tag: &str| vec![format!("slow {tag}a"), format!("fast {tag}b")];
        let batches = [batch("x"), batch("y")];
        let done = closed_batches(addr, &batches).expect("closed batches");
        server.join().expect("echo server");
        for (c, lines) in done.iter().zip(&batches) {
            let answered: Vec<&str> = c.iter().map(|c| c.line.as_str()).collect();
            assert_eq!(answered, *lines);
            // Every line of a batch is due when the batch went out.
            assert!(c.iter().all(|l| l.due == c[0].due && l.sent == c[0].due));
        }
        assert!(done[1][0].sent >= done[0][1].done);
        assert!(done[0][1].latency_ms() >= 25.0);
    }
}
