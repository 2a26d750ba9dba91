//! Load generators speaking the binary wire over loopback TCP.
//!
//! Both generators are built from the public frame codec
//! (`cocktail_serve::wire`) and plain `std::net` sockets, so a request
//! takes exactly the path a remote client's would: client encode → TCP →
//! reactor decode → shard queue → batched forward → encode → TCP → client
//! decode. Every reply is classified against the reference outputs as it
//! arrives; the workloads decide afterwards which classes are allowed.

use crate::procfs::{self, ThreadSample};
use crate::trace::Tracer;
use cocktail_serve::wire::{self, ResponseRec, STATUS_OK, WIRE_HELLO};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A seeded pool of request states and the bit-exact reference output of
/// each controller that may answer them. Request `i` sends state
/// `i mod len`.
pub struct RequestPool {
    /// Request states, drawn uniformly from the bundle's input domain.
    pub states: Vec<Vec<f64>>,
    /// `refs[r][k]`: controller `r`'s reference output for `states[k]`.
    pub refs: Vec<Vec<Vec<f64>>>,
}

/// Reply classes: bit `r` is set when the reply bit-equals reference `r`.
/// A reply matching no reference is 0.
pub type Class = u8;

/// Class of a request the server refused (any status but OK).
pub const REFUSED: Class = 0x40;

/// Class of a request that never got a reply.
pub const UNANSWERED: Class = 0x80;

/// How failed requests split: `"<n> refused, <n> unanswered, <n> wrong"`.
pub fn describe_failures(classes: impl Iterator<Item = Class>) -> String {
    let (mut refused, mut unanswered, mut wrong) = (0, 0, 0);
    for c in classes {
        match c {
            REFUSED => refused += 1,
            UNANSWERED => unanswered += 1,
            _ => wrong += 1,
        }
    }
    format!("{refused} refused, {unanswered} unanswered, {wrong} wrong")
}

impl RequestPool {
    /// The state sent by request `i`.
    pub fn state(&self, i: usize) -> &[f64] {
        &self.states[i % self.states.len()]
    }

    /// Which references reply `rec` to request `i` matches, bit for bit.
    pub fn classify(&self, i: usize, rec: &ResponseRec) -> Class {
        if rec.status != STATUS_OK {
            return REFUSED;
        }
        let k = i % self.states.len();
        let got = rec.control();
        let mut class = 0;
        for (r, outputs) in self.refs.iter().enumerate() {
            let want = &outputs[k];
            if got.len() == want.len()
                && got
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            {
                class |= 1 << r;
            }
        }
        class
    }
}

/// Opens a binary-wire connection (hello byte sent, Nagle off).
fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&[WIRE_HELLO])?;
    Ok(stream)
}

/// Decodes every complete response at the front of `buf[..len]`, calling
/// `on_reply` for each, and shifts the partial remainder to the front.
/// Returns the new fill length.
fn drain_responses(
    buf: &mut [u8],
    len: usize,
    mut on_reply: impl FnMut(&ResponseRec),
) -> io::Result<usize> {
    let mut rec = ResponseRec::err(0, 0);
    let mut at = 0;
    while let Some(used) = wire::decode_response(&buf[at..len], &mut rec)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
    {
        on_reply(&rec);
        at += used;
    }
    buf.copy_within(at..len, 0);
    Ok(len - at)
}

/// What one closed-loop connection observed.
#[derive(Debug, Default)]
pub struct ClosedOutcome {
    /// Round-trip latency of every answered request, µs.
    pub latencies_us: Vec<f64>,
    /// Requests sent.
    pub sent: u64,
    /// Requests whose reply matched reference 0.
    pub ok: u64,
    /// The connection's own CPU accounting.
    pub client: ThreadSample,
}

/// One closed-loop connection: send a request, wait for its reply, check
/// it against reference 0, repeat until `until` or `limit` requests.
/// Request ids start at `first_id`; states start at pool index `first_id`.
/// With tracing on, every [`TRACE_EVERY`]th request records its send,
/// wait and receive spans.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &RequestPool,
    first_id: u64,
    until: Instant,
    limit: u64,
    tracer: &Tracer,
) -> ClosedOutcome {
    let start = procfs::sample_self();
    let mut out = ClosedOutcome::default();
    let Ok(mut stream) = connect(addr) else {
        out.sent = 1; // a connection that never opens fails its first request
        return out;
    };
    let mut frame = Vec::with_capacity(64);
    let mut buf = vec![0u8; 4096];
    let mut id = first_id;
    'requests: while out.sent < limit && Instant::now() < until {
        let t0 = Instant::now();
        frame.clear();
        let i = id as usize;
        wire::encode_request_into(id, pool.state(i), &mut frame);
        out.sent += 1;
        if stream.write_all(&frame).is_err() {
            break;
        }
        let written = Instant::now();
        let mut len = 0;
        loop {
            let Ok(n) = stream.read(&mut buf[len..]) else {
                break 'requests;
            };
            if n == 0 {
                break 'requests;
            }
            len += n;
            let read = Instant::now();
            let mut answered = None;
            let Ok(rest) = drain_responses(&mut buf, len, |rec| {
                answered = Some((rec.id, pool.classify(i, rec)));
            }) else {
                break 'requests;
            };
            len = rest;
            if let Some((rid, class)) = answered {
                let done = Instant::now();
                out.latencies_us.push((done - t0).as_secs_f64() * 1e6);
                if rid == id && class & 1 == 1 {
                    out.ok += 1;
                }
                if tracer.enabled() && id.is_multiple_of(TRACE_EVERY) {
                    tracer.record("client/send", id, t0, written);
                    tracer.record("client/wait", id, written, read);
                    tracer.record("client/receive", id, read, done);
                }
                break;
            }
        }
        id += 1;
    }
    out.client = procfs::sample_self() - start;
    out
}

/// Sampling period of per-request client spans.
pub const TRACE_EVERY: u64 = 256;

/// What a pipelined run observed, per request index.
pub struct PipelinedOutcome {
    /// When the sender began the write carrying each request (ns after
    /// origin; `u64::MAX` when never sent).
    pub sent_ns: Vec<u64>,
    /// When each reply was read (ns after origin; `u64::MAX` if none).
    pub recv_ns: Vec<u64>,
    /// Reply class of each request ([`UNANSWERED`] if none).
    pub class: Vec<Class>,
    /// Requests actually sent (a prefix of the schedule).
    pub sent: usize,
    /// Sender and receiver CPU accounting.
    pub client: ThreadSample,
}

impl PipelinedOutcome {
    /// Round-trip time from the write carrying each answered request in
    /// `range` to its reply, µs.
    pub fn rtt_us(&self, range: std::ops::Range<usize>) -> Vec<f64> {
        range
            .filter(|&i| self.recv_ns[i] != u64::MAX)
            .map(|i| self.recv_ns[i].saturating_sub(self.sent_ns[i]) as f64 / 1e3)
            .collect()
    }

    /// Indices of sent requests whose write began in `[from_ns, to_ns)`.
    pub fn sent_between(&self, from_ns: u64, to_ns: u64) -> std::ops::Range<usize> {
        let sent = &self.sent_ns[..self.sent];
        sent.partition_point(|&t| t < from_ns)..sent.partition_point(|&t| t < to_ns)
    }
}

/// Requests the `serve-pipelined` connection keeps in flight: half the
/// engine's default shard queue (256), so the queue fills enough for
/// batches to form but never refuses.
pub const PIPELINE_WINDOW: usize = 128;

/// What one pipelined connection sends.
pub struct Pipeline {
    /// The most requests in flight.
    pub window: usize,
    /// The most requests sent in all.
    pub limit: usize,
    /// Id of request 0; request `i` carries id `first_id + i` and pool
    /// state `first_id + i`.
    pub first_id: u64,
}

/// Runs `pipeline` on one connection until `stop` is raised. A sender
/// thread writes as many requests as the window has room for in one
/// `write` and parks until a reply frees a slot; a receiver thread reads
/// and classifies replies. The run ends once every sent request is
/// answered (or two seconds pass without progress). Times are ns after
/// `origin`.
pub fn pipelined(
    addr: SocketAddr,
    pool: &RequestPool,
    pipeline: &Pipeline,
    origin: Instant,
    stop: &AtomicBool,
    tracer: &Tracer,
) -> io::Result<PipelinedOutcome> {
    let &Pipeline {
        window,
        limit: n,
        first_id,
    } = pipeline;
    let mut stream = connect(addr)?;
    let mut reader = stream.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(20)))?;
    let since = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let sent_count = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let drain = Duration::from_secs(2);

    let (sender, receiver) = std::thread::scope(|s| {
        let sent_count = &sent_count;
        let answered = &answered;
        let sender_done = &sender_done;
        let sender = s.spawn(move || {
            let start = procfs::sample_self();
            let mut sent_ns = vec![u64::MAX; n];
            let mut frames = Vec::with_capacity(64 * 1024);
            let mut next = 0;
            while next < n && !stop.load(Ordering::Relaxed) {
                let room = window.saturating_sub(next - answered.load(Ordering::Acquire));
                if room == 0 {
                    // the receiver unparks this thread after every read
                    std::thread::park_timeout(Duration::from_millis(1));
                    continue;
                }
                frames.clear();
                let first = next;
                while next < n && next - first < room {
                    let id = first_id + next as u64;
                    wire::encode_request_into(id, pool.state(id as usize), &mut frames);
                    next += 1;
                }
                let write_start = Instant::now();
                sent_ns[first..next].fill(since(write_start));
                sent_count.store(next, Ordering::Release);
                if stream.write_all(&frames).is_err() {
                    break;
                }
                if tracer.enabled() && (first..next).any(|k| (k as u64).is_multiple_of(TRACE_EVERY))
                {
                    tracer.record(
                        "client/send",
                        first_id + first as u64,
                        write_start,
                        Instant::now(),
                    );
                }
            }
            sender_done.store(true, Ordering::Release);
            (sent_ns, procfs::sample_self() - start)
        });
        let sender_thread = sender.thread().clone();
        let receiver = s.spawn(move || {
            let start = procfs::sample_self();
            let mut recv_ns = vec![u64::MAX; n];
            let mut class = vec![UNANSWERED; n];
            let mut buf = vec![0u8; 64 * 1024];
            let mut len = 0;
            let mut received = 0usize;
            let mut last_progress = Instant::now();
            loop {
                if sender_done.load(Ordering::Acquire) {
                    if received >= sent_count.load(Ordering::Acquire) {
                        break;
                    }
                    if last_progress.elapsed() > drain {
                        break;
                    }
                }
                match reader.read(&mut buf[len..]) {
                    Ok(0) => break,
                    Ok(k) => {
                        let read_at = Instant::now();
                        let at = since(read_at);
                        last_progress = Instant::now();
                        let mut bad_frame = false;
                        let mut sampled = None;
                        match drain_responses(&mut buf, len + k, |rec| {
                            let i = rec.id.wrapping_sub(first_id) as usize;
                            if i < n && recv_ns[i] == u64::MAX {
                                recv_ns[i] = at;
                                class[i] = pool.classify(first_id as usize + i, rec);
                                received += 1;
                                if rec.id.is_multiple_of(TRACE_EVERY) {
                                    sampled = Some(rec.id);
                                }
                            } else {
                                bad_frame = true;
                            }
                        }) {
                            Ok(rest) if !bad_frame => len = rest,
                            _ => break,
                        }
                        answered.store(received, Ordering::Release);
                        sender_thread.unpark();
                        if let Some(id) = sampled.filter(|_| tracer.enabled()) {
                            tracer.record("client/receive", id, read_at, Instant::now());
                        }
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => break,
                }
            }
            (recv_ns, class, procfs::sample_self() - start)
        });
        (sender.join(), receiver.join())
    });
    let (sent_ns, sender_cpu) = sender.map_err(|_| io::Error::other("sender thread panicked"))?;
    let (recv_ns, class, receiver_cpu) =
        receiver.map_err(|_| io::Error::other("receiver thread panicked"))?;
    Ok(PipelinedOutcome {
        sent: sent_count.load(Ordering::Acquire),
        sent_ns,
        recv_ns,
        class,
        client: sender_cpu + receiver_cpu,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_send_windows() {
        // requests 0 and 1 went out in one write at 3 ms, request 2 at
        // 4 ms and was never answered
        let out = PipelinedOutcome {
            sent_ns: vec![3_000_000, 3_000_000, 4_000_000],
            recv_ns: vec![3_500_000, 3_600_000, u64::MAX],
            class: vec![1, 1, UNANSWERED],
            sent: 3,
            client: ThreadSample::default(),
        };
        assert_eq!(out.rtt_us(0..3), vec![500.0, 600.0]);
        assert_eq!(out.sent_between(3_000_000, 4_000_000), 0..2);
        assert_eq!(out.sent_between(3_500_000, u64::MAX), 2..3);
    }

    #[test]
    fn classification_is_bitwise_per_reference() {
        let pool = RequestPool {
            states: vec![vec![0.0, 0.0], vec![1.0, 1.0]],
            refs: vec![vec![vec![1.5], vec![-0.0]], vec![vec![1.5], vec![2.0]]],
        };
        assert_eq!(pool.classify(0, &ResponseRec::ok(0, &[1.5], false)), 0b11);
        assert_eq!(pool.classify(3, &ResponseRec::ok(3, &[2.0], false)), 0b10);
        // +0.0 is not the reference's -0.0
        assert_eq!(pool.classify(1, &ResponseRec::ok(1, &[0.0], false)), 0);
        // a fallback answer is not the network's answer
        assert_eq!(pool.classify(0, &ResponseRec::ok(0, &[1.5], true)), REFUSED);
        assert_eq!(
            pool.classify(0, &ResponseRec::err(0, wire::STATUS_BACKPRESSURE)),
            REFUSED
        );
        assert_eq!(
            describe_failures([REFUSED, 0, UNANSWERED, REFUSED].into_iter()),
            "2 refused, 1 unanswered, 1 wrong"
        );
    }
}
