//! The nonblocking serving reactor (Linux only).
//!
//! One thread multiplexes every connection over `epoll`: the listener,
//! a self-wake pipe, and all client sockets sit in one interest list,
//! and the loop reacts to readiness instead of parking a thread per
//! socket. Requests are fed to the engine's shard queues through
//! [`PinnedHandle::try_submit_outbox`], which never blocks; answers come
//! back through each connection's [`Outbox`], whose waker pokes the
//! reactor's wake pipe, so the loop never waits on the engine either.
//! A connection speaks the binary wire protocol of [`crate::wire`]: its
//! first byte must be the hello byte (`0xC1`), anything else is answered
//! with an id-0 malformed-frame record and a close. Replies per
//! connection stay in submission order because every reply (including
//! synchronous rejections) goes through the connection's outbox.
//!
//! The epoll shim is a minimal `extern "C"` declaration of the three
//! syscall wrappers std already links from libc — no new dependency. On
//! non-Linux targets this module does not exist: serving requires Linux.

use crate::engine::{EngineHandle, Outbox, PinnedHandle};
use crate::wire::{self, ResponseRec, WIRE_HELLO};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Abuse-hardening knobs for the reactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactorConfig {
    /// Close connections with no inbound bytes for this long (`None`:
    /// never). Swept at the event-loop tick granularity (~250 ms).
    pub idle_timeout: Option<Duration>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            idle_timeout: Some(Duration::from_secs(60)),
        }
    }
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2_000_000;

/// Matches the kernel's `struct epoll_event`; packed on x86-64, where the
/// kernel ABI has no padding between the two fields.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
}

struct Epoll {
    fd: RawFd,
}

impl Epoll {
    fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is an
        // error reported through errno
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it before
        // returning. DEL ignores the event pointer on modern kernels but
        // passing a valid one is always correct.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &raw mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the buffer pointer and capacity describe a live slice
        // for the duration of the call
        let rc = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                #[allow(
                    clippy::cast_possible_truncation,
                    clippy::cast_possible_wrap,
                    reason = "event buffer is a small fixed size"
                )]
                {
                    events.len() as i32
                },
                timeout_ms,
            )
        };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        #[allow(clippy::cast_sign_loss, reason = "rc checked non-negative above")]
        Ok(rc as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd; wrapping transfers ownership to a File
        // whose drop closes it exactly once
        drop(unsafe { std::fs::File::from_raw_fd(self.fd) });
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_CONN_BASE: u64 = 2;

struct Conn {
    stream: TcpStream,
    pinned: PinnedHandle,
    outbox: Arc<Outbox>,
    /// Whether the hello byte has arrived; inbound bytes are frames only
    /// after it.
    greeted: bool,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    want_write: bool,
    state_scratch: Vec<f64>,
    /// When inbound bytes last arrived; the idle sweep keys off this.
    last_activity: Instant,
    /// Set when a framing violation was answered with a status-coded
    /// goodbye: the connection closes once the goodbye is flushed and
    /// reads no further frames.
    closing: bool,
}

/// An epoll-backed serving endpoint: every connection on one event-loop
/// thread.
pub struct ReactorServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wake_tx: Arc<UnixStream>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ReactorServer {
    /// Binds `addr` (port 0 for ephemeral) and starts the event loop with
    /// [`ReactorConfig::default`].
    ///
    /// # Errors
    ///
    /// Propagates bind, epoll-setup, and spawn failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, handle: EngineHandle) -> io::Result<Self> {
        Self::bind_with(addr, handle, ReactorConfig::default())
    }

    /// Binds with explicit hardening knobs.
    ///
    /// # Errors
    ///
    /// Propagates bind, epoll-setup, and spawn failures.
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        handle: EngineHandle,
        config: ReactorConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let wake_tx = Arc::new(wake_tx);
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = stop.clone();
        let loop_wake = wake_tx.clone();
        let epoll = Epoll::new()?;
        epoll.ctl(EPOLL_CTL_ADD, listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.ctl(EPOLL_CTL_ADD, wake_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKE)?;
        let thread = std::thread::Builder::new()
            .name("cocktail-serve-reactor".into())
            .spawn(move || {
                reactor_loop(
                    &epoll, &listener, &wake_rx, &loop_wake, &handle, &loop_stop, &config,
                );
            })?;
        Ok(Self {
            addr,
            stop,
            wake_tx,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the event loop; open connections are dropped.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = (&*self.wake_tx).write(&[1]);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[allow(
    clippy::too_many_lines,
    reason = "the event loop reads best as one linear dispatch"
)]
fn reactor_loop(
    epoll: &Epoll,
    listener: &TcpListener,
    wake_rx: &UnixStream,
    wake_tx: &Arc<UnixStream>,
    handle: &EngineHandle,
    stop: &AtomicBool,
    config: &ReactorConfig,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let dirty: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut next_conn: u64 = 0;
    let mut events = [EpollEvent { events: 0, data: 0 }; 64];
    let mut chunk = [0u8; 16 * 1024];
    let mut recs: Vec<ResponseRec> = Vec::with_capacity(64);
    let mut dirty_tokens: Vec<u64> = Vec::new();
    let mut closed: Vec<u64> = Vec::new();

    loop {
        // a bounded timeout keeps the stop flag observable even if a wake
        // byte is ever lost
        let n = match epoll.wait(&mut events, 250) {
            Ok(n) => n,
            Err(_) => return,
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        for ev in &events[..n] {
            let token = ev.data;
            let bits = ev.events;
            match token {
                TOKEN_LISTENER => loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err()
                                || stream.set_nodelay(true).is_err()
                            {
                                continue;
                            }
                            let conn_id = next_conn;
                            next_conn += 1;
                            let token = TOKEN_CONN_BASE + conn_id;
                            let waker_dirty = dirty.clone();
                            let waker_pipe = wake_tx.clone();
                            let outbox = Arc::new(Outbox::with_waker(move || {
                                if let Ok(mut d) = waker_dirty.lock() {
                                    d.push(token);
                                }
                                // a full pipe still wakes the reactor; the
                                // byte is a doorbell, not a message
                                let _ = (&*waker_pipe).write(&[1]);
                            }));
                            if epoll
                                .ctl(EPOLL_CTL_ADD, stream.as_raw_fd(), EPOLLIN, token)
                                .is_err()
                            {
                                continue;
                            }
                            conns.insert(
                                token,
                                Conn {
                                    stream,
                                    pinned: handle.pinned(conn_id),
                                    outbox,
                                    greeted: false,
                                    rbuf: Vec::with_capacity(4096),
                                    wbuf: Vec::with_capacity(4096),
                                    wpos: 0,
                                    want_write: false,
                                    state_scratch: Vec::with_capacity(handle.state_dim()),
                                    last_activity: Instant::now(),
                                    closing: false,
                                },
                            );
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                },
                TOKEN_WAKE => {
                    // drain the doorbell, then service every dirty outbox
                    loop {
                        match (&*wake_rx).read(&mut chunk) {
                            Ok(0) => break,
                            Ok(_) => {}
                            Err(_) => break,
                        }
                    }
                    dirty_tokens.clear();
                    if let Ok(mut d) = dirty.lock() {
                        dirty_tokens.append(&mut d);
                    }
                    dirty_tokens.sort_unstable();
                    dirty_tokens.dedup();
                    for &t in &dirty_tokens {
                        if let Some(conn) = conns.get_mut(&t) {
                            drain_outbox(conn, &mut recs);
                            let alive =
                                flush(epoll, conn, t) && !(conn.closing && conn.wbuf.is_empty());
                            if !alive {
                                closed.push(t);
                            }
                        }
                    }
                }
                _ => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let mut alive = bits & (EPOLLERR | EPOLLHUP) == 0;
                    if alive && bits & EPOLLIN != 0 {
                        alive = read_ready(conn, &mut chunk);
                        drain_outbox(conn, &mut recs);
                    }
                    if alive {
                        alive = flush(epoll, conn, token);
                    }
                    if alive && conn.closing && conn.wbuf.is_empty() {
                        alive = false; // goodbye flushed: close
                    }
                    if !alive {
                        closed.push(token);
                    }
                }
            }
        }
        if let Some(idle) = config.idle_timeout {
            let now = Instant::now();
            for (&t, conn) in &conns {
                if now.duration_since(conn.last_activity) > idle {
                    closed.push(t);
                }
            }
        }
        for token in closed.drain(..) {
            if let Some(conn) = conns.remove(&token) {
                let _ = epoll.ctl(EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, token);
            }
        }
    }
}

/// Appends the id-0 malformed-frame record to the write buffer and flags
/// the connection to close once it is flushed. Frames already buffered
/// are abandoned: a byte stream cannot resynchronise after a framing
/// violation.
fn refuse_malformed(conn: &mut Conn) {
    conn.closing = true;
    wire::encode_response_into(
        &ResponseRec::err(0, wire::STATUS_MALFORMED_FRAME),
        &mut conn.wbuf,
    );
}

/// Reads everything available and submits every complete frame. Returns
/// `false` when the connection must close.
fn read_ready(conn: &mut Conn, chunk: &mut [u8]) -> bool {
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => return false, // orderly hangup
            Ok(n) => {
                conn.last_activity = Instant::now();
                if !conn.closing {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                }
                // while closing, inbound bytes are read and discarded:
                // only the goodbye flush matters now
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    if conn.closing {
        return true;
    }
    if !conn.greeted && !conn.rbuf.is_empty() {
        if conn.rbuf[0] != WIRE_HELLO {
            refuse_malformed(conn);
            return true;
        }
        conn.greeted = true;
        conn.rbuf.remove(0);
    }
    if conn.greeted {
        process_binary(conn);
    }
    true
}

fn process_binary(conn: &mut Conn) {
    let mut consumed = 0usize;
    loop {
        match wire::decode_request(&conn.rbuf[consumed..], &mut conn.state_scratch) {
            Ok(Some((id, used))) => {
                consumed += used;
                if let Err(e) = conn
                    .pinned
                    .try_submit_outbox(id, &conn.state_scratch, &conn.outbox)
                {
                    // synchronous rejection: reply through the outbox so
                    // this connection's replies stay in submission order
                    conn.outbox
                        .push(ResponseRec::err(id, wire::status_of_error(&e)));
                }
            }
            Ok(None) => break,
            Err(_) => {
                // framing violation: status-coded goodbye, then close
                refuse_malformed(conn);
                return;
            }
        }
    }
    if consumed > 0 {
        conn.rbuf.copy_within(consumed.., 0);
        conn.rbuf.truncate(conn.rbuf.len() - consumed);
    }
}

/// Moves every queued outbox record into the connection's write buffer.
fn drain_outbox(conn: &mut Conn, recs: &mut Vec<ResponseRec>) {
    recs.clear();
    conn.outbox.drain_into(recs);
    for rec in recs.iter() {
        wire::encode_response_into(rec, &mut conn.wbuf);
    }
}

/// Writes as much of the pending buffer as the socket accepts, toggling
/// `EPOLLOUT` interest across partial writes. Returns `false` when the
/// connection must close.
fn flush(epoll: &Epoll, conn: &mut Conn, token: u64) -> bool {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return false,
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if !conn.want_write {
                    conn.want_write = true;
                    return epoll
                        .ctl(
                            EPOLL_CTL_MOD,
                            conn.stream.as_raw_fd(),
                            EPOLLIN | EPOLLOUT,
                            token,
                        )
                        .is_ok();
                }
                return true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    conn.wbuf.clear();
    conn.wpos = 0;
    if conn.want_write {
        conn.want_write = false;
        return epoll
            .ctl(EPOLL_CTL_MOD, conn.stream.as_raw_fd(), EPOLLIN, token)
            .is_ok();
    }
    true
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig, ServeError};
    use crate::transport::BinaryTcpClient;
    use cocktail_nn::{Activation, MlpBuilder};
    use cocktail_obs::NullSink;

    /// Reads from `stream` until exactly `n` response records decode;
    /// panics if the server closes first or sends bytes beyond them.
    pub(crate) fn read_records(stream: &mut TcpStream, n: usize, name: &str) -> Vec<ResponseRec> {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 256];
        let mut rec = ResponseRec::err(0, wire::STATUS_OK);
        let mut recs = Vec::with_capacity(n);
        while recs.len() < n {
            match wire::decode_response(&buf, &mut rec).expect("client-side decode") {
                Some(used) => {
                    recs.push(rec);
                    buf.drain(..used);
                }
                None => {
                    let got = stream.read(&mut chunk).expect("read reply");
                    assert!(got > 0, "{name}: server closed before {n} replies");
                    buf.extend_from_slice(&chunk[..got]);
                }
            }
        }
        assert!(buf.is_empty(), "{name}: bytes beyond the {n} replies");
        recs
    }

    /// Expects the id-0 malformed-frame record on `stream` (when
    /// `expect_reply`), or, for a merely incomplete frame, hangs up our
    /// side; either way the server must then close without another byte.
    pub(crate) fn expect_refusal_then_eof(stream: &mut TcpStream, name: &str, expect_reply: bool) {
        if expect_reply {
            let rec = read_records(stream, 1, name)[0];
            assert_eq!(
                (rec.id, rec.status),
                (0, wire::STATUS_MALFORMED_FRAME),
                "{name}: connection-level malformed-frame record"
            );
        } else {
            // a half-sent frame is not an error until the peer gives up:
            // close our side and expect a quiet hangup back
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("shutdown write");
        }
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("drain to EOF");
        assert!(rest.is_empty(), "{name}: connection closes after the reply");
    }

    /// A raw connection with a read timeout, so a missing reply fails the
    /// test instead of hanging it.
    pub(crate) fn connect_raw(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).expect("connect raw");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        stream
    }

    /// Hello plus one request frame per state, ids `0..states.len()`.
    fn pipelined_burst(states: &[Vec<f64>]) -> Vec<u8> {
        let mut bytes = vec![WIRE_HELLO];
        for (id, s) in (0u64..).zip(states) {
            wire::encode_request_into(id, s, &mut bytes);
        }
        bytes
    }

    fn test_engine(shards: usize) -> Engine {
        let net = MlpBuilder::new(2)
            .hidden(6, Activation::Tanh)
            .output(1, Activation::Identity)
            .seed(11)
            .build();
        Engine::from_parts(
            net,
            vec![1.5],
            vec![-4.0],
            vec![4.0],
            EngineConfig {
                shards,
                ..EngineConfig::default()
            },
            None,
            std::sync::Arc::new(NullSink),
        )
        .expect("engine starts")
    }

    #[test]
    fn idle_connections_are_swept() {
        let engine = test_engine(1);
        let server = ReactorServer::bind_with(
            "127.0.0.1:0",
            engine.handle(),
            ReactorConfig {
                idle_timeout: Some(Duration::from_millis(100)),
            },
        )
        .expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        // never send a byte: the sweep must hang up on us
        let mut buf = [0u8; 1];
        let n = stream.read(&mut buf).expect("EOF, not a timeout");
        assert_eq!(n, 0, "idle connection swept");
        // the server still accepts and serves fresh traffic
        let mut client = BinaryTcpClient::connect(server.local_addr()).expect("connect");
        assert!(client.control(&[0.1, 0.1]).is_ok());
        server.shutdown();
    }

    #[test]
    fn reactor_answers_malformed_binary_with_a_status_then_closes() {
        let engine = test_engine(1);
        let server = ReactorServer::bind("127.0.0.1:0", engine.handle()).expect("bind");
        let with_hello = |frame: &[u8]| [&[WIRE_HELLO], frame].concat();
        let oversized_dim = {
            let mut f = vec![wire::TAG_REQUEST];
            f.extend_from_slice(&7u64.to_le_bytes());
            f.push(200); // dim 200 > MAX_WIRE_STATE_DIM, refused from the header
            with_hello(&f)
        };
        let truncated = {
            let mut f = Vec::new();
            wire::encode_request_into(7, &[0.5, -0.5], &mut f);
            with_hello(&f[..f.len() / 2])
        };
        // (name, bytes sent, expect a malformed-frame reply?)
        let cases: Vec<(&str, Vec<u8>, bool)> = vec![
            ("bad tag", with_hello(&[0x7F; 18]), true),
            ("oversized dim", oversized_dim, true),
            // a length-prefixed JSON frame, or any other non-hello first byte
            ("no hello", vec![0x00, 0x00, 0x00, 0x1F], true),
            ("truncated then closed", truncated, false),
        ];
        for (name, bytes, expect_reply) in cases {
            let mut stream = connect_raw(server.local_addr());
            stream.write_all(&bytes).expect("payload");
            expect_refusal_then_eof(&mut stream, name, expect_reply);
        }
        // none of that corruption hurt the reactor
        let mut client = BinaryTcpClient::connect(server.local_addr()).expect("connect");
        assert!(client.control(&[0.1, 0.1]).is_ok());
        server.shutdown();
    }

    #[test]
    fn reactor_serves_both_protocols_bit_identically() {
        // one wire, two ways to drive it: the one-request-in-flight client
        // and a raw pipelined burst that lands in a single read
        let engine = test_engine(2);
        let server = ReactorServer::bind("127.0.0.1:0", engine.handle()).expect("bind");
        let states: Vec<Vec<f64>> = (0..48)
            .map(|i| vec![f64::from(i) * 0.03 - 0.7, 0.2])
            .collect();
        let mut client = BinaryTcpClient::connect(server.local_addr()).expect("connect");
        let mut burst = connect_raw(server.local_addr());
        burst.write_all(&pipelined_burst(&states)).expect("burst");
        let mut replies = read_records(&mut burst, states.len(), "pipelined burst");
        replies.sort_by_key(|r| r.id);
        for ((id, s), rec) in (0u64..).zip(&states).zip(&replies) {
            let reference = engine.handle().submit(s).expect("served");
            assert_eq!(client.control(s).expect("served"), reference);
            assert_eq!(rec.id, id, "every id answered exactly once");
            assert_eq!(rec.status, wire::STATUS_OK);
            assert_eq!(
                rec.control(),
                reference.control.as_slice(),
                "pipelining moves no bit"
            );
        }
        server.shutdown();
    }

    #[test]
    fn reactor_reports_errors_on_both_protocols() {
        let engine = test_engine(1);
        let server = ReactorServer::bind("127.0.0.1:0", engine.handle()).expect("bind");
        let mut client = BinaryTcpClient::connect(server.local_addr()).expect("connect");
        let err = client.control(&[1.0, 2.0, 3.0]).expect_err("wrong dim");
        assert!(matches!(err, ServeError::BadRequest(_)));
        // the connection survives a refused request
        assert!(client.control(&[0.1, 0.1]).is_ok());
        // in a pipelined burst every refusal comes back on its own id, and
        // the good requests around it are still served
        let states: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                if i % 3 == 1 {
                    vec![0.1, 0.2, 0.3]
                } else {
                    vec![f64::from(i) * 0.05, -0.1]
                }
            })
            .collect();
        let mut burst = connect_raw(server.local_addr());
        burst.write_all(&pipelined_burst(&states)).expect("burst");
        let mut replies = read_records(&mut burst, states.len(), "mixed burst");
        replies.sort_by_key(|r| r.id);
        for ((id, s), rec) in (0u64..).zip(&states).zip(&replies) {
            assert_eq!(rec.id, id, "every id answered exactly once");
            let want = if s.len() == 2 {
                wire::STATUS_OK
            } else {
                wire::STATUS_BAD_REQUEST
            };
            assert_eq!(rec.status, want, "request {id}");
        }
        server.shutdown();
    }

    #[test]
    fn over_cap_inbound_buffers_are_refused() {
        // no buffer cap is configured: an over-limit frame is refused from
        // its header, so the body it declares is never buffered
        let engine = test_engine(1);
        let server = ReactorServer::bind("127.0.0.1:0", engine.handle()).expect("bind");
        let mut over = vec![WIRE_HELLO, wire::TAG_REQUEST];
        over.extend_from_slice(&3u64.to_le_bytes());
        over.push(u8::try_from(wire::MAX_WIRE_STATE_DIM + 1).expect("fits a u8"));
        over.extend_from_slice(&[b'x'; 1024]);
        let mut stream = connect_raw(server.local_addr());
        stream.write_all(&over).expect("over-limit frame");
        expect_refusal_then_eof(&mut stream, "over-limit dim", true);
        // a frame at the limit is the largest the reactor ever buffers; it
        // is a well-formed request the engine refuses on its own id, and
        // the connection keeps serving
        let mut at_limit = vec![WIRE_HELLO];
        wire::encode_request_into(4, &[0.0; wire::MAX_WIRE_STATE_DIM], &mut at_limit);
        wire::encode_request_into(5, &[0.1, 0.1], &mut at_limit);
        let mut stream = connect_raw(server.local_addr());
        stream.write_all(&at_limit).expect("at-limit frame");
        let mut replies = read_records(&mut stream, 2, "at-limit frame");
        replies.sort_by_key(|r| r.id);
        assert_eq!(
            (replies[0].id, replies[0].status),
            (4, wire::STATUS_BAD_REQUEST)
        );
        assert_eq!((replies[1].id, replies[1].status), (5, wire::STATUS_OK));
        server.shutdown();
    }

    #[test]
    fn reactor_survives_many_connections() {
        let engine = test_engine(2);
        let server = ReactorServer::bind("127.0.0.1:0", engine.handle()).expect("bind");
        let mut clients: Vec<BinaryTcpClient> = (0..16)
            .map(|_| BinaryTcpClient::connect(server.local_addr()).expect("connect"))
            .collect();
        for round in 0..4 {
            for (c, client) in clients.iter_mut().enumerate() {
                let s = [
                    f64::from(round) * 0.1,
                    f64::from(u32::try_from(c).unwrap()) * 0.01,
                ];
                let got = client.control(&s).expect("served");
                let want = engine.handle().submit(&s).expect("served");
                assert_eq!(got, want);
            }
        }
        drop(clients);
        server.shutdown();
    }
}
