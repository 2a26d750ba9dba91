//! The client side of the TCP transport: [`BinaryTcpClient`] speaks the
//! binary wire protocol ([`crate::wire`]) to the epoll reactor
//! ([`crate::reactor`]); the load generator drives one per connection.
//!
//! A client sends the [`WIRE_HELLO`] byte (`0xC1`) once after
//! connecting, then fixed-layout request frames; the server answers with
//! fixed-layout response records in submission order. One connection may
//! pipeline many requests, but a connection is pinned to one engine
//! shard, so cross-connection concurrency is what fills batches.

use crate::bundle::fnv1a_64;
use crate::engine::{ControlResponse, ServeError};
use crate::wire::{self, ResponseRec, WIRE_HELLO};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

// Client-side robustness. Requests are pure functions of the state
// vector, so a reconnect-and-resend after a dropped connection is always
// safe; the backoff jitter is a deterministic function of
// `BACKOFF_SEED` and the attempt number, keeping retry timing
// reproducible in tests.

/// Give up a connect attempt after this long.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Give up a blocking response read after this long.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Reconnect-and-resend attempts one request gets after a transport
/// error.
const MAX_RECONNECTS: u32 = 2;
/// First backoff delay in milliseconds; doubles per attempt up to
/// `BACKOFF_CAP_MS`.
const BACKOFF_BASE_MS: u64 = 10;
/// Backoff ceiling in milliseconds.
const BACKOFF_CAP_MS: u64 = 200;
/// Seed of the deterministic backoff jitter.
const BACKOFF_SEED: u64 = 0xc0c7;

/// Deterministic truncated exponential backoff with FNV-derived jitter:
/// `min(cap, base * 2^attempt) + fnv(seed, attempt) % base`.
fn backoff_delay(attempt: u32) -> Duration {
    let exp = BACKOFF_BASE_MS
        .saturating_mul(1u64 << attempt.min(20))
        .min(BACKOFF_CAP_MS);
    let mut key = [0u8; 12];
    key[..8].copy_from_slice(&BACKOFF_SEED.to_le_bytes());
    key[8..].copy_from_slice(&attempt.to_le_bytes());
    Duration::from_millis(exp + fnv1a_64(&key) % BACKOFF_BASE_MS)
}

fn resolve<A: ToSocketAddrs>(addr: A) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing"))
}

fn open_stream(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

/// Maps a transport-level failure that survived every reconnect attempt
/// to the client-visible error: hangups become [`ServeError::Shutdown`],
/// everything else keeps its cause.
fn transport_error(e: &io::Error) -> ServeError {
    if matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
    ) {
        ServeError::Shutdown
    } else {
        ServeError::BadRequest(format!("transport failure: {e}"))
    }
}

/// A blocking client speaking the binary wire protocol (hello byte, then
/// fixed-layout frames). Its buffers are reused across requests, so a
/// steady-state request performs no client-side allocation either.
/// Transport errors trigger a bounded reconnect-and-resend with a
/// deterministic backoff; a reconnect replays the hello byte and discards
/// any half-read response bytes.
pub struct BinaryTcpClient {
    stream: TcpStream,
    addr: SocketAddr,
    next_id: u64,
    reconnects: u64,
    rbuf: Vec<u8>,
    frame: Vec<u8>,
    filled: usize,
}

impl BinaryTcpClient {
    /// Connects and sends the protocol hello byte.
    ///
    /// # Errors
    ///
    /// Propagates resolve/connect/write failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let addr = resolve(addr)?;
        let mut stream = open_stream(addr)?;
        stream.write_all(&[WIRE_HELLO])?;
        Ok(Self {
            stream,
            addr,
            next_id: 1,
            reconnects: 0,
            rbuf: vec![0u8; 4096],
            frame: Vec::with_capacity(256),
            filled: 0,
        })
    }

    /// Computes the clipped control for `state` over the wire,
    /// reconnecting and resending on transport errors.
    ///
    /// # Errors
    ///
    /// Propagates the server-side [`ServeError`]; a transport failure
    /// that survives every reconnect attempt becomes
    /// [`ServeError::Shutdown`] (hangups) or [`ServeError::BadRequest`].
    pub fn control(&mut self, state: &[f64]) -> Result<ControlResponse, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.frame.clear();
        wire::encode_request_into(id, state, &mut self.frame);
        let mut attempt = 0u32;
        loop {
            match self.try_once(id) {
                Ok(result) => return result,
                Err(e) => {
                    if attempt >= MAX_RECONNECTS {
                        return Err(transport_error(&e));
                    }
                    std::thread::sleep(backoff_delay(attempt));
                    attempt += 1;
                    if let Ok(mut stream) = open_stream(self.addr) {
                        if stream.write_all(&[WIRE_HELLO]).is_ok() {
                            self.stream = stream;
                            self.filled = 0; // stale half-frames are gone
                            self.reconnects += 1;
                        }
                    }
                }
            }
        }
    }

    /// How many times this client re-established a dropped connection.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// One send-and-receive over the current connection; `self.frame`
    /// already holds the encoded request. `Err` is a transport failure
    /// (retryable by reconnecting); the inner result is final.
    fn try_once(&mut self, id: u64) -> io::Result<Result<ControlResponse, ServeError>> {
        self.stream
            .write_all(&self.frame)
            .and_then(|()| self.stream.flush())?;
        let mut rec = ResponseRec::err(0, wire::STATUS_BAD_REQUEST);
        loop {
            match wire::decode_response(&self.rbuf[..self.filled], &mut rec) {
                Ok(Some(used)) => {
                    self.rbuf.copy_within(used..self.filled, 0);
                    self.filled -= used;
                    break;
                }
                Ok(None) => {
                    if self.filled == self.rbuf.len() {
                        self.rbuf.resize(self.rbuf.len() * 2, 0);
                    }
                    let n = self.stream.read(&mut self.rbuf[self.filled..])?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-response",
                        ));
                    }
                    self.filled += n;
                }
                // a decode error is the server speaking a different
                // protocol, not a flaky network: fatal, no retry
                Err(e) => return Ok(Err(ServeError::BadRequest(e.to_string()))),
            }
        }
        // id 0 is reserved for connection-level error records (the server
        // couldn't attribute the failure to a request it decoded)
        if rec.id != id {
            if rec.id == 0 {
                if let Some(e) = wire::error_of_status(rec.status) {
                    return Ok(Err(e));
                }
            }
            return Ok(Err(ServeError::BadRequest(format!(
                "response id {} != request id {id}",
                rec.id
            ))));
        }
        Ok(match wire::error_of_status(rec.status) {
            None => Ok(ControlResponse {
                control: rec.control().to_vec(),
                served_by_fallback: rec.status == wire::STATUS_OK_FALLBACK,
            }),
            Some(e) => Err(e),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let first: Vec<Duration> = (0..8).map(backoff_delay).collect();
        let second: Vec<Duration> = (0..8).map(backoff_delay).collect();
        assert_eq!(first, second, "same seed must give identical delays");
        for d in &first {
            assert!(*d >= Duration::from_millis(10), "at least the base");
            assert!(*d < Duration::from_millis(210), "cap plus jitter bound");
        }
        // the exponential part doubles until the cap: 10, 20, 40, 80, 160,
        // then 200 from the sixth attempt on
        let floors: Vec<u64> = first
            .iter()
            .map(|d| u64::try_from(d.as_millis()).expect("small") / 10 * 10)
            .collect();
        assert_eq!(floors[..5], [10, 20, 40, 80, 160]);
        assert!(floors[5..].iter().all(|&f| f == 200), "{floors:?}");
    }

    #[cfg(target_os = "linux")]
    fn test_engine(shards: usize) -> crate::engine::Engine {
        use crate::engine::{Engine, EngineConfig};
        use cocktail_nn::{Activation, MlpBuilder};
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
            std::sync::Arc::new(cocktail_obs::NullSink),
        )
        .expect("engine starts")
    }

    #[cfg(target_os = "linux")]
    fn serve(engine: &crate::engine::Engine) -> crate::reactor::ReactorServer {
        crate::reactor::ReactorServer::bind("127.0.0.1:0", engine.handle()).expect("bind")
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn tcp_round_trip_matches_in_process_answer() {
        let engine = test_engine(2);
        let server = serve(&engine);
        let mut client = BinaryTcpClient::connect(server.local_addr()).expect("connect");
        for i in 0..48 {
            let state = [f64::from(i) * 0.03 - 0.7, 0.2];
            let over_wire = client.control(&state).expect("served");
            let in_process = engine.handle().submit(&state).expect("served");
            assert_eq!(over_wire, in_process, "the wire must not move a bit");
        }
        server.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn binary_errors_travel_as_status_codes() {
        let engine = test_engine(1);
        let server = serve(&engine);
        let mut client = BinaryTcpClient::connect(server.local_addr()).expect("connect");
        let err = client.control(&[1.0, 2.0, 3.0]).expect_err("wrong dim");
        assert!(matches!(err, ServeError::BadRequest(_)));
        // the connection survives a refused request
        assert!(client.control(&[0.0, 0.0]).is_ok());
        server.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn malformed_state_travels_back_as_an_error() {
        let engine = test_engine(1);
        let server = serve(&engine);
        let mut client = BinaryTcpClient::connect(server.local_addr()).expect("connect");
        // the frame is well-formed; the engine refuses the non-finite
        // state and the refusal comes back on the request's own id
        for bad in [[f64::NAN, 0.0], [0.0, f64::INFINITY]] {
            let err = client.control(&bad).expect_err("non-finite state");
            assert!(matches!(err, ServeError::BadRequest(_)), "{err:?}");
        }
        assert!(client.control(&[0.0, 0.0]).is_ok());
        server.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn binary_client_reconnects_after_a_severed_connection() {
        let engine = test_engine(1);
        let server = serve(&engine);
        let mut client = BinaryTcpClient::connect(server.local_addr()).expect("connect");
        let s = [0.1, -0.2];
        let before = client.control(&s).expect("served");
        // tear the connection down without telling the client, as a
        // mid-flight network failure would
        let _ = client.stream.shutdown(std::net::Shutdown::Both);
        let after = client.control(&s).expect("served after reconnect");
        assert_eq!(before, after, "resent request answers identically");
        assert_eq!(client.reconnects(), 1);
        server.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn corrupted_binary_frames_get_a_status_reply_then_close() {
        use crate::reactor::tests::{connect_raw, expect_refusal_then_eof};
        let engine = test_engine(1);
        let server = serve(&engine);
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
            ("oversized dim", oversized_dim, true),
            ("truncated then closed", truncated, false),
        ];
        for (name, bytes, expect_reply) in cases {
            let mut stream = connect_raw(server.local_addr());
            stream.write_all(&bytes).expect("payload");
            expect_refusal_then_eof(&mut stream, name, expect_reply);
        }
        // none of that corruption hurt the server
        let mut client = BinaryTcpClient::connect(server.local_addr()).expect("connect");
        assert!(client.control(&[0.0, 0.0]).is_ok());
        server.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn corrupted_json_frames_get_an_error_reply_then_close() {
        use crate::reactor::tests::{connect_raw, expect_refusal_then_eof};
        let engine = test_engine(1);
        let server = serve(&engine);
        // a client still speaking length-prefixed JSON never sends the
        // hello: an oversized length prefix, a "bad magic" first byte and a
        // complete JSON request are all refused with a status record
        let json_request = {
            let body = br#"{"id":1,"state":[0.0,0.0]}"#;
            let len = u32::try_from(body.len()).expect("short body");
            [&len.to_be_bytes()[..], body].concat()
        };
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("oversized length prefix", vec![0x10, 0x00, 0x00, 0x01]),
            ("bad magic", vec![0x7F, 0xFF, 0xFF, 0xFF]),
            ("JSON request", json_request),
        ];
        for (name, bytes) in cases {
            let mut stream = connect_raw(server.local_addr());
            stream.write_all(&bytes).expect("payload");
            expect_refusal_then_eof(&mut stream, name, true);
        }
        let mut client = BinaryTcpClient::connect(server.local_addr()).expect("connect");
        assert!(client.control(&[0.0, 0.0]).is_ok());
        server.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pipelined_requests_keep_their_ids_straight() {
        let engine = test_engine(1);
        let server = serve(&engine);
        let mut client = BinaryTcpClient::connect(server.local_addr()).expect("connect");
        for i in 0..20 {
            let s = [f64::from(i) * 0.05, -0.1];
            let got = client.control(&s).expect("served");
            let raw = engine.handle().submit(&s).expect("served");
            assert_eq!(got, raw);
            assert_eq!(
                got.control,
                cocktail_math::vector::clip(&got.control, &[-4.0], &[4.0]),
                "wire output respects the clip envelope"
            );
        }
        server.shutdown();
    }
}
