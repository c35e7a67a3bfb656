//! A blocking client for the wire protocol, used by `pc query` and the
//! integration tests.
//!
//! Resilience: [`ServiceClient::connect_with`] bounds the TCP handshake and
//! every read/write with timeouts, and [`ServiceClient::call_with_policy`]
//! retries `busy` answers under a [`RetryPolicy`] — capped exponential
//! back-off with deterministic jitter, bounded by a total deadline — so a
//! saturated or stalled server costs a client a known, finite wait.

use crate::codec::{self, CodecError, MAX_FRAME_BYTES};
use crate::protocol::{self, ProtocolError, Request, Response};
use std::fmt;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Codec(CodecError),
    /// The server sent a frame the protocol layer cannot decode.
    Protocol(ProtocolError),
    /// The response's sequence number does not match the request's.
    SequenceMismatch {
        /// Sequence number sent.
        sent: u64,
        /// Sequence number received.
        received: u64,
    },
    /// The server reported a connection-level failure (sequence 0) — a
    /// framing violation or an injected wire fault — and will hang up.
    ConnectionError {
        /// The server's error message.
        message: String,
    },
    /// The server kept answering `busy` through every allowed attempt.
    ExhaustedRetries {
        /// Attempts made.
        attempts: u32,
        /// Total time spent waiting across all attempts, in milliseconds.
        waited_ms: u64,
    },
    /// The retry policy's total deadline expired before the server stopped
    /// answering `busy`.
    DeadlineExceeded {
        /// Attempts made before the deadline cut the retry loop.
        attempts: u32,
        /// Total time spent waiting, in milliseconds.
        waited_ms: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Codec(e) => write!(f, "{e}"),
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::SequenceMismatch { sent, received } => {
                write!(
                    f,
                    "response seq {received} does not match request seq {sent}"
                )
            }
            ClientError::ConnectionError { message } => {
                write!(f, "server closed the connection: {message}")
            }
            ClientError::ExhaustedRetries {
                attempts,
                waited_ms,
            } => {
                write!(
                    f,
                    "server still busy after {attempts} attempts ({waited_ms} ms waited)"
                )
            }
            ClientError::DeadlineExceeded {
                attempts,
                waited_ms,
            } => {
                write!(
                    f,
                    "retry deadline expired after {attempts} attempts ({waited_ms} ms waited)"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Codec(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// How [`ServiceClient::call_with_policy`] paces its retries.
///
/// The nominal back-off doubles from `base_backoff_ms` per attempt up to
/// `max_backoff_ms`, then deterministic jitter subtracts up to half of it so
/// a fleet of clients bounced by the same `busy` burst does not re-arrive in
/// lockstep. The jittered pause is clamped to the server's `retry_after_ms`
/// hint — a client never re-arrives before the server asked it to.
/// `deadline` bounds the *total* time across all attempts.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts before giving up with
    /// [`ClientError::ExhaustedRetries`].
    pub max_attempts: u32,
    /// First back-off, in milliseconds.
    pub base_backoff_ms: u64,
    /// Cap on a single back-off, in milliseconds.
    pub max_backoff_ms: u64,
    /// Bound on the total wait across attempts; `None` means unbounded.
    pub deadline: Option<Duration>,
    /// Seed for the deterministic jitter (vary per client to decorrelate).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 50,
            base_backoff_ms: 10,
            max_backoff_ms: 500,
            deadline: Some(Duration::from_secs(30)),
            jitter_seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The pause before the next attempt, after `attempt` completed attempts
    /// with the server's latest `retry_after_ms` hint.
    pub fn backoff(&self, attempt: u32, hint_ms: u64) -> Duration {
        let doubled = self
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_backoff_ms);
        let nominal = doubled.max(hint_ms);
        let span = nominal / 2;
        let jitter = if span == 0 {
            0
        } else {
            pc_stats::mix64(self.jitter_seed ^ u64::from(attempt)) % (span + 1)
        };
        // Clamp *after* jitter: the hint is the server's floor, and jitter
        // must only ever spread clients out beyond it, never under it.
        Duration::from_millis((nominal - jitter).max(hint_ms))
    }
}

/// Socket timeouts for [`ServiceClient::connect_with`].
///
/// The default enforces nothing, matching [`ServiceClient::connect`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnectOptions {
    /// Bound on the TCP handshake itself.
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout: a response frame that stops making progress for
    /// this long fails the call with a transport error.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout for request frames.
    pub write_timeout: Option<Duration>,
}

impl ConnectOptions {
    /// All three timeouts set to the same bound — the common CLI case.
    pub fn uniform(timeout: Duration) -> Self {
        Self {
            connect_timeout: Some(timeout),
            read_timeout: Some(timeout),
            write_timeout: Some(timeout),
        }
    }
}

/// A blocking connection to a `pc-service` server.
///
/// [`ServiceClient::call`] is the one-outstanding-request convenience;
/// [`ServiceClient::send`] / [`ServiceClient::recv`] allow pipelining many
/// requests before reading any responses (sequence numbers correlate them).
pub struct ServiceClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_seq: u64,
    trace: bool,
    /// Dial target kept for transparent re-dials; only
    /// [`ServiceClient::connect_named`] records it.
    peer: Option<(String, ConnectOptions)>,
}

impl ServiceClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::connect_with(addr, ConnectOptions::default())
    }

    /// Connects to a server with socket timeouts.
    ///
    /// # Errors
    ///
    /// Propagates connect failures, including handshakes that outlive
    /// `opts.connect_timeout`.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, opts: ConnectOptions) -> io::Result<Self> {
        let writer = match opts.connect_timeout {
            Some(timeout) => {
                // connect_timeout wants a concrete address; try each
                // resolution and keep the last failure for the error report.
                let mut last_err = None;
                let mut connected = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, timeout) {
                        Ok(stream) => {
                            connected = Some(stream);
                            break;
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                connected.ok_or_else(|| {
                    last_err.unwrap_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
                    })
                })?
            }
            None => TcpStream::connect(addr)?,
        };
        writer.set_read_timeout(opts.read_timeout)?;
        writer.set_write_timeout(opts.write_timeout)?;
        // Every frame leaves in one write (see `codec::write_frame`); with
        // Nagle's algorithm on, a frame sent while an earlier segment is
        // unacknowledged would still wait for the peer's delayed ACK.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self {
            writer,
            reader,
            next_seq: 1,
            trace: false,
            peer: None,
        })
    }

    /// Connects to a server by address string, remembering the target so
    /// [`ServiceClient::call_with_policy`] can transparently re-dial after
    /// a transport failure — the right mode for talking to a `pc route`
    /// tier, where a broken connection usually means the router (or the
    /// replica behind it) is mid-restart rather than gone.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::connect_with`].
    pub fn connect_named(addr: &str, opts: ConnectOptions) -> io::Result<Self> {
        let mut client = Self::connect_with(addr, opts)?;
        client.peer = Some((addr.to_string(), opts));
        Ok(client)
    }

    /// Asks (or stops asking) the server for per-request stage traces: while
    /// set, every request carries the `trace` flag and its response arrives
    /// wrapped in [`Response::Traced`].
    pub fn set_trace(&mut self, trace: bool) {
        self.trace = trace;
    }

    /// Sends `request` without waiting, returning the sequence number its
    /// response will carry.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send(&mut self, request: &Request) -> Result<u64, ClientError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let frame = protocol::encode_request_with(seq, request, self.trace);
        codec::write_frame(&mut self.writer, &frame).map_err(CodecError::Io)?;
        Ok(seq)
    }

    /// Receives the next response as `(seq, response)`.
    ///
    /// # Errors
    ///
    /// Propagates transport, framing, and protocol failures.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        let value = codec::read_frame(&mut self.reader, MAX_FRAME_BYTES)?;
        Ok(protocol::decode_response(&value)?)
    }

    /// Sends `request` stamped with a router-assigned `origin` trace id
    /// (replica-forwarding frames) without waiting.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send_routed(&mut self, request: &Request, origin: u64) -> Result<u64, ClientError> {
        self.send_routed_inner(request, origin, None)
    }

    fn send_routed_inner(
        &mut self,
        request: &Request,
        origin: u64,
        wseq: Option<u64>,
    ) -> Result<u64, ClientError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let frame = protocol::encode_request_routed(seq, request, self.trace, origin, wseq);
        codec::write_frame(&mut self.writer, &frame).map_err(CodecError::Io)?;
        Ok(seq)
    }

    /// [`ServiceClient::call`] for a forwarded frame: stamps `origin` so
    /// the replica's flight recorder correlates with the routing tier.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::call`].
    pub fn call_routed(&mut self, request: &Request, origin: u64) -> Result<Response, ClientError> {
        let sent = self.send_routed(request, origin)?;
        self.finish_call(sent)
    }

    /// [`ServiceClient::call_routed`] for a fanned-out mutation: also
    /// stamps the router's global write sequence `wseq`, which the replica
    /// folds into its applied-write watermark so a later journal replay
    /// skips this mutation instead of applying it twice.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::call`].
    pub fn call_routed_write(
        &mut self,
        request: &Request,
        origin: u64,
        wseq: u64,
    ) -> Result<Response, ClientError> {
        let sent = self.send_routed_inner(request, origin, Some(wseq))?;
        self.finish_call(sent)
    }

    /// Sends `request` and waits for its response.
    ///
    /// # Errors
    ///
    /// Everything [`ServiceClient::send`] / [`ServiceClient::recv`] can
    /// raise, plus [`ClientError::SequenceMismatch`] if the connection was
    /// previously used for pipelining and has responses still in flight.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let sent = self.send(request)?;
        self.finish_call(sent)
    }

    fn finish_call(&mut self, sent: u64) -> Result<Response, ClientError> {
        let (received, response) = self.recv()?;
        if received != sent {
            // Sequence 0 is the server's channel for uncorrelated
            // connection-level errors (framing violations, wire faults);
            // it tears the connection down right after sending one.
            if received == 0 {
                if let Response::Error { message } = response {
                    return Err(ClientError::ConnectionError { message });
                }
            }
            return Err(ClientError::SequenceMismatch { sent, received });
        }
        Ok(response)
    }

    /// [`ServiceClient::call`], resubmitting on `busy` after the server's
    /// suggested back-off, up to `max_attempts` total attempts under the
    /// default [`RetryPolicy`] pacing.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::call_with_policy`].
    pub fn call_retrying(
        &mut self,
        request: &Request,
        max_attempts: u32,
    ) -> Result<Response, ClientError> {
        let policy = RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        };
        self.call_with_policy(request, &policy)
    }

    /// [`ServiceClient::call`], resubmitting on `busy` under `policy`.
    ///
    /// A routed `busy` (the router shedding because no replica answered)
    /// paces exactly like a server-side one: its `retry_after_ms` hint
    /// floors the back-off, even through a [`Response::Traced`] wrapper.
    /// On a connection built with [`ServiceClient::connect_named`],
    /// transport failures re-dial the peer and retry under the same
    /// attempt/deadline budget — requests are then delivered
    /// at-least-once, so non-idempotent mutations may apply twice across a
    /// retry boundary.
    ///
    /// # Errors
    ///
    /// [`ClientError::ExhaustedRetries`] when every allowed attempt answered
    /// `busy`; [`ClientError::DeadlineExceeded`] when the policy's total
    /// deadline expired first; otherwise as [`ServiceClient::call`].
    pub fn call_with_policy(
        &mut self,
        request: &Request,
        policy: &RetryPolicy,
    ) -> Result<Response, ClientError> {
        // pc-allow: D002 — retry backoff deadline is wall-clock by contract
        let started = Instant::now();
        let mut attempts = 0;
        while attempts < policy.max_attempts.max(1) {
            attempts += 1;
            let last_attempt = attempts >= policy.max_attempts.max(1);
            let retry_after_ms = match self.call(request) {
                Ok(response) => match busy_hint(&response) {
                    // A busy answer on the final allowed attempt is already
                    // exhaustion — fail now rather than sleeping a back-off
                    // whose retry will never be sent.
                    Some(_) if last_attempt => break,
                    Some(hint) => hint,
                    None => return Ok(response),
                },
                Err(e) => {
                    // A broken connection is retryable only when we know
                    // the peer to re-dial; protocol violations never are.
                    if self.peer.is_none() || !is_transport(&e) || last_attempt {
                        return Err(e);
                    }
                    self.redial();
                    0
                }
            };
            let pause = policy.backoff(attempts - 1, retry_after_ms);
            if let Some(deadline) = policy.deadline {
                if started.elapsed() + pause >= deadline {
                    return Err(ClientError::DeadlineExceeded {
                        attempts,
                        waited_ms: started.elapsed().as_millis() as u64,
                    });
                }
            }
            std::thread::sleep(pause);
        }
        Err(ClientError::ExhaustedRetries {
            attempts,
            waited_ms: started.elapsed().as_millis() as u64,
        })
    }

    /// Attempts to replace the connection with a fresh dial to the
    /// remembered peer. On failure the broken streams stay in place — the
    /// next call fails fast and the retry loop paces another re-dial.
    fn redial(&mut self) {
        let Some((addr, opts)) = self.peer.clone() else {
            return;
        };
        if let Ok(fresh) = Self::connect_named(&addr, opts) {
            let trace = self.trace;
            let next_seq = self.next_seq;
            *self = fresh;
            self.trace = trace;
            self.next_seq = next_seq;
        }
    }
}

/// Whether a failure is a transport-level one a re-dial might heal.
fn is_transport(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Codec(_) | ClientError::ConnectionError { .. }
    )
}

/// The `retry_after_ms` hint if `response` is a `busy` answer — looking
/// through a [`Response::Traced`] wrapper, so traced calls still retry.
fn busy_hint(response: &Response) -> Option<u64> {
    match response {
        Response::Busy { retry_after_ms } => Some(*retry_after_ms),
        Response::Traced { inner, .. } => busy_hint(inner),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let policy = RetryPolicy::default();
        for attempt in 0..20 {
            let a = policy.backoff(attempt, 0);
            let b = policy.backoff(attempt, 0);
            assert_eq!(a, b, "same attempt must pause identically");
            assert!(a <= Duration::from_millis(policy.max_backoff_ms));
        }
    }

    #[test]
    fn backoff_never_undercuts_the_server_hint() {
        // Regression: jitter used to subtract from the hint-raised nominal,
        // so a client could re-arrive before the server's `retry_after_ms`
        // floor. The pause is now clamped to the hint after jitter.
        for seed in [0u64, 1, 0x5eed, u64::MAX] {
            let policy = RetryPolicy {
                jitter_seed: seed,
                ..RetryPolicy::default()
            };
            for attempt in 0..20 {
                for hint_ms in [0u64, 1, 10, 200, 499, 500, 10_000] {
                    let pause = policy.backoff(attempt, hint_ms);
                    assert!(
                        pause >= Duration::from_millis(hint_ms),
                        "attempt {attempt} hint {hint_ms} seed {seed:#x}: slept only {pause:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn backoff_grows_before_jitter() {
        let policy = RetryPolicy {
            jitter_seed: 0, // mix64(0 ^ n) still jitters; compare nominals
            ..RetryPolicy::default()
        };
        // The un-jittered nominal doubles: attempt 3 with base 10 is 80ms,
        // so even maximal jitter keeps it above attempt 0's nominal.
        assert!(policy.backoff(3, 0) >= Duration::from_millis(40));
        assert!(policy.backoff(0, 0) <= Duration::from_millis(10));
    }

    #[test]
    fn uniform_connect_options_set_all_three() {
        let opts = ConnectOptions::uniform(Duration::from_millis(250));
        assert_eq!(opts.connect_timeout, Some(Duration::from_millis(250)));
        assert_eq!(opts.read_timeout, Some(Duration::from_millis(250)));
        assert_eq!(opts.write_timeout, Some(Duration::from_millis(250)));
    }
}
