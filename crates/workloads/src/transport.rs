//! Networked trace transport: supervised socket sessions with offset resume.
//!
//! The wire protocol is a length-delimited chunk stream over TCP or
//! Unix-domain sockets, designed so that the canonical byte stream handed to
//! the codec is *identical* to reading the same trace from a file, no matter
//! how many disconnects, retries, or duplicate deliveries happened in
//! between. Verdict identity over a flaky network is therefore structural,
//! not probabilistic.
//!
//! ## Wire format (version 2)
//!
//! Client → server, on connect (24 bytes):
//!
//! ```text
//! HELLO:  "IMPS" | version u16 LE | flags u16 LE | start_offset u64 LE | tenant u64 LE
//! ```
//!
//! Server → client reply (24 bytes):
//!
//! ```text
//! REPLY:  "IMPA" | version u16 LE | status u8 | reserved u8 | resume_offset u64 LE | tenant u64 LE
//! ```
//!
//! `tenant` in the HELLO is 0 for a fresh producer ("assign me a token") or a
//! previously assigned token to rejoin the same tenant pipeline after a
//! reconnect. The reply's `tenant` is the server-assigned token and is
//! authoritative, as is `resume_offset`: the client seeks its input there and
//! resumes, regardless of what it announced. A non-OK `status` is a typed
//! reject: `BUSY` (2) means admission control refused the session (retry
//! later), `QUARANTINED` (3) means this tenant token is banned for the rest
//! of the daemon's life (do not retry). After the handshake, tagged frames
//! flow client → server:
//!
//! ```text
//! DATA(1):      tag u8 | offset u64 LE | len u32 LE | payload[len]
//! HEARTBEAT(2): tag u8
//! FIN(3):       tag u8 | total u64 LE
//! ```
//!
//! and server → client on the same connection:
//!
//! ```text
//! ACK(5):     tag u8 | committed u64 LE     (every `ack_every` bytes + on FIN)
//! GOODBYE(4): tag u8 | committed u64 LE     (graceful drain; not a crash)
//! ```
//!
//! The server commits bytes strictly in offset order and drops (or trims)
//! any DATA frame that overlaps what it already committed, so client
//! retransmission after a lost ack is harmless. A DATA offset *beyond* the
//! committed offset is a protocol violation: the server drops the connection
//! and the client reconnects and reseeks, which heals the gap.

use std::fmt;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::source::{DisconnectReason, FollowPolicy, TransportEvent};

/// Magic leading a client HELLO.
pub const HELLO_MAGIC: [u8; 4] = *b"IMPS";
/// Magic leading a server handshake reply.
pub const REPLY_MAGIC: [u8; 4] = *b"IMPA";
/// Wire protocol version spoken by this build.
pub const TRANSPORT_VERSION: u16 = 2;
/// Handshake message size (both directions).
pub const HANDSHAKE_BYTES: usize = 24;
/// Protocol cap on a single DATA frame payload; also bounds server staging.
pub const MAX_DATA_BYTES: usize = 256 * 1024;
/// Default client DATA payload size.
pub const DEFAULT_DATA_BYTES: usize = 32 * 1024;
/// Default server ack cadence in committed bytes.
pub const DEFAULT_ACK_EVERY: u64 = 128 * 1024;
/// Default client flow-control window (unacked bytes before blocking).
pub const DEFAULT_ACK_WINDOW: u64 = 1 << 20;
/// Default cap on sessions one `send_stream` call may open.
pub const DEFAULT_MAX_SESSIONS: u64 = 64;

const TAG_DATA: u8 = 1;
const TAG_HEARTBEAT: u8 = 2;
const TAG_FIN: u8 = 3;
const TAG_GOODBYE: u8 = 4;
const TAG_ACK: u8 = 5;
pub(crate) const DATA_HEADER: usize = 13;

const STATUS_OK: u8 = 0;
const STATUS_BAD_VERSION: u8 = 1;
/// Admission control refused the session; the producer may retry later.
const STATUS_BUSY: u8 = 2;
/// The presented tenant token is banned; the producer must not retry.
const STATUS_QUARANTINED: u8 = 3;

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn transport_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, msg.into())
}

fn protocol_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn conn_closed() -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionAborted,
        "daemon closed the connection",
    )
}

/// A parsed transport address: `tcp://host:port` or `unix://path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP endpoint (`tcp://127.0.0.1:7700`).
    Tcp(String),
    /// Unix-domain stream endpoint (`unix:///run/impress.sock`).
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses `tcp://addr` / `unix://path`.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for unknown schemes or empty addresses.
    pub fn parse(s: &str) -> io::Result<Self> {
        if let Some(rest) = s.strip_prefix("tcp://") {
            if rest.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "empty tcp endpoint address",
                ));
            }
            Ok(Endpoint::Tcp(rest.to_string()))
        } else if let Some(rest) = s.strip_prefix("unix://") {
            if rest.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "empty unix endpoint path",
                ));
            }
            Ok(Endpoint::Unix(PathBuf::from(rest)))
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("endpoint must start with tcp:// or unix://, got {s:?}"),
            ))
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(a) => write!(f, "tcp://{a}"),
            Endpoint::Unix(p) => write!(f, "unix://{}", p.display()),
        }
    }
}

/// One stream connection, TCP or Unix — the byte pipe both endpoints share.
#[derive(Debug)]
pub enum Wire {
    /// A connected TCP stream.
    Tcp(TcpStream),
    /// A connected Unix-domain stream.
    Unix(UnixStream),
}

impl Wire {
    /// Connects to `endpoint`.
    ///
    /// # Errors
    ///
    /// Propagates connect errors (refused, absent socket path, ...).
    pub fn connect(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Tcp(addr) => Ok(Wire::Tcp(TcpStream::connect(addr)?)),
            Endpoint::Unix(path) => Ok(Wire::Unix(UnixStream::connect(path)?)),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Wire::Tcp(s) => s.read(buf),
            Wire::Unix(s) => s.read(buf),
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            Wire::Tcp(s) => s.write_all(buf),
            Wire::Unix(s) => s.write_all(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Wire::Tcp(s) => s.write(buf),
            Wire::Unix(s) => s.write(buf),
        }
    }

    fn write_prefix(&mut self, buf: &[u8], keep: usize) -> io::Result<()> {
        self.write_all(&buf[..keep.min(buf.len())])
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        let t = t.map(|d| d.max(Duration::from_millis(1)));
        match self {
            Wire::Tcp(s) => s.set_read_timeout(t),
            Wire::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Wire::Tcp(s) => s.set_nonblocking(on),
            Wire::Unix(s) => s.set_nonblocking(on),
        }
    }

    fn shutdown(&self) -> io::Result<()> {
        match self {
            Wire::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Wire::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }

    fn shutdown_write(&self) -> io::Result<()> {
        match self {
            Wire::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            Wire::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }
}

/// A bound, non-blocking accept socket for [`TenantServer`].
#[derive(Debug)]
pub enum Listener {
    /// Bound TCP listener.
    Tcp(TcpListener),
    /// Bound Unix-domain listener plus its path (unlinked on drop).
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds `endpoint` and switches the listener to non-blocking accepts.
    ///
    /// A stale Unix socket file at the path is unlinked first so daemon
    /// restarts can rebind.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Self> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
            Endpoint::Unix(path) => {
                let _ = fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l, path.clone()))
            }
        }
    }

    /// The endpoint actually bound (resolves `tcp://…:0` to the real port).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` errors.
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
            Listener::Unix(_, p) => Ok(Endpoint::Unix(p.clone())),
        }
    }

    fn accept(&self) -> io::Result<Option<Wire>> {
        let wire = match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Wire::Tcp(s),
                Err(e) if is_timeout(&e) => return Ok(None),
                Err(e) => return Err(e),
            },
            Listener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => Wire::Unix(s),
                Err(e) if is_timeout(&e) => return Ok(None),
                Err(e) => return Err(e),
            },
        };
        wire.set_nonblocking(false)?;
        Ok(Some(wire))
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = fs::remove_file(path);
        }
    }
}

fn hello_bytes(start_offset: u64, tenant: u64) -> [u8; HANDSHAKE_BYTES] {
    let mut b = [0u8; HANDSHAKE_BYTES];
    b[..4].copy_from_slice(&HELLO_MAGIC);
    b[4..6].copy_from_slice(&TRANSPORT_VERSION.to_le_bytes());
    // b[6..8]: flags, reserved (zero).
    b[8..16].copy_from_slice(&start_offset.to_le_bytes());
    b[16..24].copy_from_slice(&tenant.to_le_bytes());
    b
}

fn reply_bytes(status: u8, committed: u64, tenant: u64) -> [u8; HANDSHAKE_BYTES] {
    let mut b = [0u8; HANDSHAKE_BYTES];
    b[..4].copy_from_slice(&REPLY_MAGIC);
    b[4..6].copy_from_slice(&TRANSPORT_VERSION.to_le_bytes());
    b[6] = status;
    b[8..16].copy_from_slice(&committed.to_le_bytes());
    b[16..24].copy_from_slice(&tenant.to_le_bytes());
    b
}

fn tagged_u64(tag: u8, value: u64) -> [u8; 9] {
    let mut b = [0u8; 9];
    b[0] = tag;
    b[1..9].copy_from_slice(&value.to_le_bytes());
    b
}

/// Builds the wire bytes of one DATA frame.
fn data_frame(offset: u64, payload: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(DATA_HEADER + payload.len());
    b.push(TAG_DATA);
    b.extend_from_slice(&offset.to_le_bytes());
    b.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    b.extend_from_slice(payload);
    b
}

/// Tuning knobs for [`TenantServer`] beyond the reconnect policy.
#[derive(Debug, Clone, Copy)]
pub struct SocketTuning {
    /// Send an ACK each time this many new canonical bytes commit.
    pub ack_every: u64,
    /// How long a freshly accepted connection may take to complete the
    /// handshake before it is dropped as a protocol violation.
    pub handshake_timeout: Duration,
}

impl Default for SocketTuning {
    fn default() -> Self {
        Self {
            ack_every: DEFAULT_ACK_EVERY,
            handshake_timeout: Duration::from_secs(5),
        }
    }
}

enum Frame {
    Data {
        offset: u64,
        start: usize,
        len: usize,
    },
    Heartbeat,
    Fin {
        total: u64,
    },
}

/// Parses one complete frame at the start of `b`, returning it plus the
/// bytes consumed. For DATA, `start` is the payload offset *relative to
/// `b`*. `Ok(None)` means the frame is still incomplete; `Err(())` is a
/// protocol violation (unknown tag or oversized DATA).
fn parse_frame(b: &[u8]) -> Result<Option<(Frame, usize)>, ()> {
    if b.is_empty() {
        return Ok(None);
    }
    match b[0] {
        TAG_DATA => {
            if b.len() < DATA_HEADER {
                return Ok(None);
            }
            let offset = u64::from_le_bytes(b[1..9].try_into().unwrap());
            let len = u32::from_le_bytes(b[9..13].try_into().unwrap()) as usize;
            if len > MAX_DATA_BYTES {
                return Err(());
            }
            if b.len() < DATA_HEADER + len {
                return Ok(None);
            }
            Ok(Some((
                Frame::Data {
                    offset,
                    start: DATA_HEADER,
                    len,
                },
                DATA_HEADER + len,
            )))
        }
        TAG_HEARTBEAT => Ok(Some((Frame::Heartbeat, 1))),
        TAG_FIN => {
            if b.len() < 9 {
                return Ok(None);
            }
            let total = u64::from_le_bytes(b[1..9].try_into().unwrap());
            Ok(Some((Frame::Fin { total }, 9)))
        }
        _ => Err(()),
    }
}

/// A server → client control message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerReply {
    /// The server committed bytes up to this offset.
    Ack(u64),
    /// Graceful shutdown at this committed offset — stop retrying.
    Goodbye(u64),
}

/// Result of a successful client handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handshake {
    /// The server's authoritative committed offset to resume sending from.
    pub resume_offset: u64,
    /// The tenant token the server bound this session to. Presented on
    /// reconnect so the session rejoins the same tenant pipeline.
    pub tenant: u64,
}

/// Client half of one transport session: framed sends plus reply reads.
///
/// [`WireLink`] is the real implementation;
/// [`FaultTransport`](crate::faults::FaultTransport) wraps it to inject
/// connection-level faults in tests.
pub trait ClientLink {
    /// Sends HELLO announcing `start_offset` and `tenant` (0 = "assign me a
    /// token") and returns the server's authoritative resume offset and
    /// tenant token.
    ///
    /// # Errors
    ///
    /// I/O errors, handshake timeout, a version rejection, an admission
    /// reject (`ConnectionRefused` — the daemon is at capacity, retry
    /// later), or a quarantine reject (`PermissionDenied` — this tenant is
    /// banned, do not retry).
    fn handshake(
        &mut self,
        start_offset: u64,
        tenant: u64,
        timeout: Duration,
    ) -> io::Result<Handshake>;

    /// Sends one DATA frame carrying `payload` at stream `offset`.
    ///
    /// # Errors
    ///
    /// Socket write errors.
    fn send_data(&mut self, offset: u64, payload: &[u8]) -> io::Result<()>;

    /// Sends a HEARTBEAT keep-alive.
    ///
    /// # Errors
    ///
    /// Socket write errors.
    fn send_heartbeat(&mut self) -> io::Result<()>;

    /// Sends FIN declaring the total stream length.
    ///
    /// # Errors
    ///
    /// Socket write errors.
    fn send_fin(&mut self, total: u64) -> io::Result<()>;

    /// Reads one server reply. `wait: None` polls without blocking; with a
    /// timeout, returns `Ok(None)` if nothing arrived in time.
    ///
    /// # Errors
    ///
    /// Socket read errors or malformed replies.
    fn recv_reply(&mut self, wait: Option<Duration>) -> io::Result<Option<ServerReply>>;
}

/// The concrete [`ClientLink`] over a [`Wire`].
#[derive(Debug)]
pub struct WireLink {
    wire: Wire,
    rbuf: Vec<u8>,
    rat: usize,
}

impl WireLink {
    /// Connects a fresh link to `endpoint` (handshake not yet performed).
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Self> {
        Ok(Self {
            wire: Wire::connect(endpoint)?,
            rbuf: Vec::new(),
            rat: 0,
        })
    }

    /// Sends only the first `keep` wire bytes of a DATA frame, then reports
    /// the connection dead. Fault-injection hook for `ShortWrite`.
    pub(crate) fn send_data_prefix(
        &mut self,
        offset: u64,
        payload: &[u8],
        keep: usize,
    ) -> io::Result<()> {
        let frame = data_frame(offset, payload);
        self.wire.write_prefix(&frame, keep)?;
        self.sever();
        Err(io::Error::new(
            io::ErrorKind::ConnectionReset,
            "injected short write",
        ))
    }

    /// Sends only the first `keep` wire bytes of a DATA frame and keeps the
    /// connection open: the slow-loris hook. The server sits on an
    /// incomplete frame — the session looks alive but never commits — until
    /// its stall eviction fires.
    pub(crate) fn send_data_stall(
        &mut self,
        offset: u64,
        payload: &[u8],
        keep: usize,
    ) -> io::Result<()> {
        let frame = data_frame(offset, payload);
        self.wire.write_prefix(&frame, keep)
    }

    /// Severs the link for fault injection without destroying in-flight
    /// data: shuts down only the write side, so everything already written
    /// still reaches the server, then drains incoming replies until the
    /// server closes. Closing a socket with unread bytes in its receive
    /// queue resets the connection and can tear down data the peer has not
    /// read yet — which would make the delivered prefix racy instead of
    /// exact.
    pub(crate) fn sever(&mut self) {
        let _ = self.wire.shutdown_write();
        let _ = self.wire.set_read_timeout(Some(Duration::from_secs(2)));
        let mut scratch = [0u8; 1024];
        loop {
            match self.wire.read(&mut scratch) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }

    fn parse_reply(&mut self) -> io::Result<Option<ServerReply>> {
        let avail = self.rbuf.len() - self.rat;
        if avail == 0 {
            return Ok(None);
        }
        let b = &self.rbuf[self.rat..];
        match b[0] {
            TAG_ACK | TAG_GOODBYE if b.len() >= 9 => {
                let v = u64::from_le_bytes(b[1..9].try_into().unwrap());
                let tag = b[0];
                self.rat += 9;
                Ok(Some(if tag == TAG_ACK {
                    ServerReply::Ack(v)
                } else {
                    ServerReply::Goodbye(v)
                }))
            }
            TAG_ACK | TAG_GOODBYE => Ok(None),
            t => Err(protocol_err(format!("unexpected reply tag {t}"))),
        }
    }

    fn read_replies(&mut self, wait: Option<Duration>) -> io::Result<usize> {
        if self.rat > 0 {
            self.rbuf.drain(..self.rat);
            self.rat = 0;
        }
        let mut scratch = [0u8; 1024];
        let n = match wait {
            None => {
                self.wire.set_nonblocking(true)?;
                let r = self.wire.read(&mut scratch);
                self.wire.set_nonblocking(false)?;
                match r {
                    // A zero-byte read is peer EOF, not "nothing available":
                    // surface it so callers reconnect instead of spinning.
                    Ok(0) => return Err(conn_closed()),
                    Ok(n) => n,
                    Err(e) if is_timeout(&e) => 0,
                    Err(e) => return Err(e),
                }
            }
            Some(t) => {
                self.wire.set_read_timeout(Some(t))?;
                match self.wire.read(&mut scratch) {
                    Ok(0) => return Err(conn_closed()),
                    Ok(n) => n,
                    Err(e) if is_timeout(&e) => 0,
                    Err(e) => return Err(e),
                }
            }
        };
        if n > 0 {
            self.rbuf.extend_from_slice(&scratch[..n]);
        }
        Ok(n)
    }
}

impl ClientLink for WireLink {
    fn handshake(
        &mut self,
        start_offset: u64,
        tenant: u64,
        timeout: Duration,
    ) -> io::Result<Handshake> {
        self.wire.write_all(&hello_bytes(start_offset, tenant))?;
        let mut reply = [0u8; HANDSHAKE_BYTES];
        let mut got = 0;
        let deadline = Instant::now() + timeout;
        let poll = Duration::from_millis(10);
        while got < HANDSHAKE_BYTES {
            self.wire.set_read_timeout(Some(poll))?;
            match self.wire.read(&mut reply[got..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "daemon closed the connection during handshake",
                    ))
                }
                Ok(n) => got += n,
                Err(e) if is_timeout(&e) => {
                    if Instant::now() >= deadline {
                        return Err(transport_err("handshake timed out"));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if reply[..4] != REPLY_MAGIC {
            return Err(protocol_err("bad handshake reply magic"));
        }
        let version = u16::from_le_bytes(reply[4..6].try_into().unwrap());
        if version != TRANSPORT_VERSION {
            return Err(protocol_err(format!(
                "daemon speaks transport version {version}, client speaks {TRANSPORT_VERSION}"
            )));
        }
        match reply[6] {
            STATUS_OK => {}
            STATUS_BUSY => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "daemon is at capacity: session rejected (busy)",
                ))
            }
            STATUS_QUARANTINED => {
                return Err(io::Error::new(
                    io::ErrorKind::PermissionDenied,
                    "daemon quarantined this tenant: session rejected permanently",
                ))
            }
            status => {
                return Err(protocol_err(format!(
                    "daemon rejected the session (status {status})"
                )))
            }
        }
        Ok(Handshake {
            resume_offset: u64::from_le_bytes(reply[8..16].try_into().unwrap()),
            tenant: u64::from_le_bytes(reply[16..24].try_into().unwrap()),
        })
    }

    fn send_data(&mut self, offset: u64, payload: &[u8]) -> io::Result<()> {
        self.wire.write_all(&data_frame(offset, payload))
    }

    fn send_heartbeat(&mut self) -> io::Result<()> {
        self.wire.write_all(&[TAG_HEARTBEAT])
    }

    fn send_fin(&mut self, total: u64) -> io::Result<()> {
        self.wire.write_all(&tagged_u64(TAG_FIN, total))
    }

    fn recv_reply(&mut self, wait: Option<Duration>) -> io::Result<Option<ServerReply>> {
        if let Some(r) = self.parse_reply()? {
            return Ok(Some(r));
        }
        if self.read_replies(wait)? == 0 {
            return Ok(None);
        }
        self.parse_reply()
    }
}

/// Client-side input stream for [`send_stream`].
///
/// Offset resume across daemon restarts needs a seekable input; FIFOs and
/// stdin can only skip forward.
pub trait SendInput {
    /// Positions the cursor at absolute `offset`.
    ///
    /// # Errors
    ///
    /// `Unsupported` when a non-seekable input would have to rewind.
    fn seek_to(&mut self, offset: u64) -> io::Result<()>;

    /// Reads the next bytes at the cursor; `Ok(0)` means end-of-input (for
    /// now — a growing file may return more later).
    ///
    /// # Errors
    ///
    /// Propagates read errors.
    fn read_more(&mut self, buf: &mut [u8]) -> io::Result<usize>;
}

/// Seekable [`SendInput`] over a [`fs::File`].
#[derive(Debug)]
pub struct FileInput {
    file: fs::File,
    at: u64,
}

impl FileInput {
    /// Opens `path` for sending.
    ///
    /// # Errors
    ///
    /// Propagates open errors.
    pub fn open(path: &std::path::Path) -> io::Result<Self> {
        Ok(Self {
            file: fs::File::open(path)?,
            at: 0,
        })
    }
}

impl SendInput for FileInput {
    fn seek_to(&mut self, offset: u64) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.at = offset;
        Ok(())
    }

    fn read_more(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.file.read(buf)?;
        self.at += n as u64;
        Ok(n)
    }
}

/// Forward-only [`SendInput`] over any reader (FIFOs, stdin).
#[derive(Debug)]
pub struct ReaderInput<R: Read> {
    inner: R,
    at: u64,
}

impl<R: Read> ReaderInput<R> {
    /// Wraps `inner` with the cursor at 0.
    pub fn new(inner: R) -> Self {
        Self { inner, at: 0 }
    }
}

impl<R: Read> SendInput for ReaderInput<R> {
    fn seek_to(&mut self, offset: u64) -> io::Result<()> {
        if offset < self.at {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!(
                    "daemon requested resume from byte {offset} but this input \
                     is not seekable (cursor already at {})",
                    self.at
                ),
            ));
        }
        let mut remaining = offset - self.at;
        let mut scratch = [0u8; 16 * 1024];
        while remaining > 0 {
            let want = scratch.len().min(remaining as usize);
            let n = self.inner.read(&mut scratch[..want])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "input ended while skipping to the daemon's resume offset",
                ));
            }
            remaining -= n as u64;
            self.at += n as u64;
        }
        Ok(())
    }

    fn read_more(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.at += n as u64;
        Ok(n)
    }
}

/// Fully seekable in-memory [`SendInput`] (tests, small traces).
#[derive(Debug)]
pub struct MemInput {
    data: Vec<u8>,
    at: u64,
}

impl MemInput {
    /// Serves `data` from offset 0.
    pub fn new(data: Vec<u8>) -> Self {
        Self { data, at: 0 }
    }
}

impl SendInput for MemInput {
    fn seek_to(&mut self, offset: u64) -> io::Result<()> {
        if offset > self.data.len() as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "resume offset beyond input length",
            ));
        }
        self.at = offset;
        Ok(())
    }

    fn read_more(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let rest = &self.data[self.at as usize..];
        let n = buf.len().min(rest.len());
        buf[..n].copy_from_slice(&rest[..n]);
        self.at += n as u64;
        Ok(n)
    }
}

/// Behavior knobs for [`send_stream`].
#[derive(Debug, Clone, Copy)]
pub struct SendOptions {
    /// Reconnect backoff and idle/ack-wait limits (reuses the daemon's
    /// follow policy shape).
    pub policy: FollowPolicy,
    /// Reconnect and resend after transport errors instead of giving up.
    pub retry: bool,
    /// Payload bytes per DATA frame.
    pub data_bytes: usize,
    /// Unacked-byte window before the sender blocks waiting for an ack
    /// (client-side flow control; bounds the daemon's staging backlog).
    pub ack_window: u64,
    /// Keep polling the input for growth at EOF (FIFO/tailed-file mode)
    /// until it stays idle for `policy.idle_limit`, then FIN.
    pub follow: bool,
    /// Hard cap on sessions opened before giving up (termination backstop).
    pub max_sessions: u64,
    /// Heartbeat cadence while idling in follow mode. `None` falls back to
    /// `policy.max_backoff` (the pre-configurable behavior).
    pub heartbeat: Option<Duration>,
    /// Tenant token to present in the HELLO. 0 asks the daemon to assign
    /// one; reconnects within the same call always reuse the assigned token.
    pub tenant: u64,
}

impl Default for SendOptions {
    fn default() -> Self {
        Self {
            policy: FollowPolicy::default(),
            retry: true,
            data_bytes: DEFAULT_DATA_BYTES,
            ack_window: DEFAULT_ACK_WINDOW,
            follow: false,
            max_sessions: DEFAULT_MAX_SESSIONS,
            heartbeat: None,
            tenant: 0,
        }
    }
}

/// What a [`send_stream`] call accomplished.
#[derive(Debug, Clone, Copy, Default)]
pub struct SendOutcome {
    /// Bytes the daemon acknowledged as committed.
    pub acked: u64,
    /// Sessions opened (1 = no reconnects).
    pub sessions: u64,
    /// Bytes re-sent below the high-water mark after reconnects.
    pub retransmitted: u64,
    /// The daemon sent a protocol GOODBYE (graceful shutdown, not a crash).
    pub goodbye: bool,
    /// FIN was acknowledged: the daemon committed the entire input.
    pub complete: bool,
    /// Tenant token the daemon bound this stream to (0 if no session ever
    /// completed a handshake).
    pub tenant: u64,
}

enum SessionEnd {
    /// The stream finished (FIN acked) or the daemon said goodbye.
    Done,
    /// Transport failure; reconnect if retrying.
    Lost(io::Error),
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn run_session<I: SendInput, L: ClientLink>(
    link: &mut L,
    input: &mut I,
    options: &SendOptions,
    offset: &mut u64,
    last_ack: &mut u64,
    high_water: &mut u64,
    outcome: &mut SendOutcome,
    chunk: &mut [u8],
) -> io::Result<SessionEnd> {
    macro_rules! lnk {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(e) => return Ok(SessionEnd::Lost(e)),
            }
        };
    }
    let poll = Duration::from_millis(20).min(options.policy.idle_limit);
    let heartbeat_every = options
        .heartbeat
        .unwrap_or(options.policy.max_backoff)
        .max(Duration::from_millis(1));
    let mut fin_at: Option<u64> = None;
    let mut input_idle = Duration::ZERO;
    let mut ack_wait = Duration::ZERO;
    // Folds one reply into the session state; `true` means the daemon said
    // goodbye and the session (and the whole send) is over.
    let mut saw_goodbye = false;
    macro_rules! apply {
        ($reply:expr) => {
            match $reply {
                ServerReply::Ack(a) => {
                    if a > *last_ack {
                        *last_ack = a;
                        ack_wait = Duration::ZERO;
                    }
                }
                ServerReply::Goodbye(a) => {
                    if a > *last_ack {
                        *last_ack = a;
                    }
                    outcome.goodbye = true;
                    saw_goodbye = true;
                }
            }
        };
    }
    loop {
        // Completion first: a FIN ack already applied must win over any
        // subsequent EOF the daemon sends when it closes the connection.
        if let Some(total) = fin_at {
            if *last_ack >= total {
                outcome.complete = true;
                return Ok(SessionEnd::Done);
            }
        }
        if saw_goodbye {
            return Ok(SessionEnd::Done);
        }
        // Drain whatever replies already arrived. Stop as soon as the stream
        // is complete: the daemon closes right after the final ack, and one
        // more read would turn that EOF into a spurious session loss.
        while let Some(reply) = lnk!(link.recv_reply(None)) {
            apply!(reply);
            if saw_goodbye || fin_at.is_some_and(|total| *last_ack >= total) {
                break;
            }
        }
        if saw_goodbye {
            continue; // completion check at loop top
        }
        if fin_at.is_some() || *offset - *last_ack >= options.ack_window {
            // FIN pending or flow-control window full: block for an ack.
            if fin_at.is_some() && *last_ack >= fin_at.unwrap_or(0) {
                continue; // the drain above just completed the stream
            }
            match lnk!(link.recv_reply(Some(poll))) {
                Some(reply) => apply!(reply),
                None => {
                    ack_wait += poll;
                    if ack_wait >= options.policy.idle_limit {
                        return Ok(SessionEnd::Lost(transport_err(
                            "daemon stopped acking before the stream completed",
                        )));
                    }
                }
            }
            continue;
        }
        // Pump input.
        let n = input.read_more(chunk)?;
        if n > 0 {
            if *offset < *high_water {
                outcome.retransmitted += (n as u64).min(*high_water - *offset);
            }
            lnk!(link.send_data(*offset, &chunk[..n]));
            *offset += n as u64;
            *high_water = (*high_water).max(*offset);
            input_idle = Duration::ZERO;
            continue;
        }
        // EOF: in follow mode, heartbeat and poll for growth first.
        if options.follow && input_idle < options.policy.idle_limit {
            lnk!(link.send_heartbeat());
            std::thread::sleep(heartbeat_every);
            input_idle += heartbeat_every;
            continue;
        }
        lnk!(link.send_fin(*offset));
        fin_at = Some(*offset);
        ack_wait = Duration::ZERO;
    }
}

/// Streams `input` to a daemon with retry/backoff and offset resume.
///
/// `dial` opens a fresh (unhandshaken) [`ClientLink`] per session; the
/// handshake's resume offset repositions the input, so reconnects — including
/// across a daemon restart with `--resume` — deliver exactly the canonical
/// byte stream. Returns once FIN is acked, the daemon says GOODBYE, or
/// retries are exhausted.
///
/// # Errors
///
/// Input read/seek errors are returned as-is; transport failures surface as
/// `TimedOut`-class errors once the retry budget (consecutive downtime
/// exceeding `policy.idle_limit`, or `max_sessions`) is spent. With
/// `retry: false` the first transport failure is returned directly.
pub fn send_stream<I, L, D>(
    input: &mut I,
    mut dial: D,
    options: &SendOptions,
) -> io::Result<SendOutcome>
where
    I: SendInput,
    L: ClientLink,
    D: FnMut() -> io::Result<L>,
{
    let mut outcome = SendOutcome::default();
    let mut chunk = vec![0u8; options.data_bytes.clamp(1, MAX_DATA_BYTES)];
    let mut believed = 0u64;
    let mut high_water = 0u64;
    let mut tenant = options.tenant;
    let mut downtime = Duration::ZERO;
    let mut backoff = options.policy.initial_backoff.max(Duration::from_millis(1));
    loop {
        if outcome.sessions >= options.max_sessions {
            return Err(transport_err(format!(
                "gave up after {} sessions without completing the stream",
                outcome.sessions
            )));
        }
        let dialed = dial().and_then(|mut link| {
            let hs = link.handshake(believed, tenant, options.policy.idle_limit)?;
            Ok((link, hs))
        });
        let (mut link, hs) = match dialed {
            Ok(ok) => ok,
            Err(e) => {
                // A quarantine reject is permanent: retrying would only be
                // rejected again for the daemon's whole lifetime.
                if !options.retry || e.kind() == io::ErrorKind::PermissionDenied {
                    return Err(e);
                }
                if downtime >= options.policy.idle_limit {
                    return Err(transport_err(format!(
                        "connection failed after retries ({e})"
                    )));
                }
                std::thread::sleep(backoff);
                downtime += backoff;
                backoff = (backoff * 2).min(options.policy.max_backoff.max(backoff));
                continue;
            }
        };
        outcome.sessions += 1;
        tenant = hs.tenant;
        outcome.tenant = hs.tenant;
        downtime = Duration::ZERO;
        backoff = options.policy.initial_backoff.max(Duration::from_millis(1));
        let resume = hs.resume_offset;
        input.seek_to(resume)?;
        let mut offset = resume;
        let mut last_ack = resume;
        match run_session(
            &mut link,
            input,
            options,
            &mut offset,
            &mut last_ack,
            &mut high_water,
            &mut outcome,
            &mut chunk,
        )? {
            SessionEnd::Done => {
                outcome.acked = last_ack;
                return Ok(outcome);
            }
            SessionEnd::Lost(e) => {
                if !options.retry {
                    return Err(e);
                }
                believed = last_ack;
            }
        }
    }
}

/// [`send_stream`] over real sockets: dials `endpoint` with [`WireLink`].
///
/// # Errors
///
/// See [`send_stream`].
pub fn send_to(
    endpoint: &Endpoint,
    input: &mut impl SendInput,
    options: &SendOptions,
) -> io::Result<SendOutcome> {
    let ep = endpoint.clone();
    send_stream(input, move || WireLink::connect(&ep), options)
}

// ---------------------------------------------------------------------------
// Multi-tenant server
// ---------------------------------------------------------------------------

/// Admission-control and overload-protection knobs for [`TenantServer`].
#[derive(Debug, Clone, Copy)]
pub struct TenantLimits {
    /// Maximum concurrently connected producers. Further HELLOs get a typed
    /// BUSY reject (the client surfaces it as `ConnectionRefused`).
    pub max_clients: usize,
    /// Bounded pending-accept queue: connections allowed to sit in the
    /// handshake state at once. Overflow is rejected with BUSY immediately,
    /// before any handshake bytes are read.
    pub max_pending: usize,
    /// Global staged-byte budget across all tenant pipelines. While the sum
    /// of staged (committed but not yet consumed) bytes exceeds it, reads —
    /// and therefore new commits and acks — are withheld from tenants above
    /// their fair share, throttling the heaviest producers first. Committed
    /// records are never dropped.
    pub stage_budget: u64,
    /// Evict a connection that holds its session open without committing new
    /// bytes for this long (slow-loris). Backpressure-throttled tenants are
    /// exempt. Zero disables the check.
    pub stall_limit: Duration,
    /// Protocol violations (bad frame, offset gap, oversized DATA, FIN
    /// mismatch) or slow-loris evictions a tenant may accumulate before it
    /// is quarantined for the rest of the daemon's life.
    pub quarantine_after: u32,
}

impl Default for TenantLimits {
    fn default() -> Self {
        Self {
            max_clients: 8,
            max_pending: 16,
            stage_budget: 8 * 1024 * 1024,
            stall_limit: Duration::from_secs(30),
            quarantine_after: 3,
        }
    }
}

/// Where a [`TenantServer`] delivers per-tenant bytes and incidents.
///
/// The simulator side implements this by binding each tenant to its own
/// ingest pipeline (own `System`, fault ledger, checkpoint file, verdict).
/// The server guarantees `data` for a tenant carries exactly its canonical
/// byte stream, in order, deduplicated — identical to the producer's input
/// file, whatever reconnects or retransmissions happened on the wire.
pub trait TenantSink {
    /// A new tenant was admitted. An error refuses the admission (the
    /// producer gets a BUSY reject).
    ///
    /// # Errors
    ///
    /// Any error refuses the admission.
    fn open(&mut self, tenant: u64) -> io::Result<()>;

    /// Committed canonical bytes for `tenant`, in order. An error marks the
    /// tenant's pipeline dead: the server closes the tenant and drops its
    /// connection.
    ///
    /// # Errors
    ///
    /// Any error fails the tenant (not the server).
    fn data(&mut self, tenant: u64, bytes: &[u8]) -> io::Result<()>;

    /// A connection-level incident for `tenant`'s fault ledger.
    fn event(&mut self, tenant: u64, event: TransportEvent);

    /// The tenant's stream ended (FIN acked, quarantined, evicted, or
    /// drained): no more bytes will arrive.
    fn close(&mut self, tenant: u64);

    /// Bytes delivered to `tenant` but not yet consumed by its pipeline
    /// (drives the global backpressure budget).
    fn staged(&self, tenant: u64) -> u64;
}

/// What one [`TenantServer::poll`] round accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerPoll {
    /// Work was done; poll again immediately.
    Busy,
    /// Nothing to do right now; sleep briefly before the next poll.
    Idle,
    /// The server finished: drained on request, or idled out with every
    /// admitted tenant closed.
    Done,
}

/// Writes all of `buf` to a non-blocking wire. A full peer receive window
/// surfaces as `WouldBlock`; callers treat that as a dead or misbehaving
/// peer and close the connection, so a partially written control frame is
/// never observed by a live session.
fn write_now(wire: &mut Wire, buf: &[u8]) -> io::Result<()> {
    let mut at = 0;
    while at < buf.len() {
        match wire.write(&buf[at..]) {
            Ok(0) => return Err(conn_closed()),
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Cap on buffered unparsed bytes per connection: one maximal DATA frame
/// plus read slack. Beyond this the server stops reading the connection,
/// pushing backpressure into the kernel socket buffer.
const CONN_RBUF_CAP: usize = DATA_HEADER + MAX_DATA_BYTES + 16 * 1024;

/// A connection that has been accepted but not yet completed its HELLO.
#[derive(Debug)]
struct PendingConn {
    wire: Wire,
    buf: [u8; HANDSHAKE_BYTES],
    got: usize,
    since: Instant,
}

/// One live, handshaken producer connection bound to a tenant.
#[derive(Debug)]
struct MultiConn {
    wire: Wire,
    tenant: u64,
    session: u64,
    rbuf: Vec<u8>,
    rat: usize,
    last_read: Instant,
    last_ack: u64,
}

/// Per-tenant serving state (survives reconnects; one per token).
#[derive(Debug)]
struct TenantMeta {
    committed: u64,
    sessions: u64,
    violations: u32,
    stalls: u32,
    finished: bool,
    quarantined: bool,
    last_progress: Instant,
    last_seen: Instant,
}

/// A poll-based multi-tenant accept loop: many concurrent producer
/// sessions, each bound to its own tenant pipeline through a [`TenantSink`].
///
/// The one socket server: a listening daemon runs it for any number of
/// producers, and a solo one is simply `max_clients = 1`. Every connection
/// runs a non-blocking state machine (pending handshake → live session);
/// commit/dedup state is per tenant, so each tenant's canonical byte
/// stream — and therefore its verdict — is independent of whoever else is
/// connected.
///
/// Robustness machinery: admission control with typed BUSY rejects
/// ([`TenantLimits::max_clients`], bounded pending-accept queue), per-tenant
/// stall/slow-loris eviction and quarantine (a protocol violation in one
/// tenant closes *that* tenant; the server keeps serving the rest), a global
/// staged-byte budget that throttles the heaviest tenants before anything
/// is shed, and graceful drain across all live sessions via
/// [`TenantServer::with_drain_flag`].
#[derive(Debug)]
pub struct TenantServer {
    listener: Listener,
    policy: FollowPolicy,
    tuning: SocketTuning,
    limits: TenantLimits,
    pending: Vec<PendingConn>,
    conns: Vec<MultiConn>,
    tenants: std::collections::BTreeMap<u64, TenantMeta>,
    next_tenant: u64,
    drain: Option<&'static AtomicBool>,
    drained: bool,
    last_activity: Instant,
}

impl TenantServer {
    /// Wraps a bound listener with reconnect policy `policy` and admission
    /// limits `limits`.
    pub fn new(listener: Listener, policy: FollowPolicy, limits: TenantLimits) -> Self {
        Self {
            listener,
            policy,
            tuning: SocketTuning::default(),
            limits,
            pending: Vec::new(),
            conns: Vec::new(),
            tenants: std::collections::BTreeMap::new(),
            next_tenant: 1,
            drain: None,
            drained: false,
            last_activity: Instant::now(),
        }
    }

    /// Overrides ack cadence / handshake deadline.
    #[must_use]
    pub fn with_tuning(mut self, tuning: SocketTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Installs a drain flag: once it reads `true`, the next poll sends a
    /// protocol GOODBYE to every live session, ledgers a drain marker per
    /// live tenant, closes all pipelines, and reports [`ServerPoll::Done`].
    #[must_use]
    pub fn with_drain_flag(mut self, flag: &'static AtomicBool) -> Self {
        self.drain = Some(flag);
        self
    }

    /// The endpoint actually bound (resolves TCP port 0).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` errors.
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        self.listener.local_endpoint()
    }

    /// Number of tenants admitted so far (including finished ones).
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Recommended sleep between [`ServerPoll::Idle`] polls.
    pub fn poll_interval(&self) -> Duration {
        (self.policy.idle_limit / 50).clamp(Duration::from_millis(1), Duration::from_millis(25))
    }

    fn drain_requested(&self) -> bool {
        self.drain.is_some_and(|f| f.load(Ordering::SeqCst))
    }

    /// Runs one non-blocking round of the accept/handshake/session state
    /// machines. Call in a loop, sleeping [`TenantServer::poll_interval`]
    /// between [`ServerPoll::Idle`] rounds, until [`ServerPoll::Done`].
    ///
    /// # Errors
    ///
    /// Only listener-level failures (a broken accept socket) are fatal;
    /// per-connection and per-tenant failures are contained and ledgered.
    pub fn poll(&mut self, sink: &mut dyn TenantSink) -> io::Result<ServerPoll> {
        if self.drained {
            return Ok(ServerPoll::Done);
        }
        if self.drain_requested() {
            self.goodbye_all(sink);
            return Ok(ServerPoll::Done);
        }
        let mut active = false;
        active |= self.accept_new()?;
        active |= self.advance_handshakes(sink);
        active |= self.pump_conns(sink);
        self.reap_tenants(sink);
        if self.conns.is_empty()
            && self.pending.is_empty()
            && self.last_activity.elapsed() >= self.policy.idle_limit
        {
            self.finish_all(sink);
            self.drained = true;
            return Ok(ServerPoll::Done);
        }
        Ok(if active {
            ServerPoll::Busy
        } else {
            ServerPoll::Idle
        })
    }

    /// Accepts whatever is queued on the listener, bouncing overflow with a
    /// typed BUSY reject before any handshake bytes are read.
    fn accept_new(&mut self) -> io::Result<bool> {
        let mut active = false;
        while let Some(wire) = self.listener.accept()? {
            active = true;
            self.last_activity = Instant::now();
            if self.pending.len() >= self.limits.max_pending {
                let mut wire = wire;
                let _ = wire.set_nonblocking(true);
                let _ = write_now(&mut wire, &reply_bytes(STATUS_BUSY, 0, 0));
                let _ = wire.shutdown();
                continue;
            }
            if wire.set_nonblocking(true).is_err() {
                let _ = wire.shutdown();
                continue;
            }
            self.pending.push(PendingConn {
                wire,
                buf: [0u8; HANDSHAKE_BYTES],
                got: 0,
                since: Instant::now(),
            });
        }
        Ok(active)
    }

    /// Advances every pending handshake one non-blocking step.
    fn advance_handshakes(&mut self, sink: &mut dyn TenantSink) -> bool {
        let mut active = false;
        let mut pending = std::mem::take(&mut self.pending);
        for mut p in pending.drain(..) {
            loop {
                if p.got == HANDSHAKE_BYTES {
                    active = true;
                    let PendingConn { wire, buf, .. } = p;
                    self.admit(wire, &buf, sink);
                    break;
                }
                match p.wire.read(&mut p.buf[p.got..]) {
                    Ok(0) => {
                        // Vanished before completing HELLO; nothing to ledger
                        // (no tenant was ever bound).
                        let _ = p.wire.shutdown();
                        break;
                    }
                    Ok(n) => {
                        p.got += n;
                        active = true;
                    }
                    Err(e) if is_timeout(&e) => {
                        if p.since.elapsed() >= self.tuning.handshake_timeout {
                            let _ = p.wire.shutdown();
                        } else {
                            self.pending.push(p);
                        }
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        let _ = p.wire.shutdown();
                        break;
                    }
                }
            }
        }
        active
    }

    /// Validates a completed HELLO, resolves its tenant token, applies
    /// admission control, and either binds the connection or rejects it.
    fn admit(&mut self, mut wire: Wire, hello: &[u8; HANDSHAKE_BYTES], sink: &mut dyn TenantSink) {
        self.last_activity = Instant::now();
        if hello[..4] != HELLO_MAGIC {
            let _ = wire.shutdown();
            return;
        }
        let version = u16::from_le_bytes(hello[4..6].try_into().unwrap());
        if version != TRANSPORT_VERSION {
            let _ = write_now(&mut wire, &reply_bytes(STATUS_BAD_VERSION, 0, 0));
            let _ = wire.shutdown();
            return;
        }
        let token = u64::from_le_bytes(hello[16..24].try_into().unwrap());
        if let Some(meta) = self.tenants.get(&token) {
            if meta.quarantined {
                let _ = write_now(
                    &mut wire,
                    &reply_bytes(STATUS_QUARANTINED, meta.committed, token),
                );
                let _ = wire.shutdown();
                return;
            }
        }
        // Admission: count live sessions, where a reconnect that will
        // supersede an existing connection for the same tenant is not a new
        // client.
        let supersedes = self.conns.iter().any(|c| c.tenant == token);
        if !supersedes && self.conns.len() >= self.limits.max_clients {
            let _ = write_now(&mut wire, &reply_bytes(STATUS_BUSY, 0, token));
            let _ = wire.shutdown();
            return;
        }
        let tenant = if token == 0 {
            let t = self.next_tenant;
            self.next_tenant += 1;
            t
        } else {
            self.next_tenant = self.next_tenant.max(token + 1);
            token
        };
        if let std::collections::btree_map::Entry::Vacant(slot) = self.tenants.entry(tenant) {
            if sink.open(tenant).is_err() {
                let _ = write_now(&mut wire, &reply_bytes(STATUS_BUSY, 0, tenant));
                let _ = wire.shutdown();
                return;
            }
            slot.insert(TenantMeta {
                committed: 0,
                sessions: 0,
                violations: 0,
                stalls: 0,
                finished: false,
                quarantined: false,
                last_progress: Instant::now(),
                last_seen: Instant::now(),
            });
        }
        let meta = self.tenants.get_mut(&tenant).expect("just ensured");
        meta.sessions += 1;
        let session = meta.sessions;
        let committed = meta.committed;
        meta.last_progress = Instant::now();
        meta.last_seen = Instant::now();
        if write_now(&mut wire, &reply_bytes(STATUS_OK, committed, tenant)).is_err() {
            let _ = wire.shutdown();
            sink.event(
                tenant,
                TransportEvent::Disconnected {
                    session,
                    offset: committed,
                    reason: DisconnectReason::Io,
                },
            );
            return;
        }
        if session > 1 || committed > 0 {
            sink.event(
                tenant,
                TransportEvent::SessionResumed {
                    session,
                    offset: committed,
                },
            );
        }
        // A reconnect supersedes any stale connection still bound to the
        // same tenant (e.g. after a half-dead network partition).
        if let Some(at) = self.conns.iter().position(|c| c.tenant == tenant) {
            let old = self.conns.swap_remove(at);
            let _ = old.wire.shutdown();
            sink.event(
                tenant,
                TransportEvent::Disconnected {
                    session: old.session,
                    offset: committed,
                    reason: DisconnectReason::Stall,
                },
            );
        }
        self.conns.push(MultiConn {
            wire,
            tenant,
            session,
            rbuf: Vec::with_capacity(64 * 1024),
            rat: 0,
            last_read: Instant::now(),
            last_ack: committed,
        });
    }

    /// Runs every live connection's read/parse/commit state machine once.
    #[allow(clippy::too_many_lines)]
    fn pump_conns(&mut self, sink: &mut dyn TenantSink) -> bool {
        let mut active = false;
        let live = self.conns.len().max(1) as u64;
        let total_staged: u64 = self.conns.iter().map(|c| sink.staged(c.tenant)).sum();
        let over_budget = total_staged > self.limits.stage_budget;
        let fair_share = self.limits.stage_budget / live;
        let mut conns = std::mem::take(&mut self.conns);
        for mut conn in conns.drain(..) {
            let tenant = conn.tenant;
            // Global backpressure: while the staging budget is blown, stop
            // reading (and therefore committing and acking) tenants above
            // their fair share. Throttling the heaviest producers first
            // sheds load without ever dropping a committed record.
            let throttled = over_budget && sink.staged(tenant) > fair_share;
            let mut eof = false;
            let mut io_dead = false;
            if !throttled {
                if conn.rat > 0 {
                    conn.rbuf.drain(..conn.rat);
                    conn.rat = 0;
                }
                let mut scratch = [0u8; 16 * 1024];
                for _ in 0..16 {
                    if conn.rbuf.len() >= CONN_RBUF_CAP {
                        break;
                    }
                    match conn.wire.read(&mut scratch) {
                        Ok(0) => {
                            eof = true;
                            break;
                        }
                        Ok(n) => {
                            conn.rbuf.extend_from_slice(&scratch[..n]);
                            conn.last_read = Instant::now();
                            self.last_activity = Instant::now();
                            active = true;
                        }
                        Err(e) if is_timeout(&e) => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            io_dead = true;
                            break;
                        }
                    }
                }
            }
            // Parse and commit whatever is buffered.
            let mut fate: Option<DisconnectReason> = None;
            let mut finished_tenant = false;
            loop {
                let meta = self.tenants.get_mut(&tenant).expect("tenant bound");
                let parsed = match parse_frame(&conn.rbuf[conn.rat..]) {
                    Ok(p) => p,
                    Err(()) => {
                        fate = Some(DisconnectReason::Protocol);
                        break;
                    }
                };
                let Some((frame, consumed)) = parsed else {
                    break;
                };
                match frame {
                    Frame::Data { offset, start, len } => {
                        let start = conn.rat + start;
                        conn.rat += consumed;
                        match commit_data(meta, &mut conn, sink, &self.tuning, offset, start, len) {
                            CommitOutcome::Ok => {
                                meta.last_progress = Instant::now();
                            }
                            CommitOutcome::Duplicate => {}
                            CommitOutcome::Violation => {
                                fate = Some(DisconnectReason::Protocol);
                                break;
                            }
                            CommitOutcome::SinkDead => {
                                // The tenant's pipeline died (decode error,
                                // refused resume): fail the tenant, keep the
                                // server.
                                finished_tenant = true;
                                fate = Some(DisconnectReason::Io);
                                break;
                            }
                            CommitOutcome::PeerDead => {
                                fate = Some(DisconnectReason::Io);
                                break;
                            }
                        }
                    }
                    Frame::Heartbeat => {
                        conn.rat += consumed;
                    }
                    Frame::Fin { total } => {
                        conn.rat += consumed;
                        if total == meta.committed {
                            let _ = write_now(&mut conn.wire, &tagged_u64(TAG_ACK, total));
                            let _ = conn.wire.shutdown();
                            meta.finished = true;
                            meta.last_seen = Instant::now();
                            sink.close(tenant);
                            finished_tenant = true;
                        } else {
                            fate = Some(DisconnectReason::Protocol);
                        }
                        break;
                    }
                }
            }
            let meta = self.tenants.get_mut(&tenant).expect("tenant bound");
            if finished_tenant && fate.is_none() {
                // FIN handled: connection closed cleanly, tenant done.
                self.last_activity = Instant::now();
                active = true;
                continue;
            }
            if fate.is_none() {
                if eof {
                    fate = Some(DisconnectReason::Eof);
                } else if io_dead {
                    fate = Some(DisconnectReason::Io);
                } else if conn.last_read.elapsed() >= self.policy.idle_limit {
                    fate = Some(DisconnectReason::Stall);
                } else if !throttled
                    && !self.limits.stall_limit.is_zero()
                    && meta.last_progress.elapsed() >= self.limits.stall_limit
                {
                    // Slow-loris: the session is alive (heartbeats keep it
                    // from idling out) but commits nothing. Evict it; repeat
                    // offenders are quarantined.
                    meta.stalls += 1;
                    fate = Some(DisconnectReason::Stall);
                }
            }
            let Some(reason) = fate else {
                // Flush a pending ack so a quiet producer blocked on flow
                // control can make progress.
                if meta.committed > conn.last_ack {
                    let committed = meta.committed;
                    if write_now(&mut conn.wire, &tagged_u64(TAG_ACK, committed)).is_ok() {
                        conn.last_ack = committed;
                    }
                }
                meta.last_seen = Instant::now();
                self.conns.push(conn);
                continue;
            };
            // The connection is done for: ledger the disconnect, then decide
            // whether the tenant itself must be punished.
            active = true;
            self.last_activity = Instant::now();
            let _ = conn.wire.shutdown();
            if reason == DisconnectReason::Protocol {
                meta.violations += 1;
            }
            sink.event(
                tenant,
                TransportEvent::Disconnected {
                    session: conn.session,
                    offset: meta.committed,
                    reason,
                },
            );
            if finished_tenant && !meta.finished {
                meta.finished = true;
                sink.close(tenant);
            }
            let strikes = meta.violations.max(meta.stalls);
            if strikes >= self.limits.quarantine_after && !meta.quarantined {
                meta.quarantined = true;
                sink.event(
                    tenant,
                    TransportEvent::Quarantined {
                        session: conn.session,
                        offset: meta.committed,
                        violations: u64::from(meta.violations) + u64::from(meta.stalls),
                    },
                );
                if !meta.finished {
                    meta.finished = true;
                    sink.close(tenant);
                }
            }
            meta.last_seen = Instant::now();
        }
        active
    }

    /// Closes tenants whose producer has been gone longer than the idle
    /// limit (no connection to resume the stream).
    fn reap_tenants(&mut self, sink: &mut dyn TenantSink) {
        let idle_limit = self.policy.idle_limit;
        let connected: Vec<u64> = self.conns.iter().map(|c| c.tenant).collect();
        for (tenant, meta) in &mut self.tenants {
            if !meta.finished
                && !connected.contains(tenant)
                && meta.last_seen.elapsed() >= idle_limit
            {
                meta.finished = true;
                sink.close(*tenant);
            }
        }
    }

    /// Graceful drain: protocol GOODBYE to every live session, a drain
    /// marker in every live tenant's ledger, all pipelines closed.
    fn goodbye_all(&mut self, sink: &mut dyn TenantSink) {
        for mut conn in self.conns.drain(..) {
            let committed = self
                .tenants
                .get(&conn.tenant)
                .map_or(0, |meta| meta.committed);
            let _ = write_now(&mut conn.wire, &tagged_u64(TAG_GOODBYE, committed));
            let _ = conn.wire.shutdown();
        }
        for p in self.pending.drain(..) {
            let _ = p.wire.shutdown();
        }
        for (tenant, meta) in &mut self.tenants {
            if !meta.finished {
                meta.finished = true;
                sink.event(
                    *tenant,
                    TransportEvent::Drained {
                        offset: meta.committed,
                    },
                );
                sink.close(*tenant);
            }
        }
        self.drained = true;
    }

    /// Idle-out: close any tenant still open, without drain markers.
    fn finish_all(&mut self, sink: &mut dyn TenantSink) {
        for (tenant, meta) in &mut self.tenants {
            if !meta.finished {
                meta.finished = true;
                sink.close(*tenant);
            }
        }
    }
}

/// How committing one DATA frame for a tenant went.
enum CommitOutcome {
    /// New bytes were committed and delivered to the sink.
    Ok,
    /// The frame was entirely already-committed bytes (dropped, re-acked).
    Duplicate,
    /// Offset gap or arithmetic overflow: protocol violation.
    Violation,
    /// The tenant's pipeline rejected the bytes (it is dead).
    SinkDead,
    /// The peer stopped reading acks (its receive window is full).
    PeerDead,
}

/// Commits one DATA frame for a tenant: trims or drops bytes the server
/// already committed, forwards the new suffix to the sink, acks on cadence.
/// This is the only commit path, so a tenant's canonical stream is the
/// producer's input byte for byte.
fn commit_data(
    meta: &mut TenantMeta,
    conn: &mut MultiConn,
    sink: &mut dyn TenantSink,
    tuning: &SocketTuning,
    offset: u64,
    start: usize,
    len: usize,
) -> CommitOutcome {
    let Some(end) = offset.checked_add(len as u64) else {
        return CommitOutcome::Violation;
    };
    if offset > meta.committed {
        // A gap means lost bytes the server never acked: protocol violation.
        return CommitOutcome::Violation;
    }
    if meta.finished {
        // The stream was finalized (FIN acked); a full duplicate is a
        // harmless retransmit, anything new is a violation.
        if end <= meta.committed {
            sink.event(
                conn.tenant,
                TransportEvent::DuplicateDropped {
                    session: conn.session,
                    offset: meta.committed,
                    bytes: len as u64,
                },
            );
            return CommitOutcome::Duplicate;
        }
        return CommitOutcome::Violation;
    }
    let skip = (meta.committed - offset) as usize;
    if skip >= len {
        sink.event(
            conn.tenant,
            TransportEvent::DuplicateDropped {
                session: conn.session,
                offset: meta.committed,
                bytes: len as u64,
            },
        );
        // Re-ack so a client that missed the original ack advances.
        conn.last_ack = meta.committed;
        if write_now(&mut conn.wire, &tagged_u64(TAG_ACK, meta.committed)).is_err() {
            return CommitOutcome::PeerDead;
        }
        return CommitOutcome::Duplicate;
    }
    if skip > 0 {
        sink.event(
            conn.tenant,
            TransportEvent::DuplicateDropped {
                session: conn.session,
                offset: meta.committed,
                bytes: skip as u64,
            },
        );
    }
    if sink
        .data(conn.tenant, &conn.rbuf[start + skip..start + len])
        .is_err()
    {
        return CommitOutcome::SinkDead;
    }
    meta.committed = end;
    if meta.committed - conn.last_ack >= tuning.ack_every {
        conn.last_ack = meta.committed;
        if write_now(&mut conn.wire, &tagged_u64(TAG_ACK, meta.committed)).is_err() {
            return CommitOutcome::PeerDead;
        }
    }
    CommitOutcome::Ok
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    /// Collects every tenant's committed bytes, events and close order.
    #[derive(Debug, Default)]
    pub(crate) struct TestSink {
        pub(crate) data: BTreeMap<u64, Vec<u8>>,
        pub(crate) events: BTreeMap<u64, Vec<TransportEvent>>,
        pub(crate) closed: Vec<u64>,
        /// Signalled on every ledgered disconnect.
        pub(crate) on_disconnect: Option<std::sync::mpsc::Sender<()>>,
    }

    impl TenantSink for TestSink {
        fn open(&mut self, tenant: u64) -> io::Result<()> {
            self.data.entry(tenant).or_default();
            Ok(())
        }

        fn data(&mut self, tenant: u64, bytes: &[u8]) -> io::Result<()> {
            self.data
                .get_mut(&tenant)
                .expect("opened")
                .extend_from_slice(bytes);
            Ok(())
        }

        fn event(&mut self, tenant: u64, event: TransportEvent) {
            if let (TransportEvent::Disconnected { .. }, Some(tx)) = (&event, &self.on_disconnect) {
                let _ = tx.send(());
            }
            self.events.entry(tenant).or_default().push(event);
        }

        fn close(&mut self, tenant: u64) {
            self.closed.push(tenant);
        }

        fn staged(&self, _tenant: u64) -> u64 {
            0
        }
    }

    /// Polls `server` until it reports done, then drops it (unlinking a Unix
    /// socket path) and returns the sink.
    pub(crate) fn serve_until_done(mut server: TenantServer, mut sink: TestSink) -> TestSink {
        loop {
            match server.poll(&mut sink).unwrap() {
                ServerPoll::Busy => {}
                ServerPoll::Idle => thread::sleep(server.poll_interval()),
                ServerPoll::Done => return sink,
            }
        }
    }

    fn fast_policy() -> FollowPolicy {
        FollowPolicy {
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
            idle_limit: Duration::from_secs(5),
        }
    }

    fn quick_policy() -> FollowPolicy {
        FollowPolicy {
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            idle_limit: Duration::from_millis(400),
        }
    }

    /// A server admitting one producer at a time.
    fn solo_server(endpoint: &Endpoint, policy: FollowPolicy) -> TenantServer {
        TenantServer::new(
            Listener::bind(endpoint).unwrap(),
            policy,
            TenantLimits {
                max_clients: 1,
                ..TenantLimits::default()
            },
        )
    }

    fn tcp_any() -> Endpoint {
        Endpoint::parse("tcp://127.0.0.1:0").unwrap()
    }

    fn unix_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("impress-transport-{tag}-{}", std::process::id()))
    }

    #[test]
    fn endpoint_parse_roundtrip() {
        assert_eq!(
            Endpoint::parse("tcp://127.0.0.1:7700").unwrap(),
            Endpoint::Tcp("127.0.0.1:7700".into())
        );
        assert_eq!(
            Endpoint::parse("unix:///run/x.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/run/x.sock"))
        );
        assert_eq!(
            Endpoint::parse("tcp://10.0.0.1:9").unwrap().to_string(),
            "tcp://10.0.0.1:9"
        );
        assert!(Endpoint::parse("udp://x").is_err());
        assert!(Endpoint::parse("tcp://").is_err());
        assert!(Endpoint::parse("unix://").is_err());
    }

    #[test]
    fn server_dedups_retransmitted_bytes() {
        let server = solo_server(&tcp_any(), quick_policy());
        let ep = server.local_endpoint().unwrap();
        let client = thread::spawn(move || {
            let mut link = WireLink::connect(&ep).unwrap();
            let hs = link.handshake(0, 0, Duration::from_secs(5)).unwrap();
            assert_eq!(hs.resume_offset, 0);
            assert_eq!(hs.tenant, 1);
            link.send_data(0, &[1u8; 100]).unwrap();
            // Full duplicate, then an overlapping frame with a fresh suffix.
            link.send_data(0, &[1u8; 100]).unwrap();
            let mut mixed = vec![1u8; 50];
            mixed.extend_from_slice(&[2u8; 60]);
            link.send_data(50, &mixed).unwrap();
            link.send_fin(160).unwrap();
            loop {
                match link.recv_reply(Some(Duration::from_secs(5))).unwrap() {
                    Some(ServerReply::Ack(a)) if a >= 160 => break,
                    Some(_) | None => {}
                }
            }
        });
        let sink = serve_until_done(server, TestSink::default());
        client.join().unwrap();
        let mut expect = vec![1u8; 100];
        expect.extend_from_slice(&[2u8; 60]);
        assert_eq!(sink.data[&1], expect);
        let events = &sink.events[&1];
        let dup_bytes: u64 = events
            .iter()
            .map(|e| match e {
                TransportEvent::DuplicateDropped { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum();
        assert_eq!(dup_bytes, 150, "events: {events:?}");
    }

    #[test]
    fn reconnect_resumes_from_committed_offset() {
        // Tight ack cadence so session 1 can observe its prefix committing.
        let server = solo_server(&tcp_any(), quick_policy()).with_tuning(SocketTuning {
            ack_every: 1024,
            ..SocketTuning::default()
        });
        let ep = server.local_endpoint().unwrap();
        let payload: Vec<u8> = (0..60_000u32).map(|i| (i % 239) as u8).collect();
        let expect = payload.clone();
        let (disconnected, seen) = std::sync::mpsc::channel();
        let client = thread::spawn(move || {
            // Session 1: deliver a prefix, then vanish without FIN.
            let mut link = WireLink::connect(&ep).unwrap();
            let hs = link.handshake(0, 0, Duration::from_secs(5)).unwrap();
            link.send_data(0, &payload[..10_000]).unwrap();
            loop {
                // Wait until the prefix is committed (acked) so the resume
                // offset is deterministic.
                match link.recv_reply(Some(Duration::from_secs(5))).unwrap() {
                    Some(ServerReply::Ack(a)) if a >= 10_000 => break,
                    _ => {}
                }
            }
            drop(link);
            // Reconnect only once the server has seen the EOF; an earlier
            // session 2 would supersede the connection instead.
            seen.recv_timeout(Duration::from_secs(5)).unwrap();
            // Session 2 rejoins the tenant announcing a stale offset; the
            // server's reply wins.
            let mut input = MemInput::new(payload);
            send_to(
                &ep,
                &mut input,
                &SendOptions {
                    policy: quick_policy(),
                    data_bytes: 4096,
                    tenant: hs.tenant,
                    ..SendOptions::default()
                },
            )
            .unwrap()
        });
        let sink = serve_until_done(
            server,
            TestSink {
                on_disconnect: Some(disconnected),
                ..TestSink::default()
            },
        );
        let outcome = client.join().unwrap();
        assert_eq!(sink.data[&1], expect);
        assert!(outcome.complete);
        let events = &sink.events[&1];
        assert!(
            events.iter().any(|e| matches!(
                e,
                TransportEvent::Disconnected {
                    reason: DisconnectReason::Eof,
                    ..
                }
            )),
            "events: {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TransportEvent::SessionResumed { offset: 10_000, .. })),
            "events: {events:?}"
        );
    }

    #[test]
    fn idle_listener_times_out_cleanly() {
        let server = solo_server(
            &tcp_any(),
            FollowPolicy {
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
                idle_limit: Duration::from_millis(40),
            },
        );
        let sink = serve_until_done(server, TestSink::default());
        assert!(sink.data.is_empty());
        assert!(sink.events.is_empty());
    }

    #[test]
    fn follow_mode_sender_fins_after_input_goes_idle() {
        let server = solo_server(&tcp_any(), quick_policy());
        let ep = server.local_endpoint().unwrap();
        let client = thread::spawn(move || {
            let mut input = MemInput::new(vec![3u8; 2000]);
            send_to(
                &ep,
                &mut input,
                &SendOptions {
                    policy: FollowPolicy {
                        initial_backoff: Duration::from_millis(1),
                        max_backoff: Duration::from_millis(5),
                        idle_limit: Duration::from_millis(50),
                    },
                    follow: true,
                    data_bytes: 512,
                    ..SendOptions::default()
                },
            )
            .unwrap()
        });
        let sink = serve_until_done(server, TestSink::default());
        let outcome = client.join().unwrap();
        assert_eq!(sink.data[&1].len(), 2000);
        assert!(outcome.complete);
    }

    #[test]
    fn reader_input_skips_forward_but_never_rewinds() {
        let data: Vec<u8> = (0..100u8).collect();
        let mut input = ReaderInput::new(&data[..]);
        input.seek_to(10).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(input.read_more(&mut buf).unwrap(), 4);
        assert_eq!(&buf, &[10, 11, 12, 13]);
        let err = input.seek_to(0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn forward_only_input_fails_typed_when_daemon_rewinds_resume() {
        // A scripted daemon that accepts bytes without acking, cuts the
        // connection, then offers resume offset 0 on the next session — the
        // worst case for a stdin/FIFO producer, which has already consumed
        // those bytes and cannot rewind. send_stream must surface the typed
        // `Unsupported` error instead of silently skipping or duplicating.
        struct Amnesiac {
            sent: u64,
        }
        impl ClientLink for Amnesiac {
            fn handshake(
                &mut self,
                _start: u64,
                _tenant: u64,
                _timeout: Duration,
            ) -> io::Result<Handshake> {
                Ok(Handshake {
                    resume_offset: 0,
                    tenant: 1,
                })
            }
            fn send_data(&mut self, _offset: u64, payload: &[u8]) -> io::Result<()> {
                self.sent += payload.len() as u64;
                if self.sent >= 4096 {
                    return Err(io::Error::new(io::ErrorKind::ConnectionReset, "cut"));
                }
                Ok(())
            }
            fn send_heartbeat(&mut self) -> io::Result<()> {
                Ok(())
            }
            fn send_fin(&mut self, _total: u64) -> io::Result<()> {
                Ok(())
            }
            fn recv_reply(&mut self, _wait: Option<Duration>) -> io::Result<Option<ServerReply>> {
                Ok(None) // never acks, so nothing is safe to skip on resume
            }
        }
        let data = vec![7u8; 32 * 1024];
        let mut input = ReaderInput::new(&data[..]);
        let err = send_stream(
            &mut input,
            || Ok(Amnesiac { sent: 0 }),
            &SendOptions {
                policy: fast_policy(),
                data_bytes: 1024,
                ..SendOptions::default()
            },
        )
        .expect_err("rewinding a forward-only input must fail");
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn no_retry_client_reports_connect_failure() {
        // Nothing is listening on this endpoint (bound then dropped).
        let listener = Listener::bind(&Endpoint::parse("tcp://127.0.0.1:0").unwrap()).unwrap();
        let ep = listener.local_endpoint().unwrap();
        drop(listener);
        let mut input = MemInput::new(vec![0u8; 16]);
        let err = send_to(
            &ep,
            &mut input,
            &SendOptions {
                retry: false,
                ..SendOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.kind() == io::ErrorKind::ConnectionRefused || is_timeout(&err));
    }

    #[test]
    fn retry_client_gives_up_after_idle_budget() {
        let listener = Listener::bind(&Endpoint::parse("tcp://127.0.0.1:0").unwrap()).unwrap();
        let ep = listener.local_endpoint().unwrap();
        drop(listener);
        let mut input = MemInput::new(vec![0u8; 16]);
        let err = send_to(
            &ep,
            &mut input,
            &SendOptions {
                retry: true,
                policy: FollowPolicy {
                    initial_backoff: Duration::from_millis(1),
                    max_backoff: Duration::from_millis(5),
                    idle_limit: Duration::from_millis(30),
                },
                ..SendOptions::default()
            },
        )
        .unwrap_err();
        assert!(is_timeout(&err), "got {err:?}");
    }

    // -- multi-tenant server ------------------------------------------------

    /// Streams `producers` concurrent payloads (producer 0 sends `len` bytes,
    /// each later one 1000 more) in `data_bytes` DATA frames to a fresh
    /// server on `endpoint`, and checks each arrives complete, in order and
    /// isolated, in one FIN-terminated session with no transport events.
    fn roundtrip_case(endpoint: Endpoint, producers: u8, len: usize, data_bytes: usize) {
        let listener = Listener::bind(&endpoint).unwrap();
        let server = TenantServer::new(listener, quick_policy(), TenantLimits::default());
        let ep = server.local_endpoint().unwrap();
        // Producer i streams a distinct, position-dependent pattern, so a
        // reordered, interleaved or truncated stream cannot match.
        let payload = |i: u8| -> Vec<u8> {
            (0..len + 1000 * i as usize)
                .map(|j| (j % 241) as u8 ^ i)
                .collect()
        };
        let clients: Vec<_> = (0..producers)
            .map(|i| {
                let ep = ep.clone();
                let bytes = payload(i);
                thread::spawn(move || {
                    let mut input = MemInput::new(bytes);
                    let outcome = send_to(
                        &ep,
                        &mut input,
                        &SendOptions {
                            policy: quick_policy(),
                            data_bytes,
                            ..SendOptions::default()
                        },
                    )
                    .unwrap();
                    (i, outcome)
                })
            })
            .collect();
        let sink = serve_until_done(server, TestSink::default());
        let mut tokens = Vec::new();
        for c in clients {
            let (i, outcome) = c.join().unwrap();
            let expect = payload(i);
            assert!(outcome.complete, "{endpoint}");
            assert_eq!(outcome.sessions, 1, "{endpoint}");
            assert_eq!(outcome.acked, expect.len() as u64, "{endpoint}");
            // Each producer's stream arrives complete, in order, and
            // untouched by the others.
            assert_eq!(sink.data[&outcome.tenant], expect, "{endpoint}");
            tokens.push(outcome.tenant);
        }
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!(
            tokens.len(),
            producers as usize,
            "each producer got its own tenant token"
        );
        assert_eq!(sink.closed.len(), producers as usize);
        assert!(sink.events.is_empty(), "{endpoint}: {:?}", sink.events);
    }

    #[test]
    fn loopback_tcp_roundtrip_with_fin() {
        roundtrip_case(tcp_any(), 1, 100_000, 4096);
    }

    #[test]
    fn loopback_unix_roundtrip_with_fin() {
        let unix = unix_path("unix-roundtrip");
        roundtrip_case(Endpoint::Unix(unix.clone()), 1, 40_000, 1000);
        assert!(!unix.exists(), "dropping the server unlinks its socket");
    }

    #[test]
    fn tenant_server_serves_concurrent_producers_in_isolation() {
        roundtrip_case(tcp_any(), 4, 20_000, 2048);
    }

    #[test]
    fn tenant_server_rejects_over_capacity_with_typed_busy() {
        let listener = Listener::bind(&Endpoint::parse("tcp://127.0.0.1:0").unwrap()).unwrap();
        let server = TenantServer::new(
            listener,
            quick_policy(),
            TenantLimits {
                max_clients: 1,
                ..TenantLimits::default()
            },
        );
        let ep = server.local_endpoint().unwrap();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let ep1 = ep.clone();
        let holder = thread::spawn(move || {
            let mut link = WireLink::connect(&ep1).unwrap();
            link.handshake(0, 0, Duration::from_secs(5)).unwrap();
            link.send_data(0, &[9u8; 100]).unwrap();
            release_rx.recv().unwrap();
            link.send_fin(100).unwrap();
            loop {
                match link.recv_reply(Some(Duration::from_secs(5))).unwrap() {
                    Some(ServerReply::Ack(a)) if a >= 100 => break,
                    _ => {}
                }
            }
        });
        let second = thread::spawn(move || {
            // Let the holder take the only slot first.
            thread::sleep(Duration::from_millis(100));
            let mut link = WireLink::connect(&ep).unwrap();
            let err = link.handshake(0, 0, Duration::from_secs(5)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{err}");
            release_tx.send(()).unwrap();
        });
        let sink = serve_until_done(server, TestSink::default());
        holder.join().unwrap();
        second.join().unwrap();
        assert_eq!(sink.data.len(), 1, "only the holder was admitted");
        assert_eq!(sink.data[&1], vec![9u8; 100]);
    }

    #[test]
    fn tenant_server_quarantines_protocol_violators_and_keeps_serving() {
        let listener = Listener::bind(&Endpoint::parse("tcp://127.0.0.1:0").unwrap()).unwrap();
        let server = TenantServer::new(
            listener,
            quick_policy(),
            TenantLimits {
                quarantine_after: 2,
                ..TenantLimits::default()
            },
        );
        let ep = server.local_endpoint().unwrap();
        let hostile_ep = ep.clone();
        let hostile = thread::spawn(move || {
            let mut token = 0u64;
            for _ in 0..8 {
                let mut link = WireLink::connect(&hostile_ep).unwrap();
                match link.handshake(0, token, Duration::from_secs(5)) {
                    Ok(hs) => {
                        token = hs.tenant;
                        // An offset gap is a protocol violation.
                        link.send_data(hs.resume_offset + 4096, &[1u8; 64]).unwrap();
                        // Wait for the server to cut the connection.
                        let _ = link.recv_reply(Some(Duration::from_secs(2)));
                    }
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::PermissionDenied, "{e}");
                        return token;
                    }
                }
                thread::sleep(Duration::from_millis(20));
            }
            panic!("hostile client was never quarantined");
        });
        let clean_ep = ep.clone();
        let clean = thread::spawn(move || {
            thread::sleep(Duration::from_millis(50));
            let mut input = MemInput::new(vec![5u8; 30_000]);
            send_to(
                &clean_ep,
                &mut input,
                &SendOptions {
                    policy: quick_policy(),
                    data_bytes: 1024,
                    ..SendOptions::default()
                },
            )
            .unwrap()
        });
        let sink = serve_until_done(server, TestSink::default());
        let hostile_token = hostile.join().unwrap();
        let outcome = clean.join().unwrap();
        assert!(outcome.complete);
        assert_ne!(outcome.tenant, hostile_token);
        assert_eq!(sink.data[&outcome.tenant], vec![5u8; 30_000]);
        let hostile_events = &sink.events[&hostile_token];
        assert!(
            hostile_events
                .iter()
                .any(|e| matches!(e, TransportEvent::Quarantined { .. })),
            "events: {hostile_events:?}"
        );
        assert!(sink.data[&hostile_token].is_empty());
    }

    /// Opens `producers` live sessions that each commit `len` bytes, raises
    /// the drain flag, and checks every session gets a GOODBYE at `len` and
    /// a ledgered drain before the server finishes.
    fn drain_case(producers: u8, len: usize) {
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let server = TenantServer::new(
            Listener::bind(&tcp_any()).unwrap(),
            quick_policy(),
            TenantLimits::default(),
        )
        .with_drain_flag(flag);
        let ep = server.local_endpoint().unwrap();
        let server_thread = thread::spawn(move || serve_until_done(server, TestSink::default()));
        let clients: Vec<_> = (0..producers)
            .map(|i| {
                let ep = ep.clone();
                thread::spawn(move || {
                    let mut link = WireLink::connect(&ep).unwrap();
                    link.handshake(0, 0, Duration::from_secs(5)).unwrap();
                    link.send_data(0, &vec![i + 1; len]).unwrap();
                    // Heartbeat-idle until the goodbye arrives.
                    loop {
                        match link.recv_reply(Some(Duration::from_millis(20))).unwrap() {
                            Some(ServerReply::Goodbye(g)) => return g,
                            Some(ServerReply::Ack(_)) => {}
                            None => link.send_heartbeat().unwrap(),
                        }
                    }
                })
            })
            .collect();
        // Let every session commit its bytes, then drain.
        thread::sleep(Duration::from_millis(200));
        flag.store(true, Ordering::SeqCst);
        for c in clients {
            assert_eq!(c.join().unwrap(), len as u64);
        }
        let sink = server_thread.join().unwrap();
        assert_eq!(sink.data.len(), producers as usize);
        for t in 1..=u64::from(producers) {
            // Tokens are assigned in admission order, which need not be
            // spawn order; every stream is one producer's fill byte.
            let bytes = &sink.data[&t];
            assert_eq!(bytes.len(), len);
            assert!(bytes.iter().all(|&b| b == bytes[0]));
            assert!(
                sink.events[&t].iter().any(
                    |e| matches!(e, TransportEvent::Drained { offset } if *offset == len as u64)
                ),
                "tenant {t} events: {:?}",
                sink.events[&t]
            );
        }
        let mut fills: Vec<u8> = sink.data.values().map(|bytes| bytes[0]).collect();
        fills.sort_unstable();
        assert_eq!(fills, (1..=producers).collect::<Vec<_>>());
        assert_eq!(sink.closed.len(), producers as usize);
    }

    #[test]
    fn drain_flag_sends_goodbye_and_ends_stream() {
        drain_case(1, 500);
    }

    #[test]
    fn tenant_server_drains_all_live_sessions_on_flag() {
        drain_case(3, 256);
    }
}
