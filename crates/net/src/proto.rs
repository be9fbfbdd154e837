//! The wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! +----------------+-----------+------------------------+
//! | u32 BE length  | u8 opcode | payload (length bytes) |
//! +----------------+-----------+------------------------+
//! ```
//!
//! The length counts the payload only (not itself, not the opcode), so an
//! empty-payload frame is 5 bytes on the wire. Multi-byte integers inside
//! payloads are big-endian; strings are UTF-8; data values are ADM
//! self-describing bytes ([`asterix_adm::serde::encode`]) — the same
//! encoding the storage and exchange layers use, which is what makes the
//! bit-identity guarantee of the loopback tests meaningful.
//!
//! The decoder enforces [`MAX_FRAME_BYTES_DEFAULT`]-style limits
//! *before* allocating: a length prefix larger than the configured
//! `max_frame_bytes` is a [`ErrorCode::FrameTooLarge`] protocol error, not
//! an allocation. Truncated or garbage frames surface as
//! [`FrameError::Protocol`] / clean EOF, never a hang or an OOM.

use std::io::{IoSlice, Read, Write};

use asterix_adm::Value;

/// Protocol revision carried in the `Hello` payload. Bump on any frame- or
/// payload-layout change.
pub const PROTOCOL_VERSION: u8 = 1;

/// Default cap on a single frame's payload (8 MiB).
pub const MAX_FRAME_BYTES_DEFAULT: usize = 8 * 1024 * 1024;

/// Request opcodes (client → server).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Request {
    /// Version + optional shared-secret handshake; must be the first frame
    /// on every connection.
    Hello = 0x01,
    /// Run a batch of AQL statements in this connection's session.
    Execute = 0x02,
    /// Normalize the (single) query and store it server-side; returns a
    /// statement handle.
    Prepare = 0x03,
    /// Execute a previously prepared handle with a fresh parameter vector.
    ExecutePrepared = 0x04,
    /// Cooperatively cancel a running job by id (from any connection).
    Cancel = 0x05,
    /// Fetch the server's metrics registry snapshot as JSON.
    Metrics = 0x06,
    /// Orderly goodbye; the server acknowledges then closes.
    Close = 0x07,
}

impl Request {
    pub fn from_u8(b: u8) -> Option<Request> {
        Some(match b {
            0x01 => Request::Hello,
            0x02 => Request::Execute,
            0x03 => Request::Prepare,
            0x04 => Request::ExecutePrepared,
            0x05 => Request::Cancel,
            0x06 => Request::Metrics,
            0x07 => Request::Close,
            _ => return None,
        })
    }
}

/// Response opcodes (server → client).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Response {
    /// Success with an opcode-specific payload (banner JSON, metrics JSON,
    /// cancel outcome byte, empty for `Close`).
    Ok = 0x80,
    /// Statement results (see [`encode_results`] / [`decode_results`]).
    Results = 0x81,
    /// A prepared-statement handle: u64 id + u32 param count.
    Prepared = 0x82,
    /// Typed error: u16 [`ErrorCode`] + UTF-8 message.
    Error = 0xEE,
}

impl Response {
    pub fn from_u8(b: u8) -> Option<Response> {
        Some(match b {
            0x80 => Response::Ok,
            0x81 => Response::Results,
            0x82 => Response::Prepared,
            0xEE => Response::Error,
            _ => return None,
        })
    }
}

/// Typed error codes carried in [`Response::Error`] frames, so clients can
/// distinguish "try later" (admission) from "fix your query" (parse) from
/// "goodbye" (shutdown) without string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Bad or missing shared secret, or no `Hello` first.
    Auth = 1,
    /// Malformed frame or payload.
    Protocol = 2,
    /// Length prefix exceeds the server's `max_frame_bytes`.
    FrameTooLarge = 3,
    /// The server is at its connection cap; rejected at the door.
    ConnectionLimit = 4,
    /// The server is draining for shutdown.
    ServerShutdown = 5,
    /// `ExecutePrepared` with a handle this connection never prepared.
    UnknownHandle = 6,
    /// `Prepare` beyond the per-connection prepared-statement cap.
    PreparedLimit = 7,
    Parse = 10,
    Translate = 11,
    Catalog = 12,
    Execution = 13,
    Cancelled = 14,
    /// Admission queue full ([`asterixdb::AdmissionError::Rejected`]).
    AdmissionRejected = 15,
    /// Admission wait timed out.
    QueueTimeout = 16,
    /// Anything else (storage, txn, io, ...).
    Internal = 99,
}

impl ErrorCode {
    pub fn from_u16(v: u16) -> ErrorCode {
        match v {
            1 => ErrorCode::Auth,
            2 => ErrorCode::Protocol,
            3 => ErrorCode::FrameTooLarge,
            4 => ErrorCode::ConnectionLimit,
            5 => ErrorCode::ServerShutdown,
            6 => ErrorCode::UnknownHandle,
            7 => ErrorCode::PreparedLimit,
            10 => ErrorCode::Parse,
            11 => ErrorCode::Translate,
            12 => ErrorCode::Catalog,
            13 => ErrorCode::Execution,
            14 => ErrorCode::Cancelled,
            15 => ErrorCode::AdmissionRejected,
            16 => ErrorCode::QueueTimeout,
            _ => ErrorCode::Internal,
        }
    }
}

/// Map an instance error onto the wire's typed codes.
pub fn error_code_for(e: &asterixdb::AsterixError) -> ErrorCode {
    use asterixdb::AsterixError as E;
    match e {
        E::Parse(_) => ErrorCode::Parse,
        E::Translate(_) => ErrorCode::Translate,
        E::Catalog(_) => ErrorCode::Catalog,
        E::Execution(_) => ErrorCode::Execution,
        E::Cancelled => ErrorCode::Cancelled,
        E::Admission(a) => match a {
            asterixdb::AdmissionError::Rejected { .. } => ErrorCode::AdmissionRejected,
            asterixdb::AdmissionError::QueueTimeout { .. } => ErrorCode::QueueTimeout,
            asterixdb::AdmissionError::Cancelled => ErrorCode::Cancelled,
        },
        _ => ErrorCode::Internal,
    }
}

/// Frame-layer failures (distinct from typed server errors).
#[derive(Debug)]
pub enum FrameError {
    Io(std::io::Error),
    /// Length prefix over the configured cap; carries the offending length.
    TooLarge(usize),
    /// Structurally invalid frame or payload.
    Protocol(String),
    /// Orderly remote close between frames.
    Eof,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io error: {e}"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            FrameError::Protocol(m) => write!(f, "protocol error: {m}"),
            FrameError::Eof => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one frame: length prefix, opcode, payload — header and payload in
/// **one** vectored write. On a `TCP_NODELAY` socket two `write_all`s are
/// two segments, and the peer wakes for the 5 header bytes and again for
/// the payload; a frame the socket takes whole costs one `writev` and one
/// wake-up, with no copy of the payload. A short write is completed from
/// where it stopped.
pub fn write_frame(w: &mut impl Write, opcode: u8, payload: &[u8]) -> std::io::Result<()> {
    let len = payload.len() as u32;
    let mut head = [0u8; 5];
    head[..4].copy_from_slice(&len.to_be_bytes());
    head[4] = opcode;
    let mut written = 0;
    while written < head.len() {
        match w.write_vectored(&[IoSlice::new(&head[written..]), IoSlice::new(payload)]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.write_all(&payload[written - head.len()..])?;
    w.flush()
}

/// Read one frame, enforcing `max_frame_bytes` on the length prefix before
/// any payload allocation. Returns `(opcode, payload)`.
///
/// A clean EOF *before any header byte* is [`FrameError::Eof`]; EOF
/// mid-frame is a truncation ([`FrameError::Protocol`]). For sockets with
/// a read timeout, use a persistent [`FrameReader`] instead: this one-shot
/// form forgets partial bytes on a timeout.
pub fn read_frame(r: &mut impl Read, max_frame_bytes: usize) -> Result<(u8, Vec<u8>), FrameError> {
    FrameReader::new().read(r, max_frame_bytes)
}

/// Incremental frame decoder that survives read timeouts.
///
/// Partial header and payload bytes are kept across
/// `WouldBlock`/`TimedOut` errors, so a caller that uses a socket read
/// timeout as an idle tick can resume the *same* frame on the next call —
/// a peer whose bytes trickle in with gaps longer than the timeout (normal
/// on WAN or congested links) is never desynced or disconnected.
pub struct FrameReader {
    head: [u8; 5],
    head_filled: usize,
    payload: Option<Vec<u8>>,
    payload_filled: usize,
}

impl FrameReader {
    pub fn new() -> FrameReader {
        FrameReader { head: [0u8; 5], head_filled: 0, payload: None, payload_filled: 0 }
    }

    /// Whether any bytes of the current frame have been consumed. A read
    /// timeout with this false is an idle tick between frames; with it
    /// true, the peer is mid-frame and the bytes so far are retained.
    pub fn mid_frame(&self) -> bool {
        self.head_filled > 0
    }

    /// Try to complete one frame, enforcing `max_frame_bytes` on the
    /// length prefix before any payload allocation.
    ///
    /// On `WouldBlock`/`TimedOut` (or any other error) the error is
    /// returned but progress is kept — call again with the same reader to
    /// resume. A completed frame resets the reader for the next one.
    pub fn read(
        &mut self,
        r: &mut impl Read,
        max_frame_bytes: usize,
    ) -> Result<(u8, Vec<u8>), FrameError> {
        while self.head_filled < self.head.len() {
            match r.read(&mut self.head[self.head_filled..]) {
                Ok(0) => {
                    return if self.head_filled == 0 {
                        Err(FrameError::Eof)
                    } else {
                        Err(FrameError::Protocol("truncated frame header".into()))
                    };
                }
                Ok(n) => self.head_filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        if self.payload.is_none() {
            let len = u32::from_be_bytes([self.head[0], self.head[1], self.head[2], self.head[3]])
                as usize;
            if len > max_frame_bytes {
                return Err(FrameError::TooLarge(len));
            }
            self.payload = Some(vec![0u8; len]);
            self.payload_filled = 0;
        }
        let payload = self.payload.as_mut().expect("payload allocated above");
        while self.payload_filled < payload.len() {
            match r.read(&mut payload[self.payload_filled..]) {
                Ok(0) => return Err(FrameError::Protocol("truncated frame payload".into())),
                Ok(n) => self.payload_filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        let opcode = self.head[4];
        let payload = self.payload.take().expect("payload present");
        self.head_filled = 0;
        self.payload_filled = 0;
        Ok((opcode, payload))
    }
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

// ---------------------------------------------------------------------------
// Payload building blocks
// ---------------------------------------------------------------------------

/// Cursor over a payload with bounds-checked big-endian reads.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    pub fn new(buf: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Protocol(format!(
                "payload truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    /// A u32-length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], FrameError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A u32-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, FrameError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| FrameError::Protocol("invalid utf-8 in payload".into()))
    }

    /// Everything not yet consumed, as UTF-8.
    pub fn rest_string(&mut self) -> Result<String, FrameError> {
        let b = self.take(self.remaining())?;
        String::from_utf8(b.to_vec())
            .map_err(|_| FrameError::Protocol("invalid utf-8 in payload".into()))
    }
}

/// Append helpers mirroring [`PayloadReader`].
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    pub fn new() -> PayloadWriter {
        PayloadWriter { buf: Vec::new() }
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
        self
    }

    pub fn string(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    pub fn raw(&mut self, b: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(b);
        self
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for PayloadWriter {
    fn default() -> Self {
        PayloadWriter::new()
    }
}

// ---------------------------------------------------------------------------
// Statement-result encoding (Execute / ExecutePrepared responses)
// ---------------------------------------------------------------------------

/// A statement outcome as it travels the wire; mirrors
/// [`asterixdb::StatementResult`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireResult {
    /// DDL / session statement completed.
    Ok,
    /// DML completed, affecting this many records.
    Count(u64),
    /// Query rows (ADM values).
    Rows(Vec<Value>),
}

const TAG_OK: u8 = 0;
const TAG_COUNT: u8 = 1;
const TAG_ROWS: u8 = 2;

/// Encode a batch of statement results:
/// `u32 n, then per result: u8 tag, Count→u64, Rows→u32 nrows + per-row
/// u32 len + ADM bytes`.
pub fn encode_results(results: &[asterixdb::StatementResult]) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u32(results.len() as u32);
    for r in results {
        match r {
            asterixdb::StatementResult::Ok => {
                w.u8(TAG_OK);
            }
            asterixdb::StatementResult::Count(n) => {
                w.u8(TAG_COUNT).u64(*n as u64);
            }
            asterixdb::StatementResult::Rows(rows) => {
                w.u8(TAG_ROWS).u32(rows.len() as u32);
                for row in rows {
                    w.bytes(&asterix_adm::serde::encode(row));
                }
            }
        }
    }
    w.into_bytes()
}

/// Decode what [`encode_results`] produced.
pub fn decode_results(payload: &[u8]) -> Result<Vec<WireResult>, FrameError> {
    let mut r = PayloadReader::new(payload);
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        match r.u8()? {
            TAG_OK => out.push(WireResult::Ok),
            TAG_COUNT => out.push(WireResult::Count(r.u64()?)),
            TAG_ROWS => {
                let nrows = r.u32()? as usize;
                let mut rows = Vec::with_capacity(nrows.min(65536));
                for _ in 0..nrows {
                    let b = r.bytes()?;
                    let v = asterix_adm::serde::decode(b)
                        .map_err(|e| FrameError::Protocol(format!("bad ADM row encoding: {e}")))?;
                    rows.push(v);
                }
                out.push(WireResult::Rows(rows));
            }
            t => return Err(FrameError::Protocol(format!("unknown result tag {t}"))),
        }
    }
    if r.remaining() != 0 {
        return Err(FrameError::Protocol(format!(
            "{} trailing bytes after results",
            r.remaining()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, Request::Execute as u8, b"for $x in [1] return $x").unwrap();
        let (op, payload) = read_frame(&mut buf.as_slice(), MAX_FRAME_BYTES_DEFAULT).unwrap();
        assert_eq!(op, Request::Execute as u8);
        assert_eq!(payload, b"for $x in [1] return $x");
    }

    /// Counts write calls of either kind (each is one syscall on a socket)
    /// and takes at most `max` bytes per call.
    struct CountingSink {
        data: Vec<u8>,
        calls: usize,
        max: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut room = self.max;
            for b in bufs {
                let n = b.len().min(room);
                self.data.extend_from_slice(&b[..n]);
                room -= n;
            }
            Ok(self.max - room)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_that_fits_is_one_write_and_a_short_write_is_completed() {
        let payload: Vec<u8> = (0..=255).collect();
        let mut whole = Vec::new();
        write_frame(&mut whole, Response::Results as u8, &payload).unwrap();
        assert_eq!(whole.len(), 5 + payload.len());

        let mut sink = CountingSink { data: Vec::new(), calls: 0, max: usize::MAX };
        write_frame(&mut sink, Response::Results as u8, &payload).unwrap();
        assert_eq!(sink.calls, 1, "header and payload leave in one write");
        assert_eq!(sink.data, whole);
        write_frame(&mut sink, Response::Ok as u8, &[]).unwrap();
        assert_eq!(sink.calls, 2, "an empty payload is one write too");

        // Every short-write size, among them ones that stop inside the
        // header, at its end, and inside the payload.
        for max in [1, 2, 4, 5, 6, 7, 100, 260, 261] {
            let mut sink = CountingSink { data: Vec::new(), calls: 0, max };
            write_frame(&mut sink, Response::Results as u8, &payload).unwrap();
            assert_eq!(sink.data, whole, "max {max} bytes per write");
            assert_eq!(sink.calls, whole.len().div_ceil(max), "max {max}");
        }

        // A sink that takes nothing is an error, not a spin.
        let mut sink = CountingSink { data: Vec::new(), calls: 0, max: 0 };
        let err = write_frame(&mut sink, Response::Ok as u8, b"x").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        // 4 GiB-1 length prefix; must fail fast, not allocate.
        let buf = [0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        match read_frame(&mut buf.as_slice(), 1024) {
            Err(FrameError::TooLarge(n)) => assert_eq!(n, u32::MAX as usize),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_and_payload_are_protocol_errors() {
        let buf = [0x00, 0x00];
        assert!(matches!(read_frame(&mut buf.as_slice(), 1024), Err(FrameError::Protocol(_))));
        // Header promises 10 bytes of payload, delivers 3.
        let buf = [0x00, 0x00, 0x00, 0x0A, 0x02, 1, 2, 3];
        assert!(matches!(read_frame(&mut buf.as_slice(), 1024), Err(FrameError::Protocol(_))));
    }

    /// Yields one byte per call, with a `WouldBlock` "timeout" before each
    /// — the worst-case trickle a read-timeout socket can produce.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        ready: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "tick"));
            }
            self.ready = false;
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_reader_resumes_across_read_timeouts() {
        // Two back-to-back frames, delivered one byte at a time with a
        // timeout between every byte; a non-resumable reader would discard
        // partial header bytes on each timeout and desync permanently.
        let mut wire = Vec::new();
        write_frame(&mut wire, Request::Execute as u8, b"abc").unwrap();
        write_frame(&mut wire, Request::Close as u8, b"").unwrap();
        let total = wire.len();
        let mut src = Trickle { data: wire, pos: 0, ready: false };
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        let mut ticks = 0usize;
        while frames.len() < 2 {
            match reader.read(&mut src, 1024) {
                Ok(frame) => {
                    assert!(!reader.mid_frame(), "reader must reset after a full frame");
                    frames.push(frame);
                }
                Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => ticks += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(ticks, total, "every byte was preceded by a timeout tick");
        assert_eq!(frames[0].0, Request::Execute as u8);
        assert_eq!(frames[0].1, b"abc");
        assert_eq!(frames[1].0, Request::Close as u8);
        assert_eq!(frames[1].1, b"");
    }

    #[test]
    fn frame_reader_mid_frame_tracks_consumed_bytes() {
        let mut wire = Vec::new();
        write_frame(&mut wire, Request::Execute as u8, b"xy").unwrap();
        let mut src = Trickle { data: wire, pos: 0, ready: false };
        let mut reader = FrameReader::new();
        // First timeout: nothing consumed yet — an idle tick.
        assert!(matches!(reader.read(&mut src, 1024), Err(FrameError::Io(_))));
        assert!(!reader.mid_frame());
        // Second call consumes one header byte before its timeout.
        assert!(matches!(reader.read(&mut src, 1024), Err(FrameError::Io(_))));
        assert!(reader.mid_frame());
    }

    #[test]
    fn clean_eof_between_frames() {
        let buf: [u8; 0] = [];
        assert!(matches!(read_frame(&mut buf.as_slice(), 1024), Err(FrameError::Eof)));
    }

    #[test]
    fn results_roundtrip_bit_identical() {
        let rows = vec![
            Value::Int64(42),
            Value::string("hello"),
            Value::ordered_list(vec![Value::Int64(1), Value::Int64(2)]),
        ];
        let results = vec![
            asterixdb::StatementResult::Ok,
            asterixdb::StatementResult::Count(7),
            asterixdb::StatementResult::Rows(rows.clone()),
        ];
        let decoded = decode_results(&encode_results(&results)).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0], WireResult::Ok);
        assert_eq!(decoded[1], WireResult::Count(7));
        let WireResult::Rows(got) = &decoded[2] else { panic!("expected rows") };
        for (a, b) in got.iter().zip(rows.iter()) {
            assert_eq!(asterix_adm::serde::encode(a), asterix_adm::serde::encode(b));
        }
    }

    #[test]
    fn error_code_u16_roundtrip() {
        for c in [
            ErrorCode::Auth,
            ErrorCode::Protocol,
            ErrorCode::FrameTooLarge,
            ErrorCode::ConnectionLimit,
            ErrorCode::ServerShutdown,
            ErrorCode::UnknownHandle,
            ErrorCode::PreparedLimit,
            ErrorCode::Parse,
            ErrorCode::Translate,
            ErrorCode::Catalog,
            ErrorCode::Execution,
            ErrorCode::Cancelled,
            ErrorCode::AdmissionRejected,
            ErrorCode::QueueTimeout,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u16(c as u16), c);
        }
    }
}
