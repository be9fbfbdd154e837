//! The wire-protocol server: one listener, one worker thread per
//! connection, one [`asterixdb::Session`] per connection.
//!
//! Composition with the rest of the system:
//!
//! - **Sessions** — every accepted connection calls
//!   [`asterixdb::Instance::new_session`], so `use dataverse` / `set`
//!   statements are connection-local and the instance's `sessions.active`
//!   gauge counts live connections' sessions (leaks show up as a non-zero
//!   gauge after disconnect).
//! - **Admission** — queries go through the instance's normal
//!   `asterix-rm` path; queue-full and queue-timeout surface as typed
//!   [`ErrorCode::AdmissionRejected`] / [`ErrorCode::QueueTimeout`] wire
//!   errors. The connection cap is the *door in front of the door*: beyond
//!   `max_connections`, the accept loop answers with
//!   [`ErrorCode::ConnectionLimit`] and closes without spawning a worker.
//! - **Shutdown** — [`Server::shutdown`] flips the drain flag; new
//!   connects get [`ErrorCode::ServerShutdown`], idle workers notice within
//!   their read-timeout tick and hang up, in-flight statements are given
//!   `shutdown_grace` to finish, and whatever is still running after the
//!   grace is cooperatively cancelled through the workload manager's
//!   `CancellationToken`s (the same machinery `Instance::cancel` uses), so
//!   spilling operators unwind and leave no temp files.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use asterix_obs::{Counter, Gauge};
use asterixdb::{Instance, PreparedQuery, Session};

use crate::proto::{
    encode_results, error_code_for, write_frame, ErrorCode, FrameError, FrameReader, PayloadReader,
    PayloadWriter, Request, Response, MAX_FRAME_BYTES_DEFAULT, PROTOCOL_VERSION,
};

/// Knobs for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port (the bound
    /// address is [`Server::local_addr`]).
    pub addr: String,
    /// Connection cap; beyond it, connects are answered with a typed
    /// [`ErrorCode::ConnectionLimit`] error and closed.
    pub max_connections: usize,
    /// Per-frame payload cap enforced before allocation.
    pub max_frame_bytes: usize,
    /// Shared secret required in `Hello`; `None` accepts any handshake.
    pub secret: Option<String>,
    /// How long [`Server::shutdown`] waits for in-flight work before
    /// cancelling it.
    pub shutdown_grace: Duration,
    /// Per-syscall write timeout on worker sockets, so a client that
    /// stops reading (full TCP window) cannot wedge a worker — and thereby
    /// [`Server::shutdown`] — in `write_all` forever.
    pub write_timeout: Duration,
    /// Cap on prepared-statement handles per connection; beyond it,
    /// `Prepare` is answered with a typed [`ErrorCode::PreparedLimit`]
    /// error (each handle pins a compiled plan in server memory).
    pub max_prepared_per_conn: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 64,
            max_frame_bytes: MAX_FRAME_BYTES_DEFAULT,
            secret: None,
            shutdown_grace: Duration::from_secs(5),
            write_timeout: Duration::from_secs(10),
            max_prepared_per_conn: 256,
        }
    }
}

/// `net.*` counters, registered into the instance's metrics registry so
/// they ride the same JSON/Prometheus snapshots (and the bench `metrics`
/// block) as everything else.
#[derive(Clone, Default)]
pub struct NetStats {
    /// Connections ever accepted (including rejected-at-door).
    pub connections_total: Counter,
    /// Currently live worker connections.
    pub connections_active: Gauge,
    /// Connects turned away (cap or shutdown).
    pub connections_rejected: Counter,
    /// Request frames processed.
    pub requests: Counter,
    /// Payload bytes received / sent (excluding 5-byte frame heads).
    pub bytes_in: Counter,
    pub bytes_out: Counter,
    /// Error frames sent (auth, protocol, execution, ...).
    pub wire_errors: Counter,
}

impl NetStats {
    fn register(&self, m: &asterix_obs::MetricsRegistry) {
        m.register_counter("net.connections.total", &self.connections_total);
        m.register_gauge("net.connections.active", &self.connections_active);
        m.register_counter("net.connections.rejected", &self.connections_rejected);
        m.register_counter("net.requests", &self.requests);
        m.register_counter("net.bytes_in", &self.bytes_in);
        m.register_counter("net.bytes_out", &self.bytes_out);
        m.register_counter("net.wire_errors", &self.wire_errors);
    }
}

struct ServerShared {
    instance: Arc<Instance>,
    cfg: ServerConfig,
    stats: NetStats,
    /// Drain mode: reject new connects (typed), close idle connections,
    /// finish in-flight requests.
    draining: AtomicBool,
    /// Accept loop hard stop (set after the drain completes).
    stopped: AtomicBool,
    /// Live worker connections (drain completion test).
    active: AtomicUsize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// A running wire-protocol server bound to a local address.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

/// Worker read timeout: the latency bound on noticing the drain flag.
const TICK: Duration = Duration::from_millis(100);

impl Server {
    /// Bind and start serving `instance` in background threads.
    pub fn start(instance: Arc<Instance>, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let stats = NetStats::default();
        stats.register(instance.metrics());
        let shared = Arc::new(ServerShared {
            instance,
            cfg,
            stats,
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            workers: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("asterix-net-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server { local_addr, shared, accept_thread: Mutex::new(Some(accept_thread)) })
    }

    /// The bound address (use with `Client::connect` when the config asked
    /// for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's `net.*` stats handles.
    pub fn stats(&self) -> &NetStats {
        &self.shared.stats
    }

    /// Graceful shutdown: reject new connects with a typed
    /// [`ErrorCode::ServerShutdown`] error, let in-flight statements finish
    /// within the grace, cancel whatever is still running through the
    /// workload manager, and join every thread. Idempotent.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Drain: workers exit after their current request (or on their
        // next idle tick).
        let deadline = Instant::now() + self.shared.cfg.shutdown_grace;
        while self.shared.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Grace expired: unwind the stragglers cooperatively. Cancelled
        // queries release their admission slots and memory grants and
        // remove spill files on the way out. A worker can also be wedged
        // outside any job — blocked in `write_all` to a client that
        // stopped reading — which cancellation cannot reach; the socket
        // write timeout bounds that, so this second wait is bounded too,
        // and anything still alive past it is abandoned rather than
        // hanging shutdown (which also runs from Drop) forever.
        if self.shared.active.load(Ordering::SeqCst) > 0 {
            for job in self.shared.instance.list_jobs() {
                self.shared.instance.cancel(job.id);
            }
            let abandon = Instant::now() + self.shared.cfg.write_timeout + Duration::from_secs(1);
            while self.shared.active.load(Ordering::SeqCst) > 0 && Instant::now() < abandon {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        // Stop the accept loop: flip the hard-stop flag and poke the
        // listener with a throwaway connect so `accept` returns.
        self.shared.stopped.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.lock().unwrap().take() {
            let _ = t.join();
        }
        // Join only workers that are actually done; dropping the handle of
        // a straggler detaches it (it exits on its own once its socket
        // write times out).
        let workers = std::mem::take(&mut *self.shared.workers.lock().unwrap());
        for w in workers {
            if w.is_finished() {
                let _ = w.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            if shared.stopped.load(Ordering::SeqCst) {
                return;
            }
            // A persistent accept failure (e.g. EMFILE when the process is
            // out of fds) must not busy-spin a core until fds free up.
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        if shared.stopped.load(Ordering::SeqCst) {
            return;
        }
        shared.stats.connections_total.inc();
        if shared.draining.load(Ordering::SeqCst) {
            reject(&shared, stream, ErrorCode::ServerShutdown, "server shutting down");
            continue;
        }
        // Reject-at-door beyond the connection cap: reserve the slot
        // before spawning so a connect burst cannot overshoot.
        let prev = shared.active.fetch_add(1, Ordering::SeqCst);
        if prev >= shared.cfg.max_connections {
            shared.active.fetch_sub(1, Ordering::SeqCst);
            reject(
                &shared,
                stream,
                ErrorCode::ConnectionLimit,
                &format!("connection limit ({}) reached", shared.cfg.max_connections),
            );
            continue;
        }
        shared.stats.connections_active.add(1);
        let worker_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new().name("asterix-net-conn".into()).spawn(move || {
            let conn_shared = Arc::clone(&worker_shared);
            serve_connection(stream, conn_shared);
            worker_shared.stats.connections_active.sub(1);
            worker_shared.active.fetch_sub(1, Ordering::SeqCst);
        });
        match handle {
            Ok(h) => {
                // Reap long-finished connections' handles as we go, so the
                // Vec tracks live connections rather than growing for the
                // server's whole lifetime.
                let mut workers = shared.workers.lock().unwrap();
                workers.retain(|w| !w.is_finished());
                workers.push(h);
            }
            Err(_) => {
                shared.stats.connections_active.sub(1);
                shared.active.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Answer a doomed connect with one typed error frame and close.
fn reject(shared: &ServerShared, mut stream: TcpStream, code: ErrorCode, msg: &str) {
    shared.stats.connections_rejected.inc();
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    if send_error(&mut stream, &shared.stats, code, msg).is_err() {
        return;
    }
    // Half-close, then consume whatever the client already sent (its
    // `Hello` is typically in flight). Dropping the socket with unread
    // bytes would RST the connection and destroy the error frame before
    // the client reads it. Bounded: small buffer, short timeout, byte cap.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    while drained < 64 * 1024 {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn send_error(
    stream: &mut TcpStream,
    stats: &NetStats,
    code: ErrorCode,
    msg: &str,
) -> std::io::Result<()> {
    stats.wire_errors.inc();
    let mut w = PayloadWriter::new();
    w.u16(code as u16).raw(msg.as_bytes());
    let payload = w.into_bytes();
    stats.bytes_out.add(payload.len() as u64);
    write_frame(stream, Response::Error as u8, &payload)
}

fn send_ok(
    stream: &mut TcpStream,
    stats: &NetStats,
    op: Response,
    payload: &[u8],
) -> std::io::Result<()> {
    stats.bytes_out.add(payload.len() as u64);
    write_frame(stream, op as u8, payload)
}

/// Per-connection state: the session plus this connection's prepared-
/// statement handles. Handles are connection-scoped (dropped with it), so
/// one client cannot execute another's statement ids.
struct Conn {
    sess: Session,
    prepared: HashMap<u64, PreparedQuery>,
    next_handle: AtomicU64,
}

fn serve_connection(mut stream: TcpStream, shared: Arc<ServerShared>) {
    let _ = stream.set_read_timeout(Some(TICK));
    // Per-syscall, so a slow-but-reading client is fine (each write call
    // makes progress); only a fully stalled TCP window trips it, erroring
    // the worker out instead of wedging it — and shutdown — forever.
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    let stats = shared.stats.clone();
    // Handshake first: anything before a valid Hello is turned away.
    match read_frame_ticking(&mut stream, &shared) {
        Ok(Some((op, payload))) => {
            stats.bytes_in.add(payload.len() as u64);
            if op != Request::Hello as u8 {
                let _ = send_error(&mut stream, &stats, ErrorCode::Auth, "expected Hello");
                return;
            }
            let mut r = PayloadReader::new(&payload);
            let version = match r.u8() {
                Ok(v) => v,
                Err(_) => {
                    let _ =
                        send_error(&mut stream, &stats, ErrorCode::Protocol, "empty Hello payload");
                    return;
                }
            };
            if version != PROTOCOL_VERSION {
                let _ = send_error(
                    &mut stream,
                    &stats,
                    ErrorCode::Protocol,
                    &format!("unsupported protocol version {version}"),
                );
                return;
            }
            let secret = r.string().unwrap_or_default();
            if let Some(expected) = &shared.cfg.secret {
                if &secret != expected {
                    let _ = send_error(&mut stream, &stats, ErrorCode::Auth, "bad secret");
                    return;
                }
            }
            let banner = format!("{{\"server\":\"asterix-net\",\"protocol\":{PROTOCOL_VERSION}}}");
            if send_ok(&mut stream, &stats, Response::Ok, banner.as_bytes()).is_err() {
                return;
            }
        }
        Ok(None) | Err(_) => return,
    }

    let conn = Conn {
        sess: shared.instance.new_session(),
        prepared: HashMap::new(),
        next_handle: AtomicU64::new(1),
    };
    serve_requests(&mut stream, &shared, conn);
}

/// Blocking frame read that keeps ticking through read timeouts so the
/// drain flag is noticed within one [`TICK`]. `Ok(None)` means "hang up
/// now" (drain, EOF, or a frame error already answered on the wire).
///
/// The [`FrameReader`] persists across ticks: a timeout mid-frame keeps
/// the bytes read so far and resumes, so a client whose header or payload
/// trickles in with >[`TICK`] gaps is never desynced or disconnected.
fn read_frame_ticking(
    stream: &mut TcpStream,
    shared: &ServerShared,
) -> Result<Option<(u8, Vec<u8>)>, ()> {
    let mut reader = FrameReader::new();
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            let _ = send_error(
                stream,
                &shared.stats,
                ErrorCode::ServerShutdown,
                "server shutting down",
            );
            return Ok(None);
        }
        match reader.read(stream, shared.cfg.max_frame_bytes) {
            Ok(frame) => return Ok(Some(frame)),
            Err(FrameError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(FrameError::Eof) => return Ok(None),
            Err(FrameError::TooLarge(n)) => {
                let _ = send_error(
                    stream,
                    &shared.stats,
                    ErrorCode::FrameTooLarge,
                    &format!(
                        "frame of {n} bytes exceeds max_frame_bytes={}",
                        shared.cfg.max_frame_bytes
                    ),
                );
                return Ok(None);
            }
            Err(FrameError::Protocol(m)) => {
                let _ = send_error(stream, &shared.stats, ErrorCode::Protocol, &m);
                return Ok(None);
            }
            Err(FrameError::Io(_)) => return Ok(None),
        }
    }
}

fn serve_requests(stream: &mut TcpStream, shared: &Arc<ServerShared>, mut conn: Conn) {
    let stats = shared.stats.clone();
    loop {
        let (op, payload) = match read_frame_ticking(stream, shared) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(()) => return,
        };
        stats.requests.inc();
        stats.bytes_in.add(payload.len() as u64);
        let keep_going = match Request::from_u8(op) {
            Some(Request::Hello) => {
                send_error(stream, &stats, ErrorCode::Protocol, "duplicate Hello").is_ok()
            }
            Some(Request::Execute) => handle_execute(stream, shared, &conn, &payload),
            Some(Request::Prepare) => handle_prepare(stream, shared, &mut conn, &payload),
            Some(Request::ExecutePrepared) => {
                handle_execute_prepared(stream, shared, &conn, &payload)
            }
            Some(Request::Cancel) => handle_cancel(stream, shared, &payload),
            Some(Request::Metrics) => {
                let json = shared.instance.metrics_json();
                send_ok(stream, &stats, Response::Ok, json.as_bytes()).is_ok()
            }
            Some(Request::Close) => {
                let _ = send_ok(stream, &stats, Response::Ok, &[]);
                let _ = stream.flush();
                return;
            }
            None => {
                let _ = send_error(
                    stream,
                    &stats,
                    ErrorCode::Protocol,
                    &format!("unknown opcode 0x{op:02x}"),
                );
                return;
            }
        };
        if !keep_going {
            return;
        }
    }
}

fn handle_execute(
    stream: &mut TcpStream,
    shared: &Arc<ServerShared>,
    conn: &Conn,
    payload: &[u8],
) -> bool {
    let stats = &shared.stats;
    let aql = match std::str::from_utf8(payload) {
        Ok(s) => s,
        Err(_) => {
            return send_error(stream, stats, ErrorCode::Protocol, "Execute payload is not UTF-8")
                .is_ok();
        }
    };
    match shared.instance.execute_in(&conn.sess, aql) {
        Ok(results) => send_ok(stream, stats, Response::Results, &encode_results(&results)).is_ok(),
        Err(e) => send_error(stream, stats, error_code_for(&e), &e.to_string()).is_ok(),
    }
}

fn handle_prepare(
    stream: &mut TcpStream,
    shared: &Arc<ServerShared>,
    conn: &mut Conn,
    payload: &[u8],
) -> bool {
    let stats = &shared.stats;
    let aql = match std::str::from_utf8(payload) {
        Ok(s) => s,
        Err(_) => {
            return send_error(stream, stats, ErrorCode::Protocol, "Prepare payload is not UTF-8")
                .is_ok();
        }
    };
    // Each handle pins a compiled plan in server memory for the life of
    // the connection; without a cap, looping Prepare is a trivial
    // memory-exhaustion vector (especially with no secret configured).
    if conn.prepared.len() >= shared.cfg.max_prepared_per_conn {
        return send_error(
            stream,
            stats,
            ErrorCode::PreparedLimit,
            &format!(
                "prepared-statement limit ({}) reached on this connection",
                shared.cfg.max_prepared_per_conn
            ),
        )
        .is_ok();
    }
    match shared.instance.prepare(aql) {
        Ok(prepared) => {
            let handle = conn.next_handle.fetch_add(1, Ordering::Relaxed);
            let nparams = prepared.param_count() as u32;
            conn.prepared.insert(handle, prepared);
            let mut w = PayloadWriter::new();
            w.u64(handle).u32(nparams);
            send_ok(stream, stats, Response::Prepared, &w.into_bytes()).is_ok()
        }
        Err(e) => send_error(stream, stats, error_code_for(&e), &e.to_string()).is_ok(),
    }
}

fn handle_execute_prepared(
    stream: &mut TcpStream,
    shared: &Arc<ServerShared>,
    conn: &Conn,
    payload: &[u8],
) -> bool {
    let stats = &shared.stats;
    let mut r = PayloadReader::new(payload);
    let parsed = (|| -> Result<(u64, Vec<asterix_adm::Value>), FrameError> {
        let handle = r.u64()?;
        let n = r.u32()? as usize;
        let mut params = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let b = r.bytes()?;
            let v = asterix_adm::serde::decode(b)
                .map_err(|e| FrameError::Protocol(format!("bad ADM parameter: {e}")))?;
            params.push(v);
        }
        if r.remaining() != 0 {
            return Err(FrameError::Protocol("trailing bytes after parameters".into()));
        }
        Ok((handle, params))
    })();
    let (handle, params) = match parsed {
        Ok(p) => p,
        Err(e) => return send_error(stream, stats, ErrorCode::Protocol, &e.to_string()).is_ok(),
    };
    let Some(prepared) = conn.prepared.get(&handle) else {
        return send_error(
            stream,
            stats,
            ErrorCode::UnknownHandle,
            &format!("no prepared statement with handle {handle}"),
        )
        .is_ok();
    };
    match shared.instance.execute_prepared_in(&conn.sess, prepared, &params) {
        Ok(rows) => {
            let results = [asterixdb::StatementResult::Rows(rows)];
            send_ok(stream, stats, Response::Results, &encode_results(&results)).is_ok()
        }
        Err(e) => send_error(stream, stats, error_code_for(&e), &e.to_string()).is_ok(),
    }
}

fn handle_cancel(stream: &mut TcpStream, shared: &Arc<ServerShared>, payload: &[u8]) -> bool {
    let stats = &shared.stats;
    let mut r = PayloadReader::new(payload);
    let job_id = match r.u64() {
        Ok(id) => id,
        Err(_) => {
            return send_error(stream, stats, ErrorCode::Protocol, "Cancel payload wants a u64")
                .is_ok();
        }
    };
    let cancelled = shared.instance.cancel(job_id);
    send_ok(stream, stats, Response::Ok, &[u8::from(cancelled)]).is_ok()
}
