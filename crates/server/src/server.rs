//! The multiplexed serving layer: a sharded nonblocking event loop with
//! admission control and accuracy shedding.
//!
//! PR 3's thread-per-session server was fine for tens of dashboards and
//! fatal for thousands: every idle connection pinned a stack, every stalled
//! client pinned a thread.  This module replaces it with the classic
//! scale-out shape, built only on `std` plus the in-tree
//! [`verdict_poll`] shim:
//!
//! * **N I/O shards** — each shard thread owns a set of nonblocking sockets
//!   and multiplexes them with a level-triggered `poll(2)` readiness loop.
//!   Per-connection read and write buffers are bounded; a stalled or
//!   malicious client can wedge only its own connection, never the loop.
//! * **A bounded run queue** — parsed statements are handed to a small pool
//!   of executor workers (which drive the engine's existing morsel pool);
//!   I/O threads never execute queries on the backend.  A statement whose
//!   answer is in the answer cache is the exception that proves the rule:
//!   the shard that read it answers it in place, as it answers `PING`
//!   ([`verdict_core::VerdictSession::cached_spelling`] finds a text
//!   answered before without parsing it, then
//!   [`verdict_core::VerdictSession::cached_answer`] a new spelling of a
//!   cached statement; both read the cache and the backend's data
//!   versions, never execute), so a hit takes no queue slot, no shed tier
//!   and no worker, and its frame copies the body the entry's first hit
//!   encoded.
//! * **Admission control** — every statement passes the
//!   [`verdict_core::shed`] gate: as queue depth crosses watermarks the
//!   server first *sheds accuracy* (raises the tolerated error, shrinks
//!   the I/O budget — answers carry a `shed=<tier>` / `DEGRADED`
//!   annotation) and only refuses with a typed `BUSY` error once the queue
//!   is full.  Sessions can set per-query deadlines (`SET deadline_ms`);
//!   missed deadlines answer with a typed `DEADLINE` error.
//! * **Graceful drain** — the `SHUTDOWN` verb (or [`ServerHandle::drain`])
//!   stops accepting, refuses new statements with a typed `SHUTDOWN`
//!   error, finishes in-flight work, flushes every pending stream frame,
//!   then closes.
//!
//! The wire protocol and per-connection session semantics are unchanged
//! from the thread-per-session server: one request line in, one response
//! frame out (a frame sequence for `SQL STREAM …`), one
//! [`verdict_core::VerdictSession`] per connection, strict per-connection
//! ordering (a connection's next statement is parsed only after the
//! previous one's response is queued).

use crate::dispatch;
use crate::protocol::{
    write_coded_error_frame, write_error_frame, write_result_frame, ErrorCode, FrameHeader,
};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use verdict_core::{
    Admission, AdmissionController, CacheHit, Histogram, Parsed, ShedPolicy, ShedTier,
    VerdictContext, VerdictError, VerdictSession,
};
use verdict_poll::{poll, poll_handle, wake_pair, PollFd, POLLIN, POLLOUT};

/// Longest accepted request line.  A line-based protocol must bound its
/// buffering: without a cap, one client streaming bytes with no newline
/// would grow server memory without limit.
pub(crate) const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Aggregate serving counters, shared by every session.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Sessions accepted since the server started.
    pub sessions_opened: AtomicU64,
    /// Sessions currently connected.
    pub sessions_active: AtomicU64,
    /// SQL statements dispatched (including errors; `SQL` requests count,
    /// `PING`/`QUIT` do not).
    pub queries_served: AtomicU64,
    /// Requests that produced an `ERR` frame (including typed `BUSY` /
    /// `DEADLINE` / `SHUTDOWN` refusals).
    pub errors: AtomicU64,
    /// Statements answered with a typed `DEADLINE` error because their
    /// `deadline_ms` passed before a complete answer could be delivered.
    pub deadline_misses: AtomicU64,
    /// Statements answered from the answer cache by the I/O shard that read
    /// them, without a queue slot or a worker.
    pub cache_hits_on_shard: AtomicU64,
    /// Time each admitted statement waited on the run queue, from enqueue
    /// to a worker taking it.
    pub queue_wait_us: Histogram,
    /// Time a worker spent on each admitted statement, from taking it to
    /// its terminal frame.
    pub exec_us: Histogram,
    /// Most statements an arriving statement found waiting ahead of it on
    /// the run queue.
    pub queue_peak_depth: AtomicU64,
}

/// Tuning knobs for the event-loop server.  Every knob has a sensible
/// default and an environment override so the stock binary can be shaped
/// without flags; tests use the [`VerdictServer`] builder methods.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Number of I/O shard threads multiplexing connections
    /// (`VERDICT_SERVER_SHARDS`).
    pub io_shards: usize,
    /// Number of executor workers draining the run queue
    /// (`VERDICT_SERVER_WORKERS`).
    pub workers: usize,
    /// Capacity of the bounded run queue — the admission-control watermark
    /// (`VERDICT_QUEUE_CAP`).
    pub queue_capacity: usize,
    /// Per-connection outbound buffer high watermark in bytes: a stream
    /// whose client stops reading is paused (not dropped) at this size.
    pub write_buffer_bytes: usize,
    /// How long a paused stream waits for a stalled client to drain its
    /// outbound buffer before the connection is declared dead.
    pub write_stall_timeout: Duration,
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.parse().ok()
}

impl Default for ServingConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        ServingConfig {
            io_shards: env_usize("VERDICT_SERVER_SHARDS")
                .unwrap_or_else(|| cores.clamp(2, 8))
                .max(1),
            workers: env_usize("VERDICT_SERVER_WORKERS")
                .unwrap_or_else(|| (cores * 2).clamp(4, 16))
                .max(1),
            queue_capacity: env_usize("VERDICT_QUEUE_CAP").unwrap_or(256).max(1),
            write_buffer_bytes: 256 * 1024,
            write_stall_timeout: Duration::from_secs(10),
        }
    }
}

/// Wakes one shard's poll loop from another thread (loopback byte write;
/// saturation means a wake is already pending, so `WouldBlock` is success).
#[derive(Clone)]
pub(crate) struct Waker {
    tx: Arc<TcpStream>,
}

impl Waker {
    fn new(tx: TcpStream) -> Waker {
        let _ = tx.set_nonblocking(true);
        Waker { tx: Arc::new(tx) }
    }

    pub(crate) fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// One shard's mailbox: freshly accepted connections plus the wake channel.
struct ShardChannel {
    inbox: Mutex<Vec<TcpStream>>,
    waker: Waker,
}

/// State shared between the accept loop, the I/O shards, the executor
/// workers, and every [`ConnShared`].
pub(crate) struct Shared {
    pub(crate) ctx: Arc<VerdictContext>,
    pub(crate) stats: ServerStats,
    pub(crate) cfg: ServingConfig,
    pub(crate) admission: AdmissionController,
    pub(crate) queue: Mutex<VecDeque<Task>>,
    pub(crate) queue_cv: Condvar,
    /// Drain requested: stop accepting, refuse new statements, finish
    /// in-flight work, flush, close.
    pub(crate) draining: AtomicBool,
    /// Hard stop: close connections after one flush attempt, skip queued
    /// statements.  Implies `draining`.
    pub(crate) force: AtomicBool,
    /// Set by the supervisor once the shards have exited; lets workers
    /// finish the remaining queue and return.
    workers_done: AtomicBool,
    channels: OnceLock<Vec<ShardChannel>>,
}

impl Shared {
    pub(crate) fn force_stopped(&self) -> bool {
        self.force.load(Ordering::SeqCst)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    pub(crate) fn request_drain(&self) {
        self.begin_drain();
    }

    fn force_stop(&self) {
        self.force.store(true, Ordering::SeqCst);
        self.begin_drain();
    }

    fn wake_all(&self) {
        if let Some(channels) = self.channels.get() {
            for ch in channels {
                ch.waker.wake();
            }
        }
        self.queue_cv.notify_all();
    }

    pub(crate) fn count_error(&self) {
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// The `serving` section of `verdict_stats` (and so of `SHOW METRICS`):
    /// transport- and admission-level counters the core cannot see, in
    /// alphabetical order.
    fn serving_stats(&self) -> Vec<(&'static str, u64)> {
        let stats = &self.stats;
        let adm = self.admission.stats();
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let quantile = |h: &Histogram, q: f64| h.quantile(q).unwrap_or(0);
        vec![
            ("cache_hits_on_shard", load(&stats.cache_hits_on_shard)),
            ("deadline_misses", load(&stats.deadline_misses)),
            ("draining", self.draining.load(Ordering::SeqCst) as u64),
            ("errors", load(&stats.errors)),
            ("exec_count", stats.exec_us.count()),
            ("exec_p50_us", quantile(&stats.exec_us, 0.50)),
            ("exec_p99_us", quantile(&stats.exec_us, 0.99)),
            ("exec_workers", self.cfg.workers as u64),
            ("io_shards", self.cfg.io_shards as u64),
            ("queries_admitted", adm.admitted),
            ("queries_refused", adm.refused),
            ("queries_served", load(&stats.queries_served)),
            ("queries_shed", adm.shed),
            ("queue_capacity", self.cfg.queue_capacity as u64),
            // Statements waiting for a worker: the statement reading this
            // row is already running, so an idle server reads 0.
            ("queue_depth", self.queue.lock().unwrap().len() as u64),
            ("queue_peak_depth", load(&stats.queue_peak_depth)),
            ("queue_wait_count", stats.queue_wait_us.count()),
            ("queue_wait_p50_us", quantile(&stats.queue_wait_us, 0.50)),
            ("queue_wait_p99_us", quantile(&stats.queue_wait_us, 0.99)),
            ("sessions_active", load(&stats.sessions_active)),
            ("sessions_opened", load(&stats.sessions_opened)),
        ]
    }
}

/// Per-connection state shared between the owning I/O shard and the
/// executor workers: the session, the bounded outbound buffer, and the
/// lifecycle flags.
pub(crate) struct ConnShared {
    pub(crate) session: Mutex<VerdictSession>,
    out: Mutex<VecDeque<u8>>,
    can_write: Condvar,
    pub(crate) dead: AtomicBool,
    /// A statement from this connection is queued or executing; the shard
    /// parses no further requests until the worker clears it.
    busy: AtomicBool,
    close_after_flush: AtomicBool,
    waker: Waker,
}

impl ConnShared {
    fn new(session: VerdictSession, waker: Waker) -> ConnShared {
        ConnShared {
            session: Mutex::new(session),
            out: Mutex::new(VecDeque::new()),
            can_write: Condvar::new(),
            dead: AtomicBool::new(false),
            busy: AtomicBool::new(false),
            close_after_flush: AtomicBool::new(false),
            waker: Waker {
                tx: Arc::clone(&waker.tx),
            },
        }
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Appends response bytes without backpressure and without waking the
    /// shard: for frames the shard answers itself and flushes in the same
    /// loop iteration.
    fn append(&self, text: &str) {
        if !self.is_dead() {
            self.out.lock().unwrap().extend(text.as_bytes());
        }
    }

    /// Appends a worker's terminal frame without backpressure and wakes the
    /// shard to flush it.
    fn push_unbounded(&self, text: &str) {
        self.append(text);
        self.waker.wake();
    }

    /// Parses no further requests; the shard closes the connection once its
    /// pending output is flushed.
    pub(crate) fn close_when_flushed(&self) {
        self.close_after_flush.store(true, Ordering::SeqCst);
    }

    fn outbound_len(&self) -> usize {
        self.out.lock().unwrap().len()
    }
}

/// Why a worker-side send could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SinkError {
    /// The connection died (or the server is force-stopping): stop
    /// producing, no terminal frame is owed.
    Gone,
    /// The statement's deadline passed while the send was backpressured.
    Deadline,
}

/// Worker-side writer for one statement's response bytes: appends to the
/// connection's bounded outbound buffer, blocking (with a stall timeout)
/// while the buffer is over its high watermark.  This is the isolation
/// boundary — a client that stops reading backpressures *its own* stream
/// here, on a worker, while the I/O shards keep multiplexing everyone else.
pub(crate) struct ConnSink<'a> {
    pub(crate) shared: &'a Shared,
    pub(crate) conn: &'a ConnShared,
    pub(crate) deadline: Option<Instant>,
}

impl ConnSink<'_> {
    /// Sends with backpressure.  Use for non-terminal stream frames.
    pub(crate) fn send(&self, text: &str) -> Result<(), SinkError> {
        let high = self.shared.cfg.write_buffer_bytes;
        let stall = self.shared.cfg.write_stall_timeout;
        let mut out = self.conn.out.lock().unwrap();
        let mut last_len = out.len();
        let mut last_progress = Instant::now();
        loop {
            if self.conn.is_dead() || self.shared.force_stopped() {
                return Err(SinkError::Gone);
            }
            if out.is_empty() || out.len() <= high {
                out.extend(text.as_bytes());
                drop(out);
                self.conn.waker.wake();
                return Ok(());
            }
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    return Err(SinkError::Deadline);
                }
            }
            if out.len() < last_len {
                last_len = out.len();
                last_progress = Instant::now();
            } else if last_progress.elapsed() >= stall {
                // The client stopped reading and the buffer is pinned at
                // its watermark: declare the connection dead so the shard
                // reaps it, and release this worker.
                drop(out);
                self.conn.dead.store(true, Ordering::SeqCst);
                self.conn.waker.wake();
                return Err(SinkError::Gone);
            }
            let (guard, _) = self
                .conn
                .can_write
                .wait_timeout(out, Duration::from_millis(20))
                .unwrap();
            out = guard;
        }
    }

    /// Sends ignoring the high watermark: terminal frames (the final `OK` /
    /// `ERR` / `DONE`) are always delivered to a live connection so every
    /// admitted statement gets exactly one terminal frame.
    pub(crate) fn send_terminal(&self, text: &str) -> Result<(), SinkError> {
        if self.conn.is_dead() || self.shared.force_stopped() {
            return Err(SinkError::Gone);
        }
        self.conn.push_unbounded(text);
        Ok(())
    }
}

/// One admitted statement on the bounded run queue.
pub(crate) struct Task {
    pub(crate) conn: Arc<ConnShared>,
    /// The statement the shard parsed, with its source text and the
    /// canonical text its cache probe printed.
    pub(crate) parsed: Box<Parsed>,
    pub(crate) tier: ShedTier,
    pub(crate) deadline: Option<Instant>,
    /// When the shard queued it (the start of its queue wait).
    enqueued: Instant,
}

/// A VerdictDB server bound to a TCP address but not yet accepting.
pub struct VerdictServer {
    listener: TcpListener,
    ctx: Arc<VerdictContext>,
    cfg: ServingConfig,
}

/// Handle to a running server: address, stats access, drain, and shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl VerdictServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) over a shared
    /// context.  The context's answer cache makes repeated queries cheap;
    /// enable it via [`verdict_core::VerdictConfig::answer_cache_capacity`].
    pub fn bind(addr: &str, ctx: Arc<VerdictContext>) -> std::io::Result<VerdictServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(VerdictServer {
            listener,
            ctx,
            cfg: ServingConfig::default(),
        })
    }

    /// Replaces the serving configuration wholesale.
    pub fn with_config(mut self, cfg: ServingConfig) -> VerdictServer {
        self.cfg = cfg;
        self
    }

    /// Sets the number of I/O shard threads.
    pub fn with_io_shards(mut self, n: usize) -> VerdictServer {
        self.cfg.io_shards = n.max(1);
        self
    }

    /// Sets the number of executor workers.
    pub fn with_workers(mut self, n: usize) -> VerdictServer {
        self.cfg.workers = n.max(1);
        self
    }

    /// Sets the run-queue capacity (the admission-control watermark).
    pub fn with_queue_capacity(mut self, n: usize) -> VerdictServer {
        self.cfg.queue_capacity = n.max(1);
        self
    }

    /// Sets the per-connection outbound high watermark, in bytes.
    pub fn with_write_buffer_bytes(mut self, n: usize) -> VerdictServer {
        self.cfg.write_buffer_bytes = n.max(1024);
        self
    }

    /// Sets how long a backpressured stream waits for a stalled client.
    pub fn with_write_stall_timeout(mut self, d: Duration) -> VerdictServer {
        self.cfg.write_stall_timeout = d;
        self
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's shared state, installed on the context as the `serving`
    /// stats source through a `Weak`: the context never keeps a stopped
    /// server alive.
    fn shared(&self) -> Arc<Shared> {
        let shared = Arc::new(Shared {
            ctx: Arc::clone(&self.ctx),
            stats: ServerStats::default(),
            admission: AdmissionController::new(ShedPolicy::for_capacity(self.cfg.queue_capacity)),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            force: AtomicBool::new(false),
            workers_done: AtomicBool::new(false),
            channels: OnceLock::new(),
            cfg: self.cfg.clone(),
        });
        let weak = Arc::downgrade(&shared);
        self.ctx.set_stats_source(
            "serving",
            Box::new(move || weak.upgrade().map(|s| s.serving_stats())),
        );
        shared
    }

    /// Starts the server on background threads and returns a handle.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let shared = self.shared();
        let listener = self.listener;
        let sup_shared = Arc::clone(&shared);
        let supervisor = std::thread::Builder::new()
            .name("verdict-serve".into())
            .spawn(move || run_server(listener, sup_shared))?;
        Ok(ServerHandle {
            addr,
            shared,
            supervisor: Some(supervisor),
        })
    }

    /// Runs the server on the calling thread until a drain is requested —
    /// either a client sends the `SHUTDOWN` verb or the process is killed.
    /// Returns after the graceful drain completes: accepting stopped,
    /// in-flight statements finished, responses flushed, sockets closed.
    pub fn serve_forever(self) -> std::io::Result<()> {
        let shared = self.shared();
        run_server(self.listener, shared);
        Ok(())
    }
}

impl ServerHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared serving context.
    pub fn context(&self) -> &Arc<VerdictContext> {
        &self.shared.ctx
    }

    /// The aggregate serving counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Admission-control counters (admitted / shed / refused / peak depth).
    pub fn admission_stats(&self) -> verdict_core::AdmissionStats {
        self.shared.admission.stats()
    }

    /// Requests a graceful drain and waits up to `timeout` for it to
    /// complete: stop accepting, refuse new statements, finish in-flight
    /// work, flush responses, close connections.  Returns `true` when the
    /// drain finished within the timeout; on `false` the drop that follows
    /// escalates to a hard stop.
    pub fn drain(self, timeout: Duration) -> bool {
        self.shared.begin_drain();
        let deadline = Instant::now() + timeout;
        let graceful = loop {
            let finished = self.supervisor.as_ref().is_none_or(|t| t.is_finished());
            if finished {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        drop(self); // force-stop (a no-op when already drained) and join
        graceful
    }

    /// Stops the server: drains briefly, then hard-stops.  Dropping the
    /// handle has the same effect; this method just makes the intent
    /// explicit.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.force_stop();
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
    }
}

/// The supervisor: spawns shards and workers, runs the accept loop, then
/// coordinates the drain (shards first, then the workers flush the queue).
fn run_server(listener: TcpListener, shared: Arc<Shared>) {
    let mut channels = Vec::with_capacity(shared.cfg.io_shards);
    let mut shard_threads = Vec::with_capacity(shared.cfg.io_shards);
    let mut plan = Vec::with_capacity(shared.cfg.io_shards);
    for idx in 0..shared.cfg.io_shards {
        let (wake_rx, wake_tx) = match wake_pair() {
            Ok(pair) => pair,
            Err(_) => return, // loopback unavailable: cannot serve
        };
        channels.push(ShardChannel {
            inbox: Mutex::new(Vec::new()),
            waker: Waker::new(wake_tx),
        });
        plan.push((idx, wake_rx));
    }
    if shared.channels.set(channels).is_err() {
        return; // run_server called twice on one Shared (impossible today)
    }
    for (idx, wake_rx) in plan {
        let shard_shared = Arc::clone(&shared);
        let t = std::thread::Builder::new()
            .name(format!("verdict-io-{idx}"))
            .spawn(move || shard_loop(idx, wake_rx, shard_shared));
        match t {
            Ok(t) => shard_threads.push(t),
            Err(_) => {
                shared.force_stop();
                break;
            }
        }
    }
    let mut worker_threads = Vec::with_capacity(shared.cfg.workers);
    for idx in 0..shared.cfg.workers {
        let worker_shared = Arc::clone(&shared);
        if let Ok(t) = std::thread::Builder::new()
            .name(format!("verdict-exec-{idx}"))
            .spawn(move || worker_loop(worker_shared))
        {
            worker_threads.push(t);
        }
    }

    accept_loop(listener, &shared);

    // Accepting has stopped (drain). Let the shards finish their
    // connections, then release the workers once no shard can enqueue.
    for t in shard_threads {
        let _ = t.join();
    }
    shared.workers_done.store(true, Ordering::SeqCst);
    shared.queue_cv.notify_all();
    for t in worker_threads {
        let _ = t.join();
    }
}

/// Accepts connections (nonblocking, poll-gated) and deals them round-robin
/// to the I/O shards until a drain is requested.
fn accept_loop(listener: TcpListener, shared: &Shared) {
    if listener.set_nonblocking(true).is_err() {
        shared.force_stop();
        return;
    }
    let channels = shared.channels.get().expect("channels initialised");
    let handle = verdict_poll::listener_handle(&listener);
    let mut next_shard = 0usize;
    while !shared.draining.load(Ordering::SeqCst) {
        let mut fds = [PollFd::new(handle, POLLIN)];
        let _ = poll(&mut fds, 100);
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    shared.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
                    shared.stats.sessions_active.fetch_add(1, Ordering::Relaxed);
                    let ch = &channels[next_shard % channels.len()];
                    next_shard = next_shard.wrapping_add(1);
                    ch.inbox.lock().unwrap().push(stream);
                    ch.waker.wake();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Transient accept failure (aborted handshake, fd
                    // exhaustion): back off briefly instead of spinning.
                    std::thread::sleep(Duration::from_millis(10));
                    break;
                }
            }
        }
    }
    // Dropping the listener closes the accepting socket immediately.
}

/// One I/O shard: multiplexes its connections with a poll loop, parses
/// request lines, runs admission control, and flushes response bytes.
struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    read_buf: Vec<u8>,
    eof: bool,
}

fn shard_loop(idx: usize, mut wake_rx: TcpStream, shared: Arc<Shared>) {
    let channels = shared.channels.get().expect("channels initialised");
    let my_channel = &channels[idx];
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 1;
    let wake_handle = poll_handle(&wake_rx);
    let mut fds: Vec<PollFd> = Vec::new();
    let mut ids: Vec<u64> = Vec::new();
    loop {
        let force = shared.force_stopped();
        let draining = shared.draining.load(Ordering::SeqCst);

        // Adopt freshly accepted connections.
        for stream in my_channel.inbox.lock().unwrap().drain(..) {
            let session = VerdictSession::new(Arc::clone(&shared.ctx));
            let conn_shared = Arc::new(ConnShared::new(
                session,
                Waker {
                    tx: Arc::clone(&my_channel.waker.tx),
                },
            ));
            conns.insert(
                next_id,
                Conn {
                    stream,
                    shared: conn_shared,
                    read_buf: Vec::new(),
                    eof: false,
                },
            );
            next_id += 1;
        }

        if force {
            // Hard stop: one last flush attempt per connection, then close.
            let ids: Vec<u64> = conns.keys().copied().collect();
            for id in ids {
                if let Some(conn) = conns.get_mut(&id) {
                    let _ = flush_outbound(conn);
                }
                close_conn(&shared, &mut conns, id);
            }
            return;
        }

        // Pump every connection: parse buffered requests when idle, flush
        // pending output, reap finished/dead connections.
        let conn_ids: Vec<u64> = conns.keys().copied().collect();
        for id in conn_ids {
            let mut remove = false;
            if let Some(conn) = conns.get_mut(&id) {
                // What the shard answered itself (PING, a cache hit, a
                // refusal) goes out in this iteration, before the poll.
                let answered = !conn.shared.is_dead() && pump_conn(&shared, conn, draining);
                let write_failed = answered && flush_outbound(conn).is_err();
                let cs = &conn.shared;
                let idle = !cs.busy.load(Ordering::SeqCst);
                let flushed = cs.outbound_len() == 0;
                remove = write_failed
                    || cs.is_dead()
                    || (cs.close_after_flush.load(Ordering::SeqCst) && idle && flushed)
                    || (conn.eof && idle && flushed)
                    || (draining && idle && flushed);
            }
            if remove {
                close_conn(&shared, &mut conns, id);
            }
        }

        if draining && conns.is_empty() && my_channel.inbox.lock().unwrap().is_empty() {
            return;
        }

        // Build the poll set: the wake channel plus every connection, with
        // interests derived from its state. A busy or backpressured
        // connection registers no read interest — that is the bound on
        // per-connection buffering — but errors and hangups surface anyway.
        fds.clear();
        ids.clear();
        fds.push(PollFd::new(wake_handle, POLLIN));
        ids.push(0);
        for (id, conn) in &conns {
            let cs = &conn.shared;
            let mut events = 0i16;
            if !conn.eof
                && !cs.busy.load(Ordering::SeqCst)
                && conn.read_buf.len() < MAX_REQUEST_BYTES + 1
                && cs.outbound_len() <= shared.cfg.write_buffer_bytes
            {
                events |= POLLIN;
            }
            if cs.outbound_len() > 0 {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(poll_handle(&conn.stream), events));
            ids.push(*id);
        }
        let _ = poll(&mut fds, 100);

        if fds[0].readable() {
            let mut buf = [0u8; 256];
            loop {
                match wake_rx.read(&mut buf) {
                    Ok(0) => break, // wake peer gone: shutdown under way
                    Ok(_) => continue,
                    Err(_) => break, // WouldBlock: drained
                }
            }
        }
        for (slot, id) in ids.iter().enumerate().skip(1) {
            let fd = fds[slot];
            if fd.revents == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(id) else {
                continue;
            };
            if fd.failed() {
                close_conn(&shared, &mut conns, *id);
                continue;
            }
            if fd.hangup() && !fd.readable() {
                // Peer reset with nothing left to read.
                close_conn(&shared, &mut conns, *id);
                continue;
            }
            if fd.readable() && !conn.eof && read_into_buf(conn).is_err() {
                close_conn(&shared, &mut conns, *id);
                continue;
            }
            if fd.writable() && flush_outbound(conn).is_err() {
                close_conn(&shared, &mut conns, *id);
            }
        }
    }
}

/// Reads available bytes into the connection's bounded request buffer.
/// EOF (a half-close) is recorded, not fatal: an in-flight statement still
/// gets its response (and a `STREAM` its remaining frames) before close.
fn read_into_buf(conn: &mut Conn) -> std::io::Result<()> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if conn.read_buf.len() > MAX_REQUEST_BYTES {
            return Ok(()); // oversized: the parser answers and closes
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                return Ok(());
            }
            Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Writes pending outbound bytes until the socket would block.  Dropping
/// below half the high watermark wakes any backpressured worker.
fn flush_outbound(conn: &mut Conn) -> std::io::Result<()> {
    let cs = &conn.shared;
    let mut out = cs.out.lock().unwrap();
    let before = out.len();
    while !out.is_empty() {
        let (head, _) = out.as_slices();
        match conn.stream.write(head) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket wrote zero bytes",
                ))
            }
            Ok(n) => {
                out.drain(..n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                drop(out);
                cs.dead.store(true, Ordering::SeqCst);
                cs.can_write.notify_all();
                return Err(e);
            }
        }
    }
    if before > out.len() {
        cs.can_write.notify_all();
    }
    Ok(())
}

/// Parses as many buffered request lines as the connection's state allows:
/// at most one statement in flight, transport verbs, cache hits and
/// refusals answered on the spot, admission control applied to everything
/// else.  Returns whether it answered anything itself.
fn pump_conn(shared: &Shared, conn: &mut Conn, draining: bool) -> bool {
    let mut answered = false;
    loop {
        let cs = &conn.shared;
        if cs.busy.load(Ordering::SeqCst)
            || cs.close_after_flush.load(Ordering::SeqCst)
            || cs.is_dead()
        {
            return answered;
        }
        // An unread outbound backlog pauses parsing too: a client that
        // floods requests without reading responses is bounded by its own
        // buffers, not the server's memory.
        if cs.outbound_len() > shared.cfg.write_buffer_bytes {
            return answered;
        }
        let Some(newline) = conn.read_buf.iter().position(|&b| b == b'\n') else {
            if conn.read_buf.len() >= MAX_REQUEST_BYTES {
                let mut frame = String::new();
                write_error_frame(&mut frame, "request line exceeds the 1 MiB protocol limit");
                shared.count_error();
                cs.append(&frame);
                cs.close_when_flushed();
                conn.read_buf.clear();
                answered = true;
            }
            return answered;
        };
        let line: Vec<u8> = conn.read_buf.drain(..=newline).collect();
        let request = String::from_utf8_lossy(&line[..newline]);
        let request = request.trim_end_matches('\r').trim();
        if request.is_empty() {
            continue;
        }
        answered |= handle_request_line(shared, cs, request, draining);
    }
}

/// Routes one request line: transport verbs, malformed requests and cache
/// hits are answered on the shard; everything else goes through admission
/// control onto the run queue.  Returns whether the shard answered it.
fn handle_request_line(
    shared: &Shared,
    cs: &Arc<ConnShared>,
    request: &str,
    draining: bool,
) -> bool {
    let (verb, rest) = match request.split_once(char::is_whitespace) {
        Some((verb, rest)) => (verb, rest.trim()),
        None => (request, ""),
    };
    let mut frame = String::new();
    match verb.to_ascii_uppercase().as_str() {
        // Transport-level commands are answered on the I/O shard so the
        // server stays observably responsive even with a saturated queue.
        "PING" => write_result_frame(&mut frame, &FrameHeader::default(), None, &[], &[]),
        "QUIT" => {
            write_result_frame(&mut frame, &FrameHeader::default(), None, &[], &[]);
            cs.close_when_flushed();
        }
        "SHUTDOWN" => {
            // Graceful drain: acknowledge, then stop accepting and refuse
            // new statements. In-flight statements finish and flush first.
            write_result_frame(
                &mut frame,
                &FrameHeader::default(),
                None,
                &[],
                &[("response".into(), "draining".into())],
            );
            shared.request_drain();
        }
        _ if draining => {
            shared.count_error();
            write_coded_error_frame(
                &mut frame,
                ErrorCode::Shutdown,
                "server is draining; no new statements are accepted",
            );
        }
        "SQL" => match handle_sql(shared, cs, rest) {
            Some(answer) => frame = answer,
            None => return false,
        },
        other => {
            shared.count_error();
            write_error_frame(&mut frame, &format!("unknown command {other}"));
        }
    }
    cs.append(&frame);
    true
}

/// What the shard's probe made of an `SQL` line.
enum ShardProbe {
    /// A current cached answer.
    Hit(CacheHit),
    /// Parsed but not in the cache: queued with the session's deadline.
    Miss(Parsed, Option<u64>),
    /// The line does not parse.
    Invalid(VerdictError),
}

/// `SQL <statement>` on the shard: answers a cache hit in place — a text
/// answered before without parsing it, a new spelling of a cached
/// statement after parsing it once — and a parse error too, and queues
/// anything else with its parsed statement.  Returns the frame the shard
/// answers with, or `None` once the statement is queued.
fn handle_sql(shared: &Shared, cs: &Arc<ConnShared>, sql: &str) -> Option<String> {
    let mut frame = String::new();
    let Ok(session) = cs.session.lock() else {
        dispatch::poisoned_session_frame(shared, cs, &mut frame);
        return Some(frame);
    };
    let probe = catch_unwind(AssertUnwindSafe(|| {
        // The guard moves in, as on a worker: a panic poisons the session
        // and its connection closes after the ERR frame.
        let session = session;
        if let Some(hit) = session.cached_spelling(sql) {
            return ShardProbe::Hit(hit);
        }
        let mut parsed = match Parsed::new(sql) {
            Ok(parsed) => parsed,
            Err(e) => return ShardProbe::Invalid(e),
        };
        match session.cached_answer(&mut parsed) {
            Some(hit) => ShardProbe::Hit(hit),
            None => ShardProbe::Miss(parsed, session.deadline_ms()),
        }
    }));
    match probe {
        Ok(ShardProbe::Miss(parsed, deadline_ms)) => return admit(shared, cs, parsed, deadline_ms),
        Ok(ShardProbe::Hit(hit)) => {
            shared
                .stats
                .cache_hits_on_shard
                .fetch_add(1, Ordering::Relaxed);
            dispatch::write_hit_frame(&hit, &mut frame);
        }
        Ok(ShardProbe::Invalid(e)) => {
            shared.count_error();
            write_error_frame(&mut frame, &e.to_string());
        }
        Err(payload) => dispatch::panic_frame(shared, cs, payload.as_ref(), &mut frame),
    }
    shared.stats.queries_served.fetch_add(1, Ordering::Relaxed);
    Some(frame)
}

/// Admission control, then the run queue.  Returns the typed `BUSY` frame
/// when the queue is at capacity, `None` once the request is queued.
fn admit(
    shared: &Shared,
    cs: &Arc<ConnShared>,
    parsed: Parsed,
    deadline_ms: Option<u64>,
) -> Option<String> {
    let Admission::Admit(tier) = shared.admission.try_admit() else {
        let mut frame = String::new();
        write_coded_error_frame(
            &mut frame,
            ErrorCode::Busy,
            &format!(
                "run queue at capacity ({}); retry with backoff",
                shared.cfg.queue_capacity
            ),
        );
        shared.count_error();
        return Some(frame);
    };
    let enqueued = Instant::now();
    cs.busy.store(true, Ordering::SeqCst);
    let task = Task {
        conn: Arc::clone(cs),
        parsed: Box::new(parsed),
        tier,
        deadline: deadline_ms.map(|ms| enqueued + Duration::from_millis(ms)),
        enqueued,
    };
    let mut queue = shared.queue.lock().unwrap();
    let ahead = queue.len() as u64;
    queue.push_back(task);
    drop(queue);
    let peak = &shared.stats.queue_peak_depth;
    peak.fetch_max(ahead, Ordering::Relaxed);
    shared.queue_cv.notify_one();
    None
}

fn close_conn(shared: &Shared, conns: &mut HashMap<u64, Conn>, id: u64) {
    if let Some(conn) = conns.remove(&id) {
        conn.shared.dead.store(true, Ordering::SeqCst);
        conn.shared.can_write.notify_all();
        shared.stats.sessions_active.fetch_sub(1, Ordering::Relaxed);
        // The TcpStream closes on drop; a queued task for this connection
        // is reaped by the worker (it checks `dead` before executing).
    }
}

/// Releases an admitted statement's resources exactly once — its admission
/// slot, then the connection's busy flag — also on an unwind, so the run
/// queue can never leak capacity.
struct TaskGuard<'a> {
    shared: &'a Shared,
    conn: &'a ConnShared,
}

impl Drop for TaskGuard<'_> {
    fn drop(&mut self) {
        self.shared.admission.release();
        self.conn.busy.store(false, Ordering::SeqCst);
        self.conn.waker.wake();
    }
}

/// One executor worker: drains the bounded run queue, executing statements
/// over the connection's session and writing response frames through the
/// connection's sink.
fn worker_loop(shared: Arc<Shared>) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                if shared.workers_done.load(Ordering::SeqCst) || shared.force_stopped() {
                    return;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap();
                queue = guard;
            }
        };
        let taken = Instant::now();
        shared.stats.queue_wait_us.record(taken - task.enqueued);
        let _guard = TaskGuard {
            shared: &shared,
            conn: &task.conn,
        };
        if !task.conn.is_dead() && !shared.force_stopped() {
            dispatch::run_task(&shared, &task);
            shared.stats.exec_us.record(taken.elapsed());
        }
    }
}
