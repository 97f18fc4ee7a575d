//! The daemon: acceptor, connection handling, admission control,
//! backpressure, and graceful drain.
//!
//! Threading model (three tiers, deliberately separated so no tier can
//! starve another):
//!
//! * the **acceptor thread** blocks in `accept()` and spawns one
//!   connection thread per client. The caller's thread only watches for
//!   drain (the interrupt flag or the `drain` op) on a 20 ms tick, which
//!   is off the request path, and stops the acceptor with a loopback
//!   connect;
//! * **connection threads** (one per client, capped) do all socket I/O
//!   under read/write timeouts and a bounded line length, and hand each
//!   admitted job straight to the pool — a slow or malicious client burns
//!   its own thread for at most the idle timeout, never a pool worker;
//! * **pool workers** ([`apex_par::WorkerPool`]) run the DSE jobs and
//!   never touch a socket.
//!
//! Every socket has `TCP_NODELAY` set and every line goes out in one
//! write ([`proto::write_line`]), so no response waits on a delayed ACK.
//!
//! Backpressure: admission is bounded by `queue_limit` over the job
//! table's queued count. Past the limit the daemon sheds with a
//! structured `overloaded` response carrying a `retry_after_ms` hint —
//! it never queues unboundedly. Drain (SIGINT/SIGTERM or the `drain`
//! op): stop admitting, abandon queued pool jobs (their admissions are
//! journaled; `--resume` re-runs them), cancel running jobs
//! cooperatively via the shared stop flag, flush, report unfinished
//! count for the exit code.

use crate::proto::{self, Request};
use crate::runner::{JobRunner, JobSpec};
use crate::state::{Admission, JobState, JobTable, PendingJob};
use apex_core::{SweepJournal, VariantCache};
use apex_fault::{ApexError, Provenance, Stage};
use apex_par::WorkerPool;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often the caller's thread looks for a drain request, and how long
/// the acceptor backs off after an accept error.
const TICK: Duration = Duration::from_millis(20);

/// Tuning knobs for one daemon instance. `Default` is sized for tests
/// and small deployments; the CLI exposes the ones operators need.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7341` (`:0` = ephemeral).
    pub addr: String,
    /// Pool workers; `0` = [`apex_par::default_jobs`].
    pub workers: usize,
    /// Admission bound: submissions beyond this many queued jobs are
    /// shed with `overloaded`.
    pub queue_limit: usize,
    /// Concurrent connection cap; excess connections are turned away
    /// with `overloaded` before a request is read.
    pub max_conns: usize,
    /// Per-connection read/write timeout; an idle or trickling client
    /// is disconnected after this long without a complete line.
    pub idle_timeout: Duration,
    /// Request line byte bound (DFG text dominates); longer lines get
    /// `line_too_long` and a disconnect.
    pub line_limit: usize,
    /// Deadline applied to jobs that do not request one.
    pub default_deadline: Duration,
    /// The `retry_after_ms` hint shed submissions carry.
    pub retry_after: Duration,
    /// Replay the journal and re-run unfinished jobs on startup.
    pub resume: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7341".to_owned(),
            workers: 0,
            queue_limit: 32,
            max_conns: 64,
            idle_timeout: Duration::from_secs(10),
            line_limit: proto::MAX_LINE_BYTES,
            default_deadline: Duration::from_secs(300),
            retry_after: Duration::from_millis(500),
            resume: false,
        }
    }
}

/// The daemon's default journal (one well-known identity per workspace,
/// so a restarted `apex serve --resume` finds its predecessor's state).
pub fn default_journal() -> SweepJournal {
    SweepJournal::for_sweep(apex_core::fnv1a(&["apex-serve v1"]))
}

/// Counters shared across the daemon's threads, surfaced by `stats`.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
    bad_lines: AtomicU64,
    refused_conns: AtomicU64,
}

/// State shared by the acceptor, connection threads, and job closures.
struct Shared {
    table: JobTable,
    /// Runs admitted jobs; connection threads submit to it directly.
    pool: WorkerPool,
    runner: Box<dyn JobRunner>,
    /// Set on drain: admissions are refused, running jobs see cancel.
    stop: Arc<AtomicBool>,
    /// Set by the `drain` op (the signal path sets the interrupt flag).
    drain_requested: AtomicBool,
    conns: AtomicUsize,
    counters: Counters,
    config: ServeConfig,
}

/// What a finished [`Server::run`] reports; the CLI maps `unfinished >
/// 0` to exit code 3 (resumable), mirroring the sweep convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Jobs concluded (done or failed) over the daemon's lifetime.
    pub concluded: u64,
    /// Jobs still pending at drain (journaled; re-run by `--resume`).
    pub unfinished: usize,
    /// Submissions shed by backpressure.
    pub shed: u64,
    /// Connections dropped by the idle/read timeout.
    pub timeouts: u64,
}

/// One `apex serve` instance, generic over the job runner so tests can
/// inject fast fakes.
pub struct Server<R: JobRunner> {
    listener: TcpListener,
    table: JobTable,
    pending: Vec<PendingJob>,
    config: ServeConfig,
    runner: R,
}

impl<R: JobRunner> Server<R> {
    /// Binds the listener and replays the journal (under
    /// `config.resume`). No connection is accepted until [`Server::run`].
    ///
    /// # Errors
    /// Address bind failures.
    pub fn bind(config: ServeConfig, journal: SweepJournal, runner: R) -> Result<Self, ApexError> {
        let listener = TcpListener::bind(&config.addr).map_err(|e| {
            ApexError::with_source(Stage::Cli, e)
        })?;
        let (table, pending) = JobTable::new(journal, config.resume);
        Ok(Server {
            listener,
            table,
            pending,
            config,
            runner,
        })
    }

    /// The bound address (`:0` binds resolve to a real port here).
    ///
    /// # Errors
    /// The OS refusing to report the local address.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, ApexError> {
        self.listener
            .local_addr()
            .map_err(|e| ApexError::with_source(Stage::Cli, e))
    }

    /// Runs the daemon until drain (SIGINT/SIGTERM via
    /// `apex_fault::interrupt`, or a client `drain` op), then shuts the
    /// pool down and reports. Blocks the calling thread.
    pub fn run(self) -> RunSummary {
        let Server {
            listener,
            table,
            pending,
            config,
            runner,
        } = self;
        let workers = if config.workers == 0 {
            apex_par::default_jobs()
        } else {
            config.workers
        };
        let addr = listener.local_addr().ok();
        log_line(
            "INFO",
            &format!(
                "listening on {} ({} workers, queue limit {})",
                addr.map(|a| a.to_string())
                    .unwrap_or_else(|| config.addr.clone()),
                workers,
                config.queue_limit
            ),
        );
        let shared = Arc::new(Shared {
            table,
            pool: WorkerPool::new(workers),
            runner: Box::new(runner),
            stop: Arc::new(AtomicBool::new(false)),
            drain_requested: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            counters: Counters::default(),
            config,
        });
        if !pending.is_empty() {
            log_line(
                "INFO",
                &format!("resuming {} unfinished job(s) from the journal", pending.len()),
            );
            for job in pending {
                dispatch(&shared, job);
            }
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("apex-accept".to_owned())
                .spawn(move || accept_loop(&shared, &listener))
        };
        match &acceptor {
            Ok(_) => {
                while !(apex_fault::interrupt::interrupted()
                    || shared.drain_requested.load(Ordering::Relaxed))
                {
                    std::thread::sleep(TICK);
                }
            }
            Err(e) => log_line("WARN", &format!("cannot spawn the acceptor thread: {e}")),
        }
        drain(&shared, addr, acceptor.ok())
    }
}

/// Accepts connections until drain sets the stop flag (drain then
/// connects once to wake the blocking `accept`).
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, peer)) => {
                #[cfg(feature = "fault-injection")]
                if apex_fault::failpoints::should_fire("serve::accept_error") {
                    // injected transient accept failure: the daemon
                    // must drop the connection and keep serving
                    log_line("WARN", &format!("accept error (injected), dropped {peer}"));
                    drop(stream);
                    continue;
                }
                spawn_conn(shared, stream, peer);
            }
            Err(e) => {
                // transient accept errors (EMFILE, aborted handshake)
                // must not kill the daemon, nor spin it
                log_line("WARN", &format!("accept error: {e}"));
                std::thread::sleep(TICK);
            }
        }
    }
}

/// Wakes the acceptor out of its blocking `accept` with a loopback
/// connect and joins it. If the connect fails the acceptor is left
/// blocked (it exits with the process) rather than hanging the drain.
fn stop_acceptor(addr: Option<SocketAddr>, acceptor: std::thread::JoinHandle<()>) {
    let woken = addr.is_some_and(|mut a| {
        if a.ip().is_unspecified() {
            let loopback: std::net::IpAddr = if a.is_ipv4() {
                std::net::Ipv4Addr::LOCALHOST.into()
            } else {
                std::net::Ipv6Addr::LOCALHOST.into()
            };
            a.set_ip(loopback);
        }
        TcpStream::connect_timeout(&a, Duration::from_secs(1)).is_ok()
    });
    if woken {
        let _ = acceptor.join();
    } else {
        log_line("WARN", "cannot wake the acceptor; leaving it blocked");
    }
}

/// Spawns one connection thread (or turns the client away when the
/// connection cap is reached).
fn spawn_conn(shared: &Arc<Shared>, mut stream: TcpStream, peer: SocketAddr) {
    let _ = stream.set_nodelay(true);
    if shared.conns.load(Ordering::Relaxed) >= shared.config.max_conns {
        shared.counters.refused_conns.fetch_add(1, Ordering::Relaxed);
        let line = proto::err_response(
            "overloaded",
            &[(
                "retry_after_ms",
                shared.config.retry_after.as_millis().to_string(),
            )],
        );
        let _ = stream.set_write_timeout(Some(shared.config.idle_timeout));
        let _ = proto::write_line(&mut stream, &line);
        return;
    }
    shared.conns.fetch_add(1, Ordering::Relaxed);
    let conn = Arc::clone(shared);
    let builder = std::thread::Builder::new().name(format!("apex-conn-{peer}"));
    let spawned = builder.spawn(move || {
        handle_conn(&conn, stream);
        conn.conns.fetch_sub(1, Ordering::Relaxed);
    });
    if spawned.is_err() {
        // thread spawn failure: release the slot and move on
        shared.conns.fetch_sub(1, Ordering::Relaxed);
        log_line("WARN", &format!("cannot spawn connection thread for {peer}"));
    }
}

/// Graceful drain: refuse admissions, stop the acceptor, abandon queued
/// pool jobs (journaled — resume re-runs them), cancel running jobs
/// cooperatively, then account what is left.
fn drain(
    shared: &Shared,
    addr: Option<SocketAddr>,
    acceptor: Option<std::thread::JoinHandle<()>>,
) -> RunSummary {
    log_line("INFO", "draining: admissions closed");
    shared.stop.store(true, Ordering::SeqCst);
    if let Some(acceptor) = acceptor {
        stop_acceptor(addr, acceptor);
    }
    // running jobs see the stop flag; queued ones stay Queued for resume
    shared.pool.shutdown(false);
    let (_, _, done, failed, cancelled) = shared.table.counts();
    let unfinished = shared.table.unfinished();
    let summary = RunSummary {
        concluded: (done + failed) as u64,
        unfinished,
        shed: shared.counters.shed.load(Ordering::Relaxed),
        timeouts: shared.counters.timeouts.load(Ordering::Relaxed),
    };
    let cache = VariantCache::shared();
    log_line(
        "INFO",
        &format!(
            "drained: {} concluded, {} unfinished ({} cancelled mid-flight), {} shed; \
             cache: {} hit(s), {} miss(es)",
            summary.concluded,
            summary.unfinished,
            cancelled,
            summary.shed,
            cache.hits(),
            cache.misses()
        ),
    );
    if unfinished > 0 {
        log_line("INFO", "restart with --resume to finish the remaining jobs");
    }
    summary
}

/// Hands an admitted job to the pool. A job that races drain is refused
/// by the shut-down pool and stays queued in the journal, so `--resume`
/// re-runs it.
fn dispatch(shared: &Arc<Shared>, job: PendingJob) {
    let job_shared = Arc::clone(shared);
    if !shared.pool.submit(move || run_job(&job_shared, &job)) {
        log_line("INFO", "pool closed by drain; the job stays queued for --resume");
    }
}

/// Runs one job on a pool worker.
fn run_job(shared: &Shared, job: &PendingJob) {
    if shared.stop.load(Ordering::Relaxed) {
        // drain raced the dispatch: leave the job Queued for resume
        return;
    }
    #[cfg(feature = "fault-injection")]
    if apex_fault::failpoints::should_fire("serve::mid_job_kill") {
        // injected daemon kill: the first job to start flips the
        // interrupt flag, as if SIGTERM arrived mid-flight (disarmed so
        // the drain itself runs normally)
        apex_fault::failpoints::disarm("serve::mid_job_kill");
        apex_fault::interrupt::trigger();
    }
    shared.table.mark_running(job.key);
    let deadline = job
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(shared.config.default_deadline);
    let spec = JobSpec {
        tenant: job.tenant.clone(),
        graph: job.graph.clone(),
        deadline,
        cancel: Arc::clone(&shared.stop),
    };
    match shared.runner.run(&spec) {
        Ok(report) if report.provenance == Provenance::Cancelled => {
            // interrupted by drain: not journaled, resume re-runs it
            shared.table.cancel(job.key);
        }
        Ok(report) => shared.table.complete(job.key, &report),
        Err(e) => {
            log_line("WARN", &format!("job {:016x} failed: {}", job.key, e.render_chain()));
            shared.table.fail(job.key, &e);
        }
    }
}

/// Reads newline-terminated lines from a socket under a byte bound and
/// a per-line wall-clock deadline. The socket read timeout alone cannot
/// defeat a trickling client — one byte per interval keeps every
/// individual `read` fast while the line never completes — so each
/// `next_line` call also carries a deadline for the *whole* line.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    limit: usize,
    idle: Duration,
}

/// Why a connection read ended.
enum ReadOutcome {
    Line(String),
    Eof,
    TooLong,
    IdleTimeout,
    Error,
}

impl LineReader {
    fn next_line(&mut self) -> ReadOutcome {
        let deadline = std::time::Instant::now() + self.idle;
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                let text = String::from_utf8_lossy(&line[..pos]).into_owned();
                return ReadOutcome::Line(text);
            }
            if self.buf.len() > self.limit {
                return ReadOutcome::TooLong;
            }
            // checked before the read so a trickling client is cut off at
            // most one socket-timeout past the line deadline
            if std::time::Instant::now() >= deadline {
                return ReadOutcome::IdleTimeout;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Eof,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return ReadOutcome::IdleTimeout;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return ReadOutcome::Error,
            }
        }
    }
}

/// Serves one connection until EOF, timeout, oversized line, or drain.
fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let idle = shared.config.idle_timeout;
    if stream.set_read_timeout(Some(idle)).is_err() || stream.set_write_timeout(Some(idle)).is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = LineReader {
        stream,
        buf: Vec::new(),
        limit: shared.config.line_limit,
        idle,
    };
    loop {
        match reader.next_line() {
            ReadOutcome::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let response = handle_request(shared, &line);
                if proto::write_line(&mut writer, &response).is_err() {
                    return;
                }
            }
            ReadOutcome::Eof | ReadOutcome::Error => return,
            ReadOutcome::TooLong => {
                shared.counters.bad_lines.fetch_add(1, Ordering::Relaxed);
                let _ = proto::write_line(
                    &mut writer,
                    &proto::err_response(
                        "line_too_long",
                        &[("limit", shared.config.line_limit.to_string())],
                    ),
                );
                return;
            }
            ReadOutcome::IdleTimeout => {
                shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                log_line("WARN", "idle connection disconnected");
                let _ = proto::write_line(&mut writer, &proto::err_response("idle_timeout", &[]));
                return;
            }
        }
    }
}

/// Dispatches one parsed request to a response line.
fn handle_request(shared: &Arc<Shared>, line: &str) -> String {
    let request = match proto::parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            shared.counters.bad_lines.fetch_add(1, Ordering::Relaxed);
            return proto::err_response("bad_request", &[("detail", e.detail())]);
        }
    };
    match request {
        Request::Ping => proto::ok_response(
            "pong",
            &[
                ("queued", shared.table.queued().to_string()),
                ("running", shared.table.running().to_string()),
                (
                    "draining",
                    draining(shared).to_string(),
                ),
            ],
        ),
        Request::Submit {
            tenant,
            graph,
            deadline_ms,
        } => handle_submit(shared, &tenant, &graph, deadline_ms),
        Request::Status { job } => match shared.table.state(job) {
            None => proto::err_response("unknown_job", &[("job", format!("{job:016x}"))]),
            Some(state) => {
                let mut extra = vec![
                    ("job", format!("{job:016x}")),
                    ("state", state.name().to_owned()),
                ];
                if let JobState::Done { provenance, .. } = &state {
                    extra.push(("provenance", provenance.marker().to_owned()));
                }
                proto::ok_response("status", &extra)
            }
        },
        Request::Result { job } => match shared.table.state(job) {
            None => proto::err_response("unknown_job", &[("job", format!("{job:016x}"))]),
            Some(JobState::Done {
                payload,
                provenance,
                degradations,
            }) => proto::ok_response(
                "result",
                &[
                    ("job", format!("{job:016x}")),
                    ("payload", payload),
                    ("provenance", provenance.marker().to_owned()),
                    ("degradations", degradations),
                ],
            ),
            Some(JobState::Failed { error }) => proto::err_response(
                "job_failed",
                &[("job", format!("{job:016x}")), ("detail", error)],
            ),
            Some(state) => proto::err_response(
                "not_done",
                &[
                    ("job", format!("{job:016x}")),
                    ("state", state.name().to_owned()),
                ],
            ),
        },
        Request::Stats => {
            let (queued, running, done, failed, cancelled) = shared.table.counts();
            let cache = VariantCache::shared();
            proto::ok_response(
                "stats",
                &[
                    ("queued", queued.to_string()),
                    ("running", running.to_string()),
                    ("done", done.to_string()),
                    ("failed", failed.to_string()),
                    ("cancelled", cancelled.to_string()),
                    (
                        "accepted",
                        shared.counters.accepted.load(Ordering::Relaxed).to_string(),
                    ),
                    ("shed", shared.counters.shed.load(Ordering::Relaxed).to_string()),
                    (
                        "timeouts",
                        shared.counters.timeouts.load(Ordering::Relaxed).to_string(),
                    ),
                    (
                        "bad_lines",
                        shared.counters.bad_lines.load(Ordering::Relaxed).to_string(),
                    ),
                    ("conns", shared.conns.load(Ordering::Relaxed).to_string()),
                    ("cache_hits", cache.hits().to_string()),
                    ("cache_misses", cache.misses().to_string()),
                    ("cache_evicted", cache.evicted().to_string()),
                ],
            )
        }
        Request::Drain => {
            shared.drain_requested.store(true, Ordering::SeqCst);
            proto::ok_response("draining", &[])
        }
    }
}

fn draining(shared: &Shared) -> bool {
    shared.stop.load(Ordering::Relaxed)
        || shared.drain_requested.load(Ordering::Relaxed)
        || apex_fault::interrupt::interrupted()
}

/// Admission control: drain and backpressure checks, then write-ahead
/// journal + table insert + hand-off to the pool.
fn handle_submit(
    shared: &Arc<Shared>,
    tenant: &str,
    graph: &str,
    deadline_ms: Option<u64>,
) -> String {
    if draining(shared) {
        return proto::err_response("draining", &[]);
    }
    let queued = shared.table.queued();
    if queued >= shared.config.queue_limit {
        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        return proto::err_response(
            "overloaded",
            &[
                (
                    "retry_after_ms",
                    shared.config.retry_after.as_millis().to_string(),
                ),
                ("queued", queued.to_string()),
            ],
        );
    }
    match shared.table.admit(tenant, graph, deadline_ms) {
        Err(e) => {
            // the admission journal is the durability guarantee; refusing
            // is safer than accepting work a crash would silently drop
            log_line("WARN", &format!("admission journal write failed: {}", e.render_chain()));
            proto::err_response("journal_error", &[("detail", e.message().to_owned())])
        }
        Ok((key, admission)) => {
            if admission == Admission::New {
                shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                let job = PendingJob {
                    key,
                    tenant: tenant.to_owned(),
                    graph: graph.to_owned(),
                    deadline_ms,
                };
                dispatch(shared, job);
            }
            let state = shared
                .table
                .state(key)
                .map(|s| s.name().to_owned())
                .unwrap_or_else(|| "queued".to_owned());
            proto::ok_response(
                "accepted",
                &[("job", format!("{key:016x}")), ("state", state)],
            )
        }
    }
}

/// One structured stderr log line; CI greps for `ERROR` to assert a
/// clean run, so levels are part of the contract (INFO/WARN/ERROR).
fn log_line(level: &str, message: &str) {
    eprintln!("serve [{level}] {message}");
}
