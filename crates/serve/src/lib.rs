//! # prebond3d-serve
//!
//! WCM-as-a-service: a std-only daemon that accepts wrapper-cell
//! minimization jobs over a newline-delimited JSON protocol (TCP or unix
//! socket), runs them with per-job panic isolation and exit codes on a
//! persistent executor pool, and keeps substrates + `AtpgProbe` memo
//! tables **warm across requests** behind a byte-budgeted LRU
//! ([`cache::WarmCache`]). See DESIGN.md §13 for the protocol grammar,
//! cache keying/eviction and the job lifecycle.
//!
//! ```no_run
//! let server = prebond3d_serve::Server::start(prebond3d_serve::ServerConfig::default())
//!     .expect("bind");
//! println!("listening on {}", server.addr().unwrap());
//! server.join();
//! ```
//!
//! One connection runs one job at a time (frames of a job are never
//! interleaved with another job's on the same socket); concurrency comes
//! from concurrent connections, bounded by the executor worker count.

pub mod cache;
pub mod jobs;
pub mod journal;
pub mod proto;

use std::collections::{HashSet, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use prebond3d_obs as obs;
use prebond3d_obs::json::Value;

use cache::WarmCache;
use journal::{DoneIndex, DoneRecord, Journal};
use proto::{JobSpec, Request, MAX_LINE};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bind {
    /// TCP on an address like `127.0.0.1:0` (port 0 = ephemeral).
    Tcp(String),
    /// A unix-domain socket path.
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub bind: Bind,
    /// Executor workers (concurrent jobs). Defaults to the pool's thread
    /// resolution, floored at 2 so one slow job cannot starve the queue.
    pub workers: usize,
    /// Warm-cache byte budget (default [`cache::DEFAULT_BUDGET_BYTES`]).
    pub cache_bytes: usize,
    /// Write-ahead job journal path (DESIGN.md §15). `None` disables
    /// durability: no recovery, no exactly-once dedup.
    pub journal: Option<PathBuf>,
    /// Admission cap on *queued* (not running) jobs; a submit arriving at
    /// a full queue is shed with a `retry_after` frame. Default 256.
    pub max_queue: usize,
    /// Byte budget for queued job payloads (inline netlists dominate). A
    /// single job is always admitted into an empty queue regardless.
    /// Default 32 MiB.
    pub queue_bytes: usize,
    /// Per-connection write timeout. A client that stops reading for this
    /// long has its frames dropped (the job still runs to completion and
    /// is journaled) instead of pinning the connection thread forever.
    /// Default 10 s; `0` disables.
    pub write_timeout_ms: u64,
    /// Start with the queue held: submits are accepted (and journaled)
    /// but no worker dequeues until a `resume` op or [`Server::resume`].
    /// The ops lever for maintenance holds — and what makes crash drills
    /// deterministic: pause, submit, kill, restart, count the replays.
    pub paused: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            workers: prebond3d_pool::threads().max(2),
            cache_bytes: cache::DEFAULT_BUDGET_BYTES,
            journal: None,
            max_queue: 256,
            queue_bytes: 32 << 20,
            write_timeout_ms: 10_000,
            paused: false,
        }
    }
}

/// Monotonic job accounting, exported by the `stats` op.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Jobs accepted off the wire.
    pub submitted: AtomicU64,
    /// Jobs that reached a `done` frame with code 0.
    pub done_ok: AtomicU64,
    /// Jobs that reached a `done` frame with a non-zero code.
    pub done_failed: AtomicU64,
    /// Protocol errors answered (malformed frames, oversized lines).
    pub protocol_errors: AtomicU64,
    /// Submits shed by admission backpressure (answered `retry_after`,
    /// never journaled, never run — not counted in `submitted`).
    pub shed: AtomicU64,
    /// Unfinished journal entries replayed at startup.
    pub recovered: AtomicU64,
    /// Submits answered from the journal's done index without re-running.
    pub deduped: AtomicU64,
    /// Connections whose frames were dropped after a write timeout.
    pub slow_drops: AtomicU64,
}

struct QueuedJob {
    spec: JobSpec,
    /// The spec's netlist source, resolved once at admission.
    source: Result<jobs::Source, String>,
    /// Idempotency key, when the spec was content-addressable.
    key: Option<u64>,
    /// Payload estimate charged against the queue byte budget.
    bytes: u64,
    events: mpsc::Sender<Value>,
}

/// Payload estimate for the queue byte budget: the dominant term is an
/// inline netlist's text; everything else is a small fixed overhead.
fn job_bytes(spec: &JobSpec) -> u64 {
    let payload = match &spec.source {
        proto::JobSource::Inline { text } => text.len(),
        proto::JobSource::Generated { .. } => 0,
    };
    (payload + 512) as u64
}

/// How to poke the blocking accept loop awake after shutdown.
#[derive(Debug, Clone)]
enum WakeAddr {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

struct Shared {
    running: AtomicBool,
    /// A paused server accepts and journals submits but holds the queue
    /// until `resume` clears this (see [`ServerConfig::paused`]).
    paused: AtomicBool,
    /// An aborted server stops dequeuing even though jobs are queued —
    /// the in-process analogue of a SIGKILL for recovery tests: queued
    /// jobs stay journaled as accepted and replay on the next start.
    aborting: AtomicBool,
    queue: Mutex<VecDeque<QueuedJob>>,
    cond: Condvar,
    cache: WarmCache,
    stats: ServerStats,
    wake: Mutex<Option<WakeAddr>>,
    journal: Option<Journal>,
    /// The last [`journal::DONE_WINDOW`] terminal records by idempotency
    /// key (journal mode only): identical retries replay from here
    /// instead of running twice.
    done_index: Mutex<DoneIndex>,
    /// Keys accepted but not yet done (journal mode only).
    inflight: Mutex<HashSet<u64>>,
    /// Queued-but-not-dequeued jobs (admission depth; running jobs are
    /// the workers' concern, not the queue's).
    pending: AtomicU64,
    /// Payload bytes reserved by queued jobs.
    queued_bytes: AtomicU64,
    max_queue: usize,
    queue_bytes: u64,
    write_timeout_ms: u64,
    /// Corrupt journal lines skipped at the last recovery.
    journal_corrupt_lines: u64,
}

/// How long a shed client should back off, by queue depth at the shed.
fn retry_after_ms(depth: u64) -> u64 {
    (25 * (depth + 1)).min(2_000)
}

impl Shared {
    /// Admission control: reserve a queue slot and payload bytes, or shed.
    ///
    /// # Errors
    ///
    /// The queue is over its depth cap or byte budget; the value is the
    /// `retry_after_ms` to answer with. A single job is always admitted
    /// into an *empty* queue, so one oversized-but-legal payload cannot
    /// starve forever.
    fn admit(&self, bytes: u64) -> Result<(), u64> {
        let depth = self.pending.fetch_add(1, Ordering::SeqCst);
        let queued = self.queued_bytes.fetch_add(bytes, Ordering::SeqCst);
        let over_depth = depth >= self.max_queue as u64;
        let over_bytes = depth > 0 && queued + bytes > self.queue_bytes;
        if over_depth || over_bytes {
            self.pending.fetch_sub(1, Ordering::SeqCst);
            self.queued_bytes.fetch_sub(bytes, Ordering::SeqCst);
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            obs::count("serve.shed", 1);
            return Err(retry_after_ms(depth));
        }
        obs::hist("serve.queue_depth", depth + 1);
        Ok(())
    }

    /// Enqueue an already-admitted job (its slot and bytes are reserved).
    fn enqueue(&self, job: QueuedJob) {
        self.queue.lock().unwrap().push_back(job);
        self.cond.notify_one();
    }

    /// Pop the next job; blocks until one arrives or shutdown drains the
    /// queue empty. An abort stops dequeuing immediately, leaving the
    /// queue's jobs journaled for the next start.
    fn dequeue(&self) -> Option<QueuedJob> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if self.aborting.load(Ordering::SeqCst) {
                return None;
            }
            if !self.paused.load(Ordering::SeqCst) {
                if let Some(job) = q.pop_front() {
                    self.pending.fetch_sub(1, Ordering::SeqCst);
                    self.queued_bytes.fetch_sub(job.bytes, Ordering::SeqCst);
                    return Some(job);
                }
            }
            if !self.running.load(Ordering::SeqCst) {
                return None;
            }
            q = self.cond.wait(q).unwrap();
        }
    }

    /// Release a paused queue; a no-op when already draining.
    fn resume(&self) {
        self.paused.store(false, Ordering::SeqCst);
        let _guard = self.queue.lock().unwrap();
        self.cond.notify_all();
    }

    /// A finished job's terminal record: journal it and index it for
    /// exactly-once replay. No-op without a journal.
    fn finish(&self, key: Option<u64>, record: DoneRecord) {
        let (Some(journal), Some(key)) = (&self.journal, key) else {
            return;
        };
        journal.done(key, &record);
        self.done_index.lock().unwrap().insert(key, &record);
        self.inflight.lock().unwrap().remove(&key);
    }

    fn stats_frame(&self) -> Value {
        let c = self.cache.stats();
        Value::obj([
            ("ok", true.into()),
            ("ev", "stats".into()),
            (
                "jobs",
                Value::obj([
                    (
                        "submitted",
                        self.stats.submitted.load(Ordering::Relaxed).into(),
                    ),
                    ("done", self.stats.done_ok.load(Ordering::Relaxed).into()),
                    (
                        "failed",
                        self.stats.done_failed.load(Ordering::Relaxed).into(),
                    ),
                    (
                        "protocol_errors",
                        self.stats.protocol_errors.load(Ordering::Relaxed).into(),
                    ),
                ]),
            ),
            (
                "cache",
                Value::obj([
                    ("hits", c.hits.into()),
                    ("misses", c.misses.into()),
                    ("evictions", c.evictions.into()),
                    ("entries", c.entries.into()),
                    ("bytes", (c.bytes as u64).into()),
                    ("budget", (c.budget as u64).into()),
                ]),
            ),
            (
                "queue",
                Value::obj([
                    ("depth", self.pending.load(Ordering::SeqCst).into()),
                    ("bytes", self.queued_bytes.load(Ordering::SeqCst).into()),
                    ("paused", self.paused.load(Ordering::SeqCst).into()),
                    ("max_depth", self.max_queue.into()),
                    ("byte_budget", self.queue_bytes.into()),
                    ("shed", self.stats.shed.load(Ordering::Relaxed).into()),
                    (
                        "slow_drops",
                        self.stats.slow_drops.load(Ordering::Relaxed).into(),
                    ),
                ]),
            ),
            (
                "journal",
                Value::obj([
                    ("armed", self.journal.is_some().into()),
                    (
                        "pending",
                        (self.inflight.lock().unwrap().len() as u64).into(),
                    ),
                    (
                        "done",
                        (self.done_index.lock().unwrap().len() as u64).into(),
                    ),
                    (
                        "recovered",
                        self.stats.recovered.load(Ordering::Relaxed).into(),
                    ),
                    ("deduped", self.stats.deduped.load(Ordering::Relaxed).into()),
                    ("corrupt_lines", self.journal_corrupt_lines.into()),
                ]),
            ),
            (
                "mem",
                Value::obj([
                    (
                        "rss_now_kb",
                        prebond3d_obs::mem::rss_now_kb().unwrap_or(0).into(),
                    ),
                    (
                        "rss_peak_kb",
                        prebond3d_obs::mem::rss_peak_kb().unwrap_or(0).into(),
                    ),
                ]),
            ),
        ])
    }

    /// The `status` response for one idempotency key (wire form).
    fn status_frame(&self, key_text: &str) -> Value {
        let Some(key) = journal::parse_key(key_text) else {
            return proto::error(None, &format!("bad status key `{key_text}`"));
        };
        let mut fields = vec![
            ("ok", true.into()),
            ("ev", "status".into()),
            ("key", key_text.into()),
        ];
        let record = self.done_index.lock().unwrap().get(key);
        if let Some(record) = record {
            fields.push(("state", "done".into()));
            fields.push(("code", Value::Num(record.code as f64)));
            if let Some(r) = record.report {
                fields.push(("report", r));
            }
            if let Some(e) = record.error {
                fields.push(("error", e.into()));
            }
        } else if self.inflight.lock().unwrap().contains(&key) {
            fields.push(("state", "pending".into()));
        } else {
            fields.push(("state", "unknown".into()));
        }
        Value::obj(fields)
    }
}

/// A `done` frame replayed from the journal for a deduplicated retry.
/// The `report` sub-object is byte-identical to the original run's; the
/// telemetry fields reflect that nothing ran (`"cache":"journal"`,
/// `"dedup":true`).
fn replay_done(id: &str, key_text: &str, record: &DoneRecord) -> Value {
    let mut fields = vec![
        ("ok", true.into()),
        ("ev", "done".into()),
        ("id", id.into()),
        ("key", key_text.into()),
        ("code", Value::Num(record.code as f64)),
        ("cache", "journal".into()),
        ("dedup", true.into()),
        ("ms", 0u64.into()),
        ("degraded", 0u64.into()),
        ("degradations", Value::Arr(Vec::new())),
        ("counters", Value::Obj(std::collections::BTreeMap::new())),
    ];
    if let Some(r) = &record.report {
        fields.push(("report", r.clone()));
    }
    if let Some(e) = &record.error {
        fields.push(("error", e.as_str().into()));
    }
    if let Some(i) = &record.issues {
        fields.push(("issues", i.clone()));
    }
    Value::obj(fields)
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] (or send the `shutdown` op) then [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    addr: Option<SocketAddr>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start accepting. Worker threads and the accept thread are
    /// spawned before this returns.
    ///
    /// # Errors
    ///
    /// Binding the listener failed.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let (listener, addr) = match &config.bind {
            Bind::Tcp(spec) => {
                let l = TcpListener::bind(spec)?;
                let addr = l.local_addr()?;
                (Listener::Tcp(l), Some(addr))
            }
            #[cfg(unix)]
            Bind::Unix(path) => {
                // A stale socket file from a previous run refuses the bind.
                let _ = std::fs::remove_file(path);
                (
                    Listener::Unix(std::os::unix::net::UnixListener::bind(path)?),
                    None,
                )
            }
        };
        let wake = match (&config.bind, addr) {
            (Bind::Tcp(_), Some(a)) => Some(WakeAddr::Tcp(a)),
            #[cfg(unix)]
            (Bind::Unix(path), _) => Some(WakeAddr::Unix(path.clone())),
            _ => None,
        };
        // Arm the journal first: recovery must be indexed before any
        // connection can race a dedup lookup, and the crash's orphans go
        // back on the queue before the workers start.
        let (journal, recovery) = match &config.journal {
            Some(path) => {
                let (j, r) = Journal::open(path)?;
                (Some(j), r)
            }
            None => (None, journal::Recovery::default()),
        };
        let shared = Arc::new(Shared {
            running: AtomicBool::new(true),
            paused: AtomicBool::new(config.paused),
            aborting: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            cache: WarmCache::new(config.cache_bytes),
            stats: ServerStats::default(),
            wake: Mutex::new(wake),
            journal,
            done_index: Mutex::new(recovery.done),
            inflight: Mutex::new(HashSet::new()),
            pending: AtomicU64::new(0),
            queued_bytes: AtomicU64::new(0),
            max_queue: config.max_queue,
            queue_bytes: config.queue_bytes as u64,
            write_timeout_ms: config.write_timeout_ms,
            journal_corrupt_lines: recovery.corrupt_lines as u64,
        });
        for job in recovery.pending {
            // Replayed jobs have no client: the events channel is born
            // orphaned (exact same draining semantics as a mid-job
            // disconnect) and results land in the journal + done index.
            shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
            shared.stats.recovered.fetch_add(1, Ordering::Relaxed);
            obs::count("serve.recovered", 1);
            let bytes = job_bytes(&job.spec);
            // Recovery bypasses admission: these jobs were admitted by a
            // previous life of this daemon.
            shared.pending.fetch_add(1, Ordering::SeqCst);
            shared.queued_bytes.fetch_add(bytes, Ordering::SeqCst);
            shared.inflight.lock().unwrap().insert(job.key);
            let (tx, _) = mpsc::channel();
            shared.enqueue(QueuedJob {
                source: jobs::resolve_source(&job.spec.source),
                spec: job.spec,
                key: Some(job.key),
                bytes,
                events: tx,
            });
        }
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor")
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound TCP address (None for unix sockets).
    pub fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Warm-cache statistics.
    pub fn cache_stats(&self) -> cache::CacheStats {
        self.shared.cache.stats()
    }

    /// Stop accepting, let queued jobs drain, and wake everything up.
    /// Idempotent; also triggered by the `shutdown` op.
    pub fn shutdown(&self) {
        request_shutdown(&self.shared);
    }

    /// Release a queue held by [`ServerConfig::paused`] (also reachable
    /// over the wire as the `resume` op). A no-op when already draining.
    pub fn resume(&self) {
        self.shared.resume();
    }

    /// The in-process analogue of a crash, for recovery tests: stop
    /// dequeuing **immediately**, abandoning queued jobs. Jobs already
    /// running finish (and journal their `done`); everything still queued
    /// stays journaled as accepted and replays on the next
    /// [`Server::start`] with the same `--journal`. Call [`Server::join`]
    /// afterwards as usual.
    pub fn abort(&self) {
        self.shared.aborting.store(true, Ordering::SeqCst);
        // Drop the abandoned queue entries now: their event senders go
        // with them, so connection threads blocked on a job's frames see
        // a disconnect instead of hanging. The jobs themselves stay
        // journaled as accepted — that is the recovery contract.
        self.shared.queue.lock().unwrap().clear();
        request_shutdown(&self.shared);
    }

    /// Wait for the accept loop and every worker to exit. Call after
    /// [`Server::shutdown`] (or after a client sent the `shutdown` op).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn request_shutdown(shared: &Shared) {
    shared.running.store(false, Ordering::SeqCst);
    shared.cond.notify_all();
    // Unblock the accept loop with a throwaway connection; take() makes
    // repeated shutdowns poke at most once.
    let wake = shared.wake.lock().unwrap().take();
    match wake {
        Some(WakeAddr::Tcp(addr)) => {
            let _ = TcpStream::connect(addr);
        }
        #[cfg(unix)]
        Some(WakeAddr::Unix(path)) => {
            let _ = std::os::unix::net::UnixStream::connect(path);
        }
        None => {}
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.dequeue() {
        let outcome = jobs::run_job(&job.spec, job.source, &shared.cache);
        if outcome.code == 0 {
            shared.stats.done_ok.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.stats.done_failed.fetch_add(1, Ordering::Relaxed);
        }
        shared.finish(
            job.key,
            DoneRecord {
                code: i64::from(outcome.code),
                report: outcome.done.get("report").cloned(),
                error: outcome
                    .done
                    .get("error")
                    .and_then(Value::as_str)
                    .map(str::to_string),
                issues: outcome.done.get("issues").cloned(),
            },
        );
        // A gone client (mid-job disconnect) just drops the frames.
        for frame in outcome.phases {
            let _ = job.events.send(frame);
        }
        let _ = job.events.send(outcome.done);
    }
}

fn accept_loop(listener: &Listener, shared: &Arc<Shared>) {
    loop {
        let stream: Box<dyn Conn> = match listener {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    // No Nagle: a frame follows the previous one without
                    // waiting for the client's (delayed) ACK.
                    let _ = s.set_nodelay(true);
                    Box::new(s)
                }
                Err(_) => continue,
            },
            #[cfg(unix)]
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => Box::new(s),
                Err(_) => continue,
            },
        };
        if !shared.running.load(Ordering::SeqCst) {
            // The wake-up connection (or any late client) is refused.
            return;
        }
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || handle_conn(stream, &shared));
    }
}

/// The two stream types behind one object: both are `Read + Write` and
/// cloneable into an independently owned reader half, and both support
/// a write timeout for slow-client isolation.
trait Conn: Read + Write + Send {
    fn reader(&self) -> std::io::Result<Box<dyn Read + Send>>;
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
}

impl Conn for TcpStream {
    fn reader(&self) -> std::io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
}

#[cfg(unix)]
impl Conn for std::os::unix::net::UnixStream {
    fn reader(&self) -> std::io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        std::os::unix::net::UnixStream::set_write_timeout(self, timeout)
    }
}

/// Read one `\n`-terminated line, bounded by [`MAX_LINE`].
///
/// Returns `Ok(None)` on EOF, `Err(())` when the line exceeded the bound
/// (the tail is consumed and discarded so the stream stays framed).
fn read_line_bounded(
    reader: &mut BufReader<Box<dyn Read + Send>>,
    buf: &mut Vec<u8>,
) -> std::io::Result<Result<Option<usize>, ()>> {
    buf.clear();
    let n = reader
        .by_ref()
        .take(MAX_LINE as u64 + 1)
        .read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(Ok(None));
    }
    if n > MAX_LINE {
        // Discard the rest of the oversized line.
        loop {
            let mut skip = Vec::with_capacity(4096);
            let m = reader.by_ref().take(4096).read_until(b'\n', &mut skip)?;
            if m == 0 || skip.last() == Some(&b'\n') {
                break;
            }
        }
        return Ok(Err(()));
    }
    Ok(Ok(Some(n)))
}

/// Send one frame as a single write of its serialized line. `Value`'s
/// `Display` writes token by token, so formatting straight into the socket
/// would put each frame on the wire as dozens of tiny segments.
fn write_frame(w: &mut dyn Write, frame: &Value) -> std::io::Result<()> {
    let mut line = frame.to_string();
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Write a frame to a client; `false` means the connection is dead (to
/// us). A write *timeout* — the slow-client case — is counted separately
/// from a plain disconnect: the stalled reader loses its frames, but the
/// job keeps running and its outcome is journaled.
fn conn_send(shared: &Shared, w: &mut dyn Write, frame: &Value) -> bool {
    match write_frame(w, frame) {
        Ok(()) => true,
        Err(e) => {
            if matches!(
                e.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ) {
                shared.stats.slow_drops.fetch_add(1, Ordering::Relaxed);
                obs::count("serve.slow_client_drops", 1);
            }
            false
        }
    }
}

fn handle_conn(mut stream: Box<dyn Conn>, shared: &Arc<Shared>) {
    if shared.write_timeout_ms > 0 {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(shared.write_timeout_ms)));
    }
    let Ok(read_half) = stream.reader() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    loop {
        match read_line_bounded(&mut reader, &mut buf) {
            Err(_) | Ok(Ok(None)) => return, // disconnect / EOF
            Ok(Err(())) => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let e = proto::error(None, &format!("line exceeds {MAX_LINE} bytes"));
                if write_frame(&mut stream, &e).is_err() {
                    return;
                }
                continue;
            }
            Ok(Ok(Some(_))) => {}
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let request = match proto::parse_request(line) {
            Ok(r) => r,
            Err(msg) => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                if write_frame(&mut stream, &proto::error(None, &msg)).is_err() {
                    return;
                }
                continue;
            }
        };
        match request {
            Request::Ping => {
                if write_frame(&mut stream, &proto::pong()).is_err() {
                    return;
                }
            }
            Request::Stats => {
                if write_frame(&mut stream, &shared.stats_frame()).is_err() {
                    return;
                }
            }
            Request::Shutdown => {
                let _ = write_frame(&mut stream, &proto::bye());
                request_shutdown(shared);
                return;
            }
            Request::Resume => {
                shared.resume();
                if write_frame(&mut stream, &proto::resumed()).is_err() {
                    return;
                }
            }
            Request::Status { key } => {
                if !conn_send(shared, &mut stream, &shared.status_frame(&key)) {
                    return;
                }
            }
            Request::Submit(spec) => {
                let source = jobs::resolve_source(&spec.source);
                let key = source
                    .as_ref()
                    .ok()
                    .map(|s| jobs::idempotency_key(&spec, s.key));
                let key_text = key.map(journal::key_hex).unwrap_or_default();
                if shared.journal.is_some() {
                    if let Some(key) = key {
                        // Exactly-once dedup: an identical submit already
                        // completed — replay its terminal record (the
                        // `report` is byte-identical) without re-running.
                        let record = shared.done_index.lock().unwrap().get(key);
                        if let Some(record) = record {
                            shared.stats.deduped.fetch_add(1, Ordering::Relaxed);
                            obs::count("serve.deduped", 1);
                            if !conn_send(
                                shared,
                                &mut stream,
                                &proto::accepted(&spec.id, &key_text),
                            ) || !conn_send(
                                shared,
                                &mut stream,
                                &replay_done(&spec.id, &key_text, &record),
                            ) {
                                return;
                            }
                            continue;
                        }
                        // The same logical job is queued or running right
                        // now (a retry after a dropped connection):
                        // don't run it twice — tell the client to back
                        // off and poll `status` / resubmit.
                        if shared.inflight.lock().unwrap().contains(&key) {
                            obs::count("serve.inflight_retries", 1);
                            let frame = proto::retry_after(
                                &spec.id,
                                100,
                                "job already in flight; poll `status` or retry",
                            );
                            if !conn_send(shared, &mut stream, &frame) {
                                return;
                            }
                            continue;
                        }
                    }
                }
                // Admission backpressure: a full queue sheds the submit
                // *before* it is journaled or counted as submitted.
                let bytes = job_bytes(&spec);
                if let Err(retry_ms) = shared.admit(bytes) {
                    let frame = proto::retry_after(
                        &spec.id,
                        retry_ms,
                        "queue over depth/byte budget; back off and retry",
                    );
                    if !conn_send(shared, &mut stream, &frame) {
                        return;
                    }
                    continue;
                }
                shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
                // WAL ordering: journal the accepted entry before the job
                // becomes visible to workers, so every job a worker can
                // run is recoverable.
                if let (Some(journal), Some(key)) = (&shared.journal, key) {
                    shared.inflight.lock().unwrap().insert(key);
                    journal.accepted(key, &spec);
                }
                let client_gone =
                    !conn_send(shared, &mut stream, &proto::accepted(&spec.id, &key_text));
                let (tx, rx) = mpsc::channel();
                shared.enqueue(QueuedJob {
                    spec: *spec,
                    source,
                    key,
                    bytes,
                    events: tx,
                });
                // Forward frames until the terminal `done`. On a dead
                // client keep draining so the job is fully consumed, then
                // close.
                let mut dead = client_gone;
                for frame in rx {
                    let is_done = frame.get("ev").and_then(Value::as_str) == Some("done");
                    if !dead && !conn_send(shared, &mut stream, &frame) {
                        dead = true;
                    }
                    if is_done {
                        break;
                    }
                }
                if dead {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that keeps the bytes of each `write` call apart.
    #[derive(Default)]
    struct Recording {
        writes: Vec<Vec<u8>>,
    }

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_goes_out_in_one_write() {
        let record = DoneRecord {
            code: 1,
            report: Some(Value::obj([
                ("circuit", "b11".into()),
                ("wns", 12.5.into()),
                (
                    "phases",
                    Value::Arr(vec![Value::obj([("nodes", 3u64.into())])]),
                ),
            ])),
            error: Some("boundary statically untestable".to_string()),
            issues: Some(Value::Arr(vec!["to: provably constant".into()])),
        };
        let frames = [
            proto::error(Some("j1"), "line exceeds \"1048576\" bytes"),
            replay_done("j1", &journal::key_hex(0xfeed), &record),
        ];
        for frame in &frames {
            let mut w = Recording::default();
            write_frame(&mut w, frame).unwrap();
            assert_eq!(w.writes.len(), 1, "{frame}");
            assert_eq!(w.writes[0], format!("{frame}\n").into_bytes());
        }
    }
}
