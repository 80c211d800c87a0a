//! `symloc serve` — the multi-tenant online-MRC daemon.
//!
//! Accepts live access streams over the line-framed wire protocol
//! (`symloc_trace::wire`), demultiplexes them into per-tenant
//! [`symloc_core::tracesweep::ShardsEstimator`]s inside a [`ServeState`],
//! and answers `MRC` / `MRCJ` /
//! `WSS` / `STATS` / `PARTITION` queries from any connection. Two
//! transports share one session loop:
//!
//! * `--stdin`: a single session over standard input, responses
//!   accumulated into the command's report — the deterministic shape the
//!   tests drive.
//! * `--port P`: a TCP listener (`127.0.0.1`, `0` = ephemeral; the bound
//!   address is printed immediately), one thread per connection.
//!   `SIGTERM`/`SIGINT` save the checkpoint and exit cleanly.
//!
//! A session reads and parses its lines on its own thread, with no line
//! longer than [`symloc_trace::wire::MAX_LINE_BYTES`]. It takes the lock
//! on the tenant table once per 4096-access block and once per query.
//!
//! With `--checkpoint`, the tenant table persists through the
//! [`JobKind::ServeState`] codec. One saver thread does every write. At a
//! save point (every `--save-every` accesses, `SAVE`, shutdown) the
//! session clones the table under the lock and hands the copy over, so
//! ingest never waits for serialization. The saver writes in order and
//! drops nothing: `SAVE` answers after its own write, and shutdown, on
//! every exit path, waits for all of them. A failed cadence write never
//! replaces a request: the next `SAVE` reports it, and so does shutdown
//! if no `SAVE` did, by exiting non-zero. Saves are atomic, every save
//! refreshes a [`Heartbeat`] liveness sidecar (`symloc job status` reads
//! it), and a restarted daemon resumes every tenant byte-identically —
//! queries answer from persisted state only, so an answer straddling a
//! restart never changes.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Mutex;
use std::thread::JoinHandle;

use std::fmt::Write as _;

use symloc_core::job::{Heartbeat, JobKind};
use symloc_core::obs::{Metric, MetricsRegistry, Span};
use symloc_core::serve::ServeState;
use symloc_core::tracesweep::MrcPoint;
use symloc_trace::stream::AccessSink;
use symloc_trace::wire::{parse_line, AccessBatcher, Request, MAX_LINE_BYTES};

use super::flags::{CommandSpec, FlagSpec, CHECKPOINT, METRICS};
use super::CliError;

/// `--port P`: listen on 127.0.0.1:P (0 = ephemeral).
const PORT: FlagSpec = FlagSpec::value(
    "--port",
    "P",
    "listen on 127.0.0.1:P (0 picks an ephemeral port; the bound address is printed)",
);

/// `--stdin`: one session over standard input.
const STDIN: FlagSpec = FlagSpec::switch(
    "--stdin",
    "serve a single session over stdin and return its responses (for tests/pipes)",
);

/// `--budget S`: per-tenant SHARDS budget.
const BUDGET: FlagSpec = FlagSpec::value(
    "--budget",
    "S",
    "per-tenant SHARDS budget s_max (default 1024; memory is O(budget) per tenant)",
);

/// `--max-tenants N`: tenant-table cap.
const MAX_TENANTS: FlagSpec = FlagSpec::value(
    "--max-tenants",
    "N",
    "hard cap on tenant keyspaces; HELLOs beyond it are rejected loudly (default 64)",
);

/// `--save-every N`: checkpoint cadence in accesses.
const SAVE_EVERY: FlagSpec = FlagSpec::value(
    "--save-every",
    "N",
    "checkpoint after every N streamed accesses (default 100000; 0 = only on SAVE/shutdown)",
);

/// The declarative table for `symloc serve`.
pub(crate) const SERVE: CommandSpec = CommandSpec {
    name: "serve",
    summary: "multi-tenant online-MRC daemon over a line-framed protocol",
    usage: "symloc serve [--stdin | --port P] [--budget S] [--max-tenants N]\n  \
            [--checkpoint FILE] [--save-every N] [--metrics FILE]",
    positionals: &[],
    variadic: false,
    flags: &[
        PORT,
        STDIN,
        BUDGET,
        MAX_TENANTS,
        CHECKPOINT,
        SAVE_EVERY,
        METRICS,
    ],
};

/// Read buffer of a TCP session: a larger buffer means fewer `read` calls
/// per line.
const TCP_READ_BUFFER: usize = 64 * 1024;

/// The error a waiting caller hears when the saver thread is gone.
const SAVER_STOPPED: &str = "checkpoint saver stopped";

/// Set by the SIGTERM/SIGINT handler; the accept loop and every
/// connection thread poll it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    unsafe extern "C" fn on_term(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    // Declared directly against libc (which std already links) so the
    // offline workspace needs no new dependency; the handler only touches
    // an atomic, which is async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: unsafe extern "C" fn(i32)) -> usize;
    }
    // SIGTERM = 15, SIGINT = 2 on every unix this builds for.
    unsafe {
        signal(15, on_term);
        signal(2, on_term);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// One write for the saver thread: a snapshot of the tenant table, the
/// heartbeat describing it, and, for `SAVE` and shutdown, where the
/// outcome goes.
struct SaveJob {
    state: ServeState,
    heartbeat: Heartbeat,
    done: Option<Sender<Result<(), String>>>,
}

/// The saver thread and its queue. The queue holds one snapshot, so a
/// daemon that outpaces the disk waits at its next save point instead of
/// piling up copies of the table.
struct Saver {
    path: PathBuf,
    queue: SyncSender<SaveJob>,
    thread: JoinHandle<()>,
}

impl Saver {
    fn start(path: PathBuf) -> Saver {
        let (queue, jobs) = mpsc::sync_channel(1);
        let thread = {
            let path = path.clone();
            std::thread::spawn(move || write_saves(&path, &jobs))
        };
        Saver {
            path,
            queue,
            thread,
        }
    }
}

/// The saver thread: writes each snapshot atomically and then its
/// liveness sidecar, in queue order, until the queue closes. The sidecar
/// write is best-effort, exactly like the job runner's own. A caller
/// waiting on a write (`SAVE`, shutdown) hears of its failure, or else of
/// an earlier failed cadence write no caller has heard of yet.
fn write_saves(path: &Path, jobs: &Receiver<SaveJob>) {
    let mut unheard = None;
    for job in jobs {
        let written = job
            .state
            .save(path)
            .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()));
        if written.is_ok() {
            let _ = std::fs::write(Heartbeat::sidecar_path(path), job.heartbeat.to_json());
        }
        match job.done {
            Some(done) => {
                let earlier = unheard.take();
                let _ = done.send(written.and_then(|()| earlier.map_or(Ok(()), Err)));
            }
            None => {
                if let Err(reason) = written {
                    unheard.get_or_insert(reason);
                }
            }
        }
    }
}

/// The outcome of a queued save, for a caller that waits for the write.
type PendingSave = Receiver<Result<(), String>>;

fn wait_for(save: &PendingSave) -> Result<(), String> {
    save.recv()
        .unwrap_or_else(|_| Err(SAVER_STOPPED.to_string()))
}

/// The daemon behind the transports: the tenant table plus persistence
/// policy. TCP mode wraps it in a mutex; stdin mode owns it directly.
struct Daemon {
    state: ServeState,
    saver: Option<Saver>,
    save_every: u64,
    since_save: u64,
    run_span: Span,
}

impl Daemon {
    fn new(state: ServeState, checkpoint: Option<PathBuf>, save_every: u64) -> Daemon {
        Daemon {
            state,
            saver: checkpoint.map(Saver::start),
            save_every,
            since_save: 0,
            run_span: Span::start(),
        }
    }

    /// Takes a save point (when a checkpoint is configured): counts it in
    /// `serve.saves`, snapshots the table and queues the snapshot for the
    /// saver. Runs under the caller's lock, so snapshots queue in the
    /// order they were taken. `done` receives the outcome of the write;
    /// if the saver is gone, `done` is dropped with the snapshot and its
    /// receiver reports [`SAVER_STOPPED`]. Returns whether a checkpoint is
    /// configured.
    fn queue_save(&mut self, done: Option<Sender<Result<(), String>>>) -> bool {
        let Some(saver) = &self.saver else {
            return false;
        };
        self.state.note_save();
        self.since_save = 0;
        let job = SaveJob {
            state: self.state.clone(),
            heartbeat: self.heartbeat(),
            done,
        };
        let _ = saver.queue.send(job);
        true
    }

    /// Queues a save point whose write the caller waits for; `None`
    /// without a checkpoint.
    fn request_save(&mut self) -> Option<PendingSave> {
        let (done, outcome) = mpsc::channel();
        self.queue_save(Some(done)).then_some(outcome)
    }

    /// The daemon's liveness heartbeat. A daemon has no planned end, so
    /// completed = total = tenants and there is never an ETA.
    fn heartbeat(&self) -> Heartbeat {
        Heartbeat {
            job_kind: JobKind::ServeState,
            fingerprint: self.state.fingerprint(),
            completed: self.state.tenant_count(),
            total: self.state.tenant_count(),
            batches: self.state.saves(),
            items: Some(("accesses".to_string(), self.state.total_accesses())),
            elapsed_secs: self.run_span.elapsed_secs(),
            units_per_sec: 0.0,
            instant_units_per_sec: 0.0,
            eta_secs: None,
        }
    }

    /// Streams `block` into `tenant` and takes a save point when the
    /// cadence says so. Nothing waits for a cadence write; its failure is
    /// kept for the next `SAVE` and for shutdown.
    fn record(&mut self, tenant: &str, block: &[u64]) -> Result<(), String> {
        let index = self.state.ensure_tenant(tenant)?;
        self.state.record_block(index, block);
        self.since_save += block.len() as u64;
        if self.save_every > 0 && self.since_save >= self.save_every {
            self.queue_save(None);
        }
        Ok(())
    }

    /// The shutdown save: queues the final snapshot behind every earlier
    /// one, joins the saver, and only then removes the liveness sidecar,
    /// so no late write can bring it back. Returns the checkpoint path, or
    /// the error of the final write or of a cadence write no `SAVE`
    /// reported.
    fn finish(&mut self) -> Result<Option<String>, String> {
        let last = self.request_save().as_ref().map_or(Ok(()), wait_for);
        let Some(saver) = self.saver.take() else {
            return Ok(None);
        };
        drop(saver.queue);
        let joined = saver.thread.join();
        let _ = std::fs::remove_file(Heartbeat::sidecar_path(&saver.path));
        last?;
        joined.map_err(|_| SAVER_STOPPED.to_string())?;
        Ok(Some(saver.path.display().to_string()))
    }
}

/// The sink a flush drives: one resolved tenant of the table. Built
/// under the lock after index resolution, used for exactly one block
/// delivery — tenant insertion invalidates indices, so it never outlives
/// the flush.
struct TenantSink<'a> {
    daemon: &'a mut Daemon,
    tenant: &'a str,
    error: Option<String>,
}

impl AccessSink for TenantSink<'_> {
    fn on_access(&mut self, addr: u64) {
        self.on_block(&[addr]);
    }

    fn on_block(&mut self, block: &[u64]) {
        if self.error.is_none() {
            self.error = self.daemon.record(self.tenant, block).err();
        }
    }
}

/// One connection's framing state: the bound tenant and its batcher.
struct Session {
    tenant: Option<String>,
    batcher: AccessBatcher,
}

impl Session {
    fn new() -> Session {
        Session {
            tenant: None,
            batcher: AccessBatcher::new(),
        }
    }

    /// Delivers everything buffered to the bound tenant.
    fn flush(&mut self, daemon: &mut Daemon) -> Result<(), String> {
        if self.batcher.pending() == 0 {
            return Ok(());
        }
        let tenant = self.tenant.as_deref().unwrap_or_default().to_string();
        let mut sink = TenantSink {
            daemon,
            tenant: &tenant,
            error: None,
        };
        self.batcher.flush(&mut sink);
        match sink.error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// What the session loop should do with a handled line.
enum Action {
    /// Silent success (an access line).
    Silent,
    /// Answer with one response line.
    Reply(String),
    /// Answer, then close the connection.
    Close(String),
}

fn err_line(reason: &str) -> String {
    format!("ERR {reason}")
}

/// Renders one tenant's MRC answer. Derived from persisted estimator
/// state only (histogram + log-spaced grid), so a daemon restarted from
/// its checkpoint renders the byte-identical line.
fn mrc_line(tenant: &str, points: &[MrcPoint]) -> String {
    let mut line = format!("OK mrc {tenant} {}", points.len());
    for p in points {
        let _ = write!(line, " {}:{}", p.cache_size, p.miss_ratio);
    }
    line
}

/// Renders a metrics registry as one `name=value` line (name-sorted, so
/// deterministic; histograms report their sample count).
fn stats_line(scope: &str, registry: &MetricsRegistry) -> String {
    let mut line = format!("OK stats {scope}");
    for (name, metric) in registry.iter() {
        match metric {
            Metric::Counter(v) => {
                let _ = write!(line, " {name}={v}");
            }
            Metric::Gauge(v) => {
                let _ = write!(line, " {name}={v}");
            }
            Metric::Histogram(h) => {
                let _ = write!(line, " {name}=count:{}", h.count());
            }
        }
    }
    line
}

/// Handles one protocol line against the daemon. Accesses batch locally
/// in the session and only touch the daemon on block boundaries; every
/// query flushes first so answers always reflect the full stream so far.
fn handle_line(daemon: &Mutex<Daemon>, session: &mut Session, line: &[u8]) -> Action {
    let request = match parse_line(line) {
        Ok(request) => request,
        Err(reason) => return Action::Reply(err_line(&reason)),
    };
    match request {
        // Comment lines never touch the daemon — a piped text trace's
        // header costs no lock traffic.
        Request::Comment => return Action::Silent,
        Request::Access(addr) => {
            if session.tenant.is_none() {
                return Action::Reply(err_line("no tenant bound (send HELLO <tenant> first)"));
            }
            if !session.batcher.push(addr) {
                return Action::Silent;
            }
        }
        _ => {}
    }
    let mut daemon = daemon.lock().unwrap();
    if let Err(reason) = session.flush(&mut daemon) {
        return Action::Reply(err_line(&reason));
    }
    match request {
        Request::Comment => unreachable!("handled above"),
        Request::Access(_) => Action::Silent,
        Request::Hello(tenant) => match daemon.state.ensure_tenant(tenant) {
            Ok(_) => {
                session.tenant = Some(tenant.to_string());
                Action::Reply(format!("OK tenant {tenant}"))
            }
            Err(reason) => Action::Reply(err_line(&reason)),
        },
        Request::Mrc { tenant, points } => match daemon.state.mrc(tenant, points.unwrap_or(16)) {
            Ok(points) => Action::Reply(mrc_line(tenant, &points)),
            Err(reason) => Action::Reply(err_line(&reason)),
        },
        Request::Mrcj { tenant, points } => {
            match daemon.state.mrcj_line(tenant, points.unwrap_or(16)) {
                Ok(doc) => Action::Reply(format!("OK mrcj {tenant} {doc}")),
                Err(reason) => Action::Reply(err_line(&reason)),
            }
        }
        Request::Partition(budget) => match daemon.state.partition(budget) {
            Ok(solution) => {
                daemon
                    .state
                    .note_partition(budget, solution.predicted_aggregate_miss_ratio);
                Action::Reply(format!("OK {}", solution.render_compact()))
            }
            Err(reason) => Action::Reply(err_line(&reason)),
        },
        Request::Wss(tenant) => match daemon.state.wss(tenant) {
            Ok(wss) => Action::Reply(format!("OK wss {tenant} {wss}")),
            Err(reason) => Action::Reply(err_line(&reason)),
        },
        Request::Stats(tenant) => match tenant {
            Some(tenant) => match daemon.state.tenant_metrics(tenant) {
                Ok(registry) => Action::Reply(stats_line(tenant, &registry)),
                Err(reason) => Action::Reply(err_line(&reason)),
            },
            None => {
                let registry = daemon.state.fleet_metrics();
                Action::Reply(stats_line("fleet", &registry))
            }
        },
        // The write is waited for without the lock, so other sessions
        // keep streaming while this one waits.
        Request::Save => match daemon.request_save() {
            Some(pending) => {
                let saved = format!(
                    "OK saved {} tenants {}",
                    daemon
                        .saver
                        .as_ref()
                        .expect("a queued save has a saver")
                        .path
                        .display(),
                    daemon.state.tenant_count()
                );
                drop(daemon);
                match wait_for(&pending) {
                    Ok(()) => Action::Reply(saved),
                    Err(reason) => Action::Reply(err_line(&reason)),
                }
            }
            None => Action::Reply(err_line(
                "no checkpoint configured (start with --checkpoint FILE)",
            )),
        },
        Request::Ping => Action::Reply("OK pong".to_string()),
        Request::Quit => Action::Close("OK bye".to_string()),
    }
}

/// Runs one session — the loop both transports share — until `QUIT`,
/// end of stream, an over-long line, a failed reply or `stop`. Replies go
/// through `send`. A read timeout keeps the part of the line read so far
/// and only re-checks `stop`; any other read error ends the session and
/// is returned. The session's buffered tail is flushed into the daemon at
/// close.
fn run_session(
    daemon: &Mutex<Daemon>,
    mut reader: impl BufRead,
    stop: &AtomicBool,
    mut send: impl FnMut(String) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut session = Session::new();
    let mut line = Vec::new();
    let mut ended = Ok(());
    while !stop.load(Ordering::SeqCst) {
        // At most one byte past the bound is ever read into the line.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        if let Err(e) = reader.by_ref().take(room).read_until(b'\n', &mut line) {
            if !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                ended = Err(e);
                break;
            }
            continue;
        }
        let terminated = line.last() == Some(&b'\n');
        if terminated {
            line.pop();
        } else if line.len() > MAX_LINE_BYTES {
            let _ = send(err_line(&format!("line exceeds {MAX_LINE_BYTES} bytes")));
            break;
        } else if line.is_empty() {
            break;
        }
        let open = match handle_line(daemon, &mut session, &line) {
            Action::Silent => true,
            Action::Reply(reply) => send(reply).is_ok(),
            Action::Close(reply) => {
                let _ = send(reply);
                false
            }
        };
        line.clear();
        // An unterminated line is the last one of the stream.
        if !open || !terminated {
            break;
        }
    }
    let mut daemon = daemon.lock().unwrap();
    let _ = session.flush(&mut daemon);
    ended
}

/// The shutdown report both transports return.
fn summary(daemon: &Daemon, saved: Option<&str>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve: {} tenant(s), {} access(es), {} rejected HELLO(s), {} partition answer(s)",
        daemon.state.tenant_count(),
        daemon.state.total_accesses(),
        daemon.state.rejected(),
        daemon.state.partitions()
    );
    for tenant in daemon.state.tenants() {
        let _ = writeln!(
            out,
            "  {:24} {:>12} accesses  wss ~{:.0}",
            tenant.name(),
            tenant.accesses(),
            tenant.estimator().estimated_footprint()
        );
    }
    match saved {
        Some(path) => {
            let _ = writeln!(out, "checkpoint saved to {path}");
        }
        None => {
            let _ = writeln!(out, "no checkpoint configured — tenant state not persisted");
        }
    }
    out
}

/// Runs one session over a reader, collecting responses. The stdin
/// transport and the unit tests drive this directly.
fn run_stdin_session(daemon: &Mutex<Daemon>, reader: impl BufRead) -> Result<String, CliError> {
    let mut out = String::new();
    run_session(daemon, reader, &AtomicBool::new(false), |reply| {
        let _ = writeln!(out, "{reply}");
        Ok(())
    })
    .map_err(|e| CliError(format!("cannot read stream: {e}")))?;
    Ok(out)
}

/// Sends one reply line in a single write. A reply split across writes
/// (text, then newline) lets Nagle's algorithm hold the second segment
/// until the client's delayed ACK — about 40 ms per reply.
fn send_reply(writer: &mut TcpStream, reply: String) -> std::io::Result<()> {
    let mut line = reply.into_bytes();
    line.push(b'\n');
    writer.write_all(&line)
}

/// One TCP connection: lines in, response lines out, until QUIT/EOF/
/// shutdown. Read timeouts keep the thread polling the shutdown flag.
fn run_tcp_session(daemon: &Mutex<Daemon>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let reader = BufReader::with_capacity(TCP_READ_BUFFER, stream);
    let _ = run_session(daemon, reader, &SHUTDOWN, |reply| {
        send_reply(&mut writer, reply)
    });
}

/// Binds the TCP listener on 127.0.0.1 and announces the bound address.
/// The termination signals are caught from here on.
fn listen(port: u16) -> Result<TcpListener, CliError> {
    install_signal_handlers();
    SHUTDOWN.store(false, Ordering::SeqCst);
    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| CliError(format!("cannot bind 127.0.0.1:{port}: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| CliError(format!("cannot read bound address: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| CliError(format!("cannot configure listener: {e}")))?;
    // Announce the bound address immediately (stdout, flushed): with
    // --port 0 this line is how callers discover the ephemeral port.
    println!("listening on {addr}");
    let _ = std::io::stdout().flush();
    Ok(listener)
}

/// The TCP transport: accept loop + thread per connection, until a
/// termination signal or a failed accept. Returns once every connection
/// thread has finished.
fn run_tcp(daemon: &Mutex<Daemon>, listener: &TcpListener) -> Result<(), CliError> {
    std::thread::scope(|scope| {
        while !SHUTDOWN.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    scope.spawn(move || run_tcp_session(daemon, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
                Err(e) => {
                    // Close the open connections too, so the caller can
                    // take the shutdown save.
                    SHUTDOWN.store(true, Ordering::SeqCst);
                    return Err(CliError(format!("accept failed: {e}")));
                }
            }
        }
        Ok(())
    })
}

/// Runs `transport` against the daemon, then shuts the daemon down
/// whatever the transport returned: a transport error is returned only
/// after the final save is written and the saver joined, so no queued
/// snapshot is lost. Returns the transport's output, the daemon and the
/// checkpoint it saved to.
fn run_to_shutdown(
    daemon: Daemon,
    transport: impl FnOnce(&Mutex<Daemon>) -> Result<String, CliError>,
) -> Result<(String, Daemon, Option<String>), CliError> {
    let daemon = Mutex::new(daemon);
    let served = transport(&daemon);
    let mut daemon = daemon
        .into_inner()
        .expect("a session panicked holding the tenant table");
    let saved = daemon.finish();
    let served = served?;
    Ok((served, daemon, saved.map_err(CliError)?))
}

/// Entry point for `symloc serve`.
///
/// # Errors
///
/// Returns a [`CliError`] for invalid flags, an unusable checkpoint, or
/// transport failures.
pub fn serve(args: &[String]) -> Result<String, CliError> {
    let Some(parsed) = SERVE.parse(args)? else {
        return Ok(SERVE.help());
    };
    let budget = parsed.usize(BUDGET.name)?.unwrap_or(1024);
    let max_tenants = parsed.usize(MAX_TENANTS.name)?.unwrap_or(64);
    let save_every = parsed.u64(SAVE_EVERY.name)?.unwrap_or(100_000);
    let checkpoint = parsed.value(CHECKPOINT.name).map(PathBuf::from);
    let metrics_path = parsed.value(METRICS.name).map(ToString::to_string);
    let stdin_mode = parsed.switch(STDIN.name);
    let port = parsed.u64(PORT.name)?;
    if stdin_mode && port.is_some() {
        return Err(CliError("--stdin and --port are mutually exclusive".into()));
    }
    let port = match port {
        Some(p) => u16::try_from(p).map_err(|_| CliError("--port must fit in 16 bits".into()))?,
        None if stdin_mode => 0,
        None => {
            return Err(CliError(
                "serve needs a transport: --stdin or --port P (0 = ephemeral)".into(),
            ))
        }
    };

    let (state, resumed) = match &checkpoint {
        Some(path) => ServeState::resume_or_new(path, budget, max_tenants).map_err(CliError)?,
        None => (
            ServeState::new(budget, max_tenants).map_err(CliError)?,
            false,
        ),
    };
    let mut out = String::new();
    if resumed {
        let _ = writeln!(
            out,
            "resumed {} tenant(s), {} access(es) from checkpoint",
            state.tenant_count(),
            state.total_accesses()
        );
    }
    let listener = if stdin_mode {
        None
    } else {
        Some(listen(port)?)
    };
    let daemon = Daemon::new(state, checkpoint, save_every);
    let (session_out, daemon, saved) = run_to_shutdown(daemon, |daemon| match &listener {
        Some(listener) => run_tcp(daemon, listener).map(|()| String::new()),
        None => run_stdin_session(daemon, std::io::stdin().lock()),
    })?;
    out.push_str(&session_out);
    super::flags::write_metrics(metrics_path.as_deref(), &daemon.state.fleet_metrics())?;
    out.push_str(&summary(&daemon, saved.as_deref()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use symloc_trace::wire::WIRE_BLOCK_LEN;

    fn daemon(budget: usize, max_tenants: usize, checkpoint: Option<PathBuf>) -> Mutex<Daemon> {
        Mutex::new(Daemon::new(
            ServeState::new(budget, max_tenants).unwrap(),
            checkpoint,
            0,
        ))
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("symloc-serve-cli-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn drive(daemon: &Mutex<Daemon>, script: &str) -> String {
        run_stdin_session(daemon, std::io::Cursor::new(script.to_string())).unwrap()
    }

    #[test]
    fn session_demultiplexes_interleaved_tenants() {
        let daemon = daemon(64, 8, None);
        let out = drive(
            &daemon,
            "HELLO alpha\n1\n2\n1\nHELLO beta\n10\n20\nHELLO alpha\n2\n1\nSTATS\nQUIT\n",
        );
        assert!(out.contains("OK tenant alpha"), "{out}");
        assert!(out.contains("OK tenant beta"), "{out}");
        assert!(out.contains("serve.tenants=2"), "{out}");
        assert!(out.contains("serve.accesses=7"), "{out}");
        assert!(out.contains("OK bye"), "{out}");
        let guard = daemon.lock().unwrap();
        assert_eq!(guard.state.tenant("alpha").unwrap().accesses(), 5);
        assert_eq!(guard.state.tenant("beta").unwrap().accesses(), 2);
    }

    #[test]
    fn protocol_errors_answer_err_and_keep_the_session_alive() {
        let daemon = daemon(64, 1, None);
        let out = drive(
            &daemon,
            "7\nBOGUS\nHELLO a\n1\nHELLO b\nMRC ghost\nWSS a\nPING\n",
        );
        assert!(out.contains("ERR no tenant bound"), "{out}");
        assert!(out.contains("ERR unknown command"), "{out}");
        assert!(out.contains("ERR tenant table full"), "{out}");
        assert!(out.contains("ERR unknown tenant"), "{out}");
        assert!(out.contains("OK wss a "), "{out}");
        assert!(out.contains("OK pong"), "{out}");
        assert_eq!(daemon.lock().unwrap().state.rejected(), 1);
    }

    #[test]
    fn queries_flush_pending_accesses_first() {
        let daemon = daemon(64, 8, None);
        let out = drive(&daemon, "HELLO t\n1\n2\n3\nWSS t\n");
        // Three distinct addresses at full sampling rate: footprint 3.
        assert!(out.contains("OK wss t 3"), "{out}");
    }

    #[test]
    fn save_without_checkpoint_is_a_loud_error() {
        let daemon = daemon(64, 8, None);
        let out = drive(&daemon, "HELLO t\n1\nSAVE\n");
        assert!(out.contains("ERR no checkpoint configured"), "{out}");
    }

    #[test]
    fn mrcj_answers_one_json_line() {
        let daemon = daemon(64, 8, None);
        let out = drive(&daemon, "HELLO t\n1\n2\n1\n3\nMRCJ t 6\nMRCJ ghost\n");
        let line = out
            .lines()
            .find(|l| l.starts_with("OK mrcj t "))
            .expect("mrcj answer");
        let doc = line.strip_prefix("OK mrcj t ").unwrap();
        let parsed = symloc_core::jsonio::parse(doc).expect("payload parses as JSON");
        assert_eq!(
            parsed
                .get("accesses")
                .and_then(symloc_core::jsonio::JsonValue::as_u64),
            Some(4)
        );
        assert!(parsed.get("mrc").is_some());
        assert!(out.contains("ERR unknown tenant \"ghost\""), "{out}");
    }

    #[test]
    fn partition_answers_and_counts_from_the_live_table() {
        let daemon = daemon(64, 8, None);
        // hot re-touches 4 addresses; cold streams 64 distinct ones.
        let mut script = String::from("HELLO hot\n");
        for i in 0..256 {
            let _ = writeln!(script, "{}", i % 4);
        }
        script.push_str("HELLO cold\n");
        for i in 0..64 {
            let _ = writeln!(script, "{}", 1000 + i);
        }
        script.push_str("PARTITION 8\nPARTITION 0\nSTATS\n");
        let out = drive(&daemon, &script);
        let answer = out
            .lines()
            .find(|l| l.starts_with("OK partition 8 "))
            .expect("partition answer");
        assert!(answer.contains(" hot:"), "{answer}");
        assert!(answer.contains(" cold:"), "{answer}");
        assert!(
            out.contains("ERR partition budget must be positive"),
            "{out}"
        );
        assert!(out.contains("partition.requests=1"), "{out}");
        assert!(out.contains("partition.last_budget=8"), "{out}");
    }

    #[test]
    fn partition_on_an_empty_table_is_a_loud_error() {
        let daemon = daemon(64, 8, None);
        let out = drive(&daemon, "PARTITION 64\n");
        assert!(out.contains("ERR no tenants to partition"), "{out}");
    }

    #[test]
    fn mrc_answers_are_byte_identical_across_restart() {
        let dir = scratch_dir("restart");
        let path = dir.join("serve.ckpt.json");
        let first = daemon(32, 8, Some(path.clone()));
        let before = drive(
            &first,
            "HELLO alpha\n1\n2\n3\n1\n2\n3\n9\nHELLO beta\n5\n6\n5\nMRC alpha\nMRC beta 8\n\
             MRCJ alpha\nPARTITION 16\nSAVE\n",
        );
        // Restart: a fresh daemon resumed from the checkpoint answers the
        // same queries with byte-identical lines.
        let (state, resumed) = ServeState::resume_or_new(&path, 32, 8).unwrap();
        assert!(resumed);
        let second = Mutex::new(Daemon::new(state, Some(path.clone()), 0));
        let after = drive(&second, "MRC alpha\nMRC beta 8\nMRCJ alpha\nPARTITION 16\n");
        // Curve and partition answers derive from persisted state only,
        // so a resumed daemon repeats them byte-for-byte.
        let answer_lines = |s: &str| {
            s.lines()
                .filter(|l| l.starts_with("OK mrc") || l.starts_with("OK partition"))
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(answer_lines(&before), answer_lines(&after));
        assert_eq!(answer_lines(&before).len(), 4);
        // The liveness sidecar matches what `job status` derives from the
        // checkpoint document.
        let hb = Heartbeat::load(&path)
            .expect("heartbeat sidecar")
            .expect("heartbeat parses");
        let status =
            symloc_core::job::checkpoint_status(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(hb.matches(&status));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_over_long_line_answers_err_and_ends_the_session() {
        let daemon = daemon(64, 8, None);
        let script = format!("PING\n{}\nPING\n", "7".repeat(MAX_LINE_BYTES + 1));
        let out = drive(&daemon, &script);
        assert_eq!(out, "OK pong\nERR line exceeds 4096 bytes\n");
        // A line of exactly the bound is still a line.
        let out = drive(
            &daemon,
            &format!("HELLO t\n{}\n", "0".repeat(MAX_LINE_BYTES)),
        );
        assert_eq!(out, "OK tenant t\n");
    }

    #[test]
    fn non_utf8_lines_answer_err_and_keep_the_session_alive() {
        let daemon = daemon(64, 8, None);
        let mut script = b"HELLO t\n\xff\xfe\n".to_vec();
        script.extend_from_slice(b"1\n2\nWSS t\n");
        let out = run_stdin_session(&daemon, std::io::Cursor::new(script)).unwrap();
        assert!(out.contains("ERR line is not valid UTF-8"), "{out}");
        assert!(out.contains("OK wss t 2"), "{out}");
    }

    #[test]
    fn cadence_saves_write_what_an_in_process_table_holds() {
        let dir = scratch_dir("cadence");
        let path = dir.join("serve.ckpt.json");
        let daemon = Mutex::new(Daemon::new(
            ServeState::new(32, 8).unwrap(),
            Some(path.clone()),
            4,
        ));
        // Accesses reach the table in blocks of WIRE_BLOCK_LEN; a query
        // flushes the tail, so two WSS queries make two cadence saves.
        let out = drive(
            &daemon,
            "HELLO t\n1\n2\n3\n1\n2\nWSS t\n4\n5\n6\n7\nWSS t\nSAVE\n",
        );
        assert!(out.contains("OK saved "), "{out}");
        let mut expected = ServeState::new(32, 8).unwrap();
        let t = expected.ensure_tenant("t").unwrap();
        expected.record_block(t, &[1, 2, 3, 1, 2]);
        expected.record_block(t, &[4, 5, 6, 7]);
        for _ in 0..3 {
            expected.note_save();
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected.to_json());
        let mut daemon = daemon.into_inner().unwrap();
        assert_eq!(daemon.finish().unwrap(), Some(path.display().to_string()));
        assert!(!Heartbeat::sidecar_path(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `count` access lines, one per address from `first` on.
    fn access_lines(first: u64, count: usize) -> String {
        (first..first + count as u64)
            .map(|a| format!("{a}\n"))
            .collect()
    }

    #[test]
    fn a_failed_background_write_is_reported_by_save_and_shutdown_only() {
        let dir = scratch_dir("blocked");
        let blocker = dir.join("not-a-directory");
        std::fs::write(&blocker, "").unwrap();
        let path = blocker.join("serve.ckpt.json");
        let daemon = Mutex::new(Daemon::new(
            ServeState::new(32, 8).unwrap(),
            Some(path),
            WIRE_BLOCK_LEN as u64,
        ));
        // One full block for `a` reaches a cadence save point, whose write
        // fails on the saver thread. Then two more snapshots through the
        // one-slot queue: the second is taken only once the first, and so
        // the failed write before it, is done.
        let first = drive(
            &daemon,
            &format!("HELLO a\n{}", access_lines(0, WIRE_BLOCK_LEN)),
        );
        assert_eq!(first, "OK tenant a\n");
        for _ in 0..2 {
            assert!(daemon.lock().unwrap().queue_save(None));
        }
        // Every request of the next session is served, the HELLO included,
        // so its accesses land in `b`; only SAVE reports the failure.
        let out = drive(&daemon, "HELLO b\n1\n2\n3\nWSS a\nWSS b\nSAVE\nPING\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "{out}");
        assert_eq!(lines[0], "OK tenant b", "{out}");
        assert!(lines[1].starts_with("OK wss a "), "{out}");
        assert_eq!(lines[2], "OK wss b 3", "{out}");
        assert!(lines[3].starts_with("ERR cannot write checkpoint"), "{out}");
        assert_eq!(lines[4], "OK pong", "{out}");
        let mut daemon = daemon.into_inner().unwrap();
        assert_eq!(daemon.state.tenant("a").unwrap().accesses(), 4096);
        assert_eq!(daemon.state.tenant("b").unwrap().accesses(), 3);
        let err = daemon.finish().unwrap_err();
        assert!(err.starts_with("cannot write checkpoint"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A reader that fails every read.
    struct Broken;

    impl std::io::Read for Broken {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("connection lost"))
        }
    }

    #[test]
    fn a_read_error_still_writes_every_queued_save() {
        let dir = scratch_dir("read-error");
        let path = dir.join("serve.ckpt.json");
        let daemon = Daemon::new(
            ServeState::new(32, 8).unwrap(),
            Some(path.clone()),
            WIRE_BLOCK_LEN as u64,
        );
        // A full block reaches a cadence save point, then a short tail,
        // then the stream fails.
        let script = format!("HELLO t\n{}", access_lines(0, WIRE_BLOCK_LEN + 7));
        let reader = BufReader::new(std::io::Cursor::new(script).chain(Broken));
        let Err(err) = run_to_shutdown(daemon, |daemon| run_stdin_session(daemon, reader)) else {
            panic!("a failed read must fail the session");
        };
        assert!(err.0.contains("connection lost"), "{err}");
        // The cadence save and the shutdown save were both written, and
        // the saver was joined before the heartbeat was retired.
        let mut expected = ServeState::new(32, 8).unwrap();
        let t = expected.ensure_tenant("t").unwrap();
        let addrs: Vec<u64> = (0..WIRE_BLOCK_LEN as u64 + 7).collect();
        expected.record_block(t, &addrs[..WIRE_BLOCK_LEN]);
        expected.note_save();
        expected.record_block(t, &addrs[WIRE_BLOCK_LEN..]);
        expected.note_save();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected.to_json());
        assert!(!Heartbeat::sidecar_path(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A reader that hands out `chunk` bytes per read, with a read timeout
    /// before each read, like a slow TCP peer.
    struct Stuttering {
        bytes: std::io::Cursor<Vec<u8>>,
        chunk: usize,
        timed_out: bool,
    }

    impl std::io::Read for Stuttering {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.timed_out = !self.timed_out;
            if self.timed_out {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let len = buf.len().min(self.chunk);
            self.bytes.read(&mut buf[..len])
        }
    }

    fn drive_stuttering(daemon: &Mutex<Daemon>, script: &str, chunk: usize) -> String {
        let reader = Stuttering {
            bytes: std::io::Cursor::new(script.as_bytes().to_vec()),
            chunk,
            timed_out: false,
        };
        run_stdin_session(daemon, BufReader::new(reader)).unwrap()
    }

    #[test]
    fn read_timeouts_mid_line_keep_the_line() {
        let script = "HELLO t\n12\n345\n12\nWSS t\nPING\nMRC t 4";
        let whole = drive(&daemon(64, 8, None), script);
        assert!(whole.starts_with("OK tenant t\nOK wss t 2\nOK pong\nOK mrc t "));
        for chunk in 1..=4 {
            assert_eq!(drive_stuttering(&daemon(64, 8, None), script, chunk), whole);
        }
        // The line bound holds across timeouts too.
        let daemon = daemon(64, 8, None);
        let long = format!("PING\n{}\nPING\n", "7".repeat(MAX_LINE_BYTES + 1));
        let out = drive_stuttering(&daemon, &long, 1000);
        assert_eq!(out, "OK pong\nERR line exceeds 4096 bytes\n");
        let fits = format!("HELLO t\n{}\nPING\n", "0".repeat(MAX_LINE_BYTES));
        let out = drive_stuttering(&daemon, &fits, 1000);
        assert_eq!(out, "OK tenant t\nOK pong\n");
    }
}
