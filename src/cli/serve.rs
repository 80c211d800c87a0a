//! `symloc serve` — the multi-tenant online-MRC daemon.
//!
//! Accepts live access streams over the line-framed wire protocol
//! (`symloc_trace::wire`), demultiplexes them into per-tenant
//! [`symloc_core::tracesweep::ShardsEstimator`]s inside a [`ServeState`],
//! and answers `MRC` / `MRCJ` /
//! `WSS` / `STATS` / `PARTITION` queries from any connection. Two
//! transports share one session engine:
//!
//! * `--stdin`: a single session over standard input, responses
//!   accumulated into the command's report — the deterministic shape the
//!   tests drive.
//! * `--port P`: a TCP listener (`127.0.0.1`, `0` = ephemeral; the bound
//!   address is printed immediately), thread per connection, state behind
//!   one mutex. `SIGTERM`/`SIGINT` save the checkpoint and exit cleanly.
//!
//! With `--checkpoint`, the tenant table persists through the
//! [`JobKind::ServeState`] codec: saves are atomic, every save refreshes
//! a [`Heartbeat`] liveness sidecar (`symloc job status` reads it), and a
//! restarted daemon resumes every tenant byte-identically — queries
//! answer from persisted state only, so an answer straddling a restart
//! never changes.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use std::fmt::Write as _;

use symloc_core::job::{Heartbeat, JobKind};
use symloc_core::obs::{Metric, MetricsRegistry, Span};
use symloc_core::serve::ServeState;
use symloc_core::tracesweep::MrcPoint;
use symloc_trace::stream::AccessSink;
use symloc_trace::wire::{parse_request, AccessBatcher, Request};

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

/// The daemon behind the transports: the tenant table plus persistence
/// policy. TCP mode wraps it in a mutex; stdin mode owns it directly.
struct Daemon {
    state: ServeState,
    checkpoint: Option<PathBuf>,
    save_every: u64,
    since_save: u64,
    run_span: Span,
}

impl Daemon {
    /// Saves the checkpoint (when configured) and refreshes the liveness
    /// sidecar. Every save is atomic and bumps the `serve.saves` counter.
    fn save_now(&mut self) -> Result<Option<String>, String> {
        let Some(path) = self.checkpoint.clone() else {
            return Ok(None);
        };
        self.state.note_save();
        self.state
            .save(&path)
            .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))?;
        self.since_save = 0;
        // Liveness sidecar: reuse the JobRunner heartbeat codec so
        // `symloc job status` reports the daemon as live. Best-effort,
        // exactly like the runner's own sidecar writes.
        let _ = std::fs::write(Heartbeat::sidecar_path(&path), self.heartbeat().to_json());
        Ok(Some(path.display().to_string()))
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

    /// Streams `block` into `tenant` and saves when the cadence says so.
    fn record(&mut self, tenant: &str, block: &[u64]) -> Result<(), String> {
        let index = self.state.ensure_tenant(tenant)?;
        self.state.record_block(index, block);
        self.since_save += block.len() as u64;
        if self.save_every > 0 && self.since_save >= self.save_every {
            self.save_now()?;
        }
        Ok(())
    }

    /// Removes the liveness sidecar — the daemon is no longer live.
    fn retire_heartbeat(&self) {
        if let Some(path) = &self.checkpoint {
            let _ = std::fs::remove_file(Heartbeat::sidecar_path(path));
        }
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
fn handle_line(daemon: &Mutex<Daemon>, session: &mut Session, line: &str) -> Action {
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(reason) => return Action::Reply(err_line(&reason)),
    };
    match request {
        // Comment lines never touch the daemon — a piped text trace's
        // header costs no lock traffic.
        Request::Comment => Action::Silent,
        Request::Access(addr) => {
            if session.tenant.is_none() {
                return Action::Reply(err_line("no tenant bound (send HELLO <tenant> first)"));
            }
            if session.batcher.push(addr) {
                let mut daemon = daemon.lock().unwrap();
                if let Err(reason) = session.flush(&mut daemon) {
                    return Action::Reply(err_line(&reason));
                }
            }
            Action::Silent
        }
        _ => {
            let mut daemon = daemon.lock().unwrap();
            if let Err(reason) = session.flush(&mut daemon) {
                return Action::Reply(err_line(&reason));
            }
            match request {
                Request::Access(_) | Request::Comment => unreachable!("handled above"),
                Request::Hello(tenant) => match daemon.state.ensure_tenant(tenant) {
                    Ok(_) => {
                        session.tenant = Some(tenant.to_string());
                        Action::Reply(format!("OK tenant {tenant}"))
                    }
                    Err(reason) => Action::Reply(err_line(&reason)),
                },
                Request::Mrc { tenant, points } => {
                    match daemon.state.mrc(tenant, points.unwrap_or(16)) {
                        Ok(points) => Action::Reply(mrc_line(tenant, &points)),
                        Err(reason) => Action::Reply(err_line(&reason)),
                    }
                }
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
                Request::Save => match daemon.save_now() {
                    Ok(Some(path)) => Action::Reply(format!(
                        "OK saved {path} tenants {}",
                        daemon.state.tenant_count()
                    )),
                    Ok(None) => Action::Reply(err_line(
                        "no checkpoint configured (start with --checkpoint FILE)",
                    )),
                    Err(reason) => Action::Reply(err_line(&reason)),
                },
                Request::Ping => Action::Reply("OK pong".to_string()),
                Request::Quit => Action::Close("OK bye".to_string()),
            }
        }
    }
}

/// Flushes a session's tail into the daemon at connection close.
fn close_session(daemon: &Mutex<Daemon>, session: &mut Session) {
    let mut daemon = daemon.lock().unwrap();
    let _ = session.flush(&mut daemon);
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
    let mut session = Session::new();
    let mut out = String::new();
    for line in reader.lines() {
        let line = line.map_err(|e| CliError(format!("cannot read stream: {e}")))?;
        match handle_line(daemon, &mut session, &line) {
            Action::Silent => {}
            Action::Reply(reply) => {
                let _ = writeln!(out, "{reply}");
            }
            Action::Close(reply) => {
                let _ = writeln!(out, "{reply}");
                break;
            }
        }
    }
    close_session(daemon, &mut session);
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

/// One TCP connection: line in, response line out, until QUIT/EOF/
/// shutdown. Read timeouts keep the thread polling the shutdown flag.
fn run_tcp_session(daemon: &Arc<Mutex<Daemon>>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut session = Session::new();
    let mut line = String::new();
    while !SHUTDOWN.load(Ordering::SeqCst) {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {
                let trimmed = line.trim_end_matches('\n');
                match handle_line(daemon, &mut session, trimmed) {
                    Action::Silent => {}
                    Action::Reply(reply) => {
                        if send_reply(&mut writer, reply).is_err() {
                            break;
                        }
                    }
                    Action::Close(reply) => {
                        let _ = send_reply(&mut writer, reply);
                        break;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    close_session(daemon, &mut session);
}

/// The TCP transport: accept loop + thread per connection, until a
/// termination signal. Returns the daemon for the caller's final save
/// and report.
fn run_tcp(daemon: Daemon, port: u16) -> Result<Daemon, CliError> {
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

    let daemon = Arc::new(Mutex::new(daemon));
    let mut workers = Vec::new();
    while !SHUTDOWN.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let daemon = Arc::clone(&daemon);
                workers.push(std::thread::spawn(move || run_tcp_session(&daemon, stream)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            Err(e) => return Err(CliError(format!("accept failed: {e}"))),
        }
        workers.retain(|w| !w.is_finished());
    }
    for worker in workers {
        let _ = worker.join();
    }
    Ok(Arc::try_unwrap(daemon)
        .map_err(|_| CliError("connection thread leaked past join".to_string()))?
        .into_inner()
        .unwrap())
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
    let daemon = Daemon {
        state,
        checkpoint,
        save_every,
        since_save: 0,
        run_span: Span::start(),
    };

    let mut out = String::new();
    if resumed {
        let _ = writeln!(
            out,
            "resumed {} tenant(s), {} access(es) from checkpoint",
            daemon.state.tenant_count(),
            daemon.state.total_accesses()
        );
    }
    let mut daemon = if stdin_mode {
        let daemon = Mutex::new(daemon);
        let session_out = run_stdin_session(&daemon, std::io::stdin().lock())?;
        out.push_str(&session_out);
        daemon.into_inner().unwrap()
    } else {
        run_tcp(daemon, port)?
    };
    let saved = daemon.save_now().map_err(CliError)?;
    daemon.retire_heartbeat();
    super::flags::write_metrics(metrics_path.as_deref(), &daemon.state.fleet_metrics())?;
    out.push_str(&summary(&daemon, saved.as_deref()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn daemon(budget: usize, max_tenants: usize, checkpoint: Option<PathBuf>) -> Mutex<Daemon> {
        Mutex::new(Daemon {
            state: ServeState::new(budget, max_tenants).unwrap(),
            checkpoint,
            save_every: 0,
            since_save: 0,
            run_span: Span::start(),
        })
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
        let dir = std::env::temp_dir().join(format!("symloc-serve-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
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
        let second = Mutex::new(Daemon {
            state,
            checkpoint: Some(path.clone()),
            save_every: 0,
            since_save: 0,
            run_span: Span::start(),
        });
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
}
