//! `serve-loopback`: `symloc serve --port 0 --checkpoint F` resumed from
//! an 8-tenant checkpoint, fed by one ingest connection, first at full
//! speed and then paced beside an open-loop query mix on a second
//! connection; plus the traced replay of the daemon's layers.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use symloc_core::jsonio;
use symloc_core::partition::{self, Bounds};
use symloc_core::serve::ServeState;
use symloc_trace::stream::AccessSink;
use symloc_trace::wire::{parse_request, AccessBatcher, Request, WIRE_BLOCK_LEN};

use crate::inputs::{self, ServeInputs};
use crate::report::{median, quantile, Report};
use crate::tracer::Tracer;
use crate::{read_snapshot, sys, Ctx};

/// Budget of every `PARTITION` query, in cache blocks.
const PARTITION_BUDGET: u64 = 65_536;
/// `MRC`/`MRCJ` points the daemon defaults to.
const MRC_POINTS: usize = 16;
/// How long a daemon gets to save and exit after SIGTERM.
const GRACE: Duration = Duration::from_secs(20);

/// A running daemon and its stdout (kept open so its exit report never
/// hits a closed pipe).
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    /// Spawn to the `listening on` line, resume included.
    ready: Duration,
}

impl Daemon {
    fn spawn(symloc: &Path, checkpoint: &Path, metrics: Option<&Path>) -> Result<Daemon, String> {
        let start = Instant::now();
        let mut cmd = Command::new(symloc);
        cmd.args(crate::words("serve --port 0 --checkpoint"))
            .arg(checkpoint)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if let Some(metrics) = metrics {
            cmd.arg("--metrics").arg(metrics);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("serve exited before listening".to_string());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                let addr = addr
                    .parse()
                    .map_err(|e| format!("bad address {addr:?}: {e}"))?;
                return Ok(Daemon {
                    child,
                    stdout,
                    addr,
                    ready: start.elapsed(),
                });
            }
        }
    }

    /// SIGTERM, then wait: the daemon saves its checkpoint and exits 0.
    /// Returns its peak RSS in MB.
    fn stop(self) -> Result<f64, String> {
        let Daemon {
            child, mut stdout, ..
        } = self;
        let exit = sys::terminate(child, GRACE)?;
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut stdout, &mut rest);
        if exit.success() {
            Ok(exit.peak_rss_mb)
        } else {
            Err(format!("serve exited with {:?}", exit.code))
        }
    }
}

/// Reads reply lines off a connection and notes when the first byte of
/// each arrived.
///
/// The daemon writes a reply's text and its newline in two writes. Its
/// Nagle algorithm holds the second write, and the text of any later
/// reply, until the client ACKs the first; a client that holds its ACK
/// for a reply (delayed ACK, ~40 ms on Linux) gets one reply per ACK.
/// With `quickack` the reader ACKs every read at once, so the daemon's
/// own work is what it times. Without it, it waits like a plain client.
struct ReplyReader {
    stream: TcpStream,
    quickack: bool,
    partial: Vec<u8>,
    partial_at: Option<Instant>,
    lines: VecDeque<(String, Instant)>,
    /// A reply was taken before its newline arrived; drop that newline.
    skip_newline: bool,
}

impl ReplyReader {
    fn new(stream: TcpStream) -> ReplyReader {
        ReplyReader {
            stream,
            quickack: true,
            partial: Vec::new(),
            partial_at: None,
            lines: VecDeque::new(),
            skip_newline: false,
        }
    }

    /// Blocks for the next bytes and splits them into lines.
    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 16 * 1024];
        let n = match self.stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed".to_string()),
            Ok(n) => n,
            Err(e) => return Err(e.to_string()),
        };
        let now = Instant::now();
        if self.quickack {
            sys::quickack(&self.stream);
        }
        for &byte in &chunk[..n] {
            if byte != b'\n' {
                self.partial_at.get_or_insert(now);
                self.partial.push(byte);
            } else if self.partial.is_empty() && self.skip_newline {
                self.skip_newline = false;
            } else {
                let line = String::from_utf8_lossy(&self.partial).into_owned();
                self.lines
                    .push_back((line, self.partial_at.take().unwrap_or(now)));
                self.partial.clear();
            }
        }
        Ok(())
    }

    /// The next reply line and the arrival of its first byte.
    fn next(&mut self) -> Result<(String, Instant), String> {
        loop {
            if let Some(reply) = self.lines.pop_front() {
                return Ok(reply);
            }
            self.fill()?;
        }
    }

    /// Like [`ReplyReader::next`], but a reply whose text is `closing`
    /// returns as soon as that text arrived, without its newline.
    fn next_or_closing(&mut self, closing: &str) -> Result<(String, Instant), String> {
        loop {
            if let Some(reply) = self.lines.pop_front() {
                return Ok(reply);
            }
            if self.partial == closing.as_bytes() {
                self.partial.clear();
                self.skip_newline = true;
                let at = self.partial_at.take().unwrap_or_else(Instant::now);
                return Ok((closing.to_string(), at));
            }
            self.fill()?;
        }
    }
}

/// One line-framed connection.
struct Conn {
    reader: ReplyReader,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: ReplyReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            writer: stream,
        })
    }

    /// Sends one request and waits for its whole reply line.
    fn request(&mut self, line: &str) -> Result<String, String> {
        // One write per line: a split write would wait on the peer's ACK.
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        Ok(self.reader.next()?.0)
    }
}

/// One request of the open loop, awaiting its reply.
struct InFlight {
    due: Instant,
    verb: &'static str,
    /// The last request of its arrival: its reply times the arrival.
    closes: bool,
}

/// What one measured daemon session observed.
#[derive(Default)]
struct SessionOut {
    /// All ingest rounds, full-speed and paced.
    rounds: usize,
    /// Times of the full-speed rounds.
    round_s: Vec<f64>,
    /// Replies to the open loop's requests.
    queries: usize,
    /// Latency of each query arrival (all verbs answered).
    query_ms: Vec<f64>,
    ping_loaded_ms: Vec<f64>,
    ping_idle_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    /// Final `MRCJ` answers per tenant, then the final `PARTITION` answer.
    answers: Vec<String>,
    peak_rss_mb: f64,
}

/// The verbs of one open-loop arrival: every query verb once, sent
/// together, as a client refreshing its whole view of the fleet does.
const QUERY_VERBS: [&str; 5] = ["MRC", "MRCJ", "WSS", "STATS", "PARTITION"];

/// Arrival `i` of the open loop: the query verbs for the next tenant in
/// turn. With `probes`, every fourth arrival is a lone `PING` instead, so
/// its round trip under load is measured.
fn query_batch(i: usize, tenants: &[String], probes: bool) -> Vec<(&'static str, String)> {
    if probes && i % 4 == 3 {
        return vec![("PING", "PING".to_string())];
    }
    let tenant = &tenants[i % tenants.len()];
    QUERY_VERBS
        .iter()
        .map(|&verb| {
            let line = match verb {
                "STATS" => verb.to_string(),
                "PARTITION" => format!("PARTITION {PARTITION_BUDGET}"),
                _ => format!("{verb} {tenant}"),
            };
            (verb, line)
        })
        .collect()
}

fn sleep_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// Sends one ingest round and waits for the text of its closing `PING`
/// reply; returns the time from the round's first byte to that reply.
/// With `pace` (accesses per second) each segment is sent at its due
/// time; without it the round goes as fast as the daemon takes it.
fn ingest_round(
    ingest: &mut Conn,
    inputs: &ServeInputs,
    pace: Option<f64>,
    report: &mut Report,
) -> Result<f64, String> {
    let first_byte = Instant::now();
    let mut send = |bytes: &[u8]| {
        ingest
            .writer
            .write_all(bytes)
            .map_err(|e| format!("ingest write: {e}"))
    };
    let mut sent = 0;
    if let Some(pace) = pace {
        for (k, &end) in inputs.segment_ends.iter().enumerate() {
            let offset = (k * WIRE_BLOCK_LEN) as f64 / pace;
            sleep_until(first_byte + Duration::from_secs_f64(offset));
            send(&inputs.wire[sent..end])?;
            sent = end;
        }
    }
    send(&inputs.wire[sent..])?;
    let mut hellos = 0;
    let done = loop {
        let (line, at) = ingest.reader.next_or_closing("OK pong")?;
        if line == "OK pong" {
            break at;
        }
        hellos += 1;
        report.op(line.starts_with("OK tenant "));
    };
    report.op(hellos == inputs.segments.len());
    Ok(done.saturating_duration_since(first_byte).as_secs_f64())
}

/// Drives one daemon: optional idle `PING`s; then ingest rounds alone, as
/// fast as the daemon takes them, for half the run (throughput); then
/// ingest paced at `Sizes::ingest_pace` beside the open-loop queries for
/// the other half (latency); then the final answers. With a spare core
/// the paced phase times the daemon's work and lock waits rather than
/// the host's scheduling of a saturated CPU. Protocol failures are
/// counted in `report`.
fn session(
    ctx: &Ctx,
    daemon: &Daemon,
    inputs: &ServeInputs,
    probes: bool,
    report: &mut Report,
) -> Result<SessionOut, String> {
    let mut out = SessionOut::default();
    let mut ingest = Conn::open(daemon.addr)?;
    let mut query = Conn::open(daemon.addr)?;
    report.ops(2, 0);
    if probes {
        // Idle round trips to the reply's newline as a plain client sees
        // them, delayed ACK included: the transport floor.
        query.reader.quickack = false;
        for _ in 0..20 {
            let sent = Instant::now();
            let reply = query.request("PING")?;
            out.ping_idle_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            report.op(reply == "OK pong");
        }
        query.reader.quickack = true;
    }

    let half = ctx.seconds / 2;
    let start = Instant::now();
    while out.round_s.is_empty() || start.elapsed() < half {
        out.round_s
            .push(ingest_round(&mut ingest, inputs, None, report)?);
    }

    // Open loop: the writer sends each arrival's requests at its due time,
    // in one write, whether or not earlier replies arrived. The reader
    // times each arrival from its due time to the first byte of its last
    // reply, so a stalled daemon shows up as latency, not as fewer
    // queries. Due times are a seeded Poisson process at `rate`: they
    // sample the daemon uniformly in time, where a fixed period would beat
    // against its save cadence.
    let in_flight: Arc<Mutex<VecDeque<InFlight>>> = Arc::default();
    let stop = Arc::new(AtomicBool::new(false));
    let mut writer = query.writer.try_clone().map_err(|e| e.to_string())?;
    let writer_thread = {
        let (in_flight, stop, tenants) = (in_flight.clone(), stop.clone(), inputs.tenants.clone());
        let (rate, mut state) = (ctx.sizes.query_rate, ctx.seed);
        std::thread::spawn(move || -> (TcpStream, Vec<f64>, usize) {
            let (mut lag_ms, mut requests) = (Vec::new(), 0);
            let mut due = Instant::now();
            for i in 0.. {
                state = inputs::mix(state);
                let uniform = ((state >> 11) + 1) as f64 / (1u64 << 53) as f64;
                due += Duration::from_secs_f64(-uniform.ln() / rate);
                sleep_until(due);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let batch = query_batch(i, &tenants, probes);
                let mut bytes = String::new();
                {
                    let mut queue = in_flight.lock().expect("query queue");
                    for (k, (verb, line)) in batch.iter().enumerate() {
                        let closes = k + 1 == batch.len();
                        queue.push_back(InFlight { due, verb, closes });
                        bytes.push_str(line);
                        bytes.push('\n');
                    }
                }
                requests += batch.len();
                lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
                if writer.write_all(bytes.as_bytes()).is_err() {
                    break;
                }
            }
            (writer, lag_ms, requests)
        })
    };
    let reader_thread = {
        let in_flight = in_flight.clone();
        let mut reader = query;
        std::thread::spawn(move || -> (Conn, Vec<(InFlight, f64, bool)>) {
            let mut replies = Vec::new();
            while let Ok((line, first_byte)) = reader.reader.next() {
                let Some(request) = in_flight.lock().expect("query queue").pop_front() else {
                    // A reply nothing was waiting for.
                    let verb = "unexpected";
                    let due = Instant::now();
                    replies.push((
                        InFlight {
                            due,
                            verb,
                            closes: false,
                        },
                        0.0,
                        false,
                    ));
                    break;
                };
                if request.verb == "END" {
                    break;
                }
                let ms = first_byte.saturating_duration_since(request.due);
                replies.push((request, ms.as_secs_f64() * 1e3, line.starts_with("OK ")));
            }
            (reader, replies)
        })
    };

    let start = Instant::now();
    let mut paced_rounds = 0;
    while paced_rounds == 0 || start.elapsed() < half {
        ingest_round(&mut ingest, inputs, Some(ctx.sizes.ingest_pace), report)?;
        paced_rounds += 1;
    }
    out.rounds = out.round_s.len() + paced_rounds;

    stop.store(true, Ordering::SeqCst);
    let (mut writer, lag_ms, requests) =
        writer_thread.join().map_err(|_| "query writer panicked")?;
    out.lag_ms = lag_ms;
    // A final PING marks the end of the open loop on the reply stream.
    in_flight.lock().expect("query queue").push_back(InFlight {
        due: Instant::now(),
        verb: "END",
        closes: true,
    });
    writer.write_all(b"PING\n").map_err(|e| e.to_string())?;
    let (mut query, replies) = reader_thread.join().map_err(|_| "query reader panicked")?;
    let missing = requests.saturating_sub(replies.len()) as u64;
    report.ops(missing, missing);
    out.queries = replies.len();
    for (request, ms, ok) in replies {
        report.op(ok);
        match request {
            InFlight { closes: false, .. } => {}
            InFlight { verb: "PING", .. } => out.ping_loaded_ms.push(ms),
            _ => out.query_ms.push(ms),
        }
    }

    for tenant in &inputs.tenants {
        out.answers.push(query.request(&format!("MRCJ {tenant}"))?);
    }
    out.answers
        .push(query.request(&format!("PARTITION {PARTITION_BUDGET}"))?);
    Ok(out)
}

/// The final answers an in-process `ServeState` gives after resuming the
/// same checkpoint and recording the same per-tenant blocks.
fn expected_answers(inputs: &ServeInputs, rounds: usize) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(&inputs.checkpoint).map_err(|e| e.to_string())?;
    let mut state = ServeState::from_json(&text)?;
    for _ in 0..rounds {
        for (tenant, block) in &inputs.segments {
            let index = state.ensure_tenant(&inputs.tenants[*tenant])?;
            state.record_block(index, block);
        }
    }
    let mut answers = Vec::new();
    for tenant in &inputs.tenants {
        answers.push(format!(
            "OK mrcj {tenant} {}",
            state.mrcj_line(tenant, MRC_POINTS)?
        ));
    }
    answers.push(format!(
        "OK {}",
        state.partition(PARTITION_BUDGET)?.render_compact()
    ));
    Ok(answers)
}

fn check_answers(got: &[String], want: &[String]) -> Result<(), String> {
    match got.iter().zip(want).find(|(g, w)| g != w) {
        _ if got.len() != want.len() => {
            Err(format!("{} answers, expected {}", got.len(), want.len()))
        }
        Some((g, w)) => Err(format!("daemon answered {g:?}, expected {w:?}")),
        None => Ok(()),
    }
}

/// A fresh copy of the resume checkpoint, so every daemon starts from the
/// same state.
fn fresh_checkpoint(
    ctx: &Ctx,
    inputs: &ServeInputs,
    name: &str,
) -> Result<std::path::PathBuf, String> {
    let path = sys::fresh_path(&ctx.work, name);
    std::fs::copy(&inputs.checkpoint, &path).map_err(|e| format!("cannot copy checkpoint: {e}"))?;
    Ok(path)
}

/// Spawns a daemon, runs a session against it, stops it, and checks its
/// final answers.
fn measured_session(
    ctx: &Ctx,
    inputs: &ServeInputs,
    probes: bool,
    metrics: Option<&Path>,
    report: &mut Report,
) -> Result<SessionOut, String> {
    let checkpoint = fresh_checkpoint(ctx, inputs, "serve.json")?;
    let daemon = Daemon::spawn(&ctx.symloc, &checkpoint, metrics)?;
    let out = session(ctx, &daemon, inputs, probes, report);
    let stopped = daemon.stop();
    report.check(
        "serve shutdown",
        stopped.as_ref().map(|_| ()).map_err(Clone::clone),
    );
    let mut out = out?;
    out.peak_rss_mb = stopped.unwrap_or(0.0);
    let mut want = expected_answers(inputs, out.rounds)?;
    if ctx.corrupt {
        want[0].push(' ');
    }
    report.check("serve final answers", check_answers(&out.answers, &want));
    Ok(out)
}

/// Untraced run: set-up probes, then one measured session.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let inputs = inputs::build_serve(&ctx.work, &ctx.sizes, ctx.seed)?;
    // Half the set-ups before the session and half after, so they sample
    // the host at both ends of the run.
    let mut setups = Vec::new();
    let mut setup = |report: &mut Report| -> Result<(), String> {
        let checkpoint = fresh_checkpoint(ctx, &inputs, "setup.json")?;
        match Daemon::spawn(&ctx.symloc, &checkpoint, None) {
            Ok(daemon) => {
                setups.push(daemon.ready.as_secs_f64());
                report.check("serve set-up", daemon.stop().map(|_| ()));
            }
            Err(e) => report.check("serve set-up", Err(e)),
        }
        Ok(())
    };
    let before = ctx.sizes.setup_reps.div_ceil(2);
    for _ in 0..before {
        setup(report)?;
    }
    let out = measured_session(ctx, &inputs, false, None, report)?;
    for _ in before..ctx.sizes.setup_reps {
        setup(report)?;
    }
    let round_accesses = inputs.round_accesses() as f64;
    let ingest_s: f64 = out.round_s.iter().sum();
    println!(
        "samples: {} full-speed ingest round(s) of {} accesses (median round {:.3} s), {} paced; {} query arrivals of {} verbs ({} replies) at {}/s (mean {:.3} ms, p95 {:.3} ms, generator lag p95 {:.3} ms), {} set-up run(s)",
        out.round_s.len(),
        round_accesses,
        median(&out.round_s),
        out.rounds - out.round_s.len(),
        out.query_ms.len(),
        QUERY_VERBS.len(),
        out.queries,
        ctx.sizes.query_rate,
        out.query_ms.iter().sum::<f64>() / out.query_ms.len().max(1) as f64,
        quantile(&out.query_ms, 0.95),
        quantile(&out.lag_ms, 0.95),
        setups.len()
    );
    report.metric(
        "throughput_per_s",
        round_accesses * out.round_s.len() as f64 / ingest_s,
        "1/s",
    );
    report.metric("latency_p50_ms", median(&out.query_ms), "ms");
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", out.peak_rss_mb, "MB");
    Ok(())
}

/// Feeds `ServeState::record_block` from an `AccessBatcher` flush, as a
/// `serve.record` span.
struct RecordSink<'a> {
    state: &'a mut ServeState,
    index: usize,
    tracer: &'a mut Tracer,
}

impl AccessSink for RecordSink<'_> {
    fn on_access(&mut self, addr: u64) {
        self.on_block(&[addr]);
    }

    fn on_block(&mut self, block: &[u64]) {
        let (state, index) = (&mut *self.state, self.index);
        self.tracer
            .span("serve.record", |_| state.record_block(index, block));
    }
}

/// Traced run of the daemon's layers: resume, wire parse, batching,
/// per-tenant recording, every query verb, the partitioner, saves; then a
/// real daemon for the transport probes and its own metrics.
pub fn profile(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let inputs = inputs::build_serve(&ctx.work, &ctx.sizes, ctx.seed)?;
    let mut tracer = Tracer::new(true);
    let text = std::fs::read_to_string(&inputs.checkpoint).map_err(|e| e.to_string())?;
    let mut state = tracer.span("serve.resume", |_| ServeState::from_json(&text))?;

    let wire = std::str::from_utf8(&inputs.wire).map_err(|e| e.to_string())?;
    let mut lines = wire.lines().peekable();
    let mut batcher = AccessBatcher::new();
    let (mut line_count, mut access_count) = (0u64, 0u64);
    while lines.peek().is_some() {
        // One tenant segment at a time: parse its lines, then batch them
        // into the tenant the segment's HELLO bound.
        let (tenant, addrs) = tracer.span("wire.parse", |_| {
            let mut tenant = None;
            let mut addrs = Vec::new();
            while let Some(line) = lines.next() {
                line_count += 1;
                match parse_request(line) {
                    Ok(Request::Hello(name)) => tenant = Some(name),
                    Ok(Request::Access(addr)) => addrs.push(addr),
                    _ => {}
                }
                if lines.peek().is_some_and(|next| next.starts_with('H')) {
                    break;
                }
            }
            (tenant, addrs)
        });
        let Some(tenant) = tenant else { continue };
        access_count += addrs.len() as u64;
        let index = state.ensure_tenant(tenant)?;
        tracer.span("wire.batch", |t| {
            let mut sink = RecordSink {
                state: &mut state,
                index,
                tracer: t,
            };
            for addr in addrs {
                if batcher.push(addr) {
                    batcher.flush(&mut sink);
                }
            }
            batcher.flush(&mut sink);
        });
    }

    let curves = state.tenant_curves()?;
    let bounds = vec![Bounds::default(); curves.len()];
    let checkpoint = sys::fresh_path(&ctx.work, "profile-save.json");
    let mut checkpoint_bytes = 0;
    for _ in 0..10 {
        for tenant in &inputs.tenants {
            tracer.span("serve.mrc", |_| state.mrc(tenant, MRC_POINTS))?;
            tracer.span("serve.mrcj", |_| state.mrcj_line(tenant, MRC_POINTS))?;
        }
        tracer.span("serve.stats", |_| state.fleet_metrics());
        tracer.span("serve.partition", |_| state.partition(PARTITION_BUDGET))?;
        tracer.span("partition.hull", |_| {
            curves.iter().map(|c| c.hull()).collect::<Vec<_>>()
        });
        tracer.span("partition.solve", |_| {
            partition::solve(&curves, PARTITION_BUDGET, &bounds)
        })?;
        tracer
            .span("serve.save", |_| {
                let json = state.to_json();
                checkpoint_bytes = json.len();
                jsonio::save_atomic(&checkpoint, &json)
            })
            .map_err(|e| format!("cannot save: {e}"))?;
    }

    // A real daemon: idle and loaded PING round trips, generator lag, and
    // the save count from its --metrics snapshot.
    let metrics = sys::fresh_path(&ctx.work, "serve-metrics.json");
    let out = measured_session(ctx, &inputs, true, Some(&metrics), report)?;
    let snapshot = read_snapshot(&metrics)?;

    tracer.print_layers("serve");
    report.metric(
        "wire.parse_ns_per_line",
        tracer.self_ns("wire.parse") / line_count as f64,
        "ns",
    );
    report.metric(
        "wire.batch_ns_per_access",
        tracer.self_ns("wire.batch") / access_count as f64,
        "ns",
    );
    report.metric(
        "serve.record_ns_per_access",
        tracer.self_ns("serve.record") / access_count as f64,
        "ns",
    );
    for (metric, layer) in [
        ("serve.mrc_ns", "serve.mrc"),
        ("serve.mrcj_ns", "serve.mrcj"),
        ("serve.stats_ns", "serve.stats"),
        ("serve.partition_ns", "serve.partition"),
        ("partition.hull_ns", "partition.hull"),
        ("partition.solve_ns", "partition.solve"),
        ("serve.save_ns", "serve.save"),
    ] {
        report.metric(metric, tracer.per_call_ns(layer), "ns");
    }
    report.metric("serve.checkpoint_bytes", checkpoint_bytes as f64, "B");
    let saves = snapshot
        .counter("serve.saves")
        .ok_or("snapshot has no serve.saves counter")?;
    report.metric("serve.saves", saves as f64, "count");
    report.metric("serve.resume_ns", tracer.self_ns("serve.resume"), "ns");
    report.metric("tcp.ping_rtt_idle_ms", median(&out.ping_idle_ms), "ms");
    report.metric("tcp.ping_rtt_loaded_ms", median(&out.ping_loaded_ms), "ms");
    report.metric("client.query_lag_ms", quantile(&out.lag_ms, 0.95), "ms");
    tracer
        .write_json(&ctx.work.join("spans-serve.json"))
        .map_err(|e| format!("cannot write spans: {e}"))
}
