//! End-to-end smoke test for `symloc serve`: the real binary, both
//! transports. Two tenants stream interleaved accesses, MRC answers are
//! collected, the daemon is killed (EOF for stdin mode, SIGTERM for TCP
//! mode) and restarted from its checkpoint — and the restarted daemon
//! must answer the same queries with **byte-identical** lines.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};

const SYMLOC: &str = env!("CARGO_BIN_EXE_symloc");

/// Runs `symloc serve --stdin` feeding `script`, returning stdout.
fn serve_stdin(checkpoint: &Path, script: &str) -> String {
    let mut child = Command::new(SYMLOC)
        .args([
            "serve",
            "--stdin",
            "--budget",
            "32",
            "--checkpoint",
            &checkpoint.to_string_lossy(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn symloc serve --stdin");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .expect("write script");
    let output = child.wait_with_output().expect("daemon exits");
    assert!(
        output.status.success(),
        "serve --stdin failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 report")
}

/// The `OK mrc ...` answer lines of a transcript, in order.
fn mrc_lines(transcript: &str) -> Vec<String> {
    transcript
        .lines()
        .filter(|l| l.starts_with("OK mrc "))
        .map(ToString::to_string)
        .collect()
}

#[test]
fn stdin_daemon_resumes_tenants_byte_identically() {
    let dir = std::env::temp_dir().join(format!("symloc_serve_e2e_stdin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("serve.ckpt.json");

    // Two tenants, interleaved; query both, then exit (EOF saves).
    let before = serve_stdin(
        &ckpt,
        "HELLO alpha\n1\n2\n3\n1\n2\nHELLO beta\n10\n20\n10\nHELLO alpha\n3\n1\n\
         MRC alpha\nMRC beta 8\nSTATS\nQUIT\n",
    );
    assert!(before.contains("OK tenant alpha"), "{before}");
    assert!(before.contains("serve.tenants=2"), "{before}");
    assert!(before.contains("checkpoint saved to"), "{before}");
    let first = mrc_lines(&before);
    assert_eq!(first.len(), 2, "{before}");

    // Restart from the checkpoint: same queries, byte-identical answers.
    let after = serve_stdin(&ckpt, "MRC alpha\nMRC beta 8\nQUIT\n");
    assert!(
        after.contains("resumed 2 tenant(s), 10 access(es) from checkpoint"),
        "{after}"
    );
    assert_eq!(mrc_lines(&after), first);
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawns the TCP daemon and parses the announced ephemeral address.
fn spawn_tcp(checkpoint: &Path) -> (Child, String) {
    spawn_tcp_with(checkpoint, &["--budget", "32"])
}

/// Spawns the TCP daemon on an ephemeral port with extra flags.
fn spawn_tcp_with(checkpoint: &Path, flags: &[&str]) -> (Child, String) {
    let mut child = Command::new(SYMLOC)
        .args(["serve", "--port", "0", "--checkpoint"])
        .arg(checkpoint)
        .args(flags)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn symloc serve --port 0");
    let mut banner = String::new();
    BufReader::new(child.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .expect("read listen banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    (child, addr)
}

/// Sends protocol lines over TCP, reading one reply per non-access line.
fn tcp_exchange(addr: &str, lines: &[&str]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut replies = Vec::new();
    for line in lines {
        writeln!(writer, "{line}").expect("send line");
        writer.flush().expect("flush line");
        let is_access = line.starts_with(|c: char| c.is_ascii_digit());
        if !is_access {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read reply");
            replies.push(reply.trim_end().to_string());
        }
    }
    replies
}

#[test]
fn tcp_daemon_survives_sigterm_and_answers_identically() {
    let dir = std::env::temp_dir().join(format!("symloc_serve_e2e_tcp_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("serve.ckpt.json");

    // First life: stream two tenants, query, save, quit the session.
    let (mut child, addr) = spawn_tcp(&ckpt);
    let replies = tcp_exchange(
        &addr,
        &[
            "HELLO alpha",
            "1",
            "2",
            "3",
            "1",
            "2",
            "HELLO beta",
            "10",
            "20",
            "10",
            "MRC alpha",
            "MRC beta 8",
            "STATS",
            "SAVE",
            "QUIT",
        ],
    );
    assert_eq!(replies[0], "OK tenant alpha", "{replies:?}");
    let first: Vec<String> = replies
        .iter()
        .filter(|r| r.starts_with("OK mrc "))
        .cloned()
        .collect();
    assert_eq!(first.len(), 2, "{replies:?}");
    assert!(
        replies.iter().any(|r| r.starts_with("OK saved ")),
        "{replies:?}"
    );
    assert!(
        replies.iter().any(|r| r.contains("serve.tenants=2")),
        "{replies:?}"
    );

    // Kill the daemon mid-stream with SIGTERM; it must exit cleanly
    // (final save + summary) rather than be torn down.
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon did not exit cleanly on SIGTERM");
    let mut summary = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut summary)
        .expect("read summary");
    assert!(summary.contains("2 tenant(s), 8 access(es)"), "{summary}");

    // Second life: resumed from the checkpoint, the same queries answer
    // with byte-identical lines.
    let (mut child, addr) = spawn_tcp(&ckpt);
    let replies = tcp_exchange(&addr, &["MRC alpha", "MRC beta 8", "QUIT"]);
    assert_eq!(&replies[..2], &first[..], "answers changed across restart");
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());
    assert!(child.wait().expect("daemon exits").success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plain_clients_get_each_reply_without_a_delayed_ack_stall() {
    // A plain client — one write per request, no TCP_NODELAY of its own —
    // waiting for every reply before the next request. A reply sent as
    // two segments waits out the client's delayed ACK (~40 ms each, ~2 s
    // for 50 round trips); one segment per reply answers at once.
    let dir = std::env::temp_dir().join(format!("symloc_serve_e2e_ping_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (mut child, addr) = spawn_tcp(&dir.join("serve.ckpt.json"));
    let stream = TcpStream::connect(&addr).expect("connect to daemon");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let start = std::time::Instant::now();
    for _ in 0..50 {
        writer.write_all(b"PING\n").expect("send PING");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert_eq!(reply, "OK pong\n");
    }
    let elapsed = start.elapsed();
    writer.write_all(b"QUIT\n").expect("send QUIT");
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());
    assert!(child.wait().expect("daemon exits").success());
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "50 sequential PING round trips took {elapsed:?}"
    );
}

/// Sends SIGTERM to the daemon and collects its exit and output.
fn terminate(child: Child) -> std::process::Output {
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());
    child.wait_with_output().expect("daemon exits")
}

/// `blocks` as wire lines after a `HELLO`, with `tail` appended.
fn access_script(tenant: &str, blocks: &[Vec<u64>], tail: &str) -> String {
    let mut script = format!("HELLO {tenant}\n");
    for addr in blocks.iter().flatten() {
        script.push_str(&addr.to_string());
        script.push('\n');
    }
    script.push_str(tail);
    script
}

#[test]
fn an_over_long_line_closes_only_its_own_connection() {
    let dir = std::env::temp_dir().join(format!("symloc_serve_e2e_long_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (child, addr) = spawn_tcp(&dir.join("serve.ckpt.json"));

    // 1 MiB without a newline. The daemon stops reading once the line
    // passes the bound, so the rest of the flood may fail to send.
    let stream = TcpStream::connect(&addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .unwrap();
    let mut writer = stream.try_clone().expect("clone stream");
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'7'; 1 << 20]);
    });
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    assert_eq!(reply, "ERR line exceeds 4096 bytes\n");
    // Then the connection is closed: end of stream or a reset, and no
    // further reply.
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(n) => assert_eq!(n, 0, "unexpected {rest:?}"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    flood.join().unwrap();

    // Another client is served as usual.
    let replies = tcp_exchange(&addr, &["PING", "QUIT"]);
    assert_eq!(replies, ["OK pong", "OK bye"]);
    assert!(terminate(child).status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn save_answers_after_the_saver_wrote_every_earlier_snapshot() {
    use symmetric_locality::core::serve::ServeState;

    let dir = std::env::temp_dir().join(format!("symloc_serve_e2e_saver_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("serve.ckpt.json");
    let (child, addr) = spawn_tcp_with(&ckpt, &["--save-every", "4096"]);

    // Three full blocks: each block flush is a cadence save on the saver
    // thread, and SAVE is the fourth save point.
    let blocks: Vec<Vec<u64>> = (0..3u64)
        .map(|b| (0..4096u64).map(|i| (i * 7919 + b * 131) % 6000).collect())
        .collect();
    let stream = TcpStream::connect(&addr).expect("connect to daemon");
    let mut writer = stream.try_clone().expect("clone stream");
    writer
        .write_all(access_script("t", &blocks, "SAVE\n").as_bytes())
        .expect("send script");
    let mut reader = BufReader::new(stream);
    let mut replies = Vec::new();
    for _ in 0..2 {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        replies.push(reply.trim_end().to_string());
    }
    assert_eq!(replies[0], "OK tenant t");
    assert!(
        replies[1].starts_with("OK saved ") && replies[1].ends_with(" tenants 1"),
        "{replies:?}"
    );

    // The file holds exactly what an in-process table fed the same
    // blocks holds after four save points.
    let mut expected = ServeState::new(1024, 64).unwrap();
    let t = expected.ensure_tenant("t").unwrap();
    for block in &blocks {
        expected.record_block(t, block);
    }
    for _ in 0..4 {
        expected.note_save();
    }
    assert_eq!(std::fs::read_to_string(&ckpt).unwrap(), expected.to_json());

    writer.write_all(b"QUIT\n").expect("send QUIT");
    assert!(terminate(child).status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_drains_the_saver_before_retiring_the_heartbeat() {
    use symmetric_locality::core::serve::ServeState;

    let dir = std::env::temp_dir().join(format!("symloc_serve_e2e_drain_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("serve.ckpt.json");
    // Every block flush is a save point, so saves are still queued when
    // the signal lands.
    let (child, addr) = spawn_tcp_with(&ckpt, &["--save-every", "1"]);
    let blocks: Vec<Vec<u64>> = (0..32u64)
        .map(|b| (0..4096u64).map(|i| (i * 104_729 + b) % 50_000).collect())
        .collect();
    let replies = {
        let stream = TcpStream::connect(&addr).expect("connect to daemon");
        let mut writer = stream.try_clone().expect("clone stream");
        writer
            .write_all(access_script("t", &blocks, "PING\n").as_bytes())
            .expect("send script");
        let mut reader = BufReader::new(stream);
        let mut replies = String::new();
        for _ in 0..2 {
            reader.read_line(&mut replies).expect("read reply");
        }
        replies
    };
    assert_eq!(replies, "OK tenant t\nOK pong\n");
    let output = terminate(child);
    assert!(output.status.success(), "{output:?}");
    assert!(
        !dir.join("serve.ckpt.json.hb").exists(),
        "heartbeat sidecar outlived the daemon"
    );
    // Every cadence save and the final one were written, in order.
    let state = ServeState::from_json(&std::fs::read_to_string(&ckpt).unwrap()).unwrap();
    assert_eq!(state.total_accesses(), 32 * 4096);
    assert_eq!(state.saves(), 33);
    std::fs::remove_dir_all(&dir).ok();
}
