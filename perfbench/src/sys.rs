//! Child-process helpers: timed `symloc` runs and graceful termination,
//! both reaping the child with `wait4` so its own peak RSS is known; and
//! the one socket option the serve client sets.

use std::io::Read as _;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

// Declared against libc, which std already links, so the benchmark needs
// no extra crate.
extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

const WNOHANG: i32 = 1;
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const IPPROTO_TCP: i32 = 6;
const TCP_QUICKACK: i32 = 12;

/// Sets `TCP_QUICKACK`, which ACKs what the socket has received at once
/// instead of holding the ACK for a reply. Linux clears it again on its
/// own, so a client that wants every read ACKed sets it after each read.
pub fn quickack(stream: &TcpStream) {
    let on: i32 = 1;
    // SAFETY: a live socket fd and a pointer to an int of the given size.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            &on,
            std::mem::size_of::<i32>() as u32,
        );
    }
}

/// How a reaped child ended.
pub struct Exit {
    /// The exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// The child's own peak resident set size.
    pub peak_rss_mb: f64,
}

impl Exit {
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// Reaps `child` with `wait4` (blocking, or not with `nohang`). Returns
/// `None` while a `nohang` child still runs. Once this returns an `Exit`
/// the pid is gone: the `Child` must only be dropped afterwards, never
/// waited on or killed.
fn reap(child: &Child, nohang: bool) -> Result<Option<Exit>, String> {
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    let options = if nohang { WNOHANG } else { 0 };
    // SAFETY: `status` and `usage` are live, writable values with the C
    // layouts wait4 expects on 64-bit Linux, and `pid` is our unreaped child.
    let rc = unsafe { wait4(pid, &mut status, options, &mut usage) };
    match rc {
        0 => Ok(None),
        r if r == pid => Ok(Some(Exit {
            code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
            peak_rss_mb: usage.maxrss as f64 / 1024.0,
        })),
        _ => Err(format!(
            "wait4({pid}) failed: {}",
            std::io::Error::last_os_error()
        )),
    }
}

fn signal(child: &Child, sig: i32) {
    if let Ok(pid) = i32::try_from(child.id()) {
        // SAFETY: plain syscall on the pid of a child not yet reaped, so
        // the pid cannot have been reused.
        unsafe {
            kill(pid, sig);
        }
    }
}

/// The output of one finished `symloc` run.
pub struct RunOutput {
    pub wall: Duration,
    pub stdout: String,
    pub peak_rss_mb: f64,
}

/// Runs `symloc args...` to completion and times it from spawn to exit.
/// A non-zero exit is an error; the child's stderr passes through.
pub fn run(symloc: &Path, args: &[String]) -> Result<RunOutput, String> {
    let start = Instant::now();
    let mut child = Command::new(symloc)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", symloc.display()))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout);
    let exit = reap(&child, false)?.expect("blocking wait4 reaps");
    let wall = start.elapsed();
    read.map_err(|e| format!("cannot read symloc output: {e}"))?;
    if !exit.success() {
        return Err(format!(
            "symloc {} exited with {:?}",
            args.join(" "),
            exit.code
        ));
    }
    Ok(RunOutput {
        wall,
        stdout,
        peak_rss_mb: exit.peak_rss_mb,
    })
}

/// Sends SIGTERM and waits up to `grace` for the child to exit, killing
/// it after that (an error).
pub fn terminate(child: Child, grace: Duration) -> Result<Exit, String> {
    if let Some(exit) = reap(&child, true)? {
        return Ok(exit);
    }
    signal(&child, SIGTERM);
    let deadline = Instant::now() + grace;
    while Instant::now() < deadline {
        if let Some(exit) = reap(&child, true)? {
            return Ok(exit);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    signal(&child, SIGKILL);
    reap(&child, false)?;
    Err("child ignored SIGTERM and was killed".to_string())
}

/// A file path under `dir`, with any earlier file and its heartbeat
/// sidecar removed.
pub fn fresh_path(dir: &Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(symloc_core::job::Heartbeat::sidecar_path(&path));
    path
}

/// Reads `key` from a parsed JSON object as an array.
pub fn json_array<'a>(
    doc: &'a symloc_core::jsonio::JsonValue,
    key: &str,
) -> Result<&'a [symloc_core::jsonio::JsonValue], String> {
    doc.get(key)
        .and_then(symloc_core::jsonio::JsonValue::as_array)
        .ok_or_else(|| format!("output has no {key:?} array"))
}
