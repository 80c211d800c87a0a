//! The line-framed wire protocol of the `symloc serve` daemon.
//!
//! One request per `\n`-terminated line, ASCII, human-typeable over
//! `nc`. The grammar (case-sensitive keywords, single spaces):
//!
//! ```text
//! session   := line*
//! line      := hello | access | query | control | comment
//! hello     := "HELLO" SP tenant          ; bind this connection's stream
//! access    := uint                       ; one access for the bound tenant
//! query     := "MRC" SP tenant [SP uint]  ; miss-ratio curve (point count)
//!            | "MRCJ" SP tenant [SP uint] ; same curve, one-line JSON
//!            | "WSS" SP tenant            ; working-set estimate
//!            | "STATS" [SP tenant]        ; metrics (fleet-wide if bare)
//!            | "PARTITION" SP uint        ; split a budget across tenants
//! control   := "SAVE" | "PING" | "QUIT"
//! comment   := "#" any*                   ; ignored (text traces pipe as-is)
//! tenant    := 1*64 printable-ASCII-no-space
//! uint      := decimal u64
//! ```
//!
//! Responses are single lines: `OK <detail>` or `ERR <reason>`. Access
//! lines are *silent* on success (an acknowledgement per access would
//! dominate the stream) and answer `ERR` only on malformed input or a
//! missing `HELLO`.
//!
//! A line may be at most [`MAX_LINE_BYTES`] long; a longer one is a
//! framing error after which the stream is closed.
//!
//! This module is pure framing: [`parse_line`] maps a line's bytes to a
//! [`Request`] through [`parse_request`], and [`AccessBatcher`] coalesces
//! runs of access lines into blocks delivered through the [`AccessSink`]
//! block path — the socket-side producer for the same tap seam the fused
//! file pipeline feeds. Policy (tenant tables, persistence, response
//! wording) lives with the daemon, not here.

use crate::stream::AccessSink;

/// Coalesced access deliveries flush at this many addresses; chosen to
/// match the decode block size of the file-streaming paths.
pub const WIRE_BLOCK_LEN: usize = 4096;

/// Longest accepted protocol line in bytes, terminator excluded. The
/// longest legal line is about 90 bytes (`MRCJ`, a 64-byte tenant name
/// and a point count); the bound keeps a peer that never sends a newline
/// from growing the daemon's buffer without limit.
pub const MAX_LINE_BYTES: usize = 4096;

/// One parsed protocol line. Borrowed from the input line: framing never
/// copies tenant names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request<'a> {
    /// `HELLO <tenant>`: bind the connection's access stream to a tenant.
    Hello(&'a str),
    /// A bare unsigned integer: one access for the bound tenant.
    Access(u64),
    /// `MRC <tenant> [points]`: the tenant's miss-ratio curve.
    Mrc {
        /// The queried tenant.
        tenant: &'a str,
        /// Requested point count, when given.
        points: Option<usize>,
    },
    /// `MRCJ <tenant> [points]`: the same curve as a one-line JSON
    /// document, for scripted clients (the offline partitioner among
    /// them) that should not scrape the human table.
    Mrcj {
        /// The queried tenant.
        tenant: &'a str,
        /// Requested point count, when given.
        points: Option<usize>,
    },
    /// `PARTITION <budget>`: split `budget` cache blocks across the
    /// live tenant table, minimizing traffic-weighted aggregate miss
    /// ratio. The grammar accepts any u64 budget; the solver rejects
    /// degenerate ones (0, > 2^53) with named errors.
    Partition(u64),
    /// `WSS <tenant>`: the tenant's working-set-size estimate.
    Wss(&'a str),
    /// `STATS [tenant]`: one tenant's metrics, or the fleet rollup.
    Stats(Option<&'a str>),
    /// `SAVE`: checkpoint now.
    Save,
    /// `PING`: liveness probe.
    Ping,
    /// `QUIT`: close this connection.
    Quit,
    /// A `#`-prefixed comment line: ignored, so the plain-text trace
    /// format (whose headers are `#` comments) pipes into the daemon
    /// unmodified.
    Comment,
}

/// Parses one protocol line (without its terminator).
///
/// # Errors
///
/// Returns a protocol-grammar error naming the problem; the daemon
/// forwards it verbatim as `ERR <reason>`.
pub fn parse_request(line: &str) -> Result<Request<'_>, String> {
    let line = line.trim_end_matches('\r');
    if line.is_empty() {
        return Err("empty line (send a command or a decimal address)".to_string());
    }
    if line.as_bytes()[0] == b'#' {
        return Ok(Request::Comment);
    }
    // The hot path: a bare decimal address.
    if line.as_bytes()[0].is_ascii_digit() {
        return parse_decimal(line.as_bytes())
            .map(Request::Access)
            .ok_or_else(|| format!("malformed access address {line:?}"));
    }
    let mut words = line.split(' ');
    let keyword = words.next().unwrap_or_default();
    let mut arg = |what: &str| {
        words
            .next()
            .filter(|w| !w.is_empty())
            .ok_or_else(|| format!("{keyword} needs a {what}"))
    };
    let request = match keyword {
        "HELLO" => Request::Hello(arg("tenant name")?),
        "MRC" | "MRCJ" => {
            let tenant = arg("tenant name")?;
            let points = match words.next() {
                None => None,
                Some(raw) => Some(
                    raw.parse::<usize>()
                        .map_err(|_| format!("malformed {keyword} point count {raw:?}"))?,
                ),
            };
            if keyword == "MRC" {
                Request::Mrc { tenant, points }
            } else {
                Request::Mrcj { tenant, points }
            }
        }
        "PARTITION" => {
            let raw = arg("budget in cache blocks")?;
            let budget = raw
                .parse::<u64>()
                .map_err(|_| format!("malformed PARTITION budget {raw:?}"))?;
            Request::Partition(budget)
        }
        "WSS" => Request::Wss(arg("tenant name")?),
        "STATS" => Request::Stats(words.next().filter(|w| !w.is_empty())),
        "SAVE" => Request::Save,
        "PING" => Request::Ping,
        "QUIT" => Request::Quit,
        other => {
            return Err(format!(
                "unknown command {other:?} (expected HELLO, MRC, MRCJ, PARTITION, WSS, \
                 STATS, SAVE, PING or QUIT, or a decimal address)"
            ))
        }
    };
    if let Some(extra) = words.next() {
        return Err(format!("trailing argument {extra:?} after {keyword}"));
    }
    Ok(request)
}

/// Parses one protocol line given as raw bytes (without its terminator):
/// [`parse_request`] on the line's text.
///
/// A bare decimal access line, the bulk of any session, is parsed
/// straight from its bytes: it is ASCII, so the UTF-8 check is skipped,
/// and [`parse_request`] parses its digits with the same function.
///
/// # Errors
///
/// Returns the [`parse_request`] error, or a UTF-8 error for a line that
/// is not text.
pub fn parse_line(line: &[u8]) -> Result<Request<'_>, String> {
    let mut digits = line;
    while let [rest @ .., b'\r'] = digits {
        digits = rest;
    }
    if let Some(addr) = parse_decimal(digits) {
        return Ok(Request::Access(addr));
    }
    match std::str::from_utf8(line) {
        Ok(text) => parse_request(text),
        Err(e) => Err(format!("line is not valid UTF-8 ({e})")),
    }
}

/// One or more ASCII digits as a `u64`; `None` for anything else and on
/// overflow.
fn parse_decimal(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |value, &byte| {
        let digit = byte.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        value.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

/// Coalesces per-line accesses into blocks for an [`AccessSink`].
///
/// Socket framing delivers one address per line; pushing each through
/// `on_access` would put a virtual call on every access. The batcher
/// buffers up to [`WIRE_BLOCK_LEN`] addresses and hands them to the
/// sink's `on_block` path — callers flush explicitly at stream
/// boundaries (a query, a tenant switch, connection close) so the sink
/// has observed every prior access before any answer is computed.
#[derive(Debug, Default)]
pub struct AccessBatcher {
    buf: Vec<u64>,
}

impl AccessBatcher {
    /// An empty batcher.
    #[must_use]
    pub fn new() -> AccessBatcher {
        AccessBatcher {
            buf: Vec::with_capacity(WIRE_BLOCK_LEN),
        }
    }

    /// Buffered accesses not yet delivered.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Buffers one access; `true` says the block is full and the caller
    /// should [`AccessBatcher::flush`]. Buffering is decoupled from
    /// delivery so a daemon can batch lock-free and only resolve its sink
    /// (a tenant behind a mutex) at flush time.
    pub fn push(&mut self, addr: u64) -> bool {
        self.buf.push(addr);
        self.buf.len() >= WIRE_BLOCK_LEN
    }

    /// Delivers everything buffered to `sink` (no-op when empty).
    pub fn flush<S: AccessSink>(&mut self, sink: &mut S) {
        if !self.buf.is_empty() {
            sink.on_block(&self.buf);
            self.buf.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::CountingSink;

    #[test]
    fn grammar_round_trips_every_request_shape() {
        assert_eq!(
            parse_request("HELLO web-cache"),
            Ok(Request::Hello("web-cache"))
        );
        assert_eq!(parse_request("42"), Ok(Request::Access(42)));
        assert_eq!(parse_request("42\r"), Ok(Request::Access(42)));
        assert_eq!(
            parse_request("MRC web-cache"),
            Ok(Request::Mrc {
                tenant: "web-cache",
                points: None
            })
        );
        assert_eq!(
            parse_request("MRC web-cache 12"),
            Ok(Request::Mrc {
                tenant: "web-cache",
                points: Some(12)
            })
        );
        assert_eq!(
            parse_request("MRCJ web-cache"),
            Ok(Request::Mrcj {
                tenant: "web-cache",
                points: None
            })
        );
        assert_eq!(
            parse_request("MRCJ web-cache 12"),
            Ok(Request::Mrcj {
                tenant: "web-cache",
                points: Some(12)
            })
        );
        assert_eq!(
            parse_request("PARTITION 4096"),
            Ok(Request::Partition(4096))
        );
        // The grammar passes a zero budget through; the solver is the
        // layer that rejects it loudly.
        assert_eq!(parse_request("PARTITION 0"), Ok(Request::Partition(0)));
        assert_eq!(parse_request("WSS t"), Ok(Request::Wss("t")));
        assert_eq!(parse_request("STATS"), Ok(Request::Stats(None)));
        assert_eq!(parse_request("STATS t"), Ok(Request::Stats(Some("t"))));
        assert_eq!(parse_request("SAVE"), Ok(Request::Save));
        assert_eq!(parse_request("PING"), Ok(Request::Ping));
        assert_eq!(parse_request("QUIT"), Ok(Request::Quit));
        // Text-trace headers stream through untouched.
        assert_eq!(parse_request("# symloc trace m=50"), Ok(Request::Comment));
        assert_eq!(parse_request("#"), Ok(Request::Comment));
    }

    #[test]
    fn malformed_lines_name_their_problem() {
        for (line, needle) in [
            ("", "empty line"),
            ("12x", "malformed access"),
            ("18446744073709551616", "malformed access"), // u64::MAX + 1
            ("HELLO", "needs a tenant"),
            ("MRC", "needs a tenant"),
            ("MRC t twelve", "point count"),
            ("MRC t 4 extra", "trailing argument"),
            ("MRCJ", "needs a tenant"),
            ("MRCJ t twelve", "malformed MRCJ point count"),
            ("MRCJ t 4 extra", "trailing argument"),
            ("PARTITION", "needs a budget"),
            ("PARTITION lots", "malformed PARTITION budget"),
            ("PARTITION -1", "malformed PARTITION budget"),
            ("PARTITION 4 extra", "trailing argument"),
            ("WSS", "needs a tenant"),
            ("PING extra", "trailing argument"),
            ("hello t", "unknown command"),
            ("FLUSH", "unknown command"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line:?}: {err}");
        }
    }

    #[test]
    fn parse_line_answers_what_parse_request_answers() {
        for line in [
            "0",
            "42",
            "0042\r\r",
            "18446744073709551615", // u64::MAX
            "18446744073709551616", // u64::MAX + 1
            "99999999999999999999",
            "12x",
            "1 2",
            "+5",
            "-5",
            " 5",
            "",
            "\r",
            "PING",
            "HELLO t",
            "# 12",
        ] {
            assert_eq!(parse_line(line.as_bytes()), parse_request(line), "{line:?}");
        }
        assert_eq!(
            parse_line(b"18446744073709551615"),
            Ok(Request::Access(u64::MAX))
        );
        assert!(parse_line(b"HELLO \xff").unwrap_err().contains("UTF-8"));
        assert!(parse_line(b"4\xff").unwrap_err().contains("UTF-8"));
    }

    /// Hostile bytes: seeded random lines, single-byte changes and
    /// truncations of every request form, and lines of `MAX_LINE_BYTES`
    /// each parse to a request or an error, never a panic; on every UTF-8
    /// line `parse_line` answers what `parse_request` answers.
    #[test]
    fn hostile_lines_parse_or_fail_and_both_parsers_agree() {
        use rand::{Rng, SeedableRng};
        const FORMS: [&str; 15] = [
            "HELLO tenant-1",
            "12345",
            "18446744073709551615\r",
            "MRC t",
            "MRC t 12",
            "MRCJ t",
            "MRCJ t 8",
            "PARTITION 4096",
            "WSS t",
            "STATS",
            "STATS t",
            "SAVE",
            "PING",
            "QUIT",
            "# a comment",
        ];
        const PICKS: &[u8] = b" \r\t#0123456789+-xHMS\xff\x80\xc3\xa9";
        let mut rng = rand::rngs::StdRng::seed_from_u64(27);
        let byte = |rng: &mut rand::rngs::StdRng| rng.gen_range(0..=u8::MAX);
        let mut lines: Vec<Vec<u8>> = Vec::new();
        for form in FORMS {
            let form = form.as_bytes();
            lines.extend((0..form.len()).map(|cut| form[..cut].to_vec()));
            for at in 0..form.len() {
                for pick in PICKS.iter().copied().chain((0..8).map(|_| byte(&mut rng))) {
                    let mut line = form.to_vec();
                    line[at] = pick;
                    lines.push(line);
                }
            }
        }
        for _ in 0..20_000 {
            let len = rng.gen_range(0..48);
            lines.push(
                (0..len)
                    .map(|_| {
                        if rng.gen() {
                            PICKS[rng.gen_range(0..PICKS.len())]
                        } else {
                            byte(&mut rng)
                        }
                    })
                    .collect(),
            );
        }
        let full = |head: &str, fill: u8| {
            let mut line = head.as_bytes().to_vec();
            line.resize(MAX_LINE_BYTES, fill);
            line
        };
        lines.extend([
            full("", b'9'),
            full("1", b'0'),
            full("HELLO ", b'a'),
            full("MRC t ", b'7'),
            full("STATS ", b' '),
            full("#", 0xff),
            (0..MAX_LINE_BYTES).map(|_| byte(&mut rng)).collect(),
        ]);
        for line in &lines {
            let parsed = parse_line(line);
            match std::str::from_utf8(line) {
                Ok(text) => assert_eq!(parsed, parse_request(text), "{line:?}"),
                Err(_) => assert!(parsed.is_ok() || parsed.unwrap_err().contains("UTF-8")),
            }
        }
    }

    #[test]
    fn batcher_coalesces_and_flushes_exactly_once() {
        let mut sink = CountingSink::new();
        let mut batcher = AccessBatcher::new();
        for addr in 0..(WIRE_BLOCK_LEN as u64 + 10) {
            if batcher.push(addr) {
                batcher.flush(&mut sink);
            }
        }
        // One full block flushed at the boundary, the tail still pending.
        assert_eq!(sink.accesses(), WIRE_BLOCK_LEN as u64);
        assert_eq!(batcher.pending(), 10);
        batcher.flush(&mut sink);
        assert_eq!(sink.accesses(), WIRE_BLOCK_LEN as u64 + 10);
        assert_eq!(batcher.pending(), 0);
        // Flushing empty is a no-op.
        batcher.flush(&mut sink);
        assert_eq!(sink.accesses(), WIRE_BLOCK_LEN as u64 + 10);
    }
}
