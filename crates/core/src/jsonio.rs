//! Minimal hand-rolled JSON reading and writing.
//!
//! The build environment is fully offline (no serde), so the sweep
//! checkpoints and the bench tooling serialize by formatting strings and
//! deserialize through this small recursive-descent parser. It supports the
//! JSON subset those documents use — objects, arrays, strings with the
//! escapes [`escape`] emits, integers, floats, booleans and null — and is
//! *not* a general-purpose validator (it is permissive about things like
//! duplicate keys). Checkpoints write their integers through
//! `StagingWriter`, a local buffer filled from a digit-pair table, instead
//! of one `write!` per integer.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent, kept exact.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object (first match), `None` otherwise.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is numeric.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer in range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a `u128`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            JsonValue::Int(i) => u128::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer in range.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Int(i) => usize::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Writes a checkpoint document to `path` atomically: the bytes land in a
/// sibling temp file first and are renamed over the target, so a kill
/// mid-save leaves the previous checkpoint intact. The single save path
/// every checkpointing runner (`ShardedSweep`, `SampledSweep`, the trace
/// job `FusedIngest`, the serve state) goes through; a call to
/// [`save_atomic_with`] for a document already in memory.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn save_atomic(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    save_atomic_with(path, |out| out.write_str(contents))
}

/// Bytes [`save_atomic_with`] buffers between writes to the temp file.
const SAVE_BUFFER: usize = 64 * 1024;

/// Streams a checkpoint document to `path` atomically: `write` formats it
/// through a buffered writer straight into a sibling temp file, which is
/// renamed over the target only once the write and the final flush
/// succeeded. A document of tens of megabytes is never held in memory.
///
/// Every call writes its own temp file, `<file>.<pid>.<n>.tmp`, so two
/// writers to one path never write into each other's bytes: the target
/// always holds one whole document. On any failure the temp file is
/// removed and the target is left as it was.
///
/// # Errors
///
/// Returns the first I/O error (creating, writing, flushing or renaming),
/// or an error saying the document failed to format when `write` fails
/// without one.
pub fn save_atomic_with(
    path: &std::path::Path,
    write: impl FnOnce(&mut dyn std::fmt::Write) -> std::fmt::Result,
) -> std::io::Result<()> {
    static NEXT_TEMP: AtomicU64 = AtomicU64::new(0);
    let Some(name) = path.file_name() else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{} does not name a file", path.display()),
        ));
    };
    let mut temp = name.to_os_string();
    temp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        NEXT_TEMP.fetch_add(1, Ordering::Relaxed)
    ));
    let temp = path.with_file_name(temp);
    let saved = write_file(&temp, write).and_then(|()| std::fs::rename(&temp, path));
    if saved.is_err() {
        let _ = std::fs::remove_file(&temp);
    }
    saved
}

/// Creates `path` and streams `write`'s document into it.
fn write_file(
    path: &std::path::Path,
    write: impl FnOnce(&mut dyn std::fmt::Write) -> std::fmt::Result,
) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = FmtWriter::new(std::io::BufWriter::with_capacity(SAVE_BUFFER, file));
    let written = write(&mut out);
    out.finish(written)?
        .into_inner()
        .map_err(std::io::IntoInnerError::into_error)?;
    Ok(())
}

/// A [`std::fmt::Write`] over an [`std::io::Write`] that keeps the first
/// I/O error, which `fmt::Error` cannot carry: a formatter sees only that
/// the write failed, and [`FmtWriter::finish`] hands back what failed.
struct FmtWriter<W> {
    inner: W,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> FmtWriter<W> {
    fn new(inner: W) -> Self {
        FmtWriter { inner, error: None }
    }

    /// The writer back when the document was written whole; otherwise the
    /// first I/O error, or — when `written` failed without one — an error
    /// saying the document failed to format.
    fn finish(self, written: std::fmt::Result) -> std::io::Result<W> {
        match (self.error, written) {
            (Some(error), _) => Err(error),
            (None, Err(std::fmt::Error)) => Err(std::io::Error::other(
                "the checkpoint document failed to format",
            )),
            (None, Ok(())) => Ok(self.inner),
        }
    }
}

impl<W: std::io::Write> std::fmt::Write for FmtWriter<W> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        if self.error.is_some() {
            return Err(std::fmt::Error);
        }
        self.inner.write_all(s.as_bytes()).map_err(|error| {
            self.error = Some(error);
            std::fmt::Error
        })
    }
}

/// Removes the temp files of [`save_atomic`] calls to `path` that a kill
/// or power loss cut short (`<file>.<pid>.<n>.tmp`): no later save reuses
/// their names, so nothing else removes them. Meant for the moment a
/// checkpoint is opened to be resumed, when no other process is saving to
/// `path`. Best-effort: what cannot be listed or removed stays.
pub fn remove_stale_temps(path: &std::path::Path) {
    let Some(name) = path.file_name().and_then(|name| name.to_str()) else {
        return;
    };
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => std::path::Path::new("."),
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let number = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    for entry in entries.flatten() {
        let stale = entry
            .file_name()
            .to_str()
            .and_then(|file| {
                file.strip_prefix(name)?
                    .strip_prefix('.')?
                    .strip_suffix(".tmp")
            })
            .and_then(|tag| tag.split_once('.'))
            .is_some_and(|(pid, n)| number(pid) && number(n));
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// `"00"`, `"01"`, …, `"99"`: the two decimal digits of every number below
/// 100, so [`push_u64`] writes two digits per division.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// The two digits of `n < 100`.
#[inline]
fn digit_pair(n: usize) -> &'static [u8] {
    &DIGIT_PAIRS[2 * n..2 * n + 2]
}

/// Appends `n` in decimal to `out`: the bytes `format!("{n}")` gives,
/// without going through the formatting machinery. Four digits per
/// division, two per table read.
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn push_u64(out: &mut Vec<u8>, n: u64) {
    let mut digits = [0u8; 20];
    let mut pos = digits.len();
    let mut rest = n;
    while rest >= 10_000 {
        let four = (rest % 10_000) as usize;
        rest /= 10_000;
        pos -= 4;
        digits[pos..pos + 2].copy_from_slice(digit_pair(four / 100));
        digits[pos + 2..pos + 4].copy_from_slice(digit_pair(four % 100));
    }
    let mut rest = rest as usize;
    if rest >= 100 {
        pos -= 2;
        digits[pos..pos + 2].copy_from_slice(digit_pair(rest % 100));
        rest /= 100;
    }
    if rest >= 10 {
        pos -= 2;
        digits[pos..pos + 2].copy_from_slice(digit_pair(rest));
    } else {
        pos -= 1;
        digits[pos] = b'0' + rest as u8;
    }
    out.extend_from_slice(&digits[pos..]);
}

/// Bytes a [`StagingWriter`] gathers before handing them on.
const STAGING_BUFFER: usize = 64 * 1024;

/// A 64 KiB staging buffer in front of a [`std::fmt::Write`], for
/// documents of millions of integers: pieces and integers append to a
/// local byte buffer ([`push_u64`] for the integers), which reaches the
/// writer in one `write_str` per 64 KiB instead of one dynamic `write!`
/// per element. Anything `Display` still formats through its
/// [`std::fmt::Write`] impl.
///
/// Errors are kept rather than returned: once the writer fails, later
/// pieces are dropped, and [`StagingWriter::finish`] — which must end
/// every document — reports the failure.
pub(crate) struct StagingWriter<'a> {
    out: &'a mut dyn std::fmt::Write,
    buf: Vec<u8>,
    failed: bool,
}

impl<'a> StagingWriter<'a> {
    /// An empty buffer in front of `out`.
    pub fn new(out: &'a mut dyn std::fmt::Write) -> Self {
        StagingWriter {
            out,
            buf: Vec::with_capacity(STAGING_BUFFER),
            failed: false,
        }
    }

    /// Appends a piece of the document.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.make_room(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends `n` in decimal.
    #[inline]
    pub fn u64(&mut self, n: u64) {
        self.make_room(20);
        push_u64(&mut self.buf, n);
    }

    /// Hands everything staged to the writer.
    ///
    /// # Errors
    ///
    /// Returns the error of the first write to the writer that failed.
    pub fn finish(mut self) -> std::fmt::Result {
        self.flush();
        if self.failed {
            Err(std::fmt::Error)
        } else {
            Ok(())
        }
    }

    #[inline]
    fn make_room(&mut self, len: usize) {
        if self.buf.len() + len > STAGING_BUFFER {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if !self.failed && !self.buf.is_empty() {
            let text = std::str::from_utf8(&self.buf).expect("only whole str pieces are staged");
            self.failed = self.out.write_str(text).is_err();
        }
        self.buf.clear();
    }
}

/// Never fails itself; a failure of the writer behind it is reported by
/// [`StagingWriter::finish`].
impl std::fmt::Write for StagingWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.str(s);
        Ok(())
    }
}

/// Escapes a string for embedding in a JSON document.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// How deep arrays and objects may nest in a document [`parse`] accepts.
/// Every document symloc writes nests at most 6 deep (a sweep checkpoint's
/// level sums); the bound keeps a hostile document of nothing but `[` from
/// recursing the parser off the end of its stack.
pub const MAX_DEPTH: usize = 64;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with its
/// byte offset, or of the first array or object nested deeper than
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays and
/// objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'{' | b'[')) {
        return Err(format!(
            "arrays and objects nest deeper than {MAX_DEPTH} at byte {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&c) => Err(format!("unexpected {:?} at byte {}", c as char, *pos)),
        None => Err("unexpected end of document".to_string()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at byte {}", *pos))
    }
}

/// Parses the number at `pos`. A non-negative integer that fits `u64` —
/// every count, address and distance a checkpoint holds — is read straight
/// from its digits; any other number goes through [`parse_number_token`],
/// which gives those integers the same value, only slower.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let mut value = 0u64;
    let mut end = *pos;
    while let Some(&c) = bytes.get(end) {
        if !c.is_ascii_digit() {
            break;
        }
        match value
            .checked_mul(10)
            .and_then(|v| v.checked_add(u64::from(c - b'0')))
        {
            Some(v) => value = v,
            None => return parse_number_token(bytes, pos),
        }
        end += 1;
    }
    if end > *pos && !matches!(bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
        *pos = end;
        return Ok(JsonValue::Int(i128::from(value)));
    }
    parse_number_token(bytes, pos)
}

/// Parses the number at `pos` as a token: the longest run of digits and
/// `.eE+-` after an optional sign, kept exact as an `i128` when it is an
/// integer in range, else read as an `f64`.
fn parse_number_token(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8 number")?;
    if !is_float {
        if let Ok(i) = token.parse::<i128>() {
            return Ok(JsonValue::Int(i));
        }
    }
    token
        .parse::<f64>()
        .map(JsonValue::Float)
        .map_err(|_| format!("malformed number {token:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "non-utf8 escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "malformed \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("unknown escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash at once.
                // Both are ASCII, so the run ends on a character boundary
                // and only the run needs a UTF-8 check, which keeps
                // parsing linear in the document size.
                let run = &bytes[*pos..];
                let len = run
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(run.len());
                out.push_str(std::str::from_utf8(&run[..len]).map_err(|_| "non-utf8 string")?);
                *pos += len;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Int(42));
        assert_eq!(parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse("2.5").unwrap(), JsonValue::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), JsonValue::Float(1000.0));
        assert_eq!(
            parse("\"hi\\n\\\"there\\\"\"").unwrap(),
            JsonValue::Str("hi\n\"there\"".to_string())
        );
        assert_eq!(parse("\"\\u0041\"").unwrap(), JsonValue::Str("A".into()));
    }

    #[test]
    fn parses_structures_and_accessors() {
        let doc = parse(
            r#"{"name": "sweep", "m": 12, "rate": 3.5,
                "shards": [[0, 10], [10, 20]], "done": [true, false], "x": null}"#,
        )
        .unwrap();
        assert_eq!(doc.get("name").and_then(JsonValue::as_str), Some("sweep"));
        assert_eq!(doc.get("m").and_then(JsonValue::as_usize), Some(12));
        assert_eq!(doc.get("m").and_then(JsonValue::as_u64), Some(12));
        assert_eq!(doc.get("m").and_then(JsonValue::as_u128), Some(12));
        assert_eq!(doc.get("rate").and_then(JsonValue::as_f64), Some(3.5));
        let shards = doc.get("shards").and_then(JsonValue::as_array).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[1].as_array().unwrap()[0].as_u128(), Some(10));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.get("x"), Some(&JsonValue::Null));
        assert_eq!(JsonValue::Null.as_str(), None);
        assert_eq!(JsonValue::Null.as_f64(), None);
        assert_eq!(JsonValue::Bool(true).as_array(), None);
        assert_eq!(JsonValue::Float(1.5).as_u64(), None);
        assert_eq!(JsonValue::Int(-1).as_usize(), None);
    }

    #[test]
    fn huge_integers_stay_exact() {
        // 27! needs more than f64's 53-bit mantissa; it must not round.
        let v = parse("10888869450418352160768000000").unwrap();
        assert_eq!(v.as_u128(), Some(10_888_869_450_418_352_160_768_000_000));
        assert_eq!(v.as_u64(), None);
    }

    /// The `u64` fast path of `parse_number` returns what the token path
    /// alone returns — the same value, down to a float's bits, the same
    /// error and the same end position — on random number tokens: leading
    /// zeros, integers around `u64::MAX`, negative numbers, fractions,
    /// exponents and malformed runs, each followed by a random terminator.
    #[test]
    fn integer_fast_path_matches_the_token_path() {
        use rand::{Rng, SeedableRng};
        let max = u128::from(u64::MAX);
        let mut tokens: Vec<String> = [max - 1, max, max + 1, max * 10, 0, 9, 10]
            .iter()
            .flat_map(|n| [format!("{n}"), format!("00{n}"), format!("-{n}")])
            .collect();
        tokens.extend(
            [
                "-", "-0", "0", "00", "1e5", "1E+5", "2e-3", "12.5", "1.", "7-", "3+4", "1e999",
            ]
            .map(String::from),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        const ALPHABET: &[u8] = b"0123456789-+.eE";
        for _ in 0..20_000 {
            let token = match rng.gen_range(0..4) {
                // A random integer of any digit count, leading zeros and all.
                0 => {
                    let zeros = "0".repeat(rng.gen_range(0..3));
                    let n = rng.gen::<u64>() >> rng.gen_range(0..64u32);
                    format!("{zeros}{n}")
                }
                // Near u64::MAX, above it, or negated.
                1 => {
                    let n = max - 5 + u128::from(rng.gen_range(0..10u64));
                    if rng.gen() {
                        format!("-{n}")
                    } else {
                        format!("{n}")
                    }
                }
                // A decimal or exponent form.
                2 => format!(
                    "{}{}{}",
                    rng.gen_range(0..1000u32),
                    [".5", "e3", "E-2", "e+7", ".25e1", ""][rng.gen_range(0..6usize)],
                    ["", "0", "1"][rng.gen_range(0..3usize)],
                ),
                // Any run of number bytes after a digit or a sign.
                _ => {
                    let len = rng.gen_range(0..30);
                    let mut token = String::from(["-", "0", "5"][rng.gen_range(0..3usize)]);
                    token.extend(
                        (0..len).map(|_| char::from(ALPHABET[rng.gen_range(0..ALPHABET.len())])),
                    );
                    token
                }
            };
            tokens.push(token);
        }
        for (i, token) in tokens.iter().enumerate() {
            let text = format!("{token}{}", ["", ",", "]", "}", " ", "x"][i % 6]);
            let bytes = text.as_bytes();
            let (mut fast_end, mut token_end) = (0, 0);
            let fast = parse_number(bytes, &mut fast_end);
            let reference = parse_number_token(bytes, &mut token_end);
            assert_eq!(format!("{fast:?}"), format!("{reference:?}"), "{text:?}");
            assert_eq!(fast_end, token_end, "{text:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nest deeper than 64"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\": ".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).unwrap_err().contains("nest deeper"));
        // Far past the bound: an error, not a stack overflow.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"k\": [".repeat(100_000)).is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(vec![]));
        assert_eq!(parse("[ ]").unwrap(), JsonValue::Array(vec![]));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote \" slash \\ newline \n tab \t bell \u{1} ünïcødé ✓ 𝄞 done";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.get("k").and_then(JsonValue::as_str), Some(nasty));
    }

    #[test]
    fn digit_pairs_print_what_display_prints() {
        use rand::{Rng, SeedableRng};
        let mut inputs = vec![0u64, u64::MAX];
        let mut power = 1u64;
        for _ in 1..=19 {
            power *= 10;
            inputs.extend([power - 1, power]);
        }
        // Random values, shifted so every digit count is covered.
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        for _ in 0..10_000 {
            let shift = rng.gen_range(0..64u32);
            inputs.push(rng.gen::<u64>() >> shift);
        }
        let mut out = Vec::new();
        for n in inputs {
            out.clear();
            push_u64(&mut out, n);
            assert_eq!(std::str::from_utf8(&out).unwrap(), format!("{n}"));
        }
    }

    /// A `fmt::Write` that records each write and can be made to fail.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<String>,
        fail: bool,
    }

    impl std::fmt::Write for Recorder {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            if self.fail {
                return Err(std::fmt::Error);
            }
            self.writes.push(s.to_string());
            Ok(())
        }
    }

    #[test]
    fn staging_writer_hands_on_whole_buffers_and_keeps_errors() {
        let mut recorder = Recorder::default();
        let mut w = StagingWriter::new(&mut recorder);
        let mut expected = String::new();
        for i in 0..30_000u64 {
            w.str(if i == 0 { "[" } else { ", " });
            w.u64(i * 1_000_003);
            write!(w, " {}", 0.5 + i as f64).unwrap();
            let _ = write!(
                expected,
                "{}{} {}",
                if i == 0 { "[" } else { ", " },
                i * 1_000_003,
                0.5 + i as f64
            );
        }
        w.finish().unwrap();
        assert_eq!(recorder.writes.concat(), expected);
        // A few writes of at most 64 KiB each, not one per element.
        assert!(recorder.writes.len() > 1);
        assert!(recorder.writes.iter().all(|s| s.len() <= STAGING_BUFFER));
        assert!(recorder.writes.len() <= expected.len() / (STAGING_BUFFER / 2) + 1);

        let mut failing = Recorder {
            fail: true,
            ..Recorder::default()
        };
        let mut w = StagingWriter::new(&mut failing);
        for i in 0..100_000 {
            w.u64(i);
        }
        assert!(w.finish().is_err());
        let mut failing = Recorder {
            fail: true,
            ..Recorder::default()
        };
        let mut w = StagingWriter::new(&mut failing);
        w.str("short");
        assert!(w.finish().is_err(), "the last flush reports too");
    }

    #[test]
    fn stale_temps_of_one_checkpoint_are_removed() {
        let dir = std::env::temp_dir().join(format!("symloc-jsonio-temps-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        save_atomic(&path, "{}").unwrap();
        let kept = [
            "ck.json",
            "ck.json.tmp",
            "ck.json.7.tmp",
            "ck.json.x.7.tmp",
            "ck.json.7.8.9.tmp",
            "other.json.7.8.tmp",
        ];
        for name in &kept[1..] {
            std::fs::write(dir.join(name), "").unwrap();
        }
        for stale in ["ck.json.7.8.tmp", "ck.json.4242.0.tmp"] {
            std::fs::write(dir.join(stale), "{\"partial").unwrap();
        }
        remove_stale_temps(&path);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let mut want = kept.map(String::from).to_vec();
        want.sort();
        assert_eq!(names, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An `io::Write` that accepts `left` bytes and then fails.
    #[derive(Debug)]
    struct FailAfter {
        left: usize,
        taken: Vec<u8>,
    }

    impl std::io::Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.left == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::StorageFull,
                    "disk full",
                ));
            }
            let n = buf.len().min(self.left);
            self.left -= n;
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn fmt_writer_returns_the_first_io_error() {
        for left in [0usize, 1, 7, 100, 4095] {
            let mut out = FmtWriter::new(FailAfter {
                left,
                taken: Vec::new(),
            });
            let mut written = Ok(());
            for i in 0..2000u32 {
                written = write!(out, "{i}, ");
                if written.is_err() {
                    break;
                }
            }
            assert!(written.is_err(), "left {left}");
            // Later writes fail too, and never reach the writer again.
            assert!(out.write_str("more").is_err());
            let taken = out.inner.taken.len();
            let err = out.finish(written).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::StorageFull, "left {left}");
            assert_eq!(err.to_string(), "disk full");
            assert_eq!(taken, left);
        }
        // Through a buffer, the error surfaces when the buffer drains.
        let mut out = FmtWriter::new(std::io::BufWriter::with_capacity(
            16,
            FailAfter {
                left: 40,
                taken: Vec::new(),
            },
        ));
        let written = (0..100).try_for_each(|i| write!(out, "{i},"));
        assert_eq!(
            out.finish(written).unwrap_err().kind(),
            std::io::ErrorKind::StorageFull
        );
        // A formatter that fails on its own is an error too.
        let out = FmtWriter::new(Vec::new());
        let err = out.finish(Err(std::fmt::Error)).unwrap_err();
        assert!(err.to_string().contains("failed to format"), "{err}");
        let mut out = FmtWriter::new(Vec::new());
        out.write_str("whole").unwrap();
        assert_eq!(out.finish(Ok(())).unwrap(), b"whole");
    }

    #[test]
    fn streamed_saves_replace_the_target_only_when_whole() {
        let dir = std::env::temp_dir().join(format!("symloc-jsonio-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        // Larger than the buffer, so it reaches the file in several writes.
        let doc: String = (0..40_000).map(|i| format!("{i},")).collect();
        save_atomic_with(&path, |out| {
            (0..40_000).try_for_each(|i| write!(out, "{i},"))
        })
        .unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), doc);
        // A document that fails half way leaves the target and no temp
        // file behind.
        let err = save_atomic_with(&path, |out| {
            out.write_str("{\"partial")?;
            Err(std::fmt::Error)
        })
        .unwrap_err();
        assert!(err.to_string().contains("failed to format"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), doc);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["ck.json"]);
        // A directory that does not exist is an error, not a panic.
        assert!(save_atomic(&dir.join("missing").join("ck.json"), "{}").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "[1] extra",
            "{1: 2}",
            "nul",
            "+5",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
