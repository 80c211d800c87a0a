//! Minimal hand-rolled JSON reading and writing.
//!
//! The build environment is fully offline (no serde), so the checkpoints and
//! the bench tooling serialize by formatting strings and read back through
//! one small tokenizer, [`Reader`]. It supports the JSON subset those
//! documents use — objects, arrays, strings with the escapes [`escape`]
//! emits (and `\uXXXX` escapes, surrogate pairs joined), integers, floats,
//! booleans and null — and is *not* a general-purpose validator (the first
//! of duplicate keys wins, as in [`JsonValue::get`]).
//!
//! Checkpoints are decoded straight from their text: each kind's decoder
//! pulls keys and scalars from a [`Reader`] and builds its state as it
//! reads, so a restore builds no tree of values. [`parse`], built on the
//! same reader, keeps the [`JsonValue`] tree for the small generic
//! documents: reports, metrics snapshots, heartbeats and partition inputs.
//! Checkpoints write their integers through `StagingWriter`, a local buffer
//! filled from a digit-pair table, instead of one `write!` per integer.

use std::borrow::Cow;
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

/// How deep arrays and objects may nest in a document [`parse`] or a
/// [`Reader`] accepts. Every document symloc writes nests at most 6 deep (a
/// sweep checkpoint's level sums); the bound keeps a hostile document of
/// nothing but `[` from recursing the reader off the end of its stack.
pub const MAX_DEPTH: usize = 64;

/// Parses a JSON document into a [`JsonValue`] tree, for the small generic
/// documents: reports, metrics snapshots, heartbeats and partition inputs.
/// Checkpoints are decoded straight from their text through a [`Reader`].
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with its
/// byte offset, or of the first array or object nested deeper than
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut reader = Reader::new(text);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

/// Reads one whole document with `read`, then checks that nothing but
/// whitespace follows it. On any error the text's first syntax error, when
/// it has one, is returned instead — the error [`parse`] gives — so a
/// decoder's own complaint is only ever about a document that parses.
///
/// # Errors
///
/// Returns the syntax error, `read`'s error, or the trailing-content error.
pub fn read_document<'a, T>(
    text: &'a str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
) -> Result<T, String> {
    let mut reader = Reader::new(text);
    read(&mut reader)
        .and_then(|value| reader.finish().map(|()| value))
        .map_err(|error| {
            let mut check = Reader::new(text);
            match check.skip().and_then(|()| check.finish()) {
                Err(syntax) => syntax,
                Ok(()) => error,
            }
        })
}

/// What the value at a [`Reader`]'s cursor is, from its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// `{`.
    Object,
    /// `[`.
    Array,
    /// `"`.
    String,
    /// `-` or a digit.
    Number,
    /// `t` or `f`.
    Bool,
    /// `n`.
    Null,
}

/// A place in a document that a [`Reader`] can go back to.
#[derive(Debug, Clone, Copy)]
struct Mark {
    pos: usize,
    depth: usize,
    fresh: bool,
}

/// A pull reader over one JSON document: the one tokenizer behind
/// [`parse`] and every checkpoint decoder. It enters and leaves objects and
/// arrays, yields keys (borrowed from the text unless they hold escapes),
/// reads scalars and skips values, with nesting bounded by [`MAX_DEPTH`].
/// Errors carry a byte offset; nothing panics on any input.
///
/// The scalar readers take a value of any type. For the value of their
/// type they return what [`JsonValue`]'s `as_*` accessor returns for the
/// parsed token — `1.0` is not a `u64`, nor is an integer above
/// `u64::MAX`, and any integer is an `f64` — and for a value of another
/// type they check its syntax, skip it and return `None`. So
/// `reader.u64()` at a member's value is `doc.get(key).and_then(as_u64)`
/// without the tree.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open at the cursor.
    depth: usize,
    /// The innermost container was just opened: its first member or item
    /// takes no comma, and it may close at once.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// `claimed` items of at least `item_bytes` bytes each, or as many as
    /// the rest of the document could hold if that is fewer: the capacity
    /// to reserve for a count the document states, so that memory stays in
    /// proportion to the document whatever the count claims.
    #[must_use]
    pub fn bounded(&self, claimed: u64, item_bytes: usize) -> usize {
        let room = (self.text.len() - self.pos) / item_bytes.max(1);
        usize::try_from(claimed).map_or(room, |claimed| claimed.min(room))
    }

    /// The cursor, to come back to with [`Reader::seek`].
    fn mark(&self) -> Mark {
        Mark {
            pos: self.pos,
            depth: self.depth,
            fresh: self.fresh,
        }
    }

    /// Moves the cursor back to `mark`, taken from this reader.
    fn seek(&mut self, mark: Mark) {
        self.pos = mark.pos;
        self.depth = mark.depth;
        self.fresh = mark.fresh;
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && matches!(bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    /// The next byte that is not whitespace, left unread.
    fn peek_byte(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek_byte() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.pos))
        }
    }

    /// What the next value is.
    ///
    /// # Errors
    ///
    /// Returns an error when no value starts at the cursor.
    pub fn peek(&mut self) -> Result<Token, String> {
        match self.peek_byte() {
            Some(b'{') => Ok(Token::Object),
            Some(b'[') => Ok(Token::Array),
            Some(b'"') => Ok(Token::String),
            Some(b'-' | b'0'..=b'9') => Ok(Token::Number),
            Some(b't' | b'f') => Ok(Token::Bool),
            Some(b'n') => Ok(Token::Null),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of document".to_string()),
        }
    }

    fn open(&mut self, bracket: u8) -> Result<(), String> {
        if self.peek_byte() != Some(bracket) {
            return Err(format!(
                "expected {:?} at byte {}",
                bracket as char, self.pos
            ));
        }
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "arrays and objects nest deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Enters the object at the cursor; [`Reader::next_key`] walks it.
    ///
    /// # Errors
    ///
    /// Returns an error when no object starts at the cursor, or when it
    /// would nest deeper than [`MAX_DEPTH`].
    fn begin_object(&mut self) -> Result<(), String> {
        self.open(b'{')
    }

    /// Enters the array at the cursor; [`Reader::next_item`] walks it.
    ///
    /// # Errors
    ///
    /// As [`Reader::begin_object`], for an array.
    fn begin_array(&mut self) -> Result<(), String> {
        self.open(b'[')
    }

    /// Steps past the comma before the next member or item of the
    /// innermost container, or past its `close` bracket: true while a
    /// member or item follows.
    fn next_in(&mut self, close: u8) -> Result<bool, String> {
        let c = self.peek_byte();
        if std::mem::take(&mut self.fresh) && c != Some(close) {
            return Ok(true);
        }
        match c {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(format!(
                "expected ',' or {:?} at byte {}",
                close as char, self.pos
            )),
        }
    }

    /// The next key of the object being walked, with the cursor left at its
    /// value, which the caller must read or skip; `None` once the object
    /// closes.
    ///
    /// # Errors
    ///
    /// Returns the syntax error at the cursor.
    fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.next_in(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Whether another item of the array being walked follows, with the
    /// cursor left at it; false once the array closes.
    ///
    /// # Errors
    ///
    /// Returns the syntax error at the cursor.
    fn next_item(&mut self) -> Result<bool, String> {
        self.next_in(b']')
    }

    /// Walks the object at the cursor, handing each key to `field` with
    /// the cursor at its value, which `field` must read or skip.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error or error of `field`.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.begin_object()?;
        while let Some(key) = self.next_key()? {
            field(self, &key)?;
        }
        Ok(())
    }

    /// Walks the array at the cursor, calling `item` with the cursor at
    /// each item, which `item` must read or skip.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error or error of `item`.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.begin_array()?;
        while self.next_item()? {
            item(self)?;
        }
        Ok(())
    }

    /// Reads the value at the cursor as an array of exactly two items, the
    /// first read by `first` and the second by `second`.
    ///
    /// # Errors
    ///
    /// Returns `not_a_pair` for any other value, or the error of a read.
    pub fn pair<A, B>(
        &mut self,
        not_a_pair: &str,
        first: impl FnOnce(&mut Self) -> Result<A, String>,
        second: impl FnOnce(&mut Self) -> Result<B, String>,
    ) -> Result<(A, B), String> {
        if self.peek()? != Token::Array {
            return Err(not_a_pair.to_string());
        }
        self.begin_array()?;
        if !self.next_item()? {
            return Err(not_a_pair.to_string());
        }
        let a = first(self)?;
        if !self.next_item()? {
            return Err(not_a_pair.to_string());
        }
        let b = second(self)?;
        if self.next_item()? {
            return Err(not_a_pair.to_string());
        }
        Ok((a, b))
    }

    /// Reads a member's value into `slot` unless an earlier member of the
    /// same key already filled it: the first of duplicate keys wins, as in
    /// [`JsonValue::get`], and a later one is only checked and skipped.
    ///
    /// # Errors
    ///
    /// Returns `read`'s error, or the syntax error of a skipped value.
    pub fn first<T>(
        &mut self,
        slot: &mut Option<T>,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<(), String> {
        if slot.is_some() {
            self.skip()
        } else {
            *slot = Some(read(self)?);
            Ok(())
        }
    }

    /// Reads the value at the cursor with `read`, for a value that only
    /// matters if a later part of the document says so. When `read` fails,
    /// the value is skipped from its start instead and `read`'s error is
    /// handed back inside `Ok`, to be raised only if the value turns out to
    /// matter.
    ///
    /// # Errors
    ///
    /// Returns a syntax error of the value.
    pub fn attempt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Result<T, String>, String> {
        let mark = self.mark();
        match read(self) {
            Ok(value) => Ok(Ok(value)),
            Err(error) => {
                self.seek(mark);
                self.skip()?;
                Ok(Err(error))
            }
        }
    }

    /// Skips the value at the cursor, checking its syntax.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error in the value.
    pub fn skip(&mut self) -> Result<(), String> {
        match self.peek()? {
            Token::Object => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
            Token::Array => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip()?;
                }
                Ok(())
            }
            Token::String => self.string().map(drop),
            Token::Number => self.number().map(drop),
            Token::Bool | Token::Null => self.literal().map(drop),
        }
    }

    /// Reads the value at the cursor into a tree.
    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek()? {
            Token::Object => {
                let mut members = Vec::new();
                self.begin_object()?;
                while let Some(key) = self.next_key()? {
                    members.push((key.into_owned(), self.value()?));
                }
                Ok(JsonValue::Object(members))
            }
            Token::Array => {
                let mut items = Vec::new();
                self.begin_array()?;
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Ok(JsonValue::Array(items))
            }
            Token::String => Ok(JsonValue::Str(self.string()?.into_owned())),
            Token::Number => self.number(),
            Token::Bool | Token::Null => self.literal(),
        }
    }

    /// Checks that nothing but whitespace is left.
    ///
    /// # Errors
    ///
    /// Returns the trailing-content error.
    pub fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing content at byte {}", self.pos))
        }
    }

    /// The number at the cursor when the value is one, as [`parse`] keeps
    /// it, handed to `get`; any other value is skipped and gives `None`.
    fn number_as<T>(
        &mut self,
        get: impl FnOnce(&JsonValue) -> Option<T>,
    ) -> Result<Option<T>, String> {
        if self.peek()? == Token::Number {
            Ok(get(&self.number()?))
        } else {
            self.skip()?;
            Ok(None)
        }
    }

    /// The value as a `u64`, as [`JsonValue::as_u64`] gives it.
    ///
    /// # Errors
    ///
    /// Returns the syntax error of the value.
    pub fn u64(&mut self) -> Result<Option<u64>, String> {
        self.number_as(JsonValue::as_u64)
    }

    /// The value as a `usize`, as [`JsonValue::as_usize`] gives it.
    ///
    /// # Errors
    ///
    /// Returns the syntax error of the value.
    pub fn usize(&mut self) -> Result<Option<usize>, String> {
        Ok(self.u64()?.and_then(|n| usize::try_from(n).ok()))
    }

    /// The value as a `u128`, as [`JsonValue::as_u128`] gives it.
    ///
    /// # Errors
    ///
    /// Returns the syntax error of the value.
    pub fn u128(&mut self) -> Result<Option<u128>, String> {
        self.number_as(JsonValue::as_u128)
    }

    /// The value as an `f64`, as [`JsonValue::as_f64`] gives it.
    ///
    /// # Errors
    ///
    /// Returns the syntax error of the value.
    pub fn f64(&mut self) -> Result<Option<f64>, String> {
        self.number_as(JsonValue::as_f64)
    }

    /// The value as a `bool`, when it is `true` or `false`.
    ///
    /// # Errors
    ///
    /// Returns the syntax error of the value.
    pub fn bool(&mut self) -> Result<Option<bool>, String> {
        if self.peek()? == Token::Bool {
            Ok(match self.literal()? {
                JsonValue::Bool(b) => Some(b),
                _ => None,
            })
        } else {
            self.skip()?;
            Ok(None)
        }
    }

    /// The value as a string, escapes resolved: borrowed from the text
    /// unless it holds escapes.
    ///
    /// # Errors
    ///
    /// Returns the syntax error of the value.
    pub fn str(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if self.peek()? == Token::String {
            self.string().map(Some)
        } else {
            self.skip()?;
            Ok(None)
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        parse_number(self.text.as_bytes(), &mut self.pos)
    }

    fn literal(&mut self) -> Result<JsonValue, String> {
        let (word, value) = match self.text.as_bytes()[self.pos] {
            b't' => ("true", JsonValue::Bool(true)),
            b'f' => ("false", JsonValue::Bool(false)),
            _ => ("null", JsonValue::Null),
        };
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }

    /// The string at the cursor. A run up to the closing quote without a
    /// backslash is the text itself; both delimiters are ASCII, so a run
    /// always ends on a character boundary.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let len = bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        self.pos = start + len;
        if bytes[self.pos] == b'"' {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..start + len]));
        }
        let mut out = self.text[start..start + len].to_string();
        loop {
            match bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            out.push(self.unicode_escape()?);
                        }
                        _ => return Err(format!("unknown escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let run = &bytes[self.pos..];
                    let len = run
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(run.len());
                    out.push_str(&self.text[self.pos..self.pos + len]);
                    self.pos += len;
                }
            }
        }
    }

    /// The character of the `\uXXXX` escape whose `u` is at the cursor,
    /// leaving the cursor on its last hex digit. A high surrogate followed
    /// by a `\u` escape of a low one is the one character the pair
    /// encodes, and the cursor ends on the second escape's last digit; any
    /// other surrogate is U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = hex4(self.text, self.pos + 1)?;
        self.pos += 4;
        if (0xD800..0xDC00).contains(&code) {
            let low = self
                .text
                .as_bytes()
                .get(self.pos + 1..self.pos + 3)
                .filter(|escape| *escape == b"\\u")
                .and_then(|_| hex4(self.text, self.pos + 3).ok())
                .filter(|low| (0xDC00..0xE000).contains(low));
            if let Some(low) = low {
                self.pos += 6;
                let joined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(joined).unwrap_or('\u{FFFD}'));
            }
        }
        Ok(char::from_u32(code).unwrap_or('\u{FFFD}'))
    }
}

/// The four hex digits at byte `at` of `text`: each must be an ASCII hex
/// digit (`u32::from_str_radix` would also take a leading `+`).
fn hex4(text: &str, at: usize) -> Result<u32, String> {
    let Some(digits) = text.as_bytes().get(at..at + 4) else {
        return Err("truncated \\u escape".to_string());
    };
    digits
        .iter()
        .try_fold(0, |code, &byte| {
            Some(code << 4 | char::from(byte).to_digit(16)?)
        })
        .ok_or_else(|| "malformed \\u escape".to_string())
}

/// The non-negative integer written at `pos` as a plain run of digits that
/// fits `u64` and ends the number token, with the offset past it; `None`
/// for any other number.
#[inline]
fn plain_u64(bytes: &[u8], pos: usize) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut end = pos;
    while let Some(&c) = bytes.get(end) {
        if !c.is_ascii_digit() {
            break;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(c - b'0'))?;
        end += 1;
    }
    (end > pos && !matches!(bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-')))
        .then_some((value, end))
}

/// Parses the number at `pos`. A non-negative integer that fits `u64` —
/// every count, address and distance a checkpoint holds — is read straight
/// from its digits; any other number goes through [`parse_number_token`],
/// which gives those integers the same value, only slower.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    if let Some((value, end)) = plain_u64(bytes, *pos) {
        *pos = end;
        return Ok(JsonValue::Int(i128::from(value)));
    }
    parse_number_token(bytes, pos)
}

/// Parses the number at `pos` as a token: the longest run of digits and
/// `.eE+-` after an optional sign, kept exact as an `i128` when it is an
/// integer in range, else read as an `f64` from the token's text.
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

    /// An escaped surrogate pair — how Python's `json.dump` writes a
    /// character outside the Basic Multilingual Plane — is that one
    /// character; a surrogate without its partner is U+FFFD.
    #[test]
    fn surrogate_pairs_join_and_lone_surrogates_are_replaced() {
        let read = |text: &str| parse(text).unwrap().as_str().map(str::to_string);
        assert_eq!(read(r#""\ud83d\ude00""#).as_deref(), Some("😀"));
        assert_eq!(read(r#""a\uD834\uDD1Eb""#).as_deref(), Some("a𝄞b"));
        assert_eq!(read(r#""\ud83d""#).as_deref(), Some("\u{FFFD}"));
        assert_eq!(read(r#""\ude00""#).as_deref(), Some("\u{FFFD}"));
        assert_eq!(
            read(r#""\ude00\ud83d""#).as_deref(),
            Some("\u{FFFD}\u{FFFD}")
        );
        assert_eq!(read(r#""\ud83dx""#).as_deref(), Some("\u{FFFD}x"));
        assert_eq!(read(r#""\ud83d\n""#).as_deref(), Some("\u{FFFD}\n"));
        assert_eq!(read(r#""\ud83d\u0041""#).as_deref(), Some("\u{FFFD}A"));
        assert_eq!(
            read(r#""\ud83d\ud83d\ude00""#).as_deref(),
            Some("\u{FFFD}😀")
        );
        // A key is read the same way, and a broken second escape is still
        // the error it always was.
        let doc = parse(r#"{"\ud83d\ude00": 1}"#).unwrap();
        assert_eq!(doc.get("😀"), Some(&JsonValue::Int(1)));
        assert!(parse(r#""\ud83d\uzzzz""#)
            .unwrap_err()
            .contains("malformed"));
        assert!(parse(r#""\ud83d\ude0""#).is_err());
        // What the writer escapes still round-trips.
        assert_eq!(
            read(&format!("\"{}\"", escape("😀 \u{1}"))).as_deref(),
            Some("😀 \u{1}")
        );
    }

    /// A `\u` escape is exactly four ASCII hex digits: no sign, no space.
    #[test]
    fn unicode_escapes_take_four_hex_digits() {
        let read = |text: &str| parse(text).map(|v| v.as_str().map(str::to_string));
        assert_eq!(read(r#""\u0041""#), Ok(Some("A".to_string())));
        assert_eq!(read(r#""\u00e9\u00C9""#), Ok(Some("éÉ".to_string())));
        for bad in [
            r#""\u+041""#,
            r#""\u 041""#,
            r#""\u-041""#,
            r#""\u004g""#,
            r#""\u00é""#,
        ] {
            assert!(read(bad).unwrap_err().contains("malformed"), "{bad}");
        }
        assert!(read(r#""\u004"#).is_err());
    }

    /// The reader's scalar readers give what the tree's accessors give
    /// for the same value, and skip a value of another type.
    #[test]
    fn reader_scalars_match_the_tree_accessors() {
        let values = [
            "0",
            "7",
            "-0",
            "-3",
            "1.0",
            "1e3",
            "2.5",
            "18446744073709551615",
            "18446744073709551616",
            "340282366920938463463374607431768211456",
            "1e999",
            "true",
            "false",
            "null",
            "\"s\"",
            "\"\\u0041\"",
            "[1, [2]]",
            "{\"a\": {}}",
        ];
        for text in values {
            let tree = parse(text).unwrap();
            let read = |f: &dyn Fn(&mut Reader<'_>) -> String| {
                let mut reader = Reader::new(text);
                let got = f(&mut reader);
                reader.finish().unwrap();
                got
            };
            assert_eq!(
                read(&|r| format!("{:?}", r.u64().unwrap())),
                format!("{:?}", tree.as_u64()),
                "{text}"
            );
            assert_eq!(
                read(&|r| format!("{:?}", r.usize().unwrap())),
                format!("{:?}", tree.as_usize()),
                "{text}"
            );
            assert_eq!(
                read(&|r| format!("{:?}", r.u128().unwrap())),
                format!("{:?}", tree.as_u128()),
                "{text}"
            );
            assert_eq!(
                read(&|r| format!("{:?}", r.f64().unwrap())),
                format!("{:?}", tree.as_f64()),
                "{text}"
            );
            assert_eq!(
                read(&|r| format!("{:?}", r.str().unwrap().as_deref())),
                format!("{:?}", tree.as_str()),
                "{text}"
            );
            let boolean = match tree {
                JsonValue::Bool(b) => Some(b),
                _ => None,
            };
            assert_eq!(
                read(&|r| format!("{:?}", r.bool().unwrap())),
                format!("{boolean:?}"),
                "{text}"
            );
            assert_eq!(
                read(&|r| {
                    r.skip().unwrap();
                    String::new()
                }),
                ""
            );
        }
    }

    /// Keys come borrowed unless escaped; duplicate keys are all walked,
    /// and `first` keeps the first; a trial read that fails skips its
    /// value and keeps the reason; claimed counts are bounded by the bytes
    /// left.
    #[test]
    fn reader_walks_objects_and_arrays() {
        let text = r#" {"a": [1, 2, {"x": null}], "b\n": "v", "a": 9, "c": [] } "#;
        let mut reader = Reader::new(text);
        let mut keys = Vec::new();
        let mut a = None;
        reader
            .object(|reader, key| {
                keys.push(key.to_string());
                match key {
                    "a" => reader.first(&mut a, |reader| {
                        let mut items = 0;
                        reader.array(|reader| {
                            items += 1;
                            reader.skip()
                        })?;
                        Ok(items)
                    }),
                    _ => reader.skip(),
                }
            })
            .unwrap();
        reader.finish().unwrap();
        assert_eq!(keys, ["a", "b\n", "a", "c"]);
        assert_eq!(a, Some(3));
        let mut reader = Reader::new(r#"{"k": "v"}"#);
        reader.begin_object().unwrap();
        assert!(matches!(
            reader.next_key().unwrap(),
            Some(Cow::Borrowed("k"))
        ));
        let mut reader = Reader::new(r#"{"\u006b": 1}"#);
        reader.begin_object().unwrap();
        assert!(matches!(reader.next_key().unwrap(), Some(Cow::Owned(k)) if k == "k"));

        let mut reader = Reader::new("[[1, 2], [3, \"x\"], 4]");
        reader.begin_array().unwrap();
        let mut sums = Vec::new();
        while reader.next_item().unwrap() {
            sums.push(reader.attempt(|reader| {
                let mut sum = 0;
                reader.array(|reader| {
                    sum += reader.u64()?.ok_or("not a count")?;
                    Ok(())
                })?;
                Ok(sum)
            }));
        }
        reader.finish().unwrap();
        assert_eq!(sums[0], Ok(Ok(3)));
        assert_eq!(sums[1], Ok(Err("not a count".to_string())));
        assert!(matches!(&sums[2], Ok(Err(e)) if e.contains("expected '['")));

        let reader = Reader::new("[1, 2, 3]");
        assert_eq!(reader.bounded(2, 2), 2);
        assert_eq!(reader.bounded(1_000_000_000_000, 2), 4);
        assert_eq!(reader.bounded(u64::MAX, 1), 9);
    }

    /// A decoder's complaint about a document that does not parse gives
    /// way to the syntax error `parse` reports; trailing content is one.
    #[test]
    fn read_document_reports_syntax_errors_first() {
        let complain = |_: &mut Reader<'_>| Err::<(), _>("decoder".to_string());
        assert_eq!(
            read_document("[1, 2]", complain),
            Err("decoder".to_string())
        );
        for bad in ["[1, 2", "[1, 2] x", "[1, 2 3]", &"[".repeat(200)] {
            assert_eq!(
                read_document(bad, complain),
                Err(parse(bad).unwrap_err()),
                "{bad}"
            );
        }
        assert_eq!(read_document(" 5 ", Reader::u64), Ok(Some(5)));
        assert!(read_document("5 6", Reader::u64)
            .unwrap_err()
            .contains("trailing"));
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
