//! The `.sltr` compact binary trace format: streaming varint I/O.
//!
//! Plain-text traces ([`crate::io`]) cost ~7 bytes per access for realistic
//! address ranges and force a parse per line; the streaming trace-analysis
//! subsystem wants to push tens of millions of accesses through a reader, so
//! this module defines a minimal binary container:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SLTR"
//! 4       1     version (currently 1)
//! 5       ..    accesses, each one LEB128 varint (7 bits per byte,
//!               high bit = continuation), little-endian groups
//! ```
//!
//! The format is append-friendly and stream-friendly: the writer never
//! seeks, the reader yields one address at a time without materializing the
//! trace, and the per-access cost is 1 byte for addresses `< 128`, 2 bytes
//! below `16384`, and so on. There is deliberately no embedded length — the
//! number of accesses is whatever the payload decodes to, so concatenating
//! payloads or truncating to a prefix of whole varints remains valid.
//!
//! Because varints have no fixed width, reaching access `k` normally means
//! decoding `k` varints; the optional **sidecar chunk index**
//! ([`SltrIndex`], stored at [`sltr_index_path`]) records the payload byte
//! offset of every `interval`-th access so range reads *seek* to within
//! `interval` accesses of their start instead; the block readers check
//! every offset they pass against the bytes they decode
//! ([`crate::stream::ReadPlan`]). The `.sltr` file itself is unchanged —
//! version-1 readers ignore the sidecar entirely.
//!
//! Round-tripping through [`crate::io`]'s text format is pinned by tests
//! (`read_sltr(write_sltr(t)) == read_trace_from_str(write_trace_to_string(t))`).

use crate::io::TraceIoError;
use crate::trace::{Addr, Trace};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// The 4-byte magic at the start of every `.sltr` file.
pub const SLTR_MAGIC: [u8; 4] = *b"SLTR";
/// The current format version.
pub const SLTR_VERSION: u8 = 1;

/// Errors arising while reading or writing binary traces.
#[derive(Debug)]
pub enum SltrError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the `SLTR` magic.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file's version byte is not supported.
    BadVersion {
        /// The version actually found.
        found: u8,
    },
    /// The payload ended in the middle of a varint.
    TruncatedVarint {
        /// 0-based index of the access being decoded when input ran out.
        access: u64,
    },
    /// A varint encoded a value that does not fit in a `u64` address.
    Overflow {
        /// 0-based index of the offending access.
        access: u64,
    },
    /// A `.sltr.idx` sidecar index is structurally invalid: wrong magic or
    /// version, truncated, non-monotone or out-of-bounds offsets.
    IndexCorrupt {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A `.sltr.idx` sidecar index is well-formed but does not describe
    /// the `.sltr` payload next to it (the trace file changed after the
    /// index was written).
    IndexStale {
        /// Human-readable description of the mismatch.
        reason: String,
    },
}

impl std::fmt::Display for SltrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SltrError::Io(e) => write!(f, "sltr I/O error: {e}"),
            SltrError::BadMagic { found } => {
                write!(f, "not an SLTR trace (magic {found:?})")
            }
            SltrError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported SLTR version {found} (supported: {SLTR_VERSION})"
                )
            }
            SltrError::TruncatedVarint { access } => {
                write!(f, "sltr payload truncated inside access #{access}")
            }
            SltrError::Overflow { access } => {
                write!(f, "sltr access #{access} overflows a 64-bit address")
            }
            SltrError::IndexCorrupt { reason } => {
                write!(f, "sltr index is corrupt: {reason}")
            }
            SltrError::IndexStale { reason } => {
                write!(f, "sltr index is stale: {reason}")
            }
        }
    }
}

impl std::error::Error for SltrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SltrError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SltrError {
    fn from(e: std::io::Error) -> Self {
        SltrError::Io(e)
    }
}

impl From<SltrError> for TraceIoError {
    fn from(e: SltrError) -> Self {
        match e {
            SltrError::Io(io) => TraceIoError::Io(io),
            other => TraceIoError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                other.to_string(),
            )),
        }
    }
}

/// Appends the LEB128 varint encoding of `value` to `out`.
pub fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The 4-byte magic at the start of every `.sltr.idx` sidecar index.
pub const SLTR_INDEX_MAGIC: [u8; 4] = *b"SLIX";
/// The current sidecar-index format version.
pub const SLTR_INDEX_VERSION: u8 = 1;
/// The default indexing interval (accesses between stored offsets) used by
/// the CLI and the convenience writers.
pub const DEFAULT_INDEX_INTERVAL: u64 = 4096;

/// The canonical sidecar path of a `.sltr` file's index: the same file name
/// with `.idx` appended (`trace.sltr` → `trace.sltr.idx`).
#[must_use]
pub fn sltr_index_path(sltr: &Path) -> std::path::PathBuf {
    let mut name = sltr.file_name().unwrap_or_default().to_os_string();
    name.push(".idx");
    sltr.with_file_name(name)
}

/// A chunk index over a `.sltr` payload: the byte offset (relative to the
/// start of the payload, i.e. past the 5-byte header) of every `interval`-th
/// access, so the block readers of [`crate::stream::TraceSource::read_blocks`]
/// can *seek* to a chunk instead of decode-skipping the prefix, checking
/// every offset they pass against the bytes they decode.
///
/// Stored as a sidecar file (`<trace>.sltr.idx`) so the `.sltr` format
/// itself stays version-1, append-friendly and concatenation-safe:
///
/// ```text
/// offset  size  field
/// 0       4     magic  b"SLIX"
/// 4       1     version (currently 1)
/// 5       ..    varints: interval, total accesses, payload byte length,
///               entry count E, then E offset *deltas* (entry k holds the
///               payload offset of access k·interval; deltas keep the
///               varints small)
/// ```
///
/// An index knows the payload length and access count it was built for, so
/// readers detect a trace file that was truncated, appended to or replaced
/// with different-length content after indexing ([`SltrError::IndexStale`])
/// instead of seeking into the wrong bytes. An *equal-length* content swap
/// is not detectable without hashing the payload on every open — the same
/// deliberate trade-off the trace-job checkpoints make (see
/// `FusedIngest::resume_or_new`): rewriting a trace in place means
/// regenerating its index (`symloc trace convert` always writes both).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SltrIndex {
    interval: u64,
    total: u64,
    payload_len: u64,
    /// offsets[k-1] = payload byte offset of access `k·interval`, strictly
    /// increasing, each `< payload_len`.
    offsets: Vec<u64>,
}

impl SltrIndex {
    /// Assembles an index from raw parts — the hook for indexers other
    /// than [`SltrWriter`], such as the text-trace line indexer
    /// ([`crate::stream::build_text_index`]). `offsets[k-1]` must be the
    /// payload byte offset of access `k·interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`, the entry count does not match
    /// `(total - 1) / interval`, or the offsets are not strictly
    /// increasing within the payload — the same invariants
    /// [`SltrIndex::from_bytes`] enforces on parse.
    #[must_use]
    pub fn from_parts(interval: u64, total: u64, payload_len: u64, offsets: Vec<u64>) -> Self {
        assert!(interval > 0, "the index interval must be positive");
        let expected = if total == 0 {
            0
        } else {
            (total - 1) / interval
        };
        assert_eq!(
            offsets.len() as u64,
            expected,
            "expected {expected} offsets for {total} accesses every {interval}"
        );
        let mut prev: Option<u64> = None;
        for &offset in &offsets {
            assert!(
                prev.is_none_or(|p| offset > p),
                "offsets must be strictly increasing"
            );
            assert!(
                offset < payload_len,
                "offset {offset} is outside the {payload_len}-byte payload"
            );
            prev = Some(offset);
        }
        SltrIndex {
            interval,
            total,
            payload_len,
            offsets,
        }
    }

    /// The indexing interval (accesses between stored offsets).
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The access count of the indexed payload.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// The byte length of the indexed payload (the file minus its 5-byte
    /// header).
    #[must_use]
    pub fn payload_len(&self) -> u64 {
        self.payload_len
    }

    /// Number of stored offsets.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.offsets.len()
    }

    /// Serializes the index.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.offsets.len() * 2);
        out.extend_from_slice(&SLTR_INDEX_MAGIC);
        out.push(SLTR_INDEX_VERSION);
        push_varint(&mut out, self.interval);
        push_varint(&mut out, self.total);
        push_varint(&mut out, self.payload_len);
        push_varint(&mut out, self.offsets.len() as u64);
        let mut prev = 0u64;
        for &offset in &self.offsets {
            push_varint(&mut out, offset - prev);
            prev = offset;
        }
        out
    }

    /// Parses and validates an index.
    ///
    /// # Errors
    ///
    /// Returns [`SltrError::IndexCorrupt`] describing the first structural
    /// problem.
    pub fn from_bytes(bytes: &[u8]) -> Result<SltrIndex, SltrError> {
        let corrupt = |reason: &str| SltrError::IndexCorrupt {
            reason: reason.to_string(),
        };
        if bytes.len() < 5 {
            return Err(corrupt("shorter than the 5-byte header"));
        }
        if bytes[..4] != SLTR_INDEX_MAGIC {
            return Err(corrupt("wrong magic (expected SLIX)"));
        }
        if bytes[4] != SLTR_INDEX_VERSION {
            return Err(SltrError::IndexCorrupt {
                reason: format!("unsupported version {}", bytes[4]),
            });
        }
        let mut pos = 5usize;
        let mut next = |what: &str| -> Result<u64, SltrError> {
            decode_varint_from(bytes, &mut pos).ok_or_else(|| SltrError::IndexCorrupt {
                reason: format!("truncated or overlong {what}"),
            })
        };
        let interval = next("interval")?;
        if interval == 0 {
            return Err(corrupt("interval must be positive"));
        }
        let total = next("total access count")?;
        let payload_len = next("payload length")?;
        let entry_count = next("entry count")?;
        let expected = if total == 0 {
            0
        } else {
            (total - 1) / interval
        };
        if entry_count != expected {
            return Err(SltrError::IndexCorrupt {
                reason: format!(
                    "{entry_count} entries, expected {expected} for {total} accesses every {interval}"
                ),
            });
        }
        // Every entry costs at least one byte, so an entry count beyond the
        // remaining input is corrupt — checked *before* sizing the offsets
        // buffer, or a tiny hand-crafted header (huge `total`, interval 1)
        // could demand an absurd allocation instead of an error.
        if entry_count > (bytes.len() - pos) as u64 {
            return Err(SltrError::IndexCorrupt {
                reason: format!(
                    "{entry_count} entries cannot fit in the {} remaining bytes",
                    bytes.len() - pos
                ),
            });
        }
        let mut offsets = Vec::with_capacity(entry_count as usize);
        let mut prev = 0u64;
        for k in 0..entry_count {
            let delta =
                decode_varint_from(bytes, &mut pos).ok_or_else(|| SltrError::IndexCorrupt {
                    reason: format!("truncated at entry {k}"),
                })?;
            if delta == 0 {
                // Offsets are strictly increasing: every access costs at
                // least one byte and the interval is at least one access.
                return Err(corrupt("offsets are not strictly increasing"));
            }
            let offset = prev
                .checked_add(delta)
                .ok_or_else(|| corrupt("offset overflow"))?;
            if offset >= payload_len {
                return Err(SltrError::IndexCorrupt {
                    reason: format!("offset {offset} is outside the {payload_len}-byte payload"),
                });
            }
            offsets.push(offset);
            prev = offset;
        }
        if pos != bytes.len() {
            return Err(corrupt("trailing bytes after the last entry"));
        }
        Ok(SltrIndex {
            interval,
            total,
            payload_len,
            offsets,
        })
    }

    /// Writes the index to `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write<P: AsRef<Path>>(&self, path: P) -> Result<(), SltrError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads and validates the index at `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error or the first structural problem.
    pub fn read<P: AsRef<Path>>(path: P) -> Result<SltrIndex, SltrError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Checks that this index describes a payload of `payload_len` bytes
    /// holding `total` accesses.
    ///
    /// # Errors
    ///
    /// Returns [`SltrError::IndexStale`] on a mismatch.
    pub fn check_matches(&self, total: u64, payload_len: u64) -> Result<(), SltrError> {
        if self.total != total || self.payload_len != payload_len {
            return Err(SltrError::IndexStale {
                reason: format!(
                    "index describes {} accesses in {} bytes, file has {} accesses in {} bytes \
                     (re-run `symloc trace convert` to refresh it)",
                    self.total, self.payload_len, total, payload_len
                ),
            });
        }
        Ok(())
    }

    /// The check a job plans by: the payload byte length alone (counting
    /// accesses would cost the full decode the index exists to avoid). The
    /// readers then check every offset they pass and the access count
    /// during their one decode pass.
    ///
    /// # Errors
    ///
    /// Returns [`SltrError::IndexStale`] on a mismatch.
    pub fn check_matches_payload_only(&self, payload_len: u64) -> Result<(), SltrError> {
        if self.payload_len != payload_len {
            return Err(SltrError::IndexStale {
                reason: format!(
                    "index describes a {}-byte payload, file has {} bytes \
                     (re-run `symloc trace convert` or `symloc trace index` to refresh it)",
                    self.payload_len, payload_len
                ),
            });
        }
        Ok(())
    }

    /// The payload byte offset the index records for access `point`, when
    /// `point` is a positive multiple of the interval it holds an entry
    /// for.
    #[must_use]
    pub fn offset_of(&self, point: u64) -> Option<u64> {
        if point == 0 || !point.is_multiple_of(self.interval) {
            return None;
        }
        let entry = usize::try_from(point / self.interval - 1).ok()?;
        self.offsets.get(entry).copied()
    }
}

/// The outcome of decoding one LEB128 varint from the front of a slice.
enum VarintStep {
    /// A complete varint: its value and encoded byte length.
    Done { value: u64, len: usize },
    /// The slice ended before the varint did (refill and retry, or report
    /// truncation if there is no more input).
    NeedMore,
    /// The varint encodes a value that does not fit in a `u64`.
    Overflow,
}

/// Decodes one varint from the front of `bytes` without consuming input —
/// the zero-copy core of [`SltrReader::decode_block`], which runs it
/// directly over the reader's buffered bytes.
#[inline]
fn step_varint(bytes: &[u8]) -> VarintStep {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in bytes.iter().enumerate() {
        let bits = u64::from(byte & 0x7f);
        if shift >= 64 || (shift == 63 && bits > 1) {
            return VarintStep::Overflow;
        }
        value |= bits << shift;
        if byte & 0x80 == 0 {
            return VarintStep::Done { value, len: i + 1 };
        }
        shift += 7;
    }
    VarintStep::NeedMore
}

/// Decodes one LEB128 varint from `bytes` at `*pos`, advancing it. Returns
/// `None` on truncation or a value overflowing `u64`.
fn decode_varint_from(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos)?;
        *pos += 1;
        let bits = u64::from(byte & 0x7f);
        if shift >= 64 || (shift == 63 && bits > 1) {
            return None;
        }
        value |= bits << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// A streaming `.sltr` writer over any [`Write`].
///
/// Writes the header on construction and one varint per
/// [`SltrWriter::push`]; call [`SltrWriter::finish`] (or drop) to flush.
/// Constructed with [`SltrWriter::new_indexed`], it additionally records
/// the payload offset of every `interval`-th access, yielding a
/// [`SltrIndex`] from [`SltrWriter::finish_indexed`] — the writer itself
/// still never seeks.
#[derive(Debug)]
pub struct SltrWriter<W: Write> {
    out: BufWriter<W>,
    buf: Vec<u8>,
    written: u64,
    payload_bytes: u64,
    /// `(interval, offsets)` when indexing was requested.
    index: Option<(u64, Vec<u64>)>,
}

impl<W: Write> SltrWriter<W> {
    /// Creates a writer and emits the header.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn new(inner: W) -> Result<Self, SltrError> {
        let mut out = BufWriter::new(inner);
        out.write_all(&SLTR_MAGIC)?;
        out.write_all(&[SLTR_VERSION])?;
        Ok(SltrWriter {
            out,
            buf: Vec::with_capacity(10),
            written: 0,
            payload_bytes: 0,
            index: None,
        })
    }

    /// Creates a writer that also builds a chunk index with the given
    /// access interval (see [`SltrIndex`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    pub fn new_indexed(inner: W, interval: u64) -> Result<Self, SltrError> {
        assert!(interval > 0, "the index interval must be positive");
        let mut writer = Self::new(inner)?;
        writer.index = Some((interval, Vec::new()));
        Ok(writer)
    }

    /// Appends one access.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn push(&mut self, addr: u64) -> Result<(), SltrError> {
        if let Some((interval, offsets)) = &mut self.index {
            if self.written > 0 && self.written.is_multiple_of(*interval) {
                offsets.push(self.payload_bytes);
            }
        }
        self.buf.clear();
        push_varint(&mut self.buf, addr);
        self.out.write_all(&self.buf)?;
        self.payload_bytes += self.buf.len() as u64;
        self.written += 1;
        Ok(())
    }

    /// Number of accesses written so far.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the access count.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn finish(mut self) -> Result<u64, SltrError> {
        self.out.flush()?;
        Ok(self.written)
    }

    /// Flushes and returns the access count together with the chunk index.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    ///
    /// # Panics
    ///
    /// Panics if the writer was not constructed with
    /// [`SltrWriter::new_indexed`].
    pub fn finish_indexed(mut self) -> Result<(u64, SltrIndex), SltrError> {
        self.out.flush()?;
        let (interval, offsets) = self.index.take().expect("writer was constructed indexed");
        Ok((
            self.written,
            SltrIndex {
                interval,
                total: self.written,
                payload_len: self.payload_bytes,
                offsets,
            },
        ))
    }
}

/// Reads the 5-byte `.sltr` header from `input` and checks its magic and
/// version.
///
/// # Errors
///
/// Returns [`SltrError::BadMagic`] / [`SltrError::BadVersion`] on a
/// foreign or future file, or the underlying I/O error.
pub(crate) fn read_sltr_header<R: Read>(input: &mut R) -> Result<(), SltrError> {
    let mut magic = [0u8; 4];
    input.read_exact(&mut magic)?;
    if magic != SLTR_MAGIC {
        return Err(SltrError::BadMagic { found: magic });
    }
    let mut version = [0u8; 1];
    input.read_exact(&mut version)?;
    if version[0] != SLTR_VERSION {
        return Err(SltrError::BadVersion { found: version[0] });
    }
    Ok(())
}

/// A streaming `.sltr` reader over any [`Read`]: an iterator of addresses.
///
/// The header is validated on construction; each `next` decodes one varint.
/// Errors are yielded in-stream (`Some(Err(..))`) and terminate iteration.
#[derive(Debug)]
pub struct SltrReader<R: Read> {
    input: BufReader<R>,
    decoded: u64,
    /// Payload bytes consumed by *this* reader (excludes the header, and
    /// excludes anything before a [`SltrReader::resume`] position).
    consumed: u64,
    failed: bool,
    /// An error hit mid-[`SltrReader::decode_block`] after the block had
    /// already produced accesses; reported by the *next* call so callers
    /// never lose decoded data to an error.
    pending: Option<SltrError>,
}

impl<R: Read> SltrReader<R> {
    /// Creates a reader and validates the header.
    ///
    /// # Errors
    ///
    /// Returns [`SltrError::BadMagic`] / [`SltrError::BadVersion`] on a
    /// foreign or future file, or the underlying I/O error.
    pub fn new(inner: R) -> Result<Self, SltrError> {
        let mut input = BufReader::new(inner);
        read_sltr_header(&mut input)?;
        Ok(SltrReader {
            input,
            decoded: 0,
            consumed: 0,
            failed: false,
            pending: None,
        })
    }

    /// Resumes decoding mid-payload: `inner` must already be positioned at
    /// an access boundary *past* the 5-byte header (a seek guided by a
    /// [`SltrIndex`]), and `already_decoded` is the number of accesses
    /// before that position, so in-stream error reports keep their global
    /// access indices. No header is expected or validated.
    #[must_use]
    pub fn resume(inner: R, already_decoded: u64) -> Self {
        SltrReader {
            input: BufReader::new(inner),
            decoded: already_decoded,
            consumed: 0,
            failed: false,
            pending: None,
        }
    }

    /// Number of accesses decoded so far.
    #[must_use]
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Payload bytes this reader has consumed so far — the byte offset of
    /// the next access relative to where decoding started. What the
    /// offline index builder ([`build_sltr_index`]) keys its offsets by.
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        self.consumed
    }

    fn read_byte(&mut self) -> Result<Option<u8>, SltrError> {
        let mut byte = [0u8; 1];
        loop {
            return match self.input.read(&mut byte) {
                Ok(0) => Ok(None),
                Ok(_) => {
                    self.consumed += 1;
                    Ok(Some(byte[0]))
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => Err(SltrError::Io(e)),
            };
        }
    }

    /// Decodes up to `max` accesses into `out` (cleared first), returning
    /// how many were produced; `0` means the payload ended cleanly.
    ///
    /// The fast path decodes varints straight out of the reader's internal
    /// buffer — no per-access `read` call, no copy — and falls back to the
    /// byte-at-a-time path only for the (at most one per buffer refill)
    /// varint that spans the buffer boundary. Interleaving with the
    /// [`Iterator`] interface is fine: both advance the same position and
    /// access counter.
    ///
    /// # Errors
    ///
    /// Returns [`SltrError::TruncatedVarint`] if the payload ends inside an
    /// access, [`SltrError::Overflow`] on a varint exceeding 64 bits, or
    /// the underlying I/O error. An error hit after this call already
    /// decoded accesses is deferred: the call returns those accesses and
    /// the *next* call returns the error, so callers never lose data —
    /// the same values-then-error order the iterator yields. As with the
    /// iterator, any error is terminal: later calls return `Ok(0)`.
    pub fn decode_block(&mut self, out: &mut Vec<u64>, max: usize) -> Result<usize, SltrError> {
        out.clear();
        self.decode_onto(out, max)
    }

    /// [`SltrReader::decode_block`] without clearing `out`: appends up to
    /// `max` accesses and returns how many it appended, with the same
    /// deferral of an error that follows appended accesses.
    ///
    /// # Errors
    ///
    /// As [`SltrReader::decode_block`].
    pub(crate) fn decode_onto(
        &mut self,
        out: &mut Vec<u64>,
        max: usize,
    ) -> Result<usize, SltrError> {
        if let Some(e) = self.pending.take() {
            return Err(e);
        }
        if self.failed {
            return Ok(0);
        }
        let first = out.len();
        let end = first.saturating_add(max);
        while out.len() < end {
            let buf = match self.input.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return self.block_error(out.len() - first, SltrError::Io(e)),
            };
            if buf.is_empty() {
                break; // clean end of payload at an access boundary
            }
            let mut pos = 0usize;
            let mut overflow = false;
            while out.len() < end {
                match step_varint(&buf[pos..]) {
                    VarintStep::Done { value, len } => {
                        pos += len;
                        out.push(value);
                        self.decoded += 1;
                    }
                    VarintStep::NeedMore => break,
                    VarintStep::Overflow => {
                        overflow = true;
                        break;
                    }
                }
            }
            self.consumed += pos as u64;
            self.input.consume(pos);
            if overflow {
                let access = self.decoded;
                return self.block_error(out.len() - first, SltrError::Overflow { access });
            }
            if pos == 0 {
                // The buffered bytes end inside a varint: either it spans
                // the buffer boundary, or the payload is truncated. One
                // byte-at-a-time decode refills or reports, uniformly.
                match self.next_varint() {
                    Ok(Some(value)) => out.push(value),
                    Ok(None) => break,
                    Err(e) => return self.block_error(out.len() - first, e),
                }
            }
        }
        Ok(out.len() - first)
    }

    /// Marks the reader failed and routes a mid-block error: reported now
    /// if the call appended nothing, deferred to the next call otherwise.
    fn block_error(&mut self, appended: usize, err: SltrError) -> Result<usize, SltrError> {
        self.failed = true;
        if appended == 0 {
            Err(err)
        } else {
            self.pending = Some(err);
            Ok(appended)
        }
    }

    fn next_varint(&mut self) -> Result<Option<u64>, SltrError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        let mut any = false;
        loop {
            let Some(byte) = self.read_byte()? else {
                if any {
                    return Err(SltrError::TruncatedVarint {
                        access: self.decoded,
                    });
                }
                return Ok(None);
            };
            any = true;
            let bits = u64::from(byte & 0x7f);
            if shift >= 64 || (shift == 63 && bits > 1) {
                return Err(SltrError::Overflow {
                    access: self.decoded,
                });
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                self.decoded += 1;
                return Ok(Some(value));
            }
            shift += 7;
        }
    }
}

impl<R: Read> Iterator for SltrReader<R> {
    type Item = Result<u64, SltrError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.next_varint() {
            Ok(Some(v)) => Some(Ok(v)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Writes a whole trace to a `.sltr` writer.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_sltr_to_writer<W: Write>(trace: &Trace, writer: W) -> Result<(), SltrError> {
    let mut out = SltrWriter::new(writer)?;
    for a in trace.iter() {
        out.push(a.value() as u64)?;
    }
    out.finish()?;
    Ok(())
}

/// Writes a whole trace to a `.sltr` file.
///
/// # Errors
///
/// See [`write_sltr_to_writer`].
pub fn write_sltr<P: AsRef<Path>>(trace: &Trace, path: P) -> Result<(), SltrError> {
    write_sltr_to_writer(trace, File::create(path)?)
}

/// Writes a whole trace to a `.sltr` file *and* its sidecar chunk index
/// (at [`sltr_index_path`]), returning the index.
///
/// # Errors
///
/// Returns the underlying I/O error of either file.
///
/// # Panics
///
/// Panics if `interval == 0`.
pub fn write_sltr_indexed<P: AsRef<Path>>(
    trace: &Trace,
    path: P,
    interval: u64,
) -> Result<SltrIndex, SltrError> {
    let path = path.as_ref();
    let mut writer = SltrWriter::new_indexed(File::create(path)?, interval)?;
    for a in trace.iter() {
        writer.push(a.value() as u64)?;
    }
    let (_, index) = writer.finish_indexed()?;
    index.write(sltr_index_path(path))?;
    Ok(index)
}

/// Serializes a trace to `.sltr` bytes.
///
/// # Errors
///
/// See [`write_sltr_to_writer`].
pub fn write_sltr_to_vec(trace: &Trace) -> Result<Vec<u8>, SltrError> {
    let mut bytes = Vec::with_capacity(5 + trace.len() * 2);
    write_sltr_to_writer(trace, &mut bytes)?;
    Ok(bytes)
}

/// Reads a whole `.sltr` stream into a trace (addresses must fit `usize`).
///
/// # Errors
///
/// Returns the first decode or I/O error.
pub fn read_sltr_from_reader<R: Read>(reader: R) -> Result<Trace, SltrError> {
    let mut trace = Trace::new();
    for item in SltrReader::new(reader)? {
        let value = item?;
        let addr = usize::try_from(value).map_err(|_| SltrError::Overflow { access: 0 })?;
        trace.push(Addr(addr));
    }
    Ok(trace)
}

/// Reads a whole `.sltr` file into a trace.
///
/// # Errors
///
/// See [`read_sltr_from_reader`].
pub fn read_sltr<P: AsRef<Path>>(path: P) -> Result<Trace, SltrError> {
    read_sltr_from_reader(File::open(path)?)
}

/// Builds a chunk index over an *existing* `.sltr` file by streaming one
/// decode pass (the writer-side path is [`SltrWriter::new_indexed`]; this
/// is the `symloc trace index` path for files written without one). The
/// caller persists it with [`SltrIndex::write`] at [`sltr_index_path`].
///
/// # Errors
///
/// Returns the first decode or I/O error.
///
/// # Panics
///
/// Panics if `interval == 0`.
pub fn build_sltr_index<P: AsRef<Path>>(path: P, interval: u64) -> Result<SltrIndex, SltrError> {
    assert!(interval > 0, "the index interval must be positive");
    let mut reader = SltrReader::new(File::open(path)?)?;
    let mut offsets = Vec::new();
    let mut count = 0u64;
    loop {
        let before = reader.payload_bytes();
        match reader.next() {
            None => break,
            Some(Err(e)) => return Err(e),
            Some(Ok(_)) => {
                if count > 0 && count.is_multiple_of(interval) {
                    offsets.push(before);
                }
                count += 1;
            }
        }
    }
    Ok(SltrIndex::from_parts(
        interval,
        count,
        reader.payload_bytes(),
        offsets,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{sawtooth_trace, zipfian_trace};
    use crate::io::{read_trace_from_str, write_trace_to_string};

    fn round_trip(trace: &Trace) -> Trace {
        let bytes = write_sltr_to_vec(trace).unwrap();
        read_sltr_from_reader(bytes.as_slice()).unwrap()
    }

    #[test]
    fn varint_boundary_values_round_trip() {
        for value in [
            0u64,
            1,
            127,
            128,
            129,
            16_383,
            16_384,
            (1 << 21) - 1,
            1 << 21,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            push_varint(&mut buf, value);
            assert!(buf.len() <= 10);
            let mut payload = SLTR_MAGIC.to_vec();
            payload.push(SLTR_VERSION);
            payload.extend_from_slice(&buf);
            let decoded: Vec<u64> = SltrReader::new(payload.as_slice())
                .unwrap()
                .map(Result::unwrap)
                .collect();
            assert_eq!(decoded, vec![value]);
        }
    }

    #[test]
    fn small_addresses_cost_one_byte() {
        let t = Trace::from_usizes(&[0, 1, 127, 127, 3]);
        let bytes = write_sltr_to_vec(&t).unwrap();
        assert_eq!(bytes.len(), 5 + t.len());
    }

    #[test]
    fn trace_round_trips_and_matches_text_io() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        for trace in [
            Trace::new(),
            sawtooth_trace(9, 3),
            zipfian_trace(1000, 500, 0.9, &mut rng),
            Trace::from_usizes(&[0, usize::MAX >> 1, 42]),
        ] {
            assert_eq!(round_trip(&trace), trace);
            // The binary path agrees with the established text path.
            let via_text = read_trace_from_str(&write_trace_to_string(&trace).unwrap()).unwrap();
            assert_eq!(round_trip(&trace), via_text);
        }
    }

    #[test]
    fn file_round_trip_and_count() {
        let path = std::env::temp_dir().join("symloc_binio_test.sltr");
        let t = sawtooth_trace(6, 4);
        write_sltr(&t, &path).unwrap();
        assert_eq!(read_sltr(&path).unwrap(), t);
        let source = crate::stream::TraceSource::Binary(path.clone());
        assert_eq!(source.total_accesses().unwrap(), t.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_reports_progress() {
        let mut bytes = Vec::new();
        let mut w = SltrWriter::new(&mut bytes).unwrap();
        assert_eq!(w.written(), 0);
        w.push(300).unwrap();
        w.push(7).unwrap();
        assert_eq!(w.written(), 2);
        assert_eq!(w.finish().unwrap(), 2);
        let back: Vec<u64> = SltrReader::new(bytes.as_slice())
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(back, vec![300, 7]);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let err = SltrReader::new(b"NOPE\x01rest".as_slice()).unwrap_err();
        assert!(matches!(err, SltrError::BadMagic { .. }));
        assert!(err.to_string().contains("magic"));
        let mut payload = SLTR_MAGIC.to_vec();
        payload.push(99);
        let err = SltrReader::new(payload.as_slice()).unwrap_err();
        assert!(matches!(err, SltrError::BadVersion { found: 99 }));
    }

    #[test]
    fn truncated_varint_is_reported_once() {
        let mut payload = SLTR_MAGIC.to_vec();
        payload.push(SLTR_VERSION);
        payload.push(5); // one complete access
        payload.push(0x80); // continuation byte with no successor
        let mut reader = SltrReader::new(payload.as_slice()).unwrap();
        assert_eq!(reader.next().unwrap().unwrap(), 5);
        let err = reader.next().unwrap().unwrap_err();
        assert!(matches!(err, SltrError::TruncatedVarint { access: 1 }));
        assert!(reader.next().is_none(), "errors terminate iteration");
    }

    #[test]
    fn varint_overflow_is_reported() {
        let mut payload = SLTR_MAGIC.to_vec();
        payload.push(SLTR_VERSION);
        payload.extend_from_slice(&[0xff; 10]);
        payload.push(0x03); // 66 significant bits
        let mut reader = SltrReader::new(payload.as_slice()).unwrap();
        assert!(matches!(
            reader.next().unwrap().unwrap_err(),
            SltrError::Overflow { .. }
        ));
    }

    /// A reader that hands out at most `chunk` bytes per `read`, so the
    /// block decoder's internal buffer keeps ending mid-varint.
    struct Dribble<'a> {
        bytes: &'a [u8],
        chunk: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(self.bytes.len()).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn block_decode_matches_the_iterator() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let t = zipfian_trace(1_000_000, 2000, 0.9, &mut rng);
        let bytes = write_sltr_to_vec(&t).unwrap();
        let by_iter: Vec<u64> = SltrReader::new(bytes.as_slice())
            .unwrap()
            .map(Result::unwrap)
            .collect();
        for max in [1usize, 7, 256, 4096] {
            let mut reader = SltrReader::new(bytes.as_slice()).unwrap();
            let mut block = Vec::new();
            let mut by_block = Vec::new();
            loop {
                let n = reader.decode_block(&mut block, max).unwrap();
                if n == 0 {
                    break;
                }
                assert!(n <= max);
                by_block.extend_from_slice(&block[..n]);
            }
            assert_eq!(by_block, by_iter, "max={max}");
            assert_eq!(reader.decoded(), t.len() as u64);
            assert_eq!(reader.payload_bytes(), bytes.len() as u64 - 5);
        }
    }

    #[test]
    fn block_decode_handles_varints_spanning_buffer_refills() {
        // Multi-byte varints with a 1..3-byte read granularity: every varint
        // crosses at least one internal buffer boundary, forcing the
        // byte-at-a-time fallback constantly.
        let values: Vec<u64> = (0..500).map(|i| 10_000 + i * 1_313).collect();
        let mut bytes = SLTR_MAGIC.to_vec();
        bytes.push(SLTR_VERSION);
        for &v in &values {
            push_varint(&mut bytes, v);
        }
        for chunk in [1usize, 2, 3] {
            let mut reader = SltrReader::new(BufReader::with_capacity(
                chunk,
                Dribble {
                    bytes: &bytes,
                    chunk,
                },
            ))
            .unwrap();
            let mut block = Vec::new();
            let mut got = Vec::new();
            while reader.decode_block(&mut block, 64).unwrap() > 0 {
                got.extend_from_slice(&block);
            }
            assert_eq!(got, values, "chunk={chunk}");
        }
    }

    #[test]
    fn block_decode_reports_truncation_and_stays_failed() {
        let mut payload = SLTR_MAGIC.to_vec();
        payload.push(SLTR_VERSION);
        payload.push(5); // one complete access
        payload.push(0x80); // continuation byte with no successor
        let mut reader = SltrReader::new(payload.as_slice()).unwrap();
        let mut block = Vec::new();
        assert_eq!(reader.decode_block(&mut block, 1024).unwrap(), 1);
        assert_eq!(block, vec![5]);
        let err = reader.decode_block(&mut block, 1024).unwrap_err();
        assert!(matches!(err, SltrError::TruncatedVarint { access: 1 }));
        // Errors are terminal, matching the iterator contract.
        assert_eq!(reader.decode_block(&mut block, 1024).unwrap(), 0);
        assert!(reader.next().is_none());
    }

    #[test]
    fn block_decode_reports_overflow() {
        let mut payload = SLTR_MAGIC.to_vec();
        payload.push(SLTR_VERSION);
        payload.push(9); // one good access
        payload.extend_from_slice(&[0xff; 10]);
        payload.push(0x03); // 66 significant bits
        let mut reader = SltrReader::new(payload.as_slice()).unwrap();
        let mut block = Vec::new();
        // The good access is returned first; the overflow is deferred to
        // the next call rather than discarding decoded data.
        assert_eq!(reader.decode_block(&mut block, 1024).unwrap(), 1);
        assert_eq!(block, vec![9]);
        let err = reader.decode_block(&mut block, 1024).unwrap_err();
        assert!(matches!(err, SltrError::Overflow { access: 1 }));
        assert_eq!(reader.decode_block(&mut block, 1024).unwrap(), 0);
    }

    /// A length scan's outcome in comparable form: the count, or the
    /// message of a decode error (which names its access), or the kind of
    /// an I/O error.
    fn scan_outcome(result: Result<u64, TraceIoError>) -> Result<u64, String> {
        result.map_err(|e| match e {
            TraceIoError::Io(e) if e.kind() == std::io::ErrorKind::InvalidData => e.to_string(),
            TraceIoError::Io(e) => format!("I/O {:?}", e.kind()),
            other => other.to_string(),
        })
    }

    /// The reference length scan: drains the per-access iterator.
    fn iterator_count(path: &Path) -> Result<u64, SltrError> {
        let mut count = 0;
        for item in SltrReader::new(File::open(path)?)? {
            item?;
            count += 1;
        }
        Ok(count)
    }

    #[test]
    fn block_count_matches_the_iterator_on_damaged_files() {
        let path =
            std::env::temp_dir().join(format!("symloc_binio_count_{}.sltr", std::process::id()));
        // One-, two- and three-byte varints; the long file's payload crosses
        // the reader's 8 KiB buffer, so damage near that boundary lands in
        // a varint the block decoder finishes byte by byte after a refill.
        let file = |accesses: u64| {
            let mut bytes = SLTR_MAGIC.to_vec();
            bytes.push(SLTR_VERSION);
            for i in 0..accesses {
                push_varint(&mut bytes, i * i * 37 % 100_000);
            }
            bytes
        };
        let (short, long) = (file(60), file(4000));
        assert!(long.len() > 8192 + 64);
        // Ten 0xff bytes and a 0x03: 66 significant bits.
        let mut run = vec![0xff; 10];
        run.push(0x03);
        let mut inputs: Vec<Vec<u8>> = (0..=short.len()).map(|n| short[..n].to_vec()).collect();
        for (good, offsets) in [(&short, 5..short.len()), (&long, 8192 - 16..8192 + 16)] {
            for offset in offsets {
                let mut continued = good.clone();
                continued[offset] = 0x80;
                inputs.push(continued);
                let mut overflow = good.clone();
                for (i, &byte) in run.iter().enumerate() {
                    match overflow.get_mut(offset + i) {
                        Some(slot) => *slot = byte,
                        None => overflow.push(byte),
                    }
                }
                inputs.push(overflow);
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        let source = crate::stream::TraceSource::Binary(path.clone());
        for bytes in &inputs {
            std::fs::write(&path, bytes).unwrap();
            let want = scan_outcome(iterator_count(&path).map_err(TraceIoError::from));
            assert_eq!(
                scan_outcome(source.total_accesses()),
                want,
                "{} bytes",
                bytes.len()
            );
            seen.insert(match want {
                Ok(_) => "ok".to_string(),
                Err(e) if e.contains("truncated inside access") => "truncated".to_string(),
                Err(e) if e.contains("overflows") => "overflow".to_string(),
                Err(e) => e,
            });
        }
        std::fs::remove_file(&path).ok();
        // Every outcome shape occurred: clean counts, header errors,
        // truncations and overflows.
        for shape in ["ok", "I/O UnexpectedEof", "truncated", "overflow"] {
            assert!(seen.contains(shape), "{shape} never occurred: {seen:?}");
        }
    }

    #[test]
    fn indexed_writer_round_trips_and_seek_hints_are_exact() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(21);
        let t = zipfian_trace(100_000, 3000, 0.9, &mut rng);
        for interval in [1u64, 7, 64, 1024, 5000] {
            let mut bytes = Vec::new();
            let mut w = SltrWriter::new_indexed(&mut bytes, interval).unwrap();
            for a in t.iter() {
                w.push(a.value() as u64).unwrap();
            }
            let (written, index) = w.finish_indexed().unwrap();
            assert_eq!(written, t.len() as u64);
            assert_eq!(index.interval(), interval);
            assert_eq!(index.total_accesses(), t.len() as u64);
            assert_eq!(index.payload_len(), bytes.len() as u64 - 5);
            let expected_entries = if t.is_empty() {
                0
            } else {
                (t.len() as u64 - 1) / interval
            };
            assert_eq!(index.entry_count() as u64, expected_entries);
            // The index serializes and parses back identically.
            let parsed = SltrIndex::from_bytes(&index.to_bytes()).unwrap();
            assert_eq!(parsed, index);
            // Every offset lands on the exact byte of its access: decoding
            // from it reproduces that access, and no other point has one.
            for k in 0..=expected_entries + 1 {
                let point = k * interval;
                let Some(offset) = index.offset_of(point) else {
                    assert!(k == 0 || k > expected_entries, "interval={interval} k={k}");
                    continue;
                };
                let mut reader = SltrReader::resume(&bytes[5 + offset as usize..], point);
                let got = reader.next().map(|r| r.unwrap());
                let expect = t.accesses()[point as usize].value() as u64;
                assert_eq!(got, Some(expect), "interval={interval} point={point}");
            }
        }
    }

    #[test]
    fn index_file_round_trip_and_paths() {
        let dir = std::env::temp_dir();
        let path = dir.join("symloc_binio_index_test.sltr");
        let t = sawtooth_trace(50, 10);
        let index = write_sltr_indexed(&t, &path, 64).unwrap();
        let sidecar = sltr_index_path(&path);
        assert!(sidecar.to_string_lossy().ends_with(".sltr.idx"));
        let back = SltrIndex::read(&sidecar).unwrap();
        assert_eq!(back, index);
        assert_eq!(read_sltr(&path).unwrap(), t);
        back.check_matches(500, std::fs::metadata(&path).unwrap().len() - 5)
            .unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
    }

    #[test]
    fn corrupt_indexes_are_rejected_not_panicked() {
        let t = sawtooth_trace(40, 8); // 320 accesses
        let mut bytes = Vec::new();
        let mut w = SltrWriter::new_indexed(&mut bytes, 100).unwrap();
        for a in t.iter() {
            w.push(a.value() as u64).unwrap();
        }
        let (_, index) = w.finish_indexed().unwrap();
        let good = index.to_bytes();
        assert!(SltrIndex::from_bytes(&good).is_ok());

        // Too short / wrong magic / wrong version.
        assert!(matches!(
            SltrIndex::from_bytes(b"SLI").unwrap_err(),
            SltrError::IndexCorrupt { .. }
        ));
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(SltrIndex::from_bytes(&bad).is_err());
        let mut bad = good.clone();
        bad[4] = 9;
        assert!(SltrIndex::from_bytes(&bad).is_err());
        // Truncated varints.
        assert!(SltrIndex::from_bytes(&good[..good.len() - 1]).is_err());
        assert!(SltrIndex::from_bytes(&good[..6]).is_err());
        // A tiny header demanding an absurd entry count must be rejected
        // *without* attempting the allocation (regression test).
        let mut huge = SLTR_INDEX_MAGIC.to_vec();
        huge.push(SLTR_INDEX_VERSION);
        push_varint(&mut huge, 1); // interval
        push_varint(&mut huge, u64::MAX); // total accesses
        push_varint(&mut huge, u64::MAX); // payload length
        push_varint(&mut huge, u64::MAX - 1); // entry count (consistent!)
        assert!(matches!(
            SltrIndex::from_bytes(&huge).unwrap_err(),
            SltrError::IndexCorrupt { .. }
        ));
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(SltrIndex::from_bytes(&bad).is_err());
        // Bogus offsets: a zero delta (non-increasing) is structural.
        let zero_delta = SltrIndex {
            interval: 100,
            total: 320,
            payload_len: index.payload_len(),
            offsets: vec![
                index.payload_len() + 5,
                index.payload_len() + 5,
                index.payload_len() + 6,
            ],
        };
        assert!(SltrIndex::from_bytes(&zero_delta.to_bytes()).is_err());
        // Offsets past the payload are rejected.
        let out_of_bounds = SltrIndex {
            interval: 100,
            total: 320,
            payload_len: index.payload_len(),
            offsets: vec![100, 200, index.payload_len() + 7],
        };
        assert!(matches!(
            SltrIndex::from_bytes(&out_of_bounds.to_bytes()).unwrap_err(),
            SltrError::IndexCorrupt { .. }
        ));
        // Staleness checks.
        assert!(index.check_matches(320, index.payload_len()).is_ok());
        assert!(matches!(
            index.check_matches(321, index.payload_len()).unwrap_err(),
            SltrError::IndexStale { .. }
        ));
        assert!(index
            .check_matches_payload_only(index.payload_len())
            .is_ok());
        assert!(index.check_matches_payload_only(1).is_err());
    }

    #[test]
    fn offline_index_builder_matches_the_writer_side_index() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(31);
        let t = zipfian_trace(100_000, 2000, 0.9, &mut rng);
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "symloc_binio_offline_index_{}.sltr",
            std::process::id()
        ));
        for interval in [1u64, 64, 700] {
            let written = write_sltr_indexed(&t, &path, interval).unwrap();
            let rebuilt = build_sltr_index(&path, interval).unwrap();
            assert_eq!(rebuilt, written, "interval={interval}");
        }
        assert!(build_sltr_index("/no/such/file.sltr", 64).is_err());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(sltr_index_path(&path)).ok();
    }

    #[test]
    fn from_parts_enforces_the_parse_invariants() {
        let index = SltrIndex::from_parts(10, 25, 100, vec![40, 80]);
        assert_eq!(SltrIndex::from_bytes(&index.to_bytes()).unwrap(), index);
        assert_eq!(SltrIndex::from_parts(10, 0, 0, vec![]).entry_count(), 0);
        for bad in [
            std::panic::catch_unwind(|| SltrIndex::from_parts(0, 25, 100, vec![])),
            std::panic::catch_unwind(|| SltrIndex::from_parts(10, 25, 100, vec![40])),
            std::panic::catch_unwind(|| SltrIndex::from_parts(10, 25, 100, vec![80, 40])),
            std::panic::catch_unwind(|| SltrIndex::from_parts(10, 25, 100, vec![40, 100])),
        ] {
            assert!(bad.is_err());
        }
    }

    #[test]
    fn errors_display_and_convert() {
        let e = SltrError::TruncatedVarint { access: 3 };
        assert!(e.to_string().contains("#3"));
        let io: TraceIoError = e.into();
        assert!(io.to_string().contains("truncated"));
        use std::error::Error;
        assert!(SltrError::Io(std::io::Error::other("x")).source().is_some());
        assert!(SltrError::BadVersion { found: 2 }.source().is_none());
    }
}
