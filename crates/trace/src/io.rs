//! Plain-text trace I/O.
//!
//! Format: one access per line, each line a non-negative integer address.
//! Blank lines and lines starting with `#` are ignored, so generated traces
//! can carry a commented header. This is the least-common-denominator format
//! shared by most academic reuse-distance tools.

use crate::trace::{Addr, Trace};
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors arising while reading or writing traces.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line could not be parsed as an address.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// The offending text.
        text: String,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceIoError::Parse { line, text } => {
                write!(
                    f,
                    "trace parse error at line {line}: {text:?} is not an address"
                )
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Parses a trace from any reader in the one-address-per-line format.
///
/// # Errors
///
/// Returns [`TraceIoError::Parse`] on the first malformed line or
/// [`TraceIoError::Io`] on read failure.
pub fn read_trace_from_reader<R: Read>(reader: R) -> Result<Trace, TraceIoError> {
    let buf = BufReader::new(reader);
    let mut trace = Trace::new();
    for (idx, line) in buf.lines().enumerate() {
        let line = line?;
        let Some(parsed) = parse_text_line(&line) else {
            continue;
        };
        let addr = parsed
            .ok()
            .and_then(|addr| usize::try_from(addr).ok())
            .ok_or_else(|| TraceIoError::Parse {
                line: idx + 1,
                text: line.trim().to_string(),
            })?;
        trace.push(Addr(addr));
    }
    Ok(trace)
}

/// Parses one line of a text trace, the grammar every text reader shares:
/// `None` for a blank or `#` comment line, otherwise the address, or the
/// trimmed text of a line that is not one.
pub(crate) fn parse_text_line(line: &str) -> Option<Result<u64, &str>> {
    let text = line.trim();
    (!text.is_empty() && !text.starts_with('#')).then(|| text.parse().map_err(|_| text))
}

/// Parses a trace from an in-memory string.
///
/// # Errors
///
/// See [`read_trace_from_reader`].
pub fn read_trace_from_str(s: &str) -> Result<Trace, TraceIoError> {
    read_trace_from_reader(s.as_bytes())
}

/// Reads a trace from a file.
///
/// # Errors
///
/// See [`read_trace_from_reader`].
pub fn read_trace<P: AsRef<Path>>(path: P) -> Result<Trace, TraceIoError> {
    read_trace_from_reader(File::open(path)?)
}

/// Writes a trace to any writer in the one-address-per-line format, with a
/// small commented header recording the length and footprint.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] on write failure.
pub fn write_trace_to_writer<W: Write>(trace: &Trace, writer: W) -> Result<(), TraceIoError> {
    let mut out = BufWriter::new(writer);
    writeln!(out, "# symloc trace")?;
    writeln!(out, "# accesses: {}", trace.len())?;
    writeln!(out, "# footprint: {}", trace.distinct_count())?;
    for a in trace.iter() {
        writeln!(out, "{}", a.value())?;
    }
    out.flush()?;
    Ok(())
}

/// Serializes a trace to a `String`.
///
/// # Errors
///
/// See [`write_trace_to_writer`].
pub fn write_trace_to_string(trace: &Trace) -> Result<String, TraceIoError> {
    let mut bytes = Vec::new();
    write_trace_to_writer(trace, &mut bytes)?;
    Ok(String::from_utf8(bytes).expect("trace text is ASCII"))
}

/// Writes a trace to a file.
///
/// # Errors
///
/// See [`write_trace_to_writer`].
pub fn write_trace<P: AsRef<Path>>(trace: &Trace, path: P) -> Result<(), TraceIoError> {
    write_trace_to_writer(trace, File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::sawtooth_trace;

    #[test]
    fn round_trip_through_string() {
        let t = sawtooth_trace(5, 3);
        let s = write_trace_to_string(&t).unwrap();
        assert!(s.starts_with("# symloc trace"));
        assert!(s.contains("# accesses: 15"));
        assert!(s.contains("# footprint: 5"));
        let back = read_trace_from_str(&s).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn read_skips_blank_and_comment_lines() {
        let text = "# header\n\n0\n 1 \n\n2\n# trailing\n";
        let t = read_trace_from_str(text).unwrap();
        assert_eq!(t.accesses(), &[Addr(0), Addr(1), Addr(2)]);
    }

    #[test]
    fn read_reports_parse_error_with_line_number() {
        let text = "0\n1\nnot-a-number\n3\n";
        let err = read_trace_from_str(text).unwrap_err();
        assert!(err.to_string().contains("line 3"));
        match err {
            TraceIoError::Parse { line, text } => {
                assert_eq!(line, 3);
                assert_eq!(text, "not-a-number");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn read_rejects_negative_numbers() {
        let err = read_trace_from_str("0\n-4\n").unwrap_err();
        assert!(matches!(err, TraceIoError::Parse { line: 2, .. }));
    }

    #[test]
    fn empty_input_gives_empty_trace() {
        let t = read_trace_from_str("").unwrap();
        assert!(t.is_empty());
        let t = read_trace_from_str("# only comments\n").unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join("symloc_trace_io_test.trace");
        let t = sawtooth_trace(4, 2);
        write_trace(&t, &path).unwrap();
        let back = read_trace(&path).unwrap();
        assert_eq!(back, t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_trace("/definitely/not/a/real/path.trace").unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
        assert!(err.to_string().contains("I/O error"));
        use std::error::Error;
        assert!(err.source().is_some());
    }
}
