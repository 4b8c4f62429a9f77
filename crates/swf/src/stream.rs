//! Streaming SWF reader: an iterator of [`Job`]s over any [`BufRead`]
//! source that never materializes the trace.
//!
//! This is the one line loop of the crate; [`crate::parse_reader`] and
//! [`crate::parse_str`] collect it. [`StreamReader`] scans complete lines
//! in place, inside the reader's own buffer (`fill_buf`), finds each
//! line's end a `u64` word at a time, and `consume`s the line once it is
//! read. Only a line that straddles a refill is copied, into a carry
//! buffer bounded by the longest line, so memory stays constant in the
//! trace length and a warm reader allocates nothing per record.
//!
//! Each line goes through [`crate::parse`]'s fast path first; a line it
//! declines is UTF-8-validated (invalid UTF-8 is an
//! [`std::io::ErrorKind::InvalidData`] I/O error, as `read_line` raises),
//! trimmed, and then skipped when blank, folded into the [`SwfHeader`]
//! when it starts with `;`, and otherwise parsed by
//! [`crate::parse::parse_line`] — so a malformed line produces the
//! [`SwfError`] the seed's parser produced, at the same 1-based line
//! number (pinned by `tests/hostile_prop.rs`).

use std::io::{self, BufRead, ErrorKind};

use crate::error::SwfError;
use crate::job::Job;
use crate::parse::{parse_header_line, parse_line, scan_record, SwfHeader};

/// An iterator of `Result<Job, SwfError>` over an SWF byte stream.
///
/// Header `;` lines may appear anywhere (archives occasionally interleave
/// comments with records); they accumulate into [`StreamReader::header`]
/// as the stream advances. The cluster size is therefore best read after
/// the header block has been consumed — [`StreamReader::max_procs`]
/// falls back to the largest processor request *seen so far* when no
/// `MaxProcs`/`MaxNodes` directive has appeared, mirroring
/// [`crate::parse_reader`]'s whole-trace fallback.
#[derive(Debug)]
pub struct StreamReader<R: BufRead> {
    reader: R,
    lines: Lines,
    /// The head of a line that straddles a refill of `reader`'s buffer;
    /// its capacity warms to the longest such line.
    carry: Vec<u8>,
    /// Largest `Job::procs()` among the jobs yielded so far.
    observed_procs: u32,
    /// Set once an error has been yielded or the stream ended; the
    /// iterator then stays fused.
    done: bool,
}

/// What reading a line updates, kept apart from the reader so a line can
/// be read while it is still borrowed from the reader's buffer.
#[derive(Debug, Default)]
struct Lines {
    header: SwfHeader,
    /// 1-based number of the last line read.
    lineno: usize,
}

impl Lines {
    /// Read one line (without its `'\n'`): a job or an error, or `None`
    /// for a blank or header line.
    fn read(&mut self, line: &[u8]) -> Option<Result<Job, SwfError>> {
        if let Some(job) = scan_record(line) {
            self.lineno += 1;
            return Some(Ok(job));
        }
        let Ok(text) = std::str::from_utf8(line) else {
            return Some(Err(SwfError::Io(invalid_utf8())));
        };
        self.lineno += 1;
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return None;
        }
        if trimmed.starts_with(';') {
            parse_header_line(trimmed, &mut self.header);
            return None;
        }
        Some(parse_line(trimmed, self.lineno))
    }
}

/// The error `BufRead::read_line` raises on a line that is not UTF-8,
/// made by `read_line` itself so its kind, message and `Debug` output
/// stay what a reader got before the scanner.
fn invalid_utf8() -> io::Error {
    (&b"\xff"[..])
        .read_line(&mut String::new())
        .expect_err("0xFF is not UTF-8")
}

/// Index of the first `'\n'` in `buf`, eight bytes at a time: a byte of
/// `w ^ NL` is zero exactly where `w` holds a newline, and the lowest set
/// bit of the classic has-zero-byte mask marks the first such byte.
fn find_newline(buf: &[u8]) -> Option<usize> {
    const LO: u64 = u64::from_ne_bytes([0x01; 8]);
    const HI: u64 = u64::from_ne_bytes([0x80; 8]);
    const NL: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut words = buf.chunks_exact(8);
    let mut at = 0;
    for word in words.by_ref() {
        let x = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ NL;
        let zero = x.wrapping_sub(LO) & !x & HI;
        if zero != 0 {
            return Some(at + zero.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = words.remainder();
    tail.iter().position(|&b| b == b'\n').map(|i| at + i)
}

impl<R: BufRead> StreamReader<R> {
    /// Wrap a buffered reader positioned at the start of an SWF document.
    pub fn new(reader: R) -> Self {
        StreamReader {
            reader,
            lines: Lines::default(),
            carry: Vec::new(),
            observed_procs: 0,
            done: false,
        }
    }

    /// Header metadata accumulated so far (complete once the first job
    /// has been yielded, for the conventional header-then-records layout).
    pub fn header(&self) -> &SwfHeader {
        &self.lines.header
    }

    /// 1-based number of the last line read (0 before the first read).
    pub fn line_number(&self) -> usize {
        self.lines.lineno
    }

    /// The cluster size: the header's `MaxProcs`/`MaxNodes` directive, or
    /// the largest processor request seen so far (minimum 1) when the
    /// header carries none — the same fallback [`crate::parse_reader`]
    /// applies over the whole trace.
    pub fn max_procs(&self) -> u32 {
        self.header()
            .max_procs()
            .unwrap_or(self.observed_procs.max(1))
    }
}

impl<R: BufRead> Iterator for StreamReader<R> {
    type Item = Result<Job, SwfError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            let buf = match self.reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.done = true;
                    return Some(Err(SwfError::Io(e)));
                }
            };
            let read = if buf.is_empty() {
                // End of input: a last line without a '\n' is in the carry.
                self.done = true;
                if self.carry.is_empty() {
                    return None;
                }
                let read = self.lines.read(&self.carry);
                self.carry.clear();
                read
            } else if let Some(end) = find_newline(buf) {
                let read = if self.carry.is_empty() {
                    self.lines.read(&buf[..end])
                } else {
                    self.carry.extend_from_slice(&buf[..end]);
                    let read = self.lines.read(&self.carry);
                    self.carry.clear();
                    read
                };
                self.reader.consume(end + 1);
                read
            } else {
                let len = buf.len();
                self.carry.extend_from_slice(buf);
                self.reader.consume(len);
                continue;
            };
            match read {
                None => {}
                Some(Ok(job)) => {
                    self.observed_procs = self.observed_procs.max(job.procs());
                    return Some(Ok(job));
                }
                Some(Err(e)) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_reader;
    use crate::trace::JobTrace;

    const SAMPLE: &str = "\
; Version: 2.2
; MaxProcs: 128
; a prose comment

1 0 5 100 4 -1 -1 4 120 -1 1 3 2 7 1 0 -1 -1

2 10 -1 50 -1 -1 -1 8 60 -1 0 4 2 7 1 0 -1 -1
";

    #[test]
    fn stream_matches_parse_reader() {
        let jobs: Vec<Job> = StreamReader::new(SAMPLE.as_bytes())
            .map(|j| j.unwrap())
            .collect();
        let materialized = parse_reader(SAMPLE.as_bytes()).unwrap();
        let mut s = StreamReader::new(SAMPLE.as_bytes());
        s.by_ref().for_each(drop);
        let streamed = JobTrace::with_header(jobs, s.max_procs(), s.header().clone());
        assert_eq!(streamed, materialized);
    }

    #[test]
    fn header_complete_after_first_job() {
        let mut s = StreamReader::new(SAMPLE.as_bytes());
        let first = s.next().unwrap().unwrap();
        assert_eq!(first.id, 1);
        assert_eq!(s.header().fields.get("Version").unwrap(), "2.2");
        assert_eq!(s.header().comments, vec!["a prose comment"]);
        assert_eq!(s.max_procs(), 128);
    }

    #[test]
    fn error_carries_stream_line_number() {
        let src = "; MaxProcs: 4\n1 0 0 10 1 -1 -1 1 10 -1 1 1 1 1 1 1 -1 -1\nbad line\n";
        let mut s = StreamReader::new(src.as_bytes());
        assert!(s.next().unwrap().is_ok());
        match s.next().unwrap().unwrap_err() {
            SwfError::FieldCount { line, found } => {
                assert_eq!(line, 3);
                assert_eq!(found, 2);
            }
            other => panic!("unexpected error: {other}"),
        }
        assert!(s.next().is_none(), "iterator fuses after an error");
    }

    #[test]
    fn max_procs_falls_back_to_observed() {
        let src = "1 0 0 10 16 -1 -1 16 10 -1 1 1 1 1 1 1 -1 -1\n";
        let mut s = StreamReader::new(src.as_bytes());
        assert_eq!(s.max_procs(), 1, "no jobs seen yet");
        s.next().unwrap().unwrap();
        assert_eq!(s.max_procs(), 16);
    }

    #[test]
    fn empty_input_yields_nothing() {
        let mut s = StreamReader::new("".as_bytes());
        assert!(s.next().is_none());
        assert_eq!(s.max_procs(), 1);
    }

    #[test]
    fn find_newline_matches_a_byte_scan() {
        let mut buf = vec![b'x'; 40];
        assert_eq!(find_newline(&buf), None);
        for at in 0..buf.len() {
            buf[at] = b'\n';
            // A 0x0B just above the newline is the has-zero mask's
            // borrow case; 0x8A shares every bit but the top one.
            for &(i, b) in &[(at + 1, 0x0B), (at + 2, 0x8A)] {
                if i < buf.len() {
                    buf[i] = b;
                }
            }
            for start in 0..=at {
                assert_eq!(find_newline(&buf[start..]), Some(at - start));
            }
            buf.fill(b'x');
        }
    }
}
