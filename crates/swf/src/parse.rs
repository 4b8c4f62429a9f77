//! SWF v2.2 parser.
//!
//! An SWF file is line-oriented: header comment lines start with `;` and
//! carry `Key: Value` metadata (`MaxProcs`, `MaxNodes`, `UnixStartTime`, …);
//! every other non-empty line is one job record with 18 whitespace-separated
//! numeric fields. Unknown values are `-1`.
//!
//! There is one line loop, [`StreamReader`]'s, and [`parse_reader`] /
//! [`parse_str`] are that loop collected. It hands each line's bytes to
//! `scan_record` first: a single walk that takes a plain record — ASCII
//! tokens separated by `' '`/`'\t'`, integers (and decimals whose digits
//! fit an `f64` mantissa) accumulated as they are scanned, other `f64`
//! tokens through `str::parse::<f64>` — and declines everything else. A
//! declined line is UTF-8-validated, trimmed and classified (blank, `;`
//! header, record) and a record goes to [`parse_line`], the seed's `&str`
//! parser, so any line the fast path does not take gets exactly the value
//! or the error it always got.

use std::collections::BTreeMap;
use std::io::BufRead;

use crate::error::SwfError;
use crate::job::{Job, JobStatus};
use crate::stream::StreamReader;
use crate::trace::JobTrace;

/// Parsed header comments of an SWF file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwfHeader {
    /// `Key: Value` pairs from `;` comment lines, in insertion order of keys.
    pub fields: BTreeMap<String, String>,
    /// Comment lines that did not look like `Key: Value`.
    pub comments: Vec<String>,
}

impl SwfHeader {
    /// Look up a numeric header field such as `MaxProcs`.
    pub fn get_i64(&self, key: &str) -> Option<i64> {
        self.fields.get(key).and_then(|v| v.trim().parse().ok())
    }

    /// The cluster size: `MaxProcs`, falling back to `MaxNodes`.
    pub fn max_procs(&self) -> Option<u32> {
        self.get_i64("MaxProcs")
            .or_else(|| self.get_i64("MaxNodes"))
            .filter(|&v| v > 0)
            .map(|v| v as u32)
    }
}

fn bad_field(tok: &str, line: usize, field: usize) -> SwfError {
    SwfError::BadField {
        line,
        field,
        token: tok.to_string(),
    }
}

fn parse_field_f64(tok: &str, line: usize, field: usize) -> Result<f64, SwfError> {
    tok.parse::<f64>().map_err(|_| bad_field(tok, line, field))
}

fn parse_field_i64(tok: &str, line: usize, field: usize) -> Result<i64, SwfError> {
    // Some archive traces store integral fields with a decimal point.
    if let Ok(v) = tok.parse::<i64>() {
        return Ok(v);
    }
    tok.parse::<f64>()
        .map(|v| v as i64)
        .map_err(|_| bad_field(tok, line, field))
}

/// The job id: negative ids clamp to 0, and an id that does not fit a
/// `u32` is a bad field rather than a wrapped alias of a smaller one.
fn parse_id(tok: &str, line: usize) -> Result<u32, SwfError> {
    u32::try_from(parse_field_i64(tok, line, 0)?.max(0)).map_err(|_| bad_field(tok, line, 0))
}

/// Parse one SWF data line (18 fields) into a [`Job`]: the fallback for
/// every line `scan_record` declines, and the definition of what a line
/// means. Allocation-free on the success path (tokens land in a fixed
/// array).
pub fn parse_line(line: &str, lineno: usize) -> Result<Job, SwfError> {
    let mut toks = [""; 18];
    let mut found = 0usize;
    for tok in line.split_whitespace() {
        if found < 18 {
            toks[found] = tok;
        }
        found += 1;
    }
    if found != 18 {
        return Err(SwfError::FieldCount {
            line: lineno,
            found,
        });
    }
    Ok(Job {
        id: parse_id(toks[0], lineno)?,
        submit_time: parse_field_f64(toks[1], lineno, 1)?,
        trace_wait_time: parse_field_f64(toks[2], lineno, 2)?,
        run_time: parse_field_f64(toks[3], lineno, 3)?,
        used_procs: parse_field_i64(toks[4], lineno, 4)?,
        avg_cpu_time: parse_field_f64(toks[5], lineno, 5)?,
        used_memory: parse_field_f64(toks[6], lineno, 6)?,
        requested_procs: parse_field_i64(toks[7], lineno, 7)?,
        requested_time: parse_field_f64(toks[8], lineno, 8)?,
        requested_memory: parse_field_f64(toks[9], lineno, 9)?,
        status: JobStatus::from_swf(parse_field_i64(toks[10], lineno, 10)?),
        user_id: parse_field_i64(toks[11], lineno, 11)?,
        group_id: parse_field_i64(toks[12], lineno, 12)?,
        executable_id: parse_field_i64(toks[13], lineno, 13)?,
        queue_id: parse_field_i64(toks[14], lineno, 14)?,
        partition_id: parse_field_i64(toks[15], lineno, 15)?,
        preceding_job: parse_field_i64(toks[16], lineno, 16)?,
        think_time: parse_field_f64(toks[17], lineno, 17)?,
    })
}

/// `10^k` for every `k` a plain decimal can have: each is an exact `f64`.
const POW10: [f64; 19] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18,
];

/// Every integer up to this one is an exact `f64`.
const EXACT_MANTISSA: u64 = 1 << 53;

/// `w / 10^k` rounded to the nearest `f64`, for `2^53 < w < 10^18` and
/// `1 ≤ k ≤ 18`, or `None` when it cannot be settled here.
///
/// `w` no longer fits the mantissa, so `w as f64 / 10^k` rounds twice
/// and can miss by an ulp. The candidate `q = m · 2^e` is therefore
/// checked exactly: it is the nearest `f64` when `w / 10^k` lies strictly
/// between the midpoints `(2m ± 1) · 2^(e−1)` to its neighbours, which in
/// integers is `(2m − 1) · 10^k < w · 2^(1−e) < (2m + 1) · 10^k` (both
/// sides under 2^122, so a `u128` holds them). A candidate outside moves
/// one ulp toward the value and is checked again. A tie, which
/// `str::parse` breaks to even, and a power-of-two `q`, whose lower
/// neighbour is half as far, are left to `str::parse`.
fn nearest_quotient(w: u64, k: usize) -> Option<f64> {
    let p = POW10[k] as u128;
    let mut bits = (w as f64 / POW10[k]).to_bits();
    for _ in 0..3 {
        let m = u128::from(bits & ((1 << 52) - 1) | 1 << 52);
        let e = (bits >> 52) as i32 - 1075;
        if m == 1 << 52 {
            return None;
        }
        let (lo, hi) = ((2 * m - 1) * p, (2 * m + 1) * p);
        let (x, lo, hi) = if e <= 1 {
            (u128::from(w) << (1 - e), lo, hi)
        } else {
            (u128::from(w), lo << (e - 1), hi << (e - 1))
        };
        match (x <= lo, x >= hi) {
            (true, _) => bits -= 1,
            (_, true) => bits += 1,
            _ => return Some(f64::from_bits(bits)),
        }
    }
    None
}

/// The fast path under every reader: one walk over a data line's bytes
/// (without its `'\n'`), field by field. Tokens are separated by `' '`
/// and `'\t'`, and a trailing `'\r'` is dropped. A plain token —
/// `-?[0-9]+`, or `-?[0-9]+\.[0-9]*` in an `f64` field, at most 18
/// digits — is accumulated while it is scanned, which is exact for an
/// `i64`. For an `f64` it gives `str::parse::<f64>`'s bits, the value
/// rounded to nearest: a whole number by one rounded `u64 → f64` cast, a
/// decimal whose digits fit the 53-bit mantissa as an exact integer over
/// an exact power of ten (`str::parse`'s own fast path), and a longer one
/// through [`nearest_quotient`]'s exact check. `-0` stays `-0.0`. Any
/// other token of an `f64` field (`1e3`, `nan`, `.5`) goes to
/// `str::parse::<f64>` on the slice, as in [`parse_line`].
///
/// `None` declines the line, and the caller hands it to [`parse_line`]:
/// a blank or `;` line, a non-integer token in an integer field (`+3`,
/// `1.0`, a 19-digit number, anything holding a byte that is not a
/// digit), a token `str::parse::<f64>` rejects (which takes in any other
/// whitespace or control byte and any byte ≥ 0x80), a field count other
/// than 18, or an id above `u32::MAX`. Whatever the fast path accepts,
/// `parse_line` reads as the same [`Job`], so the two differ only in speed.
pub(crate) fn scan_record(line: &[u8]) -> Option<Job> {
    let mut f = Fields {
        line: line.strip_suffix(b"\r").unwrap_or(line),
        at: 0,
    };
    let job = Job {
        id: u32::try_from(f.int()?.max(0)).ok()?,
        submit_time: f.float()?,
        trace_wait_time: f.float()?,
        run_time: f.float()?,
        used_procs: f.int()?,
        avg_cpu_time: f.float()?,
        used_memory: f.float()?,
        requested_procs: f.int()?,
        requested_time: f.float()?,
        requested_memory: f.float()?,
        status: JobStatus::from_swf(f.int()?),
        user_id: f.int()?,
        group_id: f.int()?,
        executable_id: f.int()?,
        queue_id: f.int()?,
        partition_id: f.int()?,
        preceding_job: f.int()?,
        think_time: f.float()?,
    };
    f.token().is_none().then_some(job)
}

/// [`scan_record`]'s cursor: each call reads the next token as one field.
struct Fields<'a> {
    line: &'a [u8],
    at: usize,
}

impl Fields<'_> {
    /// Step over separators to the next token's first byte; `None` at the
    /// end of the line.
    fn token(&mut self) -> Option<usize> {
        while self
            .line
            .get(self.at)
            .is_some_and(|&b| b == b' ' || b == b'\t')
        {
            self.at += 1;
        }
        (self.at < self.line.len()).then_some(self.at)
    }

    /// Step over an optional `-`.
    fn sign(&mut self, start: usize) -> bool {
        let neg = self.line[start] == b'-';
        self.at += usize::from(neg);
        neg
    }

    /// Accumulate digits onto `acc` (wrapping: callers bound the digit
    /// count before trusting the value); returns it with the digit count.
    fn digits(&mut self, mut acc: u64) -> (u64, usize) {
        let (line, from) = (self.line, self.at);
        let mut at = from;
        while at < line.len() && line[at].is_ascii_digit() {
            acc = acc
                .wrapping_mul(10)
                .wrapping_add(u64::from(line[at] - b'0'));
            at += 1;
        }
        self.at = at;
        (acc, at - from)
    }

    /// Whether the token ends here.
    fn ended(&self) -> bool {
        matches!(self.line.get(self.at), None | Some(b' ' | b'\t'))
    }

    /// The next field as an `i64`: a plain `-?[0-9]{1,18}` token or `None`.
    fn int(&mut self) -> Option<i64> {
        let start = self.token()?;
        let neg = self.sign(start);
        let (mag, count) = self.digits(0);
        if !(1..=18).contains(&count) || !self.ended() {
            return None;
        }
        let v = mag as i64;
        Some(if neg { -v } else { v })
    }

    /// The next field as an `f64`, as `str::parse::<f64>` reads it.
    fn float(&mut self) -> Option<f64> {
        let start = self.token()?;
        let neg = self.sign(start);
        let (mut mag, mut count) = self.digits(0);
        let mut frac = 0;
        if count > 0 && self.line.get(self.at) == Some(&b'.') {
            self.at += 1;
            (mag, frac) = self.digits(mag);
            count += frac;
        }
        if (1..=18).contains(&count) && self.ended() {
            let v = if frac == 0 {
                Some(mag as f64)
            } else if mag <= EXACT_MANTISSA {
                Some(mag as f64 / POW10[frac])
            } else {
                nearest_quotient(mag, frac)
            };
            if let Some(v) = v {
                return Some(if neg { -v } else { v });
            }
        }
        while !self.ended() {
            self.at += 1;
        }
        std::str::from_utf8(&self.line[start..self.at])
            .ok()?
            .parse()
            .ok()
    }
}

pub(crate) fn parse_header_line(line: &str, header: &mut SwfHeader) {
    let body = line.trim_start_matches(';').trim();
    if let Some((key, value)) = body.split_once(':') {
        let key = key.trim();
        // Header keys are single words or CamelCase identifiers; anything
        // with internal whitespace is prose, not metadata.
        if !key.is_empty() && !key.contains(char::is_whitespace) {
            header
                .fields
                .insert(key.to_string(), value.trim().to_string());
            return;
        }
    }
    if !body.is_empty() {
        header.comments.push(body.to_string());
    }
}

/// Parse a complete SWF document from a buffered reader: a
/// [`StreamReader`] run to the end (or to its first error) and collected.
/// With no `MaxProcs`/`MaxNodes` directive anywhere in the document the
/// cluster size is the largest processor request of the whole trace.
pub fn parse_reader<R: BufRead>(reader: R) -> Result<JobTrace, SwfError> {
    let mut stream = StreamReader::new(reader);
    let jobs = stream.by_ref().collect::<Result<Vec<_>, _>>()?;
    Ok(JobTrace::with_header(
        jobs,
        stream.max_procs(),
        stream.header().clone(),
    ))
}

/// Parse a complete SWF document from a string.
pub fn parse_str(s: &str) -> Result<JobTrace, SwfError> {
    parse_reader(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Version: 2.2
; MaxProcs: 128
; MaxNodes: 64
; just a prose comment
1 0 5 100 4 -1 -1 4 120 -1 1 3 2 7 1 0 -1 -1
2 10 -1 50 -1 -1 -1 8 60 -1 0 4 2 7 1 0 -1 -1
";

    #[test]
    fn parses_header_and_jobs() {
        let t = parse_str(SAMPLE).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.max_procs(), 128);
        assert_eq!(t.header().fields.get("Version").unwrap(), "2.2");
        assert_eq!(t.header().comments, vec!["just a prose comment"]);
    }

    #[test]
    fn job_fields_land_in_the_right_place() {
        let t = parse_str(SAMPLE).unwrap();
        let j = &t.jobs()[0];
        assert_eq!(j.id, 1);
        assert_eq!(j.submit_time, 0.0);
        assert_eq!(j.trace_wait_time, 5.0);
        assert_eq!(j.run_time, 100.0);
        assert_eq!(j.used_procs, 4);
        assert_eq!(j.requested_procs, 4);
        assert_eq!(j.requested_time, 120.0);
        assert_eq!(j.status, JobStatus::Completed);
        assert_eq!(j.user_id, 3);
        assert_eq!(j.group_id, 2);
        assert_eq!(j.executable_id, 7);
    }

    #[test]
    fn unknown_markers_survive() {
        let t = parse_str(SAMPLE).unwrap();
        let j = &t.jobs()[1];
        assert_eq!(j.used_procs, -1);
        assert_eq!(j.trace_wait_time, -1.0);
        assert_eq!(j.status, JobStatus::Failed);
    }

    #[test]
    fn rejects_wrong_field_count() {
        let err = parse_str("1 2 3\n").unwrap_err();
        match err {
            SwfError::FieldCount { line, found } => {
                assert_eq!(line, 1);
                assert_eq!(found, 3);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn rejects_non_numeric_field() {
        let line = "x 0 0 1 1 -1 -1 1 1 -1 1 1 1 1 1 1 -1 -1";
        let err = parse_str(line).unwrap_err();
        match err {
            SwfError::BadField { field, .. } => assert_eq!(field, 0),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn max_procs_falls_back_to_observed_jobs() {
        let t = parse_str("1 0 0 10 16 -1 -1 16 10 -1 1 1 1 1 1 1 -1 -1\n").unwrap();
        assert_eq!(t.max_procs(), 16);
    }

    #[test]
    fn integral_fields_accept_decimal_notation() {
        let line = "1.0 0 0 10 16.0 -1 -1 16 10 -1 1 1 1 1 1 1 -1 -1";
        let t = parse_str(line).unwrap();
        assert_eq!(t.jobs()[0].id, 1);
        assert_eq!(t.jobs()[0].used_procs, 16);
    }

    #[test]
    fn max_nodes_fallback_for_cluster_size() {
        let src = "; MaxNodes: 77\n1 0 0 10 1 -1 -1 1 10 -1 1 1 1 1 1 1 -1 -1\n";
        let t = parse_str(src).unwrap();
        assert_eq!(t.max_procs(), 77);
    }

    #[test]
    fn empty_input_yields_empty_trace() {
        let t = parse_str("").unwrap();
        assert_eq!(t.len(), 0);
        assert_eq!(t.max_procs(), 1);
    }

    fn line_with_id(id: &str) -> String {
        format!("{id} 0 0 10 1 -1 -1 1 10 -1 1 1 1 1 1 1 -1 -1")
    }

    #[test]
    fn an_id_above_u32_max_is_a_bad_field_not_a_wrapped_id() {
        for id in ["4294967296", "4294967297", "1e10", "4294967296.0"] {
            let line = line_with_id(id);
            assert!(
                scan_record(line.as_bytes()).is_none(),
                "{id}: fast path declines"
            );
            match parse_str(&line).unwrap_err() {
                SwfError::BadField { line, field, token } => {
                    assert_eq!((line, field, token.as_str()), (1, 0, id));
                }
                other => panic!("{id}: unexpected error: {other}"),
            }
        }
        let t = parse_str(&line_with_id("4294967295")).unwrap();
        assert_eq!(t.jobs()[0].id, u32::MAX);
        for id in ["-5", "-4294967297", "-1e10"] {
            assert_eq!(
                parse_str(&line_with_id(id)).unwrap().jobs()[0].id,
                0,
                "{id}"
            );
        }
    }

    /// The exact check against `str::parse` on the decimal spelling of
    /// `w / 10^k`, over every `k` and mantissas from just above 2^53 to
    /// 18 digits.
    #[test]
    fn nearest_quotient_is_str_parse() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut undecided = 0;
        for n in 0..200_000 {
            let w = match n % 4 {
                0 => EXACT_MANTISSA + rng.gen_range(1..1_000u64),
                _ => rng.gen_range(EXACT_MANTISSA + 1..1_000_000_000_000_000_000),
            };
            let k = rng.gen_range(1..=18usize);
            let digits = format!("{w:0>width$}", width = k + 1);
            let (whole, frac) = digits.split_at(digits.len() - k);
            let want: f64 = format!("{whole}.{frac}").parse().unwrap();
            match nearest_quotient(w, k) {
                Some(got) => assert_eq!(got.to_bits(), want.to_bits(), "{whole}.{frac}"),
                None => undecided += 1,
            }
        }
        // Ties at one or two fractional digits (`…48.5` between two
        // integers) are the only common case left over.
        assert!(
            undecided < 1_000,
            "{undecided} of 200 000 left to str::parse"
        );
        // Exact ties go to str::parse, which rounds them to even.
        assert_eq!(nearest_quotient(90_071_992_547_409_930, 1), None);
        assert_eq!(nearest_quotient(900_719_925_474_099_500, 2), None);
    }
}
