//! Hostile SWF text: every reader answers a generated document exactly as
//! the seed's line loop did (`BufRead::lines` → `trim` → `parse_line`,
//! copied below as the oracle, with the id rule that an id above
//! `u32::MAX` is a bad field). Documents mix plain records with the
//! quirks real archives and broken files have: tabs, CRLF, `;` comments
//! anywhere, blank lines, 17/18/19 fields, out-of-order submits, signed
//! and decimal integers, `nan`/`inf`, 19–20-digit numbers, Unicode
//! whitespace (U+00A0, U+0085, `\x0B`), invalid UTF-8 and arbitrary
//! bytes. For each document the materialized parse and a
//! [`StreamReader`] over the whole slice and over 1-, 7- and 64-byte
//! buffers (so lines straddle refills) must not panic and must yield the
//! same jobs (every `f64` compared by bits), the same header, the same
//! error `Debug` string and the same line number.

use std::io::{BufRead, BufReader};

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::Rng;

use rlsched_swf::{
    parse_reader, parse_str, Job, JobStatus, JobTrace, StreamReader, SwfError, SwfHeader,
};

// ---------------------------------------------------------------- oracle

fn oracle_f64(tok: &str, line: usize, field: usize) -> Result<f64, SwfError> {
    tok.parse::<f64>().map_err(|_| SwfError::BadField {
        line,
        field,
        token: tok.to_string(),
    })
}

fn oracle_i64(tok: &str, line: usize, field: usize) -> Result<i64, SwfError> {
    if let Ok(v) = tok.parse::<i64>() {
        return Ok(v);
    }
    tok.parse::<f64>()
        .map(|v| v as i64)
        .map_err(|_| SwfError::BadField {
            line,
            field,
            token: tok.to_string(),
        })
}

fn oracle_line(line: &str, lineno: usize) -> Result<Job, SwfError> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    if toks.len() != 18 {
        return Err(SwfError::FieldCount {
            line: lineno,
            found: toks.len(),
        });
    }
    let id = oracle_i64(toks[0], lineno, 0)?.max(0);
    if id > i64::from(u32::MAX) {
        return Err(SwfError::BadField {
            line: lineno,
            field: 0,
            token: toks[0].to_string(),
        });
    }
    Ok(Job {
        id: id as u32,
        submit_time: oracle_f64(toks[1], lineno, 1)?,
        trace_wait_time: oracle_f64(toks[2], lineno, 2)?,
        run_time: oracle_f64(toks[3], lineno, 3)?,
        used_procs: oracle_i64(toks[4], lineno, 4)?,
        avg_cpu_time: oracle_f64(toks[5], lineno, 5)?,
        used_memory: oracle_f64(toks[6], lineno, 6)?,
        requested_procs: oracle_i64(toks[7], lineno, 7)?,
        requested_time: oracle_f64(toks[8], lineno, 8)?,
        requested_memory: oracle_f64(toks[9], lineno, 9)?,
        status: JobStatus::from_swf(oracle_i64(toks[10], lineno, 10)?),
        user_id: oracle_i64(toks[11], lineno, 11)?,
        group_id: oracle_i64(toks[12], lineno, 12)?,
        executable_id: oracle_i64(toks[13], lineno, 13)?,
        queue_id: oracle_i64(toks[14], lineno, 14)?,
        partition_id: oracle_i64(toks[15], lineno, 15)?,
        preceding_job: oracle_i64(toks[16], lineno, 16)?,
        think_time: oracle_f64(toks[17], lineno, 17)?,
    })
}

fn oracle_header_line(line: &str, header: &mut SwfHeader) {
    let body = line.trim_start_matches(';').trim();
    if let Some((key, value)) = body.split_once(':') {
        let key = key.trim();
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

/// What reading a document to its end (or first error) produced.
#[derive(Debug, Default)]
struct Outcome {
    jobs: Vec<Job>,
    header: SwfHeader,
    error: Option<String>,
    /// Lines read, as `StreamReader::line_number` counts them.
    lines: usize,
}

impl Outcome {
    fn max_procs(&self) -> u32 {
        let seen = self.jobs.iter().map(Job::procs).max().unwrap_or(0);
        self.header.max_procs().unwrap_or(seen.max(1))
    }
}

fn oracle(doc: &[u8]) -> Outcome {
    let mut out = Outcome::default();
    for (i, line) in doc.lines().enumerate() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                out.error = Some(format!("{:?}", SwfError::Io(e)));
                break;
            }
        };
        out.lines = i + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with(';') {
            oracle_header_line(trimmed, &mut out.header);
            continue;
        }
        match oracle_line(trimmed, i + 1) {
            Ok(job) => out.jobs.push(job),
            Err(e) => {
                out.error = Some(format!("{e:?}"));
                break;
            }
        }
    }
    out
}

// ------------------------------------------------------------- documents

/// A generated document; `Debug` shows it as escaped text.
struct Doc(Vec<u8>);

impl std::fmt::Debug for Doc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"{}\"", self.0.escape_ascii())
    }
}

/// A token a plain record could hold.
fn plain_token(rng: &mut TestRng) -> String {
    match rng.gen_range(0..8) {
        0 => rng.gen_range(0..100_000u64).to_string(),
        1 => ["-1", "-0", "0", "1", "5.", "1.5", "0.25"]
            .choose(rng)
            .unwrap()
            .to_string(),
        // Shortest round-trip decimals: 15–17 significant digits, as
        // `write_jobs` emits fractional times.
        2 => (rng.gen::<f64>() * 10f64.powi(rng.gen_range(0..9))).to_string(),
        // Decimals whose digits sit on either side of 2^53.
        3 => {
            let digits = ((1u64 << 53) - 2 + rng.gen_range(0..5u64)).to_string();
            let dot = rng.gen_range(1..digits.len());
            format!("{}.{}", &digits[..dot], &digits[dot..])
        }
        4 => [
            "999999999999999999",
            "-123456789012345678",
            "4294967295",
            "9007199254740993.0",
            "7528769628173548.50",
        ]
        .choose(rng)
        .unwrap()
        .to_string(),
        _ => rng.gen_range(-2..300i64).to_string(),
    }
}

/// A token only a careful parser gets right.
fn hostile_token(rng: &mut TestRng) -> String {
    match rng.gen_range(0..4) {
        0 => format!(
            "{}{:018}",
            rng.gen_range(1..100u64),
            rng.gen_range(0..u64::MAX) % 10u64.pow(18)
        ),
        1 => ["4294967296", "4294967297", "1e10", "-4294967297"]
            .choose(rng)
            .unwrap()
            .to_string(),
        2 => [
            "+3", "1e3", "nan", "inf", "-inf", ".5", "-", ".", "1.2.3", "0x1f", "1_0",
        ]
        .choose(rng)
        .unwrap()
        .to_string(),
        _ => ["1\u{a0}2", "\u{663}", "1;2", ";", "x", "1\r2", "é", "1\x0c"]
            .choose(rng)
            .unwrap()
            .to_string(),
    }
}

fn separator(rng: &mut TestRng, clean: bool) -> &'static str {
    if clean {
        return [" ", " ", " ", "\t", "  ", " \t "].choose(rng).unwrap();
    }
    [
        " ", " ", "\t", "\u{a0}", "\u{85}", "\x0b", "\x0c", "\r", "\u{3000}",
    ]
    .choose(rng)
    .unwrap()
}

/// A record line: `clean` ones hold 18 plain tokens between `' '`/`'\t'`
/// runs; the others may hold 17 or 19 fields, hostile tokens and Unicode
/// or control separators.
fn data_line(rng: &mut TestRng, clean: bool) -> Vec<u8> {
    let fields = if clean {
        18
    } else {
        *[17, 18, 18, 18, 19].choose(rng).unwrap()
    };
    let mut line = String::new();
    if rng.gen_bool(0.2) {
        line.push_str(separator(rng, clean));
    }
    for k in 0..fields {
        if k > 0 {
            let plain = clean || rng.gen_bool(0.9);
            line.push_str(separator(rng, plain));
        }
        let hostile = !clean && rng.gen_bool(0.1);
        line.push_str(&if hostile {
            hostile_token(rng)
        } else {
            plain_token(rng)
        });
    }
    if rng.gen_bool(0.2) {
        line.push_str(separator(rng, clean));
    }
    line.into_bytes()
}

fn comment_line(rng: &mut TestRng) -> Vec<u8> {
    let text = match rng.gen_range(0..6) {
        0 => format!("; MaxProcs: {}", rng.gen_range(0..300)),
        1 => format!("; MaxNodes: {}", rng.gen_range(-1..300)),
        2 => "; Version: 2.2".to_string(),
        3 => "  ; a prose comment: with a colon".to_string(),
        4 => ";".to_string(),
        _ => "\t;Note : spaced key".to_string(),
    };
    text.into_bytes()
}

/// Bytes drawn from a pool that over-weights what a scanner branches on.
fn byte_line(rng: &mut TestRng) -> Vec<u8> {
    const POOL: &[u8] = b"0123456789 \t-.;+e\r\x0b\x0c\x00\xa0\xc2\x85\xff\xe3";
    let len = rng.gen_range(0..40);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.1) {
                rng.gen_range(0x01..=0xFFu8)
            } else {
                *POOL.choose(rng).unwrap()
            }
        })
        .filter(|&b| b != b'\n')
        .collect()
}

fn line(rng: &mut TestRng, hostile: bool) -> Vec<u8> {
    match rng.gen_range(0..12) {
        0 | 1 => comment_line(rng),
        2 => [&b""[..], b"   ", b"\t", b"\r", b" \xc2\xa0 ", b"\xc2\x85"]
            .choose(rng)
            .unwrap()
            .to_vec(),
        3 if hostile => byte_line(rng),
        4 if hostile => {
            // A record with one byte made invalid UTF-8.
            let mut line = data_line(rng, false);
            let at = rng.gen_range(0..line.len());
            line[at] = *[0xFFu8, 0xC3, 0x80].choose(rng).unwrap();
            line
        }
        _ => {
            let clean = !hostile || rng.gen_bool(0.5);
            data_line(rng, clean)
        }
    }
}

/// Half the documents are archive-shaped (every record plain, so they
/// read to the end); the rest mix in every hostile line kind.
fn document(rng: &mut TestRng) -> Doc {
    let hostile = rng.gen_bool(0.5);
    let mut doc = Vec::new();
    let lines = rng.gen_range(0..16);
    for k in 0..lines {
        doc.extend(line(rng, hostile));
        if k + 1 < lines || rng.gen_bool(0.7) {
            doc.extend_from_slice(if rng.gen_bool(0.3) { b"\r\n" } else { b"\n" });
        }
    }
    Doc(doc)
}

// ------------------------------------------------------------ comparison

/// A job's fields with every `f64` as its bits, so `NaN` and `-0.0`
/// compare exactly.
fn key(j: &Job) -> (u32, [u64; 8], [i64; 8], JobStatus) {
    let floats = [
        j.submit_time,
        j.trace_wait_time,
        j.run_time,
        j.avg_cpu_time,
        j.used_memory,
        j.requested_time,
        j.requested_memory,
        j.think_time,
    ];
    let ints = [
        j.used_procs,
        j.requested_procs,
        j.user_id,
        j.group_id,
        j.executable_id,
        j.queue_id,
        j.partition_id,
        j.preceding_job,
    ];
    (j.id, floats.map(f64::to_bits), ints, j.status)
}

fn keys(jobs: &[Job]) -> Vec<(u32, [u64; 8], [i64; 8], JobStatus)> {
    jobs.iter().map(key).collect()
}

fn stream_agrees<R: BufRead>(
    mut stream: StreamReader<R>,
    want: &Outcome,
    what: &str,
) -> Result<(), TestCaseError> {
    let mut jobs = Vec::new();
    let mut error = None;
    for item in stream.by_ref() {
        match item {
            Ok(job) => jobs.push(job),
            Err(e) => error = Some(format!("{e:?}")),
        }
    }
    prop_assert!(stream.next().is_none(), "{what}: the stream stays fused");
    prop_assert_eq!(keys(&jobs), keys(&want.jobs), "{what}: jobs");
    prop_assert_eq!(&error, &want.error, "{what}: error");
    prop_assert_eq!(stream.line_number(), want.lines, "{what}: line number");
    prop_assert_eq!(stream.header(), &want.header, "{what}: header");
    prop_assert_eq!(stream.max_procs(), want.max_procs(), "{what}: max_procs");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_reader_reads_hostile_text_as_the_seed_loop_did(
        doc in FnStrategy(document)
    ) {
        let want = oracle(&doc.0);
        let whole = match std::str::from_utf8(&doc.0) {
            Ok(text) => parse_str(text),
            Err(_) => parse_reader(&doc.0[..]),
        };
        match whole {
            Ok(trace) => {
                prop_assert_eq!(&want.error, &None, "parse_str: accepted a document the oracle rejects");
                // A trace keeps its jobs in submit order.
                let sorted = JobTrace::new(want.jobs.clone(), 1);
                prop_assert_eq!(keys(trace.jobs()), keys(sorted.jobs()), "parse_str: jobs");
                prop_assert_eq!(trace.header(), &want.header, "parse_str: header");
                prop_assert_eq!(trace.max_procs(), want.max_procs(), "parse_str: max_procs");
            }
            Err(e) => prop_assert_eq!(Some(format!("{e:?}")), want.error.clone(), "parse_str: error"),
        }
        stream_agrees(StreamReader::new(&doc.0[..]), &want, "stream over the slice")?;
        for capacity in [1, 7, 64] {
            let reader = BufReader::with_capacity(capacity, &doc.0[..]);
            stream_agrees(StreamReader::new(reader), &want, &format!("stream over {capacity}-byte buffer"))?;
        }
    }
}

/// The generator reaches the fast path, the fallback and every error
/// kind: a property that only ever compared errors would prove little.
#[test]
fn documents_cover_accepts_and_every_error_kind() {
    use rand::SeedableRng;
    let mut rng = TestRng::seed_from_u64(25);
    let (mut jobs, mut field_count, mut bad_field, mut io) = (0, 0, 0, 0);
    for _ in 0..512 {
        let out = oracle(&document(&mut rng).0);
        jobs += out.jobs.len();
        match out.error.as_deref() {
            Some(e) if e.starts_with("FieldCount") => field_count += 1,
            Some(e) if e.starts_with("BadField") => bad_field += 1,
            Some(e) if e.starts_with("Io") => io += 1,
            _ => {}
        }
    }
    assert!(jobs > 500, "{jobs} jobs read");
    assert!(
        field_count > 20 && bad_field > 20 && io > 20,
        "{field_count} {bad_field} {io}"
    );
}
