//! Property tests for the wire protocol and the latency accounting.
//!
//! The chaos suite exercises specific scripted failures; these
//! properties pin the frame layer for *all* payloads: every request and
//! response variant — `served_by` tags, fallback actions, error
//! messages with hostile characters — survives a write/read round trip
//! bit-exactly, frames never collide across a stream, damaged binary
//! frames fail with a typed error and never panic, and the
//! shard-histogram merge is associative and commutative (so the stats
//! endpoint's fold order can never change a reported quantile).

use std::time::Duration;

use proptest::prelude::*;
use rlsched_obs::{HistogramSnapshot, MetricSnapshot, MetricValue, RegistrySnapshot};
use rlsched_serve::protocol::{
    encode_binary_frame, encode_json_frame, read_frame_any, read_frame_any_into, BINARY_MAGIC,
};
use rlsched_serve::{
    LatencyHistogram, Request, Response, ServeStats, ServedBy, ShardHealth, ShardState, WireFrame,
    WireProtocol,
};
use rlscheduler::{QueueSnapshot, SnapshotJob};

/// Append `frame` to `buf` as one JSON line.
fn write_json<T: serde::Serialize>(buf: &mut Vec<u8>, frame: &T) {
    let mut line = Vec::new();
    encode_json_frame(frame, &mut line).unwrap();
    buf.extend_from_slice(&line);
}

/// Read the next frame off `r`, asserting it arrived as JSON.
fn read_json_frame<T: WireFrame, R: std::io::BufRead>(r: &mut R) -> std::io::Result<Option<T>> {
    Ok(
        read_frame_any(r, &mut Vec::new(), &mut String::new())?.map(|(v, proto)| {
            assert_eq!(proto, WireProtocol::Json);
            v
        }),
    )
}

/// Awkward-but-finite floats for a snapshot's waits and time bounds:
/// subnormals, ulp neighbors, −0.0, the largest double — the values
/// most likely to shake out a formatting bug.
fn any_awkward_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::MIN_POSITIVE / 2.0),
        Just(1.0 / 3.0),
        Just(f64::from_bits(0.3f64.to_bits() + 1)),
        Just(f64::MAX),
        (0.0f64..1.0e12).boxed(),
    ]
}

fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0f64), Just(1.0 / 3.0), (0.0f64..1.0e12).boxed()]
}

/// Error messages with characters that must be escaped on the wire —
/// an unescaped newline would tear the framing itself.
fn any_message() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("bad row".to_string()),
        Just("quote \" backslash \\ done".to_string()),
        Just("line\nbreak\ttab".to_string()),
        Just("unicode: μs → ∞".to_string()),
        Just("{\"Action\":{\"id\":0}}".to_string()), // a frame *inside* a message
    ]
}

/// Correlation ids: the protocol bounds them to the JSON-exact integer
/// range (< 2^53, RFC 8259 §6) — ids above it do not survive IEEE-double
/// interop, which this strategy's bound documents as a *rule*, not an
/// accident.
fn any_id() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just((1u64 << 53) - 1), (0u64..1 << 53).boxed(),]
}

fn any_served_by() -> impl Strategy<Value = ServedBy> {
    prop_oneof![Just(ServedBy::Model), Just(ServedBy::Fallback)]
}

fn any_shard_state() -> impl Strategy<Value = ShardState> {
    prop_oneof![
        Just(ShardState::Healthy),
        Just(ShardState::Restarting),
        Just(ShardState::Failed),
    ]
}

fn any_job() -> impl Strategy<Value = SnapshotJob> {
    (
        any_awkward_f64(),
        any_awkward_f64(),
        1u32..64,
        any::<bool>(),
    )
        .prop_map(|(wait, time_bound, procs, can_run_now)| SnapshotJob {
            wait,
            time_bound,
            procs,
            can_run_now,
        })
}

fn any_snapshot() -> impl Strategy<Value = QueueSnapshot> {
    (prop::collection::vec(any_job(), 0..24), 0u32..=64, 0u32..4).prop_map(
        |(jobs, free_procs, beyond_window)| QueueSnapshot {
            free_procs,
            total_procs: 64,
            queue_len: jobs.len() as u32 + beyond_window,
            jobs,
        },
    )
}

fn any_request() -> impl Strategy<Value = Request> {
    let score =
        (any_id(), any_snapshot()).prop_map(|(id, snapshot)| Request::Score { id, snapshot });
    let stats = any_id().prop_map(|id| Request::Stats { id });
    let metrics = any_id().prop_map(|id| Request::Metrics { id });
    prop_oneof![score.boxed(), stats.boxed(), metrics.boxed()]
}

/// A score request's snapshot floats as bits, so −0.0 vs 0.0 and ulp
/// neighbors compare unequal (`==` alone would let a sign flip through).
fn float_bits(req: &Request) -> Vec<u64> {
    match req {
        Request::Score { snapshot, .. } => snapshot
            .jobs
            .iter()
            .flat_map(|j| [j.wait.to_bits(), j.time_bound.to_bits()])
            .collect(),
        _ => Vec::new(),
    }
}

fn any_health() -> impl Strategy<Value = ShardHealth> {
    (any_shard_state(), any::<u32>(), any::<u32>()).prop_map(|(state, r, p)| ShardHealth {
        state,
        restarts: r as u64,
        panics: p as u64,
    })
}

fn any_stats() -> impl Strategy<Value = ServeStats> {
    (
        prop::collection::vec(any::<u32>(), 10),
        (any_f64(), any_f64(), any_f64()),
        prop::collection::vec(any_health(), 0..5),
    )
        .prop_map(|(c, (p50_us, p99_us, max_us), shards)| ServeStats {
            served: c[0] as u64,
            fallbacks: c[1] as u64,
            shed: c[2] as u64,
            deadlines: c[3] as u64,
            batches: c[4] as u64,
            max_batch: c[5] as u64,
            swaps: c[6] as u64,
            rollbacks: c[7] as u64,
            restarts: c[8] as u64,
            accept_failures: c[9] as u64,
            p50_us,
            p99_us,
            max_us,
            shards,
        })
}

/// Gauge values must be finite: the JSON leg serializes non-finite
/// floats as `null` (RFC 8259 has no NaN/∞), so a NaN gauge cannot
/// round-trip and the registry never produces one on the serve paths.
fn any_gauge_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-0.0f64),
        Just(1.0 / 3.0),
        Just(-4096.0f64),
        (-1.0e12f64..1.0e12).boxed(),
    ]
}

fn any_histogram_snapshot() -> impl Strategy<Value = HistogramSnapshot> {
    (
        any_id(),
        any_id(),
        prop::collection::vec((0u32..1920, 0u64..1 << 40), 0..12),
    )
        .prop_map(|(count, max_ns, buckets)| HistogramSnapshot {
            count,
            max_ns,
            buckets,
        })
}

/// Metric names and label values as the wire sees them — the codec
/// must carry any string, including ones the registry would reject and
/// ones the text exposition would need to escape.
fn any_label_string() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("shard".to_string()),
        Just("0".to_string()),
        Just("rlsched_serve_served_total".to_string()),
        Just("quote \" slash \\ nl\n".to_string()),
        Just("μ-metrics".to_string()),
    ]
}

fn any_metric_snapshot() -> impl Strategy<Value = MetricSnapshot> {
    let value = prop_oneof![
        any_id().prop_map(MetricValue::Counter).boxed(),
        any_gauge_value().prop_map(MetricValue::Gauge).boxed(),
        any_histogram_snapshot()
            .prop_map(MetricValue::Histogram)
            .boxed(),
    ];
    (
        any_label_string(),
        prop::collection::vec((any_label_string(), any_label_string()), 0..3),
        value,
    )
        .prop_map(|(name, labels, value)| MetricSnapshot {
            name,
            labels,
            value,
        })
}

fn any_registry_snapshot() -> impl Strategy<Value = RegistrySnapshot> {
    prop::collection::vec(any_metric_snapshot(), 0..6)
        .prop_map(|metrics| RegistrySnapshot { metrics })
}

fn any_response() -> impl Strategy<Value = Response> {
    let action = (any_id(), 0u64..256, 0u64..16, any_served_by()).prop_map(
        |(id, action, shard, served_by)| Response::Action {
            id,
            action,
            shard,
            served_by,
        },
    );
    let shed = any_id().prop_map(|id| Response::Shed { id });
    let stats = (any_id(), any_stats()).prop_map(|(id, stats)| Response::Stats { id, stats });
    let error = (any_id(), any_message()).prop_map(|(id, message)| Response::Error { id, message });
    let metrics = (any_id(), any_registry_snapshot())
        .prop_map(|(id, metrics)| Response::Metrics { id, metrics });
    prop_oneof![
        action.boxed(),
        shed.boxed(),
        stats.boxed(),
        error.boxed(),
        metrics.boxed(),
    ]
}

/// Binary frame header: magic, version, `u32` LE payload length.
const HEADER: usize = 6;
/// The protocol's cap on a declared payload length (64 MiB).
const MAX_FRAME: usize = 64 << 20;

/// One way to damage a valid binary frame.
#[derive(Debug, Clone)]
enum Mutation {
    /// XOR the byte at this position (modulo the frame length) with a
    /// non-zero mask.
    Flip(usize, u8),
    /// Raise or lower the declared payload length; the bytes stay.
    Relength(i64),
    /// Append bytes to the payload and declare them.
    Tail(Vec<u8>),
}

fn any_mutation() -> impl Strategy<Value = Mutation> {
    let delta = prop_oneof![
        (-64i64..64).boxed(),
        Just(1i64 << 30).boxed(),
        Just(-(1i64 << 31)).boxed(),
    ];
    // Half the flips land in the six header bytes, which a uniform
    // position would almost never hit.
    let at = prop_oneof![(0..HEADER).boxed(), any::<usize>().boxed()];
    prop_oneof![
        (at, 1u8..=255)
            .prop_map(|(at, mask)| Mutation::Flip(at, mask))
            .boxed(),
        delta.prop_map(Mutation::Relength).boxed(),
        prop::collection::vec(any::<u8>(), 1..16)
            .prop_map(Mutation::Tail)
            .boxed(),
    ]
}

fn declared_len(frame: &[u8]) -> u32 {
    u32::from_le_bytes(frame[2..HEADER].try_into().unwrap())
}

fn mutate(frame: &mut Vec<u8>, m: &Mutation) {
    let set_len =
        |frame: &mut Vec<u8>, len: u32| frame[2..HEADER].copy_from_slice(&len.to_le_bytes());
    match m {
        Mutation::Flip(at, mask) => {
            let i = at % frame.len();
            frame[i] ^= mask;
        }
        // Truncating to u32 wraps, as a corrupt prefix would.
        Mutation::Relength(delta) => set_len(frame, (declared_len(frame) as i64 + delta) as u32),
        Mutation::Tail(bytes) => {
            frame.extend_from_slice(bytes);
            set_len(frame, declared_len(frame).wrapping_add(bytes.len() as u32));
        }
    }
}

/// The fuzz contract for one damaged frame: decoding it ends in `Ok`,
/// `InvalidData` or `UnexpectedEof` (a panic fails the case outright).
/// A header that still starts with the magic and declares an in-cap
/// length whose bytes all arrived is consumed whole, whatever the
/// payload holds, and a valid frame spliced in right behind it decodes
/// unchanged.
fn damaged_frame_fails_cleanly<T: WireFrame + std::fmt::Debug + PartialEq>(
    frame: &[u8],
    follow: &T,
) -> Result<(), TestCaseError> {
    use std::io::ErrorKind::{InvalidData, UnexpectedEof};
    let mut next = Vec::new();
    encode_binary_frame(follow, &mut next);
    let stream = [frame, &next[..]].concat();
    let mut rd = &stream[..];
    let (mut payload, mut line) = (Vec::new(), String::new());
    let kind = read_frame_any::<T, _>(&mut rd, &mut payload, &mut line)
        .err()
        .map(|e| e.kind());
    prop_assert!(
        matches!(kind, None | Some(InvalidData) | Some(UnexpectedEof)),
        "unexpected error kind {:?}",
        kind
    );
    let declared = declared_len(frame) as usize;
    let declared_end = HEADER + declared;
    if frame[0] == BINARY_MAGIC && declared <= MAX_FRAME && declared_end <= stream.len() {
        prop_assert_eq!(
            stream.len() - rd.len(),
            declared_end,
            "the declared frame is consumed whole"
        );
        let spliced = [&stream[..declared_end], &next[..]].concat();
        let mut rd = &spliced[..];
        let _ = read_frame_any::<T, _>(&mut rd, &mut payload, &mut line);
        let got = read_frame_any::<T, _>(&mut rd, &mut payload, &mut line);
        prop_assert!(
            matches!(&got, Ok(Some((v, WireProtocol::Binary))) if v == follow),
            "the frame after a consumed damaged one must decode: {:?}",
            got.map(|g| g.map(|(v, _)| v))
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fuzz the binary decoder: valid frames of every request and
    /// response variant, damaged by byte flips, a raised or lowered
    /// length prefix and declared random tails, never panic, fail only
    /// as `InvalidData` or `UnexpectedEof`, and leave the stream
    /// frame-aligned whenever the declared length was consumed.
    #[test]
    fn damaged_binary_frames_fail_cleanly_and_resync(
        req in any_request(),
        resp in any_response(),
        req_damage in prop::collection::vec(any_mutation(), 1..4),
        resp_damage in prop::collection::vec(any_mutation(), 1..4),
    ) {
        let mut frame = Vec::new();
        encode_binary_frame(&req, &mut frame);
        for m in &req_damage {
            mutate(&mut frame, m);
        }
        damaged_frame_fails_cleanly(&frame, &req)?;
        encode_binary_frame(&resp, &mut frame);
        for m in &resp_damage {
            mutate(&mut frame, m);
        }
        damaged_frame_fails_cleanly(&frame, &resp)?;
    }

    /// Every request variant survives the wire bit-exactly, and a
    /// snapshot's floats compare by bits, not by value (−0.0 vs 0.0, ulp
    /// neighbors).
    #[test]
    fn requests_round_trip_bit_exactly(reqs in prop::collection::vec(any_request(), 1..8)) {
        let mut buf = Vec::new();
        for r in &reqs {
            write_json(&mut buf, r);
        }
        let mut reader = std::io::BufReader::new(&buf[..]);
        for want in &reqs {
            let got: Request = read_json_frame(&mut reader).unwrap().expect("frame present");
            prop_assert_eq!(&got, want);
            prop_assert_eq!(float_bits(&got), float_bits(want));
        }
        prop_assert!(read_json_frame::<Request, _>(&mut reader).unwrap().is_none());
    }

    /// Every response variant — `served_by` tags, shard health states,
    /// hostile error messages — round-trips exactly, and a message
    /// containing newlines or embedded frames never corrupts framing
    /// for the frames that follow it.
    #[test]
    fn responses_round_trip_and_framing_survives(resps in prop::collection::vec(any_response(), 1..8)) {
        let mut buf = Vec::new();
        for r in &resps {
            write_json(&mut buf, r);
        }
        // One frame per line: framing is intact regardless of payload.
        let text = std::str::from_utf8(&buf).unwrap();
        prop_assert_eq!(text.lines().count(), resps.len());
        let mut reader = std::io::BufReader::new(&buf[..]);
        for want in &resps {
            let got: Response = read_json_frame(&mut reader).unwrap().expect("frame present");
            prop_assert_eq!(&got, want);
        }
    }

    /// Truncating any frame anywhere strictly inside it yields the
    /// transport error (`UnexpectedEof`), never a protocol error and
    /// never a silently wrong frame — the distinction the client's
    /// retry logic rides on.
    #[test]
    fn torn_frames_are_transport_errors(resp in any_response(), cut in any::<prop::sample::Index>()) {
        let mut buf = Vec::new();
        write_json(&mut buf, &resp);
        // Cut strictly inside the line: keep at least 1 byte, lose at
        // least the newline.
        let keep = 1 + cut.index(buf.len() - 1);
        let torn = &buf[..keep];
        let err = read_json_frame::<Response, _>(&mut std::io::BufReader::new(torn))
            .expect_err("a torn frame must not parse");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    /// Every request variant survives the *binary* wire bit-exactly —
    /// same payload space as the JSON property, decoded through the
    /// format-sniffing reader.
    #[test]
    fn binary_requests_round_trip_bit_exactly(reqs in prop::collection::vec(any_request(), 1..8)) {
        let mut buf = Vec::new();
        let mut frame = Vec::new();
        for r in &reqs {
            encode_binary_frame(r, &mut frame);
            buf.extend_from_slice(&frame);
        }
        let mut reader = std::io::BufReader::new(&buf[..]);
        let (mut payload, mut line) = (Vec::new(), String::new());
        for want in &reqs {
            let (got, proto): (Request, _) =
                read_frame_any(&mut reader, &mut payload, &mut line)
                    .unwrap()
                    .expect("frame present");
            prop_assert_eq!(proto, WireProtocol::Binary);
            prop_assert_eq!(&got, want);
            prop_assert_eq!(float_bits(&got), float_bits(want));
        }
        prop_assert!(
            read_frame_any::<Request, _>(&mut reader, &mut payload, &mut line)
                .unwrap()
                .is_none()
        );
    }

    /// Every response variant round-trips through the binary format,
    /// and decoding *into* a reused scratch value yields exactly the
    /// owned-decode result — the server/client buffer-reuse path can
    /// never diverge from the simple path.
    #[test]
    fn binary_responses_round_trip_and_decode_into_matches(
        resps in prop::collection::vec(any_response(), 1..8),
    ) {
        let mut frame = Vec::new();
        let mut scratch = Response::scratch();
        for want in &resps {
            encode_binary_frame(want, &mut frame);
            let mut reader = std::io::BufReader::new(&frame[..]);
            let (mut payload, mut line) = (Vec::new(), String::new());
            let (owned, proto): (Response, _) =
                read_frame_any(&mut reader, &mut payload, &mut line)
                    .unwrap()
                    .expect("frame present");
            prop_assert_eq!(proto, WireProtocol::Binary);
            prop_assert_eq!(&owned, want);
            // decode_into against a scratch carrying the *previous*
            // iteration's value: stale state must be fully overwritten.
            let mut reader = std::io::BufReader::new(&frame[..]);
            read_frame_any_into(&mut reader, &mut payload, &mut line, &mut scratch)
                .unwrap()
                .expect("frame present");
            prop_assert_eq!(&scratch, want);
        }
    }

    /// JSON and binary encodings of the same value decode to the same
    /// value, and a stream interleaving the two formats sniffs each
    /// frame correctly — the per-connection negotiation is per *frame*,
    /// so a client may switch formats mid-connection.
    #[test]
    fn json_and_binary_cross_decode_equivalently(
        reqs in prop::collection::vec(any_request(), 1..6),
        flips in prop::collection::vec(any::<bool>(), 6),
    ) {
        let mut buf = Vec::new();
        let mut frame = Vec::new();
        let protos: Vec<WireProtocol> = reqs
            .iter()
            .zip(&flips)
            .map(|(r, &binary)| {
                if binary {
                    encode_binary_frame(r, &mut frame);
                } else {
                    encode_json_frame(r, &mut frame).unwrap();
                }
                buf.extend_from_slice(&frame);
                if binary { WireProtocol::Binary } else { WireProtocol::Json }
            })
            .collect();
        let mut reader = std::io::BufReader::new(&buf[..]);
        let (mut payload, mut line) = (Vec::new(), String::new());
        for (want, want_proto) in reqs.iter().zip(&protos) {
            let (got, proto): (Request, _) =
                read_frame_any(&mut reader, &mut payload, &mut line)
                    .unwrap()
                    .expect("frame present");
            prop_assert_eq!(proto, *want_proto);
            prop_assert_eq!(&got, want);
        }
    }

    /// Truncating a binary frame anywhere strictly inside it yields the
    /// transport error (`UnexpectedEof`), never `InvalidData` — torn
    /// binary frames must stay retryable exactly like torn JSON lines.
    #[test]
    fn torn_binary_frames_are_transport_errors(
        resp in any_response(),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut buf = Vec::new();
        encode_binary_frame(&resp, &mut buf);
        let keep = 1 + cut.index(buf.len() - 1);
        let torn = &buf[..keep];
        let (mut payload, mut line) = (Vec::new(), String::new());
        let err = read_frame_any::<Response, _>(
            &mut std::io::BufReader::new(torn),
            &mut payload,
            &mut line,
        )
        .expect_err("a torn frame must not parse");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    /// Histogram merge is associative and commutative: however the
    /// server folds its per-shard histograms, every quantile, count,
    /// and max comes out identical.
    #[test]
    fn histogram_merge_is_associative_and_commutative(
        xs in prop::collection::vec(1u64..2_000_000, 0..64),
        ys in prop::collection::vec(1u64..2_000_000, 0..64),
        zs in prop::collection::vec(1u64..2_000_000, 0..64),
    ) {
        let fill = |ns: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &v in ns {
                h.record(Duration::from_nanos(v));
            }
            h
        };
        let (a, b, c) = (fill(&xs), fill(&ys), fill(&zs));

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // c ⊕ b ⊕ a: commutes too.
        let mut rev = c.clone();
        rev.merge(&b);
        rev.merge(&a);
        prop_assert_eq!(&left, &rev);

        // And the merged quantiles equal one histogram fed everything.
        let mut all = Vec::new();
        all.extend_from_slice(&xs);
        all.extend_from_slice(&ys);
        all.extend_from_slice(&zs);
        let whole = fill(&all);
        prop_assert_eq!(&left, &whole);
        for q in [0.0, 0.5, 0.99, 1.0] {
            prop_assert_eq!(left.quantile_ns(q), whole.quantile_ns(q));
        }
    }
}
