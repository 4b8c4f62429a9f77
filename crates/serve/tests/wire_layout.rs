//! The binary wire layout, pinned. The three hot frames (`Score`,
//! `Action`, `Shed`) are checked byte for byte. Every other frame must
//! be its JSON text inside the binary envelope. The retired tags must
//! decode as unknown, and a damaged JSON body must fail as
//! `InvalidData` without desynchronising the stream.

use rlsched_obs::{HistogramSnapshot, MetricSnapshot, MetricValue, RegistrySnapshot};
use rlsched_serve::protocol::{encode_binary_frame, read_frame, BINARY_MAGIC, BINARY_VERSION};
use rlsched_serve::{Request, Response, ServeStats, ServedBy, ShardHealth, ShardState, WireFrame};
use rlscheduler::{QueueSnapshot, SnapshotJob};

/// Binary frame header: magic, version, `u32` LE payload length.
const HEADER: usize = 6;

/// Decode one complete frame.
fn read_binary<T: WireFrame>(wire: &[u8]) -> std::io::Result<T> {
    Ok(read_frame(&mut &wire[..], &mut Vec::new())?.expect("frame present"))
}

fn metrics_response() -> Response {
    Response::Metrics {
        id: 11,
        metrics: RegistrySnapshot {
            metrics: vec![
                MetricSnapshot {
                    name: "rlsched_serve_inbox_depth".into(),
                    labels: vec![("shard".into(), "0".into())],
                    value: MetricValue::Gauge(2.5),
                },
                MetricSnapshot {
                    name: "rlsched_serve_latency_ns".into(),
                    labels: vec![("shard".into(), "0".into())],
                    value: MetricValue::Histogram(HistogramSnapshot {
                        count: 3,
                        max_ns: 1_000,
                        buckets: vec![(3, 1), (2, 1), (205, 1)],
                    }),
                },
                MetricSnapshot {
                    name: "rlsched_serve_served_total".into(),
                    labels: vec![],
                    value: MetricValue::Counter(42),
                },
            ],
        },
    }
}

fn stats_response() -> Response {
    Response::Stats {
        id: 42,
        stats: ServeStats {
            served: 10,
            fallbacks: 3,
            shed: 1,
            deadlines: 2,
            batches: 4,
            max_batch: 5,
            swaps: 2,
            rollbacks: 1,
            restarts: 6,
            accept_failures: 7,
            p50_us: 12.5,
            p99_us: 99.0,
            max_us: 120.0,
            shards: vec![ShardHealth {
                state: ShardState::Failed,
                restarts: 3,
                panics: 4,
            }],
        },
    }
}

/// The payload of every JSON-bodied frame is the frame's `serde_json`
/// text.
#[test]
fn json_bodied_payloads_are_the_json_frame_text() {
    fn pin<T: WireFrame + std::fmt::Debug + PartialEq>(frame: &T) {
        let mut binary = Vec::new();
        encode_binary_frame(frame, &mut binary);
        let json = serde_json::to_string(frame).unwrap();
        assert_eq!(binary[HEADER], b'{', "the body's `{{` is its tag");
        assert_eq!(&binary[HEADER..], json.as_bytes(), "{frame:?}");
        assert_eq!(&read_binary::<T>(&binary).unwrap(), frame);
    }
    pin(&Request::Stats { id: 9 });
    pin(&Request::Metrics { id: 10 });
    pin(&stats_response());
    pin(&metrics_response());
    pin(&Response::Error {
        id: 3,
        message: "quote \" newline \n unicode μs".into(),
    });
}

/// The hot layouts, byte for byte. A change to any of these bytes is a
/// wire break: it has to bump `BINARY_VERSION`.
#[test]
fn hot_layouts_are_pinned_byte_for_byte() {
    let score = Request::Score {
        id: 1,
        snapshot: QueueSnapshot {
            free_procs: 3,
            total_procs: 8,
            queue_len: 2,
            jobs: vec![SnapshotJob {
                wait: 12.5,
                time_bound: 3600.0,
                procs: 2,
                can_run_now: true,
            }],
        },
    };
    #[rustfmt::skip]
    let score_bytes: &[u8] = &[
        0xB1, 0x01, 0x2E, 0x00, 0x00, 0x00, // magic, version, length 46
        0x01, // tag
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id
        0x03, 0x00, 0x00, 0x00, // free_procs
        0x08, 0x00, 0x00, 0x00, // total_procs
        0x02, 0x00, 0x00, 0x00, // queue_len
        0x01, 0x00, 0x00, 0x00, // job count
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x29, 0x40, // wait 12.5
        0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0xAC, 0x40, // time_bound 3600.0
        0x02, 0x00, 0x00, 0x00, // procs
        0x01, // can_run_now
    ];
    let action = Response::Action {
        id: 4,
        action: 3,
        shard: 2,
        served_by: ServedBy::Fallback,
    };
    #[rustfmt::skip]
    let action_bytes: &[u8] = &[
        0xB1, 0x01, 0x1A, 0x00, 0x00, 0x00, // magic, version, length 26
        0x01, // tag
        0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // action
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // shard
        0x01, // served_by: Fallback
    ];
    let shed = Response::Shed { id: 2 };
    #[rustfmt::skip]
    let shed_bytes: &[u8] = &[
        0xB1, 0x01, 0x09, 0x00, 0x00, 0x00, // magic, version, length 9
        0x02, // tag
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id
    ];
    let mut wire = Vec::new();
    encode_binary_frame(&score, &mut wire);
    assert_eq!(wire, score_bytes);
    assert_eq!(read_binary::<Request>(score_bytes).unwrap(), score);
    encode_binary_frame(&action, &mut wire);
    assert_eq!(wire, action_bytes);
    assert_eq!(read_binary::<Response>(action_bytes).unwrap(), action);
    encode_binary_frame(&shed, &mut wire);
    assert_eq!(wire, shed_bytes);
    assert_eq!(read_binary::<Response>(shed_bytes).unwrap(), shed);
}

#[test]
fn retired_tags_are_invalid_data() {
    // Each retired tag, followed by the id its layout began with.
    let frame = |tag: u8| {
        let mut wire = vec![BINARY_MAGIC, BINARY_VERSION];
        wire.extend_from_slice(&9u32.to_le_bytes());
        wire.push(tag);
        wire.extend_from_slice(&7u64.to_le_bytes());
        wire
    };
    for tag in [2, 3, 4] {
        let err = read_binary::<Request>(&frame(tag)).expect_err("retired request tag");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "request {tag}");
    }
    for tag in [3, 4, 5] {
        let err = read_binary::<Response>(&frame(tag)).expect_err("retired response tag");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "response {tag}"
        );
    }
}

/// A binary Metrics frame whose JSON body arrived whole (its length
/// prefix matches) but is cut short, left unclosed or not UTF-8 is
/// malformed content, and the frame behind it still decodes.
#[test]
fn damaged_metrics_json_bodies_are_invalid_data() {
    let mut wire = Vec::new();
    encode_binary_frame(&metrics_response(), &mut wire);
    let mut cut = wire[..wire.len() - 7].to_vec();
    let len = (cut.len() - HEADER) as u32;
    cut[2..HEADER].copy_from_slice(&len.to_le_bytes());
    let mut unclosed = wire.clone();
    *unclosed.last_mut().unwrap() = b']';
    let mut not_utf8 = wire.clone();
    not_utf8[HEADER + 3] = 0xFF;
    let next = Response::Shed { id: 9 };
    let mut next_frame = Vec::new();
    encode_binary_frame(&next, &mut next_frame);
    for (name, damaged) in [
        ("cut", cut),
        ("unclosed", unclosed),
        ("not UTF-8", not_utf8),
    ] {
        let stream = [damaged, next_frame.clone()].concat();
        let mut reader = &stream[..];
        let mut payload = Vec::new();
        let err = read_frame::<Response, _>(&mut reader, &mut payload).expect_err(name);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
        let got = read_frame::<Response, _>(&mut reader, &mut payload)
            .unwrap()
            .expect("the next frame is intact");
        assert_eq!(got, next, "{name}");
    }
}
