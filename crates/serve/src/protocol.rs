//! The wire protocol: one frame format, a length-prefixed envelope.
//!
//! Every frame, both ways, is `[0xB1][version=1][payload_len: u32 LE]
//! [payload]`, and the payload's first byte is its tag. Only the three
//! frames of the hot path have a hand-written layout,
//! `[variant tag: u8][fields…]`: `Request::Score` (tag 1),
//! `Response::Action` (tag 1) and `Response::Shed` (tag 2). Their
//! integers are fixed-width LE, floats are IEEE-754 `to_le_bytes`, and
//! the snapshot's job list carries a `u32` count. A `Score` frame is
//! encoded straight from a borrowed snapshot ([`encode_score_frame`])
//! and decoded into a reused one, so with warm buffers neither side
//! allocates — no text formatting, no per-float parse. Float exactness
//! is structural here.
//!
//! Every other frame (`Stats` and `Metrics` both ways, `Error`) carries
//! its JSON text as the payload, in the serde-default externally-tagged
//! form, e.g. `{"Stats":{"id":1}}`. Its first byte, `{` (0x7B), is its
//! tag, and the type's `#[derive(Serialize, Deserialize)]` is its one
//! field description. Any request may be sent that way: a `{`-bodied
//! `Score` decodes through the same arm, so a hand-written client frames
//! a request as the 6-byte header followed by its JSON text, and needs
//! no binary layout. The shim's shortest-round-trip float formatting
//! carries a snapshot's `f64` wait and time bound bit-exactly in a JSON
//! body too.
//!
//! **Error taxonomy** (drives the client's retry-vs-report decision and
//! the server's resync-vs-close):
//! * a stream whose next byte is not [`BINARY_MAGIC`] is `InvalidData`,
//!   and the byte is left unread: no frame boundary follows it, so the
//!   server answers once with an `Error { id: 0 }` and closes;
//! * a header or payload cut short by a dying peer is `UnexpectedEof`, a
//!   *transport* error, safe to retry on a fresh connection;
//! * a frame that arrived whole but decodes wrong (an unknown version or
//!   tag, a payload that contradicts its own length, a body that is not
//!   UTF-8 or not valid JSON) is `InvalidData` after its declared length
//!   was consumed, so the stream stays frame-aligned and the server
//!   reports it and reads on. The client never retries it.
//!
//! **Bounded reads**: a declared payload over 64 MiB is `InvalidData`
//! before anything is allocated for it, and a payload is buffered only
//! as its bytes arrive, so a header that declares a large frame and then
//! stalls allocates nothing for it. A JSON body nests at most
//! `serde_json::MAX_DEPTH` levels deep; deeper text is `InvalidData`,
//! never a stack overflow.
//!
//! Correlation ids must stay below 2^53: JSON interoperability (RFC
//! 8259 §6) only guarantees integer exactness within IEEE-double range,
//! and ids above it may come back changed in a JSON body.
//! [`crate::ServeClient`] allocates ids sequentially from 0, far below
//! the limit.

use std::io::{BufRead, Read};

use rlsched_obs::RegistrySnapshot;
use rlscheduler::{QueueSnapshot, SnapshotJob};
use serde::{Deserialize, Serialize};

/// One client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Score a queue snapshot: the server encodes it with the agent's
    /// observation encoder and answers with the chosen queue position.
    Score {
        /// Client-chosen correlation id, echoed in the response. Also
        /// the shard-routing key: requests with the same id always land
        /// on the same shard (deterministic routing).
        id: u64,
        /// The decision point.
        snapshot: QueueSnapshot,
    },
    /// Fetch serving statistics.
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Scrape the server's full metrics registry (every counter, gauge,
    /// and histogram the tier records — see `rlsched-obs`).
    Metrics {
        /// Correlation id.
        id: u64,
    },
}

impl Request {
    /// The correlation id of any request variant.
    pub fn id(&self) -> u64 {
        match self {
            Request::Score { id, .. } | Request::Stats { id } | Request::Metrics { id } => *id,
        }
    }
}

/// Which arm produced a scoring decision.
///
/// `Model` answers are bit-identical to in-process `Agent::as_policy`
/// scoring (the parity invariant); `Fallback` answers come from the
/// deterministic heuristic arm (shard down, inbox full, or in-queue
/// deadline expired) and are bit-identical to
/// `rlsched_sched::PriorityScheduler` with the server's configured kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServedBy {
    /// Scored by the policy network on a shard.
    Model,
    /// Answered by the deterministic heuristic fallback.
    Fallback,
}

/// Lifecycle state of one shard worker, as reported in [`ServeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardState {
    /// Scoring normally.
    Healthy,
    /// Panicked recently; backing off before the next respawn attempt.
    Restarting,
    /// Restart budget exhausted; answering everything via fallback until
    /// a validated weight swap revives it.
    Failed,
}

/// Health snapshot of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardHealth {
    /// Current lifecycle state.
    pub state: ShardState,
    /// Engine respawns after panics (lifetime total).
    pub restarts: u64,
    /// Batch panics caught by the shard's scoring routine (lifetime
    /// total).
    pub panics: u64,
}

/// Aggregated serving statistics (see [`crate::ServerHandle::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Scoring requests answered by the model.
    pub served: u64,
    /// Scoring requests answered by the heuristic fallback arm.
    pub fallbacks: u64,
    /// Requests shed by backpressure (no fallback configured).
    pub shed: u64,
    /// Requests whose in-queue deadline expired (answered via fallback).
    pub deadlines: u64,
    /// Batched forwards dispatched.
    pub batches: u64,
    /// Largest coalesced batch so far.
    pub max_batch: u64,
    /// Weight hot-swaps committed (validated proposals + forced swaps).
    pub swaps: u64,
    /// Checkpoint proposals rejected or reverted by rollback.
    pub rollbacks: u64,
    /// Shard engine respawns after caught panics.
    pub restarts: u64,
    /// Accept-loop failures survived with backoff.
    pub accept_failures: u64,
    /// Median request latency (enqueue → scored), microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Maximum request latency, microseconds.
    pub max_us: f64,
    /// Per-shard health, indexed by shard id.
    pub shards: Vec<ShardHealth>,
}

impl ServeStats {
    /// Mean rows per coalesced batch (0 when nothing was served).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.served as f64 / self.batches as f64
        }
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The scheduling decision for a scoring request.
    Action {
        /// Echoed correlation id.
        id: u64,
        /// Chosen queue position (`< queue_len`).
        action: u64,
        /// The shard that scored it (observability; deterministic per id).
        shard: u64,
        /// Which arm answered: the model or the heuristic fallback.
        served_by: ServedBy,
    },
    /// The request was shed: the shard's queue was full. The client
    /// should fall back to a local heuristic or retry after backoff.
    Shed {
        /// Echoed correlation id.
        id: u64,
    },
    /// Serving statistics.
    Stats {
        /// Echoed correlation id.
        id: u64,
        /// The aggregate counters.
        stats: ServeStats,
    },
    /// The full metrics registry at scrape time.
    Metrics {
        /// Echoed correlation id.
        id: u64,
        /// A consistent read of every registered metric.
        metrics: RegistrySnapshot,
    },
    /// The request was malformed (bad widths, empty queue, …).
    Error {
        /// Echoed correlation id (0 when the frame didn't parse).
        id: u64,
        /// What was wrong.
        message: String,
    },
}

impl Response {
    /// The correlation id of any response variant.
    pub fn id(&self) -> u64 {
        match self {
            Response::Action { id, .. }
            | Response::Shed { id }
            | Response::Stats { id, .. }
            | Response::Metrics { id, .. }
            | Response::Error { id, .. } => *id,
        }
    }
}

// ---------------------------------------------------------------------------
// The envelope (see the module docs for the layout).
// ---------------------------------------------------------------------------

/// First byte of every frame.
pub const BINARY_MAGIC: u8 = 0xB1;
/// Envelope version; bumped on layout changes.
pub const BINARY_VERSION: u8 = 1;
/// Frame header: magic, version, payload length.
const HEADER_LEN: usize = 6;
/// Upper bound on a declared payload length — a corrupt length prefix
/// must not become a giant allocation.
const MAX_FRAME_LEN: usize = 64 << 20;

const TAG_REQ_SCORE: u8 = 1;
const TAG_RESP_ACTION: u8 = 1;
const TAG_RESP_SHED: u8 = 2;
// Retired tags: request 2 (the client-encoded row request), requests 3
// and 4 and responses 3, 4 and 5 (the old hand layouts of Stats,
// Metrics and Error). Never reuse them, so an old peer's frame stays an
// unknown tag instead of decoding as something else.

/// Tag of a JSON-bodied payload: the `{` that opens its JSON text.
const TAG_JSON: u8 = b'{';

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `frame`'s JSON text: the whole payload of a JSON-bodied frame.
fn put_json<T: Serialize>(out: &mut Vec<u8>, frame: &T) {
    let text = serde_json::to_string(frame).expect("a wire frame always serializes");
    out.extend_from_slice(text.as_bytes());
}

/// Decode a JSON-bodied payload. The whole frame arrived (its length
/// prefix said so), so bad UTF-8 or bad JSON is malformed content.
fn read_json<T: Deserialize>(payload: &[u8]) -> std::io::Result<T> {
    let text = std::str::from_utf8(payload).map_err(|_| bad("JSON body is not UTF-8"))?;
    Ok(serde_json::from_str(text)?)
}

/// A `Score` request's payload, written from the borrowed snapshot.
fn put_score(out: &mut Vec<u8>, id: u64, snapshot: &QueueSnapshot) {
    out.push(TAG_REQ_SCORE);
    put_u64(out, id);
    put_u32(out, snapshot.free_procs);
    put_u32(out, snapshot.total_procs);
    put_u32(out, snapshot.queue_len);
    put_u32(out, snapshot.jobs.len() as u32);
    for j in &snapshot.jobs {
        put_f64(out, j.wait);
        put_f64(out, j.time_bound);
        put_u32(out, j.procs);
        out.push(j.can_run_now as u8);
    }
}

/// Little-endian cursor over one binary payload. Running out of bytes
/// is `InvalidData`: the full frame already arrived (the length prefix
/// said so), so a short payload is malformed content, not a torn read.
struct Rd<'a> {
    buf: &'a [u8],
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> std::io::Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(bad("binary payload shorter than its fields"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> std::io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> std::io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> std::io::Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> std::io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> std::io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(bad("bool field is not 0/1")),
        }
    }

    fn finish(&self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(bad("binary payload has trailing bytes"))
        }
    }
}

/// A frame type: a payload codec for the envelope.
///
/// The `*_into` decode reuses the heap buffers of the value it decodes
/// into whenever the incoming variant matches — the mechanism behind
/// the 0-allocation steady state pinned in `alloc_regression`.
pub trait WireFrame: Serialize + Deserialize {
    /// Append this frame's payload (tag byte + fields, or its JSON text)
    /// to `out`.
    fn encode_payload(&self, out: &mut Vec<u8>);

    /// Decode a payload over `into`, reusing its buffers.
    fn decode_payload_into(bytes: &[u8], into: &mut Self) -> std::io::Result<()>;

    /// A cheap throwaway value for owned decodes.
    fn scratch() -> Self;
}

/// Encode a complete frame (header + payload) into `out`, clearing it
/// first. Allocation-free once `out`'s capacity is warm,
/// for the frames with a binary layout.
pub fn encode_binary_frame<T: WireFrame>(frame: &T, out: &mut Vec<u8>) {
    frame_with(out, |out| frame.encode_payload(out));
}

/// Encode a `Score` request frame straight from a borrowed
/// snapshot — the client's send path: no `Request` value, no copy of the
/// snapshot, and no allocation once `out` is warm. The bytes are those
/// [`encode_binary_frame`] writes for the equivalent `Request::Score`.
pub fn encode_score_frame(out: &mut Vec<u8>, id: u64, snapshot: &QueueSnapshot) {
    frame_with(out, |out| put_score(out, id, snapshot));
}

/// Clear `out`, then write the header around the payload `put` appends.
fn frame_with(out: &mut Vec<u8>, put: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.push(BINARY_MAGIC);
    out.push(BINARY_VERSION);
    out.extend_from_slice(&[0u8; 4]);
    put(out);
    let len = (out.len() - HEADER_LEN) as u32;
    out[2..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
}

impl WireFrame for Request {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Request::Score { id, snapshot } => put_score(out, *id, snapshot),
            Request::Stats { .. } | Request::Metrics { .. } => put_json(out, self),
        }
    }

    fn decode_payload_into(bytes: &[u8], into: &mut Self) -> std::io::Result<()> {
        let mut rd = Rd { buf: bytes };
        match rd.u8()? {
            TAG_REQ_SCORE => {
                let id = rd.u64()?;
                let free_procs = rd.u32()?;
                let total_procs = rd.u32()?;
                let queue_len = rd.u32()?;
                let n = rd.u32()? as usize;
                // 21 bytes per job (two f64, one u32, one bool): reject
                // counts the payload cannot hold before reserving.
                if n > rd.buf.len() / 21 {
                    return Err(bad("snapshot job count exceeds payload"));
                }
                let mut jobs = match std::mem::replace(into, Request::Stats { id: 0 }) {
                    Request::Score { snapshot, .. } => snapshot.jobs,
                    _ => Vec::new(),
                };
                jobs.clear();
                jobs.reserve(n);
                for _ in 0..n {
                    jobs.push(SnapshotJob {
                        wait: rd.f64()?,
                        time_bound: rd.f64()?,
                        procs: rd.u32()?,
                        can_run_now: rd.bool()?,
                    });
                }
                rd.finish()?;
                *into = Request::Score {
                    id,
                    snapshot: QueueSnapshot {
                        free_procs,
                        total_procs,
                        queue_len,
                        jobs,
                    },
                };
                Ok(())
            }
            TAG_JSON => {
                *into = read_json(bytes)?;
                Ok(())
            }
            _ => Err(bad("unknown request tag")),
        }
    }

    fn scratch() -> Self {
        Request::Stats { id: 0 }
    }
}

impl WireFrame for Response {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Response::Action {
                id,
                action,
                shard,
                served_by,
            } => {
                out.push(TAG_RESP_ACTION);
                put_u64(out, *id);
                put_u64(out, *action);
                put_u64(out, *shard);
                out.push(match served_by {
                    ServedBy::Model => 0,
                    ServedBy::Fallback => 1,
                });
            }
            Response::Shed { id } => {
                out.push(TAG_RESP_SHED);
                put_u64(out, *id);
            }
            Response::Stats { .. } | Response::Metrics { .. } | Response::Error { .. } => {
                put_json(out, self)
            }
        }
    }

    fn decode_payload_into(bytes: &[u8], into: &mut Self) -> std::io::Result<()> {
        let mut rd = Rd { buf: bytes };
        match rd.u8()? {
            TAG_RESP_ACTION => {
                let id = rd.u64()?;
                let action = rd.u64()?;
                let shard = rd.u64()?;
                let served_by = match rd.u8()? {
                    0 => ServedBy::Model,
                    1 => ServedBy::Fallback,
                    _ => return Err(bad("unknown served_by tag")),
                };
                rd.finish()?;
                *into = Response::Action {
                    id,
                    action,
                    shard,
                    served_by,
                };
                Ok(())
            }
            TAG_RESP_SHED => {
                let id = rd.u64()?;
                rd.finish()?;
                *into = Response::Shed { id };
                Ok(())
            }
            TAG_JSON => {
                *into = read_json(bytes)?;
                Ok(())
            }
            _ => Err(bad("unknown response tag")),
        }
    }

    fn scratch() -> Self {
        Response::Shed { id: 0 }
    }
}

/// Read one frame; see [`read_frame_into`]. `Ok(None)` on clean EOF.
pub fn read_frame<T: WireFrame, R: BufRead>(
    r: &mut R,
    payload: &mut Vec<u8>,
) -> std::io::Result<Option<T>> {
    let mut v = T::scratch();
    Ok(read_frame_into(r, payload, &mut v)?.then_some(v))
}

/// Read one frame, decoding over `into` (buffers reused — the server's
/// and the client's allocation-free path), with `payload` as the
/// caller's per-connection scratch. Returns `Ok(false)` on clean EOF at
/// a frame boundary.
///
/// The errors are the module docs' taxonomy: a next byte that is not
/// [`BINARY_MAGIC`] is `InvalidData` and stays unread, a torn header or
/// payload is `UnexpectedEof`, and a whole frame that decodes wrong is
/// `InvalidData` with its declared length consumed, so the next read
/// starts at the following frame.
pub fn read_frame_into<T: WireFrame, R: BufRead>(
    r: &mut R,
    payload: &mut Vec<u8>,
    into: &mut T,
) -> std::io::Result<bool> {
    match r.fill_buf()?.first() {
        None => return Ok(false),
        Some(&BINARY_MAGIC) => {}
        Some(_) => return Err(bad("stream is not at a frame header")),
    }
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?; // torn header ⇒ UnexpectedEof
    let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(bad("frame length exceeds the cap"));
    }
    // Grow the buffer as bytes arrive rather than to the declared length
    // up front: a header that promises 64 MiB and stalls costs nothing.
    payload.clear();
    if r.by_ref().take(len as u64).read_to_end(payload)? < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "frame truncated mid-payload",
        ));
    }
    // Validate the version only after consuming the declared payload, so
    // even a version-mismatched frame leaves the stream frame-aligned.
    if header[1] != BINARY_VERSION {
        return Err(bad("unsupported wire version"));
    }
    T::decode_payload_into(payload, into)?;
    Ok(true)
}

// benchmark/ spelling (ROADMAP 1): the frame-format choice that newline
// JSON once made; the envelope is the only format left.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireProtocol {
    Binary,
}

// benchmark/ spelling (ROADMAP 1): the envelope around `frame`'s JSON text.
#[doc(hidden)]
pub fn encode_json_frame<T: Serialize>(frame: &T, out: &mut Vec<u8>) -> std::io::Result<()> {
    frame_with(out, |out| put_json(out, frame));
    Ok(())
}

// benchmark/ spelling (ROADMAP 1): `read_frame_into` with the line buffer
// the JSON reader once took.
#[doc(hidden)]
pub fn read_frame_any_into<T: WireFrame, R: BufRead>(
    r: &mut R,
    payload: &mut Vec<u8>,
    _line: &mut String,
    into: &mut T,
) -> std::io::Result<Option<WireProtocol>> {
    Ok(read_frame_into(r, payload, into)?.then_some(WireProtocol::Binary))
}

#[cfg(test)]
mod tests {
    use rlsched_obs::{HistogramSnapshot, MetricSnapshot, MetricValue};

    use super::*;

    /// Append `frame` to `buf` as an envelope around its JSON text.
    fn write_json<T: Serialize>(buf: &mut Vec<u8>, frame: &T) {
        let mut body = Vec::new();
        frame_with(&mut body, |out| put_json(out, frame));
        assert_eq!(body[HEADER_LEN], TAG_JSON);
        buf.extend_from_slice(&body);
    }

    /// Read the next frame off `r`.
    fn read_json_frame<T: WireFrame, R: BufRead>(r: &mut R) -> std::io::Result<Option<T>> {
        read_frame(r, &mut Vec::new())
    }

    /// Decode one complete frame.
    fn read_binary<T: WireFrame>(wire: &[u8]) -> std::io::Result<T> {
        Ok(read_frame(&mut &wire[..], &mut Vec::new())?.expect("frame present"))
    }

    #[test]
    fn frames_round_trip() {
        let reqs = vec![
            Request::Score {
                id: 7,
                snapshot: QueueSnapshot {
                    free_procs: 3,
                    total_procs: 8,
                    queue_len: 2,
                    jobs: vec![rlscheduler::SnapshotJob {
                        wait: 12.5,
                        time_bound: 3600.0,
                        procs: 2,
                        can_run_now: true,
                    }],
                },
            },
            Request::Stats { id: 9 },
        ];
        let mut buf = Vec::new();
        for r in &reqs {
            write_json(&mut buf, r);
        }
        let mut reader = std::io::BufReader::new(&buf[..]);
        for want in &reqs {
            let got: Request = read_json_frame(&mut reader)
                .unwrap()
                .expect("frame present");
            assert_eq!(&got, want);
        }
        assert!(read_json_frame::<Request, _>(&mut reader)
            .unwrap()
            .is_none());
    }

    /// A snapshot whose floats are awkward to print and parse:
    /// subnormal, non-dyadic, huge, and an off-by-one-ulp neighbor of 0.3.
    fn awkward_snapshot() -> QueueSnapshot {
        let floats = [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE / 2.0,
            1e300,
            f64::from_bits(0.3f64.to_bits() + 1),
        ];
        QueueSnapshot {
            free_procs: 1,
            total_procs: 8,
            queue_len: floats.len() as u32,
            jobs: floats
                .iter()
                .zip(floats.iter().rev())
                .map(|(&wait, &time_bound)| SnapshotJob {
                    wait,
                    time_bound,
                    procs: 1,
                    can_run_now: wait < 1.0,
                })
                .collect(),
        }
    }

    /// A snapshot's floats as bits: −0.0 vs 0.0 and ulp neighbors differ.
    fn float_bits(got: &Request) -> Vec<u64> {
        let Request::Score { snapshot, .. } = got else {
            panic!("variant changed: {got:?}")
        };
        snapshot
            .jobs
            .iter()
            .flat_map(|j| [j.wait.to_bits(), j.time_bound.to_bits()])
            .collect()
    }

    #[test]
    fn snapshot_floats_survive_the_wire_bit_exactly() {
        let snapshot = awkward_snapshot();
        let req = Request::Score {
            id: 1,
            snapshot: snapshot.clone(),
        };
        let mut buf = Vec::new();
        write_json(&mut buf, &req);
        let back: Request = read_json_frame(&mut std::io::BufReader::new(&buf[..]))
            .unwrap()
            .unwrap();
        assert_eq!(float_bits(&back), float_bits(&req));
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Action {
                id: 1,
                action: 3,
                shard: 0,
                served_by: ServedBy::Model,
            },
            Response::Action {
                id: 4,
                action: 0,
                shard: 2,
                served_by: ServedBy::Fallback,
            },
            Response::Shed { id: 2 },
            Response::Error {
                id: 3,
                message: "bad row".into(),
            },
        ];
        let mut buf = Vec::new();
        for r in &resps {
            write_json(&mut buf, r);
        }
        let mut reader = std::io::BufReader::new(&buf[..]);
        for want in &resps {
            let got: Response = read_json_frame(&mut reader).unwrap().unwrap();
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn stats_with_shard_health_round_trip() {
        let stats = ServeStats {
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
            shards: vec![
                ShardHealth {
                    state: ShardState::Healthy,
                    restarts: 0,
                    panics: 0,
                },
                ShardHealth {
                    state: ShardState::Failed,
                    restarts: 3,
                    panics: 4,
                },
            ],
        };
        let resp = Response::Stats { id: 42, stats };
        let mut buf = Vec::new();
        write_json(&mut buf, &resp);
        let back: Response = read_json_frame(&mut std::io::BufReader::new(&buf[..]))
            .unwrap()
            .unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn served_by_tags_are_plain_strings_on_the_wire() {
        // The tag must stay greppable in logs and JSON bodies.
        let line = serde_json::to_string(&Response::Action {
            id: 1,
            action: 0,
            shard: 0,
            served_by: ServedBy::Fallback,
        })
        .unwrap();
        assert!(line.contains("\"Fallback\""), "{line}");
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Score {
                id: 7,
                snapshot: awkward_snapshot(),
            },
            Request::Stats { id: 9 },
            Request::Metrics { id: 10 },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Action {
                id: 1,
                action: 3,
                shard: 0,
                served_by: ServedBy::Model,
            },
            Response::Action {
                id: 4,
                action: 0,
                shard: 2,
                served_by: ServedBy::Fallback,
            },
            Response::Shed { id: 2 },
            Response::Error {
                id: 3,
                message: "bad row".into(),
            },
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
                    shards: vec![
                        ShardHealth {
                            state: ShardState::Healthy,
                            restarts: 0,
                            panics: 0,
                        },
                        ShardHealth {
                            state: ShardState::Failed,
                            restarts: 3,
                            panics: 4,
                        },
                    ],
                },
            },
        ]
    }

    #[test]
    fn binary_requests_round_trip() {
        let mut wire = Vec::new();
        let mut payload = Vec::new();
        for want in sample_requests() {
            encode_binary_frame(&want, &mut wire);
            assert_eq!(wire[0], BINARY_MAGIC);
            assert_eq!(wire[1], BINARY_VERSION);
            let mut reader = std::io::BufReader::new(&wire[..]);
            let got = read_frame::<Request, _>(&mut reader, &mut payload)
                .unwrap()
                .expect("frame present");
            assert_eq!(got, want);
        }
    }

    #[test]
    fn binary_responses_round_trip() {
        let mut wire = Vec::new();
        let mut payload = Vec::new();
        for want in sample_responses() {
            encode_binary_frame(&want, &mut wire);
            let mut reader = std::io::BufReader::new(&wire[..]);
            let got = read_frame::<Response, _>(&mut reader, &mut payload)
                .unwrap()
                .expect("frame present");
            assert_eq!(got, want);
        }
    }

    #[test]
    fn binary_snapshot_floats_survive_bit_exactly() {
        let snapshot = awkward_snapshot();
        let mut wire = Vec::new();
        encode_score_frame(&mut wire, 5, &snapshot);
        let got: Request = read_binary(&wire).unwrap();
        assert_eq!(got.id(), 5);
        assert_eq!(
            float_bits(&got),
            float_bits(&Request::Score { id: 5, snapshot })
        );
    }

    #[test]
    fn score_frame_helper_matches_request_encoding() {
        let req = Request::Score {
            id: 11,
            snapshot: awkward_snapshot(),
        };
        let mut via_request = Vec::new();
        encode_binary_frame(&req, &mut via_request);
        let mut via_helper = Vec::new();
        encode_score_frame(&mut via_helper, 11, &awkward_snapshot());
        assert_eq!(via_request, via_helper);
    }

    #[test]
    fn a_stream_not_at_a_header_is_invalid_data_and_left_unread() {
        for garbage in [
            &b"{\"Stats\":{\"id\":1}}\n"[..],
            b"\n",
            b"this is not json\n",
        ] {
            let mut reader = std::io::BufReader::new(garbage);
            let err = read_frame::<Request, _>(&mut reader, &mut Vec::new())
                .expect_err("no frame header");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert_eq!(reader.buffer(), garbage, "nothing was consumed");
        }
    }

    #[test]
    fn torn_binary_frames_are_unexpected_eof() {
        let mut wire = Vec::new();
        encode_score_frame(&mut wire, 1, &awkward_snapshot());
        let mut payload = Vec::new();
        // Every proper prefix — mid-header and mid-payload — is torn.
        for cut in 1..wire.len() {
            let mut reader = std::io::BufReader::new(&wire[..cut]);
            let err = read_frame::<Request, _>(&mut reader, &mut payload)
                .expect_err("truncated frame must error");
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn malformed_binary_frames_are_invalid_data() {
        let mut payload = Vec::new();
        let mut read_one = |wire: &[u8]| {
            let mut reader = std::io::BufReader::new(wire);
            read_frame::<Request, _>(&mut reader, &mut payload)
        };
        // Unknown tag.
        let mut unknown_tag = Vec::new();
        encode_binary_frame(&Request::Stats { id: 1 }, &mut unknown_tag);
        unknown_tag[HEADER_LEN] = 0xEE;
        // Payload shorter than its fields claims (length prefix says 1).
        let short = vec![BINARY_MAGIC, BINARY_VERSION, 1, 0, 0, 0, TAG_REQ_SCORE];
        // Trailing bytes after a complete Score payload.
        let mut trailing = Vec::new();
        encode_score_frame(&mut trailing, 1, &awkward_snapshot());
        let plen = (trailing.len() - HEADER_LEN + 1) as u32;
        trailing[2..HEADER_LEN].copy_from_slice(&plen.to_le_bytes());
        trailing.push(0xAB);
        for (name, wire) in [
            ("unknown tag", unknown_tag),
            ("short payload", short),
            ("trailing bytes", trailing),
        ] {
            let err = read_one(&wire).expect_err(name);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
        }
    }

    #[test]
    fn version_mismatch_leaves_the_stream_frame_aligned() {
        let good = Request::Stats { id: 2 };
        let mut bad = Vec::new();
        encode_binary_frame(&Request::Stats { id: 1 }, &mut bad);
        bad[1] = BINARY_VERSION + 1;
        let mut wire = bad;
        let mut scratch = Vec::new();
        encode_binary_frame(&good, &mut scratch);
        wire.extend_from_slice(&scratch);
        let mut reader = std::io::BufReader::new(&wire[..]);
        let mut payload = Vec::new();
        let err = read_frame::<Request, _>(&mut reader, &mut payload)
            .expect_err("bad version must error");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The mismatched frame's declared payload was consumed, so the
        // next read starts exactly at the following frame.
        let got = read_frame::<Request, _>(&mut reader, &mut payload)
            .unwrap()
            .expect("next frame intact");
        assert_eq!(got, good);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut wire = vec![BINARY_MAGIC, BINARY_VERSION];
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut reader = std::io::BufReader::new(&wire[..]);
        let err =
            read_frame::<Request, _>(&mut reader, &mut Vec::new()).expect_err("cap must reject");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn stalled_large_binary_header_allocates_nothing_for_its_payload() {
        // A 64 MiB promise followed by EOF.
        let mut wire = vec![BINARY_MAGIC, BINARY_VERSION];
        wire.extend_from_slice(&(MAX_FRAME_LEN as u32).to_le_bytes());
        let mut reader = std::io::BufReader::new(&wire[..]);
        let mut payload = Vec::new();
        let err = read_frame::<Request, _>(&mut reader, &mut payload)
            .expect_err("the payload never arrived");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        assert!(
            payload.capacity() < 1 << 20,
            "payload grew to {} bytes for nothing",
            payload.capacity()
        );
    }

    #[test]
    fn decode_into_reuses_matching_variant_buffers() {
        let want = awkward_snapshot();
        let mut wire = Vec::new();
        encode_score_frame(&mut wire, 1, &want);
        let mut into = Request::Score {
            id: 0,
            snapshot: QueueSnapshot {
                free_procs: 0,
                total_procs: 0,
                queue_len: 0,
                jobs: Vec::with_capacity(8),
            },
        };
        let jobs_ptr = match &into {
            Request::Score { snapshot, .. } => snapshot.jobs.as_ptr(),
            _ => unreachable!(),
        };
        Request::decode_payload_into(&wire[HEADER_LEN..], &mut into).unwrap();
        match &into {
            Request::Score { id, snapshot } => {
                assert_eq!(*id, 1);
                assert_eq!(snapshot.jobs.as_ptr(), jobs_ptr, "jobs buffer was reused");
                assert_eq!(snapshot, &want);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    fn sample_registry_snapshot() -> RegistrySnapshot {
        RegistrySnapshot {
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
        }
    }

    #[test]
    fn metrics_frames_round_trip_json_and_binary() {
        let req = Request::Metrics { id: 11 };
        let resp = Response::Metrics {
            id: 11,
            metrics: sample_registry_snapshot(),
        };

        let mut buf = Vec::new();
        write_json(&mut buf, &req);
        write_json(&mut buf, &resp);
        let mut reader = std::io::BufReader::new(&buf[..]);
        let got_req: Request = read_json_frame(&mut reader).unwrap().unwrap();
        let got_resp: Response = read_json_frame(&mut reader).unwrap().unwrap();
        assert_eq!(got_req, req);
        assert_eq!(got_resp, resp);

        let mut wire = Vec::new();
        encode_binary_frame(&req, &mut wire);
        assert_eq!(read_binary::<Request>(&wire).unwrap(), req);
        encode_binary_frame(&resp, &mut wire);
        assert_eq!(read_binary::<Response>(&wire).unwrap(), resp);
    }
}
