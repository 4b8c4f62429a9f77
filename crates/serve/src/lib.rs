//! # rlsched-serve — the sharded, request-coalescing policy-serving tier
//!
//! RLScheduler's pitch is that a trained kernel policy decides fast
//! enough to sit inside a live batch-job dispatcher (§IV-B1, Table IX).
//! This crate is that dispatcher-facing tier: it turns the batched
//! scoring building blocks (`ScorerSnapshot`, `greedy_batch`,
//! row-count-invariant forward kernels) into a server that answers
//! scheduling queries over a socket.
//!
//! ## Architecture
//!
//! * [`protocol`] — two frame formats for [`Request`] / [`Response`]:
//!   newline-delimited JSON (debuggable with `nc`) and length-prefixed
//!   binary frames, little-endian for the hot `Score`, `Action` and
//!   `Shed` and JSON text for the rest. The server sniffs the first
//!   byte of every frame, so both coexist with no handshake. There is
//!   one scoring request, `Request::Score`: a queue snapshot in, the
//!   chosen queue position out, and the shard runs the encoder. A
//!   snapshot's floats cross either wire bit-exactly.
//! * [`transport`] — the [`Transport`] abstraction over TCP and Unix
//!   domain sockets: [`ListenAddr`] (server side), [`ServerAddr`]
//!   (bound address) and [`AnyStream`] (runtime-chosen client stream).
//!   Servers bind loopback TCP and clients speak binary frames unless
//!   configured otherwise.
//! * [`engine`] — [`ShardEngine`], the allocation-free coalescing batch
//!   scorer, and [`ScorerSlot`], the atomic weight hot-swap point.
//! * [`server`] — [`Server::spawn`] / [`ServerHandle`]: accept loop,
//!   per-connection reader/writer threads, the frames a reader finds
//!   pipelined back to back scored on it (one batch per idle shard), N
//!   shard worker threads that block on their inboxes and batch whatever
//!   is already waiting (no timer), deterministic id→shard routing,
//!   bounded inboxes with explicit shed responses, and a per-server
//!   `rlsched_obs::Registry` of counters / gauges / latency histograms
//!   scrapeable over the wire via `Request::Metrics` (and summarised by
//!   `Request::Stats`).
//! * [`client`] — [`ServeClient`] (blocking, single in-flight, typed
//!   [`ClientError`]s, reconnect + deadline + safe retry) and
//!   [`RemotePolicy`] (the `rlsched_sim::Policy` that schedules through
//!   the server — every simulator decision goes over the wire, and a
//!   failure that outlives the retry budget is the driver's `Err`).
//! * [`LatencyHistogram`] — the log-linear latency histogram of
//!   `rlsched-obs`, re-exported so every subsystem shares one bucketing
//!   scheme.
//! * [`faults`] — [`FaultPlan`], the deterministic fault-injection
//!   harness behind the chaos suite (`tests/chaos.rs`).
//!
//! ## The failure model
//!
//! Shards are supervised: panics are caught, the in-flight
//! batch is answered by a deterministic heuristic fallback
//! (`served_by: Fallback` on the wire; always the configured
//! `ServeConfig::fallback` kind's pick over the request's snapshot), and
//! the worker respawns under
//! a bounded restart budget — exhaustion parks it on the fallback arm
//! until a validated weight swap revives it on its next request.
//! Checkpoints install through propose → validate (all-finite walk +
//! canary parity probe) → commit with generation rollback. A snapshot
//! the encoder cannot read (no processors, more free than total, a
//! negative or non-finite wait, a non-positive or non-finite time bound)
//! is answered with `Response::Error`, never scored. See `README.md`
//! § Failure model.
//!
//! ## The parity guarantee
//!
//! Serving decisions are **bit-identical** to in-process
//! `Agent::as_policy` decisions, for every `PolicyKind`, regardless of
//! batch composition, coalescing cuts, or shard count. Three properties compose into that guarantee:
//!
//! 1. snapshot encoding and in-process view encoding share one loop
//!    (`ObsEncoder::encode_snapshot_extend`), and both wire formats
//!    round-trip floats exactly (JSON via shortest-round-trip
//!    formatting, binary via `to_le_bytes` verbatim);
//! 2. a [`rlscheduler::ScorerSnapshot`] holds the agent's policy network
//!    and scores through the forward `as_policy` runs;
//! 3. the forward kernels are row-count invariant, so a row's bits do
//!    not depend on what else was coalesced around it.
//!
//! The suite in `tests/serve_parity.rs` pins the whole chain end to
//! end, across {JSON, binary} × {TCP, UDS} × shard counts.

pub mod client;
pub mod engine;
pub mod faults;
pub mod protocol;
pub mod server;
pub mod transport;

pub use client::{ClientConfig, ClientError, Decision, RemotePolicy, ServeClient};
pub use engine::{EngineMetrics, ScorerSlot, ShardEngine};
pub use faults::{write_torn_frame, FaultPlan};
pub use protocol::{
    Request, Response, ServeStats, ServedBy, ShardHealth, ShardState, WireFrame, WireProtocol,
};
pub use rlsched_obs::LatencyHistogram;
pub use server::{ProposeError, ServeConfig, Server, ServerHandle};
pub use transport::{AnyStream, Listen, ListenAddr, ServerAddr, Transport};
