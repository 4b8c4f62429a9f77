//! An in-memory [`Transport`]/[`Listen`] pair for tests whose premise is
//! a buffer size: each direction of a connection is a pipe that holds a
//! set number of bytes, and a switch pauses one end's reads. "The
//! client's burst is larger than what the connection buffers" and "the
//! client reads none of its replies" are then exact statements instead
//! of guesses about the kernel's socket buffers.
//!
//! A [`MemListener`] hands the server every stream dialed through its
//! [`MemAddr`]; the tests spawn a tier on it through the same
//! listener-generic tail as [`crate::Server::spawn`].

use std::collections::VecDeque;
use std::io::{Error, ErrorKind, Read, Write};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::transport::{Listen, Transport};

/// One direction of a connection: at most `cap` bytes in flight.
struct Pipe {
    state: Mutex<PipeState>,
    changed: Condvar,
}

struct PipeState {
    bytes: VecDeque<u8>,
    cap: usize,
    /// Either end shut the connection down or dropped its last handle.
    closed: bool,
    /// The reading end takes nothing while set.
    paused: bool,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
}

impl Pipe {
    fn new(cap: usize) -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                bytes: VecDeque::new(),
                cap,
                closed: false,
                paused: false,
                read_timeout: None,
                write_timeout: None,
            }),
            changed: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, PipeState> {
        self.state.lock().expect("pipe poisoned")
    }

    /// Wait until `ready` holds, at most `timeout` when one is set.
    fn wait_for(
        &self,
        timeout: impl Fn(&PipeState) -> Option<Duration>,
        ready: impl Fn(&PipeState) -> bool,
    ) -> std::io::Result<MutexGuard<'_, PipeState>> {
        let mut st = self.lock();
        while !ready(&st) {
            st = match timeout(&st) {
                None => self.changed.wait(st).expect("pipe poisoned"),
                Some(d) => {
                    let (st, waited) = self.changed.wait_timeout(st, d).expect("pipe poisoned");
                    if waited.timed_out() && !ready(&st) {
                        return Err(ErrorKind::TimedOut.into());
                    }
                    st
                }
            };
        }
        Ok(st)
    }

    fn read(&self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut st = self.wait_for(
            |st| st.read_timeout,
            |st| st.closed || (!st.paused && !st.bytes.is_empty()),
        )?;
        if st.paused {
            return Ok(0); // closed: a paused reader sees the end
        }
        let n = buf.len().min(st.bytes.len());
        for (dst, src) in buf.iter_mut().zip(st.bytes.drain(..n)) {
            *dst = src;
        }
        self.changed.notify_all();
        Ok(n)
    }

    /// Append as much of `buf` as fits. `block` waits for room first.
    fn write(&self, buf: &[u8], block: bool) -> std::io::Result<usize> {
        let room = |st: &PipeState| st.closed || st.bytes.len() < st.cap;
        let mut st = if block {
            self.wait_for(|st| st.write_timeout, room)?
        } else {
            self.lock()
        };
        if st.closed {
            return Err(ErrorKind::BrokenPipe.into());
        }
        let n = buf.len().min(st.cap - st.bytes.len());
        if n == 0 && !buf.is_empty() {
            return Err(ErrorKind::WouldBlock.into());
        }
        st.bytes.extend(&buf[..n]);
        self.changed.notify_all();
        Ok(n)
    }

    fn close(&self) {
        self.lock().closed = true;
        self.changed.notify_all();
    }
}

/// One end of a connection. Its handles share the end, as a socket's
/// file descriptors do: the connection closes when the last one drops.
struct End {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
}

impl Drop for End {
    fn drop(&mut self) {
        self.rx.close();
        self.tx.close();
    }
}

/// A handle to one end of an in-memory connection.
pub struct MemStream(Arc<End>);

impl MemStream {
    /// A connected pair: `up` bytes of buffer from the first end to the
    /// second, `down` bytes back.
    pub fn pair(up: usize, down: usize) -> (MemStream, MemStream) {
        let (a_to_b, b_to_a) = (Pipe::new(up), Pipe::new(down));
        let a = End {
            rx: Arc::clone(&b_to_a),
            tx: Arc::clone(&a_to_b),
        };
        let b = End {
            rx: a_to_b,
            tx: b_to_a,
        };
        (MemStream(Arc::new(a)), MemStream(Arc::new(b)))
    }

    /// Stop (or resume) this end's reads: what the peer writes piles up
    /// in the pipe until it is full.
    pub fn pause_reads(&self, paused: bool) {
        self.0.rx.lock().paused = paused;
        self.0.rx.changed.notify_all();
    }

    /// Block until the peer has read everything this end wrote.
    pub fn wait_sent(&self) {
        let sent = |st: &PipeState| st.closed || st.bytes.is_empty();
        drop(self.0.tx.wait_for(|_| None, sent).expect("no timeout"));
    }

    /// Block until the peer has written `cap` bytes this end has not
    /// read: its outgoing buffer is full.
    pub fn wait_inbound_full(&self) {
        let full = |st: &PipeState| st.closed || st.bytes.len() == st.cap;
        drop(self.0.rx.wait_for(|_| None, full).expect("no timeout"));
    }
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.rx.read(buf)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.tx.write(buf, true)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Where a [`MemListener`] is dialed: its queue of pending connections
/// and the buffer sizes each new connection gets.
#[derive(Clone)]
pub struct MemAddr {
    pending: Arc<Mutex<VecDeque<MemStream>>>,
    /// Bytes of buffer client → server and server → client.
    up: usize,
    down: usize,
}

impl std::fmt::Debug for MemAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mem(up {}, down {})", self.up, self.down)
    }
}

impl Transport for MemStream {
    type Addr = MemAddr;

    fn dial(addr: &MemAddr) -> std::io::Result<Self> {
        let (client, server) = MemStream::pair(addr.up, addr.down);
        addr.pending
            .lock()
            .expect("listener poisoned")
            .push_back(server);
        Ok(client)
    }

    fn try_clone(&self) -> std::io::Result<Self> {
        Ok(MemStream(Arc::clone(&self.0)))
    }

    fn shutdown_both(&self) {
        self.0.rx.close();
        self.0.tx.close();
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        self.0.rx.lock().read_timeout = d;
        Ok(())
    }

    fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        self.0.tx.lock().write_timeout = d;
        Ok(())
    }

    fn write_nowait(&self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.tx.write(buf, false)
    }
}

/// The server side: accepts what [`MemStream::dial`] queued.
pub struct MemListener(Arc<Mutex<VecDeque<MemStream>>>);

impl MemListener {
    /// A listener and the address that dials it, with `up` bytes of
    /// buffer client → server and `down` bytes back on every connection.
    pub fn bind(up: usize, down: usize) -> (MemListener, MemAddr) {
        let pending = Arc::new(Mutex::new(VecDeque::new()));
        let addr = MemAddr {
            pending: Arc::clone(&pending),
            up,
            down,
        };
        (MemListener(pending), addr)
    }
}

impl Listen for MemListener {
    type Stream = MemStream;

    fn set_nonblocking(&self, _nonblocking: bool) -> std::io::Result<()> {
        Ok(())
    }

    fn accept_stream(&self) -> std::io::Result<MemStream> {
        let next = self.0.lock().expect("listener poisoned").pop_front();
        next.ok_or_else(|| Error::from(ErrorKind::WouldBlock))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::io::BufReader;
    use std::net::SocketAddr;
    use std::sync::Arc;

    use rlsched_rl::PpoConfig;
    use rlsched_sim::MetricKind;
    use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, QueueSnapshot, SnapshotJob};

    use crate::protocol::{encode_binary_frame, read_frame_any, Request, Response};
    use crate::server::finish_spawn;
    use crate::{FaultPlan, ServeConfig, ServedBy, ServerAddr, ServerHandle};

    #[test]
    fn a_pipe_takes_its_capacity_and_no_more() {
        let (mut a, mut b) = MemStream::pair(4, 2);
        assert_eq!(a.write_nowait(b"abcdef").unwrap(), 4);
        let full = a.write_nowait(b"g").unwrap_err();
        assert_eq!(full.kind(), ErrorKind::WouldBlock);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"abcd");
        a.wait_sent();
        b.write_all(b"xy").unwrap();
        a.wait_inbound_full();
        b.set_write_timeout(Some(Duration::from_millis(5))).unwrap();
        let stuck = b.write(b"z").unwrap_err();
        assert_eq!(stuck.kind(), ErrorKind::TimedOut);
        drop(b);
        assert_eq!(
            a.read(&mut buf).unwrap(),
            2,
            "written bytes outlive the writer"
        );
        assert_eq!(a.read(&mut buf).unwrap(), 0, "then the end");
        assert_eq!(a.write(b"q").unwrap_err().kind(), ErrorKind::BrokenPipe);
    }

    #[test]
    fn a_paused_reader_takes_nothing_until_resumed() {
        let (mut a, b) = MemStream::pair(8, 8);
        let mut reader = b.try_clone().unwrap();
        b.pause_reads(true);
        a.write_all(b"hi").unwrap();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 2];
            reader.read_exact(&mut buf).map(|()| buf)
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished(), "a paused end reads nothing");
        b.pause_reads(false);
        assert_eq!(&t.join().unwrap().unwrap(), b"hi");
    }

    fn agent(seed: u64) -> Agent {
        Agent::new(AgentConfig {
            policy: PolicyKind::Kernel,
            obs: ObsConfig {
                max_obsv: 16,
                ..ObsConfig::default()
            },
            metric: MetricKind::BoundedSlowdown,
            ppo: PpoConfig::default(),
            seed,
        })
    }

    /// A tier serving `agent` on an in-memory listener, `up` bytes of
    /// buffer client → server and `down` back on every connection.
    fn spawn(agent: &Agent, cfg: ServeConfig, up: usize, down: usize) -> (ServerHandle, MemAddr) {
        let (listener, addr) = MemListener::bind(up, down);
        // The handle's own address is never dialed: clients dial `addr`.
        let label = ServerAddr::Tcp(SocketAddr::from(([0, 0, 0, 0], 0)));
        let (scorer, encoder) = (agent.scorer_snapshot(), *agent.encoder());
        let handle = finish_spawn(listener, label, scorer, encoder, cfg).expect("tier spawns");
        (handle, addr)
    }

    /// A valid decision point: `depth` waiting jobs on a 4-processor
    /// cluster with 2 free.
    fn snapshot(depth: usize) -> QueueSnapshot {
        QueueSnapshot {
            free_procs: 2,
            total_procs: 4,
            queue_len: depth as u32,
            jobs: (0..depth as u32)
                .map(|i| SnapshotJob {
                    wait: 30.0 + 45.0 * i as f64,
                    time_bound: 600.0 + 300.0 * i as f64,
                    procs: 1 + i % 3,
                    can_run_now: i % 3 < 2,
                })
                .collect(),
        }
    }

    /// Binary `Score` frames for ids `ids`, back to back.
    fn frames(ids: std::ops::Range<u64>) -> Vec<u8> {
        let (mut out, mut frame) = (Vec::new(), Vec::new());
        for id in ids {
            let snapshot = snapshot(1 + id as usize % 3);
            encode_binary_frame(&Request::Score { id, snapshot }, &mut frame);
            out.extend_from_slice(&frame);
        }
        out
    }

    /// The next reply on `reader`, which must be an action: its id and
    /// who served it.
    fn next_action(reader: &mut BufReader<MemStream>) -> (u64, ServedBy) {
        let (mut payload, mut line) = (Vec::new(), String::new());
        let (resp, _) = read_frame_any::<Response, _>(reader, &mut payload, &mut line)
            .expect("a reply")
            .expect("a reply before the end");
        match resp {
            Response::Action { id, served_by, .. } => (id, served_by),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    /// Bytes of the binary `Action` reply to one frame.
    fn action_len() -> usize {
        let mut frame = Vec::new();
        let resp = Response::Action {
            id: 0,
            action: 0,
            shard: 0,
            served_by: ServedBy::Model,
        };
        encode_binary_frame(&resp, &mut frame);
        frame.len()
    }

    fn counter(handle: &ServerHandle, name: &str) -> u64 {
        handle.registry().snapshot().counter_sum(name)
    }

    /// Open a connection whose lone frame is scored on its own
    /// connection thread, and return once that batch (the shard's first)
    /// sits in its scripted stall with the core held.
    fn hold_the_core(addr: &MemAddr, faults: &FaultPlan, id: u64) -> BufReader<MemStream> {
        let mut holder = MemStream::dial(addr).unwrap();
        holder.write_all(&frames(id..id + 1)).unwrap();
        while faults.fired() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        BufReader::new(holder)
    }

    /// A client may pipeline more than the connection buffers hold and
    /// read nothing until its write returns. With 4 KiB each way, a burst
    /// several times that size can only be written if the connection
    /// thread reads it to the end while no reply is read: no reply it
    /// makes may wait on the client. Another connection holds the shard in
    /// a stall, so the depth-4 inbox overflows and most of the burst is
    /// answered by fallback on the connection thread, through the writer.
    #[test]
    fn a_burst_larger_than_the_buffers_is_read_before_any_reply_is() {
        const N: u64 = 400;
        const BUF: usize = 4096;
        let faults = Arc::new(FaultPlan::new());
        faults.stall_at(0, 0, Duration::from_millis(300));
        let cfg = ServeConfig {
            shards: 1,
            batch_cap: 4,
            queue_depth: 4,
            faults: Some(Arc::clone(&faults)),
            ..ServeConfig::default()
        };
        let (handle, addr) = spawn(&agent(89), cfg, BUF, BUF);
        let mut holder = hold_the_core(&addr, &faults, N);

        let burst = frames(0..N);
        assert!(burst.len() > 4 * BUF, "the burst overflows the way in");
        assert!(
            N as usize * action_len() > 2 * BUF,
            "its replies overflow the way out"
        );
        let mut client = MemStream::dial(&addr).unwrap();
        client
            .set_write_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client
            .write_all(&burst)
            .expect("the server reads the whole burst before the client reads a reply");
        let mut reader = BufReader::new(client);
        let mut seen = vec![false; N as usize];
        let mut fallbacks = 0;
        for _ in 0..N {
            let (id, served_by) = next_action(&mut reader);
            assert!(
                !std::mem::replace(&mut seen[id as usize], true),
                "id {id} twice"
            );
            fallbacks += u64::from(served_by == ServedBy::Fallback);
        }
        assert_eq!(next_action(&mut holder), (N, ServedBy::Model));
        assert!(
            fallbacks > 0,
            "the depth-4 inbox behind the stall overflowed"
        );
        let stats = handle.shutdown();
        assert_eq!(
            (stats.served, stats.fallbacks),
            (N + 1 - fallbacks, fallbacks)
        );
    }

    /// The same for replies scored on the connection thread. Each frame
    /// is sent only once the server has read the one before, so each
    /// arrives alone on an idle shard and is scored inline; the client
    /// reads nothing, and its replies fill the 256-byte way back. Every
    /// frame is still read and scored, and every reply arrives once the
    /// client reads again.
    #[test]
    fn unread_inline_replies_never_stall_the_connection_thread() {
        const N: u64 = 200;
        const DOWN: usize = 256;
        let cfg = ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        };
        let (handle, addr) = spawn(&agent(97), cfg, 4096, DOWN);
        assert!(N as usize * action_len() > 4 * DOWN);
        let mut client = MemStream::dial(&addr).unwrap();
        client.pause_reads(true);
        for id in 0..N {
            client.write_all(&frames(id..id + 1)).unwrap();
            client.wait_sent();
        }
        let started = std::time::Instant::now();
        while counter(&handle, "rlsched_serve_served_total") < N {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "every frame is scored while the client reads nothing"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        client.wait_inbound_full();
        assert_eq!(
            counter(&handle, "rlsched_serve_inline_total"),
            N,
            "each frame arrived alone and was scored on its connection thread"
        );
        client.pause_reads(false);
        let mut reader = BufReader::new(client);
        let mut seen = vec![false; N as usize];
        for _ in 0..N {
            let (id, served_by) = next_action(&mut reader);
            assert_eq!(served_by, ServedBy::Model);
            assert!(
                !std::mem::replace(&mut seen[id as usize], true),
                "id {id} twice"
            );
        }
        assert_eq!(handle.shutdown().served, N);
    }

    /// Rows queued behind a batch that stalls on another connection's
    /// thread are scored by the model once the stall ends, in capped
    /// batches: nothing strands them in the inbox, and none is scored
    /// inline on the thread that read it.
    #[test]
    fn rows_queued_behind_a_stalled_inline_batch_are_scored_once_it_ends() {
        const N: u64 = 10;
        let faults = Arc::new(FaultPlan::new());
        faults.stall_at(0, 0, Duration::from_millis(200));
        let cfg = ServeConfig {
            shards: 1,
            batch_cap: 4,
            faults: Some(Arc::clone(&faults)),
            ..ServeConfig::default()
        };
        let (handle, addr) = spawn(&agent(113), cfg, 4096, 4096);
        let mut holder = hold_the_core(&addr, &faults, N);
        let client = MemStream::dial(&addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client
            .try_clone()
            .unwrap()
            .write_all(&frames(0..N))
            .unwrap();
        let depth = handle
            .registry()
            .gauge("rlsched_serve_inbox_depth", &[("shard", "0")]);
        // Every row is in the inbox while the holder still stalls.
        let started = std::time::Instant::now();
        while depth.get() < N as f64 {
            assert!(
                started.elapsed() < Duration::from_millis(150),
                "{}",
                depth.get()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut reader = BufReader::new(client);
        let mut seen = [false; N as usize];
        for _ in 0..N {
            let (id, served_by) = next_action(&mut reader);
            assert_eq!(served_by, ServedBy::Model, "id {id}");
            assert!(
                !std::mem::replace(&mut seen[id as usize], true),
                "id {id} twice"
            );
        }
        assert_eq!(next_action(&mut holder), (N, ServedBy::Model));
        assert_eq!(depth.get(), 0.0);
        assert_eq!(
            counter(&handle, "rlsched_serve_inline_total"),
            1,
            "the holder's frame"
        );
        let stats = handle.shutdown();
        assert_eq!(stats.served, N + 1);
        assert_eq!(stats.batches, 4, "1 + 4 + 4 + 2");
    }
}
