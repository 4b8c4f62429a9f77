//! Setup shared by the serve suites.

use std::io::{BufReader, Write};
use std::time::Duration;

use rlsched_serve::protocol::{
    encode_binary_frame, read_frame, Request, Response, BINARY_MAGIC, BINARY_VERSION,
};
use rlsched_serve::{AnyStream, FaultPlan, ServerHandle, Transport, WireFrame};
use rlscheduler::QueueSnapshot;

/// Write one frame whose payload is `body`: the header, then the bytes.
pub fn send_body(w: &mut impl Write, body: &[u8]) {
    w.write_all(&[BINARY_MAGIC, BINARY_VERSION]).unwrap();
    w.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
    w.write_all(body).unwrap();
}

/// Write `frame` as a JSON-bodied frame, as a hand-written client would:
/// the header, then its `serde_json` text.
pub fn send_json<T: serde::Serialize>(w: &mut impl Write, frame: &T) {
    send_body(w, serde_json::to_string(frame).unwrap().as_bytes());
}

/// Read the next frame.
pub fn recv<T: WireFrame>(r: &mut impl std::io::BufRead) -> T {
    read_frame(r, &mut Vec::new()).unwrap().expect("a frame")
}

/// Hold a one-shard tier's core in a scripted stall, so that frames from
/// other connections queue behind it. A new connection sends `Score`
/// frame `id` with a `Stats` frame behind it in one write: the `Stats`
/// cuts the run, so the row is queued, and the connection's own thread
/// then drains it as the shard's first batch. Returns that connection
/// once the batch sits in the stall that `faults` scripts for it (no
/// other fault may fire first). Read its answer with [`held_answer`].
pub fn hold_the_core(
    handle: &ServerHandle,
    faults: &FaultPlan,
    id: u64,
    snapshot: QueueSnapshot,
) -> BufReader<AnyStream> {
    let stream = AnyStream::dial(handle.server_addr()).expect("holder connects");
    let (mut wire, mut frame) = (Vec::new(), Vec::new());
    encode_binary_frame(&Request::Score { id, snapshot }, &mut wire);
    encode_binary_frame(&Request::Stats { id: u64::MAX }, &mut frame);
    wire.extend_from_slice(&frame);
    stream.try_clone().unwrap().write_all(&wire).unwrap();
    while faults.fired() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    BufReader::new(stream)
}

/// The held connection's answer to its `Score` frame, once the stall
/// is over (its `Stats` reply is passed over).
pub fn held_answer(holder: &mut BufReader<AnyStream>) -> Response {
    let mut payload = Vec::new();
    loop {
        let resp = read_frame::<Response, _>(holder, &mut payload)
            .expect("the holder is answered")
            .expect("a reply before the end");
        if !matches!(resp, Response::Stats { .. }) {
            return resp;
        }
    }
}
