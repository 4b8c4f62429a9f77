//! Setup shared by the serve suites.

use std::io::{BufReader, Write};
use std::time::Duration;

use rlsched_serve::protocol::{encode_binary_frame, read_frame_any, Request, Response};
use rlsched_serve::{AnyStream, FaultPlan, ServerHandle, Transport};
use rlscheduler::QueueSnapshot;

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
    let (mut payload, mut line) = (Vec::new(), String::new());
    loop {
        let (resp, _) = read_frame_any::<Response, _>(holder, &mut payload, &mut line)
            .expect("the holder is answered")
            .expect("a reply before the end");
        if !matches!(resp, Response::Stats { .. }) {
            return resp;
        }
    }
}
