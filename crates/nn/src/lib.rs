//! Minimal deep-learning substrate for the RLScheduler reproduction.
//!
//! The paper implements its networks in TensorFlow; no equivalent is
//! available offline in Rust, and the models are tiny (the kernel policy
//! network stays under 1 000 parameters, §IV-B1), so this crate provides a
//! self-contained substrate with one forward per purpose and one
//! backward:
//!
//! * [`Tensor`] — dense row-major `f32` tensors; parameter storage and the
//!   unit of a checkpoint.
//! * [`layers`] — `Dense`, `Mlp`, `Conv2dLayer` and their activations.
//! * [`infer`] — allocation-free forwards over caller-owned scratch: what
//!   every scheduling decision, rollout step and serving shard runs. A
//!   policy decides through one forward, [`infer::log_probs`], over the
//!   [`fused::FusedPolicy`] that training updates.
//! * [`fused`] — the PPO update's forward and analytic backward in one
//!   chunked, allocation-free pass, for every Table IV policy (kernel,
//!   flat MLPs, the LeNet CNN) and the critic: the only gradient code in
//!   the system.
//! * [`simd`] — runtime-dispatched AVX2/FMA dense microkernels shared by
//!   all of the above.
//! * [`optim`] — Adam and global-norm clipping (SIMD-dispatched fused
//!   m/v/param step).
//! * [`pool`] — the scoped worker pool the update sweep and the rollout
//!   fan-out run on, with results independent of the worker count.
//!
//! Gradient correctness is enforced twice, outside this crate: the
//! test-only reference tape (`rlsched-nn-ref`, a reverse-mode autodiff
//! over the same kernels) must match [`fused`] bit for bit, and
//! finite-difference checks hold both to the calculus
//! (`tests/gradcheck_prop.rs`).

pub mod fused;
pub mod infer;
pub mod layers;
pub mod optim;
pub mod pool;
pub mod simd;
pub mod tensor;

pub use infer::Scratch;
pub use layers::{Activation, Conv2dLayer, Dense, Mlp, Network};
pub use optim::{clip_global_norm, Adam};
pub use tensor::Tensor;

/// Additive logit offset of an invalid action slot: an additive mask row
/// is 0.0 on the valid slots and this on the rest. Large enough that
/// `exp(x + MASK_OFF)` underflows to 0.0 in f32 for any realistic logit,
/// and finite, so masked arithmetic never makes a NaN. The fused passes
/// rebuild a window's mask from its valid-slot count with it.
pub const MASK_OFF: f32 = -1.0e9;

// Serving tiers share weight snapshots across shard threads (an `Arc`
// of the policy's `Mlp`s) and keep one `Scratch` per worker.
// Everything here is plain owned `Vec<f32>` data — no interior
// mutability, no thread affinity — and these compile-time bounds keep it
// that way: adding an `Rc`/`Cell` field anywhere below now fails to
// build instead of failing at a server's spawn site.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Tensor>();
    assert_send_sync::<Dense>();
    assert_send_sync::<Conv2dLayer>();
    assert_send_sync::<Mlp>();
    assert_send_sync::<Scratch>();
};

/// The [`pool`] contract: partitioning, ordering, panics, nesting and the
/// budget override.
#[cfg(test)]
mod tests {
    use crate::pool::{current_num_threads, fan_out, for_each_chunk_mut, with_threads};

    #[test]
    fn chunks_mut_enumerated() {
        let mut xs = vec![0u32; 103];
        for_each_chunk_mut(&mut xs, 10, |i, c| c.fill(i as u32));
        for (i, &v) in xs.iter().enumerate() {
            assert_eq!(v, (i / 10) as u32);
        }
    }

    #[test]
    fn single_and_empty_inputs() {
        // No items is one empty range, so a caller's fold still runs once.
        assert_eq!(fan_out(0, |r| r), vec![0..0]);
        assert_eq!(fan_out(1, |r| r), vec![0..1]);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outside = current_num_threads();
        with_threads(3, || {
            assert_eq!(current_num_threads(), 3);
            with_threads(1, || assert_eq!(current_num_threads(), 1));
            assert_eq!(current_num_threads(), 3);
        });
        assert_eq!(current_num_threads(), outside);
        // Zero clamps to one rather than panicking.
        with_threads(0, || assert_eq!(current_num_threads(), 1));
    }

    #[test]
    fn with_threads_restores_on_unwind() {
        let outside = current_num_threads();
        let err = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(err.is_err());
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn task_partition_is_worker_count_independent() {
        for n in [0usize, 1, 5, 31, 32, 33, 100, 1000] {
            let base = with_threads(1, || fan_out(n, |r| r));
            assert_eq!(base.len(), n.clamp(1, 32), "n={n}");
            let covered: Vec<usize> = base.iter().cloned().flatten().collect();
            assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n}");
            for k in [2usize, 3, 7, 64] {
                let got = with_threads(k, || fan_out(n, |r| r));
                assert_eq!(got, base, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn panic_payload_survives_fan_out() {
        for k in [1usize, 4] {
            let err = std::panic::catch_unwind(|| {
                with_threads(k, || {
                    fan_out(100, |r| {
                        if r.contains(&50) {
                            panic!("original payload {}", r.start);
                        }
                        r.len()
                    })
                })
            })
            .expect_err("fan_out must propagate the panic");
            let msg = err
                .downcast_ref::<String>()
                .expect("payload is the formatted String, not a synthetic &str");
            assert!(msg.starts_with("original payload"), "got {msg:?}");
        }
    }

    #[test]
    fn panic_payload_survives_chunked_for_each() {
        let err = std::panic::catch_unwind(|| {
            with_threads(4, || {
                for_each_chunk_mut(&mut [0u32; 64], 8, |i, _| {
                    if i == 3 {
                        panic!("chunk {i} failed");
                    }
                });
            })
        })
        .expect_err("for_each_chunk_mut must propagate the panic");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("chunk 3 failed")
        );
    }

    #[test]
    fn ragged_and_empty_chunk_edges() {
        for k in [1usize, 2, 7] {
            with_threads(k, || {
                // Empty slice: no chunks, no calls.
                for_each_chunk_mut(&mut [0u32; 0], 4, |_, _| panic!("no chunks expected"));
                // Chunk larger than the slice: one ragged chunk.
                for_each_chunk_mut(&mut [1u32; 3], 10, |i, c| assert_eq!((i, c.len()), (0, 3)));
                // Ragged tail chunk keeps its index and short length.
                let mut ys = [0u32; 23];
                for_each_chunk_mut(&mut ys, 5, |i, c| {
                    assert_eq!(c.len(), if i == 4 { 3 } else { 5 });
                    c.fill(i as u32);
                });
                assert_eq!(ys[20..], [4, 4, 4]);
            });
        }
    }

    #[test]
    fn nested_fan_out_runs_inline_in_workers() {
        with_threads(4, || {
            let ids = fan_out(8, |_| {
                assert_eq!(current_num_threads(), 1, "a worker's budget is 1");
                let outer = std::thread::current().id();
                // The inner fan-out must not spawn: every inner range
                // runs on the worker's own thread.
                fan_out(16, move |_| assert_eq!(std::thread::current().id(), outer));
                outer
            });
            assert_eq!(ids.len(), 8);
        });
    }
}
