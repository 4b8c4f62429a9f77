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
//!   every scheduling decision, rollout step and serving shard runs.
//! * [`fused`] — the PPO update's forward and analytic backward in one
//!   chunked, allocation-free pass, for every Table IV policy (kernel,
//!   flat MLPs, the LeNet CNN) and the critic: the only gradient code in
//!   the system.
//! * [`simd`] — runtime-dispatched AVX2/FMA dense microkernels shared by
//!   all of the above.
//! * [`optim`] — Adam and global-norm clipping (SIMD-dispatched fused
//!   m/v/param step).
//! * [`serialize`] — JSON checkpoints for the Table VII transfer study.
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
pub mod serialize;
pub mod simd;
pub mod tensor;

pub use infer::{PackedMlp, Scratch};
pub use layers::{Act, Activation, Conv2dLayer, Dense, Mlp, Network};
pub use optim::{clip_global_norm, Adam};
pub use tensor::Tensor;

// Serving tiers replicate weight snapshots across shard threads
// (`Arc<PackedMlp>` / cloned `Mlp`s) and keep one `Scratch` per worker.
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
    assert_send_sync::<PackedMlp>();
    assert_send_sync::<Scratch>();
};
