//! The reference the fused PPO update is checked against: a small
//! reverse-mode autodiff tape, for tests only.
//!
//! `rlsched_nn::fused` hand-writes the PPO update's backward for every
//! Table IV policy; this crate derives the same gradients generically, op
//! by op, so the two can be compared bit for bit. The tape is an op enum,
//! nodes pushed in forward order (which is already a topological order),
//! and one reverse sweep — in the shape of a textbook tape, with only the
//! ops the parity suites and gradient checks use. Every op runs the same
//! `rlsched_nn::simd` kernels and `infer` loops as the fused pass, so the
//! exact-equality oracles stay exact on both kernel dispatch arms.
//!
//! No production crate depends on this one: it is `publish = false` and
//! appears only under `[dev-dependencies]`.

pub mod graph;
pub mod tensor;

pub use graph::{forward, policy_loss, value_loss, Graph, PolicyLoss, Var};
pub use tensor::{
    matmul, matmul_into, matmul_nt, matmul_nt_into, matmul_tn, matmul_tn_into, transposed,
};

/// The tensor crate the tape runs on. `rlsched_nn`'s own unit tests see
/// it as a second copy of themselves and build the tape's networks from
/// its types.
pub use rlsched_nn as nn;
