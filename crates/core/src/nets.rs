//! The RLScheduler networks.
//!
//! * [`KernelPolicy`] — the paper's contribution (Fig 5): a small shared
//!   MLP applied to every job vector independently ("like a window"),
//!   producing one score per job, followed by a masked softmax. Because
//!   the same weights score every slot, the network is *order-equivariant*
//!   by construction: permuting job rows permutes the output distribution
//!   identically (§III-1).
//! * [`FlatMlpPolicy`] — the MLP v1/v2/v3 baselines of Table IV: a plain
//!   MLP over the flattened observation, order-sensitive.
//! * [`LeNetPolicy`] — the CNN baseline of Table IV ("2x(conv2d,
//!   maxpooling2d), dense"). Its pooling and dense layers mix job
//!   positions, which is exactly why the paper finds it converges worse.
//! * [`ValueNet`] — the critic (Fig 6): an MLP over the flattened
//!   observation.
//!
//! Each policy is its [`FusedPolicy`] description: the dense chain plus a
//! `Kernel`, `Flat` or `Conv` head. Training runs it through
//! `rlsched_nn::fused` and every decision through
//! [`rlsched_nn::infer::log_probs`], so no architecture's forward is
//! written here.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use rlsched_nn::fused::{FusedHead, FusedPolicy, FusedPolicyMut};
use rlsched_nn::infer;
use rlsched_nn::{Activation, Conv2dLayer, Dense, Mlp, Scratch};
use rlsched_rl::{PolicyModel, ValueModel};

use crate::obs::JOB_FEATURES;

/// The policy-network architectures of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// The kernel-based network (the paper's design; hidden 32/16/8).
    Kernel,
    /// MLP with hidden layers 128/128/128.
    MlpV1,
    /// MLP with hidden layers 32/16/8.
    MlpV2,
    /// MLP with five hidden layers of 32.
    MlpV3,
    /// LeNet-style CNN.
    LeNet,
}

impl PolicyKind {
    /// All Table IV variants, kernel first.
    pub fn all() -> [PolicyKind; 5] {
        [
            PolicyKind::Kernel,
            PolicyKind::MlpV1,
            PolicyKind::MlpV2,
            PolicyKind::MlpV3,
            PolicyKind::LeNet,
        ]
    }

    /// Display name as in Table IV.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Kernel => "RLScheduler",
            PolicyKind::MlpV1 => "MLP v1",
            PolicyKind::MlpV2 => "MLP v2",
            PolicyKind::MlpV3 => "MLP v3",
            PolicyKind::LeNet => "LeNet",
        }
    }
}

/// The kernel-based policy network (Fig 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelPolicy {
    kernel: Mlp,
    max_obsv: usize,
}

impl KernelPolicy {
    /// Build with the paper's 32/16/8 kernel dimensions.
    pub fn new(max_obsv: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let kernel = Mlp::new(
            &[JOB_FEATURES, 32, 16, 8, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        KernelPolicy { kernel, max_obsv }
    }

    /// Observation window size.
    pub fn max_obsv(&self) -> usize {
        self.max_obsv
    }
}

impl PolicyModel for KernelPolicy {
    // Slide the kernel over the job axis: `[n, K·F]` observations score
    // as job rows through the shared MLP, read back as `[n, K]` logits.
    // Decisions and training both score only each window's job rows plus
    // one zero row for the padding (`rlsched_nn::fused`'s module docs).
    fn fused(&self) -> FusedPolicy<'_> {
        FusedPolicy {
            mlp: &self.kernel,
            head: FusedHead::Kernel {
                window: self.max_obsv,
            },
        }
    }

    fn fused_mut(&mut self) -> FusedPolicyMut<'_> {
        FusedPolicyMut {
            convs: &mut [],
            mlp: &mut self.kernel,
        }
    }
}

/// A flattened-observation MLP policy (MLP v1–v3 of Table IV).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlatMlpPolicy {
    net: Mlp,
}

impl FlatMlpPolicy {
    /// Build with explicit hidden sizes.
    pub fn new(max_obsv: usize, hidden: &[usize], seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dims = vec![max_obsv * JOB_FEATURES];
        dims.extend_from_slice(hidden);
        dims.push(max_obsv);
        FlatMlpPolicy {
            net: Mlp::new(&dims, Activation::Relu, Activation::Identity, &mut rng),
        }
    }
}

impl PolicyModel for FlatMlpPolicy {
    fn fused(&self) -> FusedPolicy<'_> {
        FusedPolicy {
            mlp: &self.net,
            head: FusedHead::Flat,
        }
    }

    fn fused_mut(&mut self) -> FusedPolicyMut<'_> {
        FusedPolicyMut {
            convs: &mut [],
            mlp: &mut self.net,
        }
    }
}

/// The LeNet-style CNN policy of Table IV.
///
/// The flat observation reshapes to a near-square single-channel image
/// `[batch, 1, max_obsv/4, JOB_FEATURES*4]`, then LeNet's classic stack:
/// two (conv 5×5 → ReLU → max-pool 2) stages, a dense ReLU hidden layer,
/// and a dense head over the `max_obsv` action slots.
#[derive(Debug, Clone)]
pub struct LeNetPolicy {
    /// The two conv stages.
    convs: [Conv2dLayer; 2],
    /// The dense hidden layer and head (`fc1`, `fc2`).
    fc: Mlp,
    max_obsv: usize,
    h: usize,
    w: usize,
}

/// A LeNet checkpoint's JSON layout: one object with `conv1, conv2, fc1,
/// fc2, max_obsv, h, w`.
#[derive(Serialize, Deserialize)]
struct LeNetJson {
    conv1: Conv2dLayer,
    conv2: Conv2dLayer,
    fc1: Dense,
    fc2: Dense,
    max_obsv: usize,
    h: usize,
    w: usize,
}

impl Serialize for LeNetPolicy {
    fn to_value(&self) -> serde::Value {
        let [conv1, conv2] = self.convs.clone();
        let [fc1, fc2]: [Dense; 2] = self.fc.layers.clone().try_into().expect("fc1 and fc2");
        let (max_obsv, h, w) = (self.max_obsv, self.h, self.w);
        LeNetJson {
            conv1,
            conv2,
            fc1,
            fc2,
            max_obsv,
            h,
            w,
        }
        .to_value()
    }
}

impl Deserialize for LeNetPolicy {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let j = LeNetJson::from_value(v)?;
        Ok(LeNetPolicy {
            convs: [j.conv1, j.conv2],
            fc: Mlp {
                layers: vec![j.fc1, j.fc2],
                hidden: Activation::Relu,
                output: Activation::Identity,
            },
            max_obsv: j.max_obsv,
            h: j.h,
            w: j.w,
        })
    }
}

impl LeNetPolicy {
    /// Build the CNN; `max_obsv` must be a multiple of 4 and at least 64
    /// so both conv/pool stages fit.
    pub fn new(max_obsv: usize, seed: u64) -> Self {
        assert!(
            max_obsv.is_multiple_of(4) && max_obsv >= 64,
            "LeNet needs max_obsv % 4 == 0 and >= 64"
        );
        let (h, w) = (max_obsv / 4, JOB_FEATURES * 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let conv1 = Conv2dLayer::new(1, 6, 5, 5, 1, &mut rng);
        let conv2 = Conv2dLayer::new(6, 16, 5, 5, 1, &mut rng);
        let (h1, w1) = ((h - 4) / 2, (w - 4) / 2); // conv1 + pool
        let (h2, w2) = ((h1 - 4) / 2, (w1 - 4) / 2); // conv2 + pool
        let flat = 16 * h2 * w2;
        let fc = Mlp::new(
            &[flat, 120, max_obsv],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        LeNetPolicy {
            convs: [conv1, conv2],
            fc,
            max_obsv,
            h,
            w,
        }
    }
}

impl PolicyModel for LeNetPolicy {
    fn fused(&self) -> FusedPolicy<'_> {
        FusedPolicy {
            mlp: &self.fc,
            head: FusedHead::Conv {
                convs: &self.convs,
                h: self.h,
                w: self.w,
            },
        }
    }

    fn fused_mut(&mut self) -> FusedPolicyMut<'_> {
        FusedPolicyMut {
            convs: &mut self.convs,
            mlp: &mut self.fc,
        }
    }
}

/// One policy of any Table IV architecture (enum dispatch keeps the PPO
/// agent monomorphic and serde-friendly).
#[allow(clippy::large_enum_variant)] // one instance per agent; boxing buys nothing
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PolicyNet {
    /// Kernel-based (the paper's design).
    Kernel(KernelPolicy),
    /// Flat MLP (v1/v2/v3).
    Mlp(FlatMlpPolicy),
    /// LeNet CNN.
    LeNet(LeNetPolicy),
}

impl PolicyNet {
    /// Instantiate a Table IV architecture.
    pub fn build(kind: PolicyKind, max_obsv: usize, seed: u64) -> Self {
        match kind {
            PolicyKind::Kernel => PolicyNet::Kernel(KernelPolicy::new(max_obsv, seed)),
            PolicyKind::MlpV1 => {
                PolicyNet::Mlp(FlatMlpPolicy::new(max_obsv, &[128, 128, 128], seed))
            }
            PolicyKind::MlpV2 => PolicyNet::Mlp(FlatMlpPolicy::new(max_obsv, &[32, 16, 8], seed)),
            PolicyKind::MlpV3 => {
                PolicyNet::Mlp(FlatMlpPolicy::new(max_obsv, &[32, 32, 32, 32, 32], seed))
            }
            PolicyKind::LeNet => PolicyNet::LeNet(LeNetPolicy::new(max_obsv, seed)),
        }
    }
}

impl PolicyModel for PolicyNet {
    // Every architecture trains through the same fused update: the
    // kernel and flat-MLP nets as dense chains under their logits heads,
    // the CNN as its conv stages ahead of its dense layers.
    fn fused(&self) -> FusedPolicy<'_> {
        match self {
            PolicyNet::Kernel(p) => p.fused(),
            PolicyNet::Mlp(p) => p.fused(),
            PolicyNet::LeNet(p) => p.fused(),
        }
    }

    fn fused_mut(&mut self) -> FusedPolicyMut<'_> {
        match self {
            PolicyNet::Kernel(p) => p.fused_mut(),
            PolicyNet::Mlp(p) => p.fused_mut(),
            PolicyNet::LeNet(p) => p.fused_mut(),
        }
    }
}

/// A frozen, shareable scoring replica for serving tiers: the policy
/// network behind an [`Arc`], so a sharded server replicates it per worker
/// thread at pointer cost. It scores through the network's own
/// [`PolicyModel::log_probs_fast_batch`] (through `rlsched_rl::greedy_batch`),
/// whose rows are the forward [`crate::Agent::as_policy`] runs, so a
/// served decision is **bit-identical** to the in-process one, batch by
/// batch, row by row (the forward kernels are row-count invariant).
///
/// A snapshot does not track later weight updates: take it from a frozen
/// agent and re-take after training (a serving tier hot-swaps the new
/// snapshot in).
#[derive(Debug, Clone)]
pub struct ScorerSnapshot {
    net: Arc<PolicyNet>,
    obs_dim: usize,
    n_actions: usize,
}

impl ScorerSnapshot {
    /// Snapshot a policy network. `obs_dim` is the flattened observation
    /// width the net was built for (`max_obsv × JOB_FEATURES`).
    pub fn new(net: &PolicyNet, obs_dim: usize, n_actions: usize) -> Self {
        ScorerSnapshot {
            net: Arc::new(net.clone()),
            obs_dim,
            n_actions,
        }
    }

    /// The network the snapshot scores through.
    pub fn net(&self) -> &PolicyNet {
        &self.net
    }

    /// Flattened observation width a request row must have.
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// Action-slot count (= mask width of a request row).
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// True when every weight in the snapshot is a finite float. The
    /// first gate of a serving tier's checkpoint validation: a NaN/Inf
    /// anywhere in the parameters poisons every logit it touches, so a
    /// non-finite snapshot must be rejected before it can go live.
    pub fn all_finite(&self) -> bool {
        self.net
            .params()
            .iter()
            .all(|t| t.data().iter().all(|v| v.is_finite()))
    }
}

// A serving shard owns a snapshot per worker thread; the compiler must
// never stop guaranteeing those replicas can cross and be shared across
// threads. (The representation is plain `Vec<f32>` weights end to end —
// no interior mutability — which these bounds pin at compile time.)
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<ScorerSnapshot>();
    assert_send_sync::<PolicyNet>();
    assert_send_sync::<ValueNet>();
};

/// The critic (Fig 6): a 3-hidden-layer MLP over the flat observation.
///
/// At a 128-job window its first layer (896 × 32) is 28 672 of the
/// ~29 k multiply-adds per row, and most windows are mostly padding, so
/// every forward — each rollout step's and the fused update's — reads a
/// window only up to its last job ([`infer::window_mlp_forward`]; see
/// `rlsched_nn::fused`'s module docs for why the bits are those of the
/// whole window).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValueNet {
    net: Mlp,
}

impl ValueNet {
    /// Build for a given observation window.
    pub fn new(max_obsv: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        ValueNet {
            net: Mlp::new(
                &[max_obsv * JOB_FEATURES, 32, 16, 8, 1],
                Activation::Relu,
                Activation::Identity,
                &mut rng,
            ),
        }
    }
}

impl ValueModel for ValueNet {
    fn value_fast(&self, obs: &[f32], scratch: &mut Scratch) -> f64 {
        // Borrow the third scratch buffer as the output row (the MLP's
        // internal ping-pong uses the first two).
        let mut out = std::mem::take(infer::scratch_extra(scratch));
        infer::window_mlp_forward(&self.net, obs, 1, JOB_FEATURES, scratch, &mut out);
        let v = out[0] as f64;
        *infer::scratch_extra(scratch) = out;
        v
    }

    fn value_fast_batch(
        &self,
        obs: &[f32],
        rows: usize,
        scratch: &mut Scratch,
        out: &mut Vec<f64>,
    ) {
        // One stacked forward for every live environment's state value —
        // the critic half of the lockstep rollout tick. Each row's bits
        // are those of `value_fast` on row `i` alone, whatever the rows
        // around it.
        let mut tmp = std::mem::take(infer::scratch_extra(scratch));
        infer::window_mlp_forward(&self.net, obs, rows, JOB_FEATURES, scratch, &mut tmp);
        out.clear();
        out.extend(tmp.iter().map(|&v| v as f64));
        *infer::scratch_extra(scratch) = tmp;
    }

    fn fused(&self) -> &Mlp {
        &self.net
    }

    fn fused_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlsched_rl::categorical::MASK_OFF;

    fn forward(policy: &impl PolicyModel, obs: &[f32], mask: &[f32], k: usize) -> Vec<f32> {
        assert_eq!(mask.len(), k);
        let mut out = Vec::new();
        policy.log_probs_fast(obs, mask, &mut Scratch::new(), &mut out);
        out
    }

    fn random_obs(k: usize, valid: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut obs = vec![0.0f32; k * JOB_FEATURES];
        let mut mask = vec![MASK_OFF; k];
        for s in 0..valid {
            for f in 0..JOB_FEATURES {
                obs[s * JOB_FEATURES + f] = rng.gen_range(0.0..1.0);
            }
            obs[s * JOB_FEATURES + JOB_FEATURES - 1] = 1.0;
            mask[s] = 0.0;
        }
        (obs, mask)
    }

    #[test]
    fn kernel_param_count_under_1000() {
        // §IV-B1: "we are able to control the parameter size of the policy
        // network less than 1,000".
        let p = KernelPolicy::new(128, 0);
        assert!(
            p.param_count() < 1000,
            "kernel params = {}",
            p.param_count()
        );
    }

    #[test]
    fn kernel_is_order_equivariant() {
        // Swapping two job rows must swap their probabilities exactly and
        // leave everyone else's unchanged — the Fig 2 requirement.
        let k = 16;
        let p = KernelPolicy::new(k, 3);
        let (mut obs, mask) = random_obs(k, 8, 42);
        let before = forward(&p, &obs, &mask, k);
        // swap job rows 2 and 5
        for f in 0..JOB_FEATURES {
            obs.swap(2 * JOB_FEATURES + f, 5 * JOB_FEATURES + f);
        }
        let after = forward(&p, &obs, &mask, k);
        assert!((before[2] - after[5]).abs() < 1e-5);
        assert!((before[5] - after[2]).abs() < 1e-5);
        for s in 0..8 {
            if s != 2 && s != 5 {
                assert!((before[s] - after[s]).abs() < 1e-5, "slot {s} changed");
            }
        }
    }

    #[test]
    fn flat_mlp_is_order_sensitive() {
        // The counterpoint: MLP baselines change other slots' scores when
        // rows swap (that is the paper's argument for the kernel design).
        let k = 16;
        let p = FlatMlpPolicy::new(k, &[32, 16, 8], 3);
        let (mut obs, mask) = random_obs(k, 8, 42);
        let before = forward(&p, &obs, &mask, k);
        for f in 0..JOB_FEATURES {
            obs.swap(2 * JOB_FEATURES + f, 5 * JOB_FEATURES + f);
        }
        let after = forward(&p, &obs, &mask, k);
        let moved: f32 = (0..8)
            .filter(|&s| s != 2 && s != 5)
            .map(|s| (before[s] - after[s]).abs())
            .sum();
        assert!(
            moved > 1e-4,
            "flat MLP unexpectedly equivariant (moved {moved})"
        );
    }

    #[test]
    fn all_variants_emit_normalized_masked_distributions() {
        let k = 64;
        for kind in PolicyKind::all() {
            let p = PolicyNet::build(kind, k, 7);
            let (obs, mask) = random_obs(k, 10, 9);
            let lp = forward(&p, &obs, &mask, k);
            let sum: f32 = lp.iter().map(|l| l.exp()).sum();
            assert!((sum - 1.0).abs() < 1e-4, "{}: sum {sum}", kind.name());
            for (s, &l) in lp.iter().enumerate().skip(10) {
                assert!(l < -1e8, "{}: padding slot {s} not masked", kind.name());
            }
        }
    }

    #[test]
    fn table4_sizes_are_ordered_as_expected() {
        let k = 128;
        let kernel = PolicyNet::build(PolicyKind::Kernel, k, 0).param_count();
        let v1 = PolicyNet::build(PolicyKind::MlpV1, k, 0).param_count();
        let v2 = PolicyNet::build(PolicyKind::MlpV2, k, 0).param_count();
        assert!(kernel < v2, "kernel {kernel} smaller than MLP v2 {v2}");
        assert!(v2 < v1, "MLP v2 {v2} smaller than MLP v1 {v1}");
    }

    #[test]
    fn table4_layer_shapes_and_param_counts_are_the_papers() {
        // Table IV, written out: MLP v1 has hidden layers 128/128/128, v2
        // 32/16/8, v3 five of 32, LeNet is 2 x (conv2d 5x5, max-pool 2) and
        // a dense layer, RLScheduler's kernel is 32/16/8 over one job. At
        // the paper's window of 128 jobs, with this encoder's 7 features
        // per job, a flat network reads 128·7 = 896 inputs and scores 128
        // slots; the kernel reads 7 and scores 1. Weights are `[in, out]`
        // (conv: `[out_c, in_c, kh, kw]`), each followed by its bias.
        let table: [(PolicyKind, &[&[usize]], usize); 5] = [
            (
                PolicyKind::Kernel,
                &[
                    &[7, 32],
                    &[32],
                    &[32, 16],
                    &[16],
                    &[16, 8],
                    &[8],
                    &[8, 1],
                    &[1],
                ],
                // 256 + 528 + 136 + 9
                929,
            ),
            (
                PolicyKind::MlpV1,
                &[
                    &[896, 128],
                    &[128],
                    &[128, 128],
                    &[128],
                    &[128, 128],
                    &[128],
                    &[128, 128],
                    &[128],
                ],
                // 114 816 + 3 · 16 512
                164_352,
            ),
            (
                PolicyKind::MlpV2,
                &[
                    &[896, 32],
                    &[32],
                    &[32, 16],
                    &[16],
                    &[16, 8],
                    &[8],
                    &[8, 128],
                    &[128],
                ],
                // 28 704 + 528 + 136 + 1 152
                30_520,
            ),
            (
                PolicyKind::MlpV3,
                &[
                    &[896, 32],
                    &[32],
                    &[32, 32],
                    &[32],
                    &[32, 32],
                    &[32],
                    &[32, 32],
                    &[32],
                    &[32, 32],
                    &[32],
                    &[32, 128],
                    &[128],
                ],
                // 28 704 + 4 · 1 056 + 4 224
                37_152,
            ),
            (
                // The window as a 32 x 28 image: 5x5 conv and 2x2 pool
                // twice leave 16 maps of 5 x 4, 320 values, for the dense
                // layers.
                PolicyKind::LeNet,
                &[
                    &[6, 1, 5, 5],
                    &[6],
                    &[16, 6, 5, 5],
                    &[16],
                    &[320, 120],
                    &[120],
                    &[120, 128],
                    &[128],
                ],
                // 156 + 2 416 + 38 520 + 15 488
                56_580,
            ),
        ];
        for (kind, shapes, count) in table {
            let net = PolicyNet::build(kind, 128, 0);
            let got: Vec<&[usize]> = net.params().iter().map(|t| t.shape()).collect();
            assert_eq!(got, shapes, "{} layer shapes", kind.name());
            assert_eq!(net.param_count(), count, "{} parameters", kind.name());
        }
    }

    #[test]
    fn value_net_emits_one_scalar_per_row() {
        let k = 32;
        let v = ValueNet::new(k, 1);
        let mut out = Vec::new();
        v.value_fast_batch(
            &[0.0; 5 * 32 * JOB_FEATURES],
            5,
            &mut Scratch::new(),
            &mut out,
        );
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn policy_nets_serialize_round_trip() {
        let p = PolicyNet::build(PolicyKind::Kernel, 32, 5);
        let json = serde_json::to_string(&p).unwrap();
        let q: PolicyNet = serde_json::from_str(&json).unwrap();
        let (obs, mask) = random_obs(32, 6, 11);
        assert_eq!(forward(&p, &obs, &mask, 32), forward(&q, &obs, &mask, 32));
    }

    #[test]
    #[should_panic(expected = "max_obsv % 4")]
    fn lenet_rejects_tiny_windows() {
        let _ = LeNetPolicy::new(20, 0);
    }

    #[test]
    fn batch_forward_matches_single_rows() {
        let k = 16;
        let p = KernelPolicy::new(k, 13);
        let (obs1, mask1) = random_obs(k, 5, 1);
        let (obs2, mask2) = random_obs(k, 9, 2);
        let single1 = forward(&p, &obs1, &mask1, k);
        let single2 = forward(&p, &obs2, &mask2, k);
        // Batch the two observations together.
        let mut obs = obs1.clone();
        obs.extend_from_slice(&obs2);
        let mut mask = mask1.clone();
        mask.extend_from_slice(&mask2);
        let mut batched = Vec::new();
        p.log_probs_fast_batch(&obs, &mask, 2, &mut Scratch::new(), &mut batched);
        for j in 0..k {
            assert!((batched[j] - single1[j]).abs() < 1e-5);
            assert!((batched[k + j] - single2[j]).abs() < 1e-5);
        }
    }
}
