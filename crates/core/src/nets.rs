//! The RLScheduler networks of Table IV and Fig 6, as values:
//! [`build_policy`] instantiates a policy, [`build_critic`] the critic.
//!
//! * The kernel-based policy — the paper's contribution (Fig 5): a small
//!   shared MLP applied to every job vector independently ("like a
//!   window"), producing one score per job, followed by a masked softmax.
//!   Because the same weights score every slot, the network is
//!   *order-equivariant* by construction: permuting job rows permutes the
//!   output distribution identically (§III-1).
//! * MLP v1/v2/v3 — the baselines of Table IV: a plain MLP over the
//!   flattened observation, order-sensitive.
//! * LeNet — the CNN baseline of Table IV ("2x(conv2d, maxpooling2d),
//!   dense"). Its pooling and dense layers mix job positions, which is
//!   exactly why the paper finds it converges worse.
//! * The critic (Fig 6): an MLP over the flattened observation.
//!
//! A policy is one [`FusedPolicy`]: its conv stages, its dense chain and a
//! `Kernel`, `Flat` or `Conv` head. Training runs it through
//! `rlsched_nn::fused` and every decision through
//! [`rlsched_nn::infer::log_probs`], so no architecture's forward is
//! written here: this module holds only each architecture's layer widths.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use rlsched_nn::fused::{FusedHead, FusedPolicy};
use rlsched_nn::{Activation, Conv2dLayer, Mlp};

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

/// Instantiate a Table IV architecture over a `max_obsv`-job window, its
/// weights drawn from `seed`. Panics when the window cannot hold the
/// architecture (LeNet needs `max_obsv % 4 == 0` and at least 64 jobs).
pub fn build_policy(kind: PolicyKind, max_obsv: usize, seed: u64) -> FusedPolicy {
    Arch::policy(kind, max_obsv)
        .unwrap_or_else(|e| panic!("{e}"))
        .build(seed)
}

/// The critic (Fig 6) over a `max_obsv`-job window: a 3-hidden-layer
/// MLP over the flat observation, its weights drawn from `seed`.
///
/// At a 128-job window its first layer (896 × 32) is 28 672 of the
/// ~29 k multiply-adds per row, and most windows are mostly padding, so
/// every forward — each rollout step's and the fused update's — reads a
/// window only up to its last job ([`rlsched_nn::infer::window_mlp_forward`];
/// see `rlsched_nn::fused`'s module docs for why the bits are those of
/// the whole window).
pub fn build_critic(max_obsv: usize, seed: u64) -> Mlp {
    Arch::critic(max_obsv).build(seed).mlp
}

/// Hold a policy to `kind`'s architecture over a `max_obsv`-job window:
/// the head, every parameter's shape, every conv stride and the chain's
/// activations must be what [`build_policy`] gives.
pub(crate) fn check_policy(
    p: &FusedPolicy,
    kind: PolicyKind,
    max_obsv: usize,
) -> Result<(), String> {
    Arch::policy(kind, max_obsv)?.check(&p.convs, &p.mlp, p.head)
}

/// Hold a critic to [`build_critic`]'s architecture over a
/// `max_obsv`-job window.
pub(crate) fn check_critic(critic: &Mlp, max_obsv: usize) -> Result<(), String> {
    Arch::critic(max_obsv).check(&[], critic, FusedHead::Flat)
}

/// A network's layer widths at one window, with nothing allocated: what
/// [`build_policy`] and [`build_critic`] initialise, and what a
/// checkpoint is held to.
struct Arch {
    /// Each conv stage's weight shape `[out, in, kh, kw]` (stride 1).
    convs: Vec<[usize; 4]>,
    /// The dense chain's widths, input first.
    dims: Vec<usize>,
    head: FusedHead,
}

impl Arch {
    fn policy(kind: PolicyKind, max_obsv: usize) -> Result<Arch, String> {
        if max_obsv == 0 {
            return Err("a policy needs at least one job slot".into());
        }
        let (flat, window) = (max_obsv * JOB_FEATURES, max_obsv);
        let (convs, input, out, head) = match kind {
            PolicyKind::Kernel => (vec![], JOB_FEATURES, 1, FusedHead::Kernel { window }),
            PolicyKind::MlpV1 | PolicyKind::MlpV2 | PolicyKind::MlpV3 => {
                (vec![], flat, window, FusedHead::Flat)
            }
            PolicyKind::LeNet => {
                // The flat observation reshapes to a near-square
                // one-channel image, then two (conv 5×5 → ReLU → max-pool
                // 2) stages.
                if !(max_obsv.is_multiple_of(4) && max_obsv >= 64) {
                    return Err(format!(
                        "LeNet needs max_obsv % 4 == 0 and >= 64, not {max_obsv}"
                    ));
                }
                let (h, w) = (max_obsv / 4, JOB_FEATURES * 4);
                let (h1, w1) = ((h - 4) / 2, (w - 4) / 2); // conv1 + pool
                let (h2, w2) = ((h1 - 4) / 2, (w1 - 4) / 2); // conv2 + pool
                let convs = vec![[6, 1, 5, 5], [16, 6, 5, 5]];
                (convs, 16 * h2 * w2, window, FusedHead::Conv { h, w })
            }
        };
        let hidden: &[usize] = match kind {
            PolicyKind::Kernel | PolicyKind::MlpV2 => &[32, 16, 8],
            PolicyKind::MlpV1 => &[128, 128, 128],
            PolicyKind::MlpV3 => &[32; 5],
            PolicyKind::LeNet => &[120],
        };
        let dims = [&[input], hidden, &[out]].concat();
        Ok(Arch { convs, dims, head })
    }

    fn critic(max_obsv: usize) -> Arch {
        Arch {
            convs: vec![],
            dims: vec![max_obsv * JOB_FEATURES, 32, 16, 8, 1],
            head: FusedHead::Flat,
        }
    }

    /// He-initialised layers from one RNG stream: the conv stages, then
    /// the dense chain (ReLU hidden, identity output).
    fn build(&self, seed: u64) -> FusedPolicy {
        let mut rng = StdRng::seed_from_u64(seed);
        let convs = self.convs.iter();
        let convs = convs.map(|&[o, c, kh, kw]| Conv2dLayer::new(c, o, kh, kw, 1, &mut rng));
        let convs = convs.collect();
        let mlp = Mlp::new(&self.dims, Activation::Relu, Activation::Identity, &mut rng);
        FusedPolicy {
            convs,
            mlp,
            head: self.head,
        }
    }

    fn check(&self, convs: &[Conv2dLayer], mlp: &Mlp, head: FusedHead) -> Result<(), String> {
        let conv_shapes = self.convs.iter().flat_map(|s| [s.to_vec(), vec![s[0]]]);
        let dense_shapes = self.dims.windows(2).flat_map(|d| [d.to_vec(), vec![d[1]]]);
        let params = convs.iter().flat_map(|c| [&c.w, &c.b]);
        let params = params.chain(mlp.layers.iter().flat_map(|l| [&l.w, &l.b]));
        let fits = head == self.head
            && conv_shapes
                .chain(dense_shapes)
                .eq(params.map(|t| t.shape()))
            && convs.iter().all(|c| c.stride == 1)
            && (mlp.hidden, mlp.output) == (Activation::Relu, Activation::Identity);
        if fits {
            Ok(())
        } else {
            Err(format!(
                "the network is not the architecture its configuration names ({:?} head, dense widths {:?})",
                self.head, self.dims
            ))
        }
    }
}

/// A frozen, shareable scoring replica for serving tiers: the policy
/// network behind an [`Arc`], so a sharded server replicates it per worker
/// thread at pointer cost. A shard decides with it through
/// [`rlsched_rl::greedy_batch`], the greedy decision
/// [`crate::Agent::as_policy`] runs, so a served decision is
/// **bit-identical** to the in-process one, batch by batch, row by row
/// (the forward kernels are row-count invariant).
///
/// A snapshot does not track later weight updates: take it from a frozen
/// agent and re-take after training (a serving tier hot-swaps the new
/// snapshot in).
#[derive(Debug, Clone)]
pub struct ScorerSnapshot {
    net: Arc<FusedPolicy>,
}

impl ScorerSnapshot {
    /// Snapshot a policy network. The widths a request row must have are
    /// the network's own ([`FusedPolicy::widths`]).
    pub fn new(net: &FusedPolicy) -> Self {
        ScorerSnapshot {
            net: Arc::new(net.clone()),
        }
    }

    /// The network the snapshot scores through.
    pub fn net(&self) -> &FusedPolicy {
        &self.net
    }

    /// Flattened observation width a request row must have.
    pub fn obs_dim(&self) -> usize {
        self.net.widths().0
    }

    /// Action-slot count (= mask width of a request row).
    pub fn n_actions(&self) -> usize {
        self.net.widths().1
    }

    /// True when every weight in the snapshot is a finite float. The
    /// first gate of a serving tier's checkpoint validation: a NaN/Inf
    /// anywhere in the parameters poisons every logit it touches, so a
    /// non-finite snapshot must be rejected before it can go live.
    pub fn all_finite(&self) -> bool {
        self.net
            .params()
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
    assert_send_sync::<FusedPolicy>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use rlsched_nn::{infer, Scratch};
    use rlsched_rl::categorical::MASK_OFF;

    fn forward(policy: &FusedPolicy, obs: &[f32], mask: &[f32], k: usize) -> Vec<f32> {
        assert_eq!(mask.len(), k);
        let mut out = Vec::new();
        infer::log_probs(policy, obs, mask, 1, &mut Scratch::new(), &mut out);
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
        let p = build_policy(PolicyKind::Kernel, 128, 0);
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
        let p = build_policy(PolicyKind::Kernel, k, 3);
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
        let p = build_policy(PolicyKind::MlpV2, k, 3);
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
            let p = build_policy(kind, k, 7);
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
        let kernel = build_policy(PolicyKind::Kernel, k, 0).param_count();
        let v1 = build_policy(PolicyKind::MlpV1, k, 0).param_count();
        let v2 = build_policy(PolicyKind::MlpV2, k, 0).param_count();
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
            let net = build_policy(kind, 128, 0);
            let got: Vec<&[usize]> = net.params().map(|t| t.shape()).collect();
            assert_eq!(got, shapes, "{} layer shapes", kind.name());
            assert_eq!(net.param_count(), count, "{} parameters", kind.name());
        }
    }

    #[test]
    fn value_net_emits_one_scalar_per_row() {
        let k = 32;
        let v = build_critic(k, 1);
        let mut out = Vec::new();
        infer::window_mlp_forward(
            &v,
            &[0.0; 5 * 32 * JOB_FEATURES],
            5,
            JOB_FEATURES,
            &mut Scratch::new(),
            &mut out,
        );
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn policy_nets_serialize_round_trip() {
        use crate::agent::PolicyJson;
        let p = build_policy(PolicyKind::Kernel, 32, 5);
        let json = serde_json::to_string(&PolicyJson::of(&p)).unwrap();
        let q = serde_json::from_str::<PolicyJson>(&json)
            .unwrap()
            .into_policy();
        let (obs, mask) = random_obs(32, 6, 11);
        assert_eq!(forward(&p, &obs, &mask, 32), forward(&q, &obs, &mask, 32));
    }

    #[test]
    #[should_panic(expected = "max_obsv % 4")]
    fn lenet_rejects_tiny_windows() {
        let _ = build_policy(PolicyKind::LeNet, 20, 0);
    }

    #[test]
    fn batch_forward_matches_single_rows() {
        let k = 16;
        let p = build_policy(PolicyKind::Kernel, k, 13);
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
        infer::log_probs(&p, &obs, &mask, 2, &mut Scratch::new(), &mut batched);
        for j in 0..k {
            assert!((batched[j] - single1[j]).abs() < 1e-5);
            assert!((batched[k + j] - single2[j]).abs() < 1e-5);
        }
    }
}
