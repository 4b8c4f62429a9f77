//! Fused ≡ reference update parity at the agent level: for every Table
//! IV architecture, `Ppo::update` (the chunked fused path) on
//! (mini)batches of at most `SHARD_ROWS` rows — one chunk — must
//! reproduce the same update written out on the reference tape
//! (`rlsched-nn-ref`) **bit for bit**: per-parameter gradients (pinned
//! transitively through identical post-Adam weights and Adam moments),
//! diagnostics, the minibatch RNG stream, and whole multi-update training
//! trajectories. Across chunk boundaries only the f32 association of the
//! gradient reductions changes; one test bounds that drift.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlsched_nn::{clip_global_norm, Adam};
use rlsched_nn_ref::Graph;
use rlsched_rl::categorical::MASK_OFF;
use rlsched_rl::{collect_rollouts_vec, Batch, MaskedCategorical, PpoConfig, UpdateStats, VecEnv};
use rlsched_sim::{MetricKind, SimConfig};
use rlsched_workload::NamedWorkload;
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, SchedulingEnv};

/// `Ppo::update` written out on the reference tape: the same minibatch
/// RNG stream, losses, KL early stop, clipping and Adam steps, with every
/// gradient from `Graph::backward`.
struct Reference {
    agent: Agent,
    pi_opt: Adam,
    vf_opt: Adam,
    rng: StdRng,
}

impl Reference {
    fn new(agent: Agent) -> Self {
        let cfg = agent.ppo().cfg;
        Reference {
            agent,
            pi_opt: Adam::new(cfg.pi_lr),
            vf_opt: Adam::new(cfg.vf_lr),
            rng: StdRng::seed_from_u64(cfg.update_seed),
        }
    }

    /// One iteration's rows: the whole batch, or a minibatch drawn with
    /// replacement.
    fn rows(&mut self, batch: &Batch) -> Vec<usize> {
        let n = batch.len();
        match self.agent.ppo().cfg.minibatch {
            Some(size) if size < n => (0..size).map(|_| self.rng.gen_range(0..n)).collect(),
            _ => (0..n).collect(),
        }
    }

    fn update(&mut self, batch: &Batch) -> UpdateStats {
        let cfg = self.agent.ppo().cfg;
        let n_actions = batch.n_actions();
        let gather = |rows: &[usize], data: &[f32], width: usize| -> Vec<f32> {
            rows.iter()
                .flat_map(|&i| &data[i * width..(i + 1) * width])
                .copied()
                .collect()
        };
        // The windows as the rollout produced them: the stored job rows
        // zero-padded to the whole window, and the mask they imply.
        let f = batch.features();
        let obs_and_masks = |rows: &[usize]| -> (Vec<f32>, Vec<f32>) {
            let (mut obs, mut masks) = (Vec::new(), Vec::new());
            for &i in rows {
                let jobs = batch.row(i);
                let n = jobs.len() / f;
                obs.extend_from_slice(jobs);
                obs.resize(obs.len() + (n_actions - n) * f, 0.0);
                masks.extend((0..n_actions).map(|j| if j < n { 0.0 } else { MASK_OFF }));
            }
            (obs, masks)
        };
        let mut stats = UpdateStats {
            pi_loss_before: 0.0,
            pi_loss_after: 0.0,
            v_loss_before: 0.0,
            v_loss_after: 0.0,
            approx_kl: 0.0,
            entropy: 0.0,
            pi_iters: 0,
        };
        for it in 0..cfg.train_pi_iters {
            let rows = self.rows(batch);
            let n = rows.len();
            let (obs, masks) = obs_and_masks(&rows);
            let actions: Vec<usize> = rows.iter().map(|&i| batch.actions[i]).collect();
            let adv = gather(&rows, &batch.advantages, 1);
            let old = gather(&rows, &batch.logp_old, 1);
            let mut g = Graph::new();
            let l = rlsched_nn_ref::policy_loss(
                &mut g,
                &self.agent.ppo().policy,
                &obs,
                &masks,
                &actions,
                &adv,
                &old,
                cfg.clip_ratio,
                cfg.ent_coef,
            );
            let logp = g.value(l.logp).data();
            let kl = old.iter().zip(logp).map(|(&o, &nw)| (o - nw) as f64);
            stats.approx_kl = kl.sum::<f64>() / n as f64;
            if it == 0 {
                stats.pi_loss_before = g.value(l.loss).item();
                let mut total = 0.0f32;
                for row in g.value(l.logp_all).data().chunks_exact(n_actions) {
                    total += MaskedCategorical::new(row).entropy();
                }
                stats.entropy = total / n as f32;
            }
            if stats.approx_kl > 1.5 * cfg.target_kl && it > 0 {
                break;
            }
            g.backward(l.loss);
            stats.pi_loss_after = g.value(l.loss).item();
            let mut grads = g.grads(&l.params);
            if let Some(mx) = cfg.max_grad_norm {
                clip_global_norm(&mut grads, mx);
            }
            let policy = &mut self.agent.ppo_mut().policy;
            self.pi_opt.step_params(policy.params_mut(), &grads);
            stats.pi_iters = it + 1;
        }
        for it in 0..cfg.train_v_iters {
            let rows = self.rows(batch);
            let (obs, _) = obs_and_masks(&rows);
            let returns = gather(&rows, &batch.returns, 1);
            let mut g = Graph::new();
            let critic = &self.agent.ppo().value;
            let (loss, params) = rlsched_nn_ref::value_loss(&mut g, critic, &obs, &returns);
            if it == 0 {
                stats.v_loss_before = g.value(loss).item();
            }
            g.backward(loss);
            stats.v_loss_after = g.value(loss).item();
            let mut grads = g.grads(&params);
            if let Some(mx) = cfg.max_grad_norm {
                clip_global_norm(&mut grads, mx);
            }
            let mlp = &mut self.agent.ppo_mut().value;
            let params = mlp.layers.iter_mut().flat_map(|l| [&mut l.w, &mut l.b]);
            self.vf_opt.step_params(params, &grads);
        }
        stats
    }
}

/// A fresh reference and a fresh fused agent, both loaded from `proto`'s
/// checkpoint (fresh optimizer state each).
fn twins(proto: &Agent) -> (Reference, Agent) {
    let json = proto.save_json();
    let reference = Reference::new(Agent::load_json(&json).expect("clone"));
    (reference, Agent::load_json(&json).expect("clone"))
}

fn agent_for(kind: PolicyKind, max_obsv: usize, ppo: PpoConfig) -> Agent {
    Agent::new(AgentConfig {
        policy: kind,
        obs: ObsConfig {
            max_obsv,
            ..ObsConfig::default()
        },
        metric: MetricKind::BoundedSlowdown,
        ppo,
        seed: 11,
    })
}

/// One collected batch for a given agent (trajectory contents only
/// depend on the policy weights and seeds, which are fixed).
fn batch_for(agent: &Agent, episodes: usize, seq_len: usize) -> Batch {
    let trace = std::sync::Arc::new(NamedWorkload::Lublin1.generate(512, 3));
    let envs: Vec<SchedulingEnv> = (0..episodes)
        .map(|_| {
            SchedulingEnv::new(
                trace.clone(),
                seq_len,
                SimConfig::default(),
                *agent.encoder(),
                agent.objective(),
            )
        })
        .collect();
    let seeds: Vec<u64> = (0..episodes as u64).collect();
    let (batch, _stats) = collect_rollouts_vec(agent.ppo(), &mut VecEnv::new(envs), &seeds);
    batch
}

/// Run `updates` reference updates on one clone and `updates` fused
/// updates on another over an `episodes` × `seq_len`-transition batch;
/// every step's diagnostics, the final checkpoints and the Adam states
/// must be bit-identical.
fn assert_fused_matches_tape(
    proto: &Agent,
    episodes: usize,
    seq_len: usize,
    updates: usize,
    what: &str,
) {
    let batch = batch_for(proto, episodes, seq_len);
    let (mut tape, mut fused) = twins(proto);
    for step in 0..updates {
        let st = tape.update(&batch);
        let sf = fused.ppo_mut().update(&batch);
        assert_eq!(st, sf, "{what}: stats diverged at update {step}");
    }
    assert_eq!(
        tape.agent.save_json(),
        fused.save_json(),
        "{what}: weights diverged after {updates} updates"
    );
    assert_eq!(
        fused.ppo().optimizers(),
        (&tape.pi_opt, &tape.vf_opt),
        "{what}: Adam step counts and moments"
    );
}

#[test]
fn kernel_policy_fused_update_is_bit_identical() {
    // The paper's architecture, with a ragged (non-multiple-of-4/8)
    // minibatch so kernel row tails are exercised.
    let ppo = PpoConfig {
        train_pi_iters: 4,
        train_v_iters: 4,
        minibatch: Some(37),
        ..PpoConfig::default()
    };
    let proto = agent_for(PolicyKind::Kernel, 16, ppo);
    assert_fused_matches_tape(&proto, 4, 40, 3, "kernel, mb=37");
}

#[test]
fn flat_mlps_fused_update_is_bit_identical() {
    for (kind, what) in [
        (PolicyKind::MlpV1, "MLP v1"),
        (PolicyKind::MlpV2, "MLP v2"),
        (PolicyKind::MlpV3, "MLP v3"),
    ] {
        let ppo = PpoConfig {
            train_pi_iters: 3,
            train_v_iters: 3,
            minibatch: Some(53),
            ..PpoConfig::default()
        };
        assert_fused_matches_tape(&agent_for(kind, 16, ppo), 4, 40, 2, what);
    }
}

#[test]
fn full_batch_and_entropy_bonus_match() {
    // No minibatching (an identity index over the whole batch — 4 × 15
    // rows, one chunk) and a nonzero entropy coefficient (the extra gradient
    // term must accumulate in the reference's order).
    let ppo = PpoConfig {
        train_pi_iters: 3,
        train_v_iters: 3,
        minibatch: None,
        ent_coef: 0.01,
        ..PpoConfig::default()
    };
    let proto = agent_for(PolicyKind::Kernel, 16, ppo);
    assert_fused_matches_tape(&proto, 4, 15, 2, "full batch + entropy");
}

#[test]
fn grad_clipping_matches() {
    let ppo = PpoConfig {
        train_pi_iters: 3,
        train_v_iters: 3,
        minibatch: Some(64),
        max_grad_norm: Some(0.05),
        ..PpoConfig::default()
    };
    let proto = agent_for(PolicyKind::MlpV2, 16, ppo);
    assert_fused_matches_tape(&proto, 4, 40, 2, "grad clip");
}

#[test]
fn lenet_fused_update_is_bit_identical() {
    // The CNN baseline trains through the same sweep: its conv and pool
    // backward, with and without the entropy term, over two updates of
    // 48-row minibatches (one chunk) and a full 2 × 24-row batch.
    for (minibatch, ent_coef) in [(Some(48), 0.0), (None, 0.01)] {
        let ppo = PpoConfig {
            train_pi_iters: 2,
            train_v_iters: 2,
            minibatch,
            ent_coef,
            ..PpoConfig::default()
        };
        let proto = agent_for(PolicyKind::LeNet, 64, ppo);
        let what = format!("LeNet, minibatch {minibatch:?}, ent_coef {ent_coef}");
        assert_fused_matches_tape(&proto, 2, 24, 2, &what);
    }
}

#[test]
fn lenet_multi_chunk_update_is_thread_count_invariant() {
    // 150-row minibatches span three chunks: the conv gradients merge
    // across chunks and must not depend on which worker ran which.
    let ppo = PpoConfig {
        train_pi_iters: 2,
        train_v_iters: 2,
        minibatch: Some(150),
        ent_coef: 0.01,
        ..PpoConfig::default()
    };
    let proto = agent_for(PolicyKind::LeNet, 64, ppo);
    let batch = batch_for(&proto, 4, 40);
    let run = |threads: usize| {
        let (_, mut a) = twins(&proto);
        let stats = rlsched_nn::pool::with_threads(threads, || a.ppo_mut().update(&batch));
        (stats, a.save_json())
    };
    let base = run(1);
    for threads in [2usize, 3, 7] {
        assert_eq!(run(threads), base, "LeNet update at {threads} workers");
    }
}

#[test]
fn multi_chunk_update_matches_tape_within_f32_tolerance() {
    // 150-row minibatches span three chunks (the last ragged): per-chunk
    // gradient partials and the chunk-ordered loss fold re-associate the
    // reference's f32 sums, so parity is numeric — every loss and the KL
    // within 1e-5 (relative for the losses) across 3 + 3 Adam steps.
    // First-iteration entropy is forward-only, row-local, and exact.
    // (Gradients themselves are bounded in nn's fused_parity_prop; final
    // weights are not compared because Adam turns a noise-level gradient
    // of either sign into a full-size step.)
    let ppo = PpoConfig {
        train_pi_iters: 3,
        train_v_iters: 3,
        minibatch: Some(150),
        ent_coef: 0.01,
        target_kl: 1e9,
        ..PpoConfig::default()
    };
    let proto = agent_for(PolicyKind::Kernel, 16, ppo);
    let batch = batch_for(&proto, 4, 40);
    let (mut tape, mut fused) = twins(&proto);
    let st = tape.update(&batch);
    let sf = fused.ppo_mut().update(&batch);

    assert_eq!(sf.entropy, st.entropy, "entropy");
    assert_eq!(sf.pi_iters, st.pi_iters, "policy iterations");
    for (what, f, t) in [
        ("pi_loss_before", sf.pi_loss_before, st.pi_loss_before),
        ("pi_loss_after", sf.pi_loss_after, st.pi_loss_after),
        ("v_loss_before", sf.v_loss_before, st.v_loss_before),
        ("v_loss_after", sf.v_loss_after, st.v_loss_after),
        ("approx_kl", sf.approx_kl as f32, st.approx_kl as f32),
    ] {
        assert!(
            (f - t).abs() <= 1e-5 * (1.0 + t.abs()),
            "{what}: {f} vs {t}"
        );
    }
}

#[test]
fn kl_early_stop_discards_the_tripping_iteration() {
    // The fused sweep has already computed an iteration's gradients when
    // its approximate KL trips the early stop; they must be dropped
    // unapplied, exactly where the reference breaks before its backward. Full
    // batch (4 × 15 rows, one chunk): every iteration sees the same rows,
    // so the KL climbs with each applied step — 2.5e-4, 6.5e-4, 9.6e-4 at
    // it = 1, 2, 3 — and 1.5 × 5.5e-4 falls between
    // the last two.
    let ppo = PpoConfig {
        train_pi_iters: 20,
        train_v_iters: 3,
        minibatch: None,
        target_kl: 5.5e-4,
        ..PpoConfig::default()
    };
    let proto = agent_for(PolicyKind::Kernel, 16, ppo);
    let batch = batch_for(&proto, 4, 15);
    let (mut tape, mut fused) = twins(&proto);
    // The second update starts from a scratch that still holds the
    // discarded gradients, and stops early itself (at it = 1).
    for step in 0..2 {
        let st = tape.update(&batch);
        let sf = fused.ppo_mut().update(&batch);
        assert!(
            (1..20).contains(&st.pi_iters),
            "update {step}: the reference must stop early at some it >= 1, ran {}",
            st.pi_iters
        );
        assert!(
            st.approx_kl > 1.5 * 5.5e-4,
            "update {step}: the stop is the KL's"
        );
        assert_eq!(sf, st, "update {step}: stats");
        assert_eq!(
            fused.save_json(),
            tape.agent.save_json(),
            "update {step}: weights"
        );
        assert_eq!(
            fused.ppo().optimizers(),
            (&tape.pi_opt, &tape.vf_opt),
            "update {step}: Adam step counts and moments"
        );
        if step == 0 {
            // Three applied steps: `pi_loss_after` is the third's loss,
            // not the tripping fourth's and not the first's.
            assert_eq!(st.pi_iters, 3);
            assert_ne!(st.pi_loss_after, st.pi_loss_before);
        }
    }
}
