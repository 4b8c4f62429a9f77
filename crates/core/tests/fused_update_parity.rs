//! Fused ≡ tape update parity at the agent level: for every fused-eligible
//! Table IV architecture, `Ppo::update` (the chunked fused path) on
//! (mini)batches of at most `SHARD_ROWS` rows — one chunk — must
//! reproduce `Ppo::update_tape` **bit for bit**: per-parameter gradients
//! (pinned transitively through identical post-Adam weights),
//! diagnostics, the minibatch RNG stream, and whole multi-update training
//! trajectories. Across chunk boundaries only the f32 association of the
//! gradient reductions changes; one test bounds that drift. CI runs this
//! suite on both kernel dispatch arms (default SIMD and
//! `RLSCHED_FORCE_SCALAR=1`), so the contract holds on each.

use rlsched_rl::{collect_rollouts_vec, Batch, PpoConfig, VecEnv};
use rlsched_sim::{MetricKind, SimConfig};
use rlsched_workload::NamedWorkload;
use rlscheduler::{Agent, AgentConfig, ObsConfig, PolicyKind, SchedulingEnv};

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

/// Run `updates` tape updates on one clone and `updates` fused updates on
/// another over a 4 × `seq_len`-transition batch; every step's
/// diagnostics and the final checkpoints must be bit-identical.
fn assert_fused_matches_tape(
    kind: PolicyKind,
    ppo: PpoConfig,
    seq_len: usize,
    updates: usize,
    what: &str,
) {
    let proto = agent_for(kind, 16, ppo);
    assert!(
        proto.ppo().fused_supported(),
        "{what}: must be fused-eligible"
    );
    let batch = batch_for(&proto, 4, seq_len);
    // Two identical clones with fresh optimizer state each.
    let mut tape = Agent::load_json(&proto.save_json()).expect("clone");
    let mut fused = Agent::load_json(&proto.save_json()).expect("clone");
    for step in 0..updates {
        let st = tape.ppo_mut().update_tape(&batch);
        let sf = fused.ppo_mut().update(&batch);
        assert_eq!(st, sf, "{what}: stats diverged at update {step}");
    }
    assert_eq!(
        tape.save_json(),
        fused.save_json(),
        "{what}: weights diverged after {updates} updates"
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
    assert_fused_matches_tape(PolicyKind::Kernel, ppo, 40, 3, "kernel, mb=37");
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
        assert_fused_matches_tape(kind, ppo, 40, 2, what);
    }
}

#[test]
fn full_batch_and_entropy_bonus_match() {
    // No minibatching (the view borrows the whole batch — 4 × 15 rows,
    // one chunk) and a nonzero entropy coefficient (the extra gradient
    // term must accumulate in the tape's order).
    let ppo = PpoConfig {
        train_pi_iters: 3,
        train_v_iters: 3,
        minibatch: None,
        ent_coef: 0.01,
        ..PpoConfig::default()
    };
    assert_fused_matches_tape(PolicyKind::Kernel, ppo, 15, 2, "full batch + entropy");
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
    assert_fused_matches_tape(PolicyKind::MlpV2, ppo, 40, 2, "grad clip");
}

#[test]
fn lenet_has_no_fused_path_and_update_falls_back_to_the_tape() {
    // The CNN baseline is not an MLP chain: `update` must transparently
    // produce the tape result.
    let ppo = PpoConfig {
        train_pi_iters: 2,
        train_v_iters: 2,
        minibatch: Some(48),
        ..PpoConfig::default()
    };
    let proto = agent_for(PolicyKind::LeNet, 64, ppo);
    let batch = batch_for(&proto, 2, 24);
    let mut a = Agent::load_json(&proto.save_json()).expect("clone");
    let mut b = Agent::load_json(&proto.save_json()).expect("clone");
    assert!(
        !a.ppo().fused_supported(),
        "LeNet must not claim fused support"
    );
    let s1 = a.ppo_mut().update(&batch);
    let s2 = b.ppo_mut().update_tape(&batch);
    assert_eq!(s1, s2, "update must fall back to the tape");
    assert_eq!(a.save_json(), b.save_json());
}

#[test]
fn multi_chunk_update_matches_tape_within_f32_tolerance() {
    // 150-row minibatches span three chunks (the last ragged): per-chunk
    // gradient partials and the chunk-ordered loss fold re-associate the
    // tape's f32 sums, so parity is numeric — every loss and the KL
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
    let mut tape = Agent::load_json(&proto.save_json()).expect("clone");
    let mut fused = Agent::load_json(&proto.save_json()).expect("clone");
    let st = tape.ppo_mut().update_tape(&batch);
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
    // unapplied, exactly where the tape breaks before its backward. Full
    // batch (4 × 15 rows, one chunk): every iteration sees the same rows,
    // so the KL climbs with each applied step — 2.5e-4, 6.5e-4, 9.6e-4 at
    // it = 1, 2, 3 on both dispatch arms — and 1.5 × 5.5e-4 falls between
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
    let mut tape = Agent::load_json(&proto.save_json()).expect("clone");
    let mut fused = Agent::load_json(&proto.save_json()).expect("clone");
    // The second update starts from a scratch that still holds the
    // discarded gradients, and stops early itself (at it = 1).
    for step in 0..2 {
        let st = tape.ppo_mut().update_tape(&batch);
        let sf = fused.ppo_mut().update(&batch);
        assert!(
            (1..20).contains(&st.pi_iters),
            "update {step}: the tape must stop early at some it >= 1, ran {}",
            st.pi_iters
        );
        assert!(
            st.approx_kl > 1.5 * 5.5e-4,
            "update {step}: the stop is the KL's"
        );
        assert_eq!(sf, st, "update {step}: stats");
        assert_eq!(
            fused.save_json(),
            tape.save_json(),
            "update {step}: weights"
        );
        assert_eq!(
            fused.ppo().optimizers(),
            tape.ppo().optimizers(),
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
