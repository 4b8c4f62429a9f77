//! Golden training fingerprint: a tiny `train()` of every Table IV
//! policy must reproduce the committed bits.
//!
//! Each case trains a small agent on a short synthetic trace whose
//! queues are shorter than the observation window, so every batch holds
//! zero-padded, masked job slots. The fingerprint is each epoch's
//! `mean_metric` and `UpdateStats` (printed with Rust's shortest
//! round-trip float formatting, so the text pins every bit) and the
//! saved checkpoint's length and FNV-1a hash. A change that moves one bit
//! of a forward, a gradient, an optimizer step or the rollout fails here.
//!
//! Every CPU computes the same bits (the kernels' chains are fixed in
//! `rlsched_nn::simd`), so there is one file,
//! `tests/golden/train_fingerprint.txt`; CI checks it once more with
//! `RLSCHED_FORCE_SCALAR=1`, which runs the portable kernels. Worker
//! counts never change a bit, so the machine's core count does not
//! matter either. A change that moves the bits on purpose regenerates
//! the file and says why:
//!
//! ```text
//! cargo test --release --test golden -- --ignored write_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use rlsched_repro::core::prelude::*;
use rlsched_repro::workload::NamedWorkload;

/// One fingerprinted training run.
struct Case {
    name: &'static str,
    policy: PolicyKind,
    max_obsv: usize,
    seq_len: usize,
    ent_coef: f32,
    /// EASY backfilling on.
    easy: bool,
    /// PPO minibatch rows: 100 is two chunks per iteration (one full,
    /// one ragged).
    minibatch: usize,
}

const CASES: [Case; 7] = [
    Case {
        name: "kernel",
        policy: PolicyKind::Kernel,
        max_obsv: 64,
        seq_len: 48,
        ent_coef: 0.0,
        easy: false,
        minibatch: 100,
    },
    // A window narrower than some queues (full windows next to padded
    // ones), the entropy term, and EASY backfilling.
    Case {
        name: "kernel-narrow-entropy-easy",
        policy: PolicyKind::Kernel,
        max_obsv: 16,
        seq_len: 64,
        ent_coef: 0.01,
        easy: true,
        minibatch: 100,
    },
    Case {
        name: "mlp-v1",
        policy: PolicyKind::MlpV1,
        max_obsv: 64,
        seq_len: 48,
        ent_coef: 0.0,
        easy: false,
        minibatch: 100,
    },
    Case {
        name: "mlp-v2",
        policy: PolicyKind::MlpV2,
        max_obsv: 64,
        seq_len: 48,
        ent_coef: 0.0,
        easy: false,
        minibatch: 100,
    },
    Case {
        name: "mlp-v3",
        policy: PolicyKind::MlpV3,
        max_obsv: 64,
        seq_len: 48,
        ent_coef: 0.0,
        easy: false,
        minibatch: 100,
    },
    Case {
        name: "lenet",
        policy: PolicyKind::LeNet,
        max_obsv: 64,
        seq_len: 48,
        ent_coef: 0.0,
        easy: false,
        minibatch: 100,
    },
    // The paper's 128-job window at eight chunks per iteration: the
    // critic's 896-wide first layer over windows of every fill, and `dW`
    // sums over many chunks.
    Case {
        name: "kernel-128",
        policy: PolicyKind::Kernel,
        max_obsv: 128,
        seq_len: 144,
        ent_coef: 0.0,
        easy: false,
        minibatch: 512,
    },
];

/// 64-bit FNV-1a: enough to tell two checkpoints apart without
/// committing megabytes of JSON.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Train every case and print its fingerprint.
fn fingerprint() -> String {
    let trace = NamedWorkload::Lublin1.generate(800, 12);
    let mut text = String::new();
    for case in &CASES {
        let mut cfg = AgentConfig::paper_default();
        cfg.policy = case.policy;
        cfg.obs.max_obsv = case.max_obsv;
        cfg.ppo.train_pi_iters = 3;
        cfg.ppo.train_v_iters = 3;
        cfg.ppo.minibatch = Some(case.minibatch);
        cfg.ppo.ent_coef = case.ent_coef;
        cfg.seed = 4;
        let mut agent = Agent::new(cfg);
        let curve = train(
            &mut agent,
            &trace,
            &TrainConfig {
                epochs: 2,
                trajectories_per_epoch: 4,
                seq_len: case.seq_len,
                sim: if case.easy {
                    SimConfig::with_backfill()
                } else {
                    SimConfig::no_backfill()
                },
                filter: FilterMode::Off,
                seed: 19,
                ..TrainConfig::default()
            },
        );
        writeln!(text, "[{}]", case.name).unwrap();
        for e in &curve {
            writeln!(
                text,
                "epoch {}: mean_metric {:?}, mean_return {:?}, {:?}",
                e.epoch, e.mean_metric, e.mean_return, e.update
            )
            .unwrap();
        }
        let ckpt = agent.save_json();
        writeln!(
            text,
            "checkpoint: {} bytes, fnv1a64 {:016x}",
            ckpt.len(),
            fnv1a64(ckpt.as_bytes())
        )
        .unwrap();
    }
    text
}

/// The committed fingerprint.
fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/train_fingerprint.txt")
}

#[test]
fn training_reproduces_the_golden_fingerprint() {
    let path = golden_path();
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let got = fingerprint();
    for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(g, w, "line {} of {} moved", i + 1, path.display());
    }
    assert_eq!(
        got,
        golden,
        "fingerprint length differs from {}",
        path.display()
    );
}

#[test]
#[ignore = "rewrites the committed fingerprint; run only when the bits move on purpose"]
fn write_golden() {
    let path = golden_path();
    std::fs::write(&path, fingerprint())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}
