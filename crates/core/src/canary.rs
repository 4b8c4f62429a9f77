//! Checkpoint-validation canary: a frozen batch of synthetic decision
//! points with the actions the *candidate agent itself* computes for
//! them in process.
//!
//! A serving tier must never install a checkpoint it cannot trust. The
//! all-finite weight walk ([`crate::ScorerSnapshot::all_finite`]) catches
//! NaN/Inf poisoning; the canary catches everything subtler — a snapshot
//! taken from the wrong agent, a stale copy, a dimension drift — by
//! demanding the proposed [`ScorerSnapshot`] reproduce, bit for bit, the
//! decisions the agent's in-process [`Agent::as_policy`] path makes on a
//! known batch. The expected actions are the agent's own policy
//! network's through [`rlsched_rl::greedy_batch`], the greedy decision
//! `as_policy` and a serving shard run too (the serve parity suite pins
//! them bit-identical for every architecture) — so a canary pass
//! certifies the proposed snapshot scores exactly like the agent it
//! claims to come from.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlsched_rl::{greedy_batch, ActorScratch};

use crate::agent::Agent;
use crate::nets::ScorerSnapshot;
use crate::obs::{QueueSnapshot, SnapshotJob};

/// Why a canary probe rejected a candidate snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum CanaryError {
    /// The candidate's observation window or action space does not match
    /// the canary's.
    Dims {
        /// Expected `(obs_dim, n_actions)`.
        want: (usize, usize),
        /// The candidate's `(obs_dim, n_actions)`.
        got: (usize, usize),
    },
    /// A scored log-probability came back non-finite (NaN/Inf weights
    /// that slipped past — or arose after — the parameter walk). Note
    /// this gate alone is not sufficient: ReLU (`max(0.0)`) swallows a
    /// NaN hidden activation into 0, so hidden-layer poison can reach the
    /// logits as a finite-but-wrong value. Callers must combine the
    /// canary with [`crate::ScorerSnapshot::all_finite`].
    NonFiniteLogits {
        /// First offending canary row.
        row: usize,
    },
    /// The candidate picked a different action than the agent's
    /// in-process scoring on the same row.
    Mismatch {
        /// First diverging canary row.
        row: usize,
        /// The action the agent computes in process.
        want: usize,
        /// The action the candidate snapshot computed.
        got: usize,
    },
}

impl std::fmt::Display for CanaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CanaryError::Dims { want, got } => write!(
                f,
                "canary dims mismatch: want obs_dim/n_actions {want:?}, got {got:?}"
            ),
            CanaryError::NonFiniteLogits { row } => {
                write!(f, "non-finite logits on canary row {row}")
            }
            CanaryError::Mismatch { row, want, got } => write!(
                f,
                "canary row {row} diverged: in-process action {want}, candidate scored {got}"
            ),
        }
    }
}

impl std::error::Error for CanaryError {}

/// A frozen validation batch: synthetic decision points plus the actions
/// the candidate agent computes for them in process. Build one with
/// [`CanaryBatch::probe`] right after training, hand it to the serving
/// tier alongside the proposed snapshot.
#[derive(Debug, Clone)]
pub struct CanaryBatch {
    snapshots: Vec<QueueSnapshot>,
    /// Each row's queue length: its action's clamp bound.
    queue_lens: Vec<usize>,
    obs: Vec<f32>,
    masks: Vec<f32>,
    expected: Vec<usize>,
    obs_dim: usize,
    n_actions: usize,
}

impl CanaryBatch {
    /// Generate `rows` deterministic synthetic decision points (seeded —
    /// same agent, same seed, same canary) and score them through
    /// `agent`'s serving representation, recording the expected actions.
    ///
    /// The synthetic queues sweep short/long, wide/narrow, runnable and
    /// blocked jobs at varying depths, so a candidate that diverges
    /// anywhere in the policy's input space has a real chance of tripping
    /// a row; `rows` in the tens is plenty for the architectures here.
    pub fn probe(agent: &Agent, rows: usize, seed: u64) -> CanaryBatch {
        assert!(rows > 0, "a canary needs at least one row");
        let encoder = agent.encoder();
        let window = encoder.cfg.max_obsv;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut obs = Vec::with_capacity(rows * encoder.obs_dim());
        let mut masks = Vec::with_capacity(rows * encoder.n_actions());
        let mut snapshots = Vec::with_capacity(rows);
        for _ in 0..rows {
            let total_procs = 8u32 << rng.gen_range(0..4u32);
            let free_procs = rng.gen_range(0..=total_procs);
            let depth = rng.gen_range(1..=window.min(12));
            let jobs: Vec<SnapshotJob> = (0..depth)
                .map(|_| {
                    let procs = rng.gen_range(1..=total_procs);
                    SnapshotJob {
                        wait: rng.gen_range(0.0..36_000.0f64),
                        time_bound: rng.gen_range(60.0..259_200.0f64),
                        procs,
                        can_run_now: procs <= free_procs,
                    }
                })
                .collect();
            let snap = QueueSnapshot {
                free_procs,
                total_procs,
                queue_len: depth as u32,
                jobs,
            };
            encoder.encode_snapshot_extend(&snap, &mut obs, &mut masks);
            snapshots.push(snap);
        }
        let queue_lens: Vec<usize> = snapshots.iter().map(QueueSnapshot::queue_len).collect();
        let mut scratch = ActorScratch::new();
        let expected =
            greedy_batch(&agent.ppo().policy, &obs, &masks, &queue_lens, &mut scratch).to_vec();
        CanaryBatch {
            snapshots,
            queue_lens,
            obs,
            masks,
            expected,
            obs_dim: encoder.obs_dim(),
            n_actions: encoder.n_actions(),
        }
    }

    /// Number of decision points in the batch.
    pub fn rows(&self) -> usize {
        self.snapshots.len()
    }

    /// Row `i` as a scoring request: `(snapshot, expected_action)` — what
    /// a chaos/parity test sends over the wire as a `Score` request to
    /// assert model-served decisions still match in-process bits.
    pub fn row(&self, i: usize) -> (&QueueSnapshot, usize) {
        (&self.snapshots[i], self.expected[i])
    }

    /// Validate a candidate snapshot: dimensions must match, every scored
    /// log-probability must be finite, and every row's action must equal
    /// the agent's in-process decision. `Ok(())` certifies the candidate
    /// is bit-faithful to the agent the canary was probed from.
    pub fn check(&self, candidate: &ScorerSnapshot) -> Result<(), CanaryError> {
        if candidate.obs_dim() != self.obs_dim || candidate.n_actions() != self.n_actions {
            return Err(CanaryError::Dims {
                want: (self.obs_dim, self.n_actions),
                got: (candidate.obs_dim(), candidate.n_actions()),
            });
        }
        let mut scratch = ActorScratch::new();
        let actions = greedy_batch(
            candidate.net(),
            &self.obs,
            &self.masks,
            &self.queue_lens,
            &mut scratch,
        );
        let mismatch = (actions.iter().zip(&self.expected).enumerate())
            .find(|(_, (got, want))| got != want)
            .map(|(row, (&got, &want))| CanaryError::Mismatch { row, want, got });
        // The finite-logit gate wins: an argmax over NaNs means nothing.
        let mut logp = scratch.logp().chunks(self.n_actions);
        if let Some(row) = logp.position(|row| row.iter().any(|v| !v.is_finite())) {
            return Err(CanaryError::NonFiniteLogits { row });
        }
        mismatch.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentConfig;
    use crate::nets::{build_policy, PolicyKind};
    use crate::obs::ObsConfig;
    use rlsched_rl::PpoConfig;
    use rlsched_sim::MetricKind;

    fn agent(kind: PolicyKind, seed: u64) -> Agent {
        Agent::new(AgentConfig {
            policy: kind,
            obs: ObsConfig {
                max_obsv: 16,
                ..ObsConfig::default()
            },
            metric: MetricKind::BoundedSlowdown,
            ppo: PpoConfig::default(),
            seed,
        })
    }

    #[test]
    fn probe_is_deterministic_and_self_consistent() {
        for kind in [PolicyKind::Kernel, PolicyKind::MlpV1] {
            let a = agent(kind, 3);
            let c1 = CanaryBatch::probe(&a, 24, 99);
            let c2 = CanaryBatch::probe(&a, 24, 99);
            assert_eq!(c1.expected, c2.expected, "{}", kind.name());
            assert_eq!(c1.obs, c2.obs, "{}", kind.name());
            c1.check(&a.scorer_snapshot())
                .expect("an agent's own snapshot passes its canary");
        }
    }

    #[test]
    fn wrong_agent_fails_the_canary() {
        let a = agent(PolicyKind::Kernel, 3);
        let b = agent(PolicyKind::Kernel, 4);
        let canary = CanaryBatch::probe(&a, 32, 7);
        let err = canary
            .check(&b.scorer_snapshot())
            .expect_err("different weights must trip a canary row");
        assert!(matches!(err, CanaryError::Mismatch { .. }), "{err}");
    }

    #[test]
    fn dim_mismatch_is_rejected_before_scoring() {
        let a = agent(PolicyKind::Kernel, 3);
        let canary = CanaryBatch::probe(&a, 8, 7);
        let wide = Agent::new(AgentConfig {
            policy: PolicyKind::Kernel,
            obs: ObsConfig {
                max_obsv: 32,
                ..ObsConfig::default()
            },
            metric: MetricKind::BoundedSlowdown,
            ppo: PpoConfig::default(),
            seed: 3,
        });
        let err = canary.check(&wide.scorer_snapshot()).unwrap_err();
        assert!(matches!(err, CanaryError::Dims { .. }), "{err}");
    }

    #[test]
    fn nan_poisoned_snapshot_fails_finite_gates() {
        // Poison both network families, the kernel policy's per-job MLP
        // and MLP v1's flat one, in the OUTPUT layer: a hidden-layer NaN
        // is swallowed by ReLU (max(NaN, 0.0) == 0.0), which is exactly
        // why all_finite is the primary gate and the logit check only a
        // backstop.
        for kind in [PolicyKind::Kernel, PolicyKind::MlpV1] {
            let a = agent(kind, 5);
            let canary = CanaryBatch::probe(&a, 16, 11);
            let mut net = build_policy(kind, 16, 5);
            let last = net.params_mut().last().unwrap();
            for v in last.data_mut() {
                *v = f32::NAN;
            }
            let snap = ScorerSnapshot::new(&net);
            assert!(
                !snap.all_finite(),
                "{}: weight walk catches NaN",
                kind.name()
            );
            let err = canary
                .check(&snap)
                .expect_err("NaN logits must be rejected");
            assert!(
                matches!(err, CanaryError::NonFiniteLogits { .. }),
                "{}: {err}",
                kind.name()
            );
        }
    }

    #[test]
    fn hidden_layer_nan_slips_the_logit_gate_but_not_all_finite() {
        // Documents the ReLU-swallowing hazard: NaN in an early layer can
        // come out of the forward as finite logits, so a server relying on
        // the canary alone would install a poisoned checkpoint. The weight
        // walk must run first.
        let mut net = build_policy(PolicyKind::Kernel, 16, 5);
        net.params_mut().next().unwrap().data_mut()[0] = f32::NAN;
        let snap = ScorerSnapshot::new(&net);
        assert!(!snap.all_finite(), "weight walk still catches it");
    }
}
