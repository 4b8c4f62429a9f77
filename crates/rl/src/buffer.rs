//! Rollout storage with Generalized Advantage Estimation.
//!
//! Mirrors the Spinning Up `PPOBuffer`: during an episode, per-step
//! observations, masks, actions, rewards, value estimates and sampled
//! log-probs are appended; `finish_path` closes the episode and computes
//! GAE-λ advantages and reward-to-go returns. The batch-job reward
//! structure of the paper — zero intermediate rewards, full metric at the
//! last action (§IV-A) — is just a special case.

/// One merged, advantage-normalized training batch.
///
/// The observation and mask rows stay in the storage the rollout wrote
/// them into — one segment per collecting arena, moved in, never copied —
/// and a row locator puts them in episode order: [`Batch::row`] `i` is
/// the `i`-th transition of the merged episode sequence, the same order
/// the per-row vectors below are in.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    obs_dim: usize,
    n_actions: usize,
    segments: Vec<Segment>,
    /// Batch row → (segment, row within the segment), in episode order.
    locator: Vec<(u32, u32)>,
    /// Chosen actions.
    pub actions: Vec<usize>,
    /// Normalized GAE advantages.
    pub advantages: Vec<f32>,
    /// Reward-to-go returns (value-function targets).
    pub returns: Vec<f32>,
    /// Behavior-policy log-probs at sampling time.
    pub logp_old: Vec<f32>,
}

/// Row storage of one collector: `[rows, obs_dim]` observations and
/// `[rows, n_actions]` additive masks, row-major, in arrival order.
#[derive(Debug, Clone)]
struct Segment {
    obs: Vec<f32>,
    masks: Vec<f32>,
}

impl Batch {
    /// Number of transitions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Action-mask width.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Transition `i`'s observation and additive action mask.
    #[inline]
    pub fn row(&self, i: usize) -> (&[f32], &[f32]) {
        let (seg, r) = self.locator[i];
        let (s, r) = (&self.segments[seg as usize], r as usize);
        let (od, na) = (self.obs_dim, self.n_actions);
        (&s.obs[r * od..(r + 1) * od], &s.masks[r * na..(r + 1) * na])
    }
}

/// Episode-granular rollout buffer.
#[derive(Debug, Clone)]
pub struct RolloutBuffer {
    obs_dim: usize,
    n_actions: usize,
    gamma: f64,
    lam: f64,
    obs: Vec<f32>,
    masks: Vec<f32>,
    actions: Vec<usize>,
    rewards: Vec<f64>,
    values: Vec<f64>,
    logps: Vec<f32>,
    advantages: Vec<f64>,
    returns: Vec<f64>,
    path_start: usize,
}

impl RolloutBuffer {
    /// An empty buffer for `(obs_dim, n_actions)` transitions.
    pub fn new(obs_dim: usize, n_actions: usize, gamma: f64, lam: f64) -> Self {
        RolloutBuffer {
            obs_dim,
            n_actions,
            gamma,
            lam,
            obs: Vec::new(),
            masks: Vec::new(),
            actions: Vec::new(),
            rewards: Vec::new(),
            values: Vec::new(),
            logps: Vec::new(),
            advantages: Vec::new(),
            returns: Vec::new(),
            path_start: 0,
        }
    }

    /// Append one step of the current episode.
    pub fn store(
        &mut self,
        obs: &[f32],
        mask: &[f32],
        action: usize,
        reward: f64,
        value: f64,
        logp: f32,
    ) {
        assert_eq!(obs.len(), self.obs_dim, "observation width");
        assert_eq!(mask.len(), self.n_actions, "mask width");
        assert!(action < self.n_actions, "action out of range");
        self.obs.extend_from_slice(obs);
        self.masks.extend_from_slice(mask);
        self.actions.push(action);
        self.rewards.push(reward);
        self.values.push(value);
        self.logps.push(logp);
    }

    /// Close the current episode. `last_value` bootstraps a truncated
    /// episode (0.0 for terminal states, as in scheduling episodes that
    /// always run to completion).
    pub fn finish_path(&mut self, last_value: f64) {
        let start = self.path_start;
        let end = self.rewards.len();
        assert!(end > start, "finish_path on an empty episode");
        self.advantages.resize(end, 0.0);
        self.returns.resize(end, 0.0);
        gae_and_returns(
            end - start,
            last_value,
            self.gamma,
            self.lam,
            |i| start + i,
            &self.rewards,
            &self.values,
            &mut self.advantages,
            &mut self.returns,
        );
        self.path_start = end;
    }

    /// Steps stored so far (finished or not).
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Sum of rewards of all finished episodes.
    pub fn total_reward(&self) -> f64 {
        self.rewards[..self.path_start].iter().sum()
    }

    /// Merge finished episodes from several buffers into one training
    /// batch (one segment, in buffer order), normalizing advantages to
    /// zero mean / unit variance across the whole batch (the Spinning Up
    /// "advantage normalization trick").
    pub fn into_batch(buffers: Vec<RolloutBuffer>) -> Batch {
        assert!(!buffers.is_empty());
        let obs_dim = buffers[0].obs_dim;
        let n_actions = buffers[0].n_actions;
        let mut obs = Vec::new();
        let mut masks = Vec::new();
        let mut actions = Vec::new();
        let mut advantages: Vec<f64> = Vec::new();
        let mut returns = Vec::new();
        let mut logp_old = Vec::new();
        for b in &buffers {
            assert_eq!(b.obs_dim, obs_dim);
            assert_eq!(b.n_actions, n_actions);
            assert_eq!(
                b.path_start,
                b.actions.len(),
                "all episodes must be finished before batching"
            );
            let n = b.path_start;
            obs.extend_from_slice(&b.obs[..n * obs_dim]);
            masks.extend_from_slice(&b.masks[..n * n_actions]);
            actions.extend_from_slice(&b.actions[..n]);
            advantages.extend_from_slice(&b.advantages[..n]);
            returns.extend(b.returns[..n].iter().map(|&r| r as f32));
            logp_old.extend_from_slice(&b.logps[..n]);
        }
        let n = row_count(actions.len());
        Batch {
            obs_dim,
            n_actions,
            segments: vec![Segment { obs, masks }],
            locator: (0..n).map(|r| (0, r)).collect(),
            actions,
            advantages: normalize_advantages(&advantages),
            returns,
            logp_old,
        }
    }
}

/// A batch's row count as a locator index: rows are addressed with `u32`.
fn row_count(n: usize) -> u32 {
    assert!(n > 0, "empty batch");
    u32::try_from(n).expect("a batch holds at most u32::MAX rows")
}

/// GAE-λ advantages and reward-to-go returns for one `n`-step episode,
/// bootstrapped with `last_value`: `delta_t = r_t + γ V_{t+1} − V_t`,
/// `A_t = Σ_k (γλ)^k delta_{t+k}`. `row` maps the episode's step index
/// to its storage row in the reward/value (and output) arrays — the ONE
/// recurrence shared by the contiguous per-episode [`RolloutBuffer`] and
/// the interleaved [`ArrivalArena`], so the two can never drift apart.
#[allow(clippy::too_many_arguments)] // the full GAE term list, both storages
fn gae_and_returns(
    n: usize,
    last_value: f64,
    gamma: f64,
    lam: f64,
    row: impl Fn(usize) -> usize,
    rewards: &[f64],
    values: &[f64],
    advantages: &mut [f64],
    returns: &mut [f64],
) {
    let mut next_adv = 0.0f64;
    for i in (0..n).rev() {
        let r = row(i);
        let v = values[r];
        let next_v = if i + 1 < n {
            values[row(i + 1)]
        } else {
            last_value
        };
        let delta = rewards[r] + gamma * next_v - v;
        next_adv = delta + gamma * lam * next_adv;
        advantages[r] = next_adv;
    }
    let mut running = last_value;
    for i in (0..n).rev() {
        let r = row(i);
        running = rewards[r] + gamma * running;
        returns[r] = running;
    }
}

/// The Spinning Up "advantage normalization trick": zero mean / unit
/// variance over the merged batch (1e-8 std floor), shared by both batch
/// assembly paths so the arithmetic cannot diverge between them.
fn normalize_advantages(advantages: &[f64]) -> Vec<f32> {
    let n = advantages.len();
    let mean = advantages.iter().sum::<f64>() / n as f64;
    let var = advantages
        .iter()
        .map(|a| (a - mean) * (a - mean))
        .sum::<f64>()
        / n as f64;
    let std = var.sqrt().max(1e-8);
    advantages
        .iter()
        .map(|a| ((a - mean) / std) as f32)
        .collect()
}

/// Arrival-order rollout arena for the lockstep sampler.
///
/// The lockstep loop produces one transition per live episode per tick —
/// interleaved across episodes. Staging those rows into one
/// [`RolloutBuffer`] per episode means every tick scatters its stores
/// across N growing buffers (N distinct cache tails at lockstep width N)
/// and the final [`RolloutBuffer::into_batch`] re-copies everything
/// anyway. The arena instead appends every row to **one** contiguous
/// tail in arrival order and remembers each episode's row indices; the
/// batch keeps that tail where it is and reads it in episode order.
///
/// Bit-identity contract: [`ArrivalArena::into_batch`] produces exactly
/// the [`Batch`] that per-episode buffers merged through
/// [`RolloutBuffer::into_batch`] would — GAE runs per episode over the
/// same values in the same order, the episode-ordered row locator yields
/// the same rows, and advantage normalization sees the same merged
/// sequence. The `vecenv_parity` suites pin this on both kernel dispatch
/// arms.
#[derive(Debug)]
pub struct ArrivalArena {
    obs_dim: usize,
    n_actions: usize,
    gamma: f64,
    lam: f64,
    obs: Vec<f32>,
    masks: Vec<f32>,
    actions: Vec<usize>,
    rewards: Vec<f64>,
    values: Vec<f64>,
    logps: Vec<f32>,
    advantages: Vec<f64>,
    returns: Vec<f64>,
    /// Per-episode arrival row indices, in step order.
    rows: Vec<Vec<u32>>,
    /// Per-episode bootstrap value recorded at finish (for replay).
    finished: Vec<Option<f64>>,
}

impl ArrivalArena {
    /// An empty arena for `episodes` episodes of `(obs_dim, n_actions)`
    /// transitions.
    pub fn new(obs_dim: usize, n_actions: usize, gamma: f64, lam: f64, episodes: usize) -> Self {
        ArrivalArena {
            obs_dim,
            n_actions,
            gamma,
            lam,
            obs: Vec::new(),
            masks: Vec::new(),
            actions: Vec::new(),
            rewards: Vec::new(),
            values: Vec::new(),
            logps: Vec::new(),
            advantages: Vec::new(),
            returns: Vec::new(),
            rows: (0..episodes).map(|_| Vec::new()).collect(),
            finished: vec![None; episodes],
        }
    }

    /// Append one step of `episode` (steps of one episode must arrive in
    /// order; different episodes may interleave freely).
    #[allow(clippy::too_many_arguments)] // RolloutBuffer::store's row + the episode key
    pub fn store(
        &mut self,
        episode: usize,
        obs: &[f32],
        mask: &[f32],
        action: usize,
        reward: f64,
        value: f64,
        logp: f32,
    ) {
        assert_eq!(obs.len(), self.obs_dim, "observation width");
        assert_eq!(mask.len(), self.n_actions, "mask width");
        assert!(action < self.n_actions, "action out of range");
        assert!(
            self.finished[episode].is_none(),
            "store into a finished episode"
        );
        let row = self.actions.len() as u32;
        self.obs.extend_from_slice(obs);
        self.masks.extend_from_slice(mask);
        self.actions.push(action);
        self.rewards.push(reward);
        self.values.push(value);
        self.logps.push(logp);
        self.advantages.push(0.0);
        self.returns.push(0.0);
        self.rows[episode].push(row);
    }

    /// Close `episode`, computing its GAE-λ advantages and reward-to-go
    /// returns over its rows through the same `gae_and_returns`
    /// recurrence [`RolloutBuffer::finish_path`] runs.
    pub fn finish_episode(&mut self, episode: usize, last_value: f64) {
        let rows = &self.rows[episode];
        assert!(!rows.is_empty(), "finish_episode on an empty episode");
        assert!(self.finished[episode].is_none(), "episode finished twice");
        gae_and_returns(
            rows.len(),
            last_value,
            self.gamma,
            self.lam,
            |i| rows[i] as usize,
            &self.rewards,
            &self.values,
            &mut self.advantages,
            &mut self.returns,
        );
        self.finished[episode] = Some(last_value);
    }

    /// The arena as a merged, advantage-normalized training batch —
    /// bit-identical to staging per-episode [`RolloutBuffer`]s and
    /// merging them with [`RolloutBuffer::into_batch`] in episode order.
    pub fn into_batch(self) -> Batch {
        Self::merge_into_batch(vec![self])
    }

    /// Merge several arenas into one batch: episodes are ordered by
    /// arena, then by episode within each arena, and advantage
    /// normalization runs ONCE over the merged sequence. Because each
    /// row's GAE depends only on its own episode, the result is
    /// bit-identical to one arena having collected the same episodes in
    /// the same overall order — this is the parallel rollout's seed-order
    /// merge of per-worker arenas.
    ///
    /// Each arena's observation and mask storage moves into the batch as
    /// one segment; only the per-row scalars are gathered.
    pub fn merge_into_batch(arenas: Vec<ArrivalArena>) -> Batch {
        assert!(!arenas.is_empty(), "merge of zero arenas");
        let obs_dim = arenas[0].obs_dim;
        let n_actions = arenas[0].n_actions;
        let n = row_count(arenas.iter().map(|a| a.actions.len()).sum()) as usize;
        let mut segments = Vec::with_capacity(arenas.len());
        let mut locator = Vec::with_capacity(n);
        let mut actions = Vec::with_capacity(n);
        let mut advantages: Vec<f64> = Vec::with_capacity(n);
        let mut returns = Vec::with_capacity(n);
        let mut logp_old = Vec::with_capacity(n);
        for (seg, a) in arenas.into_iter().enumerate() {
            assert_eq!(a.obs_dim, obs_dim);
            assert_eq!(a.n_actions, n_actions);
            for (ep, fin) in a.finished.iter().enumerate() {
                assert!(
                    fin.is_some() || a.rows[ep].is_empty(),
                    "all episodes must be finished before batching"
                );
            }
            for &row in a.rows.iter().flatten() {
                let r = row as usize;
                locator.push((seg as u32, row));
                actions.push(a.actions[r]);
                advantages.push(a.advantages[r]);
                returns.push(a.returns[r] as f32);
                logp_old.push(a.logps[r]);
            }
            segments.push(Segment {
                obs: a.obs,
                masks: a.masks,
            });
        }

        Batch {
            obs_dim,
            n_actions,
            segments,
            locator,
            actions,
            // Advantage normalization over the merged episode order — the
            // same helper `RolloutBuffer::into_batch` runs.
            advantages: normalize_advantages(&advantages),
            returns,
            logp_old,
        }
    }

    /// Replay the arena into per-episode [`RolloutBuffer`]s (episode
    /// order) — the compatibility path for callers that want per-episode
    /// granularity; contents are bit-identical to having staged per
    /// episode from the start.
    pub fn into_episode_buffers(self) -> Vec<RolloutBuffer> {
        self.rows
            .iter()
            .enumerate()
            .map(|(ep, rows)| {
                let mut buf =
                    RolloutBuffer::new(self.obs_dim, self.n_actions, self.gamma, self.lam);
                for &row in rows {
                    let r = row as usize;
                    buf.store(
                        &self.obs[r * self.obs_dim..(r + 1) * self.obs_dim],
                        &self.masks[r * self.n_actions..(r + 1) * self.n_actions],
                        self.actions[r],
                        self.rewards[r],
                        self.values[r],
                        self.logps[r],
                    );
                }
                if let Some(last_value) = self.finished[ep] {
                    buf.finish_path(last_value);
                }
                buf
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_buffer(rewards: &[f64], values: &[f64], gamma: f64, lam: f64) -> RolloutBuffer {
        let mut b = RolloutBuffer::new(2, 3, gamma, lam);
        for (i, (&r, &v)) in rewards.iter().zip(values).enumerate() {
            b.store(&[i as f32, 0.0], &[0.0, 0.0, 0.0], i % 3, r, v, -1.0);
        }
        b.finish_path(0.0);
        b
    }

    #[test]
    fn returns_are_rewards_to_go() {
        let b = simple_buffer(&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0], 1.0, 1.0);
        assert_eq!(b.returns, vec![6.0, 5.0, 3.0]);
    }

    #[test]
    fn discounted_returns() {
        let b = simple_buffer(&[1.0, 1.0], &[0.0, 0.0], 0.5, 1.0);
        assert_eq!(b.returns, vec![1.5, 1.0]);
    }

    #[test]
    fn gae_with_lambda_one_gamma_one_is_return_minus_value() {
        // With γ=λ=1 and terminal bootstrap 0: A_t = G_t − V_t
        // (telescoping identity).
        let rewards = [0.0, 0.0, -5.0];
        let values = [1.0, 2.0, 3.0];
        let b = simple_buffer(&rewards, &values, 1.0, 1.0);
        let expect = [-5.0 - 1.0, -5.0 - 2.0, -5.0 - 3.0];
        for (a, e) in b.advantages.iter().zip(expect) {
            assert!((a - e).abs() < 1e-9, "{a} vs {e}");
        }
    }

    #[test]
    fn gae_lambda_zero_is_one_step_td() {
        // λ=0: A_t = r_t + γ V_{t+1} − V_t.
        let rewards = [1.0, 2.0];
        let values = [0.5, 0.25];
        let b = simple_buffer(&rewards, &values, 0.9, 0.0);
        let e0 = 1.0 + 0.9 * 0.25 - 0.5;
        let e1 = 2.0 + 0.0 - 0.25;
        assert!((b.advantages[0] - e0).abs() < 1e-9);
        assert!((b.advantages[1] - e1).abs() < 1e-9);
    }

    #[test]
    fn delayed_reward_structure_of_the_paper() {
        // Rewards all zero except the last step (−bsld): every action in
        // the episode receives the same return with γ=1.
        let b = simple_buffer(&[0.0, 0.0, 0.0, -42.0], &[0.0; 4], 1.0, 1.0);
        assert!(b.returns.iter().all(|&r| (r + 42.0).abs() < 1e-9));
    }

    #[test]
    fn batch_merges_and_normalizes() {
        let b1 = simple_buffer(&[0.0, -10.0], &[0.0, 0.0], 1.0, 1.0);
        let b2 = simple_buffer(&[0.0, -20.0], &[0.0, 0.0], 1.0, 1.0);
        let batch = RolloutBuffer::into_batch(vec![b1, b2]);
        assert_eq!(batch.len(), 4);
        assert_eq!(
            batch.row(2),
            (&[0.0, 0.0][..], &[0.0; 3][..]),
            "b2's first step"
        );
        assert_eq!(
            batch.row(3),
            (&[1.0, 0.0][..], &[0.0; 3][..]),
            "b2's second step"
        );
        let mean: f32 = batch.advantages.iter().sum::<f32>() / 4.0;
        let var: f32 = batch
            .advantages
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5, "mean {mean}");
        assert!((var - 1.0).abs() < 1e-3, "var {var}");
    }

    #[test]
    fn multi_episode_buffer() {
        let mut b = RolloutBuffer::new(1, 2, 1.0, 1.0);
        b.store(&[0.0], &[0.0, 0.0], 0, 0.0, 0.0, -0.5);
        b.store(&[1.0], &[0.0, 0.0], 1, -1.0, 0.0, -0.5);
        b.finish_path(0.0);
        b.store(&[2.0], &[0.0, 0.0], 0, -2.0, 0.0, -0.5);
        b.finish_path(0.0);
        assert_eq!(b.returns, vec![-1.0, -1.0, -2.0]);
        assert!((b.total_reward() + 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty episode")]
    fn finish_empty_path_panics() {
        let mut b = RolloutBuffer::new(1, 2, 1.0, 1.0);
        b.finish_path(0.0);
    }

    #[test]
    #[should_panic(expected = "must be finished")]
    fn unfinished_episode_cannot_batch() {
        let mut b = RolloutBuffer::new(1, 2, 1.0, 1.0);
        b.store(&[0.0], &[0.0, 0.0], 0, 0.0, 0.0, -0.5);
        let _ = RolloutBuffer::into_batch(vec![b]);
    }

    #[test]
    #[should_panic(expected = "observation width")]
    fn store_checks_widths() {
        let mut b = RolloutBuffer::new(2, 2, 1.0, 1.0);
        b.store(&[0.0], &[0.0, 0.0], 0, 0.0, 0.0, 0.0);
    }

    #[test]
    fn arena_matches_per_episode_buffers_bitwise() {
        // Interleaved arrival across 3 episodes of different lengths must
        // produce exactly the batch (and the replayed buffers) that
        // per-episode staging produces.
        let (gamma, lam) = (0.9, 0.95);
        let mut arena = ArrivalArena::new(2, 3, gamma, lam, 3);
        let mut bufs: Vec<RolloutBuffer> = (0..3)
            .map(|_| RolloutBuffer::new(2, 3, gamma, lam))
            .collect();
        // (episode, step) arrival order with episode 1 finishing early.
        let schedule: &[(usize, usize)] = &[
            (0, 0),
            (1, 0),
            (2, 0),
            (0, 1),
            (1, 1),
            (2, 1),
            (0, 2),
            (2, 2),
            (0, 3),
            (2, 3),
        ];
        for &(ep, t) in schedule {
            let obs = [ep as f32 + t as f32 * 0.1, -(t as f32)];
            let mask = [0.0, 0.0, 0.0];
            let a = (ep + t) % 3;
            let r = (t as f64 + 1.0) * if ep == 1 { -1.0 } else { 0.5 };
            let v = ep as f64 * 0.3 + t as f64 * 0.01;
            let lp = -0.5 - t as f32 * 0.1;
            arena.store(ep, &obs, &mask, a, r, v, lp);
            bufs[ep].store(&obs, &mask, a, r, v, lp);
        }
        for (ep, buf) in bufs.iter_mut().enumerate() {
            arena.finish_episode(ep, 0.0);
            buf.finish_path(0.0);
        }
        let replayed = {
            let mut a2 = ArrivalArena::new(2, 3, gamma, lam, 3);
            for &(ep, t) in schedule {
                let obs = [ep as f32 + t as f32 * 0.1, -(t as f32)];
                a2.store(
                    ep,
                    &obs,
                    &[0.0, 0.0, 0.0],
                    (ep + t) % 3,
                    (t as f64 + 1.0) * if ep == 1 { -1.0 } else { 0.5 },
                    ep as f64 * 0.3 + t as f64 * 0.01,
                    -0.5 - t as f32 * 0.1,
                );
            }
            for ep in 0..3 {
                a2.finish_episode(ep, 0.0);
            }
            a2.into_episode_buffers()
        };
        let from_arena = arena.into_batch();
        let from_bufs = RolloutBuffer::into_batch(bufs);
        assert_same_batch(&from_arena, &from_bufs);
        // And the replay path merges to the same bits.
        let from_replay = RolloutBuffer::into_batch(replayed);
        assert_same_batch(&from_replay, &from_bufs);
    }

    /// Every row and every per-row scalar of `a` equals `b`'s.
    fn assert_same_batch(a: &Batch, b: &Batch) {
        assert_eq!(a.len(), b.len(), "row count");
        for i in 0..a.len() {
            assert_eq!(a.row(i), b.row(i), "row {i}");
        }
        assert_eq!(a.actions, b.actions);
        assert_eq!(a.advantages, b.advantages);
        assert_eq!(a.returns, b.returns);
        assert_eq!(a.logp_old, b.logp_old);
    }

    /// Three episodes of different lengths over two arenas ({0, 1} and
    /// {2}), stored interleaved, and the same episodes in one arena.
    fn split_and_whole(gamma: f64, lam: f64) -> (Vec<ArrivalArena>, ArrivalArena) {
        let step = |ep: usize, t: usize| {
            (
                [ep as f32 * 2.0 + t as f32, t as f32 * 0.5],
                [0.0f32, -(ep as f32), t as f32],
                (ep * 2 + t) % 3,
                -((ep + 1) as f64) * (t as f64 + 0.5),
                ep as f64 * 0.1 - t as f64 * 0.2,
                -0.3 - ep as f32 * 0.07,
            )
        };
        let lens = [4usize, 2, 3];
        let mut whole = ArrivalArena::new(2, 3, gamma, lam, 3);
        let mut first = ArrivalArena::new(2, 3, gamma, lam, 2);
        let mut second = ArrivalArena::new(2, 3, gamma, lam, 1);
        for t in 0..4 {
            for (ep, &len) in lens.iter().enumerate().filter(|&(_, &len)| t < len) {
                let (obs, mask, a, r, v, lp) = step(ep, t);
                whole.store(ep, &obs, &mask, a, r, v, lp);
                if ep < 2 {
                    first.store(ep, &obs, &mask, a, r, v, lp);
                } else {
                    second.store(0, &obs, &mask, a, r, v, lp);
                }
                if t + 1 == len {
                    whole.finish_episode(ep, 0.0);
                    match ep {
                        2 => second.finish_episode(0, 0.0),
                        _ => first.finish_episode(ep, 0.0),
                    }
                }
            }
        }
        (vec![first, second], whole)
    }

    #[test]
    fn split_arenas_merge_bit_identically() {
        // The same 3 episodes collected into one arena vs split across
        // two arenas ({0,1} and {2}) must merge to the same bits — the
        // invariant the parallel rollout's seed-order merge rests on.
        let (split, whole) = split_and_whole(0.97, 0.9);
        let merged = ArrivalArena::merge_into_batch(split);
        assert_same_batch(&merged, &whole.into_batch());
    }

    #[test]
    fn merge_moves_the_arenas_rows_and_reads_them_in_episode_order() {
        // The batch keeps each arena's row storage (same allocation, no
        // copy), and its rows read back exactly what a dense copy in
        // episode order — arena by arena, episode by episode — holds.
        let (split, _) = split_and_whole(0.97, 0.9);
        let mut dense_obs = Vec::new();
        let mut dense_masks = Vec::new();
        for a in &split {
            for &row in a.rows.iter().flatten() {
                let r = row as usize;
                dense_obs.extend_from_slice(&a.obs[r * a.obs_dim..(r + 1) * a.obs_dim]);
                dense_masks.extend_from_slice(&a.masks[r * a.n_actions..(r + 1) * a.n_actions]);
            }
        }
        let storage: Vec<(*const f32, *const f32)> = split
            .iter()
            .map(|a| (a.obs.as_ptr(), a.masks.as_ptr()))
            .collect();

        let batch = ArrivalArena::merge_into_batch(split);
        let held: Vec<(*const f32, *const f32)> = batch
            .segments
            .iter()
            .map(|s| (s.obs.as_ptr(), s.masks.as_ptr()))
            .collect();
        assert_eq!(held, storage, "each arena's storage is a batch segment");
        assert_eq!(batch.len(), 9);
        for i in 0..batch.len() {
            let (obs, mask) = batch.row(i);
            assert_eq!(obs, &dense_obs[i * 2..(i + 1) * 2], "row {i} observation");
            assert_eq!(mask, &dense_masks[i * 3..(i + 1) * 3], "row {i} mask");
        }
    }

    #[test]
    #[should_panic(expected = "must be finished")]
    fn arena_rejects_unfinished_batching() {
        let mut arena = ArrivalArena::new(1, 2, 1.0, 1.0, 1);
        arena.store(0, &[0.0], &[0.0, 0.0], 0, 0.0, 0.0, -0.5);
        let _ = arena.into_batch();
    }

    #[test]
    fn bootstrap_value_used_for_truncated_paths() {
        let mut b = RolloutBuffer::new(1, 2, 1.0, 1.0);
        b.store(&[0.0], &[0.0, 0.0], 0, 1.0, 0.5, -0.5);
        b.finish_path(10.0); // truncated: bootstrap with V=10
        assert_eq!(b.returns, vec![11.0]);
        // A_0 = r + γ·V_boot − V_0 = 1 + 10 − 0.5
        assert!((b.advantages[0] - 10.5).abs() < 1e-9);
    }
}
