//! Rollout storage with Generalized Advantage Estimation.
//!
//! Mirrors the Spinning Up `PPOBuffer`: during an episode, per-step
//! observations, actions, rewards, value estimates and sampled log-probs
//! are appended; closing the episode computes GAE-λ advantages and
//! reward-to-go returns. The batch-job reward structure of the paper —
//! zero intermediate rewards, full metric at the last action (§IV-A) — is
//! just a special case.
//!
//! An observation is stored ragged: only its window's `n` valid job rows
//! and their count. Under [`Env`](crate::Env)'s window contract the other
//! slots are all-zero rows masked at [`MASK_OFF`], so neither they nor the
//! mask are kept; the fused update rebuilds both in its worker scratch
//! (`rlsched_nn::fused`). [`ArrivalArena::store`] is where a window is
//! held to that contract and its `n` worked out.

use crate::categorical::MASK_OFF;

/// One merged, advantage-normalized training batch.
///
/// The transitions' job rows stay in the storage the rollout wrote them
/// into — one segment per collecting arena, moved in, never copied — and
/// a row locator puts them in episode order: [`Batch::row`] `i` is the
/// `i`-th transition of the merged episode sequence, the same order the
/// per-row vectors below are in.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    features: usize,
    n_actions: usize,
    segments: Vec<JobRows>,
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

/// Row storage of one collector, in arrival order: each transition's
/// valid job rows back to back, and where each transition's rows end.
#[derive(Debug, Clone, Default)]
struct JobRows {
    /// `[Σ n, features]` job rows, row-major.
    jobs: Vec<f32>,
    /// Transition `r` holds job rows `ends[r - 1]..ends[r]` (from 0 for
    /// the first): its `n` is the difference.
    ends: Vec<u32>,
}

impl JobRows {
    /// Transition `r`'s job rows, `n × features` values.
    fn get(&self, r: usize, features: usize) -> &[f32] {
        let start = r.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.jobs[start * features..self.ends[r] as usize * features]
    }

    /// Append one transition's job rows.
    fn push(&mut self, jobs: &[f32], features: usize) {
        let before = self.ends.last().copied().unwrap_or(0);
        let n = u32::try_from(jobs.len() / features).expect("a window's rows fit in u32");
        let end = before
            .checked_add(n)
            .expect("an arena holds at most u32::MAX job rows");
        self.jobs.extend_from_slice(jobs);
        self.ends.push(end);
    }

    /// Bytes of the stored rows and counts.
    fn bytes(&self) -> usize {
        self.jobs.len() * size_of::<f32>() + self.ends.len() * size_of::<u32>()
    }
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

    /// Slots per window (the action count).
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Features per job row.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Transition `i`'s valid job rows: the first `n` slots of its
    /// window, `n × features` values. The window's other slots are
    /// all-zero rows masked at [`MASK_OFF`], and action `i` is below `n`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        let (seg, r) = self.locator[i];
        self.segments[seg as usize].get(r as usize, self.features)
    }

    /// Bytes of the stored observations: every transition's job rows
    /// (`4 · features · Σ n`) plus one 4-byte row end per transition.
    pub fn storage_bytes(&self) -> usize {
        self.segments.iter().map(JobRows::bytes).sum()
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
/// to its storage row in the reward/value (and output) arrays.
#[allow(clippy::too_many_arguments)] // the full GAE term list
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
/// variance over the merged batch (1e-8 std floor).
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

/// The valid slot count `n` of a window of `features`-value job rows,
/// held to [`Env`](crate::Env)'s window contract: the first `n ≥ 1` slots
/// are masked at exactly 0.0, every later one at [`MASK_OFF`] with
/// all-zero features. Panics on a window that breaks it.
fn valid_slots(obs: &[f32], mask: &[f32], features: usize) -> usize {
    let n = mask.iter().take_while(|m| m.to_bits() == 0).count();
    assert!(n >= 1, "window contract: a window needs a valid first slot");
    // Branch-free scans (they vectorize); the position is looked up only
    // to report a violation.
    let off = MASK_OFF.to_bits();
    if mask[n..].iter().fold(0, |acc, m| acc | (m.to_bits() ^ off)) != 0 {
        let j = mask[n..]
            .iter()
            .position(|m| m.to_bits() != off)
            .unwrap_or(0);
        panic!(
            "window contract: slot {} is masked at {} after {n} valid slots; \
             the valid slots must be a prefix and the rest masked at MASK_OFF",
            n + j,
            mask[n + j]
        );
    }
    let padding = &obs[n * features..];
    if padding.iter().fold(0, |acc, v| acc | v.to_bits()) != 0 {
        let j = padding.iter().position(|v| v.to_bits() != 0).unwrap_or(0);
        panic!(
            "window contract: padding slot {} has a nonzero feature",
            n + j / features
        );
    }
    n
}

/// Arrival-order rollout arena: the one rollout store.
///
/// The lockstep loop produces one transition per live episode per tick —
/// interleaved across episodes. The arena appends every transition to
/// **one** contiguous tail in arrival order and remembers each episode's
/// row indices; the batch keeps that tail where it is and reads it in
/// episode order.
///
/// Bit-identity contract: the batch does not depend on how the episodes'
/// steps interleaved on arrival — GAE runs per episode over the same
/// values in the same order, the episode-ordered row locator yields the
/// same rows, and advantage normalization sees the same merged sequence.
/// So an arena filled one episode at a time, or several arenas merged by
/// [`ArrivalArena::merge_into_batch`], give the same bits. The
/// `vecenv_parity` suites pin this on both kernel dispatch arms.
#[derive(Debug)]
pub struct ArrivalArena {
    features: usize,
    n_actions: usize,
    gamma: f64,
    lam: f64,
    rows: JobRows,
    actions: Vec<usize>,
    rewards: Vec<f64>,
    values: Vec<f64>,
    logps: Vec<f32>,
    advantages: Vec<f64>,
    returns: Vec<f64>,
    /// Per-episode arrival row indices, in step order.
    episodes: Vec<Vec<u32>>,
    /// Per episode: closed by [`ArrivalArena::finish_episode`].
    finished: Vec<bool>,
}

impl ArrivalArena {
    /// An empty arena for `episodes` episodes of `(obs_dim, n_actions)`
    /// transitions. Under the window contract `obs_dim` is `n_actions`
    /// job rows of `obs_dim / n_actions` features.
    pub fn new(obs_dim: usize, n_actions: usize, gamma: f64, lam: f64, episodes: usize) -> Self {
        assert!(
            n_actions > 0 && obs_dim.is_multiple_of(n_actions),
            "window contract: {obs_dim} observation values are not {n_actions} job rows"
        );
        ArrivalArena {
            features: obs_dim / n_actions,
            n_actions,
            gamma,
            lam,
            rows: JobRows::default(),
            actions: Vec::new(),
            rewards: Vec::new(),
            values: Vec::new(),
            logps: Vec::new(),
            advantages: Vec::new(),
            returns: Vec::new(),
            episodes: (0..episodes).map(|_| Vec::new()).collect(),
            finished: vec![false; episodes],
        }
    }

    /// Append one step of `episode` (steps of one episode must arrive in
    /// order; different episodes may interleave freely). `obs` and `mask`
    /// are the whole window; only its valid job rows are kept. Panics
    /// when the window breaks the window contract or `action` is not one
    /// of its valid slots.
    #[allow(clippy::too_many_arguments)] // one transition + the episode key
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
        let f = self.features;
        assert_eq!(obs.len(), f * self.n_actions, "observation width");
        assert_eq!(mask.len(), self.n_actions, "mask width");
        assert!(!self.finished[episode], "store into a finished episode");
        let n = valid_slots(obs, mask, f);
        assert!(
            action < n,
            "action {action} is past the window's {n} valid slots"
        );
        let row = u32::try_from(self.actions.len()).expect("an arena holds at most u32::MAX rows");
        self.rows.push(&obs[..n * f], f);
        self.actions.push(action);
        self.rewards.push(reward);
        self.values.push(value);
        self.logps.push(logp);
        self.advantages.push(0.0);
        self.returns.push(0.0);
        self.episodes[episode].push(row);
    }

    /// Close `episode`, computing its GAE-λ advantages and reward-to-go
    /// returns over its rows. `last_value` bootstraps a truncated episode
    /// (0.0 for terminal states, as in scheduling episodes that always
    /// run to completion).
    pub fn finish_episode(&mut self, episode: usize, last_value: f64) {
        let rows = &self.episodes[episode];
        assert!(!rows.is_empty(), "finish_episode on an empty episode");
        assert!(!self.finished[episode], "episode finished twice");
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
        self.finished[episode] = true;
    }

    /// The arena as a merged, advantage-normalized training batch, its
    /// episodes in episode order.
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
    /// Each arena's job-row storage moves into the batch as one segment;
    /// only the per-row scalars are gathered.
    pub fn merge_into_batch(arenas: Vec<ArrivalArena>) -> Batch {
        assert!(!arenas.is_empty(), "merge of zero arenas");
        let (features, n_actions) = (arenas[0].features, arenas[0].n_actions);
        let n = row_count(arenas.iter().map(|a| a.actions.len()).sum()) as usize;
        let mut segments = Vec::with_capacity(arenas.len());
        let mut locator = Vec::with_capacity(n);
        let mut actions = Vec::with_capacity(n);
        let mut advantages: Vec<f64> = Vec::with_capacity(n);
        let mut returns = Vec::with_capacity(n);
        let mut logp_old = Vec::with_capacity(n);
        for (seg, a) in arenas.into_iter().enumerate() {
            assert_eq!(a.features, features);
            assert_eq!(a.n_actions, n_actions);
            for (ep, &fin) in a.finished.iter().enumerate() {
                assert!(
                    fin || a.episodes[ep].is_empty(),
                    "all episodes must be finished before batching"
                );
            }
            for &row in a.episodes.iter().flatten() {
                let r = row as usize;
                locator.push((seg as u32, row));
                actions.push(a.actions[r]);
                advantages.push(a.advantages[r]);
                returns.push(a.returns[r] as f32);
                logp_old.push(a.logps[r]);
            }
            segments.push(a.rows);
        }

        Batch {
            features,
            n_actions,
            segments,
            locator,
            actions,
            // Advantage normalization over the merged episode order.
            advantages: normalize_advantages(&advantages),
            returns,
            logp_old,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Step `i` of an episode over 3-slot windows of 2-feature job rows:
    /// `1 + i % 3` valid slots, every feature of slot `j` is `i + j + 1`,
    /// and the action takes the last valid slot.
    fn window(i: usize) -> ([f32; 6], [f32; 3], usize) {
        let n = 1 + i % 3;
        let (mut obs, mut mask) = ([0.0; 6], [MASK_OFF; 3]);
        for j in 0..n {
            obs[2 * j..2 * j + 2].fill((i + j + 1) as f32);
            mask[j] = 0.0;
        }
        (obs, mask, n - 1)
    }

    /// One finished episode with these rewards and value estimates.
    fn simple_buffer(rewards: &[f64], values: &[f64], gamma: f64, lam: f64) -> ArrivalArena {
        let mut b = ArrivalArena::new(6, 3, gamma, lam, 1);
        for (i, (&r, &v)) in rewards.iter().zip(values).enumerate() {
            let (obs, mask, a) = window(i);
            b.store(0, &obs, &mask, a, r, v, -1.0);
        }
        b.finish_episode(0, 0.0);
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
        let batch = ArrivalArena::merge_into_batch(vec![b1, b2]);
        assert_eq!(batch.len(), 4);
        // Only each window's valid job rows are kept.
        assert_eq!(batch.row(2), &[1.0, 1.0][..], "b2's first step");
        assert_eq!(batch.row(3), &[2.0, 2.0, 3.0, 3.0][..], "b2's second step");
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
        // Two episodes stored one after the other.
        let mut b = ArrivalArena::new(2, 2, 1.0, 1.0, 2);
        b.store(0, &[0.5, 0.0], &[0.0, MASK_OFF], 0, 0.0, 0.0, -0.5);
        b.store(0, &[1.0, 2.0], &[0.0, 0.0], 1, -1.0, 0.0, -0.5);
        b.finish_episode(0, 0.0);
        b.store(1, &[2.0, 0.0], &[0.0, MASK_OFF], 0, -2.0, 0.0, -0.5);
        b.finish_episode(1, 0.0);
        assert_eq!(b.returns, vec![-1.0, -1.0, -2.0]);
        let batch = b.into_batch();
        assert_eq!(batch.actions, vec![0, 1, 0]);
        assert_eq!(batch.row(1), &[1.0, 2.0][..]);
    }

    #[test]
    #[should_panic(expected = "empty episode")]
    fn finish_empty_path_panics() {
        let mut b = ArrivalArena::new(2, 2, 1.0, 1.0, 1);
        b.finish_episode(0, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be finished")]
    fn unfinished_episode_cannot_batch() {
        // Episode 0 is closed, episode 1 is not.
        let mut b = ArrivalArena::new(2, 2, 1.0, 1.0, 2);
        b.store(0, &[0.0, 0.0], &[0.0, 0.0], 0, 0.0, 0.0, -0.5);
        b.store(1, &[0.0, 0.0], &[0.0, 0.0], 0, 0.0, 0.0, -0.5);
        b.finish_episode(0, 0.0);
        let _ = b.into_batch();
    }

    #[test]
    #[should_panic(expected = "observation width")]
    fn store_checks_widths() {
        let mut b = ArrivalArena::new(2, 2, 1.0, 1.0, 1);
        b.store(0, &[0.0], &[0.0, 0.0], 0, 0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "the valid slots must be a prefix")]
    fn store_rejects_a_mask_gap() {
        let mut b = ArrivalArena::new(3, 3, 1.0, 1.0, 1);
        b.store(0, &[1.0, 0.0, 1.0], &[0.0, MASK_OFF, 0.0], 0, 0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "padding slot 2 has a nonzero feature")]
    fn store_rejects_nonzero_padding() {
        let mut b = ArrivalArena::new(6, 3, 1.0, 1.0, 1);
        let obs = [1.0, 1.0, 0.0, 0.0, 0.0, 0.5];
        b.store(0, &obs, &[0.0, MASK_OFF, MASK_OFF], 0, 0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "action 1 is past the window's 1 valid slots")]
    fn store_rejects_an_action_in_the_padding() {
        let mut b = ArrivalArena::new(3, 3, 1.0, 1.0, 1);
        b.store(
            0,
            &[1.0, 0.0, 0.0],
            &[0.0, MASK_OFF, MASK_OFF],
            1,
            0.0,
            0.0,
            0.0,
        );
    }

    #[test]
    #[should_panic(expected = "a window needs a valid first slot")]
    fn store_rejects_a_window_without_a_valid_slot() {
        let mut b = ArrivalArena::new(2, 2, 1.0, 1.0, 1);
        b.store(0, &[0.0, 0.0], &[MASK_OFF, MASK_OFF], 0, 0.0, 0.0, 0.0);
    }

    #[test]
    fn arena_matches_per_episode_buffers_bitwise() {
        // Interleaved arrival across 3 episodes of different lengths must
        // produce exactly the batch that storing one episode at a time
        // produces.
        let (gamma, lam) = (0.9, 0.95);
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
        let fill = |order: &mut dyn Iterator<Item = (usize, usize)>| {
            let mut arena = ArrivalArena::new(6, 3, gamma, lam, 3);
            let mut last = [0usize; 3];
            for (ep, t) in order {
                let (obs, mask, a) = window(ep + t);
                let r = (t as f64 + 1.0) * if ep == 1 { -1.0 } else { 0.5 };
                let v = ep as f64 * 0.3 + t as f64 * 0.01;
                arena.store(ep, &obs, &mask, a, r, v, -0.5 - t as f32 * 0.1);
                last[ep] = t;
            }
            for ep in 0..3 {
                arena.finish_episode(ep, 0.0);
            }
            (arena.into_batch(), last)
        };
        let (interleaved, _) = fill(&mut schedule.iter().copied());
        let mut sequential = schedule.to_vec();
        sequential.sort_unstable();
        let (episode_at_a_time, last) = fill(&mut sequential.into_iter());
        assert_eq!(last, [3, 1, 3], "episode lengths");
        assert_same_batch(&interleaved, &episode_at_a_time);
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
            let (obs, mask, a) = window(ep * 2 + t);
            (
                obs,
                mask,
                a,
                -((ep + 1) as f64) * (t as f64 + 0.5),
                ep as f64 * 0.1 - t as f64 * 0.2,
                -0.3 - ep as f32 * 0.07,
            )
        };
        let lens = [4usize, 2, 3];
        let mut whole = ArrivalArena::new(6, 3, gamma, lam, 3);
        let mut first = ArrivalArena::new(6, 3, gamma, lam, 2);
        let mut second = ArrivalArena::new(6, 3, gamma, lam, 1);
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
        // copy), and its rows read back exactly the windows' valid job
        // rows in episode order — arena by arena, episode by episode.
        let (split, _) = split_and_whole(0.97, 0.9);
        let mut expected = Vec::new();
        for (ep, len) in [(0usize, 4usize), (1, 2), (2, 3)] {
            for t in 0..len {
                let (obs, mask, _) = window(ep * 2 + t);
                let n = mask.iter().filter(|&&m| m == 0.0).count();
                expected.push(obs[..2 * n].to_vec());
            }
        }
        let storage: Vec<(*const f32, *const u32)> = split
            .iter()
            .map(|a| (a.rows.jobs.as_ptr(), a.rows.ends.as_ptr()))
            .collect();

        let batch = ArrivalArena::merge_into_batch(split);
        let held: Vec<(*const f32, *const u32)> = batch
            .segments
            .iter()
            .map(|s| (s.jobs.as_ptr(), s.ends.as_ptr()))
            .collect();
        assert_eq!(held, storage, "each arena's storage is a batch segment");
        assert_eq!(batch.len(), 9);
        for (i, rows) in expected.iter().enumerate() {
            assert_eq!(batch.row(i), &rows[..], "row {i}");
        }
        let job_rows: usize = expected.iter().map(|r| r.len() / 2).sum();
        assert_eq!(batch.storage_bytes(), 4 * 2 * job_rows + 4 * 9);
    }

    #[test]
    #[should_panic(expected = "must be finished")]
    fn arena_rejects_unfinished_batching() {
        let mut arena = ArrivalArena::new(2, 2, 1.0, 1.0, 1);
        arena.store(0, &[0.0, 0.0], &[0.0, 0.0], 0, 0.0, 0.0, -0.5);
        let _ = arena.into_batch();
    }

    #[test]
    fn bootstrap_value_used_for_truncated_paths() {
        let mut b = ArrivalArena::new(2, 2, 1.0, 1.0, 1);
        b.store(0, &[0.0, 0.0], &[0.0, 0.0], 0, 1.0, 0.5, -0.5);
        b.finish_episode(0, 10.0); // truncated: bootstrap with V=10
        assert_eq!(b.returns, vec![11.0]);
        // A_0 = r + γ·V_boot − V_0 = 1 + 10 − 0.5
        assert!((b.advantages[0] - 10.5).abs() < 1e-9);
    }
}
