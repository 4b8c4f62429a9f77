//! The fused pass's resident footprint: the chunk's gathered rows,
//! activations and gradient buffers belong to a *worker*, so what
//! `FusedScratch` holds of them is `workers × one chunk's need` however
//! many chunks the minibatch has; only the per-chunk partials (gradients
//! + the chunk's log-prob rows) grow with the batch.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlsched_nn::fused::{self, FusedHead, FusedPolicy, FusedScratch, SHARD_ROWS};
use rlsched_nn::{Activation, Mlp};

const F32: usize = std::mem::size_of::<f32>();

#[test]
fn worker_scratch_is_constant_in_the_minibatch_size() {
    // The paper's 32/16/8 kernel network over a 16-job window.
    let (in_dim, window) = (4, 16);
    let dims = [in_dim, 32, 16, 8, 1];
    let mlp = Mlp::new(
        &dims,
        Activation::Relu,
        Activation::Identity,
        &mut StdRng::seed_from_u64(5),
    );
    let params: usize = mlp.layers.iter().map(|l| l.w.len() + l.b.len()).sum();
    let p = FusedPolicy {
        convs: vec![],
        mlp,
        head: FusedHead::Kernel { window },
    };

    // What one full chunk needs while it runs: its 64 windows of job
    // rows (the mask is implied, never copied), every layer's output for
    // 64 × window job rows, three gradient buffers as wide as the widest
    // layer, and the largest transposed weight matrix past layer 0 —
    // plus one job row: the all-zero row the kernel head forwards to
    // score the padding slots.
    let rows = SHARD_ROWS * window + 1;
    let gathered = SHARD_ROWS * window * in_dim + in_dim;
    let acts: usize = dims[1..].iter().map(|d| rows * d).sum();
    let one_chunk = (gathered + acts + 3 * rows * 32 + 32 * 16) * F32;
    // What one chunk leaves behind: its gradients, log-prob rows and
    // selected log-probs.
    let one_partial = (params + SHARD_ROWS * window + SHARD_ROWS) * F32;

    for workers in [1usize, 2] {
        let mut s = FusedScratch::new();
        let mut held = Vec::new();
        for n in [64usize, 256, 2048] {
            // Whole windows: every slot valid.
            let obs: Vec<f32> = (0..n * window * in_dim)
                .map(|i| (i as f32 * 0.37).sin())
                .collect();
            let actions: Vec<usize> = (0..n).map(|i| i % window).collect();
            let adv: Vec<f32> = (0..n).map(|i| (i as f32 * 0.9).cos()).collect();
            let old = vec![-(window as f32).ln(); n];
            let od = window * in_dim;
            let rows = |i: usize| &obs[i * od..(i + 1) * od];
            let index: Vec<u32> = (0..n as u32).collect();
            rlsched_nn::pool::with_threads(workers, || {
                fused::policy_pass(&p, rows, &index, &actions, &adv, &old, 0.2, 0.0, &mut s)
            });

            let n_chunks = n.div_ceil(SHARD_ROWS);
            let in_flight = workers.min(n_chunks);
            assert!(
                s.worker_bytes() <= in_flight * one_chunk,
                "n = {n}, {workers} workers: {} B of worker scratch, one chunk needs {one_chunk}",
                s.worker_bytes()
            );
            assert!(
                s.partial_bytes() <= n_chunks * one_partial,
                "n = {n}: {} B of partials over {n_chunks} chunks of {one_partial}",
                s.partial_bytes()
            );
            if n_chunks >= workers {
                held.push(s.worker_bytes());
            }
        }
        assert!(
            held.len() >= 2 && held.iter().all(|&b| b == held[0] && b > 0),
            "{workers} workers: worker scratch must not grow with the minibatch, held {held:?}"
        );
    }
}
